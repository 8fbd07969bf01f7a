//! Overload admission control at the ingress boundary.
//!
//! RackSched-style deployments put a bounded admission queue between the
//! network and the scheduler: under overload the queue — not the
//! scheduler's central queue — decides which requests to shed, and every
//! shed request is *answered and counted*, so conservation (`sent ==
//! completed + rejected + dropped`) holds end to end. There is one answer
//! past the bound: the arrival is refused, and the transport answers the
//! client RETRY so it can back off instead of timing out (on TCP a silent
//! drop would leave the client waiting forever). A class blowing its p99
//! SLO budget is refused the same way at any depth.
//!
//! The gate belongs to one thread: the TCP server's per-shard transport
//! offers each decoded request and takes what was admitted on its
//! dispatcher's own thread. So the queue is a plain `VecDeque` behind a
//! `RefCell`, and [`AdmissionQueue`] is `Send` but not `Sync`. Sheds are
//! recorded twice: in [`AdmissionCounters`], relaxed atomics other
//! threads read (`RuntimeStats::snapshot()`, the admin plane), and as
//! [`AdmissionEvent`]s the dispatcher drains into the tracer as
//! `ADMIT_DROP` instants.

use crate::clock::Clock;
use crate::quantum::{class_slot, slot_class, SloState, CLASS_SLOTS};
use concord_net::Request;
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What to do with an arriving request when the admission queue is full.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Refuse the arrival and tell the transport to answer RETRY.
    RejectNewest,
}

/// Admission-queue configuration.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionConfig {
    /// Maximum queued (admitted but not yet ingested) requests.
    pub capacity: usize,
    /// Overflow policy once `capacity` requests are queued.
    pub policy: AdmissionPolicy,
}

/// Result of offering one request to the admission queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmitOutcome {
    /// Queued; the dispatcher will ingest it.
    Admitted,
    /// Queue full, the arrival was refused; the transport should answer
    /// RETRY.
    Rejected,
    /// The arrival's class is currently blowing its p99 SLO budget; the
    /// transport should answer RETRY. Independent of queue capacity —
    /// only the blowing class is shed.
    SloShed,
}

/// Why an [`AdmissionEvent`] was recorded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionEventKind {
    /// Arrival refused because the queue was full.
    Rejected,
    /// Arrival refused because its class is currently blowing its p99
    /// SLO budget (answered RETRY, like `Rejected`). Only the class
    /// over budget is shed — the queue may be nowhere near capacity.
    SloShed,
}

/// One shed request, stamped at the admission gate. The dispatcher
/// drains these every loop iteration and emits an `ADMIT_DROP` trace
/// event per entry (request id in the id field, class in the generation
/// field).
#[derive(Clone, Copy, Debug)]
pub struct AdmissionEvent {
    /// When the gate shed the request (runtime clock).
    pub ts_ns: u64,
    /// Id of the shed request.
    pub id: u64,
    /// Class of the shed request.
    pub class: u16,
    /// How it was shed.
    pub kind: AdmissionEventKind,
}

/// Per-class admission tallies: a point-in-time copy of one class's row.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassAdmission {
    /// Requests of this class admitted.
    pub admitted: u64,
    /// Requests of this class refused with RETRY on a full queue.
    pub rejected: u64,
    /// Requests of this class refused (RETRY) because the class was
    /// blowing its p99 SLO budget.
    pub slo_shed: u64,
}

impl ClassAdmission {
    /// Requests of this class shed, for either reason.
    pub fn shed(&self) -> u64 {
        self.rejected + self.slo_shed
    }
}

/// One class's live tallies: [`ClassAdmission`] as atomics.
#[derive(Default)]
struct ClassRow {
    admitted: AtomicU64,
    rejected: AtomicU64,
    slo_shed: AtomicU64,
}

impl ClassRow {
    fn load(&self) -> ClassAdmission {
        ClassAdmission {
            admitted: self.admitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            slo_shed: self.slo_shed.load(Ordering::Relaxed),
        }
    }
}

/// Shared admission counters, linked into
/// [`RuntimeStats`](crate::stats::RuntimeStats) by `Runtime::start` so
/// `snapshot()` reports them alongside the scheduler's own counters.
pub struct AdmissionCounters {
    /// Requests admitted into the queue.
    pub admitted: AtomicU64,
    /// Arrivals refused with RETRY on a full queue.
    pub rejected: AtomicU64,
    /// Arrivals refused with RETRY because their class was blowing its
    /// p99 SLO budget.
    pub slo_shed: AtomicU64,
    /// One row per class slot ([`crate::quantum::class_slot`]): fixed
    /// size, so client-controlled class churn cannot grow it, every
    /// shard keys identically, and a bump is one relaxed add with no
    /// lock (same shape as `stats::ClassIngestCounters`).
    per_class: [ClassRow; CLASS_SLOTS],
}

impl Default for AdmissionCounters {
    fn default() -> Self {
        Self {
            admitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            slo_shed: AtomicU64::new(0),
            per_class: std::array::from_fn(|_| ClassRow::default()),
        }
    }
}

impl std::fmt::Debug for AdmissionCounters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionCounters")
            .field("admitted", &self.admitted.load(Ordering::Relaxed))
            .field("rejected", &self.rejected.load(Ordering::Relaxed))
            .field("slo_shed", &self.slo_shed.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl AdmissionCounters {
    fn bump(&self, class: u16, kind: Option<AdmissionEventKind>) {
        let row = &self.per_class[class_slot(class)];
        let (total, of_class) = match kind {
            None => (&self.admitted, &row.admitted),
            Some(AdmissionEventKind::Rejected) => (&self.rejected, &row.rejected),
            Some(AdmissionEventKind::SloShed) => (&self.slo_shed, &row.slo_shed),
        };
        total.fetch_add(1, Ordering::Relaxed);
        of_class.fetch_add(1, Ordering::Relaxed);
    }

    /// Total requests shed (rejected or SLO-shed).
    pub fn shed(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed) + self.slo_shed.load(Ordering::Relaxed)
    }

    /// Total requests offered to the gate (admitted + shed).
    pub fn offered(&self) -> u64 {
        self.admitted.load(Ordering::Relaxed) + self.shed()
    }

    /// Point-in-time copy of the per-class tallies, keyed by the
    /// *folded* class ([`crate::quantum::fold_class`]); a class appears
    /// once the gate has seen it.
    pub fn per_class(&self) -> BTreeMap<u16, ClassAdmission> {
        self.per_class
            .iter()
            .enumerate()
            .map(|(slot, row)| (slot_class(slot), row.load()))
            .filter(|(_, c)| *c != ClassAdmission::default())
            .collect()
    }

    /// Counter rows in `RuntimeStats::snapshot()` shape: the three totals
    /// plus one row per (class, outcome) actually observed.
    pub fn snapshot_rows(&self) -> Vec<(String, u64)> {
        let mut rows = vec![
            (
                "admit_admitted".to_string(),
                self.admitted.load(Ordering::Relaxed),
            ),
            (
                "admit_rejected".to_string(),
                self.rejected.load(Ordering::Relaxed),
            ),
            (
                "admit_slo_shed".to_string(),
                self.slo_shed.load(Ordering::Relaxed),
            ),
        ];
        for (class, c) in self.per_class() {
            rows.push((format!("admit_class{class}_admitted"), c.admitted));
            if c.rejected > 0 {
                rows.push((format!("admit_class{class}_rejected"), c.rejected));
            }
            if c.slo_shed > 0 {
                rows.push((format!("admit_class{class}_slo_shed"), c.slo_shed));
            }
        }
        rows
    }
}

/// The bounded admission gate in front of one dispatcher, offered to and
/// drained on that dispatcher's thread alone. It is `Send` but not
/// `Sync`, so it cannot be shared between threads:
///
/// ```compile_fail
/// fn shared<T: Sync>() {}
/// shared::<concord_core::admission::AdmissionQueue>();
/// ```
pub struct AdmissionQueue {
    capacity: usize,
    counters: Arc<AdmissionCounters>,
    clock: Clock,
    /// Per-class SLO verdicts (written by the runtime's quantum/SLO
    /// controller); absent on gates without SLO budgets.
    slo: Option<Arc<SloState>>,
    state: RefCell<Gate>,
}

/// What the gate holds between an offer and the dispatcher taking it.
#[derive(Default)]
struct Gate {
    queue: VecDeque<Request>,
    events: Vec<AdmissionEvent>,
}

impl AdmissionQueue {
    /// Creates a gate with the given bound, stamping shed events with
    /// `clock` (pass the runtime's clock so trace timestamps share one
    /// timeline).
    pub fn new(cfg: AdmissionConfig, clock: Clock) -> Self {
        Self {
            capacity: cfg.capacity.max(1),
            counters: Arc::new(AdmissionCounters::default()),
            clock,
            slo: None,
            state: RefCell::default(),
        }
    }

    /// Attaches the runtime's SLO state so `offer` can shed classes
    /// that are blowing their p99 budget.
    pub fn attach_slo(&mut self, slo: Arc<SloState>) {
        self.slo = Some(slo);
    }

    /// Shared admission counters.
    pub fn counters(&self) -> Arc<AdmissionCounters> {
        self.counters.clone()
    }

    /// Offers one request at the gate: admitted while fewer than
    /// `capacity` wait, refused otherwise or while its class blows its
    /// SLO budget.
    pub fn offer(&self, req: Request) -> AdmitOutcome {
        // SLO-aware early rejection: if this request's class is blowing
        // its p99 budget, shed *it* with RETRY — targeted, instead of
        // letting the backlog grow until the bound refuses whatever
        // arrives next regardless of class.
        let (outcome, kind) = if self.slo.as_ref().is_some_and(|s| s.should_shed(req.class)) {
            (AdmitOutcome::SloShed, AdmissionEventKind::SloShed)
        } else {
            let mut gate = self.state.borrow_mut();
            if gate.queue.len() < self.capacity {
                gate.queue.push_back(req);
                self.counters.bump(req.class, None);
                return AdmitOutcome::Admitted;
            }
            (AdmitOutcome::Rejected, AdmissionEventKind::Rejected)
        };
        self.counters.bump(req.class, Some(kind));
        self.state.borrow_mut().events.push(AdmissionEvent {
            ts_ns: self.clock.now_ns(),
            id: req.id,
            class: req.class,
            kind,
        });
        outcome
    }

    /// Takes the next admitted request (dispatcher side).
    pub fn pop(&self) -> Option<Request> {
        self.state.borrow_mut().queue.pop_front()
    }

    /// Moves admitted requests, oldest first, into `out` until it holds
    /// `room` of them or the queue is empty.
    pub fn pop_batch(&self, out: &mut Vec<Request>, room: usize) {
        let mut gate = self.state.borrow_mut();
        let n = gate.queue.len().min(room.saturating_sub(out.len()));
        out.extend(gate.queue.drain(..n));
    }

    /// Admitted requests not yet ingested.
    pub fn len(&self) -> usize {
        self.state.borrow().queue.len()
    }

    /// Whether no admitted request is waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Moves all recorded shed events into `out`.
    pub fn drain_events(&self, out: &mut Vec<AdmissionEvent>) {
        out.append(&mut self.state.borrow_mut().events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn req(id: u64, class: u16) -> Request {
        Request {
            id,
            class,
            service_ns: 1_000,
            sent_at: Instant::now(),
        }
    }

    fn queue(capacity: usize) -> AdmissionQueue {
        AdmissionQueue::new(
            AdmissionConfig {
                capacity,
                policy: AdmissionPolicy::RejectNewest,
            },
            Clock::monotonic(),
        )
    }

    #[test]
    fn reject_refuses_and_counts() {
        let q = queue(1);
        q.offer(req(1, 2));
        assert_eq!(q.offer(req(2, 2)), AdmitOutcome::Rejected);
        assert_eq!(q.counters().rejected.load(Ordering::Relaxed), 1);
        let pc = q.counters().per_class();
        assert_eq!(pc.get(&2).unwrap().rejected, 1);
        assert_eq!(pc.get(&2).unwrap().admitted, 1);
    }

    #[test]
    fn the_consumer_side_drains_queue_and_events() {
        let q = queue(1);
        q.offer(req(1, 0));
        q.offer(req(2, 0));
        assert_eq!(q.pop().map(|r| r.id), Some(1));
        assert!(q.pop().is_none());
        let mut evs = Vec::new();
        q.drain_events(&mut evs);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kind, AdmissionEventKind::Rejected);
        assert_eq!(q.counters().offered(), 2);
    }

    #[test]
    fn batch_poll_keeps_order_respects_room_and_tracks_len() {
        let q = queue(8);
        for id in 0..8 {
            q.offer(req(id, 0));
        }
        assert_eq!(q.len(), 8);
        // A refusal leaves the queue as it was.
        assert_eq!(q.offer(req(8, 0)), AdmitOutcome::Rejected);
        assert_eq!(q.len(), 8);
        // `room` bounds what the caller's scratch ends up holding, not
        // what this call adds to it.
        let mut out = vec![req(100, 0)];
        q.pop_batch(&mut out, 4);
        let ids: Vec<u64> = out.iter().map(|r| r.id).collect();
        assert_eq!(ids, [100, 0, 1, 2]);
        assert_eq!(q.len(), 5);
        q.pop_batch(&mut out, 4);
        assert_eq!(out.len(), 4, "no room, nothing taken");
        out.clear();
        q.pop_batch(&mut out, 64);
        let ids: Vec<u64> = out.iter().map(|r| r.id).collect();
        assert_eq!(ids, [3, 4, 5, 6, 7]);
        assert!(q.is_empty() && q.pop().is_none());
    }

    #[test]
    fn snapshot_rows_cover_totals_and_classes() {
        let q = queue(1);
        q.offer(req(1, 0));
        q.offer(req(2, 3));
        let rows = q.counters().snapshot_rows();
        let get = |name: &str| {
            rows.iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("{name} missing"))
                .1
        };
        assert_eq!(get("admit_admitted"), 1);
        assert_eq!(get("admit_rejected"), 1);
        assert_eq!(get("admit_slo_shed"), 0);
        assert_eq!(get("admit_class0_admitted"), 1);
        assert_eq!(get("admit_class3_rejected"), 1);
    }

    #[test]
    fn slo_shed_targets_only_the_blowing_class() {
        use crate::quantum::class_slot;
        let mut q = queue(64);
        let slo = Arc::new(SloState::new(&[(1, 100)]));
        q.attach_slo(slo.clone());
        // Budget intact: both classes admitted.
        assert_eq!(q.offer(req(1, 0)), AdmitOutcome::Admitted);
        assert_eq!(q.offer(req(2, 1)), AdmitOutcome::Admitted);
        // Class 1 blows its budget: it is shed, class 0 sails through
        // even though the queue is far from capacity.
        slo.set_blown(class_slot(1), true);
        assert_eq!(q.offer(req(3, 1)), AdmitOutcome::SloShed);
        assert_eq!(q.offer(req(4, 0)), AdmitOutcome::Admitted);
        let c = q.counters();
        assert_eq!(c.slo_shed.load(Ordering::Relaxed), 1);
        assert_eq!(c.rejected.load(Ordering::Relaxed), 0);
        assert_eq!(c.shed(), 1);
        assert_eq!(c.offered(), 4);
        let pc = c.per_class();
        assert_eq!(pc.get(&1).unwrap().slo_shed, 1);
        assert_eq!(pc.get(&1).unwrap().shed(), 1);
        assert_eq!(pc.get(&0).unwrap().slo_shed, 0);
        // The shed is visible as an event and in the snapshot rows.
        let mut evs = Vec::new();
        q.drain_events(&mut evs);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kind, AdmissionEventKind::SloShed);
        let rows = c.snapshot_rows();
        assert!(rows.contains(&("admit_slo_shed".to_string(), 1)));
        assert!(rows.contains(&("admit_class1_slo_shed".to_string(), 1)));
        // Budget recovers: admissions resume.
        slo.set_blown(class_slot(1), false);
        assert_eq!(q.offer(req(5, 1)), AdmitOutcome::Admitted);

        // Budgeting the heavy class protects the short class under
        // overload: a capacity-4 gate nobody drains is offered heavy
        // (class 1) and short (class 0) arrivals in turn. Class-blind, it
        // fills and turns a short away; with the heavy budget blown every
        // heavy is shed at the door and the gate never fills.
        for budgeted in [false, true] {
            let mut q = queue(4);
            if budgeted {
                let slo = Arc::new(SloState::new(&[(1, 100)]));
                slo.set_blown(class_slot(1), true);
                q.attach_slo(slo);
            }
            for id in 0..6u64 {
                let class = u16::from(id % 2 == 0);
                let out = q.offer(req(id, class));
                match (budgeted, class) {
                    (true, 1) => assert_eq!(out, AdmitOutcome::SloShed),
                    (true, _) => assert_eq!(out, AdmitOutcome::Admitted),
                    (false, _) => assert_eq!(out == AdmitOutcome::Rejected, id >= 4),
                }
            }
            let pc = q.counters().per_class();
            assert_eq!(pc[&0].rejected, if budgeted { 0 } else { 1 });
            assert_eq!(pc[&1].slo_shed, if budgeted { 3 } else { 0 });
            assert_eq!(q.len(), if budgeted { 3 } else { 4 });
        }
    }

    #[test]
    fn per_class_counters_fold_overflow_classes() {
        use crate::telemetry::{MAX_TRACKED_CLASSES, OTHER_CLASS};
        let q = queue(1024);
        // A hostile client cycling through the whole class space must
        // not grow the per-class map unboundedly.
        for id in 0..200u64 {
            q.offer(req(id, (id * 331) as u16));
        }
        let pc = q.counters().per_class();
        assert!(
            pc.len() <= MAX_TRACKED_CLASSES + 1,
            "map bounded: {}",
            pc.len()
        );
        let total: u64 = pc.values().map(|c| c.admitted).sum();
        assert_eq!(total, 200, "fold loses nothing");
        assert!(pc.contains_key(&OTHER_CLASS));
        // The fold is the deterministic class→slot rule, not first-seen.
        assert!(pc
            .keys()
            .all(|&c| (c as usize) < MAX_TRACKED_CLASSES || c == OTHER_CLASS));
    }
}
