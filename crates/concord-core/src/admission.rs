//! Overload admission control at the ingress boundary.
//!
//! RackSched-style deployments put a bounded admission queue between the
//! network and the scheduler: under overload the queue — not the
//! scheduler's central queue — decides which requests to shed, and every
//! shed request is *counted* so conservation (`sent == completed +
//! rejected + dropped`) holds end to end. Three policies:
//!
//! - [`AdmissionPolicy::DropNewest`]: silently drop the arriving request
//!   (what a full NIC ring does; the count makes it non-silent).
//! - [`AdmissionPolicy::DropOldest`]: evict the head of the queue in
//!   favour of the arrival — bounds queueing delay at the cost of wasted
//!   upstream work.
//! - [`AdmissionPolicy::RejectNewest`]: refuse the arrival but tell the
//!   transport, which answers the client with an explicit RETRY so the
//!   client can back off instead of timing out.
//!
//! The queue is multi-producer ([`AdmissionQueue::offer`] from any
//! thread) and single-consumer (the dispatcher); the TCP server's
//! per-shard transport offers and takes on the dispatcher's own thread,
//! so there it is a gate rather than a hand-off. Drops
//! and rejects are recorded twice: in [`AdmissionCounters`] (folded into
//! `RuntimeStats::snapshot()`) and as [`AdmissionEvent`]s the dispatcher
//! drains into the tracer as `ADMIT_DROP` instants.
//!
//! Cost per request: a producer takes the queue mutex once per offer
//! and bumps two relaxed atomics; the dispatcher takes it once per
//! *batch* ([`AdmissionQueue::pop_batch`]). The queue's length is
//! mirrored in an atomic, so an empty dispatcher pass, `len()` and
//! `is_empty()` never touch the mutex.

use crate::clock::Clock;
use crate::quantum::{class_slot, slot_class, SloState, CLASS_SLOTS};
use concord_net::Request;
use concord_sync::MpmcQueue;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::sync::{Mutex, OnceLock};

/// What to do with an arriving request when the admission queue is full.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Drop the arriving request (counted, no reply).
    DropNewest,
    /// Evict the oldest queued request to make room for the arrival.
    DropOldest,
    /// Refuse the arrival and tell the transport to answer RETRY.
    RejectNewest,
}

impl AdmissionPolicy {
    /// Parses the CLI spelling (`drop-newest` / `drop-oldest` / `reject`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "drop-newest" => Some(Self::DropNewest),
            "drop-oldest" => Some(Self::DropOldest),
            "reject" => Some(Self::RejectNewest),
            _ => None,
        }
    }

    /// The CLI spelling accepted by [`AdmissionPolicy::parse`].
    pub fn name(self) -> &'static str {
        match self {
            Self::DropNewest => "drop-newest",
            Self::DropOldest => "drop-oldest",
            Self::RejectNewest => "reject",
        }
    }
}

/// Admission-queue configuration.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionConfig {
    /// Maximum queued (admitted but not yet ingested) requests.
    pub capacity: usize,
    /// Overflow policy once `capacity` requests are queued.
    pub policy: AdmissionPolicy,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            capacity: 1024,
            policy: AdmissionPolicy::DropNewest,
        }
    }
}

/// Result of offering one request to the admission queue.
#[derive(Debug)]
pub enum AdmitOutcome {
    /// Queued; the dispatcher will ingest it.
    Admitted,
    /// Queue full, policy dropped the arrival. No reply is owed.
    DroppedNewest,
    /// Queue full, the arrival was admitted by evicting this older
    /// request. The transport may still owe the evicted client a reply
    /// (the TCP server does not send one: the drop is visible in the
    /// counters and the client accounts it as a timeout/loss).
    DroppedOldest(Request),
    /// Queue full (or draining), the arrival was refused; the transport
    /// should answer RETRY.
    Rejected,
    /// The arrival's class is currently blowing its p99 SLO budget; the
    /// transport should answer RETRY. Independent of queue capacity —
    /// only the blowing class is shed.
    SloShed,
}

/// Why an [`AdmissionEvent`] was recorded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionEventKind {
    /// Arrival dropped under [`AdmissionPolicy::DropNewest`].
    DroppedNewest,
    /// Queued request evicted under [`AdmissionPolicy::DropOldest`].
    DroppedOldest,
    /// Arrival refused under [`AdmissionPolicy::RejectNewest`] (or while
    /// draining).
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
    /// Requests of this class dropped as the newest arrival.
    pub dropped_newest: u64,
    /// Requests of this class evicted as the oldest queued entry.
    pub dropped_oldest: u64,
    /// Requests of this class refused with RETRY.
    pub rejected: u64,
    /// Requests of this class refused (RETRY) because the class was
    /// blowing its p99 SLO budget.
    pub slo_shed: u64,
}

/// One class's live tallies: [`ClassAdmission`] as atomics.
#[derive(Default)]
struct ClassRow {
    admitted: AtomicU64,
    dropped_newest: AtomicU64,
    dropped_oldest: AtomicU64,
    rejected: AtomicU64,
    slo_shed: AtomicU64,
}

impl ClassRow {
    fn load(&self) -> ClassAdmission {
        ClassAdmission {
            admitted: self.admitted.load(Ordering::Relaxed),
            dropped_newest: self.dropped_newest.load(Ordering::Relaxed),
            dropped_oldest: self.dropped_oldest.load(Ordering::Relaxed),
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
    /// Arrivals dropped (drop-newest policy).
    pub dropped_newest: AtomicU64,
    /// Queued requests evicted (drop-oldest policy).
    pub dropped_oldest: AtomicU64,
    /// Arrivals refused with RETRY (reject policy, or draining).
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
            dropped_newest: AtomicU64::new(0),
            dropped_oldest: AtomicU64::new(0),
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
            .field(
                "dropped_newest",
                &self.dropped_newest.load(Ordering::Relaxed),
            )
            .field(
                "dropped_oldest",
                &self.dropped_oldest.load(Ordering::Relaxed),
            )
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
            Some(AdmissionEventKind::DroppedNewest) => (&self.dropped_newest, &row.dropped_newest),
            Some(AdmissionEventKind::DroppedOldest) => (&self.dropped_oldest, &row.dropped_oldest),
            Some(AdmissionEventKind::Rejected) => (&self.rejected, &row.rejected),
            Some(AdmissionEventKind::SloShed) => (&self.slo_shed, &row.slo_shed),
        };
        total.fetch_add(1, Ordering::Relaxed);
        of_class.fetch_add(1, Ordering::Relaxed);
    }

    /// Total requests shed (dropped either way, rejected, or SLO-shed).
    pub fn shed(&self) -> u64 {
        self.dropped_newest.load(Ordering::Relaxed)
            + self.dropped_oldest.load(Ordering::Relaxed)
            + self.rejected.load(Ordering::Relaxed)
            + self.slo_shed.load(Ordering::Relaxed)
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

    /// Counter rows in `RuntimeStats::snapshot()` shape: the four totals
    /// plus one row per (class, outcome) actually observed.
    pub fn snapshot_rows(&self) -> Vec<(String, u64)> {
        let mut rows = vec![
            (
                "admit_admitted".to_string(),
                self.admitted.load(Ordering::Relaxed),
            ),
            (
                "admit_dropped_newest".to_string(),
                self.dropped_newest.load(Ordering::Relaxed),
            ),
            (
                "admit_dropped_oldest".to_string(),
                self.dropped_oldest.load(Ordering::Relaxed),
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
            if c.dropped_newest > 0 {
                rows.push((
                    format!("admit_class{class}_dropped_newest"),
                    c.dropped_newest,
                ));
            }
            if c.dropped_oldest > 0 {
                rows.push((
                    format!("admit_class{class}_dropped_oldest"),
                    c.dropped_oldest,
                ));
            }
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

/// The bounded admission gate in front of a dispatcher. Multi-producer
/// ([`AdmissionQueue::offer`] from any thread), single-consumer (the
/// dispatcher's ingress).
pub struct AdmissionQueue {
    cfg: AdmissionConfig,
    inner: Mutex<VecDeque<Request>>,
    /// `inner.len()`, stored under the lock after every change and read
    /// without it. A reader may see a value one operation old: fine for
    /// a depth gauge, and the dispatcher's empty
    /// check is re-done on its next pass a fraction of a microsecond
    /// later.
    len: AtomicUsize,
    events: MpmcQueue<AdmissionEvent>,
    counters: Arc<AdmissionCounters>,
    closed: AtomicBool,
    clock: Clock,
    /// Per-class SLO verdicts (written by the runtime's quantum/SLO
    /// controller). Attached once after construction; absent on queues
    /// without SLO budgets.
    slo: OnceLock<Arc<SloState>>,
}

impl AdmissionQueue {
    /// Creates a queue with the given bound/policy, stamping shed events
    /// with `clock` (pass the runtime's clock so trace timestamps share
    /// one timeline).
    pub fn new(cfg: AdmissionConfig, clock: Clock) -> Arc<Self> {
        Arc::new(Self {
            cfg: AdmissionConfig {
                capacity: cfg.capacity.max(1),
                policy: cfg.policy,
            },
            inner: Mutex::new(VecDeque::new()),
            len: AtomicUsize::new(0),
            events: MpmcQueue::new(),
            counters: Arc::new(AdmissionCounters::default()),
            closed: AtomicBool::new(false),
            clock,
            slo: OnceLock::new(),
        })
    }

    /// Attaches the runtime's SLO state so `offer` can shed classes
    /// that are blowing their p99 budget. Call before serving traffic;
    /// later calls are ignored (first writer wins).
    pub fn attach_slo(&self, slo: Arc<SloState>) {
        let _ = self.slo.set(slo);
    }

    /// The configured bound and policy.
    pub fn config(&self) -> AdmissionConfig {
        self.cfg
    }

    /// Shared admission counters.
    pub fn counters(&self) -> Arc<AdmissionCounters> {
        self.counters.clone()
    }

    /// Offers one request at the gate. Thread-safe; never blocks beyond
    /// the queue mutex. Once [`AdmissionQueue::close`] has been called
    /// every offer is refused (`Rejected`), which is what makes shutdown
    /// drain graceful: admitted work completes, new work is turned away.
    pub fn offer(&self, req: Request) -> AdmitOutcome {
        if self.closed.load(Ordering::Acquire) {
            self.shed(&req, AdmissionEventKind::Rejected);
            return AdmitOutcome::Rejected;
        }
        // SLO-aware early rejection: if this request's class is blowing
        // its p99 budget, shed *it* with RETRY — targeted, instead of
        // letting the backlog grow until the capacity policy drops
        // whatever arrives next regardless of class.
        if let Some(slo) = self.slo.get() {
            if slo.should_shed(req.class) {
                self.shed(&req, AdmissionEventKind::SloShed);
                return AdmitOutcome::SloShed;
            }
        }
        let evicted = {
            let mut q = self.inner.lock().expect("lock poisoned");
            if q.len() < self.cfg.capacity {
                q.push_back(req);
                self.len.store(q.len(), Ordering::Release);
                None
            } else {
                match self.cfg.policy {
                    AdmissionPolicy::DropNewest => {
                        drop(q);
                        self.shed(&req, AdmissionEventKind::DroppedNewest);
                        return AdmitOutcome::DroppedNewest;
                    }
                    AdmissionPolicy::RejectNewest => {
                        drop(q);
                        self.shed(&req, AdmissionEventKind::Rejected);
                        return AdmitOutcome::Rejected;
                    }
                    AdmissionPolicy::DropOldest => {
                        let old = q.pop_front().expect("capacity >= 1 implies non-empty");
                        q.push_back(req);
                        Some(old)
                    }
                }
            }
        };
        self.counters.bump(req.class, None);
        match evicted {
            None => AdmitOutcome::Admitted,
            Some(old) => {
                self.shed(&old, AdmissionEventKind::DroppedOldest);
                AdmitOutcome::DroppedOldest(old)
            }
        }
    }

    fn shed(&self, req: &Request, kind: AdmissionEventKind) {
        self.counters.bump(req.class, Some(kind));
        self.events.push(AdmissionEvent {
            ts_ns: self.clock.now_ns(),
            id: req.id,
            class: req.class,
            kind,
        });
    }

    /// Takes the next admitted request (dispatcher side).
    pub fn pop(&self) -> Option<Request> {
        if self.is_empty() {
            return None;
        }
        let mut q = self.inner.lock().expect("lock poisoned");
        let req = q.pop_front();
        self.len.store(q.len(), Ordering::Release);
        req
    }

    /// Moves admitted requests, oldest first, into `out` until it holds
    /// `room` of them or the queue is empty: one lock for the whole
    /// batch, none when nothing waits.
    pub fn pop_batch(&self, out: &mut Vec<Request>, room: usize) {
        if self.is_empty() || out.len() >= room {
            return;
        }
        let mut q = self.inner.lock().expect("lock poisoned");
        let n = q.len().min(room - out.len());
        out.extend(q.drain(..n));
        self.len.store(q.len(), Ordering::Release);
    }

    /// Admitted requests not yet ingested.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Whether no admitted request is waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Stops admitting: every subsequent offer is `Rejected`. Idempotent.
    /// Already-admitted requests stay queued for the dispatcher.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
    }

    /// Moves all recorded shed events into `out`.
    pub fn drain_events(&self, out: &mut Vec<AdmissionEvent>) {
        while let Some(ev) = self.events.pop() {
            out.push(ev);
        }
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

    fn queue(capacity: usize, policy: AdmissionPolicy) -> Arc<AdmissionQueue> {
        AdmissionQueue::new(AdmissionConfig { capacity, policy }, Clock::monotonic())
    }

    #[test]
    fn admits_until_full_then_drops_newest() {
        let q = queue(2, AdmissionPolicy::DropNewest);
        assert!(matches!(q.offer(req(1, 0)), AdmitOutcome::Admitted));
        assert!(matches!(q.offer(req(2, 0)), AdmitOutcome::Admitted));
        assert!(matches!(q.offer(req(3, 1)), AdmitOutcome::DroppedNewest));
        let c = q.counters();
        assert_eq!(c.admitted.load(Ordering::Relaxed), 2);
        assert_eq!(c.dropped_newest.load(Ordering::Relaxed), 1);
        assert_eq!(c.offered(), 3);
        // FIFO order preserved; the dropped arrival never appears.
        assert_eq!(q.pop().map(|r| r.id), Some(1));
        assert_eq!(q.pop().map(|r| r.id), Some(2));
        assert!(q.pop().is_none());
        // The shed request is visible as an event with its class.
        let mut evs = Vec::new();
        q.drain_events(&mut evs);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].id, 3);
        assert_eq!(evs[0].class, 1);
        assert_eq!(evs[0].kind, AdmissionEventKind::DroppedNewest);
    }

    #[test]
    fn drop_oldest_evicts_head() {
        let q = queue(2, AdmissionPolicy::DropOldest);
        q.offer(req(1, 0));
        q.offer(req(2, 0));
        match q.offer(req(3, 0)) {
            AdmitOutcome::DroppedOldest(old) => assert_eq!(old.id, 1),
            other => panic!("expected DroppedOldest, got {other:?}"),
        }
        assert_eq!(q.pop().map(|r| r.id), Some(2));
        assert_eq!(q.pop().map(|r| r.id), Some(3));
        let c = q.counters();
        assert_eq!(
            c.admitted.load(Ordering::Relaxed),
            3,
            "arrival was admitted"
        );
        assert_eq!(c.dropped_oldest.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn reject_refuses_and_counts() {
        let q = queue(1, AdmissionPolicy::RejectNewest);
        q.offer(req(1, 2));
        assert!(matches!(q.offer(req(2, 2)), AdmitOutcome::Rejected));
        assert_eq!(q.counters().rejected.load(Ordering::Relaxed), 1);
        let pc = q.counters().per_class();
        assert_eq!(pc.get(&2).unwrap().rejected, 1);
        assert_eq!(pc.get(&2).unwrap().admitted, 1);
    }

    #[test]
    fn closed_queue_rejects_but_keeps_admitted_work() {
        let q = queue(4, AdmissionPolicy::DropNewest);
        q.offer(req(1, 0));
        q.close();
        assert!(matches!(q.offer(req(2, 0)), AdmitOutcome::Rejected));
        // Graceful drain: the admitted request is still served.
        assert_eq!(q.pop().map(|r| r.id), Some(1));
        assert_eq!(q.counters().rejected.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn the_consumer_side_drains_queue_and_events() {
        let q = queue(1, AdmissionPolicy::RejectNewest);
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
        let q = queue(8, AdmissionPolicy::DropOldest);
        for id in 0..8 {
            q.offer(req(id, 0));
        }
        assert_eq!(q.len(), 8);
        // An eviction swaps the head for the arrival: depth unchanged.
        assert!(matches!(q.offer(req(8, 0)), AdmitOutcome::DroppedOldest(_)));
        assert_eq!(q.len(), 8);
        // `room` bounds what the caller's scratch ends up holding, not
        // what this call adds to it.
        let mut out = vec![req(100, 0)];
        q.pop_batch(&mut out, 4);
        let ids: Vec<u64> = out.iter().map(|r| r.id).collect();
        assert_eq!(ids, [100, 1, 2, 3]);
        assert_eq!(q.len(), 5);
        q.pop_batch(&mut out, 4);
        assert_eq!(out.len(), 4, "no room, nothing taken");
        out.clear();
        q.pop_batch(&mut out, 64);
        let ids: Vec<u64> = out.iter().map(|r| r.id).collect();
        assert_eq!(ids, [4, 5, 6, 7, 8]);
        assert!(q.is_empty() && q.pop().is_none());
    }

    #[test]
    fn snapshot_rows_cover_totals_and_classes() {
        let q = queue(1, AdmissionPolicy::DropNewest);
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
        assert_eq!(get("admit_dropped_newest"), 1);
        assert_eq!(get("admit_dropped_oldest"), 0);
        assert_eq!(get("admit_rejected"), 0);
        assert_eq!(get("admit_class0_admitted"), 1);
        assert_eq!(get("admit_class3_dropped_newest"), 1);
    }

    #[test]
    fn slo_shed_targets_only_the_blowing_class() {
        use crate::quantum::class_slot;
        let q = queue(64, AdmissionPolicy::RejectNewest);
        let slo = Arc::new(SloState::new(&[(1, 100)]));
        q.attach_slo(slo.clone());
        // Budget intact: both classes admitted.
        assert!(matches!(q.offer(req(1, 0)), AdmitOutcome::Admitted));
        assert!(matches!(q.offer(req(2, 1)), AdmitOutcome::Admitted));
        // Class 1 blows its budget: it is shed, class 0 sails through
        // even though the queue is far from capacity.
        slo.set_blown(class_slot(1), true);
        assert!(matches!(q.offer(req(3, 1)), AdmitOutcome::SloShed));
        assert!(matches!(q.offer(req(4, 0)), AdmitOutcome::Admitted));
        let c = q.counters();
        assert_eq!(c.slo_shed.load(Ordering::Relaxed), 1);
        assert_eq!(c.rejected.load(Ordering::Relaxed), 0);
        assert_eq!(c.shed(), 1);
        assert_eq!(c.offered(), 4);
        let pc = c.per_class();
        assert_eq!(pc.get(&1).unwrap().slo_shed, 1);
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
        assert!(matches!(q.offer(req(5, 1)), AdmitOutcome::Admitted));

        // Budgeting the heavy class protects the short class under
        // overload: a capacity-4 gate nobody drains is offered heavy
        // (class 1) and short (class 0) arrivals in turn. Class-blind, it
        // fills and turns a short away; with the heavy budget blown every
        // heavy is shed at the door and the gate never fills.
        for budgeted in [false, true] {
            let q = queue(4, AdmissionPolicy::RejectNewest);
            if budgeted {
                let slo = Arc::new(SloState::new(&[(1, 100)]));
                slo.set_blown(class_slot(1), true);
                q.attach_slo(slo);
            }
            for id in 0..6u64 {
                let class = u16::from(id % 2 == 0);
                let out = q.offer(req(id, class));
                match (budgeted, class) {
                    (true, 1) => assert!(matches!(out, AdmitOutcome::SloShed), "{out:?}"),
                    (true, _) => assert!(matches!(out, AdmitOutcome::Admitted), "{out:?}"),
                    (false, _) => assert_eq!(matches!(out, AdmitOutcome::Rejected), id >= 4),
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
        let q = queue(1024, AdmissionPolicy::DropNewest);
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

    #[test]
    fn policy_parse_round_trips() {
        for p in [
            AdmissionPolicy::DropNewest,
            AdmissionPolicy::DropOldest,
            AdmissionPolicy::RejectNewest,
        ] {
            assert_eq!(AdmissionPolicy::parse(p.name()), Some(p));
        }
        assert_eq!(AdmissionPolicy::parse("bogus"), None);
    }
}
