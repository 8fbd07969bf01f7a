//! Runtime counters.

use crate::admission::AdmissionCounters;
use crate::quantum::{class_slot, slot_class, CLASS_SLOTS};
use crate::telemetry::OTHER_CLASS;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Per-class ingest counters, indexed by the deterministic class slot
/// ([`crate::quantum::class_slot`]). The per-class conservation oracle
/// (`ingested[c] == completed[c] + failed[c]`) needs the ingest side
/// broken down the same way telemetry folds completions.
#[derive(Debug)]
pub struct ClassIngestCounters([AtomicU64; CLASS_SLOTS]);

impl Default for ClassIngestCounters {
    fn default() -> Self {
        Self(std::array::from_fn(|_| AtomicU64::new(0)))
    }
}

impl ClassIngestCounters {
    /// Counts one ingested request of `class`.
    #[inline]
    pub fn bump(&self, class: u16) {
        self.add(class, 1);
    }

    /// Counts `n` ingested requests of `class` (the dispatcher publishes
    /// a run of same-class ingests with one add).
    #[inline]
    pub fn add(&self, class: u16, n: u64) {
        self.0[class_slot(class)].fetch_add(n, Ordering::Relaxed);
    }

    /// The count for a slot.
    pub fn slot(&self, slot: usize) -> u64 {
        self.0[slot].load(Ordering::Relaxed)
    }

    /// The count for a class (after the fold).
    pub fn get(&self, class: u16) -> u64 {
        self.0[class_slot(class)].load(Ordering::Relaxed)
    }

    /// Non-zero `(folded class, count)` pairs; the overflow slot reports
    /// as [`OTHER_CLASS`].
    pub fn nonzero(&self) -> Vec<(u16, u64)> {
        (0..CLASS_SLOTS)
            .filter_map(|slot| {
                let v = self.0[slot].load(Ordering::Relaxed);
                (v > 0).then(|| (slot_class(slot), v))
            })
            .collect()
    }
}

/// Per-worker counters (one row per worker thread). Its worker is the
/// only thread that writes a row per request: the dispatcher touches
/// `queue_max` only when the high-water mark rises.
#[derive(Debug, Default)]
pub struct WorkerStats {
    /// Requests this worker completed.
    pub completed: AtomicU64,
    /// Slices this worker had preempted under it.
    pub preempted: AtomicU64,
    /// Contained application panics on this worker.
    pub failed: AtomicU64,
    /// High-watermark of this worker's JBSQ occupancy (the conformance
    /// oracle asserts it never exceeds the configured depth `k`).
    pub queue_max: AtomicU64,
    /// Signals this worker consumed at a preemption point (copied from
    /// the shared preemption state at shutdown).
    pub signals_consumed: AtomicU64,
    /// Signals that landed after their slice finished (copied at
    /// shutdown).
    pub signals_obsolete: AtomicU64,
    /// Stale-generation signals rejected (copied at shutdown).
    pub signals_stale: AtomicU64,
    /// Trace events this worker dropped on a full lane ring (tracer
    /// overflow is drop-and-count, never a stall). Always 0 with the
    /// tracer disarmed.
    pub trace_dropped: AtomicU64,
}

/// A point-in-time copy of every [`WorkerStats`] counter.
///
/// `WorkerStats::snapshot()` used to return a `(completed, preempted,
/// failed)` tuple, silently discarding the other counters; the named
/// struct makes adding a counter a compile error at every consumer
/// instead of a silent omission.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerStatsSnapshot {
    /// Requests this worker completed.
    pub completed: u64,
    /// Slices this worker had preempted under it.
    pub preempted: u64,
    /// Contained application panics on this worker.
    pub failed: u64,
    /// High-watermark of this worker's JBSQ occupancy.
    pub queue_max: u64,
    /// Signals consumed at a preemption point.
    pub signals_consumed: u64,
    /// Signals that landed after their slice finished.
    pub signals_obsolete: u64,
    /// Stale-generation signals rejected.
    pub signals_stale: u64,
    /// Trace events dropped on a full lane ring.
    pub trace_dropped: u64,
}

impl WorkerStats {
    /// Snapshot of all per-worker counters.
    pub fn snapshot(&self) -> WorkerStatsSnapshot {
        WorkerStatsSnapshot {
            completed: self.completed.load(Ordering::Relaxed),
            preempted: self.preempted.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            queue_max: self.queue_max.load(Ordering::Relaxed),
            signals_consumed: self.signals_consumed.load(Ordering::Relaxed),
            signals_obsolete: self.signals_obsolete.load(Ordering::Relaxed),
            signals_stale: self.signals_stale.load(Ordering::Relaxed),
            trace_dropped: self.trace_dropped.load(Ordering::Relaxed),
        }
    }
}

/// Shared atomic counters exposed by a running [`Runtime`](crate::Runtime).
#[derive(Debug, Default)]
pub struct RuntimeStats {
    /// Requests completed by workers, counted by the dispatcher as it
    /// pops their completion messages (before the response is emitted).
    pub worker_completed: AtomicU64,
    /// Requests completed by the work-conserving dispatcher (§3.3).
    pub dispatcher_completed: AtomicU64,
    /// Preemption signals sent by the dispatcher.
    pub signals_sent: AtomicU64,
    /// Slice generations whose quantum expiry the dispatcher observed
    /// while nobody was waiting for that worker (central queue empty, no
    /// second request in its JBSQ ring), so no signal was sent. Counted
    /// once per generation; the expiry stays claimable, so a generation
    /// counted here is still signaled if a waiter shows up later.
    pub expiries_deferred: AtomicU64,
    /// Times a request actually yielded at a preemption point on a
    /// worker, counted by the dispatcher as it pops the requeue message.
    pub preemptions: AtomicU64,
    /// Requests the dispatcher pushed to workers.
    pub dispatched: AtomicU64,
    /// Requests the dispatcher stole for itself.
    pub stolen: AtomicU64,
    /// Requests ingested from the RX ring.
    pub ingested: AtomicU64,
    /// The same ingest count broken down by (folded) request class.
    pub ingested_by_class: ClassIngestCounters,
    /// Requests whose handler panicked (contained; answered with an error
    /// response).
    pub failed: AtomicU64,
    /// Requests whose coroutine ran on a recycled (pooled) stack.
    pub stack_reuses: AtomicU64,
    /// Responses dropped because the TX ring stayed full through the
    /// retry budget (collector gone or wedged). Every drop is a request
    /// the runtime completed but the client never heard about.
    pub tx_dropped: AtomicU64,
    /// Completion telemetry records lost in transit. Structurally 0: the
    /// record rides inside the completion message, whose ring JBSQ keeps
    /// from ever filling. Kept so scrapers and benchmarks keep parsing.
    pub telemetry_dropped: AtomicU64,
    /// Trace events lost to a full lane ring, summed across all tracks
    /// (workers and dispatcher). Always 0 with the tracer disarmed.
    pub trace_dropped: AtomicU64,
    /// Preemption signals suppressed by the fault injector (claimed
    /// expiries whose store was deliberately never performed). Always 0
    /// without a fault injector.
    pub signals_dropped_injected: AtomicU64,
    /// Never-started tasks this shard handed to a sibling that asked.
    /// Always 0 on unsharded runtimes.
    pub shard_offloaded: AtomicU64,
    /// Tasks this shard took from its mailbox after asking. Always 0 on
    /// unsharded runtimes.
    pub shard_steals_in: AtomicU64,
    /// Always 0: nothing is parked, so nothing is reclaimed. Kept only so
    /// `RuntimeStats` keeps its allocation size: without it the
    /// benchmark's `setup_s`, which follows the main thread's heap state
    /// (ROADMAP item 1(g)), read slower on `rt_fixed`.
    pub shard_reclaimed: AtomicU64,
    /// Tripwire: dispatcher loop iterations that made no progress while
    /// runnable work was queued and capacity existed (a free JBSQ slot, or
    /// a stealable non-started request with work conservation on). The
    /// dispatch logic makes this unreachable; the conformance oracle
    /// asserts it stays 0 so a future regression is caught immediately.
    pub work_conservation_violations: AtomicU64,
    /// Latched by the first TX drop so it is logged exactly once.
    pub tx_drop_logged: AtomicBool,
    /// Admission-gate counters, linked by `Runtime::start` when the
    /// transport performs admission control (`None` for plain rings).
    /// Shared with the gate itself, so these are live values.
    pub admission: Option<Arc<AdmissionCounters>>,
    /// Per-worker breakdowns, indexed by worker id.
    pub per_worker: Vec<WorkerStats>,
}

impl RuntimeStats {
    /// Creates stats with `n` per-worker rows.
    pub fn with_workers(n: usize) -> Self {
        Self {
            per_worker: (0..n).map(|_| WorkerStats::default()).collect(),
            ..Self::default()
        }
    }
}

impl RuntimeStats {
    /// Total requests completed by anyone.
    pub fn completed(&self) -> u64 {
        self.worker_completed.load(Ordering::Relaxed)
            + self.dispatcher_completed.load(Ordering::Relaxed)
    }

    /// Snapshot of all counters as (name, value) pairs, including one row
    /// of completed/preempted/failed/queue_max per worker.
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        let mut rows: Vec<(String, u64)> = [
            ("ingested", self.ingested.load(Ordering::Relaxed)),
            ("dispatched", self.dispatched.load(Ordering::Relaxed)),
            (
                "worker_completed",
                self.worker_completed.load(Ordering::Relaxed),
            ),
            (
                "dispatcher_completed",
                self.dispatcher_completed.load(Ordering::Relaxed),
            ),
            ("signals_sent", self.signals_sent.load(Ordering::Relaxed)),
            (
                "expiries_deferred",
                self.expiries_deferred.load(Ordering::Relaxed),
            ),
            ("preemptions", self.preemptions.load(Ordering::Relaxed)),
            ("stolen", self.stolen.load(Ordering::Relaxed)),
            ("failed", self.failed.load(Ordering::Relaxed)),
            ("stack_reuses", self.stack_reuses.load(Ordering::Relaxed)),
            ("tx_dropped", self.tx_dropped.load(Ordering::Relaxed)),
            (
                "telemetry_dropped",
                self.telemetry_dropped.load(Ordering::Relaxed),
            ),
            ("trace_dropped", self.trace_dropped.load(Ordering::Relaxed)),
            (
                "signals_dropped_injected",
                self.signals_dropped_injected.load(Ordering::Relaxed),
            ),
            (
                "work_conservation_violations",
                self.work_conservation_violations.load(Ordering::Relaxed),
            ),
            (
                "shard_offloaded",
                self.shard_offloaded.load(Ordering::Relaxed),
            ),
            (
                "shard_steals_in",
                self.shard_steals_in.load(Ordering::Relaxed),
            ),
        ]
        .into_iter()
        .map(|(n, v)| (n.to_string(), v))
        .collect();
        for (class, v) in self.ingested_by_class.nonzero() {
            if class == OTHER_CLASS {
                rows.push(("ingested_class_other".to_string(), v));
            } else {
                rows.push((format!("ingested_class{class}"), v));
            }
        }
        if let Some(admission) = &self.admission {
            rows.extend(admission.snapshot_rows());
        }
        for (i, w) in self.per_worker.iter().enumerate() {
            let s = w.snapshot();
            rows.push((format!("worker{i}_completed"), s.completed));
            rows.push((format!("worker{i}_preempted"), s.preempted));
            rows.push((format!("worker{i}_failed"), s.failed));
            rows.push((format!("worker{i}_queue_max"), s.queue_max));
            rows.push((format!("worker{i}_signals_consumed"), s.signals_consumed));
            rows.push((format!("worker{i}_signals_obsolete"), s.signals_obsolete));
            rows.push((format!("worker{i}_signals_stale"), s.signals_stale));
            rows.push((format!("worker{i}_trace_dropped"), s.trace_dropped));
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completed_sums_both_sources() {
        let s = RuntimeStats::default();
        s.worker_completed.store(10, Ordering::Relaxed);
        s.dispatcher_completed.store(3, Ordering::Relaxed);
        assert_eq!(s.completed(), 13);
    }

    #[test]
    fn snapshot_contains_all_counters() {
        let s = RuntimeStats::default();
        let names: Vec<String> = s.snapshot().into_iter().map(|(n, _)| n).collect();
        for want in [
            "ingested",
            "dispatched",
            "worker_completed",
            "dispatcher_completed",
            "signals_sent",
            "expiries_deferred",
            "preemptions",
            "stolen",
            "failed",
            "stack_reuses",
            "tx_dropped",
            "telemetry_dropped",
            "trace_dropped",
            "signals_dropped_injected",
            "work_conservation_violations",
            "shard_offloaded",
            "shard_steals_in",
        ] {
            assert!(names.iter().any(|n| n == want), "{want} missing");
        }
    }

    #[test]
    fn snapshot_includes_per_worker_rows() {
        let s = RuntimeStats::with_workers(2);
        s.per_worker[0].completed.store(7, Ordering::Relaxed);
        s.per_worker[1].preempted.store(3, Ordering::Relaxed);
        s.per_worker[1].queue_max.store(2, Ordering::Relaxed);
        s.per_worker[1].signals_consumed.store(4, Ordering::Relaxed);
        s.per_worker[1].signals_obsolete.store(5, Ordering::Relaxed);
        s.per_worker[1].signals_stale.store(6, Ordering::Relaxed);
        s.per_worker[1].trace_dropped.store(1, Ordering::Relaxed);
        let snap = s.snapshot();
        let get = |name: &str| {
            snap.iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("{name} missing"))
                .1
        };
        assert_eq!(get("worker0_completed"), 7);
        assert_eq!(get("worker0_preempted"), 0);
        assert_eq!(get("worker1_preempted"), 3);
        assert_eq!(get("worker1_failed"), 0);
        assert_eq!(get("worker1_queue_max"), 2);
        assert_eq!(get("worker1_signals_consumed"), 4);
        assert_eq!(get("worker1_signals_obsolete"), 5);
        assert_eq!(get("worker1_signals_stale"), 6);
        assert_eq!(get("worker1_trace_dropped"), 1);
    }

    #[test]
    fn snapshot_reports_admission_when_linked() {
        use crate::admission::{AdmissionConfig, AdmissionPolicy, AdmissionQueue};
        use crate::clock::Clock;
        use concord_net::Request;
        use std::time::Instant;

        let q = AdmissionQueue::new(
            AdmissionConfig {
                capacity: 1,
                policy: AdmissionPolicy::RejectNewest,
            },
            Clock::monotonic(),
        );
        for id in 0..3 {
            q.offer(Request {
                id,
                class: 0,
                service_ns: 1,
                sent_at: Instant::now(),
            });
        }
        let mut s = RuntimeStats::with_workers(1);
        s.admission = Some(q.counters());
        let snap = s.snapshot();
        let get = |name: &str| {
            snap.iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("{name} missing"))
                .1
        };
        assert_eq!(get("admit_admitted"), 1);
        assert_eq!(get("admit_rejected"), 2);
        // Unlinked stats expose no admission rows at all.
        let bare = RuntimeStats::with_workers(1);
        assert!(bare
            .snapshot()
            .iter()
            .all(|(n, _)| !n.starts_with("admit_")));
    }

    #[test]
    fn per_class_ingest_folds_and_snapshots() {
        let s = RuntimeStats::with_workers(1);
        s.ingested_by_class.bump(0);
        s.ingested_by_class.bump(0);
        s.ingested_by_class.bump(31);
        s.ingested_by_class.bump(32); // folds into the overflow slot
        s.ingested_by_class.bump(u16::MAX); // so does every class ≥ 32
        assert_eq!(s.ingested_by_class.get(0), 2);
        assert_eq!(s.ingested_by_class.get(31), 1);
        assert_eq!(s.ingested_by_class.get(32), 2);
        assert_eq!(s.ingested_by_class.get(u16::MAX), 2);
        assert_eq!(
            s.ingested_by_class.nonzero(),
            vec![(0, 2), (31, 1), (OTHER_CLASS, 2)]
        );
        let snap = s.snapshot();
        let get = |name: &str| {
            snap.iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("{name} missing"))
                .1
        };
        assert_eq!(get("ingested_class0"), 2);
        assert_eq!(get("ingested_class31"), 1);
        assert_eq!(get("ingested_class_other"), 2);
    }

    #[test]
    fn worker_snapshot_carries_every_counter() {
        let w = WorkerStats::default();
        w.completed.store(1, Ordering::Relaxed);
        w.preempted.store(2, Ordering::Relaxed);
        w.failed.store(3, Ordering::Relaxed);
        w.queue_max.store(4, Ordering::Relaxed);
        w.signals_consumed.store(5, Ordering::Relaxed);
        w.signals_obsolete.store(6, Ordering::Relaxed);
        w.signals_stale.store(7, Ordering::Relaxed);
        w.trace_dropped.store(8, Ordering::Relaxed);
        assert_eq!(
            w.snapshot(),
            WorkerStatsSnapshot {
                completed: 1,
                preempted: 2,
                failed: 3,
                queue_max: 4,
                signals_consumed: 5,
                signals_obsolete: 6,
                signals_stale: 7,
                trace_dropped: 8,
            }
        );
    }
}
