//! Fault injection for the conformance harness (feature
//! `fault-injection`; compiled out entirely otherwise, so the production
//! hot paths carry zero cost).
//!
//! A [`FaultInjector`] is handed to the runtime via
//! `RuntimeConfig::builder().fault_injector(..)`
//! and consulted at five seams:
//!
//! - **Signal delivery** (dispatcher, after a successful expiry claim):
//!   the next N preemption-signal stores can be *dropped* (the claim
//!   happened, the signal never lands — a lost preemption) or *delayed*
//!   by a fixed amount of clock time (the store lands late, exercising
//!   the stale-generation rejection path).
//! - **TX backpressure** (dispatcher `emit`): the next N response pushes
//!   are forced to fail as if the TX ring stayed full through the retry
//!   budget, driving the `tx_dropped` accounting path.
//! - **Worker stall**: a chosen worker busy-waits for N clock
//!   nanoseconds before serving its next request, creating JBSQ
//!   imbalance and work-conservation pressure on demand.
//! - **Dispatcher stall**: once every worker queue is full, the
//!   dispatcher busy-waits for N clock nanoseconds, so completions and
//!   yields pile up in the per-worker return rings — the JBSQ bound `k`
//!   is all that keeps those rings from overflowing.
//! - **Handler panic**: a chosen (request id, slice ordinal) panics at
//!   its first preemption point, inside the coroutine, exercising the
//!   real panic-containment path end to end.
//!
//! All knobs are "next-N budgets" stored in atomics: tests set them,
//! runtime threads consume them with a decrement-if-positive CAS, and
//! matching `*_injected` counters record what actually fired so oracles
//! can balance the books.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sentinel for "no panic target armed".
const NO_PANIC: u64 = u64::MAX;

/// Consumes one unit from a budget counter. Returns true if a unit was
/// taken (the fault should fire).
fn take_budget(budget: &AtomicU64) -> bool {
    let mut cur = budget.load(Ordering::Relaxed);
    while cur > 0 {
        match budget.compare_exchange_weak(cur, cur - 1, Ordering::AcqRel, Ordering::Relaxed) {
            Ok(_) => return true,
            Err(seen) => cur = seen,
        }
    }
    false
}

/// Deterministic fault schedule for one runtime instance. See the module
/// docs for the fault classes.
#[derive(Debug, Default)]
pub struct FaultInjector {
    // Signal drops.
    drop_signal_budget: AtomicU64,
    signals_dropped: AtomicU64,
    // Signal delays.
    delay_signal_budget: AtomicU64,
    signal_delay_ns: AtomicU64,
    signals_delayed: AtomicU64,
    // TX rejects.
    tx_reject_budget: AtomicU64,
    tx_rejected: AtomicU64,
    // Worker stalls: one pending stall, (worker index + 1) << 0 with the
    // duration in a second word; 0 means none pending.
    stall_worker_plus_one: AtomicU64,
    stall_ns: AtomicU64,
    stalls_served: AtomicU64,
    // Dispatcher stall: pending duration (0 = none) and the deepest
    // return-ring backlog the dispatcher found when a stall ended.
    dispatcher_stall_ns: AtomicU64,
    return_backlog_max: AtomicU64,
    // Handler panic: request id (NO_PANIC = disarmed) and slice ordinal.
    panic_req_id: AtomicU64,
    panic_slice: AtomicU64,
    panics_fired: AtomicU64,
    // Trace-collector stalls: skip the next N periodic trace drains, so
    // lane rings fill and the drop-and-count overflow path is exercised.
    trace_drain_stall_budget: AtomicU64,
    trace_drains_stalled: AtomicU64,
}

impl FaultInjector {
    /// An injector with no faults scheduled.
    pub fn new() -> Self {
        Self {
            panic_req_id: AtomicU64::new(NO_PANIC),
            ..Self::default()
        }
    }

    // --- Test-side scheduling ------------------------------------------

    /// Drop the next `n` preemption-signal stores (the expiry claim still
    /// happens; the worker never hears about it).
    pub fn drop_next_signals(&self, n: u64) {
        self.drop_signal_budget.fetch_add(n, Ordering::Release);
    }

    /// Delay the next `n` preemption-signal stores by `delay_ns` of clock
    /// time. On a virtual clock the store lands only once the test (or an
    /// application) has advanced time past the release point.
    pub fn delay_next_signals(&self, n: u64, delay_ns: u64) {
        self.signal_delay_ns.store(delay_ns, Ordering::Release);
        self.delay_signal_budget.fetch_add(n, Ordering::Release);
    }

    /// Force the next `n` response emissions to fail as if the TX ring
    /// stayed full through the dispatcher's whole retry budget.
    pub fn reject_next_tx(&self, n: u64) {
        self.tx_reject_budget.fetch_add(n, Ordering::Release);
    }

    /// Stall worker `idx` for `ns` nanoseconds of clock time before it
    /// serves its next request. One stall is pending at a time; a second
    /// call overwrites an unserved one.
    pub fn stall_worker(&self, idx: usize, ns: u64) {
        self.stall_ns.store(ns, Ordering::Release);
        self.stall_worker_plus_one
            .store(idx as u64 + 1, Ordering::Release);
    }

    /// Stall the dispatcher for `ns` nanoseconds of clock time the next
    /// time every worker queue is full (k requests outstanding each).
    /// One stall is pending at a time.
    pub fn stall_dispatcher(&self, ns: u64) {
        self.dispatcher_stall_ns.store(ns, Ordering::Release);
    }

    /// Panic inside the handler of request `req_id` at the start of slice
    /// ordinal `slice` (0 = first slice). Fires at the request's first
    /// preemption point in that slice, inside its coroutine, so the
    /// runtime's containment path is the one under test.
    pub fn panic_on(&self, req_id: u64, slice: u32) {
        self.panic_slice.store(u64::from(slice), Ordering::Release);
        self.panic_req_id.store(req_id, Ordering::Release);
    }

    /// Skip the next `n` periodic trace-collector drains. With small lane
    /// rings this forces overflow, proving emit stays wait-free
    /// (drop-and-count) when the collector is wedged.
    pub fn stall_trace_drains(&self, n: u64) {
        self.trace_drain_stall_budget
            .fetch_add(n, Ordering::Release);
    }

    // --- Runtime-side consumption --------------------------------------

    /// Dispatcher: should this signal store be dropped?
    pub fn take_drop_signal(&self) -> bool {
        let fire = take_budget(&self.drop_signal_budget);
        if fire {
            self.signals_dropped.fetch_add(1, Ordering::Relaxed);
        }
        fire
    }

    /// Dispatcher: should this signal store be deferred, and by how many
    /// nanoseconds?
    pub fn take_signal_delay(&self) -> Option<u64> {
        if take_budget(&self.delay_signal_budget) {
            self.signals_delayed.fetch_add(1, Ordering::Relaxed);
            Some(self.signal_delay_ns.load(Ordering::Acquire))
        } else {
            None
        }
    }

    /// Dispatcher: should this response emission fail?
    pub fn take_tx_reject(&self) -> bool {
        let fire = take_budget(&self.tx_reject_budget);
        if fire {
            self.tx_rejected.fetch_add(1, Ordering::Relaxed);
        }
        fire
    }

    /// Worker `idx`: nanoseconds to stall before the next request, if a
    /// stall is pending for this worker.
    pub fn take_stall(&self, idx: usize) -> Option<u64> {
        let want = idx as u64 + 1;
        if self
            .stall_worker_plus_one
            .compare_exchange(want, 0, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
        {
            self.stalls_served.fetch_add(1, Ordering::Relaxed);
            Some(self.stall_ns.load(Ordering::Acquire))
        } else {
            None
        }
    }

    /// Dispatcher: nanoseconds to stall now, if a stall is pending.
    pub fn take_dispatcher_stall(&self) -> Option<u64> {
        match self.dispatcher_stall_ns.swap(0, Ordering::AcqRel) {
            0 => None,
            ns => Some(ns),
        }
    }

    /// Dispatcher: the deepest return ring it found after a stall.
    pub fn note_return_backlog(&self, depth: u64) {
        self.return_backlog_max.fetch_max(depth, Ordering::AcqRel);
    }

    /// Worker: is (`req_id`, `slice`) the armed panic target? Consumes
    /// the target when it matches.
    pub fn take_panic(&self, req_id: u64, slice: u32) -> bool {
        if self.panic_req_id.load(Ordering::Acquire) != req_id
            || self.panic_slice.load(Ordering::Acquire) != u64::from(slice)
        {
            return false;
        }
        let fire = self
            .panic_req_id
            .compare_exchange(req_id, NO_PANIC, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok();
        if fire {
            self.panics_fired.fetch_add(1, Ordering::Relaxed);
        }
        fire
    }

    /// Dispatcher: should this periodic trace drain be skipped?
    pub fn take_trace_drain_stall(&self) -> bool {
        let fire = take_budget(&self.trace_drain_stall_budget);
        if fire {
            self.trace_drains_stalled.fetch_add(1, Ordering::Relaxed);
        }
        fire
    }

    // --- Observability (for oracles) -----------------------------------

    /// Signal stores dropped so far.
    pub fn signals_dropped(&self) -> u64 {
        self.signals_dropped.load(Ordering::Acquire)
    }

    /// Signal stores delayed so far.
    pub fn signals_delayed(&self) -> u64 {
        self.signals_delayed.load(Ordering::Acquire)
    }

    /// Response emissions force-failed so far.
    pub fn tx_rejected(&self) -> u64 {
        self.tx_rejected.load(Ordering::Acquire)
    }

    /// Worker stalls actually served so far.
    pub fn stalls_served(&self) -> u64 {
        self.stalls_served.load(Ordering::Acquire)
    }

    /// Deepest per-worker return-ring backlog observed at the end of a
    /// dispatcher stall (0 if none was served).
    pub fn return_backlog_max(&self) -> u64 {
        self.return_backlog_max.load(Ordering::Acquire)
    }

    /// Injected handler panics actually fired so far.
    pub fn panics_fired(&self) -> u64 {
        self.panics_fired.load(Ordering::Acquire)
    }

    /// Periodic trace drains skipped so far.
    pub fn trace_drains_stalled(&self) -> u64 {
        self.trace_drains_stalled.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_fire_exactly_n_times() {
        let f = FaultInjector::new();
        f.drop_next_signals(2);
        assert!(f.take_drop_signal());
        assert!(f.take_drop_signal());
        assert!(!f.take_drop_signal());
        assert_eq!(f.signals_dropped(), 2);
    }

    #[test]
    fn delay_carries_duration() {
        let f = FaultInjector::new();
        f.delay_next_signals(1, 5_000);
        assert_eq!(f.take_signal_delay(), Some(5_000));
        assert_eq!(f.take_signal_delay(), None);
        assert_eq!(f.signals_delayed(), 1);
    }

    #[test]
    fn stall_targets_one_worker() {
        let f = FaultInjector::new();
        f.stall_worker(1, 7_000);
        assert_eq!(f.take_stall(0), None, "worker 0 not targeted");
        assert_eq!(f.take_stall(1), Some(7_000));
        assert_eq!(f.take_stall(1), None, "stall served once");
        assert_eq!(f.stalls_served(), 1);
    }

    #[test]
    fn dispatcher_stall_is_served_once() {
        let f = FaultInjector::new();
        assert_eq!(f.take_dispatcher_stall(), None);
        f.stall_dispatcher(9_000);
        assert_eq!(f.take_dispatcher_stall(), Some(9_000));
        assert_eq!(f.take_dispatcher_stall(), None, "stall served once");
        f.note_return_backlog(2);
        f.note_return_backlog(1);
        assert_eq!(f.return_backlog_max(), 2);
    }

    #[test]
    fn panic_matches_request_and_slice() {
        let f = FaultInjector::new();
        f.panic_on(42, 1);
        assert!(!f.take_panic(42, 0), "wrong slice");
        assert!(!f.take_panic(7, 1), "wrong request");
        assert!(f.take_panic(42, 1));
        assert!(!f.take_panic(42, 1), "target consumed");
        assert_eq!(f.panics_fired(), 1);
    }

    #[test]
    fn trace_drain_stall_budget() {
        let f = FaultInjector::new();
        assert!(!f.take_trace_drain_stall());
        f.stall_trace_drains(2);
        assert!(f.take_trace_drain_stall());
        assert!(f.take_trace_drain_stall());
        assert!(!f.take_trace_drain_stall());
        assert_eq!(f.trace_drains_stalled(), 2);
    }

    #[test]
    fn tx_reject_budget() {
        let f = FaultInjector::new();
        assert!(!f.take_tx_reject());
        f.reject_next_tx(1);
        assert!(f.take_tx_reject());
        assert!(!f.take_tx_reject());
        assert_eq!(f.tx_rejected(), 1);
    }
}
