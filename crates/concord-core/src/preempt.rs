//! Preemption signaling: the per-worker dedicated cache line and the
//! lock-depth safety counter.
//!
//! Signals are *generation-tagged*. Every slice a worker starts gets a
//! fresh generation number; the dispatcher's expiry claim returns the
//! generation it claimed and the signal carries it, so a signal aimed at
//! slice N can never preempt slice N+1 — even if the dispatcher's write
//! lands after the worker has already moved on. (The earlier design used a
//! bare boolean flag cleared at slice start, which left exactly that race
//! open: claim slice N, worker finishes N and clears for N+1, late signal
//! sets the flag, N+1's first preemption point spuriously yields.)
//!
//! Every signal's fate is accounted on the [`WorkerShared`] it targeted:
//! *consumed* (the slice yielded), *obsolete* (it landed for the current
//! slice after the slice had already finished), or *stale* (it carried an
//! old generation and was rejected). The conformance oracles assert that
//! `signals_sent == consumed + obsolete + stale` at quiescence — the
//! no-lost-preemption invariant.

use crate::clock::Clock;
use concord_sync::CachePadded;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Bits of the slice state word holding the quantum deadline
/// (microseconds since the clock epoch: 40 bits ≈ 34 years).
const DEADLINE_BITS: u32 = 40;
/// Mask extracting the deadline from a packed slice state.
const DEADLINE_MASK: u64 = (1 << DEADLINE_BITS) - 1;
/// Mask for the (wrapping) generation stored above the deadline.
const GEN_MASK: u64 = (1 << (64 - DEADLINE_BITS)) - 1;
/// Packed slice state meaning "idle, nothing to preempt".
const IDLE: u64 = u64::MAX;

/// Packs a slice generation and deadline into one state word.
fn pack(gen: u64, deadline_us: u64) -> u64 {
    ((gen & GEN_MASK) << DEADLINE_BITS) | (deadline_us & DEADLINE_MASK)
}

/// What a worker-side poll found in the preemption line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SignalPoll {
    /// No signal pending.
    Empty,
    /// A signal for the polled generation was consumed (yield now).
    Consumed,
    /// A signal for a *different* generation was discarded.
    Stale,
}

/// The per-worker dedicated cache line `L_i` (§3.1).
///
/// The dispatcher writes it when the running request's quantum expires;
/// the worker's preemption points read it. `CachePadded` keeps the word on
/// its own cache line so worker polls are L1 hits until the dispatcher's
/// write — exactly the cost structure the paper measures (≈2-cycle check,
/// one read-after-write miss when signaled).
///
/// The word holds `0` when unsignaled, otherwise the target slice
/// generation plus one (so generation 0 is representable).
#[derive(Debug, Default)]
pub struct PreemptLine {
    word: CachePadded<AtomicU64>,
}

/// Encodes a generation as a non-zero line token.
fn token(gen: u64) -> u64 {
    (gen & GEN_MASK) + 1
}

impl PreemptLine {
    /// Creates an unsignaled line.
    pub fn new() -> Self {
        Self::default()
    }

    /// Dispatcher side: request that slice `gen` yield. Returns true if
    /// the store overwrote a signal the worker had not looked at yet —
    /// that signal can no longer be observed, so the caller owes it a
    /// fate (see [`WorkerShared::signal`]).
    pub fn signal(&self, gen: u64) -> bool {
        self.word.swap(token(gen), Ordering::AcqRel) != 0
    }

    /// Worker side: cheap poll without consuming the signal. True only if
    /// the pending signal targets slice `gen`.
    pub fn is_signaled(&self, gen: u64) -> bool {
        self.word.load(Ordering::Relaxed) == token(gen)
    }

    /// Worker side: consume the signal if it targets slice `gen`,
    /// classifying what was found.
    ///
    /// A pending signal for *another* generation is stale by definition
    /// (each generation is signaled at most once, and only the current
    /// slice polls); it is discarded so it cannot linger.
    pub fn poll(&self, gen: u64) -> SignalPoll {
        let w = self.word.load(Ordering::Relaxed);
        if w == 0 {
            return SignalPoll::Empty;
        }
        if w == token(gen) {
            // A second signal for the same slice is never sent (the
            // dispatcher claims each slice's expiry exactly once), and no
            // later generation can be signaled while this slice still
            // runs, so a plain store cannot lose anything.
            self.word.store(0, Ordering::Relaxed);
            SignalPoll::Consumed
        } else {
            // Stale token: discard it, but only if it is still there — a
            // fresh signal racing in must survive.
            let _ = self
                .word
                .compare_exchange(w, 0, Ordering::Relaxed, Ordering::Relaxed);
            SignalPoll::Stale
        }
    }

    /// Worker side: consume the signal if it targets slice `gen`.
    pub fn take_signal(&self, gen: u64) -> bool {
        self.poll(gen) == SignalPoll::Consumed
    }

    /// Worker side: discard any pending signal, reporting whether one was
    /// pending.
    pub fn drain(&self) -> bool {
        self.word.swap(0, Ordering::Relaxed) != 0
    }

    /// Worker side: discard any pending signal.
    pub fn clear(&self) {
        self.word.store(0, Ordering::Relaxed);
    }
}

/// Final tally of signal fates for one worker (see [`WorkerShared`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SignalAccounting {
    /// Signals consumed at a preemption point (each one a preemption).
    pub consumed: u64,
    /// Signals that landed for the current slice after it had finished.
    pub obsolete: u64,
    /// Signals rejected because they carried an old generation.
    pub stale: u64,
}

impl SignalAccounting {
    /// Total signals this worker observed, whatever their fate.
    pub fn total(&self) -> u64 {
        self.consumed + self.obsolete + self.stale
    }
}

/// Shared dispatcher↔worker state for one worker.
#[derive(Debug)]
pub struct WorkerShared {
    /// The dedicated preemption cache line.
    pub line: PreemptLine,
    /// Packed `(generation, deadline_us)` of the currently running slice;
    /// [`IDLE`] when the worker has nothing preemptible. Written by the
    /// worker at slice start/end, claimed (CAS to idle) by the dispatcher's
    /// expiry scan — the CAS covers the generation too, so a claim can
    /// never latch onto a *different* slice that happens to share the same
    /// microsecond deadline.
    slice: AtomicU64,
    /// Generation of the current (or most recent) slice. Written by the
    /// worker, read by its own preemption points.
    gen: AtomicU64,
    /// Signals consumed at preemption points (== preemptions taken).
    consumed: AtomicU64,
    /// Signals that arrived for a slice that had already ended.
    obsolete: AtomicU64,
    /// Signals discarded because they carried a stale generation.
    stale: AtomicU64,
    /// Clock stamp of the most recent signal store
    /// ([`WorkerShared::signal`] — the dispatcher stamps *before* the
    /// store, so by the time a worker observes the signal the stamp is
    /// in place). Feeds the signal-to-yield preemption-latency histogram.
    signal_sent_ns: AtomicU64,
    /// Clock stamp taken when a preemption point consumed a signal;
    /// 0 = none pending. Swapped out by the worker's YIELD hook.
    signal_seen_ns: AtomicU64,
    /// Time source for the SIGNAL_SEEN stamp. Read only on the consumed
    /// path (an actual preemption), never on the 1-load Empty fast path.
    trace_clock: Clock,
}

impl WorkerShared {
    /// Creates idle shared state (monotonic clock for trace stamps).
    pub fn new() -> Self {
        Self {
            line: PreemptLine::new(),
            slice: AtomicU64::new(IDLE),
            gen: AtomicU64::new(0),
            consumed: AtomicU64::new(0),
            obsolete: AtomicU64::new(0),
            stale: AtomicU64::new(0),
            signal_sent_ns: AtomicU64::new(0),
            signal_seen_ns: AtomicU64::new(0),
            trace_clock: Clock::monotonic(),
        }
    }

    /// Creates idle shared state whose SIGNAL_SEEN stamps use `clock` —
    /// the runtime passes its configured clock so trace timestamps share
    /// one timeline.
    pub fn with_clock(clock: Clock) -> Self {
        Self {
            trace_clock: clock,
            ..Self::new()
        }
    }

    /// Worker: start a new slice with its quantum deadline, returning the
    /// slice's generation. Any signal still pending from an earlier slice
    /// is discarded (and accounted stale) here; one that lands *after*
    /// this call carries a stale generation and is rejected at the
    /// preemption point.
    pub fn begin_slice(&self, clock: &Clock, quantum: Duration) -> u64 {
        let quantum_ns = quantum.as_nanos().min(u64::MAX as u128) as u64;
        self.begin_slice_at(clock.now_ns(), quantum_ns)
    }

    /// [`WorkerShared::begin_slice`] from a clock reading the caller
    /// already holds — the worker passes the slice's entry stamp, so the
    /// deadline and the task's telemetry share one clock read.
    pub fn begin_slice_at(&self, start_ns: u64, quantum_ns: u64) -> u64 {
        let gen = self.gen.load(Ordering::Relaxed).wrapping_add(1);
        self.gen.store(gen, Ordering::Relaxed);
        if self.line.drain() {
            self.stale.fetch_add(1, Ordering::Relaxed);
        }
        let deadline_us = start_ns.saturating_add(quantum_ns) / 1_000;
        self.slice.store(pack(gen, deadline_us), Ordering::Release);
        gen
    }

    /// Worker: mark idle (no slice to preempt). A signal that landed for
    /// the just-finished slice between its last preemption point and here
    /// is consumed and accounted obsolete — it arrived too late to matter
    /// but must not linger into the next slice.
    pub fn end_slice(&self) {
        self.slice.store(IDLE, Ordering::Release);
        match self.line.poll(self.generation()) {
            SignalPoll::Empty => {}
            SignalPoll::Consumed => {
                self.obsolete.fetch_add(1, Ordering::Relaxed);
            }
            SignalPoll::Stale => {
                self.stale.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Generation of the slice currently running (meaningful only between
    /// [`WorkerShared::begin_slice`] and [`WorkerShared::end_slice`], on
    /// the worker itself).
    pub fn generation(&self) -> u64 {
        self.gen.load(Ordering::Relaxed)
    }

    /// Worker preemption point: consume a signal for the current slice,
    /// accounting its fate. True means "yield now".
    pub fn take_signal_current(&self) -> bool {
        match self.line.poll(self.generation()) {
            SignalPoll::Empty => false,
            SignalPoll::Consumed => {
                self.consumed.fetch_add(1, Ordering::Relaxed);
                // Stamp the moment the probe saw the signal. Costs one
                // clock read, only on the (rare) consumed path — the
                // Empty fast path above stays a single relaxed load.
                self.signal_seen_ns
                    .store(self.trace_clock.now_ns().max(1), Ordering::Release);
                true
            }
            SignalPoll::Stale => {
                self.stale.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// Dispatcher: signal slice `gen` to yield, stamping the clock time
    /// of the store *before* performing it; release/acquire on the pair
    /// orders the stamp ahead of any observer of the signal.
    ///
    /// A store that lands on a signal the worker never polled replaces
    /// it. The dispatcher stores in claim order, so the replaced token
    /// belonged to an older slice the worker has already left: it is
    /// accounted stale here, keeping `sent == consumed + obsolete +
    /// stale` exact. (Only the fault injector's *delayed* stores can
    /// replace a newer token; that signal is then lost like a dropped
    /// one, and is accounted the same way.)
    pub fn signal(&self, gen: u64, now_ns: u64) {
        self.signal_sent_ns.store(now_ns, Ordering::Release);
        if self.line.signal(gen) {
            self.stale.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Clock stamp of the most recent signal store (0 = never signaled).
    pub fn last_signal_sent_ns(&self) -> u64 {
        self.signal_sent_ns.load(Ordering::Acquire)
    }

    /// Worker: take the pending SIGNAL_SEEN stamp, if a preemption point
    /// recorded one since the last call (0 = none).
    pub fn take_signal_seen_ns(&self) -> u64 {
        self.signal_seen_ns.swap(0, Ordering::AcqRel)
    }

    /// Test helper: signal the *current* slice, as the dispatcher would
    /// after claiming its expiry.
    pub fn signal_current(&self) {
        self.line.signal(self.generation());
    }

    /// The packed state of the running slice if its published deadline
    /// has passed by clock reading `now_ns`; `None` when idle or still
    /// inside its quantum.
    fn expired_state(&self, now_ns: u64) -> Option<u64> {
        let state = self.slice.load(Ordering::Acquire);
        if state == IDLE {
            return None;
        }
        (now_ns / 1_000 >= (state & DEADLINE_MASK)).then_some(state)
    }

    /// Dispatcher: the generation of the running slice if its deadline
    /// has passed by `now_ns` (the dispatcher's one clock reading per
    /// pass; a reading taken before the slice began can never see it
    /// expired), *without* claiming it — the slice word is left
    /// untouched, so the expiry stays claimable by a later
    /// [`claim_expired`](WorkerShared::claim_expired). Used when nobody
    /// is waiting for the core and a signal would buy nothing.
    pub fn peek_expired(&self, now_ns: u64) -> Option<u64> {
        self.expired_state(now_ns).map(|s| s >> DEADLINE_BITS)
    }

    /// Dispatcher: if the published deadline has passed by `now_ns`,
    /// atomically claim the slice (so each slice is signaled once) and
    /// return its generation for the signal.
    pub fn claim_expired(&self, now_ns: u64) -> Option<u64> {
        let state = self.expired_state(now_ns)?;
        // CAS on the full packed word: if the worker already moved to
        // another slice (different generation *or* deadline), the claim
        // fails and no signal is sent for it.
        self.slice
            .compare_exchange(state, IDLE, Ordering::AcqRel, Ordering::Relaxed)
            .ok()
            .map(|_| state >> DEADLINE_BITS)
    }

    /// Shutdown sweep (call only when no runtime thread touches this
    /// state anymore): account a signal still sitting in the line as
    /// obsolete, so `signals_sent` balances against the fates.
    pub fn sweep_pending(&self) {
        if self.line.drain() {
            self.obsolete.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Tally of signal fates observed so far.
    pub fn signal_accounting(&self) -> SignalAccounting {
        SignalAccounting {
            consumed: self.consumed.load(Ordering::Relaxed),
            obsolete: self.obsolete.load(Ordering::Relaxed),
            stale: self.stale.load(Ordering::Relaxed),
        }
    }
}

impl Default for WorkerShared {
    fn default() -> Self {
        Self::new()
    }
}

thread_local! {
    /// Lock depth of the request currently executing on this thread.
    /// Non-zero depth suppresses preemption (§3.1 safety-first rule).
    static LOCK_DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// Increments the current thread's lock depth.
pub fn lock_enter() {
    LOCK_DEPTH.with(|d| d.set(d.get() + 1));
}

/// Decrements the current thread's lock depth.
///
/// # Panics
///
/// Panics if the depth would go negative (unbalanced lock accounting).
pub fn lock_exit() {
    LOCK_DEPTH.with(|d| {
        let cur = d.get();
        assert!(cur > 0, "unbalanced lock_exit");
        d.set(cur - 1);
    });
}

/// Current thread's lock depth.
pub fn lock_depth() -> u32 {
    LOCK_DEPTH.with(Cell::get)
}

/// The paper's "4 lines of code" (§3.1), packaged: a
/// [`concord_kv::LockObserver`] that maintains the per-thread lock depth so
/// the runtime never preempts inside the store's critical sections.
#[derive(Clone, Copy, Debug, Default)]
pub struct LockDepthObserver;

impl concord_kv::LockObserver for LockDepthObserver {
    fn locked(&self) {
        lock_enter();
    }
    fn unlocked(&self) {
        lock_exit();
    }
}

/// How the currently executing request should detect preemption.
#[derive(Clone)]
pub enum PreemptMode {
    /// Not inside the runtime (preemption points are no-ops).
    None,
    /// On a worker: poll this dedicated cache line, accepting only signals
    /// aimed at the current slice generation.
    Worker(Arc<WorkerShared>),
    /// On the work-conserving dispatcher: self-preempt once `clock` passes
    /// `deadline_ns` (the rdtsc-instrumented code path of §3.3).
    DispatcherDeadline {
        /// The runtime's time source.
        clock: Clock,
        /// Yield once the clock reads at least this, nanoseconds.
        deadline_ns: u64,
    },
}

thread_local! {
    static MODE: std::cell::RefCell<PreemptMode> =
        const { std::cell::RefCell::new(PreemptMode::None) };
}

/// Installs the preemption mode for the slice about to run on this thread.
pub fn set_mode(mode: PreemptMode) {
    MODE.with(|m| *m.borrow_mut() = mode);
}

/// True if the current slice should yield now: a signal for *this* slice
/// generation is pending (or the dispatcher deadline passed) *and* no lock
/// is held. Consumes the signal.
pub fn should_yield() -> bool {
    if lock_depth() != 0 {
        return false;
    }
    MODE.with(|m| match &*m.borrow() {
        PreemptMode::None => false,
        PreemptMode::Worker(shared) => shared.take_signal_current(),
        PreemptMode::DispatcherDeadline { clock, deadline_ns } => clock.now_ns() >= *deadline_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Clock;

    #[test]
    fn line_signal_roundtrip() {
        let l = PreemptLine::new();
        assert!(!l.is_signaled(0));
        l.signal(0);
        assert!(l.is_signaled(0));
        assert!(l.take_signal(0));
        assert!(!l.is_signaled(0));
        assert!(!l.take_signal(0));
    }

    #[test]
    fn clear_discards_stale_signal() {
        let l = PreemptLine::new();
        l.signal(7);
        l.clear();
        assert!(!l.take_signal(7));
    }

    #[test]
    fn signal_for_other_generation_is_rejected_and_discarded() {
        let l = PreemptLine::new();
        l.signal(3);
        assert!(!l.is_signaled(4));
        assert_eq!(l.poll(4), SignalPoll::Stale, "stale signal must not yield");
        // And it does not linger for a later poll either.
        assert_eq!(l.poll(3), SignalPoll::Empty);
    }

    #[test]
    fn deadline_claim_fires_once_with_generation() {
        let (clock, v) = Clock::manual();
        let s = WorkerShared::new();
        let gen = s.begin_slice(&clock, Duration::ZERO); // expires immediately
        v.advance(Duration::from_micros(1));
        assert_eq!(s.claim_expired(clock.now_ns()), Some(gen & GEN_MASK));
        assert_eq!(
            s.claim_expired(clock.now_ns()),
            None,
            "second claim must fail"
        );
    }

    #[test]
    fn future_deadline_does_not_fire() {
        let (clock, v) = Clock::manual();
        let s = WorkerShared::new();
        s.begin_slice(&clock, Duration::from_micros(100));
        v.advance(Duration::from_micros(99));
        assert_eq!(s.claim_expired(clock.now_ns()), None);
        v.advance(Duration::from_micros(1));
        assert!(
            s.claim_expired(clock.now_ns()).is_some(),
            "deadline reached"
        );
    }

    #[test]
    fn peek_reports_expiry_and_leaves_it_claimable() {
        let (clock, v) = Clock::manual();
        let s = WorkerShared::new();
        let gen = s.begin_slice(&clock, Duration::from_micros(5));
        assert_eq!(s.peek_expired(clock.now_ns()), None, "inside the quantum");
        v.advance(Duration::from_micros(5));
        assert_eq!(s.peek_expired(clock.now_ns()), Some(gen & GEN_MASK));
        assert_eq!(
            s.peek_expired(clock.now_ns()),
            Some(gen & GEN_MASK),
            "peek is idempotent"
        );
        assert_eq!(
            s.claim_expired(clock.now_ns()),
            Some(gen & GEN_MASK),
            "a peeked expiry is still claimable"
        );
        assert_eq!(
            s.peek_expired(clock.now_ns()),
            None,
            "claimed slices read idle"
        );
    }

    #[test]
    fn idle_worker_never_expires() {
        let (clock, v) = Clock::manual();
        let s = WorkerShared::new();
        v.advance(Duration::from_secs(1));
        assert_eq!(s.claim_expired(clock.now_ns()), None);
    }

    #[test]
    fn claim_of_ended_slice_fails() {
        let (clock, v) = Clock::manual();
        let s = WorkerShared::new();
        s.begin_slice(&clock, Duration::ZERO);
        v.advance(Duration::from_micros(1));
        s.end_slice();
        assert_eq!(
            s.claim_expired(clock.now_ns()),
            None,
            "ended slice is unclaimable"
        );
    }

    #[test]
    fn late_signal_from_previous_slice_cannot_preempt_next() {
        // The exact interleaving of the stale-signal bug: the dispatcher
        // claims slice N's expiry, the worker moves on to slice N+1, and
        // only then does the signal land. Virtual time makes the expiry
        // deterministic — no sleeps, no wall clock.
        let (clock, v) = Clock::manual();
        let s = WorkerShared::new();
        let _n = s.begin_slice(&clock, Duration::ZERO);
        v.advance(Duration::from_micros(1));
        let claimed = s.claim_expired(clock.now_ns()).expect("slice N expired");
        s.end_slice();
        let next = s.begin_slice(&clock, Duration::from_secs(60));
        s.line.signal(claimed); // the late write
        assert!(
            !s.take_signal_current(),
            "slice N's signal preempted slice N+1"
        );
        let _ = next;
        assert_eq!(
            s.signal_accounting().stale,
            1,
            "the stale signal must be accounted"
        );
    }

    #[test]
    fn signal_accounting_balances() {
        let (clock, v) = Clock::manual();
        let s = WorkerShared::new();

        // Consumed: signal for the current slice, taken at a poll.
        s.begin_slice(&clock, Duration::from_secs(60));
        s.signal_current();
        assert!(s.take_signal_current());
        s.end_slice();

        // Obsolete: signal lands after the work, consumed by end_slice.
        s.begin_slice(&clock, Duration::ZERO);
        v.advance(Duration::from_micros(1));
        let gen = s.claim_expired(clock.now_ns()).expect("expired");
        s.line.signal(gen);
        s.end_slice();

        // Stale: late signal from a claimed slice hits the next slice.
        s.begin_slice(&clock, Duration::ZERO);
        v.advance(Duration::from_micros(1));
        let gen = s.claim_expired(clock.now_ns()).expect("expired");
        s.end_slice();
        s.begin_slice(&clock, Duration::from_secs(60));
        s.line.signal(gen);
        assert!(!s.take_signal_current());
        s.end_slice();

        let acc = s.signal_accounting();
        assert_eq!(
            acc,
            SignalAccounting {
                consumed: 1,
                obsolete: 1,
                stale: 1
            }
        );
        assert_eq!(acc.total(), 3, "every signal accounted exactly once");
    }

    #[test]
    fn overwritten_signal_is_accounted_stale() {
        // Slice N's store is late; slice N+1 expires and is signaled
        // before the worker ever polls: the second store replaces the
        // first, which must still get a fate.
        let (clock, v) = Clock::manual();
        let s = WorkerShared::new();
        s.begin_slice(&clock, Duration::ZERO);
        v.advance(Duration::from_micros(1));
        let n = s.claim_expired(clock.now_ns()).expect("slice N expired");
        s.end_slice();
        s.begin_slice(&clock, Duration::ZERO);
        v.advance(Duration::from_micros(1));
        let n1 = s.claim_expired(clock.now_ns()).expect("slice N+1 expired");
        s.signal(n, clock.now_ns());
        s.signal(n1, clock.now_ns());
        assert!(s.take_signal_current(), "slice N+1's own signal survives");
        s.end_slice();
        assert_eq!(
            s.signal_accounting(),
            SignalAccounting {
                consumed: 1,
                obsolete: 0,
                stale: 1
            },
            "two stores, two fates"
        );
    }

    #[test]
    fn sweep_accounts_a_parked_signal() {
        let (clock, v) = Clock::manual();
        let s = WorkerShared::new();
        s.begin_slice(&clock, Duration::ZERO);
        v.advance(Duration::from_micros(1));
        let gen = s.claim_expired(clock.now_ns()).expect("expired");
        s.end_slice();
        s.line.signal(gen); // lands after the final end_slice
        s.sweep_pending();
        assert_eq!(s.signal_accounting().obsolete, 1);
        s.sweep_pending();
        assert_eq!(s.signal_accounting().obsolete, 1, "sweep is idempotent");
    }

    #[test]
    fn lock_depth_suppresses_yield() {
        let shared = Arc::new(WorkerShared::new());
        set_mode(PreemptMode::Worker(shared.clone()));
        shared.signal_current();
        lock_enter();
        assert!(!should_yield(), "locked: must not yield");
        lock_exit();
        assert!(should_yield(), "unlocked with pending signal: must yield");
        assert!(!should_yield(), "signal consumed");
        set_mode(PreemptMode::None);
    }

    #[test]
    fn dispatcher_deadline_mode() {
        let (clock, v) = Clock::manual();
        set_mode(PreemptMode::DispatcherDeadline {
            clock: clock.clone(),
            deadline_ns: 1_000,
        });
        assert!(!should_yield());
        v.advance_ns(999);
        assert!(!should_yield(), "999 < 1000");
        v.advance_ns(1);
        assert!(should_yield(), "deadline reached exactly");
        set_mode(PreemptMode::None);
    }

    #[test]
    #[should_panic(expected = "unbalanced")]
    fn unbalanced_unlock_panics() {
        // Fresh thread so we don't poison other tests' thread-local state.
        if let Err(payload) = std::thread::spawn(lock_exit).join() {
            std::panic::resume_unwind(payload);
        }
    }

    #[test]
    fn kv_observer_tracks_depth() {
        use concord_kv::LockObserver;
        let o = LockDepthObserver;
        assert_eq!(lock_depth(), 0);
        o.locked();
        assert_eq!(lock_depth(), 1);
        o.locked();
        assert_eq!(lock_depth(), 2);
        o.unlocked();
        o.unlocked();
        assert_eq!(lock_depth(), 0);
    }
}
