//! Deterministic replays of the stale-preemption-signal race.
//!
//! The window: the dispatcher claims slice N's expired deadline, the
//! worker finishes N and begins slice N+1, and only then does the
//! dispatcher's `signal()` store land. Under the original boolean
//! preempt line (cleared at slice start), that late store set the flag
//! and slice N+1's *first* preemption point spuriously yielded. With
//! generation-tagged signals, the late store carries slice N's
//! generation and the new slice rejects it.
//!
//! Before the runtime grew a virtual clock these tests had to provoke the
//! window probabilistically from two free-running threads (30k iterations,
//! spin-loop jitter, a claims>100 sanity floor). On virtual time the
//! schedule is *replayed*: every step of the interleaving is executed in
//! program order, so each test exercises the exact window on every
//! iteration and a regression fails deterministically on iteration 0.
//! `legacy_flag_line_loses_the_same_schedule` replays the identical
//! schedule against a replica of the pre-fix boolean line and asserts it
//! *does* mis-preempt — proving the replay reproduces the original bug,
//! not a vacuous ordering.

use concord_core::clock::Clock;
use concord_core::preempt::WorkerShared;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The late-signal schedule, replayed step by step on virtual time.
///
/// Worker and "dispatcher" actions run from one thread in the exact
/// order that loses under a flag-based line:
///
/// 1. worker: begin bait slice with a zero quantum (already expired)
/// 2. dispatcher: claim the expired bait slice
/// 3. worker: finish the bait slice, begin the victim slice
/// 4. dispatcher: the signal store for the *bait* claim lands now
/// 5. worker: hit a preemption point in the victim slice
///
/// Step 5 must not yield: the signal carries the bait generation.
#[test]
fn late_signal_replay_is_exact() {
    let (clock, vclock) = Clock::manual();
    let shared = WorkerShared::new();

    let iterations = 1_000u64;
    for i in 0..iterations {
        // 1. Bait slice: zero quantum, expired the moment it starts.
        let bait = shared.begin_slice(&clock, Duration::ZERO);
        vclock.advance(Duration::from_micros(1));

        // 2. Dispatcher claims the expiry (single claim per slice).
        let claimed = shared
            .claim_expired(clock.now_ns())
            .expect("zero-quantum slice must be claimable");
        assert_eq!(claimed, bait, "claim must return the bait generation");
        assert!(
            shared.claim_expired(clock.now_ns()).is_none(),
            "a slice may be claimed only once"
        );

        // 3. Worker moves on before the signal store lands.
        shared.end_slice();
        let victim = shared.begin_slice(&clock, Duration::from_secs(3600));
        assert_ne!(victim, bait);

        // 4. The late store finally lands, tagged with the bait gen.
        shared.line.signal(claimed);

        // 5. Preemption point in the victim slice: must reject.
        assert!(
            !shared.take_signal_current(),
            "iteration {i}: stale signal for generation {claimed} \
             preempted the victim slice (generation {victim})"
        );
        shared.end_slice();
    }

    // Every iteration parked exactly one stale signal and consumed none:
    // the accounting replays as exactly as the schedule does.
    let acct = shared.signal_accounting();
    assert_eq!(acct.consumed, 0);
    assert_eq!(acct.stale, iterations);
    assert_eq!(acct.total(), iterations);
}

/// Replica of the pre-fix preempt line: a single boolean flag, cleared
/// at slice start, with no generation tag. (The real type was replaced
/// by the packed generation word; this replica preserves its semantics
/// so the losing schedule stays executable.)
#[derive(Default)]
struct FlagLine {
    flag: AtomicBool,
}

impl FlagLine {
    fn signal(&self) {
        self.flag.store(true, Ordering::Release);
    }
    fn clear(&self) {
        self.flag.store(false, Ordering::Release);
    }
    fn take_signal(&self) -> bool {
        self.flag.swap(false, Ordering::AcqRel)
    }
}

/// The schedule of `late_signal_replay_is_exact`, run against the old
/// boolean design: the late store lands after the victim slice cleared
/// the flag, so the victim's first preemption point observes it and
/// spuriously yields — on the very first iteration. This is the bug the
/// generation tag exists to kill; if someone "simplifies" the line back
/// to a flag, `late_signal_replay_is_exact` fails exactly the way this
/// test passes.
#[test]
fn legacy_flag_line_loses_the_same_schedule() {
    let line = FlagLine::default();

    // 1. Bait slice starts; pre-fix lines cleared the flag here.
    line.clear();
    // 2. Dispatcher claims the expired bait slice (no shared state to
    //    race on in the replica; the claim is implicit).
    // 3. Worker finishes bait, starts the victim slice, clears again.
    line.clear();
    // 4. The late, untagged signal store lands.
    line.signal();
    // 5. Victim's first preemption point.
    assert!(
        line.take_signal(),
        "the flag-based line is expected to lose this schedule; if it \
         no longer does, the replay above stopped covering the race"
    );
}

/// The same window forced across *real* threads: a handshake holds the
/// dispatcher thread's `signal()` store until the worker thread has
/// started the victim slice. Unlike the single-thread replay this
/// exercises the cross-core store/load path; the handshake (not chance)
/// still makes every iteration hit the window. Virtual time expires the
/// bait slice without any wall-clock dependence.
#[test]
fn late_signal_window_forced_by_handshake() {
    let (clock, vclock) = Clock::manual();
    let shared = Arc::new(WorkerShared::new());
    // 0 = idle, 1 = bait published, 2 = claimed, 3 = victim started,
    // 4 = late signal sent.
    let phase = Arc::new(AtomicU64::new(0));
    let claimed_gen = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));

    let dispatcher = {
        let clock = clock.clone();
        let shared = shared.clone();
        let phase = phase.clone();
        let claimed_gen = claimed_gen.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                if phase.load(Ordering::Acquire) == 1 {
                    // Claim the expired bait slice... but sit on the
                    // signal until the worker has moved on.
                    let gen = shared
                        .claim_expired(clock.now_ns())
                        .expect("bait slice has a zero quantum; claim must succeed");
                    claimed_gen.store(gen, Ordering::Relaxed);
                    phase.store(2, Ordering::Release);
                    while phase.load(Ordering::Acquire) != 3 {
                        std::thread::yield_now();
                    }
                    shared.line.signal(gen); // deliberately late
                    phase.store(4, Ordering::Release);
                }
                std::thread::yield_now();
            }
        })
    };

    for i in 0..1_000 {
        let _bait = shared.begin_slice(&clock, Duration::ZERO);
        vclock.advance(Duration::from_micros(1));
        phase.store(1, Ordering::Release);
        while phase.load(Ordering::Acquire) != 2 {
            std::thread::yield_now();
        }
        shared.end_slice();

        let victim = shared.begin_slice(&clock, Duration::from_secs(3600));
        phase.store(3, Ordering::Release);
        while phase.load(Ordering::Acquire) != 4 {
            std::thread::yield_now();
        }
        // The stale signal for the bait generation is now definitely in
        // the line; a correct implementation rejects it.
        assert!(
            !shared.take_signal_current(),
            "iteration {i}: stale signal for generation {} preempted \
             the victim slice (generation {victim})",
            claimed_gen.load(Ordering::Relaxed),
        );
        shared.end_slice();
        phase.store(0, Ordering::Release);
    }

    stop.store(true, Ordering::Release);
    dispatcher.join().expect("dispatcher thread");

    let acct = shared.signal_accounting();
    assert_eq!(acct.consumed, 0, "no signal may ever be consumed");
    assert_eq!(acct.stale, 1_000, "every iteration parks one stale signal");
}
