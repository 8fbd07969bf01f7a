//! The conformance suite: corpus replay, a seeded random sweep with
//! shrinking, exact fault injection expectations, and virtual-time
//! executions where latency assertions become equalities.
//!
//! Budget: the random sweep runs `PROPTEST_CASES` cases (default 16; CI
//! exports 64). A failing case is minimised with
//! [`concord_conformance::case::shrink`] and appended to
//! `proptest-regressions/conformance.txt`; the failure message carries
//! the `cc ...` line either way.

use concord_conformance::case::shrink;
use concord_conformance::harness::{load_corpus, run_runtime_with};
use concord_conformance::{
    check_runtime, run_case, run_runtime, ArrivalKind, CaseConfig, FaultKind, FrozenApp,
    VirtualSpinApp,
};
use concord_core::clock::VirtualClock;
use concord_core::Clock;
use concord_trace::EventKind;
use std::sync::Arc;
use std::time::Duration;

/// Per-case collection timeout. Cases are sized to finish in well under a
/// second; the margin absorbs CI scheduler noise.
const TIMEOUT: Duration = Duration::from_secs(20);

fn sweep_budget() -> u64 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(16)
}

/// A small, fault-free baseline every fault test perturbs.
fn base_case() -> CaseConfig {
    CaseConfig {
        seed: 42,
        n_workers: 2,
        jbsq_depth: 2,
        quantum_us: 100,
        work_conserving: true,
        arrival: ArrivalKind::Uniform,
        short_us: 10,
        long_us: 150,
        short_weight: 50,
        requests: 150,
        load_pct: 40,
        fault: FaultKind::None,
        policy: concord_core::PolicyKind::PsQuantum,
        shards: 1,
    }
}

fn assert_clean(case: &CaseConfig) {
    let violations = run_case(case, TIMEOUT);
    assert!(
        violations.is_empty(),
        "oracle violations for `cc {}`:\n  {}",
        case.encode(),
        violations.join("\n  ")
    );
}

// ---------------------------------------------------------------- corpus

/// Every pinned regression in `proptest-regressions/conformance.txt`
/// replays clean. New failures from the sweep land here automatically.
#[test]
fn corpus_replays_clean() {
    let corpus = load_corpus();
    assert!(!corpus.is_empty(), "regression corpus must be checked in");
    for case in &corpus {
        assert_clean(case);
    }
}

// ----------------------------------------------------------------- sweep

/// Random sweep: `PROPTEST_CASES` seeded cases through every oracle.
/// Failures are shrunk to a minimal reproducer and appended to the
/// corpus before panicking.
#[test]
fn random_sweep_holds_all_oracles() {
    let budget = sweep_budget();
    for i in 0..budget {
        // The base offset keeps the sweep disjoint from corpus seeds.
        let case = CaseConfig::generate(0x5eed_0000 + i);
        println!("sweep {i}/{budget}: cc {case}");
        let violations = run_case(&case, TIMEOUT);
        if violations.is_empty() {
            continue;
        }
        let minimal = shrink(case.clone(), |c| !run_case(c, TIMEOUT).is_empty());
        concord_conformance::harness::append_to_corpus(&minimal);
        panic!(
            "case {i}/{budget} violated oracles:\n  {}\noriginal: cc {}\nminimal:  cc {}\n\
             (minimal case appended to proptest-regressions/conformance.txt)",
            violations.join("\n  "),
            case.encode(),
            minimal.encode(),
        );
    }
}

// ------------------------------------------------------- fault injection

/// Injected TX-ring rejections surface as `tx_dropped`, exactly, and the
/// collector sees exactly `requests - n` responses — the oracle input for
/// the conservation identity `received == ingested - tx_dropped`.
#[test]
fn reject_tx_backpressure_counts_exactly() {
    let mut case = base_case();
    case.fault = FaultKind::RejectTx(3);
    let obs = run_runtime(&case, TIMEOUT);
    assert!(obs.collected_ok, "collector timed out");
    assert_eq!(obs.tx_dropped, 3, "every injected reject must be counted");
    assert_eq!(obs.received, case.requests - 3);
    assert_eq!(obs.ingested, case.requests);
    let v = check_runtime(&obs);
    assert!(v.is_empty(), "oracles: {v:?}");
}

/// Injected signal drops are lost preemptions by construction; the fate
/// accounting must show exactly the injected count as suppressed and
/// still balance for every signal that did land.
///
/// Quantum expiries need the dispatcher to observe a *running* slice, so
/// this test uses millisecond services (far above the OS timeslice) the
/// way `long_requests_get_preempted` does — µs slices finish before a
/// single-core host ever schedules the dispatcher mid-slice. And they
/// are only claimed while someone waits, so the requests arrive as one
/// burst: 20 requests on two JBSQ(2) workers keep the central queue
/// non-empty for ~16 of them, hundreds of claims for 5 drops.
#[test]
fn dropped_signals_are_fully_accounted() {
    let mut case = base_case();
    case.arrival = ArrivalKind::Burst;
    case.quantum_us = 1_000;
    case.short_us = 20_000; // 20 ms — ~20 expiries per request
    case.long_us = 20_000;
    case.requests = 20;
    case.fault = FaultKind::DropSignals(5);
    let obs = run_runtime(&case, TIMEOUT);
    assert!(obs.collected_ok, "collector timed out");
    assert_eq!(
        obs.signals_dropped_injected, 5,
        "all 5 injected drops must be consumed and counted"
    );
    let v = check_runtime(&obs);
    assert!(v.is_empty(), "oracles: {v:?}");
}

/// Delayed signal stores usually land after their slice ended — the
/// stale-signal window PR 1 closed. The generation tag must divert every
/// late store into the `stale`/`obsolete` fates, never into a foreign
/// slice's yield. A burst keeps requests waiting (signals are only sent
/// for a waiter's benefit), so the five delays are consumed early on.
#[test]
fn delayed_signals_resolve_to_harmless_fates() {
    let mut case = base_case();
    case.arrival = ArrivalKind::Burst;
    case.quantum_us = 50;
    case.fault = FaultKind::DelaySignals {
        n: 5,
        delay_us: 500,
    };
    let obs = run_runtime(&case, TIMEOUT);
    assert!(obs.collected_ok, "collector timed out");
    let v = check_runtime(&obs);
    assert!(v.is_empty(), "oracles: {v:?}");
}

/// A stalled worker must not break conservation or bounded queues — the
/// dispatcher routes around it (JBSQ) and, when work-conserving, absorbs
/// overflow itself.
#[test]
fn stalled_worker_keeps_every_invariant() {
    let mut case = base_case();
    case.fault = FaultKind::StallWorker {
        worker: 0,
        stall_us: 2_000,
    };
    let obs = run_runtime(&case, TIMEOUT);
    assert!(obs.collected_ok, "collector timed out");
    let v = check_runtime(&obs);
    assert!(v.is_empty(), "oracles: {v:?}");
}

/// A panic inside a handler is contained (one failure, still answered),
/// and with work conservation off the per-worker rows must sum to the
/// globals exactly — completed, preempted and failed alike.
#[test]
fn injected_panic_is_contained_and_rows_sum_to_globals() {
    let mut case = base_case();
    case.work_conserving = false; // no dispatcher execution → exact row sums
    case.fault = FaultKind::PanicOn { request: 7 };
    let obs = run_runtime(&case, TIMEOUT);
    assert!(obs.collected_ok, "collector timed out");
    assert_eq!(obs.failed, 1, "exactly the injected panic fails");
    let v = check_runtime(&obs);
    assert!(v.is_empty(), "oracles: {v:?}");

    let sum_completed: u64 = obs.per_worker.iter().map(|w| w.completed).sum();
    let sum_preempted: u64 = obs.per_worker.iter().map(|w| w.preempted).sum();
    let sum_failed: u64 = obs.per_worker.iter().map(|w| w.failed).sum();
    assert_eq!(
        sum_completed, obs.completed,
        "worker completions sum to global"
    );
    assert_eq!(
        sum_preempted, obs.preemptions,
        "worker preemptions sum to global"
    );
    assert_eq!(
        sum_failed, obs.failed,
        "the failure is attributed to its worker"
    );
}

/// A steal must not dodge the fault. One worker at JBSQ(1) under a
/// burst: request 0 fills the worker's queue, so the dispatcher steals
/// request 1 and runs it on its own slice. The panic aimed at request 1
/// must fire there and be contained on the dispatcher's row.
#[test]
fn injected_panic_on_a_stolen_slice_is_contained_on_the_dispatcher() {
    let mut case = base_case();
    case.n_workers = 1;
    case.jbsq_depth = 1;
    case.work_conserving = true;
    case.arrival = ArrivalKind::Burst;
    case.requests = 20;
    case.fault = FaultKind::PanicOn { request: 1 };
    let clock = Arc::new(VirtualClock::new());
    let app = Arc::new(VirtualSpinApp::new(clock.clone(), 5_000));
    let obs = run_runtime_with(&case, Clock::from_virtual(clock), app, TIMEOUT);
    assert!(obs.collected_ok, "collector timed out");
    let trace = obs.raw_trace.as_ref().expect("trace enabled");
    assert!(
        trace
            .records
            .iter()
            .any(|r| r.ev.kind() == EventKind::Steal && r.ev.id() == 1),
        "request 1 must run on the dispatcher's stolen slice"
    );
    assert_eq!(obs.failed, 1, "exactly the injected panic fails");
    assert_eq!(
        obs.dispatcher_failed(),
        1,
        "the failure is the dispatcher's"
    );
    let v = check_runtime(&obs);
    assert!(v.is_empty(), "oracles: {v:?}");
}

// --------------------------------------------------------- virtual time

/// With a frozen virtual clock no quantum can ever expire, so a full run
/// must produce exactly zero signals and zero preemptions — the strictest
/// no-spurious-preemption statement, impossible to assert on wall clocks.
#[test]
fn frozen_virtual_time_is_preemption_free() {
    let mut case = base_case();
    case.quantum_us = 50; // would expire constantly on a wall clock
    let clock = Arc::new(VirtualClock::new());
    let obs = run_runtime_with(
        &case,
        Clock::from_virtual(clock),
        Arc::new(FrozenApp),
        TIMEOUT,
    );
    assert!(obs.collected_ok, "collector timed out");
    assert_eq!(obs.completed, case.requests);
    assert_eq!(
        obs.signals_sent, 0,
        "frozen time must never expire a quantum"
    );
    assert_eq!(obs.preemptions, 0);
    assert_eq!(obs.acct.total(), 0);
    let v = check_runtime(&obs);
    assert!(v.is_empty(), "oracles: {v:?}");
}

/// On virtual time with a single worker, measured service time is an
/// *equality*, not a tolerance: the handler advances the clock by exactly
/// `service_ns`, and nothing else moves it during the slice.
#[test]
fn virtual_spin_measures_service_exactly() {
    let mut case = base_case();
    case.n_workers = 1;
    case.jbsq_depth = 1;
    case.work_conserving = false;
    case.quantum_us = 1_000; // larger than any service → single-slice runs
    case.short_us = 25;
    case.long_us = 25; // every request is exactly 25 µs
    let clock = Arc::new(VirtualClock::new());
    let app = Arc::new(VirtualSpinApp::new(clock.clone(), 5_000));
    let obs = run_runtime_with(&case, Clock::from_virtual(clock), app, TIMEOUT);
    assert!(obs.collected_ok, "collector timed out");
    assert_eq!(obs.completed, case.requests);
    assert_eq!(obs.preemptions, 0, "quantum exceeds service time");

    // The arithmetic mean is exact (not bucketed): every one of the
    // `requests` measurements must be exactly 25_000 ns.
    let mean = obs.telemetry.breakdown.service.mean();
    assert!(
        (mean - 25_000.0).abs() < f64::EPSILON * 25_000.0,
        "virtual-time service mean must be exactly 25µs, got {mean}"
    );
    // Histogram percentiles carry 3 significant figures (≤0.1% error).
    let p99 = obs.telemetry.service_p99_ns();
    assert!(
        (24_975..=25_025).contains(&p99),
        "virtual-time service p99 within bucket resolution, got {p99}"
    );
    let v = check_runtime(&obs);
    assert!(v.is_empty(), "oracles: {v:?}");
}

/// Virtual-time preemption is exact: with the app parking at preemption
/// points whenever a slice virtually outruns the quantum
/// ([`VirtualSpinApp::awaiting_quantum`]), every expiry *with a waiter*
/// becomes a yield, so 400 µs services on a 50 µs quantum preempt
/// *exactly* 8 times per request — an equality no wall-clock test could
/// assert. All 20 requests are in the central queue from the first
/// ingest pass (burst), and round-robin keeps them all there until each
/// has yielded 8 times — the 8th right after its last chunk — so a
/// waiter exists at every expiry; the final round only completes
/// requests, with no virtual time passing and nothing left to expire.
#[test]
fn virtual_spin_preempts_deterministically() {
    let mut case = base_case();
    case.arrival = ArrivalKind::Burst;
    case.n_workers = 1;
    case.jbsq_depth = 1;
    case.work_conserving = false;
    case.quantum_us = 50;
    case.short_us = 400; // exactly 8 quanta per request
    case.long_us = 400;
    case.requests = 20;
    let clock = Arc::new(VirtualClock::new());
    // Chunk = quantum/2 so every expiry lands on a chunk boundary.
    let app = Arc::new(VirtualSpinApp::awaiting_quantum(
        clock.clone(),
        25_000,
        50_000,
    ));
    let obs = run_runtime_with(&case, Clock::from_virtual(clock), app, TIMEOUT);
    assert!(obs.collected_ok, "collector timed out");
    assert_eq!(obs.completed, case.requests);
    assert_eq!(
        obs.preemptions,
        8 * case.requests,
        "each 400µs service must yield exactly once per 50µs quantum"
    );
    assert_eq!(
        obs.signals_sent, obs.preemptions,
        "every signal is consumed"
    );
    let v = check_runtime(&obs);
    assert!(v.is_empty(), "oracles: {v:?}");
}

/// A two-shard case through `run_case`: conservation summed over
/// shards, each shard's books, every hand-off taken once, every answer
/// on its home ring, per-shard JBSQ, and the merged trace agreeing with
/// the counters — the same oracles every case runs.
#[test]
fn two_shard_case_holds_every_oracle() {
    let mut case = base_case();
    case.requests = 400;
    case.shards = 2;
    assert_clean(&case);
}
