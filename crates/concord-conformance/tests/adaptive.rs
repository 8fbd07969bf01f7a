//! The adaptive-quantum control plane under the conformance harness:
//! per-class quanta converge to distinct stable values on a bimodal mix,
//! retuning never causes a short-class request to be preempted (proved
//! as a virtual-time equality, not a tolerance), and every run still
//! satisfies the full oracle stack — including the per-class
//! conservation law the ingest and completion ledgers must agree on.

use concord_conformance::harness::run_runtime_tuned;
use concord_conformance::VirtualSpinApp;
use concord_conformance::{check_runtime, ArrivalKind, CaseConfig, FaultKind};
use concord_core::clock::VirtualClock;
use concord_core::{Clock, PolicyKind, SpinApp};
use std::sync::Arc;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(20);

/// A bimodal case the controller can tell apart: 10µs shorts and 400µs
/// longs in equal measure, one worker so virtual-time measurements are
/// exact per request.
fn bimodal_case() -> CaseConfig {
    CaseConfig {
        seed: 7,
        n_workers: 1,
        jbsq_depth: 1,
        quantum_us: 100,
        work_conserving: false,
        arrival: ArrivalKind::Poisson,
        short_us: 10,
        long_us: 400,
        short_weight: 50,
        requests: 120,
        load_pct: 40,
        fault: FaultKind::None,
        policy: PolicyKind::PsQuantum,
        shards: 1,
    }
}

/// The per-class refinement of the paper's core property, on the virtual
/// clock with the adaptive controller ON: the controller shrinks the
/// short class's quantum toward its observed service (and leaves the
/// long class clamped at `quantum_max`), yet no short request ever sees
/// a preemption signal — the retuned quantum's lower clamp and
/// bucket-upper-bound targeting keep it strictly above the class's
/// service time. Virtual time makes slice lengths exact, so "never" is
/// an equality over the loss-free trace. The requests arrive as one
/// burst: a long request is only signaled while another waits, and the
/// quantum-awaiting app parks until it is, so every long must have
/// company at each of its expiries — round-robin over a queue that was
/// full from the first ingest pass guarantees that.
#[test]
fn adaptive_quanta_never_preempt_the_short_class() {
    use concord_trace::EventKind;
    let mut case = bimodal_case();
    case.arrival = ArrivalKind::Burst;
    let clock = Arc::new(VirtualClock::new());
    // Chunk = half the (long-class) quantum so every expiry lands on a
    // chunk edge; the long class stays clamped at 100µs throughout.
    let app = Arc::new(VirtualSpinApp::awaiting_quantum(
        clock.clone(),
        50_000,
        100_000,
    ));
    let obs = run_runtime_tuned(&case, Clock::from_virtual(clock), app, TIMEOUT, |cfg| {
        cfg.adaptive_quantum = true;
    });
    assert!(obs.collected_ok, "collector timed out");
    assert!(obs.preemptions > 0, "long requests must be preempted");

    // The controller retuned: the short class's quantum moved off the
    // configured 100µs toward its ~10µs service (its log₂ sketch bucket
    // upper bound is 16.4µs), while the long class stays at the clamp.
    let short_q = obs.quanta_ns[0];
    let long_q = obs.quanta_ns[1];
    assert!(
        short_q < 100_000,
        "short-class quantum never retuned: {short_q}ns"
    );
    assert!(
        short_q > 1_000 * case.short_us,
        "short-class quantum fell below the class's service: {short_q}ns"
    );
    assert_eq!(long_q, 100_000, "long class must stay at quantum_max");

    // Per-class never-preempted, exactly: no YIELD in the trace belongs
    // to a short request (ARRIVE's generation field carries the service
    // time in µs).
    let trace = obs.raw_trace.as_ref().expect("trace enabled");
    assert_eq!(obs.trace_dropped, 0, "trace must be loss-free");
    let shorts: std::collections::HashSet<u64> = trace
        .records
        .iter()
        .filter(|r| r.ev.kind() == EventKind::Arrive && r.ev.gen() <= case.short_us)
        .map(|r| r.ev.id())
        .collect();
    assert!(!shorts.is_empty(), "case must contain short requests");
    let preempted_short = trace
        .records
        .iter()
        .filter(|r| r.ev.kind() == EventKind::Yield)
        .find(|r| shorts.contains(&r.ev.id()));
    assert!(
        preempted_short.is_none(),
        "short request preempted under adaptive quanta: {preempted_short:?}"
    );

    // Full oracle stack — including the per-class conservation law on
    // the ingest/completion ledgers — must hold on the adaptive run.
    let v = check_runtime(&obs);
    assert!(v.is_empty(), "oracles: {v:?}");
    assert_eq!(
        obs.ingested_by_class.len(),
        2,
        "both classes must appear in the ingest ledger: {:?}",
        obs.ingested_by_class
    );
}

/// Wall-clock convergence on the real spin server: a bimodal mix through
/// two workers leaves the controller holding *distinct* per-class quanta
/// — small for the short class, clamped at `quantum_max` for the long
/// class — and the run stays oracle-clean.
#[test]
fn adaptive_quanta_converge_per_class_on_wall_clock() {
    let mut case = bimodal_case();
    case.n_workers = 2;
    case.jbsq_depth = 2;
    case.requests = 2_000;
    case.load_pct = 60;
    let obs = run_runtime_tuned(
        &case,
        Clock::monotonic(),
        Arc::new(SpinApp::new()),
        TIMEOUT,
        |cfg| cfg.adaptive_quantum = true,
    );
    assert!(obs.collected_ok, "collector timed out");
    let (short_q, long_q) = (obs.quanta_ns[0], obs.quanta_ns[1]);
    assert!(
        short_q < long_q,
        "classes must converge to distinct quanta: short {short_q}ns long {long_q}ns"
    );
    assert!(
        short_q >= 1_000,
        "short quantum below the probe-period clamp"
    );
    assert_eq!(long_q, 100_000, "long class clamps at quantum_max");
    let v = check_runtime(&obs);
    assert!(v.is_empty(), "oracles: {v:?}");
}
