//! The per-policy conformance battery: every scheduling policy through
//! the five shared invariant oracles plus its own promise — FCFS's
//! silence and FIFO order, SRPT's and Boost's priority-inversion bounds,
//! quantum-PS's "short requests are never preempted" — on single-shard,
//! two-shard, virtual-time, and fault-injected executions.

use concord_conformance::harness::{run_runtime_with, run_sim};
use concord_conformance::VirtualSpinApp;
use concord_conformance::{
    check_policy, check_runtime, check_sharded, run_case, run_runtime, run_runtime_sharded,
    ArrivalKind, CaseConfig, FaultKind,
};
use concord_core::clock::VirtualClock;
use concord_core::{Clock, PolicyKind};
use std::sync::Arc;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(20);

/// A fault-free Poisson base so `run_case` also cross-validates each
/// policy against the simulator (p50/p99 within the conformance
/// envelope) on every battery entry.
fn base_case() -> CaseConfig {
    CaseConfig {
        seed: 1042,
        n_workers: 2,
        jbsq_depth: 2,
        quantum_us: 100,
        work_conserving: true,
        arrival: ArrivalKind::Poisson,
        short_us: 10,
        long_us: 150,
        short_weight: 50,
        requests: 150,
        load_pct: 40,
        fault: FaultKind::None,
        policy: PolicyKind::PsQuantum,
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

// --------------------------------------------------------------- battery

/// Every policy through the full oracle stack (five invariants,
/// per-policy oracle, sim cross-validation) on the same case.
#[test]
fn all_policies_pass_every_oracle() {
    for policy in PolicyKind::ALL {
        let mut case = base_case();
        case.policy = policy;
        assert_clean(&case);
    }
}

/// The same battery on a two-shard runtime: cross-shard conservation,
/// migration books, and per-shard JBSQ hold under every policy. Runs
/// unconditionally, so sharded policy coverage doesn't depend on the
/// `CONCORD_SHARDS` environment override.
#[test]
fn all_policies_hold_cross_shard_oracles() {
    for policy in PolicyKind::ALL {
        let mut case = base_case();
        case.policy = policy;
        case.requests = 300;
        let obs = run_runtime_sharded(&case, 2, TIMEOUT);
        let violations = check_sharded(&obs);
        assert!(
            violations.is_empty(),
            "cross-shard violations under {policy}: {violations:?}"
        );
    }
}

/// Estimate noise must not break any invariant: SRPT with deliberately
/// wrong (±25%) service-time estimates still conserves requests, bounds
/// queues, and respects its *own noisy* priority order (the replay
/// oracle reconstructs the same deterministic estimates).
#[test]
fn srpt_noise_preserves_invariants() {
    let mut case = base_case();
    case.policy = PolicyKind::Srpt { noise_pct: 25 };
    assert_clean(&case);
}

// ------------------------------------------------------------ per-policy

/// FCFS is run-to-completion by construction: the quantum-policing loop
/// never runs, so no signal is ever sent and nothing ever yields, and on
/// a single worker without dispatcher stealing the completion order is
/// exactly the arrival order (asserted by the replay oracle inside
/// `check_policy`).
#[test]
fn fcfs_single_worker_is_fifo_with_zero_preemptions() {
    let mut case = base_case();
    case.policy = PolicyKind::Fcfs;
    case.n_workers = 1;
    case.jbsq_depth = 1;
    case.work_conserving = false;
    let obs = run_runtime(&case, TIMEOUT);
    assert!(obs.collected_ok, "collector timed out");
    assert_eq!(obs.signals_sent, 0, "run-to-completion sent signals");
    assert_eq!(obs.preemptions, 0, "run-to-completion preempted");
    assert_eq!(obs.acct.total(), 0, "run-to-completion recorded fates");
    let v = [check_runtime(&obs), check_policy(&obs)].concat();
    assert!(v.is_empty(), "cc {}: {v:?}", case.encode());
    assert!(obs.raw_trace.is_some(), "FIFO oracle needs the raw trace");
}

/// The paper's core scheduling property, as a virtual-time equality:
/// under quantum PS with a 100µs quantum, a 10µs request can never see
/// a preemption signal — every `YIELD` in the trace belongs to a long
/// request. Virtual time makes slice lengths exact, so this is
/// deterministic, not statistical. Burst arrivals keep a waiter behind
/// every long request's expiries (signals are only sent for a waiter,
/// and the quantum-awaiting app parks until one comes).
#[test]
fn ps_quantum_never_preempts_short_requests() {
    use concord_trace::EventKind;
    let mut case = base_case();
    case.arrival = ArrivalKind::Burst;
    case.n_workers = 1;
    case.jbsq_depth = 1;
    case.work_conserving = false;
    case.quantum_us = 100;
    case.short_us = 10;
    case.long_us = 400; // 4 quanta: longs are preempted for sure
    case.requests = 60;
    let clock = Arc::new(VirtualClock::new());
    // Chunk = half the quantum so every expiry lands on a chunk edge.
    let app = Arc::new(VirtualSpinApp::awaiting_quantum(
        clock.clone(),
        50_000,
        100_000,
    ));
    let obs = run_runtime_with(&case, Clock::from_virtual(clock), app, TIMEOUT);
    assert!(obs.collected_ok, "collector timed out");
    assert!(obs.preemptions > 0, "long requests must be preempted");

    let trace = obs.raw_trace.as_ref().expect("trace enabled");
    assert_eq!(obs.trace_dropped, 0, "trace must be loss-free");
    // ARRIVE's generation field carries the service time in µs.
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
        "short request preempted under quantum PS: {preempted_short:?}"
    );
    let v = check_runtime(&obs);
    assert!(v.is_empty(), "oracles: {v:?}");
}

/// SRPT with exact estimates on one worker, fed by a burst: the replay
/// oracle proves no fresh dispatch ever bypassed a shorter fresh
/// request. A closed 100%-load burst maximizes queueing, which is where
/// inversions would happen.
#[test]
fn srpt_exact_estimates_admit_no_priority_inversion() {
    let mut case = base_case();
    case.policy = PolicyKind::Srpt { noise_pct: 0 };
    case.n_workers = 1;
    case.jbsq_depth = 1;
    case.load_pct = 60;
    let obs = run_runtime(&case, TIMEOUT);
    assert!(obs.collected_ok, "collector timed out");
    assert_eq!(obs.trace_dropped, 0, "replay needs a loss-free trace");
    let v = [check_runtime(&obs), check_policy(&obs)].concat();
    assert!(v.is_empty(), "cc {}: {v:?}", case.encode());
}

/// Boost's arrival-shifted order holds on a live execution for both a
/// tiny boost (≈ FCFS) and a large one (≈ SRPT).
#[test]
fn boost_orders_hold_across_the_interpolation_range() {
    for boost_us in [1, 100] {
        let mut case = base_case();
        case.policy = PolicyKind::Boost { boost_us };
        case.n_workers = 1;
        case.jbsq_depth = 1;
        case.load_pct = 60;
        let obs = run_runtime(&case, TIMEOUT);
        assert!(obs.collected_ok, "collector timed out");
        let v = [check_runtime(&obs), check_policy(&obs)].concat();
        assert!(v.is_empty(), "cc {}: {v:?}", case.encode());
    }
}

// ------------------------------------------------------- fault injection

/// FCFS is immune to signal faults *by construction*: with policing off
/// there are no signals to drop, so the injector's budget is never
/// spent and the oracles stay clean.
#[test]
fn fcfs_is_unaffected_by_signal_faults() {
    for fault in [
        FaultKind::DropSignals(5),
        FaultKind::DelaySignals { n: 5, delay_us: 50 },
    ] {
        let mut case = base_case();
        case.policy = PolicyKind::Fcfs;
        case.fault = fault;
        let obs = run_runtime(&case, TIMEOUT);
        assert!(obs.collected_ok, "collector timed out");
        assert_eq!(obs.signals_sent, 0, "no signals exist under {fault:?}");
        assert_eq!(
            obs.signals_dropped_injected, 0,
            "injector found a signal to drop under FCFS"
        );
        let v = [check_runtime(&obs), check_policy(&obs)].concat();
        assert!(v.is_empty(), "cc {}: {v:?}", case.encode());
    }
}

/// Preempting policies degrade gracefully under dropped or delayed
/// signals: conservation and the signal-fate balance hold exactly even
/// while some preemptions silently never happen.
#[test]
fn preempting_policies_survive_signal_faults() {
    for policy in [
        PolicyKind::PsQuantum,
        PolicyKind::Srpt { noise_pct: 0 },
        PolicyKind::Boost { boost_us: 10 },
    ] {
        for fault in [
            FaultKind::DropSignals(3),
            FaultKind::DelaySignals { n: 3, delay_us: 50 },
        ] {
            let mut case = base_case();
            case.policy = policy;
            case.fault = fault;
            let obs = run_runtime(&case, TIMEOUT);
            assert!(obs.collected_ok, "collector timed out");
            let v = [check_runtime(&obs), check_policy(&obs)].concat();
            assert!(
                v.is_empty(),
                "cc {} ({policy}, {fault:?}): {v:?}",
                case.encode()
            );
        }
    }
}

// -------------------------------------------------------------- sim side

/// The sim agrees with itself across policies: SRPT must not make the
/// short class slower than FCFS does at the same operating point, and
/// Boost with a huge B approaches SRPT's short-class tail.
#[test]
fn sim_policies_order_short_class_tails_sanely() {
    let mut case = base_case();
    case.requests = 4_000;
    case.load_pct = 70;
    case.policy = PolicyKind::Fcfs;
    let fcfs = run_sim(&case);
    case.policy = PolicyKind::Srpt { noise_pct: 0 };
    let srpt = run_sim(&case);
    assert_eq!(fcfs.completed, srpt.completed, "same closed workload");
    let (f99, s99) = (
        fcfs.slowdown_by_class[0].p99(),
        srpt.slowdown_by_class[0].p99(),
    );
    assert!(
        s99 <= f99 * 1.10,
        "SRPT made shorts slower than FCFS: srpt p99 {s99:.2} vs fcfs p99 {f99:.2}"
    );
}

/// Regression: the sim used to map every `srpt:PCT` onto one exact-SRPT
/// queue, dropping the estimate noise that is the point of the model.
/// With classes of 10 µs and 14 µs, ±50 % estimates overlap, so noisy
/// SRPT must schedule differently from exact SRPT.
#[test]
fn sim_srpt_honours_estimate_noise() {
    let mut case = base_case();
    case.short_us = 10;
    case.long_us = 14;
    case.quantum_us = 5;
    case.requests = 4_000;
    case.load_pct = 80;
    let outcome = |noise_pct| {
        let case = CaseConfig {
            policy: PolicyKind::Srpt { noise_pct },
            ..case.clone()
        };
        let r = run_sim(&case);
        assert_eq!(r.completed, case.requests, "srpt:{noise_pct}");
        let p99s: Vec<f64> = r.slowdown_by_class.iter().map(|c| c.p99()).collect();
        (r.preemptions, p99s)
    };
    let (exact, noisy) = (outcome(0), outcome(50));
    assert_ne!(exact, noisy, "srpt:50 scheduled exactly like srpt:0");
}

/// The simulator and the runtime's dispatcher key a request through the
/// same `PolicyKind::key`, each converting its own state (cycles vs clock
/// nanoseconds) into a `KeyInput`: equal requests get equal keys.
#[test]
fn sim_and_runtime_key_requests_identically() {
    use concord_core::task::Task;
    use concord_core::SpinApp;
    use concord_sim::CostModel;
    let cost = CostModel::paper_default();
    let policies = [
        PolicyKind::ALL.as_slice(),
        &[
            PolicyKind::Srpt { noise_pct: 50 },
            PolicyKind::Boost { boost_us: 3 },
        ],
    ]
    .concat();
    for id in 0..16u64 {
        let size_ns = if id % 2 == 0 { 10_000 } else { 14_000 };
        let arrived_ns = 1_234_567 * id;
        for attained_ns in [0, 3_000, 9_000] {
            let req = concord_net::Request {
                id,
                class: 0,
                service_ns: size_ns,
                sent_at: std::time::Instant::now(),
            };
            let mut task = Task::new(Arc::new(SpinApp::new()), req, 16 * 1024, arrived_ns);
            task.busy_ns = attained_ns;
            let mut simulated = concord_sim::request::Request::new(
                id,
                0,
                cost.ns_to_cycles(size_ns),
                cost.ns_to_cycles(arrived_ns),
            );
            simulated.remaining -= cost.ns_to_cycles(attained_ns);
            assert_eq!(task.key_input(), simulated.key_input(&cost));
            for &policy in &policies {
                assert_eq!(
                    policy.key(task.key_input()),
                    policy.key(simulated.key_input(&cost)),
                    "{policy}: id {id}, attained {attained_ns} ns"
                );
            }
        }
    }
}
