//! Cross-validation between the three independent models in this repo:
//! the §2 analytic formulas, the discrete-event simulator, and the
//! instrumentation-pass model. Where they describe the same quantity they
//! must agree — this is the consistency net under the figure reproduction.

use concord::instrument::corpus;
use concord::sim::analytic;
use concord::sim::experiments::ideal_capacity_rps;
use concord::sim::{simulate, CostModel, PreemptMechanism, SimParams, SystemConfig};
use concord::workloads::dist::Dist;
use concord::workloads::mix::{ClassSpec, Mix};
use concord::workloads::Workload;

fn fixed_mix(us: f64) -> Mix {
    Mix::new(
        format!("Fixed({us})"),
        vec![ClassSpec::new("req", 1.0, Dist::fixed_us(us))],
    )
}

/// The simulator's preemption count matches the analytic ⌊S/q⌋ for long
/// fixed-size requests.
#[test]
fn sim_preemption_count_matches_floor_s_over_q() {
    let cfg = SystemConfig::concord(4, 5_000);
    // 500 µs requests at a 5 µs quantum: ⌊500/5⌋ - 1 ≈ 99 preemptions each
    // (the last quantum completes the request). Low load to avoid queueing.
    let n = 200u64;
    let r = simulate(&cfg, fixed_mix(500.0), &SimParams::new(500.0, n, 42));
    assert_eq!(r.completed, n);
    let per_request = r.preemptions as f64 / n as f64;
    assert!(
        (per_request - 99.0).abs() < 3.0,
        "preemptions per request: {per_request}"
    );
}

/// The simulator's measured worker-busy inflation under cooperative
/// preemption tracks the analytic per-worker overhead (Eq. 2) within a
/// factor accounting for the modeling differences.
#[test]
fn sim_worker_overhead_tracks_analytic_model() {
    let quantum_ns = 5_000u64;
    let service_us = 500.0;
    let cost = CostModel::paper_default();
    let cfg = SystemConfig::concord_coop_jbsq(4, quantum_ns);
    let n = 300u64;
    let r = simulate(&cfg, fixed_mix(service_us), &SimParams::new(800.0, n, 42));
    assert_eq!(r.completed, n);

    // Worker-side cycles actually consumed per request vs pure service.
    let service_cycles = cost.ns_to_cycles((service_us * 1_000.0) as u64) as f64;
    let busy_per_req = r.worker_busy_cycles as f64 / n as f64;
    let measured_overhead = busy_per_req / service_cycles - 1.0;

    let analytic_overhead = analytic::preemption_overhead_full(
        PreemptMechanism::Coop,
        true,
        &cost,
        quantum_ns,
        (service_us * 1_000.0) as u64,
    );
    // Busy-cycle accounting excludes the yield-side switch costs, so the
    // measured value is a bit lower; both must be small and same-order.
    assert!(
        measured_overhead > 0.2 * analytic_overhead && measured_overhead < 3.0 * analytic_overhead,
        "measured={measured_overhead:.4} analytic={analytic_overhead:.4}"
    );
}

/// Shinjuku pays more per preemption than Concord in the simulator, by
/// roughly the analytic ratio.
#[test]
fn sim_shinjuku_vs_concord_overhead_ratio() {
    let quantum_ns = 2_000u64;
    let cost = CostModel::paper_default();
    let n = 200u64;
    let service_cycles = cost.ns_to_cycles(500_000) as f64;

    let measure = |cfg: &SystemConfig| -> f64 {
        let r = simulate(cfg, fixed_mix(500.0), &SimParams::new(500.0, n, 42));
        assert_eq!(r.completed, n);
        (r.worker_busy_cycles + r.worker_transition_cycles) as f64 / n as f64 / service_cycles - 1.0
    };
    let shinjuku = measure(&SystemConfig::shinjuku(4, quantum_ns));
    let concord = measure(&SystemConfig::concord_coop_jbsq(4, quantum_ns));
    // Fig. 12: about 4x at 2 µs between IPI+SQ and coop+JBSQ. Busy-cycle
    // accounting sees the receive costs (IPI 1200 vs final-miss 150).
    assert!(
        shinjuku > 2.0 * concord,
        "shinjuku={shinjuku:.4} concord={concord:.4}"
    );
}

/// The instrumentation model's average timeliness deviation must fall in
/// the band the simulator's achieved-quantum measurement produces —
/// both describe Concord's preemption imprecision.
#[test]
fn timeliness_models_agree_on_order_of_magnitude() {
    // Simulator: achieved-quantum std for the synthetic spin workload.
    let cfg = SystemConfig::concord(4, 5_000);
    let wl = fixed_mix(100.0);
    let cap = ideal_capacity_rps(4, wl.mean_service_ns());
    let r = simulate(&cfg, wl, &SimParams::new(0.5 * cap, 20_000, 42));
    assert!(r.preemptions > 0);
    let sim_std_us = r.quantum_std_us();

    // Pass model: corpus average.
    let rows = corpus::table1();
    let avg_std_us = rows.iter().map(|row| row.std_us).sum::<f64>() / rows.len() as f64;

    // The synthetic spin code is probe-dense, so its std is the floor;
    // real applications (the corpus) are above it but all within 2 µs.
    assert!(
        sim_std_us < avg_std_us + 0.2,
        "sim={sim_std_us} corpus avg={avg_std_us}"
    );
    assert!(avg_std_us < 2.0);
}

/// Every scheduling policy cross-validates between the live runtime and
/// the discrete-event simulator: same case, both engines, p50/p99
/// slowdown within the conformance envelope (`CONCORD_CONF_TOL` ×, plus
/// the `CONCORD_CONF_SLACK_US` wall-noise allowance). A policy whose two
/// implementations diverge by an order of magnitude fails here even if
/// each passes its own invariants.
#[test]
fn runtime_and_sim_agree_per_policy() {
    use concord::core::PolicyKind;
    use concord_conformance::harness::{run_runtime, run_sim};
    use concord_conformance::{check_cross, ArrivalKind, CaseConfig, FaultKind};

    for policy in PolicyKind::ALL {
        let case = CaseConfig {
            seed: 77,
            n_workers: 2,
            jbsq_depth: 2,
            quantum_us: 100,
            work_conserving: true,
            arrival: ArrivalKind::Poisson,
            short_us: 10,
            long_us: 150,
            short_weight: 50,
            requests: 200,
            load_pct: 40,
            fault: FaultKind::None,
            policy,
            shards: 1,
        };
        let obs = run_runtime(&case, std::time::Duration::from_secs(20));
        assert!(obs.collected_ok, "{policy}: collector timed out");
        let sim = run_sim(&case);
        let violations = check_cross(&obs, &sim);
        assert!(
            violations.is_empty(),
            "policy {policy} diverges between runtime and sim:\n  {}",
            violations.join("\n  ")
        );
    }
}

/// FCFS as the closed-form anchor: a single run-to-completion worker fed
/// Poisson arrivals is an M/G/1 queue, so the simulator's mean sojourn
/// must match Pollaczek–Khinchine: `E[T] = E[S] + λE[S²] / (2(1−ρ))`.
/// The other policies have no closed form at this generality — FCFS
/// pins the simulator's queueing core to textbook truth, and the
/// per-policy envelope above carries that trust to the rest.
#[test]
fn fcfs_sim_matches_mg1_closed_form() {
    // Two-point service: 20 µs (90%) / 200 µs (10%).
    let mix = Mix::new(
        "mg1",
        vec![
            ClassSpec::new("short", 0.9, Dist::fixed_us(20.0)),
            ClassSpec::new("long", 0.1, Dist::fixed_us(200.0)),
        ],
    );
    let mean_s_us = 0.9 * 20.0 + 0.1 * 200.0; // E[S]   = 38 µs
    let mean_s2_us2 = 0.9 * 400.0 + 0.1 * 40_000.0; // E[S²] = 4360 µs²
    let rho = 0.6;
    let lambda_per_us = rho / mean_s_us;
    let expected_sojourn_us = mean_s_us + lambda_per_us * mean_s2_us2 / (2.0 * (1.0 - rho));

    // Persephone-FCFS with one worker *is* M/G/1 up to the cost model's
    // sub-µs dispatch overheads (< 2% of a 38 µs mean service).
    let cfg = SystemConfig::persephone_fcfs(1);
    let rate_rps = lambda_per_us * 1e6;
    let r = simulate(&cfg, mix, &SimParams::new(rate_rps, 40_000, 9));
    assert!(r.incomplete == 0, "{} incomplete", r.incomplete);
    let measured_us = r.latency_ns.mean() / 1_000.0;
    let ratio = measured_us / expected_sojourn_us;
    assert!(
        (0.8..=1.25).contains(&ratio),
        "M/G/1 anchor: measured mean sojourn {measured_us:.1}µs vs \
         Pollaczek–Khinchine {expected_sojourn_us:.1}µs (ratio {ratio:.3})"
    );
}

/// Capacity ordering is invariant across seeds (the figure reproduction
/// is not a seed artifact).
#[test]
fn concord_beats_shinjuku_across_seeds() {
    let wl = concord::workloads::mix::leveldb_get_scan();
    let cap = ideal_capacity_rps(14, wl.mean_service_ns());
    for seed in [1u64, 7, 99] {
        let rate = 0.55 * cap;
        let shinjuku = simulate(
            &SystemConfig::shinjuku(14, 2_000),
            concord::workloads::mix::leveldb_get_scan(),
            &SimParams::new(rate, 25_000, seed),
        );
        let concord_r = simulate(
            &SystemConfig::concord(14, 2_000),
            concord::workloads::mix::leveldb_get_scan(),
            &SimParams::new(rate, 25_000, seed),
        );
        assert!(
            concord_r.p999_slowdown() < shinjuku.p999_slowdown(),
            "seed {seed}: concord={} shinjuku={}",
            concord_r.p999_slowdown(),
            shinjuku.p999_slowdown()
        );
    }
}
