//! Named experiment drivers — one function per paper figure.
//!
//! Each `figN` function returns a [`Table`] whose series match the lines in
//! the paper's figure of the same number; the `concord-bench` `repro`
//! binary prints these tables, and integration tests assert the figures'
//! qualitative claims (who wins, by roughly what factor, where crossovers
//! fall) at reduced fidelity.

use crate::abstract_queue::{self, PreemptionModel};
use crate::analytic;
use crate::config::{PreemptMechanism, QueueDiscipline, SystemConfig};
use crate::cost::CostModel;
use crate::system::{simulate, SimParams};
use concord_metrics::{find_capacity, CapacityResult, CapacitySearch, Series, Table};
use concord_workloads::dist::Dist;
use concord_workloads::mix::{self, ClassSpec, Mix};
use concord_workloads::Workload;

/// How much simulation to spend per data point.
#[derive(Clone, Copy, Debug)]
pub struct Fidelity {
    /// Arrivals generated per (system, load) point.
    pub requests: u64,
    /// Number of load points per curve.
    pub load_points: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Fidelity {
    /// Small runs for unit/integration tests (noisy p99.9 but right shape).
    pub fn quick() -> Self {
        Self {
            requests: 12_000,
            load_points: 8,
            seed: 42,
        }
    }

    /// The default used by the harness binaries.
    pub fn standard() -> Self {
        Self {
            requests: 80_000,
            load_points: 14,
            seed: 42,
        }
    }

    /// High-fidelity runs for EXPERIMENTS.md numbers.
    pub fn paper() -> Self {
        Self {
            requests: 250_000,
            load_points: 16,
            seed: 42,
        }
    }
}

/// Ideal (zero-overhead) capacity of `n` workers serving `mean_service_ns`
/// requests, in requests per second.
pub fn ideal_capacity_rps(n_workers: usize, mean_service_ns: f64) -> f64 {
    n_workers as f64 / (mean_service_ns * 1e-9)
}

/// A load grid spanning 5%..105% of `capacity_rps`.
pub fn load_grid(capacity_rps: f64, points: usize) -> Vec<f64> {
    let points = points.max(2);
    (0..points)
        .map(|i| capacity_rps * (0.05 + (1.05 - 0.05) * i as f64 / (points - 1) as f64))
        .collect()
}

/// Sweeps p99.9 slowdown vs offered load for several systems on one
/// workload — the template of Figs. 6–10, 13 and 14.
pub fn slowdown_vs_load<F>(
    title: &str,
    cfgs: &[SystemConfig],
    make_workload: F,
    loads_rps: &[f64],
    fid: &Fidelity,
) -> Table
where
    F: Fn() -> Mix,
{
    let mut table = Table::new(title, "load (kRps)", "p99.9 slowdown");
    for cfg in cfgs {
        let mut s = Series::new(cfg.name.clone());
        for (i, &rate) in loads_rps.iter().enumerate() {
            let params = SimParams::new(rate, fid.requests, fid.seed + i as u64);
            let res = simulate(cfg, make_workload(), &params);
            s.push(rate / 1_000.0, res.p999_slowdown());
        }
        table.push(s);
    }
    table
}

/// Maximum sustainable load (requests/sec) under the paper's 50× p99.9
/// slowdown SLO.
pub fn capacity_at_slo<F>(
    cfg: &SystemConfig,
    make_workload: F,
    max_rps: f64,
    fid: &Fidelity,
) -> Option<CapacityResult>
where
    F: Fn() -> Mix,
{
    let search = CapacitySearch::new(max_rps * 0.02, max_rps).with_slo(50.0);
    find_capacity(&search, |rate| {
        let params = SimParams::new(rate, fid.requests, fid.seed);
        simulate(cfg, make_workload(), &params).p999_slowdown()
    })
}

/// The paper's standard worker count (§5.1).
pub const PAPER_WORKERS: usize = 14;

/// Throughput at the 50× SLO for Persephone, Shinjuku and Concord on every
/// (workload, quantum) pair of §5.2–§5.3, with Concord's gain over
/// Shinjuku — the headline percentages of the paper's abstract.
pub fn capacities(fid: &Fidelity) -> String {
    use std::fmt::Write;
    // (workload, quanta, search ceiling): the search runs 25% past the
    // workers' ideal capacity unless a ceiling is given.
    type Case = (fn() -> Mix, &'static [u64], Option<f64>);
    let cases: [Case; 6] = [
        (mix::bimodal_50_1_50_100, &[5_000, 2_000], None),
        (mix::bimodal_995_05_05_500, &[5_000, 2_000], None),
        (mix::tpcc, &[10_000], None),
        (mix::leveldb_get_scan, &[5_000, 2_000], None),
        (mix::zippydb, &[5_000], None),
        // Dispatcher-bound near 4 MRps, far below 14 workers' ideal.
        (mix::fixed_1us, &[5_000], Some(5_000_000.0)),
    ];
    let mut out = format!(
        "{:<34} {:>6} {:>14} {:>14} {:>14} {:>8}\n",
        "workload", "q(us)", "Persephone", "Shinjuku", "Concord", "gain"
    );
    for (make, quanta, ceiling) in cases {
        let wl = make();
        let max_rps =
            ceiling.unwrap_or(1.25 * ideal_capacity_rps(PAPER_WORKERS, wl.mean_service_ns()));
        let cap = |cfg| capacity_at_slo(&cfg, make, max_rps, fid).map_or(0.0, |r| r.capacity);
        for &q in quanta {
            let p = cap(SystemConfig::persephone_fcfs(PAPER_WORKERS));
            let s = cap(SystemConfig::shinjuku(PAPER_WORKERS, q));
            let c = cap(SystemConfig::concord(PAPER_WORKERS, q));
            let gain = if s > 0.0 {
                100.0 * (c / s - 1.0)
            } else {
                f64::NAN
            };
            let _ = writeln!(
                out,
                "{:<34} {:>6} {:>13.0}k {:>13.0}k {:>13.0}k {:>+7.0}%",
                wl.name(),
                q / 1_000,
                p / 1e3,
                s / 1e3,
                c / 1e3,
                gain
            );
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Fig. 2 — preemption-mechanism overhead vs quantum (no-op handlers).
// ---------------------------------------------------------------------------

/// Fig. 2: overhead of Shinjuku's posted IPIs, rdtsc() instrumentation and
/// Concord's instrumentation, for scheduling quanta 1–100 µs (500 µs
/// requests, context switch and next-request wait excluded).
pub fn fig2(quanta_us: &[f64]) -> Table {
    let cost = CostModel::paper_default();
    let mut table = Table::new(
        "Figure 2: preemption-mechanism overhead vs scheduling quantum",
        "quantum (us)",
        "overhead (%)",
    );
    let mechs = [
        ("Posted IPIs (Shinjuku)", PreemptMechanism::Ipi),
        ("rdtsc() instrumentation", PreemptMechanism::Rdtsc),
        ("Concord instrumentation", PreemptMechanism::Coop),
    ];
    for (label, mech) in mechs {
        let mut s = Series::new(label);
        for &q in quanta_us {
            let q_ns = (q * 1_000.0) as u64;
            let o = analytic::notification_overhead(mech, &cost, q_ns, 500_000);
            s.push(q, o * 100.0);
        }
        table.push(s);
    }
    table
}

// ---------------------------------------------------------------------------
// Fig. 3 — worker idle time awaiting the next request, SQ vs JBSQ(2).
// ---------------------------------------------------------------------------

/// Fig. 3: fraction of worker time spent idle waiting for the dispatcher,
/// as a function of the (fixed) request service time, measured at 92% load
/// on 8 workers — high enough that work is almost always pending, so the
/// median per-request feed gap isolates the §2.2.2 communication stall
/// rather than arrival idleness.
pub fn fig3(service_us: &[f64], fid: &Fidelity) -> Table {
    let n = 8;
    let mut table = Table::new(
        "Figure 3: worker idle time awaiting next request",
        "service time (us)",
        "overhead (%)",
    );

    // The original systems' dispatchers are batching-optimized and can keep
    // 8 workers of 1µs requests fed; scale our per-op dispatcher costs down
    // accordingly so that Fig. 3 isolates the *worker-side* communication
    // stall rather than dispatcher saturation (see EXPERIMENTS.md).
    let mut fast_disp = CostModel::paper_default();
    fast_disp.disp_ingest /= 4;
    fast_disp.disp_dispatch /= 4;
    fast_disp.disp_completion /= 4;
    fast_disp.disp_requeue /= 4;
    fast_disp.disp_jbsq_scan_per_worker = 1;

    // Persephone runs its networker on the dispatcher thread (§5.1), which
    // we model as a slightly costlier ingest path.
    let mut persephone_cost = fast_disp;
    persephone_cost.disp_ingest += 15;

    let systems = [
        ("Shinjuku (SQ)", {
            let mut c = SystemConfig::shinjuku(n, 0).with_cost(fast_disp);
            c.preemption = PreemptMechanism::None;
            c
        }),
        (
            "Persephone (SQ)",
            SystemConfig::persephone_fcfs(n).with_cost(persephone_cost),
        ),
        ("Concord (JBSQ)", {
            let mut c = SystemConfig::concord(n, 0).with_cost(fast_disp);
            c.preemption = PreemptMechanism::None;
            c.work_conserving = false;
            c
        }),
    ];

    for (label, cfg) in systems {
        let mut s = Series::new(label);
        for &us in service_us {
            let wl = Mix::new(
                format!("Fixed({us})"),
                vec![ClassSpec::new("req", 1.0, Dist::fixed_us(us))],
            );
            let mean_ns = wl.mean_service_ns();
            let rate = 0.92 * ideal_capacity_rps(n, mean_ns);
            let params = SimParams::new(rate, fid.requests, fid.seed);
            let res = simulate(&cfg, wl, &params);
            // The paper reports the *median* per-request idle gap as a
            // fraction of the request's wall time.
            let gap_us = res.feed_gap_median_us();
            let overhead = 100.0 * gap_us / (gap_us + mean_ns / 1_000.0);
            s.push(us, overhead);
        }
        table.push(s);
    }
    table
}

// ---------------------------------------------------------------------------
// Fig. 5 — impact of imprecise preemption (idealized queueing sim).
// ---------------------------------------------------------------------------

/// Fig. 5: p99.9 slowdown vs load fraction under precise, imprecise and no
/// preemption, on the Bimodal(99.5:0.5, 0.5:500) distribution.
pub fn fig5(fid: &Fidelity) -> Table {
    let n = 8;
    let wl = mix::bimodal_995_05_05_500();
    let cap = ideal_capacity_rps(n, wl.mean_service_ns());
    let mut table = Table::new(
        "Figure 5: impact of non-instantaneous preemption (queueing simulation)",
        "load (fraction of max)",
        "p99.9 slowdown",
    );
    let models = [
        PreemptionModel::None,
        PreemptionModel::Precise { quantum_ns: 5_000 },
        PreemptionModel::OneSidedNormal {
            quantum_ns: 5_000,
            std_ns: 1_000,
        },
        PreemptionModel::OneSidedNormal {
            quantum_ns: 5_000,
            std_ns: 2_000,
        },
    ];
    for model in models {
        let mut s = Series::new(model.label());
        for i in 0..fid.load_points {
            let frac = 0.05 + 0.9 * i as f64 / (fid.load_points - 1) as f64;
            let t = abstract_queue::run(
                n,
                model,
                mix::bimodal_995_05_05_500(),
                frac * cap,
                fid.requests,
                fid.seed,
            );
            s.push(frac, t.p999());
        }
        table.push(s);
    }
    table
}

// ---------------------------------------------------------------------------
// Figs. 6–10 — slowdown vs load for the paper's workloads.
// ---------------------------------------------------------------------------

fn three_systems(quantum_ns: u64) -> Vec<SystemConfig> {
    vec![
        SystemConfig::persephone_fcfs(PAPER_WORKERS),
        SystemConfig::shinjuku(PAPER_WORKERS, quantum_ns),
        SystemConfig::concord(PAPER_WORKERS, quantum_ns),
    ]
}

/// Fig. 6: Bimodal(50:1, 50:100) at the given quantum (paper: 5 µs / 2 µs).
pub fn fig6(quantum_ns: u64, fid: &Fidelity) -> Table {
    let wl = mix::bimodal_50_1_50_100();
    let cap = ideal_capacity_rps(PAPER_WORKERS, wl.mean_service_ns());
    slowdown_vs_load(
        &format!("Figure 6: Bimodal(50:1,50:100), q={}us", quantum_ns / 1_000),
        &three_systems(quantum_ns),
        mix::bimodal_50_1_50_100,
        &load_grid(cap, fid.load_points),
        fid,
    )
}

/// Fig. 7: Bimodal(99.5:0.5, 0.5:500) at the given quantum.
pub fn fig7(quantum_ns: u64, fid: &Fidelity) -> Table {
    let wl = mix::bimodal_995_05_05_500();
    let cap = ideal_capacity_rps(PAPER_WORKERS, wl.mean_service_ns());
    slowdown_vs_load(
        &format!(
            "Figure 7: Bimodal(99.5:0.5,0.5:500), q={}us",
            quantum_ns / 1_000
        ),
        &three_systems(quantum_ns),
        mix::bimodal_995_05_05_500,
        &load_grid(cap, fid.load_points),
        fid,
    )
}

/// Fig. 8 (left): Fixed(1) — dispatcher-bound; all systems similar.
pub fn fig8_fixed(quantum_ns: u64, fid: &Fidelity) -> Table {
    // The binding constraint is the dispatcher (~4 MRps), not the workers
    // (14 MRps), so sweep against the dispatcher ceiling.
    let dispatcher_cap = 4_000_000.0;
    slowdown_vs_load(
        &format!("Figure 8 (left): Fixed(1), q={}us", quantum_ns / 1_000),
        &three_systems(quantum_ns),
        mix::fixed_1us,
        &load_grid(dispatcher_cap, fid.load_points),
        fid,
    )
}

/// Fig. 8 (right): the TPC-C mix at a 10 µs quantum.
pub fn fig8_tpcc(fid: &Fidelity) -> Table {
    let wl = mix::tpcc();
    let cap = ideal_capacity_rps(PAPER_WORKERS, wl.mean_service_ns());
    slowdown_vs_load(
        "Figure 8 (right): TPCC, q=10us",
        &three_systems(10_000),
        mix::tpcc,
        &load_grid(cap, fid.load_points),
        fid,
    )
}

/// Fig. 9: LevelDB 50% GET / 50% SCAN at the given quantum.
pub fn fig9(quantum_ns: u64, fid: &Fidelity) -> Table {
    let wl = mix::leveldb_get_scan();
    let cap = ideal_capacity_rps(PAPER_WORKERS, wl.mean_service_ns());
    slowdown_vs_load(
        &format!(
            "Figure 9: LevelDB 50% GET / 50% SCAN, q={}us",
            quantum_ns / 1_000
        ),
        &three_systems(quantum_ns),
        mix::leveldb_get_scan,
        &load_grid(cap, fid.load_points),
        fid,
    )
}

/// Fig. 10: the ZippyDB production mix at a 5 µs quantum.
pub fn fig10(fid: &Fidelity) -> Table {
    let wl = mix::zippydb();
    let cap = ideal_capacity_rps(PAPER_WORKERS, wl.mean_service_ns());
    slowdown_vs_load(
        "Figure 10: LevelDB ZippyDB mix, q=5us",
        &three_systems(5_000),
        mix::zippydb,
        &load_grid(cap, fid.load_points),
        fid,
    )
}

// ---------------------------------------------------------------------------
// Fig. 11 — cumulative mechanism breakdown.
// ---------------------------------------------------------------------------

/// Fig. 11: contribution of each Concord mechanism on the LevelDB 50/50
/// workload at a 2 µs quantum: Shinjuku (IPIs+SQ) → Co-op+SQ →
/// Co-op+JBSQ(2) → full Concord.
pub fn fig11(fid: &Fidelity) -> Table {
    let wl = mix::leveldb_get_scan();
    let cap = ideal_capacity_rps(PAPER_WORKERS, wl.mean_service_ns());
    let quantum = 2_000;
    let cfgs = vec![
        SystemConfig::persephone_fcfs(PAPER_WORKERS),
        SystemConfig::shinjuku(PAPER_WORKERS, quantum).named("Shinjuku: IPIs+SQ"),
        SystemConfig::concord_coop_sq(PAPER_WORKERS, quantum),
        SystemConfig::concord_coop_jbsq(PAPER_WORKERS, quantum),
        SystemConfig::concord(PAPER_WORKERS, quantum)
            .named("Concord: Co-op+JBSQ(2)+dispatcher work"),
    ];
    slowdown_vs_load(
        "Figure 11: per-mechanism contribution, LevelDB 50/50, q=2us",
        &cfgs,
        mix::leveldb_get_scan,
        &load_grid(cap, fid.load_points),
        fid,
    )
}

// ---------------------------------------------------------------------------
// Fig. 12 — preemption-overhead breakdown vs quantum.
// ---------------------------------------------------------------------------

/// Fig. 12: full preemptive-scheduling overhead (notification + switch +
/// next-request wait) for IPIs+SQ, Co-op+SQ and Co-op+JBSQ(2).
pub fn fig12(quanta_us: &[f64]) -> Table {
    let cost = CostModel::paper_default();
    let mut table = Table::new(
        "Figure 12: preemption overhead breakdown vs scheduling quantum",
        "quantum (us)",
        "overhead (%)",
    );
    let configs = [
        ("Shinjuku: IPIs+SQ", PreemptMechanism::Ipi, false),
        ("Co-op+SQ", PreemptMechanism::Coop, false),
        ("Concord: Co-op+JBSQ(2)", PreemptMechanism::Coop, true),
    ];
    for (label, mech, jbsq) in configs {
        let mut s = Series::new(label);
        for &q in quanta_us {
            let q_ns = (q * 1_000.0) as u64;
            let o = analytic::preemption_overhead_full(mech, jbsq, &cost, q_ns, 500_000);
            s.push(q, o * 100.0);
        }
        table.push(s);
    }
    table
}

// ---------------------------------------------------------------------------
// Fig. 13 — dispatcher work conservation on a small (4-core) VM.
// ---------------------------------------------------------------------------

/// Fig. 13: LevelDB 50/50 on a 4-core configuration (1 dispatcher, 1
/// networker, 2 workers): dedicated dispatcher vs work-conserving Concord
/// dispatcher.
pub fn fig13(fid: &Fidelity) -> Table {
    let n = 2;
    let wl = mix::leveldb_get_scan();
    // The work-conserving dispatcher adds capacity beyond the 2 workers, so
    // sweep past the 2-worker ideal.
    let cap = 1.5 * ideal_capacity_rps(n, wl.mean_service_ns());
    let cfgs = vec![
        SystemConfig::concord_no_steal(n, 5_000),
        SystemConfig::concord(n, 5_000),
    ];
    slowdown_vs_load(
        "Figure 13: dedicated vs work-conserving dispatcher, 4-core config",
        &cfgs,
        mix::leveldb_get_scan,
        &load_grid(cap, fid.load_points),
        fid,
    )
}

// ---------------------------------------------------------------------------
// Fig. 14 — the cost of approximation at low load.
// ---------------------------------------------------------------------------

/// Fig. 14: zoom of Fig. 6 (q=5 µs) at low loads, where Concord's stolen
/// requests slightly raise tail slowdown.
pub fn fig14(fid: &Fidelity) -> Table {
    let wl = mix::bimodal_50_1_50_100();
    let cap = ideal_capacity_rps(PAPER_WORKERS, wl.mean_service_ns());
    let loads: Vec<f64> = (1..=fid.load_points)
        .map(|i| cap * 0.5 * i as f64 / fid.load_points as f64)
        .collect();
    slowdown_vs_load(
        "Figure 14: low-load zoom of Fig. 6 (q=5us)",
        &three_systems(5_000),
        mix::bimodal_50_1_50_100,
        &loads,
        fid,
    )
}

// ---------------------------------------------------------------------------
// Fig. 15 — Concord vs user-space IPIs on new hardware.
// ---------------------------------------------------------------------------

/// Fig. 15: notification overhead of user-space IPIs, rdtsc()
/// instrumentation and Concord's cooperation on a Sapphire-Rapids-like cost
/// model (coherence 1.5× pricier).
pub fn fig15(quanta_us: &[f64]) -> Table {
    let cost = CostModel::sapphire_rapids();
    let mut table = Table::new(
        "Figure 15: Concord vs Intel user-space IPIs (Sapphire Rapids model)",
        "quantum (us)",
        "overhead (%)",
    );
    let mechs = [
        ("User-space IPIs", PreemptMechanism::Uipi),
        ("rdtsc() instrumentation", PreemptMechanism::Rdtsc),
        (
            "Concord's compiler-enforced cooperation",
            PreemptMechanism::Coop,
        ),
    ];
    for (label, mech) in mechs {
        let mut s = Series::new(label);
        for &q in quanta_us {
            let q_ns = (q * 1_000.0) as u64;
            let o = analytic::notification_overhead(mech, &cost, q_ns, 500_000);
            s.push(q, o * 100.0);
        }
        table.push(s);
    }
    table
}

// ---------------------------------------------------------------------------
// Ablations beyond the paper's figures (DESIGN.md §6).
// ---------------------------------------------------------------------------

/// Ablation: JBSQ depth k ∈ {1,2,3,4} — throughput/tail trade-off (§3.2
/// says k=2 suffices and larger k only hurts tail latency).
pub fn ablation_jbsq_k(fid: &Fidelity) -> Table {
    let wl = mix::bimodal_995_05_05_500();
    let cap = ideal_capacity_rps(PAPER_WORKERS, wl.mean_service_ns());
    let cfgs: Vec<SystemConfig> = [1u8, 2, 3, 4]
        .into_iter()
        .map(|k| {
            let mut c = SystemConfig::concord(PAPER_WORKERS, 5_000);
            c.queue = QueueDiscipline::Jbsq(k);
            c.named(format!("Concord JBSQ({k})"))
        })
        .collect();
    slowdown_vs_load(
        "Ablation: JBSQ queue depth k",
        &cfgs,
        mix::bimodal_995_05_05_500,
        &load_grid(cap, fid.load_points),
        fid,
    )
}

/// §6 extension: single-dispatcher Concord vs a work-stealing
/// single-logical-queue runtime with the same cooperative preemption, on
/// Fixed(1) — the workload where the dispatcher ceiling binds.
pub fn discussion_logical_queue(fid: &Fidelity) -> Table {
    use crate::logical_queue::{simulate_lq, LogicalQueueConfig};
    let mut table = Table::new(
        "Discussion (§6): single dispatcher vs single logical queue, Fixed(1)",
        "load (kRps)",
        "p99.9 slowdown",
    );
    let loads: Vec<f64> = (1..=fid.load_points.max(2))
        .map(|i| 10_000_000.0 * i as f64 / fid.load_points.max(2) as f64)
        .collect();
    let mut central = Series::new("Concord (single dispatcher)");
    let cfg = SystemConfig::concord(PAPER_WORKERS, 5_000);
    for &rate in &loads {
        let r = simulate(
            &cfg,
            mix::fixed_1us(),
            &SimParams::new(rate, fid.requests, fid.seed),
        );
        central.push(rate / 1e3, r.p999_slowdown());
    }
    table.push(central);
    let mut lq = Series::new("Concord-LQ (work stealing)");
    let lq_cfg = LogicalQueueConfig::concord_lq(PAPER_WORKERS, 5_000);
    for &rate in &loads {
        let r = simulate_lq(&lq_cfg, mix::fixed_1us(), rate, fid.requests, fid.seed);
        lq.push(rate / 1e3, r.p999_slowdown());
    }
    table.push(lq);
    table
}

/// Ablation (§6): dispatcher duty batching raises the dispatcher's
/// throughput ceiling at some cost in dispatch granularity. Swept on
/// Fixed(1), the dispatcher-bound workload.
pub fn ablation_batching(fid: &Fidelity) -> Table {
    let cfgs: Vec<SystemConfig> = [1u32, 4, 16]
        .into_iter()
        .map(|b| {
            SystemConfig::concord(PAPER_WORKERS, 5_000)
                .with_batch(b)
                .named(format!("Concord batch={b}"))
        })
        .collect();
    slowdown_vs_load(
        "Ablation: dispatcher duty batching, Fixed(1)",
        &cfgs,
        mix::fixed_1us,
        &load_grid(6_000_000.0, fid.load_points),
        fid,
    )
}

/// Ablation: preemption mechanism sweep at fixed queue discipline.
pub fn ablation_mechanism(fid: &Fidelity) -> Table {
    let wl = mix::bimodal_50_1_50_100();
    let cap = ideal_capacity_rps(PAPER_WORKERS, wl.mean_service_ns());
    let cfgs: Vec<SystemConfig> = [
        PreemptMechanism::Ipi,
        PreemptMechanism::Uipi,
        PreemptMechanism::Rdtsc,
        PreemptMechanism::Coop,
    ]
    .into_iter()
    .map(|m| {
        let mut c = SystemConfig::concord_coop_jbsq(PAPER_WORKERS, 2_000);
        c.preemption = m;
        c.named(format!("JBSQ(2)+{}", m.name()))
    })
    .collect();
    slowdown_vs_load(
        "Ablation: preemption mechanism, Bimodal(50:1,50:100), q=2us",
        &cfgs,
        mix::bimodal_50_1_50_100,
        &load_grid(cap, fid.load_points),
        fid,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Fidelity {
        Fidelity {
            requests: 6_000,
            load_points: 4,
            seed: 42,
        }
    }

    #[test]
    fn load_grid_spans_range() {
        let g = load_grid(100.0, 5);
        assert_eq!(g.len(), 5);
        assert!((g[0] - 5.0).abs() < 1e-9);
        assert!((g[4] - 105.0).abs() < 1e-9);
    }

    #[test]
    fn fig2_has_three_series_over_quanta() {
        let t = fig2(&[1.0, 5.0, 10.0, 25.0, 50.0, 100.0]);
        assert_eq!(t.series.len(), 3);
        for s in &t.series {
            assert_eq!(s.points.len(), 6);
        }
        // Concord < IPIs at small quanta.
        let ipi = t.get("Posted IPIs (Shinjuku)").unwrap().points[0].1;
        let coop = t.get("Concord instrumentation").unwrap().points[0].1;
        assert!(coop < ipi / 5.0, "coop={coop} ipi={ipi}");
    }

    #[test]
    fn fig15_uipi_beats_rdtsc_but_loses_to_concord() {
        let t = fig15(&[2.0, 5.0]);
        let uipi = t.get("User-space IPIs").unwrap().points[1].1;
        let rdtsc = t.get("rdtsc() instrumentation").unwrap().points[1].1;
        let coop = t
            .get("Concord's compiler-enforced cooperation")
            .unwrap()
            .points[1]
            .1;
        assert!(uipi < rdtsc);
        assert!(coop < uipi);
    }

    #[test]
    fn fig12_ordering_holds_at_every_quantum() {
        let t = fig12(&[1.0, 2.0, 5.0, 10.0]);
        let shj = &t.get("Shinjuku: IPIs+SQ").unwrap().points;
        let csq = &t.get("Co-op+SQ").unwrap().points;
        let cjb = &t.get("Concord: Co-op+JBSQ(2)").unwrap().points;
        for i in 0..shj.len() {
            assert!(shj[i].1 > csq[i].1, "quantum {}", shj[i].0);
            assert!(csq[i].1 > cjb[i].1, "quantum {}", shj[i].0);
        }
    }

    #[test]
    fn fig3_jbsq_has_much_less_idle() {
        let t = fig3(&[1.0, 5.0], &tiny());
        let sq = t.get("Shinjuku (SQ)").unwrap().points[0].1;
        let jb = t.get("Concord (JBSQ)").unwrap().points[0].1;
        assert!(sq > 3.0 * jb, "sq={sq} jbsq={jb}");
        // Overhead shrinks with service time for the single queue.
        let sq5 = t.get("Shinjuku (SQ)").unwrap().points[1].1;
        assert!(sq5 < sq, "sq(1us)={sq} sq(5us)={sq5}");
    }

    #[test]
    fn capacity_search_finds_something_reasonable() {
        let wl = mix::bimodal_50_1_50_100();
        let cap = ideal_capacity_rps(4, wl.mean_service_ns());
        let cfg = SystemConfig::concord(4, 5_000);
        let r = capacity_at_slo(&cfg, mix::bimodal_50_1_50_100, 1.3 * cap, &tiny()).unwrap();
        assert!(
            r.capacity > 0.3 * cap && r.capacity <= 1.3 * cap,
            "capacity={} ideal={cap}",
            r.capacity
        );
    }
}
