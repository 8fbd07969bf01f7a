//! Golden schedules: exact `SimResult` fields for a fixed seed, one row
//! per system preset and workload.
//!
//! `deterministic_across_runs` only compares two runs of the same build;
//! these rows were recorded *before* the simulator moved onto
//! `concord-core`'s queue, policy keys and JBSQ pick, so any change to
//! how it queues, keys, picks or steals that moves a processor-sharing
//! or FCFS schedule by one event fails here. Slowdown percentiles are
//! compared as `f64` bit patterns: equal bits, not "close enough".
//!
//! A deliberate model change that moves these numbers must re-record the
//! tables; the assertion message prints each moved row as a literal.

use concord_sim::{simulate, SimParams, SystemConfig};
use concord_workloads::{mix, Workload};

#[derive(Debug)]
struct Pin {
    /// `completed`, `preemptions`, `dispatcher_completed`,
    /// `events_processed`, `max_jbsq_inflight`.
    counts: [u64; 5],
    /// p50, p99 and p99.9 slowdown. `Debug` prints the shortest literal
    /// that parses back to the same bits, and rows compare bits.
    slowdown: [f64; 3],
}

impl PartialEq for Pin {
    fn eq(&self, other: &Self) -> bool {
        self.counts == other.counts
            && self.slowdown.map(f64::to_bits) == other.slowdown.map(f64::to_bits)
    }
}

const WORKERS: usize = 4;
const QUANTUM_NS: u64 = 5_000;
const REQUESTS: u64 = 4_000;
const SEED: u64 = 11;

/// The presets the figures are built from, in table order.
fn presets() -> [SystemConfig; 8] {
    [
        SystemConfig::shinjuku(WORKERS, QUANTUM_NS),
        SystemConfig::persephone_fcfs(WORKERS),
        SystemConfig::concord(WORKERS, QUANTUM_NS),
        SystemConfig::concord_coop_sq(WORKERS, QUANTUM_NS),
        SystemConfig::concord_coop_jbsq(WORKERS, QUANTUM_NS),
        SystemConfig::concord_no_steal(WORKERS, QUANTUM_NS),
        SystemConfig::concord(WORKERS, QUANTUM_NS).with_batch(8),
        SystemConfig::concord(WORKERS, QUANTUM_NS).with_adaptive(),
    ]
}

/// Runs `wl` at 90 % of the workers' ideal capacity and extracts the
/// pinned fields.
fn pin<W: Workload>(cfg: &SystemConfig, wl: W) -> Pin {
    let rate = 0.9 * WORKERS as f64 / (wl.mean_service_ns() * 1e-9);
    let r = simulate(cfg, wl, &SimParams::new(rate, REQUESTS, SEED));
    Pin {
        counts: [
            r.completed,
            r.preemptions,
            r.dispatcher_completed,
            r.events_processed,
            r.max_jbsq_inflight,
        ],
        slowdown: [r.slowdown.median(), r.slowdown.p99(), r.slowdown.p999()],
    }
}

fn check<W: Workload>(expected: &[Pin; 8], wl: impl Fn() -> W) {
    let mut moved = Vec::new();
    for (i, (cfg, want)) in presets().iter().zip(expected).enumerate() {
        let got = pin(cfg, wl());
        if &got != want {
            moved.push(format!("row {i} ({}):\n    {got:?},", cfg.name));
        }
    }
    assert!(moved.is_empty(), "schedules moved:\n{}", moved.join("\n"));
}

/// Fixed(1 µs): no preemption; the dispatcher's ingest/dispatch order and
/// the work-conserving steal decide every schedule.
const FIXED_1US: [Pin; 8] = [
    // Shinjuku
    Pin {
        counts: [4000, 0, 0, 32000, 1],
        slowdown: [153.75, 273.11, 275.03],
    },
    // Persephone-FCFS
    Pin {
        counts: [4000, 0, 0, 32000, 1],
        slowdown: [153.75, 273.11, 275.03],
    },
    // Concord
    Pin {
        counts: [4000, 0, 130, 35480, 2],
        slowdown: [5.1, 19.63, 24.49],
    },
    // Co-op+SQ
    Pin {
        counts: [4000, 0, 0, 32000, 1],
        slowdown: [159.19, 283.03, 285.11],
    },
    // Co-op+JBSQ(2)
    Pin {
        counts: [4000, 0, 0, 36000, 2],
        slowdown: [9.76, 26.63, 27.21],
    },
    // Concord w/o dispatcher work
    Pin {
        counts: [4000, 0, 0, 36000, 2],
        slowdown: [9.76, 26.63, 27.21],
    },
    // Concord, dispatcher batch 8
    Pin {
        counts: [4000, 0, 256, 30426, 2],
        slowdown: [3.66, 11.25, 12.21],
    },
    // Concord, adaptive quanta
    Pin {
        counts: [4000, 0, 130, 35480, 2],
        slowdown: [5.1, 19.63, 24.49],
    },
];

/// Bimodal(50:1, 50:100): every long request is preempted about 19
/// times, so requeue order decides the schedule too.
const BIMODAL_50_1_50_100: [Pin; 8] = [
    // Shinjuku
    Pin {
        counts: [4000, 38548, 0, 378995, 1],
        slowdown: [132.07, 687.99, 692.47],
    },
    // Persephone-FCFS
    Pin {
        counts: [4000, 0, 0, 32000, 1],
        slowdown: [8.35, 983.03, 1087.99],
    },
    // Concord
    Pin {
        counts: [4000, 33782, 324, 358163, 2],
        slowdown: [2.13, 22.23, 28.81],
    },
    // Co-op+SQ
    Pin {
        counts: [4000, 38570, 0, 379130, 1],
        slowdown: [60.15, 310.07, 315.83],
    },
    // Co-op+JBSQ(2)
    Pin {
        counts: [4000, 38570, 0, 383130, 2],
        slowdown: [13.1, 158.87, 166.55],
    },
    // Concord w/o dispatcher work
    Pin {
        counts: [4000, 38570, 0, 383130, 2],
        slowdown: [13.1, 158.87, 166.55],
    },
    // Concord, dispatcher batch 8
    Pin {
        counts: [4000, 33890, 342, 353687, 2],
        slowdown: [2.07, 21.51, 26.55],
    },
    // Concord, adaptive quanta
    Pin {
        counts: [4000, 2158, 429, 78982, 2],
        slowdown: [1.65, 153.99, 254.39],
    },
];

#[test]
fn fixed_1us_schedules_are_pinned() {
    check(&FIXED_1US, mix::fixed_1us);
}

#[test]
fn bimodal_schedules_are_pinned() {
    check(&BIMODAL_50_1_50_100, mix::bimodal_50_1_50_100);
}
