//! The reproduction harness: one `repro` binary whose subcommands print
//! the paper's tables and figures.
//!
//! [`ENTRIES`] holds one entry per `results/NAME.txt` file, each printing
//! the same rows/series as the paper's table or figure. `repro NAME
//! [quick|standard|paper]` prints one; `repro all FIDELITY --out DIR`
//! writes every `DIR/NAME.txt`, and `--check DIR` compares against them
//! instead, naming each file that differs. `repro simulate …` drives one
//! ad-hoc configuration through the simulator or the real runtime
//! ([`simulate`]). Microbenchmarks for the substrates live under
//! `benches/`.
//!
//! ```text
//! cargo run --release -p concord-bench --bin repro -- fig6 standard
//! cargo run --release -p concord-bench --bin repro -- all standard --check results
//! ```

#![warn(missing_docs)]

pub mod simulate;

use concord_instrument::corpus;
use concord_sim::experiments::{self as exp, Fidelity};
use std::path::Path;
use std::time::Instant;

/// The scheduling quanta (µs) used by the overhead figures (2, 12, 15).
const OVERHEAD_QUANTA_US: [f64; 6] = [1.0, 5.0, 10.0, 25.0, 50.0, 100.0];

/// The service times (µs) swept in Fig. 3.
const FIG3_SERVICE_US: [f64; 6] = [1.0, 5.0, 10.0, 25.0, 50.0, 100.0];

/// One reproducible result: `results/NAME.txt` and what prints it.
#[derive(Clone, Copy)]
pub struct Entry {
    /// Subcommand and results file stem.
    pub name: &'static str,
    /// One-line description for `repro --list`.
    pub about: &'static str,
    /// Renders the result at a fidelity (ignored by the closed-form
    /// entries).
    pub run: fn(&Fidelity) -> String,
}

/// Every table and figure, in paper order.
pub const ENTRIES: [Entry; 17] = [
    Entry {
        name: "fig2",
        about: "preemption-mechanism overhead vs scheduling quantum",
        run: |_| exp::fig2(&OVERHEAD_QUANTA_US).to_string(),
    },
    Entry {
        name: "fig3",
        about: "worker idle time awaiting the next request (SQ vs JBSQ)",
        run: |f| exp::fig3(&FIG3_SERVICE_US, f).to_string(),
    },
    Entry {
        name: "fig5",
        about: "impact of imprecise preemption (idealized queueing sim)",
        run: |f| exp::fig5(f).to_string(),
    },
    Entry {
        name: "fig6",
        about: "Bimodal(50:1, 50:100) slowdown vs load, q = 5 us and 2 us",
        run: |f| format!("{}\n{}", exp::fig6(5_000, f), exp::fig6(2_000, f)),
    },
    Entry {
        name: "fig7",
        about: "Bimodal(99.5:0.5, 0.5:500) slowdown vs load, q = 5 us and 2 us",
        run: |f| format!("{}\n{}", exp::fig7(5_000, f), exp::fig7(2_000, f)),
    },
    Entry {
        name: "fig8",
        about: "Fixed(1) at q = 5 us and 2 us, TPCC at q = 10 us",
        run: |f| {
            format!(
                "{}\n{}\n{}",
                exp::fig8_fixed(5_000, f),
                exp::fig8_fixed(2_000, f),
                exp::fig8_tpcc(f)
            )
        },
    },
    Entry {
        name: "fig9",
        about: "LevelDB 50% GET / 50% SCAN, q = 5 us and 2 us",
        run: |f| format!("{}\n{}", exp::fig9(5_000, f), exp::fig9(2_000, f)),
    },
    Entry {
        name: "fig10",
        about: "LevelDB under the ZippyDB production mix, q = 5 us",
        run: |f| exp::fig10(f).to_string(),
    },
    Entry {
        name: "fig11",
        about: "per-mechanism contribution on LevelDB 50/50, q = 2 us",
        run: |f| exp::fig11(f).to_string(),
    },
    Entry {
        name: "fig12",
        about: "preemption-overhead breakdown vs quantum",
        run: |_| exp::fig12(&OVERHEAD_QUANTA_US).to_string(),
    },
    Entry {
        name: "fig13",
        about: "dedicated vs work-conserving dispatcher on a 4-core config",
        run: |f| exp::fig13(f).to_string(),
    },
    Entry {
        name: "fig14",
        about: "low-load zoom of Fig. 6: the cost of approximation",
        run: |f| exp::fig14(f).to_string(),
    },
    Entry {
        name: "fig15",
        about: "Concord vs Intel user-space IPIs (Sapphire Rapids model)",
        run: |_| exp::fig15(&OVERHEAD_QUANTA_US).to_string(),
    },
    Entry {
        name: "table1",
        about: "instrumentation overhead and preemption timeliness, 24 profiles",
        run: |_| corpus::render_table1(&corpus::table1()),
    },
    Entry {
        name: "capacities",
        about: "throughput at the 50x SLO: the paper's headline percentages",
        run: exp::capacities,
    },
    Entry {
        name: "ablations",
        about: "JBSQ depth, preemption mechanism and dispatcher batching sweeps",
        run: |f| {
            format!(
                "{}\n{}\n{}",
                exp::ablation_jbsq_k(f),
                exp::ablation_mechanism(f),
                exp::ablation_batching(f)
            )
        },
    },
    Entry {
        name: "discussion",
        about: "section 6: single dispatcher vs work-stealing logical queue",
        run: |f| exp::discussion_logical_queue(f).to_string(),
    },
];

/// The entry named `name`.
pub fn entry(name: &str) -> Option<&'static Entry> {
    ENTRIES.iter().find(|e| e.name == name)
}

/// The fidelity a positional argument names; `standard` when absent.
pub fn fidelity(arg: Option<&str>) -> Result<Fidelity, String> {
    match arg {
        None | Some("standard") => Ok(Fidelity::standard()),
        Some("quick") => Ok(Fidelity::quick()),
        Some("paper") => Ok(Fidelity::paper()),
        Some(other) => Err(format!(
            "unknown fidelity '{other}' (expected quick|standard|paper)"
        )),
    }
}

/// Runs `entries` at `fid` and either writes each output to
/// `dir/NAME.txt` (`check == false`) or compares it with that file
/// (`check == true`). Returns the names whose file was missing or
/// differed — always empty when writing. Each entry's wall time goes to
/// stderr as it finishes.
pub fn all(
    entries: &[Entry],
    fid: &Fidelity,
    dir: &Path,
    check: bool,
) -> std::io::Result<Vec<&'static str>> {
    if !check {
        std::fs::create_dir_all(dir)?;
    }
    let mut differs = Vec::new();
    for e in entries {
        let start = Instant::now();
        let out = (e.run)(fid);
        let path = dir.join(format!("{}.txt", e.name));
        let verdict = if !check {
            std::fs::write(&path, &out)?;
            "written"
        } else if std::fs::read_to_string(&path).is_ok_and(|old| old == out) {
            "same"
        } else {
            differs.push(e.name);
            "DIFFERS"
        };
        eprintln!(
            "{:<11} {:>8.1}s  {}  {verdict}",
            e.name,
            start.elapsed().as_secs_f64(),
            path.display()
        );
    }
    Ok(differs)
}
