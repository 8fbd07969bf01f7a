//! `concord-benchmark`: the one command that runs every workload,
//! checks outputs and prints every metric by name with its unit.
//!
//! ```text
//! concord-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! concord-benchmark --all           [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! concord-benchmark --aa [--runs N] [--seed N] [--seconds S] [--quick]
//! ```
//!
//! With `--workload` the last line of standard output is the result
//! line: one JSON object with the keys `correct`, `attempted`, `failed`
//! and `metrics`. `--all` and `--aa` run each workload in a child
//! process of this binary, so that peak memory is per workload.

use concord_benchmark::run::{self, Request};
use concord_benchmark::spec::{self, Better};
use concord_benchmark::stats::{median, quartile_spread};
use concord_obs::json::Json;
use std::process::{Command, ExitCode, Stdio};

fn main() -> ExitCode {
    let m = concord_args::Parser::new(
        "concord-benchmark",
        "The benchmark of the live runtime, the TCP server and the simulator.",
    )
    .opt(
        "workload",
        "NAME",
        "run one workload and print its result line",
    )
    .switch("all", "run every workload, each in its own process")
    .switch(
        "aa",
        "two interleaved sets of runs of this binary, compared against the bounds",
    )
    .opt_default("runs", "N", "10", "runs per set with --aa")
    .opt_default("seed", "N", "1", "seed of every generated input")
    .opt(
        "seconds",
        "S",
        "seconds one run measures (default 20; 2 with --quick)",
    )
    .opt_default(
        "trace",
        "0|1",
        "0",
        "1: traced run, per-layer metrics and span files",
    )
    .switch("quick", "short phases, for the smoke test")
    .parse_env();
    let quick = m.has("quick");
    let default_seconds = if quick {
        spec::QUICK_SECONDS
    } else {
        spec::DEFAULT_SECONDS
    };
    let req = Request {
        seed: m.require("seed").unwrap_or_else(|e| m.fatal(e)),
        seconds: m
            .opt("seconds")
            .unwrap_or_else(|e| m.fatal(e))
            .unwrap_or(default_seconds),
        trace: m.require::<u8>("trace").unwrap_or_else(|e| m.fatal(e)) != 0,
        quick,
    };
    if !(req.seconds > 0.0 && req.seconds <= 600.0) {
        m.fatal(concord_args::ArgError::BadValue {
            flag: "seconds".into(),
            value: req.seconds.to_string(),
            expected: "a positive number of seconds, at most 600".into(),
        });
    }

    if m.has("aa") {
        let runs: usize = m.require("runs").unwrap_or_else(|e| m.fatal(e));
        return aa(&req, runs.max(2));
    }
    if m.has("all") {
        return all(&req);
    }
    let Some(name) = m.get("workload") else {
        eprintln!("{}", usage_hint());
        return ExitCode::from(2);
    };
    let Some(w) = spec::workload(name) else {
        eprintln!("unknown workload {name}; one of: {}", workload_names());
        return ExitCode::from(2);
    };
    match run::run(w, &req) {
        Ok(outcome) => {
            eprint!("{}", outcome.table());
            println!("{}", outcome.result_line());
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{name}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage_hint() -> String {
    format!(
        "concord-benchmark: give --workload NAME, --all or --aa (see --help)\nworkloads: {}",
        workload_names()
    )
}

fn workload_names() -> String {
    spec::WORKLOADS.map(|w| w.name).join(" ")
}

/// Runs one workload in a child process of this binary. Returns its
/// result line parsed back, and whether it ran clean (exit code 0 and
/// `"correct": true`).
fn child(workload: &str, req: &Request, seed: u64) -> Result<(Json, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &req.seconds.to_string()])
        .args(["--trace", if req.trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if req.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().ok_or("no result line")?;
    let json = Json::parse(line).map_err(|e| format!("result line: {e}"))?;
    let correct = out.status.success() && json.get("correct") == Some(&Json::Bool(true));
    Ok((json, correct))
}

fn metric(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn write_result_file(name: &str, body: &str) {
    let dir = run::output_dir();
    let path = dir.join(name);
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// `--all`: every workload once, each in its own process.
fn all(req: &Request) -> ExitCode {
    let mut ok = true;
    let mut rows = Vec::new();
    for w in &spec::WORKLOADS {
        match child(w.name, req, req.seed) {
            Ok((Json::Obj(mut fields), correct)) => {
                ok &= correct;
                fields.insert(0, ("workload".into(), Json::Str(w.name.into())));
                rows.push(Json::Obj(fields));
            }
            Ok(_) => {
                eprintln!("{}: the result line is not an object", w.name);
                ok = false;
            }
            Err(e) => {
                eprintln!("{}: {e}", w.name);
                ok = false;
            }
        }
    }
    let body = Json::obj(vec![
        ("seed", Json::U64(req.seed)),
        ("seconds", Json::Num(req.seconds)),
        ("trace", Json::Bool(req.trace)),
        ("nproc", Json::U64(nproc())),
        ("workloads", Json::Arr(rows)),
    ]);
    let body = body.render();
    println!("{body}");
    write_result_file(
        &format!("result_seed{}_trace{}.json", req.seed, u8::from(req.trace)),
        &body,
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn nproc() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

/// `--aa`: two interleaved sets of timed runs of the same binary. A
/// benchmark that cannot tell itself from itself within its own bounds
/// cannot tell a regression from noise either.
fn aa(req: &Request, runs: usize) -> ExitCode {
    let req = Request {
        trace: false,
        ..*req
    };
    let mut outside = false;
    let mut report = Vec::new();
    for w in &spec::WORKLOADS {
        // sets[0] is A, sets[1] is B: metric name -> one value per run.
        let mut sets: [Vec<Vec<f64>>; 2] = [
            vec![Vec::new(); spec::END_TO_END.len()],
            vec![Vec::new(); spec::END_TO_END.len()],
        ];
        let mut incorrect = 0;
        for i in 0..runs {
            // Alternate which set runs first, so drift over the session
            // lands on both.
            for side in if i % 2 == 0 { [0, 1] } else { [1, 0] } {
                match child(w.name, &req, req.seed + i as u64) {
                    Ok((result, correct)) => {
                        incorrect += usize::from(!correct);
                        for (j, m) in spec::END_TO_END.iter().enumerate() {
                            sets[side][j].extend(metric(&result, m.name));
                        }
                    }
                    Err(e) => {
                        eprintln!("{}: {e}", w.name);
                        incorrect += 1;
                    }
                }
            }
        }
        println!(
            "{}{}  ({runs} runs per set{})",
            w.name,
            if w.gated { "" } else { " [not gated]" },
            if incorrect > 0 {
                format!(", {incorrect} INCORRECT")
            } else {
                String::new()
            }
        );
        println!(
            "  {:<14} {:>14} {:>14} {:>9} {:>9} {:>7}",
            "metric", "median A", "median B", "spread A", "spread B", "bound"
        );
        outside |= incorrect > 0;
        for (j, m) in spec::END_TO_END.iter().enumerate() {
            let (a, b) = (median(&sets[0][j]), median(&sets[1][j]));
            let (sa, sb) = (quartile_spread(&sets[0][j]), quartile_spread(&sets[1][j]));
            let worse = match m.better {
                Better::Lower => (b - a) / a,
                Better::Higher => (a - b) / a,
            };
            // The rule the regression gate applies, both ways round:
            // neither set may read as a regression of the other, and
            // (set-up time aside) the runs of a set must agree.
            let shifted = worse.abs() > m.bound;
            let loose = m.name != "setup_s" && sa.max(sb) > m.bound;
            let flag = match (shifted || loose, w.gated) {
                (false, _) => "",
                (true, true) => "  OUTSIDE",
                (true, false) => "  outside (not gated)",
            };
            outside |= (shifted || loose) && w.gated;
            println!(
                "  {:<14} {:>14.4} {:>14.4} {:>8.1}% {:>8.1}% {:>6.0}%{flag}",
                m.name,
                a,
                b,
                100.0 * sa,
                100.0 * sb,
                100.0 * m.bound
            );
            report.push(Json::obj(vec![
                ("workload", Json::Str(w.name.into())),
                ("metric", Json::Str(m.name.into())),
                ("median_a", Json::Num(a)),
                ("median_b", Json::Num(b)),
                ("spread_a", Json::Num(sa)),
                ("spread_b", Json::Num(sb)),
                ("bound", Json::Num(m.bound)),
                ("outside", Json::Bool(shifted || loose)),
                ("gated", Json::Bool(w.gated)),
            ]));
        }
    }
    write_result_file(
        "aa.json",
        &Json::obj(vec![
            ("runs_per_set", Json::U64(runs as u64)),
            ("seconds", Json::Num(req.seconds)),
            ("nproc", Json::U64(nproc())),
            ("rows", Json::Arr(report)),
        ])
        .render(),
    );
    if outside {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
