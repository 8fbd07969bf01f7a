//! Analyzer for binary (`CTRC`) scheduling traces.
//!
//! ```text
//! concord-trace summarize <trace.bin>
//! concord-trace export    <trace.bin> [-o <trace.json>]
//! concord-trace check     <trace.bin> [--jbsq K]
//! ```
//!
//! `summarize` prints the derived observables; `export` writes
//! Perfetto/chrome://tracing JSON; `check` re-runs the trace-visible
//! invariants and exits non-zero on any violation. Both read a merged
//! multi-shard trace shard by shard.

use concord_trace::{binary, perfetto, TraceSummary};
use std::path::{Path, PathBuf};
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: concord-trace summarize <trace.bin>\n\
         \x20      concord-trace export    <trace.bin> [-o <trace.json>]\n\
         \x20      concord-trace check     <trace.bin> [--jbsq K]"
    );
    exit(2);
}

fn load(path: &Path) -> concord_trace::Trace {
    binary::read_file(path).unwrap_or_else(|e| {
        eprintln!("concord-trace: cannot read {}: {e}", path.display());
        exit(1);
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match argv.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => usage(),
    };
    let input = PathBuf::from(rest.first().unwrap_or_else(|| usage()));

    match cmd {
        "summarize" => {
            let trace = load(&input);
            print!("{}", TraceSummary::from_trace(&trace).render());
        }
        "export" => {
            let mut out = input.with_extension("json");
            let mut i = 1;
            while i < rest.len() {
                match rest[i].as_str() {
                    "-o" | "--out" => {
                        out = PathBuf::from(rest.get(i + 1).unwrap_or_else(|| usage()));
                        i += 2;
                    }
                    _ => usage(),
                }
            }
            let trace = load(&input);
            if let Err(e) = perfetto::write_json(&trace, &out) {
                eprintln!("concord-trace: cannot write {}: {e}", out.display());
                exit(1);
            }
            println!(
                "wrote {} ({} events) — load it in chrome://tracing or ui.perfetto.dev",
                out.display(),
                trace.len()
            );
        }
        "check" => {
            let mut jbsq = None;
            let mut i = 1;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--jbsq" => {
                        let k = rest.get(i + 1).unwrap_or_else(|| usage());
                        jbsq = Some(k.parse().unwrap_or_else(|_| usage()));
                        i += 2;
                    }
                    _ => usage(),
                }
            }
            let trace = load(&input);
            let summary = TraceSummary::from_trace(&trace);
            let violations = summary.check(jbsq);
            if violations.is_empty() {
                println!(
                    "ok: {} events, {} matched preemptions, no violations",
                    trace.len(),
                    summary.matched_preemptions
                );
            } else {
                for v in &violations {
                    eprintln!("VIOLATION: {v}");
                }
                exit(1);
            }
        }
        _ => usage(),
    }
}
