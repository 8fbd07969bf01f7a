//! Load generator for `concord-serve`.
//!
//! ```text
//! concord-client [--addr HOST:PORT] [--requests N] [--rate RPS]
//!                [--closed-window N] [--workload NAME] [--seed N]
//! ```
//!
//! Open loop by default (requests go out on a Poisson schedule whether
//! or not responses came back — the paper's methodology); pass
//! `--closed-window N` for a closed loop with at most `N` outstanding
//! requests. Workload names are `repro simulate`'s
//! (`concord_workloads::mix::NAMES`).
//!
//! Exits 3 if any request went entirely unaccounted (no response, no
//! reject) or any answer was unexpected (a duplicate, or an id never
//! sent) — the smoke-test contract.

use concord_args::Parser;
use concord_server::{client, ClientConfig};
use concord_workloads::mix;
use std::process::exit;

fn main() {
    let m = Parser::new("concord-client", "Load generator for concord-serve.")
        .opt_default("addr", "HOST:PORT", "127.0.0.1:7070", "server to load")
        .opt("requests", "N", "total requests to send")
        .opt("rate", "RPS", "open-loop Poisson arrival rate")
        .opt(
            "closed-window",
            "N",
            "closed loop with N outstanding (0 = open loop)",
        )
        .opt_default("workload", mix::NAMES, "fixed1", "service-time mix")
        .opt("seed", "N", "workload RNG seed")
        .parse_env();
    let mut cfg = ClientConfig::default();
    if let Some(v) = m.opt("requests").unwrap_or_else(|e| m.fatal(e)) {
        cfg.requests = v;
    }
    if let Some(v) = m.opt("rate").unwrap_or_else(|e| m.fatal(e)) {
        cfg.rate_rps = v;
    }
    if let Some(v) = m.opt("closed-window").unwrap_or_else(|e| m.fatal(e)) {
        cfg.window = v;
    }
    if let Some(v) = m.opt("seed").unwrap_or_else(|e| m.fatal(e)) {
        cfg.seed = v;
    }
    let workload = m
        .choice("workload", mix::NAMES, mix::by_name)
        .unwrap_or_else(|e| m.fatal(e))
        .expect("flag has a default");
    let addr = m.get("addr").expect("defaulted");
    let mode = if cfg.window > 0 {
        format!("closed (window {})", cfg.window)
    } else {
        format!("open ({} rps)", cfg.rate_rps)
    };
    println!(
        "loading {addr} with {} x {} [{mode} loop, seed {}]",
        cfg.requests,
        m.get("workload").expect("defaulted"),
        cfg.seed
    );
    let report = match client::run(addr, &cfg, workload) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("concord-client: {addr}: {e}");
            exit(1);
        }
    };
    print!("{}", report.render());
    if report.unaccounted() > 0 || report.unexpected > 0 {
        eprintln!(
            "concord-client: {} requests unaccounted for (silent loss), {} unexpected answers",
            report.unaccounted(),
            report.unexpected
        );
        exit(3);
    }
}
