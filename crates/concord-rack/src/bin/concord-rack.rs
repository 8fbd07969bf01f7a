//! The rack front-end balancer process.
//!
//! ```text
//! concord-rack --backends ADDR[=ADMIN],ADDR[=ADMIN],...
//!              [--listen HOST:PORT] [--admin HOST:PORT]
//!              [--pending-cap N] [--probe-interval-ms MS]
//!              [--stale-after-ms MS] [--drain-grace-ms MS]
//! ```
//!
//! Clients connect to `--listen` exactly as they would to a single
//! `concord-serve`; the rack spreads their requests across the
//! `--backends` with power-of-two-choices over sampled queue depths.
//! A backend entry is its data-plane address, optionally `=` its admin
//! address — with an admin address the prober scrapes `/statz` for
//! queue depth; without one the balancer relies on its own in-flight
//! accounting.
//!
//! `--admin` starts the rack's own introspection plane: `/metrics`,
//! `/statz`, `/healthz`, and `POST /backend/<i>/drain` / `/undrain`.
//! Runs until SIGINT/SIGTERM, then drains in-flight requests (up to
//! `--drain-grace-ms`) and prints the conservation accounting.

use concord_args::{ArgError, Parser};
use concord_rack::{BackendSpec, Rack, RackConfig};
use std::process::exit;
use std::time::Duration;

fn parse_backends(list: &str) -> Result<Vec<BackendSpec>, String> {
    let mut specs = Vec::new();
    for item in list.split(',').filter(|s| !s.is_empty()) {
        let (addr, admin) = match item.split_once('=') {
            Some((a, m)) => (a, Some(m.to_string())),
            None => (item, None),
        };
        if addr.is_empty() {
            return Err(format!("backend entry '{item}' has no data address"));
        }
        specs.push(BackendSpec {
            addr: addr.to_string(),
            admin,
        });
    }
    Ok(specs)
}

fn main() {
    let m = Parser::new(
        "concord-rack",
        "Rack front-end balancer for Concord backends.",
    )
    .opt("backends", "ADDR[=ADMIN],...", "backends to balance across")
    .opt_default(
        "listen",
        "HOST:PORT",
        "127.0.0.1:8070",
        "client-facing address",
    )
    .opt(
        "admin",
        "HOST:PORT",
        "rack introspection plane (off when absent)",
    )
    .opt_default(
        "pending-cap",
        "N",
        "65536",
        "max in-flight requests across backends",
    )
    .opt_default(
        "probe-interval-ms",
        "MS",
        "100",
        "statz scrape / reconnect cadence",
    )
    .opt_default("stale-after-ms", "MS", "1000", "depth-sample trust window")
    .opt_default("drain-grace-ms", "MS", "2000", "shutdown drain budget")
    .parse_env();

    let listen = m.get("listen").expect("defaulted").to_string();
    let backends = match m.get("backends") {
        Some(list) => parse_backends(list).unwrap_or_else(|why| {
            eprintln!("concord-rack: invalid --backends: {why}");
            m.fatal(ArgError::BadValue {
                flag: "backends".to_string(),
                value: list.to_string(),
                expected: "comma-separated ADDR[=ADMIN] entries".to_string(),
            })
        }),
        None => {
            eprintln!("concord-rack: --backends is required");
            exit(2);
        }
    };
    let pending_cap: usize = m.require("pending-cap").unwrap_or_else(|e| m.fatal(e));
    let probe_ms: u64 = m
        .require("probe-interval-ms")
        .unwrap_or_else(|e| m.fatal(e));
    let stale_ms: u64 = m.require("stale-after-ms").unwrap_or_else(|e| m.fatal(e));
    let grace_ms: u64 = m.require("drain-grace-ms").unwrap_or_else(|e| m.fatal(e));

    let mut builder = RackConfig::builder(backends)
        .pending_cap(pending_cap)
        .probe_interval(Duration::from_millis(probe_ms))
        .stale_after(Duration::from_millis(stale_ms))
        .drain_grace(Duration::from_millis(grace_ms));
    if let Some(admin) = m.get("admin") {
        builder = builder.admin(admin);
    }
    let cfg = builder.build().unwrap_or_else(|e| {
        eprintln!("concord-rack: invalid config: {e}");
        exit(2);
    });
    let n_backends = cfg.backends.len();

    let rack = Rack::bind(&listen, cfg).unwrap_or_else(|e| {
        eprintln!("concord-rack: bind {listen}: {e}");
        exit(1);
    });
    println!(
        "concord-rack balancing {} backends on {}",
        n_backends,
        rack.local_addr()
    );
    if let Some(admin) = rack.admin_addr() {
        println!("rack admin on {admin} (/metrics /healthz /statz, POST /backend/N/drain)");
    }

    if let Err(e) = concord_net::signal::install_shutdown_handler() {
        eprintln!("concord-rack: signal handler: {e}");
    }
    while !concord_net::signal::shutdown_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    println!("draining...");
    let report = rack.shutdown();
    println!(
        "rack done: in {}  forwarded {}  rejected {}  relayed ok/failed/retry {}/{}/{}  \
         failed_over {}  dropped {}  orphaned {}  pending_at_exit {}",
        report.requests_in,
        report.forwarded,
        report.rejected_local,
        report.relayed_ok,
        report.relayed_failed,
        report.relayed_retry,
        report.failed_over,
        report.relay_dropped,
        report.orphaned,
        report.pending_at_exit
    );
    match report.check() {
        Ok(()) => println!("conservation OK"),
        Err(why) => {
            eprintln!("conservation VIOLATED: {why}");
            exit(1);
        }
    }
}
