//! A minimal Concord backend for rack experiments and tests.
//!
//! ```text
//! rack-backend --listen HOST:PORT [--admin HOST:PORT] [--shards N]
//!              [--workers N] [--policy ps|fcfs|srpt[:PCT]|boost[:US]]
//!              [--quantum-us US]
//! ```
//!
//! A stripped-down `concord-serve` hosting the spin app. Its listener,
//! like every `std` listener on Linux, has `SO_REUSEADDR` set, so a
//! backend that was SIGKILLed can restart on the *same* port at once —
//! through the previous process's lingering `TIME_WAIT` sockets — which
//! is what the rack's kill-and-restart conservation test does. Runs
//! until SIGINT/SIGTERM, then drains gracefully.

use concord_args::Parser;
use concord_core::{PolicyKind, RuntimeConfig, SpinApp};
use concord_server::{Server, ServerConfig};
use std::process::exit;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let m = Parser::new(
        "rack-backend",
        "A minimal Concord backend for rack experiments and tests.",
    )
    .opt_default("listen", "HOST:PORT", "127.0.0.1:0", "data-plane address")
    .opt(
        "admin",
        "HOST:PORT",
        "introspection plane (off when absent)",
    )
    .opt_default("shards", "N", "1", "scheduler shards")
    .opt_default("workers", "N", "2", "workers per shard")
    .opt_default(
        "policy",
        "ps|fcfs|srpt[:PCT]|boost[:US]",
        "ps",
        "per-shard scheduling policy",
    )
    .opt_default("quantum-us", "US", "5", "scheduling quantum, microseconds")
    .parse_env();

    let listen = m.get("listen").expect("defaulted").to_string();
    let shards: usize = m.require("shards").unwrap_or_else(|e| m.fatal(e));
    let workers: usize = m.require("workers").unwrap_or_else(|e| m.fatal(e));
    let quantum_us: f64 = m.require("quantum-us").unwrap_or_else(|e| m.fatal(e));
    let policy = m
        .choice("policy", "ps|fcfs|srpt[:PCT]|boost[:US]", PolicyKind::parse)
        .unwrap_or_else(|e| m.fatal(e))
        .expect("defaulted");

    let runtime = RuntimeConfig::builder()
        .workers(workers)
        .num_shards(shards)
        .quantum(Duration::from_nanos((quantum_us * 1000.0) as u64))
        .policy(policy)
        .build()
        .unwrap_or_else(|e| {
            eprintln!("rack-backend: invalid runtime config: {e}");
            exit(2);
        });
    let mut builder = ServerConfig::builder(runtime);
    if let Some(admin) = m.get("admin") {
        builder = builder.admin(admin);
    }
    let cfg = builder.build().unwrap_or_else(|e| {
        eprintln!("rack-backend: invalid server config: {e}");
        exit(2);
    });

    let server = Server::bind(&listen, cfg, Arc::new(SpinApp::new())).unwrap_or_else(|e| {
        eprintln!("rack-backend: bind {listen}: {e}");
        exit(1);
    });
    println!("rack-backend serving on {}", server.local_addr());
    if let Some(admin) = server.admin_addr() {
        println!("rack-backend admin on {admin}");
    }

    if let Err(e) = concord_net::signal::install_shutdown_handler() {
        eprintln!("rack-backend: signal handler: {e}");
    }
    while !concord_net::signal::shutdown_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    let report = server.shutdown();
    println!(
        "rack-backend done: accepted {}  ingested {}  completed {}  conservation {}",
        report.accepted,
        report.rollup.total_ingested(),
        report.rollup.total_completed(),
        if report.rollup.conservation_holds() {
            "OK"
        } else {
            "VIOLATED"
        }
    );
}
