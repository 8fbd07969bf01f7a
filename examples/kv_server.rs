//! A LevelDB-style key-value server on the Concord runtime (paper §5.3).
//!
//! Serves the ZippyDB production mix — 78% GET, 13% PUT, 6% DELETE,
//! 3% SCAN — against an in-memory LSM store whose internal lock depth
//! gates preemption (the paper's "4 lines of code" integration). The
//! application is `concord_core::KvApp`, the one `concord-serve --app kv`
//! hosts.
//!
//! ```text
//! cargo run --release --example kv_server
//! ```

use concord::core::{KvApp, Runtime, RuntimeConfig};
use concord::net::{ring, Collector, LoadGen, Request, Response, RttModel};
use concord::workloads::mix;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let requests = 2_000u64;
    let rate_rps = 4_000.0;

    let (req_tx, req_rx) = ring::<Request>(8192);
    let (resp_tx, resp_rx) = ring::<Response>(8192);

    let app = Arc::new(KvApp::new());
    let config = RuntimeConfig::builder()
        .small_test()
        .quantum(Duration::from_micros(500))
        .build()
        .expect("valid config");
    let rt = Runtime::start(config, app.clone(), req_rx, resp_tx);

    println!("serving ZippyDB mix (78% GET / 13% PUT / 6% DELETE / 3% SCAN) at {rate_rps} rps");
    let gen = LoadGen::start(req_tx, mix::zippydb(), rate_rps, requests, 7);
    let mut collector = Collector::new(resp_rx, RttModel::paper_testbed(), 7);
    let ok = collector.collect(requests, Duration::from_secs(180));
    gen.join();
    let telemetry = rt.telemetry();
    let stats = rt.shutdown();
    assert!(ok, "timed out waiting for responses");

    let db_stats = app.db().stats();
    println!("\nstore:");
    println!(
        "  gets={} puts={} deletes={} scans={}",
        db_stats.gets, db_stats.puts, db_stats.deletes, db_stats.scans
    );
    println!(
        "  runs={} flushes={} compactions={}",
        db_stats.runs, db_stats.flushes, db_stats.compactions
    );

    println!(
        "\nlatency (client-observed, includes {}us modeled RTT):",
        10
    );
    println!(
        "  p50  : {:>10.1} us",
        collector.tally().latency_ns.percentile(50.0) as f64 / 1e3
    );
    println!(
        "  p99  : {:>10.1} us",
        collector.tally().latency_ns.percentile(99.0) as f64 / 1e3
    );
    println!(
        "  p99.9: {:>10.1} us",
        collector.tally().latency_ns.percentile(99.9) as f64 / 1e3
    );

    println!("\nserver-side lifecycle telemetry:");
    print!("{}", telemetry.render());

    println!("\nruntime:");
    for (name, value) in stats.snapshot() {
        println!("  {name:<30}{value}");
    }
}
