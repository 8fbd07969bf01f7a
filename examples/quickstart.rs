//! Quickstart: run the Concord runtime end to end on the synthetic spin
//! server and print client-observed latency statistics.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Set `CONCORD_TRACE=<path>` to also write the run's scheduling-event
//! trace: Perfetto trace-event JSON if the path ends in `.json`
//! (load it at <https://ui.perfetto.dev>), the compact binary format
//! otherwise (inspect with the `concord-trace` binary).

use concord::core::trace;
use concord::net::ring;
use concord::prelude::*;
use concord::workloads::mix;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let requests = 2_000u64;
    let rate_rps = 4_000.0;

    // NIC-model descriptor rings between "client" and "server".
    let (req_tx, req_rx) = ring::<Request>(8192);
    let (resp_tx, resp_rx) = ring::<Response>(8192);

    // The Concord runtime: 2 workers, JBSQ(2), work-conserving dispatcher.
    // The quantum is coarse because this example must behave on laptops
    // and CI boxes, not a pinned-core testbed.
    let config = RuntimeConfig::builder()
        .small_test()
        .quantum(Duration::from_micros(500))
        .build()
        .expect("valid config");
    println!(
        "starting runtime: {} workers, quantum {:?}, JBSQ({})",
        config.n_workers, config.quantum, config.jbsq_depth
    );
    let mut rt = Runtime::start(config, Arc::new(SpinApp::new()), req_rx, resp_tx);

    // Open-loop Poisson client on the Bimodal(50:1, 50:100) workload.
    let workload = mix::bimodal_50_1_50_100();
    println!("offering {rate_rps} rps of {requests} Bimodal(50:1,50:100) requests");
    let gen = LoadGen::start(req_tx, workload, rate_rps, requests, 42);

    let mut collector = Collector::new(resp_rx, RttModel::paper_testbed(), 42);
    let done = collector.collect(requests, Duration::from_secs(120));
    let report = gen.join();
    let telemetry = rt.telemetry();

    // With CONCORD_TRACE set, drain the per-core event rings at
    // quiescence and export before shutdown consumes the runtime.
    if let Ok(path) = std::env::var("CONCORD_TRACE") {
        rt.quiesce();
        if let Some(t) = rt.take_trace() {
            let path = Path::new(&path);
            match trace::write_path(&t, path) {
                Ok(()) => println!(
                    "\nwrote {} trace events to {}",
                    t.records.len(),
                    path.display()
                ),
                Err(e) => eprintln!("\nfailed to write trace {}: {e}", path.display()),
            }
        }
    }
    let stats = rt.shutdown();

    assert!(done, "timed out waiting for responses");
    println!("\nclient side:");
    println!("  sent      : {} (dropped {})", report.sent, report.dropped);
    println!("  received  : {}", collector.received());
    println!(
        "  p50 latency : {:>10.1} us",
        collector.tally().latency_ns.percentile(50.0) as f64 / 1e3
    );
    println!(
        "  p99 latency : {:>10.1} us",
        collector.tally().latency_ns.percentile(99.0) as f64 / 1e3
    );
    println!(
        "  p99.9 slowdown: {:>8.1}x",
        collector.tally().slowdown.p999()
    );

    println!("\nlatency distribution:");
    print!(
        "{}",
        concord::metrics::ascii_chart(&collector.tally().latency_ns, 1_000.0, "us", 40)
    );

    println!("\nserver-side lifecycle telemetry (Runtime::telemetry()):");
    print!("{}", telemetry.render());

    println!("\nruntime side:");
    for (name, value) in stats.snapshot() {
        println!("  {name:<30}{value}");
    }
}
