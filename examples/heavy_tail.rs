//! Heavy tails beyond the paper's bimodals: Pareto-distributed service
//! times, where §2's queueing-theory argument (processor sharing beats
//! FCFS for heavy tails) shows up in its purest form — plus SRPT, the
//! kind of richer policy §3.1 says Concord's dispatcher makes easy.
//!
//! After the simulator sweep, the same Pareto mix is driven through the
//! *real* runtime (spin server) and the lifecycle telemetry — queueing
//! delay, measured service time, sojourn, slowdown — is printed from
//! `Runtime::telemetry()`.
//!
//! ```text
//! cargo run --release --example heavy_tail
//! ```

use concord::core::{PolicyKind, Runtime, RuntimeConfig, SpinApp};
use concord::net::{ring, Collector, LoadGen, Request, Response, RttModel};
use concord::sim::experiments::{ideal_capacity_rps, PAPER_WORKERS};
use concord::sim::{simulate, SimParams, SystemConfig};
use concord::workloads::dist::Dist;
use concord::workloads::mix::{ClassSpec, Mix};
use concord::workloads::Workload;
use std::sync::Arc;
use std::time::Duration;

fn pareto_mix() -> Mix {
    Mix::new(
        "Pareto(min=1us, alpha=1.3, cap=10ms)",
        vec![ClassSpec::new(
            "req",
            1.0,
            Dist::Pareto {
                min_ns: 1_000,
                alpha: 1.3,
                cap_ns: 10_000_000,
            },
        )],
    )
}

fn main() {
    let wl = pareto_mix();
    let mean_us = wl.mean_service_ns() / 1_000.0;
    let cap = ideal_capacity_rps(PAPER_WORKERS, wl.mean_service_ns());
    println!(
        "workload {} | mean {:.1} us | ideal capacity {:.0} kRps\n",
        Workload::name(&wl),
        mean_us,
        cap / 1e3
    );

    let requests = 60_000;
    println!(
        "{:<28} {:>8} {:>10} {:>14}",
        "system", "load", "p50", "p99.9 slowdown"
    );
    for frac in [0.4, 0.6, 0.8] {
        let rate = frac * cap;
        for cfg in [
            SystemConfig::persephone_fcfs(PAPER_WORKERS),
            SystemConfig::shinjuku(PAPER_WORKERS, 5_000),
            SystemConfig::concord(PAPER_WORKERS, 5_000),
            SystemConfig::concord(PAPER_WORKERS, 5_000)
                .with_policy(PolicyKind::Srpt { noise_pct: 0 })
                .named("Concord (SRPT)"),
        ] {
            let r = simulate(&cfg, pareto_mix(), &SimParams::new(rate, requests, 42));
            println!(
                "{:<28} {:>7.0}% {:>9.2}x {:>13.1}x",
                r.system,
                frac * 100.0,
                r.median_slowdown(),
                r.p999_slowdown()
            );
        }
        println!();
    }
    println!("FCFS collapses first under the Pareto tail; preemption contains it,");
    println!("and SRPT (one-line policy swap on Concord's dispatcher) trims it further.");

    run_real_runtime(&wl);
}

/// Drives the same Pareto mix through the real runtime and prints the
/// request-lifecycle telemetry the dispatcher aggregated.
fn run_real_runtime(wl: &Mix) {
    let requests = 5_000u64;
    let cfg = RuntimeConfig::builder()
        .small_test()
        .quantum(Duration::from_micros(500))
        .build()
        .expect("valid config");
    // Offer 15% of the two-worker *ideal* capacity. The mean service time
    // is only ~4 us, so per-request runtime overhead (coroutine spawn,
    // ring hops) is a large fraction of real capacity — 15% of ideal is
    // already enough queueing to make the breakdown interesting without
    // saturating a CI box.
    let rate = 0.15 * ideal_capacity_rps(cfg.n_workers, wl.mean_service_ns());

    println!(
        "\nreal runtime: {} workers, quantum {:?}, {:.0} rps, {} requests",
        cfg.n_workers, cfg.quantum, rate, requests
    );
    let (req_tx, req_rx) = ring::<Request>(16 * 1024);
    let (resp_tx, resp_rx) = ring::<Response>(16 * 1024);
    let rt = Runtime::start(cfg, Arc::new(SpinApp::new()), req_rx, resp_tx);
    let gen = LoadGen::start(req_tx, wl.clone(), rate, requests, 42);
    let mut collector = Collector::new(resp_rx, RttModel::zero(), 42);
    let ok = collector.collect(requests, Duration::from_secs(300));
    gen.join();

    let telemetry = rt.telemetry();
    rt.shutdown();
    assert!(ok, "timed out waiting for responses");

    println!("\nserver-side lifecycle telemetry:");
    print!("{}", telemetry.render());
    println!(
        "queueing p50/p99/p99.9: {:.1} / {:.1} / {:.1} us",
        telemetry.queueing_p50_ns() as f64 / 1e3,
        telemetry.queueing_p99_ns() as f64 / 1e3,
        telemetry.queueing_p999_ns() as f64 / 1e3,
    );
    println!(
        "service  p50/p99/p99.9: {:.1} / {:.1} / {:.1} us",
        telemetry.service_p50_ns() as f64 / 1e3,
        telemetry.service_p99_ns() as f64 / 1e3,
        telemetry.service_p999_ns() as f64 / 1e3,
    );
}
