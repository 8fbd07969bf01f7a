//! A flexible command-line driver for the discrete-event simulator —
//! and, with `--runtime`, for the *real* runtime on the same workloads.
//!
//! ```text
//! simulate [--system concord|shinjuku|persephone|coop-sq|coop-jbsq]
//!          [--workload bimodal50|bimodal995|fixed1|tpcc|leveldb|zippydb]
//!          [--rate RPS] [--load FRACTION] [--quantum US] [--workers N]
//!          [--shards N] [--requests N] [--seed N]
//!          [--policy ps|fcfs|srpt[:PCT]|boost[:US]]
//!          [--batch N] [--runtime] [--report-secs S] [--trace PATH]
//! ```
//!
//! Either `--rate` (absolute requests/sec) or `--load` (fraction of the
//! ideal worker capacity) sets the offered load; `--load 0.7` is the
//! default. `--shards N` runs N dispatcher+worker groups: in simulation
//! each shard is an independent instance at `rate / N` with merged
//! metrics; with `--runtime` the real `ShardedRuntime` runs with a
//! round-robin front-end and the report adds per-shard counters plus the
//! cross-shard conservation check. `--runtime` replaces the simulation
//! with a real dispatcher+workers run (spin server) and prints the
//! lifecycle telemetry from `Runtime::telemetry()`; `--report-secs`
//! additionally enables the periodic reporter at that interval.
//! `--trace PATH` writes the scheduling-event trace of the run — Perfetto
//! JSON if PATH ends in `.json`, the compact binary format otherwise —
//! from the simulator or (with `--runtime`) from the real runtime's
//! per-core rings; sharded traces pack the shard id into the track word.
//!
//! `--policy` selects the scheduling policy in *both* engines, which take
//! the same `PolicyKind` and key their queues with the same code: `ps`
//! (quantum processor sharing, the default), `fcfs` (run-to-completion,
//! no quantum policing; the system's instrumentation cost stays),
//! `srpt[:PCT]` (remaining-size priority on size estimates with ±PCT %
//! error), and `boost[:US]` (arrival-time-shifted priority, Yu & Scully).

use concord_core::{PolicyKind, Runtime, RuntimeConfig, ShardedRuntime, SpinApp};
use concord_net::{ring, Collector, LoadGen, Request, Response, RttModel};
use concord_sim::experiments::ideal_capacity_rps;
use concord_sim::{simulate, SimParams, SystemConfig};
use concord_workloads::mix::{self, Mix};
use concord_workloads::Workload;
use std::process::exit;
use std::sync::Arc;
use std::time::Duration;

struct Args {
    system: String,
    workload: String,
    rate: Option<f64>,
    load: f64,
    quantum_us: f64,
    workers: usize,
    shards: usize,
    requests: u64,
    seed: u64,
    policy: PolicyKind,
    batch: u32,
    runtime: bool,
    report_secs: Option<f64>,
    trace: Option<std::path::PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: simulate [--system concord|shinjuku|persephone|coop-sq|coop-jbsq] \
         [--workload bimodal50|bimodal995|fixed1|tpcc|leveldb|zippydb] \
         [--rate RPS | --load FRACTION] [--quantum US] [--workers N] \
         [--shards N] [--requests N] [--seed N] \
         [--policy ps|fcfs|srpt[:PCT]|boost[:US]] \
         [--batch N] [--runtime] [--report-secs S] [--trace PATH]"
    );
    exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        system: "concord".into(),
        workload: "bimodal50".into(),
        rate: None,
        load: 0.7,
        quantum_us: 5.0,
        workers: 14,
        shards: 1,
        requests: 80_000,
        seed: 42,
        policy: PolicyKind::PsQuantum,
        batch: 1,
        runtime: false,
        report_secs: None,
        trace: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        // Boolean flags take no value.
        if flag == "--runtime" {
            args.runtime = true;
            i += 1;
            continue;
        }
        let value = argv.get(i + 1).unwrap_or_else(|| usage()).clone();
        match flag {
            "--system" => args.system = value,
            "--workload" => args.workload = value,
            "--rate" => args.rate = Some(value.parse().unwrap_or_else(|_| usage())),
            "--load" => args.load = value.parse().unwrap_or_else(|_| usage()),
            "--quantum" => args.quantum_us = value.parse().unwrap_or_else(|_| usage()),
            "--workers" => args.workers = value.parse().unwrap_or_else(|_| usage()),
            "--shards" => {
                args.shards = value.parse().unwrap_or_else(|_| usage());
                if args.shards == 0 {
                    usage();
                }
            }
            "--requests" => args.requests = value.parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--batch" => args.batch = value.parse().unwrap_or_else(|_| usage()),
            "--report-secs" => args.report_secs = Some(value.parse().unwrap_or_else(|_| usage())),
            "--trace" => args.trace = Some(value.into()),
            "--policy" => args.policy = PolicyKind::parse(&value).unwrap_or_else(|| usage()),
            _ => usage(),
        }
        i += 2;
    }
    args
}

fn workload_by_name(name: &str) -> Mix {
    match name {
        "bimodal50" => mix::bimodal_50_1_50_100(),
        "bimodal995" => mix::bimodal_995_05_05_500(),
        "fixed1" => mix::fixed_1us(),
        "tpcc" => mix::tpcc(),
        "leveldb" => mix::leveldb_get_scan(),
        "zippydb" => mix::zippydb(),
        _ => usage(),
    }
}

fn system_by_name(name: &str, workers: usize, quantum_ns: u64) -> SystemConfig {
    match name {
        "concord" => SystemConfig::concord(workers, quantum_ns),
        "shinjuku" => SystemConfig::shinjuku(workers, quantum_ns),
        "persephone" => SystemConfig::persephone_fcfs(workers),
        "coop-sq" => SystemConfig::concord_coop_sq(workers, quantum_ns),
        "coop-jbsq" => SystemConfig::concord_coop_jbsq(workers, quantum_ns),
        _ => usage(),
    }
}

/// Writes `trace` to `path` (format by extension) and reports the outcome.
fn write_trace(trace: &concord_trace::Trace, path: &std::path::Path) {
    match concord_trace::write_path(trace, path) {
        Ok(()) => println!(
            "trace: {} events on {} tracks -> {}",
            trace.records.len(),
            trace.n_workers + 1,
            path.display()
        ),
        Err(e) => eprintln!("trace: failed to write {}: {e}", path.display()),
    }
}

/// Drives the chosen workload through the real dispatcher+workers
/// runtime (spin server) instead of the simulator, then prints the
/// lifecycle telemetry aggregated by the dispatcher.
fn run_runtime(args: &Args, workload: Mix, quantum_ns: u64, rate: f64) {
    let mut builder = RuntimeConfig::builder()
        .paper_defaults(args.workers)
        .policy(args.policy)
        .quantum(Duration::from_nanos(quantum_ns.max(1)));
    if let Some(secs) = args.report_secs {
        builder = builder.telemetry_report_every(Duration::from_secs_f64(secs));
    }
    let cfg = builder.build().unwrap_or_else(|e| {
        eprintln!("simulate: invalid runtime config: {e}");
        exit(2);
    });
    println!(
        "real runtime: {} workers, quantum {:?}, JBSQ({}), policy {}, {:.0} rps, {} requests, seed {}",
        cfg.n_workers, cfg.quantum, cfg.jbsq_depth, cfg.policy, rate, args.requests, args.seed
    );

    let (req_tx, req_rx) = ring::<Request>(32 * 1024);
    let (resp_tx, resp_rx) = ring::<Response>(32 * 1024);
    let mut rt = Runtime::start(cfg, Arc::new(SpinApp::new()), req_rx, resp_tx);
    let gen = LoadGen::start(req_tx, workload, rate, args.requests, args.seed);
    let mut collector = Collector::new(resp_rx, RttModel::zero(), args.seed);
    let ok = collector.collect(args.requests, Duration::from_secs(600));
    let report = gen.join();
    let telemetry = rt.telemetry();
    if let Some(path) = &args.trace {
        rt.quiesce();
        match rt.take_trace() {
            Some(trace) => write_trace(&trace, path),
            None => eprintln!("trace: tracer disarmed in RuntimeConfig, nothing to write"),
        }
    }
    let stats = rt.shutdown();

    println!();
    println!(
        "sent {} (dropped {} at RX ring), received {}",
        report.sent,
        report.dropped,
        collector.received()
    );
    if !ok {
        println!("WARNING: timed out before all responses arrived");
    }
    println!("\nlifecycle telemetry (Runtime::telemetry()):");
    print!("{}", telemetry.render());
    println!("\nruntime counters:");
    for (name, value) in stats.snapshot() {
        println!("  {name:<30}{value}");
    }
}

/// Drives the chosen workload through a real [`ShardedRuntime`]: a
/// round-robin splitter thread fans the load generator's stream across
/// per-shard ingress rings, a merger thread funnels the per-shard egress
/// rings back into one stream for the collector, and the report prints
/// per-shard counters plus the cross-shard conservation check.
fn run_runtime_sharded(args: &Args, workload: Mix, quantum_ns: u64, rate: f64) {
    use std::sync::atomic::{AtomicBool, Ordering};

    let mut builder = RuntimeConfig::builder()
        .paper_defaults(args.workers)
        .num_shards(args.shards)
        .policy(args.policy)
        .quantum(Duration::from_nanos(quantum_ns.max(1)));
    if let Some(secs) = args.report_secs {
        builder = builder.telemetry_report_every(Duration::from_secs_f64(secs));
    }
    let cfg = builder.build().unwrap_or_else(|e| {
        eprintln!("simulate: invalid runtime config: {e}");
        exit(2);
    });
    println!(
        "real sharded runtime: {} shards x {} workers, quantum {:?}, JBSQ({}), policy {}, {:.0} rps, {} requests, seed {}",
        args.shards, cfg.n_workers, cfg.quantum, cfg.jbsq_depth, cfg.policy, rate, args.requests, args.seed
    );

    let (req_tx, mut req_rx) = ring::<Request>(32 * 1024);
    let (mut merged_tx, merged_rx) = ring::<Response>(32 * 1024);
    let mut shard_req_tx = Vec::with_capacity(args.shards);
    let mut shard_req_rx = Vec::with_capacity(args.shards);
    let mut shard_resp_tx = Vec::with_capacity(args.shards);
    let mut shard_resp_rx = Vec::with_capacity(args.shards);
    for _ in 0..args.shards {
        let (tx, rx) = ring::<Request>(32 * 1024);
        shard_req_tx.push(tx);
        shard_req_rx.push(rx);
        let (tx, rx) = ring::<Response>(32 * 1024);
        shard_resp_tx.push(tx);
        shard_resp_rx.push(rx);
    }

    let mut rt = ShardedRuntime::start(cfg, Arc::new(SpinApp::new()), shard_req_rx, shard_resp_tx);
    let stop = Arc::new(AtomicBool::new(false));

    // Round-robin front-end: the real server uses a hashing router with a
    // power-of-two-choices fallback; for an offered-load benchmark a
    // rotor gives the same perfectly balanced split without per-shard
    // admission queues.
    let splitter = {
        let stop = Arc::clone(&stop);
        let n = args.shards;
        std::thread::spawn(move || {
            let mut shard = 0usize;
            loop {
                match req_rx.pop() {
                    Some(req) => {
                        let mut r = req;
                        loop {
                            match shard_req_tx[shard].push(r) {
                                Ok(()) => break,
                                Err(_) if stop.load(Ordering::Acquire) => return,
                                Err(back) => {
                                    r = back;
                                    std::thread::yield_now();
                                }
                            }
                        }
                        shard = (shard + 1) % n;
                    }
                    None if stop.load(Ordering::Acquire) => return,
                    None => std::thread::yield_now(),
                }
            }
        })
    };
    let merger = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || loop {
            let mut moved = false;
            for rx in shard_resp_rx.iter_mut() {
                while let Some(resp) = rx.pop() {
                    moved = true;
                    let mut r = resp;
                    loop {
                        match merged_tx.push(r) {
                            Ok(()) => break,
                            Err(_) if stop.load(Ordering::Acquire) => return,
                            Err(back) => {
                                r = back;
                                std::thread::yield_now();
                            }
                        }
                    }
                }
            }
            if !moved {
                if stop.load(Ordering::Acquire) {
                    return;
                }
                std::thread::yield_now();
            }
        })
    };

    let gen = LoadGen::start(req_tx, workload, rate, args.requests, args.seed);
    let mut collector = Collector::new(merged_rx, RttModel::zero(), args.seed);
    let ok = collector.collect(args.requests, Duration::from_secs(600));
    let report = gen.join();
    rt.quiesce();
    stop.store(true, Ordering::Release);
    let _ = splitter.join();
    let _ = merger.join();

    if let Some(path) = &args.trace {
        match rt.take_trace() {
            Some(trace) => write_trace(&trace, path),
            None => eprintln!("trace: tracer disarmed in RuntimeConfig, nothing to write"),
        }
    }
    let rollup = rt.shutdown();

    println!();
    println!(
        "sent {} (dropped {} at RX ring), received {}",
        report.sent,
        report.dropped,
        collector.received()
    );
    if !ok {
        println!("WARNING: timed out before all responses arrived");
    }
    println!("\nper-shard counters:");
    for (i, s) in rollup.per_shard.iter().enumerate() {
        println!(
            "  shard {i}: ingested {} completed {} failed {} offloaded {} reclaimed {} steals_in {} steals_out {}",
            s.ingested, s.completed, s.failed, s.offloaded, s.reclaimed, s.steals_in, s.steals_out
        );
    }
    println!(
        "cross-shard: ingested {} completed {} failed {} steals {} — conservation {}",
        rollup.total_ingested(),
        rollup.total_completed(),
        rollup.total_failed(),
        rollup.total_steals(),
        if rollup.conservation_holds() {
            "OK"
        } else {
            "VIOLATED"
        }
    );
}

fn main() {
    let args = parse_args();
    let workload = workload_by_name(&args.workload);
    let quantum_ns = (args.quantum_us * 1_000.0) as u64;
    let capacity = ideal_capacity_rps(args.workers, workload.mean_service_ns());
    let rate = args.rate.unwrap_or(args.load * capacity);

    if args.runtime {
        if args.shards > 1 {
            run_runtime_sharded(&args, workload, quantum_ns, rate);
        } else {
            run_runtime(&args, workload, quantum_ns, rate);
        }
        return;
    }

    let cfg = system_by_name(&args.system, args.workers, quantum_ns)
        .with_policy(args.policy)
        .with_batch(args.batch);

    println!(
        "system={} workload={} workers={} shards={} quantum={}us policy={} batch={}",
        cfg.name,
        Workload::name(&workload),
        args.workers,
        args.shards,
        args.quantum_us,
        args.policy,
        args.batch
    );
    println!(
        "offered load: {:.0} rps ({:.0}% of ideal {:.0} rps), {} requests, seed {}",
        rate,
        100.0 * rate / capacity,
        capacity,
        args.requests,
        args.seed
    );

    let params = SimParams::new(rate, args.requests, args.seed);
    let r = match (&args.trace, args.shards) {
        (Some(path), 1) => {
            let (r, trace) = concord_sim::simulate_traced(&cfg, workload, &params);
            write_trace(&trace, path);
            r
        }
        (Some(path), n) => {
            let (r, trace) = concord_sim::simulate_sharded_traced(&cfg, workload, &params, n);
            write_trace(&trace, path);
            r
        }
        (None, 1) => simulate(&cfg, workload, &params),
        (None, n) => concord_sim::simulate_sharded(&cfg, workload, &params, n),
    };
    println!();
    println!("completed            {}", r.completed);
    println!("censored             {}", r.censored);
    println!("dispatcher completed {}", r.dispatcher_completed);
    println!("preemptions          {}", r.preemptions);
    println!("goodput              {:.0} rps", r.goodput_rps());
    println!("p50 slowdown         {:.2}x", r.median_slowdown());
    println!("p99 slowdown         {:.2}x", r.slowdown.p99());
    println!("p99.9 slowdown       {:.2}x", r.p999_slowdown());
    println!(
        "worker idle (c_next) {:.2}%",
        100.0 * r.worker_idle_wait_frac()
    );
    println!("dispatcher util      {:.1}%", 100.0 * r.dispatcher_util());
    if r.preemptions > 0 {
        println!(
            "achieved quantum     {:.2}us mean, {:.2}us std",
            r.quantum_mean_us(),
            r.quantum_std_us()
        );
    }
    println!();
    println!("latency distribution:");
    print!(
        "{}",
        concord_metrics::ascii_chart(&r.latency_ns, 1_000.0, "us", 40)
    );
    println!(
        "{}",
        concord_metrics::percentile_line(&r.latency_ns, 1_000.0, "us")
    );
}
