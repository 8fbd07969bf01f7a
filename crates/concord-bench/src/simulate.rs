//! `repro simulate`: one ad-hoc configuration through the discrete-event
//! simulator — or, with `--runtime`, through the *real* runtime on the
//! same workload.
//!
//! Either `--rate` (absolute requests/sec) or `--load` (fraction of the
//! ideal worker capacity) sets the offered load; `--load 0.7` is the
//! default. `--shards N` runs N dispatcher+worker groups: in simulation
//! each shard is an independent instance at `rate / N` with merged
//! metrics; with `--runtime` the real runtime's shards run behind the
//! load generator's round-robin deal and the report adds per-shard
//! counters plus the cross-shard conservation check. `--runtime` replaces
//! the simulation with a real dispatcher+workers run (spin server) and
//! prints the lifecycle telemetry from `Runtime::telemetry()`;
//! `--report-secs S` additionally prints each shard's telemetry to
//! stderr every S seconds while the run collects. `--trace PATH` writes
//! the scheduling-event trace of the run — Perfetto JSON if PATH ends in
//! `.json`, the compact binary format otherwise — from the simulator or
//! the real runtime's per-core rings; sharded traces pack the shard id
//! into the track word.
//!
//! `--policy` selects the scheduling policy in *both* engines, which take
//! the same `PolicyKind` and key their queues with the same code: `ps`
//! (quantum processor sharing, the default), `fcfs` (run-to-completion,
//! no quantum policing; the system's instrumentation cost stays),
//! `srpt[:PCT]` (remaining-size priority on size estimates with ±PCT %
//! error), and `boost[:US]` (arrival-time-shifted priority, Yu & Scully).

use concord_args::{ArgError, Matches, Parser};
use concord_core::{PolicyKind, Runtime, RuntimeConfig, RuntimeObserver, SpinApp};
use concord_net::{ring, Collector, LoadGen, Request, Response, RttModel};
use concord_sim::experiments::ideal_capacity_rps;
use concord_sim::{SimParams, SystemConfig};
use concord_workloads::mix::{self, Mix};
use concord_workloads::Workload;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::str::FromStr;
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

struct Args {
    /// The `--system` preset, before `--policy` and `--batch` apply.
    system: SystemConfig,
    workload: Mix,
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
    trace: Option<PathBuf>,
}

const SYSTEMS: &str = "concord|shinjuku|persephone|coop-sq|coop-jbsq";
const POLICIES: &str = "ps|fcfs|srpt[:PCT]|boost[:US]";

fn parser() -> Parser {
    Parser::new("repro simulate", "One run in the simulator or the runtime.")
        .opt_default("system", SYSTEMS, "concord", "simulated system")
        .opt_default("workload", mix::NAMES, "bimodal50", "service-time mix")
        .opt("rate", "RPS", "offered requests/sec (overrides --load)")
        .opt_default("load", "FRACTION", "0.7", "fraction of ideal capacity")
        .opt_default("quantum", "US", "5", "scheduling quantum, microseconds")
        .opt_default("workers", "N", "14", "workers per shard")
        .opt_default("shards", "N", "1", "scheduler shards")
        .opt_default("requests", "N", "80000", "requests to generate")
        .opt_default("seed", "N", "42", "RNG seed")
        .opt_default("policy", POLICIES, "ps", "scheduling policy")
        .opt_default("batch", "N", "1", "dispatcher duty batch (simulator)")
        .switch("runtime", "run the real runtime (spin server)")
        .opt("report-secs", "S", "telemetry report interval (--runtime)")
        .opt("trace", "PATH", "event trace file (.json = Perfetto)")
}

/// `--flag` parsed as a `T` that must be greater than zero.
fn positive<T: FromStr + PartialOrd + Default>(m: &Matches, flag: &str) -> Result<T, ArgError> {
    let v: T = m.require(flag)?;
    if v > T::default() {
        return Ok(v);
    }
    Err(ArgError::BadValue {
        flag: flag.to_string(),
        value: m.get(flag).unwrap_or_default().to_string(),
        expected: "a positive number".to_string(),
    })
}

/// The defaulted choice flag `--flag`, one of `names`, mapped by `f`.
fn chosen<T>(
    m: &Matches,
    flag: &str,
    names: &str,
    f: impl FnOnce(&str) -> Option<T>,
) -> Result<T, ArgError> {
    Ok(m.choice(flag, names, f)?.expect("flag has a default"))
}

fn system_by_name(name: &str, workers: usize, quantum_ns: u64) -> Option<SystemConfig> {
    Some(match name {
        "concord" => SystemConfig::concord(workers, quantum_ns),
        "shinjuku" => SystemConfig::shinjuku(workers, quantum_ns),
        "persephone" => SystemConfig::persephone_fcfs(workers),
        "coop-sq" => SystemConfig::concord_coop_sq(workers, quantum_ns),
        "coop-jbsq" => SystemConfig::concord_coop_jbsq(workers, quantum_ns),
        _ => return None,
    })
}

/// Parses `repro simulate`'s flags; `Ok(None)` when `--help` was asked
/// for. Inputs no run could serve — zero workers, shards or requests, a
/// non-positive rate, load or report interval — are rejected here rather
/// than panicking or spinning later.
fn parse(argv: &[String]) -> Result<Option<Args>, ArgError> {
    let m = parser().try_parse(argv)?;
    if m.help_requested() {
        return Ok(None);
    }
    let workers = positive(&m, "workers")?;
    let quantum_us: f64 = m.require("quantum")?;
    let q_ns = (quantum_us * 1_000.0) as u64;
    Ok(Some(Args {
        system: chosen(&m, "system", SYSTEMS, |s| system_by_name(s, workers, q_ns))?,
        workload: chosen(&m, "workload", mix::NAMES, mix::by_name)?,
        rate: m.get("rate").map(|_| positive(&m, "rate")).transpose()?,
        load: positive(&m, "load")?,
        quantum_us,
        workers,
        shards: positive(&m, "shards")?,
        requests: positive(&m, "requests")?,
        seed: m.require("seed")?,
        policy: chosen(&m, "policy", POLICIES, PolicyKind::parse)?,
        batch: m.require("batch")?,
        runtime: m.has("runtime"),
        report_secs: m
            .get("report-secs")
            .map(|_| positive(&m, "report-secs"))
            .transpose()?,
        trace: m.get("trace").map(PathBuf::from),
    }))
}

/// Writes `trace` to `path` (format by extension) and reports the outcome.
fn write_trace(trace: &concord_trace::Trace, path: &Path) {
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

/// `repro simulate ARGS…`: parses `argv` (exit 2 on a bad flag) and runs.
pub fn main(argv: &[String]) {
    let args = match parse(argv) {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", parser().help());
            return;
        }
        Err(e) => {
            eprintln!("repro simulate: {e}\n{}", parser().usage());
            exit(2);
        }
    };
    let capacity = ideal_capacity_rps(args.workers, args.workload.mean_service_ns());
    let rate = args.rate.unwrap_or(args.load * capacity);
    if args.runtime {
        run_runtime(args, rate);
    } else {
        run_sim(args, rate, capacity);
    }
}

/// Drives the workload through the real dispatcher+workers runtime (spin
/// server): the load generator deals arrivals round-robin over the
/// shards' ingress rings and the collector drains every egress ring. One
/// shard reports the lifecycle telemetry and runtime counters; several
/// report per-shard counters and the cross-shard conservation check.
fn run_runtime(args: Args, rate: f64) {
    let quantum_ns = (args.quantum_us * 1_000.0) as u64;
    let builder = RuntimeConfig::builder()
        .paper_defaults(args.workers)
        .num_shards(args.shards)
        .policy(args.policy)
        .quantum(Duration::from_nanos(quantum_ns.max(1)));
    let cfg = builder.build().unwrap_or_else(|e| {
        eprintln!("repro simulate: invalid runtime config: {e}");
        exit(2);
    });
    let sharded = args.shards > 1;
    let shape = if sharded {
        format!(
            "real sharded runtime: {} shards x {} workers",
            args.shards, cfg.n_workers
        )
    } else {
        format!("real runtime: {} workers", cfg.n_workers)
    };
    println!(
        "{shape}, quantum {:?}, JBSQ({}), policy {}, {:.0} rps, {} requests, seed {}",
        cfg.quantum, cfg.jbsq_depth, cfg.policy, rate, args.requests, args.seed
    );

    let (req_tx, req_rx): (Vec<_>, Vec<_>) =
        (0..args.shards).map(|_| ring::<Request>(32 * 1024)).unzip();
    let (resp_tx, resp_rx): (Vec<_>, Vec<_>) = (0..args.shards)
        .map(|_| ring::<Response>(32 * 1024))
        .unzip();
    let transports = req_rx.into_iter().zip(resp_tx);
    let mut rt = Runtime::start_shards(cfg, Arc::new(SpinApp::new()), transports);
    let gen = LoadGen::start(req_tx, args.workload, rate, args.requests, args.seed);
    let mut collector = Collector::new(resp_rx, RttModel::zero(), args.seed);
    let (observer, (collecting, wait)) = (rt.observer(), channel::<()>());
    let ok = std::thread::scope(|s| {
        if let Some(secs) = args.report_secs {
            let every = Duration::from_secs_f64(secs);
            // Every `every` until collection ends and drops `collecting`.
            s.spawn(move || {
                while wait.recv_timeout(every) == Err(RecvTimeoutError::Timeout) {
                    report_telemetry(&observer);
                }
            });
        }
        let ok = collector.collect(args.requests, Duration::from_secs(600));
        drop(collecting);
        ok
    });
    let report = gen.join();
    let telemetry = rt.telemetry();
    let stats = rt.stats();
    rt.quiesce();
    if let Some(path) = &args.trace {
        match rt.take_trace() {
            Some(trace) => write_trace(&trace, path),
            None => eprintln!("trace: tracer disarmed in RuntimeConfig, nothing to write"),
        }
    }
    let rollup = rt.rollup();

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
    if !sharded {
        println!("\nlifecycle telemetry (Runtime::telemetry()):");
        print!("{}", telemetry.render());
        println!("\nruntime counters:");
        for (name, value) in stats.snapshot() {
            println!("  {name:<30}{value}");
        }
        return;
    }
    println!("\nper-shard counters:");
    for (i, s) in rollup.per_shard.iter().enumerate() {
        println!(
            "  shard {i}: ingested {} completed {} failed {} offloaded {} steals_in {}",
            s.ingested, s.completed, s.failed, s.offloaded, s.steals_in
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

/// Prints every shard's telemetry report that has anything in it to
/// stderr.
fn report_telemetry(observer: &RuntimeObserver) {
    for shard in 0..observer.num_shards() {
        let snap = observer.telemetry(shard);
        if snap.recorded > 0 {
            eprintln!("{}", snap.render());
        }
    }
}

/// Runs the configuration through the simulator and prints the slowdown
/// summary and latency distribution.
fn run_sim(args: Args, rate: f64, capacity: f64) {
    let cfg = args.system.with_policy(args.policy).with_batch(args.batch);
    println!(
        "system={} workload={} workers={} shards={} quantum={}us policy={} batch={}",
        cfg.name,
        Workload::name(&args.workload),
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
    let workload = args.workload;
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
        (None, 1) => concord_sim::simulate(&cfg, workload, &params),
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(args: &[&str]) -> Result<Option<Args>, ArgError> {
        parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    fn rejected(args: &[&str]) -> String {
        match parse_str(args) {
            Err(ArgError::BadValue { flag, .. }) => flag,
            Err(e) => panic!("{args:?}: expected BadValue, got {e}"),
            Ok(_) => panic!("{args:?}: accepted"),
        }
    }

    #[test]
    fn defaults_match_the_documented_run() {
        let a = parse_str(&[]).unwrap().unwrap();
        assert_eq!(a.system.name, SystemConfig::concord(14, 5_000).name);
        assert_eq!(
            Workload::name(&a.workload),
            Workload::name(&mix::bimodal_50_1_50_100())
        );
        assert_eq!(
            (a.workers, a.shards, a.requests, a.seed),
            (14, 1, 80_000, 42)
        );
        assert_eq!((a.rate, a.load, a.batch), (None, 0.7, 1));
        assert!(!a.runtime && a.trace.is_none());
        assert!(parse_str(&["--help"]).unwrap().is_none());
    }

    #[test]
    fn every_flag_is_kept() {
        let a = parse_str(&[
            "--system",
            "shinjuku",
            "--workload",
            "leveldb",
            "--rate",
            "1000",
            "--quantum",
            "2",
            "--workers",
            "4",
            "--shards",
            "2",
            "--requests",
            "500",
            "--seed",
            "7",
            "--policy",
            "srpt:20",
            "--batch",
            "8",
            "--runtime",
            "--report-secs",
            "1",
            "--trace",
            "t.bin",
        ])
        .unwrap()
        .unwrap();
        assert_eq!(a.system.name, SystemConfig::shinjuku(4, 2_000).name);
        assert_eq!(a.rate, Some(1000.0));
        assert_eq!(
            (a.workers, a.shards, a.requests, a.seed, a.batch),
            (4, 2, 500, 7, 8)
        );
        assert_eq!(a.policy, PolicyKind::parse("srpt:20").unwrap());
        assert!(a.runtime);
        assert_eq!(a.report_secs, Some(1.0));
        assert_eq!(a.trace, Some(PathBuf::from("t.bin")));
    }

    #[test]
    fn zero_workers_is_rejected() {
        assert_eq!(rejected(&["--workers", "0"]), "workers");
    }

    #[test]
    fn zero_requests_is_rejected() {
        assert_eq!(rejected(&["--requests", "0"]), "requests");
    }

    #[test]
    fn zero_shards_is_rejected() {
        assert_eq!(rejected(&["--shards", "0"]), "shards");
    }

    #[test]
    fn non_positive_rate_load_or_report_secs_is_rejected() {
        assert_eq!(rejected(&["--rate", "0"]), "rate");
        assert_eq!(rejected(&["--rate", "-5"]), "rate");
        assert_eq!(rejected(&["--load", "-1"]), "load");
        assert_eq!(rejected(&["--load", "0"]), "load");
        assert_eq!(rejected(&["--load", "NaN"]), "load");
        // A zero interval would spin the report thread.
        assert_eq!(rejected(&["--report-secs", "0"]), "report-secs");
        assert_eq!(rejected(&["--report-secs", "-1"]), "report-secs");
    }

    #[test]
    fn unknown_names_are_rejected() {
        assert_eq!(rejected(&["--system", "linux"]), "system");
        assert_eq!(rejected(&["--workload", "memcached"]), "workload");
        assert_eq!(rejected(&["--policy", "lifo"]), "policy");
        assert_eq!(
            parse_str(&["--bogus"]).err(),
            Some(ArgError::Unknown("--bogus".into()))
        );
    }
}
