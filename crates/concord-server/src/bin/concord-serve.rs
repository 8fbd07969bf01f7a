//! Hosts a Concord runtime behind a TCP listener.
//!
//! ```text
//! concord-serve [--listen HOST:PORT] [--app spin|kv] [--workers N]
//!               [--shards N] [--quantum-us US]
//!               [--policy ps|fcfs|srpt[:PCT]|boost[:US]]
//!               [--adaptive-quantum] [--quantum-max-us US]
//!               [--control-interval-ms MS] [--slo CLASS:P99_US[,..]]
//!               [--admission-cap N]
//!               [--admission-policy drop-newest|drop-oldest|reject]
//!               [--admin HOST:PORT] [--report-interval SECS]
//!               [--trace-retain SECS] [--oneshot] [--trace PATH]
//! ```
//!
//! `--listen` is the data-plane address (`--addr` remains an accepted
//! alias for one release; the flag was renamed so every Concord binary
//! that binds a socket spells it the same way).
//!
//! There is no I/O thread: each shard's dispatcher polls the sockets of
//! the connections placed on it (least connections, at accept) once per
//! pass.
//!
//! `--admin HOST:PORT` starts the introspection plane beside the data
//! plane: `GET /metrics` (Prometheus text), `GET /healthz`, `GET /statz`
//! (the JSON document `concord-top` renders), and `POST /trace/dump`
//! (the flight-recorder window as Perfetto JSON). `--trace-retain SECS`
//! turns the tracer into a flight recorder that keeps only the trailing
//! window, so a long-running server can stay armed with bounded memory.
//! `--report-interval SECS` prints the telemetry report periodically
//! (0, the default, is off).
//!
//! `--oneshot` serves until at least one client has connected and all
//! clients have finished sending, then shuts down gracefully and prints
//! the final report — the mode the CI smoke test uses. Without it the
//! server runs until SIGINT/SIGTERM, which triggers the same graceful
//! drain and final report (a second signal hard-exits). `--trace PATH`
//! writes the run's scheduling-event trace on shutdown (Perfetto JSON
//! if PATH ends in `.json`, compact binary otherwise).
//!
//! `--shards N` starts N independent dispatcher+worker groups (each with
//! `--workers` workers), each owning the connections placed on it at
//! accept, joined by the bounded inter-shard steal path.
//!
//! `--policy` selects each shard's scheduling policy: `ps` (quantum
//! processor sharing, the default), `fcfs` (run-to-completion),
//! `srpt[:PCT]` (remaining-size priority with PCT% estimate noise), or
//! `boost[:US]` (arrival-time-shifted priority).
//!
//! `--adaptive-quantum` turns on the per-class quantum controller: each
//! control interval (`--control-interval-ms`, default 10) it retunes
//! every class's preemption quantum toward a low percentile of that
//! class's observed service times, clamped to
//! `[probe period, --quantum-max-us]`. `--slo CLASS:P99_US[,..]` arms a
//! per-class p99 sojourn budget in microseconds (e.g. `--slo 0:200,3:5000`);
//! a class whose observed p99 blows its budget is shed at the admission
//! gate (clients see RETRY) until its tail recovers. `--slo` works with
//! or without `--adaptive-quantum`.

use concord_args::Parser;
use concord_core::admission::{AdmissionConfig, AdmissionPolicy};
use concord_core::{ConcordApp, PolicyKind, RuntimeConfig};
use concord_server::{Server, ServerConfig, ServerReport};
use std::process::exit;
use std::sync::Arc;
use std::time::Duration;

struct Args {
    listen: String,
    app: String,
    workers: usize,
    shards: usize,
    quantum_us: f64,
    adaptive_quantum: bool,
    quantum_max_us: f64,
    control_interval_ms: u64,
    slo: Vec<(u16, u64)>,
    policy: PolicyKind,
    admission_cap: usize,
    admission_policy: AdmissionPolicy,
    admin: Option<String>,
    report_interval: u64,
    trace_retain: u64,
    oneshot: bool,
    trace: Option<std::path::PathBuf>,
}

fn parse_args() -> Args {
    let m = Parser::new(
        "concord-serve",
        "Hosts a Concord runtime behind a TCP listener.",
    )
    .opt_default(
        "listen",
        "HOST:PORT",
        "127.0.0.1:7070",
        "data-plane address",
    )
    .alias("addr", "listen")
    .opt_default("app", "spin|kv", "spin", "application to host")
    .opt_default("workers", "N", "2", "workers per shard")
    .opt_default("shards", "N", "1", "scheduler shards")
    .opt_default("quantum-us", "US", "5", "scheduling quantum, microseconds")
    .switch(
        "adaptive-quantum",
        "retune per-class quanta each control interval",
    )
    .opt_default(
        "quantum-max-us",
        "US",
        "100",
        "adaptive-quantum upper clamp, microseconds",
    )
    .opt_default(
        "control-interval-ms",
        "MS",
        "10",
        "quantum/SLO control interval, milliseconds",
    )
    .opt(
        "slo",
        "CLASS:P99_US[,..]",
        "per-class p99 sojourn budgets; blown classes shed with RETRY",
    )
    .opt_default(
        "policy",
        "ps|fcfs|srpt[:PCT]|boost[:US]",
        "ps",
        "per-shard scheduling policy",
    )
    .opt_default(
        "admission-cap",
        "N",
        "4096",
        "admission queue capacity per shard",
    )
    .opt_default(
        "admission-policy",
        "drop-newest|drop-oldest|reject",
        "reject",
        "overload response at the admission gate",
    )
    .opt(
        "admin",
        "HOST:PORT",
        "introspection plane (off when absent)",
    )
    .opt_default(
        "report-interval",
        "SECS",
        "0",
        "periodic telemetry report (0 = off)",
    )
    .opt_default(
        "trace-retain",
        "SECS",
        "0",
        "flight-recorder window (0 = off)",
    )
    .switch("oneshot", "serve one client session, then drain and report")
    .opt("trace", "PATH", "write the scheduling trace on shutdown")
    .parse_env();
    Args {
        listen: m.get("listen").expect("defaulted").to_string(),
        app: m.get("app").expect("defaulted").to_string(),
        workers: m.require("workers").unwrap_or_else(|e| m.fatal(e)),
        shards: m.require("shards").unwrap_or_else(|e| m.fatal(e)),
        quantum_us: m.require("quantum-us").unwrap_or_else(|e| m.fatal(e)),
        adaptive_quantum: m.has("adaptive-quantum"),
        quantum_max_us: m.require("quantum-max-us").unwrap_or_else(|e| m.fatal(e)),
        control_interval_ms: m
            .require("control-interval-ms")
            .unwrap_or_else(|e| m.fatal(e)),
        slo: m
            .get("slo")
            .map(|spec| {
                parse_slo(spec).unwrap_or_else(|expected| {
                    m.fatal(concord_args::ArgError::BadValue {
                        flag: "slo".to_string(),
                        value: spec.to_string(),
                        expected,
                    })
                })
            })
            .unwrap_or_default(),
        policy: m
            .choice("policy", "ps|fcfs|srpt[:PCT]|boost[:US]", PolicyKind::parse)
            .unwrap_or_else(|e| m.fatal(e))
            .expect("defaulted"),
        admission_cap: m.require("admission-cap").unwrap_or_else(|e| m.fatal(e)),
        admission_policy: m
            .choice(
                "admission-policy",
                "drop-newest|drop-oldest|reject",
                AdmissionPolicy::parse,
            )
            .unwrap_or_else(|e| m.fatal(e))
            .expect("defaulted"),
        admin: m.get("admin").map(String::from),
        report_interval: m.require("report-interval").unwrap_or_else(|e| m.fatal(e)),
        trace_retain: m.require("trace-retain").unwrap_or_else(|e| m.fatal(e)),
        oneshot: m.has("oneshot"),
        trace: m.get("trace").map(std::path::PathBuf::from),
    }
}

/// Parses `CLASS:P99_US[,CLASS:P99_US..]` into per-class microsecond
/// budgets. Returns the `expected` description on malformed input.
fn parse_slo(spec: &str) -> Result<Vec<(u16, u64)>, String> {
    let mut out = Vec::new();
    for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
        let parsed = part.trim().split_once(':').and_then(|(class, p99)| {
            let class: u16 = class.trim().parse().ok()?;
            let p99: u64 = p99.trim().parse().ok()?;
            (p99 > 0).then_some((class, p99))
        });
        match parsed {
            Some(pair) => out.push(pair),
            None => {
                return Err(format!(
                    "CLASS:P99_US with a non-zero budget (got '{part}')"
                ))
            }
        }
    }
    Ok(out)
}

fn print_report(report: &ServerReport, trace_path: Option<&std::path::Path>) {
    println!(
        "connections accepted {}  refused {}  protocol errors {}  orphaned responses {}  \
         retries dropped {}",
        report.accepted,
        report.refused,
        report.protocol_errors,
        report.orphaned_responses,
        report.retries_dropped
    );
    println!("io: in flight at exit {}", report.io.in_flight);
    for (shard, adm) in report.admission_per_shard.iter().enumerate() {
        println!(
            "admission shard {shard}: offered {}  shed {}",
            adm.offered(),
            adm.shed()
        );
    }
    if report.rollup.per_shard.len() > 1 {
        for (shard, s) in report.rollup.per_shard.iter().enumerate() {
            println!(
                "shard {shard}: ingested {}  completed {}  offloaded {}  steals_in {}",
                s.ingested, s.completed, s.offloaded, s.steals_in
            );
        }
        println!(
            "cross-shard: ingested {}  completed {}  failed {}  conservation {}",
            report.rollup.total_ingested(),
            report.rollup.total_completed(),
            report.rollup.total_failed(),
            if report.rollup.conservation_holds() {
                "OK"
            } else {
                "VIOLATED"
            }
        );
    }
    // Per-policy and per-class admission rows ride in the stats snapshot.
    for (k, v) in report.stats.snapshot() {
        println!("{k} {v}");
    }
    println!("{}", report.telemetry.render());
    if let (Some(path), Some(trace)) = (trace_path, report.trace.as_ref()) {
        match concord_core::trace::write_path(trace, path) {
            Ok(()) => println!(
                "trace: {} records -> {}",
                trace.records.len(),
                path.display()
            ),
            Err(e) => eprintln!("trace: failed to write {}: {e}", path.display()),
        }
    }
}

fn serve<A: ConcordApp>(args: &Args, app: Arc<A>) {
    let mut builder = RuntimeConfig::builder()
        .workers(args.workers)
        .num_shards(args.shards)
        .quantum(Duration::from_nanos((args.quantum_us * 1000.0) as u64))
        .policy(args.policy);
    if args.adaptive_quantum {
        builder = builder
            .adaptive_quantum(true)
            .quantum_max(Duration::from_nanos((args.quantum_max_us * 1000.0) as u64));
    }
    if args.adaptive_quantum || !args.slo.is_empty() {
        builder = builder.quantum_control_interval(Duration::from_millis(args.control_interval_ms));
    }
    if !args.slo.is_empty() {
        builder = builder.slo(args.slo.clone());
    }
    if args.report_interval > 0 {
        builder = builder.telemetry_report_every(Duration::from_secs(args.report_interval));
    }
    if args.trace_retain > 0 {
        builder = builder.trace_retain(Duration::from_secs(args.trace_retain));
    }
    let runtime = builder.build().unwrap_or_else(|e| {
        eprintln!("concord-serve: invalid runtime config: {e}");
        exit(2);
    });
    let mut builder = ServerConfig::builder(runtime).admission(AdmissionConfig {
        capacity: args.admission_cap,
        policy: args.admission_policy,
    });
    if let Some(admin) = &args.admin {
        builder = builder.admin(admin.clone());
    }
    let cfg = builder.build().unwrap_or_else(|e| {
        eprintln!("concord-serve: invalid server config: {e}");
        exit(2);
    });
    let server = match Server::bind(&args.listen, cfg, app) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("concord-serve: bind {}: {e}", args.listen);
            exit(1);
        }
    };
    println!(
        "serving {} on {} ({} shards x {} workers, policy {}, admission {} {})",
        args.app,
        server.local_addr(),
        args.shards,
        args.workers,
        args.policy,
        args.admission_cap,
        args.admission_policy.name()
    );
    if let Some(admin) = server.admin_addr() {
        println!("admin on {admin} (/metrics /healthz /statz, POST /trace/dump)");
    }
    // Graceful shutdown on SIGINT/SIGTERM: drain, print the final
    // report, export the trace — same path as --oneshot completion.
    if let Err(e) = concord_net::signal::install_shutdown_handler() {
        eprintln!("concord-serve: signal handler: {e}");
    }
    if args.oneshot {
        // Serve until at least one client connected and all clients have
        // half-closed, then drain and report.
        while (server.accepted() == 0 || server.active_connections() > 0)
            && !concord_net::signal::shutdown_requested()
        {
            std::thread::sleep(Duration::from_millis(20));
        }
    } else {
        // Long-running mode: park the main thread until a signal asks
        // for the drain.
        while !concord_net::signal::shutdown_requested() {
            std::thread::sleep(Duration::from_millis(50));
        }
    }
    if let Some(sig) = concord_net::signal::shutdown_cause() {
        let name = if sig == concord_net::signal::SIGINT {
            "SIGINT"
        } else {
            "SIGTERM"
        };
        println!("{name}: draining...");
    }
    let report = server.shutdown();
    print_report(&report, args.trace.as_deref());
}

fn main() {
    let args = parse_args();
    match args.app.as_str() {
        "spin" => serve(&args, Arc::new(concord_core::SpinApp::new())),
        "kv" => serve(&args, Arc::new(concord_core::KvApp::new())),
        other => {
            eprintln!("concord-serve: invalid --app '{other}' (expected spin|kv)");
            exit(2);
        }
    }
}
