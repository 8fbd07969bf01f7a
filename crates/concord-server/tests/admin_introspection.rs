//! End-to-end introspection-plane test: a live server scraped over its
//! admin listener while (and after) a real TCP client drives load.
//!
//! The load-bearing assertions:
//!
//! - `/metrics` parses as Prometheus text both mid-load and at
//!   quiescence (the snapshot is coherent, not torn mid-render);
//! - at quiescence the *scraped* counters satisfy the conservation law
//!   `Σ ingested == Σ completed + Σ failed` and agree exactly with the
//!   [`ServerReport`] the shutdown path computes independently;
//! - per-class labeled series sum to the global aggregate;
//! - `/statz` is valid JSON whose totals match the scrape, and whose
//!   per-shard depth counts the requests a shard holds;
//! - `POST /trace/dump` yields a non-empty Perfetto document without
//!   stopping the run (a second client load works after the dump).

use concord_core::RuntimeConfig;
use concord_obs::client::fetch;
use concord_obs::expo::{family_sum, parse_scrape};
use concord_obs::json::Json;
use concord_server::{ClientConfig, Server, ServerConfig};
use concord_wire::frame as wire;
use concord_workloads::mix;
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn admin_server() -> Server {
    let runtime = RuntimeConfig::builder()
        .small_test()
        .num_shards(2)
        .trace_retain(Duration::from_secs(60))
        .build()
        .expect("config");
    let cfg = ServerConfig {
        admin: Some("127.0.0.1:0".into()),
        ..ServerConfig::new(runtime)
    };
    Server::bind("127.0.0.1:0", cfg, Arc::new(concord_core::SpinApp::new())).expect("bind")
}

fn get(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
    let (status, body) =
        fetch(addr, "GET", path, Duration::from_secs(5)).unwrap_or_else(|e| panic!("{path}: {e}"));
    (status, String::from_utf8_lossy(&body).into_owned())
}

#[test]
fn scrape_agrees_with_server_report() {
    let server = admin_server();
    let addr = server.local_addr().to_string();
    let admin = server.admin_addr().expect("admin plane configured");

    let (status, health) = get(admin, "/healthz");
    assert_eq!(status, 200);
    let health = Json::parse(&health).expect("healthz JSON");
    assert_eq!(
        health.get("status").and_then(Json::as_str),
        Some("ok"),
        "healthz"
    );

    // Drive load from a scraper thread's point of view: scrape
    // /metrics repeatedly while the client is mid-run. Every
    // intermediate scrape must parse — coherence under live publication
    // is the point of the registry.
    let client_cfg = ClientConfig {
        requests: 4_000,
        rate_rps: 40_000.0,
        ..ClientConfig::default()
    };
    let loader = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            concord_server::client::run(&addr, &client_cfg, mix::bimodal_50_1_50_100())
                .expect("client run")
        })
    };
    let mut live_scrapes = 0;
    while !loader.is_finished() {
        let (status, text) = get(admin, "/metrics");
        assert_eq!(status, 200);
        let samples = parse_scrape(&text).expect("mid-load scrape parses");
        assert!(!samples.is_empty());
        live_scrapes += 1;
        std::thread::sleep(Duration::from_millis(5));
    }
    let client_report = loader.join().expect("loader thread");
    assert!(live_scrapes > 0, "at least one scrape raced the load");
    assert_eq!(client_report.sent, 4_000);

    // Quiescence: the client received every response it is owed, so
    // the server-side conservation law must hold on *scraped* values.
    let (_, text) = get(admin, "/metrics");
    let samples = parse_scrape(&text).expect("quiescent scrape");
    let ingested = family_sum(&samples, "concord_ingested_total");
    let completed = family_sum(&samples, "concord_completed_total");
    let failed = family_sum(&samples, "concord_failed_total");
    assert_eq!(
        ingested,
        completed + failed,
        "scraped conservation: ingested {ingested} completed {completed} failed {failed}\n{text}"
    );
    let admitted = family_sum(&samples, "concord_admission_admitted_total");
    assert_eq!(admitted, ingested, "gate admitted == dispatcher ingested");
    // The transports' series: every response is settled, so nothing is
    // in flight on either shard, and the scrape agrees with the live
    // accessor.
    let io = server.io_stats();
    assert_eq!(family_sum(&samples, "concord_io_in_flight"), 0.0);
    assert_eq!(io.in_flight, 0);
    assert!(
        samples.contains_key("concord_io_in_flight{shard=\"1\"}"),
        "per-shard series missing:\n{text}"
    );
    assert_eq!(family_sum(&samples, "concord_admission_depth"), 0.0);
    // Per-class completions (labeled series) sum to the global counter.
    let class_completed = family_sum(&samples, "concord_class_completed_total");
    assert_eq!(class_completed, completed, "class series sum to total");
    // Sum law on the admission side too: the per-class admitted rows
    // partition the gate total exactly (same fold on every shard).
    let class_admitted = family_sum(&samples, "concord_class_admitted_total");
    assert_eq!(
        class_admitted, admitted,
        "per-class admission rows partition the gate total"
    );
    // Control-plane gauges: every (shard, class) pair exposes its live
    // preemption quantum; with the adaptive controller off they all
    // read the same fixed configured quantum.
    let mut quanta = Vec::new();
    for shard in 0..2 {
        for class in 0..2 {
            let key = format!("concord_class_quantum_ns{{shard=\"{shard}\",class=\"{class}\"}}");
            let v = samples
                .get(&key)
                .copied()
                .unwrap_or_else(|| panic!("missing {key}:\n{text}"));
            assert!(v > 0.0, "{key} must be positive");
            quanta.push(v);
        }
    }
    assert!(
        quanta.windows(2).all(|w| w[0] == w[1]),
        "fixed-quantum server: all class quanta equal, got {quanta:?}"
    );
    // The bimodal mix has two classes; both must appear as labels.
    assert!(
        text.contains("concord_class_completed_total{class=\"0\"}"),
        "class 0 series missing:\n{text}"
    );
    assert!(
        text.contains("concord_class_completed_total{class=\"1\"}"),
        "class 1 series missing:\n{text}"
    );
    // Histogram exposition sanity on a live family: +Inf equals count.
    let soj_count = samples
        .get("concord_sojourn_ns_count")
        .copied()
        .expect("sojourn count");
    let soj_inf = samples
        .get("concord_sojourn_ns_bucket{le=\"+Inf\"}")
        .copied()
        .expect("sojourn +Inf bucket");
    assert_eq!(soj_count, soj_inf);
    // Telemetry records completions *and* contained failures.
    assert_eq!(
        soj_count,
        completed + failed,
        "every completion lands in sojourn"
    );

    // /statz agrees with /metrics.
    let (status, statz) = get(admin, "/statz");
    assert_eq!(status, 200);
    let statz = Json::parse(&statz).expect("statz JSON");
    let totals = statz.get("totals").expect("totals");
    assert_eq!(
        totals.get("ingested").and_then(Json::as_f64),
        Some(ingested)
    );
    assert_eq!(
        totals.get("completed").and_then(Json::as_f64),
        Some(completed)
    );
    // Expiries seen with nobody waiting: one labeled series per shard,
    // and the /statz total is their sum.
    for shard in 0..2 {
        let key = format!("concord_preempt_deferred_total{{shard=\"{shard}\"}}");
        assert!(samples.contains_key(&key), "missing {key}:\n{text}");
    }
    assert_eq!(
        totals.get("expiries_deferred").and_then(Json::as_f64),
        Some(family_sum(&samples, "concord_preempt_deferred_total"))
    );
    let shards = statz.get("shards").and_then(Json::as_arr).expect("shards");
    assert_eq!(shards.len(), 2, "one row per shard");
    let classes = statz
        .get("classes")
        .and_then(Json::as_arr)
        .expect("classes");
    assert_eq!(classes.len(), 2, "one row per request class");
    for row in classes {
        assert!(
            row.get("quantum_us").and_then(Json::as_f64).unwrap_or(0.0) > 0.0,
            "class rows carry the live quantum"
        );
        assert_eq!(
            row.get("slo_blown"),
            Some(&Json::Bool(false)),
            "no SLO budgets configured, nothing blown"
        );
    }

    // Flight-recorder dump mid-run: non-empty Perfetto JSON, and the
    // server keeps serving afterwards (the dump copies, never drains
    // into oblivion).
    let (status, dump) = fetch(admin, "POST", "/trace/dump", Duration::from_secs(10))
        .map(|(s, b)| (s, String::from_utf8_lossy(&b).into_owned()))
        .expect("trace dump");
    assert_eq!(status, 200);
    assert!(
        dump.starts_with("{\"traceEvents\":["),
        "Perfetto shape: {}",
        &dump[..dump.len().min(80)]
    );
    assert!(dump.len() > 200, "dump should carry real events");
    let after_dump = concord_server::client::run(
        &addr,
        &ClientConfig {
            requests: 500,
            ..ClientConfig::default()
        },
        mix::fixed_1us(),
    )
    .expect("post-dump load");
    assert_eq!(after_dump.sent, 500);

    // The shutdown report is computed from the runtime directly; the
    // last scrape (taken before the extra 500-request run) plus the
    // final one must agree with it.
    let (_, text) = get(admin, "/metrics");
    let samples = parse_scrape(&text).expect("final scrape");
    let final_ingested = family_sum(&samples, "concord_ingested_total");
    let report = server.shutdown();
    assert_eq!(
        final_ingested,
        report.rollup.total_ingested() as f64,
        "scrape vs report ingested"
    );
    let report_admitted: u64 = report
        .admission_per_shard
        .iter()
        .map(|a| a.admitted.load(std::sync::atomic::Ordering::Relaxed))
        .sum();
    assert_eq!(
        family_sum(&samples, "concord_admission_admitted_total"),
        report_admitted as f64,
        "scrape vs report admission"
    );
    assert!(report.rollup.conservation_holds());
}

#[test]
fn admin_listener_is_optional_and_routes_are_guarded() {
    // No admin config: no listener, no admin_addr.
    let runtime = RuntimeConfig::builder().small_test().build().expect("cfg");
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig::new(runtime),
        Arc::new(concord_core::SpinApp::new()),
    )
    .expect("bind");
    assert!(server.admin_addr().is_none());
    server.shutdown();

    // With an admin plane: unknown routes 404, GET on the dump 405.
    let server = admin_server();
    let admin = server.admin_addr().expect("admin");
    assert_eq!(get(admin, "/nope").0, 404);
    assert_eq!(get(admin, "/trace/dump").0, 405);
    // Query strings are ignored for routing.
    assert_eq!(get(admin, "/healthz?verbose=1").0, 200);
    server.shutdown();
}

/// Σ `/statz` `depth` over the shards.
fn statz_depth(admin: std::net::SocketAddr) -> f64 {
    let (status, statz) = get(admin, "/statz");
    assert_eq!(status, 200);
    let statz = Json::parse(&statz).expect("statz JSON");
    statz
        .get("shards")
        .and_then(Json::as_arr)
        .expect("shards")
        .iter()
        .map(|row| row.get("depth").and_then(Json::as_f64).expect("depth"))
        .sum()
}

/// A server with `shards` shards of one worker each and an admin plane.
fn one_worker_shards(shards: usize) -> Server {
    let runtime = RuntimeConfig::builder()
        .workers(1)
        .num_shards(shards)
        .quantum(Duration::from_micros(100))
        .build()
        .expect("config");
    let cfg = ServerConfig {
        admin: Some("127.0.0.1:0".into()),
        ..ServerConfig::new(runtime)
    };
    Server::bind("127.0.0.1:0", cfg, Arc::new(concord_core::SpinApp::new())).expect("bind")
}

/// `/statz` depth is what a shard holds — its admission backlog, the
/// requests its workers run, and the ones a sibling stole — not the
/// gate alone, which the dispatcher empties every pass: the rack
/// balances on this sample. A stolen request is ingested on one shard
/// and finished on another; once every answer is back, Σ depth is 0
/// again however many were stolen.
#[test]
fn statz_depth_counts_the_requests_a_shard_holds() {
    let server = one_worker_shards(1);
    let admin = server.admin_addr().expect("admin plane configured");
    // Ten 50 ms requests on one worker: half a second of work held.
    const HELD: u64 = 10;
    let mut conn = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    let mut frames = Vec::new();
    for id in 0..HELD {
        wire::encode_request(&mut frames, id, 0, 50_000_000, &[]);
    }
    conn.write_all(&frames).expect("send requests");
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.io_stats().in_flight < HELD {
        assert!(Instant::now() < deadline, "never held them all");
        std::thread::sleep(Duration::from_millis(1));
    }
    let depth = statz_depth(admin);
    assert!(
        depth >= 8.0,
        "a shard holding {HELD} requests reports depth {depth}"
    );
    drop(conn);
    server.shutdown();

    let server = one_worker_shards(2);
    let admin = server.admin_addr().expect("admin plane configured");
    // One connection, so one shard owns all the traffic; 2 ms requests
    // saturate its worker and the other shard steals.
    let client_cfg = ClientConfig {
        requests: 300,
        window: 16,
        ..ClientConfig::default()
    };
    let heavy = mix::Mix::new(
        "Fixed(2000)",
        vec![mix::ClassSpec::new(
            "req",
            1.0,
            concord_workloads::dist::Dist::fixed_us(2_000.0),
        )],
    );
    let report = concord_server::client::run(&server.local_addr().to_string(), &client_cfg, heavy)
        .expect("client run");
    assert_eq!(report.unaccounted(), 0);
    assert!(server.rollup().total_steals() > 0, "no steal to check");
    let deadline = Instant::now() + Duration::from_secs(2);
    let mut depth = statz_depth(admin);
    while depth != 0.0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
        depth = statz_depth(admin);
    }
    assert_eq!(depth, 0.0, "depth left behind by stolen requests");
    server.shutdown();
}
