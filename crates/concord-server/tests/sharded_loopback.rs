//! Sharded-server end-to-end: M connections placed over N scheduler
//! shards through real loopback TCP, checked against the cross-shard
//! conservation oracle, per-shard JBSQ bounds from the merged trace, and
//! — with one connection on two shards — a live cross-shard hand-off.

use concord_core::admission::{AdmissionConfig, AdmissionPolicy};
use concord_core::trace::TraceSummary;
use concord_core::{RuntimeConfig, SpinApp};
use concord_server::client::{self, ClientConfig};
use concord_server::{Server, ServerConfig};
use concord_wire::frame::{self as wire, Frame};
use concord_workloads::dist::Dist;
use concord_workloads::mix::{ClassSpec, Mix};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

const JBSQ_K: usize = 2;

fn start_server(shards: usize, workers: usize) -> Server {
    Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            admission: AdmissionConfig {
                capacity: 4096,
                policy: AdmissionPolicy::RejectNewest,
            },
            ..ServerConfig::new(
                RuntimeConfig::builder()
                    .workers(workers)
                    .num_shards(shards)
                    .jbsq_depth(JBSQ_K)
                    .quantum(Duration::from_micros(100))
                    .build()
                    .expect("valid config"),
            )
        },
        Arc::new(SpinApp::new()),
    )
    .expect("bind loopback")
}

fn fixed_us_mix(us: f64) -> Mix {
    Mix::new(
        format!("Fixed({us})"),
        vec![ClassSpec::new("req", 1.0, Dist::fixed_us(us))],
    )
}

/// `conns` concurrent closed-loop clients, each sending `per_conn`
/// requests; returns `(sent, completed, rejected, failed, unaccounted,
/// unexpected)` totals (an unexpected answer is a duplicate or an id
/// never sent).
fn run_clients(
    addr: &str,
    conns: usize,
    per_conn: u64,
    window: usize,
    service_us: f64,
) -> (u64, u64, u64, u64, u64, u64) {
    let threads: Vec<_> = (0..conns)
        .map(|c| {
            let addr = addr.to_string();
            std::thread::spawn(move || {
                client::run(
                    &addr,
                    &ClientConfig {
                        requests: per_conn,
                        // Ignored in closed loop, but must be positive.
                        rate_rps: 50_000.0,
                        window,
                        seed: 100 + c as u64,
                    },
                    fixed_us_mix(service_us),
                )
                .expect("client run")
            })
        })
        .collect();
    let mut totals = (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    for t in threads {
        let r = t.join().expect("client thread");
        totals.0 += r.sent;
        totals.1 += r.completed;
        totals.2 += r.rejected;
        totals.3 += r.failed;
        totals.4 += r.unaccounted();
        totals.5 += r.unexpected;
    }
    totals
}

#[test]
fn two_shard_loopback_conserves_twenty_thousand_requests() {
    const CONNS: usize = 8;
    const PER_CONN: u64 = 2_500; // 20k total

    let server = start_server(2, 2);
    let addr = server.local_addr().to_string();
    let (sent, completed, rejected, failed, unaccounted, unexpected) =
        run_clients(&addr, CONNS, PER_CONN, 32, 5.0);
    assert_eq!(sent, CONNS as u64 * PER_CONN);
    assert_eq!(unaccounted, 0, "every request has a named fate");
    assert_eq!(unexpected, 0, "no duplicate or unknown answer");
    assert_eq!(failed, 0);
    assert_eq!(completed + rejected, sent);

    let report = server.shutdown();
    assert_eq!(report.orphaned_responses, 0);
    assert_eq!(report.protocol_errors, 0);
    // Two dispatchers answered into their shards' ledgers; both closed
    // at zero.
    assert_eq!(report.io.in_flight, 0);

    // Cross-shard conservation: everything the shards ingested came out
    // as a completion or a contained failure, summed over shards.
    assert!(
        report.rollup.conservation_holds(),
        "cross-shard conservation violated: {:?}",
        report.rollup
    );
    // The gates and the shards agree: what the gates admitted is what
    // the dispatchers ingested.
    let admitted: u64 = report
        .admission_per_shard
        .iter()
        .map(|a| a.admitted.load(std::sync::atomic::Ordering::Relaxed))
        .sum();
    assert_eq!(report.rollup.total_ingested(), admitted);
    // What the clients saw is what the shards did.
    assert_eq!(report.rollup.total_completed(), completed);

    // Least-connections placement spread the connections: no shard sat
    // idle.
    for (i, s) in report.rollup.per_shard.iter().enumerate() {
        assert!(
            s.ingested > 0,
            "shard {i} never ingested: {:?}",
            report.rollup
        );
    }

    // Per-shard invariants from the merged trace: event monotonicity,
    // signal/yield matching, and JBSQ <= k inside every shard.
    let trace = report.trace.as_ref().expect("tracing armed");
    let summary = TraceSummary::from_trace(trace);
    assert_eq!(summary.n_shards, 2);
    let violations = summary.check(Some(JBSQ_K as u32));
    assert!(violations.is_empty(), "trace violations: {violations:?}");
}

#[test]
fn two_connections_on_two_shards_are_placed_one_per_shard() {
    const PER_CONN: u64 = 100;
    let server = start_server(2, 1);
    let mut conns: Vec<TcpStream> = (0..2)
        .map(|_| TcpStream::connect(server.local_addr()).expect("connect"))
        .collect();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.accepted() < 2 {
        assert!(std::time::Instant::now() < deadline, "never accepted both");
        std::thread::sleep(Duration::from_millis(1));
    }
    for conn in &mut conns {
        let mut frames = Vec::new();
        for id in 0..PER_CONN {
            wire::encode_request(&mut frames, id, 0, 10_000, &[]);
        }
        conn.write_all(&frames).expect("send requests");
        conn.shutdown(std::net::Shutdown::Write)
            .expect("half-close");
    }
    for conn in &mut conns {
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("set timeout");
        let mut buf = Vec::new();
        conn.read_to_end(&mut buf).expect("server closes");
        let (mut answers, mut at) = (0, 0);
        while let Ok(Some((Frame::Response(rf), used))) = wire::decode(&buf[at..]) {
            assert_eq!(rf.status, wire::Status::Ok);
            answers += 1;
            at += used;
        }
        assert_eq!(answers, PER_CONN, "every request answered");
    }
    let report = server.shutdown();
    // Each shard's gate saw exactly one connection's requests, and each
    // dispatcher ingested them.
    for (shard, gate) in report.admission_per_shard.iter().enumerate() {
        assert_eq!(
            gate.admitted.load(Ordering::Relaxed),
            PER_CONN,
            "shard {shard}: {:?}",
            report.rollup
        );
        assert!(report.rollup.per_shard[shard].ingested > 0);
    }
    assert!(report.rollup.conservation_holds());
    assert_eq!(report.io.in_flight, 0);
}

#[test]
fn one_connection_on_two_shards_drives_inter_shard_steals() {
    const PER_CONN: u64 = 600;

    // One connection, so one shard owns all the traffic; one worker per
    // shard and 2 ms requests: the idle shard asks, the saturated owner
    // gives it never-started work, and the idle shard runs it and
    // answers it back through the owner.
    let server = start_server(2, 1);
    let addr = server.local_addr().to_string();
    let (sent, completed, rejected, failed, unaccounted, unexpected) =
        run_clients(&addr, 1, PER_CONN, 16, 2_000.0);
    assert_eq!(sent, PER_CONN);
    // Every request answered exactly once.
    assert_eq!(unaccounted, 0);
    assert_eq!(unexpected, 0);
    assert_eq!(failed, 0);
    assert_eq!(completed + rejected, sent);

    let report = server.shutdown();
    assert_eq!(report.orphaned_responses, 0);
    assert!(
        report.rollup.conservation_holds(),
        "cross-shard conservation violated: {:?}",
        report.rollup
    );
    assert_eq!(report.io.in_flight, 0);
    // One shard ingested everything...
    let owner = usize::from(report.rollup.per_shard[0].ingested == 0);
    let thief = 1 - owner;
    assert_eq!(
        report.admission_per_shard[thief]
            .admitted
            .load(Ordering::Relaxed),
        0
    );
    assert_eq!(report.rollup.per_shard[thief].ingested, 0);
    // ...and the hand-off moved work: the other shard completed
    // requests it never ingested, every hand-off given was taken, and
    // each shard's books balance.
    let (o, t) = (
        &report.rollup.per_shard[owner],
        &report.rollup.per_shard[thief],
    );
    assert!(
        t.completed > 0,
        "idle shard ran nothing: {:?}",
        report.rollup
    );
    assert_eq!(o.offloaded + t.offloaded, o.steals_in + t.steals_in);
    assert!(
        o.books_balance() && t.books_balance(),
        "{:?}",
        report.rollup
    );
    // The merged trace tells the same story as the counters.
    let trace = report.trace.as_ref().expect("tracing armed");
    let summary = TraceSummary::from_trace(trace);
    assert_eq!(
        summary.total_steals(),
        report.rollup.total_steals(),
        "trace/counter steal disagreement"
    );
}
