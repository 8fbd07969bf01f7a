//! End-to-end rack tests over real sockets.
//!
//! The centerpiece is the kill-and-restart conservation run: two
//! backend processes (this binary re-executed, `common`) behind an
//! in-process rack, ≥20k requests from four concurrent client
//! connections, one backend SIGKILLed mid-load and restarted on the
//! same port. Afterwards every request
//! must be accounted for exactly — completed, rejected-with-RETRY, or
//! failed — on both the client side (per-id tracking: zero unaccounted,
//! which also rules out cross-connection misdelivery) and the rack side
//! (the conservation identities in `RackReport::check`), and the two
//! sides must agree count-for-count ([`check_rack`]).

#![cfg(target_os = "linux")]

mod common;

use common::BackendProc;
use concord_rack::{BackendSpec, Rack, RackConfig, RackReport};
use concord_server::{ClientConfig, ClientReport};
use concord_workloads::mix;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Reserves a distinct loopback port by binding ephemeral and dropping
/// the listener. The tiny reuse race is acceptable in tests; the
/// backend's `std` listener has SO_REUSEADDR set anyway.
fn reserve_port() -> u16 {
    let l = TcpListener::bind("127.0.0.1:0").expect("reserve port");
    let port = l.local_addr().expect("addr").port();
    drop(l);
    port
}

/// A backend with an admin plane, 2 shards of 2 workers.
fn spawn_backend(listen: &str, admin: &str) -> BackendProc {
    BackendProc::spawn(listen, Some(admin), 2, 2)
}

fn check(violations: &mut Vec<String>, ok: bool, msg: impl FnOnce() -> String) {
    if !ok {
        violations.push(msg());
    }
}

/// What the rack's clients observed in aggregate, summed across every
/// connection of a loopback run. Callers must have let every client
/// drain (wait for a response to each sent request) before tallying.
#[derive(Clone, Copy, Debug, Default)]
struct RackClientTotals {
    /// Requests written to rack connections.
    sent: u64,
    /// Ok responses received.
    completed: u64,
    /// RETRY responses received (backend admission, rack-local
    /// rejection, or failover — the client cannot tell them apart).
    rejected: u64,
    /// Failed-status responses received.
    failed: u64,
    /// Requests with no response of any kind.
    unaccounted: u64,
}

/// Rack-tier conservation oracle: the front-end balancer's ledger and
/// its clients' ledgers must agree *exactly*, even across backend
/// deaths mid-load.
///
/// 1. **Rack-internal identities** — `requests_in == forwarded +
///    rejected_local` and every forwarded request settled exactly once
///    ([`RackReport::check`]).
/// 2. **Quiescence** — nothing pending at exit, nothing unaccounted on
///    any client (which also rules out cross-connection misdelivery:
///    a response delivered to the wrong connection leaves a hole in
///    the rightful owner's per-id ledger).
/// 3. **Ledger agreement** — Σ client-sent == requests_in, and each
///    client-visible disposition matches the rack counter that
///    produced it (`relayed_ok`/`relayed_failed`; RETRYs pool
///    `relayed_retry + failed_over + rejected_local`).
/// 4. **No silent drops** — `relay_dropped == 0` (clients drained, so
///    no response may have been addressed to a vanished connection)
///    and `orphaned == 0` (no response matched an already-settled
///    request).
fn check_rack(report: &RackReport, clients: &RackClientTotals) -> Vec<String> {
    let mut v = Vec::new();
    if let Err(why) = report.check() {
        v.push(format!("rack: {why}"));
    }
    check(&mut v, report.pending_at_exit == 0, || {
        format!(
            "rack: {} requests still pending at exit",
            report.pending_at_exit
        )
    });
    check(&mut v, clients.unaccounted == 0, || {
        format!(
            "rack clients: {} requests got no response (loss or misdelivery)",
            clients.unaccounted
        )
    });
    check(&mut v, clients.sent == report.requests_in, || {
        format!(
            "rack ledger: clients sent {} but rack decoded {}",
            clients.sent, report.requests_in
        )
    });
    check(&mut v, clients.completed == report.relayed_ok, || {
        format!(
            "rack ledger: clients saw {} Ok but rack relayed {}",
            clients.completed, report.relayed_ok
        )
    });
    check(&mut v, clients.failed == report.relayed_failed, || {
        format!(
            "rack ledger: clients saw {} Failed but rack relayed {}",
            clients.failed, report.relayed_failed
        )
    });
    let retries = report.relayed_retry + report.failed_over + report.rejected_local;
    check(&mut v, clients.rejected == retries, || {
        format!(
            "rack ledger: clients saw {} RETRY but rack produced {} \
             (relayed {} + failed_over {} + rejected_local {})",
            clients.rejected,
            retries,
            report.relayed_retry,
            report.failed_over,
            report.rejected_local
        )
    });
    check(&mut v, report.relay_dropped == 0, || {
        format!(
            "rack: {} responses dropped for vanished clients in a drained run",
            report.relay_dropped
        )
    });
    check(&mut v, report.orphaned == 0, || {
        format!("rack: {} orphaned responses", report.orphaned)
    });
    v
}

fn wait_until(what: &str, timeout: Duration, mut pred: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !pred() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn wait_listening(addr: &str) {
    let addr = addr.to_string();
    wait_until(
        &format!("{addr} to listen"),
        Duration::from_secs(10),
        || TcpStream::connect(&addr).is_ok(),
    );
}

fn run_client(addr: String, requests: u64, rate: f64, seed: u64) -> ClientReport {
    concord_server::client::run(
        &addr,
        &ClientConfig {
            requests,
            rate_rps: rate,
            window: 0,
            seed,
        },
        mix::fixed_1us(),
    )
    .expect("client run")
}

#[test]
fn backend() {
    common::serve_if_asked();
}

#[test]
fn kill_and_restart_preserves_every_request() {
    let data_a = format!("127.0.0.1:{}", reserve_port());
    let admin_a = format!("127.0.0.1:{}", reserve_port());
    let data_b = format!("127.0.0.1:{}", reserve_port());
    let admin_b = format!("127.0.0.1:{}", reserve_port());

    let mut backend_a = spawn_backend(&data_a, &admin_a);
    let _backend_b = spawn_backend(&data_b, &admin_b);
    wait_listening(&data_a);
    wait_listening(&data_b);

    let cfg = RackConfig::builder(vec![
        BackendSpec {
            addr: data_a.clone(),
            admin: Some(admin_a.clone()),
        },
        BackendSpec {
            addr: data_b.clone(),
            admin: Some(admin_b.clone()),
        },
    ])
    .probe_interval(Duration::from_millis(20))
    .stale_after(Duration::from_millis(500))
    .build()
    .expect("rack config");
    let rack = Rack::bind("127.0.0.1:0", cfg).expect("bind rack");
    let rack_addr = rack.local_addr().to_string();
    wait_until("both backends connected", Duration::from_secs(10), || {
        rack.shared().table.iter().all(|b| b.is_connected())
    });

    // 4 connections x 6k requests = 24k total, paced so the run spans a
    // few seconds — long enough to kill and restart a backend inside it.
    const CLIENTS: u64 = 4;
    const PER_CLIENT: u64 = 6_000;
    let clients: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let addr = rack_addr.clone();
            std::thread::spawn(move || run_client(addr, PER_CLIENT, 2_500.0, 1_000 + i))
        })
        .collect();

    // Mid-load: SIGKILL backend A, leave it dead for a moment, restart
    // it on the SAME ports (SO_REUSEADDR makes the rebind immediate).
    std::thread::sleep(Duration::from_millis(800));
    backend_a.kill();
    wait_until("rack to notice the death", Duration::from_secs(5), || {
        !rack.shared().table.get(0).is_connected()
    });
    std::thread::sleep(Duration::from_millis(300));
    let _backend_a2 = spawn_backend(&data_a, &admin_a);
    wait_until(
        "rack to re-adopt backend A",
        Duration::from_secs(10),
        || rack.shared().table.get(0).is_connected(),
    );

    let reports: Vec<ClientReport> = clients
        .into_iter()
        .map(|j| j.join().expect("client thread"))
        .collect();
    let report = rack.shutdown();

    // Client side: every request got exactly one response. A response
    // delivered to the wrong connection would leave a hole in one
    // client's per-id ledger — unaccounted > 0 — and land in the other
    // client's as an unexpected answer, so this is also the
    // zero-misdelivery assertion.
    for (i, r) in reports.iter().enumerate() {
        assert_eq!(r.sent, PER_CLIENT, "client {i} sent everything");
        assert_eq!(
            r.unaccounted(),
            0,
            "client {i} lost responses: {}",
            r.render()
        );
        assert_eq!(r.unexpected, 0, "client {i} misdelivered: {}", r.render());
    }

    // Rack side + ledger agreement: the rack oracle checks the
    // conservation identities, quiescence, and that the client-observed
    // totals match the rack's counters count-for-count.
    let totals = RackClientTotals {
        sent: reports.iter().map(|r| r.sent).sum(),
        completed: reports.iter().map(|r| r.completed).sum(),
        rejected: reports.iter().map(|r| r.rejected).sum(),
        failed: reports.iter().map(|r| r.failed).sum(),
        unaccounted: reports.iter().map(|r| r.unaccounted()).sum(),
    };
    let violations = check_rack(&report, &totals);
    assert!(violations.is_empty(), "rack oracle: {violations:#?}");
    assert_eq!(report.requests_in, CLIENTS * PER_CLIENT);
    assert!(report.protocol_errors == 0, "clean streams end to end");
    assert!(
        report.forwarded > 0 && totals.completed > 0,
        "the rack actually proxied work"
    );
}

#[test]
fn rack_survives_backend_that_never_existed() {
    // One real backend, one that is never up: the rack must route
    // around the hole from the first request.
    let data_b = format!("127.0.0.1:{}", reserve_port());
    let admin_b = format!("127.0.0.1:{}", reserve_port());
    let _backend = spawn_backend(&data_b, &admin_b);
    wait_listening(&data_b);

    let cfg = RackConfig::builder(vec![
        BackendSpec {
            addr: format!("127.0.0.1:{}", reserve_port()), // nobody home
            admin: None,
        },
        BackendSpec {
            addr: data_b,
            admin: Some(admin_b),
        },
    ])
    .probe_interval(Duration::from_millis(20))
    .build()
    .expect("rack config");
    let rack = Rack::bind("127.0.0.1:0", cfg).expect("bind rack");
    let rack_addr = rack.local_addr().to_string();
    wait_until("live backend connected", Duration::from_secs(10), || {
        rack.shared().table.get(1).is_connected()
    });

    let r = run_client(rack_addr, 2_000, 20_000.0, 7);
    assert_eq!(r.unaccounted(), 0, "{}", r.render());
    assert_eq!(r.sent, 2_000);
    assert!(r.completed > 0, "the live backend served");

    let report = rack.shutdown();
    report.check().unwrap_or_else(|why| panic!("{why}"));
    assert_eq!(report.requests_in, 2_000);
}

#[test]
fn rack_oracle_accepts_a_balanced_run_and_names_each_break() {
    let report = RackReport {
        requests_in: 100,
        forwarded: 95,
        rejected_local: 5,
        relayed_ok: 90,
        relayed_failed: 1,
        relayed_retry: 2,
        failed_over: 2,
        relay_dropped: 0,
        orphaned: 0,
        protocol_errors: 0,
        conns_accepted: 4,
        pending_at_exit: 0,
    };
    let clients = RackClientTotals {
        sent: 100,
        completed: 90,
        rejected: 9, // relayed_retry 2 + failed_over 2 + rejected_local 5
        failed: 1,
        unaccounted: 0,
    };
    assert!(check_rack(&report, &clients).is_empty());

    // Each perturbation trips a distinct, named violation.
    let mut r = report;
    r.relayed_ok = 89; // breaks the internal egress identity
    assert!(check_rack(&r, &clients)
        .iter()
        .any(|m| m.contains("egress identity")));

    let mut c = clients;
    c.unaccounted = 1;
    c.completed = 89;
    assert!(check_rack(&report, &c)
        .iter()
        .any(|m| m.contains("no response")));

    let mut c = clients;
    c.rejected = 8;
    assert!(check_rack(&report, &c).iter().any(|m| m.contains("RETRY")));

    let mut r = report;
    r.pending_at_exit = 3;
    r.forwarded += 3;
    r.requests_in += 3;
    let mut c = clients;
    c.sent += 3;
    c.unaccounted = 3;
    let v = check_rack(&r, &c);
    assert!(v.iter().any(|m| m.contains("pending at exit")));
}
