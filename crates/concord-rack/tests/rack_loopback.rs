//! End-to-end rack tests over real sockets.
//!
//! The centerpiece is the kill-and-restart conservation run: two
//! `rack-backend` processes behind an in-process rack, ≥20k requests
//! from four concurrent client connections, one backend SIGKILLed
//! mid-load and restarted on the same port. Afterwards every request
//! must be accounted for exactly — completed, rejected-with-RETRY, or
//! failed — on both the client side (per-id tracking: zero unaccounted,
//! which also rules out cross-connection misdelivery) and the rack side
//! (the conservation identities in `RackReport::check`), and the two
//! sides must agree count-for-count.

#![cfg(target_os = "linux")]

use concord_conformance::{check_rack, RackClientTotals};
use concord_rack::{BackendSpec, Rack, RackConfig};
use concord_server::{ClientConfig, ClientReport};
use concord_workloads::mix;
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
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

/// A rack-backend child process, killed on drop so a failing test does
/// not leak servers.
struct BackendProc {
    child: Child,
}

impl BackendProc {
    fn spawn(listen: &str, admin: &str) -> BackendProc {
        let child = Command::new(env!("CARGO_BIN_EXE_rack-backend"))
            .args([
                "--listen",
                listen,
                "--admin",
                admin,
                "--shards",
                "2",
                "--workers",
                "2",
            ])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn rack-backend");
        BackendProc { child }
    }

    /// SIGKILL: no drain, no goodbye — the mid-load failure mode.
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for BackendProc {
    fn drop(&mut self) {
        self.kill();
    }
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
fn kill_and_restart_preserves_every_request() {
    let data_a = format!("127.0.0.1:{}", reserve_port());
    let admin_a = format!("127.0.0.1:{}", reserve_port());
    let data_b = format!("127.0.0.1:{}", reserve_port());
    let admin_b = format!("127.0.0.1:{}", reserve_port());

    let mut backend_a = BackendProc::spawn(&data_a, &admin_a);
    let _backend_b = BackendProc::spawn(&data_b, &admin_b);
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
    let _backend_a2 = BackendProc::spawn(&data_a, &admin_a);
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

    // Rack side + ledger agreement: the conformance oracle checks the
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
    let _backend = BackendProc::spawn(&data_b, &admin_b);
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
