//! End-to-end conformance over real loopback TCP: the conservation law
//! (`sent == completed + rejected + counted drops`), admission-counter
//! balance, and trace/counter agreement — the same invariants the
//! in-process conformance harness checks, now across the wire.

use concord_core::admission::{AdmissionConfig, AdmissionPolicy};
use concord_core::fault::FaultInjector;
use concord_core::trace::EventKind;
use concord_core::{RuntimeConfig, SpinApp};
use concord_server::client::{self, ClientConfig};
use concord_server::{Server, ServerConfig, ServerReport};
use concord_wire::frame::{self as wire, Frame, Status};
use concord_workloads::mix;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn server_config(capacity: usize, workers: usize) -> ServerConfig {
    let runtime = RuntimeConfig::builder()
        .workers(workers)
        .quantum(Duration::from_micros(100))
        .build()
        .expect("valid config");
    ServerConfig {
        admission: AdmissionConfig {
            capacity,
            policy: AdmissionPolicy::RejectNewest,
        },
        ..ServerConfig::new(runtime)
    }
}

fn start_server(capacity: usize, workers: usize) -> Server {
    Server::bind(
        "127.0.0.1:0",
        server_config(capacity, workers),
        Arc::new(SpinApp::new()),
    )
    .expect("bind loopback")
}

fn stat(report: &ServerReport, name: &str) -> u64 {
    let rows: HashMap<String, u64> = report.stats.snapshot().into_iter().collect();
    rows.get(name).copied().unwrap_or_else(|| {
        panic!("missing stats row {name}");
    })
}

/// Shared assertions: every request the client wrote is accounted for
/// somewhere — completed, rejected at the gate, or in a named server
/// drop counter. Nothing vanishes silently.
fn assert_conservation(report: &ServerReport, sent: u64, completed: u64, rejected: u64) {
    assert_eq!(report.protocol_errors, 0, "clean frames only");
    // However each request left — answered, shed, dropped — it left the
    // shard's in-flight ledger too.
    assert_eq!(report.io.in_flight, 0, "io ledger closes at zero");

    // Everything the client sent reached the admission gate.
    assert_eq!(report.admission.offered(), sent, "gate saw every frame");

    // Gate balance: offered splits exactly into admitted + shed.
    let rows: HashMap<String, u64> = report.admission.snapshot_rows().into_iter().collect();
    let admitted = rows["admit_admitted"];
    assert_eq!(
        admitted + report.admission.shed(),
        report.admission.offered(),
        "admission counters balance"
    );

    // Runtime conservation: every admitted request was ingested and then
    // completed, failed, or dropped at the egress.
    assert_eq!(
        stat(report, "ingested"),
        admitted,
        "dispatcher drained the gate"
    );
    let runtime_completed = stat(report, "worker_completed") + stat(report, "dispatcher_completed");
    assert_eq!(
        runtime_completed + stat(report, "failed"),
        admitted,
        "runtime completed everything it admitted"
    );

    // Client-side conservation: responses observed match server emission
    // minus the counted losses.
    assert_eq!(
        completed + stat(report, "tx_dropped") + report.orphaned_responses,
        runtime_completed,
        "every emitted response is observed or counted"
    );

    // Every shed at the gate is answered RETRY (observed by the client).
    // A RETRY that found the connection's outbox full is counted in
    // `retries_dropped`, so the rejection ledger still balances exactly.
    assert_eq!(
        rejected + report.retries_dropped,
        report.admission.shed(),
        "every reject was answered or counted"
    );
    assert_eq!(
        sent,
        completed
            + rejected
            + report.retries_dropped
            + stat(report, "tx_dropped")
            + report.orphaned_responses
            + stat(report, "failed"),
        "conservation: sent == completed + rejected + counted drops"
    );
}

/// Trace/counter agreement: the ADMIT_DROP instants recorded by the
/// dispatcher match the gate's shed counters one-for-one, both by direct
/// count and through the conformance crate's admission oracle.
fn assert_trace_agreement(report: &ServerReport) {
    let trace = report.trace.as_ref().expect("tracing is on by default");
    let admit_drops = trace
        .records
        .iter()
        .filter(|r| r.ev.kind() == EventKind::AdmitDrop)
        .count() as u64;
    assert_eq!(
        admit_drops,
        report.admission.shed(),
        "one ADMIT_DROP trace event per shed request"
    );
    let summary = concord_core::trace::TraceSummary::from_trace(trace);
    let violations = concord_conformance::check_admission(&report.admission, Some(&summary));
    assert!(violations.is_empty(), "admission oracle: {violations:?}");
}

#[test]
fn loopback_zero_loss_below_admission_threshold() {
    let server = start_server(4096, 2);
    let addr = server.local_addr().to_string();
    let report = client::run(
        &addr,
        &ClientConfig {
            requests: 1_000,
            rate_rps: 20_000.0,
            window: 0,
            seed: 7,
        },
        mix::fixed_1us(),
    )
    .expect("client run");
    let server_report = server.shutdown();

    assert_eq!(report.sent, 1_000);
    assert_eq!(report.unaccounted(), 0, "zero silent loss below threshold");
    assert_eq!(report.completed, 1_000, "nothing rejected at 2% load");
    assert!(
        !report.tally.slowdown.is_empty(),
        "slowdown percentiles populated"
    );
    assert_conservation(
        &server_report,
        report.sent,
        report.completed,
        report.rejected,
    );
    assert_trace_agreement(&server_report);
}

#[test]
fn loopback_closed_loop_completes_everything() {
    let server = start_server(4096, 1);
    let addr = server.local_addr().to_string();
    let report = client::run(
        &addr,
        &ClientConfig {
            requests: 500,
            rate_rps: 1_000_000.0, // schedule is irrelevant in closed loop
            window: 16,
            seed: 11,
        },
        mix::bimodal_50_1_50_100(),
    )
    .expect("client run");
    let server_report = server.shutdown();

    // A closed loop can never overrun a 4096-deep gate with window 16.
    assert_eq!(report.completed, 500);
    assert_eq!(report.rejected, 0);
    assert_eq!(report.unaccounted(), 0);
    assert_conservation(
        &server_report,
        report.sent,
        report.completed,
        report.rejected,
    );
    assert_trace_agreement(&server_report);
}

#[test]
fn overload_rejects_are_answered_not_lost() {
    // One slow worker (50/100µs bimodal), a 4-deep gate, and an open
    // loop far beyond capacity: most requests must be turned away — and
    // every one of them must come back as RETRY, not silence.
    let server = start_server(4, 1);
    let addr = server.local_addr().to_string();
    let report = client::run(
        &addr,
        &ClientConfig {
            requests: 2_000,
            rate_rps: 100_000.0,
            window: 0,
            seed: 13,
        },
        mix::bimodal_50_1_50_100(),
    )
    .expect("client run");
    let server_report = server.shutdown();

    assert!(report.rejected > 0, "overload must shed at the gate");
    assert_eq!(report.unaccounted(), 0, "rejects are answered, not dropped");
    assert_conservation(
        &server_report,
        report.sent,
        report.completed,
        report.rejected,
    );
    assert_trace_agreement(&server_report);
}

#[test]
fn graceful_shutdown_while_idle_reports_cleanly() {
    let server = start_server(64, 1);
    let report = server.shutdown();
    assert_eq!(report.accepted, 0);
    assert_eq!(report.admission.offered(), 0);
    assert_eq!(report.orphaned_responses, 0);
}

/// Decodes every complete frame in `buf`, returning `(ok, retry)`
/// response counts.
fn count_responses(buf: &[u8]) -> (u64, u64) {
    let (mut ok, mut retry) = (0u64, 0u64);
    let mut at = 0usize;
    while let Ok(Some((frame, used))) = wire::decode(&buf[at..]) {
        at += used;
        match frame {
            Frame::Response(rf) if rf.status == Status::Retry => retry += 1,
            Frame::Response(_) => ok += 1,
            Frame::Request(_) => panic!("server sent a request frame"),
        }
    }
    assert_eq!(at, buf.len(), "trailing partial frame from the server");
    (ok, retry)
}

/// Regression (slot + writer leak under backpressure): a response dropped
/// at the egress must still settle the connection's owed book. Pre-fix,
/// the dispatcher counted `tx_dropped` but never told the connection, so
/// the owed count stayed positive forever, the connection could never
/// retire, and its slot + writer leaked until the shutdown grace hammer.
/// This test force-drops three responses via the deterministic fault
/// injector and proves the connection still retires on its own.
#[test]
fn backpressure_drop_settles_the_owed_book() {
    const REQS: u64 = 10;
    const DROPS: u64 = 3;
    let inj = Arc::new(FaultInjector::new());
    inj.reject_next_tx(DROPS);
    let runtime = RuntimeConfig::builder()
        .workers(1)
        .quantum(Duration::from_micros(100))
        .fault_injector(inj.clone())
        .build()
        .expect("valid config");
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            admission: AdmissionConfig {
                capacity: 4096,
                policy: AdmissionPolicy::RejectNewest,
            },
            ..ServerConfig::new(runtime)
        },
        Arc::new(SpinApp::new()),
    )
    .expect("bind loopback");

    let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
    conn.set_nodelay(true).expect("nodelay");
    let mut frames = Vec::new();
    for id in 0..REQS {
        wire::encode_request(&mut frames, id, 0, 1_000, &[]);
    }
    conn.write_all(&frames).expect("send requests");
    conn.shutdown(std::net::Shutdown::Write)
        .expect("half-close");

    // Exactly REQS - DROPS responses arrive; then the server must close
    // the connection itself (owed book fully settled => retirement).
    // Pre-fix this read never sees EOF: the server waits forever for the
    // three responses it already dropped.
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match conn.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => panic!("connection never retired after tx drops: {e}"),
        }
    }
    let (ok, retry) = count_responses(&buf);
    assert_eq!(retry, 0);
    assert_eq!(ok, REQS - DROPS, "dropped responses stay dropped");

    // The slot comes home without the shutdown grace hammer.
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.live_slots() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        server.live_slots(),
        0,
        "tx-dropped responses must settle the owed book"
    );

    let server_report = server.shutdown();
    assert_eq!(inj.tx_rejected(), DROPS);
    assert_eq!(stat(&server_report, "tx_dropped"), DROPS);
    assert_conservation(&server_report, REQS, ok, 0);
    assert_trace_agreement(&server_report);
}

/// Regression (silently vanished RETRYs): when a reject's RETRY frame
/// finds the connection's outbox full, the loss must be counted in
/// `retries_dropped` — pre-fix the enqueue result was discarded
/// (`let _ = writer.enqueue(out)`) and the rejection ledger could not
/// balance. A 1-deep gate, a 2-frame outbox, and a single burst decoded
/// in large read batches guarantee many more rejects than outbox slots
/// between flushes.
#[test]
fn full_outbox_retry_drops_are_counted() {
    const REQS: u64 = 4_000;
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            outbox_cap: 2,
            ..server_config(1, 1)
        },
        Arc::new(SpinApp::new()),
    )
    .expect("bind loopback");

    let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
    conn.set_nodelay(true).expect("nodelay");
    let mut frames = Vec::new();
    for id in 0..REQS {
        wire::encode_request(&mut frames, id, 0, 1_000_000, &[]);
    }
    conn.write_all(&frames).expect("send burst");
    conn.shutdown(std::net::Shutdown::Write)
        .expect("half-close");

    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set timeout");
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match conn.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => panic!("connection never drained/retired: {e}"),
        }
    }
    let (ok, retry) = count_responses(&buf);

    let server_report = server.shutdown();
    assert!(
        server_report.retries_dropped > 0,
        "a 2-frame outbox cannot hold a burst of rejects"
    );
    // The ledger balances exactly: every shed request either reached the
    // client as a RETRY or is in the retries_dropped counter.
    let rows: HashMap<String, u64> = server_report
        .admission
        .snapshot_rows()
        .into_iter()
        .collect();
    assert_eq!(
        retry + server_report.retries_dropped,
        rows["admit_rejected"]
    );
    assert_conservation(&server_report, REQS, ok, retry);
    assert_trace_agreement(&server_report);
}
