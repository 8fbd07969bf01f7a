//! The multi-tenant class plane over real loopback TCP: class bits
//! survive the full client → gate → scheduler → response path (including
//! the fold boundary at `MAX_TRACKED_CLASSES`), the server's per-class
//! ledgers agree with the client's own per-class tallies, and a class
//! blowing its p99 SLO budget is shed with RETRY while other classes
//! keep completing.

use concord_core::admission::{AdmissionConfig, AdmissionPolicy};
use concord_core::telemetry::OTHER_CLASS;
use concord_core::{RuntimeConfig, SpinApp};
use concord_server::{Server, ServerConfig};
use concord_wire::frame::{self as wire, Frame, Status};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// Sends `frames` on a fresh connection, half-closes, and reads to EOF,
/// tallying `(ok, retry)` responses per *echoed* class.
fn exchange(addr: &str, frames: &[u8]) -> BTreeMap<u16, (u64, u64)> {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_nodelay(true).expect("nodelay");
    conn.write_all(frames).expect("send");
    conn.shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match conn.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => panic!("connection never drained: {e}"),
        }
    }
    let mut by_class: BTreeMap<u16, (u64, u64)> = BTreeMap::new();
    let mut at = 0usize;
    while let Ok(Some((frame, used))) = wire::decode(&buf[at..]) {
        at += used;
        let Frame::Response(rf) = frame else {
            panic!("server sent a request frame");
        };
        let e = by_class.entry(rf.class).or_default();
        if rf.status == Status::Retry {
            e.1 += 1;
        } else {
            e.0 += 1;
        }
    }
    assert_eq!(at, buf.len(), "trailing partial frame");
    by_class
}

/// Per-class ledger agreement across the wire: the client's per-class
/// response tallies match the gate's per-class admission counters and
/// the runtime's per-class completion telemetry — with classes at or
/// above the tracking bound folding into the overflow row server-side
/// while their *responses* still echo the original class bits.
#[test]
fn per_class_server_ledgers_match_client_tallies() {
    let runtime = RuntimeConfig::builder()
        .workers(2)
        .quantum(Duration::from_micros(100))
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
    let addr = server.local_addr().to_string();

    // Class 0, the last individually-tracked class (31), and a folded
    // class (40 ≥ MAX_TRACKED_CLASSES) — interleaved.
    const PER_CLASS: u64 = 120;
    let mut frames = Vec::new();
    let mut id = 0u64;
    for i in 0..PER_CLASS {
        for class in [0u16, 31, 40] {
            wire::encode_request(&mut frames, id, class, 1_000 + (i % 3) * 500, &[]);
            id += 1;
        }
    }
    let by_class = exchange(&addr, &frames);
    let report = server.shutdown();

    // Responses echo the classes the client sent, nothing shed at 2%
    // load, every request answered.
    assert_eq!(
        by_class.keys().copied().collect::<Vec<_>>(),
        vec![0, 31, 40]
    );
    for (class, (ok, retry)) in &by_class {
        assert_eq!(*ok, PER_CLASS, "class {class} completions");
        assert_eq!(*retry, 0, "class {class} retries");
    }

    // Gate ledger: keyed by the *folded* class — 40 lands in the
    // overflow row — and admitted counts match the client's tallies.
    let gate = report.admission.per_class();
    assert_eq!(gate[&0].admitted, PER_CLASS);
    assert_eq!(gate[&31].admitted, PER_CLASS);
    assert!(!gate.contains_key(&40), "class 40 must fold server-side");
    assert_eq!(gate[&OTHER_CLASS].admitted, PER_CLASS);

    // Completion ledger: per-class telemetry rows agree, same fold.
    let telem: BTreeMap<u16, u64> = report
        .telemetry
        .per_class
        .iter()
        .map(|(c, t)| (*c, t.completed))
        .collect();
    assert_eq!(telem[&0], PER_CLASS);
    assert_eq!(telem[&31], PER_CLASS);
    assert_eq!(telem[&OTHER_CLASS], PER_CLASS);

    // Ingest-side per-class stats rows use the same fold.
    let rows: BTreeMap<String, u64> = report.stats.snapshot().into_iter().collect();
    assert_eq!(rows["ingested_class0"], PER_CLASS);
    assert_eq!(rows["ingested_class31"], PER_CLASS);
    assert_eq!(rows["ingested_class_other"], PER_CLASS);
}

/// SLO-aware shedding end to end: a heavy class blows its p99 sojourn
/// budget, the controller marks it blown, and the gate answers its later
/// arrivals with RETRY — while the cheap class keeps being admitted and
/// completing. The shed is visible in the per-class admission ledger and
/// never touches the in-budget class.
#[test]
fn blown_class_is_shed_with_retry_while_cheap_class_completes() {
    let runtime = RuntimeConfig::builder()
        .workers(1)
        .quantum(Duration::from_micros(100))
        // Class 1 owes a 200µs p99; the controller re-judges every 50ms
        // (slow enough that the blown verdict outlives this test's
        // second phase — the sketch needs several intervals to decay).
        .slo_budget(1, 200)
        .quantum_control_interval(Duration::from_millis(50))
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
    let addr = server.local_addr().to_string();

    // Phase 1: a burst of 1ms class-1 spins on one worker. Queueing
    // drives their sojourns to tens of milliseconds — far over the
    // 200µs budget — so the first control interval flags the class.
    let mut frames = Vec::new();
    for id in 0..30u64 {
        wire::encode_request(&mut frames, id, 1, 1_000_000, &[]);
    }
    let phase1 = exchange(&addr, &frames);
    assert_eq!(phase1[&1].0, 30, "phase 1 runs before any verdict");

    // Give the controller one interval boundary to judge the burst.
    std::thread::sleep(Duration::from_millis(120));

    // Phase 2: the blown class is turned away with RETRY; class 0 keeps
    // flowing untouched.
    let mut frames = Vec::new();
    let mut id = 100u64;
    for _ in 0..20 {
        wire::encode_request(&mut frames, id, 1, 1_000_000, &[]);
        id += 1;
        wire::encode_request(&mut frames, id, 0, 1_000, &[]);
        id += 1;
    }
    let phase2 = exchange(&addr, &frames);
    let report = server.shutdown();

    let (ok0, retry0) = phase2[&0];
    let (ok1, retry1) = phase2[&1];
    assert_eq!(ok0, 20, "in-budget class completes everything");
    assert_eq!(retry0, 0, "in-budget class is never SLO-shed");
    assert!(retry1 > 0, "blown class must see RETRYs");
    assert_eq!(ok1 + retry1, 20, "blown class fully answered, not dropped");

    let gate = report.admission.per_class();
    assert_eq!(gate[&1].slo_shed, retry1, "shed ledger matches the wire");
    assert_eq!(gate[&0].slo_shed, 0);
    assert_eq!(
        report
            .admission
            .slo_shed
            .load(std::sync::atomic::Ordering::Relaxed),
        retry1
    );
    // Gate balance still holds with the new outcome in the ledger.
    assert_eq!(
        report.admission.offered(),
        report
            .admission
            .admitted
            .load(std::sync::atomic::Ordering::Relaxed)
            + report.admission.shed()
    );
    // So does the conformance oracle, whose per-class shed counts the
    // SLO sheds too.
    let violations = concord_conformance::check_admission(&report.admission, None);
    assert!(violations.is_empty(), "admission oracle: {violations:?}");
}
