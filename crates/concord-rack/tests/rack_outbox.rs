//! The rack's client outbox bound: a client that sends requests and
//! never reads is cut loose once `outbox_cap` answers wait for it, and
//! every answer it can no longer receive is counted in `relay_dropped`,
//! so the conservation identities still hold at shutdown.
//!
//! The backend is scripted: it answers every forwarded request in one
//! write, so all the answers reach the rack in one read and overflow the
//! client's outbox there, before the rack writes any of them out.

#![cfg(target_os = "linux")]

use concord_rack::{BackendSpec, Rack, RackConfig};
use concord_wire::frame::{self as wire, Frame, ResponseFrame, Status};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

const REQUESTS: u64 = 64;
const OUTBOX_CAP: usize = 2;

fn wait_until(what: &str, mut pred: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !pred() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Reads `n` request frames off `upstream`; their (rewritten) ids.
fn read_requests(upstream: &mut TcpStream, n: usize) -> Vec<u64> {
    upstream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let (mut buf, mut ids, mut chunk) = (Vec::new(), Vec::new(), [0u8; 4096]);
    while ids.len() < n {
        let got = upstream.read(&mut chunk).expect("forwarded requests");
        assert!(got > 0, "the rack closed its backend connection");
        buf.extend_from_slice(&chunk[..got]);
        let mut at = 0;
        while let Ok(Some((Frame::Request(rf), used))) = wire::decode(&buf[at..]) {
            ids.push(rf.id);
            at += used;
        }
        buf.drain(..at);
    }
    ids
}

#[test]
fn a_client_that_never_reads_is_cut_loose_and_its_answers_counted() {
    let backend = TcpListener::bind("127.0.0.1:0").expect("bind backend");
    let cfg = RackConfig::builder(vec![BackendSpec {
        addr: backend.local_addr().expect("addr").to_string(),
        admin: None,
    }])
    .outbox_cap(OUTBOX_CAP)
    .probe_interval(Duration::from_millis(20))
    .build()
    .expect("rack config");
    let rack = Rack::bind("127.0.0.1:0", cfg).expect("bind rack");
    // The prober's connection is the rack's backend connection.
    let (mut upstream, _) = backend.accept().expect("rack connects");
    wait_until("backend adopted", || {
        rack.shared().table.get(0).is_connected()
    });

    let mut client = TcpStream::connect(rack.local_addr()).expect("connect");
    let mut batch = Vec::new();
    for id in 0..REQUESTS {
        wire::encode_request(&mut batch, id, 0, 1_000, &[]);
    }
    client.write_all(&batch).expect("send");

    let mut answers = Vec::new();
    for id in read_requests(&mut upstream, REQUESTS as usize) {
        let rf = ResponseFrame {
            id,
            class: 0,
            service_ns: 1_000,
            queue_ns: 0,
            busy_ns: 0,
            status: Status::Ok,
            payload: &[],
        };
        wire::encode_relay(&mut answers, id, &rf);
    }
    upstream.write_all(&answers).expect("answer");

    // Cut loose: the client sees its connection end without an answer.
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let ended = match client.read(&mut [0u8; 256]) {
        Ok(n) => n == 0,
        Err(e) => !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
    };
    assert!(ended, "the rack should have closed the client");
    let shared = rack.shared();
    wait_until("every answer settled", || {
        shared.pending_now.load(Ordering::Relaxed) == 0
    });
    let closed = shared.totals.conns_closed.load(Ordering::Relaxed);
    assert_eq!(closed, 1, "the client was closed by the rack");

    let report = rack.shutdown();
    report.check().expect("conservation");
    assert_eq!(report.requests_in, REQUESTS);
    assert_eq!(report.forwarded, REQUESTS);
    // Two answers fit the outbox; the third overflows it and cuts the
    // client loose, and the rest find it gone. The two queued answers
    // die with the connection but were relayed as far as the rack goes.
    assert_eq!(report.relayed_ok, OUTBOX_CAP as u64);
    assert_eq!(report.relay_dropped, REQUESTS - OUTBOX_CAP as u64);
}
