//! The transport's ledger against real sockets, watched from outside
//! through [`Server::io_stats`]: `in_flight` (the sum of every slot's
//! owed count) must return to zero after every kind of exit a request
//! can take — an answer, a RETRY, an abort mid-flight, a half-close and
//! a shutdown — or a slot would leak.
//!
//! The exact, single-stepped version of these scenarios is the ledger
//! test beside the code in `socket.rs`; here the real dispatcher,
//! worker and sockets run.

use concord_core::admission::{AdmissionConfig, AdmissionPolicy};
use concord_core::{RuntimeConfig, SpinApp};
use concord_server::client::{self, ClientConfig};
use concord_server::{IoStats, Server, ServerConfig};
use concord_wire::frame::{self as wire, Frame};
use concord_workloads::mix;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn start_server(admission: AdmissionConfig) -> Server {
    let runtime = RuntimeConfig::builder()
        .workers(1)
        .quantum(Duration::from_micros(100))
        .build()
        .expect("valid config");
    Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            admission,
            ..ServerConfig::new(runtime)
        },
        Arc::new(SpinApp::new()),
    )
    .expect("bind loopback")
}

fn reject_at(capacity: usize) -> AdmissionConfig {
    AdmissionConfig {
        capacity,
        policy: AdmissionPolicy::RejectNewest,
    }
}

/// Waits (bounded) until `cond` holds for the server's I/O stats.
fn wait_for(server: &Server, what: &str, cond: impl Fn(&IoStats) -> bool) -> IoStats {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let io = server.io_stats();
        if cond(&io) {
            return io;
        }
        assert!(Instant::now() < deadline, "never saw {what}: {io:?}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The books are closed: nothing in flight and every slot home.
fn assert_settled(server: &Server) {
    wait_for(server, "every slot to come home", |io| {
        io.in_flight == 0 && server.live_slots() == 0
    });
}

/// Reads until the server closes the connection; returns the frames.
fn read_to_close(conn: &mut TcpStream) -> Vec<(u64, wire::Status)> {
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    let mut buf = Vec::new();
    conn.read_to_end(&mut buf).expect("server closes");
    let (mut frames, mut at) = (Vec::new(), 0);
    while let Ok(Some((Frame::Response(rf), used))) = wire::decode(&buf[at..]) {
        frames.push((rf.id, rf.status));
        at += used;
    }
    assert_eq!(at, buf.len(), "whole frames only");
    frames
}

/// Names of this process's threads.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .map(|name| name.trim().to_string())
        .collect()
}

#[test]
fn a_served_load_closes_the_books_with_no_io_thread() {
    let server = start_server(reject_at(4096));
    const REQUESTS: u64 = 60_000;
    let report = client::run(
        &server.local_addr().to_string(),
        &ClientConfig {
            requests: REQUESTS,
            window: 32,
            ..ClientConfig::default()
        },
        mix::fixed_1us(),
    )
    .expect("client run");
    assert_eq!(report.completed, REQUESTS);
    assert_settled(&server);
    // The dispatcher polled the sockets itself: no I/O thread ran
    // beside it and the worker (a thread names itself once it runs, and
    // these have served the whole load).
    let names = thread_names();
    assert!(
        names.iter().any(|n| n == "concord-dispatc"),
        "the dispatcher runs: {names:?}"
    );
    assert!(
        !names.iter().any(|n| n.starts_with("concord-io")),
        "an I/O thread is running: {names:?}"
    );
    let report = server.shutdown();
    assert_eq!(report.io.in_flight, 0);
    assert_eq!(report.orphaned_responses, 0);
}

#[test]
fn retries_and_half_close_leave_nothing_in_flight() {
    // A 1-deep gate: most of the burst is answered RETRY on the spot.
    let server = start_server(reject_at(1));
    let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
    conn.set_nodelay(true).expect("nodelay");
    const REQS: u64 = 2_000;
    let mut frames = Vec::new();
    for id in 0..REQS {
        wire::encode_request(&mut frames, id, 0, 20_000, &[]);
    }
    conn.write_all(&frames).expect("send burst");
    conn.shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    // Every request is answered one way or the other, and then the
    // server retires the connection by itself: its books are settled.
    let answers = read_to_close(&mut conn);
    assert_eq!(answers.len() as u64, REQS);
    let retried = answers
        .iter()
        .filter(|(_, status)| *status == wire::Status::Retry)
        .count();
    assert!(retried > 0, "a 1-deep gate sheds a 2000-request burst");
    assert_settled(&server);
    let report = server.shutdown();
    assert_eq!(report.io.in_flight, 0);
    assert_eq!(report.orphaned_responses, 0);
}

#[test]
fn an_abort_holds_its_slot_until_the_late_answers_orphan() {
    let server = start_server(reject_at(4096));
    let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
    conn.set_nodelay(true).expect("nodelay");
    // Forty 5 ms requests on one worker: 200 ms of work in flight...
    const REQS: u64 = 40;
    let mut frames = Vec::new();
    for id in 0..REQS {
        wire::encode_request(&mut frames, id, 0, 5_000_000, &[]);
    }
    conn.write_all(&frames).expect("send requests");
    wait_for(&server, "requests in flight", |io| io.in_flight > REQS / 2);
    // ...when the client poisons the stream and the connection aborts.
    conn.write_all(&[0xFF; 64]).expect("send garbage");
    wait_for(&server, "the abort", |_| server.active_connections() == 0);
    // The runtime is still busy with the requests: the shard keeps
    // counting them, and their slot stays held, so the next connection
    // gets another one.
    assert!(server.stats().completed() < REQS, "still in the runtime");
    assert!(server.io_stats().in_flight > 0, "answers still owed");
    let next = TcpStream::connect(server.local_addr()).expect("connect");
    wait_for(&server, "the next accept", |_| server.accepted() == 2);
    assert_eq!(server.live_slots(), 2, "the aborted slot is not reissued");
    drop(next);
    // Once the late answers have arrived and orphaned, the slots come
    // home.
    assert_settled(&server);

    let report = server.shutdown();
    assert_eq!(report.protocol_errors, 1);
    assert!(report.orphaned_responses > 0, "late answers orphan");
    assert_eq!(report.io.in_flight, 0);
}

#[test]
fn shutdown_mid_flight_balances() {
    let server = start_server(reject_at(4));
    let addr = server.local_addr();
    // Shutdown with requests inside the runtime: they complete, their
    // answers are flushed, and the books close at zero.
    let mut conn = TcpStream::connect(addr).expect("connect");
    let mut frames = Vec::new();
    for id in 0..4u64 {
        wire::encode_request(&mut frames, id, 0, 10_000_000, &[]);
    }
    conn.write_all(&frames).expect("send requests");
    wait_for(&server, "requests in flight", |io| io.in_flight > 0);
    let report = server.shutdown();
    assert_eq!(read_to_close(&mut conn).len(), 4, "drained, not dropped");
    assert_eq!(report.io.in_flight, 0);
}
