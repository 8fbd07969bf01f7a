//! The event loop's two modes and the ledger that picks between them,
//! watched from outside through [`Server::io_stats`]: a loop polls while
//! requests it admitted are in flight and sleeps in `epoll_wait` when
//! none are, so `in_flight` must return to zero after every kind of
//! exit a request can take, or the loop would spin for ever.
//!
//! The exact, single-stepped version of these scenarios is the ledger
//! test beside the code in `eventloop.rs`; here the real loops,
//! dispatcher and sockets run.

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

fn start_server(admission: AdmissionConfig, event_loops: usize) -> Server {
    let runtime = RuntimeConfig::builder()
        .workers(1)
        .quantum(Duration::from_micros(100))
        .build()
        .expect("valid config");
    Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            admission,
            event_loops,
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

/// The loops are parked, not spinning: nothing in flight, and the sleep
/// counter stands still (a loop that had gone round even once more
/// would have counted another sleep).
fn assert_parked(server: &Server) {
    wait_for(server, "quiescence", |io| io.in_flight == 0);
    // Let a loop that is still finishing its last pass go to sleep.
    std::thread::sleep(Duration::from_millis(50));
    let before = server.io_stats();
    std::thread::sleep(Duration::from_millis(300));
    let after = server.io_stats();
    assert_eq!(before, after, "an idle loop must stay asleep");
    assert!(after.loop_sleeps >= 1);
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

#[test]
fn an_idle_loop_sleeps_and_a_loaded_one_goes_back_to_sleep() {
    let server = start_server(reject_at(4096), 1);
    // Fresh server: the loop went to sleep once and stays there.
    wait_for(&server, "the first sleep", |io| io.loop_sleeps >= 1);
    assert_parked(&server);

    // A closed loop keeps requests in flight, so the loop keeps polling
    // its response ring; every answer reaches the client.
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

    // And once the load stops, so does the loop.
    assert_parked(&server);
    let report = server.shutdown();
    assert_eq!(report.io.in_flight, 0);
}

#[test]
fn retries_and_half_close_leave_nothing_in_flight() {
    // A 1-deep gate: most of the burst is answered RETRY on the spot.
    let server = start_server(reject_at(1), 1);
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
    wait_for(&server, "the slot to come home", |_| {
        server.live_slots() == 0
    });
    assert_parked(&server);
    let report = server.shutdown();
    assert_eq!(report.io.in_flight, 0);
    assert_eq!(report.orphaned_responses, 0);
}

#[test]
fn an_abort_holds_its_slot_until_the_late_answers_orphan() {
    let server = start_server(reject_at(4096), 1);
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
    // The runtime is still busy with the requests: the loop keeps
    // counting them, and their slot stays held, so the next connection
    // gets another one.
    assert!(server.stats().completed() < REQS, "still in the runtime");
    assert!(server.io_stats().in_flight > 0, "answers still owed");
    let next = TcpStream::connect(server.local_addr()).expect("connect");
    wait_for(&server, "the next accept", |_| server.accepted() == 2);
    assert_eq!(server.live_slots(), 2, "the aborted slot is not reissued");
    drop(next);
    // Once the late answers have arrived and orphaned, the slot comes
    // home and the loop sleeps again.
    wait_for(&server, "the slots to come home", |_| {
        server.live_slots() == 0
    });
    assert_parked(&server);

    let report = server.shutdown();
    assert_eq!(report.protocol_errors, 1);
    assert!(report.orphaned_responses > 0, "late answers orphan");
    assert_eq!(report.io.in_flight, 0);
}

#[test]
fn evictions_across_loops_and_shutdown_mid_flight_balance() {
    // Two loops share a 4-deep drop-oldest gate: arrivals on one loop
    // evict requests whose connection lives on the other.
    let server = start_server(
        AdmissionConfig {
            capacity: 4,
            policy: AdmissionPolicy::DropOldest,
        },
        2,
    );
    let addr = server.local_addr();
    let clients: Vec<_> = (0..6)
        .map(|_| {
            std::thread::spawn(move || {
                let mut conn = TcpStream::connect(addr).expect("connect");
                conn.set_nodelay(true).expect("nodelay");
                let mut frames = Vec::new();
                for id in 0..500u64 {
                    wire::encode_request(&mut frames, id, 0, 20_000, &[]);
                }
                conn.write_all(&frames).expect("send burst");
                conn.shutdown(std::net::Shutdown::Write)
                    .expect("half-close");
                read_to_close(&mut conn).len() as u64
            })
        })
        .collect();
    let answered: u64 = clients
        .into_iter()
        .map(|c| c.join().expect("client thread"))
        .sum();
    // Evicted requests are never answered, yet every connection retired
    // on its own: each eviction settled its victim's book, wherever the
    // victim lived.
    wait_for(&server, "every slot to come home", |_| {
        server.live_slots() == 0
    });
    assert_parked(&server);
    let evicted = server
        .admission()
        .counters()
        .dropped_oldest
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(evicted > 0, "a 4-deep gate under 3000 requests evicts");
    assert_eq!(answered + evicted, 6 * 500);

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
