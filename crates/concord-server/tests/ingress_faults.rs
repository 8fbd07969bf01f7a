//! Failure injection at the ingress edge: connection-setup faults and
//! real descriptor exhaustion (`RLIMIT_NOFILE`) must cost only the
//! affected connection attempt — never the accept path itself. A
//! connection whose setup fails is refused (slot released, stream
//! dropped, counted in `refused`) and accepting continues; under EMFILE
//! the dispatcher parks the listener and resumes once descriptors free
//! up, accepting the connection that was waiting in the backlog.
//!
//! Everything runs inside ONE `#[test]` because the rlimit scenario
//! lowers the process-wide descriptor limit; nothing else in this binary
//! may open descriptors concurrently.

use concord_core::admission::{AdmissionConfig, AdmissionPolicy};
use concord_core::{RuntimeConfig, SpinApp};
use concord_server::{Server, ServerConfig};
use concord_wire::frame::{self as wire, Frame};
use std::fs::File;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

// Minimal FFI for RLIMIT_NOFILE (std links libc; no crate needed). Test
// code is outside the library's `forbid(unsafe_code)`.
#[repr(C)]
#[derive(Clone, Copy)]
struct Rlimit {
    cur: u64,
    max: u64,
}
const RLIMIT_NOFILE: i32 = 7;
extern "C" {
    fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
}

fn nofile() -> Rlimit {
    let mut r = Rlimit { cur: 0, max: 0 };
    let rc = unsafe { getrlimit(RLIMIT_NOFILE, &mut r) };
    assert_eq!(rc, 0, "getrlimit failed");
    r
}

fn set_nofile(r: Rlimit) {
    let rc = unsafe { setrlimit(RLIMIT_NOFILE, &r) };
    assert_eq!(rc, 0, "setrlimit failed");
}

/// Restores the original limit even if an assertion unwinds mid-clamp.
struct LimitGuard(Rlimit);
impl Drop for LimitGuard {
    fn drop(&mut self) {
        set_nofile(self.0);
    }
}

/// Open descriptors in this process (includes the readdir handle itself;
/// only used to pick a roomy clamp, never for exact accounting).
fn open_fds() -> u64 {
    std::fs::read_dir("/proc/self/fd").expect("procfs").count() as u64
}

fn bind_server(setup_faults: u64) -> Server {
    Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            admission: AdmissionConfig {
                capacity: 1024,
                policy: AdmissionPolicy::RejectNewest,
            },
            conn_setup_faults: Arc::new(AtomicU64::new(setup_faults)),
            ..ServerConfig::new(
                RuntimeConfig::builder()
                    .workers(1)
                    .build()
                    .expect("valid config"),
            )
        },
        Arc::new(SpinApp::new()),
    )
    .expect("bind loopback")
}

/// One request/response exchange on `conn`, polling up to `deadline`.
fn round_trip(conn: &mut TcpStream, id: u64, deadline: Duration) {
    let mut frame = Vec::new();
    wire::encode_request(&mut frame, id, 0, 1_000, &[]);
    conn.write_all(&frame).expect("send request");
    conn.set_read_timeout(Some(Duration::from_millis(100)))
        .expect("set timeout");
    let mut buf = Vec::new();
    let mut chunk = [0u8; 256];
    let end = Instant::now() + deadline;
    loop {
        assert!(
            Instant::now() < end,
            "no response within {deadline:?} — ingress is dead"
        );
        match conn.read(&mut chunk) {
            Ok(0) => panic!("server closed a healthy connection"),
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if let Ok(Some((Frame::Response(rf), _))) = wire::decode(&buf) {
                    assert_eq!(rf.id, id, "response for a different request");
                    return;
                }
            }
            Err(_) => continue,
        }
    }
}

/// Reads until the server tears the connection down (EOF or reset).
/// Returns true if teardown was observed before the timeout.
fn observe_teardown(conn: &mut TcpStream) -> bool {
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    let mut sink = [0u8; 64];
    loop {
        match conn.read(&mut sink) {
            Ok(0) => return true,
            Ok(_) => continue,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return false
            }
            Err(_) => return true, // ECONNRESET counts as torn down
        }
    }
}

fn wait_idle(server: &Server) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.live_slots() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.live_slots(), 0, "connection slot never came home");
}

/// Deterministic setup-fault injection: the first `n` accepted
/// connections are refused as if setup had failed; accepting continues
/// and the next connection serves normally.
fn injected_faults_scenario() {
    const FAULTS: u64 = 3;
    let server = bind_server(FAULTS);
    let addr = server.local_addr();
    for i in 0..FAULTS {
        let mut doomed = TcpStream::connect(addr).expect("connect doomed");
        assert!(
            observe_teardown(&mut doomed),
            "refused connection {i} was not torn down"
        );
    }
    let mut conn = TcpStream::connect(addr).expect("connect survivor");
    conn.set_nodelay(true).expect("nodelay");
    round_trip(&mut conn, 7, Duration::from_secs(10));
    drop(conn);
    wait_idle(&server);

    let report = server.shutdown();
    assert_eq!(report.refused, FAULTS, "every fault counted");
    assert_eq!(report.accepted, 1, "survivor accepted");
    assert_eq!(report.orphaned_responses, 0);
}

/// Real descriptor exhaustion: accept() itself returns EMFILE, the
/// dispatcher parks the listener, and — once descriptors free up —
/// accepts the connection that waited in the backlog. Nothing is
/// refused; the very stream that arrived during exhaustion completes a
/// round trip.
fn emfile_scenario() {
    let server = bind_server(0);
    let addr = server.local_addr();

    let mut warm = TcpStream::connect(addr).expect("connect warm");
    warm.set_nodelay(true).expect("nodelay");
    round_trip(&mut warm, 1, Duration::from_secs(10));
    drop(warm);
    wait_idle(&server);

    let saved = nofile();
    let _guard = LimitGuard(saved);
    set_nofile(Rlimit {
        cur: open_fds() + 32,
        max: saved.max,
    });
    // Leave exactly one descriptor: our client socket takes it, so the
    // server's accept() has none and parks.
    let mut ballast = Vec::new();
    while let Ok(f) = File::open("/dev/null") {
        ballast.push(f);
    }
    ballast.pop();

    let mut parked = TcpStream::connect(addr).expect("connect during EMFILE");
    parked.set_nodelay(true).expect("nodelay");
    // Give the dispatcher a few park/retry cycles while the table is full.
    std::thread::sleep(Duration::from_millis(100));

    drop(ballast);
    drop(_guard);
    // The parked listener recovers and accepts the waiting connection:
    // the SAME stream round-trips.
    round_trip(&mut parked, 3, Duration::from_secs(15));
    drop(parked);
    wait_idle(&server);

    let report = server.shutdown();
    assert_eq!(
        report.refused, 0,
        "EMFILE defers accepts, it refuses nothing"
    );
    assert_eq!(report.accepted, 2, "warm + deferred");
}

#[test]
fn ingress_survives_setup_faults_and_descriptor_exhaustion() {
    injected_faults_scenario();
    emfile_scenario();
}
