//! Descriptor exhaustion (`RLIMIT_NOFILE`) at the rack's two listeners:
//! the client listener and the admin HTTP listener must park on a
//! failing `accept` instead of spinning on it, and once descriptors free
//! up each accepts the connection that waited in its backlog.
//!
//! One real `#[test]` in its own binary: it lowers the process-wide
//! descriptor limit and measures the process's CPU time, so nothing else
//! may run beside it (`backend` returns at once in this process). The
//! backend is this binary re-executed as a child process (`common`) — a
//! `concord-server` whose dispatcher and workers poll by design — so
//! its CPU time is not this process's.

#![cfg(target_os = "linux")]

mod common;

use common::BackendProc;
use concord_rack::{BackendSpec, Rack, RackConfig};
use concord_wire::frame::{self as wire, Frame};
use std::fs::File;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::FromRawFd;
use std::time::{Duration, Instant};

// Minimal FFI (std links libc; no crate needed).
#[repr(C)]
#[derive(Clone, Copy)]
struct Rlimit {
    cur: u64,
    max: u64,
}
#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}
#[repr(C)]
struct SockaddrIn {
    family: u16,
    port: u16,
    addr: u32,
    zero: [u8; 8],
}
const RLIMIT_NOFILE: i32 = 7;
const RUSAGE_SELF: i32 = 0;
const AF_INET: i32 = 2;
const SOCK_STREAM: i32 = 1;
extern "C" {
    fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
    fn connect(fd: i32, addr: *const SockaddrIn, len: u32) -> i32;
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

/// User plus system CPU time of every thread in this process so far.
fn cpu_time() -> Duration {
    let mut u = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    assert_eq!(rc, 0, "getrusage failed");
    let us = |t: &Timeval| Duration::from_micros((t.sec * 1_000_000 + t.usec) as u64);
    us(&u.utime) + us(&u.stime)
}

/// Restores the original limit even if an assertion unwinds mid-clamp.
struct LimitGuard(Rlimit);
impl Drop for LimitGuard {
    fn drop(&mut self) {
        set_nofile(self.0);
    }
}

/// A TCP socket made now and connected by [`connect_to`] later:
/// connecting takes no descriptor, so it can reach a listener while the
/// process has none left.
fn unconnected() -> i32 {
    let fd = unsafe { socket(AF_INET, SOCK_STREAM, 0) };
    assert!(fd >= 0, "socket failed");
    fd
}

fn connect_to(fd: i32, addr: SocketAddr) -> TcpStream {
    let SocketAddr::V4(v4) = addr else {
        panic!("IPv4 only")
    };
    let sa = SockaddrIn {
        family: AF_INET as u16,
        port: v4.port().to_be(),
        addr: u32::from(*v4.ip()).to_be(),
        zero: [0; 8],
    };
    let len = std::mem::size_of::<SockaddrIn>() as u32;
    let rc = unsafe { connect(fd, &sa, len) };
    assert_eq!(rc, 0, "connect: {}", std::io::Error::last_os_error());
    unsafe { TcpStream::from_raw_fd(fd) }
}

fn open_fds() -> u64 {
    std::fs::read_dir("/proc/self/fd").expect("procfs").count() as u64
}

fn wait_until(what: &str, mut pred: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !pred() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Reads from `conn` until `done` says the bytes so far are complete.
fn read_until(conn: &mut TcpStream, mut done: impl FnMut(&[u8]) -> bool) -> Vec<u8> {
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let (mut buf, mut chunk) = (Vec::new(), [0u8; 1024]);
    while !done(&buf) {
        let n = conn.read(&mut chunk).expect("reply before the timeout");
        assert!(n > 0, "closed before replying: {buf:?}");
        buf.extend_from_slice(&chunk[..n]);
    }
    buf
}

#[test]
fn backend() {
    common::serve_if_asked();
}

#[test]
fn rack_listeners_park_under_descriptor_exhaustion() {
    let port = {
        let l = TcpListener::bind("127.0.0.1:0").expect("reserve port");
        l.local_addr().expect("addr").port()
    };
    let data = format!("127.0.0.1:{port}");
    let _backend = BackendProc::spawn(&data, None, 1, 1);
    let cfg = RackConfig::builder(vec![BackendSpec {
        addr: data,
        admin: None,
    }])
    .probe_interval(Duration::from_millis(20))
    .admin("127.0.0.1:0")
    .build()
    .expect("rack config");
    let rack = Rack::bind("127.0.0.1:0", cfg).expect("bind rack");
    let admin = rack.admin_addr().expect("admin enabled");
    wait_until("backend connected", || {
        rack.shared().table.get(0).is_connected()
    });

    let (client, scrape) = (unconnected(), unconnected());
    let saved = nofile();
    let guard = LimitGuard(saved);
    set_nofile(Rlimit {
        cur: open_fds() + 32,
        max: saved.max,
    });
    // Take every descriptor left, so neither listener's accept() has one.
    let mut ballast = Vec::new();
    while let Ok(f) = File::open("/dev/null") {
        ballast.push(f);
    }
    let mut client = connect_to(client, rack.local_addr());
    let mut scrape = connect_to(scrape, admin);

    // A listener that spins on the failing accept burns a core each.
    let before = cpu_time();
    std::thread::sleep(Duration::from_millis(300));
    let burned = cpu_time() - before;
    assert!(
        burned < Duration::from_millis(100),
        "{burned:?} of CPU in 300 ms of EMFILE: a listener spins"
    );

    drop(ballast);
    drop(guard);
    // Each listener recovers and accepts the connection that waited.
    let mut frame = Vec::new();
    wire::encode_request(&mut frame, 7, 0, 1_000, &[]);
    client.write_all(&frame).expect("send request");
    let reply = read_until(&mut client, |b| matches!(wire::decode(b), Ok(Some(_))));
    match wire::decode(&reply) {
        Ok(Some((Frame::Response(rf), _))) => assert_eq!(rf.id, 7),
        other => panic!("not a response: {other:?}"),
    }
    scrape
        .write_all(b"GET /healthz HTTP/1.1\r\n\r\n")
        .expect("send scrape");
    let head = read_until(&mut scrape, |b| b.windows(4).any(|w| w == b"\r\n\r\n"));
    assert!(head.starts_with(b"HTTP/1.1 200"), "{head:?}");

    drop(client);
    let report = rack.shutdown();
    report.check().expect("conservation");
    assert_eq!(report.conns_accepted, 1, "the deferred client, accepted");
}
