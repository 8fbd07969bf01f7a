//! `concord-serve --report-interval` end to end: the binary prints each
//! shard's telemetry report to stderr while it serves, before the final
//! report on stdout.

use concord_wire::frame::{self as wire, Frame};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Sends one request on `conn` and reads until its answer arrives.
fn round_trip(conn: &mut TcpStream, id: u64, buf: &mut Vec<u8>) {
    buf.clear();
    wire::encode_request(buf, id, 0, 1_000, &[]);
    conn.write_all(buf).expect("send request");
    buf.clear();
    let mut chunk = [0u8; 256];
    loop {
        if let Some((frame, _)) = wire::decode(buf).expect("well-formed answer") {
            match frame {
                Frame::Response(r) => assert_eq!(r.id, id, "answers come in order"),
                Frame::Request(_) => panic!("server sent a request frame"),
            }
            return;
        }
        let n = conn.read(&mut chunk).expect("read answer");
        assert!(n > 0, "server closed mid-answer");
        buf.extend_from_slice(&chunk[..n]);
    }
}

#[test]
fn reports_are_printed_while_serving() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_concord-serve"))
        .args(["--listen", "127.0.0.1:0", "--workers", "1"])
        .args(["--oneshot", "--report-interval", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("start concord-serve");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("banner");
    // "serving spin on 127.0.0.1:PORT (...)"
    let addr = line
        .split_whitespace()
        .nth(3)
        .unwrap_or_else(|| panic!("no address in {line:?}"))
        .to_string();

    // One connection kept busy past the first 1 s interval.
    let mut conn = TcpStream::connect(&addr).expect("connect");
    let (start, mut buf) = (Instant::now(), Vec::new());
    let mut sent = 0u64;
    while start.elapsed() < Duration::from_millis(1_500) {
        round_trip(&mut conn, sent, &mut buf);
        sent += 1;
    }
    conn.shutdown(Shutdown::Write).expect("half-close");

    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll child") {
            break status;
        }
        if Instant::now() > deadline {
            child.kill().expect("kill");
            panic!("concord-serve --oneshot did not exit");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut out = String::new();
    stdout.read_to_string(&mut out).expect("stdout");
    let mut err = String::new();
    child
        .stderr
        .take()
        .expect("piped")
        .read_to_string(&mut err)
        .expect("stderr");
    assert!(
        status.success(),
        "exit {status}\nstdout:\n{out}\nstderr:\n{err}"
    );
    assert!(sent > 0);
    assert!(out.contains("telemetry: "), "final report:\n{out}");
    assert!(
        err.contains("telemetry: "),
        "no periodic report in {:.1} s of serving; stderr:\n{err}",
        start.elapsed().as_secs_f64()
    );
}
