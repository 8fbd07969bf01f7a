//! Regression: connection-id reuse must never cross-deliver responses.
//!
//! The original router packed a bare 16-bit counter into the request id;
//! after 65,536 accepts the counter wrapped onto the id of a still-live
//! connection, and a response for the old connection would be handed to
//! the new one (or the old connection's registry entry was simply
//! replaced, so its responses went to a stranger). This test churns past
//! the 16-bit space while one long-lived connection holds its identity,
//! then proves that connection still receives its own response. Against
//! the pre-fix counter scheme the churn steals the long-lived
//! connection's id and the final read times out.

use concord_core::admission::{AdmissionConfig, AdmissionPolicy};
use concord_core::{RuntimeConfig, SpinApp};
use concord_server::{Server, ServerConfig};
use concord_wire::frame::{self as wire, Frame};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Churn past the full 16-bit connection-id space.
const CHURN_CONNS: usize = (1 << 16) + 200;
const CHURN_WORKERS: usize = 16;

/// A frame the decoder rejects immediately: valid length prefix, bad
/// protocol version. The server answers by tearing the connection down
/// (server closes first, so churn clients never pile up in TIME_WAIT and
/// exhaust loopback ephemeral ports).
fn poison_frame() -> Vec<u8> {
    let mut f = Vec::new();
    wire::encode_request(&mut f, 1, 0, 100, &[]);
    f[wire::HEADER_LEN] = 0xFF;
    f
}

#[test]
fn held_connection_survives_full_conn_id_wrap() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            admission: AdmissionConfig {
                capacity: 1024,
                policy: AdmissionPolicy::RejectNewest,
            },
            ..ServerConfig::new(
                RuntimeConfig::builder()
                    .workers(1)
                    .build()
                    .expect("valid config"),
            )
        },
        Arc::new(SpinApp::new()),
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    // The long-lived connection registers FIRST, so the churn sweeps
    // across (and past) its identity.
    let mut held = TcpStream::connect(addr).expect("connect held");
    held.set_nodelay(true).expect("nodelay");

    let poison = poison_frame();
    let threads: Vec<_> = (0..CHURN_WORKERS)
        .map(|w| {
            let poison = poison.clone();
            let per = CHURN_CONNS / CHURN_WORKERS + usize::from(w < CHURN_CONNS % CHURN_WORKERS);
            std::thread::spawn(move || {
                let mut sink = [0u8; 256];
                for _ in 0..per {
                    // Retry transient failures (accept-backlog overflow)
                    // so exactly `per` poison frames land.
                    loop {
                        let Ok(mut s) = TcpStream::connect(addr) else {
                            std::thread::sleep(Duration::from_millis(1));
                            continue;
                        };
                        if s.write_all(&poison).is_err() {
                            continue;
                        }
                        // Wait for the server's close so the server sends
                        // the first FIN; the client port frees immediately
                        // (no TIME_WAIT pile-up on the loopback client).
                        let _ = s.set_read_timeout(Some(Duration::from_secs(5)));
                        while let Ok(n) = s.read(&mut sink) {
                            if n == 0 {
                                break;
                            }
                        }
                        break;
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("churn worker");
    }

    assert!(
        server.accepted() > u64::from(u16::MAX),
        "churn did not cross the 16-bit boundary: {} accepts",
        server.accepted()
    );

    // Slot recycling: the churn fits in a handful of slots, so the live
    // count settles back to (roughly) just the held connection.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.live_slots() > CHURN_WORKERS + 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        server.live_slots() <= CHURN_WORKERS + 1,
        "slots leaked across churn: {} live",
        server.live_slots()
    );

    // The held connection must still receive ITS response — not silence
    // (its registry entry stolen) and not someone else's bytes.
    let mut frame = Vec::new();
    wire::encode_request(&mut frame, 424_242, 0, 1_000, &[]);
    held.write_all(&frame).expect("send on held connection");
    let _ = held.set_read_timeout(Some(Duration::from_millis(100)));
    let mut buf = Vec::new();
    let mut chunk = [0u8; 512];
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        assert!(
            Instant::now() < deadline,
            "held connection never got its response after conn-id wrap"
        );
        match held.read(&mut chunk) {
            Ok(0) => panic!("server closed the held connection"),
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if let Ok(Some((Frame::Response(rf), _))) = wire::decode(&buf) {
                    assert_eq!(rf.id, 424_242, "response for a different request");
                    break;
                }
            }
            Err(_) => continue,
        }
    }
    drop(held);

    let report = server.shutdown();
    assert_eq!(
        report.protocol_errors, CHURN_CONNS as u64,
        "every churn connection died on its poison frame"
    );
    assert_eq!(report.orphaned_responses, 0, "no response lost its home");
    assert_eq!(report.refused, 0, "slot space never exhausted");
}
