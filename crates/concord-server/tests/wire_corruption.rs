//! Adversarial wire input: truncated, corrupt, and random frames must
//! never panic the decoder or wedge the server — a bad frame costs its
//! connection and nothing else.

use concord_core::admission::{AdmissionConfig, AdmissionPolicy};
use concord_core::{RuntimeConfig, SpinApp};
use concord_server::{Server, ServerConfig};
use concord_testkit::prelude::*;
use concord_wire::frame::{self as wire, Frame};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn start_server() -> Server {
    Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            admission: AdmissionConfig {
                capacity: 64,
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
    .expect("bind loopback")
}

/// Sends `bytes` on a fresh connection, then proves the server is still
/// healthy by completing one well-formed request on another connection.
fn poke_then_verify_alive(server: &Server, bytes: &[u8]) {
    let addr = server.local_addr();
    {
        let mut bad = TcpStream::connect(addr).expect("connect");
        let _ = bad.write_all(bytes);
        let _ = bad.shutdown(std::net::Shutdown::Write);
        // Drain whatever the server says (possibly nothing) until it
        // closes or goes quiet; we only care that it doesn't hang.
        let _ = bad.set_read_timeout(Some(Duration::from_millis(200)));
        let mut sink = [0u8; 1024];
        while let Ok(n) = bad.read(&mut sink) {
            if n == 0 {
                break;
            }
        }
    }

    let mut good = TcpStream::connect(addr).expect("reconnect");
    good.set_nodelay(true).expect("nodelay");
    let mut frame = Vec::new();
    wire::encode_request(&mut frame, 1, 0, 1_000, &[]);
    good.write_all(&frame).expect("send good request");
    let _ = good.set_read_timeout(Some(Duration::from_millis(100)));
    let mut buf = Vec::new();
    let mut chunk = [0u8; 512];
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        assert!(
            Instant::now() < deadline,
            "server failed to answer a good request after corrupt input"
        );
        match good.read(&mut chunk) {
            Ok(0) => panic!("server closed a healthy connection"),
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if let Ok(Some((Frame::Response(rf), _))) = wire::decode(&buf) {
                    assert_eq!(rf.id, 1);
                    return;
                }
            }
            Err(_) => continue,
        }
    }
}

/// Deterministic corruption cases complementing the randomized ones
/// above: each classic malformation, then liveness.
#[test]
fn classic_malformations_cost_only_their_connection() {
    let server = start_server();
    let mut good = Vec::new();
    wire::encode_request(&mut good, 9, 1, 500, b"payload");

    let mut wrong_version = good.clone();
    wrong_version[wire::HEADER_LEN] = 99;
    let mut wrong_kind = good.clone();
    wrong_kind[wire::HEADER_LEN + 1] = 7;
    let huge_len = u32::try_from(wire::MAX_FRAME_BODY + 1)
        .unwrap()
        .to_le_bytes()
        .to_vec();
    let truncated = good[..good.len() - 3].to_vec();
    let zero_len = 0u32.to_le_bytes().to_vec();
    let cases: Vec<Vec<u8>> = vec![
        wrong_version,
        wrong_kind,
        huge_len,
        truncated,
        zero_len,
        b"GET / HTTP/1.1\r\n\r\n".to_vec(),
        vec![0xFF; 64],
    ];
    for bytes in &cases {
        poke_then_verify_alive(&server, bytes);
    }
    let report = server.shutdown();
    assert!(
        report.protocol_errors >= 4,
        "malformed frames were detected (got {})",
        report.protocol_errors
    );
    assert_eq!(report.orphaned_responses, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(16),
    ))]

    /// Arbitrary bytes never panic the decoder; a decoded frame always
    /// lies within the input it was parsed from.
    #[test]
    fn decoder_total_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        if let Ok(Some((_, consumed))) = wire::decode(&bytes) {
            prop_assert!(consumed <= bytes.len());
        }
    }

    /// A valid frame truncated at any point decodes as "need more bytes"
    /// or a clean error — never a panic, never an out-of-bounds frame.
    #[test]
    fn truncation_is_always_clean(
        cut in 0usize..28,
        payload in prop::collection::vec(any::<u8>(), 0..32),
    ) {
        let mut frame = Vec::new();
        wire::encode_request(&mut frame, 42, 3, 1_000, &payload);
        let cut = cut.min(frame.len().saturating_sub(1));
        match wire::decode(&frame[..cut]) {
            Ok(None) | Err(_) => {}
            Ok(Some(_)) => prop_assert!(false, "decoded a frame from a strict prefix"),
        }
    }

    /// Random garbage thrown at a live server never panics it, never
    /// leaks the connection, and never harms other connections.
    #[test]
    fn server_survives_random_bytes(bytes in prop::collection::vec(any::<u8>(), 0..128)) {
        let server = start_server();
        poke_then_verify_alive(&server, &bytes);
        let report = server.shutdown();
        prop_assert_eq!(report.orphaned_responses, 0);
    }
}
