//! Rack admin-plane smoke: `/metrics`, `/healthz`, `/statz`, and the
//! per-backend drain control, exercised over real HTTP against a rack
//! fronting two in-process backends.

#![cfg(target_os = "linux")]

use concord_core::{RuntimeConfig, SpinApp};
use concord_obs::client::fetch;
use concord_obs::json::Json;
use concord_rack::{BackendSpec, Rack, RackConfig};
use concord_server::{Server, ServerConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

const FETCH_TIMEOUT: Duration = Duration::from_secs(2);

fn backend() -> Server {
    let runtime = RuntimeConfig::builder()
        .workers(1)
        .build()
        .expect("runtime config");
    let cfg = ServerConfig::builder(runtime)
        .build()
        .expect("server config");
    Server::bind("127.0.0.1:0", cfg, Arc::new(SpinApp::new())).expect("bind backend")
}

fn get_json(addr: &str, path: &str) -> Json {
    let (code, body) = fetch(addr, "GET", path, FETCH_TIMEOUT).expect("fetch");
    assert_eq!(code, 200, "GET {path}");
    Json::parse(std::str::from_utf8(&body).expect("utf8")).expect("json")
}

fn wait_until(what: &str, mut pred: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !pred() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn admin_plane_reports_and_controls_backends() {
    let b0 = backend();
    let b1 = backend();
    let cfg = RackConfig::builder(vec![
        BackendSpec {
            addr: b0.local_addr().to_string(),
            admin: None,
        },
        BackendSpec {
            addr: b1.local_addr().to_string(),
            admin: None,
        },
    ])
    .probe_interval(Duration::from_millis(20))
    .admin("127.0.0.1:0")
    .build()
    .expect("rack config");
    let rack = Rack::bind("127.0.0.1:0", cfg).expect("bind rack");
    let admin = rack.admin_addr().expect("admin enabled").to_string();
    wait_until("backends connected", || {
        rack.shared().table.iter().all(|b| b.is_connected())
    });

    // /healthz: healthy while anything accepts.
    let (code, _) = fetch(&admin, "GET", "/healthz", FETCH_TIMEOUT).expect("healthz");
    assert_eq!(code, 200);
    // Routing is on the bare path: a query string changes nothing.
    let (code, body) = fetch(&admin, "GET", "/healthz?verbose=1", FETCH_TIMEOUT).expect("query");
    assert_eq!(code, 200, "{}", String::from_utf8_lossy(&body));

    // /statz: both backends healthy, conservation counters present.
    let statz = get_json(&admin, "/statz");
    assert_eq!(
        statz
            .get("rack")
            .and_then(|r| r.get("backends"))
            .and_then(Json::as_u64),
        Some(2)
    );
    let backends = statz
        .get("backends")
        .and_then(Json::as_arr)
        .expect("backends array");
    assert_eq!(backends.len(), 2);
    for b in backends {
        assert_eq!(b.get("state").and_then(Json::as_str), Some("healthy"));
    }
    let totals = statz.get("totals").expect("totals");
    for key in [
        "requests_in",
        "forwarded",
        "rejected_local",
        "relayed_ok",
        "failed_over",
        "relay_dropped",
        "orphaned",
    ] {
        assert!(totals.get(key).is_some(), "totals.{key} missing");
    }

    // /metrics: Prometheus exposition carries rack and per-backend series.
    let (code, body) = fetch(&admin, "GET", "/metrics", FETCH_TIMEOUT).expect("metrics");
    assert_eq!(code, 200);
    let text = String::from_utf8(body).expect("utf8");
    for needle in [
        "rack_requests_total",
        "rack_relayed_total{status=\"ok\"}",
        "rack_backend_up{backend=\"0\"}",
        "rack_backend_depth_estimate{backend=\"1\"}",
    ] {
        assert!(text.contains(needle), "/metrics missing {needle}:\n{text}");
    }

    // Drain backend 0: state flips, it stops accepting; undrain restores.
    let (code, body) = fetch(&admin, "POST", "/backend/0/drain", FETCH_TIMEOUT).expect("drain");
    assert_eq!(code, 200, "{}", String::from_utf8_lossy(&body));
    assert!(rack.shared().table.get(0).drain_requested());
    let statz = get_json(&admin, "/statz");
    let states: Vec<_> = statz
        .get("backends")
        .and_then(Json::as_arr)
        .expect("backends")
        .iter()
        .map(|b| {
            b.get("state")
                .and_then(Json::as_str)
                .expect("state")
                .to_string()
        })
        .collect();
    assert_eq!(states, ["draining", "healthy"]);

    // Drain the other too: the rack can only reject, /healthz says so.
    let (code, _) = fetch(&admin, "POST", "/backend/1/drain", FETCH_TIMEOUT).expect("drain 1");
    assert_eq!(code, 200);
    let (code, _) = fetch(&admin, "GET", "/healthz", FETCH_TIMEOUT).expect("healthz drained");
    assert_eq!(code, 503, "all-draining rack is not healthy");

    let (code, _) = fetch(&admin, "POST", "/backend/0/undrain", FETCH_TIMEOUT).expect("undrain");
    assert_eq!(code, 200);
    assert!(!rack.shared().table.get(0).drain_requested());
    let (code, _) = fetch(&admin, "GET", "/healthz", FETCH_TIMEOUT).expect("healthz restored");
    assert_eq!(code, 200);

    // Bad routes answer without wedging anything.
    let (code, _) = fetch(&admin, "POST", "/backend/9/drain", FETCH_TIMEOUT).expect("oob");
    assert_eq!(code, 404);
    let (code, _) = fetch(&admin, "POST", "/backend/x/drain", FETCH_TIMEOUT).expect("nan");
    assert_eq!(code, 400);
    let (code, _) = fetch(&admin, "GET", "/nope", FETCH_TIMEOUT).expect("404");
    assert_eq!(code, 404);

    rack.shutdown().check().expect("conservation at idle");
    b0.shutdown();
    b1.shutdown();
}
