//! The rack's admin plane: the same introspection surface a backend
//! exposes, one tier up, served by [`concord_obs::admin`].
//!
//! Routes:
//!
//! - `GET /metrics` — Prometheus text exposition of the rack counters
//!   and per-backend series.
//! - `GET /statz` — one JSON document: rack totals, the conservation
//!   counters, and every backend's state/depth/in-flight view.
//! - `GET /healthz` — `"ok"` (200) while at least one backend is
//!   accepting work, `"unavailable"` (503) otherwise (a rack that can
//!   only reject is not healthy).
//! - `POST /backend/<i>/drain` — stop routing *new* work to backend
//!   `<i>`; in-flight requests finish normally.
//! - `POST /backend/<i>/undrain` — resume routing to backend `<i>`.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use concord_obs::admin::{self, Route};
use concord_obs::json::Json;
use concord_obs::{HttpResponse, HttpServer, MetricsRegistry};

use crate::balance::BackendState;
use crate::proxy::RackShared;

/// Binds the admin listener on `addr` and serves the rack routes.
pub(crate) fn serve(addr: &str, shared: Arc<RackShared>) -> io::Result<HttpServer> {
    let started = Instant::now();
    let registry = MetricsRegistry::new();
    register_rack(&registry, &shared);
    let healthy = {
        let s = Arc::clone(&shared);
        move || s.table.iter().any(|b| b.accepting())
    };
    let statz = {
        let s = Arc::clone(&shared);
        move |_: &_| statz(&s, started)
    };
    let drain = move |req: &concord_obs::HttpRequest| drain_control(&shared, &req.path);
    admin::serve(
        addr,
        registry,
        healthy,
        vec![
            Route::exact("GET", "/statz", statz),
            Route::prefix("POST", "/backend/", drain),
        ],
    )
}

fn statz(s: &RackShared, started: Instant) -> HttpResponse {
    let n = |a: &AtomicU64| Json::U64(a.load(Ordering::Relaxed));
    let t = &s.totals;
    let backends: Vec<Json> = (0..s.table.len())
        .map(|i| {
            let b = s.table.get(i);
            Json::obj(vec![
                ("backend", Json::U64(i as u64)),
                ("addr", Json::Str(b.addr().into())),
                (
                    "admin",
                    b.admin().map_or(Json::Null, |a| Json::Str(a.into())),
                ),
                ("state", Json::Str(b.state().name().into())),
                ("estimated_depth", Json::U64(s.table.estimated_depth(i))),
                ("inflight", Json::U64(b.inflight())),
                ("forwarded", Json::U64(b.forwarded())),
                ("deaths", Json::U64(b.deaths())),
            ])
        })
        .collect();
    let rack = Json::obj(vec![
        ("uptime_s", Json::U64(started.elapsed().as_secs())),
        ("backends", Json::U64(s.table.len() as u64)),
        ("active_connections", n(&s.active_connections)),
        ("pending", n(&s.pending_now)),
        ("draining", Json::Bool(s.draining.load(Ordering::Relaxed))),
    ]);
    let totals = Json::obj(vec![
        ("requests_in", n(&t.requests_in)),
        ("forwarded", n(&t.forwarded)),
        ("rejected_local", n(&t.rejected_local)),
        ("relayed_ok", n(&t.relayed_ok)),
        ("relayed_failed", n(&t.relayed_failed)),
        ("relayed_retry", n(&t.relayed_retry)),
        ("failed_over", n(&t.failed_over)),
        ("relay_dropped", n(&t.relay_dropped)),
        ("orphaned", n(&t.orphaned)),
        ("protocol_errors", n(&t.protocol_errors)),
        ("conns_accepted", n(&t.conns_accepted)),
        ("conns_closed", n(&t.conns_closed)),
    ]);
    let doc = Json::obj(vec![
        ("rack", rack),
        ("totals", totals),
        ("backends", Json::Arr(backends)),
    ]);
    HttpResponse::ok("application/json", doc.render())
}

/// `POST /backend/<i>/drain` and `/backend/<i>/undrain`.
fn drain_control(shared: &RackShared, path: &str) -> HttpResponse {
    let rest = path.strip_prefix("/backend/").unwrap_or("");
    let (idx_str, action) = match rest.split_once('/') {
        Some(parts) => parts,
        None => return HttpResponse::text(404, "not found"),
    };
    let Ok(idx) = idx_str.parse::<usize>() else {
        return HttpResponse::text(400, "backend index must be a number");
    };
    if idx >= shared.table.len() {
        return HttpResponse::text(404, "no such backend");
    }
    let b = shared.table.get(idx);
    match action {
        "drain" => b.request_drain(),
        "undrain" => b.clear_drain(),
        _ => return HttpResponse::text(404, "not found"),
    }
    let body = Json::obj(vec![
        ("backend", Json::U64(idx as u64)),
        ("state", Json::Str(b.state().name().into())),
    ])
    .render();
    HttpResponse::ok("application/json", body)
}

/// Registers every rack metric against live closures over the shared
/// state, mirroring the backend's `concord_*` naming one tier up.
fn register_rack(reg: &MetricsRegistry, shared: &Arc<RackShared>) {
    macro_rules! counter {
        ($name:expr, $help:expr, $field:ident) => {{
            let s = Arc::clone(shared);
            reg.counter($name, $help, &[], move || {
                s.totals.$field.load(Ordering::Relaxed)
            });
        }};
    }
    counter!(
        "rack_requests_total",
        "Requests decoded off client connections",
        requests_in
    );
    counter!(
        "rack_forwarded_total",
        "Requests forwarded to a backend",
        forwarded
    );
    counter!(
        "rack_rejected_local_total",
        "Requests the rack answered RETRY itself",
        rejected_local
    );
    counter!(
        "rack_failed_over_total",
        "Forwarded requests RETRYed because their backend died",
        failed_over
    );
    counter!(
        "rack_relay_dropped_total",
        "Settled requests whose client was already gone",
        relay_dropped
    );
    counter!(
        "rack_orphaned_responses_total",
        "Backend responses matching no pending entry",
        orphaned
    );
    counter!(
        "rack_protocol_errors_total",
        "Connections closed for malformed frames",
        protocol_errors
    );
    counter!(
        "rack_connections_accepted_total",
        "Client connections accepted",
        conns_accepted
    );
    counter!(
        "rack_connections_closed_total",
        "Client connections retired",
        conns_closed
    );
    macro_rules! relayed {
        ($status:expr, $field:ident) => {{
            let s = Arc::clone(shared);
            reg.counter(
                "rack_relayed_total",
                "Backend responses relayed to clients by status",
                &[("status", $status)],
                move || s.totals.$field.load(Ordering::Relaxed),
            );
        }};
    }
    relayed!("ok", relayed_ok);
    relayed!("failed", relayed_failed);
    relayed!("retry", relayed_retry);
    {
        let s = Arc::clone(shared);
        reg.gauge(
            "rack_active_connections",
            "Open client connections",
            &[],
            move || s.active_connections.load(Ordering::Relaxed),
        );
    }
    {
        let s = Arc::clone(shared);
        reg.gauge(
            "rack_pending_requests",
            "Requests parked in the pending table",
            &[],
            move || s.pending_now.load(Ordering::Relaxed),
        );
    }
    for i in 0..shared.table.len() {
        let label = i.to_string();
        let labels: &[(&str, &str)] = &[("backend", &label)];
        let s = Arc::clone(shared);
        reg.gauge(
            "rack_backend_up",
            "1 while the backend is accepting new work",
            labels,
            move || u64::from(s.table.get(i).state() == BackendState::Healthy),
        );
        let s = Arc::clone(shared);
        reg.gauge(
            "rack_backend_inflight",
            "Requests in flight to the backend",
            labels,
            move || s.table.get(i).inflight(),
        );
        let s = Arc::clone(shared);
        reg.gauge(
            "rack_backend_depth_estimate",
            "Balancer's current queue-depth estimate",
            labels,
            move || s.table.estimated_depth(i),
        );
        let s = Arc::clone(shared);
        reg.counter(
            "rack_backend_forwarded_total",
            "Requests ever forwarded to the backend",
            labels,
            move || s.table.get(i).forwarded(),
        );
        let s = Arc::clone(shared);
        reg.counter(
            "rack_backend_deaths_total",
            "Times the backend's connection was lost",
            labels,
            move || s.table.get(i).deaths(),
        );
    }
}
