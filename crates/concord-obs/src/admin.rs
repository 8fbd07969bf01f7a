//! The admin plane every tier serves: one [`HttpServer`] routing
//! `GET /metrics`, `GET /healthz` and a tier's own routes.
//!
//! - `GET /metrics` renders the tier's [`MetricsRegistry`] as Prometheus
//!   text 0.0.4.
//! - `GET /healthz` answers `{"status":"ok","uptime_s":…}` with 200 while
//!   the tier's health predicate holds, and `"unavailable"` with 503
//!   otherwise (a server that is shutting down, a rack with no backend
//!   accepting work).
//!
//! Routing is on the bare path: a query string never changes the route.
//! A known path asked with the wrong method is a 405; an unknown path is
//! a 404 whose body lists the routes.

use crate::http::{HttpRequest, HttpResponse, HttpServer};
use crate::json::Json;
use crate::{render_prometheus, MetricsRegistry};
use std::io;
use std::net::ToSocketAddrs;
use std::sync::Arc;
use std::time::Instant;

type RouteFn = Box<dyn Fn(&HttpRequest) -> HttpResponse + Send + Sync>;

/// One route: a method and an exact path or a path prefix, mapped to a
/// handler. Handlers see the request with its query string stripped.
pub struct Route {
    method: &'static str,
    path: &'static str,
    prefix: bool,
    handler: RouteFn,
}

impl Route {
    /// `method` on exactly `path`.
    pub fn exact(
        method: &'static str,
        path: &'static str,
        handler: impl Fn(&HttpRequest) -> HttpResponse + Send + Sync + 'static,
    ) -> Route {
        Route {
            method,
            path,
            prefix: false,
            handler: Box::new(handler),
        }
    }

    /// `method` on every path that starts with `prefix`.
    pub fn prefix(
        method: &'static str,
        prefix: &'static str,
        handler: impl Fn(&HttpRequest) -> HttpResponse + Send + Sync + 'static,
    ) -> Route {
        Route {
            prefix: true,
            ..Route::exact(method, prefix, handler)
        }
    }

    fn matches(&self, path: &str) -> bool {
        if self.prefix {
            path.starts_with(self.path)
        } else {
            path == self.path
        }
    }
}

/// Binds `addr` (port 0 picks a free port) and serves `/metrics` from
/// `registry`, `/healthz` from `healthy`, and `routes`. Dropping the
/// returned server (or [`HttpServer::shutdown`]) stops it.
pub fn serve(
    addr: impl ToSocketAddrs,
    registry: MetricsRegistry,
    healthy: impl Fn() -> bool + Send + Sync + 'static,
    routes: Vec<Route>,
) -> io::Result<HttpServer> {
    let started = Instant::now();
    let mut all = vec![
        Route::exact("GET", "/metrics", move |_| {
            HttpResponse::ok(
                "text/plain; version=0.0.4; charset=utf-8",
                render_prometheus(&registry.snapshot()),
            )
        }),
        Route::exact("GET", "/healthz", move |_| {
            let ok = healthy();
            let doc = Json::obj(vec![
                (
                    "status",
                    Json::Str(if ok { "ok" } else { "unavailable" }.into()),
                ),
                ("uptime_s", Json::U64(started.elapsed().as_secs())),
            ]);
            HttpResponse {
                status: if ok { 200 } else { 503 },
                ..HttpResponse::ok("application/json", doc.render())
            }
        }),
    ];
    all.extend(routes);
    let listing: Vec<String> = all
        .iter()
        .map(|r| format!("{} {}{}", r.method, r.path, if r.prefix { "*" } else { "" }))
        .collect();
    let listing = format!("routes: {}\n", listing.join(", "));
    HttpServer::bind(
        addr,
        Arc::new(move |req: &HttpRequest| {
            let mut req = req.clone();
            if let Some(q) = req.path.find('?') {
                req.path.truncate(q);
            }
            let mut known = false;
            for r in all.iter().filter(|r| r.matches(&req.path)) {
                if r.method == req.method {
                    return (r.handler)(&req);
                }
                known = true;
            }
            HttpResponse::text(if known { 405 } else { 404 }, &listing)
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::fetch;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    const T: Duration = Duration::from_secs(5);

    fn get(addr: std::net::SocketAddr, method: &str, path: &str) -> (u16, String) {
        let (code, body) = fetch(addr, method, path, T).expect("fetch");
        (code, String::from_utf8(body).expect("utf8"))
    }

    #[test]
    fn serves_metrics_health_and_routes_on_the_bare_path() {
        let reg = MetricsRegistry::new();
        reg.counter("x_total", "an x", &[], || 3);
        let up = Arc::new(AtomicBool::new(true));
        let health = up.clone();
        let srv = serve(
            "127.0.0.1:0",
            reg,
            move || health.load(Ordering::Relaxed),
            vec![
                Route::exact("GET", "/statz", |_| HttpResponse::ok("text/plain", "s")),
                Route::prefix("POST", "/item/", |req| {
                    HttpResponse::ok("text/plain", req.path.clone())
                }),
            ],
        )
        .expect("bind");
        let addr = srv.local_addr();

        let (code, body) = get(addr, "GET", "/metrics?x=1");
        assert_eq!(code, 200);
        assert!(body.contains("x_total 3"), "{body}");

        let (code, body) = get(addr, "GET", "/healthz?verbose=1");
        assert_eq!(code, 200);
        let doc = Json::parse(&body).expect("json");
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("ok"));
        assert!(doc.get("uptime_s").and_then(Json::as_u64).is_some());
        up.store(false, Ordering::Relaxed);
        let (code, body) = get(addr, "GET", "/healthz");
        assert_eq!(code, 503);
        assert!(body.contains("\"unavailable\""), "{body}");

        assert_eq!(get(addr, "GET", "/statz").0, 200);
        // The handler sees the path without its query string.
        assert_eq!(get(addr, "POST", "/item/4?x=y"), (200, "/item/4".into()));
        assert_eq!(get(addr, "GET", "/item/4").0, 405);
        assert_eq!(get(addr, "POST", "/statz").0, 405);
        let (code, body) = get(addr, "GET", "/nope");
        assert_eq!(code, 404);
        assert!(
            body.contains("GET /metrics") && body.contains("POST /item/*"),
            "{body}"
        );
        srv.shutdown();
    }
}
