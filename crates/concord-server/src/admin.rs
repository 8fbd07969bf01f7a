//! The live introspection plane: a tiny HTTP listener beside the data
//! plane serving `/metrics`, `/healthz`, `/statz` and `/trace/dump`.
//!
//! Everything here is *read-side*: the data plane keeps publishing into
//! the relaxed atomics, telemetry aggregates and trace rings it already
//! owns, and each scrape evaluates registered read closures over those
//! structures in one pass ([`MetricsRegistry`]). The admin listener runs
//! on its own thread (one epoll loop, `Connection: close` per response),
//! so a slow scraper can never back-pressure request serving.
//!
//! Routes:
//!
//! - `GET /metrics` — Prometheus text exposition 0.0.4: per-shard
//!   scheduler/admission counters, per-loop event-loop in-flight gauge
//!   and sleep counter, front-end connection counters, and the
//!   latency/preemption/slowdown histograms with cumulative buckets,
//!   plus per-class labeled series.
//! - `GET /healthz` — liveness: `{"status":"ok"}` plus uptime.
//! - `GET /statz` — the dashboard document `concord-top` renders:
//!   server identity, cross-shard totals, per-shard rows and per-class
//!   latency percentiles, as JSON.
//! - `POST /trace/dump` — freezes the flight recorder (drain, compact
//!   and copy under the collector lock; emit lanes never block) and
//!   returns the retained window as Perfetto JSON.

use crate::server::FrontShared;
use concord_core::{ShardObserver, TelemetrySnapshot};
use concord_metrics::Histogram;
use concord_obs::http::{HttpRequest, HttpResponse, HttpServer};
use concord_obs::json::Json;
use concord_obs::registry::{HistSample, MetricKind, MetricsRegistry, ScalarSample};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Everything the admin routes read: the front end's shared state, the
/// per-shard runtime observers, and the fixed-series registry built once
/// at startup.
pub(crate) struct AdminState {
    shared: Arc<FrontShared>,
    observer: ShardObserver,
    policy: String,
    started: Instant,
    registry: MetricsRegistry,
}

impl AdminState {
    pub(crate) fn new(
        shared: Arc<FrontShared>,
        observer: ShardObserver,
        policy: String,
    ) -> Arc<AdminState> {
        let state = AdminState {
            shared,
            observer,
            policy,
            started: Instant::now(),
            registry: MetricsRegistry::new(),
        };
        state.register_fixed_series();
        Arc::new(state)
    }

    /// Registers every series whose identity is known at startup: the
    /// per-shard scheduler and admission counters, the front-end
    /// connection counters, and the merged latency histograms. Per-class
    /// series are label-dynamic and appended at scrape time instead
    /// ([`class_series`]).
    fn register_fixed_series(&self) {
        let reg = &self.registry;
        for shard in 0..self.observer.num_shards() {
            let label = shard.to_string();
            let labels: &[(&str, &str)] = &[("shard", label.as_str())];
            let s = self.observer.stats(shard).clone();
            macro_rules! shard_counter {
                ($name:expr, $help:expr, $read:expr) => {{
                    let s = s.clone();
                    reg.counter($name, $help, labels, move || $read(&s));
                }};
            }
            shard_counter!(
                "concord_ingested_total",
                "Requests this shard's dispatcher polled from its ingress",
                |s: &Arc<concord_core::RuntimeStats>| s.ingested.load(Ordering::Relaxed)
            );
            shard_counter!(
                "concord_completed_total",
                "Requests completed on this shard (workers + dispatcher)",
                |s: &Arc<concord_core::RuntimeStats>| s.completed()
            );
            shard_counter!(
                "concord_failed_total",
                "Contained handler failures on this shard",
                |s: &Arc<concord_core::RuntimeStats>| s.failed.load(Ordering::Relaxed)
            );
            shard_counter!(
                "concord_tx_dropped_total",
                "Responses dropped on this shard's TX path under backpressure",
                |s: &Arc<concord_core::RuntimeStats>| s.tx_dropped.load(Ordering::Relaxed)
            );
            shard_counter!(
                "concord_preemptions_total",
                "Preemption signals honored on this shard",
                |s: &Arc<concord_core::RuntimeStats>| s.preemptions.load(Ordering::Relaxed)
            );
            shard_counter!(
                "concord_signals_sent_total",
                "Preemption signals stored by this shard's dispatcher",
                |s: &Arc<concord_core::RuntimeStats>| s.signals_sent.load(Ordering::Relaxed)
            );
            shard_counter!(
                "concord_preempt_deferred_total",
                "Slice generations whose quantum expiry was seen with nobody waiting (not signaled)",
                |s: &Arc<concord_core::RuntimeStats>| s.expiries_deferred.load(Ordering::Relaxed)
            );
            shard_counter!(
                "concord_shard_offloaded_total",
                "Tasks this shard shed into its overflow ring",
                |s: &Arc<concord_core::RuntimeStats>| s.shard_offloaded.load(Ordering::Relaxed)
            );
            shard_counter!(
                "concord_shard_reclaimed_total",
                "Tasks this shard reclaimed from its own overflow ring",
                |s: &Arc<concord_core::RuntimeStats>| s.shard_reclaimed.load(Ordering::Relaxed)
            );
            shard_counter!(
                "concord_shard_steals_total",
                "Tasks this shard stole from sibling overflow rings",
                |s: &Arc<concord_core::RuntimeStats>| s.shard_steals_in.load(Ordering::Relaxed)
            );
            let q = self.shared.admissions[shard].clone();
            let qc = q.counters();
            reg.counter(
                "concord_admission_admitted_total",
                "Requests the shard's admission gate admitted",
                labels,
                move || qc.admitted.load(Ordering::Relaxed),
            );
            let qc = q.counters();
            reg.counter(
                "concord_admission_shed_total",
                "Requests the shard's admission gate shed (dropped or rejected)",
                labels,
                move || qc.shed(),
            );
            let qd = q.clone();
            reg.gauge(
                "concord_admission_depth",
                "Requests waiting in the shard's admission queue",
                labels,
                move || qd.len() as u64,
            );
        }

        for (i, ls) in self.shared.loops.iter().enumerate() {
            let label = i.to_string();
            let labels: &[(&str, &str)] = &[("loop", label.as_str())];
            let l = ls.clone();
            reg.gauge(
                "concord_io_in_flight",
                "Requests this event loop admitted whose response is not yet settled (the loop polls while > 0)",
                labels,
                move || l.in_flight(),
            );
            let l = ls.clone();
            reg.counter(
                "concord_io_loop_sleeps_total",
                "Times this event loop blocked in epoll_wait with nothing in flight",
                labels,
                move || l.sleeps(),
            );
        }

        let sh = self.shared.clone();
        reg.counter(
            "concord_connections_accepted_total",
            "Connections accepted and fully set up",
            &[],
            move || sh.accepted.load(Ordering::Relaxed),
        );
        let sh = self.shared.clone();
        reg.counter(
            "concord_connections_refused_total",
            "Connections refused (slots exhausted or setup failure)",
            &[],
            move || sh.refused.load(Ordering::Relaxed),
        );
        let sh = self.shared.clone();
        reg.gauge(
            "concord_connections_active",
            "Connections whose client has not closed its sending side",
            &[],
            move || sh.active_conns.load(Ordering::Relaxed),
        );
        let sh = self.shared.clone();
        reg.counter(
            "concord_protocol_errors_total",
            "Connections torn down on a malformed frame",
            &[],
            move || sh.protocol_errors.load(Ordering::Relaxed),
        );
        let sh = self.shared.clone();
        reg.counter(
            "concord_retries_dropped_total",
            "Admission RETRY answers dropped on a full outbox",
            &[],
            move || sh.retries_dropped.load(Ordering::Relaxed),
        );
        let sh = self.shared.clone();
        reg.counter(
            "concord_orphaned_responses_total",
            "Responses whose connection was gone when they reached its event loop",
            &[],
            move || sh.orphaned.load(Ordering::Relaxed),
        );
        let started = self.started;
        reg.gauge(
            "concord_uptime_seconds",
            "Seconds since the server started",
            &[],
            move || started.elapsed().as_secs(),
        );
        reg.gauge(
            "concord_server_info",
            "Constant 1; the label carries the scheduling policy",
            &[("policy", self.policy.as_str())],
            || 1,
        );

        // Merged-across-shards latency distributions. Each read takes
        // the same brief telemetry locks Runtime::telemetry() does.
        let obs = self.observer.clone();
        reg.histogram(
            "concord_queueing_delay_ns",
            "Ingest to first execution, nanoseconds",
            &[],
            move || merged(&obs, |t| t.breakdown.queueing.clone()),
        );
        let obs = self.observer.clone();
        reg.histogram(
            "concord_service_time_ns",
            "Measured busy time per request, nanoseconds",
            &[],
            move || merged(&obs, |t| t.breakdown.service.clone()),
        );
        let obs = self.observer.clone();
        reg.histogram(
            "concord_sojourn_ns",
            "Ingest to completion, nanoseconds",
            &[],
            move || merged(&obs, |t| t.breakdown.sojourn.clone()),
        );
        let obs = self.observer.clone();
        reg.histogram(
            "concord_slowdown_hundredths",
            "Sojourn over nominal service time, in hundredths (150 = 1.5x)",
            &[],
            move || merged(&obs, |t| t.breakdown.slowdown.histogram().clone()),
        );
        let obs = self.observer.clone();
        reg.histogram(
            "concord_preemption_latency_ns",
            "Signal store to yield, nanoseconds, one sample per preemption",
            &[],
            move || merged(&obs, |t| t.preemption_latency.clone()),
        );
    }

    /// Builds the per-class labeled series for one scrape. Classes
    /// appear as traffic does, so these cannot be registered up front;
    /// they are appended to the fixed snapshot instead, keeping the
    /// whole scrape one coherent pass.
    fn class_series(&self, scalars: &mut Vec<ScalarSample>, hists: &mut Vec<HistSample>) {
        // Completion-side rows, merged class-wise across shards.
        let mut classes: std::collections::BTreeMap<u16, concord_core::ClassTelemetry> =
            std::collections::BTreeMap::new();
        for shard in 0..self.observer.num_shards() {
            for (class, c) in self.observer.telemetry(shard).per_class {
                classes.entry(class).or_default().merge(&c);
            }
        }
        for (class, c) in &classes {
            let labels = vec![("class".to_string(), class.to_string())];
            scalars.push(ScalarSample {
                name: "concord_class_completed_total".into(),
                help: "Completions of this request class".into(),
                kind: MetricKind::Counter,
                labels: labels.clone(),
                value: c.completed,
            });
            scalars.push(ScalarSample {
                name: "concord_class_failed_total".into(),
                help: "Contained-failure completions of this request class".into(),
                kind: MetricKind::Counter,
                labels: labels.clone(),
                value: c.failed,
            });
            hists.push(hist_sample(
                "concord_class_sojourn_ns",
                "Ingest to completion for this request class, nanoseconds",
                labels.clone(),
                &c.sojourn,
            ));
            hists.push(hist_sample(
                "concord_class_slowdown_hundredths",
                "Slowdown for this request class, in hundredths (150 = 1.5x)",
                labels,
                c.slowdown.histogram(),
            ));
        }
        // Admission-side rows (admitted/shed/SLO-shed per class), summed
        // across the per-shard gates.
        let mut admitted: std::collections::BTreeMap<u16, (u64, u64, u64)> =
            std::collections::BTreeMap::new();
        for q in self.shared.admissions.iter() {
            for (class, a) in q.counters().per_class() {
                let e = admitted.entry(class).or_default();
                e.0 += a.admitted;
                e.1 += a.dropped_newest + a.dropped_oldest + a.rejected + a.slo_shed;
                e.2 += a.slo_shed;
            }
        }
        for (class, (adm, shed, slo_shed)) in &admitted {
            let labels = vec![("class".to_string(), class.to_string())];
            scalars.push(ScalarSample {
                name: "concord_class_admitted_total".into(),
                help: "Requests of this class the admission gates admitted".into(),
                kind: MetricKind::Counter,
                labels: labels.clone(),
                value: *adm,
            });
            scalars.push(ScalarSample {
                name: "concord_class_rejected_total".into(),
                help: "Requests of this class the admission gates shed".into(),
                kind: MetricKind::Counter,
                labels: labels.clone(),
                value: *shed,
            });
            scalars.push(ScalarSample {
                name: "concord_class_slo_shed_total".into(),
                help: "Requests of this class shed for blowing their p99 SLO budget".into(),
                kind: MetricKind::Counter,
                labels,
                value: *slo_shed,
            });
        }
        // Control-plane rows: each shard's live per-class preemption
        // quantum, and (for budgeted classes) the SLO budget and blown
        // bit. Classes come from the union of the completion- and
        // admission-side sets above.
        let mut all: std::collections::BTreeSet<u16> = classes.keys().copied().collect();
        all.extend(admitted.keys().copied());
        for class in all {
            for shard in 0..self.observer.num_shards() {
                let labels = vec![
                    ("shard".to_string(), shard.to_string()),
                    ("class".to_string(), class.to_string()),
                ];
                scalars.push(ScalarSample {
                    name: "concord_class_quantum_ns".into(),
                    help: "Live preemption quantum for this class, nanoseconds".into(),
                    kind: MetricKind::Gauge,
                    labels: labels.clone(),
                    value: self.observer.quanta(shard).get_ns(class),
                });
                if self.observer.slo(shard).any_budget() {
                    scalars.push(ScalarSample {
                        name: "concord_class_slo_blown".into(),
                        help: "1 while this class is shed for blowing its p99 budget".into(),
                        kind: MetricKind::Gauge,
                        labels,
                        value: u64::from(self.observer.slo(shard).should_shed(class)),
                    });
                }
            }
            // Budgets are per-config, identical across shards.
            let budget = self
                .observer
                .slo(0)
                .budget_ns(concord_core::class_slot(class));
            if budget > 0 {
                scalars.push(ScalarSample {
                    name: "concord_class_slo_budget_ns".into(),
                    help: "Configured p99 sojourn budget for this class, nanoseconds".into(),
                    kind: MetricKind::Gauge,
                    labels: vec![("class".to_string(), class.to_string())],
                    value: budget,
                });
            }
        }
    }

    fn metrics(&self) -> HttpResponse {
        let mut snap = self.registry.snapshot();
        self.class_series(&mut snap.scalars, &mut snap.hists);
        HttpResponse::ok(
            "text/plain; version=0.0.4; charset=utf-8",
            concord_obs::expo::render_prometheus(&snap),
        )
    }

    fn healthz(&self) -> HttpResponse {
        let doc = Json::obj(vec![
            ("status", Json::Str("ok".into())),
            ("uptime_s", Json::U64(self.started.elapsed().as_secs())),
        ]);
        HttpResponse::ok("application/json", doc.render())
    }

    fn statz(&self) -> HttpResponse {
        let rollup = self.observer.rollup();
        let mut shed = 0u64;
        for q in self.shared.admissions.iter() {
            shed += q.counters().shed();
        }
        let mut preemptions = 0u64;
        let mut expiries_deferred = 0u64;
        let mut shards = Vec::with_capacity(self.observer.num_shards());
        let mut classes: std::collections::BTreeMap<u16, concord_core::ClassTelemetry> =
            std::collections::BTreeMap::new();
        for (i, row) in rollup.per_shard.iter().enumerate() {
            let s = self.observer.stats(i);
            let t = self.observer.telemetry(i);
            preemptions += s.preemptions.load(Ordering::Relaxed);
            expiries_deferred += s.expiries_deferred.load(Ordering::Relaxed);
            for (class, c) in &t.per_class {
                classes.entry(*class).or_default().merge(c);
            }
            shards.push(Json::obj(vec![
                ("shard", Json::U64(i as u64)),
                ("depth", Json::U64(self.shared.admissions[i].len() as u64)),
                ("ingested", Json::U64(row.ingested)),
                ("completed", Json::U64(row.completed)),
                (
                    "preemptions",
                    Json::U64(s.preemptions.load(Ordering::Relaxed)),
                ),
                (
                    "expiries_deferred",
                    Json::U64(s.expiries_deferred.load(Ordering::Relaxed)),
                ),
                ("stolen", Json::U64(row.steals_in)),
                (
                    "telemetry",
                    Json::obj(vec![
                        (
                            "queueing_p99_us",
                            Json::Num(t.queueing_p99_ns() as f64 / 1e3),
                        ),
                        (
                            "sojourn_p99_us",
                            Json::Num(t.breakdown.sojourn_ns(0.99) as f64 / 1e3),
                        ),
                        ("slowdown_p999", Json::Num(t.slowdown_p999())),
                    ]),
                ),
            ]));
        }
        // Per-class rows: completion-side percentiles merged class-wise
        // across shards, joined with the admission gates' per-class
        // admitted/shed tallies.
        let mut admitted: std::collections::BTreeMap<u16, (u64, u64, u64)> =
            std::collections::BTreeMap::new();
        for q in self.shared.admissions.iter() {
            for (class, a) in q.counters().per_class() {
                let e = admitted.entry(class).or_default();
                e.0 += a.admitted;
                e.1 += a.dropped_newest + a.dropped_oldest + a.rejected + a.slo_shed;
                e.2 += a.slo_shed;
            }
        }
        let class_rows: Vec<Json> = classes
            .iter()
            .map(|(class, c)| {
                let (adm, rej, slo_shed) = admitted.get(class).copied().unwrap_or((0, 0, 0));
                // The quantum table is per-shard but retuned from the
                // same control law; report shard 0's value as the
                // representative. Blown is an any-shard OR.
                let quantum_ns = self.observer.quanta(0).get_ns(*class);
                let budget_ns = self
                    .observer
                    .slo(0)
                    .budget_ns(concord_core::class_slot(*class));
                let blown = (0..self.observer.num_shards())
                    .any(|s| self.observer.slo(s).should_shed(*class));
                Json::obj(vec![
                    ("class", Json::U64(u64::from(*class))),
                    ("ingested", Json::U64(adm)),
                    ("completed", Json::U64(c.completed)),
                    ("rejected", Json::U64(rej)),
                    ("slo_shed", Json::U64(slo_shed)),
                    ("quantum_us", Json::Num(quantum_ns as f64 / 1e3)),
                    ("slo_budget_us", Json::Num(budget_ns as f64 / 1e3)),
                    ("slo_blown", Json::Bool(blown)),
                    (
                        "sojourn_p50_us",
                        Json::Num(c.sojourn.percentile(50.0) as f64 / 1e3),
                    ),
                    (
                        "sojourn_p99_us",
                        Json::Num(c.sojourn.percentile(99.0) as f64 / 1e3),
                    ),
                    (
                        "sojourn_p999_us",
                        Json::Num(c.sojourn.percentile(99.9) as f64 / 1e3),
                    ),
                    ("slowdown_p99", Json::Num(c.slowdown.p99())),
                ])
            })
            .collect();
        let doc = Json::obj(vec![
            (
                "server",
                Json::obj(vec![
                    ("policy", Json::Str(self.policy.clone())),
                    ("uptime_s", Json::U64(self.started.elapsed().as_secs())),
                    (
                        "active_connections",
                        Json::U64(self.shared.active_conns.load(Ordering::Relaxed)),
                    ),
                    (
                        "draining",
                        Json::Bool(self.shared.stop.load(Ordering::Acquire)),
                    ),
                ]),
            ),
            (
                "totals",
                Json::obj(vec![
                    ("ingested", Json::U64(rollup.total_ingested())),
                    ("completed", Json::U64(rollup.total_completed())),
                    ("failed", Json::U64(rollup.total_failed())),
                    ("tx_dropped", Json::U64(rollup.total_tx_dropped())),
                    ("shed", Json::U64(shed)),
                    ("preemptions", Json::U64(preemptions)),
                    ("expiries_deferred", Json::U64(expiries_deferred)),
                ]),
            ),
            ("shards", Json::Arr(shards)),
            ("classes", Json::Arr(class_rows)),
        ]);
        HttpResponse::ok("application/json", doc.render())
    }

    fn trace_dump(&self) -> HttpResponse {
        match self.observer.trace_snapshot() {
            Some(trace) => HttpResponse::ok(
                "application/json",
                concord_core::trace::perfetto::to_json(&trace),
            ),
            None => HttpResponse::text(409, "tracing disarmed (runtime built with trace=false)"),
        }
    }

    fn handle(&self, req: &HttpRequest) -> HttpResponse {
        // Ignore any query string: route on the bare path.
        let path = req.path.split('?').next().unwrap_or("");
        match (req.method.as_str(), path) {
            ("GET", "/metrics") => self.metrics(),
            ("GET", "/healthz") => self.healthz(),
            ("GET", "/statz") => self.statz(),
            ("POST", "/trace/dump") => self.trace_dump(),
            ("GET", "/trace/dump") => {
                HttpResponse::text(405, "use POST (dumping freezes and copies the recorder)")
            }
            _ => HttpResponse::text(404, "routes: /metrics /healthz /statz POST /trace/dump"),
        }
    }
}

/// Merges one telemetry-derived histogram across every shard.
fn merged(obs: &ShardObserver, pick: impl Fn(&TelemetrySnapshot) -> Histogram) -> Histogram {
    let mut out: Option<Histogram> = None;
    for shard in 0..obs.num_shards() {
        let h = pick(&obs.telemetry(shard));
        match &mut out {
            Some(acc) => acc.merge(&h),
            None => out = Some(h),
        }
    }
    out.unwrap_or_else(|| Histogram::new(3))
}

fn hist_sample(name: &str, help: &str, labels: Vec<(String, String)>, h: &Histogram) -> HistSample {
    HistSample {
        name: name.into(),
        help: help.into(),
        labels,
        buckets: h.cumulative().collect(),
        count: h.len(),
        sum: h.sum(),
    }
}

/// The admin listener: owns the HTTP server thread serving
/// [`AdminState`]'s routes.
pub(crate) struct AdminPlane {
    http: Option<HttpServer>,
}

impl AdminPlane {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts serving.
    pub(crate) fn start(addr: &str, state: Arc<AdminState>) -> io::Result<AdminPlane> {
        let http = HttpServer::bind(addr, Arc::new(move |req| state.handle(req)))?;
        Ok(AdminPlane { http: Some(http) })
    }

    /// The bound admin address (useful with port 0).
    pub(crate) fn local_addr(&self) -> Option<SocketAddr> {
        self.http.as_ref().map(|h| h.local_addr())
    }

    /// Stops the listener thread. Idempotent.
    pub(crate) fn shutdown(&mut self) {
        if let Some(h) = self.http.take() {
            h.shutdown();
        }
    }
}
