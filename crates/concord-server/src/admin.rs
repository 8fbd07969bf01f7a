//! The server's introspection plane: [`concord_obs::admin`] serving
//! `/metrics`, `/healthz`, `/statz` and `/trace/dump` beside the data
//! plane.
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
//!   scheduler/admission counters and in-flight gauge, front-end
//!   connection counters, and the
//!   latency/preemption/slowdown histograms with cumulative buckets,
//!   plus per-class labeled series.
//! - `GET /healthz` — `{"status":"ok"}` plus uptime while the admission
//!   gates are open; `"unavailable"` (503) once shutdown has closed them.
//! - `GET /statz` — the dashboard document `concord-top` renders:
//!   server identity, cross-shard totals, per-shard rows and per-class
//!   latency percentiles, as JSON.
//! - `POST /trace/dump` — freezes the flight recorder (drain, compact
//!   and copy under the collector lock; emit lanes never block) and
//!   returns the retained window as Perfetto JSON.

use crate::server::FrontShared;
use concord_core::{ClassTelemetry, RuntimeStats, ShardObserver, TelemetrySnapshot};
use concord_metrics::Histogram;
use concord_obs::admin::{self, Route};
use concord_obs::http::{HttpResponse, HttpServer};
use concord_obs::json::Json;
use concord_obs::registry::{MetricKind, MetricsRegistry, MetricsSnapshot};
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Binds `addr` (e.g. `"127.0.0.1:0"`) and serves the server's admin
/// routes over `shared` and `observer`.
pub(crate) fn serve(
    addr: &str,
    shared: Arc<FrontShared>,
    observer: ShardObserver,
    policy: String,
) -> io::Result<HttpServer> {
    let started = Instant::now();
    let registry = MetricsRegistry::new();
    register(&registry, &shared, &observer, &policy, started);
    {
        let (shared, observer) = (shared.clone(), observer.clone());
        registry.per_scrape(move |snap| scrape(&shared, &observer, snap));
    }
    let healthy = {
        let shared = shared.clone();
        move || !shared.stop.load(Ordering::Acquire)
    };
    let statz = {
        let observer = observer.clone();
        move |_: &_| statz(&shared, &observer, &policy, started)
    };
    let dump = move |_: &_| match observer.trace_snapshot() {
        Some(trace) => HttpResponse::ok(
            "application/json",
            concord_core::trace::perfetto::to_json(&trace),
        ),
        None => HttpResponse::text(409, "tracing disarmed (runtime built with trace=false)"),
    };
    admin::serve(
        addr,
        registry,
        healthy,
        vec![
            Route::exact("GET", "/statz", statz),
            Route::exact("POST", "/trace/dump", dump),
        ],
    )
}

/// A counter family read off one structure: name, help, read.
type Family<T> = (&'static str, &'static str, fn(&T) -> u64);

/// Each shard's scheduler counters.
const SHARD_COUNTERS: [Family<RuntimeStats>; 9] = [
    (
        "concord_ingested_total",
        "Requests this shard's dispatcher polled from its ingress",
        |s| s.ingested.load(Ordering::Relaxed),
    ),
    (
        "concord_completed_total",
        "Requests completed on this shard (workers + dispatcher)",
        |s| s.completed(),
    ),
    (
        "concord_failed_total",
        "Contained handler failures on this shard",
        |s| s.failed.load(Ordering::Relaxed),
    ),
    (
        "concord_tx_dropped_total",
        "Responses dropped on this shard's TX path under backpressure",
        |s| s.tx_dropped.load(Ordering::Relaxed),
    ),
    (
        "concord_preemptions_total",
        "Preemption signals honored on this shard",
        |s| s.preemptions.load(Ordering::Relaxed),
    ),
    (
        "concord_signals_sent_total",
        "Preemption signals stored by this shard's dispatcher",
        |s| s.signals_sent.load(Ordering::Relaxed),
    ),
    (
        "concord_preempt_deferred_total",
        "Slice generations whose quantum expiry was seen with nobody waiting (not signaled)",
        |s| s.expiries_deferred.load(Ordering::Relaxed),
    ),
    (
        "concord_shard_offloaded_total",
        "Never-started tasks this shard handed to a sibling that asked",
        |s| s.shard_offloaded.load(Ordering::Relaxed),
    ),
    (
        "concord_shard_steals_total",
        "Tasks this shard took from a sibling after asking",
        |s| s.shard_steals_in.load(Ordering::Relaxed),
    ),
];

/// The front end's connection-level counters.
const FRONT_COUNTERS: [Family<FrontShared>; 5] = [
    (
        "concord_connections_accepted_total",
        "Connections accepted and fully set up",
        |f| f.accepted.load(Ordering::Relaxed),
    ),
    (
        "concord_connections_refused_total",
        "Connections refused (slots exhausted or setup failure)",
        |f| f.refused.load(Ordering::Relaxed),
    ),
    (
        "concord_protocol_errors_total",
        "Connections torn down on a malformed frame",
        |f| f.protocol_errors.load(Ordering::Relaxed),
    ),
    (
        "concord_retries_dropped_total",
        "Admission RETRY answers dropped on a full outbox",
        |f| f.retries_dropped.load(Ordering::Relaxed),
    ),
    (
        "concord_orphaned_responses_total",
        "Responses whose connection was gone when they reached its shard",
        |f| f.orphaned.load(Ordering::Relaxed),
    ),
];

/// Registers every series whose identity is known at startup and whose
/// value is one load: the per-shard scheduler and admission counters and
/// the front end's connection series. Telemetry-derived series
/// are read once per scrape instead ([`scrape`]).
fn register(
    reg: &MetricsRegistry,
    shared: &Arc<FrontShared>,
    observer: &ShardObserver,
    policy: &str,
    started: Instant,
) {
    for shard in 0..observer.num_shards() {
        let label = shard.to_string();
        let labels: &[(&str, &str)] = &[("shard", label.as_str())];
        for (name, help, read) in SHARD_COUNTERS {
            let s = observer.stats(shard).clone();
            reg.counter(name, help, labels, move || read(&s));
        }
        let q = shared.admissions[shard].clone();
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
        reg.gauge(
            "concord_admission_depth",
            "Requests waiting in the shard's admission queue",
            labels,
            move || q.len() as u64,
        );
        let f = shared.clone();
        reg.gauge(
            "concord_io_in_flight",
            "Requests this shard's connections sent that were admitted and are not yet settled",
            labels,
            move || f.shards[shard].in_flight(),
        );
    }

    for (name, help, read) in FRONT_COUNTERS {
        let f = shared.clone();
        reg.counter(name, help, &[], move || read(&f));
    }
    let f = shared.clone();
    reg.gauge(
        "concord_connections_active",
        "Connections whose client has not closed its sending side",
        &[],
        move || f.active_conns.load(Ordering::Relaxed),
    );
    reg.gauge(
        "concord_uptime_seconds",
        "Seconds since the server started",
        &[],
        move || started.elapsed().as_secs(),
    );
    reg.gauge(
        "concord_server_info",
        "Constant 1; the label carries the scheduling policy",
        &[("policy", policy)],
        || 1,
    );
}

/// Each shard's telemetry snapshot, in shard order.
fn telemetry(observer: &ShardObserver) -> Vec<TelemetrySnapshot> {
    (0..observer.num_shards())
        .map(|s| observer.telemetry(s))
        .collect()
}

/// Per-class admission tallies summed across the per-shard gates:
/// `(admitted, shed, slo_shed)`.
type Admitted = BTreeMap<u16, (u64, u64, u64)>;

/// The per-class rows `/metrics` and `/statz` both report: completion
/// telemetry merged class-wise across shards, and the admission gates'
/// per-class tallies.
fn per_class(
    shared: &FrontShared,
    tels: &[TelemetrySnapshot],
) -> (BTreeMap<u16, ClassTelemetry>, Admitted) {
    let mut classes: BTreeMap<u16, ClassTelemetry> = BTreeMap::new();
    for t in tels {
        for (class, c) in &t.per_class {
            classes.entry(*class).or_default().merge(c);
        }
    }
    let mut admitted = Admitted::new();
    for q in shared.admissions.iter() {
        for (class, a) in q.counters().per_class() {
            let e = admitted.entry(class).or_default();
            e.0 += a.admitted;
            e.1 += a.dropped_newest + a.dropped_oldest + a.rejected + a.slo_shed;
            e.2 += a.slo_shed;
        }
    }
    (classes, admitted)
}

/// The per-scrape source: every telemetry-derived series, from one
/// telemetry snapshot per shard (each takes the same brief telemetry
/// lock `Runtime::telemetry()` does). The merged latency distributions
/// come first, then the per-class labeled series — classes appear as
/// traffic does, so these cannot be registered up front.
fn scrape(shared: &FrontShared, observer: &ShardObserver, snap: &mut MetricsSnapshot) {
    use MetricKind::{Counter, Gauge};
    let tels = telemetry(observer);
    snap.push_hist(
        "concord_queueing_delay_ns",
        "Ingest to first execution, nanoseconds",
        &[],
        &merged(&tels, |t| &t.breakdown.queueing),
    );
    snap.push_hist(
        "concord_service_time_ns",
        "Measured busy time per request, nanoseconds",
        &[],
        &merged(&tels, |t| &t.breakdown.service),
    );
    snap.push_hist(
        "concord_sojourn_ns",
        "Ingest to completion, nanoseconds",
        &[],
        &merged(&tels, |t| &t.breakdown.sojourn),
    );
    snap.push_hist(
        "concord_slowdown_hundredths",
        "Sojourn over nominal service time, in hundredths (150 = 1.5x)",
        &[],
        &merged(&tels, |t| t.breakdown.slowdown.histogram()),
    );
    snap.push_hist(
        "concord_preemption_latency_ns",
        "Signal store to yield, nanoseconds, one sample per preemption",
        &[],
        &merged(&tels, |t| &t.preemption_latency),
    );
    let (classes, admitted) = per_class(shared, &tels);
    for (class, c) in &classes {
        let class = class.to_string();
        let labels = [("class", class.as_str())];
        snap.push_scalar(
            "concord_class_completed_total",
            "Completions of this request class",
            Counter,
            &labels,
            c.completed,
        );
        snap.push_scalar(
            "concord_class_failed_total",
            "Contained-failure completions of this request class",
            Counter,
            &labels,
            c.failed,
        );
        snap.push_hist(
            "concord_class_sojourn_ns",
            "Ingest to completion for this request class, nanoseconds",
            &labels,
            &c.sojourn,
        );
        snap.push_hist(
            "concord_class_slowdown_hundredths",
            "Slowdown for this request class, in hundredths (150 = 1.5x)",
            &labels,
            c.slowdown.histogram(),
        );
    }
    for (class, (adm, shed, slo_shed)) in &admitted {
        let class = class.to_string();
        let labels = [("class", class.as_str())];
        snap.push_scalar(
            "concord_class_admitted_total",
            "Requests of this class the admission gates admitted",
            Counter,
            &labels,
            *adm,
        );
        snap.push_scalar(
            "concord_class_rejected_total",
            "Requests of this class the admission gates shed",
            Counter,
            &labels,
            *shed,
        );
        snap.push_scalar(
            "concord_class_slo_shed_total",
            "Requests of this class shed for blowing their p99 SLO budget",
            Counter,
            &labels,
            *slo_shed,
        );
    }
    // Control-plane rows: each shard's live per-class preemption
    // quantum, and (for budgeted classes) the SLO budget and blown bit.
    // Classes come from the union of the completion- and admission-side
    // sets above.
    let mut all: BTreeSet<u16> = classes.keys().copied().collect();
    all.extend(admitted.keys().copied());
    for class in all {
        let class_label = class.to_string();
        for shard in 0..observer.num_shards() {
            let shard_label = shard.to_string();
            let labels = [
                ("shard", shard_label.as_str()),
                ("class", class_label.as_str()),
            ];
            snap.push_scalar(
                "concord_class_quantum_ns",
                "Live preemption quantum for this class, nanoseconds",
                Gauge,
                &labels,
                observer.quanta(shard).get_ns(class),
            );
            if observer.slo(shard).any_budget() {
                snap.push_scalar(
                    "concord_class_slo_blown",
                    "1 while this class is shed for blowing its p99 budget",
                    Gauge,
                    &labels,
                    u64::from(observer.slo(shard).should_shed(class)),
                );
            }
        }
        // Budgets are per-config, identical across shards.
        let budget = observer.slo(0).budget_ns(concord_core::class_slot(class));
        if budget > 0 {
            snap.push_scalar(
                "concord_class_slo_budget_ns",
                "Configured p99 sojourn budget for this class, nanoseconds",
                Gauge,
                &[("class", class_label.as_str())],
                budget,
            );
        }
    }
}

/// Microseconds from nanoseconds, as the `/statz` document reports them.
fn us(ns: u64) -> Json {
    Json::Num(ns as f64 / 1e3)
}

fn statz(
    shared: &FrontShared,
    observer: &ShardObserver,
    policy: &str,
    started: Instant,
) -> HttpResponse {
    let rollup = observer.rollup();
    let tels = telemetry(observer);
    let (classes, admitted) = per_class(shared, &tels);
    let shed: u64 = shared.admissions.iter().map(|q| q.counters().shed()).sum();
    let mut preemptions = 0u64;
    let mut expiries_deferred = 0u64;
    let mut shards = Vec::with_capacity(observer.num_shards());
    for (i, (row, t)) in rollup.per_shard.iter().zip(&tels).enumerate() {
        let s = observer.stats(i);
        let shard_preemptions = s.preemptions.load(Ordering::Relaxed);
        let shard_deferred = s.expiries_deferred.load(Ordering::Relaxed);
        preemptions += shard_preemptions;
        expiries_deferred += shard_deferred;
        let telemetry = Json::obj(vec![
            ("queueing_p99_us", us(t.queueing_p99_ns())),
            ("sojourn_p99_us", us(t.breakdown.sojourn_ns(0.99))),
            ("slowdown_p999", Json::Num(t.slowdown_p999())),
        ]);
        shards.push(Json::obj(vec![
            ("shard", Json::U64(i as u64)),
            // What the shard's connections are owed: its gate backlog,
            // the requests being run, and the ones a sibling stole. The
            // gate alone reads ≈ 0: the dispatcher empties it every pass.
            ("depth", Json::U64(shared.shards[i].in_flight())),
            ("ingested", Json::U64(row.ingested)),
            ("completed", Json::U64(row.completed)),
            ("preemptions", Json::U64(shard_preemptions)),
            ("expiries_deferred", Json::U64(shard_deferred)),
            ("stolen", Json::U64(row.steals_in)),
            ("telemetry", telemetry),
        ]));
    }
    let class_rows: Vec<Json> = classes
        .iter()
        .map(|(&class, c)| {
            let (adm, rej, slo_shed) = admitted.get(&class).copied().unwrap_or_default();
            // The quantum table is per-shard but retuned from the same
            // control law; report shard 0's value as the representative.
            // Blown is an any-shard OR.
            let budget_ns = observer.slo(0).budget_ns(concord_core::class_slot(class));
            let blown = (0..observer.num_shards()).any(|s| observer.slo(s).should_shed(class));
            Json::obj(vec![
                ("class", Json::U64(class.into())),
                ("ingested", Json::U64(adm)),
                ("completed", Json::U64(c.completed)),
                ("rejected", Json::U64(rej)),
                ("slo_shed", Json::U64(slo_shed)),
                ("quantum_us", us(observer.quanta(0).get_ns(class))),
                ("slo_budget_us", us(budget_ns)),
                ("slo_blown", Json::Bool(blown)),
                ("sojourn_p50_us", us(c.sojourn.percentile(50.0))),
                ("sojourn_p99_us", us(c.sojourn.percentile(99.0))),
                ("sojourn_p999_us", us(c.sojourn.percentile(99.9))),
                ("slowdown_p99", Json::Num(c.slowdown.p99())),
            ])
        })
        .collect();
    let server = Json::obj(vec![
        ("policy", Json::Str(policy.to_string())),
        ("uptime_s", Json::U64(started.elapsed().as_secs())),
        (
            "active_connections",
            Json::U64(shared.active_conns.load(Ordering::Relaxed)),
        ),
        ("draining", Json::Bool(shared.stop.load(Ordering::Acquire))),
    ]);
    let totals = Json::obj(vec![
        ("ingested", Json::U64(rollup.total_ingested())),
        ("completed", Json::U64(rollup.total_completed())),
        ("failed", Json::U64(rollup.total_failed())),
        ("tx_dropped", Json::U64(rollup.total_tx_dropped())),
        ("shed", Json::U64(shed)),
        ("preemptions", Json::U64(preemptions)),
        ("expiries_deferred", Json::U64(expiries_deferred)),
    ]);
    let doc = Json::obj(vec![
        ("server", server),
        ("totals", totals),
        ("shards", Json::Arr(shards)),
        ("classes", Json::Arr(class_rows)),
    ]);
    HttpResponse::ok("application/json", doc.render())
}

/// Merges one telemetry-derived histogram across every shard.
fn merged(
    tels: &[TelemetrySnapshot],
    pick: impl Fn(&TelemetrySnapshot) -> &Histogram,
) -> Histogram {
    let mut hists = tels.iter().map(pick);
    let mut out = hists.next().cloned().unwrap_or_else(|| Histogram::new(3));
    for h in hists {
        out.merge(h);
    }
    out
}
