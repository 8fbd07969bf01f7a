//! One invocation: run a workload, check its outputs, and turn what was
//! measured into the named metrics of the result line.

use crate::live::{self, Durations, LiveRun, PhaseRecord};
use crate::sim::{self, SimRun};
use crate::spec::{self, Path, Workload};
use crate::{layers, spans};
use concord_obs::json::Json;
use concord_trace::{EventKind, Trace, TraceSummary};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::time::Duration;

/// How one invocation was asked to run.
#[derive(Clone, Copy, Debug)]
pub struct Request {
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of timed run (end-to-end
    /// metrics).
    pub trace: bool,
    /// Shorter warm-up, for the smoke test.
    pub quick: bool,
}

/// What one invocation measured.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The workload's name.
    pub workload: &'static str,
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// What the output checks found.
    pub errors: Vec<String>,
    /// `(name, value, unit)` in table order: the end-to-end metrics of a
    /// timed run, the per-layer metrics of a traced run.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer numbers a timed run has anyway, for the human-readable
    /// table only: `(name, value)`, units as in [`spec::PER_LAYER`].
    pub notes: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// The result line: one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                let entry = Json::obj(vec![
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(unit.into())),
                ]);
                (name.to_string(), entry)
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::U64(self.attempted)),
            ("failed", Json::U64(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
        .render()
    }

    /// The table a human reads, one metric per line with its unit.
    pub fn table(&self) -> String {
        let mut s = format!(
            "{}: {} ({} attempted, {} failed)\n",
            self.workload,
            if self.correct { "correct" } else { "INCORRECT" },
            self.attempted,
            self.failed
        );
        for e in &self.errors {
            s.push_str(&format!("  check failed: {e}\n"));
        }
        let notes = self.notes.iter().map(|&(k, v)| (k, v, unit_of(k)));
        for (name, value, unit) in self.metrics.iter().copied().chain(notes) {
            s.push_str(&format!("  {name:<34} {value:>16.4} {unit}\n"));
        }
        s
    }
}

/// Where span and result files go: under the build directory, so they
/// never land in the source tree.
pub fn output_dir() -> std::path::PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    std::path::PathBuf::from(target).join("concord-benchmark")
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn durations(req: &Request, share: f64) -> Durations {
    let warmup = if req.quick { 0.3 } else { spec::WARMUP_SECONDS };
    Durations {
        warmup: Duration::from_secs_f64(warmup),
        measured: Duration::from_secs_f64(req.seconds * share),
    }
}

/// Runs `w` as `req` asks.
pub fn run(w: &'static Workload, req: &Request) -> std::io::Result<Outcome> {
    match (w.path, req.trace) {
        (Path::Sim, false) => Ok(sim_timed(w, req)),
        (Path::Sim, true) => sim_traced(w, req),
        (_, false) => live_timed(w, req),
        (_, true) => live_traced(w, req),
    }
}

/// Index of the class that holds most of the service time: the only
/// class of a fixed mix, the 100 µs class of the bimodal one.
fn bulk_class(phase: &PhaseRecord) -> usize {
    phase.latency.len() - 1
}

fn live_timed(w: &'static Workload, req: &Request) -> std::io::Result<Outcome> {
    let mut run = live::run(w, req.seed, durations(req, 1.0), false)?;
    let capacity = run.closed.throughput_rps();
    let phase = run.latency_phase();
    let bulk = bulk_class(phase);
    let p50 = us(phase.latency[bulk].windowed_ns(0.5));
    let notes = vec![
        ("client.p99_us", us(phase.latency[0].windowed_ns(0.99))),
        ("client.short_p50_us", us(phase.latency[0].windowed_ns(0.5))),
        (
            "client.long_p99_us",
            us(phase.latency[bulk].windowed_ns(0.99)),
        ),
        (
            "client.gen_late_p99_us",
            us(phase.late.value_at_quantile(0.99) as f64),
        ),
        ("proc.peak_rss_mb", crate::proc::peak_rss_mb()),
    ];
    let values = [
        ("capacity_rps", capacity),
        ("p50_us", p50),
        ("cpu_cores", run.cpu_cores),
        ("setup_s", run.setup_s),
    ];
    Ok(Outcome {
        workload: w.name,
        correct: run.errors.is_empty(),
        attempted: run.attempted,
        failed: run.failed,
        errors: run.errors,
        metrics: end_to_end(&values),
        notes,
    })
}

fn sim_timed(w: &'static Workload, req: &Request) -> Outcome {
    let run = sim::run(req.seed, sim_requests(req.seconds), false);
    let (attempted, failed) = run.attempted_failed();
    let values = [
        ("capacity_rps", run.capacity_rps()),
        ("p50_us", run.wall_us_per_request()),
        ("cpu_cores", run.cpu_cores),
        ("setup_s", run.setup_s),
    ];
    let mut notes = sim_virtual(&run);
    notes.push(("proc.peak_rss_mb", crate::proc::peak_rss_mb()));
    Outcome {
        workload: w.name,
        correct: run.errors.is_empty(),
        attempted,
        failed,
        errors: run.errors,
        metrics: end_to_end(&values),
        notes,
    }
}

fn sim_requests(seconds: f64) -> u64 {
    (seconds * spec::SIM_REQUESTS_PER_SECOND as f64) as u64
}

fn end_to_end(values: &[(&'static str, f64)]) -> Vec<(&'static str, f64, &'static str)> {
    spec::END_TO_END
        .iter()
        .map(|m| {
            let &(_, value) = values
                .iter()
                .find(|(k, _)| *k == m.name)
                .expect("every end-to-end metric is computed");
            (m.name, value, m.unit)
        })
        .collect()
}

fn unit_of(name: &str) -> &'static str {
    spec::PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

/// Every per-layer metric in table order; layers off this workload's
/// path read 0.
fn per_layer(values: &BTreeMap<&'static str, f64>) -> Vec<(&'static str, f64, &'static str)> {
    spec::PER_LAYER
        .iter()
        .map(|m| (m.name, values.get(m.name).copied().unwrap_or(0.0), m.unit))
        .collect()
}

/// The simulator's virtual-time statistics, median chunk.
fn sim_virtual(run: &SimRun) -> Vec<(&'static str, f64)> {
    vec![
        ("sim.p99_us", run.class_latency_us(0, 1.0, 0.99)),
        ("sim.long_p99_us", run.class_latency_us(1, 100.0, 0.99)),
        ("sim.p999_slowdown", run.median_of(|r| r.p999_slowdown())),
        (
            "sim.events_per_req",
            run.median_of(|r| r.events_processed as f64 / r.arrivals as f64),
        ),
        (
            "sim.preemptions_per_req",
            run.median_of(|r| r.preemptions as f64 / r.arrivals as f64),
        ),
        (
            "sim.dispatcher_util",
            run.median_of(|r| r.dispatcher_util()),
        ),
        (
            "sim.worker_idle_wait_frac",
            run.median_of(|r| r.worker_idle_wait_frac()),
        ),
        (
            "sim.max_jbsq_inflight",
            run.median_of(|r| r.max_jbsq_inflight as f64),
        ),
    ]
}

fn layer_sample(seconds: f64) -> Duration {
    // 22 timings of 17 samples (2 to calibrate, 15 kept) fit in a
    // quarter of the run: 10 ms samples from 15 s up.
    Duration::from_secs_f64((seconds * 0.25 / (22.0 * 17.0)).clamp(0.000_5, 0.010))
}

fn sim_traced(w: &'static Workload, req: &Request) -> std::io::Result<Outcome> {
    let mut values: BTreeMap<&'static str, f64> =
        layers::run(layer_sample(req.seconds)).into_iter().collect();
    let run = sim::run(req.seed, sim_requests(req.seconds * 0.75), true);
    let (attempted, failed) = run.attempted_failed();
    values.extend(sim_virtual(&run));
    let events: u64 = run.chunks.iter().map(|r| r.events_processed).sum();
    let wall_s: f64 = run.chunk_wall_s.iter().sum();
    values.insert("sim.ns_per_event", wall_s * 1e9 / events as f64);
    values.insert("client.failed_share", failed as f64 / attempted as f64);
    values.insert("proc.peak_rss_mb", crate::proc::peak_rss_mb());

    // Chunk 0 ran traced, the rest untraced: their speeds give the
    // tracer's cost, the trace its volume.
    let rate = |i: usize| run.chunks[i].arrivals as f64 / run.chunk_wall_s[i];
    let untraced = crate::stats::median(&(1..run.chunks.len()).map(rate).collect::<Vec<_>>());
    values.insert(
        "trace.capacity_overhead_pct",
        100.0 * (untraced - rate(0)) / untraced,
    );
    let mut errors = run.errors.clone();
    if let Some(trace) = &run.trace {
        let summary = TraceSummary::from_trace(trace);
        values.insert(
            "trace.events_per_req",
            trace.len() as f64 / run.chunks[0].arrivals as f64,
        );
        trace_values(&summary, &mut values);
        write_span_file(w.name, req.seed, &[], &summary, &mut errors);
    }
    Ok(Outcome {
        workload: w.name,
        correct: errors.is_empty(),
        attempted,
        failed,
        errors,
        metrics: per_layer(&values),
        notes: Vec::new(),
    })
}

fn trace_values(summary: &TraceSummary, values: &mut BTreeMap<&'static str, f64>) {
    values.insert(
        "trace.signal_to_yield_p50_us",
        us(summary.signal_to_yield.value_at_quantile(0.5) as f64),
    );
    values.insert("trace.dispatcher_busy_share", summary.overhead_d());
    let sent = summary.count(EventKind::SignalSent);
    if sent > 0 {
        values.insert(
            "trace.unmatched_signals_share",
            summary.unmatched_signals as f64 / sent as f64,
        );
    }
}

fn summary_json(s: &TraceSummary) -> Json {
    let counts = EventKind::ALL
        .iter()
        .map(|&k| (k.name().to_string(), Json::U64(s.count(k))))
        .collect();
    Json::obj(vec![
        ("n_workers", Json::U64(s.n_workers as u64)),
        ("counts", Json::Obj(counts)),
        ("span_ns", Json::U64(s.span_ns)),
        ("dispatcher_busy_ns", Json::U64(s.dispatcher_busy_ns)),
        ("matched_preemptions", Json::U64(s.matched_preemptions)),
        ("unmatched_signals", Json::U64(s.unmatched_signals)),
        ("unmatched_yields", Json::U64(s.unmatched_yields)),
        ("monotone_violations", Json::U64(s.monotone_violations)),
        (
            "signal_to_yield_p50_ns",
            Json::U64(s.signal_to_yield.value_at_quantile(0.5)),
        ),
        (
            "signal_to_yield_p99_ns",
            Json::U64(s.signal_to_yield.value_at_quantile(0.99)),
        ),
        (
            "max_occupancy",
            Json::Arr(
                s.max_occupancy
                    .iter()
                    .map(|&d| Json::U64(u64::from(d)))
                    .collect(),
            ),
        ),
    ])
}

/// Writes `trace_<workload>.json` and returns the spans it holds.
fn write_span_file(
    workload: &str,
    seed: u64,
    rows: &[live::SpanRow],
    summary: &TraceSummary,
    errors: &mut Vec<String>,
) -> Vec<spans::Span> {
    let built = spans::build(rows);
    let dir = output_dir();
    let path = dir.join(format!("trace_{workload}.json"));
    let text = spans::render(workload, seed, &built, summary_json(summary));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
        errors.push(format!("could not write {}: {e}", path.display()));
    }
    built
}

/// Shard 0's events of a server trace (the whole trace at one shard and
/// on rings).
fn shard0(trace: Trace, shards: usize) -> Trace {
    if shards > 1 {
        concord_trace::split_shards(&trace).swap_remove(0)
    } else {
        trace
    }
}

fn live_traced(w: &'static Workload, req: &Request) -> std::io::Result<Outcome> {
    let mut values: BTreeMap<&'static str, f64> =
        layers::run(layer_sample(req.seconds)).into_iter().collect();
    // The same workload twice: untraced as the reference, then with the
    // runtime's tracer armed and spans recorded. Counts come from the
    // traced pass, overheads from the difference.
    let mut plain = live::run(w, req.seed, durations(req, 0.35), false)?;
    let mut traced = live::run(w, req.seed, durations(req, 0.40), true)?;

    let plain_capacity = plain.closed.throughput_rps();
    let plain_p50 = {
        let phase = plain.latency_phase();
        let bulk = bulk_class(phase);
        phase.latency[bulk].windowed_ns(0.5)
    };
    let traced_capacity = traced.closed.throughput_rps();
    let mut errors = std::mem::take(&mut traced.errors);
    errors.extend(plain.errors.iter().map(|e| format!("untraced pass: {e}")));

    counts(&traced, &mut values);
    let on_ring = traced.open.is_some();
    let phase = traced.latency_phase();
    let bulk = bulk_class(phase);
    let traced_p50 = phase.latency[bulk].windowed_ns(0.5);
    let two_classes = phase.latency.len() > 1;
    let mut set = |k: &'static str, v: f64| {
        values.insert(k, v);
    };
    set(
        "core.queue_p50_us",
        us(phase.queue.value_at_quantile(0.5) as f64),
    );
    set(
        "core.queue_p99_us",
        us(phase.queue.value_at_quantile(0.99) as f64),
    );
    set(
        "server.io_overhead_p50_us",
        us(phase.io_overhead.value_at_quantile(0.5) as f64),
    );
    set(
        "server.io_overhead_p99_us",
        us(phase.io_overhead.value_at_quantile(0.99) as f64),
    );
    set("client.p99_us", us(phase.latency[0].windowed_ns(0.99)));
    set("client.short_p50_us", us(phase.latency[0].windowed_ns(0.5)));
    set("client.p999_us", us(phase.latency[0].whole_run_ns(0.999)));
    set(
        "client.max_us",
        us(phase.latency.iter().map(|c| c.max_ns()).fold(0.0, f64::max)),
    );
    set(
        "client.stall_windows",
        phase.latency[0].stall_windows() as f64,
    );
    if two_classes {
        set(
            "client.long_p50_us",
            us(phase.latency[bulk].windowed_ns(0.5)),
        );
        set(
            "client.long_p99_us",
            us(phase.latency[bulk].windowed_ns(0.99)),
        );
        if phase.nominal_long_ns > 0 {
            set(
                "core.busy_over_nominal",
                phase.busy_long_ns as f64 / phase.nominal_long_ns as f64,
            );
        }
    }
    if on_ring {
        set(
            "client.gen_late_p99_us",
            us(phase.late.value_at_quantile(0.99) as f64),
        );
        set("client.gen_late_max_us", us(phase.late.max() as f64));
        set(
            "client.egress_pickup_p50_us",
            us(phase.pickup.value_at_quantile(0.5) as f64),
        );
        if two_classes {
            set(
                "core.preempted_wait_p50_us",
                us(phase.preempted_wait.value_at_quantile(0.5) as f64),
            );
        }
    }
    set(
        "trace.capacity_overhead_pct",
        100.0 * (plain_capacity - traced_capacity) / plain_capacity,
    );
    set(
        "trace.p50_overhead_pct",
        100.0 * (traced_p50 - plain_p50) / plain_p50,
    );

    let rows = std::mem::take(&mut phase.spans);
    let shards = traced.fin.rollup.per_shard.len();
    match traced.fin.trace.take() {
        Some(trace) => {
            let trace = shard0(trace, shards);
            let summary = TraceSummary::from_trace(&trace);
            let served = traced.fin.rollup.per_shard[0].completed.max(1);
            values.insert("trace.events_per_req", trace.len() as f64 / served as f64);
            trace_values(&summary, &mut values);
            let built = write_span_file(w.name, req.seed, &rows, &summary, &mut errors);
            let sum_error = spans::max_sum_error(&built);
            values.insert("trace.span_sum_error_max", sum_error);
            values.insert("trace.spans_written", rows.len() as f64);
            if sum_error > 0.05 {
                errors.push(format!(
                    "child spans miss the client-observed latency by {:.1} %",
                    100.0 * sum_error
                ));
            }
        }
        None => errors.push("the traced pass returned no trace".into()),
    }

    Ok(Outcome {
        workload: w.name,
        correct: errors.is_empty(),
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        errors,
        metrics: per_layer(&values),
        notes: Vec::new(),
    })
}

/// The counts and shares read from the system's own counters.
fn counts(run: &LiveRun, values: &mut BTreeMap<&'static str, f64>) {
    let st = &run.fin.stats;
    let load = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed) as f64;
    let completed = (st.completed() as f64).max(1.0);
    let mut set = |k: &'static str, v: f64| {
        values.insert(k, v);
    };
    set(
        "core.preemptions_per_req",
        load(&st.preemptions) / completed,
    );
    let wasted: f64 = st
        .per_worker
        .iter()
        .map(|w| load(&w.signals_obsolete) + load(&w.signals_stale))
        .sum();
    if load(&st.signals_sent) > 0.0 {
        set("core.signals_wasted_share", wasted / load(&st.signals_sent));
    }
    set(
        "core.dispatcher_share",
        load(&st.dispatcher_completed) / completed,
    );
    set(
        "core.stack_reuse_share",
        load(&st.stack_reuses) / load(&st.ingested).max(1.0),
    );
    set(
        "core.signal_to_yield_p50_us",
        us(run.fin.telemetry.preemption_p50_ns() as f64),
    );
    set(
        "core.signal_to_yield_p99_us",
        us(run.fin.telemetry.preemption_p99_ns() as f64),
    );
    set("core.tx_dropped", load(&st.tx_dropped));
    set("core.telemetry_dropped", load(&st.telemetry_dropped));
    set("trace.dropped", load(&st.trace_dropped));

    let rollup = &run.fin.rollup;
    let kreq = (rollup.total_completed() as f64 / 1e3).max(1e-9);
    let sum = |f: fn(&concord_core::ShardCounters) -> u64| {
        rollup.per_shard.iter().map(f).sum::<u64>() as f64
    };
    set("shard.offloaded_per_kreq", sum(|s| s.offloaded) / kreq);
    set("shard.reclaimed_per_kreq", sum(|s| s.reclaimed) / kreq);
    set("shard.steals_per_kreq", sum(|s| s.steals_in) / kreq);
    let ingests = rollup.per_shard.iter().map(|s| s.ingested);
    let (most, least) = (
        ingests.clone().max().unwrap_or(0),
        ingests.min().unwrap_or(0),
    );
    set("shard.ingest_imbalance", most as f64 / least.max(1) as f64);

    if run.fin.admission_offered > 0 {
        set(
            "server.admission_shed_share",
            run.fin.admission_shed as f64 / run.fin.admission_offered as f64,
        );
    }
    set(
        "server.orphaned_responses",
        run.fin.orphaned_responses as f64,
    );
    set("server.protocol_errors", run.fin.protocol_errors as f64);
    set(
        "client.failed_share",
        run.failed as f64 / run.attempted.max(1) as f64,
    );
    set(
        "proc.ctx_switches_per_kreq",
        run.ctx_switches as f64 / (run.measured_replies as f64 / 1e3).max(1e-9),
    );
    set("proc.sys_cpu_share", run.sys_cpu_share);
    set("proc.peak_rss_mb", crate::proc::peak_rss_mb());
}
