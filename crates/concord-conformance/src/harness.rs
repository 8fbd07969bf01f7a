//! Case execution: drive one [`CaseConfig`] through the real runtime and
//! the simulator, and collect everything the oracles need.

use crate::apps::PanicOnApp;
use crate::case::{ArrivalKind, CaseConfig, FaultKind};
use concord_core::preempt::SignalAccounting;
use concord_core::{
    Clock, ConcordApp, FaultInjector, Runtime, RuntimeConfig, RuntimeStats, ShardRollup,
    ShardedRuntime, SpinApp, TelemetrySnapshot,
};
use concord_net::ring::{ring, Producer};
use concord_net::{Collector, LoadGen, Request, Response, RttModel};
use concord_sim::{simulate, QueueDiscipline, SimParams, SimResult, SystemConfig};
use concord_workloads::arrival::Deterministic;
use concord_workloads::dist::Dist;
use concord_workloads::mix::{ClassSpec, Mix};
use concord_workloads::{Poisson, TraceGenerator, Workload};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One per-worker counter row of a runtime execution — the full
/// [`WorkerStatsSnapshot`](concord_core::WorkerStatsSnapshot), including
/// the per-fate signal counters.
#[derive(Clone, Copy, Debug)]
pub struct WorkerRow {
    /// Requests completed on this worker.
    pub completed: u64,
    /// Slices preempted on this worker.
    pub preempted: u64,
    /// Contained failures on this worker.
    pub failed: u64,
    /// JBSQ occupancy high watermark.
    pub queue_max: u64,
    /// Signals consumed by this worker's probes.
    pub signals_consumed: u64,
    /// Signals that landed on an idle line.
    pub signals_obsolete: u64,
    /// Signals that arrived for an already-ended generation.
    pub signals_stale: u64,
    /// Trace events this worker dropped on ring overflow.
    pub trace_dropped: u64,
}

/// Everything the oracles need to know about one runtime execution.
#[derive(Clone, Debug)]
pub struct RuntimeObservation {
    /// The case that produced this run.
    pub case: CaseConfig,
    /// Requests the load generator enqueued (RX drops excluded).
    pub sent: u64,
    /// Requests the load generator failed to enqueue (RX ring full).
    pub rx_dropped: u64,
    /// Responses the collector received.
    pub received: u64,
    /// Whether the collector saw every expected response before timeout.
    pub collected_ok: bool,
    /// Responses the harness expected (requests minus injected TX drops).
    pub expected: u64,
    /// `RuntimeStats::ingested` at quiescence.
    pub ingested: u64,
    /// Worker + dispatcher completions at quiescence.
    pub completed: u64,
    /// Contained failures at quiescence.
    pub failed: u64,
    /// Responses dropped on the TX path.
    pub tx_dropped: u64,
    /// Telemetry records lost to full rings.
    pub telemetry_dropped: u64,
    /// Preemption signals stored to worker lines.
    pub signals_sent: u64,
    /// Slice generations whose expiry the dispatcher saw with nobody
    /// waiting (no signal sent for them at that point).
    pub expiries_deferred: u64,
    /// Claimed expiries whose store the injector suppressed.
    pub signals_dropped_injected: u64,
    /// Slices that actually yielded.
    pub preemptions: u64,
    /// Work-conservation tripwire (must be 0).
    pub work_conservation_violations: u64,
    /// Summed signal fates across workers (post-sweep).
    pub acct: SignalAccounting,
    /// Per-worker counter rows.
    pub per_worker: Vec<WorkerRow>,
    /// Final lifecycle telemetry.
    pub telemetry: TelemetrySnapshot,
    /// Trace events dropped to ring overflow (all tracks).
    pub trace_dropped: u64,
    /// Requests shed at the admission gate (0 when the ingress has no
    /// gate, as with plain rings).
    pub admission_shed: u64,
    /// Per-class ingest tallies at quiescence, keyed by the folded
    /// class (classes past the tracking bound report as
    /// [`concord_core::telemetry::OTHER_CLASS`]) — the ingest side of
    /// the per-class conservation law.
    pub ingested_by_class: Vec<(u16, u64)>,
    /// Final per-class quantum table, nanoseconds by slot (fixed
    /// everywhere unless the case ran with the adaptive controller).
    pub quanta_ns: Vec<u64>,
    /// Derived observables of the quiescent scheduling-event trace.
    pub trace: Option<concord_trace::TraceSummary>,
    /// The raw quiescent trace, for oracles that replay event order
    /// (the per-policy priority-inversion and FIFO-completion checks)
    /// rather than derived counters.
    pub raw_trace: Option<concord_trace::Trace>,
}

/// The two-class fixed-service mix a case describes.
pub fn mix_of(case: &CaseConfig) -> Mix {
    Mix::new(
        "conformance",
        vec![
            ClassSpec::new(
                "short",
                f64::from(case.short_weight),
                Dist::fixed_us(case.short_us as f64),
            ),
            ClassSpec::new(
                "long",
                f64::from(100u32.saturating_sub(case.short_weight).max(1)),
                Dist::fixed_us(case.long_us as f64),
            ),
        ],
    )
}

/// Offered rate for a case: `load_pct`% of rough capacity.
pub fn rate_of(case: &CaseConfig) -> f64 {
    let mean_s = mix_of(case).mean_service_ns() * 1e-9;
    (case.n_workers as f64 / mean_s) * (case.load_pct as f64 / 100.0)
}

/// Builds the fault injector for a case; `None` when the case schedules
/// no runtime fault (fault-free, or a handler panic, which [`Rig::new`]
/// injects by wrapping the app in a [`PanicOnApp`]).
pub fn injector_of(case: &CaseConfig) -> Option<Arc<FaultInjector>> {
    let inj = Arc::new(FaultInjector::new());
    match case.fault {
        FaultKind::None | FaultKind::PanicOn { .. } => return None,
        FaultKind::DropSignals(n) => inj.drop_next_signals(u64::from(n)),
        FaultKind::DelaySignals { n, delay_us } => {
            inj.delay_next_signals(u64::from(n), delay_us * 1_000)
        }
        FaultKind::RejectTx(n) => inj.reject_next_tx(u64::from(n)),
        FaultKind::StallWorker { worker, stall_us } => {
            inj.stall_worker(worker % case.n_workers.max(1), stall_us * 1_000)
        }
        FaultKind::StallDispatcher { stall_us } => inj.stall_dispatcher(stall_us * 1_000),
    }
    Some(inj)
}

/// The runtime configuration a case runs under, traced with the whole
/// run retained: `shards` dispatcher+worker groups, time from `clock`,
/// faults from `injector`.
fn config_of(
    case: &CaseConfig,
    shards: usize,
    clock: Clock,
    injector: Option<Arc<FaultInjector>>,
) -> RuntimeConfig {
    RuntimeConfig {
        n_workers: case.n_workers,
        num_shards: shards,
        quantum: Duration::from_micros(case.quantum_us),
        jbsq_depth: case.jbsq_depth,
        work_conserving: case.work_conserving,
        policy: case.policy,
        adaptive_quantum: false,
        quantum_max: Duration::from_micros(case.quantum_us.max(100)),
        quantum_control_interval: Duration::from_millis(10),
        slo: Vec::new(),
        telemetry_report_every: None,
        clock,
        trace: true,
        trace_ring_cap: concord_core::config::DEFAULT_TRACE_RING_CAP,
        trace_retain: None,
        fault_injector: injector,
    }
}

/// Runs the case through the real multi-threaded runtime (wall clock,
/// spin server) and returns the oracle inputs. Never hangs: collection
/// is bounded by `timeout` and shutdown always drains.
pub fn run_runtime(case: &CaseConfig, timeout: Duration) -> RuntimeObservation {
    run_runtime_with(case, Clock::monotonic(), Arc::new(SpinApp::new()), timeout)
}

/// [`run_runtime`] with an explicit time source and application — the
/// entry point for virtual-time executions, which pair a
/// [`Clock::from_virtual`](concord_core::Clock) source with an app from
/// [`crate::apps`] that advances the same timeline.
pub fn run_runtime_with<A: ConcordApp>(
    case: &CaseConfig,
    clock: Clock,
    app: Arc<A>,
    timeout: Duration,
) -> RuntimeObservation {
    run_runtime_tuned(case, clock, app, timeout, |_| {})
}

/// [`run_runtime_with`] plus a config hook: `tune` runs on the fully
/// built [`RuntimeConfig`] right before the runtime starts, so tests can
/// flip knobs a [`CaseConfig`] doesn't model — the adaptive-quantum
/// controller, per-class SLO budgets, control cadence — while keeping
/// the case-derived load, mix, and fault plumbing identical.
pub fn run_runtime_tuned<A: ConcordApp>(
    case: &CaseConfig,
    clock: Clock,
    app: Arc<A>,
    timeout: Duration,
    tune: impl FnOnce(&mut RuntimeConfig),
) -> RuntimeObservation {
    let mut rig = Rig::new(case, clock, app, tune);
    let rate = rate_of(case);
    let gen = if case.arrival == ArrivalKind::Burst {
        // Every request sits in the RX ring before the dispatcher's
        // first ingest pass, which then admits them all at once.
        let mut trace =
            TraceGenerator::new(Deterministic::with_rate(rate), mix_of(case), case.seed);
        for _ in 0..case.requests {
            let a = trace.next_arrival();
            rig.push(Request {
                id: a.id,
                class: a.spec.class,
                service_ns: a.spec.service_ns,
                sent_at: Instant::now(),
            });
        }
        rig.start();
        None
    } else {
        rig.start();
        let tx = rig.req_tx.take().expect("nothing pushed by hand");
        let (mix, n, seed) = (mix_of(case), case.requests, case.seed);
        Some(if case.arrival == ArrivalKind::Poisson {
            LoadGen::start_with(tx, Poisson::with_rate(rate), mix, n, seed)
        } else {
            LoadGen::start_with(tx, Deterministic::with_rate(rate), mix, n, seed)
        })
    };
    let expected = match case.fault {
        FaultKind::RejectTx(n) => case.requests.saturating_sub(u64::from(n)),
        _ => case.requests,
    };
    rig.collect(expected, timeout);
    if let Some(gen) = gen {
        let report = gen.join();
        rig.sent = report.sent;
        rig.rx_dropped = report.dropped;
    }
    rig.finish()
}

/// One case's runtime wired to its rings, driven step by step: tests
/// that need a scripted arrival pattern (a closed loop, "B arrives while
/// A has run three quanta") push requests and collect responses by hand
/// and still get the full [`RuntimeObservation`] every oracle reads.
/// Requests may be pushed before [`Rig::start`]; they are then all
/// waiting in the RX ring when the dispatcher first polls it.
pub struct Rig {
    case: CaseConfig,
    injector: Option<Arc<FaultInjector>>,
    boot: Option<Box<dyn FnOnce() -> Runtime>>,
    rt: Option<Runtime>,
    req_tx: Option<Producer<Request>>,
    collector: Collector,
    sent: u64,
    rx_dropped: u64,
    expected: u64,
    collected_ok: bool,
}

impl Rig {
    /// Builds the case's runtime configuration (fault injector included),
    /// lets `tune` adjust it, wraps `app` in a [`PanicOnApp`] when the
    /// case injects a handler panic, and wires the rings — without
    /// starting any thread yet.
    pub fn new<A: ConcordApp>(
        case: &CaseConfig,
        clock: Clock,
        app: Arc<A>,
        tune: impl FnOnce(&mut RuntimeConfig),
    ) -> Self {
        let (req_tx, req_rx) = ring::<Request>(4096);
        let (resp_tx, resp_rx) = ring::<Response>(4096);
        let injector = injector_of(case);
        let mut cfg = config_of(case, 1, clock, injector.clone());
        tune(&mut cfg);
        let boot: Box<dyn FnOnce() -> Runtime> = match case.fault {
            FaultKind::PanicOn { request } => {
                let app = Arc::new(PanicOnApp::new(app, request % case.requests.max(1)));
                Box::new(move || Runtime::start(cfg, app, req_rx, resp_tx))
            }
            _ => Box::new(move || Runtime::start(cfg, app, req_rx, resp_tx)),
        };
        Self {
            case: case.clone(),
            injector,
            boot: Some(boot),
            rt: None,
            req_tx: Some(req_tx),
            collector: Collector::new(resp_rx, RttModel::zero(), case.seed),
            sent: 0,
            rx_dropped: 0,
            expected: 0,
            collected_ok: true,
        }
    }

    /// Starts the dispatcher and workers.
    pub fn start(&mut self) {
        let boot = self.boot.take().expect("rig already started");
        self.rt = Some(boot());
    }

    /// Enqueues one request on the RX ring (a full ring counts as an RX
    /// drop, as with the open-loop generator).
    pub fn push(&mut self, req: Request) {
        let tx = self.req_tx.as_mut().expect("RX ring handed to a generator");
        match tx.push(req) {
            Ok(()) => self.sent += 1,
            Err(_) => self.rx_dropped += 1,
        }
    }

    /// Waits until `total` responses have arrived since the run began
    /// (or `timeout` passes), returning whether they did.
    pub fn collect(&mut self, total: u64, timeout: Duration) -> bool {
        self.expected = total;
        let ok = self.collector.collect(total, timeout);
        self.collected_ok &= ok;
        ok
    }

    /// The started runtime's live counters.
    pub fn stats(&self) -> Arc<RuntimeStats> {
        self.rt.as_ref().expect("rig not started").stats()
    }

    /// The case's fault injector, if the case schedules a fault.
    pub fn injector(&self) -> Option<&Arc<FaultInjector>> {
        self.injector.as_ref()
    }

    /// Quiesces the runtime and gathers everything the oracles read.
    pub fn finish(mut self) -> RuntimeObservation {
        let mut rt = self.rt.take().expect("rig not started");
        rt.quiesce();
        let stats = rt.stats();
        let telemetry = rt.telemetry();
        let acct = rt.signal_accounting();

        let per_worker = stats
            .per_worker
            .iter()
            .map(|w| {
                let s = w.snapshot();
                WorkerRow {
                    completed: s.completed,
                    preempted: s.preempted,
                    failed: s.failed,
                    queue_max: s.queue_max,
                    signals_consumed: s.signals_consumed,
                    signals_obsolete: s.signals_obsolete,
                    signals_stale: s.signals_stale,
                    trace_dropped: s.trace_dropped,
                }
            })
            .collect();

        let raw_trace = rt.take_trace();
        let trace = raw_trace
            .as_ref()
            .map(concord_trace::TraceSummary::from_trace);

        RuntimeObservation {
            case: self.case,
            sent: self.sent,
            rx_dropped: self.rx_dropped,
            received: self.collector.received(),
            collected_ok: self.collected_ok,
            expected: self.expected,
            ingested: stats.ingested.load(Ordering::Relaxed),
            completed: stats.completed(),
            failed: stats.failed.load(Ordering::Relaxed),
            tx_dropped: stats.tx_dropped.load(Ordering::Relaxed),
            telemetry_dropped: stats.telemetry_dropped.load(Ordering::Relaxed),
            signals_sent: stats.signals_sent.load(Ordering::Relaxed),
            expiries_deferred: stats.expiries_deferred.load(Ordering::Relaxed),
            signals_dropped_injected: stats.signals_dropped_injected.load(Ordering::Relaxed),
            preemptions: stats.preemptions.load(Ordering::Relaxed),
            work_conservation_violations: stats
                .work_conservation_violations
                .load(Ordering::Relaxed),
            acct,
            per_worker,
            telemetry,
            trace_dropped: stats.trace_dropped.load(Ordering::Relaxed),
            admission_shed: stats.admission.as_ref().map_or(0, |a| a.shed()),
            ingested_by_class: stats.ingested_by_class.nonzero(),
            quanta_ns: rt.quanta().snapshot_ns().to_vec(),
            trace,
            raw_trace,
        }
    }
}

/// Shard count for conformance executions: `CONCORD_SHARDS` in the
/// environment (default 1). Values above 1 make [`run_case`] additionally
/// drive every fault-free case through a [`ShardedRuntime`] and check the
/// cross-shard oracles.
pub fn conf_shards() -> usize {
    std::env::var("CONCORD_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
        .max(1)
}

/// Everything the cross-shard oracles need to know about one sharded
/// runtime execution.
#[derive(Clone, Debug)]
pub struct ShardedObservation {
    /// The case that produced this run.
    pub case: CaseConfig,
    /// Shards the runtime ran.
    pub shards: usize,
    /// Requests the load generator enqueued.
    pub sent: u64,
    /// Requests the load generator failed to enqueue (RX ring full).
    pub rx_dropped: u64,
    /// Responses the collector received (all shards merged).
    pub received: u64,
    /// Whether the collector saw every expected response before timeout.
    pub collected_ok: bool,
    /// Quiescent per-shard counter rows and cross-shard totals.
    pub rollup: ShardRollup,
    /// Per-shard invariants derived from the merged trace.
    pub trace: Option<concord_trace::ShardTraceSummary>,
}

/// Runs a fault-free case through a [`ShardedRuntime`]: the load
/// generator deals arrivals round-robin over the shards' ingress rings,
/// the collector drains every shard's egress ring, and the quiescent
/// rollup plus the merged trace feed
/// [`check_sharded`](crate::oracles::check_sharded).
pub fn run_runtime_sharded(
    case: &CaseConfig,
    shards: usize,
    timeout: Duration,
) -> ShardedObservation {
    let shards = shards.max(1);
    let (req_tx, req_rx): (Vec<_>, Vec<_>) = (0..shards).map(|_| ring::<Request>(4096)).unzip();
    let (resp_tx, resp_rx): (Vec<_>, Vec<_>) = (0..shards).map(|_| ring::<Response>(4096)).unzip();
    let cfg = config_of(case, shards, Clock::monotonic(), None);
    let mut srt = ShardedRuntime::start(cfg, Arc::new(SpinApp::new()), req_rx, resp_tx);

    let rate = rate_of(case);
    let gen = LoadGen::start_with(
        req_tx,
        Poisson::with_rate(rate),
        mix_of(case),
        case.requests,
        case.seed,
    );
    let mut collector = Collector::new(resp_rx, RttModel::zero(), case.seed);
    let collected_ok = collector.collect(case.requests, timeout);
    let report = gen.join();

    srt.quiesce();
    let trace = srt
        .take_trace()
        .map(|t| concord_trace::ShardTraceSummary::from_trace(&t));
    ShardedObservation {
        case: case.clone(),
        shards,
        sent: report.sent,
        rx_dropped: report.dropped,
        received: collector.received(),
        collected_ok,
        rollup: srt.rollup(),
        trace,
    }
}

/// Runs the same case through the discrete-event simulator. The sim
/// takes the case's `PolicyKind` directly and keys its queue with the
/// runtime's own `PolicyKind::key`, SRPT estimate noise included.
pub fn run_sim(case: &CaseConfig) -> SimResult {
    let mut cfg = SystemConfig::concord(case.n_workers, case.quantum_us * 1_000);
    cfg.queue = QueueDiscipline::Jbsq(case.jbsq_depth.min(u8::MAX as usize) as u8);
    cfg.work_conserving = case.work_conserving;
    cfg.policy = case.policy;
    cfg.name = "conformance".into();
    simulate(
        &cfg,
        mix_of(case),
        &SimParams::new(rate_of(case), case.requests, case.seed),
    )
}

/// Runs one case end to end and returns every oracle violation found.
///
/// Oracles always run on the runtime execution. Fault-free Poisson cases
/// additionally run the simulator, check its oracles, and cross-validate
/// the two latency distributions. With `CONCORD_SHARDS` > 1 in the
/// environment, fault-free cases also run through a sharded runtime and
/// the cross-shard oracles.
pub fn run_case(case: &CaseConfig, timeout: Duration) -> Vec<String> {
    let obs = run_runtime(case, timeout);
    let mut violations = crate::oracles::check_runtime(&obs);
    violations.extend(crate::oracles::check_trace(&obs));
    violations.extend(crate::oracles::check_policy(&obs));
    if case.fault == FaultKind::None && case.arrival == ArrivalKind::Poisson {
        let sim = run_sim(case);
        violations.extend(crate::oracles::check_sim(&sim, case));
        violations.extend(crate::oracles::check_cross(&obs, &sim));
    }
    let shards = conf_shards();
    if shards > 1 && case.fault == FaultKind::None {
        let sharded = run_runtime_sharded(case, shards, timeout);
        violations.extend(crate::oracles::check_sharded(&sharded));
    }
    violations
}

/// Path of the checked-in regression corpus
/// (`proptest-regressions/conformance.txt` in this crate).
pub fn corpus_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("proptest-regressions")
        .join("conformance.txt")
}

/// Parses the corpus: one `cc <case>` line per pinned regression;
/// `#`-comments and blank lines are ignored. Panics on a malformed `cc`
/// line — a corrupt corpus must fail loudly, not shrink coverage.
pub fn load_corpus() -> Vec<CaseConfig> {
    let Ok(text) = std::fs::read_to_string(corpus_path()) else {
        return Vec::new();
    };
    text.lines()
        .filter_map(|l| {
            let l = l.trim();
            let rest = l.strip_prefix("cc ")?;
            Some(CaseConfig::decode(rest).unwrap_or_else(|| panic!("malformed corpus line: {l}")))
        })
        .collect()
}

/// Appends a minimised failing case to the corpus (best effort — the
/// tree may be read-only in some CI steps; the failure message always
/// carries the `cc` line regardless).
pub fn append_to_corpus(case: &CaseConfig) {
    use std::io::Write;
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(corpus_path())
    {
        let _ = writeln!(f, "cc {}", case.encode());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::CaseConfig;

    #[test]
    fn rate_scales_with_load_and_workers() {
        let mut c = CaseConfig::generate(1);
        c.short_us = 10;
        c.long_us = 10;
        c.short_weight = 50;
        c.load_pct = 50;
        c.n_workers = 2;
        // mean service 10µs → capacity 2/10µs = 200k rps → 50% = 100k.
        assert!((rate_of(&c) - 100_000.0).abs() < 1.0);
    }

    #[test]
    fn injector_only_for_faulty_cases() {
        let mut c = CaseConfig::generate(1);
        c.fault = FaultKind::None;
        assert!(injector_of(&c).is_none());
        c.fault = FaultKind::DropSignals(2);
        assert!(injector_of(&c).is_some());
        c.fault = FaultKind::PanicOn { request: 3 };
        assert!(injector_of(&c).is_none(), "the app wrapper injects panics");
    }

    #[test]
    fn corpus_path_is_inside_this_crate() {
        let p = corpus_path();
        assert!(p.ends_with("proptest-regressions/conformance.txt"));
        assert!(p.starts_with(env!("CARGO_MANIFEST_DIR")));
    }
}
