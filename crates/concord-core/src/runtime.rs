//! Runtime assembly: spawn the dispatcher and workers, wire the
//! transport.

use crate::app::ConcordApp;
use crate::clock::Clock;
use crate::config::{RuntimeBuilder, RuntimeConfig, PROBE_PERIOD};
use crate::dispatcher::{DispatcherLoop, WorkerSlot};
use crate::preempt::{SignalAccounting, WorkerShared};
use crate::quantum::{ControllerConfig, QuantumController, QuantumTable, SloState};
use crate::stats::RuntimeStats;
use crate::task::{FramePool, Task, FRAME_POOL_CAP};
use crate::telemetry::{Telemetry, TelemetryHandle, TelemetrySnapshot};
use crate::transport::{spsc, Egress, Ingress};
use crate::worker::{WorkerLoop, WorkerMsg};
use concord_trace::{Trace, TraceCollector};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::sync::Mutex;
use std::thread::JoinHandle;

/// A running Concord instance.
///
/// Construct with [`Runtime::start`]; stop with [`Runtime::shutdown`],
/// which drains all in-flight requests before returning. Lifecycle
/// telemetry (queueing/service/sojourn distributions) is available at any
/// time through [`Runtime::telemetry`].
pub struct Runtime {
    stop: Arc<AtomicBool>,
    stats: Arc<RuntimeStats>,
    telemetry: TelemetryHandle,
    quanta: Arc<QuantumTable>,
    slo: Arc<SloState>,
    shared: Vec<Arc<WorkerShared>>,
    dispatcher: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    /// Scheduling-event collector; `None` when the tracer is disarmed
    /// via `RuntimeConfig::builder().trace(..)`.
    trace: Option<Arc<Mutex<TraceCollector>>>,
}

impl Runtime {
    /// A validated [`RuntimeBuilder`]: chain setters, then
    /// [`build`](RuntimeBuilder::build) the config or
    /// [`start`](RuntimeBuilder::start) the runtime directly — invalid
    /// combinations (zero workers, `k == 0`, quantum below the probe
    /// period) come back as `Err(ConfigError)` instead of a panic.
    pub fn builder() -> RuntimeBuilder {
        RuntimeBuilder::new()
    }

    /// Starts the runtime: one dispatcher thread plus
    /// `config.n_workers` worker threads, serving requests polled from
    /// `ingress` and emitting responses on `egress`. The in-process
    /// NIC-model rings (`concord_net::ring`) implement both traits, as
    /// does each shard's socket transport in `concord-server`.
    ///
    /// # Panics
    ///
    /// Panics if `config.n_workers` is zero, if `config.num_shards` asks
    /// for more than the one shard a plain runtime is (start a
    /// [`ShardedRuntime`](crate::shard::ShardedRuntime) for that), or if
    /// thread spawning fails. Prefer [`Runtime::builder`], which
    /// validates instead.
    pub fn start<A: ConcordApp, I: Ingress, E: Egress>(
        config: RuntimeConfig,
        app: Arc<A>,
        ingress: I,
        egress: E,
    ) -> Self {
        assert!(
            config.num_shards <= 1,
            "Runtime::start runs one shard; num_shards = {} needs ShardedRuntime::start",
            config.num_shards
        );
        Self::start_shard(config, app, ingress, egress, None)
    }

    /// [`Runtime::start`] as one shard of a
    /// [`ShardedRuntime`](crate::shard::ShardedRuntime): identical in
    /// every way except that, given a `shard` context, the dispatcher
    /// takes part in the cross-shard hand-off it describes.
    pub(crate) fn start_shard<A: ConcordApp, I: Ingress, E: Egress>(
        config: RuntimeConfig,
        app: Arc<A>,
        ingress: I,
        egress: E,
        shard: Option<crate::shard::ShardContext>,
    ) -> Self {
        assert!(config.n_workers >= 1, "need at least one worker");
        app.setup();

        let clock: Clock = config.clock.clone();
        let stop = Arc::new(AtomicBool::new(false));
        let workers_stop = Arc::new(AtomicBool::new(false));
        // Link the ingress's admission counters (if it has any) into the
        // stats object so `RuntimeStats::snapshot()` reports admission
        // alongside the scheduler's own counters.
        let stats = {
            let mut s = RuntimeStats::with_workers(config.n_workers);
            s.admission = ingress.admission_counters();
            Arc::new(s)
        };
        let telemetry: TelemetryHandle = Arc::new(Mutex::new(Telemetry::new()));

        // Per-class quantum table (workers read it at slice start) and
        // SLO state (the admission gate reads the blown bits). With
        // neither adaptive quanta nor SLO budgets configured there is no
        // controller and the table stays fixed — the pre-existing
        // single-quantum behaviour, bit for bit.
        let quanta = Arc::new(QuantumTable::fixed(config.quantum));
        let slo = Arc::new(SloState::new(&config.slo));
        let controller = (config.adaptive_quantum || slo.any_budget()).then(|| {
            QuantumController::new(
                ControllerConfig {
                    interval_ns: config
                        .quantum_control_interval
                        .as_nanos()
                        .min(u64::MAX as u128) as u64,
                    // The floor is the probe period: a shorter quantum
                    // would expire before the first preemption probe.
                    min_ns: PROBE_PERIOD.as_nanos() as u64,
                    max_ns: config.quantum_max.as_nanos().min(u64::MAX as u128).max(1) as u64,
                    tune_quanta: config.adaptive_quantum,
                },
                clock.now_ns(),
            )
        });
        // SLO-aware shedding: hand the blown-verdict bits to the ingress
        // (a no-op for plain rings; a TCP shard's admission gate sheds
        // blown classes with RETRY).
        if slo.any_budget() {
            ingress.attach_slo(slo.clone());
        }

        // One emit lane per track (workers 0..n, dispatcher last); the
        // collector owns every consumer side and is drained by the
        // dispatcher periodically and by quiesce() at the end.
        let (trace_collector, trace_lanes) = if config.trace {
            let (mut c, lanes) = TraceCollector::new(config.n_workers, config.trace_ring_cap);
            c.set_retain_window_ns(config.trace_retain.map(|w| w.as_nanos() as u64));
            (Some(Arc::new(Mutex::new(c))), lanes)
        } else {
            (None, Vec::new())
        };
        let mut trace_lanes = trace_lanes.into_iter();

        // One frame pool per thread that runs tasks (each worker and the
        // dispatcher), splitting the cap between them.
        let dyn_app: Arc<dyn ConcordApp> = app.clone();
        let pool_cap = FRAME_POOL_CAP / (config.n_workers + 1);
        let frame_pool = || FramePool::new(dyn_app.clone(), pool_cap);

        let mut slots = Vec::with_capacity(config.n_workers);
        let mut worker_handles = Vec::with_capacity(config.n_workers);
        let mut shared_lines = Vec::with_capacity(config.n_workers);
        for idx in 0..config.n_workers {
            // The shared state carries the runtime clock so the
            // preemption point can stamp the moment a probe consumes a
            // signal.
            let shared = Arc::new(WorkerShared::with_clock(clock.clone()));
            shared_lines.push(shared.clone());
            // Both directions are bounded by JBSQ: at most k tasks are
            // outstanding on a worker, and each comes back as exactly one
            // message, so k slots suffice for the return ring too.
            let (task_tx, task_rx) = spsc::<Task>(config.jbsq_depth.max(1));
            let (msg_tx, msg_rx) = spsc::<WorkerMsg>(config.jbsq_depth.max(1));
            slots.push(WorkerSlot {
                shared: shared.clone(),
                ring: task_tx,
                from_worker: msg_rx,
                inflight: 0,
                deferred_gen: None,
                queue_high: 0,
            });
            let wl = WorkerLoop {
                idx,
                shared,
                local: task_rx,
                to_dispatcher: msg_tx,
                clock: clock.clone(),
                quanta: quanta.clone(),
                stop: workers_stop.clone(),
                stats: stats.clone(),
                trace: trace_lanes.next(),
                injector: config.fault_injector.clone(),
                pool: frame_pool(),
            };
            let app_for_worker = app.clone();
            let handle = std::thread::Builder::new()
                .name(format!("concord-worker-{idx}"))
                .spawn(move || {
                    app_for_worker.setup_worker(idx);
                    wl.run();
                })
                .expect("spawn worker");
            worker_handles.push(handle);
        }

        // Lane order is workers 0..n then the dispatcher's, so after the
        // worker loop the iterator holds exactly the dispatcher lane.
        let dispatcher_lane = trace_lanes.next();

        let dl = DispatcherLoop {
            pool: frame_pool(),
            rx: ingress,
            tx: egress,
            workers: slots,
            telemetry: telemetry.clone(),
            clock,
            stop: stop.clone(),
            workers_stop,
            stats: stats.clone(),
            quanta: quanta.clone(),
            controller,
            slo: slo.clone(),
            shard,
            trace: dispatcher_lane,
            trace_collector: trace_collector.clone(),
            cfg: config,
        };
        let dispatcher = std::thread::Builder::new()
            .name("concord-dispatcher".into())
            .spawn(move || dl.run())
            .expect("spawn dispatcher");

        Self {
            stop,
            stats,
            telemetry,
            quanta,
            slo,
            shared: shared_lines,
            dispatcher: Some(dispatcher),
            workers: worker_handles,
            trace: trace_collector,
        }
    }

    /// Shared runtime counters (live).
    pub fn stats(&self) -> Arc<RuntimeStats> {
        self.stats.clone()
    }

    /// The live per-class quantum table (fixed at the configured quantum
    /// unless `adaptive_quantum` armed the controller).
    pub fn quanta(&self) -> Arc<QuantumTable> {
        self.quanta.clone()
    }

    /// Asks the dispatcher to stop ingesting and drain, without joining
    /// any thread. [`ShardedRuntime`](crate::shard::ShardedRuntime) uses
    /// this to wind every shard down concurrently before joining them
    /// one by one; follow with [`Runtime::quiesce`].
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::Release);
    }

    /// Point-in-time copy of the request-lifecycle telemetry: queueing
    /// delay, measured service time and sojourn histograms (p50/p99/p99.9
    /// accessors) plus slowdown.
    ///
    /// Each record reaches the dispatcher inside its completion message
    /// and is folded in before the response is emitted, so a snapshot
    /// taken after the collector has observed `n` responses covers at
    /// least those `n` requests.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        let mut t = self.telemetry.lock().expect("lock poisoned");
        t.records_dropped = self.stats.telemetry_dropped.load(Ordering::Relaxed);
        t.snapshot()
    }

    /// Sum of every worker's signal-fate tally (consumed / obsolete /
    /// stale). At quiescence (after [`Runtime::shutdown`], which also
    /// sweeps still-parked signals) the conformance oracle asserts
    /// `total() == signals_sent` — injector-suppressed stores never
    /// increment `signals_sent` and are tallied separately in
    /// `signals_dropped_injected`.
    pub fn signal_accounting(&self) -> SignalAccounting {
        let mut sum = SignalAccounting::default();
        for s in &self.shared {
            let a = s.signal_accounting();
            sum.consumed += a.consumed;
            sum.obsolete += a.obsolete;
            sum.stale += a.stale;
        }
        sum
    }

    /// Stops ingesting, drains every in-flight request and joins all
    /// threads, leaving the runtime queryable: after this returns,
    /// [`Runtime::stats`], [`Runtime::telemetry`] and
    /// [`Runtime::signal_accounting`] are final (quiescent) values.
    /// Idempotent.
    pub fn quiesce(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(d) = self.dispatcher.take() {
            d.join().expect("dispatcher thread");
        }
        for w in self.workers.drain(..) {
            w.join().expect("worker thread");
        }
        // All threads quiesced: account any signal that landed after its
        // worker's final slice, then publish the per-worker signal fates
        // into the stats rows so they survive this Runtime being dropped.
        for (i, s) in self.shared.iter().enumerate() {
            s.sweep_pending();
            let a = s.signal_accounting();
            if let Some(ws) = self.stats.per_worker.get(i) {
                ws.signals_consumed.store(a.consumed, Ordering::Relaxed);
                ws.signals_obsolete.store(a.obsolete, Ordering::Relaxed);
                ws.signals_stale.store(a.stale, Ordering::Relaxed);
            }
        }
        // Sweep any events still parked in worker lanes (the dispatcher's
        // final drain ran before the workers were released).
        if let Some(c) = &self.trace {
            c.lock().expect("lock poisoned").drain();
        }
    }

    /// Takes the collected scheduling-event trace, leaving an empty one
    /// behind. Returns `None` when tracing was disarmed via
    /// `RuntimeConfig::builder().trace(..)`. Call after [`Runtime::quiesce`] for
    /// a complete trace; calling mid-run yields whatever the collector
    /// has drained so far plus everything still parked in the lanes.
    pub fn take_trace(&self) -> Option<Trace> {
        self.trace
            .as_ref()
            .map(|c| c.lock().expect("lock poisoned").take_trace())
    }

    /// Stops ingesting, drains every in-flight request, joins all threads
    /// and returns the final counters.
    pub fn shutdown(mut self) -> Arc<RuntimeStats> {
        self.quiesce();
        self.stats.clone()
    }

    /// A read-only handle onto this runtime's published state — live
    /// stats atomics, telemetry snapshots, and the flight-recorder
    /// window — for the introspection plane (an admin thread scraping
    /// `/metrics` or `/statz`). The observer only shares `Arc`s: it
    /// stays valid while the threads run and keeps the final counters
    /// readable after shutdown, but never blocks the data plane beyond
    /// the same short telemetry/collector locks the runtime itself
    /// takes.
    pub fn observer(&self) -> RuntimeObserver {
        RuntimeObserver {
            stats: self.stats.clone(),
            telemetry: self.telemetry.clone(),
            quanta: self.quanta.clone(),
            slo: self.slo.clone(),
            trace: self.trace.clone(),
        }
    }
}

/// Read-only view of a [`Runtime`]'s published state, detachable from
/// the runtime's own lifetime. Obtained via [`Runtime::observer`] (or
/// [`ShardedRuntime::observer`](crate::shard::ShardedRuntime::observer)
/// for one per shard); cloneable and `Send`, so an admin listener can
/// hold one on its own thread while the control path retains the
/// `Runtime` (whose `shutdown` consumes it).
#[derive(Clone)]
pub struct RuntimeObserver {
    stats: Arc<RuntimeStats>,
    telemetry: TelemetryHandle,
    quanta: Arc<QuantumTable>,
    slo: Arc<SloState>,
    trace: Option<Arc<Mutex<TraceCollector>>>,
}

impl RuntimeObserver {
    /// Shared runtime counters (live atomics — coherent enough for
    /// monitoring, not a point-in-time snapshot).
    pub fn stats(&self) -> &Arc<RuntimeStats> {
        &self.stats
    }

    /// Point-in-time telemetry snapshot; same semantics as
    /// [`Runtime::telemetry`] (including the dropped-record fold).
    pub fn telemetry(&self) -> TelemetrySnapshot {
        let mut t = self.telemetry.lock().expect("lock poisoned");
        t.records_dropped = self.stats.telemetry_dropped.load(Ordering::Relaxed);
        t.snapshot()
    }

    /// The live per-class quantum table.
    pub fn quanta(&self) -> &Arc<QuantumTable> {
        &self.quanta
    }

    /// The live per-class SLO state.
    pub fn slo(&self) -> &Arc<SloState> {
        &self.slo
    }

    /// Freezes and copies the flight-recorder window (drain + compact +
    /// clone) without consuming the collector — the recorder keeps
    /// rolling. `None` when tracing is disarmed.
    pub fn trace_snapshot(&self) -> Option<Trace> {
        self.trace
            .as_ref()
            .map(|c| c.lock().expect("lock poisoned").snapshot_window())
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        // Best-effort stop if the user forgot to call shutdown().
        self.stop.store(true, Ordering::Release);
        if let Some(d) = self.dispatcher.take() {
            let _ = d.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}
