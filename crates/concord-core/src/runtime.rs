//! Runtime assembly: spawn every shard's dispatcher and workers, wire
//! each shard's transport, and read back what the shards publish.
//!
//! A [`Runtime`] is `config.num_shards` shards. Each shard is one
//! dispatcher thread, `config.n_workers` worker threads and one
//! transport; shards meet only at the cross-shard hand-off
//! ([`crate::shard`]). One shard passes no link, so its dispatcher runs
//! the plain single-dispatcher loop.

use crate::app::ConcordApp;
use crate::clock::Clock;
use crate::config::{RuntimeConfig, PROBE_PERIOD};
use crate::dispatcher::{DispatcherLoop, WorkerSlot};
use crate::preempt::{SignalAccounting, WorkerShared};
use crate::quantum::{ControllerConfig, QuantumController, QuantumTable, SloState};
use crate::shard::{ShardContext, ShardCounters, ShardLink, ShardRollup};
use crate::stats::RuntimeStats;
use crate::task::{FramePool, Task, FRAME_POOL_CAP};
use crate::telemetry::{Telemetry, TelemetryHandle, TelemetrySnapshot};
use crate::transport::{spsc, SpscReceiver, SpscSender, Transport};
use crate::worker::{WorkerLoop, WorkerMsg};
use concord_net::{Request, Response};
use concord_trace::{merge_shard_traces, Trace, TraceCollector};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::sync::Mutex;
use std::thread::JoinHandle;

/// A running Concord instance: `config.num_shards` dispatcher+worker
/// shards, each serving one transport.
///
/// Construct with [`Runtime::start`] (one shard over a ring pair) or
/// [`Runtime::start_shards`] (one transport per shard); stop with
/// [`Runtime::shutdown`] or [`Runtime::quiesce`], which drain all
/// in-flight requests first. [`Runtime::stats`] and
/// [`Runtime::telemetry`] read shard 0, the whole runtime at one shard;
/// [`Runtime::rollup`] and [`Runtime::observer`] cover every shard.
pub struct Runtime {
    shards: Vec<Shard>,
}

/// One dispatcher and its workers.
struct Shard {
    /// Raised to make the dispatcher drain and exit.
    stop: Arc<AtomicBool>,
    published: Published,
    shared: Vec<Arc<WorkerShared>>,
    dispatcher: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// What one shard publishes: the `Arc`s a [`RuntimeObserver`] shares.
#[derive(Clone)]
struct Published {
    stats: Arc<RuntimeStats>,
    telemetry: TelemetryHandle,
    quanta: Arc<QuantumTable>,
    slo: Arc<SloState>,
    /// Scheduling-event collector; `None` when the tracer is disarmed
    /// via `RuntimeConfig::builder().trace(..)`.
    trace: Option<Arc<Mutex<TraceCollector>>>,
}

impl Runtime {
    /// Starts one shard — one dispatcher thread plus `config.n_workers`
    /// worker threads — serving requests polled from the NIC-model RX
    /// ring `rx` and emitting responses on its TX ring `tx`.
    ///
    /// # Panics
    ///
    /// As [`Runtime::start_shards`] with one transport: if
    /// `config.num_shards` is not 1.
    pub fn start<A: ConcordApp>(
        config: RuntimeConfig,
        app: Arc<A>,
        rx: SpscReceiver<Request>,
        tx: SpscSender<Response>,
    ) -> Self {
        // An array, not a `Vec`: no heap block for one transport (see
        // the heap note in `start_shards`).
        Self::start_shards(config, app, [(rx, tx)])
    }

    /// Starts `config.num_shards` shards, shard `i` owning the `i`-th of
    /// `transports` (e.g. a pair `(rx, tx)` of rings, or a TCP shard's
    /// sockets). The front end decides which shard's transport a request
    /// enters. [`ConcordApp::setup`] runs once, before any thread starts.
    ///
    /// # Panics
    ///
    /// Panics if `transports` does not hold `config.num_shards` entries,
    /// if `config.n_workers` is zero, or if thread spawning fails.
    /// [`RuntimeConfig::builder`] validates the config instead of
    /// panicking.
    pub fn start_shards<A: ConcordApp, T: Transport>(
        config: RuntimeConfig,
        app: Arc<A>,
        transports: impl IntoIterator<Item = T, IntoIter: ExactSizeIterator>,
    ) -> Self {
        let transports = transports.into_iter();
        let n = transports.len();
        assert_eq!(n, config.num_shards, "one transport per shard");
        assert!(config.n_workers >= 1, "need at least one worker");
        app.setup();
        // One shard has nobody to hand off to: it gets no link.
        let links: Option<Arc<[ShardLink]>> =
            (n > 1).then(|| (0..n).map(|_| ShardLink::default()).collect());
        // `shards` allocates after its first shard's own blocks, not
        // before them as `collect` would: the benchmark's `setup_s`
        // follows the allocator's heap layout, and a block ahead of the
        // shard's (or a temporary `Vec` of transports) moved it.
        let mut shards = Vec::new();
        for (id, io) in transports.enumerate() {
            let ctx = links.as_ref().map(|links| ShardContext {
                id,
                links: links.clone(),
            });
            let shard = Shard::start(config.clone(), &app, io, ctx);
            shards.reserve_exact(n - id);
            shards.push(shard);
        }
        Self { shards }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Shard 0's live counters (the whole runtime at one shard).
    pub fn stats(&self) -> Arc<RuntimeStats> {
        self.shards[0].published.stats.clone()
    }

    /// Point-in-time copy of shard 0's request-lifecycle telemetry:
    /// queueing delay, measured service time and sojourn histograms
    /// (p50/p99/p99.9 accessors) plus slowdown.
    ///
    /// Each record reaches the dispatcher inside its completion message
    /// and is folded in before the response is emitted, so a snapshot
    /// taken after the collector has observed `n` responses covers at
    /// least those `n` requests.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        self.shards[0].published.telemetry()
    }

    /// Per-shard counter rows plus the cross-shard totals. Final after
    /// [`Runtime::quiesce`]; mid-run values are live and may be
    /// mid-hand-off.
    pub fn rollup(&self) -> ShardRollup {
        rollup(self.shards.iter().map(|s| &s.published))
    }

    /// Sum of every worker's signal-fate tally (consumed / obsolete /
    /// stale) over every shard. At quiescence (after
    /// [`Runtime::quiesce`], which also sweeps still-parked signals) the
    /// conformance oracle asserts `total() == signals_sent` —
    /// injector-suppressed stores never increment `signals_sent` and are
    /// tallied separately in `signals_dropped_injected`.
    pub fn signal_accounting(&self) -> SignalAccounting {
        let mut sum = SignalAccounting::default();
        for s in self.shards.iter().flat_map(|s| &s.shared) {
            let a = s.signal_accounting();
            sum.consumed += a.consumed;
            sum.obsolete += a.obsolete;
            sum.stale += a.stale;
        }
        sum
    }

    /// Stops every shard from ingesting, then drains each one's
    /// in-flight requests and joins its threads, leaving the runtime
    /// queryable: after this returns, [`Runtime::stats`],
    /// [`Runtime::telemetry`], [`Runtime::rollup`] and
    /// [`Runtime::signal_accounting`] are final (quiescent) values.
    /// Every shard is stopped before any is joined, so a shard waiting
    /// for answers a sibling owes it is never waiting on a sibling that
    /// was not told to drain. Idempotent.
    pub fn quiesce(&mut self) {
        for shard in &self.shards {
            shard.stop.store(true, Ordering::Release);
        }
        for shard in &mut self.shards {
            shard.quiesce();
        }
    }

    /// Takes the collected scheduling-event trace, leaving an empty one
    /// behind: one shard's trace as it is, several merged into one with
    /// the shard id packed into each record's track word (`track = shard
    /// << 16 | lane`). Returns `None` when tracing was disarmed via
    /// `RuntimeConfig::builder().trace(..)`. Call after
    /// [`Runtime::quiesce`] for a complete trace; calling mid-run yields
    /// whatever the collectors have drained so far plus everything still
    /// parked in the lanes.
    pub fn take_trace(&self) -> Option<Trace> {
        merged(self.shards.iter().filter_map(|s| {
            let c = s.published.trace.as_ref()?;
            Some(c.lock().expect("lock poisoned").take_trace())
        }))
    }

    /// Stops ingesting, drains every in-flight request, joins all threads
    /// and returns shard 0's final counters.
    pub fn shutdown(mut self) -> Arc<RuntimeStats> {
        self.quiesce();
        self.stats()
    }

    /// A read-only handle onto every shard's published state — live
    /// stats atomics, telemetry snapshots, and the flight-recorder
    /// window — for the introspection plane (an admin thread scraping
    /// `/metrics` or `/statz`, or a periodic report). The observer only
    /// shares `Arc`s: it stays valid while the threads run and keeps the
    /// final counters readable after shutdown, but never blocks the data
    /// plane beyond the same short telemetry/collector locks the runtime
    /// itself takes.
    pub fn observer(&self) -> RuntimeObserver {
        RuntimeObserver {
            shards: self.shards.iter().map(|s| s.published.clone()).collect(),
        }
    }
}

impl Shard {
    /// Spawns one shard's workers and dispatcher over the transport
    /// `io`; `shard` carries the hand-off links when there are siblings.
    fn start<A: ConcordApp, T: Transport>(
        config: RuntimeConfig,
        app: &Arc<A>,
        mut io: T,
        shard: Option<ShardContext>,
    ) -> Self {
        let clock: Clock = config.clock.clone();
        let stop = Arc::new(AtomicBool::new(false));
        let workers_stop = Arc::new(AtomicBool::new(false));
        // Link the transport's admission counters (if it has any) into the
        // stats object so `RuntimeStats::snapshot()` reports admission
        // alongside the scheduler's own counters.
        let stats = {
            let mut s = RuntimeStats::with_workers(config.n_workers);
            s.admission = io.admission_counters();
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
        // SLO-aware shedding: hand the blown-verdict bits to the transport
        // (a no-op for plain rings; a TCP shard's admission gate sheds
        // blown classes with RETRY).
        if slo.any_budget() {
            io.attach_slo(slo.clone());
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
            io,
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
            published: Published {
                stats,
                telemetry,
                quanta,
                slo,
                trace: trace_collector,
            },
            shared: shared_lines,
            dispatcher: Some(dispatcher),
            workers: worker_handles,
        }
    }

    /// Joins this (already stopped) shard's threads and publishes its
    /// final signal fates and trace events.
    fn quiesce(&mut self) {
        if let Some(d) = self.dispatcher.take() {
            d.join().expect("dispatcher thread");
        }
        for w in self.workers.drain(..) {
            w.join().expect("worker thread");
        }
        let stats = &self.published.stats;
        // All threads quiesced: account any signal that landed after its
        // worker's final slice, then publish the per-worker signal fates
        // into the stats rows so they survive this Runtime being dropped.
        for (i, s) in self.shared.iter().enumerate() {
            s.sweep_pending();
            let a = s.signal_accounting();
            if let Some(ws) = stats.per_worker.get(i) {
                ws.signals_consumed.store(a.consumed, Ordering::Relaxed);
                ws.signals_obsolete.store(a.obsolete, Ordering::Relaxed);
                ws.signals_stale.store(a.stale, Ordering::Relaxed);
            }
        }
        // Sweep any events still parked in worker lanes (the dispatcher's
        // final drain ran before the workers were released).
        if let Some(c) = &self.published.trace {
            c.lock().expect("lock poisoned").drain();
        }
    }
}

impl Published {
    fn telemetry(&self) -> TelemetrySnapshot {
        let mut t = self.telemetry.lock().expect("lock poisoned");
        t.records_dropped = self.stats.telemetry_dropped.load(Ordering::Relaxed);
        t.snapshot()
    }
}

/// The counter rows of `shards`, in shard order.
fn rollup<'a>(shards: impl Iterator<Item = &'a Published>) -> ShardRollup {
    let per_shard = shards
        .map(|p| {
            let s = &p.stats;
            ShardCounters {
                ingested: s.ingested.load(Ordering::Relaxed),
                completed: s.completed(),
                failed: s.failed.load(Ordering::Relaxed),
                tx_dropped: s.tx_dropped.load(Ordering::Relaxed),
                offloaded: s.shard_offloaded.load(Ordering::Relaxed),
                reclaimed: 0,
                steals_in: s.shard_steals_in.load(Ordering::Relaxed),
                queue_max: s
                    .per_worker
                    .iter()
                    .map(|w| w.queue_max.load(Ordering::Relaxed))
                    .collect(),
            }
        })
        .collect();
    ShardRollup { per_shard }
}

/// One shard's trace as it is, several merged (`track = shard << 16 |
/// lane`), none as `None`.
fn merged(traces: impl Iterator<Item = Trace>) -> Option<Trace> {
    let mut traces: Vec<Trace> = traces.collect();
    match traces.len() {
        0 | 1 => traces.pop(),
        _ => Some(merge_shard_traces(traces)),
    }
}

/// Read-only view of every shard of a [`Runtime`], detachable from the
/// runtime's own lifetime. Obtained via [`Runtime::observer`];
/// cloneable and `Send`, so an admin listener or a report loop can hold
/// one on its own thread while the control path retains the `Runtime`
/// (whose `shutdown` consumes it).
#[derive(Clone)]
pub struct RuntimeObserver {
    shards: Vec<Published>,
}

impl RuntimeObserver {
    /// Number of shards observed.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// One shard's counters (live atomics — coherent enough for
    /// monitoring, not a point-in-time snapshot).
    pub fn stats(&self, shard: usize) -> &Arc<RuntimeStats> {
        &self.shards[shard].stats
    }

    /// One shard's point-in-time telemetry snapshot (including per-class
    /// rows); same semantics as [`Runtime::telemetry`].
    pub fn telemetry(&self, shard: usize) -> TelemetrySnapshot {
        self.shards[shard].telemetry()
    }

    /// One shard's live per-class quantum table (adaptive or fixed).
    pub fn quanta(&self, shard: usize) -> &Arc<QuantumTable> {
        &self.shards[shard].quanta
    }

    /// One shard's SLO budget/blown state.
    pub fn slo(&self, shard: usize) -> &Arc<SloState> {
        &self.shards[shard].slo
    }

    /// Per-shard counter rows plus cross-shard totals; live (may be
    /// mid-hand-off), final once the runtime has quiesced.
    pub fn rollup(&self) -> ShardRollup {
        rollup(self.shards.iter())
    }

    /// Freezes and copies every shard's flight-recorder window (drain +
    /// compact + clone) without consuming any collector — the recorders
    /// keep rolling — merged as [`Runtime::take_trace`] merges. `None`
    /// when tracing is disarmed.
    pub fn trace_snapshot(&self) -> Option<Trace> {
        merged(self.shards.iter().filter_map(|p| {
            let c = p.trace.as_ref()?;
            Some(c.lock().expect("lock poisoned").snapshot_window())
        }))
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        // Best-effort stop if the user forgot to call shutdown().
        for shard in &self.shards {
            shard.stop.store(true, Ordering::Release);
        }
        for shard in &mut self.shards {
            if let Some(d) = shard.dispatcher.take() {
                let _ = d.join();
            }
            for w in shard.workers.drain(..) {
                let _ = w.join();
            }
        }
    }
}
