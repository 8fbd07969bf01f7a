//! The full-system discrete-event simulator.
//!
//! One [`simulate`] call runs a complete server: an open-loop arrival
//! stream feeding a dispatcher thread that ingests, dispatches, signals
//! preemptions and (for Concord) steals application work, plus `n` worker
//! threads that execute request slices and yield cooperatively or on
//! interrupts. All costs come from [`CostModel`](crate::cost::CostModel);
//! all randomness from one seeded RNG, so runs are fully deterministic.
//!
//! The dispatcher is modeled as a *serial* processor of micro-operations
//! (ingest, dispatch, signal, completion, requeue, stolen-work slice), each
//! with a cycle cost. Its serialization is what makes the §2.2 overheads
//! emerge rather than being hard-coded: when it is busy, preemption signals
//! go out late and single-queue workers sit idle longer — exactly the
//! dynamics the paper measures.

use crate::config::{
    PreemptMechanism, QueueDiscipline, SystemConfig, ADAPTIVE_INTERVAL_NS, ADAPTIVE_MAX_NS,
    ADAPTIVE_MIN_NS, DISPATCHER_CHECK_NS,
};
use crate::engine::EventQueue;
use crate::request::{ReqId, Request};
use crate::result::SimResult;
use concord_core::quantum::{ControllerConfig, QuantumController, QuantumTable, SloState};
use concord_core::{jbsq_pick, CentralQueue};
use concord_metrics::{Histogram, SlowdownTracker, Summary};
use concord_workloads::arrival::Poisson;
use concord_workloads::{Arrival, RecordedTrace, TraceGenerator, Workload};
use std::collections::VecDeque;

/// Run-control parameters shared by every experiment.
#[derive(Clone, Copy, Debug)]
pub struct SimParams {
    /// Offered load, requests per second (Poisson arrivals, §5.1).
    pub rate_rps: f64,
    /// Number of arrivals to generate.
    pub requests: u64,
    /// Fraction of (earliest) arrivals excluded from metrics as warmup;
    /// the paper discards the first 10% of samples (§5.1).
    pub warmup_frac: f64,
    /// RNG seed; same seed → identical run.
    pub seed: u64,
}

impl SimParams {
    /// Parameters with the paper's 10% warmup.
    pub fn new(rate_rps: f64, requests: u64, seed: u64) -> Self {
        Self {
            rate_rps,
            requests,
            warmup_frac: 0.1,
            seed,
        }
    }
}

/// Dispatcher bookkeeping operations, processed serially and in FIFO order.
#[derive(Clone, Copy, Debug)]
enum Duty {
    /// Move one arrival from the NIC ring into the central queue.
    Ingest(ReqId),
    /// Process a worker's asynchronous completion notice (JBSQ only).
    Completion { worker: usize },
    /// Re-place a preempted request on the central queue and release the
    /// worker's queue slot.
    Requeue { worker: usize, req: ReqId },
}

/// The operation the dispatcher is currently executing.
///
/// `Duties` dominates the size on purpose — see [`MAX_DUTY_BATCH`].
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Copy, Debug)]
enum DispOp {
    Signal {
        worker: usize,
        epoch: u64,
    },
    Dispatch {
        worker: usize,
        req: ReqId,
    },
    /// One batched run of bookkeeping duties (1..=dispatcher_batch of them).
    Duties([Option<Duty>; MAX_DUTY_BATCH]),
    /// One slice of stolen application work (work-conserving dispatcher).
    Slice {
        wall: u64,
    },
}

/// Upper bound on duty batching (keeps `DispOp` `Copy` and allocation-free).
const MAX_DUTY_BATCH: usize = 16;

#[derive(Clone, Copy, Debug)]
enum Event {
    /// Next request arrives from the load generator.
    Arrival { req: ReqId, last: bool },
    /// A duty becomes visible to the dispatcher (coherence delay elapsed).
    DutyReady(Duty),
    /// A dispatched request lands in a worker's local queue.
    Delivery { worker: usize, req: ReqId },
    /// A single-queue worker's "requesting" flag becomes visible.
    SlotFree { worker: usize },
    /// The current slice runs to natural completion.
    WorkerDone { worker: usize, epoch: u64 },
    /// Post-completion/post-yield costs are paid; worker can take new work.
    WorkerFree { worker: usize, epoch: u64 },
    /// A running slice reaches its scheduling quantum.
    QuantumExpiry { worker: usize, epoch: u64 },
    /// The moment application code stops on a worker (probe saw the signal,
    /// or the interrupt landed).
    PreemptAt { worker: usize, epoch: u64 },
    /// The dispatcher finishes its current micro-op.
    DispatcherDone,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WorkerState {
    Idle,
    Running,
    /// Paying finish/yield costs; will take new work at the WorkerFree event.
    Transition,
}

struct WorkerSim {
    state: WorkerState,
    epoch: u64,
    running: Option<ReqId>,
    /// When application code started progressing in the current slice.
    slice_start: u64,
    local: VecDeque<ReqId>,
    /// Dispatcher-side reservation count (its view of this worker's queue).
    inflight: u8,
    /// If idle while runnable work exists, when the hunger began.
    wait_from: Option<u64>,
    /// When the worker last entered the Idle state.
    idle_entered: u64,
    busy_cycles: u64,
    idle_wait_cycles: u64,
    /// Cycles spent on preemption receive + context-switch paths (neither
    /// useful work nor dispatcher-wait).
    transition_cycles: u64,
}

impl WorkerSim {
    fn new() -> Self {
        Self {
            state: WorkerState::Idle,
            epoch: 0,
            running: None,
            slice_start: 0,
            local: VecDeque::new(),
            inflight: 0,
            wait_from: None,
            idle_entered: 0,
            busy_cycles: 0,
            idle_wait_cycles: 0,
            transition_cycles: 0,
        }
    }
}

struct DispatcherSim {
    busy: bool,
    op: Option<DispOp>,
    /// Pending preemption signals, highest priority.
    signals: VecDeque<(usize, u64)>,
    /// FIFO bookkeeping duties.
    duties: VecDeque<Duty>,
    /// The stolen request's saved context (work-conserving mode).
    stolen: Option<ReqId>,
    sched_cycles: u64,
    app_cycles: u64,
    completed: u64,
}

impl DispatcherSim {
    fn new() -> Self {
        Self {
            busy: false,
            op: None,
            signals: VecDeque::new(),
            duties: VecDeque::new(),
            stolen: None,
            sched_cycles: 0,
            app_cycles: 0,
            completed: 0,
        }
    }
}

struct Sim<'a> {
    cfg: &'a SystemConfig,
    arrivals: Box<dyn Iterator<Item = Arrival> + 'a>,
    clock: u64,
    events: EventQueue<Event>,
    requests: Vec<Request>,
    /// The runtime dispatcher's own queue type, over arena indices.
    central: CentralQueue<ReqId>,
    workers: Vec<WorkerSim>,
    disp: DispatcherSim,
    warmup_cutoff: u64,
    // Metrics.
    slowdown: SlowdownTracker,
    by_class: Vec<SlowdownTracker>,
    latency_ns: Histogram,
    /// Per-slice-start gap between a worker becoming ready and application
    /// code progressing again (the Fig. 3 `c_next` measurement).
    feed_gap: Histogram,
    achieved_quantum: Summary,
    /// Per-class quantum table in **cycles**, mirroring the runtime's
    /// [`QuantumTable`] (the table and controller are unit-agnostic);
    /// `None` runs the classic fixed quantum.
    quanta: Option<QuantumTable>,
    /// Mirror of the runtime's per-class feedback controller, operating
    /// in the cycle domain so sim↔runtime cross-validation exercises the
    /// identical control law.
    controller: Option<QuantumController>,
    /// Empty SLO state: the sim has no admission gate to shed through,
    /// so the mirror controller only retunes quanta.
    slo: SloState,
    preemptions: u64,
    completed: u64,
    /// Highest per-worker queue occupancy ever reached (JBSQ bound oracle).
    max_jbsq_inflight: u64,
    events_processed: u64,
    /// Scheduling-event trace mirroring the runtime tracer's format
    /// (tracks `0..n_workers` = workers, `n_workers` = dispatcher);
    /// `None` unless the run was started via [`simulate_traced`].
    trace: Option<concord_trace::Trace>,
}

/// Runs one simulation of `cfg` serving `workload` under `params`.
pub fn simulate<W: Workload>(cfg: &SystemConfig, workload: W, params: &SimParams) -> SimResult {
    let mut gen = TraceGenerator::new(Poisson::with_rate(params.rate_rps), workload, params.seed);
    let arrivals = Box::new(std::iter::from_fn(move || Some(gen.next_arrival())));
    run_simulation(
        cfg,
        arrivals,
        params.requests,
        params.warmup_frac,
        params.rate_rps,
        false,
    )
    .0
}

/// Like [`simulate`], but also records a scheduling-event trace in the
/// exact event vocabulary of the runtime tracer (`concord-trace`):
/// ARRIVE/DISPATCH/SIGNAL_SENT/SIGNAL_SEEN/YIELD/RESUME/STEAL/COMPLETE
/// on per-worker tracks plus a dispatcher track, timestamps in
/// nanoseconds of simulated time. The trace feeds the same Perfetto
/// export and [`TraceSummary`](concord_trace::TraceSummary) oracles as a
/// real run.
pub fn simulate_traced<W: Workload>(
    cfg: &SystemConfig,
    workload: W,
    params: &SimParams,
) -> (SimResult, concord_trace::Trace) {
    let mut gen = TraceGenerator::new(Poisson::with_rate(params.rate_rps), workload, params.seed);
    let arrivals = Box::new(std::iter::from_fn(move || Some(gen.next_arrival())));
    let (result, trace) = run_simulation(
        cfg,
        arrivals,
        params.requests,
        params.warmup_frac,
        params.rate_rps,
        true,
    );
    (result, trace.expect("traced run produces a trace"))
}

/// Runs `shards` independent copies of `cfg`, splitting the offered load
/// evenly across them, and merges the per-shard results with
/// [`SimResult::absorb`]. This models the sharded `Runtime` deployment
/// shape — N dispatcher+worker groups, each a full Concord instance — as
/// independent shards, each offered `rate/N`, with no hand-off between
/// them (the runtime places connections by least connections at accept
/// and moves only work an idle shard asks for); per-shard arrival
/// streams use decorrelated seeds so shards do not see lock-step
/// arrivals.
pub fn simulate_sharded<W: Workload + Clone>(
    cfg: &SystemConfig,
    workload: W,
    params: &SimParams,
    shards: usize,
) -> SimResult {
    let (result, _) = run_sharded(cfg, workload, params, shards, false);
    result
}

/// Like [`simulate_sharded`], but each shard records a scheduling-event
/// trace; the shard traces are merged with
/// [`merge_shard_traces`](concord_trace::merge_shard_traces), packing the
/// shard id into the upper track bits exactly as the sharded runtime
/// tracer does.
pub fn simulate_sharded_traced<W: Workload + Clone>(
    cfg: &SystemConfig,
    workload: W,
    params: &SimParams,
    shards: usize,
) -> (SimResult, concord_trace::Trace) {
    let (result, trace) = run_sharded(cfg, workload, params, shards, true);
    (result, trace.expect("traced run produces a trace"))
}

fn run_sharded<W: Workload + Clone>(
    cfg: &SystemConfig,
    workload: W,
    params: &SimParams,
    shards: usize,
    traced: bool,
) -> (SimResult, Option<concord_trace::Trace>) {
    assert!(shards >= 1, "need at least one shard");
    assert!(
        params.requests >= shards as u64,
        "need at least one request per shard"
    );
    let base = params.requests / shards as u64;
    let rem = params.requests % shards as u64;
    let mut merged: Option<SimResult> = None;
    let mut traces = Vec::with_capacity(if traced { shards } else { 0 });
    for shard in 0..shards {
        let shard_params = SimParams {
            rate_rps: params.rate_rps / shards as f64,
            requests: base + if (shard as u64) < rem { 1 } else { 0 },
            warmup_frac: params.warmup_frac,
            seed: params
                .seed
                .wrapping_add((shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        };
        let result = if traced {
            let (r, t) = simulate_traced(cfg, workload.clone(), &shard_params);
            traces.push(t);
            r
        } else {
            simulate(cfg, workload.clone(), &shard_params)
        };
        match merged.as_mut() {
            Some(m) => m.absorb(&result),
            None => merged = Some(result),
        }
    }
    let trace = traced.then(|| concord_trace::merge_shard_traces(traces));
    (merged.expect("shards >= 1"), trace)
}

/// Replays a [`RecordedTrace`] through the system — every compared system
/// sees the *identical* request sequence, arrival times included.
pub fn simulate_recorded(cfg: &SystemConfig, trace: &RecordedTrace) -> SimResult {
    let arrivals = Box::new(trace.iter().copied());
    run_simulation(
        cfg,
        arrivals,
        trace.len() as u64,
        0.1,
        trace.rate_rps(),
        false,
    )
    .0
}

fn run_simulation<'a>(
    cfg: &'a SystemConfig,
    arrivals: Box<dyn Iterator<Item = Arrival> + 'a>,
    requests: u64,
    warmup_frac: f64,
    offered_rps: f64,
    traced: bool,
) -> (SimResult, Option<concord_trace::Trace>) {
    assert!(cfg.n_workers >= 1, "need at least one worker");
    assert!(requests >= 1, "need at least one request");
    // The adaptive mirror only makes sense when preemption is enabled
    // (quantum_cycles() == u64::MAX means run-to-completion).
    let adaptive = cfg.adaptive && cfg.quantum_cycles() != u64::MAX;
    let mut sim = Sim {
        cfg,
        arrivals,
        clock: 0,
        events: EventQueue::new(),
        requests: Vec::with_capacity(requests as usize),
        central: CentralQueue::new(),
        workers: (0..cfg.n_workers).map(|_| WorkerSim::new()).collect(),
        disp: DispatcherSim::new(),
        warmup_cutoff: (requests as f64 * warmup_frac) as u64,
        slowdown: SlowdownTracker::new(),
        by_class: Vec::new(),
        latency_ns: Histogram::with_max(3, 1 << 44),
        feed_gap: Histogram::with_max(3, 1 << 40),
        achieved_quantum: Summary::new(),
        quanta: adaptive.then(|| QuantumTable::fixed_raw(cfg.quantum_cycles())),
        controller: adaptive.then(|| {
            QuantumController::new(
                ControllerConfig {
                    // ns-suffixed fields hold *cycles* here: the
                    // controller is unit-agnostic, and the sim's clock
                    // domain is cycles.
                    interval_ns: cfg.cost.ns_to_cycles(ADAPTIVE_INTERVAL_NS).max(1),
                    min_ns: cfg.cost.ns_to_cycles(ADAPTIVE_MIN_NS).max(1),
                    max_ns: cfg.cost.ns_to_cycles(ADAPTIVE_MAX_NS).max(1),
                    tune_quanta: true,
                },
                0,
            )
        }),
        slo: SloState::default(),
        preemptions: 0,
        completed: 0,
        max_jbsq_inflight: 0,
        events_processed: 0,
        trace: traced.then(|| concord_trace::Trace::new(cfg.n_workers)),
    };
    sim.run(requests);
    let trace = sim.trace.take();
    (sim.into_result(offered_rps), trace)
}

impl<'a> Sim<'a> {
    // --- Small helpers ----------------------------------------------------

    fn cost(&self) -> &crate::cost::CostModel {
        &self.cfg.cost
    }

    /// Records one scheduling event at `ts_cycles` of simulated time,
    /// converted to nanoseconds so sim traces and runtime traces share
    /// units. No-op unless the run was started via [`simulate_traced`].
    fn trace_ev(
        &mut self,
        track: u32,
        ts_cycles: u64,
        kind: concord_trace::EventKind,
        id: u64,
        gen: u64,
    ) {
        if let Some(trace) = self.trace.as_mut() {
            let ts_ns = (ts_cycles as f64 / self.cfg.cost.ghz) as u64;
            trace.record(track, concord_trace::TraceEvent::new(ts_ns, kind, id, gen));
        }
    }

    /// The dispatcher's trace track index.
    fn disp_track(&self) -> u32 {
        self.cfg.n_workers as u32
    }

    fn worker_inflation(&self) -> f64 {
        self.cfg.preemption.proc_overhead(self.cost())
    }

    /// Wall cycles needed to execute `work` cycles of application logic on
    /// a worker (instrumentation inflation applied).
    fn inflate(&self, work: u64) -> u64 {
        ((work as f64) * (1.0 + self.worker_inflation())).ceil() as u64
    }

    /// Inverse of [`Self::inflate`]: application progress made during
    /// `wall` cycles.
    fn deflate(&self, wall: u64) -> u64 {
        ((wall as f64) / (1.0 + self.worker_inflation())).floor() as u64
    }

    fn schedule_next_arrival(&mut self, remaining: u64) {
        if remaining == 0 {
            return;
        }
        let Some(a) = self.arrivals.next() else {
            return;
        };
        let t = self.cost().ns_to_cycles(a.time_ns);
        let service = self.cost().ns_to_cycles(a.spec.service_ns);
        let req = Request::new(a.id, a.spec.class, service, t);
        let id = self.requests.len();
        self.requests.push(req);
        self.events.push(
            t,
            Event::Arrival {
                req: id,
                last: remaining == 1,
            },
        );
    }

    fn all_worker_queues_full(&self) -> bool {
        self.pick_dispatch_target().is_none()
    }

    /// The policy's priority key for `req`, from its state in
    /// nanoseconds — the same `PolicyKind::key` the runtime calls.
    fn key(&self, req: ReqId) -> u64 {
        self.cfg
            .policy
            .key(self.requests[req].key_input(&self.cfg.cost))
    }

    // --- Main loop ---------------------------------------------------------

    fn run(&mut self, total_requests: u64) {
        let mut arrivals_left = total_requests;
        self.schedule_next_arrival(arrivals_left);
        arrivals_left -= 1;

        // Once the last arrival fires we allow a bounded drain, then censor.
        let mut hard_cap = u64::MAX;

        while let Some((t, ev)) = self.events.pop() {
            if t > hard_cap {
                break;
            }
            self.clock = t;
            self.events_processed += 1;
            match ev {
                Event::Arrival { req, last } => {
                    if last {
                        // Drain budget: twice the trace span plus 100 ms.
                        hard_cap = t
                            .saturating_mul(2)
                            .saturating_add(self.cost().ns_to_cycles(100_000_000));
                    } else {
                        self.schedule_next_arrival(arrivals_left);
                        arrivals_left = arrivals_left.saturating_sub(1);
                    }
                    self.on_arrival(req);
                }
                Event::DutyReady(d) => {
                    self.disp.duties.push_back(d);
                    self.try_start_dispatcher();
                }
                Event::Delivery { worker, req } => self.on_delivery(worker, req),
                Event::SlotFree { worker } => {
                    self.workers[worker].inflight = self.workers[worker].inflight.saturating_sub(1);
                    self.try_start_dispatcher();
                }
                Event::WorkerDone { worker, epoch } => self.on_worker_done(worker, epoch),
                Event::WorkerFree { worker, epoch } => self.on_worker_free(worker, epoch),
                Event::QuantumExpiry { worker, epoch } => self.on_quantum_expiry(worker, epoch),
                Event::PreemptAt { worker, epoch } => self.on_preempt_at(worker, epoch),
                Event::DispatcherDone => self.on_dispatcher_done(),
            }
            self.update_hunger();
        }
    }

    // --- Event handlers ----------------------------------------------------

    fn on_arrival(&mut self, req: ReqId) {
        self.events
            .push(self.clock, Event::DutyReady(Duty::Ingest(req)));
    }

    /// Re-evaluates each worker's `c_next` starvation clock: a worker is
    /// *starved* while idle with work available for it — either the central
    /// queue is non-empty (the dispatcher could feed it) or a request is
    /// already in flight / reserved for it. Genuine no-work idleness is not
    /// counted, so `worker_idle_wait_cycles` measures exactly the §2.2.2
    /// communication stall.
    fn update_hunger(&mut self) {
        let now = self.clock;
        let central_work = !self.central.is_empty();
        for w in &mut self.workers {
            let starved = w.state == WorkerState::Idle && (central_work || w.inflight > 0);
            match (starved, w.wait_from) {
                (true, None) => w.wait_from = Some(now),
                (false, Some(from)) => {
                    w.idle_wait_cycles += now - from;
                    w.wait_from = None;
                }
                _ => {}
            }
        }
    }

    fn on_delivery(&mut self, worker: usize, req: ReqId) {
        self.workers[worker].local.push_back(req);
        if self.workers[worker].state == WorkerState::Idle {
            self.start_slice(worker);
        }
    }

    fn start_slice(&mut self, worker: usize) {
        let now = self.clock;
        let w = &mut self.workers[worker];
        let Some(req) = w.local.pop_front() else {
            return;
        };
        // JBSQ's asynchronous dispatch means the worker starts its own
        // quantum timer (§3.2); the timer cost is worker idle overhead.
        let timer = if self.cfg.queue.is_jbsq() {
            self.cfg.cost.jbsq_timer_start
        } else {
            0
        };
        if let Some(from) = w.wait_from.take() {
            w.idle_wait_cycles += now - from;
        }
        w.idle_wait_cycles += timer;
        // Feed gap: how long since this worker could have started new work.
        let gap = if w.state == WorkerState::Idle {
            now - w.idle_entered
        } else {
            0
        } + timer;
        let app_begin = now + timer;
        w.state = WorkerState::Running;
        w.epoch += 1;
        w.running = Some(req);
        w.slice_start = app_begin;
        let epoch = w.epoch;

        if self.requests[req].id >= self.warmup_cutoff {
            self.feed_gap.record(gap);
        }
        self.trace_ev(
            worker as u32,
            app_begin,
            concord_trace::EventKind::Resume,
            self.requests[req].id,
            epoch,
        );

        let dur = self.inflate(self.requests[req].remaining);
        self.events
            .push(app_begin + dur, Event::WorkerDone { worker, epoch });
        // Per-class adaptive quantum when the mirror controller runs,
        // otherwise the configured fixed quantum.
        let q = match self.quanta.as_ref() {
            Some(table) => table.get_ns(self.requests[req].class),
            None => self.cfg.quantum_cycles(),
        };
        if q < dur {
            self.events
                .push(app_begin + q, Event::QuantumExpiry { worker, epoch });
        }
    }

    fn on_worker_done(&mut self, worker: usize, epoch: u64) {
        let now = self.clock;
        {
            let w = &mut self.workers[worker];
            if w.epoch != epoch || w.state != WorkerState::Running {
                return;
            }
            w.busy_cycles += now - w.slice_start;
            w.state = WorkerState::Transition;
            w.epoch += 1;
        }
        let req = self.workers[worker]
            .running
            .take()
            .expect("running slice must hold a request");
        self.trace_ev(
            worker as u32,
            now,
            concord_trace::EventKind::Complete,
            self.requests[req].id,
            u64::from(self.requests[req].preemptions) + 1,
        );
        self.complete_request(req, now);

        let coherence = self.cost().coherence_one_way;
        match self.cfg.queue {
            QueueDiscipline::SingleQueue => {
                // The worker raises its "requesting" flag; the dispatcher
                // sees the slot free after one coherence transfer.
                self.events
                    .push(now + coherence, Event::SlotFree { worker });
            }
            QueueDiscipline::Jbsq(_) => {
                self.events.push(
                    now + coherence,
                    Event::DutyReady(Duty::Completion { worker }),
                );
            }
        }
        self.workers[worker].transition_cycles += self.cost().coop_switch;
        let free_at = now + self.cost().coop_switch;
        let epoch = self.workers[worker].epoch;
        self.events
            .push(free_at, Event::WorkerFree { worker, epoch });
    }

    fn on_worker_free(&mut self, worker: usize, epoch: u64) {
        {
            let w = &mut self.workers[worker];
            if w.epoch != epoch || w.state != WorkerState::Transition {
                return;
            }
            w.state = WorkerState::Idle;
            w.idle_entered = self.clock;
        }
        if !self.workers[worker].local.is_empty() {
            self.start_slice(worker);
        }
    }

    fn on_quantum_expiry(&mut self, worker: usize, epoch: u64) {
        let w = &self.workers[worker];
        if w.epoch != epoch || w.state != WorkerState::Running {
            return;
        }
        match self.cfg.preemption {
            PreemptMechanism::None => {}
            PreemptMechanism::Rdtsc => {
                // Self-preemption: the worker notices at its next probe.
                let lag = self.probe_lag(worker, self.clock);
                self.events
                    .push(self.clock + lag, Event::PreemptAt { worker, epoch });
            }
            PreemptMechanism::Coop
            | PreemptMechanism::Ipi
            | PreemptMechanism::LinuxIpi
            | PreemptMechanism::Uipi => {
                self.disp.signals.push_back((worker, epoch));
                self.try_start_dispatcher();
            }
        }
    }

    /// Cycles from `at` until the worker's next instrumentation probe.
    fn probe_lag(&self, worker: usize, at: u64) -> u64 {
        let spacing = self.cost().probe_spacing_cycles();
        let since = at - self.workers[worker].slice_start;
        let rem = since % spacing;
        if rem == 0 {
            0
        } else {
            spacing - rem
        }
    }

    fn on_preempt_at(&mut self, worker: usize, epoch: u64) {
        let now = self.clock;
        if self.workers[worker].epoch != epoch || self.workers[worker].state != WorkerState::Running
        {
            return;
        }
        let req = self.workers[worker]
            .running
            .take()
            .expect("running slice must hold a request");
        // The probe consumed the signal now; the switch costs that follow
        // are part of the yield latency a real worker would also pay.
        self.trace_ev(
            worker as u32,
            now,
            concord_trace::EventKind::SignalSeen,
            self.requests[req].id,
            epoch,
        );
        self.trace_ev(
            worker as u32,
            now,
            concord_trace::EventKind::Yield,
            self.requests[req].id,
            epoch,
        );

        let elapsed = now - self.workers[worker].slice_start;
        let consumed = self
            .deflate(elapsed)
            .min(self.requests[req].remaining.saturating_sub(1));
        self.requests[req].remaining -= consumed;
        self.requests[req].preemptions += 1;
        self.preemptions += 1;
        if self.requests[req].id >= self.warmup_cutoff {
            self.achieved_quantum.record(elapsed as f64);
        }

        let (recv, switch) = match self.cfg.preemption {
            PreemptMechanism::Coop => (self.cost().coop_final_miss, self.cost().coop_switch),
            PreemptMechanism::Ipi => (self.cost().ipi_recv, self.cost().preemptive_switch),
            PreemptMechanism::LinuxIpi => {
                (self.cost().linux_ipi_recv, self.cost().preemptive_switch)
            }
            PreemptMechanism::Uipi => (self.cost().uipi_recv, self.cost().coop_switch),
            PreemptMechanism::Rdtsc => (0, self.cost().coop_switch),
            PreemptMechanism::None => unreachable!("preemption disabled"),
        };

        {
            let w = &mut self.workers[worker];
            w.busy_cycles += elapsed;
            w.transition_cycles += recv + switch;
            w.state = WorkerState::Transition;
            w.epoch += 1;
        }
        let free_at = now + recv + switch;
        let epoch = self.workers[worker].epoch;
        self.events
            .push(free_at, Event::WorkerFree { worker, epoch });
        // The yielded request becomes runnable again once the dispatcher
        // processes the requeue notice.
        self.events.push(
            free_at + self.cost().coherence_one_way,
            Event::DutyReady(Duty::Requeue { worker, req }),
        );
    }

    // --- Dispatcher --------------------------------------------------------

    fn try_start_dispatcher(&mut self) {
        if self.disp.busy {
            return;
        }
        let Some((op, cost, is_app)) = self.pick_dispatcher_op() else {
            return;
        };
        self.disp.busy = true;
        self.disp.op = Some(op);
        if is_app {
            self.disp.app_cycles += cost;
        } else {
            self.disp.sched_cycles += cost;
        }
        self.events.push(self.clock + cost, Event::DispatcherDone);
    }

    /// Selects the next dispatcher micro-op and its cycle cost.
    fn pick_dispatcher_op(&mut self) -> Option<(DispOp, u64, bool)> {
        let cost = *self.cost();

        // 1. Preemption signals (skip any that went stale while queued).
        while let Some((worker, epoch)) = self.disp.signals.pop_front() {
            let w = &self.workers[worker];
            if w.epoch == epoch && w.state == WorkerState::Running {
                let c = match self.cfg.preemption {
                    PreemptMechanism::Coop => cost.coop_signal_write,
                    PreemptMechanism::Ipi | PreemptMechanism::LinuxIpi | PreemptMechanism::Uipi => {
                        cost.ipi_send
                    }
                    _ => cost.coop_signal_write,
                };
                return Some((DispOp::Signal { worker, epoch }, c, false));
            }
        }

        // 2. Dispatch the head request if a worker can take it.
        if !self.central.is_empty() {
            if let Some(worker) = self.pick_dispatch_target() {
                let req = self.central.pop_next().expect("checked non-empty");
                self.workers[worker].inflight += 1;
                self.max_jbsq_inflight = self
                    .max_jbsq_inflight
                    .max(self.workers[worker].inflight as u64);
                let c = match self.cfg.queue {
                    QueueDiscipline::SingleQueue => cost.disp_dispatch + cost.disp_sq_flag_read,
                    QueueDiscipline::Jbsq(_) => {
                        cost.disp_dispatch
                            + cost.disp_jbsq_scan_per_worker * self.cfg.n_workers as u64
                    }
                };
                return Some((DispOp::Dispatch { worker, req }, c, false));
            }
        }

        // 3. Bookkeeping duties, batched up to `dispatcher_batch`:
        //    followers in a batch cost a third of a standalone op (shared
        //    loop overhead, warm caches).
        if !self.disp.duties.is_empty() {
            let batch_limit = (self.cfg.dispatcher_batch.max(1) as usize).min(MAX_DUTY_BATCH);
            let mut batch: [Option<Duty>; MAX_DUTY_BATCH] = [None; MAX_DUTY_BATCH];
            let mut total = 0u64;
            let mut n = 0usize;
            while n < batch_limit {
                let Some(d) = self.disp.duties.pop_front() else {
                    break;
                };
                let c = match d {
                    Duty::Ingest(_) => cost.disp_ingest,
                    Duty::Completion { .. } => cost.disp_completion,
                    Duty::Requeue { .. } => cost.disp_requeue,
                };
                total += if n == 0 { c } else { c / 3 };
                batch[n] = Some(d);
                n += 1;
            }
            return Some((DispOp::Duties(batch), total, false));
        }

        // 4. Work conservation: resume the stolen request, or steal one.
        if self.cfg.work_conserving {
            if self.disp.stolen.is_none() && self.all_worker_queues_full() {
                // Never-started work only (§3.3): the queue keeps it
                // apart, so the victim is its best-ranked fresh entry.
                if let Some(req) = self.central.steal_not_started() {
                    self.disp.stolen = Some(req);
                    self.trace_ev(
                        self.disp_track(),
                        self.clock,
                        concord_trace::EventKind::Steal,
                        self.requests[req].id,
                        0,
                    );
                }
            }
            if let Some(req) = self.disp.stolen {
                let f = 1.0 + cost.rdtsc_proc_overhead();
                let remaining_wall = ((self.requests[req].remaining as f64) * f).ceil() as u64;
                let check = cost.ns_to_cycles(DISPATCHER_CHECK_NS).max(1);
                let wall = remaining_wall.min(check);
                return Some((DispOp::Slice { wall }, wall, true));
            }
        }

        None
    }

    /// Chooses the worker to dispatch to, or `None` if all are full: the
    /// runtime's JBSQ pick, with `k = 1` for a single queue.
    fn pick_dispatch_target(&self) -> Option<usize> {
        jbsq_pick(
            self.workers.iter().map(|w| usize::from(w.inflight)),
            usize::from(self.cfg.queue.depth()),
        )
    }

    fn on_dispatcher_done(&mut self) {
        let op = self.disp.op.take().expect("dispatcher op in flight");
        self.disp.busy = false;
        let now = self.clock;
        match op {
            DispOp::Signal { worker, epoch } => {
                let live = self.workers[worker].epoch == epoch
                    && self.workers[worker].state == WorkerState::Running;
                if live {
                    self.trace_ev(
                        self.disp_track(),
                        now,
                        concord_trace::EventKind::SignalSent,
                        worker as u64,
                        epoch,
                    );
                    let at = match self.cfg.preemption {
                        PreemptMechanism::Coop => {
                            // The write is visible now; the worker notices
                            // at its next probe.
                            now + self.probe_lag(worker, now)
                        }
                        // Interrupt propagation across the fabric.
                        _ => now + self.cost().coherence_one_way,
                    };
                    self.events.push(at, Event::PreemptAt { worker, epoch });
                }
            }
            DispOp::Dispatch { worker, req } => {
                self.trace_ev(
                    self.disp_track(),
                    now,
                    concord_trace::EventKind::Dispatch,
                    self.requests[req].id,
                    worker as u64,
                );
                self.events.push(
                    now + self.cost().coherence_one_way,
                    Event::Delivery { worker, req },
                );
            }
            DispOp::Duties(batch) => {
                for d in batch.into_iter().flatten() {
                    match d {
                        Duty::Ingest(req) => {
                            self.trace_ev(
                                self.disp_track(),
                                now,
                                concord_trace::EventKind::Arrive,
                                self.requests[req].id,
                                0,
                            );
                            let key = self.key(req);
                            self.central.push_fresh_prio(key, req);
                        }
                        Duty::Completion { worker } => {
                            self.workers[worker].inflight =
                                self.workers[worker].inflight.saturating_sub(1);
                        }
                        Duty::Requeue { worker, req } => {
                            self.workers[worker].inflight =
                                self.workers[worker].inflight.saturating_sub(1);
                            let key = self.key(req);
                            self.central.push_requeued_prio(key, req);
                        }
                    }
                }
            }
            DispOp::Slice { wall } => {
                let req = self.disp.stolen.expect("slice without stolen request");
                let f = 1.0 + self.cost().rdtsc_proc_overhead();
                let progress = ((wall as f64) / f).floor() as u64;
                let id = self.requests[req].id;
                // Like the runtime's work-conserving slices: generation 0
                // (self-preempted against a deadline, no signal line).
                self.trace_ev(
                    self.disp_track(),
                    now.saturating_sub(wall),
                    concord_trace::EventKind::Resume,
                    id,
                    0,
                );
                if progress >= self.requests[req].remaining {
                    self.requests[req].remaining = 0;
                    self.disp.stolen = None;
                    self.disp.completed += 1;
                    let slices = u64::from(self.requests[req].preemptions) + 1;
                    self.trace_ev(
                        self.disp_track(),
                        now,
                        concord_trace::EventKind::Complete,
                        id,
                        slices,
                    );
                    self.complete_request(req, now);
                } else {
                    self.requests[req].remaining -= progress;
                    self.trace_ev(
                        self.disp_track(),
                        now,
                        concord_trace::EventKind::Yield,
                        id,
                        0,
                    );
                }
            }
        }
        self.try_start_dispatcher();
    }

    // --- Completion & result ------------------------------------------------

    fn complete_request(&mut self, req: ReqId, now: u64) {
        let r = &mut self.requests[req];
        r.completion = Some(now);
        self.completed += 1;
        let sojourn = now.saturating_sub(r.arrival);
        let (class, service, id) = (r.class, r.service, r.id);
        if id >= self.warmup_cutoff {
            self.slowdown.record(service, sojourn);
            let slot = class as usize;
            if self.by_class.len() <= slot {
                self.by_class.resize_with(slot + 1, SlowdownTracker::new);
            }
            self.by_class[slot].record(service, sojourn);
            let ghz = self.cfg.cost.ghz;
            self.latency_ns.record((sojourn as f64 / ghz) as u64);
        }
        // Feed the mirror controller exactly as the runtime dispatcher
        // does from drained telemetry: every completion, warmup included.
        if let (Some(ctrl), Some(quanta)) = (self.controller.as_mut(), self.quanta.as_ref()) {
            ctrl.observe(class, service, sojourn);
            ctrl.poll(now, quanta, &self.slo);
        }
    }

    fn into_result(mut self, offered_rps: f64) -> SimResult {
        let end = self.clock;
        // Censor: requests that never completed contribute their partial
        // sojourn, so overload is visible in the tail.
        let mut censored = 0;
        for r in &self.requests {
            if r.completion.is_none() && r.id >= self.warmup_cutoff && r.arrival <= end {
                censored += 1;
                let sojourn = end - r.arrival;
                self.slowdown.record(r.service, sojourn.max(r.service));
            }
        }
        let incomplete = self
            .requests
            .iter()
            .filter(|r| r.completion.is_none())
            .count() as u64;
        SimResult {
            system: self.cfg.name.clone(),
            offered_rps,
            arrivals: self.requests.len() as u64,
            incomplete,
            max_jbsq_inflight: self.max_jbsq_inflight,
            completed: self.completed,
            censored,
            dispatcher_completed: self.disp.completed,
            span_cycles: end,
            ghz: self.cfg.cost.ghz,
            slowdown: self.slowdown,
            slowdown_by_class: self.by_class,
            latency_ns: self.latency_ns,
            feed_gap: self.feed_gap,
            preemptions: self.preemptions,
            worker_busy_cycles: self.workers.iter().map(|w| w.busy_cycles).sum(),
            worker_idle_wait_cycles: self.workers.iter().map(|w| w.idle_wait_cycles).sum(),
            worker_transition_cycles: self.workers.iter().map(|w| w.transition_cycles).sum(),
            worker_total_cycles: end.saturating_mul(self.cfg.n_workers as u64),
            dispatcher_sched_cycles: self.disp.sched_cycles,
            dispatcher_app_cycles: self.disp.app_cycles,
            achieved_quantum: self.achieved_quantum,
            events_processed: self.events_processed,
            adaptive_quanta: self.quanta.as_ref().map(|t| t.snapshot_ns().to_vec()),
            quantum_retunes: self.controller.as_ref().map_or(0, |c| c.retunes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use concord_core::PolicyKind;
    use concord_workloads::mix;

    fn params(rate: f64, n: u64) -> SimParams {
        SimParams::new(rate, n, 42)
    }

    /// Every arrival either completes or is censored; at low load nothing
    /// is censored.
    #[test]
    fn low_load_completes_everything() {
        for cfg in [
            SystemConfig::shinjuku(4, 5_000),
            SystemConfig::persephone_fcfs(4),
            SystemConfig::concord(4, 5_000),
        ] {
            let r = simulate(&cfg, mix::fixed_1us(), &params(50_000.0, 5_000));
            assert_eq!(r.completed, 5_000, "{}", r.system);
            assert_eq!(r.censored, 0, "{}", r.system);
        }
    }

    #[test]
    fn low_load_slowdown_is_small() {
        let cfg = SystemConfig::concord(4, 5_000);
        let r = simulate(&cfg, mix::fixed_1us(), &params(10_000.0, 5_000));
        // 1µs requests at 10kRps on 4 workers: next to no queueing. The
        // floor is dispatch overhead (~0.5µs on a 1µs request).
        assert!(r.median_slowdown() < 3.0, "median={}", r.median_slowdown());
        assert!(r.p999_slowdown() < 10.0, "p999={}", r.p999_slowdown());
    }

    #[test]
    fn overload_blows_the_tail() {
        let cfg = SystemConfig::concord(2, 5_000);
        // 2 workers of 1µs requests ≈ 2M rps capacity; offer 10M.
        let r = simulate(&cfg, mix::fixed_1us(), &params(10_000_000.0, 20_000));
        assert!(r.p999_slowdown() > 100.0, "p999={}", r.p999_slowdown());
    }

    #[test]
    fn preemption_happens_for_long_requests() {
        let cfg = SystemConfig::shinjuku(4, 5_000);
        let r = simulate(&cfg, mix::bimodal_50_1_50_100(), &params(20_000.0, 4_000));
        // 100µs requests at a 5µs quantum must be preempted ~19 times.
        assert!(r.preemptions > 10_000, "preemptions={}", r.preemptions);
    }

    #[test]
    fn no_preemption_under_persephone() {
        let cfg = SystemConfig::persephone_fcfs(4);
        let r = simulate(&cfg, mix::bimodal_50_1_50_100(), &params(20_000.0, 4_000));
        assert_eq!(r.preemptions, 0);
    }

    #[test]
    fn quantum_is_respected_on_average() {
        let cfg = SystemConfig::concord(4, 5_000);
        let r = simulate(&cfg, mix::bimodal_50_1_50_100(), &params(20_000.0, 8_000));
        let mean = r.quantum_mean_us();
        // Cooperative preemption is one-sided: achieved ≥ quantum, but close.
        assert!((4.9..7.0).contains(&mean), "mean achieved quantum={mean}µs");
    }

    #[test]
    fn coop_preemption_is_one_sided() {
        let cfg = SystemConfig::concord(4, 5_000);
        let r = simulate(&cfg, mix::bimodal_50_1_50_100(), &params(20_000.0, 4_000));
        assert!(r.achieved_quantum.min() >= 10_000.0 - 1.0); // ≥ 5µs at 2GHz
    }

    /// The mirror controller converges to distinct per-class quanta on a
    /// bimodal mix — the short class gets a short quantum, the long class
    /// a long one — and stays deterministic across runs.
    #[test]
    fn adaptive_quanta_converge_per_class() {
        let cfg = SystemConfig::concord(4, 5_000).with_adaptive();
        let r = simulate(&cfg, mix::bimodal_50_1_50_100(), &params(20_000.0, 8_000));
        assert_eq!(r.completed, 8_000);
        let quanta = r.adaptive_quanta.as_ref().expect("adaptive run");
        assert!(r.quantum_retunes > 0, "controller never retuned");
        // Class 0 runs 1µs requests, class 1 runs 100µs requests: the
        // short class must settle on a strictly smaller quantum.
        assert!(
            quanta[0] < quanta[1],
            "short-class quantum {} !< long-class quantum {}",
            quanta[0],
            quanta[1]
        );
        // Both stay inside the configured clamp (in cycles at 2GHz).
        let min = cfg.cost.ns_to_cycles(ADAPTIVE_MIN_NS);
        let max = cfg.cost.ns_to_cycles(ADAPTIVE_MAX_NS);
        assert!(quanta[0] >= min && quanta[0] <= max, "q0={}", quanta[0]);
        assert!(quanta[1] >= min && quanta[1] <= max, "q1={}", quanta[1]);
        // Determinism: same seed, same converged table.
        let r2 = simulate(&cfg, mix::bimodal_50_1_50_100(), &params(20_000.0, 8_000));
        assert_eq!(r.adaptive_quanta, r2.adaptive_quanta);
        assert_eq!(r.quantum_retunes, r2.quantum_retunes);
    }

    /// Fixed-quantum runs keep the adaptive fields empty.
    #[test]
    fn fixed_quantum_reports_no_adaptive_state() {
        let cfg = SystemConfig::concord(4, 5_000);
        let r = simulate(&cfg, mix::fixed_1us(), &params(10_000.0, 2_000));
        assert!(r.adaptive_quanta.is_none());
        assert_eq!(r.quantum_retunes, 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let cfg = SystemConfig::concord(4, 2_000);
        let a = simulate(&cfg, mix::leveldb_get_scan(), &params(5_000.0, 3_000));
        let b = simulate(&cfg, mix::leveldb_get_scan(), &params(5_000.0, 3_000));
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.preemptions, b.preemptions);
        assert_eq!(a.span_cycles, b.span_cycles);
        assert_eq!(a.p999_slowdown(), b.p999_slowdown());
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = SystemConfig::concord(4, 2_000);
        let a = simulate(
            &cfg,
            mix::leveldb_get_scan(),
            &SimParams::new(5_000.0, 3_000, 1),
        );
        let b = simulate(
            &cfg,
            mix::leveldb_get_scan(),
            &SimParams::new(5_000.0, 3_000, 2),
        );
        assert_ne!(a.span_cycles, b.span_cycles);
    }

    #[test]
    fn work_conserving_dispatcher_completes_requests_under_pressure() {
        let cfg = SystemConfig::concord(2, 5_000);
        // Enough load that all 2 workers' JBSQ(2) queues fill up regularly.
        let r = simulate(&cfg, mix::bimodal_50_1_50_100(), &params(35_000.0, 20_000));
        assert!(r.dispatcher_completed > 0, "dispatcher never stole work");
    }

    #[test]
    fn no_steal_config_never_steals() {
        let cfg = SystemConfig::concord_no_steal(2, 5_000);
        let r = simulate(&cfg, mix::bimodal_50_1_50_100(), &params(35_000.0, 20_000));
        assert_eq!(r.dispatcher_completed, 0);
        assert_eq!(r.dispatcher_app_cycles, 0);
    }

    #[test]
    fn jbsq_workers_wait_less_than_sq_workers() {
        // The Fig. 3 mechanism: at high load, single-queue workers idle for
        // c_next between requests while JBSQ(2) workers do not.
        let sq = SystemConfig::shinjuku(8, 0).named("sq");
        let sq = SystemConfig {
            preemption: PreemptMechanism::None,
            ..sq
        };
        let jb = SystemConfig {
            name: "jb".into(),
            preemption: PreemptMechanism::None,
            queue: QueueDiscipline::Jbsq(2),
            work_conserving: false,
            ..SystemConfig::concord(8, 0)
        };
        // 5µs fixed service at 90% of 8-worker capacity.
        let wl = || Mixed5us;
        struct Mixed5us;
        impl Workload for Mixed5us {
            fn next_request(
                &mut self,
                _rng: &mut concord_rng::SmallRng,
            ) -> concord_workloads::RequestSpec {
                concord_workloads::RequestSpec {
                    class: 0,
                    service_ns: 5_000,
                }
            }
            fn mean_service_ns(&self) -> f64 {
                5_000.0
            }
            fn name(&self) -> &str {
                "fixed5"
            }
            fn class_names(&self) -> &[String] {
                &[]
            }
        }
        let rate = 0.9 * 8.0 / 5e-6;
        let rs = simulate(&sq, wl(), &params(rate, 30_000));
        let rj = simulate(&jb, wl(), &params(rate, 30_000));
        assert!(
            rs.worker_idle_wait_frac() > 2.0 * rj.worker_idle_wait_frac(),
            "sq={} jbsq={}",
            rs.worker_idle_wait_frac(),
            rj.worker_idle_wait_frac()
        );
    }

    #[test]
    fn srpt_policy_favors_short_requests() {
        let ps = SystemConfig::concord(4, 5_000);
        let srpt = ps.clone().with_policy(PolicyKind::Srpt { noise_pct: 0 });
        // Near saturation so queueing matters: mean 50.5µs on 4 workers.
        let rate = 0.85 * 4.0 / 50.5e-6;
        let rp = simulate(&ps, mix::bimodal_50_1_50_100(), &params(rate, 30_000));
        let rs = simulate(&srpt, mix::bimodal_50_1_50_100(), &params(rate, 30_000));
        // SRPT should not raise the median (short requests dominate counts).
        assert!(rs.median_slowdown() <= rp.median_slowdown() + 0.5);
    }

    #[test]
    fn batching_raises_the_dispatcher_ceiling() {
        // Fixed(1) at 4.5 MRps is beyond the unbatched dispatcher (~3.9M)
        // but within reach with batch=8.
        let rate = 4_500_000.0;
        let unbatched = SystemConfig::concord(14, 5_000);
        let batched = SystemConfig::concord(14, 5_000).with_batch(8);
        let ru = simulate(&unbatched, mix::fixed_1us(), &params(rate, 40_000));
        let rb = simulate(&batched, mix::fixed_1us(), &params(rate, 40_000));
        assert!(
            rb.p999_slowdown() < ru.p999_slowdown() / 2.0,
            "batched={} unbatched={}",
            rb.p999_slowdown(),
            ru.p999_slowdown()
        );
    }

    #[test]
    fn per_class_tails_separate_gets_from_scans() {
        // On the LevelDB mix, GETs (class 0) suffer queueing slowdown
        // while SCANs (class 1) barely notice their own service time.
        let cfg = SystemConfig::concord(4, 2_000);
        let wl = mix::leveldb_get_scan();
        use concord_workloads::Workload;
        let rate = 0.5 * 4.0 / (wl.mean_service_ns() * 1e-9);
        let r = simulate(&cfg, mix::leveldb_get_scan(), &params(rate, 20_000));
        assert!(r.slowdown_by_class.len() >= 2);
        let get_p999 = r.slowdown_by_class[0].p999();
        let scan_p999 = r.slowdown_by_class[1].p999();
        assert!(get_p999 > scan_p999, "get={get_p999} scan={scan_p999}");
        assert!(scan_p999 < 5.0, "scan={scan_p999}");
    }

    #[test]
    fn recorded_trace_replays_identically_to_its_source() {
        use concord_workloads::arrival::Poisson;
        use concord_workloads::{RecordedTrace, TraceGenerator};
        let cfg = SystemConfig::concord(4, 5_000);
        // Capture the exact trace the seeded generator would produce...
        let mut gen =
            TraceGenerator::new(Poisson::with_rate(20_000.0), mix::bimodal_50_1_50_100(), 42);
        let trace = RecordedTrace::capture(&mut gen, 5_000);
        // ...and replaying it must match the generator-driven run.
        let live = simulate(&cfg, mix::bimodal_50_1_50_100(), &params(20_000.0, 5_000));
        let replay = crate::system::simulate_recorded(&cfg, &trace);
        assert_eq!(live.completed, replay.completed);
        assert_eq!(live.preemptions, replay.preemptions);
        assert_eq!(live.span_cycles, replay.span_cycles);
        assert_eq!(live.p999_slowdown(), replay.p999_slowdown());
    }

    #[test]
    fn recorded_trace_round_trips_through_text() {
        use concord_workloads::arrival::Poisson;
        use concord_workloads::{RecordedTrace, TraceGenerator};
        let cfg = SystemConfig::shinjuku(4, 5_000);
        let mut gen = TraceGenerator::new(Poisson::with_rate(20_000.0), mix::tpcc(), 7);
        let trace = RecordedTrace::capture(&mut gen, 2_000);
        let parsed = RecordedTrace::from_text(&trace.to_text()).expect("parse");
        let a = crate::system::simulate_recorded(&cfg, &trace);
        let b = crate::system::simulate_recorded(&cfg, &parsed);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.p999_slowdown(), b.p999_slowdown());
    }

    #[test]
    fn traced_run_matches_untraced_and_passes_trace_oracles() {
        use concord_trace::{EventKind, TraceSummary};
        let cfg = SystemConfig::concord(4, 5_000);
        let p = params(20_000.0, 4_000);
        let plain = simulate(&cfg, mix::bimodal_50_1_50_100(), &p);
        let (traced, trace) = simulate_traced(&cfg, mix::bimodal_50_1_50_100(), &p);
        // Tracing is pure observation: identical dynamics.
        assert_eq!(plain.completed, traced.completed);
        assert_eq!(plain.preemptions, traced.preemptions);
        assert_eq!(plain.span_cycles, traced.span_cycles);
        // The trace agrees with the simulator's own counters and passes
        // the same derived invariants as a runtime trace.
        let summary = TraceSummary::from_trace(&trace);
        assert_eq!(summary.monotone_violations, 0);
        assert_eq!(summary.negative_occupancy, 0);
        assert_eq!(summary.count(EventKind::Arrive), traced.arrivals);
        assert_eq!(
            summary.count(EventKind::Complete),
            traced.completed,
            "one COMPLETE per completed request"
        );
        assert_eq!(summary.worker_yields, traced.preemptions);
        for &occ in &summary.max_occupancy {
            assert!(u64::from(occ) <= traced.max_jbsq_inflight);
        }
        // Work-conservation gauge: a valid fraction, and zero exactly
        // when the dispatcher never ran stolen application work.
        assert!((0.0..=1.0).contains(&summary.overhead_d()));
        if traced.dispatcher_completed == 0 && summary.dispatcher_yields == 0 {
            assert_eq!(summary.dispatcher_busy_ns, 0);
        }
    }

    #[test]
    fn goodput_tracks_offered_load_below_saturation() {
        let cfg = SystemConfig::concord(8, 5_000);
        let r = simulate(&cfg, mix::tpcc(), &params(100_000.0, 50_000));
        assert!(
            (r.goodput_rps() - 100_000.0).abs() / 100_000.0 < 0.05,
            "goodput={}",
            r.goodput_rps()
        );
    }

    #[test]
    fn sharded_sim_conserves_and_splits_load() {
        let cfg = SystemConfig::concord(4, 5_000);
        let p = params(80_000.0, 9_001); // odd count: remainder lands on shard 0
        let r = simulate_sharded(&cfg, mix::bimodal_50_1_50_100(), &p, 3);
        assert_eq!(r.arrivals, r.completed + r.incomplete, "conservation");
        assert!(
            r.completed + r.censored >= p.requests,
            "all {} requests accounted for, got {} + {}",
            p.requests,
            r.completed,
            r.censored
        );
        assert!((r.offered_rps - 80_000.0).abs() < 1e-6);
        // Merged goodput reads the whole fleet over the slowest shard's
        // span; below saturation it tracks the total offered load.
        assert!(
            (r.goodput_rps() - 80_000.0).abs() / 80_000.0 < 0.10,
            "goodput={}",
            r.goodput_rps()
        );
    }

    #[test]
    fn one_shard_sharded_sim_matches_plain_simulate() {
        let cfg = SystemConfig::concord(4, 5_000);
        let p = params(40_000.0, 5_000);
        let plain = simulate(&cfg, mix::tpcc(), &p);
        let sharded = simulate_sharded(&cfg, mix::tpcc(), &p, 1);
        assert_eq!(plain.completed, sharded.completed);
        assert_eq!(plain.preemptions, sharded.preemptions);
        assert_eq!(plain.span_cycles, sharded.span_cycles);
        assert_eq!(plain.p999_slowdown(), sharded.p999_slowdown());
    }

    #[test]
    fn sharded_traced_sim_packs_shard_ids_into_tracks() {
        use concord_trace::TraceSummary;
        let cfg = SystemConfig::concord(2, 5_000);
        let p = params(30_000.0, 2_000);
        let (r, trace) = simulate_sharded_traced(&cfg, mix::tpcc(), &p, 2);
        let summary = TraceSummary::from_trace(&trace);
        assert_eq!(summary.n_shards, 2, "both shards present in trace");
        assert_eq!(summary.count(concord_trace::EventKind::Arrive), r.arrivals);
        // Independent shards never steal from each other in the sim.
        assert_eq!(summary.total_steals(), 0);
    }
}
