//! The dispatcher thread: ingest, central queue, quantum policing, JBSQ
//! dispatch, work conservation, and telemetry aggregation.
//!
//! Ingest builds unbound tasks ([`Task::fresh`]): the dispatcher writes
//! no coroutine frame for work a worker will run. Its own [`FramePool`]
//! serves only the never-started tasks it steals under §3.3.

use crate::admission::AdmissionEvent;
use crate::central::{jbsq_pick, CentralQueue};
use crate::clock::Clock;
use crate::config::RuntimeConfig;
use crate::preempt::{set_mode, PreemptMode, WorkerShared};
use crate::quantum::{QuantumController, QuantumTable, SloState};
use crate::shard::ShardContext;
use crate::stats::RuntimeStats;
use crate::task::{FramePool, SliceEnd, Task};
use crate::telemetry::{CompletionRecord, TelemetryHandle, DISPATCHER};
use crate::transport::{Egress, Ingress, SpscReceiver, SpscSender};
use crate::worker::WorkerMsg;
use concord_net::Response;
use concord_trace::{EventKind, TraceCollector, TraceEvent, TraceLane};
use std::mem::take;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Dispatcher-side view of one worker.
pub struct WorkerSlot {
    /// Shared preemption state.
    pub shared: Arc<WorkerShared>,
    /// Sender side of the worker's bounded local task queue.
    pub ring: SpscSender<Task>,
    /// Receiver side of the worker's return ring: one message per
    /// completion or yield, at most `inflight` of them outstanding.
    pub from_worker: SpscReceiver<WorkerMsg>,
    /// Requests pushed but not yet completed/re-queued (JBSQ occupancy).
    pub inflight: usize,
    /// Generation of the last slice whose expiry was observed with
    /// nobody waiting (so `expiries_deferred` counts it once).
    pub deferred_gen: Option<u64>,
    /// Highest `inflight` published to the worker's `queue_max` row so
    /// far; the shared counter is written only when this rises.
    pub queue_high: usize,
}

/// Long-lived state of the dispatcher thread, generic over how requests
/// arrive (`I`) and how responses leave (`E`).
pub struct DispatcherLoop<I: Ingress, E: Egress> {
    /// Frames for the tasks the dispatcher steals and runs itself.
    pub pool: FramePool,
    /// Runtime configuration.
    pub cfg: RuntimeConfig,
    /// Request source (NIC-model RX ring, a shard's TCP sockets, ...).
    pub rx: I,
    /// Response sink (NIC-model TX ring, a shard's TCP sockets, ...).
    pub tx: E,
    /// Per-worker slots.
    pub workers: Vec<WorkerSlot>,
    /// Aggregated lifecycle telemetry (shared with `Runtime::telemetry`).
    pub telemetry: TelemetryHandle,
    /// Runtime time source.
    pub clock: Clock,
    /// Request to stop: drain and exit.
    pub stop: Arc<AtomicBool>,
    /// Set by the dispatcher once drained, releasing the workers.
    pub workers_stop: Arc<AtomicBool>,
    /// Shared counters.
    pub stats: Arc<RuntimeStats>,
    /// Per-class effective quanta, shared with the workers (they read a
    /// slot at each slice start; the controller below retunes it).
    pub quanta: Arc<QuantumTable>,
    /// The adaptive-quantum/SLO feedback controller; `None` when both
    /// `adaptive_quantum` and the SLO budget list are off (the table
    /// then stays fixed at the configured quantum forever).
    pub controller: Option<QuantumController>,
    /// Per-class SLO budgets and blown-verdict bits, shared with the
    /// admission gate (it sheds classes whose bit is set).
    pub slo: Arc<SloState>,
    /// Shard topology when this dispatcher is one of several
    /// ([`ShardedRuntime`](crate::shard::ShardedRuntime)); `None` for a
    /// plain single-dispatcher runtime. Carries this shard's mailbox
    /// (ask, take, close) and every sibling's (give).
    pub shard: Option<ShardContext>,
    /// The dispatcher's own scheduling-event lane (`None` when tracing is
    /// disarmed). Carries ARRIVE/DISPATCH/SIGNAL_SENT/STEAL/TX_DROP and
    /// the work-conserving slice events.
    pub trace: Option<TraceLane>,
    /// Collector holding the consumer side of every trace lane; the
    /// dispatcher drains it periodically so rings never sit full across a
    /// long run. `None` when tracing is disarmed.
    pub trace_collector: Option<Arc<Mutex<TraceCollector>>>,
}

/// Drain the trace collector every this-many dispatcher loop iterations.
/// Power of two so the check is a mask.
const TRACE_DRAIN_EVERY: u64 = 1024;

/// Most requests one pass ingests: bounds both the arrivals scratch
/// (never reallocated) and how stale the pass's clock reading can get
/// before policing uses it. The rest of a burst waits in the RX ring
/// for the next pass, a fraction of a microsecond away.
const INGEST_BATCH: usize = 64;

/// Most requests one dispatcher holds (central queue + in flight);
/// beyond it, ingest pauses and the RX side fills and sheds, keeping
/// open-loop load honest.
const MAX_IN_FLIGHT: usize = 16 * 1024;

/// Counter deltas the dispatcher accumulates in locals and publishes to
/// the shared [`RuntimeStats`] at most once per loop pass each, so the
/// per-request cost is a register increment instead of a locked
/// read-modify-write on a line observers and workers also touch.
#[derive(Default)]
struct PassCounts {
    ingested: u64,
    /// Ingests of one class in a row: `(class, count)`.
    class_run: (u16, u64),
    dispatched: u64,
    worker_completed: u64,
    requeues: u64,
}

impl PassCounts {
    fn note_ingest(&mut self, class: u16, stats: &RuntimeStats) {
        self.ingested += 1;
        if self.class_run.0 != class {
            self.flush_class_run(stats);
            self.class_run.0 = class;
        }
        self.class_run.1 += 1;
    }

    fn flush_class_run(&mut self, stats: &RuntimeStats) {
        let n = take(&mut self.class_run.1);
        if n > 0 {
            stats.ingested_by_class.add(self.class_run.0, n);
        }
    }

    /// Publishes what the return rings delivered. Runs before the pass's
    /// responses are emitted, so whoever has seen `n` responses reads
    /// `completed() >= n`. Every requeue message is one preemption.
    fn flush_returns(&mut self, stats: &RuntimeStats) {
        publish(&stats.worker_completed, take(&mut self.worker_completed));
        publish(&stats.preemptions, take(&mut self.requeues));
    }

    /// Publishes what ingest and JBSQ dispatch did this pass.
    fn flush_ingest(&mut self, stats: &RuntimeStats) {
        publish(&stats.ingested, take(&mut self.ingested));
        self.flush_class_run(stats);
        publish(&stats.dispatched, take(&mut self.dispatched));
    }
}

/// Adds a pass's delta to its shared counter; an empty delta costs no
/// atomic operation.
fn publish(counter: &AtomicU64, delta: u64) {
    if delta > 0 {
        counter.fetch_add(delta, Ordering::Relaxed);
    }
}

/// Periodic-interval timer for the dispatcher's telemetry report.
///
/// The contract is "first fire one full interval after the loop
/// started": the timer is seeded from the loop's own start timestamp,
/// never from 0 — seeding at 0 would make the first report fire
/// immediately on any clock that has already advanced (i.e. always),
/// regardless of the configured interval.
#[derive(Debug)]
pub struct ReportTimer {
    every_ns: u64,
    last_ns: u64,
}

impl ReportTimer {
    /// A timer whose first fire is one `every` after `now_ns`.
    pub fn new(every: std::time::Duration, now_ns: u64) -> Self {
        Self {
            every_ns: every.as_nanos().min(u64::MAX as u128) as u64,
            last_ns: now_ns,
        }
    }

    /// Whether a full interval elapsed; resets the timer when it did.
    pub fn due(&mut self, now_ns: u64) -> bool {
        if now_ns.saturating_sub(self.last_ns) >= self.every_ns {
            self.last_ns = now_ns;
            true
        } else {
            false
        }
    }
}

/// A preemption signal the fault injector deferred: deliver to `worker`
/// for generation `gen` once the clock reaches `due_ns`.
struct DeferredSignal {
    worker: usize,
    gen: u64,
    due_ns: u64,
}

impl<I: Ingress, E: Egress> DispatcherLoop<I, E> {
    /// Runs until stopped and drained. Consumes the loop state.
    pub fn run(mut self) {
        // The scheduling policy: chooses every entry's priority key
        // (once per enqueue) and whether quanta are policed at all.
        let policy = self.cfg.policy;
        let mut central: CentralQueue<Task> = CentralQueue::new();
        // Requests currently inside this shard: central queue + worker
        // rings + the dispatcher's own stolen slot + requeue messages in
        // transit. Maintained incrementally (ingest and a taken hand-off
        // increment; completion and a given hand-off decrement) so the
        // ingest gate is O(1) instead of re-summing per poll.
        let mut in_system: usize = 0;
        let mut stolen: Option<Task> = None;
        let mut counts = PassCounts::default();
        // One pass's arrivals, between their poll and their stamp.
        let mut arrivals: Vec<concord_net::Request> = Vec::with_capacity(INGEST_BATCH);
        // Scratch for one drain pass over the return rings (step 1).
        let mut records: Vec<CompletionRecord> = Vec::with_capacity(64);
        let mut preempt_latencies: Vec<u64> = Vec::with_capacity(64);
        let mut responses: Vec<Response> = Vec::with_capacity(64);
        // Taken once: cloning the context per iteration would bounce the
        // refcount of the link table every shard's dispatcher shares.
        let shard = self.shard.take();
        let mut admission_events: Vec<AdmissionEvent> = Vec::new();
        // Seeded from the loop's start so the first report waits one
        // full interval (see `ReportTimer`).
        let mut report = self
            .cfg
            .telemetry_report_every
            .map(|every| ReportTimer::new(every, self.clock.now_ns()));
        let mut deferred: Vec<DeferredSignal> = Vec::new();
        let mut iter: u64 = 0;
        loop {
            let mut progressed = false;

            // 0. Periodic trace drain: move events out of the per-track
            //    rings so sustained runs don't overflow them. Cheap (a
            //    mask test) on the 1023 iterations out of 1024 it skips.
            iter = iter.wrapping_add(1);
            if iter & (TRACE_DRAIN_EVERY - 1) == 0 {
                self.drain_trace();
            }

            // 1. Worker messages: completions free JBSQ slots and emit
            //    responses; requeues re-enter the central queue at the
            //    round-robin tail — behind later arrivals, the
            //    processor-sharing round-robin of the paper's quantum
            //    model (§3.1), *not* FCFS re-entry (see `central.rs`).
            //    One pass pops every return ring (at most k messages
            //    each), folds the pass's telemetry under one lock, and
            //    only then emits the responses — so anything the
            //    collector can observe is already aggregated.
            for w in 0..self.workers.len() {
                while let Some(msg) = self.workers[w].from_worker.pop() {
                    self.workers[w].inflight = self.workers[w].inflight.saturating_sub(1);
                    match msg {
                        WorkerMsg::Completed { record, resp } => {
                            in_system = in_system.saturating_sub(1);
                            // A failed request is in `stats.failed`
                            // (bumped by the worker), not here.
                            counts.worker_completed += u64::from(!record.failed);
                            records.push(record);
                            responses.push(resp);
                        }
                        WorkerMsg::Requeue {
                            task,
                            preempt_latency_ns,
                        } => {
                            counts.requeues += 1;
                            // Signal-store → yield latency, measured from
                            // stamps both sides already take.
                            preempt_latencies.push(preempt_latency_ns);
                            let key = policy.key(task.key_input());
                            central.push_requeued_prio(key, task);
                        }
                    }
                }
            }
            if !records.is_empty() || !preempt_latencies.is_empty() {
                progressed = true;
                counts.flush_returns(&self.stats);
                self.fold_telemetry(&records, &preempt_latencies);
                records.clear();
                preempt_latencies.clear();
                for resp in responses.drain(..) {
                    self.emit(resp);
                }
            }

            // 2. Admission events: fold ingress-side sheds into the
            //    trace (ADMIT_DROP, class in the generation field). Runs
            //    unconditionally — also while stopping, and with tracing
            //    disarmed — so the ingress-side event queue stays
            //    bounded no matter what.
            self.rx.drain_admission(&mut admission_events);
            for ev in admission_events.drain(..) {
                self.trace_emit(ev.ts_ns, EventKind::AdmitDrop, ev.id, u64::from(ev.class));
            }

            // 3. Ingest new arrivals (unless stopping or at the in-flight
            //    cap — the ingress then backs up and sheds, keeping the
            //    open loop honest). Poll first, read the clock after:
            //    the reading is then no earlier than the moment any of
            //    the batch was sent, so no request is stamped as
            //    ingested before it arrived, however long the OS parked
            //    this thread in between.
            if !self.stop.load(Ordering::Acquire) {
                let room = MAX_IN_FLIGHT.saturating_sub(in_system).min(INGEST_BATCH);
                self.rx.poll_batch(&mut arrivals, room);
            }
            // The pass's one clock read. It stamps this pass's arrivals
            // (`ingested_at_ns`, ARRIVE), DISPATCH and STEAL events,
            // drives quantum policing and the control plane. Taken after
            // the return rings were popped and the RX side polled, it is
            // no earlier than anything the pass has seen, which keeps
            // the dispatcher's trace lane consistent with the workers'
            // lanes and the clients' stamps. It moves forward only: to
            // the fresh reading a signal store takes (step 5) and to the
            // exit stamp of a slice the dispatcher runs itself (step 6).
            let mut now_ns = self.clock.now_ns();
            for req in arrivals.drain(..) {
                counts.note_ingest(req.class, &self.stats);
                in_system += 1;
                // ARRIVE carries the request's service time in
                // microseconds in the generation field (16 bits — µs,
                // not ns, so realistic sizes fit) so the per-policy
                // priority-inversion oracle can replay dispatch
                // decisions from the trace alone.
                self.trace_emit(now_ns, EventKind::Arrive, req.id, req.service_ns / 1_000);
                let task = Task::fresh(req, now_ns);
                let key = policy.key(task.key_input());
                central.push_fresh_prio(key, task);
                progressed = true;
            }

            // 4. JBSQ dispatch: shortest queue first, bounded by k.
            while !central.is_empty() {
                let Some(target) = self.pick_worker() else {
                    break;
                };
                let task = central.pop_next().expect("checked non-empty");
                let slot = &mut self.workers[target];
                slot.inflight += 1;
                counts.dispatched += 1;
                if slot.inflight > slot.queue_high {
                    slot.queue_high = slot.inflight;
                    if let Some(ws) = self.stats.per_worker.get(target) {
                        ws.queue_max
                            .fetch_max(slot.inflight as u64, Ordering::Relaxed);
                    }
                }
                // DISPATCH carries the target worker in the generation
                // field so the replay oracle can rebuild per-worker JBSQ
                // occupancy from the event stream alone.
                self.trace_emit(now_ns, EventKind::Dispatch, task.req.id, target as u64);
                if let Err(_task) = self.workers[target].ring.push(task) {
                    unreachable!("JBSQ bound guarantees ring capacity");
                }
                progressed = true;
            }
            counts.flush_ingest(&self.stats);

            // Injected dispatcher stall: with every worker queue full,
            // busy-wait a stretch of clock time so completions and yields
            // pile up in the return rings (k per worker, never more).
            if let Some(inj) = self.cfg.fault_injector.as_deref() {
                if self.all_workers_full() {
                    if let Some(stall_ns) = inj.take_dispatcher_stall() {
                        crate::fault::stall(&self.clock, stall_ns, &self.stop);
                        let backlog = self.workers.iter().map(|w| w.from_worker.len());
                        inj.note_return_backlog(backlog.max().unwrap_or(0) as u64);
                    }
                }
            }

            // 5. Quantum policing: signal workers whose slice expired
            //    (§3.1 — the dispatcher owns *when*, the worker owns *how*)
            //    — but only when someone would run sooner for it: a
            //    request waiting in the central queue or behind the slice
            //    in that worker's own JBSQ ring. Preempting a request
            //    nobody waits for only sends it round the requeue path
            //    and straight back to the same worker. Runs after ingest
            //    and dispatch so the arrival that opens the gate gets the
            //    signal on this very iteration. The claim returns the
            //    expired slice's generation and the signal carries it, so
            //    a worker that has already moved on ignores the (now
            //    stale) signal.
            //
            //    Run-to-completion policies (`Fcfs`) skip the whole step:
            //    no claims, no signals — zero preemptions by
            //    construction, which the conformance suite asserts
            //    exactly.
            let policed = if policy.preempts() {
                self.workers.len()
            } else {
                0
            };
            for i in 0..policed {
                let slot = &mut self.workers[i];
                if central.is_empty() && slot.inflight <= 1 {
                    // Nobody waiting: peek only, leaving the slice word
                    // untouched so the expiry stays claimable.
                    if let Some(gen) = slot.shared.peek_expired(now_ns) {
                        if slot.deferred_gen != Some(gen) {
                            slot.deferred_gen = Some(gen);
                            self.stats.expiries_deferred.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    continue;
                }
                let claimed = slot.shared.claim_expired(now_ns);
                if let Some(gen) = claimed {
                    progressed = true;
                    if let Some(inj) = self.cfg.fault_injector.as_deref() {
                        if inj.take_drop_signal() {
                            // The claim happened but the signal never
                            // lands: a lost preemption, visible to the
                            // oracles through this counter.
                            self.stats
                                .signals_dropped_injected
                                .fetch_add(1, Ordering::Relaxed);
                            continue;
                        }
                        if let Some(delay_ns) = inj.take_signal_delay() {
                            deferred.push(DeferredSignal {
                                worker: i,
                                gen,
                                due_ns: self.clock.now_ns().saturating_add(delay_ns),
                            });
                            continue;
                        }
                    }
                    now_ns = self.send_signal(i, gen);
                }
            }

            // 5b. Deliver injected-delay signals whose release time has
            //     passed. A delayed store typically lands after its slice
            //     ended — exactly the stale-signal window the generation
            //     tag defends against.
            if !deferred.is_empty() {
                let now = self.clock.now_ns();
                let mut j = 0;
                while j < deferred.len() {
                    if deferred[j].due_ns <= now {
                        let d = deferred.swap_remove(j);
                        now_ns = self.send_signal(d.worker, d.gen);
                        progressed = true;
                    } else {
                        j += 1;
                    }
                }
            }

            // 6. Work conservation (§3.3): when every worker queue is full
            //    and non-started work is queued, the dispatcher runs it
            //    itself, one self-preempting slice at a time.
            if self.cfg.work_conserving {
                if stolen.is_none() && self.all_workers_full() {
                    // O(1): the central queue keeps never-started work in
                    // its own deque, so the victim (the oldest
                    // not-started entry, same as the old O(n) scan
                    // found) pops from a stable end.
                    if let Some(mut task) = central.steal_not_started() {
                        self.stats.stolen.fetch_add(1, Ordering::Relaxed);
                        self.trace_emit(now_ns, EventKind::Steal, task.req.id, 0);
                        self.pool.bind(&mut task);
                        publish(&self.stats.stack_reuses, self.pool.take_reuses());
                        stolen = Some(task);
                    }
                }
                if let Some(mut task) = stolen.take() {
                    // One clock read is both the self-preemption
                    // deadline's origin and the slice's entry stamp. A
                    // stolen slice lasts one (base) quantum, as a
                    // worker's would.
                    let start_ns = self.clock.now_ns();
                    set_mode(PreemptMode::DispatcherDeadline {
                        clock: self.clock.clone(),
                        deadline_ns: start_ns.saturating_add(self.cfg.quantum.as_nanos() as u64),
                    });
                    let end = task.run_slice_from(&self.clock, start_ns);
                    set_mode(PreemptMode::None);
                    now_ns = task.last_slice_end_ns;
                    // Work-conserving slices trace on the dispatcher's
                    // own track with generation 0: they are self-preempted
                    // against a deadline, not against a signal line, so
                    // there is no generation to tag. Timestamps reuse the
                    // slice's own entry/exit stamps — no extra clock reads.
                    self.trace_emit(task.last_slice_start_ns, EventKind::Resume, task.req.id, 0);
                    match end {
                        SliceEnd::Completed => {
                            in_system = in_system.saturating_sub(1);
                            self.stats
                                .dispatcher_completed
                                .fetch_add(1, Ordering::Relaxed);
                            self.trace_emit(
                                task.last_slice_end_ns,
                                EventKind::Complete,
                                task.req.id,
                                u64::from(task.slices),
                            );
                            self.finish_stolen(task, false);
                        }
                        // Saved to the dedicated buffer; resumed when the
                        // dispatcher is next idle. It can never migrate to
                        // a worker (different "instrumentation", §3.3).
                        SliceEnd::Preempted => {
                            self.trace_emit(
                                task.last_slice_end_ns,
                                EventKind::Yield,
                                task.req.id,
                                0,
                            );
                            stolen = Some(task);
                        }
                        SliceEnd::Failed => {
                            in_system = in_system.saturating_sub(1);
                            self.stats.failed.fetch_add(1, Ordering::Relaxed);
                            self.trace_emit(
                                task.last_slice_end_ns,
                                EventKind::Complete,
                                task.req.id,
                                u64::from(task.slices),
                            );
                            self.finish_stolen(task, true);
                        }
                    }
                    progressed = true;
                }
            }

            // 6b. Cross-shard hand-off (sharded runtimes only; see
            //     `shard.rs`). Only never-started tasks move, and only to
            //     a sibling that asked, so JBSQ ≤ k and signal-generation
            //     invariants stay intact per shard and nothing is parked.
            if let Some(ctx) = shard.as_ref() {
                // Take what a sibling gave after our ask.
                if let Some((owner, task)) = ctx.own().take() {
                    self.accept_handoff(&mut central, now_ns, owner, task);
                    in_system += 1;
                    progressed = true;
                }
                // Give: workers saturated (work conservation has already
                // taken its one task above) — answer each sibling's ask
                // with our youngest never-started task.
                for (sib, link) in ctx.links.iter().enumerate() {
                    if !(self.all_workers_full() && central.not_started() > 0) {
                        break;
                    }
                    if sib == ctx.id || !link.asked() {
                        continue;
                    }
                    let task = central
                        .take_youngest_not_started()
                        .expect("checked not_started");
                    match link.give(ctx.id, task) {
                        Ok(()) => {
                            in_system = in_system.saturating_sub(1);
                            self.stats.shard_offloaded.fetch_add(1, Ordering::Relaxed);
                            progressed = true;
                        }
                        // A racing giver answered the ask first, or the
                        // sibling has drained: keep the task.
                        Err(task) => {
                            let key = policy.key(task.key_input());
                            central.push_fresh_prio(key, task);
                        }
                    }
                }
                // Ask while idle with a free JBSQ slot.
                ctx.own().ask(
                    central.is_empty()
                        && self.pick_worker().is_some()
                        && !self.stop.load(Ordering::Acquire),
                );
            }

            // Control plane + periodic report, on the pass's clock
            // reading. The controller retunes the per-class quanta and
            // refreshes the SLO verdicts at its own cadence.
            if let Some(ctrl) = self.controller.as_mut() {
                ctrl.poll(now_ns, &self.quanta, &self.slo);
            }
            // Periodic human-readable telemetry report, if configured.
            if let Some(timer) = report.as_mut() {
                if timer.due(now_ns) {
                    let snap = self.telemetry.lock().expect("lock poisoned").snapshot();
                    if snap.recorded > 0 {
                        eprintln!("{}", snap.render());
                    }
                }
            }

            // The pass's writes: a transport that batches them decides
            // here what of this pass's emits to send.
            self.tx.flush();

            // 7. Shutdown: once asked to stop and fully drained, release
            //    the workers and exit.
            if self.stop.load(Ordering::Acquire) && !progressed {
                let drained = central.is_empty()
                    && stolen.is_none()
                    // Every popped message freed its slot, so zero
                    // in flight also means the return rings are empty.
                    && self.workers.iter().all(|w| w.inflight == 0);
                if drained {
                    // Sharded: close our mailbox, but first run a task a
                    // sibling gave before it saw us drain.
                    if let Some((owner, task)) = shard.as_ref().and_then(|c| c.own().close()) {
                        self.accept_handoff(&mut central, now_ns, owner, task);
                        in_system += 1;
                        continue;
                    }
                    // Flush any still-deferred injected signals so the
                    // signal accounting closes (they land in idle lines
                    // and are swept as obsolete after the join).
                    for d in deferred.drain(..) {
                        self.send_signal(d.worker, d.gen);
                    }
                    // Final trace drain for the dispatcher's own lane;
                    // worker lanes get a last sweep from Runtime::quiesce
                    // after the joins.
                    self.drain_trace();
                    self.workers_stop.store(true, Ordering::Release);
                    self.tx.finish();
                    return;
                }
            }

            if !progressed {
                // Tripwire for the work-conservation oracle: this branch
                // with runnable work queued and capacity available would
                // mean the dispatch logic above regressed. The conditions
                // mirror steps 4 and 6 exactly, so this is unreachable
                // today — the conformance suite asserts it stays that way.
                if !central.is_empty()
                    && (self.pick_worker().is_some()
                        || (self.cfg.work_conserving
                            && stolen.is_none()
                            && self.all_workers_full()
                            && central.not_started() > 0))
                {
                    self.stats
                        .work_conservation_violations
                        .fetch_add(1, Ordering::Relaxed);
                }
                std::thread::yield_now();
            }
        }
    }

    /// Stores a preemption signal for `gen` on `worker`'s line, stamping
    /// the send time first (the stamp's Release store is ordered before
    /// the signal's, so a worker that consumed the signal reads a stamp
    /// at least as fresh). Returns the stamp: signal→yield latency is
    /// measured from it, so it is a fresh reading, not the pass's.
    fn send_signal(&mut self, worker: usize, gen: u64) -> u64 {
        let now_ns = self.clock.now_ns();
        self.workers[worker].shared.signal(gen, now_ns);
        self.stats.signals_sent.fetch_add(1, Ordering::Relaxed);
        // SIGNAL_SENT identifies the *target worker* in the id field (the
        // request is not known to the signaling side) and the slice
        // generation in the gen field; the replay oracle matches it to
        // the target's YIELD by (worker, gen).
        self.trace_emit(now_ns, EventKind::SignalSent, worker as u64, gen);
        now_ns
    }

    /// Emits one scheduling event on the dispatcher's lane: a single
    /// wait-free ring push. Overflow increments `trace_dropped` and drops
    /// the event — never blocks. A disarmed tracer has no lane: one
    /// branch.
    #[inline]
    fn trace_emit(&mut self, ts_ns: u64, kind: EventKind, id: u64, gen: u64) {
        if let Some(lane) = self.trace.as_mut() {
            if !lane.emit(TraceEvent::new(ts_ns, kind, id, gen)) {
                self.stats.trace_dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Drains every trace lane into the collector. The fault injector can
    /// stall scheduled drains to simulate a wedged collector — emits then
    /// overflow (drop-and-count) but no thread ever blocks on tracing.
    fn drain_trace(&mut self) {
        let Some(collector) = self.trace_collector.as_ref() else {
            return;
        };
        if let Some(inj) = self.cfg.fault_injector.as_deref() {
            if inj.take_trace_drain_stall() {
                return;
            }
        }
        collector.lock().expect("lock poisoned").drain();
    }

    fn all_workers_full(&self) -> bool {
        self.pick_worker().is_none()
    }

    /// Shortest-queue selection among workers with a free JBSQ slot.
    fn pick_worker(&self) -> Option<usize> {
        jbsq_pick(self.workers.iter().map(|w| w.inflight), self.cfg.jbsq_depth)
    }

    /// Folds completion records and preemption latencies into the
    /// aggregate under a single lock, then feeds the records to the
    /// quantum controller.
    fn fold_telemetry(&mut self, records: &[CompletionRecord], preempt_latencies: &[u64]) {
        let mut telemetry = self.telemetry.lock().expect("lock poisoned");
        for r in records {
            telemetry.record(r);
        }
        for &ns in preempt_latencies {
            telemetry.record_preemption_latency(ns);
        }
        drop(telemetry);
        if let Some(ctrl) = self.controller.as_mut() {
            for r in records {
                ctrl.observe(r.class, r.service_ns, r.sojourn_ns);
            }
        }
    }

    /// Queues a never-started task sibling `owner` handed over. STEAL
    /// carries `1 + owner` in the generation field; the work-conserving
    /// dispatcher steal (step 6) uses gen 0.
    fn accept_handoff(
        &mut self,
        central: &mut CentralQueue<Task>,
        now_ns: u64,
        owner: usize,
        task: Task,
    ) {
        self.stats.shard_steals_in.fetch_add(1, Ordering::Relaxed);
        self.trace_emit(now_ns, EventKind::Steal, task.req.id, 1 + owner as u64);
        let key = self.cfg.policy.key(task.key_input());
        central.push_fresh_prio(key, task);
    }

    /// Records and answers a request the dispatcher completed itself.
    fn finish_stolen(&mut self, task: Task, failed: bool) {
        let record = CompletionRecord::from_task(&task, DISPATCHER, failed);
        self.fold_telemetry(&[record], &[]);
        let resp = task.response(&self.clock);
        self.emit(resp);
        self.pool.put(task);
    }

    /// Pushes a response, retrying briefly if the TX ring is full; a
    /// persistently full ring (no collector) drops the response rather
    /// than wedging the runtime. Drops are counted in
    /// [`RuntimeStats::tx_dropped`] and logged once per runtime. The
    /// fault injector can zero the retry budget to force the drop path.
    fn emit(&mut self, resp: Response) {
        let mut budget = 10_000;
        if let Some(inj) = self.cfg.fault_injector.as_deref() {
            if inj.take_tx_reject() {
                budget = 0;
            }
        }
        let mut r = resp;
        for _ in 0..budget {
            match self.tx.send(r) {
                Ok(()) => return,
                Err(back) => {
                    r = back;
                    std::thread::yield_now();
                }
            }
        }
        // Collector gone (or backpressure injected); drop the response
        // descriptor — but never silently: the loss is counted, the
        // transport settles its per-connection books, and the first
        // drop is announced.
        self.tx.on_drop(&r);
        let now_ns = self.clock.now_ns();
        self.trace_emit(now_ns, EventKind::TxDrop, r.id, 0);
        let dropped_before = self.stats.tx_dropped.fetch_add(1, Ordering::Relaxed);
        if dropped_before == 0 && !self.stats.tx_drop_logged.swap(true, Ordering::Relaxed) {
            eprintln!(
                "concord: TX ring full after 10000 retries; dropping response \
                 for request {} (further drops counted in tx_dropped, not logged)",
                r.id
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::ReportTimer;
    use crate::clock::Clock;
    use std::time::Duration;

    /// Regression: the report timer is seeded from the loop's start
    /// timestamp, so the first report waits one full interval even when
    /// the clock had already advanced before the loop started. A timer
    /// seeded at 0 would fire immediately on the first iteration,
    /// making `--report-interval` a lie for the first report.
    #[test]
    fn first_report_waits_one_full_interval() {
        let (clock, v) = Clock::manual();
        // The runtime has been up for a while before this dispatcher
        // loop starts (exactly the state that broke the 0-seeded timer).
        v.advance(Duration::from_secs(5));
        let mut t = ReportTimer::new(Duration::from_secs(1), clock.now_ns());
        assert!(!t.due(clock.now_ns()), "must not fire at loop start");
        v.advance(Duration::from_millis(999));
        assert!(!t.due(clock.now_ns()), "interval not yet elapsed");
        v.advance(Duration::from_millis(1));
        assert!(t.due(clock.now_ns()), "fires after one full interval");
        assert!(!t.due(clock.now_ns()), "firing resets the timer");
        v.advance(Duration::from_secs(1));
        assert!(t.due(clock.now_ns()), "steady-state cadence holds");
    }

    /// Pins the failure mode itself: a 0-seeded timer on an
    /// already-advanced clock fires immediately at loop start instead
    /// of waiting out its interval.
    #[test]
    fn zero_seeded_timer_fires_immediately() {
        let (clock, v) = Clock::manual();
        v.advance(Duration::from_secs(5));
        let mut skewed = ReportTimer::new(Duration::from_secs(1), 0);
        assert!(
            skewed.due(clock.now_ns()),
            "this is the bug the loop-start seed avoids"
        );
        let mut seeded = ReportTimer::new(Duration::from_secs(1), clock.now_ns());
        assert!(!seeded.due(clock.now_ns()), "the seeded timer waits");
    }
}
