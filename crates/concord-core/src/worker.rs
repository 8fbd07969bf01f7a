//! The worker thread: pull from the JBSQ local ring, run one slice, report
//! back.
//!
//! A task arrives unbound the first time it reaches a worker; the worker
//! binds it to a frame from its own [`FramePool`] just before the first
//! slice, and returns the frame of every task it finishes to the same
//! pool. The dispatcher never touches a worker's frames.

use crate::clock::Clock;
use crate::preempt::{set_mode, PreemptMode, WorkerShared};
use crate::quantum::QuantumTable;
use crate::stats::RuntimeStats;
use crate::task::{FramePool, SliceEnd, Task};
use crate::telemetry::CompletionRecord;
use crate::transport::{SpscReceiver, SpscSender};
use concord_net::Response;
use concord_trace::{EventKind, TraceEvent, TraceLane};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Messages a worker sends the dispatcher over its own return ring (the
/// ring identifies the worker). Each one frees a JBSQ slot. The
/// dispatcher counts them into `worker_completed` / `preemptions` as it
/// pops them, so a worker's per-request counter writes stay on its own
/// [`WorkerStats`](crate::stats::WorkerStats) row.
pub enum WorkerMsg {
    /// A request finished. Its frame stayed behind in the worker's pool.
    Completed {
        /// The request's lifecycle telemetry, folded into the aggregate
        /// before the response is emitted.
        record: CompletionRecord,
        /// Response descriptor for the TX ring.
        resp: Response,
    },
    /// A request a sibling shard ingested finished; the dispatcher
    /// records it and sends the answer home.
    Moved {
        /// The finished task, without its frame.
        task: Task,
        /// The handler panicked.
        failed: bool,
    },
    /// A request yielded and must be re-queued.
    Requeue {
        /// The suspended task.
        task: Task,
        /// Signal-store → yield latency of this preemption, nanoseconds
        /// (from stamps the signal path already takes). The dispatcher
        /// folds it into the telemetry preemption-latency histogram.
        preempt_latency_ns: u64,
    },
}

/// Long-lived state of one worker thread.
pub struct WorkerLoop {
    /// Worker index.
    pub idx: usize,
    /// Dispatcher-shared preemption state.
    pub shared: Arc<WorkerShared>,
    /// The bounded local queue (JBSQ receiving side).
    pub local: SpscReceiver<Task>,
    /// This worker's bounded return ring to the dispatcher (capacity ≥
    /// the JBSQ depth `k`).
    pub to_dispatcher: SpscSender<WorkerMsg>,
    /// Runtime time source for deadline arithmetic and telemetry stamps.
    pub clock: Clock,
    /// Per-class effective quanta, read once at each slice start. A
    /// fixed-quantum runtime shares a table nobody retunes.
    pub quanta: Arc<QuantumTable>,
    /// Set when the runtime wants workers to exit (after drain).
    pub stop: Arc<AtomicBool>,
    /// Shared counters.
    pub stats: Arc<RuntimeStats>,
    /// This worker's scheduling-event lane (`None` when tracing is
    /// disarmed). Emits are wait-free; overflow is drop-and-count.
    pub trace: Option<TraceLane>,
    /// Deterministic fault schedule (conformance testing only).
    pub injector: Option<Arc<crate::fault::FaultInjector>>,
    /// This worker's frames: it binds every task it starts from here and
    /// returns every task it finishes here.
    pub pool: FramePool,
}

impl WorkerLoop {
    /// Runs until stopped. Consumes the loop state.
    pub fn run(mut self) {
        // Installed once: every slice this thread runs polls the same
        // line, and preemption points are only reached from inside a
        // slice.
        set_mode(PreemptMode::Worker(self.shared.clone()));
        loop {
            // Injected stall: park this worker for a stretch of clock
            // time before serving anything else, creating JBSQ imbalance
            // on demand.
            if let Some(inj) = self.injector.as_deref() {
                if let Some(stall_ns) = inj.take_stall(self.idx) {
                    crate::fault::stall(&self.clock, stall_ns, &self.stop);
                }
            }
            match self.local.pop() {
                Some(mut task) => {
                    self.pool.bind(&mut task);
                    // Each slice gets a fresh generation: a late signal
                    // claimed against the previous slice carries the old
                    // generation and cannot preempt this one. One clock
                    // read is both the quantum's origin and the slice's
                    // entry stamp.
                    let start_ns = self.clock.now_ns();
                    let gen = self
                        .shared
                        .begin_slice_at(start_ns, self.quanta.get_ns(task.req.class));
                    let end = task.run_slice_from(&self.clock, start_ns);
                    self.shared.end_slice();
                    // RESUME reuses the slice's entry stamp — the tracer
                    // adds no clock reads to the run path.
                    self.trace_emit(
                        task.last_slice_start_ns,
                        EventKind::Resume,
                        task.req.id,
                        gen,
                    );
                    match end {
                        SliceEnd::Completed => {
                            if let Some(ws) = self.stats.per_worker.get(self.idx) {
                                ws.completed.fetch_add(1, Ordering::Relaxed);
                            }
                            self.trace_emit(
                                task.last_slice_end_ns,
                                EventKind::Complete,
                                task.req.id,
                                u64::from(task.slices),
                            );
                            self.finish(task, false);
                        }
                        SliceEnd::Preempted => {
                            if let Some(ws) = self.stats.per_worker.get(self.idx) {
                                ws.preempted.fetch_add(1, Ordering::Relaxed);
                            }
                            let yield_ns = task.last_slice_end_ns;
                            // The preemption point stamped the moment its
                            // probe consumed the signal; the dispatcher
                            // stamped the store itself just before making
                            // it. Both stamps precede the yield.
                            let seen_ns = self.shared.take_signal_seen_ns();
                            self.trace_emit(
                                if seen_ns == 0 { yield_ns } else { seen_ns },
                                EventKind::SignalSeen,
                                task.req.id,
                                gen,
                            );
                            self.trace_emit(yield_ns, EventKind::Yield, task.req.id, gen);
                            let sent_ns = self.shared.last_signal_sent_ns();
                            self.send(WorkerMsg::Requeue {
                                task,
                                preempt_latency_ns: yield_ns.saturating_sub(sent_ns),
                            });
                        }
                        SliceEnd::Failed => {
                            // Contained application panic: answer with an
                            // error response so the client is not left
                            // hanging, and keep the worker alive.
                            self.stats.failed.fetch_add(1, Ordering::Relaxed);
                            if let Some(ws) = self.stats.per_worker.get(self.idx) {
                                ws.failed.fetch_add(1, Ordering::Relaxed);
                            }
                            self.trace_emit(
                                task.last_slice_end_ns,
                                EventKind::Complete,
                                task.req.id,
                                u64::from(task.slices),
                            );
                            self.finish(task, true);
                        }
                    }
                }
                None => {
                    if self.stop.load(Ordering::Acquire) {
                        self.publish_reuses();
                        return;
                    }
                    // Poll-mode worker; yield so single-core hosts make
                    // progress elsewhere.
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Emits one scheduling event on this worker's lane: a single
    /// wait-free ring push. Overflow increments `trace_dropped` (global
    /// and per-worker) and drops the event — never blocks. A disarmed
    /// tracer has no lane: one branch.
    #[inline]
    fn trace_emit(&mut self, ts_ns: u64, kind: EventKind, id: u64, gen: u64) {
        if let Some(lane) = self.trace.as_mut() {
            if !lane.emit(TraceEvent::new(ts_ns, kind, id, gen)) {
                self.stats.trace_dropped.fetch_add(1, Ordering::Relaxed);
                if let Some(ws) = self.stats.per_worker.get(self.idx) {
                    ws.trace_dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Reports a finished (completed or failed) request: one message
    /// carrying the telemetry record and the response. The frame goes
    /// back to this worker's pool once the message is on its way. A
    /// request a sibling shard ingested goes back as its shell instead.
    fn finish(&mut self, mut task: Task, failed: bool) {
        if task.home().is_some() {
            self.pool.put(&mut task);
            self.send(WorkerMsg::Moved { task, failed });
            return;
        }
        let record = CompletionRecord::from_task(&task, self.idx, failed);
        let resp = task.response(&self.clock);
        self.send(WorkerMsg::Completed { record, resp });
        self.pool.put(&mut task);
    }

    /// Pushes one message onto the return ring. The ring cannot be full:
    /// the dispatcher keeps at most `k` tasks outstanding on this worker,
    /// each owes exactly one message, and a slot is only reused after
    /// the dispatcher popped the message that freed it.
    ///
    /// When the local ring has run empty, the pool's reuse count is
    /// published first: batched, and ordered before the message, so
    /// whoever has seen the response of a worker's last request reads a
    /// `stack_reuses` that includes that worker's binds.
    fn send(&mut self, msg: WorkerMsg) {
        if self.local.is_empty() {
            self.publish_reuses();
        }
        if self.to_dispatcher.push(msg).is_err() {
            unreachable!("JBSQ bound guarantees return-ring capacity");
        }
    }

    /// Adds the pool's unpublished binds to `stack_reuses`.
    fn publish_reuses(&mut self) {
        let n = self.pool.take_reuses();
        if n > 0 {
            self.stats.stack_reuses.fetch_add(n, Ordering::Relaxed);
        }
    }
}
