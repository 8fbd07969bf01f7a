//! A request and the coroutine frame it runs on.
//!
//! The dispatcher ingests a request as an unbound task
//! ([`Task::fresh`]): the descriptor and its stamps, no stack. The
//! thread that runs the task's first slice binds it to a frame (a
//! coroutine stack and the application handle) from its own
//! [`FramePool`] — a worker for the work it is pushed, the
//! dispatcher for the never-started work it steals (§3.3). From then on
//! the frame travels with the task: a preempted task may resume on
//! another worker, and the thread that finishes it puts the frame back
//! in *its* pool. So the lines at the top of a stack are written by the
//! cores that run it, never by the dispatcher on the way in.
//!
//! All lifecycle stamps are nanosecond readings of the runtime's
//! [`Clock`], so under a virtual clock the queueing/service/sojourn
//! telemetry is an exact, deterministic function of the schedule.
//!
//! Binding a request to a pooled frame allocates nothing and writes
//! no shared cache line: the coroutine's control block, the handler
//! closure and what it returns live inside the frame's stack
//! (`concord-uthread`), and the frame's application handle is *moved*
//! into the closure and back out with its result, so the handle's
//! reference count is touched only when a frame is first built.

use crate::app::{ConcordApp, RequestContext};
use crate::clock::Clock;
use crate::policy::KeyInput;
use concord_net::{Request, Response};
use concord_uthread::stack::Stack;
use concord_uthread::{CoState, Coroutine};
use std::sync::Arc;
use std::time::Duration;

/// What a thread pools between requests: a coroutine stack and the
/// application handle that runs on it.
struct Frame {
    stack: Stack,
    app: Arc<dyn ConcordApp>,
}

/// Size of every request coroutine's stack, bytes.
pub const STACK_SIZE: usize = 64 * 1024;

/// Most frames all of a runtime's pools hold together (one
/// [`STACK_SIZE`] stack each). Each of the `n_workers + 1` pools gets
/// an equal share, so the bound — and with it the pooled part of the
/// resident set — does not grow with the worker count.
pub(crate) const FRAME_POOL_CAP: usize = 256;

/// One thread's finished frames, ready for the next task it starts.
///
/// Every thread that runs tasks owns one: each worker, and the
/// dispatcher for the work it steals. A thread binds from its own pool
/// and returns a finished task's frame to its own pool, so a frame's
/// lines stay in the caches of the cores that run it and no pool is
/// ever shared. A pool miss builds a fresh frame, the only place the
/// request path clones the application handle.
pub struct FramePool {
    frames: Vec<Frame>,
    cap: usize,
    app: Arc<dyn ConcordApp>,
    /// Binds to a pooled frame not yet taken by [`FramePool::take_reuses`].
    reuses: u64,
}

impl FramePool {
    /// An empty pool holding at most `cap` frames, building misses on
    /// [`STACK_SIZE`] stacks that run `app`.
    pub fn new(app: Arc<dyn ConcordApp>, cap: usize) -> Self {
        Self {
            frames: Vec::new(),
            cap,
            app,
            reuses: 0,
        }
    }

    /// Binds an unbound `task` to a pooled frame, or to a fresh one when
    /// the pool is empty. A task that is already bound keeps its frame.
    pub fn bind(&mut self, task: &mut Task) {
        if task.co.is_some() {
            return;
        }
        let frame = match self.frames.pop() {
            Some(frame) => {
                self.reuses += 1;
                frame
            }
            None => Frame {
                stack: Stack::new(STACK_SIZE),
                app: self.app.clone(),
            },
        };
        task.bind(frame);
    }

    /// Takes a finished task's frame back, unless the pool is full or
    /// the handler panicked (the unwind dropped its application handle).
    pub fn put(&mut self, task: Task) {
        if self.frames.len() < self.cap {
            if let Some(frame) = task.into_frame() {
                self.frames.push(frame);
            }
        }
    }

    /// Binds to a pooled frame since the last call, for publishing to
    /// [`RuntimeStats::stack_reuses`](crate::stats::RuntimeStats::stack_reuses).
    pub fn take_reuses(&mut self) -> u64 {
        std::mem::take(&mut self.reuses)
    }
}

/// What the handler closure hands back through the coroutine frame.
struct Outcome {
    /// Total preemptions this request experienced.
    preemptions: u32,
    /// The application handle the closure ran, on its way back to the
    /// pool.
    app: Arc<dyn ConcordApp>,
}

/// One in-flight request.
pub struct Task {
    /// The request descriptor.
    pub req: Request,
    /// The coroutine running the handler; `None` until the thread that
    /// runs the first slice binds a frame.
    co: Option<Coroutine<Outcome>>,
    /// True once any thread has executed part of this task (the dispatcher
    /// may only steal non-started tasks, §3.3).
    pub started: bool,
    /// Clock reading when the dispatcher ingested the request.
    pub ingested_at_ns: u64,
    /// Clock reading when the first slice started; `None` until dispatched.
    pub first_run_ns: Option<u64>,
    /// Accumulated executed-slice clock time, nanoseconds.
    pub busy_ns: u64,
    /// Number of slices executed so far.
    pub slices: u32,
    /// Clock reading when the most recent slice started (0 = never ran).
    /// Feeds the tracer's RESUME events, so they cost no extra clock read.
    pub last_slice_start_ns: u64,
    /// Clock reading when the most recent slice ended (0 = never ran).
    /// The one stamp behind YIELD/COMPLETE events, the signal-to-yield
    /// preemption-latency histogram, the completion record and the
    /// response's `finished_at`.
    pub last_slice_end_ns: u64,
}

/// What a single execution slice ended with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SliceEnd {
    /// The request yielded at a preemption point.
    Preempted,
    /// The request finished.
    Completed,
    /// The application panicked while processing the request. The panic is
    /// contained: the request is answered with an error response and the
    /// serving thread keeps running.
    Failed,
}

impl Task {
    /// An unbound task for `req`, stamped as ingested at clock reading
    /// `now_ns`: what the dispatcher builds at ingest. It gets its frame
    /// from [`FramePool::bind`] on the thread that first runs it.
    pub fn fresh(req: Request, now_ns: u64) -> Self {
        Self {
            req,
            co: None,
            started: false,
            ingested_at_ns: now_ns,
            first_run_ns: None,
            busy_ns: 0,
            slices: 0,
            last_slice_start_ns: 0,
            last_slice_end_ns: 0,
        }
    }

    /// Binds `req` to a fresh coroutine running `app.handle_request`,
    /// stamped as ingested at clock reading `now_ns`.
    pub fn new<A: ConcordApp>(app: Arc<A>, req: Request, stack_size: usize, now_ns: u64) -> Self {
        Self::with_stack(app, req, Stack::new(stack_size), now_ns)
    }

    /// Like [`Task::new`] but on a recycled stack.
    pub fn with_stack<A: ConcordApp>(app: Arc<A>, req: Request, stack: Stack, now_ns: u64) -> Self {
        let mut task = Self::fresh(req, now_ns);
        task.bind(Frame { stack, app });
        task
    }

    /// Builds the handler's coroutine on `frame`.
    fn bind(&mut self, frame: Frame) {
        let Frame { stack, app } = frame;
        let req = self.req;
        self.co = Some(Coroutine::with_stack(stack, move |y| {
            let mut preemptions: u32 = 0;
            {
                let mut ctx = RequestContext::new(y, &mut preemptions);
                app.handle_request(&req, &mut ctx);
            }
            Outcome { preemptions, app }
        }));
    }

    /// Runs one slice (until the next yield or completion), reading the
    /// clock for its entry stamp. The caller must have installed the
    /// thread's [`PreemptMode`](crate::preempt::PreemptMode) first.
    pub fn run_slice(&mut self, clock: &Clock) -> SliceEnd {
        self.run_slice_from(clock, clock.now_ns())
    }

    /// [`Task::run_slice`] with the entry stamp `start_ns` the caller
    /// already took for the slice's deadline, so a slice costs two clock
    /// reads (entry, exit) in total.
    ///
    /// An application panic is contained here (the coroutine machinery
    /// already stopped it at the coroutine boundary): the slice reports
    /// [`SliceEnd::Failed`] instead of unwinding the runtime thread.
    ///
    /// # Panics
    ///
    /// Panics if the task was never bound to a frame.
    pub fn run_slice_from(&mut self, clock: &Clock, start_ns: u64) -> SliceEnd {
        let co = self
            .co
            .as_mut()
            .expect("a task is bound before its first slice");
        self.started = true;
        if self.first_run_ns.is_none() {
            self.first_run_ns = Some(start_ns);
        }
        self.last_slice_start_ns = start_ns;
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| co.resume()));
        let end_ns = clock.now_ns();
        self.last_slice_end_ns = end_ns;
        self.busy_ns += end_ns.saturating_sub(start_ns);
        self.slices += 1;
        match outcome {
            Ok(CoState::Suspended) => SliceEnd::Preempted,
            Ok(CoState::Complete) => SliceEnd::Completed,
            Err(_panic) => SliceEnd::Failed,
        }
    }

    /// Queueing delay (ingest → first execution). Valid once started.
    pub fn queue_delay(&self) -> Duration {
        Duration::from_nanos(self.queue_delay_ns())
    }

    /// Queueing delay in clock nanoseconds (ingest → first execution).
    pub fn queue_delay_ns(&self) -> u64 {
        self.first_run_ns
            .map(|t| t.saturating_sub(self.ingested_at_ns))
            .unwrap_or(0)
    }

    /// What the policy keys this task by: its size, the service it has
    /// attained and its ingest stamp.
    pub fn key_input(&self) -> KeyInput {
        KeyInput {
            id: self.req.id,
            size_ns: self.req.service_ns,
            attained_ns: self.busy_ns,
            arrived_ns: self.ingested_at_ns,
        }
    }

    /// Total preemptions recorded (valid after completion).
    pub fn preemptions(&self) -> u32 {
        self.co
            .as_ref()
            .and_then(|co| co.result())
            .map_or(0, |o| o.preemptions)
    }

    /// Recovers the stack for reuse (finished tasks only).
    pub fn recycle(self) -> Option<Stack> {
        self.co?.into_stack()
    }

    /// Recovers the whole frame for a pool. `None` unless the handler
    /// returned: a panicked handler's application handle was dropped by
    /// the unwind, and a suspended one still lives on the stack.
    fn into_frame(self) -> Option<Frame> {
        let mut co = self.co?;
        let app = co.take_result()?.app;
        let stack = co.into_stack()?;
        Some(Frame { stack, app })
    }

    /// Builds the response descriptor for this (completed) task, carrying
    /// the server-measured queueing and busy times. `finished_at` is the
    /// final slice's exit stamp, the same instant the completion record
    /// and the COMPLETE trace event carry.
    pub fn response(&self, clock: &Clock) -> Response {
        Response {
            id: self.req.id,
            class: self.req.class,
            service_ns: self.req.service_ns,
            sent_at: self.req.sent_at,
            finished_at: clock.instant_at(self.last_slice_end_ns),
            queue_ns: self.queue_delay_ns(),
            busy_ns: self.busy_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::SpinApp;
    use crate::clock::VirtualClock;
    use crate::preempt::{set_mode, PreemptMode, WorkerShared};
    use std::time::{Duration, Instant};

    fn req(service_ns: u64) -> Request {
        Request {
            id: 7,
            class: 1,
            service_ns,
            sent_at: Instant::now(),
        }
    }

    fn task(service_ns: u64) -> (Task, Clock) {
        let clock = Clock::monotonic();
        let now = clock.now_ns();
        (
            Task::new(Arc::new(SpinApp::new()), req(service_ns), STACK_SIZE, now),
            clock,
        )
    }

    /// Test application that models service time by advancing a virtual
    /// clock instead of spinning wall time: `busy_ns` becomes exactly the
    /// request's nominal service time, deterministically.
    struct VirtualSpin(Arc<VirtualClock>);

    impl crate::app::ConcordApp for VirtualSpin {
        fn handle_request(&self, req: &Request, ctx: &mut RequestContext<'_, '_>) -> u64 {
            self.0.advance_ns(req.service_ns);
            ctx.preempt_point();
            0
        }
    }

    #[test]
    fn short_task_completes_in_one_slice() {
        set_mode(PreemptMode::None);
        let (mut t, clock) = task(10_000);
        assert!(!t.started);
        assert_eq!(t.run_slice(&clock), SliceEnd::Completed);
        assert!(t.started);
        assert_eq!(t.preemptions(), 0);
        let resp = t.response(&clock);
        assert_eq!(resp.id, 7);
        assert_eq!(resp.class, 1);
    }

    #[test]
    fn signaled_task_preempts_and_resumes() {
        let shared = Arc::new(WorkerShared::new());
        set_mode(PreemptMode::Worker(shared.clone()));
        // 500 µs of spinning with checks every 1 µs: signal early, expect a
        // suspension, then run to completion.
        let (mut t, clock) = task(500_000);
        shared.signal_current();
        assert_eq!(t.run_slice(&clock), SliceEnd::Preempted);
        // No more signals: the remainder completes (maybe after a few
        // spurious checks).
        set_mode(PreemptMode::None);
        assert_eq!(t.run_slice(&clock), SliceEnd::Completed);
        assert_eq!(t.preemptions(), 1);
    }

    #[test]
    fn task_migrates_between_threads() {
        let shared = Arc::new(WorkerShared::new());
        set_mode(PreemptMode::Worker(shared.clone()));
        let (mut t, clock) = task(200_000);
        shared.signal_current();
        assert_eq!(t.run_slice(&clock), SliceEnd::Preempted);
        set_mode(PreemptMode::None);
        // Finish on another thread.
        let done = std::thread::spawn(move || {
            set_mode(PreemptMode::None);
            let clock = Clock::monotonic();
            let mut t = t;
            let end = t.run_slice(&clock);
            (end, t.preemptions())
        })
        .join()
        .expect("worker thread");
        assert_eq!(done, (SliceEnd::Completed, 1));
    }

    #[test]
    fn completed_task_recycles_its_stack() {
        set_mode(PreemptMode::None);
        let (mut t, clock) = task(1_000);
        assert_eq!(t.run_slice(&clock), SliceEnd::Completed);
        let stack = t.recycle().expect("stack back");
        let mut t2 = Task::with_stack(Arc::new(SpinApp::new()), req(1_000), stack, clock.now_ns());
        assert_eq!(t2.run_slice(&clock), SliceEnd::Completed);
    }

    #[test]
    fn pool_builds_on_a_miss_reuses_after_and_keeps_its_cap() {
        set_mode(PreemptMode::None);
        let clock = Clock::monotonic();
        let mut pool = FramePool::new(Arc::new(SpinApp::new()), 1);
        let mut a = Task::fresh(req(1_000), clock.now_ns());
        let mut b = Task::fresh(req(1_000), clock.now_ns());
        pool.bind(&mut a);
        pool.bind(&mut b);
        assert_eq!(pool.take_reuses(), 0, "an empty pool builds");
        assert_eq!(a.run_slice(&clock), SliceEnd::Completed);
        assert_eq!(b.run_slice(&clock), SliceEnd::Completed);
        pool.put(a);
        pool.put(b);
        let mut c = Task::fresh(req(1_000), clock.now_ns());
        pool.bind(&mut c);
        pool.bind(&mut c);
        assert_eq!(pool.take_reuses(), 1, "a bound task keeps its frame");
        let mut d = Task::fresh(req(1_000), clock.now_ns());
        pool.bind(&mut d);
        assert_eq!(pool.take_reuses(), 0, "the cap dropped the second frame");
        assert_eq!(c.run_slice(&clock), SliceEnd::Completed);
        assert_eq!(d.run_slice(&clock), SliceEnd::Completed);
        assert_eq!(c.preemptions(), 0);
    }

    #[test]
    fn app_panic_is_contained() {
        struct Bomb;
        impl crate::app::ConcordApp for Bomb {
            fn handle_request(
                &self,
                _req: &concord_net::Request,
                _ctx: &mut RequestContext<'_, '_>,
            ) -> u64 {
                panic!("request blew up");
            }
        }
        set_mode(PreemptMode::None);
        let clock = Clock::monotonic();
        let mut pool = FramePool::new(Arc::new(Bomb), 4);
        let mut t = Task::fresh(req(1_000), clock.now_ns());
        pool.bind(&mut t);
        assert_eq!(t.run_slice(&clock), SliceEnd::Failed);
        pool.put(t);
        pool.bind(&mut Task::fresh(req(1_000), clock.now_ns()));
        assert_eq!(
            pool.take_reuses(),
            0,
            "the unwind dropped the frame's handle"
        );
        // The thread survives and can run other tasks.
        let (mut ok, clock) = task(1_000);
        assert_eq!(ok.run_slice(&clock), SliceEnd::Completed);
    }

    #[test]
    fn lifecycle_stamps_are_exact_on_virtual_time() {
        // Virtual time replaces the old sleep-based test: the queueing
        // delay is exactly the 2 ms advanced before the first slice, and
        // the busy time exactly the 300 µs the handler "executes".
        set_mode(PreemptMode::None);
        let (clock, v) = Clock::manual();
        let app = Arc::new(VirtualSpin(v.clone()));
        let mut t = Task::new(app, req(300_000), STACK_SIZE, clock.now_ns());
        assert!(t.first_run_ns.is_none());
        assert_eq!(t.queue_delay(), Duration::ZERO, "not yet started");
        v.advance(Duration::from_millis(2)); // deterministic "queueing"
        assert_eq!(t.run_slice(&clock), SliceEnd::Completed);
        assert!(t.first_run_ns.is_some());
        assert_eq!(t.queue_delay_ns(), 2_000_000, "queued exactly 2 ms");
        assert_eq!(t.busy_ns, 300_000, "executed exactly 300 µs");
        assert_eq!(t.slices, 1);
        let resp = t.response(&clock);
        assert_eq!(resp.queue_ns, 2_000_000);
        assert_eq!(resp.busy_ns, 300_000);
    }

    #[test]
    fn preempted_task_counts_slices() {
        let shared = Arc::new(WorkerShared::new());
        set_mode(PreemptMode::Worker(shared.clone()));
        let (mut t, clock) = task(500_000);
        shared.signal_current();
        assert_eq!(t.run_slice(&clock), SliceEnd::Preempted);
        set_mode(PreemptMode::None);
        assert_eq!(t.run_slice(&clock), SliceEnd::Completed);
        assert_eq!(t.slices, 2);
        assert!(t.busy_ns >= 500_000);
    }

    #[test]
    fn dispatcher_deadline_self_preempts_on_virtual_time() {
        // The handler advances virtual time in 50 µs steps with a check
        // after each; the 100 µs deadline therefore fires deterministically
        // on the second check (at exactly 100 µs), never before.
        struct SteppedSpin(Arc<VirtualClock>);
        impl crate::app::ConcordApp for SteppedSpin {
            fn handle_request(&self, req: &Request, ctx: &mut RequestContext<'_, '_>) -> u64 {
                let mut left = req.service_ns;
                while left > 0 {
                    let step = left.min(50_000);
                    self.0.advance_ns(step);
                    left -= step;
                    ctx.preempt_point();
                }
                0
            }
        }
        let (clock, v) = Clock::manual();
        set_mode(PreemptMode::DispatcherDeadline {
            clock: clock.clone(),
            deadline_ns: clock.now_ns() + 100_000,
        });
        let app = Arc::new(SteppedSpin(v));
        let mut t = Task::new(app, req(2_000_000), STACK_SIZE, clock.now_ns());
        assert_eq!(t.run_slice(&clock), SliceEnd::Preempted);
        assert_eq!(t.busy_ns, 100_000, "yielded at exactly the second check");
        set_mode(PreemptMode::None);
        assert_eq!(t.run_slice(&clock), SliceEnd::Completed);
        assert_eq!(t.busy_ns, 2_000_000, "total busy is exactly the service");
    }
}
