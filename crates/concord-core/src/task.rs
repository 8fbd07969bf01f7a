//! A request bound to its coroutine.
//!
//! Tasks migrate freely: created by the dispatcher, executed on any
//! worker, possibly finished by a different worker (or by the dispatcher
//! itself for stolen, non-started requests).
//!
//! All lifecycle stamps are nanosecond readings of the runtime's
//! [`Clock`], so under a virtual clock the queueing/service/sojourn
//! telemetry is an exact, deterministic function of the schedule.
//!
//! Binding a request to a pooled [`Frame`] allocates nothing and writes
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

/// What the dispatcher pools between requests: a coroutine stack and the
/// application handle that runs on it.
pub struct Frame {
    stack: Stack,
    app: Arc<dyn ConcordApp>,
}

impl Frame {
    /// A frame on a fresh stack of `stack_size` bytes. The only place the
    /// request path clones the application handle.
    pub fn new<A: ConcordApp>(app: &Arc<A>, stack_size: usize) -> Self {
        Self {
            stack: Stack::new(stack_size),
            app: app.clone(),
        }
    }

    /// Size of the frame's stack, bytes.
    pub fn stack_size(&self) -> usize {
        self.stack.size()
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
    co: Coroutine<Outcome>,
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
    /// Binds `req` to a fresh coroutine running `app.handle_request`,
    /// stamped as ingested at clock reading `now_ns`.
    pub fn new<A: ConcordApp>(app: Arc<A>, req: Request, stack_size: usize, now_ns: u64) -> Self {
        Self::with_stack(app, req, Stack::new(stack_size), now_ns)
    }

    /// Like [`Task::new`] but on a recycled stack.
    pub fn with_stack<A: ConcordApp>(app: Arc<A>, req: Request, stack: Stack, now_ns: u64) -> Self {
        Self::on_frame(Frame { stack, app }, req, now_ns)
    }

    /// Binds `req` to a pooled frame (the dispatcher's fast path).
    pub fn on_frame(frame: Frame, req: Request, now_ns: u64) -> Self {
        let Frame { stack, app } = frame;
        let co = Coroutine::with_stack(stack, move |y| {
            let mut preemptions: u32 = 0;
            {
                let mut ctx = RequestContext::new(y, &mut preemptions);
                app.handle_request(&req, &mut ctx);
            }
            Outcome { preemptions, app }
        });
        Self {
            req,
            co,
            started: false,
            ingested_at_ns: now_ns,
            first_run_ns: None,
            busy_ns: 0,
            slices: 0,
            last_slice_start_ns: 0,
            last_slice_end_ns: 0,
        }
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
    pub fn run_slice_from(&mut self, clock: &Clock, start_ns: u64) -> SliceEnd {
        self.started = true;
        if self.first_run_ns.is_none() {
            self.first_run_ns = Some(start_ns);
        }
        self.last_slice_start_ns = start_ns;
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.co.resume()));
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
        self.co.result().map_or(0, |o| o.preemptions)
    }

    /// Recovers the stack for reuse (finished tasks only).
    pub fn recycle(self) -> Option<Stack> {
        self.co.into_stack()
    }

    /// Recovers the whole frame for the dispatcher's pool. `None` unless
    /// the handler returned: a panicked handler's application handle was
    /// dropped by the unwind, and a suspended one still lives on the
    /// stack.
    pub fn into_frame(mut self) -> Option<Frame> {
        let app = self.co.take_result()?.app;
        let stack = self.co.into_stack()?;
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
            Task::new(Arc::new(SpinApp::new()), req(service_ns), 64 * 1024, now),
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
        let mut t = Task::new(Arc::new(Bomb), req(1_000), 64 * 1024, clock.now_ns());
        assert_eq!(t.run_slice(&clock), SliceEnd::Failed);
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
        let mut t = Task::new(app, req(300_000), 64 * 1024, clock.now_ns());
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
        let mut t = Task::new(app, req(2_000_000), 64 * 1024, clock.now_ns());
        assert_eq!(t.run_slice(&clock), SliceEnd::Preempted);
        assert_eq!(t.busy_ns, 100_000, "yielded at exactly the second check");
        set_mode(PreemptMode::None);
        assert_eq!(t.run_slice(&clock), SliceEnd::Completed);
        assert_eq!(t.busy_ns, 2_000_000, "total busy is exactly the service");
    }
}
