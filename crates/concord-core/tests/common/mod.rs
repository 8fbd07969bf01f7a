//! A sliced workload whose preemptions are exact: shared by the runtime
//! and telemetry suites, so neither counts preemptions on wall time.

use concord_core::{
    Clock, ConcordApp, RequestContext, Runtime, RuntimeConfig, RuntimeStats, TelemetrySnapshot,
    VirtualClock,
};
use concord_net::ring::ring;
use concord_net::{Request, Response};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests in the burst.
pub const REQUESTS: u64 = 20;
/// Service time of each request, virtual nanoseconds.
pub const SERVICE_NS: u64 = 20_000_000;
const QUANTUM_NS: u64 = 1_000_000;
const STEP_NS: u64 = 100_000;
/// One preemption at each internal quantum boundary of every request.
pub const PREEMPTIONS: u64 = REQUESTS * (SERVICE_NS / QUANTUM_NS - 1);

/// Advances the clock by its service in 100 µs steps with a preemption
/// point between steps. When a slice reaches the quantum with work left
/// and another request is still unfinished, the dispatcher owes it a
/// signal: it waits at the preemption point, in wall time, until the
/// signal lands, so how fast the dispatcher runs cannot change where a
/// slice ends. A signal that takes more than 2 s is not coming: the app
/// stops waiting for the rest of the run and the caller's count fails.
struct QuantumStepApp {
    clock: Arc<VirtualClock>,
    unfinished: AtomicU64,
    gave_up: AtomicBool,
}

impl ConcordApp for QuantumStepApp {
    fn handle_request(&self, req: &Request, ctx: &mut RequestContext<'_, '_>) -> u64 {
        let mut left = req.service_ns;
        let mut sliced = 0;
        while left > 0 {
            self.clock.advance_ns(STEP_NS);
            left -= STEP_NS;
            sliced += STEP_NS;
            if left == 0 {
                break;
            }
            let before = ctx.preemptions();
            ctx.preempt_point();
            let owed = sliced >= QUANTUM_NS
                && self.unfinished.load(Ordering::Relaxed) > 1
                && !self.gave_up.load(Ordering::Relaxed);
            let give_up = Instant::now() + Duration::from_secs(2);
            while owed && ctx.preemptions() == before {
                if Instant::now() > give_up {
                    self.gave_up.store(true, Ordering::Relaxed);
                    break;
                }
                std::thread::yield_now();
                ctx.preempt_point();
            }
            if ctx.preemptions() > before {
                sliced = 0;
            }
        }
        self.unfinished.fetch_sub(1, Ordering::Relaxed);
        u64::from(ctx.preemptions())
    }
}

/// Serves [`REQUESTS`] requests of [`SERVICE_NS`] each, all queued before
/// the runtime starts, at a 1 ms quantum on one JBSQ(2) worker with no
/// work conservation, on a virtual clock only the handler advances:
/// every slice runs on the worker, and until the last request is alone
/// someone always waits behind it. Returns the final counters and
/// telemetry.
pub fn sliced_burst() -> (Arc<RuntimeStats>, TelemetrySnapshot) {
    let (clock, vclock) = Clock::manual();
    let app = Arc::new(QuantumStepApp {
        clock: vclock,
        unfinished: AtomicU64::new(REQUESTS),
        gave_up: AtomicBool::new(false),
    });
    let cfg = RuntimeConfig::builder()
        .small_test()
        .workers(1)
        .work_conserving(false)
        .quantum(Duration::from_nanos(QUANTUM_NS))
        .clock(clock)
        .build()
        .expect("valid config");
    let (mut req_tx, req_rx) = ring::<Request>(64);
    let (resp_tx, mut resp_rx) = ring::<Response>(64);
    for id in 0..REQUESTS {
        req_tx
            .push(Request {
                id,
                class: 0,
                service_ns: SERVICE_NS,
                sent_at: Instant::now(),
            })
            .expect("ring has room");
    }
    let mut rt = Runtime::start(cfg, app, req_rx, resp_tx);
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut got = 0;
    while got < REQUESTS && Instant::now() < deadline {
        while resp_rx.pop().is_some() {
            got += 1;
        }
        std::thread::yield_now();
    }
    rt.quiesce();
    assert_eq!(got, REQUESTS, "timed out waiting for responses");
    (rt.stats(), rt.telemetry())
}
