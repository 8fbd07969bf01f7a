//! Isolated calls into each layer's public functions, timed on one
//! thread: nanoseconds per operation, median of [`SAMPLES`] samples.
//!
//! `concord-microbench` calibrates and samples the same way but only
//! prints its result; this module needs the number, so it carries its
//! own forty-line timer instead of parsing that crate's stdout.

use concord_core::admission::{AdmissionConfig, AdmissionPolicy, AdmissionQueue};
use concord_core::preempt::{PreemptLine, WorkerShared};
use concord_core::task::Task;
use concord_core::telemetry::{CompletionRecord, Telemetry};
use concord_core::{CentralQueue, Clock, SpinApp};
use concord_metrics::Histogram;
use concord_net::poll::{Events, Interest, Poller, Waker};
use concord_net::{ring, Request, Response};
use concord_trace::{EventKind, TraceCollector, TraceEvent};
use concord_uthread::stack::Stack;
use concord_uthread::Coroutine;
use concord_wire::frame::{self as wire, Status};
use concord_wire::RecvBuf;
use concord_workloads::arrival::Poisson;
use concord_workloads::{mix, TraceGenerator};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Samples per timing.
pub const SAMPLES: usize = 15;

/// Times `op`: grows the iteration count until one sample lasts
/// `sample`, takes [`SAMPLES`] samples and returns the median
/// nanoseconds per call.
pub fn time_op(sample: Duration, mut op: impl FnMut()) -> f64 {
    let mut iters: u64 = 1;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            op();
        }
        let took = t.elapsed();
        if took >= sample || iters >= 1 << 40 {
            break;
        }
        let grow = (sample.as_nanos() * 2 / took.as_nanos().max(1)).clamp(2, 100) as u64;
        iters = iters.saturating_mul(grow);
    }
    let per_call: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                op();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    crate::stats::median(&per_call)
}

fn request(id: u64) -> Request {
    Request {
        id,
        class: 0,
        service_ns: 0,
        sent_at: Instant::now(),
    }
}

/// Runs every isolated timing, each sample lasting `sample`. Returns
/// `(metric name, ns per operation)` in the order of
/// [`crate::spec::PER_LAYER`]'s isolated block.
pub fn run(sample: Duration) -> Vec<(&'static str, f64)> {
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    let mut t = |name: &'static str, ns: f64| out.push((name, ns));

    // concord-wire: one header-only frame each way.
    let mut buf = Vec::with_capacity(64);
    t(
        "wire.encode_request_ns",
        time_op(sample, || {
            buf.clear();
            wire::encode_request(&mut buf, black_box(7), 0, 1_000, &[]);
            black_box(&buf);
        }),
    );
    let req_frame = buf.clone();
    t(
        "wire.decode_request_ns",
        time_op(sample, || {
            black_box(wire::decode(black_box(&req_frame)).expect("well-formed frame"));
        }),
    );
    let resp = Response::completed(&request(7));
    t(
        "wire.encode_response_ns",
        time_op(sample, || {
            buf.clear();
            wire::encode_response(&mut buf, black_box(7), &resp, Status::Ok);
            black_box(&buf);
        }),
    );
    let resp_frame = buf.clone();
    t(
        "wire.decode_response_ns",
        time_op(sample, || {
            black_box(wire::decode(black_box(&resp_frame)).expect("well-formed frame"));
        }),
    );
    let mut rbuf = RecvBuf::new();
    t(
        "wire.recvbuf_fill_ns",
        time_op(sample, || {
            let mut src: &[u8] = &req_frame;
            let n = rbuf.fill(&mut src).expect("in-memory read");
            rbuf.consume(n);
        }),
    );

    // concord-net: the descriptor ring and the epoll wrapper.
    let (mut tx, mut rx) = ring::ring::<u64>(1024);
    t(
        "net.ring_push_pop_ns",
        time_op(sample, || {
            tx.push(black_box(42)).expect("space");
            black_box(rx.pop());
        }),
    );
    t("net.ring_handoff_ns", ring_handoff_ns(sample));
    let poller = Poller::new().expect("epoll instance");
    let waker = Waker::new().expect("eventfd");
    poller
        .add(waker.fd(), 1, Interest::READ)
        .expect("register eventfd");
    waker.wake();
    let mut events = Events::with_capacity(8);
    t(
        "net.poll_wait_ready_ns",
        time_op(sample, || {
            black_box(poller.wait(&mut events, 0).expect("epoll_wait"));
        }),
    );

    // concord-core: admission, central queue, hand-off rings, the
    // preemption word, slice accounting, task life cycle, telemetry.
    let gate = AdmissionQueue::new(
        AdmissionConfig {
            capacity: 4096,
            policy: AdmissionPolicy::RejectNewest,
        },
        Clock::monotonic(),
    );
    let req = request(1);
    t(
        "core.admission_offer_pop_ns",
        time_op(sample, || {
            black_box(gate.offer(black_box(req)));
            black_box(gate.pop());
        }),
    );
    let mut fifo: CentralQueue<u64> = CentralQueue::new();
    (0..64).for_each(|i| fifo.push_fresh(i));
    t(
        "core.central_fifo_ns",
        time_op(sample, || {
            let v = fifo.pop_next().expect("depth is kept");
            fifo.push_fresh(black_box(v));
        }),
    );
    let mut prio: CentralQueue<u64> = CentralQueue::new();
    (0..64).for_each(|i| prio.push_fresh_prio(i * 7919 % 64, i));
    t(
        "core.central_prio_ns",
        time_op(sample, || {
            let v = prio.pop_next().expect("depth is kept");
            prio.push_fresh_prio(black_box(v * 7919 % 64), v);
        }),
    );
    let record = CompletionRecord {
        queue_ns: 2_000,
        service_ns: 1_100,
        sojourn_ns: 3_500,
        nominal_ns: 1_000,
        completed_at_ns: 0,
        slices: 1,
        worker: 0,
        class: 0,
        failed: false,
    };
    let (mut rec_tx, mut rec_rx) = concord_core::transport::spsc::<CompletionRecord>(1024);
    t(
        "core.spsc_push_pop_ns",
        time_op(sample, || {
            rec_tx.push(black_box(record)).expect("space");
            black_box(rec_rx.pop());
        }),
    );
    let line = PreemptLine::new();
    let mut gen = 0u64;
    t(
        "core.signal_poll_ns",
        time_op(sample, || {
            gen += 1;
            line.signal(black_box(gen));
            black_box(line.poll(gen));
        }),
    );
    let shared = WorkerShared::new();
    let clock = Clock::monotonic();
    t(
        "core.slice_begin_end_ns",
        time_op(sample, || {
            black_box(shared.begin_slice(&clock, Duration::from_micros(5)));
            shared.end_slice();
        }),
    );
    let app = Arc::new(SpinApp::new());
    let mut stack = Some(Stack::new(64 * 1024));
    t(
        "core.task_run_ns",
        time_op(sample, || {
            let s = stack.take().expect("stack comes back from every task");
            let mut task = Task::with_stack(app.clone(), req, s, 0);
            black_box(task.run_slice(&clock));
            stack = task.recycle();
        }),
    );
    let mut telemetry = Telemetry::new();
    let mut at = 0u64;
    t(
        "core.telemetry_record_ns",
        time_op(sample, || {
            at += 1;
            telemetry.record(&CompletionRecord {
                completed_at_ns: at,
                ..record
            });
        }),
    );

    // concord-uthread: one switch is half a resume/yield pair.
    let mut co = Coroutine::new(64 * 1024, |y| loop {
        y.yield_now();
    });
    co.resume();
    t(
        "uthread.switch_ns",
        time_op(sample, || {
            black_box(co.resume());
        }) / 2.0,
    );
    let mut stack = Some(Stack::new(64 * 1024));
    t(
        "uthread.create_ns",
        time_op(sample, || {
            let s = stack.take().expect("stack comes back from every coroutine");
            let mut co = Coroutine::with_stack(s, |_| {});
            black_box(co.resume());
            stack = co.into_stack();
        }),
    );

    // concord-metrics, concord-trace, concord-obs, concord-workloads.
    let mut hist = Histogram::new(3);
    let mut v = 1u64;
    t(
        "metrics.hist_record_ns",
        time_op(sample, || {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1) % 1_000_000 + 1;
            hist.record(black_box(v));
        }),
    );
    let (mut collector, mut lanes) = TraceCollector::new(1, 64 * 1024);
    let mut lane = lanes.remove(0);
    let mut ts = 0u64;
    t(
        "trace.emit_ns",
        time_op(sample, || {
            ts += 8;
            if !lane.emit(TraceEvent::new(ts, EventKind::Resume, 7, 3)) {
                // Full ring: drain as the dispatcher's tick would, so
                // this times emitting and not dropping.
                collector.drain();
                collector.take_trace();
            }
        }),
    );
    let registry = concord_obs::MetricsRegistry::new();
    let counter = Arc::new(AtomicU64::new(0));
    let source = counter.clone();
    registry.counter("bench_total", "registered counter", &[], move || {
        source.load(Ordering::Relaxed)
    });
    t(
        "obs.counter_inc_ns",
        time_op(sample, || {
            black_box(counter.fetch_add(1, Ordering::Relaxed));
        }),
    );
    black_box(registry.snapshot());
    let mut arrivals =
        TraceGenerator::new(Poisson::with_rate(8_000.0), mix::bimodal_50_1_50_100(), 1);
    t(
        "workloads.next_arrival_ns",
        time_op(sample, || {
            black_box(arrivals.next_arrival());
        }),
    );
    out
}

/// One-way cross-thread hand-off through the descriptor ring: half the
/// round trip of a value bounced off an echo thread. Both sides yield
/// while they wait, as the runtime's threads do; a bare spin would time
/// the host's time slice whenever the two threads share a core.
fn ring_handoff_ns(sample: Duration) -> f64 {
    let (mut there_tx, mut there_rx) = ring::ring::<u64>(64);
    let (mut back_tx, mut back_rx) = ring::ring::<u64>(64);
    let stop = Arc::new(AtomicBool::new(false));
    let echo_stop = stop.clone();
    let echo = std::thread::spawn(move || {
        while !echo_stop.load(Ordering::Relaxed) {
            match there_rx.pop() {
                Some(v) => back_tx.push(v).expect("space"),
                None => std::thread::yield_now(),
            }
        }
    });
    let round_trip = time_op(sample, || {
        there_tx.push(1).expect("space");
        while back_rx.pop().is_none() {
            std::thread::yield_now();
        }
    });
    stop.store(true, Ordering::Relaxed);
    echo.join().expect("echo thread");
    round_trip / 2.0
}
