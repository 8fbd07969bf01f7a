//! Microbenchmarks of the measurement / queueing / threading substrates:
//! the costs that make microsecond-scale scheduling viable.

use concord_core::clock::Clock;
use concord_core::preempt::{set_mode, should_yield, PreemptMode, WorkerShared};
use concord_metrics::{Histogram, SlowdownTracker};
use concord_microbench::{black_box, criterion_group, criterion_main, Criterion};
use concord_net::ring::ring;
use concord_uthread::Coroutine;
use std::sync::Arc;
use std::time::Duration;

fn bench_histogram(c: &mut Criterion) {
    let mut g = c.benchmark_group("histogram");
    g.bench_function("record", |b| {
        let mut h = Histogram::new(3);
        let mut v = 1u64;
        b.iter(|| {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1) % 1_000_000 + 1;
            h.record(black_box(v));
        });
    });
    g.bench_function("p999_query", |b| {
        let mut h = Histogram::new(3);
        for i in 1..100_000u64 {
            h.record(i * 17 % 1_000_000 + 1);
        }
        b.iter(|| black_box(h.value_at_quantile(0.999)));
    });
    g.bench_function("slowdown_record", |b| {
        let mut t = SlowdownTracker::new();
        b.iter(|| t.record(black_box(1_000), black_box(52_345)));
    });
    g.finish();
}

fn bench_ring(c: &mut Criterion) {
    let mut g = c.benchmark_group("spsc_ring");
    g.bench_function("push_pop", |b| {
        let (mut tx, mut rx) = ring::<u64>(1024);
        b.iter(|| {
            tx.push(black_box(42)).expect("space");
            black_box(rx.pop().expect("item"));
        });
    });
    g.finish();
}

fn bench_coroutine(c: &mut Criterion) {
    let mut g = c.benchmark_group("uthread");
    // §3.1: cooperative switches should be ≈100 ns; one resume is two
    // switches (caller→coroutine→caller).
    g.bench_function("yield_resume_pair", |b| {
        let mut co = Coroutine::new(64 * 1024, |y| loop {
            y.yield_now();
        });
        co.resume();
        b.iter(|| {
            black_box(co.resume());
        });
    });
    g.bench_function("create_and_complete", |b| {
        b.iter(|| {
            let mut co = Coroutine::new(16 * 1024, |_| {});
            black_box(co.resume());
        });
    });
    g.finish();
}

fn bench_task(c: &mut Criterion) {
    use concord_core::task::Task;
    use concord_core::transport::spsc;
    use concord_core::SpinApp;
    use concord_net::Request;
    use concord_uthread::stack::Stack;
    use std::sync::atomic::{AtomicBool, Ordering};

    // Zero service time: what is left is binding a request to a recycled
    // stack, one slice, and taking the stack back.
    let request = || Request {
        id: 1,
        class: 0,
        service_ns: 0,
        sent_at: std::time::Instant::now(),
    };
    let mut g = c.benchmark_group("task");
    g.bench_function("create_run_recycle_same_thread", |b| {
        let app = Arc::new(SpinApp::new());
        let clock = Clock::monotonic();
        let req = request();
        let mut stack = Some(Stack::new(64 * 1024));
        b.iter(|| {
            let s = stack.take().expect("stack comes back from every task");
            let mut task = Task::with_stack(app.clone(), req, s, 0);
            black_box(task.run_slice(&clock));
            stack = task.recycle();
        });
    });
    // The shape of the real request path: the task is built on one thread
    // (the dispatcher's role), run and taken apart on another (a worker's),
    // and its stack comes back over an SPSC ring. Whatever the build
    // allocates is freed on the other thread, so this row — unlike the
    // one above — pays the allocator's cross-thread path and every
    // reference count two cores share. One iteration is one task; with
    // JBSQ(2)'s two stacks in flight the slower of the two threads sets
    // the time.
    g.bench_function("create_run_recycle_cross_thread", |b| {
        let app = Arc::new(SpinApp::new());
        let req = request();
        let (mut task_tx, mut task_rx) = spsc::<Task>(2);
        let (mut stack_tx, mut stack_rx) = spsc::<Stack>(2);
        for _ in 0..2 {
            assert!(stack_tx.push(Stack::new(64 * 1024)).is_ok());
        }
        let stop = Arc::new(AtomicBool::new(false));
        let runner = {
            let stop = stop.clone();
            std::thread::spawn(move || {
                let clock = Clock::monotonic();
                while !stop.load(Ordering::Acquire) {
                    let Some(mut task) = task_rx.pop() else {
                        std::hint::spin_loop();
                        continue;
                    };
                    black_box(task.run_slice(&clock));
                    let stack = task.recycle().expect("completed in one slice");
                    assert!(stack_tx.push(stack).is_ok(), "two stacks, two slots");
                }
            })
        };
        b.iter(|| {
            let stack = loop {
                match stack_rx.pop() {
                    Some(s) => break s,
                    None => std::hint::spin_loop(),
                }
            };
            let task = Task::with_stack(app.clone(), req, stack, 0);
            assert!(task_tx.push(task).is_ok(), "two stacks, two slots");
        });
        stop.store(true, Ordering::Release);
        runner.join().expect("runner thread");
    });
    g.finish();
}

fn bench_preempt(c: &mut Criterion) {
    let mut g = c.benchmark_group("preempt");
    // §3.1: one preemption-point check must stay in the ~nanosecond
    // range. The probe carries no fault hook: an injected handler panic
    // lives in the conformance harness's app wrapper, not here.
    g.bench_function("should_yield_worker_mode", |b| {
        let shared = Arc::new(WorkerShared::new());
        set_mode(PreemptMode::Worker(shared.clone()));
        b.iter(|| black_box(should_yield()));
        set_mode(PreemptMode::None);
    });
    g.bench_function("line_poll_empty", |b| {
        let shared = WorkerShared::new();
        b.iter(|| black_box(shared.take_signal_current()));
    });
    g.bench_function("begin_end_slice", |b| {
        let shared = WorkerShared::new();
        let clock = Clock::monotonic();
        let quantum = Duration::from_micros(5);
        b.iter(|| {
            black_box(shared.begin_slice(&clock, quantum));
            shared.end_slice();
        });
    });
    g.bench_function("clock_now_monotonic", |b| {
        let clock = Clock::monotonic();
        b.iter(|| black_box(clock.now_ns()));
    });
    g.bench_function("clock_now_virtual", |b| {
        let (clock, _handle) = Clock::manual();
        b.iter(|| black_box(clock.now_ns()));
    });
    // The collector's idle wait: spin → yield → bounded park instead of
    // a pure busy-spin. Each iteration times out an empty 50 µs wait, so
    // the measured cost is the whole backoff ladder — compare CPU time
    // against wall time to see the parking actually yields the core.
    g.bench_function("collector_idle_timeout_50us", |b| {
        use concord_net::{ring, Collector, Response, RttModel};
        let (_tx, rx) = ring::<Response>(64);
        let mut collector = Collector::new(rx, RttModel::zero(), 1);
        b.iter(|| black_box(collector.collect(1, Duration::from_micros(50))));
    });
    g.finish();
}

fn bench_central_queue(c: &mut Criterion) {
    use concord_core::CentralQueue;

    let mut g = c.benchmark_group("central_queue");
    // The steal path (work-conserving dispatcher + inter-shard steals)
    // used to scan the mixed run queue with `position(|t| !t.started)` —
    // O(n) under backlog. The split-deque queue makes it a pop from the
    // fresh deque's end: the two depths below differ 10× and their costs
    // must be indistinguishable. Each iteration steals one entry and
    // pushes a replacement so the depth stays constant.
    for (name, depth) in [
        ("steal_at_depth_1k", 1_000u64),
        ("steal_at_depth_10k", 10_000u64),
    ] {
        g.bench_function(name, |b| {
            let mut q = CentralQueue::new();
            for i in 0..depth {
                q.push_fresh(i);
            }
            b.iter(|| {
                let v = q.steal_not_started().expect("depth is maintained");
                q.push_fresh(black_box(v));
            });
        });
    }
    // Worst case for the old scan: the backlog is almost entirely
    // *started* (requeued) work, so the scan walked the whole deque
    // before finding the lone fresh victim. Now the started entries are
    // in their own deque and never touched.
    for (name, depth) in [
        ("steal_past_1k_started", 1_000u64),
        ("steal_past_10k_started", 10_000u64),
    ] {
        g.bench_function(name, |b| {
            let mut q = CentralQueue::new();
            for i in 0..depth {
                q.push_requeued(i);
            }
            q.push_fresh(depth);
            b.iter(|| {
                let v = q.steal_not_started().expect("one fresh entry");
                q.push_fresh(black_box(v));
            });
        });
    }
    // The idle tripwire reads the not-started count every dispatcher
    // loop; it used to be an O(n) `iter().any()`.
    g.bench_function("not_started_count_at_10k", |b| {
        let mut q = CentralQueue::new();
        for i in 0..10_000u64 {
            q.push_requeued(i);
        }
        b.iter(|| black_box(q.not_started()));
    });
    g.finish();
}

fn bench_trace(c: &mut Criterion) {
    use concord_trace::{EventKind, TraceCollector, TraceEvent};

    let mut g = c.benchmark_group("trace");
    // The emit hot path the workers pay per scheduling event: one clock
    // stamp is already in hand, so this is pack + SPSC ring write. The
    // `preempt` group is the probe fast path beside it: `should_yield`'s
    // empty poll touches no trace state.
    g.bench_function("emit_hot_path", |b| {
        let (mut collector, mut lanes) = TraceCollector::new(1, 64 * 1024);
        let mut lane = lanes.remove(0);
        let mut ts = 0u64;
        b.iter(|| {
            ts += 8;
            let ok = lane.emit(TraceEvent::new(ts, EventKind::Resume, 7, 3));
            if !ok {
                // Ring full: drain like the dispatcher tick would, so the
                // benchmark measures emit cost rather than drop cost.
                collector.drain();
            }
            black_box(ok);
        });
    });
    // Overflowed ring: the drop-and-count path taken under a stalled
    // collector. Must stay as cheap as a successful emit (wait-free).
    g.bench_function("emit_overflow_drop", |b| {
        let (_collector, mut lanes) = TraceCollector::new(1, 16);
        let mut lane = lanes.remove(0);
        for i in 0..32u64 {
            lane.emit(TraceEvent::new(i, EventKind::Resume, 7, 3));
        }
        let mut ts = 1_000u64;
        b.iter(|| {
            ts += 8;
            black_box(lane.emit(TraceEvent::new(ts, EventKind::Resume, 7, 3)));
        });
    });
    g.bench_function("event_pack_unpack", |b| {
        let mut ts = 0u64;
        b.iter(|| {
            ts += 8;
            let ev = TraceEvent::new(black_box(ts), EventKind::SignalSeen, 123_456, 42);
            black_box((ev.kind(), ev.id(), ev.gen()));
        });
    });
    g.finish();
}

fn bench_registry(c: &mut Criterion) {
    use concord_obs::{render_prometheus, MetricsRegistry};
    use std::sync::atomic::{AtomicU64, Ordering};

    let mut g = c.benchmark_group("metrics_registry");
    // The introspection plane's core claim: publication is wait-free
    // because the hot path never changes. A/B: bumping a bare atomic vs
    // bumping the same atomic after it has been registered as a counter
    // source — the two must be within noise of each other, since the
    // registry only reads at scrape time.
    g.bench_function("publish_bare_atomic", |b| {
        let n = Arc::new(AtomicU64::new(0));
        b.iter(|| black_box(n.fetch_add(1, Ordering::Relaxed)));
    });
    g.bench_function("publish_registered_atomic", |b| {
        let reg = MetricsRegistry::new();
        let n = Arc::new(AtomicU64::new(0));
        let src = n.clone();
        reg.counter("bench_total", "a/b probe", &[], move || {
            src.load(Ordering::Relaxed)
        });
        b.iter(|| black_box(n.fetch_add(1, Ordering::Relaxed)));
        black_box(reg.snapshot());
    });
    // What a scrape costs (read side only, off the hot path): snapshot
    // plus text render of a realistic series count.
    g.bench_function("snapshot_and_render_64_series", |b| {
        let reg = MetricsRegistry::new();
        let n = Arc::new(AtomicU64::new(123_456));
        for i in 0..60 {
            let src = n.clone();
            let shard = (i % 4).to_string();
            reg.counter(
                &format!("series_{}_total", i / 4),
                "scrape-cost probe",
                &[("shard", shard.as_str())],
                move || src.load(Ordering::Relaxed),
            );
        }
        let src = n.clone();
        reg.per_scrape(move |snap| {
            let mut h = Histogram::new(3);
            for i in 1..128u64 {
                h.record(i * 1000 + src.load(Ordering::Relaxed) % 97);
            }
            snap.push_hist("lat_ns", "scrape-cost probe", &[], &h);
        });
        b.iter(|| black_box(render_prometheus(&black_box(reg.snapshot()))));
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_histogram,
    bench_ring,
    bench_coroutine,
    bench_task,
    bench_preempt,
    bench_central_queue,
    bench_trace,
    bench_registry
);
criterion_main!(benches);
