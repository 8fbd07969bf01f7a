//! Per-operation costs of the substrates that make microsecond-scale
//! scheduling viable, on one timer.
//!
//! First the benchmark's own isolated per-layer block
//! (`concord_benchmark::layers::run`, the `*_ns` rows of
//! `BENCHMARK.json`), then the rows only this bench has, each timed with
//! the same `concord_benchmark::layers::time_op`. Every number is the
//! median of its samples, in time per operation.
//!
//! `cargo bench -p concord-bench --bench bench_substrates -- FILTER`
//! runs only the rows whose name contains `FILTER`.

use concord_benchmark::layers::{self, time_op};
use concord_benchmark::spec::PER_LAYER;
use concord_core::clock::Clock;
use concord_core::preempt::{set_mode, should_yield, PreemptMode, WorkerShared};
use concord_metrics::{Histogram, SlowdownTracker};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

/// One sample's length: what the benchmark uses from a 15 s run up.
const SAMPLE: Duration = Duration::from_millis(10);

struct Bench {
    filter: Option<String>,
    /// The per-layer `obs.counter_inc_ns`, printed again beside the bare
    /// atomic it is the registered half of.
    counter_inc_ns: Option<f64>,
}

impl Bench {
    fn wants(&self, id: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| id.contains(f))
    }

    fn print(id: &str, ns: f64) {
        let (value, unit) = match ns {
            ns if ns < 1e3 => (ns, "ns"),
            ns if ns < 1e6 => (ns / 1e3, "us"),
            ns => (ns / 1e6, "ms"),
        };
        println!("{id:<48} {value:>9.2} {unit}");
    }

    /// Runs `measure` (set-up, one `time_op`, tear-down) if `id` passes
    /// the filter, and prints what it returns.
    fn row(&self, id: &str, measure: impl FnOnce() -> f64) {
        if self.wants(id) {
            Self::print(id, measure());
        }
    }
}

fn main() {
    // `cargo bench` passes `--bench`; the first other argument filters.
    let filter = std::env::args()
        .skip(1)
        .find(|a| !a.starts_with('-') && !a.is_empty());
    let mut b = Bench {
        filter,
        counter_inc_ns: None,
    };
    per_layer(&mut b);
    histogram(&b);
    task(&b);
    preempt(&b);
    central_queue(&b);
    trace(&b);
    registry(&b);
    kv(&b);
    sim(&b);
    instrument(&b);
}

fn per_layer(b: &mut Bench) {
    // `layers::run` times the head of `PER_LAYER`, its rows in ns.
    let mut timed = PER_LAYER.iter().take_while(|l| l.unit == "ns");
    if !timed.any(|l| b.wants(l.name)) {
        return;
    }
    for (name, ns) in layers::run(SAMPLE) {
        if name == "obs.counter_inc_ns" {
            b.counter_inc_ns = Some(ns);
        }
        if b.wants(name) {
            Bench::print(name, ns);
        }
    }
}

fn histogram(b: &Bench) {
    b.row("histogram/p999_query", || {
        let mut h = Histogram::new(3);
        for i in 1..100_000u64 {
            h.record(i * 17 % 1_000_000 + 1);
        }
        time_op(SAMPLE, || {
            black_box(h.value_at_quantile(0.999));
        })
    });
    b.row("histogram/slowdown_record", || {
        let mut t = SlowdownTracker::new();
        time_op(SAMPLE, || t.record(black_box(1_000), black_box(52_345)))
    });
}

fn task(b: &Bench) {
    use concord_core::task::Task;
    use concord_core::transport::spsc;
    use concord_core::SpinApp;
    use concord_net::Request;
    use concord_uthread::stack::Stack;
    use std::sync::atomic::{AtomicBool, Ordering};

    // The shape of the real request path, beside the one-thread
    // `core.task_run_ns`: the task is built on one thread (the
    // dispatcher's role), run and taken apart on another (a worker's),
    // and its stack comes back over an SPSC ring. Whatever the build
    // allocates is freed on the other thread, so this row pays the
    // allocator's cross-thread path and every reference count two cores
    // share. One operation is one task; with JBSQ(2)'s two stacks in
    // flight the slower of the two threads sets the time.
    b.row("task/create_run_recycle_cross_thread", || {
        let app = Arc::new(SpinApp::new());
        let req = Request {
            id: 1,
            class: 0,
            service_ns: 0,
            sent_at: std::time::Instant::now(),
        };
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
        let ns = time_op(SAMPLE, || {
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
        ns
    });
}

fn preempt(b: &Bench) {
    // §3.1: one preemption-point check must stay in the ~nanosecond
    // range. The probe carries no fault hook: an injected handler panic
    // lives in the conformance harness's app wrapper, not here.
    b.row("preempt/should_yield_worker_mode", || {
        set_mode(PreemptMode::Worker(Arc::new(WorkerShared::new())));
        let ns = time_op(SAMPLE, || {
            black_box(should_yield());
        });
        set_mode(PreemptMode::None);
        ns
    });
    b.row("preempt/line_poll_empty", || {
        let shared = WorkerShared::new();
        time_op(SAMPLE, || {
            black_box(shared.take_signal_current());
        })
    });
    b.row("preempt/clock_now_monotonic", || {
        let clock = Clock::monotonic();
        time_op(SAMPLE, || {
            black_box(clock.now_ns());
        })
    });
    b.row("preempt/clock_now_virtual", || {
        let (clock, _handle) = Clock::manual();
        time_op(SAMPLE, || {
            black_box(clock.now_ns());
        })
    });
    // The collector's idle wait: spin → yield → bounded park instead of
    // a pure busy-spin. Each operation times out an empty 50 µs wait, so
    // the measured cost is the whole backoff ladder — compare CPU time
    // against wall time to see the parking actually yields the core.
    b.row("preempt/collector_idle_timeout_50us", || {
        use concord_net::{ring::ring, Collector, Response, RttModel};
        let (_tx, rx) = ring::<Response>(64);
        let mut collector = Collector::new(rx, RttModel::zero(), 1);
        time_op(SAMPLE, || {
            black_box(collector.collect(1, Duration::from_micros(50)));
        })
    });
}

fn central_queue(b: &Bench) {
    use concord_core::CentralQueue;

    // The steal path (work-conserving dispatcher + inter-shard steals)
    // used to scan the mixed run queue with `position(|t| !t.started)` —
    // O(n) under backlog. The split-deque queue makes it a pop from the
    // fresh deque's end: the two depths below differ 10× and their costs
    // must be indistinguishable. Each operation steals one entry and
    // pushes a replacement so the depth stays constant.
    for (name, depth) in [
        ("central_queue/steal_at_depth_1k", 1_000u64),
        ("central_queue/steal_at_depth_10k", 10_000u64),
    ] {
        b.row(name, || {
            let mut q = CentralQueue::new();
            (0..depth).for_each(|i| q.push_fresh(i));
            time_op(SAMPLE, || {
                let v = q.steal_not_started().expect("depth is maintained");
                q.push_fresh(black_box(v));
            })
        });
    }
    // Worst case for the old scan: the backlog is almost entirely
    // *started* (requeued) work, so the scan walked the whole deque
    // before finding the lone fresh victim. Now the started entries are
    // in their own deque and never touched.
    for (name, depth) in [
        ("central_queue/steal_past_1k_started", 1_000u64),
        ("central_queue/steal_past_10k_started", 10_000u64),
    ] {
        b.row(name, || {
            let mut q = CentralQueue::new();
            (0..depth).for_each(|i| q.push_requeued(i));
            q.push_fresh(depth);
            time_op(SAMPLE, || {
                let v = q.steal_not_started().expect("one fresh entry");
                q.push_fresh(black_box(v));
            })
        });
    }
    // The idle tripwire reads the not-started count every dispatcher
    // loop; it used to be an O(n) `iter().any()`.
    b.row("central_queue/not_started_count_at_10k", || {
        let mut q = CentralQueue::new();
        (0..10_000u64).for_each(|i| q.push_requeued(i));
        time_op(SAMPLE, || {
            black_box(q.not_started());
        })
    });
}

fn trace(b: &Bench) {
    use concord_trace::{EventKind, TraceCollector, TraceEvent};

    // Overflowed ring: the drop-and-count path taken under a stalled
    // collector. Must stay as cheap as a successful emit
    // (`trace.emit_ns`): both are wait-free.
    b.row("trace/emit_overflow_drop", || {
        let (_collector, mut lanes) = TraceCollector::new(1, 16);
        let mut lane = lanes.remove(0);
        for i in 0..32u64 {
            lane.emit(TraceEvent::new(i, EventKind::Resume, 7, 3));
        }
        let mut ts = 1_000u64;
        time_op(SAMPLE, || {
            ts += 8;
            black_box(lane.emit(TraceEvent::new(ts, EventKind::Resume, 7, 3)));
        })
    });
    b.row("trace/event_pack_unpack", || {
        let mut ts = 0u64;
        time_op(SAMPLE, || {
            ts += 8;
            let ev = TraceEvent::new(black_box(ts), EventKind::SignalSeen, 123_456, 42);
            black_box((ev.kind(), ev.id(), ev.gen()));
        })
    });
}

fn registry(b: &Bench) {
    use concord_obs::{render_prometheus, MetricsRegistry};
    use std::sync::atomic::{AtomicU64, Ordering};

    // The introspection plane's core claim: publication is wait-free
    // because the hot path never changes. A/B: bumping a bare atomic vs
    // bumping the same atomic after it has been registered as a counter
    // source (`obs.counter_inc_ns`) — the two must be within noise of
    // each other, since the registry only reads at scrape time.
    if b.wants("metrics_registry/publish_bare_atomic") {
        let n = Arc::new(AtomicU64::new(0));
        let ns = time_op(SAMPLE, || {
            black_box(n.fetch_add(1, Ordering::Relaxed));
        });
        Bench::print("metrics_registry/publish_bare_atomic", ns);
        if let Some(registered) = b.counter_inc_ns {
            Bench::print("  registered: obs.counter_inc_ns", registered);
        }
    }
    // What a scrape costs (read side only, off the hot path): snapshot
    // plus text render of a realistic series count.
    b.row("metrics_registry/snapshot_and_render_64_series", || {
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
        time_op(SAMPLE, || {
            black_box(render_prometheus(&black_box(reg.snapshot())));
        })
    });
}

fn kv(b: &Bench) {
    use concord_kv::Db;

    // These calibrate the service times of the Figure 9/10 simulations
    // (paper §5.3: GET ≈ 600 ns, PUT ≈ 2.3 µs, SCAN ≈ 500 µs on a
    // 15k-key in-memory database). Each row gets its own store, so the
    // put row's many operations cannot grow the scan row's data set.
    const KEYS: u32 = 15_000;
    fn populated() -> Db {
        let db = Db::new();
        for i in 0..KEYS {
            db.put(
                format!("user{i:08}").into_bytes(),
                format!("value-{i}-0123456789abcdef").into_bytes(),
            );
        }
        db.flush();
        db
    }
    b.row("kv/get_hit", || {
        let db = populated();
        let mut i = 0u32;
        time_op(SAMPLE, || {
            i = (i + 7919) % KEYS;
            black_box(db.get(format!("user{i:08}").as_bytes()));
        })
    });
    b.row("kv/get_miss", || {
        let db = populated();
        time_op(SAMPLE, || {
            black_box(db.get(b"user99999999"));
        })
    });
    b.row("kv/put", || {
        let db = populated();
        let mut i = 0u32;
        time_op(SAMPLE, || {
            i = i.wrapping_add(1);
            db.put(format!("put{i:08}").into_bytes(), b"v".to_vec());
        })
    });
    b.row("kv/scan_full_15k", || {
        let db = populated();
        time_op(SAMPLE, || {
            black_box(db.scan_all().len());
        })
    });
}

fn sim(b: &Bench) {
    use concord_sim::{abstract_queue, simulate, SimParams, SystemConfig};
    use concord_workloads::mix;

    // How fast the discrete-event engine regenerates one figure point:
    // the paper sweep runs hundreds of them.
    for (name, cfg) in [
        (
            "sim/concord_bimodal_point",
            SystemConfig::concord(14, 5_000),
        ),
        (
            "sim/shinjuku_bimodal_point",
            SystemConfig::shinjuku(14, 5_000),
        ),
    ] {
        b.row(name, || {
            time_op(SAMPLE, || {
                black_box(simulate(
                    &cfg,
                    mix::bimodal_50_1_50_100(),
                    &SimParams::new(150_000.0, 5_000, 42),
                ));
            })
        });
    }
    b.row("sim/abstract_queue_point", || {
        time_op(SAMPLE, || {
            black_box(abstract_queue::run(
                8,
                abstract_queue::PreemptionModel::Precise { quantum_ns: 5_000 },
                mix::bimodal_995_05_05_500(),
                1_000_000.0,
                5_000,
                42,
            ));
        })
    });
}

fn instrument(b: &Bench) {
    use concord_instrument::analysis::{analyze, AnalysisParams};
    use concord_instrument::corpus;
    use concord_instrument::passes::{instrument, PassConfig};

    // The instrumentation pass and the exact gap-moment analysis over
    // the Table 1 corpus.
    let program = || corpus::benchmarks()[0].program();
    b.row("instrument/concord_pass", || {
        let program = program();
        time_op(SAMPLE, || {
            black_box(instrument(&program, &PassConfig::concord_worker()));
        })
    });
    b.row("instrument/gap_analysis", || {
        let instrumented = instrument(&program(), &PassConfig::concord_worker());
        time_op(SAMPLE, || {
            black_box(analyze(&instrumented, &AnalysisParams::default()));
        })
    });
    b.row("instrument/full_table1", || {
        time_op(SAMPLE, || {
            black_box(corpus::table1());
        })
    });
}
