//! End-to-end runtime tests: load generator → rings → dispatcher/workers →
//! collector, on real threads.
//!
//! This host may be single-core, so these tests assert *functional*
//! properties (exactly-once completion, preemption occurring, lock safety,
//! work conservation) with generous quanta; the quantitative reproduction
//! lives in the simulator.

use concord_core::{
    Clock, ConcordApp, LockDepthObserver, RequestContext, Runtime, RuntimeConfig, SpinApp,
};
use concord_kv::Db;
use concord_net::ring::ring;
use concord_net::{Collector, LoadGen, Request, Response, RttModel};
use concord_workloads::dist::Dist;
use concord_workloads::mix::{ClassSpec, Mix};

mod common;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn fixed_us_mix(us: f64) -> Mix {
    Mix::new(
        format!("Fixed({us})"),
        vec![ClassSpec::new("req", 1.0, Dist::fixed_us(us))],
    )
}

/// Drives `count` requests through a runtime and returns (stats, collector).
fn drive<A: ConcordApp>(
    cfg: RuntimeConfig,
    app: Arc<A>,
    workload: Mix,
    rate_rps: f64,
    count: u64,
) -> (Arc<concord_core::RuntimeStats>, Collector) {
    let (req_tx, req_rx) = ring::<Request>(8192);
    let (resp_tx, resp_rx) = ring::<Response>(8192);
    let rt = Runtime::start(cfg, app, req_rx, resp_tx);
    let gen = LoadGen::start(req_tx, workload, rate_rps, count, 42);
    let mut collector = Collector::new(resp_rx, RttModel::zero(), 42);
    let ok = collector.collect(count, Duration::from_secs(120));
    let report = gen.join();
    assert_eq!(report.dropped, 0, "RX ring overflowed");
    assert!(ok, "timed out: {}/{count} responses", collector.received());
    let stats = rt.shutdown();
    (stats, collector)
}

#[test]
fn every_request_completes_exactly_once() {
    let (stats, collector) = drive(
        RuntimeConfig::small_test(),
        Arc::new(SpinApp::new()),
        fixed_us_mix(50.0),
        5_000.0,
        500,
    );
    assert_eq!(collector.received(), 500);
    assert_eq!(stats.completed(), 500);
    assert_eq!(stats.ingested.load(Ordering::Relaxed), 500);
}

#[test]
fn long_requests_get_preempted() {
    // Each request is signaled exactly at each of its internal quantum
    // boundaries (see `common::sliced_burst`), yields there, and still
    // completes exactly once.
    let (stats, _) = common::sliced_burst();
    assert_eq!(stats.completed(), common::REQUESTS);
    let preemptions = stats.preemptions.load(Ordering::Relaxed);
    assert_eq!(
        preemptions,
        common::PREEMPTIONS,
        "one preemption per internal quantum boundary"
    );
    assert_eq!(
        preemptions,
        stats.requeues.load(Ordering::Relaxed),
        "every preemption requeues exactly once"
    );
    assert!(stats.signals_sent.load(Ordering::Relaxed) >= preemptions);
}

#[test]
fn short_requests_are_never_preempted() {
    // On a *frozen* virtual clock no quantum can ever expire, so "no
    // preemption" is exact — it holds no matter how slowly a CI runner
    // executes the 10 µs wall-clock spins. (The wall-clock version of
    // this test was only as sound as the runner being faster than the
    // quantum.)
    let (clock, _handle) = Clock::manual();
    let cfg = RuntimeConfig::builder()
        .small_test()
        .quantum(Duration::from_millis(100))
        .clock(clock)
        .build()
        .expect("valid config");
    let (stats, _) = drive(
        cfg,
        Arc::new(SpinApp::new()),
        fixed_us_mix(10.0),
        10_000.0,
        300,
    );
    assert_eq!(stats.preemptions.load(Ordering::Relaxed), 0);
    assert_eq!(
        stats.signals_sent.load(Ordering::Relaxed),
        0,
        "frozen time must never expire a quantum"
    );
}

#[test]
fn jbsq_depth_one_behaves_like_single_queue() {
    let cfg = RuntimeConfig::builder()
        .small_test()
        .jbsq_depth(1)
        .build()
        .expect("valid config");
    let (stats, collector) = drive(
        cfg,
        Arc::new(SpinApp::new()),
        fixed_us_mix(100.0),
        5_000.0,
        300,
    );
    assert_eq!(collector.received(), 300);
    assert_eq!(stats.completed(), 300);
}

#[test]
fn work_conserving_dispatcher_steals_under_pressure() {
    // One slow worker + burst load: queues fill, the dispatcher must pick
    // up non-started requests itself.
    let cfg = RuntimeConfig {
        n_workers: 1,
        ..RuntimeConfig::small_test()
    };
    let (stats, collector) = drive(
        cfg,
        Arc::new(SpinApp::new()),
        fixed_us_mix(2_000.0),
        2_000.0, // 2k rps of 2ms requests on 1 worker: 4x overload
        150,
    );
    assert_eq!(collector.received(), 150);
    assert!(
        stats.dispatcher_completed.load(Ordering::Relaxed) > 0,
        "dispatcher never stole work: {:?}",
        stats.snapshot()
    );
}

#[test]
fn disabling_work_conservation_disables_stealing() {
    let cfg = RuntimeConfig::builder()
        .small_test()
        .workers(1)
        .work_conserving(false)
        .build()
        .expect("valid config");
    let (stats, _) = drive(
        cfg,
        Arc::new(SpinApp::new()),
        fixed_us_mix(2_000.0),
        2_000.0,
        100,
    );
    assert_eq!(stats.dispatcher_completed.load(Ordering::Relaxed), 0);
    assert_eq!(stats.stolen.load(Ordering::Relaxed), 0);
}

#[test]
fn setup_callbacks_fire() {
    struct SetupProbe {
        setups: AtomicU64,
        worker_setups: AtomicU64,
    }
    impl ConcordApp for SetupProbe {
        fn setup(&self) {
            self.setups.fetch_add(1, Ordering::SeqCst);
        }
        fn setup_worker(&self, _core: usize) {
            self.worker_setups.fetch_add(1, Ordering::SeqCst);
        }
        fn handle_request(&self, _req: &Request, _ctx: &mut RequestContext<'_, '_>) -> u64 {
            0
        }
    }
    let app = Arc::new(SetupProbe {
        setups: AtomicU64::new(0),
        worker_setups: AtomicU64::new(0),
    });
    let (_stats, _c) = drive(
        RuntimeConfig::small_test(),
        app.clone(),
        fixed_us_mix(1.0),
        10_000.0,
        50,
    );
    assert_eq!(app.setups.load(Ordering::SeqCst), 1);
    assert_eq!(app.worker_setups.load(Ordering::SeqCst), 2);
}

/// The LevelDB-style application: a KV store whose internal lock depth
/// gates preemption (the paper's §3.1 LevelDB integration).
struct KvApp {
    db: Db,
}

impl KvApp {
    fn new() -> Self {
        let db = Db::new().with_lock_observer(Arc::new(LockDepthObserver));
        for i in 0..2_000u32 {
            db.put(
                format!("key{i:05}").into_bytes(),
                format!("value{i}").into_bytes(),
            );
        }
        Self { db }
    }
}

impl ConcordApp for KvApp {
    fn handle_request(&self, req: &Request, ctx: &mut RequestContext<'_, '_>) -> u64 {
        // Class 0 = GET, class 1 = SCAN (mirrors the paper's 50/50 mix).
        match req.class {
            0 => {
                let key = format!("key{:05}", req.id % 2_000);
                let hit = self.db.get(key.as_bytes()).is_some();
                ctx.preempt_point();
                u64::from(hit)
            }
            _ => {
                // Scan in chunks with preemption points between chunks —
                // never inside the store's critical section.
                let mut total = 0u64;
                let mut from = Vec::from(&b""[..]);
                loop {
                    let chunk = self.db.scan(&from, 256);
                    total += chunk.len() as u64;
                    ctx.preempt_point();
                    match chunk.last() {
                        Some((k, _)) if chunk.len() == 256 => {
                            from = k.to_vec();
                            from.push(0);
                        }
                        _ => break,
                    }
                }
                total
            }
        }
    }
}

#[test]
fn kv_app_serves_gets_and_scans_with_lock_safety() {
    let workload = Mix::new(
        "LevelDB-ish",
        vec![
            ClassSpec::new("GET", 50.0, Dist::fixed_us(1.0)),
            ClassSpec::new("SCAN", 50.0, Dist::fixed_us(500.0)),
        ],
    );
    let cfg = RuntimeConfig::builder()
        .small_test()
        .quantum(Duration::from_micros(500))
        .build()
        .expect("valid config");
    let (stats, collector) = drive(cfg, Arc::new(KvApp::new()), workload, 2_000.0, 400);
    assert_eq!(collector.received(), 400);
    assert_eq!(stats.completed(), 400);
    // The unbalanced-lock panic inside preempt::lock_exit would have
    // crashed a worker if preemption ever fired inside a critical section.
}

/// A panicking handler must not take down the runtime: the request is
/// answered (error response) and everything else keeps flowing.
#[test]
fn app_panics_are_contained_end_to_end() {
    struct FlakyApp;
    impl ConcordApp for FlakyApp {
        fn handle_request(&self, req: &Request, ctx: &mut RequestContext<'_, '_>) -> u64 {
            if req.id % 10 == 3 {
                panic!("injected failure for request {}", req.id);
            }
            ctx.preempt_point();
            1
        }
    }
    // Silence the default panic hook's backtrace spam for this test.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let (stats, collector) = drive(
        RuntimeConfig::small_test(),
        Arc::new(FlakyApp),
        fixed_us_mix(10.0),
        5_000.0,
        200,
    );
    std::panic::set_hook(prev_hook);
    assert_eq!(collector.received(), 200, "every request gets a response");
    assert_eq!(stats.failed.load(Ordering::Relaxed), 20);
    assert_eq!(
        stats.completed() + stats.failed.load(Ordering::Relaxed),
        200
    );
}

/// Pins the central queue's requeue policy: processor-sharing round
/// robin. A preempted request re-enters the central queue *behind*
/// requests that arrived after it was first dispatched — its quantum is
/// spent, so the whole queue gets a slice before it runs again. On a
/// virtual clock the schedule is a pure function of the arrival order
/// and the quantum, so the completion order is exact, not statistical.
#[test]
fn requeue_is_processor_sharing_round_robin() {
    use concord_core::VirtualClock;
    use std::sync::Mutex;
    use std::time::Instant;

    const QUANTUM_US: u64 = 100;

    struct OrderApp {
        clock: Arc<VirtualClock>,
        order: Mutex<Vec<u64>>,
    }
    impl ConcordApp for OrderApp {
        fn handle_request(
            &self,
            req: &concord_net::Request,
            ctx: &mut RequestContext<'_, '_>,
        ) -> u64 {
            if req.id == 0 {
                // The long request: burn virtual quanta until the
                // dispatcher's signal lands, then finish on the resumed
                // slice. Everyone else completes within one quantum.
                while ctx.preemptions() == 0 {
                    self.clock.advance_ns(QUANTUM_US * 1_000 + 1);
                    ctx.preempt_point();
                }
            }
            self.order.lock().unwrap().push(req.id);
            u64::from(ctx.preemptions())
        }
    }

    let (clock, vclock) = Clock::manual();
    let app = Arc::new(OrderApp {
        clock: vclock,
        order: Mutex::new(Vec::new()),
    });
    let cfg = RuntimeConfig::builder()
        .small_test()
        .workers(1)
        .jbsq_depth(1)
        .work_conserving(false) // keep every slice on the one worker
        .quantum(Duration::from_micros(QUANTUM_US))
        .clock(clock)
        .build()
        .expect("valid config");

    let (mut req_tx, req_rx) = ring::<concord_net::Request>(16);
    let (resp_tx, mut resp_rx) = ring::<concord_net::Response>(16);
    // All three requests are in the ingress ring before the dispatcher's
    // first iteration: request 0 is dispatched first, 1 and 2 wait in
    // the central queue.
    for id in 0..3u64 {
        req_tx
            .push(concord_net::Request {
                id,
                class: 0,
                service_ns: 1,
                sent_at: Instant::now(),
            })
            .expect("ring has room");
    }
    let rt = Runtime::start(cfg, app.clone(), req_rx, resp_tx);

    let deadline = Instant::now() + Duration::from_secs(60);
    let mut got = 0;
    while got < 3 && Instant::now() < deadline {
        while resp_rx.pop().is_some() {
            got += 1;
        }
        std::thread::yield_now();
    }
    rt.shutdown();
    assert_eq!(got, 3, "timed out waiting for responses");
    // Request 0 was preempted after its first quantum and requeued
    // BEHIND 1 and 2 (which arrived while it ran): PS round robin. A
    // front-of-queue requeue (the policy the old comment claimed) would
    // complete 0 first.
    assert_eq!(*app.order.lock().unwrap(), vec![1, 2, 0]);
}

#[test]
fn per_worker_stats_sum_to_totals() {
    let (stats, _) = drive(
        RuntimeConfig::builder()
            .small_test()
            .quantum(Duration::from_millis(1))
            .build()
            .expect("valid config"),
        Arc::new(SpinApp::new()),
        fixed_us_mix(5_000.0),
        1_000.0,
        100,
    );
    let (sum_completed, sum_preempted): (u64, u64) = stats
        .per_worker
        .iter()
        .map(|w| w.snapshot())
        .fold((0, 0), |(c, p), s| (c + s.completed, p + s.preempted));
    assert_eq!(
        sum_completed,
        stats.worker_completed.load(Ordering::Relaxed)
    );
    assert_eq!(sum_preempted, stats.preemptions.load(Ordering::Relaxed));
    assert_eq!(stats.per_worker.len(), 2);
}

#[test]
fn stacks_are_recycled_across_requests() {
    let (stats, _) = drive(
        RuntimeConfig::small_test(),
        Arc::new(SpinApp::new()),
        fixed_us_mix(20.0),
        5_000.0,
        400,
    );
    // After warmup, completed stacks feed later requests.
    let reuses = stats.stack_reuses.load(Ordering::Relaxed);
    assert!(reuses > 100, "stack reuses = {reuses}");
}

#[test]
fn runtime_shutdown_is_idempotent_under_no_load() {
    let (_req_tx, req_rx) = ring::<Request>(16);
    let (resp_tx, _resp_rx) = ring::<Response>(16);
    let rt = Runtime::start(
        RuntimeConfig::small_test(),
        Arc::new(SpinApp::new()),
        req_rx,
        resp_tx,
    );
    let stats = rt.shutdown();
    assert_eq!(stats.completed(), 0);
}

#[test]
fn slowdown_metric_is_sane_at_low_load() {
    let (_stats, collector) = drive(
        RuntimeConfig::small_test(),
        Arc::new(SpinApp::new()),
        fixed_us_mix(1_000.0), // 1 ms requests
        100.0,                 // far below capacity
        100,
    );
    // Sojourn should be within a couple of orders of magnitude of service
    // time even on a noisy single-core CI box.
    let p50 = collector.tally().slowdown.median();
    assert!(p50 >= 1.0, "p50={p50}");
    assert!(p50 < 100.0, "p50={p50}");
}
