//! Telemetry invariants under real load: every ingested request is
//! accounted for, the histograms cover exactly the completions, and the
//! percentile accessors are internally consistent.

use concord_core::{ConcordApp, RequestContext, Runtime, RuntimeConfig, SpinApp};
use concord_net::ring::ring;
use concord_net::{Collector, LoadGen, Request, Response, RttModel};
use concord_workloads::dist::Dist;
use concord_workloads::mix::{ClassSpec, Mix};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

mod common;

fn fixed_us_mix(us: f64) -> Mix {
    Mix::new(
        format!("Fixed({us})"),
        vec![ClassSpec::new("req", 1.0, Dist::fixed_us(us))],
    )
}

/// Runs `count` requests through a runtime, returning
/// (stats, telemetry snapshot, collector).
fn drive<A: ConcordApp>(
    cfg: RuntimeConfig,
    app: Arc<A>,
    workload: Mix,
    rate_rps: f64,
    count: u64,
) -> (
    Arc<concord_core::RuntimeStats>,
    concord_core::TelemetrySnapshot,
    Collector,
) {
    let (req_tx, req_rx) = ring::<Request>(8192);
    let (resp_tx, resp_rx) = ring::<Response>(8192);
    let rt = Runtime::start(cfg, app, req_rx, resp_tx);
    let gen = LoadGen::start(req_tx, workload, rate_rps, count, 42);
    let mut collector = Collector::new(resp_rx, RttModel::zero(), 42);
    let ok = collector.collect(count, Duration::from_secs(120));
    let report = gen.join();
    assert_eq!(report.dropped, 0, "RX ring overflowed");
    assert!(ok, "timed out: {}/{count} responses", collector.received());
    let telemetry = rt.telemetry();
    let stats = rt.shutdown();
    (stats, telemetry, collector)
}

#[test]
fn conservation_and_histogram_coverage() {
    let (stats, telemetry, collector) = drive(
        RuntimeConfig::small_test(),
        Arc::new(SpinApp::new()),
        fixed_us_mix(50.0),
        5_000.0,
        500,
    );
    assert_eq!(collector.received(), 500);

    // Conservation: everything ingested is completed, failed, or was
    // dropped at the TX ring — nothing vanishes silently.
    let ingested = stats.ingested.load(Ordering::Relaxed);
    let completed = stats.completed();
    let failed = stats.failed.load(Ordering::Relaxed);
    let tx_dropped = stats.tx_dropped.load(Ordering::Relaxed);
    assert_eq!(ingested, 500);
    assert_eq!(
        ingested,
        completed + failed + tx_dropped,
        "ingested != completed + failed + tx_dropped"
    );

    // Histogram coverage: one record per completion (failures included in
    // `recorded`, none expected here), across every dimension.
    assert_eq!(telemetry.recorded, completed + failed);
    assert_eq!(telemetry.breakdown.queueing.len(), telemetry.recorded);
    assert_eq!(telemetry.breakdown.service.len(), telemetry.recorded);
    assert_eq!(telemetry.breakdown.sojourn.len(), telemetry.recorded);
    assert_eq!(telemetry.records_dropped, 0);
    assert_eq!(stats.telemetry_dropped.load(Ordering::Relaxed), 0);

    // Percentile sanity: tails dominate medians, and 50 µs of spinning
    // means the measured service time is at least 50 µs at the median.
    assert!(telemetry.queueing_p99_ns() >= telemetry.queueing_p50_ns());
    assert!(telemetry.queueing_p999_ns() >= telemetry.queueing_p99_ns());
    assert!(telemetry.service_p99_ns() >= telemetry.service_p50_ns());
    assert!(telemetry.service_p999_ns() >= telemetry.service_p99_ns());
    assert!(
        telemetry.service_p50_ns() >= 50_000,
        "spun 50us but measured {}ns",
        telemetry.service_p50_ns()
    );
    assert!(telemetry.slowdown_p999() >= 1.0);

    // Sojourn bounds its parts: at every rank, total time at the server
    // is at least the queueing delay and at least the service time.
    assert!(telemetry.breakdown.sojourn_ns(0.50) >= telemetry.breakdown.service_ns(0.50));
    assert!(telemetry.breakdown.sojourn_ns(0.50) >= telemetry.breakdown.queueing_ns(0.50));
}

#[test]
fn failures_are_recorded_not_lost() {
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
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let (stats, telemetry, collector) = drive(
        RuntimeConfig::small_test(),
        Arc::new(FlakyApp),
        fixed_us_mix(10.0),
        5_000.0,
        200,
    );
    std::panic::set_hook(prev_hook);

    assert_eq!(collector.received(), 200);
    let ingested = stats.ingested.load(Ordering::Relaxed);
    let completed = stats.completed();
    let failed = stats.failed.load(Ordering::Relaxed);
    assert_eq!(failed, 20);
    assert_eq!(
        ingested,
        completed + failed + stats.tx_dropped.load(Ordering::Relaxed)
    );
    // Failed requests still produce telemetry records, flagged as such.
    assert_eq!(telemetry.recorded, 200);
    assert_eq!(telemetry.failures, 20);
    assert_eq!(telemetry.breakdown.sojourn.len(), 200);
}

#[test]
fn preempted_requests_accumulate_service_across_slices() {
    // 20 ms requests cut into 1 ms slices (see `common::sliced_burst`):
    // the measured service time of every request is exactly its 20 ms
    // of virtual work, summed across 20 slices, and every request
    // appears exactly once.
    let (stats, telemetry) = common::sliced_burst();
    assert_eq!(
        stats.preemptions.load(Ordering::Relaxed),
        common::PREEMPTIONS
    );
    assert_eq!(telemetry.recorded, common::REQUESTS);
    let service = &telemetry.breakdown.service;
    assert_eq!(
        (service.min(), service.max()),
        (common::SERVICE_NS, common::SERVICE_NS),
        "sliced service miscounted"
    );
}

#[test]
fn snapshot_while_running_is_consistent() {
    // Take snapshots mid-flight: counts grow monotonically and never
    // exceed what the stats counters admit.
    let (req_tx, req_rx) = ring::<Request>(8192);
    let (resp_tx, resp_rx) = ring::<Response>(8192);
    let rt = Runtime::start(
        RuntimeConfig::small_test(),
        Arc::new(SpinApp::new()),
        req_rx,
        resp_tx,
    );
    let count = 400;
    let gen = LoadGen::start(req_tx, fixed_us_mix(100.0), 4_000.0, count, 7);
    let mut collector = Collector::new(resp_rx, RttModel::zero(), 7);
    let mut last = 0u64;
    while collector.received() < count {
        collector.poll();
        let snap = rt.telemetry();
        assert!(snap.recorded >= last, "telemetry went backwards");
        last = snap.recorded;
        std::thread::yield_now();
    }
    gen.join();
    let final_snap = rt.telemetry();
    let stats = rt.shutdown();
    assert_eq!(final_snap.recorded, stats.completed());
}
