//! End-to-end tests of the always-on scheduling-event tracer: emit
//! wait-freedom under a stalled collector, trace/counter agreement at
//! quiescence, and the disarmed path.

use concord_core::trace::{EventKind, TraceSummary};
use concord_core::{Runtime, RuntimeConfig, SpinApp};
use concord_net::ring::ring;
use concord_net::{Collector, LoadGen, Request, Response, RttModel};
use concord_workloads::dist::Dist;
use concord_workloads::mix::{ClassSpec, Mix};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

fn fixed_us_mix(us: f64) -> Mix {
    Mix::new(
        format!("Fixed({us})"),
        vec![ClassSpec::new("req", 1.0, Dist::fixed_us(us))],
    )
}

/// Drives `count` requests through a runtime built from `cfg`, quiesces,
/// and returns the still-queryable runtime plus its collector.
fn drive(cfg: RuntimeConfig, count: u64, rate_rps: f64, us: f64) -> (Runtime, Collector) {
    let (req_tx, req_rx) = ring::<Request>(8192);
    let (resp_tx, resp_rx) = ring::<Response>(8192);
    let mut rt = Runtime::start(cfg, Arc::new(SpinApp::new()), req_rx, resp_tx);
    let gen = LoadGen::start(req_tx, fixed_us_mix(us), rate_rps, count, 42);
    let mut collector = Collector::new(resp_rx, RttModel::zero(), 42);
    let ok = collector.collect(count, Duration::from_secs(120));
    let report = gen.join();
    assert_eq!(report.dropped, 0, "RX ring overflowed");
    assert!(ok, "timed out: {}/{count} responses", collector.received());
    rt.quiesce();
    (rt, collector)
}

/// The acceptance scenario: the collector never drains (injected stall on
/// every scheduled drain) and the per-track rings are tiny. Workers must
/// keep completing requests at full speed — emits drop and count, they
/// never block.
#[test]
fn stalled_collector_never_blocks_workers() {
    let inj = Arc::new(concord_core::FaultInjector::new());
    inj.stall_trace_drains(u64::MAX);
    let cfg = RuntimeConfig::builder()
        .small_test()
        .quantum(Duration::from_millis(1))
        .trace_ring_cap(16)
        .fault_injector(inj.clone())
        .build()
        .expect("valid config");
    let (rt, collector) = drive(cfg, 300, 5_000.0, 200.0);
    let stats = rt.stats();
    assert_eq!(collector.received(), 300, "every request still completes");
    assert_eq!(stats.completed(), 300);
    // 300 requests × ≥2 events per track against 16-slot rings that were
    // never drained mid-run: overflow must have been taken as drops.
    assert!(
        stats.trace_dropped.load(Ordering::Relaxed) > 0,
        "tiny ring + stalled collector must overflow (drop-and-count)"
    );
    assert!(
        inj.trace_drains_stalled() > 0,
        "the injector actually intercepted scheduled drains"
    );
    // The quiesce-time sweep bypasses the injector, so the trace holds
    // whatever fit in the rings — a truncated but well-formed trace.
    let trace = rt.take_trace().expect("tracer armed");
    let summary = TraceSummary::from_trace(&trace);
    assert_eq!(summary.monotone_violations, 0);
}

/// With an amply-sized ring the trace must agree exactly with the shared
/// counters: one ARRIVE per ingested request, one COMPLETE per finished
/// request, one DISPATCH per dispatch, one SIGNAL_SENT per signal, and a
/// matched SIGNAL_SENT→YIELD pair per consumed signal.
#[test]
fn quiescent_trace_agrees_with_counters() {
    let cfg = RuntimeConfig::builder()
        .small_test()
        .quantum(Duration::from_millis(1))
        .build()
        .expect("valid config");
    let (rt, _collector) = drive(cfg, 200, 2_000.0, 3_000.0);
    let stats = rt.stats();
    assert_eq!(stats.trace_dropped.load(Ordering::Relaxed), 0);
    let trace = rt.take_trace().expect("tracer armed");
    let summary = TraceSummary::from_trace(&trace);
    assert_eq!(
        summary.monotone_violations, 0,
        "per-track timestamps sorted"
    );
    assert_eq!(summary.negative_occupancy, 0);
    assert_eq!(
        summary.count(EventKind::Arrive),
        stats.ingested.load(Ordering::Relaxed)
    );
    assert_eq!(
        summary.count(EventKind::Dispatch),
        stats.dispatched.load(Ordering::Relaxed)
    );
    assert_eq!(
        summary.count(EventKind::SignalSent),
        stats.signals_sent.load(Ordering::Relaxed)
    );
    assert_eq!(
        summary.count(EventKind::Complete),
        stats.completed() + stats.failed.load(Ordering::Relaxed)
    );
    assert_eq!(
        summary.worker_yields,
        stats.preemptions.load(Ordering::Relaxed)
    );
    let acct = rt.signal_accounting();
    assert_eq!(
        summary.matched_preemptions, acct.consumed,
        "every consumed signal pairs with exactly one yield"
    );
    // JBSQ ≤ k, re-derived from events alone.
    for (w, &occ) in summary.max_occupancy.iter().enumerate() {
        assert!(occ <= 2, "worker {w} occupancy {occ} exceeds JBSQ k=2");
    }
    // Signal-to-yield latency histogram is populated iff preemptions ran.
    if acct.consumed > 0 {
        assert_eq!(summary.signal_to_yield.len(), summary.matched_preemptions);
    }
}

/// The trace-derived signal→yield latency must agree with the runtime's
/// own telemetry histogram (fed from the same stamps through a different
/// path: trace events vs. the Requeue message).
#[test]
fn trace_latency_agrees_with_telemetry() {
    let cfg = RuntimeConfig::builder()
        .small_test()
        .quantum(Duration::from_millis(1))
        .build()
        .expect("valid config");
    let (rt, _collector) = drive(cfg, 30, 200.0, 20_000.0);
    let telemetry = rt.telemetry();
    assert!(
        telemetry.preemptions_recorded() > 0,
        "20ms requests at a 1ms quantum must preempt"
    );
    let trace = rt.take_trace().expect("tracer armed");
    let summary = TraceSummary::from_trace(&trace);
    assert!(summary.matched_preemptions > 0);
    // Same population (no drops), so the p99s must be close. The trace
    // measures sent→yield from event stamps; telemetry measures the same
    // interval computed worker-side. Allow generous slack for the few
    // samples where an extra signal landed between stamp and yield.
    let trace_p99 = summary.signal_to_yield.percentile(99.0);
    let telem_p99 = telemetry.preemption_p99_ns();
    let hi = trace_p99.max(telem_p99) as f64;
    let lo = trace_p99.min(telem_p99) as f64;
    assert!(
        hi <= lo * 100.0 + 50_000_000.0,
        "trace p99 {trace_p99}ns vs telemetry p99 {telem_p99}ns disagree"
    );
}

/// Disarming the tracer at runtime: no lanes, no collector, `take_trace`
/// returns `None`, and nothing is counted dropped.
#[test]
fn disarmed_tracer_is_absent() {
    let cfg = RuntimeConfig::builder()
        .small_test()
        .trace(false)
        .build()
        .expect("valid config");
    let (rt, collector) = drive(cfg, 100, 5_000.0, 20.0);
    assert_eq!(collector.received(), 100);
    assert!(rt.take_trace().is_none(), "disarmed tracer yields no trace");
    assert_eq!(rt.stats().trace_dropped.load(Ordering::Relaxed), 0);
}
