//! Emit hot-path smoke bound and end-to-end format roundtrips.

use concord_trace::{
    binary, perfetto, write_path, EventKind, TraceCollector, TraceEvent, TraceSummary,
};
use std::time::Instant;

/// The emit path must stay in wait-free territory: a push onto a
/// pre-sized SPSC ring. The threshold is deliberately generous (1µs per
/// event on shared CI hardware, amortized) — the precise budget lives in
/// `bench_substrates`'s trace group; this is the "someone added a syscall
/// to the hot path" tripwire.
#[test]
fn emit_hot_path_smoke_threshold() {
    const N: u64 = 100_000;
    let (mut col, mut lanes) = TraceCollector::new(1, N as usize * 2);
    let lane = &mut lanes[0];
    let start = Instant::now();
    for i in 0..N {
        lane.emit(TraceEvent::new(i, EventKind::Yield, i, i));
    }
    let elapsed = start.elapsed();
    assert_eq!(col.drain(), N as usize);
    let per_event_ns = elapsed.as_nanos() as f64 / N as f64;
    assert!(
        per_event_ns < 1_000.0,
        "emit took {per_event_ns:.0}ns/event — hot path regressed"
    );
}

#[test]
fn binary_then_summary_roundtrip() {
    let (mut col, mut lanes) = TraceCollector::new(2, 1024);
    let d = 2; // dispatcher lane index
    for i in 0..10u64 {
        lanes[d].emit(TraceEvent::new(i * 100, EventKind::Arrive, i, 0));
        lanes[d].emit(TraceEvent::new(i * 100 + 10, EventKind::Dispatch, i, i % 2));
        let w = (i % 2) as usize;
        lanes[w].emit(TraceEvent::new(i * 100 + 20, EventKind::Resume, i, 1));
        lanes[w].emit(TraceEvent::new(i * 100 + 50, EventKind::Complete, i, 1));
    }
    let trace = col.take_trace();

    let mut buf = Vec::new();
    binary::write(&trace, &mut buf).unwrap();
    let back = binary::read(&mut buf.as_slice()).unwrap();
    assert_eq!(back.records, trace.records);

    let summary = TraceSummary::from_trace(&back);
    assert_eq!(summary.count(EventKind::Arrive), 10);
    assert_eq!(summary.count(EventKind::Complete), 10);
    assert_eq!(summary.monotone_violations, 0);
    assert_eq!(summary.max_occupancy, vec![1, 1]);
    assert!(summary.check(Some(2)).is_empty());

    let json = perfetto::to_json(&back);
    assert!(json.contains("\"traceEvents\""));
    assert_eq!(json.matches("\"ph\":\"X\"").count(), 10);
}

/// `write_path` picks Perfetto JSON for a `.json` path and the binary
/// format for anything else.
#[test]
fn write_path_chooses_the_format_by_extension() {
    let (mut col, mut lanes) = TraceCollector::new(1, 16);
    lanes[1].emit(TraceEvent::new(5, EventKind::Arrive, 1, 0));
    let trace = col.take_trace();
    let dir = std::env::temp_dir();
    let json = dir.join(format!("concord-write-path-{}.json", std::process::id()));
    let bin = dir.join(format!("concord-write-path-{}.ctrc", std::process::id()));

    write_path(&trace, &json).unwrap();
    assert_eq!(
        std::fs::read_to_string(&json).unwrap(),
        perfetto::to_json(&trace)
    );
    write_path(&trace, &bin).unwrap();
    assert_eq!(binary::read_file(&bin).unwrap().records, trace.records);

    std::fs::remove_file(json).unwrap();
    std::fs::remove_file(bin).unwrap();
}
