//! Emit hot-path smoke bound and end-to-end format roundtrips.

use concord_obs::json::Json;
use concord_trace::{
    binary, merge_shard_traces, perfetto, write_path, EventKind, Trace, TraceCollector, TraceEvent,
    TraceSummary,
};
use std::collections::HashMap;
use std::time::Instant;

/// The Perfetto document recorded for [`sample`] when the exporter
/// wrote trace events through string templates, timestamps as `{:.3}`.
const SAMPLE_JSON: &str = r#"{"traceEvents":[
{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"concord"}},
{"ph":"M","pid":1,"tid":0,"name":"thread_name","args":{"name":"worker 0"}},
{"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"dispatcher"}},
{"ph":"X","pid":1,"tid":0,"ts":0.300,"dur":0.110,"name":"req 7","cat":"slice","args":{"gen":1,"end":"YIELD"}},
{"ph":"X","pid":1,"tid":0,"ts":0.430,"dur":0.070,"name":"req 7","cat":"slice","args":{"gen":2,"end":"COMPLETE"}},
{"ph":"i","pid":1,"tid":1,"ts":0.100,"s":"t","name":"ARRIVE","cat":"event","args":{"id":7,"gen":0}},
{"ph":"i","pid":1,"tid":1,"ts":0.200,"s":"t","name":"DISPATCH","cat":"event","args":{"id":7,"gen":0}},
{"ph":"i","pid":1,"tid":1,"ts":0.350,"s":"t","name":"SIGNAL_SENT","cat":"event","args":{"id":0,"gen":1}},
{"ph":"i","pid":1,"tid":0,"ts":0.400,"s":"t","name":"SIGNAL_SEEN","cat":"event","args":{"id":7,"gen":1}},
{"ph":"i","pid":1,"tid":1,"ts":0.420,"s":"t","name":"DISPATCH","cat":"event","args":{"id":7,"gen":0}},
{"ph":"C","pid":1,"tid":0,"ts":0.200,"name":"jbsq depth w0","args":{"depth":1}},
{"ph":"C","pid":1,"tid":0,"ts":0.410,"name":"jbsq depth w0","args":{"depth":0}},
{"ph":"C","pid":1,"tid":0,"ts":0.420,"name":"jbsq depth w0","args":{"depth":1}},
{"ph":"C","pid":1,"tid":0,"ts":0.500,"name":"jbsq depth w0","args":{"depth":0}}
],"displayTimeUnit":"ns"}"#;

/// The same recording for the two-shard merge of [`sample`].
const MERGED_JSON: &str = r#"{"traceEvents":[
{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"concord"}},
{"ph":"M","pid":1,"tid":0,"name":"thread_name","args":{"name":"worker 0"}},
{"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"dispatcher"}},
{"ph":"M","pid":1,"tid":65536,"name":"thread_name","args":{"name":"s1 worker 0"}},
{"ph":"M","pid":1,"tid":65537,"name":"thread_name","args":{"name":"s1 dispatcher"}},
{"ph":"X","pid":1,"tid":0,"ts":0.300,"dur":0.110,"name":"req 7","cat":"slice","args":{"gen":1,"end":"YIELD"}},
{"ph":"X","pid":1,"tid":65536,"ts":0.300,"dur":0.110,"name":"req 7","cat":"slice","args":{"gen":1,"end":"YIELD"}},
{"ph":"X","pid":1,"tid":0,"ts":0.430,"dur":0.070,"name":"req 7","cat":"slice","args":{"gen":2,"end":"COMPLETE"}},
{"ph":"X","pid":1,"tid":65536,"ts":0.430,"dur":0.070,"name":"req 7","cat":"slice","args":{"gen":2,"end":"COMPLETE"}},
{"ph":"i","pid":1,"tid":1,"ts":0.100,"s":"t","name":"ARRIVE","cat":"event","args":{"id":7,"gen":0}},
{"ph":"i","pid":1,"tid":65537,"ts":0.100,"s":"t","name":"ARRIVE","cat":"event","args":{"id":7,"gen":0}},
{"ph":"i","pid":1,"tid":1,"ts":0.200,"s":"t","name":"DISPATCH","cat":"event","args":{"id":7,"gen":0}},
{"ph":"i","pid":1,"tid":65537,"ts":0.200,"s":"t","name":"DISPATCH","cat":"event","args":{"id":7,"gen":0}},
{"ph":"i","pid":1,"tid":1,"ts":0.350,"s":"t","name":"SIGNAL_SENT","cat":"event","args":{"id":0,"gen":1}},
{"ph":"i","pid":1,"tid":65537,"ts":0.350,"s":"t","name":"SIGNAL_SENT","cat":"event","args":{"id":0,"gen":1}},
{"ph":"i","pid":1,"tid":0,"ts":0.400,"s":"t","name":"SIGNAL_SEEN","cat":"event","args":{"id":7,"gen":1}},
{"ph":"i","pid":1,"tid":65536,"ts":0.400,"s":"t","name":"SIGNAL_SEEN","cat":"event","args":{"id":7,"gen":1}},
{"ph":"i","pid":1,"tid":1,"ts":0.420,"s":"t","name":"DISPATCH","cat":"event","args":{"id":7,"gen":0}},
{"ph":"i","pid":1,"tid":65537,"ts":0.420,"s":"t","name":"DISPATCH","cat":"event","args":{"id":7,"gen":0}},
{"ph":"C","pid":1,"tid":0,"ts":0.200,"name":"jbsq depth w0","args":{"depth":1}},
{"ph":"C","pid":1,"tid":0,"ts":0.410,"name":"jbsq depth w0","args":{"depth":0}},
{"ph":"C","pid":1,"tid":0,"ts":0.420,"name":"jbsq depth w0","args":{"depth":1}},
{"ph":"C","pid":1,"tid":0,"ts":0.500,"name":"jbsq depth w0","args":{"depth":0}},
{"ph":"C","pid":1,"tid":65536,"ts":0.200,"name":"jbsq depth s1 w0","args":{"depth":1}},
{"ph":"C","pid":1,"tid":65536,"ts":0.410,"name":"jbsq depth s1 w0","args":{"depth":0}},
{"ph":"C","pid":1,"tid":65536,"ts":0.420,"name":"jbsq depth s1 w0","args":{"depth":1}},
{"ph":"C","pid":1,"tid":65536,"ts":0.500,"name":"jbsq depth s1 w0","args":{"depth":0}}
],"displayTimeUnit":"ns"}"#;

/// One request preempted once: two slices, instants on both tracks and
/// a JBSQ depth series.
fn sample() -> Trace {
    let mut t = Trace::new(1);
    let d = t.dispatcher_track();
    t.record(d, TraceEvent::new(100, EventKind::Arrive, 7, 0));
    t.record(d, TraceEvent::new(200, EventKind::Dispatch, 7, 0));
    t.record(0, TraceEvent::new(300, EventKind::Resume, 7, 1));
    t.record(d, TraceEvent::new(350, EventKind::SignalSent, 0, 1));
    t.record(0, TraceEvent::new(400, EventKind::SignalSeen, 7, 1));
    t.record(0, TraceEvent::new(410, EventKind::Yield, 7, 1));
    t.record(d, TraceEvent::new(420, EventKind::Dispatch, 7, 0));
    t.record(0, TraceEvent::new(430, EventKind::Resume, 7, 2));
    t.record(0, TraceEvent::new(500, EventKind::Complete, 7, 2));
    t
}

/// The trace-event invariants a viewer relies on: every event has `ph`
/// and `pid`; `ts` never falls within one (`tid`, `ph`) stream of
/// slices, instants or counters; no slice has a negative `dur`.
fn assert_viewable(doc: &Json) {
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let mut last: HashMap<(u64, String), f64> = HashMap::new();
    for e in events {
        let ph = e.get("ph").and_then(Json::as_str).expect("ph");
        assert!(e.get("pid").is_some(), "no pid: {e:?}");
        if !matches!(ph, "X" | "i" | "C") {
            continue;
        }
        let tid = e.get("tid").and_then(Json::as_u64).expect("tid");
        let ts = e.get("ts").and_then(Json::as_f64).expect("ts");
        let prev = last.insert((tid, ph.to_string()), ts).unwrap_or(0.0);
        assert!(ts >= prev, "ts regression in ({tid}, {ph}): {prev} -> {ts}");
        if ph == "X" {
            assert!(e.get("dur").and_then(Json::as_f64).expect("dur") >= 0.0);
        }
    }
}

/// The exporter writes the same documents it always has: equal as
/// parsed JSON, field order included (`0.300` and `0.3` parse equal).
#[test]
fn perfetto_export_matches_the_recorded_documents() {
    let merged = merge_shard_traces(vec![sample(), sample()]);
    for (trace, recorded) in [(sample(), SAMPLE_JSON), (merged, MERGED_JSON)] {
        let doc = Json::parse(&perfetto::to_json(&trace)).expect("export parses");
        assert_eq!(doc, Json::parse(recorded).expect("recording parses"));
        assert_viewable(&doc);
    }
}

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
    assert_viewable(&Json::parse(&json).expect("export parses"));
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
