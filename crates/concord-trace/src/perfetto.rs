//! Chrome/Perfetto trace-event JSON export.
//!
//! Each trace event is a [`Json`] value rendered straight into the one
//! output string (`concord_obs::json`, the workspace's JSON writer), so
//! export memory is that string and no tree of the whole trace is
//! built. Output loads in `chrome://tracing` and
//! [ui.perfetto.dev](https://ui.perfetto.dev).
//!
//! Mapping:
//! - each track becomes a thread (`tid` = track, named `worker N` or
//!   `dispatcher`) in process 1 (`concord`);
//! - `RESUME`→`YIELD`/`COMPLETE` pairs become `"X"` complete slices
//!   named `req N`;
//! - `ARRIVE`, `DISPATCH`, `SIGNAL_SENT`, `SIGNAL_SEEN`, `STEAL`,
//!   `TX_DROP` become `"i"` instants on their track;
//! - per-worker JBSQ occupancy becomes a `"C"` counter series
//!   (`jbsq depth wN`), derived as in [`crate::derive`].

use crate::event::{lane_of, pack_track, shard_of, EventKind, Trace};
use concord_obs::json::Json;
use std::collections::{BTreeSet, HashMap};
use std::io;
use std::path::Path;

/// A trace-event timestamp or duration: microseconds, from nanoseconds.
fn us(ns: u64) -> Json {
    Json::Num(ns as f64 / 1e3)
}

fn text(s: impl Into<String>) -> Json {
    Json::Str(s.into())
}

/// Appends one event to the `traceEvents` array being written: phase,
/// process and thread, then `rest`.
fn emit(out: &mut String, ph: &str, tid: u32, rest: Vec<(&str, Json)>) {
    let mut fields = vec![
        ("ph", text(ph)),
        ("pid", Json::U64(1)),
        ("tid", Json::U64(tid.into())),
    ];
    fields.extend(rest);
    if !out.ends_with('[') {
        out.push(',');
    }
    out.push('\n');
    Json::obj(fields).render_into(out);
}

fn track_name(trace: &Trace, track: u32) -> String {
    // Merged multi-shard traces pack `shard << 16 | lane`; a plain
    // trace is the shard-0 special case of the same layout.
    let (shard, lane) = (shard_of(track), lane_of(track));
    let base = if lane == trace.dispatcher_track() {
        "dispatcher".to_string()
    } else {
        format!("worker {lane}")
    };
    if shard == 0 {
        base
    } else {
        format!("s{shard} {base}")
    }
}

/// Renders the trace as a trace-event JSON document.
pub fn to_json(trace: &Trace) -> String {
    let mut out = String::with_capacity(128 + trace.len() * 96);
    out.push_str(r#"{"traceEvents":["#);

    // Metadata: one process, one named thread per track.
    let meta = |what: &str, name: String| {
        vec![
            ("name", text(what)),
            ("args", Json::obj(vec![("name", text(name))])),
        ]
    };
    emit(&mut out, "M", 0, meta("process_name", "concord".into()));
    // Shard 0's full lane set always gets a name; merged traces add
    // whatever packed tracks actually emitted records.
    let mut tracks: BTreeSet<u32> = (0..=trace.dispatcher_track()).collect();
    tracks.extend(trace.records.iter().map(|r| r.track));
    for track in tracks {
        emit(
            &mut out,
            "M",
            track,
            meta("thread_name", track_name(trace, track)),
        );
    }

    let sorted = trace.sorted();

    // Slices: RESUME opens, YIELD/COMPLETE closes, per track. Keyed by
    // the raw track word so merged multi-shard traces (sparse, packed
    // track ids) work the same as plain ones.
    let mut open: HashMap<u32, (u64, u64, u64)> = HashMap::new(); // track -> (ts, id, gen)
    for r in &sorted {
        match r.ev.kind() {
            EventKind::Resume => {
                open.insert(r.track, (r.ev.ts_ns, r.ev.id(), r.ev.gen()));
            }
            EventKind::Yield | EventKind::Complete => {
                if let Some((start, id, gen)) = open.remove(&r.track) {
                    let args = vec![("gen", Json::U64(gen)), ("end", text(r.ev.kind().name()))];
                    let slice = vec![
                        ("ts", us(start)),
                        ("dur", us(r.ev.ts_ns.saturating_sub(start))),
                        ("name", text(format!("req {id}"))),
                        ("cat", text("slice")),
                        ("args", Json::obj(args)),
                    ];
                    emit(&mut out, "X", r.track, slice);
                }
            }
            _ => {}
        }
    }

    // Instants.
    for r in &sorted {
        let kind = r.ev.kind();
        let show = matches!(
            kind,
            EventKind::Arrive
                | EventKind::Dispatch
                | EventKind::SignalSent
                | EventKind::SignalSeen
                | EventKind::Steal
                | EventKind::TxDrop
                | EventKind::AdmitDrop
        );
        if show {
            let args = vec![("id", Json::U64(r.ev.id())), ("gen", Json::U64(r.ev.gen()))];
            let instant = vec![
                ("ts", us(r.ev.ts_ns)),
                ("s", text("t")),
                ("name", text(kind.name())),
                ("cat", text("event")),
                ("args", Json::obj(args)),
            ];
            emit(&mut out, "i", r.track, instant);
        }
    }

    // Per-worker JBSQ occupancy counters, shard-major, so a merged
    // multi-shard trace gets a series per (shard, worker) lane.
    for (i, timeline) in crate::derive::queue_depth_timelines(trace)
        .iter()
        .enumerate()
    {
        let (shard, w) = (i / trace.n_workers, i % trace.n_workers);
        let tid = pack_track(shard as u32, w as u32);
        let label = if shard == 0 {
            format!("jbsq depth w{w}")
        } else {
            format!("jbsq depth s{shard} w{w}")
        };
        for &(ts, depth) in timeline {
            let args = Json::obj(vec![("depth", Json::U64(depth.into()))]);
            let counter = vec![("ts", us(ts)), ("name", text(&*label)), ("args", args)];
            emit(&mut out, "C", tid, counter);
        }
    }

    out.push_str("\n]");
    out.push_str(r#","displayTimeUnit":"ns"}"#);
    out.push('\n');
    out
}

/// Writes [`to_json`] output to `path`.
pub fn write_json(trace: &Trace, path: &Path) -> io::Result<()> {
    std::fs::write(path, to_json(trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;

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

    #[test]
    fn json_has_slices_instants_and_counters() {
        let json = to_json(&sample());
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"req 7\""));
        assert!(json.contains("\"SIGNAL_SENT\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"displayTimeUnit\":\"ns\""));
        // Two slices: 300..410 (yield) and 430..500 (complete).
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
    }

    #[test]
    fn empty_trace_is_valid_json_scaffold() {
        let json = to_json(&Trace::new(2));
        // Metadata only: process name + 3 thread names.
        assert_eq!(json.matches("\"ph\":\"M\"").count(), 4);
        assert!(json.contains("\"dispatcher\""));
    }

    #[test]
    fn merged_multi_shard_trace_exports_without_panicking() {
        use crate::event::merge_shard_traces;
        let merged = merge_shard_traces(vec![sample(), sample()]);
        let json = to_json(&merged);
        // Shard 1's tracks are named with an s1 prefix; its slices land
        // on packed tids (1 << 16 | lane).
        assert!(json.contains("\"s1 dispatcher\""));
        assert!(json.contains("\"s1 worker 0\""));
        assert!(json.contains(&format!("\"tid\":{}", 1u32 << 16)));
        // Both shards' slices survive: 2 per shard.
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 4);
        assert!(json.contains("\"jbsq depth s1 w0\""));
    }
}
