//! Always-on scheduling-event tracer for the Concord runtime.
//!
//! The paper's central claims are *event-timing* claims — a ≈2-cycle
//! probe, a ≈150-cycle read-after-write preemption signal, the ≈400-cycle
//! `c_next` stall JBSQ(k) hides — so aggregate histograms are not enough
//! to explain an individual p99.9 outlier. This crate provides the
//! missing layer:
//!
//! - [`TraceEvent`]: a packed 16-byte record (timestamp, event kind,
//!   request id, generation).
//! - [`TraceLane`] / [`TraceCollector`]: one wait-free SPSC ring per
//!   worker plus one for the dispatcher; emit never blocks, overflow is
//!   drop-and-count, and a collector drains lanes on a periodic tick or
//!   at quiesce.
//! - [`Trace`]: the merged event stream in emission order, with
//!   [`Trace::sorted`] for timestamp order.
//! - [`perfetto`]: Chrome/Perfetto trace-event JSON export, written
//!   through `concord_obs::json`, the workspace's one JSON writer.
//! - [`binary`]: a compact binary format (`CTRC`) for archival and the
//!   `concord-trace` analyzer binary. [`write_path`] picks one of the
//!   two by file extension.
//! - [`TraceSummary`]: trace-derived observables — the signal-to-yield
//!   preemption-latency histogram, per-worker queue-depth timelines, the
//!   dispatcher work-conservation gauge (`Overhead_d`), inter-shard
//!   steals — plus [`TraceSummary::check`], which re-derives JBSQ ≤ k
//!   and signal-fate accounting *from events alone*. It reads any shard
//!   count: a merged trace is keyed by (shard, lane), a one-shard trace
//!   is the case of one shard.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binary;
pub mod collector;
pub mod derive;
pub mod event;
pub mod perfetto;

pub use collector::{TraceCollector, TraceLane};
pub use derive::{split_shards, TraceSummary};
pub use event::{
    lane_of, merge_shard_traces, pack_track, shard_of, EventKind, Trace, TraceEvent, TraceRecord,
};

/// Writes `trace` to `path`: Perfetto trace-event JSON when the path ends
/// in `.json`, the compact binary format otherwise.
pub fn write_path(trace: &Trace, path: &std::path::Path) -> std::io::Result<()> {
    if path.extension().is_some_and(|e| e == "json") {
        perfetto::write_json(trace, path)
    } else {
        binary::write_file(trace, path)
    }
}
