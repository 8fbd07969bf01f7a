//! Packed 16-byte scheduling events and the merged trace they form.

/// What happened. Discriminants are stable: they are part of the binary
/// trace format ([`crate::binary`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// A request entered the dispatcher's central queue. `id` = request
    /// id, `gen` = the request's nominal service time in *microseconds*
    /// (16-bit field; µs rather than ns so realistic sizes fit) — what
    /// the per-policy replay oracles reconstruct priorities from;
    /// emitted on the dispatcher track.
    Arrive = 0,
    /// A request was pushed onto a worker's JBSQ ring. `id` = request
    /// id, `gen` = target worker index; dispatcher track.
    Dispatch = 1,
    /// The dispatcher stored a preemption signal to a worker's cache
    /// line. `id` = target worker index, `gen` = slice generation
    /// (truncated to 16 bits); dispatcher track.
    SignalSent = 2,
    /// A worker's probe consumed a signal for its current generation.
    /// `id` = request id, `gen` = slice generation; worker track.
    SignalSeen = 3,
    /// A slice ended by preemption. `id` = request id, `gen` = slice
    /// generation; emitting track ran the slice.
    Yield = 4,
    /// A slice started running. `id` = request id, `gen` = slice
    /// generation (0 on the dispatcher's self-preempting slices);
    /// emitting track runs the slice.
    Resume = 5,
    /// The work-conserving dispatcher stole a queued request.
    /// `id` = request id, `gen` = 0 (central queue); dispatcher track.
    Steal = 6,
    /// A request finished (completed or failed). `id` = request id,
    /// `gen` = total slice count; emitting track ran the last slice.
    Complete = 7,
    /// A response was dropped on the TX path. `id` = request id;
    /// dispatcher track.
    TxDrop = 8,
    /// The admission gate shed a request before ingest (dropped or
    /// rejected under overload). `id` = request id, `gen` = service
    /// class; dispatcher track.
    AdmitDrop = 9,
}

/// Number of distinct event kinds (for per-kind count arrays).
pub const N_KINDS: usize = 10;

impl EventKind {
    /// All kinds, in discriminant order.
    pub const ALL: [EventKind; N_KINDS] = [
        EventKind::Arrive,
        EventKind::Dispatch,
        EventKind::SignalSent,
        EventKind::SignalSeen,
        EventKind::Yield,
        EventKind::Resume,
        EventKind::Steal,
        EventKind::Complete,
        EventKind::TxDrop,
        EventKind::AdmitDrop,
    ];

    /// Decodes a discriminant; `None` if out of range.
    pub fn from_u8(v: u8) -> Option<EventKind> {
        EventKind::ALL.get(v as usize).copied()
    }

    /// Short uppercase name as used in exports and summaries.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Arrive => "ARRIVE",
            EventKind::Dispatch => "DISPATCH",
            EventKind::SignalSent => "SIGNAL_SENT",
            EventKind::SignalSeen => "SIGNAL_SEEN",
            EventKind::Yield => "YIELD",
            EventKind::Resume => "RESUME",
            EventKind::Steal => "STEAL",
            EventKind::Complete => "COMPLETE",
            EventKind::TxDrop => "TX_DROP",
            EventKind::AdmitDrop => "ADMIT_DROP",
        }
    }
}

const KIND_SHIFT: u32 = 56;
const GEN_SHIFT: u32 = 40;
const GEN_FIELD_MASK: u64 = 0xFFFF;
const ID_FIELD_MASK: u64 = (1 << GEN_SHIFT) - 1;

/// One packed scheduling event: 16 bytes, `Copy`, cheap to ring-buffer.
///
/// Layout of `packed` (most-significant first): 8 bits kind, 16 bits
/// generation, 40 bits id. Request ids above 2^40 and generations above
/// 2^16 wrap; the consumers that match generations ([`crate::derive`])
/// only ever compare short-lived pairs, so truncation is harmless.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Timestamp in nanoseconds on the runtime's `Clock`.
    pub ts_ns: u64,
    /// Kind, generation, and id packed into one word (see type docs).
    pub packed: u64,
}

impl TraceEvent {
    /// Packs an event. `id` and `gen` are truncated to 40/16 bits.
    pub fn new(ts_ns: u64, kind: EventKind, id: u64, gen: u64) -> TraceEvent {
        let packed = ((kind as u64) << KIND_SHIFT)
            | ((gen & GEN_FIELD_MASK) << GEN_SHIFT)
            | (id & ID_FIELD_MASK);
        TraceEvent { ts_ns, packed }
    }

    /// The event kind. Panics only on a corrupt record (unknown
    /// discriminant), which [`crate::binary::read`] already rejects.
    pub fn kind(self) -> EventKind {
        EventKind::from_u8((self.packed >> KIND_SHIFT) as u8).expect("corrupt trace event kind")
    }

    /// The 40-bit id field (request id or worker index, per kind).
    pub fn id(self) -> u64 {
        self.packed & ID_FIELD_MASK
    }

    /// The 16-bit generation field.
    pub fn gen(self) -> u64 {
        (self.packed >> GEN_SHIFT) & GEN_FIELD_MASK
    }
}

/// Bits of the track word holding the lane (worker/dispatcher index);
/// the shard id occupies the bits above when per-shard traces are
/// merged ([`merge_shard_traces`]).
pub const TRACK_LANE_BITS: u32 = 16;

/// Packs a shard id and a lane index into one track word:
/// `track = shard << 16 | lane`. An unmerged (single-shard) trace uses
/// bare lane indices, which is the same word with `shard == 0`.
pub fn pack_track(shard: u32, lane: u32) -> u32 {
    (shard << TRACK_LANE_BITS) | (lane & 0xFFFF)
}

/// The shard id packed into a track word (0 on unmerged traces).
pub fn shard_of(track: u32) -> u32 {
    track >> TRACK_LANE_BITS
}

/// The lane (worker index, or `n_workers` for the dispatcher) of a
/// track word.
pub fn lane_of(track: u32) -> u32 {
    track & 0xFFFF
}

/// Merges per-shard traces into one, re-tagging each record's track
/// word with its shard id (`track = shard << 16 | lane`, shard = the
/// trace's index in `traces`). All shards must have the same worker
/// count; the merged trace keeps that per-shard `n_workers`, so
/// [`Trace::dispatcher_track`] remains the per-shard dispatcher *lane*.
/// Use [`shard_of`]/[`lane_of`] to split records back out;
/// [`crate::derive::TraceSummary`] reads a merged trace shard by shard.
pub fn merge_shard_traces(traces: Vec<Trace>) -> Trace {
    let n_workers = traces.first().map_or(0, |t| t.n_workers);
    let mut merged = Trace::new(n_workers);
    for (shard, t) in traces.into_iter().enumerate() {
        debug_assert_eq!(t.n_workers, n_workers, "uniform shard shape");
        for r in t.records {
            merged.record(pack_track(shard as u32, r.track), r.ev);
        }
    }
    merged
}

/// An event tagged with the track (lane) that emitted it. Tracks
/// `0..n_workers` are workers; track `n_workers` is the dispatcher.
/// In a merged multi-shard trace the shard id occupies the track word's
/// high bits (see [`pack_track`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Emitting track index.
    pub track: u32,
    /// The event.
    pub ev: TraceEvent,
}

/// A merged trace: every drained event, in per-track emission order.
///
/// Records are *not* globally sorted — each track's subsequence is in
/// the order the producer emitted it (the SPSC rings are FIFO), which is
/// exactly what per-track monotonicity checks must see. Use
/// [`Trace::sorted`] for a timestamp-ordered view.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Worker count of the run that produced this trace; the dispatcher
    /// is track `n_workers`.
    pub n_workers: usize,
    /// All drained records, per-track FIFO.
    pub records: Vec<TraceRecord>,
}

impl Trace {
    /// An empty trace for a run with `n_workers` workers.
    pub fn new(n_workers: usize) -> Trace {
        Trace {
            n_workers,
            records: Vec::new(),
        }
    }

    /// Appends one record.
    pub fn record(&mut self, track: u32, ev: TraceEvent) {
        self.records.push(TraceRecord { track, ev });
    }

    /// The dispatcher's track index.
    pub fn dispatcher_track(&self) -> u32 {
        self.n_workers as u32
    }

    /// Number of shards the trace spans: one past the highest shard id
    /// in any track word, 1 for an unmerged or empty trace.
    pub fn n_shards(&self) -> usize {
        self.records
            .iter()
            .map(|r| shard_of(r.track) as usize + 1)
            .max()
            .unwrap_or(1)
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// A timestamp-ordered copy of the records. The sort is stable, so
    /// same-timestamp events keep their per-track emission order.
    pub fn sorted(&self) -> Vec<TraceRecord> {
        let mut v = self.records.clone();
        v.sort_by_key(|r| r.ev.ts_ns);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_roundtrip_all_kinds() {
        for kind in EventKind::ALL {
            let ev = TraceEvent::new(123, kind, 0x12_3456_789A, 0xBEEF);
            assert_eq!(ev.kind(), kind);
            assert_eq!(ev.id(), 0x12_3456_789A);
            assert_eq!(ev.gen(), 0xBEEF);
            assert_eq!(ev.ts_ns, 123);
        }
    }

    #[test]
    fn pack_truncates_wide_fields() {
        let ev = TraceEvent::new(1, EventKind::Yield, u64::MAX, u64::MAX);
        assert_eq!(ev.id(), (1 << 40) - 1);
        assert_eq!(ev.gen(), 0xFFFF);
        assert_eq!(ev.kind(), EventKind::Yield);
    }

    #[test]
    fn event_is_16_bytes() {
        assert_eq!(std::mem::size_of::<TraceEvent>(), 16);
    }

    #[test]
    fn sorted_is_stable_by_timestamp() {
        let mut t = Trace::new(2);
        t.record(1, TraceEvent::new(30, EventKind::Yield, 1, 0));
        t.record(0, TraceEvent::new(10, EventKind::Resume, 2, 0));
        t.record(1, TraceEvent::new(10, EventKind::Resume, 3, 0));
        let s = t.sorted();
        assert_eq!(s[0].ev.id(), 2);
        assert_eq!(s[1].ev.id(), 3); // same ts: emission order kept
        assert_eq!(s[2].ev.id(), 1);
        assert_eq!(t.dispatcher_track(), 2);
    }
}
