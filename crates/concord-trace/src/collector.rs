//! Wait-free per-track event lanes and the collector that drains them.

use crate::event::{Trace, TraceEvent};
use concord_net::ring::{ring, Consumer, Producer};

/// The producer half of one track's event ring. Owned by exactly one
/// thread (its worker, or the dispatcher).
pub struct TraceLane {
    track: u32,
    prod: Producer<TraceEvent>,
}

impl TraceLane {
    /// The track index this lane emits on.
    pub fn track(&self) -> u32 {
        self.track
    }

    /// Emits one event. Wait-free: a single bounded push, never a spin.
    /// Returns `false` when the ring is full — the caller counts the
    /// drop (`trace_dropped`) and moves on; a stalled collector must
    /// never block a worker.
    #[inline]
    pub fn emit(&mut self, ev: TraceEvent) -> bool {
        self.prod.push(ev).is_ok()
    }
}

/// In flight-recorder mode ([`TraceCollector::set_retain_window_ns`]),
/// compaction triggers when the merged trace grows past this many
/// records beyond what the last compaction kept, so the amortized cost
/// stays O(1) per record and memory stays bounded by the retain window
/// (plus this slack).
const COMPACT_SLACK: usize = 64 * 1024;

/// Drains every lane's ring into one merged [`Trace`].
///
/// The collector lives on the control side (the `Runtime` owns it); the
/// dispatcher ticks [`TraceCollector::drain`] periodically and once more
/// at quiesce, so ring capacity only has to cover one tick's worth of
/// events. With a retain window set it doubles as a flight recorder:
/// lanes keep rolling, old records age out, and
/// [`TraceCollector::snapshot_window`] exports the last N seconds
/// without pausing anything.
pub struct TraceCollector {
    lanes: Vec<(u32, Consumer<TraceEvent>)>,
    trace: Trace,
    scratch: Vec<TraceEvent>,
    /// Flight-recorder retain window: when set, records older than
    /// `newest_ts - retain_ns` are discarded at compaction, turning the
    /// merged trace into a continuous overwrite ring over wall time.
    retain_ns: Option<u64>,
    /// Newest event timestamp drained so far (compaction cutoff anchor).
    newest_ts: u64,
    /// Record count above which the next drain compacts.
    compact_at: usize,
    /// Records discarded by flight-recorder compaction (not drops — they
    /// were observed, then aged out of the window).
    aged_out: u64,
}

impl TraceCollector {
    /// Builds a collector plus its producer lanes: one per worker
    /// (tracks `0..n_workers`, in order) followed by the dispatcher lane
    /// (track `n_workers`). Each ring holds `ring_cap` events (rounded
    /// up to a power of two by the ring).
    pub fn new(n_workers: usize, ring_cap: usize) -> (TraceCollector, Vec<TraceLane>) {
        let mut lanes = Vec::with_capacity(n_workers + 1);
        let mut consumers = Vec::with_capacity(n_workers + 1);
        for track in 0..=n_workers as u32 {
            let (prod, cons) = ring::<TraceEvent>(ring_cap.max(1));
            lanes.push(TraceLane { track, prod });
            consumers.push((track, cons));
        }
        let collector = TraceCollector {
            lanes: consumers,
            trace: Trace::new(n_workers),
            scratch: Vec::with_capacity(256),
            retain_ns: None,
            newest_ts: 0,
            compact_at: COMPACT_SLACK,
            aged_out: 0,
        };
        (collector, lanes)
    }

    /// Switches the collector into flight-recorder mode: the merged
    /// trace keeps only the last `retain_ns` nanoseconds of events
    /// (relative to the newest drained timestamp), discarding older
    /// records at periodic compactions. `None` restores unbounded
    /// accumulation. The emit path is unaffected either way — lanes
    /// stay wait-free; only the collector's retention policy changes.
    pub fn set_retain_window_ns(&mut self, retain_ns: Option<u64>) {
        self.retain_ns = retain_ns;
        if retain_ns.is_some() {
            self.compact();
        }
    }

    /// Records discarded by flight-recorder compaction so far.
    pub fn aged_out(&self) -> u64 {
        self.aged_out
    }

    fn compact(&mut self) {
        let Some(retain) = self.retain_ns else {
            return;
        };
        let cutoff = self.newest_ts.saturating_sub(retain);
        let before = self.trace.records.len();
        self.trace.records.retain(|r| r.ev.ts_ns >= cutoff);
        self.aged_out += (before - self.trace.records.len()) as u64;
        self.compact_at = self.trace.records.len() + COMPACT_SLACK;
    }

    /// Drains every lane into the merged trace, preserving each track's
    /// emission order. Returns the number of events drained.
    pub fn drain(&mut self) -> usize {
        let mut total = 0;
        for (track, cons) in &mut self.lanes {
            loop {
                self.scratch.clear();
                let n = cons.pop_batch(&mut self.scratch, 1024);
                if n == 0 {
                    break;
                }
                total += n;
                for ev in self.scratch.drain(..) {
                    if ev.ts_ns > self.newest_ts {
                        self.newest_ts = ev.ts_ns;
                    }
                    self.trace.record(*track, ev);
                }
            }
        }
        if self.retain_ns.is_some() && self.trace.records.len() >= self.compact_at {
            self.compact();
        }
        total
    }

    /// Freezes the flight recorder for export: drains the lanes, then
    /// returns a copy of the retained window *without* consuming the
    /// collector's state (the recorder keeps rolling). With no retain
    /// window set this is simply a copy of everything drained so far.
    ///
    /// The caller holds the collector's lock only for the duration of
    /// the drain + copy; emit lanes never block on it.
    pub fn snapshot_window(&mut self) -> Trace {
        self.drain();
        self.compact();
        self.trace.clone()
    }

    /// Events accumulated so far (after the last [`drain`](Self::drain)).
    pub fn len(&self) -> usize {
        self.trace.len()
    }

    /// Whether no events have been drained yet.
    pub fn is_empty(&self) -> bool {
        self.trace.is_empty()
    }

    /// Final drain, then hand the merged trace out, leaving the
    /// collector empty (but reusable).
    pub fn take_trace(&mut self) -> Trace {
        self.drain();
        let n = self.trace.n_workers;
        std::mem::replace(&mut self.trace, Trace::new(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    #[test]
    fn drain_preserves_per_track_fifo() {
        let (mut col, mut lanes) = TraceCollector::new(2, 64);
        assert_eq!(lanes.len(), 3);
        assert_eq!(lanes[2].track(), 2); // dispatcher last
        for i in 0..5u64 {
            assert!(lanes[0].emit(TraceEvent::new(100 + i, EventKind::Resume, i, 0)));
            assert!(lanes[2].emit(TraceEvent::new(200 + i, EventKind::Arrive, i, 0)));
        }
        assert_eq!(col.drain(), 10);
        let trace = col.take_trace();
        let w0: Vec<u64> = trace
            .records
            .iter()
            .filter(|r| r.track == 0)
            .map(|r| r.ev.ts_ns)
            .collect();
        assert_eq!(w0, vec![100, 101, 102, 103, 104]);
    }

    #[test]
    fn overflow_drops_instead_of_blocking() {
        let (mut col, mut lanes) = TraceCollector::new(1, 4);
        let mut accepted = 0;
        for i in 0..100u64 {
            if lanes[0].emit(TraceEvent::new(i, EventKind::Yield, i, 0)) {
                accepted += 1;
            }
        }
        assert!(accepted < 100, "a 4-slot ring cannot absorb 100 events");
        assert_eq!(col.drain(), accepted);
    }

    #[test]
    fn retain_window_ages_out_old_records() {
        let (mut col, mut lanes) = TraceCollector::new(1, 1024);
        col.set_retain_window_ns(Some(1_000));
        for i in 0..100u64 {
            lanes[0].emit(TraceEvent::new(i * 100, EventKind::Resume, i, 0));
        }
        col.drain();
        let snap = col.snapshot_window();
        // Newest ts is 9_900; everything older than 8_900 is gone.
        assert!(snap.records.iter().all(|r| r.ev.ts_ns >= 8_900), "window");
        assert!(!snap.is_empty());
        assert!(col.aged_out() > 0);
        // The recorder keeps rolling after a snapshot.
        lanes[0].emit(TraceEvent::new(20_000, EventKind::Complete, 1, 0));
        let snap2 = col.snapshot_window();
        assert!(snap2.records.iter().any(|r| r.ev.ts_ns == 20_000));
        assert!(snap2.records.iter().all(|r| r.ev.ts_ns >= 19_000));
    }

    #[test]
    fn snapshot_window_without_retention_copies_everything() {
        let (mut col, mut lanes) = TraceCollector::new(1, 64);
        lanes[0].emit(TraceEvent::new(5, EventKind::Arrive, 1, 0));
        lanes[1].emit(TraceEvent::new(6, EventKind::Dispatch, 1, 0));
        let snap = col.snapshot_window();
        assert_eq!(snap.len(), 2);
        assert_eq!(col.len(), 2, "snapshot does not consume");
        // take_trace still hands out the same records afterwards.
        assert_eq!(col.take_trace().len(), 2);
    }

    #[test]
    fn compaction_bounds_memory_under_sustained_load() {
        let (mut col, mut lanes) = TraceCollector::new(0, 512);
        col.set_retain_window_ns(Some(100));
        let mut ts = 0u64;
        for _ in 0..2_000 {
            for _ in 0..256 {
                ts += 1_000; // every event instantly ages out predecessors
                lanes[0].emit(TraceEvent::new(ts, EventKind::Arrive, 1, 0));
            }
            col.drain();
        }
        assert!(
            col.len() <= super::COMPACT_SLACK + 512,
            "retained {} records, window should bound this",
            col.len()
        );
        assert!(col.aged_out() > 100_000);
    }

    #[test]
    fn take_trace_leaves_collector_reusable() {
        let (mut col, mut lanes) = TraceCollector::new(1, 8);
        lanes[0].emit(TraceEvent::new(1, EventKind::Arrive, 1, 0));
        let t = col.take_trace();
        assert_eq!(t.len(), 1);
        assert_eq!(t.n_workers, 1);
        lanes[1].emit(TraceEvent::new(2, EventKind::Arrive, 2, 0));
        let t2 = col.take_trace();
        assert_eq!(t2.len(), 1);
        assert_eq!(t2.records[0].track, 1);
    }
}
