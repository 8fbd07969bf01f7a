//! Trace-derived observables: the quantities the paper argues about,
//! recomputed from raw events alone so they can cross-validate the
//! runtime's counters.

use crate::event::{lane_of, shard_of, EventKind, Trace, N_KINDS};
use concord_metrics::Histogram;
use std::collections::HashMap;

/// Splits a merged multi-shard trace (tracks packed as
/// `shard << 16 | lane` by [`crate::event::merge_shard_traces`]) back
/// into per-shard traces with plain lane tracks. A single-shard trace
/// comes back as one element, unchanged. Per-track emission order is
/// preserved, so per-shard monotonicity checks remain valid.
pub fn split_shards(merged: &Trace) -> Vec<Trace> {
    let mut shards: Vec<Trace> = (0..merged.n_shards())
        .map(|_| Trace::new(merged.n_workers))
        .collect();
    for r in &merged.records {
        shards[shard_of(r.track) as usize].record(lane_of(r.track), r.ev);
    }
    shards
}

/// Per-worker JBSQ occupancy timelines derived from a trace: for each
/// worker, the `(ts_ns, depth)` points where occupancy changed. Workers
/// are shard-major (index `shard × n_workers + worker`), so a one-shard
/// trace yields one timeline per worker.
///
/// Occupancy is `+1` at each `DISPATCH` targeting the worker and `-1` at
/// each `YIELD`/`COMPLETE` on the worker's own track (a preempted slice
/// leaves the worker's ring for the central queue; a completed one
/// leaves the system). At equal timestamps decrements are applied first,
/// so coarse clocks cannot manufacture phantom overshoot.
pub fn queue_depth_timelines(trace: &Trace) -> Vec<Vec<(u64, u32)>> {
    let deltas = occupancy_deltas(trace);
    deltas
        .into_iter()
        .map(|worker_deltas| {
            let mut depth: i64 = 0;
            worker_deltas
                .into_iter()
                .map(|(ts, d)| {
                    depth += i64::from(d);
                    (ts, depth.max(0) as u32)
                })
                .collect()
        })
        .collect()
}

/// Shard-major per-worker `(ts, ±1)` occupancy deltas, tie-broken
/// decrement-first. A `DISPATCH` counts toward a worker of the
/// dispatcher's own shard.
fn occupancy_deltas(trace: &Trace) -> Vec<Vec<(u64, i32)>> {
    let n = trace.n_workers;
    let mut deltas: Vec<Vec<(u64, i32)>> = vec![Vec::new(); trace.n_shards() * n];
    for r in &trace.records {
        let lane = lane_of(r.track) as usize;
        let (worker, d) = match r.ev.kind() {
            EventKind::Dispatch if lane == n => (r.ev.gen() as usize, 1),
            EventKind::Yield | EventKind::Complete if lane < n => (lane, -1),
            _ => continue,
        };
        if worker < n {
            deltas[shard_of(r.track) as usize * n + worker].push((r.ev.ts_ns, d));
        }
    }
    for d in &mut deltas {
        d.sort_by_key(|&(ts, delta)| (ts, delta));
    }
    deltas
}

/// Everything [`TraceSummary::from_trace`] derives from a raw trace.
///
/// A merged multi-shard trace ([`crate::event::merge_shard_traces`]) is
/// read shard by shard: each record's shard comes from its track word,
/// and every per-track, per-dispatcher and per-worker derivation is
/// keyed by (shard, lane). A one-shard trace is the case `n_shards == 1`.
#[derive(Clone, Debug)]
pub struct TraceSummary {
    /// Worker count of each shard of the traced run.
    pub n_workers: usize,
    /// Shards seen in the trace (1 for an unmerged trace).
    pub n_shards: usize,
    /// Per-kind event counts, indexed by `EventKind as usize`.
    pub counts: [u64; N_KINDS],
    /// Timestamps that ran backwards *in emission order* on some track.
    /// Emission order is the order the producer pushed, so this checks
    /// the producer's clock, not the collector's merge.
    pub monotone_violations: u64,
    /// SIGNAL_SENT → YIELD latency per matched (shard, worker,
    /// generation) pair, in nanoseconds.
    pub signal_to_yield: Histogram,
    /// Signal/yield pairs matched by (shard, worker, generation): a
    /// dispatcher signals only workers of its own shard.
    pub matched_preemptions: u64,
    /// Signals that never matched a yield (obsolete or stale fates).
    pub unmatched_signals: u64,
    /// Worker yields with no signal on record (trace drops, or a
    /// same-timestamp inversion under a coarse virtual clock).
    pub unmatched_yields: u64,
    /// YIELD events on worker tracks.
    pub worker_yields: u64,
    /// YIELD events on dispatcher tracks (self-preempting slices).
    pub dispatcher_yields: u64,
    /// Per-worker maximum derived JBSQ occupancy, shard-major (index
    /// `shard × n_workers + worker`).
    pub max_occupancy: Vec<u32>,
    /// Occupancy decrements that would have gone below zero (indicates
    /// trace drops or a corrupt trace).
    pub negative_occupancy: u64,
    /// Per-worker `(ts_ns, depth)` occupancy timelines, shard-major.
    pub queue_depth: Vec<Vec<(u64, u32)>>,
    /// Nanoseconds the dispatchers spent running application slices
    /// (RESUME→YIELD/COMPLETE on a dispatcher's own track), summed over
    /// shards.
    pub dispatcher_busy_ns: u64,
    /// Wall span of the trace (last − first timestamp).
    pub span_ns: u64,
    /// Per thief shard: inter-shard steals it executed. An inter-shard
    /// steal is a `STEAL` with `gen > 0` on a dispatcher track (the
    /// thief records `gen = 1 + victim`); the work-conserving
    /// dispatcher's own central-queue steals keep `gen = 0`.
    pub steals_by_thief: Vec<u64>,
    /// Per victim shard: inter-shard steals taken from it (a victim id
    /// at or past the shard count indicates a corrupt trace and is
    /// dropped).
    pub steals_from_victim: Vec<u64>,
}

impl TraceSummary {
    /// Derives every observable from a trace.
    pub fn from_trace(trace: &Trace) -> TraceSummary {
        let n = trace.n_workers;
        let n_shards = trace.n_shards();
        let dispatcher = n as u32;
        let mut counts = [0u64; N_KINDS];
        let mut monotone_violations = 0u64;
        // One slot per worker, the dispatcher and one for stray lanes,
        // per shard.
        let mut last_ts: Vec<u64> = vec![0; n_shards * (n + 2)];
        let mut min_ts = u64::MAX;
        let mut max_ts = 0u64;
        for r in &trace.records {
            counts[r.ev.kind() as usize] += 1;
            let lane = (lane_of(r.track) as usize).min(n + 1);
            let slot = shard_of(r.track) as usize * (n + 2) + lane;
            if r.ev.ts_ns < last_ts[slot] {
                monotone_violations += 1;
            }
            last_ts[slot] = r.ev.ts_ns;
            min_ts = min_ts.min(r.ev.ts_ns);
            max_ts = max_ts.max(r.ev.ts_ns);
        }
        let span_ns = max_ts.saturating_sub(min_ts);

        // Signal → yield matching per (shard, worker, 16-bit generation).
        let mut signal_to_yield = Histogram::new(3);
        let mut pending: HashMap<(u32, u32, u64), u64> = HashMap::new();
        let mut matched_preemptions = 0u64;
        let mut unmatched_yields = 0u64;
        let mut worker_yields = 0u64;
        let mut dispatcher_yields = 0u64;
        let mut dispatcher_busy_ns = 0u64;
        let mut open_disp: Vec<Option<u64>> = vec![None; n_shards];
        let mut steals_by_thief = vec![0u64; n_shards];
        let mut steals_from_victim = vec![0u64; n_shards];
        for r in &trace.sorted() {
            let (shard, lane) = (shard_of(r.track), lane_of(r.track));
            let on_dispatcher = lane == dispatcher;
            match r.ev.kind() {
                EventKind::SignalSent if on_dispatcher => {
                    pending.insert((shard, r.ev.id() as u32, r.ev.gen()), r.ev.ts_ns);
                }
                EventKind::Yield if !on_dispatcher => {
                    worker_yields += 1;
                    if let Some(sent) = pending.remove(&(shard, lane, r.ev.gen())) {
                        matched_preemptions += 1;
                        signal_to_yield.record(r.ev.ts_ns.saturating_sub(sent).max(1));
                    } else {
                        unmatched_yields += 1;
                    }
                }
                EventKind::Resume if on_dispatcher => {
                    open_disp[shard as usize] = Some(r.ev.ts_ns);
                }
                // A dispatcher YIELD closes its open slice, as a
                // COMPLETE does.
                EventKind::Yield | EventKind::Complete if on_dispatcher => {
                    if r.ev.kind() == EventKind::Yield {
                        dispatcher_yields += 1;
                    }
                    if let Some(start) = open_disp[shard as usize].take() {
                        dispatcher_busy_ns += r.ev.ts_ns.saturating_sub(start);
                    }
                }
                EventKind::Steal if on_dispatcher && r.ev.gen() > 0 => {
                    steals_by_thief[shard as usize] += 1;
                    let victim = (r.ev.gen() - 1) as usize;
                    if victim < n_shards {
                        steals_from_victim[victim] += 1;
                    }
                }
                _ => {}
            }
        }
        let unmatched_signals = pending.len() as u64;

        // Occupancy from the tie-broken delta streams.
        let deltas = occupancy_deltas(trace);
        let mut max_occupancy = vec![0u32; deltas.len()];
        let mut negative_occupancy = 0u64;
        for (w, worker_deltas) in deltas.iter().enumerate() {
            let mut depth: i64 = 0;
            for &(_, d) in worker_deltas {
                depth += i64::from(d);
                if depth < 0 {
                    negative_occupancy += 1;
                    depth = 0;
                }
                max_occupancy[w] = max_occupancy[w].max(depth as u32);
            }
        }

        TraceSummary {
            n_workers: n,
            n_shards,
            counts,
            monotone_violations,
            signal_to_yield,
            matched_preemptions,
            unmatched_signals,
            unmatched_yields,
            worker_yields,
            dispatcher_yields,
            max_occupancy,
            negative_occupancy,
            queue_depth: queue_depth_timelines(trace),
            dispatcher_busy_ns,
            span_ns,
            steals_by_thief,
            steals_from_victim,
        }
    }

    /// Count of one event kind.
    pub fn count(&self, kind: EventKind) -> u64 {
        self.counts[kind as usize]
    }

    /// Total inter-shard steals across all thieves.
    pub fn total_steals(&self) -> u64 {
        self.steals_by_thief.iter().sum()
    }

    /// Dispatcher work-conservation gauge `Overhead_d`: fraction of the
    /// trace span the dispatchers spent running stolen application work
    /// instead of scheduling, as the mean over the shards' dispatchers.
    pub fn overhead_d(&self) -> f64 {
        if self.span_ns == 0 {
            0.0
        } else {
            self.dispatcher_busy_ns as f64 / (self.n_shards as f64 * self.span_ns as f64)
        }
    }

    /// Re-checks the trace-visible invariants from events alone:
    /// per-track monotone timestamps, non-negative derived occupancy,
    /// and (when `jbsq_k` is given) derived occupancy ≤ k on every
    /// worker of every shard — a hand-off moves only never-started tasks
    /// between central queues, so it cannot excuse an overfull worker
    /// ring. Returns human-readable violations, empty when clean.
    pub fn check(&self, jbsq_k: Option<u32>) -> Vec<String> {
        let mut v = Vec::new();
        if self.monotone_violations > 0 {
            v.push(format!(
                "trace: {} timestamps ran backwards in emission order",
                self.monotone_violations
            ));
        }
        if self.negative_occupancy > 0 {
            v.push(format!(
                "trace: derived occupancy went negative {} times",
                self.negative_occupancy
            ));
        }
        if let Some(k) = jbsq_k {
            for (i, &occ) in self.max_occupancy.iter().enumerate() {
                if occ > k {
                    let (shard, w) = (i / self.n_workers, i % self.n_workers);
                    v.push(format!(
                        "trace: shard {shard} worker {w} derived occupancy {occ} > k={k}"
                    ));
                }
            }
        }
        v
    }

    /// Human-readable summary, one observable per line.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "trace: {} events over {:.3} ms on {} shard(s) of {} workers + dispatcher\n",
            self.counts.iter().sum::<u64>(),
            self.span_ns as f64 / 1e6,
            self.n_shards,
            self.n_workers
        ));
        for kind in EventKind::ALL {
            s.push_str(&format!("  {:<12} {}\n", kind.name(), self.count(kind)));
        }
        s.push_str(&format!(
            "  yields: {} worker, {} dispatcher (self-preempt)\n",
            self.worker_yields, self.dispatcher_yields
        ));
        s.push_str(&format!(
            "  signal->yield: {} matched, {} unmatched signals, {} unmatched yields\n",
            self.matched_preemptions, self.unmatched_signals, self.unmatched_yields
        ));
        if !self.signal_to_yield.is_empty() {
            s.push_str(&format!(
                "  signal->yield latency: p50 {:.1}us p99 {:.1}us p99.9 {:.1}us\n",
                self.signal_to_yield.percentile(50.0) as f64 / 1e3,
                self.signal_to_yield.percentile(99.0) as f64 / 1e3,
                self.signal_to_yield.percentile(99.9) as f64 / 1e3,
            ));
        }
        s.push_str(&format!(
            "  max occupancy per worker (shard-major): {:?}\n",
            self.max_occupancy
        ));
        s.push_str(&format!(
            "  inter-shard steals: {:?} by thief, {:?} from victim\n",
            self.steals_by_thief, self.steals_from_victim
        ));
        s.push_str(&format!(
            "  dispatcher app time (Overhead_d): {:.2}% of span\n",
            100.0 * self.overhead_d()
        ));
        if self.monotone_violations > 0 || self.negative_occupancy > 0 {
            s.push_str(&format!(
                "  WARNING: {} monotone violations, {} negative-occupancy events\n",
                self.monotone_violations, self.negative_occupancy
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;

    /// One request dispatched to worker 0, preempted once, re-dispatched,
    /// completed; one request stolen and completed by the dispatcher.
    fn sample() -> Trace {
        let mut t = Trace::new(2);
        let d = t.dispatcher_track();
        t.record(d, TraceEvent::new(100, EventKind::Arrive, 1, 0));
        t.record(d, TraceEvent::new(110, EventKind::Dispatch, 1, 0));
        t.record(0, TraceEvent::new(120, EventKind::Resume, 1, 1));
        t.record(d, TraceEvent::new(150, EventKind::SignalSent, 0, 1));
        t.record(0, TraceEvent::new(160, EventKind::SignalSeen, 1, 1));
        t.record(0, TraceEvent::new(165, EventKind::Yield, 1, 1));
        t.record(d, TraceEvent::new(170, EventKind::Dispatch, 1, 0));
        t.record(0, TraceEvent::new(175, EventKind::Resume, 1, 2));
        t.record(0, TraceEvent::new(200, EventKind::Complete, 1, 2));
        t.record(d, TraceEvent::new(180, EventKind::Arrive, 2, 0));
        t.record(d, TraceEvent::new(185, EventKind::Steal, 2, 0));
        t.record(d, TraceEvent::new(190, EventKind::Resume, 2, 0));
        t.record(d, TraceEvent::new(220, EventKind::Complete, 2, 0));
        t
    }

    #[test]
    fn derives_signal_to_yield_latency() {
        let s = TraceSummary::from_trace(&sample());
        assert_eq!(s.matched_preemptions, 1);
        assert_eq!(s.unmatched_signals, 0);
        assert_eq!(s.unmatched_yields, 0);
        assert_eq!(s.worker_yields, 1);
        assert_eq!(s.signal_to_yield.len(), 1);
        // 165 - 150 = 15ns.
        assert_eq!(s.signal_to_yield.max(), 15);
    }

    #[test]
    fn derives_occupancy_and_overhead() {
        let s = TraceSummary::from_trace(&sample());
        assert_eq!(s.max_occupancy, vec![1, 0]);
        assert_eq!(s.negative_occupancy, 0);
        // Dispatcher ran the stolen request 190..220.
        assert_eq!(s.dispatcher_busy_ns, 30);
        assert_eq!(s.span_ns, 120);
        assert!(s.overhead_d() > 0.0);
        assert!(s.check(Some(2)).is_empty(), "{:?}", s.check(Some(2)));
    }

    #[test]
    fn occupancy_bound_violation_is_reported() {
        let mut t = Trace::new(1);
        let d = t.dispatcher_track();
        for i in 0..3u64 {
            t.record(d, TraceEvent::new(100 + i, EventKind::Dispatch, i, 0));
        }
        let s = TraceSummary::from_trace(&t);
        assert_eq!(s.max_occupancy, vec![3]);
        let v = s.check(Some(2));
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("occupancy 3 > k=2"));
    }

    #[test]
    fn monotone_violation_is_in_emission_order_not_merge_order() {
        let mut t = Trace::new(1);
        // Two tracks interleaved out of global order: fine.
        t.record(0, TraceEvent::new(100, EventKind::Resume, 1, 1));
        t.record(1, TraceEvent::new(50, EventKind::Arrive, 1, 0));
        assert_eq!(TraceSummary::from_trace(&t).monotone_violations, 0);
        // Same track running backwards: violation.
        t.record(0, TraceEvent::new(90, EventKind::Yield, 1, 1));
        let s = TraceSummary::from_trace(&t);
        assert_eq!(s.monotone_violations, 1);
        assert!(!s.check(None).is_empty());
    }

    #[test]
    fn decrement_first_tie_break_avoids_phantom_overshoot() {
        let mut t = Trace::new(1);
        let d = t.dispatcher_track();
        t.record(d, TraceEvent::new(100, EventKind::Dispatch, 1, 0));
        // Complete and re-dispatch at the same timestamp.
        t.record(0, TraceEvent::new(200, EventKind::Complete, 1, 1));
        t.record(d, TraceEvent::new(200, EventKind::Dispatch, 2, 0));
        let s = TraceSummary::from_trace(&t);
        assert_eq!(s.max_occupancy, vec![1]);
    }

    #[test]
    fn split_shards_round_trips_merge() {
        use crate::event::merge_shard_traces;
        let mut a = Trace::new(2);
        a.record(0, TraceEvent::new(10, EventKind::Resume, 1, 1));
        a.record(2, TraceEvent::new(20, EventKind::Arrive, 2, 0));
        let mut b = Trace::new(2);
        b.record(1, TraceEvent::new(15, EventKind::Resume, 3, 1));
        let merged = merge_shard_traces(vec![a.clone(), b.clone()]);
        let split = split_shards(&merged);
        assert_eq!(split.len(), 2);
        assert_eq!(split[0].records, a.records);
        assert_eq!(split[1].records, b.records);
        // A plain single-shard trace splits to itself.
        assert_eq!(split_shards(&a)[0].records, a.records);
    }

    #[test]
    fn summary_counts_inter_shard_steals_by_gen() {
        use crate::event::merge_shard_traces;
        let mut victim = Trace::new(1);
        let d = victim.dispatcher_track();
        victim.record(d, TraceEvent::new(100, EventKind::Arrive, 1, 0));
        // Work-conserving steal on shard 0: gen = 0, not inter-shard.
        victim.record(d, TraceEvent::new(110, EventKind::Steal, 1, 0));
        let mut thief = Trace::new(1);
        // Inter-shard steal by shard 1 from shard 0: gen = 1 + victim.
        thief.record(d, TraceEvent::new(120, EventKind::Steal, 2, 1));
        thief.record(d, TraceEvent::new(130, EventKind::Resume, 2, 0));
        thief.record(d, TraceEvent::new(150, EventKind::Complete, 2, 0));
        let merged = merge_shard_traces(vec![victim, thief]);
        let s = TraceSummary::from_trace(&merged);
        assert_eq!(s.n_shards, 2);
        assert_eq!(s.steals_by_thief, vec![0, 1]);
        assert_eq!(s.steals_from_victim, vec![1, 0]);
        assert_eq!(s.total_steals(), 1);
        assert_eq!(s.count(EventKind::Steal), 2);
        // Shard 1's dispatcher ran 130..150 of a 50 ns span; the mean
        // over both dispatchers is a fifth.
        assert_eq!(s.dispatcher_busy_ns, 20);
        assert!((s.overhead_d() - 0.2).abs() < 1e-12);
        assert!(s.check(Some(2)).is_empty(), "{:?}", s.check(Some(2)));
    }

    #[test]
    fn check_names_the_shard_and_worker() {
        use crate::event::merge_shard_traces;
        let clean = Trace::new(1);
        let mut bad = Trace::new(1);
        let d = bad.dispatcher_track();
        for i in 0..3u64 {
            bad.record(d, TraceEvent::new(100 + i, EventKind::Dispatch, i, 0));
        }
        let merged = merge_shard_traces(vec![clean, bad]);
        let v = TraceSummary::from_trace(&merged).check(Some(2));
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            v[0].contains("shard 1 worker 0 derived occupancy 3"),
            "{v:?}"
        );
    }

    /// Two identical one-worker shards, each holding one clean
    /// signal→yield pair: every derivation must stay inside its shard.
    #[test]
    fn a_merged_trace_is_summarized_shard_by_shard() {
        use crate::event::merge_shard_traces;
        let shard = || {
            let mut t = Trace::new(1);
            let d = t.dispatcher_track();
            t.record(d, TraceEvent::new(100, EventKind::Arrive, 1, 0));
            t.record(d, TraceEvent::new(110, EventKind::Dispatch, 1, 0));
            t.record(d, TraceEvent::new(130, EventKind::SignalSent, 0, 1));
            t.record(0, TraceEvent::new(120, EventKind::Resume, 1, 1));
            t.record(0, TraceEvent::new(140, EventKind::Yield, 1, 1));
            t
        };
        let s = TraceSummary::from_trace(&merge_shard_traces(vec![shard(), shard()]));
        assert_eq!(s.monotone_violations, 0);
        assert_eq!(s.matched_preemptions, 2);
        assert_eq!(s.unmatched_yields, 0);
        assert_eq!(s.max_occupancy, vec![1, 1]);
    }
}
