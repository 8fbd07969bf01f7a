//! `TraceSummary` reads any shard count, and a one-shard trace is its
//! case of one shard: on random one-shard traces it must give exactly
//! what the one-shard derivation below (keyed by bare track, as the
//! summary was before it read shard ids) gives, for every field the
//! benchmark's traced pass reads.

use concord_metrics::Histogram;
use concord_testkit::prelude::*;
use concord_trace::event::N_KINDS;
use concord_trace::{EventKind, Trace, TraceEvent, TraceSummary};
use std::collections::HashMap;

/// The one-shard derivation: tracks `0..n_workers` are workers,
/// `n_workers` the dispatcher, anything above a stray lane.
struct OneShard {
    counts: [u64; N_KINDS],
    monotone_violations: u64,
    signal_to_yield: Histogram,
    matched_preemptions: u64,
    unmatched_signals: u64,
    unmatched_yields: u64,
    max_occupancy: Vec<u32>,
    dispatcher_busy_ns: u64,
    span_ns: u64,
}

fn one_shard(trace: &Trace) -> OneShard {
    let n = trace.n_workers;
    let dispatcher = trace.dispatcher_track();
    let mut counts = [0u64; N_KINDS];
    let mut monotone_violations = 0;
    let mut last_ts = vec![0u64; n + 2];
    let (mut min_ts, mut max_ts) = (u64::MAX, 0u64);
    for r in &trace.records {
        counts[r.ev.kind() as usize] += 1;
        let slot = (r.track as usize).min(n + 1);
        if r.ev.ts_ns < last_ts[slot] {
            monotone_violations += 1;
        }
        last_ts[slot] = r.ev.ts_ns;
        min_ts = min_ts.min(r.ev.ts_ns);
        max_ts = max_ts.max(r.ev.ts_ns);
    }

    let mut signal_to_yield = Histogram::new(3);
    let mut pending: HashMap<(u32, u64), u64> = HashMap::new();
    let (mut matched_preemptions, mut unmatched_yields) = (0, 0);
    let mut dispatcher_busy_ns = 0;
    let mut open: Option<u64> = None;
    for r in &trace.sorted() {
        let on_dispatcher = r.track == dispatcher;
        match r.ev.kind() {
            EventKind::SignalSent if on_dispatcher => {
                pending.insert((r.ev.id() as u32, r.ev.gen()), r.ev.ts_ns);
            }
            EventKind::Yield if !on_dispatcher => {
                if let Some(sent) = pending.remove(&(r.track, r.ev.gen())) {
                    matched_preemptions += 1;
                    signal_to_yield.record(r.ev.ts_ns.saturating_sub(sent).max(1));
                } else {
                    unmatched_yields += 1;
                }
            }
            EventKind::Resume if on_dispatcher => open = Some(r.ev.ts_ns),
            EventKind::Yield | EventKind::Complete if on_dispatcher => {
                if let Some(start) = open.take() {
                    dispatcher_busy_ns += r.ev.ts_ns.saturating_sub(start);
                }
            }
            _ => {}
        }
    }

    let mut deltas: Vec<Vec<(u64, i32)>> = vec![Vec::new(); n];
    for r in &trace.records {
        match r.ev.kind() {
            EventKind::Dispatch if r.track == dispatcher => {
                if let Some(d) = deltas.get_mut(r.ev.gen() as usize) {
                    d.push((r.ev.ts_ns, 1));
                }
            }
            EventKind::Yield | EventKind::Complete if (r.track as usize) < n => {
                deltas[r.track as usize].push((r.ev.ts_ns, -1));
            }
            _ => {}
        }
    }
    let max_occupancy = deltas
        .iter_mut()
        .map(|d| {
            d.sort_by_key(|&(ts, delta)| (ts, delta));
            let (mut depth, mut max) = (0i64, 0u32);
            for &(_, delta) in d.iter() {
                depth = (depth + i64::from(delta)).max(0);
                max = max.max(depth as u32);
            }
            max
        })
        .collect();

    OneShard {
        counts,
        monotone_violations,
        signal_to_yield,
        matched_preemptions,
        unmatched_signals: pending.len() as u64,
        unmatched_yields,
        max_occupancy,
        dispatcher_busy_ns,
        span_ns: max_ts.saturating_sub(min_ts),
    }
}

proptest! {
    #[test]
    fn one_shard_traces_summarize_as_before(
        n_workers in 1usize..4,
        records in prop::collection::vec(
            ((0u32..6, 0u64..400), (0usize..N_KINDS, 0u64..6, 0u64..4)),
            0..120,
        ),
    ) {
        let mut trace = Trace::new(n_workers);
        for &((track, ts), (kind, id, gen)) in &records {
            trace.record(track, TraceEvent::new(ts, EventKind::ALL[kind], id, gen));
        }
        let want = one_shard(&trace);
        let got = TraceSummary::from_trace(&trace);
        prop_assert_eq!(got.n_shards, 1);
        prop_assert_eq!(got.n_workers, n_workers);
        prop_assert_eq!(got.counts, want.counts);
        prop_assert_eq!(got.monotone_violations, want.monotone_violations);
        prop_assert_eq!(
            format!("{:?}", got.signal_to_yield),
            format!("{:?}", want.signal_to_yield)
        );
        prop_assert_eq!(got.matched_preemptions, want.matched_preemptions);
        prop_assert_eq!(got.unmatched_signals, want.unmatched_signals);
        prop_assert_eq!(got.unmatched_yields, want.unmatched_yields);
        prop_assert_eq!(&got.max_occupancy, &want.max_occupancy);
        prop_assert_eq!(got.dispatcher_busy_ns, want.dispatcher_busy_ns);
        prop_assert_eq!(got.span_ns, want.span_ns);
        let overhead = if want.span_ns == 0 {
            0.0
        } else {
            want.dispatcher_busy_ns as f64 / want.span_ns as f64
        };
        prop_assert_eq!(got.overhead_d(), overhead);
    }
}
