//! Request-lifecycle telemetry: per-request latency breakdowns without
//! slowing the hot path down.
//!
//! Every [`Task`] carries clock stamps (ingest,
//! first execution, per-slice busy time). When a request finishes, the
//! serving worker folds the stamps into a tiny [`CompletionRecord`] that
//! rides inside the completion message on the worker's own SPSC return
//! ring — a few nanoseconds, no locks, no allocation, no cache-line
//! sharing with other workers. Each dispatcher drain pass over those
//! rings folds its records (and the pass's preemption latencies) into a
//! [`LatencyBreakdown`] (HDR histograms for queueing delay, service time,
//! sojourn, plus the paper's slowdown metric) under one lock; requests
//! the dispatcher completes itself (§3.3 work conservation) are recorded
//! directly.
//!
//! Ordering guarantee: the dispatcher folds a pass's records *before*
//! emitting that pass's responses, so any response observable by the
//! collector is already in the aggregate — `Runtime::telemetry()` taken
//! after the last response arrives is exact.
//!
//! Each record carries its completion stamp, and the aggregate checks
//! that stamps are non-decreasing per source (worker or dispatcher) —
//! the monotone-timestamp oracle of the conformance suite. A regression
//! would mean the clock ran backwards or records were reordered inside
//! one source's ring, both of which the design rules out.

use crate::task::Task;
use concord_metrics::{Histogram, LatencyBreakdown, SlowdownTracker};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::sync::Mutex;
use std::time::Instant;

/// Worker index used for requests completed by the dispatcher itself.
pub const DISPATCHER: usize = usize::MAX;

/// Distinct request classes tracked with their own histograms. The wire
/// header's class field is client-controlled, so the map must not grow
/// unboundedly: once this many classes exist, further classes fold into
/// [`OTHER_CLASS`].
pub const MAX_TRACKED_CLASSES: usize = 32;

/// Catch-all class id for completions beyond [`MAX_TRACKED_CLASSES`].
pub const OTHER_CLASS: u16 = u16::MAX;

/// The per-request fact a worker reports on completion. Built from
/// stamps the task already carries.
#[derive(Clone, Copy, Debug)]
pub struct CompletionRecord {
    /// Ingest → first execution, nanoseconds.
    pub queue_ns: u64,
    /// Measured busy time (sum of slice durations), nanoseconds.
    pub service_ns: u64,
    /// Ingest → completion, nanoseconds (server-side sojourn).
    pub sojourn_ns: u64,
    /// Nominal un-instrumented service time (slowdown denominator).
    pub nominal_ns: u64,
    /// Clock reading at completion (monotonicity oracle input).
    pub completed_at_ns: u64,
    /// Slices this request ran (1 = never preempted).
    pub slices: u32,
    /// Serving worker index, or [`DISPATCHER`].
    pub worker: usize,
    /// Request class from the wire header's app/kind bits (per-class
    /// telemetry key).
    pub class: u16,
    /// True if the handler panicked (the request was answered with an
    /// error response).
    pub failed: bool,
}

impl CompletionRecord {
    /// Builds the record for a task that just finished on `worker`. The
    /// completion instant is the final slice's exit stamp — the one the
    /// response's `finished_at` and the COMPLETE trace event carry too.
    pub fn from_task(task: &Task, worker: usize, failed: bool) -> Self {
        let end_ns = task.last_slice_end_ns;
        Self {
            queue_ns: task.queue_delay_ns(),
            service_ns: task.busy_ns,
            sojourn_ns: end_ns.saturating_sub(task.ingested_at_ns),
            nominal_ns: task.req.service_ns,
            completed_at_ns: end_ns,
            slices: task.slices,
            worker,
            class: task.req.class,
            failed,
        }
    }
}

/// Per-class completion telemetry: the substrate a per-class SLO
/// controller (ROADMAP item 3) reads, and the source of the labeled
/// `/metrics` series.
#[derive(Clone, Debug)]
pub struct ClassTelemetry {
    /// Completions of this class (contained failures included).
    pub completed: u64,
    /// Contained-failure completions among them.
    pub failed: u64,
    /// Sojourn (ingest → completion) distribution, nanoseconds.
    pub sojourn: Histogram,
    /// Slowdown (sojourn / nominal service) distribution.
    pub slowdown: SlowdownTracker,
}

impl ClassTelemetry {
    fn new() -> Self {
        Self {
            completed: 0,
            failed: 0,
            sojourn: Histogram::new(3),
            slowdown: SlowdownTracker::new(),
        }
    }

    fn record(&mut self, r: &CompletionRecord) {
        self.completed += 1;
        if r.failed {
            self.failed += 1;
        }
        self.sojourn.record(r.sojourn_ns.max(1));
        self.slowdown.record(r.nominal_ns, r.sojourn_ns);
    }

    /// Merges another class aggregate (same class, different shard).
    pub fn merge(&mut self, other: &ClassTelemetry) {
        self.completed += other.completed;
        self.failed += other.failed;
        self.sojourn.merge(&other.sojourn);
        self.slowdown.merge(&other.slowdown);
    }
}

impl Default for ClassTelemetry {
    fn default() -> Self {
        Self::new()
    }
}

/// Aggregated lifecycle telemetry, owned by the dispatcher and shared
/// (behind a mutex the hot path never touches) with [`Runtime::telemetry`]
/// snapshots.
///
/// [`Runtime::telemetry`]: crate::Runtime::telemetry
#[derive(Debug)]
pub struct Telemetry {
    /// Queueing/service/sojourn/slowdown distributions of completions.
    pub breakdown: LatencyBreakdown,
    /// Requests recorded (completions + contained failures).
    pub recorded: u64,
    /// Contained-failure records among them.
    pub failures: u64,
    /// Completion records lost in transit. Structurally 0 — a record
    /// travels inside its completion message — and kept so reports and
    /// scrapers keep parsing.
    pub records_dropped: u64,
    /// Records whose completion stamp ran backwards relative to an
    /// earlier record from the same source (oracle tripwire; must be 0).
    pub timestamp_regressions: u64,
    /// Signal-store → yield latency of each preemption, nanoseconds —
    /// the paper's read-after-write signal-propagation claim (§3.1),
    /// measured on every preemption from stamps the signal path already
    /// takes. The trace-replay oracle cross-checks its p99 against the
    /// same quantity derived from SIGNAL_SENT/YIELD trace events.
    pub preemption_latency: Histogram,
    /// Per-class completion aggregates, keyed by the wire header's
    /// class field (at most [`MAX_TRACKED_CLASSES`] entries plus
    /// [`OTHER_CLASS`]).
    pub per_class: BTreeMap<u16, ClassTelemetry>,
    /// Latest completion stamp seen per source.
    last_completed_ns: HashMap<usize, u64>,
}

impl Telemetry {
    /// Creates an empty aggregate.
    pub fn new() -> Self {
        Self {
            breakdown: LatencyBreakdown::new(),
            recorded: 0,
            failures: 0,
            records_dropped: 0,
            timestamp_regressions: 0,
            preemption_latency: Histogram::new(3),
            per_class: BTreeMap::new(),
            last_completed_ns: HashMap::new(),
        }
    }

    /// Folds one completion record into the aggregate.
    pub fn record(&mut self, r: &CompletionRecord) {
        self.recorded += 1;
        if r.failed {
            self.failures += 1;
        }
        let last = self.last_completed_ns.entry(r.worker).or_insert(0);
        if r.completed_at_ns < *last {
            self.timestamp_regressions += 1;
        } else {
            *last = r.completed_at_ns;
        }
        self.breakdown
            .record(r.queue_ns, r.service_ns, r.sojourn_ns, r.nominal_ns);
        // Per-class aggregate, bounded against adversarial class churn:
        // classes beyond the cap share the OTHER_CLASS bucket. The fold
        // is a pure function of the class id (crate::quantum::fold_class)
        // — the old first-seen rule made the decision depend on arrival
        // order, so a class first seen mid-run could land in OTHER_CLASS
        // on one shard but own a slot on another, and scrape-time series
        // merged across shards didn't sum to the totals.
        self.per_class
            .entry(crate::quantum::fold_class(r.class))
            .or_default()
            .record(r);
    }

    /// Folds one preemption's signal-store → yield latency into the
    /// aggregate (the dispatcher calls this for each requeue it drained).
    pub fn record_preemption_latency(&mut self, latency_ns: u64) {
        self.preemption_latency.record(latency_ns.max(1));
    }

    /// Copies the current aggregate out as an immutable snapshot.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            breakdown: self.breakdown.clone(),
            recorded: self.recorded,
            failures: self.failures,
            records_dropped: self.records_dropped,
            timestamp_regressions: self.timestamp_regressions,
            preemption_latency: self.preemption_latency.clone(),
            per_class: self.per_class.clone(),
            taken_at: Instant::now(),
        }
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

/// Shared handle: the dispatcher records through it, snapshots read it.
pub type TelemetryHandle = Arc<Mutex<Telemetry>>;

/// A point-in-time copy of the runtime's lifecycle telemetry.
///
/// All durations are nanoseconds of *server-side* clock time: queueing is
/// ingest → first execution, service is measured busy time, sojourn is
/// ingest → completion. Slowdown divides sojourn by the request's nominal
/// service time (§5.1 of the paper).
#[derive(Clone, Debug)]
pub struct TelemetrySnapshot {
    /// The latency distributions.
    pub breakdown: LatencyBreakdown,
    /// Requests recorded (completions + contained failures).
    pub recorded: u64,
    /// Contained-failure records among them.
    pub failures: u64,
    /// Completion records lost in transit (structurally 0).
    pub records_dropped: u64,
    /// Per-source completion-stamp regressions observed (must be 0).
    pub timestamp_regressions: u64,
    /// Signal-store → yield latency distribution (nanoseconds), one
    /// sample per preemption.
    pub preemption_latency: Histogram,
    /// Per-class completion aggregates (see
    /// [`Telemetry`]'s `per_class`); carries the histograms themselves
    /// so multi-shard views can merge class-wise.
    pub per_class: BTreeMap<u16, ClassTelemetry>,
    /// When this snapshot was taken.
    pub taken_at: Instant,
}

impl TelemetrySnapshot {
    /// Folds another shard's snapshot into this one: the distributions
    /// and per-class rows merge, the counts add, and `taken_at` keeps the
    /// later of the two. Merging every shard's snapshot gives the
    /// snapshot of one aggregate fed every shard's records.
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        self.breakdown.merge(&other.breakdown);
        self.recorded += other.recorded;
        self.failures += other.failures;
        self.records_dropped += other.records_dropped;
        self.timestamp_regressions += other.timestamp_regressions;
        self.preemption_latency.merge(&other.preemption_latency);
        for (class, c) in &other.per_class {
            self.per_class.entry(*class).or_default().merge(c);
        }
        self.taken_at = self.taken_at.max(other.taken_at);
    }

    /// Median queueing delay, nanoseconds.
    pub fn queueing_p50_ns(&self) -> u64 {
        self.breakdown.queueing_ns(0.50)
    }

    /// 99th-percentile queueing delay, nanoseconds.
    pub fn queueing_p99_ns(&self) -> u64 {
        self.breakdown.queueing_ns(0.99)
    }

    /// 99.9th-percentile queueing delay, nanoseconds.
    pub fn queueing_p999_ns(&self) -> u64 {
        self.breakdown.queueing_ns(0.999)
    }

    /// Median measured service time, nanoseconds.
    pub fn service_p50_ns(&self) -> u64 {
        self.breakdown.service_ns(0.50)
    }

    /// 99th-percentile measured service time, nanoseconds.
    pub fn service_p99_ns(&self) -> u64 {
        self.breakdown.service_ns(0.99)
    }

    /// 99.9th-percentile measured service time, nanoseconds.
    pub fn service_p999_ns(&self) -> u64 {
        self.breakdown.service_ns(0.999)
    }

    /// Median slowdown.
    pub fn slowdown_p50(&self) -> f64 {
        self.breakdown.slowdown(0.50)
    }

    /// 99th-percentile slowdown.
    pub fn slowdown_p99(&self) -> f64 {
        self.breakdown.slowdown(0.99)
    }

    /// 99.9th-percentile slowdown — the paper's headline metric.
    pub fn slowdown_p999(&self) -> f64 {
        self.breakdown.slowdown(0.999)
    }

    /// Preemptions with a recorded signal-to-yield latency.
    pub fn preemptions_recorded(&self) -> u64 {
        self.preemption_latency.len()
    }

    /// Median signal-store → yield latency, nanoseconds (0 if no
    /// preemption happened).
    pub fn preemption_p50_ns(&self) -> u64 {
        self.preemption_latency.percentile(50.0)
    }

    /// 99th-percentile signal-store → yield latency, nanoseconds.
    pub fn preemption_p99_ns(&self) -> u64 {
        self.preemption_latency.percentile(99.0)
    }

    /// 99.9th-percentile signal-store → yield latency, nanoseconds.
    pub fn preemption_p999_ns(&self) -> u64 {
        self.preemption_latency.percentile(99.9)
    }

    /// Renders the human-readable report that `concord-serve
    /// --report-interval`, `repro simulate --report-secs` and the
    /// examples print.
    pub fn render(&self) -> String {
        let mut out = format!(
            "telemetry: {} recorded ({} failed, {} records dropped)\n{}",
            self.recorded,
            self.failures,
            self.records_dropped,
            self.breakdown.render(),
        );
        if !self.preemption_latency.is_empty() {
            out.push_str(&format!(
                "preemption signal->yield: {} samples, p50 {:.1}us p99 {:.1}us p99.9 {:.1}us\n",
                self.preemptions_recorded(),
                self.preemption_p50_ns() as f64 / 1e3,
                self.preemption_p99_ns() as f64 / 1e3,
                self.preemption_p999_ns() as f64 / 1e3,
            ));
        }
        if self.per_class.len() > 1 {
            for (class, c) in &self.per_class {
                out.push_str(&format!(
                    "class {:>5}: {} completed ({} failed), sojourn p50 {:.1}us p99 {:.1}us \
                     p99.9 {:.1}us, slowdown p99 {:.2}\n",
                    class,
                    c.completed,
                    c.failed,
                    c.sojourn.percentile(50.0) as f64 / 1e3,
                    c.sojourn.percentile(99.0) as f64 / 1e3,
                    c.sojourn.percentile(99.9) as f64 / 1e3,
                    c.slowdown.p99(),
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(queue_ns: u64, service_ns: u64, failed: bool) -> CompletionRecord {
        CompletionRecord {
            queue_ns,
            service_ns,
            sojourn_ns: queue_ns + service_ns,
            nominal_ns: service_ns,
            completed_at_ns: queue_ns + service_ns,
            slices: 1,
            worker: 0,
            class: 0,
            failed,
        }
    }

    #[test]
    fn record_counts_and_classifies() {
        let mut t = Telemetry::new();
        t.record(&rec(1_000, 10_000, false));
        t.record(&rec(2_000, 20_000, true));
        assert_eq!(t.recorded, 2);
        assert_eq!(t.failures, 1);
        assert_eq!(t.breakdown.len(), 2);
    }

    #[test]
    fn snapshot_is_detached() {
        let mut t = Telemetry::new();
        t.record(&rec(1_000, 10_000, false));
        let snap = t.snapshot();
        t.record(&rec(5_000, 50_000, false));
        assert_eq!(snap.recorded, 1, "snapshot must not track later records");
        assert_eq!(t.recorded, 2);
    }

    #[test]
    fn percentile_accessors_are_ordered() {
        let mut t = Telemetry::new();
        for i in 1..=1000u64 {
            t.record(&rec(i * 10, i * 100, false));
        }
        let s = t.snapshot();
        assert!(s.queueing_p99_ns() >= s.queueing_p50_ns());
        assert!(s.queueing_p999_ns() >= s.queueing_p99_ns());
        assert!(s.service_p99_ns() >= s.service_p50_ns());
        assert!(s.service_p999_ns() >= s.service_p99_ns());
        assert!(s.slowdown_p999() >= s.slowdown_p99());
        assert!(s.slowdown_p99() >= s.slowdown_p50());
        assert!(s.slowdown_p50() >= 1.0);
    }

    #[test]
    fn timestamps_monotone_per_source_equal_ok() {
        let mut t = Telemetry::new();
        let mut a = rec(0, 1, false);
        a.completed_at_ns = 100;
        t.record(&a);
        a.completed_at_ns = 100; // equal stamps are fine (frozen clock)
        t.record(&a);
        a.completed_at_ns = 200;
        t.record(&a);
        assert_eq!(t.timestamp_regressions, 0);
    }

    #[test]
    fn timestamp_regression_is_counted_per_source() {
        let mut t = Telemetry::new();
        let mut a = rec(0, 1, false);
        a.completed_at_ns = 100;
        t.record(&a);
        // A different source starting lower is NOT a regression.
        let mut b = rec(0, 1, false);
        b.worker = 1;
        b.completed_at_ns = 50;
        t.record(&b);
        assert_eq!(t.timestamp_regressions, 0);
        // The same source going backwards is.
        a.completed_at_ns = 99;
        t.record(&a);
        assert_eq!(t.timestamp_regressions, 1);
        assert_eq!(t.snapshot().timestamp_regressions, 1);
    }

    #[test]
    fn preemption_latency_is_aggregated_and_snapshotted() {
        let mut t = Telemetry::new();
        assert_eq!(t.snapshot().preemptions_recorded(), 0);
        assert_eq!(t.snapshot().preemption_p99_ns(), 0, "empty histogram");
        t.record_preemption_latency(1_000);
        t.record_preemption_latency(2_000);
        t.record_preemption_latency(0); // clamped to 1, never lost
        let s = t.snapshot();
        assert_eq!(s.preemptions_recorded(), 3);
        assert!(s.preemption_p99_ns() >= s.preemption_p50_ns());
        assert!(s.render().contains("signal->yield"));
    }

    #[test]
    fn per_class_aggregates_split_by_class() {
        let mut t = Telemetry::new();
        for i in 0..10u64 {
            let mut r = rec(1_000, 10_000, i == 0);
            r.class = 1;
            t.record(&r);
        }
        let mut r = rec(2_000, 5_000, false);
        r.class = 7;
        t.record(&r);
        let s = t.snapshot();
        assert_eq!(s.per_class.len(), 2);
        assert_eq!(s.per_class[&1].completed, 10);
        assert_eq!(s.per_class[&1].failed, 1);
        assert_eq!(s.per_class[&7].completed, 1);
        assert_eq!(s.per_class[&7].sojourn.len(), 1);
        assert!(s.per_class[&1].slowdown.p99() >= 1.0);
        // Totals agree with the global aggregate.
        let total: u64 = s.per_class.values().map(|c| c.completed).sum();
        assert_eq!(total, s.recorded);
    }

    #[test]
    fn class_explosion_folds_into_other() {
        let mut t = Telemetry::new();
        for class in 0..100u16 {
            let mut r = rec(1, 1, false);
            r.class = class;
            t.record(&r);
        }
        assert!(t.per_class.len() <= MAX_TRACKED_CLASSES + 1);
        let other = &t.per_class[&OTHER_CLASS];
        assert_eq!(other.completed, 100 - MAX_TRACKED_CLASSES as u64);
        // Already-tracked classes keep recording individually.
        let mut r = rec(1, 1, false);
        r.class = 3;
        t.record(&r);
        assert_eq!(t.per_class[&3].completed, 2);
    }

    /// Regression (pre-fix failure): the fold decision must depend only
    /// on the class id, never on arrival order. Under the old
    /// first-seen rule, two shards seeing the same classes in different
    /// orders disagreed about which fold into OTHER_CLASS, so merged
    /// per-class series didn't sum to the per-shard totals.
    #[test]
    fn class_fold_is_order_independent_across_shards() {
        // Shard A sees 40 distinct classes ascending; shard B sees the
        // same classes descending (so under first-seen folding, B would
        // have given slots to 39..8 and folded 7..0 into OTHER).
        let mut a = Telemetry::new();
        let mut b = Telemetry::new();
        for class in 0..40u16 {
            let mut r = rec(1, 1, false);
            r.class = class;
            a.record(&r);
            r.class = 39 - class;
            b.record(&r);
        }
        let sa = a.snapshot();
        let sb = b.snapshot();
        assert_eq!(
            sa.per_class.keys().collect::<Vec<_>>(),
            sb.per_class.keys().collect::<Vec<_>>(),
            "both shards must fold identically"
        );
        // Merging class-wise (what the admin plane does at scrape time)
        // preserves the sum law.
        let mut merged = sa.per_class.clone();
        for (class, c) in &sb.per_class {
            merged.entry(*class).or_default().merge(c);
        }
        let merged_total: u64 = merged.values().map(|c| c.completed).sum();
        assert_eq!(merged_total, sa.recorded + sb.recorded);
        // Tracked classes kept their own slots on both shards.
        for class in 0..MAX_TRACKED_CLASSES as u16 {
            assert_eq!(sa.per_class[&class].completed, 1);
            assert_eq!(sb.per_class[&class].completed, 1);
        }
        assert_eq!(
            sa.per_class[&OTHER_CLASS].completed,
            40 - MAX_TRACKED_CLASSES as u64
        );
    }

    #[test]
    fn merged_shard_snapshots_equal_one_aggregate_of_every_record() {
        let mut shards = [Telemetry::new(), Telemetry::new()];
        let mut whole = Telemetry::new();
        for i in 0..40u64 {
            let mut r = rec(100 * i, 1_000 + 37 * i, i % 7 == 0);
            r.class = (i % 3) as u16;
            r.worker = (i % 2) as usize;
            r.completed_at_ns = 1_000 * i;
            shards[r.worker].record(&r);
            whole.record(&r);
            if i % 5 == 0 {
                shards[r.worker].record_preemption_latency(10 * i);
                whole.record_preemption_latency(10 * i);
            }
        }
        shards[1].records_dropped = 2;
        whole.records_dropped = 2;
        let mut merged = shards[0].snapshot();
        merged.merge(&shards[1].snapshot());
        let mut whole = whole.snapshot();
        whole.taken_at = merged.taken_at;
        assert_eq!(format!("{merged:?}"), format!("{whole:?}"));
        assert_eq!(merged.recorded, 40);
        assert_eq!(merged.per_class.len(), 3);
    }

    #[test]
    fn class_telemetry_merges_across_shards() {
        let mut a = ClassTelemetry::default();
        let mut b = ClassTelemetry::default();
        let mut r = rec(1_000, 10_000, false);
        r.class = 2;
        a.record(&r);
        r.failed = true;
        b.record(&r);
        b.record(&r);
        a.merge(&b);
        assert_eq!(a.completed, 3);
        assert_eq!(a.failed, 2);
        assert_eq!(a.sojourn.len(), 3);
        assert_eq!(a.slowdown.len(), 3);
    }

    #[test]
    fn render_is_complete() {
        let mut t = Telemetry::new();
        t.record(&rec(1_000, 10_000, false));
        let out = t.snapshot().render();
        for needle in ["recorded", "queueing", "service", "sojourn", "slowdown"] {
            assert!(out.contains(needle), "missing {needle}:\n{out}");
        }
    }
}
