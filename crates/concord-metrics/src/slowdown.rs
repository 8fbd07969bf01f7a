//! Request-slowdown tracking — the paper's primary tail metric.
//!
//! *Slowdown* is the ratio of a request's total sojourn time at the server
//! (queueing + service + scheduling overheads) to its un-instrumented
//! service time (§5.1). Using slowdown instead of absolute latency lets all
//! workloads share a single SLO (the paper uses p99.9 slowdown ≤ 50×).

use crate::Histogram;

/// Fixed-point scale: slowdowns are recorded in hundredths.
const SCALE: f64 = 100.0;

/// Records per-request slowdown ratios and answers tail-quantile queries.
///
/// Internally a [`Histogram`] over fixed-point (hundredths) slowdown, so it
/// absorbs millions of samples in O(1) each while resolving 3 significant
/// figures — more than enough to distinguish a 49× from a 51× tail.
///
/// # Examples
///
/// ```
/// let mut t = concord_metrics::SlowdownTracker::new();
/// t.record(1_000, 5_000); // 1µs of work took 5µs end-to-end: slowdown 5×
/// assert!((t.p999() - 5.0).abs() < 0.01);
/// ```
#[derive(Clone, Debug)]
pub struct SlowdownTracker {
    hist: Histogram,
}

impl SlowdownTracker {
    /// Creates an empty tracker (tracks slowdowns up to ≈10⁹×).
    pub fn new() -> Self {
        Self {
            hist: Histogram::with_max(3, 100_000_000_000),
        }
    }

    /// Records one completed request.
    ///
    /// `service_time` and `sojourn_time` share any time unit (cycles, ns).
    /// A zero `service_time` is treated as 1 unit to keep the ratio finite;
    /// a sojourn shorter than the service time records a slowdown of 1.
    pub fn record(&mut self, service_time: u64, sojourn_time: u64) {
        let s = service_time.max(1) as f64;
        let ratio = (sojourn_time as f64 / s).max(1.0);
        self.hist.record((ratio * SCALE).round() as u64);
    }

    /// Number of recorded requests.
    pub fn len(&self) -> u64 {
        self.hist.len()
    }

    /// True if no requests have been recorded.
    pub fn is_empty(&self) -> bool {
        self.hist.is_empty()
    }

    /// Slowdown at quantile `q` (0.0..=1.0).
    pub fn at_quantile(&self, q: f64) -> f64 {
        self.hist.value_at_quantile(q) as f64 / SCALE
    }

    /// 99.9th-percentile slowdown — the paper's headline metric.
    pub fn p999(&self) -> f64 {
        self.at_quantile(0.999)
    }

    /// 99th-percentile slowdown.
    pub fn p99(&self) -> f64 {
        self.at_quantile(0.99)
    }

    /// Median slowdown.
    pub fn median(&self) -> f64 {
        self.at_quantile(0.5)
    }

    /// Mean slowdown.
    pub fn mean(&self) -> f64 {
        self.hist.mean() / SCALE
    }

    /// Largest recorded slowdown.
    pub fn max(&self) -> f64 {
        self.hist.max() as f64 / SCALE
    }

    /// The underlying fixed-point distribution: values are slowdown in
    /// *hundredths* (a recorded ratio of 1.5 reads back as 150). For
    /// exposition paths that need the whole distribution, not just a
    /// quantile.
    pub fn histogram(&self) -> &Histogram {
        &self.hist
    }

    /// Merges another tracker's samples into this one.
    pub fn merge(&mut self, other: &SlowdownTracker) {
        self.hist.merge(&other.hist);
    }

    /// Resets all samples.
    pub fn clear(&mut self) {
        self.hist.clear();
    }
}

impl Default for SlowdownTracker {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_service_records_unit_slowdown() {
        let mut t = SlowdownTracker::new();
        t.record(1000, 1000);
        assert!((t.p999() - 1.0).abs() < 0.02);
        assert!((t.median() - 1.0).abs() < 0.02);
    }

    #[test]
    fn sojourn_below_service_clamps_to_one() {
        let mut t = SlowdownTracker::new();
        t.record(1000, 500);
        assert!((t.max() - 1.0).abs() < 0.02);
    }

    #[test]
    fn tail_picks_out_the_worst_requests() {
        let mut t = SlowdownTracker::new();
        // 995 fast requests, 5 very slow ones: the slow class sits above
        // the 99.9th-percentile rank.
        for _ in 0..995 {
            t.record(1000, 2000);
        }
        for _ in 0..5 {
            t.record(1000, 100_000);
        }
        assert!((t.p99() - 2.0).abs() < 0.05);
        assert!(t.p999() > 90.0, "p999={}", t.p999());
    }

    #[test]
    fn zero_service_time_is_finite() {
        let mut t = SlowdownTracker::new();
        t.record(0, 50);
        assert!(t.max().is_finite());
        assert!(t.max() >= 50.0);
    }

    #[test]
    fn quantiles_are_monotone() {
        let mut t = SlowdownTracker::new();
        for i in 1..=10_000u64 {
            t.record(100, 100 + i);
        }
        let mut prev = 0.0;
        for q in [0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let v = t.at_quantile(q);
            assert!(v >= prev, "quantile {q} regressed: {v} < {prev}");
            prev = v;
        }
    }

    #[test]
    fn merge_combines_tails() {
        let mut a = SlowdownTracker::new();
        let mut b = SlowdownTracker::new();
        for _ in 0..1000 {
            a.record(100, 200);
        }
        b.record(100, 10_000);
        a.merge(&b);
        assert_eq!(a.len(), 1001);
        assert!(a.max() > 90.0);
    }

    #[test]
    fn slowdown_precision_resolves_slo_boundary() {
        // The SLO search needs to tell 49x from 51x apart reliably.
        let mut t = SlowdownTracker::new();
        t.record(100, 4_900);
        let p = t.p999();
        assert!((p - 49.0).abs() < 0.1, "p={p}");
        t.clear();
        t.record(100, 5_100);
        let p = t.p999();
        assert!((p - 51.0).abs() < 0.1, "p={p}");
    }
}
