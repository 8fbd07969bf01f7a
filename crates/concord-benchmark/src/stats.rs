//! Order statistics: exact sample quantiles, the windowed tail estimator
//! every live latency metric uses, and the quartile spread `--aa` reports.

/// Nearest-rank quantile of an ascending slice (`0.0` when empty).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (mean of the two middle values for even counts;
/// `0.0` when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles Python's `statistics.quantiles(v, n=4)`
/// gives (the "exclusive" method). `0.0` for fewer than two values.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let med = median(&v);
    if n < 2 || med == 0.0 {
        return 0.0;
    }
    let cut = |k: usize| {
        // Position k*(n+1)/4 in 1-based ranks, the index clamped to
        // the sample and the value linearly interpolated, as CPython does.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(3) - cut(1)) / med.abs()
}

/// Latency samples cut into fixed windows by the instant each request
/// was due.
///
/// A percentile is computed inside each window and the reported value
/// is the median of the window values, so one host stall — which lands
/// in one or two windows — cannot decide a tail metric the way it
/// decides a whole-run p99.
pub struct Windows {
    width_ns: u64,
    samples: Vec<Vec<u32>>,
}

/// Windows with fewer samples than this are left out of the median: a
/// p99 over a handful of samples is the maximum, not a percentile.
const MIN_WINDOW_SAMPLES: usize = 100;

impl Windows {
    /// `count` windows of `width_ns` each, starting at offset 0.
    pub fn new(width_ns: u64, count: usize) -> Self {
        Self {
            width_ns: width_ns.max(1),
            samples: vec![Vec::new(); count],
        }
    }

    /// Records one latency for a request due `due_ns` after the phase
    /// started. Requests due beyond the last full window are dropped.
    pub fn record(&mut self, due_ns: u64, latency_ns: u64) {
        if let Some(w) = self.samples.get_mut((due_ns / self.width_ns) as usize) {
            w.push(latency_ns.min(u64::from(u32::MAX)) as u32);
        }
    }

    /// Samples recorded over all windows.
    pub fn len(&self) -> usize {
        self.samples.iter().map(Vec::len).sum()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn per_window(&mut self, q: f64) -> Vec<f64> {
        let mut out = Vec::new();
        for w in &mut self.samples {
            if w.len() < MIN_WINDOW_SAMPLES {
                continue;
            }
            w.sort_unstable();
            let rank = (q * w.len() as f64).ceil() as usize;
            out.push(f64::from(w[rank.clamp(1, w.len()) - 1]));
        }
        out
    }

    /// The windowed estimate of quantile `q` in nanoseconds: the median
    /// of the per-window quantiles (whole-run quantile when no window
    /// holds enough samples).
    pub fn windowed_ns(&mut self, q: f64) -> f64 {
        let per = self.per_window(q);
        if per.is_empty() {
            self.whole_run_ns(q)
        } else {
            median(&per)
        }
    }

    /// Quantile `q` over every sample, in nanoseconds.
    pub fn whole_run_ns(&self, q: f64) -> f64 {
        let mut all: Vec<f64> = self
            .samples
            .iter()
            .flatten()
            .map(|&v| f64::from(v))
            .collect();
        all.sort_by(f64::total_cmp);
        quantile_sorted(&all, q)
    }

    /// Largest sample, nanoseconds.
    pub fn max_ns(&self) -> f64 {
        self.samples
            .iter()
            .flatten()
            .max()
            .map_or(0.0, |&v| f64::from(v))
    }

    /// Windows whose p99 exceeds five times the median window's p99.
    pub fn stall_windows(&mut self) -> u64 {
        let per = self.per_window(0.99);
        let med = median(&per);
        per.iter().filter(|&&v| v > 5.0 * med).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50.0);
        assert_eq!(quantile_sorted(&v, 0.99), 99.0);
        assert_eq!(quantile_sorted(&v, 1.0), 100.0);
        assert_eq!(quantile_sorted(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert!((quartile_spread(&[20.0, 40.0, 10.0]) - 1.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[7.0]), 0.0);
    }

    /// The property the estimator exists for: a 150 ms stall injected
    /// into an otherwise steady 10 s stream moves the whole-run p99 by
    /// orders of magnitude and the windowed p99 not at all.
    #[test]
    fn injected_stall_moves_whole_run_p99_but_not_windowed() {
        const RATE: u64 = 10_000; // requests per second
        let gap_ns = 1_000_000_000 / RATE;
        let fill = |stall: bool| {
            let mut w = Windows::new(1_000_000_000, 10);
            for i in 0..10 * RATE {
                let due = i * gap_ns;
                // Steady state: 10 µs, every fiftieth request 50 µs.
                let mut lat = if i % 50 == 0 { 50_000 } else { 10_000 };
                // A stall at t = 4.2 s: everything due in the next
                // 150 ms waits until the stall ends.
                let (s0, s1) = (4_200_000_000, 4_350_000_000);
                if stall && (s0..s1).contains(&due) {
                    lat += s1 - due;
                }
                w.record(due, lat);
            }
            w
        };
        let (mut calm, mut stalled) = (fill(false), fill(true));
        assert_eq!(calm.windowed_ns(0.99), 50_000.0);
        assert_eq!(stalled.windowed_ns(0.99), 50_000.0);
        assert_eq!(calm.whole_run_ns(0.99), 50_000.0);
        assert!(stalled.whole_run_ns(0.99) > 10_000_000.0);
        assert_eq!(calm.stall_windows(), 0);
        assert_eq!(stalled.stall_windows(), 1);
    }

    #[test]
    fn thin_windows_fall_back_to_the_whole_run() {
        let mut w = Windows::new(1_000, 4);
        for i in 0..40u64 {
            w.record(i * 100, 1_000 + i);
        }
        assert_eq!(w.len(), 40);
        assert_eq!(w.windowed_ns(0.5), w.whole_run_ns(0.5));
        w.record(1_000_000, 5); // beyond the last window: dropped
        assert_eq!(w.len(), 40);
    }
}
