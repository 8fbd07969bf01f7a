//! Streaming summary statistics (Welford's online algorithm).

/// Streaming count/mean/variance/min/max over `f64` observations.
///
/// Uses Welford's numerically stable online update, so it can absorb
/// billions of samples without catastrophic cancellation.
///
/// # Examples
///
/// ```
/// let mut s = concord_metrics::Summary::new();
/// for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.record(v);
/// }
/// assert_eq!(s.mean(), 5.0);
/// assert_eq!(s.population_std_dev(), 2.0);
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = value - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True if no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (divides by n), or 0.0 if empty.
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn population_std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Smallest observation, or +∞ if empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation, or −∞ if empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another summary into this one (Chan's parallel update).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(values: &[f64]) -> (f64, f64) {
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn empty_summary_is_benign() {
        let s = Summary::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.population_variance(), 0.0);
    }

    #[test]
    fn single_sample_has_zero_variance() {
        let mut s = Summary::new();
        s.record(3.5);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.population_variance(), 0.0);
        assert_eq!(s.min(), 3.5);
        assert_eq!(s.max(), 3.5);
    }

    #[test]
    fn matches_naive_computation() {
        let values: Vec<f64> = (0..1000).map(|i| ((i * 37) % 101) as f64 * 0.25).collect();
        let mut s = Summary::new();
        for &v in &values {
            s.record(v);
        }
        let (mean, var) = naive(&values);
        assert!((s.mean() - mean).abs() < 1e-9);
        assert!((s.population_variance() - var).abs() < 1e-9);
    }

    #[test]
    fn merge_matches_sequential() {
        let values: Vec<f64> = (0..500).map(|i| (i as f64).sin() * 100.0).collect();
        let mut whole = Summary::new();
        let mut left = Summary::new();
        let mut right = Summary::new();
        for (i, &v) in values.iter().enumerate() {
            whole.record(v);
            if i < 200 {
                left.record(v);
            } else {
                right.record(v);
            }
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.population_variance() - whole.population_variance()).abs() < 1e-9);
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = Summary::new();
        s.record(1.0);
        s.record(2.0);
        let before = (s.count(), s.mean(), s.population_variance());
        s.merge(&Summary::new());
        assert_eq!(before, (s.count(), s.mean(), s.population_variance()));

        let mut e = Summary::new();
        e.merge(&s);
        assert_eq!(e.count(), s.count());
        assert_eq!(e.mean(), s.mean());
    }
}
