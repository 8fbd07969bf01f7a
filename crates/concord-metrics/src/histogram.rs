//! An HDR-style log-bucketed histogram for latency-class value distributions.
//!
//! The design follows the classic HdrHistogram layout: values are grouped
//! into exponentially growing buckets, each of which is subdivided into a
//! fixed number of linear sub-buckets. This bounds the *relative* error of
//! any recorded value by the configured number of significant decimal
//! figures, while keeping memory use logarithmic in the value range and
//! record cost at a handful of arithmetic instructions.
//!
//! Values are plain `u64`s; callers pick the unit (the simulator records
//! cycles and hundredths-of-slowdown, the runtime records nanoseconds).

/// Maximum value trackable by default (2^44, ≈ 4.8 hours in nanoseconds).
const DEFAULT_MAX_VALUE: u64 = 1 << 44;

/// A log-bucketed histogram with bounded relative error.
///
/// Records `u64` values in O(1) without allocating. Quantile queries walk
/// the (fixed-size) bucket array. Two histograms with identical precision
/// can be [merged](Histogram::merge).
#[derive(Clone, Debug)]
pub struct Histogram {
    /// Number of significant decimal digits preserved (1..=4).
    sigfigs: u8,
    /// log2 of the number of sub-buckets in bucket 0.
    sub_bucket_count_magnitude: u32,
    /// Half the sub-bucket count; the linear region of every bucket > 0.
    sub_bucket_half_count: usize,
    /// Number of exponential buckets. Retained (and serialized) as a
    /// geometry descriptor even though lookups derive indices directly.
    #[allow(dead_code)]
    bucket_count: usize,
    /// Highest trackable value; larger values are clamped and counted in
    /// [`Histogram::clamped`].
    max_value: u64,
    counts: Vec<u64>,
    total: u64,
    clamped: u64,
    min: u64,
    max: u64,
    sum: u128,
}

impl Histogram {
    /// Creates a histogram preserving `sigfigs` significant decimal digits
    /// (clamped to 1..=4), tracking values up to ≈1.7e13.
    ///
    /// # Examples
    ///
    /// ```
    /// let h = concord_metrics::Histogram::new(3);
    /// assert!(h.is_empty());
    /// ```
    pub fn new(sigfigs: u8) -> Self {
        Self::with_max(sigfigs, DEFAULT_MAX_VALUE)
    }

    /// Creates a histogram tracking values in `[1, max_value]` with
    /// `sigfigs` significant decimal digits of precision.
    ///
    /// # Panics
    ///
    /// Panics if `max_value` is zero.
    pub fn with_max(sigfigs: u8, max_value: u64) -> Self {
        assert!(max_value > 0, "max_value must be positive");
        let sigfigs = sigfigs.clamp(1, 4);
        // The largest value with a single unit of resolution: to resolve
        // `sigfigs` digits anywhere, bucket 0 must span 2 * 10^sigfigs.
        let largest_single_unit = 2 * 10u64.pow(u32::from(sigfigs));
        let sub_bucket_count_magnitude = 64 - (largest_single_unit - 1).leading_zeros();
        let sub_bucket_count = 1usize << sub_bucket_count_magnitude;
        let sub_bucket_half_count = sub_bucket_count / 2;

        // Buckets double the covered range; count how many are needed so the
        // top bucket reaches max_value.
        let mut bucket_count = 1usize;
        let mut covered = (sub_bucket_count as u64).saturating_sub(1);
        while covered < max_value {
            covered = covered.saturating_mul(2).saturating_add(1);
            bucket_count += 1;
        }

        let counts_len = (bucket_count + 1) * sub_bucket_half_count;
        Self {
            sigfigs,
            sub_bucket_count_magnitude,
            sub_bucket_half_count,
            bucket_count,
            max_value,
            counts: vec![0; counts_len],
            total: 0,
            clamped: 0,
            min: u64::MAX,
            max: 0,
            sum: 0,
        }
    }

    /// The configured number of significant decimal digits.
    pub fn sigfigs(&self) -> u8 {
        self.sigfigs
    }

    /// Number of recorded values.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Number of values that exceeded the highest trackable value and were
    /// clamped to it.
    pub fn clamped(&self) -> u64 {
        self.clamped
    }

    /// Smallest recorded value, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of recorded values (exact, not bucketed), or 0.0.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Records one value. Values of 0 are recorded as 1 (the histogram's
    /// unit floor); values above the trackable range are clamped.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `count` occurrences of `value` in one O(1) step.
    pub fn record_n(&mut self, value: u64, count: u64) {
        if count == 0 {
            return;
        }
        let mut v = value.max(1);
        if v > self.max_value {
            v = self.max_value;
            self.clamped += count;
        }
        let idx = self.counts_index(v);
        self.counts[idx] += count;
        self.total += count;
        self.sum += u128::from(v) * u128::from(count);
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Merges another histogram into this one.
    ///
    /// # Panics
    ///
    /// Panics if the histograms were constructed with different precision or
    /// range (their bucket layouts must be identical).
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            (self.sigfigs, self.max_value),
            (other.sigfigs, other.max_value),
            "can only merge histograms with identical layout"
        );
        for (dst, src) in self.counts.iter_mut().zip(other.counts.iter()) {
            *dst += *src;
        }
        self.total += other.total;
        self.clamped += other.clamped;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Resets all recorded data, keeping the layout.
    pub fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.total = 0;
        self.clamped = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }

    /// Value at quantile `q` (0.0..=1.0): the smallest bucket boundary such
    /// that at least `q * len()` recorded values are ≤ it.
    ///
    /// Returns 0 for an empty histogram. The result is within the configured
    /// significant-figure precision of the true sample quantile.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // ceil() matching the "at least" semantics; never below 1. Snap to
        // the nearest integer first so that q values derived as rank/total
        // do not overshoot by one ulp.
        let exact = q * self.total as f64;
        let rank = if (exact - exact.round()).abs() < 1e-7 {
            exact.round()
        } else {
            exact.ceil()
        };
        let target = (rank as u64).clamp(1, self.total);
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= target {
                return self
                    .highest_equivalent(self.value_for_index(i))
                    .min(self.max);
            }
        }
        self.max
    }

    /// Convenience alias: `value_at_quantile(p / 100.0)`.
    pub fn percentile(&self, p: f64) -> u64 {
        self.value_at_quantile(p / 100.0)
    }

    /// Fraction of recorded values ≤ `value` (0.0..=1.0).
    pub fn quantile_below(&self, value: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let v = value.max(1).min(self.max_value);
        let idx = self.counts_index(v);
        let below: u64 = self.counts[..=idx].iter().sum();
        below as f64 / self.total as f64
    }

    /// Iterates over non-empty buckets as `(representative_value, count)`.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (self.median_equivalent(self.value_for_index(i)), c))
    }

    /// Exact sum of recorded values (after clamping to the trackable
    /// range), for exposition `_sum` series.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Iterates over non-empty buckets as cumulative
    /// `(upper_bound, cumulative_count)` pairs — the shape Prometheus
    /// text exposition wants for `le`-labeled histogram buckets.
    ///
    /// Upper bounds are the highest value equivalent to each bucket
    /// (inclusive), strictly increasing; cumulative counts are
    /// non-decreasing and the last one equals [`Histogram::len`]. An
    /// explicit `+Inf` bucket is the renderer's job (it is always
    /// `len()`, clamped values included).
    pub fn cumulative(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let mut cum = 0u64;
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(move |(i, &c)| {
                cum += c;
                (self.highest_equivalent(self.value_for_index(i)), cum)
            })
    }

    // Bucket geometry -----------------------------------------------------

    fn bucket_index(&self, value: u64) -> usize {
        // Index of the highest set bit, relative to the sub-bucket range.
        let pow2ceiling =
            64 - (value | ((1 << self.sub_bucket_count_magnitude) - 1)).leading_zeros();
        (pow2ceiling - self.sub_bucket_count_magnitude) as usize
    }

    fn sub_bucket_index(&self, value: u64, bucket: usize) -> usize {
        (value >> bucket) as usize
    }

    fn counts_index(&self, value: u64) -> usize {
        let bucket = self.bucket_index(value);
        let sub = self.sub_bucket_index(value, bucket);
        // Bucket 0 uses its full sub-bucket range [0, 2h); every later bucket
        // only populates [h, 2h) so buckets overlap by half.
        let base = (bucket + 1) * self.sub_bucket_half_count;
        base - self.sub_bucket_half_count + sub
    }

    fn value_for_index(&self, index: usize) -> u64 {
        let h = self.sub_bucket_half_count;
        let mut bucket = index / h;
        let mut sub = index % h + h;
        if bucket == 0 {
            sub -= h;
        } else {
            bucket -= 1;
        }
        (sub as u64) << bucket
    }

    /// Size of the bucket containing `value` (the resolution at that value).
    fn equivalent_range(&self, value: u64) -> u64 {
        1 << self.bucket_index(value)
    }

    /// Highest value that falls into the same bucket as `value`.
    fn highest_equivalent(&self, value: u64) -> u64 {
        let range = self.equivalent_range(value);
        (value & !(range - 1)) + range - 1
    }

    /// Midpoint of the bucket containing `value`.
    fn median_equivalent(&self, value: u64) -> u64 {
        let range = self.equivalent_range(value);
        (value & !(range - 1)) + range / 2
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new(3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new(3);
        assert!(h.is_empty());
        assert_eq!(h.len(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.value_at_quantile(0.999), 0);
    }

    #[test]
    fn single_value_is_exact_at_all_quantiles() {
        let mut h = Histogram::new(3);
        h.record(42);
        for q in [0.0, 0.5, 0.999, 1.0] {
            assert_eq!(h.value_at_quantile(q), 42, "q={q}");
        }
        assert_eq!(h.min(), 42);
        assert_eq!(h.max(), 42);
    }

    #[test]
    fn small_values_are_exact() {
        // Bucket 0 has unit resolution, so values below 2*10^sigfigs must be
        // recovered exactly.
        let mut h = Histogram::new(2);
        for v in 1..=200u64 {
            h.record(v);
        }
        assert_eq!(h.value_at_quantile(0.5), 100);
        assert_eq!(h.value_at_quantile(1.0), 200);
    }

    #[test]
    fn relative_error_is_bounded() {
        let mut h = Histogram::new(3);
        let mut values: Vec<u64> = Vec::new();
        let mut v = 1u64;
        while v < 10_000_000_000 {
            values.push(v);
            h.record(v);
            v = v * 3 / 2 + 1;
        }
        values.sort_unstable();
        for (i, &want) in values.iter().enumerate() {
            let q = (i + 1) as f64 / values.len() as f64;
            let got = h.value_at_quantile(q);
            let rel = (got as f64 - want as f64).abs() / want as f64;
            assert!(rel < 1e-3 + 1e-9, "q={q} want={want} got={got} rel={rel}");
        }
    }

    #[test]
    fn uniform_median_is_close() {
        let mut h = Histogram::new(3);
        for v in 1..=100_000u64 {
            h.record(v);
        }
        let p50 = h.value_at_quantile(0.5) as f64;
        assert!((p50 - 50_000.0).abs() / 50_000.0 < 1e-3);
        let p999 = h.value_at_quantile(0.999) as f64;
        assert!((p999 - 99_900.0).abs() / 99_900.0 < 1e-3);
    }

    #[test]
    fn clamps_values_beyond_range() {
        let mut h = Histogram::with_max(3, 1000);
        h.record(5000);
        assert_eq!(h.clamped(), 1);
        assert_eq!(h.len(), 1);
        assert!(h.value_at_quantile(1.0) >= 1000);
    }

    #[test]
    fn zero_records_as_unit_floor() {
        let mut h = Histogram::new(3);
        h.record(0);
        assert_eq!(h.len(), 1);
        assert_eq!(h.value_at_quantile(1.0), 1);
    }

    #[test]
    fn record_n_equals_repeated_record() {
        let mut a = Histogram::new(3);
        let mut b = Histogram::new(3);
        for _ in 0..17 {
            a.record(12345);
        }
        b.record_n(12345, 17);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.value_at_quantile(0.5), b.value_at_quantile(0.5));
        assert_eq!(a.mean(), b.mean());
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = Histogram::new(3);
        let mut b = Histogram::new(3);
        let mut c = Histogram::new(3);
        for v in 1..=500u64 {
            a.record(v);
            c.record(v);
        }
        for v in 501..=1000u64 {
            b.record(v);
            c.record(v);
        }
        a.merge(&b);
        assert_eq!(a.len(), c.len());
        for q in [0.1, 0.5, 0.9, 0.999] {
            assert_eq!(a.value_at_quantile(q), c.value_at_quantile(q));
        }
        assert_eq!(a.min(), c.min());
        assert_eq!(a.max(), c.max());
    }

    #[test]
    #[should_panic(expected = "identical layout")]
    fn merge_rejects_mismatched_layout() {
        let mut a = Histogram::new(2);
        let b = Histogram::new(3);
        a.merge(&b);
    }

    #[test]
    fn quantile_below_is_inverse_of_value_at_quantile() {
        let mut h = Histogram::new(3);
        for v in [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 100] {
            h.record(v);
        }
        assert!((h.quantile_below(50) - 0.5).abs() < 1e-9);
        assert!((h.quantile_below(100) - 1.0).abs() < 1e-9);
        assert!((h.quantile_below(9) - 0.0).abs() < 1e-9);
    }

    #[test]
    fn clear_resets_but_preserves_layout() {
        let mut h = Histogram::new(3);
        h.record(123);
        h.clear();
        assert!(h.is_empty());
        h.record(456);
        assert_eq!(h.value_at_quantile(1.0), 456);
    }

    #[test]
    fn mean_is_exact() {
        let mut h = Histogram::new(1);
        h.record(1_000_000);
        h.record(3_000_000);
        assert_eq!(h.mean(), 2_000_000.0);
    }

    #[test]
    fn cumulative_buckets_are_monotone() {
        let mut h = Histogram::new(3);
        let mut v = 1u64;
        while v < 1_000_000_000 {
            h.record(v);
            v = v * 2 + 3;
        }
        let buckets: Vec<(u64, u64)> = h.cumulative().collect();
        assert!(!buckets.is_empty());
        for pair in buckets.windows(2) {
            assert!(pair[1].0 > pair[0].0, "upper bounds strictly increase");
            assert!(pair[1].1 >= pair[0].1, "cumulative counts never drop");
        }
    }

    #[test]
    fn cumulative_final_count_equals_len() {
        // The implicit +Inf bucket of the exposition equals len(); the
        // last finite bucket must already cover everything, clamped
        // values included.
        let mut h = Histogram::with_max(3, 10_000);
        for v in [1u64, 5, 500, 9_999, 50_000, 90_000] {
            h.record(v);
        }
        assert_eq!(h.clamped(), 2);
        let last = h.cumulative().last().expect("non-empty");
        assert_eq!(last.1, h.len());
    }

    #[test]
    fn cumulative_counts_match_quantile_below() {
        let mut h = Histogram::new(2);
        for v in 1..=1_000u64 {
            h.record(v * 13);
        }
        for (le, cum) in h.cumulative() {
            let frac = h.quantile_below(le);
            assert!(
                (frac - cum as f64 / h.len() as f64).abs() < 1e-9,
                "le={le} cum={cum}"
            );
        }
    }

    #[test]
    fn sum_and_count_agree_after_merge() {
        let mut a = Histogram::new(3);
        let mut b = Histogram::new(3);
        let mut want_sum = 0u128;
        for v in 1..=100u64 {
            a.record(v * 11);
            want_sum += u128::from(v * 11);
        }
        for v in 1..=50u64 {
            b.record(v * 7);
            want_sum += u128::from(v * 7);
        }
        a.merge(&b);
        assert_eq!(a.sum(), want_sum);
        assert_eq!(a.len(), 150);
        let last = a.cumulative().last().expect("non-empty");
        assert_eq!(last.1, a.len(), "+Inf == count holds after merge");
    }

    #[test]
    fn iter_counts_sum_to_total() {
        let mut h = Histogram::new(3);
        for v in 1..=10_000u64 {
            h.record(v * 7);
        }
        let total: u64 = h.iter().map(|(_, c)| c).sum();
        assert_eq!(total, h.len());
    }
}
