//! Maximum-sustainable-load search under a tail-slowdown SLO.
//!
//! The paper's throughput claims ("Concord sustains 52% greater throughput
//! while meeting identical tail-latency SLOs") are statements about where a
//! system's p99.9-slowdown-vs-load curve crosses the SLO line. This module
//! finds that crossing for an arbitrary measurement function.
//!
//! Tail-vs-load curves are noisy but essentially monotone near saturation,
//! so the search brackets the crossing with a coarse geometric sweep and
//! then bisects, re-measuring each probe point once.

/// Result of a capacity search.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CapacityResult {
    /// Highest probed load (requests/sec or any rate unit) whose measured
    /// tail met the SLO.
    pub capacity: f64,
    /// Measured tail metric at `capacity`.
    pub tail_at_capacity: f64,
    /// Number of measurement invocations the search used.
    pub probes: u32,
}

/// Configuration for [`find_capacity`].
#[derive(Clone, Copy, Debug)]
pub struct CapacitySearch {
    /// The tail-metric ceiling (the paper uses a p99.9 slowdown of 50.0).
    pub slo: f64,
    /// Lower bound of the load range to consider.
    pub min_load: f64,
    /// Upper bound of the load range to consider.
    pub max_load: f64,
    /// Relative width at which bisection stops (e.g. 0.01 → capacity is
    /// within 1% of the true crossing).
    pub tolerance: f64,
    /// Number of coarse bracketing steps between `min_load` and `max_load`.
    pub coarse_steps: u32,
}

impl CapacitySearch {
    /// A search over `[min_load, max_load]` with the paper's 50× SLO,
    /// 1% tolerance and 8 coarse steps.
    pub fn new(min_load: f64, max_load: f64) -> Self {
        Self {
            slo: 50.0,
            min_load,
            max_load,
            tolerance: 0.01,
            coarse_steps: 8,
        }
    }

    /// Sets the SLO ceiling.
    pub fn with_slo(mut self, slo: f64) -> Self {
        self.slo = slo;
        self
    }
}

/// Finds the maximum load for which `measure(load)` stays at or below the
/// configured SLO.
///
/// `measure` maps an offered load to a tail metric (typically p99.9
/// slowdown). Returns `None` if even `min_load` violates the SLO.
///
/// # Examples
///
/// ```
/// use concord_metrics::{find_capacity, CapacitySearch};
///
/// // A toy system that saturates at load 100: tail explodes beyond it.
/// let measure = |load: f64| if load < 100.0 { 10.0 / (1.0 - load / 100.0) } else { 1e9 };
/// let cfg = CapacitySearch::new(1.0, 200.0).with_slo(50.0);
/// let got = find_capacity(&cfg, measure).unwrap();
/// // 10/(1-x/100) = 50  =>  x = 80.
/// assert!((got.capacity - 80.0).abs() / 80.0 < 0.05);
/// ```
pub fn find_capacity<F>(cfg: &CapacitySearch, mut measure: F) -> Option<CapacityResult>
where
    F: FnMut(f64) -> f64,
{
    assert!(
        cfg.min_load > 0.0 && cfg.max_load > cfg.min_load,
        "invalid load range"
    );
    let mut probes = 0u32;
    let mut probe = |load: f64, probes: &mut u32| -> f64 {
        *probes += 1;
        measure(load)
    };

    // Coarse sweep: find the last passing and first failing load.
    let steps = cfg.coarse_steps.max(2);
    let mut last_pass: Option<(f64, f64)> = None;
    let mut first_fail: Option<f64> = None;
    for i in 0..=steps {
        let load = cfg.min_load + (cfg.max_load - cfg.min_load) * f64::from(i) / f64::from(steps);
        let tail = probe(load, &mut probes);
        if tail <= cfg.slo {
            last_pass = Some((load, tail));
        } else {
            first_fail = Some(load);
            break;
        }
    }

    let (mut lo, mut lo_tail) = last_pass?;
    let Some(mut hi) = first_fail else {
        // Never failed: the whole range is sustainable.
        return Some(CapacityResult {
            capacity: lo,
            tail_at_capacity: lo_tail,
            probes,
        });
    };

    // Bisect the bracket.
    while (hi - lo) / hi > cfg.tolerance {
        let mid = (lo + hi) / 2.0;
        let tail = probe(mid, &mut probes);
        if tail <= cfg.slo {
            lo = mid;
            lo_tail = tail;
        } else {
            hi = mid;
        }
    }

    Some(CapacityResult {
        capacity: lo,
        tail_at_capacity: lo_tail,
        probes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mm1_tail(capacity: f64) -> impl Fn(f64) -> f64 {
        // Tail latency of an M/M/1-like system: grows as 1/(1-rho).
        move |load: f64| {
            if load >= capacity {
                f64::INFINITY
            } else {
                5.0 / (1.0 - load / capacity)
            }
        }
    }

    #[test]
    fn finds_the_slo_crossing() {
        let cfg = CapacitySearch {
            tolerance: 0.005,
            ..CapacitySearch::new(1.0, 1000.0).with_slo(50.0)
        };
        let r = find_capacity(&cfg, mm1_tail(500.0)).unwrap();
        // 5/(1-x/500)=50 => x=450.
        assert!(
            (r.capacity - 450.0).abs() / 450.0 < 0.02,
            "capacity={}",
            r.capacity
        );
        assert!(r.tail_at_capacity <= 50.0);
    }

    #[test]
    fn returns_none_when_even_min_load_fails() {
        let cfg = CapacitySearch::new(10.0, 100.0).with_slo(1.0);
        assert!(find_capacity(&cfg, |_| 100.0).is_none());
    }

    #[test]
    fn whole_range_sustainable_returns_max_probed() {
        let cfg = CapacitySearch::new(10.0, 100.0).with_slo(50.0);
        let r = find_capacity(&cfg, |_| 2.0).unwrap();
        assert_eq!(r.capacity, 100.0);
        assert_eq!(r.tail_at_capacity, 2.0);
    }

    #[test]
    fn tighter_slo_means_lower_capacity() {
        let f = mm1_tail(500.0);
        let loose = find_capacity(&CapacitySearch::new(1.0, 1000.0).with_slo(50.0), &f).unwrap();
        let tight = find_capacity(&CapacitySearch::new(1.0, 1000.0).with_slo(10.0), &f).unwrap();
        assert!(tight.capacity < loose.capacity);
    }

    #[test]
    fn probe_count_is_bounded() {
        let cfg = CapacitySearch::new(1.0, 1000.0); // 1% tolerance
        let r = find_capacity(&cfg, mm1_tail(500.0)).unwrap();
        assert!(r.probes < 40, "probes={}", r.probes);
    }

    #[test]
    #[should_panic(expected = "invalid load range")]
    fn rejects_inverted_range() {
        let cfg = CapacitySearch::new(100.0, 10.0);
        let _ = find_capacity(&cfg, |_| 0.0);
    }
}
