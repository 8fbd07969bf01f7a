//! Primitive service-time distributions.
//!
//! Everything is sampled by inverse transform (or Box–Muller for normals)
//! from `concord_rng`'s uniform source, so no external distribution crate is
//! needed and sampled streams are stable across platforms for a fixed seed.

use concord_rng::Rng;
use concord_rng::SmallRng;

/// A primitive service-time distribution over nanoseconds.
#[derive(Clone, Debug, PartialEq)]
pub enum Dist {
    /// Every sample is exactly `ns`.
    Fixed {
        /// The constant value in nanoseconds.
        ns: u64,
    },
    /// Exponential with the given mean (memoryless; models light tails).
    Exponential {
        /// Mean in nanoseconds.
        mean_ns: f64,
    },
    /// Uniform over `[lo_ns, hi_ns]`.
    Uniform {
        /// Inclusive lower bound in nanoseconds.
        lo_ns: u64,
        /// Inclusive upper bound in nanoseconds.
        hi_ns: u64,
    },
    /// Log-normal parameterized by the *target* mean and sigma of the
    /// underlying normal (models heavy-ish tails).
    LogNormal {
        /// Desired distribution mean in nanoseconds.
        mean_ns: f64,
        /// Standard deviation of the underlying normal.
        sigma: f64,
    },
    /// Normal truncated at `min_ns` (used for the paper's Fig. 5 preemption
    /// imprecision model, a one-sided N(mean, std)).
    TruncatedNormal {
        /// Mean in nanoseconds.
        mean_ns: f64,
        /// Standard deviation in nanoseconds.
        std_ns: f64,
        /// Samples below this are resampled-by-clamping to it.
        min_ns: u64,
    },
    /// Bounded Pareto — the canonical heavy tail (§2's "heavy-tailed
    /// workloads" for which processor sharing is optimal).
    Pareto {
        /// Scale (minimum value), nanoseconds.
        min_ns: u64,
        /// Tail index α (> 0; heavier as α → 1).
        alpha: f64,
        /// Truncation cap, nanoseconds (keeps moments finite).
        cap_ns: u64,
    },
    /// Weibull with shape `k` (< 1 = heavy-ish tail, 1 = exponential).
    Weibull {
        /// Desired distribution mean in nanoseconds.
        mean_ns: f64,
        /// Shape parameter k.
        shape: f64,
    },
}

impl Dist {
    /// A fixed distribution at `us` microseconds.
    pub fn fixed_us(us: f64) -> Self {
        Dist::Fixed {
            ns: (us * 1_000.0).round() as u64,
        }
    }

    /// Draws one sample in nanoseconds (always ≥ 1).
    pub fn sample(&self, rng: &mut SmallRng) -> u64 {
        let v = match *self {
            Dist::Fixed { ns } => ns as f64,
            Dist::Exponential { mean_ns } => {
                // Inverse transform: -mean * ln(U), U in (0, 1].
                let u: f64 = 1.0 - rng.gen::<f64>();
                -mean_ns * u.ln()
            }
            Dist::Uniform { lo_ns, hi_ns } => {
                return rng.gen_range(lo_ns..=hi_ns).max(1);
            }
            Dist::LogNormal { mean_ns, sigma } => {
                // E[lognormal] = exp(mu + sigma^2/2)  =>  mu = ln(mean) - sigma^2/2.
                let mu = mean_ns.ln() - sigma * sigma / 2.0;
                (mu + sigma * standard_normal(rng)).exp()
            }
            Dist::TruncatedNormal {
                mean_ns,
                std_ns,
                min_ns,
            } => {
                let s = mean_ns + std_ns * standard_normal(rng);
                s.max(min_ns as f64)
            }
            Dist::Pareto {
                min_ns,
                alpha,
                cap_ns,
            } => {
                // Inverse transform: x = min / U^(1/alpha), capped.
                let u: f64 = (1.0 - rng.gen::<f64>()).max(f64::MIN_POSITIVE);
                (min_ns as f64 / u.powf(1.0 / alpha)).min(cap_ns as f64)
            }
            Dist::Weibull { mean_ns, shape } => {
                // E[X] = λ Γ(1 + 1/k)  =>  λ = mean / Γ(1 + 1/k).
                let lambda = mean_ns / gamma(1.0 + 1.0 / shape);
                let u: f64 = (1.0 - rng.gen::<f64>()).max(f64::MIN_POSITIVE);
                lambda * (-u.ln()).powf(1.0 / shape)
            }
        };
        (v.round() as u64).max(1)
    }

    /// Analytic mean in nanoseconds.
    ///
    /// For [`Dist::TruncatedNormal`] this returns the untruncated mean; the
    /// truncation bias is negligible for the paper's parameters (mean 5 µs,
    /// std ≤ 2 µs, floor 0).
    pub fn mean_ns(&self) -> f64 {
        match *self {
            Dist::Fixed { ns } => ns as f64,
            Dist::Exponential { mean_ns } => mean_ns,
            Dist::Uniform { lo_ns, hi_ns } => (lo_ns + hi_ns) as f64 / 2.0,
            Dist::LogNormal { mean_ns, .. } => mean_ns,
            Dist::TruncatedNormal { mean_ns, .. } => mean_ns,
            Dist::Pareto {
                min_ns,
                alpha,
                cap_ns,
            } => {
                // Mean of a bounded Pareto on [L, H].
                let (l, h, a) = (min_ns as f64, cap_ns as f64, alpha);
                if (a - 1.0).abs() < 1e-9 {
                    l * (h / l).ln() / (1.0 - l / h)
                } else {
                    (l.powf(a) / (1.0 - (l / h).powf(a)))
                        * (a / (a - 1.0))
                        * (1.0 / l.powf(a - 1.0) - 1.0 / h.powf(a - 1.0))
                }
            }
            Dist::Weibull { mean_ns, .. } => mean_ns,
        }
    }
}

/// Lanczos approximation of the gamma function (g = 7, n = 9 — ~15 digits
/// over the range used here).
#[allow(clippy::excessive_precision)] // canonical published coefficients
fn gamma(x: f64) -> f64 {
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_93,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_13,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        std::f64::consts::PI / ((std::f64::consts::PI * x).sin() * gamma(1.0 - x))
    } else {
        let x = x - 1.0;
        let mut acc = COEF[0];
        for (i, &c) in COEF.iter().enumerate().skip(1) {
            acc += c / (x + i as f64);
        }
        let t = x + G + 0.5;
        (2.0 * std::f64::consts::PI).sqrt() * t.powf(x + 0.5) * (-t).exp() * acc
    }
}

/// One standard-normal sample via Box–Muller.
fn standard_normal(rng: &mut SmallRng) -> f64 {
    let u1: f64 = (1.0 - rng.gen::<f64>()).max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded_rng;

    fn sample_mean(d: &Dist, n: usize) -> f64 {
        let mut rng = seeded_rng(7);
        (0..n).map(|_| d.sample(&mut rng) as f64).sum::<f64>() / n as f64
    }

    #[test]
    fn fixed_is_constant() {
        let d = Dist::fixed_us(1.0);
        let mut rng = seeded_rng(1);
        for _ in 0..100 {
            assert_eq!(d.sample(&mut rng), 1_000);
        }
        assert_eq!(d.mean_ns(), 1_000.0);
    }

    #[test]
    fn exponential_mean_converges() {
        let d = Dist::Exponential { mean_ns: 10_000.0 };
        let m = sample_mean(&d, 200_000);
        assert!((m - 10_000.0).abs() / 10_000.0 < 0.02, "mean={m}");
    }

    #[test]
    fn exponential_is_heavy_above_mean() {
        // P(X > mean) = 1/e ≈ 0.368 for an exponential.
        let d = Dist::Exponential { mean_ns: 5_000.0 };
        let mut rng = seeded_rng(3);
        let n = 100_000;
        let above = (0..n).filter(|_| d.sample(&mut rng) > 5_000).count();
        let frac = above as f64 / n as f64;
        assert!((frac - 0.368).abs() < 0.01, "frac={frac}");
    }

    #[test]
    fn uniform_stays_in_range() {
        let d = Dist::Uniform {
            lo_ns: 100,
            hi_ns: 200,
        };
        let mut rng = seeded_rng(5);
        for _ in 0..10_000 {
            let v = d.sample(&mut rng);
            assert!((100..=200).contains(&v));
        }
        let m = sample_mean(&d, 100_000);
        assert!((m - 150.0).abs() < 1.0, "mean={m}");
    }

    #[test]
    fn lognormal_mean_converges() {
        let d = Dist::LogNormal {
            mean_ns: 2_000.0,
            sigma: 1.0,
        };
        let m = sample_mean(&d, 400_000);
        assert!((m - 2_000.0).abs() / 2_000.0 < 0.05, "mean={m}");
    }

    #[test]
    fn truncated_normal_respects_floor() {
        let d = Dist::TruncatedNormal {
            mean_ns: 5_000.0,
            std_ns: 2_000.0,
            min_ns: 5_000,
        };
        let mut rng = seeded_rng(11);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) >= 5_000);
        }
    }

    #[test]
    fn truncated_normal_std_is_close_when_unconstrained() {
        let d = Dist::TruncatedNormal {
            mean_ns: 1_000_000.0,
            std_ns: 1_000.0,
            min_ns: 0,
        };
        let mut rng = seeded_rng(13);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| d.sample(&mut rng) as f64).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 1_000_000.0).abs() < 100.0, "mean={mean}");
        assert!(
            (var.sqrt() - 1_000.0).abs() / 1_000.0 < 0.05,
            "std={}",
            var.sqrt()
        );
    }

    #[test]
    fn pareto_mean_matches_closed_form() {
        let d = Dist::Pareto {
            min_ns: 1_000,
            alpha: 1.5,
            cap_ns: 1_000_000,
        };
        let m = sample_mean(&d, 400_000);
        let want = d.mean_ns();
        assert!(
            (m - want).abs() / want < 0.05,
            "sampled={m} analytic={want}"
        );
    }

    #[test]
    fn pareto_respects_bounds() {
        let d = Dist::Pareto {
            min_ns: 500,
            alpha: 1.2,
            cap_ns: 50_000,
        };
        let mut rng = seeded_rng(23);
        for _ in 0..50_000 {
            let v = d.sample(&mut rng);
            assert!((500..=50_000).contains(&v), "v={v}");
        }
    }

    #[test]
    fn pareto_is_heavier_tailed_than_exponential() {
        // Same mean; compare P(X > 10 * mean).
        let p = Dist::Pareto {
            min_ns: 1_000,
            alpha: 1.3,
            cap_ns: 10_000_000,
        };
        let mean = p.mean_ns();
        let e = Dist::Exponential { mean_ns: mean };
        let mut rng = seeded_rng(29);
        let n = 200_000;
        let threshold = (10.0 * mean) as u64;
        let p_tail = (0..n).filter(|_| p.sample(&mut rng) > threshold).count();
        let e_tail = (0..n).filter(|_| e.sample(&mut rng) > threshold).count();
        assert!(p_tail > 5 * e_tail.max(1), "pareto={p_tail} exp={e_tail}");
    }

    #[test]
    fn weibull_mean_converges() {
        for shape in [0.5, 1.0, 2.0] {
            let d = Dist::Weibull {
                mean_ns: 5_000.0,
                shape,
            };
            let m = sample_mean(&d, 400_000);
            assert!(
                (m - 5_000.0).abs() / 5_000.0 < 0.05,
                "shape={shape} mean={m}"
            );
        }
    }

    #[test]
    fn weibull_shape_one_is_exponential() {
        // k = 1: CV should be 1 like an exponential.
        let d = Dist::Weibull {
            mean_ns: 2_000.0,
            shape: 1.0,
        };
        let mut rng = seeded_rng(31);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| d.sample(&mut rng) as f64).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        let cv = var.sqrt() / mean;
        assert!((cv - 1.0).abs() < 0.05, "cv={cv}");
    }

    #[test]
    fn samples_are_never_zero() {
        for d in [
            Dist::Fixed { ns: 0 },
            Dist::Exponential { mean_ns: 1.0 },
            Dist::TruncatedNormal {
                mean_ns: 1.0,
                std_ns: 100.0,
                min_ns: 0,
            },
        ] {
            let mut rng = seeded_rng(17);
            for _ in 0..1_000 {
                assert!(d.sample(&mut rng) >= 1);
            }
        }
    }

    #[test]
    fn seeded_streams_are_reproducible() {
        let d = Dist::Exponential { mean_ns: 3_000.0 };
        let mut a = seeded_rng(99);
        let mut b = seeded_rng(99);
        for _ in 0..1_000 {
            assert_eq!(d.sample(&mut a), d.sample(&mut b));
        }
    }
}
