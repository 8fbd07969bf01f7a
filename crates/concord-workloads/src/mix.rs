//! Weighted request-class mixtures and the paper's named workloads.

use crate::dist::Dist;
use crate::{RequestSpec, Workload};
use concord_rng::Rng;
use concord_rng::SmallRng;

/// One request class inside a [`Mix`]: a name, a probability weight, and a
/// service-time distribution.
#[derive(Clone, Debug)]
pub struct ClassSpec {
    /// Class name (e.g. `"GET"`, `"SCAN"`, `"NewOrder"`).
    pub name: String,
    /// Relative weight; normalized across the mix.
    pub weight: f64,
    /// Service-time distribution for this class.
    pub dist: Dist,
}

impl ClassSpec {
    /// Creates a class spec.
    pub fn new(name: impl Into<String>, weight: f64, dist: Dist) -> Self {
        Self {
            name: name.into(),
            weight,
            dist,
        }
    }
}

/// A weighted mixture of request classes — the general form of every
/// workload in the paper's evaluation.
#[derive(Clone, Debug)]
pub struct Mix {
    name: String,
    classes: Vec<ClassSpec>,
    class_names: Vec<String>,
    /// Cumulative normalized weights for O(log n) class selection.
    cumulative: Vec<f64>,
}

impl Mix {
    /// Builds a mixture from class specs.
    ///
    /// # Panics
    ///
    /// Panics if `classes` is empty or total weight is not positive.
    pub fn new(name: impl Into<String>, classes: Vec<ClassSpec>) -> Self {
        assert!(!classes.is_empty(), "a workload needs at least one class");
        let total: f64 = classes.iter().map(|c| c.weight).sum();
        assert!(total > 0.0, "total class weight must be positive");
        let mut cumulative = Vec::with_capacity(classes.len());
        let mut acc = 0.0;
        for c in &classes {
            acc += c.weight / total;
            cumulative.push(acc);
        }
        // Guard against FP drift so the last class always catches u=1.0-ε.
        if let Some(last) = cumulative.last_mut() {
            *last = 1.0;
        }
        let class_names = classes.iter().map(|c| c.name.clone()).collect();
        Self {
            name: name.into(),
            classes,
            class_names,
            cumulative,
        }
    }

    /// The classes in this mix.
    pub fn classes(&self) -> &[ClassSpec] {
        &self.classes
    }

    /// The normalized probability of class `i`.
    pub fn probability(&self, i: usize) -> f64 {
        let prev = if i == 0 { 0.0 } else { self.cumulative[i - 1] };
        self.cumulative[i] - prev
    }

    /// Squared coefficient of variation of the service time — the standard
    /// dispersion measure (light-tailed ≈ ≤1, the paper's heavy workloads
    /// reach into the hundreds).
    pub fn scv(&self) -> f64 {
        // For a mixture of (mostly fixed) classes: E[S], E[S^2] by class.
        let mean: f64 = (0..self.classes.len())
            .map(|i| self.probability(i) * self.classes[i].dist.mean_ns())
            .sum();
        let second: f64 = (0..self.classes.len())
            .map(|i| {
                let m = self.classes[i].dist.mean_ns();
                // Approximation: treat each class as its mean (exact for
                // Fixed classes, which is all the paper's mixes use).
                self.probability(i) * m * m
            })
            .sum();
        (second - mean * mean) / (mean * mean)
    }
}

impl Workload for Mix {
    fn next_request(&mut self, rng: &mut SmallRng) -> RequestSpec {
        let u: f64 = rng.gen();
        let class = self
            .cumulative
            .partition_point(|&c| c < u)
            .min(self.classes.len() - 1);
        let service_ns = self.classes[class].dist.sample(rng);
        RequestSpec {
            class: class as u16,
            service_ns,
        }
    }

    fn mean_service_ns(&self) -> f64 {
        (0..self.classes.len())
            .map(|i| self.probability(i) * self.classes[i].dist.mean_ns())
            .sum()
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn class_names(&self) -> &[String] {
        &self.class_names
    }
}

// --- Named workloads from the paper (§5.2, §5.3) -------------------------

/// `Bimodal(50:1, 50:100)` — 50% of requests take 1 µs, 50% take 100 µs.
/// Modeled on YCSB workload A (paper Fig. 6).
pub fn bimodal_50_1_50_100() -> Mix {
    Mix::new(
        "Bimodal(50:1,50:100)",
        vec![
            ClassSpec::new("short", 50.0, Dist::fixed_us(1.0)),
            ClassSpec::new("long", 50.0, Dist::fixed_us(100.0)),
        ],
    )
}

/// `Bimodal(99.5:0.5, 0.5:500)` — 99.5% take 0.5 µs, 0.5% take 500 µs.
/// Modeled on Meta's USR workload (paper Fig. 7 and the Fig. 5 simulation).
pub fn bimodal_995_05_05_500() -> Mix {
    Mix::new(
        "Bimodal(99.5:0.5,0.5:500)",
        vec![
            ClassSpec::new("short", 99.5, Dist::fixed_us(0.5)),
            ClassSpec::new("long", 0.5, Dist::fixed_us(500.0)),
        ],
    )
}

/// `Fixed(1)` — every request takes exactly 1 µs (paper Fig. 8 left).
pub fn fixed_1us() -> Mix {
    Mix::new(
        "Fixed(1)",
        vec![ClassSpec::new("req", 1.0, Dist::fixed_us(1.0))],
    )
}

/// The TPC-C in-memory-database service-time mix (paper Fig. 8 right):
/// Payment 5.7 µs 44%, OrderStatus 6 µs 4%, NewOrder 20 µs 44%,
/// Delivery 88 µs 4%, StockLevel 100 µs 4%.
pub fn tpcc() -> Mix {
    Mix::new(
        "TPCC",
        vec![
            ClassSpec::new("Payment", 44.0, Dist::fixed_us(5.7)),
            ClassSpec::new("OrderStatus", 4.0, Dist::fixed_us(6.0)),
            ClassSpec::new("NewOrder", 44.0, Dist::fixed_us(20.0)),
            ClassSpec::new("Delivery", 4.0, Dist::fixed_us(88.0)),
            ClassSpec::new("StockLevel", 4.0, Dist::fixed_us(100.0)),
        ],
    )
}

/// The LevelDB 50% GET / 50% SCAN mix (paper Fig. 9 / Fig. 11): GETs take
/// ≈600 ns, full-database SCANs ≈500 µs (paper §5.3 setup).
pub fn leveldb_get_scan() -> Mix {
    Mix::new(
        "LevelDB(50:GET,50:SCAN)",
        vec![
            ClassSpec::new("GET", 50.0, Dist::fixed_us(0.6)),
            ClassSpec::new("SCAN", 50.0, Dist::fixed_us(500.0)),
        ],
    )
}

/// The ZippyDB production mix on LevelDB (paper Fig. 10): 78% GET (600 ns),
/// 13% PUT (2.3 µs), 6% DELETE (2.3 µs), 3% SCAN (500 µs).
pub fn zippydb() -> Mix {
    Mix::new(
        "LevelDB(ZippyDB)",
        vec![
            ClassSpec::new("GET", 78.0, Dist::fixed_us(0.6)),
            ClassSpec::new("PUT", 13.0, Dist::fixed_us(2.3)),
            ClassSpec::new("DELETE", 6.0, Dist::fixed_us(2.3)),
            ClassSpec::new("SCAN", 3.0, Dist::fixed_us(500.0)),
        ],
    )
}

/// Every named paper workload, for sweep-style tests and benches.
pub fn all_named() -> Vec<Mix> {
    vec![
        bimodal_50_1_50_100(),
        bimodal_995_05_05_500(),
        fixed_1us(),
        tpcc(),
        leveldb_get_scan(),
        zippydb(),
    ]
}

/// The command-line names of the paper workloads, `|`-separated.
pub const NAMES: &str = "bimodal50|bimodal995|fixed1|tpcc|leveldb|zippydb";

/// The paper workload a command line names (one of [`NAMES`]).
pub fn by_name(name: &str) -> Option<Mix> {
    Some(match name {
        "bimodal50" => bimodal_50_1_50_100(),
        "bimodal995" => bimodal_995_05_05_500(),
        "fixed1" => fixed_1us(),
        "tpcc" => tpcc(),
        "leveldb" => leveldb_get_scan(),
        "zippydb" => zippydb(),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded_rng;

    fn empirical_class_fracs(mix: &mut Mix, n: usize) -> Vec<f64> {
        let mut rng = seeded_rng(21);
        let mut counts = vec![0usize; mix.classes().len()];
        for _ in 0..n {
            let r = mix.next_request(&mut rng);
            counts[r.class as usize] += 1;
        }
        counts.iter().map(|&c| c as f64 / n as f64).collect()
    }

    #[test]
    fn bimodal_means_match_paper() {
        let m = bimodal_50_1_50_100();
        assert!((m.mean_service_ns() - 50_500.0).abs() < 1.0);
        let m = bimodal_995_05_05_500();
        // 0.995*0.5 + 0.005*500 = 0.4975 + 2.5 = 2.9975 µs.
        assert!((m.mean_service_ns() - 2_997.5).abs() < 1.0);
    }

    #[test]
    fn tpcc_mean_matches_hand_computation() {
        let m = tpcc();
        // 0.44*5.7 + 0.04*6 + 0.44*20 + 0.04*88 + 0.04*100 = 19.068 µs.
        assert!(
            (m.mean_service_ns() - 19_068.0).abs() < 1.0,
            "{}",
            m.mean_service_ns()
        );
    }

    #[test]
    fn class_fractions_converge_to_weights() {
        let mut m = zippydb();
        let fracs = empirical_class_fracs(&mut m, 200_000);
        for (i, want) in [0.78, 0.13, 0.06, 0.03].iter().enumerate() {
            assert!(
                (fracs[i] - want).abs() < 0.005,
                "class {i}: {} vs {want}",
                fracs[i]
            );
        }
    }

    #[test]
    fn rare_class_still_sampled() {
        let mut m = bimodal_995_05_05_500();
        let fracs = empirical_class_fracs(&mut m, 400_000);
        assert!((fracs[1] - 0.005).abs() < 0.001, "long frac={}", fracs[1]);
    }

    #[test]
    fn single_class_mix_always_samples_it() {
        let mut m = fixed_1us();
        let mut rng = seeded_rng(2);
        for _ in 0..100 {
            let r = m.next_request(&mut rng);
            assert_eq!(r.class, 0);
            assert_eq!(r.service_ns, 1_000);
        }
    }

    #[test]
    fn dispersion_ranks_workloads_as_the_paper_describes() {
        // §5.3: the LevelDB 50/50 workload has greater dispersion (~1000x
        // spread) than the microbenchmarks; Fixed(1) has none.
        assert_eq!(fixed_1us().scv(), 0.0);
        assert!(bimodal_50_1_50_100().scv() > 0.5);
        assert!(leveldb_get_scan().scv() > bimodal_50_1_50_100().scv());
        assert!(bimodal_995_05_05_500().scv() > tpcc().scv());
    }

    #[test]
    fn probabilities_sum_to_one() {
        for m in all_named() {
            let total: f64 = (0..m.classes().len()).map(|i| m.probability(i)).sum();
            assert!(
                (total - 1.0).abs() < 1e-12,
                "{}: {total}",
                Workload::name(&m)
            );
        }
    }

    #[test]
    fn every_name_resolves_to_the_named_set() {
        let resolved: Vec<String> = NAMES
            .split('|')
            .map(|n| Workload::name(&by_name(n).expect(n)).to_string())
            .collect();
        let named: Vec<String> = all_named()
            .iter()
            .map(|m| Workload::name(m).to_string())
            .collect();
        assert_eq!(resolved, named);
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn class_names_align_with_specs() {
        let m = tpcc();
        assert_eq!(m.class_names().len(), 5);
        assert_eq!(m.class_names()[2], "NewOrder");
    }

    #[test]
    #[should_panic(expected = "at least one class")]
    fn empty_mix_panics() {
        let _ = Mix::new("empty", vec![]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_weight_mix_panics() {
        let _ = Mix::new("zero", vec![ClassSpec::new("a", 0.0, Dist::fixed_us(1.0))]);
    }
}
