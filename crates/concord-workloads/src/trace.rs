//! Deterministic request traces: (arrival process × workload) → timeline.

use crate::arrival::ArrivalProcess;
use crate::{seeded_rng, RequestSpec, Workload};
use concord_rng::SmallRng;

/// One arrival in a trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    /// Absolute arrival time in nanoseconds from trace start.
    pub time_ns: u64,
    /// Monotonic request id (0-based arrival order).
    pub id: u64,
    /// Class and service time.
    pub spec: RequestSpec,
}

/// Generates a deterministic, seedable stream of [`Arrival`]s.
///
/// Both the simulator and the real runtime consume traces through this type,
/// so a simulator experiment and a runtime experiment at the same seed see
/// the *same* request sequence.
pub struct TraceGenerator<A, W> {
    arrivals: A,
    workload: W,
    rng: SmallRng,
    now_ns: u64,
    next_id: u64,
}

impl<A: ArrivalProcess, W: Workload> TraceGenerator<A, W> {
    /// Creates a generator with its own RNG stream derived from `seed`.
    pub fn new(arrivals: A, workload: W, seed: u64) -> Self {
        Self {
            arrivals,
            workload,
            rng: seeded_rng(seed),
            now_ns: 0,
            next_id: 0,
        }
    }

    /// Draws the next arrival; time advances monotonically.
    pub fn next_arrival(&mut self) -> Arrival {
        self.now_ns += self.arrivals.next_gap_ns(&mut self.rng);
        let spec = self.workload.next_request(&mut self.rng);
        let a = Arrival {
            time_ns: self.now_ns,
            id: self.next_id,
            spec,
        };
        self.next_id += 1;
        a
    }

    /// Generates `n` arrivals into a vector.
    pub fn take_count(&mut self, n: usize) -> Vec<Arrival> {
        (0..n).map(|_| self.next_arrival()).collect()
    }

    /// The underlying workload.
    pub fn workload(&self) -> &W {
        &self.workload
    }

    /// The configured offered rate in requests per second.
    pub fn rate_rps(&self) -> f64 {
        self.arrivals.rate_rps()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::{Deterministic, Poisson};
    use crate::mix;

    #[test]
    fn arrival_times_are_monotone_and_ids_sequential() {
        let mut g = TraceGenerator::new(Poisson::with_rate(1e6), mix::fixed_1us(), 1);
        let trace = g.take_count(10_000);
        for w in trace.windows(2) {
            assert!(w[1].time_ns >= w[0].time_ns);
            assert_eq!(w[1].id, w[0].id + 1);
        }
        assert_eq!(trace[0].id, 0);
    }

    #[test]
    fn same_seed_same_trace() {
        let mut a = TraceGenerator::new(Poisson::with_rate(5e5), mix::tpcc(), 77);
        let mut b = TraceGenerator::new(Poisson::with_rate(5e5), mix::tpcc(), 77);
        assert_eq!(a.take_count(1_000), b.take_count(1_000));
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = TraceGenerator::new(Poisson::with_rate(5e5), mix::tpcc(), 1);
        let mut b = TraceGenerator::new(Poisson::with_rate(5e5), mix::tpcc(), 2);
        assert_ne!(a.take_count(100), b.take_count(100));
    }

    #[test]
    fn deterministic_arrivals_keep_a_constant_gap() {
        let mut g = TraceGenerator::new(Deterministic::with_rate(1e6), mix::fixed_1us(), 3);
        let trace = g.take_count(1_000); // 1 µs gaps → the 1000th lands at 1 ms
        assert_eq!(trace.last().unwrap().time_ns, 1_000_000);
    }

    #[test]
    fn offered_rate_matches_configuration() {
        let mut g = TraceGenerator::new(Poisson::with_rate(200_000.0), mix::fixed_1us(), 5);
        let trace = g.take_count(200_000);
        let span_s = trace.last().unwrap().time_ns as f64 / 1e9;
        let rate = trace.len() as f64 / span_s;
        assert!((rate - 200_000.0).abs() / 200_000.0 < 0.02, "rate={rate}");
    }
}
