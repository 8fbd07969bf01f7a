//! The simulator workload: the paper-figure engine timed on the host.
//!
//! One run is [`spec::SIM_CHUNKS`] independent `simulate()` calls of
//! the paper's Fig. 6 configuration. Latencies are virtual time and a
//! function of the seed alone; the host only decides how long the calls
//! take, and `capacity_rps` is the median call's simulated requests per
//! wall second so that one host stall cannot decide it.

use crate::spec;
use crate::stats::median;
use concord_sim::experiments::ideal_capacity_rps;
use concord_sim::{simulate, simulate_traced, SimParams, SimResult, SystemConfig};
use concord_trace::Trace;
use concord_workloads::{mix, Workload as _};
use std::time::Instant;

/// Result of one pass over the simulator workload.
pub struct SimRun {
    /// One result per chunk, in seed order.
    pub chunks: Vec<SimResult>,
    /// Wall seconds each chunk took.
    pub chunk_wall_s: Vec<f64>,
    /// Median seconds of a 1 000-request `simulate()` call: what a
    /// caller pays before the first result.
    pub setup_s: f64,
    /// CPU the process used over the chunks, in cores.
    pub cpu_cores: f64,
    /// Output-check violations, empty when the run is correct.
    pub errors: Vec<String>,
    /// The scheduling-event trace of the first chunk of a traced run.
    pub trace: Option<Trace>,
}

fn config() -> SystemConfig {
    SystemConfig::concord(spec::SIM_WORKERS, spec::SIM_QUANTUM_NS)
}

fn params(requests: u64, seed: u64) -> SimParams {
    let capacity = ideal_capacity_rps(
        spec::SIM_WORKERS,
        mix::bimodal_50_1_50_100().mean_service_ns(),
    );
    SimParams::new(spec::SIM_LOAD * capacity, requests, seed)
}

/// Every field of two results that a run reports or checks, compared
/// for exact equality.
pub fn same_result(a: &SimResult, b: &SimResult) -> bool {
    let key = |r: &SimResult| {
        (
            (r.arrivals, r.completed, r.incomplete, r.censored),
            (r.preemptions, r.events_processed, r.span_cycles),
            (r.dispatcher_completed, r.max_jbsq_inflight),
            (r.worker_busy_cycles, r.worker_idle_wait_cycles),
            (r.dispatcher_sched_cycles, r.dispatcher_app_cycles),
            r.latency_ns.value_at_quantile(0.5),
            r.latency_ns.value_at_quantile(0.999),
            r.p999_slowdown().to_bits(),
            r.slowdown_by_class
                .iter()
                .map(|c| (c.len(), c.median().to_bits(), c.p99().to_bits()))
                .collect::<Vec<_>>(),
        )
    };
    key(a) == key(b)
}

/// Runs the simulator workload: `total_requests` split over the chunks,
/// chunk `i` seeded `seed + i`.
pub fn run(seed: u64, total_requests: u64, trace: bool) -> SimRun {
    let cfg = config();
    let mut errors = Vec::new();

    let mut setups = Vec::with_capacity(spec::SETUP_REPEATS);
    let mut first: Option<SimResult> = None;
    for _ in 0..spec::SETUP_REPEATS {
        let t0 = Instant::now();
        let r = simulate(&cfg, mix::bimodal_50_1_50_100(), &params(1_000, seed));
        setups.push(t0.elapsed().as_secs_f64());
        // The repeats double as the determinism check: same seed, same
        // result, field for field.
        match &first {
            Some(f) if !same_result(f, &r) => {
                errors.push("two simulate() calls with one seed disagree".into());
            }
            Some(_) => {}
            None => first = Some(r),
        }
    }

    let per_chunk = (total_requests / spec::SIM_CHUNKS).max(1_000);
    let cpu0 = crate::proc::cpu_time();
    let t0 = Instant::now();
    let mut chunks = Vec::new();
    let mut chunk_wall_s = Vec::new();
    let mut kept_trace = None;
    for i in 0..spec::SIM_CHUNKS {
        let p = params(per_chunk, seed.wrapping_add(i));
        let t = Instant::now();
        let r = if trace && i == 0 {
            let (r, tr) = simulate_traced(&cfg, mix::bimodal_50_1_50_100(), &p);
            kept_trace = Some(tr);
            r
        } else {
            simulate(&cfg, mix::bimodal_50_1_50_100(), &p)
        };
        chunk_wall_s.push(t.elapsed().as_secs_f64());
        if r.arrivals != r.completed + r.incomplete {
            errors.push(format!(
                "chunk {i}: arrivals {} != completed {} + incomplete {}",
                r.arrivals, r.completed, r.incomplete
            ));
        }
        if r.arrivals != per_chunk {
            errors.push(format!(
                "chunk {i}: {} arrivals, asked for {per_chunk}",
                r.arrivals
            ));
        }
        if r.preemptions == 0 {
            errors.push(format!("chunk {i}: no preemption with 100 us requests"));
        }
        chunks.push(r);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = crate::proc::cpu_time().total_s() - cpu0.total_s();

    SimRun {
        chunks,
        chunk_wall_s,
        setup_s: median(&setups),
        cpu_cores: cpu_s / wall_s,
        errors,
        trace: kept_trace,
    }
}

impl SimRun {
    /// Simulated requests attempted and left incomplete over all chunks.
    pub fn attempted_failed(&self) -> (u64, u64) {
        (
            self.chunks.iter().map(|r| r.arrivals).sum(),
            self.chunks.iter().map(|r| r.incomplete).sum(),
        )
    }

    /// Median over chunks of `f`.
    pub fn median_of(&self, f: impl Fn(&SimResult) -> f64) -> f64 {
        median(&self.chunks.iter().map(f).collect::<Vec<_>>())
    }

    /// Simulated requests per wall second, median chunk.
    pub fn capacity_rps(&self) -> f64 {
        let rates: Vec<f64> = self
            .chunks
            .iter()
            .zip(&self.chunk_wall_s)
            .map(|(r, &s)| r.arrivals as f64 / s)
            .collect();
        median(&rates)
    }

    /// Wall-clock microseconds the simulator spends per simulated
    /// request, median chunk.
    pub fn wall_us_per_request(&self) -> f64 {
        let costs: Vec<f64> = self
            .chunks
            .iter()
            .zip(&self.chunk_wall_s)
            .map(|(r, &s)| s * 1e6 / r.arrivals as f64)
            .collect();
        median(&costs)
    }

    /// Virtual-time latency quantile of one class in microseconds,
    /// median chunk. Service times are fixed per class, so latency is
    /// slowdown times the class's service time.
    pub fn class_latency_us(&self, class: usize, service_us: f64, q: f64) -> f64 {
        self.median_of(|r| r.slowdown_by_class[class].at_quantile(q) * service_us)
    }
}
