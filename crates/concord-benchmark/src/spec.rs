//! The benchmark's fixed parameters: workloads, rates, phase shares and
//! the metric tables `BENCHMARK.json` mirrors. Rates are constants, not
//! flags: a number measured with another rate is another benchmark.

use concord_workloads::{mix, Mix};
use Better::{Higher, Lower};

/// Seconds one run measures when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 20.0;

/// Seconds one `--quick` run measures (the tier-1 smoke test).
pub const QUICK_SECONDS: f64 = 2.0;

/// Warm-up before the measured phases of a live workload, discarded.
pub const WARMUP_SECONDS: f64 = 2.0;

/// Outstanding requests in every closed-loop phase. On TCP they are
/// split evenly over [`TCP_CONNECTIONS`].
pub const CLOSED_WINDOW: usize = 32;

/// Client connections of the TCP workloads (`nproc` on the sizing box).
pub const TCP_CONNECTIONS: usize = 2;

/// Times the system under test is set up in one run; `setup_s` is the
/// median. The first three or four set-ups of a process pay for cold
/// pages and run 3 to 5 times longer; 21 puts the median well inside
/// the warm ones.
pub const SETUP_REPEATS: usize = 21;

/// Share of a live ring workload's measured time spent in the open-loop
/// phase; the rest is the closed-loop phase.
pub const RING_OPEN_SHARE: f64 = 0.6;

/// Independent `simulate()` calls one `sim_bimodal` run is cut into.
pub const SIM_CHUNKS: u64 = 10;

/// Simulated requests per second of `--seconds` (about 0.7 s of wall
/// time per second asked for on the sizing box).
pub const SIM_REQUESTS_PER_SECOND: u64 = 50_000;

/// Offered load of the simulated server as a share of its capacity.
pub const SIM_LOAD: f64 = 0.7;

/// Workers and quantum of the simulated server: the paper's Fig. 6 setup.
pub const SIM_WORKERS: usize = 14;
/// See [`SIM_WORKERS`].
pub const SIM_QUANTUM_NS: u64 = 5_000;

/// Requests per workload whose spans a traced run writes out.
pub const SPAN_REQUESTS: usize = 5_000;

/// Which service-time mix a workload draws from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MixKind {
    /// `Fixed(1)`: every request spins 1 µs.
    Fixed1us,
    /// `Bimodal(50:1, 50:100)`: half 1 µs, half 100 µs.
    Bimodal,
}

impl MixKind {
    /// The named mix from `concord-workloads`.
    pub fn mix(self) -> Mix {
        match self {
            MixKind::Fixed1us => mix::fixed_1us(),
            MixKind::Bimodal => mix::bimodal_50_1_50_100(),
        }
    }

    /// Whether requests of this mix run past the 5 µs quantum.
    pub fn preempts(self) -> bool {
        self == MixKind::Bimodal
    }
}

/// How requests reach the system under test.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Path {
    /// In-process `Runtime` over `concord_net::ring`: an open-loop
    /// Poisson phase at `open_rps`, then a closed-loop phase.
    Ring {
        /// Offered rate of the open-loop phase, requests per second.
        open_rps: f64,
    },
    /// `concord_server::Server` on loopback, closed loop throughout.
    Tcp {
        /// Scheduler shards behind the listener.
        shards: usize,
    },
    /// `concord_sim::simulate`, virtual time.
    Sim,
}

/// One workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Transport and load shape.
    pub path: Path,
    /// Service-time mix.
    pub mix: MixKind,
    /// Width of one tail-estimator window, milliseconds: short enough
    /// that most windows see no host stall (they come at 10 to 30 Hz on
    /// the sizing box), long enough to hold a few hundred samples of
    /// each class.
    pub window_ms: u64,
    /// Whether the workload is listed in `BENCHMARK.json` and held to
    /// the bounds. `tcp_shard2` is not: with six runnable threads on two
    /// cores its capacity ranges over 90 to 160 k between identical runs.
    /// `sim_bimodal` is not either: its one thread follows the host's
    /// speed, and the quartile spread of ten runs reached 19 % where the
    /// live workloads stay under 12 %, too close to the 25 % a bound may
    /// be.
    pub gated: bool,
}

/// Every workload, in the order `--all` runs them.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "rt_fixed",
        path: Path::Ring {
            open_rps: 150_000.0,
        },
        mix: MixKind::Fixed1us,
        window_ms: 20,
        gated: true,
    },
    Workload {
        name: "rt_bimodal",
        path: Path::Ring { open_rps: 8_000.0 },
        mix: MixKind::Bimodal,
        window_ms: 50,
        gated: true,
    },
    Workload {
        name: "tcp_fixed",
        path: Path::Tcp { shards: 1 },
        mix: MixKind::Fixed1us,
        window_ms: 50,
        gated: true,
    },
    Workload {
        name: "tcp_shard2",
        path: Path::Tcp { shards: 2 },
        mix: MixKind::Fixed1us,
        window_ms: 50,
        gated: false,
    },
    Workload {
        name: "sim_bimodal",
        path: Path::Sim,
        mix: MixKind::Bimodal,
        window_ms: 0,
        gated: false,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Direction in which a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One end-to-end metric: what a user of the system sees.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Name in the result line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, printed by every workload with `--trace 0`.
///
/// The bounds are wide because the sizing box is: a shared 2-core host
/// whose speed drifts by 15 % between identical runs. Tails (`p99`,
/// long-class latency, peak memory) repeat worse than any bound this
/// table may hold and are per-layer `client.*` / `proc.*` metrics.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "capacity_rps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_cores",
        unit: "cores",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// One per-layer metric: a single layer's cost, count or wait. Printed
/// by every workload with `--trace 1` (0 where the layer is not on the
/// workload's path); never gated.
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    /// Name: the crate it measures, a dot, what it is.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// The end-to-end metric and workload this one is predicted to move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

const PREEMPT_PATH: &str = "p50_us, capacity_rps on rt_bimodal (a 100 us request pays it ~20 times); nothing on rt_fixed, tcp_*";
const FIXED_PATH: &str = "p50_us, capacity_rps on rt_fixed; at most 1/25 of that on rt_bimodal";
const TCP_PATH: &str =
    "capacity_rps, p50_us on tcp_fixed and tcp_shard2; nothing on rt_* or sim_bimodal";
const SHARD_PATH: &str = "capacity_rps on tcp_shard2 only; tcp_fixed is the control";
const SIM_PATH: &str = "capacity_rps, p50_us on sim_bimodal only";
const TRACE_PATH: &str = "the trace.*_overhead_pct rows; timed runs have tracing off";
const IDLE_PATH: &str =
    "cpu_cores on the live workloads; a parking change must leave rt_fixed p50_us inside its bound";
const REPORTED: &str =
    "reported beside the end-to-end metrics; too unsteady on a shared 2-core host to gate";
const LEDGER: &str = "a ledger that must stay 0; any other value is a defect";

/// The per-layer metrics, in print order.
pub const PER_LAYER: [PerLayer; 75] = [
    // Isolated calls, one thread, median ns per operation.
    layer("wire.encode_request_ns", "ns", Lower, TCP_PATH),
    layer("wire.decode_request_ns", "ns", Lower, TCP_PATH),
    layer("wire.encode_response_ns", "ns", Lower, TCP_PATH),
    layer("wire.decode_response_ns", "ns", Lower, TCP_PATH),
    layer("wire.recvbuf_fill_ns", "ns", Lower, TCP_PATH),
    layer("net.ring_push_pop_ns", "ns", Lower, FIXED_PATH),
    layer("net.ring_handoff_ns", "ns", Lower, FIXED_PATH),
    layer("net.poll_wait_ready_ns", "ns", Lower, TCP_PATH),
    layer("core.admission_offer_pop_ns", "ns", Lower, TCP_PATH),
    layer("core.central_fifo_ns", "ns", Lower, PREEMPT_PATH),
    layer("core.central_prio_ns", "ns", Lower, PREEMPT_PATH),
    layer("core.spsc_push_pop_ns", "ns", Lower, FIXED_PATH),
    layer("core.signal_poll_ns", "ns", Lower, PREEMPT_PATH),
    layer("core.slice_begin_end_ns", "ns", Lower, PREEMPT_PATH),
    layer("core.task_run_ns", "ns", Lower, FIXED_PATH),
    layer("core.telemetry_record_ns", "ns", Lower, FIXED_PATH),
    layer("uthread.switch_ns", "ns", Lower, PREEMPT_PATH),
    layer("uthread.create_ns", "ns", Lower, FIXED_PATH),
    layer("metrics.hist_record_ns", "ns", Lower, SIM_PATH),
    layer("trace.emit_ns", "ns", Lower, TRACE_PATH),
    layer("obs.counter_inc_ns", "ns", Lower, TRACE_PATH),
    layer("workloads.next_arrival_ns", "ns", Lower, SIM_PATH),
    // Counts and waits read from the system after the traced pass.
    layer("core.preemptions_per_req", "count", Lower, PREEMPT_PATH),
    layer("core.signals_wasted_share", "ratio", Lower, PREEMPT_PATH),
    layer(
        "core.dispatcher_share",
        "ratio",
        Lower,
        "capacity_rps on rt_bimodal: work the dispatcher runs itself",
    ),
    layer("core.stack_reuse_share", "ratio", Higher, FIXED_PATH),
    layer("core.queue_p50_us", "us", Lower, FIXED_PATH),
    layer(
        "core.queue_p99_us",
        "us",
        Lower,
        "client.p99_us on rt_bimodal",
    ),
    layer("core.busy_over_nominal", "ratio", Lower, PREEMPT_PATH),
    layer("core.preempted_wait_p50_us", "us", Lower, PREEMPT_PATH),
    layer("core.signal_to_yield_p50_us", "us", Lower, PREEMPT_PATH),
    layer("core.signal_to_yield_p99_us", "us", Lower, PREEMPT_PATH),
    layer("core.tx_dropped", "count", Lower, LEDGER),
    layer("core.telemetry_dropped", "count", Lower, LEDGER),
    layer("shard.offloaded_per_kreq", "count", Lower, SHARD_PATH),
    layer("shard.reclaimed_per_kreq", "count", Lower, SHARD_PATH),
    layer("shard.steals_per_kreq", "count", Lower, SHARD_PATH),
    layer("shard.ingest_imbalance", "ratio", Lower, SHARD_PATH),
    layer("server.io_overhead_p50_us", "us", Lower, TCP_PATH),
    layer("server.io_overhead_p99_us", "us", Lower, TCP_PATH),
    layer("server.admission_shed_share", "ratio", Lower, LEDGER),
    layer("server.orphaned_responses", "count", Lower, LEDGER),
    layer("server.protocol_errors", "count", Lower, LEDGER),
    // What the generator saw; the tails the end-to-end list leaves out.
    layer("client.p99_us", "us", Lower, REPORTED),
    layer("client.short_p50_us", "us", Lower, REPORTED),
    layer("client.long_p50_us", "us", Lower, REPORTED),
    layer("client.long_p99_us", "us", Lower, REPORTED),
    layer("client.p999_us", "us", Lower, REPORTED),
    layer("client.max_us", "us", Lower, REPORTED),
    layer("client.stall_windows", "count", Lower, REPORTED),
    layer(
        "client.gen_late_p99_us",
        "us",
        Lower,
        "every latency of the ring workloads: they are timed from the due instant",
    ),
    layer("client.gen_late_max_us", "us", Lower, REPORTED),
    layer("client.egress_pickup_p50_us", "us", Lower, FIXED_PATH),
    layer("client.failed_share", "ratio", Lower, LEDGER),
    layer("proc.ctx_switches_per_kreq", "count", Lower, SHARD_PATH),
    layer("proc.sys_cpu_share", "ratio", Lower, IDLE_PATH),
    layer("proc.peak_rss_mb", "MB", Lower, REPORTED),
    // The simulator: virtual time repeats exactly for one seed.
    layer(
        "sim.p99_us",
        "us",
        Lower,
        "moves only if scheduling semantics change",
    ),
    layer(
        "sim.long_p99_us",
        "us",
        Lower,
        "moves only if scheduling semantics change",
    ),
    layer(
        "sim.p999_slowdown",
        "x",
        Lower,
        "the paper's SLO metric; moves only if scheduling semantics change",
    ),
    layer("sim.events_per_req", "count", Lower, SIM_PATH),
    layer("sim.ns_per_event", "ns", Lower, SIM_PATH),
    layer(
        "sim.preemptions_per_req",
        "count",
        Lower,
        "moves only if scheduling semantics change",
    ),
    layer(
        "sim.dispatcher_util",
        "ratio",
        Lower,
        "moves only if scheduling semantics change",
    ),
    layer(
        "sim.worker_idle_wait_frac",
        "ratio",
        Lower,
        "moves only if scheduling semantics change",
    ),
    layer("sim.max_jbsq_inflight", "count", Lower, LEDGER),
    // The traced pass against the untraced pass of the same invocation.
    layer("trace.capacity_overhead_pct", "%", Lower, TRACE_PATH),
    layer("trace.p50_overhead_pct", "%", Lower, TRACE_PATH),
    layer("trace.events_per_req", "count", Lower, TRACE_PATH),
    layer("trace.dropped", "count", Lower, LEDGER),
    layer("trace.signal_to_yield_p50_us", "us", Lower, PREEMPT_PATH),
    layer(
        "trace.dispatcher_busy_share",
        "ratio",
        Lower,
        "capacity_rps on rt_bimodal",
    ),
    layer(
        "trace.unmatched_signals_share",
        "ratio",
        Lower,
        PREEMPT_PATH,
    ),
    layer(
        "trace.span_sum_error_max",
        "ratio",
        Lower,
        "must stay under 0.05: child spans account for the client-observed latency",
    ),
    layer(
        "trace.spans_written",
        "count",
        Higher,
        "requests in the span file",
    ),
];
