//! Runtime configuration: the validated builder and the config struct.

use crate::clock::Clock;
use std::time::Duration;

/// Configuration of a [`Runtime`](crate::Runtime).
///
/// Build one with [`RuntimeConfig::builder`] (validated, returns
/// [`ConfigError`] instead of panicking at start), or take a preset via
/// [`RuntimeConfig::paper_defaults`] / [`RuntimeConfig::small_test`].
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Number of worker threads (per shard, when sharded).
    pub n_workers: usize,
    /// Number of dispatcher+worker shards the
    /// [`Runtime`](crate::Runtime) runs; each shard runs its own
    /// dispatcher thread, `n_workers` workers, and one transport, joined
    /// by the cross-shard hand-off ([`crate::shard`]).
    /// [`Runtime::start_shards`](crate::Runtime::start_shards) takes one
    /// transport per shard.
    pub num_shards: usize,
    /// Scheduling quantum. Requests running longer than this are signaled
    /// to yield at their next preemption point, and a request the
    /// dispatcher steals (§3.3) self-preempts after one quantum. The
    /// builder rejects a quantum below [`PROBE_PERIOD`].
    pub quantum: Duration,
    /// JBSQ per-worker queue bound `k` (§3.2; the paper uses 2).
    /// 1 is equivalent to a synchronous single queue.
    pub jbsq_depth: usize,
    /// Whether the dispatcher executes requests itself when all worker
    /// queues are full (§3.3).
    pub work_conserving: bool,
    /// Scheduling policy the dispatcher applies: queue ordering and
    /// whether quanta are policed. Defaults to
    /// [`PolicyKind::PsQuantum`](crate::policy::PolicyKind::PsQuantum),
    /// the paper's quantum-based processor sharing. See
    /// [`crate::policy`].
    pub policy: crate::policy::PolicyKind,
    /// Whether the dispatcher retunes the per-class effective quantum
    /// every [`quantum_control_interval`](Self::quantum_control_interval)
    /// from the observed per-class service-time distribution (see
    /// [`crate::quantum`]). Off by default: `quantum` then applies to
    /// every class, exactly as before.
    pub adaptive_quantum: bool,
    /// Ceiling the adaptive controller may raise a class's quantum to
    /// (the floor is [`PROBE_PERIOD`]). Ignored unless `adaptive_quantum`.
    pub quantum_max: Duration,
    /// Cadence of the quantum/SLO feedback controller.
    pub quantum_control_interval: Duration,
    /// Per-class p99 sojourn budgets as `(class, budget in µs)` pairs
    /// (the `--slo CLASS:P99_US` flag). A class observed blowing its
    /// budget is shed at admission with RETRY until its windowed p99
    /// falls back under budget. Empty (the default) disables shedding.
    pub slo: Vec<(u16, u64)>,
    /// Time source for every deadline and telemetry stamp in the runtime.
    /// Defaults to monotonic wall time; tests install a
    /// [`VirtualClock`](crate::clock::VirtualClock) for determinism.
    pub clock: Clock,
    /// Whether the scheduling-event tracer is armed. On by default (the
    /// tracer is designed to be left on); setting it false skips lane
    /// construction entirely, so emit hooks see no lane and cost one
    /// branch.
    pub trace: bool,
    /// Capacity of each per-track trace ring, in events (16 bytes each).
    /// Rings absorb bursts between periodic collector drains; overflow is
    /// drop-and-count, never a stall.
    pub trace_ring_cap: usize,
    /// Flight-recorder mode: when set, the trace collector retains only
    /// this much trailing wall time of events (older records age out at
    /// periodic compactions) so a long-running server can keep the
    /// tracer armed with bounded memory and export the last N seconds on
    /// demand. `None` (the default) accumulates the whole run, which is
    /// what batch experiments and the conformance oracles want.
    pub trace_retain: Option<Duration>,
    /// Deterministic fault schedule consulted by the dispatcher and
    /// workers (conformance testing only; `None` in production, where each
    /// seam costs one `None` branch).
    pub fault_injector: Option<std::sync::Arc<crate::fault::FaultInjector>>,
}

/// Default per-track trace-ring capacity (events).
pub const DEFAULT_TRACE_RING_CAP: usize = 64 * 1024;

/// Interval between the application's preemption-point probes: the
/// paper's instrumentation pass inserts one roughly every microsecond of
/// straight-line code (§3.1). A quantum below it cannot be honoured —
/// the signal would always land between probes — so it is both the
/// smallest quantum the builder accepts and the adaptive controller's
/// floor.
pub const PROBE_PERIOD: Duration = Duration::from_micros(1);

/// A [`RuntimeBuilder`] configuration the runtime cannot run with.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// `workers(0)`: the dispatcher needs at least one worker to feed.
    NoWorkers,
    /// `num_shards(0)`: a runtime needs at least one shard.
    NoShards,
    /// `jbsq_depth(0)`: a zero JBSQ bound can never dispatch anything.
    ZeroJbsqDepth,
    /// The quantum is shorter than [`PROBE_PERIOD`], so no signal could
    /// ever be honoured on time.
    QuantumShorterThanProbe {
        /// The configured quantum.
        quantum: Duration,
    },
    /// `adaptive_quantum` with a `quantum_max` below the base quantum:
    /// the controller's clamp range would exclude the configured start
    /// point.
    QuantumMaxBelowQuantum {
        /// The configured base quantum.
        quantum: Duration,
        /// The configured ceiling that undercuts it.
        quantum_max: Duration,
    },
    /// A zero `quantum_control_interval` with the controller enabled
    /// (adaptive quanta or SLO budgets): the control loop would spin.
    ZeroControlInterval,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NoWorkers => write!(f, "runtime needs at least one worker"),
            Self::NoShards => write!(f, "runtime needs at least one shard"),
            Self::ZeroJbsqDepth => write!(f, "JBSQ depth k must be at least 1"),
            Self::QuantumShorterThanProbe { quantum } => write!(
                f,
                "quantum {quantum:?} is shorter than the preemption-probe \
                 period {PROBE_PERIOD:?}; signals could never be honoured"
            ),
            Self::QuantumMaxBelowQuantum {
                quantum,
                quantum_max,
            } => write!(
                f,
                "quantum_max {quantum_max:?} is below the base quantum \
                 {quantum:?}; the adaptive clamp range would exclude it"
            ),
            Self::ZeroControlInterval => write!(
                f,
                "quantum_control_interval must be non-zero when adaptive \
                 quanta or SLO budgets are enabled"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Validated builder for [`RuntimeConfig`].
///
/// Starts from the paper's per-field defaults with one worker; chain
/// setters, then call [`RuntimeBuilder::build`] for the config —
/// invalid combinations (zero workers, `k == 0`, quantum below the probe
/// period) come back as `Err(ConfigError)` instead of a panic at start.
#[derive(Clone, Debug)]
pub struct RuntimeBuilder {
    cfg: RuntimeConfig,
}

impl Default for RuntimeBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl RuntimeBuilder {
    /// A builder holding the paper's defaults with a single worker.
    pub fn new() -> Self {
        Self {
            cfg: RuntimeConfig {
                n_workers: 1,
                num_shards: 1,
                quantum: Duration::from_micros(5),
                jbsq_depth: 2,
                work_conserving: true,
                policy: crate::policy::PolicyKind::PsQuantum,
                adaptive_quantum: false,
                quantum_max: Duration::from_micros(100),
                quantum_control_interval: Duration::from_millis(10),
                slo: Vec::new(),
                clock: Clock::monotonic(),
                trace: true,
                trace_ring_cap: DEFAULT_TRACE_RING_CAP,
                trace_retain: None,
                fault_injector: None,
            },
        }
    }

    /// Preset: the paper's defaults — JBSQ(2), work conservation on,
    /// 5 µs quantum — with `n_workers` workers.
    pub fn paper_defaults(self, n_workers: usize) -> Self {
        let mut b = Self::new();
        b.cfg.n_workers = n_workers;
        b
    }

    /// Preset: a configuration suited to CI machines — 2 workers and a
    /// coarse quantum so OS-scheduler noise doesn't drown the mechanism.
    pub fn small_test(self) -> Self {
        let mut b = Self::new();
        b.cfg.n_workers = 2;
        b.cfg.quantum = Duration::from_millis(1);
        b
    }

    /// Sets the number of worker threads.
    pub fn workers(mut self, n: usize) -> Self {
        self.cfg.n_workers = n;
        self
    }

    /// Sets the number of dispatcher+worker shards (validated ≥ 1 at
    /// build time).
    pub fn num_shards(mut self, n: usize) -> Self {
        self.cfg.num_shards = n;
        self
    }

    /// Sets the scheduling quantum.
    pub fn quantum(mut self, quantum: Duration) -> Self {
        self.cfg.quantum = quantum;
        self
    }

    /// Sets the JBSQ depth `k` (validated ≥ 1 at build time).
    pub fn jbsq_depth(mut self, k: usize) -> Self {
        self.cfg.jbsq_depth = k;
        self
    }

    /// Enables or disables dispatcher work conservation.
    pub fn work_conserving(mut self, on: bool) -> Self {
        self.cfg.work_conserving = on;
        self
    }

    /// Selects the scheduling policy (queue ordering + preemption
    /// gating). See [`crate::policy::PolicyKind`].
    pub fn policy(mut self, policy: crate::policy::PolicyKind) -> Self {
        self.cfg.policy = policy;
        self
    }

    /// Enables or disables the adaptive per-class quantum controller
    /// (see [`crate::quantum`]).
    pub fn adaptive_quantum(mut self, on: bool) -> Self {
        self.cfg.adaptive_quantum = on;
        self
    }

    /// Sets the ceiling the adaptive controller may raise a class's
    /// quantum to (validated ≥ the base quantum at build time when the
    /// controller is enabled).
    pub fn quantum_max(mut self, max: Duration) -> Self {
        self.cfg.quantum_max = max;
        self
    }

    /// Sets the quantum/SLO feedback controller's cadence.
    pub fn quantum_control_interval(mut self, every: Duration) -> Self {
        self.cfg.quantum_control_interval = every;
        self
    }

    /// Adds a per-class p99 sojourn budget in microseconds (the
    /// `--slo CLASS:P99_US` flag); call once per class.
    pub fn slo_budget(mut self, class: u16, p99_us: u64) -> Self {
        self.cfg.slo.push((class, p99_us));
        self
    }

    /// Replaces the full per-class SLO budget list.
    pub fn slo(mut self, budgets: Vec<(u16, u64)>) -> Self {
        self.cfg.slo = budgets;
        self
    }

    /// Installs a time source (e.g. a virtual clock for deterministic
    /// tests).
    pub fn clock(mut self, clock: Clock) -> Self {
        self.cfg.clock = clock;
        self
    }

    /// Arms or disarms the scheduling-event tracer.
    pub fn trace(mut self, on: bool) -> Self {
        self.cfg.trace = on;
        self
    }

    /// Sets the per-track trace-ring capacity (clamped to ≥ 1).
    pub fn trace_ring_cap(mut self, cap: usize) -> Self {
        self.cfg.trace_ring_cap = cap.max(1);
        self
    }

    /// Switches the tracer into flight-recorder mode: keep only the
    /// trailing `window` of events (see
    /// [`RuntimeConfig::trace_retain`]).
    pub fn trace_retain(mut self, window: Duration) -> Self {
        self.cfg.trace_retain = Some(window);
        self
    }

    /// Installs a fault schedule for this runtime (conformance testing).
    pub fn fault_injector(mut self, injector: std::sync::Arc<crate::fault::FaultInjector>) -> Self {
        self.cfg.fault_injector = Some(injector);
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<RuntimeConfig, ConfigError> {
        if self.cfg.n_workers == 0 {
            return Err(ConfigError::NoWorkers);
        }
        if self.cfg.num_shards == 0 {
            return Err(ConfigError::NoShards);
        }
        if self.cfg.jbsq_depth == 0 {
            return Err(ConfigError::ZeroJbsqDepth);
        }
        if self.cfg.quantum < PROBE_PERIOD {
            return Err(ConfigError::QuantumShorterThanProbe {
                quantum: self.cfg.quantum,
            });
        }
        if self.cfg.adaptive_quantum && self.cfg.quantum_max < self.cfg.quantum {
            return Err(ConfigError::QuantumMaxBelowQuantum {
                quantum: self.cfg.quantum,
                quantum_max: self.cfg.quantum_max,
            });
        }
        if (self.cfg.adaptive_quantum || !self.cfg.slo.is_empty())
            && self.cfg.quantum_control_interval.is_zero()
        {
            return Err(ConfigError::ZeroControlInterval);
        }
        Ok(self.cfg)
    }
}

impl RuntimeConfig {
    /// A validated builder seeded with the paper's per-field defaults.
    pub fn builder() -> RuntimeBuilder {
        RuntimeBuilder::new()
    }

    /// The paper's defaults: JBSQ(2), work conservation on, 5 µs quantum.
    pub fn paper_defaults(n_workers: usize) -> Self {
        RuntimeBuilder::new()
            .paper_defaults(n_workers.max(1))
            .build()
            .expect("paper defaults are valid")
    }

    /// A configuration suited to CI machines: 2 workers and a coarse
    /// quantum so OS-scheduler noise doesn't drown the mechanism.
    pub fn small_test() -> Self {
        RuntimeBuilder::new()
            .small_test()
            .build()
            .expect("small-test defaults are valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_paper() {
        let c = RuntimeConfig::paper_defaults(14);
        assert_eq!(c.n_workers, 14);
        assert_eq!(c.jbsq_depth, 2);
        assert!(c.work_conserving);
        assert_eq!(c.quantum, Duration::from_micros(5));
        assert!(!c.clock.is_virtual(), "production clock is wall time");
    }

    #[test]
    fn builder_applies_every_setter() {
        let (clock, _v) = Clock::manual();
        let c = RuntimeConfig::builder()
            .small_test()
            .quantum(Duration::from_micros(100))
            .jbsq_depth(3)
            .work_conserving(false)
            .policy(crate::policy::PolicyKind::Srpt { noise_pct: 10 })
            .adaptive_quantum(true)
            .quantum_max(Duration::from_millis(2))
            .quantum_control_interval(Duration::from_millis(5))
            .slo_budget(0, 200)
            .slo_budget(7, 5_000)
            .clock(clock)
            .build()
            .expect("valid config");
        assert_eq!(c.n_workers, 2, "small_test preset");
        assert_eq!(c.quantum, Duration::from_micros(100));
        assert_eq!(c.jbsq_depth, 3);
        assert!(!c.work_conserving);
        assert_eq!(c.policy, crate::policy::PolicyKind::Srpt { noise_pct: 10 });
        assert!(c.adaptive_quantum);
        assert_eq!(c.quantum_max, Duration::from_millis(2));
        assert_eq!(c.quantum_control_interval, Duration::from_millis(5));
        assert_eq!(c.slo, vec![(0, 200), (7, 5_000)]);
        assert!(c.clock.is_virtual());
    }

    #[test]
    fn num_shards_defaults_to_one_and_applies() {
        assert_eq!(RuntimeConfig::paper_defaults(2).num_shards, 1);
        let c = RuntimeConfig::builder()
            .num_shards(4)
            .build()
            .expect("valid config");
        assert_eq!(c.num_shards, 4);
    }

    #[test]
    #[should_panic(expected = "one transport per shard")]
    fn runtime_start_panics_on_more_than_one_shard() {
        use crate::transport::spsc;
        let (_, rx) = spsc::<concord_net::Request>(8);
        let (tx, _) = spsc::<concord_net::Response>(8);
        let mut cfg = RuntimeConfig::small_test();
        cfg.num_shards = 2;
        crate::Runtime::start(cfg, std::sync::Arc::new(crate::SpinApp::new()), rx, tx);
    }

    #[test]
    fn builder_rejects_invalid_configs() {
        assert_eq!(
            RuntimeConfig::builder().workers(0).build().unwrap_err(),
            ConfigError::NoWorkers
        );
        assert_eq!(
            RuntimeConfig::builder().num_shards(0).build().unwrap_err(),
            ConfigError::NoShards
        );
        assert_eq!(
            RuntimeConfig::builder().jbsq_depth(0).build().unwrap_err(),
            ConfigError::ZeroJbsqDepth
        );
        let short = PROBE_PERIOD - Duration::from_nanos(1);
        let err = RuntimeConfig::builder().quantum(short).build().unwrap_err();
        assert_eq!(err, ConfigError::QuantumShorterThanProbe { quantum: short });
        // Errors render as human-readable text.
        assert!(err.to_string().contains("probe"));
        // A quantum of exactly one probe period is the shortest accepted.
        RuntimeConfig::builder()
            .quantum(PROBE_PERIOD)
            .build()
            .expect("a one-probe quantum is valid");
        let err = RuntimeConfig::builder()
            .adaptive_quantum(true)
            .quantum(Duration::from_micros(50))
            .quantum_max(Duration::from_micros(10))
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::QuantumMaxBelowQuantum { .. }));
        assert_eq!(
            RuntimeConfig::builder()
                .slo_budget(0, 100)
                .quantum_control_interval(Duration::ZERO)
                .build()
                .unwrap_err(),
            ConfigError::ZeroControlInterval
        );
        // quantum_max is ignored (not validated) when the controller is
        // off — a fixed-quantum config can't be rejected by a knob it
        // never reads.
        RuntimeConfig::builder()
            .quantum(Duration::from_micros(50))
            .quantum_max(Duration::from_micros(10))
            .build()
            .expect("fixed-quantum config ignores quantum_max");
    }

    #[test]
    fn adaptive_quantum_defaults_off_with_empty_slo() {
        let c = RuntimeConfig::paper_defaults(2);
        assert!(!c.adaptive_quantum);
        assert!(c.slo.is_empty());
        assert!(!c.quantum_control_interval.is_zero());
    }

    #[test]
    fn trace_defaults_on_and_builders_apply() {
        let c = RuntimeConfig::paper_defaults(2);
        assert!(c.trace, "tracer is always-on by default");
        assert_eq!(c.trace_ring_cap, DEFAULT_TRACE_RING_CAP);
        let c = RuntimeConfig::builder()
            .trace(false)
            .trace_ring_cap(0)
            .build()
            .expect("valid config");
        assert!(!c.trace);
        assert_eq!(c.trace_ring_cap, 1, "ring cap clamps to 1");
    }

    #[test]
    fn fault_injector_defaults_off_and_installs() {
        use crate::fault::FaultInjector;
        let c = RuntimeConfig::small_test();
        assert!(c.fault_injector.is_none());
        let inj = std::sync::Arc::new(FaultInjector::new());
        let c = RuntimeConfig::builder()
            .fault_injector(inj.clone())
            .build()
            .expect("valid config");
        assert!(c.fault_injector.is_some());
    }
}
