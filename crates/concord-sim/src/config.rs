//! System configuration: which scheduling mechanisms a simulated runtime
//! uses. The paper's three systems (Shinjuku, Persephone-FCFS, Concord) and
//! its §5.4 ablations are all presets over the same knobs.
//!
//! The scheduling policy is not a sim-side knob: it is `concord-core`'s
//! [`PolicyKind`], the value the runtime's dispatcher takes. Every preset
//! uses `PsQuantum` (key 0: FIFO order, preempted requests rejoin at the
//! tail) except Persephone, which is `Fcfs` run-to-completion.

use crate::cost::CostModel;
use concord_core::PolicyKind;

/// How (and whether) workers are preempted at quantum expiry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PreemptMechanism {
    /// Run to completion; the quantum is ignored.
    None,
    /// Shinjuku-style posted inter-processor interrupts: precise but the
    /// worker pays `ipi_recv` plus a preemptive context switch. Relies on
    /// non-standard use of virtualization hardware (not cloud-deployable).
    Ipi,
    /// Kernel-mediated Linux IPIs: deployable anywhere, but reception
    /// costs double Shinjuku's posted IPIs (§2.2.1).
    LinuxIpi,
    /// Intel user-space interrupts (§5.6): precise, cheaper receive path.
    Uipi,
    /// Compiler-Interrupts-style `rdtsc()` self-checking: no notification
    /// cost, but every probe costs `rdtsc_probe` cycles (≈21% of runtime).
    Rdtsc,
    /// Concord's compiler-enforced cooperation: the dispatcher writes a
    /// dedicated cache line; the worker notices at its next probe
    /// (cheap, slightly imprecise).
    Coop,
}

impl PreemptMechanism {
    /// Human-readable name for tables and legends.
    pub fn name(self) -> &'static str {
        match self {
            PreemptMechanism::None => "none",
            PreemptMechanism::Ipi => "IPI",
            PreemptMechanism::LinuxIpi => "Linux IPI",
            PreemptMechanism::Uipi => "UIPI",
            PreemptMechanism::Rdtsc => "rdtsc",
            PreemptMechanism::Coop => "coop",
        }
    }

    /// Fractional slowdown this mechanism's *instrumentation* imposes on
    /// all application code running on a worker (its `c_proc`).
    pub fn proc_overhead(self, cost: &CostModel) -> f64 {
        match self {
            PreemptMechanism::None
            | PreemptMechanism::Ipi
            | PreemptMechanism::LinuxIpi
            | PreemptMechanism::Uipi => 0.0,
            PreemptMechanism::Rdtsc => cost.rdtsc_proc_overhead(),
            PreemptMechanism::Coop => cost.coop_proc_overhead(),
        }
    }
}

/// How requests reach workers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueDiscipline {
    /// A single physical queue: the worker pulls the next request only
    /// after finishing the previous one (synchronous, ≥ 2 coherence misses
    /// of idle time per request, §2.2.2).
    SingleQueue,
    /// Join-Bounded Shortest Queue with per-worker depth `k` (§3.2).
    /// `Jbsq(1)` is equivalent to a single queue.
    Jbsq(u8),
}

impl QueueDiscipline {
    /// The per-worker bound: 1 for a single queue, `k` for JBSQ(k).
    pub fn depth(self) -> u8 {
        match self {
            QueueDiscipline::SingleQueue => 1,
            QueueDiscipline::Jbsq(k) => k.max(1),
        }
    }

    /// True if dispatch is asynchronous (push-based JBSQ).
    pub fn is_jbsq(self) -> bool {
        matches!(self, QueueDiscipline::Jbsq(_))
    }

    /// Human-readable name.
    pub fn name(self) -> String {
        match self {
            QueueDiscipline::SingleQueue => "SQ".to_string(),
            QueueDiscipline::Jbsq(k) => format!("JBSQ({k})"),
        }
    }
}

/// Interval at which a work-conserving dispatcher's rdtsc probes make it
/// re-check its dispatching duties while it runs stolen work, ns.
pub const DISPATCHER_CHECK_NS: u64 = 1_000;

/// Control interval of the adaptive-quantum mirror, ns of simulated
/// time: 1 ms, scaled down from the runtime's 10 ms so short simulations
/// see many intervals.
pub const ADAPTIVE_INTERVAL_NS: u64 = 1_000_000;

/// Quantum floor of the adaptive-quantum mirror, ns: the runtime's
/// probe period.
pub const ADAPTIVE_MIN_NS: u64 = concord_core::config::PROBE_PERIOD.as_nanos() as u64;

/// Quantum ceiling of the adaptive-quantum mirror, ns: the runtime's
/// default `quantum_max`.
pub const ADAPTIVE_MAX_NS: u64 = 100_000;

/// Full configuration of one simulated system.
#[derive(Clone, Debug, PartialEq)]
pub struct SystemConfig {
    /// Display name (appears in tables/legends).
    pub name: String,
    /// Number of worker threads (the paper's default testbed uses 14).
    pub n_workers: usize,
    /// Scheduling quantum in nanoseconds (0 disables preemption).
    pub quantum_ns: u64,
    /// Preemption mechanism.
    pub preemption: PreemptMechanism,
    /// Queue discipline between dispatcher and workers.
    pub queue: QueueDiscipline,
    /// Scheduling policy: central-queue keys and whether quanta are
    /// policed — `concord-core`'s own [`PolicyKind`], so the sim orders
    /// its queue with the runtime dispatcher's code.
    pub policy: PolicyKind,
    /// Whether the dispatcher steals application work when all worker
    /// queues are full (§3.3). Stolen requests run with rdtsc
    /// instrumentation, re-check duties every [`DISPATCHER_CHECK_NS`],
    /// and cannot migrate back to workers.
    pub work_conserving: bool,
    /// Max bookkeeping duties (ingest/completion/requeue) the dispatcher
    /// folds into one batched operation. Batching amortizes per-op costs
    /// (followers cost 1/3 of the first) at the price of coarser-grained
    /// dispatching — §6's throughput-for-latency scalability lever. 1 =
    /// no batching (the default, matching the paper's prototype).
    pub dispatcher_batch: u32,
    /// Whether the adaptive per-class quantum controller runs: the
    /// runtime's own (`concord-core`'s `quantum` module), driven in the
    /// cycle domain with the `ADAPTIVE_*` constants, so sim↔runtime
    /// cross-validation covers the control law too. Off, the fixed
    /// `quantum_ns` applies to every class. Ignored when preemption is
    /// disabled.
    pub adaptive: bool,
    /// Machine cost model.
    pub cost: CostModel,
}

impl SystemConfig {
    /// Shinjuku (NSDI '19): single queue + posted-IPI preemption, dedicated
    /// dispatcher.
    pub fn shinjuku(n_workers: usize, quantum_ns: u64) -> Self {
        Self {
            name: "Shinjuku".to_string(),
            n_workers,
            quantum_ns,
            preemption: PreemptMechanism::Ipi,
            queue: QueueDiscipline::SingleQueue,
            policy: PolicyKind::PsQuantum,
            work_conserving: false,
            dispatcher_batch: 1,
            adaptive: false,
            cost: CostModel::paper_default(),
        }
    }

    /// Persephone configured as C-FCFS (§5.1): single queue, run to
    /// completion, dedicated dispatcher.
    pub fn persephone_fcfs(n_workers: usize) -> Self {
        Self {
            name: "Persephone-FCFS".to_string(),
            n_workers,
            quantum_ns: 0,
            preemption: PreemptMechanism::None,
            queue: QueueDiscipline::SingleQueue,
            policy: PolicyKind::Fcfs,
            work_conserving: false,
            dispatcher_batch: 1,
            adaptive: false,
            cost: CostModel::paper_default(),
        }
    }

    /// Full Concord: compiler-enforced cooperation + JBSQ(2) + a
    /// work-conserving dispatcher.
    pub fn concord(n_workers: usize, quantum_ns: u64) -> Self {
        Self {
            name: "Concord".to_string(),
            n_workers,
            quantum_ns,
            preemption: PreemptMechanism::Coop,
            queue: QueueDiscipline::Jbsq(2),
            policy: PolicyKind::PsQuantum,
            work_conserving: true,
            dispatcher_batch: 1,
            adaptive: false,
            cost: CostModel::paper_default(),
        }
    }

    /// Ablation (§5.4, Fig. 11): cooperation only, still a single queue and
    /// a dedicated dispatcher.
    pub fn concord_coop_sq(n_workers: usize, quantum_ns: u64) -> Self {
        Self {
            name: "Co-op+SQ".to_string(),
            preemption: PreemptMechanism::Coop,
            work_conserving: false,
            queue: QueueDiscipline::SingleQueue,
            ..Self::concord(n_workers, quantum_ns)
        }
    }

    /// Ablation (§5.4, Fig. 11): cooperation + JBSQ(2), dedicated dispatcher.
    pub fn concord_coop_jbsq(n_workers: usize, quantum_ns: u64) -> Self {
        Self {
            name: "Co-op+JBSQ(2)".to_string(),
            preemption: PreemptMechanism::Coop,
            work_conserving: false,
            queue: QueueDiscipline::Jbsq(2),
            ..Self::concord(n_workers, quantum_ns)
        }
    }

    /// Concord with the dispatcher's work stealing disabled (§5.5 notes
    /// users can do this to avoid the small low-load slowdown increase).
    pub fn concord_no_steal(n_workers: usize, quantum_ns: u64) -> Self {
        Self {
            name: "Concord w/o dispatcher work".to_string(),
            work_conserving: false,
            ..Self::concord(n_workers, quantum_ns)
        }
    }

    /// Renames the configuration (for ablation legends).
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Replaces the cost model (e.g. [`CostModel::sapphire_rapids`]).
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Sets the scheduling policy.
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the dispatcher duty batch size (clamped to ≥ 1).
    pub fn with_batch(mut self, batch: u32) -> Self {
        self.dispatcher_batch = batch.max(1);
        self
    }

    /// Arms the adaptive per-class quantum controller (see
    /// [`SystemConfig::adaptive`]).
    pub fn with_adaptive(mut self) -> Self {
        self.adaptive = true;
        self
    }

    /// The quantum in cycles (`u64::MAX` when preemption is disabled:
    /// no mechanism, no quantum, or a run-to-completion policy).
    pub fn quantum_cycles(&self) -> u64 {
        if self.preemption == PreemptMechanism::None
            || self.quantum_ns == 0
            || !self.policy.preempts()
        {
            u64::MAX
        } else {
            self.cost.ns_to_cycles(self.quantum_ns)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_descriptions() {
        let s = SystemConfig::shinjuku(14, 5_000);
        assert_eq!(s.preemption, PreemptMechanism::Ipi);
        assert_eq!(s.queue, QueueDiscipline::SingleQueue);
        assert!(!s.work_conserving);

        let p = SystemConfig::persephone_fcfs(14);
        assert_eq!(p.preemption, PreemptMechanism::None);
        assert_eq!(p.quantum_cycles(), u64::MAX);

        let c = SystemConfig::concord(14, 5_000);
        assert_eq!(c.preemption, PreemptMechanism::Coop);
        assert_eq!(c.queue, QueueDiscipline::Jbsq(2));
        assert!(c.work_conserving);
    }

    #[test]
    fn jbsq_one_has_single_queue_depth() {
        assert_eq!(QueueDiscipline::Jbsq(1).depth(), 1);
        assert_eq!(QueueDiscipline::SingleQueue.depth(), 1);
        assert_eq!(QueueDiscipline::Jbsq(2).depth(), 2);
        assert_eq!(QueueDiscipline::Jbsq(0).depth(), 1);
    }

    #[test]
    fn quantum_cycles_uses_clock() {
        let c = SystemConfig::concord(4, 5_000);
        assert_eq!(c.quantum_cycles(), 10_000); // 5µs at 2GHz
    }

    /// A run-to-completion policy disables the quantum but keeps the
    /// preset's mechanism (and so its instrumentation cost).
    #[test]
    fn fcfs_policy_disables_the_quantum() {
        assert_eq!(SystemConfig::persephone_fcfs(14).policy, PolicyKind::Fcfs);
        let c = SystemConfig::concord(4, 5_000).with_policy(PolicyKind::Fcfs);
        assert_eq!(c.quantum_cycles(), u64::MAX);
        assert_eq!(c.preemption, PreemptMechanism::Coop);
        for kind in PolicyKind::ALL {
            let c = SystemConfig::concord(4, 5_000).with_policy(kind);
            assert_eq!(c.quantum_cycles() == u64::MAX, !kind.preempts(), "{kind}");
        }
    }

    #[test]
    fn proc_overhead_by_mechanism() {
        let cost = CostModel::paper_default();
        assert_eq!(PreemptMechanism::Ipi.proc_overhead(&cost), 0.0);
        assert_eq!(PreemptMechanism::None.proc_overhead(&cost), 0.0);
        assert!(PreemptMechanism::Coop.proc_overhead(&cost) < 0.03);
        assert!(PreemptMechanism::Rdtsc.proc_overhead(&cost) >= 0.12);
    }

    #[test]
    fn ablation_names_are_distinct() {
        let names: Vec<String> = vec![
            SystemConfig::shinjuku(14, 5_000).name,
            SystemConfig::concord_coop_sq(14, 5_000).name,
            SystemConfig::concord_coop_jbsq(14, 5_000).name,
            SystemConfig::concord(14, 5_000).name,
        ];
        let mut dedup = names.clone();
        dedup.dedup();
        assert_eq!(names, dedup);
    }
}
