//! The paper's §2.1 analytical throughput-overhead model: the
//! per-worker overhead of Eq. 2, built from Eq. 3's per-preemption
//! costs. No figure plots Eq. 1's whole-system average or Eq. 4's
//! per-request finish term, so neither is here.
//!
//! These closed forms serve two purposes: they generate the pure
//! mechanism-overhead figures (Fig. 2, Fig. 12, Fig. 15, which the paper
//! itself measures with no-op preemption handlers on an otherwise idle
//! machine), and they cross-validate the discrete-event simulator — the
//! integration tests check that simulated overheads track these formulas.

use crate::config::PreemptMechanism;
use crate::cost::CostModel;

/// Per-preemption cost `c_pre / ⌊S/q⌋` components (Eq. 3).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PreemptCosts {
    /// Receiving the preemption notification (`c_notif`), cycles.
    pub notif: u64,
    /// Context switch (`c_switch`), cycles.
    pub switch: u64,
    /// Waiting for the next request (`c_next`), cycles.
    pub next: u64,
}

impl PreemptCosts {
    /// Total per-preemption cycles.
    pub fn total(&self) -> u64 {
        self.notif + self.switch + self.next
    }
}

/// Fig. 2 / Fig. 15: pure *notification + instrumentation* overhead of a
/// preemption mechanism at quantum `q_ns`, for long (`s_ns`) requests with
/// no-op handlers — context switch and next-request wait excluded, exactly
/// as the paper isolates it.
pub fn notification_overhead(
    mech: PreemptMechanism,
    cost: &CostModel,
    q_ns: u64,
    s_ns: u64,
) -> f64 {
    let s = cost.ns_to_cycles(s_ns);
    let q = cost.ns_to_cycles(q_ns);
    let n_pre = s.checked_div(q).unwrap_or(0);
    let (c_proc, c_notif) = match mech {
        PreemptMechanism::None => (0.0, 0),
        PreemptMechanism::Ipi => (0.0, cost.ipi_recv),
        PreemptMechanism::LinuxIpi => (0.0, cost.linux_ipi_recv),
        PreemptMechanism::Uipi => (0.0, cost.uipi_recv),
        PreemptMechanism::Rdtsc => (cost.rdtsc_proc_overhead(), 0),
        PreemptMechanism::Coop => (cost.coop_proc_overhead(), cost.coop_final_miss),
    };
    (c_proc * s as f64 + (n_pre * c_notif) as f64) / s as f64
}

/// Fig. 12: full preemptive-scheduling overhead (notification + switch +
/// next-request wait) for the three cumulative configurations.
pub fn preemption_overhead_full(
    mech: PreemptMechanism,
    jbsq: bool,
    cost: &CostModel,
    q_ns: u64,
    s_ns: u64,
) -> f64 {
    let s = cost.ns_to_cycles(s_ns);
    let q = cost.ns_to_cycles(q_ns);
    let n_pre = s.checked_div(q).unwrap_or(0);
    let (c_proc, notif, switch) = match mech {
        PreemptMechanism::None => (0.0, 0, 0),
        PreemptMechanism::Ipi => (0.0, cost.ipi_recv, cost.preemptive_switch),
        PreemptMechanism::LinuxIpi => (0.0, cost.linux_ipi_recv, cost.preemptive_switch),
        PreemptMechanism::Uipi => (0.0, cost.uipi_recv, cost.coop_switch),
        PreemptMechanism::Rdtsc => (cost.rdtsc_proc_overhead(), 0, cost.coop_switch),
        PreemptMechanism::Coop => (
            cost.coop_proc_overhead(),
            cost.coop_final_miss,
            cost.coop_switch,
        ),
    };
    // Single queue: after yielding, the worker waits through the full
    // dispatcher round trip; JBSQ: it only pays the local timer start.
    let next = if jbsq {
        cost.jbsq_timer_start
    } else {
        2 * cost.coherence_one_way + cost.disp_dispatch
    };
    let pre = PreemptCosts {
        notif,
        switch,
        next,
    };
    (c_proc * s as f64 + (n_pre * pre.total()) as f64) / s as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost() -> CostModel {
        CostModel::paper_default()
    }

    #[test]
    fn shinjuku_overheads_match_paper_quotes() {
        // §2.2.1 / Fig. 2: "33% at 2µs and 6% at 10µs" for posted IPIs.
        let c = cost();
        let at_2us = notification_overhead(PreemptMechanism::Ipi, &c, 2_000, 500_000);
        let at_10us = notification_overhead(PreemptMechanism::Ipi, &c, 10_000, 500_000);
        assert!((at_2us - 0.30).abs() < 0.05, "2µs: {at_2us}");
        assert!((at_10us - 0.06).abs() < 0.01, "10µs: {at_10us}");
    }

    #[test]
    fn linux_ipis_cost_double_posted_ipis() {
        // §2.2.1: "The corresponding overhead for Linux's easily-deployable
        // IPIs is double."
        let c = cost();
        let posted = notification_overhead(PreemptMechanism::Ipi, &c, 5_000, 500_000);
        let linux = notification_overhead(PreemptMechanism::LinuxIpi, &c, 5_000, 500_000);
        assert!(
            (linux / posted - 2.0).abs() < 0.05,
            "ratio={}",
            linux / posted
        );
    }

    #[test]
    fn rdtsc_overhead_is_flat_in_quantum() {
        let c = cost();
        let a = notification_overhead(PreemptMechanism::Rdtsc, &c, 1_000, 500_000);
        let b = notification_overhead(PreemptMechanism::Rdtsc, &c, 100_000, 500_000);
        assert!((a - b).abs() < 0.01, "a={a} b={b}");
        // ≈21% per the paper.
        assert!(a > 0.1 && a < 0.35, "a={a}");
    }

    #[test]
    fn concord_overhead_is_one_to_two_percent() {
        // Fig. 2: "Concord's overhead is near-constant at around 1-1.5%".
        let c = cost();
        for q in [1_000u64, 2_000, 5_000, 10_000, 25_000, 100_000] {
            let o = notification_overhead(PreemptMechanism::Coop, &c, q, 500_000);
            assert!(o > 0.005 && o < 0.12, "q={q} o={o}");
        }
        // Near-constant from 5µs up (the notification miss amortizes away).
        for q in [5_000u64, 10_000, 25_000, 100_000] {
            let o = notification_overhead(PreemptMechanism::Coop, &c, q, 500_000);
            assert!(o < 0.03, "q={q} o={o}");
        }
    }

    #[test]
    fn concord_beats_ipi_at_small_quanta_and_converges_at_25us() {
        // Fig. 2: 12x lower at 2µs, 10x lower at 5µs, roughly equal ≈25µs.
        let c = cost();
        let ratio = |q| {
            notification_overhead(PreemptMechanism::Ipi, &c, q, 500_000)
                / notification_overhead(PreemptMechanism::Coop, &c, q, 500_000)
        };
        assert!(ratio(2_000) > 4.0, "2µs ratio={}", ratio(2_000));
        assert!(ratio(5_000) > 3.0, "5µs ratio={}", ratio(5_000));
        assert!(ratio(25_000) < 3.0, "25µs ratio={}", ratio(25_000));
    }

    #[test]
    fn uipi_is_about_twice_concord() {
        // Fig. 15: Concord imposes ≈2x lower overhead than UIPIs.
        let c = CostModel::sapphire_rapids();
        let uipi = notification_overhead(PreemptMechanism::Uipi, &c, 5_000, 500_000);
        let coop = notification_overhead(PreemptMechanism::Coop, &c, 5_000, 500_000);
        let ratio = uipi / coop;
        assert!(ratio > 1.3 && ratio < 4.0, "ratio={ratio}");
    }

    #[test]
    fn full_stack_reduction_is_about_4x() {
        // Fig. 12: Concord (coop+JBSQ) reduces preemptive-scheduling
        // overhead ~4x vs Shinjuku (IPI+SQ).
        let c = cost();
        let shinjuku = preemption_overhead_full(PreemptMechanism::Ipi, false, &c, 5_000, 500_000);
        let concord = preemption_overhead_full(PreemptMechanism::Coop, true, &c, 5_000, 500_000);
        let ratio = shinjuku / concord;
        assert!(ratio > 3.0 && ratio < 8.0, "ratio={ratio}");
    }

    #[test]
    fn coop_sq_sits_between_shinjuku_and_concord() {
        let c = cost();
        let shinjuku = preemption_overhead_full(PreemptMechanism::Ipi, false, &c, 2_000, 500_000);
        let coop_sq = preemption_overhead_full(PreemptMechanism::Coop, false, &c, 2_000, 500_000);
        let concord = preemption_overhead_full(PreemptMechanism::Coop, true, &c, 2_000, 500_000);
        assert!(
            shinjuku > coop_sq && coop_sq > concord,
            "shinjuku={shinjuku} coop_sq={coop_sq} concord={concord}"
        );
    }
}
