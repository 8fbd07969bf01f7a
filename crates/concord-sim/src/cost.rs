//! The calibrated cycle-cost model (paper §2–§3).
//!
//! Every constant here is taken from the paper's measurements on its
//! CloudLab c6420 testbed, normalized to the 2 GHz clock the paper's §2.2.1
//! arithmetic assumes. The simulator is parameterized entirely through this
//! struct, so "what if coherence misses were 1.5× pricier" (the Sapphire
//! Rapids scenario of Fig. 15) is a one-field change.

/// Cycle costs and clock configuration for a simulated machine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Clock frequency in GHz (cycles per nanosecond).
    pub ghz: f64,

    // --- Preemption notification costs (§2.2.1, §3.1) --------------------
    /// Cycles for a worker to *receive* a Shinjuku-style posted IPI.
    pub ipi_recv: u64,
    /// Cycles for a worker to receive a Linux (kernel-mediated) IPI.
    pub linux_ipi_recv: u64,
    /// Cycles for a worker to receive an Intel user-space interrupt (§5.6).
    pub uipi_recv: u64,
    /// Cycles for the dispatcher to post an IPI (write to APIC/MSR path).
    pub ipi_send: u64,
    /// Cycles for one `rdtsc()` bookkeeping probe.
    pub rdtsc_probe: u64,
    /// Cycles for one Concord cache-line probe when the line is L1-resident
    /// (load + compare).
    pub coop_probe: u64,
    /// Cycles for the final Concord probe: a read-after-write coherence miss
    /// on the dedicated line the dispatcher just wrote.
    pub coop_final_miss: u64,
    /// Cycles for the dispatcher to write a worker's dedicated cache line.
    pub coop_signal_write: u64,

    // --- Instrumentation density (§4.3) -----------------------------------
    /// IR instructions between probes (the paper: ≈200 after loop unrolling).
    pub probe_spacing_instrs: u64,
    /// Average retired instructions per cycle assumed when converting probe
    /// spacing into cycles. 1.0 makes a 200-instruction spacing equal 200
    /// cycles, which reproduces the paper's ≈1% Concord / ≈21% rdtsc
    /// instrumentation overheads.
    pub ipc: f64,

    // --- Worker ↔ dispatcher communication (§2.2.2) -----------------------
    /// One-way cache-coherence transfer latency between two cores.
    pub coherence_one_way: u64,
    /// Cooperative (user-level) context switch, ≈100 ns (§3.1).
    pub coop_switch: u64,
    /// Preemptive context switch after an interrupt (register + kernel-ish
    /// state), costlier than the cooperative path.
    pub preemptive_switch: u64,
    /// Cycles a worker spends starting its own quantum timer under JBSQ's
    /// asynchronous dispatch (§3.2: "the worker must start a timer").
    pub jbsq_timer_start: u64,

    // --- Dispatcher micro-op costs (calibrated to §5.2's Fixed(1) ceiling) -
    /// Ingesting one arrival from the NIC ring into the central queue.
    pub disp_ingest: u64,
    /// Selecting a target worker and pushing one request descriptor.
    pub disp_dispatch: u64,
    /// Extra per-worker scan cost for JBSQ's shortest-queue selection
    /// (the ≈2% penalty on Fixed(1), §5.2).
    pub disp_jbsq_scan_per_worker: u64,
    /// Processing one asynchronous worker-completion notice.
    pub disp_completion: u64,
    /// Re-enqueueing one preempted request onto the central queue.
    pub disp_requeue: u64,
    /// Read-after-write miss the dispatcher takes when polling a worker's
    /// "requesting" flag in single-queue mode (§2.2.2's first miss).
    pub disp_sq_flag_read: u64,
}

impl CostModel {
    /// The paper's default machine model: 2 GHz clock and the §2–§3 costs.
    pub fn paper_default() -> Self {
        Self {
            ghz: 2.0,
            ipi_recv: 1200,
            linux_ipi_recv: 2400,
            uipi_recv: 600,
            ipi_send: 300,
            rdtsc_probe: 30,
            coop_probe: 2,
            coop_final_miss: 150,
            coop_signal_write: 100,
            probe_spacing_instrs: 200,
            ipc: 1.0,
            coherence_one_way: 200,
            coop_switch: 200,
            preemptive_switch: 400,
            jbsq_timer_start: 30,
            disp_ingest: 100,
            disp_dispatch: 250,
            disp_jbsq_scan_per_worker: 3,
            disp_completion: 120,
            disp_requeue: 100,
            disp_sq_flag_read: 150,
        }
    }

    /// The Fig. 15 machine: a 192-core Sapphire-Rapids-like part where
    /// cache-coherence misses are ≈1.5× more expensive (§5.6) and UIPIs
    /// are available.
    pub fn sapphire_rapids() -> Self {
        let base = Self::paper_default();
        Self {
            coop_final_miss: (base.coop_final_miss as f64 * 1.5) as u64,
            coop_signal_write: (base.coop_signal_write as f64 * 1.5) as u64,
            coherence_one_way: (base.coherence_one_way as f64 * 1.5) as u64,
            // UIPI delivery also crosses the coherence fabric (§5.6), so it
            // scales by the same factor.
            uipi_recv: (base.uipi_recv as f64 * 1.5) as u64,
            ..base
        }
    }

    /// Converts nanoseconds to cycles under this clock.
    pub fn ns_to_cycles(&self, ns: u64) -> u64 {
        (ns as f64 * self.ghz).round() as u64
    }

    /// Converts cycles to (fractional) nanoseconds under this clock.
    pub fn cycles_to_ns(&self, cycles: u64) -> f64 {
        cycles as f64 / self.ghz
    }

    /// Converts cycles to (fractional) microseconds under this clock.
    pub fn cycles_to_us(&self, cycles: u64) -> f64 {
        self.cycles_to_ns(cycles) / 1_000.0
    }

    /// Cycles between two consecutive probes given the instrumentation
    /// density (`probe_spacing_instrs / ipc`).
    pub fn probe_spacing_cycles(&self) -> u64 {
        ((self.probe_spacing_instrs as f64 / self.ipc).round() as u64).max(1)
    }

    /// Fractional worker-side throughput overhead of Concord's cache-line
    /// probes: one `coop_probe` every probe interval.
    pub fn coop_proc_overhead(&self) -> f64 {
        self.coop_probe as f64 / self.probe_spacing_cycles() as f64
    }

    /// Fractional overhead of `rdtsc()` instrumentation at the same probe
    /// density (the Compiler-Interrupts approach, §2.2.1).
    pub fn rdtsc_proc_overhead(&self) -> f64 {
        self.rdtsc_probe as f64 / self.probe_spacing_cycles() as f64
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        let c = CostModel::paper_default();
        assert_eq!(c.ns_to_cycles(1_000), 2_000);
        assert_eq!(c.cycles_to_ns(2_000), 1_000.0);
        assert_eq!(c.cycles_to_us(10_000), 5.0);
    }

    #[test]
    fn paper_headline_ratios_hold() {
        let c = CostModel::paper_default();
        // §3.1: Concord's notification is 1/8th the cost of a Shinjuku IPI.
        assert_eq!(c.ipi_recv / c.coop_final_miss, 8);
        // §3.1: the L1-resident probe is ~16x cheaper than rdtsc (30 vs 2).
        assert!(c.rdtsc_probe / c.coop_probe >= 15);
        // §2.2.1: Linux IPIs cost double Shinjuku's posted IPIs.
        assert_eq!(c.linux_ipi_recv, 2 * c.ipi_recv);
        // §2.2.2: c_next is at least two coherence misses ≈ 400 cycles.
        assert_eq!(2 * c.coherence_one_way, 400);
    }

    #[test]
    fn ipi_overhead_matches_section_2_examples() {
        // §2.2.1: "receiving an IPI in Shinjuku costs ≈1200 cycles which
        // results in an ≈12% overhead for q = 5µs, and an ≈30% overhead for
        // q = 2µs, assuming a 2GHz clock."
        let c = CostModel::paper_default();
        let q5 = c.ns_to_cycles(5_000) as f64;
        let q2 = c.ns_to_cycles(2_000) as f64;
        assert!((c.ipi_recv as f64 / q5 - 0.12).abs() < 0.01);
        assert!((c.ipi_recv as f64 / q2 - 0.30).abs() < 0.01);
    }

    #[test]
    fn coop_overhead_is_about_one_percent() {
        let c = CostModel::paper_default();
        let o = c.coop_proc_overhead();
        assert!(o > 0.005 && o < 0.03, "coop overhead={o}");
    }

    #[test]
    fn rdtsc_overhead_is_tens_of_percent() {
        // §2.2.1 reports ≈21% for probes every ~200 instructions.
        let c = CostModel::paper_default();
        let o = c.rdtsc_proc_overhead();
        assert!((0.12..0.35).contains(&o), "rdtsc overhead={o}");
    }

    #[test]
    fn sapphire_rapids_scales_coherence() {
        let base = CostModel::paper_default();
        let spr = CostModel::sapphire_rapids();
        assert_eq!(spr.coop_final_miss, base.coop_final_miss * 3 / 2);
        assert_eq!(spr.coherence_one_way, base.coherence_one_way * 3 / 2);
        // Non-coherence costs are unchanged.
        assert_eq!(spr.rdtsc_probe, base.rdtsc_probe);
        assert_eq!(spr.ipi_recv, base.ipi_recv);
    }
}
