//! Property tests over the discrete-event simulator: conservation,
//! determinism and sanity invariants must hold for arbitrary
//! configurations and loads, not just the figure operating points.
//!
//! Cases are drawn from the deterministic [`Gen`] stream (seeded per
//! case index, overridable case count via `PROPTEST_CASES`), so a failure
//! message's `case` number is sufficient to replay it exactly.

use concord_core::PolicyKind;
use concord_sim::{simulate, PreemptMechanism, QueueDiscipline, SimParams, SystemConfig};
use concord_workloads::dist::Dist;
use concord_workloads::mix::{ClassSpec, Mix};
use concord_workloads::Gen;

fn cases(default: u64) -> u64 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn arb_mechanism(g: &mut Gen) -> PreemptMechanism {
    *g.pick(&[
        PreemptMechanism::None,
        PreemptMechanism::Ipi,
        PreemptMechanism::LinuxIpi,
        PreemptMechanism::Uipi,
        PreemptMechanism::Rdtsc,
        PreemptMechanism::Coop,
    ])
}

fn arb_config(g: &mut Gen) -> SystemConfig {
    let n = g.usize_in(1, 6);
    let quantum = *g.pick(&[0u64, 2_000, 5_000, 20_000]);
    let mut cfg = SystemConfig::concord(n, quantum);
    cfg.preemption = arb_mechanism(g);
    cfg.queue = *g.pick(&[
        QueueDiscipline::SingleQueue,
        QueueDiscipline::Jbsq(1),
        QueueDiscipline::Jbsq(2),
        QueueDiscipline::Jbsq(4),
    ]);
    cfg.work_conserving = g.bool();
    cfg.policy = *g.pick(&PolicyKind::ALL);
    cfg.name = "prop".into();
    cfg
}

fn arb_workload(g: &mut Gen) -> Mix {
    let short_us = g.u64_in(1, 199);
    let long_us = g.u64_in(1, 499);
    let short_weight = g.u64_in(1, 99) as u32;
    Mix::new(
        "prop",
        vec![
            ClassSpec::new(
                "short",
                f64::from(short_weight),
                Dist::fixed_us(short_us as f64),
            ),
            ClassSpec::new(
                "long",
                f64::from(100 - short_weight.min(99)),
                Dist::fixed_us(long_us as f64),
            ),
        ],
    )
}

/// Every generated request is accounted for: completed or censored, and
/// the new conservation fields (`arrivals`, `incomplete`) balance exactly.
#[test]
fn conservation_of_requests() {
    for case in 0..cases(24) {
        let mut g = Gen::new(0xC0_5E_00 + case);
        let cfg = arb_config(&mut g);
        let wl = arb_workload(&mut g);
        let rate_scale = g.u64_in(1, 39) as f64; // 2.5%..100% of a rough bound
        let seed = g.u64_in(0, 999);

        use concord_workloads::Workload;
        let requests = 2_000u64;
        let cap = cfg.n_workers as f64 / (wl.mean_service_ns() * 1e-9);
        let rate = cap * rate_scale / 40.0;
        let r = simulate(&cfg, wl, &SimParams::new(rate, requests, seed));
        // Exact conservation over the whole run, warmup included.
        assert_eq!(
            r.arrivals,
            r.completed + r.incomplete,
            "case {case}: arrivals={} completed={} incomplete={}",
            r.arrivals,
            r.completed,
            r.incomplete
        );
        assert_eq!(r.arrivals, requests, "case {case}");
        // JBSQ occupancy never exceeds the configured bound.
        if let QueueDiscipline::Jbsq(k) = cfg.queue {
            assert!(
                r.max_jbsq_inflight <= u64::from(k),
                "case {case}: max inflight {} > k={k}",
                r.max_jbsq_inflight
            );
        }
        // Warmup excludes 10% from metrics but not from completion
        // accounting; censoring only records post-warmup stragglers.
        assert!(r.completed <= requests, "case {case}");
        assert!(
            r.completed + r.censored >= (requests as f64 * 0.9) as u64,
            "case {case}: completed={} censored={}",
            r.completed,
            r.censored
        );
        assert!(r.p999_slowdown() >= 0.99, "case {case}");
        assert!(r.span_cycles > 0, "case {case}");
    }
}

/// Identical (config, workload, params) → identical results.
#[test]
fn determinism() {
    for case in 0..cases(24) {
        let mut g = Gen::new(0xDE_7E_12 + case);
        let cfg = arb_config(&mut g);
        let wl = arb_workload(&mut g);
        let seed = g.u64_in(0, 99);

        let params = SimParams::new(50_000.0, 1_500, seed);
        let a = simulate(&cfg, wl.clone(), &params);
        let b = simulate(&cfg, wl, &params);
        assert_eq!(a.completed, b.completed, "case {case}");
        assert_eq!(a.censored, b.censored, "case {case}");
        assert_eq!(a.incomplete, b.incomplete, "case {case}");
        assert_eq!(a.preemptions, b.preemptions, "case {case}");
        assert_eq!(a.span_cycles, b.span_cycles, "case {case}");
        assert_eq!(a.p999_slowdown(), b.p999_slowdown(), "case {case}");
        assert_eq!(a.worker_busy_cycles, b.worker_busy_cycles, "case {case}");
        assert_eq!(a.max_jbsq_inflight, b.max_jbsq_inflight, "case {case}");
    }
}

/// Preemption never fires with run-to-completion configs, and the
/// achieved quantum is one-sided (≥ the target) for Coop.
#[test]
fn preemption_invariants() {
    for case in 0..cases(24) {
        let mut g = Gen::new(0x9E_AB_34 + case);
        let n = g.usize_in(1, 3);
        let seed = g.u64_in(0, 99);

        let wl = || {
            Mix::new(
                "bimodal",
                vec![
                    ClassSpec::new("s", 1.0, Dist::fixed_us(1.0)),
                    ClassSpec::new("l", 1.0, Dist::fixed_us(100.0)),
                ],
            )
        };
        let none = SystemConfig::persephone_fcfs(n);
        let r = simulate(&none, wl(), &SimParams::new(10_000.0, 1_000, seed));
        assert_eq!(r.preemptions, 0, "case {case}");

        let coop = SystemConfig::concord(n, 5_000);
        let r = simulate(&coop, wl(), &SimParams::new(10_000.0, 1_000, seed));
        if r.preemptions > 0 {
            // One-sided: cooperative yields land at or after the quantum.
            assert!(
                r.achieved_quantum.min() + 1.0 >= 10_000.0,
                "case {case}: min achieved {}",
                r.achieved_quantum.min()
            );
        }
    }
}
