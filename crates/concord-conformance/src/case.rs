//! Conformance case generation, shrinking, and the corpus text codec.

use concord_core::PolicyKind;
use concord_workloads::Gen;
use std::fmt;

/// Arrival process driving the runtime's load generator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArrivalKind {
    /// Poisson arrivals (the paper's open-loop load, also what the
    /// simulator models — only these cases cross-validate latency).
    Poisson,
    /// Evenly spaced arrivals (runtime-only oracle coverage).
    Uniform,
    /// Every request is in the RX ring before the runtime starts, so the
    /// first ingest pass admits them all: at least two requests are in
    /// the system until the last one is. Never generated by the sweep;
    /// tests that need a guaranteed backlog ask for it.
    Burst,
}

/// One deterministic fault to inject into the runtime execution.
///
/// Faults perturb *scheduling*, never correctness: every oracle must hold
/// under every fault (that is the point of injecting them).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// No injected fault; the case also cross-validates against the sim.
    None,
    /// Suppress the next `n` preemption-signal stores after their expiry
    /// claims (a lost wakeup).
    DropSignals(u32),
    /// Defer the next `n` preemption-signal stores by `delay_us` of clock
    /// time (a late store, the stale-signal race on demand).
    DelaySignals {
        /// How many stores to defer.
        n: u32,
        /// Virtual/wall microseconds to hold each store back.
        delay_us: u64,
    },
    /// Zero the TX retry budget for the next `n` responses (ring-full
    /// backpressure: each affected response is dropped and counted).
    RejectTx(u32),
    /// Stall one worker for a stretch of clock time before it serves its
    /// next request (JBSQ imbalance on demand).
    StallWorker {
        /// Worker index (taken modulo the case's worker count).
        worker: usize,
        /// Microseconds to stall.
        stall_us: u64,
    },
    /// Stall the dispatcher for a stretch of clock time once every worker
    /// queue is full, so completions pile up in the return rings. Never
    /// generated by the sweep (on a virtual clock only the workers'
    /// requests move time, so the stall must fit inside their service).
    StallDispatcher {
        /// Microseconds to stall.
        stall_us: u64,
    },
    /// Panic on entry to the given request's handler (exercises
    /// contained-failure accounting).
    PanicOn {
        /// Request id (taken modulo the case's request count).
        request: u64,
    },
}

/// One generated conformance case: everything needed to run the runtime
/// and the simulator and check the oracles, reproducibly.
#[derive(Clone, Debug, PartialEq)]
pub struct CaseConfig {
    /// Seed for the load generator / simulator trace.
    pub seed: u64,
    /// Worker threads.
    pub n_workers: usize,
    /// JBSQ depth `k`.
    pub jbsq_depth: usize,
    /// Scheduling quantum, microseconds (coarse: OS noise on shared CI
    /// cores is tens of µs).
    pub quantum_us: u64,
    /// Dispatcher work conservation (§3.3).
    pub work_conserving: bool,
    /// Arrival process.
    pub arrival: ArrivalKind,
    /// Short-class service time, µs.
    pub short_us: u64,
    /// Long-class service time, µs.
    pub long_us: u64,
    /// Short-class weight out of 100.
    pub short_weight: u32,
    /// Requests to run.
    pub requests: u64,
    /// Offered load as a percentage of rough capacity
    /// (`n_workers / mean_service`).
    pub load_pct: u64,
    /// Scheduling policy the runtime applies (and the sim mirrors).
    pub policy: PolicyKind,
    /// Injected fault schedule.
    pub fault: FaultKind,
}

impl CaseConfig {
    /// Draws a case from the seeded stream. The same `seed` always yields
    /// the same case, so a failure report's seed is a full reproduction.
    pub fn generate(seed: u64) -> Self {
        let mut g = Gen::new(seed);
        let n_workers = g.usize_in(1, 3);
        let requests = g.u64_in(100, 300);
        let fault = match g.u64_in(0, 5) {
            0 => FaultKind::None,
            1 => FaultKind::DropSignals(g.u64_in(1, 5) as u32),
            2 => FaultKind::DelaySignals {
                n: g.u64_in(1, 5) as u32,
                delay_us: g.u64_in(10, 500),
            },
            3 => FaultKind::RejectTx(g.u64_in(1, 5) as u32),
            4 => FaultKind::StallWorker {
                worker: g.usize_in(0, n_workers - 1),
                stall_us: g.u64_in(100, 2_000),
            },
            _ => FaultKind::PanicOn {
                request: g.u64_in(0, requests - 1),
            },
        };
        Self {
            seed: g.u64_in(0, 9_999),
            n_workers,
            jbsq_depth: g.usize_in(1, 3),
            quantum_us: *g.pick(&[50, 100, 500, 1_000]),
            work_conserving: g.bool(),
            arrival: if g.bool() {
                ArrivalKind::Poisson
            } else {
                ArrivalKind::Uniform
            },
            short_us: g.u64_in(1, 50),
            long_us: g.u64_in(20, 150),
            short_weight: g.u64_in(1, 99) as u32,
            requests,
            load_pct: g.u64_in(10, 60),
            // Drawn last so the other dimensions of a given seed are
            // unchanged from the pre-policy corpus.
            policy: match g.u64_in(0, 3) {
                0 => PolicyKind::PsQuantum,
                1 => PolicyKind::Fcfs,
                2 => PolicyKind::Srpt {
                    noise_pct: *g.pick(&[0, 10, 25]),
                },
                _ => PolicyKind::Boost {
                    boost_us: *g.pick(&[1, 10, 100]),
                },
            },
            fault,
        }
    }

    /// Simplification candidates, most aggressive first. Shrinking walks
    /// this list greedily: as long as some candidate still fails the
    /// property, it becomes the new case.
    pub fn shrink_candidates(&self) -> Vec<CaseConfig> {
        let mut out = Vec::new();
        let mut push = |c: CaseConfig| {
            if c != *self {
                out.push(c);
            }
        };
        // Drop the fault first: a case that fails without its fault is a
        // much stronger finding.
        push(CaseConfig {
            fault: FaultKind::None,
            ..self.clone()
        });
        // Then the policy: a case that still fails under the default
        // round-robin implicates the dispatcher, not the policy plane.
        push(CaseConfig {
            policy: PolicyKind::PsQuantum,
            ..self.clone()
        });
        push(CaseConfig {
            requests: 100,
            ..self.clone()
        });
        push(CaseConfig {
            n_workers: 1,
            ..self.clone()
        });
        push(CaseConfig {
            jbsq_depth: 1,
            ..self.clone()
        });
        push(CaseConfig {
            work_conserving: false,
            ..self.clone()
        });
        push(CaseConfig {
            arrival: ArrivalKind::Uniform,
            ..self.clone()
        });
        push(CaseConfig {
            quantum_us: 1_000,
            ..self.clone()
        });
        push(CaseConfig {
            short_us: 1,
            long_us: 20,
            ..self.clone()
        });
        push(CaseConfig {
            short_weight: 50,
            ..self.clone()
        });
        push(CaseConfig {
            load_pct: 10,
            ..self.clone()
        });
        out
    }

    /// Parses a corpus line produced by [`CaseConfig::encode`]
    /// (`Display`). Returns `None` on malformed input.
    pub fn decode(line: &str) -> Option<Self> {
        let mut c = CaseConfig {
            seed: 0,
            n_workers: 1,
            jbsq_depth: 1,
            quantum_us: 100,
            work_conserving: true,
            arrival: ArrivalKind::Poisson,
            short_us: 1,
            long_us: 20,
            short_weight: 50,
            requests: 100,
            load_pct: 10,
            policy: PolicyKind::PsQuantum,
            fault: FaultKind::None,
        };
        for kv in line.split_whitespace() {
            let (key, val) = kv.split_once('=')?;
            match key {
                "seed" => c.seed = val.parse().ok()?,
                "workers" => c.n_workers = val.parse().ok()?,
                "k" => c.jbsq_depth = val.parse().ok()?,
                "quantum_us" => c.quantum_us = val.parse().ok()?,
                "wc" => c.work_conserving = val.parse().ok()?,
                "arrival" => {
                    c.arrival = match val {
                        "poisson" => ArrivalKind::Poisson,
                        "uniform" => ArrivalKind::Uniform,
                        "burst" => ArrivalKind::Burst,
                        _ => return None,
                    }
                }
                "short_us" => c.short_us = val.parse().ok()?,
                "long_us" => c.long_us = val.parse().ok()?,
                "short_weight" => c.short_weight = val.parse().ok()?,
                "requests" => c.requests = val.parse().ok()?,
                "load_pct" => c.load_pct = val.parse().ok()?,
                "policy" => c.policy = PolicyKind::parse(val)?,
                "fault" => {
                    let mut parts = val.split(':');
                    c.fault = match parts.next()? {
                        "none" => FaultKind::None,
                        "drop" => FaultKind::DropSignals(parts.next()?.parse().ok()?),
                        "delay" => FaultKind::DelaySignals {
                            n: parts.next()?.parse().ok()?,
                            delay_us: parts.next()?.parse().ok()?,
                        },
                        "reject" => FaultKind::RejectTx(parts.next()?.parse().ok()?),
                        "stall" => FaultKind::StallWorker {
                            worker: parts.next()?.parse().ok()?,
                            stall_us: parts.next()?.parse().ok()?,
                        },
                        "dstall" => FaultKind::StallDispatcher {
                            stall_us: parts.next()?.parse().ok()?,
                        },
                        "panic" => FaultKind::PanicOn {
                            request: parts.next()?.parse().ok()?,
                        },
                        _ => return None,
                    };
                }
                _ => return None,
            }
        }
        Some(c)
    }

    /// The corpus line for this case (same format [`CaseConfig::decode`]
    /// parses).
    pub fn encode(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for CaseConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let arrival = match self.arrival {
            ArrivalKind::Poisson => "poisson",
            ArrivalKind::Uniform => "uniform",
            ArrivalKind::Burst => "burst",
        };
        let fault = match self.fault {
            FaultKind::None => "none".to_string(),
            FaultKind::DropSignals(n) => format!("drop:{n}"),
            FaultKind::DelaySignals { n, delay_us } => format!("delay:{n}:{delay_us}"),
            FaultKind::RejectTx(n) => format!("reject:{n}"),
            FaultKind::StallWorker { worker, stall_us } => format!("stall:{worker}:{stall_us}"),
            FaultKind::StallDispatcher { stall_us } => format!("dstall:{stall_us}"),
            FaultKind::PanicOn { request } => format!("panic:{request}"),
        };
        write!(
            f,
            "seed={} workers={} k={} quantum_us={} wc={} arrival={arrival} \
             short_us={} long_us={} short_weight={} requests={} load_pct={} \
             policy={} fault={fault}",
            self.seed,
            self.n_workers,
            self.jbsq_depth,
            self.quantum_us,
            self.work_conserving,
            self.short_us,
            self.long_us,
            self.short_weight,
            self.requests,
            self.load_pct,
            self.policy,
        )
    }
}

/// Greedy shrink: repeatedly move to the first simplification candidate
/// that still fails `fails`, until none does (or a step cap is hit).
pub fn shrink<F: FnMut(&CaseConfig) -> bool>(start: CaseConfig, mut fails: F) -> CaseConfig {
    let mut current = start;
    for _ in 0..32 {
        let Some(next) = current.shrink_candidates().into_iter().find(|c| fails(c)) else {
            break;
        };
        current = next;
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_is_deterministic() {
        assert_eq!(CaseConfig::generate(42), CaseConfig::generate(42));
        assert_ne!(CaseConfig::generate(1), CaseConfig::generate(2));
    }

    #[test]
    fn codec_roundtrips_every_fault_kind() {
        for seed in 0..200 {
            let c = CaseConfig::generate(seed);
            let line = c.encode();
            let back =
                CaseConfig::decode(&line).unwrap_or_else(|| panic!("decode failed for: {line}"));
            assert_eq!(c, back, "roundtrip mismatch for: {line}");
        }
    }

    #[test]
    fn codec_roundtrips_the_hand_picked_kinds() {
        let mut c = CaseConfig::generate(3);
        c.arrival = ArrivalKind::Burst;
        c.fault = FaultKind::StallDispatcher { stall_us: 250 };
        assert_eq!(CaseConfig::decode(&c.encode()), Some(c));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(CaseConfig::decode("workers=two").is_none());
        assert!(CaseConfig::decode("nonsense").is_none());
        assert!(CaseConfig::decode("fault=explode:1").is_none());
        assert!(CaseConfig::decode("policy=lifo").is_none());
    }

    #[test]
    fn decode_defaults_policy_for_pre_policy_corpus_lines() {
        // Lines appended before the policy plane existed carry no
        // policy key; they must keep replaying under the round-robin
        // default.
        let c = CaseConfig::decode("seed=7 workers=2 fault=drop:3").expect("old line decodes");
        assert_eq!(c.policy, PolicyKind::PsQuantum);
    }

    #[test]
    fn generated_cases_are_well_formed() {
        for seed in 0..500 {
            let c = CaseConfig::generate(seed);
            assert!((1..=3).contains(&c.n_workers));
            assert!((1..=3).contains(&c.jbsq_depth));
            assert!(c.requests >= 100);
            assert!(c.load_pct <= 60);
            if let FaultKind::StallWorker { worker, .. } = c.fault {
                assert!(worker < c.n_workers);
            }
            if let FaultKind::PanicOn { request } = c.fault {
                assert!(request < c.requests);
            }
        }
    }

    #[test]
    fn shrink_reaches_a_fixed_point() {
        // Property: "n_workers > 1 or requests > 100 fails". The minimal
        // failing case under greedy shrink fixes one dimension at a time.
        let mut start = CaseConfig::generate(7);
        start.n_workers = 3;
        start.requests = 300;
        let shrunk = shrink(start, |c| c.n_workers > 1 || c.requests > 100);
        // Shrinking only stops when no candidate fails; for this property
        // that means a case that *passes*... is never reached — shrink
        // keeps the failing case. The fixed point keeps failing:
        assert!(shrunk.n_workers > 1 || shrunk.requests > 100);
        // ...but all independently-shrinkable dimensions are minimal.
        let further = shrunk
            .shrink_candidates()
            .into_iter()
            .find(|c| c.n_workers > 1 || c.requests > 100);
        assert!(further.is_none(), "shrink stopped early: {shrunk}");
    }
}
