//! The instrumentation passes (paper §4.3).
//!
//! Probe placement follows the paper exactly: a probe at the beginning of
//! each function, before and after any call to un-instrumented code, and at
//! every loop back-edge; loop bodies are unrolled until they contain at
//! least 200 IR instructions so that back-edge probes stay cheap.

use crate::ir::{Function, Program, Segment, LOOP_CONTROL_INSTRS};

/// The kind of probe a pass inserts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProbeKind {
    /// Concord worker probe: load the dedicated cache line + compare
    /// (≈2 cycles when L1-resident, §3.1).
    CacheLinePoll,
    /// Dispatcher / Compiler-Interrupts probe: `rdtsc()` + compare
    /// (≈30 cycles, §2.2.1).
    Rdtsc,
}

impl ProbeKind {
    /// Cost of executing one probe, in cycles.
    pub fn cycles(self) -> u64 {
        match self {
            ProbeKind::CacheLinePoll => 2,
            ProbeKind::Rdtsc => 30,
        }
    }
}

/// Configuration of one instrumentation pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PassConfig {
    /// Probe flavor to insert.
    pub probe: ProbeKind,
    /// Unroll loop bodies until they reach this many IR instructions
    /// (§4.3: 200). `0` disables unrolling.
    pub min_loop_body_instrs: u64,
    /// Upper bound on the unroll factor (code-size guard).
    pub max_unroll_factor: u64,
}

impl PassConfig {
    /// The worker-side Concord pass: cache-line polls + loop unrolling.
    pub fn concord_worker() -> Self {
        Self {
            probe: ProbeKind::CacheLinePoll,
            min_loop_body_instrs: 200,
            max_unroll_factor: 64,
        }
    }

    /// The dispatcher-side Concord pass: `rdtsc()` probes + loop unrolling.
    pub fn concord_dispatcher() -> Self {
        Self {
            probe: ProbeKind::Rdtsc,
            ..Self::concord_worker()
        }
    }

    /// A Compiler-Interrupts-like configuration: `rdtsc()` probes at the
    /// same placement points but no loop unrolling (the CI paper relies on
    /// per-application parameter tuning instead; naive configurations keep
    /// per-iteration probes).
    pub fn compiler_interrupts() -> Self {
        Self {
            probe: ProbeKind::Rdtsc,
            min_loop_body_instrs: 0,
            max_unroll_factor: 1,
        }
    }
}

/// A segment of instrumented code.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ISeg {
    /// Straight-line instructions (1 cycle each in the analysis).
    Straight(u64),
    /// One inserted probe.
    Probe,
    /// An unrolled loop: `body` (ending in the back-edge probe) executed
    /// `blocks` times.
    LoopBlock {
        /// One unrolled block, including loop control and back-edge probe.
        body: Vec<ISeg>,
        /// Number of times the block executes.
        blocks: u64,
    },
    /// Un-instrumented external code (bracketed by probes by the pass).
    External {
        /// Dynamic instructions inside the call.
        instrs: u64,
    },
    /// Call to another instrumented function.
    Call {
        /// Index into [`InstrumentedProgram::functions`].
        callee: usize,
    },
}

/// An instrumented function.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IFunction {
    /// Symbol name.
    pub name: String,
    /// Instrumented body.
    pub body: Vec<ISeg>,
}

/// The output of [`instrument`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InstrumentedProgram {
    /// Instrumented functions; index 0 is the entry point.
    pub functions: Vec<IFunction>,
    /// The pass that produced this program.
    pub config: PassConfig,
}

/// Runs the instrumentation pass over `program`.
pub fn instrument(program: &Program, config: &PassConfig) -> InstrumentedProgram {
    let functions = program
        .functions
        .iter()
        .map(|f| instrument_function(f, config))
        .collect();
    InstrumentedProgram {
        functions,
        config: *config,
    }
}

fn instrument_function(f: &Function, cfg: &PassConfig) -> IFunction {
    // Rule 1: probe at function entry.
    let mut body = vec![ISeg::Probe];
    body.extend(instrument_segs(&f.body, cfg));
    IFunction {
        name: f.name.clone(),
        body,
    }
}

fn instrument_segs(segs: &[Segment], cfg: &PassConfig) -> Vec<ISeg> {
    let mut out = Vec::new();
    for s in segs {
        match s {
            Segment::Straight(n) => out.push(ISeg::Straight(*n)),
            Segment::Call { callee } => out.push(ISeg::Call { callee: *callee }),
            Segment::External { instrs } => {
                // Rule 2: probes before and after un-instrumented calls, so
                // the worker yields promptly on either side but never inside.
                out.push(ISeg::Probe);
                out.push(ISeg::External { instrs: *instrs });
                out.push(ISeg::Probe);
            }
            Segment::Loop { body, trips } => {
                out.push(instrument_loop(body, *trips, cfg));
            }
        }
    }
    out
}

/// Static (single-iteration) instruction size of a loop body, counting
/// nested loop bodies once — the quantity §4.3's unrolling rule applies to.
fn static_body_instrs(segs: &[Segment]) -> u64 {
    segs.iter()
        .map(|s| match s {
            Segment::Straight(n) => *n,
            Segment::External { instrs } => *instrs,
            // A call's body lives elsewhere; count it as its own probe site.
            Segment::Call { .. } => 0,
            Segment::Loop { body, .. } => static_body_instrs(body) + LOOP_CONTROL_INSTRS,
        })
        .sum()
}

/// True if the body contains calls or external code — LLVM's unroller
/// refuses such loops, and so does ours.
fn has_calls(segs: &[Segment]) -> bool {
    segs.iter().any(|s| match s {
        Segment::Call { .. } | Segment::External { .. } => true,
        Segment::Loop { body, .. } => has_calls(body),
        Segment::Straight(_) => false,
    })
}

fn instrument_loop(body: &[Segment], trips: u64, cfg: &PassConfig) -> ISeg {
    let body_instrs = static_body_instrs(body).max(1);
    // Rule 3 + unrolling: replicate the body until it reaches the minimum
    // size, then place one probe at the (now less frequent) back-edge.
    let factor = if cfg.min_loop_body_instrs == 0 || has_calls(body) {
        1
    } else {
        cfg.min_loop_body_instrs
            .div_ceil(body_instrs)
            .clamp(1, cfg.max_unroll_factor.max(1))
            .min(trips.max(1))
    };
    let inner = instrument_segs(body, cfg);
    let mut block = Vec::new();
    for _ in 0..factor {
        block.extend(inner.iter().cloned());
    }
    // One loop-control sequence and one back-edge probe per unrolled block:
    // this is where unrolling *saves* (factor-1) control sequences per
    // block relative to the original loop, the source of the negative
    // overheads in Table 1.
    block.push(ISeg::Straight(LOOP_CONTROL_INSTRS));
    block.push(ISeg::Probe);
    ISeg::LoopBlock {
        body: block,
        blocks: (trips / factor).max(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Function;

    fn prog(body: Vec<Segment>) -> Program {
        Program::new(vec![Function::new("f", body)])
    }

    #[test]
    fn function_entry_gets_probe() {
        let p = instrument(
            &prog(vec![Segment::Straight(10)]),
            &PassConfig::concord_worker(),
        );
        assert_eq!(p.functions[0].body[0], ISeg::Probe);
    }

    #[test]
    fn external_calls_are_bracketed() {
        let p = instrument(
            &prog(vec![Segment::External { instrs: 100 }]),
            &PassConfig::concord_worker(),
        );
        let b = &p.functions[0].body;
        // entry probe, probe, external, probe
        assert_eq!(b[1], ISeg::Probe);
        assert!(matches!(b[2], ISeg::External { instrs: 100 }));
        assert_eq!(b[3], ISeg::Probe);
    }

    #[test]
    fn small_loops_unroll_to_min_size() {
        let p = instrument(
            &prog(vec![Segment::Loop {
                body: vec![Segment::Straight(10)],
                trips: 1_000,
            }]),
            &PassConfig::concord_worker(),
        );
        let ISeg::LoopBlock { body, blocks } = &p.functions[0].body[1] else {
            panic!("expected loop block");
        };
        // 10-instruction body → factor 20 → 50 blocks.
        assert_eq!(*blocks, 50);
        let straight: u64 = body
            .iter()
            .map(|s| if let ISeg::Straight(n) = s { *n } else { 0 })
            .sum();
        assert!(straight >= 200, "unrolled block has {straight} instrs");
        // Exactly one back-edge probe per block.
        let probes = body.iter().filter(|s| matches!(s, ISeg::Probe)).count();
        assert_eq!(probes, 1);
    }

    #[test]
    fn large_loop_bodies_are_not_unrolled() {
        let p = instrument(
            &prog(vec![Segment::Loop {
                body: vec![Segment::Straight(500)],
                trips: 100,
            }]),
            &PassConfig::concord_worker(),
        );
        let ISeg::LoopBlock { blocks, .. } = &p.functions[0].body[1] else {
            panic!("expected loop block");
        };
        assert_eq!(*blocks, 100);
    }

    #[test]
    fn compiler_interrupts_config_does_not_unroll() {
        let p = instrument(
            &prog(vec![Segment::Loop {
                body: vec![Segment::Straight(10)],
                trips: 1_000,
            }]),
            &PassConfig::compiler_interrupts(),
        );
        let ISeg::LoopBlock { blocks, .. } = &p.functions[0].body[1] else {
            panic!("expected loop block");
        };
        assert_eq!(*blocks, 1_000);
    }

    #[test]
    fn unroll_factor_capped_by_trip_count() {
        let p = instrument(
            &prog(vec![Segment::Loop {
                body: vec![Segment::Straight(1)],
                trips: 4,
            }]),
            &PassConfig::concord_worker(),
        );
        let ISeg::LoopBlock { blocks, .. } = &p.functions[0].body[1] else {
            panic!("expected loop block");
        };
        // Can't unroll a 4-trip loop 200x.
        assert_eq!(*blocks, 1);
    }

    #[test]
    fn nested_loops_instrument_recursively() {
        let p = instrument(
            &prog(vec![Segment::Loop {
                body: vec![Segment::Loop {
                    body: vec![Segment::Straight(300)],
                    trips: 10,
                }],
                trips: 5,
            }]),
            &PassConfig::concord_worker(),
        );
        let ISeg::LoopBlock { body, .. } = &p.functions[0].body[1] else {
            panic!("expected outer loop block");
        };
        assert!(body.iter().any(|s| matches!(s, ISeg::LoopBlock { .. })));
    }

    /// Static (probes, loop blocks, externals) in one function body.
    fn placements(segs: &[ISeg]) -> (usize, usize, usize) {
        segs.iter().fold((0, 0, 0), |(p, l, e), s| match s {
            ISeg::Probe => (p + 1, l, e),
            ISeg::External { .. } => (p, l, e + 1),
            ISeg::LoopBlock { body, .. } => {
                let (bp, bl, be) = placements(body);
                (p + bp, l + 1 + bl, e + be)
            }
            _ => (p, l, e),
        })
    }

    #[test]
    fn placements_per_function_follow_the_rules() {
        let sample = Program::new(vec![
            Function::new(
                "main",
                vec![
                    Segment::Straight(50),
                    Segment::Loop {
                        body: vec![Segment::Straight(10)],
                        trips: 100,
                    },
                    Segment::External { instrs: 500 },
                    Segment::Call { callee: 1 },
                ],
            ),
            Function::new("helper", vec![Segment::Straight(30)]),
        ]);
        let worker = instrument(&sample, &PassConfig::concord_worker());
        assert_eq!(worker.config.probe, ProbeKind::CacheLinePoll);
        let [main, helper] = &worker.functions[..] else {
            panic!("two functions in, two out");
        };
        assert_eq!(main.name, "main");
        // entry + back-edge + 2 around the external = 4.
        assert_eq!(placements(&main.body), (4, 1, 1));
        assert_eq!(helper.name, "helper");
        assert_eq!(placements(&helper.body), (1, 0, 0)); // entry only

        // The dispatcher pass places the same probes, as `rdtsc` checks.
        let disp = instrument(&sample, &PassConfig::concord_dispatcher());
        assert_eq!(disp.config.probe, ProbeKind::Rdtsc);
        assert_eq!(placements(&disp.functions[0].body).0, 4);
    }

    #[test]
    fn probe_costs_match_paper() {
        assert_eq!(ProbeKind::CacheLinePoll.cycles(), 2);
        assert_eq!(ProbeKind::Rdtsc.cycles(), 30);
    }
}
