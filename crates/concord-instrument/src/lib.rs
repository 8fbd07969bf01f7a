//! A faithful model of Concord's compiler instrumentation (paper §4.3).
//!
//! The original system implements two LLVM passes (≈350 LOC each): one that
//! inserts cache-line polling probes for worker threads and one that
//! inserts `rdtsc()` self-checking probes for the dispatcher. Both place
//! probes at function entries, loop back-edges, and around calls to
//! un-instrumented code, and unroll loop bodies until they contain at least
//! 200 IR instructions.
//!
//! Reproducing an LLVM pass verbatim is out of scope for a pure-Rust build,
//! so this crate implements the *pass logic itself* over a miniature IR:
//!
//! - [`ir`] — programs as trees of straight-line segments, loops, and calls;
//! - [`passes`] — probe placement and loop unrolling, following §4.3's
//!   placement rules exactly;
//! - [`analysis`] — exact dynamic-execution analysis of an instrumented
//!   program: instruction counts (→ overhead) and the probe-gap
//!   distribution (→ preemption-timeliness standard deviation, computed in
//!   closed form from the gap moments);
//! - [`corpus`] — structural profiles of the 24 Phoenix/Parsec/Splash-2
//!   benchmarks used in Table 1, plus the published Compiler-Interrupts
//!   overheads they are compared against.
//!
//! # Examples
//!
//! ```
//! use concord_instrument::ir::{Program, Function, Segment};
//! use concord_instrument::passes::{instrument, PassConfig};
//! use concord_instrument::analysis::analyze;
//!
//! let prog = Program::new(vec![Function::new(
//!     "spin",
//!     vec![Segment::Loop { body: vec![Segment::Straight(20)], trips: 1_000 }],
//! )]);
//! let out = instrument(&prog, &PassConfig::concord_worker());
//! let report = analyze(&out, &Default::default());
//! // Unrolled loops + 2-cycle probes keep overhead low.
//! assert!(report.overhead_frac < 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod corpus;
pub mod ir;
pub mod passes;

pub use analysis::{analyze, AnalysisParams, Report};
pub use ir::{Function, Program, Segment};
pub use passes::{instrument, InstrumentedProgram, PassConfig, ProbeKind};
