//! Conformance harness: does the multi-threaded runtime obey the same
//! invariants as the discrete-event simulator, under arbitrary
//! configurations and injected faults?
//!
//! The paper's claims are scheduling *invariants* (bounded JBSQ queues,
//! work conservation, single-delivery preemption signals) plus latency
//! *distributions*. This crate checks both, from three pieces:
//!
//! - [`case`] — a seeded case generator (workload shape × arrival process
//!   × JBSQ depth × worker count × shard count × fault schedule), with
//!   shrinking toward minimal failing cases and a line-oriented text
//!   codec so failures persist in a checked-in regression corpus.
//! - [`harness`] — runs one case through the real [`concord_core`]
//!   runtime at the case's shard count (optionally with a
//!   [`concord_core::FaultInjector`] schedule) and through
//!   [`concord_sim`], collecting every counter the oracles need.
//! - [`oracles`] — the paper invariants, asserted on any execution and
//!   any shard count: request conservation (per shard, with every
//!   hand-off taken once and every answer sent home), JBSQ occupancy ≤
//!   k, work conservation, no-lost-preemption (signal-fate accounting
//!   balances), and monotone telemetry timestamps. Fault-free one-shard
//!   cases additionally cross-validate runtime and simulator slowdown
//!   percentiles within a (loose, stated) tolerance.
//!
//! Failures print a `cc ...` line; paste it into
//! `proptest-regressions/conformance.txt` (the harness appends it
//! automatically when the corpus file is writable) and the replay test
//! pins it forever.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod case;
pub mod harness;
pub mod oracles;

pub use apps::{FrozenApp, VirtualSpinApp};
pub use case::{ArrivalKind, CaseConfig, FaultKind};
pub use harness::{run_case, run_runtime, run_runtime_with, run_sim, Rig, RuntimeObservation};
pub use oracles::{
    check_admission, check_cross, check_policy, check_rack, check_runtime, check_sim,
    RackClientTotals,
};
