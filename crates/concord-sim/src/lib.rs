//! A deterministic discrete-event simulator of microsecond-scale
//! scheduling runtimes.
//!
//! This crate reproduces the server-side dynamics of the Concord paper
//! (SOSP '23): a dispatcher thread maintaining a central queue, `n` worker
//! threads, and the three mechanism axes the paper studies —
//!
//! 1. **Preemption mechanism** — posted IPIs (Shinjuku), user-space IPIs,
//!    `rdtsc()` self-checking (Compiler Interrupts), or Concord's
//!    compiler-enforced cooperation via dedicated cache lines;
//! 2. **Queue discipline** — a synchronous single queue or JBSQ(k) bounded
//!    per-worker queues;
//! 3. **Dispatcher work conservation** — whether the dispatcher runs
//!    application requests when all worker queues are full.
//!
//! The scheduling decisions themselves are not modelled but reused: the
//! simulated dispatcher queues, keys, picks and steals with
//! `concord-core`'s [`CentralQueue`](concord_core::CentralQueue),
//! [`PolicyKind`](concord_core::PolicyKind) and
//! [`jbsq_pick`](concord_core::jbsq_pick), the runtime's own code.
//!
//! Every cost is a calibrated cycle constant from the paper ([`CostModel`]),
//! and every run is deterministic given a seed, so the `figN` harnesses in
//! `concord-bench` regenerate the paper's figures reproducibly on any host.
//!
//! # Examples
//!
//! ```
//! use concord_sim::{simulate, SimParams, SystemConfig};
//! use concord_workloads::mix;
//!
//! let cfg = SystemConfig::concord(4, 5_000); // 4 workers, 5µs quantum
//! let res = simulate(&cfg, mix::bimodal_50_1_50_100(),
//!                    &SimParams::new(20_000.0, 5_000, 42));
//! assert_eq!(res.completed, 5_000);
//! assert!(res.p999_slowdown() < 50.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abstract_queue;
pub mod analytic;
pub mod config;
pub mod cost;
pub mod engine;
pub mod experiments;
pub mod logical_queue;
pub mod request;
pub mod result;
pub mod system;

pub use config::{PreemptMechanism, QueueDiscipline, SystemConfig};
pub use cost::CostModel;
pub use result::SimResult;
pub use system::{
    simulate, simulate_recorded, simulate_sharded, simulate_sharded_traced, simulate_traced,
    SimParams,
};
