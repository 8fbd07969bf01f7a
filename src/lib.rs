//! # Concord-rs
//!
//! A from-scratch Rust reproduction of **"Achieving Microsecond-Scale Tail
//! Latency Efficiently with Approximate Optimal Scheduling"** (Concord,
//! SOSP 2023): the runtime, every substrate it depends on, and a harness
//! that regenerates every table and figure in the paper's evaluation.
//!
//! Concord's thesis: *approximating* the theoretically optimal scheduling
//! policies (a single queue plus precise preemption) with three cheap
//! mechanisms buys large throughput gains at negligible tail-latency cost:
//!
//! 1. **Compiler-enforced cooperation** — the dispatcher writes a
//!    per-worker dedicated cache line instead of sending an IPI; workers
//!    poll it at compiler-inserted preemption points and yield in ≈100 ns.
//! 2. **JBSQ(k)** — bounded per-worker queues (k = 2) in front of the
//!    central queue eliminate the coherence stalls workers otherwise pay
//!    between requests.
//! 3. **A work-conserving dispatcher** — when every worker queue is full,
//!    the dispatcher runs requests itself with self-preempting time checks.
//!
//! This crate is a facade over the workspace:
//!
//! | Crate | What it provides |
//! |---|---|
//! | [`core`] | The real multi-threaded runtime (dispatcher, workers, cache-line preemption, JBSQ rings, work stealing) |
//! | [`uthread`] | Stackful coroutines with a hand-written x86-64 context switch |
//! | [`sim`] | A deterministic discrete-event simulator that regenerates the paper's figures |
//! | [`instrument`] | A model of the LLVM instrumentation passes (probe placement, unrolling, timeliness) |
//! | [`kv`] | The LevelDB stand-in: LSM-style store with lock-safety hooks |
//! | [`net`] | NIC-model SPSC rings, open-loop Poisson load generation, RTT accounting |
//! | [`workloads`] | Every service-time distribution in the paper's evaluation |
//! | [`metrics`] | HDR histograms, slowdown tracking, SLO capacity search |
//! | [`server`] | Real network ingress: TCP wire protocol, admission gate, load client |
//!
//! # Quickstart
//!
//! ```
//! use concord::prelude::*;
//! use concord::net::ring;
//! use concord::workloads::mix;
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! // NIC-model rings between the "client" and the server: the
//! // dispatcher owns the pair as its `Transport`, as a TCP front end's
//! // dispatchers own their sockets.
//! let (req_tx, req_rx) = ring::<Request>(4096);
//! let (resp_tx, resp_rx) = ring::<Response>(4096);
//!
//! // The Concord runtime: dispatcher + workers, JBSQ(2), work stealing.
//! let config = RuntimeConfig::builder().small_test().build().unwrap();
//! let rt = Runtime::start(config, Arc::new(SpinApp::new()), req_rx, resp_tx);
//!
//! // An open-loop Poisson client and its response collector.
//! let gen = LoadGen::start(req_tx, mix::fixed_1us(), 20_000.0, 100, 42);
//! let mut collector = Collector::new(resp_rx, RttModel::zero(), 42);
//! assert!(collector.collect(100, Duration::from_secs(30)));
//! gen.join();
//! let stats = rt.shutdown();
//! assert_eq!(stats.completed(), 100);
//! ```
//!
//! For serving the same runtime over real TCP, see [`server`]. For the
//! paper reproduction itself, see the `concord-bench` crate's `repro`
//! binary (`repro --list` names every table and figure; `repro all
//! standard --check results` re-runs them against `results/`) and
//! EXPERIMENTS.md.

#![warn(missing_docs)]

pub use concord_core as core;
pub use concord_instrument as instrument;
pub use concord_kv as kv;
pub use concord_metrics as metrics;
pub use concord_net as net;
pub use concord_rng as rng;
pub use concord_server as server;
pub use concord_sim as sim;
pub use concord_uthread as uthread;
pub use concord_workloads as workloads;

/// The types nearly every Concord program needs, in one import.
///
/// ```
/// use concord::prelude::*;
/// ```
pub mod prelude {
    pub use concord_core::{
        ConfigError, Runtime, RuntimeBuilder, RuntimeConfig, SpinApp, TelemetrySnapshot, Transport,
    };
    pub use concord_net::{Collector, LoadGen, Request, Response, RttModel};
}
