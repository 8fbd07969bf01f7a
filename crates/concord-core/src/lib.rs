//! The Concord runtime: approximate optimal scheduling for
//! microsecond-scale requests (paper §3–§4), as a real multi-threaded
//! system.
//!
//! One dispatcher thread ingests requests from a NIC-model ring, keeps the
//! central queue, signals preemption by writing each worker's dedicated
//! cache line, pushes work into bounded JBSQ(k) per-worker rings, and —
//! when every worker queue is full — executes requests itself with
//! self-preempting time checks (§3.3). Worker threads run each request in
//! a stackful coroutine (`concord-uthread`) and poll their cache line at
//! *preemption points*; a preempted request's coroutine is handed back to
//! the dispatcher and may resume on any worker.
//!
//! A [`Runtime`] is `num_shards` such dispatcher+worker groups, each
//! serving its own transport ([`Runtime::start_shards`]); an idle shard
//! takes never-started work from a saturated sibling only when it asks
//! ([`shard`]). [`Runtime::start`] is the one-shard case over a ring
//! pair.
//!
//! The paper's compiler pass inserts those preemption points
//! automatically; in this reproduction applications call
//! [`RequestContext::preempt_point`] explicitly (or use helpers like
//! [`RequestContext::spin_for`] that embed the checks), which exercises
//! the identical runtime machinery.
//!
//! Every runtime carries the scheduling-event tracer ([`trace`]): one
//! wait-free ring per worker and one for the dispatcher, read back with
//! [`Runtime::take_trace`]. [`RuntimeBuilder::trace`] is its only switch;
//! a disarmed runtime builds no rings and each hook costs one `None`
//! branch. The conformance harness's [`FaultInjector`] is a runtime
//! handle the same way: [`RuntimeBuilder::fault_injector`] installs it,
//! and without one each fault seam is one `None` branch.
//!
//! # Examples
//!
//! ```
//! use concord_core::{Runtime, RuntimeConfig, SpinApp};
//! use concord_net::{ring, Request, Response, LoadGen, Collector, RttModel};
//! use concord_workloads::mix;
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! let (req_tx, req_rx) = ring::<Request>(4096);
//! let (resp_tx, resp_rx) = ring::<Response>(4096);
//! let rt = Runtime::start(
//!     RuntimeConfig::small_test(),
//!     Arc::new(SpinApp::new()),
//!     req_rx,
//!     resp_tx,
//! );
//! let gen = LoadGen::start(req_tx, mix::fixed_1us(), 50_000.0, 200, 1);
//! let mut collector = Collector::new(resp_rx, RttModel::zero(), 1);
//! assert!(collector.collect(200, Duration::from_secs(30)));
//! gen.join();
//! let telemetry = rt.telemetry(); // queueing/service/sojourn breakdown
//! assert_eq!(telemetry.recorded, 200);
//! assert!(telemetry.queueing_p99_ns() >= telemetry.queueing_p50_ns());
//! rt.shutdown();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod admission;
pub mod app;
pub mod central;
pub mod clock;
pub mod config;
pub mod dispatcher;
pub mod fault;
pub mod policy;
pub mod preempt;
pub mod quantum;
pub mod runtime;
pub mod shard;
pub mod stats;
pub mod task;
pub mod telemetry;
pub mod transport;
pub mod worker;

pub use admission::{
    AdmissionConfig, AdmissionCounters, AdmissionEvent, AdmissionPolicy, AdmissionQueue,
    AdmitOutcome,
};
pub use app::{ConcordApp, KvApp, RequestContext, SpinApp};
pub use central::{jbsq_pick, CentralQueue};
pub use clock::{Clock, VirtualClock};
pub use config::{ConfigError, RuntimeBuilder, RuntimeConfig};
pub use fault::FaultInjector;
pub use policy::{KeyInput, PolicyKind};
pub use preempt::{LockDepthObserver, PreemptLine, SignalAccounting, SignalPoll};
pub use quantum::{
    class_slot, fold_class, ControllerConfig, QuantumController, QuantumTable, SloState,
    CLASS_SLOTS,
};
pub use runtime::{Runtime, RuntimeObserver};
pub use shard::{ShardCounters, ShardRollup};
pub use stats::{RuntimeStats, WorkerStats, WorkerStatsSnapshot};
pub use telemetry::{ClassTelemetry, CompletionRecord, TelemetrySnapshot};
pub use transport::Transport;

/// Re-export of the scheduling-event tracer (`concord-trace`) so
/// downstream users of [`Runtime::take_trace`] can reach
/// [`Trace`](concord_trace::Trace), the Perfetto/binary exporters and
/// [`TraceSummary`](concord_trace::TraceSummary) without a separate
/// dependency edge.
pub use concord_trace as trace;
