//! In-process network substrate for end-to-end Concord experiments.
//!
//! The paper's testbed is two machines connected back-to-back (RFC 2544)
//! with a kernel-bypass NIC; the quantity under study is server-side
//! scheduling. This crate reproduces the *interface* that setup presents
//! to the server — descriptor rings carrying request/response packets and
//! an open-loop Poisson load generator — entirely in process:
//!
//! - [`mod@ring`] — a bounded single-producer/single-consumer descriptor ring
//!   built from scratch on atomics (the NIC RX/TX queue model), and the
//!   [`CachePadded`] wrapper that keeps its indices apart;
//! - [`packet`] — request/response descriptors with timestamps;
//! - [`rtt`] — a fixed-plus-jitter round-trip-time model (the paper's
//!   testbed measures ≈10 µs client-observed RTT);
//! - [`loadgen`] — an open-loop generator that paces arrivals according to
//!   a `concord-workloads` trace and a collector that turns responses into
//!   client-side latency/slowdown measurements.
//! - [`poll`] (Linux) — a first-party epoll/eventfd wrapper,
//!   the readiness layer under every TCP endpoint in the workspace.
//! - [`endpoint`] (Linux) — the non-blocking socket endpoint on that
//!   poller, written once for the server's dispatchers, the rack proxy
//!   and the admin HTTP listener: a frame-bounded outbox, the flush that
//!   writes it, the interest reconcile, and a listener that parks on
//!   accept failures.
//! - [`signal`] (Linux) — SIGINT/SIGTERM → shutdown-flag plumbing for
//!   graceful server drain, bound through the same minimal FFI shim.

#![warn(missing_docs)]

#[cfg(target_os = "linux")]
pub mod endpoint;
pub mod loadgen;
pub mod packet;
#[cfg(target_os = "linux")]
pub mod poll;
pub mod ring;
pub mod rtt;
#[cfg(target_os = "linux")]
pub mod signal;

pub use loadgen::{Collector, LoadGen, LoadGenReport};
pub use packet::{Request, Response};
pub use ring::{ring, CachePadded, Consumer, Producer};
pub use rtt::RttModel;
