//! Live introspection plane for a running Concord server.
//!
//! A black-box server can't show its tail while it is happening; this
//! crate turns the counters and histograms the runtime already collects
//! into a machine-readable live view:
//!
//! - [`MetricsRegistry`] — counters, gauges, and histogram sources are
//!   registered **once** at startup and snapshotted **coherently** at
//!   scrape time. The data-plane hot path is untouched: publishers keep
//!   writing the same relaxed atomics and mutex-free SPSC rings they
//!   already write; the registry only *reads* them when a scrape asks.
//! - [`render_prometheus`] — Prometheus text exposition (version 0.0.4)
//!   with HDR histograms exported as cumulative `le` buckets via
//!   [`concord_metrics::Histogram::cumulative`].
//! - [`parse_scrape`] — a scrape-text parser for round-trip tests and
//!   the `concord-top` dashboard.
//! - [`http`] — a zero-dependency, single-threaded HTTP/1.1 admin
//!   listener built on the `concord-net` poller (Linux only, like the
//!   poller itself).
//! - [`admin`] — the admin plane both the server and the rack serve on
//!   that listener: `/metrics`, `/healthz` and a tier's own route table.
//! - [`json`] — the workspace's one JSON writer/parser: `/statz` bodies,
//!   the dashboard, and the Perfetto trace export (the workspace has no
//!   third-party dependencies by policy).
//!
//! The `concord-top` and `concord-scrape` binaries in this crate poll
//! those endpoints from outside the process.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(target_os = "linux")]
pub mod admin;
pub mod client;
pub mod expo;
#[cfg(target_os = "linux")]
pub mod http;
pub mod json;
pub mod registry;

pub use expo::{parse_scrape, render_prometheus};
#[cfg(target_os = "linux")]
pub use http::{HttpRequest, HttpResponse, HttpServer};
pub use registry::{MetricKind, MetricsRegistry, MetricsSnapshot};
