//! Measurement substrate for microsecond-scale scheduling experiments.
//!
//! Every experiment in the Concord reproduction reports through this crate:
//!
//! - [`Histogram`] — an HDR-style log-bucketed histogram with configurable
//!   significant-figure precision, used for latency and slowdown recording.
//!   Recording is O(1) and allocation-free after construction, which matters
//!   because the simulator records hundreds of millions of samples.
//! - [`Summary`] — streaming mean/variance/min/max (Welford's algorithm).
//! - [`SlowdownTracker`] — records request *slowdown* (sojourn time divided
//!   by un-instrumented service time), the paper's primary metric (§5.1).
//! - [`LatencyBreakdown`] — the runtime telemetry bundle: queueing, service
//!   and sojourn histograms plus slowdown, with tail accessors.
//! - [`capacity`] — searches for the maximum sustainable load under a tail
//!   slowdown SLO, i.e. the "x-axis crossing" that the paper's throughput
//!   claims (18%, 52%, 83%, ...) are derived from.
//! - [`series`] — labeled (x, y) series plus plain-text table rendering used
//!   by the `figN` harness binaries to print paper-figure data.
//!
//! # Examples
//!
//! ```
//! use concord_metrics::Histogram;
//!
//! let mut h = Histogram::new(3);
//! for v in 1..=1000u64 {
//!     h.record(v);
//! }
//! assert_eq!(h.len(), 1000);
//! let p50 = h.value_at_quantile(0.50);
//! assert!((p50 as f64 - 500.0).abs() / 500.0 < 0.01);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod breakdown;
pub mod capacity;
pub mod display;
pub mod histogram;
pub mod series;
pub mod slowdown;
pub mod summary;

pub use breakdown::LatencyBreakdown;
pub use capacity::{find_capacity, CapacityResult, CapacitySearch};
pub use display::{ascii_chart, percentile_line};
pub use histogram::Histogram;
pub use series::{Series, Table};
pub use slowdown::SlowdownTracker;
pub use summary::Summary;
