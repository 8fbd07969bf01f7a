//! Rack-scale front-end balancer for Concord backends.
//!
//! A `concord-rack` process sits between clients and N `concord-serve`
//! backends, speaking the same length-prefixed wire protocol on both
//! sides (one codec: `concord-wire`). It extends the paper's
//! approximate-optimal scheduling story one tier up: where a backend
//! approximates optimal *ordering* with cheap compiler-inserted
//! preemption signals, the rack approximates optimal *placement* with
//! power-of-two-choices over cheaply sampled queue depths — two hashed
//! candidate backends per connection, the less-loaded one per request,
//! ties keeping the primary so a connection's requests cluster on one
//! backend (cache affinity).
//!
//! The moving parts:
//!
//! - [`balance`] — backend health (healthy/draining/dead), the depth
//!   estimator (fresh `/statz` samples + local in-flight, in-band
//!   fallback when stale), and the P2C pick.
//! - [`proxy`] — the event-loop data plane: id-rewriting request
//!   forwarding, response relay, failover, and the rack conservation
//!   law (every accepted request is forwarded, rejected, relayed,
//!   failed over, or dropped-with-count — never lost).
//! - [`probe`] — background `/statz` scraping and dead-backend
//!   reconnection.
//! - [`admin`] — the rack's own `/metrics`, `/statz`, `/healthz`, and
//!   per-backend drain control, on `concord_obs::admin` like a backend's.
//! - [`config`] — [`RackConfig::builder`], the validated way in.

#![warn(missing_docs)]

pub mod admin;
pub mod balance;
pub mod config;
pub mod probe;
pub mod proxy;

pub use balance::{Backend, BackendSpec, BackendState, BackendTable, RackRoute};
pub use config::{ConfigError, RackConfig, RackConfigBuilder};
pub use proxy::{Rack, RackReport, RackShared, RackTotals};
