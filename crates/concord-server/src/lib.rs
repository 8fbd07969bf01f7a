//! TCP network front end for the Concord runtime.
//!
//! Three pieces:
//!
//! - the wire protocol: the length-prefixed binary frames (version 1)
//!   carrying requests and responses live in the [`concord_wire`] crate,
//!   shared with the `concord-rack` front-end balancer.
//! - [`server`]: a [`Server`] that binds a listener and serves it from
//!   the N scheduler shards of a [`Runtime`](concord_core::Runtime).
//!   Each shard's dispatcher owns the connections placed on it at
//!   accept (least connections) and polls their sockets itself, once per
//!   pass, through its transport: no I/O thread stands between the
//!   sockets and the scheduler. Decoded requests pass the shard's
//!   overload-aware admission gate on the same thread, and responses go
//!   back to their originating connection through generation-tagged
//!   slots ([`conn`]).
//! - [`client`]: an open/closed-loop load generator reporting the same
//!   slowdown percentiles as the in-process collector.
//!
//! ```no_run
//! use concord_core::{RuntimeConfig, SpinApp};
//! use concord_server::{ClientConfig, Server, ServerConfig};
//! use std::sync::Arc;
//!
//! let server = Server::bind(
//!     "127.0.0.1:0",
//!     ServerConfig::new(RuntimeConfig::builder().workers(2).build().unwrap()),
//!     Arc::new(SpinApp::new()),
//! )
//! .unwrap();
//! let addr = server.local_addr().to_string();
//! let report = concord_server::client::run(
//!     &addr,
//!     &ClientConfig::default(),
//!     concord_workloads::mix::fixed_1us(),
//! )
//! .unwrap();
//! println!("{}", report.render());
//! let final_report = server.shutdown();
//! assert_eq!(final_report.protocol_errors, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admin;
pub mod client;
pub mod conn;
pub mod server;
mod socket;

pub use client::{ClientConfig, ClientReport};
pub use concord_wire::{Frame, RequestFrame, ResponseFrame, Status, WireError};
pub use server::{ConfigError, IoStats, Server, ServerConfig, ServerConfigBuilder, ServerReport};
