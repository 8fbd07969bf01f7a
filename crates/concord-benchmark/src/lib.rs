//! The one benchmark for the live runtime, the TCP server and the
//! simulator. See `README.md` in this crate for what each metric and
//! workload is for; `BENCHMARK.json` at the repository root mirrors the
//! tables in [`spec`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod layers;
pub mod live;
pub mod proc;
pub mod run;
pub mod sim;
pub mod spans;
pub mod spec;
pub mod stats;
