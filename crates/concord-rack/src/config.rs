//! Rack configuration: validated construction only.
//!
//! Mirrors `ServerConfig` in `concord-server`: the struct's fields are
//! public for reading, but the supported way to build one is
//! [`RackConfig::builder`], which rejects inconsistent settings with a
//! [`ConfigError`] instead of letting them surface later as a wedged
//! proxy loop.

use std::error::Error;
use std::fmt;
use std::time::Duration;

use concord_net::endpoint::DEFAULT_OUTBOX_CAP;

use crate::balance::BackendSpec;
use crate::proxy::MAX_PENDING;

/// Everything the rack process needs to run.
#[derive(Clone, Debug)]
pub struct RackConfig {
    /// The backends to balance across, in index order.
    pub backends: Vec<BackendSpec>,
    /// Capacity of the pending-request table (in-flight cap across all
    /// backends). Full table ⇒ counted local rejection.
    pub pending_cap: usize,
    /// Per-client-connection outbox cap in frames; a client that stops
    /// reading past this is disconnected rather than ballooning memory,
    /// and its answers still owed count as `relay_dropped`.
    pub outbox_cap: usize,
    /// How often the prober scrapes backend `/statz` and retries dead
    /// backends' connections.
    pub probe_interval: Duration,
    /// How old a `/statz` depth sample may be before the balancer falls
    /// back to its in-band in-flight estimate.
    pub stale_after: Duration,
    /// Rack admin-plane listen address (`/metrics`, `/statz`, drain
    /// control); `None` disables it.
    pub admin: Option<String>,
    /// How long shutdown waits for in-flight requests to settle before
    /// abandoning them.
    pub drain_grace: Duration,
}

impl RackConfig {
    /// Starts a validated builder over `backends`.
    pub fn builder(backends: Vec<BackendSpec>) -> RackConfigBuilder {
        RackConfigBuilder {
            backends,
            pending_cap: 65_536,
            outbox_cap: DEFAULT_OUTBOX_CAP,
            probe_interval: Duration::from_millis(100),
            stale_after: Duration::from_secs(1),
            admin: None,
            drain_grace: Duration::from_secs(2),
        }
    }
}

/// Why a [`RackConfigBuilder::build`] call was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// No backends were configured; the rack would reject everything.
    NoBackends,
    /// `pending_cap` was zero; no request could ever be forwarded.
    ZeroPendingCap,
    /// `pending_cap` exceeds what the pending-id bit layout can address.
    PendingCapTooLarge {
        /// The requested capacity.
        requested: usize,
        /// The largest addressable capacity.
        max: usize,
    },
    /// `outbox_cap` was zero; no response could ever be buffered.
    ZeroOutboxCap,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoBackends => write!(f, "rack config lists no backends"),
            ConfigError::ZeroPendingCap => write!(f, "pending_cap must be at least 1"),
            ConfigError::PendingCapTooLarge { requested, max } => write!(
                f,
                "pending_cap {requested} exceeds the pending-id address space (max {max})"
            ),
            ConfigError::ZeroOutboxCap => write!(f, "outbox_cap must be at least 1"),
        }
    }
}

impl Error for ConfigError {}

/// Builder for [`RackConfig`]; see [`RackConfig::builder`].
#[derive(Clone, Debug)]
pub struct RackConfigBuilder {
    backends: Vec<BackendSpec>,
    pending_cap: usize,
    outbox_cap: usize,
    probe_interval: Duration,
    stale_after: Duration,
    admin: Option<String>,
    drain_grace: Duration,
}

impl RackConfigBuilder {
    /// Caps in-flight requests across all backends (default 65 536).
    pub fn pending_cap(mut self, cap: usize) -> Self {
        self.pending_cap = cap;
        self
    }

    /// Caps each client connection's outbox in frames (default
    /// [`DEFAULT_OUTBOX_CAP`], 65 536).
    pub fn outbox_cap(mut self, cap: usize) -> Self {
        self.outbox_cap = cap;
        self
    }

    /// Sets the `/statz` scrape and reconnect cadence (default 100 ms).
    pub fn probe_interval(mut self, interval: Duration) -> Self {
        self.probe_interval = interval;
        self
    }

    /// Sets how old a depth sample may be before it is distrusted
    /// (default 1 s).
    pub fn stale_after(mut self, age: Duration) -> Self {
        self.stale_after = age;
        self
    }

    /// Enables the rack admin plane on `addr`.
    pub fn admin(mut self, addr: impl Into<String>) -> Self {
        self.admin = Some(addr.into());
        self
    }

    /// Sets the shutdown drain grace period (default 2 s).
    pub fn drain_grace(mut self, grace: Duration) -> Self {
        self.drain_grace = grace;
        self
    }

    /// Validates and produces the config.
    pub fn build(self) -> Result<RackConfig, ConfigError> {
        if self.backends.is_empty() {
            return Err(ConfigError::NoBackends);
        }
        if self.pending_cap == 0 {
            return Err(ConfigError::ZeroPendingCap);
        }
        if self.pending_cap > MAX_PENDING {
            return Err(ConfigError::PendingCapTooLarge {
                requested: self.pending_cap,
                max: MAX_PENDING,
            });
        }
        if self.outbox_cap == 0 {
            return Err(ConfigError::ZeroOutboxCap);
        }
        Ok(RackConfig {
            backends: self.backends,
            pending_cap: self.pending_cap,
            outbox_cap: self.outbox_cap,
            probe_interval: self.probe_interval,
            stale_after: self.stale_after,
            admin: self.admin,
            drain_grace: self.drain_grace,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_backend() -> Vec<BackendSpec> {
        vec![BackendSpec {
            addr: "127.0.0.1:7070".into(),
            admin: None,
        }]
    }

    #[test]
    fn builder_applies_defaults_and_overrides() {
        let cfg = RackConfig::builder(one_backend())
            .pending_cap(128)
            .probe_interval(Duration::from_millis(10))
            .admin("127.0.0.1:0")
            .build()
            .expect("valid config");
        assert_eq!(cfg.pending_cap, 128);
        assert_eq!(cfg.probe_interval, Duration::from_millis(10));
        assert_eq!(cfg.admin.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(cfg.stale_after, Duration::from_secs(1), "default survives");
    }

    #[test]
    fn builder_rejects_inconsistent_settings() {
        assert_eq!(
            RackConfig::builder(Vec::new()).build().unwrap_err(),
            ConfigError::NoBackends
        );
        assert_eq!(
            RackConfig::builder(one_backend())
                .pending_cap(0)
                .build()
                .unwrap_err(),
            ConfigError::ZeroPendingCap
        );
        assert_eq!(
            RackConfig::builder(one_backend())
                .pending_cap(MAX_PENDING + 1)
                .build()
                .unwrap_err(),
            ConfigError::PendingCapTooLarge {
                requested: MAX_PENDING + 1,
                max: MAX_PENDING
            }
        );
        assert_eq!(
            RackConfig::builder(one_backend())
                .outbox_cap(0)
                .build()
                .unwrap_err(),
            ConfigError::ZeroOutboxCap
        );
    }
}
