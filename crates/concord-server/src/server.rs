//! The TCP front end: a listener whose connections are owned by the
//! shards' dispatchers, each behind its own admission gate.
//!
//! There is no I/O thread: each shard's dispatcher polls its own epoll
//! instance once per pass through its transport (`socket.rs`), as the
//! paper's dispatcher polls the NIC's RX queue. A connection is placed
//! on one shard at accept (least connections) and touched by that
//! shard's dispatcher alone: reads are batched into its compacting
//! buffer ([`concord_wire::RecvBuf`]), frames decode zero-copy, each
//! request passes the shard's [`AdmissionQueue`] gate on the same
//! thread, and its answers are encoded into its outbox and written by
//! that thread too. Below the socket layer sit each shard's
//! generation-tagged slot table ([`crate::conn`]) and its gate, both
//! owned by the shard's transport; other threads read the gates'
//! [`AdmissionCounters`] and what each transport publishes at the end of
//! its dispatcher's pass.
//!
//! Responses are routed back to their connection through the request id:
//! the server rewrites each client id into
//! `slot << 48 | generation << 40 | client_id` before ingest and strips
//! it again at encode time, so the runtime stays oblivious to
//! connections. A request a sibling shard ran is answered by the shard
//! that read it: the runtime brings the answer home. A slot is held until
//! every answer owed on it has arrived, so an answer for a connection
//! that is gone is counted as an orphan, never delivered to the slot's
//! next occupant.
//!
//! The front end keeps one conservation law of its own on top of the
//! runtime's: every admission-gate rejection is either answered with a
//! RETRY frame or counted in [`ServerReport::retries_dropped`] when the
//! connection's outbox had no room for the RETRY.

use crate::socket::{ShardShared, ShardSockets};
use concord_core::admission::{AdmissionConfig, AdmissionPolicy, AdmissionQueue};
use concord_core::{
    AdmissionCounters, ConcordApp, Runtime, RuntimeConfig, RuntimeObserver, RuntimeStats,
    ShardRollup, TelemetrySnapshot,
};
use concord_net::endpoint::DEFAULT_OUTBOX_CAP;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Server configuration: the runtime underneath (whose `num_shards`
/// decides how many dispatcher groups serve the listener) and the
/// admission gate in front of each shard.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Scheduler configuration; `runtime.num_shards` dispatcher+worker
    /// groups are started, each behind its own admission queue.
    pub runtime: RuntimeConfig,
    /// Admission-queue bound (applied per shard); past it a request is
    /// answered RETRY.
    pub admission: AdmissionConfig,
    /// Bound on encoded frames a connection's outbox may hold; an
    /// answer that finds it full after a flush is dropped and counted in
    /// the shard's `tx_dropped`, a RETRY in `retries_dropped` (default:
    /// [`DEFAULT_OUTBOX_CAP`]). Tests shrink it to exercise that
    /// accounting deterministically.
    pub outbox_cap: usize,
    /// Failure injection: each accepted connection consumes one unit
    /// and is refused while the counter is positive, as if the process
    /// had hit its descriptor limit during connection setup. Tests use
    /// it to exercise the setup-failure path deterministically.
    pub conn_setup_faults: Arc<AtomicU64>,
    /// Admin/introspection listener address (e.g. `"127.0.0.1:9090"`,
    /// or port 0 for tests). `None` (the default) runs no admin plane.
    /// See [`crate::admin`] for the routes.
    pub admin: Option<String>,
}

impl ServerConfig {
    /// A configuration with everything but the runtime at its default:
    /// a 4096-deep reject-newest gate per shard and the standard outbox
    /// bound.
    pub fn new(runtime: RuntimeConfig) -> ServerConfig {
        ServerConfig {
            runtime,
            admission: AdmissionConfig {
                capacity: 4096,
                policy: AdmissionPolicy::RejectNewest,
            },
            outbox_cap: DEFAULT_OUTBOX_CAP,
            conn_setup_faults: Arc::new(AtomicU64::new(0)),
            admin: None,
        }
    }

    /// A validated builder seeded with the same defaults as
    /// [`ServerConfig::new`]. Prefer this over mutating the public
    /// fields: [`ServerConfigBuilder::build`] rejects configurations the
    /// struct would silently accept (zero-capacity queues and outboxes).
    pub fn builder(runtime: RuntimeConfig) -> ServerConfigBuilder {
        ServerConfigBuilder {
            cfg: ServerConfig::new(runtime),
        }
    }
}

/// Why a [`ServerConfigBuilder`] refused to build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The outbox must hold at least one frame, or no response could
    /// ever be enqueued.
    ZeroOutboxCap,
    /// The admission gate must admit at least one request.
    ZeroAdmissionCap,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroOutboxCap => write!(f, "outbox_cap must be at least 1"),
            ConfigError::ZeroAdmissionCap => {
                write!(f, "admission capacity must be at least 1")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Builder for [`ServerConfig`]; see [`ServerConfig::builder`].
#[derive(Clone, Debug)]
pub struct ServerConfigBuilder {
    cfg: ServerConfig,
}

impl ServerConfigBuilder {
    /// Sets the per-shard admission gate bound.
    pub fn admission(mut self, admission: AdmissionConfig) -> Self {
        self.cfg.admission = admission;
        self
    }

    /// Sets the per-connection outbox bound.
    pub fn outbox_cap(mut self, cap: usize) -> Self {
        self.cfg.outbox_cap = cap;
        self
    }

    /// Arms `n` injected connection-setup failures (tests).
    pub fn conn_setup_faults(mut self, faults: Arc<AtomicU64>) -> Self {
        self.cfg.conn_setup_faults = faults;
        self
    }

    /// Starts the admin/introspection plane on `addr`.
    pub fn admin(mut self, addr: impl Into<String>) -> Self {
        self.cfg.admin = Some(addr.into());
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<ServerConfig, ConfigError> {
        if self.cfg.outbox_cap == 0 {
            return Err(ConfigError::ZeroOutboxCap);
        }
        if self.cfg.admission.capacity == 0 {
            return Err(ConfigError::ZeroAdmissionCap);
        }
        Ok(self.cfg)
    }
}

/// State shared between the [`Server`] facade, the admin plane and the
/// shards' transports.
pub(crate) struct FrontShared {
    /// Stop taking new connections and new requests.
    pub(crate) stop: AtomicBool,
    /// Each shard's transport state other threads read, indexed by shard.
    pub(crate) shards: Vec<ShardShared>,
    /// Each shard's admission counters, indexed by shard; the gates
    /// themselves live in the shards' transports.
    pub(crate) admission: Vec<Arc<AdmissionCounters>>,
    /// Each shard's runtime counters, set once the runtime has started
    /// (a transport accepts nothing before): an answer dropped on a full
    /// outbox is counted in its shard's `tx_dropped`.
    pub(crate) stats: OnceLock<Vec<Arc<RuntimeStats>>>,
    pub(crate) outbox_cap: usize,
    pub(crate) accepted: AtomicU64,
    pub(crate) refused: AtomicU64,
    /// Connections whose client has not closed its sending side.
    pub(crate) active_conns: AtomicU64,
    pub(crate) protocol_errors: AtomicU64,
    /// RETRY answers that could not be queued because the connection's
    /// outbox was full (part of the rejection conservation law).
    pub(crate) retries_dropped: AtomicU64,
    /// Answers whose connection was gone when they reached its shard.
    pub(crate) orphaned: AtomicU64,
    pub(crate) setup_faults: Arc<AtomicU64>,
}

impl FrontShared {
    fn new(
        admission: Vec<Arc<AdmissionCounters>>,
        outbox_cap: usize,
        setup_faults: Arc<AtomicU64>,
    ) -> FrontShared {
        FrontShared {
            stop: AtomicBool::new(false),
            shards: admission.iter().map(|_| ShardShared::default()).collect(),
            admission,
            stats: OnceLock::new(),
            outbox_cap: outbox_cap.max(1),
            accepted: AtomicU64::new(0),
            refused: AtomicU64::new(0),
            active_conns: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            retries_dropped: AtomicU64::new(0),
            orphaned: AtomicU64::new(0),
            setup_faults,
        }
    }

    /// Each shard's runtime counters.
    pub(crate) fn stats(&self) -> &[Arc<RuntimeStats>] {
        self.stats.get().expect("set before the first accept")
    }

    /// Consumes one injected connection-setup fault, if armed.
    pub(crate) fn take_setup_fault(&self) -> bool {
        self.setup_faults
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| v.checked_sub(1))
            .is_ok()
    }

    /// A front end with no runtime behind it, one shard per entry of
    /// `admission`, each outbox bounded at `outbox_cap` frames, for tests
    /// that drive the books directly.
    #[cfg(test)]
    pub(crate) fn for_test(
        admission: Vec<Arc<AdmissionCounters>>,
        outbox_cap: usize,
    ) -> FrontShared {
        let shards = admission.len();
        let shared = FrontShared::new(admission, outbox_cap, Arc::new(AtomicU64::new(0)));
        let _ = shared
            .stats
            .set((0..shards).map(|_| Arc::default()).collect());
        shared
    }

    pub(crate) fn io_stats(&self) -> IoStats {
        IoStats {
            in_flight: self.shards.iter().map(|s| s.in_flight()).sum(),
        }
    }
}

/// The transports' ledger, summed over the shards (`/metrics` has it
/// per shard), as of each dispatcher's last pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IoStats {
    /// Requests a connection sent that were admitted and are not yet
    /// settled — answered or dropped (`concord_io_in_flight`).
    /// It is zero once the server is quiet.
    pub in_flight: u64,
}

/// Final accounting of a server's life, returned by [`Server::shutdown`].
pub struct ServerReport {
    /// Connections accepted and fully set up.
    pub accepted: u64,
    /// Connections refused: every slot held, or connection setup failed
    /// (descriptor exhaustion, injected setup fault).
    pub refused: u64,
    /// Connections torn down on a malformed frame.
    pub protocol_errors: u64,
    /// Responses whose connection was gone when they reached its shard
    /// — counted loss, never cross-delivery.
    pub orphaned_responses: u64,
    /// Admission-gate RETRY answers dropped because the connection's
    /// outbox was full. Every gate rejection is either a RETRY frame on
    /// the wire or counted here.
    pub retries_dropped: u64,
    /// The transports' ledger at exit.
    pub io: IoStats,
    /// Shard 0's admission counters — the whole gate when
    /// `num_shards == 1`.
    pub admission: Arc<AdmissionCounters>,
    /// Every shard's admission counters, indexed by shard id.
    pub admission_per_shard: Vec<Arc<AdmissionCounters>>,
    /// Shard 0's runtime counters — the whole runtime when
    /// `num_shards == 1`.
    pub stats: Arc<RuntimeStats>,
    /// Per-shard counter rows and cross-shard totals (the conservation
    /// law over all shards).
    pub rollup: ShardRollup,
    /// Shard 0's request-lifecycle telemetry.
    pub telemetry: TelemetrySnapshot,
    /// The run's scheduling-event trace, merged across shards with the
    /// shard id packed into each record's track word (`None` when
    /// disarmed). Split per shard with
    /// [`split_shards`](concord_core::trace::split_shards).
    pub trace: Option<concord_core::trace::Trace>,
}

/// A Concord runtime serving a wire-protocol TCP listener.
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<FrontShared>,
    rt: Runtime,
    admin: Option<concord_obs::HttpServer>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts serving `app` on
    /// `cfg.runtime.num_shards` Concord dispatcher groups, each behind
    /// its own admission gate. `std` sets `SO_REUSEADDR` on the listener,
    /// so a restarted server takes its old port back through the
    /// previous process's `TIME_WAIT` sockets.
    pub fn bind<A: ConcordApp>(
        addr: &str,
        cfg: ServerConfig,
        app: Arc<A>,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;

        let policy_name = cfg.runtime.policy.to_string();
        let n_shards = cfg.runtime.num_shards.max(1);
        let gates: Vec<AdmissionQueue> = (0..n_shards)
            .map(|_| AdmissionQueue::new(cfg.admission, cfg.runtime.clock.clone()))
            .collect();
        let shared = Arc::new(FrontShared::new(
            gates.iter().map(AdmissionQueue::counters).collect(),
            cfg.outbox_cap,
            cfg.conn_setup_faults.clone(),
        ));
        let listener = Arc::new(listener);
        let sockets = gates
            .into_iter()
            .enumerate()
            .map(|(shard, gate)| ShardSockets::new(shard, gate, &listener, &shared))
            .collect::<std::io::Result<Vec<_>>>()?;
        let rt = Runtime::start_shards(cfg.runtime, app, sockets);
        let observer = rt.observer();
        let _ = shared
            .stats
            .set((0..n_shards).map(|s| observer.stats(s).clone()).collect());

        let admin = match &cfg.admin {
            Some(admin_addr) => Some(crate::admin::serve(
                admin_addr,
                shared.clone(),
                observer,
                policy_name,
            )?),
            None => None,
        };

        Ok(Server {
            local_addr,
            shared,
            rt,
            admin,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The admin plane's bound address, when one was configured
    /// ([`ServerConfig::admin`]; useful with port 0).
    pub fn admin_addr(&self) -> Option<SocketAddr> {
        self.admin.as_ref().map(|a| a.local_addr())
    }

    /// Connections accepted (and fully set up) so far.
    pub fn accepted(&self) -> u64 {
        self.shared.accepted.load(Ordering::Relaxed)
    }

    /// Connections whose client has not closed its sending side.
    pub fn active_connections(&self) -> u64 {
        self.shared.active_conns.load(Ordering::Relaxed)
    }

    /// Slots currently held: by a live connection (the client may be
    /// done sending while responses are still owed or flushing), or by
    /// answers still owed on a torn-down one.
    pub fn live_slots(&self) -> usize {
        self.shared.shards.iter().map(|s| s.live()).sum()
    }

    /// The transports' live ledger.
    pub fn io_stats(&self) -> IoStats {
        self.shared.io_stats()
    }

    /// Number of shards serving this listener.
    pub fn num_shards(&self) -> usize {
        self.rt.num_shards()
    }

    /// Shard 0's live runtime counters (the whole runtime when
    /// `num_shards == 1`).
    pub fn stats(&self) -> Arc<RuntimeStats> {
        self.rt.stats()
    }

    /// A read-only view of every shard's counters and telemetry, for a
    /// report loop or monitor on another thread.
    pub fn observer(&self) -> RuntimeObserver {
        self.rt.observer()
    }

    /// Live cross-shard counter rollup.
    pub fn rollup(&self) -> ShardRollup {
        self.rt.rollup()
    }

    /// Graceful shutdown: stop accepting and reading, let every
    /// already-admitted request complete, flush every connection's
    /// outbox, then join the shards and return the final accounting.
    pub fn shutdown(mut self) -> ServerReport {
        // 1. No new work: each shard stops accepting and reading on its
        //    next pass.
        self.shared.stop.store(true, Ordering::Release);
        // 2. Graceful drain: wait until every shard has stopped reading
        //    and ingested what its gate admitted, then quiesce the shards
        //    (concurrently — each drains its in-flight requests, takes
        //    home the answers to those a sibling ran, then flushes its
        //    connections before its dispatcher exits). A shard publishes
        //    its gate's depth at the end of every pass; the last depth it
        //    published before it set `stopped` is never too low, because
        //    it was read after the last offer: nothing is offered after
        //    `stop_reading`, so the gate only empties from there.
        let deadline = Instant::now() + Duration::from_secs(30);
        let reading = |s: &FrontShared| s.shards.iter().any(|s| !s.stopped() || s.depth() > 0);
        while reading(&self.shared) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        self.rt.quiesce();
        let trace = self.rt.take_trace();
        let telemetry = self.rt.telemetry();
        // The admin plane stayed up through the drain (scrapes keep
        // working while connections flush); stop it last.
        if let Some(a) = self.admin.take() {
            a.shutdown();
        }
        let rollup = self.rt.rollup();
        ServerReport {
            accepted: self.shared.accepted.load(Ordering::Relaxed),
            refused: self.shared.refused.load(Ordering::Relaxed),
            protocol_errors: self.shared.protocol_errors.load(Ordering::Relaxed),
            orphaned_responses: self.shared.orphaned.load(Ordering::Relaxed),
            retries_dropped: self.shared.retries_dropped.load(Ordering::Relaxed),
            io: self.shared.io_stats(),
            admission: self.shared.admission[0].clone(),
            admission_per_shard: self.shared.admission.clone(),
            stats: self.rt.stats(),
            rollup,
            telemetry,
            trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_validates_what_the_struct_accepts_silently() {
        let rt = || RuntimeConfig::small_test();
        let cfg = ServerConfig::builder(rt())
            .outbox_cap(8)
            .admin("127.0.0.1:0")
            .build()
            .expect("valid config");
        assert_eq!(cfg.outbox_cap, 8);
        assert_eq!(cfg.admin.as_deref(), Some("127.0.0.1:0"));

        assert_eq!(
            ServerConfig::builder(rt())
                .outbox_cap(0)
                .build()
                .unwrap_err(),
            ConfigError::ZeroOutboxCap
        );
        let err = ServerConfig::builder(rt())
            .admission(AdmissionConfig {
                capacity: 0,
                policy: AdmissionPolicy::RejectNewest,
            })
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::ZeroAdmissionCap);
        assert!(err.to_string().contains("admission"), "{err}");
    }

    #[test]
    fn setup_faults_count_down_to_zero() {
        let shared = FrontShared::for_test(Vec::new(), 1);
        shared.setup_faults.store(2, Ordering::Relaxed);
        assert!(shared.take_setup_fault());
        assert!(shared.take_setup_fault());
        assert!(!shared.take_setup_fault(), "faults are consumed");
        assert!(!shared.take_setup_fault());
    }
}
