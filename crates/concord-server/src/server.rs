//! The TCP front end: a listener served by N I/O event loops feeding
//! per-shard admission gates.
//!
//! A small fixed set of I/O threads multiplexes every connection through
//! epoll. Reads are batched into per-connection compacting buffers
//! ([`concord_wire::RecvBuf`]), frames decode zero-copy, and responses
//! are encoded straight into a per-connection byte buffer the loop
//! swaps out and writes; connection count does not change the thread
//! count. A loop polls while requests it admitted are in flight and
//! sleeps in `epoll_wait` only when none are ([`IoStats`]). Below the
//! socket layer sit the generation-tagged connection table
//! ([`crate::conn`]), the per-shard [`AdmissionQueue`] gates, the
//! hash-with-P2C-fallback router, and the owed/settled retirement books.
//!
//! Responses are routed back to their connection through the request id:
//! the server rewrites each client id into
//! `slot << 48 | generation << 40 | client_id` before ingest and strips
//! it again at encode time, so the runtime stays oblivious to
//! connections. The generation tag makes id reuse safe: a response for
//! a connection whose slot has since been recycled is counted as an
//! orphan instead of being delivered to the wrong client.
//!
//! The front end keeps one conservation law of its own on top of the
//! runtime's: every admission-gate rejection is either answered with a
//! RETRY frame or counted in [`ServerReport::retries_dropped`] when the
//! connection's outbox had no room for the RETRY.

use crate::conn::{ConnTable, ConnWriter, Queued, DEFAULT_OUTBOX_CAP};
use crate::eventloop::{LoopShared, LoopsFront};
use concord_core::admission::{AdmissionConfig, AdmissionPolicy, AdmissionQueue};
use concord_core::transport::Egress;
use concord_core::{
    AdmissionCounters, ConcordApp, RuntimeConfig, RuntimeStats, ShardRollup, ShardedRuntime,
    TelemetrySnapshot,
};
use concord_net::Response;
use concord_wire::frame::{self as wire, Status};
use concord_wire::route::{split_route_id, GEN_BITS};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a connection is mapped to a shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouterPolicy {
    /// Hash the connection identity to a primary shard; per request,
    /// fall back to a second hashed candidate when it has the shorter
    /// admission queue (power of two choices on queue depth).
    HashP2c,
    /// Route every connection to one shard (modulo the shard count).
    /// For tests that need deliberate skew — e.g. to exercise the
    /// inter-shard steal path.
    Pin(usize),
}

/// A connection's routing decision inputs: two hashed candidates.
#[derive(Clone, Copy)]
pub(crate) struct ShardRoute {
    pub(crate) primary: usize,
    pub(crate) alt: usize,
    policy: RouterPolicy,
}

impl ShardRoute {
    pub(crate) fn new(slot: u16, gen: u8, n: usize, policy: RouterPolicy) -> Self {
        let h = ((u64::from(slot) << GEN_BITS) | u64::from(gen))
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let primary = ((h >> 32) as usize) % n;
        let alt = if n > 1 {
            (primary + 1 + (h as u32 as usize) % (n - 1)) % n
        } else {
            primary
        };
        Self {
            primary,
            alt,
            policy,
        }
    }

    /// Picks the shard for one request: pinned, or the less-loaded of
    /// the two hashed candidates (ties keep the primary, preserving
    /// connection affinity).
    pub(crate) fn pick(&self, shards: &[Arc<AdmissionQueue>]) -> usize {
        match self.policy {
            RouterPolicy::Pin(s) => s % shards.len(),
            RouterPolicy::HashP2c => {
                if self.alt != self.primary && shards[self.alt].len() < shards[self.primary].len() {
                    self.alt
                } else {
                    self.primary
                }
            }
        }
    }
}

/// The dispatcher's response sink: encodes each response straight into
/// its connection's outbox, found by the id's slot and generation bits.
pub struct ServerEgress {
    conns: Arc<ConnTable>,
    orphaned: Arc<AtomicU64>,
    /// The writer this egress last saw live at each slot, with the
    /// generation it answers to, so the [`ConnTable`] lock is taken when
    /// a slot changes hands, not per response. A hit needs the
    /// generation to match *and* the writer to be open: a closed writer
    /// is looked up again, because after 256 reuses of its slot the same
    /// generation names a different, live connection.
    last_seen: Vec<Option<(u8, Arc<ConnWriter>)>>,
}

impl ServerEgress {
    pub(crate) fn new(conns: Arc<ConnTable>, orphaned: Arc<AtomicU64>) -> Self {
        Self {
            conns,
            orphaned,
            last_seen: Vec::new(),
        }
    }

    /// The writer registered at `slot` under `gen`, or `None` when that
    /// connection is gone (the slot is free, or has been recycled under
    /// another generation).
    fn writer(&mut self, slot: u16, gen: u8) -> Option<&ConnWriter> {
        let i = usize::from(slot);
        if i >= self.last_seen.len() {
            self.last_seen.resize(i + 1, None);
        }
        let seen = &mut self.last_seen[i];
        if !matches!(seen, Some((g, w)) if *g == gen && !w.is_closed()) {
            *seen = self.conns.lookup(slot, gen).map(|w| (gen, w));
        }
        seen.as_ref().map(|(_, w)| &**w)
    }
}

impl Egress for ServerEgress {
    fn send(&mut self, resp: Response) -> Result<(), Response> {
        let (slot, gen, client_id) = split_route_id(resp.id);
        let queued = match self.writer(slot, gen) {
            Some(writer) => {
                writer.respond(|out| wire::encode_response(out, client_id, &resp, Status::Ok))
            }
            None => Queued::Closed,
        };
        match queued {
            Queued::Yes => Ok(()),
            Queued::Closed => {
                // Connection gone, or the slot was recycled (stale
                // generation): the response has no destination. Counted,
                // never cross-delivered.
                self.orphaned.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            // Live connection, full outbox: real backpressure. Hand the
            // response back so the dispatcher's retry-then-drop policy
            // (and its tx_dropped accounting) applies unchanged.
            Queued::Full => Err(resp),
        }
    }

    fn on_drop(&mut self, resp: &Response) {
        // The dispatcher gave up on this response under backpressure
        // (`tx_dropped`). The connection will never see it, so settle the
        // owed book now — otherwise a half-closed connection whose last
        // response was dropped would hold its slot forever.
        let (slot, gen, _) = split_route_id(resp.id);
        if let Some(writer) = self.writer(slot, gen) {
            writer.settle_owed();
        }
    }
}

/// Server configuration: the runtime underneath (whose `num_shards`
/// decides how many dispatcher groups serve the listener), the
/// admission gate in front of each shard, the connection router, and
/// the event-loop pool size.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Scheduler configuration; `runtime.num_shards` dispatcher+worker
    /// groups are started, each behind its own admission queue.
    pub runtime: RuntimeConfig,
    /// Admission-queue bound and overflow policy (applied per shard).
    pub admission: AdmissionConfig,
    /// Connection-to-shard routing policy.
    pub router: RouterPolicy,
    /// I/O event-loop threads; `0` picks a small count from the
    /// machine's parallelism.
    pub event_loops: usize,
    /// Bound on encoded frames a connection's outbox may hold before
    /// the egress reports backpressure (default:
    /// [`DEFAULT_OUTBOX_CAP`]). Tests shrink it to exercise the
    /// backpressure accounting deterministically.
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
    /// a 4096-deep reject-newest gate per shard, hash+P2C routing, an
    /// auto-sized event-loop count, and the standard outbox bound.
    pub fn new(runtime: RuntimeConfig) -> ServerConfig {
        ServerConfig {
            runtime,
            admission: AdmissionConfig {
                capacity: 4096,
                policy: AdmissionPolicy::RejectNewest,
            },
            router: RouterPolicy::HashP2c,
            event_loops: 0,
            outbox_cap: DEFAULT_OUTBOX_CAP,
            conn_setup_faults: Arc::new(AtomicU64::new(0)),
            admin: None,
        }
    }

    /// A validated builder seeded with the same defaults as
    /// [`ServerConfig::new`]. Prefer this over mutating the public
    /// fields: [`ServerConfigBuilder::build`] rejects configurations the
    /// struct would silently accept (a pinned router aimed past the last
    /// shard, zero-capacity queues).
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
    /// [`RouterPolicy::Pin`] aimed at a shard the runtime does not have.
    PinOutOfRange {
        /// The pinned shard index.
        pin: usize,
        /// How many shards the runtime configuration starts.
        shards: usize,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroOutboxCap => write!(f, "outbox_cap must be at least 1"),
            ConfigError::ZeroAdmissionCap => {
                write!(f, "admission capacity must be at least 1")
            }
            ConfigError::PinOutOfRange { pin, shards } => write!(
                f,
                "router pinned to shard {pin}, but the runtime has only {shards} shard(s)"
            ),
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
    /// Sets the per-shard admission gate bound and overflow policy.
    pub fn admission(mut self, admission: AdmissionConfig) -> Self {
        self.cfg.admission = admission;
        self
    }

    /// Sets the connection-to-shard routing policy.
    pub fn router(mut self, router: RouterPolicy) -> Self {
        self.cfg.router = router;
        self
    }

    /// Sets the I/O event-loop thread count (`0` = auto-size).
    pub fn event_loops(mut self, n: usize) -> Self {
        self.cfg.event_loops = n;
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
        if let RouterPolicy::Pin(pin) = self.cfg.router {
            let shards = self.cfg.runtime.num_shards;
            if pin >= shards {
                return Err(ConfigError::PinOutOfRange { pin, shards });
            }
        }
        Ok(self.cfg)
    }
}

/// State shared between the [`Server`] facade and its event loops.
pub(crate) struct FrontShared {
    /// Stop taking new connections and new requests.
    pub(crate) stop: AtomicBool,
    /// Final drain: outboxes are flushed; force-retire stragglers.
    pub(crate) drain: AtomicBool,
    pub(crate) conns: Arc<ConnTable>,
    /// Each event loop's cross-thread state, indexed by loop.
    pub(crate) loops: Vec<Arc<LoopShared>>,
    pub(crate) admissions: Arc<Vec<Arc<AdmissionQueue>>>,
    pub(crate) router: RouterPolicy,
    pub(crate) outbox_cap: usize,
    pub(crate) accepted: AtomicU64,
    pub(crate) refused: AtomicU64,
    /// Connections whose client has not closed its sending side.
    pub(crate) active_conns: AtomicU64,
    pub(crate) protocol_errors: AtomicU64,
    /// RETRY answers that could not be queued because the connection's
    /// outbox was full (part of the rejection conservation law).
    pub(crate) retries_dropped: AtomicU64,
    pub(crate) setup_faults: Arc<AtomicU64>,
}

impl FrontShared {
    /// Consumes one injected connection-setup fault, if armed.
    pub(crate) fn take_setup_fault(&self) -> bool {
        self.setup_faults
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| v.checked_sub(1))
            .is_ok()
    }

    /// A front end with no sockets behind it: `loops` event-loop states
    /// nobody runs and one admission gate, for tests that drive the
    /// books directly.
    #[cfg(test)]
    pub(crate) fn for_test(loops: usize, admission: AdmissionConfig) -> FrontShared {
        FrontShared {
            stop: AtomicBool::new(false),
            drain: AtomicBool::new(false),
            conns: Arc::new(ConnTable::new()),
            loops: (0..loops)
                .map(|_| LoopShared::new().expect("eventfd"))
                .collect(),
            admissions: Arc::new(vec![AdmissionQueue::new(
                admission,
                concord_core::Clock::monotonic(),
            )]),
            router: RouterPolicy::HashP2c,
            outbox_cap: 4,
            accepted: AtomicU64::new(0),
            refused: AtomicU64::new(0),
            active_conns: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            retries_dropped: AtomicU64::new(0),
            setup_faults: Arc::new(AtomicU64::new(0)),
        }
    }

    pub(crate) fn io_stats(&self) -> IoStats {
        IoStats {
            in_flight: self.loops.iter().map(|l| l.in_flight()).sum(),
            owed: self.conns.owed(),
            loop_sleeps: self.loops.iter().map(|l| l.sleeps()).sum(),
            wakeups: self.loops.iter().map(|l| l.wakeups()).sum(),
        }
    }
}

/// The I/O event loops' ledger and sleep/wake tallies, summed over the
/// loops (`/metrics` has them per loop).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IoStats {
    /// Requests offered to an admission gate whose response is not yet
    /// settled (`concord_io_in_flight`). A loop polls while its share is
    /// non-zero and sleeps in `epoll_wait` when it is zero.
    pub in_flight: u64,
    /// Responses owed across every registered connection. The same
    /// ledger kept per connection: equal to `in_flight` whenever no
    /// request is mid-admission or mid-settle, and both are zero once
    /// the server is quiet.
    pub owed: u64,
    /// Times a loop blocked in `epoll_wait` with nothing in flight
    /// (`concord_io_loop_sleeps_total`).
    pub loop_sleeps: u64,
    /// Eventfd writes that ended one of those sleeps
    /// (`concord_io_wakeups_total`). A loop that is running is never
    /// written to, so under sustained load this stays near zero.
    pub wakeups: u64,
}

/// Final accounting of a server's life, returned by [`Server::shutdown`].
pub struct ServerReport {
    /// Connections accepted and fully set up.
    pub accepted: u64,
    /// Connections refused: all 65,536 slots live, or connection setup
    /// failed (descriptor exhaustion, injected setup fault).
    pub refused: u64,
    /// Connections torn down on a malformed frame.
    pub protocol_errors: u64,
    /// Responses whose connection was gone (or whose slot had been
    /// recycled) at emit time — counted loss, never cross-delivery.
    pub orphaned_responses: u64,
    /// Admission-gate RETRY answers dropped because the connection's
    /// outbox was full. Every gate rejection is either a RETRY frame on
    /// the wire or counted here.
    pub retries_dropped: u64,
    /// The event loops' ledger and sleep/wake tallies at exit.
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
    orphaned: Arc<AtomicU64>,
    rt: ShardedRuntime,
    front: LoopsFront,
    admin: Option<crate::admin::AdminPlane>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts serving `app` on
    /// `cfg.runtime.num_shards` Concord dispatcher groups, each behind
    /// its own admission gate.
    pub fn bind<A: ConcordApp>(
        addr: &str,
        cfg: ServerConfig,
        app: Arc<A>,
    ) -> std::io::Result<Server> {
        Server::serve(TcpListener::bind(addr)?, cfg, app)
    }

    /// Starts serving on a listener the caller already bound — e.g. one
    /// from [`concord_net::sock::bind_reuse`], so a restarted backend
    /// can take its old port back through the previous process's
    /// `TIME_WAIT` sockets.
    pub fn serve<A: ConcordApp>(
        listener: TcpListener,
        cfg: ServerConfig,
        app: Arc<A>,
    ) -> std::io::Result<Server> {
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;

        let policy_name = cfg.runtime.policy.to_string();
        let n_shards = cfg.runtime.num_shards.max(1);
        let admissions: Arc<Vec<Arc<AdmissionQueue>>> = Arc::new(
            (0..n_shards)
                .map(|_| AdmissionQueue::new(cfg.admission, cfg.runtime.clock.clone()))
                .collect(),
        );
        let conns = Arc::new(ConnTable::new());
        let orphaned = Arc::new(AtomicU64::new(0));
        let rt = ShardedRuntime::start(
            cfg.runtime,
            app,
            admissions.iter().map(|a| a.ingress()).collect(),
            (0..n_shards)
                .map(|_| ServerEgress::new(conns.clone(), orphaned.clone()))
                .collect(),
        );

        let loops = if cfg.event_loops > 0 {
            cfg.event_loops
        } else {
            // I/O is a small fraction of the work; a few loops
            // saturate the listener long before the scheduler.
            std::thread::available_parallelism()
                .map(|p| p.get() / 4)
                .unwrap_or(1)
                .clamp(1, 4)
        };

        let shared = Arc::new(FrontShared {
            stop: AtomicBool::new(false),
            drain: AtomicBool::new(false),
            conns,
            loops: (0..loops)
                .map(|_| LoopShared::new())
                .collect::<std::io::Result<_>>()?,
            admissions,
            router: cfg.router,
            outbox_cap: cfg.outbox_cap.max(1),
            accepted: AtomicU64::new(0),
            refused: AtomicU64::new(0),
            active_conns: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            retries_dropped: AtomicU64::new(0),
            setup_faults: cfg.conn_setup_faults.clone(),
        });

        let front = LoopsFront::start(listener, shared.clone())?;

        let admin = match &cfg.admin {
            Some(admin_addr) => {
                let state = crate::admin::AdminState::new(
                    shared.clone(),
                    rt.observer(),
                    orphaned.clone(),
                    policy_name,
                );
                Some(crate::admin::AdminPlane::start(admin_addr, state)?)
            }
            None => None,
        };

        Ok(Server {
            local_addr,
            shared,
            orphaned,
            rt,
            front,
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
        self.admin.as_ref().and_then(|a| a.local_addr())
    }

    /// Connections accepted (and fully set up) so far.
    pub fn accepted(&self) -> u64 {
        self.shared.accepted.load(Ordering::Relaxed)
    }

    /// Connections whose client has not closed its sending side.
    pub fn active_connections(&self) -> u64 {
        self.shared.active_conns.load(Ordering::Relaxed)
    }

    /// Connections currently holding a slot (the client may be done
    /// sending while responses are still owed or flushing).
    pub fn live_slots(&self) -> usize {
        self.shared.conns.live()
    }

    /// The event loops' live ledger and sleep/wake tallies.
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
        self.rt.stats(0)
    }

    /// Live cross-shard counter rollup.
    pub fn rollup(&self) -> ShardRollup {
        self.rt.rollup()
    }

    /// Shard 0's admission gate (the whole gate when `num_shards == 1`).
    pub fn admission(&self) -> Arc<AdmissionQueue> {
        self.shared.admissions[0].clone()
    }

    /// Every shard's admission gate, indexed by shard id.
    pub fn admission_shard(&self, shard: usize) -> Arc<AdmissionQueue> {
        self.shared.admissions[shard].clone()
    }

    /// Graceful shutdown: close every admission gate (new requests are
    /// answered RETRY), stop accepting, let every already-admitted
    /// request complete, flush every connection's outbox, then join the
    /// ingress and return the final accounting.
    pub fn shutdown(mut self) -> ServerReport {
        // 1. No new work: gates reject, the event loops stop accepting
        //    and drop read interest.
        for a in self.shared.admissions.iter() {
            a.close();
        }
        self.shared.stop.store(true, Ordering::Release);
        self.front.stop_ingest();
        // 2. Graceful drain: wait for every dispatcher to ingest what its
        //    gate admitted, then quiesce the shards (concurrently — each
        //    drains its in-flight requests into the egress). Event loops
        //    keep flushing outboxes throughout.
        let deadline = Instant::now() + Duration::from_secs(30);
        while self.shared.admissions.iter().any(|a| !a.is_empty()) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        self.rt.quiesce();
        let trace = self.rt.take_trace();
        let telemetry = self.rt.telemetry(0);
        // 3. Flush: every response the runtime emitted is in an outbox;
        //    closing after quiesce lets the ingress drain before exiting.
        self.shared.drain.store(true, Ordering::Release);
        self.shared.conns.close_all();
        self.front.finish();
        // The admin plane stayed up through the drain (scrapes keep
        // working while connections flush); stop it last.
        if let Some(a) = &mut self.admin {
            a.shutdown();
        }
        let rollup = self.rt.rollup();
        ServerReport {
            accepted: self.shared.accepted.load(Ordering::Relaxed),
            refused: self.shared.refused.load(Ordering::Relaxed),
            protocol_errors: self.shared.protocol_errors.load(Ordering::Relaxed),
            orphaned_responses: self.orphaned.load(Ordering::Relaxed),
            retries_dropped: self.shared.retries_dropped.load(Ordering::Relaxed),
            io: self.shared.io_stats(),
            admission: self.shared.admissions[0].counters(),
            admission_per_shard: self
                .shared
                .admissions
                .iter()
                .map(|a| a.counters())
                .collect(),
            stats: self.rt.stats(0),
            rollup,
            telemetry,
            trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use concord_core::admission::AdmissionPolicy;
    use concord_core::Clock;

    fn queues(n: usize) -> Vec<Arc<AdmissionQueue>> {
        (0..n)
            .map(|_| {
                AdmissionQueue::new(
                    AdmissionConfig {
                        capacity: 16,
                        policy: AdmissionPolicy::RejectNewest,
                    },
                    Clock::monotonic(),
                )
            })
            .collect()
    }

    fn req(id: u64) -> concord_net::Request {
        concord_net::Request {
            id,
            class: 0,
            service_ns: 1,
            sent_at: Instant::now(),
        }
    }

    #[test]
    fn builder_validates_what_the_struct_accepts_silently() {
        let rt = || RuntimeConfig::small_test();
        let cfg = ServerConfig::builder(rt())
            .outbox_cap(8)
            .router(RouterPolicy::Pin(0))
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
        assert_eq!(
            ServerConfig::builder(rt())
                .admission(AdmissionConfig {
                    capacity: 0,
                    policy: AdmissionPolicy::RejectNewest,
                })
                .build()
                .unwrap_err(),
            ConfigError::ZeroAdmissionCap
        );
        let err = ServerConfig::builder(rt())
            .router(RouterPolicy::Pin(7))
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::PinOutOfRange { pin: 7, .. }));
        assert!(err.to_string().contains("shard"), "{err}");
    }

    #[test]
    fn pinned_router_ignores_depth() {
        let qs = queues(3);
        qs[0].offer(req(1));
        let route = ShardRoute::new(5, 0, 3, RouterPolicy::Pin(7));
        assert_eq!(route.pick(&qs), 1, "pin is modulo the shard count");
    }

    #[test]
    fn p2c_falls_back_to_shorter_queue() {
        let qs = queues(2);
        let route = ShardRoute::new(3, 1, 2, RouterPolicy::HashP2c);
        assert_ne!(route.primary, route.alt, "two distinct candidates");
        // Load the primary beyond the alt: the fallback must kick in.
        for i in 0..5 {
            qs[route.primary].offer(req(i));
        }
        assert_eq!(route.pick(&qs), route.alt);
        // Equal depth keeps connection affinity on the primary.
        for i in 0..5 {
            qs[route.alt].offer(req(10 + i));
        }
        assert_eq!(route.pick(&qs), route.primary);
    }

    #[test]
    fn single_shard_routes_everywhere_to_zero() {
        let qs = queues(1);
        for slot in 0..50u16 {
            let route = ShardRoute::new(slot, 0, 1, RouterPolicy::HashP2c);
            assert_eq!(route.pick(&qs), 0);
        }
    }

    #[test]
    fn hash_spreads_connections_across_shards() {
        let n = 4;
        let mut hit = vec![0u32; n];
        for slot in 0..256u16 {
            let route = ShardRoute::new(slot, 0, n, RouterPolicy::HashP2c);
            hit[route.primary] += 1;
        }
        for (s, &c) in hit.iter().enumerate() {
            assert!(c > 16, "shard {s} starved by the hash: {hit:?}");
        }
    }

    #[test]
    fn setup_faults_count_down_to_zero() {
        let shared = FrontShared::for_test(0, AdmissionConfig::default());
        shared.setup_faults.store(2, Ordering::Relaxed);
        assert!(shared.take_setup_fault());
        assert!(shared.take_setup_fault());
        assert!(!shared.take_setup_fault(), "faults are consumed");
        assert!(!shared.take_setup_fault());
    }

    /// An egress over an empty table, and the response that answers
    /// client id `cid` on connection `(slot, gen)`.
    fn egress() -> (ServerEgress, Arc<ConnTable>, Arc<AtomicU64>) {
        let conns = Arc::new(ConnTable::new());
        let orphaned = Arc::new(AtomicU64::new(0));
        (
            ServerEgress::new(conns.clone(), orphaned.clone()),
            conns,
            orphaned,
        )
    }

    fn answer(slot: u16, gen: u8, cid: u64) -> Response {
        Response::completed(&req(concord_wire::route::route_id(slot, gen, cid)))
    }

    /// Client ids of the response frames queued on `w`, emptying it.
    fn delivered(w: &ConnWriter) -> Vec<u64> {
        let mut bytes = Vec::new();
        w.take_outbox(&mut bytes);
        let (mut ids, mut at) = (Vec::new(), 0);
        while let Ok(Some((wire::Frame::Response(rf), used))) = wire::decode(&bytes[at..]) {
            ids.push(rf.id);
            at += used;
        }
        assert_eq!(at, bytes.len(), "whole frames only");
        ids
    }

    #[test]
    fn egress_orphans_a_recycled_slots_old_generation() {
        let (mut egress, conns, orphaned) = egress();
        let old = ConnWriter::new(8);
        let (slot, gen) = conns.register(old.clone()).expect("slot");
        old.note_owed();
        egress.send(answer(slot, gen, 1)).expect("queued");
        assert_eq!(delivered(&old), [1]);

        // The connection goes away with a response still in flight and
        // its slot is taken by a new one.
        conns.release(slot, gen);
        let new = ConnWriter::new(8);
        let (slot2, gen2) = conns.register(new.clone()).expect("slot");
        assert_eq!((slot2, gen2), (slot, gen.wrapping_add(1)));

        egress
            .send(answer(slot, gen, 2))
            .expect("orphaned, not an error");
        assert_eq!(orphaned.load(Ordering::Relaxed), 1);
        assert!(delivered(&new).is_empty(), "never cross-delivered");
        assert!(delivered(&old).is_empty());

        // The new occupant's own traffic flows, and the old generation
        // keeps orphaning afterwards (the remembered writer is the new
        // one now, under its own generation).
        new.note_owed();
        egress.send(answer(slot, gen2, 3)).expect("queued");
        egress.send(answer(slot, gen, 4)).expect("orphaned");
        assert_eq!(delivered(&new), [3]);
        assert_eq!(orphaned.load(Ordering::Relaxed), 2);
    }

    /// The generation is 8 bits: after 256 reuses of a slot the writer
    /// the egress remembers and the slot's live occupant answer to the
    /// same generation. A match on the generation alone would deliver
    /// the occupant's responses into the dead writer; the remembered
    /// writer being closed is what forces the fresh lookup.
    #[test]
    fn egress_never_revives_a_closed_writer_across_generation_wrap() {
        let (mut egress, conns, orphaned) = egress();
        let first = ConnWriter::new(8);
        let (slot, gen) = conns.register(first.clone()).expect("slot");
        first.note_owed();
        egress.send(answer(slot, gen, 1)).expect("queued");
        assert_eq!(delivered(&first), [1]);
        conns.release(slot, gen);

        // 255 occupants the egress never hears about, then the 256th.
        for _ in 0..255 {
            let w = ConnWriter::new(8);
            let (s, g) = conns.register(w.clone()).expect("slot");
            assert_eq!(s, slot);
            conns.release(s, g);
        }
        let heir = ConnWriter::new(8);
        assert_eq!(conns.register(heir.clone()), Some((slot, gen)), "wrapped");

        heir.note_owed();
        egress.send(answer(slot, gen, 2)).expect("queued");
        assert_eq!(delivered(&heir), [2], "the live occupant is answered");
        assert!(delivered(&first).is_empty(), "the dead writer stays dead");
        assert_eq!((heir.owed(), orphaned.load(Ordering::Relaxed)), (0, 0));
    }

    /// `tx_dropped` from the egress's side: a one-frame outbox refuses
    /// the second response, the dispatcher gives up on it, and
    /// `on_drop` settles what the refused `send` left owed.
    #[test]
    fn egress_backpressure_settles_through_on_drop() {
        let (mut egress, conns, orphaned) = egress();
        let w = ConnWriter::new(1);
        let (slot, gen) = conns.register(w.clone()).expect("slot");
        w.note_owed();
        w.note_owed();
        egress.send(answer(slot, gen, 1)).expect("queued");
        let refused = egress
            .send(answer(slot, gen, 2))
            .expect_err("outbox full: handed back");
        assert_eq!(w.owed(), 1, "a refused response is still owed");
        egress.on_drop(&refused);
        assert_eq!((w.owed(), orphaned.load(Ordering::Relaxed)), (0, 0));
        assert_eq!(delivered(&w), [1]);
    }
}
