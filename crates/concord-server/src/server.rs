//! The TCP front end: a listener served by N I/O event loops feeding
//! per-shard admission gates.
//!
//! A small fixed set of I/O threads multiplexes every connection through
//! epoll; connection count does not change the thread count. Each
//! connection has one owner, the loop that accepted it: reads are
//! batched into its compacting buffer ([`concord_wire::RecvBuf`]),
//! frames decode zero-copy, and its answers are encoded into its outbox
//! and written by that loop alone. A loop polls while requests it
//! admitted are in flight and sleeps in `epoll_wait` only when none are
//! ([`IoStats`]). Below the socket layer sit each loop's
//! generation-tagged slot table ([`crate::conn`]), the per-shard
//! [`AdmissionQueue`] gates and the hash-with-P2C-fallback router.
//!
//! Responses are routed back to their connection through the request id:
//! the server rewrites each client id into
//! `slot << 48 | generation << 40 | client_id` before ingest and strips
//! it again at encode time, so the runtime stays oblivious to
//! connections. The dispatcher's [`ServerEgress`] only routes: the slot
//! names the owning loop, and the response goes onto that loop's SPSC
//! ring, as in-process responses go onto the TX ring. A slot is held
//! until every answer owed on it has arrived, so an answer for a
//! connection that is gone is counted as an orphan, never delivered to
//! the slot's next occupant.
//!
//! The front end keeps one conservation law of its own on top of the
//! runtime's: every admission-gate rejection is either answered with a
//! RETRY frame or counted in [`ServerReport::retries_dropped`] when the
//! connection's outbox had no room for the RETRY.

use crate::conn::owner;
use crate::eventloop::{LoopShared, LoopsFront};
use concord_core::admission::{AdmissionConfig, AdmissionPolicy, AdmissionQueue};
use concord_core::transport::Egress;
use concord_core::{
    AdmissionCounters, ConcordApp, RuntimeConfig, RuntimeStats, ShardRollup, ShardedRuntime,
    TelemetrySnapshot,
};
use concord_net::endpoint::DEFAULT_OUTBOX_CAP;
use concord_net::ring::{ring, Consumer, Producer};
use concord_net::Response;
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

/// Responses one shard's dispatcher may have waiting for one event loop
/// before [`ServerEgress::send`] reports backpressure.
const RESPONSE_RING: usize = 4096;

/// The dispatcher's response sink: a router, like the in-process TX
/// ring it stands in for. Each response goes onto this dispatcher's ring
/// to the event loop that owns the response's slot (the slot in the
/// route id names it), which encodes it into the connection's outbox.
pub struct ServerEgress {
    /// Indexed by loop.
    rings: Vec<Producer<Response>>,
    loops: Vec<Arc<LoopShared>>,
}

impl Egress for ServerEgress {
    fn send(&mut self, resp: Response) -> Result<(), Response> {
        let (slot, _, _) = split_route_id(resp.id);
        let n = self.rings.len();
        self.rings[owner(slot, n)].push(resp)
    }

    fn on_drop(&mut self, resp: &Response) {
        // The dispatcher gave up on this response (`tx_dropped`): the
        // loop that admitted the request still counts it in flight, and
        // its settle inbox takes it off.
        let (slot, _, _) = split_route_id(resp.id);
        self.loops[owner(slot, self.loops.len())].settle(resp.id);
    }
}

/// One response ring per (shard, loop) pair: shard `s`'s egress gets the
/// producing ends, indexed by loop; loop `l` gets the consuming ends,
/// indexed by shard.
pub(crate) fn response_rings(
    shards: usize,
    loops: &[Arc<LoopShared>],
) -> (Vec<ServerEgress>, Vec<Vec<Consumer<Response>>>) {
    let mut consumers: Vec<Vec<_>> = loops.iter().map(|_| Vec::new()).collect();
    let egress = (0..shards)
        .map(|_| ServerEgress {
            rings: consumers
                .iter_mut()
                .map(|c| {
                    let (tx, rx) = ring(RESPONSE_RING);
                    c.push(rx);
                    tx
                })
                .collect(),
            loops: loops.to_vec(),
        })
        .collect();
    (egress, consumers)
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
    /// Final drain: every answer is on its ring; force-retire stragglers.
    pub(crate) drain: AtomicBool,
    /// Each event loop's cross-thread state, indexed by loop.
    pub(crate) loops: Vec<Arc<LoopShared>>,
    pub(crate) admissions: Vec<Arc<AdmissionQueue>>,
    /// Each shard's runtime counters: a loop that drops an answer on a
    /// full outbox counts it in that shard's `tx_dropped`.
    pub(crate) stats: Vec<Arc<RuntimeStats>>,
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
    /// Answers whose connection was gone when they reached its loop.
    pub(crate) orphaned: AtomicU64,
    pub(crate) setup_faults: Arc<AtomicU64>,
}

impl FrontShared {
    fn new(
        loops: Vec<Arc<LoopShared>>,
        admissions: Vec<Arc<AdmissionQueue>>,
        stats: Vec<Arc<RuntimeStats>>,
        router: RouterPolicy,
        outbox_cap: usize,
        setup_faults: Arc<AtomicU64>,
    ) -> FrontShared {
        FrontShared {
            stop: AtomicBool::new(false),
            drain: AtomicBool::new(false),
            loops,
            admissions,
            stats,
            router,
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

    /// Consumes one injected connection-setup fault, if armed.
    pub(crate) fn take_setup_fault(&self) -> bool {
        self.setup_faults
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| v.checked_sub(1))
            .is_ok()
    }

    /// A front end with no sockets behind it: `loops` event-loop states
    /// nobody runs and one shard per entry of `gates`, for tests that
    /// drive the books directly.
    #[cfg(test)]
    pub(crate) fn for_test(loops: usize, gates: &[AdmissionConfig]) -> FrontShared {
        FrontShared::new(
            (0..loops)
                .map(|_| LoopShared::new().expect("eventfd"))
                .collect(),
            gates
                .iter()
                .map(|&g| AdmissionQueue::new(g, concord_core::Clock::monotonic()))
                .collect(),
            gates.iter().map(|_| Arc::default()).collect(),
            RouterPolicy::HashP2c,
            DEFAULT_OUTBOX_CAP,
            Arc::new(AtomicU64::new(0)),
        )
    }

    pub(crate) fn io_stats(&self) -> IoStats {
        IoStats {
            in_flight: self.loops.iter().map(|l| l.in_flight()).sum(),
            loop_sleeps: self.loops.iter().map(|l| l.sleeps()).sum(),
        }
    }
}

/// The I/O event loops' ledger and sleep tally, summed over the loops
/// (`/metrics` has them per loop), as of each loop's last pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IoStats {
    /// Requests admitted through a loop and not yet settled — answered,
    /// dropped or evicted (`concord_io_in_flight`). A loop polls while
    /// its share is non-zero and sleeps in `epoll_wait` when it is zero;
    /// it is zero once the server is quiet.
    pub in_flight: u64,
    /// Times a loop blocked in `epoll_wait` with nothing in flight
    /// (`concord_io_loop_sleeps_total`).
    pub loop_sleeps: u64,
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
    /// Responses whose connection was gone when they reached its event
    /// loop — counted loss, never cross-delivery.
    pub orphaned_responses: u64,
    /// Admission-gate RETRY answers dropped because the connection's
    /// outbox was full. Every gate rejection is either a RETRY frame on
    /// the wire or counted here.
    pub retries_dropped: u64,
    /// The event loops' ledger and sleep tally at exit.
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
    rt: ShardedRuntime,
    front: LoopsFront,
    admin: Option<concord_obs::HttpServer>,
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
        let admissions: Vec<Arc<AdmissionQueue>> = (0..n_shards)
            .map(|_| AdmissionQueue::new(cfg.admission, cfg.runtime.clock.clone()))
            .collect();
        let n_loops = if cfg.event_loops > 0 {
            cfg.event_loops
        } else {
            // I/O is a small fraction of the work; a few loops
            // saturate the listener long before the scheduler.
            std::thread::available_parallelism()
                .map(|p| p.get() / 4)
                .unwrap_or(1)
                .clamp(1, 4)
        };
        let loops = (0..n_loops)
            .map(|_| LoopShared::new())
            .collect::<std::io::Result<Vec<_>>>()?;
        let (egress, rings) = response_rings(n_shards, &loops);
        let rt = ShardedRuntime::start(
            cfg.runtime,
            app,
            admissions.iter().map(|a| a.ingress()).collect(),
            egress,
        );

        let shared = Arc::new(FrontShared::new(
            loops,
            admissions,
            (0..n_shards).map(|s| rt.stats(s)).collect(),
            cfg.router,
            cfg.outbox_cap,
            cfg.conn_setup_faults.clone(),
        ));
        let front = LoopsFront::start(listener, shared.clone(), rings)?;

        let admin = match &cfg.admin {
            Some(admin_addr) => Some(crate::admin::serve(
                admin_addr,
                shared.clone(),
                rt.observer(),
                policy_name,
            )?),
            None => None,
        };

        Ok(Server {
            local_addr,
            shared,
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
        self.shared.loops.iter().map(|l| l.live()).sum()
    }

    /// The event loops' live ledger and sleep tally.
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
        // 3. Flush: every response the runtime emitted is on a loop's
        //    ring; each loop takes its answers in, flushes, and exits
        //    once its connections have retired.
        self.shared.drain.store(true, Ordering::Release);
        self.front.finish();
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
        let shared = FrontShared::for_test(0, &[]);
        shared.setup_faults.store(2, Ordering::Relaxed);
        assert!(shared.take_setup_fault());
        assert!(shared.take_setup_fault());
        assert!(!shared.take_setup_fault(), "faults are consumed");
        assert!(!shared.take_setup_fault());
    }

    /// Each dispatcher's answers go onto its ring to the loop that owns
    /// the answer's slot, and nowhere else.
    #[test]
    fn egress_routes_each_answer_to_its_slots_loop() {
        let shared = FrontShared::for_test(3, &[]);
        let (mut egress, mut rings) = response_rings(2, &shared.loops);
        assert_eq!((egress.len(), rings.len(), rings[0].len()), (2, 3, 2));
        for slot in 0..6u16 {
            let id = concord_wire::route::route_id(slot, 0, 7);
            egress[1]
                .send(Response::completed(&req(id)))
                .expect("ring room");
        }
        for (l, from) in rings.iter_mut().enumerate() {
            assert!(from[0].pop().is_none(), "shard 0 answered nothing");
            let slots: Vec<u16> = std::iter::from_fn(|| from[1].pop())
                .map(|r| split_route_id(r.id).0)
                .collect();
            assert_eq!(slots, [l as u16, l as u16 + 3]);
        }
    }
}
