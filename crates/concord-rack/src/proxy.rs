//! The rack proxy loop: one event-loop thread that owns every client
//! connection and every backend connection.
//!
//! Requests flow client → rack → backend under a *rewritten* id: the
//! rack parks the client's identity (slot, generation, original id) in
//! a pending table and forwards the request under
//! [`concord_wire::route::pending_id`], which fits in the low 40 bits a
//! backend echoes verbatim. The response relays back through
//! [`concord_wire::encode_relay`] with the client's original id
//! restored — the client cannot tell a rack from a bare server.
//!
//! Every request is accounted for exactly once. The conservation
//! identities the loop maintains (and [`RackReport::check`] verifies):
//!
//! ```text
//! requests_in == forwarded + rejected_local
//! forwarded   == relayed_ok + relayed_failed + relayed_retry
//!              + failed_over + relay_dropped + pending_now
//! ```
//!
//! `orphaned` sits outside the identity on purpose: it counts
//! *responses* that matched no pending entry (duplicates, or responses
//! racing a failover), not requests, so it can tick without any request
//! going unaccounted.
//!
//! Sockets go through [`concord_net::endpoint`], like the server's:
//! every connection encodes frames straight into an [`Outbox`] bounded
//! in frames and keeps a [`Registration`] that wants `EPOLLOUT` while
//! the outbox holds anything (the rack writes on writability); the
//! client listener parks on accept failures instead of spinning.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use concord_net::endpoint::{flush, Flush, Listener, Outbox, Registration};
use concord_net::poll::{Events, Interest, Poller, Waker};
use concord_wire::frame::{self as wire, Frame, Status};
pub use concord_wire::route::MAX_PENDING;
use concord_wire::route::{pending_id, split_pending_id};
use concord_wire::RecvBuf;

use crate::balance::{BackendTable, RackRoute};
use crate::config::RackConfig;
use crate::probe;

/// Epoll token for the client listener.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Epoll token for the prober's waker.
const TOKEN_WAKER: u64 = u64::MAX - 1;
/// Token tag bit for client connections.
const CLIENT_TAG: u64 = 1 << 63;
/// Token tag bit for backend connections.
const BACKEND_TAG: u64 = 1 << 62;

fn client_token(slot: u32, gen: u16) -> u64 {
    CLIENT_TAG | (u64::from(gen) << 32) | u64::from(slot)
}

fn backend_token(idx: usize) -> u64 {
    BACKEND_TAG | idx as u64
}

/// Rack-wide monotone counters, shared between the proxy loop (writer)
/// and the admin plane (reader).
#[derive(Default)]
pub struct RackTotals {
    /// Requests decoded off client connections.
    pub requests_in: AtomicU64,
    /// Requests forwarded to a backend.
    pub forwarded: AtomicU64,
    /// Requests answered RETRY by the rack itself (no accepting
    /// backend, pending table full, or shutting down).
    pub rejected_local: AtomicU64,
    /// Backend responses relayed to clients with status OK.
    pub relayed_ok: AtomicU64,
    /// ... with status FAILED.
    pub relayed_failed: AtomicU64,
    /// ... with status RETRY (the backend's own admission gate shed it).
    pub relayed_retry: AtomicU64,
    /// Forwarded requests answered RETRY by the rack because their
    /// backend died before responding.
    pub failed_over: AtomicU64,
    /// Backend responses that matched a pending entry whose client had
    /// already gone away.
    pub relay_dropped: AtomicU64,
    /// Backend responses that matched no pending entry at all
    /// (diagnostic; outside the conservation identity).
    pub orphaned: AtomicU64,
    /// Connections closed for malformed frames (either side).
    pub protocol_errors: AtomicU64,
    /// Client connections ever accepted.
    pub conns_accepted: AtomicU64,
    /// Client connections fully retired.
    pub conns_closed: AtomicU64,
}

/// State shared across the proxy loop, the prober, and the admin plane.
pub struct RackShared {
    /// The backend table (health, depth estimates, drain bits).
    pub table: BackendTable,
    /// The rack-wide counters.
    pub totals: RackTotals,
    /// Requests currently parked in the pending table.
    pub pending_now: AtomicU64,
    /// Open client connections.
    pub active_connections: AtomicU64,
    /// Set once shutdown begins: new requests are rejected while
    /// in-flight ones drain.
    pub draining: AtomicBool,
    /// Tells the proxy and prober threads to exit.
    pub(crate) stop: AtomicBool,
}

/// What the rack knew about one forwarded request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct PendingEntry {
    client_slot: u32,
    client_gen: u16,
    client_id: u64,
    class: u16,
    service_ns: u64,
    backend: usize,
}

struct PendingSlot {
    gen: u16,
    entry: Option<PendingEntry>,
}

/// The pending-request table: slot/generation addressed, like the
/// server's connection table one layer down. Freeing a slot bumps its
/// generation, so a late response for a recycled slot misses the
/// generation check instead of cross-delivering.
struct PendingTable {
    slots: Vec<PendingSlot>,
    free: Vec<u32>,
    in_use: usize,
    cap: usize,
}

impl PendingTable {
    fn new(cap: usize) -> PendingTable {
        PendingTable {
            slots: Vec::new(),
            free: Vec::new(),
            in_use: 0,
            cap,
        }
    }

    fn len(&self) -> usize {
        self.in_use
    }

    /// Parks an entry; `None` when the table is at capacity.
    fn alloc(&mut self, entry: PendingEntry) -> Option<(u32, u16)> {
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                if self.slots.len() >= self.cap {
                    return None;
                }
                self.slots.push(PendingSlot {
                    gen: 0,
                    entry: None,
                });
                (self.slots.len() - 1) as u32
            }
        };
        let s = &mut self.slots[slot as usize];
        debug_assert!(s.entry.is_none());
        s.entry = Some(entry);
        self.in_use += 1;
        Some((slot, s.gen))
    }

    /// Removes and returns the entry at `slot` if `gen` still matches.
    fn take(&mut self, slot: u32, gen: u16) -> Option<PendingEntry> {
        let s = self.slots.get_mut(slot as usize)?;
        if s.gen != gen || s.entry.is_none() {
            return None;
        }
        let entry = s.entry.take();
        s.gen = s.gen.wrapping_add(1);
        self.in_use -= 1;
        self.free.push(slot);
        entry
    }

    /// Removes every entry destined for backend `idx` (its connection
    /// died); the caller fails them over.
    fn drain_backend(&mut self, idx: usize) -> Vec<PendingEntry> {
        let mut drained = Vec::new();
        for (slot, s) in self.slots.iter_mut().enumerate() {
            if s.entry.as_ref().is_some_and(|e| e.backend == idx) {
                drained.push(s.entry.take().expect("checked above"));
                s.gen = s.gen.wrapping_add(1);
                self.in_use -= 1;
                self.free.push(slot as u32);
            }
        }
        drained
    }
}

/// One client connection's loop-private state.
struct ClientConn {
    stream: TcpStream,
    recv: RecvBuf,
    /// Answers for the client, bounded at `RackConfig::outbox_cap`
    /// frames.
    out: Outbox,
    /// Deregistered when half-closed with nothing queued.
    reg: Registration,
    route: RackRoute,
    inflight: u64,
    read_closed: bool,
}

impl ClientConn {
    /// Waits on exactly what is left: reads until half-close, writes
    /// while answers are queued.
    fn sync(&mut self, poller: &Poller) {
        self.reg
            .sync(poller, !self.read_closed, !self.out.is_empty());
    }
}

struct ClientSlot {
    gen: u16,
    conn: Option<ClientConn>,
}

/// One backend connection's loop-private state.
struct BackendConn {
    stream: TcpStream,
    recv: RecvBuf,
    /// Forwarded requests, bounded at `RackConfig::pending_cap` frames:
    /// each holds a pending entry until the backend answers it.
    out: Outbox,
    reg: Registration,
}

/// Final accounting a rack reports at shutdown.
#[derive(Clone, Copy, Debug, Default)]
pub struct RackReport {
    /// Requests decoded off client connections.
    pub requests_in: u64,
    /// Requests forwarded to a backend.
    pub forwarded: u64,
    /// Requests the rack rejected locally with RETRY.
    pub rejected_local: u64,
    /// Responses relayed with status OK.
    pub relayed_ok: u64,
    /// Responses relayed with status FAILED.
    pub relayed_failed: u64,
    /// Responses relayed with status RETRY.
    pub relayed_retry: u64,
    /// Requests failed over (backend died) and answered RETRY.
    pub failed_over: u64,
    /// Responses whose client was already gone.
    pub relay_dropped: u64,
    /// Responses matching no pending entry (diagnostic).
    pub orphaned: u64,
    /// Connections closed for malformed frames.
    pub protocol_errors: u64,
    /// Client connections ever accepted.
    pub conns_accepted: u64,
    /// Requests still pending when the loop exited (0 unless the drain
    /// grace expired first).
    pub pending_at_exit: u64,
}

impl RackReport {
    fn gather(shared: &RackShared, pending_at_exit: u64) -> RackReport {
        let t = &shared.totals;
        RackReport {
            requests_in: t.requests_in.load(Ordering::Relaxed),
            forwarded: t.forwarded.load(Ordering::Relaxed),
            rejected_local: t.rejected_local.load(Ordering::Relaxed),
            relayed_ok: t.relayed_ok.load(Ordering::Relaxed),
            relayed_failed: t.relayed_failed.load(Ordering::Relaxed),
            relayed_retry: t.relayed_retry.load(Ordering::Relaxed),
            failed_over: t.failed_over.load(Ordering::Relaxed),
            relay_dropped: t.relay_dropped.load(Ordering::Relaxed),
            orphaned: t.orphaned.load(Ordering::Relaxed),
            protocol_errors: t.protocol_errors.load(Ordering::Relaxed),
            conns_accepted: t.conns_accepted.load(Ordering::Relaxed),
            pending_at_exit,
        }
    }

    /// Every response the rack delivered or synthesized for clients.
    pub fn relayed_total(&self) -> u64 {
        self.relayed_ok + self.relayed_failed + self.relayed_retry
    }

    /// Checks the rack conservation identities; returns the violated
    /// identity's description on failure.
    pub fn check(&self) -> Result<(), String> {
        let ingress = self.forwarded + self.rejected_local;
        if self.requests_in != ingress {
            return Err(format!(
                "ingress identity violated: requests_in {} != forwarded {} + rejected_local {}",
                self.requests_in, self.forwarded, self.rejected_local
            ));
        }
        let settled = self.relayed_total() + self.failed_over + self.relay_dropped;
        if self.forwarded != settled + self.pending_at_exit {
            return Err(format!(
                "egress identity violated: forwarded {} != relayed {} + failed_over {} \
                 + relay_dropped {} + pending {}",
                self.forwarded,
                self.relayed_total(),
                self.failed_over,
                self.relay_dropped,
                self.pending_at_exit
            ));
        }
        Ok(())
    }
}

/// A running rack: the proxy loop, the prober, and (optionally) the
/// admin plane.
pub struct Rack {
    shared: Arc<RackShared>,
    waker: Arc<Waker>,
    local_addr: SocketAddr,
    admin_addr: Option<SocketAddr>,
    proxy: Option<JoinHandle<RackReport>>,
    prober: Option<JoinHandle<()>>,
    admin: Option<concord_obs::HttpServer>,
}

impl Rack {
    /// Binds the client listener on `addr` and starts the rack. `std`
    /// sets `SO_REUSEADDR`, so a restarted rack rebinds its port through
    /// the previous process's `TIME_WAIT` sockets.
    pub fn bind(addr: &str, cfg: RackConfig) -> io::Result<Rack> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;

        let shared = Arc::new(RackShared {
            table: BackendTable::new(cfg.backends.clone(), cfg.stale_after),
            totals: RackTotals::default(),
            pending_now: AtomicU64::new(0),
            active_connections: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            stop: AtomicBool::new(false),
        });
        let waker = Arc::new(Waker::new()?);

        let admin = match cfg.admin.as_deref() {
            Some(addr) => Some(crate::admin::serve(addr, Arc::clone(&shared))?),
            None => None,
        };
        let admin_addr = admin.as_ref().map(|a| a.local_addr());

        let prober = probe::spawn(Arc::clone(&shared), Arc::clone(&waker), cfg.probe_interval);
        let proxy = {
            let shared = Arc::clone(&shared);
            let waker = Arc::clone(&waker);
            std::thread::Builder::new()
                .name("rack-proxy".into())
                .spawn(move || proxy_loop(listener, shared, waker, cfg))
                .expect("spawn rack-proxy")
        };

        Ok(Rack {
            shared,
            waker,
            local_addr,
            admin_addr,
            proxy: Some(proxy),
            prober: Some(prober),
            admin,
        })
    }

    /// Where clients connect.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Where the admin plane listens, when enabled.
    pub fn admin_addr(&self) -> Option<SocketAddr> {
        self.admin_addr
    }

    /// The shared state (backend table, counters) — for tests and
    /// embedding.
    pub fn shared(&self) -> &Arc<RackShared> {
        &self.shared
    }

    /// Stops accepting, drains in-flight requests for up to the
    /// configured grace period, and returns the final accounting.
    pub fn shutdown(mut self) -> RackReport {
        self.shared.stop.store(true, Ordering::Release);
        self.waker.wake();
        let report = self
            .proxy
            .take()
            .expect("proxy running")
            .join()
            .expect("rack-proxy panicked");
        if let Some(p) = self.prober.take() {
            p.join().expect("rack-prober panicked");
        }
        if let Some(a) = self.admin.take() {
            a.shutdown();
        }
        report
    }
}

impl Drop for Rack {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        self.waker.wake();
        if let Some(p) = self.proxy.take() {
            let _ = p.join();
        }
        if let Some(p) = self.prober.take() {
            let _ = p.join();
        }
        if let Some(a) = self.admin.take() {
            a.shutdown();
        }
    }
}

/// Everything the proxy loop owns.
struct Loop {
    poller: Poller,
    listener: Listener,
    shared: Arc<RackShared>,
    cfg: RackConfig,
    pending: PendingTable,
    clients: Vec<ClientSlot>,
    client_free: Vec<u32>,
    backends: Vec<Option<BackendConn>>,
    scratch: Vec<u8>,
}

impl Loop {
    fn totals(&self) -> &RackTotals {
        &self.shared.totals
    }

    fn sync_pending_gauge(&self) {
        self.shared
            .pending_now
            .store(self.pending.len() as u64, Ordering::Relaxed);
    }

    // ---- backend connections -------------------------------------------

    /// Adopts sockets the prober parked for dead backends.
    fn adopt_backends(&mut self) {
        for idx in 0..self.backends.len() {
            if self.backends[idx].is_some() {
                continue;
            }
            let Some(stream) = self.shared.table.get(idx).take_stream() else {
                continue;
            };
            let mut reg = Registration::new(stream.as_raw_fd(), backend_token(idx));
            if !reg.sync(&self.poller, true, false) {
                continue; // prober will retry
            }
            self.backends[idx] = Some(BackendConn {
                stream,
                recv: RecvBuf::new(),
                out: Outbox::new(self.cfg.pending_cap),
                reg,
            });
            self.shared.table.get(idx).mark_connected();
        }
    }

    /// Tears down backend `idx`'s connection and fails over everything
    /// pending on it: each parked request is answered RETRY so the
    /// client can resend to whichever backend the rack picks next.
    fn backend_died(&mut self, idx: usize) {
        let Some(mut conn) = self.backends[idx].take() else {
            return;
        };
        conn.reg.sync(&self.poller, false, false);
        drop(conn);
        self.shared.table.get(idx).mark_dead();
        let drained = self.pending.drain_backend(idx);
        self.sync_pending_gauge();
        for entry in drained {
            self.shared.table.get(idx).settle_inflight();
            // answer_client counts relay_dropped itself when the client
            // is gone; count failed_over only for delivered RETRYs so
            // each settled request lands in exactly one bucket.
            let delivered = self.answer_client(&entry, |out| {
                wire::encode_retry(out, entry.client_id, entry.class, entry.service_ns);
            });
            if delivered {
                self.totals().failed_over.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn backend_readable(&mut self, idx: usize) {
        loop {
            let Some(conn) = self.backends[idx].as_mut() else {
                return;
            };
            match conn.recv.fill(&mut conn.stream) {
                Ok(0) => {
                    self.backend_died(idx);
                    return;
                }
                Ok(_) => {
                    if !self.drain_backend_frames(idx) {
                        self.backend_died(idx);
                        return;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.backend_died(idx);
                    return;
                }
            }
        }
    }

    /// Decodes every complete frame buffered from backend `idx`.
    /// Returns `false` when the stream is poisoned.
    fn drain_backend_frames(&mut self, idx: usize) -> bool {
        loop {
            let conn = self.backends[idx].as_mut().expect("caller checked");
            let frame = match wire::decode(conn.recv.data()) {
                Ok(Some((Frame::Response(rf), consumed))) => {
                    // Copy the fixed fields; the payload is relayed out
                    // of scratch to release the borrow on recv.
                    self.scratch.clear();
                    self.scratch.extend_from_slice(rf.payload);
                    let owned = (
                        rf.id,
                        rf.class,
                        rf.service_ns,
                        rf.queue_ns,
                        rf.busy_ns,
                        rf.status,
                    );
                    conn.recv.consume(consumed);
                    owned
                }
                Ok(Some((Frame::Request(_), _))) => {
                    self.totals()
                        .protocol_errors
                        .fetch_add(1, Ordering::Relaxed);
                    return false;
                }
                Ok(None) => return true,
                Err(_) => {
                    self.totals()
                        .protocol_errors
                        .fetch_add(1, Ordering::Relaxed);
                    return false;
                }
            };
            let (id, class, service_ns, queue_ns, busy_ns, status) = frame;
            let (slot, gen) = split_pending_id(id);
            let Some(entry) = self.pending.take(slot, gen) else {
                self.totals().orphaned.fetch_add(1, Ordering::Relaxed);
                continue;
            };
            self.sync_pending_gauge();
            self.shared.table.get(entry.backend).settle_inflight();
            // Move the payload out of scratch so the relay closure does
            // not borrow `self` while `answer_client` holds it mutably.
            let payload = std::mem::take(&mut self.scratch);
            let rf = wire::ResponseFrame {
                id,
                class,
                service_ns,
                queue_ns,
                busy_ns,
                status,
                payload: &payload,
            };
            let relayed = self.answer_client(&entry, |out| {
                wire::encode_relay(out, entry.client_id, &rf);
            });
            self.scratch = payload;
            if relayed {
                let counter = match status {
                    Status::Ok => &self.totals().relayed_ok,
                    Status::Failed => &self.totals().relayed_failed,
                    Status::Retry => &self.totals().relayed_retry,
                };
                counter.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn backend_writable(&mut self, idx: usize) {
        let Some(conn) = self.backends[idx].as_mut() else {
            return;
        };
        if flush(&mut conn.stream, &mut conn.out) == Flush::Failed {
            self.backend_died(idx);
            return;
        }
        conn.reg.sync(&self.poller, true, !conn.out.is_empty());
    }

    // ---- client connections --------------------------------------------

    fn accept_clients(&mut self) {
        while let Some(stream) = self.listener.accept(&self.poller) {
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            let seq = self.totals().conns_accepted.fetch_add(1, Ordering::Relaxed);
            let route = self.shared.table.route_for(seq);
            let slot = match self.client_free.pop() {
                Some(s) => s,
                None => {
                    self.clients.push(ClientSlot { gen: 0, conn: None });
                    (self.clients.len() - 1) as u32
                }
            };
            let gen = self.clients[slot as usize].gen;
            let mut reg = Registration::new(stream.as_raw_fd(), client_token(slot, gen));
            if !reg.sync(&self.poller, true, false) {
                self.client_free.push(slot);
                continue;
            }
            self.clients[slot as usize].conn = Some(ClientConn {
                stream,
                recv: RecvBuf::new(),
                out: Outbox::new(self.cfg.outbox_cap),
                reg,
                route,
                inflight: 0,
                read_closed: false,
            });
            self.shared
                .active_connections
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Closes a client now, regardless of in-flight state. Bumping the
    /// generation makes late responses count as `relay_dropped` instead
    /// of landing on a recycled slot — the misdelivery guard.
    fn close_client(&mut self, slot: u32) {
        let s = &mut self.clients[slot as usize];
        let Some(mut conn) = s.conn.take() else {
            return;
        };
        conn.reg.sync(&self.poller, false, false);
        s.gen = s.gen.wrapping_add(1);
        self.client_free.push(slot);
        self.shared
            .active_connections
            .fetch_sub(1, Ordering::Relaxed);
        self.totals().conns_closed.fetch_add(1, Ordering::Relaxed);
    }

    /// Retires a client if it is finished: peer half-closed, nothing in
    /// flight, nothing left to write.
    fn retire_if_done(&mut self, slot: u32) {
        if let Some(s) = self.clients.get(slot as usize) {
            if let Some(c) = &s.conn {
                if c.read_closed && c.inflight == 0 && c.out.is_empty() {
                    self.close_client(slot);
                }
            }
        }
    }

    /// Encodes a response for `entry`'s client into its outbox if it is
    /// still the same connection; returns whether it was queued. Also
    /// settles the client's in-flight count either way.
    fn answer_client(&mut self, entry: &PendingEntry, encode: impl FnOnce(&mut Vec<u8>)) -> bool {
        let totals = &self.shared.totals;
        let Some(conn) = client(&mut self.clients, entry.client_slot, entry.client_gen) else {
            totals.relay_dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        };
        conn.inflight = conn.inflight.saturating_sub(1);
        if !conn.out.push(encode) {
            // The client stopped reading; cut it loose rather than
            // buffer without bound. Its remaining in-flight responses
            // will count as relay_dropped.
            totals.relay_dropped.fetch_add(1, Ordering::Relaxed);
            self.close_client(entry.client_slot);
            return false;
        }
        conn.sync(&self.poller);
        true
    }

    fn client_readable(&mut self, slot: u32, gen: u16) {
        loop {
            let Some(conn) = client(&mut self.clients, slot, gen) else {
                return;
            };
            match conn.recv.fill(&mut conn.stream) {
                Ok(0) => {
                    conn.read_closed = true;
                    conn.sync(&self.poller);
                    self.retire_if_done(slot);
                    return;
                }
                Ok(_) => {
                    if !self.drain_client_frames(slot, gen) {
                        self.totals()
                            .protocol_errors
                            .fetch_add(1, Ordering::Relaxed);
                        self.close_client(slot);
                        return;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_client(slot);
                    return;
                }
            }
        }
    }

    /// Decodes every complete request buffered from a client. Returns
    /// `false` when the stream is poisoned.
    fn drain_client_frames(&mut self, slot: u32, gen: u16) -> bool {
        loop {
            // Field-precise borrows: `conn` out of `self.clients`,
            // payload into the disjoint `self.scratch`.
            let Some(conn) = client(&mut self.clients, slot, gen) else {
                return true; // closed mid-batch (outbox overflow)
            };
            let (id, class, service_ns, consumed) = match wire::decode(conn.recv.data()) {
                Ok(Some((Frame::Request(rf), consumed))) => {
                    self.scratch.clear();
                    self.scratch.extend_from_slice(rf.payload);
                    (rf.id, rf.class, rf.service_ns, consumed)
                }
                Ok(Some((Frame::Response(_), _))) => return false,
                Ok(None) => return true,
                Err(_) => return false,
            };
            conn.recv.consume(consumed);
            self.shared
                .totals
                .requests_in
                .fetch_add(1, Ordering::Relaxed);
            self.handle_request(slot, gen, id, class, service_ns);
        }
    }

    /// Routes one decoded request: forward under a rewritten id, or
    /// answer RETRY locally. The request payload is in `self.scratch`.
    fn handle_request(&mut self, slot: u32, gen: u16, id: u64, class: u16, service_ns: u64) {
        let draining = self.shared.draining.load(Ordering::Acquire);
        let route = client(&mut self.clients, slot, gen)
            .map(|c| c.route)
            .unwrap_or(RackRoute { primary: 0, alt: 0 });
        let picked = if draining {
            None
        } else {
            self.shared.table.pick(route)
        };
        // The prober may believe a backend is up before this loop has
        // adopted its socket; treat that window as not-up. So is a full
        // outbox: a forward stays counted in it until the whole buffer
        // is written, so `pending_cap` bounds it only while it drains.
        let target = picked.filter(|&idx| {
            self.backends[idx]
                .as_ref()
                .is_some_and(|b| !b.out.is_full())
        });
        let Some(idx) = target else {
            self.reject_local(slot, gen, id, class, service_ns);
            return;
        };
        let entry = PendingEntry {
            client_slot: slot,
            client_gen: gen,
            client_id: id,
            class,
            service_ns,
            backend: idx,
        };
        let Some((pslot, pgen)) = self.pending.alloc(entry) else {
            self.reject_local(slot, gen, id, class, service_ns);
            return;
        };
        self.sync_pending_gauge();
        let pid = pending_id(pslot, pgen);
        let conn = self.backends[idx].as_mut().expect("picked a live backend");
        let scratch = &self.scratch;
        let queued = conn
            .out
            .push(|b| wire::encode_request(b, pid, class, service_ns, scratch));
        debug_assert!(queued, "picked a backend with outbox room");
        conn.reg.sync(&self.poller, true, true);
        self.totals().forwarded.fetch_add(1, Ordering::Relaxed);
        self.shared.table.get(idx).note_forwarded();
        if let Some(c) = client(&mut self.clients, slot, gen) {
            c.inflight += 1;
        }
    }

    /// Answers RETRY from the rack itself and counts the rejection.
    fn reject_local(&mut self, slot: u32, gen: u16, id: u64, class: u16, service_ns: u64) {
        self.totals().rejected_local.fetch_add(1, Ordering::Relaxed);
        let Some(conn) = client(&mut self.clients, slot, gen) else {
            return;
        };
        if !conn
            .out
            .push(|b| wire::encode_retry(b, id, class, service_ns))
        {
            self.close_client(slot);
            return;
        }
        conn.sync(&self.poller);
    }

    fn client_writable(&mut self, slot: u32, gen: u16) {
        let Some(conn) = client(&mut self.clients, slot, gen) else {
            return;
        };
        if flush(&mut conn.stream, &mut conn.out) == Flush::Failed {
            self.close_client(slot);
            return;
        }
        conn.sync(&self.poller);
        self.retire_if_done(slot);
    }
}

/// The open client connection at `slot`, if `gen` still names it.
fn client(clients: &mut [ClientSlot], slot: u32, gen: u16) -> Option<&mut ClientConn> {
    let s = clients.get_mut(slot as usize)?;
    if s.gen != gen {
        return None;
    }
    s.conn.as_mut()
}

fn proxy_loop(
    listener: TcpListener,
    shared: Arc<RackShared>,
    waker: Arc<Waker>,
    cfg: RackConfig,
) -> RackReport {
    let poller = Poller::new().expect("rack epoll");
    poller
        .add(waker.fd(), TOKEN_WAKER, Interest::READ)
        .expect("register waker");
    let listener =
        Listener::register(listener, &poller, TOKEN_LISTENER).expect("register listener");

    let n_backends = shared.table.len();
    let drain_grace = cfg.drain_grace;
    let mut lp = Loop {
        poller,
        listener,
        shared,
        pending: PendingTable::new(cfg.pending_cap),
        cfg,
        clients: Vec::new(),
        client_free: Vec::new(),
        backends: (0..n_backends).map(|_| None).collect(),
        scratch: Vec::new(),
    };

    let mut events = Events::with_capacity(1024);
    let mut drain_deadline: Option<Instant> = None;

    loop {
        // Shutdown: stop accepting, reject new work, drain in-flight.
        if lp.shared.stop.load(Ordering::Acquire) && drain_deadline.is_none() {
            lp.shared.draining.store(true, Ordering::Release);
            lp.listener.close(&lp.poller);
            drain_deadline = Some(Instant::now() + drain_grace);
        }
        if let Some(deadline) = drain_deadline {
            let flushed = lp
                .clients
                .iter()
                .all(|s| s.conn.as_ref().is_none_or(|c| c.out.is_empty()));
            if (lp.pending.len() == 0 && flushed) || Instant::now() >= deadline {
                break;
            }
        }

        lp.adopt_backends();
        if lp.listener.check_park(&lp.poller) {
            lp.accept_clients();
        }

        let timeout = if drain_deadline.is_some() { 10 } else { 100 };
        let n = match lp.poller.wait(&mut events, lp.listener.timeout_ms(timeout)) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => panic!("rack epoll_wait: {e}"),
        };
        if n == 0 {
            continue;
        }
        for ev in events.iter() {
            match ev.token {
                TOKEN_WAKER => waker.drain(),
                TOKEN_LISTENER => lp.accept_clients(),
                t if t & CLIENT_TAG != 0 => {
                    let slot = (t & 0xFFFF_FFFF) as u32;
                    let gen = ((t >> 32) & 0xFFFF) as u16;
                    if ev.writable {
                        lp.client_writable(slot, gen);
                    }
                    if ev.readable || ev.hangup {
                        lp.client_readable(slot, gen);
                    }
                }
                t if t & BACKEND_TAG != 0 => {
                    let idx = (t & !BACKEND_TAG) as usize;
                    if ev.writable {
                        lp.backend_writable(idx);
                    }
                    if ev.readable || ev.hangup {
                        lp.backend_readable(idx);
                    }
                }
                _ => {}
            }
        }
    }

    let pending_at_exit = lp.pending.len() as u64;
    lp.sync_pending_gauge();
    RackReport::gather(&lp.shared, pending_at_exit)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(backend: usize) -> PendingEntry {
        PendingEntry {
            client_slot: 1,
            client_gen: 2,
            client_id: 99,
            class: 0,
            service_ns: 1_000,
            backend,
        }
    }

    #[test]
    fn pending_generation_guards_slot_reuse() {
        let mut t = PendingTable::new(4);
        let (slot, gen) = t.alloc(entry(0)).expect("space");
        assert_eq!(t.len(), 1);
        assert!(t.take(slot, gen.wrapping_add(1)).is_none(), "wrong gen");
        assert_eq!(t.take(slot, gen).expect("right gen").client_id, 99);
        assert!(t.take(slot, gen).is_none(), "double take");
        // The slot recycles under a new generation.
        let (slot2, gen2) = t.alloc(entry(0)).expect("space");
        assert_eq!(slot2, slot);
        assert_ne!(gen2, gen);
    }

    #[test]
    fn pending_capacity_is_enforced() {
        let mut t = PendingTable::new(2);
        let a = t.alloc(entry(0)).expect("1st");
        let _b = t.alloc(entry(0)).expect("2nd");
        assert!(t.alloc(entry(0)).is_none(), "at cap");
        t.take(a.0, a.1).expect("free one");
        assert!(t.alloc(entry(0)).is_some(), "space again");
    }

    #[test]
    fn drain_backend_removes_only_that_backends_entries() {
        let mut t = PendingTable::new(8);
        t.alloc(entry(0)).expect("a");
        let keep = t.alloc(entry(1)).expect("b");
        t.alloc(entry(0)).expect("c");
        let drained = t.drain_backend(0);
        assert_eq!(drained.len(), 2);
        assert!(drained.iter().all(|e| e.backend == 0));
        assert_eq!(t.len(), 1);
        assert!(t.take(keep.0, keep.1).is_some(), "backend-1 entry survives");
        // Drained slots are gen-bumped: stale responses miss.
        let mut t2 = PendingTable::new(8);
        let (s, g) = t2.alloc(entry(0)).expect("x");
        t2.drain_backend(0);
        assert!(t2.take(s, g).is_none());
    }

    #[test]
    fn report_check_catches_imbalance() {
        let mut r = RackReport {
            requests_in: 10,
            forwarded: 8,
            rejected_local: 2,
            relayed_ok: 6,
            relayed_failed: 1,
            relayed_retry: 0,
            failed_over: 1,
            relay_dropped: 0,
            orphaned: 0,
            protocol_errors: 0,
            conns_accepted: 1,
            pending_at_exit: 0,
        };
        r.check().expect("balanced");
        r.forwarded = 9;
        assert!(r.check().is_err(), "ingress identity");
        r.forwarded = 8;
        r.relayed_ok = 5;
        assert!(r.check().is_err(), "egress identity");
    }
}
