//! The socket transport: each shard's dispatcher owns its connections.
//!
//! A [`ShardSockets`] is one shard's [`Transport`]: one plain value that
//! shard's dispatcher owns, the way the in-process NIC-model rings stand
//! in for the paper's RX and TX queues. It owns a
//! [`Poller`], a [`Listener`] over the shared socket (registered in
//! every shard's poller; the accept race is benign — losers see
//! `WouldBlock` — and parked out of the poller for a beat when `accept`
//! fails, e.g. on descriptor exhaustion), and — the one-owner rule —
//! everything about the connections placed on it: their sockets, their
//! slots in its own [`ConnTable`], every connection's owed count and
//! outbox, its `in_flight` count and its admission gate, all plain
//! fields no other thread touches. Other threads read only what it
//! publishes into its [`ShardShared`] at the end of every pass.
//!
//! - **Placement** happens once, at accept, by least connections: a
//!   shard accepts only while no shard serves fewer connections than it
//!   does, so N connections on N shards land one per shard. Cross-shard
//!   balance after that is the runtime's cross-shard hand-off alone.
//! - **Reads** happen in [`Transport::poll_batch`], once per dispatcher
//!   pass: one `epoll_wait(0)`, then up to a few fills per readiness
//!   event into the connection's compacting [`RecvBuf`], with zero-copy
//!   frame decode straight out of the buffer; a fill that leaves room in
//!   the buffer has drained the socket and ends the batch. Each request
//!   is offered to the shard's admission gate and the outcome booked on
//!   the spot: admitted, it is owed an answer and counted in flight;
//!   rejected, it is answered RETRY into the outbox. The dispatcher then
//!   takes what the gate admitted, as many as the pass has room for.
//! - **Answers** are encoded by [`Transport::send`] straight into their
//!   connection's outbox, and the books settled — also for a request a
//!   sibling shard ran, whose answer the runtime brings home to this
//!   shard's dispatcher. [`Transport::flush`], at the end of every pass,
//!   writes every outbox touched since the last write once a pass
//!   encodes no answer (none was joining them) or sheds a request with
//!   RETRY, or once the waiting answers have been joined by as many as
//!   the most requests in flight behind them: one `write` per
//!   connection, `EPOLLOUT` interest only when the socket fills. An
//!   answer whose outbox is still full after one flush is dropped into
//!   the shard's `tx_dropped` at once; `send` never hands a response
//!   back, so the dispatcher never spins on a socket. The outbox, the
//!   write loop and the interest reconcile are
//!   [`concord_net::endpoint`]'s, shared with the rack proxy and the
//!   admin listener.
//! - **Retirement**: a connection leaves when the client has
//!   half-closed, nothing is owed, and its outbox has flushed. Protocol
//!   errors and write failures abort it at once; either way its slot
//!   stays held until every answer still owed on it has arrived (and
//!   orphaned), so a route id never outlives its slot's generation. A
//!   half-closed connection that still owes responses is deregistered
//!   from epoll (level-triggered `EPOLLRDHUP` would re-report the
//!   half-close forever) and serviced when an answer or settle reaches
//!   it.
//!
//! Idling is the dispatcher's own `yield_now`; the transport's
//! `epoll_wait` never blocks. [`Transport::finish`], called once the
//! dispatcher has drained, flushes what the connections still hold,
//! waiting a bounded time for clients that stop reading.

use crate::conn::ConnTable;
use crate::server::FrontShared;
use concord_core::admission::{AdmissionCounters, AdmissionEvent, AdmissionQueue, AdmitOutcome};
use concord_core::transport::Transport;
use concord_core::SloState;
use concord_net::endpoint::{flush, Flush, Listener, Outbox, Registration};
use concord_net::poll::{Events, Poller};
use concord_net::{Request, Response};
use concord_wire::frame::{self as wire, Frame, Status};
use concord_wire::route::{route_id, split_route_id};
use concord_wire::RecvBuf;
use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Token of the shared listener in every shard's poller.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Socket fills per readiness event before yielding to other
/// connections (level-triggering re-reports leftover data).
const FILLS_PER_EVENT: usize = 4;
/// How long the final flush waits for stragglers: clients that won't
/// drain their sockets are force-closed past it.
const DRAIN_GRACE: Duration = Duration::from_secs(5);
fn conn_token(slot: u16, gen: u8) -> u64 {
    u64::from(slot) | (u64::from(gen) << 16)
}

/// What one shard's transport shares with other threads: the counts
/// placement and observers read.
#[derive(Default)]
pub(crate) struct ShardShared {
    /// Connections this shard serves (least-connections placement).
    conns: AtomicUsize,
    /// The shard has seen the stop flag and reads no more requests.
    stopped: AtomicBool,
    in_flight: AtomicU64,
    live: AtomicUsize,
    depth: AtomicUsize,
}

impl ShardShared {
    /// Requests waiting in the shard's admission gate, as of its
    /// dispatcher's last pass.
    pub(crate) fn depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// Requests admitted on this shard's connections and not yet
    /// settled, as of its dispatcher's last pass.
    pub(crate) fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::Relaxed)
    }

    /// Slots the shard held as of its dispatcher's last pass.
    pub(crate) fn live(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// Whether the shard has stopped reading requests.
    pub(crate) fn stopped(&self) -> bool {
        self.stopped.load(Ordering::Acquire)
    }
}

/// One shard's books, kept on its dispatcher's thread: the slot table
/// (every owed count, every outbox, `in_flight`), the admission gate its
/// connections feed, and the connections waiting to be serviced. No
/// sockets: the unit tests drive them by hand.
struct Books {
    shard: usize,
    table: ConnTable,
    gate: AdmissionQueue,
    /// Connections an answer, a settle or a socket event reached since
    /// they were last serviced: flushed, and retired if finished, when
    /// [`Books::due`] says so.
    touched: Vec<u16>,
    /// This pass encoded an answer.
    emitted: bool,
    /// This pass answered a request RETRY.
    shed: bool,
    /// Answers encoded since the touched connections were last serviced.
    held: u64,
    /// The most requests in flight behind them, seen as each was encoded.
    behind: u64,
}

impl Books {
    fn new(shard: usize, shards: usize, gate: AdmissionQueue, outbox_cap: usize) -> Books {
        Books {
            shard,
            table: ConnTable::new(shard, shards, outbox_cap),
            gate,
            touched: Vec::new(),
            emitted: false,
            shed: false,
            held: 0,
            behind: 0,
        }
    }

    /// `slot` needs servicing when the touched connections are next due.
    fn touch(&mut self, slot: u16) {
        self.touched.push(slot);
    }

    /// Ends one pass: whether the touched connections are due (`force`:
    /// now). They wait only while answers keep coming — the pass encoded
    /// one — and never for more answers than the most requests seen in
    /// flight behind them: with nothing else in flight an answer is
    /// written in the pass that produced it, and under any load it waits
    /// at most about as long as the requests queued behind it take to
    /// run. A RETRY is written in the pass that shed its request: it
    /// tells an overloaded client to back off, and is worth nothing
    /// late. Coalescing is what keeps a loopback `write` per answer off
    /// the dispatcher's path (EXPERIMENTS.md).
    fn due(&mut self, force: bool) -> bool {
        let quiet = !std::mem::take(&mut self.emitted);
        let shed = std::mem::take(&mut self.shed);
        if self.touched.is_empty() || !(force || quiet || shed || self.held >= self.behind) {
            return false;
        }
        self.held = 0;
        self.behind = 0;
        true
    }

    /// Offers one decoded request from a live connection to the gate and
    /// books the outcome: admitted, the request is owed an answer; shed,
    /// it is answered RETRY on the spot, and a RETRY that finds the
    /// outbox full is counted so the rejection stays conserved.
    fn admit(&mut self, shared: &FrontShared, req: Request) {
        let (slot, gen, cid) = split_route_id(req.id);
        let (class, service_ns) = (req.class, req.service_ns);
        match self.gate.offer(req) {
            AdmitOutcome::Admitted => self.table.owe(slot),
            AdmitOutcome::Rejected | AdmitOutcome::SloShed => {
                let queued = self
                    .table
                    .outbox(slot, gen)
                    .is_some_and(|out| out.push(|b| wire::encode_retry(b, cid, class, service_ns)));
                if queued {
                    self.shed = true;
                } else {
                    shared.retries_dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Request `id` ends unanswered: the dispatcher dropped its answer.
    fn settle(&mut self, id: u64) {
        let (slot, gen, _) = split_route_id(id);
        self.table.settle(slot, gen);
        self.touch(slot);
    }

    /// Books one answer for a request this shard's connection sent: it
    /// is encoded into the connection's outbox — after `flush` has given
    /// a full one's socket the chance to take what waits — or dropped
    /// into the shard's `tx_dropped` if the outbox stays full, or counted
    /// orphaned if the connection is gone. Either way the request is
    /// settled.
    fn answer(
        &mut self,
        shared: &FrontShared,
        resp: &Response,
        flush: impl FnOnce(u16, &mut Outbox),
    ) {
        let (slot, gen, cid) = split_route_id(resp.id);
        let encoded = match self.table.outbox(slot, gen) {
            Some(out) => {
                if out.is_full() {
                    flush(slot, out);
                }
                let encoded = out.push(|b| wire::encode_response(b, cid, resp, Status::Ok));
                if !encoded {
                    shared.stats()[self.shard]
                        .tx_dropped
                        .fetch_add(1, Ordering::Relaxed);
                } else if out.frames() == 1 {
                    self.touch(slot);
                }
                encoded
            }
            // The connection is gone: counted, never delivered.
            None => {
                shared.orphaned.fetch_add(1, Ordering::Relaxed);
                false
            }
        };
        self.table.settle(slot, gen);
        if encoded {
            self.emitted = true;
            self.held += 1;
            self.behind = self.behind.max(self.table.in_flight());
        }
    }
}

/// One connection's socket-side state machine. Its books live in the
/// shard's [`ConnTable`] under its slot.
struct Conn {
    stream: TcpStream,
    gen: u8,
    rbuf: RecvBuf,
    /// Deregistered once half-closed with nothing queued; the
    /// connection is then serviced when an answer or settle reaches it.
    reg: Registration,
    /// The client half-closed (or the server stopped reading).
    read_eof: bool,
}

/// What servicing a connection decided about it.
enum Verdict {
    /// Still serving.
    Keep,
    /// Nothing more will ever be sent: tear down.
    Retire,
    /// Write failure or lost registration: abort.
    Abort,
}

impl Conn {
    /// Reads and decodes as much as fairness allows, offering each
    /// request to the gate. Returns `true` on a protocol error (caller
    /// aborts the connection).
    fn read(&mut self, slot: u16, books: &mut Books, shared: &FrontShared) -> bool {
        let mut fills = 0;
        while fills < FILLS_PER_EVENT && !self.read_eof {
            match self.rbuf.fill(&mut self.stream) {
                Ok(0) => self.reader_done(shared),
                Ok(_) => {
                    fills += 1;
                    // A read that left room took everything the socket
                    // had: stop after this batch instead of paying a
                    // syscall to be told `WouldBlock` (level-triggering
                    // re-reports whatever lands meanwhile).
                    let drained = self.rbuf.spare() > 0;
                    // One clock read stamps the whole batch: every frame
                    // in it was in the socket buffer before this instant.
                    let arrived = Instant::now();
                    let mut at = 0;
                    let mut malformed = false;
                    loop {
                        match wire::decode(&self.rbuf.data()[at..]) {
                            Ok(Some((Frame::Request(rf), consumed))) => {
                                let id = route_id(slot, self.gen, rf.id);
                                books.admit(shared, rf.into_request(id, arrived));
                                at += consumed;
                            }
                            Ok(Some((Frame::Response(_), _))) | Err(_) => {
                                // Clients don't send responses; malformed
                                // frames poison the stream.
                                malformed = true;
                                break;
                            }
                            Ok(None) => break,
                        }
                    }
                    if at > 0 {
                        self.rbuf.consume(at);
                    }
                    if malformed {
                        shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                        return true;
                    }
                    if drained {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // Read error: no more requests, but the connection may
                // still flush what it owes.
                Err(_) => self.reader_done(shared),
            }
        }
        false
    }

    /// No more requests will be read (the client half-closed, a read
    /// failed, or the server is stopping); the connection retires once
    /// its books settle.
    fn reader_done(&mut self, shared: &FrontShared) {
        if !self.read_eof {
            self.read_eof = true;
            shared.active_conns.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// One shard's sockets and books.
struct Net {
    shared: Arc<FrontShared>,
    poller: Poller,
    listener: Listener,
    conns: HashMap<u16, Conn>,
    books: Books,
    stopping: bool,
}

impl Net {
    fn me(&self) -> &ShardShared {
        &self.shared.shards[self.books.shard]
    }

    /// One pass's socket work: stop if asked, take in every ready
    /// socket, and re-open a parked listener.
    fn pump(&mut self, events: &mut Events) {
        if self.shared.stats.get().is_none() {
            // The runtime's counters are not wired yet; the backlog
            // waits a pass.
            return;
        }
        if !self.stopping && self.shared.stop.load(Ordering::Acquire) {
            self.stop_reading();
        }
        if self.poller.wait(events, 0).unwrap_or(0) > 0 {
            self.handle(events);
        }
        if self.listener.check_park(&self.poller) {
            // Connections may have queued while parked.
            self.accept_burst();
        }
    }

    fn handle(&mut self, events: &Events) {
        for ev in events.iter() {
            if ev.token == TOKEN_LISTENER {
                self.accept_burst();
            } else {
                let slot = (ev.token & 0xFFFF) as u16;
                let gen = ((ev.token >> 16) & 0xFF) as u8;
                self.handle_conn_event(slot, gen, ev.readable, ev.hangup);
            }
        }
    }

    /// Whether no shard serves fewer connections than this one.
    fn least_loaded(&self) -> bool {
        let mine = self.me().conns.load(Ordering::Relaxed);
        self.shared
            .shards
            .iter()
            .all(|s| s.conns.load(Ordering::Relaxed) >= mine)
    }

    /// Takes connections waiting in the backlog while this shard is the
    /// least loaded. A connection whose setup fails is refused; an
    /// `accept` failure parks the listener and leaves the rest in the
    /// backlog.
    fn accept_burst(&mut self) {
        while self.least_loaded() {
            let Some(stream) = self.listener.accept(&self.poller) else {
                return;
            };
            if self.shared.take_setup_fault() {
                // Injected setup failure (modeling descriptor
                // exhaustion mid-setup): refuse deterministically.
                self.shared.refused.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            let Some((slot, gen)) = self.books.table.register() else {
                self.shared.refused.fetch_add(1, Ordering::Relaxed);
                continue;
            };
            let mut reg = Registration::new(stream.as_raw_fd(), conn_token(slot, gen));
            if stream.set_nonblocking(true).is_err() || !reg.sync(&self.poller, true, false) {
                self.books.table.close(slot, gen);
                self.shared.refused.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            let _ = stream.set_nodelay(true);
            self.conns.insert(
                slot,
                Conn {
                    stream,
                    gen,
                    rbuf: RecvBuf::new(),
                    reg,
                    read_eof: false,
                },
            );
            self.me().conns.fetch_add(1, Ordering::Relaxed);
            self.shared.accepted.fetch_add(1, Ordering::Relaxed);
            self.shared.active_conns.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn handle_conn_event(&mut self, slot: u16, gen: u8, readable: bool, hangup: bool) {
        let Some(conn) = self.conns.get_mut(&slot) else {
            return;
        };
        if conn.gen != gen {
            return;
        }
        // A hard hangup (both directions dead) can deliver nothing more;
        // a malformed frame leaves the stream unsynchronized beyond it.
        if hangup || (readable && !conn.read_eof && conn.read(slot, &mut self.books, &self.shared))
        {
            self.teardown(slot, true);
        } else {
            self.books.touch(slot);
        }
    }

    /// One answer from this shard's dispatcher, for one of its
    /// connections.
    fn send(&mut self, resp: Response) {
        let conns = &mut self.conns;
        self.books.answer(&self.shared, &resp, |slot, out| {
            if let Some(conn) = conns.get_mut(&slot) {
                // A failed write leaves the outbox full; the service
                // that follows meets the same error and aborts.
                let _ = flush(&mut conn.stream, out);
            }
        });
    }

    /// Services every touched connection once they are due (`force`:
    /// now), and publishes what observers read.
    fn flush_touched(&mut self, force: bool) {
        if self.books.due(force) {
            let mut touched = std::mem::take(&mut self.books.touched);
            for slot in touched.drain(..) {
                self.service(slot);
            }
            self.books.touched = touched;
        }
        let me = &self.shared.shards[self.books.shard];
        me.in_flight
            .store(self.books.table.in_flight(), Ordering::Relaxed);
        me.live.store(self.books.table.live(), Ordering::Relaxed);
        me.depth.store(self.books.gate.len(), Ordering::Relaxed);
    }

    /// Stops accepting and reading. Every connection is treated as
    /// half-closed and retires once its books settle and its outbox
    /// flushes.
    fn stop_reading(&mut self) {
        if self.stopping {
            return;
        }
        self.stopping = true;
        self.listener.close(&self.poller);
        let slots: Vec<u16> = self.conns.keys().copied().collect();
        for slot in slots {
            if let Some(conn) = self.conns.get_mut(&slot) {
                conn.reader_done(&self.shared);
            }
            self.service(slot);
        }
        self.me().stopped.store(true, Ordering::Release);
    }

    /// The final flush, once the dispatcher has drained and so answered
    /// or dropped everything it took in: writes out what the connections
    /// hold until every connection has retired, or the grace period
    /// force-closes the stragglers.
    fn finish(&mut self, events: &mut Events) {
        self.stop_reading();
        let deadline = Instant::now() + DRAIN_GRACE;
        self.flush_touched(true);
        while !self.conns.is_empty() && Instant::now() < deadline {
            if self.poller.wait(events, 1).unwrap_or(0) > 0 {
                self.handle(events);
            }
            self.flush_touched(true);
        }
        let slots: Vec<u16> = self.conns.keys().copied().collect();
        for slot in slots {
            self.teardown(slot, true);
        }
        self.flush_touched(true);
    }

    /// Flush, retire if the client is done and nothing is owed, and
    /// reconcile epoll interest.
    fn service(&mut self, slot: u16) {
        let Some(conn) = self.conns.get_mut(&slot) else {
            return;
        };
        let owed = self.books.table.owed(slot);
        let out = self
            .books
            .table
            .outbox(slot, conn.gen)
            .expect("a live connection has an outbox");
        // Reads stop at half-close (and at stop, which half-closes every
        // connection); `EPOLLOUT` is armed while the socket holds bytes back.
        let verdict = if flush(&mut conn.stream, out) == Flush::Failed {
            Verdict::Abort
        } else if conn.read_eof && owed == 0 && out.is_empty() {
            Verdict::Retire
        } else if conn.reg.sync(&self.poller, !conn.read_eof, !out.is_empty()) {
            Verdict::Keep
        } else {
            Verdict::Abort
        };
        match verdict {
            Verdict::Keep => {}
            Verdict::Retire => self.teardown(slot, false),
            Verdict::Abort => self.teardown(slot, true),
        }
    }

    /// Removes the connection. A clean retirement (`abort == false`) has
    /// nothing queued and nothing owed. An abort — protocol error, write
    /// failure, hard hangup, drain deadline — discards queued frames.
    /// Either way the slot stays held until every answer still owed on
    /// it has arrived, and those answers orphan.
    fn teardown(&mut self, slot: u16, abort: bool) {
        let Some(mut conn) = self.conns.remove(&slot) else {
            return;
        };
        conn.reg.sync(&self.poller, false, false);
        if abort {
            if !conn.read_eof {
                self.shared.active_conns.fetch_sub(1, Ordering::Relaxed);
            }
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        }
        self.me().conns.fetch_sub(1, Ordering::Relaxed);
        self.books.table.close(slot, conn.gen);
    }
}

/// One shard's transport, which that shard's dispatcher owns.
pub(crate) struct ShardSockets {
    events: Events,
    net: Net,
}

impl ShardSockets {
    /// Shard `shard`'s transport over the shared `listener`, feeding
    /// `gate`.
    pub(crate) fn new(
        shard: usize,
        gate: AdmissionQueue,
        listener: &Arc<TcpListener>,
        shared: &Arc<FrontShared>,
    ) -> std::io::Result<ShardSockets> {
        let poller = Poller::new()?;
        let listener = Listener::register(listener.clone(), &poller, TOKEN_LISTENER)?;
        let books = Books::new(shard, shared.shards.len(), gate, shared.outbox_cap);
        Ok(ShardSockets {
            events: Events::with_capacity(256),
            net: Net {
                shared: shared.clone(),
                poller,
                listener,
                conns: HashMap::new(),
                books,
                stopping: false,
            },
        })
    }
}

impl Transport for ShardSockets {
    fn poll_batch(&mut self, out: &mut Vec<Request>, room: usize) {
        self.net.pump(&mut self.events);
        self.net.books.gate.pop_batch(out, room);
    }

    fn drain_admission(&mut self, out: &mut Vec<AdmissionEvent>) {
        self.net.books.gate.drain_events(out);
    }

    fn admission_counters(&self) -> Option<Arc<AdmissionCounters>> {
        Some(self.net.books.gate.counters())
    }

    fn attach_slo(&mut self, slo: Arc<SloState>) {
        self.net.books.gate.attach_slo(slo);
    }

    fn send(&mut self, resp: Response) -> Result<(), Response> {
        self.net.send(resp);
        Ok(())
    }

    fn on_drop(&mut self, resp: &Response) {
        self.net.books.settle(resp.id);
    }

    fn flush(&mut self) {
        self.net.flush_touched(false);
    }

    fn finish(&mut self) {
        self.net.finish(&mut self.events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use concord_core::admission::{AdmissionConfig, AdmissionPolicy};
    use concord_core::Clock;

    /// A front end no dispatcher runs: every shard's books are driven by
    /// hand on this thread, one real call at a time, and read back
    /// exactly. The rig accepts no socket, so an outbox empties only
    /// when the test says so.
    struct Rig {
        shared: Arc<FrontShared>,
        /// Indexed by shard.
        nets: Vec<Net>,
    }

    impl Rig {
        /// One shard per entry of `gates`, each gate admitting that many
        /// requests, every outbox bounded at `outbox_cap` frames.
        fn new(gates: &[usize], outbox_cap: usize) -> Rig {
            let gates: Vec<AdmissionQueue> = gates
                .iter()
                .map(|&capacity| {
                    let cfg = AdmissionConfig {
                        capacity,
                        policy: AdmissionPolicy::RejectNewest,
                    };
                    AdmissionQueue::new(cfg, Clock::monotonic())
                })
                .collect();
            let counters = gates.iter().map(AdmissionQueue::counters).collect();
            let shared = Arc::new(FrontShared::for_test(counters, outbox_cap));
            let socket = Arc::new(TcpListener::bind("127.0.0.1:0").expect("bind"));
            let nets = gates
                .into_iter()
                .enumerate()
                .map(|(shard, gate)| {
                    ShardSockets::new(shard, gate, &socket, &shared)
                        .expect("poller")
                        .net
                })
                .collect();
            Rig { shared, nets }
        }

        /// The shard whose table holds `slot`.
        fn owner(&self, slot: u16) -> usize {
            usize::from(slot) % self.nets.len()
        }

        /// What `accept_burst` does to the books of `shard`.
        fn connect(&mut self, shard: usize) -> (u16, u8) {
            self.nets[shard].books.table.register().expect("slot")
        }

        /// What `Conn::read` does with one decoded request.
        fn request(&mut self, (slot, gen): (u16, u8), cid: u64) {
            let req = Request {
                id: route_id(slot, gen, cid),
                class: 0,
                service_ns: 1_000,
                sent_at: Instant::now(),
            };
            let shard = self.owner(slot);
            self.nets[shard].books.admit(&self.shared, req);
        }

        /// The dispatcher of `shard` takes one admitted request.
        fn ingest(&mut self, shard: usize) -> Request {
            self.nets[shard].books.gate.pop().expect("admitted")
        }

        /// The dispatcher of the shard that ingested `req` answers it
        /// and ends its pass.
        fn answer(&mut self, req: &Request) {
            let shard = self.owner(split_route_id(req.id).0);
            self.nets[shard].send(Response::completed(req));
            self.nets[shard].flush_touched(true);
        }

        /// Writes `(slot, gen)`'s outbox out whole; the client ids and
        /// statuses of the frames it held.
        fn flush(&mut self, (slot, gen): (u16, u8)) -> Vec<(u64, Status)> {
            let shard = self.owner(slot);
            let out = self.nets[shard]
                .books
                .table
                .outbox(slot, gen)
                .expect("live");
            let (mut frames, mut at) = (Vec::new(), 0);
            while let Ok(Some((Frame::Response(rf), used))) = wire::decode(&out.unsent()[at..]) {
                frames.push((rf.id, rf.status));
                at += used;
            }
            assert_eq!(at, out.unsent().len(), "whole frames only");
            out.advance(at);
            frames
        }

        /// Shard `s`'s `(in_flight, Σ owed)` over live and torn-down
        /// connections alike.
        fn ledger(&self, s: usize) -> (u64, u64) {
            let t = &self.nets[s].books.table;
            (t.in_flight(), t.owed_total())
        }

        /// `(retries_dropped, tx_dropped on shard 0, orphaned)`.
        fn counters(&self) -> (u64, u64, u64) {
            let s = &self.shared;
            (
                s.retries_dropped.load(Ordering::Relaxed),
                s.stats()[0].tx_dropped.load(Ordering::Relaxed),
                s.orphaned.load(Ordering::Relaxed),
            )
        }
    }

    /// Every way a request can leave shard 0's books, one step at a
    /// time, with `in_flight == Σ owed` and the drop counters checked
    /// after each.
    #[test]
    fn the_ledger_balances_after_every_step() {
        // Shard 0's gate rejects past two; every outbox holds one frame.
        let mut rig = Rig::new(&[2, 2], 1);
        let a = rig.connect(0);

        // Admit, then answer.
        rig.request(a, 0);
        assert_eq!(rig.ledger(0), (1, 1));
        let req = rig.ingest(0);
        rig.answer(&req);
        assert_eq!(rig.ledger(0), (0, 0));
        assert_eq!(rig.flush(a), [(0, Status::Ok)]);

        // A RETRY into a full outbox: two admitted, the third shed and
        // answered RETRY (filling the outbox), the fourth's RETRY has
        // nowhere to go and is counted.
        for cid in 1..=4 {
            rig.request(a, cid);
        }
        assert_eq!(rig.ledger(0), (2, 2));
        assert_eq!(rig.counters(), (1, 0, 0));

        // An answer into a full outbox: dropped, counted in the shard's
        // `tx_dropped`, and settled all the same.
        let first = rig.ingest(0);
        rig.answer(&first);
        assert_eq!(rig.ledger(0), (1, 1));
        assert_eq!(rig.counters(), (1, 1, 0));
        assert_eq!(rig.flush(a), [(3, Status::Retry)]);
        let second = rig.ingest(0);
        rig.answer(&second);
        assert_eq!(rig.ledger(0), (0, 0));
        assert_eq!(rig.flush(a), [(2, Status::Ok)]);

        // The dispatcher gives up on an answer: the drop settles it.
        rig.request(a, 5);
        let lost = rig.ingest(0);
        rig.nets[0].books.settle(lost.id);
        assert_eq!(rig.ledger(0), (0, 0));
        assert!(rig.flush(a).is_empty());

        // An abort with answers still outstanding: they stay in flight
        // until they arrive, then orphan.
        rig.request(a, 8);
        rig.request(a, 9);
        rig.nets[0].books.table.close(a.0, a.1);
        assert_eq!(rig.ledger(0), (2, 2));
        rig.nets[0].flush_touched(true);
        assert_eq!(rig.shared.io_stats().in_flight, 2, "published each pass");
        assert_eq!(rig.shared.shards[0].depth(), 2, "both wait in the gate");
        assert_eq!(rig.nets[0].books.table.live(), 1, "the slot is still held");
        for _ in 0..2 {
            let late = rig.ingest(0);
            rig.answer(&late);
        }
        assert_eq!(rig.ledger(0), (0, 0));
        assert_eq!(rig.counters(), (1, 1, 2));
        assert_eq!(rig.nets[0].books.table.live(), 0);
        assert_eq!(rig.shared.io_stats().in_flight, 0);
        assert_eq!(rig.shared.shards[0].depth(), 0);
    }

    /// Answers wait while every pass encodes another and fewer have come
    /// than were in flight behind them; a pass that encodes none, or
    /// enough answers, makes them due.
    #[test]
    fn answers_wait_only_while_more_are_coming() {
        let mut rig = Rig::new(&[16], 64);
        let a = rig.connect(0);
        for cid in 0..5 {
            rig.request(a, cid);
        }
        let reqs: Vec<Request> = (0..5).map(|_| rig.ingest(0)).collect();
        let net = &mut rig.nets[0];
        let mut pass = |answers: &[Request]| {
            for req in answers {
                net.send(Response::completed(req));
            }
            net.books.due(false)
        };
        assert!(!pass(&reqs[0..1]), "four behind the first answer");
        assert!(!pass(&reqs[1..2]), "two answers of four");
        assert!(pass(&[]), "a pass that encodes nothing");
        assert!(!pass(&reqs[2..3]), "two behind");
        assert!(pass(&reqs[3..4]), "two answers of two");
        assert!(pass(&reqs[4..5]), "nothing else in flight");
    }

    /// A RETRY does not wait for company: it goes out at the end of the
    /// pass that shed its request.
    #[test]
    fn a_retry_is_written_in_the_pass_that_shed_its_request() {
        let mut rig = Rig::new(&[2], 64);
        let a = rig.connect(0);
        for cid in 0..2 {
            rig.request(a, cid);
        }
        let reqs: Vec<Request> = (0..2).map(|_| rig.ingest(0)).collect();
        for cid in 2..4 {
            rig.request(a, cid);
        }
        rig.nets[0].send(Response::completed(&reqs[0]));
        assert!(!rig.nets[0].books.due(false), "one answer, three behind");
        rig.nets[0].send(Response::completed(&reqs[1]));
        rig.request(a, 4);
        assert_eq!(rig.counters(), (0, 0, 0), "the RETRY is queued");
        assert!(rig.nets[0].books.due(false), "two answers and a RETRY");
    }

    /// Regression: an abort used to free the slot at once, so the next
    /// accept reissued it while answers for the old connection were
    /// still in the runtime.
    #[test]
    fn a_slot_is_not_reissued_while_answers_are_owed_on_it() {
        const K: u64 = 3;
        let mut rig = Rig::new(&[16], 8);
        let a = rig.connect(0);
        for cid in 0..K {
            rig.request(a, cid);
        }
        rig.nets[0].books.table.close(a.0, a.1);
        let b = rig.connect(0);
        assert_ne!(b.0, a.0, "the slot is held by what it is owed");
        for _ in 0..K {
            let late = rig.ingest(0);
            rig.answer(&late);
        }
        assert_eq!(rig.counters(), (0, 0, K), "the late answers orphan");
        assert!(rig.flush(b).is_empty(), "never cross-delivered");
        let c = rig.connect(0);
        assert_eq!(c, (a.0, a.1.wrapping_add(1)), "then the slot comes back");
    }
}
