//! The ingress: a fixed pool of I/O threads multiplexing every
//! connection through epoll.
//!
//! Each loop owns a [`Poller`], a [`Listener`] over the shared socket
//! (registered in every loop; the accept race is benign — losers see
//! `WouldBlock` — and parked out of the poller for a beat when `accept`
//! fails, e.g. on descriptor exhaustion), an eventfd
//! [`Waker`] that only stop and drain write, and — the one-owner rule —
//! everything about the connections it accepted: their sockets, their
//! slots in its own [`ConnTable`] (loop `i` of `n` hands out the slots
//! `s % n == i`), every connection's owed count and outbox, and its
//! `in_flight` count, all plain fields no other thread touches.
//!
//! - **Reads** are level-triggered and batched: up to a few fills per
//!   readiness event into the connection's compacting [`RecvBuf`], with
//!   zero-copy frame decode straight out of the buffer; a fill that
//!   leaves room in the buffer has drained the socket and ends the
//!   batch. Each request is offered to its shard's admission gate and
//!   the outcome booked on the spot: admitted, it is owed an answer and
//!   counted in flight; rejected, it is answered RETRY into the outbox.
//! - **Answers** come back on one SPSC ring of responses per shard
//!   dispatcher, the same mechanism as the in-process TX ring. The loop
//!   pops them, encodes each straight into its connection's outbox,
//!   settles the books, and writes every outbox it touched in the same
//!   pass: one `write` per connection, `EPOLLOUT` interest only when the
//!   socket fills. The outbox, the write loop and the interest reconcile
//!   are [`concord_net::endpoint`]'s, shared with the rack proxy and the
//!   admin listener.
//! - **Retirement**: a connection leaves when the client has
//!   half-closed, nothing is owed, and its outbox has flushed. Protocol
//!   errors and write failures abort it at once; either way its slot
//!   stays held until every answer still owed on it has arrived (and
//!   orphaned), so a route id never outlives its slot's generation.
//!
//! A half-closed connection that still owes responses is *deregistered*
//! from epoll entirely (level-triggered `EPOLLRDHUP` would re-report the
//! half-close forever) and is serviced when an answer or settle for it
//! arrives.
//!
//! # Three one-way channels
//!
//! Everything that happens to a loop's requests on another thread
//! reaches it through one of three channels, each with one writer side
//! and the loop as its only reader:
//!
//! - the admission gate it feeds (requests out);
//! - one response ring per (shard dispatcher, loop) pair (answers in):
//!   [`ServerEgress::send`](crate::server::ServerEgress) pushes onto the
//!   ring of the loop that owns the answer's slot;
//! - the loop's settle inbox (request ids in), for the two rare settles
//!   that happen elsewhere: a response the dispatcher gave up on
//!   (`Egress::on_drop`), and a `DropOldest` eviction by whichever loop's
//!   arrival pushed the request out of the gate. It is a mutex-guarded
//!   `Vec` behind an atomic flag, so a pass with nothing in it takes no
//!   lock.
//!
//! # Two modes, one fact
//!
//! A loop is in one of two modes, and which one is a function of its
//! `in_flight` count alone — requests it admitted that are not yet
//! settled, i.e. the sum of its slots' owed counts. There is no spin
//! budget, linger or poll interval to tune.
//!
//! - **`in_flight > 0`: poll.** Somebody is waiting on this loop and the
//!   answer is microseconds away, so it never blocks: `epoll_wait(0)`,
//!   pop the rings and the inbox, service what is ready, and on an empty
//!   pass take the same `yield_now` step the dispatcher and the workers
//!   take.
//! - **`in_flight == 0`: sleep.** Nobody is waiting; the loop blocks in
//!   `epoll_wait` until a socket is ready, and uses no CPU meanwhile.
//!
//! No wake-up is ever needed for an answer. Every ring item and inbox
//! entry settles a request the loop still counts in `in_flight`, which
//! only the loop itself moves, so nothing can arrive for a loop that is
//! asleep. Stop and drain are flags read once per pass, and
//! `Server::shutdown` writes the eventfd for them.

use crate::conn::{owner, ConnTable};
use crate::server::{FrontShared, ShardRoute};
use concord_core::admission::AdmitOutcome;
use concord_net::endpoint::{flush, Flush, Listener, Outbox, Registration};
use concord_net::poll::{Events, Interest, Poller, Waker};
use concord_net::ring::Consumer;
use concord_net::{Request, Response};
use concord_wire::frame::{self as wire, Frame, Status};
use concord_wire::route::{route_id, split_route_id};
use concord_wire::RecvBuf;
use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Token of the shared listener in every loop's poller.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Token of the loop's waker eventfd.
const TOKEN_WAKER: u64 = u64::MAX - 1;
/// Socket fills per readiness event before yielding to other
/// connections (level-triggering re-reports leftover data).
const FILLS_PER_EVENT: usize = 4;
/// Grace period after shutdown's final drain begins; stragglers whose
/// clients won't drain their sockets are force-closed past it.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

fn conn_token(slot: u16, gen: u8) -> u64 {
    u64::from(slot) | (u64::from(gen) << 16)
}

/// Per-loop state other threads can reach: the settle inbox, the
/// eventfd stop and drain write, and what the loop publishes for
/// observers once per pass.
pub(crate) struct LoopShared {
    waker: Waker,
    /// Ids of this loop's requests settled on another thread.
    inbox: Mutex<Vec<u64>>,
    /// `inbox` is non-empty. Set and cleared under its lock, read by the
    /// loop every pass without it: a stale `false` only puts the take
    /// off to a later pass, and the loop keeps polling until then,
    /// because the settled request is still counted in flight.
    inbox_pending: AtomicBool,
    in_flight: AtomicU64,
    live: AtomicUsize,
    sleeps: AtomicU64,
}

impl LoopShared {
    pub(crate) fn new() -> std::io::Result<Arc<LoopShared>> {
        Ok(Arc::new(LoopShared {
            waker: Waker::new()?,
            inbox: Mutex::new(Vec::new()),
            inbox_pending: AtomicBool::new(false),
            in_flight: AtomicU64::new(0),
            live: AtomicUsize::new(0),
            sleeps: AtomicU64::new(0),
        }))
    }

    /// Another thread settles request `id`, which this loop admitted:
    /// no answer will come for it. The loop still counts it in flight,
    /// so it is polling and needs no wake-up.
    pub(crate) fn settle(&self, id: u64) {
        let mut ids = self.inbox.lock().expect("inbox lock");
        ids.push(id);
        self.inbox_pending.store(true, Ordering::Release);
    }

    /// Loop side: swaps the inbox into `into` (which is empty), taking
    /// the lock only when something is there.
    fn take_settled(&self, into: &mut Vec<u64>) {
        if !self.inbox_pending.load(Ordering::Acquire) {
            return;
        }
        let mut ids = self.inbox.lock().expect("inbox lock");
        std::mem::swap(&mut *ids, into);
        self.inbox_pending.store(false, Ordering::Relaxed);
    }

    /// Requests in flight through this loop as of its last pass.
    pub(crate) fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::Relaxed)
    }

    /// Slots the loop held as of its last pass.
    pub(crate) fn live(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// Times the loop has blocked in `epoll_wait`.
    pub(crate) fn sleeps(&self) -> u64 {
        self.sleeps.load(Ordering::Relaxed)
    }
}

/// The running event-loop pool.
pub(crate) struct LoopsFront {
    shared: Arc<FrontShared>,
    handles: Vec<JoinHandle<()>>,
}

impl LoopsFront {
    /// Starts one event loop per entry of `shared.loops`, each with the
    /// listener registered and `rings[i]` — its response ring from each
    /// shard — to drain.
    pub(crate) fn start(
        listener: TcpListener,
        shared: Arc<FrontShared>,
        rings: Vec<Vec<Consumer<Response>>>,
    ) -> std::io::Result<LoopsFront> {
        let listener = Arc::new(listener);
        let mut handles = Vec::new();
        for ((i, ls), rings) in shared.loops.iter().enumerate().zip(rings) {
            let poller = Poller::new()?;
            let listener = Listener::register(listener.clone(), &poller, TOKEN_LISTENER)?;
            poller.add(ls.waker.fd(), TOKEN_WAKER, Interest::READ)?;
            let table = ConnTable::new(i, shared.loops.len(), shared.outbox_cap);
            let lp = EventLoop {
                poller,
                listener,
                shared: shared.clone(),
                loop_shared: ls.clone(),
                conns: HashMap::new(),
                books: Books::new(table, rings),
                stopping: false,
                drain_deadline: None,
            };
            handles.push(
                std::thread::Builder::new()
                    .name(format!("concord-io{i}"))
                    .spawn(move || lp.run())?,
            );
        }
        Ok(LoopsFront { shared, handles })
    }

    /// Stop and drain are flags the loops read once per pass: write the
    /// eventfd so a sleeping loop gets to read them (it stays readable
    /// until drained).
    fn wake_all(&self) {
        for ls in &self.shared.loops {
            ls.waker.wake();
        }
    }

    /// Kicks every loop so it observes the stop flag: the listener is
    /// deregistered and reads cease, but the loops stay alive to flush
    /// outboxes through the runtime drain.
    pub(crate) fn stop_ingest(&mut self) {
        self.wake_all();
    }

    /// Joins the loops. Called after the drain flag is set; loops exit
    /// once every connection has retired and every answer has arrived
    /// (or the drain grace period force-closes stragglers).
    pub(crate) fn finish(&mut self) {
        self.wake_all();
        for h in self.handles.drain(..) {
            h.join().expect("io loop");
        }
    }
}

/// One loop's books, kept on its own thread: the slot table (every owed
/// count, every outbox, `in_flight`) and the receiving ends of the
/// channels that settle its requests. No sockets: the unit tests drive
/// it by hand.
struct Books {
    table: ConnTable,
    /// One response ring per shard, indexed by shard.
    rings: Vec<Consumer<Response>>,
    /// Scratch the settle inbox is swapped into.
    settled: Vec<u64>,
    /// Connections an answer or settle reached since they were last
    /// serviced: the loop flushes them, and retires the finished ones,
    /// before the pass ends.
    touched: Vec<u16>,
}

impl Books {
    fn new(table: ConnTable, rings: Vec<Consumer<Response>>) -> Self {
        Self {
            table,
            rings,
            settled: Vec::new(),
            touched: Vec::new(),
        }
    }

    /// Offers one decoded request from a live connection to its shard's
    /// gate and books the outcome: admitted, the request is owed an
    /// answer; shed with RETRY, it is answered on the spot, and a RETRY
    /// that finds the outbox full is counted so the rejection stays
    /// conserved; evicting an older request, that one is settled by the
    /// loop that admitted it.
    fn admit(&mut self, shared: &FrontShared, route: ShardRoute, req: Request) {
        let (slot, gen, cid) = split_route_id(req.id);
        let (class, service_ns) = (req.class, req.service_ns);
        match shared.admissions[route.pick(&shared.admissions)].offer(req) {
            AdmitOutcome::Admitted => self.table.owe(slot),
            AdmitOutcome::DroppedOldest(old) => {
                self.table.owe(slot);
                let (victim, _, _) = split_route_id(old.id);
                shared.loops[owner(victim, shared.loops.len())].settle(old.id);
            }
            AdmitOutcome::Rejected | AdmitOutcome::SloShed => {
                let queued = self
                    .table
                    .outbox(slot, gen)
                    .is_some_and(|out| out.push(|b| wire::encode_retry(b, cid, class, service_ns)));
                if !queued {
                    shared.retries_dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
            AdmitOutcome::DroppedNewest => {}
        }
    }

    /// Takes in what the other threads settled since the last pass:
    /// every shard's answers, then the settle inbox. An answer is
    /// encoded into its connection's outbox — after `flush` has given a
    /// full one's socket the chance to take what waits — or dropped
    /// into its shard's `tx_dropped` if the outbox stays full, or
    /// counted orphaned if the connection is gone; each settles its
    /// request. Returns whether anything arrived.
    fn drain(
        &mut self,
        shared: &FrontShared,
        ls: &LoopShared,
        mut flush: impl FnMut(u16, &mut Outbox),
    ) -> bool {
        let mut arrived = false;
        for (shard, ring) in self.rings.iter_mut().enumerate() {
            while let Some(resp) = ring.pop() {
                arrived = true;
                let (slot, gen, cid) = split_route_id(resp.id);
                match self.table.outbox(slot, gen) {
                    Some(out) => {
                        if out.is_full() {
                            flush(slot, out);
                        }
                        if !out.push(|b| wire::encode_response(b, cid, &resp, Status::Ok)) {
                            shared.stats[shard]
                                .tx_dropped
                                .fetch_add(1, Ordering::Relaxed);
                        } else if out.frames() == 1 {
                            self.touched.push(slot);
                        }
                    }
                    // The connection is gone: counted, never delivered.
                    None => {
                        shared.orphaned.fetch_add(1, Ordering::Relaxed);
                    }
                }
                self.table.settle(slot, gen);
            }
        }
        ls.take_settled(&mut self.settled);
        for id in self.settled.drain(..) {
            arrived = true;
            let (slot, gen, _) = split_route_id(id);
            self.table.settle(slot, gen);
            self.touched.push(slot);
        }
        arrived
    }
}

/// One connection's socket-side state machine. Its books live in the
/// loop's [`ConnTable`] under its slot.
struct Conn {
    stream: TcpStream,
    gen: u8,
    route: ShardRoute,
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
    /// request to its gate. Returns `true` on a protocol error (caller
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
                                books.admit(shared, self.route, rf.into_request(id, arrived));
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

struct EventLoop {
    poller: Poller,
    listener: Listener,
    shared: Arc<FrontShared>,
    loop_shared: Arc<LoopShared>,
    conns: HashMap<u16, Conn>,
    books: Books,
    stopping: bool,
    drain_deadline: Option<Instant>,
}

impl EventLoop {
    fn run(mut self) {
        let mut events = Events::with_capacity(256);
        loop {
            let ready = self.wait(&mut events);
            self.check_stop();
            for ev in events.iter() {
                match ev.token {
                    TOKEN_LISTENER => self.accept_burst(),
                    TOKEN_WAKER => self.loop_shared.waker.drain(),
                    token => {
                        let slot = (token & 0xFFFF) as u16;
                        let gen = ((token >> 16) & 0xFF) as u8;
                        self.handle_conn_event(slot, gen, ev.readable, ev.hangup);
                    }
                }
            }
            let arrived = self.take_answers();
            if self.listener.check_park(&self.poller) {
                // Connections may have queued while parked.
                self.accept_burst();
            }
            self.check_drain();
            self.publish();
            let drained = self.books.table.in_flight() == 0
                || self.drain_deadline.is_some_and(|d| Instant::now() >= d);
            if self.stopping && self.conns.is_empty() && drained {
                return;
            }
            if ready == 0 && !arrived {
                // An empty pass: the same step the dispatcher and the
                // workers take when they find nothing to do.
                std::thread::yield_now();
            }
        }
    }

    /// One `epoll_wait`, in the mode the in-flight count picks. With
    /// requests in flight it is a poll: their answers are at most a few
    /// microseconds away, on rings only a running loop reads. With none
    /// in flight nobody is waiting on this loop, so it blocks — until a
    /// socket is ready, or the stop tick or the listener's park is due.
    /// Returns the number of events delivered.
    fn wait(&self, events: &mut Events) -> usize {
        if self.books.table.in_flight() > 0 {
            return self.poller.wait(events, 0).unwrap_or(0);
        }
        let timeout_ms = if self.stopping {
            10
        } else {
            self.listener.timeout_ms(-1)
        };
        self.loop_shared.sleeps.fetch_add(1, Ordering::Relaxed);
        self.poller.wait(events, timeout_ms).unwrap_or(0)
    }

    /// Takes in the pass's answers and settles, then services every
    /// connection they reached: flushed in the same pass, retired if
    /// done. Returns whether anything arrived.
    fn take_answers(&mut self) -> bool {
        let conns = &mut self.conns;
        let arrived = self
            .books
            .drain(&self.shared, &self.loop_shared, |slot, out| {
                if let Some(conn) = conns.get_mut(&slot) {
                    // A failed write leaves the outbox full; the service
                    // below meets the same error and aborts.
                    let _ = flush(&mut conn.stream, out);
                }
            });
        let mut touched = std::mem::take(&mut self.books.touched);
        for slot in touched.drain(..) {
            self.service(slot);
        }
        self.books.touched = touched;
        arrived
    }

    /// Publishes what observers read: `Server::io_stats`, `live_slots`
    /// and the admin plane. Plain stores to lines only this loop writes.
    fn publish(&self) {
        let ls = &self.loop_shared;
        ls.in_flight
            .store(self.books.table.in_flight(), Ordering::Relaxed);
        ls.live.store(self.books.table.live(), Ordering::Relaxed);
    }

    /// First observation of the stop flag: stop accepting, stop
    /// reading. Every connection is treated as half-closed and retires
    /// once its books settle and its outbox flushes.
    fn check_stop(&mut self) {
        if self.stopping || !self.shared.stop.load(Ordering::Acquire) {
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
    }

    /// Once the final drain begins, give stragglers a grace period to
    /// flush, then force-close them so shutdown cannot hang on a client
    /// that stopped reading.
    fn check_drain(&mut self) {
        if !self.stopping || !self.shared.drain.load(Ordering::Acquire) {
            return;
        }
        match self.drain_deadline {
            None => self.drain_deadline = Some(Instant::now() + DRAIN_GRACE),
            Some(d) if Instant::now() >= d => {
                let slots: Vec<u16> = self.conns.keys().copied().collect();
                for slot in slots {
                    self.teardown(slot, true);
                }
            }
            Some(_) => {}
        }
    }

    /// Takes every connection waiting in the backlog. A connection
    /// whose setup fails is refused; an `accept` failure parks the
    /// listener and leaves the rest in the backlog.
    fn accept_burst(&mut self) {
        while let Some(stream) = self.listener.accept(&self.poller) {
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
            let route =
                ShardRoute::new(slot, gen, self.shared.admissions.len(), self.shared.router);
            self.conns.insert(
                slot,
                Conn {
                    stream,
                    gen,
                    route,
                    rbuf: RecvBuf::new(),
                    reg,
                    read_eof: false,
                },
            );
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
            self.service(slot);
        }
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
        self.books.table.close(slot, conn.gen);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{response_rings, RouterPolicy, ServerEgress};
    use concord_core::admission::{AdmissionConfig, AdmissionPolicy};
    use concord_core::transport::Egress;

    /// A front end nobody runs, with its dispatchers' egress: every
    /// loop's books are driven by hand on this thread, one real call at
    /// a time, and read back exactly. Nothing is ever written to a
    /// socket, so an outbox empties only when the test says so.
    struct Rig {
        shared: FrontShared,
        /// Indexed by shard.
        egress: Vec<ServerEgress>,
        /// Indexed by loop.
        books: Vec<Books>,
    }

    fn gate(capacity: usize, policy: AdmissionPolicy) -> AdmissionConfig {
        AdmissionConfig { capacity, policy }
    }

    impl Rig {
        /// `loops` loops in front of one gate per entry of `gates`,
        /// every outbox bounded at `outbox_cap` frames.
        fn new(loops: usize, gates: &[AdmissionConfig], outbox_cap: usize) -> Rig {
            let shared = FrontShared::for_test(loops, gates);
            let (egress, rings) = response_rings(gates.len(), &shared.loops);
            let books = rings
                .into_iter()
                .enumerate()
                .map(|(i, r)| Books::new(ConnTable::new(i, loops, outbox_cap), r))
                .collect();
            Rig {
                shared,
                egress,
                books,
            }
        }

        /// What `accept_burst` does to the books.
        fn connect(&mut self, on_loop: usize) -> (u16, u8) {
            self.books[on_loop].table.register().expect("slot")
        }

        /// What `Conn::read` does with one decoded request, sent to the
        /// gate of `shard`.
        fn request(&mut self, (slot, gen): (u16, u8), shard: usize, cid: u64) {
            let req = Request {
                id: route_id(slot, gen, cid),
                class: 0,
                service_ns: 1_000,
                sent_at: Instant::now(),
            };
            let route = ShardRoute::new(slot, gen, 1, RouterPolicy::Pin(shard));
            let on_loop = owner(slot, self.books.len());
            self.books[on_loop].admit(&self.shared, route, req);
        }

        /// The dispatcher of `shard` answers everything its gate
        /// admitted.
        fn serve(&mut self, shard: usize) -> u64 {
            let mut served = 0;
            while let Some(req) = self.shared.admissions[shard].pop() {
                self.egress[shard]
                    .send(Response::completed(&req))
                    .expect("ring room");
                served += 1;
            }
            served
        }

        /// One pass of loop `l` taking in what was settled elsewhere.
        fn drain(&mut self, l: usize) {
            let books = &mut self.books[l];
            books.drain(&self.shared, &self.shared.loops[l], |_, _| {});
            books.touched.clear();
        }

        /// Writes `(slot, gen)`'s outbox out whole; the client ids and
        /// statuses of the frames it held.
        fn flush(&mut self, (slot, gen): (u16, u8)) -> Vec<(u64, Status)> {
            let l = owner(slot, self.books.len());
            let out = self.books[l].table.outbox(slot, gen).expect("live");
            let (mut frames, mut at) = (Vec::new(), 0);
            while let Ok(Some((Frame::Response(rf), used))) = wire::decode(&out.unsent()[at..]) {
                frames.push((rf.id, rf.status));
                at += used;
            }
            assert_eq!(at, out.unsent().len(), "whole frames only");
            out.advance(at);
            frames
        }

        /// Loop `l`'s `(in_flight, Σ owed)` over live and torn-down
        /// connections alike.
        fn ledger(&self, l: usize) -> (u64, u64) {
            let t = &self.books[l].table;
            (t.in_flight(), t.owed_total())
        }

        /// `(retries_dropped, tx_dropped on shard 0, orphaned)`.
        fn counters(&self) -> (u64, u64, u64) {
            let s = &self.shared;
            (
                s.retries_dropped.load(Ordering::Relaxed),
                s.stats[0].tx_dropped.load(Ordering::Relaxed),
                s.orphaned.load(Ordering::Relaxed),
            )
        }
    }

    /// Every way a request can leave loop 0's books, one step at a time,
    /// with `in_flight == Σ owed` and the drop counters checked after
    /// each.
    #[test]
    fn the_ledger_balances_after_every_step() {
        // Gate 0 rejects past two, gate 1 evicts its oldest past one;
        // every outbox holds one frame.
        let gates = [
            gate(2, AdmissionPolicy::RejectNewest),
            gate(1, AdmissionPolicy::DropOldest),
        ];
        let mut rig = Rig::new(2, &gates, 1);
        let a = rig.connect(0);

        // Admit, then answer.
        rig.request(a, 0, 0);
        assert_eq!(rig.ledger(0), (1, 1));
        assert_eq!(rig.serve(0), 1);
        assert_eq!(rig.ledger(0), (1, 1), "on the ring, not yet taken in");
        rig.drain(0);
        assert_eq!(rig.ledger(0), (0, 0));
        assert_eq!(rig.flush(a), [(0, Status::Ok)]);

        // A RETRY into a full outbox: two admitted, the third shed and
        // answered RETRY (filling the outbox), the fourth's RETRY has
        // nowhere to go and is counted.
        for cid in 1..=4 {
            rig.request(a, 0, cid);
        }
        assert_eq!(rig.ledger(0), (2, 2));
        assert_eq!(rig.counters(), (1, 0, 0));

        // An answer into a full outbox: dropped, counted in the shard's
        // `tx_dropped`, and settled all the same.
        let first = rig.shared.admissions[0].pop().expect("admitted");
        rig.egress[0]
            .send(Response::completed(&first))
            .expect("ring room");
        rig.drain(0);
        assert_eq!(rig.ledger(0), (1, 1));
        assert_eq!(rig.counters(), (1, 1, 0));
        assert_eq!(rig.flush(a), [(3, Status::Retry)]);
        assert_eq!(rig.serve(0), 1);
        rig.drain(0);
        assert_eq!(rig.ledger(0), (0, 0));
        assert_eq!(rig.flush(a), [(2, Status::Ok)]);

        // An injected TX drop: the dispatcher gives up on the answer and
        // the inbox settles it.
        rig.request(a, 0, 5);
        let lost = rig.shared.admissions[0].pop().expect("admitted");
        rig.egress[0].on_drop(&Response::completed(&lost));
        assert_eq!(rig.ledger(0), (1, 1), "in the inbox, not yet taken in");
        rig.drain(0);
        assert_eq!(rig.ledger(0), (0, 0));
        assert!(rig.flush(a).is_empty());

        // A `DropOldest` eviction by another loop: loop 1's arrival
        // pushes loop 0's request out of gate 1, and loop 0's inbox
        // settles it.
        rig.request(a, 1, 6);
        let b = rig.connect(1);
        rig.request(b, 1, 0);
        assert_eq!((rig.ledger(0), rig.ledger(1)), ((1, 1), (1, 1)));
        rig.drain(0);
        assert_eq!((rig.ledger(0), rig.ledger(1)), ((0, 0), (1, 1)));
        assert_eq!(rig.serve(1), 1);
        rig.drain(1);
        assert_eq!(rig.ledger(1), (0, 0));
        assert_eq!(rig.flush(b), [(0, Status::Ok)]);

        // An abort with answers still outstanding: they stay in flight
        // until they arrive, then orphan.
        rig.request(a, 0, 7);
        rig.request(a, 0, 8);
        rig.books[0].table.close(a.0, a.1);
        assert_eq!(rig.ledger(0), (2, 2));
        assert_eq!(rig.books[0].table.live(), 1, "the slot is still held");
        assert_eq!(rig.serve(0), 2);
        rig.drain(0);
        assert_eq!(rig.ledger(0), (0, 0));
        assert_eq!(rig.counters(), (1, 1, 2));
        assert_eq!(rig.books[0].table.live(), 0);
    }

    /// Regression: an abort used to free the slot at once, so the next
    /// accept reissued it while answers for the old connection were
    /// still in the runtime.
    #[test]
    fn a_slot_is_not_reissued_while_answers_are_owed_on_it() {
        const K: u64 = 3;
        let mut rig = Rig::new(1, &[gate(16, AdmissionPolicy::RejectNewest)], 8);
        let a = rig.connect(0);
        for cid in 0..K {
            rig.request(a, 0, cid);
        }
        rig.books[0].table.close(a.0, a.1);
        let b = rig.connect(0);
        assert_ne!(b.0, a.0, "the slot is held by what it is owed");
        assert_eq!(rig.serve(0), K);
        rig.drain(0);
        assert_eq!(rig.counters(), (0, 0, K), "the late answers orphan");
        assert!(rig.flush(b).is_empty(), "never cross-delivered");
        let c = rig.connect(0);
        assert_eq!(c, (a.0, a.1.wrapping_add(1)), "then the slot comes back");
    }
}
