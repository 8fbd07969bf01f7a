//! The ingress: a fixed pool of I/O threads multiplexing every
//! connection through epoll.
//!
//! Each loop owns a [`Poller`], the listener (registered in every loop;
//! the accept race is benign — losers see `WouldBlock`), an eventfd
//! [`Waker`], and the state machines of the connections it accepted:
//!
//! - **Reads** are level-triggered and batched: up to a few fills per
//!   readiness event into the connection's compacting [`RecvBuf`], with
//!   zero-copy frame decode straight out of the buffer; a fill that
//!   leaves room in the buffer has drained the socket and ends the
//!   batch. Each request is counted into the connection's owed book and
//!   the loop's in-flight count, *then* offered to its shard's admission
//!   gate: admitted, it stays counted until its response is settled;
//!   rejected, it is answered RETRY on the spot and taken back.
//! - **Writes** coalesce: the dispatcher's egress encodes each response
//!   straight into the connection's outbox — one byte buffer — and
//!   nudges the owning loop through [`ConnNotify`]; the loop swaps the
//!   buffer for the one it has finished writing and hands it to the
//!   socket in a single `write`, falling back to `EPOLLOUT` interest
//!   only when the socket fills.
//! - **Retirement** follows the shared books: a connection leaves when
//!   the client has half-closed, nothing is owed, and its outbox has
//!   flushed — then the slot recycles (generation bump). Protocol
//!   errors and write failures abort the connection immediately, and
//!   what it still owed is forfeited.
//!
//! A half-closed connection that still owes responses is *deregistered*
//! from epoll entirely (level-triggered `EPOLLRDHUP` would re-report the
//! half-close forever) and becomes purely notification-driven until its
//! books settle.
//!
//! # Two modes, one fact
//!
//! A loop is in one of two modes, and which one is a function of its
//! `in_flight` count alone — requests it has offered to a gate whose
//! response is not yet settled, i.e. the sum of its connections' owed
//! books. There is no spin budget, linger or poll interval to tune.
//!
//! - **`in_flight > 0`: poll.** Somebody is waiting on this loop and
//!   the answer is microseconds away, so it never blocks:
//!   `epoll_wait(0)`, service what is ready and what is dirty, and on an
//!   empty pass take the same `yield_now` step the dispatcher and the
//!   workers take. Notifiers find it running and pay no syscall.
//! - **`in_flight == 0`: sleep.** Nobody is waiting; the loop blocks in
//!   `epoll_wait` until a socket is ready or a notifier wakes it, and
//!   uses no CPU meanwhile.
//!
//! Who writes what: `in_flight` is incremented only by the loop itself
//! (so it can only leave zero on the loop's own thread — no wake-up is
//! ever needed for *that*) and decremented, through
//! [`ConnNotify::settled`], by whoever takes a unit out of an owed book:
//! the dispatcher's egress (response enqueued, or dropped under
//! backpressure), a loop shedding or evicting at the gate, the owning
//! loop's teardown (forfeit). `owed` follows the same events per
//! connection. `queued` (per connection: a notification is outstanding)
//! is set by notifiers and cleared by the loop before it services the
//! connection. `asleep` is set by the loop before it blocks and cleared
//! by the loop when it is back, or by the one notifier that claims the
//! wake-up.
//!
//! # The wake-up hand-shake
//!
//! A notifier pushes `(slot, gen)` onto the loop's dirty list, then
//! `swap`s `asleep` to `false` and writes the eventfd only if it was
//! `true`. The loop, before blocking, stores `asleep = true` and *then*
//! looks at the dirty list once more, blocking only if it is empty; when
//! it is back it stores `asleep = false` before it next drains the list.
//!
//! No notification is left behind a blocked loop. Both sides touch the
//! list under its mutex, so the notifier's push and the loop's second
//! look are ordered one way or the other. If the push comes first, the
//! look sees the entry and the loop does not block. If the look comes
//! first, then the loop's store of `true` (sequenced before its look)
//! happens-before the notifier's swap (sequenced after its push), so the
//! swap reads `true` — unless another notifier's swap got there first,
//! in which case *that* one writes the eventfd — and the loop's
//! `epoll_wait` returns. And because the swap leaves `false` behind, the
//! notifiers that follow write nothing: a sleeping loop is woken once, a
//! running loop never. (The only waste the protocol allows is a
//! notifier claiming an announcement the loop then takes back on its
//! second look: one eventfd write that ends no sleep.)
//!
//! Stop and drain are flags read once per pass, not dirty entries, so
//! `Server::shutdown` writes the eventfd unconditionally instead.

use crate::conn::{ConnNotify, ConnWriter, Queued};
use crate::server::{FrontShared, ShardRoute};
use concord_core::admission::AdmitOutcome;
use concord_net::poll::{Events, Interest, Poller, Waker};
use concord_net::Request;
use concord_wire::frame::{self as wire, Frame};
use concord_wire::route::{route_id, split_route_id};
use concord_wire::RecvBuf;
use std::collections::HashMap;
use std::io::{ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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
/// How long an accept failure (e.g. descriptor exhaustion) parks the
/// listener before retrying, instead of spinning on the error.
const ACCEPT_PARK: Duration = Duration::from_millis(20);
/// Grace period after shutdown's final drain begins; stragglers whose
/// clients won't drain their sockets are force-closed past it.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

fn conn_token(slot: u16, gen: u8) -> u64 {
    u64::from(slot) | (u64::from(gen) << 16)
}

/// Per-loop state reachable from other threads: the dirty-connection
/// list, the in-flight count that picks the loop's mode, and the
/// `asleep` flag and waker that pull it out of a blocking `epoll_wait`.
/// This is what a [`ConnWriter`] nudges when the dispatcher enqueues a
/// response. See the module docs for the protocol.
pub(crate) struct LoopShared {
    dirty: Mutex<Vec<(u16, u8)>>,
    waker: Waker,
    /// Requests this loop offered to an admission gate whose response is
    /// not yet settled: the sum of its connections' `owed` books.
    /// Incremented only by the loop itself (next to
    /// [`ConnWriter::note_owed`]); decremented through
    /// [`ConnNotify::settled`] by whoever settles or forfeits.
    in_flight: AtomicU64,
    /// `true` from the loop's announcement that it is about to block
    /// until it is back — or until a notifier claims the wake-up by
    /// swapping it to `false`, which is what makes the eventfd write
    /// happen once per sleep, not once per notification.
    asleep: AtomicBool,
    sleeps: AtomicU64,
    wakeups: AtomicU64,
}

impl LoopShared {
    pub(crate) fn new() -> std::io::Result<Arc<LoopShared>> {
        Ok(Arc::new(LoopShared {
            dirty: Mutex::new(Vec::new()),
            waker: Waker::new()?,
            in_flight: AtomicU64::new(0),
            asleep: AtomicBool::new(false),
            sleeps: AtomicU64::new(0),
            wakeups: AtomicU64::new(0),
        }))
    }

    /// Requests in flight through this loop right now.
    pub(crate) fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::Acquire)
    }

    /// Times the loop has blocked in `epoll_wait`.
    pub(crate) fn sleeps(&self) -> u64 {
        self.sleeps.load(Ordering::Relaxed)
    }

    /// Eventfd writes notifiers have paid to end one of those sleeps.
    pub(crate) fn wakeups(&self) -> u64 {
        self.wakeups.load(Ordering::Relaxed)
    }

    /// Loop side, with nothing in flight: announces the sleep, then
    /// looks at the dirty list once more (the order the module docs'
    /// safety argument rests on). `true` means nothing is pending and
    /// the caller may block; it must call [`LoopShared::awake`] when it
    /// is back, *before* it next drains the dirty list.
    fn may_sleep(&self) -> bool {
        self.asleep.store(true, Ordering::SeqCst);
        if self.dirty.lock().expect("dirty lock").is_empty() {
            self.sleeps.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            self.awake();
            false
        }
    }

    /// Loop side: back from (or not going to) sleep. Notifiers stop
    /// writing the eventfd from here on.
    fn awake(&self) {
        self.asleep.store(false, Ordering::SeqCst);
    }
}

impl ConnNotify for LoopShared {
    fn notify(&self, slot: u16, gen: u8) {
        self.dirty.lock().expect("dirty lock").push((slot, gen));
        // A running loop drains the list on its next pass and is never
        // written to; a sleeping one is woken by whoever gets here first.
        if self.asleep.swap(false, Ordering::SeqCst) {
            self.wakeups.fetch_add(1, Ordering::Relaxed);
            self.waker.wake();
        }
    }

    fn settled(&self, n: u64) {
        self.in_flight.fetch_sub(n, Ordering::AcqRel);
    }
}

/// The running event-loop pool.
pub(crate) struct LoopsFront {
    shared: Arc<FrontShared>,
    handles: Vec<JoinHandle<()>>,
}

impl LoopsFront {
    /// Starts one event loop per entry of `shared.loops`, each with the
    /// listener registered.
    pub(crate) fn start(
        listener: TcpListener,
        shared: Arc<FrontShared>,
    ) -> std::io::Result<LoopsFront> {
        let listener = Arc::new(listener);
        let mut handles = Vec::new();
        for (i, ls) in shared.loops.iter().enumerate() {
            let poller = Poller::new()?;
            poller.add(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
            poller.add(ls.waker.fd(), TOKEN_WAKER, Interest::READ)?;
            let lp = EventLoop {
                poller,
                listener: listener.clone(),
                shared: shared.clone(),
                loop_shared: ls.clone(),
                conns: HashMap::new(),
                dirty: Vec::new(),
                listener_registered: true,
                park_until: None,
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

    /// Stop and drain are flags the loops read once per pass, not dirty
    /// entries, so the `asleep` hand-shake does not cover them: write
    /// the eventfd unconditionally (it stays readable until drained).
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

    /// Joins the loops. Called after the drain flag is set and the
    /// connection table closed; loops exit once every connection has
    /// retired (or the drain grace period force-closes stragglers).
    pub(crate) fn finish(&mut self) {
        self.wake_all();
        for h in self.handles.drain(..) {
            h.join().expect("io loop");
        }
    }
}

/// One connection's event-loop state machine.
struct Conn {
    stream: TcpStream,
    gen: u8,
    route: ShardRoute,
    writer: Arc<ConnWriter>,
    rbuf: RecvBuf,
    /// Bytes swapped out of the outbox: `wbuf[woff..]` is still to be
    /// written. Handed back to the outbox, emptied, at the next swap.
    wbuf: Vec<u8>,
    woff: usize,
    /// The socket refused bytes; `EPOLLOUT` interest is armed.
    want_write: bool,
    /// Current epoll registration (`None` = deregistered; the
    /// connection is purely notification-driven).
    interest: Option<Interest>,
    /// The client half-closed (or the server stopped reading).
    read_eof: bool,
}

/// What servicing a connection decided about it.
enum Verdict {
    /// Still serving.
    Keep,
    /// Nothing more will ever be sent: retire and recycle the slot.
    Retire,
    /// Protocol error, write failure or lost registration: abort.
    Abort,
}

/// Offers one decoded request to its shard's admission gate and keeps
/// the books around the offer: the request is counted as owed (and in
/// flight) *before* the gate sees it, and taken back if the gate sheds
/// it. A shed-with-RETRY is answered on the spot; a RETRY that finds the
/// outbox full is counted so the rejection stays conserved.
fn admit(
    shared: &FrontShared,
    ls: &LoopShared,
    writer: &ConnWriter,
    route: ShardRoute,
    req: Request,
) {
    writer.note_owed();
    ls.in_flight.fetch_add(1, Ordering::AcqRel);
    let (id, class, service_ns) = (req.id, req.class, req.service_ns);
    let shard = route.pick(&shared.admissions);
    match shared.admissions[shard].offer(req) {
        AdmitOutcome::Admitted => {}
        AdmitOutcome::Rejected | AdmitOutcome::SloShed => {
            let (_, _, cid) = split_route_id(id);
            match writer.respond(|out| wire::encode_retry(out, cid, class, service_ns)) {
                Queued::Yes => {}
                Queued::Closed => {
                    shared.retries_dropped.fetch_add(1, Ordering::Relaxed);
                }
                Queued::Full => {
                    shared.retries_dropped.fetch_add(1, Ordering::Relaxed);
                    writer.settle_owed();
                }
            }
        }
        AdmitOutcome::DroppedNewest => writer.settle_owed(),
        AdmitOutcome::DroppedOldest(old) => {
            // Admitted by evicting an older queued request: settle the
            // evicted connection's books (it may live on another loop,
            // whose in-flight count its writer's binding relieves).
            let (vslot, vgen, _) = split_route_id(old.id);
            if let Some(victim) = shared.conns.lookup(vslot, vgen) {
                victim.settle_owed();
            }
        }
    }
}

impl Conn {
    /// Reads and decodes as much as fairness allows, offering each
    /// request to its gate. Returns `true` on a protocol error (caller
    /// aborts the connection).
    fn read(&mut self, slot: u16, shared: &FrontShared, ls: &LoopShared) -> bool {
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
                                let req = rf.into_request(id, arrived);
                                admit(shared, ls, &self.writer, self.route, req);
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
            self.writer.reader_done();
            shared.active_conns.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Whether everything swapped out of the outbox is on the wire.
    fn flushed(&self) -> bool {
        self.woff == self.wbuf.len()
    }

    /// Writes the outbox to the socket: whatever the egress has encoded
    /// since the last swap goes out in one `write`. `false` on a write
    /// error (the connection is dead).
    fn flush(&mut self) -> bool {
        loop {
            if self.flushed() {
                self.wbuf.clear();
                self.woff = 0;
                self.writer.take_outbox(&mut self.wbuf);
                if self.wbuf.is_empty() {
                    self.want_write = false;
                    return true;
                }
            }
            match self.stream.write(&self.wbuf[self.woff..]) {
                Ok(0) => return false,
                Ok(n) => self.woff += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    // The socket is full; `sync_interest` arms `EPOLLOUT`.
                    self.want_write = true;
                    return true;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
    }

    /// Flush, retire if the books allow (see [`ConnWriter::retired`]),
    /// and reconcile epoll interest.
    fn service(&mut self, slot: u16, poller: &Poller, stopping: bool) -> Verdict {
        if !self.flush() {
            Verdict::Abort
        } else if self.flushed() && self.writer.retired() {
            Verdict::Retire
        } else if self.sync_interest(slot, poller, stopping) {
            Verdict::Keep
        } else {
            Verdict::Abort
        }
    }

    /// Reconciles the epoll registration with what the connection
    /// actually waits on. A half-closed connection with nothing queued
    /// deregisters entirely and is revived by dirty notifications.
    /// `false` when the registration could not be changed.
    fn sync_interest(&mut self, slot: u16, poller: &Poller, stopping: bool) -> bool {
        let want_read = !self.read_eof && !stopping;
        let want = match (want_read, self.want_write) {
            (true, true) => Some(Interest::READ_WRITE),
            (true, false) => Some(Interest::READ),
            (false, true) => Some(Interest::WRITE),
            (false, false) => None,
        };
        if want == self.interest {
            return true;
        }
        let fd = self.stream.as_raw_fd();
        let token = conn_token(slot, self.gen);
        let ok = match (self.interest, want) {
            (None, Some(i)) => poller.add(fd, token, i).is_ok(),
            (Some(_), Some(i)) => poller.modify(fd, token, i).is_ok(),
            (Some(_), None) => {
                let _ = poller.delete(fd);
                true
            }
            (None, None) => true,
        };
        if ok {
            self.interest = want;
        }
        ok
    }
}

struct EventLoop {
    poller: Poller,
    listener: Arc<TcpListener>,
    shared: Arc<FrontShared>,
    loop_shared: Arc<LoopShared>,
    conns: HashMap<u16, Conn>,
    /// Scratch the shared dirty list is swapped into, one lock per pass.
    dirty: Vec<(u16, u8)>,
    listener_registered: bool,
    park_until: Option<Instant>,
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
            let nudged = self.service_dirty();
            self.check_park();
            self.check_drain();
            if self.stopping && self.conns.is_empty() {
                return;
            }
            if ready == 0 && !nudged {
                // An empty pass: the same step the dispatcher and the
                // workers take when they find nothing to do.
                std::thread::yield_now();
            }
        }
    }

    /// One `epoll_wait`, in the mode the in-flight count picks. With
    /// requests in flight it is a poll: their responses are at most a
    /// few microseconds away, and a blocked loop would cost the
    /// dispatcher an eventfd write per batch and this thread a sleep
    /// and a wake-up. With none in flight nobody is waiting on this
    /// loop, so it blocks — until a socket is ready, a notifier claims
    /// the wake-up, or a stop/park tick is due. Returns the number of
    /// events delivered.
    fn wait(&self, events: &mut Events) -> usize {
        let ls = &self.loop_shared;
        if ls.in_flight() > 0 || !ls.may_sleep() {
            return self.poller.wait(events, 0).unwrap_or(0);
        }
        let timeout_ms = if self.stopping {
            10
        } else if self.park_until.is_some() {
            5
        } else {
            -1
        };
        let ready = self.poller.wait(events, timeout_ms).unwrap_or(0);
        ls.awake();
        ready
    }

    /// First observation of the stop flag: stop accepting, stop
    /// reading. Every connection is treated as half-closed and retires
    /// once its books settle and its outbox flushes.
    fn check_stop(&mut self) {
        if self.stopping || !self.shared.stop.load(Ordering::Acquire) {
            return;
        }
        self.stopping = true;
        if self.listener_registered {
            let _ = self.poller.delete(self.listener.as_raw_fd());
            self.listener_registered = false;
        }
        self.park_until = None;
        let slots: Vec<u16> = self.conns.keys().copied().collect();
        for slot in slots {
            if let Some(conn) = self.conns.get_mut(&slot) {
                conn.reader_done(&self.shared);
            }
            self.service_books(slot);
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

    fn check_park(&mut self) {
        if let Some(t) = self.park_until {
            if Instant::now() >= t {
                self.park_until = None;
                if !self.stopping && !self.listener_registered {
                    self.listener_registered = self
                        .poller
                        .add(self.listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)
                        .is_ok();
                    if self.listener_registered {
                        // Connections may have queued while parked.
                        self.accept_burst();
                    } else {
                        self.park_until = Some(Instant::now() + ACCEPT_PARK);
                    }
                }
            }
        }
    }

    /// Deregisters the listener for a beat instead of spinning on a
    /// failing `accept` (descriptor exhaustion reports per-attempt).
    fn park_listener(&mut self) {
        if self.listener_registered {
            let _ = self.poller.delete(self.listener.as_raw_fd());
            self.listener_registered = false;
        }
        self.park_until = Some(Instant::now() + ACCEPT_PARK);
    }

    fn accept_burst(&mut self) {
        if self.stopping || !self.listener_registered {
            return;
        }
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if self.shared.take_setup_fault() {
                        // Injected setup failure (modeling descriptor
                        // exhaustion mid-setup): refuse deterministically.
                        self.shared.refused.fetch_add(1, Ordering::Relaxed);
                        drop(stream);
                        continue;
                    }
                    let writer = ConnWriter::new(self.shared.outbox_cap);
                    let Some((slot, gen)) = self.shared.conns.register(writer.clone()) else {
                        self.shared.refused.fetch_add(1, Ordering::Relaxed);
                        drop(stream);
                        continue;
                    };
                    if stream.set_nonblocking(true).is_err() {
                        self.shared.conns.release(slot, gen);
                        self.shared.refused.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    if self
                        .poller
                        .add(stream.as_raw_fd(), conn_token(slot, gen), Interest::READ)
                        .is_err()
                    {
                        self.shared.conns.release(slot, gen);
                        self.shared.refused.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    writer.bind_notifier(self.loop_shared.clone(), slot, gen);
                    let route = ShardRoute::new(
                        slot,
                        gen,
                        self.shared.admissions.len(),
                        self.shared.router,
                    );
                    self.conns.insert(
                        slot,
                        Conn {
                            stream,
                            gen,
                            route,
                            writer,
                            rbuf: RecvBuf::new(),
                            wbuf: Vec::new(),
                            woff: 0,
                            want_write: false,
                            interest: Some(Interest::READ),
                            read_eof: false,
                        },
                    );
                    self.shared.accepted.fetch_add(1, Ordering::Relaxed);
                    self.shared.active_conns.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    // EMFILE/ENFILE or similar: the connection stays in
                    // the backlog (deferred, not refused); park so the
                    // loop doesn't busy-spin on the failing accept.
                    self.park_listener();
                    return;
                }
            }
        }
    }

    fn handle_conn_event(&mut self, slot: u16, gen: u8, readable: bool, hangup: bool) {
        let Some(conn) = self.conns.get_mut(&slot) else {
            return;
        };
        if conn.gen != gen {
            return;
        }
        let verdict = if hangup {
            // Hard hangup (both directions dead): nothing more can be
            // delivered; a flush would only fail.
            Verdict::Abort
        } else if readable && !conn.read_eof && conn.read(slot, &self.shared, &self.loop_shared) {
            // Malformed frame: the stream is unsynchronized beyond it.
            Verdict::Abort
        } else {
            conn.service(slot, &self.poller, self.stopping)
        };
        self.apply(slot, verdict);
    }

    /// Services every connection nudged since the last pass: each entry
    /// is one coalesced notification from an enqueue/settle/close on
    /// that connection. Returns whether there was any.
    fn service_dirty(&mut self) -> bool {
        let mut dirty = std::mem::take(&mut self.dirty);
        std::mem::swap(
            &mut *self.loop_shared.dirty.lock().expect("dirty lock"),
            &mut dirty,
        );
        let nudged = !dirty.is_empty();
        for (slot, gen) in dirty.drain(..) {
            let Some(conn) = self.conns.get_mut(&slot) else {
                continue;
            };
            if conn.gen != gen {
                continue;
            }
            // Re-arm the coalescing flag *before* servicing: an enqueue
            // racing the flush below re-queues the connection.
            conn.writer.clear_queued();
            let verdict = conn.service(slot, &self.poller, self.stopping);
            self.apply(slot, verdict);
        }
        self.dirty = dirty;
        nudged
    }

    /// Flush, retire if the books allow, and reconcile epoll interest.
    fn service_books(&mut self, slot: u16) {
        if let Some(conn) = self.conns.get_mut(&slot) {
            let verdict = conn.service(slot, &self.poller, self.stopping);
            self.apply(slot, verdict);
        }
    }

    fn apply(&mut self, slot: u16, verdict: Verdict) {
        match verdict {
            Verdict::Keep => {}
            Verdict::Retire => self.teardown(slot, false),
            Verdict::Abort => self.teardown(slot, true),
        }
    }

    /// Removes the connection and recycles its slot. A clean retirement
    /// (`abort == false`) has nothing queued and nothing owed unless the
    /// server is shutting down. An abort — protocol error, write
    /// failure, hard hangup, drain deadline — discards queued frames.
    /// Either way responses still in flight orphan at the egress, and
    /// [`ConnTable::release`](crate::conn::ConnTable::release) closes
    /// the writer and forfeits what it still owes: left in the loop's
    /// in-flight count it would keep the loop polling for responses
    /// that will never be written.
    fn teardown(&mut self, slot: u16, abort: bool) {
        let Some(conn) = self.conns.remove(&slot) else {
            return;
        };
        if conn.interest.is_some() {
            let _ = self.poller.delete(conn.stream.as_raw_fd());
        }
        if abort {
            if !conn.read_eof {
                self.shared.active_conns.fetch_sub(1, Ordering::Relaxed);
            }
            conn.writer.clear_outbox();
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        }
        self.shared.conns.release(slot, conn.gen);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{RouterPolicy, ServerEgress};
    use concord_core::admission::{AdmissionConfig, AdmissionPolicy};
    use concord_core::transport::Egress;
    use concord_net::Response;

    /// A front end nobody runs: the books are driven by hand, one real
    /// call at a time, and read back exactly.
    struct Rig {
        shared: FrontShared,
        /// `(loop, writer)` of every connection made, live or not.
        conns: Vec<(usize, Arc<ConnWriter>)>,
    }

    struct TestConn {
        on_loop: usize,
        slot: u16,
        gen: u8,
        writer: Arc<ConnWriter>,
    }

    impl Rig {
        fn new(loops: usize, capacity: usize, policy: AdmissionPolicy) -> Rig {
            Rig {
                shared: FrontShared::for_test(loops, AdmissionConfig { capacity, policy }),
                conns: Vec::new(),
            }
        }

        /// What `accept_burst` does to the books: register, bind.
        fn connect(&mut self, on_loop: usize, outbox_cap: usize) -> TestConn {
            let writer = ConnWriter::new(outbox_cap);
            let (slot, gen) = self.shared.conns.register(writer.clone()).expect("slot");
            writer.bind_notifier(self.shared.loops[on_loop].clone(), slot, gen);
            self.conns.push((on_loop, writer.clone()));
            TestConn {
                on_loop,
                slot,
                gen,
                writer,
            }
        }

        /// What `Conn::read` does with one decoded request.
        fn request(&self, c: &TestConn, cid: u64) {
            let req = Request {
                id: route_id(c.slot, c.gen, cid),
                class: 0,
                service_ns: 1_000,
                sent_at: Instant::now(),
            };
            let route = ShardRoute::new(c.slot, c.gen, 1, RouterPolicy::HashP2c);
            admit(
                &self.shared,
                &self.shared.loops[c.on_loop],
                &c.writer,
                route,
                req,
            );
        }

        /// What `EventLoop::teardown` does to the books.
        fn teardown(&self, c: &TestConn) {
            self.shared.conns.release(c.slot, c.gen);
        }

        fn egress(&self) -> ServerEgress {
            ServerEgress::new(self.shared.conns.clone(), Arc::new(AtomicU64::new(0)))
        }

        /// The dispatcher and the runtime in one line: everything the
        /// gate admitted is answered.
        fn serve_all(&self, egress: &mut ServerEgress) -> u64 {
            let mut served = 0;
            while let Some(req) = self.shared.admissions[0].pop() {
                egress.send(Response::completed(&req)).expect("room");
                served += 1;
            }
            served
        }

        /// Per loop, `(in_flight, Σ owed over its connections)`.
        fn ledger(&self) -> Vec<(u64, u64)> {
            (0..self.shared.loops.len())
                .map(|l| {
                    let owed = self.conns.iter().filter(|(on, _)| *on == l);
                    (
                        self.shared.loops[l].in_flight(),
                        owed.map(|(_, w)| w.owed()).sum(),
                    )
                })
                .collect()
        }
    }

    #[test]
    fn ledger_balances_through_completion_retry_and_backpressure() {
        // A 2-deep reject gate in front of a 1-frame outbox.
        let mut rig = Rig::new(1, 2, AdmissionPolicy::RejectNewest);
        let mut egress = rig.egress();
        let c = rig.connect(0, 1);

        // Two admitted, in flight; the third is shed, and its RETRY is
        // its answer: counted before the offer, taken back after it.
        for cid in 0..3 {
            rig.request(&c, cid);
        }
        assert_eq!(rig.ledger(), [(2, 2)]);
        assert_eq!(rig.shared.retries_dropped.load(Ordering::Relaxed), 0);
        // The RETRY fills the outbox; the next shed's RETRY has nowhere
        // to go, is counted, and is taken back all the same.
        rig.request(&c, 3);
        assert_eq!(rig.ledger(), [(2, 2)]);
        assert_eq!(rig.shared.retries_dropped.load(Ordering::Relaxed), 1);

        // Backpressure: the first response is refused while the RETRY
        // sits in the outbox; the dispatcher drops it (`tx_dropped`).
        let first = rig.shared.admissions[0].pop().expect("admitted");
        let refused = egress
            .send(Response::completed(&first))
            .expect_err("one-frame outbox");
        assert_eq!(rig.ledger(), [(2, 2)], "refused is still owed");
        egress.on_drop(&refused);
        assert_eq!(rig.ledger(), [(1, 1)]);

        // Normal completion, once the loop has flushed.
        c.writer.take_outbox(&mut Vec::new());
        assert_eq!(rig.serve_all(&mut egress), 1);
        assert_eq!(rig.ledger(), [(0, 0)]);
        assert!(!c.writer.retired(), "the client may send more");
        c.writer.take_outbox(&mut Vec::new());
        c.writer.reader_done();
        assert!(c.writer.retired(), "half-closed, settled, flushed");
    }

    #[test]
    fn eviction_relieves_the_loop_the_victim_lives_on() {
        let mut rig = Rig::new(2, 2, AdmissionPolicy::DropOldest);
        let mut egress = rig.egress();
        let a = rig.connect(0, 8);
        let b = rig.connect(1, 8);
        rig.request(&a, 0);
        rig.request(&a, 1);
        assert_eq!(rig.ledger(), [(2, 2), (0, 0)]);
        // Loop 1 admits by evicting loop 0's oldest: loop 1's count
        // rises, loop 0's falls, and loop 0 is told (it has a book to
        // re-read, possibly a connection to retire).
        rig.request(&b, 0);
        assert_eq!(rig.ledger(), [(1, 1), (1, 1)]);
        assert_eq!(
            *rig.shared.loops[0].dirty.lock().unwrap(),
            [(a.slot, a.gen)]
        );
        // A victim whose connection is already gone has been forfeited.
        rig.teardown(&a);
        assert_eq!(rig.ledger(), [(0, 0), (1, 1)]);
        rig.request(&b, 1);
        rig.request(&b, 2);
        assert_eq!(rig.ledger(), [(0, 0), (2, 2)], "evicted b's own oldest");
        assert_eq!(rig.serve_all(&mut egress), 2);
        assert_eq!(rig.ledger(), [(0, 0), (0, 0)]);
    }

    #[test]
    fn teardown_forfeits_what_is_in_flight_and_late_answers_orphan() {
        let mut rig = Rig::new(1, 16, AdmissionPolicy::RejectNewest);
        let orphaned = Arc::new(AtomicU64::new(0));
        let mut egress = ServerEgress::new(rig.shared.conns.clone(), orphaned.clone());
        let c = rig.connect(0, 8);
        for cid in 0..5 {
            rig.request(&c, cid);
        }
        let early = rig.shared.admissions[0].pop().expect("admitted");
        egress.send(Response::completed(&early)).expect("queued");
        assert_eq!(rig.ledger(), [(4, 4)]);
        // Abort with four requests inside the runtime: the loop must
        // not go on polling for answers it could never write.
        rig.teardown(&c);
        assert_eq!(rig.ledger(), [(0, 0)]);
        assert_eq!(rig.serve_all(&mut egress), 4);
        assert_eq!(orphaned.load(Ordering::Relaxed), 4);
        assert_eq!(rig.ledger(), [(0, 0)], "late answers settle nothing twice");
        // The slot's next occupant starts from clean books.
        let next = rig.connect(0, 8);
        assert_eq!((next.slot, next.gen), (c.slot, c.gen.wrapping_add(1)));
        rig.request(&next, 0);
        assert_eq!(rig.ledger(), [(1, 1)]);
        assert_eq!(rig.serve_all(&mut egress), 1);
        assert_eq!(rig.ledger(), [(0, 0)]);
    }

    /// Regression (owed before offered): `note_owed` used to run after
    /// `offer` returned, so a dispatcher that answered first settled
    /// against an empty book (saturating at 0) and the late `note_owed`
    /// left the connection owing one response for ever — its slot
    /// pinned until shutdown, and now its loop polling for ever too.
    #[test]
    fn a_dispatcher_that_answers_first_cannot_unbalance_the_books() {
        const REQUESTS: u64 = 1_000_000;
        let mut rig = Rig::new(1, 64, AdmissionPolicy::RejectNewest);
        let c = rig.connect(0, usize::MAX);
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut egress = rig.egress();
                let mut flushed = Vec::new();
                while !done.load(Ordering::Acquire) || !rig.shared.admissions[0].is_empty() {
                    rig.serve_all(&mut egress);
                    flushed.clear();
                    c.writer.take_outbox(&mut flushed);
                }
            });
            for cid in 0..REQUESTS {
                rig.request(&c, cid);
            }
            done.store(true, Ordering::Release);
        });
        assert_eq!(rig.shared.admissions[0].counters().offered(), REQUESTS);
        assert_eq!(rig.ledger(), [(0, 0)]);
    }

    /// An epoll instance watching the loop's eventfd, to see whether a
    /// wake-up is pending without consuming it.
    fn eventfd_watch(ls: &LoopShared) -> (Poller, Events) {
        let poller = Poller::new().expect("epoll");
        poller
            .add(ls.waker.fd(), TOKEN_WAKER, Interest::READ)
            .expect("add");
        (poller, Events::with_capacity(4))
    }

    #[test]
    fn a_running_loop_is_never_written_to_and_a_sleeping_one_once() {
        let ls = LoopShared::new().expect("eventfd");
        let (poller, mut events) = eventfd_watch(&ls);
        for slot in 0..100 {
            ls.notify(slot, 0);
        }
        assert_eq!(ls.wakeups(), 0);
        assert_eq!(poller.wait(&mut events, 0).expect("poll"), 0);
        assert!(!ls.may_sleep(), "a pending entry keeps the loop up");
        assert_eq!(ls.dirty.lock().unwrap().len(), 100);
        ls.dirty.lock().unwrap().clear();

        assert!(ls.may_sleep());
        for slot in 0..100 {
            ls.notify(slot, 0);
        }
        assert_eq!(ls.wakeups(), 1, "the first notifier claims the wake-up");
        assert_eq!(poller.wait(&mut events, 0).expect("poll"), 1);
        ls.waker.drain();
        ls.awake();
        assert_eq!(poller.wait(&mut events, 0).expect("poll"), 0);
        assert_eq!((ls.sleeps(), ls.dirty.lock().unwrap().len()), (1, 100));
    }

    /// The lost wake-up, hunted: a notifier and a loop that tries to
    /// sleep after every entry it consumes, in lock step so that each of
    /// a million notifications lands somewhere around one announcement —
    /// before it, between it and the second look, or into the blocked
    /// `epoll_wait`. Whenever the loop does block, a wake-up must be
    /// pending or on its way: a timeout with an entry on the list is the
    /// bug.
    #[test]
    fn no_notification_is_left_behind_a_blocked_loop() {
        const ROUNDS: u64 = 1_000_000;
        let ls = LoopShared::new().expect("eventfd");
        let consumed = AtomicU64::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                for round in 0..ROUNDS {
                    ls.notify(0, 0);
                    while consumed.load(Ordering::Acquire) <= round {
                        std::hint::spin_loop();
                    }
                }
            });
            let (poller, mut events) = eventfd_watch(&ls);
            let mut blocked = 0u64;
            while consumed.load(Ordering::Relaxed) < ROUNDS {
                if ls.may_sleep() {
                    let woken = poller.wait(&mut events, 10_000).expect("wait");
                    ls.awake();
                    assert_eq!(woken, 1, "entry left behind a blocked loop");
                    ls.waker.drain();
                    blocked += 1;
                }
                let n = std::mem::take(&mut *ls.dirty.lock().unwrap()).len();
                consumed.fetch_add(n as u64, Ordering::Release);
            }
            // Every block was ended by an eventfd write, and no
            // notification wrote more than once. (Writes can outnumber
            // blocks: a notifier may claim an announcement the loop
            // then takes back on its second look. The eventfd is then
            // readable for nothing, which costs the next sleep one
            // early return and loses nothing.)
            assert!(blocked > 0, "the loop never got to sleep");
            assert_eq!(ls.sleeps(), blocked);
            assert!((blocked..=ROUNDS).contains(&ls.wakeups()));
        });
    }
}
