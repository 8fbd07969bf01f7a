//! The ingress: a fixed pool of I/O threads multiplexing every
//! connection through epoll.
//!
//! Each loop owns a [`Poller`], the listener (registered in every loop;
//! the accept race is benign — losers see `WouldBlock`), an eventfd
//! [`Waker`], and the state machines of the connections it accepted:
//!
//! - **Reads** are level-triggered and batched: up to a few fills per
//!   readiness event into the connection's compacting [`RecvBuf`], with
//!   zero-copy frame decode straight out of the buffer. Each request
//!   is offered to its shard's admission gate: admitted, it enters the
//!   connection's owed book; rejected, it is answered RETRY on the spot.
//! - **Writes** coalesce: the dispatcher's egress enqueues encoded
//!   frames into the connection's outbox and nudges the owning loop
//!   through [`ConnNotify`]; the loop drains the outbox in batches
//!   through a single vectored `writev` per syscall, falling back to
//!   `EPOLLOUT` interest only when the socket fills.
//! - **Retirement** follows the shared books: a connection leaves when
//!   the client has half-closed, nothing is owed, and its outbox has
//!   flushed — then the slot recycles (generation bump). Protocol
//!   errors and write failures abort the connection immediately.
//!
//! A half-closed connection that still owes responses is *deregistered*
//! from epoll entirely (level-triggered `EPOLLRDHUP` would re-report the
//! half-close forever) and becomes purely notification-driven until its
//! books settle.

use crate::conn::{ConnNotify, ConnWriter};
use crate::server::{FrontShared, ShardRoute};
use concord_core::admission::AdmitOutcome;
use concord_net::poll::{write_vectored, Events, Interest, Poller, Waker};
use concord_wire::frame::{self as wire, Frame};
use concord_wire::route::{route_id, split_route_id};
use concord_wire::RecvBuf;
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, IoSlice};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Token of the shared listener in every loop's poller.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Token of the loop's waker eventfd.
const TOKEN_WAKER: u64 = u64::MAX - 1;
/// Outbox frames pulled per flush batch (one `writev` flushes up to
/// this many frames in a single syscall).
const FLUSH_BATCH: usize = 64;
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
/// queue and the waker that pulls the loop out of `epoll_wait`. This is
/// what a [`ConnWriter`] nudges when the dispatcher enqueues a response.
pub(crate) struct LoopShared {
    dirty: Mutex<VecDeque<(u16, u8)>>,
    waker: Waker,
}

impl ConnNotify for LoopShared {
    fn notify(&self, slot: u16, gen: u8) {
        self.dirty
            .lock()
            .expect("dirty lock")
            .push_back((slot, gen));
        self.waker.wake();
    }
}

/// The running event-loop pool.
pub(crate) struct LoopsFront {
    shareds: Vec<Arc<LoopShared>>,
    handles: Vec<JoinHandle<()>>,
}

impl LoopsFront {
    /// Starts `nloops` event loops, each with the listener registered.
    pub(crate) fn start(
        listener: TcpListener,
        shared: Arc<FrontShared>,
        nloops: usize,
    ) -> std::io::Result<LoopsFront> {
        let listener = Arc::new(listener);
        let mut shareds = Vec::new();
        let mut handles = Vec::new();
        for i in 0..nloops.max(1) {
            let ls = Arc::new(LoopShared {
                dirty: Mutex::new(VecDeque::new()),
                waker: Waker::new()?,
            });
            let poller = Poller::new()?;
            poller.add(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
            poller.add(ls.waker.fd(), TOKEN_WAKER, Interest::READ)?;
            let lp = EventLoop {
                poller,
                listener: listener.clone(),
                shared: shared.clone(),
                loop_shared: ls.clone(),
                conns: HashMap::new(),
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
            shareds.push(ls);
        }
        Ok(LoopsFront { shareds, handles })
    }

    fn wake_all(&self) {
        for ls in &self.shareds {
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
    /// Frames pulled from the outbox, queued for `writev` (front frame
    /// may be partially written: `head_off` bytes already on the wire).
    wq: VecDeque<Vec<u8>>,
    head_off: usize,
    /// The socket refused bytes; `EPOLLOUT` interest is armed.
    want_write: bool,
    /// Current epoll registration (`None` = deregistered; the
    /// connection is purely notification-driven).
    interest: Option<Interest>,
    /// The client half-closed (or the server stopped reading).
    read_eof: bool,
}

enum FlushOutcome {
    /// Everything queued has been written.
    Idle,
    /// The socket is full; `EPOLLOUT` interest is armed.
    Blocked,
    /// Write error: the connection is dead.
    Dead,
}

struct EventLoop {
    poller: Poller,
    listener: Arc<TcpListener>,
    shared: Arc<FrontShared>,
    loop_shared: Arc<LoopShared>,
    conns: HashMap<u16, Conn>,
    listener_registered: bool,
    park_until: Option<Instant>,
    stopping: bool,
    drain_deadline: Option<Instant>,
}

impl EventLoop {
    fn run(mut self) {
        let mut events = Events::with_capacity(256);
        loop {
            let _ = self.poller.wait(&mut events, self.wait_timeout());
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
            self.service_dirty();
            self.check_park();
            self.check_drain();
            if self.stopping && self.conns.is_empty() {
                return;
            }
        }
    }

    fn wait_timeout(&self) -> i32 {
        if self.stopping {
            10
        } else if self.park_until.is_some() {
            5
        } else {
            // Wakers and readiness drive the loop; this is a safety tick.
            200
        }
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
                if !conn.read_eof {
                    conn.read_eof = true;
                    conn.writer.reader_done();
                    self.shared.active_conns.fetch_sub(1, Ordering::Relaxed);
                }
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
                    self.teardown_abort(slot);
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
                            wq: VecDeque::new(),
                            head_off: 0,
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
        let Some(conn) = self.conns.get(&slot) else {
            return;
        };
        if conn.gen != gen {
            return;
        }
        if hangup {
            // Hard hangup (both directions dead): nothing more can be
            // delivered; a flush would only fail.
            self.teardown_abort(slot);
            return;
        }
        if readable && !conn.read_eof && self.read_conn(slot) {
            // Malformed frame: the stream is unsynchronized beyond it.
            self.teardown_abort(slot);
            return;
        }
        self.service_books(slot);
    }

    /// Drains the dirty-connection queue: each entry is one coalesced
    /// nudge from an enqueue/settle/close on that connection.
    fn service_dirty(&mut self) {
        loop {
            let next = self
                .loop_shared
                .dirty
                .lock()
                .expect("dirty lock")
                .pop_front();
            let Some((slot, gen)) = next else { return };
            let Some(conn) = self.conns.get(&slot) else {
                continue;
            };
            if conn.gen != gen {
                continue;
            }
            // Re-arm the coalescing flag *before* servicing: an enqueue
            // racing the flush below re-queues the connection.
            conn.writer.clear_queued();
            self.service_books(slot);
        }
    }

    /// Reads and decodes as much as fairness allows. Returns `true` on a
    /// protocol error (caller aborts the connection).
    fn read_conn(&mut self, slot: u16) -> bool {
        let shared = self.shared.clone();
        let Some(conn) = self.conns.get_mut(&slot) else {
            return false;
        };
        let writer = conn.writer.clone();
        let gen = conn.gen;
        let route = conn.route;
        let mut fills = 0;
        while fills < FILLS_PER_EVENT && !conn.read_eof {
            match conn.rbuf.fill(&mut conn.stream) {
                Ok(0) => {
                    // Client half-closed: no more requests. The
                    // connection retires once its books settle.
                    conn.read_eof = true;
                    writer.reader_done();
                    shared.active_conns.fetch_sub(1, Ordering::Relaxed);
                }
                Ok(_) => {
                    fills += 1;
                    let mut at = 0;
                    let mut malformed = false;
                    loop {
                        match wire::decode(&conn.rbuf.data()[at..]) {
                            Ok(Some((Frame::Request(rf), consumed))) => {
                                let (cid, class, service_ns) = (rf.id, rf.class, rf.service_ns);
                                let req = rf.into_request(route_id(slot, gen, cid), Instant::now());
                                let shard = route.pick(&shared.admissions);
                                match shared.admissions[shard].offer(req) {
                                    AdmitOutcome::Admitted => writer.note_owed(),
                                    AdmitOutcome::Rejected | AdmitOutcome::SloShed => {
                                        // Early-reject: answer RETRY from
                                        // the gate. A full outbox means
                                        // even the RETRY has nowhere to
                                        // go — count it so the rejection
                                        // stays conserved.
                                        let mut out = Vec::with_capacity(wire::HEADER_LEN + 64);
                                        wire::encode_retry(&mut out, cid, class, service_ns);
                                        if !writer.enqueue(out) {
                                            shared.retries_dropped.fetch_add(1, Ordering::Relaxed);
                                        }
                                    }
                                    AdmitOutcome::DroppedNewest => {}
                                    AdmitOutcome::DroppedOldest(old) => {
                                        // Admitted by evicting an older
                                        // queued request: settle the
                                        // evicted connection's books.
                                        writer.note_owed();
                                        let (vslot, vgen, _) = split_route_id(old.id);
                                        if let Some(victim) = shared.conns.lookup(vslot, vgen) {
                                            victim.settle_owed();
                                        }
                                    }
                                }
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
                        conn.rbuf.consume(at);
                    }
                    if malformed {
                        shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                        return true;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Read error: no more requests, but the connection
                    // may still flush what it owes.
                    conn.read_eof = true;
                    writer.reader_done();
                    shared.active_conns.fetch_sub(1, Ordering::Relaxed);
                }
            }
        }
        false
    }

    /// Flush, retire if the books allow, and reconcile epoll interest.
    fn service_books(&mut self, slot: u16) {
        if !self.conns.contains_key(&slot) {
            return;
        }
        if let FlushOutcome::Dead = self.flush_conn(slot) {
            self.teardown_abort(slot);
            return;
        }
        if self.maybe_retire(slot) {
            return;
        }
        self.sync_interest(slot);
    }

    /// Drains the outbox to the socket through coalesced `writev`.
    fn flush_conn(&mut self, slot: u16) -> FlushOutcome {
        let Some(conn) = self.conns.get_mut(&slot) else {
            return FlushOutcome::Idle;
        };
        loop {
            if conn.wq.is_empty() {
                conn.writer.take_batch(&mut conn.wq, FLUSH_BATCH);
                if conn.wq.is_empty() {
                    conn.want_write = false;
                    return FlushOutcome::Idle;
                }
            }
            let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(conn.wq.len());
            for (i, frame) in conn.wq.iter().enumerate() {
                slices.push(IoSlice::new(if i == 0 {
                    &frame[conn.head_off..]
                } else {
                    &frame[..]
                }));
            }
            match write_vectored(conn.stream.as_raw_fd(), &slices) {
                Ok(mut n) => {
                    while n > 0 {
                        let first_rem = conn.wq[0].len() - conn.head_off;
                        if n >= first_rem {
                            n -= first_rem;
                            conn.wq.pop_front();
                            conn.head_off = 0;
                        } else {
                            conn.head_off += n;
                            n = 0;
                        }
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    conn.want_write = true;
                    return FlushOutcome::Blocked;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return FlushOutcome::Dead,
            }
        }
    }

    /// Retires the connection if nothing more will ever be sent on it
    /// (see [`ConnWriter::retired`]) and the write queue has flushed.
    fn maybe_retire(&mut self, slot: u16) -> bool {
        let Some(conn) = self.conns.get(&slot) else {
            return true;
        };
        if conn.wq.is_empty() && conn.writer.retired() {
            self.teardown_graceful(slot);
            return true;
        }
        false
    }

    /// Reconciles the epoll registration with what the connection
    /// actually waits on. A half-closed connection with nothing queued
    /// deregisters entirely and is revived by dirty notifications.
    fn sync_interest(&mut self, slot: u16) {
        let stopping = self.stopping;
        let Some(conn) = self.conns.get_mut(&slot) else {
            return;
        };
        let want_read = !conn.read_eof && !stopping;
        let want = match (want_read, conn.want_write) {
            (true, true) => Some(Interest::READ_WRITE),
            (true, false) => Some(Interest::READ),
            (false, true) => Some(Interest::WRITE),
            (false, false) => None,
        };
        if want == conn.interest {
            return;
        }
        let fd = conn.stream.as_raw_fd();
        let token = conn_token(slot, conn.gen);
        let ok = match (conn.interest, want) {
            (None, Some(i)) => self.poller.add(fd, token, i).is_ok(),
            (Some(_), Some(i)) => self.poller.modify(fd, token, i).is_ok(),
            (Some(_), None) => {
                let _ = self.poller.delete(fd);
                true
            }
            (None, None) => true,
        };
        if ok {
            conn.interest = want;
        } else {
            self.teardown_abort(slot);
        }
    }

    /// Clean retirement: the slot recycles; late responses for the old
    /// generation orphan at the egress.
    fn teardown_graceful(&mut self, slot: u16) {
        let Some(conn) = self.conns.remove(&slot) else {
            return;
        };
        if conn.interest.is_some() {
            let _ = self.poller.delete(conn.stream.as_raw_fd());
        }
        conn.writer.close();
        self.shared.conns.release(slot, conn.gen);
    }

    /// Abort: protocol error, write failure, or hard hangup. Queued
    /// frames are discarded; in-flight responses orphan at the egress.
    fn teardown_abort(&mut self, slot: u16) {
        let Some(conn) = self.conns.remove(&slot) else {
            return;
        };
        if conn.interest.is_some() {
            let _ = self.poller.delete(conn.stream.as_raw_fd());
        }
        if !conn.read_eof {
            self.shared.active_conns.fetch_sub(1, Ordering::Relaxed);
        }
        conn.writer.close();
        conn.writer.clear_outbox();
        let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        self.shared.conns.release(slot, conn.gen);
    }
}
