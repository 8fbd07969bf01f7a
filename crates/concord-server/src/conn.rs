//! Connection identity and response routing: generation-tagged slots.
//!
//! The server routes responses back to connections through bits packed
//! into the request id. The original scheme used a bare 16-bit counter
//! as the connection id, which wraps after 65,536 accepts: a response
//! still in flight for a closed connection would then be delivered to
//! whatever *new* connection had been assigned the reused id —
//! cross-connection delivery, the worst kind of silent corruption.
//!
//! This module replaces the counter with a slot table:
//!
//! - a **slot** (16 bits) indexes the table; slots are recycled through
//!   a free list only after their connection is fully retired;
//! - a **generation** (8 bits) is bumped on every slot reuse and packed
//!   into the route id next to the slot. A response whose generation
//!   does not match the slot's current occupant is counted as an orphan
//!   instead of being delivered to the wrong client.
//!
//! A slot is released only when its connection retires, and it retires
//! only once the client has half-closed *and* every response owed on
//! the connection has been enqueued (or the server is shutting down).
//! Releases therefore never race an owed in-flight response, which is
//! what makes the 8-bit generation sufficient: stale ids can only be
//! produced by responses that were already settled or counted.
//!
//! The *owed book* behind that rule ([`ConnWriter`]) is also what the
//! owning event loop's mode rests on: every unit that enters a book
//! enters the loop's in-flight count, and every unit that leaves —
//! settled by the egress, shed at the gate, forfeited by a teardown —
//! is reported back through the `ConnNotify::settled` hook, exactly once. The
//! outbox beside it is a single byte buffer the egress encodes into in
//! place and the loop swaps out whole.
//!
//! The route-id bit layout itself (`16-bit slot | 8-bit generation |
//! 40-bit client id`) lives in [`concord_wire::route`], shared with the
//! rack front end.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Default bound on encoded frames a connection's outbox may hold
/// before the egress reports backpressure to the dispatcher (which then
/// retries briefly and counts `tx_dropped`, same as a full TX ring).
/// Tests shrink it (`ServerConfig::outbox_cap`) to exercise the
/// backpressure accounting deterministically.
pub const DEFAULT_OUTBOX_CAP: usize = 64 * 1024;

/// How a [`ConnWriter`] reaches its owning I/O event loop: to say the
/// connection needs service (a frame was enqueued, a book settled, the
/// connection closed), and to take settled requests out of the loop's
/// in-flight count. Implemented by the event loop's shared state; a
/// trait so the unit tests can substitute a counting fake.
pub(crate) trait ConnNotify: Send + Sync {
    /// Marks connection `(slot, gen)` dirty, waking the loop if it sleeps.
    fn notify(&self, slot: u16, gen: u8);

    /// `n` requests the loop admitted are settled: answered, shed at the
    /// gate, dropped under backpressure, or forfeited by a teardown.
    /// Whoever takes a unit out of a connection's `owed` book reports it
    /// here, so the loop's count is always the sum of its connections'
    /// books.
    fn settled(&self, n: u64);
}

struct Binding {
    notify: Arc<dyn ConnNotify>,
    slot: u16,
    gen: u8,
}

/// Encoded frames waiting for the event loop, back to back in one
/// buffer: the egress encodes into it in place, the loop swaps it for
/// its own drained buffer and writes it out, so a response costs no
/// allocation and a flush no gather list.
#[derive(Default)]
struct Outbox {
    bytes: Vec<u8>,
    frames: usize,
}

/// What became of a frame handed to [`ConnWriter::respond`].
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Queued {
    /// Encoded into the outbox; the owed response is settled.
    Yes,
    /// The connection is gone: nothing encoded, the book settled anyway
    /// (no response will ever be written for that request).
    Closed,
    /// Live connection, outbox at its bound: nothing encoded and nothing
    /// settled — the caller retries or gives the request up itself.
    Full,
}

/// A connection's outbox and retirement state: encoded frames queued for
/// flushing, plus the books that decide when the connection may retire
/// and release its slot. Flushed by the owning I/O event loop, which
/// every enqueue, settle and close nudges through the bound notifier.
pub struct ConnWriter {
    outbox: Mutex<Outbox>,
    cap: usize,
    closed: AtomicBool,
    /// The client half-closed its sending side; no more requests can
    /// arrive, so the connection retires once nothing more is owed.
    read_closed: AtomicBool,
    /// Requests offered to the admission gate whose response has not yet
    /// reached the outbox. Incremented by the event loop *before* the
    /// offer; decremented by the egress at enqueue time, by the loop when
    /// the gate sheds the request (or evicts it later), by the dispatcher
    /// when it drops the response under backpressure, and zeroed by the
    /// loop at teardown. Every unit taken out is reported to the loop
    /// through [`ConnNotify::settled`].
    owed: AtomicU64,
    /// Event-loop binding, set once right after slot registration.
    binding: OnceLock<Binding>,
    /// Dedup flag: `true` while a dirty notification for this connection
    /// is outstanding, so a burst of enqueues notifies the loop once.
    queued: AtomicBool,
}

impl ConnWriter {
    pub(crate) fn new(cap: usize) -> Arc<Self> {
        Arc::new(Self {
            outbox: Mutex::new(Outbox::default()),
            cap: cap.max(1),
            closed: AtomicBool::new(false),
            read_closed: AtomicBool::new(false),
            owed: AtomicU64::new(0),
            binding: OnceLock::new(),
            queued: AtomicBool::new(false),
        })
    }

    /// Binds this writer to its owning event loop. Called once, after
    /// the slot is registered and before any frame can be enqueued.
    pub(crate) fn bind_notifier(&self, notify: Arc<dyn ConnNotify>, slot: u16, gen: u8) {
        let _ = self.binding.set(Binding { notify, slot, gen });
    }

    /// Tells the event loop that flushes this connection it has work
    /// here (coalesced: one notification outstanding at a time), then
    /// reports `settled` requests to it — in that order, so the loop
    /// cannot see its last request settle and go to sleep before the
    /// notification that carries the response is on its dirty list.
    /// Before [`ConnWriter::bind_notifier`] there is nobody to tell: the
    /// loop binds right after registering the slot, before it reads a
    /// frame.
    fn nudge(&self, settled: u64) {
        if let Some(b) = self.binding.get() {
            if !self.queued.swap(true, Ordering::AcqRel) {
                b.notify.notify(b.slot, b.gen);
            }
            if settled > 0 {
                b.notify.settled(settled);
            }
        }
    }

    /// Event-loop side: accepts new dirty notifications again. Called
    /// before servicing, so an enqueue racing the service re-notifies.
    pub(crate) fn clear_queued(&self) {
        self.queued.store(false, Ordering::Release);
    }

    /// Whether the connection has been torn down.
    pub(crate) fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Read path: one request is about to be offered to the admission
    /// gate and will owe this connection a response. Counted *before*
    /// the offer: the dispatcher can answer before `offer` returns, and
    /// a settle that finds nothing owed saturates at zero, so counting
    /// afterwards would leave the book one too high for good.
    pub(crate) fn note_owed(&self) {
        self.owed.fetch_add(1, Ordering::AcqRel);
    }

    /// Settles one owed response (enqueued, shed or evicted at the gate,
    /// or dropped by the dispatcher under backpressure — in every case no
    /// further response will come for that request). Saturates rather
    /// than underflows: a teardown forfeits the whole book, and responses
    /// still in flight then settle against zero.
    pub(crate) fn settle_owed(&self) {
        let settled = self
            .owed
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| v.checked_sub(1))
            .is_ok();
        self.nudge(u64::from(settled));
    }

    /// Teardown ([`ConnTable::release`]): whatever the connection still
    /// owes will never be written (late responses orphan at the egress),
    /// so the book is emptied and the loop's in-flight count relieved of
    /// it.
    fn forfeit(&self) {
        let forfeited = self.owed.swap(0, Ordering::AcqRel);
        if forfeited > 0 {
            if let Some(b) = self.binding.get() {
                b.notify.settled(forfeited);
            }
        }
    }

    /// Read path: the client half-closed; the connection may retire
    /// once the outbox is drained and nothing more is owed.
    pub(crate) fn reader_done(&self) {
        self.read_closed.store(true, Ordering::Release);
        self.nudge(0);
    }

    /// Answers one owed request: `encode` appends the frame straight
    /// into the outbox, the book is settled and the loop nudged, all in
    /// one call (one lock, one notification, no allocation once the
    /// buffer has grown). See [`Queued`] for what each outcome settled.
    pub(crate) fn respond(&self, encode: impl FnOnce(&mut Vec<u8>)) -> Queued {
        if self.is_closed() {
            self.settle_owed();
            return Queued::Closed;
        }
        {
            let mut q = self.outbox.lock().expect("outbox lock");
            if q.frames >= self.cap {
                return Queued::Full;
            }
            encode(&mut q.bytes);
            q.frames += 1;
        }
        self.settle_owed();
        Queued::Yes
    }

    /// Event-loop flushing: swaps the queued bytes into `drained`, which
    /// must be empty (the loop hands back the buffer it has finished
    /// writing, so the two ping-pong and neither is reallocated).
    pub(crate) fn take_outbox(&self, drained: &mut Vec<u8>) {
        debug_assert!(drained.is_empty());
        let mut q = self.outbox.lock().expect("outbox lock");
        if q.frames > 0 {
            std::mem::swap(&mut q.bytes, drained);
            q.frames = 0;
        }
    }

    /// Drops every queued frame (teardown of a dead connection).
    pub(crate) fn clear_outbox(&self) {
        *self.outbox.lock().expect("outbox lock") = Outbox::default();
    }

    pub(crate) fn close(&self) {
        self.closed.store(true, Ordering::Release);
        self.nudge(0);
    }

    /// Whether the outbox is empty for good: the connection is torn
    /// down, or the client is done sending and no response is still
    /// owed, and nothing is queued. The `owed` book is read *before* the
    /// outbox: each response is enqueued before it is settled, so once
    /// `owed == 0` the outbox contents are final and an empty check
    /// cannot miss a late frame.
    pub(crate) fn retired(&self) -> bool {
        let done_sending = self.is_closed()
            || (self.read_closed.load(Ordering::Acquire) && self.owed.load(Ordering::Acquire) == 0);
        done_sending && self.outbox.lock().expect("outbox lock").frames == 0
    }

    /// Responses this connection is still owed.
    pub(crate) fn owed(&self) -> u64 {
        self.owed.load(Ordering::Acquire)
    }
}

struct SlotState {
    gen: u8,
    writer: Option<Arc<ConnWriter>>,
}

struct TableInner {
    slots: Vec<SlotState>,
    free: Vec<u16>,
}

/// The generation-tagged connection registry.
pub struct ConnTable {
    inner: Mutex<TableInner>,
}

impl Default for ConnTable {
    fn default() -> Self {
        Self::new()
    }
}

impl ConnTable {
    /// An empty table.
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(TableInner {
                slots: Vec::new(),
                free: Vec::new(),
            }),
        }
    }

    /// Registers a connection: assigns a free slot (bumping its
    /// generation) or grows the table. `None` when all 65,536 slots hold
    /// live connections — the caller should refuse the connection.
    pub fn register(&self, writer: Arc<ConnWriter>) -> Option<(u16, u8)> {
        let mut t = self.inner.lock().expect("conn table lock");
        if let Some(slot) = t.free.pop() {
            let s = &mut t.slots[slot as usize];
            s.gen = s.gen.wrapping_add(1);
            s.writer = Some(writer);
            return Some((slot, s.gen));
        }
        if t.slots.len() >= concord_wire::route::MAX_CONNS {
            return None;
        }
        let slot = t.slots.len() as u16;
        t.slots.push(SlotState {
            gen: 0,
            writer: Some(writer),
        });
        Some((slot, 0))
    }

    /// The writer registered at `slot` — only if the generation matches
    /// the slot's current occupant. A stale generation (the connection
    /// that produced this id is gone, the slot was reused) returns
    /// `None`, turning a would-be cross-delivery into a counted orphan.
    pub fn lookup(&self, slot: u16, gen: u8) -> Option<Arc<ConnWriter>> {
        let t = self.inner.lock().expect("conn table lock");
        let s = t.slots.get(slot as usize)?;
        if s.gen != gen {
            return None;
        }
        s.writer.clone()
    }

    /// Retires a connection, making its slot reusable. A stale
    /// generation is a no-op (the slot was already recycled).
    ///
    /// The writer leaves the table closed and owing nothing, whoever
    /// releases it: responses still in flight for it orphan at the
    /// egress (which trusts a remembered writer only while it is open),
    /// and what it owed is taken out of its loop's in-flight count.
    pub fn release(&self, slot: u16, gen: u8) {
        let mut t = self.inner.lock().expect("conn table lock");
        let Some(s) = t.slots.get_mut(slot as usize) else {
            return;
        };
        if s.gen != gen {
            return;
        }
        let Some(writer) = s.writer.take() else {
            return;
        };
        writer.close();
        writer.forfeit();
        t.free.push(slot);
    }

    /// Connections currently registered.
    pub fn live(&self) -> usize {
        let t = self.inner.lock().expect("conn table lock");
        t.slots.len() - t.free.len()
    }

    /// Responses owed across every registered connection: the other side
    /// of the event loops' in-flight ledger.
    pub fn owed(&self) -> u64 {
        let t = self.inner.lock().expect("conn table lock");
        t.slots
            .iter()
            .filter_map(|s| s.writer.as_deref())
            .map(ConnWriter::owed)
            .sum()
    }

    /// Closes every live writer (shutdown path). The event loops flush
    /// what is queued and retire them; slots are not recycled here — the
    /// table is dying.
    pub fn close_all(&self) {
        let t = self.inner.lock().expect("conn table lock");
        for s in &t.slots {
            if let Some(w) = &s.writer {
                w.close();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_reuse_bumps_generation_and_stales_old_ids() {
        let t = ConnTable::new();
        let w1 = ConnWriter::new(64);
        let (slot, gen) = t.register(w1.clone()).expect("slot");
        assert_eq!((slot, gen), (0, 0));
        assert!(t.lookup(slot, gen).is_some());

        t.release(slot, gen);
        assert!(t.lookup(slot, gen).is_none(), "released slot is dead");
        assert_eq!(t.live(), 0);

        let w2 = ConnWriter::new(64);
        let (slot2, gen2) = t.register(w2).expect("slot");
        assert_eq!(slot2, slot, "slot recycled");
        assert_eq!(gen2, 1, "generation bumped");
        assert!(
            t.lookup(slot, gen).is_none(),
            "old generation must not reach the new connection"
        );
        assert!(t.lookup(slot2, gen2).is_some());
    }

    #[test]
    fn release_with_stale_generation_is_a_noop() {
        let t = ConnTable::new();
        let (slot, gen) = t.register(ConnWriter::new(64)).expect("slot");
        t.release(slot, gen);
        let (slot2, gen2) = t.register(ConnWriter::new(64)).expect("slot");
        assert_eq!(slot2, slot);
        // A late release from the previous occupant must not retire the
        // new connection.
        t.release(slot, gen);
        assert!(t.lookup(slot2, gen2).is_some());
        assert_eq!(t.live(), 1);
    }

    /// Counts what a bound writer tells its loop.
    #[derive(Default)]
    struct Count {
        notified: AtomicU64,
        settled: AtomicU64,
    }

    impl ConnNotify for Count {
        fn notify(&self, slot: u16, gen: u8) {
            assert_eq!((slot, gen), (3, 1));
            self.notified.fetch_add(1, Ordering::SeqCst);
        }

        fn settled(&self, n: u64) {
            self.settled.fetch_add(n, Ordering::SeqCst);
        }
    }

    fn bound(cap: usize) -> (Arc<ConnWriter>, Arc<Count>) {
        let count = Arc::new(Count::default());
        let w = ConnWriter::new(cap);
        w.bind_notifier(count.clone(), 3, 1);
        (w, count)
    }

    fn frame(bytes: &'static [u8]) -> impl FnOnce(&mut Vec<u8>) {
        move |out| out.extend_from_slice(bytes)
    }

    #[test]
    fn outbox_is_one_buffer_bounded_in_frames() {
        let (w, count) = bound(2);
        for _ in 0..3 {
            w.note_owed();
        }
        assert_eq!(w.respond(frame(b"one")), Queued::Yes);
        assert_eq!(w.respond(frame(b"two-three")), Queued::Yes);
        assert_eq!(
            w.respond(|_| panic!("a full outbox encodes nothing")),
            Queued::Full
        );
        assert_eq!(w.owed(), 1, "a refused frame settles nothing");
        // The loop swaps the queued bytes for its drained buffer: frames
        // back to back, and room for two more.
        let mut drained = Vec::with_capacity(64);
        w.take_outbox(&mut drained);
        assert_eq!(drained, b"onetwo-three");
        assert_eq!(w.respond(frame(b"four")), Queued::Yes);
        assert_eq!(w.owed(), 0);
        // The buffers ping-pong: what the loop handed in is what the
        // next frame was encoded into.
        let mut again = Vec::new();
        w.take_outbox(&mut again);
        assert_eq!((again.as_slice(), again.capacity()), (&b"four"[..], 64));
        assert_eq!(count.settled.load(Ordering::SeqCst), 3);

        w.close();
        w.note_owed();
        assert_eq!(
            w.respond(|_| panic!("a closed outbox encodes nothing")),
            Queued::Closed
        );
        assert_eq!(w.owed(), 0, "no response will come: settled anyway");
    }

    #[test]
    fn retirement_requires_half_close_and_settled_books() {
        let w = ConnWriter::new(64);
        assert!(!w.retired(), "open connection stays up");
        w.note_owed();
        w.reader_done();
        assert!(!w.retired(), "owed response pins the writer");
        assert_eq!(w.respond(frame(b"r")), Queued::Yes);
        assert!(!w.retired(), "non-empty outbox always pins");
        w.take_outbox(&mut Vec::new());
        assert!(w.retired(), "half-closed + settled + drained => retired");
        // Saturating settle: a spurious extra settle cannot underflow.
        w.settle_owed();
        assert!(w.retired());
    }

    #[test]
    fn bound_writer_notifies_its_loop_once_per_burst() {
        let (w, count) = bound(64);
        w.note_owed();
        w.note_owed();
        assert_eq!(w.respond(frame(b"1")), Queued::Yes);
        assert_eq!(w.respond(frame(b"2")), Queued::Yes);
        w.settle_owed();
        assert_eq!(count.notified.load(Ordering::SeqCst), 1, "coalesced");
        w.clear_queued();
        w.settle_owed();
        assert_eq!(
            count.notified.load(Ordering::SeqCst),
            2,
            "re-armed by the loop"
        );
    }

    /// Every unit that leaves the owed book is reported to the loop
    /// exactly once, whichever way it leaves: settled one by one, or
    /// forfeited in bulk at teardown — and a settle that finds the book
    /// empty (a late response after the forfeit) reports nothing.
    #[test]
    fn every_owed_unit_is_reported_settled_exactly_once() {
        let (w, count) = bound(64);
        for _ in 0..5 {
            w.note_owed();
        }
        w.settle_owed();
        assert_eq!(w.respond(frame(b"r")), Queued::Yes);
        assert_eq!(count.settled.load(Ordering::SeqCst), 2);
        w.close();
        w.forfeit();
        assert_eq!((w.owed(), count.settled.load(Ordering::SeqCst)), (0, 5));
        w.settle_owed();
        assert_eq!(w.respond(frame(b"late")), Queued::Closed);
        w.forfeit();
        assert_eq!(count.settled.load(Ordering::SeqCst), 5, "nothing twice");
    }
}
