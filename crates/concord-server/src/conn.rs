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
//! The route-id bit layout itself (`16-bit slot | 8-bit generation |
//! 40-bit client id`) lives in [`concord_wire::route`], shared with the
//! rack front end.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Default bound on encoded frames a connection's outbox may hold
/// before the egress reports backpressure to the dispatcher (which then
/// retries briefly and counts `tx_dropped`, same as a full TX ring).
/// Tests shrink it (`ServerConfig::outbox_cap`) to exercise the
/// backpressure accounting deterministically.
pub const DEFAULT_OUTBOX_CAP: usize = 64 * 1024;

/// How a [`ConnWriter`] tells its owning I/O event loop that the
/// connection needs service (a frame was enqueued, a book settled, the
/// connection closed). Implemented by the event loop's shared state; a
/// trait so the unit test can substitute a counting fake.
pub(crate) trait ConnNotify: Send + Sync {
    /// Marks connection `(slot, gen)` dirty and wakes the loop.
    fn notify(&self, slot: u16, gen: u8);
}

struct Binding {
    notify: Arc<dyn ConnNotify>,
    slot: u16,
    gen: u8,
}

/// A connection's outbox and retirement state: encoded frames queued for
/// flushing, plus the books that decide when the connection may retire
/// and release its slot. Flushed by the owning I/O event loop, which
/// every enqueue, settle and close nudges through the bound notifier.
pub struct ConnWriter {
    outbox: Mutex<VecDeque<Vec<u8>>>,
    cap: usize,
    closed: AtomicBool,
    /// The client half-closed its sending side; no more requests can
    /// arrive, so the connection retires once nothing more is owed.
    read_closed: AtomicBool,
    /// Admitted requests whose response has not yet reached the outbox.
    /// Incremented by the event loop at admission, decremented by the
    /// egress at enqueue time (or when the admission gate evicts the
    /// request, or when the dispatcher drops the response under
    /// backpressure).
    owed: AtomicU64,
    /// Event-loop binding, set once right after slot registration.
    binding: OnceLock<Binding>,
    /// Dedup flag: `true` while a dirty notification for this connection
    /// is outstanding, so a burst of enqueues wakes the loop once.
    queued: AtomicBool,
}

impl ConnWriter {
    pub(crate) fn new(cap: usize) -> Arc<Self> {
        Arc::new(Self {
            outbox: Mutex::new(VecDeque::new()),
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

    /// Wakes the event loop that flushes this connection with a dirty
    /// notification (coalesced: one outstanding at a time). Before
    /// [`ConnWriter::bind_notifier`] there is nobody to wake: the loop
    /// binds right after registering the slot, before it reads a frame.
    fn nudge(&self) {
        if let Some(b) = self.binding.get() {
            if !self.queued.swap(true, Ordering::AcqRel) {
                b.notify.notify(b.slot, b.gen);
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

    /// Read path: one admitted request now owes this connection a
    /// response.
    pub(crate) fn note_owed(&self) {
        self.owed.fetch_add(1, Ordering::AcqRel);
    }

    /// Settles one owed response (enqueued, evicted at the gate, or
    /// dropped by the dispatcher under backpressure — in every case no
    /// further response will come for that request). Saturates rather
    /// than underflows: the egress can settle a response whose request
    /// predates a reconnect.
    pub(crate) fn settle_owed(&self) {
        let _ = self
            .owed
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| v.checked_sub(1));
        self.nudge();
    }

    /// Read path: the client half-closed; the connection may retire
    /// once the outbox is drained and nothing more is owed.
    pub(crate) fn reader_done(&self) {
        self.read_closed.store(true, Ordering::Release);
        self.nudge();
    }

    /// Queues one encoded frame. `false` means the connection is gone or
    /// its outbox is full.
    pub(crate) fn enqueue(&self, frame: Vec<u8>) -> bool {
        if self.closed.load(Ordering::Acquire) {
            return false;
        }
        {
            let mut q = self.outbox.lock().expect("outbox lock");
            if q.len() >= self.cap {
                return false;
            }
            q.push_back(frame);
        }
        self.nudge();
        true
    }

    /// Moves up to `max` queued frames into `out` (event-loop flushing).
    pub(crate) fn take_batch(&self, out: &mut VecDeque<Vec<u8>>, max: usize) {
        let mut q = self.outbox.lock().expect("outbox lock");
        let n = q.len().min(max);
        out.extend(q.drain(..n));
    }

    /// Drops every queued frame (teardown of a dead connection).
    pub(crate) fn clear_outbox(&self) {
        self.outbox.lock().expect("outbox lock").clear();
    }

    pub(crate) fn close(&self) {
        self.closed.store(true, Ordering::Release);
        self.nudge();
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
        done_sending && self.outbox.lock().expect("outbox lock").is_empty()
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
    pub fn release(&self, slot: u16, gen: u8) {
        let mut t = self.inner.lock().expect("conn table lock");
        let Some(s) = t.slots.get_mut(slot as usize) else {
            return;
        };
        if s.gen != gen || s.writer.is_none() {
            return;
        }
        s.writer = None;
        t.free.push(slot);
    }

    /// Connections currently registered.
    pub fn live(&self) -> usize {
        let t = self.inner.lock().expect("conn table lock");
        t.slots.len() - t.free.len()
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

    #[test]
    fn outbox_backpressure_and_close() {
        let w = ConnWriter::new(64);
        assert!(w.enqueue(vec![1, 2, 3]));
        w.close();
        assert!(!w.enqueue(vec![4]), "closed outbox refuses frames");
    }

    #[test]
    fn retirement_requires_half_close_and_settled_books() {
        let w = ConnWriter::new(64);
        assert!(!w.retired(), "open connection stays up");
        w.note_owed();
        w.reader_done();
        assert!(!w.retired(), "owed response pins the writer");
        assert!(w.enqueue(vec![1]));
        w.settle_owed();
        assert!(!w.retired(), "non-empty outbox always pins");
        w.take_batch(&mut VecDeque::new(), 1);
        assert!(w.retired(), "half-closed + settled + drained => retired");
        // Saturating settle: a spurious extra settle cannot underflow.
        w.settle_owed();
        assert!(w.retired());
    }

    #[test]
    fn bound_writer_notifies_its_loop_once_per_burst() {
        struct Count(AtomicU64);
        impl ConnNotify for Count {
            fn notify(&self, slot: u16, gen: u8) {
                assert_eq!((slot, gen), (3, 1));
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let notified = Arc::new(Count(AtomicU64::new(0)));
        let w = ConnWriter::new(64);
        w.bind_notifier(notified.clone(), 3, 1);
        assert!(w.enqueue(vec![1]));
        assert!(w.enqueue(vec![2]));
        w.settle_owed();
        assert_eq!(notified.0.load(Ordering::SeqCst), 1, "coalesced");
        w.clear_queued();
        w.settle_owed();
        assert_eq!(notified.0.load(Ordering::SeqCst), 2, "re-armed by the loop");
    }
}
