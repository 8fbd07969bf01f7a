//! Connection identity and response routing: generation-tagged slots,
//! kept by the one shard dispatcher that owns them.
//!
//! The server routes each answer back to its connection through bits
//! packed into the request id (`16-bit slot | 8-bit generation | 40-bit
//! client id`, laid out in [`concord_wire::route`] and shared with the
//! rack front end):
//!
//! - a **slot** indexes the table. Shard `i` of `n` owns the slots `s`
//!   with `s % n == i`, so route ids are unique across shards
//!   and a merged trace, whose STEAL events follow a request onto the
//!   sibling that ran it, names each request once. Answers need no
//!   routing between shards: the runtime brings a handed-off request's
//!   answer home to the shard that read it;
//! - a **generation** is bumped on every slot reuse, so a late answer
//!   for a slot's previous connection is told from one for its live
//!   occupant.
//!
//! A slot outlives its connection: a torn-down connection's slot returns
//! to the free list only once every request it had admitted has been
//! settled — answered (the answer orphans) or dropped. A route
//! id can therefore never name a slot's next occupant, whatever the
//! generation wrap: no answer is ever delivered to the wrong connection.
//!
//! Every book here is a plain field of the owning shard's `ConnTable`:
//! a slot's `owed` count, its connection's [`Outbox`] (the shared
//! `concord_net::endpoint` one, bounded in frames), and the shard's
//! `in_flight`, which always equals the sum of `owed` over its slots.

use concord_net::endpoint::Outbox;
use concord_wire::route::MAX_CONNS;

struct Slot {
    gen: u8,
    /// Requests admitted on this slot's connection that have not been
    /// settled yet.
    owed: u64,
    /// The open connection's outbox; `None` once it is torn down.
    outbox: Option<Outbox>,
}

/// One shard's generation-tagged slots and the books kept on them.
/// Touched by the owning shard's dispatcher only.
pub(crate) struct ConnTable {
    /// This shard's index and the shard count: it owns the slots
    /// `index, index + stride, index + 2 * stride, ...`.
    index: usize,
    stride: usize,
    outbox_cap: usize,
    /// Slot `index + k * stride` is `slots[k]`.
    slots: Vec<Slot>,
    free: Vec<u16>,
    /// `Σ owed` over every slot, live or torn down.
    in_flight: u64,
}

impl ConnTable {
    /// The slots of shard `index` of `shards`, each connection's outbox
    /// bounded at `outbox_cap` frames.
    pub(crate) fn new(index: usize, shards: usize, outbox_cap: usize) -> Self {
        Self {
            index,
            stride: shards,
            outbox_cap,
            slots: Vec::new(),
            free: Vec::new(),
            in_flight: 0,
        }
    }

    /// The slot's state, if this shard owns it and `gen` names its
    /// current occupant.
    fn get(&mut self, slot: u16, gen: u8) -> Option<&mut Slot> {
        if usize::from(slot) % self.stride != self.index {
            return None;
        }
        let s = self.slots.get_mut(usize::from(slot) / self.stride)?;
        (s.gen == gen).then_some(s)
    }

    /// Registers a connection: takes a free slot (bumping its
    /// generation) or grows the table. `None` when every slot this shard
    /// owns is held — the caller should refuse the connection.
    pub(crate) fn register(&mut self) -> Option<(u16, u8)> {
        let outbox = Some(Outbox::new(self.outbox_cap));
        if let Some(slot) = self.free.pop() {
            let s = &mut self.slots[usize::from(slot) / self.stride];
            s.gen = s.gen.wrapping_add(1);
            s.outbox = outbox;
            return Some((slot, s.gen));
        }
        let slot = self.slots.len() * self.stride + self.index;
        if slot >= MAX_CONNS {
            return None;
        }
        self.slots.push(Slot {
            gen: 0,
            owed: 0,
            outbox,
        });
        Some((slot as u16, 0))
    }

    /// Tears a connection down: its outbox goes, and its slot returns to
    /// the free list once nothing is owed on it — at once, or at the
    /// last settle. A stale generation is a no-op.
    pub(crate) fn close(&mut self, slot: u16, gen: u8) {
        let Some(s) = self.get(slot, gen) else { return };
        if s.outbox.take().is_some() && s.owed == 0 {
            self.free.push(slot);
        }
    }

    /// One more request admitted on the live connection at `slot`.
    pub(crate) fn owe(&mut self, slot: u16) {
        self.slots[usize::from(slot) / self.stride].owed += 1;
        self.in_flight += 1;
    }

    /// One request owed on `(slot, gen)` is settled: answered or
    /// dropped. `false` (and nothing settled) when nothing is owed
    /// there under that generation.
    pub(crate) fn settle(&mut self, slot: u16, gen: u8) -> bool {
        let Some(s) = self.get(slot, gen).filter(|s| s.owed > 0) else {
            return false;
        };
        s.owed -= 1;
        if s.owed == 0 && s.outbox.is_none() {
            self.free.push(slot);
        }
        self.in_flight -= 1;
        true
    }

    /// The outbox of the live connection at `(slot, gen)`.
    pub(crate) fn outbox(&mut self, slot: u16, gen: u8) -> Option<&mut Outbox> {
        self.get(slot, gen)?.outbox.as_mut()
    }

    /// Requests owed on `slot`.
    pub(crate) fn owed(&self, slot: u16) -> u64 {
        self.slots[usize::from(slot) / self.stride].owed
    }

    /// Requests admitted on this shard's connections and not yet settled.
    pub(crate) fn in_flight(&self) -> u64 {
        self.in_flight
    }

    /// Slots held: by a live connection, or by answers still owed on a
    /// torn-down one.
    pub(crate) fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// `Σ owed` over every slot, recomputed — what `in_flight` must equal.
    #[cfg(test)]
    pub(crate) fn owed_total(&self) -> u64 {
        self.slots.iter().map(|s| s.owed).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_reuse_bumps_generation_and_stales_old_ids() {
        let mut t = ConnTable::new(0, 1, 64);
        let (slot, gen) = t.register().expect("slot");
        assert_eq!((slot, gen), (0, 0));
        assert!(t.outbox(slot, gen).is_some());

        t.close(slot, gen);
        assert!(t.outbox(slot, gen).is_none(), "closed slot is dead");
        assert_eq!(t.live(), 0);

        let (slot2, gen2) = t.register().expect("slot");
        assert_eq!(slot2, slot, "slot recycled");
        assert_eq!(gen2, 1, "generation bumped");
        assert!(!t.settle(slot, gen), "old generation settles nothing");
        assert!(t.outbox(slot, gen).is_none());
        assert!(t.outbox(slot2, gen2).is_some());
    }

    #[test]
    fn close_with_stale_generation_is_a_noop() {
        let mut t = ConnTable::new(0, 1, 64);
        let (slot, gen) = t.register().expect("slot");
        t.close(slot, gen);
        let (slot2, gen2) = t.register().expect("slot");
        assert_eq!(slot2, slot);
        // A late close from the previous occupant must not tear down
        // the new connection.
        t.close(slot, gen);
        assert!(t.outbox(slot2, gen2).is_some());
        assert_eq!(t.live(), 1);
    }

    #[test]
    fn each_shard_owns_its_residue_class() {
        let mut t = ConnTable::new(2, 3, 64);
        let slots: Vec<u16> = (0..4).map(|_| t.register().expect("slot").0).collect();
        assert_eq!(slots, [2, 5, 8, 11]);
        assert!(slots.iter().all(|&s| s % 3 == 2));
        // Another shard's slot is not this table's to touch.
        assert!(t.outbox(3, 0).is_none());
        assert!(!t.settle(4, 0));
        // The last slot is the last one `slot % 3 == 2` fits in 16 bits.
        let mut last = ConnTable::new(2, 3, 64);
        let held = std::iter::from_fn(|| last.register()).count();
        assert_eq!(held, (MAX_CONNS - 2).div_ceil(3));
    }
}
