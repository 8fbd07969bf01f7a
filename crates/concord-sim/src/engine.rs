//! A deterministic discrete-event queue.
//!
//! Events at equal timestamps pop in insertion order (FIFO tie-break via a
//! monotone sequence number), which makes every simulation run bit-for-bit
//! reproducible for a fixed seed — a property the reproduction relies on
//! for regression-testing figure outputs.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A time-ordered event queue over cycle timestamps.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    next_seq: u64,
}

#[derive(Debug)]
struct Entry<E> {
    time: u64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` at absolute time `time` (cycles).
    pub fn push(&mut self, time: u64, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Entry { time, seq, event }));
    }

    /// Pops the earliest event; FIFO among equal timestamps.
    pub fn pop(&mut self) -> Option<(u64, E)> {
        self.heap.pop().map(|Reverse(e)| (e.time, e.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, "c");
        q.push(10, "a");
        q.push(20, "b");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(5, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((5, i)));
        }
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(10, 1);
        q.push(5, 0);
        assert_eq!(q.pop(), Some((5, 0)));
        q.push(7, 2);
        q.push(10, 3);
        assert_eq!(q.pop(), Some((7, 2)));
        assert_eq!(q.pop(), Some((10, 1))); // earlier seq at same time
        assert_eq!(q.pop(), Some((10, 3)));
    }

    #[test]
    fn len_counts_pending_events() {
        let mut q = EventQueue::new();
        q.push(42, ());
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((42, ())));
        assert!(q.is_empty());
    }
}
