//! A bounded single-producer/single-consumer descriptor ring.
//!
//! This is the in-process stand-in for a NIC RX/TX queue: fixed capacity,
//! lock-free, one producer core, one consumer core. The implementation is
//! the classic two-counter ring: the producer owns `tail`, the consumer
//! owns `head`, and each observes the other's counter with acquire loads.
//! Counters increase monotonically and are masked into the (power-of-two)
//! buffer, so full/empty are distinguished without a spare slot.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::ops::Deref;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Pads and aligns a value to 128 bytes, the common prefetch-pair size
/// on x86-64 (two 64-byte lines) and the line size on apple-silicon, so
/// two hot atomics written by different cores never false-share: the
/// ring's indices here, the preemption word in `concord-core`.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wraps `value` in its own cache-line pair.
    pub const fn new(value: T) -> Self {
        Self { value }
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

struct Shared<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: usize,
    /// Next slot the consumer will read. Written by the consumer only.
    head: CachePadded<AtomicUsize>,
    /// Next slot the producer will write. Written by the producer only.
    tail: CachePadded<AtomicUsize>,
}

// SAFETY: the ring transfers `T`s between exactly two threads; slots are
// published with release stores and consumed after acquire loads, so each
// `T` is accessed by one thread at a time. `T: Send` is required because
// values cross threads.
unsafe impl<T: Send> Send for Shared<T> {}
// SAFETY: see above — `&Shared` is only ever used through the single
// Producer and single Consumer handles, whose methods take `&mut self`.
unsafe impl<T: Send> Sync for Shared<T> {}

/// Creates a ring with capacity `cap` (rounded up to a power of two),
/// returning the two endpoint handles.
///
/// # Panics
///
/// Panics if `cap` is zero.
pub fn ring<T: Send>(cap: usize) -> (Producer<T>, Consumer<T>) {
    assert!(cap > 0, "ring capacity must be positive");
    let cap = cap.next_power_of_two();
    let buf: Box<[UnsafeCell<MaybeUninit<T>>]> = (0..cap)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect();
    let shared = Arc::new(Shared {
        buf,
        mask: cap - 1,
        head: CachePadded::new(AtomicUsize::new(0)),
        tail: CachePadded::new(AtomicUsize::new(0)),
    });
    (
        Producer {
            shared: shared.clone(),
            cached_head: 0,
        },
        Consumer {
            shared,
            cached_tail: 0,
        },
    )
}

/// The producing endpoint. `!Clone`: exactly one producer.
pub struct Producer<T: Send> {
    shared: Arc<Shared<T>>,
    /// Consumer position as last observed; refreshed only when the ring
    /// looks full, saving coherence traffic on the hot path.
    cached_head: usize,
}

impl<T: Send> Producer<T> {
    /// Attempts to enqueue; returns the value back if the ring is full.
    pub fn push(&mut self, value: T) -> Result<(), T> {
        let tail = self.shared.tail.load(Ordering::Relaxed);
        if tail - self.cached_head > self.shared.mask {
            self.cached_head = self.shared.head.load(Ordering::Acquire);
            if tail - self.cached_head > self.shared.mask {
                return Err(value);
            }
        }
        let slot = &self.shared.buf[tail & self.shared.mask];
        // SAFETY: `tail - head <= mask` ensures the consumer has finished
        // with this slot (it consumed index `tail - cap` already, if any);
        // only this producer writes slots.
        unsafe { (*slot.get()).write(value) };
        self.shared.tail.store(tail + 1, Ordering::Release);
        Ok(())
    }

    /// Capacity of the ring.
    pub fn capacity(&self) -> usize {
        self.shared.mask + 1
    }

    /// Number of occupied slots (approximate under concurrency).
    pub fn len(&self) -> usize {
        let tail = self.shared.tail.load(Ordering::Relaxed);
        let head = self.shared.head.load(Ordering::Acquire);
        tail.wrapping_sub(head)
    }

    /// True if no slots are occupied (approximate under concurrency).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The consuming endpoint. `!Clone`: exactly one consumer.
pub struct Consumer<T: Send> {
    shared: Arc<Shared<T>>,
    /// Producer position as last observed; refreshed only when the ring
    /// looks empty.
    cached_tail: usize,
}

impl<T: Send> Consumer<T> {
    /// Attempts to dequeue.
    pub fn pop(&mut self) -> Option<T> {
        let head = self.shared.head.load(Ordering::Relaxed);
        if head == self.cached_tail {
            self.cached_tail = self.shared.tail.load(Ordering::Acquire);
            if head == self.cached_tail {
                return None;
            }
        }
        let slot = &self.shared.buf[head & self.shared.mask];
        // SAFETY: `head < tail` (acquire-observed), so the producer's
        // release store published this slot; only this consumer reads it,
        // and advancing `head` below hands the slot back to the producer.
        let value = unsafe { (*slot.get()).assume_init_read() };
        self.shared.head.store(head + 1, Ordering::Release);
        Some(value)
    }

    /// Drains up to `max` items into `out`, returning how many were moved.
    pub fn pop_batch(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        let mut n = 0;
        while n < max {
            match self.pop() {
                Some(v) => {
                    out.push(v);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }

    /// Number of occupied slots (approximate under concurrency).
    pub fn len(&self) -> usize {
        let tail = self.shared.tail.load(Ordering::Acquire);
        let head = self.shared.head.load(Ordering::Relaxed);
        tail.wrapping_sub(head)
    }

    /// True if no slots are occupied (approximate under concurrency).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T: Send> Drop for Consumer<T> {
    fn drop(&mut self) {
        // Drain remaining items so their destructors run. The producer may
        // still push concurrently, but anything pushed after this drain is
        // plain `MaybeUninit` data that is never dropped — `T`s leak rather
        // than double-drop, which is the safe direction. Runtimes join the
        // producer first.
        while self.pop().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_padded_is_big_and_aligned() {
        assert!(std::mem::align_of::<CachePadded<u64>>() >= 128);
        assert_eq!(*CachePadded::new(7u64), 7);
    }

    #[test]
    fn fifo_order_single_thread() {
        let (mut tx, mut rx) = ring::<u32>(8);
        for i in 0..5 {
            tx.push(i).expect("space");
        }
        for i in 0..5 {
            assert_eq!(rx.pop(), Some(i));
        }
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        let (tx, _rx) = ring::<u8>(5);
        assert_eq!(tx.capacity(), 8);
    }

    #[test]
    fn full_ring_rejects_push() {
        let (mut tx, mut rx) = ring::<u32>(4);
        for i in 0..4 {
            tx.push(i).expect("space");
        }
        assert_eq!(tx.push(99), Err(99));
        assert_eq!(rx.pop(), Some(0));
        tx.push(99).expect("space after pop");
    }

    #[test]
    fn wraparound_many_times() {
        let (mut tx, mut rx) = ring::<usize>(4);
        for i in 0..10_000 {
            tx.push(i).expect("space");
            assert_eq!(rx.pop(), Some(i));
        }
    }

    #[test]
    fn pop_batch_drains_up_to_max() {
        let (mut tx, mut rx) = ring::<u32>(16);
        for i in 0..10 {
            tx.push(i).expect("space");
        }
        let mut out = Vec::new();
        assert_eq!(rx.pop_batch(&mut out, 4), 4);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(rx.pop_batch(&mut out, 100), 6);
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn drop_runs_destructors_of_queued_items() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        struct Probe(Arc<AtomicUsize>);
        impl Drop for Probe {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let (mut tx, rx) = ring::<Probe>(8);
            for _ in 0..5 {
                tx.push(Probe(drops.clone())).ok().expect("space");
            }
            drop(rx);
            drop(tx);
        }
        assert_eq!(drops.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn two_thread_stress_preserves_sequence() {
        let (mut tx, mut rx) = ring::<u64>(64);
        const N: u64 = 200_000;
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                let mut v = i;
                loop {
                    match tx.push(v) {
                        Ok(()) => break,
                        Err(back) => {
                            v = back;
                            std::hint::spin_loop();
                        }
                    }
                }
            }
        });
        let mut expected = 0u64;
        while expected < N {
            if let Some(v) = rx.pop() {
                assert_eq!(v, expected);
                expected += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        producer.join().expect("producer");
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn len_tracks_occupancy() {
        let (mut tx, mut rx) = ring::<u8>(8);
        assert!(tx.is_empty() && rx.is_empty());
        tx.push(1).expect("space");
        tx.push(2).expect("space");
        assert_eq!(tx.len(), 2);
        assert_eq!(rx.len(), 2);
        rx.pop();
        assert_eq!(rx.len(), 1);
    }
}
