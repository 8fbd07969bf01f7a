//! First-party concurrency primitives shared across the workspace.
//!
//! Two things live here, both small enough that owning them beats
//! depending on an external crate for them:
//!
//! * [`CachePadded`] — aligns a value to its own cache-line pair so two
//!   hot atomics written by different cores never false-share. Used by
//!   the SPSC ring indices in `concord-net` and the preemption word in
//!   `concord-core`.
//! * [`MpmcQueue`] — an unbounded multi-producer multi-consumer queue
//!   for control-plane events off the request path (the admission
//!   gate's shed events). A `Mutex<VecDeque>` with an atomic length kept
//!   outside the lock: the dispatcher polls the queue every loop
//!   iteration, and the atomic lets the empty-poll case — by far the
//!   most frequent — return without touching the lock. The data plane
//!   (requests, responses, and the workers' completions and yields)
//!   never goes through this type; it rides the lock-free SPSC rings in
//!   `concord-net`.

use std::collections::VecDeque;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Pads and aligns a value to 128 bytes, the common prefetch-pair size
/// on x86-64 (two 64-byte lines) and the line size on apple-silicon.
#[derive(Clone, Copy, Default)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    pub const fn new(value: T) -> Self {
        Self { value }
    }

    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T: fmt::Debug> fmt::Debug for CachePadded<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CachePadded")
            .field("value", &self.value)
            .finish()
    }
}

impl<T> From<T> for CachePadded<T> {
    fn from(value: T) -> Self {
        Self::new(value)
    }
}

/// Unbounded FIFO queue, safe for any number of producers and
/// consumers. See the module docs for the performance contract.
#[derive(Debug, Default)]
pub struct MpmcQueue<T> {
    inner: Mutex<VecDeque<T>>,
    /// Kept in sync with `inner.len()` under the lock; read lock-free by
    /// the empty-poll fast path. May transiently disagree with a len
    /// observed after the lock is released — callers use it as a hint
    /// (`pop` re-checks under the lock), never as a capacity gate.
    len: AtomicUsize,
}

impl<T> MpmcQueue<T> {
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(VecDeque::new()),
            len: AtomicUsize::new(0),
        }
    }

    pub fn push(&self, value: T) {
        let mut q = self.inner.lock().expect("queue poisoned");
        q.push_back(value);
        self.len.store(q.len(), Ordering::Release);
    }

    pub fn pop(&self) -> Option<T> {
        if self.len.load(Ordering::Acquire) == 0 {
            return None;
        }
        let mut q = self.inner.lock().expect("queue poisoned");
        let value = q.pop_front();
        self.len.store(q.len(), Ordering::Release);
        value
    }

    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn cache_padded_is_big_and_aligned() {
        assert!(std::mem::align_of::<CachePadded<u64>>() >= 128);
        let p = CachePadded::new(7u64);
        assert_eq!(*p, 7);
        assert_eq!(p.into_inner(), 7);
    }

    #[test]
    fn queue_is_fifo() {
        let q = MpmcQueue::new();
        assert!(q.pop().is_none());
        for i in 0..10 {
            q.push(i);
        }
        assert_eq!(q.len(), 10);
        for i in 0..10 {
            assert_eq!(q.pop(), Some(i));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn queue_survives_concurrent_producers_and_consumers() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        const PRODUCERS: usize = 4;
        const PER_PRODUCER: usize = 10_000;
        const TOTAL: usize = PRODUCERS * PER_PRODUCER;
        let q = Arc::new(MpmcQueue::new());
        let taken = Arc::new(AtomicUsize::new(0));
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        q.push(p * PER_PRODUCER + i);
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                let taken = Arc::clone(&taken);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    // Exit on the *shared* count: an individual consumer may
                    // see any share of the items, including none.
                    while taken.load(Ordering::Acquire) < TOTAL {
                        match q.pop() {
                            Some(v) => {
                                got.push(v);
                                taken.fetch_add(1, Ordering::AcqRel);
                            }
                            None => std::thread::yield_now(),
                        }
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        let mut all: Vec<usize> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), TOTAL, "no loss, no duplication");
    }

    #[test]
    fn per_producer_order_is_preserved() {
        let q = Arc::new(MpmcQueue::new());
        let qp = Arc::clone(&q);
        let producer = std::thread::spawn(move || {
            for i in 0..1000u32 {
                qp.push(i);
            }
        });
        let mut last = None;
        let mut seen = 0;
        while seen < 1000 {
            if let Some(v) = q.pop() {
                if let Some(prev) = last {
                    assert!(v > prev, "FIFO violated: {v} after {prev}");
                }
                last = Some(v);
                seen += 1;
            }
        }
        producer.join().unwrap();
    }
}
