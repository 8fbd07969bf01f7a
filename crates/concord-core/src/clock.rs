//! Time source abstraction: monotonic wall time for production, a
//! test-driven [`VirtualClock`] for deterministic runtime tests.
//!
//! Every time-dependent decision in the runtime — quantum deadlines, the
//! dispatcher's self-preemption slice, telemetry stamps — goes through a
//! [`Clock`] handed in via [`RuntimeConfig`](crate::RuntimeConfig). The
//! default is monotonic wall time (an `Instant` epoch read on demand).
//! Tests install a [`VirtualClock`] instead: an atomic nanosecond counter
//! that only moves when the test (or a test application) advances it, so
//! quantum expiry becomes a deterministic function of the schedule rather
//! than of host timing.
//!
//! `Clock` is a two-variant enum rather than a trait object: the worker
//! hot path reads it once per slice and per deadline check, and a
//! branch on a local enum is cheaper (and simpler to `Clone` across
//! threads) than dynamic dispatch through an `Arc<dyn …>`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A monotonic nanosecond time source shared by a runtime's threads.
///
/// Readings are nanoseconds since the clock's epoch (construction time
/// for [`Clock::monotonic`], zero for a fresh [`VirtualClock`]).
#[derive(Clone, Debug)]
pub struct Clock(Source);

#[derive(Clone, Debug)]
enum Source {
    /// Wall time relative to an epoch captured at construction.
    Monotonic(Instant),
    /// Test-controlled time: advances only when told to.
    Virtual(Arc<VirtualClock>),
}

impl Clock {
    /// A wall-clock time source with its epoch set to "now".
    pub fn monotonic() -> Self {
        Self(Source::Monotonic(Instant::now()))
    }

    /// A virtual time source starting at 0 ns, plus the handle that
    /// advances it. Clones of the returned `Clock` share the same
    /// virtual timeline.
    pub fn manual() -> (Self, Arc<VirtualClock>) {
        let v = Arc::new(VirtualClock::new());
        (Self::from_virtual(v.clone()), v)
    }

    /// Wraps an existing [`VirtualClock`] as a `Clock`.
    pub fn from_virtual(v: Arc<VirtualClock>) -> Self {
        Self(Source::Virtual(v))
    }

    /// Nanoseconds since this clock's epoch.
    pub fn now_ns(&self) -> u64 {
        match &self.0 {
            Source::Monotonic(epoch) => epoch.elapsed().as_nanos() as u64,
            Source::Virtual(v) => v.now_ns(),
        }
    }

    /// The wall-clock instant of reading `ns`: the epoch plus `ns`, with
    /// no clock read, so a stamp already taken converts to the `Instant`
    /// a [`Response`](concord_net::Response) carries for free. Virtual
    /// time has no wall-clock image; a virtual clock answers with the
    /// current instant.
    pub fn instant_at(&self, ns: u64) -> Instant {
        match &self.0 {
            Source::Monotonic(epoch) => *epoch + Duration::from_nanos(ns),
            Source::Virtual(_) => Instant::now(),
        }
    }

    /// True if this clock only moves when a test advances it.
    pub fn is_virtual(&self) -> bool {
        matches!(self.0, Source::Virtual(_))
    }
}

impl Default for Clock {
    fn default() -> Self {
        Self::monotonic()
    }
}

/// Deterministic time for tests: an atomic nanosecond counter that moves
/// only via [`VirtualClock::advance`] / [`VirtualClock::advance_to_ns`].
///
/// Any thread may advance it (the conformance harness's virtual spin
/// application advances it from inside request handlers to model service
/// time), and all [`Clock`] clones observe the same timeline.
#[derive(Debug, Default)]
pub struct VirtualClock {
    now_ns: AtomicU64,
}

impl VirtualClock {
    /// A virtual clock at 0 ns.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time, nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.now_ns.load(Ordering::Acquire)
    }

    /// Advances virtual time by `d`, returning the new reading.
    pub fn advance(&self, d: Duration) -> u64 {
        self.advance_ns(d.as_nanos().min(u64::MAX as u128) as u64)
    }

    /// Advances virtual time by `ns` nanoseconds, returning the new
    /// reading.
    pub fn advance_ns(&self, ns: u64) -> u64 {
        self.now_ns.fetch_add(ns, Ordering::AcqRel) + ns
    }

    /// Moves virtual time forward to at least `ns` (no-op if time is
    /// already past it), returning the new reading.
    pub fn advance_to_ns(&self, ns: u64) -> u64 {
        self.now_ns.fetch_max(ns, Ordering::AcqRel).max(ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_moves_forward() {
        let c = Clock::monotonic();
        assert!(!c.is_virtual());
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn instant_at_inverts_now_ns() {
        let c = Clock::monotonic();
        let before = Instant::now();
        let ns = c.now_ns();
        let after = Instant::now();
        let at = c.instant_at(ns);
        assert!(before <= at && at <= after, "epoch + reading = instant");
        assert_eq!(
            c.instant_at(ns + 1_500) - at,
            Duration::from_nanos(1_500),
            "no clock read: a pure function of the reading"
        );
    }

    #[test]
    fn virtual_clock_only_moves_when_advanced() {
        let (c, v) = Clock::manual();
        assert!(c.is_virtual());
        assert_eq!(c.now_ns(), 0);
        assert_eq!(c.now_ns(), 0, "frozen until advanced");
        assert_eq!(v.advance(Duration::from_micros(5)), 5_000);
        assert_eq!(c.now_ns(), 5_000);
    }

    #[test]
    fn clones_share_the_timeline() {
        let (c, v) = Clock::manual();
        let c2 = c.clone();
        v.advance_ns(42);
        assert_eq!(c.now_ns(), 42);
        assert_eq!(c2.now_ns(), 42);
    }

    #[test]
    fn advance_to_is_monotone() {
        let (c, v) = Clock::manual();
        assert_eq!(v.advance_to_ns(100), 100);
        assert_eq!(v.advance_to_ns(50), 100, "never moves backward");
        assert_eq!(c.now_ns(), 100);
    }
}
