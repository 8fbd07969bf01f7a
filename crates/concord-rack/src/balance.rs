//! Backend health, depth estimation, and the per-connection
//! power-of-two-choices pick.
//!
//! Each client connection hashes to two candidate backends at accept
//! time, and every request picks the less-loaded of the two (ties keep
//! the primary, preserving affinity). Load is an *estimate*, in the
//! paper's approximate-optimal spirit: the requests the backend's shards
//! held as of the last `/statz` scrape (its per-shard `depth`), plus the
//! requests this rack has forwarded since (which the sample cannot have
//! seen yet). A sample older than
//! [`BackendTable::stale_after`] is distrusted entirely and the local
//! in-flight count stands alone — the in-band fallback that also covers
//! backends running without an admin plane.
//!
//! Health is two independent bits, both cheap atomics:
//!
//! - `connected` — the proxy loop owns it: set when the backend's data
//!   connection is registered, cleared the moment it errors or hangs up.
//! - `drain_requested` — the admin plane owns it: an operator asked for
//!   this backend to stop taking *new* work while in-flight requests
//!   finish (`POST /backend/N/drain`).
//!
//! A backend accepts new work only when connected and not draining. The
//! prober reconnects dead backends in the background and hands the fresh
//! socket to the proxy through [`Backend::offer_stream`].

use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A backend's displayed lifecycle state (derived, never stored).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendState {
    /// Connected and accepting new connections' requests.
    Healthy,
    /// Connected, finishing in-flight work, refusing new work.
    Draining,
    /// No data-plane connection; the prober is trying to bring it back.
    Dead,
}

impl BackendState {
    /// Lower-case name for metrics and `/statz`.
    pub fn name(self) -> &'static str {
        match self {
            BackendState::Healthy => "healthy",
            BackendState::Draining => "draining",
            BackendState::Dead => "dead",
        }
    }
}

/// Where a backend lives: its data-plane address and, optionally, its
/// admin plane for `/statz` depth sampling.
#[derive(Clone, Debug)]
pub struct BackendSpec {
    /// Wire-protocol listener, e.g. `"127.0.0.1:7070"`.
    pub addr: String,
    /// Admin listener, e.g. `"127.0.0.1:9090"`; `None` disables depth
    /// sampling for this backend (the in-flight fallback still works).
    pub admin: Option<String>,
}

/// Sentinel for "never sampled" in [`Backend::sampled_at_ms`].
const NEVER: u64 = u64::MAX;

/// One backend's shared state: written by the proxy loop (connection
/// liveness, in-flight), the prober (depth samples, fresh sockets), and
/// the admin plane (drain requests); read by all of them.
pub struct Backend {
    spec: BackendSpec,
    connected: AtomicBool,
    drain_requested: AtomicBool,
    /// Requests forwarded and not yet answered, rack-side.
    inflight: AtomicU64,
    /// Requests the backend's shards held, summed, as of the last
    /// successful `/statz` scrape.
    sampled_depth: AtomicU64,
    /// `inflight` when that sample was recorded: the sample already
    /// counts those of them the backend held.
    inflight_at_sample: AtomicU64,
    /// When that scrape happened, in ms since the table's epoch
    /// ([`NEVER`] = no sample yet).
    sampled_at_ms: AtomicU64,
    /// Requests ever forwarded to this backend (monotonic, for /metrics).
    forwarded: AtomicU64,
    /// Times the proxy lost this backend's connection (monotonic).
    deaths: AtomicU64,
    /// A connected socket the prober prepared for the proxy to adopt.
    incoming: Mutex<Option<TcpStream>>,
}

impl Backend {
    fn new(spec: BackendSpec) -> Backend {
        Backend {
            spec,
            connected: AtomicBool::new(false),
            drain_requested: AtomicBool::new(false),
            inflight: AtomicU64::new(0),
            sampled_depth: AtomicU64::new(0),
            inflight_at_sample: AtomicU64::new(0),
            sampled_at_ms: AtomicU64::new(NEVER),
            forwarded: AtomicU64::new(0),
            deaths: AtomicU64::new(0),
            incoming: Mutex::new(None),
        }
    }

    /// The backend's data-plane address.
    pub fn addr(&self) -> &str {
        &self.spec.addr
    }

    /// The backend's admin address, when it has one.
    pub fn admin(&self) -> Option<&str> {
        self.spec.admin.as_deref()
    }

    /// Whether new work may be routed here.
    pub fn accepting(&self) -> bool {
        self.connected.load(Ordering::Acquire) && !self.drain_requested.load(Ordering::Acquire)
    }

    /// The displayed lifecycle state.
    pub fn state(&self) -> BackendState {
        if !self.connected.load(Ordering::Acquire) {
            BackendState::Dead
        } else if self.drain_requested.load(Ordering::Acquire) {
            BackendState::Draining
        } else {
            BackendState::Healthy
        }
    }

    /// Proxy: the data connection is up and registered.
    pub fn mark_connected(&self) {
        self.connected.store(true, Ordering::Release);
    }

    /// Proxy: the data connection died. Returns whether it was up (so
    /// the caller counts each death once).
    pub fn mark_dead(&self) -> bool {
        let was = self.connected.swap(false, Ordering::AcqRel);
        if was {
            self.deaths.fetch_add(1, Ordering::Relaxed);
        }
        was
    }

    /// Whether the proxy believes the data connection is up.
    pub fn is_connected(&self) -> bool {
        self.connected.load(Ordering::Acquire)
    }

    /// Admin: stop routing new work here (in-flight finishes).
    pub fn request_drain(&self) {
        self.drain_requested.store(true, Ordering::Release);
    }

    /// Admin: resume routing new work here.
    pub fn clear_drain(&self) {
        self.drain_requested.store(false, Ordering::Release);
    }

    /// Whether an operator asked this backend to drain.
    pub fn drain_requested(&self) -> bool {
        self.drain_requested.load(Ordering::Acquire)
    }

    /// Proxy: one more request is in flight here.
    pub fn note_forwarded(&self) {
        self.inflight.fetch_add(1, Ordering::AcqRel);
        self.forwarded.fetch_add(1, Ordering::Relaxed);
    }

    /// Proxy: one in-flight request settled (response, failover, or
    /// orphan). Saturating: a stale settle cannot underflow.
    pub fn settle_inflight(&self) {
        let _ = self
            .inflight
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| v.checked_sub(1));
    }

    /// Requests in flight rack-side.
    pub fn inflight(&self) -> u64 {
        self.inflight.load(Ordering::Acquire)
    }

    /// Requests ever forwarded here.
    pub fn forwarded(&self) -> u64 {
        self.forwarded.load(Ordering::Relaxed)
    }

    /// Times the proxy lost this backend's connection.
    pub fn deaths(&self) -> u64 {
        self.deaths.load(Ordering::Relaxed)
    }

    /// Prober: hands a freshly connected, non-blocking socket to the
    /// proxy loop (which adopts it via [`Backend::take_stream`] on its
    /// next tick). Dropped if one is already waiting.
    pub fn offer_stream(&self, stream: TcpStream) {
        let mut slot = self.incoming.lock().expect("incoming lock");
        if slot.is_none() {
            *slot = Some(stream);
        }
    }

    /// Proxy: adopts the prober's freshly connected socket, if any.
    pub fn take_stream(&self) -> Option<TcpStream> {
        self.incoming.lock().expect("incoming lock").take()
    }

    /// Whether a fresh socket is waiting for adoption (prober-side
    /// check so it does not reconnect twice).
    pub fn has_pending_stream(&self) -> bool {
        self.incoming.lock().expect("incoming lock").is_some()
    }
}

/// A connection's two hashed backend candidates, fixed at accept time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RackRoute {
    /// The affinity backend: ties and healthy-state ambiguity keep it.
    pub primary: usize,
    /// The alternative, distinct from `primary` when more than one
    /// backend exists.
    pub alt: usize,
}

/// The rack's view of its backends.
pub struct BackendTable {
    backends: Vec<Backend>,
    epoch: Instant,
    stale_after: Duration,
}

impl BackendTable {
    /// A table over `specs`, distrusting `/statz` samples older than
    /// `stale_after`.
    pub fn new(specs: Vec<BackendSpec>, stale_after: Duration) -> BackendTable {
        BackendTable {
            backends: specs.into_iter().map(Backend::new).collect(),
            epoch: Instant::now(),
            stale_after,
        }
    }

    /// Number of configured backends.
    pub fn len(&self) -> usize {
        self.backends.len()
    }

    /// Whether the table has no backends (never true for a validated
    /// [`crate::RackConfig`]).
    pub fn is_empty(&self) -> bool {
        self.backends.is_empty()
    }

    /// The backend at `i`.
    pub fn get(&self, i: usize) -> &Backend {
        &self.backends[i]
    }

    /// Iterates the backends in index order.
    pub fn iter(&self) -> impl Iterator<Item = &Backend> {
        self.backends.iter()
    }

    /// How stale a `/statz` sample may be before the depth estimator
    /// ignores it.
    pub fn stale_after(&self) -> Duration {
        self.stale_after
    }

    /// Milliseconds since the table's epoch (the sample clock).
    pub fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Prober: records a fresh `/statz` depth sample for backend `i`.
    pub fn record_sample(&self, i: usize, depth: u64) {
        let b = &self.backends[i];
        b.sampled_depth.store(depth, Ordering::Relaxed);
        b.inflight_at_sample
            .store(b.inflight.load(Ordering::Acquire), Ordering::Relaxed);
        b.sampled_at_ms.store(self.now_ms(), Ordering::Release);
    }

    /// The backend's estimated queue depth: the sampled `/statz` depth
    /// plus the requests forwarded since it was recorded, which it
    /// cannot have seen (the ones in flight at the sample are in it
    /// already); just the in-flight count when the sample is stale or
    /// was never taken (the in-band fallback).
    pub fn estimated_depth(&self, i: usize) -> u64 {
        let b = &self.backends[i];
        let inflight = b.inflight.load(Ordering::Acquire);
        let at = b.sampled_at_ms.load(Ordering::Acquire);
        if at == NEVER {
            return inflight;
        }
        let age_ms = self.now_ms().saturating_sub(at);
        if age_ms > self.stale_after.as_millis() as u64 {
            return inflight;
        }
        let since = inflight.saturating_sub(b.inflight_at_sample.load(Ordering::Relaxed));
        b.sampled_depth
            .load(Ordering::Relaxed)
            .saturating_add(since)
    }

    /// Two hashed candidates for a new connection, from any 64-bit
    /// connection identity (accept counter, slot/gen — anything stable
    /// for the connection's life).
    pub fn route_for(&self, seed: u64) -> RackRoute {
        let n = self.backends.len().max(1);
        let h = seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let primary = ((h >> 32) as usize) % n;
        let alt = if n > 1 {
            (primary + 1 + (h as u32 as usize) % (n - 1)) % n
        } else {
            primary
        };
        RackRoute { primary, alt }
    }

    /// Picks the backend for one request: the less-loaded accepting
    /// candidate (ties keep the primary). When neither candidate
    /// accepts, any accepting backend with the least estimated depth
    /// keeps the rack serving; `None` means the request must be
    /// rejected (counted, answered RETRY).
    pub fn pick(&self, route: RackRoute) -> Option<usize> {
        let p_ok = self.backends[route.primary].accepting();
        let a_ok = route.alt != route.primary && self.backends[route.alt].accepting();
        match (p_ok, a_ok) {
            (true, true) => {
                if self.estimated_depth(route.alt) < self.estimated_depth(route.primary) {
                    Some(route.alt)
                } else {
                    Some(route.primary)
                }
            }
            (true, false) => Some(route.primary),
            (false, true) => Some(route.alt),
            (false, false) => self
                .backends
                .iter()
                .enumerate()
                .filter(|(_, b)| b.accepting())
                .min_by_key(|(i, _)| self.estimated_depth(*i))
                .map(|(i, _)| i),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(n: usize) -> BackendTable {
        let specs = (0..n)
            .map(|i| BackendSpec {
                addr: format!("127.0.0.1:{}", 7000 + i),
                admin: None,
            })
            .collect();
        BackendTable::new(specs, Duration::from_millis(500))
    }

    #[test]
    fn route_candidates_are_distinct_and_stable() {
        let t = table(4);
        for seed in 0..64 {
            let r = t.route_for(seed);
            assert_ne!(r.primary, r.alt, "seed {seed}");
            assert_eq!(r, t.route_for(seed), "same seed, same route");
            assert!(r.primary < 4 && r.alt < 4);
        }
        let single = table(1).route_for(9);
        assert_eq!((single.primary, single.alt), (0, 0));
    }

    #[test]
    fn pick_prefers_primary_on_ties_and_less_loaded_otherwise() {
        let t = table(2);
        t.get(0).mark_connected();
        t.get(1).mark_connected();
        let route = RackRoute { primary: 0, alt: 1 };
        assert_eq!(t.pick(route), Some(0), "tie keeps the primary");
        // Load the primary: the alternative wins.
        for _ in 0..3 {
            t.get(0).note_forwarded();
        }
        assert_eq!(t.pick(route), Some(1));
        // Load the alternative past it: back to the primary.
        for _ in 0..5 {
            t.get(1).note_forwarded();
        }
        assert_eq!(t.pick(route), Some(0));
    }

    #[test]
    fn single_healthy_backend_takes_everything() {
        let t = table(3);
        t.get(2).mark_connected(); // only #2 is up
        for seed in 0..32 {
            assert_eq!(t.pick(t.route_for(seed)), Some(2), "seed {seed}");
        }
    }

    #[test]
    fn all_draining_backends_reject() {
        let t = table(2);
        t.get(0).mark_connected();
        t.get(1).mark_connected();
        t.get(0).request_drain();
        t.get(1).request_drain();
        assert_eq!(t.get(0).state(), BackendState::Draining);
        assert_eq!(t.pick(RackRoute { primary: 0, alt: 1 }), None);
        // Undrain one: the rack serves again.
        t.get(1).clear_drain();
        assert_eq!(t.pick(RackRoute { primary: 0, alt: 1 }), Some(1));
    }

    #[test]
    fn affinity_survives_a_depth_spike_on_the_primary() {
        // A depth spike on the primary moves traffic to the alternative
        // — never to an unrelated backend, even an idle one.
        let t = table(4);
        for i in 0..4 {
            t.get(i).mark_connected();
        }
        let route = RackRoute { primary: 1, alt: 3 };
        t.record_sample(1, 10_000); // primary spikes
        for _ in 0..64 {
            let picked = t.pick(route).expect("accepting backends exist");
            assert!(
                picked == route.primary || picked == route.alt,
                "picked unrelated backend {picked}"
            );
        }
        assert_eq!(t.pick(route), Some(3), "spike moves load to the alt");
    }

    #[test]
    fn stale_statz_samples_are_distrusted() {
        let t = BackendTable::new(
            vec![
                BackendSpec {
                    addr: "a".into(),
                    admin: None,
                },
                BackendSpec {
                    addr: "b".into(),
                    admin: None,
                },
            ],
            Duration::from_millis(0), // every sample is instantly stale
        );
        t.get(0).mark_connected();
        t.get(1).mark_connected();
        t.record_sample(0, 1_000_000);
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(
            t.estimated_depth(0),
            0,
            "stale sample must not poison the estimate"
        );
        // With the sample ignored, in-flight decides.
        t.get(1).note_forwarded();
        assert_eq!(t.pick(RackRoute { primary: 1, alt: 0 }), Some(0));
    }

    #[test]
    fn fresh_samples_add_to_inflight() {
        let t = table(2);
        t.get(0).mark_connected();
        t.get(1).mark_connected();
        t.record_sample(0, 7);
        t.get(0).note_forwarded();
        assert_eq!(t.estimated_depth(0), 8, "sampled depth + in-flight");
        t.get(0).settle_inflight();
        assert_eq!(t.estimated_depth(0), 7);
        // Saturating settle.
        t.get(0).settle_inflight();
        t.get(0).settle_inflight();
        assert_eq!(t.estimated_depth(0), 7);
    }

    #[test]
    fn a_sample_counts_the_racks_own_requests_once() {
        let t = table(2);
        t.get(0).mark_connected();
        for _ in 0..5 {
            t.get(0).note_forwarded();
        }
        // The backend holds those five plus two from elsewhere.
        t.record_sample(0, 7);
        assert_eq!(t.estimated_depth(0), 7, "the five are in the sample");
        t.get(0).note_forwarded();
        assert_eq!(t.estimated_depth(0), 8, "one forwarded since");
        for _ in 0..6 {
            t.get(0).settle_inflight();
        }
        assert_eq!(t.estimated_depth(0), 7, "never below the sample");
    }

    #[test]
    fn death_and_reconnect_bookkeeping() {
        let t = table(1);
        let b = t.get(0);
        assert_eq!(b.state(), BackendState::Dead);
        b.mark_connected();
        assert!(b.accepting());
        assert!(b.mark_dead(), "first death counted");
        assert!(!b.mark_dead(), "already dead: not recounted");
        assert_eq!(b.deaths(), 1);
        let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let s = std::net::TcpStream::connect(l.local_addr().expect("addr")).expect("conn");
        b.offer_stream(s);
        assert!(b.has_pending_stream());
        assert!(b.take_stream().is_some());
        assert!(b.take_stream().is_none());
    }
}
