//! Open-loop load generation and client-side measurement.
//!
//! [`LoadGen`] plays a deterministic `concord-workloads` trace against the
//! server's RX ring in real time — open loop, so arrivals never slow down
//! when the server queues up (§5.1). A full RX ring counts as a drop, just
//! as a saturated NIC queue would. [`Collector`] drains the TX ring and
//! produces client-side latency and slowdown distributions, adding a
//! modeled RTT to every sample.
//!
//! Both take one ring or several: a sharded server has one RX and one TX
//! ring per shard, so the generator deals arrivals round-robin over its
//! producers and the collector drains every consumer.
//!
//! Every load client shares two pieces: [`pace_until`], the open-loop
//! schedule's wait, and [`Tally`], the latency/slowdown/per-class record
//! a client keeps. The TCP client (`concord_server::client`) uses both,
//! so its numbers and the in-process ones are the same measurement.

use crate::packet::{Request, Response};
use crate::ring::{Consumer, Producer};
use crate::rtt::RttModel;
use concord_metrics::{Histogram, SlowdownTracker};
use concord_workloads::arrival::{ArrivalProcess, Poisson};
use concord_workloads::{seeded_rng, TraceGenerator, Workload};
use std::collections::BTreeMap;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Outcome of a completed load-generation run.
#[derive(Clone, Copy, Debug)]
pub struct LoadGenReport {
    /// Requests successfully enqueued on the RX ring.
    pub sent: u64,
    /// Requests dropped because the RX ring was full.
    pub dropped: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

/// Waits until `due`: a coarse sleep while more than 200 µs remain, then
/// yields the time slice until it passes. This host may be single-core,
/// so pure spinning would starve the server under test.
pub fn pace_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(200) {
            std::thread::sleep(left - Duration::from_micros(100));
        } else {
            std::thread::yield_now();
        }
    }
}

/// One request class's client-side tally.
#[derive(Clone, Debug, Default)]
pub struct ClassTally {
    /// Requests sent in this class (clients that see their sends).
    pub sent: u64,
    /// Completed answers received.
    pub completed: u64,
    /// RETRY (admission-rejected) answers received.
    pub rejected: u64,
    /// Slowdown of this class's completions.
    pub slowdown: SlowdownTracker,
}

/// What a load client measures: the end-to-end latency and slowdown
/// distributions and per-class tallies.
#[derive(Clone, Debug)]
pub struct Tally {
    /// End-to-end latency, nanoseconds: 3 significant figures up to
    /// 2^42 ns (≈73 minutes).
    pub latency_ns: Histogram,
    /// Latency over nominal service time.
    pub slowdown: SlowdownTracker,
    /// Per-class tallies, keyed by class id.
    pub by_class: BTreeMap<u16, ClassTally>,
}

impl Default for Tally {
    fn default() -> Self {
        Self {
            latency_ns: Histogram::with_max(3, 1 << 42),
            slowdown: SlowdownTracker::new(),
            by_class: BTreeMap::new(),
        }
    }
}

impl Tally {
    /// Records one completion of `class`, nominally `service_ns` long,
    /// answered `latency_ns` after it was sent.
    pub fn completed(&mut self, class: u16, service_ns: u64, latency_ns: u64) {
        self.latency_ns.record(latency_ns);
        self.slowdown.record(service_ns, latency_ns);
        let c = self.by_class.entry(class).or_default();
        c.completed += 1;
        c.slowdown.record(service_ns, latency_ns);
    }

    /// Records one RETRY answer of `class`.
    pub fn rejected(&mut self, class: u16) {
        self.by_class.entry(class).or_default().rejected += 1;
    }
}

/// An open-loop load generator running on its own thread.
pub struct LoadGen {
    handle: JoinHandle<LoadGenReport>,
}

/// A single ring is the one-shard case of the ring list [`LoadGen`] deals
/// over.
impl<T: Send> From<Producer<T>> for Vec<Producer<T>> {
    fn from(tx: Producer<T>) -> Self {
        vec![tx]
    }
}

/// A single ring is the one-shard case of the ring list [`Collector`]
/// drains.
impl<T: Send> From<Consumer<T>> for Vec<Consumer<T>> {
    fn from(rx: Consumer<T>) -> Self {
        vec![rx]
    }
}

impl LoadGen {
    /// Starts generating `count` requests at `rate_rps` (Poisson gaps)
    /// into `tx` — one ring, or several dealt round-robin. The trace is
    /// fully determined by `seed`.
    pub fn start<W>(
        tx: impl Into<Vec<Producer<Request>>>,
        workload: W,
        rate_rps: f64,
        count: u64,
        seed: u64,
    ) -> Self
    where
        W: Workload + Send + 'static,
    {
        Self::start_with(tx, Poisson::with_rate(rate_rps), workload, count, seed)
    }

    /// Starts generating `count` requests with an arbitrary arrival
    /// process (Poisson, deterministic, MMPP bursts, ...). Arrival `i`
    /// goes to ring `i % rings`; a full ring drops it.
    pub fn start_with<A, W>(
        tx: impl Into<Vec<Producer<Request>>>,
        arrivals: A,
        workload: W,
        count: u64,
        seed: u64,
    ) -> Self
    where
        A: ArrivalProcess + Send + 'static,
        W: Workload + Send + 'static,
    {
        let mut tx = tx.into();
        assert!(!tx.is_empty(), "load generator needs a ring");
        let handle = std::thread::Builder::new()
            .name("concord-loadgen".into())
            .spawn(move || {
                let mut gen = TraceGenerator::new(arrivals, workload, seed);
                let start = Instant::now();
                let mut sent = 0u64;
                let mut dropped = 0u64;
                for i in 0..count {
                    let a = gen.next_arrival();
                    pace_until(start + Duration::from_nanos(a.time_ns));
                    let req = Request {
                        id: a.id,
                        class: a.spec.class,
                        service_ns: a.spec.service_ns,
                        sent_at: Instant::now(),
                    };
                    // Open loop: a full ring is a drop, not back-pressure.
                    let lane = (i % tx.len() as u64) as usize;
                    match tx[lane].push(req) {
                        Ok(()) => sent += 1,
                        Err(_) => dropped += 1,
                    }
                }
                LoadGenReport {
                    sent,
                    dropped,
                    elapsed: start.elapsed(),
                }
            })
            .expect("spawn load generator");
        Self { handle }
    }

    /// Waits for the run to finish.
    pub fn join(self) -> LoadGenReport {
        self.handle.join().expect("load generator thread")
    }
}

/// Client-side response collector.
pub struct Collector {
    rx: Vec<Consumer<Response>>,
    /// Responses recorded from each ring of `rx`.
    per_ring: Vec<u64>,
    rtt: RttModel,
    rng: concord_rng::SmallRng,
    tally: Tally,
}

impl Collector {
    /// Creates a collector reading from `rx` — one ring, or several — and
    /// charging `rtt` per sample.
    pub fn new(rx: impl Into<Vec<Consumer<Response>>>, rtt: RttModel, seed: u64) -> Self {
        let rx: Vec<_> = rx.into();
        Self {
            per_ring: vec![0; rx.len()],
            rx,
            rtt,
            rng: seeded_rng(seed),
            tally: Tally::default(),
        }
    }

    /// Drains currently available responses from every ring; returns how
    /// many were recorded.
    pub fn poll(&mut self) -> usize {
        let mut n = 0;
        for (ring, rx) in self.rx.iter_mut().enumerate() {
            while let Some(resp) = rx.pop() {
                let e2e = resp.sojourn_ns() + self.rtt.sample(&mut self.rng);
                self.tally.completed(resp.class, resp.service_ns, e2e);
                self.per_ring[ring] += 1;
                n += 1;
            }
        }
        n
    }

    /// Polls until `n` total responses have been recorded or `timeout`
    /// elapses. Returns true if the target was reached.
    ///
    /// Idle polling backs off exponentially — spin, then yield, then park
    /// in escalating sleeps capped at [`Collector::MAX_PARK`] — so a
    /// collector waiting out a quiet ring burns negligible CPU instead of
    /// spinning a core, while a response burst still wakes it within tens
    /// of microseconds (far below the millisecond-scale latencies the
    /// percentiles resolve). Any progress resets the backoff.
    pub fn collect(&mut self, n: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut idle: u32 = 0;
        while self.received() < n {
            if self.poll() == 0 {
                if Instant::now() > deadline {
                    return false;
                }
                Self::backoff(idle);
                idle = idle.saturating_add(1);
            } else {
                idle = 0;
            }
        }
        true
    }

    /// Longest single park between idle polls (bounds wakeup latency).
    pub const MAX_PARK: Duration = Duration::from_micros(50);

    /// One step of the idle backoff ladder: busy-spin for the first 64
    /// idle polls, yield the time slice for the next 64, then park in
    /// sleeps that double from 1 µs up to [`Collector::MAX_PARK`].
    fn backoff(idle: u32) {
        if idle < 64 {
            std::hint::spin_loop();
        } else if idle < 128 {
            std::thread::yield_now();
        } else {
            let exp = (idle - 128).min(6); // 1µs << 6 = 64µs, capped below
            let park = Duration::from_micros(1 << exp).min(Self::MAX_PARK);
            std::thread::sleep(park);
        }
    }

    /// Responses recorded so far: every poll records one completion, and
    /// a latency past the histogram's range is clamped but still counted.
    pub fn received(&self) -> u64 {
        self.tally.latency_ns.len()
    }

    /// Responses recorded so far from each ring, in the order the rings
    /// were given.
    pub fn received_per_ring(&self) -> &[u64] {
        &self.per_ring
    }

    /// Everything recorded so far: client-observed end-to-end latency,
    /// slowdown, and per-class rows.
    pub fn tally(&self) -> &Tally {
        &self.tally
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::ring;
    use concord_workloads::mix;

    /// An in-thread echo server: pops requests, replies immediately.
    fn echo_server(
        mut rx: Consumer<Request>,
        mut tx: Producer<Response>,
        expect: u64,
    ) -> JoinHandle<u64> {
        std::thread::spawn(move || {
            let mut served = 0;
            while served < expect {
                if let Some(req) = rx.pop() {
                    let resp = Response::completed(&req);
                    let mut r = resp;
                    while let Err(back) = tx.push(r) {
                        r = back;
                        std::thread::yield_now();
                    }
                    served += 1;
                } else {
                    std::thread::yield_now();
                }
            }
            served
        })
    }

    #[test]
    fn end_to_end_flow_delivers_everything() {
        let (req_tx, req_rx) = ring::<Request>(1024);
        let (resp_tx, resp_rx) = ring::<Response>(1024);
        let server = echo_server(req_rx, resp_tx, 2_000);
        let gen = LoadGen::start(req_tx, mix::fixed_1us(), 200_000.0, 2_000, 7);
        let mut collector = Collector::new(resp_rx, RttModel::zero(), 7);
        assert!(collector.collect(2_000, Duration::from_secs(20)));
        let report = gen.join();
        assert_eq!(server.join().expect("server"), 2_000);
        assert_eq!(report.sent, 2_000);
        assert_eq!(report.dropped, 0);
        assert_eq!(collector.received(), 2_000);
    }

    #[test]
    fn per_class_trackers_are_populated() {
        let (req_tx, req_rx) = ring::<Request>(1024);
        let (resp_tx, resp_rx) = ring::<Response>(1024);
        let server = echo_server(req_rx, resp_tx, 1_000);
        let gen = LoadGen::start(req_tx, mix::bimodal_50_1_50_100(), 100_000.0, 1_000, 11);
        let mut c = Collector::new(resp_rx, RttModel::zero(), 11);
        assert!(c.collect(1_000, Duration::from_secs(30)));
        gen.join();
        server.join().expect("server");
        let by_class = &c.tally().by_class;
        assert_eq!(by_class.len(), 2, "two classes in the bimodal");
        let total: u64 = by_class.values().map(|t| t.slowdown.len()).sum();
        assert_eq!(total, 1_000);
        assert!(by_class.values().all(|t| t.completed == t.slowdown.len()));
    }

    #[test]
    fn bursty_arrivals_also_flow() {
        use concord_workloads::arrival::Mmpp2;
        let (req_tx, req_rx) = ring::<Request>(2048);
        let (resp_tx, resp_rx) = ring::<Response>(2048);
        let server = echo_server(req_rx, resp_tx, 500);
        let gen = LoadGen::start_with(
            req_tx,
            Mmpp2::new(100_000.0, 1.8, 500.0),
            mix::fixed_1us(),
            500,
            3,
        );
        let mut c = Collector::new(resp_rx, RttModel::zero(), 3);
        assert!(c.collect(500, Duration::from_secs(30)));
        let report = gen.join();
        server.join().expect("server");
        assert_eq!(report.sent, 500);
    }

    #[test]
    fn rtt_is_added_to_latency() {
        let (req_tx, req_rx) = ring::<Request>(64);
        let (resp_tx, resp_rx) = ring::<Response>(64);
        let server = echo_server(req_rx, resp_tx, 100);
        let gen = LoadGen::start(req_tx, mix::fixed_1us(), 50_000.0, 100, 3);
        let mut c = Collector::new(
            resp_rx,
            RttModel {
                base_ns: 1_000_000,
                jitter_ns: 0,
            },
            3,
        );
        assert!(c.collect(100, Duration::from_secs(20)));
        gen.join();
        server.join().expect("server");
        // Every sample includes the 1 ms modeled RTT.
        assert!(c.tally().latency_ns.min() >= 1_000_000);
    }

    #[test]
    fn full_ring_counts_drops() {
        // No server: a tiny ring fills and the rest are dropped.
        let (req_tx, req_rx) = ring::<Request>(8);
        let gen = LoadGen::start(req_tx, mix::fixed_1us(), 1_000_000.0, 100, 5);
        let report = gen.join();
        assert_eq!(report.sent + report.dropped, 100);
        assert_eq!(report.sent, 8);
        drop(req_rx);
    }

    #[test]
    fn idle_collect_backs_off_and_still_catches_late_responses() {
        let (mut resp_tx, resp_rx) = ring::<Response>(64);
        let mut c = Collector::new(resp_rx, RttModel::zero(), 1);
        // Empty ring: collect gives up at the deadline, not before.
        assert!(!c.collect(1, Duration::from_millis(5)));
        // A response arriving while the collector is deep in its parked
        // backoff is still observed promptly (park is capped at 50 µs).
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            let req = Request {
                id: 1,
                class: 0,
                service_ns: 1,
                sent_at: Instant::now(),
            };
            resp_tx.push(Response::completed(&req)).expect("ring space");
        });
        assert!(c.collect(1, Duration::from_secs(5)));
        h.join().expect("producer thread");
        assert_eq!(c.received(), 1);
    }

    #[test]
    fn a_latency_past_the_histogram_still_counts_as_received() {
        let (mut resp_tx, resp_rx) = ring::<Response>(4);
        let rtt = RttModel {
            base_ns: 1 << 43,
            jitter_ns: 0,
        };
        let mut c = Collector::new(resp_rx, rtt, 1);
        let req = Request {
            id: 1,
            class: 0,
            service_ns: 1,
            sent_at: Instant::now(),
        };
        resp_tx.push(Response::completed(&req)).expect("ring space");
        assert_eq!(c.poll(), 1);
        assert_eq!(c.received(), 1);
        assert_eq!(c.tally().latency_ns.clamped(), 1);
    }

    #[test]
    fn arrivals_are_dealt_round_robin_and_every_ring_is_drained() {
        let (tx0, rx0) = ring::<Request>(1024);
        let (tx1, rx1) = ring::<Request>(1024);
        let (resp_tx0, resp_rx0) = ring::<Response>(1024);
        let (resp_tx1, resp_rx1) = ring::<Response>(1024);
        let server0 = echo_server(rx0, resp_tx0, 500);
        let server1 = echo_server(rx1, resp_tx1, 500);
        let gen = LoadGen::start(vec![tx0, tx1], mix::fixed_1us(), 200_000.0, 1_000, 13);
        let mut c = Collector::new(vec![resp_rx0, resp_rx1], RttModel::zero(), 13);
        assert!(c.collect(1_000, Duration::from_secs(20)));
        let report = gen.join();
        assert_eq!((report.sent, report.dropped), (1_000, 0));
        assert_eq!(server0.join().expect("server 0"), 500);
        assert_eq!(server1.join().expect("server 1"), 500);
        assert_eq!(c.received(), 1_000);
        assert_eq!(c.received_per_ring(), [500, 500], "each ring's own answers");
    }

    #[test]
    fn pacing_is_roughly_open_loop() {
        // 1k requests at 100k rps should take ≈10 ms of wall clock even
        // with no consumer (drops don't slow the generator down).
        let (req_tx, req_rx) = ring::<Request>(16);
        let start = Instant::now();
        let gen = LoadGen::start(req_tx, mix::fixed_1us(), 100_000.0, 1_000, 9);
        let report = gen.join();
        let elapsed = start.elapsed();
        assert!(elapsed >= Duration::from_millis(8), "elapsed {elapsed:?}");
        assert!(elapsed < Duration::from_millis(500), "elapsed {elapsed:?}");
        assert_eq!(report.sent + report.dropped, 1_000);
        drop(req_rx);
    }
}
