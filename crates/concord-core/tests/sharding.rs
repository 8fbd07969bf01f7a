//! Sharded `Runtime` end-to-end tests: N dispatcher+worker groups, the
//! cross-shard hand-off, and the per-shard and cross-shard conservation
//! laws.
//!
//! A handed-off request completes on the shard that took it, but its
//! answer leaves by the egress of the shard that ingested it: each
//! shard's ring carries exactly the answers to what its own ring
//! delivered.

use concord_core::{ConcordApp, RequestContext, Runtime, RuntimeConfig, SpinApp};
use concord_net::ring::{ring, Consumer};
use concord_net::{LoadGen, Request, Response};
use concord_workloads::dist::Dist;
use concord_workloads::mix::{ClassSpec, Mix};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn fixed_us_mix(us: f64) -> Mix {
    Mix::new(
        format!("Fixed({us})"),
        vec![ClassSpec::new("req", 1.0, Dist::fixed_us(us))],
    )
}

/// Polls every response ring until `expected` responses arrived (in any
/// shard) or the deadline passes; returns the total received.
fn drain_responses(rings: &mut [Consumer<Response>], expected: u64, timeout: Duration) -> u64 {
    let deadline = Instant::now() + timeout;
    let mut got = 0u64;
    while got < expected && Instant::now() < deadline {
        let mut any = false;
        for rx in rings.iter_mut() {
            while rx.pop().is_some() {
                got += 1;
                any = true;
            }
        }
        if !any {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    got
}

#[test]
fn balanced_shards_complete_everything_and_conserve() {
    const PER_SHARD: u64 = 300;
    let cfg = RuntimeConfig::builder()
        .small_test()
        .num_shards(2)
        .build()
        .expect("valid config");

    let (req_tx0, req_rx0) = ring::<Request>(8192);
    let (req_tx1, req_rx1) = ring::<Request>(8192);
    let (resp_tx0, resp_rx0) = ring::<Response>(8192);
    let (resp_tx1, resp_rx1) = ring::<Response>(8192);

    let mut rt = Runtime::start_shards(
        cfg,
        Arc::new(SpinApp::new()),
        vec![(req_rx0, resp_tx0), (req_rx1, resp_tx1)],
    );
    assert_eq!(rt.num_shards(), 2);

    let gen0 = LoadGen::start(req_tx0, fixed_us_mix(20.0), 10_000.0, PER_SHARD, 1);
    let gen1 = LoadGen::start(req_tx1, fixed_us_mix(20.0), 10_000.0, PER_SHARD, 2);
    let mut rings = [resp_rx0, resp_rx1];
    let got = drain_responses(&mut rings, 2 * PER_SHARD, Duration::from_secs(120));
    assert_eq!(gen0.join().dropped, 0);
    assert_eq!(gen1.join().dropped, 0);
    assert_eq!(got, 2 * PER_SHARD, "lost responses");

    rt.quiesce();
    let rollup = rt.rollup();
    assert_eq!(rollup.total_ingested(), 2 * PER_SHARD);
    assert!(rollup.conservation_holds(), "{rollup:?}");
    // Balanced load: each shard ingested its own stream.
    for (i, s) in rollup.per_shard.iter().enumerate() {
        assert_eq!(s.ingested, PER_SHARD, "shard {i} ingest");
    }
}

#[test]
fn skewed_load_hands_off_to_the_idle_shard_exactly_once() {
    // Everything lands on shard 0: one worker, 2 ms requests, far over
    // capacity. Idle shard 1 asks, and the saturated owner gives it
    // never-started work; every shard's books balance exactly and every
    // request is answered once, on shard 0's ring, whichever shard ran
    // it.
    const TOTAL: u64 = 150;
    let cfg = RuntimeConfig::builder()
        .small_test()
        .workers(1)
        .jbsq_depth(1)
        .num_shards(2)
        .build()
        .expect("valid config");

    let (req_tx0, req_rx0) = ring::<Request>(8192);
    let (req_tx1, req_rx1) = ring::<Request>(8192);
    let (resp_tx0, resp_rx0) = ring::<Response>(8192);
    let (resp_tx1, resp_rx1) = ring::<Response>(8192);

    let mut rt = Runtime::start_shards(
        cfg,
        Arc::new(SpinApp::new()),
        vec![(req_rx0, resp_tx0), (req_rx1, resp_tx1)],
    );

    let gen = LoadGen::start(req_tx0, fixed_us_mix(2_000.0), 5_000.0, TOTAL, 7);
    let _quiet = req_tx1; // shard 1's ingress stays open and empty
    let mut rings = [resp_rx0, resp_rx1];
    let mut ids = Vec::new();
    let mut per_ring = [0u64; 2];
    let mut pop_all = |rings: &mut [Consumer<Response>; 2], ids: &mut Vec<u64>| {
        for (ring, rx) in rings.iter_mut().enumerate() {
            while let Some(resp) = rx.pop() {
                ids.push(resp.id);
                per_ring[ring] += 1;
            }
        }
    };
    let deadline = Instant::now() + Duration::from_secs(120);
    while (ids.len() as u64) < TOTAL && Instant::now() < deadline {
        pop_all(&mut rings, &mut ids);
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(gen.join().dropped, 0);

    rt.quiesce();
    let rollup = rt.rollup();
    // Nothing more arrives after quiescence: no answer was sent twice.
    pop_all(&mut rings, &mut ids);
    assert_eq!(ids.len() as u64, TOTAL, "answers: {rollup:?}");
    // The owner's egress answered everything its ingress delivered, also
    // what shard 1 ran; shard 1's ring delivered nothing and answered
    // nothing.
    assert_eq!(per_ring, [TOTAL, 0], "answers per ring: {rollup:?}");
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len() as u64, TOTAL, "a request was answered twice");

    assert_eq!(rollup.per_shard[0].ingested, TOTAL);
    assert_eq!(rollup.per_shard[1].ingested, 0);
    // Shard 1 ran work it never ingested...
    assert!(rollup.per_shard[1].completed > 0, "{rollup:?}");
    // ...every hand-off given was taken, and each shard's books balance.
    let (s0, s1) = (&rollup.per_shard[0], &rollup.per_shard[1]);
    assert_eq!(s0.offloaded + s1.offloaded, s0.steals_in + s1.steals_in);
    for (i, s) in rollup.per_shard.iter().enumerate() {
        assert!(s.books_balance(), "shard {i} books: {s:?}");
        assert_eq!(s.reclaimed, 0);
        // JBSQ ≤ k holds per shard regardless of hand-offs.
        for (w, &qmax) in s.queue_max.iter().enumerate() {
            assert!(qmax <= 1, "shard {i} worker {w} queue_max {qmax} > k=1");
        }
    }
    assert!(rollup.conservation_holds(), "{rollup:?}");
}

#[test]
fn one_shard_never_hands_off() {
    // One shard has no link and runs the plain dispatcher loop: the
    // shard counters exist but never move, and its one rollup row obeys
    // the same conservation law as a sharded run's.
    let (req_tx, req_rx) = ring::<Request>(4096);
    let (resp_tx, resp_rx) = ring::<Response>(4096);
    let mut rt = Runtime::start(
        RuntimeConfig::small_test(),
        Arc::new(SpinApp::new()),
        req_rx,
        resp_tx,
    );
    let gen = LoadGen::start(req_tx, fixed_us_mix(10.0), 10_000.0, 200, 3);
    let got = drain_responses(&mut [resp_rx], 200, Duration::from_secs(60));
    assert_eq!(gen.join().dropped, 0);
    assert_eq!(got, 200);
    rt.quiesce();
    let rollup = rt.rollup();
    assert!(rollup.conservation_holds(), "{rollup:?}");
    assert_eq!(rollup.per_shard.len(), 1);
    let s = &rollup.per_shard[0];
    assert_eq!((s.ingested, s.offloaded, s.steals_in), (200, 0, 0));
}

#[test]
fn setup_runs_once_per_runtime_and_setup_worker_once_per_worker() {
    #[derive(Default)]
    struct SetupProbe {
        setups: AtomicU64,
        worker_setups: AtomicU64,
        /// Worker set-ups that ran before the runtime's `setup`.
        early: AtomicU64,
    }
    impl ConcordApp for SetupProbe {
        fn setup(&self) {
            self.setups.fetch_add(1, Ordering::SeqCst);
        }
        fn setup_worker(&self, _core: usize) {
            if self.setups.load(Ordering::SeqCst) == 0 {
                self.early.fetch_add(1, Ordering::SeqCst);
            }
            self.worker_setups.fetch_add(1, Ordering::SeqCst);
        }
        fn handle_request(&self, _req: &Request, _ctx: &mut RequestContext<'_, '_>) -> u64 {
            0
        }
    }
    let cfg = RuntimeConfig::builder()
        .small_test()
        .workers(2)
        .num_shards(2)
        .build()
        .expect("valid config");
    let (req_txs, req_rxs): (Vec<_>, Vec<_>) = (0..2).map(|_| ring::<Request>(8)).unzip();
    let (resp_txs, _resp_rxs): (Vec<_>, Vec<_>) = (0..2).map(|_| ring::<Response>(8)).unzip();
    let app = Arc::new(SetupProbe::default());
    let mut rt = Runtime::start_shards(cfg, app.clone(), req_rxs.into_iter().zip(resp_txs));
    // Quiescing joins every worker, so each has run its set-up.
    rt.quiesce();
    drop(req_txs);
    assert_eq!(app.setups.load(Ordering::SeqCst), 1, "once per runtime");
    assert_eq!(app.worker_setups.load(Ordering::SeqCst), 4, "2 shards x 2");
    assert_eq!(app.early.load(Ordering::SeqCst), 0, "setup runs first");
}
