//! ShardedRuntime end-to-end tests: N dispatcher+worker groups, the
//! cross-shard hand-off, and the per-shard and cross-shard conservation
//! laws.
//!
//! A handed-off request completes (and answers) on the thief shard, so
//! per-ring response counts are not predictable — the tests poll every
//! shard's egress ring and assert over the totals, exactly the way the
//! cross-shard oracle does.

use concord_core::{Runtime, RuntimeConfig, ShardedRuntime, SpinApp};
use concord_net::ring::{ring, Consumer};
use concord_net::{LoadGen, Request, Response};
use concord_workloads::dist::Dist;
use concord_workloads::mix::{ClassSpec, Mix};
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

    let srt = ShardedRuntime::start(
        cfg,
        Arc::new(SpinApp::new()),
        vec![req_rx0, req_rx1],
        vec![resp_tx0, resp_tx1],
    );
    assert_eq!(srt.num_shards(), 2);

    let gen0 = LoadGen::start(req_tx0, fixed_us_mix(20.0), 10_000.0, PER_SHARD, 1);
    let gen1 = LoadGen::start(req_tx1, fixed_us_mix(20.0), 10_000.0, PER_SHARD, 2);
    let mut rings = [resp_rx0, resp_rx1];
    let got = drain_responses(&mut rings, 2 * PER_SHARD, Duration::from_secs(120));
    assert_eq!(gen0.join().dropped, 0);
    assert_eq!(gen1.join().dropped, 0);
    assert_eq!(got, 2 * PER_SHARD, "lost responses");

    let rollup = srt.shutdown();
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
    // request is answered once, by whichever shard ran it.
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

    let srt = ShardedRuntime::start(
        cfg,
        Arc::new(SpinApp::new()),
        vec![req_rx0, req_rx1],
        vec![resp_tx0, resp_tx1],
    );

    let gen = LoadGen::start(req_tx0, fixed_us_mix(2_000.0), 5_000.0, TOTAL, 7);
    let _quiet = req_tx1; // shard 1's ingress stays open and empty
    let mut rings = [resp_rx0, resp_rx1];
    let mut ids = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(120);
    while (ids.len() as u64) < TOTAL && Instant::now() < deadline {
        for rx in rings.iter_mut() {
            while let Some(resp) = rx.pop() {
                ids.push(resp.id);
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(gen.join().dropped, 0);

    let rollup = srt.shutdown();
    // Nothing more arrives after quiescence: no answer was sent twice.
    for rx in rings.iter_mut() {
        while let Some(resp) = rx.pop() {
            ids.push(resp.id);
        }
    }
    assert_eq!(ids.len() as u64, TOTAL, "answers: {rollup:?}");
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
fn single_shard_config_matches_plain_runtime_shape() {
    // num_shards = 1 through the sharded front door behaves like the
    // plain runtime: no offloads, no steals, same conservation law.
    let cfg = RuntimeConfig::small_test();
    let (req_tx, req_rx) = ring::<Request>(4096);
    let (resp_tx, resp_rx) = ring::<Response>(4096);
    let srt = ShardedRuntime::start(cfg, Arc::new(SpinApp::new()), vec![req_rx], vec![resp_tx]);
    let gen = LoadGen::start(req_tx, fixed_us_mix(10.0), 10_000.0, 200, 3);
    let mut rings = [resp_rx];
    let got = drain_responses(&mut rings, 200, Duration::from_secs(60));
    assert_eq!(gen.join().dropped, 0);
    assert_eq!(got, 200);
    let rollup = srt.shutdown();
    assert!(rollup.conservation_holds());
    let s = &rollup.per_shard[0];
    assert_eq!((s.offloaded, s.steals_in), (0, 0));
}

#[test]
fn plain_runtime_reports_zero_shard_counters() {
    // The unsharded path must be bit-identical to before: the shard
    // counters exist but never move.
    let (req_tx, req_rx) = ring::<Request>(1024);
    let (resp_tx, mut resp_rx) = ring::<Response>(1024);
    let rt = Runtime::start(
        RuntimeConfig::small_test(),
        Arc::new(SpinApp::new()),
        req_rx,
        resp_tx,
    );
    let gen = LoadGen::start(req_tx, fixed_us_mix(10.0), 10_000.0, 100, 5);
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut got = 0;
    while got < 100 && Instant::now() < deadline {
        while resp_rx.pop().is_some() {
            got += 1;
        }
        std::thread::yield_now();
    }
    gen.join();
    assert_eq!(got, 100);
    let stats = rt.shutdown();
    use std::sync::atomic::Ordering;
    assert_eq!(stats.shard_offloaded.load(Ordering::Relaxed), 0);
    assert_eq!(stats.shard_steals_in.load(Ordering::Relaxed), 0);
}
