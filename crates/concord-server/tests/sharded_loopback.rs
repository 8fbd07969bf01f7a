//! Sharded-server end-to-end: M connections spread over N scheduler
//! shards through real loopback TCP, checked against the cross-shard
//! conservation oracle, per-shard JBSQ bounds from the merged trace, and
//! — under a deliberately skewed router — a live inter-shard steal path.

use concord_core::admission::{AdmissionConfig, AdmissionPolicy};
use concord_core::trace::ShardTraceSummary;
use concord_core::{RuntimeConfig, SpinApp};
use concord_server::client::{self, ClientConfig};
use concord_server::{RouterPolicy, Server, ServerConfig};
use concord_workloads::dist::Dist;
use concord_workloads::mix::{ClassSpec, Mix};
use std::sync::Arc;
use std::time::Duration;

const JBSQ_K: usize = 2;

fn start_server(shards: usize, workers: usize, router: RouterPolicy) -> Server {
    Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            admission: AdmissionConfig {
                capacity: 4096,
                policy: AdmissionPolicy::RejectNewest,
            },
            router,
            ..ServerConfig::new(
                RuntimeConfig::builder()
                    .workers(workers)
                    .num_shards(shards)
                    .jbsq_depth(JBSQ_K)
                    .quantum(Duration::from_micros(100))
                    .build()
                    .expect("valid config"),
            )
        },
        Arc::new(SpinApp::new()),
    )
    .expect("bind loopback")
}

fn fixed_us_mix(us: f64) -> Mix {
    Mix::new(
        format!("Fixed({us})"),
        vec![ClassSpec::new("req", 1.0, Dist::fixed_us(us))],
    )
}

/// `conns` concurrent closed-loop clients, each sending `per_conn`
/// requests; returns `(sent, completed, rejected, failed, unaccounted)`
/// totals.
fn run_clients(
    addr: &str,
    conns: usize,
    per_conn: u64,
    window: usize,
    service_us: f64,
) -> (u64, u64, u64, u64, u64) {
    let threads: Vec<_> = (0..conns)
        .map(|c| {
            let addr = addr.to_string();
            std::thread::spawn(move || {
                client::run(
                    &addr,
                    &ClientConfig {
                        requests: per_conn,
                        // Ignored in closed loop, but must be positive.
                        rate_rps: 50_000.0,
                        window,
                        seed: 100 + c as u64,
                    },
                    fixed_us_mix(service_us),
                )
                .expect("client run")
            })
        })
        .collect();
    let mut totals = (0u64, 0u64, 0u64, 0u64, 0u64);
    for t in threads {
        let r = t.join().expect("client thread");
        totals.0 += r.sent;
        totals.1 += r.completed;
        totals.2 += r.rejected;
        totals.3 += r.failed;
        totals.4 += r.unaccounted();
    }
    totals
}

#[test]
fn two_shard_loopback_conserves_twenty_thousand_requests() {
    const CONNS: usize = 8;
    const PER_CONN: u64 = 2_500; // 20k total

    let server = start_server(2, 2, RouterPolicy::HashP2c);
    let addr = server.local_addr().to_string();
    let (sent, completed, rejected, failed, unaccounted) =
        run_clients(&addr, CONNS, PER_CONN, 32, 5.0);
    assert_eq!(sent, CONNS as u64 * PER_CONN);
    assert_eq!(unaccounted, 0, "every request has a named fate");
    assert_eq!(failed, 0);
    assert_eq!(completed + rejected, sent);

    let report = server.shutdown();
    assert_eq!(report.orphaned_responses, 0);
    assert_eq!(report.protocol_errors, 0);
    // Two dispatchers answered into the loops' ledger; it closed at zero.
    assert_eq!(report.io.in_flight, 0);

    // Cross-shard conservation: everything the shards ingested came out
    // as a completion or a contained failure, summed over shards.
    assert!(
        report.rollup.conservation_holds(),
        "cross-shard conservation violated: {:?}",
        report.rollup
    );
    // The gates and the shards agree: what the routers admitted is what
    // the dispatchers ingested.
    let admitted: u64 = report
        .admission_per_shard
        .iter()
        .map(|a| a.admitted.load(std::sync::atomic::Ordering::Relaxed))
        .sum();
    assert_eq!(report.rollup.total_ingested(), admitted);
    // What the clients saw is what the shards did.
    assert_eq!(report.rollup.total_completed(), completed);

    // The hash router spread the connections: no shard sat idle.
    for (i, s) in report.rollup.per_shard.iter().enumerate() {
        assert!(
            s.ingested > 0,
            "shard {i} never ingested: {:?}",
            report.rollup
        );
    }

    // Per-shard invariants from the merged trace: event monotonicity,
    // signal/yield matching, and JBSQ <= k inside every shard.
    let trace = report.trace.as_ref().expect("tracing armed");
    let summary = ShardTraceSummary::from_trace(trace);
    assert_eq!(summary.n_shards(), 2);
    let violations = summary.check(Some(JBSQ_K as u32));
    assert!(violations.is_empty(), "trace violations: {violations:?}");
}

#[test]
fn pinned_router_skew_drives_inter_shard_steals() {
    const CONNS: usize = 4;
    const PER_CONN: u64 = 150;

    // Every connection pinned to shard 0, one worker per shard, 2 ms
    // requests: shard 0 saturates, sheds never-started work into its
    // overflow ring, and idle shard 1 steals it.
    let server = start_server(2, 1, RouterPolicy::Pin(0));
    let addr = server.local_addr().to_string();
    let (sent, completed, rejected, failed, unaccounted) =
        run_clients(&addr, CONNS, PER_CONN, 16, 2_000.0);
    assert_eq!(sent, CONNS as u64 * PER_CONN);
    assert_eq!(unaccounted, 0);
    assert_eq!(failed, 0);
    assert_eq!(completed + rejected, sent);

    let report = server.shutdown();
    assert_eq!(report.orphaned_responses, 0);
    assert!(
        report.rollup.conservation_holds(),
        "cross-shard conservation violated: {:?}",
        report.rollup
    );
    // The pin really skewed ingest onto shard 0...
    assert_eq!(
        report.admission_per_shard[1]
            .admitted
            .load(std::sync::atomic::Ordering::Relaxed),
        0
    );
    assert_eq!(report.rollup.per_shard[1].ingested, 0);
    // ...and the steal path moved work: shard 1 completed requests it
    // never ingested.
    assert!(
        report.rollup.total_steals() > 0,
        "idle shard never stole: {:?}",
        report.rollup
    );
    assert!(report.rollup.per_shard[1].completed > 0);
    assert_eq!(
        report.rollup.per_shard[1].steals_in,
        report.rollup.per_shard[0].steals_out
    );
    // The merged trace tells the same story as the counters.
    let trace = report.trace.as_ref().expect("tracing armed");
    let summary = ShardTraceSummary::from_trace(trace);
    assert_eq!(
        summary.total_steals(),
        report.rollup.total_steals(),
        "trace/counter steal disagreement"
    );
}
