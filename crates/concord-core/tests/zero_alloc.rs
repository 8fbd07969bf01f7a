//! The steady-state request path allocates nothing.
//!
//! A counting global allocator watches every thread of the process while
//! a closed loop of `Fixed(1)` requests runs through a `Runtime` on
//! rings, with one worker and then with two: after a warm-up that fills
//! every thread's frame pool and grows every scratch buffer to its
//! working size, 100 000 further requests — served by the workers and,
//! because the window exceeds the JBSQ depth, by the work-conserving
//! dispatcher too — must not reach the allocator at all, and every one
//! of them must run on a frame from the pool of the thread that bound it.
//!
//! The runtime runs on a frozen virtual clock, so no slice ever expires
//! and nothing is preempted: each thread binds, finishes and pools one
//! frame at a time, and its pool never runs dry once warm. (A preempted
//! task keeps its frame, and may finish on another worker, whose pool
//! then gains the frame while the first builds a new one until the pools
//! fill up; that path is not what this file measures.)
//!
//! This file holds one test on purpose: the counter is process-wide, so
//! a second test running beside it would be counted.

use concord_core::{Clock, Runtime, RuntimeConfig, SpinApp};
use concord_net::ring::ring;
use concord_net::{Request, Response};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which upholds the `GlobalAlloc` contract; the counter is a
// side effect that touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const WINDOW: u64 = 32;
const WARM_UP: u64 = 20_000;
const MEASURED: u64 = 100_000;

/// Keeps `WINDOW` requests outstanding until `total` were answered.
/// Allocation-free itself: ring pushes and pops only.
fn closed_loop(
    tx: &mut concord_net::ring::Producer<Request>,
    rx: &mut concord_net::ring::Consumer<Response>,
    next_id: &mut u64,
    total: u64,
) {
    let give_up = Instant::now() + Duration::from_secs(120);
    let first = *next_id;
    let mut answered = 0;
    while answered < total {
        while *next_id - first < answered + WINDOW && *next_id - first < total {
            let req = Request {
                id: *next_id,
                class: 0,
                service_ns: 1_000,
                sent_at: Instant::now(),
            };
            if tx.push(req).is_err() {
                break;
            }
            *next_id += 1;
        }
        let mut progressed = false;
        while rx.pop().is_some() {
            answered += 1;
            progressed = true;
        }
        if !progressed {
            assert!(
                Instant::now() < give_up,
                "timed out at {answered}/{total} responses"
            );
            std::thread::yield_now();
        }
    }
}

/// Serves `WARM_UP` and then `MEASURED` requests on `workers` workers
/// and checks the measured window.
fn serve_warmed_up_window(workers: usize) {
    let (clock, _frozen) = Clock::manual();
    let cfg = RuntimeConfig::builder()
        .workers(workers)
        .jbsq_depth(2)
        .quantum(Duration::from_micros(5))
        .work_conserving(true)
        .clock(clock)
        .trace(false)
        .build()
        .expect("valid configuration");
    let (mut req_tx, req_rx) = ring::<Request>(1024);
    let (resp_tx, mut resp_rx) = ring::<Response>(1024);
    let rt = Runtime::start(cfg, Arc::new(SpinApp::new()), req_rx, resp_tx);
    let stats = rt.stats();
    let mut next_id = 0;

    // Every counter read here was published before the last warm-up
    // response was emitted: the dispatcher's per pass, each worker's
    // binds before its message when its ring ran empty.
    closed_loop(&mut req_tx, &mut resp_rx, &mut next_id, WARM_UP);
    let by_worker = stats.worker_completed.load(Ordering::Relaxed);
    let by_dispatcher = stats.dispatcher_completed.load(Ordering::Relaxed);
    let ingested = stats.ingested.load(Ordering::Relaxed);
    let reuses = stats.stack_reuses.load(Ordering::Relaxed);
    let before = ALLOCATIONS.load(Ordering::SeqCst);

    closed_loop(&mut req_tx, &mut resp_rx, &mut next_id, MEASURED);

    let allocations = ALLOCATIONS.load(Ordering::SeqCst) - before;
    let stats = rt.shutdown();
    let by_worker = stats.worker_completed.load(Ordering::Relaxed) - by_worker;
    let by_dispatcher = stats.dispatcher_completed.load(Ordering::Relaxed) - by_dispatcher;
    let ingested = stats.ingested.load(Ordering::Relaxed) - ingested;
    let reuses = stats.stack_reuses.load(Ordering::Relaxed) - reuses;

    assert_eq!(
        allocations, 0,
        "{workers} worker(s): {allocations} allocations while serving {MEASURED} warmed-up requests"
    );
    assert_eq!(ingested, MEASURED);
    assert_eq!(by_worker + by_dispatcher, MEASURED);
    assert!(by_worker > 0, "the worker path was not exercised");
    assert!(
        by_dispatcher > 0,
        "the work-conserving dispatcher path was not exercised"
    );
    assert_eq!(
        reuses, ingested,
        "{workers} worker(s): every request ran on a pooled frame"
    );
    assert_eq!(stats.preemptions.load(Ordering::Relaxed), 0);
    assert_eq!(stats.failed.load(Ordering::Relaxed), 0);
}

#[test]
fn steady_state_requests_never_reach_the_allocator() {
    serve_warmed_up_window(1);
    serve_warmed_up_window(2);
}
