//! Demand-gated quantum policing and the per-worker return rings, as
//! exact statements on the virtual clock: a request nobody waits behind
//! is never signaled however many quanta it runs; the arrival that does
//! end up waiting gets the running slice signaled on the very dispatcher
//! iteration that ingested it; and the return ring, sized to the JBSQ
//! depth, absorbs everything a stalled dispatcher leaves outstanding.
//! Every case also runs the shared conservation, signal-fate-balance and
//! JBSQ ≤ k oracles unchanged.

use concord_conformance::{
    check_policy, check_runtime, run_case, run_runtime, ArrivalKind, CaseConfig, FaultKind, Rig,
    RuntimeObservation, VirtualSpinApp,
};
use concord_core::clock::VirtualClock;
use concord_core::{Clock, ConcordApp, PolicyKind, RequestContext, SpinApp};
use concord_net::Request;
use concord_trace::EventKind;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(20);

/// One worker, JBSQ(2), the paper's 5 µs quantum; arrivals are scripted
/// per test, so the rate fields are unused.
fn base_case() -> CaseConfig {
    CaseConfig {
        seed: 15,
        n_workers: 1,
        jbsq_depth: 2,
        quantum_us: 5,
        work_conserving: false,
        arrival: ArrivalKind::Burst,
        short_us: 10,
        long_us: 100,
        short_weight: 50,
        requests: 50,
        load_pct: 40,
        fault: FaultKind::None,
        policy: PolicyKind::PsQuantum,
        shards: 1,
    }
}

fn request(id: u64, class: u16, service_us: u64) -> Request {
    Request {
        id,
        class,
        service_ns: service_us * 1_000,
        sent_at: Instant::now(),
    }
}

fn assert_oracles_clean(obs: &RuntimeObservation) {
    let v = [
        check_runtime(obs),
        concord_conformance::oracles::check_trace(obs),
        check_policy(obs),
    ]
    .concat();
    assert!(v.is_empty(), "cc {}: {v:?}", obs.case.encode());
}

/// Window-1 closed loop: each 100 µs request runs 20 quanta with nobody
/// else in the system, so there is never a beneficiary — exactly zero
/// signals, zero preemptions, zero signal fates. Unconditional policing
/// sent ~20 signals per request here.
#[test]
fn lone_requests_are_never_signaled() {
    let case = base_case();
    let clock = Arc::new(VirtualClock::new());
    // 1 µs chunks: a preemption point every probe period.
    let app = Arc::new(VirtualSpinApp::new(clock.clone(), 1_000));
    let mut rig = Rig::new(&case, Clock::from_virtual(clock), app, |_| {});
    rig.start();
    for id in 0..case.requests {
        rig.push(request(id, 1, case.long_us));
        assert!(rig.collect(id + 1, TIMEOUT), "request {id} never answered");
    }
    let obs = rig.finish();
    assert_eq!(obs.completed, case.requests);
    assert_eq!(obs.signals_sent, 0, "a lone request was signaled");
    assert_eq!(obs.preemptions, 0);
    assert_eq!(obs.acct.total(), 0);
    // Each request ran exactly one slice, and an expiry is counted at
    // most once per slice generation.
    assert!(
        obs.expiries_deferred <= case.requests,
        "{} deferred expiries for {} slices",
        obs.expiries_deferred,
        case.requests
    );
    assert_oracles_clean(&obs);
}

/// Class of the scripted long request in
/// `arrival_behind_a_lone_request_gets_it_signaled_at_once`.
const LONG: u16 = 1;

/// `LONG` requests run three quanta alone, raise `ran_alone`, then hold
/// at a preemption point — virtual time standing still — until the
/// signal B's arrival must trigger lands; afterwards they run two more
/// quanta. Everything else advances the clock by its service time.
struct HandshakeApp {
    clock: Arc<VirtualClock>,
    quantum_ns: u64,
    ran_alone: AtomicBool,
    preempted_while_alone: AtomicU32,
}

impl ConcordApp for HandshakeApp {
    fn handle_request(&self, req: &Request, ctx: &mut RequestContext<'_, '_>) -> u64 {
        if req.class != LONG {
            self.clock.advance_ns(req.service_ns);
            ctx.preempt_point();
            return 0;
        }
        let probes_per_quantum = self.quantum_ns / 1_000;
        for _ in 0..3 * probes_per_quantum {
            self.clock.advance_ns(1_000);
            ctx.preempt_point();
        }
        self.preempted_while_alone
            .store(ctx.preemptions(), Ordering::Release);
        self.ran_alone.store(true, Ordering::Release);
        let give_up = Instant::now() + TIMEOUT;
        while ctx.preemptions() == 0 && Instant::now() < give_up {
            std::thread::yield_now();
            ctx.preempt_point();
        }
        for _ in 0..2 * probes_per_quantum {
            self.clock.advance_ns(1_000);
            ctx.preempt_point();
        }
        u64::from(ctx.preemptions())
    }
}

/// A runs three quanta alone (no signal), then B arrives: the dispatcher
/// iteration that ingests B also dispatches it behind A and signals A —
/// once, for the generation A is running *now* — so on the virtual
/// timeline B waits no time at all; A then finishes alone, unsignaled.
#[test]
fn arrival_behind_a_lone_request_gets_it_signaled_at_once() {
    let mut case = base_case();
    case.quantum_us = 50;
    let quantum_ns = case.quantum_us * 1_000;
    let clock = Arc::new(VirtualClock::new());
    let app = Arc::new(HandshakeApp {
        clock: clock.clone(),
        quantum_ns,
        ran_alone: AtomicBool::new(false),
        preempted_while_alone: AtomicU32::new(u32::MAX),
    });
    let mut rig = Rig::new(&case, Clock::from_virtual(clock), app.clone(), |_| {});
    rig.start();
    let stats = rig.stats();
    let (warm, a, b) = (0, 1, 2);

    // A warm-up request first, so A's slice is not generation 1 and
    // "the current generation" is a real statement.
    rig.push(request(warm, 0, 10));
    assert!(rig.collect(1, TIMEOUT));
    rig.push(request(a, LONG, 5 * case.quantum_us));
    let give_up = Instant::now() + TIMEOUT;
    while !(app.ran_alone.load(Ordering::Acquire)
        && stats.expiries_deferred.load(Ordering::Relaxed) >= 1)
    {
        assert!(
            Instant::now() < give_up,
            "A never ran alone / expiry never seen"
        );
        std::thread::yield_now();
    }
    assert_eq!(app.preempted_while_alone.load(Ordering::Acquire), 0);
    assert_eq!(
        stats.signals_sent.load(Ordering::Relaxed),
        0,
        "A was signaled with nobody waiting"
    );
    rig.push(request(b, 0, 10));
    assert!(rig.collect(3, TIMEOUT));
    let obs = rig.finish();

    assert_eq!(obs.signals_sent, 1, "exactly one signal, for A");
    assert_eq!(obs.preemptions, 1);
    assert_eq!(obs.acct.consumed, 1);
    assert!(obs.expiries_deferred >= 1);
    assert_eq!(obs.trace_dropped, 0, "trace must be loss-free");
    let trace = obs.raw_trace.as_ref().expect("trace enabled");
    let of = |kind: EventKind, id: u64| {
        trace
            .records
            .iter()
            .filter(move |r| r.ev.kind() == kind && r.ev.id() == id)
    };

    // The signal carries the generation A was running when B arrived.
    let a_gen = of(EventKind::Resume, a).next().expect("A ran").ev.gen();
    assert_eq!(a_gen, 2, "warm-up ran generation 1");
    let signal = of(EventKind::SignalSent, 0).next().expect("one signal");
    assert_eq!(signal.ev.gen(), a_gen);
    let a_yield = of(EventKind::Yield, a).next().expect("A yielded");
    assert_eq!(a_yield.ev.gen(), a_gen);

    // Same dispatcher iteration: on the dispatcher's own track B's
    // ARRIVE and DISPATCH are followed directly by the SIGNAL_SENT, all
    // at one virtual instant.
    let dispatcher: Vec<_> = trace
        .records
        .iter()
        .filter(|r| r.track == trace.dispatcher_track())
        .collect();
    let at = dispatcher
        .iter()
        .position(|r| r.ev.kind() == EventKind::Arrive && r.ev.id() == b)
        .expect("B arrived");
    let kinds: Vec<_> = dispatcher[at..at + 3].iter().map(|r| r.ev.kind()).collect();
    assert_eq!(
        kinds,
        [
            EventKind::Arrive,
            EventKind::Dispatch,
            EventKind::SignalSent
        ]
    );
    let b_arrive_ns = dispatcher[at].ev.ts_ns;
    assert_eq!(signal.ev.ts_ns, b_arrive_ns);

    // B's queueing delay: bounded by one probe period (here exactly 0 —
    // A holds the clock still while it waits for the signal).
    let b_first_run_ns = of(EventKind::Resume, b).next().expect("B ran").ev.ts_ns;
    assert!(b_first_run_ns - b_arrive_ns <= 1_000);
    // No trace-replay oracle here: SIGNAL_SENT and YIELD share one
    // virtual instant, which its timestamp-sorted matching cannot order
    // (the assertions above read the same events track by track).
    let v = [check_runtime(&obs), check_policy(&obs)].concat();
    assert!(v.is_empty(), "cc {}: {v:?}", obs.case.encode());
}

/// The return ring holds exactly the JBSQ depth: with the dispatcher
/// stalled after filling the worker's queue, the worker finishes both
/// requests and parks both messages in the ring — k outstanding, none
/// rejected (a rejected push would kill the worker and time the run
/// out) — and conservation still closes once the dispatcher wakes.
#[test]
fn return_ring_holds_k_messages_through_a_dispatcher_stall() {
    let mut case = base_case();
    case.quantum_us = 1_000; // nothing expires: the ring is the subject
    case.requests = 6;
    case.fault = FaultKind::StallDispatcher { stall_us: 20_000 };
    // Wall clock: during a virtual-time stall only the worker's two
    // requests would move time, so the stall could outlast them forever.
    let mut rig = Rig::new(&case, Clock::monotonic(), Arc::new(SpinApp::new()), |_| {});
    for id in 0..case.requests {
        rig.push(request(id, 0, case.short_us));
    }
    rig.start();
    assert!(rig.collect(case.requests, TIMEOUT));
    let backlog = rig
        .injector()
        .expect("case schedules a fault")
        .return_backlog_max();
    let obs = rig.finish();
    assert_eq!(
        backlog, case.jbsq_depth as u64,
        "the stalled dispatcher must find k messages parked"
    );
    assert_eq!(obs.completed, case.requests);
    assert_eq!(obs.per_worker[0].queue_max, case.jbsq_depth as u64);
    assert_oracles_clean(&obs);
}

fn burst_case() -> CaseConfig {
    let mut case = base_case();
    case.quantum_us = 50;
    case.n_workers = 2;
    case.long_us = 150;
    case.requests = 150;
    case.work_conserving = true;
    case
}

/// A pre-filled burst through `run_case`: the gate is open from the
/// first iteration to the last-but-one request.
#[test]
fn burst_backlog_holds_all_oracles() {
    let case = burst_case();
    let violations = run_case(&case, TIMEOUT);
    assert!(
        violations.is_empty(),
        "oracle violations for `cc {}`:\n  {}",
        case.encode(),
        violations.join("\n  ")
    );
}

/// The same burst on two shards: both RX rings are full before either
/// dispatcher starts, every shard ingests its half, and every oracle —
/// the per-shard books, hand-offs and home answers among them — holds.
#[test]
fn two_shard_burst_backlog_holds_all_oracles() {
    let mut case = burst_case();
    case.shards = 2;
    let obs = run_runtime(&case, TIMEOUT);
    for (i, s) in obs.rollup.per_shard.iter().enumerate() {
        assert!(
            s.ingested > 0,
            "shard {i} ingested nothing: {:?}",
            obs.rollup
        );
    }
    assert_eq!(obs.rollup.per_shard.len(), 2);
    assert_oracles_clean(&obs);
}
