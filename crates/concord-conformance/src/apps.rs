//! Test applications for virtual-time runtime executions.

use concord_core::clock::VirtualClock;
use concord_core::{ConcordApp, RequestContext};
use concord_net::Request;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long [`VirtualSpinApp`] waits (wall time) for a preemption signal
/// it knows must be coming before giving up. Only reached when the
/// dispatcher is broken or starved — the test's preemption-count
/// assertion then fails loudly instead of the run hanging.
const SIGNAL_WAIT: Duration = Duration::from_secs(2);

/// A spin server on *virtual* time: instead of burning CPU for the
/// request's nominal service time, it advances the shared
/// [`VirtualClock`] by `service_ns` in fixed chunks, hitting a preemption
/// point after each chunk — exactly like
/// [`SpinApp`](concord_core::SpinApp) but with zero wall-clock
/// dependence. Telemetry stamps taken from the same clock therefore
/// measure service times *exactly*, which turns latency assertions from
/// tolerances into equalities.
///
/// With [`VirtualSpinApp::awaiting_quantum`], the app additionally knows
/// the runtime's quantum: whenever a slice's virtual running time crosses
/// it, the app parks at the preemption point (bounded wall-time wait)
/// until the dispatcher's signal arrives and the slice yields. That
/// closes the one race virtual time can't remove on its own — the
/// dispatcher thread needing wall time to observe an expired deadline —
/// and makes the preemption *count* of a run an exact function of the
/// workload: `ceil(service / quantum)` yields per request. The
/// dispatcher only signals a slice someone is waiting behind, so use
/// this mode with a guaranteed backlog
/// ([`ArrivalKind::Burst`](crate::ArrivalKind::Burst)); a lone request
/// would sit out the two-second signal wait at every crossing.
///
/// Note the clock is shared by all workers: concurrent slices both
/// advance it, so per-request measurements are exact only in
/// single-worker (or otherwise serialized) executions; aggregate
/// conservation oracles are exact regardless.
pub struct VirtualSpinApp {
    clock: Arc<VirtualClock>,
    /// Virtual nanoseconds to advance between preemption points.
    pub chunk_ns: u64,
    /// When set, park at a preemption point (up to [`SIGNAL_WAIT`] wall
    /// time) each time a slice's virtual age crosses this quantum.
    quantum_ns: Option<u64>,
}

impl VirtualSpinApp {
    /// Creates the app advancing `clock`, checking a preemption point
    /// every `chunk_ns` of virtual time.
    pub fn new(clock: Arc<VirtualClock>, chunk_ns: u64) -> Self {
        Self {
            clock,
            chunk_ns: chunk_ns.max(1),
            quantum_ns: None,
        }
    }

    /// Creates the app in quantum-awaiting mode: it parks at preemption
    /// points whenever the current slice has virtually outrun
    /// `quantum_ns`, so every quantum expiry becomes a preemption,
    /// deterministically. Pass the same quantum the runtime runs with.
    pub fn awaiting_quantum(clock: Arc<VirtualClock>, chunk_ns: u64, quantum_ns: u64) -> Self {
        Self {
            clock,
            chunk_ns: chunk_ns.max(1),
            quantum_ns: Some(quantum_ns.max(1)),
        }
    }
}

impl ConcordApp for VirtualSpinApp {
    fn handle_request(&self, req: &Request, ctx: &mut RequestContext<'_, '_>) -> u64 {
        let mut left = req.service_ns;
        // Virtual ns this slice has run since the last yield.
        let mut sliced = 0u64;
        while left > 0 {
            let step = left.min(self.chunk_ns);
            self.clock.advance_ns(step);
            left -= step;
            sliced += step;
            let before = ctx.preemptions();
            ctx.preempt_point();
            if ctx.preemptions() > before {
                sliced = 0;
                continue;
            }
            if let Some(q) = self.quantum_ns {
                if sliced >= q {
                    // The slice outran its quantum on the virtual
                    // timeline: the dispatcher must claim the expiry and
                    // signal us. Give it wall time to do so.
                    let give_up = Instant::now() + SIGNAL_WAIT;
                    while ctx.preemptions() == before && Instant::now() < give_up {
                        std::thread::yield_now();
                        ctx.preempt_point();
                    }
                    // Either we yielded (fresh slice) or the wait timed
                    // out (dispatcher broken; the preemption-count
                    // assertion downstream reports it). Reset so a
                    // timed-out slice doesn't re-park every chunk.
                    sliced = 0;
                }
            }
        }
        u64::from(ctx.preemptions())
    }
}

/// An app that does no work and never advances any clock: with a frozen
/// virtual clock, no quantum can ever expire, so a run through this app
/// must produce *exactly zero* preemption signals — the strictest form of
/// the no-spurious-preemption property.
#[derive(Debug, Default)]
pub struct FrozenApp;

impl ConcordApp for FrozenApp {
    fn handle_request(&self, _req: &Request, ctx: &mut RequestContext<'_, '_>) -> u64 {
        ctx.preempt_point();
        0
    }
}

/// Wraps an application so that the handler of one request panics on
/// entry, inside its coroutine, and every other request goes to the inner
/// app. The panic fires wherever the request runs — a worker or the
/// dispatcher's stolen slice — so the runtime's containment path is the
/// one under test. This is how a case's `PanicOn` fault is injected.
pub struct PanicOnApp<A> {
    inner: Arc<A>,
    req_id: u64,
}

impl<A: ConcordApp> PanicOnApp<A> {
    /// Wraps `inner`, panicking in the handler of request `req_id`.
    pub fn new(inner: Arc<A>, req_id: u64) -> Self {
        Self { inner, req_id }
    }
}

impl<A: ConcordApp> ConcordApp for PanicOnApp<A> {
    fn setup(&self) {
        self.inner.setup();
    }

    fn setup_worker(&self, core: usize) {
        self.inner.setup_worker(core);
    }

    fn handle_request(&self, req: &Request, ctx: &mut RequestContext<'_, '_>) -> u64 {
        if req.id == self.req_id {
            panic!("injected panic in the handler of request {}", req.id);
        }
        self.inner.handle_request(req, ctx)
    }
}
