//! Transport abstraction: how requests reach the runtime and responses
//! leave it.
//!
//! The paper's testbed feeds Concord from a kernel-bypass NIC; this
//! reproduction started with in-process SPSC descriptor rings
//! (`concord-net`) standing in for the NIC queues. Real deployments need
//! other front ends — a TCP accept loop (`concord-server`), a replayed
//! trace, a fuzzer — so the runtime is generic over two small traits:
//!
//! - [`Ingress`]: a non-blocking source of admitted [`Request`]s. The
//!   dispatcher polls it in its main loop, exactly where it used to pop
//!   the RX ring. An ingress that performs admission control additionally
//!   exposes its [`AdmissionCounters`] and a stream of
//!   [`AdmissionEvent`]s the dispatcher folds into the tracer.
//! - [`Egress`]: a non-blocking sink for [`Response`]s. `send` hands the
//!   response back on transient backpressure so the dispatcher's bounded
//!   retry-then-drop policy (and its `tx_dropped` accounting) applies to
//!   every transport uniformly.
//!
//! The original NIC-model rings implement both traits below, so existing
//! ring-based callers compile unchanged; `concord-server` implements them
//! over the TCP connections each shard's dispatcher owns.

use crate::admission::{AdmissionCounters, AdmissionEvent};
use concord_net::{Request, Response};
use std::sync::Arc;

/// Internal single-producer/single-consumer channel used for the JBSQ
/// per-worker task rings and the per-worker return rings. An alias so
/// the scheduler (`dispatcher.rs`/`worker.rs`) names no concrete ring
/// type; today it is backed by the `concord-net` descriptor ring.
pub type SpscSender<T> = concord_net::ring::Producer<T>;

/// Consumer half of [`SpscSender`]'s channel.
pub type SpscReceiver<T> = concord_net::ring::Consumer<T>;

/// Creates a bounded SPSC channel of capacity `cap` (rounded up to a
/// power of two).
pub fn spsc<T: Send>(cap: usize) -> (SpscSender<T>, SpscReceiver<T>) {
    concord_net::ring::ring(cap)
}

/// A non-blocking source of requests for the dispatcher.
///
/// `poll` and `poll_batch` are called from the dispatcher's hot loop and
/// must never block: return `None` (append nothing) when nothing is
/// pending. Implementations that gate arrivals through an
/// [`AdmissionQueue`](crate::admission::AdmissionQueue) should also
/// forward its counters and event stream so drops become visible in
/// [`RuntimeStats`](crate::stats::RuntimeStats) and the trace.
pub trait Ingress: Send + 'static {
    /// Returns the next admitted request, or `None` if the transport has
    /// nothing pending right now.
    fn poll(&mut self) -> Option<Request>;

    /// Appends pending requests to `out` until it holds `room` of them
    /// or nothing more is pending: what the dispatcher calls once per
    /// pass. Default: [`Ingress::poll`] in a loop, which is all a
    /// lock-free ring needs; an ingress behind a lock overrides it to
    /// take the lock once per batch instead of once per request.
    fn poll_batch(&mut self, out: &mut Vec<Request>, room: usize) {
        while out.len() < room {
            let Some(req) = self.poll() else { break };
            out.push(req);
        }
    }

    /// Moves any admission events recorded since the last call into
    /// `out`. The dispatcher drains this every loop iteration and emits
    /// an `ADMIT_DROP` trace event per entry. Default: no events.
    fn drain_admission(&mut self, out: &mut Vec<AdmissionEvent>) {
        let _ = out;
    }

    /// The admission counters of this ingress, if it performs admission
    /// control. [`Runtime::start`](crate::Runtime::start) links them into
    /// [`RuntimeStats`](crate::stats::RuntimeStats) so
    /// `RuntimeStats::snapshot()` reports them. Default: `None`.
    fn admission_counters(&self) -> Option<Arc<AdmissionCounters>> {
        None
    }

    /// Hands this ingress the shared per-class SLO state so its
    /// admission gate (if any) can shed classes the controller marks as
    /// blowing their budget. Called once by
    /// [`Runtime::start`](crate::Runtime::start) when budgets are
    /// configured. Default: ignored (plain rings do no admission).
    fn attach_slo(&self, slo: Arc<crate::quantum::SloState>) {
        let _ = slo;
    }
}

/// A non-blocking sink for responses.
pub trait Egress: Send + 'static {
    /// Attempts to send one response. Returns the response back when the
    /// transport is momentarily full; the dispatcher retries briefly and
    /// then drops-and-counts (`RuntimeStats::tx_dropped`), so a wedged
    /// client can never stall scheduling.
    fn send(&mut self, resp: Response) -> Result<(), Response>;

    /// Called exactly once when the dispatcher gives up on a response
    /// after its bounded retry, or at once when the fault injector
    /// rejects it (the `tx_dropped` path). Transports that keep
    /// per-request books settle them here, so a dropped response can
    /// never pin a connection's resources forever: `concord-server`
    /// counts every request a connection sent as *owed* until its
    /// answer arrives, and this hook settles it instead. Must not
    /// block. Default: no-op (the NIC-model rings have no books).
    fn on_drop(&mut self, resp: &Response) {
        let _ = resp;
    }

    /// Called once per dispatcher pass, after the pass's responses were
    /// sent: a transport that batches its writes makes them here. Must
    /// not block. Default: no-op.
    fn flush(&mut self) {}

    /// Called once, after the dispatcher has drained and before its
    /// thread exits: a transport that owns connections writes out what
    /// they still hold, waiting a bounded time for slow readers.
    /// Default: no-op.
    fn finish(&mut self) {}
}

/// The NIC-model RX ring is the original ingress.
impl Ingress for SpscReceiver<Request> {
    fn poll(&mut self) -> Option<Request> {
        self.pop()
    }
}

/// The NIC-model TX ring is the original egress.
impl Egress for SpscSender<Response> {
    fn send(&mut self, resp: Response) -> Result<(), Response> {
        self.push(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn req(id: u64) -> Request {
        Request {
            id,
            class: 0,
            service_ns: 1_000,
            sent_at: Instant::now(),
        }
    }

    #[test]
    fn ring_endpoints_implement_the_traits() {
        let (mut tx, mut rx) = spsc::<Request>(8);
        tx.push(req(7)).expect("space");
        // Through the trait, as the dispatcher sees it.
        let polled = Ingress::poll(&mut rx).expect("one request");
        assert_eq!(polled.id, 7);
        assert!(Ingress::poll(&mut rx).is_none());
        assert!(rx.admission_counters().is_none(), "plain rings don't admit");

        let (mut etx, mut erx) = spsc::<Response>(2);
        let r = Response::completed(&req(1));
        Egress::send(&mut etx, r).expect("space");
        Egress::send(&mut etx, r).expect("space");
        // Full ring hands the response back instead of blocking.
        assert!(Egress::send(&mut etx, r).is_err());
        assert_eq!(erx.pop().map(|r| r.id), Some(1));
    }

    #[test]
    fn drain_admission_defaults_to_empty() {
        let (_tx, mut rx) = spsc::<Request>(4);
        let mut out = Vec::new();
        rx.drain_admission(&mut out);
        assert!(out.is_empty());
    }
}
