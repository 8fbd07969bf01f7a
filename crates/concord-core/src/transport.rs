//! Transport abstraction: how requests reach the runtime and responses
//! leave it.
//!
//! In-process SPSC descriptor rings (`concord-net`) stand in for the
//! paper's NIC queues, and `concord-server` puts TCP connections in
//! their place, so the runtime is generic over two small traits:
//!
//! - [`Ingress`]: a non-blocking source of admitted [`Request`]s, polled
//!   once per dispatcher pass. One that performs admission control also
//!   exposes its [`AdmissionCounters`] and the [`AdmissionEvent`]s the
//!   dispatcher folds into the tracer.
//! - [`Egress`]: a non-blocking sink for [`Response`]s. `send` hands the
//!   response back on transient backpressure, so the dispatcher's
//!   retry-then-drop policy (and `tx_dropped`) applies to every
//!   transport alike.
//!
//! A dispatcher owns one transport value that is both, and its egress
//! answers exactly what its ingress delivered. A ring implements one
//! trait, and a pair `(rx, tx)` of rings is a transport;
//! `concord-server`'s per-shard sockets implement both.

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
/// `poll_batch` is called from the dispatcher's hot loop and must never
/// block. Implementations that gate arrivals through an
/// [`AdmissionQueue`](crate::admission::AdmissionQueue) should also
/// forward its counters and event stream so drops become visible in
/// [`RuntimeStats`](crate::stats::RuntimeStats) and the trace.
pub trait Ingress: Send + 'static {
    /// Appends pending requests to `out` until it holds `room` of them
    /// or nothing more is pending: what the dispatcher calls once per
    /// pass.
    fn poll_batch(&mut self, out: &mut Vec<Request>, room: usize);

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
    /// rejects it (the `tx_dropped` path). A transport that keeps
    /// per-request books (`concord-server` counts a request *owed* until
    /// answered) settles them here. Must not block. Default: no-op.
    fn on_drop(&mut self, resp: &Response) {
        let _ = resp;
    }

    /// Called once per dispatcher pass, after the pass's responses were
    /// sent: a transport that batches its writes makes them here. Must
    /// not block. Default: no-op.
    fn flush(&mut self) {}

    /// Called once, after the dispatcher has drained (every request this
    /// transport delivered, also one a sibling ran, has been answered or
    /// dropped through it) and before its thread exits: a transport that
    /// owns connections writes out what they still hold, waiting a
    /// bounded time for slow readers. Default: no-op.
    fn finish(&mut self) {}
}

/// The NIC-model RX ring is the original ingress.
impl Ingress for SpscReceiver<Request> {
    fn poll_batch(&mut self, out: &mut Vec<Request>, room: usize) {
        while out.len() < room {
            let Some(req) = self.pop() else { break };
            out.push(req);
        }
    }
}

/// The NIC-model TX ring is the original egress.
impl Egress for SpscSender<Response> {
    fn send(&mut self, resp: Response) -> Result<(), Response> {
        self.push(resp)
    }
}

/// An ingress and an egress paired into one transport.
impl<I: Ingress, E: Egress> Ingress for (I, E) {
    fn poll_batch(&mut self, out: &mut Vec<Request>, room: usize) {
        self.0.poll_batch(out, room);
    }

    fn drain_admission(&mut self, out: &mut Vec<AdmissionEvent>) {
        self.0.drain_admission(out);
    }

    fn admission_counters(&self) -> Option<Arc<AdmissionCounters>> {
        self.0.admission_counters()
    }

    fn attach_slo(&self, slo: Arc<crate::quantum::SloState>) {
        self.0.attach_slo(slo);
    }
}

impl<I: Ingress, E: Egress> Egress for (I, E) {
    fn send(&mut self, resp: Response) -> Result<(), Response> {
        self.1.send(resp)
    }

    fn on_drop(&mut self, resp: &Response) {
        self.1.on_drop(resp);
    }

    fn flush(&mut self) {
        self.1.flush();
    }

    fn finish(&mut self) {
        self.1.finish();
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
        for id in 7..10 {
            tx.push(req(id)).expect("space");
        }
        // Through the trait, as the dispatcher sees it: at most `room`.
        let mut polled = Vec::new();
        rx.poll_batch(&mut polled, 2);
        assert_eq!(polled.iter().map(|r| r.id).collect::<Vec<_>>(), [7, 8]);
        rx.poll_batch(&mut polled, 8);
        rx.poll_batch(&mut polled, 8);
        assert_eq!(polled.len(), 3, "then what is left, then nothing");
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
