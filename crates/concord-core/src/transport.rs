//! Transport abstraction: how requests reach the runtime and responses
//! leave it.
//!
//! In-process SPSC descriptor rings (`concord-net`) stand in for the
//! paper's NIC queues, and `concord-server` puts TCP connections in
//! their place, so the runtime is generic over one [`Transport`]: the
//! dispatcher's RX and TX queues in one value that dispatcher owns, as
//! the paper's dispatcher owns its NIC queues (§3). It polls admitted
//! [`Request`]s once per pass and sends [`Response`]s without blocking:
//! `send` hands a response back on transient backpressure, so the
//! dispatcher's retry-then-drop policy (and `tx_dropped`) applies to
//! every transport alike. A transport answers exactly what it delivered,
//! also a request a sibling shard ran. One that performs admission
//! control also exposes its [`AdmissionCounters`] and the
//! [`AdmissionEvent`]s the dispatcher folds into the tracer.
//!
//! A pair `(rx, tx)` of rings is a transport, and so are
//! `concord-server`'s per-shard sockets.

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

/// A dispatcher's transport: the non-blocking source of its requests
/// and the non-blocking sink of its responses, in one value the
/// dispatcher owns.
///
/// Every method is called from the dispatcher's thread and must never
/// block. A transport that gates arrivals through an
/// [`AdmissionQueue`](crate::admission::AdmissionQueue) also exposes its
/// counters and event stream, so sheds become visible in
/// [`RuntimeStats`](crate::stats::RuntimeStats) and the trace.
pub trait Transport: Send + 'static {
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

    /// The admission counters of this transport, if it performs
    /// admission control. [`Runtime::start`](crate::Runtime::start) links
    /// them into [`RuntimeStats`](crate::stats::RuntimeStats) so
    /// `RuntimeStats::snapshot()` reports them. Default: `None`.
    fn admission_counters(&self) -> Option<Arc<AdmissionCounters>> {
        None
    }

    /// Hands this transport the shared per-class SLO state so its
    /// admission gate (if any) can shed classes the controller marks as
    /// blowing their budget. Called once, before the dispatcher starts,
    /// when budgets are configured. Default: ignored (plain rings do no
    /// admission).
    fn attach_slo(&mut self, slo: Arc<crate::quantum::SloState>) {
        let _ = slo;
    }

    /// Attempts to send one response. Returns the response back when the
    /// transport is momentarily full; the dispatcher retries briefly and
    /// then drops-and-counts (`RuntimeStats::tx_dropped`), so a wedged
    /// client can never stall scheduling.
    fn send(&mut self, resp: Response) -> Result<(), Response>;

    /// Called exactly once when the dispatcher gives up on a response
    /// after its bounded retry, or at once when the fault injector
    /// rejects it (the `tx_dropped` path). A transport that keeps
    /// per-request books (`concord-server` counts a request *owed* until
    /// answered) settles them here. Default: no-op.
    fn on_drop(&mut self, resp: &Response) {
        let _ = resp;
    }

    /// Called once per dispatcher pass, after the pass's responses were
    /// sent: a transport that batches its writes makes them here.
    /// Default: no-op.
    fn flush(&mut self) {}

    /// Called once, after the dispatcher has drained (every request this
    /// transport delivered, also one a sibling ran, has been answered or
    /// dropped through it) and before its thread exits: a transport that
    /// owns connections writes out what they still hold, waiting a
    /// bounded time for slow readers. Default: no-op.
    fn finish(&mut self) {}
}

/// The NIC-model rings: requests arrive on the RX ring, responses leave
/// on the TX ring.
impl Transport for (SpscReceiver<Request>, SpscSender<Response>) {
    fn poll_batch(&mut self, out: &mut Vec<Request>, room: usize) {
        while out.len() < room {
            let Some(req) = self.0.pop() else { break };
            out.push(req);
        }
    }

    fn send(&mut self, resp: Response) -> Result<(), Response> {
        self.1.push(resp)
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
    fn a_ring_pair_is_a_transport() {
        let (mut tx, rx) = spsc::<Request>(8);
        for id in 7..10 {
            tx.push(req(id)).expect("space");
        }
        // Through the trait, as the dispatcher sees it: at most `room`.
        let (etx, mut erx) = spsc::<Response>(2);
        let mut io = (rx, etx);
        let mut polled = Vec::new();
        io.poll_batch(&mut polled, 2);
        assert_eq!(polled.iter().map(|r| r.id).collect::<Vec<_>>(), [7, 8]);
        io.poll_batch(&mut polled, 8);
        io.poll_batch(&mut polled, 8);
        assert_eq!(polled.len(), 3, "then what is left, then nothing");
        assert!(io.admission_counters().is_none(), "plain rings don't admit");

        let r = Response::completed(&req(1));
        io.send(r).expect("space");
        io.send(r).expect("space");
        // Full ring hands the response back instead of blocking.
        assert!(io.send(r).is_err());
        assert_eq!(erx.pop().map(|r| r.id), Some(1));
    }

    #[test]
    fn drain_admission_defaults_to_empty() {
        let (_tx, rx) = spsc::<Request>(4);
        let (etx, _erx) = spsc::<Response>(4);
        let mut out = Vec::new();
        (rx, etx).drain_admission(&mut out);
        assert!(out.is_empty());
    }
}
