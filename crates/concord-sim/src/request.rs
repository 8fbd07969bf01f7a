//! Simulated request state.
//!
//! The simulator has no queue or ordering rule of its own: its central
//! queue is `concord-core`'s [`CentralQueue`](concord_core::CentralQueue)
//! over [`ReqId`]s, keyed by the configured
//! [`PolicyKind`](concord_core::PolicyKind) from
//! [`Request::key_input`], exactly as the runtime's dispatcher keys its
//! tasks.

use crate::cost::CostModel;
use concord_core::KeyInput;

/// Index of a request in the simulation's arena.
pub type ReqId = usize;

/// The lifetime state of one simulated request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Arrival-order id (also the warmup cutoff key).
    pub id: u64,
    /// Workload class tag.
    pub class: u16,
    /// Un-instrumented service time, in cycles. This is the denominator of
    /// the slowdown metric.
    pub service: u64,
    /// Un-instrumented work still to be done, in cycles.
    pub remaining: u64,
    /// Arrival timestamp, cycles.
    pub arrival: u64,
    /// How many times this request has been preempted.
    pub preemptions: u32,
    /// Completion timestamp, cycles.
    pub completion: Option<u64>,
}

impl Request {
    /// Creates a fresh request.
    pub fn new(id: u64, class: u16, service_cycles: u64, arrival: u64) -> Self {
        Self {
            id,
            class,
            service: service_cycles.max(1),
            remaining: service_cycles.max(1),
            arrival,
            preemptions: 0,
            completion: None,
        }
    }

    /// Sojourn time in cycles if completed.
    pub fn sojourn(&self) -> Option<u64> {
        self.completion.map(|c| c.saturating_sub(self.arrival))
    }

    /// What the policy keys this request by — size, attained service and
    /// arrival — in nanoseconds of simulated time, the units of the
    /// runtime's `Task::key_input`.
    pub fn key_input(&self, cost: &CostModel) -> KeyInput {
        let ns = |cycles: u64| cost.cycles_to_ns(cycles) as u64;
        KeyInput {
            id: self.id,
            size_ns: ns(self.service),
            attained_ns: ns(self.service - self.remaining),
            arrived_ns: ns(self.arrival),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_sojourn() {
        let mut r = Request::new(0, 0, 100, 1_000);
        assert_eq!(r.sojourn(), None);
        r.completion = Some(1_500);
        assert_eq!(r.sojourn(), Some(500));
    }

    #[test]
    fn zero_service_clamps_to_one_cycle() {
        let r = Request::new(0, 0, 0, 0);
        assert_eq!(r.service, 1);
        assert_eq!(r.remaining, 1);
    }

    #[test]
    fn key_input_is_in_nanoseconds() {
        let cost = CostModel::paper_default(); // 2 GHz
        let mut r = Request::new(7, 0, 20_000, 4_000);
        r.remaining = 5_000;
        let k = r.key_input(&cost);
        assert_eq!(
            k,
            KeyInput {
                id: 7,
                size_ns: 10_000,
                attained_ns: 7_500,
                arrived_ns: 2_000,
            }
        );
    }
}
