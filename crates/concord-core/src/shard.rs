//! Sharding: N independent dispatcher+worker groups joined by one
//! cross-shard hand-off.
//!
//! Each shard is a complete single-dispatcher runtime — today's
//! `DispatcherLoop` unchanged at its core — so every per-shard invariant
//! (JBSQ ≤ k, signal-generation tagging) holds exactly as before. The
//! only coupling is the [`ShardLink`]: a one-slot mailbox per shard
//! through which **never-started** work moves to a shard that asked for
//! it (RackSched-style: balance by placement, take work only when idle).
//!
//! - **Ask** (the idle shard): with an empty central queue, a free JBSQ
//!   slot and an empty mailbox, a dispatcher raises its own `hungry`
//!   flag. Every pass it takes whatever its mailbox holds.
//! - **Give** (the saturated owner): with every worker full and
//!   never-started work queued, the owner consumes a sibling's ask and
//!   moves its *youngest* never-started task into that sibling's
//!   mailbox. A closed or still-occupied mailbox refuses, and the owner
//!   keeps the task. Only never-started tasks move, so a migrated
//!   coroutine has no generation state and no instrumentation affinity
//!   to violate.
//! - **Close** (the drained shard): under the mailbox lock it takes
//!   anything still there and runs it, and only then marks the mailbox
//!   closed.
//!
//! A task leaves its owner only for a shard that asked, so nothing is
//! ever parked and nothing needs reclaiming.
//!
//! Counter model: `ingested` is charged to the shard that polled the
//! request, `offloaded` to the shard that gave it away, `steals_in` to
//! the shard that took it, and completion to the shard that ran it. At
//! quiescence every shard's books balance exactly, `ingested + steals_in
//! == completed + failed + offloaded`, and every hand-off was taken once,
//! `Σ offloaded == Σ steals_in` (a dropped response's request did
//! complete, so `tx_dropped` is inside `completed`, not beside it).

use crate::app::ConcordApp;
use crate::config::RuntimeConfig;
use crate::runtime::{Runtime, RuntimeObserver};
use crate::stats::RuntimeStats;
use crate::task::Task;
use crate::telemetry::TelemetrySnapshot;
use crate::transport::{Egress, Ingress};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// One shard's hand-off endpoint: its ask and its one-slot mailbox. The
/// shard itself asks, takes and closes; a saturated sibling gives.
#[derive(Default)]
pub struct ShardLink {
    /// Raised by the idle shard; a giver swaps it back to `false`, so
    /// one ask is answered by at most one task. It publishes no data
    /// (the task crosses under the mailbox lock), so every access is
    /// `Relaxed`.
    hungry: AtomicBool,
    /// The handed-off task with its owner's id, and whether the shard
    /// has drained and accepts no more.
    mailbox: Mutex<Mailbox>,
}

#[derive(Default)]
struct Mailbox {
    task: Option<(usize, Task)>,
    closed: bool,
}

impl ShardLink {
    /// Whether this shard has an ask outstanding: a giver's pre-check
    /// before it takes a task out of its queue.
    pub(crate) fn asked(&self) -> bool {
        self.hungry.load(Ordering::Relaxed)
    }

    /// Asking side: raises or lowers this shard's ask. Writes the flag
    /// only when it changes, so a steady state costs one load.
    pub(crate) fn ask(&self, idle: bool) {
        if self.hungry.load(Ordering::Relaxed) != idle {
            self.hungry.store(idle, Ordering::Relaxed);
        }
    }

    /// Giving side: consumes this shard's ask and moves `task`, owned by
    /// shard `owner`, into its mailbox. Returns the task back when there
    /// was no ask, the mailbox still holds an earlier task, or it is
    /// closed.
    pub(crate) fn give(&self, owner: usize, task: Task) -> Result<(), Task> {
        let mut mb = self.mailbox.lock().expect("mailbox lock poisoned");
        if mb.closed || mb.task.is_some() || !self.hungry.swap(false, Ordering::Relaxed) {
            return Err(task);
        }
        mb.task = Some((owner, task));
        Ok(())
    }

    /// Asking side: takes the handed-off task and its owner's id, if any.
    pub(crate) fn take(&self) -> Option<(usize, Task)> {
        self.mailbox
            .lock()
            .expect("mailbox lock poisoned")
            .task
            .take()
    }

    /// Draining side: takes a task still in the mailbox, or, when there
    /// is none, closes the mailbox so no give can land after the shard
    /// exits. Returns the task, which the shard must run before it
    /// tries to close again.
    pub(crate) fn close(&self) -> Option<(usize, Task)> {
        let mut mb = self.mailbox.lock().expect("mailbox lock poisoned");
        let task = mb.task.take();
        mb.closed = task.is_none();
        task
    }
}

/// A dispatcher's view of the shard topology: its own id plus every
/// shard's link (including its own, at `links[id]`).
#[derive(Clone)]
pub struct ShardContext {
    /// This shard's index.
    pub id: usize,
    /// All shards' hand-off endpoints.
    pub links: Arc<[ShardLink]>,
}

impl ShardContext {
    /// This shard's own link.
    pub fn own(&self) -> &ShardLink {
        &self.links[self.id]
    }
}

/// Quiescent per-shard counters, the oracle inputs for the per-shard
/// and cross-shard conservation laws.
#[derive(Clone, Debug, Default)]
pub struct ShardCounters {
    /// Requests this shard's dispatcher polled from its ingress.
    pub ingested: u64,
    /// Requests completed on this shard (workers + dispatcher).
    pub completed: u64,
    /// Contained failures on this shard.
    pub failed: u64,
    /// Responses this shard dropped on its TX path.
    pub tx_dropped: u64,
    /// Never-started tasks this shard handed to a sibling that asked.
    pub offloaded: u64,
    /// Always 0 (nothing is parked, so nothing is reclaimed); kept
    /// because the benchmark's `shard.reclaimed_per_kreq` reads it.
    pub reclaimed: u64,
    /// Tasks this shard took from its mailbox.
    pub steals_in: u64,
    /// Per-worker JBSQ occupancy high-watermarks.
    pub queue_max: Vec<u64>,
}

impl ShardCounters {
    /// This shard's books at quiescence: `ingested + steals_in ==
    /// completed + failed + offloaded`.
    pub fn books_balance(&self) -> bool {
        self.ingested + self.steals_in == self.completed + self.failed + self.offloaded
    }
}

/// Cross-shard rollup of a [`ShardedRuntime`]'s counters.
#[derive(Clone, Debug, Default)]
pub struct ShardRollup {
    /// One row per shard.
    pub per_shard: Vec<ShardCounters>,
}

impl ShardRollup {
    /// `Σ ingested` across shards.
    pub fn total_ingested(&self) -> u64 {
        self.per_shard.iter().map(|s| s.ingested).sum()
    }

    /// `Σ completed` across shards.
    pub fn total_completed(&self) -> u64 {
        self.per_shard.iter().map(|s| s.completed).sum()
    }

    /// `Σ failed` across shards.
    pub fn total_failed(&self) -> u64 {
        self.per_shard.iter().map(|s| s.failed).sum()
    }

    /// `Σ tx_dropped` across shards.
    pub fn total_tx_dropped(&self) -> u64 {
        self.per_shard.iter().map(|s| s.tx_dropped).sum()
    }

    /// Total inter-shard hand-offs taken.
    pub fn total_steals(&self) -> u64 {
        self.per_shard.iter().map(|s| s.steals_in).sum()
    }

    /// The cross-shard conservation law, checked at quiescence:
    /// `Σ ingested == Σ completed + Σ failed + Σ tx_dropped`.
    ///
    /// (`tx_dropped` requests *did* complete but their responses were
    /// dropped; the per-shard `completed` counter already includes them,
    /// so the law here is over completions, with `tx_dropped` listed for
    /// the transport-level variant used by the server tests.)
    pub fn conservation_holds(&self) -> bool {
        self.total_ingested() == self.total_completed() + self.total_failed()
    }
}

/// N independent dispatcher+worker groups joined by the cross-shard
/// hand-off.
///
/// Each shard gets its own ingress and egress endpoint (index-aligned
/// with the shard id); the front end decides which shard's ingress a
/// request enters — the TCP server places each connection on one shard
/// at accept.
pub struct ShardedRuntime {
    shards: Vec<Runtime>,
}

impl ShardedRuntime {
    /// Starts `config.num_shards` runtimes, each consuming one entry of
    /// `ingresses`/`egresses` (index = shard id).
    ///
    /// # Panics
    ///
    /// Panics if the endpoint vectors don't match `config.num_shards`,
    /// or on the same conditions as [`Runtime::start`].
    pub fn start<A: ConcordApp, I: Ingress, E: Egress>(
        config: RuntimeConfig,
        app: Arc<A>,
        ingresses: Vec<I>,
        egresses: Vec<E>,
    ) -> Self {
        let n = config.num_shards.max(1);
        assert_eq!(ingresses.len(), n, "one ingress per shard");
        assert_eq!(egresses.len(), n, "one egress per shard");
        let links: Arc<[ShardLink]> = (0..n).map(|_| ShardLink::default()).collect();
        let mut shards = Vec::with_capacity(n);
        for (id, (ingress, egress)) in ingresses.into_iter().zip(egresses).enumerate() {
            // One shard has nobody to hand off to: it runs the plain
            // dispatcher loop.
            let ctx = (n > 1).then(|| ShardContext {
                id,
                links: links.clone(),
            });
            shards.push(Runtime::start_shard(
                config.clone(),
                app.clone(),
                ingress,
                egress,
                ctx,
            ));
        }
        Self { shards }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// One shard's live counters.
    pub fn stats(&self, shard: usize) -> Arc<RuntimeStats> {
        self.shards[shard].stats()
    }

    /// One shard's lifecycle-telemetry snapshot.
    pub fn telemetry(&self, shard: usize) -> TelemetrySnapshot {
        self.shards[shard].telemetry()
    }

    /// Quiescent per-shard counter rows plus the cross-shard totals.
    /// Meaningful after [`ShardedRuntime::quiesce`]; mid-run values are
    /// live and may be mid-migration.
    pub fn rollup(&self) -> ShardRollup {
        self.observer().rollup()
    }

    /// A read-only handle onto every shard's published state for the
    /// introspection plane. Cloneable and `Send`; the admin thread
    /// holds one while the control path keeps the `ShardedRuntime`
    /// itself (whose [`shutdown`](Self::shutdown) consumes it).
    pub fn observer(&self) -> ShardObserver {
        ShardObserver {
            shards: self.shards.iter().map(Runtime::observer).collect(),
        }
    }

    /// Stops every shard concurrently (so siblings keep draining while
    /// the first shard winds down), then joins them all. Idempotent.
    pub fn quiesce(&mut self) {
        for rt in &self.shards {
            rt.request_stop();
        }
        for rt in &mut self.shards {
            rt.quiesce();
        }
    }

    /// Takes every shard's scheduling-event trace and merges them into
    /// one, with the shard id packed into each record's track word
    /// (`track = shard << 16 | lane`). Returns `None` when tracing is
    /// disarmed.
    pub fn take_trace(&self) -> Option<concord_trace::Trace> {
        let traces: Vec<concord_trace::Trace> = self
            .shards
            .iter()
            .filter_map(|rt| rt.take_trace())
            .collect();
        if traces.is_empty() {
            return None;
        }
        Some(concord_trace::merge_shard_traces(traces))
    }

    /// Quiesces and returns the final rollup.
    pub fn shutdown(mut self) -> ShardRollup {
        self.quiesce();
        self.rollup()
    }
}

/// Read-only view of every shard's published state, detachable from the
/// [`ShardedRuntime`]'s lifetime (it only shares `Arc`s). Obtained via
/// [`ShardedRuntime::observer`]; the admin listener uses it to build
/// `/metrics` and `/statz` responses and to export the flight-recorder
/// window without owning the runtime.
#[derive(Clone)]
pub struct ShardObserver {
    shards: Vec<RuntimeObserver>,
}

impl ShardObserver {
    /// Number of shards observed.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// One shard's live counters.
    pub fn stats(&self, shard: usize) -> &Arc<RuntimeStats> {
        self.shards[shard].stats()
    }

    /// One shard's lifecycle-telemetry snapshot (including per-class
    /// rows).
    pub fn telemetry(&self, shard: usize) -> TelemetrySnapshot {
        self.shards[shard].telemetry()
    }

    /// One shard's live per-class quantum table (adaptive or fixed).
    pub fn quanta(&self, shard: usize) -> &Arc<crate::quantum::QuantumTable> {
        self.shards[shard].quanta()
    }

    /// One shard's SLO budget/blown state.
    pub fn slo(&self, shard: usize) -> &Arc<crate::quantum::SloState> {
        self.shards[shard].slo()
    }

    /// Per-shard counter rows plus cross-shard totals; live (may be
    /// mid-migration), final once the runtime has quiesced.
    pub fn rollup(&self) -> ShardRollup {
        let per_shard = self
            .shards
            .iter()
            .map(|rt| {
                let s = rt.stats();
                ShardCounters {
                    ingested: s.ingested.load(Ordering::Relaxed),
                    completed: s.completed(),
                    failed: s.failed.load(Ordering::Relaxed),
                    tx_dropped: s.tx_dropped.load(Ordering::Relaxed),
                    offloaded: s.shard_offloaded.load(Ordering::Relaxed),
                    reclaimed: 0,
                    steals_in: s.shard_steals_in.load(Ordering::Relaxed),
                    queue_max: s
                        .per_worker
                        .iter()
                        .map(|w| w.queue_max.load(Ordering::Relaxed))
                        .collect(),
                }
            })
            .collect();
        ShardRollup { per_shard }
    }

    /// Freezes and merges every shard's flight-recorder window into one
    /// trace (`track = shard << 16 | lane`) without consuming any
    /// collector — the recorders keep rolling. Returns `None` when
    /// tracing is disarmed.
    pub fn trace_snapshot(&self) -> Option<concord_trace::Trace> {
        let traces: Vec<concord_trace::Trace> = self
            .shards
            .iter()
            .filter_map(|rt| rt.trace_snapshot())
            .collect();
        if traces.is_empty() {
            return None;
        }
        Some(concord_trace::merge_shard_traces(traces))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use concord_net::Request;
    use std::time::Instant;

    fn task(id: u64) -> Task {
        let req = Request {
            id,
            class: 0,
            service_ns: 1_000,
            sent_at: Instant::now(),
        };
        Task::fresh(req, 0)
    }

    /// The id of a task a give handed back, if it refused.
    fn refused_id(r: Result<(), Task>) -> Option<u64> {
        r.err().map(|t| t.req.id)
    }

    fn taken_id(link: &ShardLink) -> Option<(usize, u64)> {
        link.take().map(|(owner, t)| (owner, t.req.id))
    }

    #[test]
    fn no_give_without_an_ask() {
        let link = ShardLink::default();
        assert!(!link.asked());
        assert_eq!(refused_id(link.give(0, task(1))), Some(1), "nobody asked");
        assert_eq!(taken_id(&link), None);
        // An ask lowered before any give is no ask either.
        link.ask(true);
        link.ask(false);
        assert!(link.give(0, task(2)).is_err());
        assert_eq!(taken_id(&link), None);
    }

    #[test]
    fn one_ask_gets_at_most_one_task() {
        let link = ShardLink::default();
        link.ask(true);
        assert!(link.asked());
        assert!(link.give(3, task(1)).is_ok(), "asked");
        assert!(!link.asked(), "the give consumed the ask");
        assert_eq!(
            refused_id(link.give(2, task(2))),
            Some(2),
            "the ask was answered"
        );
        // Re-asking while the first task still waits gets nothing more.
        link.ask(true);
        assert!(link.give(2, task(3)).is_err());
        assert_eq!(taken_id(&link), Some((3, 1)));
        assert_eq!(taken_id(&link), None);
        // Taking emptied the slot: the outstanding ask is served now.
        assert!(link.give(2, task(4)).is_ok(), "asked, slot empty");
        assert_eq!(taken_id(&link), Some((2, 4)));
    }

    #[test]
    fn a_closed_mailbox_refuses_and_the_owner_keeps_the_task() {
        let link = ShardLink::default();
        link.ask(true);
        assert!(link.close().is_none(), "nothing waiting: closes");
        assert_eq!(refused_id(link.give(0, task(1))), Some(1), "closed");
        assert_eq!(taken_id(&link), None);
    }

    #[test]
    fn close_hands_back_a_waiting_task_before_closing() {
        let link = ShardLink::default();
        link.ask(true);
        assert!(link.give(1, task(9)).is_ok(), "asked");
        let (owner, t) = link.close().expect("a task was waiting");
        assert_eq!((owner, t.req.id), (1, 9));
        // Still open until a close finds the slot empty.
        link.ask(true);
        assert!(link.give(1, task(10)).is_ok(), "not closed yet");
        assert_eq!(link.close().map(|(_, t)| t.req.id), Some(10));
        assert!(link.close().is_none());
        link.ask(true);
        assert!(link.give(1, task(11)).is_err());
    }

    #[test]
    fn per_shard_books_balance_across_a_hand_off() {
        // Shard 0 ingested 5 and gave 2 away; shard 1 took them.
        let owner = ShardCounters {
            ingested: 5,
            completed: 3,
            offloaded: 2,
            ..Default::default()
        };
        let thief = ShardCounters {
            completed: 1,
            failed: 1,
            steals_in: 2,
            ..Default::default()
        };
        assert!(owner.books_balance() && thief.books_balance());
        // A taken task that never finished.
        let lost = ShardCounters {
            completed: 0,
            ..thief.clone()
        };
        assert!(!lost.books_balance());
    }
}
