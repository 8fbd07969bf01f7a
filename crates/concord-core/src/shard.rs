//! Sharding: N independent dispatcher+worker groups joined by a bounded
//! inter-shard steal path.
//!
//! Each shard is a complete single-dispatcher runtime — today's
//! `DispatcherLoop` unchanged at its core — so every per-shard invariant
//! (JBSQ ≤ k, signal-generation tagging, conservation of its own
//! counters at quiescence modulo migration) holds exactly as before. The
//! only new coupling is the [`ShardLink`]: a small bounded overflow ring
//! per shard through which **not-yet-started** work migrates.
//!
//! Protocol (RackSched-style two layers, stealing per Scully &
//! Harchol-Balter's bounded multi-queue argument):
//!
//! - **Offload** (owner only): when every worker queue is full, the
//!   owner moves its *youngest* never-started tasks into its own
//!   overflow ring, making them visible to idle siblings. The oldest
//!   work keeps its round-robin position locally.
//! - **Steal** (siblings): an idle dispatcher (empty central queue, a
//!   free JBSQ slot) pops one task from the *most-loaded* sibling's
//!   overflow ring per loop iteration. Only never-started tasks ever
//!   enter a ring, so a migrated coroutine has no generation state and
//!   no instrumentation affinity to violate.
//! - **Reclaim** (owner only): when the owner is idle again (a worker
//!   freed up before any sibling stole), it pulls its own overflow back
//!   into the central queue. At shutdown the owner always drains its
//!   ring — siblings only ever pop, so the ring cannot wedge.
//!
//! Counter model: `ingested` is charged to the shard that polled the
//! request; completion is charged to the shard that ran it. A stolen
//! task therefore makes the *per-shard* conservation law fail open by
//! design, and the cross-shard law the conformance oracle checks is the
//! one that must hold at quiescence: `Σ ingested == Σ completed + Σ
//! failed` (a dropped response's request did complete, so `tx_dropped`
//! is inside `completed`, not beside it).

use crate::app::ConcordApp;
use crate::config::RuntimeConfig;
use crate::runtime::{Runtime, RuntimeObserver};
use crate::stats::RuntimeStats;
use crate::task::Task;
use crate::telemetry::TelemetrySnapshot;
use crate::transport::{Egress, Ingress};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Default bound of each shard's overflow ring (tasks).
pub const DEFAULT_OVERFLOW_CAP: usize = 64;

/// One shard's steal-path endpoint. The owning dispatcher pushes and
/// reclaims; sibling dispatchers only pop.
pub struct ShardLink {
    /// Never-started tasks the owner shed, available to siblings.
    overflow: Mutex<VecDeque<Task>>,
    /// Mirror of `overflow.len()`, readable without the lock so victim
    /// selection (max across siblings) costs one relaxed load per shard.
    overflow_len: AtomicUsize,
    /// Ring bound.
    cap: usize,
    /// Tasks siblings have taken from this ring (incremented by the
    /// thief; read by the rollup).
    steals_out: AtomicU64,
}

impl ShardLink {
    /// A link with the given overflow bound.
    pub fn new(cap: usize) -> Self {
        Self {
            overflow: Mutex::new(VecDeque::new()),
            overflow_len: AtomicUsize::new(0),
            cap: cap.max(1),
            steals_out: AtomicU64::new(0),
        }
    }

    /// Current overflow occupancy (relaxed; a hint for victim selection).
    pub fn len(&self) -> usize {
        self.overflow_len.load(Ordering::Relaxed)
    }

    /// Whether the overflow ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the ring has room for another offload.
    pub fn has_room(&self) -> bool {
        self.len() < self.cap
    }

    /// Tasks siblings have stolen from this shard so far.
    pub fn steals_out(&self) -> u64 {
        self.steals_out.load(Ordering::Relaxed)
    }

    /// Owner-side: sheds one never-started task into the ring. Returns
    /// the task back when the ring is full.
    pub(crate) fn offer(&self, task: Task) -> Result<(), Task> {
        let mut q = self.overflow.lock().expect("overflow lock");
        if q.len() >= self.cap {
            return Err(task);
        }
        q.push_back(task);
        self.overflow_len.store(q.len(), Ordering::Relaxed);
        Ok(())
    }

    /// Owner-side: reclaims the oldest shed task.
    pub(crate) fn reclaim(&self) -> Option<Task> {
        let mut q = self.overflow.lock().expect("overflow lock");
        let t = q.pop_front();
        self.overflow_len.store(q.len(), Ordering::Relaxed);
        t
    }

    /// Sibling-side: steals the oldest shed task, counting it.
    pub(crate) fn steal(&self) -> Option<Task> {
        let mut q = self.overflow.lock().expect("overflow lock");
        let t = q.pop_front();
        if t.is_some() {
            self.overflow_len.store(q.len(), Ordering::Relaxed);
            self.steals_out.fetch_add(1, Ordering::Relaxed);
        }
        t
    }
}

/// A dispatcher's view of the shard topology: its own id plus every
/// shard's link (including its own, at `links[id]`).
#[derive(Clone)]
pub struct ShardContext {
    /// This shard's index.
    pub id: usize,
    /// All shards' steal-path endpoints.
    pub links: Arc<Vec<Arc<ShardLink>>>,
}

impl ShardContext {
    /// This shard's own link.
    pub fn own(&self) -> &ShardLink {
        &self.links[self.id]
    }

    /// The most-loaded sibling with a non-empty overflow ring, if any.
    pub fn busiest_sibling(&self) -> Option<usize> {
        self.links
            .iter()
            .enumerate()
            .filter(|(i, l)| *i != self.id && !l.is_empty())
            .max_by_key(|(_, l)| l.len())
            .map(|(i, _)| i)
    }
}

/// Quiescent per-shard counters, the oracle inputs for the cross-shard
/// conservation law.
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
    /// Tasks this shard shed into its overflow ring.
    pub offloaded: u64,
    /// Tasks this shard reclaimed from its own ring.
    pub reclaimed: u64,
    /// Tasks this shard stole from siblings.
    pub steals_in: u64,
    /// Tasks siblings stole from this shard.
    pub steals_out: u64,
    /// Per-worker JBSQ occupancy high-watermarks.
    pub queue_max: Vec<u64>,
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

    /// Total inter-shard steals.
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

/// N independent dispatcher+worker groups joined by the bounded
/// inter-shard steal path.
///
/// Each shard gets its own ingress and egress endpoint (index-aligned
/// with the shard id); the front end decides which shard's ingress a
/// request enters — the TCP server places each connection on one shard
/// at accept.
pub struct ShardedRuntime {
    shards: Vec<Runtime>,
    links: Arc<Vec<Arc<ShardLink>>>,
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
        let links: Arc<Vec<Arc<ShardLink>>> = Arc::new(
            (0..n)
                .map(|_| Arc::new(ShardLink::new(DEFAULT_OVERFLOW_CAP)))
                .collect(),
        );
        let mut shards = Vec::with_capacity(n);
        for (id, (ingress, egress)) in ingresses.into_iter().zip(egresses).enumerate() {
            let ctx = ShardContext {
                id,
                links: links.clone(),
            };
            shards.push(Runtime::start_sharded(
                config.clone(),
                app.clone(),
                ingress,
                egress,
                ctx,
            ));
        }
        Self { shards, links }
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
            links: self.links.clone(),
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
    links: Arc<Vec<Arc<ShardLink>>>,
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
            .enumerate()
            .map(|(i, rt)| {
                let s = rt.stats();
                ShardCounters {
                    ingested: s.ingested.load(Ordering::Relaxed),
                    completed: s.completed(),
                    failed: s.failed.load(Ordering::Relaxed),
                    tx_dropped: s.tx_dropped.load(Ordering::Relaxed),
                    offloaded: s.shard_offloaded.load(Ordering::Relaxed),
                    reclaimed: s.shard_reclaimed.load(Ordering::Relaxed),
                    steals_in: s.shard_steals_in.load(Ordering::Relaxed),
                    steals_out: self.links[i].steals_out(),
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
