//! The cross-shard hand-off that joins a [`Runtime`](crate::Runtime)'s
//! shards, and the per-shard counters it is checked by.
//!
//! Each shard is one dispatcher and its workers, running the same
//! `DispatcherLoop` a one-shard runtime runs, so every per-shard
//! invariant (JBSQ ≤ k, signal-generation tagging) holds per shard. The
//! only coupling is the [`ShardLink`]: a one-slot mailbox per shard
//! through which **never-started** work moves to a shard that asked for
//! it (RackSched-style: balance by placement, take work only when idle).
//!
//! - **Ask** (the idle shard): with an empty central queue, a free JBSQ
//!   slot and an empty mailbox, a dispatcher raises its own `hungry`
//!   flag. Every pass it takes whatever its mailbox holds.
//! - **Give** (the saturated owner): with every worker full and
//!   never-started work queued, the owner consumes a sibling's ask and
//!   moves its *youngest* never-started task, marked with the shard that
//!   ingested it, into that sibling's mailbox. A closed or still-occupied
//!   mailbox refuses, and the owner keeps the task. Only never-started
//!   tasks move, so a migrated coroutine has no generation state and no
//!   instrumentation affinity to violate.
//! - **Answer** (the taker): it runs the task but puts the response in
//!   the home shard's link, whose dispatcher emits it: a shard's egress
//!   carries exactly the answers to what its own ingress delivered.
//! - **Close** (the drained shard): once all it gave away has come home
//!   (a taker never waits, so this cannot deadlock), it runs anything
//!   still in its mailbox, and only then marks the mailbox closed.
//!
//! A task leaves its owner only for a shard that asked, so nothing is
//! ever parked and nothing needs reclaiming.
//!
//! Counter model: `ingested` and the answer (or `tx_dropped`) are charged
//! to the shard that polled the request, `offloaded` to the shard that
//! gave it away, `steals_in` to the shard that took it, completion to
//! the shard that ran it. At quiescence every shard's books balance,
//! `ingested + steals_in == completed + failed + offloaded`, every
//! hand-off was taken once, `Σ offloaded == Σ steals_in` (`tx_dropped`
//! is inside `completed`), and every shard's egress carried `ingested −
//! tx_dropped` answers.

use crate::task::Task;
use concord_net::Response;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// One shard's hand-off endpoint: its ask, its one-slot mailbox and the
/// answers that come home to it. The shard itself asks, takes and
/// closes; a saturated sibling gives, and one that ran its request
/// answers.
#[derive(Default)]
pub struct ShardLink {
    /// Raised by the idle shard; a giver swaps it back to `false`, so
    /// one ask is answered by at most one task. It publishes no data
    /// (the task crosses under the mailbox lock), so every access is
    /// `Relaxed`.
    hungry: AtomicBool,
    /// The mailbox holds answers: written under its lock and read without
    /// it (a pass with nothing to take costs one load). It publishes no
    /// data, the answers cross under the lock, so it is `Relaxed`.
    answered: AtomicBool,
    /// The handed-off task, whether the shard has drained and accepts
    /// no more, and the answers that came home.
    mailbox: Mutex<Mailbox>,
}

#[derive(Default)]
struct Mailbox {
    task: Option<Task>,
    closed: bool,
    answers: Vec<Response>,
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

    /// Giving side: consumes this shard's ask and moves `task`, marked
    /// as ingested by shard `owner`, into its mailbox. Returns the task
    /// back when there was no ask, the mailbox still holds an earlier
    /// task, or it is closed.
    pub(crate) fn give(&self, owner: usize, mut task: Task) -> Result<(), Task> {
        let mut mb = self.mailbox.lock().expect("mailbox lock poisoned");
        if mb.closed || mb.task.is_some() || !self.hungry.swap(false, Ordering::Relaxed) {
            return Err(task);
        }
        task.mark_home(owner);
        mb.task = Some(task);
        Ok(())
    }

    /// Asking side: takes the handed-off task, if any.
    pub(crate) fn take(&self) -> Option<Task> {
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
    pub(crate) fn close(&self) -> Option<Task> {
        let mut mb = self.mailbox.lock().expect("mailbox lock poisoned");
        let task = mb.task.take();
        mb.closed = task.is_none();
        task
    }

    /// Running side: hands this shard the answer to a request it
    /// ingested and a sibling ran.
    pub(crate) fn answer(&self, resp: Response) {
        let mut mb = self.mailbox.lock().expect("mailbox lock poisoned");
        mb.answers.push(resp);
        self.answered.store(true, Ordering::Relaxed);
    }

    /// Home side: swaps the answers that came home into `into` (empty).
    pub(crate) fn take_answers(&self, into: &mut Vec<Response>) {
        if !self.answered.load(Ordering::Relaxed) {
            return;
        }
        let mut mb = self.mailbox.lock().expect("mailbox lock poisoned");
        std::mem::swap(&mut mb.answers, into);
        self.answered.store(false, Ordering::Relaxed);
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

/// Per-shard counter rows of a [`Runtime`](crate::Runtime), and their
/// cross-shard totals.
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
    /// `Σ ingested == Σ completed + Σ failed` (a `tx_dropped` request did
    /// complete, so `completed` already includes it).
    pub fn conservation_holds(&self) -> bool {
        self.total_ingested() == self.total_completed() + self.total_failed()
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

    /// The owner and id of the task the link holds, if any.
    fn taken_id(link: &ShardLink) -> Option<(usize, u64)> {
        link.take().map(|t| (t.home().expect("marked"), t.req.id))
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
        let t = link.close().expect("a task was waiting");
        assert_eq!((t.home(), t.req.id), (Some(1), 9));
        // Still open until a close finds the slot empty.
        link.ask(true);
        assert!(link.give(1, task(10)).is_ok(), "not closed yet");
        assert_eq!(link.close().map(|t| t.req.id), Some(10));
        assert!(link.close().is_none());
        link.ask(true);
        assert!(link.give(1, task(11)).is_err());
    }

    #[test]
    fn a_task_keeps_the_mark_of_the_shard_that_ingested_it() {
        let (first, second) = (ShardLink::default(), ShardLink::default());
        let t = task(1);
        assert_eq!(t.home(), None, "ingested here");
        first.ask(true);
        assert!(first.give(2, t).is_ok());
        let t = first.take().expect("given");
        assert_eq!(t.home(), Some(2));
        // Handed on by the taker: its answer still goes to shard 2.
        second.ask(true);
        assert!(second.give(0, t).is_ok());
        assert_eq!(taken_id(&second), Some((2, 1)));
    }

    #[test]
    fn answers_come_home_in_order_and_only_when_sent() {
        let link = ShardLink::default();
        let mut got = Vec::new();
        link.take_answers(&mut got);
        assert!(got.is_empty(), "nothing owed");
        for id in [4, 5] {
            link.answer(Response::completed(&task(id).req));
        }
        link.take_answers(&mut got);
        assert_eq!(got.iter().map(|r| r.id).collect::<Vec<_>>(), [4, 5]);
        // The list stays open past a close: a drained taker's answers
        // still reach a shard that waits for them.
        assert!(link.close().is_none());
        got.clear();
        link.answer(Response::completed(&task(6).req));
        link.take_answers(&mut got);
        assert_eq!(got.iter().map(|r| r.id).collect::<Vec<_>>(), [6]);
        got.clear();
        link.take_answers(&mut got);
        assert!(got.is_empty(), "each answer is taken once");
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
