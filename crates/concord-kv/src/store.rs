//! The `Db` facade: LevelDB's read/write/scan/snapshot surface in
//! miniature.
//!
//! Concurrency follows LevelDB's shape: one store-wide lock protects the
//! mutable state (reads take it shared, writes exclusive), every write is
//! stamped with a monotonically increasing sequence number, flushes turn a
//! full memtable into an immutable sorted run, and compaction folds runs
//! together while preserving every version a live [`Snapshot`] can still
//! see. Every lock acquisition is reported to an optional
//! [`LockObserver`] — the paper's §3.1 "4 lines of code" that let the
//! Concord runtime refuse to preempt a worker inside a critical section.

use crate::bytes::Bytes;
use crate::memtable::{MemTable, Slot};
use crate::merge::{MergeIter, TaggedSource, VisibleIter};
use crate::sstable::{Entry, SsTable};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::{Mutex, RwLock};

/// Observer of the store's internal lock activity.
///
/// Implemented by the Concord runtime as a per-worker lock-depth counter;
/// the dispatcher only preempts a worker whose depth is zero.
pub trait LockObserver: Send + Sync {
    /// A store lock was acquired by the calling thread.
    fn locked(&self);
    /// A store lock was released by the calling thread.
    fn unlocked(&self);
}

/// One operation inside a [`WriteBatch`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatchOp {
    /// Insert or overwrite a key.
    Put(Bytes, Bytes),
    /// Delete a key.
    Delete(Bytes),
}

/// An atomically applied group of writes (LevelDB's `WriteBatch`).
///
/// All operations become visible together: readers see either none or all
/// of the batch.
#[derive(Clone, Debug, Default)]
pub struct WriteBatch {
    ops: Vec<BatchOp>,
}

impl WriteBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues an insert.
    pub fn put(&mut self, key: impl Into<Bytes>, value: impl Into<Bytes>) -> &mut Self {
        self.ops.push(BatchOp::Put(key.into(), value.into()));
        self
    }

    /// Queues a delete.
    pub fn delete(&mut self, key: impl Into<Bytes>) -> &mut Self {
        self.ops.push(BatchOp::Delete(key.into()));
        self
    }

    /// Number of queued operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Store tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct DbOptions {
    /// Flush the memtable to an immutable run once it holds this many
    /// bytes of payload.
    pub memtable_flush_bytes: usize,
    /// Compact (fold all runs into one) once this many runs accumulate.
    pub max_runs: usize,
}

impl Default for DbOptions {
    fn default() -> Self {
        Self {
            memtable_flush_bytes: 4 << 20,
            max_runs: 8,
        }
    }
}

/// Point-in-time statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DbStats {
    /// Versions in the active memtable (tombstones included).
    pub memtable_entries: usize,
    /// Number of immutable runs.
    pub runs: usize,
    /// Flushes performed since creation.
    pub flushes: u64,
    /// Compactions performed since creation.
    pub compactions: u64,
    /// GET calls served.
    pub gets: u64,
    /// PUT calls served.
    pub puts: u64,
    /// DELETE calls served.
    pub deletes: u64,
    /// SCAN calls served.
    pub scans: u64,
    /// Live snapshots currently pinning history.
    pub live_snapshots: usize,
    /// Latest assigned sequence number.
    pub last_seq: u64,
}

/// Refcounts of sequence numbers pinned by live snapshots.
#[derive(Debug, Default)]
struct SnapshotTracker {
    pinned: Mutex<BTreeMap<u64, usize>>,
}

impl SnapshotTracker {
    fn pin(&self, seq: u64) {
        *self
            .pinned
            .lock()
            .expect("lock poisoned")
            .entry(seq)
            .or_insert(0) += 1;
    }

    fn unpin(&self, seq: u64) {
        let mut pinned = self.pinned.lock().expect("lock poisoned");
        if let Some(count) = pinned.get_mut(&seq) {
            *count -= 1;
            if *count == 0 {
                pinned.remove(&seq);
            }
        }
    }

    /// Sequence numbers currently pinned, ascending.
    fn live(&self) -> Vec<u64> {
        self.pinned
            .lock()
            .expect("lock poisoned")
            .keys()
            .copied()
            .collect()
    }

    fn count(&self) -> usize {
        self.pinned.lock().expect("lock poisoned").len()
    }
}

/// A consistent point-in-time view of the store (LevelDB's `Snapshot`).
///
/// Reads through the snapshot see exactly the state as of its creation,
/// regardless of later writes, flushes or compactions. Dropping the
/// snapshot releases the history it pinned.
pub struct Snapshot<'a> {
    db: &'a Db,
    seq: u64,
}

impl Snapshot<'_> {
    /// The sequence number this snapshot reads at.
    pub fn sequence(&self) -> u64 {
        self.seq
    }

    /// Point lookup as of this snapshot.
    pub fn get(&self, key: &[u8]) -> Option<Bytes> {
        self.db.get_at(key, self.seq)
    }

    /// Range scan as of this snapshot.
    pub fn scan(&self, from: &[u8], limit: usize) -> Vec<(Bytes, Bytes)> {
        self.db.scan_at(from, limit, self.seq)
    }

    /// Full scan as of this snapshot.
    pub fn scan_all(&self) -> Vec<(Bytes, Bytes)> {
        self.scan(b"", usize::MAX)
    }
}

impl Drop for Snapshot<'_> {
    fn drop(&mut self) {
        self.db.snapshots.unpin(self.seq);
    }
}

struct Inner {
    mem: MemTable,
    /// Immutable runs, newest first.
    runs: Vec<Arc<SsTable>>,
    flushes: u64,
    compactions: u64,
}

/// The key-value store.
pub struct Db {
    inner: RwLock<Inner>,
    options: DbOptions,
    observer: Option<Arc<dyn LockObserver>>,
    /// Monotonic sequence stamp; incremented before each write.
    seq: AtomicU64,
    snapshots: SnapshotTracker,
    gets: AtomicU64,
    puts: AtomicU64,
    deletes: AtomicU64,
    scans: AtomicU64,
}

impl Db {
    /// Creates a store with default options and no lock observer.
    pub fn new() -> Self {
        Self::with_options(DbOptions::default())
    }

    /// Creates a store with explicit options.
    pub fn with_options(options: DbOptions) -> Self {
        Self {
            inner: RwLock::new(Inner {
                mem: MemTable::new(),
                runs: Vec::new(),
                flushes: 0,
                compactions: 0,
            }),
            options,
            observer: None,
            seq: AtomicU64::new(0),
            snapshots: SnapshotTracker::default(),
            gets: AtomicU64::new(0),
            puts: AtomicU64::new(0),
            deletes: AtomicU64::new(0),
            scans: AtomicU64::new(0),
        }
    }

    /// Attaches a lock observer (the runtime's preemption-safety counter).
    pub fn with_lock_observer(mut self, observer: Arc<dyn LockObserver>) -> Self {
        self.observer = Some(observer);
        self
    }

    fn observe_lock(&self) {
        if let Some(o) = &self.observer {
            o.locked();
        }
    }

    fn observe_unlock(&self) {
        if let Some(o) = &self.observer {
            o.unlocked();
        }
    }

    /// Takes a consistent snapshot at the current sequence.
    pub fn snapshot(&self) -> Snapshot<'_> {
        // Briefly exclude writers so the snapshot sequence is not torn
        // against a half-applied batch.
        self.observe_lock();
        let _guard = self.inner.read().expect("lock poisoned");
        let seq = self.seq.load(Ordering::Acquire);
        self.snapshots.pin(seq);
        drop(_guard);
        self.observe_unlock();
        Snapshot { db: self, seq }
    }

    /// Point lookup at the latest state.
    pub fn get(&self, key: &[u8]) -> Option<Bytes> {
        self.get_at(key, u64::MAX)
    }

    fn get_at(&self, key: &[u8], at_seq: u64) -> Option<Bytes> {
        self.gets.fetch_add(1, Ordering::Relaxed);
        self.observe_lock();
        let inner = self.inner.read().expect("lock poisoned");
        let result = (|| {
            if let Some(slot) = inner.mem.get(key, at_seq) {
                return slot.live().cloned();
            }
            for run in &inner.runs {
                if let Some(slot) = run.get(key, at_seq) {
                    return slot.live().cloned();
                }
            }
            None
        })();
        drop(inner);
        self.observe_unlock();
        result
    }

    /// Inserts or overwrites a key.
    pub fn put(&self, key: impl Into<Bytes>, value: impl Into<Bytes>) {
        self.puts.fetch_add(1, Ordering::Relaxed);
        self.observe_lock();
        {
            let mut inner = self.inner.write().expect("lock poisoned");
            let seq = self.seq.fetch_add(1, Ordering::AcqRel) + 1;
            inner.mem.put(key.into(), seq, value.into());
            self.maybe_flush(&mut inner);
        }
        self.observe_unlock();
    }

    /// Applies a [`WriteBatch`] atomically under one lock acquisition.
    /// The whole batch shares one sequence number, so snapshots see all of
    /// it or none of it (later ops in the batch win on key collisions).
    pub fn write(&self, batch: WriteBatch) {
        if batch.is_empty() {
            return;
        }
        self.observe_lock();
        {
            let mut inner = self.inner.write().expect("lock poisoned");
            let seq = self.seq.fetch_add(1, Ordering::AcqRel) + 1;
            for op in batch.ops {
                match op {
                    BatchOp::Put(k, v) => {
                        self.puts.fetch_add(1, Ordering::Relaxed);
                        inner.mem.put(k, seq, v);
                    }
                    BatchOp::Delete(k) => {
                        self.deletes.fetch_add(1, Ordering::Relaxed);
                        inner.mem.delete(k, seq);
                    }
                }
            }
            self.maybe_flush(&mut inner);
        }
        self.observe_unlock();
    }

    /// Deletes a key (writes a tombstone).
    pub fn delete(&self, key: impl Into<Bytes>) {
        self.deletes.fetch_add(1, Ordering::Relaxed);
        self.observe_lock();
        {
            let mut inner = self.inner.write().expect("lock poisoned");
            let seq = self.seq.fetch_add(1, Ordering::AcqRel) + 1;
            inner.mem.delete(key.into(), seq);
            self.maybe_flush(&mut inner);
        }
        self.observe_unlock();
    }

    /// Scans live entries with `key >= from` at the latest state, up to
    /// `limit` results (`usize::MAX` for a full scan).
    pub fn scan(&self, from: &[u8], limit: usize) -> Vec<(Bytes, Bytes)> {
        self.scan_at(from, limit, u64::MAX)
    }

    fn scan_at(&self, from: &[u8], limit: usize, at_seq: u64) -> Vec<(Bytes, Bytes)> {
        self.scans.fetch_add(1, Ordering::Relaxed);
        self.observe_lock();
        let inner = self.inner.read().expect("lock poisoned");
        let mut sources = Vec::with_capacity(1 + inner.runs.len());
        sources.push(TaggedSource::new(
            0,
            inner
                .mem
                .range_versions_from(from)
                .map(|(k, s, slot)| (k.clone(), s, slot)),
        ));
        for (i, run) in inner.runs.iter().enumerate() {
            sources.push(TaggedSource::new(
                i as u32 + 1,
                run.range_from(from)
                    .map(|e| (e.key.clone(), e.seq, e.slot.clone())),
            ));
        }
        let out: Vec<(Bytes, Bytes)> = VisibleIter::new(MergeIter::new(sources), at_seq)
            .take(limit)
            .collect();
        drop(inner);
        self.observe_unlock();
        out
    }

    /// Full scan of the whole store at the latest state.
    pub fn scan_all(&self) -> Vec<(Bytes, Bytes)> {
        self.scan(b"", usize::MAX)
    }

    /// Forces a memtable flush (testing and benchmarking hook).
    pub fn flush(&self) {
        self.observe_lock();
        {
            let mut inner = self.inner.write().expect("lock poisoned");
            Self::flush_locked(&mut inner);
            self.maybe_compact(&mut inner);
        }
        self.observe_unlock();
    }

    fn maybe_flush(&self, inner: &mut Inner) {
        if inner.mem.approximate_bytes() >= self.options.memtable_flush_bytes {
            Self::flush_locked(inner);
            self.maybe_compact(inner);
        }
    }

    fn flush_locked(inner: &mut Inner) {
        if inner.mem.is_empty() {
            return;
        }
        let mem = std::mem::take(&mut inner.mem);
        let table = SsTable::from_memtable(&mem);
        inner.runs.insert(0, Arc::new(table));
        inner.flushes += 1;
    }

    /// Folds all runs into one, keeping exactly the versions some live
    /// snapshot (or the latest state) can still observe, and dropping
    /// tombstones that no longer shadow anything.
    fn maybe_compact(&self, inner: &mut Inner) {
        if inner.runs.len() <= self.options.max_runs {
            return;
        }
        // Visibility boundaries: every live snapshot plus "latest",
        // descending.
        let mut boundaries = self.snapshots.live();
        boundaries.push(u64::MAX);
        boundaries.sort_unstable_by(|a, b| b.cmp(a));
        boundaries.dedup();

        let sources = inner
            .runs
            .iter()
            .enumerate()
            .map(|(i, run)| {
                TaggedSource::new(
                    i as u32,
                    run.iter().map(|e| (e.key.clone(), e.seq, e.slot.clone())),
                )
            })
            .collect();

        let mut out: Vec<Entry> = Vec::new();
        let mut current_key: Option<Bytes> = None;
        // Boundaries not yet "satisfied" for the current key, descending.
        let mut remaining: Vec<u64> = Vec::new();
        let mut kept_start = 0usize;

        let finish_key = |out: &mut Vec<Entry>, kept_start: usize| {
            // Drop a trailing tombstone: it is the oldest kept version of
            // its key, so nothing older remains for it to shadow.
            while out.len() > kept_start
                && matches!(out.last().map(|e| &e.slot), Some(Slot::Tombstone))
            {
                out.pop();
            }
        };

        for (key, seq, slot) in MergeIter::new(sources) {
            if current_key.as_ref() != Some(&key) {
                finish_key(&mut out, kept_start);
                current_key = Some(key.clone());
                remaining = boundaries.clone();
                kept_start = out.len();
            }
            // This version is the newest with seq ≤ b for every boundary b
            // in [seq, previous version's seq): keep it if any boundary
            // selects it.
            let mut selected = false;
            while let Some(&b) = remaining.first() {
                if seq <= b {
                    selected = true;
                    remaining.remove(0);
                } else {
                    break;
                }
            }
            if selected {
                out.push(Entry { key, seq, slot });
            }
        }
        finish_key(&mut out, kept_start);

        inner.runs = vec![Arc::new(SsTable::from_sorted(out))];
        inner.compactions += 1;
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> DbStats {
        let inner = self.inner.read().expect("lock poisoned");
        DbStats {
            memtable_entries: inner.mem.len(),
            runs: inner.runs.len(),
            flushes: inner.flushes,
            compactions: inner.compactions,
            gets: self.gets.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
            deletes: self.deletes.load(Ordering::Relaxed),
            scans: self.scans.load(Ordering::Relaxed),
            live_snapshots: self.snapshots.count(),
            last_seq: self.seq.load(Ordering::Acquire),
        }
    }
}

impl Default for Db {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicI64;

    #[test]
    fn basic_crud() {
        let db = Db::new();
        db.put(b"a".to_vec(), b"1".to_vec());
        db.put(b"b".to_vec(), b"2".to_vec());
        assert_eq!(db.get(b"a").as_deref(), Some(&b"1"[..]));
        db.put(b"a".to_vec(), b"1'".to_vec());
        assert_eq!(db.get(b"a").as_deref(), Some(&b"1'"[..]));
        db.delete(b"a".to_vec());
        assert_eq!(db.get(b"a"), None);
        assert_eq!(db.get(b"b").as_deref(), Some(&b"2"[..]));
    }

    #[test]
    fn get_reads_through_runs() {
        let db = Db::new();
        db.put(b"old".to_vec(), b"v".to_vec());
        db.flush();
        assert_eq!(db.stats().runs, 1);
        assert_eq!(db.stats().memtable_entries, 0);
        assert_eq!(db.get(b"old").as_deref(), Some(&b"v"[..]));
        db.put(b"old".to_vec(), b"v2".to_vec());
        assert_eq!(db.get(b"old").as_deref(), Some(&b"v2"[..]));
    }

    #[test]
    fn tombstone_survives_flush() {
        let db = Db::new();
        db.put(b"k".to_vec(), b"v".to_vec());
        db.flush();
        db.delete(b"k".to_vec());
        db.flush();
        assert_eq!(db.get(b"k"), None);
        assert!(!db.scan_all().iter().any(|(k, _)| k.as_ref() == b"k"));
    }

    #[test]
    fn scan_merges_all_sources_sorted() {
        let db = Db::new();
        db.put(b"c".to_vec(), b"3".to_vec());
        db.flush();
        db.put(b"a".to_vec(), b"1".to_vec());
        db.flush();
        db.put(b"b".to_vec(), b"2".to_vec());
        let all = db.scan_all();
        let keys: Vec<&[u8]> = all.iter().map(|(k, _)| k.as_ref()).collect();
        assert_eq!(keys, vec![&b"a"[..], b"b", b"c"]);
    }

    #[test]
    fn scan_respects_from_and_limit() {
        let db = Db::new();
        for i in 0..20 {
            db.put(format!("k{i:02}").into_bytes(), b"v".to_vec());
        }
        let got = db.scan(b"k05", 3);
        let keys: Vec<&[u8]> = got.iter().map(|(k, _)| k.as_ref()).collect();
        assert_eq!(keys, vec![&b"k05"[..], b"k06", b"k07"]);
    }

    #[test]
    fn compaction_folds_runs() {
        let db = Db::with_options(DbOptions {
            memtable_flush_bytes: 1, // flush on every write
            max_runs: 3,
        });
        for i in 0..10 {
            db.put(format!("k{i}").into_bytes(), b"v".to_vec());
        }
        let stats = db.stats();
        assert!(stats.compactions >= 1, "stats={stats:?}");
        assert!(stats.runs <= 3 + 1, "stats={stats:?}");
        assert_eq!(db.scan_all().len(), 10);
    }

    #[test]
    fn compaction_drops_shadowed_and_deleted_data() {
        let db = Db::with_options(DbOptions {
            memtable_flush_bytes: 1,
            max_runs: 2,
        });
        db.put(b"k".to_vec(), b"v1".to_vec());
        db.put(b"k".to_vec(), b"v2".to_vec());
        db.delete(b"k".to_vec());
        db.put(b"other".to_vec(), b"x".to_vec());
        db.put(b"pad1".to_vec(), b"x".to_vec());
        db.put(b"pad2".to_vec(), b"x".to_vec());
        assert_eq!(db.get(b"k"), None);
        assert_eq!(db.scan_all().len(), 3);
        // With no live snapshots, only the latest version per key remains,
        // and k's tombstone is gone entirely.
        let total_versions: usize = {
            let inner = db.inner.read().expect("lock poisoned");
            inner.runs.iter().map(|r| r.len()).sum::<usize>() + inner.mem.len()
        };
        assert!(total_versions <= 4, "versions={total_versions}");
    }

    // --- Snapshots -------------------------------------------------------

    #[test]
    fn snapshot_sees_frozen_state() {
        let db = Db::new();
        db.put(b"k".to_vec(), b"v1".to_vec());
        let snap = db.snapshot();
        db.put(b"k".to_vec(), b"v2".to_vec());
        db.delete(b"k".to_vec());
        db.put(b"new".to_vec(), b"n".to_vec());
        assert_eq!(snap.get(b"k").as_deref(), Some(&b"v1"[..]));
        assert_eq!(snap.get(b"new"), None);
        assert_eq!(db.get(b"k"), None);
        assert_eq!(db.get(b"new").as_deref(), Some(&b"n"[..]));
    }

    #[test]
    fn snapshot_scan_is_consistent() {
        let db = Db::new();
        for i in 0..10 {
            db.put(format!("k{i}").into_bytes(), b"v".to_vec());
        }
        let snap = db.snapshot();
        for i in 0..5 {
            db.delete(format!("k{i}").into_bytes());
        }
        db.put(b"zz".to_vec(), b"late".to_vec());
        assert_eq!(snap.scan_all().len(), 10);
        assert_eq!(db.scan_all().len(), 6);
    }

    #[test]
    fn snapshot_survives_flush_and_compaction() {
        let db = Db::with_options(DbOptions {
            memtable_flush_bytes: 1,
            max_runs: 2,
        });
        db.put(b"k".to_vec(), b"old".to_vec());
        let snap = db.snapshot();
        // Churn enough to force flushes and compactions.
        for i in 0..20 {
            db.put(format!("pad{i}").into_bytes(), b"x".to_vec());
        }
        db.put(b"k".to_vec(), b"new".to_vec());
        for i in 0..10 {
            db.put(format!("more{i}").into_bytes(), b"x".to_vec());
        }
        assert!(db.stats().compactions > 0);
        assert_eq!(
            snap.get(b"k").as_deref(),
            Some(&b"old"[..]),
            "pinned version survives"
        );
        assert_eq!(db.get(b"k").as_deref(), Some(&b"new"[..]));
    }

    #[test]
    fn dropping_snapshot_releases_history() {
        let db = Db::with_options(DbOptions {
            memtable_flush_bytes: 1,
            max_runs: 2,
        });
        db.put(b"k".to_vec(), b"old".to_vec());
        let snap = db.snapshot();
        assert_eq!(db.stats().live_snapshots, 1);
        db.put(b"k".to_vec(), b"new".to_vec());
        drop(snap);
        assert_eq!(db.stats().live_snapshots, 0);
        // Force a compaction: the old version can now be reclaimed.
        for i in 0..10 {
            db.put(format!("pad{i}").into_bytes(), b"x".to_vec());
        }
        let inner = db.inner.read().expect("lock poisoned");
        let k_versions = inner
            .runs
            .iter()
            .flat_map(|r| r.iter())
            .filter(|e| e.key.as_ref() == b"k")
            .count();
        assert!(k_versions <= 1, "old version not reclaimed: {k_versions}");
    }

    #[test]
    fn snapshot_of_deleted_key_sees_through_later_revival() {
        let db = Db::new();
        db.put(b"k".to_vec(), b"v1".to_vec());
        db.delete(b"k".to_vec());
        let snap_deleted = db.snapshot();
        db.put(b"k".to_vec(), b"v2".to_vec());
        assert_eq!(snap_deleted.get(b"k"), None);
        assert_eq!(db.get(b"k").as_deref(), Some(&b"v2"[..]));
    }

    #[test]
    fn multiple_snapshots_pin_distinct_versions() {
        let db = Db::with_options(DbOptions {
            memtable_flush_bytes: 1,
            max_runs: 2,
        });
        db.put(b"k".to_vec(), b"v1".to_vec());
        let s1 = db.snapshot();
        db.put(b"k".to_vec(), b"v2".to_vec());
        let s2 = db.snapshot();
        db.put(b"k".to_vec(), b"v3".to_vec());
        // Churn to force compaction with both snapshots live.
        for i in 0..10 {
            db.put(format!("pad{i}").into_bytes(), b"x".to_vec());
        }
        assert_eq!(s1.get(b"k").as_deref(), Some(&b"v1"[..]));
        assert_eq!(s2.get(b"k").as_deref(), Some(&b"v2"[..]));
        assert_eq!(db.get(b"k").as_deref(), Some(&b"v3"[..]));
    }

    #[test]
    fn write_batch_applies_atomically_and_in_order() {
        let db = Db::new();
        db.put(b"a".to_vec(), b"seed".to_vec());
        let mut batch = WriteBatch::new();
        batch
            .put(b"a".to_vec(), b"1".to_vec())
            .put(b"b".to_vec(), b"2".to_vec())
            .delete(b"a".to_vec())
            .put(b"c".to_vec(), b"3".to_vec());
        assert_eq!(batch.len(), 4);
        db.write(batch);
        // Later ops in the batch win: the delete shadows the earlier put.
        assert_eq!(db.get(b"a"), None);
        assert_eq!(db.get(b"b").as_deref(), Some(&b"2"[..]));
        assert_eq!(db.get(b"c").as_deref(), Some(&b"3"[..]));
        let s = db.stats();
        assert_eq!((s.puts, s.deletes), (4, 1));
    }

    #[test]
    fn snapshot_never_sees_half_a_batch() {
        let db = Db::new();
        db.put(b"a".to_vec(), b"0".to_vec());
        let before = db.snapshot();
        let mut batch = WriteBatch::new();
        batch
            .put(b"a".to_vec(), b"1".to_vec())
            .put(b"b".to_vec(), b"1".to_vec());
        db.write(batch);
        let after = db.snapshot();
        assert_eq!(before.get(b"a").as_deref(), Some(&b"0"[..]));
        assert_eq!(before.get(b"b"), None);
        assert_eq!(after.get(b"a").as_deref(), Some(&b"1"[..]));
        assert_eq!(after.get(b"b").as_deref(), Some(&b"1"[..]));
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let db = Db::new();
        db.write(WriteBatch::new());
        assert_eq!(db.stats().puts, 0);
        assert_eq!(db.stats().last_seq, 0);
    }

    #[test]
    fn batch_takes_one_lock_roundtrip() {
        struct Counter(AtomicU64);
        impl LockObserver for Counter {
            fn locked(&self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
            fn unlocked(&self) {}
        }
        let counter = Arc::new(Counter(AtomicU64::new(0)));
        let db = Db::new().with_lock_observer(counter.clone());
        let mut batch = WriteBatch::new();
        for i in 0..50u32 {
            batch.put(format!("k{i}").into_bytes(), b"v".to_vec());
        }
        db.write(batch);
        assert_eq!(
            counter.0.load(Ordering::SeqCst),
            1,
            "one acquisition for 50 writes"
        );
    }

    #[test]
    fn lock_observer_balances() {
        struct Counter {
            depth: AtomicI64,
            max: AtomicI64,
            events: AtomicU64,
        }
        impl LockObserver for Counter {
            fn locked(&self) {
                let d = self.depth.fetch_add(1, Ordering::SeqCst) + 1;
                self.max.fetch_max(d, Ordering::SeqCst);
                self.events.fetch_add(1, Ordering::SeqCst);
            }
            fn unlocked(&self) {
                self.depth.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let counter = Arc::new(Counter {
            depth: AtomicI64::new(0),
            max: AtomicI64::new(0),
            events: AtomicU64::new(0),
        });
        let db = Db::new().with_lock_observer(counter.clone());
        db.put(b"a".to_vec(), b"1".to_vec());
        let _ = db.get(b"a");
        let _ = db.scan_all();
        let snap = db.snapshot();
        let _ = snap.get(b"a");
        drop(snap);
        db.delete(b"a".to_vec());
        db.flush();
        assert_eq!(
            counter.depth.load(Ordering::SeqCst),
            0,
            "unbalanced lock events"
        );
        assert!(counter.events.load(Ordering::SeqCst) >= 6);
        assert_eq!(counter.max.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn stats_count_operations() {
        let db = Db::new();
        db.put(b"a".to_vec(), b"1".to_vec());
        db.put(b"b".to_vec(), b"2".to_vec());
        let _ = db.get(b"a");
        let _ = db.scan_all();
        db.delete(b"b".to_vec());
        let s = db.stats();
        assert_eq!((s.puts, s.gets, s.scans, s.deletes), (2, 1, 1, 1));
        assert_eq!(s.last_seq, 3);
    }

    #[test]
    fn concurrent_readers_and_writer() {
        let db = Arc::new(Db::new());
        for i in 0..1_000 {
            db.put(format!("k{i:04}").into_bytes(), b"v".to_vec());
        }
        let readers: Vec<_> = (0..4)
            .map(|t| {
                let db = db.clone();
                std::thread::spawn(move || {
                    for i in 0..1_000 {
                        let k = format!("k{:04}", (i * 7 + t * 13) % 1_000);
                        assert!(db.get(k.as_bytes()).is_some());
                    }
                })
            })
            .collect();
        for i in 1_000..1_200 {
            db.put(format!("k{i:04}").into_bytes(), b"v".to_vec());
        }
        for r in readers {
            r.join().expect("reader");
        }
        assert_eq!(db.scan_all().len(), 1_200);
    }
}
