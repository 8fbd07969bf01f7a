//! Property tests: the store behaves exactly like a `BTreeMap` model under
//! arbitrary interleavings of put/delete/flush and implicit compaction.

use concord_kv::{Db, DbOptions, Snapshot};
use concord_testkit::prelude::*;
use std::collections::BTreeMap;

/// The reference the store is checked against: key bytes to value bytes.
type Model = BTreeMap<Vec<u8>, Vec<u8>>;

#[derive(Clone, Debug)]
enum Op {
    Put(u16, u16),
    Delete(u16),
    Flush,
    TakeSnapshot,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u16..200, any::<u16>()).prop_map(|(k, v)| Op::Put(k, v)),
        2 => (0u16..200).prop_map(Op::Delete),
        1 => Just(Op::Flush),
    ]
}

fn op_strategy_with_snapshots() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u16..200, any::<u16>()).prop_map(|(k, v)| Op::Put(k, v)),
        2 => (0u16..200).prop_map(Op::Delete),
        1 => Just(Op::Flush),
        1 => Just(Op::TakeSnapshot),
    ]
}

fn key(k: u16) -> Vec<u8> {
    format!("key{k:05}").into_bytes()
}

fn val(v: u16) -> Vec<u8> {
    format!("val{v:05}").into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matches_btreemap_model(ops in prop::collection::vec(op_strategy(), 1..300)) {
        let db = Db::with_options(DbOptions {
            memtable_flush_bytes: 256, // flush often to exercise runs
            max_runs: 3,               // compact often too
        });
        let mut model = Model::new();
        for op in &ops {
            match op {
                Op::Put(k, v) => {
                    db.put(key(*k), val(*v));
                    model.insert(key(*k), val(*v));
                }
                Op::Delete(k) => {
                    db.delete(key(*k));
                    model.remove(&key(*k));
                }
                Op::Flush => db.flush(),
                Op::TakeSnapshot => {}
            }
        }
        // Point lookups agree.
        for k in 0u16..200 {
            let got = db.get(&key(k));
            let want = model.get(&key(k));
            prop_assert_eq!(got.as_deref(), want.map(Vec::as_slice), "key {}", k);
        }
        // Full scan agrees (order and content).
        let scan = db.scan_all();
        prop_assert_eq!(scan.len(), model.len());
        for ((gk, gv), (wk, wv)) in scan.iter().zip(model.iter()) {
            prop_assert_eq!(gk.as_ref(), wk.as_slice());
            prop_assert_eq!(gv.as_ref(), wv.as_slice());
        }
    }

    #[test]
    fn range_scans_match_model(
        ops in prop::collection::vec(op_strategy(), 1..150),
        from in 0u16..200,
        limit in 1usize..50,
    ) {
        let db = Db::with_options(DbOptions {
            memtable_flush_bytes: 512,
            max_runs: 4,
        });
        let mut model = Model::new();
        for op in &ops {
            match op {
                Op::Put(k, v) => {
                    db.put(key(*k), val(*v));
                    model.insert(key(*k), val(*v));
                }
                Op::Delete(k) => {
                    db.delete(key(*k));
                    model.remove(&key(*k));
                }
                Op::Flush => db.flush(),
                Op::TakeSnapshot => {}
            }
        }
        let got = db.scan(&key(from), limit);
        let want: Vec<(&Vec<u8>, &Vec<u8>)> =
            model.range(key(from)..).take(limit).collect();
        prop_assert_eq!(got.len(), want.len());
        for ((gk, gv), (wk, wv)) in got.iter().zip(want) {
            prop_assert_eq!(gk.as_ref(), wk.as_slice());
            prop_assert_eq!(gv.as_ref(), wv.as_slice());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Snapshots behave exactly like frozen clones of the model, surviving
    /// any interleaving of later writes, flushes and compactions.
    #[test]
    fn snapshots_match_frozen_models(
        ops in prop::collection::vec(op_strategy_with_snapshots(), 1..250),
    ) {
        let db = Db::with_options(DbOptions {
            memtable_flush_bytes: 256,
            max_runs: 3,
        });
        let mut model = Model::new();
        let mut snaps: Vec<(Snapshot<'_>, Model)> = Vec::new();
        for op in &ops {
            match op {
                Op::Put(k, v) => {
                    db.put(key(*k), val(*v));
                    model.insert(key(*k), val(*v));
                }
                Op::Delete(k) => {
                    db.delete(key(*k));
                    model.remove(&key(*k));
                }
                Op::Flush => db.flush(),
                Op::TakeSnapshot => {
                    if snaps.len() < 6 {
                        snaps.push((db.snapshot(), model.clone()));
                    }
                }
            }
        }
        for (snap, frozen) in &snaps {
            // Spot-check point reads at every key the frozen model has,
            // plus a few misses.
            for k in 0u16..200 {
                let got = snap.get(&key(k));
                let want = frozen.get(&key(k));
                prop_assert_eq!(got.as_deref(), want.map(Vec::as_slice),
                    "snapshot seq {} key {}", snap.sequence(), k);
            }
            // Full scans agree exactly.
            let scan = snap.scan_all();
            prop_assert_eq!(scan.len(), frozen.len());
            for ((gk, gv), (wk, wv)) in scan.iter().zip(frozen.iter()) {
                prop_assert_eq!(gk.as_ref(), wk.as_slice());
                prop_assert_eq!(gv.as_ref(), wv.as_slice());
            }
        }
    }
}
