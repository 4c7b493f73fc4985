//! Equivalence proptests for the hot tier: a hot-tier-fronted engine
//! must be observationally identical to the synchronous tree-only path.
//!
//! Two `ForkBase` handles run the same randomized op schedule — one with
//! the tier on (writes land in the flat hash map and are published
//! asynchronously), one with it off (every hot op degrades to a
//! synchronous `commit_map_batch`/map read). After **every** op the
//! visible state must agree, and after a final flush the committed map
//! root cids must be byte-identical: POS-Tree history-independence means
//! identical content ⇒ identical roots, regardless of how writes were
//! batched into publish rounds along the way.
//!
//! The `FB_HOT_TIER` CI matrix leg varies the publisher schedule rather
//! than skipping anything: leg `0` runs an aggressive config
//! (2-edit rounds, 1 ms interval) so publish rounds constantly race the
//! checks, leg `1` (and local runs) the `on()` defaults where most
//! publishing happens inside `flush_hot`/drains. Both legs must pass.

use bytes::Bytes;
use forkbase_core::{ForkBase, HotTierConfig, WriteBatch, DEFAULT_BRANCH};
use proptest::prelude::*;
use std::time::Duration;

/// Engine keys the schedule spreads over: enough for cross-key batching
/// in one publish round, few enough that each sees real contention.
const KEYS: [&str; 3] = ["state/a", "state/b", "state/c"];

fn hot_cfg() -> HotTierConfig {
    match std::env::var("FB_HOT_TIER").as_deref() {
        Ok("0") => HotTierConfig {
            enabled: true,
            publish_batch: 2,
            publish_interval: Duration::from_millis(1),
        },
        _ => HotTierConfig::on(),
    }
}

#[derive(Clone, Debug)]
enum HotOp {
    /// `hot_put` on KEYS[i].
    Put(usize, String, String),
    /// `hot_delete` on KEYS[i].
    Del(usize, String),
    /// `flush_hot`: forces a full publish + quiescent point.
    Flush,
    /// A direct tree write through `commit_map_batch` — exercises the
    /// drain + invalidate coordination path.
    TreeBatch(usize, Vec<(String, Option<String>)>),
    /// Fork the default branch of KEYS[i] to `side`, then remove the
    /// default branch.
    ForkRemove(usize),
    /// Rename the default branch of KEYS[i] to `moved` (dropping an
    /// older `moved` first).
    Rename(usize),
    /// `checkpoint`, then read every key from an instance restored from
    /// it.
    Checkpoint,
}

fn key_idx() -> impl Strategy<Value = usize> {
    0usize..KEYS.len()
}

fn subkey() -> impl Strategy<Value = String> {
    // A tiny subkey space so puts, deletes, and tree writes constantly
    // collide on the same entries.
    "[a-d]"
}

fn hot_op() -> impl Strategy<Value = HotOp> {
    prop_oneof![
        6 => (key_idx(), subkey(), "[a-z]{0,6}").prop_map(|(k, s, v)| HotOp::Put(k, s, v)),
        2 => (key_idx(), subkey()).prop_map(|(k, s)| HotOp::Del(k, s)),
        1 => Just(HotOp::Flush),
        2 => (
            key_idx(),
            prop::collection::vec((subkey(), prop::option::of("[a-z]{0,6}")), 1..4),
        )
            .prop_map(|(k, edits)| HotOp::TreeBatch(k, edits)),
        1 => key_idx().prop_map(HotOp::ForkRemove),
        1 => key_idx().prop_map(HotOp::Rename),
        1 => Just(HotOp::Checkpoint),
    ]
}

const SUBKEYS: [&[u8]; 4] = [b"a", b"b", b"c", b"d"];

/// Apply `op`, returning what it observed (branch-op outcomes, restored
/// reads), which must match between the two instances.
fn apply(db: &ForkBase, op: &HotOp) -> Vec<String> {
    match op {
        HotOp::Put(k, sk, v) => db
            .hot_put(KEYS[*k], sk.clone(), v.clone())
            .expect("hot put"),
        HotOp::Del(k, sk) => db.hot_delete(KEYS[*k], sk.clone()).expect("hot delete"),
        HotOp::Flush => db.flush_hot().expect("flush"),
        HotOp::TreeBatch(k, edits) => {
            let mut wb = WriteBatch::new();
            for (sk, v) in edits {
                match v {
                    Some(v) => {
                        wb.put(Bytes::from(sk.clone()), Bytes::from(v.clone()));
                    }
                    None => {
                        wb.delete(Bytes::from(sk.clone()));
                    }
                }
            }
            db.commit_map_batch(KEYS[*k], None, wb).expect("tree batch");
        }
        HotOp::ForkRemove(k) => {
            let _ = db.remove_branch(KEYS[*k], "side");
            let fork = db.fork(KEYS[*k], DEFAULT_BRANCH, "side");
            let remove = db.remove_branch(KEYS[*k], DEFAULT_BRANCH);
            return vec![format!("{:?} {:?}", fork.is_ok(), remove.is_ok())];
        }
        HotOp::Rename(k) => {
            let _ = db.remove_branch(KEYS[*k], "moved");
            let rename = db.rename_branch(KEYS[*k], DEFAULT_BRANCH, "moved");
            return vec![format!("{:?}", rename.is_ok())];
        }
        HotOp::Checkpoint => {
            let cid = db.checkpoint().expect("checkpoint");
            let restored =
                ForkBase::restore(db.store_arc(), db.cfg().clone(), cid).expect("restore");
            let mut reads = Vec::new();
            for key in KEYS {
                for sk in SUBKEYS {
                    let v = restored.hot_get(key, sk).expect("restored read");
                    reads.push(format!("{key} {v:?}"));
                }
            }
            return reads;
        }
    }
    Vec::new()
}

/// Committed map root cid for one engine key's branch (`None`: no such
/// branch).
fn committed_root(db: &ForkBase, key: &str, branch: &str) -> Option<forkbase_crypto::Digest> {
    let value = db.get_value(key, Some(branch)).ok()?;
    Some(value.as_map().expect("state keys hold maps").root())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The core contract: identical reads at every step, identical
    /// committed roots at the end.
    #[test]
    fn hot_on_and_off_agree_at_every_step(
        ops in prop::collection::vec(hot_op(), 1..60)
    ) {
        let hot = ForkBase::in_memory_hot(hot_cfg());
        let cold = ForkBase::in_memory();
        prop_assert!(hot.hot_enabled());
        prop_assert!(!cold.hot_enabled());

        for op in &ops {
            let seen_hot = apply(&hot, op);
            let seen_cold = apply(&cold, op);
            prop_assert_eq!(seen_hot, seen_cold, "observed by {:?}", op);
            // Full-state probe after every single op: any subkey the
            // schedule can touch must read identically right now, no
            // matter where the publisher is in its cycle.
            for key in KEYS {
                for sk in SUBKEYS {
                    let h = hot.hot_get(key, sk).expect("hot read");
                    let c = cold.hot_get(key, sk).expect("cold read");
                    prop_assert_eq!(h, c, "key {} subkey {:?} after {:?}", key, sk, op);
                }
            }
        }

        // Quiesce the publisher, then the *committed* trees must be
        // byte-identical: same content ⇒ same root cid (history
        // independence), even though the hot engine grouped writes into
        // arbitrary publish rounds.
        hot.flush_hot().expect("final flush");
        for key in KEYS {
            for branch in [DEFAULT_BRANCH, "side", "moved"] {
                prop_assert_eq!(
                    committed_root(&hot, key, branch),
                    committed_root(&cold, key, branch),
                    "committed root for {} on {}",
                    key,
                    branch
                );
            }
        }
    }

    /// Threaded variant: disjoint per-thread subkey ranges on one engine
    /// key, so publisher rounds interleave with concurrent writers. The
    /// final committed root must still match a tree-only engine fed the
    /// same (deterministically re-ordered) writes.
    #[test]
    fn concurrent_hot_writers_converge_to_tree_root(
        per_thread in prop::collection::vec(
            prop::collection::vec("[a-z]{0,6}", 1..12),
            2..4,
        )
    ) {
        let hot = std::sync::Arc::new(ForkBase::in_memory_hot(hot_cfg()));
        let cold = ForkBase::in_memory();

        std::thread::scope(|s| {
            for (t, writes) in per_thread.iter().enumerate() {
                let hot = std::sync::Arc::clone(&hot);
                s.spawn(move || {
                    for (i, v) in writes.iter().enumerate() {
                        let sk = format!("t{t}/k{i}");
                        hot.hot_put("state/conc", sk, v.clone()).expect("hot put");
                    }
                });
            }
        });
        hot.flush_hot().expect("flush");

        let mut wb = WriteBatch::new();
        for (t, writes) in per_thread.iter().enumerate() {
            for (i, v) in writes.iter().enumerate() {
                wb.put(Bytes::from(format!("t{t}/k{i}")), Bytes::from(v.clone()));
            }
        }
        cold.commit_map_batch("state/conc", None, wb).expect("tree batch");

        prop_assert_eq!(
            committed_root(&hot, "state/conc", DEFAULT_BRANCH),
            committed_root(&cold, "state/conc", DEFAULT_BRANCH),
            "disjoint-key concurrent writes converge"
        );
        // And every entry reads back identically through both paths.
        for (t, writes) in per_thread.iter().enumerate() {
            for (i, v) in writes.iter().enumerate() {
                let sk = format!("t{t}/k{i}");
                prop_assert_eq!(
                    hot.hot_get("state/conc", sk.as_bytes()).expect("hot read"),
                    Some(Bytes::from(v.clone()))
                );
            }
        }
    }
}
