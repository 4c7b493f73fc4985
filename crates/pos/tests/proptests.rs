//! Property-based tests pinning the POS-Tree's core invariants:
//!
//! 1. **History independence** — identical content gives identical root
//!    cids, no matter how the tree was produced (one-shot build,
//!    incremental edits, splices, merges).
//! 2. **Model equivalence** — Map behaves like `BTreeMap`, List like
//!    `Vec`, Blob like `Vec<u8>` under arbitrary operation sequences.
//! 3. **Diff soundness** — applying `diff(a, b)` to `a` as edits yields a
//!    tree with root `b`.

use bytes::Bytes;
use forkbase_chunk::MemStore;
use forkbase_crypto::ChunkerConfig;
use forkbase_pos::tree::{Blob, List, Map};
use forkbase_pos::types::TreeType;
use forkbase_pos::{sorted_diff, ChunkStore};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Small chunks so even modest inputs span multiple leaves and levels.
fn cfg() -> ChunkerConfig {
    let mut cfg = ChunkerConfig::with_leaf_bits(6);
    cfg.index_bits = 3;
    cfg
}

fn key_strategy() -> impl Strategy<Value = String> {
    "[a-f]{1,6}"
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn map_matches_btreemap_model(
        initial in prop::collection::vec((key_strategy(), "[a-z]{0,12}"), 0..60),
        batches in prop::collection::vec(
            prop::collection::vec((key_strategy(), prop::option::of("[a-z]{0,12}")), 1..10),
            0..6
        ),
    ) {
        let store = MemStore::new();
        let cfg = cfg();
        let mut model: BTreeMap<String, String> = initial.iter().cloned().collect();
        let mut map = Map::build(&store, &cfg, initial.iter().map(|(k, v)| (k.clone(), v.clone())));

        for batch in &batches {
            for (k, v) in batch {
                match v {
                    Some(v) => { model.insert(k.clone(), v.clone()); }
                    None => { model.remove(k); }
                }
            }
            map = map
                .update(&store, &cfg, batch.iter().map(|(k, v)| {
                    (Bytes::from(k.clone()), v.clone().map(Bytes::from))
                }))
                .expect("update");

            // Model equivalence after every batch.
            prop_assert_eq!(map.len(&store), model.len() as u64);
            let items: Vec<(Bytes, Bytes)> = map.iter(&store).collect();
            let expected: Vec<(Bytes, Bytes)> = model
                .iter()
                .map(|(k, v)| (Bytes::from(k.clone()), Bytes::from(v.clone())))
                .collect();
            prop_assert_eq!(items, expected);
        }

        // History independence: incremental result == one-shot build.
        let rebuilt = Map::build(&store, &cfg, model.iter().map(|(k, v)| (k.clone(), v.clone())));
        prop_assert_eq!(map.root(), rebuilt.root());
    }

    #[test]
    fn map_point_lookup_matches_model(
        pairs in prop::collection::vec((key_strategy(), "[a-z]{0,8}"), 1..80),
        probes in prop::collection::vec(key_strategy(), 1..20),
    ) {
        let store = MemStore::new();
        let cfg = cfg();
        let model: BTreeMap<String, String> = pairs.iter().cloned().collect();
        let map = Map::build(&store, &cfg, pairs.iter().map(|(k, v)| (k.clone(), v.clone())));
        for probe in &probes {
            let got = map.get(&store, probe.as_bytes()).map(|b| b.to_vec());
            let want = model.get(probe).map(|v| v.as_bytes().to_vec());
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn map_iter_from_matches_btreemap_range(
        pairs in prop::collection::vec((key_strategy(), "[a-z]{0,8}"), 0..120),
        // `[a-g]{0,7}` probes land on keys, between keys, before the first
        // key (the empty probe) and past the last (anything with a `g`).
        probes in prop::collection::vec("[a-g]{0,7}", 1..12),
    ) {
        let store = MemStore::new();
        let cfg = cfg();
        let model: BTreeMap<String, String> = pairs.iter().cloned().collect();
        let map = Map::build(&store, &cfg, pairs.iter().map(|(k, v)| (k.clone(), v.clone())));
        for probe in &probes {
            let got: Vec<(Bytes, Bytes)> = map.iter_from(&store, probe.as_bytes()).collect();
            let want: Vec<(Bytes, Bytes)> = model
                .range(probe.clone()..)
                .map(|(k, v)| (Bytes::from(k.clone()), Bytes::from(v.clone())))
                .collect();
            prop_assert_eq!(got, want, "probe {:?}", probe);
        }
    }

    #[test]
    fn list_get_matches_vec_get(
        elems in prop::collection::vec("[a-z]{0,10}", 0..300),
        probes in prop::collection::vec(any::<u16>(), 1..24),
    ) {
        let store = MemStore::new();
        let cfg = cfg();
        let list = List::build(&store, &cfg, elems.iter().cloned());
        for probe in &probes {
            // Indices up to 8 past the end exercise the out-of-range miss.
            let i = (*probe as usize) % (elems.len() + 8);
            let got = list.get(&store, i as u64).map(|b| b.to_vec());
            let want = elems.get(i).map(|e| e.as_bytes().to_vec());
            prop_assert_eq!(got, want, "index {}", i);
        }
    }

    #[test]
    fn blob_splice_matches_vec_model(
        data in prop::collection::vec(any::<u8>(), 0..4000),
        ops in prop::collection::vec(
            (any::<u16>(), any::<u8>(), prop::collection::vec(any::<u8>(), 0..200)),
            0..5
        ),
    ) {
        let store = MemStore::new();
        let cfg = cfg();
        let mut model = data.clone();
        let mut blob = Blob::build(&store, &cfg, &data);

        for (start, remove, insert) in &ops {
            let s = (*start as usize) % (model.len() + 1);
            let r = (*remove as usize).min(model.len() - s);
            model.splice(s..s + r, insert.iter().copied());
            blob = blob
                .splice(&store, &cfg, s as u64, r as u64, insert)
                .expect("splice");
            prop_assert_eq!(blob.len(&store), model.len() as u64);
        }
        prop_assert_eq!(blob.read_all(&store).expect("read"), model.clone());

        // History independence.
        let rebuilt = Blob::build(&store, &cfg, &model);
        prop_assert_eq!(blob.root(), rebuilt.root());
    }

    #[test]
    fn blob_read_range_matches_model(
        data in prop::collection::vec(any::<u8>(), 1..3000),
        ranges in prop::collection::vec((any::<u16>(), any::<u16>()), 1..8),
    ) {
        let store = MemStore::new();
        let cfg = cfg();
        let blob = Blob::build(&store, &cfg, &data);
        for (start, len) in &ranges {
            let s = (*start as usize) % data.len();
            let l = (*len as usize) % 500;
            let expected = &data[s..(s + l).min(data.len())];
            prop_assert_eq!(
                blob.read_range(&store, s as u64, l as u64).expect("read"),
                expected
            );
        }
    }

    #[test]
    fn list_splice_matches_vec_model(
        elems in prop::collection::vec("[a-z]{0,10}", 0..200),
        ops in prop::collection::vec(
            (any::<u16>(), any::<u8>(), prop::collection::vec("[a-z]{0,10}", 0..10)),
            0..5
        ),
    ) {
        let store = MemStore::new();
        let cfg = cfg();
        let mut model = elems.clone();
        let mut list = List::build(&store, &cfg, elems.iter().cloned());

        for (start, remove, insert) in &ops {
            let s = (*start as usize) % (model.len() + 1);
            let r = (*remove as usize).min(model.len() - s);
            model.splice(s..s + r, insert.iter().cloned());
            list = list
                .splice(&store, &cfg, s as u64, r as u64, insert.iter().cloned())
                .expect("splice");
        }
        let got: Vec<String> = list
            .iter(&store)
            .map(|b| String::from_utf8(b.to_vec()).expect("utf8"))
            .collect();
        prop_assert_eq!(&got, &model);

        let rebuilt = List::build(&store, &cfg, model.iter().cloned());
        prop_assert_eq!(list.root(), rebuilt.root());
    }

    #[test]
    fn diff_apply_round_trip(
        a in prop::collection::vec((key_strategy(), "[a-z]{0,8}"), 0..60),
        b in prop::collection::vec((key_strategy(), "[a-z]{0,8}"), 0..60),
    ) {
        let store = MemStore::new();
        let cfg = cfg();
        let map_a = Map::build(&store, &cfg, a.iter().map(|(k, v)| (k.clone(), v.clone())));
        let map_b = Map::build(&store, &cfg, b.iter().map(|(k, v)| (k.clone(), v.clone())));

        let diff = sorted_diff(&store, TreeType::Map, map_a.root(), map_b.root()).expect("diff");
        // Apply the diff to A as edits; must land exactly on B.
        let edits = diff.into_iter().map(|e| (e.key, e.right));
        let patched = map_a.update(&store, &cfg, edits).expect("update");
        prop_assert_eq!(patched.root(), map_b.root());
    }

    #[test]
    fn chunk_dedup_bounds_storage(
        data in prop::collection::vec(any::<u8>(), 500..3000),
    ) {
        // Building the same object twice must not store new chunks.
        let store = MemStore::new();
        let cfg = cfg();
        Blob::build(&store, &cfg, &data);
        let chunks_before = store.stats().stored_chunks;
        Blob::build(&store, &cfg, &data);
        prop_assert_eq!(store.stats().stored_chunks, chunks_before);
    }

    #[test]
    fn update_order_independence(
        base in prop::collection::vec((key_strategy(), "[a-z]{0,8}"), 0..40),
        edits in prop::collection::vec((key_strategy(), prop::option::of("[a-z]{0,8}")), 1..12),
    ) {
        // Applying an edit batch at once == applying its (deduped) edits
        // one at a time in key order.
        let store = MemStore::new();
        let cfg = cfg();
        let map = Map::build(&store, &cfg, base.iter().map(|(k, v)| (k.clone(), v.clone())));

        // Dedup edits last-wins, like the batch API does.
        let mut deduped: BTreeMap<String, Option<String>> = BTreeMap::new();
        for (k, v) in &edits {
            deduped.insert(k.clone(), v.clone());
        }

        let batch = map
            .update(&store, &cfg, deduped.iter().map(|(k, v)| {
                (Bytes::from(k.clone()), v.clone().map(Bytes::from))
            }))
            .expect("update");

        let mut one_by_one = map;
        for (k, v) in &deduped {
            one_by_one = one_by_one
                .update(&store, &cfg, [(Bytes::from(k.clone()), v.clone().map(Bytes::from))])
                .expect("update");
        }
        prop_assert_eq!(batch.root(), one_by_one.root());
    }
}
