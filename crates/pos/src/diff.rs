//! Structural diff between two POS-Trees (§4.3: "comparing two trees can be
//! done efficiently by recursively comparing the cids").
//!
//! Because identical content yields identical chunks, a diff only needs to
//! look inside chunks that differ: shared leaves — typically all but the
//! edited region — are skipped by cid equality.

use crate::entry::IndexEntry;
use crate::leaf::{RawItem, RawItemCursor};
use crate::scan::scan_tree;
use crate::types::TreeType;
use bytes::Bytes;
use forkbase_chunk::{Chunk, ChunkStore};
use forkbase_crypto::Digest;

/// One differing key between two sorted trees.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiffEntry {
    /// The key.
    pub key: Bytes,
    /// Value on the left side (`None` = absent).
    pub left: Option<Bytes>,
    /// Value on the right side (`None` = absent).
    pub right: Option<Bytes>,
}

/// Keys that differ between two sorted trees (Map or Set; for Set the
/// values are empty byte strings).
pub fn sorted_diff(
    store: &dyn ChunkStore,
    ty: TreeType,
    left: Digest,
    right: Digest,
) -> Option<Vec<DiffEntry>> {
    debug_assert!(ty.is_sorted());
    if left == right {
        return Some(Vec::new());
    }
    let l = scan_tree(store, left, ty)?.leaf_entries;
    let r = scan_tree(store, right, ty)?.leaf_entries;

    let entry = |key: &[u8], left: Option<&[u8]>, right: Option<&[u8]>| DiffEntry {
        key: Bytes::copy_from_slice(key),
        left: left.map(Bytes::copy_from_slice),
        right: right.map(Bytes::copy_from_slice),
    };
    let mut out = Vec::new();
    let mut lc = LeafCursor::new(store, ty, &l);
    let mut rc = LeafCursor::new(store, ty, &r);
    loop {
        // Return exhausted leaves before checking for skippable ones.
        lc.settle();
        rc.settle();
        // Subtree skip: both cursors at the start of identical leaves.
        while lc.at_leaf_start() && rc.at_leaf_start() {
            match (lc.current_cid(), rc.current_cid()) {
                (Some(a), Some(b)) if a == b => {
                    lc.skip_leaf();
                    rc.skip_leaf();
                }
                _ => break,
            }
        }
        match (lc.peek()?, rc.peek()?) {
            (None, None) => break,
            (Some((lk, lv)), None) => {
                out.push(entry(lk, Some(lv), None));
                lc.advance();
            }
            (None, Some((rk, rv))) => {
                out.push(entry(rk, None, Some(rv)));
                rc.advance();
            }
            (Some((lk, lv)), Some((rk, rv))) => match lk.cmp(rk) {
                std::cmp::Ordering::Less => {
                    out.push(entry(lk, Some(lv), None));
                    lc.advance();
                }
                std::cmp::Ordering::Greater => {
                    out.push(entry(rk, None, Some(rv)));
                    rc.advance();
                }
                std::cmp::Ordering::Equal => {
                    if lv != rv {
                        out.push(entry(lk, Some(lv), Some(rv)));
                    }
                    lc.advance();
                    rc.advance();
                }
            },
        }
    }
    Some(out)
}

/// Item-level cursor over a leaf entry list, walking one leaf at a time
/// in place.
struct LeafCursor<'a, 's> {
    store: &'s dyn ChunkStore,
    ty: TreeType,
    leaves: &'a [IndexEntry],
    leaf_idx: usize,
    /// The loaded leaf and its current element (`None` once exhausted).
    leaf: Option<(Chunk, Option<RawItem>)>,
}

impl<'a, 's> LeafCursor<'a, 's> {
    fn new(store: &'s dyn ChunkStore, ty: TreeType, leaves: &'a [IndexEntry]) -> Self {
        LeafCursor {
            store,
            ty,
            leaves,
            leaf_idx: 0,
            leaf: None,
        }
    }

    fn at_leaf_start(&self) -> bool {
        self.leaf.is_none() && self.leaf_idx < self.leaves.len()
    }

    fn current_cid(&self) -> Option<Digest> {
        self.leaves.get(self.leaf_idx).map(|e| e.cid)
    }

    fn skip_leaf(&mut self) {
        debug_assert!(self.at_leaf_start());
        self.leaf_idx += 1;
    }

    /// If the current leaf is exhausted, move to the next leaf *without*
    /// loading it, so the caller can apply the cid-equality skip first.
    fn settle(&mut self) {
        if matches!(self.leaf, Some((_, None))) {
            self.leaf = None;
            self.leaf_idx += 1;
        }
    }

    /// Current `(key, value)`, loading the leaf if necessary. Outer
    /// `Option` is a storage error (missing chunk or a leaf that does not
    /// decode cleanly); inner `None` means exhausted.
    #[allow(clippy::option_option)]
    fn peek(&mut self) -> Option<Option<(&[u8], &[u8])>> {
        loop {
            self.settle();
            if self.leaf.is_some() {
                break;
            }
            if self.leaf_idx >= self.leaves.len() {
                return Some(None);
            }
            let chunk = self.store.get(&self.leaves[self.leaf_idx].cid)?;
            let mut items = RawItemCursor::new(self.ty, chunk.payload());
            let first = items.next();
            items.finish()?;
            self.leaf = Some((chunk, first));
        }
        let Some((chunk, Some(raw))) = &self.leaf else {
            unreachable!("settle() drops exhausted leaves");
        };
        let payload = chunk.payload();
        Some(Some((raw.key_in(payload), raw.value_in(payload))))
    }

    fn advance(&mut self) {
        if let Some((chunk, item)) = &mut self.leaf {
            *item = item.and_then(|r| RawItemCursor::at(self.ty, chunk.payload(), r.span.1).next());
        }
    }
}

/// Summary of the differing region between two unsorted trees
/// (Blob/List), in element coordinates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RangeDiff {
    /// First differing element position (same in both sides).
    pub start: u64,
    /// Length of the differing region on the left side.
    pub left_len: u64,
    /// Length of the differing region on the right side.
    pub right_len: u64,
}

/// Locate the differing region between two Blobs at byte precision.
/// Returns `None` (inner) if the blobs are identical.
pub fn blob_diff_summary(
    store: &dyn ChunkStore,
    left: Digest,
    right: Digest,
) -> Option<Option<RangeDiff>> {
    if left == right {
        return Some(None);
    }
    let l = scan_tree(store, left, TreeType::Blob)?.leaf_entries;
    let r = scan_tree(store, right, TreeType::Blob)?.leaf_entries;
    let total_l: u64 = l.iter().map(|e| e.count).sum();
    let total_r: u64 = r.iter().map(|e| e.count).sum();

    // Common whole-leaf prefix.
    let mut p = 0usize;
    while p < l.len() && p < r.len() && l[p].cid == r[p].cid {
        p += 1;
    }
    // Common whole-leaf suffix (not overlapping the prefix).
    let mut s = 0usize;
    while s < l.len() - p && s < r.len() - p && l[l.len() - 1 - s].cid == r[r.len() - 1 - s].cid {
        s += 1;
    }
    let prefix_bytes: u64 = l[..p].iter().map(|e| e.count).sum();
    let suffix_bytes: u64 = l[l.len() - s..].iter().map(|e| e.count).sum();

    // Refine to byte precision inside the first/last differing leaves.
    let mid_l = read_concat(store, &l[p..l.len() - s])?;
    let mid_r = read_concat(store, &r[p..r.len() - s])?;
    let mut head = 0usize;
    while head < mid_l.len() && head < mid_r.len() && mid_l[head] == mid_r[head] {
        head += 1;
    }
    let mut tail = 0usize;
    while tail < mid_l.len() - head
        && tail < mid_r.len() - head
        && mid_l[mid_l.len() - 1 - tail] == mid_r[mid_r.len() - 1 - tail]
    {
        tail += 1;
    }

    let start = prefix_bytes + head as u64;
    let left_len = total_l - prefix_bytes - suffix_bytes - head as u64 - tail as u64;
    let right_len = total_r - prefix_bytes - suffix_bytes - head as u64 - tail as u64;
    Some(Some(RangeDiff {
        start,
        left_len,
        right_len,
    }))
}

fn read_concat(store: &dyn ChunkStore, leaves: &[IndexEntry]) -> Option<Vec<u8>> {
    let mut out = Vec::new();
    for e in leaves {
        let chunk = store.get(&e.cid)?;
        out.extend_from_slice(chunk.payload());
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_blob, build_items};
    use crate::leaf::Item;
    use forkbase_chunk::MemStore;
    use forkbase_crypto::ChunkerConfig;

    fn pseudo_random(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect()
    }

    fn build_map(store: &MemStore, pairs: &[(&str, &str)]) -> Digest {
        let cfg = ChunkerConfig::with_leaf_bits(7);
        let mut sorted: Vec<_> = pairs.to_vec();
        sorted.sort();
        build_items(
            store,
            &cfg,
            TreeType::Map,
            sorted
                .into_iter()
                .map(|(k, v)| Item::map(k.to_string(), v.to_string())),
        )
    }

    #[test]
    fn identical_trees_diff_empty() {
        let store = MemStore::new();
        let a = build_map(&store, &[("a", "1"), ("b", "2")]);
        let b = build_map(&store, &[("a", "1"), ("b", "2")]);
        assert_eq!(a, b);
        assert!(sorted_diff(&store, TreeType::Map, a, b)
            .expect("diff")
            .is_empty());
    }

    #[test]
    fn diff_finds_all_change_kinds() {
        let store = MemStore::new();
        let a = build_map(&store, &[("a", "1"), ("b", "2"), ("c", "3")]);
        let b = build_map(&store, &[("a", "1"), ("b", "CHANGED"), ("d", "4")]);
        let mut diff = sorted_diff(&store, TreeType::Map, a, b).expect("diff");
        diff.sort_by(|x, y| x.key.cmp(&y.key));
        assert_eq!(diff.len(), 3);
        assert_eq!(diff[0].key.as_ref(), b"b");
        assert_eq!(diff[0].left.as_deref(), Some(&b"2"[..]));
        assert_eq!(diff[0].right.as_deref(), Some(&b"CHANGED"[..]));
        assert_eq!(diff[1].key.as_ref(), b"c");
        assert_eq!(diff[1].right, None);
        assert_eq!(diff[2].key.as_ref(), b"d");
        assert_eq!(diff[2].left, None);
    }

    #[test]
    fn diff_on_large_maps_is_chunk_local() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::with_leaf_bits(8);
        let items: Vec<Item> = (0..20_000)
            .map(|i| Item::map(format!("k{i:06}"), format!("v{i}")))
            .collect();
        let a = build_items(&store, &cfg, TreeType::Map, items.clone());
        let mut edited = items;
        edited[10_000] = Item::map("k010000", "EDITED");
        let b = build_items(&store, &cfg, TreeType::Map, edited);

        let gets_before = store.stats().gets;
        let diff = sorted_diff(&store, TreeType::Map, a, b).expect("diff");
        let gets = store.stats().gets - gets_before;
        assert_eq!(diff.len(), 1);
        assert_eq!(diff[0].key.as_ref(), b"k010000");
        // A point edit should touch only the index spine and the edited
        // leaf — far fewer fetches than the ~hundreds of leaves.
        assert!(
            gets < 60,
            "diff fetched {gets} chunks; expected chunk-local work"
        );
    }

    #[test]
    fn blob_diff_locates_edit() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::with_leaf_bits(9);
        let data = pseudo_random(60_000, 5);
        let mut edited = data.clone();
        edited[30_000] = edited[30_000].wrapping_add(1);

        let a = build_blob(&store, &cfg, &data);
        let b = build_blob(&store, &cfg, &edited);
        let d = blob_diff_summary(&store, a, b)
            .expect("diff")
            .expect("differs");
        assert_eq!(d.start, 30_000);
        assert_eq!(d.left_len, 1);
        assert_eq!(d.right_len, 1);
    }

    #[test]
    fn blob_diff_insert() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::with_leaf_bits(9);
        let data = pseudo_random(40_000, 6);
        let mut longer = data.clone();
        longer.splice(20_000..20_000, b"INSERTED".iter().copied());

        let a = build_blob(&store, &cfg, &data);
        let b = build_blob(&store, &cfg, &longer);
        let d = blob_diff_summary(&store, a, b)
            .expect("diff")
            .expect("differs");
        assert_eq!(d.start, 20_000);
        assert_eq!(d.left_len, 0);
        assert_eq!(d.right_len, 8);
    }

    #[test]
    fn blob_diff_identical_is_none() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::default();
        let a = build_blob(&store, &cfg, b"same");
        let b = build_blob(&store, &cfg, b"same");
        assert_eq!(blob_diff_summary(&store, a, b), Some(None));
    }

    #[test]
    fn diff_works_across_different_keys_of_same_type() {
        // Diff between objects stored under different db keys (paper: Diff
        // "returns the differences between two FObjects of the same types
        // (they could be of different keys)").
        let store = MemStore::new();
        let a = build_map(&store, &[("x", "1")]);
        let b = build_map(&store, &[("y", "2")]);
        let diff = sorted_diff(&store, TreeType::Map, a, b).expect("diff");
        assert_eq!(diff.len(), 2);
    }
}
