//! Tree walking: leaf-entry collection, counting, and point lookups.

use crate::entry::{decode_index_payload, IndexCursor, IndexEntry};
use crate::leaf::{Item, RawItemCursor};
use crate::types::TreeType;
use bytes::Bytes;
use forkbase_chunk::ChunkStore;
use forkbase_crypto::Digest;

/// A flattened view of a tree's leaf level.
#[derive(Clone, Debug)]
pub struct TreeScan {
    /// One entry per leaf chunk, in order.
    pub leaf_entries: Vec<IndexEntry>,
    /// Tree height: 0 = root is a leaf.
    pub height: u64,
}

impl TreeScan {
    /// Total element count (bytes for Blob).
    pub fn total_count(&self) -> u64 {
        self.leaf_entries.iter().map(|e| e.count).sum()
    }

    /// Index of the leaf containing element position `pos` (for unsorted
    /// trees), or `None` if `pos` is past the end.
    pub fn leaf_of_pos(&self, pos: u64) -> Option<(usize, u64)> {
        let mut cum = 0u64;
        for (i, e) in self.leaf_entries.iter().enumerate() {
            if pos < cum + e.count {
                return Some((i, cum));
            }
            cum += e.count;
        }
        None
    }

    /// Index of the first leaf whose key range can contain `key` (sorted
    /// trees): the first leaf with `last_key >= key`. Returns
    /// `leaf_entries.len()` if `key` is beyond every leaf.
    pub fn leaf_of_key(&self, key: &[u8]) -> usize {
        self.leaf_entries.partition_point(|e| e.key.as_ref() < key)
    }

    /// Cumulative element offset of leaf `idx`.
    pub fn leaf_offset(&self, idx: usize) -> u64 {
        self.leaf_entries[..idx].iter().map(|e| e.count).sum()
    }
}

/// Walk the tree from `root` and collect the leaf entries. Only index
/// chunks are fetched; leaves are not touched (their entries carry all the
/// metadata needed).
pub fn scan_tree(store: &dyn ChunkStore, root: Digest, ty: TreeType) -> Option<TreeScan> {
    let chunk = store.get(&root)?;
    if !chunk.ty().is_index() {
        // Root is a single leaf: synthesize its entry.
        let payload = chunk.payload();
        let (count, key) = if ty == TreeType::Blob {
            (payload.len() as u64, Bytes::new())
        } else {
            let (count, last) = RawItemCursor::new(ty, payload).finish()?;
            let key = last.map_or(&[][..], |r| r.key_in(payload));
            (count, Bytes::copy_from_slice(key))
        };
        return Some(TreeScan {
            leaf_entries: vec![IndexEntry {
                cid: root,
                count,
                key,
            }],
            height: 0,
        });
    }

    let (root_level, root_entries) = decode_index_payload(chunk.payload(), ty.is_sorted())?;
    let mut leaf_entries = Vec::new();
    // Depth-first, left to right. Stack holds (level, entries, next index).
    let mut stack = vec![(root_level, root_entries, 0usize)];
    while let Some((level, entries, idx)) = stack.pop() {
        if idx >= entries.len() {
            continue;
        }
        if level == 1 {
            // Children are leaves: adopt the whole entry list at once.
            leaf_entries.extend(entries.into_iter().skip(idx));
            continue;
        }
        let child_cid = entries[idx].cid;
        stack.push((level, entries, idx + 1));
        let child = store.get(&child_cid)?;
        let (child_level, child_entries) = decode_index_payload(child.payload(), ty.is_sorted())?;
        debug_assert_eq!(child_level, level - 1);
        stack.push((child_level, child_entries, 0));
    }
    Some(TreeScan {
        leaf_entries,
        height: root_level,
    })
}

/// Total element count by reading only the root chunk.
pub fn total_count(store: &dyn ChunkStore, root: Digest, ty: TreeType) -> Option<u64> {
    let chunk = store.get(&root)?;
    let payload = chunk.payload();
    if chunk.ty().is_index() {
        IndexCursor::new(payload, ty.is_sorted()).finish()
    } else if ty == TreeType::Blob {
        Some(payload.len() as u64)
    } else {
        RawItemCursor::new(ty, payload).finish().map(|(n, _)| n)
    }
}

/// Point lookup by key in a sorted tree. Fetches one chunk per level —
/// "only the relevant nodes are fetched instead of the entire tree"
/// (§4.3.1) — and walks each in place, copying out only the hit. Every
/// node on the path must still decode cleanly to its end, so a lookup
/// never answers from a corrupt chunk.
pub fn get_by_key(store: &dyn ChunkStore, root: Digest, ty: TreeType, key: &[u8]) -> Option<Item> {
    debug_assert!(ty.is_sorted());
    let mut cid = root;
    loop {
        let chunk = store.get(&cid)?;
        let payload = chunk.payload();
        if chunk.ty().is_index() {
            let mut entries = IndexCursor::new(payload, true);
            // None: key beyond every subtree, or a corrupt node.
            let child = entries.find(|e| e.key >= key)?;
            entries.finish()?;
            cid = child.cid;
        } else {
            let mut items = RawItemCursor::new(ty, payload);
            let hit = items.find(|r| r.key_in(payload) >= key)?;
            if hit.key_in(payload) != key {
                return None;
            }
            items.finish()?;
            return Some(hit.to_item(payload));
        }
    }
}

/// Point lookup by element position in an item tree (List/Set/Map).
/// Descends via subtree counts; like [`get_by_key`] it walks each node in
/// place and copies out only the hit.
pub fn get_by_pos(
    store: &dyn ChunkStore,
    root: Digest,
    ty: TreeType,
    mut pos: u64,
) -> Option<Item> {
    let mut cid = root;
    loop {
        let chunk = store.get(&cid)?;
        let payload = chunk.payload();
        if chunk.ty().is_index() {
            let mut entries = IndexCursor::new(payload, ty.is_sorted());
            let child = entries.find(|e| {
                let inside = pos < e.count;
                if !inside {
                    pos -= e.count;
                }
                inside
            })?;
            entries.finish()?;
            cid = child.cid;
        } else {
            let mut items = RawItemCursor::new(ty, payload);
            let hit = items.nth(usize::try_from(pos).ok()?)?;
            items.finish()?;
            return Some(hit.to_item(payload));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_blob, build_items};
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

    #[test]
    fn scan_counts_match() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::with_leaf_bits(9);
        let data = pseudo_random(50_000, 11);
        let root = build_blob(&store, &cfg, &data);
        let scan = scan_tree(&store, root, TreeType::Blob).expect("scan");
        assert_eq!(scan.total_count(), data.len() as u64);
        assert_eq!(
            total_count(&store, root, TreeType::Blob),
            Some(data.len() as u64)
        );
        assert!(scan.leaf_entries.len() > 10, "should have many leaves");
    }

    #[test]
    fn get_by_key_finds_all() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::with_leaf_bits(8);
        let items: Vec<Item> = (0..2000)
            .map(|i| Item::map(format!("k{i:06}"), format!("v{i}")))
            .collect();
        let root = build_items(&store, &cfg, TreeType::Map, items.clone());
        for i in (0..2000).step_by(97) {
            let key = format!("k{i:06}");
            let item = get_by_key(&store, root, TreeType::Map, key.as_bytes()).expect("present");
            assert_eq!(item.value.as_ref(), format!("v{i}").as_bytes());
        }
        assert!(get_by_key(&store, root, TreeType::Map, b"missing").is_none());
        assert!(get_by_key(&store, root, TreeType::Map, b"zzzz").is_none());
    }

    #[test]
    fn get_by_pos_matches_order() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::with_leaf_bits(8);
        let items: Vec<Item> = (0..500).map(|i| Item::list(format!("elem{i}"))).collect();
        let root = build_items(&store, &cfg, TreeType::List, items.clone());
        for i in [0usize, 1, 100, 250, 499] {
            let item = get_by_pos(&store, root, TreeType::List, i as u64).expect("present");
            assert_eq!(item, items[i]);
        }
        assert!(get_by_pos(&store, root, TreeType::List, 500).is_none());
    }

    #[test]
    fn leaf_of_key_partitions() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::with_leaf_bits(7);
        let items: Vec<Item> = (0..3000)
            .map(|i| Item::map(format!("k{i:06}"), "x"))
            .collect();
        let root = build_items(&store, &cfg, TreeType::Map, items);
        let scan = scan_tree(&store, root, TreeType::Map).expect("scan");
        // Every key must land in the leaf whose range covers it.
        for i in (0..3000).step_by(113) {
            let key = format!("k{i:06}");
            let li = scan.leaf_of_key(key.as_bytes());
            assert!(li < scan.leaf_entries.len());
            assert!(scan.leaf_entries[li].key.as_ref() >= key.as_bytes());
            if li > 0 {
                assert!(scan.leaf_entries[li - 1].key.as_ref() < key.as_bytes());
            }
        }
        assert_eq!(scan.leaf_of_key(b"zzz"), scan.leaf_entries.len());
    }

    #[test]
    fn single_leaf_scan() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::default();
        let root = build_blob(&store, &cfg, b"small");
        let scan = scan_tree(&store, root, TreeType::Blob).expect("scan");
        assert_eq!(scan.height, 0);
        assert_eq!(scan.leaf_entries.len(), 1);
        assert_eq!(scan.total_count(), 5);
    }

    #[test]
    fn empty_tree_scan() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::default();
        let root = build_blob(&store, &cfg, b"");
        let scan = scan_tree(&store, root, TreeType::Blob).expect("scan");
        assert_eq!(scan.total_count(), 0);
        assert_eq!(scan.leaf_entries.len(), 1, "canonical empty leaf");
    }
}
