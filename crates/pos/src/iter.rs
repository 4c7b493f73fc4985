//! Streaming iteration over POS-Tree elements.
//!
//! The iterator fetches one leaf chunk at a time through the store, so
//! "the actual data is fetched gradually on demand" (§3.4) and any caching
//! layer underneath sees chunk-granular accesses. Each node is walked in
//! place with its cursor; only the items handed out are copied.

use crate::entry::IndexCursor;
use crate::leaf::{Item, RawItemCursor};
use crate::types::TreeType;
use forkbase_chunk::{Chunk, ChunkStore};
use forkbase_crypto::Digest;

/// Depth-first iterator over all items of an item tree (List/Set/Map),
/// in order.
pub struct ItemIter<'s> {
    store: &'s dyn ChunkStore,
    ty: TreeType,
    /// Index-node frames: (index chunk, byte offset of its next entry).
    stack: Vec<(Chunk, usize)>,
    /// The current leaf and the byte offset of its next element.
    leaf: Option<(Chunk, usize)>,
}

impl<'s> ItemIter<'s> {
    fn empty(store: &'s dyn ChunkStore, ty: TreeType) -> Self {
        ItemIter {
            store,
            ty,
            stack: Vec::new(),
            leaf: None,
        }
    }

    /// Iterate the whole tree from its first element.
    pub fn new(store: &'s dyn ChunkStore, root: Digest, ty: TreeType) -> Option<Self> {
        let mut it = ItemIter::empty(store, ty);
        let (chunk, start) = it.load(&root)?;
        if chunk.ty().is_index() {
            it.stack.push((chunk, start));
        } else {
            it.leaf = Some((chunk, start));
        }
        Some(it)
    }

    /// Iterate a sorted tree starting from the first item with
    /// `item.key >= key`.
    pub fn seek(store: &'s dyn ChunkStore, root: Digest, ty: TreeType, key: &[u8]) -> Option<Self> {
        debug_assert!(ty.is_sorted());
        let mut it = ItemIter::empty(store, ty);
        let mut cid = root;
        loop {
            let (chunk, start) = it.load(&cid)?;
            let payload = chunk.payload();
            if chunk.ty().is_index() {
                let mut entries = IndexCursor::at(payload, true, start);
                let Some(child) = entries.find(|e| e.key >= key) else {
                    // Key is beyond this subtree; iterator is exhausted.
                    return Some(it);
                };
                cid = child.cid;
                let next = entries.offset();
                it.stack.push((chunk, next));
            } else {
                let from = RawItemCursor::new(ty, payload)
                    .find(|r| r.key_in(payload) >= key)
                    .map_or(payload.len(), |r| r.span.0);
                it.leaf = Some((chunk, from));
                return Some(it);
            }
        }
    }

    /// Fetch node `cid` and check that it decodes cleanly to its end, so
    /// iteration never yields part of a corrupt node. Returns the chunk
    /// and the byte offset of its first entry or element.
    fn load(&self, cid: &Digest) -> Option<(Chunk, usize)> {
        let chunk = self.store.get(cid)?;
        let start = if chunk.ty().is_index() {
            let mut entries = IndexCursor::new(chunk.payload(), self.ty.is_sorted());
            let start = entries.offset();
            entries.finish()?;
            start
        } else {
            RawItemCursor::new(self.ty, chunk.payload()).finish()?;
            0
        };
        Some((chunk, start))
    }

    /// Advance to the next leaf; returns false when exhausted or on a
    /// storage error (missing or corrupt chunk).
    fn advance_leaf(&mut self) -> bool {
        loop {
            let Some((chunk, next)) = self.stack.last_mut() else {
                return false;
            };
            let mut entries = IndexCursor::at(chunk.payload(), self.ty.is_sorted(), *next);
            let Some(child) = entries.next().map(|e| e.cid) else {
                self.stack.pop();
                continue;
            };
            *next = entries.offset();
            let Some((chunk, start)) = self.load(&child) else {
                return false;
            };
            if chunk.ty().is_index() {
                self.stack.push((chunk, start));
            } else {
                self.leaf = Some((chunk, start));
                return true;
            }
        }
    }
}

impl Iterator for ItemIter<'_> {
    type Item = Item;

    fn next(&mut self) -> Option<Item> {
        loop {
            if let Some((chunk, next)) = &mut self.leaf {
                let payload = chunk.payload();
                if let Some(raw) = RawItemCursor::at(self.ty, payload, *next).next() {
                    *next = raw.span.1;
                    return Some(raw.to_item(payload));
                }
            }
            if !self.advance_leaf() {
                return None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_items;
    use forkbase_chunk::MemStore;
    use forkbase_crypto::ChunkerConfig;

    fn build_map(store: &MemStore, n: usize) -> Digest {
        let cfg = ChunkerConfig::with_leaf_bits(7);
        let items: Vec<Item> = (0..n)
            .map(|i| Item::map(format!("k{i:06}"), format!("v{i}")))
            .collect();
        build_items(store, &cfg, TreeType::Map, items)
    }

    #[test]
    fn iterates_all_in_order() {
        let store = MemStore::new();
        let root = build_map(&store, 2000);
        let keys: Vec<_> = ItemIter::new(&store, root, TreeType::Map)
            .expect("iter")
            .map(|i| i.key)
            .collect();
        assert_eq!(keys.len(), 2000);
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "iteration order is key order");
    }

    #[test]
    fn seek_starts_at_key() {
        let store = MemStore::new();
        let root = build_map(&store, 1000);
        let it = ItemIter::seek(&store, root, TreeType::Map, b"k000500").expect("iter");
        let items: Vec<_> = it.collect();
        assert_eq!(items.len(), 500);
        assert_eq!(items[0].key.as_ref(), b"k000500");
    }

    #[test]
    fn seek_between_keys() {
        let store = MemStore::new();
        let root = build_map(&store, 100);
        // "k000050x" sorts after k000050, before k000051.
        let it = ItemIter::seek(&store, root, TreeType::Map, b"k000050x").expect("iter");
        let first = it.take(1).next().expect("non-empty");
        assert_eq!(first.key.as_ref(), b"k000051");
    }

    #[test]
    fn seek_past_end_is_empty() {
        let store = MemStore::new();
        let root = build_map(&store, 100);
        let it = ItemIter::seek(&store, root, TreeType::Map, b"zzz").expect("iter");
        assert_eq!(it.count(), 0);
    }

    #[test]
    fn empty_tree_iterates_nothing() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::default();
        let root = build_items(&store, &cfg, TreeType::Map, std::iter::empty());
        let it = ItemIter::new(&store, root, TreeType::Map).expect("iter");
        assert_eq!(it.count(), 0);
    }

    #[test]
    fn list_iteration_preserves_order() {
        let store = MemStore::new();
        let cfg = ChunkerConfig::with_leaf_bits(7);
        let items: Vec<Item> = (0..777).map(|i| Item::list(format!("item-{i}"))).collect();
        let root = build_items(&store, &cfg, TreeType::List, items.clone());
        let out: Vec<_> = ItemIter::new(&store, root, TreeType::List)
            .expect("iter")
            .collect();
        assert_eq!(out, items);
    }
}
