//! Leaf-chunk payload encodings for the four chunkable types.
//!
//! * `Blob` — raw bytes (an element is one byte).
//! * `List` — repeated length-prefixed values.
//! * `Set`  — repeated length-prefixed keys, sorted.
//! * `Map`  — repeated length-prefixed `(key, value)` pairs, sorted by key.
//!
//! Elements never span chunks (§4.3.2): the builder checks for a boundary
//! only after a whole element has been fed.
//!
//! Item leaves (List/Set/Map) have exactly one decoder, [`RawItemCursor`]:
//! it walks a payload in place and yields [`RawItem`] byte ranges. Point
//! reads, iterators, diffs and the update splice all go through it and
//! copy out only the elements they return. Blob leaves need no decoder —
//! their payload is the bytes.

use crate::types::TreeType;
use bytes::Bytes;
use forkbase_chunk::codec::{get_bytes, put_bytes};

/// One element of a chunkable object.
///
/// The `key`/`value` roles per type: List uses only `value`; Set uses only
/// `key`; Map uses both; Blob elements are raw bytes and are never
/// materialized as `Item`s.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Item {
    /// Ordering key (Set, Map).
    pub key: Bytes,
    /// Payload value (List, Map).
    pub value: Bytes,
}

impl Item {
    /// A List element.
    pub fn list(value: impl Into<Bytes>) -> Item {
        Item {
            key: Bytes::new(),
            value: value.into(),
        }
    }

    /// A Set element.
    pub fn set(key: impl Into<Bytes>) -> Item {
        Item {
            key: key.into(),
            value: Bytes::new(),
        }
    }

    /// A Map entry.
    pub fn map(key: impl Into<Bytes>, value: impl Into<Bytes>) -> Item {
        Item {
            key: key.into(),
            value: value.into(),
        }
    }

    /// Serialized size of this item in a leaf of type `ty`.
    pub fn encoded_len(&self, ty: TreeType) -> usize {
        let var = |len: usize| forkbase_chunk::codec::varint_len(len as u64) + len;
        match ty {
            TreeType::Blob => self.value.len(),
            TreeType::List => var(self.value.len()),
            TreeType::Set => var(self.key.len()),
            TreeType::Map => var(self.key.len()) + var(self.value.len()),
        }
    }
}

/// Append the encoding of `item` for tree type `ty` to `out`.
pub fn encode_item(ty: TreeType, item: &Item, out: &mut Vec<u8>) {
    match ty {
        TreeType::Blob => out.extend_from_slice(&item.value),
        TreeType::List => put_bytes(out, &item.value),
        TreeType::Set => put_bytes(out, &item.key),
        TreeType::Map => {
            put_bytes(out, &item.key);
            put_bytes(out, &item.value);
        }
    }
}

/// One element of a leaf payload as byte ranges into that payload —
/// nothing is materialized.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RawItem {
    /// The item's full encoded bytes: `payload[span.0..span.1]`.
    pub span: (usize, usize),
    /// The key bytes within the payload (empty range for List).
    pub key: (usize, usize),
    /// The value bytes within the payload (empty range for Set).
    pub value: (usize, usize),
}

impl RawItem {
    /// The key bytes, borrowed from `payload` (the leaf this item was read
    /// from).
    pub(crate) fn key_in<'a>(&self, payload: &'a [u8]) -> &'a [u8] {
        &payload[self.key.0..self.key.1]
    }

    /// The value bytes, borrowed from `payload`.
    pub(crate) fn value_in<'a>(&self, payload: &'a [u8]) -> &'a [u8] {
        &payload[self.value.0..self.value.1]
    }

    /// Copy this element out of `payload` as an owned [`Item`]. The copy
    /// shares nothing with the leaf buffer, so holding it never pins a
    /// chunk.
    pub(crate) fn to_item(self, payload: &[u8]) -> Item {
        Item {
            key: Bytes::copy_from_slice(self.key_in(payload)),
            value: Bytes::copy_from_slice(self.value_in(payload)),
        }
    }
}

/// The one decoder of item-leaf payloads (List/Set/Map): a streaming
/// cursor yielding byte spans instead of materialized [`Item`]s. Reads,
/// scans, diffs and updates all walk leaves with it; only the elements a
/// caller returns are copied out (`RawItem::to_item`).
///
/// A `None` from [`next`](Iterator::next) means either the end of the
/// payload or truncated/corrupt data — check
/// [`finished_clean`](Self::finished_clean).
#[derive(Clone, Debug)]
pub struct RawItemCursor<'a> {
    ty: TreeType,
    data: &'a [u8],
    pos: usize,
    corrupt: bool,
}

impl<'a> RawItemCursor<'a> {
    /// Walk `data`, a leaf payload of type `ty` (not Blob — blob leaves
    /// are raw bytes).
    pub fn new(ty: TreeType, data: &'a [u8]) -> RawItemCursor<'a> {
        RawItemCursor::at(ty, data, 0)
    }

    /// Resume a walk of `data` at `offset`, an element boundary such as
    /// a [`RawItem::span`] end.
    pub(crate) fn at(ty: TreeType, data: &'a [u8], offset: usize) -> RawItemCursor<'a> {
        debug_assert!(ty != TreeType::Blob, "blob leaves are raw bytes");
        RawItemCursor {
            ty,
            data,
            pos: offset,
            corrupt: false,
        }
    }

    /// True once the whole payload has decoded without error.
    pub fn finished_clean(&self) -> bool {
        !self.corrupt && self.pos == self.data.len()
    }

    /// Walk the rest of the payload: the number of remaining elements and
    /// the last of them, or `None` unless it decodes cleanly to its end.
    pub(crate) fn finish(&mut self) -> Option<(u64, Option<RawItem>)> {
        let (n, last) = self
            .by_ref()
            .fold((0u64, None), |(n, _), r| (n + 1, Some(r)));
        self.finished_clean().then_some((n, last))
    }
}

/// The byte range of the length-prefixed field at `*pos`, advancing it.
fn field(data: &[u8], pos: &mut usize) -> Option<(usize, usize)> {
    let len = get_bytes(data, pos)?.len();
    Some((*pos - len, *pos))
}

impl Iterator for RawItemCursor<'_> {
    type Item = RawItem;

    fn next(&mut self) -> Option<RawItem> {
        if self.pos >= self.data.len() || self.corrupt {
            return None;
        }
        let start = self.pos;
        let mut pos = self.pos;
        let Some(first) = field(self.data, &mut pos) else {
            self.corrupt = true;
            return None;
        };
        let (key, value) = match self.ty {
            TreeType::Map => {
                let Some(value) = field(self.data, &mut pos) else {
                    self.corrupt = true;
                    return None;
                };
                (first, value)
            }
            TreeType::Set => (first, (pos, pos)),
            TreeType::List | TreeType::Blob => ((start, start), first),
        };
        self.pos = pos;
        Some(RawItem {
            span: (start, pos),
            key,
            value,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(ty: TreeType, items: &[Item]) -> Vec<u8> {
        let mut payload = Vec::new();
        for i in items {
            encode_item(ty, i, &mut payload);
        }
        payload
    }

    fn decode(ty: TreeType, payload: &[u8]) -> Option<Vec<Item>> {
        let mut cursor = RawItemCursor::new(ty, payload);
        let items = cursor.by_ref().map(|r| r.to_item(payload)).collect();
        cursor.finished_clean().then_some(items)
    }

    #[test]
    fn map_round_trip() {
        let items = vec![
            Item::map("a", "1"),
            Item::map("b", ""),
            Item::map("cc", "333"),
        ];
        let payload = encode(TreeType::Map, &items);
        assert_eq!(decode(TreeType::Map, &payload), Some(items.clone()));
        let (n, last) = RawItemCursor::new(TreeType::Map, &payload)
            .finish()
            .expect("clean");
        assert_eq!(n, 3);
        assert_eq!(last.expect("non-empty").key_in(&payload), b"cc");
        let total: usize = items.iter().map(|i| i.encoded_len(TreeType::Map)).sum();
        assert_eq!(total, payload.len());
    }

    #[test]
    fn list_round_trip() {
        let items = vec![Item::list("one"), Item::list(""), Item::list("three")];
        let payload = encode(TreeType::List, &items);
        assert_eq!(decode(TreeType::List, &payload), Some(items));
        let (n, _) = RawItemCursor::new(TreeType::List, &payload)
            .finish()
            .expect("clean");
        assert_eq!(n, 3);
    }

    #[test]
    fn set_round_trip() {
        let items = vec![Item::set("alpha"), Item::set("beta")];
        let payload = encode(TreeType::Set, &items);
        assert_eq!(decode(TreeType::Set, &payload), Some(items));
        let (_, last) = RawItemCursor::new(TreeType::Set, &payload)
            .finish()
            .expect("clean");
        assert_eq!(last.expect("non-empty").key_in(&payload), b"beta");
    }

    #[test]
    fn blob_counts_bytes() {
        // A Blob element is one byte: the payload is the raw bytes, so a
        // leaf's element count is its payload length.
        let item = Item::list("hello");
        assert_eq!(item.encoded_len(TreeType::Blob), 5);
        assert_eq!(encode(TreeType::Blob, &[item]), b"hello");
        assert!(encode(TreeType::Blob, &[Item::list("")]).is_empty());
    }

    #[test]
    fn corrupt_payload_rejected() {
        // Length prefix claims more bytes than present.
        let payload = [5u8, b'a', b'b'];
        assert_eq!(decode(TreeType::List, &payload), None);
        assert_eq!(RawItemCursor::new(TreeType::List, &payload).finish(), None);
    }

    #[test]
    fn raw_cursor_matches_decode() {
        let items = [
            Item::map("k-one", "value one"),
            Item::map("", ""),
            Item::map("k-three", vec![9u8; 300]),
        ];
        for ty in [TreeType::List, TreeType::Set, TreeType::Map] {
            // Drop the field each type does not store.
            let items: Vec<Item> = items
                .iter()
                .map(|i| match ty {
                    TreeType::List => Item::list(i.value.clone()),
                    TreeType::Set => Item::set(i.key.clone()),
                    _ => i.clone(),
                })
                .collect();
            let payload = encode(ty, &items);
            let mut cursor = RawItemCursor::new(ty, &payload);
            let mut at = 0usize;
            let mut got = 0usize;
            for raw in cursor.by_ref() {
                assert_eq!(raw.span.0, at, "spans tile the payload");
                assert_eq!(raw.key_in(&payload), items[got].key.as_ref());
                assert_eq!(raw.value_in(&payload), items[got].value.as_ref());
                assert_eq!(raw.to_item(&payload), items[got]);
                // Re-encoding the item reproduces the span bytes.
                let mut re = Vec::new();
                encode_item(ty, &items[got], &mut re);
                assert_eq!(&payload[raw.span.0..raw.span.1], &re[..]);
                at = raw.span.1;
                got += 1;
            }
            assert_eq!(got, items.len());
            assert!(cursor.finished_clean());
        }
    }

    #[test]
    fn raw_cursor_flags_corruption() {
        let payload = [5u8, b'a', b'b'];
        let mut cursor = RawItemCursor::new(TreeType::List, &payload);
        assert!(cursor.next().is_none());
        assert!(!cursor.finished_clean());
    }

    #[test]
    fn raw_cursor_resumes_at_offset() {
        let items = vec![
            Item::map("a", "1"),
            Item::map("b", "2"),
            Item::map("c", "3"),
        ];
        let payload = encode(TreeType::Map, &items);
        let first = RawItemCursor::new(TreeType::Map, &payload)
            .next()
            .expect("non-empty");
        let rest = RawItemCursor::at(TreeType::Map, &payload, first.span.1);
        let keys: Vec<&[u8]> = rest.map(|r| r.key_in(&payload)).collect();
        assert_eq!(keys, [&b"b"[..], b"c"]);
    }

    #[test]
    fn truncation_sweep_never_decodes_a_cut_element() {
        // Every strict prefix of a valid leaf either ends exactly at an
        // element boundary (and then decodes cleanly to the elements
        // before it) or cuts an element, which the cursor must report as
        // unclean — never a panic and never a partial element.
        let items = vec![
            Item::map("k-one", "value one"),
            Item::map("", ""),
            Item::map("k-three", vec![7u8; 200]),
            Item::map(vec![0xffu8; 130], "x"),
        ];
        for ty in [TreeType::List, TreeType::Set, TreeType::Map] {
            let payload = encode(ty, &items);
            let ends: Vec<usize> = RawItemCursor::new(ty, &payload).map(|r| r.span.1).collect();
            for cut in 0..payload.len() {
                let prefix = &payload[..cut];
                let mut cursor = RawItemCursor::new(ty, prefix);
                let n = cursor.by_ref().count();
                match ends.iter().position(|&e| e == cut) {
                    Some(i) => {
                        assert!(cursor.finished_clean(), "{ty:?} cut {cut} at a boundary");
                        assert_eq!(n, i + 1);
                    }
                    None if cut == 0 => assert!(cursor.finished_clean()),
                    None => {
                        assert!(
                            !cursor.finished_clean(),
                            "{ty:?} cut {cut} inside an element"
                        );
                        assert_eq!(RawItemCursor::new(ty, prefix).finish(), None);
                    }
                }
            }
        }
    }
}
