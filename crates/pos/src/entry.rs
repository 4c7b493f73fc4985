//! Index-node entries.
//!
//! Each entry references one child chunk: its cid, the number of elements
//! in the child's subtree (bytes for Blob), and — for sorted types — the
//! largest key in the subtree (the split key guiding lookups, §4.3.1).
//!
//! The paper stores counts only in UIndex entries; we keep them in SIndex
//! entries too, which adds O(log n) positional access and O(1) `len()` to
//! sorted types at a few bytes per entry. This is a strict superset of the
//! paper's structure and does not affect any measured behaviour.
//!
//! Index payloads have exactly one decoder, [`IndexCursor`]: it walks a
//! payload in place and yields [`IndexRef`]s whose split keys borrow the
//! payload. Lookups, iterators, the update path and the engine's GC and
//! verify walks all go through it; [`decode_index_payload`] is a thin
//! collect over it for callers that keep whole entry lists.

use bytes::Bytes;
use forkbase_chunk::codec::{get_bytes, get_varint, put_bytes, put_varint};
use forkbase_crypto::Digest;

/// One index entry: `(child cid, subtree element count, split key)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IndexEntry {
    /// Content identifier of the child chunk.
    pub cid: Digest,
    /// Elements in the child's subtree (bytes for Blob trees).
    pub count: u64,
    /// Largest key in the child's subtree; empty for unsorted types.
    pub key: Bytes,
}

impl IndexEntry {
    /// Entry for an unsorted child.
    pub fn unsorted(cid: Digest, count: u64) -> Self {
        IndexEntry {
            cid,
            count,
            key: Bytes::new(),
        }
    }

    /// Entry for a sorted child with split key `key`.
    pub fn sorted(cid: Digest, count: u64, key: impl Into<Bytes>) -> Self {
        IndexEntry {
            cid,
            count,
            key: key.into(),
        }
    }

    /// Serialize into an index-chunk payload.
    pub fn encode_into(&self, out: &mut Vec<u8>, sorted: bool) {
        out.extend_from_slice(self.cid.as_bytes());
        put_varint(out, self.count);
        if sorted {
            put_bytes(out, &self.key);
        }
    }
}

/// Encode an index-chunk payload: `[level][entry]*` where `level` is the
/// height of this node (1 = children are leaves). The level byte lets a
/// reader find the leaf-entry level without fetching leaf chunks.
pub fn encode_index_payload(level: u64, entries: &[IndexEntry], sorted: bool) -> Vec<u8> {
    let mut out = Vec::with_capacity(entries.len() * (Digest::LEN + 10) + 2);
    put_varint(&mut out, level);
    for e in entries {
        e.encode_into(&mut out, sorted);
    }
    out
}

/// One index entry borrowed from an index payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IndexRef<'a> {
    /// Content identifier of the child chunk.
    pub cid: Digest,
    /// Elements in the child's subtree (bytes for Blob trees).
    pub count: u64,
    /// Largest key in the child's subtree; empty for unsorted types.
    pub key: &'a [u8],
}

impl IndexRef<'_> {
    /// An owned entry whose key is a zero-copy slice of `payload`, the
    /// buffer the cursor that yielded `self` walked.
    pub(crate) fn share(&self, payload: &Bytes) -> IndexEntry {
        let key = if self.key.is_empty() {
            Bytes::new()
        } else {
            let at = self.key.as_ptr() as usize - payload.as_ptr() as usize;
            payload.slice(at..at + self.key.len())
        };
        IndexEntry {
            cid: self.cid,
            count: self.count,
            key,
        }
    }
}

/// The one decoder of index-chunk payloads: a streaming cursor over
/// `[level][entry]*` yielding [`IndexRef`]s, with no allocation.
///
/// A `None` from [`next`](Iterator::next) means either the end of the
/// payload or truncated/corrupt data — check
/// [`finished_clean`](Self::finished_clean).
#[derive(Clone, Debug)]
pub struct IndexCursor<'a> {
    data: &'a [u8],
    sorted: bool,
    level: u64,
    pos: usize,
    corrupt: bool,
}

impl<'a> IndexCursor<'a> {
    /// Walk `payload`, an index payload of a sorted or unsorted tree,
    /// reading its level header first.
    pub fn new(payload: &'a [u8], sorted: bool) -> IndexCursor<'a> {
        let mut pos = 0;
        let level = get_varint(payload, &mut pos);
        IndexCursor {
            data: payload,
            sorted,
            level: level.unwrap_or(0),
            pos,
            corrupt: level.is_none(),
        }
    }

    /// Resume a walk of `payload` at `offset`, an entry boundary taken
    /// from [`offset`](Self::offset). The level header is not re-read:
    /// [`level`](Self::level) reports 0.
    pub(crate) fn at(payload: &'a [u8], sorted: bool, offset: usize) -> IndexCursor<'a> {
        IndexCursor {
            data: payload,
            sorted,
            level: 0,
            pos: offset,
            corrupt: false,
        }
    }

    /// Height of this node (1 = children are leaves).
    pub(crate) fn level(&self) -> u64 {
        self.level
    }

    /// Byte offset of the next entry.
    pub(crate) fn offset(&self) -> usize {
        self.pos
    }

    /// True once the whole payload has decoded without error.
    pub fn finished_clean(&self) -> bool {
        !self.corrupt && self.pos == self.data.len()
    }

    /// Walk the rest of the payload: the summed element count of the
    /// remaining entries, or `None` unless it decodes cleanly to its end.
    pub(crate) fn finish(&mut self) -> Option<u64> {
        let total = self.by_ref().map(|e| e.count).sum();
        self.finished_clean().then_some(total)
    }
}

/// The entry at `*pos`, advancing it.
fn decode_entry<'a>(data: &'a [u8], sorted: bool, pos: &mut usize) -> Option<IndexRef<'a>> {
    let cid = Digest::from_slice(data.get(*pos..*pos + Digest::LEN)?)?;
    *pos += Digest::LEN;
    let count = get_varint(data, pos)?;
    let key = if sorted { get_bytes(data, pos)? } else { &[] };
    Some(IndexRef { cid, count, key })
}

impl<'a> Iterator for IndexCursor<'a> {
    type Item = IndexRef<'a>;

    fn next(&mut self) -> Option<IndexRef<'a>> {
        if self.pos >= self.data.len() || self.corrupt {
            return None;
        }
        let mut pos = self.pos;
        let entry = decode_entry(self.data, self.sorted, &mut pos);
        match entry {
            Some(_) => self.pos = pos,
            None => self.corrupt = true,
        }
        entry
    }
}

/// Decode an index-chunk payload into owned entries whose keys share
/// `payload`'s buffer; returns `(level, entries)`, or `None` unless the
/// payload decodes cleanly.
pub fn decode_index_payload(payload: &Bytes, sorted: bool) -> Option<(u64, Vec<IndexEntry>)> {
    let mut cursor = IndexCursor::new(payload, sorted);
    let entries = cursor.by_ref().map(|e| e.share(payload)).collect();
    cursor.finished_clean().then_some((cursor.level(), entries))
}

#[cfg(test)]
mod tests {
    use super::*;
    use forkbase_crypto::hash_bytes;

    fn decode(payload: Vec<u8>, sorted: bool) -> Option<(u64, Vec<IndexEntry>)> {
        decode_index_payload(&Bytes::from(payload), sorted)
    }

    #[test]
    fn unsorted_round_trip() {
        let entries = vec![
            IndexEntry::unsorted(hash_bytes(b"a"), 100),
            IndexEntry::unsorted(hash_bytes(b"b"), 3),
        ];
        let payload = encode_index_payload(1, &entries, false);
        let (level, decoded) = decode(payload, false).expect("valid");
        assert_eq!(level, 1);
        assert_eq!(decoded, entries);
    }

    #[test]
    fn sorted_round_trip() {
        let entries = vec![
            IndexEntry::sorted(hash_bytes(b"x"), 10, &b"key-199"[..]),
            IndexEntry::sorted(hash_bytes(b"y"), 20, &b"key-999"[..]),
            IndexEntry::sorted(hash_bytes(b"z"), 1, &b""[..]),
        ];
        let payload = encode_index_payload(3, &entries, true);
        let mut cursor = IndexCursor::new(&payload, true);
        assert_eq!(cursor.level(), 3);
        let first = cursor.next().expect("entry");
        assert_eq!(
            (first.cid, first.count, first.key),
            (entries[0].cid, 10, &b"key-199"[..])
        );
        assert_eq!(cursor.finish(), Some(21), "rest sums 20 + 1");
        let (level, decoded) = decode(payload, true).expect("valid");
        assert_eq!(level, 3);
        assert_eq!(decoded, entries);
    }

    #[test]
    fn decode_rejects_truncation() {
        let entries = vec![IndexEntry::unsorted(hash_bytes(b"a"), 7)];
        let mut payload = encode_index_payload(1, &entries, false);
        payload.truncate(payload.len() - 1);
        assert!(decode(payload, false).is_none());
    }

    #[test]
    fn empty_payload_decodes_to_no_entries() {
        let payload = encode_index_payload(2, &[], true);
        let (level, decoded) = decode(payload, true).expect("valid");
        assert_eq!(level, 2);
        assert!(decoded.is_empty());
        assert!(decode(Vec::new(), true).is_none(), "no level header");
    }

    #[test]
    fn cursor_resumes_at_offset() {
        let entries: Vec<IndexEntry> = (0..4u64)
            .map(|i| IndexEntry::sorted(hash_bytes(&i.to_le_bytes()), i, format!("k{i}")))
            .collect();
        let payload = encode_index_payload(1, &entries, true);
        let mut cursor = IndexCursor::new(&payload, true);
        cursor.nth(1);
        let rest: Vec<&[u8]> = IndexCursor::at(&payload, true, cursor.offset())
            .map(|e| e.key)
            .collect();
        assert_eq!(rest, [&b"k2"[..], b"k3"]);
    }

    #[test]
    fn truncation_sweep_never_decodes_a_cut_entry() {
        // Every strict prefix of a valid payload either ends exactly at an
        // entry boundary (and then decodes cleanly to the entries before
        // it) or cuts the level header or an entry, which the cursor must
        // report as unclean — never a panic and never a partial entry.
        for sorted in [false, true] {
            let entries: Vec<IndexEntry> = (0..3u64)
                .map(|i| {
                    let key = vec![b'k'; 65 * i as usize + 1];
                    IndexEntry::sorted(hash_bytes(&key), 1 << (9 * i), key)
                })
                .map(|e| {
                    if sorted {
                        e
                    } else {
                        IndexEntry::unsorted(e.cid, e.count)
                    }
                })
                .collect();
            let payload = encode_index_payload(300, &entries, sorted);
            let mut cursor = IndexCursor::new(&payload, sorted);
            let mut ends = vec![cursor.offset()];
            while cursor.next().is_some() {
                ends.push(cursor.offset());
            }
            assert!(cursor.finished_clean());
            for cut in 0..payload.len() {
                let mut cursor = IndexCursor::new(&payload[..cut], sorted);
                let n = cursor.by_ref().count();
                match ends.iter().position(|&e| e == cut) {
                    Some(i) => {
                        assert!(cursor.finished_clean(), "sorted={sorted} cut {cut}");
                        assert_eq!(n, i);
                    }
                    None => {
                        assert!(!cursor.finished_clean(), "sorted={sorted} cut {cut}");
                        assert!(IndexCursor::new(&payload[..cut], sorted).finish().is_none());
                    }
                }
            }
        }
    }
}
