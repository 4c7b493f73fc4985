//! The chunk layer of ForkBase (§4.2, §4.4).
//!
//! A chunk is the basic unit of storage: a typed, immutable byte payload
//! identified by `cid = SHA-256(type ‖ payload)`. Because cids are
//! content-derived, the store deduplicates identical chunks automatically
//! and can verify integrity of everything it returns (tamper evidence at
//! the chunk level).
//!
//! Provided backends:
//! * [`MemStore`] — lock-sharded in-memory store, the default for
//!   embedded use and benchmarks.
//! * [`LogStore`] — segmented log-structured persistent store (chunks
//!   are immutable, so an append-only log with an in-memory index is the
//!   natural layout, §4.4): group-committed writes with a
//!   [`Durability`] knob, index snapshots so reopen replays only the
//!   tail, torn-tail recovery, and in-place compaction.
//! * [`ShardedCache`] — sharded clock chunk cache in front of another
//!   store, modelling servlet/client caches (§4.6, §5.2); the bare
//!   [`ChunkCache`] is embeddable where a wrapper store does not fit.

pub mod cache;
pub mod chunk;
pub mod codec;
pub mod logstore;
pub mod memstore;
pub mod store;

pub use cache::{CacheConfig, ChunkCache, ShardedCache};
pub use chunk::{Chunk, ChunkType};
pub use logstore::{CompactStats, Durability, LogConfig, LogStore, ReopenStats};
pub use memstore::MemStore;
pub use store::{ChunkStore, PutOutcome, StoreStats};

pub use forkbase_crypto::Digest;
