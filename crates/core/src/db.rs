//! The ForkBase engine: the full API surface of Table 1 (M1–M17).
//!
//! | Group | Methods |
//! |-------|---------|
//! | Get   | [`get`](ForkBase::get) (M1), [`get_version`](Engine::get_version) (M2) |
//! | Put   | [`put`](ForkBase::put) (M3), [`put_guarded`](ForkBase::put_guarded), [`put_conflict`](Engine::put_conflict) (M4) |
//! | Merge | [`merge_branches`](ForkBase::merge_branches) (M5), [`merge_with_version`](ForkBase::merge_with_version) (M6), [`merge_versions`](Engine::merge_versions) (M7) |
//! | View  | [`list_keys`](Engine::list_keys) (M8), [`list_tagged_branches`](Engine::list_tagged_branches) (M9), [`list_untagged_branches`](Engine::list_untagged_branches) (M10) |
//! | Fork  | [`fork`](ForkBase::fork) (M11), [`fork_version`](Engine::fork_version) (M12), [`rename_branch`](ForkBase::rename_branch) (M13), [`remove_branch`](ForkBase::remove_branch) (M14) |
//! | Track | [`track`](ForkBase::track) (M15), [`track_version`](Engine::track_version) (M16), [`lca`](Engine::lca) (M17) |
//!
//! All of these are available on the [`ForkBase`] handle, which derefs
//! to [`Engine`]; the links point at whichever type defines the method
//! (the handle shadows the default-branch-mutating subset to coordinate
//! with the hot tier).

use crate::branch::{BranchSlot, ShardedBranchMap};
use crate::checkpoint::BranchSnapshot;
use crate::error::{FbError, Result};
use crate::fobject::FObject;
use crate::history;
use crate::hot::{edits_to_batch, HotTier, HotTierConfig, HotTierStats};
use crate::value::{Value, ValueType};
use bytes::Bytes;
use forkbase_chunk::{
    CacheConfig, Chunk, ChunkStore, Durability, LogConfig, LogStore, MemStore, ShardedCache,
};
use forkbase_crypto::fx::FxHashMap;
use forkbase_crypto::{ChunkerConfig, Digest};
use forkbase_pos::{builder, merge3_blob, merge3_sorted, Blob, List, Map, Resolver, Set, TreeType};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// The branch written when no branch is given (§3.1).
pub const DEFAULT_BRANCH: &str = "master";

/// The engine core: branch tables, chunk store, and the full M1–M17
/// method surface plus checkpointing. [`ForkBase`] is a thin handle that
/// derefs to this and overlays the optional hot tier (see
/// [`crate::hot`]); the hot-tier publisher commits through a shared
/// `Arc<Engine>` behind the handle's back.
pub struct Engine {
    store: Arc<dyn ChunkStore>,
    cfg: ChunkerConfig,
    /// Per-key branch-head slots behind striped locks (§4.5 branch
    /// tables). Commits serialize per key, never across keys — the
    /// multi-writer commit pipeline scales because disjoint-key writers
    /// take disjoint locks.
    branches: ShardedBranchMap,
    /// Typed handle to the backing [`LogStore`] when this instance was
    /// opened durably — used by [`commit_checkpoint`](Self::commit_checkpoint)
    /// and in-place GC ([`gc::compact_in_place`](crate::gc::compact_in_place)).
    durable: Option<Arc<LogStore>>,
    /// The read-tier chunk cache when one was configured at open —
    /// gives callers (and GC) stats/clear access without downcasting
    /// `store`.
    cache: Option<Arc<ShardedCache>>,
    /// Serializes [`commit_checkpoint`](Self::commit_checkpoint): the
    /// hot-tier publisher checkpoints after publish rounds while flushes
    /// and callers checkpoint too, and the HEAD.tmp write + rename must
    /// not interleave (a lost rename, or an older cid landing last).
    ckpt_lock: Mutex<()>,
}

/// Name of the checkpoint-cid ref file inside a durable instance's
/// directory (cf. git's `HEAD`).
const HEAD_FILE: &str = "HEAD";

impl Engine {
    /// In-memory instance with default chunking parameters.
    pub fn in_memory() -> Engine {
        Engine::with_store(Arc::new(MemStore::new()), ChunkerConfig::default())
    }

    /// Instance over an arbitrary chunk store (persistent, cached,
    /// cluster-routed, …).
    pub fn with_store(store: Arc<dyn ChunkStore>, cfg: ChunkerConfig) -> Engine {
        Engine {
            store,
            cfg,
            branches: ShardedBranchMap::new(),
            durable: None,
            cache: None,
            ckpt_lock: Mutex::new(()),
        }
    }

    /// Open (or create) a durable instance in directory `path` over a
    /// segmented [`LogStore`] with default chunking, sizing,
    /// [`Durability`], and the default read-tier chunk cache
    /// ([`CacheConfig::default`] — on). If a previous session left a
    /// checkpoint ref (written by
    /// [`commit_checkpoint`](Self::commit_checkpoint)), all branch heads
    /// are restored from it.
    pub fn open(path: impl AsRef<Path>) -> Result<Engine> {
        Self::open_with(
            path,
            ChunkerConfig::default(),
            Durability::default(),
            CacheConfig::default(),
        )
    }

    /// [`open`](Self::open) with explicit chunking configuration,
    /// durability policy, and read-tier cache sizing (pass
    /// [`CacheConfig::disabled`] for raw `LogStore` reads).
    pub fn open_with(
        path: impl AsRef<Path>,
        cfg: ChunkerConfig,
        durability: Durability,
        cache: CacheConfig,
    ) -> Result<Engine> {
        let path = path.as_ref();
        let log = Arc::new(LogStore::open_with(path, LogConfig::default(), durability)?);
        let mut cache_handle = None;
        let store: Arc<dyn ChunkStore> = if cache.enabled {
            let wrapped = Arc::new(ShardedCache::new(log.clone() as Arc<dyn ChunkStore>, cache));
            cache_handle = Some(wrapped.clone());
            wrapped
        } else {
            log.clone()
        };
        let head_path = path.join(HEAD_FILE);
        let mut db = match std::fs::read_to_string(&head_path) {
            Ok(hex) => {
                let cid = Digest::from_hex(hex.trim()).ok_or_else(|| {
                    FbError::Corrupt(format!("unparseable checkpoint ref in {HEAD_FILE}"))
                })?;
                Self::restore(store, cfg, cid)?
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Self::with_store(store, cfg),
            Err(e) => return Err(e.into()),
        };
        db.durable = Some(log);
        db.cache = cache_handle;
        Ok(db)
    }

    /// Checkpoint the branch tables into the store **and** make it the
    /// recovery point: the chunk log is fsynced and the checkpoint cid
    /// is written to the `HEAD` ref file (atomic rename), so a later
    /// [`open`](Self::open) of the same directory restores every branch
    /// head. Requires a durable instance.
    pub fn commit_checkpoint(&self) -> Result<Digest> {
        let store = self
            .durable
            .as_ref()
            .ok_or_else(|| FbError::Io("not a durable instance (use ForkBase::open)".into()))?;
        let _serialized = self.ckpt_lock.lock().expect("checkpoint lock");
        let cid = self.checkpoint();
        store.sync()?;
        let tmp = store.dir().join("HEAD.tmp");
        {
            // fsync before the rename: a crash must never promote a
            // HEAD whose data blocks were still in the page cache.
            use std::io::Write;
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(cid.to_hex().as_bytes())?;
            f.sync_data()?;
        }
        std::fs::rename(&tmp, store.dir().join(HEAD_FILE))?;
        // Make the rename itself durable (best effort — not every
        // filesystem supports fsync on a directory handle).
        if let Ok(d) = std::fs::File::open(store.dir()) {
            let _ = d.sync_data();
        }
        Ok(cid)
    }

    /// The backing [`LogStore`] when this instance was opened durably.
    pub fn durable_store(&self) -> Option<&Arc<LogStore>> {
        self.durable.as_ref()
    }

    /// The read-tier chunk cache when one was configured at open.
    pub fn chunk_cache(&self) -> Option<&Arc<ShardedCache>> {
        self.cache.as_ref()
    }

    /// (cache hits, cache misses) of the read tier, if caching is on.
    pub fn cache_stats(&self) -> Option<(u64, u64)> {
        self.cache.as_ref().map(|c| c.hit_miss())
    }

    /// The underlying chunk store.
    pub fn store(&self) -> &dyn ChunkStore {
        self.store.as_ref()
    }

    /// Shared handle to the chunk store.
    pub fn store_arc(&self) -> Arc<dyn ChunkStore> {
        Arc::clone(&self.store)
    }

    /// The chunking configuration.
    pub fn cfg(&self) -> &ChunkerConfig {
        &self.cfg
    }

    // ---- chunkable value constructors -----------------------------------

    /// Build a Blob in this instance's store.
    pub fn new_blob(&self, data: &[u8]) -> Blob {
        Blob::build(self.store(), &self.cfg, data)
    }

    /// Build a Blob from an owned/shared buffer: leaf payloads are
    /// zero-copy slices of `data`, skipping the up-front copy
    /// [`new_blob`](Self::new_blob) pays for borrowed input.
    pub fn new_blob_bytes(&self, data: impl Into<Bytes>) -> Blob {
        Blob::build_bytes(self.store(), &self.cfg, data)
    }

    /// Build a List in this instance's store.
    pub fn new_list<I, B>(&self, elems: I) -> List
    where
        I: IntoIterator<Item = B>,
        B: Into<Bytes>,
    {
        List::build(self.store(), &self.cfg, elems)
    }

    /// Build a Map in this instance's store.
    pub fn new_map<I, K, V>(&self, pairs: I) -> Map
    where
        I: IntoIterator<Item = (K, V)>,
        K: Into<Bytes>,
        V: Into<Bytes>,
    {
        Map::build(self.store(), &self.cfg, pairs)
    }

    /// Build a Set in this instance's store.
    pub fn new_set<I, K>(&self, elems: I) -> Set
    where
        I: IntoIterator<Item = K>,
        K: Into<Bytes>,
    {
        Set::build(self.store(), &self.cfg, elems)
    }

    // ---- Put (M3, M4) ----------------------------------------------------

    /// M3: write a new version to a tagged branch (default branch when
    /// `branch` is `None`). The default branch is created implicitly;
    /// other branches must exist (create them with [`fork`](Self::fork)).
    pub fn put(&self, key: impl Into<Bytes>, branch: Option<&str>, value: Value) -> Result<Digest> {
        self.put_with_context(key, branch, value, Bytes::new())
    }

    /// M3 with application metadata stored in the FObject `context` field.
    pub fn put_with_context(
        &self,
        key: impl Into<Bytes>,
        branch: Option<&str>,
        value: Value,
        context: impl Into<Bytes>,
    ) -> Result<Digest> {
        let key = key.into();
        let branch = branch.unwrap_or(DEFAULT_BRANCH);
        // Concurrent updates on a tagged branch are serialized by the
        // servlet (§4.5.1) — but only per key: the key's branch slot is
        // held across the head-read → persist → head-advance sequence,
        // so writers to disjoint keys never contend. Only the meta chunk
        // is written under the lock; chunkable payloads were already
        // persisted when the value was built.
        let slot = self.branches.slot(&key);
        let mut table = slot.write();
        if !table.has_branch(branch) && branch != DEFAULT_BRANCH {
            return Err(FbError::BranchNotFound(branch.to_string()));
        }
        let bases: Vec<Digest> = table.head(branch).into_iter().collect();
        let uid = self.persist_object(&key, &value, &bases, context.into())?;
        table.record_version(uid, &bases);
        table.set_head(branch, uid);
        Ok(uid)
    }

    /// Batched M3: write one new version for **each** of `entries` as one
    /// commit-pipeline pass. Every entry is validated first (a missing
    /// non-default branch fails the whole batch before any head moves),
    /// then the pipeline runs in three overlapped stages:
    ///
    /// 1. **encode** — every meta chunk is built outside all branch
    ///    locks, against a snapshot of each key's head (duplicate keys
    ///    chain onto the version built earlier in the same batch);
    /// 2. **store I/O** — all meta chunks land with one
    ///    [`ChunkStore::put_many`], i.e. one group-commit round on a
    ///    durable store instead of one fsync wait per entry;
    /// 3. **publish** — each key's head advances under its own branch
    ///    slot via optimistic CAS. A key whose head moved since the
    ///    snapshot is **rebased**: its chain is re-encoded against the
    ///    new head under the slot lock (meta chunks only — the value
    ///    payloads are already in the store and content addressing
    ///    dedups them).
    ///
    /// Returns the new uids in entry order. Unlike the retired
    /// global-lock path, head advances of *different* keys are published
    /// independently — a reader racing the batch may observe some keys
    /// advanced and others not yet (per-key atomicity is unchanged).
    pub fn put_many<I, K>(&self, branch: Option<&str>, entries: I) -> Result<Vec<Digest>>
    where
        I: IntoIterator<Item = (K, Value)>,
        K: Into<Bytes>,
    {
        let branch = branch.unwrap_or(DEFAULT_BRANCH);
        let entries: Vec<(Bytes, Value)> =
            entries.into_iter().map(|(k, v)| (k.into(), v)).collect();
        // Validate every key before any head moves.
        if branch != DEFAULT_BRANCH {
            for (key, _) in &entries {
                let exists = self
                    .branches
                    .get(key)
                    .map(|slot| slot.read().has_branch(branch))
                    .unwrap_or(false);
                if !exists {
                    return Err(FbError::BranchNotFound(branch.to_string()));
                }
            }
        }

        // Stage 1: snapshot heads and encode every meta chunk outside
        // the branch locks. Entries are grouped per key in batch order.
        struct KeyPlan {
            slot: BranchSlot,
            snapshot: Option<Digest>,
            /// Depth of the next version appended to this key's chain.
            next_depth: u64,
            /// (entry index, uid, bases) in batch order for this key.
            chain: Vec<(usize, Digest, Vec<Digest>)>,
        }
        let mut plans: FxHashMap<Bytes, KeyPlan> = FxHashMap::default();
        let mut order: Vec<Bytes> = Vec::new();
        let mut chunks: Vec<Chunk> = Vec::with_capacity(entries.len());
        for (i, (key, value)) in entries.iter().enumerate() {
            if !plans.contains_key(key) {
                let slot = self.branches.slot(key);
                let snapshot = slot.read().head(branch);
                let (_, next_depth) = self.chain_link(snapshot)?;
                plans.insert(
                    key.clone(),
                    KeyPlan {
                        slot,
                        snapshot,
                        next_depth,
                        chain: Vec::new(),
                    },
                );
                order.push(key.clone());
            }
            let plan = plans.get_mut(key).expect("plan just inserted");
            let prev = plan.chain.last().map(|(_, uid, _)| *uid).or(plan.snapshot);
            let bases: Vec<Digest> = prev.into_iter().collect();
            let obj = FObject::new(
                key.clone(),
                value,
                bases.clone(),
                plan.next_depth,
                Bytes::new(),
            );
            plan.next_depth += 1;
            let chunk = obj.to_chunk();
            plan.chain.push((i, chunk.cid(), bases));
            chunks.push(chunk);
        }

        // Stage 2: one batched store commit for every meta chunk.
        self.store.put_many(chunks);

        // Stage 3: per-key optimistic publish; rebase on a moved head.
        let mut uids: Vec<Digest> = vec![Digest::ZERO; entries.len()];
        for key in order {
            let plan = plans.remove(&key).expect("planned key");
            let mut table = plan.slot.write();
            if table.head(branch) == plan.snapshot {
                for (i, uid, bases) in &plan.chain {
                    table.record_version(*uid, bases);
                    uids[*i] = *uid;
                }
                let (_, last, _) = plan.chain.last().expect("non-empty chain");
                table.set_head(branch, *last);
                continue;
            }
            // Lost the CAS: a concurrent writer advanced this key. Re-link
            // the chain onto the current head under the slot lock; only
            // the cheap meta chunks are re-encoded and re-put.
            let mut prev = table.head(branch);
            for (i, _, _) in &plan.chain {
                let bases: Vec<Digest> = prev.into_iter().collect();
                let uid = self.persist_object(&key, &entries[*i].1, &bases, Bytes::new())?;
                table.record_version(uid, &bases);
                uids[*i] = uid;
                prev = Some(uid);
            }
            table.set_head(branch, prev.expect("chain published at least one version"));
        }
        Ok(uids)
    }

    /// `(bases, depth)` for a version derived from `prev`.
    fn chain_link(&self, prev: Option<Digest>) -> Result<(Vec<Digest>, u64)> {
        match prev {
            Some(uid) => {
                let depth = FObject::load(self.store(), uid)
                    .map(|o| o.depth + 1)
                    .unwrap_or(0);
                Ok((vec![uid], depth))
            }
            None => Ok((Vec::new(), 0)),
        }
    }

    /// Transactional Map batch commit: load the branch head of `key`
    /// (which must hold a Map), apply `batch` as one multi-range splice,
    /// and commit the result as a new version. A missing key starts from
    /// an empty map on the default branch.
    ///
    /// The splice (chunking + hashing + chunk-store writes) runs
    /// **outside** the branch-table lock — a large batch must not stall
    /// writers of unrelated keys. Publication is optimistic: the head is
    /// re-checked under the key's slot lock, and if a concurrent writer
    /// moved it the batch is **merged onto the new head** with
    /// [`merge3_sorted`] (base = the head we spliced against, ours = our
    /// spliced map, theirs = the observed head; batch edits win on
    /// subkeys both sides touched) — the paper's merge machinery is the
    /// contention resolver, so only conflicting tree regions are
    /// re-walked instead of redoing the whole splice. If the observed
    /// head is not mergeable (type changed under us, or the branch
    /// vanished) the splice is redone from scratch. Chunks written by an
    /// abandoned attempt deduplicate or become garbage for a later
    /// [`gc`](crate::gc) pass, exactly like an abandoned
    /// fork-on-conflict lineage.
    pub fn commit_map_batch(
        &self,
        key: impl Into<Bytes>,
        branch: Option<&str>,
        batch: forkbase_pos::WriteBatch,
    ) -> Result<Digest> {
        let key = key.into();
        let branch = branch.unwrap_or(DEFAULT_BRANCH);
        let slot = self.branches.slot(&key);
        let mut base = slot.read().head(branch);
        if base.is_none() && branch != DEFAULT_BRANCH {
            return Err(FbError::BranchNotFound(branch.to_string()));
        }
        let mut ours = self
            .map_at(base)?
            .apply(self.store(), &self.cfg, batch.clone())?;
        loop {
            let bases: Vec<Digest> = base.into_iter().collect();
            let uid = self.persist_object(&key, &Value::Map(ours), &bases, Bytes::new())?;
            let observed = {
                let mut table = slot.write();
                let observed = table.head(branch);
                if observed == base {
                    table.record_version(uid, &bases);
                    table.set_head(branch, uid);
                    return Ok(uid);
                }
                observed
            };
            // Lost the CAS. Re-splice against a vanished/retyped head,
            // merge against anything else.
            ours = match observed {
                Some(theirs_uid) => match self.merge_map_onto(base, &ours, theirs_uid) {
                    Some(merged) => merged,
                    None => self
                        .map_at(observed)?
                        .apply(self.store(), &self.cfg, batch.clone())?,
                },
                None => {
                    if branch != DEFAULT_BRANCH {
                        return Err(FbError::BranchNotFound(branch.to_string()));
                    }
                    self.map_at(None)?
                        .apply(self.store(), &self.cfg, batch.clone())?
                }
            };
            base = observed;
        }
    }

    /// The Map at a branch head, or the canonical empty Map for `None`.
    fn map_at(&self, head: Option<Digest>) -> Result<Map> {
        match head {
            Some(uid) => {
                let obj = FObject::load(self.store(), uid)?;
                obj.value(self.store())?.as_map()
            }
            None => Ok(Map::build(
                self.store(),
                &self.cfg,
                std::iter::empty::<(Bytes, Bytes)>(),
            )),
        }
    }

    /// Three-way merge `ours` (spliced off `base`) onto the concurrently
    /// published head `theirs`, our edits winning where both sides
    /// touched a subkey. `None` when `theirs` is not a mergeable Map —
    /// the caller falls back to a full re-splice.
    fn merge_map_onto(&self, base: Option<Digest>, ours: &Map, theirs: Digest) -> Option<Map> {
        let theirs_root = self.map_at(Some(theirs)).ok()?.root();
        let base_root = self.map_at(base).ok()?.root();
        let out = merge3_sorted(
            self.store(),
            &self.cfg,
            TreeType::Map,
            base_root,
            ours.root(),
            theirs_root,
            &Resolver::TakeOurs,
        )
        .ok()?;
        Some(Map::from_root(out.root))
    }

    /// Guarded put (§4.5.1): succeeds only if the branch head still equals
    /// `guard`, protecting against lost updates.
    pub fn put_guarded(
        &self,
        key: impl Into<Bytes>,
        branch: Option<&str>,
        value: Value,
        guard: Digest,
    ) -> Result<Digest> {
        let key = key.into();
        let branch = branch.unwrap_or(DEFAULT_BRANCH);
        let slot = self.branches.slot(&key);
        let mut table = slot.write();
        let head = table
            .head(branch)
            .ok_or_else(|| FbError::BranchNotFound(branch.to_string()))?;
        if head != guard {
            return Err(FbError::GuardFailed {
                expected: guard,
                actual: head,
            });
        }
        let bases = vec![head];
        let uid = self.persist_object(&key, &value, &bases, Bytes::new())?;
        table.record_version(uid, &bases);
        table.set_head(branch, uid);
        Ok(uid)
    }

    /// M4: fork-on-conflict put — derive a new untagged version from
    /// `base` (or start a fresh untagged lineage with `None`). Concurrent
    /// puts against the same base create conflicting heads, visible via
    /// [`list_untagged_branches`](Self::list_untagged_branches).
    pub fn put_conflict(
        &self,
        key: impl Into<Bytes>,
        base: Option<Digest>,
        value: Value,
    ) -> Result<Digest> {
        self.put_conflict_with_context(key, base, value, Bytes::new())
    }

    /// M4 with application metadata stored in the FObject `context`
    /// field. Because the uid commits to the context (alongside value,
    /// bases and depth), context carried here is tamper-evident — a
    /// block store keeps its header fields (timestamps, proposer ids)
    /// in it and gets content-addressed headers for free.
    pub fn put_conflict_with_context(
        &self,
        key: impl Into<Bytes>,
        base: Option<Digest>,
        value: Value,
        context: impl Into<Bytes>,
    ) -> Result<Digest> {
        let key = key.into();
        if let Some(base) = base {
            let obj = FObject::load(self.store(), base)?;
            if obj.key != key {
                return Err(FbError::VersionNotFound(base));
            }
        }
        self.commit(&key, &value, base.into_iter().collect(), context.into())
    }

    /// Batched **linked** M4: append `items` as one untagged chain —
    /// each version's base is the previous item's uid (the first links
    /// to `base`, or starts a fresh lineage with `None`). Unlike
    /// [`put_conflict_many`](Self::put_conflict_many), whose entries
    /// carry independent pre-existing bases, the in-batch parent links
    /// here are only known as the batch encodes, so the chain is built
    /// in one pass: every meta chunk is encoded against its
    /// predecessor's uid outside any lock, all of them land with a
    /// single [`ChunkStore::put_many`] (one group-commit fsync round on
    /// a durable store), and the UB-table records the whole chain under
    /// one slot-lock hold — intermediate versions are retired as they
    /// are superseded, so only the final uid surfaces as a new head.
    /// Returns the uids in item order.
    pub fn append_chain<I>(
        &self,
        key: impl Into<Bytes>,
        base: Option<Digest>,
        items: I,
    ) -> Result<Vec<Digest>>
    where
        I: IntoIterator<Item = (Value, Bytes)>,
    {
        let key = key.into();
        if let Some(base) = base {
            let obj = FObject::load(self.store(), base)?;
            if obj.key != key {
                return Err(FbError::VersionNotFound(base));
            }
        }
        let (mut bases, mut depth) = self.chain_link(base)?;
        let mut chunks: Vec<Chunk> = Vec::new();
        let mut links: Vec<(Digest, Vec<Digest>)> = Vec::new();
        for (value, context) in items {
            let obj = FObject::new(key.clone(), &value, bases.clone(), depth, context);
            let chunk = obj.to_chunk();
            let uid = chunk.cid();
            links.push((uid, bases));
            chunks.push(chunk);
            bases = vec![uid];
            depth += 1;
        }
        if chunks.is_empty() {
            return Ok(Vec::new());
        }
        self.store.put_many(chunks);
        let slot = self.branches.slot(&key);
        let mut table = slot.write();
        let mut uids = Vec::with_capacity(links.len());
        for (uid, bases) in links {
            table.record_version(uid, &bases);
            uids.push(uid);
        }
        Ok(uids)
    }

    /// Build and persist the FObject meta chunk. Touches only the chunk
    /// store — callers record the new version in the branch table
    /// themselves, so this is safe to call with the branch lock held
    /// (the lock is **not reentrant**).
    fn persist_object(
        &self,
        key: &Bytes,
        value: &Value,
        bases: &[Digest],
        context: Bytes,
    ) -> Result<Digest> {
        let depth = bases
            .iter()
            .map(|b| {
                FObject::load(self.store(), *b)
                    .map(|o| o.depth + 1)
                    .unwrap_or(0)
            })
            .max()
            .unwrap_or(0);
        let obj = FObject::new(key.clone(), value, bases.to_vec(), depth, context);
        let chunk = obj.to_chunk();
        let uid = chunk.cid();
        self.store.put(chunk);
        Ok(uid)
    }

    /// Create and persist the FObject; update the UB-table. Must be called
    /// **without** the branch lock held.
    fn commit(
        &self,
        key: &Bytes,
        value: &Value,
        bases: Vec<Digest>,
        context: Bytes,
    ) -> Result<Digest> {
        let uid = self.persist_object(key, value, &bases, context)?;
        self.branches.slot(key).write().record_version(uid, &bases);
        Ok(uid)
    }

    /// Batched M4: one fork-on-conflict put per `(key, base, value)`
    /// entry, all meta chunks landing with a single
    /// [`ChunkStore::put_many`] group-commit round. Every base is
    /// validated before anything is written; UB-tables are updated per
    /// key under that key's own slot lock. Returns the new uids in entry
    /// order.
    pub fn put_conflict_many<I, K>(&self, entries: I) -> Result<Vec<Digest>>
    where
        I: IntoIterator<Item = (K, Option<Digest>, Value)>,
        K: Into<Bytes>,
    {
        let entries: Vec<(Bytes, Option<Digest>, Value)> = entries
            .into_iter()
            .map(|(k, b, v)| (k.into(), b, v))
            .collect();
        for (key, base, _) in &entries {
            if let Some(base) = base {
                let obj = FObject::load(self.store(), *base)?;
                if obj.key != *key {
                    return Err(FbError::VersionNotFound(*base));
                }
            }
        }
        let mut chunks: Vec<Chunk> = Vec::with_capacity(entries.len());
        let mut metas: Vec<(Bytes, Digest, Vec<Digest>)> = Vec::with_capacity(entries.len());
        for (key, base, value) in &entries {
            let (bases, depth) = self.chain_link(*base)?;
            let obj = FObject::new(key.clone(), value, bases.clone(), depth, Bytes::new());
            let chunk = obj.to_chunk();
            metas.push((key.clone(), chunk.cid(), bases));
            chunks.push(chunk);
        }
        self.store.put_many(chunks);
        let mut uids = Vec::with_capacity(metas.len());
        for (key, uid, bases) in metas {
            self.branches.slot(&key).write().record_version(uid, &bases);
            uids.push(uid);
        }
        Ok(uids)
    }

    // ---- Get (M1, M2) ----------------------------------------------------

    /// M1: read the head version of a tagged branch (default branch when
    /// `None`).
    pub fn get(&self, key: impl Into<Bytes>, branch: Option<&str>) -> Result<FObject> {
        let uid = self.head(key, branch)?;
        FObject::load(self.store(), uid)
    }

    /// The head uid of a tagged branch.
    pub fn head(&self, key: impl Into<Bytes>, branch: Option<&str>) -> Result<Digest> {
        let key = key.into();
        let branch = branch.unwrap_or(DEFAULT_BRANCH);
        let slot = self.branches.get(&key).ok_or(FbError::KeyNotFound)?;
        let head = slot.read().head(branch);
        head.ok_or_else(|| FbError::BranchNotFound(branch.to_string()))
    }

    /// M2: read a specific version by uid (works for both tagged and
    /// untagged lineages).
    pub fn get_version(&self, key: impl Into<Bytes>, uid: Digest) -> Result<FObject> {
        let key = key.into();
        let obj = FObject::load(self.store(), uid)?;
        if obj.key != key {
            return Err(FbError::VersionNotFound(uid));
        }
        Ok(obj)
    }

    /// Convenience: decode the head value of a branch.
    pub fn get_value(&self, key: impl Into<Bytes>, branch: Option<&str>) -> Result<Value> {
        let obj = self.get(key, branch)?;
        obj.value(self.store())
    }

    /// Latest committed value of `subkey` inside the Map at `key`'s
    /// default-branch head — the hot tier's fall-through read. A missing
    /// key, branch or subkey is `Ok(None)`; only store/decode failures
    /// (or a non-Map head) error.
    pub fn map_get_latest(&self, key: &Bytes, subkey: &[u8]) -> Result<Option<Bytes>> {
        let slot = match self.branches.get(key) {
            Some(slot) => slot,
            None => return Ok(None),
        };
        let head = slot.read().head(DEFAULT_BRANCH);
        let Some(uid) = head else { return Ok(None) };
        let obj = FObject::load(self.store(), uid)?;
        let map = obj.value(self.store())?.as_map()?;
        Ok(map.get(self.store(), subkey))
    }

    // ---- View (M8–M10) ---------------------------------------------------

    /// M8: every key with at least one branch.
    pub fn list_keys(&self) -> Vec<Bytes> {
        self.branches.keys()
    }

    /// M9: tagged branch names and head uids of a key.
    pub fn list_tagged_branches(&self, key: impl Into<Bytes>) -> Result<Vec<(String, Digest)>> {
        let key = key.into();
        let slot = self.branches.get(&key).ok_or(FbError::KeyNotFound)?;
        let out = slot.read().tagged_branches();
        Ok(out)
    }

    /// M10: untagged (fork-on-conflict) heads of a key. A single entry
    /// means no conflict.
    pub fn list_untagged_branches(&self, key: impl Into<Bytes>) -> Result<Vec<Digest>> {
        let key = key.into();
        let slot = self.branches.get(&key).ok_or(FbError::KeyNotFound)?;
        let out = slot.read().untagged_heads();
        Ok(out)
    }

    // ---- Fork (M11–M14) ---------------------------------------------------

    /// M11: create a tagged branch from an existing branch's head.
    pub fn fork(&self, key: impl Into<Bytes>, from: &str, new_branch: &str) -> Result<()> {
        let key = key.into();
        let slot = self.branches.get(&key).ok_or(FbError::KeyNotFound)?;
        let mut table = slot.write();
        if table.has_branch(new_branch) {
            return Err(FbError::BranchExists(new_branch.to_string()));
        }
        let head = table
            .head(from)
            .ok_or_else(|| FbError::BranchNotFound(from.to_string()))?;
        table.set_head(new_branch, head);
        Ok(())
    }

    /// M12: create a tagged branch at a (possibly non-head) version,
    /// making history modifiable (§3.3: "to change a historical version, a
    /// new branch can be created at that version").
    pub fn fork_version(&self, key: impl Into<Bytes>, uid: Digest, new_branch: &str) -> Result<()> {
        let key = key.into();
        let obj = FObject::load(self.store(), uid)?;
        if obj.key != key {
            return Err(FbError::VersionNotFound(uid));
        }
        let slot = self.branches.slot(&key);
        let mut table = slot.write();
        if table.has_branch(new_branch) {
            return Err(FbError::BranchExists(new_branch.to_string()));
        }
        table.set_head(new_branch, uid);
        Ok(())
    }

    /// M13: rename a tagged branch.
    pub fn rename_branch(&self, key: impl Into<Bytes>, from: &str, to: &str) -> Result<()> {
        let key = key.into();
        let slot = self.branches.get(&key).ok_or(FbError::KeyNotFound)?;
        let mut table = slot.write();
        if table.has_branch(to) {
            return Err(FbError::BranchExists(to.to_string()));
        }
        if !table.rename(from, to) {
            return Err(FbError::BranchNotFound(from.to_string()));
        }
        Ok(())
    }

    /// M14: remove a tagged branch. Versions stay in the store (they may
    /// be shared with other branches and histories). If no other tagged
    /// branch names the removed head, it is also retired from the
    /// UB-table, so the branch's exclusive versions become unreachable
    /// and a later [`gc`](crate::gc) pass can reclaim them. Heads created
    /// purely by fork-on-conflict are unaffected — they are never tagged,
    /// so this path cannot retire them.
    pub fn remove_branch(&self, key: impl Into<Bytes>, branch: &str) -> Result<()> {
        let key = key.into();
        let slot = self.branches.get(&key).ok_or(FbError::KeyNotFound)?;
        let mut table = slot.write();
        let head = table
            .remove_branch(branch)
            .ok_or_else(|| FbError::BranchNotFound(branch.to_string()))?;
        let still_named = table.tagged_branches().iter().any(|(_, h)| *h == head);
        if !still_named {
            table.retire_untagged(head);
        }
        Ok(())
    }

    /// Retire fork-on-conflict heads from `key`'s UB-table without
    /// recording successors — the complement of
    /// [`remove_branch`](Self::remove_branch) for *untagged* lineages.
    /// Versions stay in the store; retiring a head only stops naming it
    /// as a leaf of the derivation graph, so the lineage's exclusive
    /// versions become reclaimable by a later [`gc`](crate::gc) pass. A
    /// head that is also the head of a tagged branch is skipped (the
    /// tagged ref still names it), as is a digest that is not currently
    /// an untagged head. Returns how many heads were actually retired.
    pub fn retire_untagged_heads(&self, key: impl Into<Bytes>, heads: &[Digest]) -> Result<usize> {
        let key = key.into();
        let slot = self.branches.get(&key).ok_or(FbError::KeyNotFound)?;
        let mut table = slot.write();
        let tagged: Vec<Digest> = table.tagged_branches().iter().map(|(_, h)| *h).collect();
        let mut retired = 0usize;
        for head in heads {
            if tagged.contains(head) {
                continue;
            }
            if table.retire_untagged(*head) {
                retired += 1;
            }
        }
        Ok(retired)
    }

    // ---- Track (M15–M17) --------------------------------------------------

    /// M15: versions of a branch within `[min_dist, max_dist]` hops from
    /// the head.
    pub fn track(
        &self,
        key: impl Into<Bytes>,
        branch: Option<&str>,
        min_dist: u64,
        max_dist: u64,
    ) -> Result<Vec<history::TrackedVersion>> {
        let head = self.head(key, branch)?;
        history::track(self.store(), head, min_dist, max_dist)
    }

    /// M16: versions within a distance range from an arbitrary version.
    pub fn track_version(
        &self,
        key: impl Into<Bytes>,
        uid: Digest,
        min_dist: u64,
        max_dist: u64,
    ) -> Result<Vec<history::TrackedVersion>> {
        let key = key.into();
        let obj = FObject::load(self.store(), uid)?;
        if obj.key != key {
            return Err(FbError::VersionNotFound(uid));
        }
        history::track(self.store(), uid, min_dist, max_dist)
    }

    /// M17: the least common ancestor of two versions of the same key.
    pub fn lca(&self, key: impl Into<Bytes>, a: Digest, b: Digest) -> Result<Option<Digest>> {
        let key = key.into();
        for uid in [a, b] {
            let obj = FObject::load(self.store(), uid)?;
            if obj.key != key {
                return Err(FbError::VersionNotFound(uid));
            }
        }
        history::lca(self.store(), a, b)
    }

    // ---- Checkpoint / restore (engine extension) --------------------------

    /// Capture every key's branch table as a canonical snapshot. Each
    /// slot is read consistently; under concurrent writers the snapshot
    /// as a whole is some interleaving of their per-key publishes (the
    /// same guarantee readers get).
    pub fn snapshot_branches(&self) -> BranchSnapshot {
        let mut entries: Vec<_> = Vec::new();
        self.branches.for_each(|key, table| {
            entries.push((key.clone(), table.tagged_branches(), table.untagged_heads()));
        });
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        BranchSnapshot { entries }
    }

    /// Persist the branch tables as a checkpoint chunk and return its cid
    /// — the one piece of state to keep outside the store (cf. git refs).
    pub fn checkpoint(&self) -> Digest {
        let chunk = self.snapshot_branches().to_chunk();
        let cid = chunk.cid();
        self.store.put(chunk);
        cid
    }

    /// Reopen an instance from a store plus the cid of a checkpoint taken
    /// with [`checkpoint`](Self::checkpoint). All branch heads, tagged and
    /// untagged, are restored; the data itself was already durable.
    pub fn restore(
        store: Arc<dyn ChunkStore>,
        cfg: ChunkerConfig,
        checkpoint: Digest,
    ) -> Result<Engine> {
        let chunk = store
            .get(&checkpoint)
            .ok_or(FbError::VersionNotFound(checkpoint))?;
        if chunk.ty() != forkbase_chunk::ChunkType::Checkpoint {
            return Err(FbError::Corrupt(format!(
                "cid {} is not a checkpoint chunk",
                checkpoint.short_hex()
            )));
        }
        let snap = BranchSnapshot::decode(chunk.payload())?;
        let branches = ShardedBranchMap::new();
        for (key, tagged, untagged) in snap.entries {
            let slot = branches.slot(&key);
            let mut table = slot.write();
            for (name, head) in tagged {
                table.set_head(&name, head);
            }
            for head in untagged {
                table.record_version(head, &[]);
            }
        }
        Ok(Engine {
            store,
            cfg,
            branches,
            durable: None,
            cache: None,
            ckpt_lock: Mutex::new(()),
        })
    }

    // ---- Merge (M5–M7) ----------------------------------------------------

    /// M5: merge another branch into `target`; only `target`'s head moves.
    pub fn merge_branches(
        &self,
        key: impl Into<Bytes>,
        target: &str,
        reference: &str,
        resolver: &Resolver,
    ) -> Result<Digest> {
        let key = key.into();
        let ref_head = self.head(key.clone(), Some(reference))?;
        self.merge_with_version(key, target, ref_head, resolver)
    }

    /// M6: merge a specific version into a tagged branch.
    pub fn merge_with_version(
        &self,
        key: impl Into<Bytes>,
        target: &str,
        ref_uid: Digest,
        resolver: &Resolver,
    ) -> Result<Digest> {
        let key = key.into();
        let tgt_head = self.head(key.clone(), Some(target))?;
        let uid = self.merge_pair(&key, tgt_head, ref_uid, resolver)?;
        self.branches.slot(&key).write().set_head(target, uid);
        Ok(uid)
    }

    /// M7: merge a collection of (typically untagged) heads into one new
    /// untagged head, logically replacing the inputs.
    pub fn merge_versions(
        &self,
        key: impl Into<Bytes>,
        uids: &[Digest],
        resolver: &Resolver,
    ) -> Result<Digest> {
        let key = key.into();
        let mut iter = uids.iter();
        let mut acc = *iter.next().ok_or(FbError::KeyNotFound)?;
        for &next in iter {
            acc = self.merge_pair(&key, acc, next, resolver)?;
        }
        Ok(acc)
    }

    /// Three-way merge of two versions; creates and records the merged
    /// FObject (bases = both parents).
    fn merge_pair(
        &self,
        key: &Bytes,
        ours: Digest,
        theirs: Digest,
        resolver: &Resolver,
    ) -> Result<Digest> {
        if ours == theirs {
            return Ok(ours);
        }
        let ours_obj = self.get_version(key.clone(), ours)?;
        let theirs_obj = self.get_version(key.clone(), theirs)?;
        let base_uid = history::lca(self.store(), ours, theirs)?;
        let base_obj = match base_uid {
            Some(uid) => Some(FObject::load(self.store(), uid)?),
            None => None,
        };

        // Merging a version that is an ancestor of the other is a
        // fast-forward.
        if base_uid == Some(theirs) {
            return Ok(ours);
        }
        if base_uid == Some(ours) {
            let merged = theirs_obj.value(self.store())?;
            return self.commit(key, &merged, vec![ours, theirs], Bytes::new());
        }

        let merged = self.merge_values(&ours_obj, &theirs_obj, base_obj.as_ref(), resolver)?;
        self.commit(key, &merged, vec![ours, theirs], Bytes::new())
    }

    /// Type-specific three-way value merge (§4.5.2).
    fn merge_values(
        &self,
        ours: &FObject,
        theirs: &FObject,
        base: Option<&FObject>,
        resolver: &Resolver,
    ) -> Result<Value> {
        if ours.vtype != theirs.vtype {
            return Err(FbError::TypeMismatch {
                found: theirs.vtype.name(),
                expected: ours.vtype.name(),
            });
        }
        let store = self.store();
        let ours_v = ours.value(store)?;
        let theirs_v = theirs.value(store)?;
        let base_v = match base {
            Some(b) if b.vtype == ours.vtype => Some(b.value(store)?),
            _ => None,
        };

        match ours.vtype {
            ValueType::Map | ValueType::Set => {
                let ty = if ours.vtype == ValueType::Map {
                    TreeType::Map
                } else {
                    TreeType::Set
                };
                let base_root = match &base_v {
                    Some(v) => v.tree_root().expect("chunkable").1,
                    None => builder::build_items(store, &self.cfg, ty, std::iter::empty()),
                };
                let ours_root = ours_v.tree_root().expect("chunkable").1;
                let theirs_root = theirs_v.tree_root().expect("chunkable").1;
                let out = merge3_sorted(
                    store,
                    &self.cfg,
                    ty,
                    base_root,
                    ours_root,
                    theirs_root,
                    resolver,
                )
                .map_err(|e| match e {
                    forkbase_pos::MergeError::Conflicts(c) => FbError::MergeConflict(c.len()),
                    forkbase_pos::MergeError::Corrupt(t) => FbError::from(t),
                })?;
                Ok(if ours.vtype == ValueType::Map {
                    Value::Map(Map::from_root(out.root))
                } else {
                    Value::Set(Set::from_root(out.root))
                })
            }
            ValueType::Blob => {
                let base_root = match &base_v {
                    Some(v) => v.tree_root().expect("chunkable").1,
                    None => builder::build_blob(store, &self.cfg, &[]),
                };
                let ours_root = ours_v.tree_root().expect("chunkable").1;
                let theirs_root = theirs_v.tree_root().expect("chunkable").1;
                let root = merge3_blob(store, &self.cfg, base_root, ours_root, theirs_root)
                    .map_err(|e| match e {
                        forkbase_pos::BlobMergeError::Conflict(_) => FbError::MergeConflict(1),
                        forkbase_pos::BlobMergeError::Corrupt(t) => FbError::from(t),
                    })?;
                Ok(Value::Blob(Blob::from_root(root)))
            }
            // Whole-value merge for primitives and List.
            _ => {
                if ours_v == theirs_v {
                    return Ok(ours_v);
                }
                if base_v.as_ref() == Some(&ours_v) {
                    return Ok(theirs_v);
                }
                if base_v.as_ref() == Some(&theirs_v) {
                    return Ok(ours_v);
                }
                match resolver {
                    Resolver::TakeOurs => Ok(ours_v),
                    Resolver::TakeTheirs => Ok(theirs_v),
                    Resolver::Append => match (&ours_v, &theirs_v) {
                        (Value::String(a), Value::String(b)) => {
                            Ok(Value::String(format!("{a}{b}")))
                        }
                        _ => Err(FbError::MergeConflict(1)),
                    },
                    Resolver::Aggregate => match (&base_v, &ours_v, &theirs_v) {
                        (Some(Value::Int(b)), Value::Int(o), Value::Int(t)) => {
                            Ok(Value::Int(b + (o - b) + (t - b)))
                        }
                        (None, Value::Int(o), Value::Int(t)) => Ok(Value::Int(o + t)),
                        _ => Err(FbError::MergeConflict(1)),
                    },
                    _ => Err(FbError::MergeConflict(1)),
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The ForkBase handle: engine core + optional hot-state tier
// ---------------------------------------------------------------------------

/// An embedded ForkBase instance: one servlet plus one chunk storage
/// (§4.1: "when used as an embedded storage, only one servlet and one
/// chunk storage are instantiated"), fronted by an optional flat
/// hot-state tier (see [`crate::hot`]).
///
/// `ForkBase` derefs to [`Engine`], so the entire M1–M17 surface is
/// available on a handle. The handle additionally overlays hot-tier
/// coordination on the methods where the two tiers could disagree about
/// a key's **default branch**:
///
/// * tree **writes** (`put`, `put_many`, `commit_map_batch`, merges,
///   renaming or removing the default branch, …) first publish the
///   key's pending hot edits into the tree and invalidate its hot
///   entries, so the write's base head already contains every earlier
///   `hot_put`;
/// * tree **reads** (`get`, `get_value`, `head`, `track`, `fork`) first
///   publish pending hot edits, so a `get` observes every `hot_put`
///   that happened before it (read-your-writes across tiers);
///   `checkpoint` and `commit_checkpoint` publish every key's.
///
/// Tagged non-default branches and version reads never touch the hot
/// tier — historical/cold reads always fall through to the POS-Tree.
pub struct ForkBase {
    inner: Arc<Engine>,
    hot: Option<HotTier>,
}

impl std::ops::Deref for ForkBase {
    type Target = Engine;
    fn deref(&self) -> &Engine {
        &self.inner
    }
}

impl ForkBase {
    /// In-memory instance with default chunking parameters and the hot
    /// tier off.
    pub fn in_memory() -> ForkBase {
        Self::from_engine(Engine::in_memory(), HotTierConfig::default())
    }

    /// In-memory instance with an explicit hot-tier configuration.
    pub fn in_memory_hot(hot: HotTierConfig) -> ForkBase {
        Self::from_engine(Engine::in_memory(), hot)
    }

    /// Instance over an arbitrary chunk store (persistent, cached,
    /// cluster-routed, …), hot tier off.
    pub fn with_store(store: Arc<dyn ChunkStore>, cfg: ChunkerConfig) -> ForkBase {
        Self::from_engine(Engine::with_store(store, cfg), HotTierConfig::default())
    }

    /// [`with_store`](Self::with_store) with an explicit hot-tier
    /// configuration.
    pub fn with_store_hot(
        store: Arc<dyn ChunkStore>,
        cfg: ChunkerConfig,
        hot: HotTierConfig,
    ) -> ForkBase {
        Self::from_engine(Engine::with_store(store, cfg), hot)
    }

    /// Open (or create) a durable instance in directory `path` over a
    /// segmented [`LogStore`] with default chunking, sizing,
    /// [`Durability`], the default read-tier chunk cache
    /// ([`CacheConfig::default`] — on), and the hot tier off. If a
    /// previous session left a checkpoint ref (written by
    /// [`commit_checkpoint`](Engine::commit_checkpoint)), all branch
    /// heads are restored from it.
    pub fn open(path: impl AsRef<Path>) -> Result<ForkBase> {
        Ok(Self::from_engine(
            Engine::open(path)?,
            HotTierConfig::default(),
        ))
    }

    /// [`open`](Self::open) with explicit chunking configuration,
    /// durability policy, read-tier cache sizing (pass
    /// [`CacheConfig::disabled`] for raw `LogStore` reads), and
    /// hot-tier configuration (pass [`HotTierConfig::default`] for the
    /// tree-only engine).
    pub fn open_with(
        path: impl AsRef<Path>,
        cfg: ChunkerConfig,
        durability: Durability,
        cache: CacheConfig,
        hot: HotTierConfig,
    ) -> Result<ForkBase> {
        Ok(Self::from_engine(
            Engine::open_with(path, cfg, durability, cache)?,
            hot,
        ))
    }

    /// Reopen an instance from a store plus the cid of a checkpoint
    /// taken with [`checkpoint`](Self::checkpoint), hot tier off.
    pub fn restore(
        store: Arc<dyn ChunkStore>,
        cfg: ChunkerConfig,
        checkpoint: Digest,
    ) -> Result<ForkBase> {
        Ok(Self::from_engine(
            Engine::restore(store, cfg, checkpoint)?,
            HotTierConfig::default(),
        ))
    }

    fn from_engine(engine: Engine, hot: HotTierConfig) -> ForkBase {
        let inner = Arc::new(engine);
        let hot = HotTier::spawn(Arc::clone(&inner), hot);
        ForkBase { inner, hot }
    }

    /// The shared engine core behind this handle.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.inner
    }

    /// Whether this handle fronts the engine with a hot tier.
    pub fn hot_enabled(&self) -> bool {
        self.hot.is_some()
    }

    // ---- Hot-tier surface --------------------------------------------------

    /// Latest value of `subkey` under `key`'s default branch: answered
    /// from the hot tier when it knows the subkey (including
    /// tombstones), falling through to the committed POS-Tree map for
    /// cold entries. With the tier off this *is* the tree read.
    pub fn hot_get(&self, key: impl Into<Bytes>, subkey: &[u8]) -> Result<Option<Bytes>> {
        let key = key.into();
        match &self.hot {
            Some(hot) => hot.get(&key, subkey),
            None => self.inner.map_get_latest(&key, subkey),
        }
    }

    /// Write `subkey = value` into `key`'s latest state. With the tier
    /// on, the write lands in the flat index immediately (visible to
    /// [`hot_get`](Self::hot_get) before any tree work) and is drained
    /// into the POS-Tree by the background publisher. With the tier off
    /// it is a synchronous one-edit [`commit_map_batch`](Engine::commit_map_batch).
    pub fn hot_put(
        &self,
        key: impl Into<Bytes>,
        subkey: impl Into<Bytes>,
        value: impl Into<Bytes>,
    ) -> Result<()> {
        self.hot_put_many(key, [(subkey.into(), Some(value.into()))])
    }

    /// Batched [`hot_put`](Self::hot_put): `None` values are deletes.
    /// One enqueue (and, with the tier off, one tree splice) for the
    /// whole batch.
    pub fn hot_put_many(
        &self,
        key: impl Into<Bytes>,
        entries: impl IntoIterator<Item = (Bytes, Option<Bytes>)>,
    ) -> Result<()> {
        let key = key.into();
        let entries: Vec<(Bytes, Option<Bytes>)> = entries.into_iter().collect();
        if entries.is_empty() {
            return Ok(());
        }
        match &self.hot {
            Some(hot) => hot.put_many(&key, entries),
            None => self
                .inner
                .commit_map_batch(key, None, edits_to_batch(entries))
                .map(|_| ()),
        }
    }

    /// Delete `subkey` from `key`'s latest state (a tombstone in the hot
    /// tier until published).
    pub fn hot_delete(&self, key: impl Into<Bytes>, subkey: impl Into<Bytes>) -> Result<()> {
        self.hot_put_many(key, [(subkey.into(), None)])
    }

    /// Publish every pending hot edit into the POS-Tree and, on a
    /// durable instance, [`commit_checkpoint`](Engine::commit_checkpoint)
    /// the result. When this returns, every `hot_put` that happened
    /// before the call is committed (crash-recoverable on durable
    /// instances); per-key uids are readable via [`head`](Self::head).
    /// A no-op with the tier off (writes were synchronous).
    pub fn flush_hot(&self) -> Result<()> {
        match &self.hot {
            Some(hot) => hot.flush(),
            None => Ok(()),
        }
    }

    /// Hot-tier counters (hits/misses/writes/published/pending), or
    /// `None` with the tier off.
    pub fn hot_stats(&self) -> Option<HotTierStats> {
        self.hot.as_ref().map(|h| h.stats())
    }

    // ---- Hot/tree coordination --------------------------------------------

    /// Before a tree write on `key`'s default branch: publish the key's
    /// pending hot edits (so the write's base contains them) and drop
    /// its hot entries (the write makes them stale).
    fn sync_tree_write(&self, key: &Bytes, branch: Option<&str>) -> Result<()> {
        if let Some(hot) = &self.hot {
            if branch.unwrap_or(DEFAULT_BRANCH) == DEFAULT_BRANCH {
                hot.drain_key(key)?;
                hot.invalidate(key);
            }
        }
        Ok(())
    }

    /// Before a tree read of `key`'s default branch: publish pending hot
    /// edits so the read observes earlier `hot_put`s.
    fn sync_tree_read(&self, key: &Bytes, branch: Option<&str>) -> Result<()> {
        if let Some(hot) = &self.hot {
            if branch.unwrap_or(DEFAULT_BRANCH) == DEFAULT_BRANCH {
                hot.drain_key(key)?;
            }
        }
        Ok(())
    }

    // ---- Coordinated overrides of the Engine surface ----------------------
    // (Inherent methods shadow the Deref'd Engine ones; everything not
    // listed here goes straight to the engine.)

    /// [`Engine::put`] with hot-tier coordination.
    pub fn put(&self, key: impl Into<Bytes>, branch: Option<&str>, value: Value) -> Result<Digest> {
        let key = key.into();
        self.sync_tree_write(&key, branch)?;
        self.inner.put(key, branch, value)
    }

    /// [`Engine::put_with_context`] with hot-tier coordination.
    pub fn put_with_context(
        &self,
        key: impl Into<Bytes>,
        branch: Option<&str>,
        value: Value,
        context: impl Into<Bytes>,
    ) -> Result<Digest> {
        let key = key.into();
        self.sync_tree_write(&key, branch)?;
        self.inner.put_with_context(key, branch, value, context)
    }

    /// [`Engine::put_many`] with hot-tier coordination.
    pub fn put_many<I, K>(&self, branch: Option<&str>, entries: I) -> Result<Vec<Digest>>
    where
        I: IntoIterator<Item = (K, Value)>,
        K: Into<Bytes>,
    {
        let entries: Vec<(Bytes, Value)> =
            entries.into_iter().map(|(k, v)| (k.into(), v)).collect();
        for (key, _) in &entries {
            self.sync_tree_write(key, branch)?;
        }
        self.inner.put_many(branch, entries)
    }

    /// [`Engine::commit_map_batch`] with hot-tier coordination.
    pub fn commit_map_batch(
        &self,
        key: impl Into<Bytes>,
        branch: Option<&str>,
        batch: forkbase_pos::WriteBatch,
    ) -> Result<Digest> {
        let key = key.into();
        self.sync_tree_write(&key, branch)?;
        self.inner.commit_map_batch(key, branch, batch)
    }

    /// [`Engine::put_guarded`] with hot-tier coordination.
    pub fn put_guarded(
        &self,
        key: impl Into<Bytes>,
        branch: Option<&str>,
        value: Value,
        guard: Digest,
    ) -> Result<Digest> {
        let key = key.into();
        self.sync_tree_write(&key, branch)?;
        self.inner.put_guarded(key, branch, value, guard)
    }

    /// [`Engine::get`] with hot-tier coordination.
    pub fn get(&self, key: impl Into<Bytes>, branch: Option<&str>) -> Result<FObject> {
        let key = key.into();
        self.sync_tree_read(&key, branch)?;
        self.inner.get(key, branch)
    }

    /// [`Engine::get_value`] with hot-tier coordination.
    pub fn get_value(&self, key: impl Into<Bytes>, branch: Option<&str>) -> Result<Value> {
        let key = key.into();
        self.sync_tree_read(&key, branch)?;
        self.inner.get_value(key, branch)
    }

    /// [`Engine::head`] with hot-tier coordination.
    pub fn head(&self, key: impl Into<Bytes>, branch: Option<&str>) -> Result<Digest> {
        let key = key.into();
        self.sync_tree_read(&key, branch)?;
        self.inner.head(key, branch)
    }

    /// [`Engine::fork`] with hot-tier coordination (forking *from* the
    /// default branch must capture pending hot edits).
    pub fn fork(&self, key: impl Into<Bytes>, from: &str, new_branch: &str) -> Result<()> {
        let key = key.into();
        self.sync_tree_read(&key, Some(from))?;
        self.inner.fork(key, from, new_branch)
    }

    /// [`Engine::rename_branch`] with hot-tier coordination (renaming
    /// from or to the default branch moves the head the tier fronts).
    pub fn rename_branch(&self, key: impl Into<Bytes>, from: &str, to: &str) -> Result<()> {
        let key = key.into();
        self.sync_tree_write(&key, Some(from))?;
        self.sync_tree_write(&key, Some(to))?;
        self.inner.rename_branch(key, from, to)
    }

    /// [`Engine::remove_branch`] with hot-tier coordination.
    pub fn remove_branch(&self, key: impl Into<Bytes>, branch: &str) -> Result<()> {
        let key = key.into();
        self.sync_tree_write(&key, Some(branch))?;
        self.inner.remove_branch(key, branch)
    }

    /// [`Engine::track`] with hot-tier coordination.
    pub fn track(
        &self,
        key: impl Into<Bytes>,
        branch: Option<&str>,
        min_dist: u64,
        max_dist: u64,
    ) -> Result<Vec<history::TrackedVersion>> {
        let key = key.into();
        self.sync_tree_read(&key, branch)?;
        self.inner.track(key, branch, min_dist, max_dist)
    }

    /// [`Engine::merge_branches`] with hot-tier coordination.
    pub fn merge_branches(
        &self,
        key: impl Into<Bytes>,
        target: &str,
        reference: &str,
        resolver: &Resolver,
    ) -> Result<Digest> {
        let key = key.into();
        self.sync_tree_write(&key, Some(target))?;
        self.sync_tree_read(&key, Some(reference))?;
        self.inner.merge_branches(key, target, reference, resolver)
    }

    /// [`Engine::merge_with_version`] with hot-tier coordination.
    pub fn merge_with_version(
        &self,
        key: impl Into<Bytes>,
        target: &str,
        ref_uid: Digest,
        resolver: &Resolver,
    ) -> Result<Digest> {
        let key = key.into();
        self.sync_tree_write(&key, Some(target))?;
        self.inner
            .merge_with_version(key, target, ref_uid, resolver)
    }

    /// [`Engine::checkpoint`], publishing pending hot edits first so
    /// the checkpoint contains them. Fails only when the tier cannot
    /// publish.
    pub fn checkpoint(&self) -> Result<Digest> {
        self.flush_hot()?;
        Ok(self.inner.checkpoint())
    }

    /// [`Engine::commit_checkpoint`], publishing pending hot edits
    /// first so the recovery point contains them.
    pub fn commit_checkpoint(&self) -> Result<Digest> {
        self.flush_hot()?;
        self.inner.commit_checkpoint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_default_branch() {
        let db = ForkBase::in_memory();
        let uid = db.put("k", None, Value::String("v1".into())).expect("put");
        let obj = db.get("k", None).expect("get");
        assert_eq!(obj.uid(), uid);
        assert_eq!(
            obj.value(db.store()).expect("value"),
            Value::String("v1".into())
        );
        assert_eq!(obj.depth, 0);
        assert!(obj.bases.is_empty());
    }

    #[test]
    fn versions_chain_through_bases() {
        let db = ForkBase::in_memory();
        let v0 = db.put("k", None, Value::Int(0)).expect("put");
        let v1 = db.put("k", None, Value::Int(1)).expect("put");
        let obj1 = db.get("k", None).expect("get");
        assert_eq!(obj1.uid(), v1);
        assert_eq!(obj1.bases, vec![v0]);
        assert_eq!(obj1.depth, 1);
    }

    #[test]
    fn kv_compliance_when_only_default_branch() {
        // §3.1: "the data model is compliant to the basic key-value model
        // when only the default branch is used".
        let db = ForkBase::in_memory();
        for i in 0..20 {
            db.put("counter", None, Value::Int(i)).expect("put");
        }
        assert_eq!(db.get_value("counter", None).expect("get"), Value::Int(19));
    }

    #[test]
    fn missing_key_and_branch_errors() {
        let db = ForkBase::in_memory();
        assert_eq!(
            db.get("nope", None).expect_err("missing"),
            FbError::KeyNotFound
        );
        db.put("k", None, Value::Int(1)).expect("put");
        assert!(matches!(
            db.get("k", Some("feature")).expect_err("missing branch"),
            FbError::BranchNotFound(_)
        ));
        assert!(matches!(
            db.put("k", Some("feature"), Value::Int(2))
                .expect_err("missing branch"),
            FbError::BranchNotFound(_)
        ));
    }

    #[test]
    fn fork_on_demand_isolates_branches() {
        let db = ForkBase::in_memory();
        db.put("k", None, Value::String("base".into()))
            .expect("put");
        db.fork("k", DEFAULT_BRANCH, "feature").expect("fork");
        db.put("k", Some("feature"), Value::String("feature work".into()))
            .expect("put");

        assert_eq!(
            db.get_value("k", None).expect("get"),
            Value::String("base".into()),
            "master unaffected by feature work"
        );
        assert_eq!(
            db.get_value("k", Some("feature")).expect("get"),
            Value::String("feature work".into())
        );
        let branches = db.list_tagged_branches("k").expect("list");
        assert_eq!(branches.len(), 2);
    }

    #[test]
    fn fork_duplicate_name_rejected() {
        let db = ForkBase::in_memory();
        db.put("k", None, Value::Int(1)).expect("put");
        db.fork("k", DEFAULT_BRANCH, "b").expect("fork");
        assert!(matches!(
            db.fork("k", DEFAULT_BRANCH, "b").expect_err("dup"),
            FbError::BranchExists(_)
        ));
    }

    #[test]
    fn fork_version_reopens_history() {
        let db = ForkBase::in_memory();
        let v0 = db.put("k", None, Value::Int(0)).expect("put");
        db.put("k", None, Value::Int(1)).expect("put");
        db.fork_version("k", v0, "old").expect("fork");
        assert_eq!(db.get_value("k", Some("old")).expect("get"), Value::Int(0));
        // The historical branch is modifiable.
        db.put("k", Some("old"), Value::Int(100)).expect("put");
        assert_eq!(
            db.get_value("k", Some("old")).expect("get"),
            Value::Int(100)
        );
        assert_eq!(db.get_value("k", None).expect("get"), Value::Int(1));
    }

    #[test]
    fn rename_and_remove_branch() {
        let db = ForkBase::in_memory();
        db.put("k", None, Value::Int(1)).expect("put");
        db.fork("k", DEFAULT_BRANCH, "a").expect("fork");
        db.rename_branch("k", "a", "b").expect("rename");
        assert!(db.get("k", Some("a")).is_err());
        assert!(db.get("k", Some("b")).is_ok());
        db.remove_branch("k", "b").expect("remove");
        assert!(db.get("k", Some("b")).is_err());
        // Removing a branch never deletes versions.
        assert_eq!(db.get_value("k", None).expect("get"), Value::Int(1));
    }

    #[test]
    fn guarded_put_detects_races() {
        let db = ForkBase::in_memory();
        let v0 = db.put("k", None, Value::Int(0)).expect("put");
        // Someone else writes first.
        let v1 = db.put("k", None, Value::Int(1)).expect("put");
        let err = db
            .put_guarded("k", None, Value::Int(99), v0)
            .expect_err("stale guard");
        assert_eq!(
            err,
            FbError::GuardFailed {
                expected: v0,
                actual: v1
            }
        );
        // With the current head it succeeds.
        db.put_guarded("k", None, Value::Int(2), v1)
            .expect("guarded put");
        assert_eq!(db.get_value("k", None).expect("get"), Value::Int(2));
    }

    #[test]
    fn fork_on_conflict_creates_untagged_heads() {
        let db = ForkBase::in_memory();
        let v0 = db.put_conflict("k", None, Value::Int(0)).expect("genesis");
        assert_eq!(db.list_untagged_branches("k").expect("list"), vec![v0]);

        // Two concurrent updates against the same base (Figure 3b).
        let w1 = db.put_conflict("k", Some(v0), Value::Int(1)).expect("w1");
        let w2 = db.put_conflict("k", Some(v0), Value::Int(2)).expect("w2");
        let heads = db.list_untagged_branches("k").expect("list");
        assert_eq!(heads.len(), 2, "conflict detected");
        assert!(heads.contains(&w1) && heads.contains(&w2));

        // Merge resolves back to a single head.
        let merged = db
            .merge_versions("k", &heads, &Resolver::Aggregate)
            .expect("merge");
        assert_eq!(db.list_untagged_branches("k").expect("list"), vec![merged]);
        let obj = db.get_version("k", merged).expect("get");
        assert_eq!(
            obj.value(db.store()).expect("value"),
            Value::Int(3),
            "0+1+2 deltas"
        );
        assert_eq!(obj.bases.len(), 2);
    }

    #[test]
    fn map_branch_merge() {
        let db = ForkBase::in_memory();
        let m = db.new_map([("a", "1"), ("b", "2")]);
        db.put("cfg", None, Value::Map(m)).expect("put");
        db.fork("cfg", DEFAULT_BRANCH, "team-x").expect("fork");

        // master edits key a; team-x edits key b.
        let head = db.get("cfg", None).expect("get");
        let m1 = head.value(db.store()).expect("v").as_map().expect("map");
        let m1 = m1
            .put(db.store(), db.cfg(), "a", "master-edit")
            .expect("put");
        db.put("cfg", None, Value::Map(m1)).expect("put");

        let head = db.get("cfg", Some("team-x")).expect("get");
        let m2 = head.value(db.store()).expect("v").as_map().expect("map");
        let m2 = m2
            .put(db.store(), db.cfg(), "b", "teamx-edit")
            .expect("put");
        db.put("cfg", Some("team-x"), Value::Map(m2)).expect("put");

        let merged_uid = db
            .merge_branches("cfg", DEFAULT_BRANCH, "team-x", &Resolver::Fail)
            .expect("merge");
        let obj = db.get("cfg", None).expect("get");
        assert_eq!(obj.uid(), merged_uid);
        let map = obj.value(db.store()).expect("v").as_map().expect("map");
        assert_eq!(
            map.get(db.store(), b"a").expect("a").as_ref(),
            b"master-edit"
        );
        assert_eq!(
            map.get(db.store(), b"b").expect("b").as_ref(),
            b"teamx-edit"
        );
        // Reference branch head unchanged (M5: only the first branch's
        // head is updated).
        let ref_obj = db.get("cfg", Some("team-x")).expect("get");
        assert_ne!(ref_obj.uid(), merged_uid);
    }

    #[test]
    fn merge_conflict_surfaces() {
        let db = ForkBase::in_memory();
        db.put("k", None, Value::String("base".into()))
            .expect("put");
        db.fork("k", DEFAULT_BRANCH, "other").expect("fork");
        db.put("k", None, Value::String("ours".into()))
            .expect("put");
        db.put("k", Some("other"), Value::String("theirs".into()))
            .expect("put");
        let err = db
            .merge_branches("k", DEFAULT_BRANCH, "other", &Resolver::Fail)
            .expect_err("conflict");
        assert!(matches!(err, FbError::MergeConflict(_)));
        // choose-one resolves it.
        db.merge_branches("k", DEFAULT_BRANCH, "other", &Resolver::TakeTheirs)
            .expect("resolved");
        assert_eq!(
            db.get_value("k", None).expect("get"),
            Value::String("theirs".into())
        );
    }

    #[test]
    fn fast_forward_merge() {
        let db = ForkBase::in_memory();
        db.put("k", None, Value::Int(0)).expect("put");
        db.fork("k", DEFAULT_BRANCH, "ahead").expect("fork");
        db.put("k", Some("ahead"), Value::Int(1)).expect("put");
        db.put("k", Some("ahead"), Value::Int(2)).expect("put");
        // master hasn't moved: merging "ahead" is a fast-forward commit.
        db.merge_branches("k", DEFAULT_BRANCH, "ahead", &Resolver::Fail)
            .expect("ff merge");
        assert_eq!(db.get_value("k", None).expect("get"), Value::Int(2));
    }

    #[test]
    fn track_walks_history() {
        let db = ForkBase::in_memory();
        let mut uids = Vec::new();
        for i in 0..5 {
            uids.push(db.put("k", None, Value::Int(i)).expect("put"));
        }
        let all = db.track("k", None, 0, 10).expect("track");
        assert_eq!(all.len(), 5);
        assert_eq!(all[0].uid, uids[4], "distance 0 is the head");
        assert_eq!(all[4].uid, uids[0], "distance 4 is genesis");

        let window = db.track("k", None, 1, 2).expect("track");
        assert_eq!(window.len(), 2);
        assert_eq!(window[0].uid, uids[3]);
        assert_eq!(window[1].uid, uids[2]);
    }

    #[test]
    fn lca_of_forked_branches() {
        let db = ForkBase::in_memory();
        db.put("k", None, Value::Int(0)).expect("put");
        let fork_point = db.put("k", None, Value::Int(1)).expect("put");
        db.fork("k", DEFAULT_BRANCH, "b").expect("fork");
        let a_head = db.put("k", None, Value::Int(2)).expect("put");
        let b_head = db.put("k", Some("b"), Value::Int(3)).expect("put");
        assert_eq!(db.lca("k", a_head, b_head).expect("lca"), Some(fork_point));
    }

    #[test]
    fn list_keys_sorted() {
        let db = ForkBase::in_memory();
        db.put("zebra", None, Value::Int(1)).expect("put");
        db.put("apple", None, Value::Int(2)).expect("put");
        let keys = db.list_keys();
        assert_eq!(keys, vec![Bytes::from("apple"), Bytes::from("zebra")]);
    }

    #[test]
    fn get_version_checks_key() {
        let db = ForkBase::in_memory();
        let uid = db.put("k1", None, Value::Int(1)).expect("put");
        assert!(db.get_version("k2", uid).is_err());
        assert!(db.get_version("k1", uid).is_ok());
    }

    #[test]
    fn put_many_advances_all_heads_atomically() {
        let db = ForkBase::in_memory();
        let uids = db
            .put_many(None, (0..10).map(|i| (format!("key-{i}"), Value::Int(i))))
            .expect("put_many");
        assert_eq!(uids.len(), 10);
        for i in 0..10 {
            assert_eq!(
                db.get_value(format!("key-{i}"), None).expect("get"),
                Value::Int(i)
            );
        }
        // Duplicate keys in one batch chain versions.
        let uids = db
            .put_many(None, [("dup", Value::Int(1)), ("dup", Value::Int(2))])
            .expect("put_many");
        let obj = db.get("dup", None).expect("get");
        assert_eq!(obj.uid(), uids[1]);
        assert_eq!(obj.bases, vec![uids[0]]);
        assert_eq!(db.get_value("dup", None).expect("get"), Value::Int(2));
    }

    #[test]
    fn put_many_missing_branch_moves_no_heads() {
        let db = ForkBase::in_memory();
        db.put("a", None, Value::Int(0)).expect("put");
        let err = db
            .put_many(
                Some("nope"),
                [("a", Value::Int(1)), ("never-written", Value::Int(2))],
            )
            .expect_err("missing branch");
        assert!(matches!(err, FbError::BranchNotFound(_)));
        assert_eq!(db.get_value("a", None).expect("get"), Value::Int(0));
        assert_eq!(
            db.get("never-written", None).expect_err("untouched"),
            FbError::KeyNotFound
        );
    }

    #[test]
    fn commit_map_batch_single_splice_version() {
        let db = ForkBase::in_memory();
        let m = db.new_map([("a", "1"), ("b", "2")]);
        db.put("cfg", None, Value::Map(m)).expect("put");

        let mut wb = forkbase_pos::WriteBatch::new();
        wb.put("c", "3").delete("a").put("b", "2-edited");
        let uid = db.commit_map_batch("cfg", None, wb).expect("commit");

        let obj = db.get("cfg", None).expect("get");
        assert_eq!(obj.uid(), uid);
        assert_eq!(obj.depth, 1, "one committed version for the whole batch");
        let map = obj.value(db.store()).expect("v").as_map().expect("map");
        assert!(map.get(db.store(), b"a").is_none());
        assert_eq!(map.get(db.store(), b"b").expect("b").as_ref(), b"2-edited");
        assert_eq!(map.get(db.store(), b"c").expect("c").as_ref(), b"3");
    }

    #[test]
    fn commit_map_batch_creates_key_on_default_branch() {
        let db = ForkBase::in_memory();
        let mut wb = forkbase_pos::WriteBatch::new();
        wb.put("x", "1");
        db.commit_map_batch("fresh", None, wb).expect("commit");
        let map = db
            .get_value("fresh", None)
            .expect("get")
            .as_map()
            .expect("map");
        assert_eq!(map.get(db.store(), b"x").expect("x").as_ref(), b"1");

        let mut wb = forkbase_pos::WriteBatch::new();
        wb.put("y", "2");
        assert!(matches!(
            db.commit_map_batch("fresh", Some("ghost"), wb)
                .expect_err("branch"),
            FbError::BranchNotFound(_)
        ));
    }

    #[test]
    fn commit_map_batch_rejects_non_map() {
        let db = ForkBase::in_memory();
        db.put("s", None, Value::String("text".into()))
            .expect("put");
        let mut wb = forkbase_pos::WriteBatch::new();
        wb.put("k", "v");
        assert!(matches!(
            db.commit_map_batch("s", None, wb).expect_err("type"),
            FbError::TypeMismatch { .. }
        ));
    }

    #[test]
    fn open_restores_checkpointed_branches() {
        let dir = std::env::temp_dir().join(format!(
            "forkbase-db-open-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock")
                .subsec_nanos()
        ));
        std::fs::remove_dir_all(&dir).ok();
        {
            let db = ForkBase::open_with(
                &dir,
                ChunkerConfig::default(),
                forkbase_chunk::Durability::Always,
                CacheConfig::default(),
                HotTierConfig::default(),
            )
            .expect("open");
            assert!(db.durable_store().is_some());
            assert!(db.chunk_cache().is_some(), "cache defaults on");
            db.put("k", None, Value::String("v1".into())).expect("put");
            db.fork("k", DEFAULT_BRANCH, "feature").expect("fork");
            db.put("k", Some("feature"), Value::Int(7)).expect("put");
            db.commit_checkpoint().expect("checkpoint");
        }
        let db = ForkBase::open(&dir).expect("reopen");
        assert_eq!(
            db.get_value("k", None).expect("get"),
            Value::String("v1".into())
        );
        assert_eq!(
            db.get_value("k", Some("feature")).expect("get"),
            Value::Int(7)
        );
        drop(db);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn open_without_checkpoint_starts_empty_but_keeps_chunks() {
        let dir = std::env::temp_dir().join(format!(
            "forkbase-db-nockpt-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock")
                .subsec_nanos()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let uid = {
            let db = ForkBase::open(&dir).expect("open");
            let uid = db.put("k", None, Value::Int(1)).expect("put");
            db.durable_store().expect("durable").sync().expect("sync");
            uid
        };
        // No commit_checkpoint: branch heads are gone, but versions are
        // still reachable by uid (chunk durability is independent).
        let db = ForkBase::open(&dir).expect("reopen");
        assert_eq!(
            db.get("k", None).expect_err("no heads"),
            FbError::KeyNotFound
        );
        assert_eq!(
            db.get_version("k", uid)
                .expect("version durable")
                .value(db.store())
                .expect("value"),
            Value::Int(1)
        );
        assert!(matches!(
            ForkBase::in_memory().commit_checkpoint().expect_err("mem"),
            FbError::Io(_)
        ));
        drop(db);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn batched_updates_retain_final_version_only() {
        // §3.5: "when multiple updates of the same object are batched,
        // ForkBase only retains the final version" — modelled by clients
        // chaining edits on the value before a single Put.
        let db = ForkBase::in_memory();
        let blob = db.new_blob(b"start");
        let blob = blob.append(db.store(), db.cfg(), b" middle").expect("edit");
        let blob = blob.append(db.store(), db.cfg(), b" end").expect("edit");
        db.put("doc", None, Value::Blob(blob)).expect("put");
        let obj = db.get("doc", None).expect("get");
        assert_eq!(obj.depth, 0, "one committed version");
        assert_eq!(
            obj.value(db.store())
                .expect("v")
                .as_blob()
                .expect("b")
                .read_all(db.store())
                .expect("read"),
            b"start middle end"
        );
    }
}
