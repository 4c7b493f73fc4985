//! The flat hot-state tier in front of the POS-Tree.
//!
//! Both Sonic Labs forkless-DB papers (see PAPERS.md) win by serving
//! *latest* state from a flat hash-shaped index and demoting the Merkle
//! structure to an asynchronously maintained authentication sidecar.
//! This module is that split for ForkBase:
//!
//! * **Hot state** — per engine key, a plain hash map from subkey to
//!   latest value (`None` = tombstone), all keys behind one lock. Point
//!   reads and writes are pure in-memory hash operations: no chunk
//!   fetch, no tree traversal, no hashing of content.
//! * **Pending queue** — every hot write is also enqueued (bounded, with
//!   backpressure once the queue holds `8 × publish_batch` edits).
//! * **Publisher** — a background thread group-publishes the queue into
//!   the POS-Tree via [`Engine::commit_map_batch`] (one `WriteBatch`
//!   splice per key per round) whenever `publish_batch` edits are
//!   pending or `publish_interval` elapses, then advances the durable
//!   recovery point ([`Engine::commit_checkpoint`]) so a crash loses at
//!   most the edits still queued — the *publish window*.
//!
//! The POS-Tree stays the versioned, tamper-evident substrate: every
//! publish round is an ordinary map commit with hash-chained `FObject`
//! versions, so history, diff, merge and `verify_history` keep working
//! unchanged. Coordination with direct tree reads/writes lives in
//! [`ForkBase`](crate::ForkBase), which drains a key's pending edits
//! before touching its default branch through the tree API.

use crate::db::Engine;
use crate::error::{FbError, Result};
use bytes::Bytes;
use forkbase_crypto::fx::{FxHashMap, FxHashSet};
use forkbase_pos::WriteBatch;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Hot-tier configuration for [`ForkBase::open_with`](crate::ForkBase::open_with).
#[derive(Debug, Clone)]
pub struct HotTierConfig {
    /// Front the engine with the hot tier. Off by default — the tier
    /// trades a bounded publish window of crash loss for hash-map-speed
    /// point access, and that trade must be opted into.
    pub enabled: bool,
    /// Pending-edit count that triggers an immediate publish round. The
    /// queue accepts up to 8× this before writers block (backpressure).
    pub publish_batch: usize,
    /// Maximum time a pending edit waits before a publish round picks it
    /// up, batch full or not. This bounds the crash-loss window on
    /// durable instances.
    pub publish_interval: Duration,
}

impl HotTierConfig {
    /// The tier enabled with default batching (512-edit rounds, 20 ms
    /// interval).
    pub fn on() -> Self {
        HotTierConfig {
            enabled: true,
            publish_batch: 512,
            publish_interval: Duration::from_millis(20),
        }
    }

    /// The tier disabled: hot methods run write-through/read-through on
    /// the POS-Tree synchronously. Same results, tree speed, no loss
    /// window.
    pub fn disabled() -> Self {
        HotTierConfig {
            enabled: false,
            publish_batch: 512,
            publish_interval: Duration::from_millis(20),
        }
    }
}

impl Default for HotTierConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// A snapshot of the hot tier's counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HotTierStats {
    /// `hot_get`s answered from the flat index (tombstones included).
    pub hits: u64,
    /// `hot_get`s that fell through to the committed POS-Tree.
    pub misses: u64,
    /// Edits accepted by `hot_put`/`hot_put_many`/`hot_delete`.
    pub writes: u64,
    /// Edits published into the POS-Tree so far.
    pub published: u64,
    /// Publish rounds (group commits) run so far.
    pub publish_rounds: u64,
    /// Edits currently pending (enqueued, not yet published).
    pub pending: u64,
}

/// One engine key's latest state: subkey → value (`None` = tombstone).
type HotMap = FxHashMap<Bytes, Option<Bytes>>;

/// Pending (unpublished) edits, guarded by one mutex with two condvars:
/// `work` wakes the publisher, `room` wakes writers blocked on
/// backpressure and drain/flush callers waiting out an in-flight round.
struct Pending {
    edits: FxHashMap<Bytes, Vec<(Bytes, Option<Bytes>)>>,
    total: usize,
    /// Keys currently being published (their edits are out of `edits`
    /// but not yet in the tree). At most one round per key is in flight:
    /// two concurrent rounds would race on the key's head, and the loser
    /// would merge its older edits over the newer ones. Drains wait the
    /// mark out, or a subsequent tree access could observe a head about
    /// to move.
    inflight: FxHashSet<Bytes>,
    /// First publish error, if any. A poisoned tier fails all further
    /// hot writes/flushes — the flat index may be ahead of a tree that
    /// can no longer accept it.
    poisoned: Option<String>,
}

struct Shared {
    engine: Arc<Engine>,
    cfg: HotTierConfig,
    /// key → its latest state. Tree writes invalidate a key by removing
    /// its whole map; one lock orders that against concurrent hot writes.
    state: RwLock<FxHashMap<Bytes, HotMap>>,
    pending: Mutex<Pending>,
    work: Condvar,
    room: Condvar,
    stop: AtomicBool,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    published: AtomicU64,
    publish_rounds: AtomicU64,
}

impl Shared {
    fn queue_cap(&self) -> usize {
        self.cfg.publish_batch.saturating_mul(8).max(1)
    }

    fn poison_err(msg: &str) -> FbError {
        FbError::Io(format!("hot tier poisoned by publish failure: {msg}"))
    }

    /// Publish one key's edit run as a single map splice. Returns the
    /// number of edits on success.
    fn publish_key(&self, key: &Bytes, edits: Vec<(Bytes, Option<Bytes>)>) -> Result<usize> {
        let n = edits.len();
        self.engine
            .commit_map_batch(key.clone(), None, edits_to_batch(edits))?;
        self.published.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    /// Take every queued key that has no round in flight, marking the
    /// taken keys in-flight. Caller must clear `inflight` (and notify
    /// `room`) when done.
    fn take_ready(p: &mut Pending) -> FxHashMap<Bytes, Vec<(Bytes, Option<Bytes>)>> {
        let mut work = FxHashMap::default();
        let Pending {
            edits,
            total,
            inflight,
            ..
        } = p;
        edits.retain(|key, run| {
            if !inflight.insert(key.clone()) {
                return true;
            }
            *total -= run.len();
            work.insert(key.clone(), std::mem::take(run));
            false
        });
        work
    }

    /// Publish a taken batch and clear its in-flight marks. The first
    /// error poisons the tier and is returned.
    fn publish_work(&self, work: FxHashMap<Bytes, Vec<(Bytes, Option<Bytes>)>>) -> Result<()> {
        let mut first_err: Option<FbError> = None;
        let mut keys = Vec::with_capacity(work.len());
        for (key, edits) in work {
            if first_err.is_none() {
                if let Err(e) = self.publish_key(&key, edits) {
                    first_err = Some(e);
                }
            }
            keys.push(key);
        }
        if first_err.is_none() {
            if let Err(e) = self.checkpoint_if_durable() {
                first_err = Some(e);
            }
        }
        let mut p = self.pending.lock().expect("pending lock");
        for key in &keys {
            p.inflight.remove(key);
        }
        if let Some(e) = &first_err {
            p.poisoned.get_or_insert_with(|| e.to_string());
        } else {
            self.publish_rounds.fetch_add(1, Ordering::Relaxed);
        }
        drop(p);
        self.room.notify_all();
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Advance the durable recovery point so published edits survive a
    /// crash. `commit_checkpoint` fsyncs the log (forcing out any
    /// `Durability::Batch`-deferred records) and atomically rewrites the
    /// HEAD ref; on in-memory instances this is a no-op.
    fn checkpoint_if_durable(&self) -> Result<()> {
        if self.engine.durable_store().is_some() {
            self.engine.commit_checkpoint()?;
        }
        Ok(())
    }
}

/// The running hot tier owned by a [`ForkBase`](crate::ForkBase) handle:
/// shared state plus the publisher thread. Dropping it stops the
/// publisher and drains every pending edit into the tree (clean close
/// loses nothing).
pub(crate) struct HotTier {
    shared: Arc<Shared>,
    publisher: Option<JoinHandle<()>>,
}

impl HotTier {
    /// Spawn the tier over a shared engine. `None` when disabled.
    pub(crate) fn spawn(engine: Arc<Engine>, cfg: HotTierConfig) -> Option<HotTier> {
        if !cfg.enabled {
            return None;
        }
        let shared = Arc::new(Shared {
            engine,
            cfg,
            state: RwLock::new(FxHashMap::default()),
            pending: Mutex::new(Pending {
                edits: FxHashMap::default(),
                total: 0,
                inflight: FxHashSet::default(),
                poisoned: None,
            }),
            work: Condvar::new(),
            room: Condvar::new(),
            stop: AtomicBool::new(false),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            published: AtomicU64::new(0),
            publish_rounds: AtomicU64::new(0),
        });
        let bg = Arc::clone(&shared);
        let publisher = std::thread::Builder::new()
            .name("fb-hot-publish".into())
            .spawn(move || publisher_loop(bg))
            .expect("spawn hot publisher");
        Some(HotTier {
            shared,
            publisher: Some(publisher),
        })
    }

    /// Point read: flat index first (hit even on tombstones), committed
    /// tree on miss.
    pub(crate) fn get(&self, key: &Bytes, subkey: &[u8]) -> Result<Option<Bytes>> {
        let hit = {
            let state = self.shared.state.read().expect("state lock");
            state.get(key).and_then(|map| map.get(subkey)).cloned()
        };
        if let Some(v) = hit {
            self.shared.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(v);
        }
        self.shared.misses.fetch_add(1, Ordering::Relaxed);
        self.shared.engine.map_get_latest(key, subkey)
    }

    /// Apply a batch of edits to the flat index and enqueue them for
    /// publication. Visible to [`get`](Self::get) immediately; blocks
    /// only when the pending queue is at capacity.
    pub(crate) fn put_many(&self, key: &Bytes, entries: Vec<(Bytes, Option<Bytes>)>) -> Result<()> {
        if entries.is_empty() {
            return Ok(());
        }
        let n = entries.len();
        {
            let mut state = self.shared.state.write().expect("state lock");
            let map = state.entry(key.clone()).or_default();
            for (sk, v) in &entries {
                map.insert(sk.clone(), v.clone());
            }
        }
        let cap = self.shared.queue_cap();
        let mut p = self.shared.pending.lock().expect("pending lock");
        if let Some(msg) = &p.poisoned {
            return Err(Shared::poison_err(msg));
        }
        while p.total >= cap && !self.shared.stop.load(Ordering::Acquire) {
            self.shared.work.notify_one();
            p = self.shared.room.wait(p).expect("pending lock");
            if let Some(msg) = &p.poisoned {
                return Err(Shared::poison_err(msg));
            }
        }
        p.edits.entry(key.clone()).or_default().extend(entries);
        p.total += n;
        self.shared.writes.fetch_add(n as u64, Ordering::Relaxed);
        let trigger = p.total >= self.shared.cfg.publish_batch;
        drop(p);
        if trigger {
            self.shared.work.notify_one();
        }
        Ok(())
    }

    /// Synchronously publish `key`'s pending edits (waiting out an
    /// in-flight round that includes the key). Used before any tree
    /// access to the key's default branch. No-op when nothing is
    /// pending.
    pub(crate) fn drain_key(&self, key: &Bytes) -> Result<()> {
        loop {
            let edits = {
                let mut p = self.shared.pending.lock().expect("pending lock");
                if let Some(msg) = &p.poisoned {
                    return Err(Shared::poison_err(msg));
                }
                if p.inflight.contains(key) {
                    let q = self.shared.room.wait(p).expect("pending lock");
                    drop(q);
                    continue;
                }
                match p.edits.remove(key) {
                    None => return Ok(()),
                    Some(edits) => {
                        p.total -= edits.len();
                        p.inflight.insert(key.clone());
                        edits
                    }
                }
            };
            self.shared.room.notify_all();
            let res = self.shared.publish_key(key, edits);
            let mut p = self.shared.pending.lock().expect("pending lock");
            p.inflight.remove(key);
            if let Err(e) = &res {
                p.poisoned.get_or_insert_with(|| e.to_string());
            }
            drop(p);
            self.shared.room.notify_all();
            res?;
            return self.shared.checkpoint_if_durable();
        }
    }

    /// Remove `key`'s flat-index state (called after a direct tree write
    /// makes it stale; subsequent reads fall through until re-warmed by
    /// writes).
    pub(crate) fn invalidate(&self, key: &Bytes) {
        self.shared.state.write().expect("state lock").remove(key);
    }

    /// Publish everything pending at call time (waiting out in-flight
    /// rounds), then checkpoint on durable instances.
    pub(crate) fn flush(&self) -> Result<()> {
        loop {
            let work = {
                let mut p = self.shared.pending.lock().expect("pending lock");
                if let Some(msg) = &p.poisoned {
                    return Err(Shared::poison_err(msg));
                }
                if p.edits.is_empty() && p.inflight.is_empty() {
                    break;
                }
                let work = Shared::take_ready(&mut p);
                if work.is_empty() {
                    // Everything left is in flight elsewhere.
                    let q = self.shared.room.wait(p).expect("pending lock");
                    drop(q);
                    continue;
                }
                work
            };
            self.shared.room.notify_all();
            self.shared.publish_work(work)?;
        }
        self.shared.checkpoint_if_durable()
    }

    pub(crate) fn stats(&self) -> HotTierStats {
        let pending = self.shared.pending.lock().expect("pending lock").total as u64;
        HotTierStats {
            hits: self.shared.hits.load(Ordering::Relaxed),
            misses: self.shared.misses.load(Ordering::Relaxed),
            writes: self.shared.writes.load(Ordering::Relaxed),
            published: self.shared.published.load(Ordering::Relaxed),
            publish_rounds: self.shared.publish_rounds.load(Ordering::Relaxed),
            pending,
        }
    }
}

impl Drop for HotTier {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        self.shared.work.notify_all();
        self.shared.room.notify_all();
        if let Some(handle) = self.publisher.take() {
            let _ = handle.join();
        }
        // The publisher drains on exit; this catches edits enqueued
        // while it was shutting down. Errors are unreportable from Drop
        // — they stay recorded in `poisoned` for post-mortems.
        let _ = self.flush();
    }
}

/// Turn hot edits (`None` = delete) into one map [`WriteBatch`].
pub(crate) fn edits_to_batch(edits: Vec<(Bytes, Option<Bytes>)>) -> WriteBatch {
    let mut wb = WriteBatch::with_capacity(edits.len());
    for (sk, v) in edits {
        match v {
            Some(v) => wb.put(sk, v),
            None => wb.delete(sk),
        };
    }
    wb
}

fn publisher_loop(shared: Arc<Shared>) {
    let mut p = shared.pending.lock().expect("pending lock");
    loop {
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        if p.total < shared.cfg.publish_batch {
            let (q, _timeout) = shared
                .work
                .wait_timeout(p, shared.cfg.publish_interval)
                .expect("pending lock");
            p = q;
        }
        if p.total == 0 {
            continue;
        }
        let work = Shared::take_ready(&mut p);
        if work.is_empty() {
            // Every queued key has a drain or flush round in flight.
            let (q, _timeout) = shared
                .room
                .wait_timeout(p, shared.cfg.publish_interval)
                .expect("pending lock");
            p = q;
            continue;
        }
        drop(p);
        shared.room.notify_all();
        // Publish errors poison the tier (inside publish_work); the
        // loop keeps running so drains/flushes can observe the poison
        // instead of hanging on inflight marks.
        let _ = shared.publish_work(work);
        p = shared.pending.lock().expect("pending lock");
    }
    // Final drain: publish everything still queued and not in flight
    // elsewhere before exiting (`HotTier::drop` flushes the rest).
    let work = Shared::take_ready(&mut p);
    drop(p);
    if !work.is_empty() {
        let _ = shared.publish_work(work);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::{ForkBase, DEFAULT_BRANCH};
    use crate::value::Value;

    fn hot_db(publish_batch: usize, interval_ms: u64) -> ForkBase {
        ForkBase::in_memory_hot(HotTierConfig {
            enabled: true,
            publish_batch,
            publish_interval: Duration::from_millis(interval_ms),
        })
    }

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn hot_writes_visible_immediately_and_after_flush() {
        let db = hot_db(1024, 1000); // big batch, long interval: we flush
        db.hot_put("acct", "alice", "100").unwrap();
        db.hot_put("acct", "bob", "50").unwrap();
        assert_eq!(db.hot_get("acct", b"alice").unwrap(), Some(b("100")));
        db.flush_hot().unwrap();
        // Committed in the tree now.
        let map = db.get_value("acct", None).unwrap().as_map().unwrap();
        assert_eq!(map.get(db.store(), b"alice").unwrap().as_ref(), b"100");
        assert_eq!(map.get(db.store(), b"bob").unwrap().as_ref(), b"50");
        let stats = db.hot_stats().unwrap();
        assert_eq!(stats.writes, 2);
        assert_eq!(stats.published, 2);
        assert_eq!(stats.pending, 0);
    }

    #[test]
    fn tombstones_shadow_committed_values() {
        let db = hot_db(1024, 1000);
        db.hot_put("k", "a", "v1").unwrap();
        db.flush_hot().unwrap();
        db.hot_delete("k", "a").unwrap();
        // Deleted in the hot tier even though the tree still has it.
        assert_eq!(db.hot_get("k", b"a").unwrap(), None);
        db.flush_hot().unwrap();
        assert_eq!(db.hot_get("k", b"a").unwrap(), None);
        assert_eq!(
            db.get_value("k", None)
                .unwrap()
                .as_map()
                .unwrap()
                .get(db.store(), b"a"),
            None
        );
    }

    #[test]
    fn tree_read_observes_earlier_hot_puts() {
        let db = hot_db(1 << 20, 10_000); // publisher effectively idle
        db.hot_put("k", "x", "1").unwrap();
        // get() must drain the pending edit first (read-your-writes).
        let map = db.get_value("k", None).unwrap().as_map().unwrap();
        assert_eq!(map.get(db.store(), b"x").unwrap().as_ref(), b"1");
    }

    #[test]
    fn tree_write_invalidates_hot_state() {
        let db = hot_db(1024, 1000);
        db.hot_put("k", "a", "hot").unwrap();
        db.flush_hot().unwrap();
        assert_eq!(db.hot_get("k", b"a").unwrap(), Some(b("hot")));
        // Direct tree write replaces the whole map value.
        let map = db.new_map([("a", "tree")]);
        db.put("k", None, Value::Map(map)).unwrap();
        assert_eq!(db.hot_get("k", b"a").unwrap(), Some(b("tree")));
    }

    #[test]
    fn background_publisher_drains_without_flush() {
        let db = hot_db(4, 5);
        for i in 0..64 {
            db.hot_put("k", format!("sk{i}"), "v").unwrap();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let s = db.hot_stats().unwrap();
            if s.published == 64 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "publisher stalled: {s:?}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let map = db.get_value("k", None).unwrap().as_map().unwrap();
        assert_eq!(map.len(db.store()), 64);
    }

    #[test]
    fn backpressure_bounds_the_queue() {
        let db = hot_db(2, 1);
        // Cap is 16 (8×2); writing far past it must not grow pending
        // unboundedly and everything must land.
        for i in 0..500 {
            db.hot_put("k", format!("sk{i:03}"), "v").unwrap();
            assert!(db.hot_stats().unwrap().pending <= 16);
        }
        db.flush_hot().unwrap();
        let map = db.get_value("k", None).unwrap().as_map().unwrap();
        assert_eq!(map.len(db.store()), 500);
    }

    #[test]
    fn drop_drains_fully() {
        let dir = tempdir();
        {
            let db = ForkBase::open_with(
                &dir,
                forkbase_crypto::ChunkerConfig::default(),
                forkbase_chunk::Durability::Always,
                forkbase_chunk::CacheConfig::default(),
                HotTierConfig {
                    enabled: true,
                    publish_batch: 1 << 20,
                    publish_interval: Duration::from_secs(3600),
                },
            )
            .unwrap();
            for i in 0..32 {
                db.hot_put("k", format!("sk{i}"), "v").unwrap();
            }
            // No flush: Drop must publish + checkpoint.
        }
        let db = ForkBase::open(&dir).unwrap();
        let map = db.get_value("k", None).unwrap().as_map().unwrap();
        assert_eq!(map.len(db.store()), 32);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_contains_pending_hot_puts() {
        let db = hot_db(1 << 20, 10_000); // publisher effectively idle
        db.hot_put("k", "a", "1").unwrap();
        let cid = db.checkpoint().unwrap();
        let restored = ForkBase::restore(db.store_arc(), db.cfg().clone(), cid).unwrap();
        assert_eq!(restored.hot_get("k", b"a").unwrap(), Some(b("1")));
    }

    #[test]
    fn removing_the_default_branch_drops_hot_state() {
        let db = hot_db(1 << 20, 10_000);
        db.hot_put("k", "a", "1").unwrap();
        db.fork("k", DEFAULT_BRANCH, "side").unwrap();
        db.remove_branch("k", DEFAULT_BRANCH).unwrap();
        assert_eq!(db.hot_get("k", b"a").unwrap(), None);
        let side = db.get_value("k", Some("side")).unwrap().as_map().unwrap();
        assert_eq!(side.get(db.store(), b"a"), Some(b("1")));
    }

    #[test]
    fn renaming_the_default_branch_moves_pending_hot_puts() {
        let db = hot_db(1 << 20, 10_000);
        db.hot_put("k", "a", "1").unwrap();
        db.rename_branch("k", DEFAULT_BRANCH, "old").unwrap();
        assert_eq!(db.hot_get("k", b"a").unwrap(), None);
        let old = db.get_value("k", Some("old")).unwrap().as_map().unwrap();
        assert_eq!(old.get(db.store(), b"a"), Some(b("1")));
    }

    #[test]
    fn flush_and_publisher_never_publish_one_key_concurrently() {
        // 1-edit rounds: the publisher is usually mid-round on "k" when
        // flush takes the next edit. Two concurrent rounds on one key
        // would let the older one merge over the newer.
        let db = hot_db(1, 1);
        for i in 0..300u32 {
            db.hot_put("k", "a", format!("{i}a")).unwrap();
            std::thread::sleep(Duration::from_micros(i as u64 % 100));
            db.hot_put("k", "a", format!("{i}b")).unwrap();
            db.flush_hot().unwrap();
            let map = db.get_value("k", None).unwrap().as_map().unwrap();
            assert_eq!(map.get(db.store(), b"a"), Some(b(&format!("{i}b"))));
        }
    }

    #[test]
    fn disabled_tier_is_synchronous_write_through() {
        let db = ForkBase::in_memory();
        assert!(!db.hot_enabled());
        assert!(db.hot_stats().is_none());
        db.hot_put("k", "a", "v").unwrap();
        // Committed immediately, no flush needed.
        let map = db.get_value("k", None).unwrap().as_map().unwrap();
        assert_eq!(map.get(db.store(), b"a").unwrap().as_ref(), b"v");
        assert_eq!(db.hot_get("k", b"a").unwrap(), Some(b("v")));
        db.hot_delete("k", "a").unwrap();
        assert_eq!(db.hot_get("k", b"a").unwrap(), None);
    }

    fn tempdir() -> std::path::PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "fb_hot_test_{}_{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }
}
