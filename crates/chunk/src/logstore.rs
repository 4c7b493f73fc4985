//! Segmented, group-committed persistent chunk store (§4.4).
//!
//! Chunks are immutable, so the natural persistent layout is an
//! append-only log. This store splits the log into fixed-size **segment
//! files** (`seg-NNNNNN.log`) inside a directory, writes an **index
//! snapshot** (`snapshot.idx`) so reopen replays only the tail, and
//! coalesces concurrent `put`s into shared write+fsync rounds (**group
//! commit**).
//!
//! # On-disk format
//!
//! Every record is
//!
//! ```text
//! [magic u32 LE][payload_len u32 LE][type u8][payload][cid 32B]
//! ```
//!
//! The cid (`SHA-256(type ‖ payload)`) doubles as a record checksum: a
//! torn or corrupted tail is detected by magic/length/cid mismatch on
//! reopen and truncated away. Records never span segments; a record
//! larger than the segment budget gets an oversized segment of its own.
//! Segment ids increase monotonically and are never reused (compaction
//! writes fresh segments and deletes the old ones).
//!
//! The snapshot file caches the cid → (segment, offset, len) index up to
//! a *synced* log position:
//!
//! ```text
//! [magic u32][version u32][covered_seg u32][covered_off u64][count u64]
//! [cid 32B][seg u32][off u64][plen u32] × count
//! [fxhash-64 of everything above]
//! ```
//!
//! On reopen the snapshot is loaded (if valid) and only records past
//! `(covered_seg, covered_off)` are scanned — the tail a crash may have
//! torn — instead of the whole log. The scan streams one record at a
//! time through a reusable buffer, so reopening a multi-GB store never
//! loads it into memory.
//!
//! # Durability and group commit
//!
//! [`Durability`] picks the commit policy:
//!
//! * [`Always`](Durability::Always) — a `put` returns only after its
//!   record is fsynced. Concurrent `put`s coalesce: one caller becomes
//!   the commit **leader**, drains the whole queue with a single
//!   write+fsync, and wakes the waiters — N threads share one fsync.
//! * [`Batch`](Durability::Batch) — a `put` returns once its record is
//!   queued; the queue is written and fsynced when it reaches
//!   `max_records` or `interval` has elapsed. Deadlines are evaluated on
//!   `put`/[`sync`](LogStore::sync) **and** by a background flusher
//!   thread, so an idle store's window is bounded by wall-clock (~the
//!   interval), not by the arrival of the next call. The flusher is
//!   joined on close. A crash loses at most that window.
//! * [`Os`](Durability::Os) — records are handed to the OS page cache;
//!   fsync happens only on [`sync`](LogStore::sync) and close.
//!
//! Reads never take the commit lock: chunks still in the commit queue
//! are served from a pending-chunk map, everything else via positioned
//! reads (`pread`) on per-segment read handles.
//!
//! # Failure reporting
//!
//! A read that hits an I/O error — or a payload whose recomputed cid
//! does not match the requested one — returns `None` (the `ChunkStore`
//! contract reports presence), but the failure is **not** swallowed: it
//! bumps `StoreStats::io_errors` and latches the
//! [`poisoned`](LogStore::poisoned) flag so callers can distinguish
//! "absent" from "unreadable".

use crate::chunk::{Chunk, ChunkType};
use crate::store::{ChunkStore, PutOutcome, StatCounters, StoreStats};
use bytes::Bytes;
use forkbase_crypto::fx::{FxHashMap, FxHashSet};
use forkbase_crypto::Digest;
use parking_lot::RwLock;
use std::fs::{File, OpenOptions};
use std::hash::Hasher;
use std::io::{self, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

const MAGIC: u32 = 0xF0_4B_BA_5E; // "ForkBase"
const SNAP_MAGIC: u32 = 0xF0_4B_1D_E0;
const SNAP_VERSION: u32 = 1;
const SNAPSHOT_FILE: &str = "snapshot.idx";
/// Record framing overhead: magic + len + type tag + trailing cid.
const REC_OVERHEAD: usize = 4 + 4 + 1 + 32;
/// Hand the commit queue to the OS once it holds this many bytes even
/// when no sync deadline requires it (bounds queue memory).
const QUEUE_HIGH_WATER: usize = 1 << 20;

/// When a `put` counts as committed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Durability {
    /// Every `put` waits for an fsync covering its record; concurrent
    /// callers share one fsync via group commit.
    Always,
    /// fsync after `max_records` queued records or `interval`, whichever
    /// first; `put` returns as soon as the record is queued.
    Batch {
        /// Records per fsync window.
        max_records: usize,
        /// Maximum age of an unsynced record (checked on put/sync).
        interval: Duration,
    },
    /// No explicit fsync except [`LogStore::sync`] and close.
    Os,
}

impl Default for Durability {
    /// Bounded loss: at most 512 records or 10 ms.
    fn default() -> Self {
        Durability::Batch {
            max_records: 512,
            interval: Duration::from_millis(10),
        }
    }
}

/// Sizing knobs for the segmented log.
#[derive(Clone, Copy, Debug)]
pub struct LogConfig {
    /// Rotate to a new segment once the current one reaches this size.
    pub segment_bytes: u64,
    /// Write an index snapshot after this many appended bytes (keeps the
    /// reopen tail-replay short); one is also written on clean close.
    pub snapshot_bytes: u64,
}

impl Default for LogConfig {
    fn default() -> Self {
        LogConfig {
            segment_bytes: 64 << 20,
            snapshot_bytes: 32 << 20,
        }
    }
}

/// Where a record lives: segment id, byte offset of the record start,
/// payload length.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Loc {
    seg: u32,
    off: u64,
    plen: u32,
}

/// What the last reopen had to do — lets tests (and operators) assert
/// that snapshots actually bound recovery work.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReopenStats {
    /// Bytes scanned record-by-record to rebuild the index tail.
    pub bytes_scanned: u64,
    /// Chunks recovered by the tail scan (past the snapshot).
    pub replayed_chunks: u64,
    /// Chunks restored straight from the index snapshot.
    pub snapshot_chunks: u64,
    /// Whether a valid snapshot was used.
    pub used_snapshot: bool,
}

/// Result of an in-place compaction ([`LogStore::compact_retain`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompactStats {
    /// Chunks rewritten into fresh segments.
    pub kept_chunks: u64,
    /// Payload bytes rewritten.
    pub kept_bytes: u64,
    /// Chunks dropped with the old segments.
    pub dropped_chunks: u64,
    /// Payload bytes dropped.
    pub dropped_bytes: u64,
    /// Old segment files deleted.
    pub segments_removed: usize,
}

/// One contiguous run of queued record bytes, all in one segment.
struct PendingRun {
    seg: u32,
    bytes: Vec<u8>,
    /// (cid, encoded record length) per record, in `bytes` order — the
    /// lengths let error recovery re-slice and re-locate the records.
    recs: Vec<(Digest, u32)>,
}

impl PendingRun {
    fn record_count(&self) -> usize {
        self.recs.len()
    }
}

impl CommitState {
    /// Place one encoded record at the logical head: rotate to a fresh
    /// segment when full, assign its on-disk location, append it to the
    /// queue runs, and advance the head. The single source of truth for
    /// the placement rule — used by the normal enqueue path and by
    /// failed-round rollback when queued records are re-located. Takes
    /// the encoded record by value so starting a fresh run moves the
    /// buffer instead of copying it.
    fn place_record(&mut self, segment_bytes: u64, cid: Digest, rec: Vec<u8>) -> Loc {
        let rec_len = rec.len() as u64;
        if self.head_off > 0 && self.head_off + rec_len > segment_bytes {
            self.head_seg += 1;
            self.head_off = 0;
        }
        let loc = Loc {
            seg: self.head_seg,
            off: self.head_off,
            plen: (rec.len() - REC_OVERHEAD) as u32,
        };
        self.queue_bytes += rec.len();
        self.queue_records += 1;
        match self.queue.last_mut() {
            Some(run) if run.seg == loc.seg => {
                run.bytes.extend_from_slice(&rec);
                run.recs.push((cid, rec_len as u32));
            }
            _ => self.queue.push(PendingRun {
                seg: loc.seg,
                bytes: rec,
                recs: vec![(cid, rec_len as u32)],
            }),
        }
        self.head_off += rec_len;
        loc
    }
}

/// Writer-side state behind the commit mutex.
struct CommitState {
    /// Queued runs not yet handed to the OS.
    queue: Vec<PendingRun>,
    queue_bytes: usize,
    queue_records: usize,
    /// Monotonic put sequence / highest fsynced sequence.
    seq_enqueued: u64,
    seq_synced: u64,
    /// Highest sequence dropped by a failed commit round — waiters up to
    /// here must stop waiting (their data is gone; the store is
    /// poisoned).
    seq_failed: u64,
    /// A leader is currently draining the queue (commit lock released
    /// during its I/O).
    writing: bool,
    /// Logical append position, including queued-but-unwritten bytes.
    head_seg: u32,
    head_off: u64,
    /// Writer handle (`None` only while a leader borrows it).
    file: Option<File>,
    /// Segment `file` appends to, and how much of it is written.
    file_seg: u32,
    written_off: u64,
    /// Records written to the OS but not yet fsynced.
    unsynced_records: usize,
    /// Segments written by non-sync rounds and rotated away from before
    /// any fsync covered them — the next sync round must fsync these
    /// too, or the synced position would claim page-cache-only data.
    dirty_segs: Vec<u32>,
    /// A segment file was created since the last directory fsync; the
    /// next sync round must fsync the directory too, or a power loss
    /// could drop the whole file's dirent.
    dir_dirty: bool,
    /// When the oldest not-yet-fsynced record was enqueued (drives the
    /// `Batch` interval deadline).
    oldest_unsynced: Option<Instant>,
    /// Appended bytes since the last snapshot.
    bytes_since_snapshot: u64,
    /// Position up to which everything is fsynced (snapshots may only
    /// cover this much).
    synced_seg: u32,
    synced_off: u64,
}

/// Shared store state: everything the API surface and the background
/// flusher thread both need.
struct LogInner {
    dir: PathBuf,
    cfg: LogConfig,
    durability: Durability,
    index: RwLock<FxHashMap<Digest, Loc>>,
    /// Chunks queued but not yet written to their segment file.
    pending: RwLock<FxHashMap<Digest, Chunk>>,
    commit: Mutex<CommitState>,
    commit_cv: Condvar,
    /// Lazily opened per-segment read handles (positioned reads only).
    readers: RwLock<FxHashMap<u32, Arc<File>>>,
    stats: StatCounters,
    poisoned: AtomicBool,
    reopen: ReopenStats,
    /// Shutdown protocol for the `Batch` flusher thread.
    flush_stop: Mutex<bool>,
    flush_cv: Condvar,
}

/// Append-only segmented persistent chunk store with group commit.
///
/// The handle owns the shared store state plus, under
/// [`Durability::Batch`], the background flusher thread that bounds an
/// idle store's unsynced window by wall-clock. Dropping the store stops
/// and joins the flusher, then flushes and snapshots.
pub struct LogStore {
    inner: Arc<LogInner>,
    flusher: Option<std::thread::JoinHandle<()>>,
}

fn segment_path(dir: &Path, seg: u32) -> PathBuf {
    dir.join(format!("seg-{seg:06}.log"))
}

fn open_rw(path: &Path) -> io::Result<File> {
    OpenOptions::new()
        .create(true)
        .truncate(false)
        .read(true)
        .write(true)
        .open(path)
}

/// Persist directory entries (newly created/renamed files). Best effort
/// — not every filesystem supports fsync on a directory handle.
fn fsync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_data();
    }
}

fn fx64(bytes: &[u8]) -> u64 {
    let mut h = forkbase_crypto::fx::FxHasher::default();
    h.write(bytes);
    h.finish()
}

/// Writes a snapshot file through a fixed-size buffer and appends the
/// [`fx64`] checksum of everything written. The hasher is fed only runs
/// whose length is a multiple of 8 until the last one, and `FxHasher`
/// folds whole 8-byte words before any tail, so the streamed checksum
/// equals `fx64` of the whole body.
struct SnapWriter {
    file: File,
    buf: Vec<u8>,
    hash: forkbase_crypto::fx::FxHasher,
}

impl SnapWriter {
    const FLUSH_AT: usize = 64 << 10;

    fn new(file: File) -> SnapWriter {
        SnapWriter {
            file,
            buf: Vec::with_capacity(Self::FLUSH_AT + 64),
            hash: Default::default(),
        }
    }

    fn put(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.buf.extend_from_slice(bytes);
        if self.buf.len() >= Self::FLUSH_AT {
            let n = self.buf.len() & !7;
            self.hash.write(&self.buf[..n]);
            self.file.write_all(&self.buf[..n])?;
            self.buf.drain(..n);
        }
        Ok(())
    }

    /// Write the tail and the checksum, then make the file durable.
    fn finish(mut self) -> io::Result<()> {
        self.hash.write(&self.buf);
        let check = self.hash.finish();
        self.buf.extend_from_slice(&check.to_le_bytes());
        self.file.write_all(&self.buf)?;
        self.file.sync_data()
    }
}

impl LogStore {
    /// Open (or create) a store in directory `path` with default sizing
    /// and the default [`Durability`].
    pub fn open(path: impl AsRef<Path>) -> io::Result<LogStore> {
        Self::open_with(path, LogConfig::default(), Durability::default())
    }

    /// Open with explicit sizing and durability. Reopen loads the index
    /// snapshot (when present and valid) and replays only records past
    /// it; a torn or corrupt tail is truncated, and segments after a
    /// corrupt record are discarded (append order is monotonic across
    /// segments, so everything there is younger than the corruption).
    pub fn open_with(
        path: impl AsRef<Path>,
        cfg: LogConfig,
        durability: Durability,
    ) -> io::Result<LogStore> {
        let inner = Arc::new(LogInner::open_with(path, cfg, durability)?);
        let flusher = LogInner::spawn_flusher(&inner);
        Ok(LogStore { inner, flusher })
    }

    /// Directory holding the segments and snapshot.
    pub fn dir(&self) -> &Path {
        &self.inner.dir
    }

    /// What the last open had to replay.
    pub fn reopen_stats(&self) -> ReopenStats {
        self.inner.reopen
    }

    /// True once any read or commit has failed with an I/O error or a
    /// cid mismatch; counts are in [`StoreStats::io_errors`].
    pub fn poisoned(&self) -> bool {
        self.inner.poisoned.load(Ordering::Relaxed)
    }

    /// Number of distinct chunks indexed.
    pub fn chunk_count(&self) -> usize {
        self.inner.index.read().len()
    }

    /// The configured durability policy.
    pub fn durability(&self) -> Durability {
        self.inner.durability
    }

    /// Acknowledged puts not yet covered by an fsync (the records a
    /// crash right now would lose, queue and written-but-unsynced alike).
    /// Under `Batch` the background flusher drives this back to zero
    /// within roughly one interval even when no call arrives.
    pub fn pending_unsynced(&self) -> u64 {
        let state = self.inner.commit.lock().expect("commit lock");
        state.seq_enqueued - state.seq_synced.max(state.seq_failed)
    }

    /// Drain the commit queue and fsync: after this, every acknowledged
    /// `put` is on disk regardless of durability mode.
    pub fn sync(&self) -> io::Result<()> {
        self.inner.sync()
    }

    /// Force an index snapshot now (they normally happen every
    /// `snapshot_bytes` of appends and on clean close). Implies
    /// [`sync`](Self::sync).
    pub fn snapshot(&self) -> io::Result<()> {
        self.inner.snapshot()
    }

    /// Rewrite exactly the chunks in `live` into fresh segments, delete
    /// every old segment, and write a new snapshot covering the result.
    /// The store stays open throughout; the index swap redirects reads.
    /// (A reader that resolved a location *before* the swap may race the
    /// old segment's deletion and observe a spurious read error — run
    /// compaction on a quiesced instance when that matters.)
    pub fn compact_retain(&self, live: &FxHashSet<Digest>) -> io::Result<CompactStats> {
        self.inner.compact_retain(live)
    }
}

impl Drop for LogStore {
    /// Clean close: stop and join the flusher thread, then flush + fsync
    /// everything acknowledged and leave a fresh snapshot so the next
    /// open replays nothing. The snapshot is skipped when nothing was
    /// appended since the last one — a read-only session must not
    /// rewrite store metadata.
    fn drop(&mut self) {
        if let Some(handle) = self.flusher.take() {
            *self.inner.flush_stop.lock().expect("flush lock") = true;
            self.inner.flush_cv.notify_all();
            let _ = handle.join();
        }
        self.inner.close();
    }
}

impl ChunkStore for LogStore {
    fn get(&self, cid: &Digest) -> Option<Chunk> {
        self.inner.get(cid)
    }

    fn get_many(&self, cids: &[Digest]) -> Vec<Option<Chunk>> {
        self.inner.get_many(cids)
    }

    fn put(&self, chunk: Chunk) -> PutOutcome {
        self.inner.put(chunk)
    }

    fn put_many(&self, chunks: Vec<Chunk>) -> Vec<PutOutcome> {
        self.inner.put_many(chunks)
    }

    fn contains(&self, cid: &Digest) -> bool {
        self.inner.index.read().contains_key(cid)
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats.snapshot()
    }
}

impl LogInner {
    fn open_with(
        path: impl AsRef<Path>,
        cfg: LogConfig,
        durability: Durability,
    ) -> io::Result<LogInner> {
        let dir = path.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;

        let mut seg_ids: Vec<u32> = Vec::new();
        for entry in std::fs::read_dir(&dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(id) = name
                .strip_prefix("seg-")
                .and_then(|s| s.strip_suffix(".log"))
                .and_then(|s| s.parse().ok())
            {
                seg_ids.push(id);
            }
        }
        seg_ids.sort_unstable();

        let mut index: FxHashMap<Digest, Loc> = FxHashMap::default();
        let mut reopen = ReopenStats::default();
        let stats = StatCounters::default();

        // Load the snapshot; fall back to a full scan when it is absent,
        // corrupt, or points at segments that no longer exist (e.g. a
        // crash between compaction's segment deletion and its fresh
        // snapshot).
        let mut resume = None;
        if let Some((snap_index, seg, off)) = read_snapshot(&dir.join(SNAPSHOT_FILE)) {
            let covered_exists = match seg_ids.binary_search(&seg) {
                Ok(_) => std::fs::metadata(segment_path(&dir, seg))
                    .map(|m| m.len() >= off)
                    .unwrap_or(false),
                // A snapshot taken exactly at a rotation boundary may
                // cover the zero-length start of a not-yet-created file.
                Err(_) => off == 0,
            };
            if covered_exists {
                for loc in snap_index.values() {
                    stats.record_store(loc.plen as u64);
                }
                reopen.snapshot_chunks = snap_index.len() as u64;
                reopen.used_snapshot = true;
                index = snap_index;
                resume = Some((seg, off));
            }
        }
        let (resume_seg, resume_off) = resume.unwrap_or((*seg_ids.first().unwrap_or(&0), 0));

        // Tail replay: stream every record past the resume point through
        // a reusable per-record buffer. The first torn or corrupt record
        // ends recovery; its segment is truncated there and later
        // segments are deleted.
        let mut scratch = Vec::new();
        let mut clean = true;
        let mut tail = (resume_seg, resume_off);
        for &seg in seg_ids.iter().filter(|&&s| s >= resume_seg) {
            if !clean {
                std::fs::remove_file(segment_path(&dir, seg))?;
                continue;
            }
            let start = if seg == resume_seg { resume_off } else { 0 };
            let path = segment_path(&dir, seg);
            let file = File::open(&path)?;
            let len = file.metadata()?.len();
            let (valid_end, records) = scan_segment(
                &file,
                seg,
                start,
                &mut index,
                &stats,
                &mut scratch,
                &mut reopen,
            )?;
            drop(file);
            reopen.replayed_chunks += records;
            if valid_end < len {
                OpenOptions::new()
                    .write(true)
                    .open(&path)?
                    .set_len(valid_end)?;
                clean = false;
            }
            tail = (seg, valid_end);
        }

        // Recovery scans are not client traffic: keep only held-data
        // counters.
        let recovered = stats.snapshot();
        let stats = StatCounters::default();
        stats
            .stored_chunks
            .store(recovered.stored_chunks, Ordering::Relaxed);
        stats
            .stored_bytes
            .store(recovered.stored_bytes, Ordering::Relaxed);

        let (head_seg, head_off) = tail;
        let mut file = open_rw(&segment_path(&dir, head_seg))?;
        file.seek(SeekFrom::Start(head_off))?;
        // The head segment may have just been created: persist its
        // directory entry before any record relies on it.
        fsync_dir(&dir);

        Ok(LogInner {
            dir,
            cfg,
            durability,
            index: RwLock::new(index),
            pending: RwLock::new(FxHashMap::default()),
            commit: Mutex::new(CommitState {
                queue: Vec::new(),
                queue_bytes: 0,
                queue_records: 0,
                seq_enqueued: 0,
                seq_synced: 0,
                seq_failed: 0,
                writing: false,
                head_seg,
                head_off,
                file: Some(file),
                file_seg: head_seg,
                written_off: head_off,
                unsynced_records: 0,
                dirty_segs: Vec::new(),
                dir_dirty: false,
                oldest_unsynced: None,
                bytes_since_snapshot: 0,
                synced_seg: head_seg,
                synced_off: head_off,
            }),
            commit_cv: Condvar::new(),
            readers: RwLock::new(FxHashMap::default()),
            stats,
            poisoned: AtomicBool::new(false),
            reopen,
            flush_stop: Mutex::new(false),
            flush_cv: Condvar::new(),
        })
    }

    /// Start the `Batch` flusher thread: it wakes every half interval
    /// and drains the queue whenever the commit policy says a sync is
    /// due, so an idle store's unsynced window is bounded by wall-clock.
    /// `Always`/`Os` stores need no thread (nothing is time-driven).
    fn spawn_flusher(inner: &Arc<LogInner>) -> Option<std::thread::JoinHandle<()>> {
        let Durability::Batch { interval, .. } = inner.durability else {
            return None;
        };
        let tick = (interval / 2).max(Duration::from_millis(1));
        let inner = Arc::clone(inner);
        let handle = std::thread::Builder::new()
            .name("logstore-flusher".into())
            .spawn(move || {
                let mut stop = inner.flush_stop.lock().expect("flush lock");
                loop {
                    if *stop {
                        return;
                    }
                    let (guard, _) = inner.flush_cv.wait_timeout(stop, tick).expect("flush lock");
                    stop = guard;
                    if *stop {
                        return;
                    }
                    drop(stop);
                    inner.flush_if_due();
                    stop = inner.flush_stop.lock().expect("flush lock");
                }
            })
            .expect("spawn logstore flusher");
        Some(handle)
    }

    /// One flusher wake-up: become the commit leader iff a sync is due
    /// and nobody else is writing. I/O errors latch the poisoned flag
    /// and `io_errors` exactly as a put-driven round would.
    fn flush_if_due(&self) {
        let state = self.commit.lock().expect("commit lock");
        if !state.writing && self.wants_sync(&state, false) {
            let (_state, _verdict) = self.drain_as_leader(state, false);
        }
    }

    /// Clean-close body shared by [`LogStore::drop`].
    fn close(&self) {
        let dirty = {
            let state = self.commit.lock().expect("commit lock");
            !state.queue.is_empty()
                || state.unsynced_records > 0
                || !state.dirty_segs.is_empty()
                || state.bytes_since_snapshot > 0
        };
        if dirty && self.sync().is_ok() {
            let mut state = self.commit.lock().expect("commit lock");
            let _ = self.write_snapshot(&mut state);
        }
    }

    /// Drain the commit queue and fsync; see [`LogStore::sync`].
    fn sync(&self) -> io::Result<()> {
        let mut state = self.commit.lock().expect("commit lock");
        loop {
            if state.writing {
                state = self.commit_cv.wait(state).expect("commit lock");
                continue;
            }
            if state.queue.is_empty() && state.unsynced_records == 0 && state.dirty_segs.is_empty()
            {
                return Ok(());
            }
            let (s, result) = self.drain_as_leader(state, true);
            state = s;
            result?;
        }
    }

    /// Force an index snapshot now; see [`LogStore::snapshot`].
    fn snapshot(&self) -> io::Result<()> {
        self.sync()?;
        let mut state = self.commit.lock().expect("commit lock");
        self.write_snapshot(&mut state)
    }

    // ---- write path ------------------------------------------------------

    fn encode_record(chunk: &Chunk) -> Vec<u8> {
        let mut rec = Vec::with_capacity(REC_OVERHEAD + chunk.len());
        rec.extend_from_slice(&MAGIC.to_le_bytes());
        rec.extend_from_slice(&(chunk.len() as u32).to_le_bytes());
        rec.push(chunk.ty() as u8);
        rec.extend_from_slice(chunk.payload());
        rec.extend_from_slice(chunk.cid().as_bytes());
        rec
    }

    /// Queue `rec`, assigning its on-disk location (rotating the logical
    /// head segment when full). Commit lock held.
    fn enqueue(&self, state: &mut CommitState, cid: Digest, rec: Vec<u8>) -> Loc {
        let rec_len = rec.len() as u64;
        let loc = state.place_record(self.cfg.segment_bytes, cid, rec);
        state.seq_enqueued += 1;
        state.bytes_since_snapshot += rec_len;
        if state.oldest_unsynced.is_none() {
            state.oldest_unsynced = Some(Instant::now());
        }
        loc
    }

    /// Under `Always`, `Deduplicated` is as strong an acknowledgement as
    /// `Stored` — if the racing put that owns the record is still in
    /// flight (its chunk sits in the pending map until its commit round
    /// fsyncs), wait for that round before acknowledging. In every other
    /// mode dedup acknowledges immediately, like `Stored` does.
    fn await_dedup_durable(&self, cid: &Digest) {
        if matches!(self.durability, Durability::Always) && self.pending.read().contains_key(cid) {
            // Errors poison the store and are counted; the dedup reply
            // itself stays infallible like the rest of the trait.
            let _ = self.sync();
        }
    }

    /// Should the *current* backlog be fsynced this round?
    fn wants_sync(&self, state: &CommitState, force: bool) -> bool {
        if force {
            return true;
        }
        let outstanding = state.unsynced_records + state.queue_records;
        match self.durability {
            Durability::Always => outstanding > 0,
            Durability::Batch {
                max_records,
                interval,
            } => {
                outstanding > 0
                    && (outstanding >= max_records
                        || state
                            .oldest_unsynced
                            .is_some_and(|t| t.elapsed() >= interval))
            }
            Durability::Os => false,
        }
    }

    /// Group-commit leader: repeatedly take the whole queue, release the
    /// commit lock, write (rotating segment files as needed) and
    /// optionally fsync, then re-lock and publish. Waiters blocked in
    /// `put(Always)` are woken once their sequence is synced. Returns
    /// the re-acquired guard and the I/O verdict.
    fn drain_as_leader<'a>(
        &'a self,
        mut state: MutexGuard<'a, CommitState>,
        force_sync: bool,
    ) -> (MutexGuard<'a, CommitState>, io::Result<()>) {
        state.writing = true;
        let mut verdict = Ok(());
        loop {
            let do_sync = self.wants_sync(&state, force_sync);
            let backlog = state.unsynced_records > 0 || !state.dirty_segs.is_empty();
            if state.queue.is_empty() && !(do_sync && backlog) {
                break;
            }
            // The writer handle can be absent after a failed repair; one
            // reopen attempt, then give up cleanly.
            if state.file.is_none() {
                let (seg, off) = (state.file_seg, state.written_off);
                let reopened = open_rw(&segment_path(&self.dir, seg)).and_then(|mut f| {
                    f.seek(SeekFrom::Start(off))?;
                    Ok(f)
                });
                match reopened {
                    Ok(f) => state.file = Some(f),
                    Err(e) => {
                        verdict = Err(e);
                        break;
                    }
                }
            }
            let runs = std::mem::take(&mut state.queue);
            state.queue_bytes = 0;
            state.queue_records = 0;
            let seq_hi = state.seq_enqueued;
            let mut file = state.file.take().expect("writer file present");
            let mut file_seg = state.file_seg;
            let mut written_off = state.written_off;
            // Where this round started — error recovery truncates back
            // to here.
            let start_seg = file_seg;
            let start_off = written_off;
            let dirty_before: Vec<u32> = state.dirty_segs.clone();
            let dir_dirty_before = state.dir_dirty;
            let mut rotated_unsynced: Vec<u32> = Vec::new();
            let mut created_segment = false;
            drop(state);

            // ---- commit lock released: the actual I/O ------------------
            let io: io::Result<Option<(u32, u64)>> = (|| {
                for run in &runs {
                    if run.seg != file_seg {
                        if do_sync {
                            file.sync_data()?;
                        } else {
                            // Rotated away without fsync: this segment
                            // stays dirty until a sync round covers it.
                            rotated_unsynced.push(file_seg);
                        }
                        file = open_rw(&segment_path(&self.dir, run.seg))?;
                        file_seg = run.seg;
                        written_off = 0;
                        created_segment = true;
                    }
                    file.write_all(&run.bytes)?;
                    written_off += run.bytes.len() as u64;
                }
                if do_sync {
                    // Older segments written by non-sync rounds must be
                    // durable before the synced position may pass them.
                    for seg in &dirty_before {
                        File::open(segment_path(&self.dir, *seg))?.sync_data()?;
                    }
                    file.sync_data()?;
                    // Data is durable; now persist the dirents of any
                    // segment files created since the last dir fsync.
                    if created_segment || dir_dirty_before {
                        fsync_dir(&self.dir);
                    }
                    Ok(Some((file_seg, written_off)))
                } else {
                    Ok(None)
                }
            })();
            if io.is_ok() {
                // Written records are now readable via positioned reads;
                // drop them from the pending map.
                let mut pending = self.pending.write();
                for run in &runs {
                    for (cid, _) in &run.recs {
                        pending.remove(cid);
                    }
                }
            }

            // ---- re-locked: publish ------------------------------------
            state = self.commit.lock().expect("commit lock");
            match io {
                Ok(synced_to) => {
                    state.file = Some(file);
                    state.file_seg = file_seg;
                    state.written_off = written_off;
                    state.unsynced_records +=
                        runs.iter().map(PendingRun::record_count).sum::<usize>();
                    if let Some((seg, off)) = synced_to {
                        state.seq_synced = seq_hi;
                        state.unsynced_records = 0;
                        state.dirty_segs.clear();
                        state.dir_dirty = false;
                        // Records enqueued while the lock was released are
                        // not covered by this fsync; restart their clock.
                        state.oldest_unsynced = (state.queue_records > 0).then(Instant::now);
                        state.synced_seg = seg;
                        state.synced_off = off;
                        self.commit_cv.notify_all();
                        if state.bytes_since_snapshot >= self.cfg.snapshot_bytes {
                            if let Err(e) = self.write_snapshot(&mut state) {
                                verdict = Err(e);
                                break;
                            }
                        }
                    } else {
                        state.dirty_segs.extend(rotated_unsynced);
                        state.dir_dirty = dir_dirty_before || created_segment;
                    }
                }
                Err(e) => {
                    self.rollback_failed_round(&mut state, runs, seq_hi, start_seg, start_off);
                    verdict = Err(e);
                    break;
                }
            }
        }
        state.writing = false;
        self.commit_cv.notify_all();
        if verdict.is_err() {
            self.poisoned.store(true, Ordering::Relaxed);
            self.stats.record_io_error();
        }
        (state, verdict)
    }

    /// A commit round failed mid-I/O: the taken `runs` may be partially
    /// (or torn) on disk and the logical head has advanced past them.
    /// Restore consistency by rolling the store back to the position the
    /// round started at: the failed records are dropped from the index
    /// and pending map (their puts are reported via `seq_failed`, the
    /// poisoned flag and `io_errors`), records still in the queue are
    /// re-located against the rewound head, the started segment is
    /// truncated back, and segments created by the failed round are
    /// deleted. Commit lock held; `state.file` is absent (the leader
    /// took it).
    fn rollback_failed_round(
        &self,
        state: &mut CommitState,
        runs: Vec<PendingRun>,
        seq_hi: u64,
        start_seg: u32,
        start_off: u64,
    ) {
        state.seq_failed = state.seq_failed.max(seq_hi);
        {
            let mut index = self.index.write();
            let mut pending = self.pending.write();
            for run in &runs {
                for (cid, _) in &run.recs {
                    index.remove(cid);
                    pending.remove(cid);
                }
            }
            // Re-locate the records that arrived while the failed round
            // was in flight: their locations assumed the dropped bytes.
            let stale_queue = std::mem::take(&mut state.queue);
            state.queue_bytes = 0;
            state.queue_records = 0;
            state.head_seg = start_seg;
            state.head_off = start_off;
            for run in stale_queue {
                let mut pos = 0usize;
                for (cid, len) in run.recs {
                    let rec = run.bytes[pos..pos + len as usize].to_vec();
                    pos += len as usize;
                    // seq numbers and clocks were assigned at the
                    // original enqueue; only the placement is redone.
                    let loc = state.place_record(self.cfg.segment_bytes, cid, rec);
                    index.insert(cid, loc);
                }
            }
        }
        // Repair the files: drop the round's partial bytes and delete
        // any segments the failed round created. Best effort — the
        // poisoned flag is already latched, and reopen's cid-checked
        // scan truncates whatever garbage remains.
        let max_touched = runs
            .iter()
            .map(|r| r.seg)
            .max()
            .unwrap_or(start_seg)
            .max(state.head_seg);
        for seg in (start_seg + 1)..=max_touched.max(start_seg + 1) {
            std::fs::remove_file(segment_path(&self.dir, seg)).ok();
            self.readers.write().remove(&seg);
        }
        state.file_seg = start_seg;
        state.written_off = start_off;
        state.file = match open_rw(&segment_path(&self.dir, start_seg)) {
            Ok(mut file) => {
                file.set_len(start_off).ok();
                file.seek(SeekFrom::Start(start_off)).ok();
                Some(file)
            }
            // A later drain re-attempts the open and errors cleanly.
            Err(_) => None,
        };
        self.commit_cv.notify_all();
    }

    /// Serialize the index up to the synced position and atomically
    /// replace `snapshot.idx`. Entries past the synced position are
    /// excluded — a crash must never leave the snapshot ahead of the
    /// data. Commit lock held.
    fn write_snapshot(&self, state: &mut CommitState) -> io::Result<()> {
        let (seg, off) = (state.synced_seg, state.synced_off);
        let tmp = self.dir.join("snapshot.tmp");
        {
            // Stream the index to the file through a small buffer: a
            // snapshot of a large index never needs an index-sized
            // allocation.
            let index = self.index.read();
            let covered = |l: &Loc| (l.seg, l.off) < (seg, off);
            let count = index.values().filter(|l| covered(l)).count() as u64;
            let mut out = SnapWriter::new(File::create(&tmp)?);
            out.put(&SNAP_MAGIC.to_le_bytes())?;
            out.put(&SNAP_VERSION.to_le_bytes())?;
            out.put(&seg.to_le_bytes())?;
            out.put(&off.to_le_bytes())?;
            out.put(&count.to_le_bytes())?;
            for (cid, loc) in index.iter().filter(|(_, l)| covered(l)) {
                out.put(cid.as_bytes())?;
                out.put(&loc.seg.to_le_bytes())?;
                out.put(&loc.off.to_le_bytes())?;
                out.put(&loc.plen.to_le_bytes())?;
            }
            drop(index);
            out.finish()?;
        }
        std::fs::rename(&tmp, self.dir.join(SNAPSHOT_FILE))?;
        // Make the rename durable.
        fsync_dir(&self.dir);
        state.bytes_since_snapshot = 0;
        Ok(())
    }

    // ---- read path -------------------------------------------------------

    fn reader(&self, seg: u32) -> io::Result<Arc<File>> {
        if let Some(f) = self.readers.read().get(&seg) {
            return Ok(f.clone());
        }
        let f = Arc::new(File::open(segment_path(&self.dir, seg))?);
        Ok(self.readers.write().entry(seg).or_insert(f).clone())
    }

    fn read_record(&self, cid: &Digest, loc: Loc) -> io::Result<Chunk> {
        let file = self.reader(loc.seg)?;
        let mut buf = vec![0u8; 1 + loc.plen as usize];
        file.read_exact_at(&mut buf, loc.off + 8)?;
        let ty = ChunkType::from_u8(buf[0]).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, "bad chunk type tag on disk")
        })?;
        let chunk = Chunk::new(ty, Bytes::copy_from_slice(&buf[1..]));
        if chunk.cid() != *cid {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("cid mismatch reading {}", cid.short_hex()),
            ));
        }
        Ok(chunk)
    }

    /// Latch the poisoned flag and count a failed read. Only the first
    /// failure is printed — `io_errors` carries the running count, and a
    /// library must not flood stderr on every retried get.
    fn note_read_error(&self, err: &io::Error) {
        let first = !self.poisoned.swap(true, Ordering::Relaxed);
        self.stats.record_io_error();
        if first {
            eprintln!("forkbase-chunk: LogStore read error (store poisoned): {err}");
        }
    }

    // ---- compaction ------------------------------------------------------

    /// In-place compaction body; see [`LogStore::compact_retain`].
    fn compact_retain(&self, live: &FxHashSet<Digest>) -> io::Result<CompactStats> {
        // Quiesce the write path: drain + fsync, then keep the commit
        // lock so nothing lands mid-compaction.
        self.sync()?;
        let mut state = self.commit.lock().expect("commit lock");
        debug_assert!(!state.writing && state.queue.is_empty());

        let old_index: Vec<(Digest, Loc)> =
            self.index.read().iter().map(|(c, l)| (*c, *l)).collect();
        let mut old_segs: Vec<u32> = old_index.iter().map(|(_, l)| l.seg).collect();
        old_segs.push(state.head_seg);
        old_segs.sort_unstable();
        old_segs.dedup();

        let mut stats = CompactStats::default();
        let mut new_index: FxHashMap<Digest, Loc> = FxHashMap::default();
        let mut seg = state.head_seg + 1;
        let mut off = 0u64;
        let mut file = open_rw(&segment_path(&self.dir, seg))?;
        for (cid, loc) in &old_index {
            if !live.contains(cid) {
                stats.dropped_chunks += 1;
                stats.dropped_bytes += loc.plen as u64;
                continue;
            }
            let chunk = match self.read_record(cid, *loc) {
                Ok(c) => c,
                Err(e) => {
                    self.note_read_error(&e);
                    return Err(e);
                }
            };
            let rec = Self::encode_record(&chunk);
            if off > 0 && off + rec.len() as u64 > self.cfg.segment_bytes {
                file.sync_data()?;
                seg += 1;
                off = 0;
                file = open_rw(&segment_path(&self.dir, seg))?;
            }
            file.write_all(&rec)?;
            new_index.insert(
                *cid,
                Loc {
                    seg,
                    off,
                    plen: loc.plen,
                },
            );
            off += rec.len() as u64;
            stats.kept_chunks += 1;
            stats.kept_bytes += loc.plen as u64;
        }
        file.sync_data()?;
        // Persist the fresh segments' dirents before the old segments
        // (the only other copy of the data) are deleted.
        fsync_dir(&self.dir);

        // Publish: swap the index, repoint the writer at the new tail,
        // then delete old segments (open handles stay valid on unix).
        *self.index.write() = new_index;
        state.head_seg = seg;
        state.head_off = off;
        state.file = Some(file);
        state.file_seg = seg;
        state.written_off = off;
        state.unsynced_records = 0;
        state.dirty_segs.clear();
        state.dir_dirty = false;
        state.oldest_unsynced = None;
        state.synced_seg = seg;
        state.synced_off = off;
        self.stats
            .stored_chunks
            .store(stats.kept_chunks, Ordering::Relaxed);
        self.stats
            .stored_bytes
            .store(stats.kept_bytes, Ordering::Relaxed);
        for old in &old_segs {
            std::fs::remove_file(segment_path(&self.dir, *old)).ok();
            self.readers.write().remove(old);
        }
        stats.segments_removed = old_segs.len();
        self.write_snapshot(&mut state)?;
        Ok(stats)
    }

    // ---- ChunkStore bodies (called through the LogStore facade) ----------

    fn get(&self, cid: &Digest) -> Option<Chunk> {
        self.get_many(std::slice::from_ref(cid)).pop().flatten()
    }

    /// Batched get: all locations are resolved under **one** index
    /// read-lock acquisition and all still-queued chunks under one
    /// pending-map acquisition; only the positioned segment reads remain
    /// per-chunk. Every requested cid counts as one get in the stats;
    /// [`get`](Self::get) is the one-cid call.
    fn get_many(&self, cids: &[Digest]) -> Vec<Option<Chunk>> {
        let locs: Vec<Option<Loc>> = {
            let index = self.index.read();
            cids.iter().map(|cid| index.get(cid).copied()).collect()
        };
        let mut out: Vec<Option<Chunk>> = vec![None; cids.len()];
        let mut disk: Vec<usize> = Vec::new();
        {
            let pending = self.pending.read();
            for (i, loc) in locs.iter().enumerate() {
                if loc.is_none() {
                    continue;
                }
                match pending.get(&cids[i]) {
                    Some(chunk) => out[i] = Some(chunk.clone()),
                    None => disk.push(i),
                }
            }
        }
        for i in disk {
            out[i] = match self.read_record(&cids[i], locs[i].expect("resolved loc")) {
                Ok(chunk) => Some(chunk),
                Err(e) => {
                    self.note_read_error(&e);
                    None
                }
            };
        }
        for found in &out {
            self.stats.record_get(found.is_some());
        }
        out
    }

    fn put(&self, chunk: Chunk) -> PutOutcome {
        self.put_many(vec![chunk])
            .pop()
            .expect("one outcome per chunk")
    }

    /// Batched put: every new chunk is encoded outside the commit lock,
    /// then the whole batch is enqueued under **one** commit-lock
    /// acquisition and acknowledged by **one** group-commit round —
    /// under `Always` the batch pays a single fsync instead of one per
    /// chunk. Within-batch duplicate cids deduplicate against the first
    /// occurrence; [`put`](Self::put) is the one-chunk call.
    fn put_many(&self, chunks: Vec<Chunk>) -> Vec<PutOutcome> {
        let mut out = vec![PutOutcome::Deduplicated; chunks.len()];
        // Dedup fast path and record encoding, all without the commit
        // lock. `fresh` keeps candidate inserts in batch order.
        let mut fresh: Vec<(usize, Digest, Chunk, Vec<u8>)> = Vec::with_capacity(chunks.len());
        let mut dedup: Vec<(usize, Digest, u64)> = Vec::new();
        {
            let index = self.index.read();
            for (i, chunk) in chunks.into_iter().enumerate() {
                let cid = chunk.cid();
                if index.contains_key(&cid) {
                    dedup.push((i, cid, chunk.len() as u64));
                } else {
                    let rec = Self::encode_record(&chunk);
                    fresh.push((i, cid, chunk, rec));
                }
            }
        }
        if !fresh.is_empty() {
            let mut state = self.commit.lock().expect("commit lock");
            {
                // Re-check under the lock (racing puts, or the same cid
                // twice within this batch); publish pending before index
                // so readers that see the entry always find the bytes.
                let index = self.index.read();
                fresh.retain(|(i, cid, chunk, _)| {
                    if index.contains_key(cid) {
                        dedup.push((*i, *cid, chunk.len() as u64));
                        false
                    } else {
                        true
                    }
                });
            }
            if fresh.len() > 1 {
                let mut seen: FxHashSet<Digest> = FxHashSet::default();
                fresh.retain(|(i, cid, chunk, _)| {
                    if seen.insert(*cid) {
                        true
                    } else {
                        dedup.push((*i, *cid, chunk.len() as u64));
                        false
                    }
                });
            }
            {
                let mut pending = self.pending.write();
                for (_, cid, chunk, _) in &fresh {
                    pending.insert(*cid, chunk.clone());
                }
            }
            {
                let mut index = self.index.write();
                for (i, cid, chunk, rec) in std::mem::take(&mut fresh) {
                    let loc = self.enqueue(&mut state, cid, rec);
                    index.insert(cid, loc);
                    self.stats.record_store(chunk.len() as u64);
                    out[i] = PutOutcome::Stored;
                }
            }
            let my_seq = state.seq_enqueued;
            match self.durability {
                Durability::Always => loop {
                    if state.seq_synced >= my_seq || state.seq_failed >= my_seq {
                        break;
                    }
                    if state.writing {
                        state = self.commit_cv.wait(state).expect("commit lock");
                        continue;
                    }
                    let (s, result) = self.drain_as_leader(state, false);
                    state = s;
                    if result.is_err() {
                        break;
                    }
                },
                Durability::Batch { .. } | Durability::Os => {
                    let due =
                        self.wants_sync(&state, false) || state.queue_bytes >= QUEUE_HIGH_WATER;
                    if due && !state.writing {
                        let (s, _result) = self.drain_as_leader(state, false);
                        state = s;
                    }
                }
            }
            drop(state);
        }
        for (i, cid, bytes) in dedup {
            self.await_dedup_durable(&cid);
            self.stats.record_dedup(bytes);
            out[i] = PutOutcome::Deduplicated;
        }
        out
    }
}

/// Scan segment `seg` from `start`, adding every intact record to
/// `index`. Returns `(valid_end, records_recovered)`. Streams through
/// `scratch`: memory is bounded by the largest single record, not the
/// log size.
fn scan_segment(
    file: &File,
    seg: u32,
    start: u64,
    index: &mut FxHashMap<Digest, Loc>,
    stats: &StatCounters,
    scratch: &mut Vec<u8>,
    reopen: &mut ReopenStats,
) -> io::Result<(u64, u64)> {
    let len = file.metadata()?.len();
    let mut pos = start;
    let mut header = [0u8; 9];
    let mut records = 0u64;
    while len.saturating_sub(pos) >= REC_OVERHEAD as u64 {
        file.read_exact_at(&mut header, pos)?;
        reopen.bytes_scanned += header.len() as u64;
        let magic = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
        if magic != MAGIC {
            break;
        }
        let plen = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes")) as usize;
        let rec_len = (REC_OVERHEAD + plen) as u64;
        if len - pos < rec_len {
            break; // torn tail
        }
        let Some(ty) = ChunkType::from_u8(header[8]) else {
            break;
        };
        scratch.resize(plen + 32, 0);
        file.read_exact_at(scratch, pos + 9)?;
        reopen.bytes_scanned += (plen + 32) as u64;
        let Some(stored_cid) = Digest::from_slice(&scratch[plen..]) else {
            break;
        };
        if forkbase_crypto::hash_parts(&[&[ty as u8], &scratch[..plen]]) != stored_cid {
            break; // corruption: stop at the last intact prefix
        }
        if index
            .insert(
                stored_cid,
                Loc {
                    seg,
                    off: pos,
                    plen: plen as u32,
                },
            )
            .is_none()
        {
            stats.record_store(plen as u64);
        }
        records += 1;
        pos += rec_len;
    }
    Ok((pos, records))
}

/// Parse and checksum-validate a snapshot file. Returns the index plus
/// the covered position, or `None` when missing or invalid.
#[allow(clippy::type_complexity)]
fn read_snapshot(path: &Path) -> Option<(FxHashMap<Digest, Loc>, u32, u64)> {
    let buf = std::fs::read(path).ok()?;
    if buf.len() < 28 + 8 {
        return None;
    }
    let (body, check) = buf.split_at(buf.len() - 8);
    if fx64(body) != u64::from_le_bytes(check.try_into().ok()?) {
        return None;
    }
    let magic = u32::from_le_bytes(body[0..4].try_into().ok()?);
    let version = u32::from_le_bytes(body[4..8].try_into().ok()?);
    if magic != SNAP_MAGIC || version != SNAP_VERSION {
        return None;
    }
    let seg = u32::from_le_bytes(body[8..12].try_into().ok()?);
    let off = u64::from_le_bytes(body[12..20].try_into().ok()?);
    let count = u64::from_le_bytes(body[20..28].try_into().ok()?) as usize;
    if body.len() != 28 + count * 48 {
        return None;
    }
    let mut index = FxHashMap::default();
    for entry in body[28..].chunks_exact(48) {
        let cid = Digest::from_slice(&entry[..32])?;
        let loc = Loc {
            seg: u32::from_le_bytes(entry[32..36].try_into().ok()?),
            off: u64::from_le_bytes(entry[36..44].try_into().ok()?),
            plen: u32::from_le_bytes(entry[44..48].try_into().ok()?),
        };
        index.insert(cid, loc);
    }
    Some((index, seg, off))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "forkbase-logstore-{}-{}-{}",
            tag,
            std::process::id(),
            n
        ))
    }

    fn tiny_cfg() -> LogConfig {
        LogConfig {
            segment_bytes: 4096,
            snapshot_bytes: u64::MAX, // only explicit / close snapshots
        }
    }

    #[test]
    fn put_get_round_trip() {
        let dir = temp_dir("rt");
        let store = LogStore::open(&dir).expect("open");
        let chunk = Chunk::new(ChunkType::Blob, &b"persistent payload"[..]);
        assert_eq!(store.put(chunk.clone()), PutOutcome::Stored);
        assert_eq!(store.get(&chunk.cid()), Some(chunk));
        assert!(!store.poisoned());
        drop(store);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn put_many_batch_commits_and_dedups() {
        let dir = temp_dir("putmany");
        let store = LogStore::open_with(&dir, tiny_cfg(), Durability::Always).expect("open");
        let pre = Chunk::new(ChunkType::Blob, &b"already stored"[..]);
        store.put(pre.clone());

        // One batch mixing fresh chunks, a chunk already in the store,
        // and an in-batch duplicate pair.
        let fresh: Vec<Chunk> = (0..8u32)
            .map(|i| Chunk::new(ChunkType::Map, i.to_le_bytes().to_vec()))
            .collect();
        let dup = Chunk::new(ChunkType::Blob, &b"twice in one batch"[..]);
        let mut batch = fresh.clone();
        batch.push(pre.clone());
        batch.push(dup.clone());
        batch.push(dup.clone());
        let outcomes = store.put_many(batch);

        assert_eq!(outcomes.len(), 11);
        assert!(outcomes[..8].iter().all(|o| *o == PutOutcome::Stored));
        assert_eq!(outcomes[8], PutOutcome::Deduplicated, "pre-existing cid");
        assert_eq!(outcomes[9], PutOutcome::Stored, "first copy in batch");
        assert_eq!(outcomes[10], PutOutcome::Deduplicated, "second copy");
        assert_eq!(store.chunk_count(), 10);

        // Everything in the batch is durable: reopen and re-read.
        drop(store);
        let store = LogStore::open_with(&dir, tiny_cfg(), Durability::Always).expect("reopen");
        for chunk in fresh.iter().chain([&pre, &dup]) {
            assert_eq!(store.get(&chunk.cid()), Some(chunk.clone()));
        }
        assert!(!store.poisoned());
        drop(store);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn put_many_empty_batch_is_a_no_op() {
        let dir = temp_dir("putmany-empty");
        let store = LogStore::open(&dir).expect("open");
        assert!(store.put_many(Vec::new()).is_empty());
        assert_eq!(store.chunk_count(), 0);
        drop(store);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn reopen_recovers_index_across_segments() {
        let dir = temp_dir("reopen");
        let mut cids = Vec::new();
        {
            let store = LogStore::open_with(&dir, tiny_cfg(), Durability::Always).expect("open");
            for i in 0..50u32 {
                let chunk = Chunk::new(ChunkType::Map, vec![i as u8; 200]);
                cids.push((i, chunk.cid()));
                store.put(chunk);
            }
        }
        // 50 × ~241-byte records over 4 KiB segments ⇒ several segments.
        let segs = std::fs::read_dir(&dir)
            .expect("ls")
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .starts_with("seg-")
            })
            .count();
        assert!(segs > 1, "expected rotation, got {segs} segment(s)");

        let store = LogStore::open_with(&dir, tiny_cfg(), Durability::Always).expect("reopen");
        assert_eq!(store.chunk_count(), 50);
        for (i, cid) in &cids {
            let chunk = store.get(cid).expect("recovered");
            assert_eq!(chunk.payload().as_ref(), vec![*i as u8; 200]);
        }
        assert_eq!(store.stats().stored_chunks, 50);
        drop(store);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated() {
        let dir = temp_dir("torn");
        {
            let store = LogStore::open_with(&dir, tiny_cfg(), Durability::Always).expect("open");
            for i in 0..10u32 {
                store.put(Chunk::new(ChunkType::Blob, i.to_le_bytes().to_vec()));
            }
        }
        // Crash mid-append: garbage half-record at the tail of the last
        // segment.
        let last_seg = std::fs::read_dir(&dir)
            .expect("ls")
            .filter_map(|e| {
                let p = e.unwrap().path();
                p.file_name()?.to_str()?.starts_with("seg-").then_some(p)
            })
            .max()
            .expect("segments");
        {
            let mut f = OpenOptions::new()
                .append(true)
                .open(&last_seg)
                .expect("open raw");
            f.write_all(&MAGIC.to_le_bytes()).expect("write");
            f.write_all(&100u32.to_le_bytes()).expect("write");
            f.write_all(&[3, 1, 2, 3]).expect("write"); // truncated payload
        }
        // Delete the snapshot so recovery actually re-scans the tail.
        std::fs::remove_file(dir.join(SNAPSHOT_FILE)).ok();
        let store = LogStore::open_with(&dir, tiny_cfg(), Durability::Always).expect("recover");
        assert_eq!(store.chunk_count(), 10, "intact records survive");
        let chunk = Chunk::new(ChunkType::Blob, &b"after crash"[..]);
        store.put(chunk.clone());
        assert_eq!(store.get(&chunk.cid()), Some(chunk));
        drop(store);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn corrupted_record_detected() {
        let dir = temp_dir("corrupt");
        let cid0;
        {
            let store = LogStore::open_with(&dir, tiny_cfg(), Durability::Always).expect("open");
            let c = Chunk::new(ChunkType::Blob, &b"AAAA"[..]);
            cid0 = c.cid();
            store.put(c);
            for i in 0..5u32 {
                store.put(Chunk::new(ChunkType::Blob, i.to_le_bytes().to_vec()));
            }
        }
        // Flip a payload byte of the first record of the first segment.
        {
            let path = segment_path(&dir, 0);
            let mut data = std::fs::read(&path).expect("read");
            data[9] ^= 0xFF;
            std::fs::write(&path, data).expect("write");
        }
        std::fs::remove_file(dir.join(SNAPSHOT_FILE)).ok();
        let store = LogStore::open_with(&dir, tiny_cfg(), Durability::Always).expect("recover");
        // Recovery stops at the corrupt record: everything from it on is
        // discarded; the store never serves tampered bytes.
        assert_eq!(store.chunk_count(), 0);
        assert_eq!(store.get(&cid0), None);
        drop(store);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn dedup_across_reopen() {
        let dir = temp_dir("dedup");
        let chunk = Chunk::new(ChunkType::Blob, &b"dup"[..]);
        {
            let store = LogStore::open(&dir).expect("open");
            assert_eq!(store.put(chunk.clone()), PutOutcome::Stored);
        }
        let store = LogStore::open(&dir).expect("reopen");
        assert_eq!(store.put(chunk), PutOutcome::Deduplicated);
        assert_eq!(store.chunk_count(), 1);
        drop(store);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn snapshot_round_trips() {
        let dir = temp_dir("snap");
        let mut cids = Vec::new();
        {
            let store = LogStore::open_with(&dir, tiny_cfg(), Durability::Always).expect("open");
            for i in 0..30u32 {
                let c = Chunk::new(ChunkType::Blob, vec![i as u8; 150]);
                cids.push(c.cid());
                store.put(c);
            }
            store.snapshot().expect("snapshot");
        }
        let store = LogStore::open_with(&dir, tiny_cfg(), Durability::Always).expect("reopen");
        let stats = store.reopen_stats();
        assert!(stats.used_snapshot);
        assert_eq!(
            stats.snapshot_chunks + stats.replayed_chunks,
            30,
            "all chunks accounted for: {stats:?}"
        );
        for cid in &cids {
            assert!(store.get(cid).is_some());
        }
        drop(store);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn large_snapshot_streams_with_a_valid_checksum() {
        // 3000 index entries make a 144 KB snapshot, so the streaming
        // writer flushes mid-file; reopen only uses the snapshot if its
        // one-shot checksum matches the streamed one.
        let dir = temp_dir("snap-large");
        let mut cids = Vec::new();
        {
            let store = LogStore::open_with(&dir, tiny_cfg(), Durability::Os).expect("open");
            for i in 0..3000u32 {
                let c = Chunk::new(ChunkType::Blob, i.to_le_bytes().to_vec());
                cids.push(c.cid());
                store.put(c);
            }
            store.snapshot().expect("snapshot");
        }
        let store = LogStore::open_with(&dir, tiny_cfg(), Durability::Os).expect("reopen");
        let stats = store.reopen_stats();
        assert!(stats.used_snapshot, "{stats:?}");
        assert_eq!(stats.snapshot_chunks, 3000, "{stats:?}");
        for cid in &cids {
            assert!(store.get(cid).is_some());
        }
        drop(store);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn os_durability_reads_own_writes() {
        let dir = temp_dir("os");
        let store = LogStore::open_with(&dir, tiny_cfg(), Durability::Os).expect("open");
        let mut cids = Vec::new();
        for i in 0..100u32 {
            let c = Chunk::new(ChunkType::List, vec![i as u8; 64]);
            cids.push(c.cid());
            store.put(c);
        }
        // Queued chunks are readable before any flush.
        for cid in &cids {
            assert!(store.get(cid).is_some(), "read-your-writes");
        }
        store.sync().expect("sync");
        for cid in &cids {
            assert!(store.get(cid).is_some());
        }
        drop(store);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn deferred_sync_covers_segments_rotated_without_fsync() {
        // Os durability + tiny segments: the queue high-water drain
        // rotates through many segments with no fsync, leaving them
        // dirty; the explicit sync() must cover all of them before the
        // synced position (and hence the snapshot) may pass them.
        let dir = temp_dir("dirty-rot");
        let cfg = LogConfig {
            segment_bytes: 4096,
            snapshot_bytes: u64::MAX,
        };
        let store = LogStore::open_with(&dir, cfg, Durability::Os).expect("open");
        let mut cids = Vec::new();
        // ~1.6 MiB of records: crosses the 1 MiB queue high-water (one
        // inline non-sync drain over ~400 segment rotations) and leaves
        // a queued tail.
        for i in 0..400u32 {
            let c = Chunk::new(ChunkType::Blob, vec![(i % 251) as u8; 4000]);
            cids.push(c.cid());
            store.put(c);
        }
        store.sync().expect("sync covers rotated segments");
        store.snapshot().expect("snapshot");
        drop(store);
        let store = LogStore::open_with(&dir, cfg, Durability::Os).expect("reopen");
        assert!(store.reopen_stats().used_snapshot);
        for cid in &cids {
            assert!(store.get(cid).is_some(), "all records durable");
        }
        assert!(!store.poisoned());
        drop(store);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn compact_retain_drops_dead_chunks_and_reclaims_segments() {
        let dir = temp_dir("compact");
        let store = LogStore::open_with(&dir, tiny_cfg(), Durability::Always).expect("open");
        let mut live = FxHashSet::default();
        let mut dead = Vec::new();
        for i in 0..40u32 {
            let c = Chunk::new(ChunkType::Blob, vec![i as u8; 180]);
            if i % 2 == 0 {
                live.insert(c.cid());
            } else {
                dead.push(c.cid());
            }
            store.put(c);
        }
        let before = store.stats().stored_bytes;
        let report = store.compact_retain(&live).expect("compact");
        assert_eq!(report.kept_chunks, 20);
        assert_eq!(report.dropped_chunks, 20);
        assert!(report.segments_removed > 1);
        assert!(store.stats().stored_bytes < before);
        for cid in &live {
            assert!(store.get(cid).is_some(), "live chunk survives");
        }
        for cid in &dead {
            assert!(store.get(cid).is_none(), "dead chunk gone");
        }
        assert!(!store.poisoned());
        // Still appendable, and the compacted state survives reopen.
        let extra = Chunk::new(ChunkType::Blob, &b"post-compaction"[..]);
        store.put(extra.clone());
        drop(store);
        let store = LogStore::open_with(&dir, tiny_cfg(), Durability::Always).expect("reopen");
        assert_eq!(store.chunk_count(), 21);
        assert_eq!(store.get(&extra.cid()), Some(extra));
        drop(store);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn read_errors_poison_not_swallowed() {
        let dir = temp_dir("poison");
        let store = LogStore::open_with(&dir, tiny_cfg(), Durability::Always).expect("open");
        let chunk = Chunk::new(ChunkType::Blob, vec![7u8; 100]);
        store.put(chunk.clone());
        // Sabotage: delete the segment before any read handle is opened.
        std::fs::remove_file(segment_path(&dir, 0)).expect("rm");
        assert_eq!(store.get(&chunk.cid()), None, "unreadable reports absent");
        assert!(store.poisoned(), "but the failure is latched");
        assert_eq!(store.stats().io_errors, 1);
        std::fs::remove_dir_all(dir).ok();
    }
}
