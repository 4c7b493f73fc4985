//! `chain`: a block store built on `chainstore`.
//!
//! Set-up appends a chain of ~4 KB blocks in batches and checkpoints.
//! Each round appends 8 blocks to the tip, forks a 4-block side chain
//! from 10 blocks below the tip every 8th round, walks 128 headers back
//! from the tip and reads 4 bodies from the last 4000 blocks.
//!
//! The loop runs in episodes of `chain_episode_rounds` rounds. Halfway
//! through an episode all side chains are pruned, which is the only GC
//! in the benchmark: checkpoint, live-set walk, in-place compaction and
//! a cache clear; the second half reads through the cleared cache. A
//! prune rewrites every live chunk, so its cost grows with the chain; to
//! give every prune the same store size, the next episode starts from
//! the set-up chain again, rebuilt outside the measured time.

use crate::gen::{block_body, Rng};
use crate::trace::Tracer;
use crate::{op, open_engine, stats_delta, GcFigures, Op, Recorder, SetupTimes, Sizes, Workload};
use bytes::Bytes;
use chainstore::{BlockHeader, BlockId, ChainStore, PruneReport};
use forkbase_chunk::StoreStats;
use forkbase_core::{gc, FbError, ForkBase, GcReport};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The key `chainstore` keeps its block DAG under.
const BLOCKS_KEY: &str = "chain/blocks";
const APPEND: usize = 8;
const FORK_EVERY: u64 = 8;
const FORK_LEN: usize = 4;
const FORK_DEPTH: usize = 10;
const WALK: usize = 128;
const BODY_READS: usize = 4;
const READ_WINDOW: u64 = 4000;
const SETUP_BATCH: u64 = 100;

fn meta(height: u64) -> Bytes {
    Bytes::from(format!("h{height}"))
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

pub struct Chain {
    chain: ChainStore,
    /// This episode's store directory; episodes after the first live
    /// next to the set-up directory `first_dir`.
    dir: PathBuf,
    first_dir: PathBuf,
    setup_blocks: u64,
    episode: u64,
    /// Store directory bytes and logical bytes at the episode start.
    episode_start: (u64, u64),
    /// Directory growth and logical bytes summed over pruned episodes.
    space: (u64, u64),
    /// Store counters at this episode's start, and the counter growth
    /// of the episodes before it.
    stats_start: StoreStats,
    stats_done: StoreStats,
    seed: u64,
    rng: Rng,
    /// Shadow model: the main chain, genesis first, as (id, body number).
    main: Vec<(BlockId, u64)>,
    next_body: u64,
    /// Side-chain tips since the last prune.
    side_tips: Vec<BlockId>,
    round: u64,
    episode_rounds: u64,
    user_bytes: u64,
    gc: GcFigures,
}

impl Chain {
    fn bodies(&mut self, heights: std::ops::Range<u64>) -> (Vec<(Vec<u8>, Bytes)>, u64) {
        let mut bytes = 0;
        let blocks = heights
            .map(|h| {
                let body = block_body(self.seed, self.next_body);
                self.next_body += 1;
                bytes += body.len() as u64;
                (body, meta(h))
            })
            .collect();
        (blocks, bytes)
    }

    fn append(
        &mut self,
        tr: Option<&Tracer>,
        kind: Op,
        parent_height: u64,
        n: usize,
        rec: &mut Recorder,
    ) -> Option<Vec<BlockId>> {
        let parent = self.main[parent_height as usize].0;
        let first_body = self.next_body;
        let (blocks, bytes) = self.bodies(parent_height + 1..parent_height + 1 + n as u64);
        let chain = &self.chain;
        let before = tr.map(|_| chain.db().store().stats());
        let (ids, ns) = op(tr, kind, || match tr {
            None => chain.append_batch(Some(parent), blocks),
            Some(t) => t.span("chainstore.append", || {
                chain.append_batch(Some(parent), blocks)
            }),
        });
        if let Some(before) = before {
            rec.add_write_stats(&before, &chain.db().store().stats());
        }
        match ids {
            Ok(ids) if ids.len() == n => {
                rec.ok(kind, ns);
                self.user_bytes += bytes;
                if kind == Op::Write {
                    self.main.extend(ids.iter().copied().zip(first_body..));
                }
                Some(ids)
            }
            Ok(ids) => {
                rec.fail(kind, format!("appended {} of {n} blocks", ids.len()));
                None
            }
            Err(e) => {
                rec.fail(kind, e.to_string());
                None
            }
        }
    }

    fn check_walk(&self, headers: &[BlockHeader]) -> Result<(), String> {
        let len = self.main.len();
        if headers.len() != len.min(WALK) {
            return Err(format!("walk returned {} headers", headers.len()));
        }
        for (i, h) in headers.iter().enumerate() {
            let height = len - 1 - i;
            let (id, body) = self.main[height];
            let parent = height.checked_sub(1).map(|p| self.main[p].0);
            let body_len = block_body(self.seed, body).len() as u64;
            if h.id != id || h.parent != parent || h.height != height as u64 {
                return Err(format!("walk: wrong header at height {height}"));
            }
            if h.meta != meta(height as u64) || h.body_len != body_len {
                return Err(format!("walk: wrong metadata at height {height}"));
            }
        }
        Ok(())
    }

    /// `prune_side_chains(&[tip])` split into its public steps.
    fn prune_traced(&self, t: &Tracer, tip: BlockId) -> forkbase_core::Result<PruneReport> {
        let db = self.chain.db();
        let doomed: Vec<BlockId> = self
            .chain
            .tips()
            .into_iter()
            .filter(|&x| x != tip)
            .collect();
        if doomed.is_empty() {
            return Ok(PruneReport::default());
        }
        let tips_retired = t.span("core.retire", || {
            db.retire_untagged_heads(BLOCKS_KEY, &doomed)
        })?;
        let log = db
            .durable_store()
            .ok_or_else(|| FbError::Io("not a durable instance".into()))?;
        let checkpoint = t.span("chunk.sync", || db.commit_checkpoint())?;
        let (mut live, live_versions) = t.span("core.gc_walk", || gc::live_set(db))?;
        live.insert(checkpoint);
        let stats = t.span("chunk.compact", || log.compact_retain(&live))?;
        t.span("chunk.cache_clear", || {
            if let Some(cache) = db.chunk_cache() {
                cache.clear();
            }
        });
        let gc = GcReport {
            live_versions,
            live_chunks: stats.kept_chunks,
            live_bytes: stats.kept_bytes,
            dropped_chunks: stats.dropped_chunks,
            dropped_bytes: stats.dropped_bytes,
        };
        Ok(PruneReport {
            tips_retired,
            gc: Some(gc),
        })
    }

    fn prune(&mut self, tr: Option<&Tracer>, rec: &mut Recorder) {
        let tip = self.main.last().expect("chain has a genesis").0;
        let (report, ns) = op(tr, Op::Aux, || match tr {
            None => self.chain.prune_side_chains(&[tip]),
            Some(t) => self.prune_traced(t, tip),
        });
        let checked = report.map_err(err).and_then(|r| {
            if r.tips_retired != self.side_tips.len() || self.chain.tips() != vec![tip] {
                return Err(format!(
                    "prune retired {} of {}",
                    r.tips_retired,
                    self.side_tips.len()
                ));
            }
            let gc = r.gc.ok_or("prune ran no GC")?;
            self.gc.prunes += 1;
            self.gc.live_versions += gc.live_versions as u64;
            self.gc.compact_bytes += gc.live_bytes;
            Ok(())
        });
        rec.check(Op::Aux, ns, checked);
        self.side_tips.clear();
        let (dir0, user0) = self.episode_start;
        self.space.0 += crate::dir_bytes(&self.dir).saturating_sub(dir0);
        self.space.1 += self.user_bytes - user0;
    }

    /// Start the next episode from a freshly built set-up chain. The
    /// rebuild is excluded from the measured time.
    fn restart(&mut self, rec: &mut Recorder) {
        let t0 = Instant::now();
        let episode = self.episode + 1;
        let mut name = self
            .first_dir
            .file_name()
            .unwrap_or_default()
            .to_os_string();
        name.push(format!("-episode{episode}"));
        let dir = self.first_dir.with_file_name(name);
        let _ = std::fs::remove_dir_all(&dir);
        match Chain::build(self.seed, self.setup_blocks, self.episode_rounds, &dir) {
            Ok((mut fresh, _)) => {
                fresh.episode = episode;
                fresh.first_dir = self.first_dir.clone();
                fresh.rng = self.rng.clone();
                fresh.round = self.round;
                fresh.gc = self.gc;
                fresh.space = self.space;
                fresh.stats_done = self.store_stats();
                fresh.user_bytes = self.user_bytes;
                fresh.episode_start = (crate::dir_bytes(&dir), self.user_bytes);
                let old = std::mem::replace(self, fresh);
                let old_dir = old.dir.clone();
                drop(old);
                let _ = std::fs::remove_dir_all(old_dir);
            }
            Err(e) => rec.fail(Op::Aux, format!("episode restart: {e}")),
        }
        rec.unmeasured += t0.elapsed();
    }

    fn build(
        seed: u64,
        setup_blocks: u64,
        episode_rounds: u64,
        dir: &Path,
    ) -> forkbase_core::Result<(Self, SetupTimes)> {
        let t0 = Instant::now();
        let mut chain = Chain {
            chain: ChainStore::from_db(open_engine(dir)?),
            dir: dir.to_path_buf(),
            first_dir: dir.to_path_buf(),
            setup_blocks,
            episode: 0,
            episode_start: (0, 0),
            space: (0, 0),
            stats_start: StoreStats::default(),
            stats_done: StoreStats::default(),
            seed,
            rng: Rng::new(seed, 0xC4A1),
            main: Vec::new(),
            next_body: 0,
            side_tips: Vec::new(),
            round: 0,
            episode_rounds,
            user_bytes: 0,
            gc: GcFigures::default(),
        };
        let mut height = 0;
        while height < setup_blocks {
            let n = SETUP_BATCH.min(setup_blocks - height);
            let parent = chain.main.last().map(|b| b.0);
            let first_body = chain.next_body;
            let (blocks, bytes) = chain.bodies(height..height + n);
            let ids = chain.chain.append_batch(parent, blocks)?;
            if ids.len() as u64 != n {
                return Err(FbError::Corrupt("set-up append lost blocks".into()));
            }
            chain.main.extend(ids.into_iter().zip(first_body..));
            chain.user_bytes += bytes;
            height += n;
        }
        let t_ckpt = Instant::now();
        chain.chain.checkpoint()?;
        let times = SetupTimes {
            total: t0.elapsed(),
            checkpoint: t_ckpt.elapsed(),
            reopen: None,
        };
        chain.episode_start = (crate::dir_bytes(dir), chain.user_bytes);
        chain.stats_start = chain.db().store().stats();
        Ok((chain, times))
    }
}

impl Workload for Chain {
    const SETUP_REPEATS: usize = 9;

    fn setup(seed: u64, sizes: &Sizes, dir: &Path) -> forkbase_core::Result<(Self, SetupTimes)> {
        Chain::build(
            seed,
            sizes.chain_setup_blocks,
            sizes.chain_episode_rounds,
            dir,
        )
    }

    fn step(&mut self, tr: Option<&Tracer>, rec: &mut Recorder) {
        let tip_height = self.main.len() as u64 - 1;
        self.append(tr, Op::Write, tip_height, APPEND, rec);

        if self.round.is_multiple_of(FORK_EVERY) && self.main.len() > FORK_DEPTH {
            let from = self.main.len() as u64 - 1 - FORK_DEPTH as u64;
            if let Some(ids) = self.append(tr, Op::Fork, from, FORK_LEN, rec) {
                self.side_tips.push(*ids.last().expect("non-empty fork"));
            }
        }

        let tip = self.main.last().expect("chain has a genesis").0;
        let chain = &self.chain;
        let (walk, ns) = op(tr, Op::History, || match tr {
            None => chain.follow_parents(tip, WALK),
            Some(t) => t.span("chainstore.walk", || chain.follow_parents(tip, WALK)),
        });
        let checked = walk.map_err(err).and_then(|h| self.check_walk(&h));
        rec.check(Op::History, ns, checked);

        let len = self.main.len() as u64;
        for _ in 0..BODY_READS {
            let height = len - 1 - self.rng.below(len.min(READ_WINDOW));
            let (id, body) = self.main[height as usize];
            let (got, ns) = op(tr, Op::Read, || match tr {
                None => chain.body(id),
                Some(t) => t.span("chainstore.body", || chain.body(id)),
            });
            let checked = got
                .map_err(err)
                .and_then(|b| match b == block_body(self.seed, body) {
                    true => Ok(()),
                    false => Err(format!("body at height {height} differs")),
                });
            rec.check(Op::Read, ns, checked);
        }

        self.round += 1;
        let into_episode = self.round % self.episode_rounds;
        if into_episode == self.episode_rounds / 2 {
            self.prune(tr, rec);
        } else if into_episode == 0 {
            self.restart(rec);
        }
    }

    fn db(&self) -> &ForkBase {
        self.chain.db()
    }

    fn user_bytes(&self) -> u64 {
        self.user_bytes
    }

    fn gc_figures(&self) -> GcFigures {
        self.gc
    }

    fn store_stats(&self) -> StoreStats {
        let mut total = self.stats_done;
        total.merge(&stats_delta(&self.db().store().stats(), &self.stats_start));
        total
    }

    fn bytes_per_user_byte(&self) -> Option<f64> {
        let (growth, user) = self.space;
        (user > 0).then(|| growth as f64 / user as f64)
    }
}
