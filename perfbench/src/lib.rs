//! End-to-end and per-layer benchmark of ForkBase.
//!
//! Three closed-loop workloads with one client each run against durable
//! engines opened with the repository defaults (see `README.md` next to
//! this package): `ledger` (account state), `wiki` (versioned pages
//! larger than the cache) and `chain` (a block store with pruning).
//! Every result is checked against a shadow model kept by the
//! benchmark. An untraced run reports end-to-end metrics; a traced run
//! reports per-layer metrics measured from spans around the calls into
//! each module (see [`trace`]).

pub mod chain;
pub mod gen;
pub mod ledger;
pub mod trace;
pub mod wiki;

use forkbase_chunk::{CacheConfig, Durability, StoreStats};
use forkbase_core::{BranchSnapshot, ForkBase, HotTierConfig};
use forkbase_crypto::ChunkerConfig;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Tracer;

/// Open a durable engine with the repository defaults: group commit
/// every 512 records or 10 ms, a 64 MiB chunk cache, the default
/// chunker and the hot tier off.
pub fn open_engine(dir: &Path) -> forkbase_core::Result<ForkBase> {
    ForkBase::open_with(
        dir,
        ChunkerConfig::default(),
        Durability::default(),
        CacheConfig::default(),
        HotTierConfig::default(),
    )
}

/// Input sizes. [`Sizes::full`] is the benchmark; tests shrink it.
#[derive(Clone, Debug)]
pub struct Sizes {
    pub ledger_accounts: u64,
    pub ledger_warmup_blocks: u64,
    pub wiki_pages: u64,
    pub wiki_page_bytes: usize,
    pub wiki_setup_revisions: u64,
    pub chain_setup_blocks: u64,
    pub chain_episode_rounds: u64,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            ledger_accounts: 300_000,
            ledger_warmup_blocks: 200,
            wiki_pages: 2000,
            wiki_page_bytes: 16 << 10,
            wiki_setup_revisions: 8,
            chain_setup_blocks: 4000,
            chain_episode_rounds: 1024,
        }
    }

    pub fn tiny() -> Sizes {
        Sizes {
            ledger_accounts: 3000,
            ledger_warmup_blocks: 20,
            wiki_pages: 40,
            wiki_page_bytes: 16 << 10,
            wiki_setup_revisions: 8,
            chain_setup_blocks: 300,
            chain_episode_rounds: 16,
        }
    }
}

/// How long the measured loop runs.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    Time(Duration),
    Steps(u64),
}

/// Op types; each has its own latency samples and, when traced, its
/// own residual.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// ledger: account read; wiki: latest-page read; chain: body read.
    Read,
    /// ledger: block commit; wiki: page edit; chain: 8-block append.
    Write,
    /// ledger: as-of read; wiki: read k revisions back; chain: 128-header walk.
    History,
    /// ledger: 64-account scan; wiki: diff against k back; chain: prune.
    Aux,
    /// chain only: a 4-block side-chain append.
    Fork,
}

pub const OPS: [Op; 5] = [Op::Read, Op::Write, Op::History, Op::Aux, Op::Fork];

impl Op {
    pub fn name(self) -> &'static str {
        match self {
            Op::Read => "read",
            Op::Write => "write",
            Op::History => "history",
            Op::Aux => "aux",
            Op::Fork => "fork",
        }
    }
}

/// Per-run op outcomes and latency samples.
#[derive(Default)]
pub struct Recorder {
    pub attempted: u64,
    pub failed: u64,
    samples: [Vec<f64>; 5],
    first_failures: Vec<String>,
    /// Store counter deltas summed over write ops (traced runs only).
    pub write_stats: StoreStats,
    /// Time spent inside steps that is not part of any op and is
    /// excluded from the measured time (the chain's episode rebuilds).
    pub unmeasured: Duration,
}

impl Recorder {
    /// Record one completed op with its latency.
    pub fn ok(&mut self, op: Op, ns: u64) {
        self.attempted += 1;
        self.samples[op as usize].push(ns as f64 / 1e3);
    }

    /// Record one op that errored or returned a wrong result.
    pub fn fail(&mut self, op: Op, why: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        if self.first_failures.len() < 5 {
            self.first_failures
                .push(format!("{}: {}", op.name(), why.into()));
        }
    }

    /// Record an op from its checked outcome.
    pub fn check(&mut self, op: Op, ns: u64, outcome: Result<(), String>) {
        match outcome {
            Ok(()) => self.ok(op, ns),
            Err(why) => self.fail(op, why),
        }
    }

    pub fn samples(&self, op: Op) -> &[f64] {
        &self.samples[op as usize]
    }

    fn sample_counts(&self) -> [usize; 5] {
        self.samples.each_ref().map(Vec::len)
    }

    pub fn failures(&self) -> &[String] {
        &self.first_failures
    }

    /// Add the store counter movement of one write op.
    pub fn add_write_stats(&mut self, before: &StoreStats, after: &StoreStats) {
        let w = &mut self.write_stats;
        w.puts += after.puts - before.puts;
        w.dedup_hits += after.dedup_hits - before.dedup_hits;
        w.dedup_bytes += after.dedup_bytes - before.dedup_bytes;
        w.stored_bytes += after.stored_bytes.saturating_sub(before.stored_bytes);
    }
}

/// Times measured during one set-up.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub total: Duration,
    pub checkpoint: Duration,
    pub reopen: Option<Duration>,
}

/// One workload: built from the seed by `setup`, driven one step at a
/// time (a block, a page op, a chain round) by the harness.
pub trait Workload: Sized {
    /// Set-ups per untraced run; `setup_s` is their median. Shorter
    /// set-ups are repeated more, so each run's median spans similar
    /// time.
    const SETUP_REPEATS: usize = 3;
    fn setup(seed: u64, sizes: &Sizes, dir: &Path) -> forkbase_core::Result<(Self, SetupTimes)>;
    /// One step; traced when `tracer` is given. Results are checked
    /// against the shadow model and recorded in `rec`.
    fn step(&mut self, tracer: Option<&Tracer>, rec: &mut Recorder);
    fn db(&self) -> &ForkBase;
    /// Logical bytes the measured loop has written so far.
    fn user_bytes(&self) -> u64;
    /// Per-prune GC figures (chain only).
    fn gc_figures(&self) -> GcFigures {
        GcFigures::default()
    }
    /// Store bytes per logical byte, when the workload measures it
    /// itself rather than as the directory growth over the loop.
    fn bytes_per_user_byte(&self) -> Option<f64> {
        None
    }
    /// Store counters that only grow during the loop, also across an
    /// engine the workload replaces.
    fn store_stats(&self) -> StoreStats {
        self.db().store().stats()
    }
}

/// `after - before` of the counters a loop reports.
pub fn stats_delta(after: &StoreStats, before: &StoreStats) -> StoreStats {
    StoreStats {
        cache_hits: after.cache_hits - before.cache_hits,
        cache_misses: after.cache_misses - before.cache_misses,
        cache_evictions: after.cache_evictions - before.cache_evictions,
        ..StoreStats::default()
    }
}

/// Sums over the prunes a traced chain loop made.
#[derive(Clone, Copy, Debug, Default)]
pub struct GcFigures {
    pub prunes: u64,
    pub live_versions: u64,
    pub compact_bytes: u64,
}

/// One metric of the result line.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value was computed from.
    pub samples: u64,
}

/// What one run measured and checked.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// No failed op, and (traced runs) the traced final state equals
    /// the untraced one.
    pub correct: bool,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
    /// Branch heads after each measured loop, in run order.
    pub final_heads: Vec<BranchSnapshot>,
    pub violations: u64,
}

/// The `q`-quantile of `xs` by nearest rank.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1;
    v[idx]
}

/// Median of `xs` (the mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Bytes of all files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Peak resident set size of this process (VmHWM) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fixed CPU loop, timed: a diagnostic of host speed drift. It is
/// reported as `host.ref_ms` and never used to scale any metric.
pub fn host_ref_ms() -> f64 {
    let t0 = Instant::now();
    let mut x = 0x1234_5678_9ABC_DEF0u64;
    let mut acc = 0u64;
    for i in 0..20_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x.wrapping_mul(i | 1));
    }
    std::hint::black_box(acc);
    t0.elapsed().as_secs_f64() * 1e3
}

/// End-to-end metrics are computed per window of measured time and
/// reported as the median over the windows, so a burst of load from
/// elsewhere on the host that spans a window or two does not move them.
const WINDOW: Duration = Duration::from_secs(5);

/// A window boundary: measured time, and how many latency samples of
/// each op type had been recorded by then.
#[derive(Clone, Copy, Debug)]
struct Cut {
    at: Duration,
    samples: [usize; 5],
}

struct LoopOutcome {
    steps: u64,
    cuts: Vec<Cut>,
    /// Measured time: the loop's wall time minus unmeasured work.
    wall: Duration,
    bytes_per_user_byte: f64,
    /// Store directory size at the loop's start and end, in bytes.
    dir_bytes: (u64, u64),
    stats_before: StoreStats,
    stats_after: StoreStats,
}

fn run_loop<W: Workload>(
    w: &mut W,
    dir: &Path,
    budget: Budget,
    tracer: Option<&Tracer>,
    rec: &mut Recorder,
) -> LoopOutcome {
    let stats_before = w.store_stats();
    let dir0 = dir_bytes(dir);
    let user0 = w.user_bytes();
    let unmeasured0 = rec.unmeasured;
    let t0 = Instant::now();
    let measured = |rec: &Recorder| t0.elapsed().saturating_sub(rec.unmeasured - unmeasured0);
    let mut steps = 0u64;
    let mut cuts = vec![Cut {
        at: Duration::ZERO,
        samples: rec.sample_counts(),
    }];
    loop {
        let now = measured(rec);
        let more = match budget {
            Budget::Time(d) => now < d,
            Budget::Steps(n) => steps < n,
        };
        if !more {
            break;
        }
        if now >= WINDOW * cuts.len() as u32 {
            cuts.push(Cut {
                at: now,
                samples: rec.sample_counts(),
            });
        }
        w.step(tracer, rec);
        steps += 1;
    }
    let wall = measured(rec);
    cuts.push(Cut {
        at: wall,
        samples: rec.sample_counts(),
    });
    let stats_after = w.store_stats();
    if let Some(log) = w.db().durable_store() {
        if let Err(e) = log.sync() {
            rec.fail(Op::Write, format!("final sync: {e}"));
        }
    }
    let dir1 = dir_bytes(dir);
    let growth = dir1.saturating_sub(dir0);
    let bytes_per_user_byte = w
        .bytes_per_user_byte()
        .unwrap_or(growth as f64 / (w.user_bytes() - user0).max(1) as f64);
    LoopOutcome {
        steps,
        cuts,
        wall,
        bytes_per_user_byte,
        dir_bytes: (dir0, dir1),
        stats_before,
        stats_after,
    }
}

fn fresh_dir(base: &Path, name: &str) -> PathBuf {
    let d = base.join(name);
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Run one workload. `base` is a scratch directory the run owns; it is
/// removed before returning.
pub fn run<W: Workload>(
    seed: u64,
    sizes: &Sizes,
    budget: Budget,
    traced: bool,
    base: &Path,
) -> Report {
    let ref_before = host_ref_ms();
    let mut rec = Recorder::default();
    let mut notes = Vec::new();
    let report = if traced {
        run_traced::<W>(seed, sizes, budget, base, &mut rec, &mut notes)
    } else {
        run_plain::<W>(seed, sizes, budget, base, &mut rec, &mut notes)
    };
    let _ = std::fs::remove_dir_all(base);
    let ref_after = host_ref_ms();
    notes.push(format!(
        "host.ref_ms before {ref_before:.1} after {ref_after:.1}"
    ));
    let (mut metrics, final_heads, violations, heads_equal) = match report {
        Ok(r) => r,
        Err(e) => {
            rec.fail(Op::Write, format!("set-up: {e}"));
            (Vec::new(), Vec::new(), 0, false)
        }
    };
    if traced {
        metrics.push(Metric {
            name: "host.ref_ms",
            value: (ref_before + ref_after) / 2.0,
            unit: "ms",
            samples: 2,
        });
    }
    for f in rec.failures() {
        notes.push(format!("failure: {f}"));
    }
    Report {
        attempted: rec.attempted.max(1),
        failed: rec.failed,
        correct: rec.failed == 0 && heads_equal && violations == 0,
        metrics,
        notes,
        final_heads,
        violations,
    }
}

type RunOut = forkbase_core::Result<(Vec<Metric>, Vec<BranchSnapshot>, u64, bool)>;

fn run_plain<W: Workload>(
    seed: u64,
    sizes: &Sizes,
    budget: Budget,
    base: &Path,
    rec: &mut Recorder,
    notes: &mut Vec<String>,
) -> RunOut {
    let mut setup_s = Vec::new();
    let mut kept = None;
    for i in 0..W::SETUP_REPEATS {
        // Close the previous set-up first, so only one engine is open.
        if let Some((old, old_dir)) = kept.take() {
            drop::<W>(old);
            let _ = std::fs::remove_dir_all(old_dir);
        }
        let dir = fresh_dir(base, &format!("setup{i}"));
        let (w, times) = W::setup(seed, sizes, &dir)?;
        setup_s.push(times.total.as_secs_f64());
        kept = Some((w, dir));
    }
    let (mut w, dir) = kept.expect("at least one set-up");
    let out = run_loop(&mut w, &dir, budget, None, rec);
    // Per window: (ops completed / window time, op samples in it).
    let windows: Vec<(f64, Vec<&[f64]>)> = out
        .cuts
        .windows(2)
        .map(|c| {
            let slices: Vec<&[f64]> = OPS
                .iter()
                .map(|&op| &rec.samples(op)[c[0].samples[op as usize]..c[1].samples[op as usize]])
                .collect();
            let ops: usize = slices.iter().map(|s| s.len()).sum();
            let secs = (c[1].at - c[0].at).as_secs_f64();
            (ops as f64 / secs.max(1e-9), slices)
        })
        .collect();
    let rates: Vec<f64> = windows.iter().map(|(r, _)| *r).collect();
    notes.push(format!(
        "setup_s samples {:?}; {} steps in {:.3} s; ops/s per {}-s window {:?}; \
         store {:.1} MB before the loop, {:.1} MB after",
        setup_s,
        out.steps,
        out.wall.as_secs_f64(),
        WINDOW.as_secs(),
        rates.iter().map(|r| r.round()).collect::<Vec<_>>(),
        out.dir_bytes.0 as f64 / 1e6,
        out.dir_bytes.1 as f64 / 1e6,
    ));
    let n = |op: Op| rec.samples(op).len() as u64;
    // The median over windows of each window's `q`-quantile.
    let p = |op: Op, q: f64| {
        let per_window: Vec<f64> = windows
            .iter()
            .map(|(_, slices)| slices[op as usize])
            .filter(|s| !s.is_empty())
            .map(|s| quantile(s, q))
            .collect();
        median(&per_window)
    };
    let ops: u64 = OPS.iter().map(|&op| n(op)).sum();
    let metrics = vec![
        Metric {
            name: "setup_s",
            value: median(&setup_s),
            unit: "s",
            samples: setup_s.len() as u64,
        },
        Metric {
            name: "ops_per_s",
            value: median(&rates),
            unit: "1/s",
            samples: ops,
        },
        Metric {
            name: "read_p50_us",
            value: p(Op::Read, 0.5),
            unit: "us",
            samples: n(Op::Read),
        },
        Metric {
            name: "read_p95_us",
            value: p(Op::Read, 0.95),
            unit: "us",
            samples: n(Op::Read),
        },
        Metric {
            name: "write_p50_us",
            value: p(Op::Write, 0.5),
            unit: "us",
            samples: n(Op::Write),
        },
        Metric {
            name: "write_p95_us",
            value: p(Op::Write, 0.95),
            unit: "us",
            samples: n(Op::Write),
        },
        Metric {
            name: "history_p50_us",
            value: p(Op::History, 0.5),
            unit: "us",
            samples: n(Op::History),
        },
        Metric {
            name: "aux_p50_us",
            value: p(Op::Aux, 0.5),
            unit: "us",
            samples: n(Op::Aux),
        },
        Metric {
            name: "bytes_per_user_byte",
            value: out.bytes_per_user_byte,
            unit: "ratio",
            samples: 1,
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb(),
            unit: "MB",
            samples: 1,
        },
    ];
    let heads = w.db().snapshot_branches();
    Ok((metrics, vec![heads], 0, true))
}

fn run_traced<W: Workload>(
    seed: u64,
    sizes: &Sizes,
    budget: Budget,
    base: &Path,
    rec: &mut Recorder,
    notes: &mut Vec<String>,
) -> RunOut {
    // Phase 1: untraced, for half the budget when it is a time.
    let half = match budget {
        Budget::Time(d) => Budget::Time(d / 2),
        steps => steps,
    };
    let dir = fresh_dir(base, "plain");
    let (mut w, _) = W::setup(seed, sizes, &dir)?;
    let plain_out = run_loop(&mut w, &dir, half, None, rec);
    let plain_ops = rec.attempted;
    let plain_heads = w.db().snapshot_branches();
    drop(w);
    let _ = std::fs::remove_dir_all(&dir);

    // Phase 2: traced, the same steps from the same seed.
    let tracer = Tracer::default();
    let dir = fresh_dir(base, "traced");
    let (mut w, times) = W::setup(seed, sizes, &dir)?;
    tracer.record("chunk.sync", times.checkpoint.as_nanos() as u64);
    if let Some(r) = times.reopen {
        tracer.record("chunk.reopen", r.as_nanos() as u64);
    }
    let out = run_loop(
        &mut w,
        &dir,
        Budget::Steps(plain_out.steps),
        Some(&tracer),
        rec,
    );
    let traced_ops = rec.attempted - plain_ops;
    let traced_heads = w.db().snapshot_branches();
    let heads_equal = traced_heads == plain_heads;
    if !heads_equal {
        notes.push("traced final heads differ from untraced".into());
    }
    let overhead = (traced_ops as f64 / out.wall.as_secs_f64())
        / (plain_ops as f64 / plain_out.wall.as_secs_f64());
    notes.push(format!(
        "{} steps: untraced {:.3} s, traced {:.3} s; span violations {}",
        out.steps,
        plain_out.wall.as_secs_f64(),
        out.wall.as_secs_f64(),
        tracer.violations()
    ));
    let metrics = layer_metrics(&tracer, &out, rec, w.gc_figures(), overhead);
    let violations = tracer.violations();
    Ok((
        metrics,
        vec![plain_heads, traced_heads],
        violations,
        heads_equal,
    ))
}

fn layer_metrics(
    tr: &Tracer,
    out: &LoopOutcome,
    rec: &Recorder,
    gc: GcFigures,
    overhead: f64,
) -> Vec<Metric> {
    let span = |name: &'static str, metric: &'static str| {
        let a = tr.span_acc(name);
        Metric {
            name: metric,
            value: a.mean_us(),
            unit: "us",
            samples: a.n,
        }
    };
    let span_ms = |name: &'static str, metric: &'static str| {
        let a = tr.span_acc(name);
        Metric {
            name: metric,
            value: a.mean_us() / 1e3,
            unit: "ms",
            samples: a.n,
        }
    };
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let seek = tr.span_acc("pos.seek");
    let lp = stats_delta(&out.stats_after, &out.stats_before);
    let (hits, misses) = (lp.cache_hits, lp.cache_misses);
    let writes = tr.op_acc("write").n + tr.op_acc("fork").n;
    let ws = &rec.write_stats;
    let mut m = vec![
        span("pos.seek", "pos.seek_us"),
        span("pos.scan", "pos.scan_us"),
        span("pos.splice", "pos.splice_us"),
        span("pos.read", "pos.read_us"),
        span("pos.diff", "pos.diff_us"),
        Metric {
            name: "pos.chunks_per_read",
            value: ratio(seek.chunks, seek.n),
            unit: "count",
            samples: seek.n,
        },
        Metric {
            name: "chunk.get_us",
            value: tr.chunk_get_us(),
            unit: "us",
            samples: tr.tap.get_calls.load(std::sync::atomic::Ordering::Relaxed),
        },
        Metric {
            name: "chunk.cache_hit_ratio",
            value: ratio(hits, hits + misses),
            unit: "ratio",
            samples: hits + misses,
        },
        Metric {
            name: "chunk.cache_evictions",
            value: lp.cache_evictions as f64,
            unit: "count",
            samples: 1,
        },
        Metric {
            name: "chunk.put_us",
            value: tr.chunk_put_us(),
            unit: "us",
            samples: tr.tap.put_calls.load(std::sync::atomic::Ordering::Relaxed),
        },
        Metric {
            name: "chunk.bytes_put_per_write",
            value: ratio(ws.stored_bytes, writes),
            unit: "bytes",
            samples: writes,
        },
        Metric {
            name: "chunk.dedup_ratio",
            value: ratio(ws.dedup_hits, ws.puts),
            unit: "ratio",
            samples: ws.puts,
        },
        span_ms("chunk.sync", "chunk.sync_ms"),
        span_ms("chunk.compact", "chunk.compact_ms"),
        Metric {
            name: "chunk.compact_mb",
            value: ratio(gc.compact_bytes, gc.prunes) / (1u64 << 20) as f64,
            unit: "MB",
            samples: gc.prunes,
        },
        span_ms("chunk.reopen", "chunk.reopen_ms"),
        span("core.read", "core.read_us"),
        span("core.commit", "core.commit_us"),
        span("core.track", "core.track_us"),
        span_ms("core.gc_walk", "core.gc_walk_ms"),
        Metric {
            name: "core.live_versions",
            value: ratio(gc.live_versions, gc.prunes),
            unit: "count",
            samples: gc.prunes,
        },
        Metric {
            name: "crypto.hashed_bytes_per_write",
            value: ratio(ws.stored_bytes + ws.dedup_bytes, writes),
            unit: "bytes",
            samples: writes,
        },
        span("chainstore.append", "chainstore.append_us"),
        span("chainstore.walk", "chainstore.walk_us"),
        span("chainstore.body", "chainstore.body_us"),
    ];
    for (op, name) in [
        (Op::Read, "read.residual_us"),
        (Op::Write, "write.residual_us"),
        (Op::History, "history.residual_us"),
        (Op::Aux, "aux.residual_us"),
        (Op::Fork, "fork.residual_us"),
    ] {
        let acc = tr.op_acc(op.name());
        m.push(Metric {
            name,
            value: acc.residual_us(),
            unit: "us",
            samples: acc.n,
        });
    }
    m.push(Metric {
        name: "trace.overhead",
        value: overhead,
        unit: "ratio",
        samples: 2,
    });
    m
}

/// Time `f` in nanoseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_nanos() as u64)
}

/// Run `f` as one op: traced through `tracer` when given (its spans
/// are recorded inside), plainly timed otherwise. Returns the result
/// and the op's wall time in nanoseconds.
pub fn op<R>(tracer: Option<&Tracer>, op: Op, f: impl FnOnce() -> R) -> (R, u64) {
    match tracer {
        Some(t) => {
            t.begin();
            let out = f();
            (out, t.end(op.name()))
        }
        None => timed(f),
    }
}
