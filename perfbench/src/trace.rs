//! Outside-in tracing: spans recorded from the benchmark's own code
//! around its calls into each module's public functions.
//!
//! * A [`TimedStore`] borrows the engine's chunk store and is passed as
//!   the `store` argument of `pos` and `core` calls, so every chunk
//!   fetch and write they make is timed and counted at the chunk layer.
//! * [`Tracer::span`] times one call into a layer. Its self time is the
//!   span minus the chunk time measured inside it.
//! * [`Tracer::begin`]/[`Tracer::end`] bracket one benchmark op; the
//!   op's residual is its wall time minus the time of all its spans.
//!
//! Spans are aggregated in memory (sum and count per span name and per
//! op type) and reported when the run ends.

use forkbase_chunk::{Chunk, ChunkStore, PutOutcome, StoreStats};
use forkbase_crypto::Digest;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// Chunk-layer counters filled by [`TimedStore`].
#[derive(Default)]
pub struct Tap {
    pub get_ns: AtomicU64,
    pub get_calls: AtomicU64,
    pub chunks_got: AtomicU64,
    pub put_ns: AtomicU64,
    pub put_calls: AtomicU64,
}

impl Tap {
    fn busy_ns(&self) -> u64 {
        self.get_ns.load(Relaxed) + self.put_ns.load(Relaxed)
    }
}

/// A borrowing [`ChunkStore`] that times every call into the store it
/// wraps. Results are passed through unchanged.
pub struct TimedStore<'a> {
    inner: &'a dyn ChunkStore,
    tap: &'a Tap,
}

impl TimedStore<'_> {
    fn timed<R>(&self, ns: &AtomicU64, calls: &AtomicU64, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        ns.fetch_add(t0.elapsed().as_nanos() as u64, Relaxed);
        calls.fetch_add(1, Relaxed);
        out
    }
}

impl ChunkStore for TimedStore<'_> {
    fn get(&self, cid: &Digest) -> Option<Chunk> {
        self.tap.chunks_got.fetch_add(1, Relaxed);
        self.timed(&self.tap.get_ns, &self.tap.get_calls, || {
            self.inner.get(cid)
        })
    }

    fn get_many(&self, cids: &[Digest]) -> Vec<Option<Chunk>> {
        self.tap.chunks_got.fetch_add(cids.len() as u64, Relaxed);
        self.timed(&self.tap.get_ns, &self.tap.get_calls, || {
            self.inner.get_many(cids)
        })
    }

    fn put(&self, chunk: Chunk) -> PutOutcome {
        self.timed(&self.tap.put_ns, &self.tap.put_calls, || {
            self.inner.put(chunk)
        })
    }

    fn put_many(&self, chunks: Vec<Chunk>) -> Vec<PutOutcome> {
        self.timed(&self.tap.put_ns, &self.tap.put_calls, || {
            self.inner.put_many(chunks)
        })
    }

    fn contains(&self, cid: &Digest) -> bool {
        self.timed(&self.tap.get_ns, &self.tap.get_calls, || {
            self.inner.contains(cid)
        })
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }
}

/// Sum and count of one span name (or one op type).
#[derive(Clone, Copy, Debug, Default)]
pub struct Acc {
    pub ns: u64,
    pub n: u64,
    /// Chunks fetched through the tap inside the span.
    pub chunks: u64,
}

impl Acc {
    /// Mean per call in microseconds (0 when never called).
    pub fn mean_us(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.ns as f64 / self.n as f64 / 1e3
        }
    }
}

#[derive(Clone, Copy)]
struct OpState {
    start: Instant,
    span_ns: u64,
    max_span_ns: u64,
}

/// Per-op accounting: count, wall time and time covered by spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpAcc {
    pub n: u64,
    pub total_ns: u64,
    pub span_ns: u64,
}

impl OpAcc {
    /// Mean wall time per op not covered by any span, in microseconds.
    pub fn residual_us(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            (self.total_ns - self.span_ns) as f64 / self.n as f64 / 1e3
        }
    }
}

/// Span aggregator for one traced run (single client thread).
#[derive(Default)]
pub struct Tracer {
    pub tap: Tap,
    spans: RefCell<BTreeMap<&'static str, Acc>>,
    ops: RefCell<BTreeMap<&'static str, OpAcc>>,
    op: Cell<Option<OpState>>,
    /// Spans longer than the op that contains them (must stay 0).
    violations: Cell<u64>,
}

impl Tracer {
    /// The timing adapter over `inner`, to pass as a `store` argument.
    pub fn store<'a>(&'a self, inner: &'a dyn ChunkStore) -> TimedStore<'a> {
        TimedStore {
            inner,
            tap: &self.tap,
        }
    }

    /// Time one call into a layer. `name` is `<layer>.<what>`; the span's
    /// self time excludes chunk-store time measured by the tap inside it.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let busy0 = self.tap.busy_ns();
        let chunks0 = self.tap.chunks_got.load(Relaxed);
        let t0 = Instant::now();
        let out = f();
        let elapsed = t0.elapsed().as_nanos() as u64;
        let inner = self.tap.busy_ns() - busy0;
        {
            let mut spans = self.spans.borrow_mut();
            let acc = spans.entry(name).or_default();
            acc.ns += elapsed.saturating_sub(inner);
            acc.n += 1;
            acc.chunks += self.tap.chunks_got.load(Relaxed) - chunks0;
        }
        if let Some(mut op) = self.op.get() {
            op.span_ns += elapsed;
            op.max_span_ns = op.max_span_ns.max(elapsed);
            self.op.set(Some(op));
        }
        out
    }

    /// Record a span measured elsewhere (e.g. a set-up step).
    pub fn record(&self, name: &'static str, ns: u64) {
        let mut spans = self.spans.borrow_mut();
        let acc = spans.entry(name).or_default();
        acc.ns += ns;
        acc.n += 1;
    }

    /// Start one op.
    pub fn begin(&self) {
        self.op.set(Some(OpState {
            start: Instant::now(),
            span_ns: 0,
            max_span_ns: 0,
        }));
    }

    /// Finish the op started by [`begin`](Self::begin); returns its wall
    /// time in nanoseconds.
    pub fn end(&self, kind: &'static str) -> u64 {
        let op = self.op.take().expect("end without begin");
        let total = op.start.elapsed().as_nanos() as u64;
        if op.max_span_ns > total || op.span_ns > total {
            self.violations.set(self.violations.get() + 1);
        }
        let mut ops = self.ops.borrow_mut();
        let acc = ops.entry(kind).or_default();
        acc.n += 1;
        acc.total_ns += total;
        acc.span_ns += op.span_ns.min(total);
        total
    }

    pub fn span_acc(&self, name: &str) -> Acc {
        self.spans.borrow().get(name).copied().unwrap_or_default()
    }

    pub fn op_acc(&self, kind: &str) -> OpAcc {
        self.ops.borrow().get(kind).copied().unwrap_or_default()
    }

    pub fn violations(&self) -> u64 {
        self.violations.get()
    }

    /// Mean chunk-layer time per tapped fetch call, in microseconds.
    pub fn chunk_get_us(&self) -> f64 {
        per_call_us(&self.tap.get_ns, &self.tap.get_calls)
    }

    /// Mean chunk-layer time per tapped write call, in microseconds.
    pub fn chunk_put_us(&self) -> f64 {
        per_call_us(&self.tap.put_ns, &self.tap.put_calls)
    }
}

fn per_call_us(ns: &AtomicU64, calls: &AtomicU64) -> f64 {
    let n = calls.load(Relaxed);
    if n == 0 {
        0.0
    } else {
        ns.load(Relaxed) as f64 / n as f64 / 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use forkbase_chunk::{ChunkType, MemStore};

    #[test]
    fn self_time_excludes_chunk_time_and_spans_fit_in_op() {
        let mem = MemStore::new();
        let tracer = Tracer::default();
        let store = tracer.store(&mem);
        tracer.begin();
        let cid = tracer.span("pos.x", || {
            let c = Chunk::new(ChunkType::Blob, &b"abc"[..]);
            let cid = c.cid();
            store.put(c);
            store.get(&cid);
            cid
        });
        let total = tracer.end("read");
        assert!(mem.contains(&cid));
        let acc = tracer.span_acc("pos.x");
        assert_eq!((acc.n, acc.chunks), (1, 1));
        assert!(acc.ns + tracer.tap.busy_ns() <= total);
        assert_eq!(tracer.violations(), 0);
        assert_eq!(tracer.op_acc("read").n, 1);
    }
}
