//! Closed-loop multi-worker benchmark driver, transport-agnostic.
//!
//! The paper's write-scaling experiments (§6.1) drive one closed loop
//! per client: each worker issues its next operation as soon as the
//! previous one completes, so aggregate throughput reflects engine
//! concurrency rather than open-loop queueing. The driver records one
//! latency sample per operation and reports throughput plus latency
//! percentiles across all workers.
//!
//! [`run_closed_loop_with`] is the general form: each worker owns a
//! *client* built by a caller-supplied factory — a TCP connection, a
//! cluster handle, or nothing at all — so the same driver measures
//! in-process calls and real wire protocols. Client construction
//! (dialing, handshakes) happens before a start barrier and is excluded
//! from the measured window. [`run_closed_loop`] is the clientless
//! shorthand the in-process benches use.

use std::sync::Barrier;
use std::time::Instant;

/// Aggregate result of one closed-loop run.
#[derive(Clone, Copy, Debug)]
pub struct DriverReport {
    /// Number of client threads.
    pub threads: usize,
    /// Operations completed across all threads.
    pub total_ops: u64,
    /// Wall-clock for the whole run.
    pub elapsed_ns: u64,
    /// Aggregate throughput.
    pub ops_per_sec: f64,
    /// Median per-op latency.
    pub p50_ns: u64,
    /// 95th-percentile per-op latency.
    pub p95_ns: u64,
    /// 99th-percentile per-op latency.
    pub p99_ns: u64,
    /// Worst per-op latency.
    pub max_ns: u64,
}

impl DriverReport {
    /// Mean ns per operation (what the bench JSON reports per iter).
    pub fn ns_per_op(&self) -> f64 {
        if self.total_ops == 0 {
            return 0.0;
        }
        self.elapsed_ns as f64 / self.total_ops as f64
    }
}

/// Run `ops_per_thread` operations on each of `threads` closed loops.
///
/// `op(thread, i)` executes the `i`-th operation of loop `thread`; it
/// must be safe to call concurrently from all loops (the engine under
/// test provides its own synchronization). Latencies are measured per
/// operation and merged across threads for the percentile report.
pub fn run_closed_loop<F>(threads: usize, ops_per_thread: usize, op: F) -> DriverReport
where
    F: Fn(usize, usize) + Sync,
{
    run_closed_loop_with(threads, ops_per_thread, |_| (), |(), t, i| op(t, i))
}

/// Run `ops_per_worker` operations on each of `workers` closed loops,
/// each loop owning a client built by `build`.
///
/// `build(worker)` runs on the worker's own thread (so e.g. dials
/// proceed concurrently); every worker then parks on a barrier, so no
/// operation starts before all clients exist — connection setup never
/// pollutes throughput or latency numbers. Each worker clocks its own
/// loop, and the measured window runs from the earliest worker start to
/// the latest worker end, so it covers every measured operation however
/// the threads are scheduled. `op(&mut client, worker, i)` executes the
/// `i`-th operation of loop `worker`.
pub fn run_closed_loop_with<C, B, F>(
    workers: usize,
    ops_per_worker: usize,
    build: B,
    op: F,
) -> DriverReport
where
    C: Send,
    B: Fn(usize) -> C + Sync,
    F: Fn(&mut C, usize, usize) + Sync,
{
    assert!(workers > 0, "at least one driver worker");
    let barrier = Barrier::new(workers);
    let mut lats: Vec<u64> = Vec::new();
    let mut window: Option<(Instant, Instant)> = None;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|t| {
                let (op, build, barrier) = (&op, &build, &barrier);
                s.spawn(move || {
                    let mut client = build(t);
                    barrier.wait();
                    let start = Instant::now();
                    let mut lats = Vec::with_capacity(ops_per_worker);
                    for i in 0..ops_per_worker {
                        let t0 = Instant::now();
                        op(&mut client, t, i);
                        lats.push(t0.elapsed().as_nanos() as u64);
                    }
                    (lats, start, Instant::now())
                })
            })
            .collect();
        for h in handles {
            let (worker_lats, start, end) = h.join().expect("driver worker panicked");
            lats.extend(worker_lats);
            window = Some(window.map_or((start, end), |(s, e)| (s.min(start), e.max(end))));
        }
    });
    let elapsed_ns = window.map_or(0, |(s, e)| (e - s).as_nanos() as u64).max(1);
    lats.sort_unstable();
    let total_ops = lats.len() as u64;
    let pct = |p: f64| -> u64 {
        if lats.is_empty() {
            return 0;
        }
        let idx = ((lats.len() - 1) as f64 * p).round() as usize;
        lats[idx]
    };
    DriverReport {
        threads: workers,
        total_ops,
        elapsed_ns,
        ops_per_sec: total_ops as f64 * 1e9 / elapsed_ns as f64,
        p50_ns: pct(0.50),
        p95_ns: pct(0.95),
        p99_ns: pct(0.99),
        max_ns: lats.last().copied().unwrap_or(0),
    }
}

/// Partition `n_items` items into exactly `workers` contiguous index
/// ranges, as even as possible (sizes differ by at most one).
///
/// When `workers > n_items` the tail ranges are **empty** — callers
/// handing each closed-loop worker a slice of a preloaded key set must
/// tolerate that (an empty slice means the worker issues no keyed ops),
/// rather than dividing by a per-worker count of zero or indexing past
/// the end. The ranges tile `0..n_items` in order with no gaps.
pub fn per_worker_slices(n_items: usize, workers: usize) -> Vec<std::ops::Range<usize>> {
    assert!(workers > 0, "at least one worker");
    let base = n_items / workers;
    let extra = n_items % workers; // first `extra` workers get one more
    let mut start = 0;
    (0..workers)
        .map(|w| {
            let len = base + usize::from(w < extra);
            let range = start..start + len;
            start += len;
            range
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn per_worker_slices_tile_without_gaps() {
        for (n, w) in [(10, 3), (3, 8), (0, 4), (7, 7), (1, 1), (100, 9)] {
            let slices = per_worker_slices(n, w);
            assert_eq!(slices.len(), w, "exactly one range per worker");
            let mut next = 0;
            for r in &slices {
                assert_eq!(r.start, next, "contiguous");
                assert!(r.end >= r.start);
                next = r.end;
            }
            assert_eq!(next, n, "ranges cover all items");
            let sizes: Vec<usize> = slices.iter().map(|r| r.len()).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "even split: {sizes:?}");
        }
    }

    #[test]
    fn more_workers_than_items_yields_empty_tails() {
        let slices = per_worker_slices(2, 5);
        assert_eq!(slices.iter().filter(|r| !r.is_empty()).count(), 2);
        assert_eq!(slices.iter().filter(|r| r.is_empty()).count(), 3);
    }

    #[test]
    fn runs_every_op_exactly_once() {
        let counter = AtomicU64::new(0);
        let report = run_closed_loop(4, 250, |_, _| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
        assert_eq!(report.total_ops, 1000);
        assert_eq!(report.threads, 4);
        assert!(report.ops_per_sec > 0.0);
        assert!(report.p50_ns <= report.p95_ns);
        assert!(report.p95_ns <= report.p99_ns);
        assert!(report.p99_ns <= report.max_ns);
    }

    #[test]
    fn thread_and_op_indices_cover_the_grid() {
        let seen = AtomicU64::new(0);
        run_closed_loop(2, 32, |t, i| {
            // Each (t, i) pair sets a distinct bit.
            seen.fetch_or(1 << (t * 32 + i), Ordering::Relaxed);
        });
        assert_eq!(seen.load(Ordering::Relaxed), u64::MAX);
    }

    #[test]
    fn factory_builds_one_owned_client_per_worker() {
        let built = AtomicU64::new(0);
        let report = run_closed_loop_with(
            3,
            10,
            |t| {
                built.fetch_add(1, Ordering::Relaxed);
                (t, 0usize) // (identity, per-client op counter)
            },
            |client, t, i| {
                assert_eq!(client.0, t, "worker got its own client");
                assert_eq!(client.1, i, "client state persists across ops");
                client.1 += 1;
            },
        );
        assert_eq!(built.load(Ordering::Relaxed), 3, "one build per worker");
        assert_eq!(report.total_ops, 30);
    }

    #[test]
    fn single_thread_is_sequential() {
        let order = std::sync::Mutex::new(Vec::new());
        run_closed_loop(1, 5, |_, i| order.lock().unwrap().push(i));
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 4]);
    }
}
