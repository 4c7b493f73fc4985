//! Smoke tests for the closed-loop driver edges the benches rely on —
//! in particular more workers than keys, where naive per-worker key
//! partitioning produces empty slices (or, worse, a `YcsbGen` over zero
//! keys, which panics on its first draw).

use bytes::Bytes;
use fb_workload::{per_worker_slices, run_closed_loop_with, Op, YcsbConfig, YcsbGen};
use forkbase_core::{ForkBase, HotTierConfig};
use std::sync::atomic::{AtomicU64, Ordering};

/// 8 closed loops over a 3-key working set: workers with an empty key
/// slice must idle through their ops without panicking, and the report
/// must still count every operation.
#[test]
fn more_workers_than_keys_runs_clean() {
    const WORKERS: usize = 8;
    const N_KEYS: usize = 3;
    const OPS: usize = 40;

    let db = ForkBase::in_memory_hot(HotTierConfig::on());
    for i in 0..N_KEYS {
        db.hot_put("bench/state", format!("key{i}"), format!("v{i}"))
            .expect("preload");
    }
    db.flush_hot().expect("preload flush");

    let slices = per_worker_slices(N_KEYS, WORKERS);
    assert!(
        slices.iter().any(|r| r.is_empty()),
        "this test must exercise the empty-slice edge"
    );

    let keyed_ops = AtomicU64::new(0);
    let report = run_closed_loop_with(
        WORKERS,
        OPS,
        |w| slices[w].clone(),
        |slice, _w, i| {
            // An empty slice means this worker has no keys: the op
            // becomes a no-op, not an out-of-range index or a 0-modulo.
            // (Reborrow: on `&mut Range` the unstable
            // `ExactSizeIterator::is_empty` would shadow the inherent one.)
            if (*slice).is_empty() {
                return;
            }
            let key = format!("key{}", slice.start + i % slice.len());
            let got = db.hot_get("bench/state", key.as_bytes()).expect("read");
            assert!(got.is_some(), "preloaded key {key} readable");
            keyed_ops.fetch_add(1, Ordering::Relaxed);
        },
    );

    assert_eq!(report.threads, WORKERS);
    assert_eq!(report.total_ops, (WORKERS * OPS) as u64, "idle ops counted");
    assert_eq!(
        keyed_ops.load(Ordering::Relaxed),
        (N_KEYS * OPS) as u64,
        "exactly the workers with keys issued reads"
    );
}

/// The YCSB-generator flavor of the same edge: per-worker generators
/// are built only over non-empty slices; a `YcsbGen` over `n_keys = 0`
/// is the panic the slices guard against.
#[test]
fn ycsb_per_worker_generators_tolerate_empty_slices() {
    const WORKERS: usize = 6;
    const N_KEYS: usize = 2;
    const OPS: usize = 25;

    let db = ForkBase::in_memory_hot(HotTierConfig::on());
    let slices = per_worker_slices(N_KEYS, WORKERS);

    let report = run_closed_loop_with(
        WORKERS,
        OPS,
        |w| {
            let slice = slices[w].clone();
            let gen = (!slice.is_empty()).then(|| {
                YcsbGen::new(YcsbConfig {
                    n_keys: slice.len(),
                    read_ratio: 0.5,
                    value_size: 16,
                    zipf: 0.0,
                    seed: 7 + w as u64,
                })
            });
            (slice, gen)
        },
        |(slice, gen), _w, _i| {
            let Some(gen) = gen.as_mut() else {
                return; // keyless worker: closed loop still spins
            };
            // Offset generated keys into this worker's disjoint range.
            let op = gen.next_op();
            let key = Bytes::from(format!("{}/{:?}", slice.start, op.key()));
            match op {
                Op::Read(_) => {
                    let _ = db.hot_get("bench/ycsb", &key).expect("read");
                }
                Op::Write(_, v) => {
                    db.hot_put("bench/ycsb", key, v).expect("write");
                }
            }
        },
    );
    db.flush_hot().expect("drain");
    assert_eq!(report.total_ops, (WORKERS * OPS) as u64);
}

/// The measured window covers every worker's whole loop: `elapsed_ns`
/// can never be shorter than the busiest worker's summed op latencies,
/// however the threads are scheduled around the start barrier.
#[test]
fn window_covers_every_worker_loop() {
    const WORKERS: usize = 3;
    const OPS: usize = 20;

    let busy_ns: Vec<AtomicU64> = (0..WORKERS).map(|_| AtomicU64::new(0)).collect();
    let report = run_closed_loop_with(
        WORKERS,
        OPS,
        |_| (),
        |(), w, _i| {
            let t0 = std::time::Instant::now();
            std::thread::sleep(std::time::Duration::from_micros(100 * (w as u64 + 1)));
            busy_ns[w].fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        },
    );

    let busiest = busy_ns
        .iter()
        .map(|b| b.load(Ordering::Relaxed))
        .max()
        .expect("workers");
    assert_eq!(report.total_ops, (WORKERS * OPS) as u64);
    assert!(
        report.elapsed_ns >= busiest,
        "window {} ns shorter than the busiest worker's {busiest} ns of ops",
        report.elapsed_ns
    );
}
