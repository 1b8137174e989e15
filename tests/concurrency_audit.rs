//! Seeded concurrency stress harness for the threaded subsystems:
//! [`WorkerPool`] under many concurrent caller threads, the
//! [`AsyncHopWriter`] error latch and drop ordering, and
//! [`DoubleBufferLoader`] recovery from a panicking producer.
//!
//! Runs under plain `cargo test`; `scripts/run_tsan_stress.sh` re-runs
//! this binary under ThreadSanitizer when a nightly toolchain with
//! `rust-src` is available. Timings are randomized from fixed seeds so
//! interleavings vary across the loop iterations but failures replay.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use preprop_gnn::core::loader::{BatchSource, DoubleBufferLoader, Loader, LoaderCounters, PpBatch};
use preprop_gnn::dataio::{AsyncHopWriter, DataIoError, StoreMeta};
use preprop_gnn::tensor::{Matrix, WorkerPool};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ppgnn-audit-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Many caller threads share one pool, each running several batches with
/// seeded jitter between submissions. Every batch's tasks must all run
/// exactly once, and no interleaving may deadlock the shared queue.
#[test]
fn worker_pool_survives_concurrent_batch_callers() {
    let pool = Arc::new(WorkerPool::new(4));
    let callers = 8;
    let batches_per_caller = 6;
    let tasks_per_batch = 16;
    let executed = Arc::new(AtomicUsize::new(0));

    std::thread::scope(|scope| {
        for caller in 0..callers {
            let pool = Arc::clone(&pool);
            let executed = Arc::clone(&executed);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xC0FFEE + caller as u64);
                for _ in 0..batches_per_caller {
                    let per_batch = AtomicUsize::new(0);
                    let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..tasks_per_batch)
                        .map(|_| {
                            let jitter = rng.random_range(0..50u64);
                            let per_batch = &per_batch;
                            let executed = &executed;
                            Box::new(move || {
                                if jitter > 40 {
                                    std::thread::sleep(Duration::from_micros(jitter));
                                }
                                per_batch.fetch_add(1, Ordering::Relaxed);
                                executed.fetch_add(1, Ordering::Relaxed);
                            }) as Box<dyn FnOnce() + Send>
                        })
                        .collect();
                    pool.run(tasks);
                    // `run` must not return before its own batch drained.
                    assert_eq!(per_batch.load(Ordering::Relaxed), tasks_per_batch);
                }
            });
        }
    });
    assert_eq!(
        executed.load(Ordering::Relaxed),
        callers * batches_per_caller * tasks_per_batch
    );
}

/// A panicking task must neither kill the pool's workers nor deadlock the
/// submitting batch; the panic propagates to the caller and later batches
/// still run.
#[test]
fn worker_pool_recovers_after_task_panic() {
    let pool = WorkerPool::new(3);
    for round in 0..4 {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..8)
                .map(|i| {
                    Box::new(move || {
                        if i == 5 {
                            panic!("seeded task panic (round {round})");
                        }
                    }) as Box<dyn FnOnce() + Send>
                })
                .collect();
            pool.run(tasks);
        }));
        assert!(result.is_err(), "round {round}: task panic must propagate");
    }
    // The pool is still functional after every panicked batch.
    let ran = AtomicUsize::new(0);
    pool.run(
        (0..8)
            .map(|_| {
                let ran = &ran;
                Box::new(move || {
                    ran.fetch_add(1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send>
            })
            .collect(),
    );
    assert_eq!(ran.load(Ordering::Relaxed), 8);
}

fn audit_meta(rows: usize, cols: usize, hops: usize) -> StoreMeta {
    StoreMeta {
        dataset: "audit".into(),
        num_hops: hops,
        rows,
        cols,
        chunk_size: 4,
        dtype: ppgnn_tensor::StoreDtype::F32,
    }
}

/// Seeded sweep over failure positions: a bad-shaped hop lands at a
/// random point in the submission stream. The writer must latch the
/// first failure, eventually fail fast on later submits, and surface the
/// underlying cause (not the fail-fast placeholder) at `finish`.
#[test]
fn async_writer_latches_first_failure_under_seeded_streams() {
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(0xBAD5EED + seed);
        let hops = 12;
        let bad_at = rng.random_range(0..hops - 1);
        let queue = rng.random_range(1..4usize);
        let dir = temp_dir(&format!("latch-{seed}"));
        let mut w = AsyncHopWriter::create(&dir, audit_meta(8, 3, hops), queue).unwrap();

        let mut saw_fast_fail = false;
        for k in 0..hops {
            let m = if k == bad_at {
                Matrix::zeros(3, 3) // wrong row count
            } else {
                Matrix::from_fn(8, 3, move |r, c| (k * 100 + r * 10 + c) as f32)
            };
            if w.submit(k, Arc::new(m)).is_err() {
                saw_fast_fail = true;
                break;
            }
            if rng.random_range(0..3u32) == 0 {
                std::thread::sleep(Duration::from_micros(rng.random_range(0..200)));
            }
        }
        let err = w.finish().expect_err("a bad hop was submitted");
        assert!(
            matches!(err, DataIoError::BadManifest(_)),
            "seed {seed}: finish must surface the write error, got {err}"
        );
        // Fast-fail is timing-dependent (the writer thread has to observe
        // the bad hop first), but the final verdict above never is.
        let _ = saw_fast_fail;
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Dropping a mid-stream writer (error latched or not) must join the
/// worker thread — no hang, no detached thread racing the directory
/// cleanup below.
#[test]
fn async_writer_drop_order_is_clean_after_failure() {
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(0xD80F + seed);
        let dir = temp_dir(&format!("drop-{seed}"));
        let mut w = AsyncHopWriter::create(&dir, audit_meta(8, 3, 6), 2).unwrap();
        let submit_until = rng.random_range(1..6usize);
        for k in 0..submit_until {
            let m = if rng.random_range(0..2u32) == 0 {
                Matrix::zeros(1, 1) // induce a latched failure sometimes
            } else {
                Matrix::zeros(8, 3)
            };
            if w.submit(k, Arc::new(m)).is_err() {
                break;
            }
        }
        drop(w); // must join the worker regardless of latch state
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// After a failed `submit`, `take_failure` reports the real underlying
/// cause instead of the fail-fast placeholder.
#[test]
fn async_writer_take_failure_reports_the_cause() {
    let dir = temp_dir("cause");
    let mut w = AsyncHopWriter::create(&dir, audit_meta(8, 3, 4), 1).unwrap();
    w.submit(0, Arc::new(Matrix::zeros(2, 2))).unwrap(); // wrong shape, latches
    while !w.has_failed() {
        std::thread::sleep(Duration::from_millis(1));
    }
    let cause = w.take_failure().expect("a write failed");
    assert!(
        matches!(cause, DataIoError::BadManifest(_)),
        "expected the shape error, got {cause}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A batch source that panics on the producer thread after a seeded
/// number of batches.
#[derive(Debug)]
struct PanickingSource {
    yielded: usize,
    panic_after: usize,
    batch_rows: usize,
}

impl BatchSource for PanickingSource {
    fn begin_epoch(&mut self) {
        self.yielded = 0;
    }

    fn try_next(&mut self) -> Result<Option<PpBatch>, DataIoError> {
        if self.yielded == self.panic_after {
            panic!("seeded producer panic after {} batches", self.yielded);
        }
        self.yielded += 1;
        let rows = self.batch_rows;
        Ok(Some(PpBatch {
            indices: (0..rows).collect(),
            hops: vec![Matrix::zeros(rows, 2)],
            labels: vec![0; rows],
        }))
    }

    fn batches_per_epoch(&self) -> usize {
        self.panic_after + 3
    }

    fn source_counters(&self) -> LoaderCounters {
        LoaderCounters::default()
    }
}

/// A producer-thread panic must end the epoch as an error (not a clean
/// exhaustion), park a message for the trainer, and poison further
/// epochs — the source died with the thread, so resuming would silently
/// train on a truncated stream.
#[test]
fn double_buffer_loader_latches_producer_panics() {
    for panic_after in [0usize, 1, 3] {
        let mut loader = DoubleBufferLoader::over_source(Box::new(PanickingSource {
            yielded: 0,
            panic_after,
            batch_rows: 4,
        }));
        loader.start_epoch();
        let mut yielded = 0;
        while let Some(batch) = loader.next_batch() {
            assert_eq!(batch.len(), 4);
            yielded += 1;
        }
        assert!(
            yielded <= panic_after,
            "no batches past the panic point may be observed"
        );
        let msg = loader
            .take_error()
            .expect("a producer panic must park an error");
        assert!(msg.contains("panicked"), "unexpected message: {msg}");

        // The source is gone; the next epoch must fail loudly, not spin.
        loader.start_epoch();
        assert!(loader.next_batch().is_none());
        let msg = loader
            .take_error()
            .expect("the lost source must keep the loader failed");
        assert!(msg.contains("recreate the loader"), "got: {msg}");
    }
}

/// Sanity companion: the memory-backed double buffer completes epochs
/// under the same harness (so the panic test above fails because of the
/// panic, not the setup).
#[test]
fn double_buffer_loader_completes_clean_epochs_under_jitter() {
    use preprop_gnn::core::PrepropFeatures;
    let rows = 33;
    let data = Arc::new(PrepropFeatures {
        hops: vec![Arc::new(Matrix::from_fn(rows, 3, |r, c| {
            (r * 3 + c) as f32
        }))],
        labels: (0..rows as u32).collect(),
        node_ids: (0..rows).collect(),
    });
    let mut rng = StdRng::seed_from_u64(0x1D1E);
    let mut loader = DoubleBufferLoader::new(data, 8, 7);
    for _epoch in 0..3 {
        loader.start_epoch();
        let mut seen = 0;
        while let Some(batch) = loader.next_batch() {
            seen += batch.len();
            if rng.random_range(0..2u32) == 0 {
                std::thread::sleep(Duration::from_micros(rng.random_range(0..150)));
            }
        }
        assert_eq!(seen, rows);
        assert!(loader.take_error().is_none());
    }
}
