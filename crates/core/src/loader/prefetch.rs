use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{bounded, Receiver};
use ppgnn_dataio::DataIoError;

use crate::loader::{
    BatchSource, FailureLatch, Loader, LoaderCounters, LoaderKind, MemoryLoader, PpBatch,
};
use crate::preprocess::PrepropFeatures;

/// Generation 2 over storage: double buffering (second half of
/// Section 4.1) as gen-2 pipelining over gen-3 storage I/O.
///
/// On a GPU, batch assembly on the CPU overlaps compute on the device:
/// two buffers, one being filled while the other trains. Any
/// [`BatchSource`] (the [`crate::loader::ShardedStorageChunkLoader`])
/// runs on a producer thread behind a **bounded channel of capacity 2**,
/// so chunk reads from the feature store wait on the disk while the step
/// computes. The source crosses into the producer thread each epoch and
/// is handed back when the epoch ends; its batches are not recycled.
/// In memory the step already spans the worker pool, so there is nothing
/// to overlap: the in-memory double buffer is a [`MemoryLoader`] of
/// [`LoaderKind::DoubleBuffer`], which gathers in place on the pool.
///
/// Failures are not silent. The channel carries
/// `Result<PpBatch, DataIoError>` (I/O errors surface batch by batch),
/// and a producer thread that dies mid-epoch is detected at join time.
/// The first error is latched until [`Loader::start_epoch`],
/// [`DoubleBufferLoader::try_next_batch`] reports it, the infallible
/// [`Loader`] API ends the epoch, and [`Loader::take_error`] hands the
/// message to the trainer — the same contract as the source itself.
#[derive(Debug)]
pub struct DoubleBufferLoader {
    /// `None` while an epoch is running (the source is owned by the
    /// thread) or after a producer panic lost it.
    source: Option<Box<dyn BatchSource>>,
    num_batches: usize,
    rx: Option<Receiver<Result<PpBatch, DataIoError>>>,
    /// Hands the source back when its epoch ends.
    worker: Option<JoinHandle<Box<dyn BatchSource>>>,
    counters: LoaderCounters,
    latch: FailureLatch,
}

/// Batches the producer runs ahead of the consumer: the double buffer.
const QUEUE_DEPTH: usize = 2;

impl DoubleBufferLoader {
    /// The frozen benchmark adapter's name for
    /// `MemoryLoader::new(data, batch_size, LoaderKind::DoubleBuffer, seed)`
    /// (ROADMAP item 4(c) lists it for deletion).
    #[allow(clippy::new_ret_no_self)]
    pub fn new(data: Arc<PrepropFeatures>, batch_size: usize, seed: u64) -> MemoryLoader {
        MemoryLoader::new(data, batch_size, LoaderKind::DoubleBuffer, seed)
    }

    /// Creates a double-buffered loader that runs `source` behind the
    /// producer thread. The source's own epoch order and batch geometry
    /// are preserved; this wrapper only moves the reads off the training
    /// thread.
    pub fn over_source(source: Box<dyn BatchSource>) -> Self {
        DoubleBufferLoader {
            num_batches: source.batches_per_epoch(),
            source: Some(source),
            rx: None,
            worker: None,
            counters: LoaderCounters::default(),
            latch: FailureLatch::default(),
        }
    }

    /// Closes an epoch's channel and joins its producer, taking the
    /// source and its counters back — or latching the failure of a
    /// producer that died mid-epoch.
    fn reap_worker(&mut self) {
        self.rx = None; // unblocks a producer waiting to send
        let Some(handle) = self.worker.take() else {
            return;
        };
        match handle.join() {
            Ok(src) => {
                self.counters = src.source_counters();
                self.source = Some(src);
            }
            Err(_) => {
                // A silent early end here would truncate the epoch the
                // consumer believes it completed.
                self.latch.fail(DataIoError::Io(
                    "batch producer thread panicked mid-epoch".into(),
                ));
            }
        }
    }

    /// Fallible batch path: `Ok(None)` ends the epoch, `Err` surfaces the
    /// epoch's first failure. The failure is latched until
    /// [`Loader::start_epoch`], so a retrying caller cannot resume a
    /// stream with batches missing.
    ///
    /// # Errors
    ///
    /// The [`DataIoError`] the source sent, or a producer thread that died
    /// before finishing the epoch.
    pub fn try_next_batch(&mut self) -> Result<Option<PpBatch>, DataIoError> {
        self.latch.check()?;
        let Some(received) = self.rx.as_ref().map(Receiver::recv) else {
            return Ok(None);
        };
        match received {
            Ok(Ok(batch)) => Ok(Some(batch)),
            Ok(Err(e)) => {
                let e = self.latch.fail(e);
                self.reap_worker();
                Err(e)
            }
            // Channel closed: the producer finished — or died. Joining
            // tells the two apart and latches the error.
            Err(_) => {
                self.reap_worker();
                self.latch.check().map(|()| None)
            }
        }
    }
}

impl Loader for DoubleBufferLoader {
    fn start_epoch(&mut self) {
        // Drain any unfinished epoch first (ignoring its verdict: the
        // epoch is being abandoned either way); this also recovers the
        // source from the finished thread.
        self.reap_worker();
        self.latch = FailureLatch::default();
        let Some(mut source) = self.source.take() else {
            // A producer panic lost the source; the loader cannot run
            // further epochs.
            self.latch.fail(DataIoError::Io(
                "batch source lost to a producer panic; recreate the loader".into(),
            ));
            return;
        };
        let (tx, rx) = bounded::<Result<PpBatch, DataIoError>>(QUEUE_DEPTH);
        self.rx = Some(rx);
        self.worker = Some(std::thread::spawn(move || {
            source.begin_epoch();
            loop {
                match source.try_next() {
                    Ok(Some(batch)) => {
                        if tx.send(Ok(batch)).is_err() {
                            break; // consumer dropped the epoch early
                        }
                    }
                    Ok(None) => break,
                    Err(e) => {
                        let _ = tx.send(Err(e));
                        break;
                    }
                }
            }
            source
        }));
    }

    fn next_batch(&mut self) -> Option<PpBatch> {
        // An Err is latched by try_next_batch and parked for take_error.
        self.try_next_batch().unwrap_or_default()
    }

    fn num_batches(&self) -> usize {
        self.num_batches
    }

    fn counters(&self) -> LoaderCounters {
        self.counters
    }

    fn take_error(&mut self) -> Option<String> {
        self.latch.take()
    }

    fn name(&self) -> &'static str {
        "double-buffer"
    }
}

impl Drop for DoubleBufferLoader {
    fn drop(&mut self) {
        self.reap_worker();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader::memory::SPARES;
    use crate::loader::tests_support::tiny_features;
    use crate::loader::ShardedStorageChunkLoader;
    use ppgnn_dataio::{AccessPath, FeatureStore, FeatureStoreWriter, StoreMeta};
    use ppgnn_tensor::Matrix;
    use std::sync::mpsc::RecvTimeoutError;
    use std::time::Duration;

    /// Runs `f` on its own thread and fails the test if it has not
    /// returned within a minute — a deadlock shows as a failure, not a
    /// hung test binary.
    fn within_bounded_time<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        let body = std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        match rx.recv_timeout(Duration::from_secs(60)) {
            Ok(v) => {
                body.join().expect("the body has returned");
                v
            }
            Err(RecvTimeoutError::Timeout) => panic!("did not return in bounded time"),
            Err(RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(body.join().expect_err("the body panicked"))
            }
        }
    }

    /// The in-memory double buffer: one fused row gather per hop, in place.
    fn double_buffer(data: Arc<PrepropFeatures>, batch: usize, seed: u64) -> MemoryLoader {
        MemoryLoader::new(data, batch, LoaderKind::DoubleBuffer, seed)
    }

    #[test]
    fn identical_stream_to_fused_for_equal_seed() {
        // Two consumers read the fused gather's stream over four epochs,
        // against per-row copies: one keeps nothing, the other recycles —
        // every batch, including
        // each epoch's short last one (29 = 4·6 + 5), every other one with
        // a hop kept by "the model" (a `0 × 0` hole), one during an epoch
        // it abandons half-way, one held across that abandoned epoch, and
        // two from a loader dropped mid-epoch.
        within_bounded_time(|| {
            let data = Arc::new(tiny_features(29, 2, 3));
            let mut fused = MemoryLoader::new(data.clone(), 6, LoaderKind::Baseline, 9);
            let mut plain = double_buffer(data.clone(), 6, 9);
            let mut recycling = double_buffer(data.clone(), 6, 9);
            let mut dropped = double_buffer(data, 6, 9);
            dropped.start_epoch();
            let orphans = [dropped.next_batch(), dropped.next_batch()];
            drop(dropped);
            for batch in orphans.into_iter().flatten() {
                recycling.recycle(batch);
            }
            let mut held = None;
            for epoch in 0..4 {
                fused.start_epoch();
                plain.start_epoch();
                recycling.start_epoch();
                if let Some(batch) = held.take() {
                    recycling.recycle(batch);
                }
                for n in 1.. {
                    let (x, y, z) = (
                        fused.next_batch(),
                        plain.next_batch(),
                        recycling.next_batch(),
                    );
                    let (Some(x), Some(y), Some(mut z)) = (x, y, z) else {
                        assert!(fused.next_batch().is_none(), "fused ran longer");
                        assert!(plain.next_batch().is_none(), "plain ran longer");
                        assert!(recycling.next_batch().is_none(), "recycling ran longer");
                        break;
                    };
                    assert_eq!(x, y, "epoch {epoch} batch {n}: plain consumer");
                    assert_eq!(x, z, "epoch {epoch} batch {n}: recycling consumer");
                    if epoch == 1 && n == 1 {
                        held = Some(z);
                        continue;
                    }
                    if n % 2 == 0 {
                        let _kept = std::mem::take(&mut z.hops[1]);
                    }
                    recycling.recycle(z);
                    if epoch == 1 && n == 2 {
                        break; // abandon the epoch half-way
                    }
                }
            }
        });
    }

    #[test]
    fn a_recycled_batch_is_handed_out_again() {
        // 10 batches of 4, each gathered when it is asked for: the batch
        // after a recycled one is refilled into its buffers.
        let data = Arc::new(tiny_features(40, 1, 3));
        let mut l = double_buffer(data, 4, 2);
        l.start_epoch();
        let first = l.next_batch().expect("a batch");
        let buffers = (first.hops[1].as_slice().as_ptr(), first.indices.as_ptr());
        l.recycle(first);
        let b = l.next_batch().expect("a batch");
        assert_eq!(
            (b.hops[1].as_slice().as_ptr(), b.indices.as_ptr()),
            buffers,
            "the recycled batch's buffers did not come back"
        );
        while l.next_batch().is_some() {}
    }

    #[test]
    fn the_spare_pool_is_bounded() {
        // Each handed-back batch is told apart by the capacity of its
        // index buffer, which a refill within it keeps: the epoch's four
        // batches reuse the first `SPARES` handed back, and no other.
        let data = Arc::new(tiny_features(20, 1, 2));
        let mut l = double_buffer(data, 5, 1);
        for i in 0..3 * SPARES {
            l.recycle(PpBatch {
                indices: Vec::with_capacity(100 + i),
                ..PpBatch::default()
            });
        }
        l.start_epoch();
        let mut reused: Vec<usize> = std::iter::from_fn(|| l.next_batch())
            .map(|b| b.indices.capacity())
            .filter(|&c| c >= 100)
            .collect();
        reused.sort_unstable();
        assert_eq!(
            reused,
            (100..100 + SPARES).collect::<Vec<_>>(),
            "a full pool drops what it has no room for"
        );
    }

    #[test]
    fn recycling_around_a_producer_panic_returns_and_keeps_failing_cleanly() {
        // The corrupt partition of the dead-producer test below: the
        // epoch fails mid-way. Recycling the batches it did deliver,
        // before and after the failure is seen, must neither block nor
        // hide the failure.
        within_bounded_time(|| {
            let mut features = tiny_features(8, 1, 2);
            features.labels.extend(8..30u32);
            features.node_ids.extend(8..30usize);
            let mut l = double_buffer(Arc::new(features), 4, 3);
            for _ in 0..2 {
                l.start_epoch();
                while let Some(batch) = l.next_batch() {
                    l.recycle(batch);
                }
                l.recycle(PpBatch::default());
                assert!(l.take_error().is_some(), "the panic must surface");
            }
        });
    }

    #[test]
    fn multiple_epochs_work_and_reshuffle() {
        let data = Arc::new(tiny_features(40, 1, 2));
        let mut l = double_buffer(data, 40, 4);
        l.start_epoch();
        let e1 = l.next_batch().unwrap().indices;
        assert!(l.next_batch().is_none());
        l.start_epoch();
        let e2 = l.next_batch().unwrap().indices;
        assert!(l.next_batch().is_none());
        assert_ne!(e1, e2);
        let c = l.counters();
        assert_eq!(c.batches, 2);
    }

    #[test]
    fn abandoning_an_epoch_does_not_deadlock() {
        let data = Arc::new(tiny_features(100, 1, 2));
        let mut l = double_buffer(data, 5, 5);
        l.start_epoch();
        let _ = l.next_batch(); // take one of twenty, then abandon
        l.start_epoch(); // a fresh epoch, from its first batch
        let mut count = 0;
        while l.next_batch().is_some() {
            count += 1;
        }
        assert_eq!(count, 20);
    }

    #[test]
    fn clean_epoch_leaves_no_error() {
        let data = Arc::new(tiny_features(20, 1, 2));
        let mut l = double_buffer(data, 6, 1);
        l.start_epoch();
        while l.try_next_batch().unwrap().is_some() {}
        assert!(l.take_error().is_none());
    }

    #[test]
    fn dead_producer_fails_the_epoch_instead_of_ending_it_silently() {
        // Corrupt partition: more labels than feature rows. `len()` follows
        // the labels, so the shuffled index stream reaches past the hop
        // matrices, and the failure is caught before the gather.
        let mut features = tiny_features(8, 1, 2);
        features.labels.extend(8..30u32);
        features.node_ids.extend(8..30usize);
        let data = Arc::new(features);
        let mut l = double_buffer(data, 8, 3);
        l.start_epoch();
        // The fallible path must surface an error, not a clean epoch end.
        let mut result = l.try_next_batch();
        while let Ok(Some(_)) = result {
            result = l.try_next_batch();
        }
        assert!(result.is_err(), "dead producer must surface an error");
        // The failure is latched: retries keep failing, the infallible
        // path stays ended, and the error is parked for the trainer.
        assert!(l.try_next_batch().is_err());
        assert!(l.next_batch().is_none());
        let msg = l.take_error().expect("error surfaced via take_error");
        assert!(msg.contains("8 hop rows"), "unexpected message: {msg}");
        assert!(l.take_error().is_none(), "take_error drains the slot");
    }

    #[test]
    fn an_out_of_range_index_is_a_located_latched_error_not_a_panic() {
        // 512 hop rows but 640 labels, in one batch of 640 × F = 256: for
        // the double buffer a gather large enough to run on the pool, so
        // an unchecked index would panic inside a pool task. Every kind
        // checks the rows before it moves one.
        let mut features = tiny_features(512, 1, 256);
        features.labels.extend((512..640).map(|r| r as u32 % 5));
        features.node_ids.extend(512..640usize);
        let data = Arc::new(features);
        for kind in [
            LoaderKind::Baseline,
            LoaderKind::DoubleBuffer,
            LoaderKind::Chunk { chunk_size: 64 },
        ] {
            let mut l = MemoryLoader::new(data.clone(), 640, kind, 8);
            for _ in 0..2 {
                l.start_epoch();
                let first =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| l.try_next_batch()))
                        .expect("the bad index is an error, not a panic");
                let Err(DataIoError::OutOfRange(msg)) = first else {
                    panic!("expected an out-of-range error, got {first:?}");
                };
                let row: usize = msg
                    .strip_prefix("batch row ")
                    .and_then(|m| m.split(' ').next())
                    .and_then(|r| r.parse().ok())
                    .unwrap_or_else(|| panic!("the message names no row: {msg}"));
                assert!((512..640).contains(&row), "{msg}");
                assert!(msg.ends_with("past the partition's 512 hop rows"), "{msg}");
                // Latched: retries fail alike, the infallible path stays ended,
                // and the trainer gets the message once.
                assert!(matches!(l.try_next_batch(), Err(DataIoError::OutOfRange(m)) if m == msg));
                assert!(l.next_batch().is_none());
                assert!(l.take_error().is_some_and(|m| m.contains(&msg)));
                assert!(l.take_error().is_none());
                assert!(l.try_next_batch().is_err(), "only start_epoch re-arms");
            }
        }
    }

    #[test]
    fn start_epoch_clears_a_latched_failure() {
        let mut features = tiny_features(8, 1, 2);
        features.labels.extend(8..30u32);
        features.node_ids.extend(8..30usize);
        let data = Arc::new(features);
        let mut l = double_buffer(data, 8, 3);
        l.start_epoch();
        while l.next_batch().is_some() {}
        assert!(l.try_next_batch().is_err(), "the epoch failed");
        l.start_epoch();
        assert!(l.take_error().is_none(), "start_epoch resets the error");
        // The fresh epoch fails again (same corrupt data), proving the
        // reset re-arms detection rather than suppressing it.
        while l.next_batch().is_some() {}
        assert!(l.take_error().is_some());
    }

    // ---- storage-backed producer (gen-2 ∘ gen-3 composition) ----

    fn build_store(tag: &str, rows: usize, chunk: usize) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ppgnn-dbsrc-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let meta = StoreMeta {
            dataset: "t".into(),
            num_hops: 2,
            rows,
            cols: 3,
            chunk_size: chunk,
            dtype: ppgnn_tensor::StoreDtype::F32,
        };
        let mut w = FeatureStoreWriter::create(&dir, meta).unwrap();
        for k in 0..2 {
            let m = Matrix::from_fn(rows, 3, move |r, c| (k * 1_000_000 + r * 1_000 + c) as f32);
            w.write_hop(k, &m).unwrap();
        }
        w.finish().unwrap();
        dir
    }

    fn storage_source(dir: &std::path::Path, batch: usize, seed: u64) -> ShardedStorageChunkLoader {
        let store = FeatureStore::open(dir).unwrap();
        let labels: Vec<u32> = (0..store.meta().rows).map(|r| (r % 3) as u32).collect();
        ShardedStorageChunkLoader::new(store, labels, batch, AccessPath::Direct, seed)
    }

    #[test]
    fn storage_source_stream_is_identical_to_the_bare_loader() {
        let dir = build_store("ident", 25, 4);
        let mut bare = storage_source(&dir, 7, 11);
        let mut buffered = DoubleBufferLoader::over_source(Box::new(storage_source(&dir, 7, 11)));
        assert_eq!(Loader::num_batches(&bare), buffered.num_batches());
        for _ in 0..2 {
            Loader::start_epoch(&mut bare);
            buffered.start_epoch();
            loop {
                match (bare.next_batch(), buffered.next_batch()) {
                    (None, None) => break,
                    (Some(x), Some(y)) => {
                        assert_eq!(x.indices, y.indices);
                        assert_eq!(x.hops, y.hops);
                        assert_eq!(x.labels, y.labels);
                    }
                    _ => panic!("bare and buffered streams disagree on batch count"),
                }
            }
        }
        // The buffered loader's counters mirror the source's cumulative
        // counters once the epoch drains.
        assert_eq!(buffered.counters(), Loader::counters(&bare));
        assert!(buffered.take_error().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn storage_source_errors_propagate_through_the_channel() {
        let dir = build_store("err", 32, 4);
        let mut l = DoubleBufferLoader::over_source(Box::new(storage_source(&dir, 4, 2)));
        l.start_epoch();
        assert!(l.next_batch().is_some());
        // Truncate a hop file mid-epoch: a future chunk read fails on the
        // producer thread and must surface through the channel.
        let path = dir.join("hop_1.ppgt");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        while l.next_batch().is_some() {}
        let msg = l.take_error().expect("storage failure must surface");
        assert!(!msg.is_empty());
        // The recovered source re-arms on the next epoch (and fails again
        // on the still-truncated store, from a clean slate).
        l.start_epoch();
        while l.next_batch().is_some() {}
        assert!(l.take_error().is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn drop_mid_epoch_terminates_worker() {
        let dir = build_store("drop", 100, 4);
        let mut l = DoubleBufferLoader::over_source(Box::new(storage_source(&dir, 5, 6)));
        l.start_epoch();
        let _ = l.next_batch();
        drop(l); // must join cleanly without hanging the test
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn abandoned_storage_epoch_recovers_the_source() {
        let dir = build_store("abandon", 64, 4);
        let mut l = DoubleBufferLoader::over_source(Box::new(storage_source(&dir, 4, 3)));
        l.start_epoch();
        let _ = l.next_batch(); // take one batch, then abandon the epoch
        l.start_epoch(); // must recover the source and restart cleanly
        let mut rows = 0;
        while let Some(b) = l.next_batch() {
            rows += b.len();
        }
        assert_eq!(rows, 64, "fresh epoch must cover every row");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
