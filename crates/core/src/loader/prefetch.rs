use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{bounded, Receiver};
use ppgnn_dataio::DataIoError;
use ppgnn_tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::loader::{permutation, read_mask, BatchSource, Loader, LoaderCounters, PpBatch};
use crate::preprocess::PrepropFeatures;

/// Generation 2: double-buffer prefetching (second half of Section 4.1).
///
/// A dedicated producer thread assembles batches and pushes them into a
/// **bounded channel of capacity 2** — the software double buffer. The
/// consumer (training loop) overlaps its compute with the producer's
/// assembly, which is precisely the pipelining Figure 6(c) illustrates; on
/// real hardware the two buffers live in GPU memory and the channel is a
/// pair of CUDA events.
///
/// The producer comes in two flavours:
///
/// * [`DoubleBufferLoader::new`] — the in-memory assembler (fused gathers
///   over a resident [`PrepropFeatures`], exactly like generation 1);
/// * [`DoubleBufferLoader::over_source`] — **any [`BatchSource`]**, which
///   is how gen-2 pipelining composes with gen-3 storage I/O: a
///   [`crate::loader::StorageChunkLoader`] or
///   [`crate::loader::ShardedStorageChunkLoader`] runs on the producer
///   thread, so chunk reads from the (sharded) feature store overlap
///   training compute. The source crosses into the producer thread each
///   epoch and is handed back when the epoch ends.
///
/// Producer-side failures are not silent: the channel carries
/// `Result<PpBatch, DataIoError>` (storage-backed producers surface I/O
/// errors batch-by-batch), and a producer thread that dies mid-epoch is
/// detected at join time. Either way the first error is latched,
/// [`DoubleBufferLoader::try_next_batch`] reports it, the infallible
/// [`Loader`] API ends the epoch, and [`Loader::take_error`] hands the
/// message to the trainer — the same contract as
/// [`crate::loader::StorageChunkLoader`].
#[derive(Debug)]
pub struct DoubleBufferLoader {
    producer: ProducerKind,
    rx: Option<Receiver<Result<PpBatch, DataIoError>>>,
    worker: Option<JoinHandle<EpochEnd>>,
    counters: LoaderCounters,
    /// First producer-side error of the epoch, parked for
    /// [`Loader::take_error`].
    error: Option<DataIoError>,
    /// Latched on the first failure and cleared only by
    /// [`Loader::start_epoch`]: a failed epoch must not resume and
    /// silently train on a stream with missing batches.
    failed: bool,
}

#[derive(Debug)]
enum ProducerKind {
    /// In-memory batch assembly (fused gathers) on the producer thread.
    Memory {
        data: Arc<PrepropFeatures>,
        batch_size: usize,
        rng: StdRng,
        /// `read[r]`: gather hop `r` (all `true` unless
        /// [`DoubleBufferLoader::reading`] narrowed it).
        read: Vec<bool>,
    },
    /// A fallible batch source driven on the producer thread. `None`
    /// while an epoch is running (the source is owned by the thread) or
    /// after a producer panic lost it.
    Source {
        source: Option<Box<dyn BatchSource>>,
        num_batches: usize,
    },
}

/// What the producer thread hands back when an epoch ends.
#[derive(Debug)]
enum EpochEnd {
    /// Per-epoch counter deltas of the in-memory assembler.
    Memory(LoaderCounters),
    /// The source, returned for the next epoch (its counters are
    /// cumulative).
    Source(Box<dyn BatchSource>),
}

impl DoubleBufferLoader {
    /// Creates a double-buffered loader over in-memory features.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0` or `data` is empty.
    pub fn new(data: Arc<PrepropFeatures>, batch_size: usize, seed: u64) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        assert!(!data.is_empty(), "cannot iterate an empty partition");
        let read = vec![true; data.hops.len()];
        Self::with_producer(ProducerKind::Memory {
            data,
            batch_size,
            rng: StdRng::seed_from_u64(seed),
            read,
        })
    }

    /// Tells the in-memory producer which hops its consumer reads
    /// (`PpModel::hops_read`): only those are gathered and counted, the
    /// rest are delivered as `0 x 0` matrices at their usual index. Batch
    /// order, `indices` and `labels` are unaffected. A loader built with
    /// [`DoubleBufferLoader::over_source`] keeps delivering every hop.
    ///
    /// # Panics
    ///
    /// Panics if a listed hop is out of range for the partition.
    pub fn reading(mut self, hops: &[usize]) -> Self {
        if let ProducerKind::Memory { data, read, .. } = &mut self.producer {
            *read = read_mask(data.hops.len(), hops);
        }
        self
    }

    /// Creates a double-buffered loader that runs `source` behind the
    /// producer thread — gen-2 pipelining over gen-3 storage I/O. The
    /// source's own epoch order and batch geometry are preserved; this
    /// wrapper only moves the reads off the training thread.
    pub fn over_source(source: Box<dyn BatchSource>) -> Self {
        let num_batches = source.batches_per_epoch();
        Self::with_producer(ProducerKind::Source {
            source: Some(source),
            num_batches,
        })
    }

    fn with_producer(producer: ProducerKind) -> Self {
        DoubleBufferLoader {
            producer,
            rx: None,
            worker: None,
            counters: LoaderCounters::default(),
            error: None,
            failed: false,
        }
    }

    fn reap_worker(&mut self) {
        if let Some(handle) = self.worker.take() {
            match handle.join() {
                Ok(EpochEnd::Memory(c)) => {
                    self.counters.gather_ops += c.gather_ops;
                    self.counters.bytes_assembled += c.bytes_assembled;
                    self.counters.batches += c.batches;
                }
                Ok(EpochEnd::Source(src)) => {
                    self.counters = src.source_counters();
                    if let ProducerKind::Source { source, .. } = &mut self.producer {
                        *source = Some(src);
                    }
                }
                Err(_) => {
                    // The producer died without finishing its epoch; a
                    // silent early end here would truncate the epoch the
                    // consumer believes it completed.
                    self.failed = true;
                    self.error.get_or_insert_with(|| {
                        DataIoError::Io("batch producer thread panicked mid-epoch".into())
                    });
                }
            }
        }
    }

    /// Fallible batch path: `Ok(None)` ends the epoch, `Err` surfaces the
    /// first producer-side failure. The failure is latched until
    /// [`Loader::start_epoch`], so a retrying caller cannot resume a
    /// stream with batches missing.
    ///
    /// # Errors
    ///
    /// Propagates [`DataIoError`] sent by the producer, or reports a
    /// producer thread that died before finishing the epoch.
    pub fn try_next_batch(&mut self) -> Result<Option<PpBatch>, DataIoError> {
        if self.failed {
            return Err(self.error.clone().unwrap_or_else(|| {
                DataIoError::Io("epoch already failed; start_epoch required".into())
            }));
        }
        let Some(rx) = self.rx.as_ref() else {
            return Ok(None);
        };
        match rx.recv() {
            Ok(Ok(batch)) => Ok(Some(batch)),
            Ok(Err(e)) => {
                self.rx = None;
                self.failed = true;
                self.error = Some(e.clone());
                self.reap_worker();
                Err(e)
            }
            Err(_) => {
                // Channel closed: the producer finished — or died. Joining
                // distinguishes the two and latches the error if so.
                self.rx = None;
                self.reap_worker();
                if self.failed {
                    Err(self
                        .error
                        .clone()
                        .expect("failed reap always parks an error"))
                } else {
                    Ok(None)
                }
            }
        }
    }
}

impl Loader for DoubleBufferLoader {
    fn start_epoch(&mut self) {
        // Drain any unfinished previous epoch first (ignoring its verdict:
        // the epoch is being abandoned either way). For source producers
        // this also recovers the source from the finished thread.
        self.rx = None;
        self.reap_worker();
        self.error = None;
        self.failed = false;

        // Capacity 2 = the double buffer: the producer runs at most two
        // batches ahead of the consumer.
        let (tx, rx) = bounded::<Result<PpBatch, DataIoError>>(2);
        let handle = match &mut self.producer {
            ProducerKind::Memory {
                data,
                batch_size,
                rng,
                read,
            } => {
                let order = permutation(data.len(), rng);
                let data = Arc::clone(data);
                let batch_size = *batch_size;
                let read = read.clone();
                std::thread::spawn(move || {
                    let mut counters = LoaderCounters::default();
                    let f = data.hops[0].cols();
                    let mut cursor = 0;
                    while cursor < order.len() {
                        let end = (cursor + batch_size).min(order.len());
                        let indices = order[cursor..end].to_vec();
                        cursor = end;
                        let mut hops = Vec::with_capacity(data.hops.len());
                        for (src, &read) in data.hops.iter().zip(&read) {
                            if !read {
                                hops.push(Matrix::default());
                                continue;
                            }
                            let mut stage = Matrix::zeros(indices.len(), f);
                            src.gather_rows_into(&indices, &mut stage);
                            counters.gather_ops += 1;
                            counters.bytes_assembled += (indices.len() * f * 4) as u64;
                            hops.push(stage);
                        }
                        let labels = indices.iter().map(|&i| data.labels[i]).collect();
                        counters.batches += 1;
                        if tx
                            .send(Ok(PpBatch {
                                indices,
                                hops,
                                labels,
                            }))
                            .is_err()
                        {
                            break; // consumer dropped the epoch early
                        }
                    }
                    EpochEnd::Memory(counters)
                })
            }
            ProducerKind::Source { source, .. } => {
                let Some(mut source) = source.take() else {
                    // A producer panic lost the source; the loader cannot
                    // run further epochs.
                    self.failed = true;
                    self.error.get_or_insert_with(|| {
                        DataIoError::Io(
                            "batch source lost to a producer panic; recreate the loader".into(),
                        )
                    });
                    return;
                };
                std::thread::spawn(move || {
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
                    EpochEnd::Source(source)
                })
            }
        };
        self.rx = Some(rx);
        self.worker = Some(handle);
    }

    fn next_batch(&mut self) -> Option<PpBatch> {
        if self.failed {
            return None;
        }
        // An Err is latched by try_next_batch and parked for take_error.
        self.try_next_batch().unwrap_or_default()
    }

    fn num_batches(&self) -> usize {
        match &self.producer {
            ProducerKind::Memory {
                data, batch_size, ..
            } => data.len().div_ceil(*batch_size),
            ProducerKind::Source { num_batches, .. } => *num_batches,
        }
    }

    fn counters(&self) -> LoaderCounters {
        self.counters
    }

    fn take_error(&mut self) -> Option<String> {
        self.error.take().map(|e| e.to_string())
    }

    fn name(&self) -> &'static str {
        "double-buffer"
    }
}

impl Drop for DoubleBufferLoader {
    fn drop(&mut self) {
        self.rx = None; // closes the channel, unblocking the producer
        self.reap_worker();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader::tests_support::tiny_features;
    use crate::loader::{FusedGatherLoader, StorageChunkLoader};
    use ppgnn_dataio::{AccessPath, FeatureStoreWriter, StoreMeta};

    #[test]
    fn identical_stream_to_fused_for_equal_seed() {
        let data = Arc::new(tiny_features(29, 2, 3));
        let mut a = FusedGatherLoader::new(data.clone(), 6, 9);
        let mut b = DoubleBufferLoader::new(data, 6, 9);
        a.start_epoch();
        b.start_epoch();
        loop {
            match (a.next_batch(), b.next_batch()) {
                (None, None) => break,
                (Some(x), Some(y)) => {
                    assert_eq!(x.indices, y.indices);
                    assert_eq!(x.hops, y.hops);
                    assert_eq!(x.labels, y.labels);
                }
                _ => panic!("loaders disagree on batch count"),
            }
        }
    }

    #[test]
    fn multiple_epochs_work_and_reshuffle() {
        let data = Arc::new(tiny_features(40, 1, 2));
        let mut l = DoubleBufferLoader::new(data, 40, 4);
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
        let mut l = DoubleBufferLoader::new(data, 5, 5);
        l.start_epoch();
        let _ = l.next_batch(); // take one of twenty, then abandon
        l.start_epoch(); // must not hang on the old producer
        let mut count = 0;
        while l.next_batch().is_some() {
            count += 1;
        }
        assert_eq!(count, 20);
    }

    #[test]
    fn drop_mid_epoch_terminates_worker() {
        let data = Arc::new(tiny_features(100, 1, 2));
        let mut l = DoubleBufferLoader::new(data, 5, 6);
        l.start_epoch();
        let _ = l.next_batch();
        drop(l); // must join cleanly without hanging the test
    }

    #[test]
    fn clean_epoch_leaves_no_error() {
        let data = Arc::new(tiny_features(20, 1, 2));
        let mut l = DoubleBufferLoader::new(data, 6, 1);
        l.start_epoch();
        while l.try_next_batch().unwrap().is_some() {}
        assert!(l.take_error().is_none());
    }

    #[test]
    fn dead_producer_fails_the_epoch_instead_of_ending_it_silently() {
        // Corrupt partition: more labels than feature rows. `len()` follows
        // the labels, so the shuffled index stream reaches past the hop
        // matrices and the producer panics mid-gather — the in-memory
        // stand-in for a producer-side failure.
        let mut features = tiny_features(8, 1, 2);
        features.labels.extend(8..30u32);
        features.node_ids.extend(8..30usize);
        let data = Arc::new(features);
        let mut l = DoubleBufferLoader::new(data, 8, 3);
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
        assert!(msg.contains("producer"), "unexpected message: {msg}");
        assert!(l.take_error().is_none(), "take_error drains the slot");
    }

    #[test]
    fn start_epoch_clears_a_latched_failure() {
        let mut features = tiny_features(8, 1, 2);
        features.labels.extend(8..30u32);
        features.node_ids.extend(8..30usize);
        let data = Arc::new(features);
        let mut l = DoubleBufferLoader::new(data, 8, 3);
        l.start_epoch();
        while l.next_batch().is_some() {}
        assert!(l.error.is_some() || l.failed);
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

    fn storage_source(dir: &std::path::Path, batch: usize, seed: u64) -> StorageChunkLoader {
        let store = ppgnn_dataio::FeatureStore::open(dir).unwrap();
        let labels: Vec<u32> = (0..store.meta().rows).map(|r| (r % 3) as u32).collect();
        StorageChunkLoader::new(store, labels, batch, AccessPath::Direct, seed)
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
