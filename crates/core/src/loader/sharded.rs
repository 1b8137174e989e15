use ppgnn_dataio::{AccessPath, DataIoError, FeatureStore};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::loader::{
    permutation, BatchSource, ChunkBatcher, Loader, LoaderCounters, PendingChunk, PpBatch,
};

/// Generation 3p: chunk-reshuffled loading **directly from storage**
/// (Section 4.3) — the one storage loader, over a [`FeatureStore`] of any
/// partition count (a plain store directory opens as one).
///
/// The work list is every `(partition, chunk)` pair across the partition
/// stores, shuffled each epoch; each unit of work is one sequential
/// request per hop file ([`FeatureStore::read_chunk_all_hops`]),
/// so training-time I/O fans out over the per-partition files instead of
/// serializing on one. The [`AccessPath`] selects the GPUDirect analog or
/// the host bounce buffer. Batch `indices` are **global** training rows,
/// so the stream is drop-in for the trainer; with one partition it is the
/// in-memory [`crate::loader::ChunkReshuffleLoader`]'s stream for equal
/// seeds and chunk size. Rows carry across batch boundaries
/// ([`ChunkBatcher`]), so `batch_size` need not divide `chunk_size`.
///
/// The first I/O failure latches the epoch:
/// [`ShardedStorageChunkLoader::try_next_batch`] reports it until
/// [`Loader::start_epoch`], the infallible [`Loader`] API ends the epoch,
/// and [`Loader::take_error`] hands the message to the trainer.
#[derive(Debug)]
pub struct ShardedStorageChunkLoader {
    store: FeatureStore,
    labels: Vec<u32>,
    batch_size: usize,
    path: AccessPath,
    rng: StdRng,
    /// Shuffled `(partition, chunk)` work list for the current epoch.
    chunk_order: Vec<(usize, usize)>,
    next_chunk: usize,
    /// Chunks read but not fully emitted, in emit order.
    batcher: ChunkBatcher,
    error: Option<DataIoError>,
    failed: bool,
    counters: LoaderCounters,
}

impl ShardedStorageChunkLoader {
    /// Creates a sharded storage loader over `store`.
    ///
    /// `labels[i]` must be the label of **global** training row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0` or `labels.len()` disagrees with the
    /// store's total row count.
    pub fn new(
        store: FeatureStore,
        labels: Vec<u32>,
        batch_size: usize,
        path: AccessPath,
        seed: u64,
    ) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        assert_eq!(
            labels.len(),
            store.meta().rows,
            "one label per stored (global) row required"
        );
        ShardedStorageChunkLoader {
            store,
            labels,
            batch_size,
            path,
            rng: StdRng::seed_from_u64(seed),
            chunk_order: Vec::new(),
            next_chunk: 0,
            batcher: ChunkBatcher::default(),
            error: None,
            failed: false,
            counters: LoaderCounters::default(),
        }
    }

    /// Aggregated I/O counters across all partition stores.
    pub fn io_counters(&self) -> ppgnn_dataio::IoCounters {
        self.store.counters()
    }

    /// Number of partition stores the loader fans reads across.
    pub fn num_partitions(&self) -> usize {
        self.store.num_partitions()
    }

    fn refill(&mut self) -> Result<bool, DataIoError> {
        if self.next_chunk >= self.chunk_order.len() {
            return Ok(false);
        }
        let (p, chunk_id) = self.chunk_order[self.next_chunk];
        self.next_chunk += 1;
        let rows = self.store.chunk_global_rows(p, chunk_id).to_vec();
        let hops = self.store.read_chunk_all_hops(p, chunk_id, self.path)?;
        self.counters.gather_ops += hops.len() as u64;
        self.counters.bytes_assembled += hops.iter().map(|m| m.size_bytes() as u64).sum::<u64>();
        self.batcher.push(PendingChunk { rows, hops });
        Ok(true)
    }

    /// Fallible batch path: `Ok(None)` ends the epoch, `Err` surfaces (and
    /// latches) the first storage failure until [`Loader::start_epoch`].
    ///
    /// # Errors
    ///
    /// Propagates [`DataIoError`] from partition-store chunk reads.
    pub fn try_next_batch(&mut self) -> Result<Option<PpBatch>, DataIoError> {
        if self.failed {
            return Err(self.error.clone().unwrap_or_else(|| {
                DataIoError::Io("epoch already failed; start_epoch required".into())
            }));
        }
        while self.batcher.pending_rows() < self.batch_size {
            match self.refill() {
                Ok(true) => continue,
                Ok(false) => break,
                Err(e) => {
                    self.failed = true;
                    self.error = Some(e.clone());
                    return Err(e);
                }
            }
        }
        if self.batcher.pending_rows() == 0 {
            return Ok(None);
        }
        let take = self.batch_size.min(self.batcher.pending_rows());
        let (hops, indices) =
            self.batcher
                .assemble(take, self.store.meta().num_hops, self.store.meta().cols);
        let labels = indices.iter().map(|&i| self.labels[i]).collect();
        self.counters.batches += 1;
        Ok(Some(PpBatch {
            indices,
            hops,
            labels,
        }))
    }
}

impl Loader for ShardedStorageChunkLoader {
    fn start_epoch(&mut self) {
        // (partition, chunk) pairs in canonical order, then one shared
        // Fisher–Yates shuffle — with a single partition this is the
        // chunk order of every chunk-shuffled loader for equal seeds.
        let pairs: Vec<(usize, usize)> = (0..self.store.num_partitions())
            .flat_map(|p| (0..self.store.num_chunks(p)).map(move |c| (p, c)))
            .collect();
        self.chunk_order = permutation(pairs.len(), &mut self.rng)
            .into_iter()
            .map(|i| pairs[i])
            .collect();
        self.next_chunk = 0;
        self.batcher.reset();
        self.error = None;
        self.failed = false;
    }

    fn next_batch(&mut self) -> Option<PpBatch> {
        if self.failed {
            return None;
        }
        self.try_next_batch().unwrap_or_default()
    }

    fn num_batches(&self) -> usize {
        self.store.meta().rows.div_ceil(self.batch_size)
    }

    fn counters(&self) -> LoaderCounters {
        self.counters
    }

    fn take_error(&mut self) -> Option<String> {
        self.error.take().map(|e| e.to_string())
    }

    fn name(&self) -> &'static str {
        "sharded-storage-chunk"
    }
}

impl BatchSource for ShardedStorageChunkLoader {
    fn begin_epoch(&mut self) {
        Loader::start_epoch(self)
    }

    fn try_next(&mut self) -> Result<Option<PpBatch>, DataIoError> {
        ShardedStorageChunkLoader::try_next_batch(self)
    }

    fn batches_per_epoch(&self) -> usize {
        Loader::num_batches(self)
    }

    fn source_counters(&self) -> LoaderCounters {
        Loader::counters(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppgnn_dataio::{StoreMeta, StoreWriter};
    use ppgnn_tensor::Matrix;
    use std::path::PathBuf;
    use std::sync::Arc;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ppgnn-shl-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Builds a sharded store whose logical rows follow the deterministic
    /// `r * 1000 + hop * 1_000_000 + c` pattern, rows dealt round-robin.
    fn build(
        tag: &str,
        rows: usize,
        hops: usize,
        chunk: usize,
        parts: usize,
    ) -> (FeatureStore, PathBuf) {
        let dir = temp_dir(tag);
        let meta = StoreMeta {
            dataset: "t".into(),
            num_hops: hops + 1,
            rows,
            cols: 3,
            chunk_size: chunk,
            dtype: ppgnn_tensor::StoreDtype::F32,
        };
        let mut assignment = vec![Vec::new(); parts];
        for r in 0..rows {
            assignment[r % parts].push(r);
        }
        let mut w = StoreWriter::create(&dir, meta, &assignment, 2).unwrap();
        for k in 0..=hops {
            let hop = Matrix::from_fn(rows, 3, move |r, c| (k * 1_000_000 + r * 1_000 + c) as f32);
            for (p, globals) in assignment.iter().enumerate() {
                w.submit(p, k, Arc::new(hop.gather_rows(globals))).unwrap();
            }
        }
        (w.finish().unwrap(), dir)
    }

    /// Labels of the fixture rows: `r % 3`.
    fn labels(rows: usize) -> Vec<u32> {
        (0..rows).map(|r| (r % 3) as u32).collect()
    }

    /// Drains one epoch, checking every row's first and last hop and its
    /// label, and returns the batch sizes and the rows seen (sorted).
    fn drain_checked(l: &mut ShardedStorageChunkLoader) -> (Vec<usize>, Vec<usize>) {
        l.start_epoch();
        let (mut sizes, mut seen) = (Vec::new(), Vec::new());
        while let Some(b) = l.next_batch() {
            let k = b.hops.len() - 1;
            for (r, &idx) in b.indices.iter().enumerate() {
                assert_eq!(b.hops[0].row(r)[0], (idx * 1000) as f32);
                assert_eq!(b.hops[k].row(r)[2], (k * 1_000_000 + idx * 1000 + 2) as f32);
                assert_eq!(b.labels[r], (idx % 3) as u32);
            }
            sizes.push(b.len());
            seen.extend(b.indices);
        }
        seen.sort_unstable();
        (sizes, seen)
    }

    #[test]
    fn covers_every_global_row_once_with_correct_contents() {
        // (rows, chunk, batch): chunks dividing neither the rows nor the
        // batch, a batch not dividing the chunk (rows carry over), and a
        // short last chunk in every partition that batches straddle.
        for (rows, chunk, batch) in [(25, 4, 7), (20, 6, 7), (23, 5, 4)] {
            for parts in [1, 3] {
                let tag = format!("cover-{rows}-{parts}");
                let (store, dir) = build(&tag, rows, 1, chunk, parts);
                let mut l = ShardedStorageChunkLoader::new(
                    store,
                    labels(rows),
                    batch,
                    AccessPath::Direct,
                    0,
                );
                let (sizes, seen) = drain_checked(&mut l);
                let mut want = vec![batch; rows / batch];
                want.extend((rows % batch > 0).then_some(rows % batch));
                assert_eq!(sizes, want, "{tag}");
                assert_eq!(seen, (0..rows).collect::<Vec<_>>(), "{tag}");
                std::fs::remove_dir_all(&dir).unwrap();
            }
        }
    }

    #[test]
    fn reads_fan_out_across_partitions_sequentially() {
        // (rows, chunk, batch, path): the bounce path copies every byte
        // read once more, and a chunk far larger than the batch is still
        // read — and assembled — exactly once.
        let cases = [
            (32, 4, 8, AccessPath::Direct),
            (16, 4, 4, AccessPath::HostBounce),
            (64, 64, 3, AccessPath::Direct),
        ];
        for (rows, chunk, batch, path) in cases {
            for parts in [1, 3] {
                let tag = format!("fanout-{rows}-{parts}");
                let (store, dir) = build(&tag, rows, 2, chunk, parts);
                let mut l = ShardedStorageChunkLoader::new(store, labels(rows), batch, path, 1);
                assert_eq!(l.num_partitions(), parts);
                drain_checked(&mut l);
                // One request per hop file per chunk of each partition.
                let chunks: usize = (0..parts)
                    .map(|p| ((rows + parts - 1 - p) / parts).div_ceil(chunk))
                    .sum();
                let bytes = (rows * 3 * 4 * 3) as u64;
                let (io, c) = (l.io_counters(), l.counters());
                assert_eq!(io.rand_requests, 0, "{tag}");
                assert_eq!(io.seq_requests, chunks as u64 * 3, "{tag}");
                assert_eq!(io.seq_bytes, bytes, "{tag}");
                let bounced = u64::from(path == AccessPath::HostBounce) * bytes;
                assert_eq!(io.bounce_bytes, bounced, "{tag}");
                assert_eq!(
                    (c.gather_ops, c.bytes_assembled),
                    (io.seq_requests, bytes),
                    "{tag}"
                );
                std::fs::remove_dir_all(&dir).unwrap();
            }
        }
    }

    #[test]
    fn truncated_partition_store_fails_the_epoch_cleanly() {
        for parts in [1, 2] {
            let (store, dir) = build(&format!("trunc-{parts}"), 24, 1, 4, parts);
            let mut l = ShardedStorageChunkLoader::new(store, labels(24), 4, AccessPath::Direct, 6);
            l.start_epoch();
            assert!(l.next_batch().is_some());
            // Truncate a hop file mid-epoch: some future chunk read fails.
            let path = dir.join(format!("part_{}", parts - 1)).join("hop_1.ppgt");
            let full = std::fs::read(&path).unwrap();
            std::fs::write(&path, &full[..full.len() / 2]).unwrap();
            // The infallible path ends the epoch instead of panicking, and
            // parks the error for the trainer, once.
            let mut emitted = 1;
            while l.next_batch().is_some() {
                emitted += 1;
            }
            assert!(
                emitted < l.num_batches(),
                "P={parts}: epoch should end early"
            );
            assert!(l.take_error().is_some(), "error must surface");
            assert!(l.take_error().is_none(), "take_error drains the slot");
            // Latched until the next start_epoch: a retry must not resume
            // past the failed chunk and silently drop its rows.
            assert!(l.try_next_batch().is_err());
            assert!(l.next_batch().is_none());
            // A fresh epoch starts clean; the fallible path then reports
            // the still-truncated file directly.
            l.start_epoch();
            assert!(l.take_error().is_none());
            let mut result = l.try_next_batch();
            while let Ok(Some(_)) = result {
                result = l.try_next_batch();
            }
            assert!(result.is_err(), "P={parts}: truncated read must surface");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn epochs_reshuffle_the_partition_chunk_order() {
        for parts in [1, 2] {
            let (store, dir) = build(&format!("shuffle-{parts}"), 64, 0, 4, parts);
            let mut l =
                ShardedStorageChunkLoader::new(store, labels(64), 64, AccessPath::Direct, 4);
            l.start_epoch();
            let e1 = l.next_batch().unwrap().indices;
            l.start_epoch();
            let e2 = l.next_batch().unwrap().indices;
            assert_ne!(e1, e2, "P={parts}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
