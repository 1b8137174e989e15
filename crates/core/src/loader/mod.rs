//! The four data-loader generations of Section 4.
//!
//! All loaders yield the same [`PpBatch`] stream for a fixed seed (pinned
//! by the `loader_equivalence` integration test), so swapping generations
//! changes *how* bytes move, never *what* the model sees — except chunk
//! reshuffling with `chunk_size > 1`, which is the paper's deliberate
//! relaxation of SGD-RR (Section 4.2, accuracy impact studied in Figure 8).
//!
//! | Generation | Module | Mechanism |
//! |---|---|---|
//! | 0 baseline | [`BaselineLoader`] | one copy **per row** (PyTorch-DataLoader behaviour) |
//! | 1 fused | [`FusedGatherLoader`] | one fused index op per batch into a reused staging buffer |
//! | 2 prefetch | [`DoubleBufferLoader`] | producer thread + bounded(2) channel (the double buffer) |
//! | 3 chunked | [`ChunkReshuffleLoader`] | chunk-level shuffle, contiguous chunk copies |
//! | 3s storage | [`StorageChunkLoader`] | chunk reads from the on-disk feature store |
//! | 3p sharded | [`ShardedStorageChunkLoader`] | chunk reads fanned out across partition stores |
//!
//! Generations compose: [`DoubleBufferLoader::over_source`] runs any
//! [`BatchSource`] (the storage-backed chunk loaders implement it) behind
//! the gen-2 producer thread, so chunk I/O overlaps training compute.
//!
//! # Hop selection
//!
//! Every constructor delivers every hop. The two in-memory generations a
//! trainer runs on its critical path can additionally be told what their
//! consumer reads — the paper's remedy is to move fewer bytes per batch,
//! and the cheapest byte is the one the model never looks at:
//!
//! | Loader | Hops moved | Told by |
//! |---|---|---|
//! | [`DoubleBufferLoader::new`], [`ChunkReshuffleLoader::new`] | all `R + 1` | — |
//! | `….reading(&model.hops_read())` | the listed hops; the rest arrive `0 × 0` at their index | `Trainer::fit` |
//! | [`BaselineLoader`], [`FusedGatherLoader`] | all `R + 1` (reference generations) | — |
//! | storage loaders, [`DoubleBufferLoader::over_source`] | all `R + 1` (no workload trains a hop-selective model from a store) | — |
//!
//! Selection never changes batch order, `indices` or `labels` for a seed,
//! `PpBatch::hops.len()` stays `R + 1`, and [`LoaderCounters`] count only
//! what was gathered.

mod baseline;
mod chunk;
mod fused;
mod prefetch;
mod sharded;
mod storage;

pub use baseline::BaselineLoader;
pub use chunk::ChunkReshuffleLoader;
pub use fused::FusedGatherLoader;
pub use prefetch::DoubleBufferLoader;
pub use sharded::ShardedStorageChunkLoader;
pub use storage::StorageChunkLoader;

use ppgnn_dataio::DataIoError;

use ppgnn_tensor::Matrix;
use rand::rngs::StdRng;
use rand::Rng;

/// One training minibatch: hop features and labels for `indices` rows of
/// the training partition.
#[derive(Debug, Clone, PartialEq)]
pub struct PpBatch {
    /// Row indices (into the training partition) this batch covers.
    pub indices: Vec<usize>,
    /// `R + 1` hop matrices, `indices.len() x F` each — except hops a
    /// hop-selective loader was told its consumer does not read, which
    /// are `0 x 0` at their usual index.
    pub hops: Vec<Matrix>,
    /// Labels aligned with rows.
    pub labels: Vec<u32>,
}

impl PpBatch {
    /// Number of examples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` for an empty batch (never yielded by loaders).
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }
}

/// Work counters a loader accumulates over an epoch — the measured
/// quantities the performance plane replays (ops ↔ kernel launches,
/// bytes ↔ bandwidth × time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LoaderCounters {
    /// Gather/copy operations issued (per-row for the baseline, per-hop
    /// for fused generations, per-chunk for chunked generations).
    pub gather_ops: u64,
    /// Feature bytes assembled (gathered hops only).
    pub bytes_assembled: u64,
    /// Batches yielded.
    pub batches: u64,
}

/// A PP-GNN minibatch source.
///
/// Usage per epoch: call [`Loader::start_epoch`], then drain
/// [`Loader::next_batch`] until `None`.
pub trait Loader {
    /// Begins a new epoch (reshuffles indices; may spawn worker threads).
    fn start_epoch(&mut self);

    /// Yields the next batch, or `None` when the epoch is exhausted.
    fn next_batch(&mut self) -> Option<PpBatch>;

    /// Batches per epoch (including a trailing partial batch).
    fn num_batches(&self) -> usize;

    /// Accumulated work counters.
    fn counters(&self) -> LoaderCounters;

    /// Takes the error (if any) that ended the current epoch early.
    ///
    /// Synchronous in-memory loaders cannot fail and return `None` (the
    /// default). Storage-backed loaders park the first I/O failure here
    /// after [`Loader::next_batch`] returns `None`, and threaded loaders
    /// ([`DoubleBufferLoader`]) park producer-side failures the same way;
    /// the trainer checks this slot when the epoch drains so a truncated
    /// store or dead producer fails the run cleanly instead of being
    /// mistaken for a completed epoch.
    fn take_error(&mut self) -> Option<String> {
        None
    }

    /// Stable display name.
    fn name(&self) -> &'static str;
}

/// A fallible epoch-batched source that can run behind the
/// [`DoubleBufferLoader`] producer thread.
///
/// This is the composition seam between the generation-2 prefetch
/// pipeline and the generation-3 storage loaders: the producer thread
/// drives `try_next_batch` and forwards each `Result` over the bounded
/// channel, so storage errors propagate batch-by-batch instead of killing
/// the producer. Implementations must be `Send` (the source crosses into
/// the producer thread each epoch and is handed back when it ends).
/// Method names are deliberately distinct from [`Loader`]'s so types
/// implementing both stay unambiguous at call sites.
pub trait BatchSource: Send + std::fmt::Debug {
    /// Begins a new epoch (reshuffles the read order).
    fn begin_epoch(&mut self);

    /// Yields the next batch: `Ok(None)` ends the epoch, `Err` surfaces a
    /// storage failure.
    ///
    /// # Errors
    ///
    /// Propagates [`DataIoError`] from the underlying reads.
    fn try_next(&mut self) -> Result<Option<PpBatch>, DataIoError>;

    /// Batches per epoch (including a trailing partial batch).
    fn batches_per_epoch(&self) -> usize;

    /// Accumulated work counters.
    fn source_counters(&self) -> LoaderCounters;
}

/// One read-but-not-fully-emitted chunk: its rows' global ids (in stored
/// order) and one matrix per hop.
#[derive(Debug)]
pub(crate) struct PendingChunk {
    pub(crate) rows: Vec<usize>,
    pub(crate) hops: Vec<Matrix>,
}

/// Carries rows across batch boundaries for the chunk-reading storage
/// loaders, so `batch_size` need not divide `chunk_size`: read chunks sit
/// untouched in a deque and a row cursor walks the front chunk, so
/// assembling a batch copies exactly `batch_size` rows — never the whole
/// pending buffer (the O(pending²) re-stacking bug class this machinery
/// replaced). Shared by [`StorageChunkLoader`] and
/// [`ShardedStorageChunkLoader`] so a fix lands in both.
#[derive(Debug, Default)]
pub(crate) struct ChunkBatcher {
    pending: std::collections::VecDeque<PendingChunk>,
    /// Rows of `pending.front()` already emitted.
    cursor: usize,
    /// Total unemitted rows across `pending` (accounting for `cursor`).
    pending_rows: usize,
}

impl ChunkBatcher {
    /// Drops all carried rows (a new epoch).
    pub(crate) fn reset(&mut self) {
        self.pending.clear();
        self.cursor = 0;
        self.pending_rows = 0;
    }

    /// Unemitted rows currently buffered.
    pub(crate) fn pending_rows(&self) -> usize {
        self.pending_rows
    }

    /// Buffers one freshly read chunk.
    pub(crate) fn push(&mut self, chunk: PendingChunk) {
        self.pending_rows += chunk.rows.len();
        self.pending.push_back(chunk);
    }

    /// Assembles exactly `take` rows (`take <= pending_rows()`) into one
    /// `take × cols` matrix per hop plus the rows' global indices, with
    /// one contiguous copy per (hop, chunk segment).
    pub(crate) fn assemble(
        &mut self,
        take: usize,
        num_hops: usize,
        cols: usize,
    ) -> (Vec<Matrix>, Vec<usize>) {
        debug_assert!(
            take <= self.pending_rows,
            "cannot assemble more than buffered"
        );
        let mut hops: Vec<Matrix> = (0..num_hops).map(|_| Matrix::zeros(take, cols)).collect();
        let mut indices = Vec::with_capacity(take);
        let mut filled = 0;
        while filled < take {
            let chunk = self.pending.front().expect("pending_rows > 0");
            let avail = chunk.rows.len() - self.cursor;
            let run = avail.min(take - filled);
            for (out, src) in hops.iter_mut().zip(&chunk.hops) {
                out.as_mut_slice()[filled * cols..(filled + run) * cols].copy_from_slice(
                    &src.as_slice()[self.cursor * cols..(self.cursor + run) * cols],
                );
            }
            indices.extend_from_slice(&chunk.rows[self.cursor..self.cursor + run]);
            filled += run;
            self.cursor += run;
            if self.cursor == chunk.rows.len() {
                self.pending.pop_front();
                self.cursor = 0;
            }
        }
        self.pending_rows -= take;
        (hops, indices)
    }
}

/// Per-hop gather mask of a hop-selective loader: `mask[r]` is `true`
/// when hop `r` is in `hops`.
///
/// # Panics
///
/// Panics if a listed hop is not below `num_hops`.
pub(crate) fn read_mask(num_hops: usize, hops: &[usize]) -> Vec<bool> {
    let mut mask = vec![false; num_hops];
    for &r in hops {
        assert!(r < num_hops, "hop {r} out of range (0..{num_hops})");
        mask[r] = true;
    }
    mask
}

/// Fisher–Yates permutation of `0..n` — shared by every loader so equal
/// seeds give equal batch streams (SGD-RR order).
pub(crate) fn permutation(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        idx.swap(i, j);
    }
    idx
}

/// Chunk-blocked permutation: shuffles **chunk ids** with the same
/// Fisher–Yates, then expands to row indices. With `chunk_size == 1` this
/// is exactly [`permutation`] — SGD-CR degenerates to SGD-RR, which the
/// tests assert.
pub(crate) fn chunk_permutation(n: usize, chunk_size: usize, rng: &mut StdRng) -> Vec<usize> {
    assert!(chunk_size > 0, "chunk size must be positive");
    let num_chunks = n.div_ceil(chunk_size);
    let chunk_order = permutation(num_chunks, rng);
    let mut out = Vec::with_capacity(n);
    for c in chunk_order {
        let start = c * chunk_size;
        let end = (start + chunk_size).min(n);
        out.extend(start..end);
    }
    out
}

/// Shared fixtures for loader unit tests.
#[cfg(test)]
pub(crate) mod tests_support {
    use std::sync::Arc;

    use ppgnn_tensor::Matrix;

    use crate::preprocess::PrepropFeatures;

    /// A deterministic partition of `n` rows, `hops + 1` hop matrices of
    /// width `f`; cell `(k, r, c) = k·10⁶ + r·10³ + c`.
    pub(crate) fn tiny_features(n: usize, hops: usize, f: usize) -> PrepropFeatures {
        PrepropFeatures {
            hops: (0..=hops)
                .map(|k| {
                    Arc::new(Matrix::from_fn(n, f, move |r, c| {
                        (k * 1_000_000 + r * 1_000 + c) as f32
                    }))
                })
                .collect(),
            labels: (0..n).map(|r| (r % 5) as u32).collect(),
            node_ids: (0..n).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn permutation_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(1);
        let p = permutation(100, &mut rng);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn chunk_permutation_keeps_chunks_contiguous() {
        let mut rng = StdRng::seed_from_u64(2);
        let p = chunk_permutation(10, 3, &mut rng);
        assert_eq!(p.len(), 10);
        // every aligned chunk appears as a contiguous run
        for run in p.chunks(3) {
            for w in run.windows(2) {
                if w[0] % 3 != 2 && w[0] / 3 == w[1] / 3 {
                    assert_eq!(w[1], w[0] + 1);
                }
            }
        }
        let mut sorted = p;
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn chunk_size_one_equals_rr() {
        let p1 = permutation(50, &mut StdRng::seed_from_u64(7));
        let p2 = chunk_permutation(50, 1, &mut StdRng::seed_from_u64(7));
        assert_eq!(p1, p2);
    }

    #[test]
    fn chunk_size_n_is_identity_modulo_rotation() {
        let mut rng = StdRng::seed_from_u64(3);
        let p = chunk_permutation(10, 10, &mut rng);
        assert_eq!(p, (0..10).collect::<Vec<_>>());
    }
}
