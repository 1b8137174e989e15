//! The data-loader generations of Section 4, as three loader types.
//!
//! The paper's in-memory generations (§4.1–4.2) are two choices over one
//! source: how a batch is gathered and in which order its rows come. One
//! [`MemoryLoader`] makes both, by [`LoaderKind`]. Storage has its own
//! loader, and a producer thread can overlap its reads with training.
//!
//! | Generation | Built as | Mechanism |
//! |---|---|---|
//! | 0 baseline | [`MemoryLoader`], [`LoaderKind::Baseline`] | one copy **per (row, hop)** (PyTorch-DataLoader behaviour) |
//! | 1–2 fused gather, double buffer | [`MemoryLoader`], [`LoaderKind::DoubleBuffer`] | one pooled row gather per hop, in place on the step's cores |
//! | 3 chunked | [`MemoryLoader`], [`LoaderKind::Chunk`] | chunk-level shuffle, one copy per contiguous run |
//! | 3p storage | [`ShardedStorageChunkLoader`] | chunk reads from the on-disk store, fanned out across its partition stores |
//! | 2 ∘ 3p | [`DoubleBufferLoader::over_source`] | any [`BatchSource`] on a producer thread behind a bounded(2) channel |
//!
//! All loaders yield the same [`PpBatch`] stream for a fixed seed (pinned
//! by the `loader_equivalence` integration test), so swapping generations
//! changes *how* bytes move, never *what* the model sees — except chunk
//! reshuffling with `chunk_size > 1`, which is the paper's deliberate
//! relaxation of SGD-RR (Section 4.2, accuracy impact studied in Figure 8).
//! In memory there is nothing to overlap a gather with but the step
//! itself, which already spans the worker pool, so the in-memory double
//! buffer gathers each batch in place on the pool; only storage reads run
//! on a producer thread.
//!
//! # Hop selection
//!
//! Every constructor delivers every hop. A [`MemoryLoader`] can
//! additionally be told what its consumer reads — the paper's remedy is
//! to move fewer bytes per batch, and the cheapest byte is the one the
//! model never looks at:
//!
//! | Loader | Hops moved | Told by |
//! |---|---|---|
//! | [`MemoryLoader::new`] | all `R + 1` | — |
//! | `….reading(&model.hops_read())` | the listed hops; the rest arrive `0 × 0` at their index | `Trainer::fit`, except for [`LoaderKind::Baseline`], Figure 5's vanilla loader, which moves every hop |
//! | [`ShardedStorageChunkLoader`], [`DoubleBufferLoader::over_source`] | all `R + 1` (no workload trains a hop-selective model from a store) | — |
//!
//! Selection never changes batch order, `indices` or `labels` for a seed,
//! `PpBatch::hops.len()` stays `R + 1`, and [`LoaderCounters`] count only
//! what was gathered.
//!
//! # Circulation
//!
//! A consumer that is done with a batch may hand it back through
//! [`Loader::recycle`] (`Trainer::fit` does after every step), and a
//! loader that keeps spares refills their `indices`, `labels` and hop
//! buffers in place instead of allocating and zero-filling new ones. Every
//! element of a refilled hop is overwritten, so recycling never changes
//! the stream. `recycle` never blocks; a batch the loader has no room for
//! is dropped.
//!
//! | Loader | Keeps |
//! |---|---|
//! | [`MemoryLoader`] | up to 2 spares, across epochs; each batch is gathered into one when there is one |
//! | [`DoubleBufferLoader::over_source`], [`ShardedStorageChunkLoader`] | nothing (`recycle` drops the batch) |

// `baseline`, `fused` and `chunk` hold the tests of the `MemoryLoader`
// kinds that replaced the loaders of those names.
mod baseline;
mod chunk;
mod fused;
mod memory;
mod prefetch;
mod sharded;

pub use memory::{ChunkReshuffleLoader, MemoryLoader};
pub use prefetch::DoubleBufferLoader;
pub use sharded::ShardedStorageChunkLoader;

use ppgnn_dataio::DataIoError;
use ppgnn_tensor::Matrix;
use rand::rngs::StdRng;
use rand::Rng;

use crate::preprocess::PrepropFeatures;

/// How a [`MemoryLoader`] gathers each hop of a batch, and in which order
/// rows come: the paper's in-memory loader generations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoaderKind {
    /// Generation 0, the PyTorch-DataLoader baseline: one copy per
    /// (row, hop), the per-sample `__getitem__` pattern whose
    /// per-operation overhead Figure 6(a) shows dominating vanilla PP-GNN
    /// training. SGD-RR order.
    Baseline,
    /// Generations 1–2, fused batch assembly and double buffering: one
    /// pooled row gather per hop. On a GPU a second buffer hides the
    /// gather behind compute; here the step already spans the worker
    /// pool, so the pool is the double buffer and each batch is gathered
    /// in place when the step asks for it. Over storage
    /// ([`DoubleBufferLoader::over_source`]) a producer thread overlaps
    /// the reads with the step. SGD-RR order.
    DoubleBuffer,
    /// Generation 3, chunk reshuffling (SGD-CR, Section 4.2): chunk ids
    /// are shuffled instead of row ids, so a batch is a concatenation of
    /// contiguous row runs, one copy each (on real hardware, one bulk DMA
    /// transfer). With `chunk_size == 1` this is SGD-RR.
    Chunk {
        /// Rows per chunk.
        chunk_size: usize,
    },
}

/// One training minibatch: hop features and labels for `indices` rows of
/// the training partition.
#[derive(Debug, Clone, PartialEq, Default)]
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

    /// Re-targets this (possibly recycled) batch at rows `indices` of
    /// `data`: copies the indices and their labels, resizes every hop
    /// with `read[r]` to `indices.len() x F` **without clearing it** and
    /// hands it to `fill(r, hop)`, which must overwrite every element,
    /// and leaves every other hop `0 x 0`. Once the buffers have reached
    /// a full batch's size, refilling allocates nothing.
    pub(crate) fn fill_rows(
        &mut self,
        data: &PrepropFeatures,
        indices: &[usize],
        read: &[bool],
        mut fill: impl FnMut(usize, &mut Matrix),
    ) {
        self.indices.clear();
        self.indices.extend_from_slice(indices);
        self.labels.clear();
        self.labels.extend(indices.iter().map(|&i| data.labels[i]));
        let f = data.hops[0].cols();
        self.hops.resize_with(data.hops.len(), Matrix::default);
        for (r, (hop, &read)) in self.hops.iter_mut().zip(read).enumerate() {
            if read {
                hop.resize_to(indices.len(), f);
                fill(r, hop);
            } else if !hop.is_empty() {
                *hop = Matrix::default();
            }
        }
    }
}

/// Work counters a loader accumulates over an epoch — the measured
/// quantities the performance plane replays (ops ↔ kernel launches,
/// bytes ↔ bandwidth × time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LoaderCounters {
    /// Gather/copy operations issued, per gathered hop: one per row for
    /// the baseline, one for the fused gather, one per contiguous run for
    /// chunk reshuffling, and one per chunk read from storage.
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
    /// Begins a new epoch (reshuffles indices; a storage producer spawns
    /// its thread).
    fn start_epoch(&mut self);

    /// Yields the next batch, or `None` when the epoch is exhausted.
    fn next_batch(&mut self) -> Option<PpBatch>;

    /// Batches per epoch (including a trailing partial batch).
    fn num_batches(&self) -> usize;

    /// Accumulated work counters.
    fn counters(&self) -> LoaderCounters;

    /// Hands a consumed batch back, so its buffers can carry a later
    /// batch (see the module docs' *Circulation*). Never blocks; the
    /// batch may be dropped. Any batch is accepted — a short one, one
    /// with hops left `0 x 0`, one from an abandoned epoch or from another
    /// loader — and the stream does not change. Defaults to dropping it.
    fn recycle(&mut self, batch: PpBatch) {
        drop(batch);
    }

    /// Takes the error (if any) that ended the current epoch early.
    ///
    /// Every loader parks the first failure of an epoch here after
    /// [`Loader::next_batch`] returns `None`: a batch row past the hop
    /// rows of a corrupt in-memory partition, a storage I/O failure, or a
    /// dead producer thread. The trainer checks this slot when the epoch
    /// drains, so the failure ends the run cleanly instead of being
    /// mistaken for a completed epoch. Defaults to `None`.
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
/// pipeline and the generation-3 storage loader: the producer thread
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

/// The first failure of an epoch, latched until the loader's next
/// `start_epoch`: a failed epoch must not resume and silently train on a
/// stream with batches missing.
#[derive(Debug, Default)]
pub(crate) struct FailureLatch {
    failed: bool,
    /// The failure, until [`Loader::take_error`] hands it to the trainer.
    error: Option<DataIoError>,
}

impl FailureLatch {
    /// Latches `e`, unless an earlier failure is, and returns the latched
    /// failure.
    pub(crate) fn fail(&mut self, e: DataIoError) -> DataIoError {
        self.failed = true;
        self.error.get_or_insert(e).clone()
    }

    /// `Err` with the latched failure once the epoch has failed.
    pub(crate) fn check(&self) -> Result<(), DataIoError> {
        match (self.failed, &self.error) {
            (false, _) => Ok(()),
            (true, Some(e)) => Err(e.clone()),
            (true, None) => Err(DataIoError::Io(
                "epoch already failed; start_epoch required".into(),
            )),
        }
    }

    /// The failure's message, once.
    pub(crate) fn take(&mut self) -> Option<String> {
        self.error.take().map(|e| e.to_string())
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
