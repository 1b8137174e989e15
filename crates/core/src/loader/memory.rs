use std::sync::Arc;

use ppgnn_dataio::DataIoError;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::loader::{
    chunk_permutation, read_mask, FailureLatch, Loader, LoaderCounters, LoaderKind, PpBatch,
};
use crate::preprocess::PrepropFeatures;

/// Every in-memory loader generation (Sections 4.1–4.2): batches of a
/// training partition whose hops sit in memory, gathered and ordered as
/// its [`LoaderKind`] says.
///
/// All kinds share one machinery; only how a hop is filled differs:
///
/// * **order** — each epoch shuffles chunk ids of `chunk_size` rows and
///   expands them to rows: SGD-CR for [`LoaderKind::Chunk`], and for the
///   other kinds chunk size 1, which is exactly the SGD-RR row shuffle;
/// * **the row check** — a batch row past the partition's hop rows (a
///   corrupt partition with more labels than hop rows) is caught before
///   any row moves and reported as a located
///   [`DataIoError::OutOfRange`]: the first failure is latched until
///   [`Loader::start_epoch`], [`MemoryLoader::try_next_batch`] reports it,
///   the infallible [`Loader`] API ends the epoch, and
///   [`Loader::take_error`] hands the message to the trainer;
/// * **circulation** — [`Loader::recycle`] keeps up to two handed-back
///   batches, across epochs, and each batch is filled into a spare's
///   buffers as they are: once a full batch has been seen, no allocation
///   and no zero-fill. With no spare, a batch is allocated;
/// * **hop selection** — [`MemoryLoader::reading`] narrows the hops
///   gathered and counted, for every kind.
///
/// Per read hop of a batch, [`LoaderKind::Baseline`] issues one copy per
/// row, [`LoaderKind::DoubleBuffer`] one pooled row gather
/// ([`ppgnn_tensor::Matrix::gather_rows_into`]) on the calling thread, and
/// [`LoaderKind::Chunk`] one copy per contiguous run of rows; the
/// [`LoaderCounters`] count exactly those operations.
#[derive(Debug)]
pub struct MemoryLoader {
    data: Arc<PrepropFeatures>,
    batch_size: usize,
    kind: LoaderKind,
    rng: StdRng,
    /// `read[r]`: gather hop `r` (all `true` unless
    /// [`MemoryLoader::reading`] narrowed it).
    read: Vec<bool>,
    /// This epoch's row order and the start of the next batch in it.
    order: Vec<usize>,
    cursor: usize,
    /// Handed-back batches, at most [`SPARES`].
    spares: Vec<PpBatch>,
    counters: LoaderCounters,
    latch: FailureLatch,
}

/// Handed-back batches a [`MemoryLoader`] keeps: one carries every batch
/// of a consumer that recycles each before asking for the next
/// (`Trainer::fit`), the second one a consumer that holds a batch across
/// the next.
pub(super) const SPARES: usize = 2;

impl MemoryLoader {
    /// Creates a loader of `kind` over in-memory features, shuffling with
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`, `data` is empty, or `kind` is a
    /// [`LoaderKind::Chunk`] of size 0.
    pub fn new(data: Arc<PrepropFeatures>, batch_size: usize, kind: LoaderKind, seed: u64) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        assert!(
            kind != (LoaderKind::Chunk { chunk_size: 0 }),
            "chunk size must be positive"
        );
        assert!(!data.is_empty(), "cannot iterate an empty partition");
        let read = vec![true; data.hops.len()];
        MemoryLoader {
            data,
            batch_size,
            kind,
            rng: StdRng::seed_from_u64(seed),
            read,
            order: Vec::new(),
            cursor: 0,
            spares: Vec::with_capacity(SPARES),
            counters: LoaderCounters::default(),
            latch: FailureLatch::default(),
        }
    }

    /// Tells the loader which hops its consumer reads
    /// (`PpModel::hops_read`): only those are gathered and counted, the
    /// rest are delivered as `0 x 0` matrices at their usual index. Batch
    /// order, `indices` and `labels` are unaffected.
    ///
    /// # Panics
    ///
    /// Panics if a listed hop is out of range for the partition.
    pub fn reading(mut self, hops: &[usize]) -> Self {
        self.read = read_mask(self.data.hops.len(), hops);
        self
    }

    /// Fallible batch path: `Ok(None)` ends the epoch, `Err` surfaces the
    /// epoch's first failure, latched until [`Loader::start_epoch`], so a
    /// retrying caller cannot resume a stream with batches missing.
    ///
    /// # Errors
    ///
    /// [`DataIoError::OutOfRange`] naming a batch row past the partition's
    /// hop rows.
    pub fn try_next_batch(&mut self) -> Result<Option<PpBatch>, DataIoError> {
        self.latch.check()?;
        if self.cursor == self.order.len() {
            return Ok(None);
        }
        let (start, end) = (
            self.cursor,
            (self.cursor + self.batch_size).min(self.order.len()),
        );
        self.cursor = end;
        let rows = self.data.hops[0].rows();
        if let Some(&row) = self.order[start..end].iter().find(|&&i| i >= rows) {
            return Err(self.latch.fail(DataIoError::OutOfRange(format!(
                "batch row {row} is past the partition's {rows} hop rows"
            ))));
        }
        Ok(Some(self.assemble_in_place(start, end)))
    }

    /// Fills rows `order[start..end]` into a spare (or a fresh batch),
    /// one match arm per kind, and counts the work. Every row is below
    /// the hop rows (the caller checked).
    fn assemble_in_place(&mut self, start: usize, end: usize) -> PpBatch {
        let (data, kind, counters) = (&*self.data, self.kind, &mut self.counters);
        let indices = &self.order[start..end];
        let f = data.hops[0].cols();
        let mut batch = self.spares.pop().unwrap_or_default();
        batch.fill_rows(data, indices, &self.read, |r, out| {
            let src = &data.hops[r];
            match kind {
                LoaderKind::Baseline => {
                    for (i, &row) in indices.iter().enumerate() {
                        out.row_mut(i).copy_from_slice(src.row(row));
                    }
                    counters.gather_ops += indices.len() as u64;
                }
                LoaderKind::DoubleBuffer => {
                    src.gather_rows_into(indices, out);
                    counters.gather_ops += 1;
                }
                LoaderKind::Chunk { .. } => {
                    // The runs tile the batch, so every element is written.
                    let (src, dst) = (src.as_slice(), out.as_mut_slice());
                    let mut at = 0;
                    for (row, len) in contiguous_runs(indices) {
                        dst[at * f..(at + len) * f].copy_from_slice(&src[row * f..(row + len) * f]);
                        at += len;
                        counters.gather_ops += 1;
                    }
                }
            }
            counters.bytes_assembled += (indices.len() * f * 4) as u64;
        });
        counters.batches += 1;
        batch
    }
}

impl Loader for MemoryLoader {
    fn start_epoch(&mut self) {
        let chunk_size = match self.kind {
            LoaderKind::Chunk { chunk_size } => chunk_size,
            LoaderKind::Baseline | LoaderKind::DoubleBuffer => 1,
        };
        self.order = chunk_permutation(self.data.len(), chunk_size, &mut self.rng);
        self.cursor = 0;
        self.latch = FailureLatch::default();
    }

    fn next_batch(&mut self) -> Option<PpBatch> {
        // An Err is latched by try_next_batch and parked for take_error.
        self.try_next_batch().unwrap_or_default()
    }

    fn num_batches(&self) -> usize {
        self.data.len().div_ceil(self.batch_size)
    }

    fn counters(&self) -> LoaderCounters {
        self.counters
    }

    fn recycle(&mut self, batch: PpBatch) {
        if self.spares.len() < SPARES {
            self.spares.push(batch);
        }
    }

    fn take_error(&mut self) -> Option<String> {
        self.latch.take()
    }

    fn name(&self) -> &'static str {
        match self.kind {
            LoaderKind::Baseline => "baseline",
            LoaderKind::DoubleBuffer => "double-buffer",
            LoaderKind::Chunk { .. } => "chunk-reshuffle",
        }
    }
}

/// `(start, len)` runs of consecutive values in an index list.
pub(super) fn contiguous_runs(indices: &[usize]) -> impl Iterator<Item = (usize, usize)> + '_ {
    indices
        .chunk_by(|a, b| *b == a + 1)
        .map(|run| (run[0], run.len()))
}

/// The frozen benchmark adapter's name for a chunk-reshuffling
/// [`MemoryLoader`]; it constructs nothing of its own (ROADMAP item 4(c)
/// lists it for deletion).
#[derive(Debug)]
pub enum ChunkReshuffleLoader {}

impl ChunkReshuffleLoader {
    /// `MemoryLoader::new(data, batch_size, LoaderKind::Chunk { chunk_size }, seed)`.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(
        data: Arc<PrepropFeatures>,
        batch_size: usize,
        chunk_size: usize,
        seed: u64,
    ) -> MemoryLoader {
        MemoryLoader::new(data, batch_size, LoaderKind::Chunk { chunk_size }, seed)
    }
}
