use std::sync::Arc;

use ppgnn_tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::loader::{chunk_permutation, read_mask, Loader, LoaderCounters, PpBatch};
use crate::preprocess::PrepropFeatures;

/// Generation 3: chunk reshuffling — SGD-CR (Section 4.2).
///
/// Shuffles **chunk ids** instead of row ids at epoch start, so every
/// assembled batch is a concatenation of contiguous row ranges. On real
/// hardware each range is one bulk DMA transfer and the final assembly
/// happens GPU-side at HBM bandwidth; here each range is one contiguous
/// memcpy, and the counters record chunk-granular operations (compare
/// `gather_ops` against the fused loader to see the per-batch request
/// reduction).
///
/// With `chunk_size == 1`, SGD-CR is exactly SGD-RR and the batch stream
/// matches the other loaders for an equal seed.
#[derive(Debug)]
pub struct ChunkReshuffleLoader {
    data: Arc<PrepropFeatures>,
    batch_size: usize,
    chunk_size: usize,
    rng: StdRng,
    order: Vec<usize>,
    cursor: usize,
    /// `read[r]`: copy hop `r` (all `true` unless
    /// [`ChunkReshuffleLoader::reading`] narrowed it).
    read: Vec<bool>,
    counters: LoaderCounters,
}

impl ChunkReshuffleLoader {
    /// Creates a chunk-reshuffling loader.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`, `chunk_size == 0`, or `data` is empty.
    pub fn new(
        data: Arc<PrepropFeatures>,
        batch_size: usize,
        chunk_size: usize,
        seed: u64,
    ) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        assert!(chunk_size > 0, "chunk size must be positive");
        assert!(!data.is_empty(), "cannot iterate an empty partition");
        let read = vec![true; data.hops.len()];
        ChunkReshuffleLoader {
            data,
            batch_size,
            chunk_size,
            rng: StdRng::seed_from_u64(seed),
            order: Vec::new(),
            cursor: 0,
            read,
            counters: LoaderCounters::default(),
        }
    }

    /// Tells the loader which hops its consumer reads
    /// (`PpModel::hops_read`): only those are copied and counted, the rest
    /// are delivered as `0 x 0` matrices at their usual index. Batch
    /// order, `indices` and `labels` are unaffected.
    ///
    /// # Panics
    ///
    /// Panics if a listed hop is out of range for the partition.
    pub fn reading(mut self, hops: &[usize]) -> Self {
        self.read = read_mask(self.data.hops.len(), hops);
        self
    }

    /// The configured chunk size.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }
}

impl Loader for ChunkReshuffleLoader {
    fn start_epoch(&mut self) {
        self.order = chunk_permutation(self.data.len(), self.chunk_size, &mut self.rng);
        self.cursor = 0;
    }

    fn next_batch(&mut self) -> Option<PpBatch> {
        if self.cursor >= self.order.len() {
            return None;
        }
        let end = (self.cursor + self.batch_size).min(self.order.len());
        let indices = self.order[self.cursor..end].to_vec();
        self.cursor = end;

        let f = self.data.hops[0].cols();
        // Copy contiguous runs (chunk fragments) in bulk — one operation
        // per run per hop, the chunk-transfer pattern.
        let runs = contiguous_runs(&indices);
        let mut hops = Vec::with_capacity(self.data.hops.len());
        for (src, &read) in self.data.hops.iter().zip(&self.read) {
            if !read {
                hops.push(Matrix::default());
                continue;
            }
            let mut out = Matrix::zeros(indices.len(), f);
            let mut dst_row = 0;
            for &(start, len) in &runs {
                let src_slice = &src.as_slice()[start * f..(start + len) * f];
                out.as_mut_slice()[dst_row * f..(dst_row + len) * f].copy_from_slice(src_slice);
                dst_row += len;
                self.counters.gather_ops += 1;
                self.counters.bytes_assembled += (len * f * 4) as u64;
            }
            hops.push(out);
        }
        let labels = indices.iter().map(|&i| self.data.labels[i]).collect();
        self.counters.batches += 1;
        Some(PpBatch {
            indices,
            hops,
            labels,
        })
    }

    fn num_batches(&self) -> usize {
        self.data.len().div_ceil(self.batch_size)
    }

    fn counters(&self) -> LoaderCounters {
        self.counters
    }

    fn name(&self) -> &'static str {
        "chunk-reshuffle"
    }
}

/// Collapses an index list into `(start, len)` runs of consecutive values.
fn contiguous_runs(indices: &[usize]) -> Vec<(usize, usize)> {
    let mut runs = Vec::new();
    let mut iter = indices.iter().copied();
    let Some(first) = iter.next() else {
        return runs;
    };
    let mut start = first;
    let mut len = 1;
    for idx in iter {
        if idx == start + len {
            len += 1;
        } else {
            runs.push((start, len));
            start = idx;
            len = 1;
        }
    }
    runs.push((start, len));
    runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader::tests_support::tiny_features;
    use crate::loader::FusedGatherLoader;

    #[test]
    fn chunk_size_one_matches_rr_loaders() {
        let data = Arc::new(tiny_features(27, 2, 3));
        let mut rr = FusedGatherLoader::new(data.clone(), 6, 11);
        let mut cr = ChunkReshuffleLoader::new(data, 6, 1, 11);
        rr.start_epoch();
        cr.start_epoch();
        loop {
            match (rr.next_batch(), cr.next_batch()) {
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
    fn covers_all_rows_with_chunked_order() {
        let data = Arc::new(tiny_features(50, 1, 2));
        let mut l = ChunkReshuffleLoader::new(data, 12, 8, 3);
        l.start_epoch();
        let mut seen = Vec::new();
        while let Some(b) = l.next_batch() {
            seen.extend(b.indices);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn batch_contents_are_correct_rows() {
        let data = Arc::new(tiny_features(30, 2, 2));
        let mut l = ChunkReshuffleLoader::new(data.clone(), 10, 5, 7);
        l.start_epoch();
        while let Some(b) = l.next_batch() {
            for (k, hop) in b.hops.iter().enumerate() {
                for (r, &idx) in b.indices.iter().enumerate() {
                    assert_eq!(hop.row(r), data.hops[k].row(idx), "hop {k} row {r}");
                }
            }
        }
    }

    #[test]
    fn far_fewer_ops_than_fused_when_chunks_are_large() {
        let data = Arc::new(tiny_features(64, 1, 2));
        let mut cr = ChunkReshuffleLoader::new(data.clone(), 16, 16, 5);
        cr.start_epoch();
        while cr.next_batch().is_some() {}
        // batch == chunk → 1 run per hop per batch, same op count as fused;
        // the real difference is each op is a *contiguous* copy.
        assert_eq!(cr.counters().gather_ops, 4 * 2);
        // with tiny chunks, ops grow
        let mut small = ChunkReshuffleLoader::new(data, 16, 2, 5);
        small.start_epoch();
        while small.next_batch().is_some() {}
        assert!(small.counters().gather_ops > cr.counters().gather_ops);
    }

    #[test]
    fn contiguous_runs_detects_runs() {
        assert_eq!(
            contiguous_runs(&[3, 4, 5, 9, 0, 1]),
            vec![(3, 3), (9, 1), (0, 2)]
        );
        assert_eq!(contiguous_runs(&[]), vec![]);
        assert_eq!(contiguous_runs(&[7]), vec![(7, 1)]);
    }
}
