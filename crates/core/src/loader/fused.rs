//! Tests of the fused gather of generations 1–2, one pooled row gather
//! per hop: a `MemoryLoader` of `LoaderKind::DoubleBuffer`.

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use crate::loader::tests_support::tiny_features;
    use crate::loader::{Loader, LoaderKind, MemoryLoader};

    /// One fused row gather per hop: the `DoubleBuffer` kind.
    fn fused(data: Arc<crate::PrepropFeatures>, batch: usize, seed: u64) -> MemoryLoader {
        MemoryLoader::new(data, batch, LoaderKind::DoubleBuffer, seed)
    }

    #[test]
    fn identical_stream_to_baseline_for_equal_seed() {
        let data = Arc::new(tiny_features(31, 2, 3));
        let mut a = MemoryLoader::new(data.clone(), 7, LoaderKind::Baseline, 42);
        let mut b = fused(data, 7, 42);
        a.start_epoch();
        b.start_epoch();
        loop {
            match (a.next_batch(), b.next_batch()) {
                (None, None) => break,
                (Some(x), Some(y)) => {
                    assert_eq!(x.indices, y.indices);
                    assert_eq!(x.labels, y.labels);
                    for (hx, hy) in x.hops.iter().zip(&y.hops) {
                        assert_eq!(hx, hy);
                    }
                }
                _ => panic!("loaders disagree on batch count"),
            }
        }
    }

    #[test]
    fn issues_one_op_per_hop_per_batch() {
        let data = Arc::new(tiny_features(20, 3, 2));
        let mut l = fused(data, 10, 0);
        l.start_epoch();
        while l.next_batch().is_some() {}
        let c = l.counters();
        assert_eq!(c.batches, 2);
        assert_eq!(c.gather_ops, 2 * 4); // batches × (hops+1)
    }

    #[test]
    fn partial_tail_batch_has_correct_rows() {
        let data = Arc::new(tiny_features(11, 1, 2));
        let mut l = fused(data, 4, 1);
        l.start_epoch();
        let sizes: Vec<usize> = std::iter::from_fn(|| l.next_batch().map(|b| b.len())).collect();
        assert_eq!(sizes, vec![4, 4, 3]);
    }
}
