//! Tests of the per-row gather of generation 0: a `MemoryLoader` of
//! `LoaderKind::Baseline`.

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use crate::loader::tests_support::tiny_features;
    use crate::loader::{Loader, LoaderKind, MemoryLoader};

    fn baseline(data: Arc<crate::PrepropFeatures>, batch: usize, seed: u64) -> MemoryLoader {
        MemoryLoader::new(data, batch, LoaderKind::Baseline, seed)
    }

    #[test]
    fn covers_every_row_exactly_once_per_epoch() {
        let data = Arc::new(tiny_features(23, 3, 2));
        let mut l = baseline(data, 5, 0);
        l.start_epoch();
        let mut seen = Vec::new();
        while let Some(b) = l.next_batch() {
            assert!(b.len() <= 5);
            seen.extend(b.indices);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..23).collect::<Vec<_>>());
        assert_eq!(l.num_batches(), 5);
    }

    #[test]
    fn batch_contents_match_source_rows() {
        let data = Arc::new(tiny_features(10, 2, 3));
        let mut l = baseline(data.clone(), 4, 1);
        l.start_epoch();
        let b = l.next_batch().unwrap();
        for (k, hop) in b.hops.iter().enumerate() {
            for (r, &idx) in b.indices.iter().enumerate() {
                assert_eq!(hop.row(r), data.hops[k].row(idx));
            }
        }
        for (r, &idx) in b.indices.iter().enumerate() {
            assert_eq!(b.labels[r], data.labels[idx]);
        }
    }

    #[test]
    fn counters_reflect_per_row_ops() {
        let data = Arc::new(tiny_features(8, 2, 4));
        let mut l = baseline(data, 8, 2);
        l.start_epoch();
        l.next_batch().unwrap();
        let c = l.counters();
        assert_eq!(c.gather_ops, 8 * 3); // rows × (hops+1)
        assert_eq!(c.batches, 1);
    }

    #[test]
    fn epochs_reshuffle() {
        let data = Arc::new(tiny_features(64, 1, 2));
        let mut l = baseline(data, 64, 3);
        l.start_epoch();
        let first = l.next_batch().unwrap().indices;
        l.start_epoch();
        let second = l.next_batch().unwrap().indices;
        assert_ne!(first, second, "consecutive epochs should differ");
    }
}
