//! Tests of chunk reshuffling, generation 3 (SGD-CR): a `MemoryLoader`
//! of `LoaderKind::Chunk`, one copy per contiguous run.

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use crate::loader::memory::contiguous_runs;
    use crate::loader::tests_support::tiny_features;
    use crate::loader::{Loader, LoaderKind, MemoryLoader};

    fn chunked(
        data: Arc<crate::PrepropFeatures>,
        batch: usize,
        chunk_size: usize,
        seed: u64,
    ) -> MemoryLoader {
        MemoryLoader::new(data, batch, LoaderKind::Chunk { chunk_size }, seed)
    }

    #[test]
    fn chunk_size_one_matches_rr_loaders() {
        let data = Arc::new(tiny_features(27, 2, 3));
        let mut rr = MemoryLoader::new(data.clone(), 6, LoaderKind::DoubleBuffer, 11);
        let mut cr = chunked(data, 6, 1, 11);
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
    fn recycling_reuses_the_spare_and_keeps_the_stream() {
        // A hop-selective loader recycling every batch — after the first,
        // a batch of every hop from a reference loader, so the spare
        // carries data in a hop this loader does not read — yields what
        // a loader that recycles nothing yields, in the same buffers.
        let data = Arc::new(tiny_features(27, 2, 3));
        let mut fresh = chunked(data.clone(), 6, 4, 5).reading(&[1]);
        let mut recycled = chunked(data.clone(), 6, 4, 5).reading(&[1]);
        let mut everything = MemoryLoader::new(data, 6, LoaderKind::DoubleBuffer, 5);
        everything.start_epoch();
        for _ in 0..2 {
            fresh.start_epoch();
            recycled.start_epoch();
            let mut spare = everything.next_batch();
            while let Some(x) = fresh.next_batch() {
                let ptr = spare.as_ref().map(|b| b.hops[1].as_slice().as_ptr());
                if let Some(b) = spare.take() {
                    recycled.recycle(b);
                }
                let y = recycled.next_batch().expect("same batch count");
                assert_eq!(x, y);
                assert!(y.hops[0].is_empty() && y.hops[2].is_empty());
                if let Some(ptr) = ptr {
                    assert_eq!(
                        y.hops[1].as_slice().as_ptr(),
                        ptr,
                        "the spare was not reused"
                    );
                }
                spare = Some(y);
            }
            assert!(recycled.next_batch().is_none());
        }
    }

    #[test]
    fn covers_all_rows_with_chunked_order() {
        let data = Arc::new(tiny_features(50, 1, 2));
        let mut l = chunked(data, 12, 8, 3);
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
        let mut l = chunked(data.clone(), 10, 5, 7);
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
        let mut cr = chunked(data.clone(), 16, 16, 5);
        cr.start_epoch();
        while cr.next_batch().is_some() {}
        // batch == chunk → 1 run per hop per batch, same op count as fused;
        // the real difference is each op is a *contiguous* copy.
        assert_eq!(cr.counters().gather_ops, 4 * 2);
        // with tiny chunks, ops grow
        let mut small = chunked(data, 16, 2, 5);
        small.start_epoch();
        while small.next_batch().is_some() {}
        assert!(small.counters().gather_ops > cr.counters().gather_ops);
    }

    #[test]
    fn contiguous_runs_detects_runs() {
        let runs = |indices: &[usize]| contiguous_runs(indices).collect::<Vec<_>>();
        assert_eq!(runs(&[3, 4, 5, 9, 0, 1]), vec![(3, 3), (9, 1), (0, 2)]);
        assert_eq!(runs(&[]), vec![]);
        assert_eq!(runs(&[7]), vec![(7, 1)]);
    }
}
