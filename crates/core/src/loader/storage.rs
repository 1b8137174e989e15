//! The single-store storage regime (Section 4.3): a plain chunked store
//! directory, as [`ppgnn_dataio::FeatureStoreWriter`] leaves it, opened by
//! [`ppgnn_dataio::FeatureStore::open`] as one partition with the identity row map
//! and read back in shuffled chunks by [`ShardedStorageChunkLoader`].
//!
//! The sharded loader's own tests build their stores with a sharded
//! manifest; these pin the plain-directory layout, whose rows are the
//! store's own rows in order.

#[cfg(test)]
mod tests {
    use std::path::PathBuf;

    use ppgnn_dataio::{AccessPath, FeatureStore, FeatureStoreWriter, StoreMeta};
    use ppgnn_tensor::Matrix;

    use crate::loader::{Loader, ShardedStorageChunkLoader};

    /// A plain store of `rows × 3` hops valued `k·10⁶ + r·10³ + c`, opened
    /// as one partition behind a loader whose label of row `r` is `r % 3`.
    fn loader(
        tag: &str,
        (rows, hops, chunk): (usize, usize, usize),
        batch: usize,
        path: AccessPath,
        seed: u64,
    ) -> (ShardedStorageChunkLoader, PathBuf) {
        let dir = std::env::temp_dir().join(format!("ppgnn-sl-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let meta = StoreMeta {
            dataset: "t".into(),
            num_hops: hops + 1,
            rows,
            cols: 3,
            chunk_size: chunk,
            dtype: ppgnn_tensor::StoreDtype::F32,
        };
        let mut w = FeatureStoreWriter::create(&dir, meta).unwrap();
        for k in 0..=hops {
            let m = Matrix::from_fn(rows, 3, move |r, c| (k * 1_000_000 + r * 1_000 + c) as f32);
            w.write_hop(k, &m).unwrap();
        }
        w.finish().unwrap();
        let store = FeatureStore::open(&dir).unwrap();
        assert_eq!(store.num_partitions(), 1);
        let labels = (0..rows).map(|r| (r % 3) as u32).collect();
        let l = ShardedStorageChunkLoader::new(store, labels, batch, path, seed);
        (l, dir)
    }

    /// Drains one epoch, checking every row's first and last hop and its
    /// label, and returns the batch sizes and the rows seen (sorted).
    fn drain(l: &mut ShardedStorageChunkLoader) -> (Vec<usize>, Vec<usize>) {
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
    fn covers_every_row_once_with_correct_contents() {
        let (mut l, dir) = loader("cover", (25, 1, 4), 7, AccessPath::Direct, 0);
        assert_eq!(drain(&mut l).1, (0..25).collect::<Vec<_>>());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reads_are_sequential_chunks_not_random_rows() {
        let (mut l, dir) = loader("seq", (32, 2, 8), 8, AccessPath::Direct, 1);
        drain(&mut l);
        let io = l.io_counters();
        assert_eq!(io.rand_requests, 0);
        assert_eq!(io.seq_requests, 4 * 3); // chunks × hop files
        assert_eq!(io.seq_bytes, (32 * 3 * 4 * 3) as u64);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bounce_path_counts_extra_copies() {
        let (mut l, dir) = loader("bounce", (16, 0, 4), 4, AccessPath::HostBounce, 2);
        drain(&mut l);
        let io = l.io_counters();
        assert_eq!(io.bounce_bytes, io.seq_bytes);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batch_size_not_dividing_chunk_size_carries_rows_over() {
        let (mut l, dir) = loader("carry", (20, 0, 6), 7, AccessPath::Direct, 3);
        let (sizes, seen) = drain(&mut l);
        assert_eq!(sizes, vec![7, 7, 6]);
        assert_eq!(seen, (0..20).collect::<Vec<_>>());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn chunk_size_not_dividing_rows_emits_short_last_chunk_rows() {
        // 23 rows / chunk 5 → chunks of 5,5,5,5,3; batch 4 crosses every
        // chunk boundary including the short tail.
        let (mut l, dir) = loader("shortlast", (23, 1, 5), 4, AccessPath::Direct, 9);
        let (sizes, seen) = drain(&mut l);
        assert_eq!(sizes, vec![4, 4, 4, 4, 4, 3]);
        assert_eq!(seen, (0..23).collect::<Vec<_>>());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn large_chunk_small_batch_copies_only_batch_rows() {
        // chunk_size ≫ batch_size: the O(pending²) regression scenario.
        // Counter semantics: bytes_assembled counts chunk reads, so it must
        // equal the store payload exactly once — no re-stacking traffic.
        let (mut l, dir) = loader("bigchunk", (64, 1, 64), 3, AccessPath::Direct, 5);
        assert_eq!(drain(&mut l).0.iter().sum::<usize>(), 64);
        assert_eq!(l.counters().bytes_assembled, (64 * 3 * 4 * 2) as u64);
        assert_eq!(l.counters().gather_ops, 2); // one read per hop file
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn epochs_reshuffle_chunk_order() {
        let (mut l, dir) = loader("shuffle", (64, 0, 4), 64, AccessPath::Direct, 4);
        l.start_epoch();
        let e1 = l.next_batch().unwrap().indices;
        l.start_epoch();
        let e2 = l.next_batch().unwrap().indices;
        assert_ne!(e1, e2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_store_fails_the_epoch_cleanly() {
        let (mut l, dir) = loader("trunc", (32, 1, 4), 4, AccessPath::Direct, 6);
        l.start_epoch();
        assert!(l.next_batch().is_some());
        // Truncate hop 1 mid-epoch: some future chunk read must fail.
        let path = dir.join("hop_1.ppgt");
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        // The infallible path ends the epoch instead of panicking...
        let mut emitted = 1;
        while l.next_batch().is_some() {
            emitted += 1;
        }
        assert!(emitted < l.num_batches(), "epoch should end early");
        // ...and parks the error for the trainer to check.
        let err = l.take_error().expect("error must be surfaced");
        assert!(!err.is_empty());
        assert!(l.take_error().is_none(), "take_error drains the slot");
        // The fallible path reports it directly on a fresh epoch.
        l.start_epoch();
        let mut result = l.try_next_batch();
        while let Ok(Some(_)) = result {
            result = l.try_next_batch();
        }
        assert!(result.is_err(), "truncated read must surface an error");
        // The failure is latched: a retry must NOT resume past the failed
        // chunk (that would silently drop its rows), and the infallible
        // path must stay ended.
        assert!(l.try_next_batch().is_err(), "failed epoch must stay failed");
        assert!(l.next_batch().is_none());
        // start_epoch clears the latch (and would re-fail on the same
        // truncated store, but from a clean slate).
        l.start_epoch();
        assert!(l.take_error().is_none(), "start_epoch resets the error");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
