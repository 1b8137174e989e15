//! The loaders-are-interchangeable property: every generation yields the
//! identical batch stream for a fixed seed (chunked loading with
//! `chunk_size = 1`), so the Section 4 optimizations change *mechanics*,
//! not *semantics*.

mod common;

use common::{drain, train_partition};
use ppgnn_core::loader::{
    BaselineLoader, ChunkReshuffleLoader, DoubleBufferLoader, FusedGatherLoader, Loader,
};

#[test]
fn all_generations_yield_identical_streams() {
    let data = train_partition();
    const SEED: u64 = 1234;
    const BATCH: usize = 37; // deliberately not dividing the partition

    let mut loaders: Vec<Box<dyn Loader>> = vec![
        Box::new(BaselineLoader::new(data.clone(), BATCH, SEED)),
        Box::new(FusedGatherLoader::new(data.clone(), BATCH, SEED)),
        Box::new(DoubleBufferLoader::new(data.clone(), BATCH, SEED)),
        Box::new(ChunkReshuffleLoader::new(data.clone(), BATCH, 1, SEED)),
    ];
    let reference = drain(loaders[0].as_mut());
    assert!(!reference.is_empty());
    for loader in loaders[1..].iter_mut() {
        let stream = drain(loader.as_mut());
        assert_eq!(
            stream.len(),
            reference.len(),
            "{} batch count",
            loader.name()
        );
        for (a, b) in reference.iter().zip(&stream) {
            assert_eq!(a.indices, b.indices, "{} indices differ", loader.name());
            assert_eq!(a.labels, b.labels, "{} labels differ", loader.name());
            for (ha, hb) in a.hops.iter().zip(&b.hops) {
                assert_eq!(ha, hb, "{} features differ", loader.name());
            }
        }
    }
}

/// A full epoch, an epoch abandoned after its first batch, a full epoch.
fn two_epochs_around_an_abandoned_one(loader: &mut dyn Loader) -> Vec<ppgnn_core::PpBatch> {
    let mut stream = drain(loader);
    loader.start_epoch();
    stream.extend(loader.next_batch());
    stream.extend(drain(loader)); // `drain` restarts: the epoch above is abandoned
    stream
}

#[test]
fn hop_selective_loaders_deliver_the_same_stream_minus_unread_hops() {
    let data = train_partition();
    const SEED: u64 = 77;
    const BATCH: usize = 37;
    let (n, f, num_hops) = (data.len(), data.hops[0].cols(), data.hops.len());
    let per_epoch = n.div_ceil(BATCH);
    assert!(
        !n.is_multiple_of(BATCH),
        "the stream must end on a short batch"
    );
    assert!(
        per_epoch > 5,
        "the abandoned epoch must stay clear of the short batch"
    );

    type Build =
        fn(&std::sync::Arc<ppgnn_core::PrepropFeatures>, Option<&[usize]>) -> Box<dyn Loader>;
    let double_buffer: Build = |data, reading| {
        let l = DoubleBufferLoader::new(data.clone(), BATCH, SEED);
        Box::new(match reading {
            Some(hops) => l.reading(hops),
            None => l,
        })
    };
    let chunk: Build = |data, reading| {
        let l = ChunkReshuffleLoader::new(data.clone(), BATCH, 16, SEED);
        Box::new(match reading {
            Some(hops) => l.reading(hops),
            None => l,
        })
    };

    for reading in [
        vec![num_hops - 1],
        vec![0, num_hops - 1],
        (0..num_hops).collect(),
    ] {
        for build in [double_buffer, chunk] {
            let (mut full, mut selective) = (build(&data, None), build(&data, Some(&reading)));
            let name = full.name();
            let want = two_epochs_around_an_abandoned_one(full.as_mut());
            let got = two_epochs_around_an_abandoned_one(selective.as_mut());
            assert_eq!(got.len(), want.len(), "{name} batch count");
            assert_eq!(got.len(), 2 * per_epoch + 1);
            for (a, b) in want.iter().zip(&got) {
                assert_eq!(a.indices, b.indices, "{name} indices differ");
                assert_eq!(a.labels, b.labels, "{name} labels differ");
                assert_eq!(b.hops.len(), num_hops, "{name} hop slots");
                for r in 0..num_hops {
                    if reading.contains(&r) {
                        let same = a.hops[r].shape() == b.hops[r].shape()
                            && (a.hops[r].as_slice().iter())
                                .zip(b.hops[r].as_slice())
                                .all(|(x, y)| x.to_bits() == y.to_bits());
                        assert!(same, "{name} hop {r} differs");
                    } else {
                        assert_eq!(b.hops[r].shape(), (0, 0), "{name} unread hop {r} was moved");
                    }
                }
            }

            // Counters count what was gathered, exactly. How far the
            // double buffer's producer ran into the abandoned epoch is a
            // race, so each loader is held to its own batch count: every
            // batch of that epoch it did assemble was a full one.
            for (loader, gathered) in [(&full, num_hops), (&selective, reading.len())] {
                let c = loader.counters();
                let rows = 2 * n + BATCH * (c.batches as usize - 2 * per_epoch);
                assert_eq!(
                    c.bytes_assembled,
                    (gathered * rows * f * 4) as u64,
                    "{name} bytes for {gathered} of {num_hops} hops"
                );
            }
            let (cf, cs) = (full.counters(), selective.counters());
            if name == "double-buffer" {
                // One fused gather per gathered hop per batch.
                assert_eq!(cf.gather_ops, cf.batches * num_hops as u64);
                assert_eq!(cs.gather_ops, cs.batches * reading.len() as u64);
            } else {
                // Synchronous: both saw the same batches, hence the same runs.
                assert_eq!(cs.batches, cf.batches);
                assert_eq!(
                    cs.gather_ops * num_hops as u64,
                    cf.gather_ops * reading.len() as u64,
                    "{name} gather ops scale with the hops gathered"
                );
            }
        }
    }
}

#[test]
fn chunked_stream_covers_data_with_contiguous_runs() {
    let data = train_partition();
    let n = data.len();
    let mut loader = ChunkReshuffleLoader::new(data, 64, 16, 99);
    loader.start_epoch();
    let mut seen = Vec::new();
    while let Some(b) = loader.next_batch() {
        // runs of 16 consecutive indices (except chunk tails)
        for window in b.indices.windows(2) {
            let same_chunk = window[0] / 16 == window[1] / 16;
            if same_chunk {
                assert_eq!(window[1], window[0] + 1, "intra-chunk order broken");
            }
        }
        seen.extend(b.indices);
    }
    seen.sort_unstable();
    assert_eq!(seen, (0..n).collect::<Vec<_>>());
}

#[test]
fn different_seeds_give_different_orders_same_coverage() {
    let data = train_partition();
    let n = data.len();
    let mut a = FusedGatherLoader::new(data.clone(), 50, 1);
    let mut b = FusedGatherLoader::new(data, 50, 2);
    let sa = drain(&mut a);
    let sb = drain(&mut b);
    assert_ne!(sa[0].indices, sb[0].indices);
    let cover = |s: &[ppgnn_core::PpBatch]| {
        let mut v: Vec<usize> = s.iter().flat_map(|b| b.indices.clone()).collect();
        v.sort_unstable();
        v
    };
    assert_eq!(cover(&sa), (0..n).collect::<Vec<_>>());
    assert_eq!(cover(&sa), cover(&sb));
}

#[test]
fn counters_expose_the_optimization_mechanism() {
    // gather ops: baseline = rows×hops, fused = batches×hops — the
    // kernel-launch reduction of Section 4.1 as a measured invariant.
    let data = train_partition();
    let hops = data.hops.len() as u64;
    let n = data.len() as u64;
    let mut base = BaselineLoader::new(data.clone(), 100, 5);
    let mut fused = FusedGatherLoader::new(data, 100, 5);
    drain(&mut base);
    drain(&mut fused);
    assert_eq!(base.counters().gather_ops, n * hops);
    assert_eq!(fused.counters().gather_ops, n.div_ceil(100) * hops);
    assert_eq!(
        base.counters().bytes_assembled,
        fused.counters().bytes_assembled,
        "same bytes move either way"
    );
}
