//! Pins the sharded-store layout to the single-domain reference.
//!
//! A sharded store is a layout of the one diffusion engine's train hop: a
//! partition plan decides which partition store each training row lands
//! in, never what it holds:
//!
//! * at `P ∈ {1, 2, 5}` on R-MAT-skewed graphs, with mixed sym/ppr/rw
//!   operators (the series operator forces the column-block hand-over
//!   into the train-hop sink), every stored row and every returned hop must
//!   be **bit-identical** to [`Preprocessor::run`], for either partitioner;
//! * the layout table must cover the graph: rows sum to `N`, training
//!   rows to the train split, `P = 1` reaches no ghosts, and each
//!   partition's nnz and ghost rows match a naive count;
//! * every row served by the sharded feature store must be
//!   **byte-identical** (FNV digest + raw compare) to the same row of a
//!   plain store of `run`'s train hops, and at `P = 1` the lone partition
//!   store's hop files must be byte-identical to the plain store's files;
//! * the [`ShardedStorageChunkLoader`] must drive an unmodified training
//!   epoch end-to-end, covering every training row exactly once, and
//!   stream a plain store directory exactly as it streams a `P = 1`
//!   store.

use std::collections::BTreeSet;
use std::path::Path;

use preprop_gnn::core::loader::{Loader, ShardedStorageChunkLoader};
use preprop_gnn::core::preprocess::{Preprocessor, PrepropOutput};
use preprop_gnn::dataio::{AccessPath, FeatureStore, FeatureStoreWriter, StoreDtype, StoreMeta};
use preprop_gnn::graph::synth::{DatasetProfile, SynthDataset};
use preprop_gnn::graph::{BfsGrowPartitioner, Operator, Partitioner, RangeCutPartitioner};
use preprop_gnn::tensor::Matrix;

fn skewed_data() -> SynthDataset {
    // pokec-sim is R-MAT generated: heavy-tailed degrees, hub rows — the
    // case nnz-balanced partition cuts exist for.
    SynthDataset::generate(DatasetProfile::pokec_sim().scaled(0.03), 23).unwrap()
}

/// A plain (unpartitioned) store of `out`'s train hops under `dir`, in
/// the dtype a preprocessor resolves by default.
fn write_plain_store(out: &PrepropOutput, dir: &Path, chunk_size: usize) -> FeatureStore {
    let train = &out.train;
    let meta = StoreMeta {
        dataset: "pokec-sim".into(),
        num_hops: train.hops.len(),
        rows: train.len(),
        cols: train.hops[0].cols(),
        chunk_size,
        dtype: StoreDtype::from_env().expect("PPGNN_STORE_DTYPE names a store dtype"),
    };
    let mut writer = FeatureStoreWriter::create(dir, meta).unwrap();
    for (k, hop) in train.hops.iter().enumerate() {
        writer.write_hop(k, hop).unwrap();
    }
    writer.finish().unwrap()
}

fn assert_bit_identical(a: &PrepropOutput, b: &PrepropOutput, tag: &str) {
    for (part, (x, y)) in [
        ("train", (&a.train, &b.train)),
        ("val", (&a.val, &b.val)),
        ("test", (&a.test, &b.test)),
    ] {
        assert_eq!(x.labels, y.labels, "{tag}: {part} labels");
        for (r, (ha, hb)) in x.hops.iter().zip(&y.hops).enumerate() {
            let same = ha
                .as_slice()
                .iter()
                .zip(hb.as_slice())
                .all(|(u, v)| u.to_bits() == v.to_bits());
            assert!(same, "{tag}: {part} hop {r} is not bit-identical");
        }
    }
}

/// Writes a sharded f32 store of `prep` at `parts` partitions cut by
/// `partitioner`, and checks it against `reference` (an unpartitioned
/// `run` of the same preprocessor): every stored row and every returned
/// hop bit-identical, and a layout table that covers the graph with
/// naively recounted nnz and ghost rows.
fn assert_layout_matches_run(
    data: &SynthDataset,
    prep: &Preprocessor,
    reference: &PrepropOutput,
    partitioner: &dyn Partitioner,
    parts: usize,
    dir: &Path,
) {
    let tag = format!("{} P={parts}", partitioner.name());
    let (out, mut store) = prep
        .clone()
        .with_num_partitions(parts)
        .with_store_dtype(StoreDtype::F32)
        .run_with_sharded_store_using(
            data,
            partitioner,
            dir,
            "pokec-sim",
            32,
            preprop_gnn::tensor::pool(),
        )
        .unwrap();
    assert_bit_identical(reference, &out, &tag);
    let rows: Vec<usize> = (0..reference.train.len()).collect();
    for (r, hop) in reference.train.hops.iter().enumerate() {
        let stored = store.read_rows(r, &rows, AccessPath::Direct).unwrap();
        let same = stored
            .as_slice()
            .iter()
            .zip(hop.as_slice())
            .all(|(u, v)| u.to_bits() == v.to_bits());
        assert!(same, "{tag}: stored hop {r} is not bit-identical to run");
    }

    // The layout table, against a naive recount over the first operator.
    let plan = partitioner.partition(&data.graph, parts);
    let base = prep.operators()[0].base(&data.graph);
    let stats = &out.expansion.partitions;
    assert_eq!(stats.len(), plan.num_partitions(), "{tag}");
    assert!((1..=parts).contains(&stats.len()), "{tag}");
    assert_eq!(
        stats.iter().map(|s| s.rows).sum::<usize>(),
        data.graph.num_nodes(),
        "{tag}"
    );
    assert_eq!(
        stats.iter().map(|s| s.train_rows).sum::<usize>(),
        data.split.train.len(),
        "{tag}"
    );
    for (p, s) in stats.iter().enumerate() {
        let own = plan.members(p);
        let nnz: usize = own.iter().map(|&v| base.row_entries(v).count()).sum();
        let ghosts: BTreeSet<usize> = own
            .iter()
            .flat_map(|&v| base.row_entries(v).map(|(c, _)| c))
            .filter(|&c| plan.owner(c) != p)
            .collect();
        assert_eq!(s.rows, own.len(), "{tag} partition {p} rows");
        assert_eq!(s.nnz, nnz, "{tag} partition {p} nnz");
        assert_eq!(s.ghost_rows, ghosts.len(), "{tag} partition {p} ghosts");
        assert!(
            s.store_bytes > 0 || s.train_rows == 0,
            "{tag} partition {p}"
        );
    }
    if parts == 1 {
        assert_eq!(stats[0].ghost_rows, 0, "{tag}: one partition has no ghosts");
    }
}

#[test]
fn partitioned_diffusion_is_bit_identical_across_partition_counts() {
    let data = skewed_data();
    let ops = vec![
        Operator::SymNorm,
        Operator::Ppr { alpha: 0.15 },
        Operator::RowNorm,
    ];
    let prep = Preprocessor::new(ops, 3);
    let reference = prep.run(&data);
    let base = std::env::temp_dir().join(format!("ppgnn-partlayout-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    for parts in [1, 2, 5] {
        let dir = base.join(format!("p{parts}"));
        assert_layout_matches_run(&data, &prep, &reference, &RangeCutPartitioner, parts, &dir);
    }
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn bfs_grow_partitioner_matches_too() {
    let data = skewed_data();
    let prep = Preprocessor::new(vec![Operator::SymNorm, Operator::RowNorm], 2);
    let reference = prep.run(&data);
    let dir = std::env::temp_dir().join(format!("ppgnn-partbfs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    assert_layout_matches_run(&data, &prep, &reference, &BfsGrowPartitioner, 4, &dir);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sharded_store_rows_are_byte_identical_to_single_store() {
    let data = skewed_data();
    let base = std::env::temp_dir().join(format!("ppgnn-parteq-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let prep = Preprocessor::new(vec![Operator::SymNorm, Operator::RowNorm], 3);

    let mut single = write_plain_store(&prep.run(&data), &base.join("single"), 32);

    for parts in [1usize, 4] {
        let dir = base.join(format!("p{parts}"));
        let (_, mut sharded) = prep
            .clone()
            .with_num_partitions(parts)
            .run_with_sharded_store(&data, &dir, "pokec-sim", 32)
            .unwrap();
        assert_eq!(sharded.meta().rows, single.meta().rows);
        assert_eq!(sharded.meta().num_hops, 4);

        // Row-level byte identity: every global row of every hop, read
        // through the sharded mapping, digests identically to the single
        // store's row.
        let rows: Vec<usize> = (0..single.meta().rows).collect();
        for k in 0..4 {
            let a = single.read_rows(k, &rows, AccessPath::Direct).unwrap();
            let b = sharded.read_rows(k, &rows, AccessPath::Direct).unwrap();
            let bytes = |m: &preprop_gnn::tensor::Matrix| -> Vec<u8> {
                m.as_slice().iter().flat_map(|v| v.to_le_bytes()).collect()
            };
            let (ab, bb) = (bytes(&a), bytes(&b));
            assert_eq!(
                digest(&ab),
                digest(&bb),
                "hop {k} digest differs at P={parts}"
            );
            assert_eq!(ab, bb, "hop {k} digest collision with differing bytes");
        }
    }

    // P=1 degenerates to the unsharded layout: hop files byte-identical.
    for k in 0..4 {
        let name = format!("hop_{k}.ppgt");
        let a = std::fs::read(base.join("single").join(&name)).unwrap();
        let b = std::fs::read(base.join("p1").join("part_0").join(&name)).unwrap();
        assert_eq!(digest(&a), digest(&b), "{name} differs between P=1 layouts");
        assert_eq!(a, b);
    }
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn sharded_loader_drives_an_unmodified_training_epoch() {
    use preprop_gnn::models::{PpModel, Sgc};
    use preprop_gnn::nn::{CrossEntropyLoss, Mode, Optimizer, Sgd};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let data = skewed_data();
    let prep = Preprocessor::new(vec![Operator::SymNorm], 1);
    let base = std::env::temp_dir().join(format!("ppgnn-partload-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let (out, _) = prep
        .clone()
        .with_num_partitions(3)
        .run_with_sharded_store(&data, &base, "pokec-sim", 32)
        .unwrap();

    // The same training loop the storage-path tests run — nothing about
    // the model, loss, or optimizer knows the store is sharded.
    let store = FeatureStore::open(&base).unwrap();
    let mut loader =
        ShardedStorageChunkLoader::new(store, out.train.labels.clone(), 64, AccessPath::Direct, 5);
    let mut model = Sgc::new(
        1,
        data.profile.feature_dim,
        2,
        &mut StdRng::seed_from_u64(1),
    );
    let mut opt = Sgd::new(0.05);
    let mut seen = Vec::new();
    for _ in 0..2 {
        loader.start_epoch();
        let mut rows = 0;
        while let Some(batch) = loader.next_batch() {
            let logits = model.forward(&batch.hops, Mode::Train);
            let (_, grad) = CrossEntropyLoss.loss_and_grad(&logits, &batch.labels);
            model.zero_grad();
            model.backward(&grad);
            opt.step(&mut model.params());
            rows += batch.len();
            seen.extend(batch.indices.iter().copied());
        }
        assert!(loader.take_error().is_none(), "epoch must complete cleanly");
        assert_eq!(rows, out.train.len(), "every training row exactly once");
    }
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen.len(), out.train.len());
    // Reads fanned out across partition stores, sequentially.
    let io = loader.io_counters();
    assert_eq!(io.rand_requests, 0);
    assert!(loader.num_partitions() > 1);
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn plain_store_directory_streams_like_a_single_partition_store() {
    let data = skewed_data();
    let prep = Preprocessor::new(vec![Operator::SymNorm], 2);
    let base = std::env::temp_dir().join(format!("ppgnn-partstream-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let (out, sharded) = prep
        .clone()
        .with_num_partitions(1)
        .run_with_sharded_store(&data, base.join("sharded"), "pokec-sim", 16)
        .unwrap();
    write_plain_store(&out, &base.join("plain"), 16);
    let plain = FeatureStore::open(base.join("plain")).unwrap();
    assert_eq!(plain.num_partitions(), 1);

    let mut a =
        ShardedStorageChunkLoader::new(plain, out.train.labels.clone(), 48, AccessPath::Direct, 77);
    let mut b = ShardedStorageChunkLoader::new(
        sharded,
        out.train.labels.clone(),
        48,
        AccessPath::Direct,
        77,
    );
    let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    a.start_epoch();
    b.start_epoch();
    loop {
        match (a.next_batch(), b.next_batch()) {
            (None, None) => break,
            (Some(x), Some(y)) => {
                assert_eq!(x.indices, y.indices);
                assert_eq!(x.labels, y.labels);
                for (hx, hy) in x.hops.iter().zip(&y.hops) {
                    assert_eq!(bits(hx), bits(hy));
                }
            }
            _ => panic!("loaders disagree on batch count"),
        }
    }
    std::fs::remove_dir_all(&base).unwrap();
}

/// FNV-1a — a cheap stand-in for a content digest, no external deps.
fn digest(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}
