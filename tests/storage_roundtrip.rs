//! Storage-path integration: preprocessed features written to the on-disk
//! store come back bit-exact, and the storage chunk loader produces the
//! same batch stream as the in-memory chunk loader.

use std::sync::Arc;

use ppgnn_core::loader::{Loader, LoaderKind, MemoryLoader, ShardedStorageChunkLoader};
use ppgnn_core::preprocess::Preprocessor;
use ppgnn_dataio::{AccessPath, FeatureStore};
use ppgnn_graph::synth::{DatasetProfile, SynthDataset};
use ppgnn_graph::Operator;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ppgnn-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn store_round_trip_is_bit_exact() {
    let data = SynthDataset::generate(DatasetProfile::pokec_sim().scaled(0.02), 3).unwrap();
    let dir = temp_dir("bitexact");
    let (prep, mut store) = Preprocessor::new(vec![Operator::SymNorm], 2)
        .run_with_sharded_store(&data, &dir, "pokec-sim", 32)
        .expect("store written");
    for (k, hop) in prep.train.hops.iter().enumerate() {
        let loaded = store.read_full_hop(k).expect("hop reads back");
        assert_eq!(loaded, **hop, "hop {k} differs after round trip");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn storage_loader_matches_in_memory_chunk_loader() {
    let data = SynthDataset::generate(DatasetProfile::pokec_sim().scaled(0.02), 4).unwrap();
    let dir = temp_dir("loadermatch");
    const CHUNK: usize = 16;
    const BATCH: usize = 48;
    const SEED: u64 = 77;
    let (prep, _) = Preprocessor::new(vec![Operator::SymNorm], 2)
        .run_with_sharded_store(&data, &dir, "pokec-sim", CHUNK)
        .expect("store written");

    let store = FeatureStore::open(&dir).expect("store reopens");
    let mut disk = ShardedStorageChunkLoader::new(
        store,
        prep.train.labels.clone(),
        BATCH,
        AccessPath::Direct,
        SEED,
    );
    let chunk = LoaderKind::Chunk { chunk_size: CHUNK };
    let mut mem = MemoryLoader::new(Arc::new(prep.train.clone()), BATCH, chunk, SEED);

    disk.start_epoch();
    mem.start_epoch();
    let mut batches = 0;
    loop {
        match (disk.next_batch(), mem.next_batch()) {
            (None, None) => break,
            (Some(d), Some(m)) => {
                assert_eq!(d.indices, m.indices, "batch {batches} indices differ");
                assert_eq!(d.labels, m.labels, "batch {batches} labels differ");
                for (hd, hm) in d.hops.iter().zip(&m.hops) {
                    assert!(
                        hd.max_abs_diff(hm) == 0.0,
                        "batch {batches} features differ"
                    );
                }
                batches += 1;
            }
            _ => panic!("storage and memory loaders disagree on batch count"),
        }
    }
    assert!(batches > 1);

    // The disk loader must have used sequential chunk reads only.
    let io = disk.io_counters();
    assert_eq!(io.rand_requests, 0);
    assert!(io.seq_requests > 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn storage_loader_matches_memory_when_chunks_do_not_divide_rows() {
    // 320 training rows with chunk 24 → 13 chunks, the last one short (8
    // rows); batch 28 divides neither, so every batch crosses a chunk
    // boundary somewhere during the epoch.
    let data = SynthDataset::generate(DatasetProfile::pokec_sim().scaled(0.02), 9).unwrap();
    const CHUNK: usize = 24;
    const BATCH: usize = 28;
    const SEED: u64 = 13;
    let dir = temp_dir("shortchunk");
    let (prep, _) = Preprocessor::new(vec![Operator::SymNorm], 2)
        .run_with_sharded_store(&data, &dir, "pokec-sim", CHUNK)
        .expect("store written");
    let rows = prep.train.len();
    assert_ne!(rows % CHUNK, 0, "fixture must exercise a short last chunk");
    assert_ne!(CHUNK % BATCH, 0);

    let store = FeatureStore::open(&dir).expect("store reopens");
    let mut disk = ShardedStorageChunkLoader::new(
        store,
        prep.train.labels.clone(),
        BATCH,
        AccessPath::Direct,
        SEED,
    );
    let chunk = LoaderKind::Chunk { chunk_size: CHUNK };
    let mut mem = MemoryLoader::new(Arc::new(prep.train.clone()), BATCH, chunk, SEED);

    disk.start_epoch();
    mem.start_epoch();
    let mut emitted = 0;
    loop {
        match (disk.next_batch(), mem.next_batch()) {
            (None, None) => break,
            (Some(d), Some(m)) => {
                assert_eq!(d.indices, m.indices, "indices diverge at row {emitted}");
                assert_eq!(d.labels, m.labels);
                for (hd, hm) in d.hops.iter().zip(&m.hops) {
                    assert!(hd.max_abs_diff(hm) == 0.0);
                }
                emitted += d.len();
            }
            _ => panic!("storage and memory loaders disagree on batch count"),
        }
    }
    assert_eq!(emitted, rows, "every row must be emitted exactly once");
    std::fs::remove_dir_all(&dir).unwrap();
}

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x100000001b3))
}

/// Pins the **default** (f32) on-disk layout: the byte stream of
/// `manifest.txt` followed by every hop file. The digest covers the
/// crash-safety container revision — each hop file carries a `PPGC`
/// per-chunk checksum footer after the payload (checksum-less files
/// from older stores still load; `legacy_footerless_stores_still_load_
/// and_read` in ppgnn-dataio pins that) — at footer version 2, whose
/// chunk sums are the word-wise four-lane FNV-1a. Re-pinned when the
/// footer went from version 1 (byte-wise FNV-1a) to 2: the manifest,
/// headers, payload and footer length are unchanged, only the version
/// word and the sums moved, and version-1 files still verify
/// (`version_one_and_mixed_footers_still_verify` in ppgnn-dataio). If
/// this fails, stores written by the current revision can no longer be
/// read back byte-for-byte — bump the format version instead of editing
/// the constant.
#[test]
fn default_f32_store_bytes_are_pinned() {
    use ppgnn_dataio::{FeatureStoreWriter, StoreDtype, StoreMeta};
    use ppgnn_tensor::Matrix;

    const PRECHANGE_DIGEST: u64 = 0x2e01816f8f9989c6;
    let dir = temp_dir("digest-pin");
    let meta = StoreMeta {
        dataset: "digest-pin".into(),
        num_hops: 3,
        rows: 32,
        cols: 5,
        chunk_size: 7,
        dtype: StoreDtype::F32,
    };
    let mut w = FeatureStoreWriter::create(&dir, meta).expect("store created");
    for k in 0..3 {
        let hop = Matrix::from_fn(32, 5, |r, c| {
            (k * 100_000 + r * 1_000 + c) as f32 * 0.5 - 3.25
        });
        w.write_hop(k, &hop).expect("hop written");
    }
    w.finish().expect("store finished");

    let mut h: u64 = 0xcbf29ce484222325;
    h = fnv1a(h, &std::fs::read(dir.join("manifest.txt")).unwrap());
    for k in 0..3 {
        h = fnv1a(
            h,
            &std::fs::read(dir.join(format!("hop_{k}.ppgt"))).unwrap(),
        );
    }
    assert_eq!(
        h, PRECHANGE_DIGEST,
        "default f32 store layout drifted from the pre-dtype format"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Pins the **partitioned** on-disk layout `run_with_sharded_store`
/// writes at `P ∈ {1, 2}` for `f32` and `f16`: one FNV-1a digest over
/// every file's relative path and bytes, sorted by path — `sharded.txt`,
/// `part_*/manifest.txt`, `part_*/rows.ppgt` and `part_*/hop_*.ppgt`.
/// A change to the writer, the manifest text or the rows sidecar that
/// moves a byte fails here; like the plain pin above, a deliberate format
/// change bumps a version instead of editing the constants.
#[test]
fn partitioned_store_layout_is_pinned() {
    use ppgnn_dataio::StoreDtype;

    fn files(dir: &std::path::Path, root: &std::path::Path, out: &mut Vec<(String, Vec<u8>)>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                files(&path, root, out);
            } else {
                let rel = path.strip_prefix(root).unwrap().to_string_lossy();
                out.push((rel.replace('\\', "/"), std::fs::read(&path).unwrap()));
            }
        }
    }

    let data = SynthDataset::generate(DatasetProfile::pokec_sim().scaled(0.02), 3).unwrap();
    let base = temp_dir("layout-pin");
    let pins = [
        (StoreDtype::F32, 1, 0x2320_879b_5968_be7c_u64),
        (StoreDtype::F32, 2, 0xf122_5998_c026_c17c),
        (StoreDtype::F16, 1, 0xbc46_c33f_4f73_b2ac),
        (StoreDtype::F16, 2, 0x08b5_d24f_2555_1565),
    ];
    let mut drifted = Vec::new();
    for (dtype, parts, pinned) in pins {
        let dir = base.join(format!("{dtype}-p{parts}"));
        Preprocessor::new(vec![Operator::SymNorm], 2)
            .with_store_dtype(dtype)
            .with_num_partitions(parts)
            .run_with_sharded_store(&data, &dir, "layout-pin", 16)
            .expect("store written");
        let mut all = Vec::new();
        files(&dir, &dir, &mut all);
        all.sort();
        let names: Vec<&str> = all.iter().map(|(rel, _)| rel.as_str()).collect();
        assert_eq!(names.len(), 1 + parts * 5, "{dtype} P={parts}: {names:?}");
        let h = all.iter().fold(0xcbf29ce484222325, |h, (rel, bytes)| {
            fnv1a(fnv1a(h, rel.as_bytes()), bytes)
        });
        if h != pinned {
            drifted.push(format!("{dtype} P={parts}: {h:#018x}"));
        }
    }
    std::fs::remove_dir_all(&base).unwrap();
    assert!(
        drifted.is_empty(),
        "partitioned layout drifted: {drifted:?}"
    );
}

/// Sharded stores must serve **bit-identical** rows to a single plain
/// store of `run`'s train hops under every dtype and partition count:
/// rows are dealt whole to partitions, so per-row encoding (including
/// int8's inline per-row quantization parameters) cannot depend on the
/// grouping. At `P = 1` the lone partition's hop files are the plain
/// store's, byte for byte.
#[test]
fn sharded_stores_match_single_store_bitwise_for_every_dtype() {
    use ppgnn_dataio::{FeatureStoreWriter, StoreDtype, StoreMeta};
    use ppgnn_graph::synth::DatasetProfile;

    let data = SynthDataset::generate(DatasetProfile::pokec_sim().scaled(0.02), 11).unwrap();
    let base = temp_dir("dtype-shard");
    let ops = vec![Operator::SymNorm, Operator::RowNorm];
    let reference = Preprocessor::new(ops.clone(), 2).run(&data);
    let digest =
        |path: std::path::PathBuf| fnv1a(0xcbf29ce484222325, &std::fs::read(path).unwrap());
    for dtype in StoreDtype::ALL {
        let prep = Preprocessor::new(ops.clone(), 2).with_store_dtype(dtype);
        let sdir = base.join(format!("single-{dtype}"));
        let train = &reference.train;
        let meta = StoreMeta {
            dataset: "pokec-sim".into(),
            num_hops: train.hops.len(),
            rows: train.len(),
            cols: train.hops[0].cols(),
            chunk_size: 16,
            dtype,
        };
        let mut writer = FeatureStoreWriter::create(&sdir, meta).expect("single store");
        for (k, hop) in train.hops.iter().enumerate() {
            writer.write_hop(k, hop).expect("hop written");
        }
        let mut single = writer.finish().expect("single store");
        assert_eq!(single.meta().dtype, dtype);
        let rows: Vec<usize> = (0..single.meta().rows).collect();
        for parts in [1usize, 2, 5] {
            let pdir = base.join(format!("p{parts}-{dtype}"));
            let (_, mut sharded) = prep
                .clone()
                .with_num_partitions(parts)
                .run_with_sharded_store(&data, &pdir, "pokec-sim", 16)
                .expect("sharded store");
            assert_eq!(sharded.meta().dtype, dtype);
            for k in 0..3 {
                let a = single.read_rows(k, &rows, AccessPath::Direct).unwrap();
                let b = sharded.read_rows(k, &rows, AccessPath::Direct).unwrap();
                let same = a
                    .as_slice()
                    .iter()
                    .zip(b.as_slice())
                    .all(|(u, v)| u.to_bits() == v.to_bits());
                assert!(same, "{dtype} hop {k} differs at P={parts}");
                if parts == 1 {
                    let name = format!("hop_{k}.ppgt");
                    let (plain, part) = (
                        digest(sdir.join(&name)),
                        digest(pdir.join("part_0").join(&name)),
                    );
                    assert_eq!(
                        plain, part,
                        "{dtype} {name} differs from the plain store at P=1"
                    );
                }
            }
        }
    }
    std::fs::remove_dir_all(&base).unwrap();
}

/// A compressed store feeds the training loop end to end: same batch
/// stream shape, every row exactly once, decodes into the unchanged
/// model — only the features are quantized.
#[test]
fn compressed_store_drives_training_loop() {
    use ppgnn_dataio::StoreDtype;

    let data = SynthDataset::generate(DatasetProfile::pokec_sim().scaled(0.02), 8).unwrap();
    let prep = Preprocessor::new(vec![Operator::SymNorm], 2).run(&data);
    let dir = temp_dir("f16-loader");
    let meta_rows = prep.train.len();
    // Build the compressed store via the synchronous writer path.
    {
        use ppgnn_dataio::{FeatureStoreWriter, StoreMeta};
        let meta = StoreMeta {
            dataset: "pokec-sim".into(),
            num_hops: prep.train.hops.len(),
            rows: meta_rows,
            cols: prep.train.hops[0].cols(),
            chunk_size: 16,
            dtype: StoreDtype::F16,
        };
        let mut w = FeatureStoreWriter::create(&dir, meta).unwrap();
        for (k, hop) in prep.train.hops.iter().enumerate() {
            w.write_hop(k, hop).unwrap();
        }
        w.finish().unwrap();
    }
    let store = FeatureStore::open(&dir).expect("compressed store reopens");
    assert_eq!(store.meta().dtype, StoreDtype::F16);
    let mut loader =
        ShardedStorageChunkLoader::new(store, prep.train.labels.clone(), 48, AccessPath::Direct, 3);
    loader.start_epoch();
    let mut rows = 0;
    while let Some(batch) = loader.next_batch() {
        for (k, hop) in batch.hops.iter().enumerate() {
            for (i, &idx) in batch.indices.iter().enumerate() {
                for c in 0..hop.cols() {
                    let exact = prep.train.hops[k].get(idx, c);
                    let got = hop.get(i, c);
                    let tol = exact.abs() / 2048.0 + 3.1e-8; // half an f16 ulp
                    assert!(
                        (exact - got).abs() <= tol,
                        "hop {k} row {idx} col {c}: {got} vs {exact}"
                    );
                }
            }
        }
        rows += batch.len();
    }
    assert_eq!(rows, meta_rows, "every row exactly once through f16 store");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupted_store_fails_closed_not_wrong() {
    let data = SynthDataset::generate(DatasetProfile::pokec_sim().scaled(0.015), 5).unwrap();
    let dir = temp_dir("corrupt");
    Preprocessor::new(vec![Operator::SymNorm], 1)
        .run_with_sharded_store(&data, &dir, "pokec-sim", 16)
        .expect("store written");

    // Truncate one hop file: opening the store must fail cleanly.
    let hop1 = dir.join("part_0").join("hop_1.ppgt");
    let bytes = std::fs::read(&hop1).unwrap();
    std::fs::write(&hop1, &bytes[..bytes.len() / 2]).unwrap();
    let err = FeatureStore::open(&dir).expect_err("truncation must be detected");
    assert!(
        err.to_string().contains("truncated"),
        "unexpected error: {err}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn training_from_storage_matches_training_from_memory() {
    // Same seed + chunked order ⇒ training through the storage loader must
    // produce numerically identical parameters to in-memory training.
    use ppgnn_models::{PpModel, Sgc};
    use ppgnn_nn::{CrossEntropyLoss, Mode, Optimizer, Sgd};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let data = SynthDataset::generate(DatasetProfile::pokec_sim().scaled(0.02), 6).unwrap();
    let dir = temp_dir("trainmatch");
    let (prep, _) = Preprocessor::new(vec![Operator::SymNorm], 1)
        .run_with_sharded_store(&data, &dir, "pokec-sim", 32)
        .expect("store written");

    let run = |use_disk: bool| -> Vec<f32> {
        let mut model = Sgc::new(
            1,
            data.profile.feature_dim,
            2,
            &mut StdRng::seed_from_u64(1),
        );
        let mut opt = Sgd::new(0.05);
        let mut loader: Box<dyn Loader> = if use_disk {
            let store = FeatureStore::open(&dir).expect("store reopens");
            Box::new(ShardedStorageChunkLoader::new(
                store,
                prep.train.labels.clone(),
                64,
                AccessPath::Direct,
                5,
            ))
        } else {
            Box::new(MemoryLoader::new(
                Arc::new(prep.train.clone()),
                64,
                LoaderKind::Chunk { chunk_size: 32 },
                5,
            ))
        };
        for _ in 0..2 {
            loader.start_epoch();
            while let Some(batch) = loader.next_batch() {
                let logits = model.forward(&batch.hops, Mode::Train);
                let (_, grad) = CrossEntropyLoss.loss_and_grad(&logits, &batch.labels);
                model.zero_grad();
                model.backward(&grad);
                opt.step(&mut model.params());
            }
        }
        model.params()[0].value.as_slice().to_vec()
    };

    let from_memory = run(false);
    let from_disk = run(true);
    assert_eq!(
        from_memory, from_disk,
        "storage training diverged from memory training"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The deterministic checks on compressed stores, on the exp_table
/// fixture (pokec-sim at scale 0.05, R = 2, seed 42): every dtype reads
/// back at its format's exact logical/physical byte ratio, and a seeded
/// SIGN trained on the hops its store serves reaches a test accuracy
/// within 1.0 pt of the lossless `f32` run.
#[test]
fn compressed_stores_keep_exact_ratios_and_accuracy_within_a_point() {
    use ppgnn_bench::exp::{pp_config, ACC_EPOCHS};
    use ppgnn_core::trainer::{LoaderKind, Trainer};
    use ppgnn_dataio::StoreDtype;
    use ppgnn_models::Sign;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let data = SynthDataset::generate(DatasetProfile::pokec_sim().scaled(0.05), 42).unwrap();
    let base = temp_dir("dtype-accuracy");
    // (read ratio, test accuracy) of a model trained from `dtype`'s store.
    let run = |dtype: StoreDtype| -> (f64, f64) {
        let (mut prep, mut store) = Preprocessor::new(vec![Operator::SymNorm], 2)
            .with_store_dtype(dtype)
            .run_with_sharded_store(&data, base.join(dtype.name()), "pokec-sim", 256)
            .expect("store written");
        assert_eq!(store.meta().cols, 65, "fixture width the ratios assume");
        for (k, hop) in prep.train.hops.iter_mut().enumerate() {
            *hop = Arc::new(store.read_full_hop(k).expect("hop reads back"));
        }
        let hops = prep.train.hops.len() - 1;
        let f = prep.train.hops[0].cols();
        let classes = 1 + *prep.train.labels.iter().max().unwrap() as usize;
        let mut model = Sign::new(hops, f, 48, classes, 0.1, &mut StdRng::seed_from_u64(4));
        let config = pp_config(ACC_EPOCHS / 2, LoaderKind::Chunk { chunk_size: 256 });
        let report = Trainer::new(config)
            .fit(&mut model, &prep)
            .expect("training partition is non-empty");
        (store.counters().compression_ratio(), report.test_acc)
    };

    let (ratio_f32, acc_f32) = run(StoreDtype::F32);
    assert_eq!(ratio_f32, 1.0);
    for (dtype, exact) in [
        (StoreDtype::F16, 2.0),
        (StoreDtype::Bf16, 2.0),
        (StoreDtype::Int8, 4.0 * 65.0 / (65.0 + 8.0)),
    ] {
        let (ratio, acc) = run(dtype);
        assert_eq!(ratio, exact, "{dtype} compression ratio");
        let drift_pt = (acc_f32 - acc).abs() * 100.0;
        assert!(
            drift_pt <= 1.0,
            "{dtype} test accuracy {acc:.4} is {drift_pt:.2} pt from f32's {acc_f32:.4}"
        );
    }
    std::fs::remove_dir_all(&base).unwrap();
}
