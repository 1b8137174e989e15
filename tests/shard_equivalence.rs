//! Pins the shard-scheduled diffusion engine to the sequential reference.
//!
//! The shard×operator scheduler may only change *when* rows are computed,
//! never *what* they hold: per-row SpMM accumulation order is independent
//! of shard boundaries, so sharded pre-propagation must be **bit-identical**
//! to the sequential per-operator schedule — on the R-MAT-skewed synthetic
//! graphs whose hub rows are exactly what nnz-balanced shard plans exist
//! for. The same holds on disk: `run_with_sharded_store` through the
//! async double-buffered writer must produce **byte-identical** store
//! files regardless of shard count or writer queue depth.

use preprop_gnn::core::preprocess::{Preprocessor, PrepropOutput};
use preprop_gnn::graph::synth::{DatasetProfile, SynthDataset};
use preprop_gnn::graph::Operator;

fn skewed_data() -> SynthDataset {
    // pokec-sim is R-MAT generated: heavy-tailed degrees, hub rows.
    SynthDataset::generate(DatasetProfile::pokec_sim().scaled(0.03), 11).unwrap()
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

#[test]
fn sharded_diffusion_is_bit_identical_across_shard_counts() {
    let data = skewed_data();
    let prep = |shards: usize| {
        Preprocessor::new(vec![Operator::SymNorm, Operator::RowNorm], 3)
            .with_num_shards(shards)
            .run(&data)
    };
    let sequential = prep(1);
    for shards in [3, 7] {
        let sharded = prep(shards);
        assert_bit_identical(&sequential, &sharded, &format!("{shards} shards"));
    }
}

#[test]
fn sharded_diffusion_handles_mixed_operator_kinds() {
    // A series operator (PPR) between two simple ones exercises singleton
    // series groups embedded in a sharded schedule.
    let data = skewed_data();
    let ops = vec![
        Operator::SymNorm,
        Operator::Ppr { alpha: 0.15 },
        Operator::RowNorm,
    ];
    let sequential = Preprocessor::new(ops.clone(), 2)
        .with_num_shards(1)
        .run(&data);
    let sharded = Preprocessor::new(ops, 2).with_num_shards(5).run(&data);
    assert_bit_identical(&sequential, &sharded, "mixed operators");
}

#[test]
fn sharded_async_store_is_byte_identical_to_sequential_store() {
    let data = skewed_data();
    let base = std::env::temp_dir().join(format!("ppgnn-shardeq-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    let run = |shards: usize, tag: &str| {
        let dir = base.join(tag);
        let prep = Preprocessor::new(vec![Operator::SymNorm, Operator::RowNorm], 3)
            .with_num_shards(shards);
        let (_, store) = prep
            .run_with_sharded_store(&data, &dir, "pokec-sim", 32)
            .unwrap();
        assert_eq!(store.meta().num_hops, 4);
        dir
    };

    let seq_dir = run(1, "sequential");
    let shard_dir = run(4, "sharded");

    // Every hop file and the manifests must match byte for byte — the
    // acceptance criterion for the sharded + async-writer pipeline.
    let mut files: Vec<String> = (0..4).map(|k| format!("part_0/hop_{k}.ppgt")).collect();
    files.extend(["part_0/manifest.txt", "part_0/rows.ppgt", "sharded.txt"].map(String::from));
    for name in files {
        let a = std::fs::read(seq_dir.join(&name)).unwrap();
        let b = std::fs::read(shard_dir.join(&name)).unwrap();
        assert_eq!(
            digest(&a),
            digest(&b),
            "{name} differs between sequential and sharded stores"
        );
        assert_eq!(a, b, "{name} digest collision with differing bytes");
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
