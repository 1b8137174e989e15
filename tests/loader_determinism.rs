//! Determinism regression for the in-memory loader generations.
//!
//! `crates/core/src/loader/mod.rs` documents that all loaders yield the
//! same [`PpBatch`] stream for a fixed seed. The `loader_equivalence` suite
//! checks the generations against each other *within* one process; this
//! suite additionally pins the stream **bytes** to a hard-coded digest, so
//! any accidental change to the RNG, the permutation algorithm, or batch
//! assembly (across refactors or vendored-dependency changes) fails loudly
//! instead of silently reshuffling every experiment in the repo.

mod common;

use std::sync::Arc;

use common::{drain, train_partition};
use ppgnn_core::loader::{Loader, LoaderKind, MemoryLoader};
use ppgnn_core::PpBatch;

const SEED: u64 = 7;
const BATCH: usize = 23; // deliberately not dividing the partition

/// The digest every generation must reproduce for `SEED`/`BATCH` on the
/// fixed dataset below. If an intentional change to the RNG stream or the
/// shuffle algorithm lands, re-pin this constant in the same commit and
/// say so in the commit message — every experiment's batch order shifts.
const PINNED_DIGEST: u64 = 0x30c7_3b56_11ab_fca3;

/// FNV-1a over the exact bytes a batch stream exposes to training:
/// indices, labels, and the f32 bit patterns of every hop matrix.
fn digest(stream: &[PpBatch]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for batch in stream {
        for &i in &batch.indices {
            eat(&(i as u64).to_le_bytes());
        }
        for &l in &batch.labels {
            eat(&l.to_le_bytes());
        }
        for hop in &batch.hops {
            for &v in hop.as_slice() {
                eat(&v.to_bits().to_le_bytes());
            }
        }
    }
    h
}

fn generations(data: &Arc<ppgnn_core::preprocess::PrepropFeatures>) -> Vec<MemoryLoader> {
    [
        LoaderKind::Baseline,
        LoaderKind::DoubleBuffer,
        LoaderKind::Chunk { chunk_size: 1 },
    ]
    .map(|kind| MemoryLoader::new(data.clone(), BATCH, kind, SEED))
    .into()
}

#[test]
fn all_generations_match_the_pinned_byte_digest() {
    let data = train_partition();
    for mut loader in generations(&data) {
        let stream = drain(&mut loader);
        assert!(!stream.is_empty());
        assert_eq!(
            digest(&stream),
            PINNED_DIGEST,
            "{}: batch-stream bytes changed for fixed seed {SEED}",
            loader.name()
        );
    }
}

#[test]
fn reconstruction_reproduces_the_stream_bit_for_bit() {
    // Fresh loader, same seed, same process: byte-identical epoch.
    let data = train_partition();
    for (mut a, mut b) in generations(&data).into_iter().zip(generations(&data)) {
        let da = digest(&drain(&mut a));
        let db = digest(&drain(&mut b));
        assert_eq!(da, db, "{}: same-seed reconstruction diverged", a.name());
    }
}

#[test]
fn second_epoch_differs_but_is_itself_deterministic() {
    // Epochs reshuffle (stream changes), yet the *sequence* of epochs is a
    // pure function of the seed.
    let data = train_partition();
    let epoch2 = |()| {
        let mut l = MemoryLoader::new(data.clone(), BATCH, LoaderKind::DoubleBuffer, SEED);
        let e1 = digest(&drain(&mut l));
        let e2 = digest(&drain(&mut l));
        (e1, e2)
    };
    let (a1, a2) = epoch2(());
    let (b1, b2) = epoch2(());
    assert_ne!(a1, a2, "epoch 2 must reshuffle");
    assert_eq!(a1, b1);
    assert_eq!(a2, b2, "epoch sequence must be seed-deterministic");
}
