//! Crash-safety integration suite: the corruption matrix and
//! kill-and-resume byte-equality pins.
//!
//! Two properties the storage stack must hold under any interruption or
//! media fault:
//!
//! 1. **Never silently wrong data** — a tampered store (truncation, bit
//!    flip, torn in-place write) surfaces a *located* `Corrupt` error
//!    (path, hop, and — for payload damage — chunk) at open or first
//!    read, for every store dtype and for sharded stores at any `P`.
//! 2. **Resume is exact** — a run killed by an injected write fault
//!    leaves a detectably incomplete store (no manifest ⇒ `open`
//!    fails), and re-running the same preprocessing resumes from the
//!    completed-units journal to a store byte-identical (FNV digest
//!    over every file) to an uninterrupted run.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use ppgnn_core::preprocess::Preprocessor;
use ppgnn_dataio::fault::{self, FaultPlan};
use ppgnn_dataio::{
    DataIoError, FeatureStore, FeatureStoreWriter, ShardedFeatureStore, ShardedStoreWriter,
    StoreDtype, StoreMeta,
};
use ppgnn_graph::synth::{DatasetProfile, SynthDataset};
use ppgnn_graph::Operator;
use ppgnn_tensor::Matrix;

/// Serializes the tests that install a global fault plan.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

const DTYPES: [StoreDtype; 4] = [
    StoreDtype::F32,
    StoreDtype::F16,
    StoreDtype::Bf16,
    StoreDtype::Int8,
];

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ppgnn-crash-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn meta(dtype: StoreDtype) -> StoreMeta {
    StoreMeta {
        dataset: "crash-test".into(),
        num_hops: 2,
        rows: 13,
        cols: 5,
        chunk_size: 4,
        dtype,
    }
}

fn hop_matrix(k: usize, rows: usize, cols: usize) -> Matrix {
    // Nonzero, row-varying values so every encoded payload byte region
    // differs from a constant overwrite.
    Matrix::from_fn(rows, cols, move |r, c| {
        (k * 1_000 + r * 10 + c) as f32 * 0.375 + 1.5
    })
}

fn build_store(dir: &Path, dtype: StoreDtype) -> FeatureStore {
    let m = meta(dtype);
    let mut w = FeatureStoreWriter::create(dir, m.clone()).unwrap();
    for k in 0..m.num_hops {
        w.write_hop(k, &hop_matrix(k, m.rows, m.cols)).unwrap();
    }
    w.finish().unwrap()
}

/// `PPGC` footer length for `n` chunks: magic + version + count + sums.
fn footer_len(num_chunks: usize) -> u64 {
    (4 + 4 + 8 + 8 * num_chunks) as u64
}

fn data_offset(dtype: StoreDtype) -> u64 {
    if matches!(dtype, StoreDtype::F32) {
        24
    } else {
        28
    }
}

/// FNV-1a over every file of a store directory (sorted relative paths
/// and contents), the byte-equality digest the resume pins compare.
fn dir_digest(dir: &Path) -> u64 {
    fn walk(dir: &Path, root: &Path, files: &mut Vec<(String, PathBuf)>) {
        for entry in fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(&path, root, files);
            } else {
                let rel = path.strip_prefix(root).unwrap();
                files.push((rel.to_string_lossy().into_owned(), path.clone()));
            }
        }
    }
    let mut files = Vec::new();
    walk(dir, dir, &mut files);
    files.sort();
    let mut h: u64 = 0xcbf29ce484222325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x100000001b3);
        }
    };
    for (rel, path) in files {
        eat(rel.as_bytes());
        eat(&fs::read(path).unwrap());
    }
    h
}

fn located_corrupt(err: &DataIoError, want_chunk: bool) -> bool {
    match err {
        DataIoError::Corrupt(c) => {
            c.path.is_some() && c.hop.is_some() && (!want_chunk || c.chunk.is_some())
        }
        _ => false,
    }
}

/// The three tamper modes, applied at a seeded payload offset.
enum Tamper {
    /// Cut the file below the payload end (a lost tail).
    Truncate,
    /// Flip one payload bit (silent media corruption).
    BitFlip,
    /// Overwrite from the offset to the payload end (a torn in-place
    /// rewrite that kept the right length).
    TornWrite,
}

fn apply_tamper(path: &Path, dtype: StoreDtype, num_chunks: usize, mode: &Tamper, seed: u64) {
    let bytes = fs::read(path).unwrap();
    let payload_end = bytes.len() as u64 - footer_len(num_chunks);
    let off = data_offset(dtype) + seed % (payload_end - data_offset(dtype));
    match mode {
        Tamper::Truncate => {
            fs::write(path, &bytes[..off as usize]).unwrap();
        }
        Tamper::BitFlip => {
            let mut bytes = bytes;
            bytes[off as usize] ^= 1u8 << (seed % 8) as u32;
            fs::write(path, bytes).unwrap();
        }
        Tamper::TornWrite => {
            let mut bytes = bytes;
            for b in &mut bytes[off as usize..payload_end as usize] {
                *b = 0xAA;
            }
            fs::write(path, bytes).unwrap();
        }
    }
}

#[test]
fn corruption_matrix_surfaces_located_errors_for_every_dtype() {
    for dtype in DTYPES {
        for (ti, mode) in [Tamper::Truncate, Tamper::BitFlip, Tamper::TornWrite]
            .iter()
            .enumerate()
        {
            let tag = format!("matrix-{}-{ti}", dtype.name());
            let dir = temp_dir(&tag);
            build_store(&dir, dtype);
            let m = meta(dtype);
            let hop = 1 + (ti % m.num_hops.saturating_sub(1));
            let seed = 0x9e37 + 17 * ti as u64 + 257 * hop as u64;
            let hop_file = dir.join(format!("hop_{hop}.ppgt"));
            apply_tamper(&hop_file, dtype, m.num_chunks(), mode, seed);
            match mode {
                Tamper::Truncate => {
                    // Length damage is caught at open, with path + hop.
                    let err = FeatureStore::open(&dir).err().unwrap_or_else(|| {
                        panic!("{}: truncated store opened cleanly", dtype.name())
                    });
                    assert!(
                        located_corrupt(&err, false),
                        "{}: truncation surfaced {err:?}",
                        dtype.name()
                    );
                }
                Tamper::BitFlip | Tamper::TornWrite => {
                    // Content damage keeps the right length: open
                    // succeeds, the first read of the damaged chunk
                    // fails with path + hop + chunk.
                    let mut store = FeatureStore::open(&dir).unwrap();
                    let err = store.read_full_hop(hop).err().unwrap_or_else(|| {
                        panic!("{}: tampered payload read back cleanly", dtype.name())
                    });
                    assert!(
                        located_corrupt(&err, true),
                        "{}: payload tamper surfaced {err:?}",
                        dtype.name()
                    );
                }
            }
            fs::remove_dir_all(&dir).unwrap();
        }
    }
}

#[test]
fn sharded_corruption_is_located_at_every_partition_count() {
    for parts in [1usize, 2, 5] {
        let dir = temp_dir(&format!("sharded-matrix-{parts}"));
        let m = meta(StoreDtype::F32);
        let assignment: Vec<Vec<usize>> = {
            let mut a = vec![Vec::new(); parts];
            for r in 0..m.rows {
                a[r % parts].push(r);
            }
            a
        };
        let mut w = ShardedStoreWriter::create(&dir, m.clone(), &assignment, 2).unwrap();
        for k in 0..m.num_hops {
            let hop = hop_matrix(k, m.rows, m.cols);
            for (p, globals) in assignment.iter().enumerate() {
                w.submit(p, k, Arc::new(hop.gather_rows(globals))).unwrap();
            }
        }
        w.finish().unwrap();

        // Bit-flip the last partition's hop 1 payload: open succeeds,
        // the global read fails with a located chunk error.
        let victim = dir.join(format!("part_{}", parts - 1)).join("hop_1.ppgt");
        let part_meta = StoreMeta {
            rows: assignment[parts - 1].len(),
            ..m.clone()
        };
        apply_tamper(
            &victim,
            StoreDtype::F32,
            part_meta.num_chunks(),
            &Tamper::BitFlip,
            42 + parts as u64,
        );
        let mut store = ShardedFeatureStore::open(&dir).unwrap();
        let err = store
            .read_full_hop(1)
            .err()
            .unwrap_or_else(|| panic!("P={parts}: flipped partition read back cleanly"));
        assert!(located_corrupt(&err, true), "P={parts}: {err:?}");

        // Truncate partition 0's hop 0: the sharded open fails with a
        // located error from that partition store.
        apply_tamper(
            &dir.join("part_0").join("hop_0.ppgt"),
            StoreDtype::F32,
            StoreMeta {
                rows: assignment[0].len(),
                ..m.clone()
            }
            .num_chunks(),
            &Tamper::Truncate,
            7 + parts as u64,
        );
        let err = ShardedFeatureStore::open(&dir)
            .err()
            .unwrap_or_else(|| panic!("P={parts}: truncated partition opened cleanly"));
        assert!(located_corrupt(&err, false), "P={parts}: {err:?}");
        fs::remove_dir_all(&dir).unwrap();
    }
}

fn small_data() -> SynthDataset {
    SynthDataset::generate(DatasetProfile::pokec_sim().scaled(0.02), 3).unwrap()
}

#[test]
fn killed_sharded_run_resumes_byte_identical_for_every_dtype_and_p() {
    let _guard = FAULT_LOCK.lock().unwrap();
    let data = small_data();
    for dtype in DTYPES {
        for parts in [1usize, 2, 5] {
            let prep = Preprocessor::new(vec![Operator::SymNorm], 2)
                .with_store_dtype(dtype)
                .with_num_partitions(parts);
            let tag = format!("{}-p{parts}", dtype.name());
            let clean = temp_dir(&format!("sclean-{tag}"));
            prep.run_with_sharded_store(&data, &clean, "crash-sim", 16)
                .unwrap();

            let dir = temp_dir(&format!("skilled-{tag}"));
            fault::install(FaultPlan::kill_at("hop", 2).scoped(&dir.to_string_lossy()));
            let err = prep.run_with_sharded_store(&data, &dir, "crash-sim", 16);
            fault::clear();
            assert!(err.is_err(), "{tag}: killed run reported success");
            assert!(
                ShardedFeatureStore::open(&dir).is_err(),
                "{tag}: interrupted sharded store opened cleanly"
            );

            prep.run_with_sharded_store(&data, &dir, "crash-sim", 16)
                .unwrap();
            assert_eq!(
                dir_digest(&dir),
                dir_digest(&clean),
                "{tag}: resumed sharded store differs from the uninterrupted run"
            );
            fs::remove_dir_all(&dir).unwrap();
            fs::remove_dir_all(&clean).unwrap();
        }
    }
}

#[test]
fn killed_single_store_run_resumes_byte_identical_for_every_dtype() {
    let _guard = FAULT_LOCK.lock().unwrap();
    let data = small_data();
    for dtype in DTYPES {
        // A single store is the one-partition store, pinned so the
        // partition-count knob cannot change it.
        let prep = Preprocessor::new(vec![Operator::SymNorm], 2)
            .with_store_dtype(dtype)
            .with_num_partitions(1);
        let clean = temp_dir(&format!("clean-{}", dtype.name()));
        prep.run_with_sharded_store(&data, &clean, "crash-sim", 16)
            .unwrap();

        // Kill the writer at its second hop commit; every later write
        // fails too (a dead process writes nothing more).
        let dir = temp_dir(&format!("killed-{}", dtype.name()));
        fault::install(FaultPlan::kill_at("hop", 2).scoped(&dir.to_string_lossy()));
        let err = prep.run_with_sharded_store(&data, &dir, "crash-sim", 16);
        fault::clear();
        assert!(
            err.is_err(),
            "{}: killed run reported success",
            dtype.name()
        );

        // Interrupted ⇒ detectably incomplete: the store's manifest
        // (commit point) is missing, so open fails rather than serving a
        // partial store.
        let part = dir.join("part_0");
        assert!(
            FeatureStore::open(&part).is_err() && ShardedFeatureStore::open(&dir).is_err(),
            "{}: interrupted store opened cleanly",
            dtype.name()
        );

        // Resume re-runs the same call; the journal skips the committed
        // hop and the result is byte-identical to the clean run.
        prep.run_with_sharded_store(&data, &dir, "crash-sim", 16)
            .unwrap();
        assert!(!part.join("journal.txt").exists(), "journal must be gone");
        assert_eq!(
            dir_digest(&dir),
            dir_digest(&clean),
            "{}: resumed store differs from the uninterrupted run",
            dtype.name()
        );
        fs::remove_dir_all(&dir).unwrap();
        fs::remove_dir_all(&clean).unwrap();
    }
}
