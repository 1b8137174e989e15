//! Seeded chaos suite: randomized-but-reproducible kill schedules over
//! the store writer, driven by the deterministic fault facility.
//!
//! Each round derives a fault site (every write site of the store:
//! `hop` / `journal` / `manifest` / `sidecar` / `sharded-manifest`), a
//! fault kind (write error / torn write), and an operation ordinal from
//! one seed, kills a preprocessing run with it, and checks the crash
//! contract: the interrupted store either reloads complete or fails
//! `open` — never wrong data — and resuming produces a store
//! byte-identical to an uninterrupted run.
//!
//! The seed comes from `PPGNN_FAULTS="seed=<n>"` (the CI chaos leg sets
//! it per run and echoes it) and defaults to a fixed constant, so a
//! red run reproduces locally with the printed seed.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use ppgnn_core::preprocess::Preprocessor;
use ppgnn_dataio::fault::{self, FaultKind, FaultPlan};
use ppgnn_dataio::FeatureStore;
use ppgnn_graph::synth::{DatasetProfile, SynthDataset};
use ppgnn_graph::Operator;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ppgnn-chaos-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// FNV-1a over every file (sorted relative paths and contents).
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

/// The fault plan is process-global; tests that install one take this
/// lock so a concurrent test's `install`/`clear` can't disarm a round
/// mid-run.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

/// xorshift64* — deterministic round derivation from the seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545f4914f6cdd1d)
    }
}

#[test]
fn seeded_kill_schedule_resumes_byte_identical() {
    let _guard = FAULT_LOCK.lock().unwrap();
    let seed = fault::env_seed().unwrap_or(0x5eed_c0ffee);
    println!("chaos seed: {seed} (reproduce with PPGNN_FAULTS=\"seed={seed}\")");
    let mut rng = Rng(seed | 1);

    let data = SynthDataset::generate(DatasetProfile::pokec_sim().scaled(0.02), 3).unwrap();
    let prep = Preprocessor::new(vec![Operator::SymNorm], 2);
    let clean = temp_dir("clean");
    prep.run_with_sharded_store(&data, &clean, "chaos-sim", 16)
        .unwrap();
    let clean_digest = dir_digest(&clean);

    for round in 0..6 {
        let site = ["hop", "journal", "manifest", "sidecar", "sharded-manifest"]
            [(rng.next() % 5) as usize];
        let kind = if rng.next().is_multiple_of(2) {
            FaultKind::WriteErr
        } else {
            FaultKind::Torn
        };
        // `hop` and `journal` see 3 writes per run, the other sites one
        // each; an ordinal past the last write means the round survives
        // — the contract must hold either way.
        let nth = 1 + rng.next() % 4;
        let dir = temp_dir(&format!("round-{round}"));
        println!(
            "round {round}: kill {site}:{}:{nth}+ in {}",
            kind.name(),
            dir.display()
        );

        fault::install(
            FaultPlan::new()
                .with_spec(site, kind, nth, true)
                .scoped(&dir.to_string_lossy()),
        );
        let result = prep.run_with_sharded_store(&data, &dir, "chaos-sim", 16);
        fault::clear();

        match result {
            Ok(_) => {
                // The schedule never fired (ordinal past the run's last
                // write): the store must already be complete and exact.
                assert_eq!(
                    dir_digest(&dir),
                    clean_digest,
                    "round {round}: surviving run produced different bytes"
                );
            }
            Err(_) => {
                // Killed: the store is detectably incomplete (the
                // `sharded.txt` commit point is missing), never
                // partial-but-openable...
                assert!(
                    FeatureStore::open(&dir).is_err(),
                    "round {round}: interrupted store opened cleanly"
                );
                // ...and resuming completes it bit-exactly.
                prep.run_with_sharded_store(&data, &dir, "chaos-sim", 16)
                    .unwrap_or_else(|e| panic!("round {round}: resume failed: {e}"));
                assert_eq!(
                    dir_digest(&dir),
                    clean_digest,
                    "round {round}: resumed store differs from the clean run"
                );
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }
    fs::remove_dir_all(&clean).unwrap();
}

#[test]
fn seeded_bit_flips_never_read_back_as_clean_data() {
    let _guard = FAULT_LOCK.lock().unwrap();
    let seed = fault::env_seed().unwrap_or(0x5eed_c0ffee);
    println!("chaos seed: {seed} (reproduce with PPGNN_FAULTS=\"seed={seed}\")");
    // Offset the stream so this test's rounds differ from the kill
    // schedule's under the same seed.
    let mut rng = Rng(seed.wrapping_add(1) | 1);

    let data = SynthDataset::generate(DatasetProfile::pokec_sim().scaled(0.02), 3).unwrap();
    let prep = Preprocessor::new(vec![Operator::SymNorm], 2);
    let clean = temp_dir("flip-clean");
    let (_, mut reference) = prep
        .run_with_sharded_store(&data, &clean, "chaos-sim", 16)
        .unwrap();

    for round in 0..4 {
        // Flip one deterministic bit in the nth hop-file commit: the
        // write "succeeds", so the run completes and the store opens —
        // but reads must either match the clean run exactly or fail
        // with a located checksum error. Silently different data is the
        // one forbidden outcome.
        let nth = 1 + rng.next() % 3;
        let dir = temp_dir(&format!("flip-{round}"));
        fault::install(
            FaultPlan::one_shot("hop", FaultKind::BitFlip, nth).scoped(&dir.to_string_lossy()),
        );
        let result = prep.run_with_sharded_store(&data, &dir, "chaos-sim", 16);
        fault::clear();

        match result {
            Ok((_, mut store)) => {
                for k in 0..3 {
                    match store.read_full_hop(k) {
                        Ok(m) => {
                            let want = reference.read_full_hop(k).unwrap();
                            assert_eq!(
                                m.as_slice(),
                                want.as_slice(),
                                "round {round}: hop {k} read back silently wrong data"
                            );
                        }
                        Err(e) => {
                            assert!(
                                matches!(&e, ppgnn_dataio::DataIoError::Corrupt(c)
                                    if c.chunk.is_some()),
                                "round {round}: hop {k} failed without location: {e:?}"
                            );
                        }
                    }
                }
            }
            Err(e) => {
                // A flip that lands in the hop header fails the
                // writer's own finish-time open — also a detected
                // outcome, never silent.
                println!("round {round}: flip detected at finish: {e}");
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }
    fs::remove_dir_all(&clean).unwrap();
}
