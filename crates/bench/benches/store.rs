//! Compressed feature-store benchmarks: encode/decode throughput, epoch
//! read time, and on-disk footprint for every [`StoreDtype`], plus the
//! accuracy drift that quantized hop features cost on the exp_table
//! training harness.
//!
//! Besides the criterion groups, this bench writes a machine-readable
//! `BENCH_store.json` artifact with, per dtype: physical bytes per row,
//! the logical/physical compression ratio (exact — derived from the
//! format, not timed), steady-state decode throughput, the wall time of
//! one full epoch-shaped pass over an on-disk store
//! (`read_chunk_all_hops_into` over every chunk), and the test-accuracy
//! drift of a SIGN model trained on quantized hop features against the
//! lossless f32 run (seeded end to end, so the drift is deterministic).
//! CI runs the smoke variant, uploads the artifact alongside
//! `BENCH_gemm.json`, and gates on the compression ratios and the
//! accuracy drift against the committed baseline (see
//! `scripts/check_store_regression.py`; throughput numbers are
//! informational since they track runner hardware). Destination
//! overridable via `PPGNN_STORE_BENCH_ARTIFACT`; `PPGNN_BENCH_SMOKE=1`
//! reduces repetitions and training epochs.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use ppgnn_bench::exp::{pp_config, ACC_EPOCHS};
use ppgnn_bench::prepared;
use ppgnn_core::preprocess::PrepropOutput;
use ppgnn_core::trainer::{LoaderKind, Trainer};
use ppgnn_dataio::{AccessPath, FeatureStoreWriter, StoreMeta};
use ppgnn_graph::synth::DatasetProfile;
use ppgnn_models::Sign;
use ppgnn_tensor::{cast, knobs, Matrix, StoreDtype};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Decode-bench shape: one chunk of trainer-realistic hop features
/// (256 rows of `K·(R+1)·F` columns at K=2, R=3, F=64).
const DECODE_ROWS: usize = 256;
const DECODE_COLS: usize = 2 * (3 + 1) * 64;

fn seeded_rows(rows: usize, cols: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(99);
    (0..rows * cols)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5) * 4.0
        })
        .collect()
}

fn bench_store_dtypes(c: &mut Criterion) {
    let src = seeded_rows(DECODE_ROWS, DECODE_COLS, 7);
    let mut group = c.benchmark_group("store-decode-chunk");
    group.sample_size(10);
    for dtype in StoreDtype::ALL {
        let mut enc = vec![0u8; DECODE_ROWS * dtype.encoded_row_bytes(DECODE_COLS)];
        cast::encode_rows(dtype, &src, DECODE_COLS, &mut enc);
        let mut dec = vec![0.0f32; src.len()];
        group.bench_function(dtype.name(), |bch| {
            bch.iter(|| {
                cast::decode_rows(dtype, black_box(&enc), DECODE_COLS, &mut dec);
                black_box(&dec);
            });
        });
    }
    group.finish();

    write_store_artifact();
}

/// Best-of-`reps` wall time of `f`, after one warm-up call.
fn best_seconds(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::MAX;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Round-trips every training hop matrix through `dtype` — the features a
/// model trained from a compressed store actually sees.
fn quantized(prep: &PrepropOutput, dtype: StoreDtype) -> PrepropOutput {
    let mut out = prep.clone();
    for hop in &mut out.train.hops {
        // `out` shares its hop matrices with `prep`; this copies each on
        // first write.
        let hop = Arc::make_mut(hop);
        let (rows, cols) = hop.shape();
        let mut enc = vec![0u8; rows * dtype.encoded_row_bytes(cols)];
        cast::encode_rows(dtype, hop.as_slice(), cols, &mut enc);
        cast::decode_rows(dtype, &enc, cols, hop.as_mut_slice());
    }
    out
}

/// Test accuracy of a fresh seeded SIGN model on `prep` — the exp_table
/// accuracy harness at its default settings.
fn sign_test_acc(prep: &PrepropOutput, epochs: usize) -> f64 {
    let hops = prep.train.hops.len() - 1;
    let f = prep.train.hops[0].cols();
    let classes = 1 + prep.train.labels.iter().copied().max().unwrap_or(0) as usize;
    let mut model = Sign::new(hops, f, 48, classes, 0.1, &mut StdRng::seed_from_u64(4));
    let mut t = Trainer::new(pp_config(epochs, LoaderKind::Chunk { chunk_size: 256 }));
    t.fit(&mut model, prep)
        .expect("training partition is non-empty")
        .test_acc
}

/// Measures every dtype against the shared fixture and writes
/// `BENCH_store.json`.
fn write_store_artifact() {
    // Only write when actually measuring (`cargo bench` passes `--bench`)
    // or when a destination was explicitly requested; under `cargo test`
    // the bench bodies run once as smoke tests and skip this.
    let measuring = std::env::args().any(|a| a == "--bench");
    if !measuring && !knobs::is_set(knobs::STORE_BENCH_ARTIFACT) {
        return;
    }
    let smoke = knobs::flag(knobs::BENCH_SMOKE);
    let reps = if smoke { 3 } else { 5 };
    // Accuracy drift needs enough epochs to converge past init noise;
    // smoke halves the budget rather than gutting it, since the drift
    // rows are gated.
    let epochs = if smoke { ACC_EPOCHS / 2 } else { ACC_EPOCHS };

    // The exp_table fixture: pokec-sim at harness scale, R = 2 hops.
    let (_, prep) = prepared(DatasetProfile::pokec_sim().scaled(0.05), 2, 42);
    let rows = prep.train.len();
    let cols = prep.train.hops[0].cols();
    let num_hops = prep.train.hops.len();
    let chunk_size = 256usize;
    let acc_f32 = sign_test_acc(&prep, epochs);

    // Decode throughput fixture (pure kernel, no I/O).
    let dec_src = seeded_rows(8 * DECODE_ROWS, DECODE_COLS, 11);
    let dec_rows = 8 * DECODE_ROWS;

    let base = std::env::temp_dir().join(format!("ppgnn-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    let mut per_dtype = String::new();
    let mut telemetry = String::from("null");
    for dtype in StoreDtype::ALL {
        // Footprint: exact, from the format.
        let bytes_per_row = dtype.encoded_row_bytes(cols);
        let ratio = (cols * 4) as f64 / bytes_per_row as f64;

        // Kernel decode throughput on the fixture buffer.
        let mut enc = vec![0u8; dec_rows * dtype.encoded_row_bytes(DECODE_COLS)];
        cast::encode_rows(dtype, &dec_src, DECODE_COLS, &mut enc);
        let mut dec = vec![0.0f32; dec_src.len()];
        let dec_s = best_seconds(reps * 4, || {
            cast::decode_rows(dtype, black_box(&enc), DECODE_COLS, &mut dec);
            black_box(&dec);
        });
        let decode_rows_per_s = dec_rows as f64 / dec_s.max(f64::EPSILON);

        // Epoch-shaped pass over a real on-disk store: every chunk of
        // every hop through the zero-alloc refill path.
        let dir = base.join(dtype.name());
        let meta = StoreMeta {
            dataset: "bench".into(),
            num_hops,
            rows,
            cols,
            chunk_size,
            dtype,
        };
        let mut w = FeatureStoreWriter::create(&dir, meta).expect("bench store created");
        for (k, hop) in prep.train.hops.iter().enumerate() {
            w.write_hop(k, hop).expect("bench hop written");
        }
        let mut store = w.finish().expect("bench store finished");
        let num_chunks = store.meta().num_chunks();
        let mut slots: Vec<Matrix> = Vec::new();
        let epoch_s = best_seconds(reps, || {
            for chunk in 0..num_chunks {
                store
                    .read_chunk_all_hops_into(chunk, AccessPath::Direct, &mut slots)
                    .expect("bench chunk read");
            }
            black_box(&slots);
        });
        let physical_mb = store.meta().physical_bytes() as f64 / 1e6;

        // One extra instrumented epoch pass on the lossless store (outside
        // the timed best-of runs) so the artifact carries the store's byte
        // counters alongside the wall-clock numbers.
        if dtype.is_f32() {
            ppgnn_telemetry::reset_metrics();
            ppgnn_telemetry::reset_trace();
            ppgnn_telemetry::set_enabled(true);
            for chunk in 0..num_chunks {
                store
                    .read_chunk_all_hops_into(chunk, AccessPath::Direct, &mut slots)
                    .expect("bench chunk read");
            }
            ppgnn_telemetry::set_enabled(false);
            ppgnn_telemetry::reset_trace();
            telemetry = ppgnn_telemetry::metrics_json("  ");
        }

        // Accuracy drift of training on round-tripped features, in
        // percentage points against the lossless run.
        let acc = if dtype.is_f32() {
            acc_f32
        } else {
            sign_test_acc(&quantized(&prep, dtype), epochs)
        };
        let drift_pt = (acc_f32 - acc) * 100.0;

        let d = dtype.name();
        per_dtype.push_str(&format!(
            concat!(
                "  \"bytes_per_row_{}\": {},\n",
                "  \"compression_ratio_{}\": {:.4},\n",
                "  \"decode_mrows_per_s_{}\": {:.4},\n",
                "  \"epoch_seconds_{}\": {:.6},\n",
                "  \"epoch_physical_mb_{}\": {:.3},\n",
                "  \"acc_{}\": {:.4},\n",
                "  \"acc_drift_pt_{}\": {:.4},\n",
            ),
            d,
            bytes_per_row,
            d,
            ratio,
            d,
            decode_rows_per_s / 1e6,
            d,
            epoch_s,
            d,
            physical_mb,
            d,
            acc,
            d,
            drift_pt,
        ));
    }
    let _ = std::fs::remove_dir_all(&base);

    let json = format!(
        concat!(
            "{{\n",
            "  \"rows\": {},\n",
            "  \"cols\": {},\n",
            "  \"num_hops\": {},\n",
            "  \"chunk_size\": {},\n",
            "  \"train_epochs\": {},\n",
            "  \"threads\": {},\n",
            "  \"cast_backend\": \"{}\",\n",
            "  \"smoke\": {},\n",
            "{}",
            "  \"acc_baseline_f32\": {:.4},\n",
            "  \"telemetry\": {}\n",
            "}}\n"
        ),
        rows,
        cols,
        num_hops,
        chunk_size,
        epochs,
        ppgnn_tensor::pool().num_threads(),
        cast::active_backend_name(),
        smoke,
        per_dtype,
        acc_f32,
        telemetry.trim_start(),
    );
    let path = knobs::string_value(knobs::STORE_BENCH_ARTIFACT)
        .unwrap_or_else(|| "BENCH_store.json".to_string());
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("warning: could not write {path}: {e}");
    } else {
        println!("wrote store artifact to {path}");
    }
}

criterion_group!(benches, bench_store_dtypes);
criterion_main!(benches);
