//! End-to-end pipeline benchmarks: preprocessing (SpMM chain) and one
//! training step per PP-GNN model — the real-compute quantities behind the
//! Figure 5 breakdown.
//!
//! Besides the criterion groups, this bench emits a machine-readable
//! `BENCH_preprop.json` artifact (preprocess seconds + bytes moved for the
//! paper's K=2, R=3 pokec configuration, shard-scheduled and sequential,
//! so the sharding speedup is tracked explicitly) so CI can follow the
//! pre-propagation perf trajectory across PRs. Destination overridable via
//! `PPGNN_BENCH_ARTIFACT`; `PPGNN_BENCH_SMOKE=1` reduces repetitions.
//! One extra instrumented rep embeds the telemetry counter/histogram
//! readout as the artifact's `telemetry` section.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use ppgnn_bench::{pp_models, MICRO_SCALE};
use ppgnn_core::preprocess::Preprocessor;
use ppgnn_graph::synth::{DatasetProfile, SynthDataset};
use ppgnn_graph::Operator;
use ppgnn_nn::{CrossEntropyLoss, Mode};
use ppgnn_tensor::{knobs, Matrix};

fn bench_preprocess(c: &mut Criterion) {
    let data = SynthDataset::generate(DatasetProfile::pokec_sim().scaled(MICRO_SCALE), 0)
        .expect("generation succeeds");
    let mut group = c.benchmark_group("preprocess");
    group.sample_size(10);
    group.bench_function("sym-norm-3-hops", |b| {
        let prep = Preprocessor::new(vec![Operator::SymNorm], 3);
        b.iter(|| black_box(prep.run(&data)));
    });
    group.bench_function("ppr-3-hops", |b| {
        let prep = Preprocessor::new(vec![Operator::Ppr { alpha: 0.15 }], 3);
        b.iter(|| black_box(prep.run(&data)));
    });
    group.finish();
}

/// The acceptance-criterion configuration: pokec_sim, K=2 operators, R=3
/// hops — one full streaming pre-propagation per iteration, at a scale
/// where the SpMM work crosses the parallel threshold and exercises the
/// worker pool.
fn bench_preprocess_k2_r3(c: &mut Criterion) {
    let data = SynthDataset::generate(DatasetProfile::pokec_sim().scaled(0.25), 0)
        .expect("generation succeeds");
    let num_shards = ppgnn_tensor::pool().num_threads().max(2);
    let sharded = Preprocessor::new(vec![Operator::SymNorm, Operator::RowNorm], 3)
        .with_num_shards(num_shards);
    let sequential =
        Preprocessor::new(vec![Operator::SymNorm, Operator::RowNorm], 3).with_num_shards(1);
    let mut group = c.benchmark_group("preprocess");
    group.sample_size(10);
    group.bench_function("pokec-k2-r3-sharded", |b| {
        b.iter(|| black_box(sharded.run(&data)));
    });
    group.bench_function("pokec-k2-r3-sequential", |b| {
        b.iter(|| black_box(sequential.run(&data)));
    });
    group.finish();

    write_preprop_artifact(&data, &sharded, &sequential, num_shards);
}

/// Measures the K=2/R=3 pre-propagation directly (independent of the
/// criterion shim) — sharding on vs off — and writes `BENCH_preprop.json`.
fn write_preprop_artifact(
    data: &SynthDataset,
    sharded: &Preprocessor,
    sequential: &Preprocessor,
    num_shards: usize,
) {
    // Under `cargo test` the bench bodies run once as smoke tests; only
    // write the artifact when actually measuring (`cargo bench` passes
    // `--bench`) or when a destination was explicitly requested.
    let measuring = std::env::args().any(|a| a == "--bench");
    if !measuring && !knobs::is_set(knobs::BENCH_ARTIFACT) {
        return;
    }
    let smoke = knobs::flag(knobs::BENCH_SMOKE);
    let reps = if smoke { 1 } else { 3 };
    let best_of = |prep: &Preprocessor| {
        let mut seconds = f64::MAX;
        let mut out = prep.run(data); // warm-up + a measurable output
        for _ in 0..reps {
            let run = prep.run(data);
            seconds = seconds.min(run.preprocess_seconds);
            out = run;
        }
        (seconds, out)
    };
    let (sequential_seconds, _) = best_of(sequential);
    let (sharded_seconds, out) = best_of(sharded);
    // One extra instrumented rep (outside the timed best-of runs) so the
    // artifact carries the pipeline's counter/histogram readout.
    let telemetry = {
        ppgnn_telemetry::reset_metrics();
        ppgnn_telemetry::reset_trace();
        ppgnn_telemetry::set_enabled(true);
        black_box(sharded.run(data));
        ppgnn_telemetry::set_enabled(false);
        ppgnn_telemetry::reset_trace();
        ppgnn_telemetry::metrics_json("  ")
    };
    // Bytes the preprocessing stage moves: the propagated hop features it
    // produces (the expansion quantity of Section 3.4), plus the SpMM read
    // traffic over the feature matrix per invocation.
    let n = data.graph.num_nodes() as u64;
    let f = data.features.cols() as u64;
    let spmm_bytes = sharded.total_spmm_invocations() as u64 * 2 * n * f * 4;
    let output_bytes = out.train.size_bytes() + out.val.size_bytes() + out.test.size_bytes();
    let threads = ppgnn_tensor::pool().num_threads();
    let json = format!(
        concat!(
            "{{\n",
            "  \"profile\": \"pokec_sim\",\n",
            "  \"num_operators\": {},\n",
            "  \"hops\": {},\n",
            "  \"num_nodes\": {},\n",
            "  \"threads\": {},\n",
            "  \"num_shards\": {},\n",
            "  \"smoke\": {},\n",
            "  \"preprocess_seconds\": {:.6},\n",
            "  \"preprocess_seconds_sequential\": {:.6},\n",
            "  \"sharding_speedup\": {:.4},\n",
            "  \"output_bytes\": {},\n",
            "  \"spmm_traffic_bytes\": {},\n",
            "  \"telemetry\": {}\n",
            "}}\n"
        ),
        sharded.operators().len(),
        sharded.hops(),
        n,
        threads,
        num_shards,
        smoke,
        sharded_seconds,
        sequential_seconds,
        sequential_seconds / sharded_seconds.max(f64::EPSILON),
        output_bytes,
        spmm_bytes,
        telemetry.trim_start(),
    );
    let path = knobs::string_value(knobs::BENCH_ARTIFACT)
        .unwrap_or_else(|| "BENCH_preprop.json".to_string());
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("warning: could not write {path}: {e}");
    } else {
        println!("wrote pre-propagation artifact to {path}");
    }
}

fn bench_train_step(c: &mut Criterion) {
    let profile = DatasetProfile::pokec_sim().scaled(MICRO_SCALE);
    let data = SynthDataset::generate(profile, 0).expect("generation succeeds");
    let prep = Preprocessor::new(vec![Operator::SymNorm], 3).run(&data);
    let batch: Vec<Matrix> = prep
        .train
        .hops
        .iter()
        .map(|h| h.slice_rows(0, 256))
        .collect();
    let labels: Vec<u32> = prep.train.labels[..256].to_vec();

    let mut group = c.benchmark_group("train-step-256");
    group.sample_size(20);
    for (name, mut model) in pp_models(3, profile.feature_dim, profile.num_classes, 64, 1) {
        group.bench_function(name, |b| {
            b.iter(|| {
                let logits = model.forward(&batch, Mode::Train);
                let (_, grad) = CrossEntropyLoss.loss_and_grad(&logits, &labels);
                model.zero_grad();
                model.backward(&grad);
                black_box(&model);
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_preprocess,
    bench_preprocess_k2_r3,
    bench_train_step
);
criterion_main!(benches);
