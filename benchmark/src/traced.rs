//! The traced run: the pipeline driven stage by stage with a span around
//! every call into the program, plus single-entry-point probes next to a
//! ceiling measured in the same process. Gives the per-layer metrics, a
//! Chrome trace and `layers-<workload>.json`; end-to-end metrics never come
//! from here.

use std::path::Path;
use std::time::Instant;

use crate::adapter::{self, Store};
use crate::report::Report;
use crate::stats::{self, median};
use crate::timed::{epochs_to_acc, reset_store, set_up, stored_bytes, timed_epochs};
use crate::trace::Tracer;
use crate::workloads::{Shape, Workload, WARMUP_EPOCHS};

/// Preprocess calls: the first is `preprocess.cold_s`, the last gives the
/// warm counters.
const PREP_REPS: usize = 3;
/// Epochs of the traced training run: past every workload's accuracy
/// target, and far fewer than the untraced run's `E`.
const TRACED_EPOCHS: usize = 20;
/// Timed epochs of the untraced reference training run.
const REFERENCE_EPOCHS: usize = 5;
/// Loader drains; `loader.drain_s` is their median.
const DRAIN_REPS: usize = 7;
/// Shuffled chunk sweeps after the first; `dataio.read_chunk_s` is their median.
const SWEEP_REPS: usize = 5;
/// Calls per GEMM / cast probe.
const KERNEL_REPS: usize = 9;
/// Floats per buffer of the memory-copy probe (128 MiB, far past any cache
/// level a guest core sees).
const STREAM_FLOATS: usize = 32 << 20;

/// Copy bandwidth in GB/s of payload (bytes copied, not read + written):
/// the ceiling SpMM, row gather and store decode stream against.
fn stream_gb_per_s() -> f64 {
    let src = vec![1.0f32; STREAM_FLOATS];
    let mut dst = vec![0.0f32; STREAM_FLOATS];
    let secs: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            dst.copy_from_slice(&src);
            std::hint::black_box(&mut dst);
            t.elapsed().as_secs_f64()
        })
        .collect();
    (STREAM_FLOATS * 4) as f64 / median(&secs) / 1e9
}

/// `std::fs::read` of every file under `dir`: (bytes, seconds).
fn read_all(dir: &Path) -> std::io::Result<(u64, f64)> {
    fn walk(dir: &Path, bytes: &mut u64) -> std::io::Result<()> {
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.is_dir() {
                walk(&path, bytes)?;
            } else {
                *bytes += std::hint::black_box(std::fs::read(&path)?).len() as u64;
            }
        }
        Ok(())
    }
    let t = Instant::now();
    let mut bytes = 0;
    walk(dir, &mut bytes)?;
    Ok((bytes, t.elapsed().as_secs_f64()))
}

/// Runs the workload traced; writes `trace-<workload>.json` and
/// `layers-<workload>.json` under `out`.
pub fn run(w: &Workload, seed: u64, scratch: &Path, out: &Path) -> Report {
    let mut report = Report::default();
    let tr = Tracer::new(true);
    if let Err(e) = measure(w, seed, scratch, &tr, &mut report) {
        report.ops.record::<()>("run aborted", &Err(e));
    }
    let files = tr
        .write_chrome(&out.join(format!("trace-{}.json", w.name)), w.name)
        .and_then(|()| std::fs::write(out.join(format!("layers-{}.json", w.name)), report.json()));
    report
        .ops
        .record("trace files written", &files.map_err(|e| e.to_string()));
    report
}

fn measure(
    w: &Workload,
    seed: u64,
    scratch: &Path,
    tr: &Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let store_dir = scratch.join("store");

    // --- set-up -----------------------------------------------------------
    let (data, gen_s) = tr.time("setup", || set_up(w, seed, &store_dir));
    let data = data?;
    report.value("graph.gen_s", "s", gen_s);

    // --- tensor probes ----------------------------------------------------
    tr.time("probe.tensor", || {
        let f = data.feature_dim();
        let [nn, tn, nt] = adapter::gemm_gflops(w, f, adapter::num_classes(&data), KERNEL_REPS);
        report.value("tensor.gemm_nn_gflops", "GFLOP/s", nn);
        report.value("tensor.gemm_tn_gflops", "GFLOP/s", tn);
        report.value("tensor.gemm_nt_gflops", "GFLOP/s", nt);
        let (enc, dec) = adapter::cast_mrows_per_s(f * w.ops.len(), KERNEL_REPS);
        report.value("tensor.cast_encode_mrows_per_s", "Mrows/s", enc);
        report.value("tensor.cast_decode_mrows_per_s", "Mrows/s", dec);
        report.value("tensor.stream_gb_per_s", "GB/s", stream_gb_per_s());
        report.value(
            "tensor.pool_threads",
            "count",
            adapter::warm_runtime() as f64,
        );
    });

    // --- preprocessing, whole calls ----------------------------------------
    let mut prep = None;
    let mut prep_s = Vec::with_capacity(PREP_REPS);
    let mut ballast = 0;
    for _ in 0..PREP_REPS {
        drop(prep.take());
        tr.time("harness.reset_store", || reset_store(&store_dir, ballast))
            .0?;
        let (out, s) = tr.time("preprocess", || adapter::preprocess(w, &data, &store_dir));
        report.ops.record("preprocess call", &out);
        prep = Some(out?);
        prep_s.push(s);
        ballast = stored_bytes(w, &store_dir)?;
    }
    let prep = prep.ok_or("no preprocessing call ran")?;
    let warm_s = prep_s[PREP_REPS - 1];
    let ps = prep.stats();
    let (train_rows, ..) = prep.rows();
    report.value("preprocess.cold_s", "s", prep_s[0]);
    report.value("preprocess.hop_s", "s", ps.hop_s);
    report.value("preprocess.other_s", "s", warm_s - ps.hop_s);
    report.value(
        "preprocess.spmm_invocations",
        "count",
        adapter::spmm_invocations(w) as f64,
    );
    report.value("preprocess.expansion_factor", "ratio", ps.expansion_factor);
    report.value("preprocess.retained_rows", "count", ps.retained_rows);
    report.value("partition.ghost_rows", "count", ps.ghost_rows);
    report.value("partition.nnz_imbalance", "ratio", ps.nnz_imbalance);

    // --- preprocessing, stage by stage -------------------------------------
    let stages = adapter::graph_stages(w, &data, tr);
    report.value("graph.operator_build_s", "s", stages.operator_build_s);
    report.value("graph.spmm_s", "s", stages.spmm_s);
    report.value("graph.spmm_nnz", "count", stages.spmm_nnz);
    report.value(
        "graph.spmm_gmadd_per_s",
        "Gmadd/s",
        stages.spmm_nnz * data.feature_dim() as f64 / stages.spmm_s / 1e9,
    );
    report.value("partition.plan_s", "s", stages.plan_s);

    // --- store write and read, one entry point at a time ---------------------
    // Reads are served from the page cache, so these are software-path
    // rates: syscall + copy + checksum + decode.
    let mut dataio = [0.0f64; 14];
    if w.stored() {
        let probe_dir = scratch.join("probe-write");
        tr.time("harness.reset_store", || reset_store(&probe_dir, ballast))
            .0?;
        let (written, _) = tr.time("dataio.write", || {
            adapter::write_store(w, &prep, &probe_dir)
        });
        report.ops.record("store write", &written);
        let (write_s, logical, physical) = written?;
        let (store, open_s) = tr.time("dataio.open", || Store::open(&store_dir));
        let mut store = store?;
        let (first, first_s) = tr.time("dataio.first_read", || store.sweep(seed));
        let mut sweep_s = Vec::with_capacity(SWEEP_REPS);
        let mut failures = first.failures;
        for i in 0..SWEEP_REPS {
            let (counts, s) = tr.time("dataio.read_chunks", || store.sweep(seed + 1 + i as u64));
            failures += counts.failures;
            sweep_s.push(s);
        }
        report.ops.check("store chunk reads", failures == 0, || {
            format!("{failures} chunk reads failed")
        });
        let read_chunk_s = median(&sweep_s);
        let (seq, _) = tr.time("dataio.seq_read", || read_all(&store_dir));
        let (seq_bytes, seq_s) = seq.map_err(|e| e.to_string())?;
        dataio = [
            write_s,
            logical as f64 / write_s / 1e6,
            ps.writer_block_s,
            ps.writer_queue_hwm,
            logical as f64,
            physical as f64,
            logical as f64 / physical as f64,
            open_s,
            read_chunk_s,
            first.logical_bytes as f64 / read_chunk_s / 1e6,
            first_s,
            seq_bytes as f64 / seq_s / 1e6,
            first.requests as f64,
            failures as f64,
        ];
    }
    // Zero on the in-memory workloads: the layer does no work there.
    for ((name, unit), value) in [
        ("dataio.write_s", "s"),
        ("dataio.write_mb_per_s", "MB/s"),
        ("dataio.writer_block_s", "s"),
        ("dataio.writer_queue_hwm", "count"),
        ("dataio.logical_bytes", "bytes"),
        ("dataio.physical_bytes", "bytes"),
        ("dataio.compression_ratio", "ratio"),
        ("dataio.open_s", "s"),
        ("dataio.read_chunk_s", "s"),
        ("dataio.read_logical_mb_per_s", "MB/s"),
        ("dataio.first_epoch_read_s", "s"),
        ("dataio.seq_read_ceiling_mb_per_s", "MB/s"),
        ("dataio.read_requests", "count"),
        ("dataio.read_failures", "count"),
    ]
    .into_iter()
    .zip(dataio)
    {
        report.value(name, unit, value);
    }

    // --- loader alone --------------------------------------------------------
    let (drains, _) = tr.time("loader.drain", || {
        adapter::drain_loader(w, &prep, &store_dir, seed, DRAIN_REPS)
    });
    report.ops.record("loader drains", &drains);
    let drain_s = median(&drains?);
    report.value("loader.drain_s", "s", drain_s);
    report.value(
        "loader.drain_rows_per_s",
        "rows/s",
        train_rows as f64 / drain_s,
    );

    // --- training: untraced reference, then traced ---------------------------
    let (reference, _) = tr.time("train.reference", || {
        let epochs = WARMUP_EPOCHS + REFERENCE_EPOCHS;
        adapter::train(
            w,
            &prep,
            &store_dir,
            seed,
            epochs,
            false,
            &Tracer::new(false),
        )
    });
    let reference = reference?;
    let run = {
        let _span = tr.span("train.traced");
        adapter::train(w, &prep, &store_dir, seed, TRACED_EPOCHS, true, tr)?
    };
    report
        .ops
        .passed(reference.batches + reference.evals + run.batches + run.evals);
    report.ops.fail_all(reference.failures.clone());
    report.ops.fail_all(run.failures.clone());

    let per_epoch = |f: fn(&adapter::EpochRow) -> f64| median(&timed_epochs(&run, f));
    let wait_s = per_epoch(|e| e.wait_s);
    let forward_s = per_epoch(|e| e.forward_s);
    let backward_s = per_epoch(|e| e.backward_s);
    let epochs = run.epochs.len() as f64;
    let wait_frac = per_epoch(|e| e.wait_s / e.train_s);
    let compute_s = per_epoch(|e| e.train_s - e.wait_s);
    let (holds, rule) = match w.shape {
        Shape::Mixed => (true, "no single layer meant to dominate".to_string()),
        Shape::LoaderBound => (
            drain_s >= 0.8 * compute_s,
            format!("loader.drain_s {drain_s:.4} >= 0.8 x consumer compute {compute_s:.4}"),
        ),
        Shape::WaitBelow(x) => (
            wait_frac < x,
            format!("loader.wait_frac {wait_frac:.4} < {x}"),
        ),
    };
    println!(
        "shape: {rule}: {}",
        if holds {
            "holds"
        } else {
            "VIOLATED (sizes are wrong)"
        }
    );
    report.value("loader.setup_s", "s", run.loader_setup_s);
    report.value("loader.wait_s", "s", wait_s);
    report.value("loader.wait_frac", "fraction", wait_frac);
    println!(
        "loader.batch_ready percentiles over n = {} batches",
        run.batch_wait_us.len()
    );
    report.value(
        "loader.batch_ready_p50_us",
        "us",
        median(&run.batch_wait_us),
    );
    report.value(
        "loader.batch_ready_p99_us",
        "us",
        stats::quantile_of(&run.batch_wait_us, 0.99),
    );
    report.value(
        "loader.bytes_assembled",
        "bytes",
        run.bytes_assembled as f64 / epochs,
    );
    report.value("loader.gather_ops", "count", run.gather_ops as f64 / epochs);
    report.value("loader.batches", "count", run.batches as f64 / epochs);
    report.value("trainer.forward_s", "s", forward_s);
    report.value("trainer.backward_s", "s", backward_s);
    report.value("trainer.optim_s", "s", per_epoch(|e| e.optim_s));
    report.value("trainer.eval_s", "s", per_epoch(|e| e.eval_s));
    let ((eval_s, eval_rows), _) =
        tr.time("probe.evaluate", || adapter::time_evaluate(w, &prep, seed));
    report.value(
        "trainer.eval_rows_per_s",
        "rows/s",
        eval_rows as f64 / eval_s,
    );
    let val_acc: Vec<f64> = run.epochs.iter().map(|e| e.val_acc).collect();
    let to_acc = epochs_to_acc(&val_acc, w.target_val_acc);
    report.ops.check(
        "validation accuracy target reached",
        to_acc.is_some(),
        || format!("never reached {}", w.target_val_acc),
    );
    report.value("trainer.epochs_to_acc", "epochs", to_acc.unwrap_or(epochs));
    report.value(
        "trainer.fit_overhead_s",
        "s",
        reference.wall_s - reference.epochs.iter().map(|e| e.total_s).sum::<f64>(),
    );
    report.value(
        "models.gflops_achieved",
        "GFLOP/s",
        run.flops_per_example as f64 * train_rows as f64 / (forward_s + backward_s) / 1e9,
    );
    report.value("models.params", "count", run.params as f64);

    // --- the harness itself ------------------------------------------------
    // Same epochs on both sides: the ones the shorter reference run timed.
    let reference_epochs = timed_epochs(&reference, |e| e.total_s);
    let traced_epoch = median(&timed_epochs(&run, |e| e.total_s)[..reference_epochs.len()]);
    let reference_epoch = median(&reference_epochs);
    report.value(
        "trace.overhead_frac",
        "fraction",
        traced_epoch / reference_epoch - 1.0,
    );
    let coverage = tr.coverage();
    report.value("trace.coverage", "fraction", coverage);
    report.ops.check(
        "top-level spans cover the traced wall",
        (0.90..=1.10).contains(&coverage),
        || format!("coverage {coverage:.3} outside 0.90..1.10"),
    );
    Ok(())
}
