//! The untraced run: the eight end-to-end metrics of one workload, each
//! timing the median of its in-run samples, plus the correctness checks.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::adapter::{self, Dataset, TrainRun};
use crate::report::Report;
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{
    Pipeline, Workload, MAX_WARMUP_PREP_REPS, MIN_PREP_REPS, WARMUP_EPOCHS, WARMUP_PREP_REPS,
};

/// Share of `--seconds` given to timed preprocess repetitions (training
/// runs its fixed `E` epochs, which the sizes make fill the rest).
const PREP_SHARE: f64 = 0.4;
/// Upper limit on timed preprocess repetitions.
const MAX_PREP_REPS: usize = 200;
/// A preprocess repetition that takes more minor page faults than this
/// (1 MiB of pages) is still growing the heap, so it is warm-up.
const QUIET_FAULTS: u64 = 256;

/// Empties the store directory for the next preprocessing call.
///
/// Deleting the previous store frees its page-cache pages and the next call
/// wants as many back, but in between the guest reports free memory to the
/// host, and every page it reported costs a host fault when it is written
/// again (README, rule 5: the same 192 MB took 0.05 to 0.45 s). Writing
/// `ballast_bytes` of throw-away file first, and deleting it with the store,
/// doubles the host-backed free pages, so the call finds enough of them
/// whatever the reporting thread took.
pub fn reset_store(dir: &Path, ballast_bytes: u64) -> Result<(), String> {
    let ballast = dir.with_extension("ballast");
    let io = |e: std::io::Error| format!("{}: {e}", ballast.display());
    if ballast_bytes > 0 {
        let mut file = std::fs::File::create(&ballast).map_err(io)?;
        let piece = vec![0u8; 1 << 20];
        let mut left = ballast_bytes as usize;
        while left > 0 {
            let n = left.min(piece.len());
            file.write_all(&piece[..n]).map_err(io)?;
            left -= n;
        }
    }
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    if ballast_bytes > 0 {
        std::fs::remove_file(&ballast).map_err(io)?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))
}

/// One set-up: scratch directory, worker pool, GEMM dispatch, dataset.
pub fn set_up(w: &Workload, seed: u64, dir: &Path) -> Result<Dataset, String> {
    reset_store(dir, 0)?;
    adapter::warm_runtime();
    Dataset::generate(w, seed)
}

/// Epochs until validation accuracy first reaches `target`, interpolated
/// linearly inside the crossing epoch so that one noisy epoch boundary does
/// not move the metric by a whole epoch. `None` when never reached.
pub fn epochs_to_acc(val_acc: &[f64], target: f64) -> Option<f64> {
    let i = val_acc.iter().position(|&a| a >= target)?;
    let prev = if i == 0 { 0.0 } else { val_acc[i - 1] };
    let step = val_acc[i] - prev;
    let frac = if step > 0.0 {
        ((target - prev) / step).clamp(0.0, 1.0)
    } else {
        1.0
    };
    Some(i as f64 + frac)
}

/// Per-epoch samples after the warm-up epochs.
pub fn timed_epochs(run: &TrainRun, f: impl Fn(&adapter::EpochRow) -> f64) -> Vec<f64> {
    run.epochs.iter().skip(WARMUP_EPOCHS).map(f).collect()
}

/// Bytes the store under `dir` holds on disk; 0 for an in-memory workload.
pub fn stored_bytes(w: &Workload, dir: &Path) -> Result<u64, String> {
    if w.stored() {
        stats::dir_bytes(dir).map_err(|e| format!("{}: {e}", dir.display()))
    } else {
        Ok(0)
    }
}

/// Runs the workload untraced for about `seconds` of measuring and fills in
/// the end-to-end metrics. `started` is when the process started.
pub fn run(w: &Workload, args: &crate::Args, scratch: &Path, started: Instant) -> Report {
    let mut report = Report::default();
    let dir = scratch.join("store");
    if let Err(e) = measure(w, args, &dir, started, &mut report) {
        report.ops.record::<()>("run aborted", &Err(e));
    }
    report
}

fn measure(
    w: &Workload,
    args: &crate::Args,
    dir: &Path,
    started: Instant,
    report: &mut Report,
) -> Result<(), String> {
    let (seed, seconds) = (args.seed, args.seconds);
    // Set-up: this process's own, timed from its start, after the samples
    // of the set-up-only processes the parent ran before it.
    let data = set_up(w, seed, dir)?;
    let mut setup_s = args.setup_samples.clone();
    setup_s.push(started.elapsed().as_secs_f64());

    // Preprocessing: warm-up repetitions until the heap stops growing, then
    // timed ones until the share of `--seconds` is used (never fewer than
    // MIN_PREP_REPS).
    let mut prep_s = Vec::new();
    let mut digests = Vec::new();
    let mut prep = None;
    let mut warmups = 0;
    let mut warm = false;
    let mut ballast = 0;
    let mut budget = Instant::now();
    loop {
        if prep_s.len() >= MIN_PREP_REPS
            && (prep_s.len() >= MAX_PREP_REPS
                || budget.elapsed().as_secs_f64() >= PREP_SHARE * seconds)
        {
            break;
        }
        if prep_s.is_empty() {
            budget = Instant::now();
        }
        // One sample: `prep_calls` full calls, timed individually (the
        // directory reset between them is not) and averaged.
        let mut sample = 0.0;
        let faults = stats::minor_faults();
        for _ in 0..w.prep_calls {
            drop(prep.take());
            reset_store(dir, ballast)?;
            let t = Instant::now();
            let out = adapter::preprocess(w, &data, dir);
            sample += t.elapsed().as_secs_f64() / w.prep_calls as f64;
            report.ops.record("preprocess call", &out);
            let out = out?;
            digests.push(out.train_digest());
            prep = Some(out);
        }
        ballast = stored_bytes(w, dir)?;
        if warm {
            prep_s.push(sample);
        } else {
            warmups += 1;
            let quiet = stats::minor_faults() - faults <= QUIET_FAULTS;
            warm = warmups >= MAX_WARMUP_PREP_REPS || (warmups >= WARMUP_PREP_REPS && quiet);
        }
    }
    let prep = prep.ok_or("no preprocessing call ran")?;
    report.ops.check(
        "training hops identical across preprocess repetitions",
        digests.iter().all(|d| *d == digests[0]),
        || format!("digests {digests:x?}"),
    );
    // Hop features retained for training: the store, or the three
    // in-memory splits.
    let bytes = if w.stored() {
        ballast
    } else {
        prep.retained_bytes()
    };

    report.ops.record(
        "loader streams every training row once, equal to the in-memory hops",
        &adapter::check_loader_stream(w, &prep, dir, seed),
    );

    // Training: E epochs, the first WARMUP_EPOCHS untimed.
    let run = adapter::train(w, &prep, dir, seed, w.epochs, false, &Tracer::new(false))?;
    report.ops.passed(run.batches + run.evals);
    let val_acc: Vec<f64> = run.epochs.iter().map(|e| e.val_acc).collect();
    let test_acc = run.test_acc;
    let train_s = timed_epochs(&run, |e| e.train_s);
    let epoch_s = timed_epochs(&run, |e| e.total_s);
    report.ops.check(
        "loss finite every epoch, no loader error",
        run.failures.is_empty(),
        || run.failures.join("; "),
    );
    let (train_rows, ..) = prep.rows();
    drop(prep);

    if matches!(w.pipeline, Pipeline::ShardedStore { .. }) {
        let reference = adapter::unpartitioned_digest(w, &data);
        report.ops.check(
            "partitioned training hops bit-identical to an unpartitioned run",
            reference == digests[0],
            || format!("{:x} vs {reference:x}", digests[0]),
        );
    }

    report.sampled("setup_s", "s", &setup_s);
    report.sampled("preprocess_s", "s", &prep_s);
    let rates: Vec<f64> = train_s.iter().map(|s| train_rows as f64 / s).collect();
    report.sampled("train_rows_per_s", "rows/s", &rates);
    let epoch = report.sampled("epoch_s", "s", &epoch_s);
    let to_acc = epochs_to_acc(&val_acc, w.target_val_acc);
    report.ops.check(
        "validation accuracy target reached",
        to_acc.is_some(),
        || {
            format!(
                "val accuracy never reached {} in {} epochs (best {:.4})",
                w.target_val_acc,
                w.epochs,
                val_acc.iter().copied().fold(0.0, f64::max)
            )
        },
    );
    report.value(
        "time_to_acc_s",
        "s",
        to_acc.unwrap_or(w.epochs as f64) * epoch,
    );
    report.ops.check(
        "test accuracy at or above the floor",
        test_acc >= w.test_acc_floor,
        || format!("{test_acc:.4} < {}", w.test_acc_floor),
    );
    report.value("test_acc", "fraction", test_acc);
    report.value("store_bytes", "bytes", bytes as f64);
    report.value("peak_rss_mb", "MB", stats::peak_rss_mb());

    println!(
        "val_acc by epoch: {}",
        val_acc
            .iter()
            .map(|a| format!("{a:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "trainer.epochs_to_acc = {} (target {})",
        to_acc.map_or("never".to_string(), |e| format!("{e:.3}")),
        w.target_val_acc
    );
    Ok(())
}
