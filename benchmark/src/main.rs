//! End-to-end and per-layer benchmark of the PP-GNN pipeline (README.md).
//!
//! `ppgnn-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload in a child process with a pinned environment and prints
//! its metrics, then one JSON object as the last line. Without `--workload`
//! every workload runs, timed then traced.

mod adapter;
mod report;
mod stats;
mod timed;
mod trace;
mod traced;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use workloads::{Workload, WORKLOADS};

/// Child environment (rule 3): one arena for every thread, no `mmap` per
/// large allocation and no heap trimming, so freed N×F matrices and chunk
/// buffers are reused instead of being returned to the host and
/// first-touched again on every repetition.
const MALLOC_ENV: [(&str, &str); 3] = [
    ("MALLOC_ARENA_MAX", "1"),
    ("MALLOC_MMAP_MAX_", "0"),
    ("MALLOC_TRIM_THRESHOLD_", "1099511627776"),
];
/// Default `--seconds`; `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 25.0;
const USAGE: &str =
    "usage: ppgnn-benchmark [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>]";
/// Set-ups per untraced run, each in a process of its own: at least
/// `MIN_SETUP_SAMPLES`, then more while they have taken under
/// `SETUP_BUDGET_S` together. The last one is the measuring child's own.
const MIN_SETUP_SAMPLES: usize = 3;
const MAX_SETUP_SAMPLES: usize = 9;
const SETUP_BUDGET_S: f64 = 1.5;

#[derive(Debug, Clone)]
struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    /// `None`: both runs (only without `--workload`).
    trace: Option<bool>,
    child: bool,
    /// Child only: set up, print the seconds it took, and exit.
    setup_only: bool,
    /// Child only: `setup_s` samples of the set-up-only children before it.
    setup_samples: Vec<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace: None,
        child: false,
        setup_only: false,
        setup_samples: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(Workload::by_name(&name).ok_or(format!(
                    "unknown workload {name}; known: {}",
                    WORKLOADS.map(|w| w.name).join(", ")
                ))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--child" => args.child = true,
            "--setup-only" => args.setup_only = true,
            "--setup-samples" => {
                args.setup_samples = value()?
                    .split(',')
                    .map(|v| v.parse().map_err(|e| format!("--setup-samples: {e}")))
                    .collect::<Result<_, _>>()?;
            }
            _ => return Err(format!("unknown argument {flag}\n{USAGE}")),
        }
    }
    Ok(args)
}

/// Pool width the children are pinned to (rule 6): the processors, at most 4.
fn pinned_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(4)
}

/// Where runs put their store directories and trace files: inside the
/// checkout (the driver allows writes nowhere else), ignored by git.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A child of this executable for workload `w`, started from an empty
/// environment plus the allow-list.
fn child_command(w: &Workload, args: &Args) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", "--workload", w.name])
        .args(["--seed", &args.seed.to_string()])
        .env_clear()
        .envs(MALLOC_ENV)
        .env("PPGNN_NUM_THREADS", pinned_threads().to_string());
    Ok(cmd)
}

/// Set-up samples from fresh processes: each child sets up, prints the
/// seconds from its start, and exits, so every sample pays for process
/// start, pool start and dispatch resolution, as a user's run does.
fn setup_samples(w: &Workload, args: &Args) -> Result<Vec<f64>, String> {
    let began = Instant::now();
    let mut samples = Vec::new();
    while samples.len() + 1 < MIN_SETUP_SAMPLES
        || (samples.len() + 1 < MAX_SETUP_SAMPLES && began.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        let out = child_command(w, args)?
            .arg("--setup-only")
            .output()
            .map_err(|e| format!("starting a set-up child: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let sample = text
            .trim()
            .parse::<f64>()
            .ok()
            .filter(|_| out.status.success());
        samples.push(sample.ok_or(format!(
            "set-up child failed: {text}{}",
            String::from_utf8_lossy(&out.stderr)
        ))?);
    }
    Ok(samples)
}

/// Runs one workload in a child; the child inherits stdout, so its last
/// line is ours.
fn launch(w: &Workload, args: &Args, trace: bool) -> Result<bool, String> {
    let mut cmd = child_command(w, args)?;
    if !trace {
        let samples: Vec<String> = setup_samples(w, args)?.iter().map(f64::to_string).collect();
        cmd.args(["--setup-samples", &samples.join(",")]);
    }
    let status = cmd
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .status()
        .map_err(|e| format!("starting the child: {e}"))?;
    Ok(status.success())
}

/// The child: one run of one workload in this process.
fn child(w: &Workload, args: &Args, started: Instant) -> bool {
    let trace = args.trace.unwrap_or(false);
    let dir = out_dir().join(format!("run-{}-{}", w.name, std::process::id()));
    if args.setup_only {
        let done = timed::set_up(w, args.seed, &dir.join("store")).map(|_| started.elapsed());
        let _ = std::fs::remove_dir_all(&dir);
        return match done {
            Ok(took) => {
                println!("{}", took.as_secs_f64());
                true
            }
            Err(e) => {
                eprintln!("{e}");
                false
            }
        };
    }
    println!(
        "workload {} seed {} seconds {} trace {}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(trace)
    );
    println!(
        "env.malloc = {}",
        MALLOC_ENV
            .map(|(k, _)| format!("{k}={}", std::env::var(k).unwrap_or("unset".into())))
            .join(" ")
    );
    println!("env.store_fs = {}", dir.display());
    println!(
        "env.threads = pool of {} (available_parallelism {})",
        adapter::warm_runtime(),
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    let report = if trace {
        traced::run(w, args.seed, &dir, &out_dir())
    } else {
        timed::run(w, args, &dir, started)
    };
    // The store directory is scratch; a failure to remove it is not a result.
    let _ = std::fs::remove_dir_all(&dir);
    report.print()
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let ok = match (args.child, args.workload) {
        (true, Some(w)) => child(w, &args, started),
        (true, None) => {
            eprintln!("--child needs --workload");
            return ExitCode::from(2);
        }
        (false, workload) => {
            let selected: Vec<&Workload> = workload.map_or(WORKLOADS.iter().collect(), |w| vec![w]);
            // Timed runs of every workload first, then the traced ones.
            let runs = match (args.trace, workload) {
                (Some(t), _) => vec![t],
                (None, Some(_)) => vec![false],
                (None, None) => vec![false, true],
            };
            let mut ok = true;
            for trace in runs {
                for w in &selected {
                    match launch(w, &args, trace) {
                        Ok(passed) => ok &= passed,
                        Err(e) => {
                            eprintln!("{}: {e}", w.name);
                            ok = false;
                        }
                    }
                }
            }
            ok
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
