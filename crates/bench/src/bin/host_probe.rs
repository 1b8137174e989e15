//! Host covariates: how fast this machine is right now, as one JSON line.
//!
//! Two probes, each the median of several timed repetitions:
//!
//! * `gemm_nn_gflops` — a 4096×128×128 `nn` product through
//!   `ppgnn_tensor::matmul_into` (HOGA's projection shape) on the shared
//!   pool: the compute side of the host;
//! * `chase_ns_per_load` — nanoseconds per dependent load of a pointer
//!   chase through one random cycle over 64 MB: the memory side, past
//!   every cache level.
//!
//! A paired benchmark comparison (`scripts/compare.sh`) runs it before
//! each pair, so a swing of the host between runs shows up beside the
//! verdicts instead of inside them. It changes no verdict.
//!
//! Run with: `cargo run --release -p ppgnn-bench --bin host_probe`

use std::hint::black_box;
use std::time::Instant;

use ppgnn_tensor::{matmul_into, Matrix};
use rand::{Rng, SeedableRng};

/// Timed repetitions of the GEMM probe.
const GEMM_REPS: usize = 21;
/// Timed repetitions of the pointer chase.
const CHASE_REPS: usize = 5;
/// Dependent loads per chase repetition.
const CHASE_LOADS: usize = 1 << 20;
/// Bytes the chase walks through.
const CHASE_BYTES: usize = 64 << 20;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Median GFLOP/s of a 4096×128×128 `nn` product, warm.
fn gemm_nn_gflops() -> f64 {
    let (m, k, n) = (4096, 128, 128);
    let a = Matrix::from_fn(m, k, |r, c| ((r * 7 + c * 3) % 17) as f32 * 0.05 - 0.4);
    let b = Matrix::from_fn(k, n, |r, c| ((r * 5 + c * 11) % 13) as f32 * 0.05 - 0.3);
    let mut c = Matrix::zeros(m, n);
    for _ in 0..3 {
        matmul_into(&a, &b, &mut c);
    }
    let secs = (0..GEMM_REPS).map(|_| {
        let t = Instant::now();
        matmul_into(&a, &b, &mut c);
        black_box(&c);
        t.elapsed().as_secs_f64()
    });
    2.0 * (m * n * k) as f64 / median(secs.collect()) / 1e9
}

/// Median ns per load of a pointer chase over one random cycle through
/// `CHASE_BYTES` of `usize` slots (Sattolo's shuffle: every slot is on
/// the cycle, so no prefetcher can guess the next address).
fn chase_ns_per_load() -> f64 {
    let len = CHASE_BYTES / std::mem::size_of::<usize>();
    let mut next: Vec<usize> = (0..len).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    for i in (1..len).rev() {
        let j = rng.random_range(0..i);
        next.swap(i, j);
    }
    let mut at = 0;
    let ns = (0..CHASE_REPS).map(|_| {
        let t = Instant::now();
        for _ in 0..CHASE_LOADS {
            at = next[at];
        }
        black_box(at);
        t.elapsed().as_secs_f64() * 1e9 / CHASE_LOADS as f64
    });
    median(ns.collect())
}

fn main() {
    let gflops = gemm_nn_gflops();
    let chase = chase_ns_per_load();
    println!("{{\"gemm_nn_gflops\": {gflops:.1}, \"chase_ns_per_load\": {chase:.1}}}");
}
