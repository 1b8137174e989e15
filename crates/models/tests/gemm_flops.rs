//! `PpModel::flops_per_example` counts the GEMM work a training step
//! executes, as the telemetry's `gemm.madds` counter sees it.
//!
//! One test in its own binary: the counter is process-wide, so nothing
//! else may run GEMMs while a step is measured.

use ppgnn_models::{Hoga, PpModel, Sgc, Sign};
use ppgnn_nn::{CrossEntropyLoss, Mode};
use ppgnn_tensor::{init, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

const HOPS: usize = 2;
const FEATURES: usize = 24;
const HIDDEN: usize = 16;
const CLASSES: usize = 5;
const BATCH: usize = 96;

fn gemm_madds() -> u64 {
    ppgnn_telemetry::counters_snapshot()
        .into_iter()
        .find(|(name, _)| *name == "gemm.madds")
        .map_or(0, |(_, v)| v)
}

/// Multiply-adds the GEMMs of one warmed training step (forward, loss,
/// backward) execute.
fn step_madds(model: &mut dyn PpModel) -> u64 {
    let mut rng = StdRng::seed_from_u64(3);
    let hops: Vec<Matrix> = (0..=HOPS)
        .map(|_| init::standard_normal(BATCH, FEATURES, &mut rng))
        .collect();
    let labels: Vec<u32> = (0..BATCH).map(|i| (i % CLASSES) as u32).collect();
    let mut logits = Matrix::default();
    let mut step = |model: &mut dyn PpModel| {
        model.forward_into(&hops, Mode::Train, &mut logits);
        let (_, grad) = CrossEntropyLoss.loss_and_grad(&logits, &labels);
        model.zero_grad();
        model.backward(&grad);
    };
    step(model);
    ppgnn_telemetry::set_enabled(true);
    let before = gemm_madds();
    step(model);
    let madds = gemm_madds() - before;
    ppgnn_telemetry::set_enabled(false);
    madds
}

#[test]
fn flops_per_example_counts_the_executed_gemm_work() {
    let mut rng = StdRng::seed_from_u64(1);
    let batch = BATCH as u64;

    let mut sgc = Sgc::new(HOPS, FEATURES, CLASSES, &mut rng);
    let madds = step_madds(&mut sgc);
    assert_eq!(sgc.flops_per_example() * batch, 2 * madds, "SGC");

    let mut sign = Sign::new(HOPS, FEATURES, HIDDEN, CLASSES, 0.1, &mut rng);
    let madds = step_madds(&mut sign);
    assert_eq!(sign.flops_per_example() * batch, 2 * madds, "SIGN");

    // HOGA's count also holds its attention scores and mix (forward `2·t²·h`
    // multiply-adds, backward twice that), which the fused attention core
    // computes outside any GEMM call.
    let mut hoga = Hoga::new(HOPS, FEATURES, HIDDEN, 4, CLASSES, 0.1, &mut rng);
    let madds = step_madds(&mut hoga);
    let (t, h) = ((HOPS + 1) as u64, HIDDEN as u64);
    let attention_core = 2 * 6 * t * t * h;
    assert_eq!(
        (hoga.flops_per_example() - attention_core) * batch,
        2 * madds,
        "HOGA"
    );
}
