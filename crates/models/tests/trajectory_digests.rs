//! Bit-exact pins of whole training trajectories.
//!
//! SGC, SIGN and HOGA each take 20 Adam steps on fixed synthetic hop
//! features — dropout active, a short batch every fifth step — and an
//! FNV-1a digest of every parameter bit pattern afterwards is compared
//! against the value recorded for the dispatched GEMM micro-kernel (the
//! backends differ in FMA use, so each has its own trajectory). Every step
//! runs once serial and once with every kernel and pass forced onto the
//! pool; a model's result must not depend on the pool width. A rewrite of
//! a layer, a buffer layout or a pass schedule must leave these unchanged.

use ppgnn_models::{Hoga, PpModel, Sgc, Sign};
use ppgnn_nn::{Adam, CrossEntropyLoss, Mode, Optimizer};
use ppgnn_tensor::{block, init, KernelKind, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

const HOPS: usize = 3;
const FEATURES: usize = 24;
const HIDDEN: usize = 32;
const CLASSES: usize = 7;
const STEPS: usize = 20;

fn digest_params(model: &mut dyn PpModel) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for p in model.params() {
        for v in p.value.as_slice() {
            for byte in v.to_bits().to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// Trains a fresh model for [`STEPS`] steps and digests its parameters.
fn trajectory(build: fn(&mut StdRng) -> Box<dyn PpModel>) -> u64 {
    let mut model = build(&mut StdRng::seed_from_u64(2024));
    let mut opt = Adam::new(0.01);
    let mut data_rng = StdRng::seed_from_u64(77);
    let mut logits = Matrix::default();
    for step in 0..STEPS {
        let rows = if step % 5 == 4 { 72 } else { 200 };
        let hops: Vec<Matrix> = (0..=HOPS)
            .map(|_| init::standard_normal(rows, FEATURES, &mut data_rng))
            .collect();
        let labels: Vec<u32> = (0..rows)
            .map(|i| ((i * 5 + step) % CLASSES) as u32)
            .collect();
        model.forward_into(&hops, Mode::Train, &mut logits);
        let (_, grad) = CrossEntropyLoss.loss_and_grad(&logits, &labels);
        model.zero_grad();
        model.backward(&grad);
        opt.step(&mut model.params());
    }
    digest_params(model.as_mut())
}

/// Checks a trajectory serial and pooled against the digest recorded for
/// the dispatched kernel.
fn check(name: &str, recorded: [(KernelKind, u64); 3], build: fn(&mut StdRng) -> Box<dyn PpModel>) {
    let kernel = block::kernel();
    let expect = recorded
        .iter()
        .find(|(k, _)| *k == kernel)
        .map(|&(_, d)| d)
        .unwrap_or_else(|| panic!("no {name} digest recorded for the {} kernel", kernel.name()));
    for threshold in [usize::MAX, 0] {
        ppgnn_tensor::set_parallel_threshold(threshold);
        let got = trajectory(build);
        ppgnn_tensor::set_parallel_threshold(ppgnn_tensor::pool::DEFAULT_PARALLEL_THRESHOLD);
        assert_eq!(
            got,
            expect,
            "{name} on {}: digest {got:#018x} (threshold {threshold}) != recorded {expect:#018x}",
            kernel.name()
        );
    }
}

#[test]
fn sgc_trajectory_is_pinned() {
    check(
        "SGC",
        [
            (KernelKind::Portable, 0x2e706fc1de2a9a01),
            (KernelKind::Avx2, 0x19e5e76e446ca471),
            (KernelKind::Avx512, 0x19e5e76e446ca471),
        ],
        |rng| Box::new(Sgc::new(HOPS, FEATURES, CLASSES, rng)),
    );
}

#[test]
fn sign_trajectory_is_pinned() {
    check(
        "SIGN",
        [
            (KernelKind::Portable, 0x4435653aac537906),
            (KernelKind::Avx2, 0xf9e8c8475281f09c),
            (KernelKind::Avx512, 0xf9e8c8475281f09c),
        ],
        |rng| Box::new(Sign::new(HOPS, FEATURES, HIDDEN, CLASSES, 0.2, rng)),
    );
}

#[test]
fn hoga_trajectory_is_pinned() {
    check(
        "HOGA",
        [
            (KernelKind::Portable, 0x59acd2757ea89739),
            (KernelKind::Avx2, 0x7fbaee66ab5419f9),
            (KernelKind::Avx512, 0x7fbaee66ab5419f9),
        ],
        |rng| Box::new(Hoga::new(HOPS, FEATURES, HIDDEN, 4, CLASSES, 0.2, rng)),
    );
}
