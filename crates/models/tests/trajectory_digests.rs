//! Bit-exact pins of whole training trajectories.
//!
//! SGC, SIGN and HOGA each take 20 Adam steps on fixed synthetic hop
//! features — dropout active, a short batch every fifth step — and an
//! FNV-1a digest of every parameter bit pattern afterwards is compared
//! against the value recorded for the dispatched GEMM micro-kernel (the
//! backends differ in FMA use, so each has its own trajectory). Every step
//! runs once serial and once with every kernel and pass forced onto the
//! pool; a model's result must not depend on the pool width. Every step
//! also runs both ways a training loop can feed the model: copying
//! (`forward_into`, the caller keeps its batch) and lent
//! (`forward_train` + `return_inputs`, as `Trainer::fit` does) — the same
//! digest either way. A rewrite of a layer, a buffer layout or a pass
//! schedule must leave these unchanged.

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

/// How a step hands the batch to the model.
#[derive(Debug, Clone, Copy)]
enum Feed {
    /// `forward_into(.., Mode::Train, ..)`: the model copies its inputs.
    Copy,
    /// `forward_train`, then `return_inputs` after the backward.
    Lend,
}

/// One training step on `hops` the way `feed` says.
fn step(
    model: &mut dyn PpModel,
    opt: &mut Adam,
    feed: Feed,
    hops: &mut [Matrix],
    labels: &[u32],
    logits: &mut Matrix,
) {
    match feed {
        Feed::Copy => model.forward_into(hops, Mode::Train, logits),
        Feed::Lend => model.forward_train(hops, logits),
    }
    let (_, grad) = CrossEntropyLoss.loss_and_grad(logits, labels);
    model.zero_grad();
    model.backward(&grad);
    if let Feed::Lend = feed {
        model.return_inputs(hops);
    }
    opt.step(&mut model.params());
}

/// A batch of `rows` examples: `HOPS + 1` hop matrices and their labels.
fn batch(rows: usize, step: usize, data_rng: &mut StdRng) -> (Vec<Matrix>, Vec<u32>) {
    let hops = (0..=HOPS)
        .map(|_| init::standard_normal(rows, FEATURES, data_rng))
        .collect();
    let labels = (0..rows)
        .map(|i| ((i * 5 + step) % CLASSES) as u32)
        .collect();
    (hops, labels)
}

/// Trains a fresh model for [`STEPS`] steps and digests its parameters.
fn trajectory(build: fn(&mut StdRng) -> Box<dyn PpModel>, feed: Feed) -> u64 {
    let mut model = build(&mut StdRng::seed_from_u64(2024));
    let mut opt = Adam::new(0.01);
    let mut data_rng = StdRng::seed_from_u64(77);
    let mut logits = Matrix::default();
    for s in 0..STEPS {
        let rows = if s % 5 == 4 { 72 } else { 200 };
        let (mut hops, labels) = batch(rows, s, &mut data_rng);
        step(
            model.as_mut(),
            &mut opt,
            feed,
            &mut hops,
            &labels,
            &mut logits,
        );
    }
    digest_params(model.as_mut())
}

/// Checks a trajectory serial and pooled, copied and lent, against the
/// digest recorded for the dispatched kernel.
fn check(name: &str, recorded: [(KernelKind, u64); 3], build: fn(&mut StdRng) -> Box<dyn PpModel>) {
    let kernel = block::kernel();
    let expect = recorded
        .iter()
        .find(|(k, _)| *k == kernel)
        .map(|&(_, d)| d)
        .unwrap_or_else(|| panic!("no {name} digest recorded for the {} kernel", kernel.name()));
    for feed in [Feed::Copy, Feed::Lend] {
        for threshold in [usize::MAX, 0] {
            ppgnn_tensor::set_parallel_threshold(threshold);
            let got = trajectory(build, feed);
            ppgnn_tensor::set_parallel_threshold(ppgnn_tensor::pool::DEFAULT_PARALLEL_THRESHOLD);
            assert_eq!(
                got,
                expect,
                "{name} on {} ({feed:?}): digest {got:#018x} (threshold {threshold}) != \
                 recorded {expect:#018x}",
                kernel.name()
            );
        }
    }
}

/// Lends a batch to a fresh model for a few `fit`-shaped steps and checks
/// that the hops it reads come back as the same buffers, unchanged, and
/// that they really were moved out (not copied) in between.
fn check_lent_hops_come_back(name: &str, build: fn(&mut StdRng) -> Box<dyn PpModel>) {
    let mut model = build(&mut StdRng::seed_from_u64(5));
    let mut opt = Adam::new(0.01);
    let mut data_rng = StdRng::seed_from_u64(6);
    let mut logits = Matrix::default();
    for s in 0..3 {
        let (mut hops, labels) = batch(if s == 1 { 40 } else { 64 }, s, &mut data_rng);
        let before: Vec<(*const f32, Matrix)> = hops
            .iter()
            .map(|h| (h.as_slice().as_ptr(), h.clone()))
            .collect();
        model.forward_train(&mut hops, &mut logits);
        for &r in &model.hops_read() {
            assert!(hops[r].is_empty(), "{name}: hop {r} was copied, not lent");
        }
        let (_, grad) = CrossEntropyLoss.loss_and_grad(&logits, &labels);
        model.zero_grad();
        model.backward(&grad);
        model.return_inputs(&mut hops);
        opt.step(&mut model.params());
        for (r, (hop, (ptr, values))) in hops.iter().zip(&before).enumerate() {
            assert_eq!(
                hop.as_slice().as_ptr(),
                *ptr,
                "{name}: hop {r} came back in another buffer"
            );
            assert_eq!(hop, values, "{name}: hop {r} came back changed");
        }
    }
}

#[test]
fn lent_hops_come_back_in_their_own_buffers() {
    check_lent_hops_come_back("SGC", |rng| {
        Box::new(Sgc::new(HOPS, FEATURES, CLASSES, rng))
    });
    check_lent_hops_come_back("SIGN", |rng| {
        Box::new(Sign::new(HOPS, FEATURES, HIDDEN, CLASSES, 0.2, rng))
    });
    check_lent_hops_come_back("HOGA", |rng| {
        Box::new(Hoga::new(HOPS, FEATURES, HIDDEN, 4, CLASSES, 0.2, rng))
    });
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
