//! Bit-exact pins of the element-wise layers and the loss.
//!
//! Each test runs a layer forward and backward on fixed inputs — serial and
//! with every pass forced onto the pool — and compares an FNV-1a digest of
//! every output bit pattern against a recorded value. None of these layers
//! calls a GEMM, so the digests hold on every micro-kernel backend. A
//! rewrite of a layer's inner loop (a byte mask, an in-place backward, a
//! row-blocked sweep) must leave them unchanged.

use ppgnn_nn::{CrossEntropyLoss, Dropout, Mode, Module, PRelu, Relu};
use ppgnn_tensor::Matrix;

/// FNV-1a over the bit patterns of every value fed to it.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bits(&mut self, v: u32) {
        for byte in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn matrix(&mut self, m: &Matrix) {
        self.bits(m.rows() as u32);
        self.bits(m.cols() as u32);
        m.as_slice().iter().for_each(|v| self.bits(v.to_bits()));
    }
}

/// A fixed `rows × cols` matrix of mixed-sign values, zeros of both signs
/// among them, and — when `specials` — infinities and NaNs too.
fn fixed(rows: usize, cols: usize, salt: usize, specials: bool) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        let i = r * cols + c + salt;
        match i % 97 {
            0 => 0.0,
            1 => -0.0,
            2 if specials => f32::INFINITY,
            3 if specials => f32::NEG_INFINITY,
            4 if specials => f32::NAN,
            _ => ((i * 7919) % 2003) as f32 / 401.0 - 2.5,
        }
    })
}

/// Runs `body` serial and pooled; both must produce `expect`.
fn at_both_thresholds(what: &str, expect: u64, body: impl Fn() -> u64) {
    for threshold in [usize::MAX, 0] {
        ppgnn_tensor::set_parallel_threshold(threshold);
        let got = body();
        ppgnn_tensor::set_parallel_threshold(ppgnn_tensor::pool::DEFAULT_PARALLEL_THRESHOLD);
        assert_eq!(
            got, expect,
            "{what}: digest {got:#018x} (threshold {threshold}) != recorded {expect:#018x}"
        );
    }
}

/// Shapes every layer pin runs through: several row blocks with a short
/// last one, then a narrower batch (scratch rebuilt), then the first again.
const SHAPES: [(usize, usize); 3] = [(200, 67), (64, 256), (200, 67)];

fn dropout_digest(p: f32) -> u64 {
    let mut d = Digest::new();
    let mut layer = Dropout::new(p, 0x5eed);
    for (step, (rows, cols)) in SHAPES.into_iter().enumerate() {
        let x = fixed(rows, cols, step, true);
        let g = fixed(rows, cols, 31 + step, true);
        d.matrix(&layer.forward(&x, Mode::Train));
        d.matrix(&layer.backward(&g));
        // An eval forward between steps neither draws nor arms a mask.
        d.matrix(&layer.forward(&x, Mode::Eval));
    }
    d.0
}

#[test]
fn dropout_mask_stream_is_pinned_at_p_0_1() {
    at_both_thresholds("Dropout(0.1)", 0xb9965c78caedb6fd, || dropout_digest(0.1));
}

#[test]
fn dropout_mask_stream_is_pinned_at_p_0_5() {
    at_both_thresholds("Dropout(0.5)", 0x246f90cdebbe02b1, || dropout_digest(0.5));
}

#[test]
fn relu_forward_and_backward_are_pinned() {
    at_both_thresholds("Relu", 0xe4015ff957af3ea4, || {
        let mut d = Digest::new();
        let mut layer = Relu::new();
        for (step, (rows, cols)) in SHAPES.into_iter().enumerate() {
            d.matrix(&layer.forward(&fixed(rows, cols, step, true), Mode::Train));
            d.matrix(&layer.backward(&fixed(rows, cols, 17 + step, true)));
        }
        d.0
    });
}

#[test]
fn prelu_forward_backward_and_slope_gradient_are_pinned() {
    at_both_thresholds("PRelu", 0xa9809e713ac6a52b, || {
        let mut d = Digest::new();
        let mut layer = PRelu::new();
        for (step, (rows, cols)) in SHAPES.into_iter().enumerate() {
            d.matrix(&layer.forward(&fixed(rows, cols, step, false), Mode::Train));
            d.matrix(&layer.backward(&fixed(rows, cols, 5 + step, false)));
            // ∂α accumulates across steps: its bits pin the serial order
            // of the reduction.
            d.matrix(&layer.params()[0].grad);
        }
        d.0
    });
}

#[test]
fn softmax_cross_entropy_loss_and_gradient_are_pinned() {
    at_both_thresholds("CrossEntropyLoss", 0xd1abce09bd5e6d79, || {
        let mut d = Digest::new();
        for (step, (rows, classes)) in [(200, 47), (64, 5), (1, 3)].into_iter().enumerate() {
            let mut logits = fixed(rows, classes, step, false);
            logits.scale(4.0);
            let labels: Vec<u32> = (0..rows).map(|i| ((i * 7) % classes) as u32).collect();
            let (loss, grad) = CrossEntropyLoss.loss_and_grad(&logits, &labels);
            d.bits(loss.to_bits());
            d.matrix(&grad);
        }
        d.0
    });
}
