use ppgnn_tensor::pool::draw_blocked;
use ppgnn_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::sweep::sweep;
use crate::{Mode, Module, Param};

/// Inverted dropout: during training each element is zeroed with probability
/// `p` and survivors are scaled by `1/(1-p)`; evaluation is the identity.
///
/// The layer owns a seeded RNG so whole-model training stays reproducible
/// from construction-time seeds. Each training forward draws one `u64` per
/// element, in row-major order, into a byte mask; a large mask is drawn in
/// blocks on the pool, each block from its exact piece of the one stream,
/// so the mask and the generator's state after it equal a serial draw.
/// Applying the mask forward and backward is a row-blocked sweep that
/// multiplies by `1/(1-p)` or `0` picked by the mask byte. The mask
/// buffer is recycled across batches.
#[derive(Debug)]
pub struct Dropout {
    p: f32,
    rng: StdRng,
    mask: Option<Vec<u8>>,
    /// Spent mask buffer handed back by `backward_into`, refilled in place
    /// by the next training-mode forward.
    mask_scratch: Option<Vec<u8>>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1)`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout probability must be in [0,1), got {p}"
        );
        Dropout {
            p,
            rng: StdRng::seed_from_u64(seed),
            mask: None,
            mask_scratch: None,
        }
    }

    /// The configured drop probability.
    pub fn p(&self) -> f32 {
        self.p
    }

    /// `dst = src · (1/(1-p) or 0)`, the factor picked per element by
    /// `mask`: bit for bit the product with a `1/(1-p)`/`0.0` float mask.
    fn apply(&self, mask: &[u8], src: &Matrix, dst: &mut Matrix) {
        let (rows, cols) = src.shape();
        dst.resize_to(rows, cols);
        let (src, scale) = (src.as_slice(), 1.0 / (1.0 - self.p));
        sweep(
            rows,
            cols,
            2 * src.len(),
            [dst.as_mut_slice()],
            |at, [d]| masked_scale(d, &src[at..], &mask[at..], scale),
        );
    }
}

/// `dst = src · (scale or 0.0)`, the factor selected by each mask byte.
fn masked_scale(dst: &mut [f32], src: &[f32], mask: &[u8], scale: f32) {
    for ((d, &v), &m) in dst.iter_mut().zip(src).zip(mask) {
        *d = v * if m != 0 { scale } else { 0.0 };
    }
}

/// Mask bytes per draw block: 16 KiB, about 17 µs of draws, so SIGN's
/// 2048 × 64 mask and HOGA's 1024 × 128 mask each cut into 8.
const MASK_GRAIN: usize = 16 * 1024;

/// Work one mask draw counts for against the shared parallel threshold: a
/// generator step, a compare and a byte store take about as long as 46
/// GEMM multiply-adds on one core.
const DRAW_WORK: usize = 46;

/// One draw per mask byte, in order: `1` when `(u >> 40) < threshold`.
/// A function of its own so the generator state stays in registers across
/// the loop instead of round-tripping through memory around every byte
/// store.
fn draw_mask(rng: &mut StdRng, threshold: u64, mask: &mut [u8]) {
    for m in mask {
        *m = u8::from(rng.next_u64() >> 40 < threshold);
    }
}

impl Module for Dropout {
    fn forward_into(&mut self, x: &Matrix, mode: Mode, out: &mut Matrix) {
        if mode == Mode::Eval || self.p == 0.0 {
            self.mask = None;
            out.resize_to(x.rows(), x.cols());
            out.copy_from(x);
            return;
        }
        // An element survives when its draw `u` passes
        // `(u >> 40) as f32 · 2⁻²⁴ < keep` (the f32 sample of the stream);
        // scaled by 2²⁴, both sides exactly, that is the integer test
        // `(u >> 40) < ceil(keep · 2²⁴)`.
        let keep = 1.0 - self.p;
        let threshold = (keep * (1u64 << 24) as f32).ceil() as u64;
        let mut mask = self.mask_scratch.take().unwrap_or_default();
        mask.resize(x.len(), 0);
        draw_blocked(
            &mut mask,
            MASK_GRAIN,
            1,
            x.len() * DRAW_WORK,
            &mut self.rng,
            |rng, _, block| draw_mask(rng, threshold, block),
        );
        self.apply(&mask, x, out);
        self.mask = Some(mask);
    }

    fn backward_into(&mut self, grad_out: &Matrix, grad_in: &mut Matrix) {
        match self.mask.take() {
            None => {
                // p == 0 or eval-mode forward
                grad_in.resize_to(grad_out.rows(), grad_out.cols());
                grad_in.copy_from(grad_out);
            }
            Some(mask) => {
                assert_eq!(
                    mask.len(),
                    grad_out.len(),
                    "grad_out shape mismatch in Dropout"
                );
                self.apply(&mask, grad_out, grad_in);
                self.mask_scratch = Some(mask);
            }
        }
    }

    fn params(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_mode_is_identity() {
        let mut d = Dropout::new(0.9, 0);
        let x = Matrix::full(4, 4, 2.0);
        assert_eq!(d.forward(&x, Mode::Eval), x);
    }

    #[test]
    fn train_mode_preserves_expectation() {
        let mut d = Dropout::new(0.5, 42);
        let x = Matrix::full(200, 50, 1.0);
        let y = d.forward(&x, Mode::Train);
        let mean = y.mean();
        assert!((mean - 1.0).abs() < 0.05, "mean was {mean}");
        // surviving entries are scaled by 2
        assert!(y
            .as_slice()
            .iter()
            .all(|&v| v == 0.0 || (v - 2.0).abs() < 1e-6));
    }

    #[test]
    fn backward_applies_same_mask() {
        let mut d = Dropout::new(0.5, 7);
        let x = Matrix::full(10, 10, 1.0);
        let y = d.forward(&x, Mode::Train);
        let g = d.backward(&Matrix::full(10, 10, 1.0));
        // gradient must be zero exactly where the output was zeroed
        for (yv, gv) in y.as_slice().iter().zip(g.as_slice()) {
            assert_eq!(*yv == 0.0, *gv == 0.0);
        }
    }

    #[test]
    fn zero_probability_is_identity_in_train() {
        let mut d = Dropout::new(0.0, 0);
        let x = Matrix::full(3, 3, 5.0);
        assert_eq!(d.forward(&x, Mode::Train), x);
        assert_eq!(d.backward(&x), x);
    }

    #[test]
    #[should_panic(expected = "dropout probability")]
    fn p_of_one_is_rejected() {
        Dropout::new(1.0, 0);
    }
}
