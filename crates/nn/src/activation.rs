use ppgnn_tensor::pool::{row_blocked, BlockOut};
use ppgnn_tensor::Matrix;

use crate::sweep::sweep;
use crate::{Mode, Module, Param};

/// Rectified linear unit, `y = max(x, 0)`.
///
/// A training forward keeps a `1.0`/`0.0` mask of the positive inputs that
/// the backward selects on; the mask buffer is recycled (`backward_into`
/// hands it to a scratch slot the next forward refills in place), so
/// steady-state steps allocate nothing. Both passes are row-blocked
/// sweeps.
#[derive(Debug, Default)]
pub struct Relu {
    mask: Option<Vec<f32>>,
    mask_scratch: Option<Vec<f32>>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu::default()
    }
}

impl Module for Relu {
    fn forward_into(&mut self, x: &Matrix, mode: Mode, out: &mut Matrix) {
        let (rows, cols) = x.shape();
        out.resize_to(rows, cols);
        let src = x.as_slice();
        if mode == Mode::Eval {
            sweep(
                rows,
                cols,
                2 * src.len(),
                [out.as_mut_slice()],
                |at, [o]| {
                    for (o, &v) in o.iter_mut().zip(&src[at..]) {
                        *o = v.max(0.0);
                    }
                },
            );
            return;
        }
        let mut mask = self.mask_scratch.take().unwrap_or_default();
        mask.resize(src.len(), 0.0);
        let outs = [out.as_mut_slice(), mask.as_mut_slice()];
        sweep(rows, cols, 3 * src.len(), outs, |at, [o, m]| {
            for ((o, m), &v) in o.iter_mut().zip(m).zip(&src[at..]) {
                *o = v.max(0.0);
                *m = if v > 0.0 { 1.0 } else { 0.0 };
            }
        });
        self.mask = Some(mask);
    }

    fn backward_into(&mut self, grad_out: &Matrix, grad_in: &mut Matrix) {
        let mask = self
            .mask
            .take()
            .expect("Relu::backward called without a training-mode forward");
        assert_eq!(
            mask.len(),
            grad_out.len(),
            "grad_out shape mismatch in Relu"
        );
        let (rows, cols) = grad_out.shape();
        grad_in.resize_to(rows, cols);
        let g = grad_out.as_slice();
        // A select the compiler vectorises, not a multiply by 0/1: a
        // masked NaN or negative gradient must come out `+0.0`, not NaN or
        // `-0.0`.
        sweep(
            rows,
            cols,
            3 * g.len(),
            [grad_in.as_mut_slice()],
            |at, [d]| {
                for ((d, &g), &m) in d.iter_mut().zip(&g[at..]).zip(&mask[at..]) {
                    *d = if m != 0.0 { g } else { 0.0 };
                }
            },
        );
        self.mask_scratch = Some(mask);
    }

    fn params(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }
}

/// `dst = v` where `x > 0`, else `a · v`, element-wise over `(x, v)`: the
/// PReLU forward with `v = x`, its input gradient with `v = ∂y`. Written as
/// a select of two computed values, so it vectorises instead of branching
/// on every sign.
fn scaled_where_not_positive(dst: &mut [f32], x: &[f32], v: &[f32], a: f32) {
    for ((d, &x), &v) in dst.iter_mut().zip(x).zip(v) {
        let scaled = a * v;
        *d = if x > 0.0 { v } else { scaled };
    }
}

/// `acc + Σ g·x` over the elements with `x ≤ 0` (or NaN), added in element
/// order. Adding `+0.0` for the others leaves the sum's bits alone (a sum
/// started at `+0.0` is never `-0.0`), which keeps the chain branchless.
fn slope_grad_sum(mut acc: f32, x: &[f32], g: &[f32]) -> f32 {
    for (&x, &g) in x.iter().zip(g) {
        let term = g * x;
        acc += if x > 0.0 { 0.0 } else { term };
    }
    acc
}

/// Parametric ReLU with a single learnable slope `α` for negative inputs:
/// `y = max(x, 0) + α · min(x, 0)`. SIGN's inception branches use this.
///
/// Besides the [`Module`] pair, the layer reads and writes **column
/// windows** ([`PRelu::forward_into_cols`], [`PRelu::backward_from_cols`]):
/// SIGN's branches write their activations straight into their columns of
/// the concatenated head input and read their gradient from the same
/// columns of the head's input gradient, so no concatenation or split copy
/// exists. Both directions are row-blocked sweeps; `∂α`, a sum over every
/// element, keeps its serial element order.
#[derive(Debug)]
pub struct PRelu {
    alpha: Param,
    cached_input: Option<Matrix>,
    /// Spent `cached_input` buffer awaiting refill by the next
    /// training-mode forward.
    input_scratch: Option<Matrix>,
}

impl PRelu {
    /// Creates a PReLU layer with the conventional initial slope `0.25`.
    pub fn new() -> Self {
        PRelu {
            alpha: Param::new(Matrix::full(1, 1, 0.25)),
            cached_input: None,
            input_scratch: None,
        }
    }

    /// Current negative-side slope.
    pub fn alpha(&self) -> f32 {
        self.alpha.value.get(0, 0)
    }

    /// [`Module::forward_into`] into columns `col0..col0 + x.cols()` of
    /// `out`, which must already have `x.rows()` rows; the other columns
    /// are left as they are.
    ///
    /// # Panics
    ///
    /// Panics if `out` has the wrong row count or the window does not fit.
    pub fn forward_into_cols(&mut self, x: &Matrix, mode: Mode, out: &mut Matrix, col0: usize) {
        let ((rows, w), ld) = (x.shape(), out.cols());
        assert!(
            out.rows() == rows && col0 + w <= ld,
            "PRelu output window {col0}..{} does not fit a {rows} x {ld} slot",
            col0 + w
        );
        let (a, src) = (self.alpha(), x.as_slice());
        // One block's rows: activate into the window, and keep the input
        // for the backward when there is a cache slice to fill.
        let activate = |at: usize, o: &mut [f32], cache: Option<&mut [f32]>| {
            let n = o.len() / ld.max(1);
            let xs = &src[at..][..n * w];
            if let Some(c) = cache {
                c.copy_from_slice(xs);
            }
            for (o_row, x_row) in o.chunks_exact_mut(ld.max(1)).zip(xs.chunks_exact(w.max(1))) {
                scaled_where_not_positive(&mut o_row[col0..col0 + w], x_row, x_row, a);
            }
        };
        if mode == Mode::Eval {
            let outs = [BlockOut::rows(out.as_mut_slice(), ld)];
            row_blocked(rows, 2 * src.len(), outs, |_, r0, [o]| {
                activate(r0 * w, o, None)
            });
            return;
        }
        let mut cached = self.input_scratch.take().unwrap_or_default();
        cached.resize_to(rows, w);
        let outs = [
            BlockOut::rows(out.as_mut_slice(), ld),
            BlockOut::rows(cached.as_mut_slice(), w),
        ];
        row_blocked(rows, 3 * src.len(), outs, |_, r0, [o, c]| {
            activate(r0 * w, o, Some(c))
        });
        self.cached_input = Some(cached);
    }

    /// [`Module::backward_into`] reading the output gradient from columns
    /// `col0..col0 + w` of `grad_out`, where `w` is the width of the last
    /// training-mode input; `grad_in` becomes `rows × w`.
    ///
    /// # Panics
    ///
    /// Panics without a preceding training-mode forward, or if the window
    /// does not fit `grad_out`.
    pub fn backward_from_cols(&mut self, grad_out: &Matrix, col0: usize, grad_in: &mut Matrix) {
        let x = self
            .cached_input
            .take()
            .expect("PRelu::backward called without a training-mode forward");
        let ((rows, w), ld) = (x.shape(), grad_out.cols());
        assert!(
            grad_out.rows() == rows && col0 + w <= ld,
            "grad_out shape mismatch in PRelu"
        );
        let (a, xs, g) = (self.alpha(), x.as_slice(), grad_out.as_slice());
        grad_in.resize_to(rows, w);
        let (w1, ld1) = (w.max(1), ld.max(1));
        let outs = [BlockOut::rows(grad_in.as_mut_slice(), w)];
        row_blocked(rows, 3 * xs.len(), outs, |_, r0, [d]| {
            let block = xs[r0 * w..]
                .chunks_exact(w1)
                .zip(g[r0 * ld..].chunks_exact(ld1));
            for (d_row, (x_row, g_row)) in d.chunks_exact_mut(w1).zip(block) {
                scaled_where_not_positive(d_row, x_row, &g_row[col0..col0 + w], a);
            }
        });
        // ∂α = Σ g·x over the non-positive inputs, in element order.
        let mut galpha = 0.0f32;
        for (x_row, g_row) in xs.chunks_exact(w1).zip(g.chunks_exact(ld1)) {
            galpha = slope_grad_sum(galpha, x_row, &g_row[col0..col0 + w]);
        }
        let cur = self.alpha.grad.get(0, 0);
        self.alpha.grad.set(0, 0, cur + galpha);
        self.input_scratch = Some(x);
    }
}

impl Default for PRelu {
    fn default() -> Self {
        Self::new()
    }
}

impl Module for PRelu {
    fn forward_into(&mut self, x: &Matrix, mode: Mode, out: &mut Matrix) {
        out.resize_to(x.rows(), x.cols());
        self.forward_into_cols(x, mode, out, 0);
    }

    fn backward_into(&mut self, grad_out: &Matrix, grad_in: &mut Matrix) {
        let expect = self.cached_input.as_ref().map(Matrix::shape);
        assert!(
            expect.is_none_or(|shape| shape == grad_out.shape()),
            "grad_out shape mismatch in PRelu"
        );
        self.backward_from_cols(grad_out, 0, grad_in);
    }

    fn params(&mut self) -> Vec<&mut Param> {
        vec![&mut self.alpha]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let mut r = Relu::new();
        let x = Matrix::from_rows(&[&[-1.0, 0.0, 2.0]]);
        let y = r.forward(&x, Mode::Train);
        assert_eq!(y.row(0), &[0.0, 0.0, 2.0]);
        let g = r.backward(&Matrix::full(1, 3, 1.0));
        assert_eq!(g.row(0), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn relu_backward_select_matches_the_branching_loop_bit_for_bit() {
        // Every special gradient value under both mask values, and enough
        // ordinary ones to cover a vectorised body plus its tail.
        let special = [
            -0.0f32,
            0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -3.5,
            1e-40,
        ];
        let grads: Vec<f32> = (0..77)
            .map(|i| {
                if i < 14 {
                    special[i % 7]
                } else {
                    i as f32 - 40.5
                }
            })
            .collect();
        let x = Matrix::from_fn(7, 11, |r, c| if (r * 11 + c) % 14 < 7 { 1.0 } else { -1.0 });
        let grad_out = Matrix::from_vec(7, 11, grads).unwrap();
        let mut r = Relu::new();
        r.forward(&x, Mode::Train);
        let got = r.backward(&grad_out);
        // The loop this replaced: clone, then zero where the input was not positive.
        let mut expect = grad_out.clone();
        for (v, &xv) in expect.as_mut_slice().iter_mut().zip(x.as_slice()) {
            if xv <= 0.0 {
                *v = 0.0;
            }
        }
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&expect));
        assert_eq!(got.shape(), (7, 11));
        for s in special {
            let under = |keep: bool| {
                (0..77).any(|i| {
                    grad_out.as_slice()[i].to_bits() == s.to_bits()
                        && (x.as_slice()[i] > 0.0) == keep
                })
            };
            assert!(
                under(true) && under(false),
                "{s} not seen under both mask values"
            );
        }
    }

    #[test]
    fn prelu_uses_alpha_on_negatives() {
        let mut p = PRelu::new();
        let x = Matrix::from_rows(&[&[-4.0, 4.0]]);
        let y = p.forward(&x, Mode::Train);
        assert_eq!(y.row(0), &[-1.0, 4.0]); // alpha = 0.25
        let gx = p.backward(&Matrix::full(1, 2, 1.0));
        assert_eq!(gx.row(0), &[0.25, 1.0]);
        // ∂α = Σ g·x over negative entries = 1 * -4
        assert_eq!(p.params()[0].grad.get(0, 0), -4.0);
    }

    #[test]
    fn relu_has_no_params() {
        assert!(Relu::new().params().is_empty());
        assert_eq!(PRelu::new().params().len(), 1);
    }
}
