use ppgnn_tensor::{init, matmul_into, matmul_nt, matmul_tn_into, Matrix};
use rand::Rng;

use crate::{Mode, Module, Param};

/// Affine layer `y = x · W + b`.
///
/// `W` is `in_dim x out_dim` (He-normal initialized), `b` is `1 x out_dim`
/// (zeros). Backward computes `∂W = xᵀ · ∂y`, `∂b = Σ_rows ∂y`,
/// `∂x = ∂y · Wᵀ` using the transposed GEMM kernels. A layer whose input
/// is data rather than an activation (a PP-GNN's per-hop input layer)
/// calls [`Linear::backward_params`] instead, which stops after `∂W`/`∂b`
/// and never forms `∂x` — one GEMM and one `batch x in_dim` allocation
/// less per step.
///
/// The layer recycles two scratch matrices across batches: the cached
/// training input (refilled in place when the batch shape repeats) and
/// the `∂W = xᵀ · ∂y` product (written through [`matmul_tn_into`] before
/// accumulating into the gradient). [`Module::forward_into`] writes the
/// output into a caller-owned slot, so a steady-state training step that
/// reuses its slots allocates only the input gradient returned by
/// `backward` — pinned by the allocation-count assertions in the
/// repo-level residency suite.
#[derive(Debug)]
pub struct Linear {
    weight: Param,
    bias: Param,
    cached_input: Option<Matrix>,
    /// Spent `cached_input` buffer awaiting reuse by the next
    /// training-mode forward of the same batch shape.
    input_scratch: Option<Matrix>,
    /// Reusable `in_dim x out_dim` buffer for the weight-gradient GEMM.
    grad_w_scratch: Option<Matrix>,
}

impl Linear {
    /// Creates a layer mapping `in_dim` features to `out_dim`.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        Linear {
            weight: Param::new(init::he_normal(in_dim, out_dim, rng)),
            bias: Param::new(Matrix::zeros(1, out_dim)),
            cached_input: None,
            input_scratch: None,
            grad_w_scratch: None,
        }
    }

    /// Creates a layer with explicit weights (tests, loading checkpoints).
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `1 x weight.cols()`.
    pub fn from_parts(weight: Matrix, bias: Matrix) -> Self {
        assert_eq!(bias.shape(), (1, weight.cols()), "bias must be 1 x out_dim");
        Linear {
            weight: Param::new(weight),
            bias: Param::new(bias),
            cached_input: None,
            input_scratch: None,
            grad_w_scratch: None,
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.weight.value.rows()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.weight.value.cols()
    }

    /// Parameter-only backward: accumulates `∂W = xᵀ · ∂y` and
    /// `∂b = Σ_rows ∂y` exactly as [`Module::backward`] does (which calls
    /// this first) and stops — no `∂x = ∂y · Wᵀ` product, no
    /// `batch x in_dim` allocation. For layers whose input gradient has
    /// no consumer.
    ///
    /// # Panics
    ///
    /// Panics without a preceding training-mode forward, or if `grad_out`
    /// is not `batch x out_dim`.
    pub fn backward_params(&mut self, grad_out: &Matrix) {
        let x = self
            .cached_input
            .take()
            .expect("Linear::backward called without a training-mode forward");
        assert_eq!(
            grad_out.shape(),
            (x.rows(), self.out_dim()),
            "grad_out shape mismatch in Linear::backward"
        );
        let mut gw = match self.grad_w_scratch.take() {
            Some(buf) if buf.shape() == self.weight.value.shape() => buf,
            // ppgnn-analyze: allow(hot_path_alloc) -- cold path: scratch
            // shape miss on the first batch.
            _ => Matrix::zeros(self.in_dim(), self.out_dim()),
        };
        matmul_tn_into(&x, grad_out, &mut gw);
        self.weight.grad.add_assign(&gw);
        self.grad_w_scratch = Some(gw);
        self.bias.grad.add_assign(&grad_out.sum_rows());
        self.input_scratch = Some(x);
    }
}

impl Module for Linear {
    fn forward(&mut self, x: &Matrix, mode: Mode) -> Matrix {
        let mut y = Matrix::default();
        self.forward_into(x, mode, &mut y);
        y
    }

    fn forward_into(&mut self, x: &Matrix, mode: Mode, out: &mut Matrix) {
        assert_eq!(
            x.cols(),
            self.in_dim(),
            "linear layer expects {} input features, got {}",
            self.in_dim(),
            x.cols()
        );
        out.resize_to(x.rows(), self.out_dim());
        matmul_into(x, &self.weight.value, out);
        let bias = self.bias.value.row(0);
        for r in 0..out.rows() {
            for (v, b) in out.row_mut(r).iter_mut().zip(bias) {
                *v += b;
            }
        }
        if mode == Mode::Train {
            // Reuse the buffer backward handed back if the batch shape
            // repeats (the steady state of epoch training).
            let cached = match self.input_scratch.take() {
                Some(mut buf) if buf.shape() == x.shape() => {
                    buf.copy_from(x);
                    buf
                }
                // ppgnn-analyze: allow(hot_path_alloc) -- cold path: first
                // batch or a shape change; steady state hits the arm above.
                _ => x.clone(),
            };
            self.cached_input = Some(cached);
        }
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        self.backward_params(grad_out);
        matmul_nt(grad_out, &self.weight.value)
    }

    fn params(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_matches_manual_affine() {
        let w = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[0.5, -0.5]]);
        let mut l = Linear::from_parts(w, b);
        let x = Matrix::from_rows(&[&[1.0, 1.0]]);
        let y = l.forward(&x, Mode::Eval);
        assert_eq!(y.row(0), &[4.5, 5.5]);
    }

    #[test]
    fn backward_computes_known_gradients() {
        // y = xW + b, L = sum(y) → ∂W = xᵀ·1, ∂b = row-count, ∂x = 1·Wᵀ
        let w = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::zeros(1, 2);
        let mut l = Linear::from_parts(w, b);
        let x = Matrix::from_rows(&[&[5.0, 7.0], &[11.0, 13.0]]);
        l.forward(&x, Mode::Train);
        let gx = l.backward(&Matrix::full(2, 2, 1.0));
        assert_eq!(l.params()[0].grad.row(0), &[16.0, 16.0]); // col sums of x
        assert_eq!(l.params()[0].grad.row(1), &[20.0, 20.0]);
        assert_eq!(l.params()[1].grad.row(0), &[2.0, 2.0]);
        assert_eq!(gx.row(0), &[3.0, 7.0]); // row sums of W
    }

    #[test]
    fn gradients_accumulate_across_backwards() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut l = Linear::new(3, 2, &mut rng);
        let x = Matrix::full(1, 3, 1.0);
        let g = Matrix::full(1, 2, 1.0);
        l.forward(&x, Mode::Train);
        l.backward(&g);
        let first = l.params()[0].grad.clone();
        l.forward(&x, Mode::Train);
        l.backward(&g);
        let mut doubled = first.clone();
        doubled.scale(2.0);
        assert!(l.params()[0].grad.max_abs_diff(&doubled) < 1e-6);
    }

    #[test]
    fn backward_params_accumulates_exactly_what_backward_does() {
        // Two copies of one layer, one stepped with the full backward and
        // one with the parameter-only backward: ∂W and ∂b must agree
        // bitwise — across calls without zeroing (accumulation) and across
        // a batch-shape change and back (scratch rebuilt, then reused).
        let mut rng = StdRng::seed_from_u64(7);
        let w = init::he_normal(6, 4, &mut rng);
        let b = init::normal(1, 4, 0.0, 0.5, &mut rng);
        let mut full = Linear::from_parts(w.clone(), b.clone());
        let mut params_only = Linear::from_parts(w, b);
        for rows in [5usize, 5, 3, 5] {
            let x = init::standard_normal(rows, 6, &mut rng);
            let g = init::standard_normal(rows, 4, &mut rng);
            full.forward(&x, Mode::Train);
            params_only.forward(&x, Mode::Train);
            let gx = full.backward(&g);
            assert_eq!(gx.shape(), (rows, 6));
            params_only.backward_params(&g);
            for (p, q) in full.params().iter().zip(params_only.params()) {
                let same = (p.grad.as_slice().iter())
                    .zip(q.grad.as_slice())
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "gradients diverge at batch of {rows} rows");
            }
        }
        // Both hand the cached input back for reuse.
        assert!(params_only.cached_input.is_none());
        assert!(params_only.input_scratch.is_some());
    }

    #[test]
    #[should_panic(expected = "without a training-mode forward")]
    fn backward_params_without_forward_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut l = Linear::new(2, 2, &mut rng);
        l.backward_params(&Matrix::zeros(1, 2));
    }

    #[test]
    #[should_panic(expected = "without a training-mode forward")]
    fn backward_without_forward_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut l = Linear::new(2, 2, &mut rng);
        l.backward(&Matrix::zeros(1, 2));
    }

    #[test]
    fn scratch_reuse_survives_batch_shape_changes() {
        // Gradients must stay correct when the batch shape changes between
        // steps (the last, short batch of an epoch) — scratch buffers are
        // rebuilt, not silently reused at the wrong shape.
        let w = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let mut l = Linear::from_parts(w, Matrix::zeros(1, 2));
        for rows in [2usize, 3, 1, 3] {
            l.zero_grad_slot();
            let x = Matrix::from_fn(rows, 2, |r, c| (r + c) as f32 + 1.0);
            l.forward(&x, Mode::Train);
            l.backward(&Matrix::full(rows, 2, 1.0));
            // ∂W = xᵀ · 1 — column sums of x, independently recomputed.
            let mut expect = Matrix::zeros(2, 2);
            for r in 0..rows {
                for i in 0..2 {
                    for j in 0..2 {
                        expect.set(i, j, expect.get(i, j) + x.get(r, i));
                    }
                }
            }
            assert!(
                l.params()[0].grad.max_abs_diff(&expect) < 1e-5,
                "rows {rows}"
            );
        }
    }

    impl Linear {
        fn zero_grad_slot(&mut self) {
            for p in self.params() {
                p.grad.fill_zero();
            }
        }
    }

    #[test]
    fn eval_forward_does_not_cache() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut l = Linear::new(2, 2, &mut rng);
        l.forward(&Matrix::zeros(1, 2), Mode::Eval);
        assert!(l.cached_input.is_none());
    }
}
