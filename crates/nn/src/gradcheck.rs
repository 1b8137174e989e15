//! Central-difference gradient verification.
//!
//! Every layer and every model in the workspace is checked against numeric
//! gradients. The checker drives a module through the cross-entropy loss,
//! compares analytic parameter/input gradients against
//! `(L(θ+ε) − L(θ−ε)) / 2ε`, and reports the worst relative error.
//!
//! Works in `f32`, so tolerances are loose by double-precision standards;
//! with `ε = 1e-2` and O(1) activations, correct gradients land well under
//! a relative error of `5e-2` while sign errors or missing terms blow past
//! it. Modules with stochastic forwards (dropout) must be excluded.

use ppgnn_tensor::Matrix;

use crate::{CrossEntropyLoss, Mode, Module};

/// Result of a gradient check: the largest relative error seen, and where.
#[derive(Debug, Clone, PartialEq)]
pub struct GradCheckReport {
    /// Worst relative error across all probed coordinates.
    pub max_rel_error: f32,
    /// Human-readable location of the worst coordinate.
    pub worst_at: String,
    /// Number of coordinates probed.
    pub probed: usize,
}

/// Verifies the analytic gradients of `module` on input `x` with `labels`
/// through softmax cross-entropy.
///
/// Probes every parameter coordinate (capped at `max_probes_per_param`,
/// strided evenly) and, when `check_input` is set, input coordinates too.
///
/// # Panics
///
/// Panics if the module's forward output row count does not match
/// `labels.len()`.
pub fn check_gradients(
    module: &mut dyn Module,
    x: &Matrix,
    labels: &[u32],
    max_probes_per_param: usize,
    check_input: bool,
) -> GradCheckReport {
    let eps = 1e-2f32;
    let loss_fn = CrossEntropyLoss;

    // Analytic pass.
    module.zero_grad();
    let logits = module.forward(x, Mode::Train);
    assert_eq!(logits.rows(), labels.len(), "labels must match output rows");
    let (_, dlogits) = loss_fn.loss_and_grad(&logits, labels);
    let dx = module.backward(&dlogits);

    let analytic_param_grads: Vec<Matrix> =
        module.params().iter().map(|p| p.grad.clone()).collect();

    let mut report = GradCheckReport {
        max_rel_error: 0.0,
        worst_at: String::new(),
        probed: 0,
    };

    let eval_loss = |module: &mut dyn Module| -> f32 {
        let out = module.forward(x, Mode::Train);
        loss_fn.loss(&out, labels)
    };

    // Parameters.
    let num_params = module.params().len();
    for pi in 0..num_params {
        let len = module.params()[pi].len();
        if len == 0 {
            continue;
        }
        let stride = (len / max_probes_per_param.max(1)).max(1);
        let mut k = 0;
        while k < len {
            let orig = module.params()[pi].value.as_slice()[k];
            module.params()[pi].value.as_mut_slice()[k] = orig + eps;
            let lp = eval_loss(module);
            module.params()[pi].value.as_mut_slice()[k] = orig - eps;
            let lm = eval_loss(module);
            module.params()[pi].value.as_mut_slice()[k] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = analytic_param_grads[pi].as_slice()[k];
            record(&mut report, numeric, analytic, &format!("param {pi}[{k}]"));
            k += stride;
        }
    }

    // Input.
    if check_input {
        let stride = (x.len() / max_probes_per_param.max(1)).max(1);
        let mut k = 0;
        while k < x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[k] += eps;
            let out = module.forward(&xp, Mode::Train);
            let lp = loss_fn.loss(&out, labels);
            let mut xm = x.clone();
            xm.as_mut_slice()[k] -= eps;
            let out = module.forward(&xm, Mode::Train);
            let lm = loss_fn.loss(&out, labels);
            let numeric = (lp - lm) / (2.0 * eps);
            record(
                &mut report,
                numeric,
                dx.as_slice()[k],
                &format!("input[{k}]"),
            );
            k += stride;
        }
    }

    report
}

fn record(report: &mut GradCheckReport, numeric: f32, analytic: f32, at: &str) {
    report.probed += 1;
    // Relative error with an absolute floor: tiny gradients drown in f32
    // noise, so differences below the floor are treated as agreement.
    let scale = numeric.abs().max(analytic.abs()).max(5e-2);
    let rel = (numeric - analytic).abs() / scale;
    if rel > report.max_rel_error {
        report.max_rel_error = rel;
        report.worst_at = at.to_string();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BatchNorm1d, LayerNorm, Linear, MultiHeadAttention, PRelu, Relu, Sequential};
    use ppgnn_tensor::init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const TOL: f32 = 5e-2;

    fn input(rows: usize, cols: usize, seed: u64) -> (Matrix, Vec<u32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = init::standard_normal(rows, cols, &mut rng);
        let labels = (0..rows).map(|r| (r % 3) as u32).collect();
        (x, labels)
    }

    #[test]
    fn linear_gradients_check() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut m = Linear::new(5, 3, &mut rng);
        let (x, y) = input(4, 5, 1);
        let rep = check_gradients(&mut m, &x, &y, 64, true);
        assert!(rep.max_rel_error < TOL, "{rep:?}");
    }

    #[test]
    fn mlp_with_relu_checks() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut m = Sequential::new(vec![
            Box::new(Linear::new(6, 8, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Linear::new(8, 3, &mut rng)),
        ]);
        let (x, y) = input(5, 6, 3);
        let rep = check_gradients(&mut m, &x, &y, 32, true);
        assert!(rep.max_rel_error < TOL, "{rep:?}");
    }

    #[test]
    fn prelu_gradients_check() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut m = Sequential::new(vec![
            Box::new(Linear::new(4, 6, &mut rng)),
            Box::new(PRelu::new()),
            Box::new(Linear::new(6, 3, &mut rng)),
        ]);
        let (x, y) = input(6, 4, 5);
        let rep = check_gradients(&mut m, &x, &y, 32, true);
        assert!(rep.max_rel_error < TOL, "{rep:?}");
    }

    #[test]
    fn layernorm_gradients_check() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut m = Sequential::new(vec![
            Box::new(Linear::new(5, 8, &mut rng)),
            Box::new(LayerNorm::new(8)),
            Box::new(Linear::new(8, 3, &mut rng)),
        ]);
        let (x, y) = input(4, 5, 7);
        let rep = check_gradients(&mut m, &x, &y, 32, true);
        assert!(rep.max_rel_error < TOL, "{rep:?}");
    }

    #[test]
    fn batchnorm_gradients_check() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut m = Sequential::new(vec![
            Box::new(Linear::new(5, 6, &mut rng)),
            Box::new(BatchNorm1d::new(6)),
            Box::new(Linear::new(6, 3, &mut rng)),
        ]);
        let (x, y) = input(6, 5, 9);
        let rep = check_gradients(&mut m, &x, &y, 24, true);
        assert!(rep.max_rel_error < TOL, "{rep:?}");
    }

    #[test]
    fn attention_gradients_check() {
        struct AttnHead {
            attn: MultiHeadAttention,
            head: Linear,
            tokens: usize,
        }
        impl Module for AttnHead {
            fn forward_into(&mut self, x: &Matrix, mode: Mode, out: &mut Matrix) {
                let y = self.attn.forward(x, mode);
                // mean-pool tokens per example, then classify
                let b = y.rows() / self.tokens;
                let mut pooled = Matrix::zeros(b, y.cols());
                for n in 0..b {
                    for t in 0..self.tokens {
                        let row = y.row(n * self.tokens + t).to_vec();
                        for (p, v) in pooled.row_mut(n).iter_mut().zip(&row) {
                            *p += v / self.tokens as f32;
                        }
                    }
                }
                self.head.forward_into(&pooled, mode, out)
            }
            fn backward_into(&mut self, grad_out: &Matrix, grad_in: &mut Matrix) {
                let gp = self.head.backward(grad_out);
                let b = gp.rows();
                let mut gy = Matrix::zeros(b * self.tokens, gp.cols());
                for n in 0..b {
                    for t in 0..self.tokens {
                        let src = gp.row(n).to_vec();
                        for (o, v) in gy.row_mut(n * self.tokens + t).iter_mut().zip(&src) {
                            *o = v / self.tokens as f32;
                        }
                    }
                }
                self.attn.backward_into(&gy, grad_in)
            }
            fn params(&mut self) -> Vec<&mut crate::Param> {
                let mut p = self.attn.params();
                p.extend(self.head.params());
                p
            }
        }

        let mut rng = StdRng::seed_from_u64(10);
        let tokens = 3;
        let mut m = AttnHead {
            attn: MultiHeadAttention::new(tokens, 8, 2, &mut rng),
            head: Linear::new(8, 3, &mut rng),
            tokens,
        };
        let mut rng2 = StdRng::seed_from_u64(11);
        let x = init::standard_normal(4 * tokens, 8, &mut rng2);
        let labels = vec![0u32, 1, 2, 0];
        let rep = check_gradients(&mut m, &x, &labels, 48, true);
        assert!(rep.max_rel_error < TOL, "{rep:?}");
    }
}
