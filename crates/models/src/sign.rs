use ppgnn_nn::{Dropout, Linear, Mode, Module, PRelu, Param, Relu, Sequential};
use ppgnn_tensor::Matrix;
use rand::Rng;

use crate::pp::{validate_hops, PpModel};

/// SIGN: Scalable Inception Graph Neural Network (Frasca et al. 2020).
///
/// Each hop `r` gets its own "inception branch" — a linear map to the
/// hidden dimension followed by PReLU — the branch outputs are concatenated,
/// and an MLP head produces logits. Matches the paper's configuration
/// (3-layer head, hidden 512 at full scale) with dimensions parameterized.
///
/// **No concatenation copy.** Branch `r`'s PReLU writes its activation
/// straight into columns `r·hidden..(r+1)·hidden` of the head's input, and
/// its backward reads its gradient from the same columns of the head's
/// input gradient ([`PRelu::forward_into_cols`],
/// [`PRelu::backward_from_cols`]). Every layer caches what its backward
/// needs, so the forward's buffers are free once it returns and the
/// backward reuses them: `∂concat` lands in `concat`, branch `r`'s `∂z` in
/// its `z`. A steady-state training step allocates nothing.
pub struct Sign {
    hops: usize,
    branches: Vec<Linear>,
    activations: Vec<PRelu>,
    head: Sequential,
    feature_dim: usize,
    hidden: usize,
    num_classes: usize,
    branch_inputs_cached: bool,
    /// Per-branch linear outputs (`∂z` in the backward), reused across
    /// batches.
    branch_z: Vec<Matrix>,
    /// Concatenated branch activations feeding the head (`∂concat` in the
    /// backward).
    concat: Matrix,
}

impl std::fmt::Debug for Sign {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sign")
            .field("hops", &self.hops)
            .field("feature_dim", &self.feature_dim)
            .field("hidden", &self.hidden)
            .field("num_classes", &self.num_classes)
            .finish()
    }
}

impl Sign {
    /// Creates a SIGN model: `hops + 1` branches of width `hidden`, a
    /// two-layer MLP head, and dropout `dropout`.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `dropout ∉ [0, 1)`.
    pub fn new(
        hops: usize,
        feature_dim: usize,
        hidden: usize,
        num_classes: usize,
        dropout: f32,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(
            feature_dim > 0 && hidden > 0 && num_classes > 0,
            "dimensions must be positive"
        );
        let branches = (0..=hops)
            .map(|_| Linear::new(feature_dim, hidden, rng))
            .collect();
        let activations = (0..=hops).map(|_| PRelu::new()).collect();
        let head = Sequential::new(vec![
            Box::new(Dropout::new(dropout, rng.random())),
            Box::new(Linear::new((hops + 1) * hidden, hidden, rng)),
            Box::new(Relu::new()),
            Box::new(Dropout::new(dropout, rng.random())),
            Box::new(Linear::new(hidden, num_classes, rng)),
        ]);
        Sign {
            hops,
            branches,
            activations,
            head,
            feature_dim,
            hidden,
            num_classes,
            branch_inputs_cached: false,
            branch_z: (0..=hops).map(|_| Matrix::default()).collect(),
            concat: Matrix::default(),
        }
    }

    /// Hidden width of each branch.
    pub fn hidden(&self) -> usize {
        self.hidden
    }
}

impl Sign {
    /// The forward over a batch of `b` examples, with branch `r`'s linear
    /// map run by `branch(r, linear, z)` — a borrowed or a lent input.
    fn forward_with(
        &mut self,
        b: usize,
        mode: Mode,
        out: &mut Matrix,
        mut branch: impl FnMut(usize, &mut Linear, &mut Matrix),
    ) {
        self.concat.resize_to(b, (self.hops + 1) * self.hidden);
        let branches = self.branches.iter_mut().zip(&mut self.activations);
        for (r, ((linear, act), z)) in branches.zip(&mut self.branch_z).enumerate() {
            branch(r, linear, z);
            act.forward_into_cols(z, mode, &mut self.concat, r * self.hidden);
        }
        self.branch_inputs_cached = mode == Mode::Train;
        self.head.forward_into(&self.concat, mode, out);
    }
}

impl PpModel for Sign {
    fn forward_into(&mut self, hops: &[Matrix], mode: Mode, out: &mut Matrix) {
        let (b, _) = validate_hops(hops, self.hops + 1);
        self.forward_with(b, mode, out, |r, linear, z| {
            linear.forward_into(&hops[r], mode, z)
        });
    }

    fn forward_train(&mut self, hops: &mut [Matrix], out: &mut Matrix) {
        let (b, _) = validate_hops(hops, self.hops + 1);
        self.forward_with(b, Mode::Train, out, |r, linear, z| {
            linear.forward_lent(std::mem::take(&mut hops[r]), z)
        });
    }

    fn return_inputs(&mut self, hops: &mut [Matrix]) {
        for (hop, branch) in hops.iter_mut().zip(&mut self.branches) {
            if let Some(x) = branch.take_input() {
                *hop = x;
            }
        }
    }

    fn backward(&mut self, grad_out: &Matrix) {
        assert!(
            self.branch_inputs_cached,
            "Sign::backward called without a training-mode forward"
        );
        self.branch_inputs_cached = false;
        self.head.backward_into(grad_out, &mut self.concat);
        let branches = self.branches.iter_mut().zip(&mut self.activations);
        for (r, ((branch, act), g_z)) in branches.zip(&mut self.branch_z).enumerate() {
            act.backward_from_cols(&self.concat, r * self.hidden, g_z);
            branch.backward_params(g_z); // the input is data: no ∂X
        }
    }

    fn params(&mut self) -> Vec<&mut Param> {
        let mut out = Vec::new();
        for b in &mut self.branches {
            out.extend(b.params());
        }
        for a in &mut self.activations {
            out.extend(a.params());
        }
        out.extend(self.head.params());
        out
    }

    fn num_hops(&self) -> usize {
        self.hops
    }

    fn name(&self) -> &'static str {
        "sign"
    }

    fn flops_per_example(&self) -> u64 {
        let r1 = (self.hops + 1) as u64;
        let f = self.feature_dim as u64;
        let h = self.hidden as u64;
        let c = self.num_classes as u64;
        // Branches: forward + ∂W (their input is data, so no ∂X); head
        // layers: forward + ∂W + ∂X.
        4 * r1 * f * h + 6 * (r1 * h * h + h * c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppgnn_nn::{metrics, Adam, CrossEntropyLoss, Optimizer};
    use ppgnn_tensor::init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shape_and_param_count() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut m = Sign::new(2, 5, 8, 3, 0.0, &mut rng);
        let hops: Vec<Matrix> = (0..3).map(|_| Matrix::zeros(4, 5)).collect();
        let y = m.forward(&hops, Mode::Eval);
        assert_eq!(y.shape(), (4, 3));
        // 3 branches (W+b) + 3 PReLU + head: L1 (W+b) + L2 (W+b)
        let expected = 3 * (5 * 8 + 8) + 3 + (3 * 8 * 8 + 8) + (8 * 3 + 3);
        assert_eq!(m.num_params(), expected);
        assert_eq!(m.hops_read(), vec![0, 1, 2], "SIGN reads every hop");
    }

    #[test]
    fn every_hop_influences_the_output() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut m = Sign::new(2, 4, 6, 2, 0.0, &mut rng);
        let mut data_rng = StdRng::seed_from_u64(2);
        let hops: Vec<Matrix> = (0..3)
            .map(|_| init::standard_normal(3, 4, &mut data_rng))
            .collect();
        let base = m.forward(&hops, Mode::Eval);
        for r in 0..3 {
            let mut perturbed = hops.clone();
            perturbed[r].scale(2.0);
            let y = m.forward(&perturbed, Mode::Eval);
            assert!(
                y.max_abs_diff(&base) > 1e-5,
                "hop {r} does not affect the output"
            );
        }
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut m = Sign::new(1, 3, 4, 2, 0.0, &mut rng);
        let mut data_rng = StdRng::seed_from_u64(4);
        let hops: Vec<Matrix> = (0..2)
            .map(|_| init::standard_normal(4, 3, &mut data_rng))
            .collect();
        let labels = [0u32, 1, 1, 0];
        let logits = m.forward(&hops, Mode::Train);
        let (_, g) = CrossEntropyLoss.loss_and_grad(&logits, &labels);
        m.zero_grad();
        m.backward(&g);
        let grads: Vec<Matrix> = m.params().iter().map(|p| p.grad.clone()).collect();
        let eps = 1e-2f32;
        let num_params = m.params().len();
        for pi in 0..num_params {
            let len = m.params()[pi].len();
            let stride = (len / 6).max(1);
            let mut k = 0;
            while k < len {
                let orig = m.params()[pi].value.as_slice()[k];
                m.params()[pi].value.as_mut_slice()[k] = orig + eps;
                let lp = CrossEntropyLoss.loss(&m.forward(&hops, Mode::Train), &labels);
                m.params()[pi].value.as_mut_slice()[k] = orig - eps;
                let lm = CrossEntropyLoss.loss(&m.forward(&hops, Mode::Train), &labels);
                m.params()[pi].value.as_mut_slice()[k] = orig;
                let numeric = (lp - lm) / (2.0 * eps);
                let analytic = grads[pi].as_slice()[k];
                let scale = numeric.abs().max(analytic.abs()).max(5e-2);
                assert!(
                    (numeric - analytic).abs() / scale < 5e-2,
                    "param {pi}[{k}]: {numeric} vs {analytic}"
                );
                k += stride;
            }
        }
    }

    #[test]
    fn learns_xor_of_two_hops() {
        // hop0 and hop1 each carry one bit; the label is their XOR —
        // unlearnable from any single hop, so passing requires the model to
        // combine hops (which SGC by construction cannot).
        let mut rng = StdRng::seed_from_u64(5);
        let mut m = Sign::new(1, 1, 16, 2, 0.0, &mut rng);
        let mut opt = Adam::new(0.05);
        let h0 = Matrix::from_rows(&[&[0.0], &[0.0], &[1.0], &[1.0]]);
        let h1 = Matrix::from_rows(&[&[0.0], &[1.0], &[0.0], &[1.0]]);
        let labels = [0u32, 1, 1, 0];
        let hops = vec![h0, h1];
        for _ in 0..400 {
            let logits = m.forward(&hops, Mode::Train);
            let (_, g) = CrossEntropyLoss.loss_and_grad(&logits, &labels);
            m.zero_grad();
            m.backward(&g);
            opt.step(&mut m.params());
        }
        let logits = m.forward(&hops, Mode::Eval);
        assert_eq!(
            metrics::accuracy(&logits, &labels),
            1.0,
            "failed to learn XOR"
        );
    }

    #[test]
    #[should_panic(expected = "without a training-mode forward")]
    fn backward_requires_forward() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut m = Sign::new(1, 2, 4, 2, 0.0, &mut rng);
        m.backward(&Matrix::zeros(1, 2));
    }
}
