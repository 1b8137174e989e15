use ppgnn_nn::{Linear, Mode, Module, Param};
use ppgnn_tensor::Matrix;
use rand::Rng;

use crate::pp::{validate_hop_count, PpModel};

/// Simplified Graph Convolution (Wu et al. 2019).
///
/// The minimal PP-GNN: all feature propagation happens offline, training is
/// a single linear classifier on the deepest hop `B^R X`. In Eq. (3) terms,
/// `l(·)` selects hop `R` (`δ_{ir}`) and `o(·)` is a linear map. Fastest of
/// the three PP-GNNs but leaves the intermediate hops unused — the accuracy
/// gap visible across the paper's Pareto plots.
#[derive(Debug)]
pub struct Sgc {
    hops: usize,
    classifier: Linear,
    feature_dim: usize,
    num_classes: usize,
}

impl Sgc {
    /// Creates an SGC model over `hops` propagation steps.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(hops: usize, feature_dim: usize, num_classes: usize, rng: &mut impl Rng) -> Self {
        assert!(
            feature_dim > 0 && num_classes > 0,
            "dimensions must be positive"
        );
        Sgc {
            hops,
            classifier: Linear::new(feature_dim, num_classes, rng),
            feature_dim,
            num_classes,
        }
    }

    /// Input feature dimension.
    pub fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    /// Output class count.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }
}

impl Sgc {
    /// The one hop SGC reads, after checking the slice length. Unread hops
    /// may arrive empty (the `hops_read` contract), so only hop `R` is
    /// looked at; `Linear` checks its feature width.
    fn deepest_hop<'a>(&self, hops: &'a [Matrix]) -> &'a Matrix {
        validate_hop_count(hops, self.hops + 1);
        &hops[self.hops]
    }
}

impl PpModel for Sgc {
    fn forward_into(&mut self, hops: &[Matrix], mode: Mode, out: &mut Matrix) {
        let x = self.deepest_hop(hops);
        self.classifier.forward_into(x, mode, out);
    }

    fn backward(&mut self, grad_out: &Matrix) {
        // The classifier's input is hop features — data, not an
        // activation — so nothing consumes ∂X.
        self.classifier.backward_params(grad_out);
    }

    fn params(&mut self) -> Vec<&mut Param> {
        self.classifier.params()
    }

    fn num_hops(&self) -> usize {
        self.hops
    }

    fn hops_read(&self) -> Vec<usize> {
        vec![self.hops]
    }

    fn name(&self) -> &'static str {
        "sgc"
    }

    fn flops_per_example(&self) -> u64 {
        // Forward + ∂W of one F x C layer (its input is data: no ∂X).
        4 * (self.feature_dim as u64) * (self.num_classes as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppgnn_nn::{metrics, CrossEntropyLoss, Optimizer, Sgd};
    use ppgnn_tensor::init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn hop_stack(b: usize, f: usize, hops: usize, seed: u64) -> Vec<Matrix> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..=hops)
            .map(|_| init::standard_normal(b, f, &mut rng))
            .collect()
    }

    #[test]
    fn forward_uses_only_the_last_hop() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut m = Sgc::new(2, 4, 3, &mut rng);
        let mut hops = hop_stack(5, 4, 2, 1);
        let y1 = m.forward(&hops, Mode::Eval);
        hops[0].scale(100.0); // perturb an unused hop
        let y2 = m.forward(&hops, Mode::Eval);
        assert!(y1.max_abs_diff(&y2) < 1e-6);
        hops[2].scale(2.0); // perturb the used hop
        let y3 = m.forward(&hops, Mode::Eval);
        assert!(y1.max_abs_diff(&y3) > 1e-3);
    }

    #[test]
    fn reads_hop_r_and_accepts_empty_unread_hops() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut m = Sgc::new(2, 4, 3, &mut rng);
        assert_eq!(m.hops_read(), vec![2]);
        let hops = hop_stack(5, 4, 2, 8);
        let full = m.forward(&hops, Mode::Eval);
        // What a hop-selective loader delivers: unread hops empty, in place.
        let selective = [Matrix::default(), Matrix::default(), hops[2].clone()];
        assert_eq!(m.forward(&selective, Mode::Eval), full);
        let mut out = Matrix::default();
        m.forward_into(&selective, Mode::Train, &mut out);
        assert_eq!(out, full);
        m.backward(&Matrix::zeros(5, 3));
    }

    #[test]
    fn overfits_a_separable_toy_problem() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut m = Sgc::new(1, 2, 2, &mut rng);
        let mut opt = Sgd::new(0.5);
        // last-hop features linearly separable by sign of first coordinate
        let x: Matrix = Matrix::from_rows(&[&[2.0, 0.1], &[1.5, -0.2], &[-2.0, 0.3], &[-1.0, 0.0]]);
        let labels = [0u32, 0, 1, 1];
        let hops = vec![Matrix::zeros(4, 2), x];
        for _ in 0..200 {
            let logits = m.forward(&hops, Mode::Train);
            let (_, g) = CrossEntropyLoss.loss_and_grad(&logits, &labels);
            m.zero_grad();
            m.backward(&g);
            opt.step(&mut m.params());
        }
        let logits = m.forward(&hops, Mode::Eval);
        assert_eq!(metrics::accuracy(&logits, &labels), 1.0);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut m = Sgc::new(1, 3, 2, &mut rng);
        let hops = hop_stack(4, 3, 1, 4);
        let labels = [0u32, 1, 0, 1];
        let logits = m.forward(&hops, Mode::Train);
        let (_, g) = CrossEntropyLoss.loss_and_grad(&logits, &labels);
        m.zero_grad();
        m.backward(&g);
        let analytic = m.params()[0].grad.clone();
        let eps = 1e-2f32;
        for k in 0..analytic.len() {
            let orig = m.params()[0].value.as_slice()[k];
            m.params()[0].value.as_mut_slice()[k] = orig + eps;
            let lp = CrossEntropyLoss.loss(&m.forward(&hops, Mode::Train), &labels);
            m.params()[0].value.as_mut_slice()[k] = orig - eps;
            let lm = CrossEntropyLoss.loss(&m.forward(&hops, Mode::Train), &labels);
            m.params()[0].value.as_mut_slice()[k] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - analytic.as_slice()[k]).abs() < 5e-3,
                "coord {k}: {numeric} vs {}",
                analytic.as_slice()[k]
            );
        }
    }

    #[test]
    #[should_panic(expected = "hop matrices")]
    fn wrong_hop_count_is_rejected() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut m = Sgc::new(3, 4, 2, &mut rng);
        m.forward(&hop_stack(2, 4, 1, 6), Mode::Eval);
    }
}
