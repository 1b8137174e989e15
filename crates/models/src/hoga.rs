use ppgnn_nn::{
    Dropout, LayerNorm, Linear, Mode, Module, MultiHeadAttention, Param, Relu, Sequential,
};
use ppgnn_tensor::Matrix;
use rand::Rng;

use crate::pp::{validate_hops, PpModel};

/// HOGA: Hop-Wise Graph Attention (Deng et al. 2024).
///
/// Treats the `R + 1` hop-feature vectors of each node as tokens:
///
/// 1. **per-hop linear embeddings** map each token to the hidden dimension
///    (hop order is semantic for PP-GNNs: under heterophily, hop `r` and
///    hop `r+1` carry different class mappings — a shared projection
///    composed with pooling collapses them, which the `wiki`-style
///    heterophilous profile exposes), plus a learned hop-positional
///    embedding,
/// 2. one multi-head self-attention layer mixes information **across hops**
///    (not across nodes — nodes stay independent, the PP-GNN property),
/// 3. layer norm + a **gated readout** (softmax-weighted sum over hop
///    tokens, with a learned scoring vector) produces the node embedding —
///    the mechanism that lets HOGA *learn which hops matter* instead of
///    averaging noisy hop-0 features in,
/// 4. an MLP head emits logits.
///
/// The most expressive — and most compute-heavy — of the three PP-GNNs,
/// which is exactly the regime where the paper finds data loading ceases to
/// dominate (Figure 5: HOGA 68.7 % loading vs SGC 91.5 %).
pub struct Hoga {
    hops: usize,
    embeds: Vec<Linear>,
    attention: MultiHeadAttention,
    norm: LayerNorm,
    /// Learned hop-positional embeddings (`(R+1) x hidden`).
    pos: ppgnn_nn::Param,
    /// Gated-readout scoring vector (`hidden x 1`).
    gate: ppgnn_nn::Param,
    head: Sequential,
    feature_dim: usize,
    hidden: usize,
    heads: usize,
    num_classes: usize,
    cache: Option<HogaCache>,
    /// Spent cache buffers handed back by `backward` (or an eval forward),
    /// refilled in place by the next forward.
    cache_scratch: Option<HogaCache>,
    /// Retained forward intermediates: per-hop embeddings, the token
    /// matrix, the attention output, and the pooled readout.
    per_hop: Vec<Matrix>,
    embedded: Matrix,
    attended: Matrix,
    pooled: Matrix,
}

#[derive(Default)]
struct HogaCache {
    batch: usize,
    /// Post-norm token features `[b*t, H]`.
    normed: Matrix,
    /// Readout gates `[b, t]` (softmax over tokens).
    gates: Matrix,
}

impl std::fmt::Debug for Hoga {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hoga")
            .field("hops", &self.hops)
            .field("hidden", &self.hidden)
            .field("heads", &self.heads)
            .field("num_classes", &self.num_classes)
            .finish()
    }
}

impl Hoga {
    /// Creates a HOGA model with a single attention layer of `heads` heads
    /// over `hops + 1` tokens of width `hidden`.
    ///
    /// # Panics
    ///
    /// Panics if a dimension is zero, `hidden % heads != 0`, or
    /// `dropout ∉ [0, 1)`.
    pub fn new(
        hops: usize,
        feature_dim: usize,
        hidden: usize,
        heads: usize,
        num_classes: usize,
        dropout: f32,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(
            feature_dim > 0 && hidden > 0 && num_classes > 0,
            "dimensions must be positive"
        );
        let tokens = hops + 1;
        Hoga {
            hops,
            embeds: (0..tokens)
                .map(|_| Linear::new(feature_dim, hidden, rng))
                .collect(),
            attention: MultiHeadAttention::new(tokens, hidden, heads, rng),
            norm: LayerNorm::new(hidden),
            pos: ppgnn_nn::Param::new(ppgnn_tensor::init::normal(tokens, hidden, 0.0, 0.02, rng)),
            gate: ppgnn_nn::Param::new(ppgnn_tensor::init::xavier_uniform(hidden, 1, rng)),
            head: Sequential::new(vec![
                Box::new(Dropout::new(dropout, rng.random())),
                Box::new(Linear::new(hidden, hidden, rng)),
                Box::new(Relu::new()),
                Box::new(Linear::new(hidden, num_classes, rng)),
            ]),
            feature_dim,
            hidden,
            heads,
            num_classes,
            cache: None,
            cache_scratch: None,
            per_hop: (0..tokens).map(|_| Matrix::default()).collect(),
            embedded: Matrix::default(),
            attended: Matrix::default(),
            pooled: Matrix::default(),
        }
    }

    /// Hidden (token) width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Attention head count.
    pub fn heads(&self) -> usize {
        self.heads
    }
}

impl PpModel for Hoga {
    fn forward(&mut self, hops: &[Matrix], mode: Mode) -> Matrix {
        let mut out = Matrix::default();
        self.forward_into(hops, mode, &mut out);
        out
    }

    fn forward_into(&mut self, hops: &[Matrix], mode: Mode, out: &mut Matrix) {
        let (b, _) = validate_hops(hops, self.hops + 1);
        let t = self.hops + 1;
        // per-hop embeddings, interleaved into token layout [b*t, H]
        for ((e, h), z) in self
            .embeds
            .iter_mut()
            .zip(hops)
            .zip(self.per_hop.iter_mut())
        {
            e.forward_into(h, mode, z);
        }
        self.embedded.resize_to(b * t, self.hidden);
        for i in 0..b {
            for tok in 0..t {
                let dst = self.embedded.row_mut(i * t + tok);
                dst.copy_from_slice(self.per_hop[tok].row(i));
                for (e, &p) in dst.iter_mut().zip(self.pos.value.row(tok)) {
                    *e += p;
                }
            }
        }
        self.attention
            .forward_into(&self.embedded, mode, &mut self.attended); // [b*t, H]
        self.attended.add_assign(&self.embedded); // residual connection
        let mut cb = self.cache_scratch.take().unwrap_or_default();
        self.norm.forward_into(&self.attended, mode, &mut cb.normed); // [b*t, H]

        // Gated readout: score each token, softmax over the node's tokens,
        // pool with the resulting weights.
        let scale = 1.0 / (self.hidden as f32).sqrt();
        let gate_w = self.gate.value.as_slice();
        cb.gates.resize_to(b, t);
        for i in 0..b {
            let row = cb.gates.row_mut(i);
            for (tok, g) in row.iter_mut().enumerate() {
                let z = cb.normed.row(i * t + tok);
                let mut s = 0.0;
                for (zv, wv) in z.iter().zip(gate_w) {
                    s += zv * wv;
                }
                *g = s * scale;
            }
            // softmax in place
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for g in row.iter_mut() {
                *g = (*g - max).exp();
                sum += *g;
            }
            for g in row.iter_mut() {
                *g /= sum;
            }
        }
        self.pooled.resize_to(b, self.hidden);
        self.pooled.fill_zero();
        for i in 0..b {
            for tok in 0..t {
                let g = cb.gates.get(i, tok);
                let src = cb.normed.row(i * t + tok);
                for (p, v) in self.pooled.row_mut(i).iter_mut().zip(src) {
                    *p += v * g;
                }
            }
        }
        cb.batch = b;
        if mode == Mode::Train {
            self.cache = Some(cb);
        } else {
            self.cache_scratch = Some(cb);
        }
        self.head.forward_into(&self.pooled, mode, out);
    }

    // ppgnn-analyze: allow(hot_path_alloc) -- per-batch gradient work
    // buffers (gated-readout and per-hop de-interleave grads); bounded by
    // the residency pin in tests/preprocess_residency.rs.
    fn backward(&mut self, grad_out: &Matrix) {
        let HogaCache {
            batch: b,
            normed,
            gates,
        } = self
            .cache
            .take()
            .expect("Hoga::backward called without a training-mode forward");
        let t = self.hops + 1;
        let g_pooled = self.head.backward(grad_out); // [b, H]

        // Backward through the gated readout:
        //   pooled_i = Σ_r g_ir · z_ir,  g_i = softmax_r(z_ir·w·scale).
        let scale = 1.0 / (self.hidden as f32).sqrt();
        let gate_w = self.gate.value.as_slice();
        let mut g_normed = Matrix::zeros(b * t, self.hidden);
        let mut g_gate = vec![0.0f32; self.hidden];
        for i in 0..b {
            let gp = g_pooled.row(i);
            // dgate_r = gp · z_ir ; value-path dz_ir += g_ir · gp
            let mut dg = vec![0.0f32; t];
            for tok in 0..t {
                let z = normed.row(i * t + tok);
                let mut dot = 0.0;
                for (a, v) in gp.iter().zip(z) {
                    dot += a * v;
                }
                dg[tok] = dot;
                let g = gates.get(i, tok);
                for (o, v) in g_normed.row_mut(i * t + tok).iter_mut().zip(gp) {
                    *o += g * v;
                }
            }
            // softmax backward: ds_r = g_r (dg_r − Σ g·dg)
            let inner: f32 = (0..t).map(|r| gates.get(i, r) * dg[r]).sum();
            for tok in 0..t {
                let ds = gates.get(i, tok) * (dg[tok] - inner) * scale;
                // score path: dz += ds·w ; dw += ds·z
                for (o, wv) in g_normed.row_mut(i * t + tok).iter_mut().zip(gate_w) {
                    *o += ds * wv;
                }
                for (gw, zv) in g_gate.iter_mut().zip(normed.row(i * t + tok)) {
                    *gw += ds * zv;
                }
            }
        }
        for (k, gv) in g_gate.iter().enumerate() {
            let cur = self.gate.grad.get(k, 0);
            self.gate.grad.set(k, 0, cur + gv);
        }
        let g_attended = self.norm.backward(&g_normed);
        let mut g_embedded = self.attention.backward(&g_attended);
        // residual path
        g_embedded.add_assign(&g_attended);
        // positional-embedding grads: sum token grads over the batch;
        // per-hop embedding grads: de-interleave tokens back to hop layout
        let mut per_hop_grads: Vec<Matrix> =
            (0..t).map(|_| Matrix::zeros(b, self.hidden)).collect();
        for i in 0..b {
            for tok in 0..t {
                let src = g_embedded.row(i * t + tok);
                for (o, &v) in self.pos.grad.row_mut(tok).iter_mut().zip(src) {
                    *o += v;
                }
                per_hop_grads[tok].row_mut(i).copy_from_slice(src);
            }
        }
        for (embed, g) in self.embeds.iter_mut().zip(&per_hop_grads) {
            embed.backward_params(g); // the input is data: no ∂X
        }
        self.cache_scratch = Some(HogaCache {
            batch: b,
            normed,
            gates,
        });
    }

    fn params(&mut self) -> Vec<&mut Param> {
        let mut out: Vec<&mut Param> = Vec::new();
        for e in &mut self.embeds {
            out.extend(e.params());
        }
        out.extend(self.attention.params());
        out.extend(self.norm.params());
        out.push(&mut self.pos);
        out.push(&mut self.gate);
        out.extend(self.head.params());
        out
    }

    fn num_hops(&self) -> usize {
        self.hops
    }

    fn name(&self) -> &'static str {
        "hoga"
    }

    fn flops_per_example(&self) -> u64 {
        let t = (self.hops + 1) as u64;
        let f = self.feature_dim as u64;
        let h = self.hidden as u64;
        let c = self.num_classes as u64;
        // embed + 4 attention projections + attention matrix + head, ×3 fwd+bwd
        6 * (t * f * h + 4 * t * h * h + 2 * t * t * h + h * h + h * c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppgnn_nn::{metrics, Adam, CrossEntropyLoss, Optimizer};
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
    fn forward_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut m = Hoga::new(3, 6, 8, 2, 5, 0.0, &mut rng);
        let y = m.forward(&hop_stack(4, 6, 3, 1), Mode::Eval);
        assert_eq!(y.shape(), (4, 5));
    }

    #[test]
    fn nodes_are_independent() {
        // PP-GNN property: removing other nodes from the batch must not
        // change a node's logits.
        let mut rng = StdRng::seed_from_u64(2);
        let mut m = Hoga::new(2, 4, 8, 2, 3, 0.0, &mut rng);
        let hops = hop_stack(5, 4, 2, 3);
        let full = m.forward(&hops, Mode::Eval);
        let single: Vec<Matrix> = hops.iter().map(|h| h.slice_rows(2, 3)).collect();
        let alone = m.forward(&single, Mode::Eval);
        assert!(full.slice_rows(2, 3).max_abs_diff(&alone) < 1e-5);
    }

    #[test]
    fn every_hop_influences_the_output() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut m = Hoga::new(2, 4, 8, 2, 3, 0.0, &mut rng);
        let hops = hop_stack(3, 4, 2, 5);
        let base = m.forward(&hops, Mode::Eval);
        for r in 0..3 {
            let mut p = hops.clone();
            p[r].scale(3.0);
            assert!(
                m.forward(&p, Mode::Eval).max_abs_diff(&base) > 1e-6,
                "hop {r} inert"
            );
        }
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut m = Hoga::new(1, 3, 4, 2, 2, 0.0, &mut rng);
        let hops = hop_stack(3, 3, 1, 7);
        let labels = [0u32, 1, 0];
        let logits = m.forward(&hops, Mode::Train);
        let (_, g) = CrossEntropyLoss.loss_and_grad(&logits, &labels);
        m.zero_grad();
        m.backward(&g);
        let grads: Vec<Matrix> = m.params().iter().map(|p| p.grad.clone()).collect();
        // Smaller step than the other models: the gated softmax readout has
        // high curvature, and central differences at 1e-2 pick it up.
        let eps = 4e-3f32;
        let num_params = m.params().len();
        for pi in 0..num_params {
            let len = m.params()[pi].len();
            let stride = (len / 5).max(1);
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
                    (numeric - analytic).abs() / scale < 6e-2,
                    "param {pi}[{k}]: {numeric} vs {analytic}"
                );
                k += stride;
            }
        }
    }

    #[test]
    fn learns_hop_interaction_task() {
        // Same XOR-across-hops task SIGN passes; HOGA must combine tokens.
        let mut rng = StdRng::seed_from_u64(8);
        let mut m = Hoga::new(1, 1, 16, 2, 2, 0.0, &mut rng);
        let mut opt = Adam::new(0.03);
        let h0 = Matrix::from_rows(&[&[0.0], &[0.0], &[1.0], &[1.0]]);
        let h1 = Matrix::from_rows(&[&[0.0], &[1.0], &[0.0], &[1.0]]);
        let labels = [0u32, 1, 1, 0];
        let hops = vec![h0, h1];
        for _ in 0..500 {
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
}
