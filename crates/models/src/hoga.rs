use ppgnn_nn::{
    Dropout, LayerNorm, Linear, Mode, Module, MultiHeadAttention, Param, Relu, Sequential,
};
use ppgnn_tensor::pool::{add_partials, row_block_count, row_blocked, BlockOut};
use ppgnn_tensor::{lanes, Matrix};
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
///
/// # What a step costs
///
/// Its GEMMs (embeddings, the attention projections, the head) plus a few
/// streaming passes, each one sweep on the fixed-grain row-block splitter
/// ([`ppgnn_tensor::pool::row_blocked`], blocks of
/// [`ppgnn_tensor::pool::ROW_BLOCK`] examples): token interleave +
/// positional add, the residual add, LayerNorm, the gated readout (score +
/// softmax + pool in one sweep; its backward likewise), and residual +
/// de-interleave + `∂pos`. Stage spans (`hoga.embed`, `attn.qkv`,
/// `attn.core`, `attn.out`, `hoga.norm`, `hoga.readout`, `hoga.head` and
/// their `.bwd` twins) attribute a step when telemetry is on.
///
/// **Determinism.** A block's result is a function of the block alone; the
/// sums over the batch (`∂gate`, `∂pos`) leave one partial row per block,
/// added into the gradient in block order on the calling thread. With the
/// GEMM driver's own contract that makes logits, every gradient and every
/// updated weight bit-identical serial and pooled, at every pool width.
///
/// **Retained.** Forward intermediates, the training cache (ping-ponged
/// through `cache_scratch`), `∂normed`, the per-hop gradient matrices and
/// the partial rows all live in the model, and its layers write their
/// input gradients through [`Module::backward_into`] into the forward
/// buffers they came from — every layer caches what its backward needs,
/// so `pooled`, `attended` and `embedded` are free once the forward
/// returns and carry `∂pooled`, `∂attended` and `∂embedded`. A
/// steady-state forward + backward allocates nothing.
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
    /// Retained backward buffers: `∂normed` `[b*t, H]`, the readout's
    /// `∂gates` scratch `[b, t]`, one `[b, H]` gradient per hop embedding,
    /// and one `H`-wide partial row per row block.
    g_normed: Matrix,
    d_gates: Matrix,
    per_hop_grads: Vec<Matrix>,
    partials: Vec<f32>,
}

#[derive(Default)]
struct HogaCache {
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

/// Gated readout over one block of examples: score each token
/// (`z·w·scale`), softmax over the example's tokens into `gates`, pool the
/// tokens with those weights into `pooled`. `normed` is the block's rows.
fn readout_fwd(normed: &[f32], gate_w: &[f32], gates: &mut [f32], pooled: &mut [f32]) {
    let h = gate_w.len();
    let t = gates.len() / (pooled.len() / h);
    let scale = 1.0 / (h as f32).sqrt();
    let examples = gates.chunks_exact_mut(t).zip(pooled.chunks_exact_mut(h));
    for ((g, p), z) in examples.zip(normed.chunks_exact(t * h)) {
        let mut max = f32::NEG_INFINITY;
        for (gv, zt) in g.iter_mut().zip(z.chunks_exact(h)) {
            *gv = lanes::dot(zt, gate_w) * scale;
            max = max.max(*gv);
        }
        let mut sum = 0.0;
        for gv in g.iter_mut() {
            *gv = (*gv - max).exp();
            sum += *gv;
        }
        for (tok, (gv, zt)) in g.iter_mut().zip(z.chunks_exact(h)).enumerate() {
            *gv /= sum;
            for (pv, &zv) in p.iter_mut().zip(zt) {
                *pv = if tok == 0 { *gv * zv } else { *pv + *gv * zv };
            }
        }
    }
}

/// Backward of [`readout_fwd`] over one block of examples:
/// `pooled_i = Σ_r g_ir · z_ir`, `g_i = softmax_r(z_ir·w·scale)`. Writes the
/// block's `∂normed` rows (value path `g·∂pooled` plus score path `∂s·w`),
/// uses its `∂gates` rows as scratch, and leaves the block's `∂w` partial.
fn readout_bwd(
    (g_pooled, normed, gates, gate_w): (&[f32], &[f32], &[f32], &[f32]),
    [g_normed, d_gates, g_gate]: [&mut [f32]; 3],
) {
    let h = gate_w.len();
    let t = gates.len() / (g_pooled.len() / h);
    let scale = 1.0 / (h as f32).sqrt();
    g_gate.fill(0.0);
    let examples = g_pooled.chunks_exact(h).zip(normed.chunks_exact(t * h));
    let outs = g_normed
        .chunks_exact_mut(t * h)
        .zip(d_gates.chunks_exact_mut(t));
    for (((gp, z), g), (gz, dg)) in examples.zip(gates.chunks_exact(t)).zip(outs) {
        // ∂g_r = ∂pooled · z_r, then softmax backward: ∂s_r = g_r (∂g_r − Σ g·∂g).
        let mut inner = 0.0;
        for ((d, zt), &gv) in dg.iter_mut().zip(z.chunks_exact(h)).zip(g) {
            *d = lanes::dot(gp, zt);
            inner += gv * *d;
        }
        for (((gzt, zt), &gv), &d) in gz
            .chunks_exact_mut(h)
            .zip(z.chunks_exact(h))
            .zip(g)
            .zip(&*dg)
        {
            let ds = gv * (d - inner) * scale;
            for k in 0..h {
                gzt[k] = gv * gp[k] + ds * gate_w[k];
                g_gate[k] += ds * zt[k];
            }
        }
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
            g_normed: Matrix::default(),
            d_gates: Matrix::default(),
            per_hop_grads: (0..tokens).map(|_| Matrix::default()).collect(),
            partials: Vec::new(),
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

impl Hoga {
    /// The forward over a batch of `b` examples, with hop `r`'s embedding
    /// run by `embed(r, linear, z)` — a borrowed or a lent input.
    fn forward_with(
        &mut self,
        b: usize,
        mode: Mode,
        out: &mut Matrix,
        mut embed: impl FnMut(usize, &mut Linear, &mut Matrix),
    ) {
        let (t, h) = (self.hops + 1, self.hidden);
        {
            // per-hop embeddings, interleaved into token layout [b*t, H]
            // with the positional embedding added on the way
            let _span = ppgnn_telemetry::span("hoga.embed");
            for (r, (e, z)) in self.embeds.iter_mut().zip(&mut self.per_hop).enumerate() {
                embed(r, e, z);
            }
            self.embedded.resize_to(b * t, h);
            let (per_hop, pos) = (&self.per_hop, &self.pos.value);
            let outs = [BlockOut::rows(self.embedded.as_mut_slice(), t * h)];
            row_blocked(b, 2 * b * t * h, outs, |_, i0, [tokens]| {
                for (r, dst) in tokens.chunks_exact_mut(h).enumerate() {
                    let (i, tok) = (i0 + r / t, r % t);
                    for ((d, &e), &p) in dst.iter_mut().zip(per_hop[tok].row(i)).zip(pos.row(tok)) {
                        *d = e + p;
                    }
                }
            });
        }
        self.attention
            .forward_into(&self.embedded, mode, &mut self.attended); // [b*t, H]
        let mut cb = self.cache_scratch.take().unwrap_or_default();
        {
            let _span = ppgnn_telemetry::span("hoga.norm");
            self.attended.add_assign(&self.embedded); // residual connection
            self.norm.forward_into(&self.attended, mode, &mut cb.normed); // [b*t, H]
        }
        {
            let _span = ppgnn_telemetry::span("hoga.readout");
            cb.gates.resize_to(b, t);
            self.pooled.resize_to(b, h);
            let (normed, gate_w) = (cb.normed.as_slice(), self.gate.value.as_slice());
            let outs = [
                BlockOut::rows(cb.gates.as_mut_slice(), t),
                BlockOut::rows(self.pooled.as_mut_slice(), h),
            ];
            row_blocked(b, normed.len() + b * h, outs, |_, i0, [gates, pooled]| {
                let z = &normed[i0 * t * h..][..gates.len() * h];
                readout_fwd(z, gate_w, gates, pooled)
            });
        }
        if mode == Mode::Train {
            self.cache = Some(cb);
        } else {
            self.cache_scratch = Some(cb);
        }
        let _span = ppgnn_telemetry::span("hoga.head");
        self.head.forward_into(&self.pooled, mode, out);
    }
}

impl PpModel for Hoga {
    fn forward_into(&mut self, hops: &[Matrix], mode: Mode, out: &mut Matrix) {
        let (b, _) = validate_hops(hops, self.hops + 1);
        self.forward_with(b, mode, out, |r, e, z| e.forward_into(&hops[r], mode, z));
    }

    fn forward_train(&mut self, hops: &mut [Matrix], out: &mut Matrix) {
        let (b, _) = validate_hops(hops, self.hops + 1);
        self.forward_with(b, Mode::Train, out, |r, e, z| {
            e.forward_lent(std::mem::take(&mut hops[r]), z)
        });
    }

    fn return_inputs(&mut self, hops: &mut [Matrix]) {
        for (hop, embed) in hops.iter_mut().zip(&mut self.embeds) {
            if let Some(x) = embed.take_input() {
                *hop = x;
            }
        }
    }

    fn backward(&mut self, grad_out: &Matrix) {
        let cache = self
            .cache
            .take()
            .expect("Hoga::backward called without a training-mode forward");
        let (t, h) = (self.hops + 1, self.hidden);
        let b = cache.gates.rows();
        {
            let _span = ppgnn_telemetry::span("hoga.head.bwd");
            self.head.backward_into(grad_out, &mut self.pooled); // ∂pooled [b, H]
        }
        self.partials.resize(row_block_count(b) * h, 0.0);
        {
            let _span = ppgnn_telemetry::span("hoga.readout.bwd");
            self.g_normed.resize_to(b * t, h);
            self.d_gates.resize_to(b, t);
            let (gp, z, g) = (
                self.pooled.as_slice(),
                cache.normed.as_slice(),
                cache.gates.as_slice(),
            );
            let gate_w = self.gate.value.as_slice();
            let outs = [
                BlockOut::rows(self.g_normed.as_mut_slice(), t * h),
                BlockOut::rows(self.d_gates.as_mut_slice(), t),
                BlockOut::partial(&mut self.partials, h),
            ];
            row_blocked(b, 2 * z.len() + gp.len(), outs, |_, i0, outs| {
                let n = outs[1].len() / t;
                let inputs = (
                    &gp[i0 * h..][..n * h],
                    &z[i0 * t * h..][..n * t * h],
                    &g[i0 * t..][..n * t],
                    gate_w,
                );
                readout_bwd(inputs, outs)
            });
            add_partials(self.gate.grad.as_mut_slice(), &self.partials);
        }
        {
            let _span = ppgnn_telemetry::span("hoga.norm.bwd");
            self.norm.backward_into(&self.g_normed, &mut self.attended); // ∂attended
        }
        self.attention
            .backward_into(&self.attended, &mut self.embedded); // ∂embedded
        let _span = ppgnn_telemetry::span("hoga.embed.bwd");
        // Per hop: residual path + de-interleave back to hop layout, the
        // hop's positional-embedding grad (its token grads summed over the
        // batch), then the embedding's parameter grads — the input is
        // data, so no ∂X.
        let (ge, ga) = (self.embedded.as_slice(), self.attended.as_slice());
        for (tok, (embed, grads)) in self
            .embeds
            .iter_mut()
            .zip(&mut self.per_hop_grads)
            .enumerate()
        {
            grads.resize_to(b, h);
            let outs = [
                BlockOut::rows(grads.as_mut_slice(), h),
                BlockOut::partial(&mut self.partials, h),
            ];
            row_blocked(b, 3 * b * h, outs, |_, i0, [dst, g_pos]| {
                g_pos.fill(0.0);
                for (r, d) in dst.chunks_exact_mut(h).enumerate() {
                    let at = ((i0 + r) * t + tok) * h;
                    for ((d, p), (&e, &a)) in
                        (d.iter_mut().zip(g_pos.iter_mut())).zip(ge[at..].iter().zip(&ga[at..]))
                    {
                        *d = e + a;
                        *p += *d;
                    }
                }
            });
            add_partials(self.pos.grad.row_mut(tok), &self.partials);
            embed.backward_params(grads);
        }
        self.cache_scratch = Some(cache);
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
        // Embeddings: forward + ∂W (their input is data, so no ∂X); the
        // 4 attention projections, the attention scores and mix, and the
        // head: forward + ∂W + ∂X.
        4 * t * f * h + 6 * (4 * t * h * h + 2 * t * t * h + h * h + h * c)
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
    fn a_train_step_is_bit_identical_serial_and_pooled() {
        // Three Adam steps on 200 examples (four row blocks, the last
        // short), once with every kernel and pass forced serial and once
        // with all of them forced onto the pool: logits, every parameter
        // gradient and every updated weight must agree to the bit.
        let hops = hop_stack(200, 10, 3, 11);
        let labels: Vec<u32> = (0..200).map(|i| (i % 5) as u32).collect();
        let run = |threshold: usize| {
            ppgnn_tensor::set_parallel_threshold(threshold);
            let mut m = Hoga::new(3, 10, 16, 2, 5, 0.1, &mut StdRng::seed_from_u64(9));
            let mut opt = Adam::new(0.01);
            let mut trail: Vec<Vec<u32>> = Vec::new();
            let mut keep =
                |mat: &Matrix| trail.push(mat.as_slice().iter().map(|v| v.to_bits()).collect());
            for _ in 0..3 {
                let logits = m.forward(&hops, Mode::Train);
                let (_, g) = CrossEntropyLoss.loss_and_grad(&logits, &labels);
                m.zero_grad();
                m.backward(&g);
                keep(&logits);
                m.params().iter().for_each(|p| keep(&p.grad));
                opt.step(&mut m.params());
                m.params().iter().for_each(|p| keep(&p.value));
            }
            trail
        };
        let (serial, pooled) = (run(usize::MAX), run(0));
        ppgnn_tensor::set_parallel_threshold(ppgnn_tensor::pool::DEFAULT_PARALLEL_THRESHOLD);
        assert_eq!(serial.len(), 3 * (1 + 2 * 20)); // logits + 20 grads + 20 weights per step
        assert!(serial == pooled, "serial and pooled HOGA steps diverge");
    }

    #[test]
    fn stage_spans_cover_a_train_step() {
        // With telemetry on, the fourteen stage spans account for (nearly)
        // all of a step's forward + backward wall — measured on this thread
        // inside two probe spans, so concurrent tests' events (other
        // threads) and their load (both sides of the ratio) drop out. A
        // thread descheduled between two stage spans adds to the wall and
        // to no span; work outside the spans shows in every step, so the
        // best of a few steps measures the code and not the scheduler.
        const STAGES: [&str; 7] = [
            "hoga.embed",
            "attn.qkv",
            "attn.core",
            "attn.out",
            "hoga.norm",
            "hoga.readout",
            "hoga.head",
        ];
        const STEPS: usize = 5;
        let mut m = Hoga::new(3, 16, 32, 4, 5, 0.1, &mut StdRng::seed_from_u64(12));
        let hops = hop_stack(256, 16, 3, 13);
        let labels: Vec<u32> = (0..256).map(|i| (i % 5) as u32).collect();
        let mut logits = Matrix::default();
        let mut step = |m: &mut Hoga| {
            {
                let _probe = ppgnn_telemetry::span("test.hoga.fwd");
                m.forward_into(&hops, Mode::Train, &mut logits);
            }
            let (_, g) = CrossEntropyLoss.loss_and_grad(&logits, &labels);
            m.zero_grad();
            let _probe = ppgnn_telemetry::span("test.hoga.bwd");
            m.backward(&g);
        };
        step(&mut m); // warm the retained buffers
        ppgnn_telemetry::set_enabled(true);
        for _ in 0..STEPS {
            step(&mut m);
        }
        ppgnn_telemetry::set_enabled(false);

        let events = ppgnn_telemetry::take_events();
        let probes = |name: &str| -> Vec<_> { events.iter().filter(|e| e.name == name).collect() };
        let (fwd, bwd) = (probes("test.hoga.fwd"), probes("test.hoga.bwd"));
        assert_eq!(
            (fwd.len(), bwd.len()),
            (STEPS, STEPS),
            "probe spans recorded"
        );
        let coverage: Vec<f64> = fwd
            .iter()
            .zip(&bwd)
            .map(|(&fwd, &bwd)| {
                let mut covered = 0;
                for (probe, suffix) in [(fwd, ""), (bwd, ".bwd")] {
                    for stage in STAGES {
                        let name = format!("{stage}{suffix}");
                        let inside: Vec<_> = events
                            .iter()
                            .filter(|e| e.tid == probe.tid && e.start_ns >= probe.start_ns)
                            .filter(|e| e.start_ns + e.dur_ns <= probe.start_ns + probe.dur_ns)
                            .filter(|e| e.name == name)
                            .collect();
                        assert_eq!(inside.len(), 1, "{name}: one span per step");
                        covered += inside[0].dur_ns;
                    }
                }
                covered as f64 / (fwd.dur_ns + bwd.dur_ns) as f64
            })
            .collect();
        let best = coverage.iter().copied().fold(0.0, f64::max);
        assert!(
            best >= 0.9,
            "stage spans cover at best {best:.3} of a step (per step: {coverage:.3?})"
        );
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
