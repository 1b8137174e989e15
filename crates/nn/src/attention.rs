//! Multi-head self-attention over a fixed, small number of tokens.
//!
//! # What is fused
//!
//! The four projections are packed GEMMs over the whole `[batch·tokens,
//! dim]` matrix. Everything between them — scores, softmax, the weighted
//! sum over values, and their gradients — is one pass per direction that
//! reads each head's `Q`/`K`/`V` rows **where the projections left them**
//! (`row(base + i)[off..off + dh]`) and writes `attn`/`merged` (forward) or
//! `dq`/`dk`/`dv` (backward) directly: no per-head operand copies, no
//! transposed `K`, no scatter, no zero fill (every output element is
//! assigned before it is accumulated into). With `tokens` in the single
//! digits a per-head product is a few hundred multiply-adds, far below what
//! a packed GEMM call amortises; the `t × t` scores are
//! [`ppgnn_tensor::lanes::dot`] products instead.
//!
//! # Determinism
//!
//! Both core passes run on the fixed-grain row-block splitter
//! ([`ppgnn_tensor::pool::row_blocked`]) over blocks of
//! [`ppgnn_tensor::pool::ROW_BLOCK`] examples; an example's result depends
//! on nothing outside the example, so — like the GEMMs around them — they
//! are bit-identical serial and pooled, at every pool width.
//!
//! # What is retained
//!
//! The training cache (`x`, `q`, `k`, `v`, `attn`, `merged`) ping-pongs
//! between `cache` and `cache_scratch`; the backward work buffers
//! (`d_merged`, `d_scores`, `dq`, `dk`, `dv`, the `dim × dim` weight-grad
//! product and the `∂x` addend) live in the module, and the input gradient
//! goes into the caller's slot: a steady-state step allocates nothing.

use ppgnn_tensor::pool::{row_blocked, BlockOut};
use ppgnn_tensor::{init, lanes, matmul_into, matmul_nt_into, matmul_tn_into, Matrix};
use rand::Rng;

use crate::{Mode, Module, Param};

/// Multi-head self-attention over a fixed number of tokens per example.
///
/// HOGA (Deng et al. 2024) treats the `R + 1` hop-feature vectors of a node
/// as tokens and applies one attention layer across them. The input is the
/// flattened `[batch * tokens, dim]` matrix; attention is computed
/// independently per example over its `tokens` consecutive rows.
///
/// Projections `W_q`, `W_k`, `W_v`, `W_o` are bias-free `dim x dim`
/// matrices split into `heads` equal slices. See the module docs for what
/// the passes between the projections fuse and retain.
#[derive(Debug)]
pub struct MultiHeadAttention {
    tokens: usize,
    heads: usize,
    dim: usize,
    wq: Param,
    wk: Param,
    wv: Param,
    wo: Param,
    cache: Option<AttnCache>,
    cache_scratch: Option<AttnCache>,
    work: BackwardWork,
}

#[derive(Debug, Default)]
struct AttnCache {
    x: Matrix,
    q: Matrix,
    k: Matrix,
    v: Matrix,
    /// Attention weights, stored as `batch * heads * tokens` rows of
    /// `tokens` columns.
    attn: Matrix,
    /// Concatenated per-head outputs before the output projection.
    merged: Matrix,
}

/// Buffers `backward` fills and reads within one call, kept across calls.
#[derive(Debug, Default)]
struct BackwardWork {
    d_merged: Matrix,
    /// Score gradients (`∂S`, scaled), laid out like `AttnCache::attn`.
    d_scores: Matrix,
    dq: Matrix,
    dk: Matrix,
    dv: Matrix,
    /// One `dim x dim` weight-gradient product at a time.
    gw: Matrix,
    /// The `∂k`/`∂v` terms of the input gradient, added into the result.
    gx_term: Matrix,
}

/// The per-example geometry both core passes share.
#[derive(Debug, Clone, Copy)]
struct CoreShape {
    tokens: usize,
    heads: usize,
    dim: usize,
}

impl CoreShape {
    fn head_dim(&self) -> usize {
        self.dim / self.heads
    }

    fn scale(&self) -> f32 {
        1.0 / (self.head_dim() as f32).sqrt()
    }

    /// Head `head`'s slice of token `row` of a `[batch·tokens, dim]` buffer.
    fn head_of<'a>(&self, m: &'a [f32], row: usize, head: usize) -> &'a [f32] {
        let dh = self.head_dim();
        &m[row * self.dim + head * dh..][..dh]
    }

    /// [`CoreShape::head_of`], mutably.
    fn head_of_mut<'a>(&self, m: &'a mut [f32], row: usize, head: usize) -> &'a mut [f32] {
        let dh = self.head_dim();
        &mut m[row * self.dim + head * dh..][..dh]
    }
}

/// `out = w · x` when `first`, else `out += w · x`.
#[inline(always)]
fn accumulate(out: &mut [f32], w: f32, x: &[f32], first: bool) {
    if first {
        for (o, &v) in out.iter_mut().zip(x) {
            *o = w * v;
        }
    } else {
        for (o, &v) in out.iter_mut().zip(x) {
            *o += w * v;
        }
    }
}

/// Forward core for the examples of one block: `attn` and `merged` are the
/// block's rows, `q`/`k`/`v` the whole projections, `ex0` the block's first
/// example.
fn attn_core_fwd(
    s: CoreShape,
    (q, k, v): (&[f32], &[f32], &[f32]),
    ex0: usize,
    attn: &mut [f32],
    merged: &mut [f32],
) {
    let (t, scale) = (s.tokens, s.scale());
    let per_example = attn.chunks_exact_mut(s.heads * t * t);
    for (e, (a_ex, m_ex)) in per_example
        .zip(merged.chunks_exact_mut(t * s.dim))
        .enumerate()
    {
        let base = (ex0 + e) * t;
        for (head, a_head) in a_ex.chunks_exact_mut(t * t).enumerate() {
            for (i, a_row) in a_head.chunks_exact_mut(t).enumerate() {
                let qi = s.head_of(q, base + i, head);
                // scaled scores, then a stable softmax in place
                let mut max = f32::NEG_INFINITY;
                for (j, a) in a_row.iter_mut().enumerate() {
                    *a = lanes::dot(qi, s.head_of(k, base + j, head)) * scale;
                    max = max.max(*a);
                }
                let mut sum = 0.0;
                for a in a_row.iter_mut() {
                    *a = (*a - max).exp();
                    sum += *a;
                }
                let inv = 1.0 / sum;
                let out = s.head_of_mut(m_ex, i, head);
                for (j, a) in a_row.iter_mut().enumerate() {
                    *a *= inv;
                    accumulate(out, *a, s.head_of(v, base + j, head), j == 0);
                }
            }
        }
    }
}

/// Backward core for the examples of one block: from `d_merged` and the
/// cached `attn`/`q`/`k`/`v` (whole buffers) to the block's rows of
/// `dq`/`dk`/`dv`, through the block's rows of the `d_scores` scratch.
fn attn_core_bwd(
    s: CoreShape,
    (d_merged, attn, q, k, v): (&[f32], &[f32], &[f32], &[f32], &[f32]),
    ex0: usize,
    [ds, dq, dk, dv]: [&mut [f32]; 4],
) {
    let (t, h, scale) = (s.tokens, s.heads, s.scale());
    for (e, ds_ex) in ds.chunks_exact_mut(h * t * t).enumerate() {
        let base = (ex0 + e) * t;
        for (head, ds_head) in ds_ex.chunks_exact_mut(t * t).enumerate() {
            let a_head = &attn[((ex0 + e) * h + head) * t * t..][..t * t];
            // ∂A[i][j] = ∂merged[i]·V[j], then softmax backward per row:
            // ∂S = A ⊙ (∂A − Σ_j ∂A⊙A), scaled once here.
            for (i, (ds_row, a_row)) in ds_head
                .chunks_exact_mut(t)
                .zip(a_head.chunks_exact(t))
                .enumerate()
            {
                let dm = s.head_of(d_merged, base + i, head);
                let mut inner = 0.0;
                for (j, (d, &a)) in ds_row.iter_mut().zip(a_row).enumerate() {
                    *d = lanes::dot(dm, s.head_of(v, base + j, head));
                    inner += *d * a;
                }
                for (d, &a) in ds_row.iter_mut().zip(a_row) {
                    *d = a * (*d - inner) * scale;
                }
            }
            // ∂Q[i] = Σ_j ∂S[i][j] K[j];  ∂K[j] = Σ_i ∂S[i][j] Q[i];
            // ∂V[j] = Σ_i A[i][j] ∂merged[i].
            for r in 0..t {
                let dq_r = s.head_of_mut(dq, e * t + r, head);
                for c in 0..t {
                    accumulate(
                        dq_r,
                        ds_head[r * t + c],
                        s.head_of(k, base + c, head),
                        c == 0,
                    );
                }
                let dk_r = s.head_of_mut(dk, e * t + r, head);
                for c in 0..t {
                    accumulate(
                        dk_r,
                        ds_head[c * t + r],
                        s.head_of(q, base + c, head),
                        c == 0,
                    );
                }
                let dv_r = s.head_of_mut(dv, e * t + r, head);
                for c in 0..t {
                    accumulate(
                        dv_r,
                        a_head[c * t + r],
                        s.head_of(d_merged, base + c, head),
                        c == 0,
                    );
                }
            }
        }
    }
}

impl MultiHeadAttention {
    /// Creates an attention layer for `tokens` tokens of `dim` features with
    /// `heads` heads.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is not divisible by `heads` or any argument is zero.
    pub fn new(tokens: usize, dim: usize, heads: usize, rng: &mut impl Rng) -> Self {
        assert!(
            tokens > 0 && dim > 0 && heads > 0,
            "attention dims must be positive"
        );
        assert_eq!(
            dim % heads,
            0,
            "dim {dim} must be divisible by heads {heads}"
        );
        MultiHeadAttention {
            tokens,
            heads,
            dim,
            wq: Param::new(init::xavier_uniform(dim, dim, rng)),
            wk: Param::new(init::xavier_uniform(dim, dim, rng)),
            wv: Param::new(init::xavier_uniform(dim, dim, rng)),
            wo: Param::new(init::xavier_uniform(dim, dim, rng)),
            cache: None,
            cache_scratch: None,
            work: BackwardWork::default(),
        }
    }

    /// Tokens per example.
    pub fn tokens(&self) -> usize {
        self.tokens
    }

    /// Number of heads.
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// Model dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    fn batch_of(&self, x: &Matrix) -> usize {
        assert_eq!(x.cols(), self.dim, "attention input dim mismatch");
        assert_eq!(
            x.rows() % self.tokens,
            0,
            "attention input rows {} not a multiple of tokens {}",
            x.rows(),
            self.tokens
        );
        x.rows() / self.tokens
    }

    fn core_shape(&self) -> CoreShape {
        CoreShape {
            tokens: self.tokens,
            heads: self.heads,
            dim: self.dim,
        }
    }
}

impl Module for MultiHeadAttention {
    fn forward_into(&mut self, x: &Matrix, mode: Mode, out: &mut Matrix) {
        let b = self.batch_of(x);
        let (t, h, rows) = (self.tokens, self.heads, x.rows());
        let shape = self.core_shape();

        let mut cb = self.cache_scratch.take().unwrap_or_default();
        {
            let _span = ppgnn_telemetry::span("attn.qkv");
            for (w, dst) in [
                (&self.wq, &mut cb.q),
                (&self.wk, &mut cb.k),
                (&self.wv, &mut cb.v),
            ] {
                dst.resize_to(rows, self.dim);
                matmul_into(x, &w.value, dst);
            }
            if mode == Mode::Train {
                cb.x.resize_to(rows, self.dim);
                cb.x.copy_from(x);
            }
        }
        {
            let _span = ppgnn_telemetry::span("attn.core");
            cb.attn.resize_to(b * h * t, t);
            cb.merged.resize_to(rows, self.dim);
            let qkv = (cb.q.as_slice(), cb.k.as_slice(), cb.v.as_slice());
            let outs = [
                BlockOut::rows(cb.attn.as_mut_slice(), h * t * t),
                BlockOut::rows(cb.merged.as_mut_slice(), t * self.dim),
            ];
            row_blocked(b, 4 * x.len(), outs, |_, ex0, [attn, merged]| {
                attn_core_fwd(shape, qkv, ex0, attn, merged)
            });
        }
        let _span = ppgnn_telemetry::span("attn.out");
        out.resize_to(rows, self.dim);
        matmul_into(&cb.merged, &self.wo.value, out);
        if mode == Mode::Train {
            self.cache = Some(cb);
        } else {
            self.cache_scratch = Some(cb);
        }
    }

    fn backward_into(&mut self, grad_out: &Matrix, grad_in: &mut Matrix) {
        let cache = self
            .cache
            .take()
            .expect("MultiHeadAttention::backward called without a training-mode forward");
        let (rows, dim) = (cache.x.rows(), self.dim);
        assert_eq!(grad_out.shape(), (rows, dim), "grad_out shape mismatch");
        let (b, t, h) = (rows / self.tokens, self.tokens, self.heads);
        let shape = self.core_shape();
        let w = &mut self.work;
        w.gw.resize_to(dim, dim);

        {
            let _span = ppgnn_telemetry::span("attn.out.bwd");
            matmul_tn_into(&cache.merged, grad_out, &mut w.gw);
            self.wo.grad.add_assign(&w.gw);
            w.d_merged.resize_to(rows, dim);
            matmul_nt_into(grad_out, &self.wo.value, &mut w.d_merged);
        }
        {
            let _span = ppgnn_telemetry::span("attn.core.bwd");
            w.d_scores.resize_to(b * h * t, t);
            for m in [&mut w.dq, &mut w.dk, &mut w.dv] {
                m.resize_to(rows, dim);
            }
            let (c, d_merged) = (&cache, w.d_merged.as_slice());
            let inputs = (
                d_merged,
                c.attn.as_slice(),
                c.q.as_slice(),
                c.k.as_slice(),
                c.v.as_slice(),
            );
            let outs = [
                BlockOut::rows(w.d_scores.as_mut_slice(), h * t * t),
                BlockOut::rows(w.dq.as_mut_slice(), t * dim),
                BlockOut::rows(w.dk.as_mut_slice(), t * dim),
                BlockOut::rows(w.dv.as_mut_slice(), t * dim),
            ];
            row_blocked(b, 7 * rows * dim, outs, |_, ex0, outs| {
                attn_core_bwd(shape, inputs, ex0, outs)
            });
        }
        let _span = ppgnn_telemetry::span("attn.qkv.bwd");
        let gx = grad_in;
        gx.resize_to(rows, dim);
        matmul_nt_into(&w.dq, &self.wq.value, gx);
        w.gx_term.resize_to(rows, dim);
        for (param, d) in [(&self.wk, &w.dk), (&self.wv, &w.dv)] {
            matmul_nt_into(d, &param.value, &mut w.gx_term);
            gx.add_assign(&w.gx_term);
        }
        for (param, d) in [
            (&mut self.wq, &w.dq),
            (&mut self.wk, &w.dk),
            (&mut self.wv, &w.dv),
        ] {
            matmul_tn_into(&cache.x, d, &mut w.gw);
            param.grad.add_assign(&w.gw);
        }
        self.cache_scratch = Some(cache);
    }

    fn params(&mut self) -> Vec<&mut Param> {
        vec![&mut self.wq, &mut self.wk, &mut self.wv, &mut self.wo]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shape_is_preserved() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut attn = MultiHeadAttention::new(4, 8, 2, &mut rng);
        let x = init::standard_normal(3 * 4, 8, &mut rng);
        let y = attn.forward(&x, Mode::Train);
        assert_eq!(y.shape(), (12, 8));
    }

    #[test]
    fn attention_rows_are_convex_combinations() {
        // With Wv = Wo = I and attention weights summing to 1, each output
        // token lies in the convex hull of the value tokens; with a constant
        // value signal the output is exactly that constant.
        let mut rng = StdRng::seed_from_u64(1);
        let mut attn = MultiHeadAttention::new(3, 4, 1, &mut rng);
        attn.wv.value = Matrix::eye(4);
        attn.wo.value = Matrix::eye(4);
        let x = Matrix::full(3, 4, 2.0); // one example, all tokens identical
        let y = attn.forward(&x, Mode::Eval);
        assert!(y.max_abs_diff(&x) < 1e-5);
    }

    #[test]
    fn examples_do_not_attend_across_each_other() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut attn = MultiHeadAttention::new(2, 4, 2, &mut rng);
        let a = init::standard_normal(2, 4, &mut rng);
        let b = init::standard_normal(2, 4, &mut rng);
        let ab = Matrix::vstack(&[&a, &b]);
        let ya = attn.forward(&a, Mode::Eval);
        let yab = attn.forward(&ab, Mode::Eval);
        assert!(yab.slice_rows(0, 2).max_abs_diff(&ya) < 1e-5);
        // changing example b must not affect example a's output
        let b2 = init::standard_normal(2, 4, &mut rng);
        let ab2 = Matrix::vstack(&[&a, &b2]);
        let yab2 = attn.forward(&ab2, Mode::Eval);
        assert!(yab2.slice_rows(0, 2).max_abs_diff(&yab.slice_rows(0, 2)) < 1e-5);
    }

    /// Forward output, `[∂Wq, ∂Wk, ∂Wv, ∂Wo]` and `∂x` by the per-head loops
    /// the fused core replaced, kept as its oracle: scores and context one
    /// `(example, head)` at a time with serial sums, and the scalar
    /// backward verbatim.
    fn per_head_oracle(
        m: &MultiHeadAttention,
        x: &Matrix,
        grad_out: &Matrix,
    ) -> (Matrix, [Matrix; 4], Matrix) {
        use ppgnn_tensor::{matmul, matmul_nt, matmul_tn};
        let (t, h, dh) = (m.tokens, m.heads, m.dim / m.heads);
        let b = x.rows() / t;
        let scale = 1.0 / (dh as f32).sqrt();
        let (q, k, v) = (
            matmul(x, &m.wq.value),
            matmul(x, &m.wk.value),
            matmul(x, &m.wv.value),
        );
        let mut attn = Matrix::zeros(b * h * t, t);
        let mut merged = Matrix::zeros(b * t, m.dim);
        for n in 0..b {
            let base = n * t;
            for head in 0..h {
                let off = head * dh;
                for i in 0..t {
                    let a_row = attn.row_mut((n * h + head) * t + i);
                    for (j, a) in a_row.iter_mut().enumerate() {
                        let (qi, kj) = (
                            &q.row(base + i)[off..off + dh],
                            &k.row(base + j)[off..off + dh],
                        );
                        *a = qi.iter().zip(kj).map(|(a, b)| a * b).sum::<f32>() * scale;
                    }
                    let max = a_row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                    a_row.iter_mut().for_each(|a| *a = (*a - max).exp());
                    let sum: f32 = a_row.iter().sum();
                    a_row.iter_mut().for_each(|a| *a /= sum);
                    for j in 0..t {
                        let a = attn.get((n * h + head) * t + i, j);
                        for d in off..off + dh {
                            let cur = merged.get(base + i, d);
                            merged.set(base + i, d, cur + a * v.get(base + j, d));
                        }
                    }
                }
            }
        }
        let y = matmul(&merged, &m.wo.value);

        let gwo = matmul_tn(&merged, grad_out);
        let d_merged = matmul_nt(grad_out, &m.wo.value);
        let mut dq = Matrix::zeros(x.rows(), m.dim);
        let mut dk = Matrix::zeros(x.rows(), m.dim);
        let mut dv = Matrix::zeros(x.rows(), m.dim);
        for n in 0..b {
            let base = n * t;
            for head in 0..h {
                let off = head * dh;
                // dV[j] += Σ_i A[i][j] * dMerged[i]; dA[i][j] = dMerged[i]·V[j]
                let mut d_attn = vec![0.0f32; t * t];
                for i in 0..t {
                    let a_row = attn.row((n * h + head) * t + i);
                    let dm_row = &d_merged.row(base + i)[off..off + dh];
                    for j in 0..t {
                        let v_row = &v.row(base + j)[off..off + dh];
                        let mut dot = 0.0;
                        for (dm, vv) in dm_row.iter().zip(v_row) {
                            dot += dm * vv;
                        }
                        d_attn[i * t + j] = dot;
                        let dv_row = &mut dv.row_mut(base + j)[off..off + dh];
                        let aij = a_row[j];
                        for (dvv, dm) in dv_row.iter_mut().zip(dm_row) {
                            *dvv += aij * dm;
                        }
                    }
                }
                // softmax backward per row: dS = A ⊙ (dA − Σ_j dA⊙A)
                for i in 0..t {
                    let a_row = attn.row((n * h + head) * t + i);
                    let row = &mut d_attn[i * t..(i + 1) * t];
                    let dot: f32 = row.iter().zip(a_row).map(|(d, a)| d * a).sum();
                    for (d, &a) in row.iter_mut().zip(a_row) {
                        *d = a * (*d - dot);
                    }
                }
                // dQ[i] += scale * Σ_j dS[i][j] K[j];  dK[j] += scale * Σ_i dS[i][j] Q[i]
                for i in 0..t {
                    let dq_row = &mut dq.row_mut(base + i)[off..off + dh];
                    for j in 0..t {
                        let ds = d_attn[i * t + j] * scale;
                        let k_row = &k.row(base + j)[off..off + dh];
                        for (dqv, kv) in dq_row.iter_mut().zip(k_row) {
                            *dqv += ds * kv;
                        }
                    }
                }
                for j in 0..t {
                    let dk_row = &mut dk.row_mut(base + j)[off..off + dh];
                    for i in 0..t {
                        let ds = d_attn[i * t + j] * scale;
                        let q_row = &q.row(base + i)[off..off + dh];
                        for (dkv, qv) in dk_row.iter_mut().zip(q_row) {
                            *dkv += ds * qv;
                        }
                    }
                }
            }
        }
        let grads = [matmul_tn(x, &dq), matmul_tn(x, &dk), matmul_tn(x, &dv), gwo];
        let mut gx = matmul_nt(&dq, &m.wq.value);
        gx.add_assign(&matmul_nt(&dk, &m.wk.value));
        gx.add_assign(&matmul_nt(&dv, &m.wv.value));
        (y, grads, gx)
    }

    /// `max |a − b|` relative to the oracle's largest magnitude (at least 1).
    fn rel_diff(got: &Matrix, oracle: &Matrix) -> f32 {
        let scale = oracle.as_slice().iter().fold(1.0f32, |m, v| m.max(v.abs()));
        got.max_abs_diff(oracle) / scale
    }

    #[test]
    fn fused_core_matches_the_per_head_oracle() {
        // Every token count × head width (lane tails at dh % 8 ≠ 0) × head
        // count × batch on, around and between the row-block boundaries.
        let mut rng = StdRng::seed_from_u64(40);
        for tokens in [1, 2, 4, 7] {
            for dh in [1, 5, 8, 12, 32] {
                for heads in [1, 4] {
                    let mut attn = MultiHeadAttention::new(tokens, dh * heads, heads, &mut rng);
                    for b in [1, 63, 64, 65, 200] {
                        let x = init::standard_normal(b * tokens, dh * heads, &mut rng);
                        let g = init::standard_normal(b * tokens, dh * heads, &mut rng);
                        let (y0, grads0, gx0) = per_head_oracle(&attn, &x, &g);
                        let y = attn.forward(&x, Mode::Train);
                        attn.zero_grad();
                        let gx = attn.backward(&g);
                        let what = format!("t {tokens} dh {dh} heads {heads} b {b}");
                        assert!(rel_diff(&y, &y0) < 1e-5, "{what}: forward");
                        assert!(rel_diff(&gx, &gx0) < 1e-5, "{what}: ∂x");
                        for (i, (p, g0)) in attn.params().iter().zip(&grads0).enumerate() {
                            assert!(rel_diff(&p.grad, g0) < 1e-5, "{what}: weight grad {i}");
                        }
                    }
                }
            }
        }
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn serial_and_pooled_passes_are_bit_identical() {
        // 200 examples: four row blocks, the last short.
        let _guard = crate::TEST_THRESHOLD_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let mut rng = StdRng::seed_from_u64(41);
        let mut attn = MultiHeadAttention::new(4, 24, 2, &mut rng);
        let x = init::standard_normal(200 * 4, 24, &mut rng);
        let g = init::standard_normal(200 * 4, 24, &mut rng);
        let mut run = |threshold| {
            ppgnn_tensor::set_parallel_threshold(threshold);
            let y = attn.forward(&x, Mode::Train);
            attn.zero_grad();
            let gx = attn.backward(&g);
            let mut all = vec![bits(&y), bits(&gx)];
            all.extend(attn.params().iter().map(|p| bits(&p.grad)));
            all
        };
        let (serial, pooled) = (run(usize::MAX), run(0));
        ppgnn_tensor::set_parallel_threshold(ppgnn_tensor::pool::DEFAULT_PARALLEL_THRESHOLD);
        assert_eq!(serial, pooled);
    }

    #[test]
    #[should_panic(expected = "not a multiple of tokens")]
    fn ragged_batch_is_rejected() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut attn = MultiHeadAttention::new(3, 4, 1, &mut rng);
        attn.forward(&Matrix::zeros(4, 4), Mode::Eval);
    }

    #[test]
    #[should_panic(expected = "divisible by heads")]
    fn indivisible_heads_rejected() {
        let mut rng = StdRng::seed_from_u64(4);
        MultiHeadAttention::new(2, 6, 4, &mut rng);
    }

    #[test]
    fn params_exposes_four_projections() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut attn = MultiHeadAttention::new(2, 4, 2, &mut rng);
        assert_eq!(attn.params().len(), 4);
        assert_eq!(attn.num_params(), 4 * 16);
    }
}
