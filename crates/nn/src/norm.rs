use ppgnn_tensor::pool::{add_partials, row_block_count, row_blocked, BlockOut};
use ppgnn_tensor::{lanes, Matrix};

use crate::{Mode, Module, Param};

/// Layer normalization over the feature dimension with learnable scale and
/// shift (`γ`, `β`), as used inside HOGA's attention block.
///
/// **One sweep each way.** The forward computes a row's statistics,
/// normalizes it and applies the affine map while the row is in cache; the
/// backward forms `∂x` and the row's contribution to `∂γ`/`∂β` the same
/// way. Row statistics are [`ppgnn_tensor::lanes`] reductions.
///
/// **Determinism.** Both sweeps run on the fixed-grain row-block splitter
/// ([`ppgnn_tensor::pool::row_blocked`]). `∂γ`/`∂β` sum over rows: each
/// block of [`ppgnn_tensor::pool::ROW_BLOCK`] rows accumulates one partial
/// row, and the partials are added into the gradients in block order on the
/// calling thread — so every result is bit-identical serial and pooled, at
/// every pool width.
///
/// **Retained.** The normalized-input cache ping-pongs between `cache`
/// (armed by a training forward) and `cache_scratch` (handed back by
/// `backward` or an eval forward), and the partial rows are kept, so
/// steady-state forwards reuse one buffer set and a backward allocates
/// only the input gradient it returns.
#[derive(Debug)]
pub struct LayerNorm {
    gamma: Param,
    beta: Param,
    eps: f32,
    cache: Option<LnCache>,
    cache_scratch: Option<LnCache>,
    /// One `∂γ` partial row per row block of the last backward, then one
    /// `∂β` partial row per block.
    partials: Vec<f32>,
}

#[derive(Debug, Default)]
struct LnCache {
    normalized: Matrix,
    inv_std: Vec<f32>,
}

impl LayerNorm {
    /// Creates a layer-norm over `dim` features (`γ = 1`, `β = 0`,
    /// `ε = 1e-5`).
    pub fn new(dim: usize) -> Self {
        LayerNorm {
            gamma: Param::new(Matrix::full(1, dim, 1.0)),
            beta: Param::new(Matrix::zeros(1, dim)),
            eps: 1e-5,
            cache: None,
            cache_scratch: None,
            partials: Vec::new(),
        }
    }

    /// Normalized feature dimension.
    pub fn dim(&self) -> usize {
        self.gamma.value.cols()
    }
}

/// Forward sweep over one block of rows: `x` → statistics → `normalized`,
/// `inv_std` → `out = normalized ⊙ γ + β`.
fn layer_norm_fwd(
    x: &[f32],
    (gamma, beta, eps): (&[f32], &[f32], f32),
    [out, normalized, inv_std]: [&mut [f32]; 3],
) {
    let d = gamma.len();
    let rows = x.chunks_exact(d).zip(out.chunks_exact_mut(d));
    for ((row, o), (nx, istd)) in rows.zip(normalized.chunks_exact_mut(d).zip(inv_std)) {
        let mean = lanes::sum(row) / d as f32;
        for (n, &v) in nx.iter_mut().zip(row) {
            *n = v - mean;
        }
        *istd = 1.0 / (lanes::dot(nx, nx) / d as f32 + eps).sqrt();
        for (((o, n), &g), &b) in o.iter_mut().zip(nx.iter_mut()).zip(gamma).zip(beta) {
            *n *= *istd;
            *o = *n * g + b;
        }
    }
}

/// Backward sweep over one block of rows: the block's `∂γ`/`∂β` partial
/// rows and `∂x = istd/d · (d·h − Σh − x̂·Σ(h⊙x̂))`, where `h = g ⊙ γ`.
fn layer_norm_bwd(
    (grad_out, normalized, inv_std, gamma): (&[f32], &[f32], &[f32], &[f32]),
    [gx, pgamma, pbeta]: [&mut [f32]; 3],
) {
    let d = gamma.len();
    pgamma.fill(0.0);
    pbeta.fill(0.0);
    let rows = grad_out.chunks_exact(d).zip(normalized.chunks_exact(d));
    for ((g, nx), (gx, &istd)) in rows.zip(gx.chunks_exact_mut(d).zip(inv_std)) {
        for k in 0..d {
            gx[k] = g[k] * gamma[k];
            pgamma[k] += g[k] * nx[k];
            pbeta[k] += g[k];
        }
        let (sum_h, sum_hx) = (lanes::sum(gx), lanes::dot(gx, nx));
        let c = istd / d as f32;
        for (h, &n) in gx.iter_mut().zip(nx) {
            *h = c * (d as f32 * *h - sum_h - n * sum_hx);
        }
    }
}

impl Module for LayerNorm {
    fn forward(&mut self, x: &Matrix, mode: Mode) -> Matrix {
        let mut y = Matrix::default();
        self.forward_into(x, mode, &mut y);
        y
    }

    fn forward_into(&mut self, x: &Matrix, mode: Mode, out: &mut Matrix) {
        assert_eq!(x.cols(), self.dim(), "LayerNorm dim mismatch");
        let (rows, d) = x.shape();
        let mut cache = self.cache_scratch.take().unwrap_or_default();
        cache.normalized.resize_to(rows, d);
        cache.inv_std.resize(rows, 0.0);
        out.resize_to(rows, d);
        let params = (self.gamma.value.row(0), self.beta.value.row(0), self.eps);
        let src = x.as_slice();
        let outs = [
            BlockOut::rows(out.as_mut_slice(), d),
            BlockOut::rows(cache.normalized.as_mut_slice(), d),
            BlockOut::rows(&mut cache.inv_std, 1),
        ];
        row_blocked(rows, 3 * src.len(), outs, |_, row0, outs| {
            let block = &src[row0 * d..][..outs[0].len()];
            layer_norm_fwd(block, params, outs)
        });
        if mode == Mode::Train {
            self.cache = Some(cache);
        } else {
            self.cache_scratch = Some(cache);
        }
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let cache = self
            .cache
            .take()
            .expect("LayerNorm::backward called without a training-mode forward");
        assert_eq!(
            grad_out.shape(),
            cache.normalized.shape(),
            "grad_out shape mismatch"
        );
        let (rows, d) = grad_out.shape();
        // ppgnn-analyze: allow(hot_path_alloc) -- by-value gradient result.
        let mut gx = Matrix::zeros(rows, d);
        let per_param = row_block_count(rows) * d;
        self.partials.resize(2 * per_param, 0.0);
        let (pgamma, pbeta) = self.partials.split_at_mut(per_param);
        let (g, nx, istd) = (
            grad_out.as_slice(),
            cache.normalized.as_slice(),
            &cache.inv_std,
        );
        let gamma = self.gamma.value.row(0);
        let outs = [
            BlockOut::rows(gx.as_mut_slice(), d),
            BlockOut::partial(pgamma, d),
            BlockOut::partial(pbeta, d),
        ];
        row_blocked(rows, 3 * g.len(), outs, |_, row0, outs| {
            let (at, len) = (row0 * d, outs[0].len());
            let inputs = (&g[at..][..len], &nx[at..][..len], &istd[row0..], gamma);
            layer_norm_bwd(inputs, outs)
        });
        // ∂γ = Σ_rows g ⊙ x̂ ; ∂β = Σ_rows g.
        add_partials(self.gamma.grad.row_mut(0), pgamma);
        add_partials(self.beta.grad.row_mut(0), pbeta);
        self.cache_scratch = Some(cache);
        gx
    }

    fn params(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }
}

/// Batch normalization over the batch dimension with running statistics,
/// matching `torch.nn.BatchNorm1d` semantics (SIGN's MLP head uses it).
#[derive(Debug)]
pub struct BatchNorm1d {
    gamma: Param,
    beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    momentum: f32,
    eps: f32,
    cache: Option<BnCache>,
    cache_scratch: Option<BnCache>,
    /// Reusable per-feature batch-mean / batch-variance accumulators.
    mean_scratch: Vec<f32>,
    var_scratch: Vec<f32>,
}

#[derive(Debug, Default)]
struct BnCache {
    normalized: Matrix,
    inv_std: Vec<f32>,
    /// `false` when a size-1 training batch fell back to running statistics,
    /// in which case backward treats mean/var as constants.
    used_batch_stats: bool,
}

impl BatchNorm1d {
    /// Creates a batch-norm over `dim` features (momentum `0.1`, `ε = 1e-5`).
    pub fn new(dim: usize) -> Self {
        BatchNorm1d {
            gamma: Param::new(Matrix::full(1, dim, 1.0)),
            beta: Param::new(Matrix::zeros(1, dim)),
            running_mean: vec![0.0; dim],
            running_var: vec![1.0; dim],
            momentum: 0.1,
            eps: 1e-5,
            cache: None,
            cache_scratch: None,
            mean_scratch: Vec::new(),
            var_scratch: Vec::new(),
        }
    }

    /// Normalized feature dimension.
    pub fn dim(&self) -> usize {
        self.gamma.value.cols()
    }
}

impl Module for BatchNorm1d {
    fn forward(&mut self, x: &Matrix, mode: Mode) -> Matrix {
        let mut y = Matrix::default();
        self.forward_into(x, mode, &mut y);
        y
    }

    fn forward_into(&mut self, x: &Matrix, mode: Mode, out: &mut Matrix) {
        assert_eq!(x.cols(), self.dim(), "BatchNorm1d dim mismatch");
        let (n, d) = x.shape();
        out.resize_to(n, d);
        let mut cache = self.cache_scratch.take().unwrap_or_default();
        cache.normalized.resize_to(n, d);
        cache.inv_std.clear();

        if mode == Mode::Eval || n <= 1 {
            cache.inv_std.extend(
                self.running_var
                    .iter()
                    .map(|&v| 1.0 / (v + self.eps).sqrt()),
            );
            for r in 0..n {
                for (k, o) in cache.normalized.row_mut(r).iter_mut().enumerate() {
                    *o = (x.get(r, k) - self.running_mean[k]) * cache.inv_std[k];
                }
            }
            let gamma = self.gamma.value.row(0);
            let beta = self.beta.value.row(0);
            for r in 0..n {
                for (((o, &nx), &g), &b) in out
                    .row_mut(r)
                    .iter_mut()
                    .zip(cache.normalized.row(r))
                    .zip(gamma)
                    .zip(beta)
                {
                    *o = nx * g + b;
                }
            }
            if mode == Mode::Train {
                cache.used_batch_stats = false;
                self.cache = Some(cache);
            } else {
                self.cache_scratch = Some(cache);
            }
            return;
        }

        // Batch statistics per feature column, accumulated into the
        // retained scratch vectors.
        let mut mean = std::mem::take(&mut self.mean_scratch);
        mean.clear();
        mean.resize(d, 0.0);
        for r in 0..n {
            for (m, &v) in mean.iter_mut().zip(x.row(r)) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= n as f32;
        }
        let mut var = std::mem::take(&mut self.var_scratch);
        var.clear();
        var.resize(d, 0.0);
        for r in 0..n {
            for ((vv, &v), &m) in var.iter_mut().zip(x.row(r)).zip(&mean) {
                *vv += (v - m).powi(2);
            }
        }
        for v in &mut var {
            *v /= n as f32;
        }
        for k in 0..d {
            self.running_mean[k] =
                (1.0 - self.momentum) * self.running_mean[k] + self.momentum * mean[k];
            self.running_var[k] =
                (1.0 - self.momentum) * self.running_var[k] + self.momentum * var[k];
        }

        cache
            .inv_std
            .extend(var.iter().map(|&v| 1.0 / (v + self.eps).sqrt()));
        for r in 0..n {
            for (k, o) in cache.normalized.row_mut(r).iter_mut().enumerate() {
                *o = (x.get(r, k) - mean[k]) * cache.inv_std[k];
            }
        }
        let gamma = self.gamma.value.row(0);
        let beta = self.beta.value.row(0);
        for r in 0..n {
            for (((o, &nx), &g), &b) in out
                .row_mut(r)
                .iter_mut()
                .zip(cache.normalized.row(r))
                .zip(gamma)
                .zip(beta)
            {
                *o = nx * g + b;
            }
        }
        self.mean_scratch = mean;
        self.var_scratch = var;
        cache.used_batch_stats = true;
        self.cache = Some(cache);
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let BnCache {
            normalized,
            inv_std,
            used_batch_stats,
        } = self
            .cache
            .take()
            .expect("BatchNorm1d::backward called without a training-mode forward");
        assert_eq!(
            grad_out.shape(),
            normalized.shape(),
            "grad_out shape mismatch"
        );
        let (n, d) = normalized.shape();
        // Disjoint-field borrow, as in LayerNorm::backward above.
        let gamma = self.gamma.value.row(0);

        // ppgnn-analyze: allow(hot_path_alloc) -- d-length reduction
        // buffers for the column sums.
        let mut sum_g = vec![0.0f32; d];
        // ppgnn-analyze: allow(hot_path_alloc) -- see above.
        let mut sum_gx = vec![0.0f32; d];
        for r in 0..n {
            for k in 0..d {
                let g = grad_out.get(r, k);
                sum_g[k] += g;
                sum_gx[k] += g * normalized.get(r, k);
            }
        }
        for k in 0..d {
            let gg = self.gamma.grad.get(0, k);
            self.gamma.grad.set(0, k, gg + sum_gx[k]);
            let gb = self.beta.grad.get(0, k);
            self.beta.grad.set(0, k, gb + sum_g[k]);
        }

        // ppgnn-analyze: allow(hot_path_alloc) -- by-value gradient result.
        let mut gx = Matrix::zeros(n, d);
        if !used_batch_stats {
            // Running statistics were constants in this forward.
            for r in 0..n {
                for k in 0..d {
                    gx.set(r, k, grad_out.get(r, k) * gamma[k] * inv_std[k]);
                }
            }
        } else {
            for r in 0..n {
                for k in 0..d {
                    let g = grad_out.get(r, k) * gamma[k];
                    let nx = normalized.get(r, k);
                    let val = inv_std[k] / n as f32
                        * (n as f32 * g - gamma[k] * sum_g[k] - nx * gamma[k] * sum_gx[k]);
                    gx.set(r, k, val);
                }
            }
        }
        self.cache_scratch = Some(BnCache {
            normalized,
            inv_std,
            used_batch_stats,
        });
        gx
    }

    fn params(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layernorm_output_rows_are_standardized() {
        let mut ln = LayerNorm::new(4);
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0], &[10.0, 10.0, 10.0, 30.0]]);
        let y = ln.forward(&x, Mode::Train);
        for r in 0..2 {
            let mean: f32 = y.row(r).iter().sum::<f32>() / 4.0;
            let var: f32 = y.row(r).iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5);
            assert!((var - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn layernorm_backward_is_zero_mean_per_row() {
        // The projection in LN backward makes row gradients sum to ~0 when
        // gamma is uniform.
        let mut ln = LayerNorm::new(3);
        let x = Matrix::from_rows(&[&[1.0, -2.0, 0.5]]);
        ln.forward(&x, Mode::Train);
        let gx = ln.backward(&Matrix::from_rows(&[&[0.3, -0.7, 1.1]]));
        let sum: f32 = gx.row(0).iter().sum();
        assert!(sum.abs() < 1e-5, "row-grad sum {sum}");
    }

    #[test]
    fn layernorm_serial_and_pooled_sweeps_are_bit_identical() {
        // 200 rows: four row blocks, the last short — ∂γ/∂β cross them.
        let _guard = crate::TEST_THRESHOLD_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let x = Matrix::from_fn(200, 24, |r, c| {
            ((r * 31 + c * 17) % 101) as f32 * 0.07 - 3.0
        });
        let g = Matrix::from_fn(200, 24, |r, c| ((r * 13 + c * 29) % 89) as f32 * 0.03 - 1.3);
        let mut ln = LayerNorm::new(24);
        ln.gamma.value = Matrix::from_fn(1, 24, |_, c| 0.5 + c as f32 * 0.1);
        let mut run = |threshold| {
            ppgnn_tensor::set_parallel_threshold(threshold);
            let y = ln.forward(&x, Mode::Train);
            ln.zero_grad();
            let gx = ln.backward(&g);
            [&y, &gx, &ln.gamma.grad, &ln.beta.grad]
                .map(|m| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>())
        };
        let (serial, pooled) = (run(usize::MAX), run(0));
        ppgnn_tensor::set_parallel_threshold(ppgnn_tensor::pool::DEFAULT_PARALLEL_THRESHOLD);
        assert_eq!(serial, pooled);
    }

    #[test]
    fn batchnorm_standardizes_columns_in_train() {
        let mut bn = BatchNorm1d::new(2);
        let x = Matrix::from_rows(&[&[1.0, 100.0], &[3.0, 300.0], &[5.0, 500.0]]);
        let y = bn.forward(&x, Mode::Train);
        for k in 0..2 {
            let col: Vec<f32> = (0..3).map(|r| y.get(r, k)).collect();
            let mean: f32 = col.iter().sum::<f32>() / 3.0;
            assert!(mean.abs() < 1e-5);
        }
    }

    #[test]
    fn batchnorm_eval_uses_running_stats() {
        let mut bn = BatchNorm1d::new(1);
        let x = Matrix::from_rows(&[&[2.0], &[4.0]]);
        for _ in 0..200 {
            bn.forward(&x, Mode::Train);
        }
        // running mean → 3, running var → 1; eval normalizes accordingly
        let y = bn.forward(&Matrix::from_rows(&[&[3.0]]), Mode::Eval);
        assert!(y.get(0, 0).abs() < 0.05, "got {}", y.get(0, 0));
    }

    #[test]
    fn single_row_batch_falls_back_to_running_stats() {
        let mut bn = BatchNorm1d::new(2);
        let y = bn.forward(&Matrix::from_rows(&[&[1.0, 2.0]]), Mode::Train);
        assert!(y.as_slice().iter().all(|v| v.is_finite()));
    }
}
