use ppgnn_nn::{Mode, Param};
use ppgnn_tensor::Matrix;

/// A pre-propagation GNN: a dense model over `R + 1` hop-feature matrices.
///
/// The training loop hands every model the same batch shape — a slice of
/// `num_hops() + 1` matrices, where entry `r` holds `B^r X` rows for the
/// batch nodes (`batch x feature_dim`) — and receives class logits.
///
/// **The `hops_read` contract.** A model declares the hops its forward
/// reads through [`PpModel::hops_read`]. A producer that was told what the
/// consumer reads (the loaders `Trainer::fit` builds, `evaluate`) moves
/// only those: entry `r` of the slice keeps its index, but **may arrive
/// as an empty `0 x 0` matrix** when `r` is not in `hops_read()`. A model
/// must therefore validate the slice length and the hops it declared —
/// never the ones it did not. Producers that were told nothing (a loader
/// built directly, the storage loader) deliver every hop, which satisfies
/// every model; the pipeline stays shared across SGC/SIGN/HOGA either way.
///
/// **Lent inputs.** A training step can run two ways. A caller that keeps
/// its batch calls [`PpModel::forward_into`] with [`Mode::Train`], and the
/// model copies what its backward needs. A caller that owns the batch and
/// is done with it after the step — `Trainer::fit` — *lends* the hops
/// instead: [`PpModel::forward_train`] may move out the matrices of the
/// hops it reads (leaving `0 x 0` in their place) and keep them as its
/// backward cache, and [`PpModel::return_inputs`] puts the same buffers
/// back after [`PpModel::backward`], so the loader can refill them. The
/// two ways compute the same bits. The defaults copy and return nothing;
/// SGC, SIGN and HOGA lend through [`ppgnn_nn::Linear::forward_lent`].
///
/// ```text
/// model.forward_train(&mut batch.hops, &mut logits);
/// model.backward(&grad);
/// model.return_inputs(&mut batch.hops);   // before the batch is reused
/// ```
pub trait PpModel {
    /// Computes logits `batch x num_classes` from hop features into a
    /// reusable slot (resized to the output shape and fully overwritten).
    ///
    /// The shipped models route their whole stack through
    /// [`ppgnn_nn::Module::forward_into`], so a training loop that passes
    /// the same slot every batch runs steady-state forwards without
    /// allocating.
    ///
    /// # Panics
    ///
    /// Panics if `hops.len() != num_hops() + 1` or the matrices this model
    /// reads disagree on row counts / feature dims.
    fn forward_into(&mut self, hops: &[Matrix], mode: Mode, out: &mut Matrix);

    /// Training-mode forward over **lent** hops: the same logits and the
    /// same backward as [`PpModel::forward_into`] with [`Mode::Train`],
    /// but the model may move the matrices of the hops it reads out of
    /// `hops` and cache them instead of copying. Pair every call with
    /// [`PpModel::return_inputs`] after the backward. Defaults to the
    /// copying forward.
    ///
    /// # Panics
    ///
    /// As [`PpModel::forward_into`].
    fn forward_train(&mut self, hops: &mut [Matrix], out: &mut Matrix) {
        self.forward_into(hops, Mode::Train, out);
    }

    /// Puts the hops [`PpModel::forward_train`] moved out back into
    /// `hops`, at their indices — the same buffers — once the backward
    /// has run. Entries the model did not take are left alone. Defaults
    /// to a no-op.
    fn return_inputs(&mut self, hops: &mut [Matrix]) {
        let _ = hops;
    }

    /// [`PpModel::forward_into`] into a freshly allocated matrix.
    ///
    /// # Panics
    ///
    /// As [`PpModel::forward_into`].
    fn forward(&mut self, hops: &[Matrix], mode: Mode) -> Matrix {
        let mut out = Matrix::default();
        self.forward_into(hops, mode, &mut out);
        out
    }

    /// Back-propagates the loss gradient; accumulates parameter gradients.
    /// (Input gradients are never formed — hop features are data, not
    /// parameters; the input layers run `Linear::backward_params`.)
    fn backward(&mut self, grad_out: &Matrix);

    /// Parameters in a stable order.
    fn params(&mut self) -> Vec<&mut Param>;

    /// Zeroes all parameter gradients.
    fn zero_grad(&mut self) {
        for p in self.params() {
            p.zero_grad();
        }
    }

    /// Number of propagation hops `R` (the model consumes `R + 1` inputs).
    fn num_hops(&self) -> usize;

    /// The hop indices `forward` reads, ascending and within `0..=R`.
    /// Everything else in the input slice is ignored and may arrive empty
    /// (see the trait docs). Defaults to every hop; SGC reads only hop `R`
    /// (Eq. 3's `δ_ir`).
    fn hops_read(&self) -> Vec<usize> {
        (0..=self.num_hops()).collect()
    }

    /// Stable display name.
    fn name(&self) -> &'static str;

    /// Forward + backward FLOPs of the model's GEMMs for a single example
    /// (two per multiply-add), as the kernels execute them: `Y = XW` and
    /// `∂W = Xᵀ∂Y` for every layer, and `∂X = ∂YWᵀ` for every layer whose
    /// input is an activation — not for the input layers, whose input is
    /// data (they run `Linear::backward_params`). Consumed by
    /// `ppgnn_core::bridge` and `ppgnn-memsim` as a hardware-independent
    /// workload descriptor, and by the benchmark's `models.gflops_achieved`
    /// rate. HOGA's count also includes its attention score and mix
    /// products, which run in a fused pass rather than a GEMM call.
    fn flops_per_example(&self) -> u64;

    /// Total scalar parameter count.
    fn num_params(&mut self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }
}

/// Re-layouts hop matrices `[(b x F); R+1]` into the token matrix
/// `[b·(R+1)] x F` expected by the HOGA attention block: example `i`'s
/// tokens occupy rows `i·(R+1) .. (i+1)·(R+1)`, ordered hop 0 → hop R.
///
/// # Panics
///
/// Panics if `hops` is empty or shapes disagree.
pub fn hops_to_tokens(hops: &[Matrix]) -> Matrix {
    assert!(!hops.is_empty(), "at least one hop matrix required");
    let b = hops[0].rows();
    let f = hops[0].cols();
    for (r, h) in hops.iter().enumerate() {
        assert_eq!(h.shape(), (b, f), "hop {r} has mismatched shape");
    }
    let t = hops.len();
    let mut out = Matrix::zeros(b * t, f);
    for i in 0..b {
        for (r, h) in hops.iter().enumerate() {
            out.row_mut(i * t + r).copy_from_slice(h.row(i));
        }
    }
    out
}

/// Checks the slice length every PP model requires, read or not.
pub(crate) fn validate_hop_count(hops: &[Matrix], expected: usize) {
    assert_eq!(
        hops.len(),
        expected,
        "model expects {expected} hop matrices, got {}",
        hops.len()
    );
}

/// Checks the input contract of a model that reads every hop.
pub(crate) fn validate_hops(hops: &[Matrix], expected: usize) -> (usize, usize) {
    validate_hop_count(hops, expected);
    let (b, f) = hops[0].shape();
    for (r, h) in hops.iter().enumerate() {
        assert_eq!(h.shape(), (b, f), "hop {r} shape mismatch");
    }
    (b, f)
}

/// Scatters a token-matrix gradient back into per-hop gradients (inverse of
/// [`hops_to_tokens`]); used by HOGA's backward when hop-level gradients are
/// needed for diagnostics.
pub fn tokens_to_hops(tokens: &Matrix, num_hops_plus_one: usize) -> Vec<Matrix> {
    assert_eq!(tokens.rows() % num_hops_plus_one, 0, "ragged token matrix");
    let b = tokens.rows() / num_hops_plus_one;
    let f = tokens.cols();
    let mut out = vec![Matrix::zeros(b, f); num_hops_plus_one];
    for i in 0..b {
        for r in 0..num_hops_plus_one {
            out[r]
                .row_mut(i)
                .copy_from_slice(tokens.row(i * num_hops_plus_one + r));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_round_trip() {
        let h0 = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32);
        let h1 = h0.map(|v| v + 100.0);
        let tokens = hops_to_tokens(&[h0.clone(), h1.clone()]);
        assert_eq!(tokens.shape(), (6, 2));
        assert_eq!(tokens.row(0), h0.row(0));
        assert_eq!(tokens.row(1), h1.row(0));
        let back = tokens_to_hops(&tokens, 2);
        assert_eq!(back[0], h0);
        assert_eq!(back[1], h1);
    }

    #[test]
    #[should_panic(expected = "mismatched shape")]
    fn ragged_hops_panic() {
        hops_to_tokens(&[Matrix::zeros(2, 3), Matrix::zeros(2, 4)]);
    }
}
