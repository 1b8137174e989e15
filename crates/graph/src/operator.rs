//! Graph-signal filter operators used during pre-propagation.
//!
//! PP-GNNs compute `S_k = {X, B_k X, …, B_k^R X}` (Eq. 2). The operator
//! `B_k` is derived from the adjacency matrix; from the spectral view these
//! are low-pass filters on the graph signal (Gasteiger et al. 2019; Nt &
//! Maehara 2019). Four choices cover the models in the paper:
//!
//! * [`Operator::SymNorm`] — `D̃^(-1/2) Ã D̃^(-1/2)`, used by SGC, SIGN and
//!   HOGA (the single-kernel configuration of the evaluation),
//! * [`Operator::RowNorm`] — the random-walk transition matrix,
//! * [`Operator::Ppr`] — truncated Personalized-PageRank diffusion,
//! * [`Operator::Heat`] — truncated heat-kernel diffusion.
//!
//! Every application bottoms out in [`WeightedCsr::spmm_into_on`], whose
//! per-row accumulation order is fixed by CSR entry order and unchanged
//! by row sharding, graph partitioning, *or* the kernel's internal
//! column tiling — the invariant the shard/partition equivalence suites
//! byte-compare feature stores against.

use ppgnn_tensor::Matrix;

use crate::{CsrGraph, NodeOrder, WeightedCsr};

/// Number of power-series terms used to approximate the diffusion operators.
const DIFFUSION_TERMS: usize = 10;

/// A graph filter `B` applied as `X ↦ B·X` during preprocessing.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum Operator {
    /// GCN-style symmetric normalization with self-loops.
    SymNorm,
    /// Random-walk (row-stochastic) normalization with self-loops.
    RowNorm,
    /// Personalized PageRank diffusion with restart probability `alpha`,
    /// approximated by a truncated power series
    /// `α Σ_i (1-α)^i Ā^i` with [`DIFFUSION_TERMS`] terms.
    Ppr {
        /// Restart probability in `(0, 1)`.
        alpha: f32,
    },
    /// Heat-kernel diffusion `e^{-t(I - Ā)}`, approximated by a truncated
    /// series `e^{-t} Σ_i t^i/i! Ā^i`.
    Heat {
        /// Diffusion time `t > 0`.
        t: f32,
    },
}

impl Operator {
    /// Short, stable identifier used in file names and reports.
    pub fn name(&self) -> &'static str {
        match self {
            Operator::SymNorm => "sym",
            Operator::RowNorm => "rw",
            Operator::Ppr { .. } => "ppr",
            Operator::Heat { .. } => "heat",
        }
    }

    /// Materializes the base normalized adjacency this operator diffuses
    /// over.
    pub fn base(&self, graph: &CsrGraph) -> WeightedCsr {
        self.build_base(graph, None)
    }

    /// [`Operator::base`] with the graph's nodes relabelled by `order`:
    /// row `i` is `base()` row `order[i]`, its column ids renumbered by
    /// [`NodeOrder::rank`], its entries and weights in the same order — so
    /// diffusing in the new order yields every node's row bit for bit,
    /// at its new position.
    ///
    /// # Panics
    ///
    /// Panics if `order` does not cover exactly the graph's nodes.
    pub fn base_in(&self, graph: &CsrGraph, order: &NodeOrder) -> WeightedCsr {
        self.build_base(graph, Some(order))
    }

    fn build_base(&self, graph: &CsrGraph, order: Option<&NodeOrder>) -> WeightedCsr {
        let symmetric = !matches!(self, Operator::RowNorm);
        WeightedCsr::normalized(graph, true, symmetric, order)
    }

    /// Applies the operator once: `X ↦ B·X`.
    ///
    /// For `SymNorm`/`RowNorm` this is a single SpMM; for `Ppr`/`Heat` it is
    /// a truncated diffusion series (each term one SpMM).
    ///
    /// # Panics
    ///
    /// Panics if `x.rows() != graph.num_nodes()`.
    pub fn apply(&self, graph: &CsrGraph, x: &Matrix) -> Matrix {
        let base = self.base(graph);
        self.apply_with_base(&base, x)
    }

    /// Applies the operator given a pre-materialized base adjacency.
    ///
    /// Preprocessing calls this in a loop over hops so the normalization is
    /// computed once per graph, not once per hop.
    ///
    /// # Panics
    ///
    /// Panics if `x.rows() != base.cols()`.
    pub fn apply_with_base(&self, base: &WeightedCsr, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(x.rows(), x.cols());
        self.apply_with_base_into(base, x, &mut out);
        out
    }

    /// Applies the operator into a pre-allocated output (overwrites `out`).
    ///
    /// For `SymNorm`/`RowNorm` this is a single allocation-free
    /// [`WeightedCsr::spmm_into`]; the streaming preprocessor ping-pongs two
    /// full-graph buffers through it so hop propagation allocates nothing.
    /// The truncated `Ppr`/`Heat` series still allocate their two term
    /// buffers internally (constant per call, not per series term).
    ///
    /// # Panics
    ///
    /// Panics if `x.rows() != base.cols()` or `out`'s shape differs from
    /// `x`'s.
    pub fn apply_with_base_into(&self, base: &WeightedCsr, x: &Matrix, out: &mut Matrix) {
        self.apply_with_base_into_on(base, x, out, ppgnn_tensor::pool());
    }

    /// [`Operator::apply_with_base_into`] on an explicit worker pool: every
    /// internal SpMM routes through [`WeightedCsr::spmm_into_on`], so
    /// callers that bound their thread usage (width sweeps,
    /// `Preprocessor::run_with_sharded_store_using`) keep that bound
    /// through diffusion-series operators too.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Operator::apply_with_base_into`].
    pub fn apply_with_base_into_on(
        &self,
        base: &WeightedCsr,
        x: &Matrix,
        out: &mut Matrix,
        pool: &ppgnn_tensor::WorkerPool,
    ) {
        match *self {
            Operator::SymNorm | Operator::RowNorm => base.spmm_into_on(x, out, pool),
            Operator::Ppr { alpha } => {
                assert!((0.0..1.0).contains(&alpha), "ppr alpha must be in (0,1)");
                out.copy_from(x); // α · Ā^0 X term
                out.scale(alpha);
                let mut term = x.clone();
                let mut next = Matrix::zeros(x.rows(), x.cols());
                let mut coeff = alpha;
                for _ in 1..=DIFFUSION_TERMS {
                    base.spmm_into_on(&term, &mut next, pool);
                    std::mem::swap(&mut term, &mut next);
                    coeff *= 1.0 - alpha;
                    out.axpy(coeff, &term);
                }
            }
            Operator::Heat { t } => {
                assert!(t > 0.0, "heat diffusion time must be positive");
                out.copy_from(x); // i = 0 term, coefficient 1
                let mut term = x.clone();
                let mut next = Matrix::zeros(x.rows(), x.cols());
                let mut coeff = 1.0f32;
                for i in 1..=DIFFUSION_TERMS {
                    base.spmm_into_on(&term, &mut next, pool);
                    std::mem::swap(&mut term, &mut next);
                    coeff *= t / i as f32;
                    out.axpy(coeff, &term);
                }
                out.scale((-t).exp());
            }
        }
    }

    /// `true` for operators whose one application is a truncated diffusion
    /// *series* (`Ppr`/`Heat`) rather than a single SpMM.
    ///
    /// Series applications are an internally sequential chain of SpMMs
    /// over full-graph term buffers, so they do not decompose into
    /// independent node-range shard tasks; the shard scheduler in
    /// `ppgnn-core` runs them through [`Operator::apply_with_base_into`]
    /// (whose inner SpMMs still parallelize on the pool) instead of
    /// slicing them.
    pub fn is_diffusion_series(&self) -> bool {
        matches!(self, Operator::Ppr { .. } | Operator::Heat { .. })
    }

    /// Number of SpMM invocations one application costs (used by the
    /// preprocessing-time model in `ppgnn-memsim`).
    pub fn spmm_count(&self) -> usize {
        match self {
            Operator::SymNorm | Operator::RowNorm => 1,
            Operator::Ppr { .. } | Operator::Heat { .. } => DIFFUSION_TERMS,
        }
    }

    /// Number of power-series terms a diffusion-series application sums
    /// (`0` for single-SpMM operators). Exposed so an alternative
    /// execution engine can replicate the truncated series bit-exactly.
    pub fn series_terms(&self) -> usize {
        if self.is_diffusion_series() {
            DIFFUSION_TERMS
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle(n: usize) -> CsrGraph {
        let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        CsrGraph::from_edges(n, &edges, true).unwrap()
    }

    #[test]
    fn sym_norm_smooths_constant_signal_exactly_on_regular_graph() {
        // On a d-regular graph with self-loops, the constant vector is an
        // eigenvector with eigenvalue 1 of the symmetric normalization.
        let g = cycle(6);
        let x = Matrix::full(6, 2, 3.0);
        let y = Operator::SymNorm.apply(&g, &x);
        assert!(y.max_abs_diff(&x) < 1e-5);
    }

    #[test]
    fn row_norm_preserves_constants_on_any_graph() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (0, 3), (3, 4), (2, 4)], true).unwrap();
        let x = Matrix::full(5, 1, 2.5);
        let y = Operator::RowNorm.apply(&g, &x);
        assert!(y.max_abs_diff(&x) < 1e-6);
    }

    #[test]
    fn ppr_preserves_constants_on_regular_graph() {
        // Σ α(1-α)^i over 10 terms ≈ 1, so constants map near themselves.
        let g = cycle(8);
        let x = Matrix::full(8, 1, 1.0);
        let y = Operator::Ppr { alpha: 0.15 }.apply(&g, &x);
        let expected: f32 = (0..=10).map(|i| 0.15f32 * 0.85f32.powi(i)).sum();
        for v in y.as_slice() {
            assert!((v - expected).abs() < 1e-4, "value {v} vs {expected}");
        }
    }

    #[test]
    fn heat_kernel_is_near_identity_for_small_t() {
        let g = cycle(6);
        let x = Matrix::from_fn(6, 2, |r, c| (r + c) as f32);
        let y = Operator::Heat { t: 0.01 }.apply(&g, &x);
        assert!(y.max_abs_diff(&x) < 0.05);
    }

    #[test]
    fn repeated_application_converges_toward_smooth_signal() {
        // High-frequency alternating signal should shrink under low-pass
        // filtering.
        let g = cycle(8);
        let x = Matrix::from_fn(8, 1, |r, _| if r % 2 == 0 { 1.0 } else { -1.0 });
        let mut y = x.clone();
        for _ in 0..4 {
            y = Operator::SymNorm.apply(&g, &y);
        }
        assert!(y.frobenius_norm() < 0.5 * x.frobenius_norm());
    }

    #[test]
    fn apply_into_matches_allocating_apply_for_every_operator() {
        let g = cycle(7);
        let x = Matrix::from_fn(7, 3, |r, c| ((r * 3 + c) % 5) as f32 - 2.0);
        for op in [
            Operator::SymNorm,
            Operator::RowNorm,
            Operator::Ppr { alpha: 0.2 },
            Operator::Heat { t: 0.5 },
        ] {
            let base = op.base(&g);
            let expected = op.apply_with_base(&base, &x);
            let mut out = Matrix::full(7, 3, -123.0); // dirty buffer
            op.apply_with_base_into(&base, &x, &mut out);
            assert!(
                out.max_abs_diff(&expected) < 1e-6,
                "{} into-variant diverged",
                op.name()
            );
        }
    }

    /// Deterministic pseudo-random stream for the graph and order shapes.
    fn lcg(state: &mut u64) -> usize {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (*state >> 33) as usize
    }

    #[test]
    fn ordered_build_is_the_identity_build_relabelled() {
        let n = 40;
        let star: Vec<(usize, usize)> = (1..n).map(|v| (0, v)).collect();
        // Nodes 30.. stay isolated (no self-loop in the topology).
        let isolated: Vec<(usize, usize)> = (0..29).map(|v| (v, v + 1)).collect();
        let self_loops: Vec<(usize, usize)> = (0..n)
            .map(|v| (v, (v * 7 + 3) % n))
            .chain((0..n).step_by(3).map(|v| (v, v)))
            .collect();
        let mut seed = 11u64;
        let random: Vec<(usize, usize)> = (0..150)
            .map(|_| (lcg(&mut seed) % n, lcg(&mut seed) % n))
            .collect();
        for (name, edges) in [
            ("star", star),
            ("isolated", isolated),
            ("self-loop", self_loops),
            ("random", random),
        ] {
            let g = CsrGraph::from_edges(n, &edges, true).unwrap();
            // A shuffled head of 25 nodes, then the rest ascending.
            let mut ids: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                ids.swap(i, lcg(&mut seed) % (i + 1));
            }
            let order = NodeOrder::heads_first(n, &[&ids[..10], &ids[10..25]]);
            for op in [Operator::SymNorm, Operator::RowNorm] {
                let base = op.base(&g);
                let ordered = op.base_in(&g, &order);
                assert_eq!(ordered.nnz(), base.nnz(), "{name} {}", op.name());
                for (i, &v) in order.as_slice().iter().enumerate() {
                    let want: Vec<(usize, u32)> = base
                        .row_entries(v)
                        .map(|(c, w)| (order.rank(c), w.to_bits()))
                        .collect();
                    let got: Vec<(usize, u32)> = ordered
                        .row_entries(i)
                        .map(|(c, w)| (c, w.to_bits()))
                        .collect();
                    assert_eq!(got, want, "{name} {} row {i} (node {v})", op.name());
                }
                let identity = NodeOrder::heads_first(n, &[]);
                assert_eq!(op.base_in(&g, &identity), base, "{name} identity");
            }
        }
    }

    #[test]
    fn operator_names_are_stable() {
        assert_eq!(Operator::SymNorm.name(), "sym");
        assert_eq!(Operator::Ppr { alpha: 0.1 }.name(), "ppr");
        assert_eq!(Operator::Heat { t: 1.0 }.name(), "heat");
        assert_eq!(Operator::RowNorm.name(), "rw");
    }

    #[test]
    fn spmm_counts_reflect_series_length() {
        assert_eq!(Operator::SymNorm.spmm_count(), 1);
        assert!(Operator::Ppr { alpha: 0.2 }.spmm_count() > 1);
    }

    #[test]
    fn series_classification_matches_spmm_counts() {
        for op in [
            Operator::SymNorm,
            Operator::RowNorm,
            Operator::Ppr { alpha: 0.2 },
            Operator::Heat { t: 0.5 },
        ] {
            assert_eq!(op.is_diffusion_series(), op.spmm_count() > 1);
        }
    }
}
