//! Weighted CSR matrices and the sparse×dense multiplication kernel.
//!
//! Pre-propagation (Eq. 2 of the paper) is `R` successive SpMM calls per
//! operator; this is the dominant preprocessing cost measured in Table 2 /
//! Table 7. The kernel parallelizes over output rows on the shared
//! `ppgnn-tensor` worker pool, with **nnz-balanced** row blocks computed
//! from `indptr` prefix sums: on the power-law graphs these datasets have,
//! equal-rows splits pile the hub nodes onto one thread and serialize the
//! whole SpMM on it.
//!
//! Each output row is one call of the row kernel in `ppgnn-tensor`
//! ([`GatherKernel::weighted_rows_into`]), on the backend the dense GEMM
//! dispatches (`ppgnn_tensor::block::kernel`): AVX-512 strips of up to 128
//! columns and AVX2 strips of 64 held in vector registers across the walk
//! of the row's non-zeros, or the portable
//! [`ppgnn_tensor::block::SPMM_COL_BLOCK`]-column strips accumulated in
//! the output row. Every backend sums each element from `+0.0` as
//! `acc + (w · x)` — multiply, then add, never fused — over the non-zeros
//! in CSR order, so every backend, strip width and row split is
//! bit-identical to the untiled kernel. Each driver call resolves the
//! backend once and counts it in `spmm.dispatch.{portable,avx2,avx512}`.

use ppgnn_telemetry::Counter;
use ppgnn_tensor::gather::GatherKernel;
use ppgnn_tensor::pool::{BlockOut, RowBlocks};
use ppgnn_tensor::{pool, KernelKind, Matrix};

use crate::{CsrGraph, GraphError, NodeOrder};

/// Telemetry totals of the SpMM drivers: `spmm.calls` counts one per
/// whole-matrix call and one per row-slice call — a sharded hop counts
/// one per shard — and `spmm.madds` the exact multiply-adds done (the
/// slice's non-zeros times the columns written). Counters only on this
/// path's inner layers — span guards are allowed at the driver (one per
/// full SpMM call) but statically forbidden inside
/// `spmm_rows_into`/`spmm_row` by the `telemetry_span` lint, where a
/// per-row guard would cost more than the row.
static SPMM_CALLS: Counter = Counter::new("spmm.calls");
static SPMM_MADDS: Counter = Counter::new("spmm.madds");
static SPMM_DISPATCH_PORTABLE: Counter = Counter::new("spmm.dispatch.portable");
static SPMM_DISPATCH_AVX2: Counter = Counter::new("spmm.dispatch.avx2");
static SPMM_DISPATCH_AVX512: Counter = Counter::new("spmm.dispatch.avx512");

/// Resolves the row kernel's backend for one driver call and counts the
/// choice, mirroring the GEMM's `gemm.dispatch.*` counters.
fn dispatch_row_kernel() -> GatherKernel {
    let kernel = GatherKernel::dispatched();
    match kernel.kind() {
        KernelKind::Portable => &SPMM_DISPATCH_PORTABLE,
        KernelKind::Avx2 => &SPMM_DISPATCH_AVX2,
        KernelKind::Avx512 => &SPMM_DISPATCH_AVX512,
    }
    .add(1);
    kernel
}

/// Splits CSR rows into at most `parts` contiguous blocks of near-equal
/// **non-zero count**, using the `indptr` prefix-sum array.
///
/// Each boundary is found by binary search for the next multiple of
/// `nnz / parts`, so blocks cost O(`parts`·log `rows`) to compute. Blocks
/// are never empty; fewer than `parts` blocks are returned when rows or
/// non-zeros run out (a single hub row heavier than the target lands in
/// its own block).
pub fn nnz_balanced_blocks(indptr: &[usize], parts: usize) -> Vec<std::ops::Range<usize>> {
    let rows = indptr.len().saturating_sub(1);
    if rows == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, rows);
    let nnz = indptr[rows];
    if parts == 1 || nnz == 0 {
        // One serial block covering every row (not a 0..rows index list).
        #[allow(clippy::single_range_in_vec_init)]
        return vec![0..rows];
    }
    let mut blocks = Vec::with_capacity(parts);
    let mut start = 0usize;
    for p in 1..=parts {
        if start >= rows {
            break;
        }
        let end = if p == parts {
            rows
        } else {
            // First row index whose prefix reaches this part's nnz target;
            // at least one row per block so progress is guaranteed.
            let target = (nnz * p).div_ceil(parts);
            indptr
                .partition_point(|&x| x < target)
                .clamp(start + 1, rows)
        };
        blocks.push(start..end);
        start = end;
    }
    blocks
}

/// A sparse matrix in CSR form with `f32` edge weights — the materialized
/// form of a normalized-adjacency operator.
///
/// # Example
///
/// ```
/// use ppgnn_graph::{CsrGraph, WeightedCsr};
/// use ppgnn_tensor::Matrix;
///
/// let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)], true)?;
/// let op = WeightedCsr::sym_norm(&g, true);
/// let smoothed = op.spmm(&Matrix::eye(3));
/// // Symmetric normalization keeps rows stochastic-ish: entries are finite.
/// assert!(smoothed.as_slice().iter().all(|v| v.is_finite()));
/// # Ok::<(), ppgnn_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedCsr {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    weights: Vec<f32>,
}

impl WeightedCsr {
    /// Builds a weighted CSR from raw arrays.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidCsr`] when the arrays are inconsistent.
    pub fn from_raw(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        weights: Vec<f32>,
    ) -> Result<Self, GraphError> {
        if indptr.len() != rows + 1 {
            return Err(GraphError::InvalidCsr(format!(
                "indptr length {} != rows + 1 = {}",
                indptr.len(),
                rows + 1
            )));
        }
        if indices.len() != weights.len() {
            return Err(GraphError::InvalidCsr(
                "indices and weights must have equal length".into(),
            ));
        }
        if indptr[0] != 0
            || *indptr.last().expect("len >= 1") != indices.len()
            || indptr.windows(2).any(|w| w[0] > w[1])
        {
            return Err(GraphError::InvalidCsr(
                "indptr not a valid prefix array".into(),
            ));
        }
        if let Some(&bad) = indices.iter().find(|&&i| (i as usize) >= cols) {
            return Err(GraphError::NodeOutOfBounds {
                node: bad as usize,
                num_nodes: cols,
            });
        }
        Ok(WeightedCsr {
            rows,
            cols,
            indptr,
            indices,
            weights,
        })
    }

    /// The GCN operator `D̃^(-1/2) Ã D̃^(-1/2)` where `Ã = A (+ I)`.
    ///
    /// `add_self_loops` controls the `+ I` term (SGC/SIGN/HOGA all use it).
    /// Isolated nodes without self-loops produce all-zero rows rather than
    /// NaNs.
    pub fn sym_norm(graph: &CsrGraph, add_self_loops: bool) -> Self {
        Self::normalized(graph, add_self_loops, true, None)
    }

    /// The random-walk operator `D̃^(-1) Ã`.
    pub fn row_norm(graph: &CsrGraph, add_self_loops: bool) -> Self {
        Self::normalized(graph, add_self_loops, false, None)
    }

    /// Builds the normalized operator with its nodes relabelled by
    /// `order` (`None` = the graph's own ids), in one pass: row `i` is the
    /// identity-order row `order[i]` with every column id `u` renumbered
    /// to `rank(u)`, its entries and weights kept in the identity order.
    /// Per-row accumulation order is therefore unchanged, and so is every
    /// SpMM output row, bit for bit — only its position moves.
    pub(crate) fn normalized(
        graph: &CsrGraph,
        add_self_loops: bool,
        symmetric: bool,
        order: Option<&NodeOrder>,
    ) -> Self {
        let n = graph.num_nodes();
        if let Some(order) = order {
            assert_eq!(order.len(), n, "node order must cover the graph");
        }
        let mut indptr = Vec::with_capacity(n + 1);
        let mut indices =
            Vec::with_capacity(graph.num_edges() + if add_self_loops { n } else { 0 });
        let mut weights = Vec::with_capacity(indices.capacity());

        // Degrees of Ã (self-loop adds 1 unless already present).
        let deg: Vec<f32> = (0..n)
            .map(|v| {
                let mut d = graph.degree(v) as f32;
                if add_self_loops && !graph.has_edge(v, v) {
                    d += 1.0;
                }
                d
            })
            .collect();
        let inv_sqrt: Vec<f32> = deg
            .iter()
            .map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 })
            .collect();
        let inv: Vec<f32> = deg
            .iter()
            .map(|&d| if d > 0.0 { 1.0 / d } else { 0.0 })
            .collect();

        indptr.push(0);
        for i in 0..n {
            let v = order.map_or(i, |o| o.as_slice()[i]);
            let mut self_loop_emitted = false;
            let push = |u: u32, indices: &mut Vec<u32>, weights: &mut Vec<f32>| {
                let w = if symmetric {
                    inv_sqrt[v] * inv_sqrt[u as usize]
                } else {
                    inv[v]
                };
                indices.push(order.map_or(u, |o| o.rank(u as usize) as u32));
                weights.push(w);
            };
            for &u in graph.neighbors(v) {
                if add_self_loops && !self_loop_emitted && u as usize >= v {
                    if u as usize != v {
                        push(v as u32, &mut indices, &mut weights);
                    }
                    self_loop_emitted = true;
                }
                push(u, &mut indices, &mut weights);
            }
            if add_self_loops && !self_loop_emitted {
                push(v as u32, &mut indices, &mut weights);
            }
            indptr.push(indices.len());
        }
        WeightedCsr {
            rows: n,
            cols: n,
            indptr,
            indices,
            weights,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// The CSR row-pointer (prefix-sum) array, `rows + 1` entries.
    ///
    /// Exposed so shard planners ([`crate::ShardPlan`]) can cut the row
    /// space into nnz-balanced ranges without re-deriving the prefix sums.
    #[inline]
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Non-zero entries of row `r` as `(col, weight)` pairs.
    pub fn row_entries(&self, r: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        let lo = self.indptr[r];
        let hi = self.indptr[r + 1];
        self.indices[lo..hi]
            .iter()
            .zip(&self.weights[lo..hi])
            .map(|(&c, &w)| (c as usize, w))
    }

    /// Sparse × dense product `Y = S · X`.
    ///
    /// Parallelizes over nnz-balanced row blocks on the shared worker pool
    /// once the work estimate (`nnz · X.cols()`) exceeds the workspace
    /// parallel threshold ([`ppgnn_tensor::set_parallel_threshold`]).
    ///
    /// # Panics
    ///
    /// Panics if `x.rows() != self.cols()`.
    pub fn spmm(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, x.cols());
        self.spmm_into(x, &mut out);
        out
    }

    /// `Y = S · X` into a pre-allocated output (overwrites `out`).
    ///
    /// The streaming preprocessor ping-pongs two full-graph buffers through
    /// this, eliminating the per-hop allocation of [`WeightedCsr::spmm`].
    ///
    /// # Panics
    ///
    /// Panics if `x.rows() != self.cols()` or `out` is not
    /// `self.rows() x x.cols()`.
    pub fn spmm_into(&self, x: &Matrix, out: &mut Matrix) {
        self.spmm_into_on(x, out, pool::pool());
    }

    /// [`WeightedCsr::spmm_into`] on an explicit worker pool.
    ///
    /// The global pool is sized once from the environment; tests and
    /// benchmarks that need a specific width (the thread-count sweeps in
    /// the SpMM regression suite) pass their own pool here.
    ///
    /// # Panics
    ///
    /// Same conditions as [`WeightedCsr::spmm_into`].
    pub fn spmm_into_on(&self, x: &Matrix, out: &mut Matrix, pool: &ppgnn_tensor::WorkerPool) {
        assert_eq!(
            x.rows(),
            self.cols,
            "spmm dimension mismatch: operator has {} cols, features have {} rows",
            self.cols,
            x.rows()
        );
        let f = x.cols();
        assert_eq!(
            out.shape(),
            (self.rows, f),
            "spmm output shape mismatch: expected {}x{f}",
            self.rows
        );
        let work = self.nnz() * f;
        let nthreads = pool.threads_for(work);
        let x_data = x.as_slice();
        let rows = self.rows;
        if f == 0 {
            return;
        }
        SPMM_CALLS.add(1);
        SPMM_MADDS.add(work as u64);
        let _span =
            ppgnn_telemetry::span_with("spmm", &[("rows", rows as u64), ("cols_f", f as u64)]);
        let kernel = dispatch_row_kernel();

        if nthreads <= 1 || rows <= 1 {
            for (r, row_out) in out.as_mut_slice().chunks_exact_mut(f).enumerate() {
                self.spmm_row(kernel, r, x_data, f, 0, row_out);
            }
            return;
        }

        let blocks = nnz_balanced_blocks(&self.indptr, nthreads);
        let sizes: Vec<usize> = blocks.iter().map(|b| b.len()).collect();
        let outs = [BlockOut::rows(out.as_mut_slice(), f)];
        pool.run_row_blocks(
            outs,
            RowBlocks::Sizes(&sizes),
            sizes.len(),
            |_, start, [chunk]| {
                for (i, row_out) in chunk.chunks_exact_mut(f).enumerate() {
                    self.spmm_row(kernel, start + i, x_data, f, 0, row_out);
                }
            },
        );
    }

    /// Computes rows `rows` of `S · X` into `out_rows` — the row-slice
    /// kernel behind sharded diffusion.
    ///
    /// `out_rows` holds exactly the output rows of the slice
    /// (`rows.len() × x.cols()` values, row-major) and is overwritten.
    /// The slice reads the **full** `x` (every input row a shard's edges
    /// reach) but writes only its own rows, so disjoint shards can run
    /// concurrently over one shared input buffer. Execution is serial by
    /// design: the caller (the shard scheduler in `ppgnn-core`) owns the
    /// parallelism by submitting one task per shard, and a per-row output
    /// value never depends on shard boundaries — sharded results are
    /// bit-identical to [`WeightedCsr::spmm_into`].
    ///
    /// # Panics
    ///
    /// Panics if `x.rows() != self.cols()`, `rows` exceeds `self.rows()`,
    /// or `out_rows` is not exactly `rows.len() * x.cols()` long.
    pub fn spmm_rows_into(&self, rows: std::ops::Range<usize>, x: &Matrix, out_rows: &mut [f32]) {
        assert_eq!(
            x.rows(),
            self.cols,
            "spmm dimension mismatch: operator has {} cols, features have {} rows",
            self.cols,
            x.rows()
        );
        let f = x.cols();
        self.spmm_window_rows_into(rows, x.as_slice(), f, 0..f, out_rows);
    }

    /// [`WeightedCsr::spmm_rows_into`] over one column window of a wider
    /// row-major buffer: `x` holds `self.cols()` rows of `ld` values, and
    /// `out_rows` holds the slice's `rows.len()` rows of `ld` values, of
    /// which only columns `window` are written. Operators that diffuse side
    /// by side in one `N × (g·F)` buffer each own one `F`-wide window.
    /// Every written element is the same sum, in the same order, as the
    /// full-width kernel's. Each call counts one `spmm.calls` and the
    /// slice's non-zeros × `window.len()` `spmm.madds`, so a hop sharded
    /// into `s` slices counts `s` calls and its exact work.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `self.cols() × ld`, `window` exceeds `ld`,
    /// `rows` exceeds `self.rows()`, or `out_rows` is not exactly
    /// `rows.len() * ld` long.
    pub fn spmm_window_rows_into(
        &self,
        rows: std::ops::Range<usize>,
        x: &[f32],
        ld: usize,
        window: std::ops::Range<usize>,
        out_rows: &mut [f32],
    ) {
        assert_eq!(
            x.len(),
            self.cols * ld,
            "spmm dimension mismatch: operator has {} cols, input holds {} values of width {ld}",
            self.cols,
            x.len()
        );
        assert!(
            window.start <= window.end && window.end <= ld,
            "column window {window:?} exceeds row width {ld}"
        );
        assert!(
            rows.end <= self.rows,
            "row slice {rows:?} exceeds {} operator rows",
            self.rows
        );
        assert_eq!(
            out_rows.len(),
            rows.len() * ld,
            "row-slice output length mismatch: expected {} values",
            rows.len() * ld
        );
        if window.is_empty() {
            return;
        }
        let nnz = if rows.is_empty() {
            0
        } else {
            self.indptr[rows.end] - self.indptr[rows.start]
        };
        SPMM_CALLS.add(1);
        SPMM_MADDS.add((nnz * window.len()) as u64);
        let kernel = dispatch_row_kernel();
        for (i, r) in rows.enumerate() {
            let row_out = &mut out_rows[i * ld + window.start..i * ld + window.end];
            self.spmm_row(kernel, r, x, ld, window.start, row_out);
        }
    }

    /// One output row: overwrites `out` with row `r` of `S · X` through
    /// the dispatched row kernel ([`GatherKernel::weighted_rows_into`]).
    ///
    /// Bit-exactness: every backend sums each element from `+0.0` over
    /// the row's non-zeros in CSR order, multiply then add, so the output
    /// is **bit-identical** to the untiled kernel — the sharded and
    /// partitioned equivalence suites that byte-compare feature stores
    /// keep holding.
    ///
    /// `x` rows are `ld` wide and the row reads columns `col0..col0 +
    /// out.len()` of each (`ld = out.len()`, `col0 = 0` for a plain
    /// `N × F` input).
    #[inline]
    fn spmm_row(
        &self,
        kernel: GatherKernel,
        r: usize,
        x: &[f32],
        ld: usize,
        col0: usize,
        out: &mut [f32],
    ) {
        let (lo, hi) = (self.indptr[r], self.indptr[r + 1]);
        kernel.weighted_rows_into(
            &self.indices[lo..hi],
            &self.weights[lo..hi],
            x,
            ld,
            col0,
            out,
        );
    }

    /// The untiled scalar row kernel, retained as the byte-equality
    /// oracle for every backend of [`WeightedCsr::spmm_row`].
    #[cfg(test)]
    fn spmm_row_untiled(&self, r: usize, x: &[f32], f: usize, out: &mut [f32]) {
        for idx in self.indptr[r]..self.indptr[r + 1] {
            let c = self.indices[idx] as usize;
            let w = self.weights[idx];
            let x_row = &x[c * f..(c + 1) * f];
            for (o, v) in out.iter_mut().zip(x_row) {
                *o += w * v;
            }
        }
    }

    /// Materializes the operator as a dense matrix (test/debug helper;
    /// quadratic memory).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, w) in self.row_entries(r) {
                m.set(r, c, m.get(r, c) + w);
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> CsrGraph {
        CsrGraph::from_edges(3, &[(0, 1), (1, 2)], true).unwrap()
    }

    #[test]
    fn sym_norm_matches_hand_computation() {
        // Path 0-1-2 with self-loops: deg = [2, 3, 2].
        let op = WeightedCsr::sym_norm(&path3(), true);
        let d = op.to_dense();
        assert!((d.get(0, 0) - 0.5).abs() < 1e-6);
        assert!((d.get(0, 1) - 1.0 / (2.0f32 * 3.0).sqrt()).abs() < 1e-6);
        assert!((d.get(1, 1) - 1.0 / 3.0).abs() < 1e-6);
        assert_eq!(d.get(0, 2), 0.0);
        // Symmetric.
        assert!(d.max_abs_diff(&d.transpose()) < 1e-6);
    }

    #[test]
    fn row_norm_rows_sum_to_one() {
        let op = WeightedCsr::row_norm(&path3(), true);
        let d = op.to_dense();
        for r in 0..3 {
            let sum: f32 = d.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6, "row {r} sums to {sum}");
        }
    }

    #[test]
    fn isolated_node_without_self_loop_gives_zero_row() {
        let g = CsrGraph::from_edges(3, &[(0, 1)], true).unwrap();
        let op = WeightedCsr::sym_norm(&g, false);
        let d = op.to_dense();
        assert!(d.row(2).iter().all(|&v| v == 0.0));
        assert!(d.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn existing_self_loop_is_not_doubled() {
        let g = CsrGraph::from_edges(2, &[(0, 0), (0, 1)], true).unwrap();
        let op = WeightedCsr::sym_norm(&g, true);
        // row 0 has entries for 0 and 1 only.
        assert_eq!(op.row_entries(0).count(), 2);
    }

    #[test]
    fn spmm_matches_dense_product() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)], true).unwrap();
        let op = WeightedCsr::sym_norm(&g, true);
        let x = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32 * 0.1);
        let sparse = op.spmm(&x);
        let dense = ppgnn_tensor::matmul(&op.to_dense(), &x);
        assert!(sparse.max_abs_diff(&dense) < 1e-5);
    }

    #[test]
    fn spmm_identity_operator_is_noop() {
        let n = 5;
        let indptr: Vec<usize> = (0..=n).collect();
        let indices: Vec<u32> = (0..n as u32).collect();
        let op = WeightedCsr::from_raw(n, n, indptr, indices, vec![1.0; n]).unwrap();
        let x = Matrix::from_fn(n, 2, |r, c| (r + c) as f32);
        assert!(op.spmm(&x).max_abs_diff(&x) < 1e-7);
    }

    #[test]
    fn from_raw_validates() {
        assert!(WeightedCsr::from_raw(1, 1, vec![0, 1], vec![0], vec![1.0]).is_ok());
        assert!(WeightedCsr::from_raw(1, 1, vec![0, 2], vec![0], vec![1.0]).is_err());
        assert!(WeightedCsr::from_raw(1, 1, vec![0, 1], vec![3], vec![1.0]).is_err());
        assert!(WeightedCsr::from_raw(1, 1, vec![0, 1], vec![0], vec![]).is_err());
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn spmm_shape_mismatch_panics() {
        let op = WeightedCsr::sym_norm(&path3(), true);
        op.spmm(&Matrix::zeros(5, 2));
    }

    #[test]
    fn spmm_into_overwrites_dirty_buffers() {
        let op = WeightedCsr::sym_norm(&path3(), true);
        let x = Matrix::from_fn(3, 2, |r, c| (r + c) as f32);
        let fresh = op.spmm(&x);
        let mut dirty = Matrix::full(3, 2, 999.0);
        op.spmm_into(&x, &mut dirty);
        assert!(dirty.max_abs_diff(&fresh) < 1e-7);
    }

    #[test]
    fn nnz_blocks_partition_rows_and_balance_nonzeros() {
        // Skewed prefix: one hub row with 90 nnz among 10 light rows.
        let mut indptr = vec![0usize];
        let mut nnz = 0;
        for r in 0..11 {
            nnz += if r == 4 { 90 } else { 1 };
            indptr.push(nnz);
        }
        let blocks = nnz_balanced_blocks(&indptr, 4);
        // Blocks tile 0..rows contiguously.
        assert_eq!(blocks.first().unwrap().start, 0);
        assert_eq!(blocks.last().unwrap().end, 11);
        for w in blocks.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        // The hub row sits alone-ish: no block except the hub's holds more
        // than the light rows combined.
        let hub_block = blocks.iter().find(|b| b.contains(&4)).unwrap();
        for b in &blocks {
            let block_nnz = indptr[b.end] - indptr[b.start];
            if b != hub_block {
                assert!(block_nnz <= 10, "light block {b:?} got {block_nnz} nnz");
            }
        }
    }

    #[test]
    fn nnz_blocks_edge_cases() {
        assert!(nnz_balanced_blocks(&[0], 4).is_empty());
        // All-zero matrix: nothing to balance, one serial block.
        assert_eq!(nnz_balanced_blocks(&[0, 0, 0], 4), vec![0..2]);
        assert_eq!(nnz_balanced_blocks(&[0, 5, 9], 1), vec![0..2]);
        // More parts than rows degenerates to one row per block.
        let blocks = nnz_balanced_blocks(&[0, 2, 4, 6], 16);
        assert_eq!(blocks, vec![0..1, 1..2, 2..3]);
    }

    #[test]
    fn column_tiled_spmm_is_byte_identical_to_untiled_on_skewed_star() {
        use ppgnn_tensor::block::SPMM_COL_BLOCK;
        use ppgnn_tensor::WorkerPool;
        // Star graph: node 0 is a hub adjacent to everyone — the shape
        // column tiling exists for. Sweep feature widths below, at, and
        // above the strip width (1/2/8 exercise the single-strip path,
        // the wider ones the multi-strip path with a ragged tail).
        let n = 64;
        let edges: Vec<(usize, usize)> = (1..n).map(|v| (0, v)).collect();
        let g = CsrGraph::from_edges(n, &edges, true).unwrap();
        let op = WeightedCsr::sym_norm(&g, true);
        let _guard = test_threshold_guard();
        ppgnn_tensor::set_parallel_threshold(0);
        for f in [
            1,
            2,
            8,
            SPMM_COL_BLOCK,
            SPMM_COL_BLOCK + 3,
            2 * SPMM_COL_BLOCK + 1,
        ] {
            let x = Matrix::from_fn(n, f, |r, c| ((r * 31 + c * 7) % 17) as f32 * 0.37 - 2.9);
            // Untiled oracle, computed serially row by row.
            let mut expect = Matrix::zeros(n, f);
            for r in 0..n {
                op.spmm_row_untiled(
                    r,
                    x.as_slice(),
                    f,
                    &mut expect.as_mut_slice()[r * f..(r + 1) * f],
                );
            }
            for threads in [1, 2, 8] {
                let pool = WorkerPool::new(threads);
                let mut out = Matrix::full(n, f, f32::NAN); // dirty buffer
                op.spmm_into_on(&x, &mut out, &pool);
                let same_bits = out
                    .as_slice()
                    .iter()
                    .zip(expect.as_slice())
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(
                    same_bits,
                    "width {f}, pool {threads}: tiled SpMM diverged bytewise"
                );
            }
        }
        ppgnn_tensor::set_parallel_threshold(ppgnn_tensor::pool::DEFAULT_PARALLEL_THRESHOLD);
    }

    #[test]
    fn window_rows_match_the_full_width_kernel_bitwise() {
        use ppgnn_tensor::block::SPMM_COL_BLOCK;
        // Two operators side by side in one n × 2f buffer: each window is
        // the plain kernel's output, and the other window is untouched.
        let n = 48;
        let edges: Vec<(usize, usize)> = (1..n).map(|v| (v % 5, v)).collect();
        let g = CsrGraph::from_edges(n, &edges, true).unwrap();
        let ops = [
            WeightedCsr::sym_norm(&g, true),
            WeightedCsr::row_norm(&g, true),
        ];
        for f in [3, SPMM_COL_BLOCK + 5] {
            let xs: Vec<Matrix> = (0..2)
                .map(|k| Matrix::from_fn(n, f, |r, c| ((r * 13 + c * 5 + k) % 19) as f32 * 0.21))
                .collect();
            let ld = 2 * f;
            let side = Matrix::from_fn(n, ld, |r, c| xs[c / f].get(r, c % f));
            let mut out = vec![f32::NAN; 10 * ld];
            for (k, op) in ops.iter().enumerate() {
                op.spmm_window_rows_into(20..30, side.as_slice(), ld, k * f..(k + 1) * f, &mut out);
                let mut want = vec![0.0; 10 * f];
                op.spmm_rows_into(20..30, &xs[k], &mut want);
                for i in 0..10 {
                    let got = &out[i * ld + k * f..i * ld + (k + 1) * f];
                    let want = &want[i * f..(i + 1) * f];
                    assert!(
                        got.iter()
                            .zip(want)
                            .all(|(a, b)| a.to_bits() == b.to_bits()),
                        "f {f} op {k} row {i}"
                    );
                }
            }
        }
    }

    /// `n × f` features spanning 2^±10 in magnitude, with ±0 and
    /// subnormals scattered through and ±∞ and NaN on a few rows.
    fn special_features(n: usize, f: usize) -> Matrix {
        Matrix::from_fn(n, f, |r, c| match (r % 23, c % 9, r % 29, c % 10) {
            (7, 2, ..) => f32::INFINITY,
            (11, 4, ..) => f32::NEG_INFINITY,
            (_, _, 3, 6) => f32::NAN,
            _ => match (r * 31 + c * 17) % 23 {
                0 => 0.0,
                1 => -0.0,
                2 => f32::from_bits(1 + (r * f + c) as u32 % 0x007f_ffff),
                3 => -f32::from_bits(0x007f_fff0 - (r + c) as u32),
                k => {
                    let u = ((r * 131 + c * 71 + k) % 2001) as f32 / 1000.0 - 1.0;
                    u * (1 << ((r + c * 3) % 20)) as f32 / 1024.0
                }
            },
        })
    }

    #[test]
    #[cfg_attr(miri, ignore = "Miri does not model x86 SIMD intrinsics")]
    fn every_backend_matches_the_untiled_oracle_bitwise() {
        use ppgnn_tensor::{block, compiled_kernels, WorkerPool};
        use rand::SeedableRng;
        // Widths around every strip and vector boundary of the backends
        // (8-, 16-, 64- and 128-wide).
        const WIDTHS: [usize; 21] = [
            1, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65, 80, 81, 100, 127, 128, 129, 255, 256, 257, 1024,
        ];
        let star = CsrGraph::from_edges(80, &(1..80).map(|v| (0, v)).collect::<Vec<_>>(), true);
        let path = CsrGraph::from_edges(50, &(1..50).map(|v| (v - 1, v)).collect::<Vec<_>>(), true);
        // Every third node is isolated and gets no self-loop: an empty row.
        let sparse = CsrGraph::from_edges(
            60,
            &(0..60)
                .filter(|v| v % 3 == 1)
                .map(|v| (v, v + 1))
                .collect::<Vec<_>>(),
            true,
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let power = crate::gen::rmat(7, 900, (0.57, 0.19, 0.19), &mut rng);
        let ops = [
            ("star hub", WeightedCsr::sym_norm(&star.unwrap(), true)),
            ("path", WeightedCsr::row_norm(&path.unwrap(), true)),
            (
                "isolated rows",
                WeightedCsr::sym_norm(&sparse.unwrap(), false),
            ),
            ("power-law", WeightedCsr::sym_norm(&power.unwrap(), true)),
        ];
        let kinds: Vec<_> = compiled_kernels()
            .iter()
            .copied()
            .filter(|k| k.is_supported())
            .collect();
        let pools = [1, 2, 8].map(WorkerPool::new);
        // Quiet NaN with a payload no sum produces: marks unwritten values.
        let sentinel = f32::from_bits(0x7fc0_0bad);
        // NaN has to be NaN where the oracle's is; the payload is free.
        let same = |got: f32, want: f32| {
            if want.is_nan() {
                got.is_nan()
            } else {
                got.to_bits() == want.to_bits()
            }
        };
        let _guard = test_threshold_guard();
        ppgnn_tensor::set_parallel_threshold(0);
        assert!((0..60).all(|r| (ops[2].1.row_entries(r).count() == 0) == (r % 3 == 0)));
        for (name, op) in &ops {
            let n = op.rows();
            for f in WIDTHS {
                let x = special_features(n, f);
                let mut expect = Matrix::zeros(n, f);
                for (r, row) in expect.as_mut_slice().chunks_exact_mut(f).enumerate() {
                    op.spmm_row_untiled(r, x.as_slice(), f, row);
                }
                let ld = 2 * f + 3;
                for &kind in &kinds {
                    block::set_kernel(Some(kind));
                    for pool in &pools {
                        let threads = pool.num_threads();
                        let at = format!("{} on {name}, F {f}, pool {threads}", kind.name());
                        let mut out = Matrix::full(n, f, sentinel);
                        op.spmm_into_on(&x, &mut out, pool);
                        for (i, (&g, &w)) in
                            out.as_slice().iter().zip(expect.as_slice()).enumerate()
                        {
                            assert!(same(g, w), "{at}, element {i}: {g:?} != {w:?}");
                        }
                        // The window kernel, rows cut into one task per thread.
                        for col0 in [0, 3, f] {
                            let side = Matrix::from_fn(n, ld, |r, c| {
                                if (col0..col0 + f).contains(&c) {
                                    x.get(r, c - col0)
                                } else {
                                    -7.5
                                }
                            });
                            let mut out = vec![sentinel; n * ld];
                            let per = n.div_ceil(threads);
                            let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
                            for (t, slab) in out.chunks_mut(per * ld).enumerate() {
                                let (side, rows) =
                                    (side.as_slice(), t * per..t * per + slab.len() / ld);
                                tasks.push(Box::new(move || {
                                    op.spmm_window_rows_into(rows, side, ld, col0..col0 + f, slab)
                                }));
                            }
                            pool.run(tasks);
                            for (r, (got, want)) in out
                                .chunks_exact(ld)
                                .zip(expect.as_slice().chunks_exact(f))
                                .enumerate()
                            {
                                for (j, (&g, &w)) in
                                    got[col0..col0 + f].iter().zip(want).enumerate()
                                {
                                    assert!(
                                        same(g, w),
                                        "{at}, col0 {col0}, row {r}, col {j}: {g:?} != {w:?}"
                                    );
                                }
                                let outside = got[..col0].iter().chain(&got[col0 + f..]);
                                assert!(
                                    outside
                                        .into_iter()
                                        .all(|v| v.to_bits() == sentinel.to_bits()),
                                    "{at}, col0 {col0}, row {r}: wrote outside its window"
                                );
                            }
                        }
                    }
                }
            }
        }
        block::set_kernel(None);
        ppgnn_tensor::set_parallel_threshold(ppgnn_tensor::pool::DEFAULT_PARALLEL_THRESHOLD);
    }

    #[test]
    fn every_driver_call_counts_its_row_kernel_backend() {
        use ppgnn_tensor::{block, compiled_kernels};
        let op = WeightedCsr::sym_norm(&path3(), true);
        let x = Matrix::from_fn(3, 4, |r, c| (r + c) as f32);
        let mut out = Matrix::zeros(3, 4);
        let _guard = test_threshold_guard();
        let was_on = ppgnn_telemetry::enabled();
        ppgnn_telemetry::set_enabled(true);
        for &kind in compiled_kernels().iter().filter(|k| k.is_supported()) {
            block::set_kernel(Some(kind));
            let counter = match kind {
                KernelKind::Portable => &SPMM_DISPATCH_PORTABLE,
                KernelKind::Avx2 => &SPMM_DISPATCH_AVX2,
                KernelKind::Avx512 => &SPMM_DISPATCH_AVX512,
            };
            let before = counter.get();
            op.spmm_into(&x, &mut out);
            op.spmm_rows_into(1..3, &x, &mut out.as_mut_slice()[4..]);
            // Other tests may add to the counter meanwhile, never subtract.
            assert!(
                counter.get() >= before + 2,
                "{} calls uncounted",
                kind.name()
            );
        }
        block::set_kernel(None);
        ppgnn_telemetry::set_enabled(was_on);
    }

    #[test]
    fn skewed_graph_spmm_matches_dense_at_all_widths() {
        use ppgnn_tensor::WorkerPool;
        // Star graph: node 0 is a hub adjacent to everyone — the worst case
        // for equal-rows splits.
        let n = 64;
        let edges: Vec<(usize, usize)> = (1..n).map(|v| (0, v)).collect();
        let g = CsrGraph::from_edges(n, &edges, true).unwrap();
        let op = WeightedCsr::sym_norm(&g, true);
        let x = Matrix::from_fn(n, 5, |r, c| ((r * 7 + c * 3) % 13) as f32 - 6.0);
        let dense = ppgnn_tensor::matmul(&op.to_dense(), &x);
        // Force the pooled path regardless of work size, then sweep widths.
        let _guard = test_threshold_guard();
        ppgnn_tensor::set_parallel_threshold(0);
        for threads in [1, 2, 8] {
            let pool = WorkerPool::new(threads);
            let mut out = Matrix::zeros(n, 5);
            op.spmm_into_on(&x, &mut out, &pool);
            assert!(
                out.max_abs_diff(&dense) < 1e-5,
                "width {threads} disagrees with dense reference"
            );
        }
        ppgnn_tensor::set_parallel_threshold(ppgnn_tensor::pool::DEFAULT_PARALLEL_THRESHOLD);
    }

    /// Serializes tests that mutate the global parallel threshold.
    pub(super) fn test_threshold_guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap()
    }
}
