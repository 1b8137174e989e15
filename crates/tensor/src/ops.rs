//! Element-wise, row-wise, and batch-assembly operations on [`Matrix`].
//!
//! The gather/scatter family here is the computational heart of the paper's
//! data-loading study: `gather_rows` (one fused index operation) versus a
//! per-row copy loop is exactly the "efficient batch assembly" optimization
//! of Section 4.1, and `ppgnn-bench` measures both variants.

use crate::pool::{row_blocked, BlockOut};
use crate::Matrix;

impl Matrix {
    /// Adds `other` element-wise into `self` — row-blocked on the shared
    /// pool once the operands are activation-sized (element-wise, so the
    /// split cannot change a bit).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        let (rows, cols, src) = (self.rows(), self.cols(), other.as_slice());
        let outs = [BlockOut::rows(self.as_mut_slice(), cols)];
        row_blocked(rows, 3 * src.len(), outs, |_, row0, [dst]| {
            for (a, b) in dst.iter_mut().zip(&src[row0 * cols..]) {
                *a += b;
            }
        });
    }

    /// Subtracts `other` element-wise from `self`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn sub_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "sub_assign shape mismatch");
        for (a, b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a -= b;
        }
    }

    /// Multiplies `other` element-wise into `self` (Hadamard product).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn mul_assign_elem(&mut self, other: &Matrix) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "mul_assign_elem shape mismatch"
        );
        for (a, b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a *= b;
        }
    }

    /// `self += alpha * other` (axpy).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a += alpha * b;
        }
    }

    /// Scales every element by `alpha`.
    pub fn scale(&mut self, alpha: f32) {
        for a in self.as_mut_slice() {
            *a *= alpha;
        }
    }

    /// Returns a new matrix with `f` applied to every element.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        let mut out = self.clone();
        for a in out.as_mut_slice() {
            *a = f(*a);
        }
        out
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for a in self.as_mut_slice() {
            *a = f(*a);
        }
    }

    /// Fills the matrix with zeros without reallocating.
    pub fn fill_zero(&mut self) {
        self.as_mut_slice().fill(0.0);
    }

    /// Overwrites `self` with the contents of `other` without reallocating.
    ///
    /// The streaming preprocessor uses this to reset its ping-pong
    /// propagation buffer to the raw features between operator passes.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn copy_from(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "copy_from shape mismatch");
        self.as_mut_slice().copy_from_slice(other.as_slice());
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let (r, c) = self.shape();
        let mut out = Matrix::zeros(c, r);
        for i in 0..r {
            let row = self.row(i);
            for (j, &v) in row.iter().enumerate() {
                out.as_mut_slice()[j * r + i] = v;
            }
        }
        out
    }

    /// Horizontally concatenates matrices with equal row counts.
    ///
    /// Used by SIGN to merge per-hop branches: `concat([X_0 W_0, …, X_R W_R])`.
    ///
    /// # Panics
    ///
    /// Panics if `mats` is empty or row counts differ.
    pub fn hstack(mats: &[&Matrix]) -> Matrix {
        let mut out = Matrix::default();
        Self::hstack_into(mats, &mut out);
        out
    }

    /// Horizontally concatenates into a reusable output slot — the
    /// allocation-free form of [`Matrix::hstack`] the `forward_into`
    /// model stacks route SIGN's branch merge through. Resizes `out` to
    /// `rows × Σ cols` (reusing its buffer when capacity suffices).
    ///
    /// # Panics
    ///
    /// Panics if `mats` is empty or row counts differ.
    pub fn hstack_into(mats: &[&Matrix], out: &mut Matrix) {
        assert!(!mats.is_empty(), "hstack of zero matrices");
        let rows = mats[0].rows();
        let cols: usize = mats.iter().map(|m| m.cols()).sum();
        for m in mats {
            assert_eq!(m.rows(), rows, "hstack row-count mismatch");
        }
        out.resize_to(rows, cols);
        for r in 0..rows {
            let dst = out.row_mut(r);
            let mut off = 0;
            for m in mats {
                dst[off..off + m.cols()].copy_from_slice(m.row(r));
                off += m.cols();
            }
        }
    }

    /// Vertically concatenates matrices with equal column counts.
    ///
    /// # Panics
    ///
    /// Panics if `mats` is empty or column counts differ.
    pub fn vstack(mats: &[&Matrix]) -> Matrix {
        assert!(!mats.is_empty(), "vstack of zero matrices");
        let cols = mats[0].cols();
        let rows: usize = mats.iter().map(|m| m.rows()).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for m in mats {
            assert_eq!(m.cols(), cols, "vstack column-count mismatch");
            data.extend_from_slice(m.as_slice());
        }
        Matrix::from_vec(rows, cols, data).expect("vstack shape is consistent by construction")
    }

    /// Splits the matrix horizontally into equal-width pieces.
    ///
    /// Inverse of [`Matrix::hstack`] for equal widths; used to route gradients
    /// back to SIGN's per-hop branches.
    ///
    /// # Panics
    ///
    /// Panics if `cols` is not divisible by `parts`.
    pub fn hsplit(&self, parts: usize) -> Vec<Matrix> {
        assert!(
            parts > 0 && self.cols().is_multiple_of(parts),
            "cannot hsplit {} cols into {parts}",
            self.cols()
        );
        let w = self.cols() / parts;
        let mut out = vec![Matrix::zeros(self.rows(), w); parts];
        for r in 0..self.rows() {
            let src = self.row(r);
            for (p, piece) in out.iter_mut().enumerate() {
                piece.row_mut(r).copy_from_slice(&src[p * w..(p + 1) * w]);
            }
        }
        out
    }

    /// Gathers `indices` rows into a new matrix with **one fused pass**
    /// (the efficient batch-assembly primitive of Section 4.1).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols());
        self.gather_rows_into(indices, &mut out);
        out
    }

    /// Gathers `indices` rows into a pre-allocated buffer (the pinned staging
    /// tensor of the optimized loader), avoiding per-batch allocation.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not `indices.len() x self.cols()` or an index is out
    /// of bounds.
    pub fn gather_rows_into(&self, indices: &[usize], out: &mut Matrix) {
        assert_eq!(
            out.shape(),
            (indices.len(), self.cols()),
            "gather output buffer has wrong shape"
        );
        let cols = self.cols();
        let src = self.as_slice();
        let dst = out.as_mut_slice();
        for (k, &i) in indices.iter().enumerate() {
            assert!(
                i < self.rows(),
                "gather index {i} out of bounds ({} rows)",
                self.rows()
            );
            dst[k * cols..(k + 1) * cols].copy_from_slice(&src[i * cols..(i + 1) * cols]);
        }
    }

    /// Gathers `indices` rows into a **column block** of `out` starting at
    /// `col_offset` (`out[k, col_offset..col_offset + self.cols()] =
    /// self[indices[k], :]`).
    ///
    /// This is the fused gather-and-concatenate primitive of the streaming
    /// preprocessor: with `K` operators, operator `k`'s hop rows land at
    /// column offset `k·F` of the output, so the SIGN-style feature-wise
    /// concatenation never materializes intermediate per-operator matrices.
    ///
    /// # Panics
    ///
    /// Panics if `out` has fewer than `indices.len()` rows, the column block
    /// does not fit, or an index is out of bounds.
    pub fn gather_rows_into_offset(&self, indices: &[usize], out: &mut Matrix, col_offset: usize) {
        assert_eq!(
            out.rows(),
            indices.len(),
            "gather output row count disagrees with index count"
        );
        let cols = self.cols();
        assert!(
            col_offset + cols <= out.cols(),
            "column block {col_offset}..{} exceeds output width {}",
            col_offset + cols,
            out.cols()
        );
        let out_cols = out.cols();
        let src = self.as_slice();
        let dst = out.as_mut_slice();
        for (k, &i) in indices.iter().enumerate() {
            assert!(
                i < self.rows(),
                "gather index {i} out of bounds ({} rows)",
                self.rows()
            );
            dst[k * out_cols + col_offset..k * out_cols + col_offset + cols]
                .copy_from_slice(&src[i * cols..(i + 1) * cols]);
        }
    }

    /// Adds each row of `src` into row `indices[k]` of `self`
    /// (`self[indices[k], :] += src[k, :]`).
    ///
    /// This is the backward pass of a gather, used by embedding-style updates
    /// and by the block aggregation in `ppgnn-sampler`.
    ///
    /// # Panics
    ///
    /// Panics on column mismatch or out-of-bounds indices.
    pub fn scatter_add_rows(&mut self, indices: &[usize], src: &Matrix) {
        assert_eq!(self.cols(), src.cols(), "scatter_add column mismatch");
        assert_eq!(
            indices.len(),
            src.rows(),
            "scatter_add index-count mismatch"
        );
        let cols = self.cols();
        for (k, &i) in indices.iter().enumerate() {
            assert!(i < self.rows(), "scatter index {i} out of bounds");
            let row = src.row(k);
            let dst = &mut self.as_mut_slice()[i * cols..(i + 1) * cols];
            for (d, s) in dst.iter_mut().zip(row) {
                *d += s;
            }
        }
    }

    /// Row-wise softmax (stable: shifts by the row max).
    pub fn softmax_rows(&self) -> Matrix {
        let mut out = self.clone();
        for r in 0..out.rows() {
            let row = out.row_mut(r);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            let inv = 1.0 / sum;
            for v in row.iter_mut() {
                *v *= inv;
            }
        }
        out
    }

    /// Index of the maximum element in each row (ties resolve to the first).
    pub fn argmax_rows(&self) -> Vec<usize> {
        self.iter_rows()
            .map(|row| {
                row.iter()
                    .enumerate()
                    .fold((0usize, f32::NEG_INFINITY), |(bi, bv), (i, &v)| {
                        if v > bv {
                            (i, v)
                        } else {
                            (bi, bv)
                        }
                    })
                    .0
            })
            .collect()
    }

    /// Sum over all elements.
    pub fn sum(&self) -> f32 {
        self.as_slice().iter().sum()
    }

    /// Mean over all elements (0 for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Column-wise sum, producing a `1 x cols` matrix (bias gradients).
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols());
        for row in self.iter_rows() {
            for (o, v) in out.as_mut_slice().iter_mut().zip(row) {
                *o += v;
            }
        }
        out
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.as_slice().iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Largest absolute element-wise difference against `other`
    /// (`assert!(a.max_abs_diff(&b) < tol)` in tests).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!(self.shape(), other.shape(), "max_abs_diff shape mismatch");
        self.as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// L2-normalizes every row in place (rows with zero norm are left as-is).
    pub fn l2_normalize_rows(&mut self) {
        let cols = self.cols();
        for r in 0..self.rows() {
            let row = &mut self.as_mut_slice()[r * cols..(r + 1) * cols];
            let norm = row.iter().map(|v| v * v).sum::<f32>().sqrt();
            if norm > 0.0 {
                let inv = 1.0 / norm;
                for v in row {
                    *v *= inv;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m23() -> Matrix {
        Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32)
    }

    #[test]
    fn elementwise_ops() {
        let mut a = m23();
        let b = m23();
        a.add_assign(&b);
        assert_eq!(a.get(1, 2), 10.0);
        a.sub_assign(&b);
        assert_eq!(a, m23());
        a.axpy(2.0, &b);
        assert_eq!(a.get(0, 1), 3.0);
        a.scale(0.5);
        assert_eq!(a.get(0, 1), 1.5);
        let mut c = m23();
        c.mul_assign_elem(&b);
        assert_eq!(c.get(1, 1), 16.0);
    }

    #[test]
    fn transpose_involution() {
        let a = m23();
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), a.get(1, 2));
    }

    #[test]
    fn hstack_hsplit_round_trip() {
        let a = m23();
        let b = a.map(|v| v + 100.0);
        let cat = Matrix::hstack(&[&a, &b]);
        assert_eq!(cat.shape(), (2, 6));
        let parts = cat.hsplit(2);
        assert_eq!(parts[0], a);
        assert_eq!(parts[1], b);
    }

    #[test]
    fn vstack_stacks_rows() {
        let a = m23();
        let s = Matrix::vstack(&[&a, &a]);
        assert_eq!(s.shape(), (4, 3));
        assert_eq!(s.row(2), a.row(0));
    }

    #[test]
    fn gather_then_scatter_is_identity_on_distinct_rows() {
        let a = Matrix::from_fn(5, 2, |r, _| r as f32);
        let idx = [4usize, 0, 2];
        let g = a.gather_rows(&idx);
        assert_eq!(g.row(0), &[4.0, 4.0]);
        let mut z = Matrix::zeros(5, 2);
        z.scatter_add_rows(&idx, &g);
        for &i in &idx {
            assert_eq!(z.row(i), a.row(i));
        }
        assert_eq!(z.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn copy_from_overwrites_in_place() {
        let src = m23();
        let mut dst = Matrix::full(2, 3, -1.0);
        dst.copy_from(&src);
        assert_eq!(dst, src);
    }

    #[test]
    fn gather_rows_into_offset_fills_column_blocks() {
        let a = Matrix::from_fn(4, 2, |r, c| (r * 10 + c) as f32);
        let b = a.map(|v| v + 100.0);
        let mut out = Matrix::zeros(3, 4);
        let idx = [3usize, 0, 2];
        a.gather_rows_into_offset(&idx, &mut out, 0);
        b.gather_rows_into_offset(&idx, &mut out, 2);
        // Equivalent to hstack(gather(a), gather(b)).
        let expected = Matrix::hstack(&[&a.gather_rows(&idx), &b.gather_rows(&idx)]);
        assert_eq!(out, expected);
    }

    #[test]
    #[should_panic(expected = "column block")]
    fn gather_rows_into_offset_rejects_overflowing_block() {
        let a = Matrix::zeros(2, 3);
        let mut out = Matrix::zeros(1, 4);
        a.gather_rows_into_offset(&[0], &mut out, 2);
    }

    #[test]
    fn gather_into_reuses_buffer() {
        let a = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32);
        let mut buf = Matrix::zeros(2, 3);
        a.gather_rows_into(&[3, 1], &mut buf);
        assert_eq!(buf.row(0), a.row(3));
        assert_eq!(buf.row(1), a.row(1));
    }

    #[test]
    fn scatter_add_accumulates_duplicates() {
        let src = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0]]);
        let mut dst = Matrix::zeros(3, 2);
        dst.scatter_add_rows(&[1, 1], &src);
        assert_eq!(dst.row(1), &[3.0, 3.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one_and_order_preserved() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[1000.0, 1001.0, 999.0]]);
        let s = a.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // numerically stable on large logits
        assert!(s.row(1)[1] > s.row(1)[0] && s.row(1)[0] > s.row(1)[2]);
    }

    #[test]
    fn argmax_rows_first_tie_wins() {
        let a = Matrix::from_rows(&[&[0.0, 5.0, 5.0], &[3.0, 1.0, 2.0]]);
        assert_eq!(a.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn reductions() {
        let a = m23(); // 0..=5
        assert_eq!(a.sum(), 15.0);
        assert!((a.mean() - 2.5).abs() < 1e-6);
        let cs = a.sum_rows();
        assert_eq!(cs.as_slice(), &[3.0, 5.0, 7.0]);
        assert!((Matrix::eye(2).frobenius_norm() - 2.0_f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn l2_normalize_handles_zero_rows() {
        let mut a = Matrix::from_rows(&[&[3.0, 4.0], &[0.0, 0.0]]);
        a.l2_normalize_rows();
        assert!((a.row(0)[0] - 0.6).abs() < 1e-6);
        assert_eq!(a.row(1), &[0.0, 0.0]);
    }
}
