use crate::TensorError;

/// A dense, row-major `f32` matrix.
///
/// `Matrix` is the single tensor type used throughout the workspace. It is
/// deliberately plain: contiguous storage, no strides, no views — batches of
/// node features are always materialized as `[batch, feature]` matrices, and
/// the `[batch, tokens, feature]` input of the HOGA attention layer is stored
/// flattened as `[batch * tokens, feature]`.
///
/// # Example
///
/// ```
/// use ppgnn_tensor::Matrix;
///
/// let m = Matrix::from_fn(2, 2, |r, c| (r * 2 + c) as f32);
/// assert_eq!(m.get(1, 0), 2.0);
/// assert_eq!(m.row(1), &[2.0, 3.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, TensorError> {
        if data.len() != rows * cols {
            return Err(TensorError::ShapeMismatch {
                rows,
                cols,
                len: data.len(),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from a slice of equal-length rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows do not all share the same length.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        if rows.is_empty() {
            return Matrix::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), cols, "row {i} has length {} != {cols}", r.len());
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
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

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the matrix holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size of the backing buffer in bytes (used for placement accounting).
    #[inline]
    pub fn size_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `c >= cols`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `c >= cols`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c] = v;
    }

    /// Borrow of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The full row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the full row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns the backing buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Iterator over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Reinterprets the buffer with a new shape of equal element count.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::BadReshape`] if `rows * cols != self.len()`.
    pub fn reshape(self, rows: usize, cols: usize) -> Result<Self, TensorError> {
        if rows * cols != self.data.len() {
            return Err(TensorError::BadReshape {
                from: self.data.len(),
                to: rows * cols,
            });
        }
        Ok(Matrix {
            rows,
            cols,
            data: self.data,
        })
    }

    /// Reshapes `self` to `rows × cols` in place, reusing the existing
    /// allocation whenever its capacity suffices (element values are
    /// unspecified afterwards — callers overwrite them).
    ///
    /// This is the slot primitive behind the `forward_into` plumbing:
    /// output matrices handed down a model stack are resized instead of
    /// reallocated, so steady-state train/eval steps at a fixed batch
    /// shape perform no allocation, and a trailing odd-sized batch only
    /// shrinks the buffers (capacity is retained for the next epoch).
    pub fn resize_to(&mut self, rows: usize, cols: usize) {
        self.data.resize(rows * cols, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Keeps rows `0..rows` and releases the rest of the buffer, so a
    /// buffer whose leading rows are a result becomes that result without
    /// a copy (`shrink_to_fit`: allocators shrink large blocks in place).
    /// A no-op when `rows >= self.rows()`.
    pub fn truncate_rows(&mut self, rows: usize) {
        if rows < self.rows {
            self.data.truncate(rows * self.cols);
            self.data.shrink_to_fit();
            self.rows = rows;
        }
    }

    /// Copies rows `start..end` into a pre-allocated matrix — the
    /// allocation-free form of [`Matrix::slice_rows`] that batch loops
    /// (the trainer's evaluation pass) reuse a scratch matrix through.
    ///
    /// # Panics
    ///
    /// Panics if `start > end`, `end > rows`, or `out` is not
    /// `(end - start) x cols`.
    pub fn slice_rows_into(&self, start: usize, end: usize, out: &mut Matrix) {
        assert!(
            start <= end && end <= self.rows,
            "bad row range {start}..{end}"
        );
        assert_eq!(
            out.shape(),
            (end - start, self.cols),
            "slice_rows_into output shape mismatch"
        );
        out.data
            .copy_from_slice(&self.data[start * self.cols..end * self.cols]);
    }

    /// Returns a sub-matrix containing rows `start..end`.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > rows`.
    pub fn slice_rows(&self, start: usize, end: usize) -> Matrix {
        assert!(
            start <= end && end <= self.rows,
            "bad row range {start}..{end}"
        );
        Matrix {
            rows: end - start,
            cols: self.cols,
            data: self.data[start * self.cols..end * self.cols].to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree_on_shapes() {
        let z = Matrix::zeros(3, 4);
        assert_eq!(z.shape(), (3, 4));
        assert_eq!(z.len(), 12);
        assert!(z.as_slice().iter().all(|&x| x == 0.0));

        let f = Matrix::full(2, 2, 7.5);
        assert!(f.as_slice().iter().all(|&x| x == 7.5));

        let e = Matrix::eye(3);
        assert_eq!(e.get(0, 0), 1.0);
        assert_eq!(e.get(1, 0), 0.0);
        assert_eq!(e.get(2, 2), 1.0);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        let err = Matrix::from_vec(2, 2, vec![1.0; 3]).unwrap_err();
        assert!(matches!(err, TensorError::ShapeMismatch { len: 3, .. }));
    }

    #[test]
    fn from_fn_is_row_major() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    fn row_accessors_round_trip() {
        let mut m = Matrix::from_fn(3, 2, |r, c| (r + c) as f32);
        assert_eq!(m.row(2), &[2.0, 3.0]);
        m.row_mut(0)[1] = 9.0;
        assert_eq!(m.get(0, 1), 9.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
        let r = m.clone().reshape(3, 2).unwrap();
        assert_eq!(r.as_slice(), m.as_slice());
        assert!(m.reshape(4, 2).is_err());
    }

    #[test]
    fn slice_rows_copies_range() {
        let m = Matrix::from_fn(4, 2, |r, _| r as f32);
        let s = m.slice_rows(1, 3);
        assert_eq!(s.shape(), (2, 2));
        assert_eq!(s.row(0), &[1.0, 1.0]);
        assert_eq!(s.row(1), &[2.0, 2.0]);
    }

    #[test]
    fn slice_rows_into_matches_slice_rows_and_overwrites() {
        let m = Matrix::from_fn(5, 3, |r, c| (r * 3 + c) as f32);
        let mut out = Matrix::full(2, 3, -1.0);
        m.slice_rows_into(2, 4, &mut out);
        assert_eq!(out, m.slice_rows(2, 4));
    }

    #[test]
    #[should_panic(expected = "output shape mismatch")]
    fn slice_rows_into_rejects_wrong_shape() {
        let m = Matrix::zeros(4, 2);
        let mut out = Matrix::zeros(3, 2);
        m.slice_rows_into(0, 2, &mut out);
    }

    #[test]
    fn resize_to_reuses_capacity_and_tracks_shape() {
        let mut m = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f32);
        let cap = m.data.capacity();
        m.resize_to(2, 3);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.len(), 6);
        assert_eq!(m.data.capacity(), cap, "shrinking must keep the buffer");
        m.resize_to(4, 4);
        assert_eq!(m.shape(), (4, 4));
        assert_eq!(m.data.capacity(), cap, "regrowing within capacity is free");
    }

    #[test]
    fn truncate_rows_keeps_the_head_and_releases_the_tail() {
        let mut m = Matrix::from_fn(6, 3, |r, c| (r * 3 + c) as f32);
        let head = m.slice_rows(0, 2);
        m.truncate_rows(2);
        assert_eq!(m, head);
        assert_eq!(m.data.capacity(), 6);
        m.truncate_rows(5);
        assert_eq!(m.shape(), (2, 3));
    }

    #[test]
    fn empty_matrix_is_well_behaved() {
        let m = Matrix::zeros(0, 5);
        assert!(m.is_empty());
        assert_eq!(m.iter_rows().count(), 0);
        let m2 = Matrix::from_rows(&[]);
        assert_eq!(m2.shape(), (0, 0));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        Matrix::zeros(2, 2).get(2, 0);
    }
}
