//! Binary (de)serialization of matrices.
//!
//! Format (little-endian):
//!
//! ```text
//! magic   4 bytes  b"PPGT"
//! version u32      currently 1
//! rows    u64
//! cols    u64
//! data    rows*cols f32
//! ```
//!
//! This is the on-disk record used by `ppgnn-dataio`'s feature store; the
//! row-major payload means a contiguous row range of the file *is* a chunk of
//! node features, which is what makes chunked sequential reads (Section 4.3)
//! possible.
//!
//! ```
//! use ppgnn_tensor::{io, Matrix};
//!
//! let m = Matrix::from_fn(3, 2, |r, c| (r + c) as f32);
//! let mut buf = Vec::new();
//! io::write_matrix(&mut buf, &m)?;
//! let back = io::read_matrix(&mut buf.as_slice())?;
//! assert_eq!(m, back);
//! # Ok::<(), ppgnn_tensor::TensorError>(())
//! ```

use std::io::{Read, Write};

use crate::{Matrix, TensorError};

const MAGIC: &[u8; 4] = b"PPGT";
const VERSION: u32 = 1;

/// Size in bytes of the fixed header preceding the payload.
pub const HEADER_BYTES: usize = 4 + 4 + 8 + 8;

/// Writes `m` to `w` in the `PPGT` binary format.
///
/// A `&mut` reference to any writer can be passed.
///
/// # Errors
///
/// Propagates I/O failures as [`TensorError::Io`].
pub fn write_matrix<W: Write>(mut w: W, m: &Matrix) -> Result<(), TensorError> {
    w.write_all(&header_bytes(m.rows(), m.cols()))?;
    let mut buf = Vec::with_capacity(m.len() * 4);
    for v in m.as_slice() {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    w.write_all(&buf)?;
    Ok(())
}

/// The header [`write_matrix`] writes for a `rows × cols` matrix — for
/// writers that stage the little-endian payload themselves.
pub fn header_bytes(rows: usize, cols: usize) -> [u8; HEADER_BYTES] {
    let mut h = [0u8; HEADER_BYTES];
    h[..4].copy_from_slice(MAGIC);
    h[4..8].copy_from_slice(&VERSION.to_le_bytes());
    h[8..16].copy_from_slice(&(rows as u64).to_le_bytes());
    h[16..].copy_from_slice(&(cols as u64).to_le_bytes());
    h
}

/// Reads a matrix previously written by [`write_matrix`].
///
/// A `&mut` reference to any reader can be passed.
///
/// # Errors
///
/// Returns [`TensorError::BadHeader`] on a magic/version mismatch or an
/// implausible shape, and [`TensorError::Io`] on short reads.
pub fn read_matrix<R: Read>(mut r: R) -> Result<Matrix, TensorError> {
    let (rows, cols) = read_header(&mut r)?;
    let mut bytes = vec![0u8; rows * cols * 4];
    r.read_exact(&mut bytes)?;
    let data = bytes
        .chunks_exact(4)
        .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// Reads and validates only the header, returning `(rows, cols)`.
///
/// The feature store uses this to learn a file's shape without loading the
/// payload, then seeks directly to row ranges.
///
/// # Errors
///
/// Same failure modes as [`read_matrix`].
pub fn read_header<R: Read>(mut r: R) -> Result<(usize, usize), TensorError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(TensorError::BadHeader(format!(
            "bad magic {magic:?}, expected {MAGIC:?}"
        )));
    }
    let mut v = [0u8; 4];
    r.read_exact(&mut v)?;
    let version = u32::from_le_bytes(v);
    if version != VERSION {
        return Err(TensorError::BadHeader(format!(
            "unsupported version {version}"
        )));
    }
    let mut dim = [0u8; 8];
    r.read_exact(&mut dim)?;
    let rows = u64::from_le_bytes(dim) as usize;
    r.read_exact(&mut dim)?;
    let cols = u64::from_le_bytes(dim) as usize;
    // Guard against garbage shapes that would trigger enormous allocations.
    const MAX_ELEMS: usize = 1 << 40;
    if rows.saturating_mul(cols) > MAX_ELEMS {
        return Err(TensorError::BadHeader(format!(
            "implausible shape {rows}x{cols}"
        )));
    }
    Ok((rows, cols))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_preserves_bits() {
        let m = Matrix::from_fn(4, 3, |r, c| (r as f32).powf(c as f32 + 0.5) - 1.25);
        let mut buf = Vec::new();
        write_matrix(&mut buf, &m).unwrap();
        assert_eq!(buf.len(), HEADER_BYTES + m.len() * 4);
        let back = read_matrix(&mut buf.as_slice()).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn empty_matrix_round_trips() {
        let m = Matrix::zeros(0, 7);
        let mut buf = Vec::new();
        write_matrix(&mut buf, &m).unwrap();
        let back = read_matrix(&mut buf.as_slice()).unwrap();
        assert_eq!(back.shape(), (0, 7));
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut buf = Vec::new();
        write_matrix(&mut buf, &Matrix::eye(2)).unwrap();
        buf[0] = b'X';
        let err = read_matrix(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, TensorError::BadHeader(_)));
    }

    #[test]
    fn bad_version_is_rejected() {
        let mut buf = Vec::new();
        write_matrix(&mut buf, &Matrix::eye(2)).unwrap();
        buf[4] = 99;
        assert!(matches!(
            read_matrix(&mut buf.as_slice()),
            Err(TensorError::BadHeader(_))
        ));
    }

    #[test]
    fn truncated_payload_is_io_error() {
        let mut buf = Vec::new();
        write_matrix(&mut buf, &Matrix::eye(4)).unwrap();
        buf.truncate(buf.len() - 5);
        assert!(matches!(
            read_matrix(&mut buf.as_slice()),
            Err(TensorError::Io(_))
        ));
    }

    #[test]
    fn header_only_read_reports_shape() {
        let mut buf = Vec::new();
        write_matrix(&mut buf, &Matrix::zeros(5, 9)).unwrap();
        let (r, c) = read_header(&mut buf.as_slice()).unwrap();
        assert_eq!((r, c), (5, 9));
    }
}
