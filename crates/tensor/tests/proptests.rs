//! Property-based tests for the tensor kernels.

use ppgnn_tensor::{
    block, cast, compiled_kernels, io, matmul, matmul_nt, matmul_tn, reference,
    set_parallel_threshold, Matrix, StoreDtype,
};
use proptest::prelude::*;

/// Serializes property cases that flip the global parallel threshold, so
/// concurrently running cases don't observe each other's overrides
/// mid-kernel (any threshold is *correct*, but each case wants to pin the
/// path it claims to exercise).
static KNOB_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Strategy: a matrix with dimensions in `1..=max_dim` and small values.
fn matrix(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        prop::collection::vec(-8.0f32..8.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data).expect("sized by construction"))
    })
}

/// Strategy: a compatible (A, B) pair for `A · B`.
fn matmul_pair(max_dim: usize) -> impl Strategy<Value = (Matrix, Matrix)> {
    (1..=max_dim, 1..=max_dim, 1..=max_dim).prop_flat_map(|(m, k, n)| {
        (
            prop::collection::vec(-4.0f32..4.0, m * k),
            prop::collection::vec(-4.0f32..4.0, k * n),
        )
            .prop_map(move |(a, b)| {
                (
                    Matrix::from_vec(m, k, a).expect("sized"),
                    Matrix::from_vec(k, n, b).expect("sized"),
                )
            })
    })
}

/// Deterministic LCG-filled matrix in `±0.25` — drawing tens of
/// thousands of proptest values per KC-boundary case would dominate the
/// suite's runtime, and the interesting structure here is the *shape*.
fn seeded_mat(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(99);
    Matrix::from_fn(rows, cols, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5) * 0.5
    })
}

/// Shapes straddling every packing boundary of the blocked GEMM: `m`
/// around the `MR` register-tile edge, `n` around `NR` — wide enough to
/// also cross the AVX-512 kernel's doubled `2*NR` tile — and `k` either
/// small or hugging the `KC` panel edges (one and two full panels ± 1).
fn edge_tail_dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (
        1usize..=2 * block::MR + 1,
        1usize..=4 * block::NR + 1,
        0usize..3,
        1usize..=2 * block::NR + 1,
    )
        .prop_map(|(m, n, k_class, k_small)| {
            let k = match k_class {
                0 => k_small,
                1 => block::DEFAULT_KC - 1 + k_small % 3,
                _ => 2 * block::DEFAULT_KC - 1 + k_small % 3,
            };
            (m, n, k)
        })
}

fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut acc = 0.0f64;
            for k in 0..a.cols() {
                acc += a.get(i, k) as f64 * b.get(k, j) as f64;
            }
            c.set(i, j, acc as f32);
        }
    }
    c
}

proptest! {
    #[test]
    fn packed_kernels_match_retained_reference_at_edge_tails(
        (m, n, k) in edge_tail_dims(),
        seed in 0u64..1_000_000,
        pooled in 0u8..2,
    ) {
        let a = seeded_mat(m, k, seed);
        let b = seeded_mat(k, n, seed ^ 0x9e3779b97f4a7c15);
        let at = a.transpose();
        let bt = b.transpose();
        // The retained naive reference is the pre-blocking kernel; every
        // compiled-in micro-kernel this host can run must match it on
        // both execution paths.
        let expect = reference::matmul(&a, &b);
        let guard = KNOB_LOCK.lock().unwrap();
        set_parallel_threshold(if pooled == 1 { 0 } else { usize::MAX });
        for &kind in compiled_kernels() {
            if !kind.is_supported() {
                continue;
            }
            block::set_kernel(Some(kind));
            let nn = matmul(&a, &b);
            let tn = matmul_tn(&at, &b);
            let nt = matmul_nt(&a, &bt);
            let name = kind.name();
            prop_assert!(nn.max_abs_diff(&expect) < 1e-4, "{name} nn {m}x{k}x{n} pooled={pooled}");
            prop_assert!(tn.max_abs_diff(&expect) < 1e-4, "{name} tn {m}x{k}x{n} pooled={pooled}");
            prop_assert!(nt.max_abs_diff(&expect) < 1e-4, "{name} nt {m}x{k}x{n} pooled={pooled}");
        }
        block::set_kernel(None);
        set_parallel_threshold(ppgnn_tensor::pool::DEFAULT_PARALLEL_THRESHOLD);
        drop(guard);
    }

    #[test]
    fn gemm_matches_naive((a, b) in matmul_pair(12)) {
        let fast = matmul(&a, &b);
        let slow = naive_matmul(&a, &b);
        prop_assert!(fast.max_abs_diff(&slow) < 1e-3);
    }

    #[test]
    fn tn_equals_explicit_transpose((a, b) in matmul_pair(10)) {
        // A: m x k. Use Aᵀ (k x m) as the `tn` operand so shapes line up.
        let at = a.transpose();
        let via_tn = matmul_tn(&at, &b);
        let direct = matmul(&a, &b);
        prop_assert!(via_tn.max_abs_diff(&direct) < 1e-3);
    }

    #[test]
    fn nt_equals_explicit_transpose((a, b) in matmul_pair(10)) {
        let bt = b.transpose();
        let via_nt = matmul_nt(&a, &bt);
        let direct = matmul(&a, &b);
        prop_assert!(via_nt.max_abs_diff(&direct) < 1e-3);
    }

    #[test]
    fn transpose_is_involution(m in matrix(16)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn gather_picks_exact_rows(m in matrix(16), seed in 0u64..1000) {
        let mut idx = Vec::new();
        let mut s = seed;
        for _ in 0..m.rows() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            idx.push((s >> 33) as usize % m.rows());
        }
        let g = m.gather_rows(&idx);
        for (k, &i) in idx.iter().enumerate() {
            prop_assert_eq!(g.row(k), m.row(i));
        }
    }

    #[test]
    fn hstack_hsplit_round_trip(m in matrix(8), parts in 1usize..4) {
        // widen m so cols divide evenly
        let wide = Matrix::hstack(&vec![&m; parts]);
        let split = wide.hsplit(parts);
        for piece in split {
            prop_assert_eq!(piece, m.clone());
        }
    }

    #[test]
    fn softmax_rows_are_distributions(m in matrix(12)) {
        let s = m.softmax_rows();
        for row in s.iter_rows() {
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(row.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn io_round_trip(m in matrix(16)) {
        let mut buf = Vec::new();
        io::write_matrix(&mut buf, &m).expect("write to Vec cannot fail");
        let back = io::read_matrix(&mut buf.as_slice()).expect("fresh buffer parses");
        prop_assert_eq!(back, m);
    }

    #[test]
    fn scatter_add_conserves_mass(m in matrix(10)) {
        let idx: Vec<usize> = (0..m.rows()).collect();
        let mut dst = Matrix::zeros(m.rows(), m.cols());
        dst.scatter_add_rows(&idx, &m);
        prop_assert!((dst.sum() - m.sum()).abs() < 1e-3 * (1.0 + m.sum().abs()));
    }
}

// ---------------------------------------------------------------------------
// Store-dtype cast kernels (`ppgnn_tensor::cast`)
// ---------------------------------------------------------------------------

/// Strategy: a `(values, cols)` chunk whose column count straddles the
/// 8-wide SIMD body and its scalar tail. Values mix the everyday feature
/// range with tiny magnitudes so the half formats see subnormals.
fn chunk(max_abs: f32) -> impl Strategy<Value = (Vec<f32>, usize)> {
    (1usize..=6, 1usize..=19).prop_flat_map(move |(rows, cols)| {
        // The vendored proptest has no `prop_oneof!`; a drawn class byte
        // picks between everyday magnitudes, tiny ones, and exact zero.
        let value = (-1.0f32..1.0, 0u8..6).prop_map(move |(v, class)| match class {
            0 => v * 1e-5,
            1 => 0.0,
            _ => v * max_abs,
        });
        (prop::collection::vec(value, rows * cols), Just(cols))
    })
}

fn roundtrip(dtype: StoreDtype, values: &[f32], cols: usize) -> Vec<f32> {
    let rows = values.len() / cols;
    let mut enc = vec![0u8; rows * dtype.encoded_row_bytes(cols)];
    cast::encode_rows(dtype, values, cols, &mut enc);
    let mut dec = vec![0.0f32; values.len()];
    cast::decode_rows(dtype, &enc, cols, &mut dec);
    dec
}

proptest! {
    /// `f32` is the identity encoding: bit-exact round trip.
    #[test]
    fn f32_store_roundtrip_is_bit_exact((values, cols) in chunk(1e30)) {
        for (v, d) in values.iter().zip(roundtrip(StoreDtype::F32, &values, cols)) {
            prop_assert_eq!(v.to_bits(), d.to_bits());
        }
    }

    /// `f16` keeps 11 significand bits: round-to-nearest error is at most
    /// half an ulp (`|v|·2⁻¹¹` for normals), plus the `2⁻²⁵` half-ulp of
    /// the subnormal floor.
    #[test]
    fn f16_store_roundtrip_within_half_ulp((values, cols) in chunk(30_000.0)) {
        for (v, d) in values.iter().zip(roundtrip(StoreDtype::F16, &values, cols)) {
            let tol = v.abs() / 2048.0 + 3.1e-8;
            prop_assert!((v - d).abs() <= tol, "{v} -> {d}");
        }
    }

    /// `bf16` keeps 8 significand bits but the full f32 exponent range:
    /// error at most `|v|·2⁻⁸` at any magnitude.
    #[test]
    fn bf16_store_roundtrip_within_half_ulp((values, cols) in chunk(1e30)) {
        for (v, d) in values.iter().zip(roundtrip(StoreDtype::Bf16, &values, cols)) {
            let tol = v.abs() / 256.0 + 1e-40;
            prop_assert!((v - d).abs() <= tol, "{v} -> {d}");
        }
    }

    /// `int8` quantizes each row onto a 256-step grid over its own
    /// `[min, max]` range: error at most half a step (plus the f32
    /// rounding of the affine map itself).
    #[test]
    fn int8_store_roundtrip_within_half_step((values, cols) in chunk(1e4)) {
        let decoded = roundtrip(StoreDtype::Int8, &values, cols);
        for (row, drow) in values.chunks_exact(cols).zip(decoded.chunks_exact(cols)) {
            let (scale, zero) = cast::scalar::int8_row_params(row);
            let tol = scale * 0.5001 + 2.0 * f32::EPSILON * (zero.abs() + scale * 255.0);
            for (v, d) in row.iter().zip(drow) {
                prop_assert!((v - d).abs() <= tol, "{v} -> {d} (scale {scale})");
            }
        }
    }

    /// Degenerate rows — constant, all-zero, or so tight the step
    /// underflows — take the `scale = 0` path and decode **exactly**.
    #[test]
    fn int8_constant_rows_decode_exactly(
        c in (-1e30f32..1e30, 0u8..5).prop_map(|(v, z)| if z == 0 { 0.0 } else { v }),
        cols in 1usize..=19,
        rows in 1usize..=4,
    ) {
        let values = vec![c; rows * cols];
        for (v, d) in values.iter().zip(roundtrip(StoreDtype::Int8, &values, cols)) {
            prop_assert_eq!(v.to_bits(), d.to_bits());
        }
    }

    /// The dispatched (possibly SIMD) kernels must be **bit-identical**
    /// to the forced-scalar reference on every dtype: same encoded
    /// bytes, same decoded f32 bit patterns. This is what makes stores
    /// portable across machines with different SIMD support.
    #[test]
    fn dispatched_cast_kernels_match_scalar_bitwise((values, cols) in chunk(60_000.0)) {
        let rows = values.len() / cols;
        for dtype in StoreDtype::ALL {
            let nbytes = rows * dtype.encoded_row_bytes(cols);
            let (mut fast, mut slow) = (vec![0u8; nbytes], vec![0u8; nbytes]);
            cast::encode_rows(dtype, &values, cols, &mut fast);
            cast::scalar::encode_rows(dtype, &values, cols, &mut slow);
            prop_assert_eq!(&fast, &slow, "{} encode ({} active)", dtype, cast::active_backend_name());
            let (mut dfast, mut dslow) = (vec![0.0f32; values.len()], vec![0.0f32; values.len()]);
            cast::decode_rows(dtype, &fast, cols, &mut dfast);
            cast::scalar::decode_rows(dtype, &fast, cols, &mut dslow);
            for (a, b) in dfast.iter().zip(&dslow) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "{} decode", dtype);
            }
        }
    }
}
