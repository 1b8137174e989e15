//! Weighted row gathers: the row kernel of the sparse × dense product.
//!
//! One output row of `Y = S · X` is `out[j] = Σ_e w_e · x[c_e, col0 + j]`
//! over the row's non-zeros `(c_e, w_e)`. [`GatherKernel`] computes it on
//! the backend [`block::kernel`] dispatches — the GEMM's selection:
//! [`block::set_kernel`], then `PPGNN_FORCE_KERNEL`, then the widest
//! backend the CPU supports:
//!
//! * **AVX-512** — strips of up to 128 columns held in eight `zmm`
//!   accumulators for the whole walk of the row's non-zeros; the last
//!   vector of a strip is a masked load and a masked store.
//! * **AVX2** — strips of 64 columns in eight `ymm` accumulators; the
//!   columns past the last whole vector are scalar accumulators in the
//!   same walk.
//! * **Portable** — [`block::SPMM_COL_BLOCK`]-column strips accumulated in
//!   the output row itself.
//!
//! # Bit-identity
//!
//! Every backend computes every element as the same sum: it starts at
//! `+0.0` and takes `acc = acc + (w · x)` — a rounded multiply, then a
//! rounded add, never fused — over the non-zeros in the order given. The
//! SIMD kernels enable `avx512f` / `avx2` only, never `fma`, so neither
//! the intrinsics nor their scalar tails can contract. Backends, strip
//! widths and row splits therefore change no output bit.

use crate::gemm::{block, KernelKind};

/// A gather backend the running CPU was checked to support: the only way
/// to reach the SIMD row kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatherKernel {
    /// Invariant: `kind.is_supported()`.
    kind: KernelKind,
}

impl GatherKernel {
    /// The backend [`block::kernel`] dispatches. Resolve it once per
    /// product and hand it to every row.
    ///
    /// # Panics
    ///
    /// Panics if the dispatched backend is not supported by this CPU —
    /// [`block::kernel`] never returns one.
    pub fn dispatched() -> GatherKernel {
        let kind = block::kernel();
        assert!(
            kind.is_supported(),
            "dispatched the {} kernel on a CPU that lacks it",
            kind.name()
        );
        GatherKernel { kind }
    }

    /// The backend this kernel runs.
    pub fn kind(self) -> KernelKind {
        self.kind
    }

    /// Overwrites `out` with `Σ_e weights[e] · x[indices[e] · ld + col0 ..][..out.len()]`,
    /// the non-zeros summed in the order given (see the module docs for
    /// the exact arithmetic).
    ///
    /// `x` holds rows of `ld` values; the gather reads columns
    /// `col0..col0 + out.len()` of each row `indices` names.
    ///
    /// # Panics
    ///
    /// Panics if `indices` and `weights` differ in length, if the column
    /// window `col0..col0 + out.len()` exceeds `ld`, or if a gathered row
    /// window lies past the end of `x`. Every non-zero's row is checked
    /// before any is read.
    pub fn weighted_rows_into(
        self,
        indices: &[u32],
        weights: &[f32],
        x: &[f32],
        ld: usize,
        col0: usize,
        out: &mut [f32],
    ) {
        assert_eq!(
            indices.len(),
            weights.len(),
            "gather indices and weights differ in length"
        );
        let f = out.len();
        if f == 0 {
            return;
        }
        assert!(
            col0.checked_add(f).is_some_and(|end| end <= ld),
            "gather window {col0}..{col0}+{f} exceeds row width {ld}"
        );
        // Row windows end at `c · ld + col0 + f`, increasing in `c`, so the
        // largest index bounds every non-zero's window.
        if let Some(&c) = indices.iter().max() {
            let end = (c as usize)
                .checked_mul(ld)
                .and_then(|at| at.checked_add(col0 + f));
            assert!(
                end.is_some_and(|end| end <= x.len()),
                "gathered row {c} (width {ld}) lies past the {} input values",
                x.len()
            );
        }
        match self.kind {
            KernelKind::Portable => weighted_rows_portable(indices, weights, x, ld, col0, out),
            // SAFETY: `kind` was checked supported when `self` was built,
            // and every gathered row window `c · ld + col0 .. + f` was
            // just checked to lie inside `x`.
            #[cfg(target_arch = "x86_64")]
            KernelKind::Avx2 => unsafe { weighted_rows_avx2(indices, weights, x, ld, col0, out) },
            // SAFETY: as above.
            #[cfg(target_arch = "x86_64")]
            KernelKind::Avx512 => unsafe {
                weighted_rows_avx512(indices, weights, x, ld, col0, out)
            },
            #[cfg(not(target_arch = "x86_64"))]
            _ => unreachable!("SIMD backends are never dispatched off x86-64"),
        }
    }
}

/// The baseline-ISA row: [`block::SPMM_COL_BLOCK`]-column strips summed in
/// `out` itself, a narrow leftover absorbed into the final strip.
fn weighted_rows_portable(
    indices: &[u32],
    weights: &[f32],
    x: &[f32],
    ld: usize,
    col0: usize,
    out: &mut [f32],
) {
    const COLS: usize = block::SPMM_COL_BLOCK;
    out.fill(0.0);
    let f = out.len();
    let mut j0 = 0;
    while j0 < f {
        // Absorb small tails into the final strip: a narrow leftover
        // strip would re-walk the row's non-zeros for a sliver of work
        // (f = F+1 is common — pokec's 65 features).
        let rest = f - j0;
        let strip = if rest <= COLS + COLS / 4 { rest } else { COLS };
        let out_strip = &mut out[j0..j0 + strip];
        for (&c, &w) in indices.iter().zip(weights) {
            let at = c as usize * ld + col0 + j0;
            let x_strip = &x[at..at + strip];
            for (o, v) in out_strip.iter_mut().zip(x_strip) {
                *o += w * v;
            }
        }
        j0 += strip;
    }
}

/// The AVX-512 row: strips of up to [`AVX512_STRIP`] columns.
///
/// # Safety
///
/// The running CPU must support AVX-512F, and `c · ld + col0 + out.len()
/// <= x.len()` must hold for every `c` in `indices`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn weighted_rows_avx512(
    indices: &[u32],
    weights: &[f32],
    x: &[f32],
    ld: usize,
    col0: usize,
    out: &mut [f32],
) {
    const LANES: usize = 16;
    let f = out.len();
    let mut j0 = 0;
    while j0 < f {
        let cols = (f - j0).min(AVX512_STRIP);
        let vecs = cols.div_ceil(LANES);
        let last = cols - (vecs - 1) * LANES;
        let mask = (u32::MAX >> (32 - last)) as u16;
        let dst = &mut out[j0..j0 + cols];
        let at = col0 + j0;
        // SAFETY: forwarded from the caller; `dst` is exactly the strip's
        // `cols` columns, `vecs` vectors of which the last holds `last`.
        unsafe {
            match vecs {
                1 => strip_avx512::<1>(indices, weights, x, ld, at, mask, dst),
                2 => strip_avx512::<2>(indices, weights, x, ld, at, mask, dst),
                3 => strip_avx512::<3>(indices, weights, x, ld, at, mask, dst),
                4 => strip_avx512::<4>(indices, weights, x, ld, at, mask, dst),
                5 => strip_avx512::<5>(indices, weights, x, ld, at, mask, dst),
                6 => strip_avx512::<6>(indices, weights, x, ld, at, mask, dst),
                7 => strip_avx512::<7>(indices, weights, x, ld, at, mask, dst),
                _ => strip_avx512::<8>(indices, weights, x, ld, at, mask, dst),
            }
        }
        j0 += cols;
    }
}

/// Widest AVX-512 strip: eight `zmm` accumulators. Sixteen spill.
#[cfg(target_arch = "x86_64")]
const AVX512_STRIP: usize = 8 * 16;

/// One AVX-512 strip of `V` vectors: columns `at..at + dst.len()` of every
/// gathered row, summed in registers, then stored once. Lanes past `mask`
/// in the last vector are neither loaded nor stored.
///
/// # Safety
///
/// The running CPU must support AVX-512F, `dst` must hold
/// `16 · (V - 1) + mask.count_ones()` values with `mask` a non-empty
/// prefix, and `c · ld + at + dst.len() <= x.len()` must hold for every
/// `c` in `indices`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn strip_avx512<const V: usize>(
    indices: &[u32],
    weights: &[f32],
    x: &[f32],
    ld: usize,
    at: usize,
    mask: u16,
    dst: &mut [f32],
) {
    use core::arch::x86_64::*;
    debug_assert_eq!(dst.len(), 16 * (V - 1) + mask.count_ones() as usize);
    // SAFETY: the caller proved every row window `c · ld + at ..
    // + dst.len()` inside `x`; full vectors cover the window's first
    // `16 · (V - 1)` values and the masked one only its `mask` lanes, and
    // the stores cover exactly `dst`.
    unsafe {
        let mut acc = [_mm512_setzero_ps(); V];
        for (&c, &w) in indices.iter().zip(weights) {
            let row = x.as_ptr().add(c as usize * ld + at);
            let wv = _mm512_set1_ps(w);
            for (v, slot) in acc.iter_mut().enumerate().take(V - 1) {
                let xv = _mm512_loadu_ps(row.add(16 * v));
                *slot = _mm512_add_ps(*slot, _mm512_mul_ps(wv, xv));
            }
            let xv = _mm512_maskz_loadu_ps(mask, row.add(16 * (V - 1)));
            acc[V - 1] = _mm512_add_ps(acc[V - 1], _mm512_mul_ps(wv, xv));
        }
        let out = dst.as_mut_ptr();
        for (v, slot) in acc.iter().enumerate().take(V - 1) {
            _mm512_storeu_ps(out.add(16 * v), *slot);
        }
        _mm512_mask_storeu_ps(out.add(16 * (V - 1)), mask, acc[V - 1]);
    }
}

/// The AVX2 row: strips of up to eight `ymm` vectors; the `f mod 8`
/// columns past the last whole vector ride along the final strip's walk
/// as scalar accumulators.
///
/// # Safety
///
/// The running CPU must support AVX2, and `c · ld + col0 + out.len()
/// <= x.len()` must hold for every `c` in `indices`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn weighted_rows_avx2(
    indices: &[u32],
    weights: &[f32],
    x: &[f32],
    ld: usize,
    col0: usize,
    out: &mut [f32],
) {
    const LANES: usize = 8;
    let f = out.len();
    let whole = f / LANES * LANES;
    let mut j0 = 0;
    loop {
        let vecs = ((whole - j0) / LANES).min(8);
        let cols = vecs * LANES;
        // The tail goes with the last strip (or alone when `f < 8`).
        let cols = if j0 + cols == whole { f - j0 } else { cols };
        let dst = &mut out[j0..j0 + cols];
        let at = col0 + j0;
        // SAFETY: forwarded from the caller; `dst` is `vecs` whole
        // vectors plus, on the last strip, the scalar tail.
        unsafe {
            match vecs {
                0 => strip_avx2::<0>(indices, weights, x, ld, at, dst),
                1 => strip_avx2::<1>(indices, weights, x, ld, at, dst),
                2 => strip_avx2::<2>(indices, weights, x, ld, at, dst),
                3 => strip_avx2::<3>(indices, weights, x, ld, at, dst),
                4 => strip_avx2::<4>(indices, weights, x, ld, at, dst),
                5 => strip_avx2::<5>(indices, weights, x, ld, at, dst),
                6 => strip_avx2::<6>(indices, weights, x, ld, at, dst),
                7 => strip_avx2::<7>(indices, weights, x, ld, at, dst),
                _ => strip_avx2::<8>(indices, weights, x, ld, at, dst),
            }
        }
        j0 += cols;
        if j0 == f {
            break;
        }
    }
}

/// One AVX2 strip of `V` whole vectors plus `dst.len() - 8 · V` (< 8)
/// scalar columns, all summed in registers and stored once.
///
/// # Safety
///
/// The running CPU must support AVX2, `dst.len()` must lie in `8 · V ..
/// 8 · V + 8`, and `c · ld + at + dst.len() <= x.len()` must hold for
/// every `c` in `indices`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn strip_avx2<const V: usize>(
    indices: &[u32],
    weights: &[f32],
    x: &[f32],
    ld: usize,
    at: usize,
    dst: &mut [f32],
) {
    use core::arch::x86_64::*;
    let tail = dst.len() - 8 * V;
    debug_assert!(tail < 8);
    // SAFETY: the caller proved every row window `c · ld + at ..
    // + dst.len()` inside `x`; the vectors cover its first `8 · V` values
    // and the scalar reads the `tail` after them, and the stores cover
    // exactly `dst`.
    unsafe {
        let mut acc = [_mm256_setzero_ps(); V];
        let mut rest = [0.0f32; 8];
        for (&c, &w) in indices.iter().zip(weights) {
            let row = x.as_ptr().add(c as usize * ld + at);
            let wv = _mm256_set1_ps(w);
            for (v, slot) in acc.iter_mut().enumerate() {
                let xv = _mm256_loadu_ps(row.add(8 * v));
                *slot = _mm256_add_ps(*slot, _mm256_mul_ps(wv, xv));
            }
            for (t, slot) in rest.iter_mut().enumerate().take(tail) {
                *slot += w * *row.add(8 * V + t);
            }
        }
        let out = dst.as_mut_ptr();
        for (v, slot) in acc.iter().enumerate() {
            _mm256_storeu_ps(out.add(8 * v), *slot);
        }
        dst[8 * V..].copy_from_slice(&rest[..tail]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::compiled_kernels;
    use crate::pool::{BlockOut, RowBlocks, TEST_THRESHOLD_LOCK};
    use crate::WorkerPool;

    /// Feature widths around every strip and vector boundary of the three
    /// backends (8-, 16-, 64- and 128-wide).
    const WIDTHS: [usize; 21] = [
        1, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65, 80, 81, 100, 127, 128, 129, 255, 256, 257, 1024,
    ];

    /// Input rows of every test operator.
    const N: usize = 96;

    /// A CSR operator as the three raw arrays the kernel reads.
    struct Csr {
        indptr: Vec<usize>,
        indices: Vec<u32>,
        weights: Vec<f32>,
    }

    impl Csr {
        fn from_rows(rows: Vec<Vec<(u32, f32)>>) -> Csr {
            let mut csr = Csr {
                indptr: vec![0],
                indices: Vec::new(),
                weights: Vec::new(),
            };
            for row in rows {
                for (c, w) in row {
                    csr.indices.push(c);
                    csr.weights.push(w);
                }
                csr.indptr.push(csr.indices.len());
            }
            csr
        }

        fn row(&self, r: usize) -> (&[u32], &[f32]) {
            let (lo, hi) = (self.indptr[r], self.indptr[r + 1]);
            (&self.indices[lo..hi], &self.weights[lo..hi])
        }
    }

    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    /// A weight in `[-1.5, 1.5)`, now and then ±0 or subnormal.
    fn weight(state: &mut u64) -> f32 {
        match lcg(state) % 16 {
            0 => 0.0,
            1 => -0.0,
            2 => f32::from_bits(0x0000_0421),
            _ => (lcg(state) % 3000) as f32 / 1000.0 - 1.5,
        }
    }

    /// Star hub, path, rows without self-loops left empty, and a random
    /// power-law operator (low ids drawn most often, hub rows longest).
    fn operators() -> Vec<(&'static str, Csr)> {
        let n = N as u32;
        let mut s = 7u64;
        let star = (0..n)
            .map(|r| {
                if r == 0 {
                    (0..n).map(|c| (c, 1.0 / (1.0 + c as f32))).collect()
                } else {
                    vec![(0, 0.3), (r, 0.7)]
                }
            })
            .collect();
        let path = (0..n)
            .map(|r| {
                (r.saturating_sub(1)..(r + 2).min(n))
                    .map(|c| (c, weight(&mut s)))
                    .collect()
            })
            .collect();
        let isolated = (0..n)
            .map(|r| {
                if r % 3 == 1 {
                    Vec::new()
                } else {
                    vec![((r + 5) % n, weight(&mut s))]
                }
            })
            .collect();
        let power = (0..N)
            .map(|r| {
                let degree = (N / (r + 1)).min(40) + (lcg(&mut s) % 3) as usize;
                (0..degree)
                    .map(|_| {
                        let u = lcg(&mut s) % 1024;
                        ((u * u * u / (1 << 20)) as u32 % n, weight(&mut s))
                    })
                    .collect()
            })
            .collect();
        vec![
            ("star", Csr::from_rows(star)),
            ("path", Csr::from_rows(path)),
            ("isolated", Csr::from_rows(isolated)),
            ("power-law", Csr::from_rows(power)),
        ]
    }

    /// `N` rows of `ld` values spanning 2^±10 in magnitude, with ±0 and
    /// subnormals scattered through and ±∞ and NaN on a few rows.
    fn input(ld: usize) -> Vec<f32> {
        let mut s = ld as u64;
        let mut x = Vec::with_capacity(N * ld);
        for r in 0..N {
            for c in 0..ld {
                let v = match (r * 31 + c * 17) % 23 {
                    0 => 0.0,
                    1 => -0.0,
                    2 => f32::from_bits(1 + (r * ld + c) as u32 % 0x007f_ffff),
                    3 => -f32::from_bits(0x007f_fff0 - (r + c) as u32),
                    _ => {
                        let u = (lcg(&mut s) % 2000) as f32 / 1000.0 - 1.0;
                        u * ((r * 7 + c) % 21) as f32 * 0.1 * (1 << ((r + c * 3) % 20)) as f32
                            / 1024.0
                    }
                };
                x.push(match (r % 23, c % 9, r % 29, c % 10) {
                    (7, 2, ..) => f32::INFINITY,
                    (11, 4, ..) => f32::NEG_INFINITY,
                    (_, _, 3, 6) => f32::NAN,
                    _ => v,
                });
            }
        }
        x
    }

    /// The untiled scalar row every backend must reproduce.
    fn oracle(
        indices: &[u32],
        weights: &[f32],
        x: &[f32],
        ld: usize,
        col0: usize,
        out: &mut [f32],
    ) {
        out.fill(0.0);
        for (&c, &w) in indices.iter().zip(weights) {
            let row = &x[c as usize * ld + col0..][..out.len()];
            for (o, v) in out.iter_mut().zip(row) {
                *o += w * v;
            }
        }
    }

    /// Bit-equal, except that NaN only has to be NaN where the oracle's is.
    fn same(got: f32, want: f32) -> bool {
        if want.is_nan() {
            got.is_nan()
        } else {
            got.to_bits() == want.to_bits()
        }
    }

    fn supported() -> Vec<KernelKind> {
        compiled_kernels()
            .iter()
            .copied()
            .filter(|k| k.is_supported())
            .collect()
    }

    #[test]
    #[cfg_attr(miri, ignore = "Miri does not model x86 SIMD intrinsics")]
    fn every_backend_matches_the_untiled_oracle_bitwise() {
        let _guard = TEST_THRESHOLD_LOCK.lock().unwrap();
        let pools = [1, 2, 8].map(WorkerPool::new);
        // Quiet NaN with a payload no sum produces: marks unwritten values.
        let sentinel = f32::from_bits(0x7fc0_0bad);
        for (name, op) in operators() {
            for f in WIDTHS {
                let ld = 2 * f + 3;
                let x = input(ld);
                for col0 in [0, 3, f] {
                    let mut want = vec![0.0; N * f];
                    for (r, row) in want.chunks_exact_mut(f).enumerate() {
                        let (idx, w) = op.row(r);
                        oracle(idx, w, &x, ld, col0, row);
                    }
                    for kind in supported() {
                        block::set_kernel(Some(kind));
                        let kernel = GatherKernel::dispatched();
                        assert_eq!(kernel.kind(), kind);
                        for pool in &pools {
                            let threads = pool.num_threads();
                            let mut out = vec![sentinel; N * ld];
                            pool.run_row_blocks(
                                [BlockOut::rows(&mut out, ld)],
                                RowBlocks::Even {
                                    rows: N,
                                    per: N.div_ceil(threads),
                                },
                                threads,
                                |_, start, [chunk]| {
                                    for (i, row) in chunk.chunks_exact_mut(ld).enumerate() {
                                        let (idx, w) = op.row(start + i);
                                        let window = &mut row[col0..col0 + f];
                                        kernel.weighted_rows_into(idx, w, &x, ld, col0, window);
                                    }
                                },
                            );
                            for (r, (got, want)) in
                                out.chunks_exact(ld).zip(want.chunks_exact(f)).enumerate()
                            {
                                let at = format!(
                                    "{} on {name}, F {f}, col0 {col0}, pool {threads}, row {r}",
                                    kind.name()
                                );
                                for (j, (&g, &w)) in
                                    got[col0..col0 + f].iter().zip(want).enumerate()
                                {
                                    assert!(same(g, w), "{at}, col {j}: {g:?} != {w:?}");
                                }
                                let outside = got[..col0].iter().chain(&got[col0 + f..]);
                                assert!(
                                    outside
                                        .into_iter()
                                        .all(|v| v.to_bits() == sentinel.to_bits()),
                                    "{at}: wrote outside its window"
                                );
                            }
                        }
                    }
                }
            }
        }
        block::set_kernel(None);
    }

    #[test]
    fn out_of_bounds_gathers_panic_before_any_read_on_every_backend() {
        let _guard = TEST_THRESHOLD_LOCK.lock().unwrap();
        let x = vec![1.0f32; 4 * 10];
        let mut out = vec![0.0f32; 9];
        for kind in supported() {
            block::set_kernel(Some(kind));
            let k = GatherKernel::dispatched();
            let panics = |f: &mut dyn FnMut()| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err()
            };
            // Row 4 of a 4-row input; a window one past the row width; a
            // window that ends past the last row; mismatched arrays; an
            // index whose row offset overflows.
            assert!(panics(&mut || k.weighted_rows_into(
                &[0, 4],
                &[1.0; 2],
                &x,
                10,
                0,
                &mut out
            )));
            assert!(panics(&mut || k.weighted_rows_into(
                &[0],
                &[1.0],
                &x,
                10,
                2,
                &mut out
            )));
            assert!(panics(&mut || k.weighted_rows_into(
                &[3],
                &[1.0],
                &x,
                9,
                1,
                &mut out
            )));
            assert!(panics(&mut || k.weighted_rows_into(
                &[0, 1],
                &[1.0],
                &x,
                10,
                0,
                &mut out
            )));
            assert!(panics(&mut || {
                k.weighted_rows_into(&[u32::MAX], &[1.0], &x, usize::MAX / 2, 0, &mut out)
            }));
            // In bounds: the last row's last nine columns.
            k.weighted_rows_into(&[3], &[2.0], &x, 10, 1, &mut out);
            assert_eq!(out, [2.0; 9]);
            // An empty row is all `+0.0`, whatever `out` held.
            out.fill(-1.0);
            k.weighted_rows_into(&[], &[], &x, 10, 0, &mut out);
            assert!(out.iter().all(|v| v.to_bits() == 0));
        }
        block::set_kernel(None);
    }
}
