//! Dtype cast kernels for the compressed hop-feature store.
//!
//! The on-disk feature store (`ppgnn-dataio`) can encode hop chunks as
//! `f32` (the byte-identical default), IEEE `f16`, `bf16`, or affine
//! `int8` with per-row scale/zero-point. This module owns the
//! [`StoreDtype`] vocabulary and the encode/decode kernels that turn a
//! row-major `f32` slice into the packed on-disk payload and back.
//!
//! Like the GEMM micro-kernels, every conversion has a portable scalar
//! implementation ([`scalar`]) and, on `x86_64`, AVX2/F16C fast paths
//! selected **once per process** by runtime feature detection
//! ([`active_backend_name`] reports the winner). The SIMD twins are
//! bit-identical to the scalar kernels — same round-to-nearest-even
//! conversions, same unfused multiply-then-add dequantization — so the
//! stored bytes and the decoded floats never depend on the machine that
//! ran the conversion. Proptests pin this equivalence.
//!
//! Quantization granularity: the issue-level design calls for
//! per-chunk `int8` scale/zero-point; this implementation refines that
//! to **per-row** parameters inlined ahead of each row's payload
//! (8 bytes per row). Rows are the unit that partitioned stores deal
//! out whole, so per-row parameters make the encoding invariant to
//! chunk regrouping — a sharded store decodes bit-identically to the
//! single store at any partition count, which per-chunk parameters
//! cannot guarantee (chunk boundaries differ between the two layouts).

use std::sync::OnceLock;

use crate::knobs;

/// Bytes of the inline `[scale: f32 LE, zero: f32 LE]` header ahead of
/// each `int8` row payload.
pub const INT8_ROW_HEADER: usize = 8;

/// Element encoding of an on-disk hop-feature store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StoreDtype {
    /// Little-endian `f32`; byte-identical to the uncompressed format.
    #[default]
    F32,
    /// IEEE 754 binary16, round-to-nearest-even (F16C semantics).
    F16,
    /// bfloat16: truncated-exponent `f32`, round-to-nearest-even.
    Bf16,
    /// Affine `u8` quantization `x ≈ zero + scale·q` with per-row
    /// `scale`/`zero` stored inline ([`INT8_ROW_HEADER`]).
    Int8,
}

impl StoreDtype {
    /// Every store dtype, in knob-table order.
    pub const ALL: [StoreDtype; 4] = [
        StoreDtype::F32,
        StoreDtype::F16,
        StoreDtype::Bf16,
        StoreDtype::Int8,
    ];

    /// Stable lowercase name, as accepted by `PPGNN_STORE_DTYPE` and
    /// recorded in store manifests.
    pub fn name(self) -> &'static str {
        match self {
            StoreDtype::F32 => "f32",
            StoreDtype::F16 => "f16",
            StoreDtype::Bf16 => "bf16",
            StoreDtype::Int8 => "int8",
        }
    }

    /// Parses a [`StoreDtype::name`] (case-insensitive).
    pub fn parse(s: &str) -> Option<StoreDtype> {
        match s.to_ascii_lowercase().as_str() {
            "f32" => Some(StoreDtype::F32),
            "f16" => Some(StoreDtype::F16),
            "bf16" => Some(StoreDtype::Bf16),
            "int8" => Some(StoreDtype::Int8),
            _ => None,
        }
    }

    /// The `PPGNN_STORE_DTYPE` knob, defaulting to [`StoreDtype::F32`]
    /// when unset.
    ///
    /// # Errors
    ///
    /// A message naming the knob and its value when the value is no
    /// dtype name — the `Enum` knob contract is that a bad value is
    /// reported at the use site, never silently replaced.
    pub fn from_env() -> Result<StoreDtype, String> {
        match knobs::string_value(knobs::STORE_DTYPE) {
            None => Ok(StoreDtype::F32),
            Some(v) => StoreDtype::parse(&v).ok_or_else(|| {
                format!(
                    "{}={v:?} is not a store dtype (expected f32|f16|bf16|int8)",
                    knobs::STORE_DTYPE
                )
            }),
        }
    }

    /// Encoded bytes of one `cols`-wide row: `4·cols` for `f32`,
    /// `2·cols` for the half formats, `8 + cols` for `int8` (inline
    /// per-row quantization parameters plus one byte per element).
    pub fn encoded_row_bytes(self, cols: usize) -> usize {
        match self {
            StoreDtype::F32 => 4 * cols,
            StoreDtype::F16 | StoreDtype::Bf16 => 2 * cols,
            StoreDtype::Int8 => INT8_ROW_HEADER + cols,
        }
    }

    /// Whether this dtype is the uncompressed, byte-identical default.
    pub fn is_f32(self) -> bool {
        matches!(self, StoreDtype::F32)
    }
}

impl std::fmt::Display for StoreDtype {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Encodes `src` (row-major, `cols`-wide rows) into `dst` using the
/// process-wide dispatched kernels.
///
/// `src.len()` must be a multiple of `cols` and `dst.len()` must equal
/// `rows · dtype.encoded_row_bytes(cols)`; both are asserted.
pub fn encode_rows(dtype: StoreDtype, src: &[f32], cols: usize, dst: &mut [u8]) {
    encode_rows_with(backend(), dtype, src, cols, dst);
}

/// Decodes `src` (packed rows of `dtype`) into the `f32` slice `dst`.
///
/// `dst.len()` must be a multiple of `cols` and `src.len()` must equal
/// `rows · dtype.encoded_row_bytes(cols)`; both are asserted.
pub fn decode_rows(dtype: StoreDtype, src: &[u8], cols: usize, dst: &mut [f32]) {
    decode_rows_with(backend(), dtype, src, cols, dst);
}

/// Name of the dispatched cast backend: `"scalar"`, `"avx2"` (half
/// conversions scalar, `bf16`/`int8` vectorized), or `"avx2+f16c"`.
pub fn active_backend_name() -> &'static str {
    backend().name
}

/// Forced-scalar twins of [`encode_rows`]/[`decode_rows`], kept public
/// as the oracle for the cross-kernel bit-equality proptests (mirroring
/// `gemm::reference`).
pub mod scalar {
    use super::{StoreDtype, SCALAR};

    /// [`super::encode_rows`] on the portable scalar kernels.
    pub fn encode_rows(dtype: StoreDtype, src: &[f32], cols: usize, dst: &mut [u8]) {
        super::encode_rows_with(&SCALAR, dtype, src, cols, dst);
    }

    /// [`super::decode_rows`] on the portable scalar kernels.
    pub fn decode_rows(dtype: StoreDtype, src: &[u8], cols: usize, dst: &mut [f32]) {
        super::decode_rows_with(&SCALAR, dtype, src, cols, dst);
    }

    /// Scalar `f32 → f16` bit conversion (round-to-nearest-even,
    /// matching `vcvtps2ph` incl. subnormals, overflow-to-infinity, and
    /// NaN quieting).
    pub fn f32_to_f16_bits(value: f32) -> u16 {
        super::f32_to_f16_bits(value)
    }

    /// Scalar `f16 → f32` bit conversion (exact, matching `vcvtph2ps`).
    pub fn f16_bits_to_f32(bits: u16) -> f32 {
        super::f16_bits_to_f32(bits)
    }

    /// Scalar `f32 → bf16` bit conversion (round-to-nearest-even with
    /// NaN quieting).
    pub fn f32_to_bf16_bits(value: f32) -> u16 {
        super::f32_to_bf16_bits(value)
    }

    /// Scalar `bf16 → f32` bit conversion (exact).
    pub fn bf16_bits_to_f32(bits: u16) -> f32 {
        f32::from_bits((bits as u32) << 16)
    }

    /// Per-row `int8` quantization parameters `(scale, zero)` — see
    /// [`super::int8_row_params`].
    pub fn int8_row_params(row: &[f32]) -> (f32, f32) {
        super::int8_row_params(row)
    }
}

// ---------------------------------------------------------------------
// Shared row-structure drivers (dtype framing; element kernels come
// from the selected backend).
// ---------------------------------------------------------------------

/// One process-wide set of element-conversion kernels.
#[derive(Clone, Copy)]
struct Backend {
    name: &'static str,
    /// `dst.len() == 2 · src.len()`; little-endian `f16` bits out.
    f16_enc: fn(&[f32], &mut [u8]),
    /// `src.len() == 2 · dst.len()`; little-endian `f16` bits in.
    f16_dec: fn(&[u8], &mut [f32]),
    /// `dst.len() == 2 · src.len()`; little-endian `bf16` bits out.
    bf16_enc: fn(&[f32], &mut [u8]),
    /// `src.len() == 2 · dst.len()`; little-endian `bf16` bits in.
    bf16_dec: fn(&[u8], &mut [f32]),
    /// `(src, zero, inv_scale, dst)`: `q = clamp(rne((x−zero)·inv), 0, 255)`.
    int8_quant: fn(&[f32], f32, f32, &mut [u8]),
    /// `(src, zero, scale, dst)`: `x = zero + scale·q` (unfused).
    int8_dequant: fn(&[u8], f32, f32, &mut [f32]),
}

/// The portable backend; also the oracle the SIMD paths must match.
static SCALAR: Backend = Backend {
    name: "scalar",
    f16_enc: f16_enc_scalar,
    f16_dec: f16_dec_scalar,
    bf16_enc: bf16_enc_scalar,
    bf16_dec: bf16_dec_scalar,
    int8_quant: int8_quant_scalar,
    int8_dequant: int8_dequant_scalar,
};

static ACTIVE: OnceLock<Backend> = OnceLock::new();

/// The once-per-process dispatched backend (same discipline as
/// `gemm::block::kernel`): detect CPU features on first use, never
/// re-detect.
fn backend() -> &'static Backend {
    ACTIVE.get_or_init(detect_backend)
}

#[cfg(target_arch = "x86_64")]
fn detect_backend() -> Backend {
    let avx2 = std::arch::is_x86_feature_detected!("avx2");
    let f16c = avx2 && std::arch::is_x86_feature_detected!("f16c");
    if f16c {
        Backend {
            name: "avx2+f16c",
            f16_enc: f16_enc_dispatch_f16c,
            f16_dec: f16_dec_dispatch_f16c,
            bf16_enc: bf16_enc_dispatch_avx2,
            bf16_dec: bf16_dec_dispatch_avx2,
            int8_quant: int8_quant_dispatch_avx2,
            int8_dequant: int8_dequant_dispatch_avx2,
        }
    } else if avx2 {
        Backend {
            name: "avx2",
            bf16_enc: bf16_enc_dispatch_avx2,
            bf16_dec: bf16_dec_dispatch_avx2,
            int8_quant: int8_quant_dispatch_avx2,
            int8_dequant: int8_dequant_dispatch_avx2,
            ..SCALAR
        }
    } else {
        SCALAR
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect_backend() -> Backend {
    SCALAR
}

fn check_lens(dtype: StoreDtype, elems: usize, cols: usize, bytes: usize) -> usize {
    assert!(cols > 0, "store rows must have at least one column");
    assert_eq!(elems % cols, 0, "f32 slice is not a whole number of rows");
    let rows = elems / cols;
    assert_eq!(
        bytes,
        rows * dtype.encoded_row_bytes(cols),
        "encoded buffer does not match {rows} rows × {cols} cols as {dtype}"
    );
    rows
}

fn encode_rows_with(b: &Backend, dtype: StoreDtype, src: &[f32], cols: usize, dst: &mut [u8]) {
    let rows = check_lens(dtype, src.len(), cols, dst.len());
    match dtype {
        StoreDtype::F32 => {
            for (v, out) in src.iter().zip(dst.chunks_exact_mut(4)) {
                out.copy_from_slice(&v.to_le_bytes());
            }
        }
        StoreDtype::F16 => (b.f16_enc)(src, dst),
        StoreDtype::Bf16 => (b.bf16_enc)(src, dst),
        StoreDtype::Int8 => {
            let stride = INT8_ROW_HEADER + cols;
            debug_assert_eq!(rows * stride, dst.len());
            for (row, out) in src.chunks_exact(cols).zip(dst.chunks_exact_mut(stride)) {
                let (scale, zero) = int8_row_params(row);
                out[..4].copy_from_slice(&scale.to_le_bytes());
                out[4..8].copy_from_slice(&zero.to_le_bytes());
                if scale > 0.0 {
                    (b.int8_quant)(row, zero, 1.0 / scale, &mut out[8..]);
                } else {
                    out[8..].fill(0);
                }
            }
        }
    }
}

fn decode_rows_with(b: &Backend, dtype: StoreDtype, src: &[u8], cols: usize, dst: &mut [f32]) {
    let rows = check_lens(dtype, dst.len(), cols, src.len());
    match dtype {
        StoreDtype::F32 => {
            for (bytes, out) in src.chunks_exact(4).zip(dst.iter_mut()) {
                *out = f32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
            }
        }
        StoreDtype::F16 => (b.f16_dec)(src, dst),
        StoreDtype::Bf16 => (b.bf16_dec)(src, dst),
        StoreDtype::Int8 => {
            let stride = INT8_ROW_HEADER + cols;
            debug_assert_eq!(rows * stride, src.len());
            for (row, out) in src.chunks_exact(stride).zip(dst.chunks_exact_mut(cols)) {
                let scale = f32::from_le_bytes([row[0], row[1], row[2], row[3]]);
                let zero = f32::from_le_bytes([row[4], row[5], row[6], row[7]]);
                (b.int8_dequant)(&row[8..], zero, scale, out);
            }
        }
    }
}

/// Per-row `int8` quantization parameters `(scale, zero)`.
///
/// `zero` is the row minimum, `scale = (max − min) / 255`. A constant,
/// all-zero, or degenerate (empty / non-finite-range) row gets
/// `scale = 0`, which both quantizer paths turn into an all-zero
/// payload and the dequantizer decodes exactly as `zero`.
fn int8_row_params(row: &[f32]) -> (f32, f32) {
    let mut lo = f32::INFINITY;
    let mut hi = f32::NEG_INFINITY;
    for &v in row {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    let range = hi - lo;
    if !(range.is_finite() && range > 0.0) {
        return (0.0, if lo.is_finite() { lo } else { 0.0 });
    }
    let scale = range / 255.0;
    if scale == 0.0 || !(1.0 / scale).is_finite() {
        // The division underflowed (or the reciprocal the quantizer
        // needs overflows): the row's spread is below f32 resolution,
        // so treat it as constant — `zero` alone carries the value.
        return (0.0, lo);
    }
    (scale, lo)
}

// ---------------------------------------------------------------------
// Scalar element kernels (the oracle).
// ---------------------------------------------------------------------

/// `f32 → f16` bits, round-to-nearest-even, F16C-equivalent.
fn f32_to_f16_bits(value: f32) -> u16 {
    let x = value.to_bits();
    let sign = (x >> 16) & 0x8000;
    let man = x & 0x007f_ffff;
    let exp = x & 0x7f80_0000;
    if exp == 0x7f80_0000 {
        // Infinity maps to infinity; NaN keeps its top payload bits and
        // is quieted, exactly as `vcvtps2ph` does.
        let quiet = if man == 0 { 0 } else { 0x0200 };
        return (sign | 0x7c00 | quiet | (man >> 13)) as u16;
    }
    let half_exp = ((exp >> 23) as i32) - 127 + 15;
    if half_exp >= 0x1f {
        return (sign | 0x7c00) as u16;
    }
    if half_exp <= 0 {
        // Subnormal half (or underflow to zero): shift the significand
        // (with its implicit bit) into place and round to nearest even.
        if 14 - half_exp > 24 {
            return sign as u16;
        }
        let man = man | 0x0080_0000;
        let shift = 14 - half_exp;
        let mut half_man = man >> shift;
        let round_bit = 1u32 << (shift - 1);
        if (man & round_bit) != 0 && (man & (3 * round_bit - 1)) != 0 {
            half_man += 1;
        }
        return (sign | half_man) as u16;
    }
    let half = sign | ((half_exp as u32) << 10) | (man >> 13);
    let round_bit = 0x1000;
    if (man & round_bit) != 0 && (man & (3 * round_bit - 1)) != 0 {
        // The +1 carries through the exponent (and into infinity) when
        // the rounded significand overflows — exactly RNE.
        (half + 1) as u16
    } else {
        half as u16
    }
}

/// `f16` bits `→ f32`, exact, F16C-equivalent (sNaNs are quieted).
fn f16_bits_to_f32(bits: u16) -> f32 {
    let sign = ((bits & 0x8000) as u32) << 16;
    let exp = (bits & 0x7c00) as u32;
    let man = (bits & 0x03ff) as u32;
    if exp == 0x7c00 {
        return if man == 0 {
            f32::from_bits(sign | 0x7f80_0000)
        } else {
            f32::from_bits(sign | 0x7fc0_0000 | (man << 13))
        };
    }
    if exp == 0 {
        if man == 0 {
            return f32::from_bits(sign);
        }
        // Normalize the subnormal significand: `man · 2⁻²⁴` becomes
        // `1.frac · 2^(7 − lz)` with `lz = man.leading_zeros()`.
        let shift = man.leading_zeros() - 21;
        let man = (man << shift) & 0x03ff;
        let exp = 127 - 14 - shift;
        return f32::from_bits(sign | (exp << 23) | (man << 13));
    }
    f32::from_bits(sign | (((exp >> 10) + 127 - 15) << 23) | (man << 13))
}

/// `f32 → bf16` bits: round-to-nearest-even on the truncated mantissa,
/// NaNs keep their top payload bits and are quieted.
fn f32_to_bf16_bits(value: f32) -> u16 {
    let bits = value.to_bits();
    if value.is_nan() {
        return ((bits >> 16) as u16) | 0x0040;
    }
    let round = 0x7fff + ((bits >> 16) & 1);
    (bits.wrapping_add(round) >> 16) as u16
}

fn f16_enc_scalar(src: &[f32], dst: &mut [u8]) {
    for (v, out) in src.iter().zip(dst.chunks_exact_mut(2)) {
        out.copy_from_slice(&f32_to_f16_bits(*v).to_le_bytes());
    }
}

fn f16_dec_scalar(src: &[u8], dst: &mut [f32]) {
    for (bytes, out) in src.chunks_exact(2).zip(dst.iter_mut()) {
        *out = f16_bits_to_f32(u16::from_le_bytes([bytes[0], bytes[1]]));
    }
}

fn bf16_enc_scalar(src: &[f32], dst: &mut [u8]) {
    for (v, out) in src.iter().zip(dst.chunks_exact_mut(2)) {
        out.copy_from_slice(&f32_to_bf16_bits(*v).to_le_bytes());
    }
}

fn bf16_dec_scalar(src: &[u8], dst: &mut [f32]) {
    for (bytes, out) in src.chunks_exact(2).zip(dst.iter_mut()) {
        *out = f32::from_bits((u16::from_le_bytes([bytes[0], bytes[1]]) as u32) << 16);
    }
}

fn int8_quant_scalar(src: &[f32], zero: f32, inv_scale: f32, dst: &mut [u8]) {
    for (v, out) in src.iter().zip(dst.iter_mut()) {
        // Round-to-nearest-even, then saturate — the SIMD twin's
        // `cvtps2dq` + integer clamp sequence lands on the same byte
        // for every finite input.
        let q = ((v - zero) * inv_scale).round_ties_even() as i32;
        *out = q.clamp(0, 255) as u8;
    }
}

fn int8_dequant_scalar(src: &[u8], zero: f32, scale: f32, dst: &mut [f32]) {
    for (q, out) in src.iter().zip(dst.iter_mut()) {
        // Unfused multiply-then-add: two roundings, matching the AVX2
        // path (which deliberately avoids FMA for bit-equality).
        *out = zero + scale * (*q as f32);
    }
}

// ---------------------------------------------------------------------
// AVX2 / F16C element kernels. Each `*_dispatch_*` wrapper is the safe
// fn-pointer target; the `#[target_feature]` body is only reachable
// after `detect_backend` confirmed support.
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
fn f16_enc_dispatch_f16c(src: &[f32], dst: &mut [u8]) {
    // SAFETY: `detect_backend` installs this fn pointer only when the
    // running CPU reports AVX2+F16C.
    unsafe { f16_enc_f16c(src, dst) }
}

/// # Safety
///
/// The running CPU must support AVX and F16C.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx", enable = "f16c")]
unsafe fn f16_enc_f16c(src: &[f32], dst: &mut [u8]) {
    use std::arch::x86_64::*;
    let full = src.len() / 8 * 8;
    // Round-to-nearest-even from the immediate; the intrinsic's imm8 is
    // 3 bits wide, so the NO_EXC bit (0x08) is not encodable here.
    const RNE: i32 = _MM_FROUND_TO_NEAREST_INT;
    for i in (0..full).step_by(8) {
        // SAFETY: `i + 8 <= src.len()` and the length contract gives
        // `dst.len() == 2 · src.len()`, so both unaligned accesses are
        // in bounds.
        unsafe {
            let v = _mm256_loadu_ps(src.as_ptr().add(i));
            let h = _mm256_cvtps_ph::<RNE>(v);
            _mm_storeu_si128(dst.as_mut_ptr().add(2 * i) as *mut __m128i, h);
        }
    }
    f16_enc_scalar(&src[full..], &mut dst[2 * full..]);
}

#[cfg(target_arch = "x86_64")]
fn f16_dec_dispatch_f16c(src: &[u8], dst: &mut [f32]) {
    // SAFETY: `detect_backend` installs this fn pointer only when the
    // running CPU reports AVX2+F16C.
    unsafe { f16_dec_f16c(src, dst) }
}

/// # Safety
///
/// The running CPU must support AVX and F16C.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx", enable = "f16c")]
unsafe fn f16_dec_f16c(src: &[u8], dst: &mut [f32]) {
    use std::arch::x86_64::*;
    let full = dst.len() / 8 * 8;
    for i in (0..full).step_by(8) {
        // SAFETY: `i + 8 <= dst.len()` and the length contract gives
        // `src.len() == 2 · dst.len()`, so both unaligned accesses are
        // in bounds.
        unsafe {
            let h = _mm_loadu_si128(src.as_ptr().add(2 * i) as *const __m128i);
            _mm256_storeu_ps(dst.as_mut_ptr().add(i), _mm256_cvtph_ps(h));
        }
    }
    f16_dec_scalar(&src[2 * full..], &mut dst[full..]);
}

#[cfg(target_arch = "x86_64")]
fn bf16_enc_dispatch_avx2(src: &[f32], dst: &mut [u8]) {
    // SAFETY: `detect_backend` installs this fn pointer only when the
    // running CPU reports AVX2.
    unsafe { bf16_enc_avx2(src, dst) }
}

/// # Safety
///
/// The running CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn bf16_enc_avx2(src: &[f32], dst: &mut [u8]) {
    use std::arch::x86_64::*;
    let full = src.len() / 8 * 8;
    for i in (0..full).step_by(8) {
        // SAFETY: `i + 8 <= src.len()` and the length contract gives
        // `dst.len() == 2 · src.len()`, so both unaligned accesses are
        // in bounds.
        unsafe {
            let v = _mm256_loadu_ps(src.as_ptr().add(i));
            let bits = _mm256_castps_si256(v);
            // Integer RNE: bits + 0x7fff + lsb(bits >> 16), then drop
            // the low 16 — the same formula as the scalar kernel.
            let lsb = _mm256_and_si256(_mm256_srli_epi32::<16>(bits), _mm256_set1_epi32(1));
            let bias = _mm256_add_epi32(lsb, _mm256_set1_epi32(0x7fff));
            let rounded = _mm256_srli_epi32::<16>(_mm256_add_epi32(bits, bias));
            // NaN lanes bypass rounding: truncate and set the quiet bit.
            let quieted = _mm256_or_si256(_mm256_srli_epi32::<16>(bits), _mm256_set1_epi32(0x0040));
            let is_nan = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_UNORD_Q>(v, v));
            let h32 = _mm256_blendv_epi8(rounded, quieted, is_nan);
            // Pack the 8 low u16s (values ≤ 0xffff, so `packus` cannot
            // saturate) into one xmm in lane order.
            let lo = _mm256_castsi256_si128(h32);
            let hi = _mm256_extracti128_si256::<1>(h32);
            let h = _mm_packus_epi32(lo, hi);
            _mm_storeu_si128(dst.as_mut_ptr().add(2 * i) as *mut __m128i, h);
        }
    }
    bf16_enc_scalar(&src[full..], &mut dst[2 * full..]);
}

#[cfg(target_arch = "x86_64")]
fn bf16_dec_dispatch_avx2(src: &[u8], dst: &mut [f32]) {
    // SAFETY: `detect_backend` installs this fn pointer only when the
    // running CPU reports AVX2.
    unsafe { bf16_dec_avx2(src, dst) }
}

/// # Safety
///
/// The running CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn bf16_dec_avx2(src: &[u8], dst: &mut [f32]) {
    use std::arch::x86_64::*;
    let full = dst.len() / 8 * 8;
    for i in (0..full).step_by(8) {
        // SAFETY: `i + 8 <= dst.len()` and the length contract gives
        // `src.len() == 2 · dst.len()`, so both unaligned accesses are
        // in bounds.
        unsafe {
            let h = _mm_loadu_si128(src.as_ptr().add(2 * i) as *const __m128i);
            let wide = _mm256_slli_epi32::<16>(_mm256_cvtepu16_epi32(h));
            _mm256_storeu_ps(dst.as_mut_ptr().add(i), _mm256_castsi256_ps(wide));
        }
    }
    bf16_dec_scalar(&src[2 * full..], &mut dst[full..]);
}

#[cfg(target_arch = "x86_64")]
fn int8_quant_dispatch_avx2(src: &[f32], zero: f32, inv_scale: f32, dst: &mut [u8]) {
    // SAFETY: `detect_backend` installs this fn pointer only when the
    // running CPU reports AVX2.
    unsafe { int8_quant_avx2(src, zero, inv_scale, dst) }
}

/// # Safety
///
/// The running CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn int8_quant_avx2(src: &[f32], zero: f32, inv_scale: f32, dst: &mut [u8]) {
    use std::arch::x86_64::*;
    let full = src.len() / 8 * 8;
    let zv = _mm256_set1_ps(zero);
    let sv = _mm256_set1_ps(inv_scale);
    for i in (0..full).step_by(8) {
        // SAFETY: `i + 8 <= src.len()` and the length contract gives
        // `dst.len() == src.len()`, so both unaligned accesses are in
        // bounds.
        unsafe {
            let v = _mm256_loadu_ps(src.as_ptr().add(i));
            // Unfused sub-then-mul, then `cvtps2dq` (rounds to nearest
            // even under the default MXCSR) — the same two roundings
            // and RNE the scalar kernel performs.
            let scaled = _mm256_mul_ps(_mm256_sub_ps(v, zv), sv);
            let q = _mm256_cvtps_epi32(scaled);
            let q = _mm256_min_epi32(
                _mm256_max_epi32(q, _mm256_setzero_si256()),
                _mm256_set1_epi32(255),
            );
            let lo = _mm256_castsi256_si128(q);
            let hi = _mm256_extracti128_si256::<1>(q);
            let w = _mm_packus_epi32(lo, hi);
            let b = _mm_packus_epi16(w, w);
            _mm_storel_epi64(dst.as_mut_ptr().add(i) as *mut __m128i, b);
        }
    }
    int8_quant_scalar(&src[full..], zero, inv_scale, &mut dst[full..]);
}

#[cfg(target_arch = "x86_64")]
fn int8_dequant_dispatch_avx2(src: &[u8], zero: f32, scale: f32, dst: &mut [f32]) {
    // SAFETY: `detect_backend` installs this fn pointer only when the
    // running CPU reports AVX2.
    unsafe { int8_dequant_avx2(src, zero, scale, dst) }
}

/// # Safety
///
/// The running CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn int8_dequant_avx2(src: &[u8], zero: f32, scale: f32, dst: &mut [f32]) {
    use std::arch::x86_64::*;
    let full = dst.len() / 8 * 8;
    let zv = _mm256_set1_ps(zero);
    let sv = _mm256_set1_ps(scale);
    for i in (0..full).step_by(8) {
        // SAFETY: `i + 8 <= dst.len()` and the length contract gives
        // `src.len() == dst.len()`, so both unaligned accesses are in
        // bounds.
        unsafe {
            let b = _mm_loadl_epi64(src.as_ptr().add(i) as *const __m128i);
            let qf = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(b));
            // Unfused multiply-then-add: bit-identical to the scalar
            // `zero + scale · q` (no FMA on purpose).
            let x = _mm256_add_ps(zv, _mm256_mul_ps(sv, qf));
            _mm256_storeu_ps(dst.as_mut_ptr().add(i), x);
        }
    }
    int8_dequant_scalar(&src[full..], zero, scale, &mut dst[full..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(dtype: StoreDtype, src: &[f32], cols: usize) -> Vec<f32> {
        let rows = src.len() / cols;
        let mut enc = vec![0u8; rows * dtype.encoded_row_bytes(cols)];
        encode_rows(dtype, src, cols, &mut enc);
        let mut dec = vec![0.0f32; src.len()];
        decode_rows(dtype, &enc, cols, &mut dec);
        dec
    }

    #[test]
    fn names_parse_back() {
        for d in StoreDtype::ALL {
            assert_eq!(StoreDtype::parse(d.name()), Some(d));
        }
        assert_eq!(StoreDtype::parse("F16"), Some(StoreDtype::F16));
        assert_eq!(StoreDtype::parse("float64"), None);
    }

    #[test]
    fn f32_roundtrip_is_exact() {
        let src = [1.5f32, -0.0, f32::MIN_POSITIVE, 3.25e7, -2.0e-12];
        let dec = roundtrip(StoreDtype::F32, &src, 5);
        for (a, b) in src.iter().zip(&dec) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn f16_reference_values() {
        // (f32 input, expected f16 bits) — classic conversion vectors.
        let cases: &[(f32, u16)] = &[
            (0.0, 0x0000),
            (-0.0, 0x8000),
            (1.0, 0x3c00),
            (-2.0, 0xc000),
            (65504.0, 0x7bff),      // f16 max
            (65520.0, 0x7c00),      // ties to even → inf
            (65536.0, 0x7c00),      // overflow → inf
            (6.1035156e-5, 0x0400), // smallest normal
            (5.9604645e-8, 0x0001), // smallest subnormal
            (2.9802322e-8, 0x0000), // half the smallest subnormal, ties → 0
            (f32::INFINITY, 0x7c00),
            (f32::NEG_INFINITY, 0xfc00),
        ];
        for &(x, bits) in cases {
            assert_eq!(scalar::f32_to_f16_bits(x), bits, "encode {x}");
        }
        // Exact decode of every finite f16 value round-trips.
        for bits in 0u16..=0xffff {
            let x = scalar::f16_bits_to_f32(bits);
            if x.is_nan() {
                continue;
            }
            assert_eq!(scalar::f32_to_f16_bits(x), bits, "roundtrip {bits:#06x}");
        }
    }

    #[test]
    fn bf16_reference_values() {
        assert_eq!(scalar::f32_to_bf16_bits(1.0), 0x3f80);
        assert_eq!(scalar::f32_to_bf16_bits(-1.0), 0xbf80);
        assert_eq!(scalar::f32_to_bf16_bits(f32::INFINITY), 0x7f80);
        assert_eq!(scalar::f32_to_bf16_bits(f32::MAX), 0x7f80); // rounds up to inf
        let quiet = scalar::f32_to_bf16_bits(f32::NAN);
        assert!(scalar::bf16_bits_to_f32(quiet).is_nan());
        // RNE tie: 1.0 + 2^-9 is exactly halfway between two bf16
        // values; it must round to the even mantissa (1.0).
        assert_eq!(
            scalar::f32_to_bf16_bits(f32::from_bits(0x3f80_4000)),
            0x3f80
        );
    }

    #[test]
    fn int8_constant_and_zero_rows_decode_exactly() {
        let zeros = [0.0f32; 12];
        assert_eq!(roundtrip(StoreDtype::Int8, &zeros, 4), zeros);
        let consts = [3.75f32; 9];
        assert_eq!(roundtrip(StoreDtype::Int8, &consts, 3), consts);
    }

    #[test]
    fn int8_error_stays_within_half_a_step() {
        let cols = 17;
        let src: Vec<f32> = (0..3 * cols)
            .map(|i| ((i * 37 + 11) % 101) as f32 * 0.37 - 12.5)
            .collect();
        let dec = roundtrip(StoreDtype::Int8, &src, cols);
        for r in 0..3 {
            let row = &src[r * cols..(r + 1) * cols];
            let (scale, _) = scalar::int8_row_params(row);
            for (a, b) in row.iter().zip(&dec[r * cols..(r + 1) * cols]) {
                assert!(
                    (a - b).abs() <= scale * 0.5 + scale * 1e-4,
                    "|{a} - {b}| > step/2 (scale {scale})"
                );
            }
        }
    }

    #[test]
    fn dispatched_kernels_match_scalar_bitwise() {
        // Tail lengths force both the 8-wide SIMD body and the scalar
        // remainder; the proptest suite covers random shapes.
        let cols = 13;
        let src: Vec<f32> = (0..5 * cols)
            .map(|i| (((i * 29 + 7) % 997) as f32 - 498.0) * 0.137)
            .collect();
        for dtype in StoreDtype::ALL {
            let rows = src.len() / cols;
            let nbytes = rows * dtype.encoded_row_bytes(cols);
            let mut a = vec![0u8; nbytes];
            let mut b = vec![0u8; nbytes];
            encode_rows(dtype, &src, cols, &mut a);
            scalar::encode_rows(dtype, &src, cols, &mut b);
            assert_eq!(a, b, "{dtype} encode diverged from scalar");
            let mut da = vec![0.0f32; src.len()];
            let mut db = vec![0.0f32; src.len()];
            decode_rows(dtype, &a, cols, &mut da);
            scalar::decode_rows(dtype, &a, cols, &mut db);
            let ba: Vec<u32> = da.iter().map(|v| v.to_bits()).collect();
            let bb: Vec<u32> = db.iter().map(|v| v.to_bits()).collect();
            assert_eq!(ba, bb, "{dtype} decode diverged from scalar");
        }
    }

    #[test]
    fn encoded_row_bytes_match_layout() {
        assert_eq!(StoreDtype::F32.encoded_row_bytes(10), 40);
        assert_eq!(StoreDtype::F16.encoded_row_bytes(10), 20);
        assert_eq!(StoreDtype::Bf16.encoded_row_bytes(10), 20);
        assert_eq!(StoreDtype::Int8.encoded_row_bytes(10), 18);
    }
}
