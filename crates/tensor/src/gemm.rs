//! Packed, cache-blocked matrix-multiplication kernels behind a pluggable
//! micro-kernel backend.
//!
//! Three layout variants cover everything the training stack needs:
//!
//! * [`matmul`] / [`matmul_into`] — `C = A · B` (forward passes),
//! * [`matmul_tn`] / [`matmul_tn_into`] — `C = Aᵀ · B` (weight gradients:
//!   `∂W = Xᵀ · ∂Y`),
//! * [`matmul_nt`] / [`matmul_nt_into`] — `C = A · Bᵀ` (input gradients:
//!   `∂X = ∂Y · Wᵀ`).
//!
//! # Kernel backends
//!
//! The register-tile inner loop is a [`MicroKernel`] implementation —
//! `MR×NR` accumulator tiles walked down a packed K panel. Three
//! instantiations are compiled in on x86-64:
//!
//! * [`PortableKernel`] — baseline-ISA 8×8 tile, plain multiply-add (two
//!   roundings per step; `mul_add` here would lower to a libm call on
//!   machines without hardware FMA),
//! * [`Avx2Kernel`] — the 8×8 AVX2+FMA tile (one accumulator row = one
//!   `ymm`, `vfmadd231ps` chains),
//! * [`Avx512Kernel`] — an 8×16 AVX-512 tile (one accumulator row = one
//!   `zmm`), twice the B-panel width per A broadcast.
//!
//! Dispatch is resolved by [`block::kernel`]: an explicit
//! [`block::set_kernel`] override, else `PPGNN_FORCE_KERNEL`
//! (`portable`/`avx2`/`avx512`, read once per process), else the widest
//! kernel the CPU supports.
//! Every entry point snapshots the whole tiling configuration
//! ([`block::tile_config`] → [`block::TileConfig`]) exactly once per
//! call, so a concurrent `set_*` can never desynchronize the packed
//! layout from its consumer.
//!
//! Per-element accumulation order is strictly `k`-sequential regardless
//! of tile shape, row split, sweep order or NC strip, so the two
//! hardware-FMA backends produce **bit-identical** results at a fixed KC;
//! the portable kernel differs only in last-bit rounding (two roundings
//! per multiply-add instead of one).
//!
//! # Blocking
//!
//! `A` is read where it lies; `B` is packed once; `NC` strips bound the
//! `B` working set.
//!
//! Per call, the `B` operand is packed **once** into contiguous
//! `NR`-column panels — in transposed layout for the `nt` variant, K
//! panels shared out over the pool when the call is pooled — and shared
//! read-only by every row-block task. The K dimension is cut into panels
//! of depth [`block::kc`] ([`block::DEFAULT_KC`], overridden by
//! [`block::set_kc`]). `A` is never copied into task-wide panels: each
//! row tile takes its `MR × KC` block from where it lies ([`InPlaceA`])
//! and feeds it to a whole strip of B panels in one
//! [`MicroKernel::tile_in_place`] call. The AVX-512 tile reads the block
//! through its strides — `(k, 1)` for `nn`/`nt`, `(1, m)` for `tn` — and
//! feeds every broadcast to up to three B panels; the 8-wide tiles stage
//! it through one L1-resident panel and run [`MicroKernel::tile`] per B
//! panel from there.
//!
//! The N dimension is cut into [`block::nc`]-column strips
//! ([`block::DEFAULT_NC`], overridden by [`block::set_nc`]). A product
//! with `n <= NC` is one strip, swept in the order its `A` layout reads
//! best: `nn`/`nt` **tile-major** (each row tile walks its K panels in
//! ascending order, so a row-major `A` is read sequentially), `tn`
//! **panel-major** (K panels outermost; a tile of the `k×m` operand is an
//! `MR`-float strip of each of `kc` rows, one row stride apart, so
//! tile-major would walk all `k` rows for one strip and leave the sibling
//! tile to fetch the same cache lines again once evicted). A wider
//! product runs K panels outermost, then strips, then row tiles, so its
//! `B` working set is one `KC × NC` block. Per element every order is the
//! same arithmetic — a `k`-sequential multiply-add chain from a zero
//! accumulator inside each K panel, one add into `C` per panel, panels in
//! ascending `k` — so the result is **bit-identical** to packing `A`
//! first and sweeping panel by panel (the test-only oracle this module's
//! tests hold every backend, layout and row split to).
//!
//! Both the `B` panels and the 8-wide tiles' staging panel come from the
//! thread-local [`crate::pool::PackWorkspace`], which grows monotonically
//! — in steady state a GEMM call allocates nothing beyond its output.
//! Panel tails are zero-padded so the micro-kernel never sees a partial
//! tile (the store-back writes only the valid sub-tile).
//!
//! Calls parallelize over `MR`-aligned output row blocks on the shared
//! [`crate::pool`] once the FLOP count crosses the workspace-wide
//! threshold ([`crate::pool::set_parallel_threshold`]). Row splitting
//! never changes per-element accumulation order, so serial and pooled
//! results are bit-identical.
//!
//! The pre-blocking naive kernels are retained verbatim in [`reference`]
//! as the correctness oracle (proptests pin every packed backend to them
//! within tight float tolerance).

use crate::pool::{pool, threads_for, BlockOut, PackBuf, PackWorkspace, RowBlocks};
use crate::Matrix;
use ppgnn_telemetry::Counter;

/// Telemetry counters bumped at the shared dispatch point of every packed
/// GEMM call. Recording is a relaxed atomic add
/// gated on `ppgnn_telemetry::enabled()`, so the disabled cost on this
/// hot path is one atomic load — spans are deliberately absent here (and
/// statically forbidden by the `telemetry_span` lint): per-call guards at
/// micro-kernel granularity would dominate small products.
static GEMM_CALLS: Counter = Counter::new("gemm.calls");
static GEMM_MADDS: Counter = Counter::new("gemm.madds");
static GEMM_DISPATCH_PORTABLE: Counter = Counter::new("gemm.dispatch.portable");
static GEMM_DISPATCH_AVX2: Counter = Counter::new("gemm.dispatch.avx2");
static GEMM_DISPATCH_AVX512: Counter = Counter::new("gemm.dispatch.avx512");

/// The dispatch-choice counter for `kind`.
fn kernel_dispatch_counter(kind: KernelKind) -> &'static Counter {
    match kind {
        KernelKind::Portable => &GEMM_DISPATCH_PORTABLE,
        KernelKind::Avx2 => &GEMM_DISPATCH_AVX2,
        KernelKind::Avx512 => &GEMM_DISPATCH_AVX512,
    }
}

/// Identifies one compiled-in [`MicroKernel`] instantiation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Baseline-ISA 8×8 tile ([`PortableKernel`]); always supported.
    Portable,
    /// AVX2+FMA 8×8 tile ([`Avx2Kernel`]).
    Avx2,
    /// AVX-512 8×16 tile ([`Avx512Kernel`]).
    Avx512,
}

impl KernelKind {
    /// Stable lowercase name, as accepted by `PPGNN_FORCE_KERNEL`.
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Portable => "portable",
            KernelKind::Avx2 => "avx2",
            KernelKind::Avx512 => "avx512",
        }
    }

    /// Parses a [`KernelKind::name`] (case-insensitive).
    pub fn parse(s: &str) -> Option<KernelKind> {
        match s.to_ascii_lowercase().as_str() {
            "portable" => Some(KernelKind::Portable),
            "avx2" => Some(KernelKind::Avx2),
            "avx512" => Some(KernelKind::Avx512),
            _ => None,
        }
    }

    /// Register-tile rows of this backend.
    pub fn mr(self) -> usize {
        block::MR
    }

    /// Register-tile columns of this backend.
    pub fn nr(self) -> usize {
        match self {
            KernelKind::Portable | KernelKind::Avx2 => block::NR,
            KernelKind::Avx512 => 2 * block::NR,
        }
    }

    /// Whether the running CPU can execute this backend.
    pub fn is_supported(self) -> bool {
        match self {
            KernelKind::Portable => true,
            #[cfg(target_arch = "x86_64")]
            KernelKind::Avx2 => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            #[cfg(target_arch = "x86_64")]
            KernelKind::Avx512 => {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// Whether this backend accumulates with single-rounding hardware
    /// FMA. All FMA backends are mutually bit-identical at a fixed
    /// KC/NC; the non-FMA portable kernel rounds twice per step.
    pub fn uses_fma(self) -> bool {
        !matches!(self, KernelKind::Portable)
    }
}

/// Every backend compiled into this build, narrowest first.
pub fn compiled_kernels() -> &'static [KernelKind] {
    #[cfg(target_arch = "x86_64")]
    {
        &[KernelKind::Portable, KernelKind::Avx2, KernelKind::Avx512]
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        &[KernelKind::Portable]
    }
}

/// The widest compiled-in backend the running CPU supports.
pub fn widest_supported_kernel() -> KernelKind {
    *compiled_kernels()
        .iter()
        .rev()
        .find(|k| k.is_supported())
        .expect("the portable kernel is always supported")
}

/// Tiling configuration knobs (K panel depth, NC column block, kernel
/// backend) shared by the dense GEMM driver and the SpMM row kernel
/// ([`crate::gather`]).
pub mod block {
    use super::KernelKind;
    use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
    use std::sync::OnceLock;

    /// Rows of one register tile (`A`-panel width), shared by every
    /// backend — row blocks and `A` panels are `MR`-aligned regardless
    /// of the dispatched kernel.
    pub const MR: usize = 8;

    /// Columns of one 8-wide register tile (`B`-panel width of the
    /// portable and AVX2 backends; the AVX-512 backend packs `2·NR`).
    pub const NR: usize = 8;

    /// Default K-panel depth: `KC · NR · 4 B` of packed `B` panel (8 KiB)
    /// plus the tile's `KC · MR · 4 B` `A` block (8 KiB) stay L1-resident
    /// under the micro-kernel.
    pub const DEFAULT_KC: usize = 256;

    /// Default NC strip width: a `KC × NC` block of packed `B`
    /// (512 KiB at the defaults) stays L2-resident while a task sweeps
    /// it across its row tiles. Products at or below 512 columns are one
    /// strip.
    pub const DEFAULT_NC: usize = 512;

    /// Column-strip width of the portable SpMM row kernel (`8 · NR`):
    /// wide enough that re-walking a row's CSR entries per strip is
    /// amortized, narrow enough that the gathered `X` rows stay hot in
    /// L1. The SIMD backends size their strips by their registers
    /// ([`crate::gather`]).
    pub const SPMM_COL_BLOCK: usize = 8 * NR;

    /// Override of the K-panel depth; `0` = unset.
    static KC_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

    /// Override of the NC column block; `0` = unset.
    static NC_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

    /// Kernel override; `0` = unset, else `KernelKind` + 1.
    static KERNEL_OVERRIDE: AtomicU8 = AtomicU8::new(0);

    /// `PPGNN_FORCE_KERNEL`, read once on first use.
    static KERNEL_FROM_ENV: OnceLock<Option<KernelKind>> = OnceLock::new();

    /// The full tiling configuration of one GEMM call, snapshotted
    /// **once** per call ([`tile_config`]) and threaded through packing
    /// and the driver, so concurrent knob writes can never
    /// desynchronize a packed layout from its consumer.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct TileConfig {
        /// The dispatched micro-kernel backend.
        pub kernel: KernelKind,
        /// K-panel depth.
        pub kc: usize,
        /// NC column-block width (rounded up to the kernel's `NR` by the
        /// driver).
        pub nc: usize,
    }

    /// Snapshots the active `{kernel, KC, NC}` once. Every `matmul*`
    /// entry point goes through this.
    pub fn tile_config() -> TileConfig {
        TileConfig {
            kernel: kernel(),
            kc: kc(),
            nc: nc(),
        }
    }

    /// The active K-panel depth: the [`set_kc`] override when set, else
    /// [`DEFAULT_KC`].
    pub fn kc() -> usize {
        match KC_OVERRIDE.load(Ordering::Relaxed) {
            0 => DEFAULT_KC,
            v => v,
        }
    }

    /// Overrides the K-panel depth (primarily for tests and block-size
    /// sweeps); `0` resets to [`DEFAULT_KC`]. Any positive depth is
    /// correct — the depth trades packing granularity against cache
    /// residency.
    pub fn set_kc(kc: usize) {
        KC_OVERRIDE.store(kc, Ordering::Relaxed);
    }

    /// The active NC column block: the [`set_nc`] override when set,
    /// else [`DEFAULT_NC`].
    pub fn nc() -> usize {
        match NC_OVERRIDE.load(Ordering::Relaxed) {
            0 => DEFAULT_NC,
            v => v,
        }
    }

    /// Overrides the NC column block; `0` resets to [`DEFAULT_NC`]. Any
    /// positive width is correct.
    pub fn set_nc(nc: usize) {
        NC_OVERRIDE.store(nc, Ordering::Relaxed);
    }

    /// The dispatched micro-kernel backend: the [`set_kernel`] override
    /// when set, else `PPGNN_FORCE_KERNEL` (read once), else the widest
    /// backend the CPU supports.
    ///
    /// # Panics
    ///
    /// Panics if `PPGNN_FORCE_KERNEL` names an unknown backend or one
    /// the running CPU cannot execute — a forced kernel is an explicit
    /// contract, so misconfiguration fails loudly instead of silently
    /// falling back.
    pub fn kernel() -> KernelKind {
        let v = KERNEL_OVERRIDE.load(Ordering::Relaxed);
        if v != 0 {
            return match v - 1 {
                0 => KernelKind::Portable,
                1 => KernelKind::Avx2,
                _ => KernelKind::Avx512,
            };
        }
        KERNEL_FROM_ENV
            .get_or_init(|| {
                let raw = crate::knobs::string_value(crate::knobs::FORCE_KERNEL)?;
                let kind = KernelKind::parse(&raw).unwrap_or_else(|| {
                    panic!("PPGNN_FORCE_KERNEL={raw:?}: unknown kernel (portable|avx2|avx512)")
                });
                assert!(
                    kind.is_supported(),
                    "PPGNN_FORCE_KERNEL={} requests a kernel this CPU does not support",
                    kind.name()
                );
                Some(kind)
            })
            .unwrap_or_else(super::widest_supported_kernel)
    }

    /// Overrides the dispatched backend (tests and the per-backend
    /// equivalence suites); `None` resets to the environment/detected
    /// value.
    ///
    /// # Panics
    ///
    /// Panics if the requested backend is not supported on this CPU.
    pub fn set_kernel(kind: Option<KernelKind>) {
        let v = match kind {
            None => 0,
            Some(k) => {
                assert!(
                    k.is_supported(),
                    "cannot force the {} kernel on this CPU",
                    k.name()
                );
                1 + k as u8
            }
        };
        KERNEL_OVERRIDE.store(v, Ordering::Relaxed);
    }
}

/// An `MR × kcl` block of the `A` operand taken **where it lies**: rows
/// `row0..row0 + ivalid` of the (logical) `m×k` operand, K slice
/// `kk0..kk0 + kcl`.
///
/// Read directly ([`InPlaceA::strides`]) it is the packed-panel layout
/// with strides `(k, 1)` — or `(1, m)` for the `k×m` operand of the `tn`
/// variant — in place of `(1, MR)`, so a tile fed from it performs the
/// same multiply-adds in the same order as one fed from
/// [`pack_a_rows`]/[`pack_a_cols`] output.
#[derive(Debug, Clone, Copy)]
pub struct InPlaceA<'a> {
    data: &'a [f32],
    layout: APack,
    /// Leading dimension of `data`: `k` for [`APack::Rows`], `m` for
    /// [`APack::Cols`].
    ld: usize,
    row0: usize,
    kk0: usize,
    /// Depth of the block (K-panel length).
    kcl: usize,
    /// Rows of the tile that exist in `A` (and are stored to `C`).
    ivalid: usize,
}

impl<'a> InPlaceA<'a> {
    /// # Panics
    ///
    /// Panics unless `1 <= ivalid <= MR`, `kcl >= 1` and the block lies
    /// inside `data` — the bounds proof a backend's raw reads rely on.
    fn new(
        data: &'a [f32],
        layout: APack,
        ld: usize,
        row0: usize,
        ivalid: usize,
        kk0: usize,
        kcl: usize,
    ) -> Self {
        assert!((1..=block::MR).contains(&ivalid) && kcl >= 1);
        let (last_row, last_k) = (row0 + ivalid - 1, kk0 + kcl - 1);
        let last = match layout {
            APack::Rows => last_row * ld + last_k,
            APack::Cols => last_k * ld + last_row,
        };
        assert!(last < data.len(), "in-place A block exceeds the operand");
        InPlaceA {
            data,
            layout,
            ld,
            row0,
            kk0,
            kcl,
            ivalid,
        }
    }

    /// `(rows, ks)`: element `(i, p)` of the block is
    /// `data[rows[i] + p · ks]`. Rows past `ivalid` repeat the last valid
    /// row — a tile may compute them but stores nothing for them.
    fn strides(&self) -> ([usize; block::MR], usize) {
        let (origin, rs, ks) = match self.layout {
            APack::Rows => (self.row0 * self.ld + self.kk0, self.ld, 1),
            APack::Cols => (self.kk0 * self.ld + self.row0, 1, self.ld),
        };
        let rows = std::array::from_fn(|i| origin + i.min(self.ivalid - 1) * rs);
        (rows, ks)
    }

    /// The block gathered into `stage` as one `MR`-row panel (`kcl · MR`
    /// values, tail rows zero-padded) — the layout [`MicroKernel::tile`]
    /// reads.
    fn as_panel<'s>(&self, stage: &'s mut [f32]) -> &'s [f32] {
        let (a, ld, mr) = (self.data, self.ld, block::MR);
        let stage = &mut stage[..self.kcl * mr];
        match self.layout {
            APack::Cols => {
                pack_a_cols(a, ld, self.row0, self.ivalid, self.kk0, self.kcl, mr, stage)
            }
            APack::Rows => {
                pack_a_rows(a, ld, self.row0, self.ivalid, self.kk0, self.kcl, mr, stage)
            }
        }
        stage
    }
}

/// One register-tile instantiation of the packed inner loop.
///
/// Implementations walk `kcl` steps of an `MR`-wide packed `A` panel
/// against an `NR`-wide packed `B` panel, accumulate an `MR×NR` tile in
/// local arrays (kept in vector registers), and store the valid sub-tile
/// back to `C`. Accumulation is strictly `k`-sequential per element, so
/// every backend with the same rounding behaviour produces bit-identical
/// results under any blocking.
pub trait MicroKernel {
    /// Register-tile rows; `A` panels are packed `MR` rows wide.
    const MR: usize;
    /// Register-tile columns; `B` panels are packed `NR` columns wide.
    const NR: usize;
    /// The dispatch tag selecting this instantiation.
    const KIND: KernelKind;

    /// Accumulates one `MR×NR` tile over a packed K panel into `c`.
    ///
    /// `ap` is `kcl` steps of `MR` packed `A` values, `bp` is `kcl`
    /// steps of `NR` packed `B` values; the first `ivalid` rows ×
    /// `jvalid` columns of the tile are added to `c` (row stride `ldc`).
    ///
    /// # Safety
    ///
    /// The caller must ensure the running CPU supports `Self::KIND`
    /// ([`KernelKind::is_supported`]).
    unsafe fn tile(ap: &[f32], bp: &[f32], c: &mut [f32], ldc: usize, ivalid: usize, jvalid: usize);

    /// [`MicroKernel::tile`] over **every** B panel of a row strip, with
    /// the `A` block taken from where it lies: accumulates the
    /// `a.ivalid × jvalid` strip into `c` (row stride `ldc`), panel `jp`
    /// covering columns `jp·NR..`. `bp` holds the `jvalid.div_ceil(NR)`
    /// packed panels of this K slice back to back, `a.kcl` steps each.
    /// Per element the arithmetic is exactly `tile`'s — a `k`-sequential
    /// multiply-add chain from a zero accumulator, then one add into `c`
    /// — so the result is bit-identical to packing `a` first.
    ///
    /// A backend whose registers hold several panels reads `a` directly
    /// and feeds each broadcast to all of them ([`Avx512Kernel`]). This provided form
    /// is for the 8-wide tiles, which would otherwise re-walk a strided
    /// block once per panel: it gathers the block into `stage` — one
    /// `MR × kcl` panel, L1-resident, so `stage` must hold `a.kcl · MR`
    /// values — and runs `tile` per B panel from there.
    ///
    /// # Safety
    ///
    /// The caller must ensure the running CPU supports `Self::KIND`
    /// ([`KernelKind::is_supported`]).
    unsafe fn tile_in_place(
        a: InPlaceA<'_>,
        stage: &mut [f32],
        bp: &[f32],
        c: &mut [f32],
        ldc: usize,
        jvalid: usize,
    ) {
        let ap = a.as_panel(stage);
        for (jp, panel) in bp.chunks_exact(a.kcl * Self::NR).enumerate() {
            let j0 = jp * Self::NR;
            let jv = Self::NR.min(jvalid - j0);
            // SAFETY: the caller's contract is `tile`'s.
            unsafe { Self::tile(ap, panel, &mut c[j0..], ldc, a.ivalid, jv) };
        }
    }
}

/// The shared tile loop every backend instantiates: branch-free
/// contiguous multiply-add chains over the packed panels, then an
/// accumulate-store of the valid sub-tile. `FMA` selects `mul_add`
/// (single rounding; lowers to hardware FMA only under the right target
/// features — see [`PortableKernel`] for why the baseline build must not
/// use it).
#[inline(always)]
fn tile_body<const MR: usize, const NR: usize, const FMA: bool>(
    ap: &[f32],
    bp: &[f32],
    c: &mut [f32],
    ldc: usize,
    ivalid: usize,
    jvalid: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for (ar, br) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
        let a: &[f32; MR] = ar.try_into().expect("A panel step is MR long");
        let b: &[f32; NR] = br.try_into().expect("B panel step is NR long");
        for i in 0..MR {
            for j in 0..NR {
                acc[i][j] = if FMA {
                    a[i].mul_add(b[j], acc[i][j])
                } else {
                    acc[i][j] + a[i] * b[j]
                };
            }
        }
    }
    for (arow, crow) in acc.iter().take(ivalid).zip(c.chunks_mut(ldc)) {
        for (cv, av) in crow[..jvalid].iter_mut().zip(&arow[..jvalid]) {
            *cv += *av;
        }
    }
}

/// Baseline-ISA 8×8 backend (SSE2 on x86-64; whatever the build target
/// guarantees elsewhere). Deliberately spelled `mul + add`: rustc never
/// contracts the pair into an FMA (float semantics stay deterministic),
/// and an explicit `mul_add` without hardware FMA would lower to a libm
/// call per element.
pub struct PortableKernel;

impl MicroKernel for PortableKernel {
    const MR: usize = block::MR;
    const NR: usize = block::NR;
    const KIND: KernelKind = KernelKind::Portable;

    // SAFETY: `unsafe` only by trait signature — `Portable` is supported
    // on every CPU and the body is safe scalar code.
    unsafe fn tile(ap: &[f32], bp: &[f32], c: &mut [f32], ldc: usize, iv: usize, jv: usize) {
        tile_body::<{ block::MR }, { block::NR }, false>(ap, bp, c, ldc, iv, jv);
    }
}

/// The 8×8 tile compiled with AVX2+FMA enabled: one accumulator row is
/// exactly one `ymm` register and the `mul_add` chain lowers to
/// `vfmadd231ps` at 8-wide FMA throughput.
///
/// # Safety
///
/// The running CPU must support AVX2 and FMA (`target_feature` makes
/// calling this on a lesser CPU undefined behaviour); the body itself
/// is safe code.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn tile_avx2(ap: &[f32], bp: &[f32], c: &mut [f32], ldc: usize, iv: usize, jv: usize) {
    tile_body::<{ block::MR }, { block::NR }, true>(ap, bp, c, ldc, iv, jv);
}

/// AVX2+FMA 8×8 backend — the previously hand-dispatched kernel behind
/// the [`MicroKernel`] trait. FMA rounds once per multiply-add where the
/// portable kernel rounds twice, so results differ from
/// [`PortableKernel`] in the last bits — but dispatch is uniform per
/// process, so every caller on a given machine agrees bitwise.
/// (Implemented — and dispatchable — on x86-64 only.)
pub struct Avx2Kernel;

#[cfg(target_arch = "x86_64")]
impl MicroKernel for Avx2Kernel {
    const MR: usize = block::MR;
    const NR: usize = block::NR;
    const KIND: KernelKind = KernelKind::Avx2;

    // SAFETY: callers uphold the trait contract — this backend is only
    // dispatched when `KernelKind::Avx2.is_supported()` held.
    unsafe fn tile(ap: &[f32], bp: &[f32], c: &mut [f32], ldc: usize, iv: usize, jv: usize) {
        // SAFETY: forwarded from the dispatcher, which only selects this
        // backend when `KernelKind::Avx2.is_supported()` held.
        unsafe { tile_avx2(ap, bp, c, ldc, iv, jv) }
    }
}

/// The 8×16 tile in explicit AVX-512F intrinsics: one accumulator row is
/// exactly one `zmm` register, each broadcast `A` element feeds a 16-wide
/// FMA, and the partial-tile store-back is a masked load/add/store.
///
/// Hand-written rather than autovectorized like [`tile_avx2`]: at
/// `NR = 16` LLVM vectorizes the generic [`tile_body`] across the *row*
/// dimension, spilling the accumulator block to memory and walking it
/// with `vgatherqps`/`vscatterqps` every k step — several times slower
/// than the portable kernel. The accumulation order (k-sequential
/// `fma(a[i], b[j], acc)` per element, then one add into `C`) matches
/// `tile_body::<_, _, true>` exactly, keeping this backend bit-identical
/// to [`Avx2Kernel`] at a fixed KC/NC.
///
/// # Safety
///
/// The running CPU must support AVX-512F, `ap`/`bp` must be packed as
/// `depth` steps of `MR`/`NR` elements, and `c` must span the addressed
/// `iv × jv` sub-tile at row stride `ldc`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn tile_avx512(ap: &[f32], bp: &[f32], c: &mut [f32], ldc: usize, iv: usize, jv: usize) {
    use core::arch::x86_64::*;
    const MR: usize = block::MR;
    const NR: usize = 2 * block::NR;
    let depth = ap.len() / MR;
    debug_assert_eq!(bp.len() / NR, depth);
    // SAFETY: the packer sizes `ap`/`bp` as `depth` steps of MR/NR
    // elements; `c` spans at least `(iv - 1) * ldc + jv` elements and the
    // masked store touches only the first `jv` lanes of each row.
    unsafe {
        let mut acc = [_mm512_setzero_ps(); MR];
        for p in 0..depth {
            let b = _mm512_loadu_ps(bp.as_ptr().add(p * NR));
            let arow = ap.as_ptr().add(p * MR);
            for (i, accum) in acc.iter_mut().enumerate() {
                let a = _mm512_set1_ps(*arow.add(i));
                *accum = _mm512_fmadd_ps(a, b, *accum);
            }
        }
        let mask: __mmask16 = if jv >= NR {
            !0
        } else {
            (1u16 << jv).wrapping_sub(1)
        };
        for (i, accum) in acc.iter().enumerate().take(iv) {
            let crow = c.as_mut_ptr().add(i * ldc);
            let prev = _mm512_maskz_loadu_ps(mask, crow);
            _mm512_mask_storeu_ps(crow, mask, _mm512_add_ps(prev, *accum));
        }
    }
}

/// [`tile_avx512`] with the `A` block read in place and `P` adjacent B
/// panels fed from every `A` broadcast (`8 × P` `zmm` accumulators —
/// `P = 3` is the widest that leaves registers for the `P` B vectors and
/// the broadcast). Panel
/// `q` covers columns `q·16..` of `c`; per element the `fma(a, b, acc)`
/// chain and the single add into `C` are [`tile_avx512`]'s.
///
/// # Safety
///
/// The running CPU must support AVX-512F, `bp` must hold `P` packed
/// panels of `a.kcl` steps × 16 values, `c` must span the addressed
/// `a.ivalid × jv` strip at row stride `ldc`, and
/// `(P - 1) · 16 < jv <= P · 16`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn tile_avx512_in_place<const P: usize>(
    a: InPlaceA<'_>,
    bp: &[f32],
    c: &mut [f32],
    ldc: usize,
    jv: usize,
) {
    use core::arch::x86_64::*;
    const MR: usize = block::MR;
    const NR: usize = 2 * block::NR;
    debug_assert_eq!(bp.len(), P * a.kcl * NR);
    let (rows, ks) = a.strides();
    // SAFETY: `InPlaceA::new` proved `rows[i] + p·ks` in bounds of
    // `a.data` for every `p < kcl`; `bp` is `P` panels of `kcl` steps of
    // NR values (asserted by the caller's slicing); `c` spans at least
    // `(ivalid - 1) · ldc + jv` elements and the masked stores touch only
    // the first `jv` columns of each row.
    unsafe {
        let base = a.data.as_ptr();
        let rows: [*const f32; MR] = std::array::from_fn(|i| base.add(rows[i]));
        let mut acc = [[_mm512_setzero_ps(); P]; MR];
        let mut off = 0;
        for p in 0..a.kcl {
            let b: [__m512; P] =
                std::array::from_fn(|q| _mm512_loadu_ps(bp.as_ptr().add((q * a.kcl + p) * NR)));
            if ks != 1 {
                // The `tn` walk strides a whole `A` row per step — past
                // what the hardware prefetcher follows. One hint per step
                // covers the tile's `MR` contiguous values.
                _mm_prefetch::<_MM_HINT_T0>(rows[0].wrapping_add(off + 16 * ks) as *const i8);
            }
            for (row, accum) in rows.iter().zip(acc.iter_mut()) {
                let av = _mm512_set1_ps(*row.add(off));
                for (slot, bq) in accum.iter_mut().zip(&b) {
                    *slot = _mm512_fmadd_ps(av, *bq, *slot);
                }
            }
            off += ks;
        }
        for q in 0..P {
            let lanes = (jv - q * NR).min(NR);
            let mask: __mmask16 = if lanes >= NR {
                !0
            } else {
                (1u16 << lanes).wrapping_sub(1)
            };
            for (i, accum) in acc.iter().enumerate().take(a.ivalid) {
                let crow = c.as_mut_ptr().add(i * ldc + q * NR);
                let prev = _mm512_maskz_loadu_ps(mask, crow);
                _mm512_mask_storeu_ps(crow, mask, _mm512_add_ps(prev, accum[q]));
            }
        }
    }
}

/// AVX-512 8×16 backend: same `MR`, double-width `B` panels. Hardware
/// FMA accumulation in the same per-element order as [`Avx2Kernel`], so
/// the two are bit-identical at a fixed KC/NC. (Implemented — and
/// dispatchable — on x86-64 only.)
pub struct Avx512Kernel;

#[cfg(target_arch = "x86_64")]
impl MicroKernel for Avx512Kernel {
    const MR: usize = block::MR;
    const NR: usize = 2 * block::NR;
    const KIND: KernelKind = KernelKind::Avx512;

    // SAFETY: callers uphold the trait contract — this backend is only
    // dispatched when `KernelKind::Avx512.is_supported()` held.
    unsafe fn tile(ap: &[f32], bp: &[f32], c: &mut [f32], ldc: usize, iv: usize, jv: usize) {
        // SAFETY: forwarded from the dispatcher, which only selects this
        // backend when `KernelKind::Avx512.is_supported()` held.
        unsafe { tile_avx512(ap, bp, c, ldc, iv, jv) }
    }

    // SAFETY: same contract as `tile`. Up to 24 `zmm` accumulators hold a
    // three-panel group, so `a` is read directly and `_stage` goes unused.
    unsafe fn tile_in_place(
        a: InPlaceA<'_>,
        _stage: &mut [f32],
        bp: &[f32],
        c: &mut [f32],
        ldc: usize,
        jv: usize,
    ) {
        // The raw stores below rely on `c` spanning the strip.
        assert!(c.len() >= (a.ivalid - 1) * ldc + jv, "C strip too short");
        // Each walk of `a` feeds a group of three panels while three or
        // more remain — a `tn` block re-read per group is a strided walk —
        // except that four go as two pairs rather than three and one.
        let mut j0 = 0;
        while j0 < jv {
            let left = jv - j0;
            let group = match left.div_ceil(Self::NR) {
                4 => 2,
                r => r.min(3),
            };
            let bq = &bp[j0 * a.kcl..][..group * a.kcl * Self::NR];
            let (cq, cols) = (&mut c[j0..], left.min(group * Self::NR));
            // SAFETY: forwarded from the dispatcher, which only selects
            // this backend when `KernelKind::Avx512.is_supported()` held;
            // `bq` is cut to exactly the `group` panels the call covers
            // and `cols` to their columns, more than `group - 1` panels'.
            unsafe {
                match group {
                    3 => tile_avx512_in_place::<3>(a, bq, cq, ldc, cols),
                    2 => tile_avx512_in_place::<2>(a, bq, cq, ldc, cols),
                    _ => tile_avx512_in_place::<1>(a, bq, cq, ldc, cols),
                }
            }
            j0 += group * Self::NR;
        }
    }
}

/// Monomorphizes `$body` over the [`MicroKernel`] implementation named
/// by a [`KernelKind`], binding it to the type alias `$K`.
macro_rules! with_kernel {
    ($kind:expr, $K:ident, $body:expr) => {
        match $kind {
            KernelKind::Portable => {
                type $K = PortableKernel;
                $body
            }
            #[cfg(target_arch = "x86_64")]
            KernelKind::Avx2 => {
                type $K = Avx2Kernel;
                $body
            }
            #[cfg(target_arch = "x86_64")]
            KernelKind::Avx512 => {
                type $K = Avx512Kernel;
                $body
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => unreachable!("SIMD backends are never dispatched off x86-64"),
        }
    };
}

/// Splits `rows` into at most `parts` near-equal contiguous blocks whose
/// sizes are multiples of `mr` (except possibly the last), so row-block
/// boundaries always fall on packing-panel boundaries.
fn mr_row_blocks(rows: usize, parts: usize, mr: usize) -> Vec<usize> {
    let panels = rows.div_ceil(mr);
    let parts = parts.clamp(1, panels.max(1));
    let per = panels.div_ceil(parts);
    let mut sizes = Vec::with_capacity(parts);
    let mut start_panel = 0;
    while start_panel < panels {
        let take = per.min(panels - start_panel);
        let row_end = ((start_panel + take) * mr).min(rows);
        sizes.push(row_end - start_panel * mr);
        start_panel += take;
    }
    sizes
}

/// Packs rows `row0..row0+rows`, K slice `kk0..kk0+kcl` of row-major
/// `a` (`lda = k`) into `mr`-row panels: panel `ip`, element `(kk, ir)`
/// at `ip·kcl·mr + kk·mr + ir`. Panel tails are zero-padded.
#[allow(clippy::too_many_arguments)]
fn pack_a_rows(
    a: &[f32],
    k: usize,
    row0: usize,
    rows: usize,
    kk0: usize,
    kcl: usize,
    mr: usize,
    dst: &mut [f32],
) {
    let mp = rows.div_ceil(mr);
    debug_assert_eq!(dst.len(), mp * kcl * mr);
    for ip in 0..mp {
        let panel = &mut dst[ip * kcl * mr..(ip + 1) * kcl * mr];
        let ivalid = mr.min(rows - ip * mr);
        if ivalid < mr {
            panel.fill(0.0);
        }
        for ir in 0..ivalid {
            let src = &a[(row0 + ip * mr + ir) * k + kk0..][..kcl];
            for (kk, &v) in src.iter().enumerate() {
                panel[kk * mr + ir] = v;
            }
        }
    }
}

/// Packs *columns* `row0..row0+rows` of the `k×m` row-major `a` (i.e.
/// rows of `Aᵀ`), K slice `kk0..kk0+kcl`, into the same `mr`-row panel
/// layout as [`pack_a_rows`]. Each `kk` step copies `mr` **contiguous**
/// values of one `A` row — this is the `matmul_tn` column-stride fix: the
/// kernel reads `A` along its rows during packing instead of striding
/// `k·m` elements apart in the inner loop.
#[allow(clippy::too_many_arguments)]
fn pack_a_cols(
    a: &[f32],
    m: usize,
    row0: usize,
    rows: usize,
    kk0: usize,
    kcl: usize,
    mr: usize,
    dst: &mut [f32],
) {
    let mp = rows.div_ceil(mr);
    debug_assert_eq!(dst.len(), mp * kcl * mr);
    for ip in 0..mp {
        let panel = &mut dst[ip * kcl * mr..(ip + 1) * kcl * mr];
        let ivalid = mr.min(rows - ip * mr);
        if ivalid < mr {
            panel.fill(0.0);
        }
        for kk in 0..kcl {
            let src = &a[(kk0 + kk) * m + row0 + ip * mr..][..ivalid];
            panel[kk * mr..][..ivalid].copy_from_slice(src);
        }
    }
}

/// Packs K slice `kk0..kk0+kcl` of the row-major `k×n` matrix `b` into
/// `nr`-column panels: panel `jp`, element `(kk, jr)` at
/// `jp·kcl·nr + kk·nr + jr`. Panel tails are zero-padded.
fn pack_b_rows(b: &[f32], n: usize, kk0: usize, kcl: usize, nr: usize, dst: &mut [f32]) {
    let np = n.div_ceil(nr);
    debug_assert_eq!(dst.len(), np * kcl * nr);
    for jp in 0..np {
        let panel = &mut dst[jp * kcl * nr..(jp + 1) * kcl * nr];
        let jvalid = nr.min(n - jp * nr);
        if jvalid < nr {
            panel.fill(0.0);
        }
        for kk in 0..kcl {
            let src = &b[(kk0 + kk) * n + jp * nr..][..jvalid];
            panel[kk * nr..][..jvalid].copy_from_slice(src);
        }
    }
}

/// Packs K slice `kk0..kk0+kcl` of `Bᵀ` where `b` is stored row-major
/// `n×k` (the `matmul_nt` operand) into the same `nr`-column panel layout
/// as [`pack_b_rows`]. Reads run contiguously along `b`'s rows.
fn pack_b_cols(b: &[f32], k: usize, n: usize, kk0: usize, kcl: usize, nr: usize, dst: &mut [f32]) {
    let np = n.div_ceil(nr);
    debug_assert_eq!(dst.len(), np * kcl * nr);
    for jp in 0..np {
        let panel = &mut dst[jp * kcl * nr..(jp + 1) * kcl * nr];
        let jvalid = nr.min(n - jp * nr);
        if jvalid < nr {
            panel.fill(0.0);
        }
        for jr in 0..jvalid {
            let src = &b[(jp * nr + jr) * k + kk0..][..kcl];
            for (kk, &v) in src.iter().enumerate() {
                panel[kk * nr + jr] = v;
            }
        }
    }
}

/// Which layout the `A` operand arrives in.
#[derive(Debug, Clone, Copy)]
enum APack {
    /// `a` is row-major `m×k` — pack rows ([`pack_a_rows`]).
    Rows,
    /// `a` is row-major `k×m` (the `tn` operand) — pack columns
    /// ([`pack_a_cols`]).
    Cols,
}

/// Which layout the `B` operand arrives in.
#[derive(Debug, Clone, Copy)]
enum BPack {
    /// `b` is row-major `k×n` — pack rows ([`pack_b_rows`]).
    Rows,
    /// `b` is row-major `n×k` (the `nt` operand) — pack its transpose
    /// ([`pack_b_cols`]).
    Cols,
}

/// Runs `body(first_row, chunk)` over `mr`-aligned row blocks of the
/// `m×n` output `c`: the whole matrix on the calling thread when
/// `nthreads <= 1` (or there is a single tile of rows), else one task per
/// block on the shared pool.
fn over_row_blocks(
    m: usize,
    n: usize,
    mr: usize,
    nthreads: usize,
    c: &mut [f32],
    body: impl Fn(usize, &mut [f32]) + Sync,
) {
    if nthreads <= 1 || m <= mr {
        // Serial path: no row split, no per-call block bookkeeping — in
        // steady state the only allocation left in a whole GEMM call is
        // the caller's output matrix.
        body(0, c);
        return;
    }
    let sizes = mr_row_blocks(m, nthreads, mr);
    let (outs, blocks) = ([BlockOut::rows(c, n)], RowBlocks::Sizes(&sizes));
    pool().run_row_blocks(outs, blocks, sizes.len(), |_, row0, [chunk]| {
        body(row0, chunk)
    });
}

/// The driver shared by every variant and backend (the module docs'
/// *Blocking* gives the reasons). Output rows are split into `MR`-aligned
/// blocks, one task per block on the shared pool; each task zero-fills its
/// `C` chunk, then feeds each row tile's `MR × kcl` block of `a`, read
/// where it lies ([`InPlaceA`]), to a strip of the packed `B` panels
/// (`b_packed`: every K panel, packed once by the caller at `kc` and
/// `K::NR`) in one [`MicroKernel::tile_in_place`] call. A product that is
/// one strip with a row-major `A` (`nn`, `nt`) sweeps tile-major; every
/// other product sweeps K panels, then `nc`-column strips, then row tiles.
/// Per element every order is the same arithmetic — a `k`-sequential
/// multiply-add chain from a zero accumulator inside each K panel, one add
/// into `C` per panel, panels in ascending `k` — so the result does not
/// depend on the order, the strip width or the row split.
#[allow(clippy::too_many_arguments)]
fn gemm_in_place<K: MicroKernel>(
    a: &[f32],
    m: usize,
    n: usize,
    k: usize,
    apack: APack,
    (kc, nc): (usize, usize),
    nthreads: usize,
    b_packed: &[f32],
    c: &mut [f32],
) {
    let (mr, nr) = (K::MR, K::NR);
    let np = n.div_ceil(nr);
    // NC in units of whole B panels, at least one.
    let ncp = nc.div_ceil(nr).max(1);
    let lda = match apack {
        APack::Rows => k,
        APack::Cols => m,
    };
    let tile_major = matches!(apack, APack::Rows) && np <= ncp;
    let panels = || (0..k).step_by(kc).map(|kk0| (kk0, kc.min(k - kk0)));
    let strips = || (0..np).step_by(ncp).map(|jj| (jj, (jj + ncp).min(np)));
    over_row_blocks(m, n, mr, nthreads, c, |first_row, chunk| {
        chunk.fill(0.0);
        let mut stage = PackWorkspace::take(PackBuf::OperandA, kc.min(k) * mr);
        // One row tile × one K panel × one strip of B panels `jj..jj_end`:
        // rows `row0..` of `a`, accumulated into the tile's rows `ct`.
        let mut tile = |row0: usize, ct: &mut [f32], (kk0, kcl), (jj, jj_end): (usize, usize)| {
            let block = InPlaceA::new(a, apack, lda, row0, ct.len() / n, kk0, kcl);
            let bp = &b_packed[kk0 * np * nr + jj * kcl * nr..][..(jj_end - jj) * kcl * nr];
            let jvalid = n.min(jj_end * nr) - jj * nr;
            // SAFETY: the dispatcher only selects `K` after
            // `K::KIND.is_supported()` held on this CPU.
            unsafe { K::tile_in_place(block, &mut stage, bp, &mut ct[jj * nr..], n, jvalid) };
        };
        if tile_major {
            for (ip, ct) in chunk.chunks_mut(mr * n).enumerate() {
                for panel in panels() {
                    tile(first_row + ip * mr, ct, panel, (0, np));
                }
            }
        } else {
            for panel in panels() {
                for strip in strips() {
                    for (ip, ct) in chunk.chunks_mut(mr * n).enumerate() {
                        tile(first_row + ip * mr, ct, panel, strip);
                    }
                }
            }
        }
        PackWorkspace::give(PackBuf::OperandA, stage);
    });
}

/// Packs every K panel of a `k`-deep `B` operand into a workspace buffer
/// using `pack_block(kk0, kcl, dst)` at panel depth `kc` and panel width
/// `nr`, returning the buffer (give it back with [`PackWorkspace::give`]).
/// The panels are disjoint pure copies, so a pooled call (`nthreads > 1`)
/// shares them out over the pool: a `tn` product's `B` is as large as the
/// activations it multiplies.
fn pack_b_full(
    k: usize,
    n: usize,
    kc: usize,
    nr: usize,
    nthreads: usize,
    pack_block: impl Fn(usize, usize, &mut [f32]) + Sync,
) -> Vec<f32> {
    let width = n.div_ceil(nr) * nr;
    let mut bbuf = PackWorkspace::take(PackBuf::OperandB, k * width);
    let panels = RowBlocks::Even { rows: k, per: kc };
    pool().run_row_blocks(
        [BlockOut::rows(&mut bbuf, width)],
        panels,
        nthreads,
        |_, kk0, [dst]| pack_block(kk0, dst.len() / width, dst),
    );
    bbuf
}

/// The shared entry body: packs `B` for the snapshot's backend, then runs
/// the monomorphized driver.
#[allow(clippy::too_many_arguments)]
fn gemm_dispatch(
    a: &[f32],
    b: &[f32],
    m: usize,
    n: usize,
    k: usize,
    apack: APack,
    bpack: BPack,
    cfg: block::TileConfig,
    nthreads: usize,
    c: &mut [f32],
) {
    GEMM_CALLS.add(1);
    GEMM_MADDS.add((m * n * k) as u64);
    kernel_dispatch_counter(cfg.kernel).add(1);
    let kc = cfg.kc;
    with_kernel!(cfg.kernel, K, {
        let bbuf = pack_b_full(k, n, kc, K::NR, nthreads, |kk0, kcl, dst| match bpack {
            BPack::Rows => pack_b_rows(b, n, kk0, kcl, K::NR, dst),
            BPack::Cols => pack_b_cols(b, k, n, kk0, kcl, K::NR, dst),
        });
        gemm_in_place::<K>(a, m, n, k, apack, (kc, cfg.nc), nthreads, &bbuf, c);
        PackWorkspace::give(PackBuf::OperandB, bbuf);
    });
}

/// `C = A · B`.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    matmul_into(a, b, &mut c);
    c
}

/// `C = A · B` into a pre-allocated output (overwrites `c`).
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()` or `c` is not `a.rows() x b.cols()`.
pub fn matmul_into(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    let (m, k) = a.shape();
    let (k2, n) = b.shape();
    assert_eq!(k, k2, "matmul inner-dimension mismatch: {k} vs {k2}");
    assert_eq!(c.shape(), (m, n), "matmul output shape mismatch");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        c.fill_zero();
        return;
    }
    let cfg = block::tile_config();
    gemm_dispatch(
        a.as_slice(),
        b.as_slice(),
        m,
        n,
        k,
        APack::Rows,
        BPack::Rows,
        cfg,
        threads_for(m * n * k),
        c.as_mut_slice(),
    );
}

/// `C = Aᵀ · B` where `A` is `k x m` and `B` is `k x n`.
///
/// # Panics
///
/// Panics if `a.rows() != b.rows()`.
pub fn matmul_tn(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.cols(), b.cols());
    matmul_tn_into(a, b, &mut c);
    c
}

/// `C = Aᵀ · B` into a pre-allocated output (overwrites `c`).
///
/// The backward passes in `ppgnn-nn` route their weight gradients through
/// this into reusable scratch matrices, so steady-state training batches
/// allocate nothing for the `∂W = Xᵀ · ∂Y` product.
///
/// # Panics
///
/// Panics if `a.rows() != b.rows()` or `c` is not `a.cols() x b.cols()`.
pub fn matmul_tn_into(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    let (k, m) = a.shape();
    let (k2, n) = b.shape();
    assert_eq!(k, k2, "matmul_tn shared-dimension mismatch: {k} vs {k2}");
    assert_eq!(c.shape(), (m, n), "matmul_tn output shape mismatch");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        c.fill_zero();
        return;
    }
    let cfg = block::tile_config();
    gemm_dispatch(
        a.as_slice(),
        b.as_slice(),
        m,
        n,
        k,
        APack::Cols,
        BPack::Rows,
        cfg,
        threads_for(m * n * k),
        c.as_mut_slice(),
    );
}

/// `C = A · Bᵀ` where `A` is `m x k` and `B` is `n x k`.
///
/// # Panics
///
/// Panics if `a.cols() != b.cols()`.
pub fn matmul_nt(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.rows());
    matmul_nt_into(a, b, &mut c);
    c
}

/// `C = A · Bᵀ` into a pre-allocated output (overwrites `c`).
///
/// # Panics
///
/// Panics if `a.cols() != b.cols()` or `c` is not `a.rows() x b.rows()`.
pub fn matmul_nt_into(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    let (m, k) = a.shape();
    let (n, k2) = b.shape();
    assert_eq!(k, k2, "matmul_nt inner-dimension mismatch: {k} vs {k2}");
    assert_eq!(c.shape(), (m, n), "matmul_nt output shape mismatch");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        c.fill_zero();
        return;
    }
    let cfg = block::tile_config();
    gemm_dispatch(
        a.as_slice(),
        b.as_slice(),
        m,
        n,
        k,
        APack::Rows,
        BPack::Cols,
        cfg,
        threads_for(m * n * k),
        c.as_mut_slice(),
    );
}

/// The pre-blocking naive kernels, retained verbatim as the correctness
/// oracle for the packed implementations.
///
/// These are the i-k-j loops the packed kernels replaced: no packing, no
/// register tiling, a per-element `aik == 0.0` branch, and (in
/// [`reference::matmul_tn`]) a `k·m`-stride walk down `A`'s columns. They
/// parallelize over equal output-row blocks on the same shared pool, so
/// baseline measurements see the same thread budget as the packed
/// kernels.
pub mod reference {
    use crate::pool::{pool, threads_for, BlockOut, RowBlocks};
    use crate::Matrix;

    /// Runs `body(first_row, out_chunk)` over disjoint row blocks of
    /// `out` on the shared pool when `nthreads > 1`.
    fn parallel_over_rows<F>(out: &mut Matrix, nthreads: usize, body: F)
    where
        F: Fn(usize, &mut [f32]) + Sync,
    {
        let rows = out.rows();
        let cols = out.cols();
        if rows == 0 || cols == 0 {
            return;
        }
        if nthreads <= 1 || rows == 1 {
            body(0, out.as_mut_slice());
            return;
        }
        // At most `nthreads` near-equal contiguous blocks, one per task.
        let per = rows.div_ceil(nthreads.min(rows));
        let outs = [BlockOut::rows(out.as_mut_slice(), cols)];
        let blocks = RowBlocks::Even { rows, per };
        pool().run_row_blocks(outs, blocks, nthreads, |_, row0, [chunk]| body(row0, chunk));
    }

    /// Naive `C = A · B`.
    ///
    /// # Panics
    ///
    /// Panics if `a.cols() != b.rows()`.
    pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        matmul_into(a, b, &mut c);
        c
    }

    /// Naive `C = A · B` into a pre-allocated output (overwrites `c`).
    ///
    /// # Panics
    ///
    /// Panics if `a.cols() != b.rows()` or `c` is not
    /// `a.rows() x b.cols()`.
    pub fn matmul_into(a: &Matrix, b: &Matrix, c: &mut Matrix) {
        let (m, k) = a.shape();
        let (k2, n) = b.shape();
        assert_eq!(k, k2, "matmul inner-dimension mismatch: {k} vs {k2}");
        assert_eq!(c.shape(), (m, n), "matmul output shape mismatch");
        c.fill_zero();
        let flops = m * n * k;
        let a_data = a.as_slice();
        let b_data = b.as_slice();
        parallel_over_rows(c, threads_for(flops), |first_row, chunk| {
            for (local_i, c_row) in chunk.chunks_exact_mut(n).enumerate() {
                let i = first_row + local_i;
                let a_row = &a_data[i * k..(i + 1) * k];
                for (kk, &aik) in a_row.iter().enumerate() {
                    if aik == 0.0 {
                        continue;
                    }
                    let b_row = &b_data[kk * n..(kk + 1) * n];
                    for (cv, bv) in c_row.iter_mut().zip(b_row) {
                        *cv += aik * bv;
                    }
                }
            }
        });
    }

    /// Naive `C = Aᵀ · B` — strides `m` elements between consecutive `A`
    /// reads (the column-stride pathology the packed kernel removes).
    ///
    /// # Panics
    ///
    /// Panics if `a.rows() != b.rows()`.
    pub fn matmul_tn(a: &Matrix, b: &Matrix) -> Matrix {
        let (k, m) = a.shape();
        let (k2, n) = b.shape();
        assert_eq!(k, k2, "matmul_tn shared-dimension mismatch: {k} vs {k2}");
        let mut c = Matrix::zeros(m, n);
        let flops = m * n * k;
        let a_data = a.as_slice();
        let b_data = b.as_slice();
        parallel_over_rows(&mut c, threads_for(flops), |first_row, chunk| {
            for (local_i, c_row) in chunk.chunks_exact_mut(n).enumerate() {
                let i = first_row + local_i;
                for kk in 0..k {
                    let aki = a_data[kk * m + i];
                    if aki == 0.0 {
                        continue;
                    }
                    let b_row = &b_data[kk * n..(kk + 1) * n];
                    for (cv, bv) in c_row.iter_mut().zip(b_row) {
                        *cv += aki * bv;
                    }
                }
            }
        });
        c
    }

    /// Naive `C = A · Bᵀ` via per-element dot products.
    ///
    /// # Panics
    ///
    /// Panics if `a.cols() != b.cols()`.
    pub fn matmul_nt(a: &Matrix, b: &Matrix) -> Matrix {
        let (m, k) = a.shape();
        let (n, k2) = b.shape();
        assert_eq!(k, k2, "matmul_nt inner-dimension mismatch: {k} vs {k2}");
        let mut c = Matrix::zeros(m, n);
        let flops = m * n * k;
        let a_data = a.as_slice();
        let b_data = b.as_slice();
        parallel_over_rows(&mut c, threads_for(flops), |first_row, chunk| {
            for (local_i, c_row) in chunk.chunks_exact_mut(n).enumerate() {
                let i = first_row + local_i;
                let a_row = &a_data[i * k..(i + 1) * k];
                for (j, cv) in c_row.iter_mut().enumerate() {
                    let b_row = &b_data[j * k..(j + 1) * k];
                    let mut acc = 0.0;
                    for (av, bv) in a_row.iter().zip(b_row) {
                        acc += av * bv;
                    }
                    *cv = acc;
                }
            }
        });
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{set_parallel_threshold, DEFAULT_PARALLEL_THRESHOLD, TEST_THRESHOLD_LOCK};
    use block::{MR, NR};

    fn naive(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0;
                for k in 0..a.cols() {
                    acc += a.get(i, k) * b.get(k, j);
                }
                c.set(i, j, acc);
            }
        }
        c
    }

    fn rand_mat(rows: usize, cols: usize, seed: u64) -> Matrix {
        // tiny deterministic LCG so this module has no test-only deps
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        Matrix::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        })
    }

    #[test]
    fn matmul_matches_naive() {
        let a = rand_mat(7, 5, 1);
        let b = rand_mat(5, 9, 2);
        assert!(matmul(&a, &b).max_abs_diff(&naive(&a, &b)) < 1e-4);
    }

    #[test]
    fn matmul_identity() {
        let a = rand_mat(4, 4, 3);
        assert!(matmul(&a, &Matrix::eye(4)).max_abs_diff(&a) < 1e-6);
        assert!(matmul(&Matrix::eye(4), &a).max_abs_diff(&a) < 1e-6);
    }

    #[test]
    fn tn_and_nt_match_explicit_transpose() {
        let a = rand_mat(6, 4, 4);
        let b = rand_mat(6, 5, 5);
        assert!(matmul_tn(&a, &b).max_abs_diff(&matmul(&a.transpose(), &b)) < 1e-4);
        let c = rand_mat(3, 6, 6);
        assert!(matmul_nt(&c, &b.transpose()).max_abs_diff(&matmul(&c, &b)) < 1e-4);
    }

    #[test]
    #[cfg_attr(miri, ignore = "pool fan-out is minutes-slow interpreted")]
    fn threaded_path_matches_serial_bitwise() {
        let _guard = TEST_THRESHOLD_LOCK.lock().unwrap();
        let a = rand_mat(33, 17, 7);
        let b = rand_mat(17, 29, 8);
        set_parallel_threshold(usize::MAX);
        let serial = matmul(&a, &b);
        set_parallel_threshold(0);
        let threaded = matmul(&a, &b);
        set_parallel_threshold(DEFAULT_PARALLEL_THRESHOLD);
        // MR-aligned row splitting never reorders per-element accumulation.
        assert_eq!(serial, threaded);
    }

    #[test]
    #[cfg_attr(miri, ignore = "pool fan-out is minutes-slow interpreted")]
    fn all_three_kernels_agree_on_the_pooled_path() {
        let _guard = TEST_THRESHOLD_LOCK.lock().unwrap();
        let a = rand_mat(40, 12, 11);
        let b = rand_mat(12, 23, 12);
        let bt = b.transpose();
        set_parallel_threshold(0);
        let c = matmul(&a, &b);
        let c_tn = matmul_tn(&a.transpose(), &b);
        let c_nt = matmul_nt(&a, &bt);
        set_parallel_threshold(DEFAULT_PARALLEL_THRESHOLD);
        assert!(c.max_abs_diff(&c_tn) < 1e-4);
        assert!(c.max_abs_diff(&c_nt) < 1e-4);
    }

    #[test]
    #[cfg_attr(miri, ignore = "large shape sweep is minutes-slow interpreted")]
    fn packed_kernels_match_reference_at_block_edge_tails() {
        // Shapes straddling every blocking boundary: below/at/above MR, NR
        // (both 8-wide and the AVX-512 16-wide panel) and, with the
        // overrides below, KC and NC.
        let _guard = TEST_THRESHOLD_LOCK.lock().unwrap();
        block::set_kc(5);
        block::set_nc(NR + 1);
        for (m, n, k, seed) in [
            (1, 1, 1, 1u64),
            (MR - 1, NR - 1, 4, 2),
            (MR, NR, 5, 3),
            (MR + 1, NR + 1, 6, 4),
            (2 * MR + 1, 2 * NR + 1, 11, 5),
            (9, 17, 2 * 5 + 1, 6), // k spans two full KC panels + tail
            (13, 3, 5, 7),
            (MR + 3, 4 * NR + 3, 9, 8), // several NC blocks of B panels
        ] {
            let a = rand_mat(m, k, seed);
            let b = rand_mat(k, n, seed + 100);
            let expect = reference::matmul(&a, &b);
            assert!(
                matmul(&a, &b).max_abs_diff(&expect) < 1e-4,
                "nn {m}x{k}x{n}"
            );
            assert!(
                matmul_tn(&a.transpose(), &b).max_abs_diff(&expect) < 1e-4,
                "tn {m}x{k}x{n}"
            );
            assert!(
                matmul_nt(&a, &b.transpose()).max_abs_diff(&expect) < 1e-4,
                "nt {m}x{k}x{n}"
            );
        }
        block::set_nc(0);
        block::set_kc(0);
    }

    #[test]
    #[cfg_attr(miri, ignore = "Miri does not model x86 SIMD intrinsics")]
    fn every_supported_backend_matches_reference_and_fma_class_is_bit_identical() {
        // The cross-backend equivalence suite: at one fixed KC/NC every
        // supported backend must agree with the reference within float
        // tolerance, and the hardware-FMA backends (identical
        // k-sequential accumulation, single rounding per step) must
        // agree with each other **bitwise**.
        let _guard = TEST_THRESHOLD_LOCK.lock().unwrap();
        block::set_kc(7);
        block::set_nc(2 * NR);
        let a = rand_mat(MR * 3 + 5, 29, 91);
        let b = rand_mat(29, 4 * NR + 3, 92);
        let at = a.transpose();
        let bt = b.transpose();
        let expect = reference::matmul(&a, &b);
        let mut fma_outputs: Vec<(KernelKind, Matrix)> = Vec::new();
        for &kind in compiled_kernels() {
            if !kind.is_supported() {
                continue;
            }
            block::set_kernel(Some(kind));
            let c = matmul(&a, &b);
            assert!(
                c.max_abs_diff(&expect) < 1e-4,
                "{} nn diverges from reference",
                kind.name()
            );
            assert!(
                matmul_tn(&at, &b).max_abs_diff(&expect) < 1e-4,
                "{} tn diverges from reference",
                kind.name()
            );
            assert!(
                matmul_nt(&a, &bt).max_abs_diff(&expect) < 1e-4,
                "{} nt diverges from reference",
                kind.name()
            );
            if kind.uses_fma() {
                fma_outputs.push((kind, c));
            }
        }
        block::set_kernel(None);
        block::set_nc(0);
        block::set_kc(0);
        for pair in fma_outputs.windows(2) {
            assert_eq!(
                pair[0].1,
                pair[1].1,
                "{} and {} must be bit-identical at fixed KC/NC",
                pair[0].0.name(),
                pair[1].0.name()
            );
        }
    }

    /// `(name, A layout, B layout, public entry)` of the three variants.
    type Layout = (
        &'static str,
        APack,
        BPack,
        fn(&Matrix, &Matrix, &mut Matrix),
    );

    const LAYOUTS: [Layout; 3] = [
        ("nn", APack::Rows, BPack::Rows, matmul_into),
        ("tn", APack::Cols, BPack::Rows, matmul_tn_into),
        ("nt", APack::Rows, BPack::Cols, matmul_nt_into),
    ];

    /// `x` as `transposed` says the layout stores it.
    fn stored<'m>(x: &'m Matrix, xt: &'m Matrix, transposed: bool) -> &'m Matrix {
        if transposed {
            xt
        } else {
            x
        }
    }

    fn same_bits(p: &[f32], q: &[f32]) -> bool {
        p.len() == q.len() && p.iter().zip(q).all(|(p, q)| p.to_bits() == q.to_bits())
    }

    /// The driver's oracle: `A` and `B` packed panel by panel on the
    /// calling thread, one [`MicroKernel::tile`] call per (row tile, B
    /// panel) — no in-place read, no strip, no panel group, no row split.
    fn per_panel_sweep<K: MicroKernel>(
        (a, b): (&[f32], &[f32]),
        (m, n, k): (usize, usize, usize),
        (apack, bpack): (APack, BPack),
        (kc, nc): (usize, usize),
    ) -> Matrix {
        let (mr, nr) = (K::MR, K::NR);
        let (mp, np, ncp) = (m.div_ceil(mr), n.div_ceil(nr), nc.div_ceil(nr).max(1));
        let mut c = Matrix::zeros(m, n);
        let (mut ap, mut bp) = (vec![0.0; kc * mp * mr], vec![0.0; kc * np * nr]);
        for kk0 in (0..k).step_by(kc) {
            let kcl = kc.min(k - kk0);
            let (ap, bp) = (&mut ap[..kcl * mp * mr], &mut bp[..kcl * np * nr]);
            match apack {
                APack::Rows => pack_a_rows(a, k, 0, m, kk0, kcl, mr, ap),
                APack::Cols => pack_a_cols(a, m, 0, m, kk0, kcl, mr, ap),
            }
            match bpack {
                BPack::Rows => pack_b_rows(b, n, kk0, kcl, nr, bp),
                BPack::Cols => pack_b_cols(b, k, n, kk0, kcl, nr, bp),
            }
            for jj in (0..np).step_by(ncp) {
                for ip in 0..mp {
                    for jp in jj..(jj + ncp).min(np) {
                        let ct = &mut c.as_mut_slice()[ip * mr * n + jp * nr..];
                        let (iv, jv) = (mr.min(m - ip * mr), nr.min(n - jp * nr));
                        let (ap, bp) = (
                            &ap[ip * kcl * mr..][..kcl * mr],
                            &bp[jp * kcl * nr..][..kcl * nr],
                        );
                        // SAFETY: the caller monomorphizes supported kernels only.
                        unsafe { K::tile(ap, bp, ct, n, iv, jv) };
                    }
                }
            }
        }
        c
    }

    /// How a sweep runs each product: through its public entry point at
    /// a parallel threshold (`usize::MAX` serial, `0` pooled), or through
    /// the shared entry body at a fixed number of row blocks.
    #[derive(Clone, Copy, Debug)]
    enum Run {
        Public(usize),
        Body(usize),
    }

    /// The driver's contract, swept rather than sampled: every compiled
    /// backend × {nn, tn, nt} × the given `n` × m and k straddling the MR,
    /// KC and 2·KC edges, each product run every way `runs` lists; every
    /// run must reproduce the per-panel oracle bit for bit, and the oracle
    /// must sit on the reference.
    fn assert_sweep_matches_per_panel_oracle(ns: &[usize], runs: &[Run]) {
        const KC: usize = 8;
        let _guard = TEST_THRESHOLD_LOCK.lock().unwrap();
        block::set_kc(KC);
        let nc = block::nc();
        let ms = [1, MR - 1, MR, MR + 1, 3 * MR + 5];
        let ks = [1, KC - 1, KC, KC + 1, 2 * KC - 1, 2 * KC, 2 * KC + 1];
        for &kind in compiled_kernels().iter().filter(|k| k.is_supported()) {
            block::set_kernel(Some(kind));
            let cfg = block::tile_config();
            for &n in ns {
                for (m, k) in ms.iter().flat_map(|&m| ks.iter().map(move |&k| (m, k))) {
                    let a = rand_mat(m, k, (m * 131 + k) as u64);
                    let b = rand_mat(k, n, (k * 137 + n) as u64);
                    let (at, bt) = (a.transpose(), b.transpose());
                    let expect = reference::matmul(&a, &b);
                    for (name, apack, bpack, entry) in LAYOUTS {
                        let a = stored(&a, &at, matches!(apack, APack::Cols));
                        let b = stored(&b, &bt, matches!(bpack, BPack::Cols));
                        let what = format!("{} {name} {m}x{k}x{n}", kind.name());
                        let oracle = with_kernel!(kind, K, {
                            let operands = (a.as_slice(), b.as_slice());
                            per_panel_sweep::<K>(operands, (m, n, k), (apack, bpack), (KC, nc))
                        });
                        assert!(oracle.max_abs_diff(&expect) < 1e-4, "{what}: off reference");
                        for &run in runs {
                            let mut c = Matrix::full(m, n, 777.0);
                            match run {
                                Run::Public(threshold) => {
                                    set_parallel_threshold(threshold);
                                    entry(a, b, &mut c);
                                }
                                Run::Body(nthreads) => {
                                    let (a, b, out) =
                                        (a.as_slice(), b.as_slice(), c.as_mut_slice());
                                    gemm_dispatch(a, b, m, n, k, apack, bpack, cfg, nthreads, out);
                                }
                            }
                            assert!(
                                same_bits(c.as_slice(), oracle.as_slice()),
                                "{what} {run:?}: differs from the per-panel sweep"
                            );
                        }
                    }
                }
            }
        }
        set_parallel_threshold(DEFAULT_PARALLEL_THRESHOLD);
        block::set_kernel(None);
        block::set_kc(0);
    }

    /// `n` from one column through the 16-wide panel edges to the widest
    /// product HOGA and SIGN run — all inside one NC strip.
    const THIN_AND_PANEL_NS: [usize; 8] = [1, 19, 32, 33, 47, 64, 128, 256];

    #[test]
    #[cfg_attr(miri, ignore = "Miri does not model x86 SIMD intrinsics")]
    fn in_place_a_is_bit_identical_to_packed_on_every_backend() {
        // The driver reads `A` where it lies; the oracle packs it panel by
        // panel. Row splits {1, 2, 8} through the shared entry body.
        let runs = [Run::Body(1), Run::Body(2), Run::Body(8)];
        assert_sweep_matches_per_panel_oracle(&THIN_AND_PANEL_NS, &runs);
    }

    #[test]
    #[cfg_attr(miri, ignore = "Miri does not model x86 SIMD intrinsics")]
    fn strip_sweep_is_bit_identical_to_the_per_panel_sweep_on_every_backend() {
        // One and two NC strips past the default, every way a product runs.
        let nc = block::DEFAULT_NC;
        let runs = [
            Run::Public(usize::MAX),
            Run::Public(0),
            Run::Body(2),
            Run::Body(8),
        ];
        assert_sweep_matches_per_panel_oracle(&[nc + 16, 2 * nc + 5], &runs);
    }

    #[test]
    #[cfg_attr(miri, ignore = "Miri does not model x86 SIMD intrinsics")]
    fn thin_products_reach_the_in_place_path_through_the_public_entries() {
        // `matmul_into`, `matmul_tn_into` and `matmul_nt_into`, serial and
        // pooled, at every `n` inside one strip.
        let runs = [Run::Public(usize::MAX), Run::Public(0)];
        assert_sweep_matches_per_panel_oracle(&THIN_AND_PANEL_NS, &runs);
    }

    #[test]
    #[cfg_attr(miri, ignore = "pool fan-out is minutes-slow interpreted")]
    fn pooled_b_packing_is_byte_equal_to_serial_packing() {
        // Three K panels, the last short; a `B` tail narrower than a panel.
        let (k, n, kc, nr) = (2 * 8 + 3, 21, 8, 2 * NR);
        let b = rand_mat(k, n, 77);
        let pack = |nthreads| {
            let buf = pack_b_full(k, n, kc, nr, nthreads, |kk0, kcl, dst| {
                pack_b_rows(b.as_slice(), n, kk0, kcl, nr, dst)
            });
            let bits: Vec<u32> = buf.iter().map(|v| v.to_bits()).collect();
            PackWorkspace::give(PackBuf::OperandB, buf);
            bits
        };
        let serial = pack(1);
        assert_eq!(serial.len(), k * 32);
        for nthreads in [2, 3, 8] {
            assert_eq!(pack(nthreads), serial, "{nthreads} tasks");
        }
    }

    #[test]
    fn kc_and_nc_overrides_round_trip() {
        let _guard = TEST_THRESHOLD_LOCK.lock().unwrap();
        let ambient_kc = block::kc();
        let ambient_nc = block::nc();
        block::set_kc(32);
        block::set_nc(96);
        let cfg = block::tile_config();
        assert_eq!(cfg.kc, 32);
        assert_eq!(cfg.nc, 96);
        block::set_kc(0);
        block::set_nc(0);
        assert_eq!(block::kc(), ambient_kc);
        assert_eq!(block::nc(), ambient_nc);
    }

    #[test]
    fn kernel_override_round_trips_and_names_parse() {
        let _guard = TEST_THRESHOLD_LOCK.lock().unwrap();
        let ambient = block::kernel();
        block::set_kernel(Some(KernelKind::Portable));
        assert_eq!(block::kernel(), KernelKind::Portable);
        block::set_kernel(None);
        assert_eq!(block::kernel(), ambient);
        for &kind in compiled_kernels() {
            assert_eq!(KernelKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(KernelKind::parse("AVX2"), Some(KernelKind::Avx2));
        assert_eq!(KernelKind::parse("neon"), None);
    }

    #[test]
    fn into_variants_overwrite_dirty_outputs() {
        // Held so no sweep switches the backend between the two calls.
        let _guard = TEST_THRESHOLD_LOCK.lock().unwrap();
        let a = rand_mat(9, 7, 21);
        let b = rand_mat(7, 5, 22);
        let mut dirty = Matrix::full(9, 5, 777.0);
        matmul_into(&a, &b, &mut dirty);
        assert_eq!(dirty, matmul(&a, &b));
        let at = a.transpose();
        let mut dirty = Matrix::full(9, 5, 777.0);
        matmul_tn_into(&at, &b, &mut dirty);
        assert_eq!(dirty, matmul_tn(&at, &b));
        let bt = b.transpose();
        let mut dirty = Matrix::full(9, 5, 777.0);
        matmul_nt_into(&a, &bt, &mut dirty);
        assert_eq!(dirty, matmul_nt(&a, &bt));
    }

    #[test]
    fn mr_row_blocks_tile_and_align() {
        for (rows, parts) in [(1, 4), (7, 2), (8, 3), (33, 4), (100, 7)] {
            let sizes = mr_row_blocks(rows, parts, MR);
            assert_eq!(sizes.iter().sum::<usize>(), rows, "{rows}/{parts}");
            for (i, &s) in sizes.iter().enumerate() {
                assert!(s > 0);
                if i + 1 < sizes.len() {
                    assert_eq!(s % MR, 0, "interior block not MR-aligned");
                }
            }
        }
    }

    #[test]
    fn empty_dimensions_are_fine() {
        let a = Matrix::zeros(0, 3);
        let b = Matrix::zeros(3, 4);
        assert_eq!(matmul(&a, &b).shape(), (0, 4));
        let a = Matrix::zeros(2, 0);
        let b = Matrix::zeros(0, 4);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), (2, 4));
        assert!(c.as_slice().iter().all(|&x| x == 0.0));
        assert_eq!(
            matmul_tn(&Matrix::zeros(0, 2), &Matrix::zeros(0, 3)).shape(),
            (2, 3)
        );
        assert_eq!(
            matmul_nt(&Matrix::zeros(2, 0), &Matrix::zeros(3, 0)).shape(),
            (2, 3)
        );
    }

    #[test]
    #[should_panic(expected = "inner-dimension mismatch")]
    fn mismatched_shapes_panic() {
        matmul(&Matrix::zeros(2, 3), &Matrix::zeros(4, 2));
    }

    #[test]
    fn reference_kernels_match_local_naive() {
        let a = rand_mat(11, 6, 31);
        let b = rand_mat(6, 13, 32);
        let expect = naive(&a, &b);
        assert!(reference::matmul(&a, &b).max_abs_diff(&expect) < 1e-4);
        assert!(reference::matmul_tn(&a.transpose(), &b).max_abs_diff(&expect) < 1e-4);
        assert!(reference::matmul_nt(&a, &b.transpose()).max_abs_diff(&expect) < 1e-4);
    }
}
