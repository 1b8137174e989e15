//! Lint names, file classification, and the repo policy configuration.

/// L1: every `unsafe` block, fn, impl, or trait carries a `// SAFETY:`
/// comment (or a `# Safety` doc section).
pub const L_SAFETY: &str = "safety_comment";
/// L2: every `env::var("PPGNN_*")` read goes through
/// `ppgnn_tensor::knobs`.
pub const L_ENV: &str = "env_knob";
/// L3: hot-path functions contain no allocating calls.
pub const L_ALLOC: &str = "hot_path_alloc";
/// L4: no bare `a * b + c` inside `#[target_feature(…fma…)]` functions.
pub const L_FMA: &str = "unfused_fma";
/// L5: no `.unwrap()` / unallowlisted `.expect()` in library code.
pub const L_UNWRAP: &str = "unwrap";
/// L6: no telemetry span creation (`span(…)` / `span_with(…)`) inside
/// the configured inner-kernel functions — tracing belongs at task/hop
/// granularity, never per row or per tile.
pub const L_TELEMETRY_SPAN: &str = "telemetry_span";
/// L7: no bare `File::create` / `fs::rename` / `fs::write` in the
/// store/manifest write paths — durable writes must route through the
/// atomic-commit funnel (`ppgnn_dataio::commit::write_bytes_atomic`),
/// which is the only write path that survives a crash cleanly.
pub const L_COMMIT: &str = "atomic_commit";
/// The EXPERIMENTS.md knob table matches the registry.
pub const L_KNOB_TABLE: &str = "knob_table";
/// A source file failed to lex.
pub const L_PARSE: &str = "parse";
/// An expect-message allowlist entry matches no remaining call site.
pub const L_ALLOWLIST: &str = "stale_allowlist";
/// A hot-path or span-forbidden name (or prefix) matches no library fn.
pub const L_STALE_NAME: &str = "stale_name";

/// What a source file is compiled as; decides which lints apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code (`crates/*/src`, repo `src/`): all lints.
    Lib,
    /// Binary targets (`src/bin`, `main.rs`, `build.rs`): L1, L2, L4.
    Bin,
    /// Integration tests: L1, L2, L4.
    Test,
    /// Examples: L1, L2, L4.
    Example,
}

impl FileKind {
    /// Classifies a repo-relative path (`/`-separated).
    pub fn classify(rel: &str) -> FileKind {
        if rel.starts_with("tests/") || rel.contains("/tests/") {
            FileKind::Test
        } else if rel.starts_with("examples/") || rel.contains("/examples/") {
            FileKind::Example
        } else if rel.contains("/src/bin/")
            || rel.ends_with("/main.rs")
            || rel.ends_with("build.rs")
        {
            FileKind::Bin
        } else {
            FileKind::Lib
        }
    }
}

/// The linter's policy: hot-path function names, the expect-message
/// allowlist, and per-file exemptions. [`Config::default`] is the repo
/// policy; tests construct custom ones.
#[derive(Debug, Clone)]
pub struct Config {
    /// Exact function names on the hot path (L3). Every entry must
    /// match at least one library fn or the stale-name check fires.
    pub hot_path_exact: Vec<String>,
    /// Function-name prefixes on the hot path (L3); each must match a
    /// library fn, like the exact names.
    pub hot_path_prefixes: Vec<String>,
    /// `.expect()` messages allowed in library code (L5). Every entry
    /// must match at least one live call site or the stale-allowlist
    /// check fires.
    pub expect_allowlist: Vec<String>,
    /// Path suffixes exempt from L2 — the knob registry itself.
    pub env_exempt_suffixes: Vec<String>,
    /// Exact function names where telemetry span creation is forbidden
    /// (L6): the GEMM micro-kernel drivers and SpMM inner loops, where a
    /// span per call would mean thousands of ring-buffer pushes per
    /// matmul. Counters are fine there; spans are not. Stale entries
    /// fire like stale hot-path names.
    pub span_forbidden_exact: Vec<String>,
    /// Path prefixes whose library code must route durable writes
    /// through the atomic-commit funnel (L7): the store/manifest write
    /// paths where a bare create/rename can leave a half-written file
    /// visible after a crash.
    pub commit_scoped_prefixes: Vec<String>,
    /// Path suffixes exempt from L7 — the funnel itself.
    pub commit_exempt_suffixes: Vec<String>,
}

impl Config {
    /// Whether `name` is on the configured hot-path list.
    pub fn is_hot_path(&self, name: &str) -> bool {
        self.hot_path_exact.iter().any(|e| e == name)
            || self.hot_path_prefixes.iter().any(|p| name.starts_with(p))
    }

    /// Whether `rel` is exempt from the env-knob lint.
    pub fn env_exempt(&self, rel: &str) -> bool {
        self.env_exempt_suffixes.iter().any(|s| rel.ends_with(s))
    }

    /// Whether span creation is forbidden inside fn `name` (L6).
    pub fn is_span_forbidden(&self, name: &str) -> bool {
        self.span_forbidden_exact.iter().any(|e| e == name)
    }

    /// Whether `rel` is inside the atomic-commit scope (L7): under a
    /// scoped prefix and not the funnel module itself.
    pub fn commit_scoped(&self, rel: &str) -> bool {
        self.commit_scoped_prefixes
            .iter()
            .any(|p| rel.starts_with(p))
            && !self.commit_exempt_suffixes.iter().any(|s| rel.ends_with(s))
    }
}

impl Default for Config {
    fn default() -> Config {
        let s = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        Config {
            // The static twin of the runtime ALLOCS pin in
            // tests/preprocess_residency.rs: model forward/backward
            // impls, the SpMM `_into` family, the packed-GEMM drivers,
            // and the trainer's step loop. The allocating convenience
            // wrappers (`spmm`, `matmul`, `Module::forward`) are
            // deliberately absent — allocating the output is their
            // contract.
            hot_path_exact: s(&[
                "forward_into",
                "backward",
                // Every layer's backward writes its input gradient into a
                // caller-owned slot: a per-step allocation here is a
                // regression, not the by-value result it once was.
                "backward_into",
                "backward_params",
                "forward_into_cols",
                "backward_from_cols",
                "fit",
                "evaluate",
                // The lent training step and the batch circulation under
                // it: a recycled batch is refilled where it lies.
                "forward_train",
                "return_inputs",
                "forward_lent",
                "take_input",
                "affine_into",
                "recycle",
                "fill_rows",
                // In memory every loader kind fills a batch where the
                // trainer asks for it, into a recycled spare: per row, by a
                // pooled row gather, or per contiguous run.
                "assemble_in_place",
                "contiguous_runs",
                "gather_rows_into",
                "gather_rows_on",
                "gemm_in_place",
                "over_row_blocks",
                "gemm_dispatch",
                "tile_body",
                "tile_in_place",
                "as_panel",
                // The row-block splitter and the per-block bodies of the
                // token-level passes it runs (attention core, LayerNorm,
                // HOGA's gated readout): every buffer they touch is
                // retained by the calling module — the static twin of the
                // HOGA step pin in tests/preprocess_residency.rs.
                "run_row_blocks",
                "row_blocked",
                "row_blocked_on",
                "add_partials",
                "attn_core_fwd",
                "attn_core_bwd",
                "layer_norm_fwd",
                "layer_norm_bwd",
                "readout_fwd",
                "readout_bwd",
                // The element-wise layers' sweeps and their row kernels.
                "sweep",
                "masked_scale",
                "draw_mask",
                // The blocked draws under it and under dataset synthesis:
                // the splitter hands each block its piece of the one
                // generator stream (`StdRng::split`, in the vendored shim,
                // allocates nothing either), and the block fills write
                // where they lie.
                "draw_blocked",
                "fill_feature_rows",
                "sample_normal",
                "scaled_where_not_positive",
                "slope_grad_sum",
                "spmm_into",
                "spmm_into_on",
                "spmm_rows_into",
                "spmm_window_rows_into",
                "spmm_row",
                // The SpMM row kernel and its backends write every output
                // where it lies.
                "weighted_rows_into",
                "weighted_rows_portable",
                "weighted_rows_avx2",
                "strip_avx2",
                "weighted_rows_avx512",
                "strip_avx512",
                // The store chunk checksums hash every byte written and
                // every byte verified on first read.
                "fnv1a_words",
                "fnv1a_bytes",
                // Store decode paths: steady-state reads stage encoded
                // bytes into reused scratch and decode into caller slots —
                // the zero-alloc contract the compressed-store residency
                // test pins at runtime.
                "read_rows_into",
                "read_chunk_all_hops_into",
                "fetch_decode_rows",
                "encode_rows",
                "decode_rows",
            ]),
            hot_path_prefixes: s(&["pack_a_", "pack_b_"]),
            expect_allowlist: s(&[
                // tensor::pool — lock poisoning means a worker panicked;
                // propagating the panic is the correct response.
                "pool queue lock poisoned",
                "pool batch lock poisoned",
                "failed to spawn pool worker",
                // tensor::gemm — dispatch invariants.
                "the portable kernel is always supported",
                "A panel step is MR long",
                "B panel step is NR long",
                // graph/partition — construction invariants.
                "pending_rows > 0",
                "len >= 1",
                "non-empty",
                "extracted partition CSR is structurally valid",
                "one row per gathered index",
                "vstack shape is consistent by construction",
                // memsim — validated config and chunked pipelines.
                "invalid hardware spec",
                "at least one chunk",
                // core — loader/preprocess invariants.
                "in-memory preprocessing performs no I/O",
                "set on previous iteration",
                "dataset generation succeeds",
                "training partition is non-empty",
                // nn/models — training-mode contracts: backward without
                // a forward is a caller bug and must fail loudly.
                "Linear::backward called without a training-mode forward",
                "Relu::backward called without a training-mode forward",
                "PRelu::backward called without a training-mode forward",
                "LayerNorm::backward called without a training-mode forward",
                "BatchNorm1d::backward called without a training-mode forward",
                "MultiHeadAttention::backward called without a training-mode forward",
                "Hoga::backward called without a training-mode forward",
                "hidden layers cache ELU input",
                "cache presence checked above",
                "keys are finite",
                "accuracies are finite",
            ]),
            // The telemetry crate sits below the knobs registry in the
            // dependency order, so its PPGNN_TRACE / PPGNN_TRACE_OUT
            // reads cannot go through ppgnn_tensor::knobs (the knobs
            // module registers the names and documents the exemption).
            env_exempt_suffixes: s(&["crates/tensor/src/knobs.rs", "crates/telemetry/src/lib.rs"]),
            // The innermost compute loops: a span per invocation would
            // push ring events per tile / per row block. Driver-level
            // spans (`spmm_into_on`, preprocessing hops, trainer epochs)
            // are the supported granularity.
            span_forbidden_exact: s(&[
                "gemm_in_place",
                "over_row_blocks",
                "gemm_dispatch",
                "tile_body",
                "tile_in_place",
                // Per-block bodies run once per 64 rows; the stage spans
                // (`hoga.*`, `attn.*`) sit around the whole pass.
                "run_row_blocks",
                "row_blocked",
                "row_blocked_on",
                "attn_core_fwd",
                "attn_core_bwd",
                "layer_norm_fwd",
                "layer_norm_bwd",
                "readout_fwd",
                "readout_bwd",
                "spmm_rows_into",
                "spmm_window_rows_into",
                "spmm_row",
                "weighted_rows_into",
                "weighted_rows_portable",
                "weighted_rows_avx2",
                "strip_avx2",
                "weighted_rows_avx512",
                "strip_avx512",
                "fnv1a_words",
                "fnv1a_bytes",
            ]),
            // Store and manifest write paths: everything dataio writes,
            // plus the preprocessed-output persister. `commit.rs` is the
            // funnel — the one place bare create/rename is the point.
            commit_scoped_prefixes: s(&["crates/dataio/src/", "crates/core/src/persist.rs"]),
            commit_exempt_suffixes: s(&["crates/dataio/src/commit.rs"]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_covers_target_kinds() {
        assert_eq!(
            FileKind::classify("crates/tensor/src/gemm.rs"),
            FileKind::Lib
        );
        assert_eq!(FileKind::classify("src/lib.rs"), FileKind::Lib);
        assert_eq!(FileKind::classify("tests/residency.rs"), FileKind::Test);
        assert_eq!(
            FileKind::classify("crates/analyze/tests/lints.rs"),
            FileKind::Test
        );
        assert_eq!(
            FileKind::classify("crates/bench/src/bin/exp_tables.rs"),
            FileKind::Bin
        );
        assert_eq!(FileKind::classify("examples/train.rs"), FileKind::Example);
    }

    #[test]
    fn hot_path_matching_uses_exact_and_prefix() {
        let c = Config::default();
        assert!(c.is_hot_path("forward_into"));
        assert!(c.is_hot_path("pack_b_full"));
        assert!(!c.is_hot_path("forward"));
        assert!(!c.is_hot_path("spmm"));
    }
}
