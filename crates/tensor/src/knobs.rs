//! Central registry of every `PPGNN_*` environment knob.
//!
//! Each knob is declared once here — name, type, default, and the doc
//! string the EXPERIMENTS.md knob table is generated from — and every
//! read anywhere in the workspace goes through the typed accessors
//! below, which share a single [`std::env::var`] call point. The
//! `ppgnn-analyze` linter enforces both halves: raw
//! `env::var("PPGNN_…")` reads outside this module are a diagnostic,
//! and a registry that drifts from the EXPERIMENTS.md table fails the
//! knob-table consistency check.
//!
//! Accessors return `None` when a knob is unset or unparseable, so call
//! sites keep owning their (sometimes dynamic) defaults — e.g. the pool
//! width falls back to `available_parallelism()`. Numeric knobs are
//! clamped to the registry's declared range at the single parse point,
//! which fixed the pre-registry drift where bench binaries parsed
//! `PPGNN_NUM_PARTITIONS` unclamped while the preprocessing builder
//! clamped it to `1..=4096`.
//!
//! The reads outside this module are `PPGNN_PROPTEST_SEED` in the
//! vendored proptest shim and `PPGNN_TRACE` / `PPGNN_TRACE_OUT` in
//! `ppgnn-telemetry`: both crates sit below `ppgnn-tensor` in the
//! dependency order and cannot call into it. The knobs are still
//! declared here so the table stays complete.

/// How a knob's raw string is interpreted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnobKind {
    /// A `usize` clamped to the inclusive range at parse time.
    Usize {
        /// Smallest accepted value.
        min: usize,
        /// Largest accepted value.
        max: usize,
    },
    /// A `u64` (seeds), no clamping.
    U64,
    /// Boolean: set-and-equal-to-`"1"` means on.
    Flag,
    /// A filesystem path; empty means unset.
    Path,
    /// A free-form string with consumer-defined grammar (e.g. a fault
    /// plan); empty means unset.
    Text,
    /// One of a closed set of names, validated by the consumer (a bad
    /// value must fail loudly at the use site, not silently here).
    Enum(&'static [&'static str]),
}

/// One registered environment knob.
#[derive(Debug, Clone, Copy)]
pub struct KnobDef {
    /// Environment variable name (`PPGNN_*`).
    pub name: &'static str,
    /// Value type and constraints.
    pub kind: KnobKind,
    /// Human-readable default, for the generated knob table.
    pub default: &'static str,
    /// One-line description, for the generated knob table.
    pub doc: &'static str,
}

/// `PPGNN_NUM_THREADS`.
pub const NUM_THREADS: &str = "PPGNN_NUM_THREADS";
/// `PPGNN_GEMM_BLOCK`.
pub const GEMM_BLOCK: &str = "PPGNN_GEMM_BLOCK";
/// `PPGNN_GEMM_NC`.
pub const GEMM_NC: &str = "PPGNN_GEMM_NC";
/// `PPGNN_FORCE_KERNEL`.
pub const FORCE_KERNEL: &str = "PPGNN_FORCE_KERNEL";
/// `PPGNN_TUNE_CACHE`.
pub const TUNE_CACHE: &str = "PPGNN_TUNE_CACHE";
/// `PPGNN_NUM_SHARDS`.
pub const NUM_SHARDS: &str = "PPGNN_NUM_SHARDS";
/// `PPGNN_NUM_PARTITIONS`.
pub const NUM_PARTITIONS: &str = "PPGNN_NUM_PARTITIONS";
/// `PPGNN_WRITER_QUEUE`.
pub const WRITER_QUEUE: &str = "PPGNN_WRITER_QUEUE";
/// `PPGNN_BENCH_SMOKE`.
pub const BENCH_SMOKE: &str = "PPGNN_BENCH_SMOKE";
/// `PPGNN_BENCH_ARTIFACT`.
pub const BENCH_ARTIFACT: &str = "PPGNN_BENCH_ARTIFACT";
/// `PPGNN_GEMM_BENCH_ARTIFACT`.
pub const GEMM_BENCH_ARTIFACT: &str = "PPGNN_GEMM_BENCH_ARTIFACT";
/// `PPGNN_STORE_DTYPE`.
pub const STORE_DTYPE: &str = "PPGNN_STORE_DTYPE";
/// `PPGNN_STORE_BENCH_ARTIFACT`.
pub const STORE_BENCH_ARTIFACT: &str = "PPGNN_STORE_BENCH_ARTIFACT";
/// `PPGNN_FAULTS`.
pub const FAULTS: &str = "PPGNN_FAULTS";
/// `PPGNN_WRITE_RETRIES`.
pub const WRITE_RETRIES: &str = "PPGNN_WRITE_RETRIES";
/// `PPGNN_PROPTEST_SEED`.
pub const PROPTEST_SEED: &str = "PPGNN_PROPTEST_SEED";
/// `PPGNN_TRACE`.
pub const TRACE: &str = "PPGNN_TRACE";
/// `PPGNN_TRACE_OUT`.
pub const TRACE_OUT: &str = "PPGNN_TRACE_OUT";

/// Every `PPGNN_*` knob the workspace reads, in table order.
pub const REGISTRY: &[KnobDef] = &[
    KnobDef {
        name: NUM_THREADS,
        kind: KnobKind::Usize { min: 1, max: 256 },
        default: "`available_parallelism()`",
        doc: "Worker-pool width shared by GEMM, SpMM, and sharded preprocessing.",
    },
    KnobDef {
        name: GEMM_BLOCK,
        kind: KnobKind::Usize { min: 1, max: 65536 },
        default: "256, or the tuned profile",
        doc: "Packed-GEMM K-panel depth (KC); overrides the autotuned profile.",
    },
    KnobDef {
        name: GEMM_NC,
        kind: KnobKind::Usize {
            min: 1,
            max: 1 << 20,
        },
        default: "kernel-specific, or the tuned profile",
        doc: "Packed-GEMM column block (NC); overrides the autotuned profile.",
    },
    KnobDef {
        name: FORCE_KERNEL,
        kind: KnobKind::Enum(&["portable", "avx2", "avx512"]),
        default: "runtime dispatch",
        doc: "Pins the GEMM micro-kernel backend; unknown or unsupported names panic.",
    },
    KnobDef {
        name: TUNE_CACHE,
        kind: KnobKind::Path,
        default: "unset (no autotuning)",
        doc: "Path of the one-shot {kernel, KC, NC} autotune cache; empty disables.",
    },
    KnobDef {
        name: NUM_SHARDS,
        kind: KnobKind::Usize { min: 1, max: 4096 },
        default: "pool width",
        doc: "Node-range shard count of each preprocessing diffusion pass.",
    },
    KnobDef {
        name: NUM_PARTITIONS,
        kind: KnobKind::Usize { min: 1, max: 4096 },
        default: "1 (one partition store)",
        doc: "Partition-store count of a sharded store layout.",
    },
    KnobDef {
        name: WRITER_QUEUE,
        kind: KnobKind::Usize { min: 1, max: 4096 },
        default: "2",
        doc: "Bounded queue depth of the async hop writer (at most one slot per hop).",
    },
    KnobDef {
        name: BENCH_SMOKE,
        kind: KnobKind::Flag,
        default: "off",
        doc: "Shrinks bench repetitions to CI smoke scale.",
    },
    KnobDef {
        name: BENCH_ARTIFACT,
        kind: KnobKind::Path,
        default: "`BENCH_preprop.json`",
        doc: "Output path of the pipeline bench's perf artifact.",
    },
    KnobDef {
        name: GEMM_BENCH_ARTIFACT,
        kind: KnobKind::Path,
        default: "`BENCH_gemm.json`",
        doc: "Output path of the GEMM bench's perf artifact.",
    },
    KnobDef {
        name: STORE_DTYPE,
        kind: KnobKind::Enum(&["f32", "f16", "bf16", "int8"]),
        default: "f32",
        doc: "Hop-feature store element encoding; unknown names panic at store creation.",
    },
    KnobDef {
        name: STORE_BENCH_ARTIFACT,
        kind: KnobKind::Path,
        default: "`BENCH_store.json`",
        doc: "Output path of the store bench's perf artifact.",
    },
    KnobDef {
        name: FAULTS,
        kind: KnobKind::Text,
        default: "unset (no faults)",
        doc: "Deterministic I/O fault plan: `site:kind:nth[+][@scope]` specs (`;`-joined) or `seed=<u64>` for the chaos suite; unset costs one atomic load.",
    },
    KnobDef {
        name: WRITE_RETRIES,
        kind: KnobKind::Usize { min: 0, max: 16 },
        default: "2",
        doc: "Retry budget (with exponential backoff) for transient hop-write I/O errors in the async writer.",
    },
    KnobDef {
        name: PROPTEST_SEED,
        kind: KnobKind::U64,
        default: "0 (deterministic)",
        doc: "Base seed of the vendored proptest runner (parsed in the shim).",
    },
    KnobDef {
        name: TRACE,
        kind: KnobKind::Flag,
        default: "off",
        doc: "Enables the ppgnn-telemetry span tracer and metrics registry (read in the telemetry crate).",
    },
    KnobDef {
        name: TRACE_OUT,
        kind: KnobKind::Path,
        default: "`trace.json`",
        doc: "Output path of the Chrome-trace JSON export (read in the telemetry crate).",
    },
];

/// Looks up a knob's registry entry.
///
/// # Panics
///
/// Panics on a name missing from [`REGISTRY`] — reads of unregistered
/// knobs are a programming error the linter backs up statically.
pub fn def(name: &str) -> &'static KnobDef {
    REGISTRY
        .iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("{name} is not a registered PPGNN knob"))
}

/// The single raw environment read behind every accessor. `Err` (unset
/// or non-unicode) becomes `None`.
fn raw(name: &str) -> Option<String> {
    def(name); // every read must name a registered knob
    std::env::var(name).ok()
}

/// A `Usize` knob's value, clamped to its registered range; `None` when
/// unset or unparseable.
///
/// # Panics
///
/// Panics if `name` is not registered as a `Usize` knob.
pub fn usize_value(name: &str) -> Option<usize> {
    let KnobKind::Usize { min, max } = def(name).kind else {
        panic!("{name} is not a usize knob");
    };
    raw(name)?.parse::<usize>().ok().map(|v| v.clamp(min, max))
}

/// A `Flag` knob: set and equal to `"1"`.
pub fn flag(name: &str) -> bool {
    raw(name).is_some_and(|v| v == "1")
}

/// A string-valued (`Path`/`Enum`) knob; empty strings mean unset.
pub fn string_value(name: &str) -> Option<String> {
    raw(name).filter(|v| !v.is_empty())
}

/// Whether the knob is set at all (even to an empty string) — bench
/// artifact emission keys off presence.
pub fn is_set(name: &str) -> bool {
    raw(name).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Env-var mutation is process-global; keep every knob this module
    // touches distinct from the ones other tensor tests read.
    #[test]
    fn usize_values_clamp_to_registered_range() {
        std::env::set_var(NUM_SHARDS, "999999");
        assert_eq!(usize_value(NUM_SHARDS), Some(4096));
        std::env::set_var(NUM_SHARDS, "0");
        assert_eq!(usize_value(NUM_SHARDS), Some(1));
        std::env::set_var(NUM_SHARDS, "17");
        assert_eq!(usize_value(NUM_SHARDS), Some(17));
        std::env::set_var(NUM_SHARDS, "not a number");
        assert_eq!(usize_value(NUM_SHARDS), None);
        std::env::remove_var(NUM_SHARDS);
        assert_eq!(usize_value(NUM_SHARDS), None);
    }

    #[test]
    fn flags_require_exactly_one() {
        std::env::set_var(BENCH_SMOKE, "1");
        assert!(flag(BENCH_SMOKE));
        std::env::set_var(BENCH_SMOKE, "true");
        assert!(!flag(BENCH_SMOKE));
        std::env::remove_var(BENCH_SMOKE);
        assert!(!flag(BENCH_SMOKE));
    }

    #[test]
    fn empty_strings_mean_unset_for_paths() {
        std::env::set_var(BENCH_ARTIFACT, "");
        assert_eq!(string_value(BENCH_ARTIFACT), None);
        assert!(is_set(BENCH_ARTIFACT));
        std::env::remove_var(BENCH_ARTIFACT);
        assert!(!is_set(BENCH_ARTIFACT));
    }

    #[test]
    #[should_panic(expected = "not a registered PPGNN knob")]
    fn unregistered_names_panic() {
        def("PPGNN_NOT_A_KNOB");
    }

    #[test]
    fn registry_names_are_unique_and_prefixed() {
        for (i, d) in REGISTRY.iter().enumerate() {
            assert!(d.name.starts_with("PPGNN_"), "{}", d.name);
            assert!(
                REGISTRY[i + 1..].iter().all(|o| o.name != d.name),
                "duplicate {}",
                d.name
            );
        }
    }
}
