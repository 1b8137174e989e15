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
//! clamped to the registry's declared range at the single parse point
//! (`parse_usize`).
//!
//! Knobs are kept for settings a run takes from outside the program:
//! pool width, forced GEMM backend, store encoding, fault plans, the
//! proptest seed and tracing. Every other tunable (shard, partition and
//! writer-queue counts, GEMM blocking) is a builder or `set_*` call on
//! the type that owns it.
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
    /// value is reported at the use site, never silently ignored here).
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
/// `PPGNN_FORCE_KERNEL`.
pub const FORCE_KERNEL: &str = "PPGNN_FORCE_KERNEL";
/// `PPGNN_STORE_DTYPE`.
pub const STORE_DTYPE: &str = "PPGNN_STORE_DTYPE";
/// `PPGNN_FAULTS`.
pub const FAULTS: &str = "PPGNN_FAULTS";
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
        name: FORCE_KERNEL,
        kind: KnobKind::Enum(&["portable", "avx2", "avx512"]),
        default: "runtime dispatch",
        doc: "Pins the GEMM micro-kernel backend; unknown or unsupported names panic.",
    },
    KnobDef {
        name: STORE_DTYPE,
        kind: KnobKind::Enum(&["f32", "f16", "bf16", "int8"]),
        default: "f32",
        doc: "Hop-feature store element encoding; an unknown name fails store creation with an error.",
    },
    KnobDef {
        name: FAULTS,
        kind: KnobKind::Text,
        default: "unset (no faults)",
        doc: "Deterministic I/O fault plan: `site:kind:nth[+][@scope]` specs (`;`-joined) or `seed=<u64>` for the chaos suite; unset costs one atomic load.",
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

/// Parses a `Usize` knob's raw string, clamped to `min..=max`; `None`
/// when it is not a `usize`.
fn parse_usize(raw: &str, min: usize, max: usize) -> Option<usize> {
    raw.parse::<usize>().ok().map(|v| v.clamp(min, max))
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
    parse_usize(&raw(name)?, min, max)
}

/// A string-valued (`Path`/`Text`/`Enum`) knob; empty strings mean unset.
pub fn string_value(name: &str) -> Option<String> {
    raw(name).filter(|v| !v.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usize_values_clamp_to_registered_range() {
        assert_eq!(parse_usize("999999", 1, 4096), Some(4096));
        assert_eq!(parse_usize("0", 1, 4096), Some(1));
        assert_eq!(parse_usize("17", 1, 4096), Some(17));
        assert_eq!(parse_usize("not a number", 1, 4096), None);
        assert_eq!(parse_usize("", 1, 4096), None);
        assert_eq!(parse_usize("-3", 1, 4096), None);
    }

    // Env-var mutation is process-global: `PPGNN_TRACE_OUT` is read only
    // by the telemetry crate's trace export, which no tensor test runs.
    #[test]
    fn empty_strings_mean_unset_for_paths() {
        std::env::set_var(TRACE_OUT, "");
        assert_eq!(string_value(TRACE_OUT), None);
        std::env::set_var(TRACE_OUT, "out.json");
        assert_eq!(string_value(TRACE_OUT).as_deref(), Some("out.json"));
        std::env::remove_var(TRACE_OUT);
        assert_eq!(string_value(TRACE_OUT), None);
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
