//! Fixture tests: each lint fires on its fixture, honors the escape
//! hatches, and scopes to the right file kinds.

use ppgnn_analyze::config::{
    Config, FileKind, L_ALLOC, L_COMMIT, L_ENV, L_FMA, L_SAFETY, L_STALE_NAME, L_TELEMETRY_SPAN,
    L_UNWRAP,
};
use ppgnn_analyze::{analyze_source, stale_name_findings, Diagnostic};

fn lib_diags(src: &str, config: &Config) -> Vec<Diagnostic> {
    let (diags, _) = analyze_source("crates/x/src/lib.rs", src, FileKind::Lib, config);
    diags
}

#[test]
fn l1_safety_comment_fires_and_respects_justifications() {
    let src = include_str!("fixtures/l1_unsafe.rs");
    let diags = lib_diags(src, &Config::default());
    let l1: Vec<_> = diags.iter().filter(|d| d.lint == L_SAFETY).collect();
    // `fires()`'s block and `undocumented_decl`; the justified block, the
    // documented decl, and the escaped block stay silent.
    assert_eq!(l1.len(), 2, "{l1:?}");
    assert!(l1.iter().any(|d| d.message.contains("unsafe block")));
    assert!(l1.iter().any(|d| d.message.contains("unsafe fn")));
}

#[test]
fn l2_env_knob_fires_on_raw_ppgnn_reads_only() {
    let src = include_str!("fixtures/l2_env.rs");
    let diags = lib_diags(src, &Config::default());
    let l2: Vec<_> = diags.iter().filter(|d| d.lint == L_ENV).collect();
    // `fires()` and `bare_path_fires()`; HOME and the escaped read pass.
    assert_eq!(l2.len(), 2, "{l2:?}");

    // The knobs registry itself is exempt by path.
    let (diags, _) = analyze_source(
        "crates/tensor/src/knobs.rs",
        "pub fn raw() { std::env::var(\"PPGNN_X\").ok(); }\n",
        FileKind::Lib,
        &Config::default(),
    );
    assert!(diags.iter().all(|d| d.lint != L_ENV), "{diags:?}");
}

#[test]
fn l3_hot_path_alloc_fires_in_lib_hot_fns_only() {
    let src = include_str!("fixtures/l3_alloc.rs");
    let diags = lib_diags(src, &Config::default());
    let l3: Vec<_> = diags.iter().filter(|d| d.lint == L_ALLOC).collect();
    // forward_into: vec![] + .clone(); backward: the un-hatched Vec::new.
    assert_eq!(l3.len(), 3, "{l3:?}");
    assert!(l3.iter().all(|d| d.message.contains("hot-path fn")));

    // The same text in a test file is exempt.
    let (diags, _) = analyze_source(
        "crates/x/tests/alloc.rs",
        src,
        FileKind::Test,
        &Config::default(),
    );
    assert!(diags.iter().all(|d| d.lint != L_ALLOC), "{diags:?}");
}

#[test]
fn l4_unfused_fma_fires_under_fma_target_feature_only() {
    let src = include_str!("fixtures/l4_fma.rs");
    let diags = lib_diags(src, &Config::default());
    let l4: Vec<_> = diags.iter().filter(|d| d.lint == L_FMA).collect();
    // Only `fires()`: mul_add, the parenthesised product, the
    // feature-less fn, the non-fma feature fn, and the escaped fn pass.
    assert_eq!(l4.len(), 1, "{l4:?}");
    assert!(l4[0].message.contains("mul_add"));
}

#[test]
fn l5_unwrap_policy_fires_with_allowlist_and_test_scoping() {
    let config = Config {
        expect_allowlist: vec!["fixture invariant holds".to_string()],
        ..Config::default()
    };
    let src = include_str!("fixtures/l5_unwrap.rs");
    let (diags, seen) = analyze_source("crates/x/src/lib.rs", src, FileKind::Lib, &config);
    let l5: Vec<_> = diags.iter().filter(|d| d.lint == L_UNWRAP).collect();
    // `fires()`, the unlisted expect, and the dynamic expect; the
    // allowlisted expect, the escaped fn, and the #[cfg(test)] mod pass.
    assert_eq!(l5.len(), 3, "{l5:?}");
    assert_eq!(seen.expects, vec!["fixture invariant holds".to_string()]);

    // Bin targets are exempt from the unwrap policy entirely.
    let (diags, _) = analyze_source("crates/x/src/bin/tool.rs", src, FileKind::Bin, &config);
    assert!(diags.iter().all(|d| d.lint != L_UNWRAP), "{diags:?}");
}

#[test]
fn l6_telemetry_span_fires_in_forbidden_kernels_only() {
    let src = include_str!("fixtures/l6_span.rs");
    let diags = lib_diags(src, &Config::default());
    let l6: Vec<_> = diags
        .iter()
        .filter(|d| d.lint == L_TELEMETRY_SPAN)
        .collect();
    // `spmm_row` (path-qualified span) and `gemm_in_place` (bare span_with);
    // the counter, the driver-level span, the `.span` member access, and
    // the escaped fn pass.
    assert_eq!(l6.len(), 2, "{l6:?}");
    assert!(l6.iter().all(|d| d.message.contains("inner-kernel fn")));
    assert!(l6.iter().any(|d| d.message.contains("`spmm_row`")));
    assert!(l6.iter().any(|d| d.message.contains("`gemm_in_place`")));

    // The same text in a test file is exempt.
    let (diags, _) = analyze_source(
        "crates/x/tests/span.rs",
        src,
        FileKind::Test,
        &Config::default(),
    );
    assert!(
        diags.iter().all(|d| d.lint != L_TELEMETRY_SPAN),
        "{diags:?}"
    );
}

#[test]
fn l7_atomic_commit_fires_on_commit_scoped_store_paths_only() {
    let src = include_str!("fixtures/l7_commit.rs");
    let config = Config::default();
    // A dataio store module is commit-scoped: the three bare write calls
    // fire; reads, the funnel call, the escaped fn, and the
    // #[cfg(test)] mod pass.
    let (diags, _) = analyze_source("crates/dataio/src/store.rs", src, FileKind::Lib, &config);
    let l7: Vec<_> = diags.iter().filter(|d| d.lint == L_COMMIT).collect();
    assert_eq!(l7.len(), 3, "{l7:?}");
    assert!(l7.iter().any(|d| d.message.contains("`File::create`")));
    assert!(l7.iter().any(|d| d.message.contains("`fs::rename`")));
    assert!(l7.iter().any(|d| d.message.contains("`fs::write`")));
    assert!(l7.iter().all(|d| d.message.contains("write_bytes_atomic")));

    // The funnel module itself is exempt by path.
    let (diags, _) = analyze_source("crates/dataio/src/commit.rs", src, FileKind::Lib, &config);
    assert!(diags.iter().all(|d| d.lint != L_COMMIT), "{diags:?}");

    // Paths outside the commit scope are exempt.
    let (diags, _) = analyze_source("crates/x/src/lib.rs", src, FileKind::Lib, &config);
    assert!(diags.iter().all(|d| d.lint != L_COMMIT), "{diags:?}");

    // The same text in a test file is exempt.
    let (diags, _) = analyze_source(
        "crates/dataio/tests/commit.rs",
        src,
        FileKind::Test,
        &config,
    );
    assert!(diags.iter().all(|d| d.lint != L_COMMIT), "{diags:?}");
}

#[test]
fn stale_name_fires_on_list_entries_no_library_fn_matches() {
    let s = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    let config = Config {
        hot_path_exact: s(&["kernel_row", "strip_wide", "renamed_away", "oracle_row"]),
        hot_path_prefixes: s(&["pack_b_", "pack_z_"]),
        span_forbidden_exact: s(&["kernel_row", "deleted_kernel"]),
        ..Config::default()
    };
    let src = include_str!("fixtures/stale_names.rs");
    let (_, seen) = analyze_source("crates/x/src/lib.rs", src, FileKind::Lib, &config);
    // Free fns and methods count; the #[cfg(test)] fn does not.
    assert_eq!(seen.fns, ["kernel_row", "pack_b_full", "strip_wide"]);
    let stale = stale_name_findings(&config, &seen.fns);
    let messages: Vec<_> = stale.iter().map(|d| d.message.as_str()).collect();
    assert_eq!(
        messages,
        [
            "hot_path_exact entry \"renamed_away\" matches no library fn; remove it",
            "hot_path_exact entry \"oracle_row\" matches no library fn; remove it",
            "span_forbidden_exact entry \"deleted_kernel\" matches no library fn; remove it",
            "hot_path_prefixes entry \"pack_z_\" matches no library fn; remove it",
        ]
    );
    assert!(stale
        .iter()
        .all(|d| d.lint == L_STALE_NAME && d.path == "crates/analyze/src/config.rs"));

    // Outside library code the same fns keep no entry alive.
    let (_, seen) = analyze_source("crates/x/tests/kernel.rs", src, FileKind::Test, &config);
    assert!(seen.fns.is_empty(), "{:?}", seen.fns);
}

#[test]
fn quote_built_source_is_lintable() {
    // The vendored quote! shim re-lexes its body; Display round-trips it
    // into analyzable source text.
    let tokens = quote::quote! {
        pub fn helper(o: Option<u32>) -> u32 { o.unwrap() }
    };
    let diags = lib_diags(&tokens.to_string(), &Config::default());
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].lint, L_UNWRAP);
}
