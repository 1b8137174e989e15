//! `ppgnn-analyze` — workspace invariant linter for the ppgnn repo.
//!
//! Six lints run over every first-party `.rs` file (vendored shims
//! excluded):
//!
//! 1. `safety_comment` — every `unsafe` block / fn / impl / trait
//!    carries a `// SAFETY:` comment or `# Safety` doc section.
//! 2. `env_knob` — every `env::var("PPGNN_*")` read goes through the
//!    central [`ppgnn_tensor::knobs`] registry.
//! 3. `hot_path_alloc` — configured hot-path functions contain no
//!    allocating calls (`Matrix::zeros`, `vec![…]`, `Vec::new`,
//!    `.clone()`, `.to_vec()`).
//! 4. `unfused_fma` — no bare `a * b + c` inside
//!    `#[target_feature(…fma…)]` functions; use `mul_add`.
//! 5. `unwrap` — no `.unwrap()` and no unallowlisted `.expect()` in
//!    non-test library code.
//! 6. `telemetry_span` — no `span(…)` / `span_with(…)` creation inside
//!    the configured inner-kernel functions (GEMM micro-kernels, SpMM
//!    inner loops); counters are fine there, spans belong at task/hop
//!    granularity.
//!
//! Three repo-level checks ride along: the EXPERIMENTS.md knob table must
//! match the registry ([`knob_table`]), every expect-allowlist entry
//! must still match a live call site (`stale_allowlist`), and every
//! hot-path / span-forbidden name and prefix must still match a library
//! fn (`stale_name`).
//!
//! Escape hatch: `// ppgnn-analyze: allow(<lint>)` on the finding line
//! or directly above it silences one line; the same comment in the
//! doc/attribute block above a function silences the whole function.

use std::fmt;
use std::path::{Path, PathBuf};

pub mod config;
pub mod knob_table;
mod lints;
mod source;

use config::{Config, FileKind, L_ALLOWLIST, L_PARSE, L_STALE_NAME};
use lints::FilePass;
use source::SourceText;

/// One linter finding, pointing at a repo-relative `path:line:col`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Repo-relative `/`-separated path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Lint name (one of the `config::L_*` constants).
    pub lint: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: deny({}): {}",
            self.path, self.line, self.col, self.lint, self.message
        )
    }
}

/// The outcome of a workspace run.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, in deterministic (path, line, col) order.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Whether the workspace is lint-clean.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// What one file contributes to the workspace-wide stale checks of
/// [`analyze_root`].
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Seen {
    /// Allowlisted `.expect()` messages at their call sites.
    pub expects: Vec<String>,
    /// Names of the fns in library scope (non-test library code).
    pub fns: Vec<String>,
}

/// Lints a single file's source text. Returns the diagnostics plus what
/// the stale checks of [`analyze_root`] aggregate.
pub fn analyze_source(
    rel_path: &str,
    src: &str,
    kind: FileKind,
    config: &Config,
) -> (Vec<Diagnostic>, Seen) {
    let file = match syn::parse_file(src) {
        Ok(f) => f,
        Err(e) => {
            return (
                vec![Diagnostic {
                    path: rel_path.to_string(),
                    line: e.line,
                    col: 1,
                    lint: L_PARSE,
                    message: format!("failed to lex: {e}"),
                }],
                Seen::default(),
            );
        }
    };
    let all_tokens = collect_tokens(&file.items);
    let text = SourceText::new(src);
    let mut pass = FilePass {
        path: rel_path,
        kind,
        src: &text,
        config,
        seen_expects: Vec::new(),
        seen_fns: Vec::new(),
        diags: Vec::new(),
    };
    pass.run(&file, &all_tokens);
    let seen = Seen {
        expects: pass.seen_expects,
        fns: pass.seen_fns,
    };
    (pass.diags, seen)
}

/// Flattens the item model back into one token slice for the
/// whole-file scans (L1 unsafe blocks, L2 env reads), so those lints
/// see attribute tokens, signatures, and bodies alike.
fn collect_tokens(items: &[syn::Item]) -> Vec<proc_macro2::TokenTree> {
    let mut out = Vec::new();
    for item in items {
        match item {
            syn::Item::Fn(f) => {
                out.extend(f.sig.rest.iter().cloned());
                if let Some(b) = &f.block {
                    out.push(proc_macro2::TokenTree::Group(b.clone()));
                }
            }
            syn::Item::Impl(i) => {
                out.extend(i.header.iter().cloned());
                out.extend(collect_tokens(&i.items));
            }
            syn::Item::Trait(t) => out.extend(collect_tokens(&t.items)),
            syn::Item::Mod(m) => {
                if let Some(content) = &m.content {
                    out.extend(collect_tokens(content));
                }
            }
            syn::Item::Other(o) => out.extend(o.tokens.iter().cloned()),
        }
        for attr in item.attrs() {
            out.push(proc_macro2::TokenTree::Group(attr.group.clone()));
        }
    }
    out
}

/// Lints every first-party `.rs` file under `root` and runs the
/// repo-level checks (knob table, stale allowlist, stale names).
pub fn analyze_root(root: &Path, config: &Config) -> std::io::Result<Report> {
    let mut files = Vec::new();
    discover(root, root, &mut files)?;
    files.sort();

    let mut report = Report::default();
    let mut seen = Seen::default();
    for rel in &files {
        let src = std::fs::read_to_string(root.join(rel))?;
        let kind = FileKind::classify(rel);
        let (diags, file_seen) = analyze_source(rel, &src, kind, config);
        report.diagnostics.extend(diags);
        seen.expects.extend(file_seen.expects);
        seen.fns.extend(file_seen.fns);
        report.files_scanned += 1;
    }

    report
        .diagnostics
        .extend(stale_name_findings(config, &seen.fns));
    for entry in &config.expect_allowlist {
        if !seen.expects.contains(entry) {
            report.diagnostics.push(Diagnostic {
                path: "crates/analyze/src/config.rs".to_string(),
                line: 1,
                col: 1,
                lint: L_ALLOWLIST,
                message: format!(
                    "expect allowlist entry {entry:?} matches no call site; remove it"
                ),
            });
        }
    }

    report.diagnostics.extend(knob_table::check(root));
    report
        .diagnostics
        .sort_by(|a, b| (&a.path, a.line, a.col).cmp(&(&b.path, b.line, b.col)));
    Ok(report)
}

/// One `stale_name` finding per name-list entry of `config` that matches
/// none of `fns` (the library fns [`analyze_source`] saw), reported at
/// the config file like a stale allowlist entry: an entry left behind by a
/// rename or deletion lints nothing.
pub fn stale_name_findings(config: &Config, fns: &[String]) -> Vec<Diagnostic> {
    let exact = [
        ("hot_path_exact", &config.hot_path_exact),
        ("span_forbidden_exact", &config.span_forbidden_exact),
    ];
    let stale_exact = exact
        .into_iter()
        .flat_map(|(list, names)| names.iter().map(move |n| (list, n)))
        .filter(|(_, name)| !fns.contains(name));
    let stale_prefixes = config
        .hot_path_prefixes
        .iter()
        .filter(|p| !fns.iter().any(|f| f.starts_with(p.as_str())))
        .map(|p| ("hot_path_prefixes", p));
    stale_exact
        .chain(stale_prefixes)
        .map(|(list, entry)| Diagnostic {
            path: "crates/analyze/src/config.rs".to_string(),
            line: 1,
            col: 1,
            lint: L_STALE_NAME,
            message: format!("{list} entry {entry:?} matches no library fn; remove it"),
        })
        .collect()
}

/// Directory names never descended into: build output, VCS state, the
/// vendored dependency shims (third-party API, not repo policy), and
/// the linter's own deliberately-failing fixtures.
const SKIP_DIRS: &[&str] = &[".git", "target", "vendor", "fixtures"];

fn discover(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            discover(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    Ok(())
}

/// The workspace root when running via cargo from within the repo:
/// `CARGO_MANIFEST_DIR/../..`, falling back to the current directory.
pub fn default_root() -> PathBuf {
    match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(dir) => {
            let p = Path::new(&dir).join("..").join("..");
            if p.join("Cargo.toml").exists() {
                return p;
            }
            PathBuf::from(".")
        }
        Err(_) => PathBuf::from("."),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_source_produces_no_diagnostics() {
        let src = "pub fn add(a: u32, b: u32) -> u32 { a + b }\n";
        let (diags, _) = analyze_source(
            "crates/x/src/lib.rs",
            src,
            FileKind::Lib,
            &Config::default(),
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn diagnostics_render_path_line_col() {
        let d = Diagnostic {
            path: "crates/x/src/lib.rs".to_string(),
            line: 3,
            col: 7,
            lint: config::L_UNWRAP,
            message: "msg".to_string(),
        };
        assert_eq!(d.to_string(), "crates/x/src/lib.rs:3:7: deny(unwrap): msg");
    }

    #[test]
    fn parse_failure_is_reported_not_fatal() {
        let (diags, _) = analyze_source(
            "crates/x/src/lib.rs",
            "fn broken( { \"unterminated\n",
            FileKind::Lib,
            &Config::default(),
        );
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].lint, L_PARSE);
    }
}
