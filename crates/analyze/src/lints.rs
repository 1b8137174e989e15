//! The workspace lints, implemented as token-pattern scans over
//! the coarse `syn` item model.
//!
//! Heuristics are documented per lint; each diagnostic can be silenced
//! at a single line with `// ppgnn-analyze: allow(<lint>)` on or
//! directly above it, or for a whole function with the same comment in
//! the doc/attribute block above the item.

use proc_macro2::{Delimiter, Group, Span, TokenTree};
use syn::{Attribute, Item, ItemFn};

use crate::config::{
    Config, FileKind, L_ALLOC, L_COMMIT, L_ENV, L_FMA, L_SAFETY, L_TELEMETRY_SPAN, L_UNWRAP,
};
use crate::source::SourceText;
use crate::Diagnostic;

/// Per-file lint pass: shared context plus the produced diagnostics.
pub struct FilePass<'a> {
    pub path: &'a str,
    pub kind: FileKind,
    pub src: &'a SourceText,
    pub config: &'a Config,
    /// `.expect()` messages seen in library scope, for the
    /// stale-allowlist check.
    pub seen_expects: Vec<String>,
    /// Names of the fns in library scope — where the name-listed lints
    /// (L3, L6) apply — for the stale-name check.
    pub seen_fns: Vec<String>,
    pub diags: Vec<Diagnostic>,
}

impl<'a> FilePass<'a> {
    /// Runs every applicable lint over the parsed file.
    pub fn run(&mut self, file: &syn::File, all_tokens: &[TokenTree]) {
        // Whole-file token scans (L1 unsafe blocks, L2 env reads) see
        // every scope, tests included.
        self.l1_unsafe_blocks(all_tokens);
        if !self.config.env_exempt(self.path) {
            self.l2_env_reads(all_tokens);
        }
        self.walk_items(&file.items, false);
    }

    fn emit(&mut self, lint: &'static str, span: Span, message: String) {
        let line = span.start().line;
        if self.src.allowed_at(lint, line) {
            return;
        }
        self.diags.push(Diagnostic {
            path: self.path.to_string(),
            line,
            col: span.start().column + 1,
            lint,
            message,
        });
    }

    // ------------------------------------------------------------------
    // Item walk: fn-aware lints (L1 decls, L3, L4, L5).
    // ------------------------------------------------------------------

    fn walk_items(&mut self, items: &[Item], in_test: bool) {
        for item in items {
            let in_test = in_test || item.attrs().iter().any(Attribute::is_cfg_test);
            match item {
                Item::Fn(f) => self.visit_fn(f, in_test),
                Item::Impl(i) => {
                    if let Some(span) = i.unsafety {
                        self.l1_unsafe_decl(span, "unsafe impl");
                    }
                    self.walk_items(&i.items, in_test);
                }
                Item::Trait(t) => {
                    if let Some(span) = t.unsafety {
                        self.l1_unsafe_decl(span, "unsafe trait");
                    }
                    self.walk_items(&t.items, in_test);
                }
                Item::Mod(m) => {
                    if let Some(content) = &m.content {
                        self.walk_items(content, in_test);
                    }
                }
                Item::Other(o) => {
                    // Statics, consts, macro invocations: still library
                    // scope for the unwrap policy.
                    if self.lint_l5_here(in_test) {
                        self.l5_scan(&o.tokens);
                    }
                }
            }
        }
    }

    fn visit_fn(&mut self, f: &ItemFn, in_test: bool) {
        let in_test = in_test || f.attrs.iter().any(|a| a.is("test"));

        if let Some(span) = f.sig.unsafety {
            self.l1_unsafe_decl(span, "unsafe fn");
        }

        let body: &[TokenTree] = f.block.as_ref().map(|g| g.stream().trees()).unwrap_or(&[]);

        if self.kind == FileKind::Lib && !in_test {
            self.seen_fns.push(f.sig.ident.to_string());
        }

        if self.kind == FileKind::Lib
            && !in_test
            && self.config.is_hot_path(&f.sig.ident.to_string())
            && !self.src.allowed_above_item(L_ALLOC, f.start_line())
        {
            self.l3_scan(body, &f.sig.ident.to_string());
        }

        if self.fn_has_fma_target_feature(f) && !self.src.allowed_above_item(L_FMA, f.start_line())
        {
            self.l4_scan(body);
        }

        if self.kind == FileKind::Lib
            && !in_test
            && self.config.is_span_forbidden(&f.sig.ident.to_string())
            && !self
                .src
                .allowed_above_item(L_TELEMETRY_SPAN, f.start_line())
        {
            self.l6_scan(body, &f.sig.ident.to_string());
        }

        if self.kind == FileKind::Lib
            && !in_test
            && self.config.commit_scoped(self.path)
            && !self.src.allowed_above_item(L_COMMIT, f.start_line())
        {
            self.l7_scan(body, &f.sig.ident.to_string());
        }

        if self.lint_l5_here(in_test) && !self.src.allowed_above_item(L_UNWRAP, f.start_line()) {
            self.l5_scan(&f.sig.rest);
            self.l5_scan(body);
        }
    }

    fn lint_l5_here(&self, in_test: bool) -> bool {
        self.kind == FileKind::Lib && !in_test
    }

    fn fn_has_fma_target_feature(&self, f: &ItemFn) -> bool {
        f.attrs
            .iter()
            .any(|a| a.is("target_feature") && a.any_literal_contains("fma"))
    }

    // ------------------------------------------------------------------
    // L1 — SAFETY comments.
    // ------------------------------------------------------------------

    fn l1_unsafe_decl(&mut self, span: Span, what: &str) {
        let line = span.start().line;
        if self.src.has_safety_doc(line) || self.src.allowed_above_item(L_SAFETY, line) {
            return;
        }
        self.emit(
            L_SAFETY,
            span,
            format!("{what} without a `// SAFETY:` comment or `# Safety` doc section"),
        );
    }

    /// Scans every token depth for `unsafe { … }` blocks. `unsafe fn` /
    /// `unsafe impl` / `unsafe trait` keywords are followed by an
    /// identifier, not a brace group, so they never match here.
    fn l1_unsafe_blocks(&mut self, toks: &[TokenTree]) {
        for w in toks.windows(2) {
            if let (TokenTree::Ident(kw), TokenTree::Group(g)) = (&w[0], &w[1]) {
                if *kw == "unsafe" && g.delimiter() == Delimiter::Brace {
                    let line = kw.span().start().line;
                    if !self.src.has_safety_doc(line) {
                        self.emit(
                            L_SAFETY,
                            kw.span(),
                            "unsafe block without a `// SAFETY:` comment".to_string(),
                        );
                    }
                }
            }
        }
        for t in toks {
            if let TokenTree::Group(g) = t {
                self.l1_unsafe_blocks(g.stream().trees());
            }
        }
    }

    // ------------------------------------------------------------------
    // L2 — PPGNN env reads must go through the knobs registry.
    // ------------------------------------------------------------------

    fn l2_env_reads(&mut self, toks: &[TokenTree]) {
        for i in 0..toks.len() {
            let is_env = matches!(&toks[i], TokenTree::Ident(id) if *id == "env");
            if !is_env || i + 4 >= toks.len() {
                continue;
            }
            let path_sep = is_punct(&toks[i + 1], ':') && is_punct(&toks[i + 2], ':');
            let var = matches!(&toks[i + 3], TokenTree::Ident(id) if *id == "var"
                || *id == "var_os");
            if !(path_sep && var) {
                continue;
            }
            if let Some(TokenTree::Group(args)) = toks.get(i + 4) {
                if args.delimiter() == Delimiter::Parenthesis {
                    let ppgnn = args.stream().trees().iter().any(|t| {
                        matches!(t, TokenTree::Literal(l)
                            if l.to_string().starts_with("\"PPGNN_"))
                    });
                    if ppgnn {
                        self.emit(
                            L_ENV,
                            toks[i].span(),
                            "raw env read of a PPGNN_* knob; use ppgnn_tensor::knobs".to_string(),
                        );
                    }
                }
            }
        }
        for t in toks {
            if let TokenTree::Group(g) = t {
                self.l2_env_reads(g.stream().trees());
            }
        }
    }

    // ------------------------------------------------------------------
    // L3 — no allocating calls on the hot path.
    // ------------------------------------------------------------------

    fn l3_scan(&mut self, toks: &[TokenTree], fn_name: &str) {
        for i in 0..toks.len() {
            if let Some((span, what)) = match_alloc_call(toks, i) {
                self.emit(
                    L_ALLOC,
                    span,
                    format!("{what} inside hot-path fn `{fn_name}`"),
                );
            }
        }
        for t in toks {
            if let TokenTree::Group(g) = t {
                self.l3_scan(g.stream().trees(), fn_name);
            }
        }
    }

    // ------------------------------------------------------------------
    // L6 — no span creation inside inner-kernel functions.
    // ------------------------------------------------------------------

    /// A `span(…)` / `span_with(…)` call at any token depth — whether
    /// path-qualified (`ppgnn_telemetry::span(…)`) or imported bare —
    /// inside a function where [`Config::span_forbidden_exact`] bans
    /// tracing. Member accesses like `span.start()` do not match (the
    /// identifier must be followed directly by a parenthesis group).
    fn l6_scan(&mut self, toks: &[TokenTree], fn_name: &str) {
        for i in 0..toks.len() {
            let is_span_call = matches!(&toks[i], TokenTree::Ident(id)
                    if *id == "span" || *id == "span_with")
                && matches!(toks.get(i + 1), Some(TokenTree::Group(g))
                    if g.delimiter() == Delimiter::Parenthesis);
            if is_span_call {
                self.emit(
                    L_TELEMETRY_SPAN,
                    toks[i].span(),
                    format!(
                        "telemetry span created inside inner-kernel fn `{fn_name}`; \
                         trace at task/hop granularity instead (counters are fine here)"
                    ),
                );
            }
        }
        for t in toks {
            if let TokenTree::Group(g) = t {
                self.l6_scan(g.stream().trees(), fn_name);
            }
        }
    }

    // ------------------------------------------------------------------
    // L7 — store writes go through the atomic-commit funnel.
    // ------------------------------------------------------------------

    /// Bare durable-write calls (`File::create`, `fs::rename`,
    /// `fs::write`) at any token depth inside library functions of the
    /// commit-scoped paths. Reads (`File::open`, `fs::read*`) and test
    /// scopes never match; the funnel module itself is exempt by path.
    fn l7_scan(&mut self, toks: &[TokenTree], fn_name: &str) {
        for i in 0..toks.len() {
            let Some((span, what)) = match_bare_write_call(toks, i) else {
                continue;
            };
            self.emit(
                L_COMMIT,
                span,
                format!(
                    "bare {what} on a store path in fn `{fn_name}`; route durable \
                     writes through ppgnn_dataio::commit::write_bytes_atomic"
                ),
            );
        }
        for t in toks {
            if let TokenTree::Group(g) = t {
                self.l7_scan(g.stream().trees(), fn_name);
            }
        }
    }

    // ------------------------------------------------------------------
    // L4 — fma target-feature functions must use mul_add.
    // ------------------------------------------------------------------

    /// Heuristic: within one comma/semicolon-delimited token segment at
    /// a single nesting depth, a binary `*` together with a later
    /// binary `+` is an unfused multiply-add. Bracket groups (indexing
    /// — integer math) are not descended into; parenthesising the
    /// product explicitly, e.g. `(a * b) + c`, also opts out.
    fn l4_scan(&mut self, toks: &[TokenTree]) {
        let mut star: Option<Span> = None;
        let mut plus: Option<Span> = None;
        for i in 0..toks.len() {
            match &toks[i] {
                TokenTree::Punct(p) if p.as_char() == ',' || p.as_char() == ';' => {
                    star = None;
                    plus = None;
                }
                TokenTree::Punct(p) if p.as_char() == '*' && is_binary_op(toks, i) => {
                    star = Some(p.span());
                }
                TokenTree::Punct(p) if p.as_char() == '+' && is_binary_op(toks, i) => {
                    plus = Some(p.span());
                }
                _ => {}
            }
            if let (Some(_), Some(pspan)) = (star, plus) {
                self.emit(
                    L_FMA,
                    pspan,
                    "bare `a * b + c` in an fma target-feature fn; use `mul_add`".to_string(),
                );
                star = None;
                plus = None;
            }
        }
        for t in toks {
            if let TokenTree::Group(g) = t {
                if g.delimiter() != Delimiter::Bracket {
                    self.l4_scan(g.stream().trees());
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // L5 — unwrap/expect policy.
    // ------------------------------------------------------------------

    fn l5_scan(&mut self, toks: &[TokenTree]) {
        for i in 0..toks.len() {
            let Some((span, method, args)) = match_method_call(toks, i) else {
                continue;
            };
            match method.as_str() {
                "unwrap" if args.stream().is_empty() => {
                    self.emit(
                        L_UNWRAP,
                        span,
                        "`.unwrap()` in library code; handle the error or use `.expect()` \
                         with an allowlisted invariant message"
                            .to_string(),
                    );
                }
                "expect" => match single_string_arg(args) {
                    Some(m) => {
                        if self.config.expect_allowlist.contains(&m) {
                            self.seen_expects.push(m);
                        } else {
                            self.emit(
                                L_UNWRAP,
                                span,
                                format!(
                                    "`.expect({m:?})` message is not on the allowlist in \
                                     crates/analyze/src/config.rs"
                                ),
                            );
                        }
                    }
                    None => self.emit(
                        L_UNWRAP,
                        span,
                        "`.expect(…)` with a non-literal message in library code".to_string(),
                    ),
                },
                _ => {}
            }
        }
        for t in toks {
            if let TokenTree::Group(g) = t {
                self.l5_scan(g.stream().trees());
            }
        }
    }
}

// ----------------------------------------------------------------------
// Token-pattern helpers.
// ----------------------------------------------------------------------

fn is_punct(t: &TokenTree, c: char) -> bool {
    matches!(t, TokenTree::Punct(p) if p.as_char() == c)
}

fn is_ident(t: &TokenTree, s: &str) -> bool {
    matches!(t, TokenTree::Ident(i) if *i == s)
}

/// `.name(…)` at position `i` (the dot): returns the name span, the
/// method name, and the argument group.
fn match_method_call(toks: &[TokenTree], i: usize) -> Option<(Span, String, &Group)> {
    if !is_punct(toks.get(i)?, '.') {
        return None;
    }
    let name = match toks.get(i + 1)? {
        TokenTree::Ident(n) => n,
        _ => return None,
    };
    let args = match toks.get(i + 2)? {
        TokenTree::Group(g) if g.delimiter() == Delimiter::Parenthesis => g,
        _ => return None,
    };
    Some((name.span(), name.to_string(), args))
}

/// The unescaped value of a single string-literal argument.
fn single_string_arg(args: &Group) -> Option<String> {
    let trees = args.stream().trees();
    if trees.len() != 1 {
        return None;
    }
    let TokenTree::Literal(l) = &trees[0] else {
        return None;
    };
    let text = l.to_string();
    let inner = text.strip_prefix('"')?.strip_suffix('"')?;
    Some(inner.replace("\\\"", "\"").replace("\\\\", "\\"))
}

/// An allocating call starting at position `i`: `Matrix::zeros`,
/// `vec![…]`, `Vec::new()`, `.clone()`, `.to_vec()`.
fn match_alloc_call(toks: &[TokenTree], i: usize) -> Option<(Span, &'static str)> {
    if is_ident(&toks[i], "Matrix")
        && toks.len() > i + 3
        && is_punct(&toks[i + 1], ':')
        && is_punct(&toks[i + 2], ':')
        && is_ident(&toks[i + 3], "zeros")
    {
        return Some((toks[i].span(), "`Matrix::zeros`"));
    }
    if is_ident(&toks[i], "vec") && toks.len() > i + 1 && is_punct(&toks[i + 1], '!') {
        return Some((toks[i].span(), "`vec![…]`"));
    }
    if is_ident(&toks[i], "Vec")
        && toks.len() > i + 3
        && is_punct(&toks[i + 1], ':')
        && is_punct(&toks[i + 2], ':')
        && is_ident(&toks[i + 3], "new")
    {
        return Some((toks[i].span(), "`Vec::new`"));
    }
    if let Some((span, method, args)) = match_method_call(toks, i) {
        if method == "clone" && args.stream().is_empty() {
            return Some((span, "`.clone()`"));
        }
        if method == "to_vec" {
            return Some((span, "`.to_vec()`"));
        }
    }
    None
}

/// A non-atomic durable-write call starting at position `i`:
/// `File::create`, `fs::rename`, or `fs::write` (path-qualified with
/// any leading segments — the scan only needs the final
/// `seg :: name ( … )` shape).
fn match_bare_write_call(toks: &[TokenTree], i: usize) -> Option<(Span, &'static str)> {
    let seg_call = |seg: &str, name: &str| -> bool {
        is_ident(&toks[i], seg)
            && toks.len() > i + 4
            && is_punct(&toks[i + 1], ':')
            && is_punct(&toks[i + 2], ':')
            && is_ident(&toks[i + 3], name)
            && matches!(&toks[i + 4], TokenTree::Group(g)
                if g.delimiter() == Delimiter::Parenthesis)
    };
    if seg_call("File", "create") {
        return Some((toks[i].span(), "`File::create`"));
    }
    if seg_call("fs", "rename") {
        return Some((toks[i].span(), "`fs::rename`"));
    }
    if seg_call("fs", "write") {
        return Some((toks[i].span(), "`fs::write`"));
    }
    None
}

/// Whether the punct at `i` acts as a binary operator: preceded by an
/// identifier, literal, or closing group, and not part of a compound
/// assignment (`*=`, `+=`).
fn is_binary_op(toks: &[TokenTree], i: usize) -> bool {
    if i == 0 {
        return false;
    }
    let lhs_ok = matches!(
        &toks[i - 1],
        TokenTree::Ident(_) | TokenTree::Literal(_) | TokenTree::Group(_)
    );
    let compound = matches!(toks.get(i + 1), Some(TokenTree::Punct(p)) if p.as_char() == '=');
    lhs_ok && !compound
}
