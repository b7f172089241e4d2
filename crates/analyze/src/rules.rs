//! The lint rule set.
//!
//! Each rule is a lexical check over a [`SourceFile`] token stream. Rules
//! carry their own scope ([`Rule::applies`]) and per-file allowlists;
//! line-level opt-outs (`// sc-analyze: allow(<rule>)`) are handled
//! centrally by the engine in [`crate::analyze_source`].

use crate::lexer::{TokKind, Token};
use crate::SourceFile;

/// One finding: a rule violation at a specific file and line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Repository-relative path with `/` separators.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Rule name (e.g. `panic-surface`).
    pub rule: String,
    /// Human-readable explanation of the violation.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A lint rule: a named check with a path scope.
pub trait Rule {
    /// Stable rule name, used in diagnostics and `allow(...)` directives.
    fn name(&self) -> &'static str;
    /// Whether the rule runs on the file at repository-relative path
    /// `rel`. Default: every `.rs` file handed to the engine.
    fn applies(&self, rel: &str) -> bool {
        let _ = rel;
        true
    }
    /// Scan `file` and append findings to `out`.
    fn check(&self, file: &SourceFile, out: &mut Vec<Diagnostic>);
}

/// The full default rule set, in the order diagnostics group best.
pub fn default_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(PanicSurface),
        Box::new(FloatEq),
        Box::new(PrecisionDiscipline {
            allow_files: PRECISION_ALLOWLIST,
        }),
        Box::new(UnitDiscipline),
        Box::new(PubDoc),
        Box::new(FileLength {
            limit: 800,
            ceilings: FILE_LENGTH_CEILINGS,
        }),
    ]
}

/// True for paths that are library (non-test, non-bench, non-shim)
/// sources: `src/**` of the facade or of any `crates/<name>` except
/// `bench`, `analyze`, and the `shims` subtree.
pub fn is_library_source(rel: &str) -> bool {
    if rel.starts_with("src/") {
        return true;
    }
    let Some(rest) = rel.strip_prefix("crates/") else {
        return false;
    };
    let mut parts = rest.split('/');
    let krate = parts.next().unwrap_or("");
    let second = parts.next().unwrap_or("");
    if krate == "bench" || krate == "analyze" || krate == "shims" {
        return false;
    }
    second == "src"
}

/// Does a per-file allowlist entry cover `rel`? Entries ending in `/`
/// are directory prefixes; others are exact paths.
fn allowlisted(rel: &str, allow: &[&str]) -> bool {
    allow.iter().any(|a| {
        if a.ends_with('/') {
            rel.starts_with(a)
        } else {
            rel == *a
        }
    })
}

// ---------------------------------------------------------------------------
// panic-surface
// ---------------------------------------------------------------------------

/// Library code may not use `.unwrap()`, bare `.expect(...)` without a
/// descriptive message, `panic!`, `todo!`, or `unimplemented!`. Tests
/// (lines inside `#[test]`/`#[cfg(test)]` items) are exempt, as are
/// `.expect("…")` calls whose message is at least eight characters —
/// a descriptive message documents the invariant being relied on.
pub struct PanicSurface;

impl Rule for PanicSurface {
    fn name(&self) -> &'static str {
        "panic-surface"
    }

    fn applies(&self, rel: &str) -> bool {
        is_library_source(rel)
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        let sig = &file.sig;
        for si in 0..sig.len() {
            let t = &file.tokens[sig[si]];
            if file.in_test_region(t.line) {
                continue;
            }
            if t.kind != TokKind::Ident {
                continue;
            }
            let prev_dot = si > 0 && file.tokens[sig[si - 1]].text == ".";
            let next_is = |text: &str| {
                file.sig_tok(si + 1)
                    .is_some_and(|n| n.kind == TokKind::Punct && n.text == text)
            };
            match t.text.as_str() {
                "unwrap" if prev_dot && next_is("(") => out.push(Diagnostic {
                    file: file.rel.clone(),
                    line: t.line,
                    rule: self.name().into(),
                    message: "`.unwrap()` in library code; use `.expect(\"<invariant>\")` or \
                              propagate the error"
                        .into(),
                }),
                "expect"
                    if prev_dot
                        && next_is("(")
                        && !expect_has_descriptive_message(file, si + 1) =>
                {
                    out.push(Diagnostic {
                        file: file.rel.clone(),
                        line: t.line,
                        rule: self.name().into(),
                        message: "`.expect(..)` without a descriptive message (>= 8 chars) \
                                      in library code"
                            .into(),
                    });
                }
                "panic" | "todo" | "unimplemented" if next_is("!") => out.push(Diagnostic {
                    file: file.rel.clone(),
                    line: t.line,
                    rule: self.name().into(),
                    message: format!(
                        "`{}!` in library code; return an error or document the invariant \
                         with an allow directive",
                        t.text
                    ),
                }),
                _ => {}
            }
        }
    }
}

/// Scan the parenthesized argument of `.expect(` starting at the sig
/// index of the opening `(`; true when any string literal inside has
/// contents of at least eight characters (covers both `.expect("long
/// message")` and `.expect(&format!("slot {i} missing"))`).
fn expect_has_descriptive_message(file: &SourceFile, open_si: usize) -> bool {
    let mut depth = 0i64;
    for si in open_si..file.sig.len() {
        let t = &file.tokens[file.sig[si]];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        return false;
                    }
                }
                _ => {}
            }
        } else if t.kind == TokKind::Str && t.str_contents().is_some_and(|s| s.len() >= 8) {
            return true;
        }
    }
    false
}

// ---------------------------------------------------------------------------
// float-eq
// ---------------------------------------------------------------------------

/// `==`/`!=` on expressions involving float literals is almost always a
/// bug; use a tolerance or compare `.to_bits()` (how bitwise replay
/// equality is asserted). The rule runs on every file.
pub struct FloatEq;

impl Rule for FloatEq {
    fn name(&self) -> &'static str {
        "float-eq"
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        let sig = &file.sig;
        for si in 0..sig.len() {
            let t = &file.tokens[sig[si]];
            if t.kind != TokKind::Punct || (t.text != "==" && t.text != "!=") {
                continue;
            }
            let lhs_float = si > 0 && file.tokens[sig[si - 1]].kind == TokKind::Float;
            let rhs_float = {
                // allow a unary sign before the literal: `x == -0.5`
                let mut sj = si + 1;
                if file
                    .sig_tok(sj)
                    .is_some_and(|n| n.kind == TokKind::Punct && (n.text == "-" || n.text == "+"))
                {
                    sj += 1;
                }
                file.sig_tok(sj).is_some_and(|n| n.kind == TokKind::Float)
            };
            if lhs_float || rhs_float {
                out.push(Diagnostic {
                    file: file.rel.clone(),
                    line: t.line,
                    rule: self.name().into(),
                    message: format!(
                        "float literal compared with `{}`; use a tolerance or `.to_bits()`",
                        t.text
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// precision-discipline
// ---------------------------------------------------------------------------

/// Files permitted to cast to `f32`/`f64` with bare `as`: the sealed
/// `Scalar` impl module (the one sanctioned precision boundary — everything
/// else goes through `Scalar::from_f64`/`to_f64`), and the two gpusim cost
/// files, where every line prices integer byte/flop counts into `f64`
/// seconds and no value precision is involved.
pub const PRECISION_ALLOWLIST: &[&str] = &[
    "crates/dense/src/scalar.rs",
    "crates/gpusim/src/cost.rs",
    "crates/gpusim/src/kernels.rs",
];

/// Now that the numeric stack is generic over [`Scalar`], a bare `as f32`
/// / `as f64` cast in library code is an undeclared precision decision:
/// demotions silently drop bits, promotions hide where the mixed-precision
/// boundary sits. Value conversions go through `Scalar::from_f64` /
/// `Scalar::to_f64` (exact-by-construction and greppable); integer-width
/// casts that merely feed a cost model carry a
/// `// sc-analyze: allow(precision-discipline)` escape documenting they
/// change no value precision.
///
/// [`Scalar`]: ../sc_dense/trait.Scalar.html
pub struct PrecisionDiscipline {
    /// Exact paths or `/`-terminated directory prefixes exempt from the
    /// rule.
    pub allow_files: &'static [&'static str],
}

impl Rule for PrecisionDiscipline {
    fn name(&self) -> &'static str {
        "precision-discipline"
    }

    fn applies(&self, rel: &str) -> bool {
        is_library_source(rel) && !allowlisted(rel, self.allow_files)
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        for (si, &ti) in file.sig.iter().enumerate() {
            let t = &file.tokens[ti];
            if t.kind != TokKind::Ident || t.text != "as" {
                continue;
            }
            if file.in_test_region(t.line) {
                continue;
            }
            let Some(target) = file.sig_tok(si + 1) else {
                continue;
            };
            if target.kind == TokKind::Ident && (target.text == "f32" || target.text == "f64") {
                out.push(Diagnostic {
                    file: file.rel.clone(),
                    line: t.line,
                    rule: self.name().into(),
                    message: format!(
                        "bare `as {}` cast outside the Scalar impl module; use \
                         `Scalar::from_f64`/`to_f64` for value conversions, or mark an \
                         integer-width cast with an allow directive",
                        target.text
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// unit-discipline
// ---------------------------------------------------------------------------

const UNIT_SUFFIXES: &[&str] = &["_seconds", "_bytes", "_flops"];

fn unit_suffix(name: &str) -> Option<&'static str> {
    UNIT_SUFFIXES.iter().copied().find(|s| name.ends_with(s))
}

/// Identifiers carrying a unit suffix (`_seconds`, `_bytes`, `_flops`)
/// may not meet an identifier of a *different* unit across an arithmetic
/// or comparison operator — `elapsed_seconds + staged_bytes` is a unit
/// error the type system cannot see.
pub struct UnitDiscipline;

impl Rule for UnitDiscipline {
    fn name(&self) -> &'static str {
        "unit-discipline"
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        const OPS: &[&str] = &["+", "-", "<", "<=", ">", ">=", "==", "!="];
        for (si, &ti) in file.sig.iter().enumerate() {
            let t = &file.tokens[ti];
            if t.kind != TokKind::Punct || !OPS.contains(&t.text.as_str()) {
                continue;
            }
            let (Some(prev), Some(next)) = (
                si.checked_sub(1).and_then(|p| file.sig_tok(p)),
                file.sig_tok(si + 1),
            ) else {
                continue;
            };
            if prev.kind != TokKind::Ident || next.kind != TokKind::Ident {
                continue;
            }
            if let (Some(lu), Some(ru)) = (unit_suffix(&prev.text), unit_suffix(&next.text)) {
                if lu != ru {
                    out.push(Diagnostic {
                        file: file.rel.clone(),
                        line: t.line,
                        rule: self.name().into(),
                        message: format!(
                            "`{}` mixes units: `{}` ({}) {} `{}` ({})",
                            t.text,
                            prev.text,
                            &lu[1..],
                            t.text,
                            next.text,
                            &ru[1..]
                        ),
                    });
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// pub-doc
// ---------------------------------------------------------------------------

/// Every `pub fn` and `pub struct` in the core, gpusim, dense, and feti
/// crates — the workspace's primary public surface — must carry a doc
/// comment. Restricted visibility (`pub(crate)`, `pub(super)`) is not
/// public surface and is skipped.
pub struct PubDoc;

impl Rule for PubDoc {
    fn name(&self) -> &'static str {
        "pub-doc"
    }

    fn applies(&self, rel: &str) -> bool {
        rel.starts_with("crates/core/src/")
            || rel.starts_with("crates/gpusim/src/")
            || rel.starts_with("crates/dense/src/")
            || rel.starts_with("crates/feti/src/")
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        for (si, &ti) in file.sig.iter().enumerate() {
            let t = &file.tokens[ti];
            if !(t.kind == TokKind::Ident && t.text == "pub") {
                continue;
            }
            if file.in_test_region(t.line) {
                continue;
            }
            // restricted visibility: `pub(crate)` etc. — not public API
            if file
                .sig_tok(si + 1)
                .is_some_and(|n| n.kind == TokKind::Punct && n.text == "(")
            {
                continue;
            }
            // skip qualifiers between `pub` and the item keyword
            let mut sj = si + 1;
            while file.sig_tok(sj).is_some_and(|n| {
                (n.kind == TokKind::Ident
                    && matches!(n.text.as_str(), "const" | "unsafe" | "async" | "extern"))
                    || n.kind == TokKind::Str // extern "C"
            }) {
                sj += 1;
            }
            let Some(item) = file.sig_tok(sj) else {
                continue;
            };
            if !(item.kind == TokKind::Ident && (item.text == "fn" || item.text == "struct")) {
                continue;
            }
            let name = file
                .sig_tok(sj + 1)
                .map(|n| n.text.clone())
                .unwrap_or_default();
            if !has_preceding_doc(file, ti) {
                out.push(Diagnostic {
                    file: file.rel.clone(),
                    line: t.line,
                    rule: self.name().into(),
                    message: format!("`pub {} {}` has no doc comment", item.text, name),
                });
            }
        }
    }
}

/// Walk the *raw* token stream backwards from the `pub` at raw index
/// `pub_ti`, skipping attribute groups (`#[…]`), and report whether a
/// doc comment immediately precedes the item.
fn has_preceding_doc(file: &SourceFile, pub_ti: usize) -> bool {
    let toks: &[Token] = &file.tokens;
    let mut ti = pub_ti;
    loop {
        if ti == 0 {
            return false;
        }
        ti -= 1;
        let t = &toks[ti];
        match t.kind {
            TokKind::DocComment => return true,
            TokKind::Comment => continue, // plain comments may sit between
            TokKind::Punct if t.text == "#" || t.text == "!" => continue,
            TokKind::Punct if t.text == "]" => {
                // skip a bracket group backwards; require a leading `#`
                let mut depth = 0i64;
                loop {
                    let t = &toks[ti];
                    if t.kind == TokKind::Punct {
                        match t.text.as_str() {
                            "]" => depth += 1,
                            "[" => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                    }
                    if ti == 0 {
                        return false;
                    }
                    ti -= 1;
                }
                // `ti` is at `[`; the preceding sig token should be `#`
                // (or `#!`); keep walking from there.
                continue;
            }
            _ => return false,
        }
    }
}

// ---------------------------------------------------------------------------
// file-length
// ---------------------------------------------------------------------------

/// The library files still over the [`FileLength`] limit, each with its
/// current non-test line count as its ceiling: an entry may only shrink,
/// and goes once its file is under the limit (the rule reports both).
pub const FILE_LENGTH_CEILINGS: &[(&str, u32)] = &[];

/// A library file may not exceed `limit` non-test lines (lines outside
/// `#[test]`/`#[cfg(test)]` items, comments and blanks included): past that
/// it needs a table of contents, and should be split by responsibility
/// instead. A file listed in `ceilings` is held to its own ceiling, and the
/// table ratchets: a listed file under its ceiling is reported too, so the
/// entry is lowered to the new count or, once the file is within `limit`,
/// deleted.
pub struct FileLength {
    /// Largest allowed non-test line count.
    pub limit: u32,
    /// `(path, ceiling)` of the known offenders.
    pub ceilings: &'static [(&'static str, u32)],
}

impl Rule for FileLength {
    fn name(&self) -> &'static str {
        "file-length"
    }

    fn applies(&self, rel: &str) -> bool {
        is_library_source(rel)
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        let ceiling = self
            .ceilings
            .iter()
            .find(|(path, _)| *path == file.rel)
            .map(|&(_, ceiling)| ceiling);
        let limit = ceiling.unwrap_or(self.limit);
        let lines = (1..=file.n_lines).filter(|&l| !file.in_test_region(l));
        let count = lines.clone().count() as u32;
        let (line, message) = if count > limit {
            let first_over = lines.clone().nth(limit as usize).unwrap_or(1);
            let msg = format!(
                "{count} non-test lines, over the limit of {limit}; split the file by \
                 responsibility"
            );
            (first_over, msg)
        } else if ceiling.is_some() && count < limit {
            let fix = if count <= self.limit {
                "delete the entry".to_string()
            } else {
                format!("lower the ceiling to {count}")
            };
            let msg = format!("{count} non-test lines, under the ceiling of {limit}; {fix}");
            (1, msg)
        } else {
            return;
        };
        out.push(Diagnostic {
            file: file.rel.clone(),
            line,
            rule: self.name().into(),
            message,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze_source;

    fn run(rel: &str, src: &str) -> Vec<Diagnostic> {
        analyze_source(rel, src, &default_rules())
    }

    #[test]
    fn panic_surface_fires_in_library_only() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert_eq!(run("crates/sparse/src/csc.rs", src).len(), 1);
        assert!(run("crates/bench/src/lib.rs", src).is_empty());
        assert!(run("tests/integration.rs", src).is_empty());
        assert!(run("crates/shims/rayon/src/lib.rs", src).is_empty());
    }

    #[test]
    fn descriptive_expect_is_fine_short_is_not() {
        let good = "fn f(x: Option<u8>) -> u8 { x.expect(\"csc col pointer table non-empty\") }\n";
        assert!(run("crates/sparse/src/csc.rs", good).is_empty());
        let bad = "fn f(x: Option<u8>) -> u8 { x.expect(\"oops\") }\n";
        assert_eq!(run("crates/sparse/src/csc.rs", bad).len(), 1);
        let fmt =
            "fn f(x: Option<u8>, i: usize) -> u8 { x.expect(&format!(\"slot {i} must exist\")) }\n";
        assert!(run("crates/sparse/src/csc.rs", fmt).is_empty());
    }

    #[test]
    fn panic_surface_exempts_test_regions() {
        let src = "#[test]\nfn t() { let x: Option<u8> = None; x.unwrap(); panic!(\"boom\"); }\n";
        assert!(run("crates/sparse/src/csc.rs", src).is_empty());
    }

    #[test]
    fn float_eq_fires_in_every_file() {
        let src = "fn f(x: f64) -> bool { x == 0.5 }\n";
        assert_eq!(run("crates/fem/src/problem.rs", src).len(), 1);
        assert_eq!(run("tests/determinism.rs", src).len(), 1);
        let neg = "fn f(x: f64) -> bool { x != -1.5 }\n";
        assert_eq!(run("crates/fem/src/problem.rs", neg).len(), 1);
        let int = "fn f(x: u8) -> bool { x == 5 }\n";
        assert!(run("crates/fem/src/problem.rs", int).is_empty());
    }

    #[test]
    fn precision_discipline_flags_bare_float_casts() {
        let demote = "fn f(x: f64) -> f32 { x as f32 }\n";
        assert_eq!(run("crates/sparse/src/csc.rs", demote).len(), 1);
        let promote = "fn f(x: f32) -> f64 { x as f64 }\n";
        assert_eq!(run("crates/feti/src/solver.rs", promote).len(), 1);
        // the sanctioned conversion surface is clean
        let from = "fn f(x: f32) -> f64 { f64::from(x) }\n";
        assert!(run("crates/feti/src/solver.rs", from).is_empty());
        // integer casts to integer widths are out of scope
        let int = "fn f(n: usize) -> u32 { n as u32 }\n";
        assert!(run("crates/sparse/src/csc.rs", int).is_empty());
    }

    #[test]
    fn precision_discipline_respects_scope_and_escapes() {
        let src = "fn f(n: usize) -> f64 { n as f64 }\n";
        assert_eq!(run("crates/core/src/tune.rs", src).len(), 1);
        // the Scalar impl module and the gpusim pricing files are sanctioned
        assert!(run("crates/dense/src/scalar.rs", src).is_empty());
        assert!(run("crates/gpusim/src/cost.rs", src).is_empty());
        // non-library code is out of scope
        assert!(run("tests/integration.rs", src).is_empty());
        assert!(run("crates/bench/src/lib.rs", src).is_empty());
        // test regions inside library files are exempt
        let test_mod = "#[cfg(test)]\nmod tests {\n fn g() { let _ = 1usize as f64; }\n}\n";
        assert!(run("crates/sparse/src/csc.rs", test_mod).is_empty());
        // the line escape silences exactly this rule
        let escaped =
            "fn f(n: usize) -> f64 { n as f64 } // sc-analyze: allow(precision-discipline)\n";
        assert!(run("crates/core/src/tune.rs", escaped).is_empty());
    }

    #[test]
    fn unit_discipline_flags_cross_unit_ops() {
        let bad = "fn f(a_seconds: f64, b_bytes: f64) -> f64 { a_seconds + b_bytes }\n";
        let d = run("crates/core/src/batch.rs", bad);
        assert!(d.iter().any(|d| d.rule == "unit-discipline"));
        let ok = "fn f(a_seconds: f64, b_seconds: f64) -> f64 { a_seconds + b_seconds }\n";
        assert!(run("src/lib.rs", ok)
            .iter()
            .all(|d| d.rule != "unit-discipline"));
        let mul = "fn f(a_flops: f64, b_seconds: f64) -> f64 { a_flops / b_seconds }\n";
        assert!(run("src/lib.rs", mul)
            .iter()
            .all(|d| d.rule != "unit-discipline"));
    }

    #[test]
    fn pub_doc_requires_doc_comment_on_core_surface() {
        let bad = "pub fn undocumented() {}\n";
        assert_eq!(run("crates/core/src/x.rs", bad).len(), 1);
        assert!(run("crates/sparse/src/csc.rs", bad).is_empty());
        let good = "/// Documented.\npub fn documented() {}\n";
        assert!(run("crates/core/src/x.rs", good).is_empty());
        let attr = "/// Documented.\n#[inline]\npub fn documented() {}\n";
        assert!(run("crates/core/src/x.rs", attr).is_empty());
        let crate_vis = "pub(crate) fn internal() {}\n";
        assert!(run("crates/core/src/x.rs", crate_vis).is_empty());
        let enum_item = "pub enum E { A }\n";
        assert!(run("crates/core/src/x.rs", enum_item).is_empty());
    }

    #[test]
    fn suppression_silences_exactly_one_rule() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() } // sc-analyze: allow(panic-surface)\n";
        assert!(run("crates/sparse/src/csc.rs", src).is_empty());
        let wrong = "fn f(x: Option<u8>) -> u8 { x.unwrap() } // sc-analyze: allow(float-eq)\n";
        assert_eq!(run("crates/sparse/src/csc.rs", wrong).len(), 1);
    }

    #[test]
    fn violations_inside_strings_and_comments_do_not_fire() {
        let src = "fn f() -> &'static str { \"call .unwrap() and panic!\" } // .unwrap() here\n";
        assert!(run("crates/sparse/src/csc.rs", src).is_empty());
    }
}
