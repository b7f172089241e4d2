//! `sc_analyze` — static analysis for the workspace.
//!
//! Two analyzers live here:
//!
//! 1. A **source lint engine** ([`analyze_tree`] / [`analyze_source`]):
//!    a dependency-free Rust [`lexer`] feeding a small set of [`rules`]
//!    tuned to this codebase's invariants — panic-free library crates,
//!    no accidental float equality, unit-suffix discipline, doc coverage
//!    of the public core/gpusim surface, and a length cap on library
//!    files.
//!    Per-line opt-outs use `// sc-analyze: allow(<rule>, …)` comments,
//!    which silence the named rules on that line and the next.
//!
//! 2. A **kernel-trace hazard sanitizer** ([`trace::validate`]): checks
//!    the [`sc_gpu::Trace`] produced by the batched replay engines for
//!    use-after-free, double-free, cross-stream data races without
//!    ordering edges, impossible per-stream overlap, and arena
//!    oversubscription.
//!
//! The `sc_analyze` binary runs the lint engine over the repository tree
//! and exits non-zero on any diagnostic; the workspace's
//! `tests/trace_audit.rs` runs the sanitizer over the recorded schedules of
//! eight real workloads.

pub mod lexer;
pub mod rules;
pub mod trace;

use lexer::{lex, TokKind, Token};
use rules::{Diagnostic, Rule};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// A lexed source file plus the derived line-level metadata rules need:
/// suppression directives and `#[test]`/`#[cfg(test)]` regions.
pub struct SourceFile {
    /// Repository-relative path with `/` separators (e.g.
    /// `crates/core/src/batch.rs`).
    pub rel: String,
    /// Every token including comment trivia, in source order.
    pub tokens: Vec<Token>,
    /// Indices into [`Self::tokens`] of the significant (non-comment)
    /// tokens, in source order. Rules that reason about adjacency use
    /// this so comments never split an expression.
    pub sig: Vec<usize>,
    /// Number of source lines.
    pub n_lines: u32,
    /// `(rule-name, line)` pairs silenced by `sc-analyze: allow(…)`.
    suppressed: BTreeSet<(String, u32)>,
    /// Half-open line ranges `[start, end)` lexically inside items marked
    /// `#[test]` / `#[cfg(test)]` (functions or whole `mod tests`).
    test_regions: Vec<(u32, u32)>,
}

impl SourceFile {
    /// Lex `text` and derive suppression and test-region metadata.
    pub fn parse(rel: &str, text: &str) -> Self {
        let tokens = lex(text);
        let sig: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.is_trivia())
            .map(|(i, _)| i)
            .collect();
        let suppressed = collect_suppressions(&tokens);
        let test_regions = collect_test_regions(&tokens, &sig);
        SourceFile {
            rel: rel.to_string(),
            tokens,
            sig,
            n_lines: u32::try_from(text.lines().count()).unwrap_or(u32::MAX),
            suppressed,
            test_regions,
        }
    }

    /// True when `rule` is suppressed on `line` by an allow directive.
    pub fn is_suppressed(&self, rule: &str, line: u32) -> bool {
        self.suppressed.contains(&(rule.to_string(), line))
    }

    /// True when `line` falls inside a `#[test]`/`#[cfg(test)]` item.
    pub fn in_test_region(&self, line: u32) -> bool {
        self.test_regions
            .iter()
            .any(|&(s, e)| line >= s && line < e)
    }

    /// The significant token at sig-position `si`, if in range.
    pub fn sig_tok(&self, si: usize) -> Option<&Token> {
        self.sig.get(si).map(|&i| &self.tokens[i])
    }
}

/// Parse `sc-analyze: allow(rule, rule…)` directives out of comments.
/// A directive silences the listed rules on its own line and the next,
/// so both trailing (`stmt; // sc-analyze: allow(x)`) and preceding
/// (`// sc-analyze: allow(x)` above the statement) placements work.
fn collect_suppressions(tokens: &[Token]) -> BTreeSet<(String, u32)> {
    let mut out = BTreeSet::new();
    for t in tokens {
        if !t.is_trivia() {
            continue;
        }
        let Some(pos) = t.text.find("sc-analyze:") else {
            continue;
        };
        let rest = &t.text[pos + "sc-analyze:".len()..];
        let Some(open) = rest.find("allow(") else {
            continue;
        };
        let Some(close) = rest[open..].find(')') else {
            continue;
        };
        let list = &rest[open + "allow(".len()..open + close];
        for rule in list.split(',') {
            let rule = rule.trim();
            if rule.is_empty() {
                continue;
            }
            out.insert((rule.to_string(), t.line));
            out.insert((rule.to_string(), t.line + 1));
        }
    }
    out
}

/// Find line ranges covered by items annotated `#[test]`, `#[cfg(test)]`,
/// `#[tokio::test]`, etc. The heuristic: an attribute group whose idents
/// include one containing `test` (and not `not`) starts a test item; the
/// item extends to the end of its brace-matched body (or the terminating
/// `;` for braceless items).
fn collect_test_regions(tokens: &[Token], sig: &[usize]) -> Vec<(u32, u32)> {
    let mut regions: Vec<(u32, u32)> = Vec::new();
    let mut si = 0usize;
    while si < sig.len() {
        let t = &tokens[sig[si]];
        if t.kind == TokKind::Punct && t.text == "#" {
            // attribute group: `#` `[` … `]` (possibly `#!`)
            let mut sj = si + 1;
            if sig.get(sj).map(|&i| tokens[i].text.as_str()) == Some("!") {
                sj += 1;
            }
            if sig.get(sj).map(|&i| tokens[i].text.as_str()) == Some("[") {
                // scan the bracket group; `#[cfg(not(test))]` has `not`
                // and `test` as separate tokens, so track both
                let mut depth = 0usize;
                let mut saw_test = false;
                let mut saw_not = false;
                let mut sk = sj;
                while sk < sig.len() {
                    let tk = &tokens[sig[sk]];
                    match tk.text.as_str() {
                        "[" if tk.kind == TokKind::Punct => depth += 1,
                        "]" if tk.kind == TokKind::Punct => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ if tk.kind == TokKind::Ident => {
                            if tk.text.contains("test") {
                                saw_test = true;
                            }
                            if tk.text == "not" {
                                saw_not = true;
                            }
                        }
                        _ => {}
                    }
                    sk += 1;
                }
                let is_test_attr = saw_test && !saw_not;
                if is_test_attr && sk < sig.len() {
                    // skip any further attribute groups, then find the body
                    let start_line = t.line;
                    let mut sm = sk + 1;
                    while sig.get(sm).map(|&i| tokens[i].text.as_str()) == Some("#") {
                        // skip this whole attribute group
                        let mut depth = 0usize;
                        let mut sn = sm + 1;
                        if sig.get(sn).map(|&i| tokens[i].text.as_str()) == Some("!") {
                            sn += 1;
                        }
                        while sn < sig.len() {
                            let tn = &tokens[sig[sn]];
                            match tn.text.as_str() {
                                "[" if tn.kind == TokKind::Punct => depth += 1,
                                "]" if tn.kind == TokKind::Punct => {
                                    depth -= 1;
                                    if depth == 0 {
                                        break;
                                    }
                                }
                                _ => {}
                            }
                            sn += 1;
                        }
                        sm = sn + 1;
                    }
                    // walk to first `{` or `;` at depth 0
                    let mut brace = 0i64;
                    let mut end_line = start_line + 1;
                    let mut entered = false;
                    while sm < sig.len() {
                        let tm = &tokens[sig[sm]];
                        if tm.kind == TokKind::Punct {
                            match tm.text.as_str() {
                                "{" => {
                                    brace += 1;
                                    entered = true;
                                }
                                "}" => {
                                    brace -= 1;
                                    if entered && brace == 0 {
                                        end_line = tm.line + 1;
                                        break;
                                    }
                                }
                                ";" if !entered => {
                                    end_line = tm.line + 1;
                                    break;
                                }
                                _ => {}
                            }
                        }
                        sm += 1;
                    }
                    if sm >= sig.len() {
                        end_line = tokens.last().map(|t| t.line + 1).unwrap_or(end_line);
                    }
                    regions.push((start_line, end_line));
                    si = sm + 1;
                    continue;
                }
            }
        }
        si += 1;
    }
    regions
}

/// Run every applicable rule over one file's source text. Suppressions
/// are applied centrally so individual rules never need to know about
/// the directive syntax.
pub fn analyze_source(rel: &str, text: &str, rules: &[Box<dyn Rule>]) -> Vec<Diagnostic> {
    let applicable: Vec<&Box<dyn Rule>> = rules.iter().filter(|r| r.applies(rel)).collect();
    if applicable.is_empty() {
        return Vec::new();
    }
    let file = SourceFile::parse(rel, text);
    let mut out = Vec::new();
    for rule in applicable {
        rule.check(&file, &mut out);
    }
    out.retain(|d| !file.is_suppressed(&d.rule, d.line));
    out
}

/// Walk the repository tree under `root` and run the full default rule
/// set over every `.rs` file in `src/`, `crates/`, `tests/`, and
/// `examples/`. Diagnostics come back sorted by `(file, line, rule)`.
///
/// Skipped: any directory named `target`, and the lint-engine fixture
/// corpus under `crates/analyze/fixtures` (those files contain seeded
/// violations on purpose).
pub fn analyze_tree(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let rules = rules::default_rules();
    let mut files: Vec<PathBuf> = Vec::new();
    let mut found_any_root = false;
    for sub in ["src", "crates", "tests", "examples"] {
        let dir = root.join(sub);
        if dir.is_dir() {
            found_any_root = true;
            collect_rs_files(&dir, &mut files)?;
        }
    }
    if !found_any_root {
        return Err(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!(
                "no src/, crates/, tests/, or examples/ under {}",
                root.display()
            ),
        ));
    }
    files.sort();
    let mut out = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        if rel.starts_with("crates/analyze/fixtures") {
            continue;
        }
        let text = std::fs::read_to_string(path)?;
        out.extend(analyze_source(&rel, &text, &rules));
    }
    out.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule.as_str()).cmp(&(b.file.as_str(), b.line, b.rule.as_str()))
    });
    Ok(out)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppression_covers_own_and_next_line() {
        let src = "// sc-analyze: allow(panic-surface)\nlet x = y.unwrap();\nlet z = w.unwrap();\n";
        let file = SourceFile::parse("crates/core/src/x.rs", src);
        assert!(file.is_suppressed("panic-surface", 1));
        assert!(file.is_suppressed("panic-surface", 2));
        assert!(!file.is_suppressed("panic-surface", 3));
        assert!(!file.is_suppressed("float-eq", 2));
    }

    #[test]
    fn trailing_suppression_with_multiple_rules() {
        let src = "let x = a == 0.5; // sc-analyze: allow(float-eq, unit-discipline)\n";
        let file = SourceFile::parse("src/x.rs", src);
        assert!(file.is_suppressed("float-eq", 1));
        assert!(file.is_suppressed("unit-discipline", 1));
        assert!(!file.is_suppressed("panic-surface", 1));
    }

    #[test]
    fn test_regions_cover_test_fn_and_cfg_test_mod() {
        let src = "\
pub fn library() {}           // line 1

#[test]
fn unit() {
    let x = opt.unwrap();
}                             // line 6

pub fn more_library() {}      // line 8

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn inner() {}
}                             // line 15
";
        let file = SourceFile::parse("crates/core/src/x.rs", src);
        assert!(!file.in_test_region(1));
        assert!(file.in_test_region(4));
        assert!(file.in_test_region(5));
        assert!(!file.in_test_region(8));
        assert!(file.in_test_region(12));
        assert!(file.in_test_region(14));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(not(test))]\nfn shipped() { x.unwrap(); }\n";
        let file = SourceFile::parse("crates/core/src/x.rs", src);
        assert!(!file.in_test_region(2));
    }
}
