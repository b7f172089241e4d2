//! Pin the lint engine against the committed fixture corpus: each rule
//! must fire on its seeded violations at the exact line, and the
//! suppressed / lexer-stress fixtures must come back clean.

use sc_analyze::analyze_source;
use sc_analyze::rules::{default_rules, FileLength, Rule};

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()))
}

/// Run the default rule set over a fixture under a synthetic
/// repository-relative path (which controls rule scoping).
fn findings(name: &str, rel: &str) -> Vec<(u32, String)> {
    analyze_source(rel, &fixture(name), &default_rules())
        .into_iter()
        .map(|d| (d.line, d.rule))
        .collect()
}

#[test]
fn panic_surface_fixture_fires_at_seeded_lines() {
    let got = findings("panic_surface.rs", "crates/sparse/src/fixture.rs");
    let want = vec![
        (5, "panic-surface".to_string()),
        (9, "panic-surface".to_string()),
        (14, "panic-surface".to_string()),
        (19, "panic-surface".to_string()),
    ];
    assert_eq!(got, want, "panic-surface findings mismatch");
}

#[test]
fn float_eq_fixture_fires_at_seeded_lines() {
    let got = findings("float_eq.rs", "crates/fem/src/fixture.rs");
    let float_lines: Vec<u32> = got
        .iter()
        .filter(|(_, r)| r == "float-eq")
        .map(|(l, _)| *l)
        .collect();
    assert_eq!(float_lines, vec![4, 8, 12], "float-eq findings mismatch");
}

#[test]
fn unit_discipline_fixture_fires_at_seeded_lines() {
    let got = findings("unit_discipline.rs", "crates/core/src/fixture.rs");
    let unit_lines: Vec<u32> = got
        .iter()
        .filter(|(_, r)| r == "unit-discipline")
        .map(|(l, _)| *l)
        .collect();
    assert_eq!(unit_lines, vec![4, 8], "unit-discipline findings mismatch");
}

#[test]
fn pub_doc_fixture_fires_at_seeded_lines() {
    let got = findings("pub_doc.rs", "crates/core/src/fixture.rs");
    let doc_lines: Vec<u32> = got
        .iter()
        .filter(|(_, r)| r == "pub-doc")
        .map(|(l, _)| *l)
        .collect();
    assert_eq!(doc_lines, vec![3, 5], "pub-doc findings mismatch");
    // outside the documented crates (core/gpusim/dense/feti) the rule
    // does not apply
    assert!(findings("pub_doc.rs", "crates/sparse/src/fixture.rs")
        .iter()
        .all(|(_, r)| r != "pub-doc"));
}

#[test]
fn precision_discipline_fixture_fires_at_seeded_lines() {
    let got = findings("precision_discipline.rs", "crates/sparse/src/fixture.rs");
    let precision_lines: Vec<u32> = got
        .iter()
        .filter(|(_, r)| r == "precision-discipline")
        .map(|(l, _)| *l)
        .collect();
    assert_eq!(
        precision_lines,
        vec![4, 8, 12],
        "precision-discipline findings mismatch"
    );
    // the Scalar impl module is the sanctioned cast site
    assert!(
        findings("precision_discipline.rs", "crates/dense/src/scalar.rs")
            .iter()
            .all(|(_, r)| r != "precision-discipline")
    );
    // non-library paths (tests, benches, shims) are out of scope
    assert!(
        findings("precision_discipline.rs", "tests/integration.rs").is_empty(),
        "integration tests are not library sources"
    );
}

#[test]
fn file_length_fixture_counts_non_test_lines_only() {
    const REL: &str = "crates/sparse/src/fixture.rs";
    let run = |rel: &str, limit: u32, ceilings: &'static [(&'static str, u32)]| {
        let rules: Vec<Box<dyn Rule>> = vec![Box::new(FileLength { limit, ceilings })];
        analyze_source(rel, &fixture("file_length.rs"), &rules)
            .into_iter()
            .map(|d| (d.line, d.rule))
            .collect::<Vec<_>>()
    };
    // hit: six non-test lines against a limit of five, reported at the
    // first line past the limit
    assert_eq!(run(REL, 5, &[]), vec![(6, "file-length".to_string())]);
    // miss: the seven lines of the test module are not counted
    assert!(run(REL, 6, &[]).is_empty());
    // a listed offender is held to its own ceiling, not the limit
    assert!(run(REL, 5, &[(REL, 6)]).is_empty());
    assert_eq!(run(REL, 800, &[(REL, 5)]).len(), 1);
    // only library sources are capped
    assert!(run("tests/integration.rs", 5, &[]).is_empty());
}

#[test]
fn suppressed_fixture_is_clean() {
    // analyzed outside core/gpusim so pub-doc (which the fixture does
    // not exercise) stays out of the way
    let got = findings("suppressed.rs", "crates/sparse/src/fixture.rs");
    assert!(got.is_empty(), "suppressions ignored: {got:?}");
}

#[test]
fn tricky_lexer_fixture_is_clean() {
    let got = findings("tricky_lexer.rs", "crates/sparse/src/fixture.rs");
    assert!(
        got.is_empty(),
        "lexer misread strings/comments as code: {got:?}"
    );
}
