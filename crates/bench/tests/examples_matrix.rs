//! The example names live in one place, `examples/`: the workflow's
//! `examples` matrix must list exactly those files, and the `ci` bin must
//! read the same list (it names it when rejecting an unknown example).

use std::path::PathBuf;
use std::process::Command;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The stems of `examples/*.rs`, sorted.
fn example_files() -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(repo_root().join("examples"))
        .expect("list examples/")
        .map(|e| e.expect("read examples/ entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// The `example: [..]` list of the workflow's `examples` matrix, sorted.
fn workflow_matrix() -> Vec<String> {
    let yml = std::fs::read_to_string(repo_root().join(".github/workflows/ci.yml"))
        .expect("read .github/workflows/ci.yml");
    let line = yml
        .lines()
        .find_map(|l| l.trim().strip_prefix("example: ["))
        .expect("the workflow has an `example: [..]` matrix");
    let list = line.strip_suffix(']').expect("one-line matrix list");
    let mut names: Vec<String> = list.split(',').map(|s| s.trim().to_string()).collect();
    names.sort();
    names
}

#[test]
fn workflow_matrix_lists_every_example() {
    let files = example_files();
    assert!(!files.is_empty(), "examples/ holds the facade's examples");
    assert_eq!(
        workflow_matrix(),
        files,
        "the workflow's examples matrix and examples/ disagree"
    );
}

#[test]
fn ci_bin_reads_the_examples_directory() {
    let out = Command::new(env!("CARGO_BIN_EXE_ci"))
        .args(["--only-example", "no_such_example"])
        .output()
        .expect("spawn the ci bin");
    assert_eq!(
        out.status.code(),
        Some(2),
        "an unknown example is a usage error"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("examples: {:?}", example_files())),
        "ci must name the examples/ list, got: {stderr}"
    );
}
