//! Runs every workload at `--smoke` size through the one command and checks
//! the outputs against `BENCHMARK.json`: every declared metric exactly once
//! per workload with a finite value or an explicit `null`, no failed
//! operation, and a trace whose every span has its parent.

use feti_benchmark::json::Json;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

fn manifest() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of each entry of a `BENCHMARK.json` metric list.
fn declared(manifest: &Json, list: &str) -> Vec<(String, String)> {
    manifest
        .get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Every declared metric appears exactly once with the declared unit and a
/// finite value or `null`; nothing undeclared appears.
fn check_metrics(record: &Json, declared: &[(String, String)], context: &str) {
    let metrics = record
        .get("metrics")
        .and_then(Json::as_obj)
        .unwrap_or_else(|| panic!("{context}: no metrics object"));
    for (name, unit) in declared {
        assert!(well_formed(name), "{context}: bad metric name {name:?}");
        let hits: Vec<&Json> = metrics
            .iter()
            .filter(|(k, _)| k == name)
            .map(|(_, v)| v)
            .collect();
        assert_eq!(
            hits.len(),
            1,
            "{context}: {name} appears {} times",
            hits.len()
        );
        assert_eq!(
            hits[0].get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{context}: {name} unit"
        );
        match hits[0].get("value") {
            Some(Json::Null) => {}
            Some(Json::Num(v)) => assert!(v.is_finite(), "{context}: {name} = {v}"),
            other => panic!("{context}: {name} has value {other:?}"),
        }
        let clock = hits[0].get("clock").and_then(Json::as_str);
        assert!(
            matches!(clock, Some("host" | "sim" | "count")),
            "{context}: {name} clock {clock:?}"
        );
    }
    assert_eq!(
        metrics.len(),
        declared.len(),
        "{context}: undeclared metrics present"
    );
    assert_eq!(
        record.get("failed_share").and_then(Json::as_f64),
        Some(0.0),
        "{context}: failed operations"
    );
}

fn out_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn smoke_run_reports_every_declared_metric_and_a_sound_trace() {
    let manifest = manifest();
    let out = out_dir("smoke-run");
    let status = Command::new(env!("CARGO_BIN_EXE_feti_benchmark"))
        .args([
            "run",
            "--smoke",
            "--allow-dirty",
            "--seed",
            "1",
            "--seconds",
            "0.2",
            "--out",
        ])
        .arg(&out)
        .status()
        .expect("the benchmark binary starts");
    assert!(status.success(), "run --smoke exited with {status}");

    let results = Json::parse(&std::fs::read_to_string(out.join("results.json")).unwrap()).unwrap();
    let provenance = results.get("provenance").expect("provenance stamp");
    for key in [
        "schema",
        "commit",
        "tree",
        "seed",
        "nproc",
        "threads_used",
        "cpu_model",
        "llc_bytes",
        "rustc",
        "rustflags",
    ] {
        assert!(provenance.get(key).is_some(), "provenance lacks {key}");
    }
    let end_to_end = declared(&manifest, "end_to_end");
    let per_layer = declared(&manifest, "per_layer");
    let workloads = results.get("workloads").and_then(Json::as_arr).unwrap();
    let declared_workloads = manifest.get("workloads").and_then(Json::as_arr).unwrap();
    assert_eq!(workloads.len(), declared_workloads.len());
    for decl in declared_workloads {
        let name = decl.get("name").and_then(Json::as_str).unwrap();
        assert!(well_formed(name));
        let found: Vec<&Json> = workloads
            .iter()
            .filter(|w| w.get("name").and_then(Json::as_str) == Some(name))
            .collect();
        assert_eq!(
            found.len(),
            1,
            "workload {name} appears {} times",
            found.len()
        );
        check_metrics(
            found[0].get("timed").unwrap(),
            &end_to_end,
            &format!("{name}/timed"),
        );
        check_metrics(
            found[0].get("traced").unwrap(),
            &per_layer,
            &format!("{name}/traced"),
        );
        let overhead = found[0]
            .get("traced")
            .and_then(|t| t.get("metrics"))
            .and_then(|m| m.get("trace.overhead_share"));
        assert!(
            overhead.is_some(),
            "{name}: trace.overhead_share not reported"
        );
    }

    // trace.json: Chrome trace events; within each process every span's
    // parent id names a span of the same process
    let trace = Json::parse(&std::fs::read_to_string(out.join("trace.json")).unwrap()).unwrap();
    let events = trace.get("traceEvents").and_then(Json::as_arr).unwrap();
    let id_of = |e: &Json, key: &str| {
        let pid = e.get("pid")?.as_f64()? as u64;
        let id = e.get("args")?.get(key)?.as_f64()? as u64;
        Some((pid, id))
    };
    let spans: BTreeSet<(u64, u64)> = events.iter().filter_map(|e| id_of(e, "span_id")).collect();
    assert!(
        spans.len() > 100,
        "only {} host spans recorded",
        spans.len()
    );
    for e in events {
        if let Some(parent) = id_of(e, "parent_id") {
            assert!(
                spans.contains(&parent),
                "span {:?} has no parent {parent:?}",
                e.get("name")
            );
        }
    }
    let sim_events = events
        .iter()
        .filter(|e| e.get("cat").and_then(Json::as_str) == Some("sim"))
        .count();
    assert!(sim_events > 0, "the replayed device timeline is missing");

    // the same files compare as identical to themselves
    let compare = Command::new(env!("CARGO_BIN_EXE_feti_benchmark"))
        .arg("compare")
        .arg(out.join("results.json"))
        .arg(out.join("results.json"))
        .status()
        .unwrap();
    assert!(compare.success());
}

#[test]
fn single_workload_mode_ends_with_the_contract_line() {
    let manifest = manifest();
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let output = Command::new(env!("CARGO_BIN_EXE_feti_benchmark"))
            .args([
                "--workload",
                "hybrid2d_cluster",
                "--seed",
                "7",
                "--seconds",
                "0.2",
                "--trace",
                trace,
                "--smoke",
                "--out",
            ])
            .arg(out_dir(&format!("smoke-single-{trace}")))
            .output()
            .unwrap();
        assert!(output.status.success());
        let stdout = String::from_utf8(output.stdout).unwrap();
        let last = Json::parse(stdout.lines().last().unwrap()).expect("last line is JSON");
        let keys: Vec<&str> = last
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(last.get("correct"), Some(&Json::Bool(true)));
        assert!(last.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        let metrics = last.get("metrics").and_then(Json::as_obj).unwrap();
        let want = declared(&manifest, list);
        assert_eq!(metrics.len(), want.len());
        for ((name, unit), (got, value)) in want.iter().zip(metrics) {
            assert_eq!(name, got);
            assert_eq!(
                value.get("unit").and_then(Json::as_str),
                Some(unit.as_str())
            );
            assert!(value
                .get("value")
                .and_then(Json::as_f64)
                .is_some_and(f64::is_finite));
        }
    }
}

#[test]
fn a_dirty_or_unversioned_tree_is_refused_without_the_flag() {
    // the test runs from a tree with uncommitted files or none at all only
    // sometimes; what must always hold is that the flag is what permits it
    let status = Command::new(env!("CARGO_BIN_EXE_feti_benchmark"))
        .args(["run", "--smoke", "--seconds", "0.2", "--out"])
        .arg(out_dir("smoke-refusal"))
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .env("GIT_DIR", "/nonexistent")
        .status()
        .unwrap();
    assert_eq!(
        status.code(),
        Some(2),
        "an unversioned tree must be refused"
    );
}
