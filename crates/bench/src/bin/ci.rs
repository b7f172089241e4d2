//! Local CI parity: run the exact build/test/clippy/fmt/doc/perf-gate
//! sequence the GitHub workflow runs, in one command, so contributors
//! reproduce CI without guessing which flags the workflow passes. The
//! workflow's perf-gate job calls this same bin (`--stage perf-gate
//! --only <bin>`), which is what keeps the two from drifting.
//!
//! Usage:
//!   cargo run -p sc_bench --bin ci                      # everything
//!   cargo run -p sc_bench --bin ci -- --stage perf-gate # just the bench gates
//!   cargo run -p sc_bench --bin ci -- --stage perf-gate --only hybrid
//!
//! The perf-gate stage runs every `sc_bench` bin with `--json`, writing the
//! per-bin records under `--out` (default `target/bench-json`); a full
//! (non-`--only`) perf-gate run additionally merges them into
//! `results/bench.json`, the committed machine-readable bench trajectory.
//!
//! The `analyze` stage runs the `sc_analyze` lint engine over the tree
//! (panic-surface, float-eq, precision-discipline, unit-discipline,
//! pub-doc). The `benchmark` stage runs the tests of the stand-alone
//! `benchmark/` package against the workspace's current library API, so a
//! removal that breaks the performance instrument fails here rather than
//! at its next run. The `trace-audit` stage
//! replays the bench workloads and statically checks the recorded kernel
//! traces for memory and ordering hazards; `--only <bin>` narrows it to
//! one workload, matching the perf-gate matrix legs.
//!
//! Scope note: the **hard** perf gates (the bins' exit codes) and the
//! record emission run identically here and in CI. The *warn-only* drift
//! diff against the committed `results/bench.json` currently lives only in
//! the workflow (a tolerant numeric comparison needs a JSON parser, which
//! this offline crate deliberately does not carry) — locally, regenerate
//! and `git diff results/bench.json` for the same signal.

use sc_bench::{git_describe, write_json, Json, BENCH_SCHEMA};
use std::path::PathBuf;
use std::process::Command;

/// The perf-gate bins, in run order. `headline` carries no exit gate of its
/// own (it reports paper-vs-measured ratios); the others exit non-zero when
/// their gates regress (`precision` gates the f32 arena high water and the
/// planner's extra explicit admissions; `multinode` gates the 4-node
/// weak-scaling efficiency; `kernels` gates the blocked-vs-scalar gemm
/// speedup and the calibrated cost model; `serve` gates the multi-tenant
/// service's warm-cache preprocessing throughput and its contended
/// scheduling fairness). The same names select the `trace-audit`
/// workloads.
const PERF_BINS: &[&str] = &[
    "headline",
    "schedule",
    "cluster",
    "hybrid",
    "precision",
    "multinode",
    "kernels",
    "serve",
];

const STAGES: &[&str] = &[
    "fmt",
    "clippy",
    "analyze",
    "build",
    "test",
    "doctest",
    "doc",
    "examples",
    "benchmark",
    "perf-gate",
    "trace-audit",
];

/// Every example of the facade crate, built and run by the `examples`
/// stage (the workflow's examples matrix leg drives one each).
const EXAMPLES: &[&str] = &[
    "quickstart",
    "heat2d_feti",
    "heat3d_gpu_assembly",
    "amortization",
    "tuning",
    "multinode",
    "serve",
];

struct Args {
    stage: String,
    only: Option<String>,
    only_example: Option<String>,
    out: PathBuf,
}

/// Print the usage string and exit 2 (usage error).
fn usage() -> ! {
    eprintln!(
        "usage: ci [--stage <all|{}>] [--only <{}>] [--only-example <{}>] [--out <dir>]",
        STAGES.join("|"),
        PERF_BINS.join("|"),
        EXAMPLES.join("|"),
    );
    std::process::exit(2);
}

/// Fetch the operand of `--<flag>` or exit 2 with the usage string —
/// a bare trailing flag is a usage error, not a panic.
fn operand(it: &mut impl Iterator<Item = String>, flag: &str, what: &str) -> String {
    match it.next() {
        Some(v) => v,
        None => {
            eprintln!("ci: `{flag}` requires {what}");
            usage();
        }
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        stage: "all".to_string(),
        only: None,
        only_example: None,
        out: PathBuf::from("target/bench-json"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--stage" => args.stage = operand(&mut it, "--stage", "a stage name"),
            "--only" => args.only = Some(operand(&mut it, "--only", "a bin name")),
            "--only-example" => {
                args.only_example = Some(operand(&mut it, "--only-example", "an example name"))
            }
            "--out" => args.out = operand(&mut it, "--out", "a directory path").into(),
            other => eprintln!("ignoring unknown argument {other}"),
        }
    }
    if args.stage != "all" && !STAGES.contains(&args.stage.as_str()) {
        eprintln!("unknown stage '{}' — stages: all, {STAGES:?}", args.stage);
        std::process::exit(2);
    }
    if let Some(only) = &args.only {
        if !PERF_BINS.contains(&only.as_str()) {
            eprintln!("unknown perf-gate bin '{only}' — bins: {PERF_BINS:?}");
            std::process::exit(2);
        }
    }
    if let Some(ex) = &args.only_example {
        if !EXAMPLES.contains(&ex.as_str()) {
            eprintln!("unknown example '{ex}' — examples: {EXAMPLES:?}");
            std::process::exit(2);
        }
    }
    args
}

/// Run one command with inherited stdio; exit the whole driver on failure
/// (mirroring a failing CI step).
fn step(name: &str, mut cmd: Command) {
    println!("\n== ci step: {name} ==");
    let status = cmd.status().unwrap_or_else(|e| {
        eprintln!("FAIL [{name}]: could not launch {cmd:?}: {e}");
        std::process::exit(1);
    });
    if !status.success() {
        eprintln!("FAIL [{name}]: exit {status}");
        std::process::exit(1);
    }
}

fn cargo(args: &[&str]) -> Command {
    let mut c = Command::new("cargo");
    c.args(args);
    c
}

fn main() {
    let args = parse_args();
    let run = |s: &str| args.stage == "all" || args.stage == s;

    // the same commands the workflow jobs run, in the same order
    if run("fmt") {
        step("fmt", cargo(&["fmt", "--all", "--check"]));
    }
    if run("clippy") {
        step(
            "clippy",
            cargo(&[
                "clippy",
                "--workspace",
                "--all-targets",
                "--",
                "-D",
                "warnings",
            ]),
        );
    }
    if run("analyze") {
        step("analyze", cargo(&["run", "--release", "-p", "sc_analyze"]));
    }
    if run("build") {
        step(
            "build",
            cargo(&["build", "--release", "--workspace", "--all-targets"]),
        );
    }
    if run("test") {
        step("test", cargo(&["test", "-q", "--workspace"]));
    }
    if run("doctest") {
        step("doctest", cargo(&["test", "-q", "--workspace", "--doc"]));
    }
    if run("doc") {
        let mut doc = cargo(&["doc", "--workspace", "--no-deps"]);
        doc.env("RUSTDOCFLAGS", "-D warnings");
        step("doc", doc);
    }
    if run("examples") {
        step(
            "examples:build",
            cargo(&["build", "--release", "--examples"]),
        );
        let examples: Vec<&str> = match &args.only_example {
            Some(ex) => vec![ex.as_str()],
            None => EXAMPLES.to_vec(),
        };
        for ex in examples {
            step(
                &format!("examples:run:{ex}"),
                cargo(&["run", "--release", "--example", ex]),
            );
        }
    }
    if run("benchmark") {
        step(
            "benchmark",
            cargo(&[
                "test",
                "--release",
                "--offline",
                "--manifest-path",
                "benchmark/Cargo.toml",
            ]),
        );
    }
    if run("perf-gate") {
        let bins: Vec<&str> = match &args.only {
            Some(only) => vec![only.as_str()],
            None => PERF_BINS.to_vec(),
        };
        for bin in &bins {
            let json = args.out.join(format!("{bin}.json"));
            step(
                &format!("perf-gate:{bin}"),
                cargo(&[
                    "run",
                    "--release",
                    "-p",
                    "sc_bench",
                    "--bin",
                    bin,
                    "--",
                    "--json",
                    json.to_str().expect("utf-8 path"),
                ]),
            );
        }
        // a full perf-gate run regenerates the committed trajectory file
        if args.only.is_none() {
            let mut bins_obj = Json::obj();
            for bin in PERF_BINS {
                let path = args.out.join(format!("{bin}.json"));
                let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                    eprintln!("FAIL [merge]: cannot read {}: {e}", path.display());
                    std::process::exit(1);
                });
                bins_obj = bins_obj.field(bin, Json::Raw(text));
            }
            let merged = Json::obj()
                .field("schema", BENCH_SCHEMA)
                .field("git", git_describe())
                .field("bins", bins_obj);
            let out = PathBuf::from("results/bench.json");
            if let Err(e) = write_json(&out, &merged) {
                eprintln!("FAIL [merge]: cannot write {}: {e}", out.display());
                std::process::exit(1);
            }
            println!("\nwrote {}", out.display());
        }
    }
    if run("trace-audit") {
        let mut cmd_args: Vec<&str> = vec![
            "run",
            "--release",
            "-p",
            "sc_bench",
            "--bin",
            "trace_audit",
            "--",
            "--out",
        ];
        let out = args.out.to_str().expect("utf-8 path").to_string();
        cmd_args.push(&out);
        if let Some(only) = &args.only {
            cmd_args.push("--only");
            cmd_args.push(only.as_str());
        }
        step("trace-audit", cargo(&cmd_args));
    }
    println!("\nci: all requested stages passed");
}
