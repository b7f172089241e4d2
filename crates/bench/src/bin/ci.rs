//! Local CI parity: run the exact build/test/clippy/fmt/doc sequence the
//! GitHub workflow runs, in one command, so contributors reproduce CI
//! without guessing which flags the workflow passes. Every workflow step
//! past the toolchain set-up calls this same bin, one stage each (`fmt`,
//! `clippy`, `analyze`, `build`, `test`, `doc`, `examples`, `benchmark`,
//! `paper`), which is what keeps the two from drifting: the commands, their
//! flags (`-D warnings`, `RUSTDOCFLAGS`) and the portable-kernel package
//! list live only here.
//!
//! Usage:
//!   cargo run -p sc_bench --bin ci                    # everything
//!   cargo run -p sc_bench --bin ci -- --stage paper   # just the sweep smoke
//!
//! The `analyze` stage runs the `sc_analyze` lint engine over the tree
//! (panic-surface, float-eq, precision-discipline, unit-discipline,
//! pub-doc, file-length). The `benchmark` stage runs the tests of the stand-alone
//! `benchmark/` package against the workspace's current library API, so a
//! removal that breaks the performance instrument fails here rather than
//! at its next run. The `paper` stage runs every figure sweep of the
//! `paper` bin at its smallest size — a build-and-run smoke; the sweeps
//! return no verdict — then the cluster-level figures (8–10) a second time
//! into another results directory, and fails unless every `*_sim.csv` of
//! the second run is byte-identical to the first run's: the simulated clock
//! must not depend on the run.
//!
//! Nothing here measures performance or gates on it: verdicts are
//! `cargo test` (the `test` stage), measurements are `benchmark/`.

use std::path::Path;
use std::process::Command;

const STAGES: &[&str] = &[
    "fmt",
    "clippy",
    "analyze",
    "build",
    "test",
    "doc",
    "examples",
    "benchmark",
    "paper",
];

/// Every example of the facade crate — the stems of `examples/*.rs`,
/// sorted — built and run by the `examples` stage (the workflow's examples
/// matrix leg drives one each; `crates/bench/tests/examples_matrix.rs`
/// keeps that matrix equal to this list).
fn examples() -> Vec<String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples");
    let entries = std::fs::read_dir(&dir).unwrap_or_else(|e| {
        eprintln!("ci: cannot list {}: {e}", dir.display());
        std::process::exit(1);
    });
    let mut names: Vec<String> = entries
        .filter_map(|e| {
            let path = e.ok()?.path();
            let stem = path.file_stem()?.to_str()?;
            (path.extension()? == "rs").then(|| stem.to_string())
        })
        .collect();
    names.sort();
    names
}

struct Args {
    stage: String,
    only_example: Option<String>,
}

/// Print the usage string and exit 2 (usage error).
fn usage() -> ! {
    eprintln!(
        "usage: ci [--stage <all|{}>] [--only-example <{}>]",
        STAGES.join("|"),
        examples().join("|"),
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
        only_example: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--stage" => args.stage = operand(&mut it, "--stage", "a stage name"),
            "--only-example" => {
                args.only_example = Some(operand(&mut it, "--only-example", "an example name"))
            }
            other => {
                eprintln!("ci: unknown argument `{other}`");
                usage();
            }
        }
    }
    if args.stage != "all" && !STAGES.contains(&args.stage.as_str()) {
        eprintln!("unknown stage '{}' — stages: all, {STAGES:?}", args.stage);
        std::process::exit(2);
    }
    if let Some(ex) = &args.only_example {
        let examples = examples();
        if !examples.contains(ex) {
            eprintln!("unknown example '{ex}' — examples: {examples:?}");
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
        // `.cargo/config.toml` builds for the host CPU, so an AVX-512 machine
        // never compiles sc_dense's portable microkernel and SYMV tile: test
        // them by name, with sc_factor, whose fronts are the main consumer of
        // both partial_cholesky_in_place routes, and sc_feti, whose
        // dense-oracle and hybrid-bitwise tests apply every slot with symv;
        // sc_sparse for the chunked dot of its supernodal backward sweep
        // (reduction order defined, not left to the vector width); sc_core,
        // whose dense-oracle tests drive the stepped SYRK blocks narrower
        // than 128 that syrk_t sends to the nest from order MR; sc_serve,
        // whose warm == cold bitwise tests apply the cached Gᵢ slots
        let mut portable = cargo(&[
            "test",
            "-q",
            "-p",
            "sc_dense",
            "-p",
            "sc_sparse",
            "-p",
            "sc_factor",
            "-p",
            "sc_feti",
            "-p",
            "sc_core",
            "-p",
            "sc_serve",
        ]);
        portable.env("RUSTFLAGS", "-C target-cpu=x86-64-v2");
        step("test:portable-microkernel", portable);
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
        let examples = match &args.only_example {
            Some(ex) => vec![ex.clone()],
            None => examples(),
        };
        for ex in examples {
            step(
                &format!("examples:run:{ex}"),
                cargo(&["run", "--release", "--example", &ex]),
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
    if run("paper") {
        // each run writes `results/` below its own working directory
        let runs = [
            ("target/paper_ci/all", &["all"][..]),
            ("target/paper_ci/again", &["fig8", "fig9", "fig10"][..]),
        ];
        for (dir, figures) in runs {
            let _ = std::fs::remove_dir_all(dir);
            std::fs::create_dir_all(dir).expect("create the run's working directory");
            let mut paper = cargo(&["run", "--release", "-p", "sc_bench", "--bin", "paper", "--"]);
            paper
                .args(figures)
                .args(["--max-dofs", "400"])
                .current_dir(dir);
            step(&format!("paper:{}", figures.join("+")), paper);
        }
        // the host-clock tables are wall measurements and only have to exist
        // in both runs; the sim-clock ones must not differ by a byte
        let [first, again] = runs.map(|(dir, _)| std::path::Path::new(dir).join("results"));
        let mut compared = 0;
        for entry in std::fs::read_dir(&again).expect("the second run wrote results/") {
            let name = entry.expect("readable results/ entry").file_name();
            let twin = std::fs::read(first.join(&name)).ok();
            let is_sim = name.to_string_lossy().ends_with("_sim.csv");
            compared += usize::from(is_sim);
            if twin.is_none() || (is_sim && twin != std::fs::read(again.join(&name)).ok()) {
                eprintln!("FAIL [paper]: {name:?} is missing from, or differs in, the first run");
                std::process::exit(1);
            }
        }
        if compared == 0 {
            eprintln!("FAIL [paper]: the second run wrote no *_sim.csv");
            std::process::exit(1);
        }
        println!("paper: {compared} *_sim.csv byte-identical across two runs");
    }
    println!("\nci: all requested stages passed");
}
