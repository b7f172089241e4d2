//! Running one workload in this process, and running all of them, each in a
//! child process of its own.

use crate::json::Json;
use crate::ledger;
use crate::metric::{END_TO_END, PER_LAYER};
use crate::provenance;
use crate::report::{contract_line, print_table, record};
use crate::timed::{run_serve, run_solver};
use crate::workloads::{ServeCase, SolverCase, Workload, WORKLOADS};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// Worker threads the library may use while it is measured: one, whatever
/// the machine has. The library's parallel sections spawn scoped threads up
/// to `nproc`, and a benchmark that keeps every core of a shared host busy
/// measures whoever else needs a core at that moment: on the two-vCPU
/// sandbox ten runs of one commit then spread by 14-17% beside a neighbour
/// that is busy half the time, and by 2-6% on one thread. Every parallel
/// section is entered from the calling thread, so capping that thread caps
/// them all. Iteration counts and every `sim`/`count` value are the same as
/// on two threads.
pub const LIBRARY_THREADS: usize = 1;

/// Command-line options shared by the single-workload and `run` modes.
#[derive(Clone, Debug)]
pub struct Options {
    pub seed: u64,
    /// How long the timed run measures.
    pub seconds: f64,
    pub trace: bool,
    /// Reduced sizes and two reps, for the smoke test.
    pub smoke: bool,
    pub allow_dirty: bool,
    /// Where records and traces are written.
    pub out: PathBuf,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            seed: 1,
            // BENCHMARK.json `run_seconds`
            seconds: 28.0,
            trace: false,
            smoke: false,
            allow_dirty: false,
            out: PathBuf::from("benchmark/out"),
        }
    }
}

fn write_file(path: &std::path::Path, text: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

/// Run one workload in this process: the timed run (`--trace 0`, end-to-end
/// metrics) or the traced run (`--trace 1`, per-layer metrics and
/// `trace-<workload>.json`). Prints the metric table, writes the record,
/// and ends with the contract's one-line result. Exits non-zero when any
/// operation failed its correctness check.
pub fn run_workload(workload: Workload, opts: &Options) -> ExitCode {
    rayon::with_max_threads(LIBRARY_THREADS, || run_workload_capped(workload, opts))
}

fn run_workload_capped(workload: Workload, opts: &Options) -> ExitCode {
    let min_reps = if opts.smoke { 2 } else { 3 };
    let (outcome, decls, mode) = if opts.trace {
        let (outcome, trace) = ledger::traced_run(workload, opts.seed, opts.smoke);
        let path = opts.out.join(format!("trace-{}.json", workload.name()));
        if let Err(e) = write_file(&path, &trace.to_line()) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        (outcome, PER_LAYER, "traced")
    } else {
        let outcome = match workload {
            Workload::ServeMix => run_serve(
                &ServeCase::generate(opts.smoke),
                opts.seed,
                opts.seconds,
                min_reps,
            ),
            _ => run_solver(
                &SolverCase::generate(workload, opts.seed, opts.smoke),
                opts.seconds,
                min_reps,
            ),
        };
        (outcome, END_TO_END, "timed")
    };
    print_table(workload.name(), &outcome, decls);
    let rec = record(workload.name(), opts.seed, mode, &outcome, decls);
    let path = opts.out.join(format!("{}.{mode}.json", workload.name()));
    if let Err(e) = write_file(&path, &rec.to_pretty()) {
        eprintln!("cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("{}", contract_line(&outcome, decls));
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run `--trace <trace>` of `workload` in a child process of its own, so
/// its peak memory is its own and a crash costs one workload, not the run.
/// Returns the record the child wrote, or a stand-in marking every
/// operation failed when it died without one.
fn run_child(workload: Workload, opts: &Options, trace: bool) -> Json {
    let mode = if trace { "traced" } else { "timed" };
    let record_path = opts.out.join(format!("{}.{mode}.json", workload.name()));
    // a record left by an earlier run must not be mistaken for this one's
    let _ = std::fs::remove_file(&record_path);
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&opts.out);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let status = cmd.status();
    let record = std::fs::read_to_string(&record_path)
        .ok()
        .and_then(|text| Json::parse(&text).ok());
    record.unwrap_or_else(|| {
        let how = status.map_or_else(|e| e.to_string(), |s| s.to_string());
        eprintln!("{} ({mode}) ended without a record: {how}", workload.name());
        Json::obj([
            ("workload", Json::str(workload.name())),
            ("mode", Json::str(mode)),
            ("correct", Json::Bool(false)),
            ("ops_attempted", Json::Num(1.0)),
            ("ops_failed", Json::Num(1.0)),
            ("failed_share", Json::Num(1.0)),
            ("metrics", Json::obj::<String>([])),
            (
                "notes",
                Json::Arr(vec![Json::str(format!("child process: {how}"))]),
            ),
        ])
    })
}

/// Concatenate the per-workload traces into one Chrome trace, giving each
/// workload its own pair of process ids (host, simulated).
fn merge_traces(out: &std::path::Path) -> Json {
    let mut events = Vec::new();
    for (index, (_, name, _)) in WORKLOADS.iter().enumerate() {
        let path = out.join(format!("trace-{name}.json"));
        let Some(doc) = std::fs::read_to_string(&path)
            .ok()
            .and_then(|text| Json::parse(&text).ok())
        else {
            continue;
        };
        let Some(Json::Arr(items)) = doc.get("traceEvents").cloned() else {
            continue;
        };
        for item in items {
            let Json::Obj(fields) = item else { continue };
            events.push(Json::Obj(
                fields
                    .into_iter()
                    .map(|(k, v)| match (k.as_str(), v.as_f64()) {
                        ("pid", Some(pid)) => (k, Json::Num(10.0 * index as f64 + pid)),
                        _ => (k, v),
                    })
                    .collect(),
            ));
        }
    }
    Json::obj([
        ("displayTimeUnit", Json::str("ms")),
        ("traceEvents", Json::Arr(events)),
    ])
}

/// The one command: every workload's timed run, then every workload's
/// traced run, each in its own child process; `results.json` and
/// `trace.json` in the output directory. Exits non-zero when any operation
/// failed its correctness check.
pub fn run_all(opts: &Options) -> ExitCode {
    let stamp = match provenance::stamp(opts.seed, opts.seconds, opts.smoke, opts.allow_dirty) {
        Ok(stamp) => stamp,
        Err(why) => {
            eprintln!("refusing to run: {why}");
            return ExitCode::from(2);
        }
    };
    let timed: Vec<Json> = WORKLOADS
        .iter()
        .map(|w| run_child(w.0, opts, false))
        .collect();
    let traced: Vec<Json> = WORKLOADS
        .iter()
        .map(|w| run_child(w.0, opts, true))
        .collect();
    let correct = timed
        .iter()
        .chain(&traced)
        .all(|r| r.get("correct").and_then(Json::as_bool) == Some(true));
    let workloads = WORKLOADS
        .iter()
        .zip(timed.into_iter().zip(traced))
        .map(|((_, name, why), (timed, traced))| {
            Json::obj([
                ("name", Json::str(*name)),
                ("why", Json::str(*why)),
                ("timed", timed),
                ("traced", traced),
            ])
        })
        .collect();
    let results = Json::obj([
        ("provenance", stamp),
        ("correct", Json::Bool(correct)),
        ("workloads", Json::Arr(workloads)),
    ]);
    let written = write_file(&opts.out.join("results.json"), &results.to_pretty()).and_then(|()| {
        write_file(
            &opts.out.join("trace.json"),
            &merge_traces(&opts.out).to_line(),
        )
    });
    if let Err(e) = written {
        eprintln!("cannot write results under {}: {e}", opts.out.display());
        return ExitCode::FAILURE;
    }
    println!(
        "wrote {} and {}",
        opts.out.join("results.json").display(),
        opts.out.join("trace.json").display()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("at least one operation failed its correctness check");
        ExitCode::FAILURE
    }
}
