//! Command line of the benchmark.
//!
//! ```text
//! feti_benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                [--smoke] [--out <dir>]        one workload, in-process
//! feti_benchmark run [--seed <n>] [--seconds <s>] [--out <dir>] [--smoke]
//!                [--allow-dirty]                all workloads, one child each
//! feti_benchmark compare <a.json> <b.json>     judge two results files
//! ```

#![deny(deprecated)]

use feti_benchmark::run::{run_all, run_workload, Options};
use feti_benchmark::workloads::{Workload, WORKLOADS};
use std::process::ExitCode;

fn usage() -> ExitCode {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.1).collect();
    eprintln!(
        "usage: feti_benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out <dir>]\n\
         \x20      feti_benchmark run [--seed <n>] [--seconds <s>] [--out <dir>] [--smoke] [--allow-dirty]\n\
         \x20      feti_benchmark compare <a.json> <b.json>",
        names.join("|")
    );
    ExitCode::from(2)
}

/// Parse `--key value` pairs and bare flags after the optional subcommand.
fn parse(args: &[String]) -> Option<(Options, Option<Workload>)> {
    let mut opts = Options::default();
    let mut workload = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => opts.smoke = true,
            "--allow-dirty" => opts.allow_dirty = true,
            "--workload" => workload = Some(Workload::from_name(it.next()?)?),
            "--seed" => opts.seed = it.next()?.parse().ok()?,
            "--seconds" => {
                opts.seconds = it.next()?.parse().ok().filter(|s: &f64| *s > 0.0)?;
            }
            "--trace" => {
                opts.trace = match it.next()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            "--out" => opts.out = it.next()?.into(),
            _ => return None,
        }
    }
    Some((opts, workload))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => match args.as_slice() {
            [_, a, b] => feti_benchmark::compare::compare_files(a, b),
            _ => usage(),
        },
        Some("run") => match parse(&args[1..]) {
            Some((opts, None)) => run_all(&opts),
            _ => usage(),
        },
        _ => match parse(&args) {
            Some((opts, Some(workload))) => run_workload(workload, &opts),
            _ => usage(),
        },
    }
}
