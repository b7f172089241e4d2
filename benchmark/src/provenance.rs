//! Where a results file came from: commit, machine, compiler, seed.

use crate::json::Json;
use crate::report::SCHEMA_VERSION;
use std::process::Command;

fn command_stdout(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Size in bytes of the largest cache level of cpu0, from sysfs.
pub fn llc_bytes() -> Option<u64> {
    let dir = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
    dir.filter_map(|entry| {
        let text = std::fs::read_to_string(entry.ok()?.path().join("size")).ok()?;
        let text = text.trim();
        let (digits, unit) = text.split_at(text.find(|c: char| !c.is_ascii_digit())?);
        let scale = match unit {
            "K" => 1 << 10,
            "M" => 1 << 20,
            "G" => 1 << 30,
            _ => return None,
        };
        Some(digits.parse::<u64>().ok()? * scale)
    })
    .max()
}

fn cpu_model() -> Option<String> {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
}

/// State of the git work tree the benchmark runs from.
pub enum Tree {
    Clean {
        commit: String,
    },
    Dirty {
        commit: String,
    },
    /// Not a git checkout, or git is unavailable: nothing can be vouched for.
    Unversioned,
}

pub fn tree_state() -> Tree {
    let Some(commit) = command_stdout("git", &["rev-parse", "HEAD"]) else {
        return Tree::Unversioned;
    };
    match command_stdout("git", &["status", "--porcelain"]) {
        Some(status) if status.is_empty() => Tree::Clean { commit },
        Some(_) => Tree::Dirty { commit },
        None => Tree::Unversioned,
    }
}

/// The provenance stamp of `results.json`. `Err` when the tree is not
/// verifiably clean and `allow_dirty` is not set: numbers that cannot be
/// tied to a commit are not recorded by default.
pub fn stamp(seed: u64, seconds: f64, smoke: bool, allow_dirty: bool) -> Result<Json, String> {
    let (commit, tree) = match tree_state() {
        Tree::Clean { commit } => (Json::str(commit), "clean"),
        Tree::Dirty { commit } if allow_dirty => (Json::str(commit), "dirty"),
        Tree::Unversioned if allow_dirty => (Json::Null, "unversioned"),
        Tree::Dirty { commit } => {
            return Err(format!(
                "work tree at {commit} has uncommitted changes; commit them or pass --allow-dirty"
            ))
        }
        Tree::Unversioned => {
            return Err("not a git checkout, so the commit is unknown; pass --allow-dirty".into())
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok(Json::obj([
        ("schema", Json::Num(f64::from(SCHEMA_VERSION))),
        ("commit", commit),
        ("tree", Json::str(tree)),
        ("seed", Json::Num(seed as f64)),
        ("seconds_per_workload", Json::Num(seconds)),
        ("smoke", Json::Bool(smoke)),
        ("nproc", Json::Num(nproc as f64)),
        (
            "threads_used",
            Json::Num(crate::run::LIBRARY_THREADS as f64),
        ),
        ("cpu_model", cpu_model().map_or(Json::Null, Json::str)),
        (
            "llc_bytes",
            llc_bytes().map_or(Json::Null, |b| Json::Num(b as f64)),
        ),
        ("rustc", Json::str(env!("BENCH_RUSTC_VERSION"))),
        ("rustflags", Json::str(env!("BENCH_RUSTFLAGS"))),
        ("profile", Json::str(env!("BENCH_PROFILE"))),
        (
            "simulator",
            Json::str("unvalidated: the repository holds no real-hardware measurement, so sim-clock values carry no error figure"),
        ),
    ]))
}
