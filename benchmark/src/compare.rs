//! `compare <a.json> <b.json>`: judge results file `b` against baseline `a`,
//! one row per (metric, workload).
//!
//! - A `host` metric with a bound is `worse`/`better` when its median moved
//!   against/with its direction by more than the bound, else `same`; when
//!   the uncertainty of either median is itself wider than the bound the
//!   row is `unresolved`, never `same`.
//! - A `sim` or `count` metric repeats exactly, so any difference is a real
//!   change: `worse` or `better` by direction (beyond the bound, where the
//!   metric has one).
//! - Per-layer `host` metrics carry no bound and are listed as `info`.
//!
//! The exit code is non-zero when any row is `worse`.

use crate::json::Json;
use crate::metric::Clock;
use std::process::ExitCode;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    Unresolved,
    Info,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "info",
        }
    }
}

/// One metric of one workload as a results file records it.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub value: Option<f64>,
    pub clock: Clock,
    pub lower_is_better: bool,
    pub bound: Option<f64>,
    /// Relative standard error of the median, from the run's own quartiles
    /// and sample count (0 where the record has none).
    pub spread: f64,
}

impl Sample {
    fn from_json(m: &Json) -> Option<Sample> {
        let value = m.get("value")?.as_f64();
        let n = m.get("n").and_then(Json::as_f64);
        let spread = match (
            value,
            m.get("q1").and_then(Json::as_f64),
            m.get("q3").and_then(Json::as_f64),
            n,
        ) {
            // standard error of a median: 1.253 σ / √n, with σ ≈ IQR / 1.349
            (Some(v), Some(q1), Some(q3), Some(n)) if v > 0.0 && n > 0.0 => {
                1.253 * (q3 - q1) / 1.349 / n.sqrt() / v
            }
            _ => 0.0,
        };
        Some(Sample {
            value,
            clock: Clock::from_name(m.get("clock")?.as_str()?)?,
            lower_is_better: m.get("better")?.as_str()? == "lower",
            bound: m.get("bound").and_then(Json::as_f64),
            spread,
        })
    }
}

/// Verdict for one row, and the signed share by which `b` is worse than `a`
/// (negative = better).
pub fn judge(a: &Sample, b: &Sample) -> (Verdict, Option<f64>) {
    let (Some(va), Some(vb)) = (a.value, b.value) else {
        // null on both sides is the same refusal; on one side it is a change
        // nobody can rank
        let v = if a.value.is_none() && b.value.is_none() {
            Verdict::Same
        } else {
            Verdict::Unresolved
        };
        return (v, None);
    };
    if va.to_bits() == vb.to_bits() {
        return (Verdict::Same, Some(0.0));
    }
    let raw = if va != 0.0 {
        (vb - va) / va.abs()
    } else {
        f64::INFINITY * (vb - va).signum()
    };
    let worse_by = if a.lower_is_better { raw } else { -raw };
    let verdict = match (a.clock.is_exact(), a.bound) {
        (false, None) => Verdict::Info,
        (false, Some(bound)) => {
            if a.spread.max(b.spread) > bound {
                Verdict::Unresolved
            } else if worse_by > bound {
                Verdict::Worse
            } else if worse_by < -bound {
                Verdict::Better
            } else {
                Verdict::Same
            }
        }
        (true, bound) => {
            if worse_by > bound.unwrap_or(0.0) {
                Verdict::Worse
            } else if worse_by < 0.0 {
                Verdict::Better
            } else {
                Verdict::Same
            }
        }
    };
    (verdict, Some(worse_by))
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// One (metric, workload) row of a comparison. `run` is `timed` or `traced`.
#[derive(Clone, Debug)]
pub struct Row {
    pub workload: String,
    pub run: &'static str,
    pub metric: String,
    pub verdict: Verdict,
    pub worse_by: Option<f64>,
}

/// Judge every (metric, workload) of `b` against `a`.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let workloads = |doc: &Json| -> Result<Vec<Json>, String> {
        Ok(doc
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("no \"workloads\" array")?
            .to_vec())
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut rows = Vec::new();
    for wl_a in &wa {
        let name = wl_a
            .get("name")
            .and_then(Json::as_str)
            .ok_or("workload without name")?;
        let Some(wl_b) = wb
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
        else {
            return Err(format!("workload {name} is missing from the second file"));
        };
        for section in ["timed", "traced"] {
            let (Some(ra), Some(rb)) = (wl_a.get(section), wl_b.get(section)) else {
                continue;
            };
            let failed = |r: &Json| r.get("failed_share").and_then(Json::as_f64).unwrap_or(1.0);
            let verdict = match failed(rb).total_cmp(&failed(ra)) {
                std::cmp::Ordering::Greater => Verdict::Worse,
                std::cmp::Ordering::Less => Verdict::Better,
                std::cmp::Ordering::Equal => Verdict::Same,
            };
            rows.push(Row {
                workload: name.to_string(),
                run: section,
                metric: "failed_share".to_string(),
                verdict,
                worse_by: Some(failed(rb) - failed(ra)),
            });
            let metrics = ra
                .get("metrics")
                .and_then(Json::as_obj)
                .ok_or("record without metrics")?;
            for (metric, ma) in metrics {
                let mb = rb
                    .get("metrics")
                    .and_then(|m| m.get(metric))
                    .ok_or_else(|| format!("{name}/{metric} is missing from the second file"))?;
                let (sa, sb) = (
                    Sample::from_json(ma).ok_or_else(|| format!("{name}/{metric}: malformed"))?,
                    Sample::from_json(mb).ok_or_else(|| format!("{name}/{metric}: malformed"))?,
                );
                let (verdict, worse_by) = judge(&sa, &sb);
                rows.push(Row {
                    workload: name.to_string(),
                    run: section,
                    metric: metric.clone(),
                    verdict,
                    worse_by,
                });
            }
        }
    }
    Ok(rows)
}

/// The `compare` subcommand.
pub fn compare_files(a: &str, b: &str) -> ExitCode {
    let rows = match (load(a), load(b)) {
        (Ok(ja), Ok(jb)) => match compare(&ja, &jb) {
            Ok(rows) => rows,
            Err(e) => {
                eprintln!("compare: {e}");
                return ExitCode::from(2);
            }
        },
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<18} {:<7} {:<32} {:<11} worse_by",
        "workload", "run", "metric", "verdict"
    );
    let mut counts = [0usize; 5];
    for row in &rows {
        counts[row.verdict as usize] += 1;
        // the unbounded per-layer host rows are context, not verdicts
        if row.verdict == Verdict::Info {
            continue;
        }
        let by = row
            .worse_by
            .map_or_else(|| "n/a".to_string(), |v| format!("{:+.2}%", v * 100.0));
        println!(
            "{:<18} {:<7} {:<32} {:<11} {by}",
            row.workload,
            row.run,
            row.metric,
            row.verdict.name()
        );
    }
    println!(
        "same {} better {} worse {} unresolved {} (per-layer host rows without a bound: {})",
        counts[Verdict::Same as usize],
        counts[Verdict::Better as usize],
        counts[Verdict::Worse as usize],
        counts[Verdict::Unresolved as usize],
        counts[Verdict::Info as usize]
    );
    if counts[Verdict::Worse as usize] > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host(value: f64, bound: f64, spread: f64, lower: bool) -> Sample {
        Sample {
            value: Some(value),
            clock: Clock::Host,
            lower_is_better: lower,
            bound: Some(bound),
            spread,
        }
    }

    #[test]
    fn host_rows_follow_bound_direction_and_spread() {
        let base = host(1.0, 0.1, 0.01, true);
        assert_eq!(judge(&base, &host(1.05, 0.1, 0.01, true)).0, Verdict::Same);
        assert_eq!(judge(&base, &host(1.2, 0.1, 0.01, true)).0, Verdict::Worse);
        assert_eq!(judge(&base, &host(0.8, 0.1, 0.01, true)).0, Verdict::Better);
        // throughput: higher is better
        let rate = host(10.0, 0.1, 0.0, false);
        assert_eq!(judge(&rate, &host(8.0, 0.1, 0.0, false)).0, Verdict::Worse);
        // a spread wider than the bound resolves nothing, even a big move
        assert_eq!(
            judge(&base, &host(1.5, 0.1, 0.2, true)).0,
            Verdict::Unresolved
        );
    }

    #[test]
    fn exact_clocks_admit_no_noise() {
        let sim = |v: f64| Sample {
            value: Some(v),
            clock: Clock::Sim,
            lower_is_better: true,
            bound: None,
            spread: 0.0,
        };
        assert_eq!(judge(&sim(1e-3), &sim(1e-3)).0, Verdict::Same);
        assert_eq!(judge(&sim(1e-3), &sim(1.0000001e-3)).0, Verdict::Worse);
        assert_eq!(judge(&sim(1e-3), &sim(0.9e-3)).0, Verdict::Better);
        let null = Sample {
            value: None,
            ..sim(0.0)
        };
        assert_eq!(judge(&null, &null).0, Verdict::Same);
        assert_eq!(judge(&null, &sim(1.0)).0, Verdict::Unresolved);
    }
}
