//! Turning a run's outcome into what is printed and written: the metric
//! table (name, value, unit, clock, spread), the one-line result the
//! benchmark contract asks for, and the per-workload record `run` collects
//! into `results.json`.

use crate::json::Json;
use crate::metric::{decl, Clock, Decl, Quantity, Summary};

/// Schema version of `results.json` and the per-workload records.
pub const SCHEMA_VERSION: u32 = 1;

/// A reported metric value with, for host timings, the sample behind it.
#[derive(Clone, Debug)]
pub struct Reported {
    pub name: &'static str,
    pub quantity: Quantity,
    pub summary: Option<Summary>,
}

impl Reported {
    pub fn new(name: &'static str, quantity: Quantity) -> Self {
        Reported {
            name,
            quantity,
            summary: None,
        }
    }

    /// The median of host-clock samples (`null` when there are none).
    pub fn host_median(name: &'static str, samples: &[f64]) -> Self {
        let summary = Summary::of(samples);
        Reported {
            name,
            quantity: Quantity {
                value: summary.map(|s| s.median),
                clock: Clock::Host,
            },
            summary,
        }
    }
}

/// What a run hands to the reporting layer.
#[derive(Debug, Default)]
pub struct RunOutcome {
    pub attempted: usize,
    pub failed: usize,
    /// `VmHWM` of exactly one rep: the mark is restarted after input
    /// generation and read right after the warm-up rep. Read there because
    /// the mark after many reps on two threads depends on how the allocator
    /// happened to recycle freed blocks, which no change to the library
    /// controls.
    pub peak_rss_bytes: Option<f64>,
    pub metrics: Vec<Reported>,
    pub notes: Vec<String>,
}

/// The outcome's metrics in declaration order, each exactly once. A metric
/// the run did not produce is reported as `null`, so a missing value is
/// visible instead of silently absent.
pub fn ordered<'a>(
    outcome: &'a RunOutcome,
    decls: &'static [Decl],
) -> Vec<(&'static Decl, Option<&'a Reported>)> {
    decls
        .iter()
        .map(|d| {
            let hit = outcome.metrics.iter().find(|m| m.name == d.name);
            if let Some(m) = hit {
                assert_eq!(
                    m.quantity.clock,
                    d.clock,
                    "{} was measured on the {} clock but is declared {}",
                    d.name,
                    m.quantity.clock.name(),
                    d.clock.name()
                );
            }
            (d, hit)
        })
        .collect()
}

/// Human-readable table on stdout: every metric by name with unit, clock
/// and, for host timings, sample count and quartiles.
pub fn print_table(workload: &str, outcome: &RunOutcome, decls: &'static [Decl]) {
    for name in outcome.metrics.iter().map(|m| m.name) {
        assert!(decl(name).is_some(), "metric {name} is not declared");
    }
    println!("# {workload}");
    println!(
        "{:<32} {:>16} {:<8} {:<6} spread",
        "metric", "value", "unit", "clock"
    );
    for (d, m) in ordered(outcome, decls) {
        let value = m
            .and_then(|m| m.quantity.value)
            .map_or_else(|| "null".to_string(), |v| format!("{v:.6e}"));
        let spread = m.and_then(|m| m.summary).map_or_else(String::new, |s| {
            let p90 = if s.p90_supported() {
                format!(" p90={:.4e}", s.p90)
            } else {
                String::new()
            };
            format!("n={} q1={:.4e} q3={:.4e}{p90}", s.n, s.q1, s.q3)
        });
        println!(
            "{:<32} {:>16} {:<8} {:<6} {spread}",
            d.name,
            value,
            d.unit,
            d.clock.name()
        );
    }
    println!(
        "{:<32} {:>16} {:<8} {:<6} ops_attempted={} ops_failed={}",
        "failed_share",
        format!(
            "{:.6e}",
            outcome.failed as f64 / outcome.attempted.max(1) as f64
        ),
        "ratio",
        "count",
        outcome.attempted,
        outcome.failed
    );
    for note in &outcome.notes {
        println!("note: {note}");
    }
}

/// The contract's result object: `correct`, `attempted`, `failed`,
/// `metrics`. Every declared metric appears; one the guard nulled, or the
/// workload does not exercise, reads 0 here (the record keeps the `null`).
pub fn contract_line(outcome: &RunOutcome, decls: &'static [Decl]) -> String {
    let metrics = ordered(outcome, decls)
        .into_iter()
        .map(|(d, m)| {
            let value = m.and_then(|m| m.quantity.value).filter(|v| v.is_finite());
            (
                d.name,
                Json::obj([
                    ("value", Json::Num(value.unwrap_or(0.0))),
                    ("unit", Json::str(d.unit)),
                ]),
            )
        })
        .collect::<Vec<_>>();
    Json::obj([
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
    .to_line()
}

/// The per-workload record: the contract's numbers plus clock, direction,
/// bound, sample count and quartiles.
pub fn record(
    workload: &str,
    seed: u64,
    mode: &str,
    outcome: &RunOutcome,
    decls: &'static [Decl],
) -> Json {
    let metrics = ordered(outcome, decls)
        .into_iter()
        .map(|(d, m)| {
            let mut fields = vec![
                ("value", Json::num_or_null(m.and_then(|m| m.quantity.value))),
                ("unit", Json::str(d.unit)),
                ("clock", Json::str(d.clock.name())),
                ("better", Json::str(d.better.name())),
            ];
            if let Some(b) = d.bound {
                fields.push(("bound", Json::Num(b)));
            }
            if let Some(s) = m.and_then(|m| m.summary) {
                fields.push(("n", Json::Num(s.n as f64)));
                fields.push(("q1", Json::Num(s.q1)));
                fields.push(("q3", Json::Num(s.q3)));
                fields.push(("p90", Json::num_or_null(s.p90_supported().then_some(s.p90))));
            }
            (d.name, Json::obj(fields))
        })
        .collect::<Vec<_>>();
    Json::obj([
        ("schema", Json::Num(f64::from(SCHEMA_VERSION))),
        ("workload", Json::str(workload)),
        ("seed", Json::Num(seed as f64)),
        ("mode", Json::str(mode)),
        ("correct", Json::Bool(outcome.failed == 0)),
        ("ops_attempted", Json::Num(outcome.attempted as f64)),
        ("ops_failed", Json::Num(outcome.failed as f64)),
        (
            "failed_share",
            Json::Num(outcome.failed as f64 / outcome.attempted.max(1) as f64),
        ),
        ("metrics", Json::obj(metrics)),
        (
            "notes",
            Json::Arr(outcome.notes.iter().map(Json::str).collect()),
        ),
    ])
}
