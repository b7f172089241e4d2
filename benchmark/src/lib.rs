//! The repository's one performance instrument: four workloads, end-to-end
//! metrics on a stated clock, a per-layer ledger and a traced run.
//!
//! Every layer is measured **from outside**, by timing calls into its
//! public, non-deprecated functions, and nothing here depends on `sc_bench`,
//! so the old API generation can be deleted and `crates/bench` reworked
//! without touching the instrument. See `README.md` beside this crate.

#![deny(deprecated)]

pub mod compare;
pub mod json;
pub mod ledger;
pub mod metric;
pub mod probe;
pub mod provenance;
pub mod report;
pub mod rng;
pub mod run;
pub mod spans;
pub mod timed;
pub mod workloads;
