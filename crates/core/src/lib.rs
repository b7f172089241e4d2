//! The paper's primary contribution: **sparsity-utilizing explicit Schur
//! complement assembly** (`F̃ = (L⁻¹B̃ᵀ)ᵀ(L⁻¹B̃ᵀ)`, Eq. 14).
//!
//! Pipeline (paper §3), as one [`plan::AssemblyShape`] per subdomain, cut
//! into one [`plan::AssemblyPlan`] per configuration, then a numeric phase
//! that reads `L` in place.
//!
//! 1. [`stepped`] — permute the *columns* of `B̃ᵀ` so that column pivots
//!    descend left to right (the **stepped shape**). Rows are never permuted:
//!    that would interfere with the fill-reducing ordering of the factor.
//! 2. TRSM — solve `L Y = B̃ᵀ` skipping the known-zero region above the
//!    pivots, by **factor splitting** (with optional **pruning** of empty
//!    rows in the sub-diagonal factor blocks).
//! 3. SYRK — compute `F̃ = YᵀY` skipping the same zero region, by
//!    **input splitting** (the paper's output splitting is deliberately
//!    absent: on the closure input splitting is never worse than it).
//! 4. write `F̃`'s packed lower triangle in the original multiplier order.
//!
//! The plan's launch list ([`plan::AssemblyPlan::launches`]) is what every
//! [`exec::Exec`] backend consumes, once per assembly, so the same
//! algorithm runs on the CPU ([`exec::CpuExec`]) and on the simulated GPU
//! ([`exec::GpuExec`]) — mirroring the paper's claim that the approach only
//! needs basic BLAS/sparse-BLAS routines available on any platform.
//!
//! A batch of subdomains is a slice of [`source::BatchEntry`]s, each the
//! pair (`L`, `B̃ᵀ`) with its shape; [`session::AssemblySession::assemble`]
//! runs it on any target.

pub mod assemble;
pub mod batch;
pub mod exec;
pub mod hybrid;
pub mod plan;
pub mod schedule;
pub mod session;
pub mod source;
pub mod stepped;
pub mod tune;

pub use assemble::{assemble_sc, assemble_sc_reference, ScConfig, ScParams};
pub use exec::{CpuExec, Exec, GpuExec, RecordingExec};
pub use hybrid::{plan_hybrid, Formulation, HybridChoice, HybridPlan, HybridPlanOptions};
pub use plan::{
    run_syrk as run_syrk_variant, run_trsm as run_trsm_variant, AssemblyPlan, AssemblyShape,
    FactorStorage, SyrkVariant, TrsmVariant,
};
pub use sc_gpu::ArenaSim;
pub use schedule::{
    estimate_apply, estimate_cost, plan_topology, plan_topology_by, temp_footprint, ApplyEstimate,
    ClusterPlanError, CostEstimate, DeviceSlot, LanePlan, ScheduleOptions, StreamPolicy, TopoPlan,
    Topology,
};
pub use session::{
    AssemblyReport, AssemblyResult, AssemblySession, Backend, DeviceReport, Precision,
    ScheduledSpan, SubdomainTiming,
};
pub use source::BatchEntry;
pub use stepped::SteppedRhs;

pub use tune::BlockParam;

/// Counter snapshot of `sc_serve`'s prepared-state cache (the serve `stats`
/// request reports these per service). The cache itself lives in `sc_serve`;
/// this record stays at this path because the benchmark package names it
/// here, and moves with the benchmark's next change (ROADMAP item 1).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionCacheStats {
    /// Lookups served from the cache.
    pub hits: usize,
    /// Lookups that found no entry.
    pub misses: usize,
    /// Entries dropped to make room under the byte budget.
    pub evictions: usize,
    /// Entries currently resident.
    pub entries: usize,
    /// Bytes currently accounted against the budget.
    pub bytes: usize,
    /// The configured budget.
    pub budget_bytes: usize,
}
