//! The paper's primary contribution: **sparsity-utilizing explicit Schur
//! complement assembly** (`F̃ = (L⁻¹B̃ᵀ)ᵀ(L⁻¹B̃ᵀ)`, Eq. 14).
//!
//! Pipeline (paper §3), as one [`plan::AssemblyPlan`] per subdomain: a
//! pattern phase, then a numeric phase that reads `L` in place.
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
//! Every launch goes through the [`exec::Exec`] backend trait, so the
//! same algorithm runs on the CPU ([`exec::CpuExec`]) and on the simulated
//! GPU ([`exec::GpuExec`]) — mirroring the paper's claim that the approach
//! only needs basic BLAS/sparse-BLAS routines available on any platform.

pub mod assemble;
pub mod batch;
pub mod exec;
pub mod plan;
pub mod schedule;
pub mod session;
pub mod sessioncache;
pub mod source;
pub mod stepped;
pub mod tune;

pub use assemble::{assemble_sc, assemble_sc_reference, ScConfig, ScParams};
pub use batch::{BatchItem, BatchItemOf};
pub use exec::{CpuExec, Exec, GpuExec, RecordingExec};
pub use plan::{
    run_syrk as run_syrk_variant, run_trsm as run_trsm_variant, AssemblyPlan, FactorStorage,
    SyrkVariant, TrsmVariant,
};
pub use sc_gpu::ArenaSim;
pub use schedule::{
    estimate_apply, estimate_cost, plan_hybrid, plan_topology, plan_topology_by, ApplyEstimate,
    ClusterPlanError, CostEstimate, DeviceSlot, Formulation, HybridChoice, HybridPlan,
    HybridPlanOptions, LanePlan, ScheduleOptions, StreamPolicy, TopoPlan, Topology,
};
pub use session::{
    AssemblyReport, AssemblyResult, AssemblySession, Backend, DeviceReport, Precision,
    ScheduledSpan, SubdomainTiming, Target,
};
pub use sessioncache::{ContentHasher, SessionCache, SessionCacheStats};
pub use source::BatchSource;
pub use stepped::{SteppedRhs, SteppedRhsOf};

pub use tune::BlockParam;
