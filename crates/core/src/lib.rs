//! The paper's primary contribution: **sparsity-utilizing explicit Schur
//! complement assembly** (`F̃ = (L⁻¹B̃ᵀ)ᵀ(L⁻¹B̃ᵀ)`, Eq. 14).
//!
//! Pipeline (paper §3):
//!
//! 1. [`stepped`] — permute the *columns* of `B̃ᵀ` so that column pivots
//!    descend left to right (the **stepped shape**). Rows are never permuted:
//!    that would interfere with the fill-reducing ordering of the factor.
//! 2. [`trsm`] — solve `L Y = B̃ᵀ` skipping the known-zero region above the
//!    pivots, by **RHS splitting** or **factor splitting** (with optional
//!    **pruning** of empty rows in the sub-diagonal factor blocks).
//! 3. [`syrk`] — compute `F̃ = YᵀY` skipping the same zero region, by
//!    **input splitting** or **output splitting**.
//! 4. un-permute the result back to the original multiplier ordering.
//!
//! All kernels are written against the [`exec::Exec`] backend trait, so the
//! same algorithm runs on the CPU ([`exec::CpuExec`]) and on the simulated
//! GPU ([`exec::GpuExec`]) — mirroring the paper's claim that the approach
//! only needs basic BLAS/sparse-BLAS routines available on any platform.

pub mod assemble;
pub mod batch;
pub mod exec;
pub mod schedule;
pub mod session;
pub mod sessioncache;
pub mod source;
pub mod stepped;
pub mod syrk;
pub mod trsm;
pub mod tune;

pub use assemble::{
    assemble_sc, assemble_sc_reference, assemble_sc_with_cache, ScConfig, ScParams,
};
pub use batch::{BatchItem, BatchItemOf, SubdomainTiming};
pub use exec::{CpuExec, Exec, GpuExec, RecordingExec};
pub use sc_gpu::ArenaSim;
pub use schedule::{
    estimate_apply, estimate_cost, plan_hybrid, plan_topology, plan_topology_by, ApplyEstimate,
    ClusterPlanError, CostEstimate, DeviceSlot, Formulation, HybridChoice, HybridForce, HybridPlan,
    HybridPlanOptions, ScheduleOptions, ScheduledSpan, StreamPolicy, TopoPlan, Topology,
};
pub use session::{
    AssemblyReport, AssemblyResult, AssemblySession, Backend, DeviceReport, HybridSummary,
    NodeReport, Precision, StreamLane, Target,
};
pub use sessioncache::{ContentHasher, SessionCache, SessionCacheStats};
pub use source::{BatchSource, IntoBatchSource, LazyBatch};
pub use stepped::{SteppedRhs, SteppedRhsOf};
pub use syrk::{run_syrk as run_syrk_variant, run_syrk_with_cache, SyrkVariant};
pub use trsm::{run_trsm as run_trsm_variant, run_trsm_with_cache, FactorStorage, TrsmVariant};
pub use tune::{resolve_block, BlockCutsCache, BlockParam};
