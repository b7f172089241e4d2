//! Total-FETI solver built on the workspace substrates.
//!
//! Implements the method of the paper's §2: subdomain stiffness matrices are
//! regularized by fixing nodes ([`regularize`]), factorized per subdomain,
//! and the dual problem (Eq. 7) is solved by the projected conjugate gradient
//! method ([`pcpg`]) with the dual operator `F = B K⁺ Bᵀ` applied either
//! implicitly (sparse solves per iteration) or explicitly (dense `F̃ᵢ`
//! assembled up front by `sc-core`, on the CPU or the simulated GPU) — one
//! operator slot per subdomain, applied by the one pass of [`dualop`].
//!
//! [`approaches`] is the paper's Table 2 as data: the eight dual-operator
//! strategies compared in Figures 9 and 10 are recipes for the one
//! [`FetiSolverBuilder`], timed on two clocks that are never added.

pub mod approaches;
pub mod dualop;
mod exchange;
pub mod pcpg;
pub mod refine;
pub mod regularize;
pub mod solver;

pub use approaches::{
    measure_apply_cost, preprocess_approach, DualOpApproach, PreprocessReport, TwoClock,
};
pub use dualop::{
    apply_implicit, apply_implicit_with, BoundaryMap, BoundaryMapOf, FactorView, SubdomainFactors,
};
pub use pcpg::{
    pcpg_preconditioned, pcpg_preconditioned_of, PcpgBreakdown, PcpgResult, PcpgResultOf, PcpgStats,
};
pub use refine::RefinementStats;
pub use regularize::regularize_fixing_node;
pub use solver::{
    FetiOptions, FetiSolution, FetiSolver, FetiSolverBuilder, FormulationChoice, Preconditioner,
};
