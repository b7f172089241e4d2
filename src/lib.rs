//! # schur-dd
//!
//! Sparsity-utilizing (simulated-)GPU assembly of Schur complement matrices
//! in FETI domain decomposition — a from-scratch Rust reproduction of
//! *"Utilizing Sparsity in the GPU-accelerated Assembly of Schur Complement
//! Matrices in Domain Decomposition Methods"* (Homola, Meca, Říha,
//! Brzobohatý — SC 2025, arXiv:2509.21037).
//!
//! ## Crate map
//!
//! | crate | role |
//! |-------|------|
//! | [`sc_dense`]  | dense BLAS-like kernels (GEMM/SYRK/TRSM/Cholesky) |
//! | [`sc_sparse`] | CSR/CSC/COO, permutations, pattern analysis |
//! | [`sc_order`]  | nested dissection / RCM / minimum degree orderings |
//! | [`sc_factor`] | sparse Cholesky into one CSC factor (multifrontal; simplicial reference) |
//! | [`sc_fem`]    | heat-transfer meshes, decomposition, gluing `B`, kernels `R` |
//! | [`sc_gpu`]    | event-driven GPU execution simulator (A100 cost model) |
//! | [`sc_core`]   | **the paper's contribution**: stepped TRSM/SYRK splitting + the batched multi-subdomain driver |
//! | [`sc_feti`]   | Total-FETI solver (PCPG, dual operator strategies) |
//! | [`sc_serve`]  | persistent multi-tenant solver service (JSON-lines intake, cross-session caching, fair scheduling) |
//!
//! `sc_bench` (not re-exported) holds the `paper` bin, whose sweeps
//! regenerate the paper's tables and figures. The repository's `ARCHITECTURE.md` maps
//! the data flow between these crates, the planner's topology hierarchy,
//! and the record-then-replay execution model.
//!
//! ## Quickstart
//!
//! Options are captured once at construction; the preprocessed solver
//! handle serves any number of right-hand sides:
//!
//! ```
//! use schur_dd::prelude::*;
//!
//! // 2D heat transfer, 3x3 cells per subdomain, 2x2 subdomains
//! let problem = HeatProblem::build_2d(3, (2, 2), Gluing::Redundant);
//! let solver = FetiSolverBuilder::new()
//!     .options(FetiOptions::default())
//!     .backend(Backend::cpu())
//!     .formulation(FormulationChoice::Explicit)
//!     .assembly(ScConfig::optimized(false, false))
//!     .build(&problem);
//! let solution = solver.solve();
//! assert!(solution.stats.converged);
//!
//! // amortize preprocessing across more load cases
//! let loads: Vec<Vec<f64>> = problem
//!     .subdomains
//!     .iter()
//!     .map(|sd| sd.f.iter().map(|v| 0.5 * v).collect())
//!     .collect();
//! assert!(solver.solve_rhs(&loads).stats.converged);
//! ```
//!
//! Batched Schur-complement assembly goes through the same composable
//! surface — pick a [`sc_core::Backend`], bind it in an
//! [`sc_core::AssemblySession`], read one [`sc_core::AssemblyReport`]:
//!
//! ```no_run
//! use schur_dd::prelude::*;
//! # let items: Vec<BatchItem> = Vec::new();
//! let device = Device::new(DeviceSpec::a100(), 4);
//! let session = AssemblySession::new(Backend::gpu(device), ScConfig::Auto);
//! let result = session.assemble(&items);
//! println!("makespan {:.3} ms", result.report.makespan * 1e3);
//! ```

pub use sc_core;
pub use sc_dense;
pub use sc_factor;
pub use sc_fem;
pub use sc_feti;
pub use sc_gpu;
pub use sc_order;
pub use sc_serve;
pub use sc_sparse;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use sc_core::{
        assemble_sc, estimate_apply, estimate_cost, plan_hybrid, plan_topology, plan_topology_by,
        ApplyEstimate, AssemblyReport, AssemblyResult, AssemblySession, Backend, BatchItem,
        BatchSource, BlockParam, ClusterPlanError, CostEstimate, CpuExec, DeviceReport, DeviceSlot,
        FactorStorage, Formulation, GpuExec, HybridPlan, HybridPlanOptions, NodeReport, Precision,
        RecordingExec, ScConfig, ScParams, ScheduleOptions, ScheduledSpan, SteppedRhs, StreamLane,
        StreamPolicy, SubdomainTiming, SyrkVariant, TopoPlan, Topology, TrsmVariant,
    };
    pub use sc_dense::Mat;
    pub use sc_factor::{CholOptions, Engine, SparseCholesky};
    pub use sc_fem::{Gluing, HeatProblem};
    pub use sc_feti::{
        apply_implicit, apply_implicit_with, preprocess_approach, BoundaryMap, DualOpApproach,
        FetiOptions, FetiSolution, FetiSolver, FetiSolverBuilder, FormulationChoice, PcpgBreakdown,
        RefinementStats, SubdomainFactors,
    };
    pub use sc_gpu::{
        Device, DevicePool, DeviceSpec, GpuKernels, Interconnect, NodePool, NodeSpec,
    };
    pub use sc_order::Ordering;
    pub use sc_serve::{JobOutcome, ServeHandle, ServeOptions};
    pub use sc_sparse::{Csc, Perm};
}
