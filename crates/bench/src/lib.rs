//! Shared infrastructure for the `paper` bin's sweeps, which regenerate the
//! paper's tables and figures, and the batch workloads the workspace's
//! integration tests assemble.
//!
//! Key conventions:
//!
//! - **CPU series are measured wall time** of the real Rust kernels;
//! - **GPU series are simulated time** from the `sc_gpu` cost model (the
//!   kernels may run in cost-only mode during large sweeps — the timeline is
//!   identical either way);
//! - subdomain-size ladders follow the paper's (cubes `k³` in 3D, squares in
//!   2D) but default to smaller maxima so the host-executed kernels finish in
//!   minutes; pass `--full` to extend, `--max-dofs N` to override.

pub mod report;
pub mod runner;
pub mod timing;
pub mod workloads;

pub use report::{ms, write_csv, Table};
pub use runner::{
    time_assembly_gpu, time_syrk_cpu, time_syrk_gpu, time_trsm_cpu, time_trsm_gpu, KernelInputs,
};
pub use timing::{time_min, time_once};
pub use workloads::{ladder_2d, ladder_3d, BatchWorkload, KernelWorkload};
