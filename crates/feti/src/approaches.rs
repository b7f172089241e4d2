//! The eight dual-operator strategies of the paper's Table 2 — as a table:
//! each row is a recipe `(Engine, Backend, formulation, ScConfig)` for the
//! one [`FetiSolverBuilder`], so [`preprocess_approach`] returns a real
//! [`FetiSolver`] and the benches (Figures 9 and 10) time the very code
//! every other solve runs.
//!
//! Library mapping (the engines are described in ARCHITECTURE.md, "The
//! sparse factor"; every row produces the one slot type of
//! [`dualop`](crate::dualop)):
//!
//! | paper          | here                                                       |
//! |----------------|------------------------------------------------------------|
//! | `impl_mkl`     | implicit, supernodal multifrontal engine (PARDISO analog)  |
//! | `impl_cholmod` | implicit, up-looking simplicial engine (CHOLMOD analog)    |
//! | `expl_mkl`     | sparse-RHS Schur (`sc_factor::schur`) on the CPU           |
//! | `expl_cholmod` | plain (non-stepped) TRSM+SYRK on the CPU, simplicial factor|
//! | `expl_cuda`    | plain TRSM+SYRK on the simulated GPU (algorithm of \[9\])    |
//! | `expl_cpu_opt` | stepped TRSM+SYRK on the CPU (this paper)                  |
//! | `expl_gpu_opt` | stepped TRSM+SYRK on the simulated GPU (this paper)        |
//! | `expl_hybrid`  | assembly like `expl_mkl`, application on the GPU           |
//!
//! The GPU rows run on `Backend::gpu_with(device, round-robin)` — the
//! record → plan → replay driver of every other device assembly, with the
//! paper's blind index-order stream assignment.
//!
//! ## Clocks
//!
//! Every timing is a [`TwoClock`]: measured host wall seconds and simulated
//! device seconds side by side. The type has no sum — a table prints one
//! clock or the other.

use crate::dualop::{LocalOp, SubdomainFactors};
use crate::solver::{FetiOptions, FetiSolver, FetiSolverBuilder, FormulationChoice};
use rayon::prelude::*;
use sc_core::{Backend, FactorStorage, Precision, ScConfig, ScheduleOptions, StreamPolicy};
use sc_dense::{Mat, SymPackedOf};
use sc_factor::{schur_from_factor, Engine};
use sc_fem::HeatProblem;
use sc_gpu::Device;
use std::sync::Arc;
use std::time::Instant;

/// Dual-operator strategy (paper Table 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DualOpApproach {
    /// Implicit with the fast (supernodal) factorization.
    ImplMkl,
    /// Implicit with the simplicial factorization.
    ImplCholmod,
    /// Explicit SC via sparse-RHS solves on the CPU.
    ExplMkl,
    /// Explicit SC via plain TRSM+SYRK on the CPU.
    ExplCholmod,
    /// Explicit SC via plain TRSM+SYRK on the GPU (baseline of \[9\]).
    ExplCuda,
    /// Explicit SC via stepped TRSM+SYRK on the CPU (this paper).
    ExplCpuOpt,
    /// Explicit SC via stepped TRSM+SYRK on the GPU (this paper).
    ExplGpuOpt,
    /// CPU sparse-RHS assembly + GPU application.
    ExplHybrid,
}

/// Where a row's operator slots come from.
enum Slots {
    /// [`FetiSolverBuilder`] under this formulation and kernel
    /// configuration.
    Builder(FormulationChoice, ScConfig),
    /// `sc_factor::schur_from_factor` per subdomain on the host (the `mkl`
    /// rows' sparse-RHS solves), the dense `Gᵢ` uploaded when the row
    /// applies on the device.
    SparseRhs,
}

impl DualOpApproach {
    /// All approaches, in the paper's Table 2 order.
    pub const ALL: [DualOpApproach; 8] = [
        DualOpApproach::ImplMkl,
        DualOpApproach::ImplCholmod,
        DualOpApproach::ExplMkl,
        DualOpApproach::ExplCholmod,
        DualOpApproach::ExplCuda,
        DualOpApproach::ExplCpuOpt,
        DualOpApproach::ExplGpuOpt,
        DualOpApproach::ExplHybrid,
    ];

    /// The paper's name for this approach.
    pub fn paper_name(&self) -> &'static str {
        match self {
            DualOpApproach::ImplMkl => "impl_mkl",
            DualOpApproach::ImplCholmod => "impl_cholmod",
            DualOpApproach::ExplMkl => "expl_mkl",
            DualOpApproach::ExplCholmod => "expl_cholmod",
            DualOpApproach::ExplCuda => "expl_cuda",
            DualOpApproach::ExplCpuOpt => "expl_cpu_opt",
            DualOpApproach::ExplGpuOpt => "expl_gpu_opt",
            DualOpApproach::ExplHybrid => "expl_hybrid",
        }
    }

    /// True when the approach assembles or applies on the device — the rows
    /// whose [`TwoClock::sim_s`] is non-zero.
    pub fn uses_gpu(&self) -> bool {
        matches!(
            self,
            DualOpApproach::ExplCuda | DualOpApproach::ExplGpuOpt | DualOpApproach::ExplHybrid
        )
    }

    /// The row of Table 2: factorization engine, backend, and the producer
    /// of the operator slots.
    fn recipe(self, three_d: bool, device: Option<&Arc<Device>>) -> (Engine, Backend, Slots) {
        use DualOpApproach::*;
        use FormulationChoice::{Explicit, Implicit};
        let backend = if self.uses_gpu() {
            let device = Arc::clone(device.expect("GPU approach needs a device"));
            let blind = ScheduleOptions::default().with_policy(StreamPolicy::RoundRobin);
            Backend::gpu_with(device, blind)
        } else {
            Backend::cpu()
        };
        let orig = ScConfig::original(if three_d {
            FactorStorage::Dense
        } else {
            FactorStorage::Sparse
        });
        let opt = ScConfig::optimized(self.uses_gpu(), three_d);
        // the paper's explicit rows sit on CHOLMOD because only it lets the
        // factor be extracted ("impl_cholmod is the baseline for CUDA-based
        // approaches"); both engines here expose the same CSC factor, and
        // these rows keep the simplicial one so that Figure 9's
        // factorization column stays the CHOLMOD analog
        let (engine, slots) = match self {
            ImplMkl => (Engine::Supernodal, Slots::Builder(Implicit, ScConfig::Auto)),
            ImplCholmod => (Engine::Simplicial, Slots::Builder(Implicit, ScConfig::Auto)),
            ExplMkl => (Engine::Simplicial, Slots::SparseRhs),
            ExplCholmod => (Engine::Simplicial, Slots::Builder(Explicit, orig)),
            ExplCuda => (Engine::Simplicial, Slots::Builder(Explicit, orig)),
            ExplCpuOpt => (Engine::Simplicial, Slots::Builder(Explicit, opt)),
            ExplGpuOpt => (Engine::Simplicial, Slots::Builder(Explicit, opt)),
            ExplHybrid => (Engine::Simplicial, Slots::SparseRhs),
        };
        (engine, backend, slots)
    }
}

/// Seconds on this reproduction's two clocks, side by side: measured host
/// wall time and simulated device time. Deliberately without a sum — the two
/// are never added, subtracted or divided into one another.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TwoClock {
    /// Measured host wall seconds.
    pub host_s: f64,
    /// Simulated device seconds (0 for a row that touches no device).
    pub sim_s: f64,
}

/// Preprocessing timings (the quantities plotted in Figure 9).
#[derive(Clone, Copy, Debug, Default)]
pub struct PreprocessReport {
    /// Measured wall seconds of the numeric factorization loop.
    pub factorization_s: f64,
    /// The assembly section: host wall seconds of a CPU producer, simulated
    /// makespan of the device-side share (both 0 for the implicit rows).
    pub assembly: TwoClock,
}

/// Exact `f64` of a small count feeding a cost or a mean — no value
/// precision is involved.
fn count(n: usize) -> f64 {
    f64::from(u32::try_from(n).expect("count fits in 32 bits"))
}

/// Run the preprocessing pipeline of one approach over all subdomains and
/// return the ready solver with its timings.
///
/// `device` is required for GPU approaches; its timeline is reset first so
/// `assembly.sim_s` is this call's makespan.
pub fn preprocess_approach<'p>(
    problem: &'p HeatProblem,
    approach: DualOpApproach,
    device: Option<&Arc<Device>>,
) -> (FetiSolver<'p>, PreprocessReport) {
    let (engine, backend, slots) = approach.recipe(problem.dim == 3, device);
    let opts = FetiOptions::default().with_engine(engine);
    for d in backend.devices() {
        d.reset();
    }

    let t = Instant::now();
    let factors = SubdomainFactors::build_all(problem, engine, opts.ordering);
    let factorization_s = t.elapsed().as_secs_f64();

    let mut assembly = TwoClock::default();
    let solver = match slots {
        Slots::Builder(formulation, cfg) => {
            let solver = FetiSolverBuilder::new()
                .options(opts)
                .backend(backend)
                .formulation(formulation)
                .assembly(cfg)
                .factors(factors)
                .build(problem);
            match solver.report() {
                Some(report) if approach.uses_gpu() => assembly.sim_s = report.makespan,
                Some(report) => assembly.host_s = report.total_seconds,
                None => {}
            }
            solver
        }
        Slots::SparseRhs => {
            let t = Instant::now();
            // Gᵢ on the distinct glued dofs, like every explicit producer
            let schur = |f: &SubdomainFactors| {
                let l = f.chol.factor_csc_ref();
                schur_from_factor(l, &f.chol.symbolic().parent, &f.pt_perm)
            };
            let dense: Vec<Mat> = factors.par_iter().map(schur).collect();
            assembly.host_s = t.elapsed().as_secs_f64();
            // the hybrid row applies on the device: the packed triangle of
            // each Gᵢ is uploaded to its round-robin stream, in
            // subdomain-index order
            let device = backend.device();
            let resident = |(i, g): (usize, Mat)| {
                let g = Arc::new(SymPackedOf::from_lower(g.as_ref()));
                let stream = device.map(|d| d.stream(i % d.n_streams()));
                let op = LocalOp::Dense { g, stream };
                op.upload();
                op
            };
            let ops = dense.into_iter().enumerate().map(resident).collect();
            assembly.sim_s = device.map_or(0.0, |d| d.synchronize());
            FetiSolver::from_ops(problem, opts, Precision::F64, &backend, factors, ops, None)
        }
    };
    let report = PreprocessReport {
        factorization_s,
        assembly,
    };
    (solver, report)
}

/// Measure the per-iteration cost of applying the global dual operator:
/// `reps` × [`FetiSolver::apply_f`], each clock read once — host wall
/// seconds, and the simulated makespan over the solver's own devices (reset
/// first; 0 for a CPU backend or host-resident slots).
pub fn measure_apply_cost(solver: &FetiSolver<'_>, reps: usize) -> TwoClock {
    // any dense dual vector prices an application; the solver carries one
    let p = solver.dual_rhs();
    let devices = solver.backend().devices();
    devices.iter().for_each(|d| d.reset());
    let t = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(solver.apply_f(p));
    }
    let makespan = devices.iter().map(|d| d.synchronize());
    TwoClock {
        host_s: t.elapsed().as_secs_f64() / count(reps),
        sim_s: makespan.fold(0.0, f64::max) / count(reps),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_fem::Gluing;
    use sc_gpu::DeviceSpec;

    fn small_problem() -> HeatProblem {
        HeatProblem::build_2d(3, (2, 2), Gluing::Redundant)
    }

    #[test]
    fn all_approaches_produce_equivalent_operators() {
        let problem = small_problem();
        let device = Device::new(DeviceSpec::a100(), 2);
        let p: Vec<f64> = (0..problem.n_lambda).map(|k| count(k % 5) - 2.0).collect();
        let mut reference: Option<Vec<f64>> = None;
        for approach in DualOpApproach::ALL {
            let (solver, _) = preprocess_approach(&problem, approach, Some(&device));
            let q = solver.apply_f(&p);
            let r = reference.get_or_insert_with(|| q.clone());
            for (x, y) in r.iter().zip(&q) {
                assert!(
                    (x - y).abs() < 1e-7,
                    "{} deviates: {x} vs {y}",
                    approach.paper_name()
                );
            }
        }
    }

    /// Every row's timings sit on the clock its work ran on: CPU rows never
    /// move the simulated clock, the device assemblies report no host
    /// assembly seconds, the implicit rows time the factorization only.
    #[test]
    fn every_row_reports_on_its_own_clock() {
        let problem = small_problem();
        let device = Device::new(DeviceSpec::a100(), 2);
        for approach in DualOpApproach::ALL {
            let name = approach.paper_name();
            let (solver, report) = preprocess_approach(&problem, approach, Some(&device));
            let apply = measure_apply_cost(&solver, 3);
            assert!(report.factorization_s > 0.0, "{name}");
            assert!(apply.host_s > 0.0, "{name}");
            let assembly = report.assembly;
            if approach.uses_gpu() {
                assert!(assembly.sim_s > 0.0 && apply.sim_s > 0.0, "{name}");
                // the sparse-RHS producer of the hybrid row is host work
                let host_producer = approach == DualOpApproach::ExplHybrid;
                assert_eq!(assembly.host_s > 0.0, host_producer, "{name}");
            } else {
                assert_eq!((assembly.sim_s, apply.sim_s), (0.0, 0.0), "{name}");
                let implicit = matches!(
                    approach,
                    DualOpApproach::ImplMkl | DualOpApproach::ImplCholmod
                );
                assert_eq!(assembly.host_s > 0.0, !implicit, "{name}");
            }
        }
    }

    /// The simulated clock is a function of the problem, not of how many
    /// host threads ran the numerics: assembly and apply `sim_s` of every
    /// device row are bitwise the one-thread values on two threads, run
    /// after run.
    #[test]
    fn sim_clock_is_bitwise_repeatable_across_thread_counts() {
        let problems = [
            HeatProblem::build_3d(3, (2, 2, 2), Gluing::Redundant),
            HeatProblem::build_2d(8, (3, 3), Gluing::Redundant),
        ];
        let sim_bits = || -> Vec<(u64, u64)> {
            let rows = DualOpApproach::ALL.into_iter().filter(|a| a.uses_gpu());
            rows.flat_map(|approach| {
                problems.iter().map(move |problem| {
                    let device = Device::new(DeviceSpec::a100(), 4);
                    let (solver, report) = preprocess_approach(problem, approach, Some(&device));
                    let apply = measure_apply_cost(&solver, 3);
                    (report.assembly.sim_s.to_bits(), apply.sim_s.to_bits())
                })
            })
            .collect()
        };
        let one_thread = rayon::with_max_threads(1, sim_bits);
        for run in 0..5 {
            let two_threads = rayon::with_max_threads(2, sim_bits);
            assert_eq!(two_threads, one_thread, "two-thread run {run}");
        }
    }
}
