//! The shape of `paper fig8`'s simulated-clock table: at every size of
//! `paper fig8 --max-dofs 400`, in 2D and in 3D, the optimized assembly's
//! `sep` GPU section is no slower than the original's (`su_gpu_sep ≥ 1`).
//! The same computation as the figure: the 3×3 (2D) or 2×2×2 (3D) cluster,
//! simplicial factors in nested-dissection order, one `AssemblySession` per
//! configuration on a 4-stream A100 under the paper's round-robin schedule.

use sc_bench::workloads::{ladder_2d, ladder_3d};
use sc_core::{AssemblySession, Backend, FactorStorage, ScConfig, ScheduleOptions, StreamPolicy};
use sc_factor::Engine;
use sc_fem::{Gluing, HeatProblem};
use sc_feti::SubdomainFactors;
use sc_gpu::{Device, DeviceSpec};
use sc_order::Ordering;

const MAX_DOFS: usize = 400;

#[test]
fn optimized_sep_gpu_section_never_loses_at_fig8_sizes() {
    let device = Device::new(DeviceSpec::a100(), 4);
    let sep = ScheduleOptions::default().with_policy(StreamPolicy::RoundRobin);
    for dim in [2usize, 3] {
        let (ladder, orig_storage) = if dim == 2 {
            (ladder_2d(MAX_DOFS), FactorStorage::Sparse)
        } else {
            (ladder_3d(MAX_DOFS), FactorStorage::Dense)
        };
        assert!(!ladder.is_empty());
        for c in ladder {
            let problem = if dim == 2 {
                HeatProblem::build_2d(c, (3, 3), Gluing::Redundant)
            } else {
                HeatProblem::build_3d(c, (2, 2, 2), Gluing::Redundant)
            };
            let build =
                |sd| SubdomainFactors::build(sd, Engine::Simplicial, Ordering::NestedDissection);
            let factors: Vec<SubdomainFactors> = problem.subdomains.iter().map(build).collect();
            let makespan = |cfg: ScConfig| {
                device.reset();
                let backend = Backend::gpu_with(device.clone(), sep.clone());
                AssemblySession::new(backend, cfg)
                    .assemble(factors.as_slice())
                    .report
                    .makespan
            };
            let orig = makespan(ScConfig::original(orig_storage));
            let opt = makespan(ScConfig::optimized(true, dim == 3));
            let dofs = problem.dofs_per_subdomain();
            assert!(
                orig >= opt,
                "{dim}D at {dofs} dofs: su_gpu_sep = {:.4} (orig {orig:e} s, opt {opt:e} s)",
                orig / opt
            );
        }
    }
}
