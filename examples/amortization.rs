//! Amortization-point explorer (the paper's Figure 10 in miniature): when
//! does paying for the explicit Schur complement assembly beat the implicit
//! dual operator? Answered once per clock — measured host wall time for the
//! CPU kernels, simulated device time for the GPU ones.
//!
//! Run with: `cargo run --release --example amortization`

use sc_feti::measure_apply_cost;
use schur_dd::prelude::*;

fn main() {
    let problem = HeatProblem::build_3d(6, (2, 2, 1), Gluing::Redundant);
    let device = Device::new(DeviceSpec::a100(), 4);
    println!(
        "3D problem: {} subdomains of {} dofs\n",
        problem.subdomains.len(),
        problem.dofs_per_subdomain()
    );

    // the implicit operator against two explicit ones: the stepped CPU
    // kernels (every number a measured wall second) and the stepped kernels
    // on the simulated GPU (simulated A100 seconds). The two clocks are
    // never added: one table each
    let (implicit, impl_pre) = preprocess_approach(&problem, DualOpApproach::ImplCholmod, None);
    let impl_apply = measure_apply_cost(&implicit, 5);
    let (cpu, cpu_pre) = preprocess_approach(&problem, DualOpApproach::ExplCpuOpt, None);
    let cpu_apply = measure_apply_cost(&cpu, 5);
    let (gpu, gpu_pre) = preprocess_approach(&problem, DualOpApproach::ExplGpuOpt, Some(&device));
    let gpu_apply = measure_apply_cost(&gpu, 5);
    // on the sim clock the implicit apply is the §4.4 estimate of Eq. 11
    // priced on the host spec (what the hybrid planner decides with); the
    // factorization, which both sides share, has no sim price and is left out
    let host = DeviceSpec::host();
    let eq11_sim: f64 = (implicit.factors().iter().enumerate())
        .map(|(i, f)| estimate_apply(f.chol.factor_csc_ref(), &f.bt_perm, i))
        .map(|a| a.implicit_seconds_on(&host))
        .sum();

    // one clock's table from the (preprocessing, apply) seconds of each side
    let table = |clock: &str, implicit: (f64, f64), explicit: (f64, f64)| {
        println!("\n{clock} clock\niterations | implicit total | explicit total | winner");
        let mut amortized_at = None;
        for k in [1usize, 2, 5, 10, 20, 50, 100, 500, 1000] {
            let ti = implicit.0 + k as f64 * implicit.1;
            let te = explicit.0 + k as f64 * explicit.1;
            let winner = if te < ti { "explicit" } else { "implicit" };
            if te < ti && amortized_at.is_none() {
                amortized_at = Some(k);
            }
            println!(
                "{k:10} | {:11.4} ms | {:11.4} ms | {winner}",
                ti * 1e3,
                te * 1e3
            );
        }
        match amortized_at {
            Some(k) => println!("explicit amortizes within {k} iterations on this grid"),
            None => println!("explicit did not amortize within 1000 iterations at this size"),
        }
    };
    let cpu_pre_s = cpu_pre.factorization_s + cpu_pre.assembly.host_s;
    table(
        "host",
        (impl_pre.factorization_s, impl_apply.host_s),
        (cpu_pre_s, cpu_apply.host_s),
    );
    table(
        "sim",
        (0.0, eq11_sim),
        (gpu_pre.assembly.sim_s, gpu_apply.sim_s),
    );
    println!("(paper: the GPU assembly amortizes in ~10 iterations for 3D subdomains)");

    // --- the other amortization axis: many right-hand sides --------------
    // preprocessing (factorization + explicit assembly) happens once per
    // FetiSolver handle; solve_rhs() reuses it for every new load case
    let n_rhs = 8;
    let build = || {
        FetiSolverBuilder::new()
            .backend(Backend::cpu())
            .formulation(FormulationChoice::Explicit)
            .assembly(ScConfig::optimized(false, true))
            .build(&problem)
    };
    let solve = |solver: &FetiSolver<'_>, k: usize| {
        let scale = 1.0 + 0.1 * k as f64;
        let subdomains = problem.subdomains.iter();
        let loads: Vec<Vec<f64>> = subdomains
            .map(|sd| sd.f.iter().map(|v| v * scale).collect())
            .collect();
        assert!(solver.solve_rhs(&loads).stats.converged);
    };
    // the one-time preprocessing counts against the reuse side, like the
    // gated headline row: one build + N solves vs N × (build + solve)
    let t0 = std::time::Instant::now();
    let solver = build();
    (0..n_rhs).for_each(|k| solve(&solver, k));
    let reuse = t0.elapsed().as_secs_f64();
    let t1 = std::time::Instant::now();
    (0..n_rhs).for_each(|k| solve(&build(), k));
    let naive = t1.elapsed().as_secs_f64();
    println!(
        "\nmulti-RHS reuse over {n_rhs} load cases: one preprocessed handle {:.3} s \
         vs re-preprocessing every solve {:.3} s ({:.1}x)",
        reuse,
        naive,
        naive / reuse
    );
}
