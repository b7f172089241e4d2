//! End-to-end integration tests: the full FETI pipeline against direct
//! solves, across formulations, backends, engines, orderings, and
//! dimensions — all through the composable `FetiSolverBuilder` surface.

use schur_dd::prelude::*;
use std::sync::Arc;

fn direct(problem: &HeatProblem) -> Vec<f64> {
    let (k, f) = problem.assemble_global();
    SparseCholesky::factorize(&k, CholOptions::default())
        .unwrap()
        .solve(&f)
}

fn check(problem: &HeatProblem, solver: &FetiSolver<'_>) {
    let sol = solver.solve();
    assert!(
        sol.stats.converged,
        "PCPG did not converge: {:?}",
        sol.stats
    );
    let u = problem.gather_global(&sol.u_locals);
    let d = direct(problem);
    let scale = d.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
    for i in 0..u.len() {
        assert!(
            (u[i] - d[i]).abs() < 1e-6 * scale,
            "dof {i}: {} vs {}",
            u[i],
            d[i]
        );
    }
}

fn explicit<'p>(problem: &'p HeatProblem, backend: Backend, cfg: ScConfig) -> FetiSolver<'p> {
    FetiSolverBuilder::new()
        .backend(backend)
        .formulation(FormulationChoice::Explicit)
        .assembly(cfg)
        .build(problem)
}

#[test]
fn implicit_2d_various_decompositions() {
    for (c, subs) in [(3, (2, 2)), (4, (3, 2)), (5, (1, 3))] {
        let p = HeatProblem::build_2d(c, subs, Gluing::Redundant);
        check(&p, &FetiSolverBuilder::new().build(&p));
    }
}

#[test]
fn implicit_3d() {
    let p = HeatProblem::build_3d(3, (2, 2, 2), Gluing::Redundant);
    check(&p, &FetiSolverBuilder::new().build(&p));
}

#[test]
fn explicit_cpu_all_configs_2d() {
    let p = HeatProblem::build_2d(4, (2, 2), Gluing::Redundant);
    for cfg in [
        ScConfig::original(FactorStorage::Sparse),
        ScConfig::original(FactorStorage::Dense),
        ScConfig::optimized(false, false),
        ScConfig::optimized(false, true),
    ] {
        check(&p, &explicit(&p, Backend::cpu(), cfg));
    }
}

#[test]
fn explicit_gpu_3d_with_multiple_streams() {
    let p = HeatProblem::build_3d(3, (2, 1, 2), Gluing::Redundant);
    let dev = Device::new(DeviceSpec::a100(), 3);
    let solver = explicit(
        &p,
        Backend::gpu(Arc::clone(&dev)),
        ScConfig::optimized(true, true),
    );
    check(&p, &solver);
    assert!(dev.launches() > 0);
}

#[test]
fn simplicial_engine_full_pipeline() {
    let p = HeatProblem::build_2d(5, (2, 2), Gluing::Redundant);
    let solver = FetiSolverBuilder::new()
        .options(FetiOptions::default().with_engine(Engine::Simplicial))
        .formulation(FormulationChoice::Explicit)
        .assembly(ScConfig::optimized(false, false))
        .build(&p);
    check(&p, &solver);
}

#[test]
fn chain_gluing_full_pipeline() {
    let p = HeatProblem::build_2d(4, (3, 2), Gluing::Chain);
    check(&p, &FetiSolverBuilder::new().build(&p));
}

#[test]
fn rcm_and_natural_orderings_work_end_to_end() {
    let p = HeatProblem::build_2d(3, (2, 2), Gluing::Redundant);
    for ordering in [Ordering::Rcm, Ordering::Natural, Ordering::MinimumDegree] {
        let solver = FetiSolverBuilder::new()
            .options(FetiOptions::default().with_ordering(ordering))
            .formulation(FormulationChoice::Explicit)
            .assembly(ScConfig::optimized(false, false))
            .build(&p);
        check(&p, &solver);
    }
}

#[test]
fn all_dual_approaches_are_interchangeable() {
    // every Table-2 row is a recipe for the one solver: the handle
    // `preprocess_approach` returns runs PCPG to the direct solution
    let p = HeatProblem::build_2d(3, (2, 2), Gluing::Redundant);
    let device = Device::new(DeviceSpec::a100(), 2);
    for approach in DualOpApproach::ALL {
        println!("{}", approach.paper_name()); // names the row a failing `check` is in
        let (solver, _) = preprocess_approach(&p, approach, Some(&device));
        check(&p, &solver);
    }
}

#[test]
fn solution_is_physical() {
    // unit source, zero Dirichlet at x=0: temperature must be positive and
    // increase monotonically with x along the centerline
    let p = HeatProblem::build_2d(6, (2, 1), Gluing::Redundant);
    let solver = FetiSolverBuilder::new().build(&p);
    let sol = solver.solve();
    let u = p.gather_global(&sol.u_locals);
    assert!(u.iter().all(|&v| v > 0.0), "temperature must be positive");
}

#[test]
fn multi_rhs_handle_amortizes_preprocessing() {
    // one preprocessed handle serves many load cases; each solve matches
    // the direct solution of its own loads
    let p = HeatProblem::build_2d(4, (2, 2), Gluing::Redundant);
    let solver = explicit(&p, Backend::cpu(), ScConfig::optimized(false, false));
    let base = direct(&p);
    let scale = base.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
    for k in 1..=4 {
        let alpha = k as f64 * 0.75;
        let loads: Vec<Vec<f64>> = p
            .subdomains
            .iter()
            .map(|sd| sd.f.iter().map(|v| alpha * v).collect())
            .collect();
        let sol = solver.solve_rhs(&loads);
        assert!(sol.stats.converged, "rhs {k}: {:?}", sol.stats);
        let u = p.gather_global(&sol.u_locals);
        for i in 0..u.len() {
            assert!(
                (u[i] - alpha * base[i]).abs() < 1e-6 * scale * alpha.max(1.0),
                "rhs {k}, dof {i}: {} vs {}",
                u[i],
                alpha * base[i]
            );
        }
    }
}
