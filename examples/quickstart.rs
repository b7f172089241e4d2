//! Quickstart: build a decomposed heat-transfer problem, assemble one
//! subdomain's Schur complement with the paper's optimized kernels, and solve
//! the whole thing with FETI.
//!
//! Run with: `cargo run --release --example quickstart`

use schur_dd::prelude::*;

fn main() {
    // 2D heat transfer on the unit square: 8x8 cells per subdomain,
    // 3x2 subdomains, redundant Lagrange-multiplier gluing.
    let problem = HeatProblem::build_2d(8, (3, 2), Gluing::Redundant);
    println!(
        "problem: {} subdomains, {} global dofs, {} Lagrange multipliers",
        problem.subdomains.len(),
        problem.n_free,
        problem.n_lambda
    );

    // --- assemble the Schur complement of one floating subdomain ---
    let sd = &problem.subdomains[1];
    let kreg = sc_feti::regularize_fixing_node(&sd.k, sd.kernel.as_deref(), sd.fixing_dof, None);
    let chol =
        SparseCholesky::factorize(&kreg, CholOptions::default()).expect("SPD after regularization");
    let bt_perm = sd.bt.permute_rows(chol.perm());

    let cfg = ScConfig::optimized(/* gpu: */ false, /* 3D: */ false);
    let f = assemble_sc(&mut CpuExec, chol.factor_csc_ref(), &bt_perm, &cfg);
    println!(
        "assembled local dual operator F̃: {}x{} (dense, symmetric), F̃[0,0] = {:.4}",
        f.nrows(),
        f.ncols(),
        f[(0, 0)]
    );

    // --- solve the full problem with FETI (implicit dual operator) ---
    // options are captured once at construction; solve() takes no arguments
    let solver = FetiSolverBuilder::new()
        .options(FetiOptions::default())
        .formulation(FormulationChoice::Implicit)
        .build(&problem);
    let solution = solver.solve();
    println!(
        "FETI solve: {} PCPG iterations, converged = {}, rel. residual = {:.2e}",
        solution.stats.iterations, solution.stats.converged, solution.stats.rel_residual
    );

    // --- verify against the undecomposed direct solve ---
    let (k, rhs) = problem.assemble_global();
    let direct = SparseCholesky::factorize(&k, CholOptions::default())
        .unwrap()
        .solve(&rhs);
    let u = problem.gather_global(&solution.u_locals);
    let err = u
        .iter()
        .zip(&direct)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!("max |u_feti - u_direct| = {err:.3e}");
    assert!(err < 1e-6, "FETI must match the direct solve");
    println!("OK");
}
