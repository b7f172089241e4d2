//! Property tests of the sparse Cholesky stack on random SPD matrices and
//! regularized FEM subdomains: the supernodal engine reproduces the
//! simplicial reference factor, orderings preserve solutions,
//! refactorization is exact, breakdowns are reported, the relaxed
//! supernode partition is structurally sound, and the solver's supernodal
//! triangular sweeps reproduce the plain CSC column sweeps.

use proptest::prelude::*;
use sc_dense::Scalar;
use sc_factor::symbolic::analyze;
use sc_factor::{
    simplicial_factorize, CholOptions, Engine, SparseCholesky, SparseCholeskyOf,
    SupernodalSymbolic, Symbolic,
};
use sc_fem::{Gluing, HeatProblem, Subdomain};
use sc_order::Ordering;
use sc_sparse::{csc_lower_solve, csc_lower_t_solve, Coo, Csc, CscOf, SupernodeRuns};

fn spd_strategy(n: usize) -> impl Strategy<Value = Csc> {
    proptest::collection::vec((0usize..n, 0usize..n, 0.05f64..1.0), n..(4 * n)).prop_map(
        move |entries| {
            let mut coo = Coo::new(n, n);
            let mut diag = vec![1.0f64; n];
            for (i, j, v) in entries {
                if i != j {
                    coo.push(i, j, -v);
                    coo.push(j, i, -v);
                    diag[i] += v;
                    diag[j] += v;
                }
            }
            for (i, d) in diag.iter().enumerate() {
                coo.push(i, i, d + 0.1);
            }
            coo.to_csc()
        },
    )
}

/// `a` with the stored entry `(i, j)` set to `v`.
fn with_entry(a: &Csc, (i, j): (usize, usize), v: f64) -> Csc {
    let mut a = a.clone();
    let at = a.col_ptr()[j] + a.col(j).0.binary_search(&i).expect("stored entry");
    a.values_mut()[at] = v;
    a
}

/// `K_reg` of a subdomain: the fixing-node regularization of `sc_feti`
/// (largest diagonal entry added at the fixing dof of a floating subdomain).
fn regularized(sd: &Subdomain) -> Csc {
    if sd.kernel.is_none() {
        return sd.k.clone();
    }
    let rho = (0..sd.k.ncols())
        .map(|j| sd.k.get(j, j))
        .fold(0.0f64, f64::max);
    let f = sd.fixing_dof;
    with_entry(&sd.k, (f, f), sd.k.get(f, f) + rho)
}

/// `max |x − y| / max |y|` over the stored values, in `f64`.
fn rel_diff<S: Scalar>(x: &CscOf<S>, y: &CscOf<S>) -> f64 {
    let (mut d, mut scale) = (0.0f64, 0.0f64);
    for (a, b) in x.values().iter().zip(y.values()) {
        d = d.max((a.to_f64() - b.to_f64()).abs());
        scale = scale.max(b.to_f64().abs());
    }
    d / scale
}

/// The differential check of the supernodal engine against the simplicial
/// reference on one matrix at one precision: same pattern as the symbolic
/// analysis, values within `tol` (relative), and a refactorization that is
/// bitwise the fresh factorization.
fn check_against_simplicial<S: Scalar>(a: &CscOf<S>, tol: f64) -> Result<(), String> {
    let perm = Ordering::NestedDissection.compute(a);
    let mut chol = SparseCholeskyOf::factorize_with_perm(a, perm.clone(), Engine::Supernodal)
        .map_err(|e| e.to_string())?;
    let sym = chol.symbolic();
    let l = chol.factor_csc();
    if l.col_ptr() != sym.col_ptr() || l.row_idx() != sym.row_idx() {
        return Err("factor pattern differs from the symbolic analysis".into());
    }
    let reference = simplicial_factorize(&a.sym_perm(&perm), sym).map_err(|e| e.to_string())?;
    let d = rel_diff(&l, &reference);
    if d.is_nan() || d > tol {
        return Err(format!(
            "factor differs from the reference by {d:e} > {tol:e}"
        ));
    }
    chol.refactorize(a).map_err(|e| e.to_string())?;
    if chol.factor_csc_ref() != &l {
        return Err("refactorize is not bitwise the fresh factorization".into());
    }
    Ok(())
}

#[test]
fn supernodal_matches_simplicial_on_regularized_subdomains() {
    // 3D c10: the fronts under the root take the blocked dense route
    for prob in [
        HeatProblem::build_2d(24, (2, 1), Gluing::Redundant),
        HeatProblem::build_3d(10, (2, 1, 1), Gluing::Redundant),
    ] {
        for (i, sd) in prob.subdomains.iter().enumerate() {
            let k = regularized(sd);
            check_against_simplicial(&k, 1e-12)
                .unwrap_or_else(|e| panic!("{}D subdomain {i}, f64: {e}", prob.dim));
            check_against_simplicial(&k.cast::<f32>(), 1e-4)
                .unwrap_or_else(|e| panic!("{}D subdomain {i}, f32: {e}", prob.dim));
        }
    }
}

/// The solver's supernodal sweeps against the plain CSC column sweeps on its
/// own factor, for both engines at precision `S`: the runs are the
/// verified ones, the forward sweep agrees to `fwd_tol` (`0.0`: bitwise), the
/// backward sweep to `bwd_tol` (relative to the largest entry), and a
/// refactorization keeps the runs.
fn check_sweeps_against_csc<S: Scalar>(
    a: &CscOf<S>,
    fwd_tol: f64,
    bwd_tol: f64,
) -> Result<(), String> {
    let perm = Ordering::NestedDissection.compute(a);
    let n = a.ncols();
    let rel_diff = |got: &[S], want: &[S]| {
        let scale = want
            .iter()
            .fold(f64::MIN_POSITIVE, |m, v| m.max(v.to_f64().abs()));
        let diff = got
            .iter()
            .zip(want)
            .map(|(g, w)| (g.to_f64() - w.to_f64()).abs());
        diff.fold(0.0, f64::max) / scale
    };
    for engine in [Engine::Simplicial, Engine::Supernodal] {
        let mut chol = SparseCholeskyOf::factorize_with_perm(a, perm.clone(), engine)
            .map_err(|e| e.to_string())?;
        let runs = chol.supernode_runs().clone();
        if Ok(&runs) != SupernodeRuns::verified(chol.factor_csc_ref()).as_ref() {
            return Err(format!(
                "{engine:?}: the O(n) runs are not the verified ones"
            ));
        }
        let mut want: Vec<S> = (0..n)
            .map(|i| S::from_f64(((i * 7 % 13) as f64) * 0.5 - 3.0))
            .collect();
        let mut got = want.clone();
        csc_lower_solve(chol.factor_csc_ref(), &mut want);
        chol.solve_fwd_permuted(&mut got);
        let d = rel_diff(&got, &want);
        if d.is_nan() || d > fwd_tol {
            return Err(format!(
                "{engine:?}: forward sweep off by {d:e} > {fwd_tol:e}"
            ));
        }
        got.copy_from_slice(&want);
        csc_lower_t_solve(chol.factor_csc_ref(), &mut want);
        chol.solve_bwd_permuted(&mut got);
        let d = rel_diff(&got, &want);
        if d.is_nan() || d > bwd_tol {
            return Err(format!(
                "{engine:?}: backward sweep off by {d:e} > {bwd_tol:e}"
            ));
        }
        chol.refactorize(a).map_err(|e| e.to_string())?;
        if chol.supernode_runs() != &runs {
            return Err(format!("{engine:?}: refactorize changed the runs"));
        }
    }
    Ok(())
}

#[test]
fn supernodal_sweeps_match_csc_sweeps_on_regularized_subdomains() {
    for prob in [
        HeatProblem::build_2d(24, (2, 1), Gluing::Redundant),
        HeatProblem::build_3d(10, (2, 1, 1), Gluing::Redundant),
    ] {
        for (i, sd) in prob.subdomains.iter().enumerate() {
            let k = regularized(sd);
            check_sweeps_against_csc(&k, 0.0, 1e-12)
                .unwrap_or_else(|e| panic!("{}D subdomain {i}, f64: {e}", prob.dim));
            check_sweeps_against_csc(&k.cast::<f32>(), 0.0, 1e-4)
                .unwrap_or_else(|e| panic!("{}D subdomain {i}, f32: {e}", prob.dim));
        }
    }
}

/// Every structural property the numeric phase relies on.
fn check_partition(sym: &Symbolic) {
    let ssym = SupernodalSymbolic::from_symbolic(sym);
    let mut owner = vec![usize::MAX; sym.n];
    for f in 0..ssym.nfronts() {
        let (cols, tail) = (ssym.cols(f), ssym.tail(f, sym));
        assert!(!cols.is_empty(), "front {f} has no pivot");
        let rows: Vec<usize> = cols.iter().chain(tail).copied().collect();
        assert!(
            rows.windows(2).all(|w| w[0] < w[1]),
            "front {f} rows not ascending"
        );
        for (k, &c) in cols.iter().enumerate() {
            assert_eq!(owner[c], usize::MAX, "column {c} in two fronts");
            owner[c] = f;
            // a pivot column's factor pattern lives at or below it in the front
            assert!(
                sym.col(c).iter().all(|g| rows[k..].contains(g)),
                "column {c} leaves front {f}"
            );
        }
        match ssym.parent(f) {
            None => assert!(tail.is_empty(), "root front {f} has a tail"),
            Some(p) => {
                assert!(
                    p > f && p < ssym.nfronts(),
                    "front {f} not before its parent {p}"
                );
                let prows: Vec<usize> = ssym
                    .cols(p)
                    .iter()
                    .chain(ssym.tail(p, sym))
                    .copied()
                    .collect();
                assert!(
                    tail.iter().all(|g| prows.contains(g)),
                    "tail of {f} leaves parent {p}"
                );
                assert!(
                    ssym.cols(p).contains(&tail[0]),
                    "parent {p} does not eliminate tail[0] of {f}"
                );
            }
        }
    }
    assert!(
        owner.iter().all(|&f| f != usize::MAX),
        "a column has no front"
    );
}

fn dense_pattern(n: usize) -> Csc {
    let mut c = Coo::new(n, n);
    for i in 0..n {
        for j in 0..n {
            c.push(i, j, if i == j { 2.0 * n as f64 } else { 1.0 });
        }
    }
    c.to_csc()
}

#[test]
fn relaxed_partition_edge_cases() {
    // 1 x 1
    let sym = analyze(&dense_pattern(1));
    check_partition(&sym);
    let ssym = SupernodalSymbolic::from_symbolic(&sym);
    assert_eq!(
        (ssym.nfronts(), ssym.cols(0), ssym.parent(0)),
        (1, &[0][..], None)
    );
    check_against_simplicial(&dense_pattern(1), 0.0).unwrap();
    // dense: one front holding every column
    let sym = analyze(&dense_pattern(9));
    check_partition(&sym);
    let ssym = SupernodalSymbolic::from_symbolic(&sym);
    assert_eq!(ssym.nfronts(), 1);
    assert_eq!(ssym.cols(0), (0..9).collect::<Vec<_>>());
    // diagonal: a forest of single-column roots
    let sym = analyze(&Csc::identity(5));
    check_partition(&sym);
    assert_eq!(SupernodalSymbolic::from_symbolic(&sym).nfronts(), 5);
    // FEM subdomains; minimum degree interleaves sibling subtrees, so its
    // merged fronts have gaps in their pivot lists
    for prob in [
        HeatProblem::build_2d(12, (1, 1), Gluing::Redundant),
        HeatProblem::build_3d(5, (1, 1, 1), Gluing::Redundant),
    ] {
        let k = &prob.subdomains[0].k;
        for ordering in [Ordering::NestedDissection, Ordering::MinimumDegree] {
            check_partition(&analyze(&k.sym_perm(&ordering.compute(k))));
        }
    }
}

/// A grid Laplacian in minimum-degree order (which interleaves the columns
/// of sibling subtrees) plus a pivot column that sits strictly inside a
/// front whose pivot list has a gap before it — where "first column + local
/// pivot" names the wrong column.
fn matrix_with_inner_pivot() -> (Csc, usize) {
    let prob = HeatProblem::build_2d(12, (1, 1), Gluing::Redundant);
    let k = &prob.subdomains[0].k;
    let ap = k.sym_perm(&Ordering::MinimumDegree.compute(k));
    let sym = analyze(&ap);
    let ssym = SupernodalSymbolic::from_symbolic(&sym);
    let column = (0..ssym.nfronts())
        .find_map(|f| {
            let cols = ssym.cols(f);
            (1..cols.len().saturating_sub(1))
                .find(|&k| cols[k] != cols[0] + k)
                .map(|k| cols[k])
        })
        .expect("some relaxed front has a gap before an inner pivot");
    (ap, column)
}

#[test]
fn both_engines_report_the_same_breakdown_column() {
    let (ap, column) = matrix_with_inner_pivot();
    let bad = with_entry(&ap, (column, column), -1.0);
    for engine in [Engine::Simplicial, Engine::Supernodal] {
        let natural = Ordering::Natural.compute(&bad);
        let err = SparseCholesky::factorize_with_perm(&bad, natural, engine)
            .err()
            .unwrap_or_else(|| panic!("{engine:?} factorized an indefinite matrix"));
        assert_eq!(err.column, column, "{engine:?}");
        assert!(err.value < 0.0, "{engine:?}");
    }
}

#[test]
fn non_finite_entries_are_an_error_in_both_engines() {
    let (ap, column) = matrix_with_inner_pivot();
    let below = ap.col(column).0[ap.col(column).0.binary_search(&column).unwrap() + 1];
    for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        for at in [(column, column), (below, column)] {
            let mut bad = with_entry(&ap, at, poison);
            bad = with_entry(&bad, (at.1, at.0), poison);
            for engine in [Engine::Simplicial, Engine::Supernodal] {
                let natural = Ordering::Natural.compute(&bad);
                assert!(
                    SparseCholesky::factorize_with_perm(&bad, natural, engine).is_err(),
                    "{engine:?} accepted {poison} at {at:?}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn engines_agree_on_solutions(a in spd_strategy(30)) {
        if let Err(e) = check_against_simplicial(&a, 1e-12) {
            return Err(TestCaseError::fail(format!("f64: {e}")));
        }
        if let Err(e) = check_against_simplicial(&a.cast::<f32>(), 1e-4) {
            return Err(TestCaseError::fail(format!("f32: {e}")));
        }
        check_partition(&analyze(&a));
        if let Err(e) = check_sweeps_against_csc(&a, 0.0, 1e-12) {
            return Err(TestCaseError::fail(format!("f64 sweeps: {e}")));
        }
        if let Err(e) = check_sweeps_against_csc(&a.cast::<f32>(), 0.0, 1e-4) {
            return Err(TestCaseError::fail(format!("f32 sweeps: {e}")));
        }
        let b: Vec<f64> = (0..30).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let xs = SparseCholesky::factorize(&a, CholOptions {
            ordering: Ordering::NestedDissection,
            engine: Engine::Simplicial,
        }).unwrap().solve(&b);
        let xm = SparseCholesky::factorize(&a, CholOptions {
            ordering: Ordering::NestedDissection,
            engine: Engine::Supernodal,
        }).unwrap().solve(&b);
        for i in 0..30 {
            prop_assert!((xs[i] - xm[i]).abs() < 1e-7, "at {}: {} vs {}", i, xs[i], xm[i]);
        }
    }

    #[test]
    fn solve_residual_small_for_every_ordering(a in spd_strategy(25)) {
        let n = 25;
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        for ordering in [Ordering::Natural, Ordering::Rcm, Ordering::NestedDissection] {
            let x = SparseCholesky::factorize(&a, CholOptions {
                ordering,
                engine: Engine::Simplicial,
            }).unwrap().solve(&b);
            let mut r = vec![0.0; n];
            a.spmv(1.0, &x, 0.0, &mut r);
            for i in 0..n {
                prop_assert!((r[i] - b[i]).abs() < 1e-7, "{:?} residual at {}", ordering, i);
            }
        }
    }

    #[test]
    fn refactorization_tracks_scaling(a in spd_strategy(20), scale in 0.5f64..4.0) {
        let n = 20;
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
        let mut chol = SparseCholesky::factorize(&a, CholOptions::default()).unwrap();
        let x1 = chol.solve(&b);
        let mut a2 = a.clone();
        for v in a2.values_mut() {
            *v *= scale;
        }
        chol.refactorize(&a2).unwrap();
        let x2 = chol.solve(&b);
        // (s A) x2 = b  =>  x2 = x1 / s
        for i in 0..n {
            prop_assert!((x2[i] * scale - x1[i]).abs() < 1e-7);
        }
    }
}
