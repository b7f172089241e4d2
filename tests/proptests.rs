//! Property-based tests (proptest) on the core invariants: stepped-shape
//! permutation, TRSM/SYRK splitting correctness on arbitrary patterns,
//! permutation algebra, sparse Cholesky reconstruction, the temp pool,
//! and the mixed-precision refinement loop (solves whose inner applies run
//! in f32 must reach f64-level accuracy on randomized 2D/3D decompositions,
//! and the default f64 path must not move a bit).

use proptest::prelude::*;
use schur_dd::prelude::*;
use schur_dd::sc_core::{run_syrk_variant, run_trsm_variant};
use schur_dd::sc_sparse::{pattern, Coo};

/// Random sparse SPD matrix via diagonally dominant construction.
fn spd_strategy(n: usize) -> impl Strategy<Value = Csc> {
    proptest::collection::vec((0usize..n, 0usize..n, -1.0f64..1.0), 0..(n * 4)).prop_map(
        move |entries| {
            let mut coo = Coo::new(n, n);
            let mut diag = vec![1.0f64; n];
            for (i, j, v) in entries {
                if i != j {
                    coo.push(i, j, v);
                    coo.push(j, i, v);
                    diag[i] += v.abs();
                    diag[j] += v.abs();
                }
            }
            for (i, d) in diag.iter().enumerate() {
                coo.push(i, i, *d + 0.5);
            }
            coo.to_csc()
        },
    )
}

/// Random gluing-like B̃ᵀ: one or a few ±1 entries per column.
fn bt_strategy(n: usize, m: usize) -> impl Strategy<Value = Csc> {
    proptest::collection::vec((0usize..n, prop::bool::ANY), m..=m).prop_map(move |cols| {
        let mut coo = Coo::new(n, m);
        for (j, (row, sign)) in cols.into_iter().enumerate() {
            coo.push(row, j, if sign { 1.0 } else { -1.0 });
        }
        coo.to_csc()
    })
}

/// Gluing seeded on the first one to `max_seeds − 1` of `n` DOFs, so the
/// elimination-tree closure of its rows is mostly a strict subset.
fn seeded_bt_strategy(n: usize, max_seeds: usize, m: usize) -> impl Strategy<Value = Csc> {
    (1usize..max_seeds, bt_strategy(max_seeds, m)).prop_map(move |(seeds, bt)| {
        let mut coo = Coo::new(n, m);
        for j in 0..m {
            let (rows, vals) = bt.col(j);
            coo.push(rows[0] % seeds, j, vals[0]);
        }
        coo.to_csc()
    })
}

/// Solve `problem` at `Precision::F32Refined` (implicit or explicit
/// operators) and require the primal solution to match the direct f64
/// solve at the f64-level tolerance the pipeline tests use.
fn refined_solve_matches_direct(problem: &HeatProblem, explicit: bool) -> bool {
    let mut builder = FetiSolverBuilder::new().precision(Precision::F32Refined);
    if explicit {
        builder = builder
            .formulation(FormulationChoice::Explicit)
            .assembly(ScConfig::optimized(false, false));
    }
    let sol = builder.build(problem).solve();
    let refinement = match sol.refinement {
        Some(r) => r,
        None => return false, // the f32 path must report its refinement
    };
    if !sol.stats.converged || refinement.fell_back {
        return false;
    }
    let (k, f) = problem.assemble_global();
    let direct = SparseCholesky::factorize(&k, CholOptions::default())
        .unwrap()
        .solve(&f);
    let u = problem.gather_global(&sol.u_locals);
    let scale = direct.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
    u.iter()
        .zip(&direct)
        .all(|(a, b)| (a - b).abs() < 1e-6 * scale)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn stepped_permutation_always_sorts_pivots(bt in bt_strategy(20, 12)) {
        let stepped = SteppedRhs::new(&bt);
        prop_assert!(pattern::is_stepped(&stepped.bt));
        // the permutation only relabels columns: stepped column `js` is
        // `bt`'s column `old_of_new(js)`, and the relabeling round-trips
        for js in 0..stepped.ncols() {
            let jo = stepped.col_perm.old_of_new(js);
            prop_assert_eq!(stepped.col_perm.new_of_old(jo), js);
            prop_assert_eq!(stepped.bt.col(js), bt.col(jo));
        }
    }

    #[test]
    fn sc_assembly_invariant_under_all_configs(
        a in spd_strategy(18),
        bt in bt_strategy(18, 9),
        seeded in seeded_bt_strategy(18, 6, 9),
        trsm_block in 1usize..20,
        syrk_block in 1usize..20,
        prune in prop::bool::ANY,
    ) {
        let chol = SparseCholesky::factorize(&a, CholOptions::default()).unwrap();
        let l = chol.factor_csc();
        for bt in [bt, seeded] {
            let bt_perm = bt.permute_rows(chol.perm());
            let reference = assemble_sc(
                &mut CpuExec, &l, &bt_perm, &ScConfig::original(FactorStorage::Sparse));
            for trsm in [
                TrsmVariant::FactorSplit { block: BlockParam::Size(trsm_block), prune },
                TrsmVariant::FactorSplit { block: BlockParam::Size(trsm_block), prune: !prune },
            ] {
                for syrk in [
                    SyrkVariant::Plain,
                    SyrkVariant::InputSplit(BlockParam::Size(syrk_block)),
                ] {
                    for storage in [FactorStorage::Sparse, FactorStorage::Dense] {
                        let cfg = ScConfig::Fixed(ScParams {
                            trsm, syrk, factor_storage: storage, stepped_permutation: true,
                        });
                        let f = assemble_sc(&mut CpuExec, &l, &bt_perm, &cfg);
                        let d = sc_dense::max_abs_diff(f.as_ref(), reference.as_ref());
                        prop_assert!(d < 1e-8, "{:?}/{:?}/{:?}: {}", trsm, syrk, storage, d);
                    }
                }
            }
        }
    }

    #[test]
    fn trsm_variants_preserve_zeros_above_pivots(
        a in spd_strategy(16),
        bt in bt_strategy(16, 8),
        block in 1usize..18,
    ) {
        let chol = SparseCholesky::factorize(&a, CholOptions::default()).unwrap();
        let l = chol.factor_csc();
        let stepped = SteppedRhs::new(&bt.permute_rows(chol.perm()));
        for variant in [
            TrsmVariant::Plain,
            TrsmVariant::FactorSplit { block: BlockParam::Size(block), prune: false },
            TrsmVariant::FactorSplit { block: BlockParam::Size(block), prune: true },
        ] {
            let mut y = stepped.to_dense();
            run_trsm_variant(
                &mut CpuExec, &l, &stepped, FactorStorage::Sparse, variant, &mut y);
            for j in 0..stepped.ncols() {
                for i in 0..stepped.pivots[j] {
                    prop_assert_eq!(y[(i, j)], 0.0, "zero destroyed at ({},{})", i, j);
                }
            }
        }
    }

    #[test]
    fn syrk_variants_agree_on_random_stepped_input(
        bt in bt_strategy(20, 10),
        block in 1usize..22,
    ) {
        let stepped = SteppedRhs::new(&bt);
        let n = stepped.nrows();
        let m = stepped.ncols();
        // fill below pivots deterministically
        let mut y = Mat::zeros(n, m);
        for j in 0..m {
            for i in stepped.pivots[j]..n {
                y[(i, j)] = ((i * 31 + j * 7) % 11) as f64 - 5.0;
            }
        }
        let mut reference = Mat::zeros(m, m);
        run_syrk_variant(&mut CpuExec, &y, &stepped, SyrkVariant::Plain, &mut reference);
        for variant in [
            SyrkVariant::InputSplit(BlockParam::Size(block)),
            SyrkVariant::InputSplit(BlockParam::Count(block)),
        ] {
            let mut f = Mat::zeros(m, m);
            run_syrk_variant(&mut CpuExec, &y, &stepped, variant, &mut f);
            for j in 0..m {
                for i in j..m {
                    prop_assert!((f[(i, j)] - reference[(i, j)]).abs() < 1e-10);
                }
            }
        }
    }

    #[test]
    fn sparse_cholesky_reconstructs_random_spd(a in spd_strategy(24)) {
        for engine in [Engine::Simplicial, Engine::Supernodal] {
            let chol = SparseCholesky::factorize(
                &a,
                CholOptions { ordering: Ordering::NestedDissection, engine },
            ).unwrap();
            let l = chol.factor_csc().to_dense();
            let ap = a.sym_perm(chol.perm()).to_dense();
            let n = a.ncols();
            for i in 0..n {
                for j in 0..=i {
                    let mut s = 0.0;
                    for k in 0..=j {
                        s += l[(i, k)] * l[(j, k)];
                    }
                    prop_assert!((s - ap[(i, j)]).abs() < 1e-8,
                        "{:?} LLᵀ mismatch at ({},{})", engine, i, j);
                }
            }
        }
    }

    #[test]
    fn f32_refined_solves_reach_f64_tolerance_2d(
        cells in 2usize..6,
        sx in 2usize..4,
        sy in 1usize..3,
        explicit in prop::bool::ANY,
        chain in prop::bool::ANY,
    ) {
        let gluing = if chain { Gluing::Chain } else { Gluing::Redundant };
        let p = HeatProblem::build_2d(cells, (sx, sy), gluing);
        prop_assert!(refined_solve_matches_direct(&p, explicit));
    }

    #[test]
    fn f32_refined_solves_reach_f64_tolerance_3d(
        cells in 2usize..4,
        shape in 0usize..3,
        explicit in prop::bool::ANY,
    ) {
        let subs = [(2, 1, 1), (2, 2, 1), (1, 1, 3)][shape];
        let p = HeatProblem::build_3d(cells, subs, Gluing::Redundant);
        prop_assert!(refined_solve_matches_direct(&p, explicit));
    }

    #[test]
    fn f64_solution_ignores_the_precision_plumbing_bitwise(
        cells in 2usize..6,
        sx in 2usize..4,
    ) {
        let p = HeatProblem::build_2d(cells, (sx, 2), Gluing::Redundant);
        let base = FetiSolverBuilder::new().build(&p).solve();
        let pinned = FetiSolverBuilder::new()
            .precision(Precision::F64)
            .build(&p)
            .solve();
        prop_assert!(base.refinement.is_none() && pinned.refinement.is_none());
        // spelling the default precision out loud must not move a single bit
        prop_assert_eq!(&base.lambda, &pinned.lambda);
        prop_assert_eq!(&base.u_locals, &pinned.u_locals);
        prop_assert_eq!(base.stats.iterations, pinned.stats.iterations);
    }

    #[test]
    fn perm_roundtrip(keys in proptest::collection::vec(0u64..1000, 15)) {
        let mut idx: Vec<usize> = (0..keys.len()).collect();
        idx.sort_by_key(|&i| keys[i]);
        let p = Perm::from_old_of_new(idx);
        let v: Vec<f64> = (0..p.len()).map(|i| i as f64).collect();
        let w = p.apply(&v);
        let back = p.apply_inverse(&w);
        prop_assert_eq!(back, v);
        let q = p.inverse();
        for i in 0..p.len() {
            prop_assert_eq!(q.new_of_old(i), p.old_of_new(i));
        }
    }
}
