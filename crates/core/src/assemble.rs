//! The complete explicit Schur complement assembler (paper §3).
//!
//! Ties together the stepped permutation, the TRSM variant, the SYRK variant
//! and the final un-permutation into the original multiplier ordering:
//!
//! ```text
//! F̃ = unpermute( (L⁻¹ · stepped(B̃ᵀ))ᵀ (L⁻¹ · stepped(B̃ᵀ)) )
//! ```

use crate::exec::Exec;
use crate::stepped::SteppedRhsOf;
use crate::syrk::{run_syrk_with_cache, SyrkVariant};
use crate::trsm::{run_trsm_with_cache, FactorStorage, TrsmVariant};
use crate::tune::BlockCutsCache;
use sc_dense::{MatOf, Scalar};
use sc_sparse::CscOf;

/// Fully resolved assembler parameters: one entry per knob the paper tunes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScParams {
    /// TRSM algorithm (plain / RHS split / factor split + pruning).
    pub trsm: TrsmVariant,
    /// SYRK algorithm (plain / input split / output split).
    pub syrk: SyrkVariant,
    /// Factor storage inside TRSM kernels.
    pub factor_storage: FactorStorage,
    /// Apply the stepped column permutation (disable only for ablation — the
    /// splitting variants still work, they just skip nothing).
    pub stepped_permutation: bool,
}

impl ScParams {
    /// The baseline of \[9\]: no splitting, no stepped permutation.
    pub fn original(storage: FactorStorage) -> Self {
        ScParams {
            trsm: TrsmVariant::Plain,
            syrk: SyrkVariant::Plain,
            factor_storage: storage,
            stepped_permutation: false,
        }
    }

    /// The paper's optimized configuration with Table 1 defaults for the
    /// given platform/dimension (`gpu`, `three_d` flags).
    pub fn optimized(gpu: bool, three_d: bool) -> Self {
        use crate::tune::table1_defaults as t;
        let (trsm_block, syrk_block) = match (gpu, three_d) {
            (false, false) => (t::TRSM_FACTOR_CPU_2D, t::SYRK_INPUT_CPU_2D),
            (false, true) => (t::TRSM_FACTOR_CPU_3D, t::SYRK_INPUT_CPU_3D),
            (true, false) => (t::TRSM_FACTOR_GPU_2D, t::SYRK_INPUT_GPU_2D),
            (true, true) => (t::TRSM_FACTOR_GPU_3D, t::SYRK_INPUT_GPU_3D),
        };
        ScParams {
            trsm: TrsmVariant::FactorSplit {
                block: trsm_block,
                // pruning always helps large factors (paper §4.1); in 2D the
                // factor blocks stay sparse so pruning is a no-op cost-wise
                prune: true,
            },
            syrk: SyrkVariant::InputSplit(syrk_block),
            factor_storage: if three_d {
                FactorStorage::Dense
            } else {
                FactorStorage::Sparse
            },
            stepped_permutation: true,
        }
    }
}

/// Assembler configuration: either every knob fixed up front, or a
/// per-subdomain Table-1-style automatic selection (the default).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ScConfig {
    /// Use exactly these parameters for every subdomain.
    Fixed(ScParams),
    /// Pick `TrsmVariant`/`SyrkVariant`/`FactorStorage` per subdomain from
    /// the factor's density and the problem size, mirroring how the paper's
    /// Table 1 splits its recommendations by platform (CPU/GPU) and
    /// dimension (2D/3D). The platform comes from the executing backend
    /// ([`Exec::is_gpu`]); "2D-vs-3D" is decided
    /// from the factor fill (3D nested-dissection factors are far denser
    /// than 2D ones), and very small subdomains fall back to the plain
    /// kernels, whose launch overhead beats splitting at those sizes.
    #[default]
    Auto,
}

/// Density of a lower-triangular CSC factor relative to a full triangle.
fn factor_density<S: Scalar>(l: &CscOf<S>) -> f64 {
    let n = l.ncols();
    if n == 0 {
        return 0.0;
    }
    let tri = n as f64 * (n as f64 + 1.0) / 2.0; // sc-analyze: allow(precision-discipline)
    l.nnz() as f64 / tri // sc-analyze: allow(precision-discipline)
}

/// 2D nested-dissection factors stay a few percent dense; 3D ones fill an
/// order of magnitude more. This threshold separates the two regimes on the
/// workspace's heat-transfer ladders.
const AUTO_THREE_D_DENSITY: f64 = 0.15;
/// Below these sizes the splitting variants cannot amortize their extra
/// kernel launches (the left branch of the paper's Figure 5 U-curve).
const AUTO_MIN_DOFS: usize = 96;
const AUTO_MIN_LAMBDA: usize = 8;

impl ScConfig {
    /// The baseline of \[9\]: no splitting, no stepped permutation.
    pub fn original(storage: FactorStorage) -> Self {
        ScConfig::Fixed(ScParams::original(storage))
    }

    /// The paper's optimized configuration with Table 1 defaults for the
    /// given platform/dimension (`gpu`, `three_d` flags).
    pub fn optimized(gpu: bool, three_d: bool) -> Self {
        ScConfig::Fixed(ScParams::optimized(gpu, three_d))
    }

    /// Resolve to concrete parameters for one subdomain. `gpu` is the
    /// executing platform ([`ScConfig::Fixed`] ignores it; callers inside
    /// the pipeline pass [`Exec::is_gpu`]).
    pub fn resolve<S: Scalar>(&self, gpu: bool, l: &CscOf<S>, bt: &CscOf<S>) -> ScParams {
        match self {
            ScConfig::Fixed(params) => *params,
            ScConfig::Auto => {
                let n = l.ncols();
                let m = bt.ncols();
                let three_d_like = factor_density(l) > AUTO_THREE_D_DENSITY;
                if n < AUTO_MIN_DOFS || m < AUTO_MIN_LAMBDA {
                    ScParams {
                        trsm: TrsmVariant::Plain,
                        syrk: SyrkVariant::Plain,
                        factor_storage: if three_d_like {
                            FactorStorage::Dense
                        } else {
                            FactorStorage::Sparse
                        },
                        // the stepped permutation is a cheap relabeling and
                        // never hurts, keep it on
                        stepped_permutation: true,
                    }
                } else {
                    ScParams::optimized(gpu, three_d_like)
                }
            }
        }
    }
}

impl From<ScParams> for ScConfig {
    fn from(params: ScParams) -> Self {
        ScConfig::Fixed(params)
    }
}

/// Assemble the dense symmetric `F̃ = B̃ L⁻ᵀ L⁻¹ B̃ᵀ` on the given backend.
///
/// Inputs:
/// - `l` — Cholesky factor of the regularized subdomain matrix (CSC,
///   diag-first), in fill-reducing order;
/// - `bt` — `B̃ᵀ` with rows **already permuted** into the factor's order.
///
/// The result is indexed by the original (unstepped) multiplier order and is
/// fully symmetric.
pub fn assemble_sc<S: Scalar, E: Exec<S>>(
    exec: &mut E,
    l: &CscOf<S>,
    bt: &CscOf<S>,
    cfg: &ScConfig,
) -> MatOf<S> {
    assemble_sc_with_cache(exec, l, bt, cfg, None)
}

/// [`assemble_sc`] with an optional shared [`BlockCutsCache`]; the batched
/// driver passes one cache for the whole cluster so equal-shape subdomains
/// resolve their block partitions once.
pub fn assemble_sc_with_cache<S: Scalar, E: Exec<S>>(
    exec: &mut E,
    l: &CscOf<S>,
    bt: &CscOf<S>,
    cfg: &ScConfig,
    cache: Option<&BlockCutsCache>,
) -> MatOf<S> {
    let n = l.ncols();
    assert_eq!(bt.nrows(), n, "B̃ᵀ rows must live in factor space");
    let m = bt.ncols();
    let params = cfg.resolve(exec.is_gpu(), l, bt);

    let stepped = if params.stepped_permutation {
        SteppedRhsOf::new(bt)
    } else {
        SteppedRhsOf {
            bt: bt.clone(),
            pivots: sc_sparse::pattern::pivots_or_end(bt),
            col_perm: sc_sparse::Perm::identity(m),
        }
    };
    // NOTE: without the stepped permutation the pivots may not be sorted;
    // the splitting kernels require sorted pivots, so fall back to plain
    // variants in that case (this is what "original" does anyway).
    let sorted = stepped.pivots.windows(2).all(|w| w[0] <= w[1]);
    let trsm_variant = if sorted {
        params.trsm
    } else {
        TrsmVariant::Plain
    };
    let syrk_variant = if sorted {
        params.syrk
    } else {
        SyrkVariant::Plain
    };

    // dense RHS expansion (the TRSM is in-place on the dense Y)
    let mut y = stepped.to_dense();
    exec.gather(stepped.bt.nnz());

    run_trsm_with_cache(
        exec,
        l,
        &stepped,
        params.factor_storage,
        trsm_variant,
        &mut y,
        cache,
    );

    let mut f = MatOf::<S>::zeros(m, m);
    run_syrk_with_cache(exec, &y, &stepped, syrk_variant, &mut f, cache);
    f.symmetrize_from_lower();

    // back to original multiplier ordering (the "final phase" permutation)
    exec.gather(m * m);
    stepped.unpermute_symmetric(&f)
}

/// Dense reference: `F̃ = B̃ K_reg⁻¹ B̃ᵀ` computed with dense kernels from the
/// full matrix (not the factor). Test oracle.
pub fn assemble_sc_reference(
    k_reg: &sc_sparse::Csc,
    bt_unpermuted: &sc_sparse::Csc,
) -> sc_dense::Mat {
    let n = k_reg.ncols();
    assert_eq!(bt_unpermuted.nrows(), n);
    let mut l = k_reg.to_dense();
    sc_dense::cholesky_in_place(l.as_mut()).expect("reference factorization failed");
    let mut y = bt_unpermuted.to_dense();
    sc_dense::trsm_lower_left(l.as_ref(), y.as_mut());
    let m = bt_unpermuted.ncols();
    let mut f = sc_dense::Mat::zeros(m, m);
    sc_dense::syrk_t(1.0, y.as_ref(), 0.0, f.as_mut());
    f.symmetrize_from_lower();
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{CpuExec, GpuExec};
    use crate::tune::BlockParam;
    use sc_dense::Mat;
    use sc_factor::{CholOptions, Engine, SparseCholesky};
    use sc_gpu::{Device, DeviceSpec, GpuKernels};
    use sc_order::Ordering;
    use sc_sparse::{Coo, Csc};

    /// SPD matrix: 2D Laplacian + shift.
    fn spd_matrix(nx: usize) -> Csc {
        let n = nx * nx;
        let idx = |x: usize, y: usize| y * nx + x;
        let mut c = Coo::new(n, n);
        for y in 0..nx {
            for x in 0..nx {
                let v = idx(x, y);
                c.push(v, v, 4.05);
                if x > 0 {
                    c.push(v, idx(x - 1, y), -1.0);
                }
                if x + 1 < nx {
                    c.push(v, idx(x + 1, y), -1.0);
                }
                if y > 0 {
                    c.push(v, idx(x, y - 1), -1.0);
                }
                if y + 1 < nx {
                    c.push(v, idx(x, y + 1), -1.0);
                }
            }
        }
        c.to_csc()
    }

    /// Boundary-ish B̃ᵀ: multipliers touch scattered dofs.
    fn gluing(n: usize, m: usize) -> Csc {
        let mut c = Coo::new(n, m);
        for j in 0..m {
            let d = (j * 7919) % n;
            c.push(d, j, if j.is_multiple_of(2) { 1.0 } else { -1.0 });
        }
        c.to_csc()
    }

    fn assemble_with(cfg: &ScConfig, nx: usize, m: usize) -> (Mat, Mat) {
        let k = spd_matrix(nx);
        let n = k.ncols();
        let bt = gluing(n, m);
        let chol = SparseCholesky::factorize(
            &k,
            CholOptions {
                ordering: Ordering::NestedDissection,
                engine: Engine::Simplicial,
            },
        )
        .unwrap();
        let l = chol.factor_csc();
        let bt_perm = bt.permute_rows(chol.perm());
        let f = assemble_sc(&mut CpuExec, &l, &bt_perm, cfg);
        let fref = assemble_sc_reference(&k, &bt);
        (f, fref)
    }

    #[test]
    fn original_config_matches_reference() {
        for storage in [FactorStorage::Sparse, FactorStorage::Dense] {
            let (f, fref) = assemble_with(&ScConfig::original(storage), 7, 12);
            assert!(sc_dense::max_abs_diff(f.as_ref(), fref.as_ref()) < 1e-9);
        }
    }

    #[test]
    fn optimized_configs_match_reference() {
        for (gpu, three_d) in [(false, false), (false, true), (true, false), (true, true)] {
            let (f, fref) = assemble_with(&ScConfig::optimized(gpu, three_d), 7, 12);
            assert!(
                sc_dense::max_abs_diff(f.as_ref(), fref.as_ref()) < 1e-9,
                "gpu={gpu} 3d={three_d}"
            );
        }
    }

    #[test]
    fn all_variant_combinations_match_reference() {
        let trsms = [
            TrsmVariant::Plain,
            TrsmVariant::RhsSplit(BlockParam::Size(8)),
            TrsmVariant::FactorSplit {
                block: BlockParam::Size(10),
                prune: false,
            },
            TrsmVariant::FactorSplit {
                block: BlockParam::Size(10),
                prune: true,
            },
        ];
        let syrks = [
            SyrkVariant::Plain,
            SyrkVariant::InputSplit(BlockParam::Size(9)),
            SyrkVariant::OutputSplit(BlockParam::Size(5)),
        ];
        for trsm in trsms {
            for syrk in syrks {
                for storage in [FactorStorage::Sparse, FactorStorage::Dense] {
                    let cfg = ScConfig::Fixed(ScParams {
                        trsm,
                        syrk,
                        factor_storage: storage,
                        stepped_permutation: true,
                    });
                    let (f, fref) = assemble_with(&cfg, 6, 10);
                    let d = sc_dense::max_abs_diff(f.as_ref(), fref.as_ref());
                    assert!(d < 1e-9, "{trsm:?} {syrk:?} {storage:?}: {d}");
                }
            }
        }
    }

    /// The same variant sweep at a size where every dense kernel takes its
    /// blocked route (576 dofs, 160 multipliers, blocks of 140–200): the
    /// oracle is built from the `*_scalar` kernels alone, so it shares no
    /// arithmetic with what it checks. `f32` runs the same sweep at a
    /// tolerance scaled to its epsilon (it reaches ~2e-7 here).
    #[test]
    fn blocked_route_variants_match_a_scalar_reference() {
        let k = spd_matrix(24);
        let n = k.ncols();
        let m = 160;
        assert!(n >= sc_dense::blocked::PANEL_BLOCK_MIN_ORDER);
        assert!(m >= sc_dense::blocked::PANEL_BLOCK_MIN_ORDER);
        let bt = gluing(n, m);
        let chol = SparseCholesky::factorize(&k, CholOptions::default()).unwrap();
        let l = chol.factor_csc();
        let bt_perm = bt.permute_rows(chol.perm());
        let (l32, bt32) = (l.cast::<f32>(), bt_perm.cast::<f32>());

        let mut ld = k.to_dense();
        sc_dense::partial_cholesky_scalar(ld.as_mut(), n).unwrap();
        let mut y = bt.to_dense();
        sc_dense::trsm_lower_left_scalar(ld.as_ref(), y.as_mut());
        let mut fref = Mat::zeros(m, m);
        sc_dense::syrk_t_scalar(1.0, y.as_ref(), 0.0, fref.as_mut());
        fref.symmetrize_from_lower();

        let trsms = [
            TrsmVariant::Plain,
            TrsmVariant::RhsSplit(BlockParam::Size(80)),
            TrsmVariant::FactorSplit {
                block: BlockParam::Size(200),
                prune: false,
            },
            TrsmVariant::FactorSplit {
                block: BlockParam::Size(200),
                prune: true,
            },
        ];
        let syrks = [
            SyrkVariant::Plain,
            SyrkVariant::InputSplit(BlockParam::Size(200)),
            SyrkVariant::OutputSplit(BlockParam::Size(140)),
        ];
        for trsm in trsms {
            for syrk in syrks {
                let cfg = ScConfig::Fixed(ScParams {
                    trsm,
                    syrk,
                    factor_storage: FactorStorage::Dense,
                    stepped_permutation: true,
                });
                let f = assemble_sc(&mut CpuExec, &l, &bt_perm, &cfg);
                let d = sc_dense::max_abs_diff(f.as_ref(), fref.as_ref());
                assert!(d < 1e-9, "f64 {trsm:?} {syrk:?}: {d}");
                for i in 0..m {
                    for j in 0..i {
                        assert_eq!(f[(i, j)], f[(j, i)], "asymmetric at ({i},{j})");
                    }
                }
                let mut chol_f = f.clone();
                assert!(
                    sc_dense::cholesky_in_place(chol_f.as_mut()).is_ok(),
                    "SC must be SPD ({trsm:?} {syrk:?})"
                );

                let f32 = assemble_sc(&mut CpuExec, &l32, &bt32, &cfg).cast::<f64>();
                let d32 = sc_dense::max_abs_diff(f32.as_ref(), fref.as_ref());
                assert!(d32 > 0.0, "f32 assembly must actually run in f32");
                assert!(d32 < 1e-5, "f32 {trsm:?} {syrk:?}: {d32}");
            }
        }
    }

    /// Table 1's GPU 2D row (sparse storage, factor split `S 1000`, input
    /// split `S 2000`) where the input split's SYRK blocks are narrower
    /// than 128 but wide enough for the packed nest, and the diagonal
    /// blocks' sparse solves run more than one group of eight right-hand
    /// sides: against the dense oracle at `f64` and `f32`.
    #[test]
    fn table1_gpu_2d_row_with_narrow_syrk_blocks_matches_the_oracle() {
        let k = spd_matrix(32);
        let m = 100;
        assert!((sc_dense::MR..sc_dense::blocked::PANEL_BLOCK_MIN_ORDER).contains(&m));
        let bt = gluing(k.ncols(), m);
        let chol = SparseCholesky::factorize(&k, CholOptions::default()).unwrap();
        let l = chol.factor_csc();
        let bt_perm = bt.permute_rows(chol.perm());
        let params = ScParams::optimized(true, false);
        assert_eq!(params.factor_storage, FactorStorage::Sparse);
        let cfg = ScConfig::Fixed(params);
        let fref = assemble_sc_reference(&k, &bt);
        let scale = fref.data().iter().fold(0.0, |s: f64, v| s.max(v.abs()));

        let f = assemble_sc(&mut CpuExec, &l, &bt_perm, &cfg);
        let d = sc_dense::max_abs_diff(f.as_ref(), fref.as_ref());
        assert!(d < 1e-12 * scale, "f64: {d} of {scale}");

        let (l32, bt32) = (l.cast::<f32>(), bt_perm.cast::<f32>());
        let f32 = assemble_sc(&mut CpuExec, &l32, &bt32, &cfg).cast::<f64>();
        let d32 = sc_dense::max_abs_diff(f32.as_ref(), fref.as_ref());
        assert!(d32 > 0.0 && d32 < 1e-5 * scale, "f32: {d32} of {scale}");
    }

    #[test]
    fn gpu_backend_matches_cpu_and_advances_timeline() {
        let k = spd_matrix(7);
        let bt = gluing(k.ncols(), 15);
        let chol = SparseCholesky::factorize(&k, CholOptions::default()).unwrap();
        let l = chol.factor_csc();
        let bt_perm = bt.permute_rows(chol.perm());
        let cfg = ScConfig::optimized(true, false);
        let f_cpu = assemble_sc(&mut CpuExec, &l, &bt_perm, &cfg);

        let dev = Device::new(DeviceSpec::a100(), 1);
        let kernels = GpuKernels::new(dev.stream(0));
        let mut gpu = GpuExec::new(&kernels);
        let f_gpu = assemble_sc(&mut gpu, &l, &bt_perm, &cfg);
        assert_eq!(f_cpu, f_gpu, "backends must agree bitwise");
        assert!(dev.synchronize() > 0.0);
    }

    #[test]
    fn optimized_gpu_time_beats_original_for_large_stepped_inputs() {
        // the paper's headline effect, on the simulator: with a large
        // subdomain the optimized config must be faster in simulated time
        let k = spd_matrix(24); // 576 dofs
        let bt = gluing(k.ncols(), 90);
        let chol = SparseCholesky::factorize(&k, CholOptions::default()).unwrap();
        let l = chol.factor_csc();
        let bt_perm = bt.permute_rows(chol.perm());

        let dev = Device::new(DeviceSpec::a100(), 1);
        let kernels = GpuKernels::new(dev.stream(0));

        let t0 = dev.synchronize();
        let mut gpu = GpuExec::new(&kernels);
        assemble_sc(
            &mut gpu,
            &l,
            &bt_perm,
            &ScConfig::original(FactorStorage::Dense),
        );
        let t_orig = dev.synchronize() - t0;

        let t1 = dev.synchronize();
        let mut gpu = GpuExec::new(&kernels);
        assemble_sc(&mut gpu, &l, &bt_perm, &ScConfig::optimized(true, false));
        let t_opt = dev.synchronize() - t1;
        assert!(
            t_opt < t_orig,
            "optimized {t_opt} should beat original {t_orig}"
        );
    }

    #[test]
    fn zero_lambda_subdomain_yields_empty_f() {
        // n_lambda == 0: B̃ᵀ has zero columns, F̃ must be a clean 0×0 matrix
        // under every variant combination and on both backends
        let k = spd_matrix(5);
        let chol = SparseCholesky::factorize(&k, CholOptions::default()).unwrap();
        let l = chol.factor_csc();
        let bt = Csc::zeros(l.ncols(), 0);
        for cfg in [
            ScConfig::original(FactorStorage::Sparse),
            ScConfig::original(FactorStorage::Dense),
            ScConfig::optimized(false, false),
            ScConfig::optimized(true, true),
            ScConfig::Auto,
        ] {
            let f = assemble_sc(&mut CpuExec, &l, &bt, &cfg);
            assert_eq!((f.nrows(), f.ncols()), (0, 0), "{cfg:?}");
        }
        let dev = Device::new(DeviceSpec::a100(), 1);
        let kernels = GpuKernels::new(dev.stream(0));
        let mut gpu = GpuExec::new(&kernels);
        let f = assemble_sc(&mut gpu, &l, &bt, &ScConfig::optimized(true, false));
        assert_eq!((f.nrows(), f.ncols()), (0, 0));
    }

    #[test]
    fn zero_dof_subdomain_yields_zero_f() {
        // degenerate 0×0 factor with multipliers attached to nothing: F̃ is
        // the m×m zero matrix (B̃ K⁺ B̃ᵀ over an empty dof space)
        let l = Csc::zeros(0, 0);
        let bt = Csc::zeros(0, 3);
        for cfg in [
            ScConfig::original(FactorStorage::Dense),
            ScConfig::optimized(false, true),
            ScConfig::Auto,
        ] {
            let f = assemble_sc(&mut CpuExec, &l, &bt, &cfg);
            assert_eq!((f.nrows(), f.ncols()), (3, 3), "{cfg:?}");
            for j in 0..3 {
                for i in 0..3 {
                    assert_eq!(f[(i, j)], 0.0, "{cfg:?} at ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn single_column_bt_matches_reference() {
        let (f, fref) = assemble_with(&ScConfig::optimized(false, false), 6, 1);
        assert_eq!((f.nrows(), f.ncols()), (1, 1));
        assert!(sc_dense::max_abs_diff(f.as_ref(), fref.as_ref()) < 1e-9);
    }

    #[test]
    fn auto_config_matches_reference_and_adapts() {
        let (f, fref) = assemble_with(&ScConfig::Auto, 7, 12);
        assert!(sc_dense::max_abs_diff(f.as_ref(), fref.as_ref()) < 1e-9);
        // tiny subdomain resolves to plain kernels; a large one to splitting
        let k_small = spd_matrix(4);
        let chol = SparseCholesky::factorize(&k_small, CholOptions::default()).unwrap();
        let bt_small = gluing(k_small.ncols(), 3);
        let p_small = ScConfig::Auto.resolve(false, &chol.factor_csc(), &bt_small);
        assert_eq!(p_small.trsm, TrsmVariant::Plain);
        assert_eq!(p_small.syrk, SyrkVariant::Plain);
        let k_big = spd_matrix(16); // 256 dofs
        let chol = SparseCholesky::factorize(&k_big, CholOptions::default()).unwrap();
        let bt_big = gluing(k_big.ncols(), 40);
        let p_big = ScConfig::Auto.resolve(true, &chol.factor_csc(), &bt_big);
        assert!(
            matches!(p_big.trsm, TrsmVariant::FactorSplit { .. }),
            "large subdomains must use splitting, got {:?}",
            p_big.trsm
        );
        assert!(p_big.stepped_permutation);
    }

    #[test]
    fn result_is_symmetric_spd() {
        let (f, _) = assemble_with(&ScConfig::optimized(false, true), 8, 14);
        let m = f.nrows();
        for i in 0..m {
            for j in 0..m {
                assert!((f[(i, j)] - f[(j, i)]).abs() < 1e-12);
            }
        }
        let mut chol = f.clone();
        assert!(
            sc_dense::cholesky_in_place(chol.as_mut()).is_ok(),
            "SC must be SPD for this B"
        );
    }
}
