//! Cross-crate integration tests of the Schur complement assembly: every
//! kernel-variant combination against the dense reference, on real FEM
//! subdomains (not synthetic patterns), in 2D and 3D.

use schur_dd::prelude::*;
use schur_dd::sc_core::{assemble_sc_reference, run_trsm_variant, AssemblyPlan, Exec};
use schur_dd::sc_factor::schur_from_factor;
use schur_dd::sc_feti::{regularize_fixing_node, SubdomainFactors};
use schur_dd::sc_gpu::KernelCost;

struct Fixture {
    kreg: Csc,
    bt: Csc,
    factors: SubdomainFactors,
}

fn fixture(dim: usize, c: usize) -> Fixture {
    let problem = if dim == 2 {
        HeatProblem::build_2d(c, (3, 3), Gluing::Redundant)
    } else {
        HeatProblem::build_3d(c, (2, 2, 2), Gluing::Redundant)
    };
    let center = if dim == 2 { 4 } else { 7 };
    let sd = &problem.subdomains[center];
    let kreg = regularize_fixing_node(&sd.k, sd.kernel.as_deref(), sd.fixing_dof, None);
    let factors = SubdomainFactors::build(
        sd,
        FetiOptions::default().engine,
        Ordering::NestedDissection,
    );
    Fixture {
        kreg,
        bt: sd.bt.clone(),
        factors,
    }
}

#[test]
fn all_configs_match_dense_reference_2d() {
    let fx = fixture(2, 5);
    let reference = assemble_sc_reference(&fx.kreg, &fx.bt);
    let l = fx.factors.chol.factor_csc();
    for trsm in [
        TrsmVariant::Plain,
        TrsmVariant::FactorSplit {
            block: BlockParam::Size(9),
            prune: false,
        },
        TrsmVariant::FactorSplit {
            block: BlockParam::Count(4),
            prune: true,
        },
    ] {
        for syrk in [
            SyrkVariant::Plain,
            SyrkVariant::InputSplit(BlockParam::Size(6)),
            SyrkVariant::InputSplit(BlockParam::Count(3)),
        ] {
            for storage in [FactorStorage::Sparse, FactorStorage::Dense] {
                let cfg = ScConfig::Fixed(ScParams {
                    trsm,
                    syrk,
                    factor_storage: storage,
                    stepped_permutation: true,
                });
                let f = assemble_sc(&mut CpuExec, &l, &fx.factors.bt_perm, &cfg);
                let d = sc_dense::max_abs_diff(f.as_ref(), reference.as_ref());
                assert!(d < 1e-8, "{trsm:?}/{syrk:?}/{storage:?}: {d}");
            }
        }
    }
}

#[test]
fn optimized_configs_match_reference_3d() {
    let fx = fixture(3, 3);
    let reference = assemble_sc_reference(&fx.kreg, &fx.bt);
    let l = fx.factors.chol.factor_csc();
    for cfg in [
        ScConfig::original(FactorStorage::Dense),
        ScConfig::optimized(false, true),
        ScConfig::optimized(true, true),
    ] {
        let f = assemble_sc(&mut CpuExec, &l, &fx.factors.bt_perm, &cfg);
        let d = sc_dense::max_abs_diff(f.as_ref(), reference.as_ref());
        assert!(d < 1e-8, "{cfg:?}: {d}");
    }
}

#[test]
fn sparse_rhs_schur_equals_kernel_assembly() {
    // the expl_mkl analog must produce the same matrix as the TRSM+SYRK path
    let fx = fixture(2, 4);
    let l = fx.factors.chol.factor_csc();
    let f1 = schur_from_factor(&l, &fx.factors.chol.symbolic().parent, &fx.factors.bt_perm);
    let f2 = assemble_sc(
        &mut CpuExec,
        &l,
        &fx.factors.bt_perm,
        &ScConfig::optimized(false, false),
    );
    assert!(sc_dense::max_abs_diff(f1.as_ref(), f2.as_ref()) < 1e-8);
}

#[test]
fn gpu_assembly_bitwise_matches_cpu() {
    let fx = fixture(3, 2);
    let l = fx.factors.chol.factor_csc();
    let cfg = ScConfig::optimized(true, true);
    let f_cpu = assemble_sc(&mut CpuExec, &l, &fx.factors.bt_perm, &cfg);
    let dev = Device::new(DeviceSpec::a100(), 1);
    let kernels = GpuKernels::new(dev.stream(0));
    let mut exec = GpuExec::new(&kernels);
    let f_gpu = assemble_sc(&mut exec, &l, &fx.factors.bt_perm, &cfg);
    assert_eq!(f_cpu, f_gpu);
}

#[test]
fn stepped_permutation_ablation_changes_nothing_numerically() {
    // disabling the stepped permutation must not change the result (only the
    // performance) — the assembler falls back to plain kernels when pivots
    // are unsorted
    let fx = fixture(2, 4);
    let l = fx.factors.chol.factor_csc();
    let mut params = ScParams::optimized(false, false);
    params.stepped_permutation = true;
    let with = ScConfig::Fixed(params);
    params.stepped_permutation = false;
    let without = ScConfig::Fixed(params);
    let f1 = assemble_sc(&mut CpuExec, &l, &fx.factors.bt_perm, &with);
    let f2 = assemble_sc(&mut CpuExec, &l, &fx.factors.bt_perm, &without);
    assert!(sc_dense::max_abs_diff(f1.as_ref(), f2.as_ref()) < 1e-8);
}

#[test]
fn assembled_sc_drives_correct_feti_iteration() {
    // multiplying with the assembled F̃ must equal the implicit application
    let fx = fixture(2, 4);
    let l = fx.factors.chol.factor_csc();
    let f = assemble_sc(
        &mut CpuExec,
        &l,
        &fx.factors.bt_perm,
        &ScConfig::optimized(false, false),
    );
    let m = f.nrows();
    let p: Vec<f64> = (0..m).map(|i| ((i * 17 % 5) as f64) - 2.0).collect();
    let mut q_expl = vec![0.0; m];
    sc_dense::gemv(1.0, f.as_ref(), &p, 0.0, &mut q_expl);
    let mut q_impl = vec![0.0; m];
    schur_dd::sc_feti::dualop::apply_implicit(&fx.factors, &p, &mut q_impl);
    for i in 0..m {
        assert!((q_expl[i] - q_impl[i]).abs() < 1e-8);
    }
}

/// A backend implemented outside `sc_core`: it keeps every launch list it
/// is handed and answers `computes`.
struct ListSink {
    computes: bool,
    lists: Vec<Vec<KernelCost>>,
}

impl ListSink {
    fn new(computes: bool) -> Self {
        ListSink {
            computes,
            lists: Vec::new(),
        }
    }
}

impl Exec for ListSink {
    fn is_gpu(&self) -> bool {
        true
    }

    fn submit(&mut self, launches: impl FnOnce() -> Vec<KernelCost>) -> bool {
        self.lists.push(launches());
        self.computes
    }
}

/// The backend contract: each `assemble_sc` call hands the sink exactly one
/// list, the plan's launches at the working precision; a sink that answers
/// `false` gets the untouched `m × m` zero square, and `run_trsm_variant`
/// leaves its `y` untouched.
#[test]
fn a_foreign_backend_takes_one_launch_list_per_call() {
    let fx = fixture(3, 4);
    let l = fx.factors.chol.factor_csc();
    let bt = &fx.factors.bt_perm;
    let (l32, bt32) = (l.cast::<f32>(), bt.cast::<f32>());
    let m = bt.ncols();
    for cfg in [
        ScConfig::Auto,
        ScConfig::optimized(true, true),
        ScConfig::original(FactorStorage::Sparse),
    ] {
        let params = cfg.resolve(true, &l, bt);
        let plan = AssemblyPlan::new(&l, bt, &params);
        let host = ScConfig::Fixed(params);

        let mut sink = ListSink::new(true);
        let f = assemble_sc(&mut sink, &l, bt, &cfg);
        assert_eq!(f, assemble_sc(&mut CpuExec, &l, bt, &host), "{cfg:?}");
        let f32 = assemble_sc(&mut sink, &l32, &bt32, &cfg);
        assert_eq!(f32, assemble_sc(&mut CpuExec, &l32, &bt32, &host));
        let want = [plan.launches::<f64>(), plan.launches::<f32>()];
        assert_eq!(sink.lists, want, "{cfg:?}");

        let mut cost_only = ListSink::new(false);
        assert_eq!(assemble_sc(&mut cost_only, &l, bt, &cfg), Mat::zeros(m, m));
        assert_eq!(cost_only.lists, want[..1], "{cfg:?}");

        let stepped = SteppedRhs::new(bt);
        let (storage, trsm) = (params.factor_storage, params.trsm);
        let y0 = stepped.to_dense();
        let mut y = y0.clone();
        run_trsm_variant(&mut cost_only, &l, &stepped, storage, trsm, &mut y);
        assert_eq!(y, y0, "{cfg:?}: cost-only TRSM wrote");
        assert_eq!(cost_only.lists.len(), 2, "{cfg:?}: one TRSM list");
        run_trsm_variant(&mut sink, &l, &stepped, storage, trsm, &mut y);
        assert_ne!(y, y0, "{cfg:?}: a computing sink solves");
        assert_eq!(sink.lists[2], cost_only.lists[1], "{cfg:?}");
    }
}
