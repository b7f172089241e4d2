//! Property-based tests of the hybrid explicit/implicit dual-operator
//! invariants: every subdomain gets exactly one formulation, no explicit
//! placement oversubscribes its device arena, the hybrid application is
//! bitwise identical to the per-formulation reference (explicit F̃ᵢ bitwise
//! equal to the all-explicit CPU assembly, spilled subdomains through the
//! implicit pipeline), explicit-vs-implicit F·p agreement, and the
//! iteration-count extremes collapse the decision to all-explicit /
//! all-implicit.

use proptest::prelude::*;
use schur_dd::prelude::*;
use schur_dd::sc_dense;
use schur_dd::sc_gpu::KernelCost;

/// Per-subdomain shapes drawn for the planner-level properties: synthetic
/// cost/apply estimates with controlled magnitudes (pure compute, occupancy
/// saturated) plus a temp footprint.
#[derive(Clone, Debug)]
struct SynthSub {
    temp_bytes: usize,
    asm_gflops: f64,
    expl_apply_gflops: f64,
    impl_apply_gflops: f64,
}

fn synth_strategy() -> impl Strategy<Value = Vec<SynthSub>> {
    proptest::collection::vec(
        (1usize..(1 << 22), 1.0f64..100.0, 0.1f64..10.0, 0.1f64..40.0),
        1..24,
    )
    .prop_map(|subs| {
        subs.into_iter()
            .map(|(temp_bytes, asm, expl, imp)| SynthSub {
                temp_bytes,
                asm_gflops: asm,
                expl_apply_gflops: expl,
                impl_apply_gflops: imp,
            })
            .collect()
    })
}

fn estimates_of(subs: &[SynthSub]) -> (Vec<CostEstimate>, Vec<ApplyEstimate>) {
    subs.iter()
        .enumerate()
        .map(|(i, s)| {
            (
                CostEstimate {
                    index: i,
                    trsm_flops: s.asm_gflops * 1e9,
                    syrk_flops: 0.0,
                    transfer_bytes: 0.0,
                    temp_bytes: s.temp_bytes,
                    seconds: 0.0,
                },
                ApplyEstimate {
                    index: i,
                    explicit: vec![KernelCost::compute(s.expl_apply_gflops * 1e9, 0.0)],
                    implicit: vec![KernelCost::compute(s.impl_apply_gflops * 1e9, 0.0)],
                },
            )
        })
        .unzip()
}

/// Predicted cost-to-solution of `plan` at `iters` iterations: the sum over
/// subdomains of `assembly + iters × apply` — the sequential-equivalent work
/// the node performs (device-level overlap shrinks all strategies alike).
fn cost_at(plan: &HybridPlan, iters: f64) -> f64 {
    (plan.choices.iter())
        .map(|c| c.assembly_seconds + iters * c.apply_seconds)
        .sum()
}

fn slots(arenas: &[usize]) -> Vec<DeviceSlot> {
    arenas
        .iter()
        .map(|&arena_capacity| DeviceSlot {
            spec: DeviceSpec::a100(),
            arena_capacity,
            n_streams: 2,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every subdomain gets exactly one formulation; explicit-GPU is never
    /// chosen for a subdomain whose temporaries exceed every arena; the
    /// spill set is exactly the over-arena set; the chosen candidate is
    /// never costlier than the alternatives the planner was allowed.
    #[test]
    fn hybrid_plan_invariants(
        subs in synth_strategy(),
        arena_kib in 1usize..4096,
        iters in 0.0f64..2000.0,
    ) {
        let (costs, applies) = estimates_of(&subs);
        let devices = slots(&[arena_kib << 10, (arena_kib << 10) / 2]);
        let max_arena = arena_kib << 10;
        let opts = HybridPlanOptions::default().with_iters(iters);
        let plan = plan_hybrid(&costs, &applies, &devices, &opts);

        prop_assert_eq!(plan.choices.len(), subs.len());
        for (i, c) in plan.choices.iter().enumerate() {
            prop_assert_eq!(c.index, i, "one decision per subdomain, in order");
            let over = subs[i].temp_bytes > max_arena;
            prop_assert_eq!(plan.spilled.contains(&i), over);
            if over {
                prop_assert!(
                    c.formulation != Formulation::ExplicitGpu,
                    "over-arena subdomain {i} must not be placed explicitly on a device"
                );
            }
            // the decision is cost-minimal among its admissible candidates
            let host = &DeviceSpec::host();
            let spec = &devices[0].spec;
            let total = |asm: f64, app: f64| asm + iters * app;
            let chosen = total(c.assembly_seconds, c.apply_seconds);
            let impl_total = total(0.0, applies[i].implicit_seconds_on(host));
            let cpu_total = total(
                costs[i].seconds_on(host),
                applies[i].explicit_seconds_on(host),
            );
            prop_assert!(chosen <= impl_total + 1e-18);
            prop_assert!(chosen <= cpu_total + 1e-18);
            if !over {
                let gpu_total = total(
                    costs[i].seconds_on(spec),
                    applies[i].explicit_seconds_on(spec),
                );
                prop_assert!(chosen <= gpu_total + 1e-18);
            }
        }
        // the roll-up of per-choice minima undercuts the all-implicit plan
        let all_implicit: f64 = (applies.iter())
            .map(|a| iters * a.implicit_seconds_on(&DeviceSpec::host()))
            .sum();
        prop_assert!(cost_at(&plan, iters) <= all_implicit * (1.0 + 1e-12) + 1e-18);
    }

    /// Iteration-count extremes collapse the decision: `iters = 0` makes
    /// every assembly pure overhead (all-implicit); `iters = ∞` leaves only
    /// the apply cost (all-explicit, spill failing over off-pool).
    #[test]
    fn hybrid_extremes_collapse(subs in synth_strategy(), arena_kib in 1usize..4096) {
        let (costs, applies) = estimates_of(&subs);
        let devices = slots(&[arena_kib << 10]);
        let zero = plan_hybrid(
            &costs,
            &applies,
            &devices,
            &HybridPlanOptions::default().with_iters(0.0),
        );
        prop_assert_eq!(zero.count_of(Formulation::Implicit), subs.len());
        let inf = plan_hybrid(
            &costs,
            &applies,
            &devices,
            &HybridPlanOptions::default().with_iters(f64::INFINITY),
        );
        // synthetic explicit applies are strictly cheaper on the host than
        // on the launch-padded GPU only sometimes — but implicit never wins
        // at infinite iterations unless its apply is strictly cheapest, in
        // which case explicit-CPU (always admissible) must still be priced
        // higher; assert the collapse through the planner's own candidates
        for c in &inf.choices {
            if c.formulation == Formulation::Implicit {
                let host = DeviceSpec::host();
                prop_assert!(
                    applies[c.index].implicit_seconds_on(&host)
                        < applies[c.index].explicit_seconds_on(&host),
                    "implicit survived iters→∞ without the cheapest apply"
                );
            }
        }
    }
}

/// Real-workload property: on a 3×3 decomposition with an arena between the
/// smallest and largest temp footprint, the hybrid solver mixes
/// formulations, never oversubscribes the arena, applies bitwise like the
/// per-formulation reference, and still solves the PDE. The subdomains are
/// large enough (37² dofs) for a device assembly to pay off against the
/// host's implicit applies at 5 expected iterations, which is too few for a
/// host assembly to: the admitted subdomains go to the pool, the spilled
/// ones implicit.
#[test]
fn hybrid_solver_end_to_end_invariants() {
    use std::sync::Arc;

    let p = HeatProblem::build_2d(36, (3, 3), Gluing::Redundant);
    let cfg = ScConfig::optimized(true, true);
    let factors: Vec<SubdomainFactors> = p
        .subdomains
        .iter()
        .map(|sd| {
            SubdomainFactors::build(
                sd,
                FetiOptions::default().engine,
                Ordering::NestedDissection,
            )
        })
        .collect();
    // priced on the gluing block the planner prices and the producers
    // assemble: P̂ᵢᵀ, one column per distinct glued dof
    let temps: Vec<usize> = factors
        .iter()
        .map(|f| {
            let (l, pt) = (f.factor(), f.gluing());
            let params = cfg.resolve(true, l, pt);
            temp_footprint(l.ncols(), pt.ncols(), &params)
        })
        .collect();
    let (lo, hi) = (*temps.iter().min().unwrap(), *temps.iter().max().unwrap());
    assert!(lo < hi);
    let arena = (lo + hi) / 2;
    let pool = DevicePool::uniform(
        DeviceSpec {
            memory_bytes: 2 * arena,
            ..DeviceSpec::a100()
        },
        2,
        2,
    );
    let solver = FetiSolverBuilder::new()
        .backend(Backend::cluster(Arc::clone(&pool)))
        .formulation(FormulationChoice::Auto(
            HybridPlanOptions::default().with_iters(5.0),
        ))
        .assembly(cfg)
        .build(&p);
    let unified = solver.report().expect("auto mode reports");
    let report = unified.hybrid.as_ref().expect("hybrid section present");

    // exactly one formulation per subdomain; the spill set is the over-arena set
    let n = p.subdomains.len();
    assert_eq!(
        report.count_of(Formulation::ExplicitGpu)
            + report.count_of(Formulation::ExplicitCpu)
            + report.count_of(Formulation::Implicit),
        n
    );
    assert!(report.count_of(Formulation::ExplicitGpu) > 0);
    assert!(report.count_of(Formulation::Implicit) > 0);
    let spilled = &report.spilled;
    for (i, &t) in temps.iter().enumerate() {
        assert_eq!(spilled.contains(&i), t > arena, "subdomain {i}");
    }
    assert_eq!(spilled, &report.indices_of(Formulation::Implicit));

    // no explicit placement oversubscribes its device arena
    assert!(unified.temp_high_water() <= arena);
    assert!(!unified.devices.is_empty(), "gpu share ran");
    for dev in &unified.devices {
        assert!(dev.temp_high_water <= pool.device(dev.device).arena_capacity());
    }

    // hybrid application bitwise == mixed reference: the explicit share is
    // bitwise the all-explicit CPU assembly of Gᵢ (record/replay property)
    // between Cᵢ's gather and scatter, the spilled share the shared implicit
    // pipeline. Cross-check the GPU share against a fresh CPU cluster
    // assembly too.
    let cfg = ScConfig::optimized(true, true);
    let lam: Vec<f64> = (0..p.n_lambda).map(|i| (i as f64 * 0.41).cos()).collect();
    let got = solver.apply_f(&lam);
    let mut want = vec![0.0; p.n_lambda];
    for (i, sd) in p.subdomains.iter().enumerate() {
        let pl: Vec<f64> = sd.lambda_ids.iter().map(|&gl| lam[gl]).collect();
        let mut ql = vec![0.0; sd.n_lambda()];
        if spilled.contains(&i) {
            apply_implicit(&factors[i], &pl, &mut ql);
        } else {
            let f = &factors[i];
            let g = assemble_sc(&mut CpuExec, f.factor(), f.gluing(), &cfg);
            let map = BoundaryMap::of(&f.ct);
            let (mut pb, mut y) = (vec![0.0; map.n_rows()], vec![0.0; map.n_rows()]);
            map.scatter(&pl, &mut pb);
            sc_dense::symv(&sc_dense::SymPackedOf::from_lower(g.as_ref()), &pb, &mut y);
            map.gather(&y, &mut ql);
        }
        for (ll, &gl) in sd.lambda_ids.iter().enumerate() {
            want[gl] += ql[ll];
        }
    }
    assert_eq!(
        got, want,
        "hybrid apply must be bitwise the mixed reference"
    );

    // a cluster session over the unspilled share fits the pool
    let gpu_idx: Vec<usize> = (0..n).filter(|i| !spilled.contains(i)).collect();
    let gpu_bundles: Vec<&SubdomainFactors> = gpu_idx.iter().map(|&g| &factors[g]).collect();
    let res = AssemblySession::new(Backend::cluster(Arc::clone(&pool)), cfg).assemble(&gpu_bundles);
    assert_eq!(res.f.len(), gpu_idx.len());

    // and the solve still matches the direct solution
    let sol = solver.solve();
    assert!(sol.stats.converged, "{:?}", sol.stats);
    assert!(sol.stats.operator_applications > sol.stats.iterations);
    let (k, f_glob) = p.assemble_global();
    let chol = SparseCholesky::factorize(&k, CholOptions::default()).unwrap();
    let direct = chol.solve(&f_glob);
    let u = p.gather_global(&sol.u_locals);
    let scale = direct.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
    for i in 0..u.len() {
        assert!((u[i] - direct[i]).abs() < 1e-6 * scale, "dof {i}");
    }
}

/// Price every subdomain of the mixed-fit batch (twelve medium
/// subdomains, four large ones whose temporaries exceed the arena) under
/// the reference A100 spec: the §4.4 assembly estimate and the
/// per-application estimate the hybrid planner consumes.
fn mixed_fit_estimates(
    w: &sc_bench::BatchWorkload,
    cfg: &ScConfig,
) -> (Vec<CostEstimate>, Vec<ApplyEstimate>) {
    w.factors
        .iter()
        .enumerate()
        .map(|(i, (l, bt))| {
            let params = cfg.resolve(true, l, bt);
            (
                estimate_cost(&DeviceSpec::a100(), l, bt, &params, i),
                estimate_apply(l, bt, i),
            )
        })
        .unzip()
}

/// Expected PCPG iterations the mixed-fit verdicts plan for.
const MIXED_FIT_ITERS: f64 = 40.0;

/// Plan the mixed-fit batch at [`MIXED_FIT_ITERS`] from the given
/// per-subdomain estimates, on the arena-constrained pool's device slots.
fn plan_mixed_fit(
    costs: &[CostEstimate],
    applies: &[ApplyEstimate],
    pool: &DevicePool,
) -> HybridPlan {
    plan_hybrid(
        costs,
        applies,
        &pool_slots(pool),
        &HybridPlanOptions::default().with_iters(MIXED_FIT_ITERS),
    )
}

fn pool_slots(pool: &DevicePool) -> Vec<DeviceSlot> {
    pool.devices().iter().map(|d| DeviceSlot::of(d)).collect()
}

/// The two collapse baselines of the hybrid decision at `iters`, priced from
/// the same estimates the planner reads: every subdomain explicit (the
/// cheaper of the device where an arena admits it and the host), and every
/// subdomain implicit on the host.
fn collapse_costs(
    costs: &[CostEstimate],
    applies: &[ApplyEstimate],
    slots: &[DeviceSlot],
    iters: f64,
) -> (f64, f64) {
    let host = DeviceSpec::host();
    let total = |asm: f64, app: f64| asm + iters * app;
    let all_explicit = (costs.iter().zip(applies))
        .map(|(c, a)| {
            let cpu = total(c.seconds_on(&host), a.explicit_seconds_on(&host));
            slots
                .iter()
                .filter(|d| d.admits(c.temp_bytes))
                .map(|d| total(c.seconds_on(&d.spec), a.explicit_seconds_on(&d.spec)))
                .fold(cpu, f64::min)
        })
        .sum();
    let all_implicit = applies
        .iter()
        .map(|a| total(0.0, a.implicit_seconds_on(&host)))
        .sum();
    (all_explicit, all_implicit)
}

/// The acceptance workload of the hybrid planner: at the same expected
/// iteration count, the per-subdomain decision must beat — by ≥ 1.3× in
/// predicted simulated cost-to-solution (Σ assembly + iters × apply) — both
/// the all-explicit collapse, whose over-arena quarter must fail over to
/// explicit-CPU assembly, and the all-implicit one. The explicit-GPU share
/// is then really assembled through the cluster backend: bitwise the
/// sequential CPU reference, arena never oversubscribed.
#[test]
fn auto_beats_all_explicit_and_all_implicit_by_1_3x_on_the_mixed_fit_workload() {
    let w = sc_bench::BatchWorkload::build_mixed_fit();
    let items = w.factors.as_slice();
    let cfg = ScConfig::optimized(true, false);
    let (pool, arena) = w.mixed_fit_pool(&cfg);
    let (costs, applies) = mixed_fit_estimates(&w, &cfg);
    let auto = plan_mixed_fit(&costs, &applies, &pool);

    assert_eq!(
        auto.spilled.len(),
        items.len() / 4,
        "exactly the top quarter must spill, got {:?}",
        auto.spilled
    );
    let h = cost_at(&auto, MIXED_FIT_ITERS);
    let (e, i) = collapse_costs(&costs, &applies, &pool_slots(&pool), MIXED_FIT_ITERS);
    assert!(
        e / h >= 1.3 && i / h >= 1.3,
        "hybrid cost {h:.6}s must beat all-explicit {e:.6}s and all-implicit {i:.6}s \
         by >= 1.3x (got {:.2}x / {:.2}x)",
        e / h,
        i / h
    );

    let gpu_idx = auto.indices_of(Formulation::ExplicitGpu);
    assert!(
        !gpu_idx.is_empty(),
        "the medium class must stay on the pool"
    );
    let share: Vec<&(Csc, Csc)> = gpu_idx.iter().map(|&g| &items[g]).collect();
    let res = AssemblySession::new(Backend::cluster(pool), cfg).assemble(&share);
    for (local, &g) in gpu_idx.iter().enumerate() {
        let (l, bt) = &items[g];
        let reference = assemble_sc(&mut CpuExec, l, bt, &cfg);
        assert_eq!(
            res.f[local].to_dense(),
            reference,
            "hybrid GPU share diverged from the CPU reference at subdomain {g}"
        );
    }
    assert!(
        res.report.temp_high_water() <= arena,
        "arena oversubscribed: {} B of {arena} B",
        res.report.temp_high_water()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Explicit-vs-implicit F·p agreement on real subdomains: the two
    /// formulations are algebraically the same operator, and the hoisted
    /// boundary-map implicit path is **bitwise** the original sparse
    /// formulation (the refactor may not change a single bit).
    #[test]
    fn explicit_and_implicit_fp_agree(
        cells in 3usize..7,
        seed in 0u64..1000,
        sx in 2usize..4,
        sy in 1usize..3,
    ) {
        let p = HeatProblem::build_2d(cells, (sx, sy), Gluing::Redundant);
        for sd in &p.subdomains {
            let factors =
                SubdomainFactors::build(sd, FetiOptions::default().engine, Ordering::NestedDissection);
            let m = sd.n_lambda();
            let n = sd.n_dofs();
            let pvec: Vec<f64> = (0..m)
                .map(|i| ((i as u64 * 2654435761 + seed) % 1000) as f64 / 500.0 - 1.0)
                .collect();

            // bitwise: hoisted map vs the pre-hoist sparse pipeline
            let mut reference = vec![0.0; m];
            let mut t = vec![0.0; n];
            factors.bt_perm.spmv(1.0, &pvec, 0.0, &mut t);
            factors.chol.solve_fwd_permuted(&mut t);
            factors.chol.solve_bwd_permuted(&mut t);
            factors.bt_perm.spmv_t(1.0, &t, 0.0, &mut reference);
            let mut fast = vec![0.0; m];
            apply_implicit(&factors, &pvec, &mut fast);
            prop_assert_eq!(&fast, &reference, "hoisted implicit path changed bits");

            // numerical: explicit F̃ p vs implicit B̃ K⁺ B̃ᵀ p
            let l = factors.chol.factor_csc_ref();
            let expl = assemble_sc(&mut CpuExec, l, &factors.bt_perm, &ScConfig::optimized(false, false));
            let mut qe = vec![0.0; m];
            sc_dense::gemv(1.0, expl.as_ref(), &pvec, 0.0, &mut qe);
            let scale = qe.iter().fold(1.0f64, |a, &b| a.max(b.abs()));
            for i in 0..m {
                prop_assert!(
                    (qe[i] - fast[i]).abs() < 1e-8 * scale,
                    "explicit {} vs implicit {} at row {i}",
                    qe[i],
                    fast[i]
                );
            }
        }
    }
}
