//! API-surface snapshot of the `Backend` + `AssemblySession` +
//! `FetiSolverBuilder` surface:
//!
//! 1. **compile-time** — every `schur_dd::prelude` re-export exists (the
//!    bindings below fail to compile on any drift);
//! 2. **runtime** — every backend assembles `F̃` **bitwise identical** to
//!    the sequential `assemble_sc` CPU reference and replays a reproducible
//!    simulated timeline, proptested over mixed workloads; solvers built
//!    on every explicit backend apply the CPU-assembled operator bitwise,
//!    and the solver's report roll-ups are consistent with their per-device
//!    sections.

use proptest::prelude::*;
use schur_dd::prelude::*;
use schur_dd::sc_sparse::Coo;
use std::sync::Arc;

/// The prelude's items, referenced so a dropped re-export is a compile
/// error.
#[test]
fn prelude_surface_is_complete() {
    // assembly surface — type positions
    fn _session_types(
        _: &AssemblySession,
        _: &AssemblyResult,
        _: &AssemblyReport,
        _: &Backend,
        _: &DeviceReport,
    ) {
    }
    fn _report_rows(_: &SubdomainTiming, _: &ScheduledSpan) {}
    fn _solver_types(_: &FetiSolverBuilder, _: &FormulationChoice, _: &dyn BatchEntry) {}
    // `assemble` takes a slice of entries: owned pairs (through a `Vec`),
    // FETI factor bundles (handing over the shapes they keep), and
    // references to bundles for a share of a batch
    fn _entries(
        session: &AssemblySession,
        pairs: Vec<(Csc, Csc)>,
        bundles: &[SubdomainFactors],
        share: &[&SubdomainFactors],
    ) -> [AssemblyResult; 3] {
        [
            session.assemble(&pairs),
            session.assemble(bundles),
            session.assemble(share),
        ]
    }
    // options structs carry the unified with_* builder surface
    let _ = ScheduleOptions::default()
        .with_policy(StreamPolicy::RoundRobin)
        .with_ready_at(Vec::new());
    let _ = HybridPlanOptions::default().with_iters(1.0);
    let _ = FetiOptions::default()
        .with_engine(Engine::Simplicial)
        .with_ordering(Ordering::Natural)
        .with_preconditioner(sc_feti_preconditioner())
        .with_tol(1e-8)
        .with_max_iter(10);
    let _ = [
        Backend::cpu(),
        Backend::gpu(Device::new(DeviceSpec::a100(), 1)),
        Backend::cluster(DevicePool::uniform(DeviceSpec::a100(), 1, 1)),
    ];
    // mixed-precision surface: the Precision knob on the solver builder
    // (its one setter) and the solver, the F32Refined payload shape, and
    // the refinement stats
    fn _precision_types(_: &Precision, _: &RefinementStats) {}
    let refined = Precision::F32Refined {
        refine_tol: 1e-10,
        max_refine: 8,
    };
    assert!(refined.is_f32());
    assert_eq!(Precision::default(), Precision::F64);
    let _: fn(FetiSolverBuilder, Precision) -> FetiSolverBuilder = FetiSolverBuilder::precision;
    let _: fn(&FetiSolver<'_>) -> Precision = |s| s.precision();
    let _: fn(&FetiSolution) -> Option<RefinementStats> = |s| s.refinement;
    let _: fn(&RefinementStats) -> (usize, usize, bool) =
        |r| (r.outer_iterations, r.inner_iterations, r.fell_back);
    // Table 2: every row yields the one solver type, timed on two clocks
    use schur_dd::sc_feti::{measure_apply_cost, PreprocessReport, TwoClock};
    fn _row<'p>(p: &'p HeatProblem, d: &Arc<Device>) -> (FetiSolver<'p>, PreprocessReport) {
        preprocess_approach(p, DualOpApproach::ExplGpuOpt, Some(d))
    }
    let _: fn(&FetiSolver<'_>, usize) -> TwoClock = measure_apply_cost;
    let _: fn(&PreprocessReport) -> (f64, TwoClock) = |r| (r.factorization_s, r.assembly);
    // the launch facade `benchmark/` drives next to `GpuExec`, by calling it
    let dev = Device::new(DeviceSpec::tiny_test_device(), 1);
    assert_eq!(dev.arena_capacity(), dev.spec().memory_bytes / 2);
    let kernels = GpuKernels::new(dev.stream(0));
    assert!(!kernels.is_cost_only());
    assert!(GpuKernels::new_cost_only(dev.stream(0)).is_cost_only());
    let mut one = Coo::new(1, 1);
    one.push(0, 0, 1.0);
    let up = kernels.upload_csc(&one.to_csc());
    let down = kernels.download_bytes(64);
    assert!(up.end <= down.start && kernels.stream().time() == down.end);
}

fn sc_feti_preconditioner() -> schur_dd::sc_feti::Preconditioner {
    schur_dd::sc_feti::Preconditioner::None
}

/// A mixed workload: subdomain sizes and multiplier counts drawn per
/// subdomain, factorized like the production pipeline.
fn mixed_workload() -> impl Strategy<Value = Vec<(Csc, Csc)>> {
    proptest::collection::vec((3usize..8, 0usize..9, 0u64..1000), 2..8).prop_map(|subs| {
        subs.into_iter()
            .map(|(nx, m, seed)| {
                let n = nx * nx;
                let idx = |x: usize, y: usize| y * nx + x;
                let mut c = Coo::new(n, n);
                for y in 0..nx {
                    for x in 0..nx {
                        let v = idx(x, y);
                        c.push(v, v, 4.05 + (seed % 5) as f64 * 0.01);
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
                let k = c.to_csc();
                let mut b = Coo::new(n, m);
                for j in 0..m {
                    let d = ((j as u64 * 7919 + seed * 131) % n as u64) as usize;
                    b.push(
                        d,
                        j,
                        if (j as u64 + seed).is_multiple_of(2) {
                            1.0
                        } else {
                            -1.0
                        },
                    );
                }
                let chol = SparseCholesky::factorize(&k, CholOptions::default()).unwrap();
                (chol.factor_csc(), b.to_csc().permute_rows(chol.perm()))
            })
            .collect()
    })
}

/// Assemble `items` on every backend over fresh devices, checking each
/// `F̃ᵢ` against `reference`; returns the reported makespans, in backend
/// order, then the devices' final simulated clocks.
fn assemble_on_every_backend(
    items: &[(Csc, Csc)],
    cfg: ScConfig,
    reference: &[Mat],
    n_streams: usize,
    n_devices: usize,
) -> Result<Vec<f64>, TestCaseError> {
    let dev = Device::new(DeviceSpec::a100(), n_streams);
    let dev_rr = Device::new(DeviceSpec::a100(), n_streams);
    let pool = DevicePool::uniform(DeviceSpec::a100(), n_devices, n_streams);
    let dev_one = Device::new(DeviceSpec::a100(), n_streams);
    let backends = [
        ("cpu", Backend::cpu()),
        ("gpu", Backend::gpu(Arc::clone(&dev))),
        (
            "gpu round-robin",
            Backend::gpu_with(
                Arc::clone(&dev_rr),
                ScheduleOptions::default().with_policy(StreamPolicy::RoundRobin),
            ),
        ),
        ("cluster", Backend::cluster(Arc::clone(&pool))),
        (
            "cluster of one",
            Backend::cluster(DevicePool::from_devices(vec![Arc::clone(&dev_one)])),
        ),
    ];
    let mut clocks = Vec::new();
    for (name, backend) in backends {
        let res = AssemblySession::new(backend, cfg).assemble(items);
        prop_assert_eq!(res.f.len(), reference.len());
        for (i, want) in reference.iter().enumerate() {
            prop_assert_eq!(&res.f[i].to_dense(), want, "{} deviates at {}", name, i);
        }
        clocks.push(res.report.makespan);
    }
    clocks.extend([
        dev.synchronize(),
        dev_rr.synchronize(),
        pool.synchronize_all(),
        dev_one.synchronize(),
    ]);
    Ok(clocks)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Every backend produces bitwise-identical F̃ to sequential
    /// `assemble_sc` on the CPU, over mixed workloads and both fixed and
    /// auto configurations (the workload's subdomains stay below the size
    /// where `ScConfig::Auto` starts choosing by platform), and two fresh
    /// sets of devices with identical options replay the same simulated
    /// timeline. One GPU is a pool of one: `"gpu"` and `"cluster of one"`
    /// share the spec, the streams and the default schedule, so they report
    /// the same makespan.
    #[test]
    fn every_backend_is_bitwise_the_sequential_reference(
        data in mixed_workload(),
        auto_cfg in prop::bool::ANY,
        n_streams in 1usize..4,
        n_devices in 1usize..4,
    ) {
        let cfg = if auto_cfg { ScConfig::Auto } else { ScConfig::optimized(true, false) };
        let reference: Vec<Mat> = data
            .iter()
            .map(|(l, bt)| assemble_sc(&mut CpuExec, l, bt, &cfg))
            .collect();
        let first = assemble_on_every_backend(&data, cfg, &reference, n_streams, n_devices)?;
        // makespans in backend order: cpu, gpu, gpu round-robin, cluster,
        // cluster of one
        prop_assert_eq!(first[1], first[4], "gpu vs cluster of one");
        let again = assemble_on_every_backend(&data, cfg, &reference, n_streams, n_devices)?;
        prop_assert_eq!(first, again,
            "fresh devices with identical options must replay the same simulated timeline");
    }
}

/// Every explicit backend, bound through the builder, applies the dual
/// operator bitwise like the CPU-assembled one (operators land on the
/// device and stream their schedule used) and solves the problem.
#[test]
fn explicit_backends_apply_the_cpu_operator_bitwise() {
    let p = HeatProblem::build_2d(4, (2, 2), Gluing::Redundant);
    let cfg = ScConfig::optimized(true, false);
    let lam: Vec<f64> = (0..p.n_lambda).map(|i| (i as f64 * 0.29).sin()).collect();
    let explicit = |backend: Backend| {
        FetiSolverBuilder::new()
            .backend(backend)
            .formulation(FormulationChoice::Explicit)
            .assembly(cfg)
            .build(&p)
    };
    let cpu = explicit(Backend::cpu());
    let want = cpu.apply_f(&lam);
    let u_cpu = p.gather_global(&cpu.solve().u_locals);
    for (name, backend) in [
        ("gpu", Backend::gpu(Device::new(DeviceSpec::a100(), 2))),
        (
            "gpu round-robin",
            Backend::gpu_with(
                Device::new(DeviceSpec::a100(), 2),
                ScheduleOptions::default().with_policy(StreamPolicy::RoundRobin),
            ),
        ),
        (
            "cluster",
            Backend::cluster(DevicePool::uniform(DeviceSpec::a100(), 2, 2)),
        ),
    ] {
        let solver = explicit(backend);
        assert_eq!(solver.apply_f(&lam), want, "{name}: apply deviates");
        let sol = solver.solve();
        assert!(sol.stats.converged, "{name}: {:?}", sol.stats);
        assert_eq!(
            p.gather_global(&sol.u_locals),
            u_cpu,
            "{name}: solution deviates"
        );
    }
}

/// The solver's report roll-ups stay consistent with its per-subdomain and
/// per-device sections.
#[test]
fn solver_report_roll_ups_match_their_sections() {
    let p = HeatProblem::build_3d(2, (2, 2, 1), Gluing::Redundant);
    let pool = DevicePool::uniform(DeviceSpec::a100(), 2, 2);
    let solver = FetiSolverBuilder::new()
        .backend(Backend::cluster(pool))
        .formulation(FormulationChoice::Explicit)
        .assembly(ScConfig::optimized(true, true))
        .build(&p);
    let report = solver.report().expect("explicit mode reports");
    assert_eq!(report.subdomains.len(), p.subdomains.len());
    assert_eq!(report.devices.len(), 2);
    assert!(report.makespan > 0.0);
    assert_eq!(
        report.makespan,
        report
            .devices
            .iter()
            .map(|d| d.makespan)
            .fold(0.0, f64::max)
    );
}
