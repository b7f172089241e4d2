//! The stage pipeline of the traced run: the library's set-up path executed
//! stage by stage, serially over the subdomains, through public functions.

use super::Ledger;
use crate::metric::{median, Clock, Quantity};
use crate::spans::Tracer;
use crate::timed::SimInfo;
use crate::workloads::{SolverCase, HYBRID_EXPECTED_ITERS};
use sc_core::{
    assemble_sc, estimate_apply, estimate_cost, plan_hybrid, plan_topology, run_syrk_variant,
    run_trsm_variant, ApplyEstimate, AssemblySession, CostEstimate, CpuExec, DeviceSlot,
    Formulation, GpuExec, HybridPlanOptions, RecordingExec, ScConfig, SteppedRhs, StreamPolicy,
    Topology,
};
use sc_dense::Mat;
use sc_factor::SparseCholesky;
use sc_fem::HeatProblem;
use sc_feti::{regularize_fixing_node, BoundaryMap, FetiOptions};
use sc_gpu::{Device, DeviceSpec, GpuKernels, KernelCost};
use sc_sparse::{csc_lower_solve, csc_lower_t_solve, Csc};
use std::time::Instant;

/// Platform flag `ScConfig::resolve` is given: every assembling workload
/// executes on the modelled GPU.
const ON_GPU: bool = true;

/// Σ over subdomains of every stage, one pass.
#[derive(Default)]
pub(super) struct StageTotals {
    regularize_s: f64,
    order_s: f64,
    factorize_s: f64,
    refactorize_s: f64,
    factor_solve_s: f64,
    permute_s: f64,
    trisolve_s: f64,
    gather_s: f64,
    stepped_s: f64,
    trsm_s: f64,
    syrk_s: f64,
    assemble_opt_s: f64,
    assemble_orig_s: f64,
    estimate_s: f64,
    sim_host_s: f64,
    nnz_k_lower: f64,
    nnz_l: f64,
    factor_flops: f64,
    trisolve_bytes: f64,
    trsm_flops: f64,
    syrk_flops: f64,
    orig_flops: f64,
    sim_trsm_s: f64,
    sim_syrk_s: f64,
    sim_apply_s: f64,
    gpu_section_opt_s: f64,
    gpu_section_orig_s: f64,
    sim_launches: f64,
    h2d_bytes: f64,
    d2h_bytes: f64,
    /// Wall seconds of the whole pass.
    wall_s: f64,
    /// Kept for the planning and session stages after the loop.
    factors: Vec<(Csc, Csc)>,
    costs: Vec<CostEstimate>,
    applies: Vec<ApplyEstimate>,
}

/// Gathers averaged per measurement: one gather is microseconds.
const GATHER_REPS: usize = 64;

fn flops_of(costs: &[KernelCost]) -> f64 {
    costs.iter().map(|c| c.flops).sum()
}

fn sim_seconds_of(spec: &DeviceSpec, costs: &[KernelCost]) -> f64 {
    costs.iter().map(|c| spec.kernel_seconds(c)).sum()
}

/// One simulated "GPU section" (paper Fig. 8): upload factor and gluing
/// block, assemble, download `F̃`, alone on one stream of a fresh device.
/// Cost-only kernels: the timeline depends on shapes, not values. Returns
/// simulated seconds, kernel launches, host seconds.
fn gpu_section(spec: &DeviceSpec, l: &Csc, bt: &Csc, cfg: &ScConfig) -> (f64, usize, f64) {
    let t0 = Instant::now();
    let device = Device::new(spec.clone(), 1);
    let kernels = GpuKernels::new_cost_only(device.stream(0));
    kernels.upload_csc(l);
    kernels.upload_csc(bt);
    let f = assemble_sc(&mut GpuExec::new(&kernels), l, bt, cfg);
    kernels.download_bytes(8 * f.nrows() * f.ncols());
    let sim = device.synchronize();
    (sim, device.launches(), t0.elapsed().as_secs_f64())
}

/// Execute the pipeline stage by stage, serially over the subdomains.
fn stage_pass(
    problem: &HeatProblem,
    opts: &FetiOptions,
    assembly: Option<ScConfig>,
    tr: &mut Tracer,
) -> StageTotals {
    let mut t = StageTotals::default();
    let spec = DeviceSpec::a100();
    let pass_start = Instant::now();
    let root = tr.begin("ledger.stages", None);
    for (i, sd) in problem.subdomains.iter().enumerate() {
        let sub = Some(i);
        let n = sd.n_dofs() as f64;
        let (kreg, s) = tr.time(
            "feti.regularize",
            sub,
            &[("n", n), ("nnz", sd.k.nnz() as f64)],
            || regularize_fixing_node(&sd.k, sd.kernel.as_deref(), sd.fixing_dof, None),
        );
        t.regularize_s += s;
        let (perm, s) = tr.time(
            "order.nd",
            sub,
            &[("n", n), ("nnz", kreg.nnz() as f64)],
            || opts.ordering.compute(&kreg),
        );
        t.order_s += s;
        let (chol, s) = tr.time("factor.factorize", sub, &[("n", n)], || {
            SparseCholesky::factorize_with_perm(&kreg, perm, opts.engine)
                .expect("regularized subdomain matrix is SPD")
        });
        t.factorize_s += s;
        let mut chol = chol;
        let (_, s) = tr.time(
            "factor.refactorize",
            sub,
            &[("nnz_l", chol.factor_nnz() as f64)],
            || {
                chol.refactorize(&kreg)
                    .expect("same matrix factorizes again")
            },
        );
        t.refactorize_s += s;
        let (_, s) = tr.time("factor.solve", sub, &[("n", n)], || chol.solve(&sd.f));
        t.factor_solve_s += s;
        let (bt_perm, s) = tr.time(
            "sparse.permute_rows",
            sub,
            &[("nnz", sd.bt.nnz() as f64)],
            || sd.bt.permute_rows(chol.perm()),
        );
        t.permute_s += s;
        let (l, _) = tr.time("factor.factor_csc", sub, &[], || chol.factor_csc());

        t.nnz_k_lower += (kreg.nnz() + kreg.ncols()) as f64 / 2.0;
        t.nnz_l += l.nnz() as f64;
        t.factor_flops += l
            .col_ptr()
            .windows(2)
            .map(|w| ((w[1] - w[0]) as f64).powi(2))
            .sum::<f64>();

        // forward and backward sparse triangular solve with L: each reads
        // every stored entry once (8-byte value + 8-byte index) and reads
        // and writes the vector
        let bytes = 2.0 * (16.0 * l.nnz() as f64 + 16.0 * n);
        let (_, s) = tr.time(
            "sparse.trisolve",
            sub,
            &[("nnz_l", l.nnz() as f64), ("bytes", bytes)],
            || {
                let mut x = sd.f.clone();
                csc_lower_solve(&l, &mut x);
                csc_lower_t_solve(&l, &mut x);
                x
            },
        );
        t.trisolve_s += s;
        t.trisolve_bytes += bytes;

        let map = BoundaryMap::of(&bt_perm);
        let mut out = vec![0.0; map.n_lambda()];
        let (_, s) = tr.time(
            "sparse.binned_gather",
            sub,
            &[("m", map.n_lambda() as f64)],
            || {
                for _ in 0..GATHER_REPS {
                    map.gather(std::hint::black_box(&sd.f), &mut out);
                }
            },
        );
        t.gather_s += s / GATHER_REPS as f64;

        let Some(cfg) = assembly else {
            continue;
        };
        let m = bt_perm.ncols();
        let shape = [("n", n), ("m", m as f64)];
        let params = cfg.resolve(ON_GPU, &l, &bt_perm);
        let fixed = ScConfig::Fixed(params);
        let (stepped, s) = tr.time("core.stepped", sub, &shape, || SteppedRhs::new(&bt_perm));
        t.stepped_s += s;
        let mut y = stepped.to_dense();

        let mut rec = RecordingExec::new();
        let (_, s) = tr.time("core.trsm", sub, &shape, || {
            run_trsm_variant(
                &mut rec,
                &l,
                &stepped,
                params.factor_storage,
                params.trsm,
                &mut y,
            )
        });
        t.trsm_s += s;
        let trsm_costs = rec.into_costs();
        t.trsm_flops += flops_of(&trsm_costs);
        t.sim_trsm_s += sim_seconds_of(&spec, &trsm_costs);

        let mut rec = RecordingExec::new();
        let mut f = Mat::zeros(m, m);
        let (_, s) = tr.time("core.syrk", sub, &shape, || {
            run_syrk_variant(&mut rec, &y, &stepped, params.syrk, &mut f)
        });
        t.syrk_s += s;
        let syrk_costs = rec.into_costs();
        t.syrk_flops += flops_of(&syrk_costs);
        t.sim_syrk_s += sim_seconds_of(&spec, &syrk_costs);
        drop((y, f));

        let (_, s) = tr.time("core.assemble_opt", sub, &shape, || {
            assemble_sc(&mut CpuExec, &l, &bt_perm, &fixed)
        });
        t.assemble_opt_s += s;
        // the baseline of [9] in the same factor storage; the recorder
        // computes exactly what CpuExec does and notes each kernel's cost
        let orig = ScConfig::original(params.factor_storage);
        let mut rec = RecordingExec::new();
        let (_, s) = tr.time("core.assemble_orig", sub, &shape, || {
            assemble_sc(&mut rec, &l, &bt_perm, &orig)
        });
        t.assemble_orig_s += s;
        t.orig_flops += flops_of(&rec.into_costs());

        tr.time("sim.gpu_sections", sub, &shape, || {
            let (opt_s, launches, host_s) = gpu_section(&spec, &l, &bt_perm, &fixed);
            let (orig_s, _, _) = gpu_section(&spec, &l, &bt_perm, &orig);
            t.gpu_section_opt_s += opt_s;
            t.gpu_section_orig_s += orig_s;
            t.sim_launches += launches as f64;
            t.sim_host_s += host_s;
        });
        t.h2d_bytes +=
            KernelCost::csc_transfer(l.nnz()).bytes + KernelCost::csc_transfer(bt_perm.nnz()).bytes;
        t.d2h_bytes += 8.0 * (m * m) as f64;

        let ((cost, apply), s) = tr.time("core.estimate", sub, &shape, || {
            (
                estimate_cost(&spec, &l, &bt_perm, &params, i),
                estimate_apply(&l, &bt_perm, i),
            )
        });
        t.estimate_s += s;
        t.sim_apply_s += apply.explicit_seconds_on(&spec);
        t.costs.push(cost);
        t.applies.push(apply);
        t.factors.push((l, bt_perm));
    }
    tr.end(root);
    t.wall_s = pass_start.elapsed().as_secs_f64();
    t
}

/// The planner and the batched session, run from outside on the traced
/// pass's factors, against the workload's own backend. Solver workloads only.
pub(super) fn plan_and_session(
    case: &SolverCase,
    totals: StageTotals,
    realized_makespan_s: f64,
    tr: &mut Tracer,
    ledger: &mut Ledger,
) {
    let StageTotals {
        factors,
        costs,
        applies,
        estimate_s,
        ..
    } = totals;
    let backend = case.backend();
    // which subdomains go to the devices, and the topology they are planned on
    let ((explicit, topo), pick_s) = tr.time(
        "core.plan_hybrid",
        None,
        &[("subdomains", costs.len() as f64)],
        || match (backend.pool(), backend.device()) {
            (Some(pool), _) => {
                let slots: Vec<DeviceSlot> =
                    pool.devices().iter().map(|d| DeviceSlot::of(d)).collect();
                let plan = plan_hybrid(
                    &costs,
                    &applies,
                    &slots,
                    &HybridPlanOptions::default().with_iters(HYBRID_EXPECTED_ITERS),
                );
                (
                    plan.indices_of(Formulation::ExplicitGpu),
                    Topology::of_pool(pool, StreamPolicy::default()),
                )
            }
            (None, Some(device)) => (
                (0..costs.len()).collect::<Vec<usize>>(),
                Topology::device(DeviceSlot::of(device)),
            ),
            (None, None) => unreachable!("an assembling workload runs on simulated devices"),
        },
    );
    let share: Vec<CostEstimate> = explicit.iter().map(|&i| costs[i].clone()).collect();
    let (plan, plan_s) = tr.time(
        "core.plan_topology",
        None,
        &[("subdomains", share.len() as f64)],
        || {
            plan_topology(&share, &topo)
                .expect("the explicit share fits the pool it was chosen for")
        },
    );
    ledger.host("core.plan_s", estimate_s + pick_s + plan_s);
    let predicted_s = plan.est_makespan(&topo);
    ledger.sim("core.plan_predicted_s", predicted_s);
    ledger.ratio(
        "core.plan_error_share",
        Quantity::sim((predicted_s - realized_makespan_s).abs()),
        Quantity::sim(realized_makespan_s),
    );

    let items: Vec<(Csc, Csc)> = factors
        .into_iter()
        .enumerate()
        .filter_map(|(i, f)| explicit.contains(&i).then_some(f))
        .collect();
    let session = AssemblySession::new(backend, case.cfg());
    let (_, s) = tr.time(
        "core.session_assemble",
        None,
        &[("subdomains", items.len() as f64)],
        || session.assemble(&items),
    );
    ledger.host("core.session_assemble_s", s);
}

/// Copy the Σ totals of the traced pass into the ledger.
fn record_stages(ledger: &mut Ledger, t: &StageTotals, assembled: bool) {
    ledger.host("feti.regularize_s", t.regularize_s);
    ledger.host("order.nd_s", t.order_s);
    ledger.ratio(
        "order.fill_ratio",
        Quantity::count(t.nnz_l),
        Quantity::count(t.nnz_k_lower),
    );
    let symbolic = Quantity::host(t.factorize_s)
        .diff(Quantity::host(t.refactorize_s))
        .expect("host minus host");
    ledger.set("factor.symbolic_s", symbolic);
    ledger.host("factor.numeric_s", t.refactorize_s);
    ledger.host("factor.solve_s", t.factor_solve_s);
    ledger.count("factor.nnz_l", t.nnz_l);
    ledger.count("factor.flops", t.factor_flops);
    ledger.ratio(
        "factor.numeric_gflops",
        Quantity::count(t.factor_flops * 1e-9),
        Quantity::host(t.refactorize_s),
    );
    ledger.host("sparse.trisolve_s", t.trisolve_s);
    ledger.ratio(
        "sparse.trisolve_gbs",
        Quantity::count(t.trisolve_bytes * 1e-9),
        Quantity::host(t.trisolve_s),
    );
    ledger.host("sparse.binned_gather_us", t.gather_s * 1e6);
    ledger.host("sparse.permute_s", t.permute_s);
    if !assembled {
        return;
    }
    ledger.host("core.stepped_s", t.stepped_s);
    ledger.host("core.trsm_s", t.trsm_s);
    ledger.host("core.syrk_s", t.syrk_s);
    ledger.host("core.assemble_opt_s", t.assemble_opt_s);
    ledger.host("core.assemble_orig_s", t.assemble_orig_s);
    ledger.count("core.trsm_flops", t.trsm_flops);
    ledger.count("core.syrk_flops", t.syrk_flops);
    let opt_over_orig = Quantity::count(t.trsm_flops + t.syrk_flops)
        .ratio(Quantity::count(t.orig_flops))
        .expect("count over count");
    ledger.set(
        "core.flops_saved_share",
        Quantity {
            value: opt_over_orig.value.map(|r| 1.0 - r),
            clock: Clock::Count,
        },
    );
    ledger.ratio(
        "core.trsm_gflops",
        Quantity::count(t.trsm_flops * 1e-9),
        Quantity::host(t.trsm_s),
    );
    ledger.ratio(
        "core.syrk_gflops",
        Quantity::count(t.syrk_flops * 1e-9),
        Quantity::host(t.syrk_s),
    );
    ledger.sim("sim.gpu_section_orig_s", t.gpu_section_orig_s);
    ledger.sim("sim.gpu_section_opt_s", t.gpu_section_opt_s);
    ledger.sim("sim.trsm_s", t.sim_trsm_s);
    ledger.sim("sim.syrk_s", t.sim_syrk_s);
    ledger.sim("sim.apply_s", t.sim_apply_s);
    ledger.count("sim.h2d_bytes", t.h2d_bytes);
    ledger.count("sim.d2h_bytes", t.d2h_bytes);
    ledger.ratio(
        "sim.host_us_per_kernel",
        Quantity::host(t.sim_host_s * 1e6),
        Quantity::count(t.sim_launches),
    );
    // paper reference rows: ratios of like clocks, printed beside the
    // paper's figure (5.1x GPU section), never as an error against it
    ledger.ratio(
        "paper.gpu_section_speedup",
        Quantity::sim(t.gpu_section_orig_s),
        Quantity::sim(t.gpu_section_opt_s),
    );
    ledger.ratio(
        "paper.host_opt_over_orig",
        Quantity::host(t.assemble_orig_s),
        Quantity::host(t.assemble_opt_s),
    );
}

/// What the simulated device did during the traced rep.
pub(super) fn record_sim(ledger: &mut Ledger, sim: &SimInfo) {
    ledger.sim("sim.assembly_s", sim.makespan_s);
    ledger.count(
        "sim.arena_high_water_bytes",
        sim.arena_high_water_bytes as f64,
    );
    ledger.sim("sim.stream_utilization", sim.stream_utilization);
    ledger.count("sim.kernel_launches", sim.kernel_launches as f64);
    let lookups = (sim.cuts_cache_hits + sim.cuts_cache_misses) as f64;
    if lookups > 0.0 {
        ledger.count(
            "core.cuts_cache_hit_share",
            sim.cuts_cache_hits as f64 / lookups,
        );
    }
}

/// Seconds of stage passes the overhead measurement aims for; a short
/// pipeline is repeated so timer and scheduler noise do not swamp a
/// difference of a few percent.
const OVERHEAD_TARGET_S: f64 = 1.5;

/// Run the stage pipeline with spans on and off and record the first traced
/// pass plus the trace's own two metrics. Passes alternate on/off, up to
/// five pairs; the overhead is the ratio of the median wall times.
pub(super) fn stages_with_overhead(
    ledger: &mut Ledger,
    problem: &HeatProblem,
    opts: &FetiOptions,
    assembly: Option<ScConfig>,
    tr: &mut Tracer,
) -> StageTotals {
    // an unrecorded pass first, so every compared pass runs warm
    let warm = stage_pass(problem, opts, assembly, &mut Tracer::new(false));
    let pairs = ((OVERHEAD_TARGET_S / warm.wall_s) as usize).clamp(1, 5);
    let traced = stage_pass(problem, opts, assembly, tr);
    let (mut on, mut off) = (vec![traced.wall_s], Vec::new());
    for pair in 0..pairs {
        if pair > 0 {
            // spans of the extra passes are recorded, then dropped
            on.push(stage_pass(problem, opts, assembly, &mut Tracer::new(true)).wall_s);
        }
        off.push(stage_pass(problem, opts, assembly, &mut Tracer::new(false)).wall_s);
    }
    record_stages(ledger, &traced, assembly.is_some());
    let on_over_off = Quantity::host(median(&on).expect("one traced pass"))
        .ratio(Quantity::host(median(&off).expect("one untraced pass")))
        .expect("host over host");
    ledger.set(
        "trace.overhead_share",
        Quantity {
            value: on_over_off.value.map(|r| r - 1.0),
            clock: Clock::Host,
        },
    );
    let root = tr
        .spans()
        .iter()
        .rfind(|s| s.name == "ledger.stages")
        .expect("the traced pass opened its root span");
    ledger.ratio(
        "trace.attributed_share",
        Quantity::host(root.seconds() - tr.self_seconds(root.id)),
        Quantity::host(root.seconds()),
    );
    traced
}
