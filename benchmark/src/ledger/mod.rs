//! The traced run: one rep of the workload under outer spans, then a serial
//! stage-by-stage re-execution of the pipeline through the layers' public
//! functions, which yields the per-layer metrics.
//!
//! Layer = crate. `Σ` metrics sum over the workload's subdomains. The
//! stage pipeline runs twice, spans on and off; the difference is the trace
//! overhead. A stage a workload's configuration does not execute (assembly
//! on `impl3d_cpu`, the service on the solver workloads) is not run and its
//! metrics read 0: the time that workload spends there.

use crate::json::Json;
use crate::metric::{median, Clock, Quantity, PER_LAYER};
use crate::probe::Pacer;
use crate::report::{Reported, RunOutcome};
use crate::rng::Rng;
use crate::spans::Tracer;
use crate::timed::{serve_session, solver_rep, LambdaPins, ServeSession};
use crate::workloads::{
    check_solution, cold_pass, job_line, steady_round, ServeCase, SolverCase, Workload, TENANTS,
};
use sc_core::{Backend, Precision, ScConfig};
use sc_dense::{Mat, MatOf, Trans};
use sc_feti::{FetiOptions, FetiSolver, FetiSolverBuilder, FormulationChoice};
use sc_serve::{parse_request, ServeHandle, ServeOptions};
use stages::{plan_and_session, record_sim, stages_with_overhead};
use std::collections::BTreeMap;
use std::time::Instant;

mod stages;

/// Per-layer metric values by name; anything never set reads 0 on its
/// declared clock.
#[derive(Default)]
struct Ledger {
    values: BTreeMap<&'static str, Quantity>,
}

impl Ledger {
    fn set(&mut self, name: &'static str, q: Quantity) {
        let declared = crate::metric::decl(name).unwrap_or_else(|| panic!("{name} undeclared"));
        assert_eq!(
            declared.clock,
            q.clock,
            "{name}: measured on {} but declared {}",
            q.clock.name(),
            declared.clock.name()
        );
        self.values.insert(name, q);
    }

    fn host(&mut self, name: &'static str, v: f64) {
        self.set(name, Quantity::host(v));
    }

    fn sim(&mut self, name: &'static str, v: f64) {
        self.set(name, Quantity::sim(v));
    }

    fn count(&mut self, name: &'static str, v: f64) {
        self.set(name, Quantity::count(v));
    }

    /// `num / den` through the like-clock guard; a cross-clock pair is a
    /// bug in this file, not a run-time condition.
    fn ratio(&mut self, name: &'static str, num: Quantity, den: Quantity) {
        let q = num.ratio(den).unwrap_or_else(|e| panic!("{name}: {e}"));
        self.set(name, q);
    }

    fn into_reported(self) -> Vec<Reported> {
        PER_LAYER
            .iter()
            .map(|d| {
                let q = self.values.get(d.name).copied().unwrap_or(Quantity {
                    value: Some(0.0),
                    clock: d.clock,
                });
                Reported::new(d.name, q)
            })
            .collect()
    }
}

/// Median wall seconds of `reps` calls of `kernel`, each on a fresh value
/// from `setup` (which is not timed).
fn median_seconds<T>(
    reps: usize,
    mut setup: impl FnMut() -> T,
    mut kernel: impl FnMut(&mut T),
) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let mut state = setup();
            let t0 = Instant::now();
            kernel(&mut state);
            let secs = t0.elapsed().as_secs_f64();
            std::hint::black_box(&state);
            secs
        })
        .collect();
    median(&samples).expect("at least one rep")
}

// ---------------------------------------------------------------------------
// sc_dense: the in-run yardstick
// ---------------------------------------------------------------------------

fn random_mat<S: sc_dense::Scalar>(rng: &mut Rng, rows: usize, cols: usize) -> MatOf<S> {
    MatOf::from_fn(rows, cols, |_, _| S::from_f64(rng.symmetric()))
}

/// Calls per yardstick; the median is reported.
const YARDSTICK_REPS: usize = 5;

/// Dense kernels at order `n` and GEMV at order `n_gemv`. Rates use the
/// textbook operation counts; the GEMV figure is computed bytes (the matrix
/// read once), not measured traffic.
fn dense_yardsticks(ledger: &mut Ledger, smoke: bool, notes: &mut Vec<String>) {
    let (n, n_gemv) = if smoke { (96, 256) } else { (512, 4096) };
    let mut rng = Rng::new(0xD155, 0);
    let nf = n as f64;
    let a: Mat = random_mat(&mut rng, n, n);
    let b: Mat = random_mat(&mut rng, n, n);
    let rate = |work: f64, secs: f64| {
        Quantity::count(work * 1e-9)
            .ratio(Quantity::host(secs))
            .expect("count over host")
    };

    let gemm_s = median_seconds(
        YARDSTICK_REPS,
        || Mat::zeros(n, n),
        |c| {
            sc_dense::gemm(
                1.0,
                a.as_ref(),
                Trans::No,
                b.as_ref(),
                Trans::No,
                0.0,
                c.as_mut(),
            );
        },
    );
    ledger.set("dense.gemm_gflops", rate(2.0 * nf * nf * nf, gemm_s));

    let syrk_s = median_seconds(
        YARDSTICK_REPS,
        || Mat::zeros(n, n),
        |c| {
            sc_dense::syrk_t(1.0, a.as_ref(), 0.0, c.as_mut());
        },
    );
    ledger.set("dense.syrk_gflops", rate(nf * nf * nf, syrk_s));

    // SPD with a well-conditioned factor: AᵀA/n + n I
    let mut spd = Mat::zeros(n, n);
    sc_dense::syrk_t(1.0 / nf, a.as_ref(), 0.0, spd.as_mut());
    spd.symmetrize_from_lower();
    for i in 0..n {
        spd.col_mut(i)[i] += nf;
    }
    let chol_s = median_seconds(
        YARDSTICK_REPS,
        || spd.clone(),
        |l| {
            sc_dense::cholesky_in_place(l.as_mut()).expect("yardstick matrix is SPD");
        },
    );
    ledger.set("dense.chol_gflops", rate(nf * nf * nf / 3.0, chol_s));

    let mut l = spd;
    sc_dense::cholesky_in_place(l.as_mut()).expect("yardstick matrix is SPD");
    let trsm_s = median_seconds(
        YARDSTICK_REPS,
        || b.clone(),
        |x| {
            sc_dense::trsm_lower_left(l.as_ref(), x.as_mut());
        },
    );
    ledger.set("dense.trsm_gflops", rate(nf * nf * nf, trsm_s));

    let (a32, b32): (MatOf<f32>, MatOf<f32>) = (a.cast(), b.cast());
    let gemm32_s = median_seconds(
        YARDSTICK_REPS,
        || MatOf::<f32>::zeros(n, n),
        |c| {
            sc_dense::gemm(
                1.0f32,
                a32.as_ref(),
                Trans::No,
                b32.as_ref(),
                Trans::No,
                0.0f32,
                c.as_mut(),
            );
        },
    );
    ledger.set("dense.gemm_f32_gflops", rate(2.0 * nf * nf * nf, gemm32_s));

    let g = Mat::from_fn(n_gemv, n_gemv, |i, j| {
        ((i * 31 + j * 17) % 97) as f64 * 1e-2
    });
    let x = vec![1.0; n_gemv];
    let gemv_s = median_seconds(
        YARDSTICK_REPS,
        || vec![0.0; n_gemv],
        |y| {
            sc_dense::gemv(1.0, g.as_ref(), &x, 0.0, y);
        },
    );
    let bytes = 8.0 * (n_gemv * n_gemv) as f64;
    ledger.set("dense.gemv_gbs", rate(bytes, gemv_s));
    notes.push(format!(
        "dense yardsticks at n={n}; gemv array {bytes} bytes, last-level cache {} bytes \
         (a bandwidth figure wants the array at 4x the cache; where it is not, dense.gemv_gbs is a cache-resident rate)",
        crate::provenance::llc_bytes().map_or_else(|| "unknown".to_string(), |b| b.to_string())
    ));
}

// ---------------------------------------------------------------------------
// sc_feti
// ---------------------------------------------------------------------------

/// Applications averaged per operator-level measurement.
const APPLY_REPS: usize = 20;

fn mean_apply_us(tr: &mut Tracer, name: &'static str, mut f: impl FnMut()) -> f64 {
    let (_, s) = tr.time(name, None, &[("calls", APPLY_REPS as f64)], || {
        for _ in 0..APPLY_REPS {
            f();
        }
    });
    s / APPLY_REPS as f64 * 1e6
}

fn host_builder(case: &SolverCase, formulation: FormulationChoice) -> FetiSolverBuilder {
    FetiSolverBuilder::new()
        .options(case.feti_options())
        .backend(Backend::cpu())
        .formulation(formulation)
        .assembly(ScConfig::optimized(false, case.mesh.is_3d()))
}

/// Operator-level costs on the workload's own solver, and the host-clock
/// set-up/apply trade between the explicit and implicit formulations.
fn feti_layer(case: &SolverCase, tr: &mut Tracer, ledger: &mut Ledger, out: &mut RunOutcome) {
    let problem = &case.problem;
    let (own, _) = tr.time("feti.build", None, &[], || case.builder().build(problem));
    let p = own.dual_rhs().to_vec();
    let project_us = mean_apply_us(tr, "feti.project", || {
        std::hint::black_box(own.project(&p));
    });
    ledger.host("feti.project_us", project_us);
    let precond_us = mean_apply_us(tr, "feti.apply_lumped", || {
        std::hint::black_box(own.apply_lumped(&p));
    });
    ledger.host("feti.precond_us", precond_us);
    let (sol, solve_s) = tr.time("feti.solve", None, &[], || own.solve());
    ledger.ratio(
        "feti.iter_us",
        Quantity::host(solve_s * 1e6),
        Quantity::count(sol.stats.iterations as f64),
    );
    let (_, s) = tr.time("feti.recover_primal", None, &[], || {
        own.recover_primal(&sol.lambda)
    });
    ledger.host("feti.recover_primal_s", s);
    drop(own);

    // explicit on the host against implicit on the host: both set-up times
    // and both per-application times are wall seconds of this machine
    let (explicit, explicit_build_s) = tr.time("feti.build_explicit_cpu", None, &[], || {
        host_builder(case, FormulationChoice::Explicit).build(problem)
    });
    let (implicit, implicit_build_s) = tr.time("feti.build_implicit", None, &[], || {
        host_builder(case, FormulationChoice::Implicit).build(problem)
    });
    let apply = |tr: &mut Tracer, name: &'static str, solver: &FetiSolver| {
        mean_apply_us(tr, name, || {
            std::hint::black_box(solver.apply_f(&p));
        })
    };
    let explicit_us = apply(tr, "feti.apply_f_explicit", &explicit);
    let implicit_us = apply(tr, "feti.apply_f_implicit", &implicit);
    ledger.host("feti.apply_explicit_us", explicit_us);
    ledger.host("feti.apply_implicit_us", implicit_us);
    ledger.ratio(
        "paper.expl_over_impl_setup_host",
        Quantity::host(explicit_build_s),
        Quantity::host(implicit_build_s),
    );
    // iterations after which the explicit set-up has paid for itself:
    // extra set-up seconds over seconds saved per application
    let extra_setup = Quantity::host(explicit_build_s)
        .diff(Quantity::host(implicit_build_s))
        .expect("host minus host");
    let saved_per_apply = Quantity::host(implicit_us * 1e-6)
        .diff(Quantity::host(explicit_us * 1e-6))
        .expect("host minus host");
    ledger.ratio("feti.amortization_iters_host", extra_setup, saved_per_apply);
    drop((explicit, implicit));

    // the same workload at f32 with f64 refinement on top. This probe is not
    // one of the workload's operations: where the refined solve misses the
    // tolerance its timings describe nothing and are withheld (null).
    let (refined, setup_s) = tr.time("feti.build_f32_refined", None, &[], || {
        case.builder()
            .precision(Precision::f32_refined())
            .build(problem)
    });
    let (sol, solve_s) = tr.time("feti.solve_f32_refined", None, &[], || refined.solve());
    let (err, sound) = check_solution(problem, &sol, &case.references[0]);
    let host_if_sound = |v: f64| Quantity {
        value: sound.then_some(v),
        clock: Clock::Host,
    };
    ledger.set("feti.f32r_setup_s", host_if_sound(setup_s));
    ledger.set("feti.f32r_solve_s", host_if_sound(solve_s));
    ledger.count(
        "feti.f32r_outer_iters",
        sol.refinement.map_or(0.0, |r| r.outer_iterations as f64),
    );
    if !sound {
        out.notes.push(format!(
            "f32-refined solve of this problem did not reach the tolerance \
             (converged={}, rel_error={err:e}); feti.f32r_setup_s and feti.f32r_solve_s withheld",
            sol.stats.converged
        ));
    }
}

// ---------------------------------------------------------------------------
// sc_serve
// ---------------------------------------------------------------------------

fn serve_layer(
    case: &ServeCase,
    seed: u64,
    session: &ServeSession,
    tr: &mut Tracer,
    ledger: &mut Ledger,
    out: &mut RunOutcome,
) {
    // strict protocol parse of the session's request lines, called directly
    let lines: Vec<String> = cold_pass(case.meshes.len())
        .iter()
        .chain(&steady_round(
            &mut Rng::new(seed, 0x5E4E),
            case.meshes.len(),
        ))
        .map(|j| job_line(j, &case.meshes))
        .collect();
    let (_, s) = tr.time(
        "serve.parse_request",
        None,
        &[("lines", lines.len() as f64)],
        || {
            for (i, line) in lines.iter().enumerate() {
                std::hint::black_box(
                    parse_request(line.as_bytes(), i + 1).expect("generated lines parse"),
                );
            }
        },
    );
    ledger.host("serve.parse_us", s / lines.len() as f64 * 1e6);

    // what the cache buys one tenant: the six f64 solves on an empty cache,
    // then the same six again with every bundle resident (the budget here
    // holds the whole family, unlike the session's)
    let mut svc = ServeHandle::new(ServeOptions::default());
    let mut pass = |svc: &mut ServeHandle, tag: &str| -> f64 {
        let mut total = 0.0;
        for mut job in cold_pass(case.meshes.len()) {
            job.id = format!("{tag}{}", job.mesh);
            let line = job_line(&job, &case.meshes);
            let t0 = Instant::now();
            svc.request(&line);
            svc.request("{\"op\":\"run\"}");
            total += t0.elapsed().as_secs_f64();
            out.attempted += 1;
            if svc.take_outcome(TENANTS[job.tenant].0, &job.id).is_none() {
                out.failed += 1;
            }
        }
        total
    };
    let (cold_s, _) = tr.time("serve.cold_jobs", None, &[], || pass(&mut svc, "c"));
    let (warm_s, _) = tr.time("serve.warm_jobs", None, &[], || pass(&mut svc, "w"));
    ledger.host("serve.cold_job_s", cold_s);
    ledger.host("serve.warm_job_s", warm_s);
    ledger.ratio(
        "serve.warm_over_cold",
        Quantity::host(warm_s),
        Quantity::host(cold_s),
    );

    let c = &session.cache;
    ledger.ratio(
        "serve.cache_hit_share",
        Quantity::count(c.hits as f64),
        Quantity::count((c.hits + c.misses) as f64),
    );
    ledger.count("serve.cache_evictions", c.evictions as f64);
    ledger.count("serve.cache_bytes_peak", session.cache_bytes_peak as f64);
    let sum = |f: &dyn Fn(&sc_serve::TenantStats) -> f64| -> f64 {
        session.tenants.iter().map(|(_, t)| f(t)).sum()
    };
    ledger.count("serve.rejected", sum(&|t| t.jobs_rejected as f64));
    ledger.count("serve.expired", sum(&|t| t.jobs_expired as f64));
    // device-seconds are the modelled makespans the scheduler bills and its
    // virtual clock advances by: simulated, never wall time
    ledger.sim("serve.device_s_total", sum(&|t| t.device_s));
    ledger.sim("serve.queue_wait_s_total", sum(&|t| t.queue_wait_s));
    let per_weight: Vec<f64> = session
        .tenants
        .iter()
        .filter_map(|(name, t)| {
            let w = TENANTS.iter().find(|(n, _)| n == name)?.1;
            Some(t.device_s / w)
        })
        .collect();
    let most = per_weight.iter().copied().fold(0.0, f64::max);
    let least = per_weight.iter().copied().fold(f64::INFINITY, f64::min);
    ledger.ratio(
        "serve.fairness_ratio",
        Quantity::sim(most),
        Quantity::sim(least),
    );
}

// ---------------------------------------------------------------------------
// entry point
// ---------------------------------------------------------------------------

/// The traced run of one workload: per-layer metrics and the Chrome trace.
pub fn traced_run(workload: Workload, seed: u64, smoke: bool) -> (RunOutcome, Json) {
    let mut out = RunOutcome::default();
    let mut ledger = Ledger::default();
    let mut tr = Tracer::new(true);
    dense_yardsticks(&mut ledger, smoke, &mut out.notes);

    if workload == Workload::ServeMix {
        let case = ServeCase::generate(smoke);
        ledger.host("fem.build_s", case.fem_build_s);
        let session = serve_session(
            &case,
            &mut Rng::new(seed, 0x5E4E),
            &mut LambdaPins::new(),
            &mut tr,
            &mut Pacer::off(),
        );
        out.attempted += session.attempted;
        out.failed += session.failed;
        serve_layer(&case, seed, &session, &mut tr, &mut ledger, &mut out);
        // the pipeline behind the most frequent job of the mix, as the
        // service configures it (ScConfig::Auto on the pool)
        stages_with_overhead(
            &mut ledger,
            &case.problems[0],
            &FetiOptions::default(),
            Some(ScConfig::Auto),
            &mut tr,
        );
    } else {
        let case = SolverCase::generate(workload, seed, smoke);
        ledger.host("fem.build_s", case.fem_build_s);
        let mut rep = solver_rep(&case, &mut tr, &mut Pacer::off());
        out.attempted += rep.attempted;
        out.failed += rep.failed;
        tr.sim = std::mem::take(&mut rep.sim.events);
        ledger.count(
            "feti.operator_applications",
            rep.operator_applications as f64,
        );
        ledger.count("feti.rel_error", rep.rel_error);
        let assembly = (workload != Workload::Impl3dCpu).then(|| case.cfg());
        if assembly.is_some() {
            record_sim(&mut ledger, &rep.sim);
        }
        let totals = stages_with_overhead(
            &mut ledger,
            &case.problem,
            &case.feti_options(),
            assembly,
            &mut tr,
        );
        if assembly.is_some() {
            plan_and_session(&case, totals, rep.sim.makespan_s, &mut tr, &mut ledger);
        }
        feti_layer(&case, &mut tr, &mut ledger, &mut out);
    }

    let trace = tr.to_chrome_json(workload.name());
    out.metrics = ledger.into_reported();
    (out, trace)
}
