//! One rep of each workload, and the timed run that repeats it for
//! `--seconds` and reports the end-to-end metrics.
//!
//! A rep takes a [`Tracer`]: disabled in the timed run (tracing off),
//! enabled in the traced run, which therefore drives exactly the same calls.

use crate::metric::{median, Clock, Quantity};
use crate::probe::{Paced, Pacer};
use crate::report::{Reported, RunOutcome};
use crate::rng::Rng;
use crate::spans::{SimEvent, Tracer};
use crate::workloads::{
    check_solution, cold_pass, job_line, rel_error, steady_round, Job, ServeCase, SolverCase,
    BURST, LOAD_CASES, REL_ERROR_LIMIT,
};
use sc_core::{AssemblyReport, Formulation};
use sc_gpu::TraceEvent;
use sc_serve::{ServeHandle, ServeOptions};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// What the simulated device did during one build, read off the solver's
/// report (all on the simulated clock or exact counts).
#[derive(Clone, Debug, Default)]
pub struct SimInfo {
    pub makespan_s: f64,
    pub arena_high_water_bytes: usize,
    /// Busy kernel-seconds over `makespan × streams`, makespan-weighted
    /// over the devices that received work.
    pub stream_utilization: f64,
    pub kernel_launches: usize,
    pub cuts_cache_hits: usize,
    pub cuts_cache_misses: usize,
    /// Subdomains per realized formulation: explicit-GPU, explicit-CPU,
    /// implicit.
    pub formulations: (usize, usize, usize),
    pub events: Vec<SimEvent>,
}

impl SimInfo {
    pub fn of(report: Option<&AssemblyReport>, n_subdomains: usize, with_events: bool) -> SimInfo {
        let Some(rep) = report else {
            return SimInfo {
                formulations: (0, 0, n_subdomains),
                ..SimInfo::default()
            };
        };
        let mut info = SimInfo {
            makespan_s: rep.makespan,
            arena_high_water_bytes: rep.temp_high_water(),
            cuts_cache_hits: rep.cache_hits,
            cuts_cache_misses: rep.cache_misses,
            ..SimInfo::default()
        };
        let busy_weight: f64 = rep.devices.iter().map(|d| d.makespan).sum();
        if busy_weight > 0.0 {
            info.stream_utilization = rep
                .devices
                .iter()
                .map(|d| d.utilization * d.makespan)
                .sum::<f64>()
                / busy_weight;
        }
        for d in &rep.devices {
            let Some(trace) = &d.trace else { continue };
            info.kernel_launches += trace.n_kernels();
            if !with_events {
                continue;
            }
            for e in &trace.events {
                if let TraceEvent::Kernel {
                    label,
                    stream,
                    span,
                    ..
                } = e
                {
                    info.events.push(SimEvent {
                        label,
                        device: d.device,
                        stream: *stream,
                        start_s: span.start,
                        end_s: span.end,
                    });
                }
            }
        }
        info.formulations = match &rep.hybrid {
            Some(h) => (
                h.count_of(Formulation::ExplicitGpu),
                h.count_of(Formulation::ExplicitCpu),
                h.count_of(Formulation::Implicit),
            ),
            None if rep.devices.is_empty() => (0, n_subdomains, 0),
            None => (n_subdomains, 0, 0),
        };
        info
    }
}

/// Measurements of one solver rep.
#[derive(Debug, Default)]
pub struct SolverRep {
    pub build: Paced,
    /// The unperturbed `solve()`.
    pub solve0: Paced,
    /// Each `solve_rhs` load case.
    pub load_cases: Vec<Paced>,
    pub iterations: usize,
    pub operator_applications: usize,
    /// Error of the unperturbed solve against the direct solve.
    pub rel_error: f64,
    pub attempted: usize,
    pub failed: usize,
    pub sim: SimInfo,
}

impl SolverRep {
    pub fn time_to_solution(&self) -> Paced {
        let mut total = self.build;
        total += self.solve0;
        for p in &self.load_cases {
            total += *p;
        }
        total
    }
}

/// One rep: fresh build, the unperturbed solve, `LOAD_CASES` load cases,
/// every solution checked against the direct solve outside the timed calls.
pub fn solver_rep(case: &SolverCase, tr: &mut Tracer, pacer: &mut Pacer) -> SolverRep {
    let mut rep = SolverRep::default();
    let n_sub = case.problem.subdomains.len();
    let builder = case.builder();
    let (solver, build) = pacer.time(
        tr,
        "feti.build",
        &[
            ("subdomains", n_sub as f64),
            ("n_lambda", case.problem.n_lambda as f64),
        ],
        || builder.build(&case.problem),
    );
    rep.build = build;
    rep.sim = SimInfo::of(solver.report(), n_sub, tr.enabled());

    let check = |rep: &mut SolverRep, sol: &sc_feti::FetiSolution, reference: usize| -> f64 {
        let (err, ok) = check_solution(&case.problem, sol, &case.references[reference]);
        rep.attempted += 1;
        if !ok {
            rep.failed += 1;
            eprintln!(
                "failed solve (reference {reference}): converged={} rel_error={err:e}",
                sol.stats.converged
            );
        }
        err
    };

    let (sol, paced) = pacer.time(tr, "feti.solve", &[("load_case", -1.0)], || solver.solve());
    rep.solve0 = paced;
    rep.iterations = sol.stats.iterations;
    rep.operator_applications = sol.stats.operator_applications;
    rep.rel_error = check(&mut rep, &sol, 0);
    for (k, loads) in case.loads.iter().enumerate() {
        let (sol, paced) = pacer.time(tr, "feti.solve", &[("load_case", k as f64)], || {
            solver.solve_rhs(loads)
        });
        rep.load_cases.push(paced);
        check(&mut rep, &sol, 1 + k);
    }
    rep
}

/// Restart the kernel's high-water mark of this process's resident set
/// (Linux: `5` into `clear_refs`), so the next [`peak_rss_bytes`] reports
/// what ran after this call rather than input generation. Where the file
/// is not writable the mark simply keeps its lifetime meaning.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` of this process in bytes (`None` off Linux).
pub fn peak_rss_bytes() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024.0)
}

/// The samples of a run the end-to-end metrics are formed from.
#[derive(Default)]
struct Samples {
    setup: Vec<Paced>,
    /// One latency per operation (solve or job).
    ops: Vec<Paced>,
    /// Per rep: its operations and the wall time they took in total (set-up
    /// excluded).
    op_phases: Vec<(usize, Paced)>,
    time_to_solution: Vec<Paced>,
}

/// The end-to-end metric set. Host times are reported at the reference
/// machine speed; the wall medians as measured go into a note.
fn end_to_end(samples: &Samples, iterations: usize, out: &mut RunOutcome) {
    let corrected = |v: &[Paced]| -> Vec<f64> { v.iter().map(|p| p.s).collect() };
    let raw_median = |v: &[Paced]| -> f64 {
        median(&v.iter().map(|p| p.raw_s).collect::<Vec<_>>()).unwrap_or(f64::NAN)
    };
    // one rate per rep, so a rep the host disturbed moves the median no
    // further than any other rep does (a rate over the whole run would be
    // the mean, which one slow rep drags)
    let rates: Vec<f64> = samples
        .op_phases
        .iter()
        .filter_map(|(ops, phase)| {
            Quantity::count(*ops as f64)
                .ratio(Quantity::host(phase.s))
                .expect("count over host is a host-clock rate")
                .value
        })
        .collect();
    let rss = Quantity {
        value: out.peak_rss_bytes,
        clock: Clock::Host,
    };
    out.metrics = vec![
        Reported::host_median("setup_s", &corrected(&samples.setup)),
        Reported::host_median("solve_s", &corrected(&samples.ops)),
        Reported::host_median("time_to_solution_s", &corrected(&samples.time_to_solution)),
        Reported::host_median("solves_per_s", &rates),
        Reported::new("pcpg_iterations", Quantity::count(iterations as f64)),
        Reported::new("peak_rss_bytes", rss),
    ];
    let mut phases = Paced::default();
    for (_, phase) in &samples.op_phases {
        phases += *phase;
    }
    out.notes.push(format!(
        "wall medians as measured, before the machine-speed correction: setup_s {:.6e}, solve_s {:.6e}, \
         time_to_solution_s {:.6e}; correction factor of this run {:.4}",
        raw_median(&samples.setup),
        raw_median(&samples.ops),
        raw_median(&samples.time_to_solution),
        phases.s / phases.raw_s
    ));
}

/// Repeat `rep` until `seconds` have passed and at least `min_reps` timed
/// reps exist; the first rep warms caches and lazy set-up and is discarded.
/// A rep that panics is reported as `ops_per_rep` failed operations.
fn repeat<T>(
    seconds: f64,
    min_reps: usize,
    ops_per_rep: usize,
    out: &mut RunOutcome,
    mut rep: impl FnMut() -> T,
    mut keep: impl FnMut(T, &mut RunOutcome),
) {
    reset_peak_rss();
    let start = Instant::now();
    let mut done = 0usize;
    let mut warm = false;
    while done < min_reps || start.elapsed().as_secs_f64() < seconds {
        match catch_unwind(AssertUnwindSafe(&mut rep)) {
            Ok(r) if warm => {
                keep(r, out);
                done += 1;
            }
            Ok(_) => out.peak_rss_bytes = peak_rss_bytes(),
            Err(_) => {
                out.attempted += ops_per_rep;
                out.failed += ops_per_rep;
                out.notes.push(format!("rep {done} panicked"));
                done += 1;
            }
        }
        warm = true;
    }
}

/// Timed run of a solver workload (tracing off).
pub fn run_solver(case: &SolverCase, seconds: f64, min_reps: usize) -> RunOutcome {
    let mut out = RunOutcome::default();
    let mut pacer = Pacer::on();
    let mut samples = Samples::default();
    let mut iterations = Vec::new();
    let mut first_sim = None;
    repeat(
        seconds,
        min_reps,
        1 + LOAD_CASES,
        &mut out,
        || solver_rep(case, &mut Tracer::new(false), &mut pacer),
        |r, out| {
            out.attempted += r.attempted;
            out.failed += r.failed;
            samples.setup.push(r.build);
            samples.time_to_solution.push(r.time_to_solution());
            let mut phase = Paced::default();
            for p in &r.load_cases {
                phase += *p;
            }
            samples.op_phases.push((r.load_cases.len(), phase));
            samples.ops.extend(r.load_cases);
            iterations.push(r.iterations);
            first_sim.get_or_insert(r.sim);
        },
    );
    let iters = iterations.first().copied().unwrap_or(0);
    if iterations.iter().any(|&i| i != iters) {
        out.notes
            .push("pcpg_iterations differed between reps of one run".into());
        out.failed += 1;
    }
    if let Some(sim) = first_sim {
        let (gpu, cpu, implicit) = sim.formulations;
        out.notes.push(format!(
            "reps={} subdomains: {gpu} explicit-gpu, {cpu} explicit-cpu, {implicit} implicit; \
             sim makespan {:e} sim_s, arena high water {} bytes (per-layer metrics, traced run)",
            iterations.len(),
            sim.makespan_s,
            sim.arena_high_water_bytes
        ));
    }
    end_to_end(&samples, iters, &mut out);
    out
}

// ---------------------------------------------------------------------------
// serve_mix
// ---------------------------------------------------------------------------

/// Bit pattern digest of a dual solution (FNV-1a over the f64 bits): a warm
/// λ must equal the first λ of the same (mesh, precision, scale) bit for bit.
fn lambda_digest(lambda: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in lambda {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// λ digests by (mesh, f32_refined, scale bits), kept across sessions.
pub type LambdaPins = BTreeMap<(usize, bool, u64), u64>;

/// One completed job as the client saw it.
#[derive(Clone, Debug)]
pub struct JobRecord {
    pub latency: Paced,
    pub iterations: usize,
}

/// Measurements of one service session.
#[derive(Debug, Default)]
pub struct ServeSession {
    /// Σ burst times of the cold pass.
    pub cold_pass: Paced,
    pub cold_jobs: Vec<JobRecord>,
    pub steady_jobs: Vec<JobRecord>,
    /// Σ burst times (first `solve` line written → `run` returned).
    pub steady: Paced,
    pub attempted: usize,
    pub failed: usize,
    pub cache: sc_core::SessionCacheStats,
    pub cache_bytes_peak: usize,
    pub tenants: Vec<(String, sc_serve::TenantStats)>,
}

/// Submit `jobs` as one burst, `run`, and check every outcome. Returns the
/// burst's time, first `solve` line written to `run` returned.
#[allow(clippy::too_many_arguments)]
fn burst(
    svc: &mut ServeHandle,
    case: &ServeCase,
    jobs: &[Job],
    pins: &mut LambdaPins,
    tr: &mut Tracer,
    pacer: &mut Pacer,
    session: &mut ServeSession,
    records: &mut Vec<JobRecord>,
) -> Paced {
    let start = Instant::now();
    let mut submitted_at = Vec::with_capacity(jobs.len());
    let mut accepted = Vec::with_capacity(jobs.len());
    for job in jobs {
        let line = job_line(job, &case.meshes);
        submitted_at.push(start.elapsed().as_secs_f64());
        let (reply, _) = tr.time(
            "serve.request",
            None,
            &[("bytes", line.len() as f64)],
            || svc.request(&line),
        );
        accepted.push(reply.iter().any(|l| l.contains("\"event\":\"accepted\"")));
    }
    tr.time(
        "serve.request",
        None,
        &[("jobs", jobs.len() as f64)],
        || svc.request("{\"op\":\"run\"}"),
    );
    let done_at = start.elapsed().as_secs_f64();
    let whole = pacer.pace(done_at);
    // every job of the burst completes when `run` returns, so all share the
    // burst's correction
    let correction = whole.s / whole.raw_s;

    for ((job, t0), ok) in jobs.iter().zip(&submitted_at).zip(&accepted) {
        session.attempted += 1;
        let (tenant, _) = crate::workloads::TENANTS[job.tenant];
        let outcome = svc.take_outcome(tenant, &job.id).filter(|_| *ok);
        let verdict = outcome.as_ref().and_then(|o| {
            let (u, lambda) = (o.u_locals.as_ref()?, o.lambda.as_ref()?);
            let reference: Vec<f64> = case.references[job.mesh]
                .iter()
                .map(|v| v * job.scale)
                .collect();
            let err = rel_error(&case.problems[job.mesh], u, &reference);
            let digest = lambda_digest(lambda);
            let pinned = *pins
                .entry((job.mesh, job.f32_refined, job.scale.to_bits()))
                .or_insert(digest);
            (err <= REL_ERROR_LIMIT && pinned == digest).then_some(())
        });
        match (outcome, verdict) {
            (Some(o), Some(())) => records.push(JobRecord {
                latency: Paced {
                    raw_s: done_at - t0,
                    s: (done_at - t0) * correction,
                },
                iterations: o.iterations.unwrap_or(0),
            }),
            _ => {
                session.failed += 1;
                eprintln!("failed job {} on mesh {}", job.id, job.mesh);
            }
        }
    }
    session.cache_bytes_peak = session.cache_bytes_peak.max(svc.cache_stats().bytes);
    // checking the outcomes took a while: the next burst must not be paced
    // by a sample that old
    pacer.pace(0.0);
    whole
}

/// One session: a fresh service, the cold pass (one f64 solve per mesh on an
/// empty cache, one at a time), then one steady round in bursts of `BURST`.
pub fn serve_session(
    case: &ServeCase,
    rng: &mut Rng,
    pins: &mut LambdaPins,
    tr: &mut Tracer,
    pacer: &mut Pacer,
) -> ServeSession {
    let mut session = ServeSession::default();
    let mut svc = ServeHandle::new(ServeOptions {
        cache_budget_bytes: case.cache_budget,
        ..ServeOptions::default()
    });
    let mut cold = Vec::new();
    for job in cold_pass(case.meshes.len()) {
        let jobs = std::slice::from_ref(&job);
        let t = burst(
            &mut svc,
            case,
            jobs,
            pins,
            tr,
            pacer,
            &mut session,
            &mut cold,
        );
        session.cold_pass += t;
    }
    session.cold_jobs = cold;
    let mut steady = Vec::new();
    for (b, jobs) in steady_round(rng, case.meshes.len())
        .chunks(BURST)
        .enumerate()
    {
        tr.set_rep(b);
        let t = burst(
            &mut svc,
            case,
            jobs,
            pins,
            tr,
            pacer,
            &mut session,
            &mut steady,
        );
        session.steady += t;
    }
    session.steady_jobs = steady;
    session.cache = svc.cache_stats();
    session.tenants = svc.tenant_stats();
    session
}

/// Timed run of the service workload (tracing off).
pub fn run_serve(case: &ServeCase, seed: u64, seconds: f64, min_reps: usize) -> RunOutcome {
    let mut out = RunOutcome::default();
    let mut pacer = Pacer::on();
    let mut samples = Samples::default();
    let mut pins = LambdaPins::new();
    let mut rng = Rng::new(seed, 0x5E4E);
    let mut first: Option<ServeSession> = None;
    let mut sessions = 0usize;
    repeat(
        seconds,
        min_reps,
        case.meshes.len() + crate::workloads::JOBS_PER_ROUND,
        &mut out,
        // one job stream per run: every session draws its own order from
        // it, so a run sees many distinct bursts, not one round replayed
        || {
            serve_session(
                case,
                &mut rng,
                &mut pins,
                &mut Tracer::new(false),
                &mut pacer,
            )
        },
        |s, out| {
            out.attempted += s.attempted;
            out.failed += s.failed;
            samples.setup.push(s.cold_pass);
            samples.ops.extend(s.steady_jobs.iter().map(|j| j.latency));
            samples.op_phases.push((s.steady_jobs.len(), s.steady));
            let mut whole = s.cold_pass;
            whole += s.steady;
            samples.time_to_solution.push(whole);
            sessions += 1;
            first.get_or_insert(s);
        },
    );
    let iterations = first
        .as_ref()
        .map_or(0, |s| s.cold_jobs.iter().map(|j| j.iterations).sum());
    if let Some(s) = &first {
        out.notes.push(format!(
            "sessions={sessions} jobs/session={} cache: {} hits {} misses {} evictions, peak {} of {} bytes",
            s.steady_jobs.len(),
            s.cache.hits,
            s.cache.misses,
            s.cache.evictions,
            s.cache_bytes_peak,
            s.cache.budget_bytes
        ));
    }
    end_to_end(&samples, iterations, &mut out);
    out
}
