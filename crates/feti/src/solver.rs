//! The Total-FETI solver driver: per-subdomain preprocessing, coarse problem,
//! PCPG solve, and primal solution recovery.
//!
//! The entry point is [`FetiSolverBuilder`]: pick a
//! [`Backend`] (where explicit assembly runs), a
//! [`FormulationChoice`] (implicit / explicit / per-subdomain auto), and
//! build a preprocessed [`FetiSolver`] handle. Preprocessing (orderings,
//! factorizations, explicit assembly, coarse problem) happens **once**;
//! [`FetiSolver::solve`] and [`FetiSolver::solve_rhs`] then amortize it
//! across any number of right-hand sides.

use crate::dualop::{assemble_auto, bind_ops, DualPass, LocalOp, SubdomainFactors};
use crate::exchange::ExchangeSim;
use crate::pcpg::PcpgStats;
use crate::refine::{Demoted, RefinementStats};
use sc_core::{
    AssemblyReport, AssemblySession, Backend, HybridPlanOptions, LazyBatch, Precision, ScConfig,
    Target,
};
use sc_dense::Mat;
use sc_factor::Engine;
use sc_fem::HeatProblem;
use sc_order::Ordering;
use sc_sparse::{Coo, Csc};
use std::borrow::Cow;
use std::sync::Arc;

/// Which dual-operator formulation the solver realizes (orthogonal to the
/// [`Backend`] that executes any explicit assembly).
#[derive(Clone, Debug, Default)]
#[non_exhaustive]
pub enum FormulationChoice {
    /// No assembly: every application runs the Eq. 11 solve pipeline
    /// through the factor bundles kept for `K⁺` anyway.
    #[default]
    Implicit,
    /// Dense `F̃ᵢ` pre-assembled for every subdomain on the backend.
    Explicit,
    /// Per-subdomain explicit-vs-implicit selection: the §4.4 cost model
    /// prices assembly plus expected-iterations × apply for every
    /// formulation and picks the cheapest subject to the backend's device
    /// arena capacities (oversized subdomains spill instead of erroring).
    Auto(HybridPlanOptions),
}

/// Dual preconditioner selection for PCPG.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Preconditioner {
    /// No preconditioning (identity).
    None,
    /// The lumped preconditioner `M⁻¹ = Σᵢ B̃ᵢ Kᵢ B̃ᵢᵀ` — three sparse
    /// products per subdomain per iteration, the cheap standard choice in
    /// FETI practice.
    Lumped,
}

/// Solver options, captured **once** at construction
/// ([`FetiSolverBuilder::options`]); [`FetiSolver::solve`] takes no
/// arguments.
///
/// ```
/// use sc_feti::{FetiOptions, Preconditioner};
/// let opts = FetiOptions::default()
///     .with_preconditioner(Preconditioner::Lumped)
///     .with_tol(1e-10)
///     .with_max_iter(500);
/// assert_eq!(opts.max_iter, 500);
/// ```
#[derive(Clone)]
pub struct FetiOptions {
    /// Numeric factorization engine for `K_reg`.
    pub engine: Engine,
    /// Fill-reducing ordering.
    pub ordering: Ordering,
    /// Dual preconditioner.
    pub preconditioner: Preconditioner,
    /// PCPG relative tolerance.
    pub tol: f64,
    /// PCPG iteration budget.
    pub max_iter: usize,
}

impl Default for FetiOptions {
    fn default() -> Self {
        FetiOptions {
            engine: Engine::Supernodal,
            ordering: Ordering::NestedDissection,
            preconditioner: Preconditioner::None,
            tol: 1e-9,
            max_iter: 1000,
        }
    }
}

impl FetiOptions {
    /// Set the numeric factorization engine.
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Set the fill-reducing ordering.
    pub fn with_ordering(mut self, ordering: Ordering) -> Self {
        self.ordering = ordering;
        self
    }

    /// Set the dual preconditioner.
    pub fn with_preconditioner(mut self, preconditioner: Preconditioner) -> Self {
        self.preconditioner = preconditioner;
        self
    }

    /// Set the PCPG relative tolerance.
    pub fn with_tol(mut self, tol: f64) -> Self {
        self.tol = tol;
        self
    }

    /// Set the PCPG iteration budget.
    pub fn with_max_iter(mut self, max_iter: usize) -> Self {
        self.max_iter = max_iter;
        self
    }
}

/// Solution of a FETI solve.
pub struct FetiSolution {
    /// Per-subdomain primal solutions.
    pub u_locals: Vec<Vec<f64>>,
    /// The dual solution `λ`.
    pub lambda: Vec<f64>,
    /// PCPG statistics. For the mixed-precision path, `iterations` counts
    /// the inner (`f32`) iterations and `rel_residual` is the final `f64`
    /// true residual.
    pub stats: PcpgStats,
    /// Mixed-precision refinement statistics; `None` under the default
    /// full-`f64` precision.
    pub refinement: Option<RefinementStats>,
}

/// Composable construction of a preprocessed [`FetiSolver`]:
/// [`FetiOptions`] are taken **exactly once**, the execution target is a
/// [`Backend`] value, and the formulation a [`FormulationChoice`].
///
/// ```
/// use sc_feti::{FetiOptions, FetiSolverBuilder, FormulationChoice};
/// use sc_core::{Backend, ScConfig};
/// use sc_fem::{Gluing, HeatProblem};
///
/// let problem = HeatProblem::build_2d(3, (2, 2), Gluing::Redundant);
/// let solver = FetiSolverBuilder::new()
///     .options(FetiOptions::default().with_tol(1e-9))
///     .backend(Backend::cpu())
///     .formulation(FormulationChoice::Explicit)
///     .assembly(ScConfig::optimized(false, false))
///     .build(&problem);
/// let solution = solver.solve();
/// assert!(solution.stats.converged);
/// // the same preprocessed handle serves more right-hand sides
/// let loads: Vec<Vec<f64>> = problem
///     .subdomains
///     .iter()
///     .map(|sd| sd.f.iter().map(|v| 2.0 * v).collect())
///     .collect();
/// let scaled = solver.solve_rhs(&loads);
/// assert!(scaled.stats.converged);
/// ```
#[derive(Clone, Default)]
pub struct FetiSolverBuilder {
    opts: FetiOptions,
    cfg: ScConfig,
    backend: Option<Backend>,
    formulation: FormulationChoice,
    precision: Option<Precision>,
    factors: Option<Arc<Vec<SubdomainFactors>>>,
}

impl FetiSolverBuilder {
    /// Start from default options: implicit formulation, CPU backend,
    /// [`ScConfig::Auto`] assembly configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the scalar solver options (engine, ordering, preconditioner,
    /// tolerance, iteration budget) — taken exactly once.
    pub fn options(mut self, opts: FetiOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Set the execution target of any explicit assembly.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Set the dual-operator formulation.
    pub fn formulation(mut self, formulation: FormulationChoice) -> Self {
        self.formulation = formulation;
        self
    }

    /// Set the assembly configuration of the explicit shares.
    pub fn assembly(mut self, cfg: ScConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Set the working precision, overriding the backend's. Under
    /// [`Precision::F32Refined`] the explicit operators are assembled and
    /// applied at `f32` and every solve wraps the inner PCPG in an `f64`
    /// iterative-refinement loop ([`FetiSolution::refinement`]).
    pub fn precision(mut self, precision: Precision) -> Self {
        self.precision = Some(precision);
        self
    }

    /// Reuse previously built per-subdomain factorizations instead of
    /// re-running the ordering + symbolic + numeric pipeline (the dominant
    /// preprocessing cost). The bundle must come from a
    /// [`FetiSolver::shared_factors`] call (or `SubdomainFactors::build`
    /// loop) over a problem with **identical** subdomain matrices, gluing
    /// and solver engine/ordering — the session-cache layer guarantees this
    /// by content-addressing its entries; a length mismatch panics at
    /// build time. `SubdomainFactors::build` is deterministic, so a build
    /// from reused factors is bitwise identical to a cold build.
    pub fn factors(mut self, factors: Arc<Vec<SubdomainFactors>>) -> Self {
        self.factors = Some(factors);
        self
    }

    /// Run the initialization + preprocessing stages (paper §2.2) and return
    /// the reusable solver handle. Options are captured here, once —
    /// [`FetiSolver::solve`] takes no arguments.
    pub fn build<'p>(self, problem: &'p HeatProblem) -> FetiSolver<'p> {
        let FetiSolverBuilder {
            opts,
            cfg,
            backend,
            formulation,
            precision,
            factors: prepared,
        } = self;
        let mut backend = backend.unwrap_or_else(Backend::cpu);
        if let Some(p) = precision {
            backend.precision = p;
        }
        // per-subdomain factorizations — unless a session cache already
        // holds the bundle for this exact problem
        let factors = prepared
            .unwrap_or_else(|| SubdomainFactors::build_all(problem, opts.engine, opts.ordering));
        assert_eq!(
            factors.len(),
            problem.subdomains.len(),
            "prepared factor bundle must cover every subdomain of the problem"
        );

        // one operator slot per subdomain: the explicit formulations
        // pre-assemble the dense F̃ᵢ through one AssemblySession on the
        // builder's backend; an implicit slot applies against `factors`
        let (ops, report): (Vec<LocalOp>, Option<AssemblyReport>) = match &formulation {
            FormulationChoice::Implicit => {
                (factors.iter().map(|_| LocalOp::Implicit).collect(), None)
            }
            FormulationChoice::Explicit => {
                let session = AssemblySession::new(backend.clone(), cfg);
                let res = session.assemble(LazyBatch::new(
                    &factors,
                    |_, f: &SubdomainFactors| Cow::Borrowed(f.chol.factor_csc_ref()),
                    |f| &f.bt_perm,
                ));
                (bind_ops(res.f, &res.report, &backend), Some(res.report))
            }
            FormulationChoice::Auto(plan_opts) => {
                let (ops, unified) = assemble_auto(&factors, &cfg, &backend, plan_opts);
                (ops, Some(unified))
            }
        };
        FetiSolver::from_ops(problem, opts, &backend, factors, ops, report)
    }
}

/// A preprocessed FETI solver: factorizations, explicit operators (if
/// requested), and the coarse problem, ready to serve many right-hand
/// sides through [`FetiSolver::solve`] / [`FetiSolver::solve_rhs`].
pub struct FetiSolver<'p> {
    problem: &'p HeatProblem,
    /// Options captured at construction; `solve()` takes no arguments.
    opts: FetiOptions,
    factors: Arc<Vec<SubdomainFactors>>,
    /// The local dual operator of each subdomain; implicit slots apply
    /// against `factors`.
    ops: Vec<LocalOp>,
    /// Buffers of the global gather → local → scatter-add pass.
    pass: DualPass<f64>,
    /// The backend captured at construction: its precision is the working
    /// precision, its devices hold the device-resident slots.
    backend: Backend,
    /// Demoted (`f32`) slots for the mixed-precision inner solves; `Some`
    /// exactly when `precision` is [`Precision::F32Refined`].
    demoted: Option<Demoted>,
    /// Sparse `G = B R` (`n_lambda × n_kernels`).
    g: Csc,
    /// Dense Cholesky factor of `GᵀG`.
    gtg: Mat,
    /// Kernel column of each subdomain (floating ones only).
    kernel_col: Vec<Option<usize>>,
    /// Dual right-hand side `d = B K⁺ f` of the problem's own loads.
    d: Vec<f64>,
    /// Coarse right-hand side `e = Rᵀ f` of the problem's own loads.
    e: Vec<f64>,
    /// The unified preprocessing report (`None` for the implicit mode).
    report: Option<AssemblyReport>,
    /// Simulated PCPG boundary-exchange overlap; `Some` exactly when the
    /// backend is a multi-node pool with device-resident operators.
    exchange_sim: Option<ExchangeSim>,
}

impl<'p> FetiSolver<'p> {
    /// The construction tail every producer of operator slots shares — the
    /// builder's three formulations and the sparse-RHS rows of
    /// [`approaches`](crate::approaches): kernel numbering, `G = B R`, the
    /// coarse factor of `GᵀG`, the demoted slots of a refined `backend`
    /// precision, the multi-node exchange model, and the right-hand sides of
    /// the problem's own loads.
    pub(crate) fn from_ops(
        problem: &'p HeatProblem,
        opts: FetiOptions,
        backend: &Backend,
        factors: Arc<Vec<SubdomainFactors>>,
        ops: Vec<LocalOp>,
        report: Option<AssemblyReport>,
    ) -> Self {
        let precision = backend.precision;
        // kernel numbering and G = B R (kernel = constant vector: G entries
        // are just the B̃ signs, since each B̃ᵀ column has a single ±1)
        let mut kernel_col = vec![None; problem.subdomains.len()];
        let mut n_kernels = 0;
        for (i, sd) in problem.subdomains.iter().enumerate() {
            if sd.kernel.is_some() {
                kernel_col[i] = Some(n_kernels);
                n_kernels += 1;
            }
        }
        let mut g_coo = Coo::new(problem.n_lambda, n_kernels.max(1));
        for (i, sd) in problem.subdomains.iter().enumerate() {
            let (Some(kc), Some(ker)) = (kernel_col[i], sd.kernel.as_ref()) else {
                continue;
            };
            // G[:, kc] = B_i r_i
            let mut gr = vec![0.0; sd.n_lambda()];
            sd.bt.spmv_t(1.0, ker, 0.0, &mut gr);
            for (&g, &gl) in gr.iter().zip(&sd.lambda_ids) {
                // sc-analyze: allow(float-eq)
                if g != 0.0 {
                    g_coo.push(gl, kc, g);
                }
            }
        }
        let g = g_coo.to_csc();

        // coarse factor (GᵀG); for zero kernels keep a 1x1 identity
        let gtg = if n_kernels == 0 {
            Mat::identity(1)
        } else {
            let gd = g.to_dense();
            let mut gtg = Mat::zeros(n_kernels, n_kernels);
            sc_dense::syrk_t(1.0, gd.as_ref(), 0.0, gtg.as_mut());
            gtg.symmetrize_from_lower();
            let mut l = gtg;
            sc_dense::cholesky_in_place(l.as_mut())
                .expect("GᵀG must be SPD (decomposition has a fixed subdomain)");
            l
        };

        // demote the slots once for the mixed-precision inner solves
        let demoted = precision
            .is_f32()
            .then(|| Demoted::of(&ops, &factors, problem));

        // the multi-node backend overlaps PCPG boundary exchanges with the
        // local applies; every other target leaves the solve untouched
        let exchange_sim = match &backend.target {
            Target::MultiNode { pool, .. } if pool.n_nodes() > 1 => report
                .as_ref()
                .filter(|rep| !rep.nodes.is_empty())
                .map(|rep| ExchangeSim::build(pool, &backend.devices(), rep, problem)),
            _ => None,
        };

        let mut solver = FetiSolver {
            problem,
            opts,
            factors,
            ops,
            pass: DualPass::new(problem),
            backend: backend.clone(),
            demoted,
            g,
            gtg,
            kernel_col,
            d: Vec::new(),
            e: Vec::new(),
            report,
            exchange_sim,
        };
        // dual + coarse right-hand sides of the problem's own loads (any
        // other loads go through solve_rhs, which recomputes both)
        let (d, e) = solver.rhs_setup(None);
        solver.d = d;
        solver.e = e;
        solver
    }

    /// The unified preprocessing report: per-subdomain timings, per-device
    /// execution timelines, and (for the auto formulation) the hybrid
    /// decisions — one schema for every backend. `None` when the dual
    /// operator is applied implicitly (nothing was assembled).
    pub fn report(&self) -> Option<&AssemblyReport> {
        self.report.as_ref()
    }

    /// The backend captured at construction.
    pub(crate) fn backend(&self) -> &Backend {
        &self.backend
    }

    /// The options captured at construction.
    pub fn options(&self) -> &FetiOptions {
        &self.opts
    }

    /// Number of kernel columns (size of the coarse problem).
    pub fn n_kernels(&self) -> usize {
        self.kernel_col.iter().flatten().count()
    }

    /// Compute the dual and coarse right-hand sides `d = B K⁺ f`,
    /// `e = Rᵀ f` for the given per-subdomain loads (`None` = the
    /// problem's own).
    fn rhs_setup(&self, f_locals: Option<&[Vec<f64>]>) -> (Vec<f64>, Vec<f64>) {
        let f_of = |i: usize| -> &[f64] {
            match f_locals {
                Some(fs) => &fs[i],
                None => &self.problem.subdomains[i].f,
            }
        };
        let mut d = vec![0.0; self.problem.n_lambda];
        self.pass
            .run(self.problem, None, Some(&mut d), |i, sd, _, dl| {
                let kf = self.factors[i].solve_kplus(f_of(i));
                sd.bt.spmv_t(1.0, &kf, 0.0, dl);
            });
        let mut e = vec![0.0; self.n_kernels().max(1)];
        for (i, sd) in self.problem.subdomains.iter().enumerate() {
            let (Some(kc), Some(ker)) = (self.kernel_col[i], sd.kernel.as_ref()) else {
                continue;
            };
            e[kc] = f_of(i).iter().zip(ker).map(|(fi, ri)| fi * ri).sum();
        }
        (d, e)
    }

    /// Apply the assembled dual operator `F` to a global dual vector.
    ///
    /// Under the multi-node backend the application also advances the
    /// simulated boundary exchange: each node's incoming data is posted
    /// before the local SYMVs submit, so queued device work overlaps the
    /// transfer; unhidden wait accumulates as
    /// [`PcpgStats::exchange_stall_seconds`]. The numerics are identical
    /// either way — the simulation only moves stream clocks.
    pub fn apply_f(&self, p: &[f64]) -> Vec<f64> {
        let exchange = self.exchange_sim.as_ref().map(|sim| (sim, sim.begin()));
        let view = |i: usize| Some((&self.factors[i]).into());
        let q = self.pass.apply_ops(self.problem, &self.ops, view, p);
        if let Some((sim, arrivals)) = exchange {
            sim.finish(&arrivals);
        }
        q
    }

    /// Solve the small coarse system `(GᵀG) x = b`.
    fn coarse_solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        sc_dense::cholesky_solve(self.gtg.as_ref(), &mut x);
        x
    }

    /// Projector `P x = x − G (GᵀG)⁻¹ Gᵀ x`.
    pub fn project(&self, x: &[f64]) -> Vec<f64> {
        if self.n_kernels() == 0 {
            return x.to_vec();
        }
        let mut gtx = vec![0.0; self.g.ncols()];
        self.g.spmv_t(1.0, x, 0.0, &mut gtx);
        let y = self.coarse_solve(&gtx);
        let mut out = x.to_vec();
        self.g.spmv(-1.0, &y, 1.0, &mut out);
        out
    }

    /// Apply the lumped preconditioner `M⁻¹ w = Σᵢ B̃ᵢ Kᵢ B̃ᵢᵀ w̃ᵢ`.
    pub fn apply_lumped(&self, w: &[f64]) -> Vec<f64> {
        let mut z = vec![0.0; self.problem.n_lambda];
        self.pass
            .run(self.problem, Some(w), Some(&mut z), |_, sd, ws, zl| {
                ws.t.resize(sd.n_dofs(), 0.0);
                ws.kt.resize(sd.n_dofs(), 0.0);
                sd.bt.spmv(1.0, &ws.pl, 0.0, &mut ws.t); // B̃ᵀ w̃
                sd.k.spmv(1.0, &ws.t, 0.0, &mut ws.kt); // K B̃ᵀ w̃
                sd.bt.spmv_t(1.0, &ws.kt, 0.0, zl); // B̃ K B̃ᵀ w̃
            });
        z
    }

    /// Full FETI solve of the problem's own loads: PCPG on the dual, then
    /// primal recovery. Uses the options captured at construction.
    pub fn solve(&self) -> FetiSolution {
        self.solve_inner(&self.d, &self.e, None)
    }

    /// Solve for **new per-subdomain loads** without repeating any
    /// preprocessing: the factorizations, explicit operators, and coarse
    /// factor built at construction are reused; only the right-hand sides
    /// (`d = B K⁺ f`, `e = Rᵀ f`), the PCPG iteration, and the primal
    /// recovery run per call. This is what amortizes the expensive explicit
    /// assembly across many solves.
    ///
    /// # Panics
    ///
    /// When `f_locals` does not carry one load vector per subdomain with
    /// the subdomain's dof count.
    pub fn solve_rhs(&self, f_locals: &[Vec<f64>]) -> FetiSolution {
        assert_eq!(
            f_locals.len(),
            self.problem.subdomains.len(),
            "solve_rhs needs one load vector per subdomain ({} given, {} subdomains)",
            f_locals.len(),
            self.problem.subdomains.len()
        );
        for (i, (fl, sd)) in f_locals.iter().zip(&self.problem.subdomains).enumerate() {
            assert_eq!(
                fl.len(),
                sd.n_dofs(),
                "subdomain {i}: load vector has {} entries, expected {}",
                fl.len(),
                sd.n_dofs()
            );
        }
        let (d, e) = self.rhs_setup(Some(f_locals));
        self.solve_inner(&d, &e, Some(f_locals))
    }

    fn solve_inner(&self, d: &[f64], e: &[f64], f_locals: Option<&[Vec<f64>]>) -> FetiSolution {
        // λ0 = G (GᵀG)⁻¹ e satisfies Gᵀ λ0 = e (Eq. 4)
        let lambda0 = if self.n_kernels() == 0 {
            vec![0.0; self.problem.n_lambda]
        } else {
            let y = self.coarse_solve(e);
            let mut l0 = vec![0.0; self.problem.n_lambda];
            self.g.spmv(1.0, &y, 0.0, &mut l0);
            l0
        };
        // reset the exchange-stall counter so the stamped figure below
        // covers exactly this solve's dual-operator applications
        if let Some(sim) = &self.exchange_sim {
            let _ = sim.drain();
        }
        let (lambda, mut stats, refinement) = match self.backend.precision {
            Precision::F64 => {
                let res = self.pcpg_f64(d, lambda0);
                (res.lambda, res.stats, None)
            }
            Precision::F32Refined {
                refine_tol,
                max_refine,
            } => self.solve_refined(d, lambda0, refine_tol, max_refine),
        };
        if let Some(sim) = &self.exchange_sim {
            stats.exchange_stall_seconds = sim.drain();
        }
        let u_locals = self.recover_primal_with(&lambda, d, f_locals);
        FetiSolution {
            u_locals,
            lambda,
            stats,
            refinement,
        }
    }

    /// The full-`f64` PCPG solve (the historical path; also the
    /// mixed-precision fallback).
    pub(crate) fn pcpg_f64(&self, d: &[f64], lambda0: Vec<f64>) -> crate::pcpg::PcpgResult {
        let opts = &self.opts;
        crate::pcpg::pcpg_preconditioned(
            d,
            lambda0,
            |p| self.apply_f(p),
            |x| self.project(x),
            |w| match opts.preconditioner {
                Preconditioner::None => w.to_vec(),
                Preconditioner::Lumped => self.apply_lumped(w),
            },
            opts.tol,
            opts.max_iter,
        )
    }

    /// Apply the demoted dual operator at `f32` (the inner solves of
    /// [`solve_refined`](Self::solve_refined)).
    pub(crate) fn apply_f32(&self, p: &[f32]) -> Vec<f32> {
        self.demoted
            .as_ref()
            .expect("demoted operators exist under the refined precision")
            .apply(self.problem, &self.factors, p)
    }

    /// The working precision captured from the backend at construction.
    pub fn precision(&self) -> Precision {
        self.backend.precision
    }

    /// Primal recovery for the problem's own loads: `α = (GᵀG)⁻¹Gᵀ(Fλ − d)`,
    /// `uᵢ = K⁺(fᵢ − B̃ᵢᵀ λ̃ᵢ) + Rᵢ αᵢ` (Eq. 5).
    pub fn recover_primal(&self, lambda: &[f64]) -> Vec<Vec<f64>> {
        self.recover_primal_with(lambda, &self.d, None)
    }

    fn recover_primal_with(
        &self,
        lambda: &[f64],
        d: &[f64],
        f_locals: Option<&[Vec<f64>]>,
    ) -> Vec<Vec<f64>> {
        let alphas: Vec<f64> = if self.n_kernels() == 0 {
            Vec::new()
        } else {
            let flam = self.apply_f(lambda);
            let resid: Vec<f64> = flam.iter().zip(d).map(|(a, b)| a - b).collect();
            let mut gtr = vec![0.0; self.g.ncols()];
            self.g.spmv_t(1.0, &resid, 0.0, &mut gtr);
            self.coarse_solve(&gtr)
        };
        self.pass
            .run(self.problem, Some(lambda), None, |i, sd, w, _| {
                // f_i - B̃ᵀ λ̃
                let mut rhs = match f_locals {
                    Some(fs) => fs[i].clone(),
                    None => sd.f.clone(),
                };
                sd.bt.spmv(-1.0, &w.pl, 1.0, &mut rhs);
                let mut u = self.factors[i].solve_kplus(&rhs);
                if let (Some(kc), Some(ker)) = (self.kernel_col[i], sd.kernel.as_ref()) {
                    let a = alphas[kc];
                    for (ui, ri) in u.iter_mut().zip(ker) {
                        *ui += a * ri;
                    }
                }
                u
            })
    }

    /// The dual right-hand side of the problem's own loads.
    pub fn dual_rhs(&self) -> &[f64] {
        &self.d
    }

    /// Borrow the per-subdomain factor bundles.
    pub fn factors(&self) -> &[SubdomainFactors] {
        &self.factors
    }

    /// Clone the shared handle of the per-subdomain factor bundles, so a
    /// session cache can retain them past this solver's lifetime and feed
    /// them back through [`FetiSolverBuilder::factors`].
    pub fn shared_factors(&self) -> Arc<Vec<SubdomainFactors>> {
        Arc::clone(&self.factors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_core::{
        assemble_sc, estimate_cost, CpuExec, Formulation, HybridForce, ScheduleOptions,
        StreamPolicy,
    };
    use sc_dense::SymPackedOf;
    use sc_factor::{CholOptions, SparseCholesky};
    use sc_fem::Gluing;
    use sc_gpu::{Device, DevicePool, DeviceSpec};

    fn direct_solution(problem: &HeatProblem) -> Vec<f64> {
        let (k, f) = problem.assemble_global();
        let chol = SparseCholesky::factorize(&k, CholOptions::default()).unwrap();
        chol.solve(&f)
    }

    fn check_solver(problem: &HeatProblem, solver: &FetiSolver<'_>, tol: f64) {
        let sol = solver.solve();
        assert!(
            sol.stats.converged,
            "PCPG did not converge: {:?}",
            sol.stats
        );
        let direct = direct_solution(problem);
        let u = problem.gather_global(&sol.u_locals);
        let scale = direct.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        for i in 0..u.len() {
            assert!(
                (u[i] - direct[i]).abs() < tol * scale,
                "dof {i}: feti {} vs direct {}",
                u[i],
                direct[i]
            );
        }
    }

    fn explicit_solver<'p>(
        problem: &'p HeatProblem,
        backend: Backend,
        cfg: ScConfig,
    ) -> FetiSolver<'p> {
        FetiSolverBuilder::new()
            .backend(backend)
            .formulation(FormulationChoice::Explicit)
            .assembly(cfg)
            .build(problem)
    }

    #[test]
    fn dense_slots_hold_the_packed_triangle_and_nothing_else() {
        let p = HeatProblem::build_2d(5, (3, 2), Gluing::Redundant);
        let entries = |sd: &sc_fem::Subdomain| sd.n_lambda() * (sd.n_lambda() + 1) / 2;
        let triangle: usize = p.subdomains.iter().map(entries).sum();
        for precision in [Precision::F64, Precision::f32_refined()] {
            let solver = FetiSolverBuilder::new()
                .formulation(FormulationChoice::Explicit)
                .precision(precision)
                .build(&p);
            let held: usize = solver.ops.iter().map(LocalOp::held_bytes).sum();
            assert_eq!(held, triangle * 8, "{precision:?}: f64 slots");
            let demoted = solver.demoted.as_ref().map(Demoted::held_bytes);
            let want = precision.is_f32().then_some(triangle * 4);
            assert_eq!(demoted, want, "{precision:?}: f32 slots");
        }
    }

    #[test]
    fn implicit_2d_matches_direct() {
        let p = HeatProblem::build_2d(4, (3, 2), Gluing::Redundant);
        let solver = FetiSolverBuilder::new().build(&p);
        check_solver(&p, &solver, 1e-6);
    }

    #[test]
    fn reused_factors_solve_is_bitwise_identical() {
        let p = HeatProblem::build_2d(4, (2, 2), Gluing::Redundant);
        for formulation in [FormulationChoice::Implicit, FormulationChoice::Explicit] {
            let cold = FetiSolverBuilder::new()
                .formulation(formulation.clone())
                .assembly(ScConfig::optimized(false, false))
                .build(&p);
            let warm = FetiSolverBuilder::new()
                .formulation(formulation)
                .assembly(ScConfig::optimized(false, false))
                .factors(cold.shared_factors())
                .build(&p);
            let sc = cold.solve();
            let sw = warm.solve();
            assert_eq!(sc.lambda, sw.lambda, "dual solutions must match bitwise");
            assert_eq!(
                sc.u_locals, sw.u_locals,
                "primal solutions must match bitwise"
            );
            assert_eq!(sc.stats.iterations, sw.stats.iterations);
        }
    }

    #[test]
    #[should_panic(expected = "must cover every subdomain")]
    fn mismatched_factor_bundle_panics() {
        let p = HeatProblem::build_2d(4, (2, 2), Gluing::Redundant);
        let solver = FetiSolverBuilder::new().build(&p);
        let bigger = HeatProblem::build_2d(4, (3, 2), Gluing::Redundant);
        FetiSolverBuilder::new()
            .factors(solver.shared_factors())
            .build(&bigger);
    }

    #[test]
    fn explicit_cpu_2d_matches_direct() {
        let p = HeatProblem::build_2d(4, (2, 2), Gluing::Redundant);
        let solver = explicit_solver(&p, Backend::cpu(), ScConfig::optimized(false, false));
        check_solver(&p, &solver, 1e-6);
        let report = solver.report().expect("explicit mode reports");
        assert_eq!(report.subdomains.len(), p.subdomains.len());
        assert!(report.devices.is_empty());
    }

    #[test]
    fn explicit_gpu_3d_matches_direct() {
        let p = HeatProblem::build_3d(2, (2, 2, 1), Gluing::Redundant);
        let dev = Device::new(DeviceSpec::a100(), 4);
        let solver = explicit_solver(
            &p,
            Backend::gpu(Arc::clone(&dev)),
            ScConfig::optimized(true, true),
        );
        check_solver(&p, &solver, 1e-6);
        assert!(dev.synchronize() > 0.0, "GPU must have been used");
    }

    #[test]
    fn explicit_gpu_scheduled_matches_direct_and_reports_schedule() {
        let p = HeatProblem::build_3d(2, (2, 2, 1), Gluing::Redundant);
        let dev = Device::new(DeviceSpec::a100(), 4);
        let solver = explicit_solver(&p, Backend::gpu(Arc::clone(&dev)), ScConfig::Auto);
        check_solver(&p, &solver, 1e-6);
        assert!(dev.synchronize() > 0.0, "GPU must have been used");
        let report = solver.report().expect("explicit mode reports");
        assert_eq!(report.devices.len(), 1);
        assert_eq!(report.devices[0].schedule.len(), p.subdomains.len());
        assert!(report.makespan > 0.0);
        assert!(report.subdomains.iter().all(|t| t.stream.is_some()));
    }

    #[test]
    fn explicit_gpu_cluster_matches_direct_and_reports_partition() {
        let p = HeatProblem::build_3d(2, (2, 2, 2), Gluing::Redundant);
        let pool = DevicePool::uniform(DeviceSpec::a100(), 2, 2);
        let solver = explicit_solver(
            &p,
            Backend::cluster(Arc::clone(&pool)),
            ScConfig::optimized(true, true),
        );
        check_solver(&p, &solver, 1e-6);
        assert!(pool.synchronize_all() > 0.0, "the pool must have been used");

        let report = solver.report().expect("cluster mode reports");
        assert_eq!(report.devices.len(), 2);
        let mut placed: Vec<usize> = report
            .devices
            .iter()
            .flat_map(|d| d.subdomains.iter().copied())
            .collect();
        placed.sort_unstable();
        assert_eq!(placed, (0..p.subdomains.len()).collect::<Vec<_>>());
        assert!(report.makespan > 0.0);
        assert_eq!(report.subdomains.len(), p.subdomains.len());

        // the cluster-assembled F̃ᵢ are bitwise identical to the CPU
        // explicit path (same fixed config ⇒ same kernel sequence)
        let s_cpu = explicit_solver(&p, Backend::cpu(), ScConfig::optimized(true, true));
        let lam: Vec<f64> = (0..p.n_lambda).map(|i| (i as f64 * 0.3).sin()).collect();
        let a = solver.apply_f(&lam);
        let b = s_cpu.apply_f(&lam);
        assert_eq!(a, b, "cluster dual operator must match the CPU one bitwise");
    }

    #[test]
    fn solve_rhs_reuses_preprocessing_bitwise() {
        let p = HeatProblem::build_2d(4, (2, 2), Gluing::Redundant);
        let solver = explicit_solver(&p, Backend::cpu(), ScConfig::optimized(false, false));
        // the problem's own loads through both entry points: bitwise equal
        let own: Vec<Vec<f64>> = p.subdomains.iter().map(|sd| sd.f.clone()).collect();
        let a = solver.solve();
        let b = solver.solve_rhs(&own);
        assert_eq!(a.lambda, b.lambda, "same loads must solve identically");
        assert_eq!(a.u_locals, b.u_locals);
        // scaled loads scale the solution linearly
        let scaled: Vec<Vec<f64>> = own
            .iter()
            .map(|f| f.iter().map(|v| 3.0 * v).collect())
            .collect();
        let c = solver.solve_rhs(&scaled);
        assert!(c.stats.converged);
        let ua = p.gather_global(&a.u_locals);
        let uc = p.gather_global(&c.u_locals);
        let scale = ua.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        for i in 0..ua.len() {
            assert!(
                (uc[i] - 3.0 * ua[i]).abs() < 1e-6 * scale,
                "dof {i}: {} vs 3×{}",
                uc[i],
                ua[i]
            );
        }
    }

    #[test]
    fn solve_rhs_validates_shapes() {
        let p = HeatProblem::build_2d(3, (2, 1), Gluing::Redundant);
        let solver = FetiSolverBuilder::new().build(&p);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            solver.solve_rhs(&[Vec::new()]);
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("one load vector per subdomain"), "{msg}");
    }

    /// Peak temporary footprints of every subdomain under `cfg`, priced the
    /// same way the hybrid decision layer prices them.
    fn temp_footprints(p: &HeatProblem, cfg: &ScConfig) -> Vec<usize> {
        p.subdomains
            .iter()
            .map(|sd| {
                let f = SubdomainFactors::build(
                    sd,
                    FetiOptions::default().engine,
                    sc_order::Ordering::NestedDissection,
                );
                let l = f.chol.factor_csc();
                let params = cfg.resolve(true, &l, &f.bt_perm);
                estimate_cost(&DeviceSpec::a100(), &l, &f.bt_perm, &params, 0).temp_bytes
            })
            .collect()
    }

    /// A device whose arena (half its memory) sits between the smallest and
    /// the largest footprint: some subdomains fit, the rest must spill.
    fn mid_arena_spec(temps: &[usize]) -> (DeviceSpec, usize) {
        let (lo, hi) = (*temps.iter().min().unwrap(), *temps.iter().max().unwrap());
        assert!(lo < hi, "workload must have a footprint spread");
        let arena = (lo + hi) / 2;
        let spec = DeviceSpec {
            memory_bytes: 2 * arena,
            ..DeviceSpec::a100()
        };
        (spec, arena)
    }

    fn auto_solver<'p>(
        p: &'p HeatProblem,
        pool: Arc<DevicePool>,
        cfg: ScConfig,
        iters: f64,
        allow_cpu: bool,
        force: HybridForce,
    ) -> FetiSolver<'p> {
        FetiSolverBuilder::new()
            .backend(Backend::cluster(pool))
            .formulation(FormulationChoice::Auto(
                HybridPlanOptions::default()
                    .with_iters(iters)
                    .with_allow_explicit_cpu(allow_cpu)
                    .with_force(force),
            ))
            .assembly(cfg)
            .build(p)
    }

    #[test]
    fn hybrid_mixes_formulations_and_matches_direct() {
        // a 3×3 decomposition carries corner, edge, and interior subdomains
        // with different interface sizes: an arena between the extremes
        // splits them into explicitly-admissible and spilled
        let p = HeatProblem::build_2d(6, (3, 3), Gluing::Redundant);
        let cfg = ScConfig::optimized(true, true);
        let temps = temp_footprints(&p, &cfg);
        let (spec, arena) = mid_arena_spec(&temps);
        let pool = DevicePool::uniform(spec, 2, 2);
        // forced explicit + no CPU fail-over: admissible subdomains go to
        // the pool, oversized ones must spill to implicit (never error)
        let solver = auto_solver(
            &p,
            Arc::clone(&pool),
            cfg,
            1e6,
            false,
            HybridForce::AllExplicit,
        );
        check_solver(&p, &solver, 1e-6);

        let report = solver.report().expect("auto mode reports");
        let hybrid = report.hybrid.as_ref().expect("hybrid section present");
        let n_gpu = hybrid.count_of(Formulation::ExplicitGpu);
        let n_impl = hybrid.count_of(Formulation::Implicit);
        assert!(n_gpu > 0, "some subdomains must fit the arena");
        assert!(n_impl > 0, "some subdomains must spill: temps {temps:?}");
        assert_eq!(n_gpu + n_impl, p.subdomains.len());
        assert_eq!(hybrid.spilled.len(), n_impl);
        // spilled = exactly the subdomains whose temporaries exceed the arena
        for (i, &t) in temps.iter().enumerate() {
            assert_eq!(
                hybrid.spilled.contains(&i),
                t > arena,
                "subdomain {i}: {t} B vs arena {arena} B"
            );
        }
        // arena never oversubscribed, and the pool really ran
        assert!(hybrid.arena_high_water <= arena);
        assert!(hybrid.realized_gpu_seconds > 0.0);
        assert!(hybrid.predicted_assembly_seconds > 0.0);
        // every explicitly assembled subdomain carries a device placement
        for t in &report.subdomains {
            assert!(t.device.is_some(), "gpu share timing at {}", t.index);
            assert!(!hybrid.spilled.contains(&t.index));
        }

        // the hybrid operator application must be bitwise identical to the
        // per-subdomain reference: CPU-assembled explicit F̃ᵢ where the plan
        // went explicit (record/replay is bitwise CPU-equal), the shared
        // implicit pipeline where it spilled
        let lam: Vec<f64> = (0..p.n_lambda).map(|i| (i as f64 * 0.37).sin()).collect();
        let got = solver.apply_f(&lam);
        let mut want = vec![0.0; p.n_lambda];
        for (i, sd) in p.subdomains.iter().enumerate() {
            let pl: Vec<f64> = sd.lambda_ids.iter().map(|&gl| lam[gl]).collect();
            let mut ql = vec![0.0; sd.n_lambda()];
            if hybrid.spilled.contains(&i) {
                crate::dualop::apply_implicit(&solver.factors()[i], &pl, &mut ql);
            } else {
                let fac = &solver.factors()[i];
                let f = assemble_sc(&mut CpuExec, fac.chol.factor_csc_ref(), &fac.bt_perm, &cfg);
                sc_dense::symv(&SymPackedOf::from_lower(f.as_ref()), &pl, &mut ql);
            }
            for (ll, &gl) in sd.lambda_ids.iter().enumerate() {
                want[gl] += ql[ll];
            }
        }
        assert_eq!(
            got, want,
            "hybrid apply must match the mixed reference bitwise"
        );
    }

    /// One freshly built solver per call on the 3×3 workload: all-implicit,
    /// all-explicit (host), or the mixed auto split of
    /// `hybrid_mixes_formulations_and_matches_direct`.
    fn fresh_solver<'p>(p: &'p HeatProblem, kind: &str, precision: Precision) -> FetiSolver<'p> {
        let cfg = ScConfig::optimized(true, true);
        let builder = FetiSolverBuilder::new().assembly(cfg).precision(precision);
        match kind {
            "implicit" => builder.build(p),
            "explicit" => builder
                .backend(Backend::cpu())
                .formulation(FormulationChoice::Explicit)
                .build(p),
            "auto" => {
                let (spec, _) = mid_arena_spec(&temp_footprints(p, &cfg));
                let solver = builder
                    .backend(Backend::cluster(DevicePool::uniform(spec, 2, 2)))
                    .formulation(FormulationChoice::Auto(
                        HybridPlanOptions::default()
                            .with_iters(1e6)
                            .with_allow_explicit_cpu(false)
                            .with_force(HybridForce::AllExplicit),
                    ))
                    .build(p);
                let hybrid = solver.report().unwrap().hybrid.as_ref().unwrap().clone();
                assert!(hybrid.count_of(Formulation::ExplicitGpu) > 0);
                assert!(hybrid.count_of(Formulation::Implicit) > 0);
                solver
            }
            other => panic!("unknown solver kind {other}"),
        }
    }

    /// Dual vectors that would expose scratch that is not re-zeroed:
    /// `BoundaryMapOf::scatter` skips exact zeros, so a stale dof-space
    /// vector would leak the previous application into the next.
    fn probe_vectors(n: usize) -> Vec<Vec<f64>> {
        let dense: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let sparse = (0..n)
            .map(|i| if i % 3 == 0 { 0.0 } else { dense[i] * 0.5 })
            .collect();
        let half = (0..n)
            .map(|i| if i < n / 2 { 0.0 } else { -dense[i] })
            .collect();
        vec![dense, sparse, vec![0.0; n], half]
    }

    #[test]
    fn persistent_scratch_leaks_nothing_between_applications() {
        let p = HeatProblem::build_2d(6, (3, 3), Gluing::Redundant);
        for kind in ["implicit", "explicit", "auto"] {
            for precision in [Precision::F64, Precision::f32_refined()] {
                let used = fresh_solver(&p, kind, precision);
                for v in probe_vectors(p.n_lambda) {
                    let fresh = fresh_solver(&p, kind, precision);
                    assert_eq!(used.apply_f(&v), fresh.apply_f(&v), "{kind} apply_f");
                    assert_eq!(
                        used.apply_lumped(&v),
                        fresh.apply_lumped(&v),
                        "{kind} apply_lumped"
                    );
                    if precision.is_f32() {
                        let v32: Vec<f32> = v.iter().map(|&x| x as f32).collect();
                        assert_eq!(
                            used.apply_f32(&v32),
                            fresh.apply_f32(&v32),
                            "{kind} apply_f32"
                        );
                    }
                }
                let (a, b) = (used.solve(), fresh_solver(&p, kind, precision).solve());
                assert_eq!(a.lambda, b.lambda, "{kind} λ after the probes");
                assert_eq!(a.u_locals, b.u_locals, "{kind} u after the probes");
            }
        }
    }

    #[test]
    fn concurrent_apply_f_on_one_solver_matches_single_threaded() {
        let p = HeatProblem::build_2d(6, (3, 3), Gluing::Redundant);
        let solver = fresh_solver(&p, "auto", Precision::F64);
        let vectors = probe_vectors(p.n_lambda);
        let want: Vec<Vec<f64>> = vectors.iter().map(|v| solver.apply_f(v)).collect();
        let start = std::sync::Barrier::new(vectors.len());
        std::thread::scope(|s| {
            for (v, want) in vectors.iter().zip(&want) {
                let (solver, start) = (&solver, &start);
                s.spawn(move || {
                    start.wait();
                    for _ in 0..8 {
                        assert_eq!(&solver.apply_f(v), want, "concurrent apply_f diverged");
                    }
                });
            }
        });
    }

    #[test]
    fn poisoned_pass_lock_is_recovered() {
        let p = HeatProblem::build_2d(4, (2, 2), Gluing::Redundant);
        let lam: Vec<f64> = (0..p.n_lambda).map(|i| (i as f64 * 0.3).sin()).collect();
        for kind in ["implicit", "explicit"] {
            let solver = fresh_solver(&p, kind, Precision::F64);
            let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                solver.pass.run(&p, None, None, |_, _, _, _| {
                    panic!("poisoning the pass lock on purpose")
                })
            }));
            assert!(panicked.is_err());
            assert!(solver.pass.is_poisoned(), "the panic must poison the lock");
            let fresh = fresh_solver(&p, kind, Precision::F64);
            assert_eq!(solver.apply_f(&lam), fresh.apply_f(&lam));
            let (a, b) = (solver.solve(), fresh.solve());
            assert_eq!(a.lambda, b.lambda);
            assert_eq!(a.u_locals, b.u_locals);
        }
    }

    #[test]
    fn hybrid_spill_everything_falls_back_to_implicit() {
        let p = HeatProblem::build_2d(4, (2, 2), Gluing::Redundant);
        // an arena nothing fits into: every subdomain spills, the solver
        // must degrade to the implicit mode instead of erroring
        let spec = DeviceSpec {
            memory_bytes: 16,
            ..DeviceSpec::a100()
        };
        let pool = DevicePool::uniform(spec, 1, 2);
        let solver = auto_solver(
            &p,
            pool,
            ScConfig::optimized(true, false),
            1e9,
            false,
            HybridForce::Auto,
        );
        check_solver(&p, &solver, 1e-6);
        let report = solver.report().unwrap();
        let hybrid = report.hybrid.as_ref().unwrap();
        assert_eq!(hybrid.count_of(Formulation::Implicit), p.subdomains.len());
        assert_eq!(hybrid.spilled.len(), p.subdomains.len());
        assert!(report.subdomains.is_empty(), "nothing was assembled");
        assert!(report.devices.is_empty());
        assert_eq!(hybrid.predicted_assembly_seconds, 0.0);
    }

    #[test]
    fn hybrid_iteration_extremes_collapse_at_the_solver_level() {
        let p = HeatProblem::build_2d(4, (2, 2), Gluing::Redundant);
        let cfg = ScConfig::optimized(true, false);
        let collapse = |iters: f64| {
            let pool = DevicePool::uniform(DeviceSpec::a100(), 1, 2);
            let solver = auto_solver(&p, pool, cfg, iters, true, HybridForce::Auto);
            let report = solver.report().unwrap();
            let h = report.hybrid.as_ref().unwrap();
            (
                h.count_of(Formulation::Implicit),
                h.count_of(Formulation::ExplicitGpu) + h.count_of(Formulation::ExplicitCpu),
            )
        };
        let (impl0, expl0) = collapse(0.0);
        assert_eq!(impl0, p.subdomains.len(), "iters→0 must go all-implicit");
        assert_eq!(expl0, 0);
        let (impl_inf, expl_inf) = collapse(f64::INFINITY);
        assert_eq!(impl_inf, 0, "iters→∞ must go all-explicit");
        assert_eq!(expl_inf, p.subdomains.len());
    }

    #[test]
    fn hybrid_backend_spills_explicitly_to_the_host() {
        // Explicit formulation on the spill-tolerant Hybrid backend: the
        // oversized share is assembled on the host instead of erroring
        let p = HeatProblem::build_2d(6, (3, 3), Gluing::Redundant);
        let cfg = ScConfig::optimized(true, true);
        let (spec, _) = mid_arena_spec(&temp_footprints(&p, &cfg));
        let pool = DevicePool::uniform(spec, 2, 2);
        let solver = explicit_solver(&p, Backend::hybrid(pool), cfg);
        check_solver(&p, &solver, 1e-6);
        let report = solver.report().unwrap();
        let hybrid = report.hybrid.as_ref().unwrap();
        assert!(!hybrid.spilled.is_empty(), "some subdomains must spill");
        assert_eq!(
            hybrid.count_of(Formulation::ExplicitCpu),
            hybrid.spilled.len()
        );
        // every subdomain still got an explicit operator
        assert_eq!(report.subdomains.len(), p.subdomains.len());
    }

    #[test]
    fn chain_gluing_also_converges() {
        let p = HeatProblem::build_2d(3, (3, 1), Gluing::Chain);
        let solver = FetiSolverBuilder::new().build(&p);
        check_solver(&p, &solver, 1e-6);
    }

    #[test]
    fn simplicial_engine_matches() {
        let p = HeatProblem::build_2d(4, (2, 2), Gluing::Redundant);
        let solver = FetiSolverBuilder::new()
            .options(FetiOptions::default().with_engine(Engine::Simplicial))
            .build(&p);
        check_solver(&p, &solver, 1e-6);
    }

    #[test]
    fn lumped_preconditioner_converges_and_matches() {
        let p = HeatProblem::build_2d(5, (3, 2), Gluing::Redundant);
        let s1 = FetiSolverBuilder::new().build(&p).solve();
        let s2 = FetiSolverBuilder::new()
            .options(FetiOptions::default().with_preconditioner(Preconditioner::Lumped))
            .build(&p)
            .solve();
        assert!(s1.stats.converged && s2.stats.converged);
        // same solution
        let u1 = p.gather_global(&s1.u_locals);
        let u2 = p.gather_global(&s2.u_locals);
        let scale = u1.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        for i in 0..u1.len() {
            assert!((u1[i] - u2[i]).abs() < 1e-6 * scale);
        }
        // the lumped preconditioner should not need more iterations
        assert!(
            s2.stats.iterations <= s1.stats.iterations + 2,
            "lumped {} vs plain {}",
            s2.stats.iterations,
            s1.stats.iterations
        );
    }

    #[test]
    fn lambda_jump_is_closed() {
        // after convergence the interface jump B u must vanish
        let p = HeatProblem::build_2d(3, (2, 2), Gluing::Redundant);
        let solver = FetiSolverBuilder::new().build(&p);
        let sol = solver.solve();
        let mut jump = vec![0.0; p.n_lambda];
        for (sd, ul) in p.subdomains.iter().zip(&sol.u_locals) {
            let mut local = vec![0.0; sd.n_lambda()];
            sd.bt.spmv_t(1.0, ul, 0.0, &mut local);
            for (ll, &gl) in sd.lambda_ids.iter().enumerate() {
                jump[gl] += local[ll];
            }
        }
        let max_jump = jump.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        assert!(max_jump < 1e-6, "interface jump {max_jump}");
    }

    #[test]
    fn f32_refined_explicit_matches_direct_at_f64_accuracy() {
        let p = HeatProblem::build_2d(4, (2, 2), Gluing::Redundant);
        let solver = FetiSolverBuilder::new()
            .backend(Backend::cpu())
            .precision(Precision::f32_refined())
            .formulation(FormulationChoice::Explicit)
            .assembly(ScConfig::optimized(false, false))
            .build(&p);
        assert!(solver.precision().is_f32());
        check_solver(&p, &solver, 1e-6);
        let sol = solver.solve();
        let refinement = sol.refinement.expect("refined path reports stats");
        assert!(refinement.converged && !refinement.fell_back);
        assert!(
            refinement.rel_residual <= 1e-10,
            "refined residual {} must reach the f64-level target",
            refinement.rel_residual
        );
        assert!(refinement.outer_iterations >= 1);
        assert!(refinement.inner_iterations >= refinement.outer_iterations);
        // the assembly itself ran at f32 and says so in the report
        let report = solver.report().expect("explicit mode reports");
        assert!(report.precision.is_f32());
    }

    #[test]
    fn f32_refined_implicit_3d_matches_direct() {
        // no explicit assembly: the inner solves run through the demoted
        // factor bundles (f32 triangular solves)
        let p = HeatProblem::build_3d(2, (2, 2, 1), Gluing::Redundant);
        let solver = FetiSolverBuilder::new()
            .precision(Precision::f32_refined())
            .build(&p);
        check_solver(&p, &solver, 1e-6);
        let sol = solver.solve();
        let refinement = sol.refinement.expect("refined path reports stats");
        assert!(refinement.converged && !refinement.fell_back);
        assert!(refinement.rel_residual <= 1e-10);
    }

    #[test]
    fn f32_refined_lambda_tracks_the_f64_solution() {
        let p = HeatProblem::build_2d(5, (3, 2), Gluing::Redundant);
        let s64 = FetiSolverBuilder::new().build(&p).solve();
        let s32 = FetiSolverBuilder::new()
            .precision(Precision::f32_refined())
            .build(&p)
            .solve();
        assert!(
            s64.refinement.is_none(),
            "f64 path must not report refinement"
        );
        assert!(s32.refinement.is_some());
        let scale = s64.lambda.iter().fold(1.0f64, |a, &b| a.max(b.abs()));
        for i in 0..s64.lambda.len() {
            assert!(
                (s32.lambda[i] - s64.lambda[i]).abs() < 1e-7 * scale,
                "λ[{i}]: refined {} vs f64 {}",
                s32.lambda[i],
                s64.lambda[i]
            );
        }
    }

    #[test]
    fn refinement_budget_exhaustion_falls_back_to_f64() {
        // one outer iteration cannot reach 1e-14 from an O(1) residual at
        // inner tolerance 1e-4: the budget runs out and the solver must
        // fall back to the full-f64 PCPG instead of returning a bad λ
        let p = HeatProblem::build_2d(4, (2, 2), Gluing::Redundant);
        let solver = FetiSolverBuilder::new()
            .precision(Precision::F32Refined {
                refine_tol: 1e-14,
                max_refine: 1,
            })
            .build(&p);
        let sol = solver.solve();
        let refinement = sol.refinement.expect("refined path reports stats");
        assert!(refinement.fell_back, "budget exhaustion must fall back");
        assert_eq!(refinement.outer_iterations, 1);
        assert!(
            sol.stats.converged,
            "the f64 fallback must still converge: {:?}",
            sol.stats
        );
        check_solver(&p, &solver, 1e-6);
    }

    #[test]
    fn auto_on_gpu_backend_uses_a_single_device_pool() {
        let p = HeatProblem::build_2d(4, (2, 2), Gluing::Redundant);
        let dev = Device::new(DeviceSpec::a100(), 2);
        let solver = FetiSolverBuilder::new()
            .backend(Backend::gpu_with(
                Arc::clone(&dev),
                ScheduleOptions::default().with_policy(StreamPolicy::LptLeastLoaded),
            ))
            .formulation(FormulationChoice::Auto(
                HybridPlanOptions::default()
                    .with_force(HybridForce::AllExplicit)
                    .with_allow_explicit_cpu(false),
            ))
            .assembly(ScConfig::optimized(true, false))
            .build(&p);
        check_solver(&p, &solver, 1e-6);
        assert!(dev.synchronize() > 0.0, "the device must have been used");
        let hybrid = solver.report().unwrap().hybrid.as_ref().unwrap().clone();
        assert_eq!(
            hybrid.count_of(Formulation::ExplicitGpu),
            p.subdomains.len(),
            "forced explicit with no CPU fail-over goes all-explicit-GPU"
        );
    }
}
