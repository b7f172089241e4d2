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

use crate::dualop::{
    assemble_auto, through_split, AssembledOperators, DualPass, GluedBlock, LocalOp, LocalScratch,
    SubdomainFactors,
};
use crate::pcpg::PcpgStats;
use crate::refine::{Demoted, RefinementStats, MAX_OUTER};
use rayon::prelude::*;
use sc_core::{AssemblyReport, AssemblySession, Backend, HybridPlanOptions, Precision, ScConfig};
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
    /// No preconditioning (identity): every PCPG iteration costs one
    /// application of `F` and no more, but takes more iterations.
    None,
    /// The lumped preconditioner `M⁻¹ = Σᵢ B̃ᵢ Kᵢ B̃ᵢᵀ`, the standard FETI
    /// choice (Rixen & Farhat, IJNME 1999) and the default. It is applied on
    /// the distinct glued dofs as `Σᵢ Cᵢ K_bb,i Cᵢᵀ` ([`FetiSolver::apply_lumped`]):
    /// one sparse product of order `nb` per subdomain per iteration, through
    /// the operator's own gluing split.
    Lumped,
}

/// Solver options, captured **once** at construction
/// ([`FetiSolverBuilder::options`]); [`FetiSolver::solve`] takes no
/// arguments.
///
/// The default is the supernodal engine, nested dissection, the lumped
/// preconditioner, `tol` 1e-9 and 1000 iterations.
///
/// ```
/// use sc_feti::{FetiOptions, Preconditioner};
/// let opts = FetiOptions::default()
///     .with_preconditioner(Preconditioner::None)
///     .with_tol(1e-10)
///     .with_max_iter(500);
/// assert_eq!(opts.max_iter, 500);
/// assert_eq!(FetiOptions::default().preconditioner, Preconditioner::Lumped);
/// ```
#[derive(Clone)]
pub struct FetiOptions {
    /// Numeric factorization engine for `K_reg`.
    pub engine: Engine,
    /// Fill-reducing ordering.
    pub ordering: Ordering,
    /// Dual preconditioner (default [`Preconditioner::Lumped`]).
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
            preconditioner: Preconditioner::Lumped,
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

/// A preconditioner `M⁻¹` handed to the solve paths (`None` there: the
/// identity).
pub(crate) type Precond<'a> = &'a (dyn Fn(&[f64]) -> Vec<f64> + 'a);

/// Solution of a FETI solve.
pub struct FetiSolution {
    /// Per-subdomain primal solutions.
    pub u_locals: Vec<Vec<f64>>,
    /// The dual solution `λ`.
    pub lambda: Vec<f64>,
    /// PCPG statistics. For the mixed-precision path, `iterations` counts
    /// the inner (`f32`) iterations and `rel_residual` is the true `f64`
    /// residual `‖P(d − Fλ)‖ / ‖Pd‖` of the returned `λ`.
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
    precision: Precision,
    factors: Option<Arc<Vec<SubdomainFactors>>>,
    operators: Option<Arc<AssembledOperators>>,
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

    /// Set the working precision of every solve (default [`Precision::F64`]).
    /// Under [`Precision::F32Refined`] the `f64`-assembled operators are
    /// demoted for the inner PCPG solves only, inside an `f64`
    /// iterative-refinement loop ([`FetiSolution::refinement`]) that stops
    /// at [`FetiOptions::tol`], as the `f64` solve does.
    pub fn precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
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

    /// Reuse previously assembled dual operators instead of assembling: the
    /// build runs no [`AssemblySession`] and binds each packed `F̃ᵢ`, shared
    /// and not copied, to the stream its recorded placement names on this
    /// builder's backend, charging that stream the H2D upload of the
    /// triangle. The formulation that assembled them decides which slots are
    /// dense; this builder's formulation and assembly configuration are not
    /// consulted, and [`FetiSolver::report`] is the assembling build's
    /// report. The operators must come from a
    /// [`FetiSolver::shared_operators`] call on a build of an **identical**
    /// problem, at either working precision, whose backend had the devices
    /// this one has (the contract of [`factors`](Self::factors)); a length
    /// mismatch, or a placement on a device or a stream this backend lacks,
    /// panics at build time.
    pub fn operators(mut self, operators: Arc<AssembledOperators>) -> Self {
        self.operators = Some(operators);
        self
    }

    /// Run the initialization + preprocessing stages (paper §2.2) and return
    /// the reusable solver handle. Options are captured here, once —
    /// [`FetiSolver::solve`] takes no arguments.
    ///
    /// # Panics
    ///
    /// When reused [`factors`](Self::factors) or
    /// [`operators`](Self::operators) do not cover every subdomain of
    /// `problem`, or when the reused operators were assembled on a device or
    /// a stream this builder's backend lacks (the contract of
    /// [`operators`](Self::operators)).
    pub fn build<'p>(self, problem: &'p HeatProblem) -> FetiSolver<'p> {
        let FetiSolverBuilder {
            opts,
            cfg,
            backend,
            formulation,
            precision,
            factors: prepared,
            operators: reused,
        } = self;
        let backend = backend.unwrap_or_else(Backend::cpu);
        // per-subdomain factorizations — unless a session cache already
        // holds the bundle for this exact problem
        let factors = prepared
            .unwrap_or_else(|| SubdomainFactors::build_all(problem, opts.engine, opts.ordering));
        assert_eq!(
            factors.len(),
            problem.subdomains.len(),
            "prepared factor bundle must cover every subdomain of the problem"
        );

        // the dense F̃ᵢ: reused, or pre-assembled by the explicit
        // formulations through one AssemblySession on the builder's backend
        let operators = match (&reused, &formulation) {
            (Some(reused), _) => {
                assert_eq!(
                    reused.len(),
                    problem.subdomains.len(),
                    "reused operators must cover every subdomain of the problem"
                );
                Some(Arc::clone(reused))
            }
            (None, FormulationChoice::Implicit) => None,
            (None, FormulationChoice::Explicit) => {
                let res = AssemblySession::new(backend.clone(), cfg).assemble(factors.as_slice());
                let f = res.f.into_iter().map(Some).collect();
                Some(Arc::new(AssembledOperators::new(f, res.report)))
            }
            (None, FormulationChoice::Auto(plan_opts)) => {
                Some(Arc::new(assemble_auto(&factors, &cfg, &backend, plan_opts)))
            }
        };
        // one operator slot per subdomain; an implicit slot applies against
        // `factors`, and a reused triangle is uploaded to its stream
        let ops: Vec<LocalOp> = match &operators {
            Some(operators) => operators.bind(&backend),
            None => factors.iter().map(|_| LocalOp::Implicit).collect(),
        };
        if reused.is_some() {
            ops.iter().for_each(LocalOp::upload);
        }
        FetiSolver::from_ops(problem, opts, precision, &backend, factors, ops, operators)
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
    /// The backend captured at construction: its devices hold the
    /// device-resident slots.
    backend: Backend,
    /// The demoted (`f32`) slots of the refined solve's inner solves,
    /// `Some` exactly under [`Precision::F32Refined`]: the working
    /// precision of every solve.
    demoted: Option<Demoted>,
    /// Sparse `G = B R` (`n_lambda × n_kernels`).
    g: Csc,
    /// Dense Cholesky factor of `GᵀG`.
    gtg: Mat,
    /// `K_bb,i` of each subdomain, the lumped preconditioner's local block.
    k_bb: Vec<GluedBlock>,
    /// Kernel column of each subdomain (floating ones only).
    kernel_col: Vec<Option<usize>>,
    /// Dual right-hand side `d = B K⁺ f` of the problem's own loads.
    d: Vec<f64>,
    /// Coarse right-hand side `e = Rᵀ f` of the problem's own loads.
    e: Vec<f64>,
    /// The dense operators the slots share, with the unified preprocessing
    /// report of the build that assembled them (`None` for the implicit
    /// mode).
    operators: Option<Arc<AssembledOperators>>,
}

impl<'p> FetiSolver<'p> {
    /// The construction tail every producer of operator slots shares — the
    /// builder's three formulations and the sparse-RHS rows of
    /// [`approaches`](crate::approaches): kernel numbering, `G = B R`, the
    /// coarse factor of `GᵀG`, the lumped preconditioner's `K_bb,i`, the
    /// demoted slots of a refined `precision`, and the right-hand sides of
    /// the problem's own loads.
    pub(crate) fn from_ops(
        problem: &'p HeatProblem,
        opts: FetiOptions,
        precision: Precision,
        backend: &Backend,
        factors: Arc<Vec<SubdomainFactors>>,
        ops: Vec<LocalOp>,
        operators: Option<Arc<AssembledOperators>>,
    ) -> Self {
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
                g_coo.push(gl, kc, g);
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

        let k_bb = (problem.subdomains.par_iter().zip(factors.as_slice()))
            .map(|(sd, f)| GluedBlock::of(&sd.k, f))
            .collect();

        // demote the slots once for the mixed-precision inner solves
        let demoted =
            (precision == Precision::F32Refined).then(|| Demoted::of(&ops, &factors, problem));

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
            k_bb,
            kernel_col,
            d: Vec::new(),
            e: Vec::new(),
            operators,
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
    /// operator is applied implicitly (nothing was assembled). A build from
    /// reused operators ([`FetiSolverBuilder::operators`]) reports the build
    /// that assembled them.
    pub fn report(&self) -> Option<&AssemblyReport> {
        self.operators.as_deref().map(AssembledOperators::report)
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
    pub fn apply_f(&self, p: &[f64]) -> Vec<f64> {
        let l = |i: usize| Some(self.factors[i].chol.factor_csc_ref());
        self.pass
            .apply_ops(self.problem, &self.factors, &self.ops, l, p)
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

    /// Apply the lumped preconditioner `M⁻¹ w = Σᵢ B̃ᵢ Kᵢ B̃ᵢᵀ w̃ᵢ` on the
    /// distinct glued dofs, as `Σᵢ Cᵢ K_bb,i Cᵢᵀ w̃ᵢ`: the local operator's
    /// gather → product of order `nb` → scatter through the bundle's split,
    /// with `Kᵢ`'s glued block in place of `Gᵢ`. `B̃ᵢᵀ w̃ᵢ` is zero off the
    /// glued dofs and only its glued rows are read, so the result is bitwise
    /// the product with all of `Kᵢ`.
    pub fn apply_lumped(&self, w: &[f64]) -> Vec<f64> {
        let mut z = vec![0.0; self.problem.n_lambda];
        self.pass
            .run(self.problem, Some(w), Some(&mut z), |i, _, ws, zl| {
                let LocalScratch { pb, y, .. } = &mut ws.local;
                let k_bb = &self.k_bb[i];
                through_split(&self.factors[i].ct, &ws.pl, zl, pb, y, |pb, y| {
                    k_bb.apply(pb, y)
                });
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
        let lumped = |w: &[f64]| self.apply_lumped(w);
        let precond: Option<Precond<'_>> = match self.opts.preconditioner {
            Preconditioner::None => None,
            Preconditioner::Lumped => Some(&lumped),
        };
        self.solve_with(d, e, f_locals, precond)
    }

    /// [`solve_inner`](Self::solve_inner) with the preconditioner `M⁻¹`
    /// given (`None`: the identity): PCPG at the working precision, then
    /// primal recovery from the `Fλ` the solve returns.
    pub(crate) fn solve_with(
        &self,
        d: &[f64],
        e: &[f64],
        f_locals: Option<&[Vec<f64>]>,
        precond: Option<Precond<'_>>,
    ) -> FetiSolution {
        let lambda0 = self.lambda0(e);
        let (res, refinement) = if self.demoted.is_some() {
            self.solve_refined(d, lambda0, MAX_OUTER, precond)
        } else {
            (self.pcpg_f64(d, lambda0, precond), None)
        };
        let f_lambda = res.f_lambda.as_deref();
        let u_locals = self.recover_primal_with(&res.lambda, d, f_locals, f_lambda);
        FetiSolution {
            u_locals,
            lambda: res.lambda,
            stats: res.stats,
            refinement,
        }
    }

    /// The PCPG starting point `λ0 = G (GᵀG)⁻¹ e`, which satisfies
    /// `Gᵀ λ0 = e` (Eq. 4).
    fn lambda0(&self, e: &[f64]) -> Vec<f64> {
        let mut l0 = vec![0.0; self.problem.n_lambda];
        if self.n_kernels() > 0 {
            let y = self.coarse_solve(e);
            self.g.spmv(1.0, &y, 0.0, &mut l0);
        }
        l0
    }

    /// The full-`f64` PCPG solve (the historical path; also the
    /// mixed-precision fallback) under the preconditioner `precond`.
    pub(crate) fn pcpg_f64(
        &self,
        d: &[f64],
        lambda0: Vec<f64>,
        precond: Option<Precond<'_>>,
    ) -> crate::pcpg::PcpgResult {
        crate::pcpg::pcpg_preconditioned_of(
            d,
            lambda0,
            |p| self.apply_f(p),
            |x| self.project(x),
            |w| precond.map_or_else(|| w.to_vec(), |m| m(w)),
            self.opts.tol,
            self.opts.max_iter,
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

    /// The working precision captured at construction.
    pub fn precision(&self) -> Precision {
        match self.demoted {
            Some(_) => Precision::F32Refined,
            None => Precision::F64,
        }
    }

    /// Primal recovery for the problem's own loads: `α = (GᵀG)⁻¹Gᵀ(Fλ − d)`,
    /// `uᵢ = K⁺(fᵢ − B̃ᵢᵀ λ̃ᵢ) + Rᵢ αᵢ` (Eq. 5). It applies `F` to `λ` once;
    /// a solve's own recovery reuses the `Fλ` its PCPG computed last.
    pub fn recover_primal(&self, lambda: &[f64]) -> Vec<Vec<f64>> {
        self.recover_primal_with(lambda, &self.d, None, None)
    }

    /// Recovery for the loads `f_locals` (`None`: the problem's own) from
    /// `f_lambda`, the `Fλ` of `lambda` when the caller has it (`None`:
    /// apply `F` here).
    fn recover_primal_with(
        &self,
        lambda: &[f64],
        d: &[f64],
        f_locals: Option<&[Vec<f64>]>,
        f_lambda: Option<&[f64]>,
    ) -> Vec<Vec<f64>> {
        let alphas: Vec<f64> = if self.n_kernels() == 0 {
            Vec::new()
        } else {
            let flam = f_lambda.map_or_else(|| Cow::Owned(self.apply_f(lambda)), Cow::Borrowed);
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

    /// Clone the shared handle of the assembled dual operators (`None` when
    /// nothing was assembled), so a session cache can retain them past this
    /// solver's lifetime and feed them back through
    /// [`FetiSolverBuilder::operators`].
    pub fn shared_operators(&self) -> Option<Arc<AssembledOperators>> {
        self.operators.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_core::{
        assemble_sc, temp_footprint, BatchEntry, CpuExec, Formulation, ScheduleOptions,
        StreamPolicy,
    };
    use sc_dense::SymPackedOf;
    use sc_factor::{CholOptions, SparseCholesky};
    use sc_fem::Gluing;
    use sc_gpu::{Device, DevicePool, DeviceSpec, KernelCost};

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
        check_primal(problem, &sol.u_locals, tol);
    }

    /// `u_locals` matches the direct solve to `tol` relative to its largest
    /// entry.
    fn check_primal(problem: &HeatProblem, u_locals: &[Vec<f64>], tol: f64) {
        let direct = direct_solution(problem);
        let u = problem.gather_global(u_locals);
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

    /// Neither a slot nor its demotion holds a gluing block: a dense slot
    /// holds its packed triangle, an implicit one nothing, and the demotion
    /// casts only those triangles and the implicit slots' `L` values.
    #[test]
    fn dense_slots_hold_the_packed_triangle_and_nothing_else() {
        let p = HeatProblem::build_2d(5, (3, 2), Gluing::Redundant);
        for formulation in [FormulationChoice::Explicit, FormulationChoice::Implicit] {
            for precision in [Precision::F64, Precision::F32Refined] {
                let solver = FetiSolverBuilder::new()
                    .formulation(formulation.clone())
                    .precision(precision)
                    .build(&p);
                let at = format!("{formulation:?} {precision:?}");
                // the triangles of order nb, the distinct glued dofs, or the
                // factors of the implicit slots
                let (mut triangle, mut l) = (0, 0);
                for f in solver.factors() {
                    let nb = f.pt_perm.ncols();
                    match formulation {
                        FormulationChoice::Implicit => l += f.chol.factor_nnz(),
                        _ => triangle += nb * (nb + 1) / 2,
                    }
                }
                let held: usize = solver.ops.iter().map(LocalOp::held_bytes).sum();
                assert_eq!(held, triangle * 8, "{at}: f64 slots");
                let demoted = solver.demoted.as_ref().map(Demoted::held_bytes);
                let want = (precision == Precision::F32Refined).then_some((triangle + l) * 4);
                assert_eq!(demoted, want, "{at}: f32 slots and factors");
            }
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

    /// A build from another build's operators assembles nothing: its slots
    /// share the cold build's triangles, it reports the cold build, and it
    /// solves bitwise as the cold build does, at either precision. On a
    /// device backend it moves each stream by exactly the uploads of the
    /// triangles placed on it.
    #[test]
    fn reused_operators_solve_is_bitwise_identical_and_bill_only_uploads() {
        let p = HeatProblem::build_2d(6, (3, 2), Gluing::Redundant);
        for precision in [Precision::F64, Precision::F32Refined] {
            let pool = DevicePool::uniform(DeviceSpec::a100(), 2, 2);
            let cold = FetiSolverBuilder::new()
                .backend(Backend::cluster(Arc::clone(&pool)))
                .formulation(FormulationChoice::Explicit)
                .assembly(ScConfig::Auto)
                .precision(precision)
                .build(&p);
            let operators = cold.shared_operators().expect("explicit builds share");
            pool.reset_all();
            let warm = FetiSolverBuilder::new()
                .backend(Backend::cluster(Arc::clone(&pool)))
                .precision(precision)
                .factors(cold.shared_factors())
                .operators(Arc::clone(&operators))
                .build(&p);
            let uploads = pool.synchronize_all();

            let twins = DevicePool::uniform(DeviceSpec::a100(), 2, 2);
            for t in &operators.report().subdomains {
                let at = t.placement.expect("every cluster row is placed");
                let nb = cold.factors()[t.index].pt_perm.ncols();
                let bytes = KernelCost::symv_of::<f64>(nb).bytes;
                twins
                    .device(at.device)
                    .stream(at.stream)
                    .submit(&KernelCost::transfer(bytes));
            }
            assert_eq!(uploads, twins.synchronize_all(), "{precision:?}");
            assert!(uploads > 0.0 && uploads < cold.report().unwrap().makespan);

            let shared = warm.ops.iter().zip(&cold.ops).all(|pair| {
                matches!(pair, (LocalOp::Dense { g: a, .. }, LocalOp::Dense { g: b, .. })
                    if Arc::ptr_eq(a, b))
            });
            assert!(shared, "{precision:?}: triangles are shared, not copied");
            assert!(std::ptr::eq(warm.report().unwrap(), cold.report().unwrap()));
            let (sc, sw) = (cold.solve(), warm.solve());
            assert_eq!(sc.lambda, sw.lambda, "{precision:?}: λ bitwise");
            assert_eq!(sc.u_locals, sw.u_locals, "{precision:?}: u bitwise");
        }
    }

    /// Reused operators bound to a backend without their device, or
    /// without their stream, panic with the contract, not inside an index.
    fn bind_gpu_operators_to(backend: Backend) {
        let p = HeatProblem::build_2d(4, (2, 2), Gluing::Redundant);
        let gpu = Backend::gpu(Device::new(DeviceSpec::a100(), 4));
        let cold = explicit_solver(&p, gpu, ScConfig::optimized(true, false));
        let placed = cold.report().unwrap().subdomains.iter();
        assert!(placed.filter_map(|t| t.placement).any(|at| at.stream == 3));
        FetiSolverBuilder::new()
            .backend(backend)
            .factors(cold.shared_factors())
            .operators(cold.shared_operators().unwrap())
            .build(&p);
    }

    #[test]
    #[should_panic(expected = "assembled on device 0, which this backend lacks")]
    fn reused_gpu_operators_on_the_cpu_panic_with_the_contract() {
        bind_gpu_operators_to(Backend::cpu());
    }

    #[test]
    #[should_panic(expected = "of device 0, which this backend lacks")]
    fn reused_operators_on_fewer_streams_panic_with_the_contract() {
        bind_gpu_operators_to(Backend::gpu(Device::new(DeviceSpec::a100(), 2)));
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
        assert_eq!(report.subdomains.len(), p.subdomains.len());
        assert!(report.makespan > 0.0);
        assert!(report.subdomains.iter().all(|t| t.placement.is_some()));
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
        assert_eq!(report.subdomains.len(), p.subdomains.len());
        for (i, t) in report.subdomains.iter().enumerate() {
            assert_eq!(t.index, i, "one row per subdomain, in order");
            assert!(t.placement.is_some_and(|p| p.device < 2));
        }
        assert!(report.makespan > 0.0);

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
    /// same way the hybrid decision layer prices them: on the gluing block
    /// the explicit producers assemble.
    fn temp_footprints(p: &HeatProblem, cfg: &ScConfig) -> Vec<usize> {
        let opts = FetiOptions::default();
        SubdomainFactors::build_all(p, opts.engine, opts.ordering)
            .iter()
            .map(|f| {
                let (l, pt) = (f.factor(), f.gluing());
                temp_footprint(l.ncols(), pt.ncols(), &cfg.resolve(true, l, pt))
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
    ) -> FetiSolver<'p> {
        FetiSolverBuilder::new()
            .backend(Backend::cluster(pool))
            .formulation(FormulationChoice::Auto(
                HybridPlanOptions::default().with_iters(iters),
            ))
            .assembly(cfg)
            .build(p)
    }

    /// A 3×3 decomposition whose subdomains are large enough for a device
    /// assembly to pay off against the host's implicit applies: on a pool
    /// whose arena sits between the smallest and the largest footprint
    /// ([`mid_arena_spec`]), the plan at [`MIXED_ITERS`] sends the admitted
    /// subdomains to the pool and the spilled ones to the implicit path.
    fn mixed_problem() -> HeatProblem {
        HeatProblem::build_2d(36, (3, 3), Gluing::Redundant)
    }

    /// Expected iteration count of the [`mixed_problem`] plans: high enough
    /// for a device assembly to pay off, too low for a host assembly to.
    const MIXED_ITERS: f64 = 5.0;

    #[test]
    fn hybrid_mixes_formulations_and_matches_direct() {
        // a 3×3 decomposition carries corner, edge, and interior subdomains
        // with different interface sizes: an arena between the extremes
        // splits them into explicitly-admissible and spilled
        let p = mixed_problem();
        let cfg = ScConfig::optimized(true, true);
        let temps = temp_footprints(&p, &cfg);
        let (spec, arena) = mid_arena_spec(&temps);
        let pool = DevicePool::uniform(spec, 2, 2);
        // at MIXED_ITERS admissible subdomains go to the pool and oversized
        // ones spill to implicit (never error)
        let solver = auto_solver(&p, Arc::clone(&pool), cfg, MIXED_ITERS);
        check_solver(&p, &solver, 1e-6);

        let report = solver.report().expect("auto mode reports");
        let hybrid = report.hybrid.as_ref().expect("hybrid section present");
        let n_gpu = hybrid.count_of(Formulation::ExplicitGpu);
        let n_impl = hybrid.count_of(Formulation::Implicit);
        assert!(n_gpu > 0, "some subdomains must fit the arena");
        assert!(n_impl > 0, "some subdomains must spill: temps {temps:?}");
        assert_eq!(n_gpu + n_impl, p.subdomains.len());
        let spilled = &hybrid.spilled;
        assert_eq!(spilled, &hybrid.indices_of(Formulation::Implicit));
        // spilled = exactly the subdomains whose temporaries exceed the arena
        for (i, &t) in temps.iter().enumerate() {
            assert_eq!(
                spilled.contains(&i),
                t > arena,
                "subdomain {i}: {t} B vs arena {arena} B"
            );
        }
        // the report says the rest: the device-placed subdomains are exactly
        // the plan's explicit-GPU share, the arena was never oversubscribed,
        // and the pool really ran
        let on_device: Vec<usize> = report
            .subdomains
            .iter()
            .filter(|t| t.placement.is_some())
            .map(|t| t.index)
            .collect();
        assert_eq!(on_device, hybrid.indices_of(Formulation::ExplicitGpu));
        assert_eq!(report.subdomains.len(), n_gpu, "nothing else was assembled");
        assert!(report.temp_high_water() <= arena);
        assert!(report.makespan > 0.0);

        // the hybrid operator application must be bitwise identical to the
        // per-subdomain reference: CPU-assembled explicit Gᵢ between Cᵢ's
        // gather and scatter where the plan went explicit (record/replay is
        // bitwise CPU-equal), the shared implicit pipeline where it spilled
        let lam: Vec<f64> = (0..p.n_lambda).map(|i| (i as f64 * 0.37).sin()).collect();
        let got = solver.apply_f(&lam);
        let mut want = vec![0.0; p.n_lambda];
        for (i, sd) in p.subdomains.iter().enumerate() {
            let pl: Vec<f64> = sd.lambda_ids.iter().map(|&gl| lam[gl]).collect();
            let mut ql = vec![0.0; sd.n_lambda()];
            if spilled.contains(&i) {
                crate::dualop::apply_implicit(&solver.factors()[i], &pl, &mut ql);
            } else {
                let fac = &solver.factors()[i];
                let g = assemble_sc(&mut CpuExec, fac.factor(), &fac.pt_perm, &cfg);
                let map = crate::BoundaryMap::of(&fac.ct);
                let (mut pb, mut y) = (vec![0.0; map.n_rows()], vec![0.0; map.n_rows()]);
                map.scatter(&pl, &mut pb);
                sc_dense::symv(&SymPackedOf::from_lower(g.as_ref()), &pb, &mut y);
                map.gather(&y, &mut ql);
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

    /// One freshly built solver per call on a 3×3 workload: all-implicit,
    /// all-explicit (host), or — on the [`mixed_problem`] — the mixed auto
    /// split of `hybrid_mixes_formulations_and_matches_direct`.
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
                        HybridPlanOptions::default().with_iters(MIXED_ITERS),
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
    /// `BoundaryMap::scatter` accumulates into its vector, so a stale
    /// dof-space vector would leak the previous application into the next.
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
        let (small, mixed) = (
            HeatProblem::build_2d(6, (3, 3), Gluing::Redundant),
            mixed_problem(),
        );
        for (kind, p) in [("implicit", &small), ("explicit", &small), ("auto", &mixed)] {
            for precision in [Precision::F64, Precision::F32Refined] {
                let used = fresh_solver(p, kind, precision);
                for v in probe_vectors(p.n_lambda) {
                    let fresh = fresh_solver(p, kind, precision);
                    assert_eq!(used.apply_f(&v), fresh.apply_f(&v), "{kind} apply_f");
                    assert_eq!(
                        used.apply_lumped(&v),
                        fresh.apply_lumped(&v),
                        "{kind} apply_lumped"
                    );
                    if precision == Precision::F32Refined {
                        let v32: Vec<f32> = v.iter().map(|&x| x as f32).collect();
                        assert_eq!(
                            used.apply_f32(&v32),
                            fresh.apply_f32(&v32),
                            "{kind} apply_f32"
                        );
                    }
                }
                let (a, b) = (used.solve(), fresh_solver(p, kind, precision).solve());
                assert_eq!(a.lambda, b.lambda, "{kind} λ after the probes");
                assert_eq!(a.u_locals, b.u_locals, "{kind} u after the probes");
            }
        }
    }

    /// The pass walks each worker's chunk forward on even applications and
    /// backward on odd ones: `q` and every stream clock after each
    /// application are bitwise the same in either direction, on one thread
    /// and on two.
    #[test]
    fn alternating_walks_apply_bitwise_on_one_and_two_threads() {
        let p = HeatProblem::build_3d(3, (2, 2, 2), Gluing::Redundant);
        let lam: Vec<f64> = (0..p.n_lambda).map(|i| (i as f64 * 0.37).sin()).collect();
        let applications = || {
            let pool = DevicePool::uniform(DeviceSpec::a100(), 2, 2);
            let solver = FetiSolverBuilder::new()
                .backend(Backend::cluster(Arc::clone(&pool)))
                .formulation(FormulationChoice::Explicit)
                .build(&p);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            (0..3)
                .map(|_| {
                    pool.reset_all();
                    let q = solver.apply_f(&lam);
                    let clocks: Vec<f64> = (pool.devices().iter())
                        .flat_map(|d| (0..d.n_streams()).map(|s| d.stream_time(s)))
                        .collect();
                    assert!(clocks.iter().any(|&t| t > 0.0), "device slots");
                    (bits(&q), bits(&clocks))
                })
                .collect::<Vec<_>>()
        };
        let one = rayon::with_max_threads(1, applications);
        assert!(one.windows(2).all(|w| w[0] == w[1]), "walk direction");
        assert_eq!(rayon::with_max_threads(2, applications), one, "two threads");
    }

    #[test]
    fn concurrent_apply_f_on_one_solver_matches_single_threaded() {
        let p = mixed_problem();
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
        // at an iteration count that amortizes no assembly, the host's
        // explicit formulation loses to implicit too
        let solver = auto_solver(&p, pool, ScConfig::optimized(true, false), 0.0);
        check_solver(&p, &solver, 1e-6);
        let report = solver.report().unwrap();
        let hybrid = report.hybrid.as_ref().unwrap();
        assert_eq!(hybrid.count_of(Formulation::Implicit), p.subdomains.len());
        assert_eq!(hybrid.spilled.len(), p.subdomains.len());
        assert!(report.subdomains.is_empty(), "nothing was assembled");
        assert!(report.devices.is_empty());
        assert_eq!(report.makespan, 0.0);
    }

    #[test]
    fn auto_on_a_drained_pool_assembles_on_the_host() {
        // a pool whose one device has no streams admits nothing: every
        // subdomain spills, and at a high iteration count the plan's
        // explicit-CPU candidate takes them all
        let p = HeatProblem::build_2d(4, (2, 2), Gluing::Redundant);
        let drained = DevicePool::from_devices(vec![Device::new(DeviceSpec::a100(), 0)]);
        let solver = auto_solver(&p, drained, ScConfig::optimized(true, false), 1e6);
        check_solver(&p, &solver, 1e-6);
        let report = solver.report().unwrap();
        let hybrid = report.hybrid.as_ref().unwrap();
        let all: Vec<usize> = (0..p.subdomains.len()).collect();
        assert_eq!(hybrid.spilled, all);
        assert_eq!(hybrid.count_of(Formulation::ExplicitGpu), 0);
        assert_eq!(hybrid.count_of(Formulation::ExplicitCpu), all.len());
        assert!(report.devices.is_empty());
    }

    /// An auto solver on a 2 × 2 problem (4 subdomains) whose cluster
    /// backend carries the readiness times `ready`.
    fn auto_with_ready_at(ready: Vec<f64>) {
        let p = HeatProblem::build_2d(4, (2, 2), Gluing::Redundant);
        let pool = DevicePool::uniform(DeviceSpec::a100(), 1, 2);
        let opts = ScheduleOptions::default().with_ready_at(ready);
        FetiSolverBuilder::new()
            .backend(Backend::cluster_with(pool, opts))
            .formulation(FormulationChoice::Auto(HybridPlanOptions::default()))
            .build(&p);
    }

    #[test]
    #[should_panic(
        expected = "ScheduleOptions::ready_at must carry one readiness time per \
                               batch item (7 given, 4 items)"
    )]
    fn auto_rejects_a_too_long_ready_at() {
        auto_with_ready_at(vec![0.0; 7]);
    }

    #[test]
    #[should_panic(
        expected = "ScheduleOptions::ready_at must carry one readiness time per \
                               batch item (3 given, 4 items)"
    )]
    fn auto_rejects_a_too_short_ready_at() {
        auto_with_ready_at(vec![0.0; 3]);
    }

    #[test]
    #[should_panic(
        expected = "ScheduleOptions::ready_at[1] = NaN is not a finite, non-negative readiness time"
    )]
    fn auto_rejects_a_nan_readiness_time() {
        auto_with_ready_at(vec![0.0, f64::NAN, 0.0, 0.0]);
    }

    /// Binding puts each explicit operator on the stream its report row
    /// names: one application advances exactly those streams, each by the
    /// SYMVs of the subdomains placed on it (replayed on twin devices in the
    /// subdomain order the pass charges in), and no other stream — also
    /// when the operators are reused from a cluster build.
    #[test]
    fn one_application_charges_exactly_the_streams_the_report_names() {
        let p = mixed_problem();
        let cfg = ScConfig::optimized(true, true);
        let (mid, _) = mid_arena_spec(&temp_footprints(&p, &cfg));
        let a100 = DeviceSpec::a100();
        let explicit = FormulationChoice::Explicit;
        let cluster = Backend::cluster(DevicePool::uniform(a100.clone(), 2, 2));
        let build = |formulation, backend: &Backend| {
            FetiSolverBuilder::new()
                .backend(backend.clone())
                .formulation(formulation)
                .assembly(cfg)
                .build(&p)
        };
        let reused = build(explicit.clone(), &cluster).shared_operators();
        let cases = [
            (
                "gpu",
                explicit.clone(),
                Backend::gpu(Device::new(a100, 3)),
                None,
            ),
            ("cluster", explicit, cluster.clone(), None),
            ("reused", FormulationChoice::Implicit, cluster, reused),
            (
                "auto",
                FormulationChoice::Auto(HybridPlanOptions::default().with_iters(MIXED_ITERS)),
                Backend::cluster(DevicePool::uniform(mid, 2, 2)),
                None,
            ),
        ];
        let lam: Vec<f64> = (0..p.n_lambda).map(|i| (i as f64 * 0.37).sin()).collect();
        for (name, formulation, backend, reused) in cases {
            let solver = match reused {
                Some(operators) => FetiSolverBuilder::new()
                    .backend(backend.clone())
                    .operators(operators)
                    .build(&p),
                None => build(formulation, &backend),
            };
            let report = solver.report().expect("explicit formulations report");
            if let Some(plan) = &report.hybrid {
                assert!(
                    plan.count_of(Formulation::Implicit) > 0,
                    "{name}: a host share"
                );
            }
            let devices = backend.devices();
            let twins: Vec<Arc<Device>> = (devices.iter())
                .map(|d| Device::new(d.spec().clone(), d.n_streams()))
                .collect();
            let mut named = Vec::new();
            for t in &report.subdomains {
                let Some(at) = t.placement else { continue };
                let nb = solver.factors()[t.index].pt_perm.ncols();
                let symv = KernelCost::symv_of::<f64>(nb);
                twins[at.device].stream(at.stream).submit(&symv);
                named.push((at.device, at.stream));
            }
            assert!(!named.is_empty(), "{name}: operators on the devices");

            devices.iter().for_each(|d| d.reset());
            solver.apply_f(&lam);
            for (d, (dev, twin)) in devices.iter().zip(&twins).enumerate() {
                for s in 0..dev.n_streams() {
                    let at = format!("{name}: device {d} stream {s}");
                    assert_eq!(dev.stream_time(s), twin.stream_time(s), "{at}");
                    if !named.contains(&(d, s)) {
                        assert_eq!(dev.stream_time(s), 0.0, "{at} moved");
                    }
                }
            }
        }
    }

    #[test]
    fn hybrid_iteration_extremes_collapse_at_the_solver_level() {
        let p = HeatProblem::build_2d(4, (2, 2), Gluing::Redundant);
        let cfg = ScConfig::optimized(true, false);
        let collapse = |iters: f64| {
            let pool = DevicePool::uniform(DeviceSpec::a100(), 1, 2);
            let solver = auto_solver(&p, pool, cfg, iters);
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
        let s1 = FetiSolverBuilder::new()
            .options(FetiOptions::default().with_preconditioner(Preconditioner::None))
            .build(&p)
            .solve();
        let s2 = FetiSolverBuilder::new().build(&p).solve();
        assert!(s1.stats.converged && s2.stats.converged);
        // same solution
        let u1 = p.gather_global(&s1.u_locals);
        let u2 = p.gather_global(&s2.u_locals);
        let scale = u1.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        for i in 0..u1.len() {
            assert!((u1[i] - u2[i]).abs() < 1e-6 * scale);
        }
        // the default (lumped) preconditioner takes fewer iterations
        assert_eq!(
            (s1.stats.iterations, s2.stats.iterations),
            (PLAIN_ITERS, LUMPED_ITERS),
            "plain, lumped"
        );
    }

    /// PCPG iterations of `lumped_preconditioner_converges_and_matches`'s
    /// 2D c5 3×2 mesh, without and with the lumped preconditioner.
    const PLAIN_ITERS: usize = 22;
    const LUMPED_ITERS: usize = 18;

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The lumped preconditioner on all of `Kᵢ`, as `apply_lumped` computed
    /// it before it ran on `K_bb`: the oracle of its glued-dof form.
    fn lumped_on_full_k(solver: &FetiSolver<'_>, w: &[f64]) -> Vec<f64> {
        let mut z = vec![0.0; solver.problem.n_lambda];
        solver
            .pass
            .run(solver.problem, Some(w), Some(&mut z), |_, sd, ws, zl| {
                let (mut t, mut kt) = (vec![0.0; sd.n_dofs()], vec![0.0; sd.n_dofs()]);
                sd.bt.spmv(1.0, &ws.pl, 0.0, &mut t); // B̃ᵀ w̃
                sd.k.spmv(1.0, &t, 0.0, &mut kt); // K B̃ᵀ w̃
                sd.bt.spmv_t(1.0, &kt, 0.0, zl); // B̃ K B̃ᵀ w̃
            });
        z
    }

    /// Meshes of the lumped oracle checks: 2D and 3D, redundant and chain
    /// gluing, a 3×3×3 decomposition whose interior subdomain is glued on
    /// every face, and one subdomain with no multipliers.
    fn lumped_meshes() -> Vec<HeatProblem> {
        vec![
            HeatProblem::build_2d(6, (3, 3), Gluing::Redundant),
            HeatProblem::build_2d(7, (3, 2), Gluing::Chain),
            HeatProblem::build_3d(4, (2, 2, 2), Gluing::Redundant),
            HeatProblem::build_3d(3, (2, 2, 1), Gluing::Chain),
            HeatProblem::build_3d(2, (3, 3, 3), Gluing::Redundant),
            HeatProblem::build_2d(4, (1, 1), Gluing::Redundant),
        ]
    }

    /// Uniform values in `[-1, 1)` from a fixed-seed linear congruential
    /// generator.
    fn random_vector(n: usize, seed: u64) -> Vec<f64> {
        let mut x = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 11) as f64 / (1u64 << 52) as f64 - 1.0
            })
            .collect()
    }

    #[test]
    fn lumped_on_the_glued_dofs_is_bitwise_the_full_k_product() {
        for p in lumped_meshes() {
            let solver = FetiSolverBuilder::new().build(&p);
            let at = format!(
                "{} subdomains, {} multipliers",
                p.subdomains.len(),
                p.n_lambda
            );
            let mut vectors = probe_vectors(p.n_lambda);
            vectors.extend((0..3).map(|seed| random_vector(p.n_lambda, seed)));
            for w in vectors {
                let (got, want) = (solver.apply_lumped(&w), lumped_on_full_k(&solver, &w));
                assert_eq!(bits(&got), bits(&want), "{at}");
            }
        }
    }

    /// Whole solves under the default (lumped) preconditioner are bitwise
    /// the solves that precondition with the full-`Kᵢ` oracle, for both
    /// formulations and both working precisions.
    #[test]
    fn lumped_solves_are_bitwise_the_full_k_oracle_solves() {
        let meshes = [
            HeatProblem::build_2d(6, (3, 3), Gluing::Redundant),
            HeatProblem::build_2d(7, (3, 2), Gluing::Chain),
            HeatProblem::build_3d(2, (3, 3, 3), Gluing::Redundant),
        ];
        for p in &meshes {
            for kind in ["implicit", "explicit"] {
                for precision in [Precision::F64, Precision::F32Refined] {
                    let solver = fresh_solver(p, kind, precision);
                    let at = format!("{kind} {precision:?}, {} subdomains", p.subdomains.len());
                    let oracle = |w: &[f64]| lumped_on_full_k(&solver, w);
                    let want = solver.solve_with(&solver.d, &solver.e, None, Some(&oracle));
                    let got = solver.solve();
                    assert!(got.stats.converged, "{at}");
                    assert_eq!(bits(&got.lambda), bits(&want.lambda), "{at}: λ");
                    assert_eq!(
                        bits(&got.u_locals.concat()),
                        bits(&want.u_locals.concat()),
                        "{at}: u"
                    );
                    let count = |s: &PcpgStats| (s.iterations, s.operator_applications);
                    assert_eq!(count(&got.stats), count(&want.stats), "{at}: iterations");
                }
            }
        }
    }

    /// A solve's recovery reuses PCPG's last `Fλ`: on a one-stream device
    /// the solve advances the clock by exactly `operator_applications`
    /// rounds of the slots' SYMVs (replayed on a twin device), and its `u`
    /// is bitwise the `u` of `recover_primal`, which applies `F` itself.
    #[test]
    fn a_solve_charges_one_round_per_operator_application() {
        let p = HeatProblem::build_2d(6, (2, 2), Gluing::Redundant);
        for preconditioner in [Preconditioner::None, Preconditioner::Lumped] {
            let device = Device::new(DeviceSpec::a100(), 1);
            let solver = FetiSolverBuilder::new()
                .options(FetiOptions::default().with_preconditioner(preconditioner))
                .backend(Backend::gpu(Arc::clone(&device)))
                .formulation(FormulationChoice::Explicit)
                .build(&p);
            assert!(solver.n_kernels() > 0, "recovery solves for α");
            device.reset();
            let sol = solver.solve();
            let twin = Device::new(DeviceSpec::a100(), 1);
            for _ in 0..sol.stats.operator_applications {
                for f in solver.factors() {
                    let symv = KernelCost::symv_of::<f64>(f.pt_perm.ncols());
                    twin.stream(0).submit(&symv);
                }
            }
            let at = format!("{preconditioner:?}");
            assert_eq!(device.stream_time(0), twin.stream_time(0), "{at}");
            assert!(device.stream_time(0) > 0.0, "{at}: slots on the device");
            let u = solver.recover_primal(&sol.lambda);
            assert_eq!(bits(&sol.u_locals.concat()), bits(&u.concat()), "{at}");
        }
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
        let build = |precision| {
            FetiSolverBuilder::new()
                .options(FetiOptions::default().with_tol(1e-10))
                .backend(Backend::cpu())
                .precision(precision)
                .formulation(FormulationChoice::Explicit)
                .assembly(ScConfig::optimized(false, false))
                .build(&p)
        };
        let solver = build(Precision::F32Refined);
        assert_eq!(solver.precision(), Precision::F32Refined);
        check_solver(&p, &solver, 1e-6);
        let sol = solver.solve();
        let refinement = sol.refinement.expect("refined path reports stats");
        assert!(sol.stats.converged && !refinement.fell_back);
        assert!(
            sol.stats.rel_residual <= 1e-10,
            "refined residual {} must reach the f64-level target",
            sol.stats.rel_residual
        );
        assert!(refinement.outer_iterations >= 1);
        assert!(refinement.inner_iterations >= refinement.outer_iterations);
        // the assembly itself ran in f64: the operator is bitwise the f64
        // build's
        let v: Vec<f64> = (0..p.n_lambda).map(|i| (i as f64 * 0.37).sin()).collect();
        assert_eq!(solver.apply_f(&v), build(Precision::F64).apply_f(&v));
    }

    /// Refinement converges to the operator its residual applies. With the
    /// operators assembled in `f64`, an explicit refined solve of a 3D mesh
    /// lands on the `f64` solve's `u`, not merely near it.
    #[test]
    fn f32_refined_explicit_3d_reaches_the_f64_solution() {
        let p = HeatProblem::build_3d(8, (2, 2, 2), Gluing::Redundant);
        let solve = |precision| {
            FetiSolverBuilder::new()
                .backend(Backend::cpu())
                .precision(precision)
                .formulation(FormulationChoice::Explicit)
                .assembly(ScConfig::Auto)
                .build(&p)
                .solve()
        };
        let (s64, s32) = (solve(Precision::F64), solve(Precision::F32Refined));
        assert!(
            !s32.refinement
                .expect("refined path reports stats")
                .fell_back
        );
        let (want, got) = (s64.u_locals.concat(), s32.u_locals.concat());
        let diff: f64 = want.iter().zip(&got).map(|(a, b)| (a - b).powi(2)).sum();
        let norm: f64 = want.iter().map(|a| a * a).sum();
        let rel = (diff / norm).sqrt();
        assert!(rel <= 1e-9, "‖u − u₆₄‖/‖u₆₄‖ = {rel:e}");
    }

    #[test]
    fn f32_refined_implicit_3d_matches_direct() {
        // no explicit assembly: the inner solves run through the demoted
        // factor bundles (f32 triangular solves)
        let p = HeatProblem::build_3d(2, (2, 2, 1), Gluing::Redundant);
        let solver = FetiSolverBuilder::new()
            .options(FetiOptions::default().with_tol(1e-10))
            .precision(Precision::F32Refined)
            .build(&p);
        check_solver(&p, &solver, 1e-6);
        let sol = solver.solve();
        let refinement = sol.refinement.expect("refined path reports stats");
        assert!(sol.stats.converged && !refinement.fell_back);
        assert!(sol.stats.rel_residual <= 1e-10);
    }

    #[test]
    fn f32_refined_lambda_tracks_the_f64_solution() {
        let p = HeatProblem::build_2d(5, (3, 2), Gluing::Redundant);
        let s64 = FetiSolverBuilder::new().build(&p).solve();
        let s32 = FetiSolverBuilder::new()
            .precision(Precision::F32Refined)
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

    /// A refined solve stops where the `f64` solve stops: a converged
    /// solve reports a residual at or below the options' `tol`, whether
    /// refinement reached it or the `f64` fallback did. Three corrections
    /// take this mesh to ~2e-11, between the two tolerances.
    #[test]
    fn refined_solve_stops_at_the_options_tol() {
        let p = HeatProblem::build_2d(6, (3, 3), Gluing::Redundant);
        for tol in [1e-8, 1e-12] {
            let sol = FetiSolverBuilder::new()
                .options(FetiOptions::default().with_tol(tol))
                .precision(Precision::F32Refined)
                .build(&p)
                .solve();
            assert!(sol.refinement.is_some(), "refined path reports stats");
            assert!(
                !sol.stats.converged || sol.stats.rel_residual <= tol,
                "tol {tol:e}: converged at {:e}",
                sol.stats.rel_residual
            );
        }
    }

    #[test]
    fn refinement_budget_exhaustion_falls_back_to_f64() {
        // one correction cannot reach the default tol of 1e-9 from an O(1)
        // residual at inner tolerance 1e-4: the cap of 1 runs out and the
        // solver must fall back to the full-f64 PCPG instead of returning a
        // bad λ
        let p = HeatProblem::build_2d(4, (2, 2), Gluing::Redundant);
        let solver = FetiSolverBuilder::new()
            .precision(Precision::F32Refined)
            .build(&p);
        let (res, refinement) = solver.solve_refined(&solver.d, solver.lambda0(&solver.e), 1, None);
        let (lambda, stats) = (res.lambda, res.stats);
        let refinement = refinement.expect("refined path reports stats");
        assert!(refinement.fell_back, "budget exhaustion must fall back");
        assert_eq!(refinement.outer_iterations, 1);
        assert!(
            stats.converged && stats.rel_residual <= solver.options().tol,
            "the f64 fallback must still converge: {stats:?}"
        );
        check_primal(&p, &solver.recover_primal(&lambda), 1e-6);
    }

    #[test]
    fn auto_on_gpu_backend_uses_a_single_device_pool() {
        let p = mixed_problem();
        let dev = Device::new(DeviceSpec::a100(), 2);
        let solver = FetiSolverBuilder::new()
            .backend(Backend::gpu_with(
                Arc::clone(&dev),
                ScheduleOptions::default().with_policy(StreamPolicy::LptLeastLoaded),
            ))
            .formulation(FormulationChoice::Auto(
                HybridPlanOptions::default().with_iters(MIXED_ITERS),
            ))
            .assembly(ScConfig::optimized(true, false))
            .build(&p);
        check_solver(&p, &solver, 1e-6);
        assert!(dev.synchronize() > 0.0, "the device must have been used");
        let report = solver.report().unwrap();
        let plan = report.hybrid.as_ref().unwrap();
        assert!(plan.count_of(Formulation::ExplicitGpu) > 0);
        assert!(
            plan.spilled.is_empty(),
            "the whole A100 arena admits every subdomain"
        );
        let on_device: Vec<usize> = report
            .subdomains
            .iter()
            .filter(|t| t.placement.is_some_and(|p| p.device == 0))
            .map(|t| t.index)
            .collect();
        assert_eq!(
            on_device,
            plan.indices_of(Formulation::ExplicitGpu),
            "the plan's explicit-GPU share runs on the one device"
        );
    }
}
