//! The local dual operator `F̃ᵢ = B̃ᵢ K⁺ᵢ B̃ᵢᵀ` (paper Eq. 9): the factor
//! bundle it is built from, the one slot type (`LocalOp`) for its implicit
//! (Eq. 11) and explicit (Eq. 12) forms, the producers that bind assembled
//! matrices to slots, and the one global pass (`DualPass`) that applies a
//! vector of slots to a global dual vector.

use crate::regularize::regularize_fixing_node;
use rayon::prelude::*;
use sc_core::{
    estimate_apply, estimate_cost, plan_hybrid, AssemblyReport, AssemblySession, Backend,
    BatchItem, DeviceSlot, Formulation, HybridPlanOptions, ScConfig,
};
use sc_dense::{Scalar, SymPackedOf};
use sc_factor::{Analysis, Engine, SparseCholesky};
use sc_fem::{HeatProblem, Subdomain};
use sc_gpu::{DeviceSpec, KernelCost, Stream};
use sc_sparse::{supernodal_lower_solve, supernodal_lower_t_solve, Csc, CscOf, SupernodeRuns};
use std::sync::{Arc, Mutex};

/// Hoisted gather/scatter index map of `B̃ᵢᵀ`, flattened column-major:
/// column `j` of the gluing block owns `rows[offsets[j]..offsets[j+1]]` with
/// matching `coeffs` (the ±1 boundary signs, one entry per column on
/// redundant gluing). Precomputed **once** per subdomain so the implicit
/// dual-operator application resolves its boundary permutation by direct
/// indexed loops instead of re-walking the sparse matrix machinery every
/// PCPG iteration. Generic over the working precision: the mixed-precision
/// refinement keeps a demoted `f32` copy next to the `f64` one
/// ([`BoundaryMap`]).
pub struct BoundaryMapOf<S = f64> {
    /// Per-column offsets into `rows`/`coeffs` (`n_lambda + 1` entries).
    offsets: Vec<usize>,
    /// Factor-space row of each stored coefficient.
    rows: Vec<usize>,
    /// Coefficient values (the B̃ signs).
    coeffs: Vec<S>,
    /// Factor dimension (length of the dof-space work vector).
    n_rows: usize,
}

/// The `f64` boundary map (the historical default working precision).
pub type BoundaryMap = BoundaryMapOf<f64>;

impl<S: Scalar> BoundaryMapOf<S> {
    /// Extract the map from the row-permuted gluing block.
    pub fn of(bt_perm: &CscOf<S>) -> Self {
        BoundaryMapOf {
            offsets: bt_perm.col_ptr().to_vec(),
            rows: bt_perm.row_idx().to_vec(),
            coeffs: bt_perm.values().to_vec(),
            n_rows: bt_perm.nrows(),
        }
    }

    /// Local multiplier count.
    pub fn n_lambda(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Factor dimension.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Scatter `t = B̃ᵀ p̃` into the (pre-zeroed) dof-space vector `t` —
    /// bitwise identical to `bt_perm.spmv(1.0, p, 0.0, t)`.
    pub fn scatter(&self, p: &[S], t: &mut [S]) {
        debug_assert_eq!(p.len(), self.n_lambda());
        debug_assert_eq!(t.len(), self.n_rows);
        for (j, &pj) in p.iter().enumerate() {
            // sc-analyze: allow(float-eq)
            if pj != S::ZERO {
                for k in self.offsets[j]..self.offsets[j + 1] {
                    t[self.rows[k]] += pj * self.coeffs[k];
                }
            }
        }
    }

    /// Gather `out = B̃ t` from the dof-space vector — bitwise identical to
    /// `bt_perm.spmv_t(1.0, t, 0.0, out)`: one dot product per multiplier,
    /// accumulated in stored order.
    pub fn gather(&self, t: &[S], out: &mut [S]) {
        debug_assert_eq!(out.len(), self.n_lambda());
        debug_assert_eq!(t.len(), self.n_rows);
        for (j, o) in out.iter_mut().enumerate() {
            let mut s = S::ZERO;
            for k in self.offsets[j]..self.offsets[j + 1] {
                s += self.coeffs[k] * t[self.rows[k]];
            }
            *o = s;
        }
    }
}

/// Per-subdomain factorization bundle: the regularized factor, `B̃ᵢᵀ`
/// pre-permuted into factor row space, and what the implicit application
/// reuses across PCPG iterations — the hoisted boundary index map and the
/// part of the factor a boundary right-hand side can reach.
pub struct SubdomainFactors {
    /// Factorized `K_reg`.
    pub chol: SparseCholesky,
    /// `B̃ᵢᵀ` with rows in the factor's permuted space.
    pub bt_perm: Csc,
    /// Gather/scatter map of `bt_perm`, hoisted out of the per-iteration
    /// apply path.
    pub map: BoundaryMap,
    /// The factor's supernode runs restricted to the
    /// [`RowClosure`](sc_sparse::RowClosure) of `bt_perm`'s rows, the closure
    /// the explicit assembly solves on: Eq. 11 sweeps only these columns
    /// (the sparsity of `B̃` again, on the implicit path).
    pub boundary_runs: SupernodeRuns,
}

impl SubdomainFactors {
    /// Regularize and factorize one subdomain: [`build_all`](Self::build_all)'s
    /// loop over a class of one.
    pub fn build(sd: &Subdomain, engine: Engine, ordering: sc_order::Ordering) -> Self {
        let mut one = Self::build_each(std::slice::from_ref(sd), engine, ordering);
        one.pop().expect("one subdomain in, one bundle out")
    }

    /// Regularize and factorize every subdomain of `problem` — the crate's
    /// one factorization loop. The ordering and the symbolic analysis are
    /// functions of the pattern of `K_reg` alone, and a uniform decomposition
    /// has few such patterns (the subdomains on the Dirichlet boundary and
    /// the floating ones), so the loop analyzes each class of equal patterns
    /// once and shares that [`Analysis`] behind one `Arc`. Only the numeric
    /// factorization and the `B̃`-side data run per subdomain (in parallel,
    /// the paper's loop over the cluster's subdomains); every bundle is
    /// bitwise the one a per-subdomain analysis would give.
    pub fn build_all(
        problem: &HeatProblem,
        engine: Engine,
        ordering: sc_order::Ordering,
    ) -> Arc<Vec<Self>> {
        Arc::new(Self::build_each(&problem.subdomains, engine, ordering))
    }

    fn build_each(
        subdomains: &[Subdomain],
        engine: Engine,
        ordering: sc_order::Ordering,
    ) -> Vec<Self> {
        // 1. regularize; class the subdomains by the exact pattern of K_reg,
        //    each class represented by its first member
        let regularize = |sd: &Subdomain| {
            regularize_fixing_node(&sd.k, sd.kernel.as_deref(), sd.fixing_dof, None)
        };
        let kregs: Vec<Csc> = subdomains.par_iter().map(regularize).collect();
        let mut reps: Vec<usize> = Vec::new();
        let mut class = Vec::with_capacity(kregs.len());
        for (i, k) in kregs.iter().enumerate() {
            let same =
                |&r: &usize| kregs[r].col_ptr() == k.col_ptr() && kregs[r].row_idx() == k.row_idx();
            class.push(reps.iter().position(same).unwrap_or_else(|| {
                reps.push(i);
                reps.len() - 1
            }));
        }
        // 2. order and analyze one representative per class
        let analyses: Vec<Arc<Analysis>> = reps
            .par_iter()
            .map(|&r| {
                Arc::new(Analysis::new(
                    &kregs[r],
                    ordering.compute(&kregs[r]),
                    engine,
                ))
            })
            .collect();
        // 3. factorize every subdomain against its class's analysis
        let factorize = |((sd, kreg), c): ((&Subdomain, Csc), usize)| {
            let chol = SparseCholesky::factorize_with_analysis(&kreg, Arc::clone(&analyses[c]))
                .expect("regularized subdomain matrix must be SPD");
            let bt_perm = sd.bt.permute_rows(chol.perm());
            let map = BoundaryMap::of(&bt_perm);
            let closure = sc_sparse::RowClosure::of(chol.factor_csc_ref(), bt_perm.row_idx());
            let boundary_runs = chol.supernode_runs().restricted_to(&closure);
            SubdomainFactors {
                chol,
                bt_perm,
                map,
                boundary_runs,
            }
        };
        subdomains
            .par_iter()
            .zip(kregs)
            .zip(class)
            .map(factorize)
            .collect()
    }

    /// `K⁺ v` in original dof space.
    pub fn solve_kplus(&self, v: &[f64]) -> Vec<f64> {
        self.chol.solve(v)
    }

    /// The `(L, B̃ᵀ)` pair the explicit assembly consumes, borrowed.
    pub fn batch_item(&self) -> BatchItem<'_> {
        BatchItem {
            l: self.chol.factor_csc_ref(),
            bt: &self.bt_perm,
        }
    }
}

/// The factor view Eq. 11 applies against at working precision `S`: `L` in
/// permuted index space, the supernode runs of its pattern restricted to
/// what `B̃ᵀ` reaches, and the boundary map of `B̃ᵀ` in the same row space.
/// The runs hold no values, so a demoted view borrows the `f64` side's.
pub struct FactorView<'a, S = f64> {
    /// The factor.
    pub l: &'a CscOf<S>,
    /// [`SubdomainFactors::boundary_runs`].
    pub runs: &'a SupernodeRuns,
    /// The map of `B̃ᵀ`.
    pub map: &'a BoundaryMapOf<S>,
}

impl<'a> From<&'a SubdomainFactors> for FactorView<'a> {
    fn from(f: &'a SubdomainFactors) -> Self {
        FactorView {
            l: f.chol.factor_csc_ref(),
            runs: &f.boundary_runs,
            map: &f.map,
        }
    }
}

/// [`apply_implicit_with`] on fresh work vectors — a convenience for tests
/// and one-off applications; no library path calls it.
pub fn apply_implicit(factors: &SubdomainFactors, p: &[f64], out: &mut [f64]) {
    apply_implicit_with(factors, p, out, &mut Vec::new(), &mut Vec::new());
}

/// Implicit application `q̃ = B̃ (L⁻ᵀ(L⁻¹(B̃ᵀ p̃)))` (paper Eq. 11) at working
/// precision `S` against a [`FactorView`] — a `&SubdomainFactors` at `f64`,
/// a demoted factor and map at `f32`. Both triangular solves are
/// [`sc_sparse`]'s supernodal sweeps, in place on the CSC factor and over
/// the boundary-restricted runs only: the forward solve of `B̃ᵀ p̃` is exactly
/// zero in every column they skip, and the gather reads no row the backward
/// solve skipped. The caller-owned scratch (`t`: the dof-space vector,
/// resized to the factor dimension; `w`: the sweeps' supernode tail; contents
/// of both overwritten) and the hoisted [`BoundaryMapOf`] leave the two
/// sweeps plus the indexed gather/scatter as the per-iteration cost — no
/// allocation, no sparse-matrix traversal machinery.
pub fn apply_implicit_with<'a, S: Scalar>(
    factors: impl Into<FactorView<'a, S>>,
    p: &[S],
    out: &mut [S],
    t: &mut Vec<S>,
    w: &mut Vec<S>,
) {
    let FactorView { l, runs, map } = factors.into();
    t.clear();
    t.resize(map.n_rows(), S::ZERO);
    map.scatter(p, t);
    supernodal_lower_solve(l, runs, t, w);
    supernodal_lower_t_solve(l, runs, t, w);
    map.gather(t, out);
}

/// One subdomain's ready-to-apply local dual operator at working precision
/// `S` — the crate's only operator slot type: every producer fills a `Vec`
/// of these and [`DualPass`] applies it.
pub(crate) enum LocalOp<S = f64> {
    /// Eq. 12: the dense symmetric `F̃ᵢ`, applied with one SYMV.
    Dense {
        /// The assembled local dual operator: its lower triangle, packed,
        /// shared with every build that reuses it ([`AssembledOperators`]).
        f: Arc<SymPackedOf<S>>,
        /// `Some`: the triangle is resident on that simulated stream, whose
        /// clock every application advances by the SYMV's cost
        /// ([`LocalOp::charge`]).
        stream: Option<Stream>,
    },
    /// Eq. 11 against the factor view the pass supplies: the slot owns no
    /// factor, so nothing is factorized or copied twice.
    Implicit,
}

impl<S: Scalar> LocalOp<S> {
    /// `out = F̃ᵢ p` — the numerics only, safe to run on any worker thread:
    /// a device-resident slot's simulated cost is charged separately
    /// ([`LocalOp::charge`]). `factors` is the subdomain's factor view
    /// (`Implicit` needs it, `Dense` ignores it), `t` and `w` the scratch of
    /// Eq. 11.
    pub(crate) fn apply(
        &self,
        factors: Option<FactorView<'_, S>>,
        p: &[S],
        out: &mut [S],
        t: &mut Vec<S>,
        w: &mut Vec<S>,
    ) {
        match self {
            LocalOp::Dense { f, .. } => sc_dense::symv(f.as_ref(), p, out),
            LocalOp::Implicit => {
                let view = factors.expect("an implicit slot comes with its factor view");
                apply_implicit_with(view, p, out, t, w)
            }
        }
    }

    /// Bytes of operator storage the slot owns (none for an implicit one).
    #[cfg(test)]
    pub(crate) fn held_bytes(&self) -> usize {
        match self {
            LocalOp::Dense { f, .. } => std::mem::size_of_val(f.data()),
            LocalOp::Implicit => 0,
        }
    }

    /// Advance a device-resident slot's stream by the cost of one
    /// application (one SYMV of order `m`); a host slot charges nothing. The
    /// device has one slot heap shared by its streams, so the simulated
    /// clock depends on the order of submissions: callers charge from one
    /// thread, in subdomain-index order.
    pub(crate) fn charge(&self) {
        if let LocalOp::Dense {
            f,
            stream: Some(stream),
        } = self
        {
            stream.submit(&KernelCost::symv_of::<S>(f.nrows()));
        }
    }

    /// Advance a device-resident slot's stream by the H2D upload of its
    /// packed triangle; a host slot charges nothing. Same ordering contract
    /// as [`LocalOp::charge`].
    pub(crate) fn upload(&self) {
        if let LocalOp::Dense {
            f,
            stream: Some(stream),
        } = self
        {
            // the SYMV reads exactly the packed triangle's bytes
            let bytes = KernelCost::symv_of::<S>(f.nrows()).bytes;
            stream.submit(&KernelCost::transfer(bytes));
        }
    }
}

/// A worker's scratch of the [`DualPass`]: contents are overwritten by every
/// local operation, capacities persist.
#[derive(Default)]
pub(crate) struct Scratch<S> {
    /// The gathered local dual vector `λ̃ᵢ`.
    pub(crate) pl: Vec<S>,
    /// Dof-space work vector (Eq. 11's, the lumped `B̃ᵀ w̃`).
    pub(crate) t: Vec<S>,
    /// Second dof-space work vector (the lumped `K B̃ᵀ w̃`).
    pub(crate) kt: Vec<S>,
    /// Supernode-tail work vector of Eq. 11's triangular sweeps.
    pub(crate) w: Vec<S>,
}

/// The one global application loop: gather `λ̃ᵢ` from the global dual vector
/// → a local operation per subdomain (in parallel) → scatter-add the local
/// results. The scatter-add runs sequentially in subdomain-index order, so
/// the sum at every shared multiplier is the same on any thread count.
///
/// The per-subdomain result vectors sit behind one lock held for the whole
/// pass: concurrent passes on one solver serialize instead of sharing
/// buffers. Scratch comes from a last-in-first-out pool, so a worker reuses
/// the set it (or a neighbour) just released while it is still in cache —
/// one set per worker in steady state, whatever the subdomain count. A
/// poisoned lock is recovered: every pass overwrites what it reads.
pub(crate) struct DualPass<S> {
    ql: Mutex<Vec<Vec<S>>>,
    pool: Mutex<Vec<Scratch<S>>>,
}

impl<S: Scalar> DualPass<S> {
    /// Allocate the result vectors of `problem`'s subdomains.
    pub(crate) fn new(problem: &HeatProblem) -> Self {
        let subdomains = problem.subdomains.iter();
        let ql = subdomains.map(|sd| vec![S::ZERO; sd.n_lambda()]);
        DualPass {
            ql: Mutex::new(ql.collect()),
            pool: Mutex::new(Vec::new()),
        }
    }

    /// Whether a panicking pass left the result lock poisoned.
    #[cfg(test)]
    pub(crate) fn is_poisoned(&self) -> bool {
        self.ql.is_poisoned()
    }

    /// Run the pass: `local` reads the gathered `pl` and writes the
    /// subdomain's result vector; what it returns comes back in subdomain
    /// order. `p = None` skips the gather (no dual input: the
    /// right-hand-side set-up), `q = None` the scatter-add (no dual output:
    /// primal recovery).
    pub(crate) fn run<R: Send>(
        &self,
        problem: &HeatProblem,
        p: Option<&[S]>,
        q: Option<&mut [S]>,
        local: impl Fn(usize, &Subdomain, &mut Scratch<S>, &mut [S]) -> R + Sync + Send,
    ) -> Vec<R> {
        let pool = || self.pool.lock().unwrap_or_else(|e| e.into_inner());
        let subdomains = &problem.subdomains;
        let mut results = self.ql.lock().unwrap_or_else(|e| e.into_inner());
        let out = results
            .par_iter_mut()
            .zip(subdomains)
            .enumerate()
            .map(|(i, (ql, sd))| {
                let mut w = pool().pop().unwrap_or_default();
                w.pl.clear();
                if let Some(p) = p {
                    w.pl.extend(sd.lambda_ids.iter().map(|&gl| p[gl]));
                }
                let r = local(i, sd, &mut w, ql);
                pool().push(w);
                r
            })
            .collect();
        if let Some(q) = q {
            for (sd, ql) in subdomains.iter().zip(results.iter()) {
                for (&ql, &gl) in ql.iter().zip(&sd.lambda_ids) {
                    q[gl] += ql;
                }
            }
        }
        out
    }

    /// `q = F p`: the pass with each subdomain's slot as the local
    /// operation, `view(i)` its factor view. The numerics run in the
    /// parallel phase; the device-resident slots' SYMV costs are submitted
    /// afterwards, sequentially in subdomain-index order, so the simulated
    /// clock is the same on any thread count.
    pub(crate) fn apply_ops<'a>(
        &self,
        problem: &HeatProblem,
        ops: &[LocalOp<S>],
        view: impl Fn(usize) -> Option<FactorView<'a, S>> + Sync + Send,
        p: &[S],
    ) -> Vec<S> {
        let mut q = vec![S::ZERO; problem.n_lambda];
        self.run(problem, Some(p), Some(&mut q), |i, _, w, ql| {
            ops[i].apply(view(i), &w.pl, ql, &mut w.t, &mut w.w)
        });
        ops.iter().for_each(LocalOp::charge);
        q
    }
}

/// The explicit operators one build assembled, shareable with later builds
/// of the same problem ([`FetiSolver::shared_operators`],
/// [`FetiSolverBuilder::operators`]): each subdomain's packed `F̃ᵢ` (`None`
/// where the slot applies implicitly) and the report of the build that
/// assembled them, whose placements name the stream each triangle lives on.
///
/// [`FetiSolver::shared_operators`]: crate::FetiSolver::shared_operators
/// [`FetiSolverBuilder::operators`]: crate::FetiSolverBuilder::operators
pub struct AssembledOperators {
    triangles: Vec<Option<Arc<SymPackedOf<f64>>>>,
    report: AssemblyReport,
}

impl AssembledOperators {
    /// Hold each assembled `F̃ᵢ`'s packed triangle (`None`: an implicit
    /// slot); `report` rows carry problem-global indices.
    pub(crate) fn new(f: Vec<Option<SymPackedOf<f64>>>, report: AssemblyReport) -> Self {
        AssembledOperators {
            triangles: f.into_iter().map(|f| f.map(Arc::new)).collect(),
            report,
        }
    }

    /// The report of the build that assembled the operators.
    pub fn report(&self) -> &AssemblyReport {
        &self.report
    }

    /// Number of subdomains (operator slots) covered.
    pub(crate) fn len(&self) -> usize {
        self.triangles.len()
    }

    /// Bytes of the packed triangles.
    pub fn packed_bytes(&self) -> usize {
        let bytes = |f: &Arc<SymPackedOf<f64>>| std::mem::size_of_val(f.data());
        self.triangles.iter().flatten().map(bytes).sum()
    }

    /// One slot per subdomain, each triangle shared, not copied: a
    /// subdomain the report placed on a device gets a slot resident on the
    /// stream of its placement (on `backend`'s devices), the others a host
    /// one, and a subdomain with no triangle an implicit one.
    pub(crate) fn bind(&self, backend: &Backend) -> Vec<LocalOp> {
        let devices = backend.devices();
        let mut streams: Vec<Option<Stream>> = self.triangles.iter().map(|_| None).collect();
        for t in &self.report.subdomains {
            streams[t.index] = t.placement.map(|p| devices[p.device].stream(p.stream));
        }
        self.triangles
            .iter()
            .zip(streams)
            .map(|(f, stream)| match f {
                Some(f) => LocalOp::Dense {
                    f: Arc::clone(f),
                    stream,
                },
                None => LocalOp::Implicit,
            })
            .collect()
    }
}

/// The auto (hybrid) formulation: per-subdomain explicit-vs-implicit
/// decision under the §4.4 cost model, explicit shares assembled through
/// sessions — the explicit-GPU share on the caller's own target, with
/// `ready_at` sliced to the share — and the reports merged into one
/// [`AssemblyReport`] (problem-global indices).
///
/// # Panics
///
/// When the backend's `ScheduleOptions::ready_at` does not carry one entry
/// per subdomain, or carries a non-finite or negative entry.
pub(crate) fn assemble_auto(
    factors: &[SubdomainFactors],
    cfg: &ScConfig,
    backend: &Backend,
    plan_opts: &HybridPlanOptions,
) -> AssembledOperators {
    // decision layer: analytic assembly + per-iteration apply estimates per
    // subdomain, priced against every device of the backend — none on the
    // host
    let devices = backend.devices();
    let ref_spec = devices
        .first()
        .map_or_else(DeviceSpec::host, |d| d.spec().clone());
    let estimates: Vec<(sc_core::CostEstimate, sc_core::ApplyEstimate)> = factors
        .par_iter()
        .enumerate()
        .map(|(i, f)| {
            let l = f.chol.factor_csc_ref();
            let bt = &f.bt_perm;
            let params = cfg.resolve(!devices.is_empty(), l, bt);
            (
                estimate_cost(&ref_spec, l, bt, &params, i),
                estimate_apply(l, bt, i),
            )
        })
        .collect();
    let (costs, applies): (Vec<_>, Vec<_>) = estimates.into_iter().unzip();
    let slots: Vec<DeviceSlot> = devices.iter().map(|d| DeviceSlot::of(d)).collect();
    let plan = plan_hybrid(&costs, &applies, &slots, plan_opts);
    let gpu_idx = plan.indices_of(Formulation::ExplicitGpu);
    let cpu_idx = plan.indices_of(Formulation::ExplicitCpu);

    // the explicit-GPU share runs on the caller's own target; only its
    // readiness times are sliced to the share, checked here because the
    // device driver sees only that slice
    let mut gpu_backend = backend.clone();
    if let Some(opts) = gpu_backend.schedule_mut() {
        opts.assert_ready_at(factors.len());
        if let Some(ready) = opts.ready_at.as_mut() {
            *ready = gpu_idx.iter().map(|&g| ready[g]).collect();
        }
    }

    // one operator per subdomain; non-explicit ones stay `None` and apply
    // against the shared factor bundle
    let mut f: Vec<Option<SymPackedOf<f64>>> = factors.iter().map(|_| None).collect();

    // an explicit share: one session on the share's backend over the
    // subdomains the plan gave it
    let mut assemble_share = |idx: &[usize], share: Backend| -> Option<AssemblyReport> {
        if idx.is_empty() {
            return None;
        }
        let items: Vec<BatchItem> = idx.iter().map(|&g| factors[g].batch_item()).collect();
        let res = AssemblySession::new(share, *cfg).assemble(&items);
        for (&g, fg) in idx.iter().zip(res.f) {
            f[g] = Some(fg);
        }
        let mut rep = res.report;
        rep.remap_indices(idx);
        Some(rep)
    };
    // record/replay with arena admission — bitwise CPU-equal
    let gpu_report = assemble_share(&gpu_idx, gpu_backend);
    // explicit-CPU share (the spill fail-over for high iteration counts)
    // through a CPU session: the only route from over-arena subdomains to
    // host assembly
    let cpu_report = assemble_share(&cpu_idx, Backend::cpu().precision(backend.precision));

    // roll both shares up into the unified report: rows in problem-global
    // order, device sections from the device share, the plan in
    // the hybrid section
    let mut unified = gpu_report.unwrap_or_default();
    if let Some(c) = cpu_report {
        unified.subdomains.extend(c.subdomains);
        unified.total_seconds += c.total_seconds;
    }
    unified.subdomains.sort_by_key(|t| t.index);
    unified.precision = backend.precision;
    unified.hybrid = Some(plan);
    AssembledOperators::new(f, unified)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FetiOptions;
    use sc_fem::Gluing;
    use sc_gpu::Device;
    use sc_order::Ordering;

    /// Every subdomain of `prob` with its factor bundle, built the way the
    /// solver builds them.
    fn with_factors(prob: &HeatProblem) -> impl Iterator<Item = (&Subdomain, SubdomainFactors)> {
        let opts = FetiOptions::default();
        let all = SubdomainFactors::build_each(&prob.subdomains, opts.engine, opts.ordering);
        prob.subdomains.iter().zip(all)
    }

    /// `build_all` analyzes the two pattern classes of `K_reg` (subdomains on
    /// the Dirichlet boundary, floating ones) once each, and every bundle is
    /// bitwise the one an independent per-subdomain factorization gives.
    /// Every factor's `L` holds its class analysis's pattern allocation, and
    /// so do its `f32` demotion and its refactorizations.
    #[test]
    fn build_all_shares_one_analysis_per_class_bitwise() {
        let cases = [
            (
                HeatProblem::build_2d(16, (4, 4), Gluing::Redundant),
                Engine::Supernodal,
            ),
            (
                HeatProblem::build_3d(5, (2, 2, 2), Gluing::Redundant),
                Engine::Simplicial,
            ),
        ];
        for (prob, engine) in &cases {
            let all = SubdomainFactors::build_all(prob, *engine, Ordering::NestedDissection);
            let mut classes: Vec<&Arc<Analysis>> = Vec::new();
            for f in all.iter() {
                if !classes.iter().any(|c| Arc::ptr_eq(c, f.chol.analysis())) {
                    classes.push(f.chol.analysis());
                }
            }
            assert_eq!(classes.len(), 2, "{}D", prob.dim);
            for (i, (sd, f)) in prob.subdomains.iter().zip(all.iter()).enumerate() {
                let kreg = regularize_fixing_node(&sd.k, sd.kernel.as_deref(), sd.fixing_dof, None);
                let perm = Ordering::NestedDissection.compute(&kreg);
                let alone = SparseCholesky::factorize_with_perm(&kreg, perm, *engine).unwrap();
                let bt_perm = sd.bt.permute_rows(alone.perm());
                let closure = sc_sparse::RowClosure::of(alone.factor_csc_ref(), bt_perm.row_idx());
                let boundary_runs = alone.supernode_runs().restricted_to(&closure);
                let bits = |l: &Csc| l.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                let at = format!("{}D subdomain {i}", prob.dim);
                assert_eq!(f.chol.perm(), alone.perm(), "{at}");
                assert_eq!(
                    f.chol.factor_csc_ref().col_ptr(),
                    alone.factor_csc_ref().col_ptr(),
                    "{at}"
                );
                assert_eq!(
                    f.chol.factor_csc_ref().row_idx(),
                    alone.factor_csc_ref().row_idx(),
                    "{at}"
                );
                assert_eq!(
                    bits(f.chol.factor_csc_ref()),
                    bits(alone.factor_csc_ref()),
                    "{at}"
                );
                assert_eq!(f.bt_perm, bt_perm, "{at}");
                assert_eq!(f.boundary_runs, boundary_runs, "{at}");

                let shared = f.chol.symbolic().pattern();
                let l = f.chol.factor_csc_ref();
                assert!(Arc::ptr_eq(l.pattern(), shared), "{at}");
                assert!(Arc::ptr_eq(l.cast::<f32>().pattern(), shared), "{at}");
                let analysis = Arc::clone(f.chol.analysis());
                let mut again = SparseCholesky::factorize_with_analysis(&kreg, analysis).unwrap();
                again.refactorize(&kreg).unwrap();
                assert!(
                    Arc::ptr_eq(again.factor_csc_ref().pattern(), shared),
                    "{at}"
                );
                assert_eq!(bits(again.factor_csc_ref()), bits(l), "{at}");
            }
            let mut patterns: Vec<&Arc<sc_sparse::CscPattern>> = Vec::new();
            for f in all.iter() {
                let p = f.chol.factor_csc_ref().pattern();
                if !patterns.iter().any(|q| Arc::ptr_eq(q, p)) {
                    patterns.push(p);
                }
            }
            assert_eq!(patterns.len(), 2, "{}D: one L pattern per class", prob.dim);
        }
    }

    /// Every slot kind at precision `S` against the independent dense
    /// oracle `B̃ K_reg⁻¹ B̃ᵀ` (full matrix, no `sc_factor`) applied with a
    /// plain double loop, and the clock contract: a device slot advances
    /// its stream by exactly one SYMV cost per application, a host slot
    /// advances nothing.
    fn slots_match_the_dense_oracle<S: Scalar>(tol: f64) {
        let problems = [
            HeatProblem::build_2d(4, (2, 2), Gluing::Redundant),
            HeatProblem::build_3d(2, (2, 1, 1), Gluing::Redundant),
        ];
        for (sd, factors) in problems.iter().flat_map(with_factors) {
            let m = sd.n_lambda();
            let kreg = regularize_fixing_node(&sd.k, sd.kernel.as_deref(), sd.fixing_dof, None);
            let oracle = sc_core::assemble_sc_reference(&kreg, &sd.bt);
            // quarter-integers: exact at f32, so only the operator rounds
            let p: Vec<f64> = (0..m)
                .map(|i| ((i * 31 % 7) as f64) * 0.25 - 0.75)
                .collect();
            let want: Vec<f64> = (0..m)
                .map(|i| (0..m).map(|j| oracle[(i, j)] * p[j]).sum())
                .collect();
            let scale = want.iter().fold(0.0f64, |a, &b| a.max(b.abs()));

            let l = factors.chol.factor_csc_ref();
            let dense = || {
                let cfg = ScConfig::optimized(false, false);
                let f = sc_core::assemble_sc(&mut sc_core::CpuExec, l, &factors.bt_perm, &cfg);
                SymPackedOf::from_lower(f.as_ref()).cast::<S>()
            };
            let (l_s, map_s) = (
                l.cast::<S>(),
                BoundaryMapOf::of(&factors.bt_perm.cast::<S>()),
            );
            let view = || FactorView {
                l: &l_s,
                runs: &factors.boundary_runs,
                map: &map_s,
            };
            let dev = Device::new(DeviceSpec::a100(), 1);
            let twin = Device::new(DeviceSpec::a100(), 1);
            let slots: [(&str, LocalOp<S>); 3] = [
                ("implicit", LocalOp::Implicit),
                (
                    "dense host",
                    LocalOp::Dense {
                        f: Arc::new(dense()),
                        stream: None,
                    },
                ),
                (
                    "dense device",
                    LocalOp::Dense {
                        f: Arc::new(dense()),
                        stream: Some(dev.stream(0)),
                    },
                ),
            ];
            let ps: Vec<S> = p.iter().map(|&v| S::from_f64(v)).collect();
            let (mut t, mut w) = (Vec::new(), Vec::new());
            for (kind, slot) in &slots {
                for _ in 0..2 {
                    let mut q = vec![S::ZERO; m];
                    slot.apply(Some(view()), &ps, &mut q, &mut t, &mut w);
                    slot.charge();
                    for i in 0..m {
                        let got = q[i].to_f64();
                        assert!(
                            (got - want[i]).abs() <= tol * scale,
                            "{kind} row {i}: {got} vs oracle {}",
                            want[i]
                        );
                    }
                    if *kind == "dense device" {
                        twin.stream(0).submit(&KernelCost::symv_of::<S>(m));
                    }
                    assert_eq!(
                        dev.stream(0).time(),
                        twin.stream(0).time(),
                        "{kind}: stream clock after an application"
                    );
                }
            }
            assert!(dev.stream(0).time() > 0.0, "the device slot ran");
        }
    }

    #[test]
    fn every_slot_kind_matches_the_dense_oracle_at_f64_and_f32() {
        slots_match_the_dense_oracle::<f64>(1e-9);
        slots_match_the_dense_oracle::<f32>(1e-4);
    }

    #[test]
    fn hoisted_map_is_bitwise_the_sparse_formulation() {
        // the BoundaryMap fast path must reproduce the original
        // spmv → solve → spmv_t pipeline bit for bit, in 2D and 3D, for
        // every subdomain shape (corner, edge, interior)
        let problems = [
            HeatProblem::build_2d(4, (3, 2), Gluing::Redundant),
            HeatProblem::build_3d(2, (2, 2, 1), Gluing::Redundant),
        ];
        for prob in &problems {
            for (sd, factors) in with_factors(prob) {
                let m = sd.n_lambda();
                let n = sd.n_dofs();
                let p: Vec<f64> = (0..m).map(|i| ((i * 17 % 13) as f64) - 6.0).collect();
                // reference: the pre-hoist formulation through the Csc, on
                // the unrestricted sweeps
                let mut t = vec![0.0; n];
                factors.bt_perm.spmv(1.0, &p, 0.0, &mut t);
                factors.chol.solve_fwd_permuted(&mut t);
                factors.chol.solve_bwd_permuted(&mut t);
                let mut reference = vec![0.0; m];
                factors.bt_perm.spmv_t(1.0, &t, 0.0, &mut reference);

                let mut fast = vec![0.0; m];
                apply_implicit(&factors, &p, &mut fast);
                assert_eq!(fast, reference, "hoisted map diverged");

                // scratch reuse across applications must not leak state
                let (mut scratch, mut tail) = (vec![7.0; 3], vec![-3.0; 2 * n]);
                let mut again = vec![42.0; m];
                apply_implicit_with(&factors, &p, &mut again, &mut scratch, &mut tail);
                assert_eq!(again, reference, "scratch reuse diverged");
                assert_eq!(scratch.len(), n);
            }
        }
    }

    /// `BoundaryMapOf::gather` against `spmv_t` on a block with an empty
    /// column and columns of 1, 2 and 4 entries (the FEM builds only
    /// length 1), with coefficients whose sum depends on the order.
    fn gather_is_bitwise_spmv_t<S: Scalar>() {
        let mut coo = sc_sparse::Coo::new(6, 4);
        for (i, j, v) in [
            (2, 1, 1.0),
            (0, 2, -0.1),
            (5, 2, 0.7),
            (1, 3, 0.3),
            (2, 3, -1e-3),
            (3, 3, 1e3),
            (4, 3, -0.7),
        ] {
            coo.push(i, j, v);
        }
        let bt = coo.to_csc().cast::<S>();
        let t: Vec<S> = (0..6).map(|i| S::from_f64(0.1 + 1.3 * i as f64)).collect();
        let mut want = vec![S::from_f64(9.0); 4];
        bt.spmv_t(S::ONE, &t, S::ZERO, &mut want);
        let mut got = vec![S::from_f64(-9.0); 4];
        BoundaryMapOf::of(&bt).gather(&t, &mut got);
        assert_eq!(got, want, "{}", S::NAME);
    }

    #[test]
    fn gather_is_bitwise_spmv_t_at_f64_and_f32() {
        gather_is_bitwise_spmv_t::<f64>();
        gather_is_bitwise_spmv_t::<f32>();
    }

    /// The problems the pruning is checked on: every 2D and 3D corner/edge
    /// subdomain shape, and the interior subdomain of a 3 × 3 × 3 grid (all
    /// six faces glued).
    fn pruning_problems() -> [HeatProblem; 3] {
        [
            HeatProblem::build_2d(4, (3, 2), Gluing::Redundant),
            HeatProblem::build_3d(2, (2, 2, 1), Gluing::Redundant),
            HeatProblem::build_3d(2, (3, 3, 3), Gluing::Redundant),
        ]
    }

    /// Eq. 11's sweeps over the boundary-restricted runs against the same
    /// sweeps over the whole factor, at precision `S`: the forward result is
    /// the same vector (the skipped columns are exact zeros), the backward
    /// result the same bits at every row `B̃` gathers.
    fn restricted_sweeps_match_the_unrestricted_ones<S: Scalar>() {
        for (sd, factors) in pruning_problems().iter().flat_map(with_factors) {
            let l = factors.chol.factor_csc_ref().cast::<S>();
            let map = BoundaryMapOf::of(&factors.bt_perm.cast::<S>());
            let full = factors.chol.supernode_runs();
            let p: Vec<S> = (0..sd.n_lambda())
                .map(|i| S::from_f64(((i * 17 % 13) as f64) * 0.25 - 1.5))
                .collect();
            let mut pruned = vec![S::ZERO; sd.n_dofs()];
            map.scatter(&p, &mut pruned);
            let mut whole = pruned.clone();
            let mut w = Vec::new();

            supernodal_lower_solve(&l, &factors.boundary_runs, &mut pruned, &mut w);
            supernodal_lower_solve(&l, full, &mut whole, &mut w);
            assert_eq!(pruned, whole, "forward sweep");
            supernodal_lower_t_solve(&l, &factors.boundary_runs, &mut pruned, &mut w);
            supernodal_lower_t_solve(&l, full, &mut whole, &mut w);
            for &i in factors.bt_perm.row_idx() {
                assert_eq!(pruned[i], whole[i], "backward sweep at boundary row {i}");
            }
        }
    }

    #[test]
    fn pruned_sweeps_are_bitwise_the_full_ones_at_boundary_rows() {
        restricted_sweeps_match_the_unrestricted_ones::<f64>();
        restricted_sweeps_match_the_unrestricted_ones::<f32>();
    }

    /// Share of the problem's `nnz(L)` in the columns Eq. 11 sweeps.
    fn swept_share(problem: &HeatProblem) -> f64 {
        let (mut swept, mut nnz) = (0, 0);
        for (_, factors) in with_factors(problem) {
            let col_ptr = factors.chol.factor_csc_ref().col_ptr();
            let visited = factors.boundary_runs.visited();
            swept += visited
                .map(|cols| col_ptr[cols.end] - col_ptr[cols.start])
                .sum::<usize>();
            nnz += factors.chol.factor_nnz();
        }
        swept as f64 / nnz as f64
    }

    #[test]
    fn boundary_closure_prunes_what_it_did_when_measured() {
        // loose pins on the benchmark's two solver meshes under the default
        // ordering (measured 0.84 and 0.41): an ordering change that numbers
        // the interior last — every column then an ancestor of a boundary
        // row — would silently turn the pruning off
        let share = swept_share(&HeatProblem::build_3d(12, (2, 2, 2), Gluing::Redundant));
        assert!((0.7..0.92).contains(&share), "3D c12 sweeps {share}");
        let share = swept_share(&HeatProblem::build_2d(64, (4, 4), Gluing::Redundant));
        assert!((0.3..0.5).contains(&share), "2D c64 sweeps {share}");
    }
}
