//! The local dual operator `F̃ᵢ = B̃ᵢ K⁺ᵢ B̃ᵢᵀ` (paper Eq. 9): the factor
//! bundle it is built from, the one slot type (`LocalOp`) for its implicit
//! (Eq. 11) and explicit (Eq. 12) forms, the producers that bind assembled
//! matrices to slots, and the one global pass (`DualPass`) that applies a
//! vector of slots to a global dual vector.

use crate::regularize::regularize_fixing_node;
use rayon::prelude::*;
use sc_core::{
    estimate_apply, estimate_cost, plan_hybrid, AssemblyReport, AssemblySession, Backend,
    DeviceSlot, Formulation, HybridPlanOptions, HybridSummary, LazyBatch, ScConfig,
    ScheduleOptions, Target,
};
use sc_dense::{Mat, Scalar, SymPackedOf};
use sc_factor::{Engine, SparseCholesky};
use sc_fem::{HeatProblem, Subdomain};
use sc_gpu::{DevicePool, KernelCost, Stream};
use sc_sparse::{supernodal_lower_solve, supernodal_lower_t_solve, Csc, CscOf, SupernodeRuns};
use std::borrow::Cow;
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
    /// The factor's supernode runs restricted to the elimination-tree
    /// closure of `bt_perm`'s rows: `L⁻¹ B̃ᵀ p̃` is zero outside it and
    /// `B̃ L⁻ᵀ` reads nothing outside it, so Eq. 11 sweeps only these columns
    /// (the sparsity of `B̃` again, on the implicit path).
    pub boundary_runs: SupernodeRuns,
}

impl SubdomainFactors {
    /// Regularize and factorize one subdomain.
    pub fn build(sd: &Subdomain, engine: Engine, ordering: sc_order::Ordering) -> Self {
        let kreg = regularize_fixing_node(&sd.k, sd.kernel.as_deref(), sd.fixing_dof, None);
        let perm = ordering.compute(&kreg);
        let chol = SparseCholesky::factorize_with_perm(&kreg, perm, engine)
            .expect("regularized subdomain matrix must be SPD");
        let bt_perm = sd.bt.permute_rows(chol.perm());
        let map = BoundaryMap::of(&bt_perm);
        let boundary_runs = chol
            .supernode_runs()
            .restricted_to(chol.factor_csc_ref(), bt_perm.row_idx());
        SubdomainFactors {
            chol,
            bt_perm,
            map,
            boundary_runs,
        }
    }

    /// [`build`](Self::build) over every subdomain of `problem` in parallel
    /// (the paper's loop over the cluster's subdomains, one thread per
    /// subdomain) — the crate's one factorization loop.
    pub fn build_all(
        problem: &HeatProblem,
        engine: Engine,
        ordering: sc_order::Ordering,
    ) -> Arc<Vec<Self>> {
        let build = |sd| SubdomainFactors::build(sd, engine, ordering);
        Arc::new(problem.subdomains.par_iter().map(build).collect())
    }

    /// `K⁺ v` in original dof space.
    pub fn solve_kplus(&self, v: &[f64]) -> Vec<f64> {
        self.chol.solve(v)
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
        /// The assembled local dual operator: its lower triangle, packed.
        f: SymPackedOf<S>,
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
            LocalOp::Dense { f, .. } => sc_dense::symv(f, p, out),
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

/// Bind each assembled `F̃ᵢ` to its operator slot, packed to its lower
/// triangle: subdomains the report placed on a device get a device-resident
/// operator on the stream their schedule used; host subdomains (CPU
/// backend, hybrid spills) get a host one.
pub(crate) fn bind_ops(f: Vec<Mat>, report: &AssemblyReport, backend: &Backend) -> Vec<LocalOp> {
    let devices = backend.devices();
    f.into_iter()
        .enumerate()
        .map(|(i, f)| {
            let t = &report.subdomains[i];
            debug_assert_eq!(t.index, i, "report timings must be in batch order");
            let stream = match (t.device, t.stream) {
                (Some(d), Some(s)) => Some(devices[d].stream(s)),
                _ => None,
            };
            let f = SymPackedOf::from_lower(f.as_ref());
            LocalOp::Dense { f, stream }
        })
        .collect()
}

/// The auto (hybrid) formulation: per-subdomain explicit-vs-implicit
/// decision under the §4.4 cost model, explicit shares assembled through
/// sessions on the backend, reports merged into one [`AssemblyReport`]
/// (problem-global indices).
pub(crate) fn assemble_auto(
    factors: &[SubdomainFactors],
    cfg: &ScConfig,
    backend: &Backend,
    plan_opts: &HybridPlanOptions,
) -> (Vec<LocalOp>, AssemblyReport) {
    // the pool the explicit-GPU share may run on: every device of the
    // backend, flat (the per-subdomain decision layer prices no
    // interconnect: the explicit share's placement is intra-node here) — an
    // empty pool on the host
    let pool = DevicePool::from_devices(backend.devices());
    let cluster_opts = match &backend.target {
        Target::Gpu { schedule: opts, .. }
        | Target::Cluster { opts, .. }
        | Target::Hybrid { opts, .. }
        | Target::MultiNode { opts, .. } => opts.clone(),
        _ => ScheduleOptions::default(),
    };

    // decision layer: analytic assembly + per-iteration apply estimates per
    // subdomain
    let ref_spec = if pool.is_empty() {
        plan_opts.host.clone()
    } else {
        pool.device(0).spec().clone()
    };
    let estimates: Vec<(sc_core::CostEstimate, sc_core::ApplyEstimate)> = factors
        .par_iter()
        .enumerate()
        .map(|(i, f)| {
            let l = f.chol.factor_csc_ref();
            let bt = &f.bt_perm;
            let params = cfg.resolve(!pool.is_empty(), l, bt);
            (
                estimate_cost(&ref_spec, l, bt, &params, i),
                estimate_apply(l, bt, i),
            )
        })
        .collect();
    let (costs, applies): (Vec<_>, Vec<_>) = estimates.into_iter().unzip();
    let slots: Vec<DeviceSlot> = pool.devices().iter().map(|d| DeviceSlot::of(d)).collect();
    let plan = plan_hybrid(&costs, &applies, &slots, plan_opts);
    let gpu_idx = plan.indices_of(Formulation::ExplicitGpu);
    let cpu_idx = plan.indices_of(Formulation::ExplicitCpu);

    // one slot per subdomain; non-explicit ones apply against the shared
    // factor bundle
    let mut ops: Vec<LocalOp> = factors.iter().map(|_| LocalOp::Implicit).collect();

    // an explicit share: one session on the share's backend over the
    // subdomains the plan gave it, slots bound by the share's report
    let mut assemble_share = |idx: &[usize], share: Backend| -> Option<AssemblyReport> {
        if idx.is_empty() {
            return None;
        }
        let items: Vec<&SubdomainFactors> = idx.iter().map(|&g| &factors[g]).collect();
        let res = AssemblySession::new(share.clone(), *cfg).assemble(LazyBatch::new(
            &items,
            |_, f: &&SubdomainFactors| Cow::Borrowed(f.chol.factor_csc_ref()),
            |f| &f.bt_perm,
        ));
        for (&g, op) in idx.iter().zip(bind_ops(res.f, &res.report, &share)) {
            ops[g] = op;
        }
        let mut rep = res.report;
        rep.remap_indices(idx);
        Some(rep)
    };
    // explicit-GPU share through a cluster session (two-level plan, arena
    // admission, record/replay — bitwise CPU-equal)
    let mut share_opts = cluster_opts.clone();
    share_opts.ready_at = cluster_opts
        .ready_at
        .as_ref()
        .map(|r| gpu_idx.iter().map(|&g| r[g]).collect());
    let gpu_report = assemble_share(
        &gpu_idx,
        Backend::cluster_with(Arc::clone(&pool), share_opts).precision(backend.precision),
    );
    // explicit-CPU share (the spill fail-over for high iteration counts)
    // through a CPU session
    let cpu_report = assemble_share(&cpu_idx, Backend::cpu().precision(backend.precision));

    // roll both shares up into the unified report: timings in problem-global
    // order, device sections from the pool share, decisions in the hybrid
    // block
    let predicted_assembly_seconds: f64 = plan
        .choices
        .iter()
        .filter(|c| c.formulation != Formulation::Implicit)
        .map(|c| c.assembly_seconds)
        .sum();
    let mut unified = AssemblyReport::default();
    for rep in [&gpu_report, &cpu_report].into_iter().flatten() {
        unified.subdomains.extend(rep.subdomains.iter().copied());
        unified.total_seconds += rep.total_seconds;
        unified.cache_hits += rep.cache_hits;
        unified.cache_misses += rep.cache_misses;
    }
    if let Some(g) = &gpu_report {
        unified.devices = g.devices.clone();
        unified.makespan = g.makespan;
    }
    unified.subdomains.sort_by_key(|t| t.index);
    unified.precision = backend.precision;
    unified.hybrid = Some(HybridSummary {
        formulation: plan.choices.iter().map(|c| c.formulation).collect(),
        spilled: plan.spilled.clone(),
        plan: Some(plan),
        predicted_assembly_seconds,
        realized_gpu_seconds: gpu_report.as_ref().map_or(0.0, |g| g.makespan),
        realized_cpu_seconds: cpu_report.as_ref().map_or(0.0, |c| c.total_seconds),
        arena_high_water: gpu_report.as_ref().map_or(0, |g| g.temp_high_water()),
        precision: backend.precision,
    });
    (ops, unified)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FetiOptions;
    use sc_fem::Gluing;
    use sc_gpu::{Device, DeviceSpec};
    use sc_order::Ordering;

    fn factors_for(sd: &sc_fem::Subdomain) -> SubdomainFactors {
        SubdomainFactors::build(
            sd,
            FetiOptions::default().engine,
            Ordering::NestedDissection,
        )
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
        for sd in problems.iter().flat_map(|prob| &prob.subdomains) {
            let factors = factors_for(sd);
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
                        f: dense(),
                        stream: None,
                    },
                ),
                (
                    "dense device",
                    LocalOp::Dense {
                        f: dense(),
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
            for sd in &prob.subdomains {
                let factors = factors_for(sd);
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

    /// The subdomain shapes the pruning is checked on: every 2D and 3D
    /// corner/edge shape, and the interior subdomain of a 3 × 3 × 3 grid
    /// (all six faces glued).
    fn pruning_subdomains() -> Vec<Subdomain> {
        let mut sds = HeatProblem::build_2d(4, (3, 2), Gluing::Redundant).subdomains;
        sds.extend(HeatProblem::build_3d(2, (2, 2, 1), Gluing::Redundant).subdomains);
        sds.push(
            HeatProblem::build_3d(2, (3, 3, 3), Gluing::Redundant)
                .subdomains
                .swap_remove(13),
        );
        sds
    }

    /// Eq. 11's sweeps over the boundary-restricted runs against the same
    /// sweeps over the whole factor, at precision `S`: the forward result is
    /// the same vector (the skipped columns are exact zeros), the backward
    /// result the same bits at every row `B̃` gathers.
    fn restricted_sweeps_match_the_unrestricted_ones<S: Scalar>() {
        for sd in pruning_subdomains() {
            let factors = factors_for(&sd);
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
        for sd in &problem.subdomains {
            let factors = factors_for(sd);
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
