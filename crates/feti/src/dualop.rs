//! The local dual operator `F̃ᵢ = B̃ᵢ K⁺ᵢ B̃ᵢᵀ` (paper Eq. 9): the factor
//! bundle it is built from, the one slot type (`LocalOp`) for its implicit
//! (Eq. 11) and explicit (Eq. 12) forms, the producers that bind assembled
//! matrices to slots, and the one global pass (`DualPass`) that applies a
//! vector of slots to a global dual vector.
//!
//! The explicit form is assembled on the distinct glued dofs, not on the
//! multipliers. Every column of `B̃ᵢᵀ` holds one entry, and under redundant
//! gluing an edge or corner dof carries several multipliers, so `B̃ᵢᵀ`
//! repeats columns up to sign. It factors as `B̃ᵢᵀ = P̂ᵢᵀ Cᵢᵀ`: `P̂ᵢᵀ` is one
//! unit column per distinct glued dof, `Cᵢ` (`m × nb`) holds each
//! multiplier's coefficient at its dof's index. The assembly builds
//! `Gᵢ = P̂ᵢ K⁺ᵢ P̂ᵢᵀ` of order `nb ≤ m`, and a slot applies
//! `F̃ᵢ = Cᵢ Gᵢ Cᵢᵀ` as gather → SYMV of order `nb` → scatter. The implicit
//! form applies the same `Cᵢ Gᵢ Cᵢᵀ`, with Eq. 11's two triangular sweeps in
//! place of the SYMV.

use crate::regularize::regularize_fixing_node;
use rayon::prelude::*;
use sc_core::{
    estimate_apply, estimate_cost, plan_hybrid, AssemblyReport, AssemblySession, AssemblyShape,
    Backend, BatchEntry, DeviceSlot, Formulation, HybridPlanOptions, ScConfig,
};
use sc_dense::{Scalar, SymPackedOf};
use sc_factor::{Analysis, Engine, SparseCholesky};
use sc_fem::{HeatProblem, Subdomain};
use sc_gpu::{DeviceSpec, KernelCost, Stream};
use sc_sparse::{supernodal_lower_solve, supernodal_lower_t_solve, Csc, CscOf, SupernodeRuns};
use std::borrow::Cow;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex};

/// The gather/scatter of a gluing block with one entry per column, read in
/// place: column `j` owns its stored rows and coefficients (the ±1 boundary
/// signs). Every local operator maps the multipliers to its distinct glued
/// dofs over the bundle's `Cᵢᵀ` ([`SubdomainFactors::ct`]) with direct
/// indexed loops over the block's own arrays, instead of the sparse-matrix
/// machinery. The block is the `f64` one at every working precision `S`:
/// each coefficient is converted with `S::from_f64` where it is read, as
/// [`CscOf::cast`] would, so a demoted application reads the same block.
#[derive(Clone, Copy)]
pub struct BoundaryMap<'a> {
    /// The gluing block.
    bt: &'a Csc,
}

impl<'a> BoundaryMap<'a> {
    /// The map of a gluing block.
    pub fn of(bt: &'a Csc) -> Self {
        BoundaryMap { bt }
    }

    /// Local multiplier count.
    pub fn n_lambda(&self) -> usize {
        self.bt.ncols()
    }

    /// Row count of the block.
    pub fn n_rows(&self) -> usize {
        self.bt.nrows()
    }

    /// Scatter `t = B̃ᵀ p̃` into the (pre-zeroed) vector `t` — bitwise
    /// identical to `spmv(1.0, p, 0.0, t)` on the block cast to `S` on finite
    /// input: the products of a zero `p̃ⱼ` that `spmv` skips are signed zeros,
    /// and adding one leaves every entry of `t` as it was (a `+0` stays `+0`).
    pub fn scatter<S: Scalar>(&self, p: &[S], t: &mut [S]) {
        debug_assert_eq!(p.len(), self.n_lambda());
        debug_assert_eq!(t.len(), self.n_rows());
        let (offsets, rows, coeffs) = (self.bt.col_ptr(), self.bt.row_idx(), self.bt.values());
        for (j, &pj) in p.iter().enumerate() {
            for k in offsets[j]..offsets[j + 1] {
                t[rows[k]] += pj * S::from_f64(coeffs[k]);
            }
        }
    }

    /// Gather `out = B̃ t` — bitwise identical to `spmv_t(1.0, t, 0.0, out)`
    /// on the block cast to `S`: one dot product per multiplier, accumulated
    /// in stored order.
    pub fn gather<S: Scalar>(&self, t: &[S], out: &mut [S]) {
        debug_assert_eq!(out.len(), self.n_lambda());
        debug_assert_eq!(t.len(), self.n_rows());
        let (offsets, rows, coeffs) = (self.bt.col_ptr(), self.bt.row_idx(), self.bt.values());
        for (j, o) in out.iter_mut().enumerate() {
            let mut s = S::ZERO;
            for k in offsets[j]..offsets[j + 1] {
                s += S::from_f64(coeffs[k]) * t[rows[k]];
            }
            *o = s;
        }
    }
}

/// Per-subdomain factorization bundle: the regularized factor, `B̃ᵢᵀ`
/// pre-permuted into factor row space and its split `P̂ᵢᵀ Cᵢᵀ` over the
/// distinct glued dofs, the assembly's shape, and the part of the factor a
/// boundary right-hand side can reach, which the implicit application
/// reuses across PCPG iterations. A bundle is a [`BatchEntry`] of the
/// explicit assembly: its gluing block is `P̂ᵢᵀ`, so every explicit producer
/// assembles `Gᵢ = P̂ᵢ K⁺ᵢ P̂ᵢᵀ`, and every operator slot applies
/// `Cᵢ Gᵢ Cᵢᵀ` through the one split.
pub struct SubdomainFactors {
    /// Factorized `K_reg`.
    pub chol: SparseCholesky,
    /// `B̃ᵢᵀ` with rows in the factor's permuted space, split into
    /// `pt_perm` and `ct` at construction. No apply path reads it: it stays
    /// for callers that assemble or price on the multipliers.
    pub bt_perm: Csc,
    /// `P̂ᵢᵀ` (`n × nb`): one unit column per distinct row of `bt_perm`,
    /// in ascending factor order.
    pub pt_perm: Csc,
    /// `Cᵢᵀ` (`nb × m`): `bt_perm` with each row renumbered to its column
    /// of `pt_perm`, so that `bt_perm = pt_perm · ct`.
    pub ct: Csc,
    /// The pattern data of the explicit assembly of `(L, pt_perm)`: the
    /// closure of the glued rows and the stepped permutation.
    pub shape: AssemblyShape,
    /// The factor's supernode runs restricted to the shape's closure, the
    /// one the explicit assembly solves on: Eq. 11 sweeps only these
    /// columns (the sparsity of `B̃` again, on the implicit path).
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
            let (pt_perm, ct) = split_gluing(&bt_perm);
            let shape = AssemblyShape::of(chol.factor_csc_ref(), &pt_perm);
            let boundary_runs = chol.supernode_runs().restricted_to(shape.closure());
            SubdomainFactors {
                chol,
                bt_perm,
                pt_perm,
                ct,
                shape,
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
}

/// Split a gluing block `bt` (`n × m`) as `bt = pt · ct` over its distinct
/// rows: `pt` (`n × nb`) has one unit column per distinct row, ascending,
/// and `ct` (`nb × m`) is `bt` with each row renumbered to its column of
/// `pt` (same column pointers, same coefficients).
fn split_gluing(bt: &Csc) -> (Csc, Csc) {
    let mut rows = bt.row_idx().to_vec();
    rows.sort_unstable();
    rows.dedup();
    let nb = rows.len();
    let mut rank = vec![0; bt.nrows()];
    for (k, &r) in rows.iter().enumerate() {
        rank[r] = k;
    }
    let ct_rows = bt.row_idx().iter().map(|&r| rank[r]).collect();
    let ct = Csc::from_parts(
        nb,
        bt.ncols(),
        bt.col_ptr().to_vec(),
        ct_rows,
        bt.values().to_vec(),
    );
    let pt = Csc::from_parts(bt.nrows(), nb, (0..=nb).collect(), rows, vec![1.0; nb]);
    (pt, ct)
}

impl BatchEntry for SubdomainFactors {
    fn factor(&self) -> &Csc {
        self.chol.factor_csc_ref()
    }

    fn gluing(&self) -> &Csc {
        &self.pt_perm
    }

    fn shape(&self) -> Cow<'_, AssemblyShape> {
        Cow::Borrowed(&self.shape)
    }
}

/// [`apply_implicit_with`] at `f64` on fresh work vectors — a convenience
/// for tests and one-off applications; no library path calls it.
pub fn apply_implicit(factors: &SubdomainFactors, p: &[f64], out: &mut [f64]) {
    let l = factors.chol.factor_csc_ref();
    apply_implicit_with(factors, l, p, out, &mut LocalScratch::default());
}

/// Implicit application `q̃ = Cᵢ P̂ᵢ L⁻ᵀ L⁻¹ P̂ᵢᵀ Cᵢᵀ p̃` (paper Eq. 11 on the
/// distinct glued dofs) at working precision `S` against the factor `l` —
/// the bundle's own at `f64`, its demotion at `f32` — and the bundle's
/// gluing split. It is the local step of an implicit operator slot: the
/// scratch's capacities persist across calls, so the per-iteration cost is
/// the two sweeps plus the indexed gather, placement and scatter.
pub fn apply_implicit_with<S: Scalar>(
    factors: &SubdomainFactors,
    l: &CscOf<S>,
    p: &[S],
    out: &mut [S],
    scratch: &mut LocalScratch<S>,
) {
    LocalOp::Implicit.apply(factors, Some(l), p, out, scratch);
}

/// The work vectors of one local application `Cᵢ Gᵢ Cᵢᵀ` at precision `S`
/// (or of the lumped preconditioner's `Cᵢ K_bb,i Cᵢᵀ`): contents are
/// overwritten by every application, capacities persist.
#[derive(Default)]
pub struct LocalScratch<S> {
    /// `p_b = Cᵢᵀ p̃` on the distinct glued dofs.
    pub(crate) pb: Vec<S>,
    /// `y = Gᵢ p_b` (or `K_bb,i p_b`).
    pub(crate) y: Vec<S>,
    /// Eq. 11's dof-space vector.
    t: Vec<S>,
    /// Eq. 11's supernode tail.
    w: Vec<S>,
}

/// `out = Cᵢ A Cᵢᵀ p` through the bundle's one gluing split, `ct` = `Cᵢᵀ`:
/// gather `p_b = Cᵢᵀ p̃` into `pb`, let `a` write `y = A p_b` (both of
/// order `nb`), scatter `out = Cᵢ y`. Every local operation on the glued
/// dofs runs through it: both operator slots ([`LocalOp::apply`], `A = Gᵢ`)
/// and the lumped preconditioner (`A = K_bb,i`).
pub(crate) fn through_split<S: Scalar>(
    ct: &Csc,
    p: &[S],
    out: &mut [S],
    pb: &mut Vec<S>,
    y: &mut Vec<S>,
    a: impl FnOnce(&[S], &mut [S]),
) {
    let map = BoundaryMap::of(ct);
    pb.clear();
    pb.resize(map.n_rows(), S::ZERO);
    map.scatter(p, pb);
    y.resize(map.n_rows(), S::ZERO);
    a(pb, y);
    map.gather(y, out);
}

/// `Kᵢ`'s block `K_bb` on the distinct glued dofs (`nb × nb`), rows and
/// columns numbered by `Cᵢᵀ`'s rows (the glued dofs in factor order). Row
/// `b` holds the entries `Kᵢ[r, j]` of glued dof `r` against every glued
/// `j`, in `Kᵢ`'s own column order: not a [`Csc`], whose rows are sorted.
pub(crate) struct GluedBlock {
    /// Row `b`'s entries are `at[offsets[b]..offsets[b + 1]]`.
    offsets: Vec<usize>,
    /// (glued column, value) of each stored entry.
    at: Vec<(usize, f64)>,
}

impl GluedBlock {
    /// The block of `k` (in the subdomain's own dof order) on the glued dofs
    /// of bundle `f`.
    pub(crate) fn of(k: &Csc, f: &SubdomainFactors) -> Self {
        // glued index of each dof, `None` off the gluing
        let mut glued = vec![None; k.ncols()];
        for (b, &r) in f.pt_perm.row_idx().iter().enumerate() {
            glued[f.chol.perm().old_of_new(r)] = Some(b);
        }
        // the entries among glued dofs in `k`'s column order; a stable sort
        // by row keeps each row's entries in that order
        let mut entries = Vec::new();
        for (j, c) in (glued.iter().enumerate()).filter_map(|(j, c)| c.map(|c| (j, c))) {
            let (rows, vals) = k.col(j);
            for (&r, &v) in rows.iter().zip(vals) {
                if let Some(b) = glued[r] {
                    entries.push((b, c, v));
                }
            }
        }
        entries.sort_by_key(|&(b, _, _)| b);
        let mut offsets = vec![0; f.ct.nrows() + 1];
        for &(b, _, _) in &entries {
            offsets[b + 1] += 1;
        }
        for b in 0..f.ct.nrows() {
            offsets[b + 1] += offsets[b];
        }
        let at = entries.into_iter().map(|(_, c, v)| (c, v)).collect();
        GluedBlock { offsets, at }
    }

    /// `y = K_bb p_b`, one dot per glued dof in stored order: bitwise the
    /// rows of `Kᵢ x` on the glued dofs for `x` = `p_b` placed on them and
    /// zero elsewhere, since [`Csc::spmv`] skips zero entries of `x` and
    /// sums the rest in column order.
    pub(crate) fn apply(&self, pb: &[f64], y: &mut [f64]) {
        for (b, yb) in y.iter_mut().enumerate() {
            let row = &self.at[self.offsets[b]..self.offsets[b + 1]];
            let mut s = 0.0;
            for &(c, v) in row {
                s += v * pb[c];
            }
            *yb = s;
        }
    }
}

/// One subdomain's ready-to-apply local dual operator at working precision
/// `S` — the crate's only operator slot type: every producer fills a `Vec`
/// of these and [`DualPass`] applies it. Both kinds apply `Cᵢ Gᵢ Cᵢᵀ`
/// through the bundle's split; the slot only says how `Gᵢ` is applied.
pub(crate) enum LocalOp<S = f64> {
    /// Eq. 12: the assembled `Gᵢ`, applied with one SYMV of order `nb`.
    Dense {
        /// The assembled `Gᵢ = P̂ᵢ K⁺ᵢ P̂ᵢᵀ`: its lower triangle, packed,
        /// shared with every build that reuses it ([`AssembledOperators`]).
        g: Arc<SymPackedOf<S>>,
        /// `Some`: the triangle is resident on that simulated stream, whose
        /// clock every application advances by the SYMV's cost
        /// ([`LocalOp::charge`]).
        stream: Option<Stream>,
    },
    /// Eq. 11: `p_b` placed on `P̂ᵢᵀ`'s rows, the two sweeps over
    /// [`SubdomainFactors::boundary_runs`], those rows read back. The slot
    /// owns no factor: the caller supplies it, so nothing is factorized or
    /// copied twice.
    Implicit,
}

impl<S: Scalar> LocalOp<S> {
    /// `out = Cᵢ Gᵢ Cᵢᵀ p` on subdomain `f` — the numerics only, safe to run
    /// on any worker thread: a device-resident slot's simulated cost is
    /// charged separately ([`LocalOp::charge`]). `l` is the factor at `S`
    /// (`Implicit` needs it, `Dense` ignores it).
    pub(crate) fn apply(
        &self,
        f: &SubdomainFactors,
        l: Option<&CscOf<S>>,
        p: &[S],
        out: &mut [S],
        scratch: &mut LocalScratch<S>,
    ) {
        let LocalScratch { pb, y, t, w } = scratch;
        through_split(&f.ct, p, out, pb, y, |pb, y| match self {
            LocalOp::Dense { g, .. } => sc_dense::symv(g.as_ref(), pb, y),
            LocalOp::Implicit => {
                let l = l.expect("an implicit slot comes with its factor");
                let glued = f.pt_perm.row_idx();
                t.clear();
                t.resize(l.nrows(), S::ZERO);
                for (&r, &v) in glued.iter().zip(pb) {
                    t[r] = v;
                }
                supernodal_lower_solve(l, &f.boundary_runs, t, w);
                supernodal_lower_t_solve(l, &f.boundary_runs, t, w);
                for (yi, &r) in y.iter_mut().zip(glued) {
                    *yi = t[r];
                }
            }
        });
    }

    /// Bytes of operator storage the slot owns (none for an implicit one);
    /// the pattern names every field, so a new one must be counted here.
    #[cfg(test)]
    pub(crate) fn held_bytes(&self) -> usize {
        match self {
            LocalOp::Dense { g, stream: _ } => std::mem::size_of_val(g.data()),
            LocalOp::Implicit => 0,
        }
    }

    /// The SYMV of one dense application, `None` for an implicit slot.
    fn symv_cost(&self) -> Option<(KernelCost, &Stream)> {
        match self {
            LocalOp::Dense {
                g,
                stream: Some(stream),
                ..
            } => Some((KernelCost::symv_of::<S>(g.nrows()), stream)),
            _ => None,
        }
    }

    /// Advance a device-resident slot's stream by the cost of one
    /// application (one SYMV of order `nb`); a host slot charges nothing.
    /// The device has one slot heap shared by its streams, so the simulated
    /// clock depends on the order of submissions: callers charge from one
    /// thread, in subdomain-index order.
    pub(crate) fn charge(&self) {
        if let Some((symv, stream)) = self.symv_cost() {
            stream.submit(&symv);
        }
    }

    /// Advance a device-resident slot's stream by the H2D upload of its
    /// packed triangle; a host slot charges nothing. Same ordering contract
    /// as [`LocalOp::charge`].
    pub(crate) fn upload(&self) {
        if let Some((symv, stream)) = self.symv_cost() {
            // the SYMV reads exactly the packed triangle's bytes
            stream.submit(&KernelCost::transfer(symv.bytes));
        }
    }
}

/// A worker's scratch of the [`DualPass`]: contents are overwritten by every
/// local operation, capacities persist.
#[derive(Default)]
pub(crate) struct Scratch<S> {
    /// The gathered local dual vector `λ̃ᵢ`.
    pub(crate) pl: Vec<S>,
    /// The work vectors of the local operation.
    pub(crate) local: LocalScratch<S>,
}

/// The one global application loop: gather `λ̃ᵢ` from the global dual vector
/// → a local operation per subdomain (in parallel) → scatter-add the local
/// results. The scatter-add runs sequentially in subdomain-index order, so
/// the sum at every shared multiplier is the same on any thread count.
///
/// Each worker takes one contiguous chunk of subdomains and one set of
/// scratch for the whole chunk. An operator application ([`Self::apply_ops`])
/// walks its chunk forward on even applications and backward on odd ones,
/// so the triangles a worker read last are still in its cache when the next
/// application starts; results come back in subdomain order either way.
///
/// The per-subdomain result vectors sit behind one lock held for the whole
/// pass: concurrent passes on one solver serialize instead of sharing
/// buffers. Scratch comes from a pool whose capacities persist across
/// passes. A poisoned lock is recovered: every pass overwrites what it reads.
pub(crate) struct DualPass<S> {
    ql: Mutex<Vec<Vec<S>>>,
    pool: Mutex<Vec<Scratch<S>>>,
    /// Operator applications so far: odd ones walk backward.
    applications: AtomicUsize,
}

impl<S: Scalar> DualPass<S> {
    /// Allocate the result vectors of `problem`'s subdomains.
    pub(crate) fn new(problem: &HeatProblem) -> Self {
        let subdomains = problem.subdomains.iter();
        let ql = subdomains.map(|sd| vec![S::ZERO; sd.n_lambda()]);
        DualPass {
            ql: Mutex::new(ql.collect()),
            pool: Mutex::new(Vec::new()),
            applications: AtomicUsize::new(0),
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
        self.run_walk(problem, p, q, false, local)
    }

    /// [`Self::run`], each worker walking its chunk backward if `backward`.
    fn run_walk<R: Send>(
        &self,
        problem: &HeatProblem,
        p: Option<&[S]>,
        q: Option<&mut [S]>,
        backward: bool,
        local: impl Fn(usize, &Subdomain, &mut Scratch<S>, &mut [S]) -> R + Sync + Send,
    ) -> Vec<R> {
        let pool = || self.pool.lock().unwrap_or_else(|e| e.into_inner());
        let subdomains = &problem.subdomains;
        let mut results = self.ql.lock().unwrap_or_else(|e| e.into_inner());
        let n = subdomains.len();
        let chunk = n
            .div_ceil(rayon::current_num_threads().clamp(1, n.max(1)))
            .max(1);
        let chunks: Vec<(usize, &mut [Vec<S>])> = results
            .chunks_mut(chunk)
            .enumerate()
            .map(|(c, qls)| (c * chunk, qls))
            .collect();
        let out: Vec<Vec<R>> = chunks
            .into_par_iter()
            .map(|(lo, qls)| {
                let mut w = pool().pop().unwrap_or_default();
                let mut one = |(k, ql): (usize, &mut Vec<S>)| {
                    let (i, sd) = (lo + k, &subdomains[lo + k]);
                    w.pl.clear();
                    if let Some(p) = p {
                        w.pl.extend(sd.lambda_ids.iter().map(|&gl| p[gl]));
                    }
                    local(i, sd, &mut w, ql)
                };
                let walk = qls.iter_mut().enumerate();
                let r: Vec<R> = if backward {
                    let mut r: Vec<R> = walk.rev().map(&mut one).collect();
                    r.reverse();
                    r
                } else {
                    walk.map(&mut one).collect()
                };
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
        out.into_iter().flatten().collect()
    }

    /// `q = F p`: the pass with each subdomain's slot as the local
    /// operation, on its bundle in `factors` and `l(i)` its factor at `S`.
    /// The numerics run in the parallel phase; the device-resident slots'
    /// SYMV costs are submitted afterwards, sequentially in subdomain-index
    /// order, so the simulated clock is the same on any thread count and in
    /// either walk direction.
    pub(crate) fn apply_ops<'a>(
        &self,
        problem: &HeatProblem,
        factors: &[SubdomainFactors],
        ops: &[LocalOp<S>],
        l: impl Fn(usize) -> Option<&'a CscOf<S>> + Sync + Send,
        p: &[S],
    ) -> Vec<S> {
        let mut q = vec![S::ZERO; problem.n_lambda];
        let backward = self.applications.fetch_add(1, AtomicOrdering::Relaxed) % 2 == 1;
        self.run_walk(problem, Some(p), Some(&mut q), backward, |i, _, w, ql| {
            ops[i].apply(&factors[i], l(i), &w.pl, ql, &mut w.local)
        });
        ops.iter().for_each(LocalOp::charge);
        q
    }
}

/// The explicit operators one build assembled, shareable with later builds
/// of the same problem ([`FetiSolver::shared_operators`],
/// [`FetiSolverBuilder::operators`]): each subdomain's packed `Gᵢ` (`None`
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
    /// Hold each assembled `Gᵢ`'s packed triangle (`None`: an implicit
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
    ///
    /// # Panics
    ///
    /// When a placement names a device or a stream `backend` lacks: the
    /// contract of [`FetiSolverBuilder::operators`] is a backend with the
    /// devices of the build that assembled the operators.
    ///
    /// [`FetiSolverBuilder::operators`]: crate::FetiSolverBuilder::operators
    pub(crate) fn bind(&self, backend: &Backend) -> Vec<LocalOp> {
        let devices = backend.devices();
        let mut streams: Vec<Option<Stream>> = self.triangles.iter().map(|_| None).collect();
        for t in &self.report.subdomains {
            streams[t.index] = t.placement.map(|p| {
                let lacks = |what: String| {
                    format!(
                        "subdomain {} was assembled on {what}, which this backend lacks: \
                         FetiSolverBuilder::operators needs the devices of the assembling build",
                        t.index
                    )
                };
                let (d, s) = (p.device, p.stream);
                assert!(d < devices.len(), "{}", lacks(format!("device {d}")));
                let device = &devices[d];
                assert!(
                    s < device.n_streams(),
                    "{}",
                    lacks(format!("stream {s} of device {d}"))
                );
                device.stream(s)
            });
        }
        self.triangles
            .iter()
            .zip(streams)
            .map(|(g, stream)| match g {
                Some(g) => LocalOp::Dense {
                    g: Arc::clone(g),
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
    // host — on the gluing block the explicit producers assemble (P̂ᵢᵀ)
    let devices = backend.devices();
    let ref_spec = devices
        .first()
        .map_or_else(DeviceSpec::host, |d| d.spec().clone());
    let estimates: Vec<(sc_core::CostEstimate, sc_core::ApplyEstimate)> = factors
        .par_iter()
        .enumerate()
        .map(|(i, f)| {
            let (l, pt) = (f.factor(), f.gluing());
            let params = cfg.resolve(!devices.is_empty(), l, pt);
            (
                estimate_cost(&ref_spec, l, pt, &params, i),
                estimate_apply(l, pt, i),
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
        let bundles: Vec<&SubdomainFactors> = idx.iter().map(|&g| &factors[g]).collect();
        let res = AssemblySession::new(share, *cfg).assemble(&bundles);
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
    let cpu_report = assemble_share(&cpu_idx, Backend::cpu());

    // roll both shares up into the unified report: rows in problem-global
    // order, device sections from the device share, the plan in
    // the hybrid section
    let mut unified = gpu_report.unwrap_or_default();
    if let Some(c) = cpu_report {
        unified.subdomains.extend(c.subdomains);
        unified.total_seconds += c.total_seconds;
    }
    unified.subdomains.sort_by_key(|t| t.index);
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
            let implicit: Vec<LocalOp> = all.iter().map(|_| LocalOp::Implicit).collect();
            let demoted = crate::refine::Demoted::of(&implicit, &all, prob);
            for (i, (sd, f)) in prob.subdomains.iter().zip(all.iter()).enumerate() {
                let kreg = regularize_fixing_node(&sd.k, sd.kernel.as_deref(), sd.fixing_dof, None);
                let perm = Ordering::NestedDissection.compute(&kreg);
                let alone = SparseCholesky::factorize_with_perm(&kreg, perm, *engine).unwrap();
                let bt_perm = sd.bt.permute_rows(alone.perm());
                let (pt_perm, ct) = split_gluing(&bt_perm);
                let shape = AssemblyShape::of(alone.factor_csc_ref(), &pt_perm);
                let boundary_runs = alone.supernode_runs().restricted_to(shape.closure());
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
                assert_eq!((&f.pt_perm, &f.ct), (&pt_perm, &ct), "{at}");
                assert_eq!(f.shape, shape, "{at}");
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

                let l32 = demoted.l[i].as_ref().expect("an implicit slot");
                assert!(Arc::ptr_eq(l32.pattern(), shared), "{at}");
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

    /// The problems the split `B̃ᵢᵀ = P̂ᵢᵀ Cᵢᵀ` is checked on: 2D and 3D
    /// corner and edge subdomains under both gluings, the interior
    /// subdomain of a 3 × 3 × 3 grid (an edge dof there carries 3
    /// multipliers, a corner dof 7), and a lone subdomain with no
    /// multipliers.
    fn split_problems() -> [HeatProblem; 6] {
        [
            HeatProblem::build_2d(4, (3, 2), Gluing::Redundant),
            HeatProblem::build_2d(4, (3, 2), Gluing::Chain),
            HeatProblem::build_3d(2, (2, 2, 1), Gluing::Redundant),
            HeatProblem::build_3d(2, (2, 2, 1), Gluing::Chain),
            HeatProblem::build_3d(2, (3, 3, 3), Gluing::Redundant),
            HeatProblem::build_2d(3, (1, 1), Gluing::Redundant),
        ]
    }

    /// `F̃ᵢ = Cᵢ Gᵢ Cᵢᵀ`, densified from the `Cᵢᵀ` block and the assembled
    /// `Gᵢ` (`g(a, b)` its entry at glued dofs `a`, `b`).
    fn c_g_ct(ct: &Csc, g: impl Fn(usize, usize) -> f64) -> sc_dense::Mat {
        let m = ct.ncols();
        let (ptr, rows, vals) = (ct.col_ptr(), ct.row_idx(), ct.values());
        let mut f = sc_dense::Mat::zeros(m, m);
        for s in 0..m {
            for t in 0..m {
                for a in ptr[s]..ptr[s + 1] {
                    for b in ptr[t]..ptr[t + 1] {
                        f[(s, t)] += vals[a] * vals[b] * g(rows[a], rows[b]);
                    }
                }
            }
        }
        f
    }

    /// The bundle's split reproduces `B̃ᵢᵀ`, glues each distinct dof once,
    /// and `Cᵢ Gᵢ Cᵢᵀ` is the independent dense oracle `B̃ K_reg⁻¹ B̃ᵀ` (full
    /// matrix, no `sc_factor`) to 1e-10, on every problem of
    /// [`split_problems`].
    #[test]
    fn c_g_ct_is_the_dense_oracle_on_every_gluing() {
        for prob in &split_problems() {
            for (i, (sd, f)) in with_factors(prob).enumerate() {
                let at = format!("{}D {:?} subdomain {i}", prob.dim, sd.n_lambda());
                let (nb, m) = (f.pt_perm.ncols(), f.bt_perm.ncols());
                assert!(nb <= m, "{at}");
                let mut rows = f.bt_perm.row_idx().to_vec();
                rows.sort_unstable();
                rows.dedup();
                assert_eq!(f.pt_perm.row_idx(), rows, "{at}: one column per glued dof");
                let one = 1.0f64.to_bits();
                assert!(
                    f.pt_perm.values().iter().all(|v| v.to_bits() == one),
                    "{at}"
                );
                // P̂ᵀ Cᵀ: each entry of Cᵀ moved to its dof's row of P̂ᵀ
                let dof = |k: &usize| f.pt_perm.row_idx()[*k];
                let product = Csc::from_parts(
                    f.bt_perm.nrows(),
                    m,
                    f.ct.col_ptr().to_vec(),
                    f.ct.row_idx().iter().map(dof).collect(),
                    f.ct.values().to_vec(),
                );
                assert_eq!(product, f.bt_perm, "{at}: B̃ᵀ = P̂ᵀ Cᵀ");

                let g = sc_core::assemble_sc(
                    &mut sc_core::CpuExec,
                    f.factor(),
                    f.gluing(),
                    &ScConfig::optimized(false, prob.dim == 3),
                );
                let got = c_g_ct(&f.ct, |a, b| g[(a.max(b), a.min(b))]);
                let kreg = regularize_fixing_node(&sd.k, sd.kernel.as_deref(), sd.fixing_dof, None);
                let oracle = sc_core::assemble_sc_reference(&kreg, &sd.bt);
                let scale = oracle.data().iter().fold(1.0f64, |a, &b| a.max(b.abs()));
                for s in 0..m {
                    for t in 0..m {
                        let err = (got[(s, t)] - oracle[(s, t)]).abs();
                        assert!(err <= 1e-10 * scale, "{at} ({s}, {t}): off by {err}");
                    }
                }
            }
        }
    }

    /// `Cᵢ Gᵢ Cᵢᵀ` is bitwise the `m × m` assembly on `B̃ᵢᵀ` under the device
    /// configurations: Table 1's GPU rows, and `Auto` as a device producer
    /// resolves it (each side on its own gluing block). A repeated column of
    /// `B̃ᵢᵀ` runs the same arithmetic as its one column of `P̂ᵢᵀ`, up to an
    /// exact sign. (The host's 3D row is not bitwise: its SYRK input split
    /// hands `syrk_t` blocks whose width is the count of active columns, and
    /// `syrk_t` picks its route by that width.)
    #[test]
    fn c_g_ct_is_bitwise_the_multiplier_assembly() {
        let problems = [
            HeatProblem::build_3d(6, (2, 2, 2), Gluing::Redundant),
            HeatProblem::build_3d(3, (3, 3, 3), Gluing::Redundant),
            HeatProblem::build_2d(16, (3, 3), Gluing::Redundant),
            HeatProblem::build_3d(4, (2, 2, 1), Gluing::Chain),
        ];
        for prob in &problems {
            for (i, (_, f)) in with_factors(prob).enumerate() {
                let (l, pt) = (f.factor(), f.gluing());
                let table1 = ScConfig::optimized(true, prob.dim == 3);
                let auto = |bt: &Csc| ScConfig::from(ScConfig::Auto.resolve(true, l, bt));
                for (name, on_bt, on_pt) in [
                    ("Table 1", table1, table1),
                    ("Auto", auto(&f.bt_perm), auto(pt)),
                ] {
                    let at = format!("{}D subdomain {i} under {name}", prob.dim);
                    let exec = &mut sc_core::CpuExec;
                    let want = sc_core::assemble_sc(exec, l, &f.bt_perm, &on_bt);
                    let g = sc_core::assemble_sc(exec, l, pt, &on_pt);
                    let got = c_g_ct(&f.ct, |a, b| g[(a.max(b), a.min(b))]);
                    for s in 0..want.nrows() {
                        for t in 0..=s {
                            let (w, v) = (want[(s, t)], got[(s, t)]);
                            assert_eq!(w.to_bits(), v.to_bits(), "{at} ({s}, {t})");
                        }
                    }
                }
            }
        }
    }

    /// Σᵢ packed entries of `Gᵢ` over those of `F̃ᵢ` on `problem`: the share
    /// of the bytes one explicit application streams.
    fn packed_share(problem: &HeatProblem) -> f64 {
        let tri = |k: usize| (k * (k + 1) / 2) as f64;
        let (mut g, mut f) = (0.0, 0.0);
        for sd in &problem.subdomains {
            g += tri(split_gluing(&sd.bt).0.ncols());
            f += tri(sd.n_lambda());
        }
        g / f
    }

    #[test]
    fn the_split_shrinks_the_triangles_as_measured() {
        // loose pins (measured 0.73, 0.39 and 0.95): interior 3D subdomains
        // gain most, 2D ones little; a gluing change that stopped repeating
        // dofs would read 1
        let share = packed_share(&HeatProblem::build_3d(12, (2, 2, 2), Gluing::Redundant));
        assert!((0.70..0.76).contains(&share), "3D c12 2×2×2: {share}");
        let share = packed_share(&HeatProblem::build_3d(5, (3, 3, 3), Gluing::Redundant));
        assert!((0.36..0.42).contains(&share), "3D c5 3×3×3: {share}");
        let share = packed_share(&HeatProblem::build_2d(64, (4, 4), Gluing::Redundant));
        assert!((0.9..1.0).contains(&share), "2D c64 4×4: {share}");
    }

    /// Every slot kind at precision `S` against the independent dense
    /// oracle `B̃ K_reg⁻¹ B̃ᵀ` (full matrix, no `sc_factor`) applied with a
    /// plain double loop, and the clock contract: a device slot advances
    /// its stream by exactly one SYMV cost of order `nb` per application, a
    /// host slot advances nothing. The implicit slot is also bitwise Eq. 11
    /// on the multipliers: `B̃ᵀ` (cast to `S`) scattered with `spmv`, the
    /// same two sweeps, gathered with `spmv_t`.
    fn slots_match_the_dense_oracle<S: Scalar>(tol: f64) {
        for (sd, factors) in split_problems().iter().flat_map(with_factors) {
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
            let scale = want.iter().fold(1.0f64, |a, &b| a.max(b.abs()));

            let l = factors.chol.factor_csc_ref();
            let dense = || {
                let cfg = ScConfig::optimized(false, false);
                let g = sc_core::assemble_sc(&mut sc_core::CpuExec, l, &factors.pt_perm, &cfg);
                SymPackedOf::from_lower(g.as_ref()).cast::<S>()
            };
            let l_s = l.cast::<S>();
            let dev = Device::new(DeviceSpec::a100(), 1);
            let twin = Device::new(DeviceSpec::a100(), 1);
            let slot = |stream| LocalOp::Dense {
                g: Arc::new(dense()),
                stream,
            };
            let slots: [(&str, LocalOp<S>); 3] = [
                ("implicit", LocalOp::Implicit),
                ("dense host", slot(None)),
                ("dense device", slot(Some(dev.stream(0)))),
            ];
            let ps: Vec<S> = p.iter().map(|&v| S::from_f64(v)).collect();

            // Eq. 11 on the multipliers, the implicit slot's bitwise oracle
            let (bt_s, runs) = (factors.bt_perm.cast::<S>(), &factors.boundary_runs);
            let (mut t, mut w) = (vec![S::ZERO; sd.n_dofs()], Vec::new());
            bt_s.spmv(S::ONE, &ps, S::ZERO, &mut t);
            supernodal_lower_solve(&l_s, runs, &mut t, &mut w);
            supernodal_lower_t_solve(&l_s, runs, &mut t, &mut w);
            let mut eq11 = vec![S::ZERO; m];
            bt_s.spmv_t(S::ONE, &t, S::ZERO, &mut eq11);

            let mut scratch = LocalScratch::default();
            for (kind, slot) in &slots {
                for _ in 0..2 {
                    let mut q = vec![S::ZERO; m];
                    slot.apply(&factors, Some(&l_s), &ps, &mut q, &mut scratch);
                    slot.charge();
                    if *kind == "implicit" {
                        let bits =
                            |v: &[S]| v.iter().map(|x| x.to_f64().to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&q), bits(&eq11), "implicit vs Eq. 11 on B̃ᵀ");
                    }
                    for i in 0..m {
                        let got = q[i].to_f64();
                        assert!(
                            (got - want[i]).abs() <= tol * scale,
                            "{kind} row {i}: {got} vs oracle {}",
                            want[i]
                        );
                    }
                    if *kind == "dense device" {
                        let nb = factors.pt_perm.ncols();
                        twin.stream(0).submit(&KernelCost::symv_of::<S>(nb));
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
        slots_match_the_dense_oracle::<f64>(1e-10);
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
                let mut scratch = LocalScratch {
                    pb: vec![5.0; n],
                    y: vec![-5.0; 1],
                    t: vec![7.0; 3],
                    w: vec![-3.0; 2 * n],
                };
                let mut again = vec![42.0; m];
                let l = factors.chol.factor_csc_ref();
                apply_implicit_with(&factors, l, &p, &mut again, &mut scratch);
                assert_eq!(again, reference, "scratch reuse diverged");
                assert_eq!(scratch.t.len(), n);
            }
        }
    }

    /// `BoundaryMap::gather` at `S` against `spmv_t` on the block cast to `S`,
    /// on a block with an empty column and columns of 1, 2 and 4 entries
    /// (the FEM builds only length 1), with coefficients whose sum depends
    /// on the order and which `f32` rounds.
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
        let bt = coo.to_csc();
        let t: Vec<S> = (0..6).map(|i| S::from_f64(0.1 + 1.3 * i as f64)).collect();
        let mut want = vec![S::from_f64(9.0); 4];
        bt.cast::<S>().spmv_t(S::ONE, &t, S::ZERO, &mut want);
        let mut got = vec![S::from_f64(-9.0); 4];
        BoundaryMap::of(&bt).gather(&t, &mut got);
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
            let map = BoundaryMap::of(&factors.bt_perm);
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
