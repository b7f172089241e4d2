//! Mixed-precision iterative refinement of the FETI dual solve.
//!
//! Under [`Precision::F32Refined`](sc_core::Precision) the solver runs the
//! inner PCPG correction solves at `f32` — against demoted copies of the
//! operator slots (`Demoted`), halving the per-iteration memory traffic —
//! while the outer loop accumulates the iterate and measures the true
//! projected residual `P(d − Fλ)` in `f64`. Each outer iteration solves
//! `F δ = r` at `f32` to a modest tolerance and applies the correction
//! `λ ← λ + δ` in `f64`; the loop stops when the `f64` residual reaches the
//! configured target or the refinement budget is exhausted (in which case
//! the solver falls back to the full-`f64` PCPG so a hard workload degrades
//! to the historical path instead of returning a bad λ).

use crate::dualop::{BoundaryMapOf, DualPass, FactorView, LocalOp, SubdomainFactors};
use crate::pcpg::{pcpg_preconditioned_of, PcpgStats};
use crate::solver::{FetiSolver, Preconditioner};
use rayon::prelude::*;
use sc_dense::Scalar;
use sc_fem::HeatProblem;
use sc_sparse::CscOf;

/// Inner (`f32`) PCPG relative tolerance: roughly `√ε_f32`, the point past
/// which a single-precision recursion stops making progress; each outer
/// iteration therefore knocks ~4 orders of magnitude off the `f64`
/// residual.
const INNER_TOL: f64 = 1e-4;

/// The `f32` side of a refined solver: every operator slot demoted once at
/// build time and reused across every inner PCPG iteration.
pub(crate) struct Demoted {
    /// A dense slot is the (`f32`-assembled, exactly promoted) packed `F̃ᵢ`
    /// cast back; it drops the stream binding — the inner SYMVs run on the host,
    /// so only the `f64` residual applications move a simulated clock.
    ops: Vec<LocalOp<f32>>,
    /// The demoted `(L, map)` of each implicit slot's factor view (its
    /// supernode runs hold no values and stay with the `f64` factors);
    /// `None` beside a dense one.
    factors: Vec<Option<(CscOf<f32>, BoundaryMapOf<f32>)>>,
    pass: DualPass<f32>,
}

impl Demoted {
    /// Demote the solver's slots and the factors of the implicit ones.
    pub(crate) fn of(ops: &[LocalOp], factors: &[SubdomainFactors], problem: &HeatProblem) -> Self {
        let demoted: Vec<_> = ops
            .par_iter()
            .zip(factors)
            .map(|(op, fac)| match op {
                LocalOp::Dense { f, .. } => {
                    let f = f.cast::<f32>();
                    (LocalOp::Dense { f, stream: None }, None)
                }
                LocalOp::Implicit => {
                    let l = fac.chol.factor_csc_ref().cast::<f32>();
                    let map = BoundaryMapOf::of(&fac.bt_perm.cast::<f32>());
                    (LocalOp::Implicit, Some((l, map)))
                }
            })
            .collect();
        let (ops, factors) = demoted.into_iter().unzip();
        Demoted {
            ops,
            factors,
            pass: DualPass::new(problem),
        }
    }

    /// Bytes of operator storage the demoted slots own.
    #[cfg(test)]
    pub(crate) fn held_bytes(&self) -> usize {
        self.ops.iter().map(LocalOp::held_bytes).sum()
    }

    /// The pass of [`FetiSolver::apply_f`] at `f32` (the inner solves' hot
    /// path); `factors` are the ones `self` was demoted from.
    pub(crate) fn apply(
        &self,
        problem: &HeatProblem,
        factors: &[SubdomainFactors],
        p: &[f32],
    ) -> Vec<f32> {
        let view = |i: usize| {
            let (l, map) = self.factors[i].as_ref()?;
            let runs = &factors[i].boundary_runs;
            Some(FactorView { l, runs, map })
        };
        self.pass.apply_ops(problem, &self.ops, view, p)
    }
}

/// Statistics of one mixed-precision refinement run, attached to
/// [`FetiSolution`](crate::FetiSolution) when the solver was built with
/// [`Precision::F32Refined`](sc_core::Precision).
#[derive(Clone, Copy, Debug)]
pub struct RefinementStats {
    /// Outer refinement iterations performed (`f64` residual + correction
    /// updates; the initial residual check counts as iteration zero).
    pub outer_iterations: usize,
    /// Total inner (`f32`) PCPG iterations across all correction solves.
    pub inner_iterations: usize,
    /// Final true relative projected residual `‖P(d − Fλ)‖ / ‖Pd‖`,
    /// measured in `f64`.
    pub rel_residual: f64,
    /// Whether the `f64` residual reached the configured refinement target.
    pub converged: bool,
    /// True when refinement stalled or exhausted its budget and the solver
    /// re-solved with the full-`f64` PCPG path.
    pub fell_back: bool,
}

impl FetiSolver<'_> {
    /// Mixed-precision iterative refinement (the `F32Refined` solve path):
    /// the outer loop measures the true projected residual `r = P(d − Fλ)`
    /// and accumulates corrections in `f64`; each correction solves
    /// `F δ = r` with the **`f32`** PCPG against the demoted operators. The
    /// correction is re-projected in `f64` before the update so the coarse
    /// constraint `Gᵀλ = e` never degrades to single precision. When the
    /// residual stalls or the refinement budget runs out, the solve falls
    /// back to the full-`f64` PCPG from the best iterate.
    pub(crate) fn solve_refined(
        &self,
        d: &[f64],
        lambda0: Vec<f64>,
        refine_tol: f64,
        max_refine: usize,
    ) -> (Vec<f64>, PcpgStats, Option<RefinementStats>) {
        let opts = self.options();
        let norm0 = {
            let pd = self.project(d);
            sc_dense::dot(&pd, &pd).sqrt()
        };
        // the converged exit: the inner iterations stand in for PCPG's
        let refined = |lambda, outer, inner, applications, rel| {
            let stats = PcpgStats {
                iterations: inner,
                operator_applications: applications,
                rel_residual: rel,
                converged: true,
                breakdown: None,
                exchange_stall_seconds: 0.0,
            };
            let refinement = RefinementStats {
                outer_iterations: outer,
                inner_iterations: inner,
                rel_residual: rel,
                converged: true,
                fell_back: false,
            };
            (lambda, stats, Some(refinement))
        };
        // sc-analyze: allow(float-eq)
        if norm0 == 0.0 {
            return refined(lambda0, 0, 0, 0, 0.0);
        }

        let mut lambda = lambda0;
        let mut outer = 0usize;
        let mut inner_total = 0usize;
        let mut applications = 0usize;
        let mut rel;
        let mut prev_rel = f64::INFINITY;
        loop {
            // f64 truth: r = P(d − Fλ) through the full-precision operator
            let flam = self.apply_f(&lambda);
            applications += 1;
            let resid: Vec<f64> = d.iter().zip(&flam).map(|(di, fi)| di - fi).collect();
            let r = self.project(&resid);
            rel = sc_dense::dot(&r, &r).sqrt() / norm0;
            if rel <= refine_tol {
                break;
            }
            // stalled (single precision can push no further) or out of
            // budget: hand over to the f64 fallback below
            if outer >= max_refine || rel >= 0.5 * prev_rel {
                break;
            }
            prev_rel = rel;

            // inner f32 correction solve F δ = r over the Gᵀδ = 0 subspace;
            // projector and preconditioner round-trip through their f64
            // implementations (the operator applications are the hot path
            // and run natively at f32)
            let r32 = demote(&r);
            let res = pcpg_preconditioned_of::<f32>(
                &r32,
                vec![0.0f32; d.len()],
                |p| self.apply_f32(p),
                |x| demote(&self.project(&promote(x))),
                |w| match opts.preconditioner {
                    Preconditioner::None => w.to_vec(),
                    Preconditioner::Lumped => demote(&self.apply_lumped(&promote(w))),
                },
                INNER_TOL,
                opts.max_iter,
            );
            inner_total += res.stats.iterations;
            applications += res.stats.operator_applications;
            // promote the correction and re-project in f64: the f32 iterate
            // satisfies Gᵀδ = 0 only to single precision, and the coarse
            // constraint must hold at the accumulation precision
            let delta = self.project(&promote(&res.lambda));
            for (li, di) in lambda.iter_mut().zip(&delta) {
                *li += di;
            }
            outer += 1;
        }

        if rel <= refine_tol {
            refined(lambda, outer, inner_total, applications, rel)
        } else {
            // refinement failed to reach the target: fall back to the
            // historical full-f64 PCPG from the best iterate (Gᵀλ = e still
            // holds, so it is a legal warm start)
            let res = self.pcpg_f64(d, lambda);
            let refinement = RefinementStats {
                outer_iterations: outer,
                inner_iterations: inner_total,
                rel_residual: res.stats.rel_residual,
                converged: res.stats.converged,
                fell_back: true,
            };
            (res.lambda, res.stats, Some(refinement))
        }
    }
}

/// Exact widening of a dual vector to `f64` (mixed-precision boundary).
fn promote(x: &[f32]) -> Vec<f64> {
    x.iter().map(|&v| f64::from(v)).collect()
}

/// Rounding demotion of a dual vector to `f32` (mixed-precision boundary).
fn demote(x: &[f64]) -> Vec<f32> {
    x.iter().map(|&v| f32::from_f64(v)).collect()
}
