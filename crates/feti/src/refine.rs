//! Mixed-precision iterative refinement of the FETI dual solve.
//!
//! Under [`Precision::F32Refined`](sc_core::Precision) the inner PCPG
//! correction solves run at `f32`, against demoted copies of the
//! `f64`-assembled operator slots (`Demoted`), halving the per-iteration
//! memory traffic. The outer loop accumulates the iterate in `f64` and
//! measures the true residual `P(d − Fλ)` with the `f64` operators, the one
//! refinement converges to (Carson & Higham, SIAM J. Sci. Comput. 40(2),
//! 2018). Each outer iteration solves `F δ = r` at `f32` to a modest
//! tolerance and adds `δ` in `f64`, until the residual reaches the solve's
//! own tolerance ([`FetiOptions::tol`](crate::FetiOptions::tol)), the
//! stopping rule of the `f64` solve. When the residual stalls or four
//! corrections (`MAX_OUTER`) do not reach it, the solver falls back to the
//! full-`f64` PCPG instead of returning a bad λ.

use crate::dualop::{DualPass, LocalOp, SubdomainFactors};
use crate::pcpg::{pcpg_preconditioned_of, PcpgResult, PcpgStats};
use crate::solver::{FetiSolver, Precond};
use rayon::prelude::*;
use sc_dense::Scalar;
use sc_fem::HeatProblem;
use sc_sparse::CscOf;
use std::sync::Arc;

/// Inner (`f32`) PCPG relative tolerance: roughly `√ε_f32`, the point past
/// which a single-precision recursion stops making progress; each outer
/// iteration therefore knocks ~4 orders of magnitude off the `f64`
/// residual.
const INNER_TOL: f64 = 1e-4;

/// Correction solves a refined solve runs before it falls back to the
/// full-`f64` PCPG. At [`INNER_TOL`] each correction gains ~4 orders, so
/// four reach the default `tol` of 1e-9 from an O(1) residual.
pub(crate) const MAX_OUTER: usize = 4;

/// The `f32` side of a refined solver: every operator slot demoted once at
/// build time and reused across every inner PCPG iteration.
pub(crate) struct Demoted {
    /// A dense slot is the `f64`-assembled packed `Gᵢ` rounded to `f32`; it
    /// drops the stream binding — the inner SYMVs run on the host, so only
    /// the `f64` residual applications move a simulated clock.
    ops: Vec<LocalOp<f32>>,
    /// The demoted `L` of each implicit slot, sharing the `f64` pattern;
    /// `None` beside a dense one. Only values are cast: every slot reads
    /// the `f64` bundle's gluing split and supernode runs.
    pub(crate) l: Vec<Option<CscOf<f32>>>,
    pass: DualPass<f32>,
}

impl Demoted {
    /// Demote the solver's slots and the factors of the implicit ones.
    pub(crate) fn of(ops: &[LocalOp], factors: &[SubdomainFactors], problem: &HeatProblem) -> Self {
        let demoted: Vec<_> = ops
            .par_iter()
            .zip(factors)
            .map(|(op, fac)| match op {
                LocalOp::Dense { g, .. } => {
                    let g = Arc::new(g.cast());
                    (LocalOp::Dense { g, stream: None }, None)
                }
                LocalOp::Implicit => (LocalOp::Implicit, Some(fac.chol.factor_csc_ref().cast())),
            })
            .collect();
        let (ops, l) = demoted.into_iter().unzip();
        Demoted {
            ops,
            l,
            pass: DualPass::new(problem),
        }
    }

    /// Bytes of operator storage the demoted side owns: the slots' triangles
    /// and the implicit slots' factor values.
    #[cfg(test)]
    pub(crate) fn held_bytes(&self) -> usize {
        let l = |l: &CscOf<f32>| std::mem::size_of_val(l.values());
        let factors: usize = self.l.iter().flatten().map(l).sum();
        self.ops.iter().map(LocalOp::held_bytes).sum::<usize>() + factors
    }

    /// The pass of [`FetiSolver::apply_f`] at `f32` (the inner solves' hot
    /// path); `factors` are the ones `self` was demoted from.
    pub(crate) fn apply(
        &self,
        problem: &HeatProblem,
        factors: &[SubdomainFactors],
        p: &[f32],
    ) -> Vec<f32> {
        let l = |i: usize| self.l[i].as_ref();
        self.pass.apply_ops(problem, factors, &self.ops, l, p)
    }
}

/// Statistics of one mixed-precision refinement run, attached to
/// [`FetiSolution`](crate::FetiSolution) when the solver was built with
/// [`Precision::F32Refined`](sc_core::Precision). Whether the solve
/// converged, and its final true `f64` residual, are in
/// [`FetiSolution::stats`](crate::FetiSolution::stats).
#[derive(Clone, Copy, Debug)]
pub struct RefinementStats {
    /// Outer refinement iterations performed (`f64` residual + correction
    /// updates; the initial residual check counts as iteration zero).
    pub outer_iterations: usize,
    /// Total inner (`f32`) PCPG iterations across all correction solves.
    pub inner_iterations: usize,
    /// False when refinement reached the solve's tolerance
    /// ([`FetiOptions::tol`](crate::FetiOptions::tol)). True when it
    /// stalled or ran four corrections (`MAX_OUTER`) short of it and the
    /// solver re-solved with the full-`f64` PCPG path, whose statistics are
    /// then the solution's.
    pub fell_back: bool,
}

impl FetiSolver<'_> {
    /// Mixed-precision iterative refinement (the `F32Refined` solve path):
    /// the outer loop measures the true projected residual `r = P(d − Fλ)`
    /// and accumulates corrections in `f64`; each correction solves
    /// `F δ = r` with the **`f32`** PCPG against the demoted operators. The
    /// correction is re-projected in `f64` before the update so the coarse
    /// constraint `Gᵀλ = e` never degrades to single precision. The loop
    /// stops at the options' `tol`; when the residual stalls or
    /// `max_outer` corrections fall short of it (the solver passes
    /// [`MAX_OUTER`]), the solve falls back to the full-`f64` PCPG from the
    /// best iterate. `precond` is the `f64` preconditioner, which the inner
    /// solves round-trip through. The result's `Fλ` is the `f64` apply that
    /// confirmed convergence, or the fallback's.
    pub(crate) fn solve_refined(
        &self,
        d: &[f64],
        lambda0: Vec<f64>,
        max_outer: usize,
        precond: Option<Precond<'_>>,
    ) -> (PcpgResult, Option<RefinementStats>) {
        let opts = self.options();
        let norm0 = {
            let pd = self.project(d);
            sc_dense::dot(&pd, &pd).sqrt()
        };
        // the converged exit: the inner iterations stand in for PCPG's
        let refined = |lambda, f_lambda, outer, inner, applications, rel| {
            let stats = PcpgStats {
                iterations: inner,
                operator_applications: applications,
                rel_residual: rel,
                converged: true,
                breakdown: None,
            };
            let refinement = RefinementStats {
                outer_iterations: outer,
                inner_iterations: inner,
                fell_back: false,
            };
            let res = PcpgResult {
                lambda,
                stats,
                f_lambda,
            };
            (res, Some(refinement))
        };
        if norm0 <= 0.0 {
            return refined(lambda0, None, 0, 0, 0, 0.0);
        }

        let mut lambda = lambda0;
        let mut outer = 0usize;
        let mut inner_total = 0usize;
        let mut applications = 0usize;
        let mut rel;
        let mut flam;
        let mut prev_rel = f64::INFINITY;
        loop {
            // f64 truth: r = P(d − Fλ) through the full-precision operator
            flam = self.apply_f(&lambda);
            applications += 1;
            let resid: Vec<f64> = d.iter().zip(&flam).map(|(di, fi)| di - fi).collect();
            let r = self.project(&resid);
            rel = sc_dense::dot(&r, &r).sqrt() / norm0;
            if rel <= opts.tol {
                break;
            }
            // stalled (single precision can push no further) or out of
            // budget: hand over to the f64 fallback below
            if outer >= max_outer || rel >= 0.5 * prev_rel {
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
                |w| match precond {
                    None => w.to_vec(),
                    Some(m) => demote(&m(&promote(w))),
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

        if rel <= opts.tol {
            refined(lambda, Some(flam), outer, inner_total, applications, rel)
        } else {
            // refinement failed to reach the target: fall back to the
            // historical full-f64 PCPG from the best iterate (Gᵀλ = e still
            // holds, so it is a legal warm start)
            let res = self.pcpg_f64(d, lambda, precond);
            let refinement = RefinementStats {
                outer_iterations: outer,
                inner_iterations: inner_total,
                fell_back: true,
            };
            (res, Some(refinement))
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
