//! Mixed-precision iterative refinement of the FETI dual solve.
//!
//! Under [`Precision::F32Refined`](sc_core::Precision) the solver runs the
//! inner PCPG correction solves at `f32` — against demoted copies of the
//! explicit operators and factor bundles, halving the per-iteration memory
//! traffic — while the outer loop accumulates the iterate and measures the
//! true projected residual `P(d − Fλ)` in `f64`. Each outer iteration
//! solves `F δ = r` at `f32` to a modest tolerance and applies the
//! correction `λ ← λ + δ` in `f64`; the loop stops when the `f64` residual
//! reaches the configured target or the refinement budget is exhausted (in
//! which case the solver falls back to the full-`f64` PCPG so a hard
//! workload degrades to the historical path instead of returning a bad λ).

use crate::dualop::{BoundaryMapOf, SubdomainFactors};
use sc_dense::MatOf;
use sc_sparse::{csc_lower_solve, csc_lower_t_solve, CscOf};
use std::sync::Mutex;

/// Inner (`f32`) PCPG relative tolerance: roughly `√ε_f32`, the point past
/// which a single-precision recursion stops making progress; each outer
/// iteration therefore knocks ~4 orders of magnitude off the `f64`
/// residual.
pub const INNER_TOL: f64 = 1e-4;

/// Demoted (`f32`) copy of one subdomain's factor bundle: the Cholesky
/// factor `L` cast into single precision plus the boundary map of the
/// demoted `B̃ᵀ`. Applies the implicit dual operator (Eq. 11) entirely at
/// `f32` — scatter, two triangular solves, gather.
pub struct DemotedFactors {
    /// `L` in permuted index space, cast from the `f64` factor.
    l: CscOf<f32>,
    /// Gather/scatter map of the demoted `B̃ᵀ` (rows already in factor
    /// space, like the `f64` bundle's).
    map: BoundaryMapOf<f32>,
}

impl DemotedFactors {
    /// Demote one `f64` factor bundle.
    pub fn of(factors: &SubdomainFactors) -> Self {
        DemotedFactors {
            l: factors.chol.factor_csc_ref().cast::<f32>(),
            map: BoundaryMapOf::of(&factors.bt_perm.cast::<f32>()),
        }
    }

    /// `out = B̃ (L⁻ᵀ(L⁻¹(B̃ᵀ p)))` at `f32`, with a caller-owned scratch
    /// vector (mirrors `apply_implicit_with`).
    pub fn apply_with(&self, p: &[f32], out: &mut [f32], scratch: &mut Vec<f32>) {
        let n = self.map.n_rows();
        scratch.clear();
        scratch.resize(n, 0.0);
        self.map.scatter(p, scratch);
        csc_lower_solve(&self.l, scratch);
        csc_lower_t_solve(&self.l, scratch);
        self.map.gather(scratch, out);
    }
}

/// One subdomain's `f32` dual-operator slot, demoted once at build time and
/// reused across every inner PCPG iteration.
// Variant sizes differ by design, like DualOperator/OpSlot: one slot per
// subdomain in a short Vec.
#[allow(clippy::large_enum_variant)]
pub(crate) enum F32Op {
    /// Dense `F̃ᵢ` demoted from the assembled explicit operator; applied
    /// with an `f32` GEMV.
    Explicit(MatOf<f32>),
    /// Implicit application through the demoted factor bundle. Carries the
    /// subdomain's dof-space scratch vector (uncontended mutex: `apply_f32`
    /// runs one task per subdomain).
    Implicit {
        factors: DemotedFactors,
        scratch: Mutex<Vec<f32>>,
    },
}

impl F32Op {
    pub(crate) fn implicit(factors: &SubdomainFactors) -> Self {
        F32Op::Implicit {
            factors: DemotedFactors::of(factors),
            scratch: Mutex::new(Vec::new()),
        }
    }

    /// Apply: `out = F̃ᵢ p` at `f32`.
    pub(crate) fn apply(&self, p: &[f32], out: &mut [f32]) {
        match self {
            F32Op::Explicit(f) => sc_dense::gemv(1.0f32, f.as_ref(), p, 0.0f32, out),
            F32Op::Implicit { factors, scratch } => {
                let mut t = scratch.lock().expect("f32 scratch mutex poisoned");
                factors.apply_with(p, out, &mut t);
            }
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dualop::{apply_implicit, DualOperator};
    use crate::FetiOptions;
    use sc_core::ScConfig;
    use sc_fem::{Gluing, HeatProblem};
    use sc_order::Ordering;

    #[test]
    fn demoted_apply_tracks_the_f64_implicit_operator() {
        let prob = HeatProblem::build_2d(4, (2, 2), Gluing::Redundant);
        for sd in &prob.subdomains {
            let factors = SubdomainFactors::build(
                sd,
                FetiOptions::default().engine,
                Ordering::NestedDissection,
            );
            let demoted = DemotedFactors::of(&factors);
            let m = sd.n_lambda();
            let p: Vec<f64> = (0..m).map(|i| ((i * 13 % 7) as f64) - 3.0).collect();
            let p32: Vec<f32> = p.iter().map(|&v| v as f32).collect(); // sc-analyze: allow(precision-discipline)
            let mut q64 = vec![0.0f64; m];
            apply_implicit(&factors, &p, &mut q64);
            let mut q32 = vec![0.0f32; m];
            let mut scratch = Vec::new();
            demoted.apply_with(&p32, &mut q32, &mut scratch);
            let scale = q64.iter().fold(1.0f64, |a, &b| a.max(b.abs()));
            for i in 0..m {
                assert!(
                    (f64::from(q32[i]) - q64[i]).abs() < 1e-3 * scale,
                    "subdomain apply drift at {i}: {} vs {}",
                    q32[i],
                    q64[i]
                );
            }
        }
    }

    #[test]
    fn explicit_f32_op_matches_demoted_dense_operator() {
        let prob = HeatProblem::build_2d(3, (2, 1), Gluing::Redundant);
        let sd = &prob.subdomains[0];
        let factors = SubdomainFactors::build(
            sd,
            FetiOptions::default().engine,
            Ordering::NestedDissection,
        );
        let expl = DualOperator::explicit_cpu(&factors, &ScConfig::optimized(false, false));
        let f32_mat = expl.explicit_matrix().unwrap().cast::<f32>();
        let op = F32Op::Explicit(f32_mat.clone());
        let m = sd.n_lambda();
        let p: Vec<f32> = (0..m).map(|i| (i as f32) * 0.25 - 1.0).collect();
        let mut got = vec![0.0f32; m];
        op.apply(&p, &mut got);
        let mut want = vec![0.0f32; m];
        sc_dense::gemv(1.0f32, f32_mat.as_ref(), &p, 0.0f32, &mut want);
        assert_eq!(got, want, "explicit f32 slot must be a plain f32 GEMV");
    }
}
