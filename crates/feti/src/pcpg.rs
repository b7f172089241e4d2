//! Preconditioned (here: projected) conjugate gradient for the FETI dual
//! problem (paper Eq. 7, ref. \[10\]).
//!
//! Solves `P F P λ̄ = P (d − F λ₀)` over the subspace `Gᵀλ = const`, where
//! `P = I − G(GᵀG)⁻¹Gᵀ` is the natural coarse projector. Written against
//! closures so it is testable with toy operators and reusable for every dual
//! operator implementation.
//!
//! The one entry point, [`pcpg_preconditioned_of`], is generic over the
//! working precision: the `f64` solve and the mixed-precision refinement's
//! inner `f32` solves run the same iteration, while tolerances, statistics,
//! and breakdown diagnostics stay `f64`.

use sc_dense::{dot, Scalar};

/// Why PCPG stopped before reaching the tolerance or exhausting the
/// iteration budget.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PcpgBreakdown {
    /// `pᵀFp ≤ 0`: the dual operator is not positive definite on the
    /// current search direction (carries the offending curvature).
    IndefiniteOperator {
        /// The non-positive curvature `pᵀFp`.
        pfp: f64,
    },
    /// `wᵀz ≤ 0`: the preconditioned residual inner product lost
    /// positivity — the preconditioner is not SPD on this subspace.
    IndefinitePreconditioner {
        /// The non-positive inner product `wᵀz`.
        wz: f64,
    },
}

/// Convergence statistics.
#[derive(Clone, Copy, Debug)]
pub struct PcpgStats {
    /// CG iterations performed (λ updates; residual-confirmation operator
    /// applications are not counted).
    pub iterations: usize,
    /// Total dual-operator applications, **including** the initial residual,
    /// convergence confirmations, and the final honest-exit recomputation —
    /// the realized per-subdomain apply count the hybrid cost model's
    /// expected-iteration input is compared against.
    pub operator_applications: usize,
    /// Final relative projected residual `‖P(d − Fλ)‖ / ‖Pd‖`, **freshly
    /// recomputed** from λ — never the recursively updated residual, which
    /// can drift from the truth in finite precision.
    pub rel_residual: f64,
    /// True when [`PcpgStats::rel_residual`] — the recomputed true
    /// residual, not the recursive estimate — reached the tolerance.
    pub converged: bool,
    /// `Some` when the iteration stopped on a loss of positivity instead of
    /// converging or running out of budget.
    pub breakdown: Option<PcpgBreakdown>,
}

/// Result of a PCPG run at working precision `S`. The [`PcpgResult`] alias
/// pins the historical `f64`.
#[derive(Clone, Debug)]
pub struct PcpgResultOf<S = f64> {
    /// The dual solution `λ`, at the iteration's working precision.
    pub lambda: Vec<S>,
    /// Convergence statistics (always reported in `f64`).
    pub stats: PcpgStats,
    /// The unprojected `Fλ` of [`lambda`](Self::lambda), from the true
    /// residual every exit computes: primal recovery reads it instead of
    /// applying `F` again. `None` only when the projected right-hand side is
    /// zero and `λ₀` is returned without an application.
    pub f_lambda: Option<Vec<S>>,
}

/// Result of an `f64` PCPG run.
pub type PcpgResult = PcpgResultOf<f64>;

/// Run PCPG with a preconditioner `M⁻¹` (e.g. the lumped preconditioner
/// `Σ Cᵢ K_bb,i Cᵢᵀ`; pass `|w| w.to_vec()` for none) at working precision `S`.
///
/// - `d` — dual right-hand side;
/// - `lambda0` — initial iterate satisfying the equality constraint
///   (`Gᵀλ₀ = e`);
/// - `apply_f` — the dual operator;
/// - `project` — application of `P` (must be idempotent and symmetric);
/// - `precond` — application of `M⁻¹`; the search directions use
///   `z = P M⁻¹ w`;
/// - `tol` — relative tolerance on `‖P r‖ / ‖P d‖`.
///
/// All vector arithmetic — dots, axpys, the recursive residual — happens in
/// `S`; the tolerance test and the reported statistics are `f64` (widening
/// from `f32` is exact). The mixed-precision refinement loop drives this at
/// `S = f32` for its inner correction solves.
pub fn pcpg_preconditioned_of<S: Scalar>(
    d: &[S],
    lambda0: Vec<S>,
    mut apply_f: impl FnMut(&[S]) -> Vec<S>,
    mut project: impl FnMut(&[S]) -> Vec<S>,
    mut precond: impl FnMut(&[S]) -> Vec<S>,
    tol: f64,
    max_iter: usize,
) -> PcpgResultOf<S> {
    let m = d.len();
    let mut lambda = lambda0;
    assert_eq!(lambda.len(), m);

    // instrument the operator: every application counted, wherever it
    // happens (search directions, confirmations, honest-exit residual)
    let mut applications = 0usize;
    let mut apply_f = |p: &[S]| {
        applications += 1;
        apply_f(p)
    };

    let norm0 = {
        let pd = project(d);
        dot(&pd, &pd).sqrt()
    };
    if norm0.to_f64() <= 0.0 {
        return PcpgResultOf {
            lambda,
            stats: PcpgStats {
                iterations: 0,
                operator_applications: 0,
                rel_residual: 0.0,
                converged: true,
                breakdown: None,
            },
            f_lambda: None,
        };
    }

    // the true projected residual P(d − Fλ) — the single definition behind
    // the initial residual, the convergence confirmation, and the final
    // reported statistic — with the unprojected Fλ it was computed from
    fn true_residual<S: Scalar>(
        d: &[S],
        lambda: &[S],
        apply_f: &mut impl FnMut(&[S]) -> Vec<S>,
        project: &mut impl FnMut(&[S]) -> Vec<S>,
    ) -> (Vec<S>, Vec<S>) {
        let flam = apply_f(lambda);
        let r: Vec<S> = d.iter().zip(&flam).map(|(&di, &fi)| di - fi).collect();
        (project(&r), flam)
    }

    // w = P (d - F λ0), z = P M⁻¹ w, p = z; `flam` is always the Fλ of the
    // last true residual, and λ moves only while `w` is an estimate
    let (mut w, mut flam) = true_residual(d, &lambda, &mut apply_f, &mut project);
    // whether `w` currently equals the freshly computed P(d − Fλ) (the
    // recursive update below makes it an estimate that can drift)
    let mut w_is_true = true;
    let mut z = project(&precond(&w));
    let mut p = z.clone();
    let mut wz = dot(&w, &z);
    let mut iterations = 0;
    let mut breakdown = None;

    loop {
        if (dot(&w, &w).sqrt() / norm0).to_f64() <= tol {
            if w_is_true {
                break; // confirmed on the true residual
            }
            // the recursive residual claims convergence: confirm against
            // the freshly recomputed true projected residual
            (w, flam) = true_residual(d, &lambda, &mut apply_f, &mut project);
            w_is_true = true;
            if (dot(&w, &w).sqrt() / norm0).to_f64() <= tol {
                break;
            }
            // false convergence — restart the recursion from the truth
            z = project(&precond(&w));
            p = z.clone();
            wz = dot(&w, &z);
            continue;
        }
        if iterations >= max_iter {
            break;
        }
        let fp = apply_f(&p);
        let pfp = dot(&p, &fp);
        if pfp.to_f64() <= 0.0 {
            breakdown = Some(PcpgBreakdown::IndefiniteOperator { pfp: pfp.to_f64() });
            break;
        }
        if wz.to_f64() <= 0.0 {
            breakdown = Some(PcpgBreakdown::IndefinitePreconditioner { wz: wz.to_f64() });
            break;
        }
        let gamma = wz / pfp;
        for i in 0..m {
            lambda[i] += gamma * p[i];
        }
        let pfp_vec = project(&fp);
        for i in 0..m {
            w[i] -= gamma * pfp_vec[i];
        }
        w_is_true = false;
        z = project(&precond(&w));
        let wz_new = dot(&w, &z);
        let beta = wz_new / wz;
        for i in 0..m {
            p[i] = z[i] + beta * p[i];
        }
        wz = wz_new;
        iterations += 1;
    }

    // honest exit report: whatever stopped the loop, the returned residual
    // is the true P(d − Fλ) of the final iterate
    if !w_is_true {
        (w, flam) = true_residual(d, &lambda, &mut apply_f, &mut project);
    }
    let rel_residual = (dot(&w, &w).sqrt() / norm0).to_f64();
    PcpgResultOf {
        lambda,
        stats: PcpgStats {
            iterations,
            operator_applications: applications,
            rel_residual,
            converged: rel_residual <= tol,
            breakdown,
        },
        f_lambda: Some(flam),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_dense::Mat;

    /// SPD toy operator with no constraint (projector = identity): PCPG must
    /// reduce to plain CG and solve the system.
    #[test]
    fn solves_spd_system_without_projector() {
        let n = 12;
        let a = Mat::from_fn(n, n, |i, j| {
            if i == j {
                4.0
            } else if i.abs_diff(j) == 1 {
                -1.0
            } else {
                0.0
            }
        });
        let d: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let res = pcpg_preconditioned_of(
            &d,
            vec![0.0; n],
            |p| {
                let mut out = vec![0.0; n];
                sc_dense::gemv(1.0, a.as_ref(), p, 0.0, &mut out);
                out
            },
            |x| x.to_vec(),
            |w| w.to_vec(),
            1e-12,
            200,
        );
        assert!(res.stats.converged);
        // one application per iteration, plus the initial residual and any
        // confirmation/honest-exit recomputations
        assert!(
            res.stats.operator_applications > res.stats.iterations,
            "applications {} must exceed iterations {}",
            res.stats.operator_applications,
            res.stats.iterations
        );
        let mut check = vec![0.0; n];
        sc_dense::gemv(1.0, a.as_ref(), &res.lambda, 0.0, &mut check);
        for i in 0..n {
            assert!((check[i] - d[i]).abs() < 1e-9);
        }
    }

    /// With a rank-1 projector the iterate stays in the constraint subspace.
    #[test]
    fn respects_projection_subspace() {
        let n = 8;
        // P projects out the all-ones direction
        let ones = vec![1.0; n];
        let project = |x: &[f64]| {
            let c = dot(x, &ones) / n as f64;
            x.iter().map(|xi| xi - c).collect::<Vec<_>>()
        };
        let a = Mat::from_fn(n, n, |i, j| if i == j { 2.0 } else { 0.1 });
        let d: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let res = pcpg_preconditioned_of(
            &d,
            vec![0.0; n],
            |p| {
                let mut out = vec![0.0; n];
                sc_dense::gemv(1.0, a.as_ref(), p, 0.0, &mut out);
                out
            },
            project,
            |w| w.to_vec(),
            1e-10,
            100,
        );
        // λ - λ0 must be orthogonal to ones
        let c = dot(&res.lambda, &ones);
        assert!(c.abs() < 1e-8, "left the constraint subspace: {c}");
        assert!(res.stats.converged);
    }

    #[test]
    fn zero_rhs_returns_immediately() {
        let res = pcpg_preconditioned_of(
            &[0.0; 5],
            vec![0.0; 5],
            |_| panic!("operator must not be called"),
            |x| x.to_vec(),
            |w| w.to_vec(),
            1e-10,
            10,
        );
        assert_eq!(res.stats.iterations, 0);
        assert!(res.stats.converged);
    }

    #[test]
    fn indefinite_operator_reports_breakdown_not_convergence() {
        // F = -I is negative definite: pᵀFp < 0 on the first direction. The
        // old code silently broke out and left the stats ambiguous; now the
        // breakdown is named and convergence is judged on the true residual.
        let n = 6;
        let d = vec![1.0; n];
        let res = pcpg_preconditioned_of(
            &d,
            vec![0.0; n],
            |p| p.iter().map(|x| -x).collect(),
            |x| x.to_vec(),
            |w| w.to_vec(),
            1e-10,
            50,
        );
        assert_eq!(res.stats.iterations, 0);
        assert!(!res.stats.converged);
        match res.stats.breakdown {
            Some(PcpgBreakdown::IndefiniteOperator { pfp }) => assert!(pfp < 0.0),
            other => panic!("expected operator breakdown, got {other:?}"),
        }
        // true residual of the untouched iterate: ‖d‖/‖d‖ = 1
        assert!((res.stats.rel_residual - 1.0).abs() < 1e-15);
    }

    #[test]
    fn indefinite_preconditioner_reports_breakdown() {
        let n = 6;
        let a = Mat::from_fn(n, n, |i, j| if i == j { 2.0 } else { 0.0 });
        let d = vec![1.0; n];
        let res = pcpg_preconditioned_of(
            &d,
            vec![0.0; n],
            |p| {
                let mut out = vec![0.0; n];
                sc_dense::gemv(1.0, a.as_ref(), p, 0.0, &mut out);
                out
            },
            |x| x.to_vec(),
            |w| w.iter().map(|x| -x).collect(), // M⁻¹ = -I: wᵀz < 0
            1e-10,
            50,
        );
        assert!(!res.stats.converged);
        match res.stats.breakdown {
            Some(PcpgBreakdown::IndefinitePreconditioner { wz }) => assert!(wz < 0.0),
            other => panic!("expected preconditioner breakdown, got {other:?}"),
        }
    }

    #[test]
    fn reported_residual_is_the_true_projected_residual() {
        let n = 10;
        let a = Mat::from_fn(n, n, |i, j| {
            if i == j {
                3.0
            } else if i.abs_diff(j) == 1 {
                -1.0
            } else {
                0.0
            }
        });
        let d: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
        let res = pcpg_preconditioned_of(
            &d,
            vec![0.0; n],
            |p| {
                let mut out = vec![0.0; n];
                sc_dense::gemv(1.0, a.as_ref(), p, 0.0, &mut out);
                out
            },
            |x| x.to_vec(),
            |w| w.to_vec(),
            1e-11,
            100,
        );
        assert!(res.stats.converged);
        assert!(res.stats.breakdown.is_none());
        // recompute ‖d − Aλ‖ / ‖d‖ externally: must equal the reported stat
        let mut alam = vec![0.0; n];
        sc_dense::gemv(1.0, a.as_ref(), &res.lambda, 0.0, &mut alam);
        let num = d
            .iter()
            .zip(&alam)
            .map(|(di, fi)| (di - fi) * (di - fi))
            .sum::<f64>()
            .sqrt();
        let rel = num / d.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!(
            (rel - res.stats.rel_residual).abs() <= 1e-14,
            "reported {} vs recomputed {rel}",
            res.stats.rel_residual
        );
    }

    #[test]
    fn false_convergence_of_the_recursive_residual_is_caught() {
        use std::cell::Cell;
        // An operator that injects one large deterministic error into its
        // 3rd application: the recursive residual update absorbs the bad
        // vector and can claim convergence while the true residual is far
        // off. The confirmation step must catch it and keep iterating until
        // λ genuinely solves the system.
        let n = 8;
        let a = Mat::from_fn(n, n, |i, j| {
            if i == j {
                4.0
            } else if i.abs_diff(j) == 1 {
                -1.0
            } else {
                0.0
            }
        });
        let d: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64).sin()).collect();
        let calls = Cell::new(0usize);
        let res = pcpg_preconditioned_of(
            &d,
            vec![0.0; n],
            |p| {
                let mut out = vec![0.0; n];
                sc_dense::gemv(1.0, a.as_ref(), p, 0.0, &mut out);
                calls.set(calls.get() + 1);
                if calls.get() == 3 {
                    out[0] += 10.0; // corrupt exactly one application
                }
                out
            },
            |x| x.to_vec(),
            |w| w.to_vec(),
            1e-10,
            200,
        );
        assert!(res.stats.converged, "must recover from the corrupted apply");
        let mut alam = vec![0.0; n];
        sc_dense::gemv(1.0, a.as_ref(), &res.lambda, 0.0, &mut alam);
        for i in 0..n {
            assert!(
                (alam[i] - d[i]).abs() < 1e-8,
                "dof {i}: residual {} — convergence was claimed falsely",
                alam[i] - d[i]
            );
        }
    }

    #[test]
    fn iteration_budget_respected() {
        let n = 30;
        let a = Mat::from_fn(
            n,
            n,
            |i, j| {
                if i == j {
                    1.0 + i as f64 * 100.0
                } else {
                    0.5
                }
            },
        );
        let d = vec![1.0; n];
        let res = pcpg_preconditioned_of(
            &d,
            vec![0.0; n],
            |p| {
                let mut out = vec![0.0; n];
                sc_dense::gemv(1.0, a.as_ref(), p, 0.0, &mut out);
                out
            },
            |x| x.to_vec(),
            |w| w.to_vec(),
            1e-16,
            3,
        );
        assert_eq!(res.stats.iterations, 3);
        assert!(!res.stats.converged);
    }
}
