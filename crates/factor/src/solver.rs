//! High-level sparse Cholesky solver: ordering + symbolic + numeric + solve,
//! with factor extraction. This is the per-subdomain "sparse linear solver
//! library" interface the FETI pipeline calls in its initialization /
//! preprocessing stages (paper §2.2).

use crate::simplicial::{simplicial_factorize, FactorError};
use crate::supernodal::{supernodal_factorize, SupernodalSymbolic};
use crate::symbolic::{analyze, Symbolic};
use sc_dense::Scalar;
use sc_order::Ordering;
use sc_sparse::{CscOf, CscPattern, Perm, SupernodeRuns};
use std::sync::Arc;

/// Numeric engine selector. Both engines produce the same CSC factor
/// (pattern of [`Symbolic`], values equal up to rounding), so everything
/// downstream — solves, factor extraction, Schur assembly — is
/// engine-independent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// Up-looking simplicial factorization (CHOLMOD analog): scalar, one row
    /// at a time. The independent reference the supernodal engine is tested
    /// against.
    Simplicial,
    /// Multifrontal factorization over relaxed supernodes (PARDISO analog):
    /// dense fronts on Level-3 kernels. The default.
    Supernodal,
}

/// Solver configuration.
#[derive(Clone, Copy, Debug)]
pub struct CholOptions {
    /// Fill-reducing ordering (default: nested dissection, the METIS
    /// stand-in used throughout the paper).
    pub ordering: Ordering,
    /// Numeric engine.
    pub engine: Engine,
}

impl Default for CholOptions {
    fn default() -> Self {
        CholOptions {
            ordering: Ordering::NestedDissection,
            engine: Engine::Supernodal,
        }
    }
}

/// The pattern-only half of a factorization: the fill-reducing permutation,
/// the symbolic analysis, the supernodal engine's front partition and the
/// supernode runs of the factor's pattern. All of it is a deterministic
/// function of the pattern of the analyzed matrix, so every matrix with that
/// pattern can be factorized against one shared `Arc<Analysis>` — the
/// congruent subdomains of a uniform decomposition share one per class.
pub struct Analysis {
    /// Pattern of the analyzed (unpermuted) matrix.
    analyzed: Arc<CscPattern>,
    perm: Perm,
    sym: Symbolic,
    /// Front partition of the supernodal engine (`None`: simplicial).
    fronts: Option<SupernodalSymbolic>,
    /// Fundamental supernodes of the factor's pattern, which the triangular
    /// solves sweep (either engine's factor has the pattern of `sym`).
    runs: SupernodeRuns,
}

impl Analysis {
    /// Analyze the pattern of `a` (full-symmetric CSC) under `perm` for
    /// `engine`. Reads no values.
    pub fn new<S: Scalar>(a: &CscOf<S>, perm: Perm, engine: Engine) -> Self {
        let sym = analyze(&a.sym_perm(&perm));
        let fronts = match engine {
            Engine::Simplicial => None,
            Engine::Supernodal => Some(SupernodalSymbolic::from_symbolic(&sym)),
        };
        let runs = SupernodeRuns::of_factor_pattern(sym.col_ptr(), sym.row_idx());
        Analysis {
            analyzed: Arc::clone(a.pattern()),
            perm,
            sym,
            fronts,
            runs,
        }
    }

    /// Whether `a` has exactly the pattern this analysis was computed from
    /// (an exact comparison of the stored indices, not a hash).
    pub fn matches<S: Scalar>(&self, a: &CscOf<S>) -> bool {
        a.nrows() == self.sym.n
            && (Arc::ptr_eq(a.pattern(), &self.analyzed) || **a.pattern() == *self.analyzed)
    }

    /// Numeric factorization of the permuted matrix `ap`.
    fn numeric<S: Scalar>(&self, ap: &CscOf<S>) -> Result<CscOf<S>, FactorError> {
        match &self.fronts {
            None => simplicial_factorize(ap, &self.sym),
            Some(fronts) => supernodal_factorize(ap, &self.sym, fronts),
        }
    }
}

/// A factorized SPD sparse matrix `A = Pᵀ L Lᵀ P`, generic over the working
/// precision: a shared pattern [`Analysis`] plus the factor's own values. The
/// [`SparseCholesky`] alias pins `f64`.
pub struct SparseCholeskyOf<S = f64> {
    analysis: Arc<Analysis>,
    l: CscOf<S>,
}

/// `f64` sparse Cholesky (the historical default working precision).
pub type SparseCholesky = SparseCholeskyOf<f64>;

impl<S: Scalar> SparseCholeskyOf<S> {
    /// Analyze and factorize `a` (full-symmetric CSC) in one call.
    pub fn factorize(a: &CscOf<S>, opts: CholOptions) -> Result<Self, FactorError> {
        let perm = opts.ordering.compute(a);
        Self::factorize_with_perm(a, perm, opts.engine)
    }

    /// Factorize with an externally computed permutation: an
    /// [`Analysis::new`] of its own followed by
    /// [`factorize_with_analysis`](Self::factorize_with_analysis).
    pub fn factorize_with_perm(
        a: &CscOf<S>,
        perm: Perm,
        engine: Engine,
    ) -> Result<Self, FactorError> {
        Self::factorize_with_analysis(a, Arc::new(Analysis::new(a, perm, engine)))
    }

    /// Numeric factorization of `a` against an existing, possibly shared,
    /// analysis. Precondition, as for [`refactorize`](Self::refactorize):
    /// `a` has **exactly the pattern** the analysis was computed from
    /// ([`Analysis::matches`], checked in debug builds).
    pub fn factorize_with_analysis(
        a: &CscOf<S>,
        analysis: Arc<Analysis>,
    ) -> Result<Self, FactorError> {
        debug_assert!(
            analysis.matches(a),
            "factorize_with_analysis needs the analyzed pattern"
        );
        let l = analysis.numeric(&a.sym_perm(&analysis.perm))?;
        Ok(SparseCholeskyOf { analysis, l })
    }

    /// Re-run the numeric factorization for a matrix with the **same
    /// pattern** but new values (the multi-step scenario of §2.2: the
    /// analysis is reused). Only this factor's values are replaced — the
    /// analysis, which sibling factors may share, is read, never written. On
    /// error the previous factor stays in place.
    pub fn refactorize(&mut self, a: &CscOf<S>) -> Result<(), FactorError> {
        let ap = a.sym_perm(&self.analysis.perm);
        self.l = self.analysis.numeric(&ap)?;
        Ok(())
    }

    /// The pattern analysis this factor was computed against (shared by
    /// every factor of the same pattern built from it).
    pub fn analysis(&self) -> &Arc<Analysis> {
        &self.analysis
    }

    /// Dimension of the factored matrix.
    pub fn n(&self) -> usize {
        self.analysis.sym.n
    }

    /// The fill-reducing permutation in use.
    pub fn perm(&self) -> &Perm {
        &self.analysis.perm
    }

    /// Symbolic analysis (elimination tree + factor pattern).
    pub fn symbolic(&self) -> &Symbolic {
        &self.analysis.sym
    }

    /// A copy of the factor `L` as CSC (in permuted index space).
    pub fn factor_csc(&self) -> CscOf<S> {
        self.l.clone()
    }

    /// Borrow the factor `L` (CSC, permuted index space, pattern of
    /// [`symbolic`](Self::symbolic)).
    pub fn factor_csc_ref(&self) -> &CscOf<S> {
        &self.l
    }

    /// The supernode runs of the factor's pattern, which every solve here
    /// sweeps: to pass (or [restrict](SupernodeRuns::restricted_to) to a
    /// sparse right-hand side's [`RowClosure`](sc_sparse::RowClosure) and
    /// pass) to [`sc_sparse::supernodal_lower_solve`] with
    /// [`factor_csc_ref`](Self::factor_csc_ref).
    pub fn supernode_runs(&self) -> &SupernodeRuns {
        &self.analysis.runs
    }

    /// Solve `A x = b`; `b` is in original (unpermuted) index space.
    pub fn solve(&self, b: &[S]) -> Vec<S> {
        let mut x = self.perm().apply(b); // x_perm[new] = b[old]
        self.solve_permuted_in_place(&mut x);
        self.perm().apply_inverse(&x)
    }

    /// Solve in permuted index space, in place (both triangular solves).
    fn solve_permuted_in_place(&self, x: &mut [S]) {
        self.solve_fwd_permuted(x);
        self.solve_bwd_permuted(x);
    }

    /// Forward solve only (`L y = P b`), in permuted space, in place.
    pub fn solve_fwd_permuted(&self, x: &mut [S]) {
        sc_sparse::supernodal_lower_solve(&self.l, &self.analysis.runs, x, &mut Vec::new());
    }

    /// Backward solve only (`Lᵀ x = y`), in permuted space, in place.
    pub fn solve_bwd_permuted(&self, x: &mut [S]) {
        sc_sparse::supernodal_lower_t_solve(&self.l, &self.analysis.runs, x, &mut Vec::new());
    }

    /// Factor non-zero count.
    pub fn factor_nnz(&self) -> usize {
        self.l.nnz()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_sparse::{Coo, Csc};

    fn laplace_2d(nx: usize) -> Csc {
        let n = nx * nx;
        let idx = |x: usize, y: usize| y * nx + x;
        let mut c = Coo::new(n, n);
        for y in 0..nx {
            for x in 0..nx {
                let v = idx(x, y);
                c.push(v, v, 4.01);
                if x > 0 {
                    c.push(v, idx(x - 1, y), -1.0);
                }
                if x + 1 < nx {
                    c.push(v, idx(x + 1, y), -1.0);
                }
                if y > 0 {
                    c.push(v, idx(x, y - 1), -1.0);
                }
                if y + 1 < nx {
                    c.push(v, idx(x, y + 1), -1.0);
                }
            }
        }
        c.to_csc()
    }

    fn residual_inf(a: &Csc, x: &[f64], b: &[f64]) -> f64 {
        let mut r = vec![0.0; b.len()];
        a.spmv(1.0, x, 0.0, &mut r);
        r.iter()
            .zip(b)
            .map(|(ri, bi)| (ri - bi).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn both_engines_solve_identically() {
        let a = laplace_2d(8);
        let n = a.ncols();
        let b: Vec<f64> = (0..n).map(|i| ((i * 7 % 11) as f64) - 5.0).collect();
        for engine in [Engine::Simplicial, Engine::Supernodal] {
            let f = SparseCholesky::factorize(
                &a,
                CholOptions {
                    ordering: Ordering::NestedDissection,
                    engine,
                },
            )
            .unwrap();
            let x = f.solve(&b);
            assert!(residual_inf(&a, &x, &b) < 1e-9, "{engine:?}");
        }
    }

    #[test]
    fn all_orderings_give_same_solution() {
        let a = laplace_2d(6);
        let n = a.ncols();
        let b: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let mut solutions = Vec::new();
        for ordering in [
            Ordering::Natural,
            Ordering::Rcm,
            Ordering::MinimumDegree,
            Ordering::NestedDissection,
        ] {
            let f = SparseCholesky::factorize(
                &a,
                CholOptions {
                    ordering,
                    engine: Engine::Simplicial,
                },
            )
            .unwrap();
            solutions.push(f.solve(&b));
        }
        for s in &solutions[1..] {
            for i in 0..n {
                assert!((s[i] - solutions[0][i]).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn nested_dissection_reduces_fill_vs_natural() {
        let a = laplace_2d(16);
        let f_nat = SparseCholesky::factorize(
            &a,
            CholOptions {
                ordering: Ordering::Natural,
                engine: Engine::Simplicial,
            },
        )
        .unwrap();
        let f_nd = SparseCholesky::factorize(
            &a,
            CholOptions {
                ordering: Ordering::NestedDissection,
                engine: Engine::Simplicial,
            },
        )
        .unwrap();
        assert!(
            (f_nd.factor_nnz() as f64) < 0.9 * f_nat.factor_nnz() as f64,
            "ND fill {} vs natural {}",
            f_nd.factor_nnz(),
            f_nat.factor_nnz()
        );
    }

    /// `a` with one more symmetric off-diagonal pair, `(0, n−1)`.
    fn with_extra_entry(a: &Csc) -> Csc {
        let n = a.ncols();
        let mut c = Coo::new(n, n);
        for j in 0..n {
            let (rows, vals) = a.col(j);
            for (&i, &v) in rows.iter().zip(vals) {
                c.push(i, j, v);
            }
        }
        c.push(0, n - 1, -0.01);
        c.push(n - 1, 0, -0.01);
        c.to_csc()
    }

    #[test]
    fn analysis_matches_only_its_exact_pattern() {
        let a = laplace_2d(6);
        let analysis = Analysis::new(
            &a,
            Ordering::NestedDissection.compute(&a),
            Engine::Supernodal,
        );
        assert!(analysis.matches(&a));
        let mut scaled = a.clone();
        scaled.values_mut()[0] = 9.0;
        assert!(
            analysis.matches(&scaled),
            "values are not part of the pattern"
        );
        assert!(!analysis.matches(&with_extra_entry(&a)));
        assert!(!analysis.matches(&laplace_2d(5)));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "needs the analyzed pattern")]
    fn factorize_with_analysis_rejects_another_pattern() {
        let a = laplace_2d(6);
        let perm = Ordering::NestedDissection.compute(&a);
        let analysis = Arc::new(Analysis::new(&a, perm, Engine::Supernodal));
        let _ = SparseCholesky::factorize_with_analysis(&with_extra_entry(&a), analysis);
    }

    #[test]
    fn shared_analysis_refactorizes_without_aliasing() {
        let a = laplace_2d(7);
        let n = a.ncols();
        let b: Vec<f64> = (0..n).map(|i| ((i * 5 % 9) as f64) - 4.0).collect();
        for engine in [Engine::Simplicial, Engine::Supernodal] {
            let perm = Ordering::NestedDissection.compute(&a);
            let analysis = Arc::new(Analysis::new(&a, perm.clone(), engine));
            let mut first =
                SparseCholesky::factorize_with_analysis(&a, Arc::clone(&analysis)).unwrap();
            let sibling =
                SparseCholesky::factorize_with_analysis(&a, Arc::clone(&analysis)).unwrap();
            let alone = SparseCholesky::factorize_with_perm(&a, perm, engine).unwrap();
            assert!(Arc::ptr_eq(first.analysis(), sibling.analysis()));
            assert_eq!(first.factor_csc_ref(), alone.factor_csc_ref(), "{engine:?}");
            let (l_before, x_before) = (sibling.factor_csc(), sibling.solve(&b));

            let mut scaled = a.clone();
            for v in scaled.values_mut() {
                *v *= 3.0;
            }
            first.refactorize(&scaled).unwrap();
            assert_ne!(first.factor_csc_ref(), &l_before, "{engine:?}");
            assert!(residual_inf(&scaled, &first.solve(&b), &b) < 1e-9);
            assert_eq!(sibling.factor_csc_ref(), &l_before, "{engine:?}");
            let x_after = sibling.solve(&b);
            let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&x_after), bits(&x_before), "{engine:?}");
        }
    }

    #[test]
    fn refactorize_reuses_symbolic() {
        let a = laplace_2d(6);
        let n = a.ncols();
        let mut f = SparseCholesky::factorize(&a, CholOptions::default()).unwrap();
        let mut a2 = a.clone();
        for v in a2.values_mut() {
            *v *= 3.0;
        }
        f.refactorize(&a2).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64) * 0.1).collect();
        let x = f.solve(&b);
        assert!(residual_inf(&a2, &x, &b) < 1e-9);
    }

    #[test]
    fn f32_solver_tracks_f64_solution() {
        let a = laplace_2d(8);
        let n = a.ncols();
        let b: Vec<f64> = (0..n).map(|i| ((i * 7 % 11) as f64) - 5.0).collect();
        let f64s = SparseCholesky::factorize(&a, CholOptions::default()).unwrap();
        let x64 = f64s.solve(&b);
        let a32 = a.cast::<f32>();
        let b32: Vec<f32> = b.iter().map(|&v| v as f32).collect(); // sc-analyze: allow(precision-discipline)
        for engine in [Engine::Simplicial, Engine::Supernodal] {
            let f32s = SparseCholeskyOf::<f32>::factorize(
                &a32,
                CholOptions {
                    ordering: Ordering::NestedDissection,
                    engine,
                },
            )
            .unwrap();
            let x32 = f32s.solve(&b32);
            for i in 0..n {
                assert!(
                    (f64::from(x32[i]) - x64[i]).abs() < 1e-3,
                    "{engine:?} drift at {i}"
                );
            }
        }
    }

    #[test]
    fn extracted_factor_reconstructs_permuted_matrix() {
        let a = laplace_2d(5);
        let f = SparseCholesky::factorize(&a, CholOptions::default()).unwrap();
        let l = f.factor_csc();
        let ap = a.sym_perm(f.perm());
        // ‖L Lᵀ − P A Pᵀ‖
        let ld = l.to_dense();
        let apd = ap.to_dense();
        let n = a.ncols();
        for i in 0..n {
            for j in 0..=i {
                let mut s = 0.0;
                for k in 0..=j {
                    s += ld[(i, k)] * ld[(j, k)];
                }
                assert!((s - apd[(i, j)]).abs() < 1e-10);
            }
        }
    }
}
