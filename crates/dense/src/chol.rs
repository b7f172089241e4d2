//! Dense Cholesky factorization, full and partial.
//!
//! The full factorization backs the FETI coarse problem (`GᵀG`) and dense
//! reference Schur complements in tests. The *partial* factorization is the
//! workhorse of the multifrontal sparse Cholesky in `sc-factor`: it eliminates
//! the leading `p` pivots of a frontal matrix and leaves the trailing Schur
//! complement (the "update matrix") in place.

use crate::gemm::axpy;
use crate::mat::MatMutOf;
use crate::scalar::Scalar;

/// Error returned when a pivot is not strictly positive, i.e. the matrix is
/// not numerically positive definite.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CholError {
    /// Index of the offending pivot.
    pub pivot: usize,
    /// Value found on the diagonal before taking the square root (widened to
    /// `f64` regardless of the working precision).
    pub value: f64,
}

impl std::fmt::Display for CholError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "matrix not positive definite: pivot {} has value {:.3e}",
            self.pivot, self.value
        )
    }
}

impl std::error::Error for CholError {}

/// Factor `A = L Lᵀ` in place. On success the lower triangle of `a` holds `L`
/// (the strictly upper triangle is left untouched).
///
/// ```
/// use sc_dense::{cholesky_in_place, Mat};
///
/// // A = [[4, 2], [2, 5]]  =>  L = [[2, 0], [1, 2]]
/// let mut a = Mat::from_col_major(2, 2, vec![4.0, 2.0, 2.0, 5.0]);
/// cholesky_in_place(a.as_mut()).unwrap();
/// assert_eq!(a[(0, 0)], 2.0);
/// assert_eq!(a[(1, 0)], 1.0);
/// assert_eq!(a[(1, 1)], 2.0);
/// ```
pub fn cholesky_in_place<S: Scalar>(a: MatMutOf<'_, S>) -> Result<(), CholError> {
    let n = a.nrows();
    assert_eq!(a.ncols(), n, "cholesky needs a square matrix");
    partial_cholesky_in_place(a, n)
}

/// Eliminate the leading `p` pivots of the symmetric matrix in `a` (lower
/// triangle stored), leaving:
///
/// - columns `0..p`: the first `p` columns of the Cholesky factor `L`;
/// - trailing block `a[p.., p..]`: the Schur complement
///   `A₂₂ − L₂₁ L₂₁ᵀ` (lower triangle).
///
/// Above [`crate::blocked::PANEL_BLOCK_MIN_ORDER`] the elimination routes to
/// the blocked panel variant ([`crate::partial_cholesky_blocked`]); smaller
/// fronts run the scalar reference ([`partial_cholesky_scalar`]).
pub fn partial_cholesky_in_place<S: Scalar>(a: MatMutOf<'_, S>, p: usize) -> Result<(), CholError> {
    if a.nrows() >= crate::blocked::PANEL_BLOCK_MIN_ORDER && p >= crate::pack::MR {
        crate::blocked::partial_cholesky_blocked(a, p)
    } else {
        partial_cholesky_scalar(a, p)
    }
}

/// Scalar reference partial Cholesky (the pre-blocking kernel, kept as the
/// comparison baseline for the blocked path).
///
/// This is right-looking outer-product elimination; with `p == n` it is a
/// complete Cholesky factorization.
pub fn partial_cholesky_scalar<S: Scalar>(
    mut a: MatMutOf<'_, S>,
    p: usize,
) -> Result<(), CholError> {
    let n = a.nrows();
    assert_eq!(a.ncols(), n, "partial cholesky needs a square matrix");
    assert!(p <= n);
    for k in 0..p {
        let dkk = a.get(k, k);
        if dkk <= S::ZERO || !dkk.is_finite() {
            return Err(CholError {
                pivot: k,
                value: dkk.to_f64(),
            });
        }
        let lkk = dkk.sqrt();
        {
            let ck = a.col_mut(k);
            ck[k] = lkk;
            let inv = S::ONE / lkk;
            for v in &mut ck[k + 1..] {
                *v *= inv;
            }
        }
        // Trailing update: A[j.., j] -= L[j.., k] * L[j, k] for j > k.
        for j in k + 1..n {
            let ljk = a.get(j, k);
            // sc-analyze: allow(float-eq)
            if ljk == S::ZERO {
                continue;
            }
            // Need disjoint access to columns k (read) and j (write): split at j.
            let (left, mut right) = a.as_mut().split_cols_at(j);
            let lk = &left.col(k)[j..];
            let cj = &mut right.col_mut(0)[j..];
            axpy(-ljk, lk, cj);
        }
    }
    Ok(())
}

/// Solve `A x = b` given the in-place factor produced by
/// [`cholesky_in_place`] (two triangular solves).
pub fn cholesky_solve<S: Scalar>(l: crate::mat::MatRefOf<'_, S>, b: &mut [S]) {
    crate::gemv::trsv_lower(l, b);
    crate::gemv::trsv_lower_t(l, b);
}

/// log-determinant of `A = L Lᵀ` from its factor: `2 Σ log L[k,k]`
/// (accumulated in the working precision, reported in `f64`).
pub fn cholesky_logdet<S: Scalar>(l: crate::mat::MatRefOf<'_, S>) -> f64 {
    let mut s = S::ZERO;
    for k in 0..l.nrows() {
        s += l.get(k, k).ln();
    }
    2.0 * s.to_f64()
}

/// Explicitly form the Schur complement `C − Bᵀ A⁻¹ B` of the block matrix
/// `[A B; Bᵀ C]` densely. Reference implementation used by tests against the
/// sparse assembler (`A` SPD `n × n`, `B` `n × m`, `C` lower-stored `m × m`).
pub fn dense_schur_reference<S: Scalar>(
    a: &crate::mat::MatOf<S>,
    b: &crate::mat::MatOf<S>,
    c: &crate::mat::MatOf<S>,
) -> Result<crate::mat::MatOf<S>, CholError> {
    let n = a.nrows();
    let m = b.ncols();
    assert_eq!(a.ncols(), n);
    assert_eq!(b.nrows(), n);
    assert_eq!(c.nrows(), m);
    assert_eq!(c.ncols(), m);
    let mut l = a.clone();
    cholesky_in_place(l.as_mut())?;
    // Y = L^{-1} B
    let mut y = b.clone();
    crate::trsm::trsm_lower_left(l.as_ref(), y.as_mut());
    // S = C - Yᵀ Y (lower triangle)
    let mut s = c.clone();
    crate::syrk::syrk_t(-S::ONE, y.as_ref(), S::ONE, s.as_mut());
    s.symmetrize_from_lower();
    Ok(s)
}

/// Check `‖L Lᵀ − A‖_max` for a factor/matrix pair (test helper).
pub fn reconstruction_error<S: Scalar>(l: &crate::mat::MatOf<S>, a: &crate::mat::MatOf<S>) -> f64 {
    let n = l.nrows();
    let mut err = 0.0f64;
    for j in 0..n {
        for i in j..n {
            // (L Lᵀ)[i,j] = Σ_k L[i,k] L[j,k] for k <= min(i,j) = j
            let mut s = S::ZERO;
            for k in 0..=j {
                s += l[(i, k)] * l[(j, k)];
            }
            err = err.max((s - a[(i, j)]).abs().to_f64());
        }
    }
    err
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mat::Mat;

    fn spd(n: usize, seed: u64) -> Mat {
        let mut state = seed | 1;
        let g = Mat::from_fn(n, n, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        });
        // A = GᵀG + n·I  => SPD
        let mut a = Mat::zeros(n, n);
        crate::syrk::syrk_t(1.0, g.as_ref(), 0.0, a.as_mut());
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        a.symmetrize_from_lower();
        a
    }

    #[test]
    fn full_factorization_reconstructs() {
        let a = spd(15, 1);
        let mut l = a.clone();
        cholesky_in_place(l.as_mut()).unwrap();
        assert!(reconstruction_error(&l, &a) < 1e-10);
    }

    #[test]
    fn solve_produces_small_residual() {
        let n = 12;
        let a = spd(n, 2);
        let mut l = a.clone();
        cholesky_in_place(l.as_mut()).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let mut x = b.clone();
        cholesky_solve(l.as_ref(), &mut x);
        let mut r = vec![0.0; n];
        crate::gemv::gemv(1.0, a.as_ref(), &x, 0.0, &mut r);
        for i in 0..n {
            assert!((r[i] - b[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn indefinite_matrix_rejected() {
        let mut a = Mat::identity(3);
        a[(1, 1)] = -1.0;
        let err = cholesky_in_place(a.as_mut()).unwrap_err();
        assert_eq!(err.pivot, 1);
        assert!(err.value < 0.0);
    }

    #[test]
    fn partial_factorization_leaves_schur_complement() {
        let n = 10;
        let p = 4;
        let a = spd(n, 3);
        let mut f = a.clone();
        partial_cholesky_in_place(f.as_mut(), p).unwrap();
        // Expected Schur complement: A22 - A21 A11^{-1} A12, computed densely.
        let a11 = a.submatrix(0, 0, p, p);
        let a21 = a.submatrix(p, 0, n - p, p);
        let a22 = a.submatrix(p, p, n - p, n - p);
        let s = dense_schur_reference(&a11, &a21.transpose(), &a22).unwrap();
        for j in 0..(n - p) {
            for i in j..(n - p) {
                assert!(
                    (f[(p + i, p + j)] - s[(i, j)]).abs() < 1e-9,
                    "schur mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn partial_with_p_equals_n_is_full() {
        let a = spd(8, 4);
        let mut f1 = a.clone();
        let mut f2 = a.clone();
        cholesky_in_place(f1.as_mut()).unwrap();
        partial_cholesky_in_place(f2.as_mut(), 8).unwrap();
        assert!(crate::max_abs_diff(f1.as_ref(), f2.as_ref()) < 1e-14);
    }

    #[test]
    fn logdet_matches_product_of_pivots() {
        let a = spd(6, 5);
        let mut l = a.clone();
        cholesky_in_place(l.as_mut()).unwrap();
        let ld = cholesky_logdet(l.as_ref());
        let mut prod = 1.0;
        for k in 0..6 {
            prod *= l[(k, k)] * l[(k, k)];
        }
        assert!((ld - prod.ln()).abs() < 1e-10);
    }

    #[test]
    fn dense_schur_reference_identity_blocks() {
        // A = I, B = I, C = 2I  => S = 2I - I = I
        let a = Mat::identity(4);
        let b = Mat::identity(4);
        let mut c = Mat::identity(4);
        for i in 0..4 {
            c[(i, i)] = 2.0;
        }
        let s = dense_schur_reference(&a, &b, &c).unwrap();
        assert!(crate::max_abs_diff(s.as_ref(), Mat::identity(4).as_ref()) < 1e-12);
    }

    #[test]
    fn f32_factorization_reconstructs_loosely() {
        let a = spd(10, 6);
        let a32 = a.cast::<f32>();
        let mut l32 = a32.clone();
        cholesky_in_place(l32.as_mut()).unwrap();
        assert!(reconstruction_error(&l32, &a32) < 1e-3);
        // widened error vs exact f64 factor also small
        let mut l64 = a.clone();
        cholesky_in_place(l64.as_mut()).unwrap();
        assert!(crate::max_abs_diff(l32.cast::<f64>().as_ref(), l64.as_ref()) < 1e-3);
    }
}
