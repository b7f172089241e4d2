//! Symmetric rank-k update: `C(lower) = beta * C + alpha * Aᵀ A`.
//!
//! This is the transposed flavour used by the Schur assembler
//! (`F = Yᵀ Y`, paper Eq. 14). Only the lower triangle of `C` is referenced
//! and written, matching BLAS `SYRK('L', 'T', ...)` semantics.

use crate::gemm::dot_slices;
use crate::mat::{MatMutOf, MatRefOf};
use crate::scalar::Scalar;

/// `C(lower) = beta * C(lower) + alpha * Aᵀ A` (sequential).
///
/// `A` is `k × n`, `C` is `n × n`. The strictly upper triangle of `C` is left
/// untouched. Above [`crate::blocked::PANEL_BLOCK_MIN_ORDER`] the update
/// routes to the cache-blocked variant ([`crate::syrk_t_blocked`]); smaller
/// problems run the scalar reference ([`syrk_t_scalar`]).
///
/// ```
/// use sc_dense::{syrk_t, Mat};
///
/// // A = [[1, 2]] (1×2)  =>  AᵀA = [[1, 2], [2, 4]], lower triangle stored
/// let a = Mat::from_col_major(1, 2, vec![1.0, 2.0]);
/// let mut c = Mat::zeros(2, 2);
/// syrk_t(1.0, a.as_ref(), 0.0, c.as_mut());
/// assert_eq!(c[(0, 0)], 1.0);
/// assert_eq!(c[(1, 0)], 2.0);
/// assert_eq!(c[(1, 1)], 4.0);
/// assert_eq!(c[(0, 1)], 0.0); // strictly upper untouched
/// ```
pub fn syrk_t<S: Scalar>(alpha: S, a: MatRefOf<'_, S>, beta: S, c: MatMutOf<'_, S>) {
    if a.ncols() >= crate::blocked::PANEL_BLOCK_MIN_ORDER && a.nrows() >= 16 {
        crate::blocked::syrk_t_blocked(alpha, a, beta, c);
    } else {
        syrk_t_scalar(alpha, a, beta, c);
    }
}

/// Scalar reference SYRK (the pre-blocking kernel, kept as the comparison
/// baseline for the blocked path).
pub fn syrk_t_scalar<S: Scalar>(alpha: S, a: MatRefOf<'_, S>, beta: S, mut c: MatMutOf<'_, S>) {
    let n = a.ncols();
    assert_eq!(c.nrows(), n, "syrk C row mismatch");
    assert_eq!(c.ncols(), n, "syrk C col mismatch");
    for j in 0..n {
        let aj = a.col(j);
        let ccol = c.col_mut(j);
        // sc-analyze: allow(float-eq)
        if beta == S::ZERO {
            for (i, cij) in ccol.iter_mut().enumerate().skip(j) {
                *cij = alpha * dot_slices(a.col(i), aj);
            }
        } else {
            for (i, cij) in ccol.iter_mut().enumerate().skip(j) {
                *cij = beta * *cij + alpha * dot_slices(a.col(i), aj);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mat::Mat;

    fn mk(m: usize, n: usize, seed: u64) -> Mat {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        Mat::from_fn(m, n, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    fn naive_lower(alpha: f64, a: &Mat, beta: f64, c: &Mat) -> Mat {
        let n = a.ncols();
        Mat::from_fn(n, n, |i, j| {
            if i < j {
                c[(i, j)]
            } else {
                let mut s = 0.0;
                for p in 0..a.nrows() {
                    s += a[(p, i)] * a[(p, j)];
                }
                alpha * s + beta * c[(i, j)]
            }
        })
    }

    #[test]
    fn syrk_matches_naive() {
        let a = mk(9, 6, 1);
        let mut c = mk(6, 6, 2);
        let expect = naive_lower(2.0, &a, 0.5, &c);
        syrk_t(2.0, a.as_ref(), 0.5, c.as_mut());
        assert!(crate::max_abs_diff(c.as_ref(), expect.as_ref()) < 1e-12);
    }

    #[test]
    fn syrk_beta_zero_ignores_garbage() {
        let a = mk(4, 3, 3);
        let mut c = Mat::from_fn(3, 3, |i, j| if i >= j { f64::NAN } else { 9.0 });
        syrk_t(1.0, a.as_ref(), 0.0, c.as_mut());
        for j in 0..3 {
            for i in j..3 {
                assert!(c[(i, j)].is_finite());
            }
        }
        assert_eq!(c[(0, 1)], 9.0, "upper triangle untouched");
    }

    #[test]
    fn syrk_result_is_positive_semidefinite_diagonal() {
        let a = mk(5, 4, 4);
        let mut c = Mat::zeros(4, 4);
        syrk_t(1.0, a.as_ref(), 0.0, c.as_mut());
        for i in 0..4 {
            assert!(c[(i, i)] >= 0.0);
        }
    }

    #[test]
    fn empty_k_scales_only() {
        let a = Mat::zeros(0, 3);
        let mut c = Mat::from_fn(3, 3, |_, _| 2.0);
        syrk_t(1.0, a.as_ref(), 0.5, c.as_mut());
        assert_eq!(c[(2, 0)], 1.0);
        assert_eq!(c[(0, 2)], 2.0); // upper untouched
    }

    #[test]
    fn f32_syrk_diagonal_nonnegative() {
        let a32 = mk(6, 5, 8).cast::<f32>();
        let mut c = crate::mat::MatOf::<f32>::zeros(5, 5);
        syrk_t(1.0f32, a32.as_ref(), 0.0f32, c.as_mut());
        for i in 0..5 {
            assert!(c[(i, i)] >= 0.0f32);
        }
    }
}
