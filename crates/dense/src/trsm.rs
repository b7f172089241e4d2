//! Dense triangular solve with multiple right-hand sides (TRSM).
//!
//! Only the variants the assembler needs: lower-triangular factor applied
//! from the left, non-transposed (`L X = B`, forward substitution) and
//! transposed (`Lᵀ X = B`, backward substitution). The solves are in-place:
//! on return the RHS matrix holds the solution, matching the paper's
//! description of TRSM as an in-place routine (§3.2).

use crate::gemm::axpy;
use crate::mat::{MatMutOf, MatRefOf};
use crate::scalar::Scalar;

/// Solve `L X = B` in place, `L` lower triangular (non-unit diagonal).
///
/// Above [`crate::blocked::PANEL_BLOCK_MIN_ORDER`] (with at least a handful
/// of RHS columns) the solve routes to the cache-blocked variant
/// ([`crate::trsm_lower_left_blocked`]); smaller problems run the scalar
/// reference ([`trsm_lower_left_scalar`]).
///
/// ```
/// use sc_dense::{trsm_lower_left, Mat};
///
/// // L = [[2, 0], [1, 3]], B = [[2], [7]]  =>  X = [[1], [2]]
/// let l = Mat::from_col_major(2, 2, vec![2.0, 1.0, 0.0, 3.0]);
/// let mut b = Mat::from_col_major(2, 1, vec![2.0, 7.0]);
/// trsm_lower_left(l.as_ref(), b.as_mut());
/// assert_eq!(b[(0, 0)], 1.0);
/// assert_eq!(b[(1, 0)], 2.0);
/// ```
pub fn trsm_lower_left<S: Scalar>(l: MatRefOf<'_, S>, b: MatMutOf<'_, S>) {
    if l.nrows() >= crate::blocked::PANEL_BLOCK_MIN_ORDER && b.ncols() >= 4 {
        crate::blocked::trsm_lower_left_blocked(l, b);
    } else {
        trsm_lower_left_scalar(l, b);
    }
}

/// Scalar reference forward substitution (the pre-blocking kernel, kept as
/// the comparison baseline for the blocked path).
///
/// Column-sweep forward substitution: for each factor column `k`, the
/// just-computed solution row `k` is eliminated from all rows below via a
/// contiguous AXPY on the RHS column. Cost `n² m` flops for an `n × n` factor
/// and `n × m` RHS.
pub fn trsm_lower_left_scalar<S: Scalar>(l: MatRefOf<'_, S>, mut b: MatMutOf<'_, S>) {
    let n = l.nrows();
    assert_eq!(l.ncols(), n, "factor must be square");
    assert_eq!(b.nrows(), n, "RHS row mismatch");
    for j in 0..b.ncols() {
        let bcol = b.col_mut(j);
        for k in 0..n {
            let lk = l.col(k);
            let xk = bcol[k] / lk[k];
            bcol[k] = xk;
            // no zero-value fast path: a real BLAS TRSM performs the full
            // update regardless of values, and the orig-vs-optimized
            // comparisons in the benches rely on that behaviour
            axpy(-xk, &lk[k + 1..], &mut bcol[k + 1..]);
        }
    }
}

/// Solve `Lᵀ X = B` in place, `L` lower triangular (non-unit diagonal).
///
/// Backward substitution expressed over the columns of `L` (dot products
/// against the stored lower triangle).
pub fn trsm_lower_left_t<S: Scalar>(l: MatRefOf<'_, S>, mut b: MatMutOf<'_, S>) {
    let n = l.nrows();
    assert_eq!(l.ncols(), n, "factor must be square");
    assert_eq!(b.nrows(), n, "RHS row mismatch");
    for j in 0..b.ncols() {
        let bcol = b.col_mut(j);
        for k in (0..n).rev() {
            let lk = l.col(k);
            // x_k = (b_k - L[k+1.., k] · x[k+1..]) / L[k, k]
            let mut s = bcol[k];
            for i in k + 1..n {
                s -= lk[i] * bcol[i];
            }
            bcol[k] = s / lk[k];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{gemm, Trans};
    use crate::mat::Mat;

    fn lower_factor(n: usize, seed: u64) -> Mat {
        let mut state = seed | 1;
        Mat::from_fn(n, n, |i, j| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0;
            if i == j {
                2.0 + r.abs() // well away from zero
            } else if i > j {
                0.5 * r
            } else {
                0.0
            }
        })
    }

    fn rand_mat(m: usize, n: usize, seed: u64) -> Mat {
        let mut state = seed | 1;
        Mat::from_fn(m, n, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    #[test]
    fn forward_solve_reconstructs_rhs() {
        let n = 12;
        let l = lower_factor(n, 1);
        let b = rand_mat(n, 5, 2);
        let mut x = b.clone();
        trsm_lower_left(l.as_ref(), x.as_mut());
        // L * X should equal B
        let mut lx = Mat::zeros(n, 5);
        gemm(
            1.0,
            l.as_ref(),
            Trans::No,
            x.as_ref(),
            Trans::No,
            0.0,
            lx.as_mut(),
        );
        assert!(crate::max_abs_diff(lx.as_ref(), b.as_ref()) < 1e-10);
    }

    #[test]
    fn backward_solve_reconstructs_rhs() {
        let n = 10;
        let l = lower_factor(n, 3);
        let b = rand_mat(n, 4, 4);
        let mut x = b.clone();
        trsm_lower_left_t(l.as_ref(), x.as_mut());
        let mut ltx = Mat::zeros(n, 4);
        gemm(
            1.0,
            l.as_ref(),
            Trans::Yes,
            x.as_ref(),
            Trans::No,
            0.0,
            ltx.as_mut(),
        );
        assert!(crate::max_abs_diff(ltx.as_ref(), b.as_ref()) < 1e-10);
    }

    #[test]
    fn forward_preserves_zeros_above_pivot() {
        // Fundamental stepped-shape property (paper §3.2): zeros above the
        // column pivot are preserved by forward substitution.
        let n = 8;
        let l = lower_factor(n, 5);
        let mut b = Mat::zeros(n, 3);
        // column j has pivot at row 2*j: zeros above must survive
        for j in 0..3 {
            for i in (2 * j)..n {
                b[(i, j)] = (i + j + 1) as f64;
            }
        }
        trsm_lower_left(l.as_ref(), b.as_mut());
        for j in 0..3 {
            for i in 0..(2 * j) {
                assert_eq!(b[(i, j)], 0.0, "zero above pivot destroyed at ({i},{j})");
            }
        }
    }

    #[test]
    fn identity_factor_is_noop() {
        let l = Mat::identity(6);
        let b = rand_mat(6, 2, 6);
        let mut x = b.clone();
        trsm_lower_left(l.as_ref(), x.as_mut());
        assert!(crate::max_abs_diff(x.as_ref(), b.as_ref()) < 1e-15);
        trsm_lower_left_t(l.as_ref(), x.as_mut());
        assert!(crate::max_abs_diff(x.as_ref(), b.as_ref()) < 1e-15);
    }

    #[test]
    fn subview_solve_matches_extracted() {
        // Solving on a trailing-block view (leading dimension larger than
        // its order) must equal solving an extracted copy.
        let n = 9;
        let p = 4;
        let l = lower_factor(n, 7);
        let b = rand_mat(n - p, 3, 8);
        let mut x_view = b.clone();
        trsm_lower_left(l.as_ref().sub(p, p, n - p, n - p), x_view.as_mut());
        let lsub = l.submatrix(p, p, n - p, n - p);
        let mut x_copy = b.clone();
        trsm_lower_left(lsub.as_ref(), x_copy.as_mut());
        assert!(crate::max_abs_diff(x_view.as_ref(), x_copy.as_ref()) < 1e-15);
    }

    #[test]
    fn f32_solve_tracks_f64_within_eps() {
        let n = 8;
        let l = lower_factor(n, 9);
        let b = rand_mat(n, 3, 10);
        let mut x64 = b.clone();
        trsm_lower_left(l.as_ref(), x64.as_mut());
        let l32 = l.cast::<f32>();
        let mut x32 = b.cast::<f32>();
        trsm_lower_left(l32.as_ref(), x32.as_mut());
        assert!(crate::max_abs_diff(x32.cast::<f64>().as_ref(), x64.as_ref()) < 1e-4);
    }
}
