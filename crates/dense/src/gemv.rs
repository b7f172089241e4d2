//! Dense matrix-vector kernels over full storage: GEMV, transposed GEMV,
//! triangular solves with a single RHS, and dot products — the coarse
//! problem of the FETI solver and the reference products of the tests. The
//! symmetric `F̃ᵢ` of the explicit dual operator is applied from packed
//! storage by [`crate::symv`](mod@crate::symv) instead.

use crate::gemm::{axpy, dot_slices};
use crate::mat::MatRefOf;
use crate::scalar::Scalar;

/// `y = alpha * A x + beta * y`.
pub fn gemv<S: Scalar>(alpha: S, a: MatRefOf<'_, S>, x: &[S], beta: S, y: &mut [S]) {
    assert_eq!(a.ncols(), x.len(), "gemv x length mismatch");
    assert_eq!(a.nrows(), y.len(), "gemv y length mismatch");
    // sc-analyze: allow(float-eq)
    if beta == S::ZERO {
        y.fill(S::ZERO);
    // sc-analyze: allow(float-eq)
    } else if beta != S::ONE {
        for v in y.iter_mut() {
            *v *= beta;
        }
    }
    for (j, &xj) in x.iter().enumerate() {
        let w = alpha * xj;
        // sc-analyze: allow(float-eq)
        if w != S::ZERO {
            axpy(w, a.col(j), y);
        }
    }
}

/// `y = alpha * Aᵀ x + beta * y`.
pub fn gemv_t<S: Scalar>(alpha: S, a: MatRefOf<'_, S>, x: &[S], beta: S, y: &mut [S]) {
    assert_eq!(a.nrows(), x.len(), "gemv_t x length mismatch");
    assert_eq!(a.ncols(), y.len(), "gemv_t y length mismatch");
    for (j, yj) in y.iter_mut().enumerate() {
        let s = dot_slices(a.col(j), x);
        *yj = alpha * s + if beta == S::ZERO { S::ZERO } else { beta * *yj }; // sc-analyze: allow(float-eq)
    }
}

/// Solve `L x = b` in place for a dense lower-triangular `L`.
pub fn trsv_lower<S: Scalar>(l: MatRefOf<'_, S>, x: &mut [S]) {
    let n = l.nrows();
    assert_eq!(l.ncols(), n);
    assert_eq!(x.len(), n);
    for k in 0..n {
        let lk = l.col(k);
        let xk = x[k] / lk[k];
        x[k] = xk;
        // sc-analyze: allow(float-eq)
        if xk != S::ZERO {
            axpy(-xk, &lk[k + 1..], &mut x[k + 1..]);
        }
    }
}

/// Solve `Lᵀ x = b` in place for a dense lower-triangular `L`.
pub fn trsv_lower_t<S: Scalar>(l: MatRefOf<'_, S>, x: &mut [S]) {
    let n = l.nrows();
    assert_eq!(l.ncols(), n);
    assert_eq!(x.len(), n);
    for k in (0..n).rev() {
        let lk = l.col(k);
        let mut s = x[k];
        for i in k + 1..n {
            s -= lk[i] * x[i];
        }
        x[k] = s / lk[k];
    }
}

/// Euclidean dot product of two equal-length slices.
pub fn dot<S: Scalar>(x: &[S], y: &[S]) -> S {
    assert_eq!(x.len(), y.len());
    dot_slices(x, y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mat::Mat;

    fn mk(m: usize, n: usize, seed: u64) -> Mat {
        let mut state = seed | 1;
        Mat::from_fn(m, n, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    #[test]
    fn gemv_matches_naive() {
        let a = mk(4, 3, 1);
        let x = [1.0, -2.0, 0.5];
        let mut y = [1.0, 1.0, 1.0, 1.0];
        gemv(2.0, a.as_ref(), &x, 0.5, &mut y);
        for i in 0..4 {
            let mut s = 0.0;
            for j in 0..3 {
                s += a[(i, j)] * x[j];
            }
            assert!((y[i] - (2.0 * s + 0.5)).abs() < 1e-14);
        }
    }

    #[test]
    fn gemv_t_matches_naive() {
        let a = mk(4, 3, 2);
        let x = [0.3, -1.0, 2.0, 0.7];
        let mut y = [0.0; 3];
        gemv_t(1.0, a.as_ref(), &x, 0.0, &mut y);
        for j in 0..3 {
            let mut s = 0.0;
            for i in 0..4 {
                s += a[(i, j)] * x[i];
            }
            assert!((y[j] - s).abs() < 1e-14);
        }
    }

    #[test]
    fn trsv_roundtrips() {
        let n = 7;
        let l = Mat::from_fn(n, n, |i, j| {
            if i == j {
                3.0
            } else if i > j {
                ((i * j + 1) % 3) as f64 * 0.25
            } else {
                0.0
            }
        });
        let b: Vec<f64> = (0..n).map(|i| (i as f64) - 2.5).collect();
        let mut x = b.clone();
        trsv_lower(l.as_ref(), &mut x);
        // L x == b
        let mut lx = vec![0.0; n];
        gemv(1.0, l.as_ref(), &x, 0.0, &mut lx);
        for i in 0..n {
            assert!((lx[i] - b[i]).abs() < 1e-12);
        }
        let mut xt = b.clone();
        trsv_lower_t(l.as_ref(), &mut xt);
        let mut ltx = vec![0.0; n];
        gemv_t(1.0, l.as_ref(), &xt, 0.0, &mut ltx);
        for i in 0..n {
            assert!((ltx[i] - b[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        let empty: [f64; 0] = [];
        assert_eq!(dot(&empty, &empty), 0.0);
    }

    #[test]
    fn f32_trsv_solves() {
        let l: crate::mat::MatOf<f32> = crate::mat::MatOf::from_fn(3, 3, |i, j| {
            if i == j {
                2.0
            } else if i > j {
                0.5
            } else {
                0.0
            }
        });
        let mut x = [2.0f32, 5.0, 7.75];
        trsv_lower(l.as_ref(), &mut x);
        assert_eq!(x, [1.0f32, 2.25, 3.0625]);
    }
}
