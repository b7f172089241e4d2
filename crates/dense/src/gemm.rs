//! General matrix-matrix multiply: `C = alpha * op(A) * op(B) + beta * C`.
//!
//! The kernel is written for column-major data: the `NoTrans × NoTrans` case
//! runs as a sequence of column AXPYs (contiguous, vectorizable) and the
//! `Trans × NoTrans` case as column dot products. These two cases are the only
//! ones on the assembler's hot path (factor-splitting TRSM uses
//! `C -= L_sub * R_top`; output-split SYRK uses `C += Yᵀ * Y`).

use crate::mat::{MatMutOf, MatRefOf};
use crate::scalar::Scalar;

/// Transposition selector for [`gemm`] operands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trans {
    /// Use the operand as stored.
    No,
    /// Use the transpose of the operand.
    Yes,
}

#[inline]
pub(crate) fn op_shape<S: Scalar>(a: MatRefOf<'_, S>, t: Trans) -> (usize, usize) {
    match t {
        Trans::No => (a.nrows(), a.ncols()),
        Trans::Yes => (a.ncols(), a.nrows()),
    }
}

/// `C = alpha * op(A) * op(B) + beta * C` (sequential).
///
/// Shapes: `op(A)` is `m × k`, `op(B)` is `k × n`, `C` is `m × n`.
///
/// Above [`crate::blocked::GEMM_BLOCK_MIN_VOLUME`] the product routes to the
/// cache-blocked microkernel ([`crate::gemm_blocked`]); smaller problems run
/// the scalar reference ([`gemm_scalar`]). `beta == 0` always overwrites `C`
/// (NaN/inf in uninitialized output storage does not survive).
///
/// ```
/// use sc_dense::{gemm, Mat, Trans};
///
/// let a = Mat::from_fn(2, 3, |i, j| (i + j) as f64);
/// let b = Mat::from_fn(3, 2, |i, j| (i * 2 + j) as f64);
/// let mut c = Mat::zeros(2, 2);
/// gemm(1.0, a.as_ref(), Trans::No, b.as_ref(), Trans::No, 0.0, c.as_mut());
/// // C[0,0] = 0*0 + 1*2 + 2*4 = 10
/// assert_eq!(c[(0, 0)], 10.0);
/// ```
pub fn gemm<S: Scalar>(
    alpha: S,
    a: MatRefOf<'_, S>,
    ta: Trans,
    b: MatRefOf<'_, S>,
    tb: Trans,
    beta: S,
    c: MatMutOf<'_, S>,
) {
    let (m, ka) = op_shape(a, ta);
    let (_, n) = op_shape(b, tb);
    if crate::blocked::gemm_prefers_blocked(m, n, ka) {
        crate::blocked::gemm_blocked(alpha, a, ta, b, tb, beta, c);
    } else {
        gemm_scalar(alpha, a, ta, b, tb, beta, c);
    }
}

/// Scalar reference `C = alpha * op(A) * op(B) + beta * C` (the pre-blocking
/// kernel, kept as the comparison baseline for the blocked path).
pub fn gemm_scalar<S: Scalar>(
    alpha: S,
    a: MatRefOf<'_, S>,
    ta: Trans,
    b: MatRefOf<'_, S>,
    tb: Trans,
    beta: S,
    mut c: MatMutOf<'_, S>,
) {
    let (m, ka) = op_shape(a, ta);
    let (kb, n) = op_shape(b, tb);
    assert_eq!(ka, kb, "gemm inner dimension mismatch");
    assert_eq!(c.nrows(), m, "gemm C row mismatch");
    assert_eq!(c.ncols(), n, "gemm C col mismatch");
    scale(beta, c.as_mut());
    // sc-analyze: allow(float-eq)
    if alpha == S::ZERO || m == 0 || n == 0 || ka == 0 {
        return;
    }
    match (ta, tb) {
        (Trans::No, Trans::No) => gemm_nn(alpha, a, b, c),
        (Trans::Yes, Trans::No) => gemm_tn(alpha, a, b, c),
        (Trans::No, Trans::Yes) => gemm_nt(alpha, a, b, c),
        (Trans::Yes, Trans::Yes) => gemm_tt(alpha, a, b, c),
    }
}

#[inline]
pub(crate) fn scale<S: Scalar>(beta: S, mut c: MatMutOf<'_, S>) {
    // sc-analyze: allow(float-eq)
    if beta == S::ONE {
        return;
    }
    // sc-analyze: allow(float-eq)
    if beta == S::ZERO {
        c.fill(S::ZERO);
        return;
    }
    for j in 0..c.ncols() {
        for v in c.col_mut(j) {
            *v *= beta;
        }
    }
}

/// AXPY-based `C += alpha * A * B` for column-major operands.
fn gemm_nn<S: Scalar>(alpha: S, a: MatRefOf<'_, S>, b: MatRefOf<'_, S>, mut c: MatMutOf<'_, S>) {
    let k = a.ncols();
    for j in 0..c.ncols() {
        let bcol = b.col(j);
        let ccol = c.col_mut(j);
        for (p, &bpj) in bcol.iter().enumerate().take(k) {
            // unconditional AXPY: dense BLAS does not branch on values
            axpy(alpha * bpj, a.col(p), ccol);
        }
    }
}

/// Dot-product-based `C += alpha * Aᵀ * B`.
fn gemm_tn<S: Scalar>(alpha: S, a: MatRefOf<'_, S>, b: MatRefOf<'_, S>, mut c: MatMutOf<'_, S>) {
    for j in 0..c.ncols() {
        let bcol = b.col(j);
        let ccol = c.col_mut(j);
        for (i, cij) in ccol.iter_mut().enumerate() {
            *cij += alpha * dot_slices(a.col(i), bcol);
        }
    }
}

fn gemm_nt<S: Scalar>(alpha: S, a: MatRefOf<'_, S>, b: MatRefOf<'_, S>, mut c: MatMutOf<'_, S>) {
    // C[:, j] += alpha * sum_p A[:, p] * B[j, p]
    for j in 0..c.ncols() {
        let ccol = c.col_mut(j);
        for p in 0..a.ncols() {
            axpy(alpha * b.get(j, p), a.col(p), ccol);
        }
    }
}

fn gemm_tt<S: Scalar>(alpha: S, a: MatRefOf<'_, S>, b: MatRefOf<'_, S>, mut c: MatMutOf<'_, S>) {
    // C[i, j] += alpha * sum_p A[p, i] * B[j, p]
    for j in 0..c.ncols() {
        for i in 0..c.nrows() {
            let acol = a.col(i);
            let mut s = S::ZERO;
            for (p, &apv) in acol.iter().enumerate() {
                s += apv * b.get(j, p);
            }
            let v = c.get(i, j) + alpha * s;
            c.set(i, j, v);
        }
    }
}

#[inline]
pub(crate) fn axpy<S: Scalar>(alpha: S, x: &[S], y: &mut [S]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

#[inline]
pub(crate) fn dot_slices<S: Scalar>(x: &[S], y: &[S]) -> S {
    debug_assert_eq!(x.len(), y.len());
    // Four-way unrolled accumulation: keeps FP dependencies short so LLVM can
    // vectorize without needing -ffast-math-style reassociation.
    let mut s0 = S::ZERO;
    let mut s1 = S::ZERO;
    let mut s2 = S::ZERO;
    let mut s3 = S::ZERO;
    let n4 = x.len() / 4 * 4;
    let mut i = 0;
    while i < n4 {
        s0 += x[i] * y[i];
        s1 += x[i + 1] * y[i + 1];
        s2 += x[i + 2] * y[i + 2];
        s3 += x[i + 3] * y[i + 3];
        i += 4;
    }
    for p in n4..x.len() {
        s0 += x[p] * y[p];
    }
    (s0 + s1) + (s2 + s3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mat::Mat;

    fn naive(alpha: f64, a: &Mat, ta: Trans, b: &Mat, tb: Trans, beta: f64, c: &Mat) -> Mat {
        let ae = |i: usize, j: usize| match ta {
            Trans::No => a[(i, j)],
            Trans::Yes => a[(j, i)],
        };
        let be = |i: usize, j: usize| match tb {
            Trans::No => b[(i, j)],
            Trans::Yes => b[(j, i)],
        };
        let (m, k) = match ta {
            Trans::No => (a.nrows(), a.ncols()),
            Trans::Yes => (a.ncols(), a.nrows()),
        };
        let n = c.ncols();
        Mat::from_fn(m, n, |i, j| {
            let mut s = 0.0;
            for p in 0..k {
                s += ae(i, p) * be(p, j);
            }
            alpha * s + beta * c[(i, j)]
        })
    }

    fn mk(m: usize, n: usize, seed: u64) -> Mat {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        Mat::from_fn(m, n, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    #[test]
    fn all_transpose_combinations_match_naive() {
        let (m, k, n) = (7, 5, 6);
        for (ta, tb) in [
            (Trans::No, Trans::No),
            (Trans::Yes, Trans::No),
            (Trans::No, Trans::Yes),
            (Trans::Yes, Trans::Yes),
        ] {
            let a = match ta {
                Trans::No => mk(m, k, 1),
                Trans::Yes => mk(k, m, 2),
            };
            let b = match tb {
                Trans::No => mk(k, n, 3),
                Trans::Yes => mk(n, k, 4),
            };
            let mut c = mk(m, n, 5);
            let expect = naive(1.5, &a, ta, &b, tb, 0.5, &c);
            gemm(1.5, a.as_ref(), ta, b.as_ref(), tb, 0.5, c.as_mut());
            assert!(
                crate::max_abs_diff(c.as_ref(), expect.as_ref()) < 1e-12,
                "mismatch for ({ta:?},{tb:?})"
            );
        }
    }

    #[test]
    fn beta_zero_overwrites_nan_free() {
        let a = mk(3, 3, 7);
        let b = mk(3, 3, 8);
        let mut c = Mat::from_fn(3, 3, |_, _| f64::NAN);
        gemm(
            1.0,
            a.as_ref(),
            Trans::No,
            b.as_ref(),
            Trans::No,
            0.0,
            c.as_mut(),
        );
        for j in 0..3 {
            for i in 0..3 {
                assert!(c[(i, j)].is_finite());
            }
        }
    }

    #[test]
    fn alpha_zero_only_scales() {
        let a = mk(3, 4, 9);
        let b = mk(4, 2, 10);
        let mut c = mk(3, 2, 11);
        let expect = Mat::from_fn(3, 2, |i, j| 2.0 * c[(i, j)]);
        gemm(
            0.0,
            a.as_ref(),
            Trans::No,
            b.as_ref(),
            Trans::No,
            2.0,
            c.as_mut(),
        );
        assert!(crate::max_abs_diff(c.as_ref(), expect.as_ref()) < 1e-15);
    }

    #[test]
    fn empty_dims_are_noops() {
        let a = Mat::zeros(0, 0);
        let b = Mat::zeros(0, 5);
        let mut c = Mat::zeros(0, 5);
        gemm(
            1.0,
            a.as_ref(),
            Trans::No,
            b.as_ref(),
            Trans::No,
            1.0,
            c.as_mut(),
        );
        let a = Mat::zeros(3, 0);
        let b = Mat::zeros(0, 2);
        let mut c = crate::mat::Mat::from_fn(3, 2, |_, _| 1.0);
        gemm(
            1.0,
            a.as_ref(),
            Trans::No,
            b.as_ref(),
            Trans::No,
            1.0,
            c.as_mut(),
        );
        assert_eq!(c[(0, 0)], 1.0); // beta=1 keeps C
    }

    #[test]
    fn f32_gemm_matches_f64_within_eps() {
        let a = mk(6, 4, 40);
        let b = mk(4, 5, 41);
        let mut c64 = Mat::zeros(6, 5);
        gemm(
            1.0,
            a.as_ref(),
            Trans::No,
            b.as_ref(),
            Trans::No,
            0.0,
            c64.as_mut(),
        );
        let a32 = a.cast::<f32>();
        let b32 = b.cast::<f32>();
        let mut c32 = crate::mat::MatOf::<f32>::zeros(6, 5);
        gemm(
            1.0f32,
            a32.as_ref(),
            Trans::No,
            b32.as_ref(),
            Trans::No,
            0.0f32,
            c32.as_mut(),
        );
        assert!(crate::max_abs_diff(c32.cast::<f64>().as_ref(), c64.as_ref()) < 1e-5);
    }
}
