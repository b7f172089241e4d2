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
/// untouched. From an output order `n ≥` [`MR`](crate::MR) (16, one row
/// tile of the microkernel), at any depth `k`, the update runs on the packed
/// nest ([`crate::syrk_t_blocked`]); narrower outputs run the scalar
/// reference ([`syrk_t_scalar`]). The rule is a measured crossover: on a
/// grid of `n` 1–200 by `k` 1–2000 at `f32` and `f64`, the nest wins from
/// `n = 16` at every `k ≥ 2` with the AVX-512 microkernel and with the
/// portable one (x86-64-v2), and below it the portable one loses at `f64`
/// for every `k`. The
/// tall-skinny blocks of the stepped input split (`k` 2000, `n` 63–127) run
/// 8–18× faster on the nest than on the scalar kernel (AVX-512 host).
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
    if takes_nest(a.ncols()) {
        crate::blocked::syrk_t_blocked(alpha, a, beta, c);
    } else {
        syrk_t_scalar(alpha, a, beta, c);
    }
}

/// [`syrk_t`]'s route for an output of order `n`: the packed nest or not.
fn takes_nest(n: usize) -> bool {
    n >= crate::pack::MR
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
    use crate::mat::{Mat, MatOf};

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
    fn the_nest_takes_every_output_of_order_sixteen_and_up() {
        for n in [0, 1, 8, 15] {
            assert!(!takes_nest(n), "n = {n}");
        }
        for n in [16, 63, 127, 130, 2000] {
            assert!(takes_nest(n), "n = {n}");
        }
    }

    /// `syrk_t` at the stepped input split's shapes (`k` 2000, `n` from a
    /// scalar-routed 8 to the nest's 130) against [`syrk_t_scalar`], to
    /// `tol` relative to the largest entry: first `beta = 0` over NaN, then
    /// `beta = 1` accumulating onto that result, the strict upper triangle
    /// untouched by both.
    fn check_stepped_shapes<S: Scalar>(tol: f64) {
        for n in [8, 16, 63, 127, 130] {
            let a = mk(2000, n, n as u64).cast::<S>();
            let sentinel = S::from_f64(7.0);
            let mut got = MatOf::<S>::from_fn(n, n, |i, j| {
                if i >= j {
                    S::from_f64(f64::NAN)
                } else {
                    sentinel
                }
            });
            let mut want = MatOf::<S>::zeros(n, n);
            for beta in [S::ZERO, S::ONE] {
                syrk_t(S::ONE, a.as_ref(), beta, got.as_mut());
                syrk_t_scalar(S::ONE, a.as_ref(), beta, want.as_mut());
                let scale = (0..n)
                    .flat_map(|j| want.col(j)[j..].iter().map(|v| v.to_f64().abs()))
                    .fold(0.0, f64::max);
                for j in 0..n {
                    for i in 0..j {
                        assert_eq!(got[(i, j)], sentinel, "upper ({i},{j}) touched, n {n}");
                    }
                    for i in j..n {
                        let d = (got[(i, j)] - want[(i, j)]).to_f64().abs();
                        assert!(d <= tol * scale, "n {n} ({i},{j}): {d} vs {scale}");
                    }
                }
            }
        }
    }

    #[test]
    fn stepped_shapes_match_scalar_f64() {
        check_stepped_shapes::<f64>(1e-12);
    }

    #[test]
    fn stepped_shapes_match_scalar_f32() {
        check_stepped_shapes::<f32>(1e-5);
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
