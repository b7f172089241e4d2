//! Dense linear algebra substrate for the Schur-complement assembler.
//!
//! Provides a column-major [`Mat`] type with borrowed views ([`MatRef`],
//! [`MatMut`]) plus the BLAS-like kernels the paper's algorithms are built
//! from: [`gemm`](gemm::gemm), [`syrk`](syrk::syrk_t), [`trsm`](trsm::trsm_lower_left),
//! [`gemv`](gemv::gemv), dense [Cholesky](chol) (full and partial, the
//! latter used by the multifrontal factorization's frontal matrices), and
//! the packed symmetric storage [`SymPackedOf`] with its fused
//! [`symv`](symv::symv) — what the explicit dual operator is held in and
//! applied with every PCPG iteration.
//!
//! Every kernel and storage type is generic over the sealed [`Scalar`] trait
//! (`f32`/`f64`); the un-suffixed names ([`Mat`], [`MatRef`], [`MatMut`]) are
//! `f64` aliases of the generic [`MatOf`]/[`MatRefOf`]/[`MatMutOf`] types, so
//! pre-mixed-precision code keeps compiling — and keeps producing bitwise
//! identical results, since the kernels never reorder arithmetic per scalar
//! type.
//!
//! All kernels are sequential — the FETI solver parallelizes across
//! subdomains, one worker per subdomain, exactly like the paper's
//! one-thread-per-subdomain loop.
//!
//! Large problems automatically route to the cache-blocked microkernels in
//! [`blocked`] (packed panel layout in [`pack`]); the scalar kernels remain
//! the reference implementations and the `*_scalar` names stay exported. See
//! `ARCHITECTURE.md` at the workspace root for where these kernels sit in
//! the assembly pipeline, and the README's "Kernel performance" section for
//! the tuning knobs.

pub mod blocked;
pub mod chol;
pub mod gemm;
pub mod gemv;
pub mod mat;
pub mod pack;
pub mod scalar;
pub mod symv;
pub mod syrk;
pub mod trsm;

pub use blocked::{
    gemm_blocked, partial_cholesky_blocked, syrk_t_blocked, trsm_lower_left_blocked,
};
pub use chol::{
    cholesky_in_place, cholesky_logdet, cholesky_solve, dense_schur_reference,
    partial_cholesky_in_place, partial_cholesky_scalar, reconstruction_error, CholError,
};
pub use gemm::{gemm, gemm_scalar, Trans};
pub use gemv::{dot, gemv, gemv_t, trsv_lower, trsv_lower_t};
pub use mat::{Mat, MatMut, MatMutOf, MatOf, MatRef, MatRefOf};
pub use pack::{PackedA, PackedB, MR, NR};
pub use scalar::Scalar;
pub use symv::{symv, SymPackedOf};
pub use syrk::{syrk_t, syrk_t_scalar};
pub use trsm::{trsm_lower_left, trsm_lower_left_scalar, trsm_lower_left_t};

/// Maximum absolute difference between two matrices of identical shape,
/// reported in `f64` regardless of working precision.
///
/// Panics if shapes differ. Used pervasively by tests.
pub fn max_abs_diff<S: Scalar>(a: MatRefOf<'_, S>, b: MatRefOf<'_, S>) -> f64 {
    assert_eq!(a.nrows(), b.nrows(), "row mismatch");
    assert_eq!(a.ncols(), b.ncols(), "col mismatch");
    let mut m = 0.0f64;
    for j in 0..a.ncols() {
        let ca = a.col(j);
        let cb = b.col(j);
        for i in 0..a.nrows() {
            let d = (ca[i].to_f64() - cb[i].to_f64()).abs();
            if d > m {
                m = d;
            }
        }
    }
    m
}

/// Frobenius norm of a matrix (accumulated and reported in `f64`).
pub fn frob_norm<S: Scalar>(a: MatRefOf<'_, S>) -> f64 {
    let mut s = 0.0;
    for j in 0..a.ncols() {
        for &v in a.col(j) {
            s += v.to_f64() * v.to_f64();
        }
    }
    s.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_abs_diff_zero_for_identical() {
        let a = Mat::from_fn(3, 2, |i, j| (i + 10 * j) as f64);
        assert_eq!(max_abs_diff(a.as_ref(), a.as_ref()), 0.0);
    }

    #[test]
    fn frob_norm_simple() {
        let a = Mat::from_fn(2, 2, |i, j| if i == j { 3.0 } else { 4.0 });
        // entries 3,4,4,3 -> sqrt(9+16+16+9) = sqrt(50)
        assert!((frob_norm(a.as_ref()) - 50f64.sqrt()).abs() < 1e-14);
    }

    #[test]
    #[should_panic(expected = "row mismatch")]
    fn max_abs_diff_shape_mismatch_panics() {
        let a = Mat::zeros(2, 2);
        let b = Mat::zeros(3, 2);
        max_abs_diff(a.as_ref(), b.as_ref());
    }
}
