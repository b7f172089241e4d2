//! Up-looking simplicial numeric Cholesky (CSparse `cs_chol` style).
//!
//! Computes `L` row by row: the pattern of row `k` is the elimination-tree
//! reach of the upper entries of column `k` (from [`crate::symbolic`]), and
//! the row values come from one sparse triangular solve against the already
//! computed columns. Entries are appended column-wise, so the produced CSC
//! factor has sorted rows with the diagonal first — directly consumable by
//! the TRSM kernels and extractable like CHOLMOD's factor.

use crate::symbolic::{ereach, Symbolic};
use sc_dense::Scalar;
use sc_sparse::CscOf;

/// Numeric breakdown: the matrix is not positive definite at some pivot.
/// The offending diagonal is widened to `f64` regardless of the working
/// precision so the error type stays scalar-free.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FactorError {
    /// Pivot column (permuted index space) where the breakdown occurred:
    /// the first one in the engine's elimination order — ascending columns
    /// here, assembly-tree postorder in [`crate::supernodal`].
    pub column: usize,
    /// The non-positive diagonal value encountered.
    pub value: f64,
}

impl std::fmt::Display for FactorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sparse Cholesky breakdown at column {}: diagonal {:.3e}",
            self.column, self.value
        )
    }
}

impl std::error::Error for FactorError {}

/// Numeric factorization of the (permuted, full-symmetric) matrix `a` using
/// a precomputed symbolic analysis. Returns `L` as CSC in the same working
/// precision as `a`.
pub fn simplicial_factorize<S: Scalar>(
    a: &CscOf<S>,
    sym: &Symbolic,
) -> Result<CscOf<S>, FactorError> {
    let n = sym.n;
    assert_eq!(a.ncols(), n);
    assert_eq!(a.nrows(), n);
    let nnz = sym.nnz();
    let mut l_vals = vec![S::ZERO; nnz];
    let l_cols = sym.col_ptr.clone();
    let l_rows = sym.row_idx.clone();

    // next free slot per column (diagonal written separately at l_cols[j])
    let mut fill = vec![0usize; n];
    for j in 0..n {
        fill[j] = l_cols[j] + 1;
    }
    let mut x = vec![S::ZERO; n]; // dense scratch for the current row
    let mut mark = vec![0usize; n];
    let mut stack = vec![0usize; n];
    let mut pattern: Vec<usize> = Vec::new();

    for k in 0..n {
        // scatter the upper entries of column k of A into x
        pattern.clear();
        ereach(a, k, &sym.parent, &mut mark, &mut stack, &mut pattern);
        let (rows, vals) = a.col(k);
        let mut d = S::ZERO;
        for (&i, &v) in rows.iter().zip(vals) {
            if i > k {
                break;
            }
            if i == k {
                d = v;
            } else {
                x[i] = v;
            }
        }
        // sparse solve: process pattern in (provided) topological order
        for &j in &pattern {
            let xj = x[j];
            x[j] = S::ZERO;
            let dj = l_vals[l_cols[j]]; // diagonal of column j
            let lkj = xj / dj;
            // update x with column j entries filled so far (rows < k)
            for p in (l_cols[j] + 1)..fill[j] {
                x[l_rows[p]] -= l_vals[p] * lkj;
            }
            d -= lkj * lkj;
            // append L[k, j]
            debug_assert_eq!(l_rows[fill[j]], k, "symbolic/numeric pattern mismatch");
            l_vals[fill[j]] = lkj;
            fill[j] += 1;
        }
        if d <= S::ZERO || !d.is_finite() {
            return Err(FactorError {
                column: k,
                value: d.to_f64(),
            });
        }
        l_vals[l_cols[k]] = d.sqrt();
    }
    Ok(CscOf::from_parts(n, n, l_cols, l_rows, l_vals))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbolic::analyze;
    use sc_sparse::{Coo, Csc};

    fn laplace_2d(nx: usize) -> Csc {
        // 5-point Laplacian on nx × nx grid + small diagonal shift (SPD)
        let n = nx * nx;
        let idx = |x: usize, y: usize| y * nx + x;
        let mut c = Coo::new(n, n);
        for y in 0..nx {
            for x in 0..nx {
                let v = idx(x, y);
                c.push(v, v, 4.0 + 0.01);
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

    fn check_reconstruction(a: &Csc, l: &Csc, tol: f64) {
        let ld = l.to_dense();
        let ad = a.to_dense();
        let n = a.ncols();
        for i in 0..n {
            for j in 0..=i {
                let mut s = 0.0;
                for k in 0..=j {
                    s += ld[(i, k)] * ld[(j, k)];
                }
                assert!(
                    (s - ad[(i, j)]).abs() < tol,
                    "LL^T mismatch at ({i},{j}): {s} vs {}",
                    ad[(i, j)]
                );
            }
        }
    }

    #[test]
    fn factorizes_laplacian() {
        let a = laplace_2d(6);
        let sym = analyze(&a);
        let l = simplicial_factorize(&a, &sym).unwrap();
        check_reconstruction(&a, &l, 1e-10);
    }

    #[test]
    fn factor_pattern_matches_symbolic() {
        let a = laplace_2d(5);
        let sym = analyze(&a);
        let l = simplicial_factorize(&a, &sym).unwrap();
        assert_eq!(l.nnz(), sym.nnz());
        for j in 0..a.ncols() {
            assert_eq!(l.col(j).0, sym.col(j));
        }
    }

    #[test]
    fn solve_via_factor_has_small_residual() {
        let a = laplace_2d(7);
        let n = a.ncols();
        let sym = analyze(&a);
        let l = simplicial_factorize(&a, &sym).unwrap();
        let b: Vec<f64> = (0..n).map(|i| ((i * 13 % 7) as f64) - 3.0).collect();
        let mut x = b.clone();
        sc_sparse::csc_lower_solve(&l, &mut x);
        sc_sparse::csc_lower_t_solve(&l, &mut x);
        let mut r = vec![0.0; n];
        a.spmv(1.0, &x, 0.0, &mut r);
        for i in 0..n {
            assert!((r[i] - b[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn rejects_indefinite() {
        let mut c = Coo::new(2, 2);
        c.push(0, 0, 1.0);
        c.push(1, 1, -1.0);
        let a = c.to_csc();
        let sym = analyze(&a);
        let err = simplicial_factorize(&a, &sym).unwrap_err();
        assert_eq!(err.column, 1);
    }

    #[test]
    fn f32_factor_tracks_f64() {
        let a = laplace_2d(5);
        let sym = analyze(&a);
        let l64 = simplicial_factorize(&a, &sym).unwrap();
        let l32 = simplicial_factorize(&a.cast::<f32>(), &sym).unwrap();
        let d = sc_dense::max_abs_diff(
            l64.to_dense().as_ref(),
            l32.cast::<f64>().to_dense().as_ref(),
        );
        assert!(d < 1e-4, "f32 factor drift {d}");
    }

    #[test]
    fn refactorize_with_changed_values_same_pattern() {
        // multi-step simulation: pattern fixed, values change
        let a1 = laplace_2d(5);
        let sym = analyze(&a1);
        let mut a2 = a1.clone();
        for v in a2.values_mut() {
            *v *= 2.0;
        }
        let l2 = simplicial_factorize(&a2, &sym).unwrap();
        check_reconstruction(&a2, &l2, 1e-10);
    }
}
