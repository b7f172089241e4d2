//! Sparse-RHS Schur complement: the stand-in for PARDISO's augmented
//! incomplete factorization (`expl_mkl` in the paper's Figure 9).
//!
//! Given the factor `L` of `K_reg` and the sparse right-hand-side block `B̃ᵀ`,
//! computes `F̃ = (L⁻¹B̃ᵀ)ᵀ (L⁻¹B̃ᵀ)` while restricting every forward solve to
//! the elimination-tree **reach** of its column — the same sparsity the
//! augmented factorization exploits internally. On 2D problems, where the
//! factor is very sparse and the RHS has few columns, this CPU path beats
//! everything (paper §5: "augmented incomplete factorization from PARDISO is
//! still the fastest way to assemble SC for 2D subdomains"); on 3D the reach
//! grows and it loses to the GPU assembler by an order of magnitude.

use crate::etree::NONE;
use sc_dense::{MatOf, Scalar};
use sc_sparse::CscOf;

/// Elimination-tree reach of the row set `b_rows`: every node on a path from
/// a nonzero row to its root, deduplicated and sorted ascending (which is a
/// topological order for a Cholesky factor, since parents have larger
/// indices).
pub fn sparse_solve_reach(parent: &[usize], b_rows: &[usize], mark: &mut [bool]) -> Vec<usize> {
    let mut reach = Vec::new();
    for &r in b_rows {
        let mut i = r;
        while i != NONE && !mark[i] {
            mark[i] = true;
            reach.push(i);
            i = parent[i];
        }
    }
    for &i in &reach {
        mark[i] = false;
    }
    reach.sort_unstable();
    reach
}

/// Sparse forward solve `L x = b` touching only the reach. `x` is a dense
/// scratch vector (zeroed outside the reach on entry and on exit by the
/// caller between uses). Returns nothing; values live in `x[reach]`.
fn sparse_lower_solve_on_reach<S: Scalar>(l: &CscOf<S>, reach: &[usize], x: &mut [S]) {
    for &j in reach {
        let (rows, vals) = l.col(j);
        debug_assert_eq!(rows[0], j, "missing diagonal");
        let xj = x[j] / vals[0];
        x[j] = xj;
        // sc-analyze: allow(float-eq)
        if xj != S::ZERO {
            for (&i, &v) in rows[1..].iter().zip(&vals[1..]) {
                x[i] -= v * xj;
            }
        }
    }
}

/// Compute the dense `m × m` Schur complement `F̃ = (L⁻¹ B̃ᵀ)ᵀ (L⁻¹ B̃ᵀ)` from
/// a sparse factor and sparse RHS, exploiting the per-column reach.
///
/// `bt` is `n × m` (column = one Lagrange multiplier) in the **same permuted
/// row space** as `L`. The result is symmetric (both triangles filled).
pub fn schur_from_factor<S: Scalar>(l: &CscOf<S>, parent: &[usize], bt: &CscOf<S>) -> MatOf<S> {
    let n = l.ncols();
    let m = bt.ncols();
    assert_eq!(bt.nrows(), n, "B̃ᵀ row space must match factor");
    // Solve each column on its reach, collecting a sparse Y (CSC-ish).
    let mut mark = vec![false; n];
    let mut x = vec![S::ZERO; n];
    let mut y_cols: Vec<(Vec<usize>, Vec<S>)> = Vec::with_capacity(m);
    for t in 0..m {
        let (rows, vals) = bt.col(t);
        let reach = sparse_solve_reach(parent, rows, &mut mark);
        for (&i, &v) in rows.iter().zip(vals) {
            x[i] = v;
        }
        sparse_lower_solve_on_reach(l, &reach, &mut x);
        let mut yv = Vec::with_capacity(reach.len());
        for &i in &reach {
            yv.push(x[i]);
            x[i] = S::ZERO;
        }
        y_cols.push((reach, yv));
    }
    // F = Yᵀ Y via row-wise outer products: transpose Y to rows first.
    let mut row_counts = vec![0usize; n];
    for (ri, _) in &y_cols {
        for &i in ri {
            row_counts[i] += 1;
        }
    }
    let mut row_ptr = vec![0usize; n + 1];
    for i in 0..n {
        row_ptr[i + 1] = row_ptr[i] + row_counts[i];
    }
    let total: usize = row_ptr[n];
    let mut rcols = vec![0usize; total];
    let mut rvals = vec![S::ZERO; total];
    let mut next = row_ptr.clone();
    for (t, (ri, vv)) in y_cols.iter().enumerate() {
        for (&i, &v) in ri.iter().zip(vv) {
            rcols[next[i]] = t;
            rvals[next[i]] = v;
            next[i] += 1;
        }
    }
    let mut f = MatOf::<S>::zeros(m, m);
    for i in 0..n {
        let s = row_ptr[i];
        let e = row_ptr[i + 1];
        for a in s..e {
            let (ja, va) = (rcols[a], rvals[a]);
            let fcol = f.col_mut(ja);
            for b in a..e {
                // columns within a row are ascending, so rcols[b] >= ja:
                // accumulate into the lower triangle F[rcols[b], ja]
                fcol[rcols[b]] += va * rvals[b];
            }
        }
    }
    f.symmetrize_from_lower();
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{CholOptions, Engine, SparseCholesky};
    use sc_order::Ordering;
    use sc_sparse::{Coo, Csc};

    fn laplace_1d(n: usize) -> Csc {
        let mut c = Coo::new(n, n);
        for i in 0..n {
            c.push(i, i, 2.5);
            if i + 1 < n {
                c.push(i, i + 1, -1.0);
                c.push(i + 1, i, -1.0);
            }
        }
        c.to_csc()
    }

    #[test]
    fn reach_on_path_tree_is_suffix() {
        // tridiagonal: parent[i] = i+1; reach of {2} in n=6 is {2,3,4,5}
        let a = laplace_1d(6);
        let parent = crate::etree::etree(&a);
        let mut mark = vec![false; 6];
        let reach = sparse_solve_reach(&parent, &[2], &mut mark);
        assert_eq!(reach, vec![2, 3, 4, 5]);
        assert!(mark.iter().all(|&m| !m), "marks must be cleaned");
    }

    #[test]
    fn schur_matches_dense_reference() {
        let n = 20;
        let a = laplace_1d(n);
        let chol = SparseCholesky::factorize_with_perm(
            &a,
            Ordering::NestedDissection.compute(&a),
            Engine::Simplicial,
        )
        .unwrap();
        let l = chol.factor_csc();
        // B with 3 lambda columns touching a few dofs, in ORIGINAL space;
        // permute rows into factor space first.
        let mut bt = Coo::new(n, 3);
        bt.push(0, 0, 1.0);
        bt.push(7, 1, -1.0);
        bt.push(13, 1, 1.0);
        bt.push(19, 2, 1.0);
        let bt = bt.to_csc().permute_rows(chol.perm());
        let f = schur_from_factor(&l, &chol.symbolic().parent, &bt);
        // dense reference: F = Bᵀ A⁻¹ B in original space equals
        // (P Bᵀ)ᵀ (P A Pᵀ)⁻¹ (P Bᵀ) — use permuted consistently:
        let ap = a.sym_perm(chol.perm()).to_dense();
        let btd = bt.to_dense();
        let mut lref = ap.clone();
        sc_dense::cholesky_in_place(lref.as_mut()).unwrap();
        let mut y = btd.clone();
        sc_dense::trsm_lower_left(lref.as_ref(), y.as_mut());
        let mut fref = sc_dense::Mat::zeros(3, 3);
        sc_dense::syrk_t(1.0, y.as_ref(), 0.0, fref.as_mut());
        fref.symmetrize_from_lower();
        assert!(sc_dense::max_abs_diff(f.as_ref(), fref.as_ref()) < 1e-10);
    }

    #[test]
    fn schur_is_symmetric_positive_semidefinite() {
        let n = 15;
        let a = laplace_1d(n);
        let chol = SparseCholesky::factorize(&a, CholOptions::default()).unwrap();
        let l = chol.factor_csc();
        let mut bt = Coo::new(n, 2);
        bt.push(3, 0, 1.0);
        bt.push(9, 1, 1.0);
        let bt = bt.to_csc().permute_rows(chol.perm());
        let f = schur_from_factor(&l, &chol.symbolic().parent, &bt);
        assert!((f[(0, 1)] - f[(1, 0)]).abs() < 1e-14);
        assert!(f[(0, 0)] > 0.0 && f[(1, 1)] > 0.0);
    }
}
