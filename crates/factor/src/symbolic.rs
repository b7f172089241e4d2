//! Symbolic Cholesky analysis: elimination tree plus the full non-zero
//! pattern of the factor `L`.
//!
//! The pattern is computed by the row-subtree traversal (`ereach`, Davis
//! §4.2) once per row, which costs `O(|L|)` overall — no column-count
//! machinery needed. Storing the full pattern (rather than counts alone)
//! lets the numeric phases (simplicial *and* supernodal) run without any
//! further graph work, which is exactly the symbolic/numeric split the paper
//! leans on for multi-step simulations (§2.2).

use crate::etree::{etree, NONE};
use sc_dense::Scalar;
use sc_sparse::{CscOf, CscPattern};
use std::sync::Arc;

/// Result of the symbolic analysis of a (permuted) symmetric matrix.
#[derive(Clone, Debug)]
pub struct Symbolic {
    /// Dimension.
    pub n: usize,
    /// Elimination tree (`NONE` for roots).
    pub parent: Vec<usize>,
    /// The pattern of `L`: rows per column ascending, diagonal first. Every
    /// factor computed against this analysis holds this one allocation.
    pattern: Arc<CscPattern>,
}

impl Symbolic {
    /// Non-zeros in the factor (including the diagonal).
    pub fn nnz(&self) -> usize {
        self.row_idx().len()
    }

    /// Column pointers of `L` (`n + 1` entries).
    pub fn col_ptr(&self) -> &[usize] {
        self.pattern.col_ptr()
    }

    /// Row indices of `L`, per column, ascending, diagonal first.
    pub fn row_idx(&self) -> &[usize] {
        self.pattern.row_idx()
    }

    /// The shared pattern of `L`.
    pub fn pattern(&self) -> &Arc<CscPattern> {
        &self.pattern
    }

    /// Row indices of column `j` of `L` (ascending; first entry is `j`).
    pub fn col(&self, j: usize) -> &[usize] {
        &self.row_idx()[self.col_ptr()[j]..self.col_ptr()[j + 1]]
    }

    /// Fill-in ratio `|L| / |tril(A)|` (test/bench diagnostic).
    pub fn fill_ratio<S: Scalar>(&self, a: &CscOf<S>) -> f64 {
        let mut tril = 0usize;
        for j in 0..a.ncols() {
            let (rows, _) = a.col(j);
            tril += rows.iter().filter(|&&i| i >= j).count();
        }
        self.nnz() as f64 / tril as f64 // sc-analyze: allow(precision-discipline)
    }
}

/// Row pattern of row `k` of `L` via the elimination-tree reach of the upper
/// entries of column `k` of `A`. Appends the pattern (excluding `k` itself)
/// into `out` in **topological order** (ancestors after descendants) and
/// leaves `mark` clean. `stack` is scratch of length >= n.
pub(crate) fn ereach<S: Scalar>(
    a: &CscOf<S>,
    k: usize,
    parent: &[usize],
    mark: &mut [usize],
    stack: &mut [usize],
    out: &mut Vec<usize>,
) {
    let tag = k + 1; // nonzero tag unique per row
    mark[k] = tag;
    let start = out.len();
    let (rows, _) = a.col(k);
    for &row in rows {
        if row >= k {
            break;
        }
        // climb the etree from `row` until hitting a marked node
        let mut len = 0;
        let mut i = row;
        while mark[i] != tag {
            stack[len] = i;
            len += 1;
            mark[i] = tag;
            i = parent[i];
            debug_assert!(i != NONE, "etree path must reach k");
        }
        // append the path root-first for now; fixed up below
        while len > 0 {
            len -= 1;
            out.push(stack[len]);
        }
    }
    // Reverse so iteration order is newest-path-first, deepest-first within
    // each path. Later paths stop at nodes marked by earlier ones, so no node
    // of an earlier path is a descendant of a later path's node — making this
    // a valid topological (descendants-first) order for the row solve.
    out[start..].reverse();
}

/// Compute the symbolic factorization of the full-symmetric matrix `a`
/// (already permuted). Only the pattern is read, so any element scalar is
/// accepted.
pub fn analyze<S: Scalar>(a: &CscOf<S>) -> Symbolic {
    let n = a.ncols();
    assert_eq!(a.nrows(), n);
    let parent = etree(a);
    let mut mark = vec![0usize; n];
    let mut stack = vec![0usize; n];
    let mut pattern = Vec::new();

    // Pass 1: count entries per column of L.
    let mut counts = vec![1usize; n]; // diagonal
    for k in 0..n {
        pattern.clear();
        ereach(a, k, &parent, &mut mark, &mut stack, &mut pattern);
        for &j in &pattern {
            counts[j] += 1;
        }
    }
    let mut col_ptr = vec![0usize; n + 1];
    for j in 0..n {
        col_ptr[j + 1] = col_ptr[j] + counts[j];
    }
    let nnz = col_ptr[n];

    // Pass 2: fill row indices. Diagonal first; then rows k appended in
    // ascending k as the row loop advances, so each column ends up sorted.
    let mut row_idx = vec![0usize; nnz];
    let mut next = vec![0usize; n];
    for j in 0..n {
        row_idx[col_ptr[j]] = j;
        next[j] = col_ptr[j] + 1;
    }
    for k in 0..n {
        pattern.clear();
        ereach(a, k, &parent, &mut mark, &mut stack, &mut pattern);
        for &j in &pattern {
            row_idx[next[j]] = k;
            next[j] += 1;
        }
    }
    Symbolic {
        n,
        parent,
        pattern: Arc::new(CscPattern::new(col_ptr, row_idx)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_sparse::{Coo, Csc};

    fn tridiag(n: usize) -> Csc {
        let mut c = Coo::new(n, n);
        for i in 0..n {
            c.push(i, i, 2.0);
            if i + 1 < n {
                c.push(i, i + 1, -1.0);
                c.push(i + 1, i, -1.0);
            }
        }
        c.to_csc()
    }

    #[test]
    fn tridiagonal_has_no_fill() {
        let a = tridiag(8);
        let s = analyze(&a);
        // L is bidiagonal: 2n - 1 entries
        assert_eq!(s.nnz(), 15);
        for j in 0..7 {
            assert_eq!(s.col(j), &[j, j + 1]);
        }
        assert_eq!(s.col(7), &[7]);
    }

    #[test]
    fn arrowhead_pattern_is_last_row_dense() {
        let n = 6;
        let mut c = Coo::new(n, n);
        for i in 0..n {
            c.push(i, i, 4.0);
            if i + 1 < n {
                c.push(i, n - 1, 1.0);
                c.push(n - 1, i, 1.0);
            }
        }
        let s = analyze(&c.to_csc());
        for j in 0..n - 1 {
            assert_eq!(s.col(j), &[j, n - 1], "column {j}");
        }
    }

    #[test]
    fn dense_pattern_from_full_matrix() {
        let n = 5;
        let mut c = Coo::new(n, n);
        for i in 0..n {
            for j in 0..n {
                c.push(i, j, if i == j { 10.0 } else { 1.0 });
            }
        }
        let s = analyze(&c.to_csc());
        assert_eq!(s.nnz(), n * (n + 1) / 2);
    }

    #[test]
    fn columns_sorted_diag_first() {
        // pentadiagonal with a long-range link to force fill
        let n = 12;
        let mut c = Coo::new(n, n);
        for i in 0..n {
            c.push(i, i, 4.0);
            if i + 2 < n {
                c.push(i, i + 2, -1.0);
                c.push(i + 2, i, -1.0);
            }
        }
        c.push(0, n - 1, -0.5);
        c.push(n - 1, 0, -0.5);
        let a = c.to_csc();
        let s = analyze(&a);
        for j in 0..n {
            let col = s.col(j);
            assert_eq!(col[0], j, "diagonal first");
            assert!(col.windows(2).all(|w| w[0] < w[1]), "sorted");
        }
    }
}
