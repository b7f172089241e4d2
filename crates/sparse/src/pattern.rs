//! Sparsity-pattern analysis of `B̃ᵀ` against the factor.
//!
//! The paper's optimizations revolve around two pattern quantities of the
//! (column-permuted) `B̃ᵀ` matrix:
//!
//! - the **column pivot**: row index of the first nonzero in each column;
//! - the **row trail**: column index of the last nonzero in each row.
//!
//! A matrix is in *stepped shape* when column pivots are non-decreasing from
//! left to right (which makes row trails non-decreasing from top to bottom).
//!
//! Below the pivots, `L⁻¹B̃ᵀ` is still zero outside the [`RowClosure`] of
//! `B̃ᵀ`'s rows, the one value both the explicit assembly and the implicit
//! operator's sweeps restrict the factor to.

use crate::csc::CscOf;
use sc_dense::Scalar;

/// Row index of the first stored entry of each column; `None` for empty
/// columns.
pub fn column_pivots<S: Scalar>(b: &CscOf<S>) -> Vec<Option<usize>> {
    (0..b.ncols())
        .map(|j| b.col(j).0.first().copied())
        .collect()
}

/// True when the column pivots are non-decreasing left to right (empty
/// columns are treated as pivoting at `nrows`, i.e. they sort to the right).
pub fn is_stepped<S: Scalar>(b: &CscOf<S>) -> bool {
    let mut last = 0usize;
    for j in 0..b.ncols() {
        let p = b.col(j).0.first().copied().unwrap_or(b.nrows());
        if p < last {
            return false;
        }
        last = p;
    }
    true
}

/// Pivots with empty columns mapped to `nrows` (the sentinel used by the
/// splitting kernels; an empty column contributes no work anywhere).
pub fn pivots_or_end<S: Scalar>(b: &CscOf<S>) -> Vec<usize> {
    (0..b.ncols())
        .map(|j| b.col(j).0.first().copied().unwrap_or(b.nrows()))
        .collect()
}

/// Fraction of the dense `nrows × ncols` area that lies **at or below** the
/// column pivots, `Σⱼ(n − pⱼ)/(nm)`. For a perfectly triangular RHS this
/// area fraction tends to `1/2`. It is not the work fraction: a stepped
/// TRSM does `Σⱼ(n − pⱼ)²/(n²m)` of a dense TRSM's work, which tends to
/// `1/3` there, the paper's theoretical speedup of 3 (§4.3).
pub fn stepped_fill_ratio<S: Scalar>(b: &CscOf<S>) -> f64 {
    if b.nrows() == 0 || b.ncols() == 0 {
        return 0.0;
    }
    let total = (b.nrows() * b.ncols()) as f64; // sc-analyze: allow(precision-discipline)
    let mut below = 0usize;
    for j in 0..b.ncols() {
        let p = b.col(j).0.first().copied().unwrap_or(b.nrows());
        below += b.nrows() - p;
    }
    below as f64 / total // sc-analyze: allow(precision-discipline)
}

/// The closure of a set of seed rows under the stored entries of a
/// lower-triangular `L`: the columns a seed reaches along chains of stored
/// below-diagonal entries. `L⁻¹b` is zero outside the closure of `b`'s rows,
/// and a backward solve reads nothing outside it to get its rows right. On a
/// Cholesky factor it is the seeds' elimination-tree paths; following every
/// entry keeps it exact for any lower-triangular `L`. Pattern-only.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RowClosure {
    /// Order of `L`.
    n: usize,
    /// The kept columns, ascending.
    cols: Vec<usize>,
}

impl RowClosure {
    /// The closure of `seeds` in `l`, in one ascending sweep over the kept
    /// columns: the column order is topological (an entry `(i, j)` has
    /// `i ≥ j`).
    pub fn of<S: Scalar>(l: &CscOf<S>, seeds: &[usize]) -> Self {
        let n = l.ncols();
        let mut reached = vec![false; n];
        for &i in seeds {
            reached[i] = true;
        }
        for j in 0..n {
            if reached[j] {
                for &i in l.col(j).0 {
                    reached[i] = true;
                }
            }
        }
        let cols = (0..n).filter(|&j| reached[j]).collect();
        RowClosure { n, cols }
    }

    /// Order of the `L` the closure was taken in.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The kept columns, ascending.
    pub fn cols(&self) -> &[usize] {
        &self.cols
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use crate::csc::Csc;

    fn stepped_example() -> Csc {
        // pivots: col0 -> row0, col1 -> row1, col2 -> row3
        let mut c = Coo::new(4, 3);
        c.push(0, 0, 1.0);
        c.push(3, 0, 1.0);
        c.push(1, 1, 1.0);
        c.push(2, 1, 1.0);
        c.push(3, 2, 1.0);
        c.to_csc()
    }

    #[test]
    fn pivots_found() {
        let b = stepped_example();
        assert_eq!(column_pivots(&b), vec![Some(0), Some(1), Some(3)]);
        assert!(is_stepped(&b));
    }

    #[test]
    fn non_stepped_detected() {
        let mut c = Coo::new(4, 2);
        c.push(2, 0, 1.0);
        c.push(0, 1, 1.0);
        let b = c.to_csc();
        assert!(!is_stepped(&b));
    }

    #[test]
    fn empty_columns_sort_right() {
        let mut c = Coo::new(3, 2);
        c.push(1, 0, 1.0);
        let b = c.to_csc(); // col 1 empty
        assert!(is_stepped(&b));
        assert_eq!(pivots_or_end(&b), vec![1, 3]);
    }

    #[test]
    fn fill_ratio_of_triangle_approaches_half() {
        // strictly triangular pivots p_j = j in an n × n matrix: ratio =
        // sum(n - j)/n² = (n+1)/(2n) → 1/2
        let n = 50;
        let mut c = Coo::new(n, n);
        for j in 0..n {
            c.push(j, j, 1.0);
            c.push(n - 1, j, 1.0);
        }
        let b = c.to_csc();
        let r = stepped_fill_ratio(&b);
        assert!((r - (n + 1) as f64 / (2 * n) as f64).abs() < 1e-12);
    }
}
