//! The stepped-shape column permutation of `B̃ᵀ` (paper §3).
//!
//! Rows of `B̃ᵀ` live in the factor's fill-reducing order and are **not**
//! permuted ("Permuting its rows … would interfere with the fill-reducing
//! permutation and be counterproductive. Hence, we only permute its
//! columns."). Columns are stably sorted by their pivot row, producing
//! non-decreasing column pivots — the property every splitting kernel relies
//! on.
//!
//! `stepped_order` is that sort, the only one: the
//! [`AssemblyShape`](crate::AssemblyShape) keeps its result from the pattern
//! alone, [`estimate_cost`](crate::estimate_cost) reads its pivots, and
//! [`SteppedRhs`] is the materialized form the kernel-level entry points
//! ([`run_trsm_variant`](crate::run_trsm_variant),
//! [`run_syrk_variant`](crate::run_syrk_variant)) take.

use sc_dense::Mat;
use sc_sparse::{pattern, Csc, Perm};

/// `B̃ᵀ` in stepped form: the column-permuted matrix, its pivots, and the
/// permutation needed to map the assembled Schur complement back.
#[derive(Clone, Debug)]
pub struct SteppedRhs {
    /// Column-permuted `B̃ᵀ` (rows untouched).
    pub bt: Csc,
    /// Column pivots (first non-zero row per column), non-decreasing; empty
    /// columns carry the sentinel `nrows` and sort to the right.
    pub pivots: Vec<usize>,
    /// Column permutation applied (`old_of_new`).
    pub col_perm: Perm,
}

impl SteppedRhs {
    /// Build the stepped form of `bt` (`n × m`, rows already in the factor's
    /// permuted space).
    pub fn new(bt: &Csc) -> Self {
        let (col_perm, pivots) = stepped_order(&pattern::pivots_or_end(bt));
        let stepped = bt.permute_cols(&col_perm);
        debug_assert!(pattern::is_stepped(&stepped));
        SteppedRhs {
            bt: stepped,
            pivots,
            col_perm,
        }
    }

    /// Number of rows (factor dimension).
    pub fn nrows(&self) -> usize {
        self.bt.nrows()
    }

    /// Number of columns (local multipliers).
    pub fn ncols(&self) -> usize {
        self.bt.ncols()
    }

    /// Dense expansion of the stepped matrix (the TRSM right-hand side).
    pub fn to_dense(&self) -> Mat {
        self.bt.to_dense()
    }

    /// Fraction of the dense area at or below the pivots
    /// ([`pattern::stepped_fill_ratio`]): → 1/2 for a perfect triangle,
    /// whose TRSM work fraction tends to 1/3 (paper §4.3).
    pub fn fill_ratio(&self) -> f64 {
        pattern::stepped_fill_ratio(&self.bt)
    }
}

/// The stepped permutation of columns with first rows `raw`: the stable
/// sort by pivot (ties keep their order) as `old_of_new`, and the sorted
/// pivots.
pub(crate) fn stepped_order(raw: &[usize]) -> (Perm, Vec<usize>) {
    let mut order: Vec<usize> = (0..raw.len()).collect();
    order.sort_by_key(|&j| raw[j]);
    let pivots = order.iter().map(|&j| raw[j]).collect();
    (Perm::from_old_of_new(order), pivots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_sparse::Coo;

    fn unsorted_bt() -> Csc {
        // 6×4, pivots: col0 -> 4, col1 -> 0, col2 -> 2, col3 -> 0
        let mut c = Coo::new(6, 4);
        c.push(4, 0, 1.0);
        c.push(0, 1, 1.0);
        c.push(5, 1, -1.0);
        c.push(2, 2, 1.0);
        c.push(0, 3, -1.0);
        c.push(1, 3, 1.0);
        c.to_csc()
    }

    #[test]
    fn permutation_sorts_pivots() {
        let s = SteppedRhs::new(&unsorted_bt());
        assert_eq!(s.pivots, vec![0, 0, 2, 4]);
        assert!(sc_sparse::pattern::is_stepped(&s.bt));
        // stable: among pivot-0 columns, original order (1 before 3) kept
        assert_eq!(s.col_perm.old_of_new(0), 1);
        assert_eq!(s.col_perm.old_of_new(1), 3);
    }

    #[test]
    fn pivots_monotone_for_random_patterns() {
        // The stepped invariant on arbitrary gluing patterns: after the
        // column permutation the pivot row indices are sorted ascending
        // (the staircase descends left to right), with empty columns (pivot
        // sentinel = nrows) at the far right.
        let mut state = 0x5EEDu64;
        let mut rnd = move |bound: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as usize) % bound
        };
        for trial in 0usize..50 {
            let n = 5 + rnd(40);
            let m = 1 + rnd(25);
            let mut c = Coo::new(n, m);
            for j in 0..m {
                if trial.is_multiple_of(7) && j % 5 == 4 {
                    continue; // leave some columns empty
                }
                let k = 1 + rnd(3);
                for _ in 0..k {
                    c.push(rnd(n), j, 1.0);
                }
            }
            let s = SteppedRhs::new(&c.to_csc());
            assert!(
                s.pivots.windows(2).all(|w| w[0] <= w[1]),
                "pivots must be sorted after the stepped permutation: {:?}",
                s.pivots
            );
            assert!(sc_sparse::pattern::is_stepped(&s.bt));
            assert!(s.pivots.iter().all(|&p| p <= n));
        }
    }

    #[test]
    fn empty_columns_sort_last() {
        let mut c = Coo::new(4, 3);
        c.push(1, 1, 1.0); // cols 0 and 2 empty
        let s = SteppedRhs::new(&c.to_csc());
        assert_eq!(s.pivots, vec![1, 4, 4]);
    }
}
