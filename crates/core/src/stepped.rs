//! The stepped-shape column permutation of `B̃ᵀ` (paper §3).
//!
//! Rows of `B̃ᵀ` live in the factor's fill-reducing order and are **not**
//! permuted ("Permuting its rows … would interfere with the fill-reducing
//! permutation and be counterproductive. Hence, we only permute its
//! columns."). Columns are stably sorted by their pivot row, producing
//! non-decreasing column pivots — the property every splitting kernel relies
//! on.

use sc_dense::{MatOf, Scalar};
use sc_sparse::{pattern, CscOf, Perm};

/// `B̃ᵀ` in stepped form: the column-permuted matrix, its pivots, and the
/// permutation needed to map the assembled Schur complement back. Generic
/// over the working precision `S`; [`SteppedRhs`] aliases the `f64`
/// instantiation.
#[derive(Clone, Debug)]
pub struct SteppedRhsOf<S: Scalar = f64> {
    /// Column-permuted `B̃ᵀ` (rows untouched).
    pub bt: CscOf<S>,
    /// Column pivots (first non-zero row per column), non-decreasing; empty
    /// columns carry the sentinel `nrows` and sort to the right.
    pub pivots: Vec<usize>,
    /// Column permutation applied (`old_of_new`).
    pub col_perm: Perm,
}

/// `f64` stepped form (the historical type).
pub type SteppedRhs = SteppedRhsOf<f64>;

impl<S: Scalar> SteppedRhsOf<S> {
    /// Build the stepped form of `bt` (`n × m`, rows already in the factor's
    /// permuted space).
    pub fn new(bt: &CscOf<S>) -> Self {
        let raw_pivots = pattern::pivots_or_end(bt);
        let mut order: Vec<usize> = (0..bt.ncols()).collect();
        order.sort_by_key(|&j| raw_pivots[j]); // stable: preserves ties
        let col_perm = Perm::from_old_of_new(order);
        let stepped = bt.permute_cols(&col_perm);
        let pivots = pattern::pivots_or_end(&stepped);
        debug_assert!(pattern::is_stepped(&stepped));
        SteppedRhsOf {
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

    /// Number of columns whose pivot is strictly below `row_end` — the
    /// *effective width* used by factor splitting and input-split SYRK.
    pub fn active_width(&self, row_end: usize) -> usize {
        self.pivots.partition_point(|&p| p < row_end)
    }

    /// Dense expansion of the stepped matrix (the TRSM right-hand side).
    pub fn to_dense(&self) -> MatOf<S> {
        self.bt.to_dense()
    }

    /// Map a matrix indexed by stepped columns back to original multiplier
    /// indices: `out[orig_i, orig_j] = f[step_i, step_j]`.
    pub fn unpermute_symmetric(&self, f: &MatOf<S>) -> MatOf<S> {
        let m = self.ncols();
        assert_eq!(f.nrows(), m);
        assert_eq!(f.ncols(), m);
        let mut out = MatOf::<S>::zeros(m, m);
        for js in 0..m {
            let jo = self.col_perm.old_of_new(js);
            for is in 0..m {
                let io = self.col_perm.old_of_new(is);
                out[(io, jo)] = f[(is, js)];
            }
        }
        out
    }

    /// Fraction of the dense area at or below the pivots
    /// ([`pattern::stepped_fill_ratio`]): → 1/2 for a perfect triangle,
    /// whose TRSM work fraction tends to 1/3 (paper §4.3).
    pub fn fill_ratio(&self) -> f64 {
        pattern::stepped_fill_ratio(&self.bt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_sparse::{Coo, Csc};

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
    fn active_width_counts_started_columns() {
        let s = SteppedRhs::new(&unsorted_bt());
        assert_eq!(s.active_width(0), 0);
        assert_eq!(s.active_width(1), 2);
        assert_eq!(s.active_width(3), 3);
        assert_eq!(s.active_width(6), 4);
    }

    #[test]
    fn unpermute_restores_original_indexing() {
        let s = SteppedRhs::new(&unsorted_bt());
        let m = s.ncols();
        // f_perm[i][j] = i*10 + j in stepped space
        let f = sc_dense::Mat::from_fn(m, m, |i, j| (i * 10 + j) as f64);
        let out = s.unpermute_symmetric(&f);
        for js in 0..m {
            for is in 0..m {
                let io = s.col_perm.old_of_new(is);
                let jo = s.col_perm.old_of_new(js);
                assert_eq!(out[(io, jo)], f[(is, js)]);
            }
        }
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
    fn unpermute_roundtrip_is_exact() {
        // un-permuting F̃ and re-applying the stepped permutation must
        // reproduce the original matrix bitwise — the "final phase"
        // permutation of the assembler is a pure relabeling.
        let s = SteppedRhs::new(&unsorted_bt());
        let m = s.ncols();
        let f = sc_dense::Mat::from_fn(m, m, |i, j| ((i * 31 + j * 17) % 13) as f64 * 0.125 - 0.75);
        let g = s.unpermute_symmetric(&f);
        let mut back = sc_dense::Mat::zeros(m, m);
        for js in 0..m {
            for is in 0..m {
                back[(is, js)] = g[(s.col_perm.old_of_new(is), s.col_perm.old_of_new(js))];
            }
        }
        assert_eq!(back, f, "round-trip must be bitwise exact");
    }

    #[test]
    fn empty_columns_sort_last() {
        let mut c = Coo::new(4, 3);
        c.push(1, 1, 1.0); // cols 0 and 2 empty
        let s = SteppedRhs::new(&c.to_csc());
        assert_eq!(s.pivots, vec![1, 4, 4]);
    }
}
