//! Triplet (coordinate) format builder.
//!
//! FEM assembly scatters element contributions as `(row, col, value)` triplets
//! and converts once to CSC; duplicate coordinates are summed during the
//! conversion, which is exactly the semantics element assembly needs.

use crate::csc::CscOf;
use sc_dense::Scalar;

/// Coordinate-format sparse matrix builder, generic over the element scalar.
/// Duplicates are allowed and are summed on conversion. The [`Coo`] alias
/// pins `f64`.
#[derive(Clone, Debug, Default)]
pub struct CooOf<S = f64> {
    nrows: usize,
    ncols: usize,
    rows: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<S>,
}

/// `f64` COO builder (the historical default element type).
pub type Coo = CooOf<f64>;

impl<S: Scalar> CooOf<S> {
    /// New empty builder with a fixed shape.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        CooOf {
            nrows,
            ncols,
            rows: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// New empty builder with triplet capacity preallocated.
    pub fn with_capacity(nrows: usize, ncols: usize, cap: usize) -> Self {
        CooOf {
            nrows,
            ncols,
            rows: Vec::with_capacity(cap),
            cols: Vec::with_capacity(cap),
            vals: Vec::with_capacity(cap),
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Append a triplet. Panics on out-of-range coordinates.
    #[inline]
    pub fn push(&mut self, i: usize, j: usize, v: S) {
        assert!(i < self.nrows && j < self.ncols, "triplet out of range");
        self.rows.push(i);
        self.cols.push(j);
        self.vals.push(v);
    }

    /// Convert to CSC, summing duplicates and sorting row indices per column.
    pub fn to_csc(&self) -> CscOf<S> {
        // Counting sort by column, then per-column sort by row and compaction.
        let mut col_counts = vec![0usize; self.ncols + 1];
        for &c in &self.cols {
            col_counts[c + 1] += 1;
        }
        for j in 0..self.ncols {
            col_counts[j + 1] += col_counts[j];
        }
        let nnz = self.vals.len();
        let mut ri = vec![0usize; nnz];
        let mut vv = vec![S::ZERO; nnz];
        let mut next = col_counts.clone();
        for t in 0..nnz {
            let c = self.cols[t];
            let p = next[c];
            next[c] += 1;
            ri[p] = self.rows[t];
            vv[p] = self.vals[t];
        }
        // Sort each column segment by row index and sum duplicates.
        let mut col_ptr = vec![0usize; self.ncols + 1];
        let mut out_ri = Vec::with_capacity(nnz);
        let mut out_vv = Vec::with_capacity(nnz);
        let mut idx: Vec<usize> = Vec::new();
        for j in 0..self.ncols {
            let (s, e) = (col_counts[j], col_counts[j + 1]);
            idx.clear();
            idx.extend(s..e);
            idx.sort_unstable_by_key(|&t| ri[t]);
            let mut last_row = usize::MAX;
            for &t in &idx {
                if ri[t] == last_row {
                    let l = out_vv.len() - 1;
                    out_vv[l] += vv[t];
                } else {
                    last_row = ri[t];
                    out_ri.push(ri[t]);
                    out_vv.push(vv[t]);
                }
            }
            col_ptr[j + 1] = out_ri.len();
        }
        CscOf::from_parts(self.nrows, self.ncols, col_ptr, out_ri, out_vv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicates_are_summed() {
        let mut c = Coo::new(3, 3);
        c.push(0, 0, 1.0);
        c.push(0, 0, 2.0);
        c.push(2, 1, 5.0);
        c.push(2, 1, -5.0);
        let m = c.to_csc();
        assert_eq!(m.get(0, 0), 3.0);
        assert_eq!(m.get(2, 1), 0.0); // explicit zero kept (summed to zero)
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn rows_sorted_within_columns() {
        let mut c = Coo::new(4, 2);
        c.push(3, 0, 1.0);
        c.push(1, 0, 2.0);
        c.push(2, 0, 3.0);
        let m = c.to_csc();
        let (rows, _) = m.col(0);
        assert_eq!(rows, &[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "triplet out of range")]
    fn out_of_range_rejected() {
        let mut c = Coo::new(2, 2);
        c.push(2, 0, 1.0);
    }

    #[test]
    fn empty_matrix_converts() {
        let c = Coo::new(5, 4);
        let m = c.to_csc();
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.nrows(), 5);
        assert_eq!(m.ncols(), 4);
    }

    #[test]
    fn f32_builder_converts() {
        let mut c = CooOf::<f32>::new(2, 2);
        c.push(0, 0, 1.5f32);
        c.push(0, 0, 0.25f32);
        let m = c.to_csc();
        assert_eq!(m.get(0, 0), 1.75f32);
    }
}
