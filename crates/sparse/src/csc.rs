//! Compressed sparse column storage.
//!
//! A [`CscOf`] keeps its pattern (column pointers and row indices) behind an
//! `Arc<`[`CscPattern`]`>` and owns only its values, so matrices with one
//! pattern share one allocation of it: a factor and its analysis's symbolic
//! pattern, a matrix and its [`cast`](CscOf::cast), every refactorization.
//! A [`CscView`] borrows a selection of a matrix's stored entries, each
//! column a contiguous range, rows renumbered on the fly: the sparse kernels
//! read blocks of a factor through it in place, with no copy of the block.

use crate::perm::Perm;
use sc_dense::{MatOf, Scalar};
use std::sync::Arc;

/// Column pointers and row indices of a CSC matrix: the part one pattern's
/// matrices share.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CscPattern {
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
}

impl CscPattern {
    /// A pattern from its arrays. Checks the O(1) shape invariants (`col_ptr`
    /// starts at 0 and ends at `row_idx.len()`); the matrices built on it
    /// check the rest in debug builds ([`CscOf::check_invariants`]).
    pub fn new(col_ptr: Vec<usize>, row_idx: Vec<usize>) -> Self {
        assert_eq!(col_ptr.first(), Some(&0), "col_ptr must start at 0");
        assert_eq!(col_ptr.last(), Some(&row_idx.len()), "col_ptr end");
        CscPattern { col_ptr, row_idx }
    }

    /// Column pointers (`ncols + 1` entries).
    #[inline]
    pub fn col_ptr(&self) -> &[usize] {
        &self.col_ptr
    }

    /// Row indices, column by column.
    #[inline]
    pub fn row_idx(&self) -> &[usize] {
        &self.row_idx
    }
}

/// CSC sparse matrix with sorted row indices inside each column, generic over
/// the element scalar. The [`Csc`] alias pins `f64` (the historical element
/// type), keeping pre-mixed-precision code compiling unchanged.
#[derive(Clone, Debug, PartialEq)]
pub struct CscOf<S = f64> {
    nrows: usize,
    ncols: usize,
    pattern: Arc<CscPattern>,
    values: Vec<S>,
}

/// `f64` CSC matrix (the historical default element type).
pub type Csc = CscOf<f64>;

impl<S: Scalar> CscOf<S> {
    /// Build from raw parts. The O(1) shape invariants (pointer array length,
    /// first/last pointer, index/value length match) are always checked; the
    /// O(nnz) structural invariants (monotone `col_ptr`, in-range and strictly
    /// increasing row indices per column) are checked through
    /// [`check_invariants`](CscOf::check_invariants) in debug builds only —
    /// every in-crate producer (COO conversion, permutation) maintains them
    /// by construction.
    pub fn from_parts(
        nrows: usize,
        ncols: usize,
        col_ptr: Vec<usize>,
        row_idx: Vec<usize>,
        values: Vec<S>,
    ) -> Self {
        Self::from_pattern(
            nrows,
            ncols,
            Arc::new(CscPattern::new(col_ptr, row_idx)),
            values,
        )
    }

    /// Build on a shared pattern, checked as [`from_parts`](Self::from_parts)
    /// checks its parts.
    pub fn from_pattern(
        nrows: usize,
        ncols: usize,
        pattern: Arc<CscPattern>,
        values: Vec<S>,
    ) -> Self {
        assert_eq!(pattern.col_ptr.len(), ncols + 1, "col_ptr length");
        assert_eq!(
            pattern.row_idx.len(),
            values.len(),
            "index/value length mismatch"
        );
        let m = CscOf {
            nrows,
            ncols,
            pattern,
            values,
        };
        #[cfg(debug_assertions)]
        if let Err(e) = m.check_invariants() {
            // debug-build invariant gate; release keeps the raw parts. sc-analyze: allow(panic-surface)
            panic!("Csc::from_parts: {e}");
        }
        m
    }

    /// Verify every structural invariant of the format, returning a
    /// description of the first violation found:
    ///
    /// - `col_ptr` has `ncols + 1` entries, starts at 0, ends at `nnz`, and
    ///   is monotone non-decreasing;
    /// - `row_idx` and `values` have equal length;
    /// - row indices are in `0..nrows` and strictly increasing within each
    ///   column (sorted, no duplicates).
    pub fn check_invariants(&self) -> Result<(), String> {
        let CscPattern { col_ptr, row_idx } = &*self.pattern;
        if col_ptr.len() != self.ncols + 1 {
            return Err(format!(
                "col_ptr length {} != ncols + 1 = {}",
                col_ptr.len(),
                self.ncols + 1
            ));
        }
        if col_ptr[0] != 0 {
            return Err(format!("col_ptr[0] = {} != 0", col_ptr[0]));
        }
        if *col_ptr.last().expect("col_ptr length verified above") != row_idx.len() {
            return Err(format!(
                "col_ptr end {} != nnz {}",
                col_ptr.last().expect("col_ptr length verified above"),
                row_idx.len()
            ));
        }
        if row_idx.len() != self.values.len() {
            return Err(format!(
                "row_idx length {} != values length {}",
                row_idx.len(),
                self.values.len()
            ));
        }
        for j in 0..self.ncols {
            if col_ptr[j] > col_ptr[j + 1] {
                return Err(format!(
                    "col_ptr not monotone at column {j}: {} > {}",
                    col_ptr[j],
                    col_ptr[j + 1]
                ));
            }
            let mut prev = None;
            for &i in &row_idx[col_ptr[j]..col_ptr[j + 1]] {
                if i >= self.nrows {
                    return Err(format!(
                        "row index {i} out of range (nrows {}) in column {j}",
                        self.nrows
                    ));
                }
                if let Some(p) = prev {
                    if i <= p {
                        return Err(format!(
                            "row indices not strictly increasing in column {j}: {p} then {i}"
                        ));
                    }
                }
                prev = Some(i);
            }
        }
        Ok(())
    }

    /// All-zero matrix of the given shape.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Self::from_parts(nrows, ncols, vec![0; ncols + 1], Vec::new(), Vec::new())
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        Self::from_parts(n, n, (0..=n).collect(), (0..n).collect(), vec![S::ONE; n])
    }

    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Column pointer array (`ncols + 1` entries).
    #[inline]
    pub fn col_ptr(&self) -> &[usize] {
        &self.pattern.col_ptr
    }

    /// Row index array.
    #[inline]
    pub fn row_idx(&self) -> &[usize] {
        &self.pattern.row_idx
    }

    /// The shared pattern: `Arc::ptr_eq` on two matrices' patterns tells
    /// whether they hold one allocation of it.
    #[inline]
    pub fn pattern(&self) -> &Arc<CscPattern> {
        &self.pattern
    }

    /// Value array.
    #[inline]
    pub fn values(&self) -> &[S] {
        &self.values
    }

    /// Mutable value array (pattern stays fixed).
    #[inline]
    pub fn values_mut(&mut self) -> &mut [S] {
        &mut self.values
    }

    /// Row indices and values of column `j`.
    #[inline]
    pub fn col(&self, j: usize) -> (&[usize], &[S]) {
        let r = self.pattern.col_ptr[j]..self.pattern.col_ptr[j + 1];
        (&self.pattern.row_idx[r.clone()], &self.values[r])
    }

    /// Entry `(i, j)` or zero if not stored (binary search within column).
    pub fn get(&self, i: usize, j: usize) -> S {
        let (rows, vals) = self.col(j);
        match rows.binary_search(&i) {
            Ok(p) => vals[p],
            Err(_) => S::ZERO,
        }
    }

    /// Dense copy.
    pub fn to_dense(&self) -> MatOf<S> {
        let mut m = MatOf::zeros(self.nrows, self.ncols);
        for j in 0..self.ncols {
            let (rows, vals) = self.col(j);
            let mcol = m.col_mut(j);
            for (&i, &v) in rows.iter().zip(vals) {
                mcol[i] = v;
            }
        }
        m
    }

    /// Element-wise precision conversion (pattern shared, values converted
    /// through `f64`).
    pub fn cast<T: Scalar>(&self) -> CscOf<T> {
        CscOf {
            nrows: self.nrows,
            ncols: self.ncols,
            pattern: Arc::clone(&self.pattern),
            values: self
                .values
                .iter()
                .map(|&v| T::from_f64(v.to_f64()))
                .collect(),
        }
    }

    /// The whole matrix as a [`CscView`].
    pub fn view(&self) -> CscView<'_, S> {
        let col_ptr = self.col_ptr();
        CscView {
            nrows: self.nrows,
            starts: &col_ptr[..self.ncols],
            ends: &col_ptr[1..],
            row_idx: self.row_idx(),
            values: &self.values,
            renumber: None,
            base: 0,
        }
    }

    /// A view of `nrows` rows whose column `k` is the stored entries
    /// `starts[k]..ends[k]`, stored row `i` read as `renumber[i] - base`
    /// (`renumber` `None`: `i - base`). The renumbering must keep every
    /// selected row's order and land it in `0..nrows`.
    pub fn view_of<'a>(
        &'a self,
        nrows: usize,
        starts: &'a [usize],
        ends: &'a [usize],
        renumber: Option<&'a [usize]>,
        base: usize,
    ) -> CscView<'a, S> {
        assert_eq!(starts.len(), ends.len(), "one start and one end per column");
        CscView {
            nrows,
            starts,
            ends,
            row_idx: self.row_idx(),
            values: &self.values,
            renumber,
            base,
        }
    }

    /// `y = alpha * A x + beta * y`.
    pub fn spmv(&self, alpha: S, x: &[S], beta: S, y: &mut [S]) {
        assert_eq!(x.len(), self.ncols);
        assert_eq!(y.len(), self.nrows);
        // sc-analyze: allow(float-eq)
        if beta == S::ZERO {
            y.fill(S::ZERO);
        // sc-analyze: allow(float-eq)
        } else if beta != S::ONE {
            for v in y.iter_mut() {
                *v *= beta;
            }
        }
        for (j, &xj) in x.iter().enumerate() {
            let w = alpha * xj;
            // sc-analyze: allow(float-eq)
            if w != S::ZERO {
                let (rows, vals) = self.col(j);
                for (&i, &v) in rows.iter().zip(vals) {
                    y[i] += w * v;
                }
            }
        }
    }

    /// `y = alpha * Aᵀ x + beta * y`.
    pub fn spmv_t(&self, alpha: S, x: &[S], beta: S, y: &mut [S]) {
        assert_eq!(x.len(), self.nrows);
        assert_eq!(y.len(), self.ncols);
        for (j, yj) in y.iter_mut().enumerate() {
            let (rows, vals) = self.col(j);
            let mut s = S::ZERO;
            for (&i, &v) in rows.iter().zip(vals) {
                s += v * x[i];
            }
            *yj = alpha * s + if beta == S::ZERO { S::ZERO } else { beta * *yj };
            // sc-analyze: allow(float-eq)
        }
    }

    /// Symmetric permutation `P A Pᵀ` of a (structurally) symmetric matrix:
    /// new index `i` corresponds to old index `perm.old_of_new(i)`.
    pub fn sym_perm(&self, perm: &Perm) -> CscOf<S> {
        assert_eq!(self.nrows, self.ncols, "sym_perm needs a square matrix");
        assert_eq!(perm.len(), self.ncols);
        let n = self.ncols;
        let mut out = crate::coo::CooOf::with_capacity(n, n, self.nnz());
        for j_old in 0..n {
            let j_new = perm.new_of_old(j_old);
            let (rows, vals) = self.col(j_old);
            for (&i_old, &v) in rows.iter().zip(vals) {
                out.push(perm.new_of_old(i_old), j_new, v);
            }
        }
        out.to_csc()
    }

    /// Permute the **rows** only: row `i_old` becomes `perm.new_of_old(i_old)`.
    pub fn permute_rows(&self, perm: &Perm) -> CscOf<S> {
        assert_eq!(perm.len(), self.nrows);
        let mut col_ptr = self.col_ptr().to_vec();
        let mut row_idx = vec![0usize; self.nnz()];
        let mut values = vec![S::ZERO; self.nnz()];
        let mut scratch: Vec<(usize, S)> = Vec::new();
        let mut p = 0;
        for j in 0..self.ncols {
            let (rows, vals) = self.col(j);
            scratch.clear();
            scratch.extend(
                rows.iter()
                    .zip(vals)
                    .map(|(&i, &v)| (perm.new_of_old(i), v)),
            );
            scratch.sort_unstable_by_key(|&(i, _)| i);
            for &(i, v) in &scratch {
                row_idx[p] = i;
                values[p] = v;
                p += 1;
            }
            col_ptr[j + 1] = p;
        }
        CscOf::from_parts(self.nrows, self.ncols, col_ptr, row_idx, values)
    }

    /// Permute the **columns** only: new column `j` is old column
    /// `perm.old_of_new(j)`. This is the stepped-shape permutation applied to
    /// `B̃ᵀ` (paper §3: "we only permute its columns").
    pub fn permute_cols(&self, perm: &Perm) -> CscOf<S> {
        assert_eq!(perm.len(), self.ncols);
        let mut col_ptr = vec![0usize; self.ncols + 1];
        let mut row_idx = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        for j_new in 0..self.ncols {
            let j_old = perm.old_of_new(j_new);
            let (rows, vals) = self.col(j_old);
            row_idx.extend_from_slice(rows);
            values.extend_from_slice(vals);
            col_ptr[j_new + 1] = row_idx.len();
        }
        CscOf::from_parts(self.nrows, self.ncols, col_ptr, row_idx, values)
    }

    /// Frobenius norm of the stored values (accumulated in `f64`).
    pub fn frob_norm(&self) -> f64 {
        self.values
            .iter()
            .map(|v| v.to_f64() * v.to_f64())
            .sum::<f64>()
            .sqrt()
    }
}

/// A borrowed selection of a [`CscOf`]'s stored entries: column `k` is the
/// contiguous range `starts[k]..ends[k]` of the source's entries, a stored
/// row `i` reads as `renumber[i] - base`. A factor's diagonal block or the
/// panel below it, restricted to a closure, is one view of the factor,
/// built from offsets alone ([`CscOf::view_of`]).
#[derive(Clone, Copy, Debug)]
pub struct CscView<'a, S> {
    nrows: usize,
    starts: &'a [usize],
    ends: &'a [usize],
    row_idx: &'a [usize],
    values: &'a [S],
    renumber: Option<&'a [usize]>,
    base: usize,
}

impl<'a, S: Scalar> CscView<'a, S> {
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    #[inline]
    pub fn ncols(&self) -> usize {
        self.starts.len()
    }

    /// Number of selected entries.
    pub fn nnz(&self) -> usize {
        self.starts.iter().zip(self.ends).map(|(s, e)| e - s).sum()
    }

    /// `(row, value)` of the entries of column `k`, in stored order.
    #[inline]
    pub fn col(&self, k: usize) -> impl Iterator<Item = (usize, S)> + 'a {
        let r = self.starts[k]..self.ends[k];
        let (renumber, base) = (self.renumber, self.base);
        self.row_idx[r.clone()]
            .iter()
            .zip(&self.values[r])
            .map(move |(&i, &v)| (renumber.map_or(i, |m| m[i]) - base, v))
    }

    /// Dense copy.
    pub fn to_dense(&self) -> MatOf<S> {
        let mut m = MatOf::zeros(self.nrows, self.ncols());
        for k in 0..self.ncols() {
            let mcol = m.col_mut(k);
            for (i, v) in self.col(k) {
                mcol[i] = v;
            }
        }
        m
    }

    /// Sparse-dense product `C = alpha * A * B + beta * C` (`A` is this
    /// view, `B`/`C` dense column-major).
    pub fn spmm(
        &self,
        alpha: S,
        b: sc_dense::MatRefOf<'_, S>,
        beta: S,
        c: &mut sc_dense::MatMutOf<'_, S>,
    ) {
        assert_eq!(b.nrows(), self.ncols(), "spmm inner dimension");
        assert_eq!(c.nrows(), self.nrows, "spmm C rows");
        assert_eq!(c.ncols(), b.ncols(), "spmm C cols");
        for j in 0..c.ncols() {
            let bcol = b.col(j);
            let ccol = c.col_mut(j);
            // sc-analyze: allow(float-eq)
            if beta == S::ZERO {
                ccol.fill(S::ZERO);
            // sc-analyze: allow(float-eq)
            } else if beta != S::ONE {
                for v in ccol.iter_mut() {
                    *v *= beta;
                }
            }
            for (k, &bkj) in bcol.iter().enumerate() {
                let w = alpha * bkj;
                // sc-analyze: allow(float-eq)
                if w != S::ZERO {
                    for (i, v) in self.col(k) {
                        ccol[i] += w * v;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;

    fn sample() -> Csc {
        // [1 0 2]
        // [0 3 0]
        // [4 0 5]
        let mut c = Coo::new(3, 3);
        c.push(0, 0, 1.0);
        c.push(2, 0, 4.0);
        c.push(1, 1, 3.0);
        c.push(0, 2, 2.0);
        c.push(2, 2, 5.0);
        c.to_csc()
    }

    #[test]
    fn get_and_to_dense_agree() {
        let m = sample();
        let d = m.to_dense();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(m.get(i, j), d[(i, j)]);
            }
        }
    }

    #[test]
    fn spmv_matches_dense() {
        let m = sample();
        let d = m.to_dense();
        let x = [1.0, -1.0, 2.0];
        let mut y = [0.5, 0.5, 0.5];
        let mut yd = y;
        m.spmv(2.0, &x, 0.5, &mut y);
        sc_dense::gemv(2.0, d.as_ref(), &x, 0.5, &mut yd);
        for i in 0..3 {
            assert!((y[i] - yd[i]).abs() < 1e-14);
        }
    }

    #[test]
    fn spmv_t_matches_dense() {
        let m = sample();
        let d = m.to_dense();
        let x = [1.0, 2.0, 3.0];
        let mut y = [0.0; 3];
        let mut yd = [0.0; 3];
        m.spmv_t(1.0, &x, 0.0, &mut y);
        sc_dense::gemv_t(1.0, d.as_ref(), &x, 0.0, &mut yd);
        for j in 0..3 {
            assert!((y[j] - yd[j]).abs() < 1e-14);
        }
    }

    #[test]
    fn sym_perm_matches_dense_permutation() {
        // symmetric matrix
        let mut c = Coo::new(3, 3);
        for (i, j, v) in [
            (0, 0, 2.0),
            (1, 1, 3.0),
            (2, 2, 4.0),
            (0, 1, 1.0),
            (1, 0, 1.0),
            (1, 2, 0.5),
            (2, 1, 0.5),
        ] {
            c.push(i, j, v);
        }
        let a = c.to_csc();
        let perm = Perm::from_old_of_new(vec![2, 0, 1]);
        let p = a.sym_perm(&perm);
        for i_new in 0..3 {
            for j_new in 0..3 {
                assert_eq!(
                    p.get(i_new, j_new),
                    a.get(perm.old_of_new(i_new), perm.old_of_new(j_new))
                );
            }
        }
    }

    #[test]
    fn permute_cols_reorders() {
        let m = sample();
        let perm = Perm::from_old_of_new(vec![2, 1, 0]);
        let p = m.permute_cols(&perm);
        for i in 0..3 {
            for jn in 0..3 {
                assert_eq!(p.get(i, jn), m.get(i, perm.old_of_new(jn)));
            }
        }
    }

    #[test]
    fn permute_rows_reorders() {
        let m = sample();
        let perm = Perm::from_old_of_new(vec![1, 2, 0]);
        let p = m.permute_rows(&perm);
        for io in 0..3 {
            for j in 0..3 {
                assert_eq!(p.get(perm.new_of_old(io), j), m.get(io, j));
            }
        }
    }

    #[test]
    fn view_of_reads_a_renumbered_block_in_place() {
        // rows 1..3 of columns 0..2 of `sample`, renumbered `i ↦ i + 1`
        // with base 2
        let m = sample();
        let (starts, ends) = ([1, 2], [2, 3]);
        let renumber = [1, 2, 3];
        let v = m.view_of(2, &starts, &ends, Some(&renumber), 2);
        assert_eq!((v.nrows(), v.ncols(), v.nnz()), (2, 2, 2));
        assert_eq!(v.col(0).collect::<Vec<_>>(), [(1, 4.0)]); // old (2,0)
        assert_eq!(v.col(1).collect::<Vec<_>>(), [(0, 3.0)]); // old (1,1)
        let d = v.to_dense();
        assert_eq!(d.data(), [0.0, 4.0, 3.0, 0.0]);
        assert_eq!(m.view().to_dense(), m.to_dense());
    }

    #[test]
    fn spmm_matches_dense_gemm() {
        let a = sample();
        let ad = a.to_dense();
        let b = sc_dense::Mat::from_fn(3, 4, |i, j| (i * 4 + j) as f64 - 5.0);
        let mut c = sc_dense::Mat::from_fn(3, 4, |i, j| (i + j) as f64);
        let mut cd = c.clone();
        a.view().spmm(2.0, b.as_ref(), 0.5, &mut c.as_mut());
        sc_dense::gemm(
            2.0,
            ad.as_ref(),
            sc_dense::Trans::No,
            b.as_ref(),
            sc_dense::Trans::No,
            0.5,
            cd.as_mut(),
        );
        assert!(sc_dense::max_abs_diff(c.as_ref(), cd.as_ref()) < 1e-13);
    }

    #[test]
    fn spmm_beta_zero_clears_output() {
        let a = sample();
        let b = sc_dense::Mat::identity(3);
        let mut c = sc_dense::Mat::from_fn(3, 3, |_, _| f64::NAN);
        a.view().spmm(1.0, b.as_ref(), 0.0, &mut c.as_mut());
        assert!(sc_dense::max_abs_diff(c.as_ref(), a.to_dense().as_ref()) < 1e-14);
    }

    #[test]
    fn check_invariants_accepts_valid_and_rejects_broken() {
        assert!(sample().check_invariants().is_ok());
        assert!(Csc::zeros(4, 0).check_invariants().is_ok());
        assert!(Csc::identity(5).check_invariants().is_ok());

        // out-of-range row index
        let mut bad = sample();
        Arc::make_mut(&mut bad.pattern).row_idx[0] = 99;
        assert!(bad.check_invariants().unwrap_err().contains("out of range"));

        // unsorted rows within a column
        let mut bad = sample();
        Arc::make_mut(&mut bad.pattern).row_idx.swap(0, 1); // column 0 had rows [0, 2]
        assert!(bad
            .check_invariants()
            .unwrap_err()
            .contains("strictly increasing"));

        // broken pointer array (col_ptr decreases between columns 1 and 2)
        let mut bad = sample();
        let p = Arc::make_mut(&mut bad.pattern);
        p.col_ptr[2] = p.col_ptr[1] - 1;
        assert!(bad.check_invariants().unwrap_err().contains("monotone"));
    }

    #[test]
    fn frob_norm_matches_values() {
        let m = sample();
        let expect = (1.0f64 + 16.0 + 9.0 + 4.0 + 25.0).sqrt();
        assert!((m.frob_norm() - expect).abs() < 1e-14);
    }

    #[test]
    fn cast_shares_pattern_and_converts_values() {
        let m = sample();
        let m32 = m.cast::<f32>();
        assert!(Arc::ptr_eq(m32.pattern(), m.pattern()));
        assert_eq!(m32.get(2, 2), 5.0f32);
        // exact-integer values roundtrip bitwise
        assert_eq!(m32.cast::<f64>(), m);
    }
}
