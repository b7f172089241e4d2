//! Compressed sparse column storage.

use crate::csr::CsrOf;
use crate::perm::Perm;
use sc_dense::{MatOf, Scalar};

/// CSC sparse matrix with sorted row indices inside each column, generic over
/// the element scalar. The [`Csc`] alias pins `f64` (the historical element
/// type), keeping pre-mixed-precision code compiling unchanged.
#[derive(Clone, Debug, PartialEq)]
pub struct CscOf<S = f64> {
    nrows: usize,
    ncols: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
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
    /// every in-crate producer (COO conversion, permutation, block
    /// extraction) maintains them by construction.
    pub fn from_parts(
        nrows: usize,
        ncols: usize,
        col_ptr: Vec<usize>,
        row_idx: Vec<usize>,
        values: Vec<S>,
    ) -> Self {
        assert_eq!(col_ptr.len(), ncols + 1, "col_ptr length");
        assert_eq!(col_ptr[0], 0, "col_ptr must start at 0");
        assert_eq!(
            *col_ptr
                .last()
                .expect("col_ptr has ncols + 1 entries per the assert above"),
            row_idx.len(),
            "col_ptr end"
        );
        assert_eq!(row_idx.len(), values.len(), "index/value length mismatch");
        let m = CscOf {
            nrows,
            ncols,
            col_ptr,
            row_idx,
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
        if self.col_ptr.len() != self.ncols + 1 {
            return Err(format!(
                "col_ptr length {} != ncols + 1 = {}",
                self.col_ptr.len(),
                self.ncols + 1
            ));
        }
        if self.col_ptr[0] != 0 {
            return Err(format!("col_ptr[0] = {} != 0", self.col_ptr[0]));
        }
        if *self.col_ptr.last().expect("col_ptr length verified above") != self.row_idx.len() {
            return Err(format!(
                "col_ptr end {} != nnz {}",
                self.col_ptr.last().expect("col_ptr length verified above"),
                self.row_idx.len()
            ));
        }
        if self.row_idx.len() != self.values.len() {
            return Err(format!(
                "row_idx length {} != values length {}",
                self.row_idx.len(),
                self.values.len()
            ));
        }
        for j in 0..self.ncols {
            if self.col_ptr[j] > self.col_ptr[j + 1] {
                return Err(format!(
                    "col_ptr not monotone at column {j}: {} > {}",
                    self.col_ptr[j],
                    self.col_ptr[j + 1]
                ));
            }
            let mut prev = None;
            for &i in &self.row_idx[self.col_ptr[j]..self.col_ptr[j + 1]] {
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
        CscOf {
            nrows,
            ncols,
            col_ptr: vec![0; ncols + 1],
            row_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        CscOf {
            nrows: n,
            ncols: n,
            col_ptr: (0..=n).collect(),
            row_idx: (0..n).collect(),
            values: vec![S::ONE; n],
        }
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
        self.row_idx.len()
    }

    /// Column pointer array (`ncols + 1` entries).
    #[inline]
    pub fn col_ptr(&self) -> &[usize] {
        &self.col_ptr
    }

    /// Row index array.
    #[inline]
    pub fn row_idx(&self) -> &[usize] {
        &self.row_idx
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
        let r = self.col_ptr[j]..self.col_ptr[j + 1];
        (&self.row_idx[r.clone()], &self.values[r])
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

    /// Convert to CSR (transpose of the internal layout; `O(nnz)`).
    pub fn to_csr(&self) -> CsrOf<S> {
        let mut row_counts = vec![0usize; self.nrows + 1];
        for &i in &self.row_idx {
            row_counts[i + 1] += 1;
        }
        for i in 0..self.nrows {
            row_counts[i + 1] += row_counts[i];
        }
        let mut col_idx = vec![0usize; self.nnz()];
        let mut vals = vec![S::ZERO; self.nnz()];
        let mut next = row_counts.clone();
        for j in 0..self.ncols {
            let (rows, v) = self.col(j);
            for (&i, &x) in rows.iter().zip(v) {
                let p = next[i];
                next[i] += 1;
                col_idx[p] = j;
                vals[p] = x;
            }
        }
        CsrOf::from_parts(self.nrows, self.ncols, row_counts, col_idx, vals)
    }

    /// Transposed copy (CSC of the transpose).
    pub fn transpose(&self) -> CscOf<S> {
        let t = self.to_csr();
        // A CSR of A reinterpreted as CSC of Aᵀ.
        CscOf::from_parts(
            self.ncols,
            self.nrows,
            t.row_ptr().to_vec(),
            t.col_idx().to_vec(),
            t.values().to_vec(),
        )
    }

    /// Element-wise precision conversion (pattern shared, values converted
    /// through `f64`).
    pub fn cast<T: Scalar>(&self) -> CscOf<T> {
        CscOf {
            nrows: self.nrows,
            ncols: self.ncols,
            col_ptr: self.col_ptr.clone(),
            row_idx: self.row_idx.clone(),
            values: self
                .values
                .iter()
                .map(|&v| T::from_f64(v.to_f64()))
                .collect(),
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

    /// Sparse-dense product `C = alpha * A * B + beta * C` (`A` is this
    /// matrix, `B`/`C` dense column-major).
    pub fn spmm(
        &self,
        alpha: S,
        b: sc_dense::MatRefOf<'_, S>,
        beta: S,
        c: &mut sc_dense::MatMutOf<'_, S>,
    ) {
        assert_eq!(b.nrows(), self.ncols, "spmm inner dimension");
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
                    let (rows, vals) = self.col(k);
                    for (&i, &v) in rows.iter().zip(vals) {
                        ccol[i] += w * v;
                    }
                }
            }
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
        let mut col_ptr = self.col_ptr.clone();
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

    /// Extract a general rectangular block `rows r0..r1 × cols c0..c1`,
    /// dropping entries outside the row range.
    pub fn block(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> CscOf<S> {
        assert!(r0 <= r1 && r1 <= self.nrows && c0 <= c1 && c1 <= self.ncols);
        let mut col_ptr = vec![0usize; c1 - c0 + 1];
        let mut row_idx = Vec::new();
        let mut values = Vec::new();
        for (jn, j) in (c0..c1).enumerate() {
            let (rows, vals) = self.col(j);
            // rows are sorted: binary search the window
            let lo = rows.partition_point(|&i| i < r0);
            let hi = rows.partition_point(|&i| i < r1);
            for k in lo..hi {
                row_idx.push(rows[k] - r0);
                values.push(vals[k]);
            }
            col_ptr[jn + 1] = row_idx.len();
        }
        CscOf::from_parts(r1 - r0, c1 - c0, col_ptr, row_idx, values)
    }

    /// Indices of rows that contain at least one entry (sorted). Used by the
    /// *pruning* optimization to compact empty rows out of sub-diagonal factor
    /// blocks before a GEMM (paper §3.2).
    pub fn nonempty_rows(&self) -> Vec<usize> {
        let mut mark = vec![false; self.nrows];
        for &i in &self.row_idx {
            mark[i] = true;
        }
        mark.iter()
            .enumerate()
            .filter_map(|(i, &m)| if m { Some(i) } else { None })
            .collect()
    }

    /// Gather the given rows into a dense `rows.len() × ncols` matrix
    /// (rows must be sorted ascending; entries in other rows are dropped).
    pub fn gather_rows_dense(&self, rows: &[usize]) -> MatOf<S> {
        let mut pos = vec![usize::MAX; self.nrows];
        for (k, &i) in rows.iter().enumerate() {
            pos[i] = k;
        }
        let mut m = MatOf::zeros(rows.len(), self.ncols);
        for j in 0..self.ncols {
            let (ri, vals) = self.col(j);
            let mcol = m.col_mut(j);
            for (&i, &v) in ri.iter().zip(vals) {
                let p = pos[i];
                if p != usize::MAX {
                    mcol[p] = v;
                }
            }
        }
        m
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
    fn csr_roundtrip_preserves_entries() {
        let m = sample();
        let r = m.to_csr();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(m.get(i, j), r.get(i, j));
            }
        }
    }

    #[test]
    fn transpose_swaps_indices() {
        let m = sample();
        let t = m.transpose();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(m.get(i, j), t.get(j, i));
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
    fn block_extraction() {
        let m = sample();
        let b = m.block(1, 3, 0, 2);
        assert_eq!(b.nrows(), 2);
        assert_eq!(b.ncols(), 2);
        assert_eq!(b.get(0, 1), 3.0); // old (1,1)
        assert_eq!(b.get(1, 0), 4.0); // old (2,0)
    }

    #[test]
    fn nonempty_rows_and_gather() {
        let mut c = Coo::new(5, 2);
        c.push(1, 0, 1.0);
        c.push(3, 0, 2.0);
        c.push(3, 1, 4.0);
        let m = c.to_csc();
        assert_eq!(m.nonempty_rows(), vec![1, 3]);
        let g = m.gather_rows_dense(&[1, 3]);
        assert_eq!(g.nrows(), 2);
        assert_eq!(g[(0, 0)], 1.0);
        assert_eq!(g[(1, 0)], 2.0);
        assert_eq!(g[(1, 1)], 4.0);
    }

    #[test]
    fn spmm_matches_dense_gemm() {
        let a = sample();
        let ad = a.to_dense();
        let b = sc_dense::Mat::from_fn(3, 4, |i, j| (i * 4 + j) as f64 - 5.0);
        let mut c = sc_dense::Mat::from_fn(3, 4, |i, j| (i + j) as f64);
        let mut cd = c.clone();
        a.spmm(2.0, b.as_ref(), 0.5, &mut c.as_mut());
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
        a.spmm(1.0, b.as_ref(), 0.0, &mut c.as_mut());
        assert!(sc_dense::max_abs_diff(c.as_ref(), a.to_dense().as_ref()) < 1e-14);
    }

    #[test]
    fn check_invariants_accepts_valid_and_rejects_broken() {
        assert!(sample().check_invariants().is_ok());
        assert!(Csc::zeros(4, 0).check_invariants().is_ok());
        assert!(Csc::identity(5).check_invariants().is_ok());

        // out-of-range row index
        let mut bad = sample();
        bad.row_idx[0] = 99;
        assert!(bad.check_invariants().unwrap_err().contains("out of range"));

        // unsorted rows within a column
        let mut bad = sample();
        bad.row_idx.swap(0, 1); // column 0 had rows [0, 2]
        assert!(bad
            .check_invariants()
            .unwrap_err()
            .contains("strictly increasing"));

        // broken pointer array (col_ptr decreases between columns 1 and 2)
        let mut bad = sample();
        bad.col_ptr[2] = bad.col_ptr[1] - 1;
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
        assert_eq!(m32.col_ptr(), m.col_ptr());
        assert_eq!(m32.row_idx(), m.row_idx());
        assert_eq!(m32.get(2, 2), 5.0f32);
        // exact-integer values roundtrip bitwise
        assert_eq!(m32.cast::<f64>(), m);
    }
}
