//! Column-major dense matrix storage and borrowed views.
//!
//! [`MatOf`] owns its data with leading dimension equal to the row count.
//! [`MatRefOf`]/[`MatMutOf`] are borrowed windows with an explicit leading
//! dimension (`ld`), which is what lets the blocked TRSM/SYRK kernels of the
//! paper address sub-matrices with plain pointer arithmetic ("extracting the
//! submatrix is trivial using pointer arithmetic due to the leading dimension
//! parameter of BLAS routines", §3.2).
//!
//! All three types are generic over the element [`Scalar`] (`f32` or `f64`);
//! the [`Mat`]/[`MatRef`]/[`MatMut`] aliases pin `f64`, keeping every
//! pre-mixed-precision call site source- and bitwise-compatible.

use crate::scalar::Scalar;

/// Owned column-major matrix. `data[j * nrows + i]` is entry `(i, j)`.
#[derive(Clone, Debug, PartialEq)]
pub struct MatOf<S = f64> {
    nrows: usize,
    ncols: usize,
    data: Vec<S>,
}

/// Owned column-major `f64` matrix (the historical default element type).
pub type Mat = MatOf<f64>;

impl<S: Scalar> MatOf<S> {
    /// Zero-filled matrix of the given shape.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        MatOf {
            nrows,
            ncols,
            data: vec![S::ZERO; nrows * ncols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = MatOf::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = S::ONE;
        }
        m
    }

    /// Build a matrix from a generator function `f(i, j)`.
    pub fn from_fn(nrows: usize, ncols: usize, mut f: impl FnMut(usize, usize) -> S) -> Self {
        let mut data = Vec::with_capacity(nrows * ncols);
        for j in 0..ncols {
            for i in 0..nrows {
                data.push(f(i, j));
            }
        }
        MatOf { nrows, ncols, data }
    }

    /// Build from a column-major data vector (length must be `nrows * ncols`).
    pub fn from_col_major(nrows: usize, ncols: usize, data: Vec<S>) -> Self {
        assert_eq!(data.len(), nrows * ncols, "data length mismatch");
        MatOf { nrows, ncols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Immutable full view.
    #[inline]
    pub fn as_ref(&self) -> MatRefOf<'_, S> {
        MatRefOf {
            nrows: self.nrows,
            ncols: self.ncols,
            ld: self.nrows,
            data: &self.data,
        }
    }

    /// Mutable full view.
    #[inline]
    pub fn as_mut(&mut self) -> MatMutOf<'_, S> {
        MatMutOf {
            nrows: self.nrows,
            ncols: self.ncols,
            ld: self.nrows,
            data: &mut self.data,
        }
    }

    /// Immutable column slice.
    #[inline]
    pub fn col(&self, j: usize) -> &[S] {
        &self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Mutable column slice.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [S] {
        &mut self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Underlying column-major storage.
    #[inline]
    pub fn data(&self) -> &[S] {
        &self.data
    }

    /// Transposed copy.
    pub fn transpose(&self) -> MatOf<S> {
        MatOf::from_fn(self.ncols, self.nrows, |i, j| self[(j, i)])
    }

    /// Fill every entry with `v`.
    pub fn fill(&mut self, v: S) {
        self.data.fill(v);
    }

    /// Extract a rectangular copy `rows × cols` starting at `(r0, c0)`.
    pub fn submatrix(&self, r0: usize, c0: usize, rows: usize, cols: usize) -> MatOf<S> {
        self.as_ref().sub(r0, c0, rows, cols).to_mat()
    }

    /// Mirror the (strictly) lower triangle into the upper triangle in place.
    ///
    /// SYRK-style kernels only fill the lower triangle; the explicit dual
    /// operator application wants a full symmetric matrix.
    pub fn symmetrize_from_lower(&mut self) {
        assert_eq!(self.nrows, self.ncols);
        for j in 0..self.ncols {
            for i in (j + 1)..self.nrows {
                let v = self[(i, j)];
                self[(j, i)] = v;
            }
        }
    }

    /// Element-wise precision conversion (through `f64`, the common superset
    /// of both formats). `cast::<f64>()` of an f32 matrix is exact; casting
    /// down rounds to nearest.
    pub fn cast<T: Scalar>(&self) -> MatOf<T> {
        MatOf {
            nrows: self.nrows,
            ncols: self.ncols,
            data: self.data.iter().map(|&v| T::from_f64(v.to_f64())).collect(),
        }
    }
}

impl<S: Scalar> std::ops::Index<(usize, usize)> for MatOf<S> {
    type Output = S;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &S {
        debug_assert!(i < self.nrows && j < self.ncols);
        &self.data[j * self.nrows + i]
    }
}

impl<S: Scalar> std::ops::IndexMut<(usize, usize)> for MatOf<S> {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut S {
        debug_assert!(i < self.nrows && j < self.ncols);
        &mut self.data[j * self.nrows + i]
    }
}

/// Immutable view of a column-major matrix window with leading dimension `ld`.
#[derive(Clone, Copy, Debug)]
pub struct MatRefOf<'a, S = f64> {
    nrows: usize,
    ncols: usize,
    ld: usize,
    /// Slice starting at entry (0, 0) of the window; column `j` occupies
    /// `data[j*ld .. j*ld + nrows]`.
    data: &'a [S],
}

/// Immutable `f64` view (the historical default element type).
pub type MatRef<'a> = MatRefOf<'a, f64>;

impl<'a, S: Scalar> MatRefOf<'a, S> {
    /// Construct a view from raw parts. `data` must cover every addressed
    /// entry: `(ncols-1)*ld + nrows <= data.len()` when non-empty.
    pub fn from_parts(nrows: usize, ncols: usize, ld: usize, data: &'a [S]) -> Self {
        assert!(ld >= nrows.max(1));
        if nrows > 0 && ncols > 0 {
            assert!((ncols - 1) * ld + nrows <= data.len(), "view out of bounds");
        }
        MatRefOf {
            nrows,
            ncols,
            ld,
            data,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Leading dimension (stride between consecutive columns).
    #[inline]
    pub fn ld(&self) -> usize {
        self.ld
    }

    /// Entry access (bounds-checked in debug builds only).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> S {
        debug_assert!(i < self.nrows && j < self.ncols);
        self.data[j * self.ld + i]
    }

    /// Column `j` as a contiguous slice of length `nrows`.
    #[inline]
    pub fn col(&self, j: usize) -> &'a [S] {
        &self.data[j * self.ld..j * self.ld + self.nrows]
    }

    /// Sub-window of shape `rows × cols` at offset `(r0, c0)`.
    #[inline]
    pub fn sub(&self, r0: usize, c0: usize, rows: usize, cols: usize) -> MatRefOf<'a, S> {
        assert!(r0 + rows <= self.nrows && c0 + cols <= self.ncols);
        let start = c0 * self.ld + r0;
        let end = if rows > 0 && cols > 0 {
            start + (cols - 1) * self.ld + rows
        } else {
            start
        };
        MatRefOf {
            nrows: rows,
            ncols: cols,
            ld: self.ld,
            data: &self.data[start..end.max(start)],
        }
    }

    /// Copy into an owned [`MatOf`].
    pub fn to_mat(&self) -> MatOf<S> {
        let mut data = Vec::with_capacity(self.nrows * self.ncols);
        for j in 0..self.ncols {
            data.extend_from_slice(self.col(j));
        }
        MatOf::from_col_major(self.nrows, self.ncols, data)
    }
}

/// Mutable view of a column-major matrix window with leading dimension `ld`.
#[derive(Debug)]
pub struct MatMutOf<'a, S = f64> {
    nrows: usize,
    ncols: usize,
    ld: usize,
    data: &'a mut [S],
}

/// Mutable `f64` view (the historical default element type).
pub type MatMut<'a> = MatMutOf<'a, f64>;

impl<'a, S: Scalar> MatMutOf<'a, S> {
    /// Construct a mutable view from raw parts (same contract as
    /// [`MatRefOf::from_parts`]).
    pub fn from_parts(nrows: usize, ncols: usize, ld: usize, data: &'a mut [S]) -> Self {
        assert!(ld >= nrows.max(1));
        if nrows > 0 && ncols > 0 {
            assert!((ncols - 1) * ld + nrows <= data.len(), "view out of bounds");
        }
        MatMutOf {
            nrows,
            ncols,
            ld,
            data,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Leading dimension (stride between consecutive columns).
    #[inline]
    pub fn ld(&self) -> usize {
        self.ld
    }

    /// Immutable reborrow.
    #[inline]
    pub fn as_ref(&self) -> MatRefOf<'_, S> {
        MatRefOf {
            nrows: self.nrows,
            ncols: self.ncols,
            ld: self.ld,
            data: self.data,
        }
    }

    /// Mutable reborrow (shorter lifetime).
    #[inline]
    pub fn as_mut(&mut self) -> MatMutOf<'_, S> {
        MatMutOf {
            nrows: self.nrows,
            ncols: self.ncols,
            ld: self.ld,
            data: self.data,
        }
    }

    /// Entry access (bounds-checked in debug builds only).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> S {
        debug_assert!(i < self.nrows && j < self.ncols);
        self.data[j * self.ld + i]
    }

    /// Entry write (bounds-checked in debug builds only).
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: S) {
        debug_assert!(i < self.nrows && j < self.ncols);
        self.data[j * self.ld + i] = v;
    }

    /// Column `j` as a contiguous slice.
    #[inline]
    pub fn col(&self, j: usize) -> &[S] {
        &self.data[j * self.ld..j * self.ld + self.nrows]
    }

    /// Mutable column `j`.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [S] {
        &mut self.data[j * self.ld..j * self.ld + self.nrows]
    }

    /// Mutable sub-window of shape `rows × cols` at offset `(r0, c0)`,
    /// consuming the view (use [`Self::as_mut`] to reborrow first).
    pub fn into_sub(self, r0: usize, c0: usize, rows: usize, cols: usize) -> MatMutOf<'a, S> {
        assert!(r0 + rows <= self.nrows && c0 + cols <= self.ncols);
        let start = c0 * self.ld + r0;
        let end = if rows > 0 && cols > 0 {
            start + (cols - 1) * self.ld + rows
        } else {
            start
        };
        MatMutOf {
            nrows: rows,
            ncols: cols,
            ld: self.ld,
            data: &mut self.data[start..end.max(start)],
        }
    }

    /// Mutable sub-window (reborrowing convenience).
    pub fn sub_mut(&mut self, r0: usize, c0: usize, rows: usize, cols: usize) -> MatMutOf<'_, S> {
        self.as_mut().into_sub(r0, c0, rows, cols)
    }

    /// Split into two disjoint mutable column-block views `[0, c)` and `[c, ncols)`.
    pub fn split_cols_at(self, c: usize) -> (MatMutOf<'a, S>, MatMutOf<'a, S>) {
        assert!(c <= self.ncols);
        // a window's data ends at its last column's last row, short of
        // `ncols * ld` when `ld > nrows`
        let at = (c * self.ld).min(self.data.len());
        let (left, right) = self.data.split_at_mut(at);
        (
            MatMutOf {
                nrows: self.nrows,
                ncols: c,
                ld: self.ld,
                data: left,
            },
            MatMutOf {
                nrows: self.nrows,
                ncols: self.ncols - c,
                ld: self.ld,
                data: right,
            },
        )
    }

    /// Set every entry to `v`.
    pub fn fill(&mut self, v: S) {
        for j in 0..self.ncols {
            self.col_mut(j).fill(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_is_column_major() {
        let m = Mat::from_col_major(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(m[(0, 0)], 1.);
        assert_eq!(m[(1, 0)], 2.);
        assert_eq!(m[(0, 1)], 3.);
        assert_eq!(m[(1, 2)], 6.);
    }

    #[test]
    fn views_address_subwindows() {
        let m = Mat::from_fn(4, 4, |i, j| (10 * i + j) as f64);
        let v = m.as_ref().sub(1, 2, 2, 2);
        assert_eq!(v.get(0, 0), m[(1, 2)]);
        assert_eq!(v.get(1, 1), m[(2, 3)]);
        assert_eq!(v.col(1)[0], m[(1, 3)]);
    }

    #[test]
    fn mut_views_write_through() {
        let mut m = Mat::zeros(3, 3);
        {
            let mut v = m.as_mut().into_sub(1, 1, 2, 2);
            v.set(0, 0, 7.0);
            v.set(1, 1, 8.0);
        }
        assert_eq!(m[(1, 1)], 7.0);
        assert_eq!(m[(2, 2)], 8.0);
        assert_eq!(m[(0, 0)], 0.0);
    }

    #[test]
    fn split_cols_gives_disjoint_views() {
        let mut m = Mat::from_fn(2, 4, |_, j| j as f64);
        let (mut l, mut r) = m.as_mut().split_cols_at(2);
        assert_eq!(l.ncols(), 2);
        assert_eq!(r.ncols(), 2);
        l.set(0, 0, -1.0);
        r.set(0, 0, -2.0);
        assert_eq!(m[(0, 0)], -1.0);
        assert_eq!(m[(0, 2)], -2.0);
    }

    #[test]
    fn split_cols_of_a_strided_window_at_every_edge() {
        // a 2 × 3 window of a 5 × 4 matrix: ld 5 > 2 rows, and its data ends
        // at the last column's last row
        let mut m = Mat::from_fn(5, 4, |i, j| (10 * i + j) as f64);
        // column `j` of the window
        let want = |j: usize| [(11 + j) as f64, (21 + j) as f64];
        for c in [0, 1, 3] {
            let window = m.as_mut().into_sub(1, 1, 2, 3);
            let (l, r) = window.split_cols_at(c);
            assert_eq!((l.ncols(), r.ncols()), (c, 3 - c));
            for j in 0..c {
                assert_eq!(l.col(j), want(j));
            }
            for j in 0..3 - c {
                assert_eq!(r.col(j), want(c + j));
            }
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Mat::from_fn(3, 5, |i, j| (i * 7 + j * 3) as f64);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn symmetrize_mirrors_lower() {
        let mut m = Mat::zeros(3, 3);
        m[(1, 0)] = 5.0;
        m[(2, 1)] = 6.0;
        m.symmetrize_from_lower();
        assert_eq!(m[(0, 1)], 5.0);
        assert_eq!(m[(1, 2)], 6.0);
    }

    #[test]
    fn submatrix_copies() {
        let m = Mat::from_fn(4, 4, |i, j| (i + 4 * j) as f64);
        let s = m.submatrix(1, 1, 2, 3);
        assert_eq!(s.nrows(), 2);
        assert_eq!(s[(0, 0)], m[(1, 1)]);
        assert_eq!(s[(1, 2)], m[(2, 3)]);
    }

    #[test]
    #[should_panic(expected = "view out of bounds")]
    fn view_bounds_checked() {
        let data = vec![0.0; 5];
        MatRef::from_parts(3, 2, 3, &data);
    }

    #[test]
    fn generic_storage_works_in_f32() {
        let m: MatOf<f32> = MatOf::from_fn(3, 2, |i, j| (i * 2 + j) as f32);
        assert_eq!(m[(2, 1)], 5.0f32);
        let wide: Mat = m.cast();
        assert_eq!(wide[(2, 1)], 5.0f64);
        // f32 → f64 → f32 roundtrip is exact
        assert_eq!(wide.cast::<f32>(), m);
    }
}
