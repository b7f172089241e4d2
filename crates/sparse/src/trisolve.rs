//! Triangular solves with a sparse CSC lower factor.
//!
//! Two families over the same `CscOf<S>`:
//!
//! - the **column sweeps** ([`csc_lower_solve`], [`csc_lower_t_solve`] and
//!   the multi-column forward form [`csc_lower_solve_mat`], eight right-hand
//!   sides per sweep): forward/backward substitution one stored entry at a
//!   time. They accept any lower-triangular CSC with the diagonal stored,
//!   form the `sparse factor storage` path of the Schur assembler (paper
//!   §3.1), and are the yardstick and the test oracle of the second family;
//! - the **supernodal sweeps** ([`supernodal_lower_solve`],
//!   [`supernodal_lower_t_solve`]) over the [`SupernodeRuns`] of the
//!   pattern: a fundamental supernode is already a packed trapezoid in CSC (column
//!   `j0 + k` holds rows `k..` of it and every column shares column `j0`'s
//!   index list), so per supernode the tail of `x` is gathered once into a
//!   scratch, the columns are applied as contiguous `axpy`s (forward) or
//!   fixed-order chunked dots (backward), and the scratch is scattered back
//!   once — in place on the factor's `values`, no second copy. Runs
//!   restricted to the [`RowClosure`] of a sparse right-hand side's rows
//!   ([`SupernodeRuns::restricted_to`]) skip every column it cannot reach,
//!   exactly on any lower-triangular factor. `sc_factor`'s solves and the
//!   implicit dual operator (paper Eq. 11) run on these.

use crate::csc::CscOf;
use crate::pattern::RowClosure;
use sc_dense::{MatMutOf, Scalar};
use std::ops::Range;

/// Forward substitution with column `j`: `x[j] /= L[j,j]`, then
/// `x[i] -= L[i,j] x[j]` one stored entry at a time.
#[inline]
fn forward_column<S: Scalar>(rows: &[usize], vals: &[S], j: usize, x: &mut [S]) {
    let xj = x[j] / vals[0];
    x[j] = xj;
    // sc-analyze: allow(float-eq)
    if xj != S::ZERO {
        for (&i, &v) in rows[1..].iter().zip(&vals[1..]) {
            x[i] -= v * xj;
        }
    }
}

/// Backward substitution with column `j`:
/// `x[j] = (x[j] − Σ L[i,j] x[i]) / L[j,j]`, subtracting in stored order.
#[inline]
fn backward_column<S: Scalar>(rows: &[usize], vals: &[S], j: usize, x: &mut [S]) {
    let mut s = x[j];
    for (&i, &v) in rows[1..].iter().zip(&vals[1..]) {
        s -= v * x[i];
    }
    x[j] = s / vals[0];
}

/// Solve `L x = b` in place for sparse lower-triangular `L` (diagonal entry
/// must be present in every column).
pub fn csc_lower_solve<S: Scalar>(l: &CscOf<S>, x: &mut [S]) {
    let n = l.ncols();
    assert_eq!(l.nrows(), n);
    assert_eq!(x.len(), n);
    for j in 0..n {
        let (rows, vals) = l.col(j);
        debug_assert_eq!(rows.first(), Some(&j), "missing diagonal in column {j}");
        forward_column(rows, vals, j, x);
    }
}

/// Solve `Lᵀ x = b` in place for sparse lower-triangular `L`.
pub fn csc_lower_t_solve<S: Scalar>(l: &CscOf<S>, x: &mut [S]) {
    let n = l.ncols();
    assert_eq!(l.nrows(), n);
    assert_eq!(x.len(), n);
    for j in (0..n).rev() {
        let (rows, vals) = l.col(j);
        debug_assert_eq!(rows.first(), Some(&j), "missing diagonal in column {j}");
        backward_column(rows, vals, j, x);
    }
}

/// Solve `L X = B` in place for a dense multi-column RHS (sparse TRSM).
///
/// The right-hand sides go through in groups of eight: a group is copied
/// into a row-interleaved scratch (row `i` of the group is one `[S; 8]`, a
/// short last group zero-padded), the factor is swept once over it, and the
/// group is copied back. Each stored entry `L[i,j]` thus updates eight
/// values with one index load, and the factor is streamed once per group
/// instead of once per column. Per element it is the forward substitution
/// `x = b[j] / L[j,j]`, then `b[i] -= L[i,j] x`, in column order and with no
/// zero-value fast path (sparse BLAS kernels traverse the stored pattern
/// unconditionally), so every column of the result is bitwise that of
/// [`csc_lower_solve`] up to the sign of zeros (that solve skips a column
/// whose `x` is zero).
pub fn csc_lower_solve_mat<S: Scalar>(l: &CscOf<S>, mut b: MatMutOf<'_, S>) {
    let n = l.ncols();
    assert_eq!(l.nrows(), n);
    assert_eq!(b.nrows(), n);
    let mut lanes = vec![[S::ZERO; LANES]; n];
    for c0 in (0..b.ncols()).step_by(LANES) {
        let group = c0..b.ncols().min(c0 + LANES);
        lanes.fill([S::ZERO; LANES]);
        for (k, c) in group.clone().enumerate() {
            for (row, &v) in lanes.iter_mut().zip(b.col(c)) {
                row[k] = v;
            }
        }
        for j in 0..n {
            let (rows, vals) = l.col(j);
            debug_assert_eq!(rows.first(), Some(&j), "missing diagonal in column {j}");
            let xj = lanes[j].map(|v| v / vals[0]);
            lanes[j] = xj;
            for (&i, &v) in rows[1..].iter().zip(&vals[1..]) {
                let row = &mut lanes[i];
                for k in 0..LANES {
                    row[k] -= v * xj[k];
                }
            }
        }
        for (k, c) in group.enumerate() {
            for (dst, row) in b.col_mut(c).iter_mut().zip(&lanes) {
                *dst = row[k];
            }
        }
    }
}

/// Narrowest supernode the blocked route takes; narrower ones keep the
/// indexed column loop. Keyed on the **full** width, never on how much of
/// the supernode a restricted sweep visits, so restricted and unrestricted
/// sweeps take the same route through every column they share.
const BLOCKED_MIN_WIDTH: usize = 4;

/// Accumulators of the backward sweep's chunked dot, and right-hand sides
/// per group of [`csc_lower_solve_mat`].
const LANES: usize = 8;

/// The maximal runs of consecutive columns `0..n` under `extends(j)`: does
/// column `j ≥ 1` continue the run of column `j − 1`?
fn maximal_runs(n: usize, extends: impl Fn(usize) -> bool) -> impl Iterator<Item = Range<usize>> {
    let mut j0 = 0;
    std::iter::from_fn(move || {
        let start = j0;
        if start == n {
            return None;
        }
        j0 = (start + 1..n).find(|&j| !extends(j)).unwrap_or(n);
        Some(start..j0)
    })
}

/// The **fundamental supernodes** of a Cholesky factor's pattern, ascending:
/// maximal runs of consecutive columns with nested patterns (column `j`
/// holds exactly column `j − 1`'s rows below its diagonal), found in `O(n)`
/// by the count/parent rule — column `j` extends the run of `j − 1` when it
/// is the first below-diagonal row of `j − 1` (its elimination-tree parent)
/// and holds one entry fewer. On a factor pattern that implies nesting
/// (checked in debug builds); on other lower-triangular patterns it does
/// not.
pub fn fundamental_supernodes<'a>(
    col_ptr: &'a [usize],
    row_idx: &'a [usize],
) -> impl Iterator<Item = Range<usize>> + 'a {
    let col = move |j: usize| &row_idx[col_ptr[j]..col_ptr[j + 1]];
    maximal_runs(col_ptr.len().saturating_sub(1), move |j| {
        let (prev, cur) = (col(j - 1), col(j));
        let extends = prev.get(1) == Some(&j) && prev.len() == cur.len() + 1;
        debug_assert!(
            !extends || prev[1..] == *cur,
            "columns {} and {j} pass the count/parent rule but are not nested",
            j - 1
        );
        extends
    })
}

/// A stretch of consecutive columns a sweep visits.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Span {
    cols: Range<usize>,
    /// `true`: the columns are a fundamental supernode of at least
    /// [`BLOCKED_MIN_WIDTH`] columns ending at `cols.end`, or a suffix of
    /// one — the blocked route. `false`: columns of narrower supernodes —
    /// the indexed loop, column by column.
    blocked: bool,
}

/// What the supernodal sweeps know about a lower-triangular CSC pattern:
/// which stretches of columns are fundamental supernodes wide enough for the
/// blocked route, and — once [restricted](Self::restricted_to) to a
/// [`RowClosure`] — which columns a sweep has to visit at all. Pattern-only
/// and a few words per wide supernode: one value serves a factor, its
/// refactorizations and its demoted copies.
///
/// Building one checks, once and in release builds too, that every column
/// stores its diagonal first: the invariant the supernodal sweeps divide by.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SupernodeRuns {
    /// Number of columns of the pattern.
    n: usize,
    /// The visited columns, ascending and disjoint.
    spans: Vec<Span>,
    /// Longest tail (rows below the pivot block) of a blocked span: the
    /// scratch the sweeps need.
    max_tail: usize,
}

impl SupernodeRuns {
    /// Of the pattern of a **Cholesky factor**, in `O(n)`: the runs are
    /// [`fundamental_supernodes`]' (the count/parent rule, which on any other
    /// lower-triangular matrix does not imply nesting — use
    /// [`verified`](Self::verified) there).
    ///
    /// # Panics
    /// If a column does not store its diagonal first.
    pub fn of_factor_pattern(col_ptr: &[usize], row_idx: &[usize]) -> Self {
        Self::build(col_ptr, row_idx, fundamental_supernodes(col_ptr, row_idx))
            .expect("a factor pattern stores every column's diagonal first")
    }

    /// Of an arbitrary lower-triangular CSC matrix, verifying everything the
    /// sweeps rely on: the format invariants ([`CscOf::check_invariants`]), a
    /// square shape, the diagonal stored first in every column, and — by
    /// comparing the index lists in full — the nesting of every run it
    /// forms. `O(nnz)`.
    pub fn verified<S: Scalar>(l: &CscOf<S>) -> Result<Self, String> {
        l.check_invariants()?;
        if l.nrows() != l.ncols() {
            return Err(format!("{} x {} is not square", l.nrows(), l.ncols()));
        }
        let (col_ptr, row_idx) = (l.col_ptr(), l.row_idx());
        let col = |j: usize| &row_idx[col_ptr[j]..col_ptr[j + 1]];
        let nested = maximal_runs(l.ncols(), |j| col(j - 1).get(1..) == Some(col(j)));
        Self::build(col_ptr, row_idx, nested)
    }

    /// Check the diagonals, then (`runs` is lazy) sort the runs into spans:
    /// wide ones one span each, neighbouring narrow ones merged.
    fn build(
        col_ptr: &[usize],
        row_idx: &[usize],
        runs: impl Iterator<Item = Range<usize>>,
    ) -> Result<Self, String> {
        let n = col_ptr.len().saturating_sub(1);
        for j in 0..n {
            if col_ptr[j] == col_ptr[j + 1] || row_idx[col_ptr[j]] != j {
                return Err(format!("column {j} does not store its diagonal first"));
            }
        }
        let (mut spans, mut max_tail) = (Vec::<Span>::new(), 0);
        for cols in runs {
            let blocked = cols.len() >= BLOCKED_MIN_WIDTH;
            if blocked {
                // every column of a run has the run's tail
                let tail = col_ptr[cols.start + 1] - col_ptr[cols.start] - cols.len();
                max_tail = max_tail.max(tail);
            }
            match spans.last_mut() {
                Some(last) if !blocked && !last.blocked => last.cols.end = cols.end,
                _ => spans.push(Span { cols, blocked }),
            }
        }
        Ok(SupernodeRuns { n, spans, max_tail })
    }

    /// The same runs, visiting only the columns of `closure` (taken in the
    /// pattern `self` was built from): the sweeps over the restricted value
    /// are exact on the closure and leave every other entry of `x`
    /// untouched. Inside a nested run column `j`'s first below-diagonal row
    /// is `j + 1`, so the visited columns of a blocked span are a suffix of
    /// it.
    pub fn restricted_to(&self, closure: &RowClosure) -> Self {
        assert_eq!(closure.n(), self.n, "closure of another pattern");
        let mut reached = vec![false; self.n];
        for &j in closure.cols() {
            reached[j] = true;
        }
        let mut spans = Vec::new();
        for Span { cols, blocked } in &self.spans {
            // the maximal reached stretches of the span
            let mut j = cols.start;
            while let Some(start) = (j..cols.end).find(|&j| reached[j]) {
                j = (start..cols.end).find(|&j| !reached[j]).unwrap_or(cols.end);
                debug_assert!(!blocked || j == cols.end, "closure is a suffix");
                let (cols, blocked) = (start..j, *blocked);
                spans.push(Span { cols, blocked });
            }
        }
        SupernodeRuns { spans, ..*self }
    }

    /// Number of columns of the pattern.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The column ranges the sweeps visit, ascending and disjoint.
    pub fn visited(&self) -> impl DoubleEndedIterator<Item = Range<usize>> + '_ {
        self.spans.iter().map(|span| span.cols.clone())
    }

    /// Shape checks of a sweep's arguments; sizes its scratch.
    fn prepare<S: Scalar>(&self, l: &CscOf<S>, x: &[S], w: &mut Vec<S>) {
        assert_eq!(l.nrows(), l.ncols());
        assert_eq!(l.ncols(), self.n, "runs of another pattern");
        assert_eq!(x.len(), self.n);
        w.resize(self.max_tail, S::ZERO);
    }
}

/// Row indices of the tail of the run ending before column `j1`: the rows
/// below its pivot block, shared by every column of the run.
fn run_tail<S: Scalar>(l: &CscOf<S>, j1: usize) -> &[usize] {
    &l.row_idx()[l.col_ptr()[j1 - 1] + 1..l.col_ptr()[j1]]
}

/// `y -= alpha x`, element by element (the forward sweep's column update:
/// per element the same operation, in the same column order, as the
/// indexed loop's `x[i] -= v * xj`).
#[inline]
fn sub_scaled<S: Scalar>(alpha: S, x: &[S], y: &mut [S]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi -= xi * alpha;
    }
}

/// Dot product in the backward sweep's reduction order, fixed by
/// definition: element `i` of every full chunk of [`LANES`] goes to
/// accumulator `i mod LANES`, the accumulators are summed by halving
/// (`0+4, 1+5, …`, then `0+2, 1+3`, then `0+1`), and the remainder is added
/// to that sum in order. Plain arithmetic, so a build with or without wide
/// vectors computes the same bits.
#[inline]
fn chunked_dot<S: Scalar>(a: &[S], b: &[S]) -> S {
    debug_assert_eq!(a.len(), b.len());
    let (ac, bc) = (a.chunks_exact(LANES), b.chunks_exact(LANES));
    let (ar, br) = (ac.remainder(), bc.remainder());
    let mut acc = [S::ZERO; LANES];
    for (ca, cb) in ac.zip(bc) {
        for k in 0..LANES {
            acc[k] += ca[k] * cb[k];
        }
    }
    let mut width = LANES / 2;
    while width > 0 {
        for k in 0..width {
            acc[k] += acc[k + width];
        }
        width /= 2;
    }
    ar.iter().zip(br).fold(acc[0], |s, (&x, &y)| s + x * y)
}

/// Solve `L x = b` in place over the supernodes of `runs` (built from `l`'s
/// pattern). `w` is scratch: resized as needed, contents overwritten.
///
/// Bitwise the result of [`csc_lower_solve`] up to the sign of zeros: every
/// entry of `x` receives the same updates in the same column order. Over
/// restricted runs, only the closure's columns are visited.
pub fn supernodal_lower_solve<S: Scalar>(
    l: &CscOf<S>,
    runs: &SupernodeRuns,
    x: &mut [S],
    w: &mut Vec<S>,
) {
    runs.prepare(l, x, w);
    let (col_ptr, vals) = (l.col_ptr(), l.values());
    for Span { cols, blocked } in &runs.spans {
        let (first, j1) = (cols.start, cols.end);
        if !blocked {
            for j in first..j1 {
                let (rows, vals) = l.col(j);
                forward_column(rows, vals, j, x);
            }
            continue;
        }
        let tail = run_tail(l, j1);
        let w = &mut w[..tail.len()];
        for (wi, &i) in w.iter_mut().zip(tail) {
            *wi = x[i];
        }
        for j in first..j1 {
            let (pivots, below) = vals[col_ptr[j]..col_ptr[j + 1]].split_at(j1 - j);
            let xj = x[j] / pivots[0];
            x[j] = xj;
            sub_scaled(xj, &pivots[1..], &mut x[j + 1..j1]);
            sub_scaled(xj, below, w);
        }
        for (&wi, &i) in w.iter().zip(tail) {
            x[i] = wi;
        }
    }
}

/// Solve `Lᵀ x = b` in place over the supernodes of `runs`; scratch as in
/// [`supernodal_lower_solve`].
///
/// Equal to [`csc_lower_t_solve`] up to rounding: inside a blocked run each
/// `x[j]` is `(x[j] − (pivot-block dot + tail dot)) / L[j,j]` instead of one
/// running subtraction, both dots in an order fixed by definition (eight
/// accumulators over full chunks of eight, summed by halving, remainder
/// added in order) and therefore the same with or without wide vectors.
/// Over restricted runs the closure's entries of `x` are bitwise those of
/// the unrestricted sweep, and no other entry is read or written.
pub fn supernodal_lower_t_solve<S: Scalar>(
    l: &CscOf<S>,
    runs: &SupernodeRuns,
    x: &mut [S],
    w: &mut Vec<S>,
) {
    runs.prepare(l, x, w);
    let (col_ptr, vals) = (l.col_ptr(), l.values());
    for Span { cols, blocked } in runs.spans.iter().rev() {
        let (first, j1) = (cols.start, cols.end);
        if !blocked {
            for j in (first..j1).rev() {
                let (rows, vals) = l.col(j);
                backward_column(rows, vals, j, x);
            }
            continue;
        }
        let tail = run_tail(l, j1);
        let w = &mut w[..tail.len()];
        for (wi, &i) in w.iter_mut().zip(tail) {
            *wi = x[i];
        }
        for j in (first..j1).rev() {
            let (pivots, below) = vals[col_ptr[j]..col_ptr[j + 1]].split_at(j1 - j);
            let s = chunked_dot(&pivots[1..], &x[j + 1..j1]) + chunked_dot(below, w);
            x[j] = (x[j] - s) / pivots[0];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use crate::csc::Csc;
    use sc_dense::{Mat, MatOf};

    fn sparse_lower(n: usize) -> Csc {
        let mut c = Coo::new(n, n);
        for j in 0..n {
            c.push(j, j, 2.0 + (j % 3) as f64);
            if j + 2 < n {
                c.push(j + 2, j, -0.5);
            }
            if j + 5 < n {
                c.push(j + 5, j, 0.25);
            }
        }
        c.to_csc()
    }

    #[test]
    fn vec_solve_matches_dense() {
        let n = 11;
        let l = sparse_lower(n);
        let ld = l.to_dense();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
        let mut x = b.clone();
        csc_lower_solve(&l, &mut x);
        let mut xd = b.clone();
        sc_dense::trsv_lower(ld.as_ref(), &mut xd);
        for i in 0..n {
            assert!((x[i] - xd[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn vec_t_solve_matches_dense() {
        let n = 9;
        let l = sparse_lower(n);
        let ld = l.to_dense();
        let b: Vec<f64> = (0..n).map(|i| (i as f64) - 4.0).collect();
        let mut x = b.clone();
        csc_lower_t_solve(&l, &mut x);
        let mut xd = b.clone();
        sc_dense::trsv_lower_t(ld.as_ref(), &mut xd);
        for i in 0..n {
            assert!((x[i] - xd[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn mat_solve_matches_dense() {
        let n = 13;
        let m = 4;
        let l = sparse_lower(n);
        let ld = l.to_dense();
        let b = Mat::from_fn(n, m, |i, j| ((i * 3 + j * 7) % 5) as f64 - 2.0);
        let mut x = b.clone();
        csc_lower_solve_mat(&l, x.as_mut());
        let mut xd = b.clone();
        sc_dense::trsm_lower_left(ld.as_ref(), xd.as_mut());
        assert!(sc_dense::max_abs_diff(x.as_ref(), xd.as_ref()) < 1e-12);
    }

    /// `csc_lower_solve_mat` on the `n × width` window at `(pad, pad)` of a
    /// `(n + 2 pad) × (width + 2 pad)` matrix, against `csc_lower_solve` on
    /// each of the window's columns: bit for bit, and nothing outside the
    /// window touched. Columns are zero above a pivot row, as the stepped
    /// right-hand sides of the assembly are.
    fn assert_mat_solve_is_per_column<S: Scalar>(l: &CscOf<S>, width: usize, pad: usize) {
        let n = l.ncols();
        let big = MatOf::<S>::from_fn(n + 2 * pad, width + 2 * pad, |i, j| {
            if i < (j * 5) % (n + 1) {
                S::ZERO
            } else {
                S::from_f64(((i * 7 + j * 13) % 11) as f64 * 0.37 - 1.5)
            }
        });
        let mut got = big.clone();
        csc_lower_solve_mat(l, got.as_mut().into_sub(pad, pad, n, width));
        let bits = |v: &[S]| v.iter().map(|x| x.to_f64().to_bits()).collect::<Vec<_>>();
        for j in 0..big.ncols() {
            let mut want = big.col(j).to_vec();
            if (pad..pad + width).contains(&j) {
                csc_lower_solve(l, &mut want[pad..pad + n]);
            }
            assert_eq!(bits(got.col(j)), bits(&want), "column {j}, width {width}");
        }
    }

    #[test]
    fn mat_solve_is_bitwise_the_per_column_solve() {
        let l = sparse_lower(23);
        // some columns store only their diagonal
        let mut c = Coo::new(19, 19);
        for j in 0..19 {
            c.push(j, j, 1.5 + (j % 4) as f64 * 0.3);
            if j % 3 == 0 && j + 4 < 19 {
                c.push(j + 4, j, -0.7);
                c.push(18, j, 0.2);
            }
        }
        let diag_only = c.to_csc();
        for width in [0, 1, 7, 8, 9, 17] {
            for (l, pad) in [(&l, 0), (&l, 3), (&diag_only, 0)] {
                assert_mat_solve_is_per_column(l, width, pad);
                assert_mat_solve_is_per_column(&l.cast::<f32>(), width, pad);
            }
        }
    }

    #[test]
    fn solve_preserves_zeros_above_pivot() {
        // stepped-shape invariant on the sparse path too
        let n = 10;
        let l = sparse_lower(n);
        let mut b = Mat::zeros(n, 2);
        for i in 4..n {
            b[(i, 0)] = 1.0;
        }
        for i in 7..n {
            b[(i, 1)] = 2.0;
        }
        csc_lower_solve_mat(&l, b.as_mut());
        for i in 0..4 {
            assert_eq!(b[(i, 0)], 0.0);
        }
        for i in 0..7 {
            assert_eq!(b[(i, 1)], 0.0);
        }
    }

    #[test]
    fn f32_solve_tracks_f64() {
        let n = 10;
        let l = sparse_lower(n);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3) - 1.0).collect();
        let mut x64 = b.clone();
        csc_lower_solve(&l, &mut x64);
        let l32 = l.cast::<f32>();
        let mut x32: Vec<f32> = b.iter().map(|&v| v as f32).collect(); // sc-analyze: allow(precision-discipline)
        csc_lower_solve(&l32, &mut x32);
        for i in 0..n {
            assert!((f64::from(x32[i]) - x64[i]).abs() < 1e-4);
        }
    }

    #[test]
    fn chunked_dot_has_the_documented_reduction_order() {
        let a: Vec<f64> = (0..21).map(|i| 1.0 + (i as f64) * 0.37).collect();
        let b: Vec<f64> = (0..21).map(|i| 0.9 - (i as f64) * 0.11).collect();
        let mut acc = [0.0f64; LANES];
        for i in 0..16 {
            acc[i % LANES] += a[i] * b[i];
        }
        let quad = [
            acc[0] + acc[4],
            acc[1] + acc[5],
            acc[2] + acc[6],
            acc[3] + acc[7],
        ];
        let mut want = (quad[0] + quad[2]) + (quad[1] + quad[3]);
        for i in 16..21 {
            want += a[i] * b[i];
        }
        assert_eq!(chunked_dot(&a, &b).to_bits(), want.to_bits());
        assert_eq!(chunked_dot::<f64>(&[], &[]), 0.0);
    }
}
