//! Packed symmetric storage and the fused symmetric matrix-vector product.
//!
//! The explicit local dual operator `F̃ᵢ` is symmetric and SYRK only ever
//! computes its lower triangle, so the per-iteration apply (paper Eq. 12)
//! keeps just that triangle ([`SymPackedOf`], `n(n+1)/2` entries) and
//! [`symv`] streams it once: every loaded entry `a[i][j]` feeds both
//! `y[i] += a[i][j]·x[j]` and the dot product `y[j] += a[i][j]·x[i]`. The
//! apply is memory-bound, so half the bytes is half the time.
//!
//! [`symv`] walks four columns per pass. The `4 × 4` block on the diagonal
//! is scalar; below it one *tile* handles the rows in chunks of 64 bytes
//! (8 `f64` / 16 `f32` lanes): per chunk one load of each column, of `x`
//! and of `y`, four FMAs into `y` and four FMAs into per-lane dot
//! accumulators. The tile is explicit AVX-512 intrinsics where the build
//! targets them and a portable body otherwise; the two are **bitwise
//! identical** because the reduction order is part of the kernel's
//! definition, not of the instruction set:
//!
//! per-lane FMA accumulators → summed in lane order `0..L` → the scalar
//! remainder rows → added to `y[j]`.
//!
//! PCPG's iteration count is sensitive to that order: on the benchmark's 2D
//! cluster workload the full-square `gemv` converges in 100 iterations, this
//! kernel in 100, and a prototype of it that reduced the lanes as a tree
//! (`_mm512_reduce_add_pd`) in 103 — the edge of the benchmark's 3 % bound.
//! So the order is fixed here and the two tiles are tested against each
//! other bit for bit.

use crate::mat::{MatOf, MatRefOf};
use crate::scalar::Scalar;

/// Columns per pass of [`symv`].
const NB: usize = 4;

/// Lower triangle of a symmetric matrix, packed column by column: column
/// `j` holds rows `j..n` contiguously, diagonal entry first.
#[derive(Clone, Debug, PartialEq)]
pub struct SymPackedOf<S = f64> {
    n: usize,
    data: Vec<S>,
}

impl<S: Scalar> SymPackedOf<S> {
    /// Pack the lower triangle of the square matrix `a`. Entries above the
    /// diagonal are never read (SYRK-style producers leave them unset).
    pub fn from_lower(a: MatRefOf<'_, S>) -> Self {
        let n = a.nrows();
        assert_eq!(a.ncols(), n, "a packed symmetric matrix is square");
        let mut data = Vec::with_capacity(n * (n + 1) / 2);
        for j in 0..n {
            data.extend_from_slice(&a.col(j)[j..]);
        }
        SymPackedOf { n, data }
    }

    /// The triangle of order `n` whose entry `(i, j)`, `i ≥ j`, is
    /// `f(i, j)`, called column by column.
    pub fn from_lower_fn(n: usize, mut f: impl FnMut(usize, usize) -> S) -> Self {
        let mut data = Vec::with_capacity(n * (n + 1) / 2);
        for j in 0..n {
            data.extend((j..n).map(|i| f(i, j)));
        }
        SymPackedOf { n, data }
    }

    /// The full symmetric square.
    pub fn to_dense(&self) -> MatOf<S> {
        let mut a = MatOf::zeros(self.n, self.n);
        let mut rest = self.data.as_slice();
        for j in 0..self.n {
            let col;
            (col, rest) = rest.split_at(self.n - j);
            for (i, &v) in (j..self.n).zip(col) {
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        a
    }

    /// Order of the matrix.
    pub fn nrows(&self) -> usize {
        self.n
    }

    /// The `n(n+1)/2` stored entries, column by column.
    pub fn data(&self) -> &[S] {
        &self.data
    }

    /// Element-wise precision conversion, as [`MatOf::cast`](crate::MatOf::cast).
    pub fn cast<T: Scalar>(&self) -> SymPackedOf<T> {
        SymPackedOf {
            n: self.n,
            data: self.data.iter().map(|&v| T::from_f64(v.to_f64())).collect(),
        }
    }
}

/// `y = A x` for the packed symmetric `A`.
pub fn symv<S: Scalar>(a: &SymPackedOf<S>, x: &[S], y: &mut [S]) {
    symv_with(a, x, y, tile::<S>);
}

/// The rows-below-the-block part of one pass: `cols[c]`, `x` and `y` are
/// the same rows of column `c`, of the input and of the output; `xj[c]` is
/// the input at column `c`. A tile updates `y` over the leading whole chunks
/// and returns each column's dot product with `x` over those rows.
type Tile<S> = fn(cols: [&[S]; NB], xj: [S; NB], x: &[S], y: &mut [S]) -> [S; NB];

/// [`symv`] with the tile as a parameter (the test of tile equality runs
/// both through the same pass structure).
fn symv_with<S: Scalar>(a: &SymPackedOf<S>, x: &[S], y: &mut [S], tile: Tile<S>) {
    let n = a.n;
    assert_eq!(x.len(), n, "symv x length mismatch");
    assert_eq!(y.len(), n, "symv y length mismatch");
    let lanes = 64 / S::BYTES;
    y.fill(S::ZERO);
    let mut rest = a.data.as_slice();
    for j0 in (0..n).step_by(NB) {
        let w = NB.min(n - j0);
        // column c of the pass: rows j0 + c .. n
        let mut cols: [&[S]; NB] = [&[]; NB];
        for (c, col) in cols.iter_mut().enumerate().take(w) {
            (*col, rest) = rest.split_at(n - j0 - c);
        }
        // the w × w block on the diagonal
        for c in 0..w {
            let (jc, col) = (j0 + c, cols[c]);
            y[jc] = col[0].mul_add(x[jc], y[jc]);
            for r in c + 1..w {
                let (jr, v) = (j0 + r, col[r - c]);
                y[jr] = v.mul_add(x[jc], y[jr]);
                y[jc] = v.mul_add(x[jr], y[jc]);
            }
        }
        if w < NB {
            break; // the last, narrow pass has no rows below its block
        }
        // rows j0 + NB .. n: whole chunks in the tile, the rest scalar
        for (c, col) in cols.iter_mut().enumerate() {
            *col = &col[NB - c..];
        }
        let xj = [x[j0], x[j0 + 1], x[j0 + 2], x[j0 + 3]];
        let (xb, yb) = (&x[j0 + NB..], &mut y[j0 + NB..]);
        let mut dots = tile(cols, xj, xb, yb);
        for i in xb.len() / lanes * lanes..xb.len() {
            for c in 0..NB {
                yb[i] = cols[c][i].mul_add(xj[c], yb[i]);
                dots[c] = cols[c][i].mul_add(xb[i], dots[c]);
            }
        }
        for (yj, &d) in y[j0..j0 + NB].iter_mut().zip(&dots) {
            *yj += d;
        }
    }
}

/// The tile of this build: the AVX-512 one of the element width where the
/// target has it, the portable one otherwise.
fn tile<S: Scalar>(cols: [&[S]; NB], xj: [S; NB], x: &[S], y: &mut [S]) -> [S; NB] {
    // The sealed Scalar trait admits exactly f32 and f64, so the element
    // width identifies the type (the dispatch of `blocked::microkernel`).
    #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
    {
        // the tiles touch the leading `chunks` whole chunks of every slice
        let chunks = x.len() / (64 / S::BYTES);
        assert!(y.len() == x.len() && cols.iter().all(|c| c.len() == x.len()));
        if S::BYTES == 8 {
            // SAFETY: S::BYTES == 8 identifies S == f64 under the sealed
            // trait, so the pointer casts reinterpret nothing; the assertion
            // above gives every slice `chunks * 8` readable (`y`: writable)
            // elements, and AVX-512F is a compile-time target feature here.
            let d = unsafe {
                tile_f64_avx512(
                    chunks,
                    cols.map(|c| c.as_ptr().cast()),
                    xj.map(|v| v.to_f64()),
                    x.as_ptr().cast(),
                    y.as_mut_ptr().cast(),
                )
            };
            return d.map(S::from_f64);
        }
        if S::BYTES == 4 {
            // SAFETY: S::BYTES == 4 identifies S == f32 under the sealed
            // trait; lengths and target feature as above, 16 lanes a chunk.
            let d = unsafe {
                tile_f32_avx512(
                    chunks,
                    cols.map(|c| c.as_ptr().cast()),
                    xj.map(|v| f32::from_f64(v.to_f64())),
                    x.as_ptr().cast(),
                    y.as_mut_ptr().cast(),
                )
            };
            return d.map(|v| S::from_f64(v.to_f64()));
        }
    }
    tile_generic(cols, xj, x, y)
}

/// Portable tile: the same per-lane fused multiply-adds as the AVX-512
/// tiles, written so that LLVM keeps each accumulator in vector registers.
#[cfg_attr(
    all(target_arch = "x86_64", target_feature = "avx512f"),
    allow(dead_code)
)]
fn tile_generic<S: Scalar>(cols: [&[S]; NB], xj: [S; NB], x: &[S], y: &mut [S]) -> [S; NB] {
    if S::BYTES == 8 {
        tile_lanes::<S, 8>(cols, xj, x, y)
    } else {
        tile_lanes::<S, 16>(cols, xj, x, y)
    }
}

/// [`tile_generic`] at `L` lanes per chunk.
#[inline(always)]
fn tile_lanes<S: Scalar, const L: usize>(
    [a0, a1, a2, a3]: [&[S]; NB],
    xj: [S; NB],
    x: &[S],
    y: &mut [S],
) -> [S; NB] {
    // one named accumulator array per column, as in `microkernel_generic`
    let mut d0 = [S::ZERO; L];
    let mut d1 = [S::ZERO; L];
    let mut d2 = [S::ZERO; L];
    let mut d3 = [S::ZERO; L];
    let cols = a0
        .chunks_exact(L)
        .zip(a1.chunks_exact(L))
        .zip(a2.chunks_exact(L))
        .zip(a3.chunks_exact(L));
    let rows = y.chunks_exact_mut(L).zip(x.chunks_exact(L));
    for ((yv, xv), (((c0, c1), c2), c3)) in rows.zip(cols) {
        for l in 0..L {
            let t = c0[l].mul_add(xj[0], yv[l]);
            let t = c1[l].mul_add(xj[1], t);
            let t = c2[l].mul_add(xj[2], t);
            yv[l] = c3[l].mul_add(xj[3], t);
            d0[l] = c0[l].mul_add(xv[l], d0[l]);
            d1[l] = c1[l].mul_add(xv[l], d1[l]);
            d2[l] = c2[l].mul_add(xv[l], d2[l]);
            d3[l] = c3[l].mul_add(xv[l], d3[l]);
        }
    }
    [d0, d1, d2, d3].map(|d| lane_sum(&d))
}

/// The lanes of one dot accumulator summed in lane order — the reduction
/// both tiles share (see the module docs for why it is not a tree).
#[inline(always)]
fn lane_sum<S: Scalar>(lanes: &[S]) -> S {
    lanes[1..].iter().fold(lanes[0], |s, &v| s + v)
}

/// AVX-512 `f64` tile: per 8-row chunk, six loads, four FMAs into the `y`
/// vector (stored back) and one FMA into each column's dot accumulator.
///
/// # Safety
/// Every pointer of `cols`, `x` and `y` must address at least `chunks * 8`
/// `f64` values (readable; `y` also writable and not aliased by the others),
/// and the CPU must have AVX-512F (a compile-time `target_feature` here).
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
#[inline(always)]
unsafe fn tile_f64_avx512(
    chunks: usize,
    [a0, a1, a2, a3]: [*const f64; NB],
    xj: [f64; NB],
    x: *const f64,
    y: *mut f64,
) -> [f64; NB] {
    use core::arch::x86_64::*;
    let [b0, b1, b2, b3] = xj.map(|v| _mm512_set1_pd(v));
    let mut d = [_mm512_setzero_pd(); NB];
    for o in (0..chunks * 8).step_by(8) {
        let (c0, c1) = (_mm512_loadu_pd(a0.add(o)), _mm512_loadu_pd(a1.add(o)));
        let (c2, c3) = (_mm512_loadu_pd(a2.add(o)), _mm512_loadu_pd(a3.add(o)));
        let xv = _mm512_loadu_pd(x.add(o));
        let t = _mm512_fmadd_pd(c0, b0, _mm512_loadu_pd(y.add(o)));
        let t = _mm512_fmadd_pd(c1, b1, t);
        let t = _mm512_fmadd_pd(c2, b2, t);
        _mm512_storeu_pd(y.add(o), _mm512_fmadd_pd(c3, b3, t));
        d = [
            _mm512_fmadd_pd(c0, xv, d[0]),
            _mm512_fmadd_pd(c1, xv, d[1]),
            _mm512_fmadd_pd(c2, xv, d[2]),
            _mm512_fmadd_pd(c3, xv, d[3]),
        ];
    }
    d.map(|v| {
        let mut lanes = [0.0f64; 8];
        _mm512_storeu_pd(lanes.as_mut_ptr(), v);
        lane_sum(&lanes)
    })
}

/// AVX-512 `f32` tile: [`tile_f64_avx512`] at 16 lanes per chunk.
///
/// # Safety
/// Same contract as [`tile_f64_avx512`], with `chunks * 16` `f32` values.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
#[inline(always)]
unsafe fn tile_f32_avx512(
    chunks: usize,
    [a0, a1, a2, a3]: [*const f32; NB],
    xj: [f32; NB],
    x: *const f32,
    y: *mut f32,
) -> [f32; NB] {
    use core::arch::x86_64::*;
    let [b0, b1, b2, b3] = xj.map(|v| _mm512_set1_ps(v));
    let mut d = [_mm512_setzero_ps(); NB];
    for o in (0..chunks * 16).step_by(16) {
        let (c0, c1) = (_mm512_loadu_ps(a0.add(o)), _mm512_loadu_ps(a1.add(o)));
        let (c2, c3) = (_mm512_loadu_ps(a2.add(o)), _mm512_loadu_ps(a3.add(o)));
        let xv = _mm512_loadu_ps(x.add(o));
        let t = _mm512_fmadd_ps(c0, b0, _mm512_loadu_ps(y.add(o)));
        let t = _mm512_fmadd_ps(c1, b1, t);
        let t = _mm512_fmadd_ps(c2, b2, t);
        _mm512_storeu_ps(y.add(o), _mm512_fmadd_ps(c3, b3, t));
        d = [
            _mm512_fmadd_ps(c0, xv, d[0]),
            _mm512_fmadd_ps(c1, xv, d[1]),
            _mm512_fmadd_ps(c2, xv, d[2]),
            _mm512_fmadd_ps(c3, xv, d[3]),
        ];
    }
    d.map(|v| {
        let mut lanes = [0.0f32; 16];
        _mm512_storeu_ps(lanes.as_mut_ptr(), v);
        lane_sum(&lanes)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIZES: [usize; 16] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 64, 131, 533];

    /// A symmetric matrix and a vector of pseudo-random values in `[-1, 1)`.
    fn sym_and_x<S: Scalar>(n: usize, seed: u64) -> (MatOf<S>, Vec<S>) {
        let mut state = seed | 1;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            S::from_f64(((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0)
        };
        let mut a = MatOf::from_fn(n, n, |_, _| next());
        a.symmetrize_from_lower();
        let x = (0..n).map(|_| next()).collect();
        (a, x)
    }

    fn symv_matches_naive<S: Scalar>() {
        for n in SIZES {
            let (a, x) = sym_and_x::<S>(n, 7 + n as u64);
            let mut y = vec![S::from_f64(f64::NAN); n];
            symv(&SymPackedOf::from_lower(a.as_ref()), &x, &mut y);
            for i in 0..n {
                let terms = (0..n).map(|j| a[(i, j)].to_f64() * x[j].to_f64());
                let (want, bound) = terms.fold((0.0, 0.0), |(s, b), t| (s + t, b + t.abs()));
                let tol = (n + 2) as f64 * S::EPSILON.to_f64() * bound;
                let got = y[i].to_f64();
                assert!(
                    (got - want).abs() <= tol,
                    "{} n={n} row {i}: {got} vs {want}",
                    S::NAME
                );
            }
        }
    }

    #[test]
    fn symv_matches_the_naive_double_loop_at_f64_and_f32() {
        symv_matches_naive::<f64>();
        symv_matches_naive::<f32>();
    }

    #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
    #[test]
    fn avx512_and_portable_tiles_are_bitwise_equal() {
        fn check<S: Scalar>() {
            for n in SIZES {
                let (a, x) = sym_and_x::<S>(n, 11 + n as u64);
                let packed = SymPackedOf::from_lower(a.as_ref());
                let (mut simd, mut portable) = (vec![S::ZERO; n], vec![S::ZERO; n]);
                symv_with(&packed, &x, &mut simd, tile::<S>);
                symv_with(&packed, &x, &mut portable, tile_generic::<S>);
                assert_eq!(simd, portable, "{} n={n}", S::NAME);
            }
        }
        check::<f64>();
        check::<f32>();
    }

    #[test]
    fn from_lower_never_reads_above_the_diagonal() {
        let n = 37;
        let (a, x) = sym_and_x::<f64>(n, 3);
        let mut poisoned = a.clone();
        for j in 0..n {
            for i in 0..j {
                poisoned[(i, j)] = f64::NAN;
            }
        }
        let packed = SymPackedOf::from_lower(poisoned.as_ref());
        assert_eq!(packed, SymPackedOf::from_lower(a.as_ref()));
        assert_eq!((packed.nrows(), packed.data().len()), (n, n * (n + 1) / 2));
        let mut y = vec![0.0; n];
        symv(&packed, &x, &mut y);
        assert!(y.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn from_lower_fn_and_to_dense_round_trip_a_symmetric_square() {
        for n in SIZES {
            let (a, _) = sym_and_x::<f64>(n, 13 + n as u64);
            let packed = SymPackedOf::from_lower_fn(n, |i, j| a[(i, j)]);
            assert_eq!(packed, SymPackedOf::from_lower(a.as_ref()), "n={n}");
            assert_eq!(packed.to_dense(), a, "n={n}");
        }
    }

    #[test]
    fn cast_round_trips_through_f32() {
        let (a, _) = sym_and_x::<f32>(19, 5);
        let packed = SymPackedOf::from_lower(a.as_ref());
        let wide = packed.cast::<f64>();
        assert_eq!(wide.nrows(), 19);
        assert_eq!(wide.cast::<f32>(), packed);
        let mut pairs = wide.data().iter().zip(packed.data());
        assert!(pairs.all(|(w, p)| w.to_bits() == f64::from(*p).to_bits()));
    }
}
