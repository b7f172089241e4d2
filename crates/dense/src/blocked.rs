//! Cache-blocked variants of the dense hot kernels: one packed loop nest.
//!
//! The scalar kernels in [`mod@crate::gemm`], [`crate::trsm`], [`crate::syrk`]
//! and [`crate::chol`] stay as the reference implementations; the public
//! entry points (`gemm`, `trsm_lower_left`, `syrk_t`,
//! `partial_cholesky_in_place`) auto-select the blocked variants here once a
//! problem is large enough to pay for packing. Keeping the dispatch *inside*
//! `sc_dense` means every execution backend (`CpuExec`, the simulated
//! `GpuExec`, `RecordingExec`) sees the same numbers bitwise — the
//! cross-backend equality tests in `sc_core::exec` do not care which variant
//! ran, only that they all ran the same one.
//!
//! Everything here is the same BLIS-style machinery: an `NC → KC → MC`
//! cache-block loop nest over panels packed by [`crate::pack`] (one buffer
//! per operand, reused from block to block), feeding an `MR × NR` register
//! microkernel — explicit AVX-512 broadcast-FMA intrinsics where the build
//! targets them, a portable auto-vectorized body otherwise.
//!
//! - [`gemm_blocked`] is the nest over every tile of `C`.
//! - [`syrk_t_blocked`] is the same nest over the tiles on or below the
//!   diagonal: tiles strictly above it are skipped, the ones that cross it
//!   are stored through a mask, and both operands are packed from the one
//!   input. No tile runs at scalar rate.
//! - [`trsm_lower_left_blocked`] solves `Xᵀ Lᵀ = Bᵀ`, so that `Lᵀ` is the
//!   packed B operand and `Xᵀ` the packed A operand. Per `KC` diagonal block
//!   a packed block of `Xᵀ` is solved where it sits, left-looking: the
//!   microkernel applies a sliver's already-solved depth steps to its next
//!   `MR × NR` tile, which is finished by substitution against the `NR × NR`
//!   triangle with pre-inverted diagonal entries, vectorized across the `MR`
//!   right-hand sides. The finished block then updates the rows below it as
//!   one rank-`KC` sweep of the same tiles.
//! - [`partial_cholesky_blocked`] is right-looking over `4·MR`-wide panels:
//!   the diagonal tile is `MR`-wide steps of the same scheme down to the
//!   scalar kernel, the panel below it is the same triangular solve in its
//!   untransposed form `X L₁₁ᵀ = A₂₁`, and the trailing update is the
//!   lower-triangle nest with `L₂₁` as both operands.
//!
//! Accumulation order differs from the scalar kernels (sums are re-blocked,
//! fused, and the solves multiply by reciprocals), so blocked results agree
//! with the reference to rounding, not bitwise; the proptests in
//! `tests/blocked.rs` pin the tolerance and the TRSM backward error.

use crate::chol::{partial_cholesky_scalar, CholError};
use crate::gemm::{op_shape, Trans};
use crate::mat::{MatMutOf, MatRefOf};
use crate::pack::{Lanes, MR, NR};
use crate::scalar::Scalar;

/// Depth of one packed cache block (`kc`): `KC × MR` A-slivers and `KC × NR`
/// B-slivers stay L1-resident while the microkernel streams them.
pub const KC: usize = 256;
/// Height of one packed A block (`mc`): `MC × KC` values sit in L2.
pub const MC: usize = 128;
/// Width of one packed B block (`nc`): `KC × NC` values sit in L3.
pub const NC: usize = 1024;

/// Minimum `m * n * k` volume for [`crate::gemm()`] to route to the blocked
/// kernel; below it the packing traffic dominates and the scalar AXPY/dot
/// forms win.
pub const GEMM_BLOCK_MIN_VOLUME: usize = 64 * 64 * 64;

/// Minimum factor order for `trsm_lower_left` / `partial_cholesky_in_place`
/// to route to their blocked variants (`syrk_t` routes on its own measured
/// rule, see [`crate::syrk_t`]).
pub const PANEL_BLOCK_MIN_ORDER: usize = 128;

/// `true` when [`gemm_blocked`] is expected to beat the scalar kernel for an
/// `m × k` by `k × n` product (the dispatch predicate used by
/// [`crate::gemm()`]).
#[inline]
pub fn gemm_prefers_blocked(m: usize, n: usize, k: usize) -> bool {
    m >= MR && n >= NR && k >= 8 && m * n * k >= GEMM_BLOCK_MIN_VOLUME
}

/// Register microkernel: `acc[jr][ir] = Σ_{p < kc} apanel[p*MR+ir] * bpanel[p*NR+jr]`
/// (both panels may be longer than `kc` steps; the triangular solve passes
/// the solved prefix of a sliver).
#[inline(always)]
fn microkernel<S: Scalar>(kc: usize, apanel: &[S], bpanel: &[S], acc: &mut [[S; MR]; NR]) {
    // every kernel below reads exactly `kc` depth steps of both panels
    assert!(apanel.len() >= kc * MR && bpanel.len() >= kc * NR);
    // The sealed Scalar trait admits exactly f32 and f64, so dispatching on
    // the element width to a width-specialized kernel is exhaustive; the
    // pointer reinterpretations below are sound because S *is* that type.
    #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
    {
        if S::BYTES == 8 {
            // SAFETY: S::BYTES == 8 identifies S == f64 under the sealed trait;
            // the assertion above covers the panel lengths.
            unsafe {
                return microkernel_f64_avx512(
                    kc,
                    apanel.as_ptr().cast(),
                    bpanel.as_ptr().cast(),
                    &mut *(acc as *mut [[S; MR]; NR]).cast(),
                );
            }
        }
        if S::BYTES == 4 {
            // SAFETY: S::BYTES == 4 identifies S == f32 under the sealed trait;
            // the assertion above covers the panel lengths.
            unsafe {
                return microkernel_f32_avx512(
                    kc,
                    apanel.as_ptr().cast(),
                    bpanel.as_ptr().cast(),
                    &mut *(acc as *mut [[S; MR]; NR]).cast(),
                );
            }
        }
    }
    microkernel_generic(kc, apanel, bpanel, acc);
}

/// Portable auto-vectorized microkernel (used when no width-specialized
/// variant is compiled in).
#[inline(always)]
#[cfg_attr(
    all(target_arch = "x86_64", target_feature = "avx512f"),
    allow(dead_code)
)]
fn microkernel_generic<S: Scalar>(kc: usize, apanel: &[S], bpanel: &[S], acc: &mut [[S; MR]; NR]) {
    // One named accumulator array per B lane: LLVM reliably promotes these
    // to vector registers (both a 2-D local tile and writes through the
    // `&mut` out-param have been observed to spill every iteration).
    let mut c0 = [S::ZERO; MR];
    let mut c1 = [S::ZERO; MR];
    let mut c2 = [S::ZERO; MR];
    let mut c3 = [S::ZERO; MR];
    let mut c4 = [S::ZERO; MR];
    let mut c5 = [S::ZERO; MR];
    let mut c6 = [S::ZERO; MR];
    let mut c7 = [S::ZERO; MR];
    let ait = apanel.chunks_exact(MR).take(kc);
    let bit = bpanel.chunks_exact(NR).take(kc);
    for (av, bv) in ait.zip(bit) {
        let a: &[S; MR] = av.try_into().expect("chunks_exact yields MR-length slices");
        let b: &[S; NR] = bv.try_into().expect("chunks_exact yields NR-length slices");
        for ir in 0..MR {
            c0[ir] += a[ir] * b[0];
            c1[ir] += a[ir] * b[1];
            c2[ir] += a[ir] * b[2];
            c3[ir] += a[ir] * b[3];
            c4[ir] += a[ir] * b[4];
            c5[ir] += a[ir] * b[5];
            c6[ir] += a[ir] * b[6];
            c7[ir] += a[ir] * b[7];
        }
    }
    *acc = [c0, c1, c2, c3, c4, c5, c6, c7];
}

/// AVX-512 `f64` microkernel: the `16 × 8` accumulator tile is sixteen
/// `zmm` registers (two per B lane), updated with broadcast-FMA — one
/// fused rounding per multiply-accumulate, like every BLAS microkernel.
///
/// # Safety
/// `apanel` must hold at least `kc * MR` and `bpanel` at least `kc * NR`
/// readable `f64` values, and the caller must only reach this on a CPU with
/// AVX-512F (guaranteed here by compile-time `target_feature`).
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
#[inline(always)]
unsafe fn microkernel_f64_avx512(
    kc: usize,
    apanel: *const f64,
    bpanel: *const f64,
    acc: &mut [[f64; MR]; NR],
) {
    use core::arch::x86_64::*;
    let mut c = [[_mm512_setzero_pd(); 2]; NR];
    for p in 0..kc {
        let a0 = _mm512_loadu_pd(apanel.add(p * MR));
        let a1 = _mm512_loadu_pd(apanel.add(p * MR + 8));
        for (jr, cj) in c.iter_mut().enumerate() {
            let b = _mm512_set1_pd(*bpanel.add(p * NR + jr));
            *cj = [_mm512_fmadd_pd(a0, b, cj[0]), _mm512_fmadd_pd(a1, b, cj[1])];
        }
    }
    for (accj, cj) in acc.iter_mut().zip(c) {
        _mm512_storeu_pd(accj.as_mut_ptr(), cj[0]);
        _mm512_storeu_pd(accj.as_mut_ptr().add(8), cj[1]);
    }
}

/// AVX-512 `f32` microkernel: one 16-lane `zmm` register per B lane — the
/// halved element width doubles the SIMD lane count for free.
///
/// # Safety
/// Same contract as [`microkernel_f64_avx512`], with `f32` elements.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
#[inline(always)]
unsafe fn microkernel_f32_avx512(
    kc: usize,
    apanel: *const f32,
    bpanel: *const f32,
    acc: &mut [[f32; MR]; NR],
) {
    use core::arch::x86_64::*;
    let mut c = [_mm512_setzero_ps(); NR];
    for p in 0..kc {
        let a = _mm512_loadu_ps(apanel.add(p * MR));
        for (jr, cj) in c.iter_mut().enumerate() {
            *cj = _mm512_fmadd_ps(a, _mm512_set1_ps(*bpanel.add(p * NR + jr)), *cj);
        }
    }
    for (accj, cj) in acc.iter_mut().zip(c) {
        _mm512_storeu_ps(accj.as_mut_ptr(), cj);
    }
}

/// Which entries of `C` the nest owns: all of them, or (for a square `C`)
/// those on or below the diagonal.
#[derive(Clone, Copy, PartialEq)]
enum Region {
    Full,
    Lower,
}

/// `C = beta * C` over `region`; `beta == 0` overwrites, so NaN/inf in
/// uninitialized output storage never survives.
fn scale_region<S: Scalar>(beta: S, c: &mut MatMutOf<'_, S>, region: Region) {
    // sc-analyze: allow(float-eq)
    if beta == S::ONE {
        return;
    }
    for j in 0..c.ncols() {
        let top = if region == Region::Lower { j } else { 0 };
        let col = &mut c.col_mut(j)[top..];
        // sc-analyze: allow(float-eq)
        if beta == S::ZERO {
            col.fill(S::ZERO);
        } else {
            col.iter_mut().for_each(|v| *v *= beta);
        }
    }
}

/// Write `op(C)[i0.., j0..] += alpha * acc` for the live `mr × nr` corner of
/// a microkernel tile (the padded lanes hold exact zeros and are dropped).
/// `tc == Trans::Yes` stores the tile transposed (`C[j0.., i0..]`);
/// [`Region::Lower`] masks the entries above the diagonal.
#[inline]
#[allow(clippy::too_many_arguments)]
fn store_tile<S: Scalar>(
    alpha: S,
    acc: &[[S; MR]; NR],
    c: &mut MatMutOf<'_, S>,
    tc: Trans,
    region: Region,
    (i0, j0): (usize, usize),
    (mr, nr): (usize, usize),
) {
    match tc {
        Trans::No => {
            for (jr, accj) in acc.iter().enumerate().take(nr) {
                let skip = match region {
                    Region::Lower => (j0 + jr).saturating_sub(i0).min(mr),
                    Region::Full => 0,
                };
                let col = &mut c.col_mut(j0 + jr)[i0 + skip..i0 + mr];
                for (ci, &v) in col.iter_mut().zip(&accj[skip..]) {
                    *ci += alpha * v;
                }
            }
        }
        Trans::Yes => {
            for ir in 0..mr {
                let col = &mut c.col_mut(i0 + ir)[j0..j0 + nr];
                for (ci, accj) in col.iter_mut().zip(acc) {
                    *ci += alpha * accj[ir];
                }
            }
        }
    }
}

/// One packed A block against one packed B block:
/// `op(C)[i0.., j0..] += alpha * A B` over `region`, tile by tile.
#[allow(clippy::too_many_arguments)]
fn macro_kernel<S: Scalar>(
    alpha: S,
    ap: &Lanes<S, MR>,
    bp: &Lanes<S, NR>,
    c: &mut MatMutOf<'_, S>,
    tc: Trans,
    region: Region,
    (i0, j0): (usize, usize),
) {
    let (mc, nc, kc) = (ap.lanes(), bp.lanes(), ap.depth());
    for jp in 0..nc.div_ceil(NR) {
        let (j, nr) = (j0 + jp * NR, NR.min(nc - jp * NR));
        let bpanel = bp.panel(jp);
        for ip in 0..mc.div_ceil(MR) {
            let (i, mr) = (i0 + ip * MR, MR.min(mc - ip * MR));
            if region == Region::Lower && i + mr <= j {
                continue; // strictly above the diagonal
            }
            let mut acc = [[S::ZERO; MR]; NR];
            microkernel(kc, ap.panel(ip), bpanel, &mut acc);
            store_tile(alpha, &acc, c, tc, region, (i, j), (mr, nr));
        }
    }
}

/// The `NC → KC → MC` loop nest: `C += alpha * op(A) * op(B)` over `region`.
fn nest<S: Scalar>(
    alpha: S,
    (a, ta): (MatRefOf<'_, S>, Trans),
    (b, tb): (MatRefOf<'_, S>, Trans),
    c: &mut MatMutOf<'_, S>,
    region: Region,
) {
    let (m, k) = op_shape(a, ta);
    let n = c.ncols();
    let (mut ap, mut bp) = (Lanes::new(), Lanes::new());
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            bp.pack(b, tb == Trans::Yes, (jc, nc), (pc, kc));
            for ic in (0..m).step_by(MC) {
                let mc = MC.min(m - ic);
                if region == Region::Lower && ic + mc <= jc {
                    continue; // whole block strictly above the diagonal
                }
                ap.pack(a, ta == Trans::No, (ic, mc), (pc, kc));
                macro_kernel(alpha, &ap, &bp, c, Trans::No, region, (ic, jc));
            }
        }
    }
}

/// Cache-blocked `C = alpha * op(A) * op(B) + beta * C`.
///
/// Same contract as [`crate::gemm()`] (which routes here above
/// [`GEMM_BLOCK_MIN_VOLUME`]); callers can invoke it directly to force the
/// blocked path, e.g. to pin it against `gemm_scalar` below the routing
/// threshold. `beta == 0` overwrites `C` outright, so NaN/inf in uninitialized
/// output storage never survives.
pub fn gemm_blocked<S: Scalar>(
    alpha: S,
    a: MatRefOf<'_, S>,
    ta: Trans,
    b: MatRefOf<'_, S>,
    tb: Trans,
    beta: S,
    mut c: MatMutOf<'_, S>,
) {
    let (m, ka) = op_shape(a, ta);
    let (kb, n) = op_shape(b, tb);
    assert_eq!(ka, kb, "gemm inner dimension mismatch");
    assert_eq!(c.nrows(), m, "gemm C row mismatch");
    assert_eq!(c.ncols(), n, "gemm C col mismatch");
    scale_region(beta, &mut c, Region::Full);
    // sc-analyze: allow(float-eq)
    if alpha != S::ZERO {
        nest(alpha, (a, ta), (b, tb), &mut c, Region::Full);
    }
}

/// Blocked `C(lower) = beta * C + alpha * Aᵀ A`: one pass of the gemm nest
/// over the tiles on or below the diagonal. Same contract as
/// [`crate::syrk_t`] (strictly upper triangle untouched), which routes here
/// from an output order of [`MR`] at any depth.
pub fn syrk_t_blocked<S: Scalar>(alpha: S, a: MatRefOf<'_, S>, beta: S, mut c: MatMutOf<'_, S>) {
    let n = a.ncols();
    assert_eq!(c.nrows(), n, "syrk C row mismatch");
    assert_eq!(c.ncols(), n, "syrk C col mismatch");
    scale_region(beta, &mut c, Region::Lower);
    // sc-analyze: allow(float-eq)
    if alpha != S::ZERO {
        nest(
            alpha,
            (a, Trans::Yes),
            (a, Trans::No),
            &mut c,
            Region::Lower,
        );
    }
}

/// Finish one `MR × NR` tile of the triangular solve inside a packed sliver
/// of `op(X)`: `rows` holds its depth steps `d .. d + nr`, `acc` what the
/// already-solved steps contribute. Substitution against the `NR × NR`
/// triangle `tri` (`tri[q][r]` is `L[r, q]` below the diagonal and
/// `1 / L[q, q]` on it) runs across all `MR` lanes at once.
#[inline]
fn solve_tile<S: Scalar>(acc: &[[S; MR]; NR], tri: &[[S; NR]; NR], rows: &mut [S]) {
    let mut t = [[S::ZERO; MR]; NR];
    for (tj, src) in t.iter_mut().zip(rows.chunks_exact(MR)) {
        tj.copy_from_slice(src);
    }
    // one named row per depth step, so every row stays in vector registers
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &mut t;
    macro_rules! step {
        ($jr:literal, $x:ident $(, $q:literal, $tq:ident)*) => {
            for (v, &s) in $x.iter_mut().zip(&acc[$jr]) {
                *v = (*v - s) * tri[$jr][$jr];
            }
            $(for (v, &xv) in $tq.iter_mut().zip($x.iter()) {
                *v -= tri[$jr][$q] * xv;
            })*
        };
    }
    step!(0, t0, 1, t1, 2, t2, 3, t3, 4, t4, 5, t5, 6, t6, 7, t7);
    step!(1, t1, 2, t2, 3, t3, 4, t4, 5, t5, 6, t6, 7, t7);
    step!(2, t2, 3, t3, 4, t4, 5, t5, 6, t6, 7, t7);
    step!(3, t3, 4, t4, 5, t5, 6, t6, 7, t7);
    step!(4, t4, 5, t5, 6, t6, 7, t7);
    step!(5, t5, 6, t6, 7, t7);
    step!(6, t6, 7, t7);
    step!(7, t7);
    for (dst, tj) in rows.chunks_exact_mut(MR).zip(&t) {
        dst.copy_from_slice(tj);
    }
}

/// Solve `op(X) Lᵀ = op(B)` in place (`L` lower triangular, `op(X)` is
/// `m × n` with `n` the order of `L`): the triangular-solve form of the
/// packed nest. `tx == Trans::Yes` is `L X = B`; `Trans::No` is the Cholesky
/// panel solve `X L₁₁ᵀ = A₂₁`.
///
/// Per `KC` diagonal block, rows `kb ..` of `L` are packed once as the B
/// operand `Lᵀ` (only entries on or below `L`'s diagonal are ever used).
/// Each `MC` rows of `op(X)` are then packed as an A block and swept over
/// those panels: inside the diagonal block the sweep is left-looking — the
/// microkernel applies the solved depth steps of a sliver to its next tile,
/// [`solve_tile`] finishes it where it sits — and right of it the finished
/// block is a plain rank-`kc` update.
fn trsm_nest<S: Scalar>(l: MatRefOf<'_, S>, x: &mut MatMutOf<'_, S>, tx: Trans) {
    let n = l.nrows();
    let (m, _) = op_shape(x.as_ref(), tx);
    let (mut xp, mut lp) = (Lanes::<S, MR>::new(), Lanes::<S, NR>::new());
    for kb in (0..n).step_by(KC) {
        let kc = KC.min(n - kb);
        lp.pack(l, true, (kb, n - kb), (kb, kc));
        for ic in (0..m).step_by(MC) {
            let mc = MC.min(m - ic);
            xp.pack(x.as_ref(), tx == Trans::No, (ic, mc), (kb, kc));
            for jp in 0..(n - kb).div_ceil(NR) {
                let (d, nr) = (kc.min(jp * NR), NR.min(n - kb - jp * NR));
                let lpanel = lp.panel(jp);
                // inside the block: the NR × NR triangle at depth d, diagonal
                // pre-inverted (steps past the block edge keep a zero row:
                // their lanes are zero and are not written back)
                let mut tri = [[S::ZERO; NR]; NR];
                if d < kc {
                    for (q, row) in tri.iter_mut().enumerate().take(nr) {
                        row.copy_from_slice(&lpanel[(d + q) * NR..(d + q + 1) * NR]);
                        row[q] = S::ONE / row[q];
                    }
                }
                for ip in 0..mc.div_ceil(MR) {
                    let mut acc = [[S::ZERO; MR]; NR];
                    microkernel(d, xp.panel(ip), lpanel, &mut acc);
                    if d < kc {
                        solve_tile(&acc, &tri, &mut xp.panel_mut(ip)[d * MR..(d + nr) * MR]);
                    } else {
                        let (at, live) = ((ic + ip * MR, kb + jp * NR), (MR.min(mc - ip * MR), nr));
                        store_tile(-S::ONE, &acc, x, tx, Region::Full, at, live);
                    }
                }
            }
            xp.unpack(x, tx == Trans::No, ic, kb);
        }
    }
}

/// Blocked forward substitution `L X = B` in place, through the packed nest
/// (the `Xᵀ Lᵀ = Bᵀ` form of the module docs). Same contract as
/// [`crate::trsm_lower_left`], which routes here above
/// [`PANEL_BLOCK_MIN_ORDER`].
pub fn trsm_lower_left_blocked<S: Scalar>(l: MatRefOf<'_, S>, mut b: MatMutOf<'_, S>) {
    let n = l.nrows();
    assert_eq!(l.ncols(), n, "factor must be square");
    assert_eq!(b.nrows(), n, "RHS row mismatch");
    trsm_nest(l, &mut b, Trans::Yes);
}

/// Blocked right-looking partial Cholesky: eliminate the leading `p` pivots
/// in `4 * MR`-column panels. Each panel step factors its diagonal tile (the
/// same steps at a quarter of the width, where the tile is the scalar
/// kernel's), solves the panel below it with the packed triangular solve,
/// and applies the symmetric trailing update as a lower-triangle pass of the
/// gemm nest. Same contract as [`crate::partial_cholesky_in_place`], which
/// routes here above [`PANEL_BLOCK_MIN_ORDER`].
pub fn partial_cholesky_blocked<S: Scalar>(a: MatMutOf<'_, S>, p: usize) -> Result<(), CholError> {
    let n = a.nrows();
    assert_eq!(a.ncols(), n, "partial cholesky needs a square matrix");
    assert!(p <= n);
    cholesky_panels(a, p, 4 * MR)
}

/// The panel loop of [`partial_cholesky_blocked`] at one panel `width`.
fn cholesky_panels<S: Scalar>(
    mut a: MatMutOf<'_, S>,
    p: usize,
    width: usize,
) -> Result<(), CholError> {
    let n = a.nrows();
    for kb in (0..p).step_by(width) {
        let nb = width.min(p - kb);
        let tile = a.sub_mut(kb, kb, nb, nb);
        let factored = if nb <= MR {
            partial_cholesky_scalar(tile, nb)
        } else {
            cholesky_panels(tile, nb, width / 4)
        };
        factored.map_err(|e| CholError {
            pivot: e.pivot + kb,
            value: e.value,
        })?;
        let rem = n - kb - nb;
        if rem == 0 {
            continue;
        }
        // L21 = A21 L11⁻ᵀ; the tile shares its columns with the panel, so
        // the solve reads a copy of it
        let l11 = a.as_ref().sub(kb, kb, nb, nb).to_mat();
        trsm_nest(
            l11.as_ref(),
            &mut a.sub_mut(kb + nb, kb, rem, nb),
            Trans::No,
        );
        // Trailing symmetric update: A22(lower) -= L21 L21ᵀ.
        let (lpart, mut trail) = a.as_mut().split_cols_at(kb + nb);
        let l21 = lpart.as_ref().sub(kb + nb, kb, rem, nb);
        let mut c22 = trail.sub_mut(kb + nb, 0, rem, rem);
        nest(
            -S::ONE,
            (l21, Trans::No),
            (l21, Trans::Yes),
            &mut c22,
            Region::Lower,
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mat::Mat;
    use crate::syrk::syrk_t_scalar;
    use crate::trsm::trsm_lower_left_scalar;

    fn mk(m: usize, n: usize, seed: u64) -> Mat {
        let mut state = seed | 1;
        Mat::from_fn(m, n, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    #[test]
    fn blocked_gemm_matches_scalar_all_transposes() {
        let (m, k, n) = (37, 29, 23);
        for (ta, tb) in [
            (Trans::No, Trans::No),
            (Trans::Yes, Trans::No),
            (Trans::No, Trans::Yes),
            (Trans::Yes, Trans::Yes),
        ] {
            let a = match ta {
                Trans::No => mk(m, k, 1),
                Trans::Yes => mk(k, m, 2),
            };
            let b = match tb {
                Trans::No => mk(k, n, 3),
                Trans::Yes => mk(n, k, 4),
            };
            let mut c1 = mk(m, n, 5);
            let mut c2 = c1.clone();
            crate::gemm::gemm_scalar(1.25, a.as_ref(), ta, b.as_ref(), tb, 0.5, c1.as_mut());
            gemm_blocked(1.25, a.as_ref(), ta, b.as_ref(), tb, 0.5, c2.as_mut());
            assert!(
                crate::max_abs_diff(c1.as_ref(), c2.as_ref()) < 1e-12,
                "mismatch for ({ta:?},{tb:?})"
            );
        }
    }

    #[test]
    fn blocked_gemm_beta_zero_overwrites_nan() {
        let a = mk(16, 16, 6);
        let b = mk(16, 16, 7);
        let mut c = Mat::from_fn(16, 16, |_, _| f64::NAN);
        gemm_blocked(
            1.0,
            a.as_ref(),
            Trans::No,
            b.as_ref(),
            Trans::No,
            0.0,
            c.as_mut(),
        );
        for j in 0..16 {
            for i in 0..16 {
                assert!(c[(i, j)].is_finite(), "NaN survived at ({i},{j})");
            }
        }
    }

    #[test]
    fn blocked_gemm_spans_cache_block_boundaries() {
        // sizes straddling KC/MC/NC multiples plus ragged edges
        let (m, k, n) = (MC + MR + 3, KC + 5, NR * 3 + 2);
        let a = mk(m, k, 8);
        let b = mk(k, n, 9);
        let mut c1 = Mat::zeros(m, n);
        let mut c2 = Mat::zeros(m, n);
        crate::gemm::gemm_scalar(
            1.0,
            a.as_ref(),
            Trans::No,
            b.as_ref(),
            Trans::No,
            0.0,
            c1.as_mut(),
        );
        gemm_blocked(
            1.0,
            a.as_ref(),
            Trans::No,
            b.as_ref(),
            Trans::No,
            0.0,
            c2.as_mut(),
        );
        let scale = (k as f64).sqrt();
        assert!(crate::max_abs_diff(c1.as_ref(), c2.as_ref()) < 1e-13 * scale);
    }

    fn lower_factor(n: usize, seed: u64) -> Mat {
        let mut state = seed | 1;
        Mat::from_fn(n, n, |i, j| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0;
            if i == j {
                2.0 + r.abs()
            } else if i > j {
                0.5 * r / n as f64
            } else {
                0.0
            }
        })
    }

    #[test]
    fn blocked_trsm_matches_scalar() {
        let n = KC + MR + 7;
        let l = lower_factor(n, 10);
        let b = mk(n, MR + 3, 11);
        let mut x1 = b.clone();
        let mut x2 = b.clone();
        trsm_lower_left_scalar(l.as_ref(), x1.as_mut());
        trsm_lower_left_blocked(l.as_ref(), x2.as_mut());
        assert!(crate::max_abs_diff(x1.as_ref(), x2.as_ref()) < 1e-11);
    }

    #[test]
    fn blocked_trsm_never_reads_above_the_diagonal() {
        let n = KC + 21;
        let mut l = lower_factor(n, 12);
        let b = mk(n, 9, 13);
        let mut x1 = b.clone();
        trsm_lower_left_blocked(l.as_ref(), x1.as_mut());
        for j in 0..n {
            for i in 0..j {
                l[(i, j)] = f64::NAN;
            }
        }
        let mut x2 = b.clone();
        trsm_lower_left_blocked(l.as_ref(), x2.as_mut());
        assert_eq!(x1, x2);
    }

    #[test]
    fn blocked_syrk_matches_scalar_and_leaves_upper() {
        let n = MC + 21;
        let a = mk(40, n, 14);
        let mut c1 = mk(n, n, 15);
        let mut c2 = c1.clone();
        let upper_before = c1[(0, n - 1)];
        syrk_t_scalar(1.5, a.as_ref(), 0.25, c1.as_mut());
        syrk_t_blocked(1.5, a.as_ref(), 0.25, c2.as_mut());
        assert!(crate::max_abs_diff(c1.as_ref(), c2.as_ref()) < 1e-11);
        assert_eq!(c2[(0, n - 1)], upper_before, "upper triangle touched");
    }

    fn spd(n: usize, seed: u64) -> Mat {
        let g = mk(n, n, seed);
        let mut a = Mat::zeros(n, n);
        syrk_t_scalar(1.0, g.as_ref(), 0.0, a.as_mut());
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        a.symmetrize_from_lower();
        a
    }

    #[test]
    fn blocked_cholesky_matches_scalar() {
        let n = KC + 73;
        let a = spd(n, 16);
        let mut f1 = a.clone();
        let mut f2 = a.clone();
        partial_cholesky_scalar(f1.as_mut(), n).unwrap();
        partial_cholesky_blocked(f2.as_mut(), n).unwrap();
        assert!(crate::max_abs_diff(f1.as_ref(), f2.as_ref()) < 1e-10);
        assert!(crate::chol::reconstruction_error(&f2, &a) < 1e-9);
    }

    #[test]
    fn blocked_partial_cholesky_leaves_schur_complement() {
        let n = KC + 37;
        let p = KC + 5;
        let a = spd(n, 17);
        let mut f1 = a.clone();
        let mut f2 = a.clone();
        partial_cholesky_scalar(f1.as_mut(), p).unwrap();
        partial_cholesky_blocked(f2.as_mut(), p).unwrap();
        assert!(crate::max_abs_diff(f1.as_ref(), f2.as_ref()) < 1e-9);
    }

    #[test]
    fn blocked_cholesky_reports_offset_pivot() {
        let n = KC + 30;
        let mut a = spd(n, 18);
        let bad = KC + 19;
        // destroy positive definiteness at a pivot inside the second panel,
        // second tile of its recursion
        a[(bad, bad)] = -1.0;
        for j in 0..n {
            for i in 0..n {
                if i != j && (i == bad || j == bad) {
                    a[(i, j)] = 0.0;
                }
            }
        }
        let err = partial_cholesky_blocked(a.as_mut(), n).unwrap_err();
        assert_eq!(err.pivot, bad);
        assert!(err.value < 0.0);
    }
}
