//! Cache-blocked, SIMD-friendly variants of the dense hot kernels.
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
//! Structure (BLIS-style):
//!
//! - [`gemm_blocked`] drives an `NC → KC → MC` cache-block loop nest over
//!   panels packed by [`crate::pack`], with an `MR × NR` register microkernel
//!   whose accumulators are fixed-size arrays — LLVM turns the inner loop
//!   into broadcast-FMA vector code without any explicit intrinsics.
//! - [`trsm_lower_left_blocked`] factors the solve into diagonal-block scalar
//!   sweeps plus rank-`NB` gemm updates of the trailing rows;
//!   [`par_trsm_lower_left`] distributes independent RHS column blocks over
//!   the rayon shim.
//! - [`syrk_t_blocked`] computes the lower triangle per column block: a
//!   scalar diagonal tile plus a below-diagonal rectangle delegated to gemm.
//! - [`partial_cholesky_blocked`] is right-looking panel Cholesky: scalar
//!   factorization of the diagonal tile, a column-sweep triangular solve for
//!   the panel below it, and a gemm-based symmetric trailing update that only
//!   touches the lower trapezoid.
//!
//! Accumulation order differs from the scalar kernels (sums are re-blocked),
//! so blocked results agree with the reference to rounding, not bitwise; the
//! proptests in `tests/blocked.rs` pin the tolerance.

use crate::chol::{partial_cholesky_scalar, CholError};
use crate::gemm::{axpy, gemm, scale, Trans};
use crate::mat::{MatMutOf, MatRefOf};
use crate::pack::{PackedA, PackedB, MR, NR};
use crate::scalar::Scalar;
use crate::syrk::syrk_t_scalar;
use crate::trsm::trsm_lower_left_scalar;

/// Depth of one packed cache block (`kc`): `KC × MR` A-slivers and `KC × NR`
/// B-slivers stay L1-resident while the microkernel streams them.
pub const KC: usize = 256;
/// Height of one packed A block (`mc`): `MC × KC` values sit in L2.
pub const MC: usize = 128;
/// Width of one packed B block (`nc`): `KC × NC` values sit in L3.
pub const NC: usize = 1024;
/// Diagonal-block order for the blocked TRSM/SYRK/Cholesky panel loops.
pub const NB: usize = 64;

/// Minimum `m * n * k` volume for [`crate::gemm()`] to route to the blocked
/// kernel; below it the packing traffic dominates and the scalar AXPY/dot
/// forms win.
pub const GEMM_BLOCK_MIN_VOLUME: usize = 64 * 64 * 64;

/// Minimum factor order for `trsm_lower_left` / `syrk_t` /
/// `partial_cholesky_in_place` to route to their blocked variants.
pub const PANEL_BLOCK_MIN_ORDER: usize = 128;

#[inline]
fn op_shape<S: Scalar>(a: MatRefOf<'_, S>, t: Trans) -> (usize, usize) {
    match t {
        Trans::No => (a.nrows(), a.ncols()),
        Trans::Yes => (a.ncols(), a.nrows()),
    }
}

/// `true` when [`gemm_blocked`] is expected to beat the scalar kernel for an
/// `m × k` by `k × n` product (the dispatch predicate used by
/// [`crate::gemm()`]).
#[inline]
pub fn gemm_prefers_blocked(m: usize, n: usize, k: usize) -> bool {
    m >= MR && n >= NR && k >= 8 && m * n * k >= GEMM_BLOCK_MIN_VOLUME
}

/// Register microkernel: `acc[jr][ir] += Σ_p apanel[p*MR+ir] * bpanel[p*NR+jr]`.
///
/// The fixed-size accumulator array maps onto SIMD registers
/// (`MR` f64 lanes = two 4-wide vectors per `jr`); the per-`p` body is a
/// broadcast of `b` against a unit-stride load of `a` — exactly the shape
/// LLVM auto-vectorizes into FMA sequences.
#[inline(always)]
fn microkernel<S: Scalar>(kc: usize, apanel: &[S], bpanel: &[S], acc: &mut [[S; MR]; NR]) {
    // The sealed Scalar trait admits exactly f32 and f64, so dispatching on
    // the element width to a width-specialized kernel is exhaustive; the
    // pointer reinterpretations below are sound because S *is* that type.
    #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
    {
        if S::BYTES == 8 {
            // SAFETY: S::BYTES == 8 identifies S == f64 under the sealed trait.
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
            // SAFETY: S::BYTES == 4 identifies S == f32 under the sealed trait.
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
    let z = _mm512_setzero_pd();
    let (mut c00, mut c01) = (z, z);
    let (mut c10, mut c11) = (z, z);
    let (mut c20, mut c21) = (z, z);
    let (mut c30, mut c31) = (z, z);
    let (mut c40, mut c41) = (z, z);
    let (mut c50, mut c51) = (z, z);
    let (mut c60, mut c61) = (z, z);
    let (mut c70, mut c71) = (z, z);
    for p in 0..kc {
        let a0 = _mm512_loadu_pd(apanel.add(p * MR));
        let a1 = _mm512_loadu_pd(apanel.add(p * MR + 8));
        let bk = bpanel.add(p * NR);
        let b0 = _mm512_set1_pd(*bk);
        c00 = _mm512_fmadd_pd(a0, b0, c00);
        c01 = _mm512_fmadd_pd(a1, b0, c01);
        let b1 = _mm512_set1_pd(*bk.add(1));
        c10 = _mm512_fmadd_pd(a0, b1, c10);
        c11 = _mm512_fmadd_pd(a1, b1, c11);
        let b2 = _mm512_set1_pd(*bk.add(2));
        c20 = _mm512_fmadd_pd(a0, b2, c20);
        c21 = _mm512_fmadd_pd(a1, b2, c21);
        let b3 = _mm512_set1_pd(*bk.add(3));
        c30 = _mm512_fmadd_pd(a0, b3, c30);
        c31 = _mm512_fmadd_pd(a1, b3, c31);
        let b4 = _mm512_set1_pd(*bk.add(4));
        c40 = _mm512_fmadd_pd(a0, b4, c40);
        c41 = _mm512_fmadd_pd(a1, b4, c41);
        let b5 = _mm512_set1_pd(*bk.add(5));
        c50 = _mm512_fmadd_pd(a0, b5, c50);
        c51 = _mm512_fmadd_pd(a1, b5, c51);
        let b6 = _mm512_set1_pd(*bk.add(6));
        c60 = _mm512_fmadd_pd(a0, b6, c60);
        c61 = _mm512_fmadd_pd(a1, b6, c61);
        let b7 = _mm512_set1_pd(*bk.add(7));
        c70 = _mm512_fmadd_pd(a0, b7, c70);
        c71 = _mm512_fmadd_pd(a1, b7, c71);
    }
    let pairs = [
        (c00, c01),
        (c10, c11),
        (c20, c21),
        (c30, c31),
        (c40, c41),
        (c50, c51),
        (c60, c61),
        (c70, c71),
    ];
    for (jr, (lo, hi)) in pairs.into_iter().enumerate() {
        _mm512_storeu_pd(acc[jr].as_mut_ptr(), lo);
        _mm512_storeu_pd(acc[jr].as_mut_ptr().add(8), hi);
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
    let z = _mm512_setzero_ps();
    let mut c0 = z;
    let mut c1 = z;
    let mut c2 = z;
    let mut c3 = z;
    let mut c4 = z;
    let mut c5 = z;
    let mut c6 = z;
    let mut c7 = z;
    for p in 0..kc {
        let a = _mm512_loadu_ps(apanel.add(p * MR));
        let bk = bpanel.add(p * NR);
        c0 = _mm512_fmadd_ps(a, _mm512_set1_ps(*bk), c0);
        c1 = _mm512_fmadd_ps(a, _mm512_set1_ps(*bk.add(1)), c1);
        c2 = _mm512_fmadd_ps(a, _mm512_set1_ps(*bk.add(2)), c2);
        c3 = _mm512_fmadd_ps(a, _mm512_set1_ps(*bk.add(3)), c3);
        c4 = _mm512_fmadd_ps(a, _mm512_set1_ps(*bk.add(4)), c4);
        c5 = _mm512_fmadd_ps(a, _mm512_set1_ps(*bk.add(5)), c5);
        c6 = _mm512_fmadd_ps(a, _mm512_set1_ps(*bk.add(6)), c6);
        c7 = _mm512_fmadd_ps(a, _mm512_set1_ps(*bk.add(7)), c7);
    }
    let regs = [c0, c1, c2, c3, c4, c5, c6, c7];
    for (jr, r) in regs.into_iter().enumerate() {
        _mm512_storeu_ps(acc[jr].as_mut_ptr(), r);
    }
}

/// Write `C[i0.., j0..] += alpha * acc` for the live `mr × nr` corner of a
/// microkernel tile (the padded lanes hold exact zeros and are dropped).
#[inline]
fn store_tile<S: Scalar>(
    alpha: S,
    acc: &[[S; MR]; NR],
    c: &mut MatMutOf<'_, S>,
    i0: usize,
    j0: usize,
    mr: usize,
    nr: usize,
) {
    for (jr, accj) in acc.iter().enumerate().take(nr) {
        let col = &mut c.col_mut(j0 + jr)[i0..i0 + mr];
        for (ci, &v) in col.iter_mut().zip(accj.iter()) {
            *ci += alpha * v;
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
    scale(beta, c.as_mut());
    // sc-analyze: allow(float-eq)
    if alpha == S::ZERO || m == 0 || n == 0 || ka == 0 {
        return;
    }
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for pc in (0..ka).step_by(KC) {
            let kc = KC.min(ka - pc);
            let bp = PackedB::pack(b, tb, pc, kc, jc, nc);
            for ic in (0..m).step_by(MC) {
                let mc = MC.min(m - ic);
                let ap = PackedA::pack(a, ta, ic, mc, pc, kc);
                for jp in 0..nc.div_ceil(NR) {
                    let nr = NR.min(nc - jp * NR);
                    let bpanel = bp.panel(jp);
                    for ip in 0..mc.div_ceil(MR) {
                        let mr = MR.min(mc - ip * MR);
                        let mut acc = [[S::ZERO; MR]; NR];
                        microkernel(kc, ap.panel(ip), bpanel, &mut acc);
                        store_tile(alpha, &acc, &mut c, ic + ip * MR, jc + jp * NR, mr, nr);
                    }
                }
            }
        }
    }
}

/// Blocked forward substitution `L X = B` in place: scalar solve of each
/// `NB × NB` diagonal block, then one rank-`NB` gemm update of all trailing
/// rows (which routes through [`gemm_blocked`] when large). Same contract as
/// [`crate::trsm_lower_left`], which routes here above
/// [`PANEL_BLOCK_MIN_ORDER`].
pub fn trsm_lower_left_blocked<S: Scalar>(l: MatRefOf<'_, S>, mut b: MatMutOf<'_, S>) {
    let n = l.nrows();
    assert_eq!(l.ncols(), n, "factor must be square");
    assert_eq!(b.nrows(), n, "RHS row mismatch");
    let m = b.ncols();
    for kb in (0..n).step_by(NB) {
        let nb = NB.min(n - kb);
        trsm_lower_left_scalar(l.sub(kb, kb, nb, nb), b.sub_mut(kb, 0, nb, m));
        let rem = n - kb - nb;
        if rem > 0 {
            // the just-solved block rows, copied out so the trailing gemm can
            // read them while writing rows below (safe-view aliasing)
            let x1 = b.as_ref().sub(kb, 0, nb, m).to_mat();
            gemm(
                -S::ONE,
                l.sub(kb + nb, kb, rem, nb),
                Trans::No,
                x1.as_ref(),
                Trans::No,
                S::ONE,
                b.sub_mut(kb + nb, 0, rem, m),
            );
        }
    }
}

/// Rayon-parallel blocked `L X = B`: RHS column blocks are independent, so
/// the solve recursively splits `B` into disjoint column-block views (one
/// per shim worker) and runs [`trsm_lower_left_blocked`] on each.
pub fn par_trsm_lower_left<S: Scalar>(l: MatRefOf<'_, S>, b: MatMutOf<'_, S>) {
    let workers = rayon::current_num_threads().max(1);
    let chunk = b.ncols().div_ceil(workers).max(1);
    fn rec<S: Scalar>(l: MatRefOf<'_, S>, b: MatMutOf<'_, S>, chunk: usize) {
        if b.ncols() <= chunk {
            trsm_lower_left_blocked(l, b);
            return;
        }
        let half = (b.ncols() / chunk / 2 * chunk).max(chunk);
        let (lo, hi) = b.split_cols_at(half);
        rayon::join(|| rec(l, lo, chunk), || rec(l, hi, chunk));
    }
    rec(l, b, chunk);
}

/// Blocked `C(lower) = beta * C + alpha * Aᵀ A`: per column block, a scalar
/// diagonal tile plus a below-diagonal rectangle delegated to gemm. Same
/// contract as [`crate::syrk_t`] (strictly upper triangle untouched), which
/// routes here above [`PANEL_BLOCK_MIN_ORDER`].
pub fn syrk_t_blocked<S: Scalar>(alpha: S, a: MatRefOf<'_, S>, beta: S, mut c: MatMutOf<'_, S>) {
    let n = a.ncols();
    let k = a.nrows();
    assert_eq!(c.nrows(), n, "syrk C row mismatch");
    assert_eq!(c.ncols(), n, "syrk C col mismatch");
    for jb in (0..n).step_by(NB) {
        let nb = NB.min(n - jb);
        syrk_t_scalar(alpha, a.sub(0, jb, k, nb), beta, c.sub_mut(jb, jb, nb, nb));
        let rem = n - jb - nb;
        if rem > 0 {
            gemm(
                alpha,
                a.sub(0, jb + nb, k, rem),
                Trans::Yes,
                a.sub(0, jb, k, nb),
                Trans::No,
                beta,
                c.sub_mut(jb + nb, jb, rem, nb),
            );
        }
    }
}

/// Rayon-parallel blocked `C(lower) = beta * C + alpha * Aᵀ A`: the serial
/// [`syrk_t_blocked`] loop touches a disjoint `NB`-column stripe of `C` per
/// block (the diagonal tile and the below-diagonal rectangle both live in
/// columns `jb .. jb + nb`), so the stripes fan out over the shim workers
/// the same way [`par_trsm_lower_left`] distributes RHS column blocks.
///
/// Each stripe replays the **exact** `syrk_t_scalar` + `gemm` calls of the
/// serial loop on the same sub-views, so the result is bitwise identical to
/// [`syrk_t_blocked`] regardless of the worker count (pinned by the
/// proptest in `tests/blocked.rs`).
pub fn par_syrk_t_blocked<S: Scalar>(alpha: S, a: MatRefOf<'_, S>, beta: S, c: MatMutOf<'_, S>) {
    let n = a.ncols();
    assert_eq!(c.nrows(), n, "syrk C row mismatch");
    assert_eq!(c.ncols(), n, "syrk C col mismatch");
    let workers = rayon::current_num_threads().max(1);
    // columns per worker, rounded up to a whole number of NB blocks so every
    // split boundary coincides with a serial-loop block boundary
    let chunk = n.div_ceil(NB).div_ceil(workers).max(1) * NB;

    /// One NB-aligned column stripe of the serial loop: `c` holds **all** `n`
    /// rows of global columns `col0 .. col0 + c.ncols()`.
    fn stripe<S: Scalar>(
        alpha: S,
        a: MatRefOf<'_, S>,
        beta: S,
        mut c: MatMutOf<'_, S>,
        col0: usize,
    ) {
        let n = a.ncols();
        let k = a.nrows();
        for jl in (0..c.ncols()).step_by(NB) {
            let jb = col0 + jl;
            let nb = NB.min(n - jb);
            syrk_t_scalar(alpha, a.sub(0, jb, k, nb), beta, c.sub_mut(jb, jl, nb, nb));
            let rem = n - jb - nb;
            if rem > 0 {
                gemm(
                    alpha,
                    a.sub(0, jb + nb, k, rem),
                    Trans::Yes,
                    a.sub(0, jb, k, nb),
                    Trans::No,
                    beta,
                    c.sub_mut(jb + nb, jl, rem, nb),
                );
            }
        }
    }

    fn rec<S: Scalar>(
        alpha: S,
        a: MatRefOf<'_, S>,
        beta: S,
        c: MatMutOf<'_, S>,
        col0: usize,
        chunk: usize,
    ) {
        if c.ncols() <= chunk {
            stripe(alpha, a, beta, c, col0);
            return;
        }
        let half = (c.ncols() / chunk / 2 * chunk).max(chunk);
        let (lo, hi) = c.split_cols_at(half);
        rayon::join(
            || rec(alpha, a, beta, lo, col0, chunk),
            || rec(alpha, a, beta, hi, col0 + half, chunk),
        );
    }
    rec(alpha, a, beta, c, 0, chunk);
}

/// `C(lower) += alpha * L Lᵀ` for the trailing update of the blocked
/// Cholesky (`L` is `q × k`, `C` is `q × q`, strictly upper triangle
/// untouched). Diagonal tiles use column AXPYs clipped to the lower rows;
/// the rectangles below them go through gemm.
fn syrk_n_lower<S: Scalar>(alpha: S, l: MatRefOf<'_, S>, mut c: MatMutOf<'_, S>) {
    let q = l.nrows();
    let k = l.ncols();
    for jb in (0..q).step_by(NB) {
        let nb = NB.min(q - jb);
        for jj in 0..nb {
            let j = jb + jj;
            let cj = &mut c.col_mut(j)[j..jb + nb];
            for kk in 0..k {
                let ljk = l.get(j, kk);
                // sc-analyze: allow(float-eq)
                if ljk != S::ZERO {
                    axpy(alpha * ljk, &l.col(kk)[j..jb + nb], cj);
                }
            }
        }
        let rem = q - jb - nb;
        if rem > 0 {
            gemm(
                alpha,
                l.sub(jb + nb, 0, rem, k),
                Trans::No,
                l.sub(jb, 0, nb, k),
                Trans::Yes,
                S::ONE,
                c.sub_mut(jb + nb, jb, rem, nb),
            );
        }
    }
}

/// Blocked right-looking partial Cholesky: eliminate the leading `p` pivots
/// in `NB`-column panels. Each panel step factors the diagonal tile with the
/// scalar kernel, solves the sub-diagonal panel `L21 L11ᵀ = A21` by column
/// sweep, and applies the symmetric trailing update through gemm. Same
/// contract as [`crate::partial_cholesky_in_place`], which routes here above
/// [`PANEL_BLOCK_MIN_ORDER`].
pub fn partial_cholesky_blocked<S: Scalar>(
    mut a: MatMutOf<'_, S>,
    p: usize,
) -> Result<(), CholError> {
    let n = a.nrows();
    assert_eq!(a.ncols(), n, "partial cholesky needs a square matrix");
    assert!(p <= n);
    for kb in (0..p).step_by(NB) {
        let nb = NB.min(p - kb);
        partial_cholesky_scalar(a.sub_mut(kb, kb, nb, nb), nb).map_err(|e| CholError {
            pivot: e.pivot + kb,
            value: e.value,
        })?;
        let rem = n - kb - nb;
        if rem == 0 {
            continue;
        }
        // L21 = A21 L11⁻ᵀ: column sweep against the freshly factored tile.
        // Column k reads columns j < k of the same panel, so split the
        // matrix at the global column to get disjoint views.
        for kk in 0..nb {
            let (left, mut right) = a.as_mut().split_cols_at(kb + kk);
            let ck = right.col_mut(0);
            for jj in 0..kk {
                let cj = left.col(kb + jj);
                let lkj = cj[kb + kk];
                // sc-analyze: allow(float-eq)
                if lkj != S::ZERO {
                    axpy(-lkj, &cj[kb + nb..], &mut ck[kb + nb..]);
                }
            }
            let inv = S::ONE / ck[kb + kk];
            for v in &mut ck[kb + nb..] {
                *v *= inv;
            }
        }
        // Trailing symmetric update: A22(lower) -= L21 L21ᵀ.
        let (lpart, mut trail) = a.as_mut().split_cols_at(kb + nb);
        let l21 = lpart.as_ref().sub(kb + nb, kb, rem, nb);
        let c22 = trail.sub_mut(kb + nb, 0, rem, rem);
        syrk_n_lower(-S::ONE, l21, c22);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mat::Mat;

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
        let n = NB * 2 + 7;
        let l = lower_factor(n, 10);
        let b = mk(n, 9, 11);
        let mut x1 = b.clone();
        let mut x2 = b.clone();
        trsm_lower_left_scalar(l.as_ref(), x1.as_mut());
        trsm_lower_left_blocked(l.as_ref(), x2.as_mut());
        assert!(crate::max_abs_diff(x1.as_ref(), x2.as_ref()) < 1e-11);
    }

    #[test]
    fn par_trsm_matches_blocked() {
        let n = NB + 13;
        let l = lower_factor(n, 12);
        let b = mk(n, 33, 13);
        let mut x1 = b.clone();
        let mut x2 = b.clone();
        trsm_lower_left_blocked(l.as_ref(), x1.as_mut());
        par_trsm_lower_left(l.as_ref(), x2.as_mut());
        // each column is solved by the same sequential kernel regardless of
        // which worker owns its block
        assert_eq!(x1, x2);
    }

    #[test]
    fn par_syrk_matches_blocked() {
        for n in [1, NB - 1, NB, NB * 2 + 13, NB * 3] {
            let a = mk(37, n, 18);
            let mut c1 = mk(n, n, 19);
            let mut c2 = c1.clone();
            syrk_t_blocked(0.75, a.as_ref(), -0.5, c1.as_mut());
            par_syrk_t_blocked(0.75, a.as_ref(), -0.5, c2.as_mut());
            // each NB column-block runs the same scalar tile + gemm calls on the
            // same sub-views regardless of which worker owns its stripe
            assert_eq!(c1, c2, "n={n}");
        }
    }

    #[test]
    fn blocked_syrk_matches_scalar_and_leaves_upper() {
        let n = NB + 21;
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
        let n = NB * 2 + 9;
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
        let n = NB + 37;
        let p = NB + 5;
        let a = spd(n, 17);
        let mut f1 = a.clone();
        let mut f2 = a.clone();
        partial_cholesky_scalar(f1.as_mut(), p).unwrap();
        partial_cholesky_blocked(f2.as_mut(), p).unwrap();
        assert!(crate::max_abs_diff(f1.as_ref(), f2.as_ref()) < 1e-9);
    }

    #[test]
    fn blocked_cholesky_reports_offset_pivot() {
        let n = NB + 10;
        let mut a = spd(n, 18);
        let bad = NB + 3;
        // destroy positive definiteness at a pivot inside the second panel
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
