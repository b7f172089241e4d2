//! Packed panel storage for the cache-blocked kernels.
//!
//! BLIS-style packing: before a cache block of `op(A)`/`op(B)` enters the
//! register microkernel, it is copied once into a contiguous panel layout so
//! the innermost loop streams both operands with unit stride regardless of
//! the source leading dimension or transposition:
//!
//! - [`PackedA`] holds an `mc × kc` block of `op(A)` as a sequence of
//!   [`MR`]-row *micro-panels*, each stored k-major (`panel[p * MR + ir]` is
//!   row `ir`, depth `p`).
//! - [`PackedB`] holds a `kc × nc` block of `op(B)` as a sequence of
//!   [`NR`]-column micro-panels, each stored k-major
//!   (`panel[p * NR + jr]` is depth `p`, column `jr`).
//!
//! Both are one layout (`Lanes`, width `MR` or `NR`), which is what the
//! blocked kernels pack into directly.
//!
//! Edge panels (block height not a multiple of `MR`, width not a multiple of
//! `NR`) are zero-padded, so the microkernel always runs full `MR × NR`
//! tiles and never branches on the boundary; the padded lanes contribute
//! exact zeros and the write-back simply drops them.

use crate::gemm::Trans;
use crate::mat::{MatMutOf, MatRefOf};
use crate::scalar::Scalar;

/// Rows per A micro-panel: the register-block height of the gemm
/// microkernel. Sixteen `f64` lanes = two AVX-512 vectors (or four AVX2
/// vectors); `f32` packs twice the lanes into the same byte width for
/// free.
pub const MR: usize = 16;

/// Columns per B micro-panel: the register-block width of the gemm
/// microkernel. `MR × NR` accumulators stay resident in registers.
pub const NR: usize = 8;

/// The one packed layout behind both operands: `lanes` rows (A) or columns
/// (B) of the operated matrix, `W` to a micro-panel, each panel k-major
/// (`panel[p * W + lane]`). The blocked kernels keep one buffer per operand
/// and re-[`pack`](Lanes::pack) it from block to block.
pub(crate) struct Lanes<S, const W: usize> {
    data: Vec<S>,
    lanes: usize,
    kc: usize,
}

impl<S: Scalar, const W: usize> Lanes<S, W> {
    pub(crate) const fn new() -> Self {
        Lanes {
            data: Vec::new(),
            lanes: 0,
            kc: 0,
        }
    }

    /// Pack lanes `l0 .. l0 + lanes`, depth `p0 .. p0 + kc`. `across` says a
    /// lane is a *row* of `src` (`op(A)` untransposed, `op(B)` transposed: each
    /// depth step is a contiguous column sliver); otherwise a lane is a column
    /// of `src` and the pack transposes.
    pub(crate) fn pack(
        &mut self,
        src: MatRefOf<'_, S>,
        across: bool,
        (l0, lanes): (usize, usize),
        (p0, kc): (usize, usize),
    ) {
        (self.lanes, self.kc) = (lanes, kc);
        let panel_len = (kc * W).max(1);
        let len = lanes.div_ceil(W).max(1) * panel_len;
        self.data.resize(len, S::ZERO);
        if lanes % W != 0 || lanes == 0 {
            // edge panel: the lanes past the block stay exact zeros
            self.data[len - panel_len..].fill(S::ZERO);
        }
        if across {
            // column by column: sequential reads, one sliver per panel
            for p in 0..kc {
                let col = &src.col(p0 + p)[l0..l0 + lanes];
                for (panel, sliver) in self.data.chunks_exact_mut(panel_len).zip(col.chunks(W)) {
                    copy_sliver::<S, W>(&mut panel[p * W..(p + 1) * W], sliver);
                }
            }
        } else {
            let panels = self.data.chunks_exact_mut(panel_len);
            for (panel, l) in panels.zip((l0..l0 + lanes).step_by(W)) {
                let h = W.min(l0 + lanes - l);
                let runs: [&[S]; W] =
                    std::array::from_fn(|r| &src.col(l + r.min(h - 1))[p0..p0 + kc]);
                for (p, dst) in panel.chunks_exact_mut(W).enumerate() {
                    for (v, run) in dst.iter_mut().zip(&runs).take(h) {
                        *v = run[p];
                    }
                }
            }
        }
    }

    /// Inverse of [`Lanes::pack`]: copy the block back (padding dropped).
    pub(crate) fn unpack(&self, dst: &mut MatMutOf<'_, S>, across: bool, l0: usize, p0: usize) {
        let kc = self.kc;
        for (ip, panel) in self.data.chunks_exact((kc * W).max(1)).enumerate() {
            let (l, h) = (l0 + ip * W, W.min(self.lanes.saturating_sub(ip * W)));
            if across {
                for (p, sliver) in panel.chunks_exact(W).enumerate() {
                    copy_sliver::<S, W>(&mut dst.col_mut(p0 + p)[l..l + h], sliver);
                }
            } else {
                for r in 0..h {
                    let col = &mut dst.col_mut(l + r)[p0..p0 + kc];
                    for (v, &s) in col.iter_mut().zip(panel[r..].iter().step_by(W)) {
                        *v = s;
                    }
                }
            }
        }
    }

    /// Lanes in the block (unpadded).
    #[inline]
    pub(crate) fn lanes(&self) -> usize {
        self.lanes
    }

    /// Depth `kc` of the block.
    #[inline]
    pub(crate) fn depth(&self) -> usize {
        self.kc
    }

    /// Micro-panel `ip` (lanes `ip * W ..`), length `kc * W`.
    #[inline]
    pub(crate) fn panel(&self, ip: usize) -> &[S] {
        &self.data[ip * self.kc * W..(ip + 1) * self.kc * W]
    }

    /// Mutable micro-panel, for the triangular solve that works on the packed
    /// block in place.
    #[inline]
    pub(crate) fn panel_mut(&mut self, ip: usize) -> &mut [S] {
        &mut self.data[ip * self.kc * W..(ip + 1) * self.kc * W]
    }

    #[inline]
    fn get(&self, lane: usize, p: usize) -> S {
        debug_assert!(p < self.kc);
        self.data[(lane / W) * self.kc * W + p * W + lane % W]
    }
}

/// Copy a column sliver into (the head of) one `W`-wide depth step, or back:
/// the full-width case is a fixed-size move instead of a `memcpy` call.
#[inline(always)]
fn copy_sliver<S: Scalar, const W: usize>(dst: &mut [S], src: &[S]) {
    match (<&mut [S; W]>::try_from(&mut *dst), <&[S; W]>::try_from(src)) {
        (Ok(d), Ok(s)) => *d = *s,
        _ => {
            let h = dst.len().min(src.len());
            dst[..h].copy_from_slice(&src[..h]);
        }
    }
}

/// An `mc × kc` cache block of `op(A)`, repacked into [`MR`]-row
/// micro-panels (see module docs for the layout).
pub struct PackedA<S>(Lanes<S, MR>);

impl<S: Scalar> PackedA<S> {
    /// Pack the block of `op(A)` whose rows are `i0 .. i0 + mc` and whose
    /// depth range is `p0 .. p0 + kc` (row/depth indices in the *operated*
    /// orientation: `ta == Trans::Yes` reads `a` transposed).
    pub fn pack(a: MatRefOf<'_, S>, ta: Trans, i0: usize, mc: usize, p0: usize, kc: usize) -> Self {
        let mut lanes = Lanes::new();
        lanes.pack(a, ta == Trans::No, (i0, mc), (p0, kc));
        PackedA(lanes)
    }

    /// Micro-panel `ip` (rows `ip * MR .. ip * MR + MR` of the block),
    /// length `kc * MR`.
    #[inline]
    pub fn panel(&self, ip: usize) -> &[S] {
        self.0.panel(ip)
    }

    /// Read back element `(i, p)` of the packed block (round-trip accessor
    /// used by the packing tests; zero in the padded region).
    #[inline]
    pub fn get(&self, i: usize, p: usize) -> S {
        self.0.get(i, p)
    }

    /// Block height `mc` (unpadded).
    #[inline]
    pub fn block_rows(&self) -> usize {
        self.0.lanes
    }

    /// Block depth `kc`.
    #[inline]
    pub fn block_depth(&self) -> usize {
        self.0.kc
    }
}

/// A `kc × nc` cache block of `op(B)`, repacked into [`NR`]-column
/// micro-panels (see module docs for the layout).
pub struct PackedB<S>(Lanes<S, NR>);

impl<S: Scalar> PackedB<S> {
    /// Pack the block of `op(B)` whose depth range is `p0 .. p0 + kc` and
    /// whose columns are `j0 .. j0 + nc` (indices in the operated
    /// orientation, as in [`PackedA::pack`]).
    pub fn pack(b: MatRefOf<'_, S>, tb: Trans, p0: usize, kc: usize, j0: usize, nc: usize) -> Self {
        let mut lanes = Lanes::new();
        lanes.pack(b, tb == Trans::Yes, (j0, nc), (p0, kc));
        PackedB(lanes)
    }

    /// Micro-panel `jp` (columns `jp * NR .. jp * NR + NR` of the block),
    /// length `kc * NR`.
    #[inline]
    pub fn panel(&self, jp: usize) -> &[S] {
        self.0.panel(jp)
    }

    /// Read back element `(p, j)` of the packed block (round-trip accessor;
    /// zero in the padded region).
    #[inline]
    pub fn get(&self, p: usize, j: usize) -> S {
        self.0.get(j, p)
    }

    /// Block width `nc` (unpadded).
    #[inline]
    pub fn block_cols(&self) -> usize {
        self.0.lanes
    }

    /// Block depth `kc`.
    #[inline]
    pub fn block_depth(&self) -> usize {
        self.0.kc
    }
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
    fn packed_a_round_trips_both_orientations() {
        let a = mk(13, 11, 1);
        for ta in [Trans::No, Trans::Yes] {
            let (rows, depth) = match ta {
                Trans::No => (13, 11),
                Trans::Yes => (11, 13),
            };
            let p = PackedA::pack(a.as_ref(), ta, 1, rows - 2, 2, depth - 3);
            for i in 0..rows - 2 {
                for k in 0..depth - 3 {
                    let want = match ta {
                        Trans::No => a[(1 + i, 2 + k)],
                        Trans::Yes => a[(2 + k, 1 + i)],
                    };
                    assert_eq!(p.get(i, k), want, "mismatch at ({i},{k}) ta={ta:?}");
                }
            }
        }
    }

    #[test]
    fn packed_b_round_trips_both_orientations() {
        let b = mk(9, 14, 2);
        for tb in [Trans::No, Trans::Yes] {
            let (depth, cols) = match tb {
                Trans::No => (9, 14),
                Trans::Yes => (14, 9),
            };
            let p = PackedB::pack(b.as_ref(), tb, 1, depth - 2, 3, cols - 4);
            for k in 0..depth - 2 {
                for j in 0..cols - 4 {
                    let want = match tb {
                        Trans::No => b[(1 + k, 3 + j)],
                        Trans::Yes => b[(3 + j, 1 + k)],
                    };
                    assert_eq!(p.get(k, j), want, "mismatch at ({k},{j}) tb={tb:?}");
                }
            }
        }
    }

    #[test]
    fn edge_panels_are_zero_padded() {
        let a = mk(5, 3, 3);
        let p = PackedA::pack(a.as_ref(), Trans::No, 0, 5, 0, 3);
        // rows 5..8 of the only panel are padding
        for k in 0..3 {
            for i in 5..MR {
                assert_eq!(p.panel(0)[k * MR + i], 0.0);
            }
        }
        let b = mk(3, 5, 4);
        let pb = PackedB::pack(b.as_ref(), Trans::No, 0, 3, 0, 5);
        for k in 0..3 {
            for j in 5..NR {
                // columns 5..NR of the only panel are padding
                assert_eq!(pb.panel(0)[k * NR + j], 0.0);
            }
        }
    }
}
