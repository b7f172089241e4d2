//! Sparsity-utilizing SYRK on the stepped TRSM solution (paper §3.3).
//!
//! Input: the dense `Y = L⁻¹B̃ᵀ`, still in stepped shape (TRSM preserves the
//! zeros above the pivots). Output: the lower triangle of `F̃ = YᵀY`.
//!
//! - **input splitting** (Figure 4a): partition `Y` into block rows; each
//!   block row is non-zero only in its leading `w` columns, so one inner SYRK
//!   updates the leading `w × w` principal submatrix of the output.
//! - **output splitting** (Figure 4b): compute the output by block rows; the
//!   diagonal block comes from an inner SYRK over the corresponding block
//!   column of `Y`, the off-diagonal strip from a GEMM — both with the `k`
//!   range starting at the block column's first pivot.

use crate::exec::Exec;
use crate::stepped::SteppedRhsOf;
use crate::tune::{col_cuts, row_cuts, BlockCutsCache, BlockParam};
use sc_dense::{MatOf, Scalar, Trans};

/// SYRK algorithm selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyrkVariant {
    /// Original algorithm of \[9\]: one SYRK over the full `Y`.
    Plain,
    /// Input-matrix splitting into block rows.
    InputSplit(BlockParam),
    /// Output-matrix splitting into block rows.
    OutputSplit(BlockParam),
}

/// Compute `f(lower) = Yᵀ Y` with the selected variant. `f` must be `m × m`
/// and is fully overwritten (lower triangle written, upper left untouched
/// except by the caller's later symmetrization).
pub fn run_syrk<S: Scalar, E: Exec<S>>(
    exec: &mut E,
    y: &MatOf<S>,
    stepped: &SteppedRhsOf<S>,
    variant: SyrkVariant,
    f: &mut MatOf<S>,
) {
    run_syrk_with_cache(exec, y, stepped, variant, f, None)
}

/// [`run_syrk`] with an optional shared block-cut memo table (see
/// [`BlockCutsCache`]).
pub(crate) fn run_syrk_with_cache<S: Scalar, E: Exec<S>>(
    exec: &mut E,
    y: &MatOf<S>,
    stepped: &SteppedRhsOf<S>,
    variant: SyrkVariant,
    f: &mut MatOf<S>,
    cache: Option<&BlockCutsCache>,
) {
    let n = y.nrows();
    let m = y.ncols();
    assert_eq!(f.nrows(), m);
    assert_eq!(f.ncols(), m);
    assert_eq!(stepped.ncols(), m);
    match variant {
        SyrkVariant::Plain => {
            exec.syrk(S::ONE, y.as_ref(), S::ZERO, f.as_mut());
        }
        SyrkVariant::InputSplit(block) => {
            f.fill(S::ZERO);
            let cuts = row_cuts(cache, block, n);
            for w in cuts.windows(2) {
                let (r0, r1) = (w[0], w[1]);
                // columns active in this block row ("the width of each block
                // row is dictated by the right-most non-zero in the block
                // row")
                let width = stepped.active_width(r1);
                if width == 0 {
                    continue;
                }
                let a = y.as_ref().sub(r0, 0, r1 - r0, width);
                let fsub = f.as_mut().into_sub(0, 0, width, width);
                exec.syrk(S::ONE, a, S::ONE, fsub);
            }
        }
        SyrkVariant::OutputSplit(block) => {
            let cuts = col_cuts(cache, block, m, n);
            for w in cuts.windows(2) {
                let (c0, c1) = (w[0], w[1]);
                // k range starts at the block column's first pivot ("the k
                // size ... can be reduced to match the highest column pivot
                // in the input block column above the output diagonal block")
                let k0 = stepped.pivots[c0].min(n);
                let krows = n - k0;
                // diagonal block: SYRK over Y[k0.., c0..c1]
                let a = y.as_ref().sub(k0, c0, krows, c1 - c0);
                let fdiag = f.as_mut().into_sub(c0, c0, c1 - c0, c1 - c0);
                exec.syrk(S::ONE, a, S::ZERO, fdiag);
                // off-diagonal strip: F[c0..c1, 0..c0] = Aᵀ · Y[k0.., 0..c0]
                if c0 > 0 {
                    let b = y.as_ref().sub(k0, 0, krows, c0);
                    let foff = f.as_mut().into_sub(c0, 0, c1 - c0, c0);
                    exec.gemm(S::ONE, a, Trans::Yes, b, Trans::No, S::ZERO, foff);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::CpuExec;
    use crate::stepped::SteppedRhs;
    use sc_dense::Mat;
    use sc_sparse::{Coo, Perm};

    fn stepped_y(n: usize, m: usize, seed: u64) -> (SteppedRhs, Mat) {
        let mut state = seed | 1;
        let mut rnd = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let mut c = Coo::new(n, m);
        for j in 0..m {
            let pivot = ((rnd() * n as f64) as usize).min(n - 1);
            c.push(pivot, j, rnd() + 0.1);
            for i in (pivot + 1)..n {
                if rnd() < 0.4 {
                    c.push(i, j, rnd() - 0.5);
                }
            }
        }
        let mut order: Vec<usize> = (0..m).collect();
        for k in (1..m).rev() {
            let r = ((rnd() * (k + 1) as f64) as usize).min(k);
            order.swap(k, r);
        }
        let bt = c.to_csc().permute_cols(&Perm::from_old_of_new(order));
        let stepped = SteppedRhs::new(&bt);
        // Y: dense stepped matrix — in the real pipeline this is the TRSM
        // output, which is dense BELOW the pivots; emulate by filling below
        // each pivot with pseudo-random values.
        let mut y = Mat::zeros(n, stepped.ncols());
        for j in 0..stepped.ncols() {
            for i in stepped.pivots[j]..n {
                y[(i, j)] = rnd() - 0.5;
            }
        }
        (stepped, y)
    }

    fn reference(y: &Mat) -> Mat {
        let m = y.ncols();
        let mut f = Mat::zeros(m, m);
        sc_dense::syrk_t(1.0, y.as_ref(), 0.0, f.as_mut());
        f
    }

    fn lower_diff(a: &Mat, b: &Mat) -> f64 {
        let m = a.nrows();
        let mut d = 0.0f64;
        for j in 0..m {
            for i in j..m {
                d = d.max((a[(i, j)] - b[(i, j)]).abs());
            }
        }
        d
    }

    fn check(variant: SyrkVariant) {
        let (stepped, y) = stepped_y(31, 17, 7);
        let expect = reference(&y);
        let mut f = Mat::from_fn(17, 17, |_, _| f64::NAN); // must be overwritten
        run_syrk(&mut CpuExec, &y, &stepped, variant, &mut f);
        let d = lower_diff(&f, &expect);
        assert!(d < 1e-12, "{variant:?}: diff {d}");
    }

    #[test]
    fn plain_matches_reference() {
        check(SyrkVariant::Plain);
    }

    #[test]
    fn input_split_matches_reference() {
        for block in [
            BlockParam::Size(3),
            BlockParam::Size(10),
            BlockParam::Count(4),
        ] {
            check(SyrkVariant::InputSplit(block));
        }
    }

    #[test]
    fn output_split_matches_reference() {
        for block in [
            BlockParam::Size(2),
            BlockParam::Size(8),
            BlockParam::Count(3),
        ] {
            check(SyrkVariant::OutputSplit(block));
        }
    }

    #[test]
    fn single_block_equals_plain() {
        let (stepped, y) = stepped_y(20, 9, 13);
        let mut f1 = Mat::zeros(9, 9);
        run_syrk(&mut CpuExec, &y, &stepped, SyrkVariant::Plain, &mut f1);
        let mut f2 = Mat::zeros(9, 9);
        run_syrk(
            &mut CpuExec,
            &y,
            &stepped,
            SyrkVariant::OutputSplit(BlockParam::Count(1)),
            &mut f2,
        );
        assert!(lower_diff(&f1, &f2) < 1e-13);
    }

    #[test]
    fn handles_empty_columns() {
        // a stepped matrix with trailing empty columns (pivot == n)
        let n = 12;
        let mut c = Coo::new(n, 3);
        c.push(2, 0, 1.0);
        c.push(5, 1, 1.0);
        // column 2 empty
        let stepped = SteppedRhs::new(&c.to_csc());
        let mut y = Mat::zeros(n, 3);
        for j in 0..2 {
            for i in stepped.pivots[j]..n {
                y[(i, j)] = 1.0;
            }
        }
        let expect = reference(&y);
        for variant in [
            SyrkVariant::InputSplit(BlockParam::Size(4)),
            SyrkVariant::OutputSplit(BlockParam::Size(2)),
        ] {
            let mut f = Mat::zeros(3, 3);
            run_syrk(&mut CpuExec, &y, &stepped, variant, &mut f);
            assert!(lower_diff(&f, &expect) < 1e-13, "{variant:?}");
        }
    }
}
