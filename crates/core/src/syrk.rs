//! Sparsity-utilizing SYRK on the stepped TRSM solution (paper §3.3).
//!
//! Input: the dense `Y = L⁻¹B̃ᵀ`, still in stepped shape (TRSM preserves the
//! zeros above the pivots). Output: the lower triangle of `F̃ = YᵀY`.
//!
//! The optimized variant, **input splitting** (Figure 4a), partitions `Y`
//! into block rows; each block row is non-zero only in its leading `w`
//! columns, so one inner SYRK updates the leading `w × w` principal
//! submatrix of the output. The baseline ([`SyrkVariant::Plain`]) is the
//! original algorithm of \[9\]: one SYRK over the full `Y`.
//!
//! The paper's other variant, output splitting (Figure 4b), is deliberately
//! absent: on the closure-restricted inputs of every benchmark mesh, input
//! splitting is within 0.5 % of the best configuration of either variant on
//! the flop count, the simulated device and the host (the Table 1 search
//! recorded in ROADMAP.md).

use crate::exec::Exec;
use crate::stepped::SteppedRhsOf;
use crate::tune::{resolve_block, BlockParam};
use sc_dense::{MatOf, Scalar};

/// SYRK algorithm selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyrkVariant {
    /// Original algorithm of \[9\]: one SYRK over the full `Y`.
    Plain,
    /// Input-matrix splitting into block rows.
    InputSplit(BlockParam),
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
            let cuts = resolve_block(block, n);
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
    fn single_block_equals_plain() {
        let (stepped, y) = stepped_y(20, 9, 13);
        let mut f1 = Mat::zeros(9, 9);
        run_syrk(&mut CpuExec, &y, &stepped, SyrkVariant::Plain, &mut f1);
        let mut f2 = Mat::zeros(9, 9);
        run_syrk(
            &mut CpuExec,
            &y,
            &stepped,
            SyrkVariant::InputSplit(BlockParam::Count(1)),
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
            SyrkVariant::Plain,
            SyrkVariant::InputSplit(BlockParam::Size(4)),
        ] {
            let mut f = Mat::zeros(3, 3);
            run_syrk(&mut CpuExec, &y, &stepped, variant, &mut f);
            assert!(lower_diff(&f, &expect) < 1e-13, "{variant:?}");
        }
    }
}
