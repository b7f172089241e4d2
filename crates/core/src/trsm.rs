//! Sparsity-utilizing TRSM on the stepped RHS (paper §3.2).
//!
//! All variants solve `L Y = B̃ᵀ` in place on a dense `Y` that starts as the
//! dense expansion of the stepped `B̃ᵀ`. The baseline ([`TrsmVariant::Plain`])
//! is the original algorithm of \[9\]: one library TRSM over the full factor.
//! The optimized variants skip the zero region above the column pivots:
//!
//! - **RHS splitting**: column blocks of `Y` are solved against the trailing
//!   subfactor below the block's first pivot only;
//! - **factor splitting**: the factor is blocked along the diagonal; each
//!   step runs a small TRSM on the diagonal block restricted to the currently
//!   active RHS columns, then a GEMM for the sub-diagonal block — with
//!   optional **pruning** (compacting empty rows out of the sub-diagonal
//!   block before a dense GEMM).

use crate::exec::Exec;
use crate::stepped::SteppedRhsOf;
use crate::tune::{col_cuts, row_cuts, BlockCutsCache, BlockParam};
use sc_dense::{MatMutOf, MatOf, Scalar, Trans};
use sc_sparse::CscOf;

/// Storage format for the triangular factor inside TRSM kernels
/// ("factor storage" in the paper's §3.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FactorStorage {
    /// Keep factor (blocks) in CSC and call sparse kernels. Optimal for the
    /// very sparse 2D factors.
    Sparse,
    /// Densify the factor (blocks) and call dense kernels. Optimal in 3D.
    Dense,
}

/// TRSM algorithm selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrsmVariant {
    /// Original algorithm of \[9\]: single TRSM over the whole factor.
    Plain,
    /// RHS splitting with the given column-block parameter.
    RhsSplit(BlockParam),
    /// Factor splitting with the given factor-block parameter; `prune`
    /// compacts empty rows out of sub-diagonal blocks before the GEMM.
    FactorSplit {
        /// Diagonal block partition.
        block: BlockParam,
        /// Enable empty-row pruning for the GEMM update.
        prune: bool,
    },
}

/// Run the selected TRSM variant: on return `y` holds `L⁻¹ B̃ᵀ` (stepped
/// column order). `l` is the CSC factor (diag-first columns).
pub fn run_trsm<S: Scalar, E: Exec<S>>(
    exec: &mut E,
    l: &CscOf<S>,
    stepped: &SteppedRhsOf<S>,
    storage: FactorStorage,
    variant: TrsmVariant,
    y: &mut MatOf<S>,
) {
    run_trsm_with_cache(exec, l, stepped, storage, variant, y, None)
}

/// [`run_trsm`] with an optional shared block-cut memo table (used by the
/// batched multi-subdomain driver so equal-shape subdomains resolve their
/// block partitions once).
pub fn run_trsm_with_cache<S: Scalar, E: Exec<S>>(
    exec: &mut E,
    l: &CscOf<S>,
    stepped: &SteppedRhsOf<S>,
    storage: FactorStorage,
    variant: TrsmVariant,
    y: &mut MatOf<S>,
    cache: Option<&BlockCutsCache>,
) {
    let n = l.ncols();
    assert_eq!(y.nrows(), n, "Y row mismatch");
    assert_eq!(y.ncols(), stepped.ncols(), "Y column mismatch");
    match variant {
        TrsmVariant::Plain => trsm_plain(exec, l, storage, y.as_mut()),
        TrsmVariant::RhsSplit(block) => trsm_rhs_split(exec, l, stepped, storage, block, y, cache),
        TrsmVariant::FactorSplit { block, prune } => {
            trsm_factor_split(exec, l, stepped, storage, block, prune, y, cache)
        }
    }
}

fn trsm_plain<S: Scalar, E: Exec<S>>(
    exec: &mut E,
    l: &CscOf<S>,
    storage: FactorStorage,
    y: MatMutOf<'_, S>,
) {
    match storage {
        FactorStorage::Sparse => exec.trsm_sparse(l, y),
        FactorStorage::Dense => {
            let ld = l.to_dense();
            exec.gather(l.nnz()); // densification traffic
            exec.trsm_dense(ld.as_ref(), y);
        }
    }
}

/// RHS splitting (paper Figure 3a): each column block is solved with the
/// trailing subfactor below its first pivot.
fn trsm_rhs_split<S: Scalar, E: Exec<S>>(
    exec: &mut E,
    l: &CscOf<S>,
    stepped: &SteppedRhsOf<S>,
    storage: FactorStorage,
    block: BlockParam,
    y: &mut MatOf<S>,
    cache: Option<&BlockCutsCache>,
) {
    let n = l.ncols();
    let m = stepped.ncols();
    let cuts = col_cuts(cache, block, m, n);
    // Dense factor materialized once; subfactors are views (leading
    // dimension arithmetic — free, as the paper notes).
    let ld = match storage {
        FactorStorage::Dense => {
            exec.gather(l.nnz());
            Some(l.to_dense())
        }
        FactorStorage::Sparse => None,
    };
    for w in cuts.windows(2) {
        let (c0, c1) = (w[0], w[1]);
        // first pivot in the block bounds the subfactor
        let p = stepped.pivots[c0];
        if p >= n {
            break; // empty columns (and all following) need no work
        }
        let ysub = y.as_mut().into_sub(p, c0, n - p, c1 - c0);
        match (&ld, storage) {
            (Some(ld), FactorStorage::Dense) => {
                exec.trsm_dense(ld.as_ref().sub(p, p, n - p, n - p), ysub);
            }
            (_, FactorStorage::Sparse) => {
                // "We must manually extract the sparse subfactor before each
                // TRSM if we use a sparse factor." (§3.2)
                let sub = l.trailing_submatrix(p, p, n);
                exec.gather(sub.nnz());
                exec.trsm_sparse(&sub, ysub);
            }
            _ => unreachable!(),
        }
    }
}

/// Factor splitting (paper Figure 3b): blocked forward substitution with a
/// TRSM on each diagonal block (restricted to active RHS columns) and a GEMM
/// for the sub-diagonal block, optionally pruned.
#[allow(clippy::too_many_arguments)]
fn trsm_factor_split<S: Scalar, E: Exec<S>>(
    exec: &mut E,
    l: &CscOf<S>,
    stepped: &SteppedRhsOf<S>,
    storage: FactorStorage,
    block: BlockParam,
    prune: bool,
    y: &mut MatOf<S>,
    cache: Option<&BlockCutsCache>,
) {
    let n = l.ncols();
    let cuts = row_cuts(cache, block, n);
    for w in cuts.windows(2) {
        let (r0, r1) = (w[0], w[1]);
        // active columns: pivots strictly below r1 ("the width of the RHS
        // submatrix is dictated by the right-most non-zero in the top RHS
        // block")
        let width = stepped.active_width(r1);
        if width == 0 {
            continue;
        }
        // --- diagonal block TRSM on Y[r0..r1, 0..width] ---
        let dblock = l.block(r0, r1, r0, r1);
        {
            let ytop = y.as_mut().into_sub(r0, 0, r1 - r0, width);
            match storage {
                FactorStorage::Sparse => exec.trsm_sparse(&dblock, ytop),
                FactorStorage::Dense => {
                    exec.gather(dblock.nnz());
                    let dd = dblock.to_dense();
                    exec.trsm_dense(dd.as_ref(), ytop);
                }
            }
        }
        if r1 == n {
            continue;
        }
        // --- sub-diagonal block GEMM: Y[r1.., 0..width] -= S * Y[r0..r1, ..] ---
        let sblock = l.block(r1, n, r0, r1);
        if sblock.nnz() == 0 {
            continue;
        }
        if prune {
            // compact the empty rows out of S (paper: "pruning", analogous to
            // CHOLMOD's supernodal row compression)
            let live = sblock.nonempty_rows();
            exec.gather(sblock.nnz() + live.len());
            let sg = sblock.gather_rows_dense(&live);
            let mut t = MatOf::<S>::zeros(live.len(), width);
            {
                let ytop = y.as_ref().sub(r0, 0, r1 - r0, width);
                exec.gemm(
                    S::ONE,
                    sg.as_ref(),
                    Trans::No,
                    ytop,
                    Trans::No,
                    S::ZERO,
                    t.as_mut(),
                );
            }
            // scatter-subtract the compacted rows back into Y
            exec.gather(live.len() * width);
            for (k, &row) in live.iter().enumerate() {
                let g = r1 + row;
                for c in 0..width {
                    y[(g, c)] -= t[(k, c)];
                }
            }
        } else {
            // A column-major matrix cannot hand out disjoint mutable row
            // windows safely; copy the (small) top panel, as real GPU
            // implementations do when packing the TRSM panel.
            let ytop = y.submatrix(r0, 0, r1 - r0, width);
            exec.gather((r1 - r0) * width);
            let ybot = y.as_mut().into_sub(r1, 0, n - r1, width);
            match storage {
                FactorStorage::Sparse => exec.spmm(-S::ONE, &sblock, ytop.as_ref(), S::ONE, ybot),
                FactorStorage::Dense => {
                    exec.gather(sblock.nnz());
                    let sd = sblock.to_dense();
                    exec.gemm(
                        -S::ONE,
                        sd.as_ref(),
                        Trans::No,
                        ytop.as_ref(),
                        Trans::No,
                        S::ONE,
                        ybot,
                    );
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
    use sc_sparse::{Coo, Csc, Perm};

    /// Random-ish sparse SPD lower factor with controlled density.
    fn sparse_factor(n: usize, seed: u64) -> Csc {
        let mut state = seed | 1;
        let mut rnd = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let mut c = Coo::new(n, n);
        for j in 0..n {
            c.push(j, j, 2.0 + rnd());
            for i in (j + 1)..n {
                if rnd() < 0.15 {
                    c.push(i, j, rnd() - 0.5);
                }
            }
        }
        c.to_csc()
    }

    /// Stepped RHS with roughly uniform pivots.
    fn stepped_rhs(n: usize, m: usize, seed: u64) -> SteppedRhs {
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
            c.push(pivot, j, 1.0);
            // a few extra entries below the pivot
            for i in (pivot + 1)..n {
                if rnd() < 0.1 {
                    c.push(i, j, rnd() - 0.5);
                }
            }
        }
        // scramble columns to exercise the permutation
        let mut order: Vec<usize> = (0..m).collect();
        for k in (1..m).rev() {
            let r = ((rnd() * (k + 1) as f64) as usize).min(k);
            order.swap(k, r);
        }
        let bt = c.to_csc().permute_cols(&Perm::from_old_of_new(order));
        SteppedRhs::new(&bt)
    }

    fn reference_solution(l: &Csc, stepped: &SteppedRhs) -> Mat {
        let mut y = stepped.to_dense();
        let ld = l.to_dense();
        sc_dense::trsm_lower_left(ld.as_ref(), y.as_mut());
        y
    }

    fn check_variant(variant: TrsmVariant, storage: FactorStorage) {
        let n = 37;
        let m = 19;
        let l = sparse_factor(n, 11);
        let stepped = stepped_rhs(n, m, 23);
        let expect = reference_solution(&l, &stepped);
        let mut y = stepped.to_dense();
        run_trsm(&mut CpuExec, &l, &stepped, storage, variant, &mut y);
        let d = sc_dense::max_abs_diff(y.as_ref(), expect.as_ref());
        assert!(d < 1e-9, "{variant:?} {storage:?}: diff {d}");
    }

    #[test]
    fn plain_matches_reference_both_storages() {
        check_variant(TrsmVariant::Plain, FactorStorage::Sparse);
        check_variant(TrsmVariant::Plain, FactorStorage::Dense);
    }

    #[test]
    fn rhs_split_matches_reference() {
        for block in [
            BlockParam::Size(4),
            BlockParam::Size(64),
            BlockParam::Count(3),
        ] {
            check_variant(TrsmVariant::RhsSplit(block), FactorStorage::Sparse);
            check_variant(TrsmVariant::RhsSplit(block), FactorStorage::Dense);
        }
    }

    #[test]
    fn factor_split_matches_reference() {
        for block in [
            BlockParam::Size(5),
            BlockParam::Size(16),
            BlockParam::Count(2),
        ] {
            for prune in [false, true] {
                check_variant(
                    TrsmVariant::FactorSplit { block, prune },
                    FactorStorage::Sparse,
                );
                check_variant(
                    TrsmVariant::FactorSplit { block, prune },
                    FactorStorage::Dense,
                );
            }
        }
    }

    #[test]
    fn block_size_one_still_correct() {
        check_variant(
            TrsmVariant::FactorSplit {
                block: BlockParam::Size(1),
                prune: true,
            },
            FactorStorage::Dense,
        );
        check_variant(
            TrsmVariant::RhsSplit(BlockParam::Size(1)),
            FactorStorage::Sparse,
        );
    }

    #[test]
    fn empty_rhs_is_noop() {
        let n = 10;
        let l = sparse_factor(n, 3);
        let bt = Csc::zeros(n, 0);
        let stepped = SteppedRhs::new(&bt);
        let mut y = Mat::zeros(n, 0);
        run_trsm(
            &mut CpuExec,
            &l,
            &stepped,
            FactorStorage::Sparse,
            TrsmVariant::RhsSplit(BlockParam::Size(10)),
            &mut y,
        );
    }
}
