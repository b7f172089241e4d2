//! Block-partition parameters and helpers (paper §4.1, Table 1).
//!
//! The splitting kernels partition a matrix dimension into uniform blocks,
//! either by **fixing the block size** (count grows with the problem) or by
//! **fixing the block count** (size grows with the problem). The paper finds
//! fixed block *size* transfers across subdomain sizes (Figure 5), which is
//! why Table 1 reports mostly `S` entries.

/// Block partitioning parameter.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BlockParam {
    /// Fixed block size (`S` rows/columns per block), uniform.
    Size(usize),
    /// Fixed number of blocks (`C` blocks over the whole dimension), uniform.
    Count(usize),
}

impl BlockParam {
    /// Resolve to a concrete uniform block size for a dimension of length
    /// `n`.
    pub fn block_size(self, n: usize) -> usize {
        match self {
            BlockParam::Size(s) => s.max(1),
            BlockParam::Count(c) => n.div_ceil(c.max(1)).max(1),
        }
    }
}

/// Resolve a block parameter and return the block boundaries covering
/// `0..n`: `[0, b, 2b, ..., n]`.
pub(crate) fn resolve_block(param: BlockParam, n: usize) -> Vec<usize> {
    let bs = param.block_size(n);
    let mut cuts = Vec::with_capacity(n / bs + 2);
    let mut p = 0;
    while p < n {
        cuts.push(p);
        p += bs;
    }
    cuts.push(n);
    cuts
}

/// The paper's Table 1: optimal splitting parameters per algorithm, platform
/// and dimension (`S` = block size, `C` = block count), without the RHS
/// splitting and output splitting rows (those variants are not implemented,
/// see the `plan` module docs). Used as defaults by the benches
/// and the FETI pipeline.
pub mod table1_defaults {
    use super::BlockParam;

    /// TRSM, factor splitting — CPU 2D: `S 200`.
    pub const TRSM_FACTOR_CPU_2D: BlockParam = BlockParam::Size(200);
    /// TRSM, factor splitting — CPU 3D: `S 200`.
    pub const TRSM_FACTOR_CPU_3D: BlockParam = BlockParam::Size(200);
    /// TRSM, factor splitting — GPU 2D: `S 1000`.
    pub const TRSM_FACTOR_GPU_2D: BlockParam = BlockParam::Size(1000);
    /// TRSM, factor splitting — GPU 3D: `S 500`.
    pub const TRSM_FACTOR_GPU_3D: BlockParam = BlockParam::Size(500);
    /// SYRK, input splitting — CPU 2D: `S 200`.
    pub const SYRK_INPUT_CPU_2D: BlockParam = BlockParam::Size(200);
    /// SYRK, input splitting — CPU 3D: `C 50`.
    pub const SYRK_INPUT_CPU_3D: BlockParam = BlockParam::Count(50);
    /// SYRK, input splitting — GPU 2D: `S 2000`.
    pub const SYRK_INPUT_GPU_2D: BlockParam = BlockParam::Size(2000);
    /// SYRK, input splitting — GPU 3D: `S 1000`.
    pub const SYRK_INPUT_GPU_3D: BlockParam = BlockParam::Size(1000);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_param_gives_uniform_cuts() {
        let cuts = resolve_block(BlockParam::Size(3), 10);
        assert_eq!(cuts, vec![0, 3, 6, 9, 10]);
    }

    #[test]
    fn count_param_divides_dimension() {
        let cuts = resolve_block(BlockParam::Count(4), 10);
        // block size = ceil(10/4) = 3
        assert_eq!(cuts, vec![0, 3, 6, 9, 10]);
    }

    #[test]
    fn count_one_is_single_block() {
        assert_eq!(resolve_block(BlockParam::Count(1), 7), vec![0, 7]);
    }

    #[test]
    fn degenerate_dimensions() {
        assert_eq!(resolve_block(BlockParam::Size(5), 0), vec![0]);
        assert_eq!(resolve_block(BlockParam::Size(100), 3), vec![0, 3]);
        // the zero-dimension single-cut `[0]` must be a no-op under the
        // `windows(2)` iteration every splitting kernel performs
        for param in [BlockParam::Size(5), BlockParam::Count(3)] {
            let cuts = resolve_block(param, 0);
            assert_eq!(cuts, vec![0], "{param:?}");
            assert_eq!(cuts.windows(2).count(), 0, "{param:?} must yield no blocks");
        }
    }
}
