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

/// Thread-safe memo table for [`BlockParam`] cut resolution, shared across
/// the subdomains of one batched assembly.
///
/// In a FETI decomposition most subdomains have identical (or near-identical)
/// dimensions, so the same `(param, n)` resolution repeats once per
/// subdomain. Cuts depend only on the parameter and the shape — row splits
/// are keyed `(param, n)`, column splits by the stepped right-hand side's
/// `(param, m, n)` — never on the gluing pattern, so differently-glued
/// subdomains of equal shape share entries, and a cache hit always returns
/// exactly the cuts an uncached resolution would compute — preserving the
/// batch driver's bitwise-equality guarantee.
#[derive(Default)]
pub(crate) struct BlockCutsCache {
    rows: std::sync::Mutex<std::collections::HashMap<CutsKey, std::sync::Arc<Vec<usize>>>>,
    cols: std::sync::Mutex<std::collections::HashMap<CutsKey, std::sync::Arc<Vec<usize>>>>,
    hits: std::sync::atomic::AtomicUsize,
    misses: std::sync::atomic::AtomicUsize,
}

type CutsKey = (BlockParam, usize, usize);

/// Row-dimension cuts of a factor of order `n` (TRSM factor splitting, SYRK
/// input splitting), via the shared memo table when one is provided.
pub(crate) fn row_cuts(
    cache: Option<&BlockCutsCache>,
    param: BlockParam,
    n: usize,
) -> std::sync::Arc<Vec<usize>> {
    match cache {
        Some(c) => c.rows(param, n),
        None => std::sync::Arc::new(resolve_block(param, n)),
    }
}

/// Column-dimension cuts of an `n × m` stepped right-hand side (SYRK output
/// splitting), via the shared memo table when one is provided.
pub(crate) fn col_cuts(
    cache: Option<&BlockCutsCache>,
    param: BlockParam,
    m: usize,
    n: usize,
) -> std::sync::Arc<Vec<usize>> {
    match cache {
        Some(c) => c.cols(param, m, n),
        None => std::sync::Arc::new(resolve_block(param, m)),
    }
}

impl BlockCutsCache {
    /// Empty cache; entries populate on first resolve per (param, shape) key.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cached [`resolve_block`] over a factor of order `n` (row-dimension
    /// splits).
    pub fn rows(&self, param: BlockParam, n: usize) -> std::sync::Arc<Vec<usize>> {
        self.lookup(&self.rows, (param, n, usize::MAX), || {
            resolve_block(param, n)
        })
    }

    /// Cached [`resolve_block`] over the `m` columns of an `n`-row stepped
    /// right-hand side (column-dimension splits).
    pub fn cols(&self, param: BlockParam, m: usize, n: usize) -> std::sync::Arc<Vec<usize>> {
        self.lookup(&self.cols, (param, m, n), || resolve_block(param, m))
    }

    fn lookup(
        &self,
        table: &std::sync::Mutex<std::collections::HashMap<CutsKey, std::sync::Arc<Vec<usize>>>>,
        key: CutsKey,
        compute: impl FnOnce() -> Vec<usize>,
    ) -> std::sync::Arc<Vec<usize>> {
        use std::collections::hash_map::Entry;
        use std::sync::atomic::Ordering::Relaxed;
        if let Some(cuts) = table.lock().unwrap_or_else(|e| e.into_inner()).get(&key) {
            self.hits.fetch_add(1, Relaxed);
            return std::sync::Arc::clone(cuts);
        }
        // Compute outside the lock, then re-check under it: a lookup that
        // loses the insert race serves (and counts) the winner's entry, so
        // hit/miss stats stay deterministic per distinct key regardless of
        // how many tasks raced on first touch.
        let cuts = std::sync::Arc::new(compute());
        let mut t = table.lock().unwrap_or_else(|e| e.into_inner());
        match t.entry(key) {
            Entry::Occupied(e) => {
                self.hits.fetch_add(1, Relaxed);
                std::sync::Arc::clone(e.get())
            }
            Entry::Vacant(v) => {
                self.misses.fetch_add(1, Relaxed);
                v.insert(std::sync::Arc::clone(&cuts));
                cuts
            }
        }
    }

    /// Number of lookups served from the memo table.
    pub fn hits(&self) -> usize {
        self.hits.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Number of lookups that had to compute fresh cuts.
    pub fn misses(&self) -> usize {
        self.misses.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// The paper's Table 1: optimal splitting parameters per algorithm, platform
/// and dimension (`S` = block size, `C` = block count), without the RHS
/// splitting row (that TRSM is not implemented). Used as defaults by the
/// benches and the FETI pipeline.
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
    /// SYRK, output splitting — CPU 2D: `S 200`.
    pub const SYRK_OUTPUT_CPU_2D: BlockParam = BlockParam::Size(200);
    /// SYRK, output splitting — CPU 3D: `C 10`.
    pub const SYRK_OUTPUT_CPU_3D: BlockParam = BlockParam::Count(10);
    /// SYRK, output splitting — GPU 2D: `S 200`.
    pub const SYRK_OUTPUT_GPU_2D: BlockParam = BlockParam::Size(200);
    /// SYRK, output splitting — GPU 3D: `S 1000`.
    pub const SYRK_OUTPUT_GPU_3D: BlockParam = BlockParam::Size(1000);
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
