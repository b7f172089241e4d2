//! Workload generation: the heat-transfer subdomain ladders of the paper's
//! §4 and single-subdomain kernel-bench extractions.

use sc_core::ScConfig;
use sc_factor::Engine;
use sc_fem::{Gluing, HeatProblem, Subdomain};
use sc_gpu::{DevicePool, DeviceSpec};
use sc_order::Ordering;
use sc_sparse::Csc;
use std::sync::Arc;

/// 2D ladder: cells-per-subdomain values whose dof counts `(c+1)²` roughly
/// double, capped at `max_dofs`.
pub fn ladder_2d(max_dofs: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut target = 100.0f64;
    loop {
        let c = (target.sqrt().round() as usize).saturating_sub(1).max(2);
        let dofs = (c + 1) * (c + 1);
        if dofs > max_dofs {
            break;
        }
        if out.last() != Some(&c) {
            out.push(c);
        }
        target *= 2.0;
    }
    out
}

/// 3D ladder: the paper's cube sizes `k³` (k nodes per edge), capped.
pub fn ladder_3d(max_dofs: usize) -> Vec<usize> {
    // paper: 64, 125, 216, 343, 729, 1331, 2744, 4913, 9261, 17576, 35937
    [4usize, 5, 6, 7, 9, 11, 14, 17, 21, 26, 33]
        .iter()
        .map(|&k| k - 1) // cells per subdomain
        .filter(|&c| (c + 1).pow(3) <= max_dofs)
        .collect()
}

/// The exact production preparation pipeline of one subdomain: its factor
/// `L` and `B̃ᵀ` with rows in factor order.
fn factor_pair(sd: &Subdomain) -> (Csc, Csc) {
    let f = sc_feti::SubdomainFactors::build(sd, Engine::Simplicial, Ordering::NestedDissection);
    (f.chol.factor_csc(), f.bt_perm)
}

/// One representative subdomain prepared for kernel benches: the factor `L`,
/// the row-permuted `B̃ᵀ`, and metadata.
pub struct KernelWorkload {
    /// Factor of the regularized subdomain matrix.
    pub l: Csc,
    /// `B̃ᵀ` with rows in factor space.
    pub bt_perm: Csc,
    /// Subdomain dof count.
    pub n: usize,
    /// Local multiplier count.
    pub m: usize,
}

impl KernelWorkload {
    /// Build the center subdomain of a small decomposition: 3×3 subdomains in
    /// 2D, 3×3×3 in 3D (the center one is floating and glued on every side,
    /// like a production interior subdomain).
    pub fn build(dim: usize, cells_per_sub: usize) -> Self {
        let (problem, center) = if dim == 2 {
            (
                HeatProblem::build_2d(cells_per_sub, (3, 3), Gluing::Redundant),
                4usize, // (1,1) of 3x3
            )
        } else {
            (
                HeatProblem::build_3d(cells_per_sub, (3, 3, 3), Gluing::Redundant),
                13usize, // (1,1,1) of 3x3x3
            )
        };
        let sd = &problem.subdomains[center];
        let (l, bt_perm) = factor_pair(sd);
        KernelWorkload {
            l,
            n: sd.n_dofs(),
            m: sd.n_lambda(),
            bt_perm,
        }
    }
}

/// A whole cluster prepared for the batched-assembly benches: **every**
/// subdomain of a regular decomposition factorized, with its `B̃ᵀ` in factor
/// row order — the input of `sc_core::AssemblySession::assemble`.
pub struct BatchWorkload {
    /// Per-subdomain `(L, B̃ᵀ_permuted)` pairs.
    pub factors: Vec<(Csc, Csc)>,
    /// Largest subdomain dof count in the batch (subdomains touching the
    /// Dirichlet boundary carry fewer dofs).
    pub n: usize,
}

impl BatchWorkload {
    /// Build a full decomposition: 3×3 subdomains in 2D (9 subdomains),
    /// 2×2×2 in 3D (8 subdomains) — enough to exercise every gluing shape
    /// (corner, edge, interior) in one batch.
    pub fn build(dim: usize, cells_per_sub: usize) -> Self {
        let problem = if dim == 2 {
            HeatProblem::build_2d(cells_per_sub, (3, 3), Gluing::Redundant)
        } else {
            HeatProblem::build_3d(cells_per_sub, (2, 2, 2), Gluing::Redundant)
        };
        let factors = problem.subdomains.iter().map(factor_pair).collect();
        let n = problem
            .subdomains
            .iter()
            .map(|sd| sd.n_dofs())
            .max()
            .unwrap_or(0);
        BatchWorkload { factors, n }
    }

    /// Build a **heterogeneous, size-skewed** cluster: one 2×2 decomposition
    /// per entry of `cells`, concatenated into a single batch. With cells
    /// like `[12, 4, 6, 3]` the subdomain dof counts spread well beyond the
    /// 4× ratio the scheduler benches need, and the heavy subdomains land at
    /// stride `cells.len()` — the adversarial layout for round-robin stream
    /// assignment.
    pub fn build_skewed(dim: usize, cells: &[usize]) -> Self {
        assert!(!cells.is_empty(), "skewed workload needs at least one size");
        let mut factors: Vec<(Csc, Csc)> = Vec::new();
        let problems: Vec<HeatProblem> = cells
            .iter()
            .map(|&c| {
                if dim == 2 {
                    HeatProblem::build_2d(c, (2, 2), Gluing::Redundant)
                } else {
                    HeatProblem::build_3d(c, (2, 2, 1), Gluing::Redundant)
                }
            })
            .collect();
        let nsub = problems[0].subdomains.len();
        // interleave across problems so consecutive batch indices alternate
        // between small and large subdomains
        for k in 0..nsub {
            for problem in &problems {
                factors.push(factor_pair(&problem.subdomains[k]));
            }
        }
        let n = factors.iter().map(|(l, _)| l.ncols()).max().unwrap_or(0);
        BatchWorkload { factors, n }
    }

    /// The **32-subdomain skewed cluster workload** of the multi-GPU
    /// sharding experiments: eight 2×2 decompositions with cell counts
    /// `[16, 12, 14, 10, 15, 11, 13, 9]`, interleaved. The per-subdomain
    /// cost spread is wide (≈ 15× between the 289-dof and 100-dof
    /// subdomains) but no single subdomain dominates the batch, so a
    /// well-partitioned 4-device pool can approach 4× the single-device
    /// throughput — the acceptance workload of `tests/cluster.rs`.
    pub fn build_cluster32() -> Self {
        let w = Self::build_skewed(2, &[16, 12, 14, 10, 15, 11, 13, 9]);
        debug_assert_eq!(w.n_subdomains(), 32);
        w
    }

    /// The **mixed-fit workload** of the hybrid explicit/implicit bench:
    /// twelve medium subdomains (52²-node grids) interleaved with four large
    /// ones (104²-node grids) whose temporary footprints far exceed the
    /// medium ones — so an arena sized between the two classes admits the
    /// medium subdomains explicitly and forces the large quarter of the
    /// batch to spill. The medium class is big enough that implicit applies
    /// carry real triangular-solve cost (explicit-GPU wins at moderate
    /// iteration counts) while the large class's explicit-CPU fail-over
    /// assembly is expensive (implicit wins) — the regime where the
    /// per-subdomain hybrid decision beats both uniform strategies.
    pub fn build_mixed_fit() -> Self {
        let w = Self::build_skewed(2, &[103, 51, 51, 51]);
        debug_assert_eq!(w.n_subdomains(), 16);
        w
    }

    /// The arena-constrained pool the mixed-fit experiments run on: two
    /// simulated A100s with four streams each, whose temporary arena (half
    /// of device memory) sits midway between the batch's temporary-footprint
    /// quartiles under `cfg` — so the top quarter of the batch cannot be
    /// admitted explicitly. Returns the pool and the arena capacity in
    /// bytes.
    pub fn mixed_fit_pool(&self, cfg: &ScConfig) -> (Arc<DevicePool>, usize) {
        let mut temps: Vec<usize> = (self.factors.iter())
            .map(|(l, bt)| {
                sc_core::temp_footprint::<f64>(l.ncols(), bt.ncols(), &cfg.resolve(true, l, bt))
            })
            .collect();
        temps.sort_unstable();
        let q = temps.len() - temps.len() / 4; // first index of the top quarter
        let arena = (temps[q - 1] + temps[q]) / 2;
        assert!(
            temps[q - 1] < arena && arena < temps[q],
            "the batch must straddle the arena: {temps:?}"
        );
        let spec = DeviceSpec {
            memory_bytes: 2 * arena,
            ..DeviceSpec::a100()
        };
        let pool = DevicePool::uniform(spec, 2, 4);
        assert_eq!(
            pool.max_arena_capacity(),
            arena,
            "pool arena sizing must match the planner's spill threshold"
        );
        (pool, arena)
    }

    /// Ratio of the largest to the smallest subdomain dof count.
    pub fn size_spread(&self) -> f64 {
        let min = self
            .factors
            .iter()
            .map(|(l, _)| l.ncols())
            .min()
            .unwrap_or(1);
        self.n as f64 / min.max(1) as f64
    }

    /// Number of subdomains in the batch.
    pub fn n_subdomains(&self) -> usize {
        self.factors.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladders_are_increasing_and_capped() {
        let l2 = ladder_2d(5000);
        assert!(!l2.is_empty());
        assert!(l2.windows(2).all(|w| w[0] < w[1]));
        assert!(l2.iter().all(|&c| (c + 1) * (c + 1) <= 5000));
        let l3 = ladder_3d(5000);
        assert!(l3.iter().all(|&c| (c + 1).pow(3) <= 5000));
        assert_eq!(l3.first(), Some(&3)); // 4³ = 64
    }

    #[test]
    fn batch_workload_covers_at_least_eight_subdomains() {
        for dim in [2usize, 3] {
            let w = BatchWorkload::build(dim, 3);
            assert!(
                w.n_subdomains() >= 8,
                "{dim}D batch must exercise >= 8 subdomains"
            );
            for (l, bt) in &w.factors {
                assert!(l.ncols() > 0 && l.ncols() <= w.n);
                assert_eq!(bt.nrows(), l.ncols());
                assert!(bt.ncols() > 0, "every subdomain is glued");
            }
        }
    }

    #[test]
    fn skewed_workload_is_large_and_skewed() {
        let w = BatchWorkload::build_skewed(2, &[12, 4, 6, 3]);
        assert!(w.n_subdomains() >= 16, "got {}", w.n_subdomains());
        assert!(
            w.size_spread() >= 4.0,
            "dof spread must be ≥ 4×, got {}",
            w.size_spread()
        );
    }

    #[test]
    fn cluster32_workload_shape() {
        let w = BatchWorkload::build_cluster32();
        assert_eq!(w.n_subdomains(), 32);
        assert!(w.size_spread() >= 2.0, "spread {}", w.size_spread());
        assert_eq!(w.n, 17 * 17, "largest subdomain is the 16-cell one");
    }

    #[test]
    fn batched_assembly_matches_sequential_on_workload() {
        use sc_core::{assemble_sc, AssemblySession, Backend, CpuExec, ScConfig};
        let w = BatchWorkload::build(2, 3);
        let cfg = ScConfig::optimized(false, false);
        let batch = AssemblySession::new(Backend::cpu(), cfg).assemble(&w.factors);
        for (i, (l, bt)) in w.factors.iter().enumerate() {
            let seq = assemble_sc(&mut CpuExec, l, bt, &cfg);
            assert_eq!(batch.f[i].to_dense(), seq, "subdomain {i}");
        }
    }

    #[test]
    fn kernel_workload_shapes_consistent() {
        let w = KernelWorkload::build(2, 4);
        assert_eq!(w.l.ncols(), w.n);
        assert_eq!(w.bt_perm.nrows(), w.n);
        assert_eq!(w.bt_perm.ncols(), w.m);
        assert!(w.m > 0, "center subdomain must be glued");
        // 3D variant
        let w3 = KernelWorkload::build(3, 2);
        assert_eq!(w3.n, 27);
        assert!(w3.m > w3.n / 2, "3D center subdomain has a large interface");
    }
}
