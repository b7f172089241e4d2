//! The local dual operator `F̃ᵢ = B̃ᵢ K⁺ᵢ B̃ᵢᵀ` (paper Eq. 9) in its implicit
//! and explicit forms.

use crate::regularize::regularize_fixing_node;
use sc_core::{assemble_sc, CpuExec, GpuExec, ScConfig};
use sc_dense::{Mat, Scalar};
use sc_factor::{Engine, SparseCholesky};
use sc_fem::Subdomain;
use sc_gpu::GpuKernels;
use sc_sparse::{binned_gather, BinnedPlan, Csc, CscOf};

/// Hoisted gather/scatter index map of `B̃ᵢᵀ`, flattened column-major:
/// column `j` of the gluing block owns `rows[offsets[j]..offsets[j+1]]` with
/// matching `coeffs` (the ±1 boundary signs, one entry per column on
/// redundant gluing). Precomputed **once** per subdomain so the implicit
/// dual-operator application resolves its boundary permutation by direct
/// indexed loops instead of re-walking the sparse matrix machinery every
/// PCPG iteration. Generic over the working precision: the mixed-precision
/// refinement keeps a demoted `f32` copy next to the `f64` one
/// ([`BoundaryMap`]).
pub struct BoundaryMapOf<S = f64> {
    /// Per-column offsets into `rows`/`coeffs` (`n_lambda + 1` entries).
    offsets: Vec<usize>,
    /// Factor-space row of each stored coefficient.
    rows: Vec<usize>,
    /// Coefficient values (the B̃ signs).
    coeffs: Vec<S>,
    /// Factor dimension (length of the dof-space work vector).
    n_rows: usize,
    /// Column-length binning of the gather side (see
    /// [`sc_sparse::binned`]): the per-multiplier dot products run in
    /// fixed-trip-count length classes instead of one irregular loop. The
    /// scatter side accumulates into shared dof slots and must stay
    /// column-ordered, so it does not use the plan.
    plan: BinnedPlan,
}

/// The `f64` boundary map (the historical default working precision).
pub type BoundaryMap = BoundaryMapOf<f64>;

impl<S: Scalar> BoundaryMapOf<S> {
    /// Extract the map from the row-permuted gluing block.
    pub fn of(bt_perm: &CscOf<S>) -> Self {
        let offsets = bt_perm.col_ptr().to_vec();
        let plan = BinnedPlan::from_offsets(&offsets);
        BoundaryMapOf {
            offsets,
            rows: bt_perm.row_idx().to_vec(),
            coeffs: bt_perm.values().to_vec(),
            n_rows: bt_perm.nrows(),
            plan,
        }
    }

    /// Local multiplier count.
    pub fn n_lambda(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Factor dimension.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Scatter `t = B̃ᵀ p̃` into the (pre-zeroed) dof-space vector `t` —
    /// bitwise identical to `bt_perm.spmv(1.0, p, 0.0, t)`.
    pub fn scatter(&self, p: &[S], t: &mut [S]) {
        debug_assert_eq!(p.len(), self.n_lambda());
        debug_assert_eq!(t.len(), self.n_rows);
        for (j, &pj) in p.iter().enumerate() {
            // sc-analyze: allow(float-eq)
            if pj != S::ZERO {
                for k in self.offsets[j]..self.offsets[j + 1] {
                    t[self.rows[k]] += pj * self.coeffs[k];
                }
            }
        }
    }

    /// Gather `out = B̃ t` from the dof-space vector — bitwise identical to
    /// `bt_perm.spmv_t(1.0, t, 0.0, out)`. Runs through the hoisted
    /// length-binned schedule ([`sc_sparse::binned_gather`]); per-multiplier
    /// accumulation order is unchanged, only the multiplier visit order.
    pub fn gather(&self, t: &[S], out: &mut [S]) {
        debug_assert_eq!(out.len(), self.n_lambda());
        debug_assert_eq!(t.len(), self.n_rows);
        binned_gather(&self.plan, &self.offsets, &self.rows, &self.coeffs, t, out);
    }
}

/// Per-subdomain factorization bundle: the regularized factor, `B̃ᵢᵀ`
/// pre-permuted into factor row space, and the hoisted boundary index map
/// the implicit application reuses across PCPG iterations.
pub struct SubdomainFactors {
    /// Factorized `K_reg`.
    pub chol: SparseCholesky,
    /// `B̃ᵢᵀ` with rows in the factor's permuted space.
    pub bt_perm: Csc,
    /// Gather/scatter map of `bt_perm`, hoisted out of the per-iteration
    /// apply path.
    pub map: BoundaryMap,
}

impl SubdomainFactors {
    /// Regularize and factorize one subdomain.
    pub fn build(sd: &Subdomain, engine: Engine, ordering: sc_order::Ordering) -> Self {
        let kreg = regularize_fixing_node(&sd.k, sd.kernel.as_deref(), sd.fixing_dof, None);
        let perm = ordering.compute(&kreg);
        let chol = SparseCholesky::factorize_with_perm(&kreg, perm, engine)
            .expect("regularized subdomain matrix must be SPD");
        let bt_perm = sd.bt.permute_rows(chol.perm());
        let map = BoundaryMap::of(&bt_perm);
        SubdomainFactors { chol, bt_perm, map }
    }

    /// `K⁺ v` in original dof space.
    pub fn solve_kplus(&self, v: &[f64]) -> Vec<f64> {
        self.chol.solve(v)
    }
}

/// Implicit application `q̃ = B̃ (L⁻ᵀ(L⁻¹(B̃ᵀ p̃)))` from a factor bundle
/// (paper Eq. 11) — shared by [`DualOperator::Implicit`] and the solver's
/// borrowing implicit path. Allocates its own work vector; inside an
/// iteration loop use [`apply_implicit_with`] to reuse one.
pub fn apply_implicit(factors: &SubdomainFactors, p: &[f64], out: &mut [f64]) {
    let mut scratch = Vec::new();
    apply_implicit_with(factors, p, out, &mut scratch);
}

/// [`apply_implicit`] with a caller-owned scratch vector (resized to the
/// factor dimension, contents overwritten): the boundary permutation lives
/// in the hoisted [`BoundaryMap`] and the dof-space work vector is reused,
/// so the per-iteration cost is the two triangular solves plus the indexed
/// gather/scatter — no allocation, no sparse-matrix traversal machinery.
pub fn apply_implicit_with(
    factors: &SubdomainFactors,
    p: &[f64],
    out: &mut [f64],
    scratch: &mut Vec<f64>,
) {
    let n = factors.map.n_rows();
    scratch.clear();
    scratch.resize(n, 0.0);
    factors.map.scatter(p, scratch);
    factors.chol.solve_fwd_permuted(scratch);
    factors.chol.solve_bwd_permuted(scratch);
    factors.map.gather(scratch, out);
}

/// A ready-to-apply local dual operator.
// Variant sizes differ by design: Implicit carries the whole factor bundle,
// the explicit variants just a dense matrix. Operators live in a short Vec
// (one per subdomain), so boxing would only add indirection.
#[allow(clippy::large_enum_variant)]
pub enum DualOperator {
    /// Implicit: `q̃ = B̃ (L⁻ᵀ(L⁻¹(B̃ᵀ p̃)))` — SpMV + two sparse solves per
    /// application (paper Eq. 11).
    Implicit(SubdomainFactors),
    /// Explicit: dense `F̃ᵢ`, applied with GEMV on the CPU (Eq. 12).
    ExplicitCpu(Mat),
    /// Explicit: dense `F̃ᵢ` resident on the simulated GPU; applications
    /// advance the stream timeline.
    ExplicitGpu {
        /// The assembled dense local dual operator.
        f: Mat,
        /// Kernel set of the stream the matrix lives on.
        kernels: GpuKernels,
    },
}

impl DualOperator {
    /// Build the implicit operator.
    pub fn implicit(factors: SubdomainFactors) -> Self {
        DualOperator::Implicit(factors)
    }

    /// Assemble the explicit operator on the CPU with the given config.
    pub fn explicit_cpu(factors: &SubdomainFactors, cfg: &ScConfig) -> Self {
        let l = factors.chol.factor_csc_ref();
        let f = assemble_sc(&mut CpuExec, l, &factors.bt_perm, cfg);
        DualOperator::ExplicitCpu(f)
    }

    /// Assemble the explicit operator on the simulated GPU (the factor is
    /// uploaded first, mirroring the original algorithm's H2D copy).
    pub fn explicit_gpu(factors: &SubdomainFactors, cfg: &ScConfig, kernels: GpuKernels) -> Self {
        let l = factors.chol.factor_csc_ref();
        kernels.upload_csc(l);
        kernels.upload_csc(&factors.bt_perm);
        let mut exec = GpuExec::new(&kernels);
        let f = assemble_sc(&mut exec, l, &factors.bt_perm, cfg);
        kernels.download_bytes(0); // result stays on device; placeholder sync
        DualOperator::ExplicitGpu { f, kernels }
    }

    /// Apply: `out = F̃ᵢ p̃` (local dual vector sizes).
    pub fn apply(&self, p: &[f64], out: &mut [f64]) {
        match self {
            DualOperator::Implicit(factors) => apply_implicit(factors, p, out),
            DualOperator::ExplicitCpu(f) => {
                sc_dense::gemv(1.0, f.as_ref(), p, 0.0, out);
            }
            DualOperator::ExplicitGpu { f, kernels } => {
                kernels.gemv(1.0, f.as_ref(), p, 0.0, out);
            }
        }
    }

    /// The dense matrix, when explicit.
    pub fn explicit_matrix(&self) -> Option<&Mat> {
        match self {
            DualOperator::Implicit(_) => None,
            DualOperator::ExplicitCpu(f) => Some(f),
            DualOperator::ExplicitGpu { f, .. } => Some(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FetiOptions;
    use sc_core::FactorStorage;
    use sc_fem::{Gluing, HeatProblem};
    use sc_gpu::{Device, DeviceSpec};
    use sc_order::Ordering;

    fn factors_for(sd: &sc_fem::Subdomain) -> SubdomainFactors {
        SubdomainFactors::build(
            sd,
            FetiOptions::default().engine,
            Ordering::NestedDissection,
        )
    }

    #[test]
    fn implicit_and_explicit_agree() {
        let prob = HeatProblem::build_2d(4, (2, 2), Gluing::Redundant);
        for sd in &prob.subdomains {
            let factors = factors_for(sd);
            let m = sd.n_lambda();
            let expl = DualOperator::explicit_cpu(&factors, &ScConfig::optimized(false, false));
            let impl_op = DualOperator::implicit(factors_for(sd));
            let p: Vec<f64> = (0..m).map(|i| ((i * 31 % 7) as f64) - 3.0).collect();
            let mut q1 = vec![0.0; m];
            let mut q2 = vec![0.0; m];
            impl_op.apply(&p, &mut q1);
            expl.apply(&p, &mut q2);
            for i in 0..m {
                assert!(
                    (q1[i] - q2[i]).abs() < 1e-8,
                    "implicit vs explicit mismatch at {i}: {} vs {}",
                    q1[i],
                    q2[i]
                );
            }
        }
    }

    #[test]
    fn gpu_explicit_matches_cpu_explicit() {
        let prob = HeatProblem::build_2d(3, (2, 1), Gluing::Redundant);
        let sd = &prob.subdomains[1];
        let factors = factors_for(sd);
        let cfg = ScConfig::optimized(true, false);
        let cpu = DualOperator::explicit_cpu(&factors, &cfg);
        let dev = Device::new(DeviceSpec::a100(), 1);
        let gpu = DualOperator::explicit_gpu(&factors, &cfg, GpuKernels::new(dev.stream(0)));
        assert_eq!(
            cpu.explicit_matrix().unwrap(),
            gpu.explicit_matrix().unwrap()
        );
        assert!(dev.synchronize() > 0.0);
    }

    #[test]
    fn hoisted_map_is_bitwise_the_sparse_formulation() {
        // the BoundaryMap fast path must reproduce the original
        // spmv → solve → spmv_t pipeline bit for bit, in 2D and 3D, for
        // every subdomain shape (corner, edge, interior)
        let problems = [
            HeatProblem::build_2d(4, (3, 2), Gluing::Redundant),
            HeatProblem::build_3d(2, (2, 2, 1), Gluing::Redundant),
        ];
        for prob in &problems {
            for sd in &prob.subdomains {
                let factors = factors_for(sd);
                let m = sd.n_lambda();
                let n = sd.n_dofs();
                let p: Vec<f64> = (0..m).map(|i| ((i * 17 % 13) as f64) - 6.0).collect();
                // reference: the pre-hoist formulation through the Csc
                let mut t = vec![0.0; n];
                factors.bt_perm.spmv(1.0, &p, 0.0, &mut t);
                factors.chol.solve_fwd_permuted(&mut t);
                factors.chol.solve_bwd_permuted(&mut t);
                let mut reference = vec![0.0; m];
                factors.bt_perm.spmv_t(1.0, &t, 0.0, &mut reference);

                let mut fast = vec![0.0; m];
                apply_implicit(&factors, &p, &mut fast);
                assert_eq!(fast, reference, "hoisted map diverged");

                // scratch reuse across applications must not leak state
                let mut scratch = vec![7.0; 3];
                let mut again = vec![42.0; m];
                apply_implicit_with(&factors, &p, &mut again, &mut scratch);
                assert_eq!(again, reference, "scratch reuse diverged");
                assert_eq!(scratch.len(), n);
            }
        }
    }

    #[test]
    fn explicit_matrix_is_symmetric_psd() {
        let prob = HeatProblem::build_2d(3, (2, 1), Gluing::Redundant);
        let sd = &prob.subdomains[0];
        let factors = factors_for(sd);
        let op = DualOperator::explicit_cpu(&factors, &ScConfig::original(FactorStorage::Sparse));
        let f = op.explicit_matrix().unwrap();
        let m = f.nrows();
        for i in 0..m {
            assert!(f[(i, i)] > 0.0, "diagonal must be positive");
            for j in 0..m {
                assert!((f[(i, j)] - f[(j, i)]).abs() < 1e-10);
            }
        }
    }
}
