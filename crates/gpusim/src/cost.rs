//! Kernel cost descriptors and cost builders for the BLAS/sparse-BLAS kernel
//! set the Schur assembler uses.
//!
//! Every builder that moves matrix values is an `_of::<S>` function pricing
//! bytes at `S::BYTES` per element (`f32` halves value traffic; index
//! traffic stays 8 bytes).

use sc_dense::Scalar;

/// Bytes of one stored index (row/column ids are always `usize`-sized on
/// device; the cost model charges 8 regardless of value precision).
const INDEX_BYTES: f64 = 8.0;

/// Work performed by one kernel launch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KernelCost {
    /// Kernel family this cost describes (diagnostics: names the kernel in
    /// validation errors raised at submission).
    pub label: &'static str,
    /// Floating-point operations.
    pub flops: f64,
    /// Bytes moved (device memory traffic, or transfer size for copies).
    pub bytes: f64,
    /// True for host<->device copies (charged against PCIe bandwidth).
    pub over_pcie: bool,
}

impl KernelCost {
    /// A compute kernel with the given FLOPs and device-memory traffic.
    pub fn compute(flops: f64, bytes: f64) -> Self {
        KernelCost {
            label: "compute",
            flops,
            bytes,
            over_pcie: false,
        }
    }

    /// A host<->device transfer of `bytes`.
    pub fn transfer(bytes: f64) -> Self {
        KernelCost {
            label: "transfer",
            flops: 0.0,
            bytes,
            over_pcie: true,
        }
    }

    /// H2D transfer of a CSC matrix with `nnz` stored entries in precision
    /// `S`: 8-byte index + one `S` value per entry (pointer array is noise).
    /// The single home of the sparse-transfer cost model — `GpuKernels` and
    /// the scheduled batch driver's cost recorder both use it.
    pub fn csc_transfer_of<S: Scalar>(nnz: usize) -> Self {
        KernelCost {
            label: "upload_csc",
            ..KernelCost::transfer((INDEX_BYTES + S::BYTES as f64) * nnz as f64)
        }
    }

    /// H2D transfer of an `f64` CSC matrix (16 bytes per stored entry) — the
    /// one unsuffixed builder, kept for the byte ledger of `benchmark/`.
    pub fn csc_transfer(nnz: usize) -> Self {
        Self::csc_transfer_of::<f64>(nnz)
    }

    /// Dense TRSM `L X = B` in precision `S`: factor `n × n`, RHS `n × m`.
    pub fn trsm_dense_of<S: Scalar>(n: usize, m: usize) -> Self {
        let flops = n as f64 * n as f64 * m as f64; // n²m (triangular)
        let bytes = S::BYTES as f64 * (0.5 * n as f64 * n as f64 + 2.0 * n as f64 * m as f64);
        KernelCost {
            label: "trsm_dense",
            ..KernelCost::compute(flops, bytes)
        }
    }

    /// Sparse TRSM in precision `S` with a CSC/CSR factor of `nnz` non-zeros
    /// and `m` RHS columns: every factor entry touches every RHS column once.
    ///
    /// The factor re-read per column block of 32 is the device model and
    /// stays as it is; it does not describe the host kernel
    /// (`sc_sparse::csc_lower_solve_mat`), which reads the factor once per
    /// group of 8 columns.
    pub fn trsm_sparse_of<S: Scalar>(nnz: usize, m: usize) -> Self {
        let flops = 2.0 * nnz as f64 * m as f64;
        // sparse kernels are memory-heavier per flop (index traffic, poor
        // locality): charge the factor read per column block of 32
        let col_blocks = (m as f64 / 32.0).ceil().max(1.0);
        let bytes = S::BYTES as f64 * (2.0 * nnz as f64) * col_blocks
            + (INDEX_BYTES + S::BYTES as f64) * nnz as f64;
        KernelCost {
            label: "trsm_sparse",
            ..KernelCost::compute(flops, bytes)
        }
    }

    /// SYRK `C += Aᵀ A` in precision `S` with `A` `k × n` (output `n × n`,
    /// lower triangle).
    pub fn syrk_of<S: Scalar>(n: usize, k: usize) -> Self {
        let flops = n as f64 * n as f64 * k as f64; // n²k (half of 2n²k)
        let bytes = S::BYTES as f64 * (n as f64 * k as f64 + 0.5 * n as f64 * n as f64);
        KernelCost {
            label: "syrk",
            ..KernelCost::compute(flops, bytes)
        }
    }

    /// GEMM `C += A B` in precision `S` with `A` `m × k`, `B` `k × n`.
    pub fn gemm_of<S: Scalar>(m: usize, n: usize, k: usize) -> Self {
        let flops = 2.0 * m as f64 * n as f64 * k as f64;
        let bytes =
            S::BYTES as f64 * (m as f64 * k as f64 + k as f64 * n as f64 + m as f64 * n as f64);
        KernelCost {
            label: "gemm",
            ..KernelCost::compute(flops, bytes)
        }
    }

    /// Sparse-times-dense GEMM in precision `S` with `nnz` stored entries
    /// against `n` columns.
    pub fn spmm_of<S: Scalar>(nnz: usize, n: usize) -> Self {
        let flops = 2.0 * nnz as f64 * n as f64;
        let bytes = (INDEX_BYTES + S::BYTES as f64) * nnz as f64
            + S::BYTES as f64 * nnz as f64 * (n as f64 / 16.0).ceil();
        KernelCost {
            label: "spmm",
            ..KernelCost::compute(flops, bytes)
        }
    }

    /// Gather/scatter of `count` elements in precision `S` (pruning
    /// compaction, permutation): one index read + one value move per element.
    pub fn gather_of<S: Scalar>(count: usize) -> Self {
        KernelCost {
            label: "gather",
            ..KernelCost::compute(0.0, (INDEX_BYTES + S::BYTES as f64) * count as f64)
        }
    }

    /// Symmetric matrix-vector product `y = A x` in precision `S` with `A`
    /// of order `m`, stored as its packed lower triangle (`m(m+1)/2`
    /// entries, each read once) — one application of an explicit local dual
    /// operator.
    pub fn symv_of<S: Scalar>(m: usize) -> Self {
        let flops = 2.0 * m as f64 * m as f64;
        let bytes = S::BYTES as f64 * (m * (m + 1) / 2) as f64;
        KernelCost {
            label: "symv",
            ..KernelCost::compute(flops, bytes)
        }
    }

    /// `Err` with a descriptive message when the cost carries NaN, infinite,
    /// or negative work — checked by [`Device::submit`] so a malformed cost
    /// fails loudly at the submission site instead of as an opaque
    /// `partial_cmp` panic deep inside the timeline's slot heap.
    ///
    /// [`Device::submit`]: crate::timeline::Device::submit
    pub fn validate(&self) -> Result<(), String> {
        if !(self.flops.is_finite() && self.flops >= 0.0) {
            return Err(format!(
                "kernel '{}': invalid flops {} (must be finite and >= 0)",
                self.label, self.flops
            ));
        }
        if !(self.bytes.is_finite() && self.bytes >= 0.0) {
            return Err(format!(
                "kernel '{}': invalid bytes {} (must be finite and >= 0)",
                self.label, self.bytes
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trsm_scales_quadratically_in_n() {
        let a = KernelCost::trsm_dense_of::<f64>(100, 10);
        let b = KernelCost::trsm_dense_of::<f64>(200, 10);
        assert!((b.flops / a.flops - 4.0).abs() < 1e-12);
    }

    #[test]
    fn transfer_has_no_flops() {
        let t = KernelCost::transfer(1024.0);
        assert_eq!(t.flops, 0.0);
        assert!(t.over_pcie);
    }

    #[test]
    fn csc_transfer_charges_16_bytes_per_entry() {
        let t = KernelCost::csc_transfer(100);
        assert_eq!(t, KernelCost::csc_transfer_of::<f64>(100));
        assert_eq!(t.bytes, 1600.0);
        assert!(t.over_pcie);
        assert_eq!(t.label, "upload_csc");
    }

    #[test]
    fn gemm_flops_standard() {
        let c = KernelCost::gemm_of::<f64>(3, 4, 5);
        assert_eq!(c.flops, 120.0);
    }

    #[test]
    fn syrk_half_of_gemm() {
        let s = KernelCost::syrk_of::<f64>(10, 20);
        let g = KernelCost::gemm_of::<f64>(10, 10, 20);
        assert!((s.flops * 2.0 - g.flops).abs() < 1e-12);
    }

    #[test]
    fn f32_value_bytes_are_exactly_half_of_f64() {
        // pure value traffic: no index bytes in the model → exact halving
        for (a, b) in [
            (
                KernelCost::trsm_dense_of::<f32>(64, 8),
                KernelCost::trsm_dense_of::<f64>(64, 8),
            ),
            (
                KernelCost::syrk_of::<f32>(16, 64),
                KernelCost::syrk_of::<f64>(16, 64),
            ),
            (
                KernelCost::gemm_of::<f32>(8, 8, 8),
                KernelCost::gemm_of::<f64>(8, 8, 8),
            ),
            (
                KernelCost::symv_of::<f32>(33),
                KernelCost::symv_of::<f64>(33),
            ),
        ] {
            assert_eq!(a.bytes * 2.0, b.bytes, "{}", a.label);
            assert_eq!(a.flops, b.flops, "{} flops are width-independent", a.label);
        }
    }

    #[test]
    fn f32_csc_transfer_keeps_full_index_bytes() {
        // 8-byte index + 4-byte value = 12 B/entry, vs 16 B/entry for f64
        let t32 = KernelCost::csc_transfer_of::<f32>(100);
        let t64 = KernelCost::csc_transfer_of::<f64>(100);
        assert_eq!(t32.bytes, 1200.0);
        assert_eq!(t64.bytes, 1600.0);
        // the value portion alone halves exactly
        let idx = 8.0 * 100.0;
        assert_eq!((t32.bytes - idx) * 2.0, t64.bytes - idx);
    }

    #[test]
    fn validate_rejects_nan_and_negative() {
        assert!(KernelCost::compute(1.0, 1.0).validate().is_ok());
        assert!(KernelCost::compute(0.0, 0.0).validate().is_ok());
        let nan = KernelCost::compute(f64::NAN, 1.0);
        let err = nan.validate().unwrap_err();
        assert!(err.contains("compute"), "error must name the kernel: {err}");
        assert!(KernelCost::compute(1.0, f64::NEG_INFINITY)
            .validate()
            .is_err());
        assert!(KernelCost::compute(-1.0, 0.0).validate().is_err());
        let mut t = KernelCost::trsm_dense_of::<f64>(4, 4);
        t.bytes = f64::NAN;
        assert!(t.validate().unwrap_err().contains("trsm_dense"));
    }
}
