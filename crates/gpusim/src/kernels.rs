//! The simulated cuBLAS / cuSPARSE kernel set.
//!
//! Each method computes the true result on the host (via `sc-dense` /
//! `sc-sparse`) and advances the owning stream's simulated timeline with the
//! matching [`KernelCost`]. The API mirrors the kernels the paper's assembler
//! calls: dense/sparse TRSM, SYRK, GEMM, sparse-dense GEMM, gathers for the
//! pruning compaction, and H2D/D2H transfers.

use crate::cost::KernelCost;
use crate::timeline::{SimSpan, Stream};
use sc_dense::{MatMutOf, MatRefOf, Scalar, Trans};
use sc_sparse::CscOf;

/// Kernel-set facade bound to one stream.
pub struct GpuKernels {
    stream: Stream,
    cost_only: bool,
}

impl GpuKernels {
    /// Bind the kernel set to a stream.
    pub fn new(stream: Stream) -> Self {
        GpuKernels {
            stream,
            cost_only: false,
        }
    }

    /// Cost-only mode: kernels advance the simulated timeline but skip the
    /// host-side numeric execution. The timeline is bit-identical to the
    /// computing mode (costs depend only on shapes/nnz, never on values), so
    /// large parameter sweeps can use this to keep bench wall-time bounded.
    /// Numeric correctness of every code path is covered by tests running in
    /// computing mode.
    pub fn new_cost_only(stream: Stream) -> Self {
        GpuKernels {
            stream,
            cost_only: true,
        }
    }

    /// True when this kernel set skips host-side computation.
    pub fn is_cost_only(&self) -> bool {
        self.cost_only
    }

    /// The underlying stream.
    pub fn stream(&self) -> &Stream {
        &self.stream
    }

    /// Simulated H2D upload of `bytes`.
    pub fn upload_bytes(&self, bytes: usize) -> SimSpan {
        self.stream.submit(&KernelCost::transfer(bytes as f64))
    }

    /// Simulated D2H download of `bytes`.
    pub fn download_bytes(&self, bytes: usize) -> SimSpan {
        self.stream.submit(&KernelCost::transfer(bytes as f64))
    }

    /// Simulated H2D upload of a CSC matrix (8-byte index + one value of
    /// the working precision per stored entry, see
    /// [`KernelCost::csc_transfer_of`] — the single home of the
    /// sparse-transfer cost model). Used by every explicit-GPU
    /// preprocessing path.
    pub fn upload_csc<S: Scalar>(&self, m: &CscOf<S>) -> SimSpan {
        self.stream
            .submit(&KernelCost::csc_transfer_of::<S>(m.nnz()))
    }

    /// Dense TRSM: solve `L X = B` in place (`L` lower triangular).
    pub fn trsm_dense<S: Scalar>(&self, l: MatRefOf<'_, S>, b: MatMutOf<'_, S>) -> SimSpan {
        let cost = KernelCost::trsm_dense_of::<S>(l.nrows(), b.ncols());
        if !self.cost_only {
            sc_dense::trsm_lower_left(l, b);
        }
        self.stream.submit(&cost)
    }

    /// Sparse TRSM: solve `L X = B` in place with a CSC factor.
    pub fn trsm_sparse<S: Scalar>(&self, l: &CscOf<S>, b: MatMutOf<'_, S>) -> SimSpan {
        let cost = KernelCost::trsm_sparse_of::<S>(l.nnz(), b.ncols());
        if !self.cost_only {
            sc_sparse::csc_lower_solve_mat(l, b);
        }
        self.stream.submit(&cost)
    }

    /// Dense GEMM `C = alpha op(A) op(B) + beta C`.
    #[allow(clippy::too_many_arguments)]
    pub fn gemm<S: Scalar>(
        &self,
        alpha: S,
        a: MatRefOf<'_, S>,
        ta: Trans,
        b: MatRefOf<'_, S>,
        tb: Trans,
        beta: S,
        c: MatMutOf<'_, S>,
    ) -> SimSpan {
        let (m, n) = (c.nrows(), c.ncols());
        let k = match ta {
            Trans::No => a.ncols(),
            Trans::Yes => a.nrows(),
        };
        let cost = KernelCost::gemm_of::<S>(m, n, k);
        if !self.cost_only {
            sc_dense::gemm(alpha, a, ta, b, tb, beta, c);
        }
        self.stream.submit(&cost)
    }

    /// Sparse-dense GEMM `C = alpha A B + beta C` (`A` CSC).
    pub fn spmm<S: Scalar>(
        &self,
        alpha: S,
        a: &CscOf<S>,
        b: MatRefOf<'_, S>,
        beta: S,
        mut c: MatMutOf<'_, S>,
    ) -> SimSpan {
        let cost = KernelCost::spmm_of::<S>(a.nnz(), b.ncols());
        if !self.cost_only {
            a.spmm(alpha, b, beta, &mut c);
        }
        self.stream.submit(&cost)
    }

    /// SYRK `C(lower) = alpha Aᵀ A + beta C`.
    pub fn syrk<S: Scalar>(
        &self,
        alpha: S,
        a: MatRefOf<'_, S>,
        beta: S,
        c: MatMutOf<'_, S>,
    ) -> SimSpan {
        let cost = KernelCost::syrk_of::<S>(a.ncols(), a.nrows());
        if !self.cost_only {
            sc_dense::syrk_t(alpha, a, beta, c);
        }
        self.stream.submit(&cost)
    }

    /// Gather `count` scattered `f64` elements (pruning compaction,
    /// permutations).
    pub fn gather(&self, count: usize) -> SimSpan {
        self.stream.submit(&KernelCost::gather(count))
    }

    /// Gather `count` scattered elements of precision `S`.
    pub fn gather_of<S: Scalar>(&self, count: usize) -> SimSpan {
        self.stream.submit(&KernelCost::gather_of::<S>(count))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;
    use crate::timeline::Device;
    use sc_dense::Mat;

    fn kernels() -> GpuKernels {
        let d = Device::new(DeviceSpec::a100(), 2);
        GpuKernels::new(d.stream(0))
    }

    fn lower(n: usize) -> Mat {
        Mat::from_fn(n, n, |i, j| {
            if i == j {
                2.0
            } else if i > j {
                -0.1
            } else {
                0.0
            }
        })
    }

    #[test]
    fn trsm_computes_and_advances_clock() {
        let k = kernels();
        let l = lower(8);
        let b = Mat::from_fn(8, 3, |i, j| (i + j) as f64);
        let mut x = b.clone();
        let span = k.trsm_dense(l.as_ref(), x.as_mut());
        assert!(span.duration() > 0.0);
        assert!(k.stream().time() >= span.end - 1e-18);
        // verify against host solve
        let mut xd = b.clone();
        sc_dense::trsm_lower_left(l.as_ref(), xd.as_mut());
        assert!(sc_dense::max_abs_diff(x.as_ref(), xd.as_ref()) < 1e-14);
    }

    #[test]
    fn syrk_and_gemm_results_match_host() {
        let k = kernels();
        let a = Mat::from_fn(6, 4, |i, j| (i * 3 + j) as f64 * 0.1);
        let mut c1 = Mat::zeros(4, 4);
        k.syrk(1.0, a.as_ref(), 0.0, c1.as_mut());
        let mut c2 = Mat::zeros(4, 4);
        sc_dense::syrk_t(1.0, a.as_ref(), 0.0, c2.as_mut());
        assert!(sc_dense::max_abs_diff(c1.as_ref(), c2.as_ref()) < 1e-14);

        let b = Mat::from_fn(4, 5, |i, j| (i + j) as f64);
        let mut g1 = Mat::zeros(6, 5);
        k.gemm(
            1.0,
            a.as_ref(),
            Trans::No,
            b.as_ref(),
            Trans::No,
            0.0,
            g1.as_mut(),
        );
        let mut g2 = Mat::zeros(6, 5);
        sc_dense::gemm(
            1.0,
            a.as_ref(),
            Trans::No,
            b.as_ref(),
            Trans::No,
            0.0,
            g2.as_mut(),
        );
        assert!(sc_dense::max_abs_diff(g1.as_ref(), g2.as_ref()) < 1e-14);
    }

    #[test]
    fn many_small_kernels_cost_more_than_one_big() {
        // the launch-overhead effect behind the paper's Figure 5 left branch
        let d = Device::new(DeviceSpec::a100(), 1);
        let k = GpuKernels::new(d.stream(0));
        let l = lower(64);
        let b = Mat::from_fn(64, 32, |i, j| (i + j) as f64);
        let mut x = b.clone();
        let one = k.trsm_dense(l.as_ref(), x.as_mut()).duration();
        let mut total_many = 0.0;
        for _ in 0..64 {
            let mut xs = Mat::from_fn(1, 32, |_, j| j as f64);
            let ls = lower(1);
            total_many += k.trsm_dense(ls.as_ref(), xs.as_mut()).duration();
        }
        assert!(
            total_many > 5.0 * one,
            "launch overhead should dominate: {total_many} vs {one}"
        );
    }

    #[test]
    fn transfers_advance_clock_by_bandwidth() {
        let d = Device::new(DeviceSpec::a100(), 1);
        let k = GpuKernels::new(d.stream(0));
        let span = k.upload_bytes(250_000_000); // 250 MB over 25 GB/s = 10 ms
        assert!(span.duration() > 9e-3 && span.duration() < 12e-3);
    }
}
