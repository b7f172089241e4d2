//! The launch facade of one simulated stream.
//!
//! [`GpuKernels`] binds a [`Stream`] to a mode (computing or cost-only) and
//! prices the host↔device transfers. It computes nothing: the six assembly
//! kernels — their numerics *and* their [`KernelCost`]s — are written once,
//! in `sc_core::AssemblyPlan`, and the `GpuExec` backend submits the plan's
//! launch list to [`GpuKernels::stream`] in order.

use crate::cost::KernelCost;
use crate::timeline::{SimSpan, Stream};
use sc_dense::Scalar;
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;
    use crate::timeline::Device;

    #[test]
    fn many_small_kernels_cost_more_than_one_big() {
        // the launch-overhead effect behind the paper's Figure 5 left branch
        let d = Device::new(DeviceSpec::a100(), 1);
        let k = GpuKernels::new(d.stream(0));
        let trsm = |n, m| {
            let cost = KernelCost::trsm_dense_of::<f64>(n, m);
            k.stream().submit(&cost).duration()
        };
        let one = trsm(64, 32);
        let total_many: f64 = (0..64).map(|_| trsm(1, 32)).sum();
        assert!(
            total_many > 5.0 * one,
            "launch overhead should dominate: {total_many} vs {one}"
        );
    }

    #[test]
    fn transfers_advance_clock_by_bandwidth() {
        let d = Device::new(DeviceSpec::a100(), 1);
        let k = GpuKernels::new(d.stream(0));
        let span = k.download_bytes(250_000_000); // 250 MB over 25 GB/s = 10 ms
        assert!(span.duration() > 9e-3 && span.duration() < 12e-3);
    }
}
