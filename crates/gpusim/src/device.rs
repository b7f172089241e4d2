//! Device capability model.

/// Static description of a simulated accelerator.
#[derive(Clone, Debug)]
pub struct DeviceSpec {
    /// Marketing name (diagnostics only).
    pub name: &'static str,
    /// Peak FP64 throughput in GFLOP/s.
    pub fp64_gflops: f64,
    /// Device memory bandwidth in GB/s.
    pub mem_bandwidth_gbps: f64,
    /// Host-device interconnect bandwidth in GB/s.
    pub pcie_bandwidth_gbps: f64,
    /// Fixed per-kernel launch latency in microseconds.
    pub kernel_launch_us: f64,
    /// Number of kernels that can execute concurrently (across streams).
    pub concurrency: usize,
    /// FLOP count at which a kernel reaches 50% of peak throughput (the
    /// occupancy ramp: tiny kernels cannot fill the device).
    pub occupancy_half_flops: f64,
    /// Device memory capacity in bytes (backs the §3.1 memory pools).
    pub memory_bytes: usize,
}

impl DeviceSpec {
    /// NVIDIA A100-SXM4-40GB, the GPU of the Karolina node used in the paper
    /// (§4). FP64 without tensor cores; HBM2 at 1.55 TB/s; PCIe gen4.
    pub fn a100() -> Self {
        DeviceSpec {
            name: "sim-A100-40GB",
            fp64_gflops: 9_700.0,
            mem_bandwidth_gbps: 1_555.0,
            pcie_bandwidth_gbps: 25.0,
            kernel_launch_us: 4.0,
            concurrency: 8,
            occupancy_half_flops: 3.0e7,
            memory_bytes: 40 * (1usize << 30),
        }
    }

    /// NVIDIA H100-SXM5-80GB — the successor card, for heterogeneous
    /// device-pool experiments: ~3.5× the FP64 throughput and ~2× the
    /// interconnect and HBM bandwidth of the A100, double the memory.
    pub fn h100() -> Self {
        DeviceSpec {
            name: "sim-H100-80GB",
            fp64_gflops: 33_500.0,
            mem_bandwidth_gbps: 3_350.0,
            pcie_bandwidth_gbps: 50.0,
            kernel_launch_us: 4.0,
            concurrency: 16,
            // a bigger device needs more in-flight work to fill
            occupancy_half_flops: 6.0e7,
            memory_bytes: 80 * (1usize << 30),
        }
    }

    /// The **host CPU** expressed in the same duration-model vocabulary as
    /// the accelerators, so the hybrid planner can price CPU-side work
    /// (explicit-CPU assembly, implicit applies) against GPU placements with
    /// one cost function. Multicore FP64 throughput of a server-class CPU,
    /// DRAM bandwidth, no interconnect penalty (transfers are memcpys), and
    /// a near-zero "launch" (function call) overhead.
    pub fn host() -> Self {
        DeviceSpec {
            name: "sim-host-cpu",
            fp64_gflops: 250.0,
            mem_bandwidth_gbps: 100.0,
            pcie_bandwidth_gbps: 100.0,
            kernel_launch_us: 0.05,
            concurrency: 32,
            // CPUs have no occupancy ramp to speak of
            occupancy_half_flops: 1.0e4,
            memory_bytes: 256 * (1usize << 30),
        }
    }

    /// A deliberately small test device: tiny memory and high launch
    /// overhead, to exercise pool-blocking and launch-bound paths in tests.
    pub fn tiny_test_device() -> Self {
        DeviceSpec {
            name: "sim-tiny",
            fp64_gflops: 10.0,
            mem_bandwidth_gbps: 10.0,
            pcie_bandwidth_gbps: 1.0,
            kernel_launch_us: 100.0,
            concurrency: 2,
            occupancy_half_flops: 1.0e6,
            memory_bytes: 1 << 20,
        }
    }

    /// Simulated wall-clock duration of a kernel, in seconds.
    pub fn kernel_seconds(&self, cost: &crate::cost::KernelCost) -> f64 {
        let launch = self.kernel_launch_us * 1e-6;
        // occupancy ramp: effective throughput grows with the kernel size
        let util = cost.flops / (cost.flops + self.occupancy_half_flops);
        let compute = if cost.flops > 0.0 {
            cost.flops / (self.fp64_gflops * 1e9 * util.max(1e-12))
        } else {
            0.0
        };
        let mem_bw = if cost.over_pcie {
            self.pcie_bandwidth_gbps
        } else {
            self.mem_bandwidth_gbps
        };
        let memory = cost.bytes / (mem_bw * 1e9);
        let total = launch + compute.max(memory);
        debug_assert!(
            total.is_finite() && total >= 0.0,
            "kernel '{}' produced a non-finite or negative duration {total} \
             (flops={}, bytes={})",
            cost.label,
            cost.flops,
            cost.bytes
        );
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::KernelCost;

    #[test]
    fn tiny_kernels_are_launch_bound() {
        let spec = DeviceSpec::a100();
        let t = spec.kernel_seconds(&KernelCost::compute(1_000.0, 8_000.0));
        // launch is 4us; compute of 1k flops is negligible even derated
        assert!(t < 10e-6, "expected launch-bound, got {t}");
        assert!(t >= 4e-6);
    }

    #[test]
    fn large_kernels_approach_peak() {
        let spec = DeviceSpec::a100();
        let flops = 1e12;
        let t = spec.kernel_seconds(&KernelCost::compute(flops, 8.0 * 1e9));
        let ideal = flops / (spec.fp64_gflops * 1e9);
        assert!(t < 1.2 * ideal, "t={t}, ideal={ideal}");
    }

    #[test]
    fn transfers_use_pcie() {
        let spec = DeviceSpec::a100();
        let bytes = 1e9;
        let t = spec.kernel_seconds(&KernelCost::transfer(bytes));
        assert!(t > bytes / (spec.pcie_bandwidth_gbps * 1e9) * 0.99);
    }

    #[test]
    fn bandwidth_bound_kernels_charged_by_bytes() {
        let spec = DeviceSpec::a100();
        // 1 flop per 1000 bytes: memory dominates
        let c = KernelCost::compute(1e6, 1e9);
        let t = spec.kernel_seconds(&c);
        assert!(t > 1e9 / (spec.mem_bandwidth_gbps * 1e9) * 0.99);
    }
}
