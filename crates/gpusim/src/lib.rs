//! Event-driven GPU execution simulator — the workspace's substitute for the
//! CUDA/A100 stack of the paper (see ARCHITECTURE.md, "Data flow").
//!
//! The crate is a **pricing model plus a timeline to replay into**. It
//! computes nothing and blocks no thread: the numerics of every "GPU kernel"
//! run on the host, in the one kernel body of `sc_core::AssemblyPlan`'s
//! numeric phase, and what arrives here is the kernel's [`KernelCost`]. Submitting it advances a
//! simulated device timeline according to a calibrated cost model
//! (kernel-launch latency, FLOP throughput with an occupancy ramp, HBM and
//! PCIe bandwidth), so reported "GPU time" reproduces the *shape* of real
//! GPU behaviour: small kernels are launch-bound (the paper's footnote 1),
//! large ones are compute/bandwidth-bound, and many-small-blocks
//! configurations pay per-launch overhead (the left branch of the U-curve in
//! the paper's Figure 5).
//!
//! The device supports multiple [`Stream`]s (the paper submits with 16 CUDA
//! streams, one per OpenMP thread) with a bounded number of concurrently
//! executing kernels, plus the paper's §3.1 memory split in simulated time:
//! half of device memory is the temporary arena
//! ([`Device::arena_capacity`]), and [`ArenaSim`] tells a replay when a
//! subdomain's temporaries fit into it.

pub mod cost;
pub mod device;
pub mod kernels;
pub mod memory;
pub mod pool;
pub mod timeline;
pub mod trace;

pub use cost::KernelCost;
pub use device::DeviceSpec;
pub use kernels::GpuKernels;
pub use memory::ArenaSim;
pub use pool::DevicePool;
pub use timeline::{Device, SimSpan, Stream};
pub use trace::{SlotAccess, Trace, TraceEvent};
