//! A pool of independent simulated devices — the node-level analog of the
//! paper's production setting (8 GPUs per Karolina node).
//!
//! Each member [`Device`] owns its own streams, timeline, and temporary-arena
//! capacity; the pool itself adds no shared state beyond
//! the roster, mirroring real multi-GPU nodes where cards only interact
//! through the host. Heterogeneous mixes (e.g. an A100 next to a tiny test
//! card) are allowed — the cluster planner in `sc_core::schedule` uses each
//! device's own spec and arena capacity when partitioning work.

use crate::device::DeviceSpec;
use crate::timeline::Device;
use std::sync::Arc;

/// An ordered roster of independent simulated devices.
pub struct DevicePool {
    devices: Vec<Arc<Device>>,
}

impl DevicePool {
    /// `n_devices` identical devices, `n_streams` streams each.
    pub fn uniform(spec: DeviceSpec, n_devices: usize, n_streams: usize) -> Arc<Self> {
        Arc::new(DevicePool {
            devices: (0..n_devices)
                .map(|_| Device::new(spec.clone(), n_streams))
                .collect(),
        })
    }

    /// One device per spec (heterogeneous mixes), `n_streams` streams each.
    pub fn heterogeneous(specs: &[DeviceSpec], n_streams: usize) -> Arc<Self> {
        Arc::new(DevicePool {
            devices: specs
                .iter()
                .map(|s| Device::new(s.clone(), n_streams))
                .collect(),
        })
    }

    /// Adopt existing devices (e.g. per-device stream counts).
    pub fn from_devices(devices: Vec<Arc<Device>>) -> Arc<Self> {
        Arc::new(DevicePool { devices })
    }

    /// Number of devices in the pool.
    pub fn n_devices(&self) -> usize {
        self.devices.len()
    }

    /// True when the pool holds no devices.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Device `i`.
    pub fn device(&self, i: usize) -> &Arc<Device> {
        &self.devices[i]
    }

    /// All devices, in pool order.
    pub fn devices(&self) -> &[Arc<Device>] {
        &self.devices
    }

    /// Per-device temporary-arena capacities in bytes, pool order — the
    /// admissibility inputs of the cluster and hybrid planners.
    pub fn arena_capacities(&self) -> Vec<usize> {
        self.devices.iter().map(|d| d.arena_capacity()).collect()
    }

    /// Largest temporary-arena capacity among devices that can actually run
    /// work (`n_streams > 0`); 0 for an empty or fully drained pool. A
    /// subdomain whose peak temporaries exceed this can never be assembled
    /// explicitly on this pool — the hybrid planner's spill threshold.
    pub fn max_arena_capacity(&self) -> usize {
        self.devices
            .iter()
            .filter(|d| d.n_streams() > 0)
            .map(|d| d.arena_capacity())
            .max()
            .unwrap_or(0)
    }

    /// Total stream count across the pool (parallel capacity of the node).
    pub fn total_streams(&self) -> usize {
        self.devices.iter().map(|d| d.n_streams()).sum()
    }

    /// Pool-wide synchronize: the latest simulated completion time across
    /// all devices (the cluster makespan when every device started at 0).
    pub fn synchronize_all(&self) -> f64 {
        self.devices
            .iter()
            .map(|d| d.synchronize())
            .fold(0.0, f64::max)
    }

    /// Total busy kernel-seconds across all devices.
    pub fn busy_seconds_all(&self) -> f64 {
        self.devices.iter().map(|d| d.busy_seconds()).sum()
    }

    /// Reset every device's timeline (new experiment).
    pub fn reset_all(&self) {
        for d in &self.devices {
            d.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::KernelCost;

    #[test]
    fn devices_are_independent() {
        let pool = DevicePool::uniform(DeviceSpec::tiny_test_device(), 3, 2);
        assert_eq!(pool.n_devices(), 3);
        let c = KernelCost::compute(1e6, 8e3);
        pool.device(0).stream(0).submit(&c);
        pool.device(0).stream(0).submit(&c);
        pool.device(1).stream(1).submit(&c);
        assert!(pool.device(0).synchronize() > pool.device(1).synchronize());
        assert_eq!(pool.device(2).synchronize(), 0.0, "untouched device");
        assert_eq!(pool.synchronize_all(), pool.device(0).synchronize());
        assert!(pool.busy_seconds_all() > 0.0);
        pool.reset_all();
        assert_eq!(pool.synchronize_all(), 0.0);
    }

    #[test]
    fn heterogeneous_pool_keeps_per_device_specs() {
        let pool =
            DevicePool::heterogeneous(&[DeviceSpec::a100(), DeviceSpec::tiny_test_device()], 4);
        assert_eq!(pool.device(0).spec().name, "sim-A100-40GB");
        assert_eq!(pool.device(1).spec().name, "sim-tiny");
        // arena capacities differ with device memory
        assert!(pool.device(0).arena_capacity() > pool.device(1).arena_capacity());
    }

    #[test]
    fn registry_resolves_known_names() {
        for name in DeviceSpec::registry() {
            assert!(DeviceSpec::from_name(name).is_some(), "{name} must resolve");
        }
        assert!(DeviceSpec::from_name("mi300").is_none());
        assert!(
            DeviceSpec::from_name("h100").unwrap().fp64_gflops > DeviceSpec::a100().fp64_gflops
        );
        // the host entry prices CPU-side work: far below accelerator peak
        let host = DeviceSpec::from_name("host").unwrap();
        assert!(host.fp64_gflops < DeviceSpec::a100().fp64_gflops / 10.0);
    }

    #[test]
    fn capacity_queries_report_usable_arenas() {
        let pool = DevicePool::from_devices(vec![
            Device::new(DeviceSpec::a100(), 0), // drained: unusable
            Device::new(DeviceSpec::tiny_test_device(), 2),
        ]);
        let caps = pool.arena_capacities();
        assert_eq!(caps.len(), 2);
        assert_eq!(caps[0], DeviceSpec::a100().memory_bytes / 2);
        // the drained A100's big arena must not count as usable
        assert_eq!(
            pool.max_arena_capacity(),
            DeviceSpec::tiny_test_device().memory_bytes / 2
        );
        assert_eq!(pool.total_streams(), 2);
        let empty = DevicePool::from_devices(Vec::new());
        assert_eq!(empty.max_arena_capacity(), 0);
        assert_eq!(empty.total_streams(), 0);
    }
}
