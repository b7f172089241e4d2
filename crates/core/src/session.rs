//! The unified assembly surface: a [`Backend`] value names the execution
//! target, an [`AssemblySession`] binds it to an assembly configuration,
//! and [`AssemblySession::assemble`] drives a slice of [`BatchEntry`]s
//! through the paper's record → plan → replay pipeline, reporting through one
//! nested [`AssemblyReport`] regardless of target. The report states each
//! placement once: one [`SubdomainTiming`] row per subdomain holds its host
//! wall time and, on a device target, its simulated [`ScheduledSpan`]; the
//! [`DeviceReport`] sections keep only their roll-ups.
//!
//! ```
//! use sc_core::{AssemblySession, Backend, ScConfig};
//! # use sc_factor::SparseCholesky;
//! # use sc_sparse::Coo;
//! # let mut c = Coo::new(3, 3);
//! # for i in 0..3 { c.push(i, i, 4.0); }
//! # c.push(1, 0, -1.0); c.push(0, 1, -1.0);
//! # c.push(2, 1, -1.0); c.push(1, 2, -1.0);
//! # let k = c.to_csc();
//! # let chol = SparseCholesky::factorize(&k, Default::default()).unwrap();
//! # let l = chol.factor_csc();
//! # let mut b = Coo::new(3, 2);
//! # b.push(0, 0, 1.0); b.push(2, 1, -1.0);
//! # let bt = b.to_csc().permute_rows(chol.perm());
//! # let items = vec![(l, bt)];
//! let session = AssemblySession::new(Backend::cpu(), ScConfig::optimized(false, false));
//! let result = session.assemble(&items);
//! assert_eq!(result.f.len(), items.len());
//! assert!(result.report.devices.is_empty(), "CPU runs touch no device");
//! ```
//!
//! Swapping the target is a one-line change — the numerics are bitwise
//! identical across every backend (the record/replay execution computes on
//! the host either way):
//!
//! ```no_run
//! # use sc_core::{AssemblySession, Backend, ScConfig};
//! # use sc_gpu::{Device, DevicePool, DeviceSpec};
//! # let items: Vec<(sc_sparse::Csc, sc_sparse::Csc)> = Vec::new();
//! let gpu = AssemblySession::new(
//!     Backend::gpu(Device::new(DeviceSpec::a100(), 4)),
//!     ScConfig::Auto,
//! );
//! let cluster = AssemblySession::new(
//!     Backend::cluster(DevicePool::uniform(DeviceSpec::a100(), 4, 4)),
//!     ScConfig::Auto,
//! );
//! assert_eq!(gpu.assemble(&items).f, cluster.assemble(&items).f);
//! ```

use crate::assemble::ScConfig;
use crate::batch::{batch_cpu, batch_devices};
use crate::hybrid::HybridPlan;
use crate::schedule::ScheduleOptions;
use crate::source::BatchEntry;
use sc_dense::SymPackedOf;
use sc_gpu::{Device, DevicePool, SimSpan};
use std::sync::Arc;

/// Working precision of a FETI solve, set with
/// `sc_feti::FetiSolverBuilder::precision`.
///
/// The assembly does not depend on it: every `F̃ᵢ` is assembled in `f64`.
/// [`Precision::F64`] solves with full-`f64` PCPG.
/// [`Precision::F32Refined`] wraps inner `f32` PCPG solves, which apply
/// demoted copies of the operators, in an `f64` iterative-refinement loop
/// whose residual applies the `f64` operators. Both stop at the solver's
/// own tolerance (`sc_feti::FetiOptions::tol`), so the variants carry no
/// settings.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Precision {
    /// Full `f64` throughout.
    #[default]
    F64,
    /// `f32` inner solves with `f64` iterative refinement on top.
    F32Refined,
}

impl Precision {
    /// The same value as [`Precision::F32Refined`], for callers that name
    /// it as a function.
    pub fn f32_refined() -> Self {
        Precision::F32Refined
    }
}

/// The execution target of a [`Backend`]: the host, or a device pool under
/// one set of scheduling options (one GPU is a pool of one).
#[derive(Clone)]
enum Target {
    Cpu,
    Devices {
        pool: Arc<DevicePool>,
        schedule: ScheduleOptions,
    },
}

impl std::fmt::Debug for Target {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Target::Cpu => f.write_str("Cpu"),
            Target::Devices { pool, schedule } => f
                .debug_struct("Devices")
                .field("n_devices", &pool.n_devices())
                .field("schedule", schedule)
                .finish(),
        }
    }
}

/// An execution target: what an [`AssemblySession`] (and the FETI solver
/// builder) runs on — a *value*, so the same pipeline retargets between the
/// host, one simulated GPU and a device pool without changing call sites.
///
/// The target is the host or a device pool; one GPU is a pool of one.
/// - **Host**: one rayon task per subdomain (cap the workers with
///   `rayon::with_max_threads` around the call).
/// - **Devices**: one driver over the device list — record every subdomain
///   once, plan the whole batch once with
///   [`plan_topology_by`](crate::plan_topology_by) over the pool's
///   [`Topology`](crate::Topology) (cost-aware LPT across devices under
///   per-device arena admissibility, then the §4.4 stream assignment per
///   [`ScheduleOptions::policy`]; one pricing at both levels: the recorded
///   kernels under each device's own duration model), replay each device
///   from the lane assignment the plan holds. A subdomain that fits no
///   device arena **panics**; the hybrid planner
///   ([`plan_hybrid`](crate::plan_hybrid)) is what keeps such subdomains
///   off the devices.
#[derive(Clone, Debug)]
pub struct Backend {
    target: Target,
}

impl Backend {
    /// Host execution on all available worker threads.
    pub fn cpu() -> Self {
        Backend {
            target: Target::Cpu,
        }
    }

    /// One device under the default schedule (LPT + arena admission).
    pub fn gpu(device: Arc<Device>) -> Self {
        Backend::gpu_with(device, ScheduleOptions::default())
    }

    /// One device under explicit scheduling options: a pool of one around
    /// the caller's own `Arc`, so the device's clock reads the run.
    pub fn gpu_with(device: Arc<Device>, schedule: ScheduleOptions) -> Self {
        Backend::cluster_with(DevicePool::from_devices(vec![device]), schedule)
    }

    /// A device pool under the default schedule.
    pub fn cluster(pool: Arc<DevicePool>) -> Self {
        Backend::cluster_with(pool, ScheduleOptions::default())
    }

    /// A device pool under explicit scheduling options.
    pub fn cluster_with(pool: Arc<DevicePool>, schedule: ScheduleOptions) -> Self {
        Backend {
            target: Target::Devices { pool, schedule },
        }
    }

    /// The device pool, `Some` exactly when the target has two or more
    /// devices. A one-device target exposes its device through
    /// [`Backend::device`] instead.
    pub fn pool(&self) -> Option<&Arc<DevicePool>> {
        match &self.target {
            Target::Devices { pool, .. } if pool.n_devices() > 1 => Some(pool),
            _ => None,
        }
    }

    /// The device, `Some` exactly when the target has one device
    /// ([`Backend::gpu`], or a pool of one).
    pub fn device(&self) -> Option<&Arc<Device>> {
        match self.devices() {
            [device] => Some(device),
            _ => None,
        }
    }

    /// The scheduling options of a device target, for in-place edits;
    /// `None` on the host target.
    pub fn schedule_mut(&mut self) -> Option<&mut ScheduleOptions> {
        match &mut self.target {
            Target::Cpu => None,
            Target::Devices { schedule, .. } => Some(schedule),
        }
    }

    /// Every device of the target, in the numbering
    /// [`AssemblyReport::devices`] and [`ScheduledSpan::device`] use. Empty
    /// on the host target.
    pub fn devices(&self) -> &[Arc<Device>] {
        match &self.target {
            Target::Cpu => &[],
            Target::Devices { pool, .. } => pool.devices(),
        }
    }
}

/// One batched-assembly configuration bound to an execution target: the
/// single entry point of the batched drivers.
///
/// A session is cheap to clone and reusable — `assemble` borrows it, so one
/// session can drive many batches (each call is an independent record →
/// plan → replay pass on the backend's timeline).
#[derive(Clone, Debug)]
pub struct AssemblySession {
    backend: Backend,
    cfg: ScConfig,
}

/// Result of [`AssemblySession::assemble`]: one `F̃ᵢ` per input subdomain
/// (batch order preserved) plus the unified report.
pub struct AssemblyResult {
    /// Assembled local dual operators, each its packed lower triangle in
    /// the original multiplier order, indexed like the input batch.
    pub f: Vec<SymPackedOf<f64>>,
    /// Unified diagnostics.
    pub report: AssemblyReport,
}

impl AssemblySession {
    /// Bind an execution target to an assembly configuration.
    pub fn new(backend: Backend, cfg: ScConfig) -> Self {
        AssemblySession { backend, cfg }
    }

    /// The execution target.
    pub fn backend(&self) -> &Backend {
        &self.backend
    }

    /// The assembly configuration.
    pub fn cfg(&self) -> &ScConfig {
        &self.cfg
    }

    /// Assemble every subdomain's `F̃ᵢ` on the session's backend.
    ///
    /// Takes a slice of any [`BatchEntry`]: owned `(Csc, Csc)` pairs, FETI
    /// factor bundles, or references to either for a share of a batch. The
    /// numerics are bitwise identical across all backends; only the
    /// simulated timeline and the report's device sections differ.
    pub fn assemble<E: BatchEntry>(&self, src: &[E]) -> AssemblyResult {
        let (f, report) = match &self.backend.target {
            Target::Cpu => batch_cpu(src, &self.cfg),
            Target::Devices { pool, schedule } => batch_devices(src, &self.cfg, pool, schedule),
        };
        AssemblyResult { f, report }
    }
}

/// One subdomain's row of an [`AssemblyReport`]: the report's only record
/// of where and when the subdomain ran.
#[derive(Clone, Copy, Debug)]
pub struct SubdomainTiming {
    /// Position of the subdomain in the input batch.
    pub index: usize,
    /// Host wall seconds spent in this subdomain's task — on every target
    /// (compare with [`AssemblyReport::total_seconds`], never with simulated
    /// time).
    pub host_seconds: f64,
    /// Where the subdomain ran on a device target, in simulated time;
    /// `None` on the host.
    pub placement: Option<ScheduledSpan>,
}

/// One subdomain's placement in the executed device schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScheduledSpan {
    /// Device it ran on, in [`AssemblyReport::devices`] numbering (`0` on
    /// a one-device target).
    pub device: usize,
    /// Stream it ran on, device-local.
    pub stream: usize,
    /// Simulated time its temporary-arena reservation was granted (equals
    /// `span.start` up to stream availability; strictly earlier stalls mean
    /// the stream waited on the arena — the "wait" configuration).
    pub admitted_at: f64,
    /// Simulated execution interval (first kernel start .. last kernel end).
    pub span: SimSpan,
    /// Bytes reserved in the temporary arena for the interval.
    pub temp_bytes: usize,
}

/// Per-device section of an [`AssemblyReport`]: the device's roll-up
/// numbers and its replay trace. Which subdomains it ran is in the rows of
/// [`AssemblyReport::subdomains`].
#[derive(Clone, Debug, Default)]
pub struct DeviceReport {
    /// Pool index of the device.
    pub device: usize,
    /// Simulated makespan of this device's share.
    pub makespan: f64,
    /// Busy kernel-seconds over `makespan × n_streams` (0 when idle).
    pub utilization: f64,
    /// Peak simultaneous temporary-arena reservation, bytes.
    pub temp_high_water: usize,
    /// Hazard-audit trace of this device's executed schedule (see
    /// [`sc_gpu::trace`]); `None` on drivers without a recorded replay.
    /// Validate with `sc_analyze::trace::validate`.
    pub trace: Option<sc_gpu::Trace>,
}

/// The one report type of the unified surface: one row per subdomain
/// (where and when it ran), per-device roll-ups, and — when
/// the backend split the batch — the hybrid decisions. Every execution
/// target fills the same schema; sections that do not apply stay empty
/// (`devices` on CPU runs, `hybrid` on single-target runs).
#[derive(Clone, Debug, Default)]
pub struct AssemblyReport {
    /// One row per assembled subdomain, batch order.
    pub subdomains: Vec<SubdomainTiming>,
    /// Per-device roll-ups, one per device of the target in
    /// [`Backend::devices`] order — on every device target and for every
    /// batch, so idle devices (and all of them, for an empty batch) keep an
    /// entry. Empty on pure-CPU runs.
    pub devices: Vec<DeviceReport>,
    /// The cost-model plan that split the batch across formulations
    /// ([`plan_hybrid`](crate::plan_hybrid), run by the FETI auto
    /// formulation); `None` unless a decision layer split the batch.
    pub hybrid: Option<HybridPlan>,
    /// Host wall time of the whole batched assembly.
    pub total_seconds: f64,
    /// Simulated device makespan (largest per-device makespan; 0 on CPU).
    pub makespan: f64,
    /// Always 0: block cuts are computed per subdomain, with no memo table.
    /// Kept only while the benchmark's `core.cuts_cache_hit_share` row reads
    /// it; ROADMAP item 1(c), "Retire `core.cuts_cache_hit_share`", deletes
    /// it.
    pub cache_hits: usize,
    /// Always 0, like [`cache_hits`](Self::cache_hits), and deleted with it.
    pub cache_misses: usize,
}

impl AssemblyReport {
    /// Largest per-device temporary-arena high water, bytes.
    pub fn temp_high_water(&self) -> usize {
        self.devices
            .iter()
            .map(|d| d.temp_high_water)
            .max()
            .unwrap_or(0)
    }

    /// Remap every subdomain index through `map` (share-local → global) and
    /// re-sort the rows; used when a share of a bigger problem was
    /// assembled separately — **before** any hybrid section is attached.
    ///
    /// # Panics
    ///
    /// When `self.hybrid` is `Some`: its plan is indexed by batch position
    /// and cannot be re-expanded from `map` alone, so a
    /// remapped hybrid section would be internally inconsistent. Merge the
    /// shares first, then attach the global hybrid plan.
    pub fn remap_indices(&mut self, map: &[usize]) {
        assert!(
            self.hybrid.is_none(),
            "remap_indices applies to share reports only; attach the hybrid \
             section after remapping"
        );
        for t in &mut self.subdomains {
            t.index = map[t.index];
        }
        self.subdomains.sort_by_key(|t| t.index);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::AssemblyShape;
    use sc_factor::{CholOptions, SparseCholesky};
    use sc_gpu::DeviceSpec;
    use sc_sparse::{Coo, Csc};
    use std::borrow::Cow;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn workload(nsub: usize, nx: usize, m: usize) -> Vec<(Csc, Csc)> {
        (0..nsub)
            .map(|s| {
                let n = nx * nx;
                let idx = |x: usize, y: usize| y * nx + x;
                let mut c = Coo::new(n, n);
                for y in 0..nx {
                    for x in 0..nx {
                        let v = idx(x, y);
                        c.push(v, v, 4.05 + 0.01 * s as f64);
                        if x > 0 {
                            c.push(v, idx(x - 1, y), -1.0);
                        }
                        if x + 1 < nx {
                            c.push(v, idx(x + 1, y), -1.0);
                        }
                        if y > 0 {
                            c.push(v, idx(x, y - 1), -1.0);
                        }
                        if y + 1 < nx {
                            c.push(v, idx(x, y + 1), -1.0);
                        }
                    }
                }
                let k = c.to_csc();
                let chol = SparseCholesky::factorize(&k, CholOptions::default()).unwrap();
                let mut b = Coo::new(n, m);
                for j in 0..m {
                    b.push(
                        (j * 53 + s * 17) % n,
                        j,
                        if j.is_multiple_of(2) { 1.0 } else { -1.0 },
                    );
                }
                (chol.factor_csc(), b.to_csc().permute_rows(chol.perm()))
            })
            .collect()
    }

    #[test]
    fn every_backend_is_bitwise_identical_through_one_entry_point() {
        let data = workload(6, 6, 8);
        let cfg = ScConfig::optimized(true, false);
        let cpu = AssemblySession::new(Backend::cpu(), cfg).assemble(&data);
        assert!(cpu.report.devices.is_empty());
        assert_eq!(cpu.report.makespan, 0.0);

        let dev = Device::new(DeviceSpec::a100(), 3);
        let gpu = AssemblySession::new(Backend::gpu(Arc::clone(&dev)), cfg).assemble(&data);
        assert_eq!(gpu.report.devices.len(), 1);
        assert!(gpu.report.makespan > 0.0);
        assert!(gpu.report.devices[0].utilization > 0.0);
        assert!(gpu.report.subdomains.iter().all(|t| t.placement.is_some()));

        let pool = DevicePool::uniform(DeviceSpec::a100(), 2, 2);
        let cl = AssemblySession::new(Backend::cluster(pool), cfg).assemble(&data);
        assert_eq!(cl.report.devices.len(), 2);

        for i in 0..data.len() {
            assert_eq!(cpu.f[i], gpu.f[i], "gpu deviates at {i}");
            assert_eq!(cpu.f[i], cl.f[i], "cluster deviates at {i}");
        }
    }

    /// The device-list views read exactly the device count: `device()` on
    /// one device, `pool()` on two or more, whatever constructor built the
    /// backend. `benchmark/src/ledger/stages.rs:293` dispatches its
    /// topology on this pair.
    #[test]
    fn device_and_pool_views_read_the_device_count() {
        let dev = Device::new(DeviceSpec::a100(), 2);
        let views = |b: &Backend| (b.devices().len(), b.device().is_some(), b.pool().is_some());
        let cases = [
            (Backend::cpu(), (0, false, false)),
            (Backend::gpu(Arc::clone(&dev)), (1, true, false)),
            (
                Backend::cluster(DevicePool::from_devices(vec![Arc::clone(&dev)])),
                (1, true, false),
            ),
            (
                Backend::cluster(DevicePool::uniform(DeviceSpec::a100(), 2, 2)),
                (2, false, true),
            ),
            (
                Backend::cluster(DevicePool::from_devices(vec![])),
                (0, false, false),
            ),
        ];
        for (backend, want) in cases {
            assert_eq!(views(&backend), want, "{backend:?}");
        }
        // one GPU is a pool of one around the caller's own device
        assert!(Arc::ptr_eq(
            &Backend::gpu(Arc::clone(&dev)).devices()[0],
            &dev
        ));
    }

    /// An `(L, B̃ᵀ)` pair as an entry that counts its shape requests.
    struct Counting<'a> {
        pair: &'a (Csc, Csc),
        asked: AtomicUsize,
    }

    impl BatchEntry for Counting<'_> {
        fn factor(&self) -> &Csc {
            &self.pair.0
        }

        fn gluing(&self) -> &Csc {
            &self.pair.1
        }

        fn shape(&self) -> Cow<'_, AssemblyShape> {
            self.asked.fetch_add(1, Ordering::Relaxed);
            Cow::Owned(AssemblyShape::of(self.factor(), self.gluing()))
        }
    }

    /// The CPU driver, the one-GPU driver and the pool driver each ask every
    /// entry for its shape exactly once, and assemble bitwise what they
    /// assemble from the bare pairs.
    #[test]
    fn every_driver_asks_for_each_shape_once() {
        let data = workload(5, 6, 8);
        let backends = [
            Backend::cpu(),
            Backend::gpu(Device::new(DeviceSpec::a100(), 2)),
            Backend::cluster(DevicePool::uniform(DeviceSpec::a100(), 2, 2)),
        ];
        for backend in backends {
            let name = format!("{backend:?}");
            let session = AssemblySession::new(backend, ScConfig::Auto);
            let counting: Vec<Counting> = (data.iter())
                .map(|pair| Counting {
                    pair,
                    asked: AtomicUsize::new(0),
                })
                .collect();
            let counted = session.assemble(&counting);
            let asked: Vec<usize> = (counting.iter())
                .map(|c| c.asked.load(Ordering::Relaxed))
                .collect();
            assert_eq!(asked, vec![1; data.len()], "{name}");
            assert_eq!(counted.f, session.assemble(&data).f, "{name}");
        }
    }
}
