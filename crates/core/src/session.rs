//! The unified assembly surface: a [`Backend`] value names the execution
//! target, an [`AssemblySession`] binds it to an assembly configuration,
//! and [`AssemblySession::assemble`] drives any [`BatchSource`] through
//! the paper's record → plan → replay pipeline, reporting through one
//! nested [`AssemblyReport`] regardless of target. The report states each
//! placement once: one [`SubdomainTiming`] row per subdomain holds its host
//! wall time and, on a device target, its simulated [`ScheduledSpan`]; the
//! [`DeviceReport`] sections keep only their roll-ups.
//!
//! ```
//! use sc_core::{AssemblySession, Backend, ScConfig};
//! # use sc_core::BatchItem;
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
//! # let items = vec![BatchItem { l: &l, bt: &bt }];
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
//! # let items: Vec<sc_core::BatchItem> = Vec::new();
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
use crate::schedule::{HybridPlan, ScheduleOptions};
use crate::source::BatchSource;
use sc_dense::{Scalar, SymPackedOf};
use sc_gpu::{Device, DevicePool, SimSpan};
use sc_sparse::CscOf;
use std::sync::Arc;

/// Working precision of the assembly/solve numerics.
///
/// [`Precision::F64`] is the historical behaviour and stays **bitwise
/// identical** to the pre-precision pipeline. [`Precision::F32Refined`]
/// assembles and factors in `f32` — halving every value-byte term in the
/// transfer/arena cost model, so schedulers admit roughly twice the
/// subdomains per arena — and recovers `f64`-level accuracy with iterative
/// refinement in the outer FETI solve (`sc_feti`).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum Precision {
    /// Full `f64` throughout.
    #[default]
    F64,
    /// `f32` working precision with `f64` iterative refinement on top.
    F32Refined {
        /// Relative residual the refinement loop drives toward (in `f64`).
        refine_tol: f64,
        /// Refinement iterations allowed before the solve falls back to a
        /// full `f64` pass.
        max_refine: usize,
    },
}

impl Precision {
    /// The `f32`-refined mode under default refinement limits
    /// (`refine_tol = 1e-10`, `max_refine = 40`).
    pub fn f32_refined() -> Self {
        Precision::F32Refined {
            refine_tol: 1e-10,
            max_refine: 40,
        }
    }

    /// Bytes of one matrix element in the working precision (4 or 8).
    pub fn elem_bytes(&self) -> usize {
        match self {
            Precision::F64 => 8,
            Precision::F32Refined { .. } => 4,
        }
    }

    /// Stable lowercase name (diagnostics).
    pub fn name(&self) -> &'static str {
        match self {
            Precision::F64 => "f64",
            Precision::F32Refined { .. } => "f32+refine",
        }
    }

    /// True for the `f32` working-precision mode.
    pub fn is_f32(&self) -> bool {
        matches!(self, Precision::F32Refined { .. })
    }
}

/// The execution target of a [`Backend`] — a *value*, so the same pipeline
/// retargets between host, one simulated GPU or a device pool without
/// changing call sites.
///
/// Both device variants are the **same driver** over their devices — record
/// every subdomain once, plan the whole batch once with
/// [`plan_topology_by`](crate::plan_topology_by) over a
/// [`Topology::Pool`](crate::Topology::Pool) (one GPU is a one-device pool;
/// one pricing at both levels: the recorded kernels under each device's own
/// duration model), replay each device from the lane assignment the plan
/// holds — and take the same [`ScheduleOptions`].
#[derive(Clone)]
#[non_exhaustive]
pub enum Target {
    /// Host execution, one rayon task per subdomain (cap the workers with
    /// `rayon::with_max_threads` around the call).
    Cpu,
    /// One simulated GPU, planned as a one-device pool: the §4.4 stream
    /// scheduler (cost-model LPT or round-robin per
    /// [`ScheduleOptions::policy`]), temporary-arena admission,
    /// deterministic record-then-replay. A subdomain that does not fit the
    /// device's arena **panics**.
    Gpu {
        /// The device.
        device: Arc<Device>,
        /// Scheduling options.
        schedule: ScheduleOptions,
    },
    /// A pool of simulated GPUs: subdomains are partitioned across devices
    /// (cost-aware LPT with per-device arena admissibility), then across
    /// each device's streams. A subdomain that fits no device arena
    /// **panics**; the hybrid planner ([`plan_hybrid`](crate::plan_hybrid))
    /// is what keeps such subdomains off the pool.
    Cluster {
        /// The device pool (heterogeneous mixes allowed).
        pool: Arc<DevicePool>,
        /// Scheduling options.
        opts: ScheduleOptions,
    },
}

impl Target {
    /// The devices of a device target, in [`AssemblyReport::devices`]
    /// numbering, with its scheduling options; `None` on the host target.
    pub(crate) fn devices(&self) -> Option<(&[Arc<Device>], &ScheduleOptions)> {
        match self {
            Target::Cpu => None,
            Target::Gpu { device, schedule } => Some((std::slice::from_ref(device), schedule)),
            Target::Cluster { pool, opts } => Some((pool.devices(), opts)),
        }
    }
}

impl std::fmt::Debug for Target {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Target::Cpu => f.write_str("Cpu"),
            Target::Gpu { device, schedule } => f
                .debug_struct("Gpu")
                .field("n_streams", &device.n_streams())
                .field("schedule", schedule)
                .finish(),
            Target::Cluster { pool, opts } => f
                .debug_struct("Cluster")
                .field("n_devices", &pool.n_devices())
                .field("opts", opts)
                .finish(),
        }
    }
}

/// An execution target paired with a working precision: what an
/// [`AssemblySession`] (and the FETI solver builder) runs on.
///
/// Construct with the target shorthands and chain
/// [`precision`](Backend::precision) to opt into mixed precision:
///
/// ```
/// use sc_core::{Backend, Precision};
/// let b = Backend::cpu().precision(Precision::f32_refined());
/// assert!(b.precision.is_f32());
/// assert_eq!(Backend::cpu().precision, Precision::F64);
/// ```
#[derive(Clone, Debug)]
pub struct Backend {
    /// The execution target.
    pub target: Target,
    /// Working precision of the numerics (default [`Precision::F64`]).
    pub precision: Precision,
}

impl From<Target> for Backend {
    /// Wrap a target at the default `f64` precision.
    fn from(target: Target) -> Self {
        Backend {
            target,
            precision: Precision::F64,
        }
    }
}

impl Backend {
    /// Host execution on all available worker threads.
    pub fn cpu() -> Self {
        Target::Cpu.into()
    }

    /// One device under the default schedule (LPT + arena admission).
    pub fn gpu(device: Arc<Device>) -> Self {
        Target::Gpu {
            device,
            schedule: ScheduleOptions::default(),
        }
        .into()
    }

    /// One device under explicit scheduling options.
    pub fn gpu_with(device: Arc<Device>, schedule: ScheduleOptions) -> Self {
        Target::Gpu { device, schedule }.into()
    }

    /// A device pool under the default schedule.
    pub fn cluster(pool: Arc<DevicePool>) -> Self {
        Target::Cluster {
            pool,
            opts: ScheduleOptions::default(),
        }
        .into()
    }

    /// A device pool under explicit scheduling options.
    pub fn cluster_with(pool: Arc<DevicePool>, opts: ScheduleOptions) -> Self {
        Target::Cluster { pool, opts }.into()
    }

    /// Set the working precision (builder style).
    pub fn precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Stable lowercase name of the target (diagnostics).
    pub fn name(&self) -> &'static str {
        match &self.target {
            Target::Cpu => "cpu",
            Target::Gpu { .. } => "gpu",
            Target::Cluster { .. } => "cluster",
        }
    }

    /// The device pool this backend schedules onto, if any. The single-GPU
    /// target exposes its device through [`Backend::device`] instead.
    pub fn pool(&self) -> Option<&Arc<DevicePool>> {
        match &self.target {
            Target::Cluster { pool, .. } => Some(pool),
            _ => None,
        }
    }

    /// The single device of the [`Target::Gpu`] target, if that is what
    /// this backend runs on.
    pub fn device(&self) -> Option<&Arc<Device>> {
        match &self.target {
            Target::Gpu { device, .. } => Some(device),
            _ => None,
        }
    }

    /// The scheduling options of a device target, for in-place edits;
    /// `None` on the host target.
    pub fn schedule_mut(&mut self) -> Option<&mut ScheduleOptions> {
        match &mut self.target {
            Target::Cpu => None,
            Target::Gpu { schedule: opts, .. } | Target::Cluster { opts, .. } => Some(opts),
        }
    }

    /// Every device of the target, in the numbering
    /// [`AssemblyReport::devices`] and [`ScheduledSpan::device`] use (the
    /// one GPU; a pool's devices). Empty on the host target.
    pub fn devices(&self) -> &[Arc<Device>] {
        self.target.devices().map_or(&[], |(devices, _)| devices)
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
    /// Accepts any [`BatchSource`] (`&[BatchItem]`, `&[(Csc, Csc)]`, a `Vec`
    /// of either). The numerics are bitwise identical across all backends; only the
    /// simulated timeline and the report's device sections differ. Under
    /// [`Precision::F32Refined`] the inputs are demoted to `f32`, the whole
    /// record → plan → replay pipeline runs in `f32` (halved value-byte
    /// terms in the transfer/arena cost model), and the assembled operators
    /// are promoted back to `f64` on return — the promotion is exact, so
    /// `f[i].cast::<f32>()` recovers the `f32`-assembled triangle bitwise.
    pub fn assemble<Src: BatchSource>(&self, src: Src) -> AssemblyResult {
        match self.backend.precision {
            Precision::F64 => {
                let (f, report) = dispatch(&self.backend.target, &self.cfg, &src);
                AssemblyResult { f, report }
            }
            p @ Precision::F32Refined { .. } => {
                let demoted: Vec<(CscOf<f32>, CscOf<f32>)> = (0..src.len())
                    .map(|i| (src.factor(i).cast::<f32>(), src.gluing(i).cast::<f32>()))
                    .collect();
                let (f, mut report) = dispatch(&self.backend.target, &self.cfg, &demoted);
                report.precision = p;
                AssemblyResult {
                    f: f.into_iter().map(|t| t.cast::<f64>()).collect(),
                    report,
                }
            }
        }
    }
}

/// Target dispatch of the two batch drivers, generic over the working
/// precision. Every target fills the same [`AssemblyReport`] schema; the
/// report's `precision` field is stamped by the caller.
fn dispatch<S: Scalar, Src: BatchSource<S>>(
    target: &Target,
    cfg: &ScConfig,
    src: &Src,
) -> (Vec<SymPackedOf<S>>, AssemblyReport) {
    match target.devices() {
        Some((devices, opts)) => batch_devices(src, cfg, devices, opts),
        None => batch_cpu(src, cfg),
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
    /// the single-GPU target).
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
    /// Working precision the batch was assembled under.
    pub precision: Precision,
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
    use crate::batch::BatchItem;
    use sc_factor::{CholOptions, SparseCholesky};
    use sc_gpu::DeviceSpec;
    use sc_sparse::{Coo, Csc};

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
        let items: Vec<BatchItem<'_>> = data.iter().map(|(l, bt)| BatchItem { l, bt }).collect();
        let cfg = ScConfig::optimized(true, false);
        let cpu = AssemblySession::new(Backend::cpu(), cfg).assemble(&items);
        assert!(cpu.report.devices.is_empty());
        assert_eq!(cpu.report.makespan, 0.0);

        let dev = Device::new(DeviceSpec::a100(), 3);
        let gpu = AssemblySession::new(Backend::gpu(Arc::clone(&dev)), cfg).assemble(&items);
        assert_eq!(gpu.report.devices.len(), 1);
        assert!(gpu.report.makespan > 0.0);
        assert!(gpu.report.devices[0].utilization > 0.0);
        assert!(gpu.report.subdomains.iter().all(|t| t.placement.is_some()));

        let pool = DevicePool::uniform(DeviceSpec::a100(), 2, 2);
        let cl = AssemblySession::new(Backend::cluster(pool), cfg).assemble(&items);
        assert_eq!(cl.report.devices.len(), 2);

        for i in 0..items.len() {
            assert_eq!(cpu.f[i], gpu.f[i], "gpu deviates at {i}");
            assert_eq!(cpu.f[i], cl.f[i], "cluster deviates at {i}");
        }
    }

    #[test]
    fn f32_precision_assembles_close_to_f64_and_stamps_reports() {
        let data = workload(5, 6, 8);
        let items: Vec<BatchItem<'_>> = data.iter().map(|(l, bt)| BatchItem { l, bt }).collect();
        let cfg = ScConfig::optimized(true, false);
        let base = AssemblySession::new(Backend::cpu(), cfg).assemble(&items);
        assert_eq!(base.report.precision, Precision::F64);

        let f32r = AssemblySession::new(Backend::cpu().precision(Precision::f32_refined()), cfg)
            .assemble(&items);
        assert!(f32r.report.precision.is_f32());
        for i in 0..items.len() {
            let (f64_f, f32_f) = (base.f[i].to_dense(), f32r.f[i].to_dense());
            let err = sc_dense::max_abs_diff(f64_f.as_ref(), f32_f.as_ref());
            assert!(err > 0.0, "f32 assembly must actually run in f32 at {i}");
            assert!(err < 1e-3, "f32 assembly drifted {err} at {i}");
        }

        // the demoted pipeline is still deterministic across targets, and
        // the halved value bytes shrink the device arena footprint
        let dev = Device::new(DeviceSpec::a100(), 2);
        let g64 = AssemblySession::new(Backend::gpu(Arc::clone(&dev)), cfg).assemble(&items);
        let g32 = AssemblySession::new(
            Backend::gpu(Arc::clone(&dev)).precision(Precision::f32_refined()),
            cfg,
        )
        .assemble(&items);
        for i in 0..items.len() {
            assert_eq!(g32.f[i], f32r.f[i], "gpu f32 deviates from cpu f32 at {i}");
        }
        assert!(
            g32.report.devices[0].temp_high_water < g64.report.devices[0].temp_high_water,
            "f32 arena high water {} must undercut f64 {}",
            g32.report.devices[0].temp_high_water,
            g64.report.devices[0].temp_high_water
        );
        assert_eq!(
            g32.report.devices[0].trace.as_ref().map(|t| t.elem_bytes),
            Some(4),
            "replay traces must carry the f32 element width"
        );
    }

    #[test]
    fn pair_sources_match_item_slices() {
        let data = workload(4, 6, 7);
        let items: Vec<BatchItem<'_>> = data.iter().map(|(l, bt)| BatchItem { l, bt }).collect();
        let session = AssemblySession::new(Backend::cpu(), ScConfig::Auto);
        let eager = session.assemble(&items);
        let pairs = session.assemble(data.as_slice());
        for i in 0..items.len() {
            assert_eq!(eager.f[i], pairs.f[i], "(Csc, Csc) source deviates at {i}");
        }
    }
}
