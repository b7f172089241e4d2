//! The unified assembly surface: a [`Backend`] value names the execution
//! target, an [`AssemblySession`] binds it to an assembly configuration,
//! and [`AssemblySession::assemble`] drives any [`IntoBatchSource`] through
//! the paper's record → plan → replay pipeline, reporting through one
//! nested [`AssemblyReport`] regardless of target.
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
use crate::batch::{batch_cpu, batch_devices, DeviceGroup, SubdomainTiming};
use crate::schedule::{
    DeviceSlot, Formulation, HybridPlan, ScheduleOptions, ScheduledSpan, Topology,
};
use crate::source::{BatchSource, IntoBatchSource};
use sc_dense::{Mat, MatOf, Scalar};
use sc_gpu::{Device, DevicePool, NodePool};
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
/// retargets between host, one simulated GPU, a device pool, a
/// spill-tolerant hybrid or a multi-node cluster without changing call
/// sites.
///
/// Every device variant is the **same driver** over a different
/// [`Topology`] tree — record every subdomain once, plan the whole batch
/// once with [`plan_topology_by`](crate::plan_topology_by) (one pricing at
/// every level: the recorded kernels under the leaf device's own duration
/// model), replay each device from the lane assignment the plan holds —
/// and takes the same [`ScheduleOptions`].
#[derive(Clone)]
#[non_exhaustive]
pub enum Target {
    /// Host execution, one rayon task per subdomain.
    Cpu {
        /// Upper bound on worker threads (`0` = all available).
        threads: usize,
    },
    /// One simulated GPU — a one-node, one-device tree: the §4.4 stream
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
    /// A pool of simulated GPUs — [`Topology::of_pool`]: subdomains are
    /// partitioned across devices (cost-aware LPT with per-device arena
    /// admissibility), then across each device's streams. A subdomain that
    /// fits no device arena **panics** — use [`Target::Hybrid`] for the
    /// spill-tolerant variant.
    Cluster {
        /// The device pool (heterogeneous mixes allowed).
        pool: Arc<DevicePool>,
        /// Scheduling options.
        opts: ScheduleOptions,
    },
    /// [`Target::Cluster`] with a host fail-over: subdomains whose
    /// temporaries fit no device arena keep their host-computed `F̃ᵢ` (the
    /// explicit-CPU formulation) instead of erroring, and the report's
    /// [`hybrid`](AssemblyReport::hybrid) block records the split.
    Hybrid {
        /// The device pool (a pool with no usable device sends everything
        /// to the host).
        pool: Arc<DevicePool>,
        /// Scheduling options for the on-pool share.
        opts: ScheduleOptions,
    },
    /// A simulated multi-node cluster — [`Topology::of_cluster`]: the node
    /// level prices each placement as the recorded kernel seconds on the
    /// node's best admissible device **plus** the subdomain's lambda/gluing
    /// bytes over the node's [`Interconnect`](sc_gpu::Interconnect). The
    /// report gains a per-node roll-up ([`AssemblyReport::nodes`]) with
    /// exchange-byte accounting. A subdomain that fits no device arena
    /// **panics**.
    MultiNode {
        /// The simulated cluster.
        pool: Arc<NodePool>,
        /// Scheduling options shared by every node.
        opts: ScheduleOptions,
    },
}

impl Target {
    /// The three device shapes as data: the target's [`Topology`], its
    /// devices grouped in the same depth-first order (one link-less group
    /// for one GPU or a pool, one group per node for a cluster), and its
    /// scheduling options. `None` on the host target.
    pub(crate) fn device_tree(&self) -> Option<(Topology, Vec<DeviceGroup<'_>>, &ScheduleOptions)> {
        Some(match self {
            Target::Cpu { .. } => return None,
            Target::Gpu { device, schedule } => (
                Topology::node(
                    vec![Topology::device_with(
                        DeviceSlot::of(device),
                        schedule.policy,
                    )],
                    None,
                ),
                vec![(std::slice::from_ref(device), None)],
                schedule,
            ),
            Target::Cluster { pool, opts } | Target::Hybrid { pool, opts } => (
                Topology::of_pool(pool, opts.policy),
                vec![(pool.devices(), None)],
                opts,
            ),
            Target::MultiNode { pool, opts } => (
                Topology::of_cluster(pool, opts.policy),
                pool.nodes()
                    .iter()
                    .map(|ns| (ns.pool.devices(), Some(ns.link)))
                    .collect(),
                opts,
            ),
        })
    }
}

impl std::fmt::Debug for Target {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Target::Cpu { threads } => f.debug_struct("Cpu").field("threads", threads).finish(),
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
            Target::Hybrid { pool, opts } => f
                .debug_struct("Hybrid")
                .field("n_devices", &pool.n_devices())
                .field("opts", opts)
                .finish(),
            Target::MultiNode { pool, opts } => f
                .debug_struct("MultiNode")
                .field("n_nodes", &pool.n_nodes())
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
        Target::Cpu { threads: 0 }.into()
    }

    /// Host execution capped at `threads` worker threads (`0` = uncapped).
    pub fn cpu_with_threads(threads: usize) -> Self {
        Target::Cpu { threads }.into()
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

    /// A device pool with host fail-over for over-arena subdomains.
    pub fn hybrid(pool: Arc<DevicePool>) -> Self {
        Target::Hybrid {
            pool,
            opts: ScheduleOptions::default(),
        }
        .into()
    }

    /// A simulated multi-node cluster under the default schedule.
    pub fn multi_node(pool: Arc<NodePool>) -> Self {
        Target::MultiNode {
            pool,
            opts: ScheduleOptions::default(),
        }
        .into()
    }

    /// Set the working precision (builder style).
    pub fn precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Stable lowercase name of the target (diagnostics).
    pub fn name(&self) -> &'static str {
        match &self.target {
            Target::Cpu { .. } => "cpu",
            Target::Gpu { .. } => "gpu",
            Target::Cluster { .. } => "cluster",
            Target::Hybrid { .. } => "hybrid",
            Target::MultiNode { .. } => "multinode",
        }
    }

    /// The device pool this backend schedules onto, if any. The single-GPU
    /// target exposes its device through [`Backend::device`] instead.
    pub fn pool(&self) -> Option<&Arc<DevicePool>> {
        match &self.target {
            Target::Cluster { pool, .. } | Target::Hybrid { pool, .. } => Some(pool),
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

    /// The node pool of the [`Target::MultiNode`] target, if that is what
    /// this backend runs on.
    pub fn node_pool(&self) -> Option<&Arc<NodePool>> {
        match &self.target {
            Target::MultiNode { pool, .. } => Some(pool),
            _ => None,
        }
    }

    /// Every device of the target, flat, in the numbering
    /// [`AssemblyReport::devices`] and [`SubdomainTiming::device`] use (the
    /// one GPU; a pool's devices; a cluster's devices node-major). Empty on
    /// the host target.
    pub fn devices(&self) -> Vec<Arc<Device>> {
        let groups = self.target.device_tree().map_or(Vec::new(), |t| t.1);
        groups
            .iter()
            .flat_map(|(devs, _)| devs.iter().cloned())
            .collect()
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

/// Result of [`AssemblySession::assemble`]: one dense `F̃ᵢ` per input
/// subdomain (batch order preserved) plus the unified report.
pub struct AssemblyResult {
    /// Assembled local dual operators, indexed like the input batch.
    pub f: Vec<Mat>,
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
    /// Accepts eager slices (`&[BatchItem]`, `&[(Csc, Csc)]`) and lazy
    /// sources ([`LazyBatch`](crate::source::LazyBatch)) through one bound. The
    /// numerics are bitwise identical across all backends; only the
    /// simulated timeline and the report's device sections differ. Under
    /// [`Precision::F32Refined`] the inputs are demoted to `f32`, the whole
    /// record → plan → replay pipeline runs in `f32` (halved value-byte
    /// terms in the transfer/arena cost model), and the assembled operators
    /// are promoted back to `f64` on return — the promotion is exact, so
    /// `f[i].cast::<f32>()` recovers the `f32`-assembled operator bitwise.
    pub fn assemble<I: IntoBatchSource>(&self, items: I) -> AssemblyResult {
        let src = items.into_batch_source();
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
                if let Some(h) = report.hybrid.as_mut() {
                    h.precision = p;
                }
                AssemblyResult {
                    f: f.into_iter().map(|m| m.cast::<f64>()).collect(),
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
) -> (Vec<MatOf<S>>, AssemblyReport) {
    let Some((topo, groups, opts)) = target.device_tree() else {
        return match target {
            Target::Cpu { threads } if *threads > 0 => {
                rayon::with_max_threads(*threads, || batch_cpu(src, cfg))
            }
            _ => batch_cpu(src, cfg),
        };
    };
    if !matches!(target, Target::Hybrid { .. }) {
        return batch_devices(src, cfg, &topo, &groups, opts, false);
    }
    if !topo.is_usable() {
        // nothing can run on the pool: everything fails over to
        // the host, and the report says so
        let n = src.len();
        let (f, mut report) = batch_cpu(src, cfg);
        report.hybrid = Some(HybridSummary {
            plan: None,
            formulation: vec![Formulation::ExplicitCpu; n],
            spilled: (0..n).collect(),
            predicted_assembly_seconds: 0.0,
            realized_gpu_seconds: 0.0,
            realized_cpu_seconds: report.cpu_seconds(),
            arena_high_water: 0,
            precision: Precision::F64,
        });
        return (f, report);
    }
    let (f, mut report) = batch_devices(src, cfg, &topo, &groups, opts, true);
    // the host fail-over share: timings the driver placed on no
    // device
    let host_share = || report.subdomains.iter().filter(|t| t.device.is_none());
    let spilled: Vec<usize> = host_share().map(|t| t.index).collect();
    let realized_cpu: f64 = host_share().map(|t| t.host_seconds).sum();
    let mut formulation = vec![Formulation::ExplicitGpu; f.len()];
    for &g in &spilled {
        formulation[g] = Formulation::ExplicitCpu;
    }
    report.hybrid = Some(HybridSummary {
        plan: None,
        formulation,
        spilled,
        predicted_assembly_seconds: 0.0,
        realized_gpu_seconds: report.makespan,
        realized_cpu_seconds: realized_cpu,
        arena_high_water: report.temp_high_water(),
        precision: Precision::F64,
    });
    (f, report)
}

/// One stream's executed spans inside a [`DeviceReport`], chronological.
#[derive(Clone, Debug)]
pub struct StreamLane {
    /// Stream index, device-local.
    pub stream: usize,
    /// Executed spans on that stream, in execution order.
    pub spans: Vec<ScheduledSpan>,
}

/// Per-device section of an [`AssemblyReport`]: the device's share, its
/// executed schedule, and its roll-up numbers.
#[derive(Clone, Debug, Default)]
pub struct DeviceReport {
    /// Pool index of the device.
    pub device: usize,
    /// Subdomain indices assigned to this device, in execution order.
    pub subdomains: Vec<usize>,
    /// Executed schedule (one entry per subdomain, execution order);
    /// empty on drivers without a recorded schedule.
    pub schedule: Vec<ScheduledSpan>,
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

impl DeviceReport {
    /// Group the executed schedule into per-stream lanes (chronological
    /// within each lane; lanes ordered by stream index).
    pub fn stream_lanes(&self) -> Vec<StreamLane> {
        let mut lanes: Vec<StreamLane> = Vec::new();
        for e in &self.schedule {
            match lanes.iter_mut().find(|l| l.stream == e.stream) {
                Some(lane) => lane.spans.push(*e),
                None => lanes.push(StreamLane {
                    stream: e.stream,
                    spans: vec![*e],
                }),
            }
        }
        lanes.sort_by_key(|l| l.stream);
        lanes
    }
}

/// Per-node section of an [`AssemblyReport`]: which devices and subdomains
/// the node owned, plus the cost of shipping its boundary rows to the rest
/// of the cluster over its interconnect. Empty unless the batch ran on a
/// [`Target::MultiNode`] backend.
#[derive(Clone, Debug, Default)]
pub struct NodeReport {
    /// Pool index of the node.
    pub node: usize,
    /// Global (flattened) device indices owned by this node, ascending.
    pub devices: Vec<usize>,
    /// Subdomain indices assigned to this node, in placement order.
    pub subdomains: Vec<usize>,
    /// Simulated makespan of this node's share **including** the trailing
    /// boundary exchange.
    pub makespan: f64,
    /// Boundary (lambda/gluing) bytes this node ships to its peers.
    pub exchange_bytes: f64,
    /// Simulated seconds of that exchange under the node's interconnect
    /// (0 on a single-node pool: nothing leaves the node).
    pub exchange_seconds: f64,
}

/// The hybrid section of an [`AssemblyReport`]: which subdomains ran where
/// and why, with predicted-vs-realized cost when a decision layer planned
/// the split.
#[derive(Clone, Debug)]
pub struct HybridSummary {
    /// The cost-model plan when one ran ([`plan_hybrid`](crate::plan_hybrid)
    /// in the FETI hybrid mode); `None` for the pure arena-spill split of
    /// [`Target::Hybrid`].
    pub plan: Option<HybridPlan>,
    /// Realized formulation of every subdomain, batch order.
    pub formulation: Vec<Formulation>,
    /// Subdomain indices that fit no device arena, ascending.
    pub spilled: Vec<usize>,
    /// Σ predicted assembly seconds over the explicit decisions (0 when no
    /// decision layer ran).
    pub predicted_assembly_seconds: f64,
    /// Realized simulated makespan of the on-device share.
    pub realized_gpu_seconds: f64,
    /// Realized host wall seconds of the host share.
    pub realized_cpu_seconds: f64,
    /// Largest per-device temporary-arena high water, bytes.
    pub arena_high_water: usize,
    /// Working precision the split was planned and realized under.
    pub precision: Precision,
}

impl HybridSummary {
    /// Number of subdomains realized with the given formulation.
    pub fn count_of(&self, f: Formulation) -> usize {
        self.formulation.iter().filter(|&&x| x == f).count()
    }
}

/// The one report type of the unified surface: per-subdomain timings, per
/// device the per-stream execution timeline, and — when the backend split
/// the batch — the hybrid decisions. Every execution target fills the same
/// schema; sections that do not apply stay empty (`devices` on CPU runs,
/// `hybrid` on single-target runs).
#[derive(Clone, Debug, Default)]
pub struct AssemblyReport {
    /// Per-subdomain timings, batch order.
    pub subdomains: Vec<SubdomainTiming>,
    /// Per-device roll-ups, one per device of the target in
    /// [`Backend::devices`] order — on every device target and for every
    /// batch, so idle devices (and all of them, for an empty batch) keep an
    /// entry with an empty share. Empty on pure-CPU runs.
    pub devices: Vec<DeviceReport>,
    /// Per-node roll-ups over `devices` (empty unless the batch ran on a
    /// [`Target::MultiNode`] backend).
    pub nodes: Vec<NodeReport>,
    /// Hybrid split decisions (`None` unless the backend or a decision
    /// layer split the batch).
    pub hybrid: Option<HybridSummary>,
    /// Host wall time of the whole batched assembly.
    pub total_seconds: f64,
    /// Simulated device makespan (largest per-device makespan; 0 on CPU).
    pub makespan: f64,
    /// Block-cut resolutions served from the shared cache.
    pub cache_hits: usize,
    /// Block-cut resolutions computed fresh.
    pub cache_misses: usize,
    /// Working precision the batch was assembled under.
    pub precision: Precision,
}

impl AssemblyReport {
    /// Sum of per-subdomain **host** task times (the sequential-equivalent
    /// host cost).
    pub fn cpu_seconds(&self) -> f64 {
        self.subdomains.iter().map(|t| t.host_seconds).sum()
    }

    /// Achieved host-side parallel speedup `cpu_seconds / total_seconds`.
    pub fn speedup(&self) -> f64 {
        if self.total_seconds > 0.0 {
            self.cpu_seconds() / self.total_seconds
        } else {
            1.0
        }
    }

    /// Largest per-device temporary-arena high water, bytes.
    pub fn temp_high_water(&self) -> usize {
        self.devices
            .iter()
            .map(|d| d.temp_high_water)
            .max()
            .unwrap_or(0)
    }

    /// Pool device of subdomain `i` (`None` when it ran on the host).
    pub fn device_of(&self, i: usize) -> Option<usize> {
        self.subdomains.get(i).and_then(|t| t.device)
    }

    /// Remap every subdomain index through `map` (share-local → global) and
    /// re-sort the timing list; used when a share of a bigger problem was
    /// assembled separately — **before** any hybrid section is attached.
    ///
    /// # Panics
    ///
    /// When `self.hybrid` is `Some`: its `formulation` vector is indexed by
    /// batch position and cannot be re-expanded from `map` alone, so a
    /// remapped hybrid section would be internally inconsistent. Merge the
    /// shares first, then attach the global hybrid summary.
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
        for d in &mut self.devices {
            for g in &mut d.subdomains {
                *g = map[*g];
            }
            for e in &mut d.schedule {
                e.index = map[e.index];
            }
        }
        for n in &mut self.nodes {
            for g in &mut n.subdomains {
                *g = map[*g];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchItem;
    use crate::source::LazyBatch;
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
        assert!(!gpu.report.devices[0].stream_lanes().is_empty());

        let pool = DevicePool::uniform(DeviceSpec::a100(), 2, 2);
        let cl = AssemblySession::new(Backend::cluster(Arc::clone(&pool)), cfg).assemble(&items);
        assert_eq!(cl.report.devices.len(), 2);

        let hy = AssemblySession::new(Backend::hybrid(pool), cfg).assemble(&items);
        let hybrid = hy.report.hybrid.as_ref().expect("hybrid backend reports");
        assert!(hybrid.spilled.is_empty(), "everything fits the A100 arena");

        for i in 0..items.len() {
            assert_eq!(cpu.f[i], gpu.f[i], "gpu deviates at {i}");
            assert_eq!(cpu.f[i], cl.f[i], "cluster deviates at {i}");
            assert_eq!(cpu.f[i], hy.f[i], "hybrid deviates at {i}");
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
            let err = sc_dense::max_abs_diff(base.f[i].as_ref(), f32r.f[i].as_ref());
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
    fn cpu_thread_cap_is_honoured_and_bitwise_neutral() {
        let data = workload(5, 5, 6);
        let items: Vec<BatchItem<'_>> = data.iter().map(|(l, bt)| BatchItem { l, bt }).collect();
        let cfg = ScConfig::optimized(false, false);
        let all = AssemblySession::new(Backend::cpu(), cfg).assemble(&items);
        let one = AssemblySession::new(Backend::cpu_with_threads(1), cfg).assemble(&items);
        for i in 0..items.len() {
            assert_eq!(all.f[i], one.f[i], "thread cap must not change numerics");
        }
    }

    #[test]
    fn lazy_sources_match_eager_slices() {
        let data = workload(4, 6, 7);
        let items: Vec<BatchItem<'_>> = data.iter().map(|(l, bt)| BatchItem { l, bt }).collect();
        let cfg = ScConfig::Auto;
        let session = AssemblySession::new(Backend::cpu(), cfg);
        let eager = session.assemble(&items);
        let lazy = session.assemble(LazyBatch::new(
            &data,
            |_, (l, _): &(Csc, Csc)| std::borrow::Cow::Owned(l.clone()),
            |(_, bt)| bt,
        ));
        let pairs = session.assemble(data.as_slice());
        for i in 0..items.len() {
            assert_eq!(eager.f[i], lazy.f[i], "lazy deviates at {i}");
            assert_eq!(eager.f[i], pairs.f[i], "(Csc, Csc) source deviates at {i}");
        }
    }

    #[test]
    fn hybrid_backend_spills_over_arena_subdomains_to_the_host() {
        let data = workload(6, 8, 12);
        let items: Vec<BatchItem<'_>> = data.iter().map(|(l, bt)| BatchItem { l, bt }).collect();
        let cfg = ScConfig::optimized(true, false);
        // size the arena between the smallest and largest footprint: some
        // subdomains must spill (all have the same shape here, so instead
        // shrink the arena below everything → everything spills)
        let spec = DeviceSpec {
            memory_bytes: 64,
            ..DeviceSpec::a100()
        };
        let pool = DevicePool::uniform(spec, 1, 2);
        let hy = AssemblySession::new(Backend::hybrid(pool), cfg).assemble(&items);
        let hybrid = hy.report.hybrid.as_ref().unwrap();
        assert_eq!(hybrid.spilled.len(), items.len(), "everything must spill");
        assert_eq!(hybrid.count_of(Formulation::ExplicitCpu), items.len());
        assert!(hybrid.realized_cpu_seconds > 0.0);
        // numerics still match the CPU reference bitwise
        let cpu = AssemblySession::new(Backend::cpu(), cfg).assemble(&items);
        for i in 0..items.len() {
            assert_eq!(cpu.f[i], hy.f[i]);
        }
        // a pool with no usable device degrades the same way
        let none = DevicePool::from_devices(vec![Device::new(DeviceSpec::a100(), 0)]);
        let hy0 = AssemblySession::new(Backend::hybrid(none), ScConfig::optimized(true, false))
            .assemble(&items);
        assert_eq!(
            hy0.report.hybrid.as_ref().unwrap().spilled.len(),
            items.len()
        );
        for i in 0..items.len() {
            assert_eq!(cpu.f[i], hy0.f[i]);
        }
    }
}
