//! Memory-aware, cost-model-driven stream scheduling for the batched GPU
//! assembly (paper §4.4).
//!
//! The paper's production loop assembles hundreds of `F̃ᵢ` per cluster by
//! submitting subdomains over 16 CUDA streams under a fixed temporary-arena
//! budget; its CUDA predecessor (arXiv:2502.08382) shows that *stream
//! scheduling and memory admission*, not kernel speed alone, decide
//! throughput at that scale. This module is the planner behind the device
//! driver of [`crate::batch`]:
//!
//! 1. [`estimate_cost`] prices each subdomain from its stepped pattern —
//!    TRSM and SYRK FLOPs below the column pivots, H2D transfer bytes, and
//!    the peak temporary footprint (`Y` plus densified factor blocks);
//! 2. [`plan_topology`] makes one flat pass over a [`Topology`]: on a
//!    [`Topology::Pool`] it first partitions the batch across devices
//!    (cost-aware LPT under per-device arena admissibility), then, on every
//!    device, orders submission **longest-processing-time-first** and
//!    assigns each subdomain to the **least-loaded stream**
//!    ([`StreamPolicy::LptLeastLoaded`]; [`StreamPolicy::RoundRobin`] keeps
//!    the naive index-order assignment as the comparison baseline);
//! 3. [`ArenaSim`](sc_gpu::ArenaSim) admits each subdomain against the
//!    device's [`arena_capacity`](sc_gpu::Device::arena_capacity) **in
//!    simulated time**, so
//!    concurrent temporaries never oversubscribe the arena. A stream whose
//!    next subdomain does not fit *stalls until a holder releases* — the
//!    paper's **"wait"** configuration. Per-subdomain host-readiness times
//!    (factorization finishing on the CPU while the device assembles other
//!    subdomains) are applied through
//!    [`Device::advance_stream`](sc_gpu::Device::advance_stream) — the
//!    paper's **"mix"** configuration
//!    ([`ScheduleOptions::ready_at`]).

use crate::assemble::ScParams;
use crate::plan::{FactorStorage, TrsmVariant};
use sc_dense::Scalar;
use sc_gpu::{DeviceSpec, KernelCost};
use sc_sparse::{pattern, CscOf};

/// Stream-assignment policy for a batched GPU assembly.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum StreamPolicy {
    /// Subdomain `i` goes to stream `i % n_streams`, in index order — the
    /// blind baseline (and the only thing the pre-scheduler driver did).
    RoundRobin,
    /// Longest-processing-time-first: subdomains sorted by estimated cost
    /// descending, each assigned to the currently least-loaded stream. The
    /// classic 4/3-approximation for makespan on identical machines.
    #[default]
    LptLeastLoaded,
}

/// Options of the device batch driver — the payload of every device
/// variant of [`Target`](crate::Target).
///
/// Construct with [`Default`] and the `with_*` setters (the struct is
/// `#[non_exhaustive]`, so it may grow fields without breaking callers):
///
/// ```
/// use sc_core::{ScheduleOptions, StreamPolicy};
/// let opts = ScheduleOptions::default()
///     .with_policy(StreamPolicy::RoundRobin)
///     .with_ready_at(vec![0.0, 0.5]);
/// assert_eq!(opts.policy, StreamPolicy::RoundRobin);
/// ```
#[derive(Clone, Debug, Default)]
#[non_exhaustive]
pub struct ScheduleOptions {
    /// Stream-assignment policy (of every device's lane level).
    pub policy: StreamPolicy,
    /// Per-subdomain host-readiness times in simulated seconds, indexed
    /// like the input batch wherever a subdomain is placed (the paper's
    /// "mix" configuration: subdomain `i`'s factorization finishes on the
    /// host at `ready_at[i]`, so its kernels cannot start earlier — applied
    /// via `Device::advance_stream`). `None` means everything is ready at
    /// `t = 0` (the "wait"-only configuration).
    pub ready_at: Option<Vec<f64>>,
}

impl ScheduleOptions {
    /// Set the stream-assignment policy.
    pub fn with_policy(mut self, policy: StreamPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Set per-subdomain host-readiness times (the "mix" configuration).
    pub fn with_ready_at(mut self, ready_at: Vec<f64>) -> Self {
        self.ready_at = Some(ready_at);
        self
    }

    /// Check [`ready_at`](Self::ready_at) against a batch of `n_items`
    /// subdomains — the one check every device driver makes before it
    /// places anything.
    ///
    /// # Panics
    ///
    /// When `ready_at` is set and does not carry one entry per item, or
    /// carries an entry that is not finite and non-negative.
    pub fn assert_ready_at(&self, n_items: usize) {
        let Some(ready) = self.ready_at.as_ref() else {
            return;
        };
        assert_eq!(
            ready.len(),
            n_items,
            "ScheduleOptions::ready_at must carry one readiness time per \
             batch item ({} given, {n_items} items)",
            ready.len(),
        );
        for (i, &t) in ready.iter().enumerate() {
            assert!(
                t.is_finite() && t >= 0.0,
                "ScheduleOptions::ready_at[{i}] = {t} is not a finite, \
                 non-negative readiness time"
            );
        }
    }
}

/// Cost estimate of one subdomain's assembly, derived from the stepped
/// pattern (pivots), the factor dimension and the multiplier count —
/// computed *before* any kernel runs, which is what lets the planner order
/// submissions.
#[derive(Clone, Debug)]
pub struct CostEstimate {
    /// Position of the subdomain in the input batch.
    pub index: usize,
    /// Estimated TRSM FLOPs, an upper bound priced on the full `n` (the
    /// stepped assembly solves only the closure of `B̃ᵀ`'s rows): `Σⱼ (n − pⱼ)²`.
    pub trsm_flops: f64,
    /// Estimated SYRK FLOPs, an upper bound on the full `n`: with sorted pivots, column
    /// `j` pairs with the `j + 1` columns left of it over rows `pⱼ..n`: `Σⱼ 2 (j+1) (n − pⱼ)`.
    pub syrk_flops: f64,
    /// H2D bytes for the factor and gluing block.
    pub transfer_bytes: f64,
    /// Peak temporary-arena footprint, an upper bound on the full `n`: the
    /// dense `Y` (`8 n m` bytes) plus densified factor blocks when the TRSM densifies.
    pub temp_bytes: usize,
    /// Single-stream device-seconds estimate under `spec` (compute at peak
    /// FP64 plus the PCIe transfer) — the LPT ordering key.
    pub seconds: f64,
}

/// Price one subdomain under the given device spec and resolved parameters,
/// in working precision `S` — every value-byte term scales with
/// [`Scalar::BYTES`] (index traffic stays 8 bytes per entry), so `f32`
/// halves the arena footprint and the value share of the H2D transfer.
pub fn estimate_cost<S: Scalar>(
    spec: &DeviceSpec,
    l: &CscOf<S>,
    bt: &CscOf<S>,
    params: &ScParams,
    index: usize,
) -> CostEstimate {
    /// Bytes of one stored index in the transfer model (row ids travel as
    /// 8-byte words regardless of value precision).
    const INDEX_BYTES: usize = 8;
    let eb = S::BYTES;
    let n = l.ncols();
    let m = bt.ncols();
    // sorted pivots — the stepped pattern the kernels will actually see
    // (identical to SteppedRhs::new's, without building the permuted matrix)
    let mut pivots = pattern::pivots_or_end(bt);
    pivots.sort_unstable();

    let mut trsm_flops = 0.0;
    let mut syrk_flops = 0.0;
    for (j, &p) in pivots.iter().enumerate() {
        let below = n.saturating_sub(p) as f64; // sc-analyze: allow(precision-discipline)
        trsm_flops += below * below;
        syrk_flops += 2.0 * (j + 1) as f64 * below; // sc-analyze: allow(precision-discipline)
    }
    let transfer_bytes = (INDEX_BYTES + eb) as f64 * (l.nnz() + bt.nnz()) as f64; // sc-analyze: allow(precision-discipline)

    // temporary footprint: the dense RHS/solution Y always lives in the
    // arena; densifying TRSM variants additionally materialize factor
    // blocks, and the pruning path gathers a dense sub-diagonal panel plus
    // a compacted GEMM output regardless of factor storage
    let y_bytes = eb * n * m;
    let factor_bytes = match (params.factor_storage, params.trsm) {
        (storage, TrsmVariant::FactorSplit { block, prune }) => {
            let bs = block.block_size(n).min(n);
            // densified diagonal block + sub-diagonal panel, one at a time
            let dense_blocks = if storage == FactorStorage::Dense || prune {
                eb * n * bs
            } else {
                0
            };
            // pruning: compacted rows of the GEMM update (≤ n × width)
            let prune_out = if prune { eb * n * m } else { 0 };
            dense_blocks + prune_out
        }
        (FactorStorage::Dense, _) => eb * n * n,
        // sparse kernels work off the (persistent) CSC factor
        (FactorStorage::Sparse, _) => 0,
    };
    let temp_bytes = y_bytes + factor_bytes;

    let mut est = CostEstimate {
        index,
        trsm_flops,
        syrk_flops,
        transfer_bytes,
        temp_bytes,
        seconds: 0.0,
    };
    est.seconds = est.seconds_on(spec);
    est
}

impl CostEstimate {
    /// Re-price the single-stream seconds estimate under a different device
    /// spec (compute at peak FP64 plus the PCIe transfer) — what the
    /// cluster planner uses to compare placements on heterogeneous pools.
    pub fn seconds_on(&self, spec: &DeviceSpec) -> f64 {
        (self.trsm_flops + self.syrk_flops) / (spec.fp64_gflops * 1e9)
            + self.transfer_bytes / (spec.pcie_bandwidth_gbps * 1e9)
    }
}

/// Per-PCPG-iteration cost of *applying* one subdomain's dual operator in
/// each formulation, as kernel sequences priced under any [`DeviceSpec`]'s
/// duration model (launch overhead and occupancy included — which is what
/// makes many tiny implicit solves expensive on a GPU and cheap on the
/// host). Together with [`CostEstimate`] (the one-time assembly cost) this
/// is the input of the hybrid explicit-vs-implicit decision:
///
/// - **explicit** apply is one SYMV with the packed lower triangle of the
///   assembled `m × m` `F̃ᵢ` (paper Eq. 12);
/// - **implicit** apply is the Eq. 11 pipeline: scatter `B̃ᵀ p̃` (SpMV),
///   two sparse triangular solves with `L`, gather `B̃ (·)` (SpMV).
#[derive(Clone, Debug)]
pub struct ApplyEstimate {
    /// Position of the subdomain in the input batch.
    pub index: usize,
    /// Local multiplier count (order of `F̃ᵢ`).
    pub n_lambda: usize,
    /// Kernel sequence of one explicit application.
    pub explicit: Vec<KernelCost>,
    /// Kernel sequence of one implicit application.
    pub implicit: Vec<KernelCost>,
}

/// Price one subdomain's per-iteration apply cost in both formulations from
/// its factor and gluing block (shapes only — no kernel runs), in working
/// precision `S` — the kernel costs price value traffic at [`Scalar::BYTES`].
pub fn estimate_apply<S: Scalar>(l: &CscOf<S>, bt: &CscOf<S>, index: usize) -> ApplyEstimate {
    let m = bt.ncols();
    ApplyEstimate {
        index,
        n_lambda: m,
        explicit: vec![KernelCost::symv_of::<S>(m)],
        implicit: vec![
            KernelCost::spmm_of::<S>(bt.nnz(), 1), // t = B̃ᵀ p̃ (scatter)
            KernelCost::trsm_sparse_of::<S>(l.nnz(), 1), // L y = t
            KernelCost::trsm_sparse_of::<S>(l.nnz(), 1), // Lᵀ z = y
            KernelCost::spmm_of::<S>(bt.nnz(), 1), // q̃ = B̃ z (gather)
        ],
    }
}

impl ApplyEstimate {
    /// Seconds of one explicit application under `spec`.
    pub fn explicit_seconds_on(&self, spec: &DeviceSpec) -> f64 {
        self.explicit.iter().map(|c| spec.kernel_seconds(c)).sum()
    }

    /// Seconds of one implicit application under `spec`.
    pub fn implicit_seconds_on(&self, spec: &DeviceSpec) -> f64 {
        self.implicit.iter().map(|c| spec.kernel_seconds(c)).sum()
    }
}

/// Planner-facing description of one device of a pool: its capability spec,
/// its temporary-arena capacity, and its stream count.
#[derive(Clone, Debug)]
pub struct DeviceSlot {
    /// Capability spec (per-device cost pricing on heterogeneous pools).
    pub spec: DeviceSpec,
    /// Temporary-arena capacity in bytes
    /// ([`Device::arena_capacity`](sc_gpu::Device::arena_capacity)) — the
    /// admissibility bound: a subdomain whose peak temporaries exceed it can
    /// never run on this device.
    pub arena_capacity: usize,
    /// Number of streams (parallel capacity of the device).
    pub n_streams: usize,
}

impl DeviceSlot {
    /// Describe a simulated device for the planner.
    pub fn of(device: &sc_gpu::Device) -> Self {
        DeviceSlot {
            spec: device.spec().clone(),
            arena_capacity: device.arena_capacity(),
            n_streams: device.n_streams(),
        }
    }

    /// Whether the device can execute anything at all (a drained card with
    /// 0 streams cannot) — the **single** usability predicate every planner
    /// filters on.
    pub fn is_usable(&self) -> bool {
        self.n_streams > 0
    }

    /// Whether a subdomain whose peak temporaries are `temp_bytes` may be
    /// placed on this device: usable and within the arena capacity. The
    /// admissibility rule shared by the cluster partition and the hybrid
    /// formulation decision.
    pub fn admits(&self, temp_bytes: usize) -> bool {
        self.is_usable() && temp_bytes <= self.arena_capacity
    }
}

/// Why a batch could not be partitioned across a device pool.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClusterPlanError {
    /// The batch is non-empty but the pool holds no device that could
    /// execute anything (no devices at all, or none with streams).
    NoDevices,
    /// One or more subdomains' peak temporary footprints exceed every
    /// stream-capable device's arena: they cannot be assembled explicitly
    /// anywhere in this pool. Unlike a hard placement failure this is
    /// **recoverable**: the payload names every offending subdomain, so a
    /// caller with a fallback formulation (the hybrid operator's implicit
    /// path) can reroute them and re-plan the remainder — [`plan_topology`]
    /// itself reports the same set in [`TopoPlan::spilled`] instead of
    /// failing, and [`plan_hybrid`] (`FormulationChoice::Auto`) automates
    /// the reroute.
    Spilled {
        /// Batch indices of every subdomain that fits no device arena,
        /// ascending.
        spilled: Vec<usize>,
        /// The largest usable (stream-capable) arena capacity in the pool.
        max_arena: usize,
    },
}

impl std::fmt::Display for ClusterPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterPlanError::NoDevices => write!(
                f,
                "cannot partition a non-empty batch: the pool holds no \
                 device with streams"
            ),
            ClusterPlanError::Spilled { spilled, max_arena } => write!(
                f,
                "{} subdomain(s) {spilled:?} need more temporaries than the \
                 largest device arena in the pool ({max_arena} B); recoverable: \
                 let FormulationChoice::Auto reroute them, or re-plan without them",
                spilled.len()
            ),
        }
    }
}

impl std::error::Error for ClusterPlanError {}

/// Largest arena capacity among stream-capable devices (0 when none) —
/// the payload of [`ClusterPlanError::Spilled`] on the batch driver's
/// failure path.
pub(crate) fn max_usable_arena(devices: &[DeviceSlot]) -> usize {
    devices
        .iter()
        .filter(|d| d.is_usable())
        .map(|d| d.arena_capacity)
        .max()
        .unwrap_or(0)
}

/// The placement shape of a device target, planned by [`plan_topology`]:
///
/// - [`Topology::Device`] is one device: its streams are planned as lanes;
/// - [`Topology::Pool`] is a device pool: the batch is partitioned across
///   the devices first, then each device's share across its lanes.
#[derive(Clone, Debug)]
pub enum Topology {
    /// One device; its streams are planned as lanes under `policy`.
    Device {
        /// The device's planner-facing description.
        slot: DeviceSlot,
        /// Stream-assignment policy of the lane level.
        policy: StreamPolicy,
    },
    /// A device pool, in pool order; every device's streams are planned as
    /// lanes under `policy`.
    Pool {
        /// The devices' planner-facing descriptions.
        slots: Vec<DeviceSlot>,
        /// Stream-assignment policy of every device's lane level.
        policy: StreamPolicy,
    },
}

impl Topology {
    /// One device with the default stream policy.
    pub fn device(slot: DeviceSlot) -> Self {
        Topology::Device {
            slot,
            policy: StreamPolicy::default(),
        }
    }

    /// The topology of a [`DevicePool`](sc_gpu::DevicePool): one slot per
    /// device, in pool order.
    pub fn of_pool(pool: &sc_gpu::DevicePool, policy: StreamPolicy) -> Self {
        Topology::Pool {
            slots: pool.devices().iter().map(|d| DeviceSlot::of(d)).collect(),
            policy,
        }
    }

    /// Analytic single-stream pricing of `cost` on device `d`: the
    /// [`CostEstimate::seconds_on`] model under that device's spec. The
    /// default pricing of [`plan_topology`].
    pub fn analytic_seconds(&self, cost: &CostEstimate, d: usize) -> f64 {
        match self {
            Topology::Device { slot, .. } => cost.seconds_on(&slot.spec),
            Topology::Pool { slots, .. } => cost.seconds_on(&slots[d].spec),
        }
    }
}

/// One device's stream assignment, part of a [`TopoPlan`].
#[derive(Clone, Debug)]
pub struct LanePlan {
    /// `per_lane[s]` lists the subdomain indices ([`CostEstimate::index`])
    /// submitted on stream `s`, in submission order.
    pub per_lane: Vec<Vec<usize>>,
    /// Estimated accumulated load per lane, in the device's own seconds.
    pub est_load: Vec<f64>,
}

/// The placement produced by [`plan_topology`]: per-device queues plus one
/// lane plan per device.
#[derive(Clone, Debug)]
pub struct TopoPlan {
    /// `per_device[d]` lists the subdomain indices ([`CostEstimate::index`])
    /// placed on device `d`, in placement order.
    pub per_device: Vec<Vec<usize>>,
    /// Estimated accumulated load per device, in that device's own seconds.
    pub est_load: Vec<f64>,
    /// Device of each entry of the input cost slice, in slice order;
    /// `usize::MAX` for spilled entries.
    pub device_of: Vec<usize>,
    /// Subdomain indices no device admits (ascending); always empty on a
    /// [`Topology::Device`].
    pub spilled: Vec<usize>,
    /// `lanes[d]` assigns device `d`'s share to its streams.
    pub lanes: Vec<LanePlan>,
}

impl TopoPlan {
    /// The planner's makespan prediction: the busiest lane of a single
    /// device; on a pool, the largest estimated completion time across its
    /// usable devices (each device's accumulated load over its stream
    /// count).
    pub fn est_makespan(&self, topo: &Topology) -> f64 {
        match topo {
            Topology::Device { .. } => self.lanes[0].est_load.iter().copied().fold(0.0, f64::max),
            Topology::Pool { slots, .. } => (self.est_load.iter().zip(slots))
                .filter(|(_, s)| s.is_usable())
                .map(|(l, s)| l / width(s))
                .fold(0.0, f64::max),
        }
    }
}

/// A device's parallel width: its stream count, the load normalizer of the
/// pool level's completion-time estimate.
fn width(slot: &DeviceSlot) -> f64 {
    slot.n_streams as f64 // sc-analyze: allow(precision-discipline)
}

/// Plan a batch over a [`Topology`] with the analytic
/// [`Topology::analytic_seconds`] pricing (see [`plan_topology_by`]).
pub fn plan_topology(
    costs: &[CostEstimate],
    topo: &Topology,
) -> Result<TopoPlan, ClusterPlanError> {
    plan_topology_by(costs, topo, |c, d| topo.analytic_seconds(c, d))
}

/// Plan a batch over a [`Topology`] with caller-supplied pricing — **the**
/// planner behind the device batch driver, which calls it once per batch
/// and replays the returned lanes. `seconds_of(cost, d)` returns the
/// subdomain's single-stream seconds on device `d` (`0` on a
/// [`Topology::Device`]). The driver passes the recorded kernel sequences
/// priced by each device's own duration model
/// ([`DeviceSpec::kernel_seconds`]), which accounts for launch overhead and
/// the occupancy ramp that the analytic estimate ignores — peak-FLOP
/// pricing overloads fast cards on launch-bound batches.
///
/// The two levels:
///
/// - on a [`Topology::Pool`] the device level partitions longest-first
///   under the worst-case device (ties by index), placing each subdomain on
///   the admissible device ([`DeviceSlot::admits`]) with the lowest
///   estimated completion time (accumulated load over stream count, ties by
///   device index); inadmissible-everywhere subdomains spill; a pool without
///   a usable device and a non-empty batch is [`ClusterPlanError::NoDevices`].
///   Each device's share is handed to its lane level in batch order;
/// - the lane level assigns a device's streams under [`StreamPolicy`]; an
///   empty batch yields an empty plan for any lane count (including 0),
///   while planning a non-empty batch onto `0` lanes of a
///   [`Topology::Device`] is a configuration error and panics with a
///   descriptive message instead of silently rounding up.
pub fn plan_topology_by(
    costs: &[CostEstimate],
    topo: &Topology,
    seconds_of: impl Fn(&CostEstimate, usize) -> f64,
) -> Result<TopoPlan, ClusterPlanError> {
    let (slots, policy) = match topo {
        Topology::Device { slot, policy } => {
            let priced: Vec<(usize, f64)> =
                costs.iter().map(|c| (c.index, seconds_of(c, 0))).collect();
            let lanes = plan_lanes(&priced, slot.n_streams, *policy);
            return Ok(TopoPlan {
                per_device: vec![costs.iter().map(|c| c.index).collect()],
                est_load: vec![priced.iter().map(|&(_, s)| s).sum()],
                device_of: vec![0; costs.len()],
                spilled: Vec::new(),
                lanes: vec![lanes],
            });
        }
        Topology::Pool { slots, policy } => (slots, *policy),
    };
    // a device without execution capacity (a drained card) is not a
    // partition candidate
    if !costs.is_empty() && !slots.iter().any(DeviceSlot::is_usable) {
        return Err(ClusterPlanError::NoDevices);
    }
    // per-device seconds of every subdomain
    let seconds: Vec<Vec<f64>> = costs
        .iter()
        .map(|c| (0..slots.len()).map(|d| seconds_of(c, d)).collect())
        .collect();
    // longest-first under the worst-case device (standard heuristic ordering
    // for unrelated machines); ties broken by index for determinism
    let worst: Vec<f64> = seconds
        .iter()
        .map(|s| s.iter().copied().fold(0.0f64, f64::max))
        .collect();
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by(|&a, &b| {
        worst[b]
            .partial_cmp(&worst[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(costs[a].index.cmp(&costs[b].index))
    });

    // cost-aware LPT with per-device arena admissibility: a subdomain whose
    // temporaries exceed a device's arena is never placed there (when only
    // the big card fits it, it falls back to the big card regardless of
    // load; when nothing fits it, it spills)
    let mut per_device = vec![Vec::new(); slots.len()];
    let mut est_load = vec![0.0f64; slots.len()];
    let mut device_of = vec![usize::MAX; costs.len()];
    let mut spilled = Vec::new();
    for k in order {
        let best = (0..slots.len())
            .filter(|&d| slots[d].admits(costs[k].temp_bytes))
            .min_by(|&a, &b| {
                let fa = (est_load[a] + seconds[k][a]) / width(&slots[a]);
                let fb = (est_load[b] + seconds[k][b]) / width(&slots[b]);
                fa.partial_cmp(&fb)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
        let Some(d) = best else {
            spilled.push(costs[k].index);
            continue;
        };
        per_device[d].push(costs[k].index);
        est_load[d] += seconds[k][d];
        device_of[k] = d;
    }
    spilled.sort_unstable();
    // each device plans its share in batch order — an LPT lane level
    // re-sorts it anyway (total order, ties by index), and a round-robin one
    // stays the blind index-order baseline
    let lanes = (slots.iter().enumerate())
        .map(|(d, slot)| {
            let share: Vec<(usize, f64)> = (costs.iter().zip(&seconds).zip(&device_of))
                .filter(|&(_, &at)| at == d)
                .map(|((c, s), _)| (c.index, s[d]))
                .collect();
            plan_lanes(&share, slot.n_streams, policy)
        })
        .collect();
    Ok(TopoPlan {
        per_device,
        est_load,
        device_of,
        spilled,
        lanes,
    })
}

/// Lane-level planning of `(index, seconds)` pairs onto `n_lanes` streams.
fn plan_lanes(priced: &[(usize, f64)], n_lanes: usize, policy: StreamPolicy) -> LanePlan {
    let mut per_lane = vec![Vec::new(); n_lanes];
    let mut est_load = vec![0.0f64; n_lanes];
    if priced.is_empty() {
        return LanePlan { per_lane, est_load };
    }
    assert!(
        n_lanes > 0,
        "cannot plan a batch of {} subdomains onto 0 streams",
        priced.len()
    );
    match policy {
        StreamPolicy::RoundRobin => {
            for (k, &(index, secs)) in priced.iter().enumerate() {
                per_lane[k % n_lanes].push(index);
                est_load[k % n_lanes] += secs;
            }
        }
        StreamPolicy::LptLeastLoaded => {
            let mut order: Vec<(usize, f64)> = priced.to_vec();
            // longest first; ties broken by index for determinism
            order.sort_by(|a, b| {
                b.1.partial_cmp(&a.1)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.0.cmp(&b.0))
            });
            for (index, secs) in order {
                let s = (0..n_lanes)
                    .min_by(|&a, &b| {
                        est_load[a]
                            .partial_cmp(&est_load[b])
                            .unwrap_or(std::cmp::Ordering::Equal)
                            .then(a.cmp(&b))
                    })
                    .expect("n_lanes >= 1");
                per_lane[s].push(index);
                est_load[s] += secs;
            }
        }
    }
    LanePlan { per_lane, est_load }
}

/// How one subdomain's dual operator is realized (the hybrid decision).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Formulation {
    /// Dense `F̃ᵢ` assembled on a pool device (scheduled/cluster path),
    /// applied by device SYMV.
    ExplicitGpu,
    /// Dense `F̃ᵢ` assembled and applied on the host.
    ExplicitCpu,
    /// No assembly; every application runs the Eq. 11 solve pipeline on the
    /// host.
    Implicit,
}

/// Inputs of [`plan_hybrid`] beyond the per-subdomain estimates.
///
/// Construct with [`Default`] and [`with_iters`](Self::with_iters) (the
/// struct is `#[non_exhaustive]`):
///
/// ```
/// use sc_core::HybridPlanOptions;
/// let opts = HybridPlanOptions::default().with_iters(120.0);
/// assert_eq!(opts.iters, 120.0);
/// ```
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct HybridPlanOptions {
    /// Expected PCPG iteration count: how many times each subdomain's
    /// operator will be applied. `0.0` makes assembly pure overhead
    /// (collapses to all-implicit); `f64::INFINITY` makes apply cost the
    /// only consideration (collapses to all-explicit).
    pub iters: f64,
}

impl Default for HybridPlanOptions {
    fn default() -> Self {
        HybridPlanOptions { iters: 50.0 }
    }
}

impl HybridPlanOptions {
    /// Set the expected PCPG iteration count.
    pub fn with_iters(mut self, iters: f64) -> Self {
        self.iters = iters;
        self
    }
}

/// One subdomain's hybrid decision with its predicted costs.
#[derive(Clone, Debug)]
pub struct HybridChoice {
    /// Position of the subdomain in the input batch.
    pub index: usize,
    /// Chosen formulation.
    pub formulation: Formulation,
    /// Predicted one-time assembly seconds of the chosen formulation
    /// (0 for implicit).
    pub assembly_seconds: f64,
    /// Predicted per-iteration apply seconds of the chosen formulation.
    pub apply_seconds: f64,
}

/// The per-subdomain explicit-vs-implicit plan produced by [`plan_hybrid`].
#[derive(Clone, Debug)]
pub struct HybridPlan {
    /// One decision per subdomain, batch order.
    pub choices: Vec<HybridChoice>,
    /// The expected iteration count the plan was made for.
    pub iters: f64,
    /// Indices whose temporaries fit no device arena, ascending (they were
    /// decided between explicit-CPU and implicit only).
    pub spilled: Vec<usize>,
}

impl HybridPlan {
    /// Batch indices assigned the given formulation, ascending.
    pub fn indices_of(&self, f: Formulation) -> Vec<usize> {
        self.choices
            .iter()
            .filter(|c| c.formulation == f)
            .map(|c| c.index)
            .collect()
    }

    /// Number of subdomains assigned the given formulation.
    pub fn count_of(&self, f: Formulation) -> usize {
        self.choices.iter().filter(|c| c.formulation == f).count()
    }
}

/// Decide, **per subdomain**, whichever of {explicit-GPU, explicit-CPU,
/// implicit} minimizes `assembly + iters × apply`, subject to the device
/// arena capacities (paper-style Table-1 auto-selection extended from
/// "which kernel config" to "which operator formulation"):
///
/// - explicit-GPU assembly/apply are priced per pool device
///   ([`CostEstimate::seconds_on`] / [`ApplyEstimate::explicit_seconds_on`])
///   and only devices whose arena holds the subdomain's peak temporaries
///   are candidates — an oversized subdomain **spills** to the remaining
///   formulations instead of erroring;
/// - explicit-CPU and implicit are priced under [`DeviceSpec::host`];
/// - `iters = 0` collapses to all-implicit (assembly is pure overhead),
///   `iters = ∞` to all-explicit (ordering by apply cost alone, assembly
///   as the tie-break).
///
/// Ties prefer implicit (no assembly risk), then explicit-GPU.
pub fn plan_hybrid(
    costs: &[CostEstimate],
    applies: &[ApplyEstimate],
    devices: &[DeviceSlot],
    opts: &HybridPlanOptions,
) -> HybridPlan {
    assert_eq!(
        costs.len(),
        applies.len(),
        "one ApplyEstimate per CostEstimate required"
    );
    assert!(
        opts.iters >= 0.0 && !opts.iters.is_nan(),
        "expected iteration count must be a non-negative number, got {}",
        opts.iters
    );
    let host = DeviceSpec::host();
    let mut choices = Vec::with_capacity(costs.len());
    let mut spilled = Vec::new();
    for (c, a) in costs.iter().zip(applies) {
        debug_assert_eq!(c.index, a.index, "estimate slices must align");
        // candidates: (formulation, assembly_s, apply_s)
        let by_total = |x: &(Formulation, f64, f64), y: &(Formulation, f64, f64)| {
            total_key(x.1, x.2, opts.iters)
                .partial_cmp(&total_key(y.1, y.2, opts.iters))
                .unwrap_or(std::cmp::Ordering::Equal)
        };
        let gpu = devices
            .iter()
            .filter(|d| d.admits(c.temp_bytes))
            .map(|d| {
                let (asm, app) = (c.seconds_on(&d.spec), a.explicit_seconds_on(&d.spec));
                (Formulation::ExplicitGpu, asm, app)
            })
            .min_by(by_total);
        if gpu.is_none() {
            spilled.push(c.index);
        }
        let (cpu_asm, cpu_app) = (c.seconds_on(&host), a.explicit_seconds_on(&host));
        let impl_app = a.implicit_seconds_on(&host);
        let host_side = [
            (Formulation::ExplicitCpu, cpu_asm, cpu_app),
            (Formulation::Implicit, 0.0, impl_app),
        ];

        // preference on exact ties: implicit (no assembly to lose), then
        // explicit-GPU, then explicit-CPU
        let pref = |f: Formulation| match f {
            Formulation::Implicit => 0u8,
            Formulation::ExplicitGpu => 1,
            Formulation::ExplicitCpu => 2,
        };
        let (formulation, assembly_seconds, apply_seconds) = gpu
            .into_iter()
            .chain(host_side)
            .min_by(|x, y| by_total(x, y).then(pref(x.0).cmp(&pref(y.0))))
            .expect("the implicit formulation is always a candidate");
        choices.push(HybridChoice {
            index: c.index,
            formulation,
            assembly_seconds,
            apply_seconds,
        });
    }
    spilled.sort_unstable();
    HybridPlan {
        choices,
        iters: opts.iters,
        spilled,
    }
}

/// Ordering key of `assembly + iters × apply`: at `iters = ∞` every total
/// is infinite, so the comparison degenerates — order by apply cost alone
/// with assembly as an infinitesimal tie-break instead.
fn total_key(assembly: f64, apply: f64, iters: f64) -> (f64, f64) {
    if iters.is_infinite() {
        (apply, assembly)
    } else {
        (assembly + iters * apply, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assemble::ScConfig;
    use sc_sparse::{Coo, Csc};

    fn bt_with_pivots(n: usize, pivots: &[usize]) -> Csc {
        let mut c = Coo::new(n, pivots.len());
        for (j, &p) in pivots.iter().enumerate() {
            if p < n {
                c.push(p, j, 1.0);
            }
        }
        c.to_csc()
    }

    fn diag_factor(n: usize) -> Csc {
        let mut c = Coo::new(n, n);
        for j in 0..n {
            c.push(j, j, 2.0);
        }
        c.to_csc()
    }

    fn est(n: usize, pivots: &[usize]) -> CostEstimate {
        let l = diag_factor(n);
        let bt = bt_with_pivots(n, pivots);
        let params = ScConfig::optimized(true, false).resolve(true, &l, &bt);
        estimate_cost(&DeviceSpec::a100(), &l, &bt, &params, 0)
    }

    #[test]
    fn cost_grows_with_size_and_pivot_depth() {
        let small = est(50, &[40, 45]);
        let big = est(500, &[10, 20]);
        assert!(big.seconds > small.seconds);
        assert!(big.trsm_flops > small.trsm_flops);
        // deep pivots (little work below) must be cheaper than shallow ones
        let shallow = est(100, &[0, 0, 0]);
        let deep = est(100, &[90, 90, 90]);
        assert!(shallow.trsm_flops > deep.trsm_flops);
        assert!(shallow.syrk_flops > deep.syrk_flops);
    }

    #[test]
    fn empty_subdomain_costs_only_transfer() {
        let e = est(10, &[]);
        assert_eq!(e.trsm_flops, 0.0);
        assert_eq!(e.syrk_flops, 0.0);
        assert!(e.transfer_bytes > 0.0, "the factor still travels");
    }

    #[test]
    fn f32_estimate_halves_value_byte_terms() {
        use crate::assemble::ScParams;
        use crate::plan::SyrkVariant;
        use crate::plan::{FactorStorage, TrsmVariant};
        let l = diag_factor(64);
        let bt = bt_with_pivots(64, &[0, 5, 10, 40]);
        // dense factor storage: the arena holds matrix values only, so the
        // exact-halving claim is precision arithmetic, not layout luck
        let params = ScParams {
            trsm: TrsmVariant::Plain,
            syrk: SyrkVariant::Plain,
            factor_storage: FactorStorage::Dense,
            stepped_permutation: true,
        };
        let spec = DeviceSpec::a100();
        let e64 = estimate_cost::<f64>(&spec, &l, &bt, &params, 0);
        let e32 = estimate_cost::<f32>(&spec, &l.cast::<f32>(), &bt.cast::<f32>(), &params, 0);
        // H2D: index traffic stays 8 bytes per entry, values drop 8 → 4
        let nnz = (l.nnz() + bt.nnz()) as f64;
        assert_eq!(e64.transfer_bytes, 16.0 * nnz);
        assert_eq!(e32.transfer_bytes, 12.0 * nnz);
        // arena footprint halves exactly
        assert_eq!(e32.temp_bytes * 2, e64.temp_bytes);
        // FLOP terms are precision-independent
        assert_eq!(e32.trsm_flops, e64.trsm_flops);
        assert_eq!(e32.syrk_flops, e64.syrk_flops);
    }

    #[test]
    fn f32_apply_estimate_halves_symv_bytes() {
        let l = diag_factor(32);
        let bt = bt_with_pivots(32, &[0, 8, 16]);
        let a64 = estimate_apply::<f64>(&l, &bt, 0);
        let a32 = estimate_apply::<f32>(&l.cast::<f32>(), &bt.cast::<f32>(), 0);
        let bytes = |ks: &[sc_gpu::KernelCost]| ks.iter().map(|k| k.bytes).sum::<f64>();
        let flops = |ks: &[sc_gpu::KernelCost]| ks.iter().map(|k| k.flops).sum::<f64>();
        assert_eq!(
            bytes(&a32.explicit) * 2.0,
            bytes(&a64.explicit),
            "explicit SYMV traffic is pure values"
        );
        assert_eq!(
            bytes(&a64.explicit),
            8.0 * 3.0 * 4.0 / 2.0,
            "the packed triangle of the 3 × 3 operator, each entry once"
        );
        assert_eq!(flops(&a32.explicit), flops(&a64.explicit));
    }

    #[test]
    fn lpt_balances_a_skewed_batch_better_than_round_robin() {
        // sizes arranged so round-robin piles the heavy items onto stream 0
        let costs: Vec<CostEstimate> = (0..8)
            .map(|i| {
                let mut c = est(40, &[0; 12]);
                c.index = i;
                c.seconds = if i.is_multiple_of(2) { 8.0 } else { 1.0 };
                c
            })
            .collect();
        let rr = plan_streams(&costs, 2, StreamPolicy::RoundRobin);
        let lpt = plan_streams(&costs, 2, StreamPolicy::LptLeastLoaded);
        let device = lanes(2, StreamPolicy::default());
        assert!(
            lpt.est_makespan(&device) < rr.est_makespan(&device),
            "LPT {:?} must beat round-robin {:?}",
            lpt.lanes[0].est_load,
            rr.lanes[0].est_load
        );
        // every subdomain appears exactly once
        let mut seen: Vec<usize> = lpt.lanes[0].per_lane.concat();
        seen.sort_unstable();
        assert_eq!(seen, (0..8).collect::<Vec<_>>());
    }

    /// Plan onto the `n` streams of one device, each subdomain
    /// priced at its own `seconds`.
    fn plan_streams(costs: &[CostEstimate], n: usize, policy: StreamPolicy) -> TopoPlan {
        plan_topology_by(costs, &lanes(n, policy), |c, _| c.seconds)
            .expect("stream-level planning has no failure mode")
    }

    /// One device with `n` streams under `policy`.
    fn lanes(n: usize, policy: StreamPolicy) -> Topology {
        Topology::Device {
            slot: slot(DeviceSpec::a100(), usize::MAX, n),
            policy,
        }
    }

    #[test]
    fn plan_handles_degenerate_shapes() {
        let p = plan_streams(&[], 4, StreamPolicy::LptLeastLoaded);
        assert_eq!(p.lanes[0].per_lane, vec![Vec::<usize>::new(); 4]);
        let one = vec![est(10, &[2])];
        let p = plan_streams(&one, 1, StreamPolicy::RoundRobin);
        assert_eq!(p.lanes[0].per_lane, vec![vec![0]]);
    }

    fn slot(spec: DeviceSpec, arena: usize, n_streams: usize) -> DeviceSlot {
        DeviceSlot {
            spec,
            arena_capacity: arena,
            n_streams,
        }
    }

    /// The topology of a device pool described by `devs`.
    fn pool_of(devs: &[DeviceSlot]) -> Topology {
        Topology::Pool {
            slots: devs.to_vec(),
            policy: StreamPolicy::default(),
        }
    }

    #[test]
    fn plan_rejects_zero_streams_for_nonempty_batches_only() {
        let empty = plan_streams(&[], 0, StreamPolicy::LptLeastLoaded);
        assert!(empty.lanes[0].per_lane.is_empty());
        assert!(empty.lanes[0].est_load.is_empty());
        let one = vec![est(10, &[2])];
        let err = std::panic::catch_unwind(|| plan_streams(&one, 0, StreamPolicy::RoundRobin))
            .unwrap_err();
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| err.downcast_ref::<&str>().unwrap_or(&"").to_string());
        assert!(msg.contains("0 streams"), "descriptive error, got: {msg}");
    }

    #[test]
    fn cluster_plan_balances_across_uniform_devices() {
        let costs: Vec<CostEstimate> = (0..8)
            .map(|i| {
                let mut c = est(40, &[0; 12]);
                c.index = i;
                c.trsm_flops = if i.is_multiple_of(2) { 8.0e9 } else { 1.0e9 };
                c.syrk_flops = 0.0;
                c.transfer_bytes = 0.0;
                c
            })
            .collect();
        let devs = vec![
            slot(DeviceSpec::a100(), usize::MAX, 2),
            slot(DeviceSpec::a100(), usize::MAX, 2),
        ];
        let p = plan_topology(&costs, &pool_of(&devs)).unwrap();
        assert!(p.spilled.is_empty());
        // every subdomain placed exactly once
        let mut seen: Vec<usize> = p.per_device.concat();
        seen.sort_unstable();
        assert_eq!(seen, (0..8).collect::<Vec<_>>());
        assert_eq!(p.device_of.len(), 8);
        // LPT must split the 4 heavy items evenly
        let heavy_per_dev: Vec<usize> = p
            .per_device
            .iter()
            .map(|idx| idx.iter().filter(|&&i| i.is_multiple_of(2)).count())
            .collect();
        assert_eq!(heavy_per_dev, vec![2, 2], "heavy items must spread");
        let spread = (p.est_load[0] - p.est_load[1]).abs();
        assert!(
            spread <= p.est_load[0].max(p.est_load[1]) * 0.5,
            "loads {:?} must be roughly balanced",
            p.est_load
        );
        // a second device never grows the predicted makespan
        let one = plan_topology(&costs, &pool_of(&devs[..1])).unwrap();
        assert!(p.est_makespan(&pool_of(&devs)) <= one.est_makespan(&pool_of(&devs[..1])));
    }

    #[test]
    fn cluster_plan_respects_arena_admissibility() {
        // one subdomain too big for the small card: it must land on the big
        // one even though the big one is the slower device
        let mut big = est(400, &[0; 20]);
        big.index = 0;
        big.temp_bytes = 1 << 20;
        let mut small_a = est(40, &[0; 8]);
        small_a.index = 1;
        small_a.temp_bytes = 1 << 10;
        let mut small_b = small_a.clone();
        small_b.index = 2;
        let devs = vec![
            slot(DeviceSpec::tiny_test_device(), 2 << 20, 2), // big arena, slow
            slot(DeviceSpec::a100(), 16 << 10, 2),            // small arena, fast
        ];
        let p = plan_topology(&[big, small_a, small_b], &pool_of(&devs)).unwrap();
        assert_eq!(p.device_of[0], 0, "oversized subdomain must use device 0");
        assert!(p.per_device[0].contains(&0));
    }

    #[test]
    fn cluster_plan_prefers_the_faster_device_for_heavy_work() {
        let costs: Vec<CostEstimate> = (0..6)
            .map(|i| {
                let mut c = est(40, &[0; 12]);
                c.index = i;
                c.trsm_flops = 4.0e9;
                c.syrk_flops = 0.0;
                c.transfer_bytes = 0.0;
                c.temp_bytes = 1;
                c
            })
            .collect();
        let devs = vec![
            slot(DeviceSpec::h100(), usize::MAX, 2),
            slot(DeviceSpec::tiny_test_device(), usize::MAX, 2),
        ];
        let p = plan_topology(&costs, &pool_of(&devs)).unwrap();
        // the H100 is ~3000x faster than the tiny card: everything goes there
        assert!(
            p.per_device[0].len() > p.per_device[1].len(),
            "fast device must absorb most of the equal-cost work: {:?}",
            p.per_device
        );
    }

    #[test]
    fn cluster_plan_skips_zero_stream_devices() {
        let costs: Vec<CostEstimate> = (0..4)
            .map(|i| {
                let mut c = est(20, &[0; 6]);
                c.index = i;
                c
            })
            .collect();
        // a drained (0-stream) card next to a working one: everything must
        // land on the working card, never on the unusable one
        let devs = vec![
            slot(DeviceSpec::a100(), usize::MAX, 0),
            slot(DeviceSpec::a100(), usize::MAX, 2),
        ];
        let p = plan_topology(&costs, &pool_of(&devs)).unwrap();
        assert!(p.per_device[0].is_empty(), "0-stream device must stay idle");
        assert_eq!(p.per_device[1].len(), 4);
        assert!(p.device_of.iter().all(|&d| d == 1));
        // a pool of only 0-stream devices cannot run anything
        let dead = vec![slot(DeviceSpec::a100(), usize::MAX, 0)];
        assert_eq!(
            plan_topology(&costs, &pool_of(&dead)).unwrap_err(),
            ClusterPlanError::NoDevices
        );
    }

    #[test]
    fn cluster_plan_errors_are_descriptive() {
        let one = vec![est(10, &[2])];
        assert_eq!(
            plan_topology(&one, &pool_of(&[])).unwrap_err(),
            ClusterPlanError::NoDevices
        );
        let empty = plan_topology(&[], &pool_of(&[])).unwrap();
        assert!(empty.per_device.is_empty());
        assert!(empty.device_of.is_empty());

        // the failure the batch driver raises from a plan's spill list
        let mut huge = est(10, &[2]);
        huge.temp_bytes = 1 << 30;
        let devs = [
            slot(DeviceSpec::a100(), 1 << 20, 2),
            slot(DeviceSpec::a100(), 1 << 22, 0), // drained: its arena does not count
        ];
        let plan = plan_topology(&[huge], &pool_of(&devs)).unwrap();
        assert_eq!(plan.spilled, vec![0]);
        let err = ClusterPlanError::Spilled {
            spilled: plan.spilled,
            max_arena: max_usable_arena(&devs),
        };
        assert_eq!(
            err.to_string(),
            "1 subdomain(s) [0] need more temporaries than the largest device \
             arena in the pool (1048576 B); recoverable: let \
             FormulationChoice::Auto reroute them, or re-plan without them",
            "the Spilled error must name the one surviving fallback"
        );
    }

    #[test]
    fn spill_plan_places_the_rest_and_reports_the_overflow() {
        // two small subdomains fit, the middle one fits nowhere: the plan
        // must carry the small ones and spill index 1 instead of erroring
        let mut a = est(20, &[0; 4]);
        a.index = 0;
        a.temp_bytes = 1 << 8;
        let mut big = est(200, &[0; 20]);
        big.index = 1;
        big.temp_bytes = 1 << 30;
        let mut b = a.clone();
        b.index = 2;
        let devs = vec![slot(DeviceSpec::a100(), 1 << 20, 2)];
        let plan = plan_topology(&[a, big, b], &pool_of(&devs)).unwrap();
        assert_eq!(plan.spilled, vec![1]);
        assert_eq!(plan.device_of[1], usize::MAX, "spilled entry unplaced");
        let mut placed: Vec<usize> = plan.per_device.concat();
        placed.sort_unstable();
        assert_eq!(placed, vec![0, 2]);
    }

    fn apply_est(n: usize, pivots: &[usize]) -> ApplyEstimate {
        let l = diag_factor(n);
        let bt = bt_with_pivots(n, pivots);
        estimate_apply(&l, &bt, 0)
    }

    #[test]
    fn implicit_apply_scales_with_factor_not_interface() {
        let spec = DeviceSpec::host();
        // same interface, much bigger factor: implicit apply must grow,
        // explicit apply (SYMV of order m) must not
        let small = apply_est(50, &[0, 1, 2]);
        let big = apply_est(5000, &[0, 1, 2]);
        assert!(big.implicit_seconds_on(&spec) > small.implicit_seconds_on(&spec));
        assert!(
            (big.explicit_seconds_on(&spec) - small.explicit_seconds_on(&spec)).abs() < 1e-12,
            "explicit apply depends only on n_lambda"
        );
        // four launches per implicit apply vs one for explicit
        assert_eq!(big.implicit.len(), 4);
        assert_eq!(big.explicit.len(), 1);
    }

    fn hybrid_inputs(shapes: &[(usize, usize)]) -> (Vec<CostEstimate>, Vec<ApplyEstimate>) {
        let mut costs = Vec::new();
        let mut applies = Vec::new();
        for (i, &(n, m)) in shapes.iter().enumerate() {
            let l = diag_factor(n);
            let pivots: Vec<usize> = (0..m).map(|j| j % n).collect();
            let bt = bt_with_pivots(n, &pivots);
            let params = ScConfig::optimized(true, false).resolve(true, &l, &bt);
            let mut c = estimate_cost(&DeviceSpec::a100(), &l, &bt, &params, i);
            c.index = i;
            let mut a = estimate_apply(&l, &bt, i);
            a.index = i;
            costs.push(c);
            applies.push(a);
        }
        (costs, applies)
    }

    #[test]
    fn hybrid_iteration_extremes_collapse_the_decision() {
        let (costs, applies) = hybrid_inputs(&[(200, 40), (400, 60), (100, 20)]);
        let devs = vec![slot(DeviceSpec::a100(), usize::MAX, 2)];
        let zero = plan_hybrid(
            &costs,
            &applies,
            &devs,
            &HybridPlanOptions {
                iters: 0.0,
                ..Default::default()
            },
        );
        assert_eq!(
            zero.count_of(Formulation::Implicit),
            3,
            "iters→0 ⇒ implicit"
        );
        let inf = plan_hybrid(
            &costs,
            &applies,
            &devs,
            &HybridPlanOptions {
                iters: f64::INFINITY,
                ..Default::default()
            },
        );
        assert_eq!(
            inf.count_of(Formulation::Implicit),
            0,
            "iters→∞ ⇒ all-explicit: {:?}",
            inf.choices
        );
        // each subdomain decided exactly once
        assert_eq!(zero.choices.len(), 3);
        for (i, c) in inf.choices.iter().enumerate() {
            assert_eq!(c.index, i);
        }
    }

    /// Synthetic estimate pair with controlled regimes: pure-compute costs
    /// large enough that occupancy ramps are saturated, so the seconds are
    /// (almost exactly) flops over peak throughput.
    fn synth(
        index: usize,
        temp_bytes: usize,
        asm_flops: f64,
        expl_apply_flops: f64,
        impl_apply_flops: f64,
    ) -> (CostEstimate, ApplyEstimate) {
        let c = CostEstimate {
            index,
            trsm_flops: asm_flops,
            syrk_flops: 0.0,
            transfer_bytes: 0.0,
            temp_bytes,
            seconds: 0.0,
        };
        let a = ApplyEstimate {
            index,
            n_lambda: 10,
            explicit: vec![KernelCost::compute(expl_apply_flops, 0.0)],
            implicit: vec![KernelCost::compute(impl_apply_flops, 0.0)],
        };
        (c, a)
    }

    #[test]
    fn hybrid_spills_oversized_subdomains_to_implicit() {
        // subdomain 0 fits the arena, subdomain 1 does not; implicit applies
        // cost 4x the explicit SYMV (the typical large-subdomain regime)
        let (c0, a0) = synth(0, 1 << 10, 1e9, 1e9, 4e9);
        let (c1, a1) = synth(1, 1 << 30, 1e12, 1e9, 4e9);
        let costs = vec![c0, c1];
        let applies = vec![a0, a1];
        let devs = vec![slot(DeviceSpec::a100(), 1 << 20, 2)];
        let plan_at = |iters: f64| {
            plan_hybrid(
                &costs,
                &applies,
                &devs,
                &HybridPlanOptions::default().with_iters(iters),
            )
        };
        // at 10 iterations the spilled subdomain's host assembly is not
        // amortized: it must fall back to implicit
        let plan = plan_at(10.0);
        assert_eq!(plan.spilled, vec![1]);
        assert_eq!(plan.choices[0].formulation, Formulation::ExplicitGpu);
        assert_eq!(
            plan.choices[1].formulation,
            Formulation::Implicit,
            "oversized subdomain must fall back, not error"
        );
        assert_eq!(plan.choices[1].assembly_seconds, 0.0);
        // at a high iteration count the spill fails over to the
        // CPU-explicit formulation instead
        let many = plan_at(1e6);
        assert_eq!(many.spilled, vec![1]);
        assert_eq!(many.choices[1].formulation, Formulation::ExplicitCpu);
    }

    #[test]
    fn hybrid_plan_is_no_costlier_than_either_collapse() {
        let (c0, a0) = synth(0, 1 << 10, 1e9, 1e9, 4e9);
        let (c1, a1) = synth(1, 1 << 30, 1e12, 1e9, 4e9);
        let costs = vec![c0, c1];
        let applies = vec![a0, a1];
        let devs = vec![slot(DeviceSpec::a100(), 1 << 20, 2)];
        let host = DeviceSpec::host();
        for iters in [0.0, 1.0, 10.0, 1e3, 1e6] {
            let plan = plan_hybrid(
                &costs,
                &applies,
                &devs,
                &HybridPlanOptions::default().with_iters(iters),
            );
            // the baselines from the same estimates: every subdomain
            // explicit (on the device where its arena admits it, else on
            // the host, whichever is cheaper), and every subdomain implicit
            let total = |asm: f64, app: f64| asm + iters * app;
            let all_expl: f64 = (costs.iter().zip(&applies))
                .map(|(c, a)| {
                    let cpu = total(c.seconds_on(&host), a.explicit_seconds_on(&host));
                    let gpu = (devs[0].admits(c.temp_bytes)).then(|| {
                        total(
                            c.seconds_on(&devs[0].spec),
                            a.explicit_seconds_on(&devs[0].spec),
                        )
                    });
                    gpu.map_or(cpu, |g| g.min(cpu))
                })
                .sum();
            let all_impl: f64 = applies
                .iter()
                .map(|a| total(0.0, a.implicit_seconds_on(&host)))
                .sum();
            let auto: f64 = (plan.choices.iter())
                .map(|c| total(c.assembly_seconds, c.apply_seconds))
                .sum();
            assert!(auto <= all_expl + 1e-15, "iters {iters}");
            assert!(auto <= all_impl + 1e-15, "iters {iters}");
        }
    }

    // ---- pinned placements ---------------------------------------------

    fn skewed_costs(n: usize) -> Vec<CostEstimate> {
        (0..n)
            .map(|i| {
                let mut c = est(40, &[0; 12]);
                c.index = i;
                c.seconds = if i.is_multiple_of(2) { 8.0 } else { 1.0 };
                c.temp_bytes = 1 << 10;
                c
            })
            .collect()
    }

    #[test]
    fn device_lane_plan_pins_lpt_and_round_robin_placement() {
        // 9 subdomains, 8 s at even indices and 1 s at odd ones, 3 lanes
        let costs = skewed_costs(9);
        // LPT: the five 8 s items go longest-first (ties by index) onto the
        // least-loaded lane (ties by lane), then the 1 s items fill lane 2
        let lpt = plan_streams(&costs, 3, StreamPolicy::LptLeastLoaded);
        assert_eq!(
            lpt.lanes[0].per_lane,
            vec![vec![0, 6], vec![2, 8], vec![4, 1, 3, 5, 7]]
        );
        assert_eq!(lpt.lanes[0].est_load, vec![16.0, 16.0, 12.0]);
        // the predicted makespan of one device is its busiest lane
        assert_eq!(
            lpt.est_makespan(&lanes(3, StreamPolicy::LptLeastLoaded)),
            16.0
        );
        // round-robin: subdomain k on lane k mod 3, in index order
        let rr = plan_streams(&costs, 3, StreamPolicy::RoundRobin);
        assert_eq!(
            rr.lanes[0].per_lane,
            vec![vec![0, 3, 6], vec![1, 4, 7], vec![2, 5, 8]]
        );
        assert_eq!(rr.lanes[0].est_load, vec![17.0, 10.0, 17.0]);
        assert_eq!(rr.est_makespan(&lanes(3, StreamPolicy::RoundRobin)), 17.0);
        for plan in [&lpt, &rr] {
            // the one device holds the whole batch, in batch order
            assert_eq!(plan.per_device, vec![(0..9).collect::<Vec<_>>()]);
            assert_eq!(plan.device_of, vec![0; 9]);
            assert!(plan.spilled.is_empty());
            assert_eq!(plan.lanes.len(), 1, "one device, one lane plan");
        }
    }

    #[test]
    fn pool_plan_pins_the_two_level_partition() {
        // 10 subdomains (8 s even / 1 s odd) over three devices of 2, 4 and
        // 1 streams that run them at 1x, 0.5x and 4x the nominal seconds
        let costs = skewed_costs(10);
        let devs = vec![
            slot(DeviceSpec::a100(), usize::MAX, 2),
            slot(DeviceSpec::h100(), usize::MAX, 4),
            slot(DeviceSpec::tiny_test_device(), usize::MAX, 1),
        ];
        let slowdown = [1.0, 0.5, 4.0];
        let plan =
            plan_topology_by(&costs, &pool_of(&devs), |c, d| c.seconds * slowdown[d]).unwrap();
        // longest-first under the worst-case device (ties by index), each
        // onto the device with the lowest (load + cost) / n_streams (ties
        // by device): subdomains 6 and 9 land on device 0 through exact
        // ties with device 1, subdomain 1 is the only one the slow card wins
        assert_eq!(
            plan.per_device,
            vec![vec![6, 9], vec![0, 2, 4, 8, 3, 5, 7], vec![1]]
        );
        assert_eq!(plan.est_load, vec![9.0, 17.5, 4.0]);
        // the predicted makespan of a pool: each device's load over its
        // stream count, max(9.0 / 2, 17.5 / 4, 4.0 / 1)
        assert_eq!(plan.est_makespan(&pool_of(&devs)), 4.5);
        assert_eq!(plan.device_of, vec![1, 2, 1, 1, 1, 1, 0, 1, 1, 0]);
        assert!(plan.spilled.is_empty());
        assert_eq!(plan.lanes.len(), 3, "one lane plan per device");
        for (d, lanes) in plan.lanes.iter().enumerate() {
            // the device's lane plan covers exactly its share
            let mut below: Vec<usize> = lanes.per_lane.concat();
            below.sort_unstable();
            let mut share = plan.per_device[d].clone();
            share.sort_unstable();
            assert_eq!(below, share);
        }
    }
}
