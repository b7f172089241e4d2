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
//!    the peak temporary footprint ([`temp_footprint`]: `Y` plus densified
//!    factor blocks, a function of the shape and parameters alone);
//! 2. [`plan_topology`] makes one flat pass over a [`Topology`], a device
//!    pool (one GPU is a pool of one): it first partitions the batch across
//!    devices (cost-aware LPT under per-device arena admissibility), then,
//!    on every device, orders submission **longest-processing-time-first**
//!    and assigns each subdomain to the **least-loaded stream**
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
use crate::stepped::stepped_order;
use sc_gpu::{DeviceSpec, KernelCost};
use sc_sparse::{pattern, Csc};

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

/// Options of the device batch driver — the schedule of every device
/// [`Backend`](crate::Backend).
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
    /// H2D bytes for the factor and gluing block
    /// ([`KernelCost::csc_transfer_of`] of their stored entries).
    pub transfer_bytes: f64,
    /// Peak temporary-arena footprint ([`temp_footprint`]).
    pub temp_bytes: usize,
    /// Single-stream device-seconds estimate under `spec` (compute at peak
    /// FP64 plus the PCIe transfer) — the LPT ordering key.
    pub seconds: f64,
}

/// Price one subdomain under the given device spec and resolved parameters.
pub fn estimate_cost(
    spec: &DeviceSpec,
    l: &Csc,
    bt: &Csc,
    params: &ScParams,
    index: usize,
) -> CostEstimate {
    let n = l.ncols();
    // sorted pivots: the stepped pattern the kernels will actually see
    let (_, pivots) = stepped_order(&pattern::pivots_or_end(bt));

    let mut trsm_flops = 0.0;
    let mut syrk_flops = 0.0;
    for (j, &p) in pivots.iter().enumerate() {
        let below = exact(n.saturating_sub(p));
        trsm_flops += below * below;
        syrk_flops += 2.0 * exact(j + 1) * below;
    }

    let mut est = CostEstimate {
        index,
        trsm_flops,
        syrk_flops,
        transfer_bytes: KernelCost::csc_transfer_of::<f64>(l.nnz() + bt.nnz()).bytes,
        temp_bytes: temp_footprint(n, bt.ncols(), params),
        seconds: 0.0,
    };
    est.seconds = est.seconds_on(spec);
    est
}

/// Peak temporary-arena footprint, in bytes, of assembling one subdomain
/// with an `n`-column factor and `m` multipliers under `params` — an upper
/// bound on the full `n`, and the [`CostEstimate::temp_bytes`] of
/// [`estimate_cost`]. The dense RHS/solution `Y` always lives in the arena;
/// densifying TRSM variants additionally materialize factor blocks, and the
/// pruning path gathers a dense sub-diagonal panel plus a compacted GEMM
/// output regardless of factor storage. Every term is 8 bytes (one `f64`)
/// times a pattern count.
pub fn temp_footprint(n: usize, m: usize, params: &ScParams) -> usize {
    let eb = std::mem::size_of::<f64>();
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
    eb * n * m + factor_bytes
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
///   operator assembled on the gluing block passed (paper Eq. 12). Every
///   library caller passes `P̂ᵢᵀ`, one column per distinct glued dof, so
///   this is the SYMV with the packed `Gᵢ` of order `nb`;
/// - **implicit** apply is the Eq. 11 pipeline: scatter `B̃ᵀ p̃` (SpMV),
///   two sparse triangular solves with `L`, gather `B̃ (·)` (SpMV). The
///   solves are charged all of `nnz(L)`, an upper bound: `sc_feti`'s sweeps
///   run over `SubdomainFactors::boundary_runs` only (re-pricing them is
///   ROADMAP item 6).
#[derive(Clone, Debug)]
pub struct ApplyEstimate {
    /// Position of the subdomain in the input batch.
    pub index: usize,
    /// Kernel sequence of one explicit application.
    pub explicit: Vec<KernelCost>,
    /// Kernel sequence of one implicit application.
    pub implicit: Vec<KernelCost>,
}

/// Price one subdomain's per-iteration apply cost in both formulations from
/// its factor and gluing block (shapes only — no kernel runs): the explicit
/// SYMV has the order of `bt`'s columns, the implicit solves charge all of
/// `nnz(l)`.
pub fn estimate_apply(l: &Csc, bt: &Csc, index: usize) -> ApplyEstimate {
    ApplyEstimate {
        index,
        explicit: vec![KernelCost::symv_of::<f64>(bt.ncols())],
        implicit: vec![
            KernelCost::spmm_of::<f64>(bt.nnz(), 1), // t = B̃ᵀ p̃ (scatter)
            KernelCost::trsm_sparse_of::<f64>(l.nnz(), 1), // L y = t
            KernelCost::trsm_sparse_of::<f64>(l.nnz(), 1), // Lᵀ z = y
            KernelCost::spmm_of::<f64>(bt.nnz(), 1), // q̃ = B̃ z (gather)
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

/// Why a batch could not be planned over a [`Topology`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClusterPlanError {
    /// The batch is non-empty but the topology holds no device that could
    /// execute anything (no devices at all, or none with streams).
    NoDevices,
}

impl std::fmt::Display for ClusterPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterPlanError::NoDevices => write!(
                f,
                "cannot partition a non-empty batch: the pool holds no \
                 device with streams"
            ),
        }
    }
}

impl std::error::Error for ClusterPlanError {}

/// The devices a batch is planned over by [`plan_topology`], in pool
/// order: the batch is partitioned across the devices first, then each
/// device's share across its stream lanes. One GPU is a pool of one.
#[derive(Clone, Debug)]
pub struct Topology {
    /// The devices' planner-facing descriptions.
    pub slots: Vec<DeviceSlot>,
    /// Stream-assignment policy of every device's lane level.
    pub policy: StreamPolicy,
}

impl Topology {
    /// One device with the default stream policy.
    pub fn device(slot: DeviceSlot) -> Self {
        Topology {
            slots: vec![slot],
            policy: StreamPolicy::default(),
        }
    }

    /// The topology of a [`DevicePool`](sc_gpu::DevicePool): one slot per
    /// device, in pool order.
    pub fn of_pool(pool: &sc_gpu::DevicePool, policy: StreamPolicy) -> Self {
        Topology {
            slots: pool.devices().iter().map(|d| DeviceSlot::of(d)).collect(),
            policy,
        }
    }
}

/// One device's stream assignment, part of a [`TopoPlan`].
#[derive(Clone, Debug)]
pub struct LanePlan {
    /// `per_lane[s]` lists the batch indices submitted on stream `s`, in
    /// submission order.
    pub per_lane: Vec<Vec<usize>>,
    /// Estimated accumulated load per lane, in the device's own seconds.
    pub est_load: Vec<f64>,
}

/// The placement produced by [`plan_topology`]: one lane plan per device,
/// which states each placed subdomain once, plus the spill set.
#[derive(Clone, Debug)]
pub struct TopoPlan {
    /// Batch indices no device admits (ascending).
    pub spilled: Vec<usize>,
    /// `lanes[d]` assigns device `d`'s share to its streams.
    pub lanes: Vec<LanePlan>,
}

impl TopoPlan {
    /// The planner's makespan prediction for the topology it was planned
    /// over: the busiest planned lane over all devices.
    pub fn est_makespan(&self, topo: &Topology) -> f64 {
        debug_assert_eq!(
            self.lanes.len(),
            topo.slots.len(),
            "a plan of this topology"
        );
        (self.lanes.iter().flat_map(|l| l.est_load.iter().copied())).fold(0.0, f64::max)
    }
}

/// Exact `f64` of a count that feeds the cost model: no value precision is
/// involved.
fn exact(n: usize) -> f64 {
    f64::from(u32::try_from(n).expect("count fits in 32 bits"))
}

/// Plan a batch of cost estimates over a [`Topology`], each priced by its
/// [`CostEstimate::seconds_on`] under the device's spec (see
/// [`plan_topology_by`]).
pub fn plan_topology(
    costs: &[CostEstimate],
    topo: &Topology,
) -> Result<TopoPlan, ClusterPlanError> {
    let items: Vec<(usize, usize)> = costs.iter().map(|c| (c.index, c.temp_bytes)).collect();
    plan_topology_by(&items, topo, |k, d| {
        costs[k].seconds_on(&topo.slots[d].spec)
    })
}

/// Plan a batch over a [`Topology`] with caller-supplied pricing — **the**
/// planner behind the device batch driver, which calls it once per batch
/// and replays the returned lanes. `items[k]` is one subdomain's batch index
/// and peak temporary footprint in bytes; `seconds_of(k, d)` returns its
/// single-stream seconds on device `d`. The driver passes the recorded
/// kernel sequences priced by each device's own duration model
/// ([`DeviceSpec::kernel_seconds`]), which accounts for launch overhead and
/// the occupancy ramp that the analytic estimate ignores — peak-FLOP
/// pricing overloads fast cards on launch-bound batches.
///
/// The two levels:
///
/// - the device level partitions longest-first under the worst-case device
///   (ties by index), placing each subdomain on the admissible device
///   ([`DeviceSlot::admits`]) with the lowest estimated completion time
///   (accumulated load over stream count, ties by device index);
///   inadmissible-everywhere subdomains spill; a topology without a usable
///   device and a non-empty batch is [`ClusterPlanError::NoDevices`]. Each
///   device's share is handed to its lane level in batch order;
/// - the lane level assigns a device's streams under [`StreamPolicy`]; an
///   empty share yields an empty plan for any lane count (including 0).
pub fn plan_topology_by(
    items: &[(usize, usize)],
    topo: &Topology,
    seconds_of: impl Fn(usize, usize) -> f64,
) -> Result<TopoPlan, ClusterPlanError> {
    let slots = &topo.slots;
    // a device without execution capacity (a drained card) is not a
    // partition candidate
    if !items.is_empty() && !slots.iter().any(DeviceSlot::is_usable) {
        return Err(ClusterPlanError::NoDevices);
    }
    // per-device seconds of every subdomain
    let seconds: Vec<Vec<f64>> = (0..items.len())
        .map(|k| (0..slots.len()).map(|d| seconds_of(k, d)).collect())
        .collect();
    // longest-first under the worst-case device (standard heuristic ordering
    // for unrelated machines); ties broken by index for determinism
    let worst: Vec<f64> = seconds
        .iter()
        .map(|s| s.iter().copied().fold(0.0f64, f64::max))
        .collect();
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by(|&a, &b| {
        worst[b]
            .partial_cmp(&worst[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(items[a].0.cmp(&items[b].0))
    });

    // cost-aware LPT with per-device arena admissibility: a subdomain whose
    // temporaries exceed a device's arena is never placed there (when only
    // the big card fits it, it falls back to the big card regardless of
    // load; when nothing fits it, it spills)
    let mut share = vec![Vec::new(); slots.len()];
    let mut load = vec![0.0f64; slots.len()];
    let mut spilled = Vec::new();
    for k in order {
        // completion-time estimate: the device's load over its stream count
        let done = |d: usize| (load[d] + seconds[k][d]) / exact(slots[d].n_streams);
        let best = (0..slots.len())
            .filter(|&d| slots[d].admits(items[k].1))
            .min_by(|&a, &b| {
                done(a)
                    .partial_cmp(&done(b))
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
        let Some(d) = best else {
            spilled.push(items[k].0);
            continue;
        };
        share[d].push(k);
        load[d] += seconds[k][d];
    }
    spilled.sort_unstable();
    // each device plans its share in batch order — an LPT lane level
    // re-sorts it anyway (total order, ties by index), and a round-robin one
    // stays the blind index-order baseline
    let lanes = (slots.iter().zip(share).enumerate())
        .map(|(d, (slot, mut share))| {
            share.sort_unstable();
            let priced: Vec<(usize, f64)> = share
                .into_iter()
                .map(|k| (items[k].0, seconds[k][d]))
                .collect();
            plan_lanes(&priced, slot.n_streams, topo.policy)
        })
        .collect();
    Ok(TopoPlan { spilled, lanes })
}

/// Lane-level planning of `(index, seconds)` pairs onto `n_lanes` streams
/// (at least one whenever `priced` is non-empty).
fn plan_lanes(priced: &[(usize, f64)], n_lanes: usize, policy: StreamPolicy) -> LanePlan {
    let mut per_lane = vec![Vec::new(); n_lanes];
    let mut est_load = vec![0.0f64; n_lanes];
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
                    .expect("a placed share has a lane");
                per_lane[s].push(index);
                est_load[s] += secs;
            }
        }
    }
    LanePlan { per_lane, est_load }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::assemble::ScConfig;
    use sc_sparse::{Coo, Csc};

    pub(crate) fn bt_with_pivots(n: usize, pivots: &[usize]) -> Csc {
        let mut c = Coo::new(n, pivots.len());
        for (j, &p) in pivots.iter().enumerate() {
            if p < n {
                c.push(p, j, 1.0);
            }
        }
        c.to_csc()
    }

    pub(crate) fn diag_factor(n: usize) -> Csc {
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
    fn estimate_pins_the_footprint_and_transfer_bytes() {
        use crate::assemble::ScParams;
        use crate::plan::SyrkVariant;
        use crate::plan::{FactorStorage, TrsmVariant};
        use crate::tune::BlockParam;
        let l = diag_factor(64);
        let bt = bt_with_pivots(64, &[0, 5, 10, 40]);
        let (y_bytes, m) = (8 * 64 * 4, 4);
        // the plain dense solve densifies all of `L`; the pruned factor split
        // on sparse storage gathers dense panels and a compacted GEMM output:
        // the arena holds matrix values only, 8 bytes each
        let cases = [
            (TrsmVariant::Plain, FactorStorage::Dense, 8 * 64 * 64),
            (
                TrsmVariant::FactorSplit {
                    block: BlockParam::Size(16),
                    prune: true,
                },
                FactorStorage::Sparse,
                8 * 64 * 16 + 8 * 64 * m,
            ),
        ];
        for (trsm, factor_storage, factor_bytes) in cases {
            let params = ScParams {
                trsm,
                syrk: SyrkVariant::Plain,
                factor_storage,
                stepped_permutation: true,
            };
            let e = estimate_cost(&DeviceSpec::a100(), &l, &bt, &params, 0);
            assert_eq!(e.temp_bytes, y_bytes + factor_bytes, "{params:?}");
            // H2D: an 8-byte index and an 8-byte value per stored entry
            let nnz = (l.nnz() + bt.nnz()) as f64;
            assert_eq!(e.transfer_bytes, 16.0 * nnz);
        }
    }

    #[test]
    fn apply_estimate_pins_the_packed_symv_bytes() {
        let l = diag_factor(32);
        let bt = bt_with_pivots(32, &[0, 8, 16]);
        let a = estimate_apply(&l, &bt, 0);
        let bytes: f64 = a.explicit.iter().map(|k| k.bytes).sum();
        assert_eq!(
            bytes,
            8.0 * 3.0 * 4.0 / 2.0,
            "the packed triangle of the 3 × 3 operator, each entry once"
        );
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
        plan_by_seconds(costs, &lanes(n, policy)).expect("a device with streams")
    }

    /// Plan `costs` over `topo`, each subdomain priced at its own `seconds`
    /// on every device.
    fn plan_by_seconds(
        costs: &[CostEstimate],
        topo: &Topology,
    ) -> Result<TopoPlan, ClusterPlanError> {
        let items: Vec<(usize, usize)> = costs.iter().map(|c| (c.index, c.temp_bytes)).collect();
        plan_topology_by(&items, topo, |k, _| costs[k].seconds)
    }

    /// One device with `n` streams under `policy`.
    fn lanes(n: usize, policy: StreamPolicy) -> Topology {
        Topology {
            policy,
            ..Topology::device(slot(DeviceSpec::a100(), usize::MAX, n))
        }
    }

    /// Device `d`'s share of `plan`, ascending.
    fn share(plan: &TopoPlan, d: usize) -> Vec<usize> {
        let mut share = plan.lanes[d].per_lane.concat();
        share.sort_unstable();
        share
    }

    /// Device `d`'s planned load: the sum of its lanes' loads.
    fn load(plan: &TopoPlan, d: usize) -> f64 {
        plan.lanes[d].est_load.iter().sum()
    }

    #[test]
    fn plan_handles_degenerate_shapes() {
        let p = plan_streams(&[], 4, StreamPolicy::LptLeastLoaded);
        assert_eq!(p.lanes[0].per_lane, vec![Vec::<usize>::new(); 4]);
        let one = vec![est(10, &[2])];
        let p = plan_streams(&one, 1, StreamPolicy::RoundRobin);
        assert_eq!(p.lanes[0].per_lane, vec![vec![0]]);
    }

    pub(crate) fn slot(spec: DeviceSpec, arena: usize, n_streams: usize) -> DeviceSlot {
        DeviceSlot {
            spec,
            arena_capacity: arena,
            n_streams,
        }
    }

    /// The topology of a device pool described by `devs`.
    fn pool_of(devs: &[DeviceSlot]) -> Topology {
        Topology {
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
        assert_eq!(
            plan_by_seconds(&one, &lanes(0, StreamPolicy::RoundRobin)).unwrap_err(),
            ClusterPlanError::NoDevices
        );
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
        let mut seen: Vec<usize> = [share(&p, 0), share(&p, 1)].concat();
        seen.sort_unstable();
        assert_eq!(seen, (0..8).collect::<Vec<_>>());
        // LPT must split the 4 heavy items evenly
        let heavy_per_dev: Vec<usize> = (0..2)
            .map(|d| {
                share(&p, d)
                    .iter()
                    .filter(|&&i| i.is_multiple_of(2))
                    .count()
            })
            .collect();
        assert_eq!(heavy_per_dev, vec![2, 2], "heavy items must spread");
        let loads = [load(&p, 0), load(&p, 1)];
        assert!(
            (loads[0] - loads[1]).abs() <= loads[0].max(loads[1]) * 0.5,
            "loads {loads:?} must be roughly balanced"
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
        assert!(
            share(&p, 0).contains(&0),
            "oversized subdomain must use device 0"
        );
        assert!(!share(&p, 1).contains(&0));
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
            share(&p, 0).len() > share(&p, 1).len(),
            "fast device must absorb most of the equal-cost work: {:?}",
            p.lanes
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
        assert!(
            p.lanes[0].per_lane.is_empty(),
            "0-stream device must stay idle"
        );
        assert_eq!(share(&p, 1), vec![0, 1, 2, 3]);
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
        assert!(empty.lanes.is_empty() && empty.spilled.is_empty());

        // a subdomain over every usable arena spills; a drained card's
        // bigger arena does not admit it
        let mut huge = est(10, &[2]);
        huge.temp_bytes = 1 << 30;
        let devs = [
            slot(DeviceSpec::a100(), 1 << 20, 2),
            slot(DeviceSpec::a100(), 1 << 31, 0),
        ];
        let plan = plan_topology(&[huge], &pool_of(&devs)).unwrap();
        assert_eq!(plan.spilled, vec![0]);
        assert!(share(&plan, 0).is_empty() && share(&plan, 1).is_empty());
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
        assert_eq!(share(&plan, 0), vec![0, 2], "spilled entry unplaced");
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
            "explicit apply depends only on the gluing block's columns"
        );
        // four launches per implicit apply vs one for explicit
        assert_eq!(big.implicit.len(), 4);
        assert_eq!(big.explicit.len(), 1);
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
            // the one device holds the whole batch
            assert_eq!(share(plan, 0), (0..9).collect::<Vec<_>>());
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
        let items: Vec<(usize, usize)> = costs.iter().map(|c| (c.index, c.temp_bytes)).collect();
        let plan = plan_topology_by(&items, &pool_of(&devs), |k, d| {
            costs[k].seconds * slowdown[d]
        })
        .unwrap();
        // longest-first under the worst-case device (ties by index), each
        // onto the device with the lowest (load + cost) / n_streams (ties
        // by device): subdomains 6 and 9 land on device 0 through exact
        // ties with device 1, subdomain 1 is the only one the slow card
        // wins; then each device's share goes LPT onto its own lanes
        let per_lane: Vec<&[Vec<usize>]> = plan.lanes.iter().map(|l| &l.per_lane[..]).collect();
        assert_eq!(
            per_lane,
            [
                &[vec![6], vec![9]][..],
                &[vec![0, 3], vec![2, 5], vec![4, 7], vec![8]],
                &[vec![1]],
            ]
        );
        let est_load: Vec<&[f64]> = plan.lanes.iter().map(|l| &l.est_load[..]).collect();
        assert_eq!(est_load, [&[8.0, 1.0][..], &[4.5, 4.5, 4.5, 4.0], &[4.0]]);
        // the predicted makespan: the busiest lane of any device
        assert_eq!(plan.est_makespan(&pool_of(&devs)), 8.0);
        assert!(plan.spilled.is_empty());
    }
}
