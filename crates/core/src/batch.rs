//! Parallel batched multi-subdomain assembly.
//!
//! The paper's production setting (like its CUDA predecessor, arXiv:2502.08382)
//! assembles the dense local dual operators `F̃ᵢ` of **hundreds of subdomains
//! per cluster**, one OpenMP thread per subdomain. This module is that loop:
//! the drivers fan the per-subdomain [`assemble_sc`](crate::assemble_sc)
//! pipelines out over rayon, sharing one [`BlockCutsCache`] so that
//! equal-shape subdomains (the overwhelmingly common case on regular
//! decompositions) resolve their [`BlockParam`](crate::tune::BlockParam)
//! partitions exactly once, and recording per-subdomain timings for
//! load-balance diagnostics.
//!
//! The public entry point is
//! [`AssemblySession::assemble`](crate::session::AssemblySession::assemble), which
//! dispatches on a [`Backend`](crate::Backend) value onto the two
//! crate-private drivers here. Both take any [`BatchSource`] (lazy per-task
//! factor derivation goes through [`LazyBatch`](crate::source::LazyBatch))
//! and fill the one [`AssemblyReport`] schema directly.
//!
//! Execution targets:
//!
//! - **CPU** (`batch_cpu`) — one rayon task per subdomain;
//! - **every device target** (`batch_devices`) — one GPU, a device pool
//!   and a multi-node cluster are the same walk over a
//!   [`Topology`] tree (node → device → stream) that differs only in its
//!   data. **Record once**: numerics run host-parallel through
//!   [`RecordingExec`] (bitwise the CPU path) and every subdomain's kernel
//!   sequence is kept. **Plan once**: [`plan_topology_by`] places the whole
//!   batch over the whole tree — cost-aware LPT across nodes and devices
//!   with per-device arena admissibility, then the paper-§4.4 stream
//!   assignment per device (LPT onto the least-loaded stream;
//!   [`StreamPolicy::RoundRobin`](crate::schedule::StreamPolicy::RoundRobin)
//!   keeps the paper's blind 16-stream index-order submission as the
//!   comparison baseline) — with one pricing closure at every level: the
//!   recorded kernel sequence under the leaf device's own
//!   [`DeviceSpec::kernel_seconds`](sc_gpu::DeviceSpec::kernel_seconds).
//!   **Replay**: each device leaf executes exactly the lane assignment the
//!   plan holds, kernel by kernel in stream-clock order, admitting every
//!   subdomain against the device's temporary arena ("wait") and honouring
//!   host readiness ("mix") — a deterministic simulated timeline,
//!   reproducible run to run;
//! - **hybrid spill** — the same walk tolerating
//!   [`TopoPlan::spilled`](crate::schedule::TopoPlan::spilled) entries:
//!   subdomains that fit no device arena keep their host-computed `F̃ᵢ`
//!   instead of erroring.
//!
//! Results are **identical** to running [`assemble_sc`](crate::assemble_sc) per subdomain
//! sequentially: every subdomain's pipeline is independent and the cache only
//! memoizes block boundaries, not numerics (dedicated tests assert bitwise
//! equality for every target).
//!
//! ## Clocks
//!
//! [`SubdomainTiming::seconds`] is **backend time**: simulated device
//! seconds on the device targets (the subdomain's span on its stream), host
//! wall seconds on the CPU driver. [`SubdomainTiming::host_seconds`] is
//! always host wall time, so [`AssemblyReport::speedup`] compares
//! commensurable clocks; the device makespan lives in
//! [`AssemblyReport::makespan`].

use crate::assemble::{assemble_sc_with_cache, ScConfig};
use crate::exec::{CpuExec, RecordingExec};
use crate::schedule::{
    self, plan_topology_by, ClusterPlanError, CostEstimate, DeviceSlot, ScheduleOptions,
    ScheduledSpan, TopoPlan, Topology,
};
use crate::session::{AssemblyReport, DeviceReport, NodeReport};
use crate::source::BatchSource;
use crate::tune::BlockCutsCache;
use rayon::prelude::*;
use sc_dense::{MatOf, Scalar};
use sc_gpu::{ArenaSim, Device, DeviceSpec, Interconnect, SimSpan, Trace, TraceEvent};
use sc_sparse::CscOf;
use std::sync::Arc;
use std::time::Instant;

/// Per-subdomain input to the batched assembler: the subdomain's Cholesky
/// factor and its gluing block with rows already in factor order (the same
/// pair [`assemble_sc`](crate::assemble_sc) takes).
#[derive(Clone, Copy)]
pub struct BatchItemOf<'a, S: Scalar = f64> {
    /// Cholesky factor of the regularized subdomain matrix (CSC, diag-first).
    pub l: &'a CscOf<S>,
    /// `B̃ᵢᵀ` with rows permuted into the factor's order.
    pub bt: &'a CscOf<S>,
}

/// `f64` batch item (the historical type).
pub type BatchItem<'a> = BatchItemOf<'a, f64>;

/// Timing and shape record for one subdomain of a batch.
#[derive(Clone, Copy, Debug)]
pub struct SubdomainTiming {
    /// Position of the subdomain in the input batch.
    pub index: usize,
    /// Factor dimension (subdomain dof count).
    pub n_dofs: usize,
    /// Local multiplier count (order of `F̃ᵢ`).
    pub n_lambda: usize,
    /// Backend seconds of this subdomain's assembly: **simulated device
    /// time** (span end − span start on its stream) on the device targets,
    /// host wall time on the CPU driver.
    pub seconds: f64,
    /// Host wall seconds spent in this subdomain's task (always a host
    /// clock — compare with [`AssemblyReport::total_seconds`], never with
    /// simulated time).
    pub host_seconds: f64,
    /// Stream the subdomain ran on (`None` on the host).
    pub stream: Option<usize>,
    /// Simulated execution span on that stream (`None` on the host).
    pub span: Option<SimSpan>,
    /// Device the subdomain ran on, in [`AssemblyReport::devices`]
    /// numbering (`None` on the host; `Some(0)` on the single-GPU target).
    pub device: Option<usize>,
    /// Cluster node the subdomain ran on (`Some` only under the multi-node
    /// backend).
    pub node: Option<usize>,
}

impl SubdomainTiming {
    /// A host-side timing (CPU driver, hybrid spills): backend time is host
    /// wall time and no stream, device or node is involved.
    fn on_host(index: usize, n_dofs: usize, n_lambda: usize, host_seconds: f64) -> Self {
        SubdomainTiming {
            index,
            n_dofs,
            n_lambda,
            seconds: host_seconds,
            host_seconds,
            stream: None,
            span: None,
            device: None,
            node: None,
        }
    }
}

/// CPU batch driver over any [`BatchSource`]: one rayon task per subdomain
/// — the paper's one-thread-per-subdomain cluster loop — all sharing a
/// single [`BlockCutsCache`].
pub(crate) fn batch_cpu<S: Scalar, Src: BatchSource<S>>(
    src: Src,
    cfg: &ScConfig,
) -> (Vec<MatOf<S>>, AssemblyReport) {
    let cache = BlockCutsCache::new();
    let t0 = Instant::now();
    let assembled: Vec<(MatOf<S>, SubdomainTiming)> = (0..src.len())
        .into_par_iter()
        .map(|i| {
            let t = Instant::now();
            let l = src.factor(i);
            let bt = src.gluing(i);
            let f = assemble_sc_with_cache(&mut CpuExec, &l, bt, cfg, Some(&cache));
            let timing =
                SubdomainTiming::on_host(i, l.ncols(), bt.ncols(), t.elapsed().as_secs_f64());
            (f, timing)
        })
        .collect();
    let total_seconds = t0.elapsed().as_secs_f64();
    let (f, subdomains) = assembled.into_iter().unzip();
    let report = AssemblyReport {
        subdomains,
        total_seconds,
        cache_hits: cache.hits(),
        cache_misses: cache.misses(),
        ..Default::default()
    };
    (f, report)
}

/// One group of devices, in [`AssemblyReport::devices`] order, behind an
/// optional interconnect: a cluster node under the multi-node target (its
/// link prices the node's boundary exchange), the whole pool — or the one
/// GPU — otherwise.
pub(crate) type DeviceGroup<'a> = (&'a [Arc<Device>], Option<Interconnect>);

/// **The** device driver: record every subdomain once, plan the whole
/// batch once over `topo`, replay each device leaf from the lane assignment
/// the plan holds. `topo` is the target's [`Topology`] and `groups` its
/// devices in the same depth-first order — one link-less group below a
/// two-level tree (one GPU, a device pool), one group per cluster node
/// below a three-level one.
///
/// The pricing closure is the same at every placement level: the recorded
/// kernel sequence under the leaf device's own duration model — launch
/// overhead and occupancy included, so launch-bound batches do not overload
/// the card (or the node) with the biggest peak-FLOP number.
///
/// With `allow_spill = true` (the spill channel of
/// [`Target::Hybrid`](crate::session::Target::Hybrid)) a subdomain that
/// fits no device arena keeps its host-computed `F̃ᵢ` — the record phase
/// computes every subdomain's numerics host-side anyway — and is reported
/// as a host timing (`stream`, `span` and `device` all `None`) in no
/// device's share.
///
/// Under the multi-node target each node's boundary traffic is charged as
/// **one aggregated exchange** on its timeline after its replay (the
/// assembly-phase lambda/gluing rows leave the node once), recorded as a
/// [`TraceEvent::Exchange`] on the node's first device; a single-node
/// cluster exchanges nothing and reproduces the pool target's timings
/// exactly.
///
/// # Panics
///
/// When `opts.ready_at` does not carry one entry per batch item; when the
/// batch is non-empty and `topo` holds no usable device
/// ([`ClusterPlanError::NoDevices`]); or — with `allow_spill = false` —
/// when a subdomain's temporaries exceed every device's arena
/// ([`ClusterPlanError::Spilled`]).
pub(crate) fn batch_devices<S: Scalar, Src: BatchSource<S>>(
    src: Src,
    cfg: &ScConfig,
    topo: &Topology,
    groups: &[DeviceGroup<'_>],
    opts: &ScheduleOptions,
    allow_spill: bool,
) -> (Vec<MatOf<S>>, AssemblyReport) {
    if let Some(ready) = opts.ready_at.as_ref() {
        assert_eq!(
            ready.len(),
            src.len(),
            "ScheduleOptions::ready_at must carry one readiness time per \
             batch item ({} given, {} items)",
            ready.len(),
            src.len()
        );
    }
    let t0 = Instant::now();
    let slots: Vec<DeviceSlot> = groups
        .iter()
        .flat_map(|(devs, _)| devs.iter().map(|d| DeviceSlot::of(d)))
        .collect();

    // record: every subdomain **once** — the numerics, kernel sequences and
    // arena footprints feed every planning level and the replay, so a lazy
    // source's factor derivation runs once per subdomain
    let cache = BlockCutsCache::new();
    let ref_spec = slots
        .first()
        .map_or_else(DeviceSpec::host, |s| s.spec.clone());
    let (recorded, costs) = record_batch(&src, cfg, &ref_spec, &cache);

    // plan: the whole tree in one call. A device vertex sits at `[d]` below
    // a two-level root and at `[node, d]` below a three-level one
    let kernel_seconds: Vec<Vec<f64>> = recorded
        .iter()
        .map(|r| {
            slots
                .iter()
                .map(|s| r.costs.iter().map(|c| s.spec.kernel_seconds(c)).sum())
                .collect()
        })
        .collect();
    let mut first_of = Vec::with_capacity(groups.len());
    let mut n_devices = 0;
    for (devs, _) in groups {
        first_of.push(n_devices);
        n_devices += devs.len();
    }
    let plan = plan_topology_by(&costs, topo, |c, path| match *path {
        [d] => kernel_seconds[c.index][d],
        [n, d] => kernel_seconds[c.index][first_of[n] + d],
        _ => unreachable!("device vertices sit one or two levels below the root"),
    })
    // documented batch-API contract: planning failure aborts. sc-analyze: allow(panic-surface)
    .unwrap_or_else(|e| panic!("device placement failed: {e}"));
    if !allow_spill && !plan.spilled.is_empty() {
        // documented batch-API contract: spill without opt-in aborts. sc-analyze: allow(panic-surface)
        panic!(
            "device placement failed: {}",
            ClusterPlanError::Spilled {
                spilled: plan.spilled,
                max_arena: schedule::max_usable_arena(&slots),
            }
        );
    }

    // replay: walk the plan group by group, device by device, for a
    // deterministic simulated timeline
    let clustered = groups.iter().any(|(_, link)| link.is_some());
    let group_plans: Vec<&TopoPlan> = if clustered {
        plan.children.iter().collect()
    } else {
        vec![&plan]
    };
    let mut report = AssemblyReport::default();
    for (n, (&(devs, link), gplan)) in groups.iter().zip(group_plans).enumerate() {
        let first = report.devices.len();
        let mut replay_makespan = 0.0f64;
        for (dev, lanes) in devs.iter().zip(&gplan.children) {
            let d = report.devices.len();
            let dev_report = replay_device(
                dev,
                d,
                &lanes.per_child,
                &recorded,
                &costs,
                opts.ready_at.as_deref(),
            );
            report
                .subdomains
                .extend(dev_report.schedule.iter().map(|e| SubdomainTiming {
                    index: e.index,
                    n_dofs: costs[e.index].n_dofs,
                    n_lambda: costs[e.index].n_lambda,
                    seconds: e.span.duration(),
                    host_seconds: recorded[e.index].host_seconds,
                    stream: Some(e.stream),
                    span: Some(e.span),
                    device: Some(d),
                    node: clustered.then_some(n),
                }));
            replay_makespan = replay_makespan.max(dev_report.makespan);
            report.devices.push(dev_report);
        }
        let Some(link) = link else {
            report.makespan = report.makespan.max(replay_makespan);
            continue;
        };
        // the node's boundary bytes leave over its link once, after its
        // replay: one aggregated exchange, overlapping nothing it feeds
        let subdomains = plan.per_child[n].clone();
        let exchange_bytes: f64 = if groups.len() > 1 {
            subdomains.iter().map(|&g| costs[g].exchange_bytes).sum()
        } else {
            0.0
        };
        let exchange_seconds = if exchange_bytes > 0.0 {
            link.seconds(exchange_bytes)
        } else {
            0.0
        };
        if exchange_seconds > 0.0 {
            if let Some(trace) = report.devices[first].trace.as_mut() {
                let at = devs.iter().map(|d| d.synchronize()).fold(0.0, f64::max);
                trace.events.push(TraceEvent::Exchange {
                    label: "lambda-exchange",
                    peer: (n + 1) % groups.len(),
                    bytes: exchange_bytes as usize, // sc-analyze: allow(precision-discipline)
                    span: SimSpan {
                        start: at,
                        end: at + exchange_seconds,
                    },
                    writes: Vec::new(),
                });
            }
        }
        let makespan = replay_makespan + exchange_seconds;
        report.makespan = report.makespan.max(makespan);
        report.nodes.push(NodeReport {
            node: n,
            devices: (first..report.devices.len()).collect(),
            subdomains,
            makespan,
            exchange_bytes,
            exchange_seconds,
        });
    }

    // spilled subdomains keep their host-computed numerics; report them as
    // host timings (no stream, no device)
    report.subdomains.extend(plan.spilled.iter().map(|&g| {
        SubdomainTiming::on_host(
            g,
            costs[g].n_dofs,
            costs[g].n_lambda,
            recorded[g].host_seconds,
        )
    }));
    report.subdomains.sort_by_key(|t| t.index);
    report.cache_hits = cache.hits();
    report.cache_misses = cache.misses();
    report.total_seconds = t0.elapsed().as_secs_f64();
    (recorded.into_iter().map(|r| r.f).collect(), report)
}

/// One subdomain's record-phase output: the host-computed `F̃ᵢ` (bitwise
/// identical to the CPU path), the kernel-cost sequence to replay (with the
/// per-kernel arena-slot accesses for the hazard-audit trace), and the host
/// task time.
struct Recorded<S: Scalar = f64> {
    f: MatOf<S>,
    costs: Vec<sc_gpu::KernelCost>,
    accesses: Vec<sc_gpu::SlotAccess>,
    host_seconds: f64,
}

/// The record phase: host-parallel numerics through [`RecordingExec`], plus
/// per-subdomain analytic cost estimates under `spec` — the planner's
/// arena footprints and exchange bytes; its seconds come from the recorded
/// kernels instead.
fn record_batch<S: Scalar, Src: BatchSource<S>>(
    src: &Src,
    cfg: &ScConfig,
    spec: &DeviceSpec,
    cache: &BlockCutsCache,
) -> (Vec<Recorded<S>>, Vec<CostEstimate>) {
    (0..src.len())
        .into_par_iter()
        .map(|i| {
            let t_host = Instant::now();
            let l = src.factor(i);
            let bt = src.gluing(i);
            let params = cfg.resolve(true, &l, bt);
            let estimate = schedule::estimate_cost(spec, &l, bt, &params, i);
            let mut rec = RecordingExec::new();
            rec.record_upload_csc(&l);
            rec.record_upload_csc(bt);
            let f = assemble_sc_with_cache(&mut rec, &l, bt, cfg, Some(cache));
            rec.record_download_bytes(0); // result stays on device
            let (costs, accesses) = rec.into_recording();
            let recorded = Recorded {
                f,
                costs,
                accesses,
                host_seconds: t_host.elapsed().as_secs_f64(),
            };
            (recorded, estimate)
        })
        .collect::<Vec<_>>()
        .into_iter()
        .unzip()
}

/// The replay phase, for one device: execute the per-stream submission
/// queues `lanes` (the device's leaf of the plan; batch indices into
/// `recorded`/`costs`/`ready_at`) onto `dev`, admitting each subdomain
/// against the device's temporary arena ("wait") and applying
/// per-subdomain host readiness ("mix"). Returns the device's report
/// section, numbered `d`.
///
/// The replay merges the per-stream queues **kernel by kernel** in
/// stream-clock order: submitting a whole subdomain at once would hand the
/// concurrency slot heap a non-chronological sequence and serialize streams
/// that really overlap.
///
/// Every replay also emits a hazard-audit [`Trace`]: an `Alloc` event at
/// each subdomain's arena admission, one `Kernel` event per replayed launch
/// (stream, span, and the slot read/write sets bound from the recorder's
/// relative accesses), and a `Free` event at the release — plus the
/// device's own span log over the replay window as an independent witness
/// of per-stream serialization. The span log is captured non-destructively:
/// an outer `enable_span_log` caller still drains the full log afterwards.
fn replay_device<S: Scalar>(
    device: &Arc<Device>,
    d: usize,
    lanes: &[Vec<usize>],
    recorded: &[Recorded<S>],
    costs: &[CostEstimate],
    ready_at: Option<&[f64]>,
) -> DeviceReport {
    let sync0 = device.synchronize();
    let busy0 = device.busy_seconds();
    let n_streams = lanes.len();
    let mut arena = ArenaSim::new(device.arena_capacity());
    let mut executed: Vec<ScheduledSpan> = Vec::with_capacity(lanes.iter().map(Vec::len).sum());
    let outer_span_log = device.span_log_enabled();
    device.enable_span_log();
    let span_log_mark = device.span_log_len();
    let mut events: Vec<TraceEvent> = Vec::with_capacity(
        lanes
            .iter()
            .flatten()
            .map(|&i| recorded[i].costs.len() + 2)
            .sum(),
    );
    struct InFlight {
        index: usize,
        kpos: usize,
        admitted_at: f64,
        span: Option<SimSpan>,
        bytes: usize,
        handle: usize,
    }
    let mut next = vec![0usize; n_streams];
    let mut current: Vec<Option<InFlight>> = (0..n_streams).map(|_| None).collect();
    loop {
        // candidates in clock order (ties by id): streams with a kernel in
        // flight, or with a queued subdomain to admit
        let mut order: Vec<usize> = (0..n_streams)
            .filter(|&s| current[s].is_some() || next[s] < lanes[s].len())
            .collect();
        if order.is_empty() {
            break;
        }
        order.sort_by(|&a, &b| {
            device
                .stream_time(a)
                .partial_cmp(&device.stream_time(b))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let mut acted = false;
        for s in order {
            if let Some(fl) = current[s].as_mut() {
                // replay the subdomain's next kernel
                let cost = &recorded[fl.index].costs[fl.kpos];
                let access = recorded[fl.index].accesses[fl.kpos];
                let k = device.submit(s, cost, 0.0);
                events.push(TraceEvent::Kernel {
                    label: cost.label,
                    stream: s,
                    span: k,
                    reads: if access.reads {
                        vec![fl.index]
                    } else {
                        Vec::new()
                    },
                    writes: if access.writes {
                        vec![fl.index]
                    } else {
                        Vec::new()
                    },
                });
                fl.kpos += 1;
                fl.span = Some(match fl.span {
                    None => k,
                    Some(acc) => SimSpan {
                        start: acc.start,
                        end: k.end,
                    },
                });
                if fl.kpos == recorded[fl.index].costs.len() {
                    // last kernel replayed: release the arena reservation
                    let fl = current[s].take().expect("in flight");
                    let span = fl.span.unwrap_or(SimSpan {
                        start: fl.admitted_at,
                        end: fl.admitted_at,
                    });
                    arena.close(fl.handle, span.end);
                    events.push(TraceEvent::Free {
                        slot: fl.index,
                        at: span.end,
                    });
                    executed.push(ScheduledSpan {
                        index: fl.index,
                        stream: s,
                        admitted_at: fl.admitted_at,
                        span,
                        temp_bytes: fl.bytes,
                    });
                }
                acted = true;
                break;
            }
            let i = lanes[s][next[s]];
            // "mix": the subdomain's host preparation finished at ready_at[i]
            if let Some(ready) = ready_at {
                device.advance_stream(s, ready[i]);
            }
            // "wait": stall the stream until the arena can hold the
            // temporaries; blocked by an in-flight holder → let another
            // stream replay first
            let bytes = costs[i].temp_bytes;
            let Some(admitted_at) = arena.try_admit(bytes, device.stream_time(s)) else {
                continue;
            };
            device.advance_stream(s, admitted_at);
            let handle = arena.open(admitted_at, bytes);
            events.push(TraceEvent::Alloc {
                slot: i,
                bytes,
                at: admitted_at,
            });
            current[s] = Some(InFlight {
                index: i,
                kpos: 0,
                admitted_at,
                span: None,
                bytes,
                handle,
            });
            next[s] += 1;
            acted = true;
            break;
        }
        assert!(
            acted,
            "scheduler deadlock: every stream blocked on the arena with \
             nothing in flight (admission bookkeeping bug)"
        );
    }
    let span_log = device.span_log_since(span_log_mark);
    if !outer_span_log {
        device.disable_span_log();
    }
    let makespan = device.synchronize() - sync0;
    let busy = device.busy_seconds() - busy0;
    let cap = makespan * n_streams.max(1) as f64; // sc-analyze: allow(precision-discipline)
    DeviceReport {
        device: d,
        subdomains: executed.iter().map(|e| e.index).collect(),
        schedule: executed,
        makespan,
        utilization: if cap > 0.0 { busy / cap } else { 0.0 },
        temp_high_water: arena.high_water(),
        trace: Some(Trace {
            arena_capacity: device.arena_capacity(),
            // the oversubscription audit compares arena reservations sized
            // with the replay's working precision (satellite of the mixed-
            // precision refactor: 4 for f32 replays, 8 for f64)
            elem_bytes: S::BYTES,
            n_streams,
            concurrency: device.spec().concurrency,
            events,
            span_log,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assemble::assemble_sc;
    use crate::exec::CpuExec;
    use crate::schedule::StreamPolicy;
    use crate::session::Target;
    use crate::trsm::FactorStorage;
    use sc_factor::{CholOptions, SparseCholesky};
    use sc_gpu::{DevicePool, DeviceSpec};
    use sc_sparse::{Coo, Csc};

    /// A small family of SPD matrices + gluing blocks mimicking a cluster of
    /// equal-size subdomains with slightly different couplings.
    fn cluster(nsub: usize, nx: usize, m: usize) -> Vec<(Csc, Csc)> {
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
                let mut b = Coo::new(n, m);
                for j in 0..m {
                    let d = (j * 7919 + s * 131) % n;
                    b.push(d, j, if (j + s).is_multiple_of(2) { 1.0 } else { -1.0 });
                }
                (k, b.to_csc())
            })
            .collect()
    }

    fn factorized(cluster: &[(Csc, Csc)]) -> Vec<(Csc, Csc)> {
        cluster
            .iter()
            .map(|(k, bt)| {
                let chol = SparseCholesky::factorize(k, CholOptions::default()).unwrap();
                (chol.factor_csc(), bt.permute_rows(chol.perm()))
            })
            .collect()
    }

    /// The one driver over a target's device tree, spills not tolerated.
    fn on_target(
        target: &Target,
        items: &[BatchItem<'_>],
        cfg: &ScConfig,
    ) -> (Vec<sc_dense::Mat>, AssemblyReport) {
        let (topo, groups, opts) = target.device_tree().expect("a device target");
        batch_devices(items, cfg, &topo, &groups, opts, false)
    }

    /// … on one GPU (the one-node, one-device tree).
    fn on_gpu(
        items: &[BatchItem<'_>],
        cfg: &ScConfig,
        dev: &Arc<Device>,
        opts: &ScheduleOptions,
    ) -> (Vec<sc_dense::Mat>, AssemblyReport) {
        let target = Target::Gpu {
            device: Arc::clone(dev),
            schedule: opts.clone(),
        };
        on_target(&target, items, cfg)
    }

    /// … on a device pool.
    fn on_pool(
        items: &[BatchItem<'_>],
        cfg: &ScConfig,
        pool: &Arc<DevicePool>,
        opts: &ScheduleOptions,
    ) -> (Vec<sc_dense::Mat>, AssemblyReport) {
        let target = Target::Cluster {
            pool: Arc::clone(pool),
            opts: opts.clone(),
        };
        on_target(&target, items, cfg)
    }

    /// The blind stream-assignment baseline: subdomain `i` on stream
    /// `i mod n_streams`, in index order.
    fn round_robin() -> ScheduleOptions {
        ScheduleOptions::default().with_policy(StreamPolicy::RoundRobin)
    }

    /// A size-skewed cluster: subdomain grid sizes cycling through `sizes`.
    fn skewed_cluster(nsub: usize, sizes: &[usize], m: usize) -> Vec<(Csc, Csc)> {
        (0..nsub)
            .flat_map(|s| {
                let nx = sizes[s % sizes.len()];
                cluster(1, nx, m.min(nx * nx))
            })
            .collect()
    }

    #[test]
    fn batch_matches_sequential_bitwise() {
        let data = factorized(&cluster(9, 7, 12));
        let items: Vec<BatchItem<'_>> = data.iter().map(|(l, bt)| BatchItem { l, bt }).collect();
        for cfg in [
            ScConfig::optimized(false, false),
            ScConfig::optimized(false, true),
            ScConfig::original(FactorStorage::Sparse),
            ScConfig::Auto,
        ] {
            let (f, _) = batch_cpu(items.as_slice(), &cfg);
            assert_eq!(f.len(), items.len());
            for (i, (l, bt)) in data.iter().enumerate() {
                let seq = assemble_sc(&mut CpuExec, l, bt, &cfg);
                assert_eq!(
                    f[i], seq,
                    "batched F̃ must equal sequential F̃ bitwise (subdomain {i})"
                );
            }
        }
    }

    #[test]
    fn cache_is_shared_across_equal_subdomains() {
        let data = factorized(&cluster(8, 6, 10));
        let items: Vec<BatchItem<'_>> = data.iter().map(|(l, bt)| BatchItem { l, bt }).collect();
        let cfg = ScConfig::optimized(false, false);
        let (_, r) = batch_cpu(items.as_slice(), &cfg);
        // Equal-size subdomains: after the first resolution per (param, n)
        // the rest must hit. With 8 subdomains there are far more lookups
        // than distinct keys.
        assert!(
            r.cache_hits > r.cache_misses,
            "expected mostly hits, got {} hits / {} misses",
            r.cache_hits,
            r.cache_misses
        );
        assert_eq!(r.subdomains.len(), 8);
        assert!(r.subdomains.iter().all(|t| t.seconds >= 0.0));
        assert!(r.subdomains.iter().all(|t| t.host_seconds >= 0.0));
        assert!(r.total_seconds > 0.0);
        assert!(r.cpu_seconds() > 0.0);
        assert_eq!(r.makespan, 0.0, "CPU batch has no device makespan");
        assert!(r.devices.is_empty(), "CPU batch touches no device");
    }

    #[test]
    fn gpu_batch_matches_cpu_batch_and_advances_timeline() {
        let data = factorized(&cluster(8, 6, 10));
        let items: Vec<BatchItem<'_>> = data.iter().map(|(l, bt)| BatchItem { l, bt }).collect();
        let cfg = ScConfig::optimized(true, false);
        let (cpu, _) = batch_cpu(items.as_slice(), &cfg);
        let dev = Device::new(DeviceSpec::a100(), 4);
        let (gpu, report) = on_gpu(items.as_slice(), &cfg, &dev, &round_robin());
        for i in 0..items.len() {
            assert_eq!(cpu[i], gpu[i], "backend mismatch at subdomain {i}");
        }
        assert!(dev.synchronize() > 0.0, "device timeline must advance");
        assert!(report.makespan > 0.0);
        // round-robin: subdomain i runs on stream i mod n_streams
        for t in &report.subdomains {
            assert_eq!(t.stream, Some(t.index % dev.n_streams()));
        }
    }

    #[test]
    fn gpu_timings_are_simulated_and_bounded_by_makespan() {
        // the GPU path must report simulated stream seconds, not host wall
        // time: each subdomain's span lives on one stream, spans on a stream
        // do not overlap, so their sum is at most sync × n_streams
        let data = factorized(&cluster(10, 7, 12));
        let items: Vec<BatchItem<'_>> = data.iter().map(|(l, bt)| BatchItem { l, bt }).collect();
        let cfg = ScConfig::optimized(true, false);
        let dev = Device::new(DeviceSpec::a100(), 3);
        let (_, report) = on_gpu(items.as_slice(), &cfg, &dev, &round_robin());
        let sync = dev.synchronize();
        let sum: f64 = report.subdomains.iter().map(|t| t.seconds).sum();
        assert!(
            sum <= sync * dev.n_streams() as f64 + 1e-12,
            "Σ simulated subdomain seconds {sum} must be ≤ sync {sync} × {} streams",
            dev.n_streams()
        );
        for t in &report.subdomains {
            let span = t.span.expect("GPU timings carry spans");
            assert!((span.duration() - t.seconds).abs() < 1e-15);
            assert!(t.stream.is_some());
            assert!(t.host_seconds >= 0.0);
            assert!(span.end <= sync + 1e-15);
        }
        // spans within one stream must not overlap
        for s in 0..dev.n_streams() {
            let mut spans: Vec<SimSpan> = report
                .subdomains
                .iter()
                .filter(|t| t.stream == Some(s))
                .map(|t| t.span.unwrap())
                .collect();
            spans.sort_by(|a, b| a.start.partial_cmp(&b.start).unwrap());
            for w in spans.windows(2) {
                assert!(
                    w[1].start >= w[0].end - 1e-15,
                    "stream {s}: spans overlap: {w:?}"
                );
            }
        }
    }

    #[test]
    fn scheduled_matches_sequential_bitwise_and_is_deterministic() {
        let data = factorized(&skewed_cluster(12, &[4, 9, 6, 12], 10));
        let items: Vec<BatchItem<'_>> = data.iter().map(|(l, bt)| BatchItem { l, bt }).collect();
        for cfg in [ScConfig::optimized(true, false), ScConfig::Auto] {
            let dev = Device::new(DeviceSpec::a100(), 4);
            let (f, a) = on_gpu(items.as_slice(), &cfg, &dev, &ScheduleOptions::default());
            for (i, (l, bt)) in data.iter().enumerate() {
                // sequential host reference; RecordingExec resolves Auto with
                // the same GPU-platform flag the scheduled driver uses while
                // computing on the CPU kernels
                let seq = assemble_sc(&mut RecordingExec::new(), l, bt, &cfg);
                assert_eq!(f[i], seq, "scheduled F̃ must be bitwise sequential ({i})");
                if matches!(cfg, ScConfig::Fixed(_)) {
                    let cpu = assemble_sc(&mut CpuExec, l, bt, &cfg);
                    assert_eq!(f[i], cpu, "fixed configs match the CPU backend bitwise");
                }
            }
            // reproducible simulated timeline on a fresh device
            let dev2 = Device::new(DeviceSpec::a100(), 4);
            let (_, b) = on_gpu(items.as_slice(), &cfg, &dev2, &ScheduleOptions::default());
            assert_eq!(dev.synchronize(), dev2.synchronize());
            for (x, y) in a.devices[0].schedule.iter().zip(&b.devices[0].schedule) {
                assert_eq!(x.index, y.index);
                assert_eq!(x.stream, y.stream);
                assert_eq!(x.span, y.span);
            }
        }
    }

    #[test]
    fn scheduled_beats_round_robin_on_skewed_batch() {
        // ≥ 16 subdomains with ≥ 4× dof spread (16 vs 144 dofs): the
        // acceptance workload of the scheduler
        let data = factorized(&skewed_cluster(16, &[12, 4, 4, 4], 10));
        assert!(data.len() >= 16);
        let items: Vec<BatchItem<'_>> = data.iter().map(|(l, bt)| BatchItem { l, bt }).collect();
        let cfg = ScConfig::optimized(true, false);

        let dev_rr = Device::new(DeviceSpec::a100(), 4);
        let (rr, _) = on_gpu(items.as_slice(), &cfg, &dev_rr, &round_robin());
        let dev_s = Device::new(DeviceSpec::a100(), 4);
        let (sched, _) = on_gpu(items.as_slice(), &cfg, &dev_s, &ScheduleOptions::default());
        assert!(
            dev_s.synchronize() < dev_rr.synchronize(),
            "LPT schedule {} must beat round-robin {}",
            dev_s.synchronize(),
            dev_rr.synchronize()
        );
        for i in 0..items.len() {
            assert_eq!(rr[i], sched[i], "policy must not change numerics");
        }
    }

    #[test]
    fn scheduled_admission_respects_arena_capacity() {
        // a tiny device: the arena holds one subdomain's temporaries but not
        // two, so admissions must serialize
        let data = factorized(&cluster(6, 8, 14));
        let items: Vec<BatchItem<'_>> = data.iter().map(|(l, bt)| BatchItem { l, bt }).collect();
        let spec = DeviceSpec {
            memory_bytes: 128 * 1024, // 64 KiB arena
            ..DeviceSpec::a100()
        };
        let dev = Device::new(spec, 4);
        let capacity = dev.arena_capacity();
        let (_, report) = on_gpu(
            items.as_slice(),
            &ScConfig::optimized(true, false),
            &dev,
            &ScheduleOptions::default(),
        );
        let res = &report.devices[0];
        assert!(res.temp_high_water <= capacity);
        assert!(res.temp_high_water > 0);
        assert_eq!(res.schedule.len(), items.len());
        // at least one stream must have stalled for the arena: its subdomain
        // was admitted strictly after the stream's previous work ended (no
        // ready_at is set, so nothing else can delay admission)
        let mut prev_end = vec![0.0f64; dev.n_streams()];
        let mut waited = false;
        for e in &res.schedule {
            if e.admitted_at > prev_end[e.stream] + 1e-15 {
                waited = true;
            }
            prev_end[e.stream] = e.span.end;
        }
        assert!(waited, "tiny arena must force admission waits");

        // control: with the full A100 arena the same batch never stalls
        let dev_big = Device::new(DeviceSpec::a100(), 4);
        let (_, res_big) = on_gpu(
            items.as_slice(),
            &ScConfig::optimized(true, false),
            &dev_big,
            &ScheduleOptions::default(),
        );
        let mut prev_end = vec![0.0f64; dev_big.n_streams()];
        for e in &res_big.devices[0].schedule {
            assert!(
                e.admitted_at <= prev_end[e.stream] + 1e-15,
                "unconstrained arena must admit without stalls (subdomain {})",
                e.index
            );
            prev_end[e.stream] = e.span.end;
        }
    }

    #[test]
    fn scheduled_mix_applies_host_readiness() {
        let data = factorized(&cluster(4, 6, 8));
        let items: Vec<BatchItem<'_>> = data.iter().map(|(l, bt)| BatchItem { l, bt }).collect();
        let dev = Device::new(DeviceSpec::a100(), 2);
        let ready = vec![0.5, 0.25, 0.0, 1.0];
        let (_, res) = on_gpu(
            items.as_slice(),
            &ScConfig::optimized(true, false),
            &dev,
            &ScheduleOptions::default()
                .with_policy(StreamPolicy::LptLeastLoaded)
                .with_ready_at(ready.clone()),
        );
        for e in &res.devices[0].schedule {
            assert!(
                e.span.start >= ready[e.index] - 1e-15,
                "subdomain {} started at {} before its host readiness {}",
                e.index,
                e.span.start,
                ready[e.index]
            );
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let empty: &[BatchItem] = &[];
        let (f, report) = batch_cpu(empty, &ScConfig::optimized(false, false));
        assert!(f.is_empty());
        assert_eq!(report.cache_hits + report.cache_misses, 0);
        // every device target keeps one idle section per device
        let dev = Device::new(DeviceSpec::a100(), 2);
        for opts in [ScheduleOptions::default(), round_robin()] {
            let (f, report) = on_gpu(empty, &ScConfig::Auto, &dev, &opts);
            assert!(f.is_empty());
            assert_eq!(report.devices.len(), 1);
            assert!(report.devices[0].subdomains.is_empty());
        }
        // empty batches never touch the device timeline
        assert_eq!(dev.synchronize(), 0.0);
        assert_eq!(dev.launches(), 0);
        let pool = DevicePool::uniform(DeviceSpec::a100(), 2, 2);
        let (f, cl) = on_pool(empty, &ScConfig::Auto, &pool, &ScheduleOptions::default());
        assert!(f.is_empty());
        assert_eq!(cl.devices.len(), 2);
        assert_eq!(cl.makespan, 0.0);
        assert!(cl.subdomains.is_empty());
        // clean empty report even on an empty pool
        let none = DevicePool::from_devices(Vec::new());
        let (f, cl) = on_pool(empty, &ScConfig::Auto, &none, &ScheduleOptions::default());
        assert!(f.is_empty() && cl.devices.is_empty());
    }

    /// Message of the panic `f` raises.
    fn panic_message(f: impl FnOnce()) -> String {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_err();
        err.downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| err.downcast_ref::<&str>().unwrap_or(&"").to_string())
    }

    #[test]
    fn zero_stream_devices_are_rejected_with_a_clear_error() {
        let data = factorized(&cluster(2, 5, 6));
        let items: Vec<BatchItem<'_>> = data.iter().map(|(l, bt)| BatchItem { l, bt }).collect();
        let cfg = ScConfig::optimized(true, false);
        let empty: &[BatchItem] = &[];
        for opts in [ScheduleOptions::default(), round_robin()] {
            // empty batches are fine even on a 0-stream device
            let dev = Device::new(DeviceSpec::a100(), 0);
            assert!(on_gpu(empty, &cfg, &dev, &opts).0.is_empty());
            // non-empty batches fail with the planner's typed error, not an
            // index panic
            let msg = panic_message(|| {
                on_gpu(items.as_slice(), &cfg, &dev, &opts);
            });
            assert_eq!(
                msg,
                format!("device placement failed: {}", ClusterPlanError::NoDevices)
            );
        }
    }

    #[test]
    fn cluster_matches_sequential_bitwise_and_places_each_subdomain_once() {
        let data = factorized(&skewed_cluster(12, &[4, 9, 6, 12], 10));
        let items: Vec<BatchItem<'_>> = data.iter().map(|(l, bt)| BatchItem { l, bt }).collect();
        for cfg in [ScConfig::optimized(true, false), ScConfig::Auto] {
            let pool = DevicePool::uniform(DeviceSpec::a100(), 3, 2);
            let (f, report) = on_pool(items.as_slice(), &cfg, &pool, &ScheduleOptions::default());
            for (i, (l, bt)) in data.iter().enumerate() {
                let seq = assemble_sc(&mut RecordingExec::new(), l, bt, &cfg);
                assert_eq!(f[i], seq, "cluster F̃ must be bitwise sequential ({i})");
                if matches!(cfg, ScConfig::Fixed(_)) {
                    let cpu = assemble_sc(&mut CpuExec, l, bt, &cfg);
                    assert_eq!(f[i], cpu, "fixed configs match the CPU backend bitwise");
                }
            }
            // partition integrity
            let mut seen: Vec<usize> = report
                .devices
                .iter()
                .flat_map(|d| d.subdomains.iter().copied())
                .collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..items.len()).collect::<Vec<_>>());
            assert_eq!(report.subdomains.len(), items.len());
            for (i, t) in report.subdomains.iter().enumerate() {
                assert_eq!(t.index, i, "timings must be in batch order");
                let d = t.device.expect("nothing spills on the A100 pool");
                assert!(report.devices[d].subdomains.contains(&i));
            }
            // roll-up consistency
            assert_eq!(
                report.makespan,
                report
                    .devices
                    .iter()
                    .map(|d| d.makespan)
                    .fold(0.0, f64::max)
            );
            assert!(report
                .devices
                .iter()
                .all(|d| (0.0..=1.0).contains(&d.utilization)));
        }
    }

    #[test]
    fn cluster_beats_single_device_on_skewed_batches() {
        let data = factorized(&skewed_cluster(16, &[12, 4, 6, 3], 10));
        let items: Vec<BatchItem<'_>> = data.iter().map(|(l, bt)| BatchItem { l, bt }).collect();
        let cfg = ScConfig::optimized(true, false);
        let one = DevicePool::uniform(DeviceSpec::a100(), 1, 4);
        let (f1, r1) = on_pool(items.as_slice(), &cfg, &one, &ScheduleOptions::default());
        let four = DevicePool::uniform(DeviceSpec::a100(), 4, 4);
        let (f4, r4) = on_pool(items.as_slice(), &cfg, &four, &ScheduleOptions::default());
        assert!(
            r4.makespan < r1.makespan,
            "4 devices ({}) must beat 1 device ({})",
            r4.makespan,
            r1.makespan
        );
        // the single-device cluster path is exactly the scheduled driver
        let dev = Device::new(DeviceSpec::a100(), 4);
        let (f, sched) = on_gpu(items.as_slice(), &cfg, &dev, &ScheduleOptions::default());
        assert_eq!(r1.makespan, sched.makespan);
        for i in 0..items.len() {
            assert_eq!(f1[i], f[i]);
            assert_eq!(f1[i], f4[i], "device count must not change numerics");
        }
    }

    #[test]
    fn heterogeneous_pool_falls_back_to_the_big_card() {
        // big subdomains whose temporaries exceed the tiny card's 512 KiB
        // arena (8 n m > 2¹⁹ needs n·m > 65536): the planner must route
        // them to the A100, small ones may go anywhere
        let data = factorized(&skewed_cluster(4, &[31, 3], 70));
        let items: Vec<BatchItem<'_>> = data.iter().map(|(l, bt)| BatchItem { l, bt }).collect();
        let cfg = ScConfig::optimized(true, false);
        let pool =
            DevicePool::heterogeneous(&[DeviceSpec::a100(), DeviceSpec::tiny_test_device()], 2);
        let tiny_arena = pool.device(1).arena_capacity();
        let spec = pool.device(0).spec().clone();
        let mut oversized = 0;
        for (i, it) in items.iter().enumerate() {
            let params = cfg.resolve(true, it.l, it.bt);
            let est = crate::schedule::estimate_cost(&spec, it.l, it.bt, &params, i);
            if est.temp_bytes > tiny_arena {
                oversized += 1;
            }
        }
        assert!(
            oversized > 0,
            "workload must contain tiny-card-oversized subdomains"
        );
        let (f, report) = on_pool(items.as_slice(), &cfg, &pool, &ScheduleOptions::default());
        for (i, it) in items.iter().enumerate() {
            let params = cfg.resolve(true, it.l, it.bt);
            let est = crate::schedule::estimate_cost(&spec, it.l, it.bt, &params, i);
            if est.temp_bytes > tiny_arena {
                assert_eq!(
                    report.device_of(i),
                    Some(0),
                    "oversized subdomain {i} must run on the big card"
                );
            }
            let seq = assemble_sc(&mut CpuExec, it.l, it.bt, &cfg);
            assert_eq!(f[i], seq, "heterogeneous F̃ deviates at {i}");
        }
        // per-device arenas were never oversubscribed
        for (d, rep) in report.devices.iter().enumerate() {
            assert!(rep.temp_high_water <= pool.device(d).arena_capacity());
        }
    }

    #[test]
    fn cluster_mix_applies_host_readiness() {
        let data = factorized(&cluster(6, 6, 8));
        let items: Vec<BatchItem<'_>> = data.iter().map(|(l, bt)| BatchItem { l, bt }).collect();
        let pool = DevicePool::uniform(DeviceSpec::a100(), 2, 2);
        let ready: Vec<f64> = (0..items.len()).map(|i| 0.25 * i as f64).collect();
        let (_, report) = on_pool(
            items.as_slice(),
            &ScConfig::optimized(true, false),
            &pool,
            &ScheduleOptions::default()
                .with_policy(StreamPolicy::LptLeastLoaded)
                .with_ready_at(ready.clone()),
        );
        for rep in &report.devices {
            for e in &rep.schedule {
                assert!(
                    e.span.start >= ready[e.index] - 1e-15,
                    "subdomain {} started at {} before its readiness {}",
                    e.index,
                    e.span.start,
                    ready[e.index]
                );
            }
        }
    }

    #[test]
    fn cluster_routes_around_a_zero_stream_device() {
        // a pool carrying a drained (0-stream) card next to a working one:
        // the planner must keep the dead card idle instead of stranding
        // subdomains on it
        let data = factorized(&cluster(5, 6, 8));
        let items: Vec<BatchItem<'_>> = data.iter().map(|(l, bt)| BatchItem { l, bt }).collect();
        let cfg = ScConfig::optimized(true, false);
        let pool = DevicePool::from_devices(vec![
            Device::new(DeviceSpec::a100(), 0),
            Device::new(DeviceSpec::a100(), 4),
        ]);
        let (f, report) = on_pool(items.as_slice(), &cfg, &pool, &ScheduleOptions::default());
        assert!(
            report.devices[0].subdomains.is_empty(),
            "dead card must stay idle"
        );
        assert_eq!(report.devices[1].subdomains.len(), items.len());
        assert_eq!(pool.device(0).synchronize(), 0.0);
        for (i, (l, bt)) in data.iter().enumerate() {
            let seq = assemble_sc(&mut CpuExec, l, bt, &cfg);
            assert_eq!(f[i], seq, "subdomain {i} deviates");
        }
    }

    #[test]
    fn a_subdomain_that_fits_nowhere_panics_with_the_spill_list() {
        // 8 n m = 8 · 1024 · 80 = 640 KiB of temporaries > the tiny card's
        // 512 KiB arena, on every device of the pool — and on a single GPU
        let data = factorized(&cluster(1, 32, 80));
        let items: Vec<BatchItem<'_>> = data.iter().map(|(l, bt)| BatchItem { l, bt }).collect();
        let cfg = ScConfig::optimized(true, false);
        let pool = DevicePool::uniform(DeviceSpec::tiny_test_device(), 2, 2);
        let want = format!(
            "device placement failed: {}",
            ClusterPlanError::Spilled {
                spilled: vec![0],
                max_arena: pool.device(0).arena_capacity(),
            }
        );
        let opts = ScheduleOptions::default();
        let on_the_pool = panic_message(|| {
            on_pool(items.as_slice(), &cfg, &pool, &opts);
        });
        assert_eq!(on_the_pool, want);
        let on_one_gpu = panic_message(|| {
            on_gpu(items.as_slice(), &cfg, pool.device(0), &opts);
        });
        assert_eq!(on_one_gpu, want);
    }

    #[test]
    fn empty_and_one_column_subdomains_assemble_cleanly() {
        // a batch mixing a zero-lambda subdomain (empty B̃ᵀ), a one-column
        // subdomain, and a regular one — every driver must return the
        // degenerate 0×0 / 1×1 F̃ cleanly
        let base = factorized(&cluster(1, 6, 9));
        let (l_reg, bt_reg) = base[0].clone();
        let n = l_reg.ncols();
        let bt_empty = Csc::zeros(n, 0);
        let mut one = Coo::new(n, 1);
        one.push(n / 2, 0, 1.0);
        let bt_one = one.to_csc();
        let data = [
            (l_reg.clone(), bt_empty),
            (l_reg.clone(), bt_one),
            (l_reg, bt_reg),
        ];
        let items: Vec<BatchItem<'_>> = data.iter().map(|(l, bt)| BatchItem { l, bt }).collect();
        for cfg in [
            ScConfig::optimized(false, false),
            ScConfig::optimized(true, true),
            ScConfig::original(FactorStorage::Dense),
            ScConfig::Auto,
        ] {
            let (cpu, _) = batch_cpu(items.as_slice(), &cfg);
            assert_eq!(cpu[0].nrows(), 0);
            assert_eq!(cpu[0].ncols(), 0);
            assert_eq!(cpu[1].nrows(), 1);
            assert!(cpu[1][(0, 0)] > 0.0, "1×1 F̃ must be positive");
            let dev = Device::new(DeviceSpec::a100(), 2);
            let (rr, _) = on_gpu(items.as_slice(), &cfg, &dev, &round_robin());
            let (sched, _) = on_gpu(items.as_slice(), &cfg, &dev, &ScheduleOptions::default());
            for i in 0..items.len() {
                assert_eq!(cpu[i], rr[i], "round-robin mismatch at {i}");
                assert_eq!(cpu[i], sched[i], "scheduled mismatch at {i}");
            }
        }
    }
}
