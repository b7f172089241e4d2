//! Parallel batched multi-subdomain assembly.
//!
//! The paper's production setting (like its CUDA predecessor, arXiv:2502.08382)
//! assembles the dense local dual operators `F̃ᵢ` of **hundreds of subdomains
//! per cluster**, one OpenMP thread per subdomain. This module is that loop:
//! two crate-private drivers behind
//! [`AssemblySession::assemble`](crate::session::AssemblySession::assemble),
//! each over a slice of [`BatchEntry`]s, filling the one [`AssemblyReport`].
//! Both run one per-subdomain body that shares no state between subdomains:
//! it resolves the configuration, asks the entry once for its
//! [`AssemblyShape`](crate::AssemblyShape), cuts it into the
//! [`AssemblyPlan`] and runs the plan's numeric phase.
//!
//! - **CPU** (`batch_cpu`) — one rayon task per subdomain;
//! - **every device target** (`batch_devices`) — one pass over the
//!   target's device pool as a [`Topology`] (one GPU is a pool of one).
//!   **Record once**: the numerics run host-parallel (bitwise the CPU
//!   path), and each subdomain's kernel sequence is the uploads, the plan's
//!   [`launches`](AssemblyPlan::launches) and the download, beside its
//!   arena footprint ([`temp_footprint`]). **Plan once**:
//!   [`plan_topology_by`] places the whole batch (cost-aware LPT across
//!   devices under per-device arena admissibility, then the paper's §4.4
//!   stream assignment per device, or the blind round-robin baseline),
//!   pricing both levels with the recorded kernels under each device's own
//!   [`DeviceSpec::kernel_seconds`](sc_gpu::DeviceSpec::kernel_seconds).
//!   **Replay**: each device executes the lanes the plan holds, kernel by
//!   kernel in stream-clock order, admitting every subdomain against its
//!   temporary arena ("wait") and honouring host readiness ("mix"): a
//!   deterministic simulated timeline. A subdomain that fits no device
//!   arena aborts the batch; routing it elsewhere is the hybrid planner's
//!   decision ([`plan_hybrid`](crate::plan_hybrid)).
//!
//! Each `F̃ᵢ`'s packed lower triangle is **identical** to running
//! [`AssemblyPlan::assemble`] per subdomain sequentially (tests assert it
//! bitwise for every target). Each subdomain has one [`SubdomainTiming`]
//! row: host wall seconds on every target and, on a device target, the
//! replayed [`ScheduledSpan`], the only place a placement is stated; the
//! device sections keep their roll-ups, the makespan is
//! [`AssemblyReport::makespan`].

use crate::assemble::{ScConfig, ScParams};
use crate::plan::AssemblyPlan;
use crate::schedule::{plan_topology_by, temp_footprint, ScheduleOptions, Topology};
use crate::session::{AssemblyReport, DeviceReport, ScheduledSpan, SubdomainTiming};
use crate::source::BatchEntry;
use rayon::prelude::*;
use sc_dense::SymPackedOf;
use sc_gpu::{ArenaSim, Device, DevicePool, KernelCost, SimSpan, SlotAccess, Trace, TraceEvent};
use std::sync::Arc;
use std::time::Instant;

/// The per-subdomain body of both drivers: `cfg` resolved on the platform
/// (`gpu`), the entry's shape cut into its plan, the plan's numeric phase
/// (the packed `F̃ᵢ`), and the host seconds of all three.
fn assemble_one<E: BatchEntry>(
    entry: &E,
    cfg: &ScConfig,
    gpu: bool,
) -> (ScParams, AssemblyPlan, SymPackedOf<f64>, f64) {
    let t = Instant::now();
    let (l, bt) = (entry.factor(), entry.gluing());
    let params = cfg.resolve(gpu, l, bt);
    let plan = AssemblyPlan::cut(&entry.shape(), l, &params);
    let f = plan.assemble(l, bt);
    (params, plan, f, t.elapsed().as_secs_f64())
}

/// CPU batch driver: one rayon task per subdomain — the paper's
/// one-thread-per-subdomain cluster loop.
pub(crate) fn batch_cpu<E: BatchEntry>(
    src: &[E],
    cfg: &ScConfig,
) -> (Vec<SymPackedOf<f64>>, AssemblyReport) {
    let t0 = Instant::now();
    let assembled: Vec<(SymPackedOf<f64>, SubdomainTiming)> = (0..src.len())
        .into_par_iter()
        .map(|i| {
            let (.., f, host_seconds) = assemble_one(&src[i], cfg, false);
            let timing = SubdomainTiming {
                index: i,
                host_seconds,
                placement: None,
            };
            (f, timing)
        })
        .collect();
    let total_seconds = t0.elapsed().as_secs_f64();
    let (f, subdomains) = assembled.into_iter().unzip();
    let report = AssemblyReport {
        subdomains,
        total_seconds,
        ..Default::default()
    };
    (f, report)
}

/// **The** device driver: record every subdomain once, plan the whole
/// batch once over the `pool`'s [`Topology`] (one GPU is a pool of one),
/// replay each device from the lane assignment the plan holds.
///
/// The pricing closure is the same at both placement levels: the recorded
/// kernel sequence under each device's own duration model — launch overhead
/// and occupancy included, so launch-bound batches do not overload the card
/// with the biggest peak-FLOP number.
///
/// # Panics
///
/// When `opts.ready_at` does not carry one finite, non-negative entry per
/// batch item; when the batch is non-empty and no device is usable
/// ([`ClusterPlanError::NoDevices`](crate::ClusterPlanError::NoDevices)); or
/// when a subdomain's temporaries exceed every usable device's arena (the
/// plan's [`spilled`](crate::TopoPlan::spilled) set, named in the message).
pub(crate) fn batch_devices<E: BatchEntry>(
    src: &[E],
    cfg: &ScConfig,
    pool: &DevicePool,
    opts: &ScheduleOptions,
) -> (Vec<SymPackedOf<f64>>, AssemblyReport) {
    opts.assert_ready_at(src.len());
    let t0 = Instant::now();

    // record: every subdomain **once** — the numerics, kernel sequences and
    // arena footprints feed both planning levels and the replay
    let recorded = record_batch(src, cfg);

    // plan: devices, then each device's lanes, in one call
    let topo = Topology::of_pool(pool, opts.policy);
    let items: Vec<(usize, usize)> = (recorded.iter().enumerate())
        .map(|(i, r)| (i, r.temp_bytes))
        .collect();
    let plan = plan_topology_by(&items, &topo, |k, d| {
        let spec = &topo.slots[d].spec;
        recorded[k]
            .kernels
            .iter()
            .map(|(c, _)| spec.kernel_seconds(c))
            .sum()
    })
    .map_err(|e| e.to_string())
    .and_then(|plan| {
        if plan.spilled.is_empty() {
            return Ok(plan);
        }
        let max_arena = (topo.slots.iter().filter(|s| s.is_usable()))
            .map(|s| s.arena_capacity)
            .max()
            .unwrap_or(0);
        Err(format!(
            "{} subdomain(s) {:?} need more temporaries than the largest device \
             arena in the pool ({max_arena} B); recoverable: let \
             FormulationChoice::Auto reroute them, or re-plan without them",
            plan.spilled.len(),
            plan.spilled
        ))
    })
    // documented batch-API contract: planning failure aborts. sc-analyze: allow(panic-surface)
    .unwrap_or_else(|e| panic!("device placement failed: {e}"));

    // replay: device by device, for a deterministic simulated timeline
    let mut report = AssemblyReport::default();
    for (d, (dev, lanes)) in pool.devices().iter().zip(&plan.lanes).enumerate() {
        let dev_report = replay_device(
            dev,
            d,
            &lanes.per_lane,
            &recorded,
            opts.ready_at.as_deref(),
            &mut report.subdomains,
        );
        report.makespan = report.makespan.max(dev_report.makespan);
        report.devices.push(dev_report);
    }

    report.subdomains.sort_by_key(|t| t.index);
    report.total_seconds = t0.elapsed().as_secs_f64();
    (recorded.into_iter().map(|r| r.f).collect(), report)
}

/// One subdomain's record-phase output: the packed `F̃ᵢ`, the kernel
/// sequence to replay, each kernel with its arena-slot access for the
/// hazard-audit trace, the peak temporary footprint the planner admits and
/// the replay reserves, and the host task time.
struct Recorded {
    f: SymPackedOf<f64>,
    kernels: Vec<(KernelCost, SlotAccess)>,
    temp_bytes: usize,
    host_seconds: f64,
}

/// The record phase: the per-subdomain body host-parallel on the GPU
/// platform, plus each subdomain's [`temp_footprint`] (the planner's arena
/// admission; its seconds come from the recorded kernels). Each kernel
/// sequence is the uploads of `L` and `B̃ᵀ` (writing the arena slot), the
/// plan's launches (reading and writing it) and the download (reading it;
/// `F̃ᵢ` stays on the device, 0 bytes).
fn record_batch<E: BatchEntry>(src: &[E], cfg: &ScConfig) -> Vec<Recorded> {
    (0..src.len())
        .into_par_iter()
        .map(|i| {
            let (params, plan, f, host_seconds) = assemble_one(&src[i], cfg, true);
            let (l, bt) = (src[i].factor(), src[i].gluing());
            let upload = |nnz| (KernelCost::csc_transfer_of::<f64>(nnz), SlotAccess::write());
            let launches = plan.launches::<f64>().into_iter();
            let kernels = [upload(l.nnz()), upload(bt.nnz())]
                .into_iter()
                .chain(launches.map(|c| (c, SlotAccess::read_write())))
                .chain([(KernelCost::transfer(0.0), SlotAccess::read())])
                .collect();
            Recorded {
                f,
                kernels,
                temp_bytes: temp_footprint::<f64>(l.ncols(), bt.ncols(), &params),
                host_seconds,
            }
        })
        .collect()
}

/// The replay phase, for one device: execute the per-stream submission
/// queues `lanes` (the device's lane plan; batch indices into
/// `recorded`/`ready_at`) onto `dev`, admitting each subdomain
/// against the device's temporary arena ("wait") and applying
/// per-subdomain host readiness ("mix"). Pushes each subdomain's report row,
/// placed on device `d`, to `rows` as the subdomain completes, and returns
/// the device's report section.
///
/// The replay merges the per-stream queues **kernel by kernel** in
/// stream-clock order: submitting a whole subdomain at once would hand the
/// concurrency slot heap a non-chronological sequence and serialize streams
/// that really overlap.
///
/// Every replay also emits a hazard-audit [`Trace`]: an `Alloc` event at
/// each subdomain's arena admission, one `Kernel` event per replayed launch
/// (stream, span, and the slot read/write sets bound from the record phase's
/// relative accesses), and a `Free` event at the release — plus the
/// device's own span log over the replay window as an independent witness
/// of per-stream serialization. The span log is captured non-destructively:
/// an outer `enable_span_log` caller still drains the full log afterwards.
fn replay_device(
    device: &Arc<Device>,
    d: usize,
    lanes: &[Vec<usize>],
    recorded: &[Recorded],
    ready_at: Option<&[f64]>,
    rows: &mut Vec<SubdomainTiming>,
) -> DeviceReport {
    let sync0 = device.synchronize();
    let busy0 = device.busy_seconds();
    let n_streams = lanes.len();
    let mut arena = ArenaSim::new(device.arena_capacity());
    let outer_span_log = device.span_log_enabled();
    device.enable_span_log();
    let span_log_mark = device.span_log_len();
    let mut events: Vec<TraceEvent> = Vec::with_capacity(
        lanes
            .iter()
            .flatten()
            .map(|&i| recorded[i].kernels.len() + 2)
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
                let (cost, access) = &recorded[fl.index].kernels[fl.kpos];
                let k = device.submit(s, cost, 0.0);
                let slot = |touched: bool| if touched { vec![fl.index] } else { Vec::new() };
                events.push(TraceEvent::Kernel {
                    label: cost.label,
                    stream: s,
                    span: k,
                    reads: slot(access.reads),
                    writes: slot(access.writes),
                });
                fl.kpos += 1;
                fl.span = Some(match fl.span {
                    None => k,
                    Some(acc) => SimSpan {
                        start: acc.start,
                        end: k.end,
                    },
                });
                if fl.kpos == recorded[fl.index].kernels.len() {
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
                    rows.push(SubdomainTiming {
                        index: fl.index,
                        host_seconds: recorded[fl.index].host_seconds,
                        placement: Some(ScheduledSpan {
                            device: d,
                            stream: s,
                            admitted_at: fl.admitted_at,
                            span,
                            temp_bytes: fl.bytes,
                        }),
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
            let bytes = recorded[i].temp_bytes;
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
    let streams = u32::try_from(n_streams.max(1)).expect("stream count fits in 32 bits");
    let cap = makespan * f64::from(streams);
    DeviceReport {
        device: d,
        makespan,
        utilization: if cap > 0.0 { busy / cap } else { 0.0 },
        temp_high_water: arena.high_water(),
        trace: Some(Trace {
            arena_capacity: device.arena_capacity(),
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
    use crate::plan::FactorStorage;
    use crate::schedule::{ClusterPlanError, StreamPolicy};
    use crate::session::{AssemblySession, Backend};
    use sc_factor::{CholOptions, SparseCholesky};
    use sc_gpu::DeviceSpec;
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

    /// One subdomain's packed `F̃ᵢ` through the drivers' body, on its own.
    fn sequential(l: &Csc, bt: &Csc, cfg: &ScConfig, gpu: bool) -> SymPackedOf<f64> {
        assemble_one(&(l.clone(), bt.clone()), cfg, gpu).2
    }

    /// The one driver, through a session on a device `backend`.
    fn on(
        items: &[(Csc, Csc)],
        cfg: &ScConfig,
        backend: Backend,
    ) -> (Vec<SymPackedOf<f64>>, AssemblyReport) {
        let res = AssemblySession::new(backend, *cfg).assemble(items);
        (res.f, res.report)
    }

    /// Subdomain `t`'s device placement (every row of a device run has one).
    fn placed(t: &SubdomainTiming) -> ScheduledSpan {
        t.placement.expect("a device run places every subdomain")
    }

    /// The placements of a one-device run, in start order (chronological
    /// within each stream).
    fn chronological(report: &AssemblyReport) -> Vec<ScheduledSpan> {
        let mut all: Vec<ScheduledSpan> = report.subdomains.iter().map(placed).collect();
        all.sort_by(|a, b| a.span.start.total_cmp(&b.span.start));
        all
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
        for cfg in [
            ScConfig::optimized(false, false),
            ScConfig::optimized(false, true),
            ScConfig::original(FactorStorage::Sparse),
            ScConfig::Auto,
        ] {
            let (f, _) = batch_cpu(&data, &cfg);
            assert_eq!(f.len(), data.len());
            for (i, (l, bt)) in data.iter().enumerate() {
                let seq = sequential(l, bt, &cfg, false);
                assert_eq!(
                    f[i], seq,
                    "batched F̃ must equal sequential F̃ bitwise (subdomain {i})"
                );
            }
        }
    }

    #[test]
    fn cpu_batch_report_times_every_subdomain_on_the_host() {
        let data = factorized(&cluster(8, 6, 10));
        let cfg = ScConfig::optimized(false, false);
        let (_, r) = batch_cpu(&data, &cfg);
        assert_eq!(r.subdomains.len(), 8);
        assert!(r.subdomains.iter().all(|t| t.placement.is_none()));
        assert!(r.subdomains.iter().all(|t| t.host_seconds >= 0.0));
        assert!(r.total_seconds > 0.0);
        assert!(r.subdomains.iter().map(|t| t.host_seconds).sum::<f64>() > 0.0);
        assert_eq!(r.makespan, 0.0, "CPU batch has no device makespan");
        assert!(r.devices.is_empty(), "CPU batch touches no device");
    }

    #[test]
    fn gpu_batch_matches_cpu_batch_and_advances_timeline() {
        let data = factorized(&cluster(8, 6, 10));
        let cfg = ScConfig::optimized(true, false);
        let (cpu, _) = batch_cpu(&data, &cfg);
        let dev = Device::new(DeviceSpec::a100(), 4);
        let (gpu, report) = on(
            &data,
            &cfg,
            Backend::gpu_with(Arc::clone(&dev), round_robin()),
        );
        for i in 0..data.len() {
            assert_eq!(cpu[i], gpu[i], "backend mismatch at subdomain {i}");
        }
        assert!(dev.synchronize() > 0.0, "device timeline must advance");
        assert!(report.makespan > 0.0);
        // round-robin: subdomain i runs on stream i mod n_streams
        for t in &report.subdomains {
            assert_eq!(placed(t).stream, t.index % dev.n_streams());
        }
    }

    /// Each subdomain's replayed kernels touch its arena slot as the
    /// record phase tagged them: the two uploads write it, the plan's
    /// launches read and write it, the download reads it.
    #[test]
    fn replayed_kernels_touch_the_slot_as_recorded() {
        let data = factorized(&cluster(3, 6, 8));
        let cfg = ScConfig::optimized(true, false);
        let dev = Device::new(DeviceSpec::a100(), 2);
        let (_, report) = on(&data, &cfg, Backend::gpu(Arc::clone(&dev)));
        let trace = report.devices[0].trace.as_ref().expect("a replay traces");
        for (i, (l, bt)) in data.iter().enumerate() {
            let touches = trace.events.iter().filter_map(|e| match e {
                TraceEvent::Kernel { reads, writes, .. } => {
                    let (r, w) = (reads.contains(&i), writes.contains(&i));
                    (r || w).then_some((r, w))
                }
                _ => None,
            });
            let plan = AssemblyPlan::new(l, bt, &cfg.resolve(true, l, bt));
            let launches = plan.launches::<f64>().len();
            let mut want = vec![(false, true); 2];
            want.extend(vec![(true, true); launches]);
            want.push((true, false));
            assert_eq!(touches.collect::<Vec<_>>(), want, "subdomain {i}");
        }
    }

    #[test]
    fn gpu_timings_are_simulated_and_bounded_by_makespan() {
        // the GPU path must report simulated stream seconds, not host wall
        // time: each subdomain's span lives on one stream, spans on a stream
        // do not overlap, so their sum is at most sync × n_streams
        let data = factorized(&cluster(10, 7, 12));
        let cfg = ScConfig::optimized(true, false);
        let dev = Device::new(DeviceSpec::a100(), 3);
        let (_, report) = on(
            &data,
            &cfg,
            Backend::gpu_with(Arc::clone(&dev), round_robin()),
        );
        let sync = dev.synchronize();
        let sum: f64 = (report.subdomains.iter())
            .map(|t| placed(t).span.duration())
            .sum();
        assert!(
            sum <= sync * dev.n_streams() as f64 + 1e-12,
            "Σ simulated subdomain seconds {sum} must be ≤ sync {sync} × {} streams",
            dev.n_streams()
        );
        for t in &report.subdomains {
            assert!(t.host_seconds >= 0.0);
            assert!(placed(t).span.end <= sync + 1e-15);
        }
        // spans within one stream must not overlap
        for s in 0..dev.n_streams() {
            let mut spans: Vec<SimSpan> = (report.subdomains.iter().map(placed))
                .filter(|p| p.stream == s)
                .map(|p| p.span)
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
        for cfg in [ScConfig::optimized(true, false), ScConfig::Auto] {
            let dev = Device::new(DeviceSpec::a100(), 4);
            let (f, a) = on(&data, &cfg, Backend::gpu(Arc::clone(&dev)));
            for (i, (l, bt)) in data.iter().enumerate() {
                // sequential host reference, Auto resolved on the GPU
                // platform as the scheduled driver does
                let seq = sequential(l, bt, &cfg, true);
                assert_eq!(f[i], seq, "scheduled F̃ must be bitwise sequential ({i})");
                if matches!(cfg, ScConfig::Fixed(_)) {
                    let cpu = sequential(l, bt, &cfg, false);
                    assert_eq!(f[i], cpu, "fixed configs match the CPU backend bitwise");
                }
            }
            // reproducible simulated timeline on a fresh device
            let dev2 = Device::new(DeviceSpec::a100(), 4);
            let (_, b) = on(&data, &cfg, Backend::gpu(Arc::clone(&dev2)));
            assert_eq!(dev.synchronize(), dev2.synchronize());
            for (x, y) in a.subdomains.iter().zip(&b.subdomains) {
                assert_eq!(x.index, y.index);
                assert_eq!(placed(x), placed(y));
            }
        }
    }

    #[test]
    fn scheduled_beats_round_robin_on_skewed_batch() {
        // ≥ 16 subdomains with ≥ 4× dof spread (16 vs 144 dofs): the
        // acceptance workload of the scheduler
        let data = factorized(&skewed_cluster(16, &[12, 4, 4, 4], 10));
        assert!(data.len() >= 16);
        let cfg = ScConfig::optimized(true, false);

        let dev_rr = Device::new(DeviceSpec::a100(), 4);
        let (rr, _) = on(
            &data,
            &cfg,
            Backend::gpu_with(Arc::clone(&dev_rr), round_robin()),
        );
        let dev_s = Device::new(DeviceSpec::a100(), 4);
        let (sched, _) = on(&data, &cfg, Backend::gpu(Arc::clone(&dev_s)));
        assert!(
            dev_s.synchronize() < dev_rr.synchronize(),
            "LPT schedule {} must beat round-robin {}",
            dev_s.synchronize(),
            dev_rr.synchronize()
        );
        for i in 0..data.len() {
            assert_eq!(rr[i], sched[i], "policy must not change numerics");
        }
    }

    #[test]
    fn scheduled_admission_respects_arena_capacity() {
        // a tiny device: the arena holds one subdomain's temporaries but not
        // two, so admissions must serialize
        let data = factorized(&cluster(6, 8, 14));
        let spec = DeviceSpec {
            memory_bytes: 128 * 1024, // 64 KiB arena
            ..DeviceSpec::a100()
        };
        let dev = Device::new(spec, 4);
        let capacity = dev.arena_capacity();
        let (_, report) = on(
            &data,
            &ScConfig::optimized(true, false),
            Backend::gpu(Arc::clone(&dev)),
        );
        let res = &report.devices[0];
        assert!(res.temp_high_water <= capacity);
        assert!(res.temp_high_water > 0);
        assert_eq!(report.subdomains.len(), data.len());
        // at least one stream must have stalled for the arena: its subdomain
        // was admitted strictly after the stream's previous work ended (no
        // ready_at is set, so nothing else can delay admission)
        let mut prev_end = vec![0.0f64; dev.n_streams()];
        let mut waited = false;
        for e in &chronological(&report) {
            if e.admitted_at > prev_end[e.stream] + 1e-15 {
                waited = true;
            }
            prev_end[e.stream] = e.span.end;
        }
        assert!(waited, "tiny arena must force admission waits");

        // control: with the full A100 arena the same batch never stalls
        let dev_big = Device::new(DeviceSpec::a100(), 4);
        let (_, res_big) = on(
            &data,
            &ScConfig::optimized(true, false),
            Backend::gpu(Arc::clone(&dev_big)),
        );
        let mut prev_end = vec![0.0f64; dev_big.n_streams()];
        for e in &chronological(&res_big) {
            assert!(
                e.admitted_at <= prev_end[e.stream] + 1e-15,
                "unconstrained arena must admit without stalls"
            );
            prev_end[e.stream] = e.span.end;
        }
    }

    #[test]
    fn scheduled_mix_applies_host_readiness() {
        let data = factorized(&cluster(4, 6, 8));
        let dev = Device::new(DeviceSpec::a100(), 2);
        let ready = vec![0.5, 0.25, 0.0, 1.0];
        let (_, res) = on(
            &data,
            &ScConfig::optimized(true, false),
            Backend::gpu_with(
                Arc::clone(&dev),
                ScheduleOptions::default()
                    .with_policy(StreamPolicy::LptLeastLoaded)
                    .with_ready_at(ready.clone()),
            ),
        );
        for t in &res.subdomains {
            let start = placed(t).span.start;
            assert!(
                start >= ready[t.index] - 1e-15,
                "subdomain {} started at {start} before its host readiness {}",
                t.index,
                ready[t.index]
            );
        }
    }

    #[test]
    fn bad_readiness_times_are_rejected_by_subdomain_and_value() {
        let data = factorized(&cluster(4, 6, 10));
        for bad in [f64::NAN, -1.0, f64::INFINITY] {
            let dev = Device::new(DeviceSpec::a100(), 2);
            let opts = ScheduleOptions::default().with_ready_at(vec![0.0, 0.0, bad, 0.0]);
            let cfg = ScConfig::optimized(true, false);
            let err = std::panic::catch_unwind(|| {
                on(
                    &data,
                    &cfg,
                    Backend::gpu_with(Arc::clone(&dev), opts.clone()),
                )
            })
            .expect_err("a bad readiness time must panic");
            let msg = err
                .downcast_ref::<String>()
                .map(String::as_str)
                .unwrap_or_default();
            assert_eq!(
                msg,
                format!(
                    "ScheduleOptions::ready_at[2] = {bad} is not a finite, non-negative \
                     readiness time"
                )
            );
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let empty: &[(Csc, Csc)] = &[];
        let (f, report) = batch_cpu(empty, &ScConfig::optimized(false, false));
        assert!(f.is_empty());
        assert_eq!(report.cache_hits + report.cache_misses, 0);
        // every device target keeps one idle section per device
        let dev = Device::new(DeviceSpec::a100(), 2);
        for opts in [ScheduleOptions::default(), round_robin()] {
            let (f, report) = on(
                empty,
                &ScConfig::Auto,
                Backend::gpu_with(Arc::clone(&dev), opts.clone()),
            );
            assert!(f.is_empty());
            assert_eq!(report.devices.len(), 1);
            assert!(report.subdomains.is_empty());
        }
        // empty batches never touch the device timeline
        assert_eq!(dev.synchronize(), 0.0);
        assert_eq!(dev.launches(), 0);
        let pool = DevicePool::uniform(DeviceSpec::a100(), 2, 2);
        let (f, cl) = on(empty, &ScConfig::Auto, Backend::cluster(Arc::clone(&pool)));
        assert!(f.is_empty());
        assert_eq!(cl.devices.len(), 2);
        assert_eq!(cl.makespan, 0.0);
        assert!(cl.subdomains.is_empty());
        // clean empty report even on an empty pool
        let none = DevicePool::from_devices(Vec::new());
        let (f, cl) = on(empty, &ScConfig::Auto, Backend::cluster(Arc::clone(&none)));
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
        let cfg = ScConfig::optimized(true, false);
        let empty: &[(Csc, Csc)] = &[];
        for opts in [ScheduleOptions::default(), round_robin()] {
            // empty batches are fine even on a 0-stream device
            let dev = Device::new(DeviceSpec::a100(), 0);
            assert!(on(
                empty,
                &cfg,
                Backend::gpu_with(Arc::clone(&dev), opts.clone())
            )
            .0
            .is_empty());
            // non-empty batches fail with the planner's typed error, not an
            // index panic
            let msg = panic_message(|| {
                on(
                    &data,
                    &cfg,
                    Backend::gpu_with(Arc::clone(&dev), opts.clone()),
                );
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
        for cfg in [ScConfig::optimized(true, false), ScConfig::Auto] {
            let pool = DevicePool::uniform(DeviceSpec::a100(), 3, 2);
            let (f, report) = on(&data, &cfg, Backend::cluster(Arc::clone(&pool)));
            for (i, (l, bt)) in data.iter().enumerate() {
                let seq = sequential(l, bt, &cfg, true);
                assert_eq!(f[i], seq, "cluster F̃ must be bitwise sequential ({i})");
                if matches!(cfg, ScConfig::Fixed(_)) {
                    let cpu = sequential(l, bt, &cfg, false);
                    assert_eq!(f[i], cpu, "fixed configs match the CPU backend bitwise");
                }
            }
            // partition integrity: one row per subdomain, on a pool device
            assert_eq!(report.subdomains.len(), data.len());
            for (i, t) in report.subdomains.iter().enumerate() {
                assert_eq!(t.index, i, "timings must be in batch order");
                assert!(placed(t).device < report.devices.len());
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
        let cfg = ScConfig::optimized(true, false);
        let one = DevicePool::uniform(DeviceSpec::a100(), 1, 4);
        let (f1, r1) = on(&data, &cfg, Backend::cluster(Arc::clone(&one)));
        let four = DevicePool::uniform(DeviceSpec::a100(), 4, 4);
        let (f4, r4) = on(&data, &cfg, Backend::cluster(Arc::clone(&four)));
        assert!(
            r4.makespan < r1.makespan,
            "4 devices ({}) must beat 1 device ({})",
            r4.makespan,
            r1.makespan
        );
        // the single-device cluster path is exactly the scheduled driver
        let dev = Device::new(DeviceSpec::a100(), 4);
        let (f, sched) = on(&data, &cfg, Backend::gpu(Arc::clone(&dev)));
        assert_eq!(r1.makespan, sched.makespan);
        for i in 0..data.len() {
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
        let cfg = ScConfig::optimized(true, false);
        let pool =
            DevicePool::heterogeneous(&[DeviceSpec::a100(), DeviceSpec::tiny_test_device()], 2);
        let tiny_arena = pool.device(1).arena_capacity();
        let footprint = |l: &Csc, bt: &Csc| {
            temp_footprint::<f64>(l.ncols(), bt.ncols(), &cfg.resolve(true, l, bt))
        };
        let oversized = (data.iter())
            .filter(|(l, bt)| footprint(l, bt) > tiny_arena)
            .count();
        assert!(
            oversized > 0,
            "workload must contain tiny-card-oversized subdomains"
        );
        let (f, report) = on(&data, &cfg, Backend::cluster(Arc::clone(&pool)));
        for (i, (l, bt)) in data.iter().enumerate() {
            if footprint(l, bt) > tiny_arena {
                assert_eq!(
                    placed(&report.subdomains[i]).device,
                    0,
                    "oversized subdomain {i} must run on the big card"
                );
            }
            let seq = sequential(l, bt, &cfg, false);
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
        let pool = DevicePool::uniform(DeviceSpec::a100(), 2, 2);
        let ready: Vec<f64> = (0..data.len()).map(|i| 0.25 * i as f64).collect();
        let (_, report) = on(
            &data,
            &ScConfig::optimized(true, false),
            Backend::cluster_with(
                Arc::clone(&pool),
                ScheduleOptions::default()
                    .with_policy(StreamPolicy::LptLeastLoaded)
                    .with_ready_at(ready.clone()),
            ),
        );
        for t in &report.subdomains {
            let start = placed(t).span.start;
            assert!(
                start >= ready[t.index] - 1e-15,
                "subdomain {} started at {start} before its readiness {}",
                t.index,
                ready[t.index]
            );
        }
    }

    #[test]
    fn cluster_routes_around_a_zero_stream_device() {
        // a pool carrying a drained (0-stream) card next to a working one:
        // the planner must keep the dead card idle instead of stranding
        // subdomains on it
        let data = factorized(&cluster(5, 6, 8));
        let cfg = ScConfig::optimized(true, false);
        let pool = DevicePool::from_devices(vec![
            Device::new(DeviceSpec::a100(), 0),
            Device::new(DeviceSpec::a100(), 4),
        ]);
        let (f, report) = on(&data, &cfg, Backend::cluster(Arc::clone(&pool)));
        assert_eq!(report.subdomains.len(), data.len());
        assert!(
            report.subdomains.iter().all(|t| placed(t).device == 1),
            "dead card must stay idle"
        );
        assert_eq!(pool.device(0).synchronize(), 0.0);
        for (i, (l, bt)) in data.iter().enumerate() {
            let seq = sequential(l, bt, &cfg, false);
            assert_eq!(f[i], seq, "subdomain {i} deviates");
        }
    }

    #[test]
    fn a_subdomain_that_fits_nowhere_panics_with_the_spill_list() {
        // 8 n m = 8 · 1024 · 80 = 640 KiB of temporaries > the tiny card's
        // 512 KiB arena, on every usable device of the pool — and on a
        // single GPU; the drained (0-stream) A100's bigger arena does not
        // count
        let data = factorized(&cluster(1, 32, 80));
        let cfg = ScConfig::optimized(true, false);
        let tiny = || Device::new(DeviceSpec::tiny_test_device(), 2);
        let drained = Device::new(DeviceSpec::a100(), 0);
        let pool = DevicePool::from_devices(vec![tiny(), tiny(), drained]);
        assert!(pool.device(2).arena_capacity() > pool.device(0).arena_capacity());
        let want = "device placement failed: 1 subdomain(s) [0] need more \
                    temporaries than the largest device arena in the pool \
                    (524288 B); recoverable: let FormulationChoice::Auto \
                    reroute them, or re-plan without them";
        let opts = ScheduleOptions::default();
        let on_the_pool = panic_message(|| {
            on(
                &data,
                &cfg,
                Backend::cluster_with(Arc::clone(&pool), opts.clone()),
            );
        });
        assert_eq!(on_the_pool, want);
        let on_one_gpu = panic_message(|| {
            on(
                &data,
                &cfg,
                Backend::gpu_with(Arc::clone(pool.device(0)), opts.clone()),
            );
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
        for cfg in [
            ScConfig::optimized(false, false),
            ScConfig::optimized(true, true),
            ScConfig::original(FactorStorage::Dense),
            ScConfig::Auto,
        ] {
            let (cpu, _) = batch_cpu(&data, &cfg);
            assert_eq!(cpu[0].nrows(), 0);
            assert!(cpu[0].data().is_empty());
            assert_eq!(cpu[1].nrows(), 1);
            assert!(cpu[1].data()[0] > 0.0, "1×1 F̃ must be positive");
            let dev = Device::new(DeviceSpec::a100(), 2);
            let (rr, _) = on(
                &data,
                &cfg,
                Backend::gpu_with(Arc::clone(&dev), round_robin()),
            );
            let (sched, _) = on(&data, &cfg, Backend::gpu(Arc::clone(&dev)));
            for i in 0..data.len() {
                assert_eq!(cpu[i], rr[i], "round-robin mismatch at {i}");
                assert_eq!(cpu[i], sched[i], "scheduled mismatch at {i}");
            }
        }
    }
}
