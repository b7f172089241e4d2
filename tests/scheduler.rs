//! Property-based tests of the §4.4 batch scheduler invariants: arena
//! admission never oversubscribes the pool, the device never executes more
//! than `concurrency` kernels at a simulated instant, per-stream subdomain
//! spans never interleave, and the scheduled numerics are bitwise identical
//! to the sequential CPU reference — plus the two guarantees of the one
//! device driver: every device replays exactly the lanes of the one plan,
//! and a lazy factor is derived once per subdomain on every target.

use proptest::prelude::*;
use schur_dd::prelude::*;
use schur_dd::sc_gpu::{Device, DeviceSpec};
use schur_dd::sc_sparse::{Coo, Csc};

/// A cluster of SPD subdomains with sizes drawn per subdomain — factorized
/// like the production pipeline (`(L, B̃ᵀ_permuted)` pairs).
fn cluster_strategy() -> impl Strategy<Value = Vec<(Csc, Csc)>> {
    proptest::collection::vec((3usize..9, 0usize..10, 0u64..1000), 4..12).prop_map(|subs| {
        subs.into_iter()
            .map(|(nx, m, seed)| {
                let n = nx * nx;
                let idx = |x: usize, y: usize| y * nx + x;
                let mut c = Coo::new(n, n);
                for y in 0..nx {
                    for x in 0..nx {
                        let v = idx(x, y);
                        c.push(v, v, 4.05 + (seed % 7) as f64 * 0.01);
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
                    let d = ((j as u64 * 7919 + seed * 131) % n as u64) as usize;
                    b.push(
                        d,
                        j,
                        if (j as u64 + seed).is_multiple_of(2) {
                            1.0
                        } else {
                            -1.0
                        },
                    );
                }
                let chol = SparseCholesky::factorize(&k, CholOptions::default()).unwrap();
                (chol.factor_csc(), b.to_csc().permute_rows(chol.perm()))
            })
            .collect()
    })
}

/// A deliberately tight device so arena admission and the concurrency cap
/// both bind: the 64 KiB arena holds one of the larger subdomains'
/// temporaries but rarely two, and only 2 kernels execute concurrently.
fn tight_device(n_streams: usize) -> std::sync::Arc<Device> {
    let spec = DeviceSpec {
        memory_bytes: 128 * 1024, // 64 KiB arena
        concurrency: 2,
        ..DeviceSpec::a100()
    };
    Device::new(spec, n_streams)
}

/// The acceptance workload of the scheduler: on a skewed heterogeneous
/// batch (≥ 16 subdomains, dof sizes spreading ≥ 4×) the scheduled GPU path
/// must report strictly lower `device.synchronize()` time than round-robin,
/// with `F̃ᵢ` bitwise identical to the sequential CPU reference.
#[test]
fn scheduled_beats_round_robin_on_the_bench_workload() {
    let w = sc_bench::BatchWorkload::build_skewed(2, &[12, 4, 6, 3]);
    assert!(w.n_subdomains() >= 16);
    assert!(w.size_spread() >= 4.0);
    let items = w.items();
    let cfg = ScConfig::optimized(true, false);

    let dev_rr = Device::new(DeviceSpec::a100(), 4);
    let rr = AssemblySession::new(
        Backend::gpu_with(
            std::sync::Arc::clone(&dev_rr),
            ScheduleOptions::default().with_policy(StreamPolicy::RoundRobin),
        ),
        cfg,
    )
    .assemble(&items);
    let dev_lpt = Device::new(DeviceSpec::a100(), 4);
    let lpt =
        AssemblySession::new(Backend::gpu(std::sync::Arc::clone(&dev_lpt)), cfg).assemble(&items);

    assert!(
        dev_lpt.synchronize() < dev_rr.synchronize(),
        "scheduled {} must strictly beat round-robin {}",
        dev_lpt.synchronize(),
        dev_rr.synchronize()
    );
    for (i, item) in items.iter().enumerate() {
        let seq = assemble_sc(&mut CpuExec, item.l, item.bt, &cfg);
        assert_eq!(lpt.f[i], seq, "scheduled F̃ deviates at {i}");
        assert_eq!(rr.f[i], seq, "round-robin F̃ deviates at {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn scheduler_invariants_hold(
        data in cluster_strategy(),
        n_streams in 1usize..5,
        lpt in prop::bool::ANY,
    ) {
        let items: Vec<BatchItem<'_>> =
            data.iter().map(|(l, bt)| BatchItem { l, bt }).collect();
        let dev = tight_device(n_streams);
        dev.enable_span_log();
        let cfg = ScConfig::optimized(true, false);
        let opts = ScheduleOptions::default().with_policy(
            if lpt { StreamPolicy::LptLeastLoaded } else { StreamPolicy::RoundRobin },
        );
        let res = AssemblySession::new(
            Backend::gpu_with(std::sync::Arc::clone(&dev), opts),
            cfg,
        )
        .assemble(&items);
        let report = &res.report;
        let schedule = &report.devices[0].schedule;
        let capacity = dev.arena_capacity();

        // --- arena: usage from the executed schedule never exceeds capacity
        prop_assert!(report.temp_high_water() <= capacity);
        let mut events: Vec<(f64, i64)> = Vec::new();
        for e in schedule {
            prop_assert!(e.temp_bytes <= capacity, "reservation larger than arena");
            events.push((e.admitted_at, e.temp_bytes as i64));
            events.push((e.span.end.max(e.admitted_at), -(e.temp_bytes as i64)));
        }
        // releases before acquisitions at equal instants
        events.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        let mut usage = 0i64;
        for (at, delta) in events {
            usage += delta;
            prop_assert!(
                usage <= capacity as i64,
                "arena oversubscribed at t={at}: {usage} > {capacity}"
            );
        }

        // --- timeline: at most `concurrency` kernels overlap at any instant
        let kernel_spans = dev.take_span_log();
        prop_assert!(!kernel_spans.is_empty() || items.is_empty());
        let cap = dev.spec().concurrency;
        for &(_, probe) in &kernel_spans {
            let overlapping = kernel_spans
                .iter()
                .filter(|(_, s)| s.start <= probe.start && probe.start < s.end)
                .count();
            prop_assert!(
                overlapping <= cap,
                "{overlapping} kernels overlap at t={} (cap {cap})",
                probe.start
            );
        }

        // --- streams: a stream runs one subdomain at a time, in order
        // (stream_lanes groups the executed schedule per stream)
        for lane in report.devices[0].stream_lanes() {
            for w in lane.spans.windows(2) {
                prop_assert!(
                    w[1].span.start >= w[0].span.end - 1e-15,
                    "stream {}: overlapping subdomain spans", lane.stream
                );
            }
        }
        prop_assert_eq!(schedule.len(), items.len());

        // --- numerics: bitwise equal to the sequential CPU reference
        for (i, (l, bt)) in data.iter().enumerate() {
            let seq = assemble_sc(&mut CpuExec, l, bt, &cfg);
            prop_assert_eq!(&res.f[i], &seq, "subdomain {} deviates", i);
        }
    }

    #[test]
    fn mix_readiness_never_starts_early(
        data in cluster_strategy(),
        n_streams in 1usize..4,
        delays in proptest::collection::vec(0.0f64..2.0, 12),
    ) {
        let items: Vec<BatchItem<'_>> =
            data.iter().map(|(l, bt)| BatchItem { l, bt }).collect();
        let ready: Vec<f64> = (0..items.len()).map(|i| delays[i % delays.len()]).collect();
        let dev = tight_device(n_streams);
        let res = AssemblySession::new(
            Backend::gpu_with(
                std::sync::Arc::clone(&dev),
                ScheduleOptions::default()
                    .with_policy(StreamPolicy::LptLeastLoaded)
                    .with_ready_at(ready.clone()),
            ),
            ScConfig::optimized(true, false),
        )
        .assemble(&items);
        for e in &res.report.devices[0].schedule {
            prop_assert!(
                e.span.start >= ready[e.index] - 1e-15,
                "subdomain {} started at {} before readiness {}",
                e.index,
                e.span.start,
                ready[e.index]
            );
        }
    }
}

/// Single-stream price of one subdomain as the device driver records it —
/// uploads, the assembly kernels, the resident result — under `spec`'s own
/// duration model.
fn recorded_seconds(item: &BatchItem<'_>, cfg: &ScConfig, spec: &DeviceSpec) -> f64 {
    let mut rec = RecordingExec::new();
    rec.record_upload_csc(item.l);
    rec.record_upload_csc(item.bt);
    let _ = assemble_sc(&mut rec, item.l, item.bt, cfg);
    rec.record_download_bytes(0);
    rec.into_costs()
        .iter()
        .map(|c| spec.kernel_seconds(c))
        .sum()
}

/// The device leaves of `plan` over `topo`, depth-first — the order of
/// `AssemblyReport::devices`.
fn device_leaves<'p>(topo: &Topology, plan: &'p TopoPlan, out: &mut Vec<&'p TopoPlan>) {
    match topo {
        Topology::Node { children, .. } => {
            for (child, sub) in children.iter().zip(&plan.children) {
                device_leaves(child, sub, out);
            }
        }
        _ => out.push(plan),
    }
}

/// The driver executes the plan, it does not re-derive it: on one GPU, a
/// 2-device pool and a 2-node cluster, every device's executed schedule
/// grouped by stream is the matching leaf of an independently computed
/// `plan_topology_by` over the same recorded prices.
#[test]
fn every_device_target_replays_the_lanes_of_the_one_plan() {
    let w = sc_bench::BatchWorkload::build_skewed(2, &[12, 4, 6, 3]);
    let items = w.items();
    let cfg = ScConfig::optimized(true, false);
    let spec = DeviceSpec::a100();
    let price: Vec<f64> = items
        .iter()
        .map(|it| recorded_seconds(it, &cfg, &spec))
        .collect();
    let costs: Vec<CostEstimate> = items
        .iter()
        .enumerate()
        .map(|(i, it)| estimate_cost(&spec, it.l, it.bt, &cfg.resolve(true, it.l, it.bt), i))
        .collect();

    let dev = Device::new(spec.clone(), 3);
    let pool = DevicePool::uniform(spec.clone(), 2, 3);
    let nodes = NodePool::uniform(spec.clone(), 2, 2, 2, Interconnect::infiniband());
    let policy = StreamPolicy::default();
    let targets = [
        (
            "gpu",
            Topology::node(vec![Topology::device(DeviceSlot::of(&dev))], None),
            Backend::gpu(dev),
        ),
        (
            "cluster",
            Topology::of_pool(&pool, policy),
            Backend::cluster(pool),
        ),
        (
            "multi-node",
            Topology::of_cluster(&nodes, policy),
            Backend::multi_node(nodes),
        ),
    ];
    for (name, topo, backend) in targets {
        let plan = plan_topology_by(&costs, &topo, |c, _| price[c.index]).unwrap();
        let mut leaves = Vec::new();
        device_leaves(&topo, &plan, &mut leaves);
        let report = AssemblySession::new(backend, cfg).assemble(&items).report;
        assert_eq!(report.devices.len(), leaves.len(), "{name}");
        for (rep, leaf) in report.devices.iter().zip(leaves) {
            let mut lanes = vec![Vec::new(); leaf.per_child.len()];
            for e in &rep.schedule {
                lanes[e.stream].push(e.index);
            }
            assert_eq!(
                lanes, leaf.per_child,
                "{name}: device {} ran a different lane assignment than the plan's",
                rep.device
            );
        }
    }
}

/// Record once: a lazy source's factor derivation — the expensive part of a
/// FETI set-up — runs exactly once per subdomain on every target.
#[test]
fn every_target_derives_each_lazy_factor_exactly_once() {
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
    let w = sc_bench::BatchWorkload::build_skewed(1, &[8, 4, 6, 3]);
    let items = w.items();
    let spec = DeviceSpec::a100();
    let backends = [
        ("cpu", Backend::cpu()),
        ("gpu", Backend::gpu(Device::new(spec.clone(), 2))),
        (
            "cluster",
            Backend::cluster(DevicePool::uniform(spec.clone(), 2, 2)),
        ),
        (
            "hybrid",
            Backend::hybrid(DevicePool::uniform(spec.clone(), 2, 2)),
        ),
        (
            "multi-node",
            Backend::multi_node(NodePool::uniform(spec, 2, 1, 2, Interconnect::infiniband())),
        ),
    ];
    for (name, backend) in backends {
        let derived: Vec<AtomicUsize> = items.iter().map(|_| AtomicUsize::new(0)).collect();
        let res = AssemblySession::new(backend, ScConfig::Auto).assemble(LazyBatch::new(
            &items,
            |i, it: &BatchItem<'_>| {
                derived[i].fetch_add(1, Relaxed);
                std::borrow::Cow::Borrowed(it.l)
            },
            |it| it.bt,
        ));
        assert_eq!(res.f.len(), items.len());
        let counts: Vec<usize> = derived.iter().map(|c| c.load(Relaxed)).collect();
        assert_eq!(counts, vec![1; items.len()], "{name}");
    }
}
