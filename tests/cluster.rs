//! Property-based tests of the cluster-level (multi-device) partition
//! invariants: every subdomain is placed on exactly one device, no device's
//! simulated arena is oversubscribed beyond its own capacity, the cluster
//! makespan never exceeds the single-device makespan on the same hardware,
//! and the sharded numerics are bitwise identical to the sequential CPU
//! reference.

use proptest::prelude::*;
use schur_dd::prelude::*;
use schur_dd::sc_gpu::{Device, DevicePool, DeviceSpec};
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

/// A memory-tight spec so arena admission binds inside each device.
fn tight_spec() -> DeviceSpec {
    DeviceSpec {
        memory_bytes: 128 * 1024, // 64 KiB arena
        concurrency: 2,
        ..DeviceSpec::a100()
    }
}

/// The acceptance workload of the cluster planner: the skewed 32-subdomain
/// batch on pools of 1, 2 and 4 A100s (4 streams each) plus a heterogeneous
/// A100+H100 pool. Four devices must cut the simulated makespan at least
/// 2.5× against one, and sharding may not change a bit of any `F̃ᵢ`.
#[test]
fn four_devices_beat_one_by_2_5x_on_the_cluster32_workload() {
    let w = sc_bench::BatchWorkload::build_cluster32();
    let items = w.factors.as_slice();
    let cfg = ScConfig::optimized(true, false);
    let [one, two, four, mixed] = [
        DevicePool::uniform(DeviceSpec::a100(), 1, 4),
        DevicePool::uniform(DeviceSpec::a100(), 2, 4),
        DevicePool::uniform(DeviceSpec::a100(), 4, 4),
        DevicePool::heterogeneous(&[DeviceSpec::a100(), DeviceSpec::h100()], 4),
    ]
    .map(|pool| AssemblySession::new(Backend::cluster(pool), cfg).assemble(items));

    let speedup = one.report.makespan / four.report.makespan;
    assert!(
        speedup >= 2.5,
        "4-device cluster speedup {speedup:.2}x is below the 2.5x gate"
    );
    for (name, sharded) in [
        ("2x A100", &two),
        ("4x A100", &four),
        ("A100 + H100", &mixed),
    ] {
        for i in 0..items.len() {
            assert_eq!(
                one.f[i], sharded.f[i],
                "sharding over {name} changed numerics at subdomain {i}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn cluster_partition_invariants_hold(
        data in cluster_strategy(),
        n_devices in 1usize..5,
        n_streams in 1usize..4,
    ) {
        let items = data.as_slice();
        let pool = DevicePool::uniform(tight_spec(), n_devices, n_streams);
        let res = AssemblySession::new(Backend::cluster(pool.clone()), ScConfig::optimized(true, false))
            .assemble(items);
        let report = &res.report;

        // --- every subdomain placed on exactly one device: one row each,
        //     in batch order, naming a device of the pool
        prop_assert_eq!(report.subdomains.len(), items.len());
        for (i, t) in report.subdomains.iter().enumerate() {
            prop_assert_eq!(t.index, i);
            let p = t.placement.expect("cluster places every subdomain");
            prop_assert!(p.device < n_devices);
        }

        // --- no device's simulated arena exceeds its own capacity
        prop_assert_eq!(report.devices.len(), n_devices);
        for rep in &report.devices {
            let capacity = pool.device(rep.device).arena_capacity();
            prop_assert!(
                rep.temp_high_water <= capacity,
                "device {}: arena high water {} > capacity {capacity}",
                rep.device,
                rep.temp_high_water
            );
            // sweep the executed schedule: committed usage never exceeds it
            let mut events: Vec<(f64, i64)> = Vec::new();
            let placed = report.subdomains.iter().filter_map(|t| t.placement);
            for e in placed.filter(|p| p.device == rep.device) {
                events.push((e.admitted_at, e.temp_bytes as i64));
                events.push((e.span.end.max(e.admitted_at), -(e.temp_bytes as i64)));
            }
            events.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
            let mut usage = 0i64;
            for (at, delta) in events {
                usage += delta;
                prop_assert!(
                    usage <= capacity as i64,
                    "device {} oversubscribed at t={at}: {usage} > {capacity}",
                    rep.device
                );
            }
        }

        // --- cluster makespan never exceeds the single-device makespan on
        //     identical hardware
        let single = Device::new(tight_spec(), n_streams);
        let sres = AssemblySession::new(
            Backend::gpu(std::sync::Arc::clone(&single)),
            ScConfig::optimized(true, false),
        )
        .assemble(items);
        prop_assert!(
            report.makespan <= sres.report.makespan * (1.0 + 1e-12),
            "cluster makespan {} over {n_devices} devices exceeds the \
             single-device makespan {}",
            report.makespan,
            sres.report.makespan
        );

        // --- numerics: bitwise equal to the sequential CPU reference
        for (i, (l, bt)) in data.iter().enumerate() {
            let seq = assemble_sc(&mut CpuExec, l, bt, &ScConfig::optimized(true, false));
            prop_assert_eq!(&res.f[i].to_dense(), &seq, "subdomain {} deviates", i);
        }
    }

    #[test]
    fn heterogeneous_pools_place_admissibly_and_bitwise(
        data in cluster_strategy(),
        n_streams in 1usize..4,
    ) {
        // one tight card next to a full A100: placement must respect each
        // device's own arena and numerics must stay bitwise CPU-identical
        let items = data.as_slice();
        let pool = DevicePool::heterogeneous(&[DeviceSpec::a100(), tight_spec()], n_streams);
        let cfg = ScConfig::optimized(true, false);
        let res = AssemblySession::new(Backend::cluster(pool.clone()), cfg).assemble(items);
        for rep in &res.report.devices {
            prop_assert!(rep.temp_high_water <= pool.device(rep.device).arena_capacity());
        }
        let placed: Vec<usize> = res
            .report
            .subdomains
            .iter()
            .filter(|t| t.placement.is_some())
            .map(|t| t.index)
            .collect();
        prop_assert_eq!(placed, (0..items.len()).collect::<Vec<_>>());
        for (i, (l, bt)) in data.iter().enumerate() {
            let seq = assemble_sc(&mut CpuExec, l, bt, &cfg);
            prop_assert_eq!(&res.f[i].to_dense(), &seq, "subdomain {} deviates", i);
        }
    }
}
