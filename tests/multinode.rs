//! Property-based tests of the multi-node (three-level) partition
//! invariants: every subdomain lands on exactly one node, no device's
//! simulated arena exceeds its own node's capacity, adding nodes never
//! grows the makespan, the sharded numerics are bitwise identical to the
//! sequential CPU reference — and the 1-node `Backend::multi_node` path is
//! bitwise the `Backend::cluster` path on the same hardware (the
//! compatibility pin of the hierarchical refactor).

use proptest::prelude::*;
use schur_dd::prelude::*;
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

/// Weak scaling of the multi-node backend: a fixed 16-subdomain batch per
/// node, replicated onto 1, 2 and 4 single-A100 nodes (4 streams) behind an
/// InfiniBand-class interconnect. Per-node work is constant, so the ideal
/// makespan is flat; the hierarchical partitioner plus the priced lambda
/// exchange must keep `makespan(1 node) / makespan(4 nodes)` at 0.8 or
/// better, with every replica bitwise the CPU reference assembly.
#[test]
fn four_nodes_keep_80_percent_weak_scaling_efficiency() {
    let base = sc_bench::BatchWorkload::build_skewed(2, &[14, 10, 12, 8]);
    let base_items = base.items();
    assert_eq!(base_items.len(), 16);
    let cfg = ScConfig::optimized(true, false);
    // the replicas alias the same factors, so one replica's worth of
    // reference assemblies covers every cluster size
    let cpu = AssemblySession::new(Backend::cpu(), cfg).assemble(&base_items);

    let makespans = [1usize, 2, 4].map(|n_nodes| {
        let items: Vec<_> = (0..n_nodes).flat_map(|_| base_items.clone()).collect();
        let pool = NodePool::uniform(
            DeviceSpec::a100(),
            n_nodes,
            1,
            4,
            Interconnect::infiniband(),
        );
        let res = AssemblySession::new(Backend::multi_node(pool), cfg).assemble(&items);
        for i in 0..items.len() {
            assert_eq!(
                res.f[i],
                cpu.f[i % base_items.len()],
                "multi-node sharding changed numerics at subdomain {i} ({n_nodes} nodes)"
            );
        }
        res.report.makespan
    });
    let efficiency = makespans[0] / makespans[2];
    assert!(
        efficiency >= 0.8,
        "4-node weak-scaling efficiency {efficiency:.2} is below the 0.8 gate \
         (makespans {makespans:?})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn multi_node_partition_invariants_hold(
        data in cluster_strategy(),
        n_nodes in 1usize..4,
        devices_per_node in 1usize..3,
        n_streams in 1usize..3,
    ) {
        let items: Vec<BatchItem<'_>> =
            data.iter().map(|(l, bt)| BatchItem { l, bt }).collect();
        let pool = NodePool::uniform(
            tight_spec(),
            n_nodes,
            devices_per_node,
            n_streams,
            Interconnect::infiniband(),
        );
        let cfg = ScConfig::optimized(true, false);
        let res = AssemblySession::new(
            Backend::multi_node(std::sync::Arc::clone(&pool)),
            cfg,
        )
        .assemble(&items);
        let report = &res.report;

        // --- every subdomain placed on exactly one node: one row each, in
        //     batch order, on a device exactly one node owns
        prop_assert_eq!(report.nodes.len(), n_nodes);
        prop_assert_eq!(report.subdomains.len(), items.len());
        let node_of = |d: usize| report.nodes.iter().filter(|n| n.devices.contains(&d)).count();
        for (i, t) in report.subdomains.iter().enumerate() {
            prop_assert_eq!(t.index, i);
            let p = t.placement.expect("multi-node places every subdomain");
            prop_assert_eq!(node_of(p.device), 1);
        }

        // --- no device's simulated arena exceeds its own node's capacity
        // (global device numbering is flat across nodes, node-major)
        for rep in &report.devices {
            let node = rep.device / devices_per_node;
            let local = rep.device % devices_per_node;
            let capacity = pool.node(node).pool.device(local).arena_capacity();
            prop_assert!(
                rep.temp_high_water <= capacity,
                "device {}: arena high water {} > capacity {capacity}",
                rep.device,
                rep.temp_high_water
            );
        }

        // --- single-node clusters exchange nothing; larger ones account
        //     the priced inter-node traffic per node
        for n in &report.nodes {
            if n_nodes == 1 {
                // exact zeros by construction: the single-node driver never
                // prices an exchange  sc-analyze: allow(float-eq)
                prop_assert!(n.exchange_bytes == 0.0 && n.exchange_seconds == 0.0);
            } else if report
                .subdomains
                .iter()
                .any(|t| t.placement.is_some_and(|p| n.devices.contains(&p.device)))
            {
                prop_assert!(n.exchange_seconds > 0.0);
            }
        }

        // --- numerics: bitwise equal to the sequential CPU reference
        for (i, (l, bt)) in data.iter().enumerate() {
            let seq = assemble_sc(&mut CpuExec, l, bt, &cfg);
            prop_assert_eq!(&res.f[i], &seq, "subdomain {} deviates", i);
        }
    }

    #[test]
    fn more_nodes_never_grow_the_makespan(
        data in cluster_strategy(),
        n_streams in 1usize..3,
    ) {
        // ideal link: isolates partition quality from exchange pricing
        let items: Vec<BatchItem<'_>> =
            data.iter().map(|(l, bt)| BatchItem { l, bt }).collect();
        let cfg = ScConfig::optimized(true, false);
        let makespan = |n_nodes: usize| {
            let pool =
                NodePool::uniform(tight_spec(), n_nodes, 1, n_streams, Interconnect::ideal());
            AssemblySession::new(Backend::multi_node(pool), cfg)
                .assemble(&items)
                .report
                .makespan
        };
        let m1 = makespan(1);
        let m4 = makespan(4);
        prop_assert!(
            m4 <= m1 * (1.0 + 1e-12) + 1e-8,
            "4-node makespan {m4} exceeds the 1-node makespan {m1}"
        );
    }

    /// The compatibility pin of the hierarchical refactor: a 1-node pool
    /// under `Backend::multi_node` must behave **bitwise** like
    /// `Backend::cluster` over the same devices — identical F̃ matrices,
    /// identical per-device placement, identical simulated makespan.
    #[test]
    fn one_node_multi_node_is_bitwise_the_cluster_backend(
        data in cluster_strategy(),
        n_devices in 1usize..4,
        n_streams in 1usize..3,
    ) {
        let items: Vec<BatchItem<'_>> =
            data.iter().map(|(l, bt)| BatchItem { l, bt }).collect();
        let cfg = ScConfig::optimized(true, false);
        let cres = AssemblySession::new(
            Backend::cluster(DevicePool::uniform(tight_spec(), n_devices, n_streams)),
            cfg,
        )
        .assemble(&items);
        let npool = NodePool::uniform(
            tight_spec(),
            1,
            n_devices,
            n_streams,
            Interconnect::infiniband(),
        );
        let nres = AssemblySession::new(Backend::multi_node(npool), cfg).assemble(&items);
        for i in 0..items.len() {
            prop_assert_eq!(&cres.f[i], &nres.f[i], "subdomain {} deviates", i);
        }
        prop_assert_eq!(
            cres.report.makespan.to_bits(),
            nres.report.makespan.to_bits(),
            "simulated makespan deviates: {} vs {}",
            cres.report.makespan,
            nres.report.makespan
        );
        for (cd, nd) in cres.report.devices.iter().zip(nres.report.devices.iter()) {
            prop_assert_eq!(cd.device, nd.device);
        }
        prop_assert_eq!(cres.report.subdomains.len(), nres.report.subdomains.len());
        for (ct, nt) in cres.report.subdomains.iter().zip(nres.report.subdomains.iter()) {
            prop_assert_eq!(ct.index, nt.index);
            prop_assert_eq!(ct.placement, nt.placement, "placement deviates");
        }
    }
}
