//! Multi-node backend tour: build a simulated two-node cluster from the
//! node-preset registry, shard a batched Schur-complement assembly across
//! it (per-node roll-up with exchange-byte accounting in the one
//! [`sc_core::AssemblyReport`] schema), then run the full FETI solve on the
//! same topology and read how much inter-node boundary exchange the PCPG
//! applies failed to hide behind local work.
//!
//! Run with: `cargo run --release --example multinode`

use schur_dd::prelude::*;

fn main() {
    // 2D heat transfer, 4x4 subdomains — enough ranks to spread over nodes
    let problem = HeatProblem::build_2d(6, (4, 4), Gluing::Redundant);
    println!(
        "problem: {} subdomains of {} dofs",
        problem.subdomains.len(),
        problem.dofs_per_subdomain()
    );

    // --- topology construction -------------------------------------------
    // a whole node in one registry token: "node<K>x<device>" resolves to
    // the per-card spec plus the card count
    let (card, cards_per_node) =
        DeviceSpec::node_from_name("node2xa100").expect("known node preset");
    // two such nodes behind an InfiniBand-class link; `NodePool::uniform`
    // is the one-liner, `from_nodes` composes heterogeneous clusters
    let node = NodeSpec::uniform(card, cards_per_node, 4, Interconnect::infiniband());
    let pool = NodePool::from_nodes(vec![node.clone(), node]);
    println!(
        "cluster: {} nodes x {} A100s ({} streams total)\n",
        pool.n_nodes(),
        cards_per_node,
        pool.total_streams()
    );

    // --- batched assembly across the cluster ------------------------------
    // the exact production preparation pipeline, per subdomain
    let factors: Vec<_> = problem
        .subdomains
        .iter()
        .map(|sd| {
            let f = SubdomainFactors::build(
                sd,
                FetiOptions::default().engine,
                Ordering::NestedDissection,
            );
            (f.chol.factor_csc(), f.bt_perm)
        })
        .collect();
    let items: Vec<BatchItem> = factors.iter().map(|(l, bt)| BatchItem { l, bt }).collect();

    let session = AssemblySession::new(
        Backend::multi_node(std::sync::Arc::clone(&pool)),
        ScConfig::optimized(true, false),
    );
    let result = session.assemble(&items);
    println!(
        "cluster makespan {:.3} ms ({} subdomains)",
        result.report.makespan * 1e3,
        result.report.subdomains.len()
    );
    for n in &result.report.nodes {
        println!(
            "  node {}: {:2} subdomains on devices {:?}, makespan {:.3} ms, \
             exchange {:.1} KiB ({:.1} us over the link)",
            n.node,
            n.subdomains.len(),
            n.devices,
            n.makespan * 1e3,
            n.exchange_bytes / 1024.0,
            n.exchange_seconds * 1e6
        );
    }

    // --- the same topology under the FETI solver ---------------------------
    // PCPG's dual-operator applies overlap the simulated inter-node
    // boundary exchange with local SYMVs; whatever the local work could
    // not hide surfaces as exchange stall in the solve stats
    pool.reset_all();
    let solver = FetiSolverBuilder::new()
        .options(FetiOptions::default())
        .backend(Backend::multi_node(pool))
        .formulation(FormulationChoice::Explicit)
        .assembly(ScConfig::optimized(true, false))
        .build(&problem);
    let solution = solver.solve();
    assert!(solution.stats.converged);
    println!(
        "\nFETI solve: {} PCPG iterations, rel residual {:.2e}",
        solution.stats.iterations, solution.stats.rel_residual
    );
    println!(
        "unhidden inter-node exchange stall: {:.1} us (simulated)",
        solution.stats.exchange_stall_seconds * 1e6
    );
}
