//! Hyperparameter tuning walk-through (the paper's §4.1 / Figure 5): sweep
//! the block-size parameter of factor-splitting TRSM + input-splitting SYRK
//! and watch the U-shaped trade-off between skipped zeros and kernel-launch
//! overhead on the simulated GPU.
//!
//! Run with: `cargo run --release --example tuning`

use schur_dd::prelude::*;
use schur_dd::sc_feti::SubdomainFactors;

fn main() {
    let problem = HeatProblem::build_3d(10, (3, 3, 3), Gluing::Redundant);
    let sd = &problem.subdomains[13]; // center subdomain, glued on all sides
    let factors = SubdomainFactors::build(
        sd,
        FetiOptions::default().engine,
        Ordering::NestedDissection,
    );
    let l = factors.chol.factor_csc_ref();
    println!(
        "subdomain: {} dofs, {} multipliers, factor nnz = {}\n",
        sd.n_dofs(),
        sd.n_lambda(),
        l.nnz()
    );

    let device = Device::new(DeviceSpec::a100(), 1);
    println!("block size | simulated GPU assembly time [ms] | launches");
    let mut best = (0usize, f64::INFINITY);
    for bs in [1usize, 5, 10, 25, 50, 100, 250, 500, 1000, 5000] {
        let cfg = ScConfig::Fixed(ScParams {
            trsm: TrsmVariant::FactorSplit {
                block: BlockParam::Size(bs),
                prune: true,
            },
            syrk: SyrkVariant::InputSplit(BlockParam::Size(bs)),
            factor_storage: FactorStorage::Dense,
            stepped_permutation: true,
        });
        device.reset();
        let kernels = GpuKernels::new(device.stream(0));
        let mut exec = GpuExec::new(&kernels);
        let f = assemble_sc(&mut exec, l, &factors.bt_perm, &cfg);
        std::hint::black_box(&f);
        let t = device.synchronize();
        if t < best.1 {
            best = (bs, t);
        }
        println!("{bs:10} | {:10.4} | {:8}", t * 1e3, device.launches());
    }
    println!(
        "\noptimum at block size ~{} (paper Figure 5 finds ~500 on the real A100; \
         tiny blocks drown in launch overhead, huge blocks stop skipping zeros)",
        best.0
    );

    // stepped permutation ablation: how much of the dense area is actually
    // below the pivots?
    let stepped = SteppedRhs::new(&factors.bt_perm);
    println!(
        "stepped fill ratio = {:.3} (fraction of the dense TRSM work that remains; \
         1/3 would be a perfect triangle, cf. the theoretical speedup 3 of §4.3)",
        stepped.fill_ratio()
    );
}
