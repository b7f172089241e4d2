//! Integration tests of the GPU simulator against the algorithmic layers:
//! timeline determinism, cost-only equivalence, pool discipline under the
//! multi-stream assembly loop, and the qualitative speedup claims that the
//! figure benches rely on.

use schur_dd::prelude::*;
use schur_dd::sc_feti::SubdomainFactors;

fn center_factors_3d(c: usize) -> SubdomainFactors {
    let p = HeatProblem::build_3d(c, (2, 2, 2), Gluing::Redundant);
    SubdomainFactors::build(
        &p.subdomains[7],
        FetiOptions::default().engine,
        Ordering::NestedDissection,
    )
}

#[test]
fn cost_only_timeline_equals_computing_timeline() {
    let f = center_factors_3d(4);
    let l = f.chol.factor_csc();
    let cfg = ScConfig::optimized(true, true);

    let dev1 = Device::new(DeviceSpec::a100(), 1);
    {
        let kernels = GpuKernels::new(dev1.stream(0));
        let mut exec = GpuExec::new(&kernels);
        assemble_sc(&mut exec, &l, &f.bt_perm, &cfg);
    }
    let dev2 = Device::new(DeviceSpec::a100(), 1);
    {
        let kernels = GpuKernels::new_cost_only(dev2.stream(0));
        let mut exec = GpuExec::new(&kernels);
        assemble_sc(&mut exec, &l, &f.bt_perm, &cfg);
    }
    assert_eq!(dev1.launches(), dev2.launches());
    assert!((dev1.synchronize() - dev2.synchronize()).abs() < 1e-15);
}

#[test]
fn timeline_is_deterministic_across_runs() {
    let f = center_factors_3d(3);
    let l = f.chol.factor_csc();
    let cfg = ScConfig::optimized(true, true);
    let run = || {
        let dev = Device::new(DeviceSpec::a100(), 2);
        for s in 0..2 {
            let kernels = GpuKernels::new_cost_only(dev.stream(s));
            let mut exec = GpuExec::new(&kernels);
            assemble_sc(&mut exec, &l, &f.bt_perm, &cfg);
        }
        (dev.synchronize(), dev.launches(), dev.busy_seconds())
    };
    let a = run();
    let b = run();
    assert_eq!(a.1, b.1);
    assert!((a.0 - b.0).abs() < 1e-15);
    assert!((a.2 - b.2).abs() < 1e-15);
}

#[test]
fn optimized_config_reduces_simulated_flop_time_on_large_3d() {
    // the core speedup claim at kernel level on a real FEM subdomain; the
    // subdomain must be large enough to leave the launch-bound regime
    // (paper footnote 1: "for small subdomains ... overheads can dominate")
    let f = center_factors_3d(13); // 2744 dofs, the paper's "3k"
    let l = f.chol.factor_csc();
    let dev = Device::new(DeviceSpec::a100(), 1);

    let measure = |cfg: &ScConfig| {
        dev.reset();
        let kernels = GpuKernels::new_cost_only(dev.stream(0));
        let mut exec = GpuExec::new(&kernels);
        assemble_sc(&mut exec, &l, &f.bt_perm, cfg);
        dev.synchronize()
    };
    let orig = measure(&ScConfig::original(FactorStorage::Dense));
    let opt = measure(&ScConfig::optimized(true, true));
    assert!(
        opt < orig,
        "optimized ({opt:.6}s) must beat original ({orig:.6}s) at this size"
    );
}

#[test]
fn streams_overlap_reduces_makespan() {
    // assembling 4 subdomains on 4 streams must beat 1 stream
    let p = HeatProblem::build_3d(4, (2, 2, 1), Gluing::Redundant);
    let factors: Vec<SubdomainFactors> = p
        .subdomains
        .iter()
        .map(|sd| {
            SubdomainFactors::build(
                sd,
                FetiOptions::default().engine,
                Ordering::NestedDissection,
            )
        })
        .collect();
    let cfg = ScConfig::optimized(true, true);
    let run = |n_streams: usize| {
        let dev = Device::new(DeviceSpec::a100(), n_streams);
        for (i, f) in factors.iter().enumerate() {
            let kernels = GpuKernels::new_cost_only(dev.stream(i % n_streams));
            let mut exec = GpuExec::new(&kernels);
            let l = f.chol.factor_csc();
            assemble_sc(&mut exec, &l, &f.bt_perm, &cfg);
        }
        dev.synchronize()
    };
    let serial = run(1);
    let parallel = run(4);
    assert!(
        parallel < serial,
        "4 streams ({parallel:.6}) must beat 1 stream ({serial:.6})"
    );
}

#[test]
fn device_spec_sanity() {
    let a100 = DeviceSpec::a100();
    // peak-bound sanity: 2 TF of work cannot finish faster than peak allows
    let t = a100.kernel_seconds(&schur_dd::sc_gpu::KernelCost::compute(2e12, 1e9));
    assert!(t >= 2e12 / (a100.fp64_gflops * 1e9));
    // launch-bound sanity
    let t_small = a100.kernel_seconds(&schur_dd::sc_gpu::KernelCost::compute(10.0, 80.0));
    assert!(t_small >= a100.kernel_launch_us * 1e-6);
}
