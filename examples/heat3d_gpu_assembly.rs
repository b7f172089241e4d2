//! 3D heat transfer with the Schur complements assembled on the **simulated
//! GPU**: shows the simulated-A100 timeline (kernel launches, busy time,
//! makespan) for the original algorithm of [9] versus this paper's
//! sparsity-utilizing configuration.
//!
//! Run with: `cargo run --release --example heat3d_gpu_assembly`

use schur_dd::prelude::*;
use schur_dd::sc_feti::SubdomainFactors;
use std::sync::Arc;

fn main() {
    let problem = HeatProblem::build_3d(8, (2, 2, 2), Gluing::Redundant);
    println!(
        "3D heat transfer: {} subdomains of {} dofs, {} multipliers",
        problem.subdomains.len(),
        problem.dofs_per_subdomain(),
        problem.n_lambda
    );

    // factorize every subdomain on the CPU (the paper's CHOLMOD role)
    let factors: Vec<SubdomainFactors> = problem
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

    let device = Device::new(DeviceSpec::a100(), 4);
    let run = |label: &str, cfg: &ScConfig| -> f64 {
        device.reset();
        for (i, f) in factors.iter().enumerate() {
            let kernels = GpuKernels::new(device.stream(i % device.n_streams()));
            let l = f.chol.factor_csc_ref();
            kernels.upload_csc(l);
            kernels.upload_csc(&f.bt_perm);
            let mut exec = GpuExec::new(&kernels);
            let f_mat = assemble_sc(&mut exec, l, &f.bt_perm, cfg);
            std::hint::black_box(&f_mat);
        }
        let makespan = device.synchronize();
        println!(
            "{label:28} simulated makespan {:9.3} ms, {:5} kernel launches, \
             device busy {:9.3} ms",
            makespan * 1e3,
            device.launches(),
            device.busy_seconds() * 1e3
        );
        makespan
    };

    let t_orig = run(
        "original (plain kernels)",
        &ScConfig::original(FactorStorage::Dense),
    );
    let t_opt = run("optimized (stepped)", &ScConfig::optimized(true, true));
    println!(
        "\nsimulated GPU-section speedup: {:.2}x (paper: up to 5.1x on large subdomains)",
        t_orig / t_opt
    );

    // the assembled operators are bit-identical to a CPU assembly, so the
    // FETI solve works off the simulated device transparently — here through
    // the §4.4 scheduler (cost-model LPT + arena admission) with per-knob
    // auto-selection:
    let dev: Arc<Device> = Device::new(DeviceSpec::a100(), 4);
    let solver = FetiSolverBuilder::new()
        .backend(Backend::gpu(Arc::clone(&dev)))
        .formulation(FormulationChoice::Explicit)
        .assembly(ScConfig::Auto)
        .build(&problem);
    let solution = solver.solve();
    println!(
        "FETI solve with GPU-assembled dual operator: {} iterations, residual {:.1e}",
        solution.stats.iterations, solution.stats.rel_residual
    );
    if let Some(report) = solver.report() {
        println!(
            "scheduled assembly: device makespan {:.3} ms, arena peak {:.1} KiB",
            report.makespan * 1e3,
            report.temp_high_water() as f64 / 1024.0
        );
        for device in &report.devices {
            for lane in device.stream_lanes() {
                for entry in &lane.spans {
                    println!(
                        "  subdomain {:2} -> stream {} @ [{:8.3}, {:8.3}] us",
                        entry.index,
                        lane.stream,
                        entry.span.start * 1e6,
                        entry.span.end * 1e6
                    );
                }
            }
        }
    }
}
