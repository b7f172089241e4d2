//! The paper's figure sweeps — Table 1 and Figures 5–10 — as one
//! table-driven bin. Each figure prints its tables and writes them as CSV
//! under `results/`; none returns a verdict (pass/fail lives in
//! `cargo test`, performance tracking in `benchmark/`).
//!
//! CPU columns are measured wall time of the real kernels; GPU columns are
//! simulated A100 time from the `sc_gpu` cost model. The cluster-level
//! figures (8–10) emit one `*_host` and one `*_sim` table each: no cell adds,
//! subtracts or divides a wall value and a simulated one, so every
//! `*_sim.csv` is byte-identical run to run (the `ci --stage paper` check).
//!
//! Usage: `cargo run --release -p sc_bench --bin paper --
//! <table1|fig5|fig6|fig7|fig8|fig9|fig10|all>... [--full] [--max-dofs N] [--reps N]`

use rayon::prelude::*;
use sc_bench::{
    ladder_2d, ladder_3d, ms, time_assembly_gpu, time_min, time_once, time_syrk_cpu, time_syrk_gpu,
    time_trsm_cpu, time_trsm_gpu, KernelInputs, KernelWorkload, Table,
};
use sc_core::tune::table1_defaults as t1;
use sc_core::{
    assemble_sc_with_cache, estimate_apply, AssemblySession, Backend, BlockCutsCache, BlockParam,
    CpuExec, FactorStorage, LazyBatch, ScConfig, ScParams, ScheduleOptions, StreamPolicy,
    SyrkVariant, TrsmVariant,
};
use sc_factor::Engine;
use sc_fem::{Gluing, HeatProblem, Subdomain};
use sc_feti::{measure_apply_cost, preprocess_approach, DualOpApproach, SubdomainFactors};
use sc_gpu::{Device, DeviceSpec};
use sc_order::Ordering;
use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

type Figure = fn(&BenchArgs, &Arc<Device>);

/// Every sweep, in the order `all` runs them.
const FIGURES: &[(&str, Figure)] = &[
    ("table1", table1),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
];

/// Command-line knobs shared by all sweeps.
struct BenchArgs {
    /// Largest subdomain size (dofs) for CPU-executed series.
    max_dofs_cpu: usize,
    /// Largest subdomain size (dofs) for simulated-GPU series (cost-only
    /// sweeps tolerate bigger sizes).
    max_dofs_gpu: usize,
    /// Repetitions per measured point.
    reps: usize,
}

/// Print the usage string and exit 2 (usage error).
fn usage(problem: &str) -> ! {
    let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
    eprintln!("paper: {problem}");
    eprintln!(
        "usage: paper <{}|all>... [--full] [--max-dofs N] [--reps N]",
        names.join("|")
    );
    std::process::exit(2);
}

/// Parse `<figure>... [--full] [--max-dofs N] [--reps N]` from
/// `std::env::args`; anything else is a usage error.
fn parse_args() -> (Vec<String>, BenchArgs) {
    let mut args = BenchArgs {
        max_dofs_cpu: 3_000,
        max_dofs_gpu: 10_000,
        reps: 1,
    };
    let mut figures = Vec::new();
    let mut it = std::env::args().skip(1);
    let count = |flag: &str, it: &mut dyn Iterator<Item = String>| -> usize {
        match it.next().map(|v| v.parse()) {
            Some(Ok(v)) => v,
            _ => usage(&format!("`{flag}` requires a non-negative integer")),
        }
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--full" => {
                args.max_dofs_cpu = 10_000;
                args.max_dofs_gpu = 36_000;
            }
            "--max-dofs" => {
                let v = count("--max-dofs", &mut it);
                args.max_dofs_cpu = v;
                args.max_dofs_gpu = v;
            }
            "--reps" => args.reps = count("--reps", &mut it),
            name if name == "all" || FIGURES.iter().any(|(f, _)| *f == name) => figures.push(a),
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    if figures.is_empty() {
        usage("no figure named");
    }
    (figures, args)
}

fn main() {
    let (figures, args) = parse_args();
    // four streams for the cluster-level figures (8–10), which spread the
    // subdomains round-robin; the kernel-level ones submit on stream 0 only,
    // where the stream count does not enter the simulated time
    let device = Device::new(DeviceSpec::a100(), 4);
    for (name, run) in FIGURES {
        if figures.iter().any(|f| f == "all" || f == name) {
            run(&args, &device);
        }
    }
}

/// The subdomain-size ladder and the factor storage the paper uses per
/// dimension (sparse in 2D, dense in 3D).
fn ladder(dim: usize, args: &BenchArgs) -> (Vec<usize>, FactorStorage) {
    if dim == 2 {
        (ladder_2d(args.max_dofs_cpu), FactorStorage::Sparse)
    } else {
        (ladder_3d(args.max_dofs_cpu), FactorStorage::Dense)
    }
}

/// The cluster the whole-assembly figures decompose: 3×3 subdomains in 2D,
/// 2×2×2 in 3D, `cells` cells per subdomain edge.
fn cluster_problem(dim: usize, cells: usize) -> HeatProblem {
    if dim == 2 {
        HeatProblem::build_2d(cells, (3, 3), Gluing::Redundant)
    } else {
        HeatProblem::build_3d(cells, (2, 2, 2), Gluing::Redundant)
    }
}

/// Table 1: optimal splitting of the matrices — for each algorithm
/// (TRSM RHS / TRSM factor / SYRK input / SYRK output), platform (CPU / GPU)
/// and dimension (2D / 3D), sweep block-size and block-count parameters and
/// report the best one (`S <size>` or `C <count>`, as in the paper).
fn table1(args: &BenchArgs, device: &Arc<Device>) {
    const SIZES: [usize; 7] = [25, 50, 100, 200, 500, 1000, 2000];
    const COUNTS: [usize; 5] = [1, 5, 10, 50, 100];
    let candidates = || {
        SIZES
            .iter()
            .map(|&s| BlockParam::Size(s))
            .chain(COUNTS.iter().map(|&c| BlockParam::Count(c)))
    };
    let label = |p: BlockParam| match p {
        BlockParam::Size(s) => format!("S {s}"),
        BlockParam::Count(c) => format!("C {c}"),
    };

    let mut table = Table::new(
        "Table 1: optimal splitting of the matrices (S = block size, C = block count)",
        &["algorithm", "CPU 2D", "CPU 3D", "GPU 2D", "GPU 3D"],
    );

    // representative mid-size subdomains per dimension
    let isqrt = (args.max_dofs_cpu as f64).sqrt() as usize;
    let icbrt = (args.max_dofs_cpu as f64).cbrt() as usize;
    let w2 = KernelWorkload::build(2, usize::min(63, isqrt - 1)); // up to 64² dofs
    let w3 = KernelWorkload::build(3, usize::min(13, icbrt - 1)); // up to 14³ dofs
    let in2 = KernelInputs::new(&w2);
    let in3 = KernelInputs::new(&w3);

    let best = |f: &mut dyn FnMut(BlockParam) -> f64| -> String {
        let mut best_p = BlockParam::Size(SIZES[0]);
        let mut best_t = f64::INFINITY;
        for p in candidates() {
            let t = f(p);
            if t < best_t {
                best_t = t;
                best_p = p;
            }
        }
        label(best_p)
    };
    let (sparse, dense) = (FactorStorage::Sparse, FactorStorage::Dense);

    // --- TRSM, RHS splitting ---
    let rs = TrsmVariant::RhsSplit;
    table.row(vec![
        "TRSM, RHS splitting".to_string(),
        best(&mut |p| time_trsm_cpu(&w2, &in2, sparse, rs(p), args.reps)),
        best(&mut |p| time_trsm_cpu(&w3, &in3, sparse, rs(p), args.reps)),
        best(&mut |p| time_trsm_gpu(&w2, &in2, sparse, rs(p), device)),
        best(&mut |p| time_trsm_gpu(&w3, &in3, sparse, rs(p), device)),
    ]);

    // --- TRSM, factor splitting (with pruning, the paper's §4.1 setting) ---
    let fs = |p: BlockParam| TrsmVariant::FactorSplit {
        block: p,
        prune: true,
    };
    table.row(vec![
        "TRSM, factor splitting".to_string(),
        best(&mut |p| time_trsm_cpu(&w2, &in2, sparse, fs(p), args.reps)),
        best(&mut |p| time_trsm_cpu(&w3, &in3, dense, fs(p), args.reps)),
        best(&mut |p| time_trsm_gpu(&w2, &in2, sparse, fs(p), device)),
        best(&mut |p| time_trsm_gpu(&w3, &in3, dense, fs(p), device)),
    ]);

    // --- SYRK, input splitting ---
    table.row(vec![
        "SYRK, input splitting".to_string(),
        best(&mut |p| time_syrk_cpu(&in2, SyrkVariant::InputSplit(p), args.reps)),
        best(&mut |p| time_syrk_cpu(&in3, SyrkVariant::InputSplit(p), args.reps)),
        best(&mut |p| time_syrk_gpu(&in2, SyrkVariant::InputSplit(p), device)),
        best(&mut |p| time_syrk_gpu(&in3, SyrkVariant::InputSplit(p), device)),
    ]);

    // --- SYRK, output splitting ---
    table.row(vec![
        "SYRK, output splitting".to_string(),
        best(&mut |p| time_syrk_cpu(&in2, SyrkVariant::OutputSplit(p), args.reps)),
        best(&mut |p| time_syrk_cpu(&in3, SyrkVariant::OutputSplit(p), args.reps)),
        best(&mut |p| time_syrk_gpu(&in2, SyrkVariant::OutputSplit(p), device)),
        best(&mut |p| time_syrk_gpu(&in3, SyrkVariant::OutputSplit(p), device)),
    ]);

    table.emit("table1");
    println!(
        "workloads: 2D {} dofs (m={}), 3D {} dofs (m={}); paper Table 1 for reference:",
        w2.n, w2.m, w3.n, w3.m
    );
    println!("  TRSM RHS:    S100 S100 C1 S1000 | TRSM factor: S200 S200 S1000 S500");
    println!("  SYRK input:  S200 C50 S2000 S1000 | SYRK output: S200 C10 S200 S1000");
}

/// Figure 5: dependency of the SC assembly time on the partition parameter
/// for a 3D problem on the (simulated) GPU with factor splitting — the
/// U-shaped curve showing the trade-off between work saved by omitting zeros
/// (large blocks waste work) and kernel-launch overhead (small blocks pay
/// per-launch costs). Two partitioning modes: fixed block *count* vs. fixed
/// block *size*, at a small (~3k dof) and a large subdomain.
fn fig5(args: &BenchArgs, device: &Arc<Device>) {
    let config = |block: BlockParam| {
        ScConfig::Fixed(ScParams {
            trsm: TrsmVariant::FactorSplit { block, prune: true },
            syrk: SyrkVariant::InputSplit(block),
            factor_storage: FactorStorage::Dense,
            stepped_permutation: true,
        })
    };

    // paper: 2,744 ("3k") and 35,937 ("35k") unknowns; we default to 2,744
    // and the largest cube fitting --max-dofs (9,261 by default)
    let small = KernelWorkload::build(3, 13); // 14³ = 2744
    let large_c = [32usize, 25, 20, 16, 13]
        .into_iter()
        .find(|&c| (c + 1).pow(3) <= args.max_dofs_gpu.max(4096))
        .unwrap_or(13);
    let large = KernelWorkload::build(3, large_c);

    const PARAMS: [usize; 13] = [1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000];
    // every sweep point is timed once; the table and the optima below both
    // read from here
    let time = |w: &KernelWorkload, block: BlockParam| time_assembly_gpu(w, &config(block), device);
    let times: Vec<[f64; 4]> = PARAMS
        .iter()
        .map(|&p| {
            [
                time(&small, BlockParam::Count(p)),
                time(&small, BlockParam::Size(p)),
                time(&large, BlockParam::Count(p)),
                time(&large, BlockParam::Size(p)),
            ]
        })
        .collect();

    let mut table = Table::new(
        &format!(
            "Fig 5: GPU SC assembly time vs partition parameter (3D, factor splitting)\n\
             small = {} dofs, large = {} dofs [simulated ms per subdomain]",
            small.n, large.n
        ),
        &[
            "param",
            "small_count",
            "small_size",
            "large_count",
            "large_size",
        ],
    );
    for (p, row) in PARAMS.iter().zip(&times) {
        let mut cells = vec![p.to_string()];
        cells.extend(row.iter().map(|&t| ms(t)));
        table.row(cells);
    }
    table.emit("fig5");

    // the paper's punchline: the optimal block size transfers across
    // subdomain sizes, the optimal count does not — report both optima
    let best = |col: usize| {
        let at = (0..PARAMS.len())
            .min_by(|&a, &b| times[a][col].total_cmp(&times[b][col]))
            .expect("non-empty sweep");
        PARAMS[at]
    };
    let [small_count, small_size, large_count, large_size] = [0, 1, 2, 3].map(best);
    println!("optimal block SIZE : small {small_size}, large {large_size}  (paper: ~500 for both)");
    println!(
        "optimal block COUNT: small {small_count}, large {large_count}  (paper: grows with the subdomain)"
    );
}

/// Figure 6: comparison of TRSM splitting variants (RHS split, factor split,
/// factor split + pruning) and SYRK splitting variants (input split, output
/// split), on CPU and simulated GPU, for 2D and 3D subdomain ladders.
fn fig6(args: &BenchArgs, device: &Arc<Device>) {
    for dim in [2usize, 3] {
        let (ladder, storage) = ladder(dim, args);
        let (trsm_rhs_cpu, trsm_f_cpu) = if dim == 2 {
            (t1::TRSM_RHS_CPU_2D, t1::TRSM_FACTOR_CPU_2D)
        } else {
            (t1::TRSM_RHS_CPU_3D, t1::TRSM_FACTOR_CPU_3D)
        };
        let (trsm_rhs_gpu, trsm_f_gpu) = if dim == 2 {
            (t1::TRSM_RHS_GPU_2D, t1::TRSM_FACTOR_GPU_2D)
        } else {
            (t1::TRSM_RHS_GPU_3D, t1::TRSM_FACTOR_GPU_3D)
        };
        let (syrk_in_cpu, syrk_out_cpu) = if dim == 2 {
            (t1::SYRK_INPUT_CPU_2D, t1::SYRK_OUTPUT_CPU_2D)
        } else {
            (t1::SYRK_INPUT_CPU_3D, t1::SYRK_OUTPUT_CPU_3D)
        };
        let (syrk_in_gpu, syrk_out_gpu) = if dim == 2 {
            (t1::SYRK_INPUT_GPU_2D, t1::SYRK_OUTPUT_GPU_2D)
        } else {
            (t1::SYRK_INPUT_GPU_3D, t1::SYRK_OUTPUT_GPU_3D)
        };

        let mut trsm_table = Table::new(
            &format!("Fig 6 (top): TRSM splitting variants, {dim}D [ms per subdomain]"),
            &[
                "dofs",
                "m",
                "cpu_rhs",
                "cpu_f",
                "cpu_f+prune",
                "gpu_rhs",
                "gpu_f",
                "gpu_f+prune",
            ],
        );
        let mut syrk_table = Table::new(
            &format!("Fig 6 (bottom): SYRK splitting variants, {dim}D [ms per subdomain]"),
            &[
                "dofs",
                "m",
                "cpu_input",
                "cpu_output",
                "gpu_input",
                "gpu_output",
            ],
        );

        for &c in &ladder {
            let w = KernelWorkload::build(dim, c);
            let inputs = KernelInputs::new(&w);
            let factor_split =
                |block: BlockParam, prune: bool| TrsmVariant::FactorSplit { block, prune };
            let trsm_cpu = |v: TrsmVariant| time_trsm_cpu(&w, &inputs, storage, v, args.reps);
            let trsm_gpu = |v: TrsmVariant| time_trsm_gpu(&w, &inputs, storage, v, device);
            trsm_table.row(vec![
                w.n.to_string(),
                w.m.to_string(),
                ms(trsm_cpu(TrsmVariant::RhsSplit(trsm_rhs_cpu))),
                ms(trsm_cpu(factor_split(trsm_f_cpu, false))),
                ms(trsm_cpu(factor_split(trsm_f_cpu, true))),
                ms(trsm_gpu(TrsmVariant::RhsSplit(trsm_rhs_gpu))),
                ms(trsm_gpu(factor_split(trsm_f_gpu, false))),
                ms(trsm_gpu(factor_split(trsm_f_gpu, true))),
            ]);

            let cpu_in = time_syrk_cpu(&inputs, SyrkVariant::InputSplit(syrk_in_cpu), args.reps);
            let cpu_out = time_syrk_cpu(&inputs, SyrkVariant::OutputSplit(syrk_out_cpu), args.reps);
            let gpu_in = time_syrk_gpu(&inputs, SyrkVariant::InputSplit(syrk_in_gpu), device);
            let gpu_out = time_syrk_gpu(&inputs, SyrkVariant::OutputSplit(syrk_out_gpu), device);
            syrk_table.row(vec![
                w.n.to_string(),
                w.m.to_string(),
                ms(cpu_in),
                ms(cpu_out),
                ms(gpu_in),
                ms(gpu_out),
            ]);
        }
        trsm_table.emit(&format!("fig6_trsm_{dim}d"));
        syrk_table.emit(&format!("fig6_syrk_{dim}d"));
    }
    println!("note: cpu_* columns are measured wall time of the real kernels;");
    println!("      gpu_* columns are simulated A100 time from the sc_gpu cost model.");
}

/// Figure 7: time and speedup of the **pure TRSM and SYRK kernels** —
/// original (non-stepped) vs. optimized (stepped), on CPU and simulated GPU,
/// plus the solver-provided forward-substitution baseline (the CHOLMOD /
/// PARDISO lines of the paper: full multi-RHS forward solves through the
/// solver API, oblivious to RHS sparsity).
fn fig7(args: &BenchArgs, device: &Arc<Device>) {
    let ratio = |a: f64, b: f64| format!("{:.2}", a / b);
    for dim in [2usize, 3] {
        let (ladder, storage) = ladder(dim, args);
        let mut trsm = Table::new(
            &format!("Fig 7 (TRSM, {dim}D) [ms per subdomain]"),
            &[
                "dofs",
                "m",
                "cpu_orig",
                "cpu_opt",
                "solver_fwd",
                "gpu_orig",
                "gpu_opt",
                "su_cpu",
                "su_gpu",
            ],
        );
        let mut syrk = Table::new(
            &format!("Fig 7 (SYRK, {dim}D) [ms per subdomain]"),
            &[
                "dofs", "m", "cpu_orig", "cpu_opt", "gpu_orig", "gpu_opt", "su_cpu", "su_gpu",
            ],
        );

        for &c in &ladder {
            let w = KernelWorkload::build(dim, c);
            let inputs = KernelInputs::new(&w);
            let three_d = dim == 3;
            let opt = ScParams::optimized(false, three_d);
            let opt_gpu = ScParams::optimized(true, three_d);

            // TRSM: original = plain over the full factor
            let cpu_orig = time_trsm_cpu(&w, &inputs, storage, TrsmVariant::Plain, args.reps);
            let cpu_opt = time_trsm_cpu(&w, &inputs, storage, opt.trsm, args.reps);
            // solver forward substitution: the whole RHS through the sparse
            // solve ("solving the full RHS matrix independently to sparsity",
            // paper §4.3)
            let solver_fwd = time_min(args.reps, || {
                let mut y = inputs.y0.clone();
                sc_sparse::csc_lower_solve_mat(&w.l, y.as_mut());
                std::hint::black_box(&y);
            });
            let gpu_orig = time_trsm_gpu(&w, &inputs, storage, TrsmVariant::Plain, device);
            let gpu_opt = time_trsm_gpu(&w, &inputs, storage, opt_gpu.trsm, device);
            trsm.row(vec![
                w.n.to_string(),
                w.m.to_string(),
                ms(cpu_orig),
                ms(cpu_opt),
                ms(solver_fwd),
                ms(gpu_orig),
                ms(gpu_opt),
                ratio(cpu_orig, cpu_opt),
                ratio(gpu_orig, gpu_opt),
            ]);

            // SYRK
            let s_cpu_orig = time_syrk_cpu(&inputs, SyrkVariant::Plain, args.reps);
            let s_cpu_opt = time_syrk_cpu(&inputs, opt.syrk, args.reps);
            let s_gpu_orig = time_syrk_gpu(&inputs, SyrkVariant::Plain, device);
            let s_gpu_opt = time_syrk_gpu(&inputs, opt_gpu.syrk, device);
            syrk.row(vec![
                w.n.to_string(),
                w.m.to_string(),
                ms(s_cpu_orig),
                ms(s_cpu_opt),
                ms(s_gpu_orig),
                ms(s_gpu_opt),
                ratio(s_cpu_orig, s_cpu_opt),
                ratio(s_gpu_orig, s_gpu_opt),
            ]);
        }
        trsm.emit(&format!("fig7_trsm_{dim}d"));
        syrk.emit(&format!("fig7_syrk_{dim}d"));
    }
    println!("su_* columns: speedup orig/opt (the paper reports up to ~3 for dense");
    println!("kernels, matching the triangle-in-prism volume argument of §4.3).");
}

/// Figure 8: time and speedup of the assembly of the dual operator over all
/// subdomains of a cluster, in two configurations:
///
/// - `sep` — factors precomputed, only the SC assembly measured;
/// - `mix` — numerical factorization and SC assembly together; on the GPU
///   the device work of a subdomain can only start once its factorization
///   finishes ([`ScheduleOptions::with_ready_at`] at the measured host
///   pipeline time), which reproduces the paper's "delayed start of GPU
///   computations".
///
/// The GPU series are one [`AssemblySession`] each on the paper's blind
/// round-robin schedule. `gpu_sep_*` is purely simulated; `gpu_mix_*` is a
/// simulated makespan floored by *measured* factorization times, so it is
/// printed with the host-clock columns.
fn fig8(args: &BenchArgs, device: &Arc<Device>) {
    let n_streams = device.n_streams();
    let build = |sd: &Subdomain| {
        SubdomainFactors::build(sd, Engine::Simplicial, Ordering::NestedDissection)
    };
    for dim in [2usize, 3] {
        let (ladder, orig_storage) = ladder(dim, args);
        let mut host = Table::new(
            &format!(
                "Fig 8 (host clock): whole SC assembly, {dim}D [ms per subdomain] \
                 (sep = assembly only, mix = incl. factorization)"
            ),
            &[
                "dofs",
                "cpu_sep_orig",
                "cpu_sep_opt",
                "cpu_mix_orig",
                "cpu_mix_opt",
                "gpu_mix_orig",
                "gpu_mix_opt",
                "su_gpu_mix",
            ],
        );
        let mut sim = Table::new(
            &format!("Fig 8 (sim clock): SC assembly only, {dim}D [ms per subdomain]"),
            &["dofs", "gpu_sep_orig", "gpu_sep_opt", "su_gpu_sep"],
        );

        for &c in &ladder {
            let problem = cluster_problem(dim, c);
            let nsub = problem.subdomains.len() as f64;
            let three_d = dim == 3;
            let orig = ScConfig::original(orig_storage);
            let opt_cpu = ScConfig::optimized(false, three_d);
            let opt_gpu = ScConfig::optimized(true, three_d);

            // prebuilt factors for the `sep` configuration, each with its
            // factorization time for the `mix` pipeline model
            let timed = |sd| {
                let t = Instant::now();
                let f = build(sd);
                (t.elapsed().as_secs_f64(), f)
            };
            let (fact_times, factors): (Vec<f64>, Vec<SubdomainFactors>) =
                problem.subdomains.iter().map(timed).unzip();

            // `sep` on either target is one `AssemblySession` over the
            // prebuilt factors; the GPU ones run the paper's blind
            // round-robin schedule
            let assemble = |backend: Backend, cfg: ScConfig| {
                let batch = LazyBatch::new(
                    &factors,
                    |_, f: &SubdomainFactors| Cow::Borrowed(f.chol.factor_csc_ref()),
                    |f| &f.bt_perm,
                );
                AssemblySession::new(backend, cfg).assemble(batch).report
            };
            let cpu_sep = |cfg: ScConfig| assemble(Backend::cpu(), cfg).total_seconds;
            // the per-subdomain call of the CPU session (one shared cuts
            // cache) behind each factorization: mix − sep is the factorization
            let cpu_mix = |cfg: ScConfig| {
                let cache = Some(BlockCutsCache::new());
                time_once(|| {
                    problem.subdomains.par_iter().for_each(|sd| {
                        let f = build(sd);
                        let (l, bt) = (f.chol.factor_csc_ref(), &f.bt_perm);
                        let sc = assemble_sc_with_cache(&mut CpuExec, l, bt, &cfg, cache.as_ref());
                        std::hint::black_box(sc);
                    })
                })
            };
            let gpu = |cfg: ScConfig, schedule: &ScheduleOptions| {
                device.reset();
                assemble(Backend::gpu_with(Arc::clone(device), schedule.clone()), cfg).makespan
            };
            // `mix`: one host lane per stream factorizes its subdomains in
            // index order; subdomain `i` is ready when its lane reaches it
            let mut lane_clock = vec![0.0f64; n_streams];
            let ready_at = fact_times.iter().enumerate().map(|(i, t)| {
                lane_clock[i % n_streams] += t;
                lane_clock[i % n_streams]
            });
            let sep = ScheduleOptions::default().with_policy(StreamPolicy::RoundRobin);
            let mix = sep.clone().with_ready_at(ready_at.collect());
            let gpu_sep_orig = gpu(orig, &sep);
            let gpu_sep_opt = gpu(opt_gpu, &sep);
            let gpu_mix_orig = gpu(orig, &mix);
            let gpu_mix_opt = gpu(opt_gpu, &mix);

            let per_sub = |s: f64| ms(s / nsub);
            let dofs = problem.dofs_per_subdomain().to_string();
            host.row(vec![
                dofs.clone(),
                per_sub(cpu_sep(orig)),
                per_sub(cpu_sep(opt_cpu)),
                per_sub(cpu_mix(orig)),
                per_sub(cpu_mix(opt_cpu)),
                per_sub(gpu_mix_orig),
                per_sub(gpu_mix_opt),
                format!("{:.2}", gpu_mix_orig / gpu_mix_opt),
            ]);
            sim.row(vec![
                dofs,
                per_sub(gpu_sep_orig),
                per_sub(gpu_sep_opt),
                format!("{:.2}", gpu_sep_orig / gpu_sep_opt),
            ]);
        }
        host.emit(&format!("fig8_{dim}d_host"));
        sim.emit(&format!("fig8_{dim}d_sim"));
    }
    println!("su_gpu_sep / su_gpu_mix: orig/opt speedups. The paper reports up to 5.1 (sep)");
    println!("and 3.3 (mix) for large 3D subdomains; the mix speedup is diluted by the");
    println!("factorization time, and large-subdomain `mix` additionally pays the delayed");
    println!("GPU start after the first factorizations. gpu_mix_* sit in the host table");
    println!("because their readiness floors are measured factorization wall times.");
}

/// Figure 9: preprocessing time of the eight dual-operator approaches of
/// Table 2 (implicit/explicit × library/algorithm), per subdomain, over the
/// subdomain-size ladder — one table per clock.
fn fig9(args: &BenchArgs, device: &Arc<Device>) {
    let names = |gpu_only: bool| -> Vec<&str> {
        let rows = DualOpApproach::ALL.iter();
        let rows = rows.filter(|a| !gpu_only || a.uses_gpu());
        std::iter::once("dofs")
            .chain(rows.map(|a| a.paper_name()))
            .collect()
    };
    for dim in [2usize, 3] {
        let mut host = Table::new(
            &format!(
                "Fig 9 (host clock): factorization + host-side assembly, {dim}D \
                 [ms per subdomain]"
            ),
            &names(false),
        );
        let mut sim = Table::new(
            &format!("Fig 9 (sim clock): device-side assembly, {dim}D [ms per subdomain]"),
            &names(true),
        );
        for &c in &ladder(dim, args).0 {
            let problem = cluster_problem(dim, c);
            let nsub = problem.subdomains.len() as f64;
            let dofs = problem.dofs_per_subdomain().to_string();
            let (mut host_row, mut sim_row) = (vec![dofs.clone()], vec![dofs]);
            for approach in DualOpApproach::ALL {
                let (_, report) = preprocess_approach(&problem, approach, Some(device));
                host_row.push(ms((report.factorization_s + report.assembly.host_s) / nsub));
                if approach.uses_gpu() {
                    sim_row.push(ms(report.assembly.sim_s / nsub));
                }
            }
            host.row(host_row);
            sim.row(sim_row);
        }
        host.emit(&format!("fig9_{dim}d_host"));
        sim.emit(&format!("fig9_{dim}d_sim"));
    }
    println!("host table: measured wall seconds of factorization + host-side assembly (for");
    println!("expl_cuda / expl_gpu_opt the factorization alone). sim table: simulated A100");
    println!("makespan of the device share (for expl_hybrid the upload of the host-assembled");
    println!("operators). The clocks are never added: no sim cell contains the factorization.");
    println!("Paper shape to check: expl_mkl fastest explicit in 2D; expl_gpu_opt fastest");
    println!("explicit for large 3D subdomains, up to 9.8x faster than expl_mkl and only");
    println!("~2.3x slower than implicit preprocessing.");
}

/// Figure 10: overall time spent in the FETI dual operator as a function of
/// the iteration count — `step_time(iters) = preprocessing/iters + apply` per
/// subdomain — and the resulting **amortization points** (the iteration count
/// where an explicit approach overtakes the implicit one), one table of each
/// per clock: CPU rows on measured wall time, GPU rows on simulated time.
fn fig10(args: &BenchArgs, device: &Arc<Device>) {
    use DualOpApproach::*;
    let host_spec = DeviceSpec::host();
    for dim in [2usize, 3] {
        // the paper plots impl_mkl/expl_mkl/expl_hybrid in 2D and
        // impl_mkl/impl_cholmod/expl_hybrid/expl_gpu_opt in 3D
        let (cpu, gpu): (&[DualOpApproach], &[DualOpApproach]) = if dim == 2 {
            (&[ImplMkl, ExplMkl], &[ExplHybrid])
        } else {
            (&[ImplMkl, ImplCholmod], &[ExplHybrid, ExplGpuOpt])
        };
        let mut host = fig10_tables("host", dim, cpu);
        let mut sim = fig10_tables("sim", dim, gpu);
        for &c in &ladder(dim, args).0 {
            let problem = cluster_problem(dim, c);
            let nsub = problem.subdomains.len() as f64;
            let dofs = problem.dofs_per_subdomain().to_string();

            // host clock: factorization + host assembly and the wall-timed
            // apply, the explicit rows against the best implicit one
            let wall = |&a: &DualOpApproach| {
                let (solver, report) = preprocess_approach(&problem, a, None);
                let pre = report.factorization_s + report.assembly.host_s;
                (a, pre / nsub, measure_apply_cost(&solver, 3).host_s / nsub)
            };
            let rows: Vec<Cost> = cpu.iter().map(wall).collect();
            let implicit = (rows.iter().filter(|r| is_implicit(r.0)))
                .min_by(|a, b| (a.1 + 100.0 * a.2).total_cmp(&(b.1 + 100.0 * b.2)));
            fig10_size(&mut host, &dofs, &rows, implicit.map(|r| (r.1, r.2)));

            // sim clock: the device share of assembly and apply. The implicit
            // side has no device assembly, and its apply is the §4.4 estimate
            // of Eq. 11 priced on the host spec (what `plan_hybrid` decides
            // with) — a function of the factors, which the rows share
            let (mut rows, mut eq11) = (Vec::new(), None);
            for &a in gpu {
                let (solver, report) = preprocess_approach(&problem, a, Some(device));
                let apply = measure_apply_cost(&solver, 3);
                rows.push((a, report.assembly.sim_s / nsub, apply.sim_s / nsub));
                eq11.get_or_insert_with(|| {
                    let factors = solver.factors().iter().enumerate();
                    let each = factors.map(|(i, f)| {
                        estimate_apply(f.chol.factor_csc_ref(), &f.bt_perm, i)
                            .implicit_seconds_on(&host_spec)
                    });
                    each.sum::<f64>() / nsub
                });
            }
            fig10_size(&mut sim, &dofs, &rows, eq11.map(|apply| (0.0, apply)));
        }
        for (clock, (step, amort)) in [("host", host), ("sim", sim)] {
            step.emit(&format!("fig10_{dim}d_{clock}"));
            amort.emit(&format!("fig10_amortization_{dim}d_{clock}"));
        }
    }
    println!("host tables: measured wall seconds (factorization + host assembly, wall-timed");
    println!("applies). sim tables: simulated A100 seconds of the device share; the implicit");
    println!("side of a sim amortization point is estimate_apply(..).implicit_seconds_on(host)");
    println!("summed over the subdomains. The factorization is shared by both sides and has no");
    println!("sim price yet (ROADMAP 3(b)), so no sim cell contains it; expl_hybrid's sim");
    println!("preprocessing is its upload only (its sparse-RHS assembly is in fig9's host table).");
    println!("paper shape to check (3D): expl_gpu_opt amortizes at ~10 iterations across");
    println!("subdomain sizes 1k-70k; implicit wins only for very few iterations.");
}

/// `(approach, preprocessing, apply)`: seconds per subdomain on one clock.
type Cost = (DualOpApproach, f64, f64);

fn is_implicit(a: DualOpApproach) -> bool {
    matches!(a, DualOpApproach::ImplMkl | DualOpApproach::ImplCholmod)
}

/// One clock's half of figure 10: the step-time table and the amortization
/// table of the approaches timed on that clock.
fn fig10_tables(clock: &str, dim: usize, approaches: &[DualOpApproach]) -> (Table, Table) {
    let mut headers = vec!["dofs", "iters"];
    headers.extend(approaches.iter().map(|a| a.paper_name()));
    let step = format!("step time per subdomain vs iterations, {dim}D [ms]");
    let amort = format!("amortization points (explicit vs implicit), {dim}D");
    (
        Table::new(&format!("Fig 10 ({clock} clock): {step}"), &headers),
        Table::new(
            &format!("Fig 10 ({clock} clock): {amort}"),
            &["dofs", "approach", "amortization_iters"],
        ),
    )
}

/// One ladder size of one clock: a step-time row per iteration count, and
/// for each explicit row the iteration count from which paying its extra
/// preprocessing once is recovered by its cheaper apply — against
/// `implicit = (preprocessing, apply)` on the same clock.
fn fig10_size(
    (step_table, amort_table): &mut (Table, Table),
    dofs: &str,
    rows: &[Cost],
    implicit: Option<(f64, f64)>,
) {
    for iters in [1usize, 10, 100, 1000, 10000] {
        let mut row = vec![dofs.to_string(), iters.to_string()];
        row.extend(rows.iter().map(|r| ms(r.1 / iters as f64 + r.2)));
        step_table.row(row);
    }
    let Some((ipre, iapp)) = implicit else {
        return;
    };
    for &(a, pre, app) in rows.iter().filter(|r| !is_implicit(r.0)) {
        let label = if app >= iapp {
            "never (apply not faster)".to_string()
        } else if pre <= ipre {
            "always better".to_string()
        } else {
            format!("{:.0}", ((pre - ipre) / (iapp - app)).ceil())
        };
        amort_table.row(vec![dofs.to_string(), a.paper_name().to_string(), label]);
    }
}
