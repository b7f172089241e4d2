//! Measurement drivers for the individual kernels and the whole SC assembly,
//! on both backends.
//!
//! CPU measurements run the real kernels and report wall seconds (minimum
//! over `reps`). GPU measurements run the kernels in cost-only mode against a
//! fresh device timeline and report the simulated makespan — identical to the
//! computing mode's timeline, since kernel costs depend only on shapes.

use crate::timing::time_min;
use crate::workloads::KernelWorkload;
use sc_core::{
    assemble_sc, run_syrk_variant, run_trsm_variant, CpuExec, FactorStorage, GpuExec, ScConfig,
    SteppedRhs, SyrkVariant, TrsmVariant,
};
use sc_dense::Mat;
use sc_gpu::{Device, GpuKernels};
use std::sync::Arc;

/// Pre-expanded inputs for kernel-level measurements.
pub struct KernelInputs {
    /// Stepped `B̃ᵀ`.
    pub stepped: SteppedRhs,
    /// Dense RHS with pseudo-random values **below every pivot** — the state
    /// a TRSM input/output generically reaches, so kernel timing is
    /// representative (an all-zero expansion would distort nothing for our
    /// value-oblivious kernels, but this keeps results meaningful if kernels
    /// change).
    pub y0: Mat,
}

impl KernelInputs {
    /// Prepare from a workload.
    pub fn new(w: &KernelWorkload) -> Self {
        let stepped = SteppedRhs::new(&w.bt_perm);
        let n = stepped.nrows();
        let mut y0 = stepped.to_dense();
        let mut state = 0x9E3779B97F4A7C15u64;
        for j in 0..stepped.ncols() {
            for i in stepped.pivots[j]..n {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let v = ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0;
                // sc-analyze: allow(float-eq)
                if y0[(i, j)] == 0.0 {
                    y0[(i, j)] = v;
                }
            }
        }
        KernelInputs { stepped, y0 }
    }
}

/// Measure one TRSM variant on the CPU (wall seconds).
pub fn time_trsm_cpu(
    w: &KernelWorkload,
    inputs: &KernelInputs,
    storage: FactorStorage,
    variant: TrsmVariant,
    reps: usize,
) -> f64 {
    time_min(reps, || {
        let mut y = inputs.y0.clone();
        run_trsm_variant(
            &mut CpuExec,
            &w.l,
            &inputs.stepped,
            storage,
            variant,
            &mut y,
        );
        std::hint::black_box(&y);
    })
}

/// Measure one TRSM variant on the simulated GPU (simulated seconds).
pub fn time_trsm_gpu(
    w: &KernelWorkload,
    inputs: &KernelInputs,
    storage: FactorStorage,
    variant: TrsmVariant,
    device: &Arc<Device>,
) -> f64 {
    device.reset();
    let kernels = GpuKernels::new_cost_only(device.stream(0));
    let mut exec = GpuExec::new(&kernels);
    let mut y = inputs.y0.clone();
    run_trsm_variant(&mut exec, &w.l, &inputs.stepped, storage, variant, &mut y);
    device.synchronize()
}

/// Measure one SYRK variant on the CPU.
pub fn time_syrk_cpu(inputs: &KernelInputs, variant: SyrkVariant, reps: usize) -> f64 {
    let m = inputs.stepped.ncols();
    time_min(reps, || {
        let mut f = Mat::zeros(m, m);
        run_syrk_variant(&mut CpuExec, &inputs.y0, &inputs.stepped, variant, &mut f);
        std::hint::black_box(&f);
    })
}

/// Measure one SYRK variant on the simulated GPU.
pub fn time_syrk_gpu(inputs: &KernelInputs, variant: SyrkVariant, device: &Arc<Device>) -> f64 {
    device.reset();
    let kernels = GpuKernels::new_cost_only(device.stream(0));
    let mut exec = GpuExec::new(&kernels);
    let m = inputs.stepped.ncols();
    let mut f = Mat::zeros(m, m);
    run_syrk_variant(&mut exec, &inputs.y0, &inputs.stepped, variant, &mut f);
    device.synchronize()
}

/// Measure a full SC assembly on the simulated GPU, including the H2D factor
/// upload (the "GPU section" of the paper's Figure 8 `sep` configuration).
pub fn time_assembly_gpu(w: &KernelWorkload, cfg: &ScConfig, device: &Arc<Device>) -> f64 {
    device.reset();
    let kernels = GpuKernels::new_cost_only(device.stream(0));
    kernels.upload_csc(&w.l);
    kernels.upload_csc(&w.bt_perm);
    let mut exec = GpuExec::new(&kernels);
    let f = assemble_sc(&mut exec, &w.l, &w.bt_perm, cfg);
    kernels.download_bytes(8 * f.nrows() * f.ncols());
    device.synchronize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_core::BlockParam;
    use sc_gpu::DeviceSpec;

    #[test]
    fn gpu_opt_assembly_beats_orig_on_3d_workload() {
        let w = KernelWorkload::build(3, 5); // 216-dof cube
        let device = Device::new(DeviceSpec::a100(), 1);
        let orig = time_assembly_gpu(&w, &ScConfig::original(FactorStorage::Dense), &device);
        let opt = time_assembly_gpu(&w, &ScConfig::optimized(true, true), &device);
        assert!(opt > 0.0 && orig > 0.0);
        // tiny subdomains may be launch-bound; just sanity check both ran
    }

    #[test]
    fn cpu_timings_are_positive_and_variants_run() {
        let w = KernelWorkload::build(2, 6);
        let inputs = KernelInputs::new(&w);
        let t = time_trsm_cpu(
            &w,
            &inputs,
            FactorStorage::Sparse,
            TrsmVariant::FactorSplit {
                block: BlockParam::Size(8),
                prune: true,
            },
            2,
        );
        assert!(t > 0.0);
        let s = time_syrk_cpu(&inputs, SyrkVariant::InputSplit(BlockParam::Size(8)), 2);
        assert!(s > 0.0);
    }
}
