//! Execution backend abstraction: the same splitting algorithms run on the
//! CPU and on the simulated GPU.
//!
//! An assembly is one launch list, [`AssemblyPlan::launches`]: the
//! [`KernelCost`]s of its `sc-dense` / `sc-sparse` host routines, in launch
//! order, written once in the plan next to the numerics they price. A
//! backend is only a sink for that list ([`Exec::submit`]): it decides what
//! happens to the costs and whether the plan's numeric phase runs, so
//! "bitwise identical across targets" holds by construction.
//!
//! [`AssemblyPlan::launches`]: crate::AssemblyPlan::launches

use sc_gpu::{GpuKernels, KernelCost};

/// Sink of an assembly's launch list.
pub trait Exec {
    /// True when this backend models the GPU platform — [`ScConfig::Auto`]
    /// resolves its Table-1-style defaults against this flag.
    ///
    /// [`ScConfig::Auto`]: crate::assemble::ScConfig::Auto
    fn is_gpu(&self) -> bool {
        false
    }

    /// Take one launch list: `launches` builds it, in launch order (called
    /// only by backends that price kernels). Returns whether the host
    /// numerics of those launches run.
    fn submit(&mut self, launches: impl FnOnce() -> Vec<KernelCost>) -> bool;
}

/// Host backend: the numerics run, no cost is ever built.
#[derive(Default, Clone, Copy, Debug)]
pub struct CpuExec;

impl Exec for CpuExec {
    fn submit(&mut self, _launches: impl FnOnce() -> Vec<KernelCost>) -> bool {
        true
    }
}

/// Simulated-GPU backend: every launch advances the bound stream's simulated
/// timeline (see `sc-gpu`), in list order; the host numerics run unless the
/// kernel set is cost-only.
pub struct GpuExec<'a> {
    kernels: &'a GpuKernels,
}

impl<'a> GpuExec<'a> {
    /// Bind to a kernel set (one per stream).
    pub fn new(kernels: &'a GpuKernels) -> Self {
        GpuExec { kernels }
    }
}

impl Exec for GpuExec<'_> {
    fn is_gpu(&self) -> bool {
        true
    }

    fn submit(&mut self, launches: impl FnOnce() -> Vec<KernelCost>) -> bool {
        for cost in launches() {
            self.kernels.stream().submit(&cost);
        }
        !self.kernels.is_cost_only()
    }
}

/// Recording backend: the host numerics run (the one kernel body, so
/// results are bitwise those of [`CpuExec`]) while every list is appended
/// instead of submitted — kernel for kernel the costs [`GpuExec`] submits.
#[derive(Default)]
pub struct RecordingExec {
    costs: Vec<KernelCost>,
}

impl RecordingExec {
    /// Empty recorder.
    pub fn new() -> Self {
        RecordingExec::default()
    }

    /// The recorded kernel sequence, in launch order.
    pub fn into_costs(self) -> Vec<KernelCost> {
        self.costs
    }
}

impl Exec for RecordingExec {
    // models the GPU platform: ScConfig::Auto must resolve exactly as it
    // would on a live GpuExec so recorded costs match a direct GPU run
    fn is_gpu(&self) -> bool {
        true
    }

    fn submit(&mut self, launches: impl FnOnce() -> Vec<KernelCost>) -> bool {
        self.costs.extend(launches());
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{assemble_sc, AssemblyPlan, BlockParam, FactorStorage, ScConfig, ScParams};
    use crate::{SyrkVariant, TrsmVariant};
    use sc_dense::Mat;
    use sc_gpu::{Device, DeviceSpec};
    use sc_sparse::{Coo, Csc};

    /// A 12 × 12 banded factor and a 5-column gluing block whose closure
    /// leaves out one row: every diagonal block of 4 has a panel below it.
    fn fixture() -> (Csc, Csc) {
        let n = 12;
        let mut lc = Coo::new(n, n);
        for j in 0..n {
            lc.push(j, j, 2.0 + j as f64 * 0.1);
            if j + 2 < n {
                lc.push(j + 2, j, -0.3);
            }
        }
        let mut bc = Coo::new(n, 5);
        for j in 0..5 {
            bc.push((j * 3) % n, j, 1.0);
        }
        (lc.to_csc(), bc.to_csc())
    }

    /// The fixture's launches, priced by hand from its block shapes. The
    /// closure drops row 1 (11 rows, pivots 0, 0, 2, 5, 8); blocks of 4 cut
    /// it at 4 and 8. Block 0: order 4, width 3, 6 diagonal entries, a panel
    /// of 2 entries on 2 rows over the 7 rows below; block 1: order 4,
    /// width 4, 6 entries, a panel of 2 entries on 2 of 3 rows; block 2:
    /// order 3, width 5, 4 entries, no panel. SYRK blocks of 5 rows reach
    /// widths 3, 5, 5 (the last one 1 row). The expansion moves the 5
    /// entries of `B̃ᵀ`, the packing the 5 × 5 `F̃`.
    fn hand_priced(storage: FactorStorage, prune: bool) -> Vec<KernelCost> {
        let g = KernelCost::gather_of::<f64>;
        let dense = storage == FactorStorage::Dense;
        let solve = |diag_nnz, order, width| match storage {
            FactorStorage::Sparse => KernelCost::trsm_sparse_of::<f64>(diag_nnz, width),
            FactorStorage::Dense => KernelCost::trsm_dense_of::<f64>(order, width),
        };
        // (diagonal entries, order, width, rows below)
        let blocks = [(6, 4, 3, 7), (6, 4, 4, 3), (4, 3, 5, 0)];
        let mut costs = vec![g(5)];
        for (diag_nnz, order, width, below) in blocks {
            costs.extend(dense.then(|| g(diag_nnz)));
            costs.push(solve(diag_nnz, order, width));
            if below == 0 {
                continue;
            }
            if prune {
                let gemm = KernelCost::gemm_of::<f64>(2, width, order);
                costs.extend([g(2 + 2), gemm, g(2 * width)]);
            } else if dense {
                let gemm = KernelCost::gemm_of::<f64>(below, width, order);
                costs.extend([g(order * width), g(2), gemm]);
            } else {
                costs.extend([g(order * width), KernelCost::spmm_of::<f64>(2, width)]);
            }
        }
        let syrk = [(3, 5), (5, 5), (5, 1)].map(|(n, k)| KernelCost::syrk_of::<f64>(n, k));
        costs.extend(syrk);
        costs.push(g(25));
        costs
    }

    /// Both storages, pruned and unpruned: between them the plans launch
    /// all six kernels. Each plan runs once per backend; every backend takes
    /// exactly the hand-priced launches, and the device spends each one's
    /// modelled time.
    #[test]
    fn six_kernels_four_backends() {
        let (l, bt) = fixture();
        let mut labels = std::collections::BTreeSet::new();
        for factor_storage in [FactorStorage::Sparse, FactorStorage::Dense] {
            for prune in [false, true] {
                let params = ScParams {
                    trsm: TrsmVariant::FactorSplit {
                        block: BlockParam::Size(4),
                        prune,
                    },
                    syrk: SyrkVariant::InputSplit(BlockParam::Size(5)),
                    factor_storage,
                    stepped_permutation: true,
                };
                let at = format!("{params:?}");
                let cfg = ScConfig::Fixed(params);
                let cpu = assemble_sc(&mut CpuExec, &l, &bt, &cfg);
                let dev = logging_device();
                let computing = GpuKernels::new(dev.stream(0));
                let gpu = assemble_sc(&mut GpuExec::new(&computing), &l, &bt, &cfg);
                let mut rec = RecordingExec::new();
                let recorded = assemble_sc(&mut rec, &l, &bt, &cfg);
                assert_eq!(cpu, gpu, "{at}: GpuExec");
                assert_eq!(cpu, recorded, "{at}: RecordingExec");
                assert!(cpu.data().iter().any(|v| v.abs() > 0.0), "{at}");

                let dev_cost_only = logging_device();
                let cost_only = GpuKernels::new_cost_only(dev_cost_only.stream(0));
                let untouched = assemble_sc(&mut GpuExec::new(&cost_only), &l, &bt, &cfg);
                assert_eq!(untouched, Mat::zeros(5, 5), "{at}: cost-only wrote");

                let want = hand_priced(factor_storage, prune);
                let costs = rec.into_costs();
                labels.extend(costs.iter().map(|c| c.label));
                assert_eq!(costs, want, "{at}: recorded costs");
                let plan = AssemblyPlan::new(&l, &bt, &params);
                assert_eq!(plan.launches(), want, "{at}: the plan's price");
                for d in [&dev, &dev_cost_only] {
                    assert_eq!(d.launches(), want.len(), "{at}");
                    // one stream: each launch ends its modelled time after
                    // the previous one
                    let ends = d.take_span_log().into_iter().map(|(_, span)| span.end);
                    let mut clock = 0.0;
                    let modelled = want.iter().map(|c| {
                        clock += d.spec().kernel_seconds(c);
                        clock
                    });
                    assert!(ends.eq(modelled), "{at}: submitted costs");
                }
            }
        }
        let six = [
            "gather",
            "gemm",
            "spmm",
            "syrk",
            "trsm_dense",
            "trsm_sparse",
        ];
        assert!(labels.iter().eq(six.iter()), "{labels:?}");
    }

    fn logging_device() -> std::sync::Arc<Device> {
        let dev = Device::new(DeviceSpec::a100(), 1);
        dev.enable_span_log();
        dev
    }

    #[test]
    fn cpu_exec_never_builds_a_cost() {
        let ran = Exec::submit(&mut CpuExec, || {
            unreachable!("the host backend prices nothing")
        });
        assert!(ran, "the host numerics always run");
    }

    #[test]
    fn recording_exec_mirrors_gpu_exec_costs_and_numbers() {
        // small factor + gluing block, assembled once on GpuExec and once on
        // RecordingExec: numerics must match bitwise, and the recorded cost
        // count must equal the device's launch count, the explicit
        // upload/download transfers included.
        let (l, bt) = fixture();
        let cfg = ScConfig::optimized(true, false);

        let dev = Device::new(DeviceSpec::a100(), 1);
        let k = GpuKernels::new(dev.stream(0));
        k.upload_csc(&l);
        k.upload_csc(&bt);
        let mut gpu = GpuExec::new(&k);
        let f_gpu = assemble_sc(&mut gpu, &l, &bt, &cfg);
        k.download_bytes(0);

        let mut rec = RecordingExec::new();
        let f_rec = assemble_sc(&mut rec, &l, &bt, &cfg);

        assert_eq!(f_gpu, f_rec, "recorded path must match GPU path bitwise");
        assert!(Exec::is_gpu(&rec), "recorder models the GPU platform");
        // the device driver's sequence: two uploads, the launches, a download
        let uploads = [l.nnz(), bt.nnz()].map(KernelCost::csc_transfer_of::<f64>);
        let download = KernelCost::transfer(0.0);
        let costs = uploads
            .into_iter()
            .chain(rec.into_costs())
            .chain([download]);
        assert_eq!(
            costs.count(),
            dev.launches(),
            "recorded kernel sequence must mirror the live submission count"
        );
    }
}
