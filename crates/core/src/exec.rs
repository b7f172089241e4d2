//! Execution backend abstraction: the same splitting algorithms run on the
//! CPU and on the simulated GPU, in either working precision.
//!
//! The assembly kernels are written **once**, in the numeric phase of
//! [`AssemblyPlan`](crate::AssemblyPlan): each launch names its
//! [`KernelCost`] and runs its `sc-dense` / `sc-sparse` host routine. A
//! backend is only a launch sink ([`Exec::launch`]) that decides what
//! happens to the cost and whether the host numerics run, so "bitwise
//! identical across targets" holds by construction. A launch's cost
//! already carries its working precision, so one backend serves `f64` and
//! `f32` assemblies alike.

use sc_dense::Scalar;
use sc_gpu::{GpuKernels, KernelCost, SlotAccess};
use sc_sparse::CscOf;

/// Launch sink of the assembly's kernels.
pub trait Exec {
    /// True when this backend models the GPU platform — [`ScConfig::Auto`]
    /// resolves its Table-1-style defaults against this flag.
    ///
    /// [`ScConfig::Auto`]: crate::assemble::ScConfig::Auto
    fn is_gpu(&self) -> bool {
        false
    }

    /// Take one kernel launch: `cost` builds its [`KernelCost`] (called only
    /// by backends that price kernels), `access` is how it touches the
    /// subdomain's temporary-arena slot. Returns whether the host numerics
    /// of the kernel run.
    fn launch(&mut self, cost: impl FnOnce() -> KernelCost, access: SlotAccess) -> bool;
}

/// Host backend: the kernel bodies run, no cost is ever built.
#[derive(Default, Clone, Copy, Debug)]
pub struct CpuExec;

impl Exec for CpuExec {
    fn launch(&mut self, _cost: impl FnOnce() -> KernelCost, _access: SlotAccess) -> bool {
        true
    }
}

/// Simulated-GPU backend: every launch advances the bound stream's simulated
/// timeline (see `sc-gpu`); the host numerics run unless the kernel set is
/// cost-only.
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

    fn launch(&mut self, cost: impl FnOnce() -> KernelCost, _access: SlotAccess) -> bool {
        self.kernels.stream().submit(&cost());
        !self.kernels.is_cost_only()
    }
}

/// Recording backend for the scheduled batch driver: the host numerics run
/// (the one kernel body, so results are bitwise those of [`CpuExec`]) while
/// every launch's [`KernelCost`] is appended instead of submitted — kernel
/// for kernel the costs [`GpuExec`] submits, priced at the working
/// precision's element width.
/// The scheduler later replays the recorded sequence into the device
/// timeline in a deterministic order, decoupling host-side parallel
/// computation from simulated-time accounting.
///
/// Alongside each cost the recorder notes how the kernel touches the
/// subdomain's temporary-arena slot ([`SlotAccess`]): uploads write it,
/// downloads read it, compute kernels read and write it. The replay binds
/// these relative accesses to the concrete slot admitted for the subdomain,
/// producing the hazard-audit [`Trace`](sc_gpu::Trace).
#[derive(Default)]
pub struct RecordingExec {
    costs: Vec<KernelCost>,
    accesses: Vec<SlotAccess>,
}

impl RecordingExec {
    /// Empty recorder.
    pub fn new() -> Self {
        RecordingExec::default()
    }

    fn push(&mut self, cost: KernelCost, access: SlotAccess) {
        self.costs.push(cost);
        self.accesses.push(access);
    }

    /// Record the H2D upload of a CSC matrix (mirrors
    /// `GpuKernels::upload_csc`, via the shared
    /// [`KernelCost::csc_transfer_of`] cost model). Writes the subdomain's
    /// arena slot.
    pub fn record_upload_csc<S: Scalar>(&mut self, m: &CscOf<S>) {
        self.push(
            KernelCost::csc_transfer_of::<S>(m.nnz()),
            SlotAccess::write(),
        );
    }

    /// Record a D2H download of `bytes` (mirrors
    /// `GpuKernels::download_bytes`). Reads the subdomain's arena slot.
    pub fn record_download_bytes(&mut self, bytes: usize) {
        self.push(KernelCost::transfer(bytes as f64), SlotAccess::read()); // sc-analyze: allow(precision-discipline)
    }

    /// The recorded kernel sequence, in launch order.
    pub fn into_costs(self) -> Vec<KernelCost> {
        self.costs
    }

    /// The recorded kernel sequence with the per-kernel slot accesses, in
    /// launch order (the two vectors are index-aligned).
    pub fn into_recording(self) -> (Vec<KernelCost>, Vec<SlotAccess>) {
        debug_assert_eq!(
            self.costs.len(),
            self.accesses.len(),
            "every recorded cost carries exactly one slot access"
        );
        (self.costs, self.accesses)
    }
}

impl Exec for RecordingExec {
    // models the GPU platform: ScConfig::Auto must resolve exactly as it
    // would on a live GpuExec so recorded costs match a direct GPU run
    fn is_gpu(&self) -> bool {
        true
    }

    fn launch(&mut self, cost: impl FnOnce() -> KernelCost, access: SlotAccess) -> bool {
        self.push(cost(), access);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AssemblyPlan, BlockParam, FactorStorage, ScParams, SyrkVariant, TrsmVariant};
    use sc_gpu::{Device, DeviceSpec};
    use sc_sparse::{Coo, CscOf};

    /// A 12 × 12 banded factor and a 5-column gluing block whose closure
    /// leaves out one row: every diagonal block of 4 has a panel below it.
    fn fixture() -> (CscOf<f64>, CscOf<f64>) {
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
    fn hand_priced<S: Scalar>(storage: FactorStorage, prune: bool) -> Vec<KernelCost> {
        let g = KernelCost::gather_of::<S>;
        let dense = storage == FactorStorage::Dense;
        let solve = |diag_nnz, order, width| match storage {
            FactorStorage::Sparse => KernelCost::trsm_sparse_of::<S>(diag_nnz, width),
            FactorStorage::Dense => KernelCost::trsm_dense_of::<S>(order, width),
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
                let gemm = KernelCost::gemm_of::<S>(2, width, order);
                costs.extend([g(2 + 2), gemm, g(2 * width)]);
            } else if dense {
                let gemm = KernelCost::gemm_of::<S>(below, width, order);
                costs.extend([g(order * width), g(2), gemm]);
            } else {
                costs.extend([g(order * width), KernelCost::spmm_of::<S>(2, width)]);
            }
        }
        let syrk = [(3, 5), (5, 5), (5, 1)].map(|(n, k)| KernelCost::syrk_of::<S>(n, k));
        costs.extend(syrk);
        costs.push(g(25));
        costs
    }

    /// Both storages, pruned and unpruned: between them the plans launch
    /// all six kernels. Each plan runs once per backend; every backend takes
    /// exactly the hand-priced launches, and the device spends each one's
    /// modelled time.
    fn one_plan_serves_every_backend<S: Scalar>() {
        let (l, bt) = fixture();
        let (l, bt) = (l.cast::<S>(), bt.cast::<S>());
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
                let at = format!("{params:?} at {}", S::NAME);
                let plan = AssemblyPlan::new(&l, &bt, &params);
                let cpu = plan.assemble(&mut CpuExec, &l, &bt);
                let dev = logging_device();
                let computing = GpuKernels::new(dev.stream(0));
                let gpu = plan.assemble(&mut GpuExec::new(&computing), &l, &bt);
                let mut rec = RecordingExec::new();
                let recorded = plan.assemble(&mut rec, &l, &bt);
                assert_eq!(cpu, gpu, "{at}: GpuExec");
                assert_eq!(cpu, recorded, "{at}: RecordingExec");
                assert!(cpu.data().iter().any(|v| v.to_f64().abs() > 0.0), "{at}");

                let dev_cost_only = logging_device();
                let cost_only = GpuKernels::new_cost_only(dev_cost_only.stream(0));
                let untouched = plan.assemble(&mut GpuExec::new(&cost_only), &l, &bt);
                let zero = |v: &S| v.to_f64().abs() == 0.0; // sc-analyze: allow(float-eq)
                assert!(untouched.data().iter().all(zero), "{at}: cost-only wrote");

                let want = hand_priced::<S>(factor_storage, prune);
                let (costs, accesses) = rec.into_recording();
                labels.extend(costs.iter().map(|c| c.label));
                assert_eq!(costs, want, "{at}: recorded costs");
                assert!(accesses.iter().all(|&a| a == SlotAccess::read_write()));
                let priced: Vec<_> = plan.launches::<S>().into_iter().map(|(c, _)| c).collect();
                assert_eq!(priced, want, "{at}: the plan's price");
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
    fn six_kernels_two_precisions_four_backends() {
        one_plan_serves_every_backend::<f64>();
        one_plan_serves_every_backend::<f32>();
    }

    #[test]
    fn cpu_exec_never_builds_a_cost() {
        let ran = Exec::launch(
            &mut CpuExec,
            || unreachable!("the host backend prices nothing"),
            SlotAccess::read_write(),
        );
        assert!(ran, "the host numerics always run");
    }

    #[test]
    fn recording_exec_mirrors_gpu_exec_costs_and_numbers() {
        use crate::assemble::{assemble_sc, ScConfig};

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
        rec.record_upload_csc(&l);
        rec.record_upload_csc(&bt);
        let f_rec = assemble_sc(&mut rec, &l, &bt, &cfg);
        rec.record_download_bytes(0);

        assert_eq!(f_gpu, f_rec, "recorded path must match GPU path bitwise");
        assert!(Exec::is_gpu(&rec), "recorder models the GPU platform");
        let costs = rec.into_costs();
        assert_eq!(
            costs.len(),
            dev.launches(),
            "recorded kernel sequence must mirror the live submission count"
        );
    }
}
