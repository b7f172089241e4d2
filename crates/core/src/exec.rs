//! Execution backend abstraction: the same splitting algorithms run on the
//! CPU and on the simulated GPU, in either working precision.
//!
//! The six assembly kernels are written **once**, as provided methods of
//! [`Exec`]: each names its [`KernelCost`] and runs its `sc-dense` /
//! `sc-sparse` host routine. A backend is only a launch sink
//! ([`Exec::launch`]) that decides what happens to the cost and whether the
//! host numerics run, so "bitwise identical across targets" holds by
//! construction.
//!
//! The trait is generic over the element type `S` ([`Scalar`], `f32` or
//! `f64`) with `f64` as the default parameter, so every pre-existing
//! `impl Exec`-consuming call site keeps compiling (and keeps its bitwise
//! behaviour) while the mixed-precision session path instantiates the same
//! backends at `f32`.

use sc_dense::{MatMutOf, MatRefOf, Scalar, Trans};
use sc_gpu::{GpuKernels, KernelCost, SlotAccess};
use sc_sparse::CscOf;

/// Backend kernel set used by the TRSM/SYRK splitting algorithms.
pub trait Exec<S: Scalar = f64> {
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

    /// Dense lower-triangular solve `L X = B`, in place.
    fn trsm_dense(&mut self, l: MatRefOf<'_, S>, b: MatMutOf<'_, S>) {
        let cost = || KernelCost::trsm_dense_of::<S>(l.nrows(), b.ncols());
        if self.launch(cost, SlotAccess::read_write()) {
            sc_dense::trsm_lower_left(l, b);
        }
    }

    /// Sparse lower-triangular solve `L X = B`, in place.
    fn trsm_sparse(&mut self, l: &CscOf<S>, b: MatMutOf<'_, S>) {
        let cost = || KernelCost::trsm_sparse_of::<S>(l.nnz(), b.ncols());
        if self.launch(cost, SlotAccess::read_write()) {
            sc_sparse::csc_lower_solve_mat(l, b);
        }
    }

    /// Dense GEMM `C = alpha op(A) op(B) + beta C`.
    #[allow(clippy::too_many_arguments)]
    fn gemm(
        &mut self,
        alpha: S,
        a: MatRefOf<'_, S>,
        ta: Trans,
        b: MatRefOf<'_, S>,
        tb: Trans,
        beta: S,
        c: MatMutOf<'_, S>,
    ) {
        let cost = || {
            let k = match ta {
                Trans::No => a.ncols(),
                Trans::Yes => a.nrows(),
            };
            KernelCost::gemm_of::<S>(c.nrows(), c.ncols(), k)
        };
        if self.launch(cost, SlotAccess::read_write()) {
            sc_dense::gemm(alpha, a, ta, b, tb, beta, c);
        }
    }

    /// Sparse-dense GEMM `C = alpha A B + beta C`.
    fn spmm(
        &mut self,
        alpha: S,
        a: &CscOf<S>,
        b: MatRefOf<'_, S>,
        beta: S,
        mut c: MatMutOf<'_, S>,
    ) {
        let cost = || KernelCost::spmm_of::<S>(a.nnz(), b.ncols());
        if self.launch(cost, SlotAccess::read_write()) {
            a.spmm(alpha, b, beta, &mut c);
        }
    }

    /// SYRK `C(lower) = alpha Aᵀ A + beta C`.
    fn syrk(&mut self, alpha: S, a: MatRefOf<'_, S>, beta: S, c: MatMutOf<'_, S>) {
        let cost = || KernelCost::syrk_of::<S>(a.ncols(), a.nrows());
        if self.launch(cost, SlotAccess::read_write()) {
            sc_dense::syrk_t(alpha, a, beta, c);
        }
    }

    /// Gather/scatter of `count` elements (pruning compaction, permutation,
    /// dense expansion). Pure cost accounting: the callers move the data
    /// themselves, so no host numerics hang off the launch.
    fn gather(&mut self, count: usize) {
        self.launch(
            || KernelCost::gather_of::<S>(count),
            SlotAccess::read_write(),
        );
    }
}

/// Host backend: the kernel bodies run, no cost is ever built.
#[derive(Default, Clone, Copy, Debug)]
pub struct CpuExec;

impl<S: Scalar> Exec<S> for CpuExec {
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

impl<S: Scalar> Exec<S> for GpuExec<'_> {
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

impl<S: Scalar> Exec<S> for RecordingExec {
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
    use sc_dense::MatOf;
    use sc_gpu::{Device, DeviceSpec};
    use sc_sparse::Coo;
    use std::sync::Arc;

    /// Operands of the six kernels at precision `S`: a 5 × 5 lower factor
    /// (dense and CSC), a 5 × 3 right-hand side / operand and a 3 × 3
    /// accumulator.
    struct Fixture<S> {
        l: MatOf<S>,
        l_csc: CscOf<S>,
        a: MatOf<S>,
        c: MatOf<S>,
    }

    impl<S: Scalar> Fixture<S> {
        fn new() -> Self {
            // diagonal plus every other entry below it
            let stored = |i: usize, j: usize| i == j || (i > j && (i + j) % 2 == 1);
            let value = |i: usize, j: usize| if i == j { 3.0 + 0.1 * i as f64 } else { -0.2 };
            let mut coo = Coo::new(5, 5);
            for j in 0..5 {
                for i in (j..5).filter(|&i| stored(i, j)) {
                    coo.push(i, j, value(i, j));
                }
            }
            let l = coo.to_csc();
            Fixture {
                l: l.to_dense().cast::<S>(),
                l_csc: l.cast::<S>(),
                a: MatOf::from_fn(5, 3, |i, j| S::from_f64(0.3 * (i * 3 + j) as f64 - 1.1)),
                c: MatOf::from_fn(3, 3, |i, j| S::from_f64(0.5 + (i + 2 * j) as f64)),
            }
        }

        /// One row per kernel: the cost its single launch must carry. The
        /// cost's label names the kernel for [`Fixture::run`].
        fn table(&self) -> [KernelCost; 6] {
            let nnz = self.l_csc.nnz();
            [
                KernelCost::trsm_dense_of::<S>(5, 3),
                KernelCost::trsm_sparse_of::<S>(nnz, 3),
                KernelCost::gemm_of::<S>(3, 3, 5),
                KernelCost::spmm_of::<S>(nnz, 3),
                KernelCost::syrk_of::<S>(3, 5),
                KernelCost::gather_of::<S>(7),
            ]
        }

        /// The output buffer of `kernel` before the call.
        fn initial(&self, kernel: &str) -> MatOf<S> {
            match kernel {
                "trsm_dense" | "trsm_sparse" | "spmm" => self.a.clone(),
                _ => self.c.clone(),
            }
        }

        /// Call `kernel` once on `e` and return its output buffer.
        fn run(&self, kernel: &str, e: &mut impl Exec<S>) -> MatOf<S> {
            let (alpha, beta) = (S::from_f64(1.5), S::from_f64(-0.5));
            let (l, a) = (self.l.as_ref(), self.a.as_ref());
            let mut out = self.initial(kernel);
            match kernel {
                "trsm_dense" => e.trsm_dense(l, out.as_mut()),
                "trsm_sparse" => e.trsm_sparse(&self.l_csc, out.as_mut()),
                "gemm" => e.gemm(alpha, a, Trans::Yes, a, Trans::No, beta, out.as_mut()),
                "spmm" => e.spmm(alpha, &self.l_csc, a, beta, out.as_mut()),
                "syrk" => e.syrk(alpha, a, beta, out.as_mut()),
                "gather" => e.gather(7),
                other => unreachable!("no kernel named {other}"),
            }
            out
        }
    }

    fn logging_device() -> Arc<Device> {
        let dev = Device::new(DeviceSpec::a100(), 1);
        dev.enable_span_log();
        dev
    }

    fn one_kernel_body_serves_every_backend<S: Scalar>() {
        let fx = Fixture::<S>::new();
        for want in fx.table() {
            let kernel = want.label;
            let cpu = fx.run(kernel, &mut CpuExec);
            let dev = logging_device();
            let computing = GpuKernels::new(dev.stream(0));
            let gpu = fx.run(kernel, &mut GpuExec::new(&computing));
            let mut rec = RecordingExec::new();
            let recorded = fx.run(kernel, &mut rec);
            assert_eq!(cpu, gpu, "{kernel} at {}: GpuExec", S::NAME);
            assert_eq!(cpu, recorded, "{kernel} at {}: RecordingExec", S::NAME);
            if kernel != "gather" {
                assert_ne!(cpu, fx.initial(kernel), "{kernel} computed nothing");
            }

            let dev_cost_only = logging_device();
            let cost_only = GpuKernels::new_cost_only(dev_cost_only.stream(0));
            let untouched = fx.run(kernel, &mut GpuExec::new(&cost_only));
            assert_eq!(untouched, fx.initial(kernel), "{kernel}: cost-only wrote");

            let (costs, accesses) = rec.into_recording();
            assert_eq!(costs, [want], "{kernel} at {}: recorded cost", S::NAME);
            assert_eq!(accesses, [SlotAccess::read_write()]);
            for d in [&dev, &dev_cost_only] {
                assert_eq!(d.launches(), costs.len());
                let spans = d.take_span_log();
                assert_eq!(spans.len(), 1);
                // a fresh device starts at t = 0, so the span is the cost
                assert_eq!(spans[0].1.duration(), d.spec().kernel_seconds(&want));
            }
        }
    }

    #[test]
    fn six_kernels_two_precisions_four_backends() {
        one_kernel_body_serves_every_backend::<f64>();
        one_kernel_body_serves_every_backend::<f32>();
    }

    #[test]
    fn cpu_exec_never_builds_a_cost() {
        let ran = Exec::<f64>::launch(
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
        let n = 12;
        let mut lc = Coo::new(n, n);
        for j in 0..n {
            lc.push(j, j, 2.0 + j as f64 * 0.1);
            if j + 2 < n {
                lc.push(j + 2, j, -0.3);
            }
        }
        let l = lc.to_csc();
        let mut bc = Coo::new(n, 5);
        for j in 0..5 {
            bc.push((j * 3) % n, j, 1.0);
        }
        let bt = bc.to_csc();
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
        assert!(
            Exec::<f64>::is_gpu(&rec),
            "recorder models the GPU platform"
        );
        let costs = rec.into_costs();
        assert_eq!(
            costs.len(),
            dev.launches(),
            "recorded kernel sequence must mirror the live submission count"
        );
    }
}
