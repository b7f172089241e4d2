//! The hybrid planner: per subdomain, the dual-operator formulation
//! (explicit on a device, explicit on the host, implicit) that minimizes
//! `assembly + iters × apply` ([`plan_hybrid`]).

use crate::schedule::{ApplyEstimate, CostEstimate, DeviceSlot};
use sc_gpu::DeviceSpec;

/// How one subdomain's dual operator is realized (the hybrid decision).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Formulation {
    /// Dense `F̃ᵢ` assembled on a pool device (scheduled/cluster path),
    /// applied by device SYMV.
    ExplicitGpu,
    /// Dense `F̃ᵢ` assembled and applied on the host.
    ExplicitCpu,
    /// No assembly; every application runs the Eq. 11 solve pipeline on the
    /// host.
    Implicit,
}

/// Inputs of [`plan_hybrid`] beyond the per-subdomain estimates.
///
/// Construct with [`Default`] and [`with_iters`](Self::with_iters) (the
/// struct is `#[non_exhaustive]`):
///
/// ```
/// use sc_core::HybridPlanOptions;
/// let opts = HybridPlanOptions::default().with_iters(120.0);
/// assert_eq!(opts.iters, 120.0);
/// ```
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct HybridPlanOptions {
    /// Expected PCPG iteration count: how many times each subdomain's
    /// operator will be applied. `0.0` makes assembly pure overhead
    /// (collapses to all-implicit); `f64::INFINITY` makes apply cost the
    /// only consideration (collapses to all-explicit).
    pub iters: f64,
}

impl Default for HybridPlanOptions {
    fn default() -> Self {
        HybridPlanOptions { iters: 50.0 }
    }
}

impl HybridPlanOptions {
    /// Set the expected PCPG iteration count.
    pub fn with_iters(mut self, iters: f64) -> Self {
        self.iters = iters;
        self
    }
}

/// One subdomain's hybrid decision with its predicted costs.
#[derive(Clone, Debug)]
pub struct HybridChoice {
    /// Position of the subdomain in the input batch.
    pub index: usize,
    /// Chosen formulation.
    pub formulation: Formulation,
    /// Predicted one-time assembly seconds of the chosen formulation
    /// (0 for implicit).
    pub assembly_seconds: f64,
    /// Predicted per-iteration apply seconds of the chosen formulation.
    pub apply_seconds: f64,
}

/// The per-subdomain explicit-vs-implicit plan produced by [`plan_hybrid`].
#[derive(Clone, Debug)]
pub struct HybridPlan {
    /// One decision per subdomain, batch order.
    pub choices: Vec<HybridChoice>,
    /// The expected iteration count the plan was made for.
    pub iters: f64,
    /// Indices whose temporaries fit no device arena, ascending (they were
    /// decided between explicit-CPU and implicit only).
    pub spilled: Vec<usize>,
}

impl HybridPlan {
    /// Batch indices assigned the given formulation, ascending.
    pub fn indices_of(&self, f: Formulation) -> Vec<usize> {
        self.choices
            .iter()
            .filter(|c| c.formulation == f)
            .map(|c| c.index)
            .collect()
    }

    /// Number of subdomains assigned the given formulation.
    pub fn count_of(&self, f: Formulation) -> usize {
        self.choices.iter().filter(|c| c.formulation == f).count()
    }
}

/// Decide, **per subdomain**, whichever of {explicit-GPU, explicit-CPU,
/// implicit} minimizes `assembly + iters × apply`, subject to the device
/// arena capacities (paper-style Table-1 auto-selection extended from
/// "which kernel config" to "which operator formulation"):
///
/// - explicit-GPU assembly/apply are priced per pool device
///   ([`CostEstimate::seconds_on`] / [`ApplyEstimate::explicit_seconds_on`])
///   and only devices whose arena holds the subdomain's peak temporaries
///   are candidates — an oversized subdomain **spills** to the remaining
///   formulations instead of erroring;
/// - explicit-CPU and implicit are priced under [`DeviceSpec::host`];
/// - `iters = 0` collapses to all-implicit (assembly is pure overhead),
///   `iters = ∞` to all-explicit (ordering by apply cost alone, assembly
///   as the tie-break).
///
/// Ties prefer implicit (no assembly risk), then explicit-GPU.
pub fn plan_hybrid(
    costs: &[CostEstimate],
    applies: &[ApplyEstimate],
    devices: &[DeviceSlot],
    opts: &HybridPlanOptions,
) -> HybridPlan {
    assert_eq!(
        costs.len(),
        applies.len(),
        "one ApplyEstimate per CostEstimate required"
    );
    assert!(
        opts.iters >= 0.0 && !opts.iters.is_nan(),
        "expected iteration count must be a non-negative number, got {}",
        opts.iters
    );
    let host = DeviceSpec::host();
    let mut choices = Vec::with_capacity(costs.len());
    let mut spilled = Vec::new();
    for (c, a) in costs.iter().zip(applies) {
        debug_assert_eq!(c.index, a.index, "estimate slices must align");
        // candidates: (formulation, assembly_s, apply_s)
        let by_total = |x: &(Formulation, f64, f64), y: &(Formulation, f64, f64)| {
            total_key(x.1, x.2, opts.iters)
                .partial_cmp(&total_key(y.1, y.2, opts.iters))
                .unwrap_or(std::cmp::Ordering::Equal)
        };
        let gpu = devices
            .iter()
            .filter(|d| d.admits(c.temp_bytes))
            .map(|d| {
                let (asm, app) = (c.seconds_on(&d.spec), a.explicit_seconds_on(&d.spec));
                (Formulation::ExplicitGpu, asm, app)
            })
            .min_by(by_total);
        if gpu.is_none() {
            spilled.push(c.index);
        }
        let (cpu_asm, cpu_app) = (c.seconds_on(&host), a.explicit_seconds_on(&host));
        let impl_app = a.implicit_seconds_on(&host);
        let host_side = [
            (Formulation::ExplicitCpu, cpu_asm, cpu_app),
            (Formulation::Implicit, 0.0, impl_app),
        ];

        // preference on exact ties: implicit (no assembly to lose), then
        // explicit-GPU, then explicit-CPU
        let pref = |f: Formulation| match f {
            Formulation::Implicit => 0u8,
            Formulation::ExplicitGpu => 1,
            Formulation::ExplicitCpu => 2,
        };
        let (formulation, assembly_seconds, apply_seconds) = gpu
            .into_iter()
            .chain(host_side)
            .min_by(|x, y| by_total(x, y).then(pref(x.0).cmp(&pref(y.0))))
            .expect("the implicit formulation is always a candidate");
        choices.push(HybridChoice {
            index: c.index,
            formulation,
            assembly_seconds,
            apply_seconds,
        });
    }
    spilled.sort_unstable();
    HybridPlan {
        choices,
        iters: opts.iters,
        spilled,
    }
}

/// Ordering key of `assembly + iters × apply`: at `iters = ∞` every total
/// is infinite, so the comparison degenerates — order by apply cost alone
/// with assembly as an infinitesimal tie-break instead.
fn total_key(assembly: f64, apply: f64, iters: f64) -> (f64, f64) {
    if iters.is_infinite() {
        (apply, assembly)
    } else {
        (assembly + iters * apply, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assemble::ScConfig;
    use crate::schedule::tests::{bt_with_pivots, diag_factor, slot};
    use crate::schedule::{estimate_apply, estimate_cost};
    use sc_gpu::KernelCost;

    fn hybrid_inputs(shapes: &[(usize, usize)]) -> (Vec<CostEstimate>, Vec<ApplyEstimate>) {
        let mut costs = Vec::new();
        let mut applies = Vec::new();
        for (i, &(n, m)) in shapes.iter().enumerate() {
            let l = diag_factor(n);
            let pivots: Vec<usize> = (0..m).map(|j| j % n).collect();
            let bt = bt_with_pivots(n, &pivots);
            let params = ScConfig::optimized(true, false).resolve(true, &l, &bt);
            let mut c = estimate_cost(&DeviceSpec::a100(), &l, &bt, &params, i);
            c.index = i;
            let mut a = estimate_apply(&l, &bt, i);
            a.index = i;
            costs.push(c);
            applies.push(a);
        }
        (costs, applies)
    }

    #[test]
    fn hybrid_iteration_extremes_collapse_the_decision() {
        let (costs, applies) = hybrid_inputs(&[(200, 40), (400, 60), (100, 20)]);
        let devs = vec![slot(DeviceSpec::a100(), usize::MAX, 2)];
        let zero = plan_hybrid(
            &costs,
            &applies,
            &devs,
            &HybridPlanOptions {
                iters: 0.0,
                ..Default::default()
            },
        );
        assert_eq!(
            zero.count_of(Formulation::Implicit),
            3,
            "iters→0 ⇒ implicit"
        );
        let inf = plan_hybrid(
            &costs,
            &applies,
            &devs,
            &HybridPlanOptions {
                iters: f64::INFINITY,
                ..Default::default()
            },
        );
        assert_eq!(
            inf.count_of(Formulation::Implicit),
            0,
            "iters→∞ ⇒ all-explicit: {:?}",
            inf.choices
        );
        // each subdomain decided exactly once
        assert_eq!(zero.choices.len(), 3);
        for (i, c) in inf.choices.iter().enumerate() {
            assert_eq!(c.index, i);
        }
    }

    /// Synthetic estimate pair with controlled regimes: pure-compute costs
    /// large enough that occupancy ramps are saturated, so the seconds are
    /// (almost exactly) flops over peak throughput.
    fn synth(
        index: usize,
        temp_bytes: usize,
        asm_flops: f64,
        expl_apply_flops: f64,
        impl_apply_flops: f64,
    ) -> (CostEstimate, ApplyEstimate) {
        let c = CostEstimate {
            index,
            trsm_flops: asm_flops,
            syrk_flops: 0.0,
            transfer_bytes: 0.0,
            temp_bytes,
            seconds: 0.0,
        };
        let a = ApplyEstimate {
            index,
            explicit: vec![KernelCost::compute(expl_apply_flops, 0.0)],
            implicit: vec![KernelCost::compute(impl_apply_flops, 0.0)],
        };
        (c, a)
    }

    #[test]
    fn hybrid_spills_oversized_subdomains_to_implicit() {
        // subdomain 0 fits the arena, subdomain 1 does not; implicit applies
        // cost 4x the explicit SYMV (the typical large-subdomain regime)
        let (c0, a0) = synth(0, 1 << 10, 1e9, 1e9, 4e9);
        let (c1, a1) = synth(1, 1 << 30, 1e12, 1e9, 4e9);
        let costs = vec![c0, c1];
        let applies = vec![a0, a1];
        let devs = vec![slot(DeviceSpec::a100(), 1 << 20, 2)];
        let plan_at = |iters: f64| {
            plan_hybrid(
                &costs,
                &applies,
                &devs,
                &HybridPlanOptions::default().with_iters(iters),
            )
        };
        // at 10 iterations the spilled subdomain's host assembly is not
        // amortized: it must fall back to implicit
        let plan = plan_at(10.0);
        assert_eq!(plan.spilled, vec![1]);
        assert_eq!(plan.choices[0].formulation, Formulation::ExplicitGpu);
        assert_eq!(
            plan.choices[1].formulation,
            Formulation::Implicit,
            "oversized subdomain must fall back, not error"
        );
        assert_eq!(plan.choices[1].assembly_seconds, 0.0);
        // at a high iteration count the spill fails over to the
        // CPU-explicit formulation instead
        let many = plan_at(1e6);
        assert_eq!(many.spilled, vec![1]);
        assert_eq!(many.choices[1].formulation, Formulation::ExplicitCpu);
    }

    #[test]
    fn hybrid_plan_is_no_costlier_than_either_collapse() {
        let (c0, a0) = synth(0, 1 << 10, 1e9, 1e9, 4e9);
        let (c1, a1) = synth(1, 1 << 30, 1e12, 1e9, 4e9);
        let costs = vec![c0, c1];
        let applies = vec![a0, a1];
        let devs = vec![slot(DeviceSpec::a100(), 1 << 20, 2)];
        let host = DeviceSpec::host();
        for iters in [0.0, 1.0, 10.0, 1e3, 1e6] {
            let plan = plan_hybrid(
                &costs,
                &applies,
                &devs,
                &HybridPlanOptions::default().with_iters(iters),
            );
            // the baselines from the same estimates: every subdomain
            // explicit (on the device where its arena admits it, else on
            // the host, whichever is cheaper), and every subdomain implicit
            let total = |asm: f64, app: f64| asm + iters * app;
            let all_expl: f64 = (costs.iter().zip(&applies))
                .map(|(c, a)| {
                    let cpu = total(c.seconds_on(&host), a.explicit_seconds_on(&host));
                    let gpu = (devs[0].admits(c.temp_bytes)).then(|| {
                        total(
                            c.seconds_on(&devs[0].spec),
                            a.explicit_seconds_on(&devs[0].spec),
                        )
                    });
                    gpu.map_or(cpu, |g| g.min(cpu))
                })
                .sum();
            let all_impl: f64 = applies
                .iter()
                .map(|a| total(0.0, a.implicit_seconds_on(&host)))
                .sum();
            let auto: f64 = (plan.choices.iter())
                .map(|c| total(c.assembly_seconds, c.apply_seconds))
                .sum();
            assert!(auto <= all_expl + 1e-15, "iters {iters}");
            assert!(auto <= all_impl + 1e-15, "iters {iters}");
        }
    }
}
