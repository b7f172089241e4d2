//! The metric type and its like-clock guard.
//!
//! Every number the benchmark reports carries the clock it was measured on.
//! `host` is wall time on this machine, `sim` is time on the modelled A100
//! of `sc_gpu` (deterministic; the model is unvalidated), `count` is exact.
//! A quantity on the host clock may never be added to, subtracted from or
//! divided by one on the simulated clock: [`Quantity::ratio`] and
//! [`Quantity::diff`] refuse the pair, so the `amortization 0`, `0.93x` and
//! `~4e8x` figures of the old harness cannot be formed here.

use std::fmt;

/// Which clock a quantity was measured on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Wall seconds on the machine running the benchmark.
    Host,
    /// Seconds of the modelled device. Repeats exactly.
    Sim,
    /// An exact count (iterations, bytes, flops). Repeats exactly.
    Count,
}

impl Clock {
    pub fn name(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "sim",
            Clock::Count => "count",
        }
    }

    pub fn from_name(s: &str) -> Option<Clock> {
        match s {
            "host" => Some(Clock::Host),
            "sim" => Some(Clock::Sim),
            "count" => Some(Clock::Count),
            _ => None,
        }
    }

    /// Whether two runs of one commit must agree on the value bit for bit.
    pub fn is_exact(self) -> bool {
        !matches!(self, Clock::Host)
    }
}

/// Refusal to combine a host-clock and a simulated-clock quantity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClockMix(pub Clock, pub Clock);

impl fmt::Display for ClockMix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "refusing to combine a {} quantity with a {} quantity",
            self.0.name(),
            self.1.name()
        )
    }
}

/// A host-clock denominator shorter than this is timer noise, not a time.
const MIN_HOST_DENOMINATOR_S: f64 = 1e-6;

/// A measured value, or `None` where the guard declined to form one.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quantity {
    pub value: Option<f64>,
    pub clock: Clock,
}

impl Quantity {
    pub fn host(v: f64) -> Self {
        Quantity {
            value: Some(v),
            clock: Clock::Host,
        }
    }

    pub fn sim(v: f64) -> Self {
        Quantity {
            value: Some(v),
            clock: Clock::Sim,
        }
    }

    pub fn count(v: f64) -> Self {
        Quantity {
            value: Some(v),
            clock: Clock::Count,
        }
    }

    /// Multiply by a unit-conversion constant; the clock is unchanged.
    pub fn scaled(self, k: f64) -> Self {
        Quantity {
            value: self.value.map(|v| v * k),
            clock: self.clock,
        }
    }

    /// The clock of a combination: equal clocks keep theirs, a count takes
    /// on the other operand's clock (a rate per host second is a host-clock
    /// number), host with sim is refused.
    fn combined(a: Clock, b: Clock) -> Result<Clock, ClockMix> {
        match (a, b) {
            _ if a == b => Ok(a),
            (Clock::Count, other) | (other, Clock::Count) => Ok(other),
            _ => Err(ClockMix(a, b)),
        }
    }

    /// `self / den`. `Err` across clocks; `null` (with a warning on stderr)
    /// when the denominator is missing, non-positive, or a host time below
    /// one microsecond.
    pub fn ratio(self, den: Quantity) -> Result<Quantity, ClockMix> {
        let clock = Self::combined(self.clock, den.clock)?;
        let value = match (self.value, den.value) {
            (Some(n), Some(d)) if d > 0.0 => {
                if den.clock == Clock::Host && d < MIN_HOST_DENOMINATOR_S {
                    eprintln!(
                        "warning: host denominator {d:e} s is below 1 us; ratio reported as null"
                    );
                    None
                } else {
                    Some(n / d)
                }
            }
            (Some(_), Some(d)) => {
                eprintln!("warning: non-positive denominator {d:e}; ratio reported as null");
                None
            }
            _ => None,
        };
        Ok(Quantity { value, clock })
    }

    /// `self - other`. `Err` across clocks; `null` (with a warning) when the
    /// difference is not positive, because every difference the benchmark
    /// forms is a cost that must exist to be divided by or reported.
    pub fn diff(self, other: Quantity) -> Result<Quantity, ClockMix> {
        let clock = Self::combined(self.clock, other.clock)?;
        let value = match (self.value, other.value) {
            (Some(a), Some(b)) if a - b > 0.0 => Some(a - b),
            (Some(a), Some(b)) => {
                eprintln!("warning: difference {a:e} - {b:e} is not positive; reported as null");
                None
            }
            _ => None,
        };
        Ok(Quantity { value, clock })
    }
}

/// Median, quartiles and tail of a sample of host timings.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub p90: f64,
}

/// Linear-interpolated quantile of a non-empty ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

impl Summary {
    /// `None` for an empty sample.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        Some(Summary {
            n: s.len(),
            median: quantile(&s, 0.5),
            q1: quantile(&s, 0.25),
            q3: quantile(&s, 0.75),
            p90: quantile(&s, 0.9),
        })
    }

    /// A p90 is a tail figure only when at least ten samples lie beyond it.
    pub fn p90_supported(&self) -> bool {
        self.n >= 100
    }
}

/// Median of a sample (`None` when empty).
pub fn median(samples: &[f64]) -> Option<f64> {
    Summary::of(samples).map(|s| s.median)
}

/// Direction in which a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Declaration of one metric: the benchmark's side of `BENCHMARK.json`.
#[derive(Clone, Copy, Debug)]
pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen;
    /// `None` for per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    better: Better,
    bound: f64,
) -> Decl {
    Decl {
        name,
        unit,
        clock,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, clock: Clock, better: Better) -> Decl {
    Decl {
        name,
        unit,
        clock,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};
use Clock::{Count, Host, Sim};

/// End-to-end metrics, reported by every workload with tracing off. The
/// host bounds are the widest the benchmark contract allows: ten runs of one
/// commit spread by up to 8% on the medians in this two-vCPU sandbox when a
/// neighbour is busy, even on one thread and after the machine-speed
/// correction, and a bound should be about three times the spread it has to
/// tell a change from. The p90 of the operation latencies is printed beside
/// `solve_s` and kept in the record, but is no metric with a bound: on a
/// shared host a tail over a few hundred samples measures the neighbours
/// (ten runs of one commit spread by 30-70% of its median).
pub const END_TO_END: &[Decl] = &[
    e2e("setup_s", "s", Host, Lower, 0.25),
    e2e("solve_s", "s", Host, Lower, 0.25),
    e2e("time_to_solution_s", "s", Host, Lower, 0.25),
    e2e("solves_per_s", "1/s", Host, Higher, 0.25),
    e2e("pcpg_iterations", "count", Count, Lower, 0.03),
    e2e("peak_rss_bytes", "bytes", Host, Lower, 0.25),
];

/// Per-layer metrics of the traced run; layer = crate. `sim_s` is the unit
/// of the modelled clock so a simulated time can never be read as a wall
/// time. A metric a workload does not exercise reads 0 there.
pub const PER_LAYER: &[Decl] = &[
    // sc_fem
    layer("fem.build_s", "s", Host, Lower),
    // sc_order
    layer("order.nd_s", "s", Host, Lower),
    layer("order.fill_ratio", "ratio", Count, Lower),
    // sc_factor
    layer("factor.symbolic_s", "s", Host, Lower),
    layer("factor.numeric_s", "s", Host, Lower),
    layer("factor.solve_s", "s", Host, Lower),
    layer("factor.nnz_l", "count", Count, Lower),
    layer("factor.flops", "count", Count, Lower),
    layer("factor.numeric_gflops", "gflop/s", Host, Higher),
    // sc_sparse
    layer("sparse.trisolve_s", "s", Host, Lower),
    layer("sparse.trisolve_gbs", "gb/s", Host, Higher),
    layer("sparse.binned_gather_us", "us", Host, Lower),
    layer("sparse.permute_s", "s", Host, Lower),
    // sc_dense
    layer("dense.gemm_gflops", "gflop/s", Host, Higher),
    layer("dense.syrk_gflops", "gflop/s", Host, Higher),
    layer("dense.trsm_gflops", "gflop/s", Host, Higher),
    layer("dense.chol_gflops", "gflop/s", Host, Higher),
    layer("dense.gemm_f32_gflops", "gflop/s", Host, Higher),
    layer("dense.gemv_gbs", "gb/s", Host, Higher),
    // sc_core
    layer("core.stepped_s", "s", Host, Lower),
    layer("core.trsm_s", "s", Host, Lower),
    layer("core.syrk_s", "s", Host, Lower),
    layer("core.assemble_opt_s", "s", Host, Lower),
    layer("core.assemble_orig_s", "s", Host, Lower),
    layer("core.session_assemble_s", "s", Host, Lower),
    layer("core.plan_s", "s", Host, Lower),
    layer("core.trsm_flops", "count", Count, Lower),
    layer("core.syrk_flops", "count", Count, Lower),
    layer("core.flops_saved_share", "ratio", Count, Higher),
    layer("core.cuts_cache_hit_share", "ratio", Count, Higher),
    layer("core.trsm_gflops", "gflop/s", Host, Higher),
    layer("core.syrk_gflops", "gflop/s", Host, Higher),
    layer("core.plan_predicted_s", "sim_s", Sim, Lower),
    layer("core.plan_error_share", "ratio", Sim, Lower),
    // sc_gpu
    layer("sim.assembly_s", "sim_s", Sim, Lower),
    layer("sim.arena_high_water_bytes", "bytes", Count, Lower),
    layer("sim.gpu_section_orig_s", "sim_s", Sim, Lower),
    layer("sim.gpu_section_opt_s", "sim_s", Sim, Lower),
    layer("sim.trsm_s", "sim_s", Sim, Lower),
    layer("sim.syrk_s", "sim_s", Sim, Lower),
    layer("sim.apply_s", "sim_s", Sim, Lower),
    layer("sim.stream_utilization", "ratio", Sim, Higher),
    layer("sim.kernel_launches", "count", Count, Lower),
    layer("sim.h2d_bytes", "bytes", Count, Lower),
    layer("sim.d2h_bytes", "bytes", Count, Lower),
    layer("sim.host_us_per_kernel", "us", Host, Lower),
    // sc_feti
    layer("feti.regularize_s", "s", Host, Lower),
    layer("feti.apply_explicit_us", "us", Host, Lower),
    layer("feti.apply_implicit_us", "us", Host, Lower),
    layer("feti.project_us", "us", Host, Lower),
    layer("feti.precond_us", "us", Host, Lower),
    layer("feti.iter_us", "us", Host, Lower),
    layer("feti.recover_primal_s", "s", Host, Lower),
    layer("feti.f32r_setup_s", "s", Host, Lower),
    layer("feti.f32r_solve_s", "s", Host, Lower),
    layer("feti.operator_applications", "count", Count, Lower),
    layer("feti.f32r_outer_iters", "count", Count, Lower),
    layer("feti.rel_error", "ratio", Count, Lower),
    layer("feti.amortization_iters_host", "count", Host, Lower),
    // sc_serve
    layer("serve.parse_us", "us", Host, Lower),
    layer("serve.cold_job_s", "s", Host, Lower),
    layer("serve.warm_job_s", "s", Host, Lower),
    layer("serve.warm_over_cold", "ratio", Host, Lower),
    layer("serve.cache_hit_share", "ratio", Count, Higher),
    layer("serve.cache_evictions", "count", Count, Lower),
    layer("serve.cache_bytes_peak", "bytes", Count, Lower),
    layer("serve.rejected", "count", Count, Lower),
    layer("serve.expired", "count", Count, Lower),
    layer("serve.fairness_ratio", "ratio", Sim, Lower),
    layer("serve.device_s_total", "sim_s", Sim, Lower),
    layer("serve.queue_wait_s_total", "sim_s", Sim, Lower),
    // paper reference rows: like-clock ratios printed beside the paper's
    // figure, never an error against it (the simulator is unvalidated)
    layer("paper.gpu_section_speedup", "ratio", Sim, Higher),
    layer("paper.host_opt_over_orig", "ratio", Host, Higher),
    layer("paper.expl_over_impl_setup_host", "ratio", Host, Lower),
    // the trace itself
    layer("trace.overhead_share", "ratio", Host, Lower),
    layer("trace.attributed_share", "ratio", Host, Higher),
];

/// Look a declaration up by name in either table.
pub fn decl(name: &str) -> Option<&'static Decl> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_and_sim_never_combine() {
        let (h, s, c) = (
            Quantity::host(2.0),
            Quantity::sim(1.0),
            Quantity::count(10.0),
        );
        assert_eq!(h.ratio(s), Err(ClockMix(Clock::Host, Clock::Sim)));
        assert_eq!(s.diff(h), Err(ClockMix(Clock::Sim, Clock::Host)));
        // a count combines with either clock and takes it on
        assert_eq!(c.ratio(h).unwrap(), Quantity::host(5.0));
        assert_eq!(c.ratio(s).unwrap().clock, Clock::Sim);
        assert_eq!(h.ratio(h).unwrap().value, Some(1.0));
    }

    #[test]
    fn degenerate_denominators_and_differences_are_null() {
        let h = Quantity::host(1.0);
        // the exactly-zero warm time behind the old "4e8x" gate
        assert_eq!(h.ratio(Quantity::host(0.0)).unwrap().value, None);
        assert_eq!(h.ratio(Quantity::host(5e-7)).unwrap().value, None);
        // a sub-microsecond *simulated* time is a legitimate denominator
        assert!(Quantity::sim(1.0)
            .ratio(Quantity::sim(5e-7))
            .unwrap()
            .value
            .is_some());
        // explicit set-up cheaper than implicit: no amortization point
        assert_eq!(h.diff(Quantity::host(2.0)).unwrap().value, None);
        assert_eq!(h.diff(Quantity::host(0.25)).unwrap().value, Some(0.75));
    }

    #[test]
    fn summary_reports_p90_only_with_ten_samples_beyond_it() {
        let few: Vec<f64> = (0..99).map(f64::from).collect();
        let many: Vec<f64> = (0..101).map(f64::from).collect();
        assert!(!Summary::of(&few).unwrap().p90_supported());
        let s = Summary::of(&many).unwrap();
        assert!(s.p90_supported());
        assert_eq!((s.median, s.q1, s.q3, s.p90), (50.0, 25.0, 75.0, 90.0));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} declared twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }
}
