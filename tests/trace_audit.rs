//! End-to-end trace-audit coverage on *real* recorded schedules: every
//! workload's replay trace must validate hazard-free, and the sanitizer
//! must catch each of the injected hazard classes when a real trace is
//! mutated (drop a free, reorder an alloc after first use, overlap two
//! spans on one stream, oversubscribe the arena).

use proptest::prelude::*;
use sc_analyze::trace::{validate, TraceViolation};
use sc_bench::BatchWorkload;
use sc_core::{
    estimate_apply, estimate_cost, plan_hybrid, AssemblyReport, AssemblySession, Backend,
    DeviceSlot, Formulation, HybridPlanOptions, ScConfig, ScheduleOptions,
};
use sc_gpu::{Device, DevicePool, DeviceSpec, Trace, TraceEvent};
use sc_sparse::Csc;
use std::sync::OnceLock;

fn cfg() -> ScConfig {
    ScConfig::optimized(true, false)
}

/// Assemble a workload on one scheduled A100 with `n_streams` streams.
fn scheduled(w: &BatchWorkload, n_streams: usize) -> AssemblyReport {
    let device = Device::new(DeviceSpec::a100(), n_streams);
    AssemblySession::new(Backend::gpu_with(device, ScheduleOptions::default()), cfg())
        .assemble(&w.factors)
        .report
}

/// The full 3D decomposition on one scheduled device.
fn headline() -> AssemblyReport {
    scheduled(&BatchWorkload::build(3, 4), 4)
}

/// The skewed batch under the LPT stream scheduler — the cheapest workload
/// with real stream contention.
fn schedule() -> AssemblyReport {
    scheduled(&BatchWorkload::build_skewed(2, &[12, 4, 6, 3]), 4)
}

/// The 32-subdomain shard across a 4-device pool.
fn cluster() -> AssemblyReport {
    let pool = DevicePool::uniform(DeviceSpec::a100(), 4, 4);
    AssemblySession::new(Backend::cluster(pool), cfg())
        .assemble(&BatchWorkload::build_cluster32().factors)
        .report
}

/// The mixed-fit batch on its arena-constrained pool, split the way the
/// auto formulation splits it: the hybrid plan spills the over-arena
/// quarter, and its explicit-GPU share is what the pool replays.
fn hybrid() -> AssemblyReport {
    let w = BatchWorkload::build_mixed_fit();
    let items = &w.factors;
    let (pool, _arena) = w.mixed_fit_pool(&cfg());
    let (costs, applies): (Vec<_>, Vec<_>) = items
        .iter()
        .enumerate()
        .map(|(i, (l, bt))| {
            let params = cfg().resolve(true, l, bt);
            (
                estimate_cost(&DeviceSpec::a100(), l, bt, &params, i),
                estimate_apply(l, bt, i),
            )
        })
        .unzip();
    let slots: Vec<DeviceSlot> = pool.devices().iter().map(|d| DeviceSlot::of(d)).collect();
    let plan = plan_hybrid(&costs, &applies, &slots, &HybridPlanOptions::default());
    assert!(
        !plan.spilled.is_empty(),
        "the over-arena quarter must spill"
    );
    let share: Vec<&(Csc, Csc)> = plan
        .indices_of(Formulation::ExplicitGpu)
        .into_iter()
        .map(|g| &items[g])
        .collect();
    AssemblySession::new(Backend::cluster(pool), cfg())
        .assemble(&share)
        .report
}

/// The full 3D decomposition again, on two streams: a narrower device
/// interleaves the same kernel sequence differently.
fn kernels() -> AssemblyReport {
    scheduled(&BatchWorkload::build(3, 4), 2)
}

/// One warm cluster job exactly as the multi-tenant service dispatches it:
/// prepared bundle built by `sc_serve::prepare` (the cross-session cache's
/// cold path), Arc-shared factors into the solver build, explicit assembly
/// on the shared pool.
fn serve() -> AssemblyReport {
    let spec = sc_serve::MeshSpec {
        dim: 3,
        cells: 6,
        subs: (2, 2, 2),
        gluing: sc_fem::Gluing::Redundant,
    };
    let prep = sc_serve::prepare(&spec);
    let pool = DevicePool::uniform(DeviceSpec::a100(), 2, 2);
    let solver = sc_feti::FetiSolverBuilder::new()
        .backend(Backend::cluster(pool))
        .formulation(sc_feti::FormulationChoice::Explicit)
        .assembly(ScConfig::Auto)
        .factors(std::sync::Arc::clone(&prep.factors))
        .build(&prep.problem);
    solver
        .report()
        .cloned()
        .expect("an explicit cluster build records an assembly report")
}

type Replay = fn() -> AssemblyReport;

/// Every audited workload: name, devices it runs on, and how to replay it.
const WORKLOADS: &[(&str, usize, Replay)] = &[
    ("headline", 1, headline),
    ("schedule", 1, schedule),
    ("cluster", 4, cluster),
    ("hybrid", 2, hybrid),
    ("kernels", 1, kernels),
    ("serve", 2, serve),
];

/// The schedule workload's trace, recorded once and shared by the mutation
/// tests.
fn schedule_trace() -> &'static Trace {
    static TRACE: OnceLock<Trace> = OnceLock::new();
    TRACE.get_or_init(|| {
        schedule().devices[0]
            .trace
            .clone()
            .expect("the scheduled driver records a trace per device")
    })
}

#[test]
fn every_workload_trace_validates_clean_on_every_device() {
    for (name, n_devices, replay) in WORKLOADS {
        let report = replay();
        assert_eq!(
            report.devices.len(),
            *n_devices,
            "{name}: one audited trace per device"
        );
        let mut n_kernels = 0;
        for d in &report.devices {
            let trace = d
                .trace
                .as_ref()
                .unwrap_or_else(|| panic!("{name}: device {} recorded no trace", d.device));
            let v = validate(trace);
            assert!(
                v.is_empty(),
                "{name} device {} trace flagged: {v:?}",
                d.device
            );
            n_kernels += trace.n_kernels();
        }
        assert!(n_kernels > 0, "{name}: every trace is empty");
    }
}

/// Slot ids that both allocate and free in the trace (mutation targets).
fn freed_slots(t: &Trace) -> Vec<usize> {
    t.events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Free { slot, .. } => Some(*slot),
            _ => None,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn real_trace_with_dropped_free_is_flagged_as_leak(pick in 0usize..1024) {
        let mut t = schedule_trace().clone();
        let slots = freed_slots(&t);
        prop_assert!(!slots.is_empty());
        let victim = slots[pick % slots.len()];
        t.events.retain(|e| !matches!(e, TraceEvent::Free { slot, .. } if *slot == victim));
        let v = validate(&t);
        prop_assert!(
            v.iter().any(|x| matches!(x, TraceViolation::LeakedSlot { slot, .. } if *slot == victim)),
            "dropped free of slot {victim} not reported: {v:?}"
        );
    }

    #[test]
    fn real_trace_with_alloc_after_use_is_flagged(pick in 0usize..1024) {
        let mut t = schedule_trace().clone();
        let slots = freed_slots(&t);
        prop_assert!(!slots.is_empty());
        let victim = slots[pick % slots.len()];
        // reorder: push the alloc past the slot's first kernel touch
        let first_use = t.events.iter().find_map(|e| match e {
            TraceEvent::Kernel { span, reads, writes, .. }
                if reads.contains(&victim) || writes.contains(&victim) => Some(span.start),
            _ => None,
        });
        prop_assert!(first_use.is_some(), "slot {victim} is never touched by a kernel");
        let after = first_use.expect("checked by the prop_assert above") + 1e-6;
        for e in &mut t.events {
            if let TraceEvent::Alloc { slot, at, .. } = e {
                if *slot == victim {
                    *at = at.max(after);
                }
            }
        }
        let v = validate(&t);
        prop_assert!(
            v.iter().any(|x| matches!(x, TraceViolation::UseBeforeAlloc { slot, .. } if *slot == victim)),
            "alloc-after-use of slot {victim} not reported: {v:?}"
        );
    }

    #[test]
    fn real_trace_with_overlapped_stream_spans_is_flagged(pick in 0usize..1024) {
        let mut t = schedule_trace().clone();
        // pick two temporally consecutive spans on one stream (the first
        // with positive width) and pull the second back over the first
        let pairs: Vec<(usize, usize)> = {
            let mut by_stream: Vec<Vec<usize>> = vec![Vec::new(); t.n_streams];
            for (i, (s, _)) in t.span_log.iter().enumerate() {
                by_stream[*s].push(i);
            }
            let mut pairs = Vec::new();
            for idxs in &mut by_stream {
                idxs.sort_by(|&a, &b| t.span_log[a].1.start.total_cmp(&t.span_log[b].1.start));
                for w in idxs.windows(2) {
                    let p = t.span_log[w[0]].1;
                    if p.end > p.start + 1e-9 {
                        pairs.push((w[0], w[1]));
                    }
                }
            }
            pairs
        };
        prop_assert!(!pairs.is_empty(), "no stream ran two kernels back to back");
        let (prev, second) = pairs[pick % pairs.len()];
        let stream = t.span_log[second].0;
        let prev_span = t.span_log[prev].1;
        t.span_log[second].1.start = (prev_span.start + prev_span.end) / 2.0;
        let v = validate(&t);
        prop_assert!(
            v.iter().any(|x| matches!(x, TraceViolation::StreamOverlap { stream: s, .. } if *s == stream)),
            "overlap on stream {stream} not reported: {v:?}"
        );
    }

    #[test]
    fn real_trace_with_oversubscribed_arena_is_flagged(shrink_num in 1usize..100) {
        let mut t = schedule_trace().clone();
        let max_alloc = t.events.iter().filter_map(|e| match e {
            TraceEvent::Alloc { bytes, .. } => Some(*bytes),
            _ => None,
        }).max();
        prop_assert!(max_alloc.is_some(), "trace allocates nothing");
        // capacity strictly below the largest single reservation: the
        // admission of that reservation must trip the budget check
        let cap = max_alloc.expect("checked by the prop_assert above") * shrink_num / 100;
        t.arena_capacity = cap;
        let v = validate(&t);
        prop_assert!(
            v.iter().any(|x| matches!(x, TraceViolation::ArenaOversubscribed { capacity, .. } if *capacity == cap)),
            "arena oversubscription at capacity {cap} not reported: {v:?}"
        );
    }
}
