//! Mutation-test the trace sanitizer on synthetic traces: generate a
//! randomized hazard-free trace, assert it validates clean, then inject
//! one instance of each hazard class and assert the validator reports
//! exactly that class (with the right slot/stream in the diagnostic).

use proptest::prelude::*;
use sc_analyze::trace::{validate, TraceViolation};
use sc_gpu::{SimSpan, Trace, TraceEvent};

/// Deterministically build a hazard-free trace: slots allocated and
/// freed strictly in sequence (one live at a time), each slot touched
/// by `kernels_per_slot` back-to-back kernels on its home stream.
fn clean_trace(n_slots: usize, n_streams: usize, kernels_per_slot: usize) -> Trace {
    let mut events = Vec::new();
    let mut span_log = Vec::new();
    let mut t = 0.0f64;
    let mut max_bytes = 0usize;
    for slot in 0..n_slots {
        let bytes = 64 * (slot + 1);
        max_bytes = max_bytes.max(bytes);
        let stream = slot % n_streams;
        events.push(TraceEvent::Alloc { slot, bytes, at: t });
        for _ in 0..kernels_per_slot {
            let span = SimSpan {
                start: t,
                end: t + 1.0,
            };
            events.push(TraceEvent::Kernel {
                label: "synthetic",
                stream,
                span,
                reads: vec![slot],
                writes: vec![slot],
            });
            span_log.push((stream, span));
            t += 1.0;
        }
        events.push(TraceEvent::Free { slot, at: t });
    }
    Trace {
        arena_capacity: max_bytes,
        n_streams,
        concurrency: n_streams,
        events,
        span_log,
    }
}

fn has<F: Fn(&TraceViolation) -> bool>(violations: &[TraceViolation], pred: F) -> bool {
    violations.iter().any(pred)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn unmutated_synthetic_traces_validate_clean(
        n_slots in 1usize..6,
        n_streams in 1usize..4,
        kernels in 1usize..4,
    ) {
        let t = clean_trace(n_slots, n_streams, kernels);
        let v = validate(&t);
        prop_assert!(v.is_empty(), "clean trace flagged: {v:?}");
    }

    #[test]
    fn dropped_free_is_reported_as_leak(
        n_slots in 1usize..6,
        n_streams in 1usize..4,
        kernels in 1usize..4,
        pick in 0usize..64,
    ) {
        let mut t = clean_trace(n_slots, n_streams, kernels);
        let victim = pick % n_slots;
        t.events.retain(|e| !matches!(e, TraceEvent::Free { slot, .. } if *slot == victim));
        let v = validate(&t);
        prop_assert!(
            has(&v, |x| matches!(x, TraceViolation::LeakedSlot { slot, .. } if *slot == victim)),
            "leak of slot {victim} not reported: {v:?}"
        );
    }

    #[test]
    fn alloc_reordered_after_use_is_reported(
        n_slots in 1usize..6,
        n_streams in 1usize..4,
        kernels in 1usize..4,
        pick in 0usize..64,
    ) {
        let mut t = clean_trace(n_slots, n_streams, kernels);
        let victim = pick % n_slots;
        // push the alloc past the slot's first kernel: the kernel now
        // touches memory that is not yet backed
        let first_use = t.events.iter().find_map(|e| match e {
            TraceEvent::Kernel { span, writes, .. } if writes.contains(&victim) => Some(span.start),
            _ => None,
        }).expect("every slot has a kernel in the synthetic trace");
        for e in &mut t.events {
            if let TraceEvent::Alloc { slot, at, .. } = e {
                if *slot == victim {
                    *at = first_use + 0.5;
                }
            }
        }
        let v = validate(&t);
        prop_assert!(
            has(&v, |x| matches!(x, TraceViolation::UseBeforeAlloc { slot, .. } if *slot == victim)),
            "use-before-alloc of slot {victim} not reported: {v:?}"
        );
    }

    #[test]
    fn early_free_is_reported_as_use_after_free(
        n_slots in 1usize..6,
        n_streams in 1usize..4,
        kernels in 1usize..4,
        pick in 0usize..64,
    ) {
        let mut t = clean_trace(n_slots, n_streams, kernels);
        let victim = pick % n_slots;
        let alloc_at = t.events.iter().find_map(|e| match e {
            TraceEvent::Alloc { slot, at, .. } if *slot == victim => Some(*at),
            _ => None,
        }).expect("every slot allocates in the synthetic trace");
        // free immediately after half the first kernel: later kernel
        // activity on the slot now dangles
        for e in &mut t.events {
            if let TraceEvent::Free { slot, at } = e {
                if *slot == victim {
                    *at = alloc_at + 0.5;
                }
            }
        }
        let v = validate(&t);
        prop_assert!(
            has(&v, |x| matches!(x, TraceViolation::UseAfterFree { slot, .. } if *slot == victim)),
            "use-after-free of slot {victim} not reported: {v:?}"
        );
    }

    #[test]
    fn double_free_is_reported(
        n_slots in 1usize..6,
        n_streams in 1usize..4,
        kernels in 1usize..4,
        pick in 0usize..64,
    ) {
        let mut t = clean_trace(n_slots, n_streams, kernels);
        let victim = pick % n_slots;
        let free_at = t.events.iter().find_map(|e| match e {
            TraceEvent::Free { slot, at } if *slot == victim => Some(*at),
            _ => None,
        }).expect("every slot frees in the synthetic trace");
        t.events.push(TraceEvent::Free { slot: victim, at: free_at + 1.0 });
        let v = validate(&t);
        prop_assert!(
            has(&v, |x| matches!(x, TraceViolation::DoubleFree { slot, .. } if *slot == victim)),
            "double free of slot {victim} not reported: {v:?}"
        );
    }

    #[test]
    fn overlapping_spans_on_one_stream_are_reported(
        n_slots in 2usize..6,
        kernels in 1usize..4,
        pick in 0usize..64,
    ) {
        // single stream: every span shares it, so overlapping any two
        // consecutive spans breaks the serial-queue invariant
        let mut t = clean_trace(n_slots, 1, kernels);
        let n = t.span_log.len();
        prop_assert!(n >= 2);
        let i = 1 + pick % (n - 1);
        let prev_start = t.span_log[i - 1].1.start;
        t.span_log[i].1.start = prev_start;
        let v = validate(&t);
        prop_assert!(
            has(&v, |x| matches!(x, TraceViolation::StreamOverlap { stream: 0, .. })),
            "stream overlap not reported: {v:?}"
        );
    }

    #[test]
    fn cross_stream_race_is_reported(
        n_slots in 1usize..6,
        kernels in 2usize..4,
        pick in 0usize..64,
    ) {
        // start from a 1-stream trace so every kernel of a slot shares a
        // stream, then move one of the victim's kernels to stream 1 and
        // overlap it with the victim's previous kernel
        let mut t = clean_trace(n_slots, 1, kernels);
        t.n_streams = 2;
        let victim = pick % n_slots;
        let kernel_idxs: Vec<usize> = t.events.iter().enumerate().filter_map(|(i, e)| match e {
            TraceEvent::Kernel { writes, .. } if writes.contains(&victim) => Some(i),
            _ => None,
        }).collect();
        prop_assert!(kernel_idxs.len() >= 2);
        let target = kernel_idxs[1];
        let prev_span = match &t.events[kernel_idxs[0]] {
            TraceEvent::Kernel { span, .. } => *span,
            _ => unreachable!("filtered to kernels"),
        };
        if let TraceEvent::Kernel { stream, span, .. } = &mut t.events[target] {
            *stream = 1;
            *span = prev_span; // same interval, different stream, same slot
        }
        // mirror the move in the span log so the serial-queue check does
        // not fire instead of the race check
        let mut seen = 0usize;
        for (s, sp) in &mut t.span_log {
            if sp.start == prev_span.start && seen == 0 {
                seen = 1;
            } else if sp.start > prev_span.start && seen == 1 {
                // the moved kernel's old log entry: reassign
                *s = 1;
                *sp = prev_span;
                seen = 2;
            }
        }
        let v = validate(&t);
        prop_assert!(
            has(&v, |x| matches!(x, TraceViolation::CrossStreamHazard { slot, .. } if *slot == victim)),
            "cross-stream race on slot {victim} not reported: {v:?}"
        );
    }

    #[test]
    fn arena_oversubscription_is_reported(
        n_slots in 1usize..6,
        n_streams in 1usize..4,
        kernels in 1usize..4,
    ) {
        let mut t = clean_trace(n_slots, n_streams, kernels);
        // capacity below the largest allocation: that alloc must trip
        let max_bytes = t.events.iter().filter_map(|e| match e {
            TraceEvent::Alloc { bytes, .. } => Some(*bytes),
            _ => None,
        }).max().expect("synthetic trace allocates");
        t.arena_capacity = max_bytes - 1;
        let v = validate(&t);
        prop_assert!(
            has(&v, |x| matches!(x, TraceViolation::ArenaOversubscribed { capacity, .. }
                if *capacity == max_bytes - 1)),
            "oversubscription not reported: {v:?}"
        );
    }
}
