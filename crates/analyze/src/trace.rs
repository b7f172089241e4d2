//! Kernel-trace hazard sanitizer.
//!
//! [`validate`] statically audits a [`sc_gpu::Trace`] — the recorded
//! arena events and kernel launches of one device's replayed schedule —
//! for the memory and ordering hazards the simulator itself cannot rule
//! out by construction:
//!
//! * **slot lifetime**: every kernel access to an arena slot must fall
//!   inside that slot's `[alloc, free]` interval; no double alloc/free;
//!   every alloc is eventually freed (the replay arena is a FIFO pool —
//!   a leaked slot would starve later admissions);
//! * **cross-stream races**: two kernels on *different* streams whose
//!   spans overlap in time may not touch the same slot unless both only
//!   read — an overlap with a writer is a RAW/WAR/WAW hazard with no
//!   ordering edge between the streams;
//! * **per-stream serialization**: kernels assigned to one stream must
//!   not overlap in time (a stream is a serial queue);
//! * **arena accounting**: live bytes may never exceed the arena
//!   capacity at any instant.
//!
//! All checks run on the trace alone; nothing re-executes.

use sc_gpu::{Trace, TraceEvent};

/// Timestamp slack for interval-membership checks: accesses exactly at
/// an alloc/free boundary are legal (the replay opens a slot at the
/// span start and closes it at the span end).
const EPS: f64 = 1e-12;

/// The kind of cross-stream data race.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Hazard {
    /// Read-after-write: the earlier kernel writes, the later reads.
    Raw,
    /// Write-after-read: the earlier kernel reads, the later writes.
    War,
    /// Write-after-write: both kernels write.
    Waw,
}

impl std::fmt::Display for Hazard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Hazard::Raw => write!(f, "RAW"),
            Hazard::War => write!(f, "WAR"),
            Hazard::Waw => write!(f, "WAW"),
        }
    }
}

/// One hazard found by [`validate`].
#[derive(Clone, Debug, PartialEq)]
pub enum TraceViolation {
    /// A kernel touched a slot after its free.
    UseAfterFree {
        /// Arena slot id (replay-local subdomain position).
        slot: usize,
        /// Label of the offending kernel.
        label: &'static str,
        /// Start time of the offending access.
        at: f64,
        /// Time the slot was freed.
        freed_at: f64,
    },
    /// A kernel touched a slot before its alloc (or a slot never
    /// allocated at all).
    UseBeforeAlloc {
        /// Arena slot id.
        slot: usize,
        /// Label of the offending kernel.
        label: &'static str,
        /// Start time of the offending access.
        at: f64,
    },
    /// A slot was freed twice.
    DoubleFree {
        /// Arena slot id.
        slot: usize,
        /// Time of the second free.
        at: f64,
    },
    /// A slot was allocated twice without an intervening free.
    DoubleAlloc {
        /// Arena slot id.
        slot: usize,
        /// Time of the second alloc.
        at: f64,
    },
    /// A slot was allocated but never freed.
    LeakedSlot {
        /// Arena slot id.
        slot: usize,
        /// Bytes held.
        bytes: usize,
    },
    /// Two kernels on different streams overlap in time and touch the
    /// same slot with at least one writer.
    CrossStreamHazard {
        /// Arena slot id both kernels touch.
        slot: usize,
        /// Race classification.
        hazard: Hazard,
        /// The two stream ids involved, earlier kernel first.
        streams: (usize, usize),
        /// Labels of the two kernels, earlier first.
        labels: (&'static str, &'static str),
        /// Start time of the later (conflicting) kernel.
        at: f64,
    },
    /// Two kernels assigned to the same stream overlap in time.
    StreamOverlap {
        /// The serial stream id.
        stream: usize,
        /// Start time of the later span.
        at: f64,
        /// End time of the earlier span it overlaps.
        prev_end: f64,
    },
    /// Live arena bytes exceeded the pool capacity.
    ArenaOversubscribed {
        /// Time of the alloc that overflowed.
        at: f64,
        /// Live bytes after that alloc.
        live_bytes: usize,
        /// Pool capacity in bytes.
        capacity: usize,
    },
}

impl std::fmt::Display for TraceViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceViolation::UseAfterFree {
                slot,
                label,
                at,
                freed_at,
            } => write!(
                f,
                "use-after-free: kernel `{label}` touches slot {slot} at t={at:.6e} \
                 but the slot was freed at t={freed_at:.6e}"
            ),
            TraceViolation::UseBeforeAlloc { slot, label, at } => write!(
                f,
                "use-before-alloc: kernel `{label}` touches slot {slot} at t={at:.6e} \
                 before (or without) its allocation"
            ),
            TraceViolation::DoubleFree { slot, at } => {
                write!(f, "double-free of slot {slot} at t={at:.6e}")
            }
            TraceViolation::DoubleAlloc { slot, at } => {
                write!(f, "double-alloc of slot {slot} at t={at:.6e}")
            }
            TraceViolation::LeakedSlot { slot, bytes } => {
                write!(f, "leaked slot {slot} ({bytes} bytes never freed)")
            }
            TraceViolation::CrossStreamHazard {
                slot,
                hazard,
                streams,
                labels,
                at,
            } => write!(
                f,
                "cross-stream {hazard} hazard on slot {slot}: `{}` (stream {}) overlaps \
                 `{}` (stream {}) at t={at:.6e} with no ordering edge",
                labels.0, streams.0, labels.1, streams.1
            ),
            TraceViolation::StreamOverlap {
                stream,
                at,
                prev_end,
            } => write!(
                f,
                "stream {stream} is serial but a kernel starts at t={at:.6e} before the \
                 previous one ends at t={prev_end:.6e}"
            ),
            TraceViolation::ArenaOversubscribed {
                at,
                live_bytes,
                capacity,
            } => write!(
                f,
                "arena oversubscribed at t={at:.6e}: {live_bytes} live bytes > \
                 capacity {capacity}"
            ),
        }
    }
}

/// Lifetime record for one slot, rebuilt from the event stream.
#[derive(Default)]
struct SlotLife {
    alloc_at: Option<f64>,
    free_at: Option<f64>,
    bytes: usize,
}

/// Statically check `trace` for every hazard class; returns all
/// violations found (empty = clean).
pub fn validate(trace: &Trace) -> Vec<TraceViolation> {
    let mut out = Vec::new();
    check_slot_lifetimes(trace, &mut out);
    check_cross_stream(trace, &mut out);
    check_stream_serialization(trace, &mut out);
    check_arena_budget(trace, &mut out);
    out
}

fn slot_lifetimes(trace: &Trace, out: &mut Vec<TraceViolation>) -> Vec<(usize, SlotLife)> {
    let mut lives: Vec<(usize, SlotLife)> = Vec::new();
    let idx = |lives: &mut Vec<(usize, SlotLife)>, slot: usize| -> usize {
        if let Some(p) = lives.iter().position(|(s, _)| *s == slot) {
            p
        } else {
            lives.push((slot, SlotLife::default()));
            lives.len() - 1
        }
    };
    for ev in &trace.events {
        match ev {
            TraceEvent::Alloc { slot, bytes, at } => {
                let p = idx(&mut lives, *slot);
                let life = &mut lives[p].1;
                if life.alloc_at.is_some() && life.free_at.is_none() {
                    out.push(TraceViolation::DoubleAlloc {
                        slot: *slot,
                        at: *at,
                    });
                } else {
                    // re-allocation after free is legal in principle, but the
                    // replay engine never does it: slot ids are unique
                    // subdomain positions. Track the latest lifetime.
                    life.alloc_at = Some(*at);
                    life.free_at = None;
                    life.bytes = *bytes;
                }
            }
            TraceEvent::Free { slot, at } => {
                let p = idx(&mut lives, *slot);
                let life = &mut lives[p].1;
                if life.alloc_at.is_none() || life.free_at.is_some() {
                    out.push(TraceViolation::DoubleFree {
                        slot: *slot,
                        at: *at,
                    });
                } else {
                    life.free_at = Some(*at);
                }
            }
            TraceEvent::Kernel { .. } => {}
        }
    }
    lives
}

fn check_slot_lifetimes(trace: &Trace, out: &mut Vec<TraceViolation>) {
    let lives = slot_lifetimes(trace, out);
    let find = |slot: usize| lives.iter().find(|(s, _)| *s == slot).map(|(_, l)| l);
    for ev in &trace.events {
        let TraceEvent::Kernel {
            label,
            span,
            reads,
            writes,
            ..
        } = ev
        else {
            continue;
        };
        for &slot in reads.iter().chain(writes.iter()) {
            let Some(life) = find(slot) else {
                out.push(TraceViolation::UseBeforeAlloc {
                    slot,
                    label,
                    at: span.start,
                });
                continue;
            };
            match life.alloc_at {
                None => out.push(TraceViolation::UseBeforeAlloc {
                    slot,
                    label,
                    at: span.start,
                }),
                Some(a) if span.start < a - EPS => out.push(TraceViolation::UseBeforeAlloc {
                    slot,
                    label,
                    at: span.start,
                }),
                _ => {}
            }
            if let Some(fr) = life.free_at {
                if span.end > fr + EPS {
                    out.push(TraceViolation::UseAfterFree {
                        slot,
                        label,
                        at: span.start,
                        freed_at: fr,
                    });
                }
            }
        }
    }
    // leaks last, deduplicated by construction (one SlotLife per slot)
    for (slot, life) in &lives {
        if life.alloc_at.is_some() && life.free_at.is_none() {
            out.push(TraceViolation::LeakedSlot {
                slot: *slot,
                bytes: life.bytes,
            });
        }
    }
}

fn check_cross_stream(trace: &Trace, out: &mut Vec<TraceViolation>) {
    struct K<'a> {
        label: &'static str,
        stream: usize,
        start: f64,
        end: f64,
        reads: &'a [usize],
        writes: &'a [usize],
    }
    let kernels: Vec<K> = trace
        .events
        .iter()
        .filter_map(|ev| match ev {
            TraceEvent::Kernel {
                label,
                stream,
                span,
                reads,
                writes,
            } => Some(K {
                label,
                stream: *stream,
                start: span.start,
                end: span.end,
                reads,
                writes,
            }),
            _ => None,
        })
        .collect();
    for (i, a) in kernels.iter().enumerate() {
        for b in kernels.iter().skip(i + 1) {
            if a.stream == b.stream {
                continue; // same stream is ordered by the queue
            }
            // strict overlap in time (touching endpoints are ordered)
            if a.end <= b.start + EPS || b.end <= a.start + EPS {
                continue;
            }
            // shared slots with at least one writer
            for &slot in a.reads.iter().chain(a.writes.iter()) {
                let a_writes = a.writes.contains(&slot);
                let b_reads = b.reads.contains(&slot);
                let b_writes = b.writes.contains(&slot);
                if !(b_reads || b_writes) {
                    continue;
                }
                if !a_writes && !b_writes {
                    continue; // read-read is always safe
                }
                let (earlier, later) = if a.start <= b.start { (a, b) } else { (b, a) };
                let earlier_writes = earlier.writes.contains(&slot);
                let later_writes = later.writes.contains(&slot);
                let hazard = match (earlier_writes, later_writes) {
                    (true, true) => Hazard::Waw,
                    (true, false) => Hazard::Raw,
                    (false, true) => Hazard::War,
                    (false, false) => unreachable!("filtered above"),
                };
                out.push(TraceViolation::CrossStreamHazard {
                    slot,
                    hazard,
                    streams: (earlier.stream, later.stream),
                    labels: (earlier.label, later.label),
                    at: later.start,
                });
                break; // one violation per kernel pair is enough signal
            }
        }
    }
}

fn check_stream_serialization(trace: &Trace, out: &mut Vec<TraceViolation>) {
    // Prefer the device span log (it covers every submission, including
    // any the event stream missed); fall back to kernel events.
    let mut spans: Vec<(usize, f64, f64)> = if !trace.span_log.is_empty() {
        trace
            .span_log
            .iter()
            .map(|(s, sp)| (*s, sp.start, sp.end))
            .collect()
    } else {
        trace
            .events
            .iter()
            .filter_map(|ev| match ev {
                TraceEvent::Kernel { stream, span, .. } => Some((*stream, span.start, span.end)),
                _ => None,
            })
            .collect()
    };
    spans.sort_by(|a, b| {
        (a.0, a.1)
            .partial_cmp(&(b.0, b.1))
            .expect("kernel span timestamps are finite")
    });
    for w in spans.windows(2) {
        let (s0, _, e0) = w[0];
        let (s1, b1, _) = w[1];
        if s0 == s1 && b1 < e0 - EPS {
            out.push(TraceViolation::StreamOverlap {
                stream: s0,
                at: b1,
                prev_end: e0,
            });
        }
    }
}

fn check_arena_budget(trace: &Trace, out: &mut Vec<TraceViolation>) {
    // Sweep alloc/free events in time order; at equal timestamps frees
    // land first (the replay closes one slot and opens the next at the
    // same instant — that is a hand-off, not a doubling).
    let mut deltas: Vec<(f64, i64)> = Vec::new();
    for ev in &trace.events {
        match ev {
            TraceEvent::Alloc { bytes, at, .. } => deltas.push((*at, *bytes as i64)),
            TraceEvent::Free { at, .. } => {
                // recover the bytes from the matching alloc below
                deltas.push((*at, i64::MIN)); // placeholder, fixed next
            }
            TraceEvent::Kernel { .. } => {}
        }
    }
    // Rebuild free sizes from slot lifetimes (a Free event does not
    // carry bytes).
    let mut sizes: Vec<(usize, usize)> = Vec::new();
    for ev in &trace.events {
        if let TraceEvent::Alloc { slot, bytes, .. } = ev {
            sizes.push((*slot, *bytes));
        }
    }
    let mut di = 0usize;
    for ev in &trace.events {
        match ev {
            TraceEvent::Alloc { .. } => di += 1,
            TraceEvent::Free { slot, .. } => {
                let bytes = sizes
                    .iter()
                    .find(|(s, _)| s == slot)
                    .map(|(_, b)| *b)
                    .unwrap_or(0);
                deltas[di].1 = -(bytes as i64);
                di += 1;
            }
            TraceEvent::Kernel { .. } => {}
        }
    }
    // sort by (time, frees-first)
    deltas.sort_by(|a, b| {
        (a.0, a.1)
            .partial_cmp(&(b.0, b.1))
            .expect("arena event timestamps are finite")
    });
    let mut live = 0i64;
    for (at, d) in deltas {
        live += d;
        if live > trace.arena_capacity as i64 {
            out.push(TraceViolation::ArenaOversubscribed {
                at,
                live_bytes: live as usize,
                capacity: trace.arena_capacity,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_gpu::{SimSpan, SlotAccess};

    fn span(start: f64, end: f64) -> SimSpan {
        SimSpan { start, end }
    }

    /// A minimal clean trace: alloc slot 0, run two ordered kernels on
    /// stream 0, free it.
    fn clean_trace() -> Trace {
        Trace {
            arena_capacity: 1024,
            n_streams: 2,
            concurrency: 2,
            events: vec![
                TraceEvent::Alloc {
                    slot: 0,
                    bytes: 512,
                    at: 0.0,
                },
                TraceEvent::Kernel {
                    label: "upload",
                    stream: 0,
                    span: span(0.0, 1.0),
                    reads: vec![],
                    writes: vec![0],
                },
                TraceEvent::Kernel {
                    label: "syrk",
                    stream: 0,
                    span: span(1.0, 2.0),
                    reads: vec![0],
                    writes: vec![0],
                },
                TraceEvent::Free { slot: 0, at: 2.0 },
            ],
            span_log: vec![(0, span(0.0, 1.0)), (0, span(1.0, 2.0))],
        }
    }

    #[test]
    fn clean_trace_validates() {
        assert!(validate(&clean_trace()).is_empty());
        let _ = SlotAccess::read_write(); // exercise the re-export path
    }

    #[test]
    fn dropped_free_is_a_leak() {
        let mut t = clean_trace();
        t.events.retain(|e| !matches!(e, TraceEvent::Free { .. }));
        let v = validate(&t);
        assert!(v
            .iter()
            .any(|v| matches!(v, TraceViolation::LeakedSlot { slot: 0, .. })));
    }

    #[test]
    fn use_after_free_detected() {
        let mut t = clean_trace();
        // free at 0.5, while the second kernel runs until 2.0
        if let Some(TraceEvent::Free { at, .. }) = t
            .events
            .iter_mut()
            .find(|e| matches!(e, TraceEvent::Free { .. }))
        {
            *at = 0.5;
        }
        let v = validate(&t);
        assert!(v
            .iter()
            .any(|v| matches!(v, TraceViolation::UseAfterFree { slot: 0, .. })));
    }

    #[test]
    fn use_before_alloc_detected() {
        let mut t = clean_trace();
        if let Some(TraceEvent::Alloc { at, .. }) = t
            .events
            .iter_mut()
            .find(|e| matches!(e, TraceEvent::Alloc { .. }))
        {
            *at = 1.5;
        }
        let v = validate(&t);
        assert!(v
            .iter()
            .any(|v| matches!(v, TraceViolation::UseBeforeAlloc { slot: 0, .. })));
    }

    #[test]
    fn double_free_detected() {
        let mut t = clean_trace();
        t.events.push(TraceEvent::Free { slot: 0, at: 3.0 });
        let v = validate(&t);
        assert!(v
            .iter()
            .any(|v| matches!(v, TraceViolation::DoubleFree { slot: 0, .. })));
    }

    #[test]
    fn cross_stream_write_overlap_detected() {
        let mut t = clean_trace();
        // move the second kernel to stream 1, overlapping the first
        if let Some(TraceEvent::Kernel {
            stream, span: sp, ..
        }) = t
            .events
            .iter_mut()
            .filter(|e| matches!(e, TraceEvent::Kernel { .. }))
            .nth(1)
        {
            *stream = 1;
            *sp = span(0.5, 1.5);
        }
        t.span_log = vec![(0, span(0.0, 1.0)), (1, span(0.5, 1.5))];
        let v = validate(&t);
        assert!(v
            .iter()
            .any(|v| matches!(v, TraceViolation::CrossStreamHazard { slot: 0, .. })));
    }

    #[test]
    fn same_stream_overlap_detected_via_span_log() {
        let mut t = clean_trace();
        t.span_log = vec![(0, span(0.0, 1.0)), (0, span(0.5, 1.5))];
        let v = validate(&t);
        assert!(v
            .iter()
            .any(|v| matches!(v, TraceViolation::StreamOverlap { stream: 0, .. })));
    }

    #[test]
    fn arena_oversubscription_detected() {
        let mut t = clean_trace();
        t.arena_capacity = 256; // alloc of 512 overflows
        let v = validate(&t);
        assert!(v
            .iter()
            .any(|v| matches!(v, TraceViolation::ArenaOversubscribed { .. })));
    }

    #[test]
    fn handoff_at_equal_time_is_not_oversubscription() {
        let t = Trace {
            arena_capacity: 512,
            n_streams: 1,
            concurrency: 1,
            events: vec![
                TraceEvent::Alloc {
                    slot: 0,
                    bytes: 512,
                    at: 0.0,
                },
                TraceEvent::Free { slot: 0, at: 1.0 },
                TraceEvent::Alloc {
                    slot: 1,
                    bytes: 512,
                    at: 1.0,
                },
                TraceEvent::Free { slot: 1, at: 2.0 },
            ],
            span_log: vec![],
        };
        assert!(validate(&t).is_empty());
    }
}
