//! Recorded execution traces of the scheduled drivers, for static hazard
//! analysis.
//!
//! The §4.4 record-then-replay drivers already know, for every replayed
//! kernel, which subdomain's temporary-arena allocation it touches, on which
//! stream it ran, and over which simulated interval. A [`Trace`] captures
//! exactly that — alloc/free events of every arena reservation plus every
//! kernel's stream, span, and slot read/write sets — so a *static* checker
//! (`sc_analyze::trace::validate`) can audit the executed schedule for
//! use-after-free, double-free, cross-stream data hazards, per-stream
//! serialization, and arena oversubscription the way `compute-sanitizer` or
//! TSan would on real hardware.
//!
//! Traces are attached to assembly reports by the scheduled drivers
//! (`DeviceReport::trace` in `sc_core`), one per device replay; slot ids are
//! replay-local subdomain positions.

use crate::timeline::SimSpan;

/// How one recorded kernel touches its subdomain's temporary-arena slot.
///
/// Recorded host-side by `RecordingExec` (which cannot know the concrete
/// slot id yet — slots are assigned at replay admission), then bound to the
/// admitted slot when the kernel replays onto the device timeline.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SlotAccess {
    /// The kernel reads bytes of the slot (D2H downloads, compute inputs).
    pub reads: bool,
    /// The kernel writes bytes of the slot (H2D uploads, compute outputs).
    pub writes: bool,
}

impl SlotAccess {
    /// Read-only access (D2H downloads).
    pub fn read() -> Self {
        SlotAccess {
            reads: true,
            writes: false,
        }
    }

    /// Write-only access (H2D uploads into the slot).
    pub fn write() -> Self {
        SlotAccess {
            reads: false,
            writes: true,
        }
    }

    /// Read-write access (compute kernels: inputs and outputs both live in
    /// the subdomain's temporary slot).
    pub fn read_write() -> Self {
        SlotAccess {
            reads: true,
            writes: true,
        }
    }
}

/// One event of a recorded schedule, in replay emission order.
#[derive(Clone, Debug)]
pub enum TraceEvent {
    /// A temporary-arena reservation opened for slot `slot` at simulated
    /// time `at` (the subdomain's admission instant).
    Alloc {
        /// Replay-local slot id (the subdomain's position in the replayed
        /// slice).
        slot: usize,
        /// Reserved bytes.
        bytes: usize,
        /// Simulated admission time.
        at: f64,
    },
    /// The reservation of slot `slot` released at simulated time `at` (the
    /// end of the subdomain's last kernel).
    Free {
        /// Replay-local slot id.
        slot: usize,
        /// Simulated release time.
        at: f64,
    },
    /// One replayed kernel launch.
    Kernel {
        /// Kernel family (from [`KernelCost::label`](crate::KernelCost)).
        label: &'static str,
        /// Stream the kernel ran on (device-local).
        stream: usize,
        /// Simulated execution interval.
        span: SimSpan,
        /// Arena slots the kernel reads.
        reads: Vec<usize>,
        /// Arena slots the kernel writes.
        writes: Vec<usize>,
    },
    /// One simulated inter-node transfer over the cluster interconnect
    /// (recorded by the multi-node drivers). A kernel that **reads** a slot
    /// this exchange **writes** depends on the delivered bytes and must not
    /// start before the exchange's span ends — the hazard
    /// `sc_analyze::trace::validate` flags as an exchange overlap.
    Exchange {
        /// Transfer family (e.g. `"lambda-exchange"`).
        label: &'static str,
        /// Peer node the bytes move to/from.
        peer: usize,
        /// Bytes on the wire.
        bytes: usize,
        /// Simulated transfer interval on the node timeline.
        span: SimSpan,
        /// Arena slots whose contents the exchange delivers (dependents
        /// must wait; empty for pure egress transfers).
        writes: Vec<usize>,
    },
}

/// A complete recorded schedule of one device replay: the event stream plus
/// the device's own span log over the replay window, against the arena and
/// stream geometry the schedule ran under.
#[derive(Clone, Debug)]
pub struct Trace {
    /// Temporary-arena capacity the schedule was admitted against, bytes.
    pub arena_capacity: usize,
    /// Bytes of one matrix element in the replayed schedule (8 for `f64`,
    /// 4 for `f32`). Arena reservations in [`Trace::events`] are sized with
    /// this width, so the oversubscription audit compares like against like
    /// instead of assuming 8-byte slots.
    pub elem_bytes: usize,
    /// Number of streams of the device.
    pub n_streams: usize,
    /// Bounded kernel concurrency of the device (across streams).
    pub concurrency: usize,
    /// Alloc/free/kernel events, in replay emission order.
    pub events: Vec<TraceEvent>,
    /// The device's `(stream, span)` log over the replay window — an
    /// independent witness of per-stream serialization, captured through the
    /// timeline's span-log machinery rather than reconstructed from
    /// [`Trace::events`].
    pub span_log: Vec<(usize, SimSpan)>,
}

impl Default for Trace {
    /// Empty trace with the historical 8-byte (`f64`) element width.
    fn default() -> Self {
        Trace {
            arena_capacity: 0,
            elem_bytes: 8,
            n_streams: 0,
            concurrency: 0,
            events: Vec::new(),
            span_log: Vec::new(),
        }
    }
}

impl Trace {
    /// Number of kernel events in the trace.
    pub fn n_kernels(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Kernel { .. }))
            .count()
    }

    /// Number of arena reservations (alloc events) in the trace.
    pub fn n_allocs(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Alloc { .. }))
            .count()
    }

    /// Number of inter-node exchange events in the trace.
    pub fn n_exchanges(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Exchange { .. }))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_constructors_cover_the_three_shapes() {
        assert_eq!(
            SlotAccess::read(),
            SlotAccess {
                reads: true,
                writes: false
            }
        );
        assert_eq!(
            SlotAccess::write(),
            SlotAccess {
                reads: false,
                writes: true
            }
        );
        assert!(SlotAccess::read_write().reads && SlotAccess::read_write().writes);
    }

    #[test]
    fn counters_count_event_kinds() {
        let t = Trace {
            arena_capacity: 100,
            elem_bytes: 8,
            n_streams: 2,
            concurrency: 2,
            events: vec![
                TraceEvent::Alloc {
                    slot: 0,
                    bytes: 10,
                    at: 0.0,
                },
                TraceEvent::Kernel {
                    label: "syrk",
                    stream: 0,
                    span: SimSpan {
                        start: 0.0,
                        end: 1.0,
                    },
                    reads: vec![0],
                    writes: vec![0],
                },
                TraceEvent::Free { slot: 0, at: 1.0 },
            ],
            span_log: vec![(
                0,
                SimSpan {
                    start: 0.0,
                    end: 1.0,
                },
            )],
        };
        assert_eq!(t.n_kernels(), 1);
        assert_eq!(t.n_allocs(), 1);
    }
}
