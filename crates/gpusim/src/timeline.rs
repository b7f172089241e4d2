//! Event-driven device timeline: streams, bounded kernel concurrency, spans.

use crate::cost::KernelCost;
use crate::device::DeviceSpec;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Simulated execution interval of one kernel, in seconds since device
/// creation (or the last [`Device::reset`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimSpan {
    /// Simulated start time.
    pub start: f64,
    /// Simulated end time.
    pub end: f64,
}

impl SimSpan {
    /// Kernel duration.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Totally ordered f64 wrapper for the slot heap.
#[derive(PartialEq, PartialOrd)]
struct F(f64);
impl Eq for F {}
#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for F {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("NaN in timeline")
    }
}

struct TimelineState {
    /// Per-stream completion clock.
    stream_clock: Vec<f64>,
    /// Free times of the `concurrency` execution slots (min-heap).
    slots: BinaryHeap<Reverse<F>>,
    /// Total busy kernel-seconds (utilization accounting).
    busy: f64,
    /// Number of kernels launched.
    launches: usize,
    /// Per-kernel `(stream, span)` log, recorded when enabled (scheduler
    /// invariant tests reconstruct concurrency from it).
    span_log: Option<Vec<(usize, SimSpan)>>,
}

/// A simulated GPU: capability spec + execution timeline.
pub struct Device {
    spec: DeviceSpec,
    state: Mutex<TimelineState>,
}

impl Device {
    /// Create a device with `n_streams` streams.
    pub fn new(spec: DeviceSpec, n_streams: usize) -> Arc<Self> {
        let concurrency = spec.concurrency.max(1);
        Arc::new(Device {
            spec,
            state: Mutex::new(TimelineState {
                stream_clock: vec![0.0; n_streams],
                slots: (0..concurrency).map(|_| Reverse(F(0.0))).collect(),
                busy: 0.0,
                launches: 0,
                span_log: None,
            }),
        })
    }

    fn state(&self) -> MutexGuard<'_, TimelineState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Capability spec.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Temporary-arena capacity in bytes: 1/2 of device memory (the rest is
    /// "persistent", §3.1) — the admissibility bound planners check before
    /// placing a subdomain's temporaries on this device, and what
    /// [`ArenaSim`](crate::ArenaSim) admits against during a replay.
    pub fn arena_capacity(&self) -> usize {
        self.spec.memory_bytes / 2
    }

    /// Handle to stream `i`.
    pub fn stream(self: &Arc<Self>, i: usize) -> Stream {
        Stream {
            device: Arc::clone(self),
            id: i,
        }
    }

    /// Number of streams.
    pub fn n_streams(&self) -> usize {
        self.state().stream_clock.len()
    }

    /// Submit a kernel on stream `id`, not starting before `ready_at`
    /// (simulated seconds). Returns its simulated span.
    ///
    /// # Panics
    ///
    /// When `cost` carries NaN, infinite, or negative work (see
    /// [`KernelCost::validate`]) — malformed costs fail here with an error
    /// naming the kernel, instead of corrupting the slot heap's ordering.
    pub fn submit(&self, id: usize, cost: &KernelCost, ready_at: f64) -> SimSpan {
        if let Err(e) = cost.validate() {
            // documented contract (see `# Panics`). sc-analyze: allow(panic-surface)
            panic!("rejected submission on stream {id}: {e}");
        }
        assert!(
            ready_at.is_finite() && ready_at >= 0.0,
            "kernel '{}' submitted with invalid ready_at {ready_at}",
            cost.label
        );
        let dur = self.spec.kernel_seconds(cost);
        let mut st = self.state();
        let t0 = st.stream_clock[id].max(ready_at);
        let Reverse(F(slot_free)) = st.slots.pop().expect("no slots");
        let start = t0.max(slot_free);
        let end = start + dur;
        st.slots.push(Reverse(F(end)));
        st.stream_clock[id] = end;
        st.busy += dur;
        st.launches += 1;
        let span = SimSpan { start, end };
        if let Some(log) = st.span_log.as_mut() {
            log.push((id, span));
        }
        span
    }

    /// Start recording every submitted kernel's `(stream, span)` (cleared
    /// and re-armed by [`Device::reset`]). Used by tests that check the
    /// concurrency invariant of the timeline.
    pub fn enable_span_log(&self) {
        let mut st = self.state();
        if st.span_log.is_none() {
            st.span_log = Some(Vec::new());
        }
    }

    /// Drain the recorded kernel spans (empty when logging is disabled).
    pub fn take_span_log(&self) -> Vec<(usize, SimSpan)> {
        self.state()
            .span_log
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Whether span logging is currently armed (see
    /// [`Device::enable_span_log`]).
    pub fn span_log_enabled(&self) -> bool {
        self.state().span_log.is_some()
    }

    /// Number of entries currently in the span log (0 when disabled). Pair
    /// with [`Device::span_log_since`] for a non-destructive window snapshot
    /// that leaves the log intact for a later [`Device::take_span_log`].
    pub fn span_log_len(&self) -> usize {
        self.state().span_log.as_ref().map_or(0, |log| log.len())
    }

    /// Clone the span-log entries recorded at or after position `mark`
    /// (empty when logging is disabled). Unlike [`Device::take_span_log`]
    /// this does **not** drain the log — callers that only observe a window
    /// (e.g. the scheduled replay attaching its trace) leave earlier
    /// enablers' data untouched.
    pub fn span_log_since(&self, mark: usize) -> Vec<(usize, SimSpan)> {
        self.state()
            .span_log
            .as_ref()
            .map_or_else(Vec::new, |log| log.get(mark..).unwrap_or(&[]).to_vec())
    }

    /// Stop recording and discard the log (the inverse of
    /// [`Device::enable_span_log`]). A later enable starts empty again.
    pub fn disable_span_log(&self) {
        self.state().span_log = None;
    }

    /// Current simulated clock of stream `id` (completion of its last
    /// kernel) — the analog of a stream-synchronize + timer read.
    pub fn stream_time(&self, id: usize) -> f64 {
        self.state().stream_clock[id]
    }

    /// Device-wide synchronize: simulated completion time of all streams.
    pub fn synchronize(&self) -> f64 {
        let st = self.state();
        st.stream_clock.iter().copied().fold(0.0, f64::max)
    }

    /// Total busy kernel-seconds since the last reset.
    pub fn busy_seconds(&self) -> f64 {
        self.state().busy
    }

    /// Kernels launched since the last reset.
    pub fn launches(&self) -> usize {
        self.state().launches
    }

    /// Advance stream `id`'s clock to at least `t` (models a host-side
    /// dependency: kernels enqueued afterwards cannot start earlier — e.g.
    /// "this subdomain's factorization finished at `t`" in the overlapped
    /// `mix` configuration of the paper's §4.4).
    pub fn advance_stream(&self, id: usize, t: f64) {
        let mut st = self.state();
        if st.stream_clock[id] < t {
            st.stream_clock[id] = t;
        }
    }

    /// Reset the timeline (new experiment), keeping the spec.
    pub fn reset(&self) {
        let mut st = self.state();
        let n = st.stream_clock.len();
        st.stream_clock = vec![0.0; n];
        st.slots = (0..self.spec.concurrency.max(1))
            .map(|_| Reverse(F(0.0)))
            .collect();
        st.busy = 0.0;
        st.launches = 0;
        if let Some(log) = st.span_log.as_mut() {
            log.clear();
        }
    }
}

/// Handle to one simulated CUDA stream.
#[derive(Clone)]
pub struct Stream {
    device: Arc<Device>,
    id: usize,
}

impl Stream {
    /// Owning device.
    pub fn device(&self) -> &Arc<Device> {
        &self.device
    }

    /// Stream index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Submit a kernel on this stream (ready immediately).
    pub fn submit(&self, cost: &KernelCost) -> SimSpan {
        self.device.submit(self.id, cost, 0.0)
    }

    /// Simulated completion time of this stream's last kernel.
    pub fn time(&self) -> f64 {
        self.device.stream_time(self.id)
    }

    /// Advance this stream's clock to at least `t` (host dependency).
    pub fn advance_to(&self, t: f64) {
        self.device.advance_stream(self.id, t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> Arc<Device> {
        Device::new(DeviceSpec::tiny_test_device(), 4)
    }

    #[test]
    fn arena_is_half_of_device_memory() {
        for spec in [
            DeviceSpec::a100(),
            DeviceSpec::h100(),
            DeviceSpec::tiny_test_device(),
        ] {
            let d = Device::new(spec, 1);
            assert_eq!(d.arena_capacity(), d.spec().memory_bytes / 2);
        }
    }

    #[test]
    fn kernels_serialize_within_a_stream() {
        let d = dev();
        let s = d.stream(0);
        let c = KernelCost::compute(1e6, 8e3);
        let a = s.submit(&c);
        let b = s.submit(&c);
        assert!(b.start >= a.end, "in-stream ordering violated");
    }

    #[test]
    fn streams_overlap_up_to_concurrency() {
        let d = dev(); // concurrency = 2
        let c = KernelCost::compute(1e7, 8e3);
        let s0 = d.stream(0).submit(&c);
        let s1 = d.stream(1).submit(&c);
        let s2 = d.stream(2).submit(&c);
        // first two run concurrently, third must wait for a slot
        assert_eq!(s0.start, 0.0);
        assert_eq!(s1.start, 0.0);
        assert!(s2.start >= s0.end.min(s1.end) - 1e-15);
    }

    #[test]
    fn ready_at_delays_start() {
        let d = dev();
        let c = KernelCost::compute(1e6, 8e3);
        let span = d.submit(3, &c, 1.5);
        assert!(span.start >= 1.5);
    }

    #[test]
    fn synchronize_is_max_over_streams() {
        let d = dev();
        let c = KernelCost::compute(1e6, 8e3);
        d.stream(0).submit(&c);
        d.stream(1).submit(&c);
        d.stream(1).submit(&c);
        assert!((d.synchronize() - d.stream_time(1)).abs() < 1e-18);
    }

    #[test]
    fn reset_clears_clocks() {
        let d = dev();
        d.stream(0).submit(&KernelCost::compute(1e6, 8e3));
        d.reset();
        assert_eq!(d.synchronize(), 0.0);
        assert_eq!(d.launches(), 0);
    }

    #[test]
    fn nan_cost_is_rejected_with_kernel_name() {
        let d = dev();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            d.stream(0).submit(&KernelCost::compute(f64::NAN, 8e3));
        }))
        .unwrap_err();
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| err.downcast_ref::<&str>().unwrap_or(&"").to_string());
        assert!(
            msg.contains("compute") && msg.contains("flops"),
            "error must name the kernel and the bad field: {msg}"
        );
    }

    #[test]
    fn negative_bytes_are_rejected() {
        let d = dev();
        let mut cost = KernelCost::gather_of::<f64>(4);
        cost.bytes = -1.0;
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            d.stream(1).submit(&cost);
        }))
        .is_err());
    }

    #[test]
    fn span_log_records_and_resets() {
        let d = dev();
        d.enable_span_log();
        let c = KernelCost::compute(1e6, 8e3);
        d.stream(0).submit(&c);
        d.stream(1).submit(&c);
        let log = d.take_span_log();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].0, 0);
        assert_eq!(log[1].0, 1);
        assert!(d.take_span_log().is_empty(), "take drains the log");
        d.stream(2).submit(&c);
        d.reset();
        assert!(d.take_span_log().is_empty(), "reset clears the log");
    }

    #[test]
    fn span_log_snapshot_does_not_drain() {
        let d = dev();
        assert!(!d.span_log_enabled());
        assert_eq!(d.span_log_len(), 0);
        assert!(d.span_log_since(0).is_empty());
        d.enable_span_log();
        let c = KernelCost::compute(1e6, 8e3);
        d.stream(0).submit(&c);
        let mark = d.span_log_len();
        assert_eq!(mark, 1);
        d.stream(1).submit(&c);
        d.stream(2).submit(&c);
        let window = d.span_log_since(mark);
        assert_eq!(window.len(), 2, "window sees only post-mark kernels");
        assert_eq!(window[0].0, 1);
        assert_eq!(window[1].0, 2);
        // the snapshot left the full log intact for the draining reader
        assert_eq!(d.take_span_log().len(), 3);
        d.disable_span_log();
        assert!(!d.span_log_enabled());
        d.stream(0).submit(&c);
        assert_eq!(d.span_log_len(), 0, "disabled log records nothing");
    }

    #[test]
    fn busy_accounts_all_kernels() {
        let d = dev();
        let c = KernelCost::compute(1e6, 8e3);
        let t = d.spec().kernel_seconds(&c);
        d.stream(0).submit(&c);
        d.stream(1).submit(&c);
        assert!((d.busy_seconds() - 2.0 * t).abs() < 1e-12);
    }
}
