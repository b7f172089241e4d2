//! The temporary arena of the paper's §3.1, in simulated time.
//!
//! The original algorithm "mentally splits the GPU memory into two parts —
//! persistent and temporary", and a worker whose subdomain does not fit
//! into the temporary part waits until enough of it is released. A replay
//! has no threads to block: [`ArenaSim`] answers *when*, on the simulated
//! clock, a reservation fits into the device's
//! [`arena_capacity`](crate::Device::arena_capacity), and the replay starts
//! the subdomain's stream no earlier.

/// Simulated-time admission against the temporary arena: reservations are
/// intervals `[start, release)` of bytes; [`ArenaSim::try_admit`] returns the
/// earliest instant at which a new reservation can *permanently* fit — i.e.
/// after which committed usage never again exceeds `capacity − bytes`. The
/// conservative "permanently" guard is what keeps admission safe even though
/// a reservation's release time is only known after its kernels are
/// replayed.
pub struct ArenaSim {
    capacity: usize,
    /// Committed reservations as `(start, release, bytes)`.
    live: Vec<(f64, f64, usize)>,
}

impl ArenaSim {
    /// Arena of `capacity` bytes (use the device's
    /// [`arena_capacity`](crate::Device::arena_capacity)).
    pub fn new(capacity: usize) -> Self {
        ArenaSim {
            capacity,
            live: Vec::new(),
        }
    }

    /// The committed usage changes `(instant, ±bytes)` in time order,
    /// releases before acquisitions at the same instant.
    fn events(&self) -> Vec<(f64, isize)> {
        let mut events: Vec<(f64, isize)> = Vec::with_capacity(2 * self.live.len());
        for &(start, release, b) in &self.live {
            events.push((start, b as isize));
            events.push((release, -(b as isize)));
        }
        events.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.cmp(&b.1))
        });
        events
    }

    /// Earliest admission instant `t ≥ not_before` for a reservation of
    /// `bytes` against the committed reservation set; `None` when admission
    /// is blocked by an **open** reservation (one whose release time is not
    /// yet known — an in-flight subdomain): the caller must replay other
    /// streams until the holder closes.
    ///
    /// # Panics
    ///
    /// When `bytes > capacity` — the request can never be satisfied (a
    /// buffer bigger than the card's arena is a configuration error).
    pub fn try_admit(&self, bytes: usize, not_before: f64) -> Option<f64> {
        assert!(
            bytes <= self.capacity,
            "temporary reservation of {bytes} B exceeds the device arena \
             capacity {} B — the subdomain cannot be scheduled on this device",
            self.capacity
        );
        let budget = self.capacity as isize - bytes as isize;
        // sweep usage over the committed breakpoints; admission must wait
        // past the *last* segment whose usage exceeds the remaining budget
        let events = self.events();
        let mut t = not_before;
        let mut usage = 0isize;
        for (w, &(at, delta)) in events.iter().enumerate() {
            usage += delta;
            // usage holds on [at, seg_end)
            let seg_end = events.get(w + 1).map(|e| e.0).unwrap_or(at);
            if usage > budget && seg_end > at {
                // cannot be resident during an over-budget segment: wait
                // until it ends
                t = t.max(seg_end);
            }
        }
        debug_assert_eq!(usage, 0, "reservation events must balance");
        t.is_finite().then_some(t)
    }

    /// Open a reservation whose release time is not yet known (an in-flight
    /// subdomain): it holds `bytes` from `start` indefinitely until
    /// [`ArenaSim::close`] stamps the release. Returns a handle.
    pub fn open(&mut self, start: f64, bytes: usize) -> usize {
        self.live.push((start, f64::INFINITY, bytes));
        self.live.len() - 1
    }

    /// Stamp the release time of an open reservation.
    pub fn close(&mut self, handle: usize, release: f64) {
        debug_assert!(
            self.live[handle].1.is_infinite(),
            "closing an already-closed reservation"
        );
        self.live[handle].1 = release.max(self.live[handle].0);
    }

    /// Peak simultaneous committed bytes over all reservations.
    pub fn high_water(&self) -> usize {
        let mut usage = 0isize;
        let mut peak = 0isize;
        for (_, delta) in self.events() {
            usage += delta;
            peak = peak.max(usage);
        }
        peak.max(0) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An arena of 1000 B holding the closed reservations `(start, release,
    /// bytes)`.
    fn arena(held: &[(f64, f64, usize)]) -> ArenaSim {
        let mut a = ArenaSim::new(1000);
        for &(start, release, bytes) in held {
            let h = a.open(start, bytes);
            a.close(h, release);
        }
        a
    }

    #[test]
    fn admits_immediately_when_it_fits() {
        assert_eq!(arena(&[]).try_admit(1000, 0.5), Some(0.5));
    }

    #[test]
    fn waits_for_release() {
        let a = arena(&[(0.0, 2.0, 800)]);
        // 300 B do not fit until t = 2.0
        assert_eq!(a.try_admit(300, 0.0), Some(2.0));
        // 200 B fit right away
        assert_eq!(a.try_admit(200, 0.0), Some(0.0));
    }

    #[test]
    fn respects_future_reservations() {
        // committed for the future: [5, 9). A 300 B request at t=0 must NOT
        // slot in before 5.0, because its release time is unknown and could
        // overlap [5, 9)
        assert_eq!(arena(&[(5.0, 9.0, 800)]).try_admit(300, 0.0), Some(9.0));
    }

    #[test]
    fn an_open_reservation_blocks_until_it_closes() {
        let mut a = arena(&[]);
        let h = a.open(0.0, 800);
        assert_eq!(a.try_admit(300, 0.0), None);
        assert_eq!(a.try_admit(200, 1.0), Some(1.0));
        a.close(h, 3.0);
        assert_eq!(a.try_admit(300, 0.0), Some(3.0));
    }

    #[test]
    #[should_panic(expected = "exceeds the device arena")]
    fn rejects_oversized_requests() {
        let _ = ArenaSim::new(10).try_admit(11, 0.0);
    }

    #[test]
    fn high_water_tracks_peak() {
        let a = arena(&[(0.0, 4.0, 400), (1.0, 2.0, 300), (2.0, 5.0, 300)]);
        assert_eq!(a.high_water(), 700);
    }
}
