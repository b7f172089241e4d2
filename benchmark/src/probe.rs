//! A machine-speed probe: a fixed unit of work in the benchmark's own code,
//! sampled between reps.
//!
//! The sandbox's virtual CPUs are a share of a host that other machines use
//! too, and their speed drifts by tens of percent over minutes, for every
//! kind of code at once. A run lasts seconds, so the drift moves whole runs,
//! not samples within one, and no median removes it. The probe calls nothing
//! in the library; what it measures is the machine.

use crate::spans::Tracer;
use std::time::Instant;

const N: usize = 64;
const CHAIN: usize = 1 << 19;

/// The FMA kernel's operands, on cache-line boundaries: 64-byte vector loads
/// that straddle two lines run about 12% slower, and where the allocator
/// happens to put an unaligned array differs from process to process, which
/// would read as a machine that is faster in one run than in the next.
#[repr(align(64))]
struct Operands {
    a: [f64; N * N],
    x: [f64; N],
    y: [f64; N],
}

/// State of the probe's three kernels: FMA throughput on cache-resident
/// data, a dependent integer chain, and dependent loads over 2 MiB.
pub struct MachineProbe {
    operands: Box<Operands>,
    next: Vec<u32>,
}

impl Default for MachineProbe {
    fn default() -> Self {
        Self::new()
    }
}

impl MachineProbe {
    pub fn new() -> Self {
        // one cycle through all slots: a multiplicative step coprime to the
        // power-of-two length visits every index before returning
        let next = (0..CHAIN)
            .map(|i| ((i * 40_503 + 1) % CHAIN) as u32)
            .collect();
        let mut operands = Box::new(Operands {
            a: [0.0; N * N],
            x: [1.0; N],
            y: [0.0; N],
        });
        for (i, v) in operands.a.iter_mut().enumerate() {
            *v = 1.0 + (i % 7) as f64 * 1e-3;
        }
        MachineProbe { operands, next }
    }

    fn unit(&mut self) -> u64 {
        let Operands { a, x, y } = &mut *self.operands;
        for _ in 0..2048 {
            for (row, out) in a.chunks_exact(N).zip(y.iter_mut()) {
                let mut acc = [0.0f64; 8];
                for (ra, xa) in row.chunks_exact(8).zip(x.chunks_exact(8)) {
                    for k in 0..8 {
                        acc[k] = ra[k].mul_add(xa[k], acc[k]);
                    }
                }
                *out = *out * 0.5 + acc.iter().sum::<f64>();
            }
        }
        // xorshift64: each step needs the one before it, and unlike an
        // affine recurrence the compiler cannot fold the loop away
        let mut s = y[0].to_bits() | 1;
        for _ in 0..250_000 {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
        }
        let mut at = (s % CHAIN as u64) as usize;
        for _ in 0..200_000 {
            at = self.next[at] as usize;
        }
        s ^ at as u64
    }

    /// Seconds of one unit of work (about 5 ms on the reference sandbox):
    /// the fastest of three, so an interrupt during one does not read as a
    /// slow machine, and the later two run on the probe's own warm cache
    /// lines whatever the workload left behind.
    pub fn sample(&mut self) -> f64 {
        (0..3)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(self.unit());
                t0.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    }
}

/// Seconds one unit of the machine probe takes on the reference sandbox in
/// a quiet phase. The constant only fixes the scale of the drift-corrected
/// times; any change to it rescales every host timing alike.
pub const REFERENCE_PROBE_S: f64 = 5.0e-3;

/// A wall time and the same time restated at the reference machine speed.
#[derive(Clone, Copy, Debug, Default)]
pub struct Paced {
    /// Wall seconds as measured on this machine at that moment.
    pub raw_s: f64,
    /// `raw_s × REFERENCE_PROBE_S / probe`, the probe being the mean of the
    /// machine-probe samples taken just before and just after the call.
    pub s: f64,
}

impl std::ops::AddAssign for Paced {
    fn add_assign(&mut self, other: Paced) {
        self.raw_s += other.raw_s;
        self.s += other.s;
    }
}

/// Times calls and corrects each for the machine's speed at that moment.
///
/// Off (the traced run), it samples nothing and `s == raw_s`.
pub struct Pacer {
    probe: Option<MachineProbe>,
    last_sample_s: f64,
}

impl Pacer {
    pub fn on() -> Self {
        let mut probe = MachineProbe::new();
        // the first sample also pages the probe's arrays in
        probe.sample();
        let last_sample_s = probe.sample();
        Pacer {
            probe: Some(probe),
            last_sample_s,
        }
    }

    pub fn off() -> Self {
        Pacer {
            probe: None,
            last_sample_s: REFERENCE_PROBE_S,
        }
    }

    /// Restate `raw_s`, measured since the previous sample, at reference
    /// speed; takes the sample that closes the interval.
    pub fn pace(&mut self, raw_s: f64) -> Paced {
        let Some(probe) = self.probe.as_mut() else {
            return Paced { raw_s, s: raw_s };
        };
        let before = self.last_sample_s;
        self.last_sample_s = probe.sample();
        Paced {
            raw_s,
            s: raw_s * REFERENCE_PROBE_S / (0.5 * (before + self.last_sample_s)),
        }
    }

    /// [`Tracer::time`] with the result paced. The probe runs outside the
    /// span.
    pub fn time<R>(
        &mut self,
        tr: &mut Tracer,
        name: &'static str,
        args: &[(&'static str, f64)],
        f: impl FnOnce() -> R,
    ) -> (R, Paced) {
        let (out, raw_s) = tr.time(name, None, args, f);
        (out, self.pace(raw_s))
    }
}
