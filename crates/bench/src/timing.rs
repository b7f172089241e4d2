//! Wall-clock timing helpers for the CPU-side measurements.

use std::time::Instant;

/// Wall-time one execution of `f`, in seconds.
pub fn time_once<F: FnOnce()>(f: F) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// Minimum wall time over `reps` executions (minimum is the standard
/// low-noise estimator for deterministic kernels).
pub fn time_min<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_once_is_positive() {
        let t = time_once(|| {
            std::hint::black_box((0..1000).sum::<usize>());
        });
        assert!(t >= 0.0);
    }

    #[test]
    fn time_min_runs_all_reps() {
        let mut count = 0;
        let _ = time_min(5, || count += 1);
        assert_eq!(count, 5);
    }
}
