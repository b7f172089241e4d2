//! Property tests pinning the cache-blocked kernels to the scalar reference.
//!
//! The blocked kernels reassociate every reduction (packed panels + register
//! tile + FMA, solves that multiply by reciprocals), so agreement with the
//! scalar kernels is by tolerance scaled to the reduction depth; only the
//! packed-panel round trip is bitwise. The shapes that matter are the ones
//! around the block edges of the loop nest ([`EDGES`]), in both precisions;
//! the triangular solve is also held to a backward-error bound of its own on
//! graded factors, where a comparison against another solver says little.

use proptest::prelude::*;
use sc_dense::blocked::{KC, MC};
use sc_dense::{
    gemm_blocked, gemm_scalar, partial_cholesky_blocked, partial_cholesky_scalar, syrk_t_blocked,
    syrk_t_scalar, trsm_lower_left_blocked, trsm_lower_left_scalar, Mat, MatOf, PackedA, PackedB,
    Scalar, Trans, MR, NR,
};

/// Sizes on either side of every block edge of the packed nest.
const EDGES: [usize; 11] = [
    1,
    NR - 1,
    NR + 1,
    MR - 1,
    MR,
    MR + 1,
    MC - 1,
    MC + 1,
    KC - 1,
    KC + 1,
    2 * KC + 3,
];

fn edge() -> impl Strategy<Value = usize> {
    (0..EDGES.len()).prop_map(|i| EDGES[i])
}

/// Seeded uniform values in `[-1, 1)`.
fn uniform(seed: u64) -> impl FnMut() -> f64 {
    let mut s = seed | 1;
    move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    }
}

fn random<S: Scalar>(m: usize, n: usize, seed: u64) -> MatOf<S> {
    let mut next = uniform(seed);
    MatOf::from_fn(m, n, |_, _| S::from_f64(next()))
}

/// Well-conditioned lower factor (diagonal in `[2, 3)`, small sub-diagonal);
/// the strictly upper triangle is NaN, which no solve may read.
fn lower_factor<S: Scalar>(n: usize, seed: u64) -> MatOf<S> {
    let mut next = uniform(seed);
    MatOf::from_fn(n, n, |i, j| {
        let r = next();
        S::from_f64(match i.cmp(&j) {
            std::cmp::Ordering::Equal => 2.0 + r.abs(),
            std::cmp::Ordering::Greater => 0.5 * r / (n as f64).sqrt(),
            std::cmp::Ordering::Less => f64::NAN,
        })
    })
}

/// Symmetric positive definite `GᵀG + (n + 1) I`, full storage.
fn spd<S: Scalar>(n: usize, seed: u64) -> MatOf<S> {
    let g = random::<S>(n, n, seed);
    let mut a = MatOf::<S>::zeros(n, n);
    syrk_t_scalar(S::ONE, g.as_ref(), S::ZERO, a.as_mut());
    for i in 0..n {
        a[(i, i)] += S::from_f64(n as f64 + 1.0);
    }
    a.symmetrize_from_lower();
    a
}

/// Largest difference over the lower triangle (the only part the symmetric
/// kernels own).
fn lower_diff<S: Scalar>(a: &MatOf<S>, b: &MatOf<S>) -> f64 {
    let mut d = 0.0f64;
    for j in 0..a.ncols() {
        for i in j..a.nrows() {
            d = d.max((a[(i, j)].to_f64() - b[(i, j)].to_f64()).abs());
        }
    }
    d
}

/// `‖A‖∞` of the lower triangle of `a`, or of all of it.
fn inf_norm<S: Scalar>(a: &MatOf<S>, lower: bool) -> f64 {
    (0..a.nrows())
        .map(|i| {
            let cols = if lower { i + 1 } else { a.ncols() };
            (0..cols).map(|j| a[(i, j)].to_f64().abs()).sum::<f64>()
        })
        .fold(0.0, f64::max)
}

/// Absolute tolerance for a reassociated dot product of length `k` with
/// entries bounded by 2: `k * 4 * eps * slack`.
fn tol<S: Scalar>(k: usize) -> f64 {
    (k.max(1) as f64) * 4.0 * S::EPSILON.to_f64() * 8.0
}

fn check_gemm<S: Scalar>(a: &MatOf<S>, b: &MatOf<S>, ta: Trans, tb: Trans, k: usize) {
    let (m, n) = (
        match ta {
            Trans::No => a.nrows(),
            Trans::Yes => a.ncols(),
        },
        match tb {
            Trans::No => b.ncols(),
            Trans::Yes => b.nrows(),
        },
    );
    let alpha = S::from_f64(1.5);
    let beta = S::from_f64(-0.5);
    let mut cb = MatOf::<S>::from_fn(m, n, |i, j| S::from_f64((i + 2 * j) as f64 * 0.25));
    let mut cs = cb.clone();
    gemm_blocked(alpha, a.as_ref(), ta, b.as_ref(), tb, beta, cb.as_mut());
    gemm_scalar(alpha, a.as_ref(), ta, b.as_ref(), tb, beta, cs.as_mut());
    let d = sc_dense::max_abs_diff(cb.as_ref(), cs.as_ref());
    assert!(
        d < tol::<S>(k),
        "{} gemm blocked vs scalar diff {d:.3e} (m={m} n={n} k={k} ta={ta:?} tb={tb:?})",
        S::NAME
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn blocked_gemm_matches_scalar_f64(
        m in 1usize..70, n in 1usize..40, k in 1usize..50, seed in 0u64..1_000_000,
    ) {
        for (ta, tb) in [(Trans::No, Trans::No), (Trans::Yes, Trans::No),
                         (Trans::No, Trans::Yes), (Trans::Yes, Trans::Yes)] {
            let (ar, ac) = match ta { Trans::No => (m, k), Trans::Yes => (k, m) };
            let (br, bc) = match tb { Trans::No => (k, n), Trans::Yes => (n, k) };
            let mut next = uniform(seed);
            let a = Mat::from_fn(ar, ac, |_, _| next());
            let b = Mat::from_fn(br, bc, |_, _| next());
            check_gemm(&a, &b, ta, tb, k);
        }
    }

    #[test]
    fn blocked_gemm_matches_scalar_f32(
        m in 1usize..60, n in 1usize..30, k in 1usize..40, seed in 0u64..1_000_000,
    ) {
        let mut next = uniform(seed);
        let a = Mat::from_fn(m, k, |_, _| next()).cast::<f32>();
        let b = Mat::from_fn(k, n, |_, _| next()).cast::<f32>();
        check_gemm(&a, &b, Trans::No, Trans::No, k);
    }

    #[test]
    fn packed_panels_round_trip(
        m in 1usize..50, k in 1usize..40, seed in 0u64..1_000_000,
    ) {
        let mut next = uniform(seed);
        let a = Mat::from_fn(m, k, |_, _| next());
        let pa = PackedA::pack(a.as_ref(), Trans::No, 0, m, 0, k);
        let pb = PackedB::pack(a.as_ref(), Trans::No, 0, m, 0, k);
        for i in 0..m {
            for p in 0..k {
                // packing is pure data movement: bitwise round trip
                prop_assert_eq!(pa.get(i, p), a[(i, p)]);
                prop_assert_eq!(pb.get(i, p), a[(i, p)]);
            }
        }
    }

}

/// `syrk_t_blocked` against the scalar kernel for one shape: values to
/// tolerance over a NaN-filled `C` when `beta == 0`, strictly upper triangle
/// bitwise untouched.
fn check_syrk<S: Scalar>(k: usize, n: usize, beta: f64, seed: u64) {
    let a = random::<S>(k, n, seed);
    // sc-analyze: allow(float-eq)
    let fill = if beta == 0.0 { f64::NAN } else { 0.75 };
    let c0 = MatOf::<S>::from_fn(n, n, |i, j| {
        S::from_f64(if i >= j { fill } else { (i * n + j) as f64 })
    });
    let (mut cb, mut cs) = (c0.clone(), c0.clone());
    let (alpha, beta) = (S::from_f64(0.75), S::from_f64(beta));
    syrk_t_blocked(alpha, a.as_ref(), beta, cb.as_mut());
    syrk_t_scalar(alpha, a.as_ref(), beta, cs.as_mut());
    let d = lower_diff(&cb, &cs);
    assert!(d < tol::<S>(k), "{} syrk diff {d:.3e} k={k} n={n}", S::NAME);
    for j in 0..n {
        for i in 0..j {
            let (got, want) = (cb[(i, j)].to_f64(), c0[(i, j)].to_f64());
            assert_eq!(got.to_bits(), want.to_bits(), "upper ({i},{j}) touched");
        }
    }
}

/// `trsm_lower_left_blocked` against the scalar kernel on a well-conditioned
/// factor whose upper triangle is poisoned.
fn check_trsm<S: Scalar>(n: usize, m: usize, seed: u64) {
    let l = lower_factor::<S>(n, seed);
    let b = random::<S>(n, m, seed + 1);
    let (mut xb, mut xs) = (b.clone(), b.clone());
    trsm_lower_left_blocked(l.as_ref(), xb.as_mut());
    trsm_lower_left_scalar(l.as_ref(), xs.as_mut());
    let d = sc_dense::max_abs_diff(xb.as_ref(), xs.as_ref());
    assert!(d < tol::<S>(n), "{} trsm diff {d:.3e} n={n} m={m}", S::NAME);
}

/// Backward error of the blocked solve on a graded factor
/// `L = D₁ (I + R) D₂` with both diagonals spanning `1e-6 … 1e6` (so `L`'s own
/// diagonal spans twelve decades and more):
/// `‖L X − B‖∞ ≤ 8 n ε ‖L‖∞ ‖X‖∞`.
fn check_trsm_backward_error<S: Scalar>(n: usize, m: usize, seed: u64) {
    let mut next = uniform(seed);
    let grade = |u: f64| 10f64.powf(6.0 * u);
    let (d1, d2): (Vec<f64>, Vec<f64>) = (0..n).map(|_| (grade(next()), grade(next()))).unzip();
    let l = MatOf::<S>::from_fn(n, n, |i, j| {
        let r = next();
        S::from_f64(match i.cmp(&j) {
            std::cmp::Ordering::Equal => d1[i] * d2[j] * (1.0 + r.abs()),
            std::cmp::Ordering::Greater => d1[i] * d2[j] * r / (n as f64).sqrt(),
            std::cmp::Ordering::Less => 0.0,
        })
    });
    let b = random::<S>(n, m, seed + 1);
    let mut x = b.clone();
    trsm_lower_left_blocked(l.as_ref(), x.as_mut());
    // residual in f64, whatever the working precision
    let (l64, x64, mut r) = (l.cast::<f64>(), x.cast::<f64>(), b.cast::<f64>());
    gemm_scalar(
        1.0,
        l64.as_ref(),
        Trans::No,
        x64.as_ref(),
        Trans::No,
        -1.0,
        r.as_mut(),
    );
    let bound = 8.0 * n as f64 * S::EPSILON.to_f64() * inf_norm(&l64, true) * inf_norm(&x64, false);
    let res = inf_norm(&r, false);
    assert!(
        res.is_finite() && res <= bound,
        "{} trsm backward error {res:.3e} > {bound:.3e} (n={n} m={m})",
        S::NAME
    );
}

/// `partial_cholesky_blocked` against the scalar kernel: factor columns and
/// trailing Schur complement to tolerance, upper triangle bitwise untouched.
fn check_cholesky<S: Scalar>(n: usize, p: usize, seed: u64) {
    let a = spd::<S>(n, seed);
    let (mut fb, mut fs) = (a.clone(), a.clone());
    partial_cholesky_blocked(fb.as_mut(), p).unwrap();
    partial_cholesky_scalar(fs.as_mut(), p).unwrap();
    let d = lower_diff(&fb, &fs);
    assert!(
        d < tol::<S>(n) * n as f64,
        "{} chol diff {d:.3e} n={n} p={p}",
        S::NAME
    );
    for j in 0..n {
        for i in 0..j {
            assert_eq!(fb[(i, j)], a[(i, j)], "upper ({i},{j}) touched");
        }
    }
}

/// A matrix that stops being positive definite exactly at pivot `bad` must
/// report that (global) index, whichever panel and tile it falls in.
fn check_cholesky_pivot<S: Scalar>(n: usize, bad: usize, seed: u64) {
    let mut a = spd::<S>(n, seed);
    for k in 0..n {
        a[(bad, k)] = S::ZERO;
        a[(k, bad)] = S::ZERO;
    }
    a[(bad, bad)] = -S::ONE;
    let err = partial_cholesky_blocked(a.as_mut(), n).unwrap_err();
    assert_eq!(err.pivot, bad, "{} n={n}", S::NAME);
    assert!(err.value < 0.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn blocked_syrk_matches_scalar_at_block_edges(
        k in edge(), n in edge(), overwrite in 0usize..2, seed in 0u64..1_000_000,
    ) {
        let beta = if overwrite == 1 { 0.0 } else { -1.25 };
        check_syrk::<f64>(k, n, beta, seed);
        check_syrk::<f32>(k, n, beta, seed);
    }

    #[test]
    fn blocked_trsm_matches_scalar_at_block_edges(
        n in edge(), m in edge(), seed in 0u64..1_000_000,
    ) {
        check_trsm::<f64>(n, m, seed);
        check_trsm::<f32>(n, m, seed);
    }

    #[test]
    fn blocked_trsm_is_backward_stable_on_graded_factors(
        n in edge(), m in edge(), seed in 0u64..1_000_000,
    ) {
        check_trsm_backward_error::<f64>(n, m, seed);
        check_trsm_backward_error::<f32>(n, m, seed);
    }

    #[test]
    fn blocked_partial_cholesky_matches_scalar_at_block_edges(
        n in edge(), pfrac in 1usize..=4, seed in 0u64..1_000_000,
    ) {
        let p = (n * pfrac / 4).max(1);
        check_cholesky::<f64>(n, p, seed);
        check_cholesky::<f32>(n, p, seed);
    }

    #[test]
    fn blocked_cholesky_reports_the_global_pivot(
        n in edge(), at in 0.0f64..1.0, seed in 0u64..1_000_000,
    ) {
        let bad = ((n as f64 * at) as usize).min(n - 1);
        check_cholesky_pivot::<f64>(n, bad, seed);
        check_cholesky_pivot::<f32>(n, bad, seed);
    }
}

/// Every edge size once on the triangular dimension, against a ragged other
/// dimension — the sweep the sampled properties above only cover in part.
#[test]
fn every_block_edge_once() {
    for (i, &n) in EDGES.iter().enumerate() {
        let seed = 77 + i as u64;
        check_syrk::<f64>(MR + 3, n, 0.0, seed);
        check_syrk::<f32>(KC + 5, n, 0.5, seed);
        check_trsm::<f64>(n, NR + 3, seed);
        check_trsm::<f32>(n, MC + 5, seed);
        check_trsm_backward_error::<f64>(n, MR + 1, seed);
        check_cholesky::<f64>(n, n, seed);
        check_cholesky::<f32>(n, n.div_ceil(2), seed);
        check_cholesky_pivot::<f64>(n, n - 1, seed);
    }
}

/// Deterministic sweep of degenerate and boundary shapes the strategies above
/// may miss: empty operands, single rows/columns, and exact tile multiples.
#[test]
fn blocked_gemm_degenerate_and_boundary_shapes() {
    for &(m, n, k) in &[
        (0usize, 0usize, 0usize),
        (0, 5, 3),
        (5, 0, 3),
        (5, 3, 0),
        (1, 1, 1),
        (16, 8, 1),
        (17, 9, 1),
        (16, 8, 256),
        (32, 16, 257),
        (15, 7, 31),
    ] {
        let a = Mat::from_fn(m, k, |i, j| ((i * 31 + j * 17) % 100) as f64 * 0.01 - 0.5);
        let b = Mat::from_fn(k, n, |i, j| ((i * 13 + j * 7) % 100) as f64 * 0.01 - 0.3);
        check_gemm(&a, &b, Trans::No, Trans::No, k);
    }
}
