//! Differential tests of the supernodal triangular sweeps against the plain
//! CSC column sweeps: edge patterns (1 × 1, diagonal, dense, arrowhead, star,
//! chain), random lower-triangular patterns, factor-like filled patterns
//! with wide nested runs, a pattern that passes the count/parent rule
//! without being nested, and runs restricted to an elimination-tree
//! closure — at `f64` (forward bitwise, backward to 1e-12) and `f32` (1e-4).

use sc_dense::Scalar;
use sc_sparse::{
    csc_lower_solve, csc_lower_t_solve, fundamental_supernodes, supernodal_lower_solve,
    supernodal_lower_t_solve, Coo, Csc, SupernodeRuns,
};

/// Deterministic stream of pseudo-random `u64`s.
fn lcg(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    }
}

/// Lower-triangular matrix with the given below-diagonal pattern, a
/// dominant diagonal and off-diagonal values in `(-1, 1)`.
fn lower_with_pattern(n: usize, below: &[(usize, usize)], seed: u64) -> Csc {
    let mut next = lcg(seed);
    let mut c = Coo::new(n, n);
    for j in 0..n {
        c.push(j, j, 2.0 + (next() % 7) as f64 * 0.25);
    }
    for &(i, j) in below {
        assert!(i > j && i < n);
        c.push(i, j, (next() % 1000) as f64 / 500.0 - 1.0 + 1e-3);
    }
    c.to_csc()
}

/// Random lower-triangular pattern: each below-diagonal entry present
/// with probability `percent` %.
fn random_lower(n: usize, percent: u64, seed: u64) -> Csc {
    let mut next = lcg(seed ^ 0x9e37);
    let mut below = Vec::new();
    for j in 0..n {
        for i in j + 1..n {
            if next() % 100 < percent {
                below.push((i, j));
            }
        }
    }
    lower_with_pattern(n, &below, seed)
}

/// The pattern a Cholesky factorization of a random sparse matrix fills
/// in (every column's below-diagonal rows merged into its parent's), so
/// it has wide nested runs with tails.
fn cholesky_like(n: usize, percent: u64, seed: u64) -> Csc {
    let a = random_lower(n, percent, seed);
    let mut cols: Vec<Vec<usize>> = (0..n).map(|j| a.col(j).0[1..].to_vec()).collect();
    for j in 0..n {
        cols[j].sort_unstable();
        cols[j].dedup();
        if let Some(&parent) = cols[j].first() {
            let pass: Vec<usize> = cols[j][1..].to_vec();
            cols[parent].extend(pass);
        }
    }
    let below: Vec<(usize, usize)> = (0..n)
        .flat_map(|j| cols[j].iter().map(move |&i| (i, j)))
        .collect();
    lower_with_pattern(n, &below, seed)
}

fn rhs<S: Scalar>(n: usize, seed: u64) -> Vec<S> {
    let mut next = lcg(seed ^ 0xb5);
    (0..n)
        .map(|_| S::from_f64((next() % 64) as f64 * 0.125 - 4.0))
        .collect()
}

fn max_rel_diff<S: Scalar>(got: &[S], want: &[f64]) -> f64 {
    let scale = want.iter().fold(f64::MIN_POSITIVE, |a, &b| a.max(b.abs()));
    let diff = got.iter().zip(want).map(|(g, w)| (g.to_f64() - w).abs());
    diff.fold(0.0, f64::max) / scale
}

/// Supernodal against column sweeps on `l` over `runs`: forward bitwise
/// and backward to `1e-12` at `f64`, both to `1e-4` at `f32`.
fn check_against_column_sweeps(l: &Csc, runs: &SupernodeRuns) {
    let n = l.ncols();
    let mut w = vec![f64::NAN; 3];
    let mut want = rhs::<f64>(n, 7);
    let mut got = want.clone();
    csc_lower_solve(l, &mut want);
    supernodal_lower_solve(l, runs, &mut got, &mut w);
    assert_eq!(got, want, "forward sweep is not bitwise the column sweep");
    csc_lower_t_solve(l, &mut want);
    supernodal_lower_t_solve(l, runs, &mut got, &mut w);
    let d = max_rel_diff(&got, &want);
    assert!(d <= 1e-12, "backward sweep off by {d:e}");

    let l32 = l.cast::<f32>();
    let (mut x32, mut w32) = (rhs::<f32>(n, 7), Vec::new());
    let mut want = rhs::<f64>(n, 7);
    csc_lower_solve(l, &mut want);
    supernodal_lower_solve(&l32, runs, &mut x32, &mut w32);
    let d = max_rel_diff(&x32, &want);
    assert!(d <= 1e-4, "f32 forward sweep off by {d:e}");
    x32 = want.iter().map(|&v| f32::from_f64(v)).collect();
    csc_lower_t_solve(l, &mut want);
    supernodal_lower_t_solve(&l32, runs, &mut x32, &mut w32);
    let d = max_rel_diff(&x32, &want);
    assert!(d <= 1e-4, "f32 backward sweep off by {d:e}");
}

/// Widths of the fundamental supernodes of `l` by the count/parent rule.
fn widths(l: &Csc) -> Vec<usize> {
    fundamental_supernodes(l.col_ptr(), l.row_idx())
        .map(|run| run.len())
        .collect()
}

#[test]
fn supernodal_sweeps_match_column_sweeps_on_edge_patterns() {
    let dense = |n: usize| -> Vec<(usize, usize)> {
        (0..n)
            .flat_map(|j| (j + 1..n).map(move |i| (i, j)))
            .collect()
    };
    let arrowhead: Vec<_> = (0..11).map(|j| (11, j)).collect();
    let star: Vec<_> = (1..12).map(|i| (i, 0)).collect();
    let chain: Vec<_> = (0..11).map(|j| (j + 1, j)).collect();
    // (n, below-diagonal pattern, run widths)
    let cases = [
        (1, vec![], vec![1]),
        (9, vec![], vec![1; 9]),
        (13, dense(13), vec![13]),
        (12, arrowhead, [vec![1; 10], vec![2]].concat()),
        (12, star, vec![1; 12]),
        (12, chain, [vec![1; 10], vec![2]].concat()),
    ];
    for (n, below, want_widths) in cases {
        let l = lower_with_pattern(n, &below, n as u64);
        let runs = SupernodeRuns::verified(&l).unwrap();
        assert_eq!(widths(&l), want_widths, "n = {n}");
        assert_eq!(
            runs,
            SupernodeRuns::of_factor_pattern(l.col_ptr(), l.row_idx())
        );
        assert_eq!(runs.n(), n);
        assert!(runs.visited().flatten().eq(0..n), "every column visited");
        check_against_column_sweeps(&l, &runs);
    }
}

#[test]
fn supernodal_sweeps_match_column_sweeps_on_random_patterns() {
    let mut blocked = 0;
    for seed in 0..40u64 {
        let n = 5 + (seed as usize * 7) % 60;
        // arbitrary lower-triangular: only the verifying constructor
        let l = random_lower(n, 5 + seed % 60, seed);
        check_against_column_sweeps(&l, &SupernodeRuns::verified(&l).unwrap());
        // factor-like: the O(n) rule finds the same, nested, runs
        let l = cholesky_like(n, 2 + seed % 12, seed);
        let runs = SupernodeRuns::of_factor_pattern(l.col_ptr(), l.row_idx());
        assert_eq!(runs, SupernodeRuns::verified(&l).unwrap());
        // at least four columns: wide enough for the blocked route
        blocked += widths(&l).iter().filter(|&&p| p >= 4).count();
        check_against_column_sweeps(&l, &runs);
    }
    assert!(
        blocked > 20,
        "the blocked route was hardly taken: {blocked}"
    );
}

/// Columns 0..4 pass the count/parent rule (each holds one entry fewer
/// than the one before, whose first below-diagonal row it is) but no two
/// of them are nested.
fn rule_passing_not_nested() -> Csc {
    let col0 = [(1, 0), (5, 0), (6, 0), (7, 0)];
    let rest = [(2, 1), (6, 1), (8, 1), (3, 2), (9, 2), (4, 3)];
    lower_with_pattern(10, &[&col0[..], &rest[..]].concat(), 3)
}

#[test]
fn verified_partition_splits_runs_that_are_not_nested() {
    let l = rule_passing_not_nested();
    // the rule alone would send columns 0..5 down the blocked route
    let runs = SupernodeRuns::verified(&l).unwrap();
    check_against_column_sweeps(&l, &runs);
}

#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "not nested")]
fn factor_rule_on_a_non_factor_pattern_is_caught_in_debug() {
    let l = rule_passing_not_nested();
    SupernodeRuns::of_factor_pattern(l.col_ptr(), l.row_idx());
}

#[test]
fn partition_constructors_reject_what_the_sweeps_cannot_divide_by() {
    // no diagonal in column 1
    let mut c = Coo::new(3, 3);
    for (i, j) in [(0, 0), (2, 1), (2, 2)] {
        c.push(i, j, 1.0);
    }
    let l = c.to_csc();
    let err = SupernodeRuns::verified(&l).unwrap_err();
    assert!(err.contains("column 1"), "{err}");
    let caught =
        std::panic::catch_unwind(|| SupernodeRuns::of_factor_pattern(l.col_ptr(), l.row_idx()));
    assert!(caught.is_err(), "a release build checks the diagonal too");
    // an entry above the diagonal comes first in its column
    let mut c = Coo::new(2, 2);
    for (i, j) in [(0, 0), (0, 1), (1, 1)] {
        c.push(i, j, 1.0);
    }
    assert!(SupernodeRuns::verified(&c.to_csc()).is_err());
    // an empty trailing column, a non-square matrix
    let mut c = Coo::new(2, 2);
    c.push(0, 0, 1.0);
    assert!(SupernodeRuns::verified(&c.to_csc()).is_err());
    let mut c = Coo::new(3, 2);
    c.push(0, 0, 1.0);
    c.push(1, 1, 1.0);
    assert!(SupernodeRuns::verified(&c.to_csc()).is_err());
}

#[test]
fn restricted_sweeps_are_exact_on_the_closure() {
    for seed in 0..20u64 {
        let n = 30 + (seed as usize * 11) % 50;
        let l = cholesky_like(n, 2 + seed % 8, seed);
        let full = SupernodeRuns::of_factor_pattern(l.col_ptr(), l.row_idx());
        let mut next = lcg(seed ^ 0x51);
        let seeds: Vec<usize> = (0..1 + seed as usize % 4)
            .map(|_| (next() % n as u64) as usize)
            .collect();
        let pruned = full.restricted_to(&l, &seeds);
        let closure: Vec<usize> = pruned.visited().flatten().collect();
        assert!(seeds.iter().all(|s| closure.contains(s)));
        // upward closed: every row of a visited column is visited
        for &j in &closure {
            assert!(l.col(j).0.iter().all(|i| closure.contains(i)));
        }

        let mut b = vec![0.0; n];
        for (k, &s) in seeds.iter().enumerate() {
            b[s] += 1.0 + k as f64;
        }
        let (mut whole, mut part, mut w) = (b.clone(), b, Vec::new());
        supernodal_lower_solve(&l, &full, &mut whole, &mut w);
        supernodal_lower_solve(&l, &pruned, &mut part, &mut w);
        assert_eq!(part, whole, "forward, seed {seed}");
        supernodal_lower_t_solve(&l, &full, &mut whole, &mut w);
        supernodal_lower_t_solve(&l, &pruned, &mut part, &mut w);
        for &j in &closure {
            assert_eq!(part[j], whole[j], "backward row {j}, seed {seed}");
        }
    }
}
