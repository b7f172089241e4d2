//! Cache-correctness pins for the cross-session prepared-state cache.
//!
//! Three contracts:
//!
//! 1. **Warm ≡ cold, bitwise** — a solve served from a cached prepared
//!    bundle and its reused operators returns exactly the λ and
//!    per-subdomain u a cold run produces, for every backend × precision
//!    combination, and the precisions of one mesh share one bundle and the
//!    operators its first job assembled.
//!    Preprocessing is deterministic, so there is no tolerance here:
//!    `assert_eq!` on the raw `f64` vectors.
//! 2. **Eviction never corrupts** — under a byte budget so tight that
//!    bundles keep evicting each other, every job still produces the
//!    bitwise-reference answer (an evicted entry costs re-preparation,
//!    never correctness), and in-flight jobs survive eviction of their
//!    own entry mid-queue.
//! 3. **A resubmitted workload runs entirely from cache, and fairly** —
//!    the 4-tenant mixed workload, drained cold then resubmitted, hits on
//!    every warm job; cut short by a device-second budget, the warm drain
//!    splits device-seconds across equal-weight tenants within 1.5×.
//!
//! A served solve is also bitwise the library's solve of the same spec:
//! the service passes the job's precision through and configures
//! refinement nowhere itself.

use proptest::prelude::*;
use sc_core::{Backend, Precision, ScConfig};
use sc_fem::Gluing;
use sc_feti::{FetiSolverBuilder, FormulationChoice};
use sc_serve::{
    encode_request, prepare, BackendTag, JobKind, JobOutcome, JobRequest, MeshSpec, Request,
    ServeHandle, ServeOptions, TenantStats,
};

fn submit(
    dim: usize,
    cells: usize,
    tenant: &str,
    job: &str,
    precision: &str,
    backend: &str,
) -> String {
    let subs = if dim == 2 {
        "[2,2]".to_string()
    } else {
        "[2,2,1]".to_string()
    };
    format!(
        "{{\"op\":\"solve\",\"tenant\":\"{tenant}\",\"job\":\"{job}\",\"dim\":{dim},\
         \"cells\":{cells},\"subs\":{subs},\"precision\":\"{precision}\",\"backend\":\"{backend}\"}}"
    )
}

fn run_one(h: &mut ServeHandle, line: &str, tenant: &str, job: &str) -> JobOutcome {
    let r = h.request(line);
    assert!(
        r[0].contains("\"event\":\"accepted\""),
        "submission must be admitted: {}",
        r[0]
    );
    h.request("{\"op\":\"run\"}");
    h.take_outcome(tenant, job).expect("outcome retained")
}

fn assert_bitwise(a: &JobOutcome, b: &JobOutcome, label: &str) {
    assert_eq!(a.lambda, b.lambda, "{label}: λ must match bitwise");
    assert_eq!(a.u_locals, b.u_locals, "{label}: u must match bitwise");
    assert_eq!(
        a.iterations, b.iterations,
        "{label}: iteration counts must match"
    );
}

#[test]
fn warm_solve_is_bitwise_identical_to_cold_across_backends_and_precisions() {
    for backend in ["cluster", "cpu"] {
        // one service per backend: both precisions share the mesh's bundle
        // and its operators
        let mut svc = ServeHandle::new(ServeOptions::default());
        for (p, precision) in ["f64", "f32_refined"].into_iter().enumerate() {
            let label = format!("{backend}/{precision}");
            let cold = run_one(
                &mut svc,
                &submit(2, 4, "t1", &format!("cold-{precision}"), precision, backend),
                "t1",
                &format!("cold-{precision}"),
            );
            // the f64 job prepares the bundle and assembles; the
            // f32_refined job finds both
            assert_eq!(cold.cache_hit, p > 0, "{label}: one bundle per mesh");
            assert_eq!(
                cold.reused_operators,
                p > 0,
                "{label}: only the first job assembles"
            );
            let warm = run_one(
                &mut svc,
                &submit(2, 4, "t2", &format!("warm-{precision}"), precision, backend),
                "t2",
                &format!("warm-{precision}"),
            );
            assert!(warm.cache_hit, "{label}: second job must hit");
            assert!(
                warm.reused_operators,
                "{label}: second job reuses the operators"
            );
            assert_eq!(warm.prep_s, 0.0, "{label}: hits pay no preprocessing");
            assert_bitwise(&cold, &warm, &label);

            // a completely fresh service (fresh cache, fresh pool state)
            // must also agree — warm reuse changes nothing observable
            let mut fresh = ServeHandle::new(ServeOptions::default());
            let reference = run_one(
                &mut fresh,
                &submit(2, 4, "t3", "ref", precision, backend),
                "t3",
                "ref",
            );
            assert_bitwise(&reference, &warm, &format!("{label} vs fresh service"));
        }
        let stats = svc.cache_stats();
        assert_eq!((stats.hits, stats.misses), (3, 1), "{backend}: one bundle");
    }

    // an f64 job followed by an f32_refined job on one mesh: one miss, one
    // hit, one assembly, and the refined solve lands on the f64 job's u
    for (dim, cells) in [(2, 5), (3, 10)] {
        let mut svc = ServeHandle::new(ServeOptions::default());
        let f64 = run_one(
            &mut svc,
            &submit(dim, cells, "t", "a", "f64", "cluster"),
            "t",
            "a",
        );
        let f32 = run_one(
            &mut svc,
            &submit(dim, cells, "t", "b", "f32_refined", "cluster"),
            "t",
            "b",
        );
        let stats = svc.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert!(f32.cache_hit && f32.reused_operators);
        let concat = |o: &JobOutcome| o.u_locals.as_ref().expect("solve job").concat();
        let (want, got) = (concat(&f64), concat(&f32));
        let diff: f64 = want.iter().zip(&got).map(|(a, b)| (a - b).powi(2)).sum();
        let norm: f64 = want.iter().map(|a| a * a).sum();
        let rel = (diff / norm).sqrt();
        assert!(rel <= 1e-9, "{dim}D c{cells}: ‖u − u₆₄‖/‖u₆₄‖ = {rel:e}");
    }
}

#[test]
fn served_f32_refined_solve_is_bitwise_the_library_solve() {
    let mut svc = ServeHandle::new(ServeOptions::default());
    let served = run_one(
        &mut svc,
        &submit(2, 5, "t", "r", "f32_refined", "cpu"),
        "t",
        "r",
    );
    let prep = prepare(&MeshSpec {
        dim: 2,
        cells: 5,
        subs: (2, 2, 1),
        gluing: Gluing::Redundant,
    });
    let sol = FetiSolverBuilder::new()
        .backend(Backend::cpu())
        .precision(Precision::F32Refined)
        .formulation(FormulationChoice::Explicit)
        .assembly(ScConfig::Auto)
        .factors(prep.factors)
        .build(&prep.problem)
        .solve();
    assert!(sol.refinement.is_some(), "the library solve is refined");
    assert_eq!(served.lambda, Some(sol.lambda), "λ bitwise");
    assert_eq!(served.u_locals, Some(sol.u_locals), "u bitwise");
    assert_eq!(served.iterations, Some(sol.stats.iterations));
}

#[test]
fn tight_budget_evicts_without_corrupting_later_jobs() {
    // Reference answers from an uncapped service, one per spec.
    let specs = [(2usize, 3usize), (2, 4), (2, 5)];
    let mut refs = Vec::new();
    for (i, (dim, cells)) in specs.iter().enumerate() {
        let mut fresh = ServeHandle::new(ServeOptions::default());
        let id = format!("ref{i}");
        refs.push(run_one(
            &mut fresh,
            &submit(*dim, *cells, "r", &id, "f64", "cluster"),
            "r",
            &id,
        ));
    }

    // A 32 KB budget fits roughly one bundle: cycling three
    // distinct specs keeps evicting.
    let mut tight = ServeHandle::new(ServeOptions {
        cache_budget_bytes: 32 << 10,
        ..ServeOptions::default()
    });
    for round in 0..3 {
        for (i, (dim, cells)) in specs.iter().enumerate() {
            let id = format!("job-{round}-{i}");
            let got = run_one(
                &mut tight,
                &submit(*dim, *cells, "t", &id, "f64", "cluster"),
                "t",
                &id,
            );
            assert_bitwise(&refs[i], &got, &format!("spec {i} round {round}"));
        }
    }
    let stats = tight.cache_stats();
    assert!(
        stats.evictions > 0,
        "the budget must actually have forced evictions (bytes={}, budget={})",
        stats.bytes,
        stats.budget_bytes
    );
    assert!(
        stats.bytes <= stats.budget_bytes,
        "resident bytes must respect the budget"
    );
}

#[test]
fn queued_job_survives_eviction_of_its_entry_between_submit_and_run() {
    // Submit A and B (same tight budget); running B's prepare evicts A's
    // bundle while A's second job is still queued — the dispatch-time
    // lookup must transparently re-prepare.
    let mut tight = ServeHandle::new(ServeOptions {
        cache_budget_bytes: 32 << 10,
        ..ServeOptions::default()
    });
    let a1 = run_one(
        &mut tight,
        &submit(2, 4, "t", "a1", "f64", "cluster"),
        "t",
        "a1",
    );
    // queue a2 (same spec as a1) and b (different spec, evicts a's bundle)
    tight.request(&submit(2, 5, "t", "b", "f64", "cluster"));
    tight.request(&submit(2, 4, "t", "a2", "f64", "cluster"));
    tight.request("{\"op\":\"run\"}");
    let a2 = tight.take_outcome("t", "a2").expect("a2 ran");
    let b = tight.take_outcome("t", "b").expect("b ran");
    assert!(b.iterations.expect("b solved") > 0);
    assert_bitwise(&a1, &a2, "same spec across eviction");
}

/// One tenant of the mixed workload: a uniform job spec, repeated.
struct TenantLoad {
    name: &'static str,
    kind: JobKind,
    dim: u8,
    cells: usize,
    subs: (usize, usize, usize),
    jobs: usize,
}

/// The 4-tenant mix — small-2D-heavy, coarse-3D, assembly-only, mid-size
/// 2D: four distinct content keys, four distinct job granularities, equal
/// scheduler weights.
const TENANTS: &[TenantLoad] = &[
    TenantLoad {
        name: "alpha",
        kind: JobKind::Solve,
        dim: 2,
        cells: 8,
        subs: (2, 2, 1),
        jobs: 24,
    },
    TenantLoad {
        name: "bravo",
        kind: JobKind::Solve,
        dim: 3,
        cells: 6,
        subs: (2, 2, 2),
        jobs: 10,
    },
    TenantLoad {
        name: "charlie",
        kind: JobKind::Assemble,
        dim: 2,
        cells: 16,
        subs: (2, 2, 1),
        jobs: 24,
    },
    TenantLoad {
        name: "delta",
        kind: JobKind::Solve,
        dim: 2,
        cells: 12,
        subs: (3, 3, 1),
        jobs: 10,
    },
];

/// Submit one phase's full mixed workload through the wire protocol,
/// asserting every job is admitted.
fn submit_mix(svc: &mut ServeHandle, phase: &str) {
    for t in TENANTS {
        for i in 0..t.jobs {
            let line = encode_request(&Request::Submit(JobRequest {
                kind: t.kind,
                tenant: t.name.to_string(),
                job: format!("{phase}-{i}"),
                spec: MeshSpec {
                    dim: t.dim,
                    cells: t.cells,
                    subs: t.subs,
                    gluing: Gluing::Redundant,
                },
                precision: Precision::F64,
                backend: BackendTag::Cluster,
                scale: 1.0,
                weight: None, // equal weights: the fairness bound's precondition
                timeout_s: None,
            }));
            let reply = svc.request(&line);
            assert!(
                reply[0].contains("\"event\":\"accepted\""),
                "submission must be admitted: {}",
                reply[0]
            );
        }
    }
}

/// Per-tenant roll-up snapshot, in `TENANTS` order.
fn snapshot(svc: &ServeHandle) -> Vec<TenantStats> {
    let stats = svc.tenant_stats();
    TENANTS
        .iter()
        .map(|t| {
            let (_, s) = stats
                .iter()
                .find(|(name, _)| name == t.name)
                .expect("every tenant has run jobs");
            s.clone()
        })
        .collect()
}

#[test]
fn resubmitted_mix_runs_from_cache_and_shares_a_contended_drain_fairly() {
    let run = |svc: &mut ServeHandle, budget_s: Option<f64>| {
        svc.request(&encode_request(&Request::Run { budget_s }));
    };
    let n_jobs: usize = TENANTS.iter().map(|t| t.jobs).sum();
    let mut svc = ServeHandle::new(ServeOptions::default());

    // cold drain: empty cache, no budget
    submit_mix(&mut svc, "cold");
    run(&mut svc, None);
    let cold = snapshot(&svc);
    let cold_cache = svc.cache_stats();
    assert_eq!(
        cold.iter().map(|t| t.jobs_done).sum::<usize>(),
        n_jobs,
        "cold phase must drain the whole workload"
    );

    // warm, contended: half the cold drain's device-seconds, low enough that
    // every tenant is still backlogged at the cutoff — the shares measure
    // the scheduler, not queue exhaustion
    let budget = 0.5 * cold.iter().map(|t| t.device_s).sum::<f64>();
    submit_mix(&mut svc, "warm");
    run(&mut svc, Some(budget));
    let shares: Vec<f64> = snapshot(&svc)
        .iter()
        .zip(&cold)
        .map(|(now, before)| now.device_s - before.device_s)
        .collect();
    let share_max = shares.iter().copied().fold(f64::MIN, f64::max);
    let share_min = shares.iter().copied().fold(f64::MAX, f64::min);
    assert!(
        share_max <= 1.5 * share_min,
        "contended per-tenant device-seconds {shares:?} spread beyond 1.5x at equal weights"
    );

    // drain the warm remainder
    run(&mut svc, None);
    assert_eq!(
        snapshot(&svc).iter().map(|t| t.jobs_done).sum::<usize>(),
        2 * n_jobs,
        "warm phase must drain the whole workload"
    );
    let warm_cache = svc.cache_stats();
    assert_eq!(
        (
            warm_cache.hits - cold_cache.hits,
            warm_cache.misses - cold_cache.misses
        ),
        (n_jobs, 0),
        "the warm phase must run entirely from cache (hits, misses)"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Randomized spec sweep of the warm ≡ cold pin (cheap shapes only;
    /// the exhaustive backend × precision matrix is covered above).
    #[test]
    fn warm_equals_cold_on_random_specs(cells in 3usize..6, prec_pick in 0usize..2) {
        let precision = ["f64", "f32_refined"][prec_pick];
        let mut svc = ServeHandle::new(ServeOptions::default());
        let cold = run_one(
            &mut svc,
            &submit(2, cells, "p", "cold", precision, "cluster"),
            "p",
            "cold",
        );
        let warm = run_one(
            &mut svc,
            &submit(2, cells, "p", "warm", precision, "cluster"),
            "p",
            "warm",
        );
        prop_assert!(warm.cache_hit);
        prop_assert_eq!(cold.lambda, warm.lambda);
        prop_assert_eq!(cold.u_locals, warm.u_locals);
    }
}
