//! The four workloads: what they run, why, and how their inputs are
//! generated from `--seed`.
//!
//! The library only ever sees generated inputs. Meshes are fixed per
//! workload (the sizes are the point); the seed drives the per-dof load
//! perturbations of the solver workloads and the order, tenants and load
//! scales of the service workload's job stream.

use crate::rng::Rng;
use sc_core::{estimate_cost, Backend, HybridPlanOptions, ScConfig};
use sc_factor::{CholOptions, SparseCholesky};
use sc_fem::{Gluing, HeatProblem};
use sc_feti::{FetiOptions, FetiSolverBuilder, FormulationChoice, SubdomainFactors};
use sc_gpu::{Device, DevicePool, DeviceSpec};

/// Load cases solved per rep of a solver workload, after the unperturbed
/// solve.
pub const LOAD_CASES: usize = 8;
/// Amplitude of the seeded per-dof load perturbation `f·(1 + A·u)`.
pub const LOAD_PERTURBATION: f64 = 0.25;
/// Streams of the single modelled device of `expl3d_gpu`.
pub const GPU_STREAMS: usize = 4;
/// Shape of the modelled pool of `hybrid2d_cluster`.
pub const CLUSTER_DEVICES: usize = 2;
pub const CLUSTER_STREAMS: usize = 4;
/// Expected PCPG iterations handed to the hybrid planner.
pub const HYBRID_EXPECTED_ITERS: f64 = 100.0;
/// Relative error against the undecomposed direct solve above which a solve
/// counts as failed.
pub const REL_ERROR_LIMIT: f64 = 1e-6;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Expl3dGpu,
    Impl3dCpu,
    Hybrid2dCluster,
    ServeMix,
}

/// Name and one-line reason, in `BENCHMARK.json` order.
pub const WORKLOADS: &[(Workload, &str, &str)] = &[
    (
        Workload::Expl3dGpu,
        "expl3d_gpu",
        "Paper's headline regime: 3D explicit operator, dense-storage TRSM/SYRK on the modelled A100; set-up is sc_core+sc_dense assembly plus sc_factor, PCPG is cheap GEMVs.",
    ),
    (
        Workload::Impl3dCpu,
        "impl3d_cpu",
        "Same mesh, implicit operator on the host: set-up is only order+factor, each solve is sc_factor trisolves and sc_sparse gathers; bypasses every assembly and dense-kernel change.",
    ),
    (
        Workload::Hybrid2dCluster,
        "hybrid2d_cluster",
        "2D sparse-storage TRSM, small interfaces, 2-device pool with a tight arena: the planner splits explicit-GPU from spilled-implicit, so plan, cost-model and arena changes show only here.",
    ),
    (
        Workload::ServeMix,
        "serve_mix",
        "Service path: protocol parse, admission, DRR over 3 tenants, content-addressed cache with a budget below the working set (evictions), f64 and f32_refined jobs on six meshes, closed loop.",
    ),
];

impl Workload {
    pub fn from_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().find(|w| w.1 == name).map(|w| w.0)
    }

    pub fn name(self) -> &'static str {
        WORKLOADS
            .iter()
            .find(|w| w.0 == self)
            .map(|w| w.1)
            .expect("every workload is listed")
    }
}

/// A decomposed heat-transfer mesh: dimension, cells per subdomain edge,
/// subdomain grid (`z = 1` in 2D).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mesh {
    pub dim: usize,
    pub cells: usize,
    pub subs: (usize, usize, usize),
}

impl Mesh {
    const fn d2(cells: usize, s: usize) -> Mesh {
        Mesh {
            dim: 2,
            cells,
            subs: (s, s, 1),
        }
    }

    const fn d3(cells: usize, subs: (usize, usize, usize)) -> Mesh {
        Mesh {
            dim: 3,
            cells,
            subs,
        }
    }

    pub fn build(&self) -> HeatProblem {
        if self.dim == 2 {
            HeatProblem::build_2d(self.cells, (self.subs.0, self.subs.1), Gluing::Redundant)
        } else {
            HeatProblem::build_3d(self.cells, self.subs, Gluing::Redundant)
        }
    }

    pub fn is_3d(&self) -> bool {
        self.dim == 3
    }
}

/// Mesh of a solver workload at full or `--smoke` size.
pub fn solver_mesh(w: Workload, smoke: bool) -> Mesh {
    match (w, smoke) {
        (Workload::Expl3dGpu | Workload::Impl3dCpu, false) => Mesh::d3(12, (2, 2, 2)),
        (Workload::Expl3dGpu | Workload::Impl3dCpu, true) => Mesh::d3(5, (2, 2, 2)),
        (Workload::Hybrid2dCluster, false) => Mesh::d2(64, 4),
        (Workload::Hybrid2dCluster, true) => Mesh::d2(16, 4),
        (Workload::ServeMix, _) => panic!("serve_mix has a mesh family, not one mesh"),
    }
}

/// The undecomposed problem, factorized once: the independent reference
/// every FETI solution is checked against.
pub struct Reference {
    chol: SparseCholesky,
    n_free: usize,
}

impl Reference {
    pub fn of(problem: &HeatProblem) -> (Reference, Vec<f64>) {
        let (k, f) = problem.assemble_global();
        let chol = SparseCholesky::factorize(&k, CholOptions::default())
            .expect("the undecomposed heat problem is SPD");
        let u = chol.solve(&f);
        (
            Reference {
                chol,
                n_free: problem.n_free,
            },
            u,
        )
    }

    /// Direct solution for per-subdomain loads (the global load is their
    /// scatter-add through `l2g`).
    pub fn solve_locals(&self, problem: &HeatProblem, loads: &[Vec<f64>]) -> Vec<f64> {
        let mut f = vec![0.0; self.n_free];
        for (sd, fl) in problem.subdomains.iter().zip(loads) {
            for (ld, &g) in sd.l2g.iter().enumerate() {
                f[g] += fl[ld];
            }
        }
        self.chol.solve(&f)
    }
}

/// `‖gather(u_locals) − u_ref‖₂ / ‖u_ref‖₂`.
pub fn rel_error(problem: &HeatProblem, u_locals: &[Vec<f64>], u_ref: &[f64]) -> f64 {
    let u = problem.gather_global(u_locals);
    let (mut num, mut den) = (0.0, 0.0);
    for (a, b) in u.iter().zip(u_ref) {
        num += (a - b) * (a - b);
        den += b * b;
    }
    (num / den).sqrt()
}

/// Error of a FETI solution against the direct one, and whether the solve
/// passes: converged and within [`REL_ERROR_LIMIT`] (a NaN error fails).
pub fn check_solution(
    problem: &HeatProblem,
    sol: &sc_feti::FetiSolution,
    u_ref: &[f64],
) -> (f64, bool) {
    let err = rel_error(problem, &sol.u_locals, u_ref);
    (err, sol.stats.converged && err <= REL_ERROR_LIMIT)
}

/// Generated inputs of one solver workload.
pub struct SolverCase {
    pub workload: Workload,
    pub mesh: Mesh,
    pub problem: HeatProblem,
    /// `LOAD_CASES` perturbed load sets, one vector per subdomain each.
    pub loads: Vec<Vec<Vec<f64>>>,
    /// Direct solutions: index 0 for the problem's own loads, `1 + k` for
    /// load case `k`.
    pub references: Vec<Vec<f64>>,
    /// Per-device temporary-arena bytes of `hybrid2d_cluster`: the midpoint
    /// between the largest per-subdomain footprint and the next smaller
    /// distinct one, so the largest class spills and everything else fits.
    pub arena_bytes: Option<usize>,
    /// Wall seconds spent building the decomposed problem (the `sc_fem`
    /// layer).
    pub fem_build_s: f64,
}

impl SolverCase {
    pub fn generate(workload: Workload, seed: u64, smoke: bool) -> SolverCase {
        let mesh = solver_mesh(workload, smoke);
        let t0 = std::time::Instant::now();
        let problem = mesh.build();
        let fem_build_s = t0.elapsed().as_secs_f64();
        let mut rng = Rng::new(seed, 0x10AD);
        let loads: Vec<Vec<Vec<f64>>> = (0..LOAD_CASES)
            .map(|_| {
                problem
                    .subdomains
                    .iter()
                    .map(|sd| {
                        sd.f.iter()
                            .map(|f| f * (1.0 + LOAD_PERTURBATION * rng.symmetric()))
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let (reference, u0) = Reference::of(&problem);
        let mut references = vec![u0];
        references.extend(loads.iter().map(|l| reference.solve_locals(&problem, l)));
        let arena_bytes = (workload == Workload::Hybrid2dCluster)
            .then(|| spill_largest_class_arena(&problem, &self_cfg(workload, &mesh)));
        SolverCase {
            workload,
            mesh,
            problem,
            loads,
            references,
            arena_bytes,
            fem_build_s,
        }
    }

    /// Assembly configuration of the workload's explicit shares.
    pub fn cfg(&self) -> ScConfig {
        self_cfg(self.workload, &self.mesh)
    }

    pub fn feti_options(&self) -> FetiOptions {
        FetiOptions::default()
    }

    /// The modelled device of `hybrid2d_cluster`: an A100 whose memory is
    /// cut down so the arena (half of device memory) is `arena_bytes`.
    pub fn cluster_spec(&self) -> DeviceSpec {
        let mut spec = DeviceSpec::a100();
        spec.memory_bytes = 2 * self.arena_bytes.expect("hybrid2d_cluster has an arena");
        spec
    }

    /// The workload's backend on fresh simulated devices, so no stream
    /// clock or arena state leaks from one build into the next.
    pub fn backend(&self) -> Backend {
        match self.workload {
            Workload::Expl3dGpu => Backend::gpu(Device::new(DeviceSpec::a100(), GPU_STREAMS)),
            Workload::Impl3dCpu => Backend::cpu(),
            Workload::Hybrid2dCluster => Backend::cluster(DevicePool::uniform(
                self.cluster_spec(),
                CLUSTER_DEVICES,
                CLUSTER_STREAMS,
            )),
            Workload::ServeMix => unreachable!("serve_mix builds no solver itself"),
        }
    }

    pub fn formulation(&self) -> FormulationChoice {
        match self.workload {
            Workload::Expl3dGpu => FormulationChoice::Explicit,
            Workload::Impl3dCpu => FormulationChoice::Implicit,
            Workload::Hybrid2dCluster => FormulationChoice::Auto(
                HybridPlanOptions::default().with_iters(HYBRID_EXPECTED_ITERS),
            ),
            Workload::ServeMix => unreachable!("serve_mix builds no solver itself"),
        }
    }

    /// The fully configured builder one rep calls `build` on.
    pub fn builder(&self) -> FetiSolverBuilder {
        FetiSolverBuilder::new()
            .options(self.feti_options())
            .backend(self.backend())
            .formulation(self.formulation())
            .assembly(self.cfg())
    }
}

fn self_cfg(workload: Workload, mesh: &Mesh) -> ScConfig {
    let gpu = workload != Workload::Impl3dCpu;
    ScConfig::optimized(gpu, mesh.is_3d())
}

fn spill_largest_class_arena(problem: &HeatProblem, cfg: &ScConfig) -> usize {
    let opts = FetiOptions::default();
    let spec = DeviceSpec::a100();
    let mut footprints: Vec<usize> = problem
        .subdomains
        .iter()
        .enumerate()
        .map(|(i, sd)| {
            let f = SubdomainFactors::build(sd, opts.engine, opts.ordering);
            let l = f.chol.factor_csc();
            let params = cfg.resolve(true, &l, &f.bt_perm);
            estimate_cost(&spec, &l, &f.bt_perm, &params, i).temp_bytes
        })
        .collect();
    footprints.sort_unstable();
    footprints.dedup();
    match footprints.as_slice() {
        [.., below, largest] => (below + largest) / 2,
        // one size class: nothing to spill, everything fits
        [only] => *only,
        [] => panic!("a problem has at least one subdomain"),
    }
}

// ---------------------------------------------------------------------------
// serve_mix
// ---------------------------------------------------------------------------

/// Jobs of one steady round; the mesh/precision multiset of a round is fixed
/// (exact Zipf(1) quotas; 6 of the 24 jobs at `f32_refined`, all on 2D
/// meshes, because `f32_refined` service jobs on the 3D meshes stop at a
/// residual near 1e-2 today and a workload may hold no failing operation),
/// the seed sets order, tenant and load scale.
pub const JOBS_PER_ROUND: usize = 24;
/// `solve` lines written before each `run`.
pub const BURST: usize = 4;
/// Tenants and their fair-share weights.
pub const TENANTS: [(&str, f64); 3] = [("t1", 1.0), ("t2", 1.0), ("t3", 2.0)];
pub const LOAD_SCALES: [f64; 2] = [1.0, 1.5];

/// The six meshes of the service workload, most to least frequent; even
/// indices are 2D, odd ones 3D. Sizes are chosen so one warm job costs
/// about the same on every mesh (40–100 ms here): job latency is then one
/// population whose median and p90 mean something, instead of six.
pub fn serve_meshes(smoke: bool) -> [Mesh; 6] {
    if smoke {
        [
            Mesh::d2(8, 3),
            Mesh::d3(3, (2, 2, 2)),
            Mesh::d2(12, 2),
            Mesh::d3(4, (2, 2, 1)),
            Mesh::d2(10, 3),
            Mesh::d3(3, (2, 2, 1)),
        ]
    } else {
        [
            Mesh::d2(40, 3),
            Mesh::d3(8, (2, 2, 2)),
            Mesh::d2(64, 2),
            Mesh::d3(10, (2, 2, 1)),
            Mesh::d2(48, 3),
            Mesh::d3(7, (2, 2, 2)),
        ]
    }
}

/// Byte budget of the service's prepared-state cache: below the six f64
/// bundles' total, so the steady phase evicts.
pub fn serve_cache_budget(smoke: bool) -> usize {
    if smoke {
        1 << 20
    } else {
        28 << 20
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct Job {
    pub tenant: usize,
    pub id: String,
    pub mesh: usize,
    pub f32_refined: bool,
    pub scale: f64,
}

/// Largest-remainder apportionment of `total` jobs over Zipf(1) weights
/// `1, 1/2, …, 1/n`.
fn zipf_quotas(n: usize, total: usize) -> Vec<usize> {
    let weights: Vec<f64> = (1..=n).map(|r| 1.0 / r as f64).collect();
    let sum: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / sum * total as f64).collect();
    let mut quotas: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..n).collect();
    by_remainder.sort_by(|&a, &b| {
        (exact[b] - exact[b].floor())
            .total_cmp(&(exact[a] - exact[a].floor()))
            .then(a.cmp(&b))
    });
    let short = total - quotas.iter().sum::<usize>();
    for &i in by_remainder.iter().take(short) {
        quotas[i] += 1;
    }
    quotas
}

/// One steady round of the job stream.
pub fn steady_round(rng: &mut Rng, n_meshes: usize) -> Vec<Job> {
    let total_weight: f64 = TENANTS.iter().map(|t| t.1).sum();
    let mut jobs: Vec<(usize, bool)> = zipf_quotas(n_meshes, JOBS_PER_ROUND)
        .into_iter()
        .enumerate()
        .flat_map(|(mesh, quota)| {
            (0..quota).map(move |k| (mesh, mesh % 2 == 0 && matches!(k % 5, 1 | 3)))
        })
        .collect();
    rng.shuffle(&mut jobs);
    jobs.into_iter()
        .enumerate()
        .map(|(k, (mesh, f32_refined))| {
            let mut pick = rng.unit() * total_weight;
            let tenant = TENANTS
                .iter()
                .position(|t| {
                    pick -= t.1;
                    pick < 0.0
                })
                .unwrap_or(TENANTS.len() - 1);
            Job {
                tenant,
                id: format!("j{k}"),
                mesh,
                f32_refined,
                scale: LOAD_SCALES[rng.below(LOAD_SCALES.len())],
            }
        })
        .collect()
}

/// The cold pass: one f64 solve per mesh, problem's own loads.
pub fn cold_pass(n_meshes: usize) -> Vec<Job> {
    (0..n_meshes)
        .map(|mesh| Job {
            tenant: mesh % TENANTS.len(),
            id: format!("cold{mesh}"),
            mesh,
            f32_refined: false,
            scale: 1.0,
        })
        .collect()
}

/// The protocol line submitting `job`.
pub fn job_line(job: &Job, meshes: &[Mesh]) -> String {
    let m = &meshes[job.mesh];
    let subs = if m.dim == 2 {
        format!("[{},{}]", m.subs.0, m.subs.1)
    } else {
        format!("[{},{},{}]", m.subs.0, m.subs.1, m.subs.2)
    };
    let (tenant, weight) = TENANTS[job.tenant];
    format!(
        "{{\"op\":\"solve\",\"tenant\":\"{tenant}\",\"job\":\"{}\",\"dim\":{},\"cells\":{},\
         \"subs\":{subs},\"precision\":\"{}\",\"backend\":\"cluster\",\"scale\":{:?},\"weight\":{weight:?}}}",
        job.id,
        m.dim,
        m.cells,
        if job.f32_refined { "f32_refined" } else { "f64" },
        job.scale,
    )
}

/// Generated inputs of the service workload: the mesh family with, per
/// mesh, the decomposed problem (to gather a job's solution) and the
/// direct solution of its own loads.
pub struct ServeCase {
    pub meshes: [Mesh; 6],
    pub problems: Vec<HeatProblem>,
    pub references: Vec<Vec<f64>>,
    pub cache_budget: usize,
    /// Wall seconds spent building the six problems (the `sc_fem` layer).
    pub fem_build_s: f64,
}

impl ServeCase {
    pub fn generate(smoke: bool) -> ServeCase {
        let meshes = serve_meshes(smoke);
        let t0 = std::time::Instant::now();
        let problems: Vec<HeatProblem> = meshes.iter().map(Mesh::build).collect();
        let fem_build_s = t0.elapsed().as_secs_f64();
        let references = problems.iter().map(|p| Reference::of(p).1).collect();
        ServeCase {
            meshes,
            problems,
            references,
            cache_budget: serve_cache_budget(smoke),
            fem_build_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_quotas_are_exact_and_ordered() {
        let q = zipf_quotas(6, JOBS_PER_ROUND);
        assert_eq!(q.iter().sum::<usize>(), JOBS_PER_ROUND);
        assert!(q.windows(2).all(|w| w[0] >= w[1]));
        assert_eq!(q, vec![10, 5, 3, 2, 2, 2]);
    }

    #[test]
    fn round_multiset_is_seed_independent_but_order_is_not() {
        let key = |jobs: &[Job]| {
            let mut k: Vec<(usize, bool)> = jobs.iter().map(|j| (j.mesh, j.f32_refined)).collect();
            k.sort_unstable();
            k
        };
        let a = steady_round(&mut Rng::new(1, 0), 6);
        let a2 = steady_round(&mut Rng::new(1, 0), 6);
        let b = steady_round(&mut Rng::new(2, 0), 6);
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(key(&a), key(&b));
        assert_eq!(
            a.iter().filter(|j| j.f32_refined).count(),
            JOBS_PER_ROUND / 4
        );
    }

    #[test]
    fn job_lines_parse_as_protocol_requests() {
        let meshes = serve_meshes(true);
        for job in steady_round(&mut Rng::new(3, 0), meshes.len())
            .iter()
            .chain(&cold_pass(meshes.len()))
        {
            let line = job_line(job, &meshes);
            sc_serve::parse_request(line.as_bytes(), 1)
                .unwrap_or_else(|e| panic!("{line}: {}", e.to_response()));
        }
    }
}
