//! Weighted deficit-round-robin job scheduler with a virtual device clock,
//! per-job timeout/cancellation, and per-tenant accounting.
//!
//! Fairness currency is **estimated device-seconds** under the §4.4-style
//! closed-form cost proxy (two sparse trisolves plus one SYRK per
//! subdomain), not job count — a tenant submitting few huge jobs and one
//! submitting many small jobs converge to the same device-second share when
//! their weights are equal. Deficit round robin gives that with O(1) work
//! per dispatch: each tenant holds a *deficit counter* topped up by
//! `quantum · weight` per scheduling round and pays the estimated cost of a
//! job out of it when the job is dispatched.
//!
//! Time is virtual: the clock advances by *realized* device-seconds of
//! completed jobs (simulated-device makespans are deterministic), so
//! scheduling decisions, timeouts, and the fairness gate in the bench
//! harness are all reproducible run to run.

use std::collections::{BTreeMap, VecDeque};

use crate::protocol::{JobRequest, MeshSpec};

/// One queued unit of work, as the scheduler sees it.
#[derive(Clone, Debug)]
pub struct QueuedJob {
    pub req: JobRequest,
    /// Content key of the prepared state this job needs (cache lookup is
    /// done at dispatch, not submit — a bundle evicted while queued must
    /// re-prepare, never dangle).
    pub key: u64,
    /// Estimated device-seconds (the fairness currency).
    pub est_s: f64,
    /// Virtual clock at submission, for queue-wait and timeout accounting.
    pub submitted_at: f64,
}

/// Per-tenant roll-up, reported by the `stats` op.
#[derive(Clone, Debug, Default)]
pub struct TenantStats {
    pub jobs_done: usize,
    pub jobs_cancelled: usize,
    pub jobs_expired: usize,
    pub jobs_rejected: usize,
    /// Realized device-seconds billed to this tenant.
    pub device_s: f64,
    /// Preprocessing seconds actually paid (0 on cache hits).
    pub prep_s: f64,
    /// Sum of virtual queue-wait across dispatched jobs.
    pub queue_wait_s: f64,
    pub cache_hits: usize,
    pub cache_misses: usize,
}

impl TenantStats {
    /// Fraction of dispatched jobs that found their prepared state cached.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64 // sc-analyze: allow(precision-discipline)
        }
    }
}

struct Tenant {
    weight: f64,
    deficit: f64,
    queue: VecDeque<QueuedJob>,
    stats: TenantStats,
}

/// The deficit-round-robin scheduler. Tenants live in a `BTreeMap`, so
/// round-robin order is the sorted tenant-name order — deterministic
/// regardless of submission interleaving.
pub struct Scheduler {
    tenants: BTreeMap<String, Tenant>,
    /// Round-robin cursor: name of the tenant to visit next.
    cursor: Option<String>,
    /// Device-seconds of credit granted per tenant visit (× weight).
    quantum_s: f64,
    /// Virtual clock, in realized device-seconds.
    vclock: f64,
}

impl Scheduler {
    pub fn new(quantum_s: f64) -> Self {
        assert!(quantum_s > 0.0, "the DRR quantum must be positive");
        Scheduler {
            tenants: BTreeMap::new(),
            cursor: None,
            quantum_s,
            vclock: 0.0,
        }
    }

    /// Current virtual time (realized device-seconds so far).
    pub fn vclock(&self) -> f64 {
        self.vclock
    }

    /// Total jobs queued across all tenants.
    pub fn queued(&self) -> usize {
        self.tenants.values().map(|t| t.queue.len()).sum()
    }

    /// Content keys of every queued job (repeats included): the prepared
    /// state the queue is about to read.
    pub fn queued_keys(&self) -> Vec<u64> {
        let queues = self.tenants.values().flat_map(|t| &t.queue);
        queues.map(|q| q.key).collect()
    }

    fn tenant_mut(&mut self, name: &str) -> &mut Tenant {
        self.tenants
            .entry(name.to_string())
            .or_insert_with(|| Tenant {
                weight: 1.0,
                deficit: 0.0,
                queue: VecDeque::new(),
                stats: TenantStats::default(),
            })
    }

    /// Enqueue a job; an explicit `weight` on the request updates the
    /// tenant's share from this submission on. Returns the queue depth
    /// after insertion.
    pub fn submit(&mut self, req: JobRequest, key: u64, est_s: f64) -> usize {
        let submitted_at = self.vclock;
        let t = self.tenant_mut(&req.tenant.clone());
        if let Some(w) = req.weight {
            t.weight = w;
        }
        t.queue.push_back(QueuedJob {
            req,
            key,
            est_s,
            submitted_at,
        });
        self.queued()
    }

    /// Record a rejected admission against the tenant (the job never
    /// entered the queue).
    pub fn note_rejected(&mut self, tenant: &str) {
        self.tenant_mut(tenant).stats.jobs_rejected += 1;
    }

    /// Remove a queued job. `false` if no such tenant/job is waiting
    /// (already dispatched jobs cannot be recalled — the virtual device
    /// ran them to completion).
    pub fn cancel(&mut self, tenant: &str, job: &str) -> bool {
        let Some(t) = self.tenants.get_mut(tenant) else {
            return false;
        };
        let Some(i) = t.queue.iter().position(|q| q.req.job == job) else {
            return false;
        };
        t.queue.remove(i);
        t.stats.jobs_cancelled += 1;
        true
    }

    /// Pick the next job to dispatch under DRR, expiring timed-out jobs
    /// along the way. Returns `None` when every queue is empty.
    ///
    /// Termination: every full cycle over non-empty tenants adds
    /// `quantum · weight` credit to each, so some head job's estimate is
    /// eventually covered; a safety valve force-serves the deepest-deficit
    /// tenant if estimates are so skewed that crediting would spin.
    pub fn pop_next(&mut self) -> Option<(String, QueuedJob)> {
        self.expire_timed_out();
        let names: Vec<String> = self
            .tenants
            .iter()
            .filter(|(_, t)| !t.queue.is_empty())
            .map(|(n, _)| n.clone())
            .collect();
        if names.is_empty() {
            return None;
        }
        // start the scan at the cursor (or the first active tenant)
        let start = self
            .cursor
            .as_ref()
            .and_then(|c| names.iter().position(|n| n >= c))
            .unwrap_or(0);
        let max_visits = names.len() * 100_000;
        for visit in 0..max_visits {
            let name = &names[(start + visit) % names.len()];
            let quantum = self.quantum_s;
            let t = self.tenants.get_mut(name).expect("active tenant exists");
            t.deficit += quantum * t.weight;
            let head_est = t.queue.front().expect("non-empty queue").est_s;
            if t.deficit >= head_est {
                t.deficit -= head_est;
                let job = t.queue.pop_front().expect("non-empty queue");
                if t.queue.is_empty() {
                    // an emptied tenant must not bank credit for later
                    t.deficit = 0.0;
                }
                self.cursor = Some(next_after(&names, (start + visit) % names.len()));
                return Some((name.clone(), job));
            }
        }
        // Safety valve (unreachable for sane quantum/estimate ratios):
        // serve the tenant whose head job is closest to covered.
        let name = names
            .iter()
            .max_by(|a, b| {
                let ra = self.readiness(a);
                let rb = self.readiness(b);
                ra.partial_cmp(&rb).expect("readiness ratios are finite")
            })
            .expect("non-empty names")
            .clone();
        let t = self.tenants.get_mut(&name).expect("active tenant exists");
        t.deficit = 0.0;
        let job = t.queue.pop_front().expect("non-empty queue");
        self.cursor = Some(next_after(
            &names,
            names
                .iter()
                .position(|n| *n == name)
                .expect("name from list"),
        ));
        Some((name, job))
    }

    fn readiness(&self, name: &str) -> f64 {
        let t = &self.tenants[name];
        let est = t.queue.front().map(|q| q.est_s).unwrap_or(f64::MAX);
        (t.deficit + t.weight) / est.max(1e-300)
    }

    fn expire_timed_out(&mut self) {
        let now = self.vclock;
        for t in self.tenants.values_mut() {
            let before = t.queue.len();
            t.queue.retain(|q| match q.req.timeout_s {
                Some(limit) => now - q.submitted_at <= limit,
                None => true,
            });
            t.stats.jobs_expired += before - t.queue.len();
        }
    }

    /// Account a completed job: advance the virtual clock by its realized
    /// device-seconds, reconcile the DRR charge, and bill the tenant.
    pub fn complete(
        &mut self,
        tenant: &str,
        job: &QueuedJob,
        device_s: f64,
        prep_s: f64,
        cache_hit: bool,
    ) {
        let wait = self.vclock - job.submitted_at;
        self.vclock += device_s;
        let t = self.tenant_mut(tenant);
        // pop_next debited the submit-time estimate — the only number
        // available before execution. Swap that charge for the realized
        // cost, so long-run shares track the device-seconds tenants
        // actually consumed rather than the cost model's idea of them.
        // An emptied tenant keeps no credit (pop_next zeroed it).
        if !t.queue.is_empty() {
            t.deficit += job.est_s - device_s;
        }
        t.stats.jobs_done += 1;
        t.stats.device_s += device_s;
        t.stats.prep_s += prep_s;
        t.stats.queue_wait_s += wait;
        if cache_hit {
            t.stats.cache_hits += 1;
        } else {
            t.stats.cache_misses += 1;
        }
    }

    /// Snapshot of every tenant's roll-up, sorted by name.
    pub fn stats(&self) -> Vec<(String, TenantStats)> {
        self.tenants
            .iter()
            .map(|(n, t)| (n.clone(), t.stats.clone()))
            .collect()
    }
}

fn next_after(names: &[String], i: usize) -> String {
    names[(i + 1) % names.len()].clone()
}

/// Closed-form estimate of a job's device-seconds, in the style of the
/// paper's §4.4 cost model: per subdomain, the explicit assembly costs two
/// sparse triangular solves against `m` right-hand sides (`2 · 2·nnz(L)·m`
/// flops) plus the `m×m` SYRK over `n` rows (`n·m²` flops), priced at a
/// nominal device rate. Proxies for `n`, `m`, `nnz(L)` come from the
/// structured mesh geometry, so the estimate needs no preprocessing — it
/// must be computable at *submit* time, before any cache lookup.
///
/// Panics if `cells` or a `subs` factor exceeds `u32::MAX`; the protocol
/// bounds each to 4096.
pub fn estimate_job_seconds(spec: &MeshSpec) -> f64 {
    let c = f64::from(u32::try_from(spec.cells).expect("decode_job bounds cells to 4096"));
    let dim = u32::from(spec.dim);
    let n = (c + 1.0).powi(dim as i32); // dofs per subdomain
    let m = if spec.dim == 2 {
        4.0 * (c + 1.0) // boundary of a square patch
    } else {
        6.0 * (c + 1.0) * (c + 1.0) // boundary of a cube patch
    };
    // nested-dissection fill proxy: Θ(n log n) in 2D, Θ(n^{4/3}) in 3D
    let nnz_l = if spec.dim == 2 {
        n * n.max(2.0).log2()
    } else {
        n.powf(4.0 / 3.0)
    };
    let flops_per_sub = 4.0 * nnz_l * m + n * m * m;
    // multiplied in f64, not converted as one product (which can exceed
    // `u32`): every partial product stays below 2^53, so it is exact
    let [s0, s1, s2] = [spec.subs.0, spec.subs.1, spec.subs.2]
        .map(|s| f64::from(u32::try_from(s).expect("decode_job bounds each subs factor to 4096")));
    let n_subs = s0 * s1 * s2;
    const NOMINAL_RATE: f64 = 250e9; // effective flop/s for small batched kernels
    flops_per_sub * n_subs / NOMINAL_RATE
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{BackendTag, JobKind};
    use sc_core::Precision;
    use sc_fem::Gluing;

    fn job(tenant: &str, id: &str, timeout_s: Option<f64>, weight: Option<f64>) -> JobRequest {
        JobRequest {
            kind: JobKind::Solve,
            tenant: tenant.to_string(),
            job: id.to_string(),
            spec: MeshSpec {
                dim: 2,
                cells: 4,
                subs: (2, 2, 1),
                gluing: Gluing::Redundant,
            },
            precision: Precision::F64,
            backend: BackendTag::Cluster,
            scale: 1.0,
            weight,
            timeout_s,
        }
    }

    #[test]
    fn equal_weights_interleave_tenants() {
        let mut s = Scheduler::new(0.5);
        for i in 0..3 {
            s.submit(job("a", &format!("a{i}"), None, None), 0, 1.0);
            s.submit(job("b", &format!("b{i}"), None, None), 0, 1.0);
        }
        let mut order = Vec::new();
        while let Some((t, j)) = s.pop_next() {
            s.complete(&t, &j, j.est_s, 0.0, true);
            order.push(t);
        }
        assert_eq!(order, ["a", "b", "a", "b", "a", "b"]);
    }

    #[test]
    fn double_weight_doubles_share() {
        let mut s = Scheduler::new(0.5);
        for i in 0..8 {
            s.submit(job("heavy", &format!("h{i}"), None, Some(2.0)), 0, 1.0);
            s.submit(job("light", &format!("l{i}"), None, Some(1.0)), 0, 1.0);
        }
        // dispatch 6 jobs; the 2:1 weight ratio should show in the mix
        let mut heavy = 0;
        for _ in 0..6 {
            let (t, j) = s.pop_next().expect("queues non-empty");
            s.complete(&t, &j, j.est_s, 0.0, true);
            if t == "heavy" {
                heavy += 1;
            }
        }
        assert_eq!(heavy, 4, "2:1 weights → 4 of 6 dispatches go heavy");
    }

    #[test]
    fn fairness_is_by_cost_not_job_count() {
        // tenant "big" submits 5-second jobs, "small" 1-second jobs; equal
        // weights must equalize device-seconds, so "small" dispatches ~5x
        // as many jobs.
        let mut s = Scheduler::new(0.5);
        for i in 0..4 {
            s.submit(job("big", &format!("b{i}"), None, None), 0, 5.0);
        }
        for i in 0..20 {
            s.submit(job("small", &format!("s{i}"), None, None), 0, 1.0);
        }
        let (mut big_s, mut small_s) = (0.0, 0.0);
        for _ in 0..12 {
            let (t, j) = s.pop_next().expect("queues non-empty");
            s.complete(&t, &j, j.est_s, 0.0, true);
            if t == "big" {
                big_s += j.est_s;
            } else {
                small_s += j.est_s;
            }
        }
        let ratio = big_s.max(small_s) / big_s.min(small_s).max(1e-300);
        assert!(
            ratio <= 1.5,
            "device-second split {big_s:.1}/{small_s:.1} drifts past 1.5x"
        );
    }

    #[test]
    fn cancel_removes_only_queued_jobs() {
        let mut s = Scheduler::new(0.5);
        s.submit(job("a", "j1", None, None), 0, 1.0);
        assert!(s.cancel("a", "j1"));
        assert!(!s.cancel("a", "j1"), "already gone");
        assert!(!s.cancel("nobody", "j1"));
        assert_eq!(s.queued(), 0);
        assert_eq!(s.stats()[0].1.jobs_cancelled, 1);
    }

    #[test]
    fn timeout_expires_stale_jobs_at_dispatch() {
        let mut s = Scheduler::new(0.5);
        // same tenant → FIFO: the slow job dispatches first and pushes the
        // virtual clock past the impatient job's timeout
        s.submit(job("a", "slow", None, None), 0, 10.0);
        s.submit(job("a", "impatient", Some(3.0), None), 0, 1.0);
        let (t, j) = s.pop_next().expect("a job is ready");
        assert_eq!(j.req.job, "slow");
        s.complete(&t, &j, j.est_s, 0.0, false);
        assert!((s.vclock() - 10.0).abs() < 1e-12);
        assert!(s.pop_next().is_none(), "the impatient job expired");
        let stats = s.stats();
        assert_eq!(stats[0].1.jobs_expired, 1);
    }

    #[test]
    fn estimate_grows_with_resolution_and_dimension() {
        let small = MeshSpec {
            dim: 2,
            cells: 4,
            subs: (2, 2, 1),
            gluing: Gluing::Redundant,
        };
        let fine = MeshSpec {
            cells: 16,
            ..small.clone()
        };
        let cube = MeshSpec {
            dim: 3,
            cells: 4,
            subs: (2, 2, 2),
            gluing: Gluing::Redundant,
        };
        assert!(estimate_job_seconds(&fine) > estimate_job_seconds(&small));
        assert!(estimate_job_seconds(&cube) > estimate_job_seconds(&small));
        assert!(estimate_job_seconds(&small) > 0.0);
    }
}
