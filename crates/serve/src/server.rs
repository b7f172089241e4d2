//! The service proper: protocol dispatch, admission control, job execution
//! against the shared device pool, and the pipe/TCP front-ends.
//!
//! One [`Service`] owns the prepared-state cache, the fair scheduler, and
//! the device pool for its whole lifetime — that is what makes the cache
//! *cross-session*: connections come and go (sequentially), the service
//! state persists. The in-process [`ServeHandle`] drives the same
//! `Service` without any I/O, which is how the bitwise cache-correctness
//! tests and the benchmark observe real solutions instead of parsing their
//! own protocol output.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Instant;

use sc_core::{
    temp_footprint, Backend, BatchEntry, DeviceSlot, Precision, ScConfig, SessionCacheStats,
};
use sc_feti::{FetiSolverBuilder, FormulationChoice, SubdomainFactors};
use sc_gpu::{DevicePool, DeviceSpec};

use crate::cache::{content_key, prepare, PreparedCache};
use crate::json::{write_json_f64, write_json_str};
use crate::protocol::{
    parse_request, BackendTag, JobKind, JobRequest, MeshSpec, PrecisionTag, Request, WireName,
};
use crate::scheduler::{estimate_job_seconds, QueuedJob, Scheduler, TenantStats};

/// DRR credit per tenant visit, in device-seconds. Must sit well below the
/// cost of the smallest expected job, or deficit round-robin degenerates
/// into one-job-per-visit round-robin and coarse-job tenants are
/// over-served (the §4.4 estimates for the served mesh family bottom out
/// around `3e-7 s`).
const QUANTUM_S: f64 = 1e-7;

/// Service configuration. Every job factorizes and iterates under
/// [`sc_feti::FetiOptions::default`].
#[derive(Clone)]
pub struct ServeOptions {
    /// The shared (simulated) device pool all cluster jobs run on.
    pub pool: Arc<DevicePool>,
    /// Byte budget of the cross-session prepared-state cache.
    pub cache_budget_bytes: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            pool: DevicePool::uniform(DeviceSpec::a100(), 2, 2),
            cache_budget_bytes: 256 << 20,
        }
    }
}

/// What one executed job produced, retained by a [`ServeHandle`] for
/// [`ServeHandle::take_outcome`].
#[derive(Clone, Debug)]
pub struct JobOutcome {
    pub tenant: String,
    pub job: String,
    pub kind: JobKind,
    /// Whether the prepared state came out of the cross-session cache.
    pub cache_hit: bool,
    /// Whether the job reused the dual operators an earlier job of the same
    /// mesh and backend assembled, at either precision (in-process only:
    /// the wire `done` line does not carry it).
    pub reused_operators: bool,
    /// Wall seconds spent preparing (0.0 on a hit).
    pub prep_s: f64,
    /// Realized device-seconds billed to the tenant: the assembly makespan
    /// of a cluster job that assembled, the makespan of the uploads of one
    /// that reused the operators; host wall seconds of a `cpu` job's build.
    pub device_s: f64,
    /// PCPG iterations (solve jobs).
    pub iterations: Option<usize>,
    /// Final relative residual (solve jobs).
    pub rel_residual: Option<f64>,
    /// Dual solution (solve jobs).
    pub lambda: Option<Vec<f64>>,
    /// Per-subdomain primal solutions (solve jobs).
    pub u_locals: Option<Vec<Vec<f64>>>,
}

/// The persistent multi-tenant solver service.
pub struct Service {
    opts: ServeOptions,
    cache: PreparedCache,
    sched: Scheduler,
    /// 1-based count of protocol lines seen, carried into every error.
    line_no: usize,
    /// Full [`JobOutcome`]s (λ, per-subdomain u) for in-process retrieval:
    /// `Some` only under a [`ServeHandle`] — a long-lived wire server must
    /// not grow per-job memory.
    results: Option<HashMap<(String, String), JobOutcome>>,
    /// Measured-rate calibration of the submit-time cost estimates:
    /// running mean of realized device-seconds per (content key, precision,
    /// job kind, backend). The closed-form §4.4 estimate prices a job the
    /// service has never run; once a key has completed, its realized cost
    /// replaces the model, so the fair scheduler divides what tenants
    /// actually consume. The precision is in the key although both
    /// precisions share one assembly: merging their estimates would change
    /// the DRR schedule, which needs its own measurement. The
    /// backend is in it because `cpu` jobs bill host wall seconds and
    /// `cluster` jobs simulated device seconds. The job count beside each
    /// mean is an `f64`, exact below 2⁵³ jobs.
    realized: HashMap<(u64, PrecisionTag, JobKind, BackendTag), (f64, f64)>,
}

impl Service {
    pub fn new(opts: ServeOptions) -> Self {
        let cache = PreparedCache::new(opts.cache_budget_bytes);
        Service {
            opts,
            cache,
            sched: Scheduler::new(QUANTUM_S),
            line_no: 0,
            results: None,
            realized: HashMap::new(),
        }
    }

    /// Cache counters (hits/misses/evictions/bytes).
    pub fn cache_stats(&self) -> SessionCacheStats {
        self.cache.stats()
    }

    /// Per-tenant roll-ups, sorted by tenant name.
    pub fn tenant_stats(&self) -> Vec<(String, TenantStats)> {
        self.sched.stats()
    }

    /// Handle one raw protocol line. Returns the response lines plus a
    /// shutdown flag. Never panics on malformed input — malformed lines
    /// produce a single structured error response.
    pub fn handle_line(&mut self, raw: &[u8]) -> (Vec<String>, bool) {
        self.line_no += 1;
        let trimmed = trim_line(raw);
        if trimmed.is_empty() {
            // blank lines are keep-alives, not errors
            return (Vec::new(), false);
        }
        match parse_request(trimmed, self.line_no) {
            Err(e) => (vec![e.to_response()], false),
            Ok(Request::Submit(job)) => (vec![self.submit(job)], false),
            Ok(Request::Run { budget_s }) => (self.run(budget_s), false),
            Ok(Request::Cancel { tenant, job }) => {
                let hit = self.sched.cancel(&tenant, &job);
                let mut s = String::from("{\"ok\":true,\"event\":\"cancel\",\"cancelled\":");
                s.push_str(if hit { "true" } else { "false" });
                s.push('}');
                (vec![s], false)
            }
            Ok(Request::Stats) => (vec![self.stats_line()], false),
            Ok(Request::Shutdown) => (vec!["{\"ok\":true,\"event\":\"bye\"}".to_string()], true),
        }
    }

    fn submit(&mut self, job: JobRequest) -> String {
        if let Err(msg) = self.admit(&job) {
            self.sched.note_rejected(&job.tenant);
            return admission_error(self.line_no, &msg);
        }
        let key = content_key(&job.spec);
        let est = match self
            .realized
            .get(&(key, job.precision, job.kind, job.backend))
        {
            Some((mean, _)) => *mean,
            None => estimate_job_seconds(&job.spec),
        };
        let op = job.kind.name();
        let tenant = job.tenant.clone();
        let id = job.job.clone();
        let depth = self.sched.submit(job, key, est);
        let mut s = String::from("{\"ok\":true,\"event\":\"accepted\",\"op\":");
        write_json_str(&mut s, op);
        s.push_str(",\"tenant\":");
        write_json_str(&mut s, &tenant);
        s.push_str(",\"job\":");
        write_json_str(&mut s, &id);
        s.push_str(&format!(",\"queued\":{depth},\"est_s\":"));
        write_json_f64(&mut s, est);
        s.push('}');
        s
    }

    /// Admission control: a cluster job whose per-subdomain working set
    /// cannot fit the largest device arena would abort the batch driver's
    /// placement — reject it up front, analytically, before any
    /// preprocessing is spent on it. The proxy is only a cheap early
    /// filter; [`arena_fit`] applies the driver's own rule at dispatch.
    fn admit(&self, job: &JobRequest) -> Result<(), String> {
        if job.backend == BackendTag::Cpu {
            return Ok(()); // host jobs never touch the arena
        }
        let need = working_set_bytes(&job.spec);
        let cap = self.opts.pool.max_arena_capacity();
        if need > cap {
            return Err(format!(
                "per-subdomain working set ~{need} B exceeds the largest \
                 device arena ({cap} B); resubmit with backend \"cpu\" or a \
                 coarser decomposition"
            ));
        }
        Ok(())
    }

    fn run(&mut self, budget_s: Option<f64>) -> Vec<String> {
        let mut lines = Vec::new();
        let mut spent = 0.0_f64;
        let mut drained = 0usize;
        // the budget is checked before popping: a pop debits the tenant's
        // DRR deficit and moves the cursor on, so the job it returns must run
        while budget_s.is_none_or(|budget| spent < budget) {
            let Some((tenant, qj)) = self.sched.pop_next() else {
                break;
            };
            let outcome = match self.execute(&tenant, &qj) {
                Ok(outcome) => outcome,
                Err(msg) => {
                    self.sched.note_rejected(&tenant);
                    let msg = format!("job {:?} of tenant {tenant:?}: {msg}", qj.req.job);
                    lines.push(admission_error(self.line_no, &msg));
                    continue;
                }
            };
            self.sched.complete(
                &tenant,
                &qj,
                outcome.device_s,
                outcome.prep_s,
                outcome.cache_hit,
            );
            let r = &qj.req;
            let realized = (qj.key, r.precision, r.kind, r.backend);
            let (mean, n) = self.realized.entry(realized).or_insert((0.0, 0.0));
            *n += 1.0;
            *mean += (outcome.device_s - *mean) / *n;
            spent += outcome.device_s;
            drained += 1;
            lines.push(done_line(&outcome));
            if let Some(results) = &mut self.results {
                results.insert((outcome.tenant.clone(), outcome.job.clone()), outcome);
            }
        }
        let mut fin = String::from("{\"ok\":true,\"event\":\"drained\",\"jobs\":");
        fin.push_str(&drained.to_string());
        fin.push_str(",\"device_s\":");
        write_json_f64(&mut fin, spent);
        fin.push_str(&format!(",\"queued\":{}}}", self.sched.queued()));
        lines.push(fin);
        lines
    }

    /// Run one dispatched job against the pool, via the cross-session cache.
    /// A cluster job that assembles and whose prepared factors fail
    /// [`arena_fit`] does not run: the error names the subdomains no device
    /// arena admits.
    fn execute(&mut self, tenant: &str, qj: &QueuedJob) -> Result<JobOutcome, String> {
        let req = &qj.req;
        // what the queue is about to read stays resident while anything
        // else can be evicted instead
        let keep = self.sched.queued_keys();
        // Cache lookup happens at dispatch, not submit: an entry evicted
        // while the job queued is simply re-prepared here.
        let (prep, cache_hit, prep_s) = match self.cache.get(qj.key) {
            Some(p) => (p, true, 0.0),
            None => {
                let t0 = Instant::now();
                let built = Arc::new(prepare(&req.spec));
                let secs = t0.elapsed().as_secs_f64();
                self.cache.insert(qj.key, Arc::clone(&built), &keep);
                (built, false, secs)
            }
        };
        // the operators of an earlier job of this mesh and backend, at
        // either precision: the build uploads them instead of assembling.
        // Only a job that assembles is checked against the arenas: the first
        // assembly on its bundle's backend passed the same check.
        let kept = prep.operators.get(&req.backend);
        let first = kept.is_none();
        let reused = kept.cloned().flatten();
        if reused.is_none() && req.backend == BackendTag::Cluster {
            arena_fit(&self.opts.pool, &prep.factors)?;
        }
        let mut outcome = JobOutcome {
            tenant: tenant.to_string(),
            job: req.job.clone(),
            kind: req.kind,
            cache_hit,
            reused_operators: reused.is_some(),
            prep_s,
            device_s: 0.0,
            iterations: None,
            rel_residual: None,
            lambda: None,
            u_locals: None,
        };

        let backend = match req.backend {
            BackendTag::Cluster => {
                // deterministic device state per job: stream clocks and
                // arenas from a previous tenant's job must not leak in
                self.opts.pool.reset_all();
                Backend::cluster(Arc::clone(&self.opts.pool))
            }
            BackendTag::Cpu => Backend::cpu(),
        };

        let mut builder = FetiSolverBuilder::new()
            .backend(backend)
            .precision(precision_of(req.precision))
            .formulation(FormulationChoice::Explicit)
            .assembly(ScConfig::Auto)
            .factors(Arc::clone(&prep.factors));
        if let Some(operators) = reused {
            builder = builder.operators(operators);
        }
        let t0 = Instant::now();
        let solver = builder.build(&prep.problem);
        outcome.device_s = match (outcome.reused_operators, req.backend, solver.report()) {
            (true, BackendTag::Cluster, _) => self.opts.pool.synchronize_all(),
            (false, _, Some(r)) if r.makespan > 0.0 => r.makespan,
            (false, _, Some(r)) => r.total_seconds,
            _ => t0.elapsed().as_secs_f64(),
        };
        // keep what the first assembly on this backend produced for the
        // next job, charged to the bundle at its packed bytes; if that grows
        // the bundle past the whole budget, keep it without them, marked, so
        // that later jobs still reuse the factors and do not retry
        if let (true, Some(operators)) = (first, solver.shared_operators()) {
            let grown = prep.with_operators(req.backend, Some(operators));
            if !self.cache.insert(qj.key, Arc::new(grown), &keep) {
                let marked = prep.with_operators(req.backend, None);
                self.cache.insert(qj.key, Arc::new(marked), &keep);
            }
        }
        if req.kind == JobKind::Solve {
            let sol = if (req.scale - 1.0).abs() > f64::EPSILON {
                let scaled: Vec<Vec<f64>> = prep
                    .problem
                    .subdomains
                    .iter()
                    .map(|sd| sd.f.iter().map(|v| v * req.scale).collect())
                    .collect();
                solver.solve_rhs(&scaled)
            } else {
                solver.solve()
            };
            outcome.iterations = Some(sol.stats.iterations);
            outcome.rel_residual = Some(sol.stats.rel_residual);
            outcome.lambda = Some(sol.lambda);
            outcome.u_locals = Some(sol.u_locals);
        }
        Ok(outcome)
    }

    fn stats_line(&self) -> String {
        let c = self.cache.stats();
        let mut s = String::from("{\"ok\":true,\"event\":\"stats\",\"cache\":{");
        s.push_str(&format!(
            "\"hits\":{},\"misses\":{},\"evictions\":{},\"entries\":{},\"bytes\":{},\"budget_bytes\":{}}}",
            c.hits, c.misses, c.evictions, c.entries, c.bytes, c.budget_bytes
        ));
        s.push_str(&format!(
            ",\"queued\":{},\"vclock_s\":",
            self.sched.queued()
        ));
        write_json_f64(&mut s, self.sched.vclock());
        s.push_str(",\"tenants\":[");
        for (i, (name, t)) in self.sched.stats().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"tenant\":");
            write_json_str(&mut s, name);
            s.push_str(&format!(
                ",\"jobs_done\":{},\"jobs_cancelled\":{},\"jobs_expired\":{},\"jobs_rejected\":{}",
                t.jobs_done, t.jobs_cancelled, t.jobs_expired, t.jobs_rejected
            ));
            s.push_str(",\"device_s\":");
            write_json_f64(&mut s, t.device_s);
            s.push_str(",\"prep_s\":");
            write_json_f64(&mut s, t.prep_s);
            s.push_str(",\"queue_wait_s\":");
            write_json_f64(&mut s, t.queue_wait_s);
            s.push_str(&format!(
                ",\"cache_hits\":{},\"cache_misses\":{}",
                t.cache_hits, t.cache_misses
            ));
            s.push_str(",\"hit_ratio\":");
            write_json_f64(&mut s, t.hit_ratio());
            s.push('}');
        }
        s.push_str("]}");
        s
    }
}

fn precision_of(tag: PrecisionTag) -> Precision {
    match tag {
        PrecisionTag::F64 => Precision::F64,
        PrecisionTag::F32Refined => Precision::F32Refined {
            refine_tol: 1e-9,
            max_refine: 4,
        },
    }
}

/// The device driver's own admission rule, applied at dispatch to a
/// cluster job's prepared factors: every subdomain's peak temporaries,
/// priced by [`temp_footprint`] on the gluing block it assembles (`P̂ᵢᵀ`)
/// under its resolved [`ScConfig::Auto`] parameters, must fit some device
/// of the pool ([`DeviceSlot::admits`]). A job that fails it would abort
/// the batch driver's placement.
fn arena_fit(pool: &DevicePool, factors: &[SubdomainFactors]) -> Result<(), String> {
    let slots: Vec<DeviceSlot> = pool.devices().iter().map(|d| DeviceSlot::of(d)).collect();
    let over: Vec<usize> = (0..factors.len())
        .filter(|&i| {
            let (l, pt) = (factors[i].factor(), factors[i].gluing());
            let need =
                temp_footprint::<f64>(l.ncols(), pt.ncols(), &ScConfig::Auto.resolve(true, l, pt));
            !slots.iter().any(|s| s.admits(need))
        })
        .collect();
    if over.is_empty() {
        return Ok(());
    }
    Err(format!(
        "{} subdomain(s) {over:?} need more temporaries than the largest \
         device arena ({} B); resubmit with backend \"cpu\" or smaller \
         subdomains",
        over.len(),
        pool.max_arena_capacity()
    ))
}

/// Analytic per-subdomain working-set proxy for admission: the dense
/// triangular-solve result `Y` (`n × m`) plus the assembled `F̃` tile
/// (`m × m`), in `f64`. Saturates: the largest 3D job the protocol accepts
/// would overflow `usize`.
fn working_set_bytes(spec: &MeshSpec) -> usize {
    let n = (spec.cells + 1).pow(u32::from(spec.dim));
    let m = if spec.dim == 2 {
        4 * (spec.cells + 1)
    } else {
        6 * (spec.cells + 1) * (spec.cells + 1)
    };
    n.saturating_mul(m)
        .saturating_add(m.saturating_mul(m))
        .saturating_mul(8)
}

/// The structured `admission` error response to protocol line `line`.
fn admission_error(line: usize, msg: &str) -> String {
    let mut s = String::from("{\"ok\":false,\"error\":{\"kind\":\"admission\",\"line\":");
    s.push_str(&line.to_string());
    s.push_str(",\"msg\":");
    write_json_str(&mut s, msg);
    s.push_str("}}");
    s
}

fn done_line(o: &JobOutcome) -> String {
    let mut s = String::from("{\"ok\":true,\"event\":\"done\",\"tenant\":");
    write_json_str(&mut s, &o.tenant);
    s.push_str(",\"job\":");
    write_json_str(&mut s, &o.job);
    s.push_str(",\"op\":");
    write_json_str(&mut s, o.kind.name());
    s.push_str(",\"cache\":");
    write_json_str(&mut s, if o.cache_hit { "hit" } else { "miss" });
    s.push_str(",\"prep_s\":");
    write_json_f64(&mut s, o.prep_s);
    s.push_str(",\"device_s\":");
    write_json_f64(&mut s, o.device_s);
    if let Some(it) = o.iterations {
        s.push_str(&format!(",\"iters\":{it}"));
    }
    if let Some(r) = o.rel_residual {
        s.push_str(",\"rel_residual\":");
        write_json_f64(&mut s, r);
    }
    s.push('}');
    s
}

fn trim_line(raw: &[u8]) -> &[u8] {
    let mut s = raw;
    while let [rest @ .., b'\n' | b'\r' | b' ' | b'\t'] = s {
        s = rest;
    }
    while let [b' ' | b'\t', rest @ ..] = s {
        s = rest;
    }
    s
}

// ---------------------------------------------------------------------------
// In-process handle
// ---------------------------------------------------------------------------

/// Drive a [`Service`] in-process: the protocol without the wire. Results
/// are retained so tests and the bench harness can compare actual solution
/// vectors (bitwise) instead of re-parsing response lines.
pub struct ServeHandle {
    service: Service,
}

impl ServeHandle {
    pub fn new(opts: ServeOptions) -> Self {
        let mut service = Service::new(opts);
        service.results = Some(HashMap::new());
        ServeHandle { service }
    }

    /// Submit one protocol line; returns the response lines.
    pub fn request(&mut self, line: &str) -> Vec<String> {
        self.service.handle_line(line.as_bytes()).0
    }

    /// Take (and remove) the retained outcome of a completed job.
    pub fn take_outcome(&mut self, tenant: &str, job: &str) -> Option<JobOutcome> {
        self.service
            .results
            .as_mut()?
            .remove(&(tenant.to_string(), job.to_string()))
    }

    pub fn cache_stats(&self) -> SessionCacheStats {
        self.service.cache_stats()
    }

    pub fn tenant_stats(&self) -> Vec<(String, TenantStats)> {
        self.service.tenant_stats()
    }
}

// ---------------------------------------------------------------------------
// Wire front-ends
// ---------------------------------------------------------------------------

/// Serve one connection (any `BufRead`/`Write` pair) until EOF or a
/// `shutdown` request. Returns whether shutdown was requested — the
/// service itself survives, holding its cache and tenant state for the
/// next connection.
pub fn serve_connection<R: BufRead, W: Write>(
    reader: &mut R,
    writer: &mut W,
    service: &mut Service,
) -> io::Result<bool> {
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // read_until, not read_line: a line that is not valid UTF-8 must
        // become a protocol error response, not an I/O error
        let n = reader.read_until(b'\n', &mut buf)?;
        if n == 0 {
            return Ok(false); // EOF
        }
        let (lines, shutdown) = service.handle_line(&buf);
        for line in &lines {
            writer.write_all(line.as_bytes())?;
            writer.write_all(b"\n")?;
        }
        writer.flush()?;
        if shutdown {
            return Ok(true);
        }
    }
}

/// Pipe mode: serve stdin → stdout until EOF or shutdown.
pub fn serve_stdio(opts: ServeOptions) -> io::Result<()> {
    let mut service = Service::new(opts);
    let stdin = io::stdin();
    let stdout = io::stdout();
    let mut reader = stdin.lock();
    let mut writer = stdout.lock();
    serve_connection(&mut reader, &mut writer, &mut service)?;
    Ok(())
}

/// TCP mode: accept connections sequentially on `addr`, sharing one
/// [`Service`] (and therefore one cache and one fairness ledger) across
/// all of them, until a client sends `shutdown`.
pub fn serve_tcp(addr: &str, opts: ServeOptions) -> io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    let mut service = Service::new(opts);
    for conn in listener.incoming() {
        let stream = conn?;
        let mut writer = stream.try_clone()?;
        let mut reader = BufReader::new(stream);
        match serve_connection(&mut reader, &mut writer, &mut service) {
            Ok(true) => break,
            Ok(false) => {}
            // a dropped client must not take the service down
            Err(e) if e.kind() == io::ErrorKind::ConnectionReset => {}
            Err(e) if e.kind() == io::ErrorKind::BrokenPipe => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse_json_line, JVal};

    fn small_opts() -> ServeOptions {
        ServeOptions {
            pool: DevicePool::uniform(DeviceSpec::a100(), 1, 2),
            ..ServeOptions::default()
        }
    }

    fn submit_line(tenant: &str, job: &str, op: &str) -> String {
        format!(
            "{{\"op\":\"{op}\",\"tenant\":\"{tenant}\",\"job\":\"{job}\",\
             \"dim\":2,\"cells\":4,\"subs\":[2,2]}}"
        )
    }

    #[test]
    fn submit_run_stats_lifecycle() {
        let mut h = ServeHandle::new(small_opts());
        let r = h.request(&submit_line("acme", "j1", "solve"));
        assert_eq!(r.len(), 1);
        assert!(r[0].contains("\"event\":\"accepted\""), "{}", r[0]);
        let r = h.request("{\"op\":\"run\"}");
        assert_eq!(r.len(), 2, "one done line + one drained line");
        assert!(r[0].contains("\"event\":\"done\""));
        assert!(r[0].contains("\"cache\":\"miss\""));
        assert!(r[1].contains("\"jobs\":1"));
        let out = h.take_outcome("acme", "j1").expect("retained outcome");
        assert!(out.iterations.expect("solve ran") > 0);
        assert!(!out.lambda.expect("dual solution").is_empty());
        let r = h.request("{\"op\":\"stats\"}");
        assert!(r[0].contains("\"jobs_done\":1"), "{}", r[0]);
    }

    #[test]
    fn second_identical_job_hits_the_cache() {
        let mut h = ServeHandle::new(small_opts());
        h.request(&submit_line("a", "cold", "solve"));
        h.request("{\"op\":\"run\"}");
        h.request(&submit_line("b", "warm", "solve"));
        let r = h.request("{\"op\":\"run\"}");
        assert!(r[0].contains("\"cache\":\"hit\""), "{}", r[0]);
        let s = h.cache_stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        let warm = h.take_outcome("b", "warm").expect("outcome");
        assert_eq!(warm.prep_s, 0.0, "hits pay no preprocessing");
    }

    #[test]
    fn warm_cluster_job_bills_the_makespan_of_its_uploads() {
        let mut h = ServeHandle::new(small_opts());
        h.request(&submit_line("a", "cold", "solve"));
        h.request("{\"op\":\"run\"}");
        h.request(&submit_line("b", "warm", "solve"));
        h.request("{\"op\":\"run\"}");
        let cold = h.take_outcome("a", "cold").expect("cold outcome");
        let warm = h.take_outcome("b", "warm").expect("warm outcome");
        assert!(!cold.reused_operators && warm.reused_operators);

        // replay the uploads of the cold job's placements on a twin pool
        let spec = MeshSpec {
            dim: 2,
            cells: 4,
            subs: (2, 2, 1),
            gluing: sc_fem::Gluing::Redundant,
        };
        let prep = h
            .service
            .cache
            .get(content_key(&spec))
            .expect("bundle resident");
        let ops = prep.operators[&BackendTag::Cluster].as_ref().expect("kept");
        let twins = DevicePool::uniform(DeviceSpec::a100(), 1, 2);
        for t in &ops.report().subdomains {
            let at = t.placement.expect("cluster rows are placed");
            let nb = prep.factors[t.index].pt_perm.ncols();
            let bytes = sc_gpu::KernelCost::symv_of::<f64>(nb).bytes;
            let upload = sc_gpu::KernelCost::transfer(bytes);
            twins.device(at.device).stream(at.stream).submit(&upload);
        }
        assert_eq!(warm.device_s, twins.synchronize_all());
        assert!(warm.device_s > 0.0 && warm.device_s < cold.device_s);
        assert_eq!(cold.device_s, ops.report().makespan);
    }

    /// A budget between the bundle's bytes and the bundle grown by its
    /// operators: the first job keeps the factors without the operators and
    /// marks the bundle so; the second job of the mesh hits the cache,
    /// assembles again, leaves the cached bundle as it was, and solves
    /// bitwise as the first did.
    #[test]
    fn operators_over_the_budget_are_marked_once_and_not_retried() {
        let spec = MeshSpec {
            dim: 2,
            cells: 4,
            subs: (2, 2, 1),
            gluing: sc_fem::Gluing::Redundant,
        };
        let bundle = prepare(&spec).bytes;
        let mut roomy = ServeHandle::new(small_opts());
        roomy.request(&submit_line("a", "j", "solve"));
        roomy.request("{\"op\":\"run\"}");
        let grown = roomy.cache_stats().bytes;
        assert!(grown > bundle, "the operators are charged");

        let mut h = ServeHandle::new(ServeOptions {
            cache_budget_bytes: (bundle + grown) / 2,
            ..small_opts()
        });
        let cached = |h: &mut ServeHandle| {
            let prep = h.service.cache.get(content_key(&spec));
            prep.expect("the bundle stays resident")
        };
        h.request(&submit_line("a", "first", "solve"));
        h.request("{\"op\":\"run\"}");
        let after_first = cached(&mut h);
        assert_eq!(h.cache_stats().bytes, bundle, "charged without operators");
        assert!(
            after_first.operators.contains_key(&BackendTag::Cluster),
            "the bundle records that its operators do not fit"
        );
        h.request(&submit_line("b", "second", "solve"));
        let r = h.request("{\"op\":\"run\"}");
        assert!(r[0].contains("\"cache\":\"hit\""), "{}", r[0]);
        assert!(Arc::ptr_eq(&after_first, &cached(&mut h)), "no re-insert");
        assert_eq!(h.cache_stats().bytes, bundle);
        let (first, second) = (h.take_outcome("a", "first"), h.take_outcome("b", "second"));
        let (first, second) = (first.expect("first"), second.expect("second"));
        assert!(!first.reused_operators && !second.reused_operators);
        assert_eq!(first.lambda, second.lambda, "λ bitwise");
    }

    #[test]
    fn malformed_line_yields_protocol_error_not_panic() {
        let mut h = ServeHandle::new(small_opts());
        let r = h.request("{\"op\":\"solve\",}");
        assert_eq!(r.len(), 1);
        assert!(r[0].contains("\"kind\":\"protocol\""), "{}", r[0]);
        // the service keeps working afterwards
        let r = h.request("{\"op\":\"stats\"}");
        assert!(r[0].contains("\"ok\":true"));
    }

    #[test]
    fn oversubscribing_job_is_rejected_at_admission() {
        // 1-device pool, tiny arena via a spec with minimal memory
        let spec = DeviceSpec {
            memory_bytes: 1 << 20,
            ..DeviceSpec::a100()
        };
        let mut h = ServeHandle::new(ServeOptions {
            pool: DevicePool::uniform(spec, 1, 1),
            ..ServeOptions::default()
        });
        let r = h.request(
            "{\"op\":\"solve\",\"tenant\":\"a\",\"job\":\"big\",\
             \"dim\":3,\"cells\":24,\"subs\":[2,2,2]}",
        );
        assert!(r[0].contains("\"kind\":\"admission\""), "{}", r[0]);
        // the same job on the host backend is admitted
        let r = h.request(
            "{\"op\":\"solve\",\"tenant\":\"a\",\"job\":\"big\",\
             \"dim\":3,\"cells\":24,\"subs\":[2,2,2],\"backend\":\"cpu\"}",
        );
        assert!(r[0].contains("\"event\":\"accepted\""), "{}", r[0]);
        let stats = h.tenant_stats();
        assert_eq!(stats[0].1.jobs_rejected, 1);
    }

    #[test]
    fn job_the_device_driver_cannot_place_is_rejected_at_dispatch() {
        // the submit-time proxy admits this job, but the driver's own
        // footprint estimate of its factors fits no 512 KiB arena
        let spec = DeviceSpec {
            memory_bytes: 1 << 20,
            ..DeviceSpec::a100()
        };
        let mut h = ServeHandle::new(ServeOptions {
            pool: DevicePool::uniform(spec, 1, 1),
            ..ServeOptions::default()
        });
        let r = h.request(
            "{\"op\":\"solve\",\"tenant\":\"a\",\"job\":\"j\",\"dim\":2,\"cells\":16,\"subs\":[2,2]}",
        );
        assert!(r[0].contains("\"event\":\"accepted\""), "{}", r[0]);
        let r = h.request("{\"op\":\"run\"}");
        assert_eq!(r.len(), 2, "one error line + one drained line: {r:?}");
        assert!(r[0].contains("\"kind\":\"admission\""), "{}", r[0]);
        assert!(
            r[0].contains("[0, 1, 2, 3]"),
            "names the subdomains: {}",
            r[0]
        );
        assert!(r[1].contains("\"jobs\":0"), "{}", r[1]);
        assert!(h.take_outcome("a", "j").is_none(), "the job did not run");
        assert_eq!(h.tenant_stats()[0].1.jobs_rejected, 1);
        // the service keeps serving: the same mesh on the host runs
        let r = h.request(
            "{\"op\":\"solve\",\"tenant\":\"a\",\"job\":\"host\",\"dim\":2,\"cells\":16,\
             \"subs\":[2,2],\"backend\":\"cpu\"}",
        );
        assert!(r[0].contains("\"event\":\"accepted\""), "{}", r[0]);
        let r = h.request("{\"op\":\"run\"}");
        assert!(r[0].contains("\"event\":\"done\""), "{}", r[0]);
        let out = h.take_outcome("a", "host").expect("the host job ran");
        assert!(out.iterations.expect("solve ran") > 0);
    }

    #[test]
    fn cpu_f64_assemble_job_goes_through_the_builder() {
        let mut h = ServeHandle::new(small_opts());
        let line =
            |job: &str| submit_line("a", job, "assemble").replace('}', ",\"backend\":\"cpu\"}");
        h.request(&line("a1"));
        h.request("{\"op\":\"run\"}");
        h.request(&line("a2"));
        let r = h.request("{\"op\":\"run\"}");
        assert!(r[0].contains("\"cache\":\"hit\""), "{}", r[0]);
        let s = h.cache_stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        for job in ["a1", "a2"] {
            let o = h.take_outcome("a", job).expect("outcome");
            assert!(o.iterations.is_none(), "assemble does not run PCPG");
            assert!(o.device_s > 0.0);
        }
    }

    #[test]
    fn serve_connection_speaks_the_wire_protocol() {
        let mut service = Service::new(small_opts());
        let input = format!(
            "{}\n{{\"op\":\"run\"}}\n{{\"op\":\"shutdown\"}}\n",
            submit_line("t", "j", "solve")
        );
        let mut reader = io::Cursor::new(input.into_bytes());
        let mut out: Vec<u8> = Vec::new();
        let shutdown =
            serve_connection(&mut reader, &mut out, &mut service).expect("pipe I/O is infallible");
        assert!(shutdown);
        let text = String::from_utf8(out).expect("responses are UTF-8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "accepted, done, drained, bye: {text}");
        assert!(lines[3].contains("bye"));
        // every response line is itself valid protocol JSON
        for (i, l) in lines.iter().enumerate() {
            parse_json_line(l.as_bytes(), i + 1).expect("valid JSON");
        }
    }

    /// Field `key` of a response line.
    fn field(line: &str, key: &str) -> JVal {
        let Ok(JVal::Obj(fields)) = parse_json_line(line.as_bytes(), 1) else {
            panic!("not a JSON object: {line}")
        };
        match fields.into_iter().find(|(k, _)| k == key) {
            Some((_, v)) => v,
            None => panic!("no {key}: {line}"),
        }
    }

    /// The `est_s` an `accepted` line quotes.
    fn est_s(line: &str) -> f64 {
        match field(line, "est_s") {
            JVal::Num(v) => v,
            other => panic!("est_s is not a number: {other:?}"),
        }
    }

    #[test]
    fn cpu_wall_seconds_never_price_a_cluster_job() {
        // the same mesh on both backends shares a content key; the realized
        // cost of a cpu job (host wall seconds) must not move the estimate
        // of a later cluster job (simulated device seconds)
        let cluster_est = |with_cpu_job: bool| {
            let mut h = ServeHandle::new(small_opts());
            h.request(&submit_line("a", "c1", "solve"));
            h.request("{\"op\":\"run\"}");
            if with_cpu_job {
                h.request(&submit_line("a", "h1", "solve").replace('}', ",\"backend\":\"cpu\"}"));
                h.request("{\"op\":\"run\"}");
            }
            est_s(&h.request(&submit_line("a", "c2", "solve"))[0])
        };
        let alone = cluster_est(false);
        assert!(alone > 0.0);
        assert_eq!(cluster_est(true).to_bits(), alone.to_bits());
    }

    #[test]
    fn a_budgeted_drain_dispatches_in_the_order_of_a_plain_one() {
        // a budget only says where a drain pauses: popping a job debits its
        // tenant's DRR deficit and moves the cursor on, so a job popped and
        // put back would be paid for twice and run late
        let submit_mix = |h: &mut ServeHandle| {
            for (tenant, cells) in [("a", 4), ("b", 6), ("c", 5)] {
                for i in 0..3 {
                    h.request(&format!(
                        "{{\"op\":\"assemble\",\"tenant\":\"{tenant}\",\"job\":\"{tenant}{i}\",\
                         \"dim\":2,\"cells\":{cells},\"subs\":[2,2]}}"
                    ));
                }
            }
        };
        let done_order = |lines: &[String]| -> Vec<(JVal, JVal)> {
            let done = lines.iter().filter(|l| l.contains("\"event\":\"done\""));
            done.map(|l| (field(l, "tenant"), field(l, "job")))
                .collect()
        };
        let mut plain = ServeHandle::new(small_opts());
        submit_mix(&mut plain);
        let reference = plain.request("{\"op\":\"run\"}");

        let mut split = ServeHandle::new(small_opts());
        submit_mix(&mut split);
        let mut lines = Vec::new();
        for step in 1..=4 {
            // below any job's device-seconds: each budgeted run dispatches one
            lines.extend(split.request("{\"op\":\"run\",\"budget_s\":1e-12}"));
            assert_eq!(done_order(&lines).len(), step);
        }
        lines.extend(split.request("{\"op\":\"run\"}"));
        assert_eq!(done_order(&lines), done_order(&reference));
    }

    #[test]
    fn largest_3d_job_is_rejected_without_overflow() {
        let mut h = ServeHandle::new(small_opts());
        let r = h.request(
            "{\"op\":\"solve\",\"tenant\":\"a\",\"job\":\"max\",\
             \"dim\":3,\"cells\":4096,\"subs\":[1,1,1]}",
        );
        assert!(r[0].contains("\"kind\":\"admission\""), "{}", r[0]);
    }

    #[test]
    fn non_utf8_input_is_a_protocol_error() {
        let mut service = Service::new(small_opts());
        let (lines, shutdown) = service.handle_line(&[0xff, 0xfe, b'{', b'}', b'\n']);
        assert!(!shutdown);
        assert!(lines[0].contains("\"kind\":\"protocol\""), "{}", lines[0]);
    }
}
