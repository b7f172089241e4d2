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

use sc_core::{assemble_sc_with_cache, Backend, CpuExec, Precision, ScConfig, SessionCacheStats};
use sc_feti::{FetiOptions, FetiSolverBuilder, FormulationChoice};
use sc_gpu::{DevicePool, DeviceSpec};

use crate::cache::{content_key, prepare, PreparedCache};
use crate::protocol::{
    parse_request, write_json_f64, write_json_str, BackendTag, JobKind, JobRequest, MeshSpec,
    PrecisionTag, Request,
};
use crate::scheduler::{estimate_job_seconds, QueuedJob, Scheduler, TenantStats};

/// Service configuration.
#[derive(Clone)]
pub struct ServeOptions {
    /// The shared (simulated) device pool all cluster jobs run on.
    pub pool: Arc<DevicePool>,
    /// Byte budget of the cross-session prepared-state cache.
    pub cache_budget_bytes: usize,
    /// DRR credit per tenant visit, in device-seconds. Must sit well below
    /// the cost of the smallest expected job, or deficit round-robin
    /// degenerates into one-job-per-visit round-robin and coarse-job
    /// tenants are over-served (the §4.4 estimates for the served mesh
    /// family bottom out around `3e-7 s`).
    pub quantum_s: f64,
    /// Retain full [`JobOutcome`]s (λ, per-subdomain u) for in-process
    /// retrieval. Off for the wire front-ends — a long-lived server must
    /// not grow per-job memory.
    pub keep_results: bool,
    /// Factorization/PCPG options shared by every job.
    pub feti: FetiOptions,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            pool: DevicePool::uniform(DeviceSpec::a100(), 2, 2),
            cache_budget_bytes: 256 << 20,
            quantum_s: 1e-7,
            keep_results: false,
            feti: FetiOptions::default(),
        }
    }
}

/// What one executed job produced (retained when
/// [`ServeOptions::keep_results`] is set).
#[derive(Clone, Debug)]
pub struct JobOutcome {
    pub tenant: String,
    pub job: String,
    pub kind: JobKind,
    /// Whether the prepared state came out of the cross-session cache.
    pub cache_hit: bool,
    /// Wall seconds spent preparing (0.0 on a hit).
    pub prep_s: f64,
    /// Realized device-seconds billed to the tenant.
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
    results: HashMap<(String, String), JobOutcome>,
    /// Measured-rate calibration of the submit-time cost estimates:
    /// running mean of realized device-seconds per (content key, job
    /// kind). The closed-form §4.4 estimate prices a job the service has
    /// never run; once a key has completed, its realized cost replaces the
    /// model, so the fair scheduler divides device-seconds tenants
    /// actually consume, not what the nominal rate predicts.
    realized: HashMap<(u64, JobKind), (f64, usize)>,
}

impl Service {
    pub fn new(opts: ServeOptions) -> Self {
        let cache = PreparedCache::new(opts.cache_budget_bytes);
        let sched = Scheduler::new(opts.quantum_s);
        Service {
            opts,
            cache,
            sched,
            line_no: 0,
            results: HashMap::new(),
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
            let mut s = String::from("{\"ok\":false,\"error\":{\"kind\":\"admission\",\"line\":");
            s.push_str(&self.line_no.to_string());
            s.push_str(",\"msg\":");
            write_json_str(&mut s, &msg);
            s.push_str("}}");
            return s;
        }
        let key = content_key(&job.spec, job.precision, &self.opts.feti);
        let est = match self.realized.get(&(key, job.kind)) {
            Some((mean, _)) => *mean,
            None => estimate_job_seconds(&job.spec),
        };
        let op = op_name(job.kind);
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
    /// cannot fit the largest device arena would deadlock the batch
    /// driver's spill logic at best — reject it up front, analytically,
    /// before any preprocessing is spent on it.
    fn admit(&self, job: &JobRequest) -> Result<(), String> {
        if job.backend == BackendTag::Cpu {
            return Ok(()); // host jobs never touch the arena
        }
        let need = working_set_bytes(&job.spec, job.precision);
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
        while let Some((tenant, qj)) = self.sched.pop_next() {
            if let Some(budget) = budget_s {
                if spent >= budget {
                    self.sched.requeue_front(&tenant, qj);
                    break;
                }
            }
            let outcome = self.execute(&tenant, &qj);
            self.sched.complete(
                &tenant,
                &qj,
                outcome.device_s,
                outcome.prep_s,
                outcome.cache_hit,
            );
            let (mean, n) = self
                .realized
                .entry((qj.key, qj.req.kind))
                .or_insert((0.0, 0));
            *n += 1;
            *mean += (outcome.device_s - *mean) / *n as f64; // sc-analyze: allow(precision-discipline)
            spent += outcome.device_s;
            drained += 1;
            lines.push(done_line(&outcome));
            if self.opts.keep_results {
                self.results
                    .insert((outcome.tenant.clone(), outcome.job.clone()), outcome);
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
    fn execute(&mut self, tenant: &str, qj: &QueuedJob) -> JobOutcome {
        let req = &qj.req;
        // Cache lookup happens at dispatch, not submit: an entry evicted
        // while the job queued is simply re-prepared here.
        let (prep, cache_hit, prep_s) = match self.cache.get(qj.key) {
            Some(p) => (p, true, 0.0),
            None => {
                let t0 = Instant::now();
                let built = Arc::new(prepare(&req.spec, &self.opts.feti));
                let secs = t0.elapsed().as_secs_f64();
                let bytes = built.bytes;
                self.cache.insert(qj.key, Arc::clone(&built), bytes);
                (built, false, secs)
            }
        };
        let mut outcome = JobOutcome {
            tenant: tenant.to_string(),
            job: req.job.clone(),
            kind: req.kind,
            cache_hit,
            prep_s,
            device_s: 0.0,
            iterations: None,
            rel_residual: None,
            lambda: None,
            u_locals: None,
        };

        // Fast path: a pure-f64 host assembly can run straight against the
        // cached factors and the bundle's shared block-cut resolutions —
        // no solver build, no device pool.
        if req.kind == JobKind::Assemble
            && req.backend == BackendTag::Cpu
            && req.precision == PrecisionTag::F64
        {
            let t0 = Instant::now();
            let cfg = ScConfig::Auto;
            for f in prep.factors.iter() {
                let l = f.chol.factor_csc_ref();
                let _f_tilde =
                    assemble_sc_with_cache(&mut CpuExec, l, &f.bt_perm, &cfg, Some(&prep.cuts));
            }
            outcome.device_s = t0.elapsed().as_secs_f64();
            return outcome;
        }

        let backend = match req.backend {
            BackendTag::Cluster => {
                // deterministic device state per job: stream clocks and
                // arenas from a previous tenant's job must not leak in
                self.opts.pool.reset_all();
                Backend::cluster(Arc::clone(&self.opts.pool))
            }
            BackendTag::Cpu => Backend::cpu(),
        }
        .precision(precision_of(req.precision));

        let t0 = Instant::now();
        let solver = FetiSolverBuilder::new()
            .options(self.opts.feti.clone())
            .backend(backend)
            .formulation(FormulationChoice::Explicit)
            .assembly(ScConfig::Auto)
            .factors(Arc::clone(&prep.factors))
            .build(&prep.problem);
        outcome.device_s = match solver.report() {
            Some(r) if r.makespan > 0.0 => r.makespan,
            Some(r) => r.total_seconds,
            None => t0.elapsed().as_secs_f64(),
        };
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
        outcome
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

fn op_name(kind: JobKind) -> &'static str {
    match kind {
        JobKind::Assemble => "assemble",
        JobKind::Solve => "solve",
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

/// Analytic per-subdomain working-set proxy for admission: the dense
/// triangular-solve result `Y` (`n × m`) plus the assembled `F̃` tile
/// (`m × m`) at the working precision's width.
fn working_set_bytes(spec: &MeshSpec, precision: PrecisionTag) -> usize {
    let n = (spec.cells + 1).pow(u32::from(spec.dim));
    let m = if spec.dim == 2 {
        4 * (spec.cells + 1)
    } else {
        6 * (spec.cells + 1) * (spec.cells + 1)
    };
    let width = match precision {
        PrecisionTag::F64 => 8,
        PrecisionTag::F32Refined => 4,
    };
    width * (n * m + m * m)
}

fn done_line(o: &JobOutcome) -> String {
    let mut s = String::from("{\"ok\":true,\"event\":\"done\",\"tenant\":");
    write_json_str(&mut s, &o.tenant);
    s.push_str(",\"job\":");
    write_json_str(&mut s, &o.job);
    s.push_str(",\"op\":");
    write_json_str(&mut s, op_name(o.kind));
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
    pub fn new(mut opts: ServeOptions) -> Self {
        opts.keep_results = true;
        ServeHandle {
            service: Service::new(opts),
        }
    }

    /// Submit one protocol line; returns the response lines.
    pub fn request(&mut self, line: &str) -> Vec<String> {
        self.service.handle_line(line.as_bytes()).0
    }

    /// Take (and remove) the retained outcome of a completed job.
    pub fn take_outcome(&mut self, tenant: &str, job: &str) -> Option<JobOutcome> {
        self.service
            .results
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
    fn cpu_assemble_fast_path_warms_the_cut_cache() {
        let mut h = ServeHandle::new(small_opts());
        let line = submit_line("a", "a1", "assemble").replace('}', ",\"backend\":\"cpu\"}");
        h.request(&line);
        h.request("{\"op\":\"run\"}");
        let o = h.take_outcome("a", "a1").expect("outcome");
        assert!(o.iterations.is_none(), "assemble does not run PCPG");
        assert!(o.device_s > 0.0);
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
            crate::protocol::parse_json_line(l.as_bytes(), i + 1).expect("valid JSON");
        }
    }

    #[test]
    fn non_utf8_input_is_a_protocol_error() {
        let mut service = Service::new(small_opts());
        let (lines, shutdown) = service.handle_line(&[0xff, 0xfe, b'{', b'}', b'\n']);
        assert!(!shutdown);
        assert!(lines[0].contains("\"kind\":\"protocol\""), "{}", lines[0]);
    }
}
