//! The JSON-lines job-intake protocol: typed requests, their field-accurate
//! decoding, and a canonical single-line encoder.
//!
//! One request per line, one (or more, for `run`) response lines back. The
//! syntax layer (parser, [`ProtoError`], writer helpers) lives in
//! [`crate::json`]; this module turns a parsed line into a [`Request`],
//! rejecting unknown fields and out-of-range values with an error naming
//! the field.

use std::fmt::Display;

use sc_fem::Gluing;

use crate::json::{parse_json_line, write_json_f64, write_json_str, JVal, ProtoError};

/// The wire spelling of a protocol enum: one table per type, read by
/// decoding, [`encode_request`], the cache's content key and the response
/// lines alike.
pub(crate) trait WireName: Copy + PartialEq + 'static {
    /// Every `(name, value)` pair; the first entry is the default when the
    /// field is absent.
    const NAMES: &'static [(&'static str, Self)];

    /// The value spelled `name`, if any.
    fn from_name(name: &str) -> Option<Self> {
        Self::NAMES
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// This value's wire name.
    fn name(self) -> &'static str {
        Self::NAMES
            .iter()
            .find(|(_, v)| *v == self)
            .map(|&(n, _)| n)
            .expect("every variant has a wire name")
    }
}

/// What a job does once scheduled.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum JobKind {
    /// Preprocess + assemble the explicit dual operators; no PCPG run.
    Assemble,
    /// Preprocess, assemble, and solve (optionally with scaled loads).
    Solve,
}

impl WireName for JobKind {
    const NAMES: &'static [(&'static str, Self)] =
        &[("assemble", JobKind::Assemble), ("solve", JobKind::Solve)];
}

impl WireName for Gluing {
    const NAMES: &'static [(&'static str, Self)] =
        &[("redundant", Gluing::Redundant), ("chain", Gluing::Chain)];
}

/// Working precision selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PrecisionTag {
    /// Full `f64`.
    F64,
    /// `f32` inner applies of the `f64`-assembled operators under `f64`
    /// iterative refinement.
    F32Refined,
}

impl WireName for PrecisionTag {
    const NAMES: &'static [(&'static str, Self)] = &[
        ("f64", PrecisionTag::F64),
        ("f32_refined", PrecisionTag::F32Refined),
    ];
}

/// Execution target selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BackendTag {
    /// The shared simulated-GPU device pool (the service default).
    Cluster,
    /// Host-only assembly (no pool devices touched).
    Cpu,
}

impl WireName for BackendTag {
    const NAMES: &'static [(&'static str, Self)] =
        &[("cluster", BackendTag::Cluster), ("cpu", BackendTag::Cpu)];
}

/// The mesh/decomposition content of a job — what the session cache keys
/// on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MeshSpec {
    /// 2 or 3.
    pub dim: u8,
    /// Cells per subdomain edge.
    pub cells: usize,
    /// Subdomain grid (`sz = 1` for 2D).
    pub subs: (usize, usize, usize),
    /// Gluing of the decomposition.
    pub gluing: Gluing,
}

/// One queued unit of work (`op: "assemble"` / `op: "solve"`).
#[derive(Clone, Debug, PartialEq)]
pub struct JobRequest {
    pub kind: JobKind,
    /// Tenant the job bills to.
    pub tenant: String,
    /// Caller-chosen id, unique per tenant among queued jobs.
    pub job: String,
    pub spec: MeshSpec,
    pub precision: PrecisionTag,
    pub backend: BackendTag,
    /// Load scale of a solve (`f → scale · f`); 1.0 = the problem's own.
    pub scale: f64,
    /// Updates the tenant's fair-share weight when present (> 0).
    pub weight: Option<f64>,
    /// Expire the job if its queue wait exceeds this (virtual seconds).
    pub timeout_s: Option<f64>,
}

/// A decoded protocol request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    Submit(JobRequest),
    /// Drain queued jobs in fair-share order; stop once realized
    /// device-seconds exceed the budget (when given).
    Run {
        budget_s: Option<f64>,
    },
    Cancel {
        tenant: String,
        job: String,
    },
    Stats,
    Shutdown,
}

struct FieldReader {
    line: usize,
    fields: Vec<(String, JVal)>,
}

impl FieldReader {
    fn new(v: JVal, line: usize) -> Result<Self, ProtoError> {
        match v {
            JVal::Obj(fields) => Ok(FieldReader { line, fields }),
            other => Err(ProtoError::syntax(
                line,
                format!("request must be an object, got {}", other.type_name()),
            )),
        }
    }

    fn take(&mut self, name: &str) -> Option<JVal> {
        let i = self.fields.iter().position(|(k, _)| k == name)?;
        Some(self.fields.remove(i).1)
    }

    fn req_str(&mut self, name: &str) -> Result<String, ProtoError> {
        match self.take(name) {
            Some(JVal::Str(s)) => Ok(s),
            Some(v) => Err(ProtoError::field(
                self.line,
                name,
                format!("expected string, got {}", v.type_name()),
            )),
            None => Err(ProtoError::field(self.line, name, "missing required field")),
        }
    }

    fn req_usize(&mut self, name: &str) -> Result<usize, ProtoError> {
        match self.take(name) {
            Some(JVal::Int(i)) if i >= 0 => Ok(i as usize),
            Some(v) => Err(ProtoError::field(
                self.line,
                name,
                format!("expected unsigned integer, got {}", describe(&v)),
            )),
            None => Err(ProtoError::field(self.line, name, "missing required field")),
        }
    }

    fn opt_f64(&mut self, name: &str) -> Result<Option<f64>, ProtoError> {
        match self.take(name) {
            None => Ok(None),
            Some(JVal::Num(v)) if v.is_finite() => Ok(Some(v)),
            Some(JVal::Int(i)) => Ok(Some(i as f64)), // sc-analyze: allow(precision-discipline)
            Some(v) => Err(ProtoError::field(
                self.line,
                name,
                format!("expected finite number, got {}", describe(&v)),
            )),
        }
    }

    /// An optional enum field, spelled as in `T`'s wire-name table; absent
    /// means the table's first entry.
    fn opt_tag<T: WireName>(&mut self, name: &str) -> Result<T, ProtoError> {
        let s = match self.take(name) {
            None => return Ok(T::NAMES[0].1),
            Some(JVal::Str(s)) => s,
            Some(v) => {
                return Err(ProtoError::field(
                    self.line,
                    name,
                    format!("expected string, got {}", v.type_name()),
                ))
            }
        };
        T::from_name(&s).ok_or_else(|| {
            let names: Vec<String> = T::NAMES.iter().map(|(n, _)| format!("\"{n}\"")).collect();
            ProtoError::field(
                self.line,
                name,
                format!("expected {}, got \"{s}\"", names.join(" or ")),
            )
        })
    }

    /// Bound-check a decoded value: unless `ok`, the field's error reads
    /// "must be {rule}, got {v}".
    fn check(&self, name: &str, v: impl Display, ok: bool, rule: &str) -> Result<(), ProtoError> {
        if ok {
            return Ok(());
        }
        Err(ProtoError::field(
            self.line,
            name,
            format!("must be {rule}, got {v}"),
        ))
    }

    fn finish(self) -> Result<(), ProtoError> {
        if let Some((k, _)) = self.fields.first() {
            return Err(ProtoError::field(self.line, k.clone(), "unknown field"));
        }
        Ok(())
    }
}

fn describe(v: &JVal) -> String {
    match v {
        JVal::Int(i) => format!("integer {i}"),
        JVal::Num(n) => format!("number {n}"),
        other => other.type_name().to_string(),
    }
}

/// Decode the fields of an `assemble` / `solve` request.
fn decode_job(r: &mut FieldReader, kind: JobKind) -> Result<JobRequest, ProtoError> {
    let line_no = r.line;
    let tenant = r.req_str("tenant")?;
    if tenant.is_empty() {
        return Err(ProtoError::field(line_no, "tenant", "must be non-empty"));
    }
    let job = r.req_str("job")?;
    if job.is_empty() {
        return Err(ProtoError::field(line_no, "job", "must be non-empty"));
    }
    let dim = r.req_usize("dim")?;
    r.check("dim", dim, dim == 2 || dim == 3, "2 or 3")?;
    let cells = r.req_usize("cells")?;
    r.check("cells", cells, (1..=4096).contains(&cells), "in 1..=4096")?;
    let subs = match r.take("subs") {
        Some(JVal::Arr(items)) => {
            if items.len() != dim {
                return Err(ProtoError::field(
                    line_no,
                    "subs",
                    format!("expected {dim} entries for dim {dim}, got {}", items.len()),
                ));
            }
            let mut out = [1usize; 3];
            for (i, item) in items.iter().enumerate() {
                match item {
                    JVal::Int(v) if *v >= 1 && *v <= 4096 => out[i] = *v as usize,
                    other => {
                        return Err(ProtoError::field(
                            line_no,
                            format!("subs[{i}]"),
                            format!("expected integer in 1..=4096, got {}", describe(other)),
                        ))
                    }
                }
            }
            (out[0], out[1], out[2])
        }
        Some(v) => {
            return Err(ProtoError::field(
                line_no,
                "subs",
                format!("expected array, got {}", v.type_name()),
            ))
        }
        None => return Err(ProtoError::field(line_no, "subs", "missing required field")),
    };
    let gluing = r.opt_tag("gluing")?;
    let precision = r.opt_tag("precision")?;
    let backend = r.opt_tag("backend")?;
    let scale = r.opt_f64("scale")?.unwrap_or(1.0);
    let weight = r.opt_f64("weight")?;
    if let Some(w) = weight {
        r.check("weight", w, w > 0.0, "positive")?;
    }
    let timeout_s = r.opt_f64("timeout_s")?;
    if let Some(t) = timeout_s {
        r.check("timeout_s", t, t >= 0.0, "non-negative")?;
    }
    Ok(JobRequest {
        kind,
        tenant,
        job,
        spec: MeshSpec {
            dim: dim as u8,
            cells,
            subs,
            gluing,
        },
        precision,
        backend,
        scale,
        weight,
        timeout_s,
    })
}

/// Decode one syntactically parsed line into a typed [`Request`].
fn decode_request(v: JVal, line_no: usize) -> Result<Request, ProtoError> {
    let mut r = FieldReader::new(v, line_no)?;
    let op = r.req_str("op")?;
    let req = match op.as_str() {
        "run" => {
            let budget_s = r.opt_f64("budget_s")?;
            if let Some(b) = budget_s {
                r.check("budget_s", b, b >= 0.0, "non-negative")?;
            }
            Request::Run { budget_s }
        }
        "cancel" => Request::Cancel {
            tenant: r.req_str("tenant")?,
            job: r.req_str("job")?,
        },
        "stats" => Request::Stats,
        "shutdown" => Request::Shutdown,
        other => match JobKind::from_name(other) {
            Some(kind) => Request::Submit(decode_job(&mut r, kind)?),
            None => {
                return Err(ProtoError::field(
                    line_no,
                    "op",
                    format!(
                        "unknown op \"{other}\" (expected assemble, solve, run, cancel, stats, shutdown)"
                    ),
                ))
            }
        },
    };
    r.finish()?;
    Ok(req)
}

/// Parse + decode one request line.
pub fn parse_request(line: &[u8], line_no: usize) -> Result<Request, ProtoError> {
    decode_request(parse_json_line(line, line_no)?, line_no)
}

/// Canonical single-line encoding of a request — `parse_request` of the
/// result yields an equal [`Request`] (the lossless round trip the intake
/// proptests pin).
pub fn encode_request(req: &Request) -> String {
    let mut s = String::new();
    match req {
        Request::Submit(j) => {
            s.push_str("{\"op\":");
            write_json_str(&mut s, j.kind.name());
            s.push_str(",\"tenant\":");
            write_json_str(&mut s, &j.tenant);
            s.push_str(",\"job\":");
            write_json_str(&mut s, &j.job);
            s.push_str(&format!(",\"dim\":{}", j.spec.dim));
            s.push_str(&format!(",\"cells\":{}", j.spec.cells));
            let (sx, sy, sz) = j.spec.subs;
            if j.spec.dim == 2 {
                s.push_str(&format!(",\"subs\":[{sx},{sy}]"));
            } else {
                s.push_str(&format!(",\"subs\":[{sx},{sy},{sz}]"));
            }
            s.push_str(",\"gluing\":");
            write_json_str(&mut s, j.spec.gluing.name());
            s.push_str(",\"precision\":");
            write_json_str(&mut s, j.precision.name());
            s.push_str(",\"backend\":");
            write_json_str(&mut s, j.backend.name());
            s.push_str(",\"scale\":");
            write_json_f64(&mut s, j.scale);
            if let Some(w) = j.weight {
                s.push_str(",\"weight\":");
                write_json_f64(&mut s, w);
            }
            if let Some(t) = j.timeout_s {
                s.push_str(",\"timeout_s\":");
                write_json_f64(&mut s, t);
            }
            s.push('}');
        }
        Request::Run { budget_s } => {
            s.push_str("{\"op\":\"run\"");
            if let Some(b) = budget_s {
                s.push_str(",\"budget_s\":");
                write_json_f64(&mut s, *b);
            }
            s.push('}');
        }
        Request::Cancel { tenant, job } => {
            s.push_str("{\"op\":\"cancel\",\"tenant\":");
            write_json_str(&mut s, tenant);
            s.push_str(",\"job\":");
            write_json_str(&mut s, job);
            s.push('}');
        }
        Request::Stats => s.push_str("{\"op\":\"stats\"}"),
        Request::Shutdown => s.push_str("{\"op\":\"shutdown\"}"),
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_assemble_parses() {
        let line = br#"{"op":"assemble","tenant":"a","job":"j1","dim":2,"cells":4,"subs":[2,2]}"#;
        let req = parse_request(line, 1).unwrap();
        let Request::Submit(j) = req else {
            panic!("expected submit")
        };
        assert_eq!(j.kind, JobKind::Assemble);
        assert_eq!(j.spec.subs, (2, 2, 1));
        assert_eq!(j.precision, PrecisionTag::F64);
        assert!((j.scale - 1.0).abs() < 1e-15);
    }

    #[test]
    fn unknown_field_names_the_field() {
        let line = br#"{"op":"stats","bogus":1}"#;
        let err = parse_request(line, 7).unwrap_err();
        assert_eq!(err.line, 7);
        assert_eq!(err.field.as_deref(), Some("bogus"));
    }

    #[test]
    fn wrong_subs_arity_is_field_accurate() {
        let line = br#"{"op":"solve","tenant":"a","job":"j","dim":3,"cells":2,"subs":[2,2]}"#;
        let err = parse_request(line, 2).unwrap_err();
        assert_eq!(err.field.as_deref(), Some("subs"));
        assert!(err.msg.contains("expected 3 entries"));
    }

    #[test]
    fn encode_decode_round_trip() {
        let req = Request::Submit(JobRequest {
            kind: JobKind::Solve,
            tenant: "tenant-β".into(),
            job: "job \"quoted\"".into(),
            spec: MeshSpec {
                dim: 3,
                cells: 5,
                subs: (2, 3, 1),
                gluing: Gluing::Chain,
            },
            precision: PrecisionTag::F32Refined,
            backend: BackendTag::Cpu,
            scale: 2.25,
            weight: Some(0.5),
            timeout_s: Some(1.75),
        });
        let line = encode_request(&req);
        assert_eq!(parse_request(line.as_bytes(), 1).unwrap(), req);
    }

    /// Every variant of `T` (listed by the caller) has a table entry that
    /// spells it back to itself.
    fn check_names<T: WireName + std::fmt::Debug>(variants: &[T]) {
        for &v in variants {
            assert_eq!(T::from_name(v.name()), Some(v), "{v:?}");
        }
        assert_eq!(T::NAMES.len(), variants.len());
    }

    #[test]
    fn every_variant_has_a_wire_name() {
        // The exhaustive matches make a new variant a compile error here
        // until it is listed, and `check_names` then needs a table entry.
        let job = |k: JobKind| match k {
            JobKind::Assemble | JobKind::Solve => k,
        };
        check_names(&[job(JobKind::Assemble), job(JobKind::Solve)]);
        let gluing = |g: Gluing| match g {
            Gluing::Redundant | Gluing::Chain => g,
        };
        check_names(&[gluing(Gluing::Redundant), gluing(Gluing::Chain)]);
        let precision = |p: PrecisionTag| match p {
            PrecisionTag::F64 | PrecisionTag::F32Refined => p,
        };
        check_names(&[
            precision(PrecisionTag::F64),
            precision(PrecisionTag::F32Refined),
        ]);
        let backend = |b: BackendTag| match b {
            BackendTag::Cluster | BackendTag::Cpu => b,
        };
        check_names(&[backend(BackendTag::Cluster), backend(BackendTag::Cpu)]);
    }
}
