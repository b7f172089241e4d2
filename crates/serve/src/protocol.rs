//! The JSON-lines job-intake protocol: a strict hand-rolled parser with
//! line/field-accurate errors, typed request decoding, and a canonical
//! single-line writer.
//!
//! One request per line, one (or more, for `run`) response lines back. The
//! writer is compact with a deterministic field order.
//!
//! Strictness is the point: the parser rejects trailing garbage, duplicate
//! keys, unknown fields, lone surrogates and over-deep nesting with a
//! structured [`ProtoError`] naming the line and (for decode errors) the
//! field — never a panic, which the fuzz proptests in `tests/intake.rs`
//! pin on arbitrary byte streams.

use std::fmt;

/// Nesting depth cap: recursion on attacker-controlled input must be
/// bounded or a line of ten thousand `[`s overflows the stack.
const MAX_DEPTH: usize = 32;

/// Hard cap on request line length (1 MiB): a session server must bound
/// per-request memory before parsing anything.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// A structured protocol error: which line of the session stream, which
/// field (when decoding a syntactically valid request), and what went wrong.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtoError {
    /// 1-based line number in the session stream.
    pub line: usize,
    /// Dotted field path for decode errors (`"subs[1]"`, `"cells"`);
    /// `None` for lexical/syntax errors.
    pub field: Option<String>,
    /// Human-readable cause.
    pub msg: String,
}

impl ProtoError {
    fn syntax(line: usize, msg: impl Into<String>) -> Self {
        ProtoError {
            line,
            field: None,
            msg: msg.into(),
        }
    }

    fn field(line: usize, field: impl Into<String>, msg: impl Into<String>) -> Self {
        ProtoError {
            line,
            field: Some(field.into()),
            msg: msg.into(),
        }
    }

    /// The error as a protocol response line.
    pub fn to_response(&self) -> String {
        let mut s = String::from("{\"ok\":false,\"error\":{\"kind\":\"protocol\",\"line\":");
        s.push_str(&self.line.to_string());
        if let Some(f) = &self.field {
            s.push_str(",\"field\":");
            write_json_str(&mut s, f);
        }
        s.push_str(",\"msg\":");
        write_json_str(&mut s, &self.msg);
        s.push_str("}}");
        s
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.field {
            Some(fld) => write!(f, "line {}, field \"{}\": {}", self.line, fld, self.msg),
            None => write!(f, "line {}: {}", self.line, self.msg),
        }
    }
}

/// Parsed JSON value. Integers without fraction/exponent that fit `i64`
/// stay exact ([`JVal::Int`]); objects keep insertion order so a parse →
/// write round trip is stable.
#[derive(Clone, Debug, PartialEq)]
pub enum JVal {
    Null,
    Bool(bool),
    Int(i64),
    Num(f64),
    Str(String),
    Arr(Vec<JVal>),
    Obj(Vec<(String, JVal)>),
}

impl JVal {
    fn type_name(&self) -> &'static str {
        match self {
            JVal::Null => "null",
            JVal::Bool(_) => "bool",
            JVal::Int(_) => "integer",
            JVal::Num(_) => "number",
            JVal::Str(_) => "string",
            JVal::Arr(_) => "array",
            JVal::Obj(_) => "object",
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> ProtoError {
        ProtoError::syntax(self.line, format!("{} (byte {})", msg.into(), self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, want: u8) -> Result<(), ProtoError> {
        match self.bump() {
            Some(b) if b == want => Ok(()),
            Some(b) => Err(self.err(format!(
                "expected '{}', found '{}'",
                want as char,
                printable(b)
            ))),
            None => Err(self.err(format!("expected '{}', found end of line", want as char))),
        }
    }

    fn value(&mut self, depth: usize) -> Result<JVal, ProtoError> {
        if depth > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.skip_ws();
        match self.peek() {
            None => Err(self.err("expected a value, found end of line")),
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JVal::Str(self.string()?)),
            Some(b't') => self.keyword("true", JVal::Bool(true)),
            Some(b'f') => self.keyword("false", JVal::Bool(false)),
            Some(b'n') => self.keyword("null", JVal::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(self.err(format!("unexpected character '{}'", printable(b)))),
        }
    }

    fn keyword(&mut self, word: &str, val: JVal) -> Result<JVal, ProtoError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(val)
        } else {
            Err(self.err(format!("invalid keyword (expected \"{word}\")")))
        }
    }

    fn object(&mut self, depth: usize) -> Result<JVal, ProtoError> {
        self.expect_byte(b'{')?;
        let mut fields: Vec<(String, JVal)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JVal::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string().map_err(|e| ProtoError {
                msg: format!("object key: {}", e.msg),
                ..e
            })?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(ProtoError::field(self.line, key, "duplicate key"));
            }
            self.skip_ws();
            self.expect_byte(b':')?;
            let val = self.value(depth + 1)?;
            fields.push((key, val));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(JVal::Obj(fields)),
                Some(b) => {
                    return Err(self.err(format!(
                        "expected ',' or '}}' in object, found '{}'",
                        printable(b)
                    )))
                }
                None => return Err(self.err("unterminated object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JVal, ProtoError> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JVal::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(JVal::Arr(items)),
                Some(b) => {
                    return Err(self.err(format!(
                        "expected ',' or ']' in array, found '{}'",
                        printable(b)
                    )))
                }
                None => return Err(self.err("unterminated array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ProtoError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    None => return Err(self.err("unterminated escape")),
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hi = self.hex4()?;
                        let c = if (0xD800..0xDC00).contains(&hi) {
                            // high surrogate: require a low surrogate next
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(self.err("lone high surrogate"));
                            }
                            let lo = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(self.err("invalid low surrogate"));
                            }
                            let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                            char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?
                        } else if (0xDC00..0xE000).contains(&hi) {
                            return Err(self.err("lone low surrogate"));
                        } else {
                            char::from_u32(hi).ok_or_else(|| self.err("invalid code point"))?
                        };
                        out.push(c);
                    }
                    Some(b) => return Err(self.err(format!("invalid escape '\\{}'", printable(b)))),
                },
                Some(b) if b < 0x20 => {
                    return Err(self.err("unescaped control character in string"))
                }
                Some(b) if b < 0x80 => out.push(b as char),
                Some(b) => {
                    // re-validate multi-byte UTF-8 from the raw bytes
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    if len == 0 || start + len > self.bytes.len() {
                        return Err(self.err("invalid UTF-8 in string"));
                    }
                    let s = std::str::from_utf8(&self.bytes[start..start + len])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    out.push_str(s);
                    self.pos = start + len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ProtoError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self
                .bump()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("non-hex digit in \\u escape"))?;
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<JVal, ProtoError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_digits = self.digits()?;
        if int_digits > 1
            && self.bytes[if start == self.pos - int_digits {
                start
            } else {
                start + 1
            }] == b'0'
        {
            return Err(self.err("leading zero in number"));
        }
        let mut is_int = true;
        if self.peek() == Some(b'.') {
            is_int = false;
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_int = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number tokens are pure ASCII");
        if is_int {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(JVal::Int(i));
            }
        }
        let v: f64 = text
            .parse()
            .map_err(|_| self.err(format!("invalid number \"{text}\"")))?;
        if !v.is_finite() {
            return Err(self.err(format!("number \"{text}\" overflows to infinity")));
        }
        Ok(JVal::Num(v))
    }

    fn digits(&mut self) -> Result<usize, ProtoError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a digit"));
        }
        Ok(self.pos - start)
    }
}

fn printable(b: u8) -> String {
    if (0x20..0x7f).contains(&b) {
        (b as char).to_string()
    } else {
        format!("\\x{b:02x}")
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0xC2..=0xDF => 2,
        0xE0..=0xEF => 3,
        0xF0..=0xF4 => 4,
        _ => 0,
    }
}

/// Parse one line into a [`JVal`], rejecting trailing garbage. `line_no` is
/// the 1-based position in the session stream, carried into errors.
pub fn parse_json_line(line: &[u8], line_no: usize) -> Result<JVal, ProtoError> {
    if line.len() > MAX_LINE_BYTES {
        return Err(ProtoError::syntax(
            line_no,
            format!("request longer than {MAX_LINE_BYTES} bytes"),
        ));
    }
    let mut p = Parser {
        bytes: line,
        pos: 0,
        line: line_no,
    };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != line.len() {
        return Err(p.err("trailing garbage after value"));
    }
    Ok(v)
}

/// Escape + quote a string into `out` (writer side).
pub fn write_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Write an `f64` in Rust's shortest round-trip form (the property the
/// lossless round-trip proptest relies on). Non-finite values must be
/// rejected before they reach the writer.
pub fn write_json_f64(out: &mut String, v: f64) {
    debug_assert!(v.is_finite(), "non-finite numbers are not valid JSON");
    let s = format!("{v}");
    out.push_str(&s);
    // "5" alone would re-parse as Int; keep the float-ness explicit
    if !s.contains('.') && !s.contains('e') && !s.contains('E') {
        out.push_str(".0");
    }
}

// ---------------------------------------------------------------------------
// Typed requests
// ---------------------------------------------------------------------------

/// What a job does once scheduled.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum JobKind {
    /// Preprocess + assemble the explicit dual operators; no PCPG run.
    Assemble,
    /// Preprocess, assemble, and solve (optionally with scaled loads).
    Solve,
}

/// Subdomain gluing selector (mirrors `sc_fem::Gluing`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GluingTag {
    Redundant,
    Chain,
}

/// Working precision selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PrecisionTag {
    /// Full `f64`.
    F64,
    /// `f32` assembly/apply under `f64` iterative refinement.
    F32Refined,
}

/// Execution target selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendTag {
    /// The shared simulated-GPU device pool (the service default).
    Cluster,
    /// Host-only assembly (no pool devices touched).
    Cpu,
}

/// The mesh/decomposition content of a job — together with config and
/// precision this is what the session cache keys on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MeshSpec {
    /// 2 or 3.
    pub dim: u8,
    /// Cells per subdomain edge.
    pub cells: usize,
    /// Subdomain grid (`sz = 1` for 2D).
    pub subs: (usize, usize, usize),
    /// Gluing of the decomposition.
    pub gluing: GluingTag,
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
    taken: Vec<String>,
}

impl FieldReader {
    fn new(v: JVal, line: usize) -> Result<Self, ProtoError> {
        match v {
            JVal::Obj(fields) => Ok(FieldReader {
                line,
                fields,
                taken: Vec::new(),
            }),
            other => Err(ProtoError::syntax(
                line,
                format!("request must be an object, got {}", other.type_name()),
            )),
        }
    }

    fn take(&mut self, name: &str) -> Option<JVal> {
        let i = self.fields.iter().position(|(k, _)| k == name)?;
        self.taken.push(name.to_string());
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

    fn opt_str(&mut self, name: &str) -> Result<Option<String>, ProtoError> {
        match self.take(name) {
            None => Ok(None),
            Some(JVal::Str(s)) => Ok(Some(s)),
            Some(v) => Err(ProtoError::field(
                self.line,
                name,
                format!("expected string, got {}", v.type_name()),
            )),
        }
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

/// Decode one syntactically parsed line into a typed [`Request`].
pub fn decode_request(v: JVal, line_no: usize) -> Result<Request, ProtoError> {
    let mut r = FieldReader::new(v, line_no)?;
    let op = r.req_str("op")?;
    let req = match op.as_str() {
        "assemble" | "solve" => {
            let kind = if op == "assemble" {
                JobKind::Assemble
            } else {
                JobKind::Solve
            };
            let tenant = r.req_str("tenant")?;
            if tenant.is_empty() {
                return Err(ProtoError::field(line_no, "tenant", "must be non-empty"));
            }
            let job = r.req_str("job")?;
            if job.is_empty() {
                return Err(ProtoError::field(line_no, "job", "must be non-empty"));
            }
            let dim = r.req_usize("dim")?;
            if dim != 2 && dim != 3 {
                return Err(ProtoError::field(
                    line_no,
                    "dim",
                    format!("must be 2 or 3, got {dim}"),
                ));
            }
            let cells = r.req_usize("cells")?;
            if cells == 0 || cells > 4096 {
                return Err(ProtoError::field(
                    line_no,
                    "cells",
                    format!("must be in 1..=4096, got {cells}"),
                ));
            }
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
                                    format!(
                                        "expected integer in 1..=4096, got {}",
                                        describe(other)
                                    ),
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
            let gluing = match r.opt_str("gluing")?.as_deref() {
                None | Some("redundant") => GluingTag::Redundant,
                Some("chain") => GluingTag::Chain,
                Some(other) => {
                    return Err(ProtoError::field(
                        line_no,
                        "gluing",
                        format!("expected \"redundant\" or \"chain\", got \"{other}\""),
                    ))
                }
            };
            let precision = match r.opt_str("precision")?.as_deref() {
                None | Some("f64") => PrecisionTag::F64,
                Some("f32_refined") => PrecisionTag::F32Refined,
                Some(other) => {
                    return Err(ProtoError::field(
                        line_no,
                        "precision",
                        format!("expected \"f64\" or \"f32_refined\", got \"{other}\""),
                    ))
                }
            };
            let backend = match r.opt_str("backend")?.as_deref() {
                None | Some("cluster") => BackendTag::Cluster,
                Some("cpu") => BackendTag::Cpu,
                Some(other) => {
                    return Err(ProtoError::field(
                        line_no,
                        "backend",
                        format!("expected \"cluster\" or \"cpu\", got \"{other}\""),
                    ))
                }
            };
            let scale = r.opt_f64("scale")?.unwrap_or(1.0);
            let weight = r.opt_f64("weight")?;
            if let Some(w) = weight {
                if w <= 0.0 {
                    return Err(ProtoError::field(
                        line_no,
                        "weight",
                        format!("must be positive, got {w}"),
                    ));
                }
            }
            let timeout_s = r.opt_f64("timeout_s")?;
            if let Some(t) = timeout_s {
                if t < 0.0 {
                    return Err(ProtoError::field(
                        line_no,
                        "timeout_s",
                        format!("must be non-negative, got {t}"),
                    ));
                }
            }
            Request::Submit(JobRequest {
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
        "run" => Request::Run {
            budget_s: {
                let b = r.opt_f64("budget_s")?;
                if let Some(v) = b {
                    if v < 0.0 {
                        return Err(ProtoError::field(
                            line_no,
                            "budget_s",
                            format!("must be non-negative, got {v}"),
                        ));
                    }
                }
                b
            },
        },
        "cancel" => Request::Cancel {
            tenant: r.req_str("tenant")?,
            job: r.req_str("job")?,
        },
        "stats" => Request::Stats,
        "shutdown" => Request::Shutdown,
        other => {
            return Err(ProtoError::field(
                line_no,
                "op",
                format!(
                "unknown op \"{other}\" (expected assemble, solve, run, cancel, stats, shutdown)"
            ),
            ))
        }
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
            write_json_str(
                &mut s,
                match j.kind {
                    JobKind::Assemble => "assemble",
                    JobKind::Solve => "solve",
                },
            );
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
            write_json_str(
                &mut s,
                match j.spec.gluing {
                    GluingTag::Redundant => "redundant",
                    GluingTag::Chain => "chain",
                },
            );
            s.push_str(",\"precision\":");
            write_json_str(
                &mut s,
                match j.precision {
                    PrecisionTag::F64 => "f64",
                    PrecisionTag::F32Refined => "f32_refined",
                },
            );
            s.push_str(",\"backend\":");
            write_json_str(
                &mut s,
                match j.backend {
                    BackendTag::Cluster => "cluster",
                    BackendTag::Cpu => "cpu",
                },
            );
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
    fn duplicate_keys_rejected() {
        let err = parse_json_line(br#"{"a":1,"a":2}"#, 1).unwrap_err();
        assert_eq!(err.field.as_deref(), Some("a"));
        assert!(err.msg.contains("duplicate"));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let err = parse_json_line(br#"{"op":"stats"} extra"#, 1).unwrap_err();
        assert!(err.msg.contains("trailing"));
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_crash() {
        let mut line = Vec::new();
        line.extend(std::iter::repeat_n(b'[', 10_000));
        let err = parse_json_line(&line, 1).unwrap_err();
        assert!(err.msg.contains("nesting"));
    }

    #[test]
    fn numbers_classify_int_vs_float() {
        assert_eq!(parse_json_line(b"42", 1).unwrap(), JVal::Int(42));
        assert_eq!(parse_json_line(b"-7", 1).unwrap(), JVal::Int(-7));
        assert_eq!(parse_json_line(b"1.5", 1).unwrap(), JVal::Num(1.5));
        assert_eq!(parse_json_line(b"1e3", 1).unwrap(), JVal::Num(1000.0));
        // i64 overflow falls back to float rather than erroring
        assert!(matches!(
            parse_json_line(b"99999999999999999999", 1).unwrap(),
            JVal::Num(_)
        ));
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = parse_json_line(r#""a\"b\\c\ndé😀""#.as_bytes(), 1).unwrap();
        assert_eq!(v, JVal::Str("a\"b\\c\ndé😀".to_string()));
        let mut out = String::new();
        write_json_str(&mut out, "a\"b\\c\ndé😀");
        assert_eq!(parse_json_line(out.as_bytes(), 1).unwrap(), v);
    }

    #[test]
    fn lone_surrogate_rejected() {
        assert!(parse_json_line(br#""\ud800""#, 1).is_err());
        assert!(parse_json_line(br#""\udc00x""#, 1).is_err());
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
                gluing: GluingTag::Chain,
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

    #[test]
    fn error_response_is_itself_valid_json() {
        let err = ProtoError::field(3, "cells", "must be in 1..=4096, got 0");
        let resp = err.to_response();
        parse_json_line(resp.as_bytes(), 1).expect("error responses must parse");
    }
}
