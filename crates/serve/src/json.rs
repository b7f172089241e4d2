//! The JSON codec under the job-intake protocol: a strict hand-rolled
//! parser with line-accurate errors, and the two writer helpers every
//! response line is built from.
//!
//! Strictness is the point: the parser rejects trailing garbage, duplicate
//! keys, lone surrogates and over-deep nesting with a structured
//! [`ProtoError`] naming the line — never a panic, which the fuzz proptests
//! in `tests/intake.rs` pin on arbitrary byte streams.

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
    pub(crate) fn syntax(line: usize, msg: impl Into<String>) -> Self {
        ProtoError {
            line,
            field: None,
            msg: msg.into(),
        }
    }

    pub(crate) fn field(line: usize, field: impl Into<String>, msg: impl Into<String>) -> Self {
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
    pub(crate) fn type_name(&self) -> &'static str {
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

#[cfg(test)]
mod tests {
    use super::*;

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
    fn error_response_is_itself_valid_json() {
        let err = ProtoError::field(3, "cells", "must be in 1..=4096, got 0");
        let resp = err.to_response();
        parse_json_line(resp.as_bytes(), 1).expect("error responses must parse");
    }
}
