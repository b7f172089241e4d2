//! Fuzz harness for the job-intake protocol.
//!
//! Three properties, per the service's intake contract:
//!
//! 1. **No panic, ever** — arbitrary byte streams, mutated valid requests,
//!    truncations, and pathological nesting all come back as `Ok` or as a
//!    structured [`ProtoError`]; the parser never unwinds.
//! 2. **Errors are structured** — every `Err` carries the 1-based line
//!    number it was given, and a non-empty message.
//! 3. **Lossless round trip** — `encode_request` → `parse_request` is the
//!    identity on every representable [`Request`].

use proptest::prelude::*;
use sc_fem::Gluing;
use sc_serve::{
    encode_request, parse_json_line, parse_request, BackendTag, JobKind, JobRequest, MeshSpec,
    PrecisionTag, ProtoError, Request,
};

fn check_structured(err: &ProtoError, line_no: usize) -> Result<(), TestCaseError> {
    prop_assert_eq!(err.line, line_no, "errors carry the stream line number");
    prop_assert!(!err.msg.is_empty(), "errors carry a message");
    // the error response itself must be well-formed protocol JSON
    let resp = err.to_response();
    prop_assert!(
        parse_json_line(resp.as_bytes(), 1).is_ok(),
        "error response must re-parse: {resp}"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Raw fuzz: arbitrary bytes never panic and errors stay structured.
    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
        line_no in 1usize..10_000,
    ) {
        match parse_request(&bytes, line_no) {
            Ok(_) => {}
            Err(e) => check_structured(&e, line_no)?,
        }
    }

    /// ASCII-biased fuzz: structural JSON characters are over-represented,
    /// driving the parser deep into objects/arrays/strings instead of
    /// failing on byte one.
    #[test]
    fn structural_ascii_soup_never_panics(
        picks in proptest::collection::vec(0usize..16, 0..200),
    ) {
        const POOL: &[u8; 16] = br#"{}[]",:0-9.eutns"#;
        let bytes: Vec<u8> = picks.iter().map(|&i| POOL[i]).collect();
        match parse_request(&bytes, 1) {
            Ok(_) => {}
            Err(e) => check_structured(&e, 1)?,
        }
    }
}

fn arb_request() -> impl Strategy<Value = Request> {
    (
        (0usize..6, 0usize..4, 0usize..3),
        (1usize..64, 1usize..5, 1usize..5, 1usize..5),
        (0usize..3, 0usize..2, 0usize..2, 0usize..2),
        (-4.0f64..4.0, 0.001f64..8.0, 0.0f64..60.0, 0usize..4),
    )
        .prop_map(|(ids, mesh, tags, nums)| {
            let (op_pick, tenant_pick, job_pick) = ids;
            let (cells, sx, sy, sz) = mesh;
            let (kind_pick, gluing_pick, prec_pick, backend_pick) = tags;
            let (scale, weight, timeout, opt_pick) = nums;
            match op_pick {
                0 => Request::Stats,
                1 => Request::Shutdown,
                2 => Request::Run {
                    budget_s: if opt_pick % 2 == 0 {
                        Some(timeout)
                    } else {
                        None
                    },
                },
                3 => Request::Cancel {
                    tenant: tenant_name(tenant_pick),
                    job: job_name(job_pick),
                },
                _ => {
                    let dim = if kind_pick == 0 { 2 } else { 3 };
                    Request::Submit(JobRequest {
                        kind: if op_pick == 4 {
                            JobKind::Assemble
                        } else {
                            JobKind::Solve
                        },
                        tenant: tenant_name(tenant_pick),
                        job: job_name(job_pick),
                        spec: MeshSpec {
                            dim,
                            cells,
                            subs: (sx, sy, if dim == 2 { 1 } else { sz }),
                            gluing: if gluing_pick == 0 {
                                Gluing::Redundant
                            } else {
                                Gluing::Chain
                            },
                        },
                        precision: if prec_pick == 0 {
                            PrecisionTag::F64
                        } else {
                            PrecisionTag::F32Refined
                        },
                        backend: if backend_pick == 0 {
                            BackendTag::Cluster
                        } else {
                            BackendTag::Cpu
                        },
                        scale,
                        weight: if opt_pick == 1 { Some(weight) } else { None },
                        timeout_s: if opt_pick == 2 { Some(timeout) } else { None },
                    })
                }
            }
        })
}

/// Tenant names exercise escaping: quotes, backslashes, control chars,
/// multi-byte UTF-8 (2-, 3-, and 4-byte sequences).
fn tenant_name(pick: usize) -> String {
    [
        "acme",
        "tenant with spaces",
        "quo\"ted\\slash",
        "tab\there\nnewline",
        "ünïcodé-β",
        "emoji-😀-4byte",
    ][pick % 6]
        .to_string()
}

fn job_name(pick: usize) -> String {
    ["j1", "run/2026-08-08", "job-\u{1}-ctrl", "жоб"][pick % 4].to_string()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Lossless round trip: encode → parse is the identity.
    #[test]
    fn encode_parse_round_trip(req in arb_request(), line_no in 1usize..1000) {
        let line = encode_request(&req);
        match parse_request(line.as_bytes(), line_no) {
            Ok(back) => prop_assert_eq!(back, req, "round trip must be lossless: {}", line),
            Err(e) => prop_assert!(false, "canonical encoding must parse: {} ({e})", line),
        }
    }

    /// Truncating a valid request anywhere never panics; a strict prefix is
    /// always an error (no silent partial accepts).
    #[test]
    fn truncated_requests_error_cleanly(req in arb_request(), cut_seed in 0usize..10_000) {
        let line = encode_request(&req);
        let cut = cut_seed % line.len(); // < len, so always a strict prefix
        // cut at a char boundary (the wire is bytes, but String slicing is
        // not — walk back to the previous boundary like a byte cut would)
        let mut cut = cut;
        while !line.is_char_boundary(cut) {
            cut -= 1;
        }
        match parse_request(&line.as_bytes()[..cut], 3) {
            Ok(_) => prop_assert!(false, "a strict prefix cannot be a valid request"),
            Err(e) => check_structured(&e, 3)?,
        }
    }

    /// Single-byte mutations of a valid request never panic, and whatever
    /// still parses decodes to *some* valid request (strictness may reject
    /// it, but it must not corrupt the parser).
    #[test]
    fn mutated_requests_never_panic(
        req in arb_request(),
        pos_seed in 0usize..10_000,
        byte in any::<u8>(),
    ) {
        let mut bytes = encode_request(&req).into_bytes();
        let pos = pos_seed % bytes.len();
        bytes[pos] = byte;
        match parse_request(&bytes, 11) {
            Ok(_) => {}
            Err(e) => check_structured(&e, 11)?,
        }
    }

    /// Nesting depth is capped: arbitrarily deep arrays/objects are a
    /// structured error, not a stack overflow.
    #[test]
    fn deep_nesting_is_rejected(depth in 1usize..5000, open in 0usize..2) {
        let (o, c) = if open == 0 { (b'[', b']') } else { (b'{', b'}') };
        let mut line = vec![o; depth];
        if open == 1 {
            // objects need keys to nest: {"k":{"k":...
            line = br#"{"k":"#.repeat(depth);
            line.push(b'1');
            line.extend(std::iter::repeat_n(c, depth));
        } else {
            line.push(b'1');
            line.extend(std::iter::repeat_n(c, depth));
        }
        match parse_json_line(&line, 5) {
            Ok(_) => prop_assert!(depth <= 33, "deep nesting must be rejected"),
            Err(e) => check_structured(&e, 5)?,
        }
    }
}

#[test]
fn oversized_line_is_rejected_without_allocation_blowup() {
    let line = vec![b'['; sc_serve::json::MAX_LINE_BYTES + 1];
    let err = parse_json_line(&line, 9).expect_err("over-long lines are rejected");
    assert_eq!(err.line, 9);
    assert!(err.msg.contains("longer than"));
}
