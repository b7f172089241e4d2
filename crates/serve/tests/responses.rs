//! Pin the response writers: every kind of response line re-parses as
//! protocol JSON and carries its exact key sequence, nested objects
//! included. Clients read these lines by key; a reordered, renamed or
//! dropped key is a wire change even when every value stays the same.

use sc_serve::{parse_json_line, JVal, ServeHandle, ServeOptions};

/// The key sequence of a response line: objects as `{k1,k2…}` with each
/// value's own sequence appended to its key, arrays as `[…]`, scalars as
/// nothing.
fn shape(v: &JVal) -> String {
    match v {
        JVal::Obj(fields) => {
            let inner: Vec<String> = fields.iter().map(|(k, v)| k.clone() + &shape(v)).collect();
            format!("{{{}}}", inner.join(","))
        }
        JVal::Arr(items) => {
            let inner: Vec<String> = items.iter().map(shape).collect();
            format!("[{}]", inner.join(","))
        }
        _ => String::new(),
    }
}

fn shapes(lines: &[String]) -> Vec<String> {
    lines
        .iter()
        .enumerate()
        .map(|(i, l)| {
            let v = parse_json_line(l.as_bytes(), i + 1)
                .unwrap_or_else(|e| panic!("response must re-parse ({e}): {l}"));
            shape(&v)
        })
        .collect()
}

const ACCEPTED: &str = "{ok,event,op,tenant,job,queued,est_s}";
const TENANT: &str = "{tenant,jobs_done,jobs_cancelled,jobs_expired,jobs_rejected,\
                      device_s,prep_s,queue_wait_s,cache_hits,cache_misses,hit_ratio}";

fn stats(tenants: usize) -> String {
    format!(
        "{{ok,event,cache{{hits,misses,evictions,entries,bytes,budget_bytes}},queued,vclock_s,\
         tenants[{}]}}",
        vec![TENANT; tenants].join(",")
    )
}

#[test]
fn every_response_kind_keeps_its_key_sequence() {
    let mut h = ServeHandle::new(ServeOptions::default());
    let mut req = |line: &str| shapes(&h.request(line));

    assert_eq!(req(r#"{"op":"stats"}"#), vec![stats(0)]);
    let solve = r#"{"op":"solve","tenant":"acme","job":"s1","dim":2,"cells":4,"subs":[2,2]}"#;
    assert_eq!(req(solve), vec![ACCEPTED]);
    let assemble = r#"{"op":"assemble","tenant":"beta","job":"a1","dim":2,"cells":4,"subs":[2,2]}"#;
    assert_eq!(req(assemble), vec![ACCEPTED]);
    let doomed = r#"{"op":"solve","tenant":"beta","job":"x","dim":2,"cells":4,"subs":[2,2]}"#;
    assert_eq!(req(doomed), vec![ACCEPTED]);
    // a hit, then a miss: both answer with the same keys
    let cancel = "{ok,event,cancelled}";
    assert_eq!(
        req(r#"{"op":"cancel","tenant":"beta","job":"x"}"#),
        vec![cancel]
    );
    assert_eq!(
        req(r#"{"op":"cancel","tenant":"beta","job":"x"}"#),
        vec![cancel]
    );

    // one `done` with PCPG fields (solve), one without (assemble)
    assert_eq!(
        req(r#"{"op":"run"}"#),
        vec![
            "{ok,event,tenant,job,op,cache,prep_s,device_s,iters,rel_residual}",
            "{ok,event,tenant,job,op,cache,prep_s,device_s}",
            "{ok,event,jobs,device_s,queued}",
        ]
    );
    assert_eq!(req(r#"{"op":"stats"}"#), vec![stats(2)]);

    // decode error (names the field), syntax error (does not)
    let bad_dim = r#"{"op":"solve","tenant":"a","job":"j","dim":4,"cells":4,"subs":[2,2]}"#;
    assert_eq!(req(bad_dim), vec!["{ok,error{kind,line,field,msg}}"]);
    assert_eq!(req(r#"{"op":"#), vec!["{ok,error{kind,line,msg}}"]);
    // a working set no device arena holds
    let huge = r#"{"op":"solve","tenant":"a","job":"big","dim":3,"cells":400,"subs":[1,1,1]}"#;
    assert_eq!(req(huge), vec!["{ok,error{kind,line,msg}}"]);

    assert_eq!(req(r#"{"op":"shutdown"}"#), vec!["{ok,event}"]);
}
