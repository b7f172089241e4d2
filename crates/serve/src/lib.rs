//! `sc_serve` — a persistent multi-tenant solver service over the
//! assembly/solver stack.
//!
//! A FETI shop rarely solves one problem once: design loops, load sweeps,
//! and parameter studies resubmit the *same decomposition* with different
//! loads, precisions, and tenants. The expensive preprocessing — mesh
//! decomposition, per-subdomain regularized Cholesky (symbolic + numeric)
//! — is a pure function of the problem content, so a long-lived service
//! can pay it once and amortize it across every later job, whoever submits
//! it.
//!
//! Three layers:
//!
//! - [`protocol`] — a strict JSON-lines job-intake protocol (hand-rolled,
//!   zero dependencies) with line/field-accurate [`ProtoError`]s. Fuzzed
//!   in `tests/intake.rs`: arbitrary bytes never panic the parser, and
//!   [`encode_request`] → [`parse_request`] is lossless.
//! - [`cache`] — the cross-session prepared-state cache: a byte-budgeted
//!   LRU ([`sc_core::SessionCache`]) keyed by a content hash of
//!   *(mesh spec, precision, factorization options)*. Warm solves are
//!   bitwise identical to cold ones (pinned in `tests/cache.rs`).
//! - [`scheduler`] + [`server`] — weighted deficit-round-robin fairness in
//!   estimated device-seconds, admission control against the shared
//!   [`sc_gpu::DevicePool`] arena, per-job timeout/cancellation, and
//!   per-tenant roll-ups, behind pipe/TCP front-ends plus the in-process
//!   [`ServeHandle`].
//!
//! ```
//! use sc_serve::{ServeHandle, ServeOptions};
//!
//! let mut h = ServeHandle::new(ServeOptions::default());
//! h.request(r#"{"op":"solve","tenant":"acme","job":"j1","dim":2,"cells":4,"subs":[2,2]}"#);
//! let responses = h.request(r#"{"op":"run"}"#);
//! assert!(responses.last().expect("drained line").contains("\"jobs\":1"));
//! let outcome = h.take_outcome("acme", "j1").expect("retained result");
//! assert!(outcome.iterations.expect("PCPG ran") > 0);
//! ```

pub mod cache;
pub mod protocol;
pub mod scheduler;
pub mod server;

pub use cache::{content_key, prepare, PreparedCache, PreparedSession};
pub use protocol::{
    encode_request, parse_json_line, parse_request, BackendTag, GluingTag, JVal, JobKind,
    JobRequest, MeshSpec, PrecisionTag, ProtoError, Request,
};
pub use scheduler::{estimate_job_seconds, QueuedJob, Scheduler, TenantStats};
pub use server::{
    serve_connection, serve_stdio, serve_tcp, JobOutcome, ServeHandle, ServeOptions, Service,
};
