//! `sc_serve` — a persistent multi-tenant solver service over the
//! assembly/solver stack.
//!
//! A FETI shop rarely solves one problem once: design loops, load sweeps,
//! and parameter studies resubmit the *same decomposition* with different
//! loads, precisions, and tenants. The expensive preprocessing — mesh
//! decomposition, per-subdomain regularized Cholesky (symbolic + numeric),
//! the explicit assembly of each `F̃ᵢ` — is a pure function of the problem
//! content, so a long-lived service can pay it once and amortize it across
//! every later job, whoever submits it.
//!
//! Three layers:
//!
//! - [`json`] + [`protocol`] — a strict JSON-lines job-intake protocol
//!   (hand-rolled, zero dependencies): [`json`] is the codec (parser with
//!   line-accurate [`ProtoError`]s, writer helpers), [`protocol`] the typed
//!   requests with field-accurate decoding, each wire enum spelled in one
//!   name table. Fuzzed in `tests/intake.rs`: arbitrary bytes never panic
//!   the parser, and [`encode_request`] → [`parse_request`] is lossless.
//! - [`cache`] — the cross-session prepared-state cache: a byte-budgeted
//!   LRU ([`PreparedCache`]) keyed by a content hash of the mesh spec,
//!   whose bundles also keep the assembled operators of each backend, for
//!   jobs of either precision. Warm solves are bitwise identical to cold
//!   ones (pinned in `tests/cache.rs`).
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
pub mod json;
pub mod protocol;
pub mod scheduler;
pub mod server;

pub use cache::{content_key, prepare, PreparedCache, PreparedSession};
pub use json::{parse_json_line, JVal, ProtoError};
pub use protocol::{
    encode_request, parse_request, BackendTag, JobKind, JobRequest, MeshSpec, Request,
};
pub use scheduler::{estimate_job_seconds, QueuedJob, Scheduler, TenantStats};
pub use server::{
    serve_connection, serve_stdio, serve_tcp, JobOutcome, ServeHandle, ServeOptions, Service,
};
