//! In-memory spans around the benchmark's calls into the library layers,
//! written out at exit as Chrome trace-event JSON.
//!
//! Spans are recorded from outside the library (spans inside it are ROADMAP
//! item 2). All of them open and close on the benchmark's main thread, so a
//! plain stack gives each span its parent. The trace has two processes: the
//! host spans on the wall clock and the replayed device timeline on the
//! simulated clock; their time axes are unrelated and never combined.

use crate::json::Json;
use std::time::Instant;

/// One closed span. Times are microseconds since the tracer was created.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Rep (solver workloads) or job ordinal (service workload).
    pub rep: usize,
    /// Subdomain index for per-subdomain stage spans.
    pub subdomain: Option<usize>,
    /// Shapes, nnz, flops, bytes.
    pub args: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_us - self.start_us) * 1e-6
    }
}

/// One kernel of the replayed device timeline (simulated seconds).
#[derive(Clone, Debug)]
pub struct SimEvent {
    pub label: &'static str,
    pub device: usize,
    pub stream: usize,
    pub start_s: f64,
    pub end_s: f64,
}

/// Span recorder. When disabled, [`Tracer::time`] still times its closure
/// but records nothing, which is how the trace overhead is measured.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: usize,
    pub sim: Vec<SimEvent>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
            sim: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Rep or job ordinal stamped on spans opened from now on.
    pub fn set_rep(&mut self, rep: usize) {
        self.rep = rep;
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, subdomain: Option<usize>) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        let now = self.now_us();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_us: now,
            end_us: now,
            rep: self.rep,
            subdomain,
            args: Vec::new(),
        });
        self.open.push(id);
        Some(id)
    }

    /// Close the span [`Tracer::begin`] returned.
    pub fn end(&mut self, id: Option<usize>) {
        let Some(id) = id else { return };
        let now = self.now_us();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_us = now;
    }

    /// Run `f` inside a span; returns its result and its wall seconds
    /// (measured the same way whether or not the span is recorded).
    pub fn time<R>(
        &mut self,
        name: &'static str,
        subdomain: Option<usize>,
        args: &[(&'static str, f64)],
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.begin(name, subdomain);
        let t0 = Instant::now();
        let out = std::hint::black_box(f());
        let secs = t0.elapsed().as_secs_f64();
        self.end(id);
        if let Some(id) = id {
            self.spans[id].args.extend_from_slice(args);
        }
        (out, secs)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of a span: its duration minus what its direct children
    /// cover (children of one parent never overlap here).
    pub fn self_seconds(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::seconds)
            .sum();
        (self.spans[id].seconds() - children).max(0.0)
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto). `pid` 1 is
    /// the host wall clock, `pid` 2 the modelled device clock.
    pub fn to_chrome_json(&self, workload: &str) -> Json {
        let mut events = vec![
            meta_event(
                1,
                "process_name",
                &format!("{workload}: host spans (wall clock)"),
            ),
            meta_event(
                2,
                "process_name",
                &format!("{workload}: modelled A100 timeline (simulated clock, unvalidated)"),
            ),
        ];
        for s in &self.spans {
            let mut args = vec![
                ("span_id".to_string(), Json::Num(s.id as f64)),
                (
                    "parent_id".to_string(),
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("rep".to_string(), Json::Num(s.rep as f64)),
                (
                    "self_us".to_string(),
                    Json::Num(self.self_seconds(s.id) * 1e6),
                ),
            ];
            if let Some(sd) = s.subdomain {
                args.push(("subdomain".to_string(), Json::Num(sd as f64)));
            }
            args.extend(s.args.iter().map(|(k, v)| (k.to_string(), Json::Num(*v))));
            events.push(Json::obj([
                ("name", Json::str(s.name)),
                ("cat", Json::str(s.name.split('.').next().unwrap_or("span"))),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_us)),
                ("dur", Json::Num(s.end_us - s.start_us)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(1.0)),
                ("args", Json::Obj(args)),
            ]));
        }
        for e in &self.sim {
            events.push(Json::obj([
                ("name", Json::str(e.label)),
                ("cat", Json::str("sim")),
                ("ph", Json::str("X")),
                ("ts", Json::Num(e.start_s * 1e6)),
                ("dur", Json::Num((e.end_s - e.start_s) * 1e6)),
                ("pid", Json::Num(2.0)),
                // one lane per (device, stream)
                ("tid", Json::Num((e.device * 1000 + e.stream) as f64)),
                (
                    "args",
                    Json::obj([
                        ("device", Json::Num(e.device as f64)),
                        ("stream", Json::Num(e.stream as f64)),
                    ]),
                ),
            ]));
        }
        Json::obj([
            ("displayTimeUnit", Json::str("ms")),
            ("traceEvents", Json::Arr(events)),
        ])
    }
}

fn meta_event(pid: usize, name: &str, value: &str) -> Json {
    Json::obj([
        ("name", Json::str(name)),
        ("ph", Json::str("M")),
        ("pid", Json::Num(pid as f64)),
        ("args", Json::obj([("name", Json::str(value))])),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_self_time_and_disabled_mode() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", None);
        let (_, inner_s) = t.time("inner", Some(3), &[("n", 8.0)], || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.end(outer);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].subdomain, Some(3));
        assert!(inner_s >= 0.005);
        assert!(t.self_seconds(0) <= t.spans()[0].seconds() - 0.004);
        let doc = t.to_chrome_json("w");
        assert_eq!(doc.get("traceEvents").unwrap().as_arr().unwrap().len(), 4);

        let mut off = Tracer::new(false);
        let (v, secs) = off.time("x", None, &[], || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(off.spans().is_empty());
    }
}
