//! Outside-in spans: recorded by the benchmark's own code around every
//! call it makes into a bdbms layer.  Nothing under `crates/` is
//! instrumented; what the engine reports about itself (`ExecStats`)
//! is turned into synthetic child spans.
//!
//! Naming convention, used by the self-time report:
//!
//! * `op.<kind>` — the client-observed operation (root span);
//! * `call.<what>` — one call through the client surface
//!   (`Session::run`, `Connection::execute`, ...);
//! * `wait.<what>` — time blocked on something opaque (the socket);
//! * anything else (`engine.parse`, `proto.encode`, ...) — work that is
//!   attributed to a named engine layer.
//!
//! The self time of `op.`/`call.`/`wait.` spans is latency the outside
//! cannot attribute to a layer; `client.explained_frac` is the rest.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub type SpanId = u32;
pub const NO_SPAN: SpanId = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op_id: u64,
    pub parent: SpanId,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One driver thread's span buffer.  When tracing is off every method
/// is a predictable branch and records nothing.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn off() -> Tracer {
        Tracer::new(false, Instant::now())
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Name a span once its kind is known (the root span of an
    /// operation is opened before the operation picks what to do).
    pub fn rename(&mut self, id: SpanId, name: &'static str) {
        if id != NO_SPAN {
            self.spans[id as usize].name = name;
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, op_id: u64, parent: SpanId) -> SpanId {
        if !self.on {
            return NO_SPAN;
        }
        let start_ns = self.now_ns();
        self.add(name, op_id, parent, start_ns, start_ns)
    }

    pub fn end(&mut self, id: SpanId) {
        if id != NO_SPAN {
            self.spans[id as usize].end_ns = self.now_ns();
        }
    }

    /// Record a span whose bounds are already known (synthetic spans
    /// built from timings the engine returned).
    pub fn add(
        &mut self,
        name: &'static str,
        op_id: u64,
        parent: SpanId,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        if !self.on {
            return NO_SPAN;
        }
        self.spans.push(Span {
            name,
            op_id,
            parent,
            start_ns,
            end_ns,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn start_of(&self, id: SpanId) -> u64 {
        self.spans[id as usize].start_ns
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Concatenate per-thread buffers, re-basing parent links.
pub fn merge(buffers: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out = Vec::with_capacity(buffers.iter().map(Vec::len).sum());
    for buf in buffers {
        let base = out.len() as SpanId;
        out.extend(buf.into_iter().map(|mut s| {
            if s.parent != NO_SPAN {
                s.parent += base;
            }
            s
        }));
    }
    out
}

fn is_container(name: &str) -> bool {
    name.starts_with("op.") || name.starts_with("call.") || name.starts_with("wait.")
}

/// Per-span-name self time and the share of client latency that child
/// spans attribute to a named layer.
pub struct SelfTime {
    /// name -> (spans, self nanoseconds)
    pub by_name: BTreeMap<&'static str, (u64, u64)>,
    /// Sum of root (`op.*`) durations.
    pub root_ns: u64,
    pub explained_frac: f64,
}

pub fn self_time(spans: &[Span]) -> SelfTime {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_SPAN {
            let p = &spans[s.parent as usize];
            // clip to the parent: synthetic spans are laid out from
            // engine-reported durations and may overhang by clock skew
            let lo = s.start_ns.max(p.start_ns);
            let hi = s.end_ns.min(p.end_ns);
            child_ns[s.parent as usize] += hi.saturating_sub(lo);
        }
    }
    let mut by_name: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    let (mut root_ns, mut opaque_ns) = (0u64, 0u64);
    for (s, covered) in spans.iter().zip(&child_ns) {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let own = dur.saturating_sub(*covered);
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += own;
        if s.parent == NO_SPAN {
            root_ns += dur;
        }
        if is_container(s.name) {
            opaque_ns += own;
        }
    }
    SelfTime {
        by_name,
        root_ns,
        explained_frac: if root_ns == 0 {
            0.0
        } else {
            1.0 - opaque_ns.min(root_ns) as f64 / root_ns as f64
        },
    }
}

/// Spans written to `trace.json`; the rest are counted, not written (a
/// wire run records ~10^6 spans and the file is for reading, not replay).
const MAX_SPANS_WRITTEN: usize = 200_000;

pub fn render_json(
    workload: &str,
    seed: u64,
    spans: &[Span],
    st: &SelfTime,
    rows: &[(String, f64, &str)],
) -> String {
    let mut out = String::new();
    let w = &mut out;
    write!(
        w,
        "{{\"workload\":{},\"seed\":{seed},\"spans_total\":{},\"explained_frac\":{},\"self_time_ns\":{{",
        crate::json::quote(workload),
        spans.len(),
        crate::json::num(st.explained_frac)
    )
    .expect("write to String");
    for (i, (name, (n, ns))) in st.by_name.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        write!(
            w,
            "{sep}{}:{{\"spans\":{n},\"self_ns\":{ns}}}",
            crate::json::quote(name)
        )
        .expect("write to String");
    }
    w.push_str("},\"rows\":{");
    for (i, (name, value, unit)) in rows.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        write!(
            w,
            "{sep}{}:{{\"value\":{},\"unit\":{}}}",
            crate::json::quote(name),
            crate::json::num(*value),
            crate::json::quote(unit)
        )
        .expect("write to String");
    }
    w.push_str("},\"spans\":[");
    for (i, s) in spans.iter().take(MAX_SPANS_WRITTEN).enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let parent = if s.parent == NO_SPAN {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        write!(
            w,
            "{sep}\n{{\"name\":{},\"op_id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            crate::json::quote(s.name),
            s.op_id,
            s.start_ns,
            s.end_ns
        )
        .expect("write to String");
    }
    w.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_classifies_containers() {
        let mut t = Tracer::new(true, Instant::now());
        let op = t.add("op.x", 1, NO_SPAN, 0, 100);
        let call = t.add("call.run", 1, op, 10, 90);
        t.add("engine.exec", 1, call, 20, 70);
        let st = self_time(&t.into_spans());
        assert_eq!(st.root_ns, 100);
        assert_eq!(st.by_name["op.x"], (1, 20));
        assert_eq!(st.by_name["call.run"], (1, 30));
        assert_eq!(st.by_name["engine.exec"], (1, 50));
        assert!((st.explained_frac - 0.5).abs() < 1e-12);
    }

    #[test]
    fn merge_rebases_parents_and_off_records_nothing() {
        let a = vec![Span {
            name: "op.a",
            op_id: 0,
            parent: NO_SPAN,
            start_ns: 0,
            end_ns: 1,
        }];
        let b = vec![
            Span {
                name: "op.b",
                op_id: 1,
                parent: NO_SPAN,
                start_ns: 0,
                end_ns: 1,
            },
            Span {
                name: "call.b",
                op_id: 1,
                parent: 0,
                start_ns: 0,
                end_ns: 1,
            },
        ];
        let m = merge(vec![a, b]);
        assert_eq!(m[2].parent, 1);
        let mut off = Tracer::off();
        let id = off.begin("op.x", 0, NO_SPAN);
        off.end(id);
        assert!(off.into_spans().is_empty());
    }
}
