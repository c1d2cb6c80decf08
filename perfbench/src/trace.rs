//! In-memory spans recorded by the benchmark around its calls into the
//! program's crates. A span has a name (`layer.operation`), a start and
//! end relative to the tracer's origin, a parent, and the id of the
//! operation it belongs to; spans stay in memory and are written out as
//! JSON when the run ends.
//!
//! A disabled tracer records nothing, so the untraced runs that give the
//! end-to-end metrics pay one branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub op: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// The current operation id (0 before the first `next_op`).
    pub fn op(&self) -> u32 {
        self.op
    }

    /// Start a new operation: later spans share its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Run `f` inside a span named `name`; nested spans opened by `f`
    /// become its children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            op: self.op,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        let r = f(self);
        self.stack.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        r
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in ms of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Self time per layer in ms over the spans of the operations `ops`
    /// selects: each span's duration minus the time its direct children
    /// cover, summed by the span name's layer prefix.
    pub fn self_ms_by_layer(&self, ops: impl Fn(u32) -> bool) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| ops(s.op)) {
            let own = s.dur_ns().saturating_sub(child_ns[s.id as usize]);
            *out.entry(s.layer()).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// The spans as a JSON array (one object per span).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "  {{\"id\": {}, \"parent\": {parent}, \"op\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}{}",
                s.id,
                s.op,
                s.name,
                s.start_ns,
                s.end_ns,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.next_op();
        t.span("core.run", |t| {
            t.span("pedf.step", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].op, spans[1].op);
        let by = t.self_ms_by_layer(|_| true);
        assert!(by["pedf"] >= 5.0);
        assert!(by["core"] < by["pedf"]);
        assert!(t.to_json().contains("\"name\": \"pedf.step\""));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("core.run", |_| 7), 7);
        assert!(t.spans().is_empty());
    }
}
