//! In-memory span recorder for the traced run.
//!
//! Every span is recorded by the benchmark around one call into a layer's
//! public API: name, start, end, parent span and request id. Spans stay in
//! memory and are written once, at the end of the run, in the Chrome
//! trace-event JSON format (Perfetto and chrome://tracing open it). When
//! the recorder is off, [`Tracer::span`] is a plain call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Calls made and their total self time in seconds.
pub type CallTime = (u64, f64);

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call`, e.g. `model.decode`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request (or operation) the call served.
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Runs `f` inside a span named `name` for request `req`.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            req,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Per-span self time: duration minus the time its children cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(&child)
            .map(|(s, c)| s.dur_ns().saturating_sub(*c))
            .collect()
    }

    /// Total duration of the top-level spans among `range`.
    pub fn top_level_ns(&self, range: std::ops::Range<usize>) -> u64 {
        self.spans[range]
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::dur_ns)
            .sum()
    }

    /// Sum of durations and call count of spans named `name` among
    /// `range`, restricted to requests `req_filter` accepts.
    pub fn total(
        &self,
        range: std::ops::Range<usize>,
        name: &str,
        req_filter: impl Fn(u64) -> bool,
    ) -> (u64, u64) {
        self.spans[range]
            .iter()
            .filter(|s| s.name == name && req_filter(s.req))
            .fold((0, 0), |(t, n), s| (t + s.dur_ns(), n + 1))
    }

    /// Self time per layer and per span name, in seconds.
    pub fn self_time_report(
        &self,
    ) -> (
        BTreeMap<&'static str, f64>,
        BTreeMap<&'static str, CallTime>,
    ) {
        let mut layers = BTreeMap::new();
        let mut names: BTreeMap<&'static str, CallTime> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            *layers.entry(s.layer()).or_insert(0.0) += t as f64 * 1e-9;
            let e = names.entry(s.name).or_insert((0, 0.0));
            e.0 += 1;
            e.1 += t as f64 * 1e-9;
        }
        (layers, names)
    }

    /// The spans as a Chrome trace-event JSON document.
    pub fn chrome_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 120 + 32);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"req\":{}}}}}",
                s.name,
                s.layer(),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.req
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new(true);
        tr.span("a.outer", 1, |tr| {
            tr.span("b.inner", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let st = tr.self_times();
        let s = tr.spans();
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(st[0] + s[1].dur_ns(), s[0].dur_ns());
        assert_eq!(tr.top_level_ns(0..2), s[0].dur_ns());
    }

    #[test]
    fn off_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("a.x", 0, |_| 7), 7);
        assert!(tr.spans().is_empty());
    }
}
