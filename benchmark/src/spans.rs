//! The benchmark's own spans: what the harness did and for how long.
//!
//! Spans are recorded around the calls into each layer (workload → build /
//! run / report, and one per per-layer harness), kept in memory with
//! parent ids, and written as a Chrome `trace_event` file when the
//! benchmark ends. Spans inside the program are a later issue.

use crate::json::Json;
use std::time::Instant;

struct Span {
    name: String,
    parent: Option<usize>,
    start_us: u64,
    end_us: Option<u64>,
}

/// An in-memory span recorder for one (single-threaded) benchmark process.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &str) {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_us: self.now_us(),
            end_us: None,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span and returns its duration in seconds.
    pub fn exit(&mut self) -> f64 {
        let id = self.open.pop().expect("exit without a matching enter");
        let end = self.now_us();
        self.spans[id].end_us = Some(end);
        (end - self.spans[id].start_us) as f64 / 1e6
    }

    /// Runs `f` inside a span named `name`.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> T {
        self.enter(name);
        let out = f(self);
        self.exit();
        out
    }

    /// Records a closed child span of the innermost open one from
    /// timestamps taken elsewhere (phases of an rt run, whose boundaries
    /// are wall-clock offsets rather than calls the harness makes).
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_micros() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_us: at(start),
            end_us: Some(at(end)),
        });
    }

    /// One line per span, indented by depth, for the human-readable output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for span in &self.spans {
            let mut depth = 0;
            let mut up = span.parent;
            while let Some(p) = up {
                depth += 1;
                up = self.spans[p].parent;
            }
            let dur_ms = span.end_us.unwrap_or(span.start_us) - span.start_us;
            out.push_str(&format!(
                "  span {}{} {:.3} ms\n",
                "  ".repeat(depth),
                span.name,
                dur_ms as f64 / 1000.0
            ));
        }
        out
    }

    /// The spans as a Chrome `trace_event` array of complete (`X`) events;
    /// `args` carries the span id and its parent's.
    pub fn chrome_trace(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, span)| {
                    let end = span.end_us.unwrap_or(span.start_us);
                    Json::obj([
                        ("name", Json::str(&span.name)),
                        ("ph", Json::str("X")),
                        ("ts", Json::Num(span.start_us as f64)),
                        ("dur", Json::Num((end - span.start_us) as f64)),
                        ("pid", Json::Num(1.0)),
                        ("tid", Json::Num(1.0)),
                        (
                            "args",
                            Json::obj([
                                ("id", Json::Num(id as f64)),
                                ("parent", Json::opt(span.parent.map(|p| p as f64))),
                            ]),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_export_with_parent_ids() {
        let mut spans = Spans::new();
        spans.scope("workload", |s| {
            s.scope("build", |_| ());
            let t = Instant::now();
            s.record("measure", t, t);
        });
        let trace = spans.chrome_trace();
        let events = trace.as_arr().unwrap();
        let parent = |i: usize| {
            events[i]
                .get("args")
                .unwrap()
                .get("parent")
                .unwrap()
                .clone()
        };
        assert_eq!(events.len(), 3);
        assert_eq!(parent(0), Json::Null);
        assert_eq!(parent(1), Json::Num(0.0));
        assert_eq!(parent(2), Json::Num(0.0));
        assert_eq!(events[2].get("name").unwrap().as_str(), Some("measure"));
        assert!(spans.render().contains("span   build "));
    }
}
