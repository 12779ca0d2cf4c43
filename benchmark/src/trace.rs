//! In-memory spans around each call the benchmark makes into a layer.
//!
//! Spans are recorded only in the traced pass; the untraced pass (which
//! supplies every end-to-end value) reads the clock three times per
//! repetition and never touches this module. Spans inside the program
//! itself are a later change (ROADMAP item 1b).

use crate::json::Json;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Phase name (`machine_new`, `timed`, …).
    pub name: &'static str,
    /// Benchmark workload the span belongs to.
    pub workload: &'static str,
    /// Repetition the span belongs to.
    pub rep_id: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created (0 while open).
    pub end_ns: u64,
}

/// Span recorder. A disabled tracer records nothing and reads no clock.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    workload: &'static str,
    rep_id: u32,
    open: Vec<usize>,
    spans: Vec<Span>,
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

impl Tracer {
    /// A tracer that records spans, or — disabled — nothing.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            workload: "",
            rep_id: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Labels the spans that follow.
    pub fn set_context(&mut self, workload: &'static str, rep_id: u32) {
        self.workload = workload;
        self.rep_id = rep_id;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            workload: self.workload,
            rep_id: self.rep_id,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(idx);
        SpanId(Some(idx))
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        let Some(idx) = id.0 else { return };
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans must close innermost-first");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total nanoseconds of `workload`'s spans called `name`, per
    /// repetition (a repetition may hold several, e.g. one per cell).
    pub fn per_rep_ns(&self, workload: &str, name: &str) -> Vec<f64> {
        let mut by_rep: Vec<(u32, u64)> = Vec::new();
        for s in &self.spans {
            if s.workload != workload || s.name != name {
                continue;
            }
            let ns = s.end_ns - s.start_ns;
            match by_rep.iter_mut().find(|(rep, _)| *rep == s.rep_id) {
                Some((_, total)) => *total += ns,
                None => by_rep.push((s.rep_id, ns)),
            }
        }
        by_rep.into_iter().map(|(_, ns)| ns as f64).collect()
    }

    /// The spans as a JSON array (written to `out/trace.json`).
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::str(s.name)),
                        ("workload", Json::str(s.workload)),
                        ("rep_id", Json::Num(f64::from(s.rep_id))),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
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
    fn spans_nest_and_sum_per_repetition() {
        let mut t = Tracer::new(true);
        t.set_context("w", 0);
        let rep = t.begin("rep");
        t.span("cell", || ());
        t.span("cell", || ());
        t.end(rep);
        t.set_context("w", 1);
        t.span("cell", || ());
        assert_eq!(t.spans().len(), 4);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[3].parent, None);
        assert_eq!(t.per_rep_ns("w", "cell").len(), 2);
        assert!(t.spans().iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", || 7), 7);
        assert!(t.spans().is_empty());
    }
}
