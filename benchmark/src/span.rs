//! In-memory spans around the calls the harness makes into each layer.
//!
//! A span is `(name, start ns, end ns, parent, count)`; its id is its
//! position in the buffer. Spans are recorded from the harness thread
//! only, nest strictly (a stack), stay in memory for the whole traced run
//! and are written out once, by [`Tracer::to_json`], when it ends.

use serde_json::{json, Value};
use std::time::Instant;

/// One recorded span. `count` carries the work done inside it (rows a
/// call emitted, operations in a 1024-call group, tuples rebuilt, …) so
/// ratios are taken at the same boundary as the time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Index into the tracer's name table.
    pub name: u16,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Id of the enclosing span; `None` for a top-level span.
    pub parent: Option<u32>,
    /// Work done inside the span, in the unit its name implies.
    pub count: u64,
}

impl Span {
    /// Wall time between start and end.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// All spans of one name, summed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// The span name.
    pub name: &'static str,
    /// Spans recorded under it.
    pub calls: u64,
    /// Their summed durations.
    pub total_ns: u64,
    /// Their summed self times (duration minus direct children).
    pub self_ns: u64,
    /// Their summed counts.
    pub count: u64,
}

/// Buffers the spans of one workload's traced run.
pub struct Tracer {
    workload: String,
    origin: Instant,
    names: Vec<&'static str>,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// An empty tracer whose clock starts now. `capacity` pre-sizes the
    /// buffer so recording a span never reallocates inside a timed call.
    pub fn new(workload: &str, capacity: usize) -> Self {
        Tracer {
            workload: workload.to_string(),
            origin: Instant::now(),
            names: Vec::new(),
            spans: Vec::with_capacity(capacity),
            open: Vec::new(),
        }
    }

    /// Interns `name`; the returned id makes [`Tracer::begin`] a push.
    pub fn name(&mut self, name: &'static str) -> u16 {
        if let Some(i) = self.names.iter().position(|n| *n == name) {
            return i as u16;
        }
        self.names.push(name);
        (self.names.len() - 1) as u16
    }

    /// Opens a span under the innermost open span and returns its id.
    #[inline]
    pub fn begin(&mut self, name: u16) -> u32 {
        let id = self.spans.len() as u32;
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            count: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    #[inline]
    pub fn end(&mut self, id: u32, count: u64) {
        let now = self.origin.elapsed().as_nanos() as u64;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost-first");
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        span.count = count;
    }

    /// Runs `f` inside a span named `name`; `f` returns `(result, count)`.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> (T, u64)) -> T {
        let n = self.name(name);
        let id = self.begin(n);
        let (out, count) = f(self);
        self.end(id, count);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of the top-level spans.
    pub fn top_level_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration_ns)
            .sum()
    }

    /// Totals per span name, in first-use order — the per-layer table a
    /// traced run prints.
    pub fn by_name(&self) -> Vec<NameTotals> {
        let selfs = self_times(&self.spans);
        let mut rows: Vec<NameTotals> = self
            .names
            .iter()
            .map(|name| NameTotals {
                name,
                ..NameTotals::default()
            })
            .collect();
        for (span, self_ns) in self.spans.iter().zip(selfs) {
            let row = &mut rows[span.name as usize];
            row.calls += 1;
            row.total_ns += span.duration_ns();
            row.self_ns += self_ns;
            row.count += span.count;
        }
        rows
    }

    /// The trace file: a name table plus one `[name, start, end, parent,
    /// count]` row per span (`parent` is `-1` at top level; a span's id is
    /// its row index). `wall_ns` is the traced run's own wall time, for
    /// the "top-level spans cover the run" check.
    pub fn to_json(&self, wall_ns: u64) -> Value {
        let rows: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                json!([
                    s.name as u64,
                    s.start_ns,
                    s.end_ns,
                    s.parent.map_or(-1i64, i64::from),
                    s.count
                ])
            })
            .collect();
        json!({
            "workload": self.workload,
            "wall_ns": wall_ns,
            "top_level_ns": self.top_level_ns(),
            "columns": json!(["name", "start_ns", "end_ns", "parent", "count"]),
            "names": self.names,
            "spans": rows,
        })
    }
}

/// Self time of every span: its duration minus the durations of its direct
/// children (children nest strictly inside their parent and never overlap
/// one another, so the subtraction cannot go negative).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(p) = span.parent {
            selfs[p as usize] -= span.duration_ns();
        }
    }
    selfs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name: 0,
            start_ns: start,
            end_ns: end,
            parent,
            count: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root 0..100 ├ a 10..40 ┬ a1 15..25
        //             └ b 50..90
        let spans = vec![
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(15, 25, Some(1)),
            span(50, 90, Some(0)),
        ];
        // root: 100 − 30 − 40; a: 30 − 10; leaves keep their duration.
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, 100, "self times partition the root");
    }

    #[test]
    fn tracer_nests_and_sums_top_level_spans() {
        let mut t = Tracer::new("w", 8);
        let outer = t.name("outer");
        let inner = t.name("inner");
        assert_eq!(t.name("outer"), outer, "names are interned");
        let a = t.begin(outer);
        let b = t.begin(inner);
        t.end(b, 3);
        let c = t.begin(inner);
        t.end(c, 4);
        t.end(a, 0);
        let d = t.begin(outer);
        t.end(d, 0);
        let spans = t.spans();
        assert_eq!(spans[b as usize].parent, Some(a));
        assert_eq!(spans[c as usize].parent, Some(a));
        assert_eq!(spans[d as usize].parent, None);
        assert_eq!(
            t.top_level_ns(),
            spans[a as usize].duration_ns() + spans[d as usize].duration_ns()
        );
        let rows = t.by_name();
        assert_eq!(rows[inner as usize].calls, 2, "two inner calls");
        assert_eq!(rows[inner as usize].count, 7, "counts add up per name");
        let self_outer = rows[outer as usize].self_ns;
        assert_eq!(
            self_outer + rows[inner as usize].total_ns,
            rows[outer as usize].total_ns,
            "outer self time + children = outer total"
        );
        let file = t.to_json(123);
        assert_eq!(file["spans"].as_array().unwrap().len(), 4);
        assert_eq!(file["spans"][b as usize][3], a as i64);
        assert_eq!(file["spans"][d as usize][3], -1i64);
    }
}
