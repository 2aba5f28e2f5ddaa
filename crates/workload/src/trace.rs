//! Replayable arrival traces.

use mstream_types::{Row, StreamId, VDur, VTime, Value};
use serde::{Deserialize, Serialize};

/// One arrival: which stream it lands on and its attribute values.
///
/// Timestamps and sequence numbers are deliberately absent — the simulation
/// driver assigns them according to the arrival-rate model under test, so
/// the same trace can be replayed at different rates (e.g. Figure 6's
/// overload experiment reuses Figure 2's data at 5× the service rate).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceItem {
    /// Destination stream.
    pub stream: StreamId,
    /// Attribute values in schema order (inline for arities up to
    /// [`mstream_types::ROW_INLINE`], so replay clones are free).
    pub values: Row,
}

/// A deterministic arrival sequence, plus the positions where the
/// generating distribution changed (concept-drift markers).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    /// Arrivals in order.
    pub items: Vec<TraceItem>,
    /// Indexes into `items` where a distribution shift begins.
    pub drift_points: Vec<usize>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Number of arrivals.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Appends an arrival.
    pub fn push(&mut self, stream: StreamId, values: impl Into<Row>) {
        self.items.push(TraceItem {
            stream,
            values: values.into(),
        });
    }

    /// The arrival schedule every replay of a trace runs on: at `rate`
    /// tuples per second, item `i` arrives `i` inter-arrival gaps
    /// ([`VDur::from_rate`]) after the origin.
    ///
    /// # Panics
    /// Panics if `rate` is not positive and finite, and — as the item is
    /// reached — if its arrival falls past the end of virtual time;
    /// [`Trace::span`] checks that first.
    pub fn timed(&self, rate: f64) -> impl Iterator<Item = (VTime, &TraceItem)> + '_ {
        let gap = VDur::from_rate(rate);
        let at = move |i: usize| VTime::ZERO + gap.mul(i as u64);
        self.items
            .iter()
            .enumerate()
            .map(move |(i, item)| (at(i), item))
    }

    /// When the last item arrives on the [`Trace::timed`] schedule at
    /// `rate` (zero for an empty trace), or `None` if that falls past the
    /// end of virtual time.
    ///
    /// # Panics
    /// Panics if `rate` is not positive and finite.
    pub fn span(&self, rate: f64) -> Option<VDur> {
        let last = self.items.len().saturating_sub(1);
        VDur::from_rate(rate).checked_mul(last as u64)
    }

    /// Marks the *next* pushed item as the start of a new distribution.
    pub(crate) fn mark_drift(&mut self) {
        self.drift_points.push(self.items.len());
    }

    /// Arrivals destined for `stream`.
    pub fn per_stream(&self, stream: StreamId) -> impl Iterator<Item = &TraceItem> {
        self.items.iter().filter(move |it| it.stream == stream)
    }

    /// Count of arrivals per stream id.
    #[cfg(test)]
    pub(crate) fn stream_counts(&self) -> std::collections::HashMap<StreamId, usize> {
        let mut counts = std::collections::HashMap::new();
        for it in &self.items {
            *counts.entry(it.stream).or_insert(0) += 1;
        }
        counts
    }

    /// Frequency of each value of attribute `attr` on `stream`.
    #[cfg(test)]
    pub(crate) fn value_histogram(
        &self,
        stream: StreamId,
        attr: usize,
    ) -> std::collections::HashMap<Value, usize> {
        let mut hist = std::collections::HashMap::new();
        for it in self.per_stream(stream) {
            *hist.entry(it.values[attr]).or_insert(0) += 1;
        }
        hist
    }

    /// Round-robin interleaves per-stream item lists into one trace:
    /// stream 0's first item, stream 1's first, …, stream 0's second, ….
    /// Shorter lists simply run out (their turn is skipped).
    pub fn interleave(per_stream: Vec<Vec<Vec<Value>>>) -> Trace {
        let mut trace = Trace::new();
        let longest = per_stream.iter().map(Vec::len).max().unwrap_or(0);
        for round in 0..longest {
            for (s, items) in per_stream.iter().enumerate() {
                if let Some(values) = items.get(round) {
                    trace.push(StreamId(s), values.clone());
                }
            }
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: u64) -> Vec<Value> {
        vec![Value(x)]
    }

    #[test]
    fn push_and_counts() {
        let mut t = Trace::new();
        assert!(t.is_empty());
        t.push(StreamId(0), v(1));
        t.push(StreamId(1), v(2));
        t.push(StreamId(0), v(3));
        assert_eq!(t.len(), 3);
        let counts = t.stream_counts();
        assert_eq!(counts[&StreamId(0)], 2);
        assert_eq!(counts[&StreamId(1)], 1);
    }

    #[test]
    fn the_schedule_spaces_items_by_the_gap_and_checks_its_end() {
        let mut t = Trace::new();
        assert_eq!(t.span(4.0), Some(VDur::ZERO));
        for x in 0..3 {
            t.push(StreamId(0), v(x));
        }
        let at: Vec<u64> = t.timed(4.0).map(|(ts, _)| ts.as_micros()).collect();
        assert_eq!(at, [0, 250_000, 500_000]);
        assert_eq!(t.span(4.0), Some(VDur::from_micros(500_000)));
        // 10^12 s between arrivals: the 20th arrival passes u64::MAX µs.
        let mut far = Trace::new();
        for x in 0..20_000 {
            far.push(StreamId(0), v(x));
        }
        assert_eq!(far.span(1e-12), None);
        assert!(far.span(1e-8).is_some());
    }

    #[test]
    fn drift_markers_record_positions() {
        let mut t = Trace::new();
        t.push(StreamId(0), v(1));
        t.mark_drift();
        t.push(StreamId(0), v(2));
        t.push(StreamId(0), v(3));
        t.mark_drift();
        t.push(StreamId(0), v(4));
        assert_eq!(t.drift_points, vec![1, 3]);
    }

    #[test]
    fn interleave_round_robins() {
        let t = Trace::interleave(vec![
            vec![v(10), v(11), v(12)],
            vec![v(20)],
            vec![v(30), v(31)],
        ]);
        let order: Vec<(usize, u64)> = t
            .items
            .iter()
            .map(|it| (it.stream.index(), it.values[0].raw()))
            .collect();
        assert_eq!(
            order,
            vec![(0, 10), (1, 20), (2, 30), (0, 11), (2, 31), (0, 12)]
        );
    }

    #[test]
    fn histogram_counts_values() {
        let mut t = Trace::new();
        t.push(StreamId(0), v(5));
        t.push(StreamId(0), v(5));
        t.push(StreamId(0), v(6));
        t.push(StreamId(1), v(5));
        let h = t.value_histogram(StreamId(0), 0);
        assert_eq!(h[&Value(5)], 2);
        assert_eq!(h[&Value(6)], 1);
        assert_eq!(h.get(&Value(7)), None);
    }
}
