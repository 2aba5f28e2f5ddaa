//! The unified ingest API: arrivals in, join results out through a sink.
//!
//! Every way of feeding the engine reduces to one verb:
//!
//! ```text
//! engine.ingest(arrival, &mut sink) -> IngestOutcome
//! ```
//!
//! An [`Arrival`] is the raw event a source produces — stream, values,
//! timestamp. The engine mints it into a sequence-numbered tuple and runs
//! it through the operator, handing the [`EmitSink`] every join result
//! combination it completes — a run (a block of outer × inner candidates)
//! of them at a time, which a sink that reads rows sees as one call per
//! row. The returned [`IngestOutcome`] reports what the operator did with
//! it.
//!
//! Three sink adapters cover the common shapes:
//!
//! * [`CountSink`] — counts results (the cheapest — it adds up run
//!   lengths, each a product, and never sees a row; equals
//!   [`IngestOutcome::produced`]).
//! * [`VecSink`] — collects every result as owned tuples in stream order
//!   (what the audit harness and the sharded merge consume).
//! * [`FnSink`] — wraps any `FnMut(&Bindings)` closure (streaming
//!   aggregation, forwarding, printing); [`QueryFnSink`] is the
//!   query-aware variant for multi-query engines.
//!
//! Every emission is tagged with the [`QueryId`] of the standing query
//! that produced it. Single-query engines always emit under
//! [`QueryId::SOLO`]; the multi-query engine fans one arrival out to every
//! registered query and tags each result with its owner.

use crate::join::{Bindings, Run};
use mstream_types::{QueryId, Row, StreamId, Tuple, VTime};

/// One raw stream event, before the engine assigns it a sequence number.
///
/// `ts` is the arrival timestamp in virtual time. In the common case the
/// tuple is also *processed* at `ts` ([`crate::MultiQueryEngine::ingest`]);
/// when the engine's input queue delays it, processing happens later, at
/// the instant its service starts ([`crate::EngineBuilder::input_queue`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Arrival {
    /// Source stream.
    pub stream: StreamId,
    /// Attribute values, matching the stream's schema arity (stored
    /// inline for arities up to [`mstream_types::ROW_INLINE`]).
    pub values: Row,
    /// Arrival instant in virtual time.
    pub ts: VTime,
}

impl Arrival {
    /// Convenience constructor.
    pub fn new(stream: StreamId, values: impl Into<Row>, ts: VTime) -> Self {
        Arrival {
            stream,
            values: values.into(),
            ts,
        }
    }
}

/// What the operator did with one ingested arrival.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestOutcome {
    /// Join result combinations this arrival completed: the total length
    /// of the runs handed to the sink.
    pub produced: u64,
    /// Whether the arriving tuple is resident in its window afterwards
    /// (`false` means it was itself the lowest-priority tuple and was shed
    /// on arrival).
    pub stored: bool,
    /// Window-resident tuples evicted to make room, counting the arriving
    /// tuple itself if it was dismissed immediately.
    pub shed: u64,
}

/// A consumer of join results.
///
/// The engines deliver results a [`Run`] at a time through
/// [`EmitSink::emit_run`] — the probe's two innermost levels: one binding
/// of every other stream, times a stretch of the second-to-last probed
/// window's candidates, times the stretch of the last probed window's
/// candidates they all join with. Its default body calls
/// [`EmitSink::emit`] once per result combination, outer candidate by
/// outer candidate, with the emitting query's [`QueryId`] and a zero-copy
/// [`Bindings`] view valid only for the duration of the call — sinks that
/// keep results must copy what they need — so a sink that reads rows
/// implements `emit` alone and sees every row, in order. A sink that does
/// not need the rows one at a time (a count, a per-tuple credit) overrides
/// `emit_run`, reads [`Run::len`] (outer × inner) or the two slot lists,
/// and pays per run instead of per row. Single-query engines always pass
/// [`QueryId::SOLO`]; sinks that serve one query may ignore the id.
///
/// One query's results arrive in that query's solo emission order. Across
/// queries, the multi-query engine emits an arrival's results class by
/// class in class-id (registration) order — all of one class's runs, each
/// run to every member in turn, before the next class's — so a sink that
/// serves several queries sees them interleaved per arrival, not per row.
/// Only each query's own order is a contract: how the members of one
/// class alternate within an arrival follows the run, which spans as many
/// outer candidates as share an inner list.
pub trait EmitSink {
    /// Receives one join result emitted by query `query`.
    fn emit(&mut self, query: QueryId, bindings: &Bindings<'_>);

    /// Receives one run of join results emitted by query `query`: by
    /// default, each of its rows through [`EmitSink::emit`].
    #[inline]
    fn emit_run(&mut self, query: QueryId, run: &mut Run<'_>) {
        run.for_each_row(|b| self.emit(query, b));
    }
}

/// Counts results and otherwise discards them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CountSink {
    /// Results received so far.
    pub produced: u64,
}

impl EmitSink for CountSink {
    fn emit(&mut self, _query: QueryId, _bindings: &Bindings<'_>) {
        self.produced += 1;
    }

    #[inline]
    fn emit_run(&mut self, _query: QueryId, run: &mut Run<'_>) {
        self.produced += run.len() as u64;
    }
}

/// Collects every result as owned tuples, one row per result, tuples in
/// stream order (`row[k]` is the participating tuple of stream `k`).
#[derive(Clone, Debug, Default)]
pub struct VecSink {
    /// Collected result rows.
    pub rows: Vec<Vec<Tuple>>,
}

impl EmitSink for VecSink {
    fn emit(&mut self, _query: QueryId, bindings: &Bindings<'_>) {
        let n = bindings.n_streams();
        let row = (0..n)
            .map(|k| bindings.tuple(StreamId(k)).clone())
            .collect();
        self.rows.push(row);
    }
}

/// Adapts any `FnMut(&Bindings)` closure into a sink, discarding the
/// emitting query id (the right shape for single-query consumers).
///
/// A closure sink pays per row: the default [`EmitSink::emit_run`] walks
/// every run one result at a time to call it, where [`CountSink`] counts
/// a run by its length. Use it when the rows are read, not to count them.
pub struct FnSink<F: FnMut(&Bindings<'_>)>(pub F);

impl<F: FnMut(&Bindings<'_>)> EmitSink for FnSink<F> {
    fn emit(&mut self, _query: QueryId, bindings: &Bindings<'_>) {
        (self.0)(bindings);
    }
}

/// Adapts any `FnMut(QueryId, &Bindings)` closure into a query-aware sink
/// for multi-query engines.
pub struct QueryFnSink<F: FnMut(QueryId, &Bindings<'_>)>(pub F);

impl<F: FnMut(QueryId, &Bindings<'_>)> EmitSink for QueryFnSink<F> {
    fn emit(&mut self, query: QueryId, bindings: &Bindings<'_>) {
        (self.0)(query, bindings);
    }
}

/// Collects result rows per query: `rows[q]` holds query `q`'s results in
/// emission order, each row being the participating tuples in the query's
/// local stream order. The engine's query-id space is dense, so a `Vec`
/// indexed by [`QueryId::index`] suffices (removed queries leave an empty
/// slot).
#[derive(Clone, Debug, Default)]
pub struct QueryRowsSink {
    /// Collected rows, indexed by query id.
    pub rows: Vec<Vec<Vec<Tuple>>>,
}

impl EmitSink for QueryRowsSink {
    fn emit(&mut self, query: QueryId, bindings: &Bindings<'_>) {
        if self.rows.len() <= query.index() {
            self.rows.resize_with(query.index() + 1, Vec::new);
        }
        let n = bindings.n_streams();
        let row = (0..n)
            .map(|k| bindings.tuple(StreamId(k)).clone())
            .collect();
        self.rows[query.index()].push(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mstream_types::Value;

    #[test]
    fn arrival_constructor_round_trips() {
        let a = Arrival::new(StreamId(1), vec![Value(3)], VTime::from_secs(2));
        assert_eq!(a.stream, StreamId(1));
        assert_eq!(a.values, vec![Value(3)]);
        assert_eq!(a.ts, VTime::from_secs(2));
    }

    #[test]
    fn outcome_defaults_are_empty() {
        let o = IngestOutcome::default();
        assert_eq!(o.produced, 0);
        assert!(!o.stored);
        assert_eq!(o.shed, 0);
    }
}
