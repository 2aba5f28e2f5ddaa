//! The discrete-event simulation driver (paper §2, Figure 1).
//!
//! The model has two rates: tuples arrive at `k` per second (globally,
//! interleaved across streams by the trace) and the join operator services
//! `l` per second. [`run_trace`] replays a trace at `k` through the
//! engine's one front door, [`crate::MultiQueryEngine::ingest`], and ends
//! it with [`crate::MultiQueryEngine::flush`]; `l` belongs to the engine.
//! Without an input queue every tuple is processed at its arrival instant;
//! with one ([`crate::EngineBuilder::input_queue`]) a bounded queue builds
//! up in front of the operator when `k > l` (Figure 6 uses `k = 5l`) and
//! sheds by the active policy's queue priority.
//!
//! Everything runs on virtual time, so runs are exactly reproducible; the
//! wall-clock time the engine spends processing is measured separately
//! (Figure 3).

use crate::engine::ShedJoinEngine;
use crate::ingest::{Arrival, EmitSink};
use crate::join::{Bindings, ExactJoin, Run};
use crate::report::RunReport;
use mstream_agg::{BucketSeries, HistBuckets};
use mstream_types::{JoinQuery, QueryId, StreamId, VDur, VTime};
use mstream_workload::Trace;
use std::time::Instant;

/// What to collect during a run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunOptions {
    /// Global arrival rate `k` in tuples per second (the trace's streams
    /// share it in their interleaved order).
    pub arrival_rate: f64,
    /// Record output counts per bucket of this width (Figure 5).
    pub output_bucket: Option<VDur>,
    /// Collect the value of this `(stream, attribute)` from every emitted
    /// result tuple (Figure 7's aggregation input).
    pub agg_attr: Option<(StreamId, usize)>,
    /// Bucket width for the collected aggregate values.
    pub agg_bucket: VDur,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            arrival_rate: 10.0,
            output_bucket: None,
            agg_attr: None,
            agg_bucket: VDur::from_secs(500),
        }
    }
}

/// Runs `trace` through a shedding engine at `opts.arrival_rate`: one
/// [`crate::MultiQueryEngine::ingest`] per item on the [`Trace::timed`]
/// schedule, then one [`crate::MultiQueryEngine::flush`]. The output
/// series and the aggregate values bucket each row at the instant of the
/// call that brought it to the plane (the flush's is the last arrival's),
/// and `end_time` is the last processing instant: the last arrival's, or,
/// behind an input queue, the last service start.
///
/// Counts come from [`crate::IngestOutcome::produced`]: the run reads a
/// result row only when `opts.agg_attr` collects its value, so a run
/// without one pays per run of results, not per row.
///
/// Each arrival clones `item.values`, which for inline arities (≤
/// [`mstream_types::ROW_INLINE`]) is a plain [`mstream_types::Row`] copy —
/// replaying a trace allocates nothing per item.
///
/// # Panics
/// Panics if the arrival rate is not positive and finite, or if an
/// arrival falls past the end of virtual time ([`Trace::span`]).
pub fn run_trace(engine: &mut ShedJoinEngine, trace: &Trace, opts: &RunOptions) -> RunReport {
    let mut series = opts.output_bucket.map(BucketSeries::new);
    let mut aggs = opts.agg_attr.map(|_| HistBuckets::new(opts.agg_bucket));
    let started = Instant::now();
    // One front-door call at `now`: an arrival's ingest, or (`None`) the
    // end-of-trace flush, which adds a series bucket only if it emits.
    let mut call = |arrival: Option<Arrival>, now: VTime| {
        let flush = arrival.is_none();
        let mut sink = ReplaySink {
            aggs: aggs.as_mut().zip(opts.agg_attr),
            now,
        };
        let outcome = match arrival {
            Some(arrival) => engine.ingest(arrival, &mut sink),
            None => engine.flush(&mut sink),
        };
        if let Some(series) = series.as_mut().filter(|_| !flush || outcome.produced > 0) {
            series.add(now, outcome.produced);
        }
    };
    let mut last = VTime::ZERO;
    for (now, item) in trace.timed(opts.arrival_rate) {
        call(
            Some(Arrival::new(item.stream, item.values.clone(), now)),
            now,
        );
        last = now;
    }
    call(None, last);
    RunReport {
        metrics: engine.metrics().clone(),
        series,
        agg_values: aggs,
        end_time: last.max(engine.clock),
        wall_time: started.elapsed(),
        ..Default::default()
    }
}

/// [`run_trace`]'s sink for the calls at `now`: it buckets the collected
/// attribute of every row when there is one, and otherwise takes a run
/// without reading it.
struct ReplaySink<'a> {
    aggs: Option<(&'a mut HistBuckets, (StreamId, usize))>,
    now: VTime,
}

impl EmitSink for ReplaySink<'_> {
    fn emit(&mut self, _query: QueryId, b: &Bindings<'_>) {
        if let Some((buckets, (s, a))) = self.aggs.as_mut() {
            buckets.add(self.now, b.value(*s, *a).raw());
        }
    }

    #[inline]
    fn emit_run(&mut self, query: QueryId, run: &mut Run<'_>) {
        if self.aggs.is_some() {
            run.for_each_row(|b| self.emit(query, b));
        }
    }
}

/// Runs `trace` through the exact (unbounded, unshedded) reference join on
/// the same arrival timeline, collecting the same observables. This is the
/// ground truth against which shedding runs are compared; service-rate
/// limits do not apply (the true answer is defined by arrivals alone).
/// Like [`run_trace`], it reads result rows only to collect an aggregate.
pub fn run_exact_trace(query: &JoinQuery, trace: &Trace, opts: &RunOptions) -> RunReport {
    let mut join = ExactJoin::new(query.clone());
    let mut series = opts.output_bucket.map(BucketSeries::new);
    let mut aggs = opts.agg_attr.map(|_| HistBuckets::new(opts.agg_bucket));
    let mut end_time = VTime::ZERO;
    let started = Instant::now();
    for (now, item) in trace.timed(opts.arrival_rate) {
        let values = item.values.clone();
        let produced = match (aggs.as_mut(), opts.agg_attr) {
            (Some(buckets), Some((s, a))) => join.process_each(item.stream, values, now, |b| {
                buckets.add(now, b.value(s, a).raw());
            }),
            _ => join.process(item.stream, values, now),
        };
        if let Some(series) = series.as_mut() {
            series.add(now, produced);
        }
        end_time = now;
    }
    let mut report = RunReport {
        series,
        agg_values: aggs,
        end_time,
        wall_time: started.elapsed(),
        ..Default::default()
    };
    report.metrics.total_output = join.total_output();
    report.metrics.processed = trace.len() as u64;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, InputQueue};
    use crate::sketch::BankConfig;
    use crate::{Fifo, MSketch};
    use mstream_types::{Catalog, StreamSchema, WindowSpec};
    use mstream_workload::{RegionsConfig, RegionsGenerator};

    fn chain3(window_secs: u64) -> JoinQuery {
        let mut c = Catalog::new();
        c.add_stream(StreamSchema::new("R1", &["A1", "A2"]));
        c.add_stream(StreamSchema::new("R2", &["A1", "A2"]));
        c.add_stream(StreamSchema::new("R3", &["A1", "A2"]));
        JoinQuery::from_names(
            c,
            &[("R1.A1", "R2.A1"), ("R2.A2", "R3.A1")],
            WindowSpec::secs(window_secs),
        )
        .unwrap()
    }

    fn small_trace() -> Trace {
        RegionsGenerator::new(RegionsConfig {
            n_relations: 3,
            arity: 2,
            domain: 30,
            n_regions: 3,
            volume: 60,
            z_inter: 1.0,
            z_intra: (1.0, 1.5),
            center_jitter: 0,
            anchor_grid: Some(5),
            tuples_per_relation: 300,
            feed: mstream_workload::FeedOrder::Stationary,
            // Seed chosen so the generated regions overlap on BOTH chain
            // predicates under the vendored deterministic RNG (seed 21's
            // layout left R2.A2 and R3.A1 disjoint, a zero-output join).
            seed: 7,
        })
        .unwrap()
        .generate()
    }

    fn engine(query: JoinQuery, capacity: usize) -> ShedJoinEngine {
        queued_engine(query, capacity, None)
    }

    /// The engine with an input queue of `(service rate, capacity)`.
    fn queued_engine(
        query: JoinQuery,
        capacity: usize,
        input_queue: Option<(f64, usize)>,
    ) -> ShedJoinEngine {
        ShedJoinEngine::new(
            vec![query],
            Box::new(MSketch),
            EngineConfig {
                capacity,
                bank: BankConfig {
                    s1: 30,
                    s2: 1,
                    seed: 1,
                },
                epoch: None,
                seed: 2,
                disorder: None,
                score_cache: true,
                input_queue: input_queue.map(|(service_rate, capacity)| InputQueue {
                    service_rate,
                    capacity,
                }),
            },
        )
        .unwrap()
    }

    #[test]
    fn underload_run_matches_exact_with_big_memory() {
        let query = chain3(100);
        let trace = small_trace();
        let opts = RunOptions {
            arrival_rate: 10.0,
            ..Default::default()
        };
        let mut e = engine(query.clone(), 100_000);
        let shed = run_trace(&mut e, &trace, &opts);
        let exact = run_exact_trace(&query, &trace, &opts);
        assert_eq!(shed.total_output(), exact.total_output());
        assert!(exact.total_output() > 0);
        assert_eq!(shed.metrics.shed_window, 0);
        assert_eq!(shed.metrics.shed_queue, 0);
    }

    #[test]
    fn series_totals_agree_with_metrics() {
        let query = chain3(100);
        let trace = small_trace();
        let opts = RunOptions {
            output_bucket: Some(VDur::from_secs(10)),
            ..Default::default()
        };
        let mut e = engine(query, 64);
        let report = run_trace(&mut e, &trace, &opts);
        let series = report.series.as_ref().unwrap();
        assert_eq!(series.total(), report.total_output());
        assert!(report.end_time > VTime::ZERO);
    }

    #[test]
    fn overload_forms_queue_and_sheds() {
        let query = chain3(100);
        let trace = small_trace();
        // Service 5x slower than arrivals with a tiny queue: the queue must
        // shed most of the input.
        let opts = RunOptions {
            arrival_rate: 10.0,
            ..Default::default()
        };
        let mut e = queued_engine(query, 1_000, Some((2.0, 20)));
        let report = run_trace(&mut e, &trace, &opts);
        assert!(report.metrics.shed_queue > 0, "queue must shed");
        let admitted = report.metrics.processed;
        assert_eq!(
            admitted + report.metrics.shed_queue,
            trace.len() as u64,
            "every arrival is processed or shed"
        );
        // The server finishes after the last arrival (it lags behind).
        let arrival_span = trace.len() as f64 / 10.0;
        assert!(report.end_time.as_secs_f64() > arrival_span);
    }

    #[test]
    fn underload_service_rate_keeps_queue_empty() {
        let query = chain3(100);
        let trace = small_trace();
        // Service much faster than arrivals: nothing is shed even with a
        // tiny queue.
        let opts = RunOptions {
            arrival_rate: 5.0,
            ..Default::default()
        };
        let mut e = queued_engine(query.clone(), 100_000, Some((1000.0, 4)));
        let report = run_trace(&mut e, &trace, &opts);
        assert_eq!(report.metrics.shed_queue, 0);
        // And output equals the exact result on the same arrival timeline
        // (service delay is < one arrival gap, so window contents match).
        let exact = run_exact_trace(&query, &trace, &opts);
        assert_eq!(report.total_output(), exact.total_output());
    }

    /// Rows are read only to collect an aggregate, and reading them
    /// changes no count: runs with and without one give the same totals
    /// and series, shedding or not, and so does the exact run.
    #[test]
    fn agg_values_collected_per_bucket() {
        let query = chain3(100);
        let trace = small_trace();
        let counted = RunOptions {
            output_bucket: Some(VDur::from_secs(10)),
            ..Default::default()
        };
        let opts = RunOptions {
            agg_attr: Some((StreamId(0), 1)),
            agg_bucket: VDur::from_secs(20),
            ..counted
        };
        let counts = |r: &RunReport| {
            let series = r.series.as_ref().unwrap().counts().to_vec();
            (r.total_output(), r.metrics.shed_window, series)
        };
        for capacity in [24, 100_000] {
            let report = run_trace(&mut engine(query.clone(), capacity), &trace, &opts);
            let vals = report.agg_values.as_ref().unwrap();
            assert_eq!(
                vals.total_samples(),
                report.total_output(),
                "one sample per result tuple"
            );
            let plain = run_trace(&mut engine(query.clone(), capacity), &trace, &counted);
            assert!(plain.agg_values.is_none());
            assert_eq!(counts(&plain), counts(&report), "capacity {capacity}");
        }
        // The exact run collects the same number.
        let exact = run_exact_trace(&query, &trace, &opts);
        assert_eq!(
            exact.agg_values.as_ref().unwrap().total_samples(),
            exact.total_output()
        );
        assert_eq!(counts(&run_exact_trace(&query, &trace, &counted)), counts(&exact));
    }

    #[test]
    fn shed_run_is_subset_of_exact_for_max_subset_policy() {
        let query = chain3(100);
        let trace = small_trace();
        let opts = RunOptions::default();
        let mut e = engine(query.clone(), 24);
        let shed = run_trace(&mut e, &trace, &opts);
        let exact = run_exact_trace(&query, &trace, &opts);
        assert!(shed.total_output() <= exact.total_output());
        assert!(shed.total_output() > 0, "shedding should not starve output");
        assert!(shed.metrics.shed_window > 0);
    }

    #[test]
    fn fifo_baseline_runs_in_overload() {
        let query = chain3(50);
        let trace = small_trace();
        let opts = RunOptions {
            arrival_rate: 20.0,
            ..Default::default()
        };
        let mut e = ShedJoinEngine::new(
            vec![query],
            Box::new(Fifo),
            EngineConfig {
                capacity: 64,
                input_queue: Some(InputQueue {
                    service_rate: 4.0,
                    capacity: 10,
                }),
                ..Default::default()
            },
        )
        .unwrap();
        let report = run_trace(&mut e, &trace, &opts);
        assert!(report.metrics.shed_queue > 0);
        assert!(report.metrics.processed > 0);
    }
}
