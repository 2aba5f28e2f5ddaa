//! The discrete-event simulation driver (paper §2, Figure 1).
//!
//! The model has two rates: tuples arrive at `k` per second (globally,
//! interleaved across streams by the trace) and the join operator services
//! `l` per second. When `k ≤ l` the queue never forms and every tuple is
//! processed at its arrival instant; when `k > l` (Figure 6 uses `k = 5l`)
//! a bounded queue builds up in front of the operator and sheds by the
//! active policy's queue priority.
//!
//! Everything runs on virtual time, so runs are exactly reproducible; the
//! wall-clock time the engine spends processing is measured separately
//! (Figure 3).

use crate::engine::ShedJoinEngine;
use crate::ingest::{Arrival, FnSink};
use crate::report::RunReport;
use mstream_agg::{BucketSeries, HistBuckets};
use mstream_join::ExactJoin;
use mstream_types::{JoinQuery, StreamId, VDur, VTime};
use mstream_window::ShedQueue;
use mstream_workload::Trace;
use std::time::Instant;

/// Arrival / service model for one run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimConfig {
    /// Global arrival rate `k` in tuples per second (the trace's streams
    /// share it in their interleaved order).
    pub arrival_rate: f64,
    /// Join service rate `l` in tuples per second; `None` models an
    /// operator fast enough that the queue never forms.
    pub service_rate: Option<f64>,
    /// Input-queue capacity in tuples (only used when `service_rate` is
    /// set; the paper's overload experiment keeps 100).
    pub queue_capacity: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            arrival_rate: 10.0,
            service_rate: None,
            queue_capacity: 100,
        }
    }
}

/// What to collect during a run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunOptions {
    /// The arrival/service model.
    pub sim: SimConfig,
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
            sim: SimConfig::default(),
            output_bucket: None,
            agg_attr: None,
            agg_bucket: VDur::from_secs(500),
        }
    }
}

/// Runs `trace` through a shedding engine under the given model.
///
/// Each arrival clones `item.values`, which for inline arities (≤
/// [`mstream_types::ROW_INLINE`]) is a plain [`mstream_types::Row`] copy —
/// replaying a trace allocates nothing per item.
pub fn run_trace(engine: &mut ShedJoinEngine, trace: &Trace, opts: &RunOptions) -> RunReport {
    let dt = VDur::from_rate(opts.sim.arrival_rate);
    let mut series = opts.output_bucket.map(BucketSeries::new);
    let mut aggs = opts.agg_attr.map(|_| HistBuckets::new(opts.agg_bucket));
    let agg_attr = opts.agg_attr;
    let mut end_time = VTime::ZERO;
    let started = Instant::now();
    match opts.sim.service_rate {
        None => {
            // Underload: process at arrival instants.
            for (i, item) in trace.items.iter().enumerate() {
                let now = VTime::ZERO + dt.mul(i as u64);
                let aggs_ref = &mut aggs;
                let outcome = engine.ingest(
                    Arrival::new(item.stream, item.values.clone(), now),
                    &mut FnSink(|b: &mstream_join::Bindings<'_>| {
                        if let (Some(buckets), Some((s, a))) = (aggs_ref.as_mut(), agg_attr) {
                            buckets.add(now, b.value(s, a).raw());
                        }
                    }),
                );
                if let Some(series) = series.as_mut() {
                    series.add(now, outcome.produced);
                }
                end_time = now;
            }
            // End of trace: drain the event-time reorder buffers (no-op
            // without a disorder bound). Flushed results land in the bucket
            // of the last arrival instant.
            let aggs_ref = &mut aggs;
            let outcome = engine.flush(&mut FnSink(|b: &mstream_join::Bindings<'_>| {
                if let (Some(buckets), Some((s, a))) = (aggs_ref.as_mut(), agg_attr) {
                    buckets.add(end_time, b.value(s, a).raw());
                }
            }));
            if let Some(series) = series.as_mut() {
                if outcome.produced > 0 {
                    series.add(end_time, outcome.produced);
                }
            }
        }
        Some(l) => {
            let svc = VDur::from_rate(l);
            let mut queue = ShedQueue::new(opts.sim.queue_capacity);
            let mut server_free = VTime::ZERO;
            for (i, item) in trace.items.iter().enumerate() {
                let t_arr = VTime::ZERO + dt.mul(i as u64);
                drain_queue(
                    engine,
                    &mut queue,
                    &mut server_free,
                    svc,
                    Some(t_arr),
                    &mut series,
                    &mut aggs,
                    agg_attr,
                    &mut end_time,
                );
                let tuple = engine.mint(Arrival::new(item.stream, item.values.clone(), t_arr));
                engine.offer(&mut queue, tuple, t_arr);
            }
            // Drain whatever survived the arrival phase.
            drain_queue(
                engine,
                &mut queue,
                &mut server_free,
                svc,
                None,
                &mut series,
                &mut aggs,
                agg_attr,
                &mut end_time,
            );
        }
    }
    RunReport {
        metrics: engine.metrics().clone(),
        series,
        agg_values: aggs,
        end_time,
        wall_time: started.elapsed(),
        ..Default::default()
    }
}

/// Services queued tuples until `until` (or until empty when `None`).
#[allow(clippy::too_many_arguments)]
fn drain_queue(
    engine: &mut ShedJoinEngine,
    queue: &mut ShedQueue,
    server_free: &mut VTime,
    svc: VDur,
    until: Option<VTime>,
    series: &mut Option<BucketSeries>,
    aggs: &mut Option<HistBuckets>,
    agg_attr: Option<(StreamId, usize)>,
    end_time: &mut VTime,
) {
    while let Some(head) = queue.peek_front() {
        // Service can start once the server is free and the tuple exists.
        let start = (*server_free).max(head.ts);
        if let Some(limit) = until {
            if start >= limit {
                break;
            }
        }
        let tuple = queue.pop_front().expect("peeked tuple present");
        let outcome = engine.ingest_tuple(
            tuple,
            start,
            &mut FnSink(|b: &mstream_join::Bindings<'_>| {
                if let (Some(buckets), Some((s, a))) = (aggs.as_mut(), agg_attr) {
                    buckets.add(start, b.value(s, a).raw());
                }
            }),
        );
        if let Some(series) = series.as_mut() {
            series.add(start, outcome.produced);
        }
        *server_free = start + svc;
        *end_time = start;
    }
}

/// Runs `trace` through the exact (unbounded, unshedded) reference join on
/// the same arrival timeline, collecting the same observables. This is the
/// ground truth against which shedding runs are compared; service-rate
/// limits do not apply (the true answer is defined by arrivals alone).
pub fn run_exact_trace(query: &JoinQuery, trace: &Trace, opts: &RunOptions) -> RunReport {
    let dt = VDur::from_rate(opts.sim.arrival_rate);
    let mut join = ExactJoin::new(query.clone());
    let mut series = opts.output_bucket.map(BucketSeries::new);
    let mut aggs = opts.agg_attr.map(|_| HistBuckets::new(opts.agg_bucket));
    let agg_attr = opts.agg_attr;
    let mut end_time = VTime::ZERO;
    let started = Instant::now();
    for (i, item) in trace.items.iter().enumerate() {
        let now = VTime::ZERO + dt.mul(i as u64);
        let aggs_ref = &mut aggs;
        let produced = join.process_each(item.stream, item.values.clone(), now, |b| {
            if let (Some(buckets), Some((s, a))) = (aggs_ref.as_mut(), agg_attr) {
                buckets.add(now, b.value(s, a).raw());
            }
        });
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
    use crate::engine::{EngineConfig, MemoryMode};
    use mstream_shed_policies::{Fifo, MSketch};
    use mstream_sketch::BankConfig;
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
        ShedJoinEngine::new(
            vec![query],
            Box::new(MSketch),
            EngineConfig {
                memory: MemoryMode::PerWindow(capacity),
                bank: BankConfig {
                    s1: 30,
                    s2: 1,
                    seed: 1,
                },
                epoch: None,
                seed: 2,
                disorder: None,
                score_cache: true,
            },
        )
        .unwrap()
    }

    #[test]
    fn underload_run_matches_exact_with_big_memory() {
        let query = chain3(100);
        let trace = small_trace();
        let opts = RunOptions {
            sim: SimConfig {
                arrival_rate: 10.0,
                service_rate: None,
                queue_capacity: 100,
            },
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
            sim: SimConfig {
                arrival_rate: 10.0,
                service_rate: Some(2.0),
                queue_capacity: 20,
            },
            ..Default::default()
        };
        let mut e = engine(query, 1_000);
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
            sim: SimConfig {
                arrival_rate: 5.0,
                service_rate: Some(1000.0),
                queue_capacity: 4,
            },
            ..Default::default()
        };
        let mut e = engine(query.clone(), 100_000);
        let report = run_trace(&mut e, &trace, &opts);
        assert_eq!(report.metrics.shed_queue, 0);
        // And output equals the exact result on the same arrival timeline
        // (service delay is < one arrival gap, so window contents match).
        let exact = run_exact_trace(&query, &trace, &opts);
        assert_eq!(report.total_output(), exact.total_output());
    }

    #[test]
    fn agg_values_collected_per_bucket() {
        let query = chain3(100);
        let trace = small_trace();
        let opts = RunOptions {
            agg_attr: Some((StreamId(0), 1)),
            agg_bucket: VDur::from_secs(20),
            ..Default::default()
        };
        let mut e = engine(query.clone(), 100_000);
        let report = run_trace(&mut e, &trace, &opts);
        let vals = report.agg_values.as_ref().unwrap();
        assert_eq!(
            vals.total_samples(),
            report.total_output(),
            "one sample per result tuple"
        );
        // The exact run collects the same number.
        let exact = run_exact_trace(&query, &trace, &opts);
        assert_eq!(
            exact.agg_values.as_ref().unwrap().total_samples(),
            exact.total_output()
        );
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
            sim: SimConfig {
                arrival_rate: 20.0,
                service_rate: Some(4.0),
                queue_capacity: 10,
            },
            ..Default::default()
        };
        let mut e = ShedJoinEngine::new(
            vec![query],
            Box::new(Fifo),
            EngineConfig {
                memory: MemoryMode::PerWindow(64),
                ..Default::default()
            },
        )
        .unwrap();
        let report = run_trace(&mut e, &trace, &opts);
        assert!(report.metrics.shed_queue > 0);
        assert!(report.metrics.processed > 0);
    }
}
