//! Building the engine under test and replaying a workload through it.
//!
//! The harness thread is the only load generator and the loop is closed:
//! the next `ingest` is issued when the previous one returns. Nothing here
//! spawns a thread; only `ShardedJoinEngine` does, for its own workers.

use crate::oracle::AggSeries;
use crate::span::Tracer;
use crate::workloads::{AggSpec, EngineKind, Policy, Prepared};
use crate::ALLOC;
use mstream_core::mstream_join::Bindings;
use mstream_core::prelude::*;
use mstream_query::parse_query;
use std::time::Instant;

/// How one pass deviates from the workload's measured configuration.
#[derive(Clone, Debug)]
pub struct PassConfig {
    /// Engine to build (the workload's own, or `Single` for the in-process
    /// comparison of `keyed_sharded`).
    pub kind: EngineKind,
    /// Shedding policy.
    pub policy: Policy,
    /// Window budget, tuples per window.
    pub capacity: usize,
    /// Replay only the first `len` arrivals.
    pub len: usize,
    /// Worker count for the sharded engine.
    pub shards: usize,
    /// Sharded workers drain batches without joining.
    pub route_only: bool,
    /// Feed through `ingest_batch` in runs of this many arrivals.
    pub batch: Option<usize>,
}

impl PassConfig {
    /// The configuration the workload is measured under.
    pub fn measured(p: &Prepared) -> Self {
        PassConfig {
            kind: p.kind,
            policy: p.policy,
            capacity: p.capacity,
            len: p.arrivals.len(),
            shards: p.shards,
            route_only: false,
            batch: None,
        }
    }
}

/// What the harness observes around each `ingest` call of a pass.
pub enum Probe<'a> {
    /// Nothing: the pass `arrivals_per_s` is computed from.
    Off,
    /// Two `Instant::now()` per call; one sample per arrival, in
    /// nanoseconds, pushed into a buffer the caller pre-sized.
    Latency(&'a mut Vec<u64>),
    /// A span per call, under whatever span the caller has open.
    Trace(&'a mut Tracer),
}

impl Probe<'_> {
    /// The tracer of a traced pass.
    fn tracer(&mut self) -> Option<&mut Tracer> {
        match self {
            Probe::Trace(t) => Some(&mut **t),
            _ => None,
        }
    }
}

/// Runs `f` — which returns its result and the span's count — inside a
/// span named `name` when there is a tracer, bare otherwise.
fn in_span<T>(tracer: Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> (T, u64)) -> T {
    match tracer {
        Some(t) => t.scope(name, |_| f()),
        None => f().0,
    }
}

/// Everything a finished pass reports, read from the engine's public
/// counters after the timed section.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Result rows emitted (all queries).
    pub rows_out: u64,
    /// Rows per standing query, by query id.
    pub per_query: Vec<u64>,
    /// The engine's own counters (summed over shards).
    pub metrics: EngineMetrics,
    /// What the aggregate sink collected.
    pub agg: Option<AggSeries>,
    /// The sharded engine's merged report.
    pub sharded: Option<ShardedRunReport>,
    /// Query classes at the end of a multi-query pass.
    pub classes: usize,
    /// Shared stores at the end of a multi-query pass.
    pub stores: usize,
    /// Highest reorder-buffer occupancy seen (traced passes only).
    pub reorder_peak: usize,
}

/// One replay of a workload through a fresh engine.
#[derive(Clone, Debug)]
pub struct PassResult {
    /// Wall time from the first `ingest` to the end of `flush`/`finish`,
    /// one uninterrupted clock interval.
    pub wall_ns: u64,
    /// `wall_ns` cut into laps: readings of the same running clock every
    /// [`LAP_ARRIVALS`] arrivals, the last lap ending with `flush`/`finish`.
    /// One lap — the whole pass — where laps of different passes would not
    /// compare (see [`Target::LAPS_COMPARE`]) or the pass is probed.
    pub lap_ns: Vec<u64>,
    /// The part of `wall_ns` spent inside `flush`/`finish`.
    pub end_ns: u64,
    /// Peak live heap above the level just before the engine was built.
    pub heap_peak_bytes: usize,
    /// Allocator calls while the second half of the trace was fed.
    pub steady_allocs: u64,
    /// Process CPU time (user + system) consumed during `wall_ns`.
    pub cpu_ns: u64,
    /// The engine's report.
    pub outcome: Outcome,
}

/// A sink that can hand back what it collected.
pub trait RowSink: EmitSink {
    /// Rows received.
    fn rows(&self) -> u64;
    /// The collected aggregate, if this sink keeps one.
    fn into_agg(self) -> Option<AggSeries>;
}

impl RowSink for CountSink {
    fn rows(&self) -> u64 {
        self.produced
    }
    fn into_agg(self) -> Option<AggSeries> {
        None
    }
}

/// Counts rows and sums one attribute per time bucket — the windowed AVG
/// consumer of `census_rs`.
pub struct AvgSink {
    spec: AggSpec,
    rows: u64,
    series: AggSeries,
}

impl AvgSink {
    /// A sink for `spec` over a trace ending at `end`.
    pub fn new(spec: AggSpec, end: VTime) -> Self {
        AvgSink {
            spec,
            rows: 0,
            series: AggSeries::new(spec.bucket, end),
        }
    }
}

impl EmitSink for AvgSink {
    #[inline]
    fn emit(&mut self, _query: QueryId, b: &Bindings<'_>) {
        self.rows += 1;
        let v = b.value(self.spec.stream, self.spec.attr).raw();
        self.series.add(b.origin_tuple().ts, v, 1);
    }
}

impl RowSink for AvgSink {
    fn rows(&self) -> u64 {
        self.rows
    }
    fn into_agg(self) -> Option<AggSeries> {
        Some(self.series)
    }
}

fn boxed_policy(policy: Policy) -> Box<dyn ShedPolicy> {
    match policy {
        Policy::MSketch => Box::new(MSketch),
        Policy::MSketchRs => Box::new(MSketchRs),
        Policy::Fifo => Box::new(Fifo),
    }
}

/// The hot-key detector `shard_scaling --zipf` arms: decisions every 64
/// arrivals, promotion at a guaranteed 5‰ share, tracker sized past the
/// key domain so its counts are exact.
fn zipf_hot_keys() -> HotKeyConfig {
    HotKeyConfig {
        enabled: true,
        capacity: 64,
        tracker_capacity: 2048,
        epoch_arrivals: 64,
        promote_permille: 5,
        demote_permille: 2,
    }
}

fn single_builder(p: &Prepared, cfg: &PassConfig) -> EngineBuilder {
    let query = parse_query(&p.queries[0].text).expect("workload query text is valid");
    let mut b = EngineBuilder::new(query)
        .boxed_policy(boxed_policy(cfg.policy))
        .capacity_per_window(cfg.capacity);
    if let Some(bound) = p.disorder {
        b = b.disorder_bound(bound);
    }
    b
}

/// Query text → parsed query → built `ShedJoinEngine`.
pub fn build_single(p: &Prepared, cfg: &PassConfig) -> ShedJoinEngine {
    single_builder(p, cfg)
        .build()
        .expect("valid engine configuration")
}

/// Query text → parsed query → built `ShardedJoinEngine` (workers spawned).
pub fn build_sharded(p: &Prepared, cfg: &PassConfig) -> ShardedJoinEngine {
    let engine = single_builder(p, cfg)
        .shard_config(ShardConfig {
            shards: cfg.shards,
            channel_capacity: 64,
            batch_size: 256,
            backpressure: Backpressure::Block,
            route_only: cfg.route_only,
            hot_keys: zipf_hot_keys(),
            ..ShardConfig::default()
        })
        .build_sharded()
        .expect("valid engine configuration");
    assert_eq!(
        engine.shards(),
        cfg.shards,
        "the keyed query must partition"
    );
    engine
}

/// Query texts → parsed queries → built `MultiQueryEngine` with every
/// query that is standing at the start of the trace registered.
pub fn build_multi(p: &Prepared, cfg: &PassConfig) -> MultiQueryEngine {
    let mut b = EngineBuilder::new_multi()
        .boxed_policy(boxed_policy(cfg.policy))
        .capacity_per_window(cfg.capacity);
    for q in p.queries.iter().filter(|q| q.from == 0) {
        let query = parse_query(&q.text).expect("workload query text is valid");
        b.register(query).expect("workload schemas agree");
    }
    b.build_multi().expect("valid engine configuration")
}

/// Times one set-up — query text to a built engine, workers running and
/// queries registered — in seconds, and tears the engine down untimed.
pub fn time_setup(p: &Prepared) -> f64 {
    fn timed<T>(build: impl FnOnce() -> T) -> (T, f64) {
        let t0 = Instant::now();
        let engine = build();
        (engine, t0.elapsed().as_secs_f64())
    }
    let cfg = PassConfig::measured(p);
    match p.kind {
        EngineKind::Single => timed(|| build_single(p, &cfg)).1,
        EngineKind::Multi => timed(|| build_multi(p, &cfg)).1,
        EngineKind::Sharded => {
            let (engine, secs) = timed(|| build_sharded(p, &cfg));
            engine.finish().expect("idle workers exit cleanly");
            secs
        }
    }
}

/// Arrivals per lap of a timed pass: about 0.1 ms of `flat_single` and
/// 2 ms of `skew_single` — shorter than the stretches the machine leaves
/// undisturbed, long beside the 25 ns a clock reading costs (0.02% of the
/// cheapest lap).
pub const LAP_ARRIVALS: usize = 64;

/// The lap readings of one pass: one clock, never stopped.
struct Laps {
    every: usize,
    since: usize,
    last: Instant,
    ns: Vec<u64>,
}

impl Laps {
    /// Starts the clock; lap times go into `buffer`.
    fn start(every: usize, buffer: Vec<u64>) -> Self {
        Laps {
            every,
            since: 0,
            last: Instant::now(),
            ns: buffer,
        }
    }

    /// One arrival fed; reads the clock when it completes a lap.
    #[inline]
    fn tick(&mut self) {
        self.since += 1;
        if self.since == self.every {
            self.close();
        }
    }

    /// Ends the current lap now.
    fn close(&mut self) {
        let now = Instant::now();
        self.ns.push((now - self.last).as_nanos() as u64);
        self.last = now;
        self.since = 0;
    }
}

/// The engine-specific half of a pass.
trait Target {
    /// Whether the calling thread does all of the engine's work inside
    /// `ingest`, so that a stretch of the trace costs the same in every
    /// pass. Not so with worker threads: how long the caller waits on a
    /// full channel differs from pass to pass.
    const LAPS_COMPARE: bool = true;
    /// One arrival in; rows it produced out (0 when the engine reports
    /// rows only at the end).
    fn ingest(&mut self, a: Arrival) -> u64;
    /// A run of arrivals through the engine's batch entry point.
    fn ingest_batch(&mut self, batch: Vec<Arrival>) -> u64;
    /// `add_query` / `remove_query` due just before arrival `at`.
    fn control(&mut self, _at: usize, _tracer: Option<&mut Tracer>) {}
    /// Arrivals held in reorder buffers.
    fn buffered(&self) -> usize {
        0
    }
    /// `flush` / `finish`, then the final counters.
    fn end(self, tracer: Option<&mut Tracer>) -> Outcome;
}

struct SingleTarget<S: RowSink> {
    engine: ShedJoinEngine,
    sink: S,
}

impl<S: RowSink> Target for SingleTarget<S> {
    #[inline]
    fn ingest(&mut self, a: Arrival) -> u64 {
        self.engine.ingest(a, &mut self.sink).produced
    }

    fn ingest_batch(&mut self, batch: Vec<Arrival>) -> u64 {
        self.engine.ingest_batch(batch, &mut self.sink).produced
    }

    fn buffered(&self) -> usize {
        self.engine.buffered()
    }

    fn end(mut self, tracer: Option<&mut Tracer>) -> Outcome {
        in_span(tracer, "core.engine.flush", || {
            let produced = self.engine.flush(&mut self.sink).produced;
            ((), produced)
        });
        let rows = self.sink.rows();
        Outcome {
            rows_out: rows,
            per_query: vec![rows],
            metrics: self.engine.metrics().clone(),
            agg: self.sink.into_agg(),
            ..Outcome::default()
        }
    }
}

struct ShardedTarget {
    engine: ShardedJoinEngine,
}

impl Target for ShardedTarget {
    const LAPS_COMPARE: bool = false;

    #[inline]
    fn ingest(&mut self, a: Arrival) -> u64 {
        self.engine.ingest(a);
        0
    }

    fn ingest_batch(&mut self, _batch: Vec<Arrival>) -> u64 {
        unreachable!("the sharded engine has no batch entry point")
    }

    fn end(self, tracer: Option<&mut Tracer>) -> Outcome {
        let report = in_span(tracer, "core.shard.finish", || {
            let report = self.engine.finish().expect("workers exit cleanly");
            let rows = report.combined.total_output();
            (report, rows)
        });
        let rows = report.combined.total_output();
        Outcome {
            rows_out: rows,
            per_query: vec![rows],
            metrics: report.combined.metrics.clone(),
            sharded: Some(report),
            ..Outcome::default()
        }
    }
}

struct MultiTarget<'a> {
    engine: MultiQueryEngine,
    sink: CountSink,
    p: &'a Prepared,
    /// Rows of queries already removed (their stats vanish with them).
    retired: Vec<Option<u64>>,
}

impl Target for MultiTarget<'_> {
    #[inline]
    fn ingest(&mut self, a: Arrival) -> u64 {
        self.engine.ingest(a, &mut self.sink).produced
    }

    fn ingest_batch(&mut self, batch: Vec<Arrival>) -> u64 {
        self.engine.ingest_batch(batch, &mut self.sink).produced
    }

    fn control(&mut self, at: usize, mut tracer: Option<&mut Tracer>) {
        for (qi, q) in self.p.queries.iter().enumerate() {
            if q.from == at {
                let id = in_span(tracer.as_deref_mut(), "core.multi.add_query", || {
                    let query = parse_query(&q.text).expect("workload query text is valid");
                    (self.engine.add_query(query).expect("compatible query"), 1)
                });
                assert_eq!(id.index(), qi, "query ids follow registration order");
            }
            if q.until == at {
                let id = QueryId(qi as u32);
                self.retired[qi] = self.engine.query_stats(id).map(|s| s.produced);
                let removed = in_span(tracer.as_deref_mut(), "core.multi.remove_query", || {
                    (self.engine.remove_query(id), 1)
                });
                assert!(removed, "query {qi} was registered");
            }
        }
    }

    fn end(mut self, _tracer: Option<&mut Tracer>) -> Outcome {
        let per_query = (0..self.p.queries.len())
            .map(|qi| {
                self.retired[qi]
                    .or_else(|| {
                        self.engine
                            .query_stats(QueryId(qi as u32))
                            .map(|s| s.produced)
                    })
                    .unwrap_or(0)
            })
            .collect();
        Outcome {
            rows_out: self.sink.produced,
            per_query,
            metrics: self.engine.metrics().clone(),
            classes: self.engine.n_classes(),
            stores: self.engine.n_stores(),
            ..Outcome::default()
        }
    }
}

/// Process CPU time (user + system) so far, from `/proc/self/stat`, in
/// nanoseconds; 0 where that file does not exist.
pub fn process_cpu_ns() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line, in clock ticks (100 Hz on Linux).
    let Some(rest) = stat.rsplit(')').next() else {
        return 0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) * 10_000_000
}

fn feed<T: Target>(
    target: &mut T,
    arrivals: impl Iterator<Item = Arrival>,
    batch: Option<usize>,
    probe: &mut Probe<'_>,
    laps: &mut Laps,
    reorder_peak: &mut usize,
) {
    if let Some(size) = batch {
        let mut arrivals = arrivals.peekable();
        while arrivals.peek().is_some() {
            let run: Vec<Arrival> = arrivals.by_ref().take(size).collect();
            target.ingest_batch(run);
        }
        return;
    }
    match probe {
        Probe::Off => {
            for a in arrivals {
                target.ingest(a);
                laps.tick();
            }
        }
        Probe::Latency(samples) => {
            for a in arrivals {
                let t0 = Instant::now();
                target.ingest(a);
                samples.push(t0.elapsed().as_nanos() as u64);
            }
        }
        Probe::Trace(tracer) => {
            let name = tracer.name("ingest");
            for a in arrivals {
                let id = tracer.begin(name);
                let rows = target.ingest(a);
                tracer.end(id, rows);
                *reorder_peak = (*reorder_peak).max(target.buffered());
            }
        }
    }
}

fn drive<T: Target>(
    mut target: T,
    arrivals: Vec<Arrival>,
    lap_buffer: Vec<u64>,
    controls: &[usize],
    batch: Option<usize>,
    probe: &mut Probe<'_>,
) -> PassResult {
    let n = arrivals.len();
    let half = n / 2;
    // The trace is fed in stretches that end at the control points, at the
    // half-way mark (where the steady-state allocation count starts) and at
    // the end; the clock runs across all of them.
    let mut cuts: Vec<usize> = controls.iter().copied().filter(|&c| c < n).collect();
    cuts.extend([half, n]);
    cuts.sort_unstable();
    cuts.dedup();
    cuts.retain(|&c| c > 0);
    let mut it = arrivals.into_iter();
    let mut pos = 0;
    let mut allocs_at_half = 0;
    let mut reorder_peak = 0;
    let every = if T::LAPS_COMPARE {
        LAP_ARRIVALS
    } else {
        usize::MAX
    };
    let cpu0 = process_cpu_ns();
    let mut laps = Laps::start(every, lap_buffer);
    for cut in cuts {
        feed(
            &mut target,
            it.by_ref().take(cut - pos),
            batch,
            probe,
            &mut laps,
            &mut reorder_peak,
        );
        pos = cut;
        if cut == half {
            allocs_at_half = ALLOC.calls();
        }
        if cut < n && controls.contains(&cut) {
            target.control(cut, probe.tracer());
        }
    }
    let steady_allocs = ALLOC.calls() - allocs_at_half;
    let t_end = Instant::now();
    let mut outcome = target.end(probe.tracer());
    let end_ns = t_end.elapsed().as_nanos() as u64;
    laps.close();
    let cpu_ns = process_cpu_ns() - cpu0;
    outcome.reorder_peak = reorder_peak;
    PassResult {
        wall_ns: laps.ns.iter().sum(),
        lap_ns: laps.ns,
        end_ns,
        heap_peak_bytes: 0,
        steady_allocs,
        cpu_ns,
        outcome,
    }
}

/// Replays the first `cfg.len` arrivals of `p` through a fresh engine.
pub fn run_pass(p: &Prepared, cfg: &PassConfig, mut probe: Probe<'_>) -> PassResult {
    // The replayed copy and the lap buffer are made before the heap
    // baseline is taken: they are the harness's, not the engine's.
    let arrivals: Vec<Arrival> = p.arrivals[..cfg.len].to_vec();
    let lap_buffer = Vec::with_capacity(cfg.len / LAP_ARRIVALS + 2);
    let controls = p.control_points();
    let end = arrivals.last().map_or(VTime::ZERO, |a| a.ts);
    let baseline = ALLOC.reset_peak();
    let result = match cfg.kind {
        EngineKind::Single => {
            let engine = in_span(probe.tracer(), "setup", || (build_single(p, cfg), 1));
            match p.agg {
                Some(spec) => {
                    let sink = AvgSink::new(spec, end);
                    drive(
                        SingleTarget { engine, sink },
                        arrivals,
                        lap_buffer,
                        &controls,
                        cfg.batch,
                        &mut probe,
                    )
                }
                None => {
                    let sink = CountSink::default();
                    drive(
                        SingleTarget { engine, sink },
                        arrivals,
                        lap_buffer,
                        &controls,
                        cfg.batch,
                        &mut probe,
                    )
                }
            }
        }
        EngineKind::Sharded => {
            let engine = in_span(probe.tracer(), "setup", || (build_sharded(p, cfg), 1));
            drive(
                ShardedTarget { engine },
                arrivals,
                lap_buffer,
                &controls,
                cfg.batch,
                &mut probe,
            )
        }
        EngineKind::Multi => {
            let engine = in_span(probe.tracer(), "setup", || (build_multi(p, cfg), 1));
            let target = MultiTarget {
                engine,
                sink: CountSink::default(),
                p,
                retired: vec![None; p.queries.len()],
            };
            drive(
                target, arrivals, lap_buffer, &controls, cfg.batch, &mut probe,
            )
        }
    };
    PassResult {
        heap_peak_bytes: ALLOC.peak().saturating_sub(baseline),
        ..result
    }
}
