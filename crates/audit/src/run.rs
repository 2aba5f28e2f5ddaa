//! The one differential run: every policy's engine — in process and
//! sharded, as shipped and as its A/B twin, in order and behind the
//! event-time front end or (the queued class, in process) the input
//! queue — against the exact oracle of each query, with per-arrival
//! structural invariant checks.

use crate::disorder::inject_disorder;
use crate::eager::Eager;
use crate::gen::{catalog_order, pool_streams, Arrival, Case, Churn, Trace};
use mstream_core::{
    parse_policy, BankConfig, Bindings, EngineBuilder, EngineMetrics, ExactJoin, QueryFnSink,
    ShardConfig, ShedPolicy, ALL_POLICY_NAMES,
};
use mstream_types::{JoinQuery, Partitioning, QueryId, StreamId, Tuple, VTime, Value, WindowSpec};
use std::collections::HashMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What contract a failing case violated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// At 100% memory, or in process where no window can fill, a query's
    /// result multiset differed from its exact oracle's.
    ExactMismatch,
    /// Under reduced memory a query emitted a result its oracle never
    /// produced (shed output must be a sub-multiset of exact output).
    NotSubMultiset,
    /// A query whose class owns every store it reads diverged from its
    /// solo run (rows, or their order) under reduced memory.
    SoloReplay,
    /// A structural invariant check (or any engine internals) panicked.
    InvariantPanic,
    /// A queued run lost or duplicated an arrival: its processed and
    /// queue-shed counts did not sum to the arrivals fed.
    QueueConservation,
    /// The sharded engine violated its partitioning contract: wrong shard
    /// count, missing/spurious degrade reason, a rejected registration, or
    /// channel drops under blocking backpressure.
    ShardContract,
    /// The event-time front end broke a disorder contract: a run behind
    /// it (bound `K`, the trace shuffled within `K`; `K = 0` in order)
    /// diverged from the in-order run without it, or a beyond-bound
    /// arrival was not dropped-and-counted cleanly.
    DisorderContract,
    /// A score-cache A/B pair diverged: cache on and off emitted different
    /// rows or different normalized metrics (DESIGN.md §16).
    ScoreCacheDivergence,
    /// A plain-vs-eager A/B pair diverged: owing a priority changed what
    /// it is, not just when it is computed (DESIGN.md §16).
    DeferralDivergence,
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FailureKind::ExactMismatch => "exact-mismatch (100% memory, or no window can fill)",
            FailureKind::NotSubMultiset => "not-a-sub-multiset (reduced memory)",
            FailureKind::SoloReplay => "solo-replay-divergence (store owner)",
            FailureKind::InvariantPanic => "invariant-violation",
            FailureKind::QueueConservation => "queue-conservation (processed + shed_queue)",
            FailureKind::ShardContract => "shard-contract-violation",
            FailureKind::DisorderContract => "disorder-contract-violation (event time)",
            FailureKind::ScoreCacheDivergence => "score-cache-divergence (on/off A/B)",
            FailureKind::DeferralDivergence => "deferral-divergence (plain/eager A/B)",
        })
    }
}

/// A reproducible audit failure.
#[derive(Clone, Debug)]
pub struct Failure {
    /// The run the failure surfaced in.
    pub policy: String,
    /// Violated contract.
    pub kind: FailureKind,
    /// Human-readable specifics (first differing row, panic message, …).
    pub detail: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}: {}", self.policy, self.kind, self.detail)
    }
}

/// What a passing case exercised, for the sweep summary.
#[derive(Clone, Copy, Debug, Default)]
pub struct CaseStats {
    /// Some in-process run held a store that owed its priorities
    /// (DESIGN.md §16) after at least one arrival.
    pub deferred: bool,
    /// Some in-process run held an idle class: no window it reads can
    /// fill, so it estimated nothing (DESIGN.md §16).
    pub idle: bool,
    /// Some sharded run routed a skewed-key case (`seed % 8 == 4`).
    pub skewed_sharded: bool,
    /// The late-drop probe ran (every stream's high-water mark cleared K).
    pub late_probe: bool,
}

/// One result row: per stream of the query, in its local order, the
/// tuple's trace position (`u64::MAX` for a sequence number nothing was
/// minted under) and then its values.
type ResultRow = Vec<u64>;

/// Result rows per registered query id.
type Rows = Vec<Vec<ResultRow>>;

fn result_row<'t>(tuples: impl Iterator<Item = &'t Tuple>, position: &[usize]) -> ResultRow {
    let mut r = Vec::new();
    for t in tuples {
        let at = position.get(t.seq.0 as usize);
        r.push(at.map_or(u64::MAX, |&p| p as u64));
        r.extend(t.values.iter().map(|v| v.0));
    }
    r
}

fn bound_row(b: &Bindings<'_>, position: &[usize]) -> ResultRow {
    result_row((0..b.n_streams()).map(|k| b.tuple(StreamId(k))), position)
}

/// How one run departs from the shipped engine fed the in-order trace.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Variant {
    /// Pins the productivity score cache on or off (`None`: the builder
    /// default, on).
    pub cache: Option<bool>,
    /// Runs the policy behind [`Eager`]: every arrival scored, every
    /// window rebuilt at every rollover.
    pub eager: bool,
    /// Arms the front end with the case's bound `K` and feeds the trace
    /// shuffled within `K`.
    pub front: bool,
}

impl Variant {
    /// `name`'s policy as this variant runs it.
    pub(crate) fn policy(self, name: &str) -> Box<dyn ShedPolicy> {
        let policy = parse_policy(name).expect("every registered policy parses");
        if self.eager {
            Box::new(Eager(policy))
        } else {
            policy
        }
    }
}

/// The two runs every configuration of `policy` gets, and the contract a
/// divergence between them breaks. Odd seeds pin the score cache on
/// against off (every policy); even seeds run each policy that lets the
/// engine owe priorities plain against eager, and every other policy
/// against itself. The first run of each pair sits behind the front end
/// (`front`: no churn and no input queue) and the second runs in order, so
/// every pair also holds the event-time run to the in-order one; in the
/// deferral pair the first run is the engine as shipped, owing its
/// priorities behind the front end.
pub(crate) fn ab_pair(
    cache_ab: bool,
    front: bool,
    policy: &str,
) -> (Variant, Option<Variant>, FailureKind) {
    let shipped = Variant::default();
    let first = Variant { front, ..shipped };
    if cache_ab {
        let on = Variant {
            cache: Some(true),
            ..first
        };
        let off = Variant {
            cache: Some(false),
            ..shipped
        };
        return (on, Some(off), FailureKind::ScoreCacheDivergence);
    }
    if shipped.policy(policy).deferrable_priority() {
        let eager = Variant {
            eager: true,
            ..shipped
        };
        return (first, Some(eager), FailureKind::DeferralDivergence);
    }
    (
        first,
        front.then_some(shipped),
        FailureKind::DisorderContract,
    )
}

/// One engine run: the policy, the memory (full or the case's reduced
/// capacity), in process or sharded at a width, and the variant.
#[derive(Clone, Copy)]
struct Run<'a> {
    policy: &'a str,
    full: bool,
    shards: Option<usize>,
    variant: Variant,
    /// Appends one arrival at timestamp 0 after the trace, beyond the
    /// bound once every stream's high-water mark has cleared it.
    late: bool,
}

impl<'a> Run<'a> {
    /// `policy` as shipped over the in-order trace.
    fn new(policy: &'a str, full: bool, shards: Option<usize>) -> Self {
        Run {
            policy,
            full,
            shards,
            variant: Variant::default(),
            late: false,
        }
    }

    fn label(&self) -> String {
        match self.shards {
            Some(s) => format!("{}@x{s}", self.policy),
            None => self.policy.into(),
        }
    }
}

/// What one run observed.
struct Output {
    rows: Rows,
    metrics: EngineMetrics,
}

/// The shard tuning every sharded run takes: batches of three and
/// channels of four, so flushes (and registrations) land mid-trace.
fn audit_shard_config(shards: usize) -> ShardConfig {
    ShardConfig {
        shards,
        channel_capacity: 4,
        batch_size: 3,
        collect_rows: true,
        ..ShardConfig::default()
    }
}

/// The one builder setup: `queries` registered in order, explicit epoch
/// and sketch bank, case-seeded determinism, the variant's policy, cache
/// pin and front end, the case's input queue in process, and the run's
/// memory — full memory holds the whole trace on every window (times the
/// width: skewed routing may land it all on one worker).
fn builder(case: &Case, queries: &[JoinQuery], len: usize, run: &Run) -> EngineBuilder {
    let mut b = EngineBuilder::new_multi()
        .boxed_policy(run.variant.policy(run.policy))
        .epoch(case.epoch)
        .bank(BankConfig {
            s1: 32,
            s2: 1,
            seed: case.seed,
        })
        .seed(case.seed);
    if let Some(on) = run.variant.cache {
        b = b.score_cache(on);
    }
    if run.variant.front {
        b = b.disorder_bound(case.disorder);
    }
    if let (Some(queue), None) = (case.queue, run.shards) {
        b = b.input_queue(queue.service_rate, queue.capacity);
    }
    for query in queries {
        b.register(query.clone()).expect("pool schemas agree");
    }
    if let Some(shards) = run.shards {
        b = b.shard_config(audit_shard_config(shards));
    }
    match run.full {
        true => b.capacity_per_window((len + 1) * run.shards.unwrap_or(1)),
        false => b.capacity_per_window(case.capacity),
    }
}

/// What the engine is fed: the trace, shuffled within `K` behind the
/// front end, then the late arrival if the run asks for one.
fn fed(case: &Case, queries: &[JoinQuery], trace: &Trace, run: &Run) -> Vec<Arrival> {
    let mut fed = if run.variant.front {
        inject_disorder(&trace.arrivals, case.disorder, case.seed ^ 0x5EED_5EED)
    } else {
        trace.arrivals.clone()
    };
    if run.late {
        let stream = pool_streams(&queries[0])[0];
        let values = vec![0; case.arity[stream]];
        fed.push(Arrival {
            stream,
            values,
            at_micros: 0,
        });
    }
    fed
}

/// The engine arrival for `a`, addressed through `ids` (pool → global).
fn arrival(a: &Arrival, ids: &[Option<StreamId>]) -> mstream_core::Arrival {
    let values: Vec<Value> = a.values.iter().map(|&v| Value(v)).collect();
    let stream = ids[a.stream].expect("arrivals target registered streams");
    mstream_core::Arrival::new(stream, values, VTime::from_micros(a.at_micros))
}

/// Drives one run over `trace` and returns each registered query's rows:
/// in emit order in process, in the merged report's canonical order
/// sharded. The engine mints sequence numbers in release (or, queued,
/// arrival) order, which is trace order for every run made here, so
/// `position[seq]` is the trace position of the tuple minted `seq`-th.
/// Panics anywhere inside the engine become
/// [`FailureKind::InvariantPanic`]; a queued run whose processed and
/// queue-shed counts do not sum to the arrivals fed fails
/// [`FailureKind::QueueConservation`].
fn drive(
    case: &Case,
    queries: &[JoinQuery],
    trace: &Trace,
    position: &[usize],
    run: Run,
    stats: &mut CaseStats,
) -> Result<Output, Failure> {
    let fail = |kind, detail: String| Failure {
        policy: run.label(),
        kind,
        detail,
    };
    let panicked = |at: &str, payload: Box<dyn std::any::Any + Send>| {
        fail(
            FailureKind::InvariantPanic,
            format!("{at}: {}", panic_message(&*payload)),
        )
    };
    let unbuilt = |e| {
        fail(
            FailureKind::InvariantPanic,
            format!("construction failed: {e:?}"),
        )
    };
    let built = builder(case, queries, trace.arrivals.len(), &run);
    let fed = fed(case, queries, trace, &run);
    let adds = trace
        .churn
        .iter()
        .filter(|(_, c)| matches!(c, Churn::Add(_)));
    let mut rows: Rows = vec![Vec::new(); queries.len() + adds.count()];
    let mut churn = trace.churn.iter().peekable();

    let Some(shards) = run.shards else {
        let mut engine = built.build_multi().map_err(unbuilt)?;
        let ids: Vec<_> = (0..case.arity.len())
            .map(|p| engine.stream_id(&format!("R{}", p + 1)))
            .collect();
        let mut next_id = queries.len();
        let mut sink = QueryFnSink(|q: QueryId, b: &Bindings<'_>| {
            rows[q.index()].push(bound_row(b, position))
        });
        for i in 0..=fed.len() {
            let step = catch_unwind(AssertUnwindSafe(|| {
                while let Some((_, event)) = churn.next_if(|(at, _)| *at == i) {
                    match event {
                        Churn::Remove(q) => assert!(engine.remove_query(QueryId(*q as u32))),
                        Churn::Add(query) => {
                            let id = engine.add_query(query.clone()).expect("pool schemas agree");
                            assert_eq!(id.index(), next_id, "ids are dense");
                            next_id += 1;
                        }
                    }
                    engine.check_invariants();
                }
                match fed.get(i) {
                    Some(a) => engine.ingest(arrival(a, &ids), &mut sink),
                    None => engine.flush(&mut sink),
                };
                engine.check_invariants();
                stats.deferred |= engine.deferred_windows() > 0;
                stats.idle |= engine.idle_classes() > 0;
            }));
            step.map_err(|payload| panicked(&format!("arrival #{i}"), payload))?;
        }
        let metrics = engine.metrics().clone();
        let accounted = metrics.processed + metrics.shed_queue;
        if case.queue.is_some() && accounted != fed.len() as u64 {
            let detail = format!(
                "{} processed + {} queue-shed of {} arrivals fed",
                metrics.processed,
                metrics.shed_queue,
                fed.len()
            );
            return Err(fail(FailureKind::QueueConservation, detail));
        }
        return Ok(Output { rows, metrics });
    };

    let engine = built.build_sharded().map_err(unbuilt)?;
    // Partitioning contract: a keyed set, or one query that partitions,
    // runs at full width; a set with a query that cannot partition
    // degrades to one shard with a reason; any other set does one or the
    // other.
    let (width, degraded) = (engine.shards(), engine.degraded().map(str::to_owned));
    let unkeyable = queries
        .iter()
        .any(|q| matches!(q.partitioning(), Partitioning::Single { .. }));
    let full = width == shards && degraded.is_none();
    let degrade = width == 1 && degraded.is_some();
    let honoured = if case.keyed || queries.len() == 1 && !unkeyable {
        full
    } else if unkeyable {
        degrade
    } else {
        full || degrade
    };
    if !honoured {
        return Err(fail(
            FailureKind::ShardContract,
            format!("requested {shards} shards, ran {width}, degraded: {degraded:?}"),
        ));
    }
    let ids: Vec<_> = (0..case.arity.len())
        .map(|p| engine.stream_id(&format!("R{}", p + 1)))
        .collect();
    let outcome = catch_unwind(AssertUnwindSafe(move || {
        let mut engine = engine;
        for i in 0..=fed.len() {
            while let Some((_, event)) = churn.next_if(|(at, _)| *at == i) {
                match event {
                    Churn::Remove(q) => engine.remove_query(QueryId(*q as u32)),
                    Churn::Add(query) => {
                        if let Err(e) = engine.add_query(query.clone()) {
                            let detail = format!("add_query rejected before #{i}: {e:?}");
                            return Err(fail(FailureKind::ShardContract, detail));
                        }
                    }
                }
            }
            if let Some(a) = fed.get(i) {
                engine.ingest(arrival(a, &ids));
            }
        }
        let report = engine.finish();
        report.map_err(|e| fail(FailureKind::InvariantPanic, e.to_string()))
    }));
    let report = outcome.map_err(|payload| panicked("coordinator", payload))??;
    let combined = &report.combined;
    if combined.shards != width
        || combined.degraded != degraded
        || report.per_shard.len() != width
    {
        return Err(fail(
            FailureKind::ShardContract,
            format!(
                "report: {} shards, degraded {:?}, {} per-shard entries \
                 (engine: {width} shards, degraded {degraded:?})",
                combined.shards,
                combined.degraded,
                report.per_shard.len(),
            ),
        ));
    }
    // Every arrival has one delivery: its home shard's.
    let routed: u64 = report.routed.iter().sum();
    let processed = combined.metrics.processed;
    if routed != processed {
        return Err(fail(
            FailureKind::ShardContract,
            format!("{routed} arrivals routed, {processed} processed"),
        ));
    }
    stats.skewed_sharded |= case.zipf_hot && width > 1;
    let merged = report.rows.expect("collect_rows was set");
    for (q, results) in merged.iter().enumerate() {
        rows[q] = results
            .iter()
            .map(|r| result_row(r.iter(), position))
            .collect();
    }
    Ok(Output {
        rows,
        metrics: report.combined.metrics,
    })
}

/// Runs `run`'s configuration under both halves of its [`ab_pair`]: the
/// two must agree on every query's rows, in order, and on normalized
/// metrics. Returns the first run's output.
fn drive_pair(
    case: &Case,
    trace: &Trace,
    position: &[usize],
    run: Run,
    stats: &mut CaseStats,
) -> Result<Output, Failure> {
    let front = trace.churn.is_empty() && case.queue.is_none();
    let (x, y, kind) = ab_pair(case.cache_ab, front, run.policy);
    let mut go = |variant| {
        drive(
            case,
            &case.queries,
            trace,
            position,
            Run { variant, ..run },
            stats,
        )
    };
    let first = go(x)?;
    let Some(y) = y else {
        return Ok(first);
    };
    let Some(detail) = divergence(&first, &go(y)?) else {
        return Ok(first);
    };
    // When the pair differs in both variant and front end, the second
    // variant on the first's side of the front end names the contract:
    // if it still diverges, the variants do, else the front end does.
    let disorder = FailureKind::DisorderContract;
    let mixed = x.front != y.front && kind != disorder;
    let z = Variant {
        front: x.front,
        ..y
    };
    let kind = match mixed && divergence(&first, &go(z)?).is_none() {
        true => disorder,
        false => kind,
    };
    let memory = if run.full { "full" } else { "reduced" };
    let detail = format!("{memory} memory: {detail}");
    Err(Failure {
        policy: run.label(),
        kind,
        detail,
    })
}

/// Where two runs first part: a query's rows (in order), or their
/// normalized metrics.
fn divergence(a: &Output, b: &Output) -> Option<String> {
    if let Some(q) = (0..a.rows.len()).find(|&q| a.rows[q] != b.rows[q]) {
        return Some(format!(
            "q{q} emissions diverge: {}",
            first_diff(&a.rows[q], &b.rows[q])
        ));
    }
    let (ma, mb) = (
        normalized_metrics(&a.metrics),
        normalized_metrics(&b.metrics),
    );
    (ma != mb).then(|| format!("normalized metrics diverge: {ma:?} vs {mb:?}"))
}

/// Strips the metric fields that legitimately differ between the two runs
/// of a pair: the wall-clock stage timers, the score-cache counters
/// themselves, the packed-sign cache counters (a score-cache hit, like an
/// arrival stored unscored, skips the packed-sign computation entirely)
/// and the count of rescoring passes (an owed pass nobody needs is never
/// run). Everything else — shed counts, emissions, replication, late
/// drops — must match bit for bit.
pub(crate) fn normalized_metrics(m: &EngineMetrics) -> EngineMetrics {
    EngineMetrics {
        sketch_observe_ns: 0,
        priority_rebuild_ns: 0,
        priority_rebuilds: 0,
        score_ns: 0,
        expire_ns: 0,
        probe_ns: 0,
        insert_ns: 0,
        sign_cache_hits: 0,
        sign_cache_misses: 0,
        score_cache_hits: 0,
        score_cache_misses: 0,
        ..m.clone()
    }
}

/// Runs the whole audit for `case`.
pub fn run_case(case: &Case) -> Result<CaseStats, Failure> {
    run_case_on(case, &case.trace)
}

/// Runs the whole audit for `case` over `trace` (the shrinker re-enters
/// here with smaller traces).
pub fn run_case_on(case: &Case, trace: &Trace) -> Result<CaseStats, Failure> {
    let registered = case.registered(trace);
    // The oracle probes with the engine's kernels: a panic there fails too.
    let oracle = catch_unwind(|| {
        let exact =
            |(q, over): &(&JoinQuery, _)| oracle_rows(q, &trace.arrivals, Range::clone(over));
        registered.iter().map(exact).collect::<Rows>()
    });
    let oracle = oracle.map_err(|payload| Failure {
        policy: "oracle".into(),
        kind: FailureKind::InvariantPanic,
        detail: panic_message(&*payload),
    })?;
    let position: Vec<usize> = (0..trace.arrivals.len()).collect();
    let mut stats = CaseStats::default();
    let probes = ["MSketch", "FIFO"];
    let unfillable = case.cannot_shed(trace);
    let transparent = case.queue_is_transparent(trace);
    for &policy in ALL_POLICY_NAMES {
        for full in [true, false] {
            let run = Run::new(policy, full, None);
            let out = drive_pair(case, trace, &position, run, &mut stats)?;
            check_oracle(
                policy,
                transparent && (full || unfillable),
                &out.rows,
                &oracle,
            )?;
            if full && probes.contains(&policy) {
                late_drop_probe(case, trace, &position, run, &out.rows, &mut stats)?;
            } else if !full {
                solo_replays(case, trace, policy, &out.rows)?;
            }
        }
    }
    for policy in probes {
        for full in [true, false] {
            let run = Run::new(policy, full, Some(case.shards));
            let out = drive_pair(case, trace, &position, run, &mut stats)?;
            check_oracle(&run.label(), full, &out.rows, &oracle)?;
        }
    }
    Ok(stats)
}

/// Holds each query to its oracle: equal when `exact` (full memory, or no
/// window can fill, and no queue in the way), else a sub-multiset.
fn check_oracle(label: &str, exact: bool, rows: &Rows, oracle: &Rows) -> Result<(), Failure> {
    for (q, (got, want)) in rows.iter().zip(oracle).enumerate() {
        let mut got = got.clone();
        got.sort();
        let fail = |kind, detail| Failure {
            policy: format!("{label}[q{q}]"),
            kind,
            detail,
        };
        if exact && got != *want {
            return Err(fail(FailureKind::ExactMismatch, first_diff(&got, want)));
        }
        if let Some(extra) = not_in_multiset(&got, want) {
            let detail = format!("shed run emitted a row the oracle never did: {extra:?}");
            return Err(fail(FailureKind::NotSubMultiset, detail));
        }
    }
    Ok(())
}

/// `query`'s exact result over the arrivals at `over` on its streams, in
/// the row form of [`result_row`] (its local seq mapped through the trace
/// positions it was fed), sorted.
fn oracle_rows(query: &JoinQuery, arrivals: &[Arrival], over: Range<usize>) -> Vec<ResultRow> {
    let streams = pool_streams(query);
    let mut join = ExactJoin::new(query.clone());
    let (mut fed, mut rows) = (Vec::new(), Vec::new());
    for (i, a) in arrivals.iter().enumerate().take(over.end).skip(over.start) {
        let Some(local) = streams.iter().position(|&p| p == a.stream) else {
            continue;
        };
        fed.push(i);
        let values: Vec<Value> = a.values.iter().map(|&v| Value(v)).collect();
        join.process_each(
            StreamId(local),
            values,
            VTime::from_micros(a.at_micros),
            |b| rows.push(bound_row(b, &fed)),
        );
    }
    rows.sort();
    rows
}

/// The solo-replay contract: a query whose class owns every store it
/// reads evolves bit for bit as in its solo run, even under shedding
/// (DESIGN.md §14). Owners are the initial queries that first register
/// each of their `(stream, window)` pairs (a duplicate shares its
/// original's class) and every added query (fresh class, fresh stores).
/// A queue that sheds or delays has no solo run: its victims and service
/// instants depend on every stream's arrivals and scores. Behind a
/// transparent queue an owner replays when it also answers the queue
/// scores of its streams — each is the first query to read them — since a
/// score may draw from the answering class's rng (`Random`'s does).
fn solo_replays(case: &Case, trace: &Trace, policy: &str, rows: &Rows) -> Result<(), Failure> {
    let registered = case.registered(trace);
    if registered.len() < 2 || !case.queue_is_transparent(trace) {
        return Ok(());
    }
    let stores = |q: &JoinQuery| pool_streams(q).into_iter().zip(q.windows().to_vec());
    let first_user = |key: (usize, WindowSpec)| {
        let uses = |q: &&JoinQuery| stores(q).any(|k| k == key);
        case.queries
            .iter()
            .find(uses)
            .expect("a query uses its own store")
    };
    let same_class = |a: &JoinQuery, b: &JoinQuery| {
        pool_streams(a) == pool_streams(b)
            && a.windows() == b.windows()
            && a.predicates() == b.predicates()
    };
    let first_reader = |p: usize| {
        let reads = |q: &&JoinQuery| pool_streams(q).contains(&p);
        case.queries
            .iter()
            .find(reads)
            .expect("a query reads its own stream")
    };
    let scores_own = |query: &JoinQuery| {
        let streams = pool_streams(query).into_iter();
        case.queue.is_none() || streams.map(first_reader).all(|q| same_class(q, query))
    };
    for (q, (query, over)) in registered.iter().enumerate() {
        let added = q >= case.queries.len();
        if !added && !stores(query).all(|key| same_class(first_user(key), query)) {
            continue;
        }
        if !scores_own(query) {
            continue;
        }
        let streams = pool_streams(query);
        let on_query =
            |&(i, a): &(usize, &Arrival)| over.contains(&i) && streams.contains(&a.stream);
        let (position, arrivals): (Vec<usize>, Vec<Arrival>) = trace
            .arrivals
            .iter()
            .enumerate()
            .filter(on_query)
            .map(|(i, a)| (i, a.clone()))
            .unzip();
        let solo = Trace {
            arrivals,
            churn: Vec::new(),
        };
        let (run, query) = (Run::new(policy, false, None), std::slice::from_ref(*query));
        let out = drive(
            case,
            query,
            &solo,
            &position,
            run,
            &mut CaseStats::default(),
        )?;
        if out.rows[0] != rows[q] {
            return Err(Failure {
                policy: format!("{policy}[q{q}]"),
                kind: FailureKind::SoloReplay,
                detail: first_diff(&rows[q], &out.rows[0]),
            });
        }
    }
    Ok(())
}

/// An arrival later than the bound is dropped, counted once, and has no
/// effect on the output: the full-memory run behind the front end with a
/// timestamp-0 arrival appended must reproduce `baseline` with exactly
/// one late drop. Runs when the trace carries no churn, the case no queue,
/// and every stream's high-water mark clears `K`, which makes timestamp 0
/// beyond the bound.
fn late_drop_probe(
    case: &Case,
    trace: &Trace,
    position: &[usize],
    run: Run,
    baseline: &Rows,
    stats: &mut CaseStats,
) -> Result<(), Failure> {
    let mut hwm = vec![0u64; case.arity.len()];
    for a in &trace.arrivals {
        hwm[a.stream] = hwm[a.stream].max(a.at_micros);
    }
    let slowest = catalog_order(&case.queries).iter().map(|&p| hwm[p]).min();
    let beyond = slowest.unwrap_or(0) > case.disorder.as_micros();
    if !trace.churn.is_empty() || case.queue.is_some() || !beyond {
        return Ok(());
    }
    stats.late_probe = true;
    let run = Run {
        variant: Variant {
            front: true,
            ..Variant::default()
        },
        late: true,
        ..run
    };
    let out = drive(case, &case.queries, trace, position, run, stats)?;
    let dropped = out.metrics.late_dropped;
    let detail = if dropped != 1 {
        format!("beyond-bound arrival counted {dropped} late drops (expected 1)")
    } else if let Some(q) = (0..baseline.len()).find(|&q| out.rows[q] != baseline[q]) {
        format!(
            "a dropped late arrival changed q{q}: {}",
            first_diff(&out.rows[q], &baseline[q])
        )
    } else {
        return Ok(());
    };
    Err(Failure {
        policy: run.label(),
        kind: FailureKind::DisorderContract,
        detail,
    })
}

/// Last panic rendered by the [`install_quiet_hook`] hook (message +
/// source location), for the failure report.
static LAST_PANIC: std::sync::Mutex<Option<String>> = std::sync::Mutex::new(None);

/// Replaces the default panic hook with one that stays quiet (the
/// shrinker re-triggers failures dozens of times) but records each panic's
/// message and location for the audit report. Call once before auditing.
pub fn install_quiet_hook() {
    std::panic::set_hook(Box::new(|info| {
        *LAST_PANIC.lock().unwrap() = Some(info.to_string());
    }));
}

/// Renders a caught panic: what [`install_quiet_hook`] recorded (message
/// and source location), else the payload string.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(rendered) = LAST_PANIC.lock().unwrap().take() {
        return rendered.replace('\n', " ");
    }
    let text = payload.downcast_ref::<&str>().map(|s| s.to_string());
    let text = text.or_else(|| payload.downcast_ref::<String>().cloned());
    text.unwrap_or_else(|| "non-string panic payload".into())
}

/// Describes the first discrepancy between two row lists.
fn first_diff(got: &[ResultRow], want: &[ResultRow]) -> String {
    if got.len() != want.len() {
        let missing = got.iter().find(|r| !want.contains(r));
        return format!(
            "row count {} vs {} (first row on one side only: {:?})",
            got.len(),
            want.len(),
            missing.or_else(|| want.iter().find(|r| !got.contains(r)))
        );
    }
    match got.iter().zip(want).find(|(g, w)| g != w) {
        Some((g, w)) => format!("first divergent row: {g:?} vs {w:?}"),
        None => "rows differ in an unlocated way".into(),
    }
}

/// Returns a row of `small` that exceeds its multiplicity in `big`, if any.
fn not_in_multiset(small: &[ResultRow], big: &[ResultRow]) -> Option<ResultRow> {
    let mut budget: HashMap<&[u64], i64> = HashMap::new();
    for r in big {
        *budget.entry(r.as_slice()).or_insert(0) += 1;
    }
    for r in small {
        let b = budget.entry(r.as_slice()).or_insert(0);
        *b -= 1;
        if *b < 0 {
            return Some(r.clone());
        }
    }
    None
}
