//! One workload, start to finish: generate, compute the oracle, check
//! outputs, run the passes, and assemble the metric tables.

use crate::engines::{run_pass, time_setup, PassConfig, PassResult, Probe};
use crate::layers::{self, OpTimer};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::oracle::{exact_join_rows, AggSeries, CountingOracle};
use crate::span::Tracer;
use crate::stats::{
    fastest_and_spread, highest_supported_percentile, iqr_share, low_decile_and_spread, median,
    quantile_sorted, spread, undisturbed_ns,
};
use crate::workloads::{prepare, EngineKind, Policy, Prepared, StandingQuery};
use mstream_core::prelude::*;
use serde_json::{json, Value as Json};
use std::path::PathBuf;
use std::time::Instant;

/// Fresh builds timed after every round, whose median is the round's
/// set-up sample; with the fewest rounds that is 155 builds behind `setup_s`.
pub const SETUPS_PER_ROUND: usize = 31;
/// Fewest rounds (timed passes) of a run.
pub const MIN_TIMED_PASSES: usize = 5;
/// Latency passes of the per-layer run, behind `core.ingest_p50_ns` and
/// `core.ingest_p99_ns`.
const LATENCY_PASSES: usize = 3;
/// Most rounds of a run, however short the passes.
const MAX_ROUNDS: usize = 100;
/// Rows the per-run `ExactJoin` cross-check may enumerate.
const CHECK_ROW_BUDGET: u64 = 30_000_000;
/// The paper's second objective on `census_rs`: windowed AVG within 5%.
const MAX_AGG_REL_ERR: f64 = 0.05;
/// A timed pass this many times the median is listed in the output.
const SLOW_PASS: f64 = 1.5;

/// What the command line asked for.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Workload seed.
    pub seed: u64,
    /// Seconds of measurement per run.
    pub seconds: f64,
    /// Where trace files go (`None` keeps them in memory only).
    pub out_dir: Option<PathBuf>,
}

/// One correctness check of a run.
#[derive(Clone, Debug)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub passed: bool,
    /// The numbers compared.
    pub detail: String,
}

/// Everything one run of one workload reports.
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Whether `--trace 1` (per-layer) or `--trace 0` (end-to-end).
    pub traced: bool,
    /// `(name, value)`; `None` marks a metric that does not apply here.
    pub metrics: Vec<(&'static str, Option<f64>)>,
    /// Correctness checks.
    pub checks: Vec<Check>,
    /// Operations attempted: arrivals offered plus checks made.
    pub attempted: u64,
    /// Operations failed: arrivals unaccounted for plus checks failed.
    pub failed: u64,
    /// The work behind the numbers (arrivals, rows, cores, passes, …).
    pub info: Json,
}

impl Report {
    /// Whether every output was correct.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// `(unaccounted arrivals + failed checks) ÷ operations attempted`.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The unit of metric `name`.
    pub fn unit(name: &str) -> &'static str {
        END_TO_END
            .iter()
            .map(|m| (m.0, m.1))
            .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
            .find(|m| m.0 == name)
            .map_or("", |m| m.1)
    }

    fn metric_json(name: &str, value: f64) -> (String, Json) {
        let entry = json!({"value": value, "unit": Self::unit(name)});
        (name.to_string(), entry)
    }

    /// The one-line result the driver reads: metrics that do not apply to
    /// this workload are present with value 0.
    pub fn result_line(&self) -> String {
        let metrics: Vec<(String, Json)> = self
            .metrics
            .iter()
            .map(|(name, value)| Self::metric_json(name, value.unwrap_or(0.0)))
            .collect();
        json!({
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": Json::Object(metrics),
        })
        .to_string()
    }

    /// The full record written to `results.json`.
    pub fn to_json(&self) -> Json {
        let metrics: Vec<(String, Json)> = self
            .metrics
            .iter()
            .filter_map(|(name, value)| Some(Self::metric_json(name, (*value)?)))
            .collect();
        let checks: Vec<Json> = self
            .checks
            .iter()
            .map(|c| json!({"name": c.name, "passed": c.passed, "detail": c.detail}))
            .collect();
        json!({
            "workload": self.workload,
            "traced": self.traced,
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "failed_share": self.failed_share(),
            "metrics": Json::Object(metrics),
            "checks": checks,
            "info": self.info,
        })
    }
}

/// The exact reference for a workload prefix.
struct OracleResult {
    per_query: Vec<u64>,
    total: u64,
    agg: Option<AggSeries>,
    /// Cumulative rows after each timeline position.
    cumulative: Vec<u64>,
}

/// Query-local view of the arrivals query `q` sees among `timeline[..len]`.
fn query_arrivals<'a>(
    q: &'a StandingQuery,
    timeline: &'a [Arrival],
    len: usize,
) -> impl Iterator<Item = Arrival> + 'a {
    let (from, until) = (q.from.min(len), q.until.min(len));
    timeline[from..until].iter().filter_map(|a| {
        let local = q.global.iter().position(|g| *g == a.stream)?;
        Some(Arrival::new(StreamId(local), a.values.clone(), a.ts))
    })
}

/// Counts the rows every standing query emits over `timeline[..len]` when
/// nothing is shed.
fn run_oracle(p: &Prepared, len: usize) -> OracleResult {
    let timeline = &p.timeline()[..len];
    let end = timeline.last().map_or(VTime::ZERO, |a| a.ts);
    let mut oracles: Vec<CountingOracle> = p
        .queries
        .iter()
        .map(|q| CountingOracle::new(&q.query, p.agg))
        .collect();
    let mut per_query = vec![0u64; p.queries.len()];
    let mut agg = p.agg.map(|spec| AggSeries::new(spec.bucket, end));
    let mut cumulative = Vec::with_capacity(len);
    let mut total = 0u64;
    for (i, a) in timeline.iter().enumerate() {
        for (qi, q) in p.queries.iter().enumerate() {
            if i < q.from || i >= q.until {
                continue;
            }
            let Some(local) = q.global.iter().position(|g| *g == a.stream) else {
                continue;
            };
            let (rows, sum) = oracles[qi].process(StreamId(local), a.values.clone(), a.ts);
            per_query[qi] += rows;
            total += rows;
            if let Some(series) = agg.as_mut() {
                series.add(a.ts, sum, rows);
            }
        }
        cumulative.push(total);
    }
    OracleResult {
        per_query,
        total,
        agg,
        cumulative,
    }
}

/// The arrivals an exact join should see for the first `len` *delivered*
/// arrivals: those not delayed past the bound, in timestamp order.
fn covered_timeline(p: &Prepared, len: usize) -> Vec<Arrival> {
    let mut covered: Vec<Arrival> = p.arrivals[..len]
        .iter()
        .zip(&p.late)
        .filter(|(_, late)| !**late)
        .map(|(a, _)| a.clone())
        .collect();
    covered.sort_by_key(|a| a.ts);
    covered
}

/// Generation, oracle and the per-run correctness checks both modes share.
struct Context {
    p: Prepared,
    generate_s: f64,
    oracle: OracleResult,
    oracle_s: f64,
    exact_rows_per_s: f64,
    check_len: usize,
    checks: Vec<Check>,
    /// Arrivals offered to an engine, and how many no counter accounts for.
    offered: u64,
    unaccounted: u64,
}

impl Context {
    fn new(name: &str, seed: u64) -> Option<Context> {
        let t0 = Instant::now();
        let p = prepare(name, seed)?;
        let generate_s = t0.elapsed().as_secs_f64();
        let n = p.arrivals.len();
        let t0 = Instant::now();
        let oracle = run_oracle(&p, n);
        let oracle_s = t0.elapsed().as_secs_f64();
        let mut ctx = Context {
            check_len: oracle
                .cumulative
                .partition_point(|&rows| rows <= CHECK_ROW_BUDGET)
                .max(n.min(1000)),
            p,
            generate_s,
            oracle,
            oracle_s,
            exact_rows_per_s: 0.0,
            checks: Vec::new(),
            offered: 0,
            unaccounted: 0,
        };
        ctx.check_against_exact_join();
        Some(ctx)
    }

    fn check(&mut self, name: &'static str, passed: bool, detail: String) {
        self.checks.push(Check {
            name,
            passed,
            detail,
        });
    }

    /// Books a pass's arrivals: each must show up as processed, shed from
    /// the input queue, or dropped late.
    fn account(&mut self, offered: usize, r: &PassResult) {
        let m = &r.outcome.metrics;
        let accounted = m.processed + m.shed_queue + m.late_dropped;
        self.offered += offered as u64;
        self.unaccounted += (offered as u64).abs_diff(accounted);
    }

    /// On a prefix small enough to enumerate: the counting oracle equals
    /// `ExactJoin` per query, and a full-memory engine pass equals
    /// `ExactJoin` per query too.
    fn check_against_exact_join(&mut self) {
        let len = self.check_len;
        let p = &self.p;
        let prefix_oracle = run_oracle(p, len);
        let t0 = Instant::now();
        let exact: Vec<u64> = p
            .queries
            .iter()
            .map(|q| exact_join_rows(&q.query, query_arrivals(q, p.timeline(), len), None))
            .collect();
        let exact_s = t0.elapsed().as_secs_f64();
        self.exact_rows_per_s = exact.iter().sum::<u64>() as f64 / exact_s;
        let mut agg_ok = true;
        if let (Some(spec), Some(counted)) = (p.agg, prefix_oracle.agg.as_ref()) {
            let end = p.timeline()[len - 1].ts;
            let mut enumerated = AggSeries::new(spec.bucket, end);
            let q = &p.queries[0];
            let arrivals = query_arrivals(q, p.timeline(), len);
            exact_join_rows(&q.query, arrivals, Some((spec, &mut enumerated)));
            agg_ok = enumerated == *counted;
        }
        let passed = exact == prefix_oracle.per_query && agg_ok;
        let detail = format!(
            "first {len} arrivals: ExactJoin {exact:?} vs counting oracle {:?}, aggregates equal: {agg_ok}",
            prefix_oracle.per_query
        );
        self.check("oracle_equals_exact_join", passed, detail);

        // With disorder the engine joins what the bound covers, in
        // timestamp order; elsewhere that is the prefix itself.
        let p = &self.p;
        let expected: Vec<u64> = if p.in_order.is_some() {
            let covered = covered_timeline(p, len);
            let q = &p.queries[0];
            vec![exact_join_rows(
                &q.query,
                query_arrivals(q, &covered, covered.len()),
                None,
            )]
        } else {
            exact
        };
        let cfg = PassConfig {
            capacity: p.lossless_capacity,
            len,
            ..PassConfig::measured(p)
        };
        let full = run_pass(p, &cfg, Probe::Off);
        let passed = full.outcome.per_query == expected && full.outcome.metrics.shed_window == 0;
        let detail = format!(
            "first {len} arrivals at lossless capacity: engine {:?} vs ExactJoin {expected:?}, shed {}",
            full.outcome.per_query, full.outcome.metrics.shed_window
        );
        self.account(len, &full);
        self.check("full_memory_pass_equals_exact_join", passed, detail);
    }

    /// Checks every measured pass shares: deterministic output within the
    /// oracle's, every arrival accounted for, late drops as marked.
    fn check_passes(&mut self, passes: &[PassResult]) {
        let n = self.p.arrivals.len();
        for r in passes {
            self.account(n, r);
        }
        let first = &passes[0].outcome;
        let same = passes
            .iter()
            .all(|r| r.outcome.per_query == first.per_query);
        let rows: Vec<u64> = passes.iter().map(|r| r.outcome.rows_out).collect();
        self.check(
            "passes_emit_identical_rows",
            same,
            format!("rows per pass {rows:?}"),
        );
        let within = first
            .per_query
            .iter()
            .zip(&self.oracle.per_query)
            .all(|(got, exact)| got <= exact);
        let detail = format!(
            "engine {:?} vs oracle {:?}",
            first.per_query, self.oracle.per_query
        );
        self.check("rows_within_oracle", within, detail);
        if self.p.in_order.is_some() {
            let (got, want) = (first.metrics.late_dropped, self.p.late_count());
            self.check(
                "late_drops_are_the_marked_arrivals",
                got == want,
                format!("late_dropped {got} vs {want} arrivals delayed past the bound"),
            );
        }
        if let (Some(truth), Some(sample)) = (self.oracle.agg.as_ref(), first.agg.as_ref()) {
            let err = AggSeries::avg_relative_error(truth, sample);
            self.check(
                "aggregate_error_within_5_percent",
                err <= MAX_AGG_REL_ERR,
                format!("windowed AVG relative error {err:.5}"),
            );
        }
    }

    /// Workload-specific equalities that need a pass of their own.
    /// Returns the in-process pass of `keyed_sharded` for reuse.
    fn check_equivalences(&mut self, measured: &PassResult) -> Option<PassResult> {
        let n = self.p.arrivals.len();
        match self.p.kind {
            EngineKind::Sharded => {
                // Same trace, same (lossless) budget, in-process engine.
                let cfg = PassConfig {
                    kind: EngineKind::Single,
                    ..PassConfig::measured(&self.p)
                };
                let inproc = run_pass(&self.p, &cfg, Probe::Off);
                self.account(n, &inproc);
                let (a, b) = (measured.outcome.rows_out, inproc.outcome.rows_out);
                let passed = a == b && a == self.oracle.total;
                let detail = format!(
                    "sharded {a} vs in-process {b} vs oracle {}",
                    self.oracle.total
                );
                self.check("sharded_equals_in_process_engine", passed, detail);
                Some(inproc)
            }
            EngineKind::Single if self.p.in_order.is_some() => {
                // The covered part of the disordered delivery must replay
                // an in-order engine's decisions at the same budget.
                let covered = covered_timeline(&self.p, n);
                let in_order = self
                    .p
                    .variant(EngineKind::Single, self.p.queries.clone(), covered);
                let replay = run_pass(&in_order, &PassConfig::measured(&in_order), Probe::Off);
                self.account(in_order.arrivals.len(), &replay);
                let (a, b) = (measured.outcome.rows_out, replay.outcome.rows_out);
                let same_shed =
                    measured.outcome.metrics.shed_window == replay.outcome.metrics.shed_window;
                let detail = format!(
                    "disordered {a} rows vs in-order replay {b} rows, same evictions: {same_shed}"
                );
                self.check(
                    "covered_disorder_replays_in_order_run",
                    a == b && same_shed,
                    detail,
                );
                None
            }
            _ => None,
        }
    }

    fn recall(&self, rows: u64) -> f64 {
        rows as f64 / self.oracle.total.max(1) as f64
    }

    /// `(attempted, failed)` for the result line.
    fn tally(&self) -> (u64, u64) {
        let failed_checks = self.checks.iter().filter(|c| !c.passed).count() as u64;
        (
            self.offered + self.checks.len() as u64,
            self.unaccounted + failed_checks,
        )
    }

    fn info(&self, passes: &[PassResult], extra: Vec<(String, Json)>) -> Json {
        let first = &passes[0].outcome;
        let walls: Vec<f64> = passes.iter().map(|r| r.wall_ns as f64 / 1e9).collect();
        let med = median(&walls);
        let slow: Vec<usize> = (0..walls.len())
            .filter(|&i| walls[i] > SLOW_PASS * med)
            .collect();
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        let mut members = vec![
            ("params".to_string(), json!(self.p.params)),
            ("arrivals".to_string(), json!(self.p.arrivals.len())),
            ("rows_out".to_string(), json!(first.rows_out)),
            ("oracle_rows".to_string(), json!(self.oracle.total)),
            ("rows_per_query".to_string(), json!(first.per_query)),
            (
                "oracle_rows_per_query".to_string(),
                json!(self.oracle.per_query),
            ),
            ("nproc".to_string(), json!(nproc)),
            ("workers".to_string(), json!(self.p.shards)),
            ("timed_passes".to_string(), json!(passes.len())),
            ("pass_wall_s".to_string(), json!(walls)),
            ("slow_passes".to_string(), json!(slow)),
            ("check_prefix_arrivals".to_string(), json!(self.check_len)),
            ("generate_s".to_string(), json!(self.generate_s)),
            ("oracle_s".to_string(), json!(self.oracle_s)),
        ];
        members.extend(extra);
        Json::Object(members)
    }
}

impl Context {
    /// One untimed pass (page faults, allocator steady state, thread
    /// spin-up); returns its wall seconds.
    fn warm_up(&self) -> f64 {
        let cfg = PassConfig::measured(&self.p);
        run_pass(&self.p, &cfg, Probe::Off).wall_ns as f64 / 1e9
    }

    /// The checks every set of measured passes must hold. Returns the
    /// in-process pass of `keyed_sharded` for reuse.
    fn check_measured(&mut self, passes: &[PassResult]) -> Option<PassResult> {
        self.check_passes(passes);
        self.check_equivalences(&passes[0])
    }
}

/// The end-to-end run (`--trace 0`).
///
/// After the warm-up the run is a sequence of rounds — one timed pass, then
/// a few set-ups — for as long as the measurement budget lasts, so both
/// timed metrics have samples from the whole run. `arrivals_per_s` is read
/// from the passes' laps ([`undisturbed_ns`]), `setup_s` from the rounds'
/// low end ([`low_decile_and_spread`]); `recall` and heap are medians over
/// the passes.
pub fn run_end_to_end(name: &str, opts: &RunOptions) -> Option<Report> {
    let mut ctx = Context::new(name, opts.seed)?;
    let n = ctx.p.arrivals.len();
    let cfg = PassConfig::measured(&ctx.p);
    ctx.warm_up();

    // The last tenth of the budget is left to the equivalence passes.
    let budget_s = opts.seconds * 0.9;
    let mut passes = Vec::new();
    let mut setups = Vec::new();
    let start = Instant::now();
    loop {
        passes.push(run_pass(&ctx.p, &cfg, Probe::Off));
        let builds: Vec<f64> = (0..SETUPS_PER_ROUND).map(|_| time_setup(&ctx.p)).collect();
        setups.push(median(&builds));
        let rounds = passes.len();
        let next_ends_s = start.elapsed().as_secs_f64() * (rounds + 1) as f64 / rounds as f64;
        if rounds >= MIN_TIMED_PASSES && (next_ends_s > budget_s || rounds == MAX_ROUNDS) {
            break;
        }
    }
    ctx.check_measured(&passes);

    let per_s: Vec<f64> = passes
        .iter()
        .map(|r| n as f64 / (r.wall_ns as f64 / 1e9))
        .collect();
    let (fastest_per_s, per_s_spread) = fastest_and_spread(&per_s);
    let laps: Vec<&[u64]> = passes.iter().map(|r| r.lap_ns.as_slice()).collect();
    let undisturbed_per_s = n as f64 / (undisturbed_ns(&laps) as f64 / 1e9);
    let heaps: Vec<f64> = passes
        .iter()
        .map(|r| r.heap_peak_bytes as f64 / 1e6)
        .collect();
    let recalls: Vec<f64> = passes
        .iter()
        .map(|r| ctx.recall(r.outcome.rows_out))
        .collect();
    let typical = |samples: &[f64]| (median(samples), iqr_share(samples));
    // `(metric, per-pass samples, (value, the run's own spread))`, in the
    // order of `END_TO_END`.
    let table = [
        ("arrivals_per_s", &per_s, (undisturbed_per_s, per_s_spread)),
        ("recall", &recalls, typical(&recalls)),
        ("engine_heap_peak_mb", &heaps, typical(&heaps)),
        // A single build's time scatters broadly (thread spawns, page
        // faults), so a round's sample is the median of its builds; the
        // rounds then differ by what disturbed them, like the passes.
        ("setup_s", &setups, low_decile_and_spread(&setups)),
    ];
    let metrics = table
        .iter()
        .map(|(name, _, v)| (*name, Some(v.0)))
        .collect();
    // What `compare` reads: each metric's per-round samples and the run's
    // own spread.
    let samples: Vec<(String, Json)> = table
        .iter()
        .map(|(name, samples, _)| (name.to_string(), json!(samples)))
        .collect();
    let spreads: Vec<(String, Json)> = table
        .iter()
        .map(|(name, _, v)| (name.to_string(), json!(v.1)))
        .collect();
    let (attempted, failed) = ctx.tally();
    let extra = vec![
        ("laps_per_pass".to_string(), json!(laps[0].len())),
        // The best pass that actually ran, next to the lap-wise value.
        (
            "fastest_pass_arrivals_per_s".to_string(),
            json!(fastest_per_s),
        ),
        (
            "setup_builds".to_string(),
            json!(setups.len() * SETUPS_PER_ROUND),
        ),
        ("samples".to_string(), Json::Object(samples)),
        ("spread".to_string(), Json::Object(spreads)),
    ];
    Some(Report {
        workload: ctx.p.name,
        traced: false,
        metrics,
        attempted,
        failed,
        info: ctx.info(&passes, extra),
        checks: ctx.checks,
    })
}

fn ratio(hits: u64, misses: u64) -> Option<f64> {
    (hits + misses > 0).then(|| hits as f64 / (hits + misses) as f64)
}

/// Largest shard probe load over the mean (1.0 = even).
fn imbalance(routed: &[u64]) -> f64 {
    let total: u64 = routed.iter().sum();
    if total == 0 {
        return 1.0;
    }
    let mean = total as f64 / routed.len() as f64;
    routed.iter().copied().max().unwrap_or(0) as f64 / mean
}

/// Per-layer values collected so far, by metric name.
#[derive(Default)]
struct Values(Vec<(&'static str, f64)>);

impl Values {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.0 == name),
            "{name} is not in the table"
        );
        self.0.push((name, value));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(k, _)| *k == name).map(|(_, x)| *x)
    }
}

/// Query 0 alone on its own arrivals, for `multi.n1_vs_solo`.
fn solo_view(p: &Prepared, kind: EngineKind) -> Prepared {
    let q = &p.queries[0];
    let arrivals: Vec<Arrival> = query_arrivals(q, &p.arrivals, p.arrivals.len()).collect();
    let mut only = q.clone();
    only.global = (0..q.global.len()).map(StreamId).collect();
    only.from = 0;
    only.until = arrivals.len();
    p.variant(kind, vec![only], arrivals)
}

/// `shard.*`: the sharded report of an untraced pass, plus four passes of
/// their own (route-only, S = 1, fixed total memory) under top-level spans.
fn shard_metrics(
    ctx: &mut Context,
    tracer: &mut Tracer,
    base: &PassResult,
    inproc: &PassResult,
    wall_s: f64,
    v: &mut Values,
) {
    let n = ctx.p.arrivals.len();
    let cfg = PassConfig::measured(&ctx.p);
    let m = &base.outcome.metrics;
    let base_wall_ns = base.wall_ns as f64;
    let report = base
        .outcome
        .sharded
        .as_ref()
        .expect("sharded passes carry a report");
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    v.set("shard.finish_s", base.end_ns as f64 / 1e9);
    v.set("shard.imbalance", imbalance(&report.routed));
    v.set(
        "shard.replicated_per_arrival",
        m.replicated as f64 / n as f64,
    );
    v.set("shard.hot_promoted", report.hot_promoted as f64);
    v.set("shard.cpu_s_per_wall_s", base.cpu_ns as f64 / base_wall_ns);
    let route = tracer.scope("extra.route_only_pass", |_| {
        let cfg = PassConfig {
            route_only: true,
            ..cfg.clone()
        };
        (run_pass(&ctx.p, &cfg, Probe::Off), n as u64)
    });
    v.set(
        "shard.route_only_ns_per_arrival",
        route.wall_ns as f64 / n as f64,
    );
    let s1 = tracer.scope("extra.s1_pass", |_| {
        let cfg = PassConfig {
            shards: 1,
            capacity: n + 1,
            ..cfg.clone()
        };
        let r = run_pass(&ctx.p, &cfg, Probe::Off);
        let rows = r.outcome.rows_out;
        (r, rows)
    });
    ctx.account(n, &s1);
    v.set(
        "shard.s1_overhead_vs_inproc",
        s1.wall_ns as f64 / inproc.wall_ns as f64,
    );
    if nproc >= ctx.p.shards {
        let eff = inproc.wall_ns as f64 / 1e9 / (ctx.p.shards as f64 * wall_s);
        v.set("shard.parallel_efficiency", eff);
    }
    // One pass at a fixed 25% of total memory: the budget is divided
    // by S, so work differs from the lossless passes — recall says how.
    let fixed = tracer.scope("extra.fixedmem_pass", |_| {
        let cfg = PassConfig {
            capacity: 25,
            ..cfg.clone()
        };
        let r = run_pass(&ctx.p, &cfg, Probe::Off);
        let rows = r.outcome.rows_out;
        (r, rows)
    });
    ctx.account(n, &fixed);
    v.set("shard.fixedmem_recall", ctx.recall(fixed.outcome.rows_out));
    v.set(
        "shard.fixedmem_arrivals_per_s",
        n as f64 / (fixed.wall_ns as f64 / 1e9),
    );
}

/// `multi.*`: the plane's own counts, per-query recall, and the one-query
/// plane against a solo engine on query 0's arrivals.
fn multi_metrics(ctx: &mut Context, tracer: &mut Tracer, base: &PassResult, v: &mut Values) {
    let rows_out = base.outcome.rows_out;
    v.set("multi.classes", base.outcome.classes as f64);
    v.set("multi.stores", base.outcome.stores as f64);
    // Duplicates share a class: a class's rows are emitted once per
    // member. Queries added at run time always get a class of their own.
    let per_query = &base.outcome.per_query;
    let mut class_rows = 0u64;
    for (qi, q) in ctx.p.queries.iter().enumerate() {
        let first_of_class = q.from > 0
            || !ctx.p.queries[..qi]
                .iter()
                .any(|e| e.from == 0 && e.text == q.text);
        if first_of_class {
            class_rows += per_query[qi];
        }
    }
    v.set(
        "multi.fanout_rows_per_class_row",
        rows_out as f64 / class_rows.max(1) as f64,
    );
    let recall_min = per_query
        .iter()
        .zip(&ctx.oracle.per_query)
        .map(|(got, exact)| *got as f64 / (*exact).max(1) as f64)
        .fold(f64::INFINITY, f64::min);
    v.set("multi.per_query_recall_min", recall_min);
    let (plane, solo) = tracer.scope("extra.n1_vs_solo_passes", |_| {
        let as_plane = solo_view(&ctx.p, EngineKind::Multi);
        let as_solo = solo_view(&ctx.p, EngineKind::Single);
        let plane = run_pass(&as_plane, &PassConfig::measured(&as_plane), Probe::Off);
        let solo = run_pass(&as_solo, &PassConfig::measured(&as_solo), Probe::Off);
        ((plane, solo), as_plane.arrivals.len() as u64)
    });
    ctx.check(
        "one_query_plane_equals_solo_engine",
        plane.outcome.rows_out == solo.outcome.rows_out,
        format!(
            "plane {} vs solo {}",
            plane.outcome.rows_out, solo.outcome.rows_out
        ),
    );
    v.set(
        "multi.n1_vs_solo",
        plane.wall_ns as f64 / solo.wall_ns as f64,
    );
}

/// The per-layer run (`--trace 1`): a few untraced passes for the base
/// line, one traced pass, the extra passes single layers need, and the
/// drives — all under spans.
pub fn run_per_layer(name: &str, opts: &RunOptions) -> Option<Report> {
    let mut ctx = Context::new(name, opts.seed)?;
    let n = ctx.p.arrivals.len();
    let cfg = PassConfig::measured(&ctx.p);
    let warm_s = ctx.warm_up();
    let count = ((opts.seconds * 0.3 / warm_s) as usize).clamp(3, 40);
    let passes: Vec<PassResult> = (0..count)
        .map(|_| run_pass(&ctx.p, &cfg, Probe::Off))
        .collect();
    let inproc = ctx.check_measured(&passes);
    let walls: Vec<f64> = passes.iter().map(|r| r.wall_ns as f64 / 1e9).collect();
    let wall_s = median(&walls);
    // The dedicated latency passes: two clock reads around every `ingest`
    // call, into the pre-sized buffer. Median and tail, each the lowest
    // over the passes.
    let (tail_name, tail_q) = highest_supported_percentile(n);
    let mut samples: Vec<u64> = Vec::with_capacity(n);
    let (mut p50_ns, mut tail_ns) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..LATENCY_PASSES {
        samples.clear();
        let r = run_pass(&ctx.p, &cfg, Probe::Latency(&mut samples));
        ctx.account(n, &r);
        samples.sort_unstable();
        p50_ns = p50_ns.min(quantile_sorted(&samples, 0.5));
        tail_ns = tail_ns.min(quantile_sorted(&samples, tail_q));
    }
    // In-situ counters come from an untraced pass, with that pass's wall.
    let base = passes.last().expect("at least three passes");
    let base_wall_ns = base.wall_ns as f64;
    let m = base.outcome.metrics.clone();
    let rows_out = base.outcome.rows_out;

    let mut v = Values::default();

    // ---- the traced run ------------------------------------------------
    let traced_start = Instant::now();
    let mut tracer = Tracer::new(ctx.p.name, n + n / layers::GROUP * 8 + 4096);
    let traced = tracer.scope("traced_pass", |t| {
        let r = run_pass(&ctx.p, &cfg, Probe::Trace(t));
        let rows = r.outcome.rows_out;
        (r, rows)
    });
    ctx.account(n, &traced);
    let same = traced.outcome.per_query == base.outcome.per_query;
    ctx.check(
        "traced_pass_emits_identical_rows",
        same,
        format!(
            "traced {} vs untraced {}",
            traced.outcome.rows_out, rows_out
        ),
    );

    // Extra passes single layers need, each a top-level span.
    let shedding = ctx.p.capacity < ctx.p.lossless_capacity;
    if shedding {
        let fifo_cfg = PassConfig {
            policy: Policy::Fifo,
            ..cfg.clone()
        };
        let fifo = tracer.scope("extra.fifo_pass", |_| {
            let r = run_pass(&ctx.p, &fifo_cfg, Probe::Off);
            let rows = r.outcome.rows_out;
            (r, rows)
        });
        ctx.account(n, &fifo);
        v.set(
            "shed.recall_vs_fifo",
            rows_out as f64 / fifo.outcome.rows_out.max(1) as f64,
        );
    }
    if ctx.p.kind != EngineKind::Sharded {
        let batch_cfg = PassConfig {
            batch: Some(64),
            ..cfg.clone()
        };
        let batched = tracer.scope("extra.batch64_pass", |_| {
            let r = run_pass(&ctx.p, &batch_cfg, Probe::Off);
            let rows = r.outcome.rows_out;
            (r, rows)
        });
        ctx.account(n, &batched);
        let same = batched.outcome.per_query == base.outcome.per_query;
        ctx.check(
            "batched_ingest_emits_identical_rows",
            same,
            format!(
                "batch 64: {} vs per-arrival {}",
                batched.outcome.rows_out, rows_out
            ),
        );
        v.set(
            "core.batch64_vs_single",
            batched.wall_ns as f64 / 1e9 / wall_s,
        );
    }
    if ctx.p.kind == EngineKind::Sharded {
        let inproc = inproc.expect("the sharded workload runs its in-process twin");
        shard_metrics(&mut ctx, &mut tracer, base, &inproc, wall_s, &mut v);
    }
    if ctx.p.kind == EngineKind::Multi {
        multi_metrics(&mut ctx, &mut tracer, base, &mut v);
    }

    // ---- drives ---------------------------------------------------------
    let timer = OpTimer::calibrate();
    let sketch = layers::sketch_drive(&ctx.p, &mut tracer, &timer);
    let window = layers::window_drive(&ctx.p, &mut tracer, &timer);
    let join = layers::join_drive(&ctx.p, &mut tracer, &timer);
    if ctx.p.disorder.is_some() {
        v.set(
            "window.reorder_ns_per_op",
            layers::reorder_drive(&ctx.p, &mut tracer),
        );
        v.set(
            "window.reorder_peak_depth",
            traced.outcome.reorder_peak as f64,
        );
    }
    let (csv_mb_per_s, parse_us) = layers::io_drive(&ctx.p, &mut tracer);
    let traced_wall_ns = traced_start.elapsed().as_nanos() as u64;

    // ---- spans → self time per layer -------------------------------------
    let by_name = tracer.by_name();
    let self_of = |pick: &dyn Fn(&str) -> bool| {
        by_name
            .iter()
            .filter(|r| pick(r.name))
            .map(|r| r.self_ns)
            .sum::<u64>() as f64
            / 1e6
    };
    v.set("trace.self_ms.setup", self_of(&|n| n == "setup"));
    v.set("trace.self_ms.ingest", self_of(&|n| n == "ingest"));
    v.set(
        "trace.self_ms.end",
        self_of(&|n| n.ends_with(".flush") || n.ends_with(".finish")),
    );
    v.set("trace.self_ms.harness", self_of(&|n| n == "traced_pass"));
    v.set(
        "trace.self_ms.extra_passes",
        self_of(&|n| n.starts_with("extra.")),
    );
    v.set(
        "trace.self_ms.drive_sketch",
        self_of(&|n| n.starts_with("sketch.") || n == "drive.sketch"),
    );
    v.set(
        "trace.self_ms.drive_window",
        self_of(&|n| n.starts_with("window.") || n == "drive.window" || n == "drive.reorder"),
    );
    v.set(
        "trace.self_ms.drive_join",
        self_of(&|n| n.starts_with("join.") || n == "drive.join"),
    );
    v.set("trace.spans", tracer.spans().len() as f64);
    v.set(
        "trace.top_level_cover",
        tracer.top_level_ns() as f64 / traced_wall_ns as f64,
    );
    if ctx.p.kind == EngineKind::Multi {
        let us_of = |name: &str| {
            by_name
                .iter()
                .find(|r| r.name == name)
                .map_or(0.0, |r| r.total_ns as f64 / 1e3 / r.calls.max(1) as f64)
        };
        v.set("multi.add_query_us", us_of("core.multi.add_query"));
        v.set("multi.remove_query_us", us_of("core.multi.remove_query"));
    }

    // ---- in-situ counters and derived shares ------------------------------
    v.set("sketch.observe_ns_per_op", sketch.observe_ns_per_op);
    v.set("sketch.score_ns_per_op", sketch.score_ns_per_op);
    v.set("sketch.rollover_ns_max", sketch.rollover_ns_max);
    v.set("sketch.bank_mb", sketch.bank_mb);
    if let Some(r) = ratio(m.score_cache_hits, m.score_cache_misses) {
        v.set("sketch.score_cache_hit_ratio", r);
    }
    if let Some(r) = ratio(m.sign_cache_hits, m.sign_cache_misses) {
        v.set("sketch.sign_cache_hit_ratio", r);
    }
    // Summed over shards these are CPU time; in-process they are wall.
    let observe_share = m.sketch_observe_ns as f64 / base_wall_ns;
    let score_share = m.score_ns as f64 / base_wall_ns;
    let rebuild_share = m.priority_rebuild_ns as f64 / base_wall_ns;
    v.set("sketch.observe_share", observe_share);
    v.set("sketch.score_share", score_share);
    v.set(
        "window.insert_evict_ns_per_op",
        window.insert_evict_ns_per_op,
    );
    v.set("window.expire_ns_per_op", window.expire_ns_per_op);
    v.set("window.index_probe_ns_per_op", window.index_probe_ns_per_op);
    v.set("window.heap_update_ns_per_op", window.heap_update_ns_per_op);
    v.set(
        "window.rebuild_grouped_ns_per_tuple",
        window.rebuild_grouped_ns_per_tuple,
    );
    v.set("window.evictions", window.evictions);
    v.set("window.bytes_per_tuple", window.bytes_per_tuple);
    v.set("join.probe_ns_per_row", join.probe_ns_per_row);
    v.set("join.probe_ns_per_arrival", join.probe_ns_per_arrival);
    v.set("join.rows_enumerated", join.rows_enumerated);
    v.set("join.plan_build_us", join.plan_build_us);
    v.set("join.exact_rows_per_s", ctx.exact_rows_per_s);
    v.set("shed.window_shed", m.shed_window as f64);
    v.set(
        "shed.rows_per_stored_tuple",
        rows_out as f64 / m.processed.max(1) as f64,
    );
    v.set("shed.rebuild_share", rebuild_share);
    if let (Some(truth), Some(sample)) = (ctx.oracle.agg.as_ref(), base.outcome.agg.as_ref()) {
        v.set(
            "shed.rs_agg_rel_err",
            AggSeries::avg_relative_error(truth, sample),
        );
    }
    v.set("core.ingest_p50_ns", p50_ns);
    v.set("core.ingest_p99_ns", tail_ns);
    v.set("core.rows_out", rows_out as f64);
    v.set("core.rows_per_s", rows_out as f64 / wall_s);
    v.set("core.ns_per_row", wall_s * 1e9 / rows_out.max(1) as f64);
    v.set("core.expired", m.expired as f64);
    v.set("core.epoch_rollovers", m.epoch_rollovers as f64);
    let steady: Vec<f64> = passes.iter().map(|r| r.steady_allocs as f64).collect();
    v.set(
        "core.steady_allocs_per_karrival",
        median(&steady) / ((n - n / 2) as f64 / 1e3),
    );
    let attributed = observe_share
        + score_share
        + rebuild_share
        + (join.probe_ns_per_row * rows_out as f64 + window.insert_evict_ns_per_op * n as f64)
            / base_wall_ns;
    v.set("core.unattributed_share", 1.0 - attributed);
    v.set("workload.generate_s", ctx.generate_s);
    v.set("workload.oracle_s", ctx.oracle_s);
    v.set("workload.csv_read_mb_per_s", csv_mb_per_s);
    v.set("query.parse_us", parse_us);
    v.set("trace.overhead_ratio", traced.wall_ns as f64 / 1e9 / wall_s);
    v.set("harness.pass_spread", spread(&walls));
    v.set("harness.timer_overhead_ns", timer.overhead_ns as f64);
    v.set("harness.passes", passes.len() as f64);
    let slow = walls.iter().filter(|w| **w > SLOW_PASS * wall_s).count();
    v.set("harness.slow_passes", slow as f64);

    if let Some(dir) = &opts.out_dir {
        let path = dir.join(format!("trace-{}.json", ctx.p.name));
        let text = tracer.to_json(traced_wall_ns).to_string();
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, text)) {
            ctx.check(
                "trace_file_written",
                false,
                format!("{}: {e}", path.display()),
            );
        }
    }
    let cover = tracer.top_level_ns() as f64 / traced_wall_ns as f64;
    ctx.check(
        "top_level_spans_cover_the_traced_run",
        (cover - 1.0).abs() <= 0.02,
        format!("top-level spans sum to {cover:.4} of the traced run's wall time"),
    );

    let (attempted, failed) = ctx.tally();
    v.set("core.failed_share", failed as f64 / attempted.max(1) as f64);
    let metrics = PER_LAYER
        .iter()
        .map(|(name, _, _)| (*name, v.get(name)))
        .collect();
    let layer_rows: Vec<Json> = by_name
        .iter()
        .map(|r| {
            json!({"span": r.name, "calls": r.calls, "total_ns": r.total_ns, "self_ns": r.self_ns, "count": r.count})
        })
        .collect();
    let extra = vec![
        ("latency_samples_per_pass".to_string(), json!(n)),
        ("latency_tail_percentile".to_string(), json!(tail_name)),
        (
            "traced_run_wall_s".to_string(),
            json!(traced_wall_ns as f64 / 1e9),
        ),
        ("spans_by_name".to_string(), Json::Array(layer_rows)),
    ];
    Some(Report {
        workload: ctx.p.name,
        traced: true,
        metrics,
        attempted,
        failed,
        info: ctx.info(&passes, extra),
        checks: ctx.checks,
    })
}
