//! The `run`, `generate`, `explain` and `policies` subcommands.

use crate::opts::{CliError, Flags};
use mstream_core::mstream_join::ProbePlan;
use mstream_core::mstream_workload::{read_trace, write_trace};
use mstream_core::prelude::*;
use std::io::Write;
use std::time::Instant;

/// The `--stage-json` view of one engine's counters: per-stage wall-clock
/// nanoseconds, the rescoring passes actually run, and the
/// estimation-cache statistics (packed-sign and productivity-score memos,
/// DESIGN.md §16). The per-arrival stages — `sketch_observe_ns`,
/// `expire_ns`, `probe_ns`, `score_ns`, `insert_ns` — are estimates: the
/// time of one arrival in `stage_sample_stride`, times that stride.
fn stage_view(m: &EngineMetrics) -> serde_json::Value {
    serde_json::json!({
        "stage_sample_stride": mstream_core::clock::STRIDE,
        "sketch_observe_ns": m.sketch_observe_ns,
        "priority_rebuild_ns": m.priority_rebuild_ns,
        "priority_rebuilds": m.priority_rebuilds,
        "score_ns": m.score_ns,
        "expire_ns": m.expire_ns,
        "probe_ns": m.probe_ns,
        "insert_ns": m.insert_ns,
        "sign_cache_hits": m.sign_cache_hits,
        "sign_cache_misses": m.sign_cache_misses,
        "score_cache_hits": m.score_cache_hits,
        "score_cache_misses": m.score_cache_misses,
    })
}

/// `mstream run`: execute a query over a trace with shedding.
pub fn run(flags: &Flags, out: &mut dyn Write) -> Result<(), CliError> {
    if flags.get("--queries").is_some() {
        return run_multi(flags, out);
    }
    let query = load_query(flags)?;
    let trace = load_trace(flags.require("--trace")?)?;
    validate_trace(&query, &trace)?;
    let policy_name = flags.get("--policy").unwrap_or("MSketch");
    let policy = parse_policy(policy_name)
        .ok_or_else(|| CliError::input(format!("unknown policy `{policy_name}`")))?;
    let capacity: usize = flags.num("--capacity", 1024)?;
    let rate: f64 = flags.num("--rate", 10.0)?;
    if rate <= 0.0 || rate.is_nan() {
        return Err(CliError::usage("--rate must be positive"));
    }
    let service: Option<f64> = flags.num_opt("--service")?;
    if let Some(l) = service {
        if l <= 0.0 || l.is_nan() {
            return Err(CliError::usage("--service must be positive"));
        }
    }
    let disorder = parse_disorder(flags)?;
    if disorder.is_some() && service.is_some() {
        return Err(CliError::usage(
            "--disorder-bound reorders at the operator's ingest and cannot be combined with the \
             --service queue model",
        ));
    }
    if let Some(shards) = flags.num_opt::<usize>("--shards")? {
        if shards == 0 {
            return Err(CliError::usage("--shards must be >= 1"));
        }
        if service.is_some() {
            return Err(CliError::usage(
                "--service models a single-threaded operator and cannot be combined with --shards",
            ));
        }
        return run_sharded(flags, out, query, policy, policy_name, &trace, capacity, rate, shards);
    }
    let opts = RunOptions {
        sim: SimConfig {
            arrival_rate: rate,
            service_rate: service,
            queue_capacity: flags.num("--queue", 100)?,
        },
        ..Default::default()
    };
    let mut builder = EngineBuilder::new(query)
        .boxed_policy(policy)
        .capacity_per_window(capacity)
        .seed(flags.num("--seed", 42)?);
    if let Some(bound) = disorder {
        builder = builder.disorder_bound(bound);
    }
    let mut engine = builder
        .build()
        .map_err(|e| CliError::input(e.to_string()))?;
    let report = run_trace(&mut engine, &trace, &opts);
    if flags.has("--json") {
        let body = serde_json::json!({
            "policy": policy_name,
            "capacity_per_window": capacity,
            "arrivals": trace.len(),
            "output_tuples": report.total_output(),
            "processed": report.metrics.processed,
            "shed_window": report.metrics.shed_window,
            "shed_queue": report.metrics.shed_queue,
            "late_dropped": report.metrics.late_dropped,
            "disorder_bound_secs": disorder.map(|d| d.as_secs_f64()),
            "expired": report.metrics.expired,
            "epoch_rollovers": report.metrics.epoch_rollovers,
            "priority_rebuilds": report.metrics.priority_rebuilds,
            "end_time_secs": report.end_time.as_secs_f64(),
            "wall_seconds": report.wall_time.as_secs_f64(),
        });
        writeln!(out, "{}", serde_json::to_string_pretty(&body).expect("serializable"))?;
    } else {
        writeln!(out, "policy:          {policy_name}")?;
        writeln!(out, "memory/window:   {capacity} tuples")?;
        writeln!(out, "arrivals:        {}", trace.len())?;
        writeln!(out, "processed:       {}", report.metrics.processed)?;
        writeln!(out, "output tuples:   {}", report.total_output())?;
        writeln!(
            out,
            "shed:            {} window, {} queue",
            report.metrics.shed_window, report.metrics.shed_queue
        )?;
        if let Some(bound) = disorder {
            writeln!(
                out,
                "event time:      bound {:.1}s, {} late-dropped",
                bound.as_secs_f64(),
                report.metrics.late_dropped
            )?;
        }
        writeln!(out, "expired:         {}", report.metrics.expired)?;
        writeln!(
            out,
            "virtual span:    {:.1}s   wall: {:.3}s",
            report.end_time.as_secs_f64(),
            report.wall_time.as_secs_f64()
        )?;
    }
    if flags.has("--stage-json") {
        let body = serde_json::json!({ "stages": stage_view(&report.metrics) });
        writeln!(out, "{}", serde_json::to_string_pretty(&body).expect("serializable"))?;
    }
    Ok(())
}

/// `mstream run --shards N`: hash-partitioned parallel execution. The
/// capacity flag is still the *total* memory budget; each worker gets
/// `1/S` of it. Non-partitionable queries run in broadcast mode at the
/// requested width (replicated windows, more total memory); with
/// `--no-broadcast` they degrade to one shard and the report says why.
#[allow(clippy::too_many_arguments)]
fn run_sharded(
    flags: &Flags,
    out: &mut dyn Write,
    query: JoinQuery,
    policy: Box<dyn ShedPolicy>,
    policy_name: &str,
    trace: &Trace,
    capacity: usize,
    rate: f64,
    shards: usize,
) -> Result<(), CliError> {
    let disorder = parse_disorder(flags)?;
    let mut builder = EngineBuilder::new(query)
        .boxed_policy(policy)
        .capacity_per_window(capacity)
        .seed(flags.num("--seed", 42)?)
        .shards(shards)
        .broadcast(!flags.has("--no-broadcast"));
    if let Some(bound) = disorder {
        builder = builder.disorder_bound(bound);
    }
    let engine = builder
        .build_sharded()
        .map_err(|e| CliError::input(e.to_string()))?;
    let report = engine
        .run_trace(trace, rate)
        .map_err(|e| CliError::input(e.to_string()))?;
    if flags.has("--json") {
        let per_shard: Vec<serde_json::Value> = report
            .per_shard
            .iter()
            .map(|m| {
                serde_json::json!({
                    "processed": m.processed,
                    "output_tuples": m.total_output,
                    "shed_window": m.shed_window,
                })
            })
            .collect();
        let body = serde_json::json!({
            "policy": policy_name,
            "capacity_total": capacity,
            "shards_requested": shards,
            "shards": report.combined.shards,
            "degraded": report.combined.degraded,
            "broadcast": report.broadcast,
            "hot_promoted": report.hot_promoted,
            "routed": report.routed,
            "resident": report.resident,
            "arrivals": trace.len(),
            "output_tuples": report.combined.total_output(),
            "processed": report.combined.metrics.processed,
            "replicated": report.combined.metrics.replicated,
            "shed_window": report.combined.metrics.shed_window,
            "shed_channel": report.shed_channel,
            "late_dropped": report.combined.metrics.late_dropped,
            "disorder_bound_secs": disorder.map(|d| d.as_secs_f64()),
            "expired": report.combined.metrics.expired,
            "epoch_rollovers": report.combined.metrics.epoch_rollovers,
            "priority_rebuilds": report.combined.metrics.priority_rebuilds,
            "per_shard": per_shard,
            "end_time_secs": report.combined.end_time.as_secs_f64(),
            "wall_seconds": report.combined.wall_time.as_secs_f64(),
        });
        writeln!(out, "{}", serde_json::to_string_pretty(&body).expect("serializable"))?;
    } else {
        writeln!(out, "policy:          {policy_name}")?;
        writeln!(out, "memory total:    {capacity} tuples across {shards} requested shards")?;
        match &report.combined.degraded {
            Some(reason) => writeln!(out, "shards:          1 (degraded: {reason})")?,
            None if report.broadcast => writeln!(
                out,
                "shards:          {} (broadcast: replicated windows, dominant stream partitioned)",
                report.combined.shards
            )?,
            None => writeln!(out, "shards:          {}", report.combined.shards)?,
        }
        writeln!(out, "arrivals:        {}", trace.len())?;
        writeln!(out, "processed:       {}", report.combined.metrics.processed)?;
        writeln!(out, "output tuples:   {}", report.combined.total_output())?;
        writeln!(
            out,
            "shed:            {} window, {} channel",
            report.combined.metrics.shed_window, report.shed_channel
        )?;
        if let Some(bound) = disorder {
            writeln!(
                out,
                "event time:      bound {:.1}s, {} late-dropped",
                bound.as_secs_f64(),
                report.combined.metrics.late_dropped
            )?;
        }
        writeln!(out, "expired:         {}", report.combined.metrics.expired)?;
        for (i, m) in report.per_shard.iter().enumerate() {
            writeln!(
                out,
                "  shard {i}:       processed {:>7}  output {:>9}  shed {:>6}",
                m.processed, m.total_output, m.shed_window
            )?;
        }
        writeln!(
            out,
            "virtual span:    {:.1}s   wall: {:.3}s",
            report.combined.end_time.as_secs_f64(),
            report.combined.wall_time.as_secs_f64()
        )?;
    }
    if flags.has("--stage-json") {
        let body = serde_json::json!({
            "stages": stage_view(&report.combined.metrics),
            "per_shard": report.per_shard.iter().map(stage_view).collect::<Vec<_>>(),
        });
        writeln!(out, "{}", serde_json::to_string_pretty(&body).expect("serializable"))?;
    }
    Ok(())
}

/// The merged result of a multi-query run, shape-identical for the
/// in-process and sharded engines so one report printer serves both.
struct MultiOutcome {
    stats: Vec<QueryStats>,
    metrics: EngineMetrics,
    resident: usize,
    shed_channel: u64,
    /// `Some((worker count, degrade reason))` for sharded runs.
    shards: Option<(usize, Option<String>)>,
    /// `(query classes, shared stores)` — in-process runs only.
    sharing: Option<(usize, usize)>,
    wall: std::time::Duration,
}

/// `mstream run --queries <file.json>`: N standing queries over one
/// shared data plane. The report gains one row per `QueryId` with its
/// produced/shed counts and its recall against a full-memory companion
/// run of the same query set (which, by the exactness contract, equals
/// each query's solo exact output).
fn run_multi(flags: &Flags, out: &mut dyn Write) -> Result<(), CliError> {
    if flags.get("--query").is_some() || flags.get("--query-file").is_some() {
        return Err(CliError::usage("give --queries or --query, not both"));
    }
    if flags.num_opt::<f64>("--service")?.is_some() {
        return Err(CliError::usage(
            "--service models a single-query operator and cannot be combined with --queries",
        ));
    }
    let disorder = parse_disorder(flags)?;
    let queries = load_queries(flags.require("--queries")?)?;
    let trace = load_trace(flags.require("--trace")?)?;
    let policy_name = flags.get("--policy").unwrap_or("MSketch");
    let policy = parse_policy(policy_name)
        .ok_or_else(|| CliError::input(format!("unknown policy `{policy_name}`")))?;
    let capacity: usize = flags.num("--capacity", 1024)?;
    let rate: f64 = flags.num("--rate", 10.0)?;
    if rate <= 0.0 || rate.is_nan() {
        return Err(CliError::usage("--rate must be positive"));
    }
    let shards: Option<usize> = flags.num_opt("--shards")?;
    if shards == Some(0) {
        return Err(CliError::usage("--shards must be >= 1"));
    }

    let mut builder = EngineBuilder::new_multi()
        .boxed_policy(policy)
        .capacity_per_window(capacity)
        .seed(flags.num("--seed", 42)?);
    if let Some(bound) = disorder {
        builder = builder.disorder_bound(bound);
    }
    for (i, query) in queries.iter().enumerate() {
        builder
            .register(query.clone())
            .map_err(|e| CliError::input(format!("query {i}: {e}")))?;
    }
    let dt = VDur::from_rate(rate);
    let o = match shards {
        None => {
            let mut engine = builder
                .build_multi()
                .map_err(|e| CliError::input(e.to_string()))?;
            validate_trace_catalog(engine.catalog(), &trace)?;
            let started = Instant::now();
            let mut sink = CountSink::default();
            for (i, item) in trace.items.iter().enumerate() {
                let now = VTime::ZERO + dt.mul(i as u64);
                engine.ingest(Arrival::new(item.stream, item.values.clone(), now), &mut sink);
            }
            engine.flush(&mut sink);
            MultiOutcome {
                stats: (0..queries.len())
                    .map(|q| engine.query_stats(QueryId(q as u32)).unwrap_or_default())
                    .collect(),
                metrics: engine.metrics().clone(),
                resident: engine.total_resident(),
                shed_channel: 0,
                shards: None,
                sharing: Some((engine.n_classes(), engine.n_stores())),
                wall: started.elapsed(),
            }
        }
        Some(s) => {
            let mut engine = builder
                .shards(s)
                .build_multi_sharded()
                .map_err(|e| CliError::input(e.to_string()))?;
            validate_trace_catalog(engine.catalog(), &trace)?;
            for (i, item) in trace.items.iter().enumerate() {
                let now = VTime::ZERO + dt.mul(i as u64);
                engine.ingest(Arrival::new(item.stream, item.values.clone(), now));
            }
            let report = engine.finish().map_err(|e| CliError::input(e.to_string()))?;
            MultiOutcome {
                stats: report.stats,
                metrics: report.metrics,
                resident: report.resident,
                shed_channel: report.shed_channel,
                shards: Some((report.shards, report.degraded)),
                sharing: None,
                wall: report.wall_time,
            }
        }
    };
    let exact = multi_exact_counts(&queries, &trace, rate)?;
    let span_secs = match trace.len() {
        0 => 0.0,
        n => dt.mul(n as u64 - 1).as_secs_f64(),
    };
    let recall = |q: usize| match exact[q] {
        0 => 1.0,
        e => o.stats[q].produced as f64 / e as f64,
    };

    if flags.has("--json") {
        let per_query: Vec<serde_json::Value> = (0..queries.len())
            .map(|q| {
                serde_json::json!({
                    "query": q,
                    "produced": o.stats[q].produced,
                    "shed": o.stats[q].shed,
                    "exact": exact[q],
                    "recall": recall(q),
                })
            })
            .collect();
        let body = serde_json::json!({
            "policy": policy_name,
            "capacity_per_window": capacity,
            "queries": queries.len(),
            "shards": o.shards.as_ref().map(|(s, _)| s),
            "degraded": o.shards.as_ref().and_then(|(_, d)| d.clone()),
            "classes": o.sharing.map(|(c, _)| c),
            "stores": o.sharing.map(|(_, s)| s),
            "arrivals": trace.len(),
            "processed": o.metrics.processed,
            "output_tuples": o.metrics.total_output,
            "shed_window": o.metrics.shed_window,
            "shed_channel": o.shed_channel,
            "late_dropped": o.metrics.late_dropped,
            "disorder_bound_secs": disorder.map(|d| d.as_secs_f64()),
            "expired": o.metrics.expired,
            "epoch_rollovers": o.metrics.epoch_rollovers,
            "priority_rebuilds": o.metrics.priority_rebuilds,
            "resident": o.resident,
            "per_query": per_query,
            "end_time_secs": span_secs,
            "wall_seconds": o.wall.as_secs_f64(),
        });
        writeln!(out, "{}", serde_json::to_string_pretty(&body).expect("serializable"))?;
    } else {
        writeln!(out, "policy:          {policy_name}")?;
        writeln!(out, "memory/window:   {capacity} tuples")?;
        match o.sharing {
            Some((classes, stores)) => writeln!(
                out,
                "queries:         {} standing ({classes} classes, {stores} shared stores)",
                queries.len()
            )?,
            None => writeln!(out, "queries:         {} standing", queries.len())?,
        }
        if let Some((s, degraded)) = &o.shards {
            match degraded {
                Some(reason) => writeln!(out, "shards:          1 (degraded: {reason})")?,
                None => writeln!(out, "shards:          {s}")?,
            }
        }
        writeln!(out, "arrivals:        {}", trace.len())?;
        writeln!(out, "processed:       {}", o.metrics.processed)?;
        writeln!(out, "output tuples:   {}", o.metrics.total_output)?;
        writeln!(
            out,
            "shed:            {} window, {} channel",
            o.metrics.shed_window, o.shed_channel
        )?;
        writeln!(out, "expired:         {}", o.metrics.expired)?;
        writeln!(out, "resident:        {} tuples", o.resident)?;
        for q in 0..queries.len() {
            writeln!(
                out,
                "  q{q}: produced {:>9}  shed {:>7}  recall {:.3}",
                o.stats[q].produced,
                o.stats[q].shed,
                recall(q)
            )?;
        }
        writeln!(
            out,
            "virtual span:    {span_secs:.1}s   wall: {:.3}s",
            o.wall.as_secs_f64()
        )?;
    }
    if flags.has("--stage-json") {
        let body = serde_json::json!({ "stages": stage_view(&o.metrics) });
        writeln!(out, "{}", serde_json::to_string_pretty(&body).expect("serializable"))?;
    }
    Ok(())
}

/// Per-query exact output counts: the same query set replayed through a
/// full-memory shared data plane (nothing is ever evicted, so the policy
/// is irrelevant and FIFO's zero-overhead scoring is used).
fn multi_exact_counts(
    queries: &[JoinQuery],
    trace: &Trace,
    rate: f64,
) -> Result<Vec<u64>, CliError> {
    let mut builder = EngineBuilder::new_multi()
        .policy(Fifo)
        .capacity_per_window(usize::MAX);
    for query in queries {
        builder
            .register(query.clone())
            .map_err(|e| CliError::input(e.to_string()))?;
    }
    let mut engine = builder
        .build_multi()
        .map_err(|e| CliError::input(e.to_string()))?;
    let dt = VDur::from_rate(rate);
    let mut sink = CountSink::default();
    for (i, item) in trace.items.iter().enumerate() {
        let now = VTime::ZERO + dt.mul(i as u64);
        engine.ingest(Arrival::new(item.stream, item.values.clone(), now), &mut sink);
    }
    Ok((0..queries.len())
        .map(|q| engine.query_stats(QueryId(q as u32)).map_or(0, |s| s.produced))
        .collect())
}

/// Parses `--disorder-bound` (seconds) into the event-time bound, if given.
fn parse_disorder(flags: &Flags) -> Result<Option<VDur>, CliError> {
    let Some(secs) = flags.num_opt::<f64>("--disorder-bound")? else {
        return Ok(None);
    };
    if !secs.is_finite() || secs < 0.0 {
        return Err(CliError::usage(
            "--disorder-bound must be a finite number of seconds >= 0",
        ));
    }
    Ok(Some(VDur::from_secs_f64(secs)))
}

/// `mstream generate`: write a synthetic workload as CSV.
pub fn generate(flags: &Flags, out: &mut dyn Write) -> Result<(), CliError> {
    let tuples: usize = flags.num("--tuples", 1000)?;
    let seed: u64 = flags.num("--seed", 42)?;
    let trace = match flags.require("--workload")? {
        "regions" => {
            let z = parse_z(flags.get("--z").unwrap_or("1.6,2.0"))?;
            let mut config = RegionsConfig::with_z_intra(z.0, z.1);
            config.tuples_per_relation = tuples;
            config.seed = seed;
            if flags.has("--drift") {
                config.feed = FeedOrder::RegionPhases;
            }
            RegionsGenerator::new(config)
                .map_err(|e| CliError::input(e.to_string()))?
                .generate()
        }
        "census" => {
            let config = CensusConfig {
                tuples_per_month: tuples,
                seed,
                ..Default::default()
            };
            CensusGenerator::new(config)
                .map_err(|e| CliError::input(e.to_string()))?
                .generate()
        }
        other => {
            return Err(CliError::input(format!(
                "unknown workload `{other}` (expected `regions` or `census`)"
            )))
        }
    };
    let path = flags.require("--out")?;
    if path == "-" {
        write_trace(&trace, out)?;
    } else {
        let file = std::fs::File::create(path)?;
        write_trace(&trace, std::io::BufWriter::new(file))?;
        writeln!(out, "wrote {} arrivals to {path}", trace.len())?;
    }
    Ok(())
}

/// `mstream explain`: print the parsed query and its probe plans.
pub fn explain(flags: &Flags, out: &mut dyn Write) -> Result<(), CliError> {
    let query = load_query(flags)?;
    writeln!(out, "streams:")?;
    for (id, schema) in query.catalog().iter() {
        let window = match query.window(id) {
            WindowSpec::Time(d) => format!("RANGE {:.0} SECONDS", d.as_secs_f64()),
            WindowSpec::Tuples(n) => format!("ROWS {n}"),
        };
        writeln!(
            out,
            "  {} {}({}) [{}]",
            id,
            schema.name,
            schema.attrs.join(", "),
            window
        )?;
    }
    writeln!(out, "predicates:")?;
    for pred in query.predicates() {
        let name = |r: AttrRef| {
            let schema = query.catalog().schema(r.stream).expect("valid");
            format!("{}.{}", schema.name, schema.attrs[r.attr])
        };
        writeln!(out, "  {} = {}", name(pred.left), name(pred.right))?;
    }
    writeln!(out, "probe plans:")?;
    for plan in ProbePlan::all(&query) {
        let origin = query.catalog().schema(plan.origin()).expect("valid");
        let steps: Vec<String> = plan
            .steps()
            .iter()
            .map(|s| {
                let stream = query.catalog().schema(s.stream).expect("valid");
                let extra = if s.residual.is_empty() {
                    String::new()
                } else {
                    format!(" (+{} residual checks)", s.residual.len())
                };
                format!(
                    "probe {}.{}{extra}",
                    stream.name, stream.attrs[s.probe_attr]
                )
            })
            .collect();
        writeln!(out, "  on {} arrival: {}", origin.name, steps.join(" -> "))?;
    }
    Ok(())
}

/// `mstream policies`: list the built-in shedding policies.
pub fn policies(out: &mut dyn Write) -> Result<(), CliError> {
    writeln!(out, "built-in shedding policies:")?;
    let blurbs: &[(&str, &str)] = &[
        ("MSketch", "max-subset: evict the least sketch-estimated multi-way productivity"),
        ("MSketch-RS", "random sample: evict the largest produced fraction of expected output"),
        ("Age", "remaining lifetime x productivity"),
        ("Life", "remaining lifetime x pairwise partner frequency (Das et al.)"),
        ("Bjoin", "pairwise partner frequency over a binary join tree (Prob)"),
        ("Random", "uniform random eviction"),
        ("FIFO", "drop-oldest"),
    ];
    for (name, blurb) in blurbs {
        writeln!(out, "  {name:<11} {blurb}")?;
    }
    Ok(())
}

fn load_query(flags: &Flags) -> Result<JoinQuery, CliError> {
    let text = match (flags.get("--query"), flags.get("--query-file")) {
        (Some(q), None) => q.to_string(),
        (None, Some(path)) => std::fs::read_to_string(path)?,
        (Some(_), Some(_)) => {
            return Err(CliError::usage("give --query or --query-file, not both"))
        }
        (None, None) => return Err(CliError::usage("--query (or --query-file) is required")),
    };
    mstream_query::parse_query(&text).map_err(|e| CliError::input(format!("query: {e}")))
}

/// Reads `--queries <file.json>`: a JSON array of query strings, each in
/// the same CQL-ish dialect as `--query`.
fn load_queries(path: &str) -> Result<Vec<JoinQuery>, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::input(format!("cannot open queries `{path}`: {e}")))?;
    let specs: Vec<String> = serde_json::from_str(&text).map_err(|e| {
        CliError::input(format!(
            "queries `{path}`: expected a JSON array of query strings: {e}"
        ))
    })?;
    if specs.is_empty() {
        return Err(CliError::input(format!("queries `{path}`: the array is empty")));
    }
    specs
        .iter()
        .enumerate()
        .map(|(i, s)| {
            mstream_query::parse_query(s).map_err(|e| CliError::input(format!("query {i}: {e}")))
        })
        .collect()
}

fn load_trace(path: &str) -> Result<Trace, CliError> {
    if path == "-" {
        read_trace(std::io::stdin().lock()).map_err(|e| CliError::input(e.to_string()))
    } else {
        let file = std::fs::File::open(path)
            .map_err(|e| CliError::input(format!("cannot open trace `{path}`: {e}")))?;
        read_trace(file).map_err(|e| CliError::input(e.to_string()))
    }
}

/// The trace must only reference the query's streams, with matching arity.
fn validate_trace(query: &JoinQuery, trace: &Trace) -> Result<(), CliError> {
    validate_trace_catalog(query.catalog(), trace)
}

/// Catalog-level trace validation — for multi-query runs the catalog is
/// the union of every registered query's streams, in registration order.
fn validate_trace_catalog(catalog: &Catalog, trace: &Trace) -> Result<(), CliError> {
    for (i, item) in trace.items.iter().enumerate() {
        let schema = catalog.schema(item.stream).ok_or_else(|| {
            CliError::input(format!(
                "trace row {}: stream index {} but the query set has {} streams",
                i + 1,
                item.stream.index(),
                catalog.len()
            ))
        })?;
        if item.values.len() != schema.arity() {
            return Err(CliError::input(format!(
                "trace row {}: {} values for stream {} (schema {} has {})",
                i + 1,
                item.values.len(),
                item.stream.index(),
                schema.name,
                schema.arity()
            )));
        }
    }
    Ok(())
}

fn parse_z(text: &str) -> Result<(f64, f64), CliError> {
    let (lo, hi) = text
        .split_once(',')
        .ok_or_else(|| CliError::usage("--z expects `lo,hi`"))?;
    let lo: f64 = lo
        .trim()
        .parse()
        .map_err(|_| CliError::usage(format!("--z: bad number `{lo}`")))?;
    let hi: f64 = hi
        .trim()
        .parse()
        .map_err(|_| CliError::usage(format!("--z: bad number `{hi}`")))?;
    Ok((lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch;

    fn run_cli(args: &[&str]) -> Result<String, CliError> {
        let mut out = Vec::new();
        dispatch(
            &args.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            &mut out,
        )?;
        Ok(String::from_utf8(out).expect("utf8 output"))
    }

    #[test]
    fn policies_lists_all_builtins() {
        let text = run_cli(&["policies"]).unwrap();
        for name in ALL_POLICY_NAMES {
            assert!(text.contains(name), "missing {name}");
        }
    }

    #[test]
    fn explain_prints_streams_predicates_and_plans() {
        let text = run_cli(&[
            "explain",
            "--query",
            "SELECT * FROM L(k, v) [ROWS 100], R(k, v) WHERE L.k = R.k",
        ])
        .unwrap();
        assert!(text.contains("L(k, v) [ROWS 100]"), "{text}");
        assert!(text.contains("L.k = R.k"), "{text}");
        assert!(text.contains("on L arrival: probe R.k"), "{text}");
    }

    #[test]
    fn generate_then_run_round_trip() {
        let dir = std::env::temp_dir().join("mstream_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("trace.csv");
        let trace_path = trace_path.to_str().unwrap();
        let gen_out = run_cli(&[
            "generate",
            "--workload",
            "regions",
            "--tuples",
            "200",
            "--out",
            trace_path,
        ])
        .unwrap();
        assert!(gen_out.contains("wrote 600 arrivals"), "{gen_out}");
        let report = run_cli(&[
            "run",
            "--query",
            "SELECT * FROM R1(A1, A2) [RANGE 30 SECONDS], R2(A1, A2), R3(A1, A2) \
             WHERE R1.A1 = R2.A1 AND R2.A2 = R3.A1",
            "--trace",
            trace_path,
            "--capacity",
            "50",
            "--policy",
            "MSketch",
        ])
        .unwrap();
        assert!(report.contains("arrivals:        600"), "{report}");
        assert!(report.contains("output tuples:"), "{report}");
        // JSON mode parses.
        let json_report = run_cli(&[
            "run",
            "--query",
            "SELECT * FROM R1(A1, A2) [RANGE 30 SECONDS], R2(A1, A2), R3(A1, A2) \
             WHERE R1.A1 = R2.A1 AND R2.A2 = R3.A1",
            "--trace",
            trace_path,
            "--json",
        ])
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&json_report).unwrap();
        assert_eq!(v["arrivals"], 600);
    }

    #[test]
    fn stage_json_surfaces_stage_ns_and_cache_counters() {
        let dir = std::env::temp_dir().join("mstream_cli_test_stage");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("trace.csv");
        let trace_path = trace_path.to_str().unwrap();
        run_cli(&[
            "generate", "--workload", "regions", "--tuples", "200", "--out", trace_path,
        ])
        .unwrap();
        let chain = "SELECT * FROM R1(A1, A2) [RANGE 30 SECONDS], R2(A1, A2), R3(A1, A2) \
                     WHERE R1.A1 = R2.A1 AND R2.A2 = R3.A1";
        // Single-engine run: the stage object rides after the text report.
        let text = run_cli(&[
            "run", "--query", chain, "--trace", trace_path, "--capacity", "50",
            "--stage-json",
        ])
        .unwrap();
        let json_start = text.find('{').expect("stage object present");
        let v: serde_json::Value = serde_json::from_str(&text[json_start..]).unwrap();
        let stages = &v["stages"];
        assert_eq!(stages["stage_sample_stride"].as_u64(), Some(mstream_core::clock::STRIDE));
        for key in [
            "sketch_observe_ns",
            "priority_rebuild_ns",
            "priority_rebuilds",
            "score_ns",
            "expire_ns",
            "probe_ns",
            "insert_ns",
            "sign_cache_hits",
            "sign_cache_misses",
            "score_cache_hits",
            "score_cache_misses",
        ] {
            assert!(stages[key].as_u64().is_some(), "missing stage counter {key}: {v:?}");
        }
        assert!(
            stages["score_ns"].as_u64().unwrap() > 0,
            "a sketch policy spends time scoring: {v:?}"
        );
        // Sharded run: a per_shard breakdown accompanies the merged view.
        let keyed = "SELECT * FROM R1(A1, A2) [RANGE 30 SECONDS], R2(A1, A2), R3(A1, A2) \
                     WHERE R1.A1 = R2.A1 AND R2.A1 = R3.A1";
        let text = run_cli(&[
            "run", "--query", keyed, "--trace", trace_path, "--capacity", "400",
            "--shards", "2", "--stage-json",
        ])
        .unwrap();
        let json_start = text.find('{').expect("stage object present");
        let v: serde_json::Value = serde_json::from_str(&text[json_start..]).unwrap();
        assert_eq!(v["per_shard"].as_array().unwrap().len(), 2);
        let merged: u64 = v["per_shard"]
            .as_array()
            .unwrap()
            .iter()
            .map(|s| s["score_cache_hits"].as_u64().unwrap() + s["score_cache_misses"].as_u64().unwrap())
            .sum();
        let combined = v["stages"]["score_cache_hits"].as_u64().unwrap()
            + v["stages"]["score_cache_misses"].as_u64().unwrap();
        assert_eq!(merged, combined, "coordinator sums per-shard cache counters");
    }

    #[test]
    fn sharded_run_reports_fanout_and_degrade() {
        let dir = std::env::temp_dir().join("mstream_cli_test_shard");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("trace.csv");
        let trace_path = trace_path.to_str().unwrap();
        run_cli(&[
            "generate", "--workload", "regions", "--tuples", "200", "--out", trace_path,
        ])
        .unwrap();
        // All predicates through one attribute class: real 4-way fan-out.
        let keyed = "SELECT * FROM R1(A1, A2) [RANGE 30 SECONDS], R2(A1, A2), R3(A1, A2) \
                     WHERE R1.A1 = R2.A1 AND R2.A1 = R3.A1";
        let json = run_cli(&[
            "run", "--query", keyed, "--trace", trace_path, "--capacity", "400",
            "--shards", "4", "--json",
        ])
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["shards"], 4);
        assert_eq!(v["degraded"], serde_json::Value::Null);
        assert_eq!(v["per_shard"].as_array().unwrap().len(), 4);
        assert_eq!(v["shed_channel"], 0);

        // The chain query cannot key-partition: it now runs wide in
        // broadcast mode, matching the single-shard output exactly.
        let chain = "SELECT * FROM R1(A1, A2) [RANGE 30 SECONDS], R2(A1, A2), R3(A1, A2) \
                     WHERE R1.A1 = R2.A1 AND R2.A2 = R3.A1";
        let single = run_cli(&[
            "run", "--query", chain, "--trace", trace_path, "--shards", "1", "--json",
        ])
        .unwrap();
        let s: serde_json::Value = serde_json::from_str(&single).unwrap();
        let json = run_cli(&[
            "run", "--query", chain, "--trace", trace_path, "--shards", "4", "--json",
        ])
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["shards"], 4);
        assert_eq!(v["degraded"], serde_json::Value::Null);
        assert_eq!(v["broadcast"], true);
        assert!(v["replicated"].as_u64().unwrap() > 0, "{v:?}");
        assert_eq!(v["output_tuples"], s["output_tuples"], "broadcast is exact");
        let text = run_cli(&[
            "run", "--query", chain, "--trace", trace_path, "--shards", "4",
        ])
        .unwrap();
        assert!(text.contains("broadcast"), "{text}");

        // --no-broadcast restores the degrade-to-one-shard behavior.
        let json = run_cli(&[
            "run", "--query", chain, "--trace", trace_path, "--shards", "4",
            "--no-broadcast", "--json",
        ])
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["shards"], 1);
        assert!(v["degraded"].as_str().is_some(), "{v:?}");
        let text = run_cli(&[
            "run", "--query", chain, "--trace", trace_path, "--shards", "4",
            "--no-broadcast",
        ])
        .unwrap();
        assert!(text.contains("degraded:"), "{text}");
    }

    #[test]
    fn multi_query_run_reports_per_query_rows() {
        let dir = std::env::temp_dir().join("mstream_cli_test_multi");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("trace.csv");
        let trace_path = trace_path.to_str().unwrap();
        run_cli(&[
            "generate", "--workload", "regions", "--tuples", "200", "--out", trace_path,
        ])
        .unwrap();
        let chain = "SELECT * FROM R1(A1, A2) [RANGE 30 SECONDS], R2(A1, A2), R3(A1, A2) \
                     WHERE R1.A1 = R2.A1 AND R2.A2 = R3.A1";
        let pair = "SELECT * FROM R1(A1, A2) [RANGE 30 SECONDS], R2(A1, A2) \
                    WHERE R1.A1 = R2.A1";
        let queries_path = dir.join("queries.json");
        std::fs::write(
            &queries_path,
            serde_json::to_string(&[chain, chain, pair]).unwrap(),
        )
        .unwrap();
        let queries_path = queries_path.to_str().unwrap();

        // Full memory: every query's recall is exactly 1, the duplicate
        // queries agree, and the chain's count matches its solo run.
        let json = run_cli(&[
            "run", "--queries", queries_path, "--trace", trace_path,
            "--capacity", "100000", "--json",
        ])
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["queries"], 3);
        assert_eq!(v["classes"], 2, "duplicate chains share one class");
        let rows = v["per_query"].as_array().unwrap();
        assert_eq!(rows.len(), 3);
        for row in rows {
            assert_eq!(row["recall"], 1.0, "{row:?}");
            assert_eq!(row["produced"], row["exact"], "{row:?}");
        }
        assert_eq!(rows[0]["produced"], rows[1]["produced"], "duplicates agree");
        let solo = run_cli(&[
            "run", "--query", chain, "--trace", trace_path, "--capacity", "100000",
            "--json",
        ])
        .unwrap();
        let s: serde_json::Value = serde_json::from_str(&solo).unwrap();
        assert_eq!(rows[0]["produced"], s["output_tuples"], "solo-identical");

        // Text mode prints one row per query.
        let text = run_cli(&[
            "run", "--queries", queries_path, "--trace", trace_path, "--capacity", "50",
        ])
        .unwrap();
        for q in 0..3 {
            assert!(text.contains(&format!("q{q}: produced")), "{text}");
        }
        assert!(text.contains("recall"), "{text}");

        // Sharded: same per-query exact counts through the coordinator.
        let json = run_cli(&[
            "run", "--queries", queries_path, "--trace", trace_path,
            "--capacity", "100000", "--shards", "2", "--json",
        ])
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let sharded = v["per_query"].as_array().unwrap();
        for (a, b) in rows.iter().zip(sharded) {
            assert_eq!(a["produced"], b["produced"], "{a:?} vs {b:?}");
            assert_eq!(b["recall"], 1.0);
        }

        // Conflicting flag combinations are usage errors.
        for extra in [["--query", chain], ["--service", "10"]] {
            let err = run_cli(&[
                "run", "--queries", queries_path, "--trace", trace_path, extra[0], extra[1],
            ])
            .unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{extra:?}: {err}");
        }
        // Bad queries files are input errors with the path in the message.
        let bad = dir.join("bad.json");
        std::fs::write(&bad, "{}").unwrap();
        let err = run_cli(&[
            "run", "--queries", bad.to_str().unwrap(), "--trace", trace_path,
        ])
        .unwrap_err();
        assert!(err.to_string().contains("array of query strings"), "{err}");
        std::fs::write(&bad, "[]").unwrap();
        let err = run_cli(&[
            "run", "--queries", bad.to_str().unwrap(), "--trace", trace_path,
        ])
        .unwrap_err();
        assert!(err.to_string().contains("empty"), "{err}");
    }

    #[test]
    fn disorder_bound_flag_runs_and_matches_in_order_output() {
        let dir = std::env::temp_dir().join("mstream_cli_test_disorder");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("trace.csv");
        let trace_path = trace_path.to_str().unwrap();
        run_cli(&[
            "generate", "--workload", "regions", "--tuples", "200", "--out", trace_path,
        ])
        .unwrap();
        let query = "SELECT * FROM R1(A1, A2) [RANGE 30 SECONDS], R2(A1, A2), R3(A1, A2) \
                     WHERE R1.A1 = R2.A1 AND R2.A2 = R3.A1";
        let plain = run_cli(&["run", "--query", query, "--trace", trace_path, "--json"]).unwrap();
        let p: serde_json::Value = serde_json::from_str(&plain).unwrap();
        // The CLI's arrival schedule is in order, so any bound — zero
        // included — must reproduce the trusting run's output exactly.
        for bound in ["0", "5"] {
            let json = run_cli(&[
                "run", "--query", query, "--trace", trace_path, "--disorder-bound", bound,
                "--json",
            ])
            .unwrap();
            let v: serde_json::Value = serde_json::from_str(&json).unwrap();
            assert_eq!(v["output_tuples"], p["output_tuples"], "bound {bound}");
            assert_eq!(v["late_dropped"], 0);
        }
        let text = run_cli(&[
            "run", "--query", query, "--trace", trace_path, "--disorder-bound", "5",
        ])
        .unwrap();
        assert!(text.contains("event time:"), "{text}");
        // Sharded runs accept the flag too (coordinator-side front end).
        let json = run_cli(&[
            "run", "--query", query, "--trace", trace_path, "--shards", "2",
            "--disorder-bound", "5", "--json",
        ])
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["output_tuples"], p["output_tuples"]);
        // Rejected: the overload queue model trusts arrival order.
        let err = run_cli(&[
            "run", "--query", query, "--trace", trace_path, "--service", "100",
            "--disorder-bound", "5",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("--disorder-bound"), "{err}");
        let err = run_cli(&[
            "run", "--query", query, "--trace", trace_path, "--disorder-bound", "-1",
        ])
        .unwrap_err();
        assert!(err.to_string().contains(">= 0"), "{err}");
    }

    #[test]
    fn multi_query_run_accepts_a_disorder_bound() {
        let dir = std::env::temp_dir().join("mstream_cli_test_multi_disorder");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("trace.csv");
        let trace_path = trace_path.to_str().unwrap();
        run_cli(&[
            "generate", "--workload", "regions", "--tuples", "200", "--out", trace_path,
        ])
        .unwrap();
        let chain = "SELECT * FROM R1(A1, A2) [RANGE 30 SECONDS], R2(A1, A2), R3(A1, A2) \
                     WHERE R1.A1 = R2.A1 AND R2.A2 = R3.A1";
        let pair = "SELECT * FROM R1(A1, A2) [RANGE 30 SECONDS], R2(A1, A2) \
                    WHERE R1.A1 = R2.A1";
        let queries_path = dir.join("queries.json");
        std::fs::write(&queries_path, serde_json::to_string(&[chain, pair]).unwrap()).unwrap();
        let queries_path = queries_path.to_str().unwrap();
        let produced = |extra: &[&str]| -> Vec<serde_json::Value> {
            let mut args = vec![
                "run", "--queries", queries_path, "--trace", trace_path, "--capacity", "50",
                "--json",
            ];
            args.extend_from_slice(extra);
            let v: serde_json::Value = serde_json::from_str(&run_cli(&args).unwrap()).unwrap();
            assert_eq!(v["late_dropped"], 0, "{extra:?}");
            let rows = v["per_query"].as_array().unwrap();
            rows.iter().map(|r| r["produced"].clone()).collect()
        };
        // The CLI's arrival schedule is in order, so the bound changes
        // nothing: per query, in-process and through the coordinator.
        let plain = produced(&[]);
        assert!(plain.iter().all(|p| p.as_u64().unwrap() > 0), "{plain:?}");
        assert_eq!(produced(&["--disorder-bound", "5"]), plain);
        assert_eq!(produced(&["--disorder-bound", "5", "--shards", "2"]), plain);
    }

    #[test]
    fn sharded_run_excludes_service_and_zero_shards() {
        let query = "SELECT * FROM L(a) [ROWS 5], R(a) WHERE L.a = R.a";
        let err = run_cli(&[
            "run", "--query", query, "--trace", "/dev/null", "--shards", "2",
            "--service", "100",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("--shards"), "{err}");
        let err = run_cli(&[
            "run", "--query", query, "--trace", "/dev/null", "--shards", "0",
        ])
        .unwrap_err();
        assert!(err.to_string().contains(">= 1"), "{err}");
    }

    #[test]
    fn run_rejects_mismatched_trace() {
        let dir = std::env::temp_dir().join("mstream_cli_test2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.csv");
        std::fs::write(&path, "0,1,2\n5,1,2\n").unwrap();
        let err = run_cli(&[
            "run",
            "--query",
            "SELECT * FROM L(a, b) [ROWS 5], R(a, b) WHERE L.a = R.a",
            "--trace",
            path.to_str().unwrap(),
        ])
        .unwrap_err();
        assert!(err.to_string().contains("stream index 5"), "{err}");
    }

    #[test]
    fn run_reports_query_errors_with_context() {
        let err = run_cli(&["run", "--query", "SELECT oops", "--trace", "/dev/null"])
            .unwrap_err();
        assert!(err.to_string().contains("query:"), "{err}");
    }

    #[test]
    fn unknown_subcommand_and_workload() {
        assert!(run_cli(&["frobnicate"]).is_err());
        let err = run_cli(&["generate", "--workload", "nope", "--out", "-"]).unwrap_err();
        assert!(err.to_string().contains("unknown workload"), "{err}");
    }

    #[test]
    fn parse_z_accepts_ranges() {
        assert_eq!(parse_z("0.1,0.5").unwrap(), (0.1, 0.5));
        assert!(parse_z("0.1").is_err());
        assert!(parse_z("a,b").is_err());
    }

    #[test]
    fn help_prints_usage() {
        let text = run_cli(&["help"]).unwrap();
        assert!(text.contains("USAGE"));
        assert!(text.contains("generate"));
    }
}
