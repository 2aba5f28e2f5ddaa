//! The `run`, `generate`, `explain` and `policies` subcommands.

use crate::opts::{CliError, Flags};
use mstream_core::mstream_join::ProbePlan;
use mstream_core::mstream_workload::{read_trace, write_trace};
use mstream_core::prelude::*;
use std::io::Write;

/// The `--stage-json` view of one engine's counters: per-stage wall-clock
/// nanoseconds, the rescoring passes actually run, and the
/// estimation-cache statistics (packed-sign and productivity-score memos,
/// DESIGN.md §16). The per-arrival stages — `sketch_observe_ns`,
/// `expire_ns`, `probe_ns`, `score_ns`, `insert_ns` — are estimates: the
/// time of one arrival in `stage_sample_stride`, times that stride.
fn stage_view(m: &EngineMetrics) -> serde_json::Value {
    serde_json::json!({
        "stage_sample_stride": mstream_core::STAGE_SAMPLE_STRIDE,
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

/// `mstream run`: a query set — the one `--query` (or `--query-file`),
/// or the `--queries` array — over a trace with shedding, in process or
/// on `--shards` workers. The report gives one row per `QueryId` with its
/// produced/shed counts and its recall against a full-memory companion
/// run of the same set (which, by the exactness contract, equals each
/// query's solo exact output), and a sharded run one row per shard.
pub fn run(flags: &Flags, out: &mut dyn Write) -> Result<(), CliError> {
    let queries = load_query_set(flags)?;
    let trace = load_trace(flags.require("--trace")?)?;
    let policy_name = flags.get("--policy").unwrap_or("MSketch");
    let policy = parse_policy(policy_name)
        .ok_or_else(|| CliError::input(format!("unknown policy `{policy_name}`")))?;
    let capacity: usize = flags.num("--capacity", 1024)?;
    let rate = parse_rate(flags, &trace)?;
    let disorder = parse_disorder(flags)?;
    let mut builder = EngineBuilder::new_multi()
        .boxed_policy(policy)
        .capacity_per_window(capacity)
        .seed(flags.num("--seed", 42)?);
    if let Some(bound) = disorder {
        builder = builder.disorder_bound(bound);
    }
    if let Some(service_rate) = flags.num_opt("--service")? {
        builder = builder.input_queue(service_rate, flags.num("--queue", 100)?);
    }
    let builder = register_all(builder, &queries)?;
    let o = match flags.num_opt::<usize>("--shards")? {
        None => {
            let mut engine = builder.build_multi().map_err(build_error)?;
            validate_trace_catalog(engine.catalog(), &trace)?;
            let opts = RunOptions {
                arrival_rate: rate,
                ..Default::default()
            };
            let report = run_trace(&mut engine, &trace, &opts);
            Outcome {
                report,
                stats: query_stats(&engine, queries.len()),
                resident: engine.total_resident(),
                sharing: Some((engine.n_classes(), engine.n_stores())),
                sharded: None,
            }
        }
        Some(shards) => {
            let engine = builder.shards(shards).build_sharded().map_err(build_error)?;
            validate_trace_catalog(engine.catalog(), &trace)?;
            let sharded = engine
                .run_trace(&trace, rate)
                .map_err(|e| CliError::input(e.to_string()))?;
            Outcome {
                report: sharded.combined.clone(),
                stats: sharded.stats.clone(),
                resident: sharded.resident.iter().sum(),
                sharing: None,
                sharded: Some(sharded),
            }
        }
    };
    let exact = exact_counts(&queries, &trace, rate)?;
    let recall = |q: usize| match exact[q] {
        0 => 1.0,
        e => o.stats[q].produced as f64 / e as f64,
    };
    let m = &o.report.metrics;

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
        let per_shard = o.sharded.as_ref().map(|s| {
            s.per_shard
                .iter()
                .zip(&s.resident)
                .map(|(m, resident)| {
                    serde_json::json!({
                        "processed": m.processed,
                        "output_tuples": m.total_output,
                        "shed_window": m.shed_window,
                        "resident": resident,
                    })
                })
                .collect::<Vec<_>>()
        });
        let body = serde_json::json!({
            "policy": policy_name,
            "capacity_per_window": capacity,
            "queries": queries.len(),
            "shards": o.report.shards,
            "degraded": o.report.degraded,
            "classes": o.sharing.map(|(c, _)| c),
            "stores": o.sharing.map(|(_, s)| s),
            "arrivals": trace.len(),
            "processed": m.processed,
            "output_tuples": m.total_output,
            "shed_window": m.shed_window,
            "shed_queue": m.shed_queue,
            "late_dropped": m.late_dropped,
            "disorder_bound_secs": disorder.map(|d| d.as_secs_f64()),
            "expired": m.expired,
            "epoch_rollovers": m.epoch_rollovers,
            "priority_rebuilds": m.priority_rebuilds,
            "resident": o.resident,
            "routed": o.sharded.as_ref().map(|s| &s.routed),
            "wire_words": o.sharded.as_ref().map(|s| &s.wire_words),
            "per_query": per_query,
            "per_shard": per_shard,
            "end_time_secs": o.report.end_time.as_secs_f64(),
            "wall_seconds": o.report.wall_time.as_secs_f64(),
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
        if o.sharded.is_some() {
            match &o.report.degraded {
                Some(reason) => writeln!(out, "shards:          1 (degraded: {reason})")?,
                None => writeln!(out, "shards:          {}", o.report.shards)?,
            }
        }
        writeln!(out, "arrivals:        {}", trace.len())?;
        writeln!(out, "processed:       {}", m.processed)?;
        writeln!(out, "output tuples:   {}", m.total_output)?;
        writeln!(
            out,
            "shed:            {} window, {} queue",
            m.shed_window, m.shed_queue
        )?;
        if let Some(bound) = disorder {
            writeln!(
                out,
                "event time:      bound {:.1}s, {} late-dropped",
                bound.as_secs_f64(),
                m.late_dropped
            )?;
        }
        writeln!(out, "expired:         {}", m.expired)?;
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
        for (i, m) in o.sharded.iter().flat_map(|s| s.per_shard.iter()).enumerate() {
            writeln!(
                out,
                "  shard {i}:       processed {:>7}  output {:>9}  shed {:>6}",
                m.processed, m.total_output, m.shed_window
            )?;
        }
        writeln!(
            out,
            "virtual span:    {:.1}s   wall: {:.3}s",
            o.report.end_time.as_secs_f64(),
            o.report.wall_time.as_secs_f64()
        )?;
    }
    if flags.has("--stage-json") {
        let body = serde_json::json!({
            "stages": stage_view(m),
            "per_shard": o.sharded.as_ref().map(|s| s.per_shard.iter().map(stage_view).collect::<Vec<_>>()),
        });
        writeln!(out, "{}", serde_json::to_string_pretty(&body).expect("serializable"))?;
    }
    Ok(())
}

/// One run of a query set, from either engine.
struct Outcome {
    /// The run's own report: combined counters, shards, end and wall time.
    report: RunReport,
    /// Per registered query id.
    stats: Vec<QueryStats>,
    /// Window-resident tuples at the end, summed over shards.
    resident: usize,
    /// `(query classes, shared stores)` — in-process runs only.
    sharing: Option<(usize, usize)>,
    /// The coordinator's report of a sharded run.
    sharded: Option<ShardedRunReport>,
}

/// Registers `queries` in order, as `QueryId(0..)`.
fn register_all(
    mut builder: EngineBuilder,
    queries: &[JoinQuery],
) -> Result<EngineBuilder, CliError> {
    for (i, query) in queries.iter().enumerate() {
        builder
            .register(query.clone())
            .map_err(|e| CliError::input(format!("query {i}: {e}")))?;
    }
    Ok(builder)
}

/// Per-query counters of queries `0..n` of an in-process plane.
fn query_stats(engine: &MultiQueryEngine, n: usize) -> Vec<QueryStats> {
    (0..n)
        .map(|q| engine.query_stats(QueryId(q as u32)).unwrap_or_default())
        .collect()
}

/// Per-query exact output counts: the same query set replayed through a
/// full-memory shared data plane (nothing is ever evicted, so the policy
/// is irrelevant and FIFO's zero-overhead scoring is used).
fn exact_counts(queries: &[JoinQuery], trace: &Trace, rate: f64) -> Result<Vec<u64>, CliError> {
    let builder = EngineBuilder::new_multi()
        .policy(Fifo)
        .capacity_per_window(usize::MAX);
    let mut engine = register_all(builder, queries)?
        .build_multi()
        .map_err(|e| CliError::input(e.to_string()))?;
    let opts = RunOptions {
        arrival_rate: rate,
        ..Default::default()
    };
    run_trace(&mut engine, trace, &opts);
    Ok(query_stats(&engine, queries.len())
        .iter()
        .map(|s| s.produced)
        .collect())
}

/// Parses `--rate`: positive and finite, and slow enough that the trace's
/// last arrival still falls within virtual time (`u64::MAX` µs).
fn parse_rate(flags: &Flags, trace: &Trace) -> Result<f64, CliError> {
    let rate: f64 = flags.num("--rate", 10.0)?;
    if !(rate > 0.0 && rate.is_finite()) {
        return Err(CliError::usage("--rate must be positive and finite"));
    }
    if trace.span(rate).is_none() {
        return Err(CliError::usage(format!(
            "--rate {rate}: {} arrivals would end past the last instant of virtual time",
            trace.len()
        )));
    }
    Ok(rate)
}

/// A builder refusal, in the terms of the flags that caused it.
fn build_error(e: BuildError) -> CliError {
    CliError::usage(match e {
        BuildError::QueueWithDisorder => {
            "--disorder-bound reorders at the operator's ingest and cannot be combined with the \
             --service queue model"
        }
        BuildError::QueueSharded => {
            "--service models a single-threaded operator and cannot be combined with --shards"
        }
        BuildError::BadInputQueue => "--service must be positive and finite, and --queue >= 1",
        BuildError::ZeroShards => "--shards must be >= 1",
        other => return CliError::input(other.to_string()),
    })
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

/// The run's query set: the `--queries` file, a JSON array of query
/// strings in the same CQL-ish dialect as `--query`, or the one `--query`
/// (or `--query-file`) as a set of one.
fn load_query_set(flags: &Flags) -> Result<Vec<JoinQuery>, CliError> {
    let Some(path) = flags.get("--queries") else {
        return Ok(vec![load_query(flags)?]);
    };
    if flags.get("--query").is_some() || flags.get("--query-file").is_some() {
        return Err(CliError::usage("give --queries or --query, not both"));
    }
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

/// The trace must only reference the engine's streams, with matching
/// arity: the union of every registered query's streams, in registration
/// order.
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
    fn a_flag_the_subcommand_does_not_read_is_a_usage_error() {
        let dir = std::env::temp_dir().join("mstream_cli_unknown_flags");
        std::fs::create_dir_all(&dir).unwrap();
        let (trace, generated) = (dir.join("trace.csv"), dir.join("generated.csv"));
        std::fs::write(&trace, "0,1,2\n1,1,3\n").unwrap();
        let query = "SELECT * FROM L(a, b) [ROWS 5], R(a, b) WHERE L.a = R.a";
        let run = ["run", "--query", query, "--trace", trace.to_str().unwrap()];
        let out = generated.to_str().unwrap();
        let generate = ["generate", "--workload", "regions", "--out", out];
        // The retired broadcast switch, spelled in two parts: `check.sh`
        // refuses its name anywhere under `crates/`.
        for (command, extra) in [
            (&run[..], &[concat!("--no-", "broadcast")][..]),
            (&run[..], &["--jsn"][..]),
            (&generate[..], &["--capacity", "5"][..]),
        ] {
            run_cli(command).unwrap();
            let err = run_cli(&[command, extra].concat()).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{extra:?}: {err}");
            assert!(err.to_string().contains(extra[0]), "{extra:?}: {err}");
        }
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
        assert_eq!(stages["stage_sample_stride"].as_u64(), Some(mstream_core::STAGE_SAMPLE_STRIDE));
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
        let routed: u64 = v["routed"].as_array().unwrap().iter().map(|r| r.as_u64().unwrap()).sum();
        assert_eq!(routed, v["arrivals"].as_u64().unwrap(), "one delivery per arrival");

        // The chain query cannot key-partition: it runs on one shard, and
        // the text report says why.
        let chain = "SELECT * FROM R1(A1, A2) [RANGE 30 SECONDS], R2(A1, A2), R3(A1, A2) \
                     WHERE R1.A1 = R2.A1 AND R2.A2 = R3.A1";
        let text = run_cli(&[
            "run", "--query", chain, "--trace", trace_path, "--shards", "4",
        ])
        .unwrap();
        assert!(text.contains("shards:          1 (degraded:"), "{text}");
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

        // Behind an overloaded input queue: every arrival is processed or
        // queue-shed once, and each query keeps its row.
        let json = run_cli(&[
            "run", "--queries", queries_path, "--trace", trace_path, "--capacity", "50",
            "--service", "2", "--queue", "20", "--json",
        ])
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let (processed, shed_queue) = (v["processed"].as_u64(), v["shed_queue"].as_u64());
        assert!(shed_queue > Some(0), "{v:?}");
        assert_eq!(processed.unwrap() + shed_queue.unwrap(), 600, "{v:?}");
        assert_eq!(v["per_query"].as_array().unwrap().len(), 3, "{v:?}");

        // --query and --queries exclude each other.
        let err = run_cli(&[
            "run", "--queries", queries_path, "--trace", trace_path, "--query", chain,
        ])
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
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

    /// A query is a one-query set: `--query Q` and `--queries '[Q]'` print
    /// the same report, in process, sharded and behind an input queue.
    #[test]
    fn one_query_and_its_one_query_set_report_the_same() {
        let dir = std::env::temp_dir().join("mstream_cli_test_one_set");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("trace.csv");
        let trace_path = trace_path.to_str().unwrap();
        run_cli(&[
            "generate", "--workload", "regions", "--tuples", "200", "--out", trace_path,
        ])
        .unwrap();
        let keyed = "SELECT * FROM R1(A1, A2) [RANGE 30 SECONDS], R2(A1, A2), R3(A1, A2) \
                     WHERE R1.A1 = R2.A1 AND R2.A1 = R3.A1";
        let chain = "SELECT * FROM R1(A1, A2) [RANGE 30 SECONDS], R2(A1, A2), R3(A1, A2) \
                     WHERE R1.A1 = R2.A1 AND R2.A2 = R3.A1";
        let report = |source: [&str; 2], extra: &[&str]| {
            let mut args = vec!["run", source[0], source[1], "--trace", trace_path];
            args.extend_from_slice(&["--capacity", "50", "--json"]);
            args.extend_from_slice(extra);
            let v: serde_json::Value = serde_json::from_str(&run_cli(&args).unwrap()).unwrap();
            assert!(v["wall_seconds"].as_f64().is_some(), "{v:?}");
            assert_eq!(v["per_query"].as_array().unwrap().len(), 1, "{v:?}");
            let keys = v.as_object().unwrap().iter();
            keys.filter(|(k, _)| k != "wall_seconds").cloned().collect::<Vec<_>>()
        };
        let cases: [(&str, &[&str]); 4] = [
            (keyed, &[]),
            (keyed, &["--shards", "2"]),
            (keyed, &["--service", "2", "--queue", "20"]),
            (chain, &["--shards", "2"]),
        ];
        for (i, (query, extra)) in cases.into_iter().enumerate() {
            let set_path = dir.join(format!("one{i}.json"));
            std::fs::write(&set_path, serde_json::to_string(&[query]).unwrap()).unwrap();
            let one = report(["--query", query], extra);
            assert_eq!(one, report(["--queries", set_path.to_str().unwrap()], extra), "{extra:?}");
        }
        // The chain query at two shards degrades to one, with its reason,
        // and reports the in-process run's output.
        let wide = report(["--query", chain], &["--shards", "2"]);
        let inproc = report(["--query", chain], &[]);
        let field = |r: &[(String, serde_json::Value)], key: &str| {
            r.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone()).unwrap()
        };
        assert_eq!(field(&wide, "shards"), 1);
        assert!(field(&wide, "degraded").as_str().is_some_and(|r| !r.is_empty()));
        assert_eq!(field(&wide, "output_tuples"), field(&inproc, "output_tuples"));
        assert_eq!(field(&wide, "per_query"), field(&inproc, "per_query"));
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

    /// Arrivals 10^12 s apart: the 20th lands past `u64::MAX` µs, so the
    /// rate is refused instead of wrapping the schedule around (which put
    /// far-apart arrivals back inside one window and joined them).
    #[test]
    fn run_rejects_a_rate_whose_last_arrival_overflows() {
        let dir = std::env::temp_dir().join("mstream_cli_test_far_rate");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("trace.csv");
        let trace_path = trace_path.to_str().unwrap();
        run_cli(&["generate", "--workload", "regions", "--tuples", "20", "--out", trace_path])
            .unwrap();
        let query = "SELECT * FROM R1(A1, A2) [RANGE 2 SECONDS], R2(A1, A2), R3(A1, A2) \
                     WHERE R1.A1 = R2.A1 AND R2.A2 = R3.A1";
        let run = |rate: &str| {
            run_cli(&[
                "run", "--query", query, "--trace", trace_path, "--rate", rate, "--policy",
                "FIFO", "--capacity", "100000", "--json",
            ])
        };
        let err = run("1e-12").unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        assert!(err.to_string().contains("--rate"), "{err}");
        // Slow enough to fit: 10^14 µs apart, nothing shares a window.
        let v: serde_json::Value = serde_json::from_str(&run("1e-8").unwrap()).unwrap();
        assert_eq!(
            (v["arrivals"].as_u64(), v["output_tuples"].as_u64()),
            (Some(60), Some(0))
        );
    }

    /// Out-of-range flag values are usage errors, never a panic: the two
    /// `--service` refusals come from the builder, `--rate` from the CLI.
    #[test]
    fn out_of_range_rates_and_queues_are_usage_errors() {
        let query = "SELECT * FROM L(a) [RANGE 5 SECONDS], R(a) WHERE L.a = R.a";
        let cases: [(&[&str], &str); 3] = [
            (&["--service", "5", "--queue", "0"], "--queue"),
            (&["--service", "inf"], "--service"),
            (&["--rate", "inf"], "--rate"),
        ];
        for (extra, flag) in cases {
            let mut args = vec!["run", "--query", query, "--trace", "/dev/null"];
            args.extend_from_slice(extra);
            let err = run_cli(&args).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{extra:?}: {err}");
            assert!(err.to_string().contains(flag), "{extra:?}: {err}");
        }
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
