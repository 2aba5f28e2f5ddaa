//! Acceptance tests for the multi-query shared data plane (DESIGN.md
//! "Multi-query sharing").
//!
//! The contract under test:
//!
//! * At full memory, every standing query's output on the shared plane is
//!   bit-identical (modulo stream tags, which are owner-local by design)
//!   to a solo engine fed only that query's streams — duplicates,
//!   overlapping subgraphs and disjoint queries alike.
//! * Under reduced memory, each query's shed output is a sub-multiset of
//!   its own solo exact result.
//! * A query registered mid-run sees only the suffix: its output matches
//!   a solo engine started at the registration point, and the standing
//!   queries are unperturbed by the registration.
//! * Removing a query stops its emission, frees sole-user stores and
//!   budget, and leaves the survivors bit-identical to a run where the
//!   removed query was never registered.
//! * The sharded coordinator (S ∈ {1, 2}) reproduces the in-process
//!   result set at full memory, including across runtime add/remove.
//! * A one-query plane *is* the solo engine: same rows in the same order
//!   and the same counters under shedding, for every policy.
//! * Two classes whose plans open with the same probe step stay
//!   independent: the store owner replays its solo run, the sharer stays
//!   within its exact result.

use mstream_core::prelude::*;
use mstream_types::Row;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An equi-join pair over two named streams, keyed on attribute 0 (the
/// key-partitionable shape, so sharded runs keep their full width).
fn pair(l: &str, r: &str, secs: u64) -> JoinQuery {
    let mut c = Catalog::new();
    c.add_stream(StreamSchema::new(l, &["A1", "A2"]));
    c.add_stream(StreamSchema::new(r, &["A1", "A2"]));
    JoinQuery::from_names(
        c,
        &[(format!("{l}.A1").as_str(), format!("{r}.A1").as_str())],
        WindowSpec::secs(secs),
    )
    .unwrap()
}

/// A three-way chain keyed entirely on attribute 0.
fn keyed_chain(a: &str, b: &str, c_name: &str, secs: u64) -> JoinQuery {
    let mut c = Catalog::new();
    c.add_stream(StreamSchema::new(a, &["A1", "A2"]));
    c.add_stream(StreamSchema::new(b, &["A1", "A2"]));
    c.add_stream(StreamSchema::new(c_name, &["A1", "A2"]));
    JoinQuery::from_names(
        c,
        &[
            (format!("{a}.A1").as_str(), format!("{b}.A1").as_str()),
            (format!("{b}.A1").as_str(), format!("{c_name}.A1").as_str()),
        ],
        WindowSpec::secs(secs),
    )
    .unwrap()
}

/// A named-stream trace: (stream name, row, timestamp). Timestamps
/// advance one second every five arrivals so windows genuinely slide.
fn trace(names: &[&str], n: usize, domain: u64, seed: u64) -> Vec<(String, Row, VTime)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let name = names[rng.gen_range(0..names.len())];
            let row: Row = vec![
                Value(rng.gen_range(0..domain)),
                Value(rng.gen_range(0..domain)),
            ]
            .into();
            (name.to_string(), row, VTime::from_secs(i as u64 / 5))
        })
        .collect()
}

/// Drives the shared engine over a named trace, collecting per-query
/// rows. Arrivals on streams no registered query references are skipped
/// (an external feed would have nowhere to route them).
fn feed(
    engine: &mut MultiQueryEngine,
    t: &[(String, Row, VTime)],
    sink: &mut QueryRowsSink,
) {
    for (name, row, ts) in t {
        let Some(g) = engine.stream_id(name) else {
            continue;
        };
        engine.ingest(Arrival::new(g, row.clone(), *ts), sink);
    }
}

/// Projects result rows to comparable form. Stream tags and sequence
/// numbers differ between the shared plane (global spaces) and a solo
/// engine (per-query spaces) by design; timestamps and payloads are the
/// observable output.
fn projected(rows: &[Vec<Tuple>]) -> Vec<Vec<(u64, Row)>> {
    rows.iter()
        .map(|r| r.iter().map(|t| (t.ts.as_micros(), t.values.clone())).collect())
        .collect()
}

/// Runs `query` solo under `policy` over the arrivals on its own streams
/// and returns the projected rows in emission order plus the final
/// counters.
fn solo_as(
    policy: &str,
    query: JoinQuery,
    t: &[(String, Row, VTime)],
    capacity: usize,
) -> (Vec<Vec<(u64, Row)>>, EngineMetrics) {
    let mut engine = EngineBuilder::new(query)
        .boxed_policy(parse_policy(policy).unwrap())
        .capacity_per_window(capacity)
        .seed(5)
        .build()
        .unwrap();
    let mut sink = VecSink::default();
    for (name, row, ts) in t {
        let Some(id) = engine.stream_id(name) else {
            continue; // stream not referenced by this query
        };
        engine.ingest(Arrival::new(id, row.clone(), *ts), &mut sink);
    }
    (projected(&sink.rows), engine.metrics().clone())
}

/// [`solo_as`] under the suite's default policy, rows only.
fn solo(query: JoinQuery, t: &[(String, Row, VTime)], capacity: usize) -> Vec<Vec<(u64, Row)>> {
    solo_as("MSketch", query, t, capacity).0
}

/// Multiset inclusion: every row of `sub` is matched against (and
/// consumes) a row of `sup`.
fn assert_sub_multiset(sub: &[Vec<(u64, Row)>], sup: &[Vec<(u64, Row)>], label: &str) {
    let mut pool = sup.to_vec();
    for row in sub {
        let pos = pool
            .iter()
            .position(|r| r == row)
            .unwrap_or_else(|| panic!("{label}: shed run emitted a row its solo oracle never produced"));
        pool.swap_remove(pos);
    }
}

/// The standing mix used throughout: a duplicate pair, a chain that
/// overlaps the pair's stream set, and a disjoint pair.
fn standing_mix() -> Vec<JoinQuery> {
    vec![
        pair("R1", "R2", 40),
        pair("R1", "R2", 40),
        keyed_chain("R1", "R2", "R3", 40),
        pair("A", "B", 40),
    ]
}

fn build_multi_as(policy: &str, queries: &[JoinQuery], capacity: usize) -> MultiQueryEngine {
    let mut b = EngineBuilder::new_multi()
        .boxed_policy(parse_policy(policy).unwrap())
        .capacity_per_window(capacity)
        .seed(5);
    for q in queries {
        b.register(q.clone()).unwrap();
    }
    b.build_multi().unwrap()
}

fn build_multi(queries: &[JoinQuery], capacity: usize) -> MultiQueryEngine {
    build_multi_as("MSketch", queries, capacity)
}

/// At full memory nothing is shed, so sharing windows across queries is
/// invisible: every query's output equals its solo run, in order.
/// Order is compared per query (`QueryRowsSink` buckets by id) and is a
/// contract per query only: how the two members of the duplicate class
/// interleave within one arrival follows the probe's run granularity.
#[test]
fn full_memory_per_query_output_matches_each_solo_run() {
    let queries = standing_mix();
    let t = trace(&["R1", "R2", "R3", "A", "B"], 1000, 8, 11);
    let mut engine = build_multi(&queries, 100_000);
    assert_eq!(engine.n_queries(), 4);
    assert_eq!(engine.n_classes(), 3, "duplicates collapse into one class");
    let mut sink = QueryRowsSink::default();
    feed(&mut engine, &t, &mut sink);
    assert!(!sink.rows[0].is_empty(), "trace must produce joins");
    for (i, q) in queries.into_iter().enumerate() {
        let oracle = solo(q, &t, 100_000);
        assert_eq!(
            projected(&sink.rows[i]),
            oracle,
            "query {i} diverged from its solo run"
        );
        let stats = engine.query_stats(QueryId(i as u32)).unwrap();
        assert_eq!(stats.produced, sink.rows[i].len() as u64, "query {i}");
        assert_eq!(stats.shed, 0, "query {i}: full memory never sheds");
    }
}

/// Duplicates are free in state: 64 copies of one standing query form one
/// class over the stores — and the residents — a single copy holds, and
/// every copy emits the solo run's rows.
#[test]
fn sixty_four_duplicates_share_one_class_and_its_stores() {
    let t = trace(&["R1", "R2"], 500, 8, 18);
    let solo_rows = solo(pair("R1", "R2", 40), &t, 100_000).len();
    assert!(solo_rows > 0, "trace must produce joins");
    let run = |n: usize| {
        let mut engine = build_multi(&vec![pair("R1", "R2", 40); n], 100_000);
        let mut sink = QueryRowsSink::default();
        feed(&mut engine, &t, &mut sink);
        assert_eq!(engine.n_classes(), 1, "N={n}: duplicates collapse");
        assert_eq!(sink.rows.len(), n, "N={n}: every copy emits");
        for (q, rows) in sink.rows.iter().enumerate() {
            assert_eq!(rows.len(), solo_rows, "N={n}: query {q} row count");
        }
        (engine.n_stores(), engine.total_resident())
    };
    assert_eq!(run(64), run(1), "(stores, residents) at N=64 vs N=1");
}

/// Under reduced memory the shared plane sheds, but can only lose rows:
/// each query's output stays a sub-multiset of its own solo exact result.
#[test]
fn shed_run_is_a_per_query_sub_multiset_of_solo_exact() {
    let queries = standing_mix();
    let t = trace(&["R1", "R2", "R3", "A", "B"], 1500, 6, 12);
    let mut engine = build_multi(&queries, 16);
    let mut sink = QueryRowsSink::default();
    feed(&mut engine, &t, &mut sink);
    assert!(engine.metrics().shed_window > 0, "capacity 16 must shed");
    for (i, q) in queries.into_iter().enumerate() {
        let oracle = solo(q, &t, 1 << 20);
        assert_sub_multiset(&projected(&sink.rows[i]), &oracle, &format!("query {i}"));
    }
}

/// Runtime registration has suffix semantics: a query added mid-trace
/// matches a solo engine that saw only the suffix, and the standing
/// queries behave as if nothing happened.
#[test]
fn query_added_mid_trace_matches_a_solo_run_over_the_suffix() {
    let t = trace(&["R1", "R2", "R3"], 800, 8, 13);
    let (head, tail) = t.split_at(400);
    let mut engine = build_multi(&[pair("R1", "R2", 40)], 100_000);
    let mut sink = QueryRowsSink::default();
    feed(&mut engine, head, &mut sink);
    let added = engine.add_query(keyed_chain("R1", "R2", "R3", 40)).unwrap();
    assert_eq!(added, QueryId(1));
    feed(&mut engine, tail, &mut sink);

    let suffix_oracle = solo(keyed_chain("R1", "R2", "R3", 40), tail, 100_000);
    assert!(!suffix_oracle.is_empty(), "suffix must produce joins");
    assert_eq!(
        projected(&sink.rows[1]),
        suffix_oracle,
        "late query must match a solo run over the suffix only"
    );
    let full_oracle = solo(pair("R1", "R2", 40), &t, 100_000);
    assert_eq!(
        projected(&sink.rows[0]),
        full_oracle,
        "standing query perturbed by the registration"
    );
}

/// Removal is clean: the removed query stops emitting immediately, its
/// sole-user stores and budget are freed, and the survivors' remaining
/// output is bit-identical to a run where it was never registered.
#[test]
fn removed_query_frees_budget_without_perturbing_survivors() {
    let queries = vec![pair("R1", "R2", 40), pair("A", "B", 40)];
    let t = trace(&["R1", "R2", "A", "B"], 800, 6, 14);
    let capacity = 24; // sheds, so the freed budget is observable

    let mut engine = build_multi(&queries, capacity);
    assert_eq!(engine.n_stores(), 4);
    let mut sink = QueryRowsSink::default();
    feed(&mut engine, &t[..400], &mut sink);
    let stores_before = engine.n_stores();
    let resident_before = engine.total_resident();
    assert!(engine.remove_query(QueryId(1)));
    assert!(engine.query_stats(QueryId(1)).is_none());
    assert!(engine.n_stores() < stores_before, "sole-user stores freed");
    assert!(
        engine.total_resident() < resident_before,
        "freed stores return their residents to the budget"
    );
    let emitted_before_removal = sink.rows[1].len();
    feed(&mut engine, &t[400..], &mut sink);
    assert_eq!(
        sink.rows[1].len(),
        emitted_before_removal,
        "removed query must stop emitting"
    );

    // Survivor differential: same trace, the removed query never existed.
    let mut solo_engine = build_multi(&[pair("R1", "R2", 40)], capacity);
    let mut solo_sink = QueryRowsSink::default();
    feed(&mut solo_engine, &t, &mut solo_sink);
    assert_eq!(
        projected(&sink.rows[0]),
        projected(&solo_sink.rows[0]),
        "survivor diverged from the never-registered baseline"
    );
}

/// The N = 1 contract: a plane holding one query runs the solo engine's
/// per-query code over the same stores, so under shedding it emits the
/// same rows in the same order and counts the same sheds and expirations
/// — for every policy, the randomized and produced-count-driven included.
#[test]
fn one_query_plane_replays_the_solo_engine_under_shedding() {
    let query = keyed_chain("R1", "R2", "R3", 40);
    let t = trace(&["R1", "R2", "R3"], 800, 8, 16);
    for &policy in ALL_POLICY_NAMES {
        let mut plane = build_multi_as(policy, std::slice::from_ref(&query), 16);
        let mut sink = QueryRowsSink::default();
        feed(&mut plane, &t, &mut sink);
        let (rows, want) = solo_as(policy, query.clone(), &t, 16);
        assert!(want.shed_window > 0, "{policy}: capacity 16 must shed");
        assert!(!rows.is_empty(), "{policy}: trace must produce joins");
        assert_eq!(projected(&sink.rows[0]), rows, "{policy}: rows diverged");
        let got = plane.metrics();
        assert_eq!(
            (got.shed_window, got.expired, got.total_output),
            (want.shed_window, want.expired, want.total_output),
            "{policy}: (shed_window, expired, total_output)"
        );
    }
}

/// Which sink is plugged in never changes what the plane stores, credits
/// or sheds. A three-member class (the store owner, so each member replays
/// the solo run even under shedding) next to a pair sharing its stores:
/// a `CountSink`, which reads runs by their length, leaves every arrival's
/// outcome and the final counters exactly as a `QueryRowsSink`, which
/// reads every row, does — and counts what `query_stats` reports.
#[test]
fn sink_choice_never_changes_what_the_plane_does() {
    let chain = keyed_chain("R1", "R2", "R3", 40);
    let queries = [chain.clone(), chain.clone(), chain.clone(), pair("R1", "R2", 40)];
    let t = trace(&["R1", "R2", "R3"], 800, 8, 19);
    for &policy in ALL_POLICY_NAMES {
        let mut rows_plane = build_multi_as(policy, &queries, 16);
        let mut count_plane = build_multi_as(policy, &queries, 16);
        assert_eq!(rows_plane.n_classes(), 2);
        let mut rows = QueryRowsSink::default();
        let mut count = CountSink::default();
        for (name, row, ts) in &t {
            let g = rows_plane.stream_id(name).unwrap();
            let arrival = Arrival::new(g, row.clone(), *ts);
            let a = rows_plane.ingest(arrival.clone(), &mut rows);
            let b = count_plane.ingest(arrival, &mut count);
            assert_eq!(a, b, "{policy}: outcome under QueryRowsSink vs CountSink");
        }
        let det = |m: &EngineMetrics| EngineMetrics {
            sketch_observe_ns: 0,
            score_ns: 0,
            expire_ns: 0,
            probe_ns: 0,
            insert_ns: 0,
            priority_rebuild_ns: 0,
            ..m.clone()
        };
        assert_eq!(det(rows_plane.metrics()), det(count_plane.metrics()), "{policy}");
        assert!(rows_plane.metrics().shed_window > 0, "{policy}: capacity 16 must shed");
        let solo_rows = solo_as(policy, chain.clone(), &t, 16).0;
        assert!(!solo_rows.is_empty(), "{policy}: trace must produce joins");
        let mut total = 0;
        for q in 0..queries.len() {
            let stats = count_plane.query_stats(QueryId(q as u32)).unwrap();
            assert_eq!(stats.produced, rows.rows[q].len() as u64, "{policy}: query {q}");
            total += stats.produced;
            if q < 3 {
                assert_eq!(projected(&rows.rows[q]), solo_rows, "{policy}: member {q} rows");
            }
        }
        assert_eq!(count.produced, total, "{policy}: CountSink vs query_stats");
    }
}

/// A pair and a chain over the same `R1`, `R2` stores, whose plans for an
/// `R1` arrival both open by probing `R2` on `A1`. The pair registers
/// first and owns both shared stores, so its rows replay its solo run in
/// order even under shedding (produced-output credits come from owner
/// emissions only); the chain's rows stay within its exact result, and at
/// full memory both replay their solo runs in order.
#[test]
fn classes_sharing_a_first_probe_step_stay_independent() {
    let queries = [pair("R1", "R2", 40), keyed_chain("R1", "R2", "R3", 40)];
    let t = trace(&["R1", "R2", "R3"], 500, 8, 17);
    for &policy in ALL_POLICY_NAMES {
        let mut plane = build_multi_as(policy, &queries, 12);
        assert_eq!(plane.n_stores(), 3, "R1 and R2 are shared");
        let mut sink = QueryRowsSink::default();
        feed(&mut plane, &t, &mut sink);
        assert!(plane.metrics().shed_window > 0, "{policy}: capacity 12 must shed");
        assert_eq!(
            projected(&sink.rows[0]),
            solo_as(policy, queries[0].clone(), &t, 12).0,
            "{policy}: the store owner diverged from its solo run"
        );
        let exact = solo_as(policy, queries[1].clone(), &t, 1 << 20).0;
        assert_sub_multiset(&projected(&sink.rows[1]), &exact, policy);

        let mut plane = build_multi_as(policy, &queries, 1 << 20);
        let mut sink = QueryRowsSink::default();
        feed(&mut plane, &t, &mut sink);
        for (i, q) in queries.iter().enumerate() {
            assert_eq!(
                projected(&sink.rows[i]),
                solo_as(policy, q.clone(), &t, 1 << 20).0,
                "{policy}: query {i} diverged from its solo run at full memory"
            );
        }
    }
}

/// Sorts projected rows for order-insensitive comparison (shard merge
/// order is canonical but differs from single-threaded emission order).
fn sorted(mut rows: Vec<Vec<(u64, Row)>>) -> Vec<Vec<(u64, Vec<Value>)>> {
    let mut out: Vec<Vec<(u64, Vec<Value>)>> = rows
        .drain(..)
        .map(|r| r.into_iter().map(|(ts, row)| (ts, row.iter().cloned().collect())).collect())
        .collect();
    out.sort();
    out
}

/// The sharded coordinator at full memory reproduces the in-process
/// result set for S ∈ {1, 2}, runtime add/remove included: the added
/// query sees only the suffix, the removed query reports zeros.
#[test]
fn sharded_full_memory_matches_in_process_across_add_and_remove() {
    let queries = vec![pair("R1", "R2", 40), keyed_chain("R1", "R2", "R3", 40)];
    let t = trace(&["R1", "R2", "R3"], 800, 8, 15);
    let (head, tail) = t.split_at(400);

    // In-process reference with the same add/remove schedule.
    let mut reference = build_multi(&queries, 100_000);
    let mut ref_sink = QueryRowsSink::default();
    feed(&mut reference, head, &mut ref_sink);
    let added = reference.add_query(pair("R2", "R3", 40)).unwrap();
    assert!(reference.remove_query(QueryId(1)));
    feed(&mut reference, tail, &mut ref_sink);
    assert!(!ref_sink.rows[added.index()].is_empty(), "added query joins");

    for shards in [1usize, 2] {
        let mut b = EngineBuilder::new_multi()
            .policy(MSketch)
            .capacity_per_window(100_000)
            .seed(5)
            .shard_config(ShardConfig {
                shards,
                channel_capacity: 4,
                batch_size: 7,
                collect_rows: true,
                ..ShardConfig::default()
            });
        for q in &queries {
            b.register(q.clone()).unwrap();
        }
        let mut engine = b.build_multi_sharded().unwrap();
        assert_eq!(engine.shards(), shards, "keyed set must keep full width");
        assert_eq!(engine.degraded(), None);
        for (name, row, ts) in head {
            let g = engine.stream_id(name).unwrap();
            engine.ingest(Arrival::new(g, row.clone(), *ts));
        }
        assert_eq!(engine.add_query(pair("R2", "R3", 40)).unwrap(), added);
        engine.remove_query(QueryId(1));
        for (name, row, ts) in tail {
            let g = engine.stream_id(name).unwrap();
            engine.ingest(Arrival::new(g, row.clone(), *ts));
        }
        let report = engine.finish().unwrap();
        assert_eq!(report.shed_channel, 0, "Block backpressure never drops");
        assert_eq!(report.metrics.shed_window, 0, "full memory never sheds");
        let rows = report.rows.as_ref().unwrap();
        for q in [0, added.index()] {
            assert_eq!(
                sorted(projected(&rows[q])),
                sorted(projected(&ref_sink.rows[q])),
                "S={shards}: query {q} diverged from the in-process run"
            );
            assert_eq!(
                report.stats[q].produced,
                rows[q].len() as u64,
                "S={shards}: query {q} stats"
            );
        }
        assert_eq!(
            report.stats[1],
            QueryStats::default(),
            "S={shards}: removed query reports zeros"
        );
    }
}
