//! Differential acceptance tests for [`ShardedJoinEngine`].
//!
//! The contract under test (DESIGN.md "Sharded execution"):
//!
//! * On a partitionable query at full memory, the merged S-shard output is
//!   identical to the single-engine output — same result rows, same
//!   sequence numbers — for any S.
//! * Under reduced memory, the sharded output is a sub-multiset of the
//!   full-memory result (shedding only removes rows, never invents them).
//! * A non-partitionable query degrades to 1 shard with the reason
//!   surfaced, and then behaves bit-identically to the single engine.
//! * Skewed keys are routed like any other: each arrival to its hash-home
//!   shard only, with the full-memory oracle equality and the sub-multiset
//!   property under shedding, replaying deterministically.
//! * Tuple-count windows stay exact across shards (the tick summaries).
//! * Same seed ⇒ same run, shard count and shedding notwithstanding.

use mstream_core::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// All predicates on attribute 0 through one equivalence class — the
/// canonical key-partitionable shape.
fn keyed3(window: WindowSpec) -> JoinQuery {
    let mut c = Catalog::new();
    c.add_stream(StreamSchema::new("R1", &["A1", "A2"]));
    c.add_stream(StreamSchema::new("R2", &["A1", "A2"]));
    c.add_stream(StreamSchema::new("R3", &["A1", "A2"]));
    JoinQuery::from_names(
        c,
        &[("R1.A1", "R2.A1"), ("R2.A1", "R3.A1")],
        window,
    )
    .unwrap()
}

/// The paper's chain: R2 joins through two different attributes, so no
/// single partition key exists.
fn chain3(window: WindowSpec) -> JoinQuery {
    let mut c = Catalog::new();
    c.add_stream(StreamSchema::new("R1", &["A1", "A2"]));
    c.add_stream(StreamSchema::new("R2", &["A1", "A2"]));
    c.add_stream(StreamSchema::new("R3", &["A1", "A2"]));
    JoinQuery::from_names(
        c,
        &[("R1.A1", "R2.A1"), ("R2.A2", "R3.A1")],
        window,
    )
    .unwrap()
}

/// Metrics with the wall-clock timing counters zeroed — everything else
/// is deterministic and must match exactly across equivalent runs.
fn det(m: &EngineMetrics) -> EngineMetrics {
    EngineMetrics {
        sketch_observe_ns: 0,
        priority_rebuild_ns: 0,
        score_ns: 0,
        expire_ns: 0,
        probe_ns: 0,
        insert_ns: 0,
        ..m.clone()
    }
}

fn trace(n: usize, key_domain: u64) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(7);
    (0..n)
        .map(|i| {
            Arrival::new(
                StreamId(rng.gen_range(0..3)),
                vec![
                    Value(rng.gen_range(0..key_domain)),
                    Value(rng.gen_range(0..key_domain)),
                ],
                VTime::from_secs(i as u64 / 4),
            )
        })
        .collect()
}

/// Canonical form of a result set: each row as its per-stream sequence
/// numbers (globally minted, so directly comparable across executions).
fn canon(rows: &[Vec<Tuple>]) -> Vec<Vec<SeqNo>> {
    let mut out: Vec<Vec<SeqNo>> = rows
        .iter()
        .map(|row| row.iter().map(|t| t.seq).collect())
        .collect();
    out.sort();
    out
}

/// Multiset inclusion over two canonicalized (sorted) row lists.
fn is_sub_multiset(sub: &[Vec<SeqNo>], sup: &[Vec<SeqNo>]) -> bool {
    let mut j = 0;
    for row in sub {
        while j < sup.len() && sup[j] < *row {
            j += 1;
        }
        if j == sup.len() || sup[j] != *row {
            return false;
        }
        j += 1;
    }
    true
}

fn single_engine_rows(query: JoinQuery, capacity: usize, arrivals: &[Arrival]) -> (Vec<Vec<SeqNo>>, EngineMetrics) {
    let mut engine = EngineBuilder::new(query)
        .policy(MSketch)
        .capacity_per_window(capacity)
        .seed(5)
        .build()
        .unwrap();
    let mut sink = VecSink::default();
    for arrival in arrivals {
        engine.ingest(arrival.clone(), &mut sink);
    }
    (canon(&sink.rows), engine.metrics().clone())
}

fn sharded_rows_with(
    query: JoinQuery,
    capacity: usize,
    arrivals: &[Arrival],
    config: ShardConfig,
) -> ShardedRunReport {
    let mut engine = EngineBuilder::new(query)
        .policy(MSketch)
        .capacity_per_window(capacity)
        .seed(5)
        .shard_config(config)
        .build_sharded()
        .unwrap();
    for arrival in arrivals {
        engine.ingest(arrival.clone());
    }
    engine.finish().unwrap()
}

fn sharded_rows(
    query: JoinQuery,
    shards: usize,
    capacity: usize,
    arrivals: &[Arrival],
) -> ShardedRunReport {
    sharded_rows_with(
        query,
        capacity,
        arrivals,
        ShardConfig {
            shards,
            channel_capacity: 4,
            batch_size: 7, // deliberately not a divisor of the trace length
            collect_rows: true,
            ..ShardConfig::default()
        },
    )
}

/// At full memory nothing is shed, so partitioning is lossless: the merged
/// rows equal the single-engine rows exactly for S ∈ {1, 2, 4}.
#[test]
fn full_memory_sharded_output_matches_single_engine() {
    let arrivals = trace(900, 12);
    let (oracle, oracle_metrics) =
        single_engine_rows(keyed3(WindowSpec::secs(25)), 100_000, &arrivals);
    assert!(!oracle.is_empty(), "trace must produce joins");
    for shards in [1, 2, 4] {
        let report = sharded_rows(keyed3(WindowSpec::secs(25)), shards, 100_000, &arrivals);
        assert_eq!(report.combined.shards, shards);
        assert_eq!(report.combined.degraded, None);
        assert_eq!(report.routed.iter().sum::<u64>(), arrivals.len() as u64);
        let rows = canon(&report.rows.as_ref().unwrap()[0]);
        assert_eq!(rows, oracle, "S={shards} row set diverged from oracle");
        assert_eq!(
            report.combined.metrics.total_output, oracle_metrics.total_output,
            "S={shards}"
        );
        assert_eq!(report.combined.metrics.shed_window, 0, "S={shards}");
        assert_eq!(report.per_shard.len(), shards);
        if shards > 1 {
            assert!(
                report.per_shard.iter().filter(|m| m.processed > 0).count() > 1,
                "hash routing must actually spread the 12-key domain"
            );
        }
    }
}

/// Under reduced memory each shard sheds within its own partition, so the
/// merged result can only lose rows relative to the full-memory oracle.
#[test]
fn reduced_memory_sharded_output_is_sub_multiset_of_oracle() {
    let arrivals = trace(900, 12);
    let (oracle, _) = single_engine_rows(keyed3(WindowSpec::secs(25)), 100_000, &arrivals);
    for shards in [2, 4] {
        let report = sharded_rows(keyed3(WindowSpec::secs(25)), shards, 32, &arrivals);
        assert!(
            report.combined.metrics.shed_window > 0,
            "capacity 32/{shards} must shed on this trace"
        );
        let rows = canon(&report.rows.as_ref().unwrap()[0]);
        assert!(rows.len() < oracle.len(), "shedding must cost some rows");
        assert!(
            is_sub_multiset(&rows, &oracle),
            "S={shards}: shed run emitted a row the oracle never produced"
        );
    }
}

/// The chain query joins R2 through two different attributes: a 4-shard
/// request degrades to 1 worker, says why, and — because a 1-shard run
/// keeps the master seed — matches the single engine bit for bit even
/// while shedding.
#[test]
fn non_partitionable_query_degrades_with_reason_and_stays_exact() {
    let arrivals = trace(700, 6);
    let mut engine = EngineBuilder::new(chain3(WindowSpec::secs(40)))
        .policy(MSketch)
        .capacity_per_window(24)
        .seed(5)
        .shard_config(ShardConfig {
            shards: 4,
            collect_rows: true,
            ..ShardConfig::default()
        })
        .build_sharded()
        .unwrap();
    assert_eq!(engine.shards(), 1);
    let reason = engine.degraded().expect("chain query must degrade").to_owned();
    assert!(!reason.is_empty());
    for arrival in &arrivals {
        engine.ingest(arrival.clone());
    }
    let report = engine.finish().unwrap();
    assert_eq!(report.combined.shards, 1);
    assert_eq!(report.combined.degraded.as_deref(), Some(reason.as_str()));

    let (oracle, oracle_metrics) = single_engine_rows(chain3(WindowSpec::secs(40)), 24, &arrivals);
    assert!(oracle_metrics.shed_window > 0, "this capacity must shed");
    assert_eq!(canon(&report.rows.as_ref().unwrap()[0]), oracle);
    assert_eq!(det(&report.combined.metrics), det(&oracle_metrics));
}

/// Tuple-count windows expire by arrivals-seen on the stream; the tick
/// summaries keep every shard's count exact, so a multi-shard run still
/// matches the single engine at full memory.
#[test]
fn tuple_windows_match_oracle_across_shards() {
    let arrivals = trace(600, 8);
    let (oracle, _) = single_engine_rows(keyed3(WindowSpec::Tuples(15)), 100_000, &arrivals);
    assert!(!oracle.is_empty(), "trace must produce joins");
    for shards in [2, 4] {
        let report = sharded_rows(keyed3(WindowSpec::Tuples(15)), shards, 100_000, &arrivals);
        let rows = canon(&report.rows.as_ref().unwrap()[0]);
        assert_eq!(rows, oracle, "S={shards}: tuple-window expiry drifted");
    }
}

/// Deep tick coalescing — a large batch size lets many foreign arrivals
/// collapse into one tick-summary record before the next home tuple —
/// must be observationally identical to per-arrival tick delivery: ticks
/// only advance a stream's arrivals-seen counter, and expiry is evaluated
/// against that counter when the next tuple is stored, so summing the
/// advances commutes with interleaving them.
#[test]
fn coalesced_tick_summaries_match_per_arrival_semantics() {
    let arrivals = trace(600, 8);
    let (oracle, _) = single_engine_rows(keyed3(WindowSpec::Tuples(15)), 100_000, &arrivals);
    assert!(!oracle.is_empty(), "trace must produce joins");
    for shards in [2, 4] {
        let report = sharded_rows_with(
            keyed3(WindowSpec::Tuples(15)),
            100_000,
            &arrivals,
            ShardConfig {
                shards,
                channel_capacity: 4,
                batch_size: 64, // deep coalescing: many ticks per summary
                collect_rows: true,
                ..ShardConfig::default()
            },
        );
        let rows = canon(&report.rows.as_ref().unwrap()[0]);
        assert_eq!(rows, oracle, "S={shards}: coalesced ticks drifted");
    }
}

/// A 1-shard run keeps the master seed, so it must match the single
/// engine bit for bit — rows, sequence numbers, and every deterministic
/// counter — even while actively shedding with `Row`-backed tuples.
#[test]
fn single_shard_bit_identity_survives_shedding() {
    let arrivals = trace(800, 10);
    let (oracle, oracle_metrics) = single_engine_rows(keyed3(WindowSpec::secs(25)), 32, &arrivals);
    assert!(oracle_metrics.shed_window > 0, "capacity 32 must shed");
    let report = sharded_rows(keyed3(WindowSpec::secs(25)), 1, 32, &arrivals);
    assert_eq!(canon(&report.rows.as_ref().unwrap()[0]), oracle);
    assert_eq!(det(&report.combined.metrics), det(&oracle_metrics));
}

/// Capacity-1 channels force maximum contention on the buffer-recycling
/// protocol: every send blocks until the worker drains and returns the
/// previous batch. The output must still match the oracle exactly and
/// replay identically.
#[test]
fn buffer_recycling_survives_capacity_one_stress() {
    let arrivals = trace(600, 8);
    let stress = ShardConfig {
        shards: 4,
        channel_capacity: 1,
        batch_size: 1, // one item per batch: maximum recycling churn
        collect_rows: true,
        ..ShardConfig::default()
    };
    let (oracle, _) = single_engine_rows(keyed3(WindowSpec::Tuples(15)), 100_000, &arrivals);
    let a = sharded_rows_with(keyed3(WindowSpec::Tuples(15)), 100_000, &arrivals, stress.clone());
    assert_eq!(canon(&a.rows.as_ref().unwrap()[0]), oracle);
    let b = sharded_rows_with(keyed3(WindowSpec::Tuples(15)), 100_000, &arrivals, stress);
    assert_eq!(
        canon(&a.rows.as_ref().unwrap()[0]),
        canon(&b.rows.as_ref().unwrap()[0])
    );
    assert_eq!(det(&a.combined.metrics), det(&b.combined.metrics));
}

/// Sharded runs are a pure function of (query, config, trace): the same
/// seed replays to the same rows and counters, including under shedding.
#[test]
fn same_seed_replays_identically() {
    let arrivals = trace(800, 10);
    let a = sharded_rows(keyed3(WindowSpec::secs(25)), 4, 32, &arrivals);
    let b = sharded_rows(keyed3(WindowSpec::secs(25)), 4, 32, &arrivals);
    assert!(a.combined.metrics.shed_window > 0, "must exercise shedding");
    assert_eq!(det(&a.combined.metrics), det(&b.combined.metrics));
    assert_eq!(
        a.per_shard.iter().map(det).collect::<Vec<_>>(),
        b.per_shard.iter().map(det).collect::<Vec<_>>()
    );
    assert_eq!(
        canon(&a.rows.as_ref().unwrap()[0]),
        canon(&b.rows.as_ref().unwrap()[0])
    );
}

/// A deliberately skewed trace: key 0 carries ~60% of the arrivals, the
/// rest spread over the remaining domain.
fn skewed_trace(n: usize, key_domain: u64) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(9);
    (0..n)
        .map(|i| {
            let key = if rng.gen_bool(0.6) {
                0
            } else {
                rng.gen_range(1..key_domain)
            };
            Arrival::new(
                StreamId(rng.gen_range(0..3)),
                vec![Value(key), Value(rng.gen_range(0..key_domain))],
                VTime::from_secs(i as u64 / 4),
            )
        })
        .collect()
}

/// Skewed keys are not split: at full memory the merged output equals the
/// single-engine oracle exactly, and every arrival has exactly one
/// delivery — one routed slot each. Both window kinds.
#[test]
fn skewed_keys_match_oracle_at_full_memory() {
    for window in [WindowSpec::secs(25), WindowSpec::Tuples(15)] {
        let arrivals = skewed_trace(900, 12);
        let (oracle, oracle_metrics) = single_engine_rows(keyed3(window), 100_000, &arrivals);
        assert!(!oracle.is_empty(), "trace must produce joins");
        for shards in [2, 4] {
            let report = sharded_rows(keyed3(window), shards, 100_000, &arrivals);
            let m = &report.combined.metrics;
            assert_eq!(m.processed, arrivals.len() as u64);
            assert_eq!(report.routed.iter().sum::<u64>(), arrivals.len() as u64);
            let rows = canon(&report.rows.as_ref().unwrap()[0]);
            assert_eq!(rows, oracle, "S={shards} {window:?}: diverged from oracle");
            assert_eq!(m.total_output, oracle_metrics.total_output);
        }
    }
}

/// Each arrival lands on the shard its key hashes to, hot key included:
/// the 60% key's home shard takes all of that key's arrivals.
#[test]
fn skewed_keys_route_each_arrival_to_its_home_shard() {
    let arrivals = skewed_trace(900, 12);
    for shards in [2, 4] {
        let report = sharded_rows(keyed3(WindowSpec::Tuples(15)), shards, 100_000, &arrivals);
        let home =
            |key: u64| (mstream_core::mstream_types::splitmix64(key) % shards as u64) as usize;
        let mut want = vec![0u64; shards];
        for a in &arrivals {
            want[home(a.values[0].0)] += 1;
        }
        assert_eq!(report.routed, want, "S={shards}");
        let processed: Vec<u64> = report.per_shard.iter().map(|m| m.processed).collect();
        assert_eq!(
            processed, want,
            "S={shards}: each worker ran what it was sent"
        );
        let hot = arrivals.iter().filter(|a| a.values[0] == Value(0)).count() as u64;
        assert!(
            report.routed[home(0)] >= hot,
            "S={shards}: the hot key stays home"
        );
    }
}

/// Under reduced memory the skewed shard sheds within its own partition;
/// the merged output stays a sub-multiset of the full-memory oracle, and
/// a replay is bit-identical.
#[test]
fn skewed_keys_shed_as_sub_multiset_and_replay() {
    for window in [WindowSpec::secs(25), WindowSpec::Tuples(15)] {
        let arrivals = skewed_trace(900, 12);
        let (oracle, _) = single_engine_rows(keyed3(window), 100_000, &arrivals);
        for shards in [2, 4] {
            let a = sharded_rows(keyed3(window), shards, 24, &arrivals);
            assert!(
                a.combined.metrics.shed_window > 0,
                "S={shards} {window:?}: capacity 24 must shed on this trace"
            );
            let rows = canon(&a.rows.as_ref().unwrap()[0]);
            assert!(
                is_sub_multiset(&rows, &oracle),
                "S={shards} {window:?}: shedding emitted a row the oracle never produced"
            );
            let b = sharded_rows(keyed3(window), shards, 24, &arrivals);
            assert_eq!(rows, canon(&b.rows.as_ref().unwrap()[0]));
            assert_eq!(det(&a.combined.metrics), det(&b.combined.metrics));
            assert_eq!(
                a.per_shard.iter().map(det).collect::<Vec<_>>(),
                b.per_shard.iter().map(det).collect::<Vec<_>>()
            );
            assert_eq!(a.routed, b.routed, "routing must replay identically");
        }
    }
}

/// The chain query on a multi-shard request, at full memory: the run
/// degrades to one worker (the query was once served wide by a broadcast
/// mode, hence the name), delivers every arrival exactly once, and its
/// rows equal the single-engine oracle. Time and tuple windows, S ∈ {2, 4}.
#[test]
fn broadcast_mode_matches_oracle_at_full_memory() {
    for window in [WindowSpec::secs(40), WindowSpec::Tuples(20)] {
        let arrivals = trace(700, 6);
        let (oracle, oracle_metrics) = single_engine_rows(chain3(window), 100_000, &arrivals);
        assert!(!oracle.is_empty(), "trace must produce joins");
        for shards in [2, 4] {
            let report = sharded_rows(chain3(window), shards, 100_000, &arrivals);
            assert_eq!(report.combined.shards, 1, "S={shards} {window:?}: chain query degrades");
            assert!(report.combined.degraded.is_some());
            assert_eq!(
                report.combined.metrics.processed,
                arrivals.len() as u64,
                "exactly one delivery per arrival"
            );
            let rows = canon(&report.rows.as_ref().unwrap()[0]);
            assert_eq!(rows, oracle, "S={shards} {window:?}: output diverged from oracle");
            assert_eq!(
                report.combined.metrics.total_output,
                oracle_metrics.total_output
            );
        }
    }
}

/// The chain query on a multi-shard request, under shedding: reduced
/// memory stays a sub-multiset of the full-memory oracle, every arrival
/// is accounted once, and the same seed replays identically.
#[test]
fn broadcast_mode_sheds_as_sub_multiset_and_replays() {
    let arrivals = trace(700, 6);
    let query = || chain3(WindowSpec::secs(40));
    let (oracle, _) = single_engine_rows(query(), 100_000, &arrivals);
    let a = sharded_rows(query(), 4, 24, &arrivals);
    assert!(
        a.combined.metrics.shed_window > 0,
        "capacity 24 must shed on this trace"
    );
    assert_eq!(a.combined.metrics.processed, arrivals.len() as u64);
    let rows = canon(&a.rows.as_ref().unwrap()[0]);
    assert!(
        is_sub_multiset(&rows, &oracle),
        "shedding emitted a row the oracle never produced"
    );
    let b = sharded_rows(query(), 4, 24, &arrivals);
    assert_eq!(rows, canon(&b.rows.as_ref().unwrap()[0]));
    assert_eq!(det(&a.combined.metrics), det(&b.combined.metrics));
}
