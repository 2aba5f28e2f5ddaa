//! `ingest_batch` is a plain loop over `ingest` on both in-process engines.
//!
//! The contract under test: feeding a trace through `ingest_batch` — any
//! chunking — is the per-arrival loop: same result rows in the same
//! emission order, same sequence numbers, same shed decisions, same
//! deterministic metrics. This holds at full memory, under per-window and
//! global-pool shedding, with a disorder bound, and on the multi-query
//! plane.

use mstream_core::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Batch granularities under test: the degenerate run, a non-divisor of
/// every trace length, and one larger than most per-epoch runs.
const BATCHES: [usize; 3] = [1, 7, 64];

/// All predicates on attribute 0.
fn keyed3(window: WindowSpec) -> JoinQuery {
    let mut c = Catalog::new();
    c.add_stream(StreamSchema::new("R1", &["A1", "A2"]));
    c.add_stream(StreamSchema::new("R2", &["A1", "A2"]));
    c.add_stream(StreamSchema::new("R3", &["A1", "A2"]));
    JoinQuery::from_names(c, &[("R1.A1", "R2.A1"), ("R2.A1", "R3.A1")], window).unwrap()
}

/// The paper's chain through two different attributes of R2.
fn chain3(window: WindowSpec) -> JoinQuery {
    let mut c = Catalog::new();
    c.add_stream(StreamSchema::new("R1", &["A1", "A2"]));
    c.add_stream(StreamSchema::new("R2", &["A1", "A2"]));
    c.add_stream(StreamSchema::new("R3", &["A1", "A2"]));
    JoinQuery::from_names(c, &[("R1.A1", "R2.A1"), ("R2.A2", "R3.A1")], window).unwrap()
}

fn trace(n: usize, key_domain: u64, seed: u64) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(seed);
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

/// Result rows in emission order as per-stream sequence numbers. No sort:
/// chunking must preserve the exact emission sequence, not just the set.
fn emitted(rows: &[Vec<Tuple>]) -> Vec<Vec<SeqNo>> {
    rows.iter()
        .map(|row| row.iter().map(|t| t.seq).collect())
        .collect()
}

fn build(query: JoinQuery, policy: &str, memory: &Memory) -> ShedJoinEngine {
    let builder = EngineBuilder::new(query)
        .boxed_policy(parse_policy(policy).unwrap())
        .seed(5);
    match memory {
        Memory::PerWindow(c) => builder.capacity_per_window(*c),
        Memory::GlobalPool(t) => builder.global_pool(*t),
    }
    .build()
    .unwrap()
}

enum Memory {
    PerWindow(usize),
    GlobalPool(usize),
}

fn run_per_arrival(
    query: JoinQuery,
    policy: &str,
    memory: &Memory,
    arrivals: &[Arrival],
) -> (Vec<Vec<SeqNo>>, EngineMetrics, usize) {
    let mut engine = build(query, policy, memory);
    let mut sink = VecSink::default();
    for a in arrivals {
        engine.ingest(a.clone(), &mut sink);
    }
    (emitted(&sink.rows), det(engine.metrics()), engine.total_resident())
}

fn run_batched(
    query: JoinQuery,
    policy: &str,
    memory: &Memory,
    arrivals: &[Arrival],
    batch: usize,
) -> (Vec<Vec<SeqNo>>, EngineMetrics, usize) {
    let mut engine = build(query, policy, memory);
    let mut sink = VecSink::default();
    for chunk in arrivals.chunks(batch) {
        engine.ingest_batch(chunk.iter().cloned(), &mut sink);
    }
    (emitted(&sink.rows), det(engine.metrics()), engine.total_resident())
}

/// Full memory: chunked `ingest_batch` equals the per-arrival loop for a
/// sketch policy and a deterministic one, on both the keyed and the chain
/// shape.
#[test]
fn batched_ingest_is_bit_identical_at_full_memory() {
    let arrivals = trace(600, 8, 7);
    for (label, query) in [
        ("keyed3", keyed3(WindowSpec::secs(25))),
        ("chain3", chain3(WindowSpec::secs(25))),
    ] {
        for policy in ["MSketch", "FIFO"] {
            let memory = Memory::PerWindow(100_000);
            let reference = run_per_arrival(query.clone(), policy, &memory, &arrivals);
            assert!(!reference.0.is_empty(), "{label}: trace must produce joins");
            for batch in BATCHES {
                let got = run_batched(query.clone(), policy, &memory, &arrivals, batch);
                assert_eq!(
                    got, reference,
                    "{label}/{policy}: batch={batch} diverged from per-arrival"
                );
            }
        }
    }
}

/// Reduced memory: evictions read priorities, so every produced-credit
/// must have landed by then whatever the chunking. Per-window and
/// global-pool disciplines, every policy whose priorities depend on
/// produced counts plus the sketch family.
#[test]
fn batched_ingest_is_bit_identical_under_shedding() {
    let arrivals = trace(600, 5, 11);
    let query = keyed3(WindowSpec::secs(30));
    for memory in [Memory::PerWindow(6), Memory::GlobalPool(20)] {
        for policy in ["MSketch", "Bjoin", "Life", "FIFO", "Age"] {
            let reference = run_per_arrival(query.clone(), policy, &memory, &arrivals);
            assert!(
                reference.1.shed_window > 0,
                "{policy}: this capacity must actually shed"
            );
            for batch in BATCHES {
                let got = run_batched(query.clone(), policy, &memory, &arrivals, batch);
                assert_eq!(
                    got, reference,
                    "{policy}: batch={batch} diverged from per-arrival under shedding"
                );
            }
        }
    }
}

/// Tuple-count windows roll epochs and expire on arrival counts, not on
/// timestamps — chunk boundaries must not move either.
#[test]
fn batched_ingest_is_bit_identical_on_tuple_windows() {
    let arrivals = trace(400, 5, 13);
    let query = keyed3(WindowSpec::Tuples(9));
    for policy in ["MSketch", "Life"] {
        let memory = Memory::PerWindow(6);
        let reference = run_per_arrival(query.clone(), policy, &memory, &arrivals);
        for batch in BATCHES {
            let got = run_batched(query.clone(), policy, &memory, &arrivals, batch);
            assert_eq!(
                got, reference,
                "{policy}: batch={batch} diverged on tuple windows"
            );
        }
    }
}

/// With a disorder bound the event-time front end owns arrival order;
/// `ingest_batch` goes through it arrival by arrival and stays exact.
#[test]
fn batched_ingest_defers_to_event_time_front_end() {
    let arrivals = trace(300, 6, 17);
    let build_with_bound = || {
        EngineBuilder::new(keyed3(WindowSpec::secs(25)))
            .policy(Fifo)
            .capacity_per_window(100_000)
            .seed(5)
            .disorder_bound(VDur::from_secs(2))
            .build()
            .unwrap()
    };
    let mut reference = build_with_bound();
    let mut ref_sink = VecSink::default();
    for a in &arrivals {
        reference.ingest(a.clone(), &mut ref_sink);
    }
    let mut batched = build_with_bound();
    let mut sink = VecSink::default();
    for chunk in arrivals.chunks(7) {
        batched.ingest_batch(chunk.iter().cloned(), &mut sink);
    }
    assert_eq!(emitted(&sink.rows), emitted(&ref_sink.rows));
    assert_eq!(det(batched.metrics()), det(reference.metrics()));
}

/// The multi-query plane: `ingest_batch` chunks equal the per-arrival
/// loop for every registered query.
#[test]
fn multi_query_batched_ingest_is_bit_identical() {
    let queries = vec![keyed3(WindowSpec::secs(20)), chain3(WindowSpec::secs(30))];
    let arrivals = trace(500, 6, 23);
    let run = |batch: Option<usize>| {
        let mut b = EngineBuilder::new_multi()
            .policy(MSketch)
            .capacity_per_window(8)
            .seed(5);
        for q in &queries {
            b.register(q.clone()).unwrap();
        }
        let mut engine = b.build_multi().unwrap();
        let mut sink = QueryRowsSink::default();
        match batch {
            None => {
                for a in &arrivals {
                    engine.ingest(a.clone(), &mut sink);
                }
            }
            Some(b) => {
                for chunk in arrivals.chunks(b) {
                    engine.ingest_batch(chunk.iter().cloned(), &mut sink);
                }
            }
        }
        let rows: Vec<Vec<Vec<SeqNo>>> = sink.rows.iter().map(|r| emitted(r)).collect();
        (rows, det(engine.metrics()), engine.total_resident())
    };
    let reference = run(None);
    assert!(
        reference.0.iter().any(|r| !r.is_empty()),
        "trace must produce joins for at least one query"
    );
    for batch in BATCHES {
        assert_eq!(
            run(Some(batch)),
            reference,
            "multi-query batch={batch} diverged from per-arrival"
        );
    }
}
