//! The sharded data plane's steady state allocates nothing (DESIGN.md
//! "Sharded data plane"): with the join switched off
//! (`ShardConfig::route_only`), mint + route + batch + channel round-trip
//! of inline-arity rows must run the second half of a trace — by then the
//! batch buffers are recycling — without one allocator call, coordinator
//! and workers together.
//!
//! This is the only test in its binary (see `support/counting_alloc.rs`).

use mstream_core::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{alloc_calls, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Both predicates through `A1`: one attribute class, so the query
/// partitions by key and runs at the requested shard count.
fn keyed3() -> JoinQuery {
    let mut c = Catalog::new();
    c.add_stream(StreamSchema::new("R1", &["A1", "A2"]));
    c.add_stream(StreamSchema::new("R2", &["A1", "A2"]));
    c.add_stream(StreamSchema::new("R3", &["A1", "A2"]));
    JoinQuery::from_names(
        c,
        &[("R1.A1", "R2.A1"), ("R2.A1", "R3.A1")],
        WindowSpec::secs(2),
    )
    .unwrap()
}

/// Allocator calls, process-wide, while the second half of `trace` is
/// ingested by a fresh route-only engine of `shards` workers.
fn second_half_allocs(trace: &[Arrival], shards: usize) -> u64 {
    let mut engine = EngineBuilder::new(keyed3())
        .policy(MSketch)
        .capacity_per_window(256)
        .seed(1)
        .shard_config(ShardConfig {
            shards,
            channel_capacity: 64,
            batch_size: 256,
            route_only: true,
            ..ShardConfig::default()
        })
        .build_sharded()
        .unwrap();
    assert_eq!(engine.shards(), shards, "the keyed query must partition");
    let (head, tail) = trace.split_at(trace.len() / 2);
    for a in head {
        engine.ingest(a.clone());
    }
    let before = alloc_calls();
    for a in tail {
        engine.ingest(a.clone());
    }
    let allocs = alloc_calls() - before;
    let report = engine.finish().unwrap();
    assert_eq!(report.shed_channel, 0, "Block backpressure never drops");
    assert_eq!(
        report.combined.total_output(),
        0,
        "route-only workers do not join"
    );
    allocs
}

#[test]
fn route_only_steady_state_allocates_nothing() {
    let mut rng = StdRng::seed_from_u64(11);
    let trace: Vec<Arrival> = (0..16_384u64)
        .map(|i| {
            Arrival::new(
                StreamId(rng.gen_range(0..3)),
                vec![Value(rng.gen_range(0..100)), Value(rng.gen_range(0..100))],
                VTime::from_micros(i * 1000),
            )
        })
        .collect();
    // A pass whose workers fall behind primes more of the buffer pool
    // during its second half, so the plane is judged by its best pass: one
    // clean pass shows that nothing on the path allocates per arrival.
    let allocs: Vec<u64> = [1usize, 2, 1, 2, 1, 2]
        .into_iter()
        .map(|shards| second_half_allocs(&trace, shards))
        .collect();
    assert!(
        allocs.contains(&0),
        "route-only ingest allocated in every pass's second half: {allocs:?}"
    );
}
