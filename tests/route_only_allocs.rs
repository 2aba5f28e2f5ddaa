//! The sharded data plane's steady state allocates nothing (DESIGN.md §9):
//! with the join switched off (`ShardConfig::route_only`), mint + route +
//! batch + channel round-trip of inline-arity rows must run the second
//! half of a trace — by then the batch buffers are recycling — without one
//! allocator call, coordinator and workers together. That holds for one
//! query and for a keyed query set with tuple windows, whose arrivals also
//! queue expiry ticks for the shards they skip, delivered as coalesced
//! tick-summary records inside the recycled batches.
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

/// Predicates through `A1` only: one attribute class, so the query
/// partitions by key and runs at the requested shard count.
fn keyed(streams: &[&str], window: WindowSpec) -> JoinQuery {
    let mut c = Catalog::new();
    for s in streams {
        c.add_stream(StreamSchema::new(*s, &["A1", "A2"]));
    }
    let names: Vec<(String, String)> = streams
        .windows(2)
        .map(|p| (format!("{}.A1", p[0]), format!("{}.A1", p[1])))
        .collect();
    let pairs: Vec<(&str, &str)> = names
        .iter()
        .map(|(l, r)| (l.as_str(), r.as_str()))
        .collect();
    JoinQuery::from_names(c, &pairs, window).unwrap()
}

/// Allocator calls, process-wide, while the second half of `trace` is
/// ingested by a fresh route-only engine of `shards` workers over `set`.
fn second_half_allocs(trace: &[Arrival], set: &[JoinQuery], shards: usize) -> u64 {
    let mut builder = EngineBuilder::new_multi()
        .policy(MSketch)
        .capacity_per_window(256)
        .seed(1)
        .shard_config(ShardConfig {
            shards,
            channel_capacity: 64,
            batch_size: 256,
            route_only: true,
            ..ShardConfig::default()
        });
    for query in set {
        builder.register(query.clone()).unwrap();
    }
    let mut engine = builder.build_sharded().unwrap();
    assert_eq!(engine.shards(), shards, "the keyed set must partition");
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
    assert_eq!(report.routed.iter().sum::<u64>(), trace.len() as u64);
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
    let one = [keyed(&["R1", "R2", "R3"], WindowSpec::secs(2))];
    let allocs: Vec<u64> = [1usize, 2, 1, 2, 1, 2]
        .into_iter()
        .map(|shards| second_half_allocs(&trace, &one, shards))
        .collect();
    assert!(
        allocs.contains(&0),
        "route-only ingest allocated in every pass's second half: {allocs:?}"
    );
    // Ticks flow only between two or more shards, so every pass of the set
    // runs wide.
    let set = [
        keyed(&["R1", "R2", "R3"], WindowSpec::Tuples(64)),
        keyed(&["R1", "R2"], WindowSpec::Tuples(16)),
    ];
    let allocs: Vec<u64> = [2usize; 6]
        .into_iter()
        .map(|shards| second_half_allocs(&trace, &set, shards))
        .collect();
    assert!(
        allocs.contains(&0),
        "route-only ingest of a ticking query set allocated in every pass's second half: {allocs:?}"
    );
}
