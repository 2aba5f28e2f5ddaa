//! Parallel execution of one shedding join, now a library feature.
//!
//! Earlier revisions of this example hand-rolled threads and channels
//! around a single-threaded engine. That pattern has been promoted into
//! the library as [`ShardedJoinEngine`]: the coordinator analyzes the
//! query's predicates, hash-partitions arrivals by the shared join
//! attribute across worker threads (each running an independent
//! `ShedJoinEngine` on `1/S` of the memory budget), and merges the
//! per-shard reports.
//!
//! Three runs are shown:
//!
//! 1. A *partitionable* query (all predicates on one attribute) fanned
//!    out over four shards with `Backpressure::Shed` — when a worker's
//!    channel saturates the coordinator sheds at the source, the
//!    back-pressure-free regime a DSMS operates in.
//! 2. The paper's chain query, whose middle stream joins through two
//!    different attributes: no partition key exists, so the engine runs
//!    it in *broadcast mode* (DESIGN.md §12) — the dominant stream is
//!    partitioned round-robin and the others are replicated to every
//!    shard, where each copy is stored and probed.
//! 3. The same chain with broadcast disabled, which degrades to one
//!    shard and reports why.
//!
//! ```text
//! cargo run --release -p mstream-core --example parallel_feed
//! ```

use mstream_core::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn sensors_query(predicates: &[(&str, &str)]) -> JoinQuery {
    let mut catalog = Catalog::new();
    catalog.add_stream(StreamSchema::new("Sensors", &["region", "kind"]));
    catalog.add_stream(StreamSchema::new("Readings", &["region", "level"]));
    catalog.add_stream(StreamSchema::new("Alarms", &["region", "severity"]));
    JoinQuery::from_names(catalog, predicates, WindowSpec::secs(30)).expect("valid query")
}

fn feed(engine: &mut ShardedJoinEngine, arrivals: usize) {
    let mut rng = StdRng::seed_from_u64(42);
    for i in 0..arrivals {
        // Half the traffic piles onto one hot region, the rest spreads out.
        let hot = rng.gen_bool(0.5);
        let region = if hot { 7 } else { rng.gen_range(0..40) };
        let values = vec![Value(region), Value(rng.gen_range(0..40))];
        let stream = StreamId(i % 3);
        // Virtual time: ~300 arrivals per second across the three sources.
        let now = VTime::from_micros(i as u64 * 3_333);
        engine.ingest(Arrival::new(stream, values, now));
    }
}

fn main() {
    // All three predicates share the `region` attribute class, so arrivals
    // can be hash-partitioned by region across worker threads.
    let partitionable = sensors_query(&[
        ("Sensors.region", "Readings.region"),
        ("Readings.region", "Alarms.region"),
    ]);
    println!("partitionable query: {:?}", partitionable.partitioning());

    let mut engine = EngineBuilder::new(partitionable)
        .policy(MSketch)
        .capacity_per_window(128) // total budget; each shard gets 1/S
        .seed(9)
        .shard_config(ShardConfig {
            shards: 4,
            channel_capacity: 8,
            batch_size: 16,
            backpressure: Backpressure::Shed, // live mode: drop, don't block
            ..ShardConfig::default()
        })
        .build_sharded()
        .expect("valid engine");
    feed(&mut engine, 30_000);
    let report = engine.finish().expect("workers exit cleanly");
    println!(
        "  {} shards  processed {:>6}  window-shed {:>6}  channel-shed {:>6}  results {:>8}",
        report.combined.shards,
        report.combined.metrics.processed,
        report.combined.metrics.shed_window,
        report.shed_channel,
        report.combined.total_output(),
    );
    for (i, m) in report.per_shard.iter().enumerate() {
        println!(
            "    shard {i}: processed {:>6}  results {:>8}",
            m.processed, m.total_output
        );
    }

    // The paper's chain shape joins Readings through two different
    // attributes — no single partition key exists. A 4-shard request
    // still runs wide: broadcast mode partitions the dominant stream
    // (Readings, incident to both predicates) round-robin and replicates
    // the other streams to every shard as build-only copies, at the cost
    // of window memory scaling with S for the replicated streams.
    let chain = sensors_query(&[
        ("Sensors.region", "Readings.region"),
        ("Readings.level", "Alarms.region"),
    ]);
    let mut engine = EngineBuilder::new(chain.clone())
        .policy(MSketch)
        .capacity_per_window(128)
        .seed(9)
        .shards(4)
        .build_sharded()
        .expect("valid engine");
    assert!(engine.degraded().is_none(), "broadcast mode runs wide");
    feed(&mut engine, 30_000);
    let report = engine.finish().expect("workers exit cleanly");
    println!(
        "\nchain query in broadcast mode: {} shards  processed {:>6}  replicated {:>6}  results {:>8}",
        report.combined.shards,
        report.combined.metrics.processed,
        report.combined.metrics.replicated,
        report.combined.total_output(),
    );

    // Opting out of broadcast (e.g. to cap memory at one window per
    // stream) degrades the same query to one worker — and says why.
    let engine = EngineBuilder::new(chain)
        .policy(MSketch)
        .capacity_per_window(128)
        .seed(9)
        .shards(4)
        .broadcast(false)
        .build_sharded()
        .expect("valid engine");
    let degraded = engine
        .degraded()
        .map(str::to_owned)
        .expect("chain query cannot partition by key");
    let report = engine
        .run_trace(&Trace::default(), 300.0)
        .expect("empty run still finishes");
    println!(
        "\nchain query with broadcast disabled degraded to {} shard: {}",
        report.combined.shards, degraded
    );
}
