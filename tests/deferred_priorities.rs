//! Priorities on demand vs the eager reference (DESIGN.md §16).
//!
//! `MSketch` and `MSketch-RS` let the engine owe a window's priorities:
//! after a rollover a window with room stores arrivals unscored, keeps no
//! heap and is rebuilt only when it first needs a victim. [`Eager`] wraps
//! the same policy without that declaration, which *is* the engine that
//! scores every arrival and rebuilds every window at every rollover. The
//! two must be indistinguishable from outside: same rows in the same
//! order, same per-arrival outcome, same counters — over time and tuple
//! epochs, uniform and per-stream capacities, windows that are never,
//! sometimes and always full, solo and sharded. Everything not eligible
//! (other policies, the global pool, an event-time front end) must never
//! owe anything.

use mstream_core::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[path = "support/eager.rs"]
mod eager;
use eager::Eager;

fn query(window: WindowSpec, keyed: bool) -> JoinQuery {
    let mut c = Catalog::new();
    c.add_stream(StreamSchema::new("R1", &["A1", "A2"]));
    c.add_stream(StreamSchema::new("R2", &["A1", "A2"]));
    c.add_stream(StreamSchema::new("R3", &["A1", "A2"]));
    let second = if keyed { ("R2.A1", "R3.A1") } else { ("R2.A2", "R3.A1") };
    JoinQuery::from_names(c, &[("R1.A1", "R2.A1"), second], window).unwrap()
}

/// 4 arrivals per virtual second over three streams, values from a domain
/// small enough that every stream joins and `MSketch-RS` sees credits.
fn trace(n: usize, seed: u64) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            Arrival::new(
                StreamId(rng.gen_range(0..3)),
                vec![Value(rng.gen_range(0..6)), Value(rng.gen_range(0..6))],
                VTime::from_secs(i as u64 / 4),
            )
        })
        .collect()
}

/// The two window/epoch disciplines with, for each, capacities under which
/// a window is never / sometimes / always full (a 20 s window holds about
/// 27 of this trace's tuples, a 30-tuple window at most 30).
fn disciplines() -> [(WindowSpec, EpochSpec, [usize; 3]); 2] {
    [
        (
            WindowSpec::secs(20),
            EpochSpec::Time(VDur::from_secs(10)),
            [64, 27, 8],
        ),
        (
            WindowSpec::Tuples(30),
            EpochSpec::PerStreamTuples(30),
            [64, 30, 8],
        ),
    ]
}

fn policies() -> [fn() -> Box<dyn ShedPolicy>; 2] {
    [|| Box::new(MSketch), || Box::new(MSketchRs)]
}

/// Everything but wall-clock ns, cache traffic (an unscored arrival asks
/// the sketch nothing) and the count of rescoring passes itself.
fn comparable(m: &EngineMetrics) -> EngineMetrics {
    EngineMetrics {
        sketch_observe_ns: 0,
        priority_rebuild_ns: 0,
        score_ns: 0,
        expire_ns: 0,
        probe_ns: 0,
        insert_ns: 0,
        sign_cache_hits: 0,
        sign_cache_misses: 0,
        score_cache_hits: 0,
        score_cache_misses: 0,
        priority_rebuilds: 0,
        ..m.clone()
    }
}

struct SoloRun {
    rows: Vec<Vec<SeqNo>>,
    outcomes: Vec<IngestOutcome>,
    metrics: EngineMetrics,
    /// Most windows seen owing their priorities after any one arrival.
    deferred_peak: usize,
}

fn solo(builder: EngineBuilder, arrivals: &[Arrival]) -> SoloRun {
    let mut engine = builder.seed(5).build().unwrap();
    let mut sink = VecSink::default();
    let mut outcomes = Vec::with_capacity(arrivals.len());
    let mut deferred_peak = 0;
    for a in arrivals {
        outcomes.push(engine.ingest(a.clone(), &mut sink));
        deferred_peak = deferred_peak.max(engine.deferred_windows());
    }
    outcomes.push(engine.flush(&mut sink));
    SoloRun {
        rows: sink
            .rows
            .iter()
            .map(|row| row.iter().map(|t| t.seq).collect())
            .collect(),
        outcomes,
        metrics: engine.metrics().clone(),
        deferred_peak,
    }
}

#[test]
fn solo_plain_and_eager_are_indistinguishable() {
    let arrivals = trace(1500, 11);
    for (window, epoch, caps) in disciplines() {
        let memory = |b: EngineBuilder, fill: &str| match fill {
            "never full" => b.capacity_per_window(caps[0]),
            "sometimes full" => b.capacity_per_window(caps[1]),
            "always full" => b.capacity_per_window(caps[2]),
            _ => b.capacities(caps.to_vec()),
        };
        for mk in policies() {
            for fill in ["never full", "sometimes full", "always full", "one of each"] {
                let label = format!("{} / {epoch:?} / {fill}", mk().name());
                let base = || memory(EngineBuilder::new(query(window, false)).epoch(epoch), fill);
                let plain = solo(base().boxed_policy(mk()), &arrivals);
                let eager = solo(base().boxed_policy(Box::new(Eager(mk()))), &arrivals);
                assert_eq!(plain.rows, eager.rows, "{label}: rows or their order");
                assert_eq!(plain.outcomes, eager.outcomes, "{label}: per-arrival outcome");
                assert_eq!(
                    comparable(&plain.metrics),
                    comparable(&eager.metrics),
                    "{label}: counters"
                );
                assert!(!plain.rows.is_empty(), "{label}: the trace joins");
                assert_eq!(eager.deferred_peak, 0, "{label}: the reference owes nothing");
                assert!(plain.deferred_peak > 0, "{label}: the plain policy must defer");
                assert_eq!(
                    eager.metrics.priority_rebuilds,
                    eager.metrics.epoch_rollovers * 3,
                    "{label}: the reference rebuilds every window at every rollover"
                );
                assert!(
                    plain.metrics.priority_rebuilds <= eager.metrics.priority_rebuilds,
                    "{label}: a pass is owed at most once"
                );
                match fill {
                    "never full" => {
                        assert_eq!(plain.metrics.shed_window, 0, "{label}");
                        assert!(
                            plain.metrics.priority_rebuilds * 4 < eager.metrics.priority_rebuilds,
                            "{label}: only first-epoch rollovers rebuild ({} vs {})",
                            plain.metrics.priority_rebuilds,
                            eager.metrics.priority_rebuilds
                        );
                    }
                    "always full" => assert!(
                        plain.metrics.priority_rebuilds > 0 && plain.metrics.shed_window > 0,
                        "{label}: full windows pay their passes on demand"
                    ),
                    _ => assert!(plain.metrics.shed_window > 0, "{label}"),
                }
            }
        }
    }
}

fn sharded(builder: EngineBuilder, shards: usize, arrivals: &[Arrival]) -> ShardedRunReport {
    let mut engine = builder
        .seed(5)
        .shard_config(ShardConfig {
            shards,
            channel_capacity: 4,
            batch_size: 7,
            backpressure: Backpressure::Block,
            collect_rows: true,
            ..ShardConfig::default()
        })
        .build_sharded()
        .unwrap();
    for a in arrivals {
        engine.ingest(a.clone());
    }
    engine.finish().unwrap()
}

fn canon(report: &ShardedRunReport) -> Vec<Vec<SeqNo>> {
    let rows = report.rows.as_ref().expect("collect_rows was set");
    let mut out: Vec<Vec<SeqNo>> = rows
        .iter()
        .map(|row| row.iter().map(|t| t.seq).collect())
        .collect();
    out.sort();
    out
}

#[test]
fn sharded_plain_and_eager_are_indistinguishable() {
    let arrivals = trace(1500, 12);
    for (window, epoch, caps) in disciplines() {
        for mk in policies() {
            for shards in [1, 2] {
                // The budget is split S ways: keep per-worker capacities.
                for (fill, capacity) in [("never full", caps[0]), ("always full", caps[2])] {
                    let label = format!("{} / {epoch:?} / S={shards} / {fill}", mk().name());
                    let base = || {
                        EngineBuilder::new(query(window, true))
                            .epoch(epoch)
                            .capacity_per_window(capacity * shards)
                    };
                    let plain = sharded(base().boxed_policy(mk()), shards, &arrivals);
                    let eager = sharded(base().boxed_policy(Box::new(Eager(mk()))), shards, &arrivals);
                    assert_eq!(plain.combined.shards, shards, "{label}");
                    assert_eq!(canon(&plain), canon(&eager), "{label}: rows");
                    assert_eq!(
                        comparable(&plain.combined.metrics),
                        comparable(&eager.combined.metrics),
                        "{label}: counters"
                    );
                    for (p, e) in plain.per_shard.iter().zip(&eager.per_shard) {
                        assert_eq!(comparable(p), comparable(e), "{label}: per-shard counters");
                    }
                    // A window that is always full runs every owed pass one
                    // arrival later; one that never fills runs none.
                    let (p, e) = (&plain.combined.metrics, &eager.combined.metrics);
                    assert!(p.priority_rebuilds <= e.priority_rebuilds, "{label}");
                    if fill == "never full" {
                        assert!(
                            p.priority_rebuilds * 4 < e.priority_rebuilds,
                            "{label}: workers must defer ({} vs {} passes)",
                            p.priority_rebuilds,
                            e.priority_rebuilds
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn ineligible_engines_never_owe_a_priority() {
    let arrivals = trace(900, 13);
    let (window, epoch, caps) = disciplines()[0];
    let base = || EngineBuilder::new(query(window, false)).epoch(epoch);
    let cases: Vec<(&str, EngineBuilder)> = vec![
        ("Age", base().policy(Age).capacity_per_window(caps[0])),
        ("Life", base().policy(Life).capacity_per_window(caps[0])),
        ("Bjoin", base().policy(Bjoin).capacity_per_window(caps[0])),
        ("Random", base().policy(RandomLoad).capacity_per_window(caps[0])),
        ("FIFO", base().policy(Fifo).capacity_per_window(caps[0])),
        (
            "MSketch-Current",
            base().policy(MSketchCurrentEpoch).capacity_per_window(caps[0]),
        ),
        ("MSketch / pool", base().policy(MSketch).global_pool(3 * caps[0])),
        ("MSketch-RS / pool", base().policy(MSketchRs).global_pool(3 * caps[2])),
        (
            "MSketch / K=0",
            base().policy(MSketch).capacity_per_window(caps[0]).disorder_bound(VDur::ZERO),
        ),
        (
            "MSketch-RS / K=3s",
            base()
                .policy(MSketchRs)
                .capacity_per_window(caps[0])
                .disorder_bound(VDur::from_secs(3)),
        ),
    ];
    for (label, builder) in cases {
        let run = solo(builder, &arrivals);
        assert_eq!(run.deferred_peak, 0, "{label} entered the deferred state");
        let m = &run.metrics;
        let recomputes = !matches!(label, "Random" | "FIFO");
        assert_eq!(
            m.priority_rebuilds,
            if recomputes { m.epoch_rollovers * 3 } else { 0 },
            "{label}: every rollover rebuilds every window"
        );
        assert_eq!(recomputes, m.epoch_rollovers > 0, "{label}");
    }
}
