//! Priorities on demand vs the eager reference (DESIGN.md §16).
//!
//! `MSketch` and `MSketch-RS` let the engine owe a window's priorities:
//! after a rollover a window with room stores arrivals unscored, keeps no
//! heap and is rebuilt only when it first needs a victim. [`Eager`] wraps
//! the same policy without that declaration, which *is* the engine that
//! scores every arrival and rebuilds every window at every rollover. The
//! two must be indistinguishable from outside: same rows in the same
//! order, same per-arrival outcome, same counters — over time and tuple
//! epochs, windows that are never, sometimes and always full, solo and
//! sharded. A tuple window with room
//! for its length cannot fill, so there both engines are idle: nothing
//! estimated, nothing rescored, every store owing from birth. A reorder
//! stage in front changes nothing: it releases every arrival at its own
//! timestamp. The policies not eligible must never owe anything.

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
/// 27 of this trace's tuples; a 30-tuple window cannot fill at capacity 30
/// and sheds at 29).
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
            [30, 29, 8],
        ),
    ]
}

/// Whether `fill` over `window` is the class of a window that cannot fill.
fn idle(window: WindowSpec, fill: &str) -> bool {
    matches!(window, WindowSpec::Tuples(_)) && fill == "never full"
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
        let exact = solo(
            EngineBuilder::new(query(window, false)).policy(Fifo).capacity_per_window(10_000),
            &arrivals,
        );
        for mk in policies() {
            let fills = ["never full", "sometimes full", "always full"];
            for (fill, capacity) in fills.into_iter().zip(caps) {
                let label = format!("{} / {epoch:?} / {fill}", mk().name());
                let base = || {
                    EngineBuilder::new(query(window, false))
                        .epoch(epoch)
                        .capacity_per_window(capacity)
                };
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
                if idle(window, fill) {
                    // Both idle: every store owes from birth and never pays.
                    assert_eq!(plain.rows, exact.rows, "{label}: capacity n is exact");
                    for run in [&plain, &eager] {
                        let m = &run.metrics;
                        let counts = (m.epoch_rollovers, m.priority_rebuilds, m.shed_window);
                        assert_eq!(counts, (0, 0, 0), "{label}: rollovers, rebuilds, shed");
                        assert_eq!(run.deferred_peak, 0, "{label}: no rollover marks a store");
                    }
                    continue;
                }
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
    let rows = &report.rows.as_ref().expect("collect_rows was set")[0];
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
                    let exact = sharded(base().policy(Fifo).capacity_per_window(10_000), shards, &arrivals);
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
                    // arrival later; one that never fills runs none; one that
                    // cannot fill leaves both engines idle.
                    let (p, e) = (&plain.combined.metrics, &eager.combined.metrics);
                    assert!(p.priority_rebuilds <= e.priority_rebuilds, "{label}");
                    if idle(window, fill) {
                        assert_eq!(canon(&plain), canon(&exact), "{label}: capacity n is exact");
                        let shards = plain.per_shard.iter().chain(&eager.per_shard);
                        for m in shards.chain([p, e]) {
                            let counts = (m.epoch_rollovers, m.priority_rebuilds, m.shed_window);
                            assert_eq!(counts, (0, 0, 0), "{label}: rollovers, rebuilds, shed");
                        }
                    } else if fill == "never full" {
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

/// `arrivals` with each group of equal timestamps moved, whole, up to
/// `bound` later: every arrival stays within `bound` of the watermark, and
/// a stage that holds them releases each group in its original order, so
/// the stage mints the seqs of the in-order feed.
fn shuffle_groups(arrivals: &[Arrival], bound: VDur) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(17);
    let mut groups: Vec<(VTime, usize, Vec<Arrival>)> = Vec::new();
    for a in arrivals {
        match groups.last_mut() {
            Some((_, _, group)) if group[0].ts == a.ts => group.push(a.clone()),
            _ => {
                let jitter = VDur::from_micros(rng.gen_range(0..=bound.as_micros()));
                groups.push((a.ts + jitter, groups.len(), vec![a.clone()]));
            }
        }
    }
    groups.sort_by_key(|(key, i, _)| (*key, *i));
    groups.into_iter().flat_map(|(_, _, group)| group).collect()
}

#[test]
fn plain_and_eager_are_indistinguishable_behind_a_reorder_stage() {
    let arrivals = trace(1500, 14);
    let bound = VDur::from_secs(3);
    let shuffled = shuffle_groups(&arrivals, bound);
    assert_ne!(shuffled, arrivals, "the shuffle must disorder the feed");
    for (window, epoch, caps) in disciplines() {
        for mk in policies() {
            for (fill, capacity) in [("sometimes full", caps[1]), ("always full", caps[2])] {
                let base = || {
                    EngineBuilder::new(query(window, false))
                        .epoch(epoch)
                        .capacity_per_window(capacity)
                };
                let trusting = solo(base().boxed_policy(mk()), &arrivals);
                for (k, feed) in [(VDur::ZERO, &arrivals), (bound, &shuffled)] {
                    let label = format!("{} / {epoch:?} / {fill} / K={k:?}", mk().name());
                    let staged = || base().disorder_bound(k);
                    let plain = solo(staged().boxed_policy(mk()), feed);
                    let eager = solo(staged().boxed_policy(Box::new(Eager(mk()))), feed);
                    assert_eq!(plain.rows, eager.rows, "{label}: rows or their order");
                    assert_eq!(plain.outcomes, eager.outcomes, "{label}: per-arrival outcome");
                    assert_eq!(
                        comparable(&plain.metrics),
                        comparable(&eager.metrics),
                        "{label}: counters"
                    );
                    assert_eq!(plain.metrics.late_dropped, 0, "{label}: the bound covers the feed");
                    assert!(plain.metrics.shed_window > 0, "{label}: the windows shed");
                    assert_eq!(eager.deferred_peak, 0, "{label}: the reference owes nothing");
                    assert!(plain.deferred_peak > 0, "{label}: the plain policy must defer");
                    if k.is_zero() {
                        assert_eq!(plain.rows, trusting.rows, "{label}: rows of the trusting run");
                        assert_eq!(
                            plain.metrics.priority_rebuilds, trusting.metrics.priority_rebuilds,
                            "{label}: passes of the trusting run"
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
        ("Bjoin", base().policy(Bjoin).capacity_per_window(caps[0])),
        ("Random", base().policy(RandomLoad).capacity_per_window(caps[0])),
        ("FIFO", base().policy(Fifo).capacity_per_window(caps[0])),
        (
            "MSketch-Current",
            base().policy(MSketchCurrentEpoch).capacity_per_window(caps[0]),
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
