//! A window that cannot fill costs no estimation (DESIGN.md §16): a store
//! is bounded when its window is `ROWS n` and it has room for `n`; a class
//! whose every store is bounded is idle — no
//! sketches, no rollovers, no credits, no scores, stores owing their
//! priorities from birth. What idleness must leave alone: a class with
//! one window that can fill, a query added beside an idle one, an owner
//! hand-off, queued runs and sharded runs with hot keys.

use mstream_core::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Adds stream `name` with attributes `k` and `v`.
fn schema(c: &mut Catalog, name: &str) {
    c.add_stream(StreamSchema::new(name, &["k", "v"]));
}

/// `names` joined in a chain on `k`, stream `i` over `windows[i]`.
fn chain(names: &[&str], windows: &[WindowSpec]) -> JoinQuery {
    let mut c = Catalog::new();
    names.iter().for_each(|n| schema(&mut c, n));
    let predicates = (1..names.len())
        .map(|i| EquiPredicate::new(AttrRef::new(StreamId(i - 1), 0), AttrRef::new(StreamId(i), 0)))
        .collect();
    JoinQuery::new(c, predicates, windows.to_vec()).unwrap()
}

/// `n` arrivals over `streams` global streams, 4 a virtual second, keys
/// below `domain`; with `hot`, 60% of keys are 0.
fn arrivals(n: usize, streams: usize, domain: u64, hot: bool, seed: u64) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let k = if hot && rng.gen_bool(0.6) { 0 } else { rng.gen_range(0..domain) };
            let values = vec![Value(k), Value(rng.gen_range(0..100))];
            Arrival::new(StreamId(rng.gen_range(0..streams)), values, VTime::from_secs(i as u64 / 4))
        })
        .collect()
}

fn seq_rows(rows: &[Vec<Tuple>]) -> Vec<Vec<SeqNo>> {
    rows.iter().map(|r| r.iter().map(|t| t.seq).collect()).collect()
}

/// Rows by value: a query on a shared plane sees other streams' arrivals
/// minted between its own, so its sequence numbers are not its solo run's.
fn value_rows(rows: &[Vec<Tuple>]) -> Vec<Vec<Vec<Value>>> {
    rows.iter().map(|r| r.iter().map(|t| t.values.to_vec()).collect()).collect()
}

/// FNV-1a over the sorted rows' sequence numbers: the result multiset.
/// (Emission order is no contract across builds: where an expiry lands
/// relative to an insert moves a resident within its index bucket.)
fn digest(rows: &[Vec<SeqNo>]) -> u64 {
    let mut rows = rows.to_vec();
    rows.sort_unstable();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for row in &rows {
        for seq in row.iter().map(|s| s.0).chain([u64::MAX]) {
            for byte in seq.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
            }
        }
    }
    h
}

/// A class with one window that can fill keeps estimating, even beside a
/// bounded `ROWS` store, and sheds exactly what it shed before idleness
/// existed: rows digested, counters and rollovers as recorded from that
/// build.
#[test]
fn a_class_with_a_window_that_can_fill_keeps_estimating() {
    const RECORDED: [(&str, u64, u64, u64, u64); 2] = [
        ("MSketch", 17_891_207_458_198_814_148, 10_002, 985, 12),
        ("MSketch-RS", 16_714_496_178_497_813_238, 6_914, 1_002, 12),
    ];
    let windows = [WindowSpec::Tuples(10), WindowSpec::secs(60), WindowSpec::secs(60)];
    let query = chain(&["R1", "R2", "R3"], &windows);
    let trace = arrivals(1500, 3, 6, false, 21);
    for (name, digest_want, rows_want, shed_want, rolls_want) in RECORDED {
        let mut engine = EngineBuilder::new(query.clone())
            .boxed_policy(parse_policy(name).unwrap())
            .epoch(EpochSpec::Time(VDur::from_secs(30)))
            .capacity_per_window(16)
            .seed(8)
            .build()
            .unwrap();
        let mut sink = VecSink::default();
        for a in &trace {
            engine.ingest(a.clone(), &mut sink);
        }
        assert_eq!(engine.idle_classes(), 0, "{name}");
        let m = engine.metrics().clone();
        let got = (digest(&seq_rows(&sink.rows)), m.total_output, m.shed_window, m.epoch_rollovers);
        assert!(m.shed_window > 0 && m.epoch_rollovers > 0, "{name}: {got:?}");
        assert_eq!(got, (digest_want, rows_want, shed_want, rolls_want), "{name}");
    }
}

/// A query that can fill, added over an idle class's stream, estimates in
/// a class of its own; the idle class stays idle and exact.
#[test]
fn a_fillable_query_added_beside_an_idle_one_estimates_alone() {
    let idle_query = chain(&["L", "R"], &[WindowSpec::Tuples(20); 2]);
    let fillable = chain(&["L", "X"], &[WindowSpec::secs(20); 2]);
    let trace = arrivals(1200, 3, 5, false, 22);
    let mut b = EngineBuilder::new_multi().policy(MSketch).capacity_per_window(20);
    b.register(idle_query.clone()).unwrap();
    let mut engine = b.build_multi().unwrap();
    assert_eq!((engine.n_classes(), engine.idle_classes()), (1, 1));
    let mut sink = QueryRowsSink::default();
    let (head, tail) = trace.split_at(trace.len() / 2);
    let feed = |engine: &mut MultiQueryEngine, part: &[Arrival], sink: &mut QueryRowsSink| {
        for a in part {
            engine.ingest(a.clone(), sink);
        }
    };
    // L and R are streams 0 and 1; X becomes 2 when its query registers.
    let head: Vec<Arrival> = head.iter().filter(|a| a.stream.index() < 2).cloned().collect();
    feed(&mut engine, &head, &mut sink);
    assert_eq!(engine.metrics().epoch_rollovers, 0, "an idle class never rolls over");
    engine.add_query(fillable).unwrap();
    assert_eq!((engine.n_classes(), engine.idle_classes()), (2, 1));
    feed(&mut engine, tail, &mut sink);
    let m = engine.metrics().clone();
    assert!(m.epoch_rollovers > 0 && m.shed_window > 0, "the added class estimates: {m:?}");
    assert_eq!(engine.idle_classes(), 1, "the idle class stays idle");
    // The idle query is exact: its rows are a full-memory solo run's.
    let mut solo = EngineBuilder::new(idle_query).policy(Fifo).capacity_per_window(10_000).build().unwrap();
    let mut solo_sink = VecSink::default();
    for a in trace.iter().filter(|a| a.stream.index() < 2) {
        solo.ingest(a.clone(), &mut solo_sink);
    }
    assert_eq!(value_rows(&sink.rows[0]), value_rows(&solo_sink.rows));
}

/// An owner whose class can fill departs and an idle class inherits the
/// shared store: it owes the store's priorities instead of rescoring, and
/// its rows stay exact.
#[test]
fn a_hand_off_to_an_idle_heir_owes_instead_of_rescoring() {
    let rows = WindowSpec::Tuples(8);
    let owner = chain(&["A", "B", "X"], &[WindowSpec::secs(20), WindowSpec::secs(20), rows]);
    let heir = chain(&["X", "Y"], &[rows, rows]);
    let trace = arrivals(800, 4, 4, false, 23);
    for name in ["MSketch", "MSketch-RS", "Random", "Bjoin"] {
        let mut b = EngineBuilder::new_multi()
            .boxed_policy(parse_policy(name).unwrap())
            .epoch(EpochSpec::Time(VDur::from_secs(10)))
            .capacity_per_window(8);
        b.register(owner.clone()).unwrap();
        b.register(heir.clone()).unwrap();
        let mut engine = b.build_multi().unwrap();
        assert_eq!((engine.n_stores(), engine.idle_classes()), (4, 1), "{name}: X is shared");
        let mut sink = QueryRowsSink::default();
        for (i, a) in trace.iter().enumerate() {
            if i == 400 {
                let before = engine.metrics().priority_rebuilds;
                assert!(engine.remove_query(QueryId(0)));
                assert_eq!(engine.metrics().priority_rebuilds, before, "{name}: no rescoring");
                assert_eq!(engine.idle_classes(), 1, "{name}: the heir idles");
            }
            engine.ingest(a.clone(), &mut sink);
        }
        assert!(engine.metrics().shed_window > 0, "{name}: the owner shed");
        assert_eq!(engine.idle_classes(), 1, "{name}");
        let mut solo = EngineBuilder::new(heir.clone()).policy(Fifo).capacity_per_window(10_000).build().unwrap();
        let mut solo_sink = VecSink::default();
        for a in trace.iter().filter(|a| a.stream.index() >= 2) {
            let local = Arrival::new(StreamId(a.stream.index() - 2), a.values.clone(), a.ts);
            solo.ingest(local, &mut solo_sink);
        }
        assert_eq!(value_rows(&sink.rows[1]), value_rows(&solo_sink.rows), "{name}: heir rows");
    }
}

/// The reverse hand-off: an idle owner departs and a class that can fill
/// inherits the store it left owing. The heir scores it on the spot, so
/// an eager policy never holds a store that owes its priorities.
#[test]
fn an_estimating_heir_scores_what_an_idle_owner_left_owing() {
    let rows = WindowSpec::Tuples(8);
    let owner = chain(&["X", "Y"], &[rows, rows]);
    let heir = chain(&["A", "B", "X"], &[WindowSpec::secs(20), WindowSpec::secs(20), rows]);
    let trace = arrivals(800, 4, 4, false, 27);
    for name in ["FIFO", "Random", "MSketch"] {
        let mut b = EngineBuilder::new_multi()
            .boxed_policy(parse_policy(name).unwrap())
            .epoch(EpochSpec::Time(VDur::from_secs(10)))
            .capacity_per_window(8);
        b.register(owner.clone()).unwrap();
        b.register(heir.clone()).unwrap();
        // Global streams: X, Y (the owner's), then A, B.
        let mut engine = b.build_multi().unwrap();
        assert_eq!(engine.idle_classes(), 1, "{name}");
        let mut sink = QueryRowsSink::default();
        for (i, a) in trace.iter().enumerate() {
            if i == 400 {
                assert!(engine.remove_query(QueryId(0)));
                assert_eq!((engine.idle_classes(), engine.n_stores()), (0, 3), "{name}");
                if name != "MSketch" {
                    assert_eq!(engine.deferred_windows(), 0, "{name}: nothing left owing");
                }
            }
            engine.ingest(a.clone(), &mut sink);
        }
        assert!(engine.metrics().shed_window > 0 && !sink.rows[1].is_empty(), "{name}");
    }
}

/// Queue scores read estimates, so an engine with an input queue is built
/// with no idle class: queue sheds and rows as recorded before idleness
/// existed (at capacity `n + 1`, where that build shed no window tuple
/// either).
#[test]
fn offering_from_the_first_arrival_keeps_queued_runs() {
    const RECORDED: [(&str, u64, u64); 3] =
        [("MSketch", 1_180, 103_976), ("Random", 1_180, 43_724), ("Bjoin", 1_180, 99_419)];
    let query = chain(&["R1", "R2", "R3"], &[WindowSpec::Tuples(25); 3]);
    let mut trace = Trace::new();
    for a in arrivals(3000, 3, 5, false, 24) {
        trace.push(a.stream, a.values);
    }
    for (name, shed_queue, rows) in RECORDED {
        let mut engine = EngineBuilder::new(query.clone())
            .boxed_policy(parse_policy(name).unwrap())
            .capacity_per_window(26)
            .input_queue(60.0, 20)
            .seed(9)
            .build()
            .unwrap();
        let opts = RunOptions {
            arrival_rate: 100.0,
            ..RunOptions::default()
        };
        assert_eq!(engine.idle_classes(), 0, "{name}: built awake");
        let report = run_trace(&mut engine, &trace, &opts);
        assert_eq!(engine.idle_classes(), 0, "{name}: and stays awake");
        let m = &report.metrics;
        assert!(m.shed_queue > 0 && m.shed_window == 0, "{name}: the queue sheds, no window");
        assert_eq!((m.shed_queue, m.total_output), (shed_queue, rows), "{name}");
    }
}

/// Keyed sharded runs over skewed keys and windows that cannot fill on any
/// worker equal the in-process run, and no worker rolls an epoch.
#[test]
fn sharded_hot_keys_over_windows_that_cannot_fill_roll_no_epoch() {
    const N: u64 = 20;
    let query = chain(&["R1", "R2", "R3"], &[WindowSpec::Tuples(N); 3]);
    let trace = arrivals(1500, 3, 8, true, 25);
    let mut engine = EngineBuilder::new(query.clone()).policy(MSketch).capacity_per_window(N as usize).build().unwrap();
    let mut sink = VecSink::default();
    for a in &trace {
        engine.ingest(a.clone(), &mut sink);
    }
    assert_eq!(engine.metrics().epoch_rollovers, 0);
    let mut want = seq_rows(&sink.rows);
    want.sort();
    for shards in [1, 2] {
        let mut sharded = EngineBuilder::new(query.clone())
            .policy(MSketch)
            .capacity_per_window(N as usize * shards)
            .shard_config(ShardConfig {
                shards,
                channel_capacity: 4,
                batch_size: 5,
                collect_rows: true,
                ..ShardConfig::default()
            })
            .build_sharded()
            .unwrap();
        for a in &trace {
            sharded.ingest(a.clone());
        }
        let report = sharded.finish().unwrap();
        assert_eq!(report.combined.shards, shards);
        let mut got = seq_rows(&report.rows.as_ref().unwrap()[0]);
        got.sort();
        assert_eq!(got, want, "S={shards}: rows");
        for m in &report.per_shard {
            assert_eq!((m.epoch_rollovers, m.shed_window), (0, 0), "S={shards}");
        }
    }
}
