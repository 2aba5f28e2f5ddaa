//! Event-time front-end semantics, pinned across layers (DESIGN.md §13).
//!
//! With `EngineBuilder::disorder_bound(K)` the engine stops trusting
//! arrival order: arrivals buffer in per-stream reorder buffers and are
//! released in timestamp order as the watermark (minimum cross-stream
//! high-water mark minus `K`) advances. The contracts pinned here:
//!
//! - **Non-monotone timestamps never panic.** An arrival with a regressed
//!   timestamp beyond the bound is dropped, counted in
//!   [`EngineMetrics::late_dropped`], and leaves the output untouched.
//! - **The accept/drop boundary is exact.** A timestamp equal to the
//!   watermark (exactly `K` late) is accepted — on either stream; one
//!   microsecond below it is dropped.
//! - **`K = 0` is bit-identical to the trusting engine** on an in-order
//!   trace: same rows, same emit order, same sequence numbers.
//! - **Covered disorder is invisible.** A shuffle whose lateness stays
//!   within `K` reproduces the in-order run exactly.
//! - **The sharded coordinator re-keys its fan-out gate** off the same
//!   watermark: a hot-key promotion instant crossed under injected
//!   lateness still matches the exact oracle at full memory.

use mstream_core::prelude::*;

fn chain3(window_secs: u64) -> JoinQuery {
    let mut c = Catalog::new();
    c.add_stream(StreamSchema::new("R1", &["A1", "A2"]));
    c.add_stream(StreamSchema::new("R2", &["A1", "A2"]));
    c.add_stream(StreamSchema::new("R3", &["A1", "A2"]));
    JoinQuery::from_names(
        c,
        &[("R1.A1", "R2.A1"), ("R2.A2", "R3.A1")],
        WindowSpec::secs(window_secs),
    )
    .unwrap()
}

fn pair_query(window_secs: u64) -> JoinQuery {
    let mut c = Catalog::new();
    c.add_stream(StreamSchema::new("R1", &["A1"]));
    c.add_stream(StreamSchema::new("R2", &["A1"]));
    JoinQuery::uniform(
        c,
        vec![EquiPredicate::new(
            AttrRef::new(StreamId(0), 0),
            AttrRef::new(StreamId(1), 0),
        )],
        WindowSpec::secs(window_secs),
    )
    .unwrap()
}

/// One canonical result row: per-stream `(seq, values…)` flattened in
/// stream order — equal rows mean the two runs minted identical sequence
/// numbers and joined identical tuples.
fn row(b: &Bindings<'_>, n: usize) -> Vec<u64> {
    let mut r = Vec::new();
    for k in 0..n {
        let t = b.tuple(StreamId(k));
        r.push(t.seq.0);
        r.extend(t.values.iter().map(|v| v.0));
    }
    r
}

/// Drives `trace` through an engine (front end armed iff `bound` is set)
/// plus the end-of-trace flush, returning the rows in emit order and the
/// final metrics.
fn drive(
    query: JoinQuery,
    bound: Option<VDur>,
    capacity: usize,
    trace: &[(usize, Vec<Value>, u64)],
) -> (Vec<Vec<u64>>, EngineMetrics) {
    let n = query.n_streams();
    let mut builder = EngineBuilder::new(query)
        .policy(MSketch)
        .capacity_per_window(capacity)
        .seed(5);
    if let Some(k) = bound {
        builder = builder.disorder_bound(k);
    }
    let mut engine = builder.build().unwrap();
    let mut rows = Vec::new();
    for (stream, vals, at) in trace {
        engine.ingest(
            Arrival::new(StreamId(*stream), vals.clone(), VTime::from_micros(*at)),
            &mut FnSink(|b: &Bindings<'_>| rows.push(row(b, n))),
        );
    }
    engine.flush(&mut FnSink(|b: &Bindings<'_>| rows.push(row(b, n))));
    (rows, engine.metrics().clone())
}

/// An in-order chain3 trace with enough value collisions to join: arrivals
/// every 0.5s round-robin across the three streams, each round-robin
/// triple sharing a join value (two values alternate, so cross-triple
/// matches land inside the window too).
fn chain3_trace(len: u64) -> Vec<(usize, Vec<Value>, u64)> {
    (0..len)
        .map(|i| {
            let v = (i / 3) % 2;
            ((i % 3) as usize, vec![Value(v), Value(v)], i * 500_000)
        })
        .collect()
}

/// Deterministic bounded shuffle: each arrival's sort key is its timestamp
/// plus a jitter in `[0, bound]`, ties broken by original index. Delivered
/// lateness never exceeds `bound` (an earlier-keyed arrival's timestamp is
/// at most `key ≤ ts + bound` ahead), so an engine with disorder bound
/// `bound` must accept every arrival.
fn shuffle_within(trace: &[(usize, Vec<Value>, u64)], bound_micros: u64) -> Vec<(usize, Vec<Value>, u64)> {
    let mut keyed: Vec<(u64, usize, (usize, Vec<Value>, u64))> = trace
        .iter()
        .enumerate()
        .map(|(i, a)| {
            let jitter = (i as u64).wrapping_mul(0x9E37_79B9) % (bound_micros + 1);
            (a.2 + jitter, i, a.clone())
        })
        .collect();
    keyed.sort_by_key(|&(key, idx, _)| (key, idx));
    keyed.into_iter().map(|(_, _, a)| a).collect()
}

/// Satellite 1: a single regressed timestamp beyond the bound is dropped
/// and counted — never a panic — and the run's output is identical to one
/// that never saw the late arrival, even though the straggler carried a
/// joinable value.
#[test]
fn regressed_timestamp_beyond_the_bound_is_dropped_counted_and_inert() {
    let clean = chain3_trace(90);
    // Regress to 1s after a 45s high-water mark: 44s late against a 5s
    // bound, and value-matched so a wrongly admitted tuple would join.
    let mut polluted = clean.clone();
    polluted.push((0, vec![Value(1), Value(1)], 1_000_000));
    let bound = Some(VDur::from_secs(5));
    let (rows_clean, m_clean) = drive(chain3(30), bound, 10_000, &clean);
    let (rows_poll, m_poll) = drive(chain3(30), bound, 10_000, &polluted);
    assert!(m_clean.total_output > 0, "trace must join");
    assert_eq!(m_clean.late_dropped, 0);
    assert_eq!(m_poll.late_dropped, 1, "the straggler is counted");
    assert_eq!(rows_poll, rows_clean, "the straggler must not change the output");
}

/// Satellite 4, accept side: a timestamp exactly equal to the watermark —
/// exactly `K` late against the cross-stream high-water mark — is
/// accepted, on either stream, and still joins its partner.
#[test]
fn arrival_exactly_k_late_sits_on_the_watermark_and_is_accepted() {
    let k_secs = 10;
    for late_stream in [0usize, 1usize] {
        let mut engine = EngineBuilder::new(pair_query(100))
            .policy(Fifo)
            .capacity_per_window(10_000)
            .disorder_bound(VDur::from_secs(k_secs))
            .build()
            .unwrap();
        let mut sink = CountSink::default();
        // Advance both high-water marks to 50s: watermark = 40s.
        engine.ingest(Arrival::new(StreamId(0), vec![Value(7)], VTime::from_secs(50)), &mut sink);
        engine.ingest(Arrival::new(StreamId(1), vec![Value(9)], VTime::from_secs(50)), &mut sink);
        assert_eq!(engine.watermark(), Some(VTime::from_secs(40)));
        // Exactly K late (ts == watermark): accepted and buffered.
        let outcome = engine.ingest(
            Arrival::new(StreamId(late_stream), vec![Value(3)], VTime::from_secs(40)),
            &mut sink,
        );
        assert!(outcome.stored, "stream {late_stream}: ts == watermark is on time");
        assert_eq!(engine.metrics().late_dropped, 0);
        // Its partner (also exactly on the watermark, other stream) joins:
        // both sit 10s apart from nothing — the window is wide open.
        engine.ingest(
            Arrival::new(StreamId(1 - late_stream), vec![Value(3)], VTime::from_secs(40)),
            &mut sink,
        );
        let mut produced = 0;
        engine.flush(&mut FnSink(|_: &Bindings<'_>| produced += 1));
        assert!(produced >= 1, "stream {late_stream}: boundary arrivals must join");
        assert_eq!(engine.metrics().late_dropped, 0);
    }
}

/// Satellite 4, drop side: one microsecond below the watermark is late —
/// dropped and counted, on either stream.
#[test]
fn arrival_one_micro_below_the_watermark_is_dropped() {
    let k_secs = 10;
    for late_stream in [0usize, 1usize] {
        let mut engine = EngineBuilder::new(pair_query(100))
            .policy(Fifo)
            .capacity_per_window(10_000)
            .disorder_bound(VDur::from_secs(k_secs))
            .build()
            .unwrap();
        let mut sink = CountSink::default();
        engine.ingest(Arrival::new(StreamId(0), vec![Value(7)], VTime::from_secs(50)), &mut sink);
        engine.ingest(Arrival::new(StreamId(1), vec![Value(9)], VTime::from_secs(50)), &mut sink);
        let just_late = VTime::from_micros(VTime::from_secs(40).as_micros() - 1);
        let outcome = engine.ingest(
            Arrival::new(StreamId(late_stream), vec![Value(3)], just_late),
            &mut sink,
        );
        assert!(!outcome.stored, "stream {late_stream}: below the watermark is late");
        assert_eq!(outcome.produced, 0);
        assert_eq!(engine.metrics().late_dropped, 1);
    }
}

/// Until every stream has spoken, the watermark stays pinned at the origin
/// — early one-sided traffic is never late-dropped no matter how old.
#[test]
fn watermark_waits_for_silent_streams() {
    let mut engine = EngineBuilder::new(pair_query(100))
        .policy(Fifo)
        .capacity_per_window(10_000)
        .disorder_bound(VDur::from_secs(1))
        .build()
        .unwrap();
    let mut sink = CountSink::default();
    for i in 0..20u64 {
        engine.ingest(
            Arrival::new(StreamId(0), vec![Value(i)], VTime::from_secs(100 + i)),
            &mut sink,
        );
    }
    assert_eq!(engine.watermark(), Some(VTime::ZERO), "stream 1 is silent");
    assert_eq!(engine.metrics().late_dropped, 0);
    assert_eq!(engine.buffered(), 20, "everything waits for stream 1");
}

/// Tentpole contract (a): `K = 0` on an in-order trace is bit-identical to
/// the trusting engine — same rows, same order, same sequence numbers,
/// zero drops.
#[test]
fn k0_in_order_run_is_bit_identical_to_the_trusting_engine() {
    let trace = chain3_trace(120);
    // Tight capacity so shedding decisions are part of the replayed state.
    for capacity in [10_000usize, 12] {
        let (trusting, m_trust) = drive(chain3(30), None, capacity, &trace);
        let (k0, m_k0) = drive(chain3(30), Some(VDur::from_micros(0)), capacity, &trace);
        assert_eq!(k0, trusting, "capacity {capacity}: emit-order identity");
        assert_eq!(m_k0.total_output, m_trust.total_output);
        assert_eq!(m_k0.shed_window, m_trust.shed_window);
        assert_eq!(m_k0.late_dropped, 0);
    }
    let (_, m) = drive(chain3(30), None, 12, &trace);
    assert!(m.shed_window > 0, "tight run must actually shed");
}

/// Tentpole contract (b): a shuffle whose lateness stays within `K`
/// reproduces the in-order output exactly — rows, order, and seqs — with
/// nothing late-dropped.
#[test]
fn covered_disorder_reproduces_the_in_order_run() {
    let trace = chain3_trace(120);
    let bound = VDur::from_secs(2);
    let shuffled = shuffle_within(&trace, bound.as_micros());
    assert_ne!(
        shuffled.iter().map(|a| a.2).collect::<Vec<_>>(),
        trace.iter().map(|a| a.2).collect::<Vec<_>>(),
        "the shuffle must actually disorder the trace"
    );
    for capacity in [10_000usize, 12] {
        let (in_order, m_base) = drive(chain3(30), None, capacity, &trace);
        let (recovered, m_rec) = drive(chain3(30), Some(bound), capacity, &shuffled);
        assert!(m_base.total_output > 0);
        assert_eq!(recovered, in_order, "capacity {capacity}: disorder must be invisible");
        assert_eq!(m_rec.late_dropped, 0, "lateness was covered by the bound");
    }
}

/// Satellite 2: the sharded coordinator's hot-key fan-out gate is keyed
/// off the watermark, so a promotion instant crossed under injected
/// lateness still yields oracle-exact output at full memory.
#[test]
fn sharded_promotion_under_injected_lateness_matches_the_oracle() {
    // A hot key (7) at ~50% share forces a promotion at the 24-arrival
    // decision cadence; background keys keep the other shards busy.
    let trace: Vec<(usize, Vec<Value>, u64)> = (0..240u64)
        .map(|i| {
            let key = if i % 4 < 2 { 7 } else { 10 + (i % 5) };
            ((i % 2) as usize, vec![Value(key)], i * 250_000)
        })
        .collect();
    let bound = VDur::from_secs(1);
    let shuffled = shuffle_within(&trace, bound.as_micros());

    let query = pair_query(60);
    let n = query.n_streams();
    let mut oracle = ExactJoin::new(query.clone());
    let mut oracle_rows: Vec<Vec<u64>> = Vec::new();
    for (stream, vals, at) in &trace {
        oracle.process_each(StreamId(*stream), vals.clone(), VTime::from_micros(*at), |b| {
            oracle_rows.push(row(b, n))
        });
    }
    oracle_rows.sort();
    assert!(!oracle_rows.is_empty(), "the skewed trace must join");

    let engine = EngineBuilder::new(query)
        .policy(Fifo)
        .capacity_per_window(trace.len() * 4)
        .seed(5)
        .disorder_bound(bound)
        .shard_config(ShardConfig {
            shards: 4,
            channel_capacity: 8,
            batch_size: 4,
            backpressure: Backpressure::Block,
            collect_rows: true,
            route_only: false,
            hot_keys: HotKeyConfig {
                enabled: true,
                capacity: 8,
                tracker_capacity: 64,
                epoch_arrivals: 24,
                promote_permille: 200,
                demote_permille: 100,
            },
            broadcast: false,
        })
        .build_sharded()
        .unwrap();
    let mut engine = engine;
    for (stream, vals, at) in &shuffled {
        engine.ingest(Arrival::new(StreamId(*stream), vals.clone(), VTime::from_micros(*at)));
    }
    let report = engine.finish().unwrap();
    assert!(report.hot_promoted > 0, "the hot key must actually promote");
    assert_eq!(report.combined.metrics.late_dropped, 0);
    let mut rows: Vec<Vec<u64>> = report
        .rows
        .expect("collect_rows was set")
        .iter()
        .map(|result| {
            let mut r = Vec::new();
            for t in result {
                r.push(t.seq.0);
                r.extend(t.values.iter().map(|v| v.0));
            }
            r
        })
        .collect();
    rows.sort();
    assert_eq!(rows, oracle_rows, "promotion + lateness must stay oracle-exact");
}

/// The plane takes the bound too: a two-query set (a keyed chain and a
/// pair over two of its streams, sharing their stores) under a covered
/// shuffle replays its in-order run per query — in process, and through
/// the sharded coordinator at S ∈ {1, 2} — while a beyond-bound straggler
/// is dropped, counted, and changes nothing.
#[test]
fn two_query_plane_replays_its_in_order_run_under_covered_disorder() {
    let names = |c: &mut Catalog, ns: &[&str]| {
        for n in ns {
            c.add_stream(StreamSchema::new(*n, &["A1", "A2"]));
        }
    };
    let (mut chain_cat, mut pair_cat) = (Catalog::new(), Catalog::new());
    names(&mut chain_cat, &["R1", "R2", "R3"]);
    names(&mut pair_cat, &["R1", "R2"]);
    let queries = [
        JoinQuery::from_names(
            chain_cat,
            &[("R1.A1", "R2.A1"), ("R2.A1", "R3.A1")],
            WindowSpec::secs(30),
        )
        .unwrap(),
        JoinQuery::from_names(pair_cat, &[("R1.A1", "R2.A1")], WindowSpec::secs(30)).unwrap(),
    ];
    let builder = |bound: Option<VDur>, capacity: usize| {
        let mut b = EngineBuilder::new_multi()
            .policy(MSketch)
            .capacity_per_window(capacity)
            .seed(5);
        if let Some(k) = bound {
            b = b.disorder_bound(k);
        }
        for q in &queries {
            b.register(q.clone()).unwrap();
        }
        b
    };
    let trace: Vec<(usize, Vec<Value>, u64)> = (0..150u64)
        .map(|i| {
            let v = (i / 3) % 5;
            ((i % 3) as usize, vec![Value(v), Value(v)], i * 500_000)
        })
        .collect();
    let bound = VDur::from_secs(2);
    let mut shuffled = shuffle_within(&trace, bound.as_micros());
    shuffled.push((0, vec![Value(1), Value(1)], 1_000_000));
    let drive = |bound: Option<VDur>, capacity: usize, t: &[(usize, Vec<Value>, u64)]| {
        let mut engine = builder(bound, capacity).build_multi().unwrap();
        let mut rows: Vec<Vec<Vec<u64>>> = vec![Vec::new(); 2];
        let mut sink = QueryFnSink(|q: QueryId, b: &Bindings<'_>| {
            rows[q.index()].push(row(b, b.n_streams()))
        });
        for (stream, vals, at) in t {
            let a = Arrival::new(StreamId(*stream), vals.clone(), VTime::from_micros(*at));
            engine.ingest(a, &mut sink);
        }
        engine.flush(&mut sink);
        let late = engine.metrics().late_dropped;
        (rows, late)
    };
    for capacity in [10_000usize, 12] {
        let (in_order, _) = drive(None, capacity, &trace);
        assert!(in_order.iter().all(|r| !r.is_empty()), "both queries join");
        let (recovered, late) = drive(Some(bound), capacity, &shuffled);
        assert_eq!(recovered, in_order, "capacity {capacity}: disorder must be invisible");
        assert_eq!(late, 1, "capacity {capacity}: the straggler is counted");
    }
    let (mut in_order, _) = drive(None, 10_000, &trace);
    in_order.iter_mut().for_each(|rows| rows.sort());
    for shards in [1, 2] {
        let mut engine = builder(Some(bound), 10_000)
            .shard_config(ShardConfig {
                shards,
                collect_rows: true,
                ..ShardConfig::default()
            })
            .build_multi_sharded()
            .unwrap();
        assert_eq!(engine.shards(), shards);
        for (stream, vals, at) in &shuffled {
            engine.ingest(Arrival::new(StreamId(*stream), vals.clone(), VTime::from_micros(*at)));
        }
        let report = engine.finish().unwrap();
        assert_eq!(report.metrics.late_dropped, 1, "S={shards}: the straggler is counted");
        let rows: Vec<Vec<Vec<u64>>> = report
            .rows
            .expect("collect_rows was set")
            .iter()
            .map(|query_rows| {
                let flat = |result: &Vec<Tuple>| {
                    let mut r = Vec::new();
                    for t in result {
                        r.push(t.seq.0);
                        r.extend(t.values.iter().map(|v| v.0));
                    }
                    r
                };
                let mut rows: Vec<Vec<u64>> = query_rows.iter().map(flat).collect();
                rows.sort();
                rows
            })
            .collect();
        assert_eq!(rows, in_order, "S={shards}: disorder must be invisible per query");
    }
}
