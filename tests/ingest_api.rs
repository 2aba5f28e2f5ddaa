//! The unified ingest API.
//!
//! One regression contract: `ingest`, the one entry point, through any
//! sink, must produce identical results and identical metrics on the same
//! trace.

use mstream_core::mstream_join::Run;
use mstream_core::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn keyed3() -> JoinQuery {
    let mut c = Catalog::new();
    c.add_stream(StreamSchema::new("R1", &["A1", "A2"]));
    c.add_stream(StreamSchema::new("R2", &["A1", "A2"]));
    c.add_stream(StreamSchema::new("R3", &["A1", "A2"]));
    JoinQuery::from_names(
        c,
        &[("R1.A1", "R2.A1"), ("R2.A2", "R3.A1")],
        WindowSpec::secs(60),
    )
    .unwrap()
}

/// A 4-cycle: three probe steps, the closing edge checked as a residual.
fn cycle4() -> JoinQuery {
    let mut c = Catalog::new();
    for name in ["R1", "R2", "R3", "R4"] {
        c.add_stream(StreamSchema::new(name, &["A1", "A2"]));
    }
    JoinQuery::from_names(
        c,
        &[
            ("R1.A1", "R2.A1"),
            ("R2.A2", "R3.A1"),
            ("R3.A2", "R4.A1"),
            ("R4.A2", "R1.A2"),
        ],
        WindowSpec::secs(60),
    )
    .unwrap()
}

fn engine_for(query: JoinQuery, policy: &str, capacity: usize, seed: u64) -> ShedJoinEngine {
    EngineBuilder::new(query)
        .boxed_policy(parse_policy(policy).unwrap())
        .capacity_per_window(capacity)
        .seed(seed)
        .build()
        .unwrap()
}

fn engine(capacity: usize, seed: u64) -> ShedJoinEngine {
    engine_for(keyed3(), "MSketch", capacity, seed)
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

/// `n` arrivals over `streams` streams, values in 0..5 — uniform, or
/// `skewed` towards 0 (the product of two uniform draws).
fn trace_over(streams: usize, n: usize, skewed: bool) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(11);
    let value = |rng: &mut StdRng| {
        let v = rng.gen_range(0..5u64);
        Value(if skewed { v * rng.gen_range(0..5u64) / 4 } else { v })
    };
    (0..n)
        .map(|i| {
            Arrival::new(
                StreamId(rng.gen_range(0..streams)),
                vec![value(&mut rng), value(&mut rng)],
                VTime::from_secs(i as u64 / 5),
            )
        })
        .collect()
}

fn trace(n: usize) -> Vec<Arrival> {
    trace_over(3, n, false)
}

/// A sink that overrides `emit_run`: runs are read in turn by their length,
/// row by row, and as the product of their two slot lists. The engine must
/// reach `emit` only through `emit_run`, or a match read by length would
/// be handed over twice.
#[derive(Default)]
struct RunSink {
    runs: u64,
    by_len: u64,
    by_row: u64,
    by_product: u64,
    /// Runs spanning several outer candidates.
    blocks: u64,
    reading_rows: bool,
}

impl RunSink {
    fn matches(&self) -> u64 {
        self.by_len + self.by_row + self.by_product
    }
}

impl EmitSink for RunSink {
    fn emit(&mut self, _query: QueryId, _bindings: &Bindings<'_>) {
        assert!(self.reading_rows, "a row arrived outside its run");
        self.by_row += 1;
    }

    fn emit_run(&mut self, query: QueryId, run: &mut Run<'_>) {
        self.runs += 1;
        // A run without an outer stretch has its one outer candidate in
        // the prefix.
        let outer = run.outer_slots().count().max(1);
        self.blocks += u64::from(outer > 1);
        match self.runs % 3 {
            0 => self.by_len += run.len() as u64,
            1 => {
                self.reading_rows = true;
                run.for_each_row(|b| self.emit(query, b));
                self.reading_rows = false;
            }
            _ => self.by_product += (outer * run.slots().count()) as u64,
        }
    }
}

/// Which sink is plugged in never changes what the engine stores, credits
/// or sheds: for every shipped policy (MSketch-RS is the one that credits
/// produced counts) over a uniform chain, the paper chain on skewed values
/// and a 4-cycle with a residual edge, every sink sees `produced` results
/// on every arrival, the outcomes agree arrival for arrival and the
/// metrics agree at the end.
#[test]
fn sinks_agree_with_outcome_counts() {
    let cases = [
        ("keyed3", keyed3(), trace_over(3, 500, false)),
        ("skewed chain", keyed3(), trace_over(3, 500, true)),
        ("4-cycle", cycle4(), trace_over(4, 800, false)),
    ];
    for policy in ALL_POLICY_NAMES {
        for (label, query, arrivals) in &cases {
            let mut engines: [ShedJoinEngine; 4] =
                std::array::from_fn(|_| engine_for(query.clone(), policy, 16, 3));
            let [counted, collected, closured, run_read] = &mut engines;
            let mut runs = RunSink::default();
            for arrival in arrivals {
                let mut count = CountSink::default();
                let mut vec = VecSink::default();
                let mut calls = 0u64;
                let before = runs.matches();
                let a = counted.ingest(arrival.clone(), &mut count);
                let b = collected.ingest(arrival.clone(), &mut vec);
                let c = closured.ingest(
                    arrival.clone(),
                    &mut FnSink(|_b: &Bindings<'_>| calls += 1),
                );
                let d = run_read.ingest(arrival.clone(), &mut runs);
                assert_eq!((a, a, a), (b, c, d), "{policy} on {label}");
                assert_eq!(count.produced, a.produced);
                assert_eq!(vec.rows.len() as u64, a.produced);
                assert_eq!(calls, a.produced);
                assert_eq!(
                    runs.matches() - before,
                    a.produced,
                    "{policy} on {label}: every match exactly one way"
                );
            }
            let want = det(counted.metrics());
            for other in [collected, closured, run_read] {
                assert_eq!(want, det(other.metrics()), "{policy} on {label}");
            }
            assert!(want.total_output > 0, "{policy} on {label} joins nothing");
            assert!(want.shed_window > 0, "{policy} on {label}: capacity 16 must shed");
            assert!(runs.by_len > 0 && runs.by_row > 0 && runs.by_product > 0);
            // The 4-cycle's last step carries the residual: never blocked.
            assert_eq!(runs.blocks > 0, *label != "4-cycle", "{policy} on {label}");
        }
    }
}

/// `IngestOutcome` reports residency truthfully: at huge capacity
/// everything is stored and nothing shed; at capacity 1 per window the
/// shed/stored accounting matches the metrics counter.
#[test]
fn outcome_stored_and_shed_are_consistent() {
    let mut roomy = engine(100_000, 1);
    for arrival in trace(200) {
        let o = roomy.ingest(arrival, &mut CountSink::default());
        assert!(o.stored);
        assert_eq!(o.shed, 0);
    }
    assert_eq!(roomy.metrics().shed_window, 0);

    let mut tight = engine(4, 1);
    let mut shed_total = 0u64;
    for arrival in trace(400) {
        shed_total += tight.ingest(arrival, &mut CountSink::default()).shed;
    }
    assert_eq!(shed_total, tight.metrics().shed_window);
    assert!(shed_total > 0);
}

/// `VecSink` rows come back in stream order with the bound tuples.
#[test]
fn vecsink_rows_are_stream_ordered() {
    let mut e = engine(1_000, 1);
    let mut sink = VecSink::default();
    e.ingest(
        Arrival::new(StreamId(1), vec![Value(3), Value(4)], VTime::ZERO),
        &mut sink,
    );
    e.ingest(
        Arrival::new(StreamId(2), vec![Value(4), Value(0)], VTime::ZERO),
        &mut sink,
    );
    e.ingest(
        Arrival::new(StreamId(0), vec![Value(3), Value(9)], VTime::ZERO),
        &mut sink,
    );
    assert_eq!(sink.rows.len(), 1, "one 3-way result");
    let row = &sink.rows[0];
    assert_eq!(row.len(), 3);
    for (k, t) in row.iter().enumerate() {
        assert_eq!(t.stream, StreamId(k), "row[{k}] holds stream {k}'s tuple");
    }
    assert_eq!(row[0].values, vec![Value(3), Value(9)]);
    assert_eq!(row[1].values, vec![Value(3), Value(4)]);
    assert_eq!(row[2].values, vec![Value(4), Value(0)]);
}
