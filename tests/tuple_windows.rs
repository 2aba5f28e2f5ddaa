//! Integration: tuple-based windows (paper §4.1) across the whole stack —
//! count-based expiration, per-stream tumbling epochs and shedding.

use mstream_core::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn pair_query(count: u64) -> JoinQuery {
    let mut c = Catalog::new();
    c.add_stream(StreamSchema::new("L", &["k", "v"]));
    c.add_stream(StreamSchema::new("R", &["k", "v"]));
    JoinQuery::from_names(c, &[("L.k", "R.k")], WindowSpec::Tuples(count)).unwrap()
}

fn random_trace(seed: u64, n: usize, domain: u64) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trace = Trace::new();
    for _ in 0..n {
        trace.push(
            StreamId(rng.gen_range(0..2)),
            vec![Value(rng.gen_range(0..domain)), Value(rng.gen_range(0..100))],
        );
    }
    trace
}

/// Brute-force reference for a binary tuple-based window join: a tuple is
/// alive while fewer than `count` newer tuples arrived on its own stream.
fn brute_force(trace: &Trace, count: u64) -> u64 {
    let mut windows: Vec<Vec<(u64, u64)>> = vec![Vec::new(); 2]; // (key, arrival#)
    let mut arrivals = [0u64; 2];
    let mut total = 0u64;
    for item in &trace.items {
        let s = item.stream.index();
        arrivals[s] += 1;
        // Expire both windows by their own arrival counters.
        for k in 0..2 {
            windows[k].retain(|&(_, a)| arrivals[k] - a < count);
        }
        let other = 1 - s;
        let key = item.values[0].raw();
        total += windows[other].iter().filter(|&&(k, _)| k == key).count() as u64;
        windows[s].push((key, arrivals[s]));
    }
    total
}

/// The unshedded engine on tuple windows matches an independent
/// brute-force implementation exactly.
#[test]
fn tuple_window_join_matches_brute_force() {
    for count in [5u64, 20, 64] {
        let trace = random_trace(count, 1200, 7);
        let expected = brute_force(&trace, count);
        let mut engine = EngineBuilder::new(pair_query(count))
            .capacity_per_window(10_000)
            .seed(1)
            .build()
            .unwrap();
        let report = run_trace(&mut engine, &trace, &RunOptions::default());
        assert_eq!(report.total_output(), expected, "count={count}");
        assert_eq!(report.metrics.shed_window, 0);
    }
}

/// Under memory pressure tuple windows shed and respect capacity.
#[test]
fn tuple_windows_shed_under_pressure() {
    let count = 100u64;
    let trace = random_trace(9, 3000, 4);
    let exact = brute_force(&trace, count);
    for name in ["MSketch", "Bjoin", "FIFO"] {
        let mut engine = EngineBuilder::new(pair_query(count))
            .boxed_policy(parse_policy(name).unwrap())
            .capacity_per_window(20)
            .seed(2)
            .build()
            .unwrap();
        let report = run_trace(&mut engine, &trace, &RunOptions::default());
        assert!(report.metrics.shed_window > 0, "{name} must shed");
        assert!(report.total_output() <= exact, "{name} bounded by exact");
        assert!(report.total_output() > 0, "{name} still produces");
        for k in 0..2 {
            assert!(engine.window_len(StreamId(k)).unwrap() <= 20);
        }
    }
}

/// FIFO with capacity >= the window count is also exact: drop-oldest is
/// exactly count-based expiration.
#[test]
fn fifo_at_window_capacity_is_exact() {
    let count = 30u64;
    let trace = random_trace(3, 1000, 5);
    let expected = brute_force(&trace, count);
    let mut engine = EngineBuilder::new(pair_query(count))
        .boxed_policy(parse_policy("FIFO").unwrap())
        .capacity_per_window(count as usize)
        .seed(3)
        .build()
        .unwrap();
    let report = run_trace(&mut engine, &trace, &RunOptions::default());
    assert_eq!(report.total_output(), expected);
}

/// A `ROWS n` window with room for `n` is exact under every policy and
/// sheds nothing: the tuple an arrival pushes out of its window expires
/// before the arrival is stored instead of being its victim. One slot
/// less and the policy estimates (MSketch rolls epochs) and sheds.
#[test]
fn capacity_n_is_exact_and_n_minus_one_sheds() {
    let count = 30u64;
    let trace = random_trace(5, 1500, 5);
    let expected = brute_force(&trace, count);
    for name in ["FIFO", "Random", "MSketch"] {
        let run = |capacity: u64| {
            let mut engine = EngineBuilder::new(pair_query(count))
                .boxed_policy(parse_policy(name).unwrap())
                .capacity_per_window(capacity as usize)
                .seed(4)
                .build()
                .unwrap();
            run_trace(&mut engine, &trace, &RunOptions::default()).metrics
        };
        let exact = run(count);
        assert_eq!(exact.total_output, expected, "{name}");
        assert_eq!((exact.shed_window, exact.epoch_rollovers), (0, 0), "{name}");
        assert!(exact.expired > 0, "{name}: departures count as expiries");
        let tight = run(count - 1);
        assert!(tight.shed_window > 0 && tight.total_output < expected, "{name} at n - 1");
        assert_eq!(tight.epoch_rollovers > 0, name == "MSketch", "{name} at n - 1");
    }
}

/// Mixed window kinds are rejected unless an explicit epoch is configured,
/// and accepted with one.
#[test]
fn mixed_windows_need_explicit_epoch() {
    let mut c = Catalog::new();
    c.add_stream(StreamSchema::new("L", &["k"]));
    c.add_stream(StreamSchema::new("R", &["k"]));
    let query = JoinQuery::new(
        c,
        vec![EquiPredicate::new(
            AttrRef::new(StreamId(0), 0),
            AttrRef::new(StreamId(1), 0),
        )],
        vec![WindowSpec::secs(10), WindowSpec::Tuples(50)],
    )
    .unwrap();
    // Sketch-based policy needs an epoch; mixed windows have no default.
    assert!(EngineBuilder::new(query.clone())
        .capacity_per_window(10)
        .build()
        .is_err());
    assert!(EngineBuilder::new(query)
        .capacity_per_window(10)
        .epoch(EpochSpec::Time(VDur::from_secs(10)))
        .build()
        .is_ok());
}
