//! Integration: per-stream (heterogeneous) window lengths — the paper
//! claims its method "can be directly generalized to handle the case when
//! every stream has different p_i-seconds sliding window" (§2); this
//! validates that generalization against brute force.

use mstream_core::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// R0 keeps 10s of history, R1 keeps 40s, R2 keeps 80s.
const WINDOWS: [u64; 3] = [10, 40, 80];

fn hetero_query() -> JoinQuery {
    let mut c = Catalog::new();
    c.add_stream(StreamSchema::new("R0", &["A1", "A2"]));
    c.add_stream(StreamSchema::new("R1", &["A1", "A2"]));
    c.add_stream(StreamSchema::new("R2", &["A1", "A2"]));
    JoinQuery::new(
        c,
        vec![
            EquiPredicate::new(AttrRef::new(StreamId(0), 0), AttrRef::new(StreamId(1), 0)),
            EquiPredicate::new(AttrRef::new(StreamId(1), 1), AttrRef::new(StreamId(2), 0)),
        ],
        WINDOWS.iter().map(|&p| WindowSpec::secs(p)).collect(),
    )
    .unwrap()
}

fn random_trace(seed: u64, n: usize) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trace = Trace::new();
    for _ in 0..n {
        trace.push(
            StreamId(rng.gen_range(0..3)),
            vec![Value(rng.gen_range(0..5)), Value(rng.gen_range(0..5))],
        );
    }
    trace
}

/// Brute-force chain join where each stream expires by its own window.
fn brute_force(trace: &Trace, rate: f64) -> u64 {
    let dt = 1.0 / rate;
    let arrivals: Vec<(usize, f64, u64, u64)> = trace
        .items
        .iter()
        .enumerate()
        .map(|(i, it)| {
            (
                it.stream.index(),
                i as f64 * dt,
                it.values[0].raw(),
                it.values[1].raw(),
            )
        })
        .collect();
    let mut total = 0u64;
    for (i, &(s_new, t_now, a_new, b_new)) in arrivals.iter().enumerate() {
        let live = |k: usize| -> Vec<(u64, u64)> {
            arrivals[..i]
                .iter()
                .filter(|&&(s, t, _, _)| s == k && t + WINDOWS[k] as f64 > t_now + 1e-9)
                .map(|&(_, _, a, b)| (a, b))
                .collect()
        };
        let r0 = if s_new == 0 { vec![(a_new, b_new)] } else { live(0) };
        let r1 = if s_new == 1 { vec![(a_new, b_new)] } else { live(1) };
        let r2 = if s_new == 2 { vec![(a_new, b_new)] } else { live(2) };
        for &(a0, _) in &r0 {
            for &(a1, b1) in &r1 {
                if a0 == a1 {
                    for &(a2, _) in &r2 {
                        if b1 == a2 {
                            total += 1;
                        }
                    }
                }
            }
        }
    }
    total
}

#[test]
fn heterogeneous_windows_match_brute_force() {
    let trace = random_trace(31, 900);
    let expected = brute_force(&trace, 10.0);
    assert!(expected > 0);
    // Sketch policies need an explicit epoch for heterogeneous windows is
    // NOT required — all windows are time-based, the default epoch is the
    // longest window.
    let mut engine = EngineBuilder::new(hetero_query())
        .capacity_per_window(100_000)
        .seed(1)
        .build()
        .unwrap();
    let report = run_trace(&mut engine, &trace, &RunOptions::default());
    assert_eq!(report.total_output(), expected);
}

#[test]
fn heterogeneous_windows_shed_per_stream() {
    let trace = random_trace(32, 3000);
    // A budget below every window's population (about 33, 133 and 266).
    let mut engine = EngineBuilder::new(hetero_query())
        .capacity_per_window(24)
        .seed(2)
        .build()
        .unwrap();
    let report = run_trace(&mut engine, &trace, &RunOptions::default());
    assert!(report.metrics.shed_window > 0);
    for k in 0..3 {
        assert!(engine.window_len(StreamId(k)).unwrap() <= 24, "window {k}");
    }
    assert!(report.total_output() <= brute_force(&trace, 10.0));
}

#[test]
fn shorter_windows_hold_fewer_tuples() {
    let trace = random_trace(33, 3000);
    let mut engine = EngineBuilder::new(hetero_query())
        .capacity_per_window(100_000)
        .seed(3)
        .build()
        .unwrap();
    let _ = run_trace(&mut engine, &trace, &RunOptions::default());
    // Steady state: each window's population tracks its length
    // (rate/stream = 10/3 per second; windows 10/40/80s).
    let l0 = engine.window_len(StreamId(0)).unwrap();
    let l1 = engine.window_len(StreamId(1)).unwrap();
    let l2 = engine.window_len(StreamId(2)).unwrap();
    assert!(l0 < l1 && l1 < l2, "{l0} < {l1} < {l2}");
}
