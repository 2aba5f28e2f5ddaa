//! Integration: query shapes beyond the paper's 3-way chain — stars,
//! longer chains and cycles — validated against an independent brute-force
//! evaluator. The shedding machinery must be correct for any connected
//! conjunctive equi-join, not just the evaluation query.

use mstream_core::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One equi-predicate as `((stream, attr), (stream, attr))` index pairs.
type PredSpec = ((usize, usize), (usize, usize));

/// A trace over `n` streams of arity 2 with values in `0..domain`.
fn random_trace(seed: u64, n_streams: usize, n: usize, domain: u64) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trace = Trace::new();
    for _ in 0..n {
        trace.push(
            StreamId(rng.gen_range(0..n_streams)),
            vec![Value(rng.gen_range(0..domain)), Value(rng.gen_range(0..domain))],
        );
    }
    trace
}

fn catalog(n: usize) -> Catalog {
    let mut c = Catalog::new();
    for i in 0..n {
        c.add_stream(StreamSchema::new(format!("R{i}"), &["A1", "A2"]));
    }
    c
}

/// Brute-force n-way evaluator over arrival history with a time window.
fn brute_force(
    trace: &Trace,
    preds: &[PredSpec],
    n_streams: usize,
    window_secs: u64,
    rate: f64,
) -> u64 {
    let dt = 1.0 / rate;
    // (stream, arrival time, values)
    let arrivals: Vec<(usize, f64, Vec<u64>)> = trace
        .items
        .iter()
        .enumerate()
        .map(|(i, it)| {
            (
                it.stream.index(),
                i as f64 * dt,
                it.values.iter().map(|v| v.raw()).collect(),
            )
        })
        .collect();
    let mut total = 0u64;
    for (i, (s_new, t_new, _)) in arrivals.iter().enumerate() {
        // Live tuples per stream at the probe instant (strict expiry at
        // ts + p <= now), excluding the arriving tuple itself.
        let live: Vec<Vec<&Vec<u64>>> = (0..n_streams)
            .map(|k| {
                arrivals[..i]
                    .iter()
                    .filter(|(s, t, _)| *s == k && t + window_secs as f64 > *t_new + 1e-9)
                    .map(|(_, _, v)| v)
                    .collect()
            })
            .collect();
        // Enumerate combinations with stream s_new pinned to the arrival,
        // pruning with every predicate whose endpoints are already bound.
        let new_values = &arrivals[i].2;
        let mut stack: Vec<Vec<&Vec<u64>>> = vec![vec![]];
        for (k, live_k) in live.iter().enumerate() {
            let candidates: Vec<&Vec<u64>> = if k == *s_new {
                vec![new_values]
            } else {
                live_k.clone()
            };
            let mut next = Vec::new();
            for partial in &stack {
                for cand in &candidates {
                    let consistent = preds.iter().all(|&((ls, la), (rs, ra))| {
                        let value = |s: usize, a: usize| -> Option<u64> {
                            if s < partial.len() {
                                Some(partial[s][a])
                            } else if s == k {
                                Some(cand[a])
                            } else {
                                None
                            }
                        };
                        match (value(ls, la), value(rs, ra)) {
                            (Some(l), Some(r)) => l == r,
                            _ => true, // endpoint not bound yet
                        }
                    });
                    if consistent {
                        let mut combo = partial.clone();
                        combo.push(cand);
                        next.push(combo);
                    }
                }
            }
            stack = next;
        }
        total += stack.len() as u64;
    }
    total
}

fn check_shape(
    name: &str,
    n_streams: usize,
    preds: &[PredSpec],
    seed: u64,
) {
    let window_secs = 20u64;
    let rate = 10.0;
    let pred_refs: Vec<EquiPredicate> = preds
        .iter()
        .map(|&((ls, la), (rs, ra))| {
            EquiPredicate::new(
                AttrRef::new(StreamId(ls), la),
                AttrRef::new(StreamId(rs), ra),
            )
        })
        .collect();
    let query = JoinQuery::uniform(catalog(n_streams), pred_refs, WindowSpec::secs(window_secs))
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let trace = random_trace(seed, n_streams, 400, 4);
    let expected = brute_force(&trace, preds, n_streams, window_secs, rate);
    // Unshedded engine must match brute force exactly.
    let mut engine = EngineBuilder::new(query.clone())
        .capacity_per_window(10_000)
        .seed(seed)
        .build()
        .unwrap();
    let opts = RunOptions {
        arrival_rate: rate,
        ..Default::default()
    };
    let got = run_trace(&mut engine, &trace, &opts).total_output();
    assert_eq!(got, expected, "{name}: engine vs brute force");
    // And a shedding run stays within the exact bound while still working.
    let mut shed = EngineBuilder::new(query)
        .capacity_per_window(12)
        .seed(seed)
        .build()
        .unwrap();
    let shed_out = run_trace(&mut shed, &trace, &opts).total_output();
    assert!(shed_out <= expected, "{name}: shed bound");
}

#[test]
fn four_way_chain() {
    check_shape(
        "chain4",
        4,
        &[((0, 0), (1, 0)), ((1, 1), (2, 0)), ((2, 1), (3, 0))],
        11,
    );
}

#[test]
fn four_way_star() {
    // R0 is the hub; every other stream joins one of its attributes.
    check_shape(
        "star4",
        4,
        &[((0, 0), (1, 0)), ((0, 1), (2, 0)), ((0, 0), (3, 1))],
        12,
    );
}

#[test]
fn three_way_cycle() {
    check_shape(
        "cycle3",
        3,
        &[((0, 0), (1, 0)), ((1, 1), (2, 0)), ((2, 1), (0, 1))],
        13,
    );
}

#[test]
fn five_way_mixed() {
    // A chain with a star branch: R0-R1-R2, R1-R3, R3-R4.
    check_shape(
        "mixed5",
        5,
        &[
            ((0, 0), (1, 0)),
            ((1, 1), (2, 0)),
            ((1, 0), (3, 1)),
            ((3, 0), (4, 0)),
        ],
        14,
    );
}

#[test]
fn two_way_binary() {
    check_shape("binary", 2, &[((0, 0), (1, 0)), ((0, 1), (1, 1))], 15);
}

/// All policies run on a 4-way query without panicking and respect
/// capacity (the sketch layer must handle streams with 1, 2 and 3 incident
/// predicates).
#[test]
fn all_policies_on_four_way_star() {
    let preds = vec![
        EquiPredicate::new(AttrRef::new(StreamId(0), 0), AttrRef::new(StreamId(1), 0)),
        EquiPredicate::new(AttrRef::new(StreamId(0), 1), AttrRef::new(StreamId(2), 0)),
        EquiPredicate::new(AttrRef::new(StreamId(0), 0), AttrRef::new(StreamId(3), 1)),
    ];
    let query = JoinQuery::uniform(catalog(4), preds, WindowSpec::secs(30)).unwrap();
    let trace = random_trace(16, 4, 1200, 3);
    for name in ALL_POLICY_NAMES {
        let mut engine = EngineBuilder::new(query.clone())
            .boxed_policy(parse_policy(name).unwrap())
            .capacity_per_window(16)
            .seed(17)
            .build()
            .unwrap();
        let report = run_trace(&mut engine, &trace, &RunOptions::default());
        assert!(report.metrics.processed == trace.len() as u64, "{name}");
        for k in 0..4 {
            assert!(engine.window_len(StreamId(k)).unwrap() <= 16, "{name}");
        }
    }
}
