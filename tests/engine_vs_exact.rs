//! Cross-crate integration: the shedding engine degrades gracefully to the
//! exact join, and never invents results.

use mstream_core::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

fn random_trace(seed: u64, n: usize, domain: u64) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trace = Trace::new();
    for _ in 0..n {
        trace.push(
            StreamId(rng.gen_range(0..3)),
            vec![Value(rng.gen_range(0..domain)), Value(rng.gen_range(0..domain))],
        );
    }
    trace
}

/// With memory >= the arrivals, every policy is exact — whatever its
/// priority measure, nothing is ever evicted.
#[test]
fn every_policy_is_exact_with_enough_memory() {
    let trace = random_trace(1, 1200, 8);
    let opts = RunOptions::default();
    let exact = run_exact_trace(&chain3(60), &trace, &opts);
    assert!(exact.total_output() > 0, "trace should join");
    for name in ALL_POLICY_NAMES {
        let mut engine = EngineBuilder::new(chain3(60))
            .boxed_policy(parse_policy(name).unwrap())
            .capacity_per_window(trace.len())
            .seed(5)
            .build()
            .unwrap();
        let report = run_trace(&mut engine, &trace, &opts);
        assert_eq!(
            report.total_output(),
            exact.total_output(),
            "{name} must match the exact join without memory pressure"
        );
        assert_eq!(report.metrics.shed_window, 0, "{name}");
    }
}

/// Shedding can only lose results: output never exceeds the exact count at
/// any capacity.
#[test]
fn shed_output_never_exceeds_exact() {
    let trace = random_trace(2, 1500, 6);
    let opts = RunOptions::default();
    let exact = run_exact_trace(&chain3(40), &trace, &opts);
    for name in ALL_POLICY_NAMES {
        for capacity in [4usize, 32, 256] {
            let mut engine = EngineBuilder::new(chain3(40))
                .boxed_policy(parse_policy(name).unwrap())
                .capacity_per_window(capacity)
                .seed(6)
                .build()
                .unwrap();
            let report = run_trace(&mut engine, &trace, &opts);
            assert!(
                report.total_output() <= exact.total_output(),
                "{name}@{capacity}: shed output must be a subset count"
            );
        }
    }
}

/// The accounting identity holds on every run: every processed tuple is
/// eventually expired, shed, or still resident.
#[test]
fn tuple_accounting_identity() {
    let trace = random_trace(3, 2000, 10);
    let opts = RunOptions::default();
    for name in ["MSketch", "Bjoin", "Random"] {
        let query = chain3(30);
        let mut engine = EngineBuilder::new(query.clone())
            .boxed_policy(parse_policy(name).unwrap())
            .capacity_per_window(48)
            .seed(7)
            .build()
            .unwrap();
        let report = run_trace(&mut engine, &trace, &opts);
        let resident: usize = (0..3).map(|k| engine.window_len(StreamId(k)).unwrap()).sum();
        assert_eq!(
            report.metrics.processed,
            report.metrics.expired + report.metrics.shed_window + resident as u64,
            "{name}: processed = expired + shed + resident"
        );
    }
}

/// Identical seeds give identical runs; different engine seeds change a
/// randomized policy's choices.
#[test]
fn determinism_per_seed() {
    let trace = random_trace(4, 800, 5);
    let opts = RunOptions::default();
    let run = |seed: u64| {
        let mut engine = EngineBuilder::new(chain3(50))
            .boxed_policy(parse_policy("Random").unwrap())
            .capacity_per_window(24)
            .seed(seed)
            .build()
            .unwrap();
        run_trace(&mut engine, &trace, &opts).total_output()
    };
    assert_eq!(run(9), run(9));
    assert_ne!(run(9), run(10));
}

/// The engine handles the full synthetic generator end-to-end, and the
/// sketch-policy engine exposes a join-size estimate.
#[test]
fn end_to_end_on_region_workload() {
    let trace = RegionsGenerator::new(RegionsConfig {
        tuples_per_relation: 900,
        domain: 40,
        volume: 120,
        anchor_grid: Some(8),
        seed: 12,
        ..Default::default()
    })
    .unwrap()
    .generate();
    let query = chain3(100);
    let mut engine = EngineBuilder::new(query.clone())
        .capacity_per_window(60)
        .seed(13)
        .build()
        .unwrap();
    let report = run_trace(&mut engine, &trace, &RunOptions::default());
    assert!(report.total_output() > 0);
    assert!(report.metrics.shed_window > 0);
    let exact = run_exact_trace(&query, &trace, &RunOptions::default());
    assert!(report.total_output() <= exact.total_output());
}
