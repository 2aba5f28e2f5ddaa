//! A probe allocates nothing, whatever the plan's shape: the general
//! kernel's frame stack and the hoisted residual values live on the stack
//! like the binding slots (`mstream_join::probe`, spilling above eight
//! entries only). A 4-stream chain (three-step plans) and a triangle (a
//! residual on the last step) run the second half of a trace — by then the
//! windows, indexes and memo tables have reached their working size —
//! without one allocator call.
//!
//! This is the only test in its binary (see `support/counting_alloc.rs`).

use mstream_core::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{alloc_calls, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn query(streams: usize, predicates: &[(&str, &str)]) -> JoinQuery {
    let mut c = Catalog::new();
    for &name in &["R1", "R2", "R3", "R4"][..streams] {
        c.add_stream(StreamSchema::new(name, &["A1", "A2"]));
    }
    JoinQuery::from_names(c, predicates, WindowSpec::secs(4)).unwrap()
}

/// Allocator calls while the second half of a trace over `query`'s streams
/// is ingested, and the results that half produced. The trace repeats one
/// random period many windows long, so the second half brings the stores
/// no state the first has not: what is left to allocate is per arrival.
fn second_half(query: JoinQuery) -> (u64, u64) {
    let n = query.n_streams();
    let mut rng = StdRng::seed_from_u64(11);
    let period: Vec<(StreamId, [Value; 2])> = (0..1024)
        .map(|_| {
            let values = [Value(rng.gen_range(0..6)), Value(rng.gen_range(0..6))];
            (StreamId(rng.gen_range(0..n)), values)
        })
        .collect();
    let trace: Vec<Arrival> = (0..16_384usize)
        .map(|i| {
            let (stream, values) = period[i % period.len()];
            Arrival::new(stream, values.to_vec(), VTime::from_micros(i as u64 * 1000))
        })
        .collect();
    let mut engine = EngineBuilder::new(query)
        .policy(Fifo)
        .capacity_per_window(64)
        .seed(1)
        .build()
        .unwrap();
    let mut sink = CountSink::default();
    let (head, tail) = trace.split_at(trace.len() / 2);
    for a in head {
        engine.ingest(a.clone(), &mut sink);
    }
    let (allocs, produced) = (alloc_calls(), sink.produced);
    for a in tail {
        engine.ingest(a.clone(), &mut sink);
    }
    (
        alloc_calls() - allocs,
        sink.produced - produced,
    )
}

#[test]
fn probes_of_wide_and_cyclic_plans_allocate_nothing() {
    let chain4 = query(
        4,
        &[("R1.A1", "R2.A1"), ("R2.A2", "R3.A1"), ("R3.A2", "R4.A1")],
    );
    let triangle = query(
        3,
        &[("R1.A1", "R2.A1"), ("R2.A2", "R3.A1"), ("R3.A2", "R1.A2")],
    );
    for (label, query) in [("4-stream chain", chain4), ("triangle", triangle)] {
        let (allocs, produced) = second_half(query);
        assert!(produced > 100_000, "{label}: the probes must fan out ({produced} rows)");
        assert_eq!(allocs, 0, "{label}: allocator calls in the trace's second half");
    }
}
