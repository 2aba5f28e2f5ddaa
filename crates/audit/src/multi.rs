//! The multi-query differential runner: every registered query's output
//! checked against its *own* solo exact oracle, in-process and sharded.
//!
//! Contracts (per query, per policy):
//!
//! 1. **At 100% memory** the shared data plane's per-query output multiset
//!    must equal the query's solo [`ExactJoin`] output on the projection
//!    of per-stream `(timestamp, values…)` rows. Sequence numbers cannot
//!    take part — the shared engine mints one global sequence per arrival
//!    while a solo oracle numbers only its own streams' arrivals — so the
//!    differential compares the timestamp/value projection as a multiset
//!    (duplicates keep their multiplicities).
//! 2. **Under reduced memory** each query's shed output must be a
//!    sub-multiset of its oracle's.
//! 3. The engine's structural invariants hold after every arrival, and the
//!    sharded coordinator honours its contract: keyed query sets run at
//!    the requested width, nothing is dropped under blocking backpressure.
//!
//! A case may carry registration churn ([`MultiCase::remove`],
//! [`MultiCase::add`]); both drivers apply it at the drawn positions and
//! every query's oracle then covers only the arrivals it was registered
//! over ([`MultiCase::registered`]).

use crate::gen::{Arrival as GenArrival, MultiCase};
use crate::run::{
    first_diff, not_in_multiset, panic_message, run_ab, CaseStats, Failure, FailureKind, Variant,
};
use mstream_core::ingest::QueryFnSink;
use mstream_core::shard::ShardConfig;
use mstream_core::{Arrival, EngineBuilder, EngineMetrics};
use mstream_join::{Bindings, ExactJoin};
use mstream_shed_policies::ALL_POLICY_NAMES;
use mstream_sketch::BankConfig;
use mstream_types::{JoinQuery, QueryId, StreamId, VTime, Value};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Runs the full multi-query differential for `case`.
pub fn run_multi_case(case: &MultiCase) -> Result<CaseStats, Failure> {
    let oracle: Vec<Vec<Vec<u64>>> = case
        .registered()
        .into_iter()
        .map(|(q, over)| oracle_rows(q, &case.arrivals[over]))
        .collect();
    let mut stats = CaseStats::default();

    for &name in ALL_POLICY_NAMES {
        let full = drive_multi(case, name, true, &mut stats)?;
        check_exact(name, &full, &oracle)?;
        let shed = drive_multi(case, name, false, &mut stats)?;
        check_sub(name, &shed, &oracle)?;
    }

    for name in ["MSketch", "FIFO"] {
        for shards in [1usize, 2] {
            let label = format!("{name}@multi-x{shards}");
            let full = drive_multi_sharded(case, name, shards, true)?;
            check_exact(&label, &full, &oracle)?;
            let shed = drive_multi_sharded(case, name, shards, false)?;
            check_sub(&label, &shed, &oracle)?;
        }
    }
    Ok(stats)
}

/// Per-query exact-match check at 100% memory.
fn check_exact(
    label: &str,
    got: &[Vec<Vec<u64>>],
    oracle: &[Vec<Vec<u64>>],
) -> Result<(), Failure> {
    for (q, (g, w)) in got.iter().zip(oracle).enumerate() {
        if g != w {
            return Err(Failure {
                policy: format!("{label}[q{q}]"),
                kind: FailureKind::ExactMismatch,
                detail: first_diff(g, w),
            });
        }
    }
    Ok(())
}

/// Per-query sub-multiset check under reduced memory.
fn check_sub(
    label: &str,
    got: &[Vec<Vec<u64>>],
    oracle: &[Vec<Vec<u64>>],
) -> Result<(), Failure> {
    for (q, (g, w)) in got.iter().zip(oracle).enumerate() {
        if let Some(extra) = not_in_multiset(g, w) {
            return Err(Failure {
                policy: format!("{label}[q{q}]"),
                kind: FailureKind::NotSubMultiset,
                detail: format!("shed run emitted a row the solo oracle never did: {extra:?}"),
            });
        }
    }
    Ok(())
}

/// One canonical result row: per-stream `(timestamp µs, values…)` in the
/// query's local stream order.
fn projected(b: &Bindings<'_>, n: usize) -> Vec<u64> {
    let mut r = Vec::with_capacity(n * 3);
    for k in 0..n {
        let t = b.tuple(StreamId(k));
        r.push(t.ts.as_micros());
        r.extend(t.values.iter().map(|v| v.0));
    }
    r
}

/// The query's local id for pool stream `pool`, if it uses that stream.
fn local_stream(query: &JoinQuery, pool: usize) -> Option<StreamId> {
    let name = format!("R{}", pool + 1);
    query
        .catalog()
        .iter()
        .find(|(_, s)| s.name == name)
        .map(|(id, _)| id)
}

/// The query's solo exact output, fed only the arrivals on its streams.
fn oracle_rows(query: &JoinQuery, arrivals: &[GenArrival]) -> Vec<Vec<u64>> {
    let n = query.n_streams();
    let mut join = ExactJoin::new(query.clone());
    let mut rows = Vec::new();
    for a in arrivals {
        let Some(local) = local_stream(query, a.stream) else {
            continue;
        };
        let values: Vec<Value> = a.values.iter().map(|&v| Value(v)).collect();
        join.process_each(local, values, VTime::from_micros(a.at_micros), |b| {
            rows.push(projected(b, n));
        });
    }
    rows.sort();
    rows
}

/// The shared [`EngineBuilder`] setup for one multi-query run: explicit
/// epoch and sketch bank, case-seeded determinism, every query registered
/// in case order, `variant`'s policy wrapping and cache pin applied.
fn builder(case: &MultiCase, policy: &str, capacity: usize, variant: Variant) -> EngineBuilder {
    let mut b = EngineBuilder::new_multi()
        .boxed_policy(variant.policy(policy))
        .capacity_per_window(capacity)
        .epoch(case.epoch)
        .bank(BankConfig {
            s1: 32,
            s2: 1,
            seed: case.seed,
        })
        .seed(case.seed);
    if let Some(on) = variant.cache {
        b = b.score_cache(on);
    }
    for query in &case.queries {
        b.register(query.clone())
            .expect("generated pool schemas always agree");
    }
    b
}

/// Resolves each pool index appearing in the trace to the engine catalog's
/// global stream id (by name).
fn pool_map(
    arrivals: &[GenArrival],
    resolve: impl Fn(&str) -> Option<StreamId>,
) -> HashMap<usize, StreamId> {
    let mut map = HashMap::new();
    for a in arrivals {
        map.entry(a.stream).or_insert_with(|| {
            resolve(&format!("R{}", a.stream + 1))
                .expect("arrivals only target registered streams")
        });
    }
    map
}

/// Drives the trace through the in-process shared data plane. When
/// [`crate::run::ab_pair`] names a pair for this case and policy the trace runs twice
/// — score cache on and off on odd seeds, the policy plain and eager on
/// even ones — and every query's output plus the normalized engine
/// metrics must be bit-identical (the shared plane's per-class sketch
/// banks, its `remove_query` retirement baseline and hand-off, and its
/// owed rescoring passes must not leak into what is emitted).
fn drive_multi(
    case: &MultiCase,
    policy: &str,
    full_memory: bool,
    stats: &mut CaseStats,
) -> Result<Vec<Vec<Vec<u64>>>, Failure> {
    let run = |variant| {
        let (rows, metrics, deferred) = drive_multi_with(case, policy, full_memory, variant)?;
        stats.deferred |= deferred;
        Ok((rows, metrics))
    };
    run_ab(case.cache_ab, policy, policy, full_memory, run, |a, b| {
        let q = a.iter().zip(b).position(|(a, b)| a != b).unwrap_or(0);
        format!("q{q}: {}", first_diff(&a[q], &b[q]))
    })
}

/// Per-query canonical rows, as produced by one multi-engine drive.
type PerQueryRows = Vec<Vec<Vec<u64>>>;

/// The single-run body behind [`drive_multi`]: collects per-query
/// canonical rows, re-checks structural invariants after every arrival,
/// and returns the final engine metrics and whether any shared store owed
/// its priorities after some arrival.
fn drive_multi_with(
    case: &MultiCase,
    policy: &str,
    full_memory: bool,
    variant: Variant,
) -> Result<(PerQueryRows, EngineMetrics, bool), Failure> {
    let fail = |detail: String, kind| Failure {
        policy: policy.into(),
        kind,
        detail,
    };
    let capacity = if full_memory {
        case.arrivals.len() + 1
    } else {
        case.capacity
    };
    let mut engine = builder(case, policy, capacity, variant)
        .build_multi()
        .map_err(|e| fail(format!("engine construction failed: {e:?}"), FailureKind::InvariantPanic))?;
    let globals = pool_map(&case.arrivals, |name| engine.stream_id(name));

    let mut rows: Vec<Vec<Vec<u64>>> = vec![Vec::new(); case.registered().len()];
    let mut deferred = false;
    for (i, a) in case.arrivals.iter().enumerate() {
        let g = globals[&a.stream];
        let values: Vec<Value> = a.values.iter().map(|&v| Value(v)).collect();
        let now = VTime::from_micros(a.at_micros);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if let Some((q, _)) = case.remove.filter(|&(_, at)| at == i) {
                assert!(engine.remove_query(QueryId(q as u32)), "q{q} was registered");
                engine.check_invariants();
            }
            if let Some((query, _)) = case.add.as_ref().filter(|(_, at)| *at == i) {
                let id = engine.add_query(query.clone()).expect("pool schemas agree");
                assert_eq!(id.index(), case.queries.len(), "ids are dense");
            }
            engine.ingest(
                Arrival::new(g, values, now),
                &mut QueryFnSink(|qid, b: &Bindings<'_>| {
                    rows[qid.index()].push(projected(b, b.n_streams()));
                }),
            );
            engine.check_invariants();
            deferred |= engine.deferred_windows() > 0;
        }));
        if let Err(payload) = outcome {
            return Err(fail(
                format!("arrival #{i}: {}", panic_message(&payload)),
                FailureKind::InvariantPanic,
            ));
        }
    }
    for r in &mut rows {
        r.sort();
    }
    let metrics = engine.metrics().clone();
    Ok((rows, metrics, deferred))
}

/// Drives the trace through the sharded coordinator at `shards` workers,
/// checks the keyed-width and no-drop contracts, and returns per-query
/// canonical rows from the merged report.
fn drive_multi_sharded(
    case: &MultiCase,
    policy: &str,
    shards: usize,
    full_memory: bool,
) -> Result<Vec<Vec<Vec<u64>>>, Failure> {
    let label = format!("{policy}@multi-x{shards}");
    let fail = |detail: String, kind| Failure {
        policy: label.clone(),
        kind,
        detail,
    };
    let capacity = if full_memory {
        // The shard layer splits the budget S ways and skewed routing may
        // land the whole trace on one worker.
        (case.arrivals.len() + 1) * shards
    } else {
        case.capacity
    };
    let mut engine = builder(case, policy, capacity, Variant::default())
        .shard_config(ShardConfig {
            shards,
            channel_capacity: 4,
            collect_rows: true,
            ..ShardConfig::default()
        })
        .build_multi_sharded()
        .map_err(|e| fail(format!("sharded construction failed: {e:?}"), FailureKind::InvariantPanic))?;
    if case.keyed && (engine.shards() != shards || engine.degraded().is_some()) {
        return Err(fail(
            format!(
                "keyed query set ran on {} shards (requested {shards}), degraded: {:?}",
                engine.shards(),
                engine.degraded()
            ),
            FailureKind::ShardContract,
        ));
    }
    let globals = pool_map(&case.arrivals, |name| engine.stream_id(name));
    for (i, a) in case.arrivals.iter().enumerate() {
        if let Some((q, _)) = case.remove.filter(|&(_, at)| at == i) {
            engine.remove_query(QueryId(q as u32));
        }
        if let Some((query, _)) = case.add.as_ref().filter(|(_, at)| *at == i) {
            engine.add_query(query.clone()).map_err(|e| {
                fail(format!("add_query rejected at #{i}: {e:?}"), FailureKind::ShardContract)
            })?;
        }
        let values: Vec<Value> = a.values.iter().map(|&v| Value(v)).collect();
        engine.ingest(Arrival::new(
            globals[&a.stream],
            values,
            VTime::from_micros(a.at_micros),
        ));
    }
    let report = engine
        .finish()
        .map_err(|e| fail(format!("{e}"), FailureKind::InvariantPanic))?;
    if report.shed_channel != 0 {
        return Err(fail(
            format!(
                "{} tuples dropped under Backpressure::Block",
                report.shed_channel
            ),
            FailureKind::ShardContract,
        ));
    }
    let mut rows: Vec<Vec<Vec<u64>>> = report
        .rows
        .expect("collect_rows was set")
        .iter()
        .map(|per_query| {
            per_query
                .iter()
                .map(|result| {
                    let mut r = Vec::with_capacity(result.len() * 3);
                    for t in result {
                        r.push(t.ts.as_micros());
                        r.extend(t.values.iter().map(|v| v.0));
                    }
                    r
                })
                .collect()
        })
        .collect();
    rows.resize_with(case.registered().len(), Vec::new);
    for r in &mut rows {
        r.sort();
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{case_seed, generate_multi_case, install_quiet_hook};

    #[test]
    fn small_multi_sweep_passes() {
        install_quiet_hook();
        for i in 0..3u64 {
            let case = generate_multi_case(case_seed(13, i));
            if let Err(f) = run_multi_case(&case) {
                panic!("multi case {i} (seed {}) failed: {f}", case.seed);
            }
        }
    }

    #[test]
    fn oracle_projection_is_stable_per_query() {
        let case = generate_multi_case(42);
        for q in &case.queries {
            let a = oracle_rows(q, &case.arrivals);
            let b = oracle_rows(q, &case.arrivals);
            assert_eq!(a, b);
        }
    }

}
