//! Differential audit harness for the shedding join engine.
//!
//! The harness generates seeded random queries and workloads ([`gen`]),
//! runs every registered shedding policy's [`mstream_core::ShedJoinEngine`]
//! against the exact reference join ([`run`]), and checks two semantic
//! contracts plus the structural invariants of every stateful layer:
//!
//! 1. **At 100% memory** (windows sized to hold the whole trace) the
//!    shedding engine must produce a result multiset **byte-identical** to
//!    [`mstream_join::ExactJoin`]'s — shedding machinery that never sheds
//!    must be invisible.
//! 2. **Under reduced memory** the shed output must be a **sub-multiset**
//!    of the oracle's: shedding may lose results, never invent them. (This
//!    holds because a shed window's residents are always a subset of the
//!    exact window's, and arrival counting advances identically whether or
//!    not a tuple is retained.)
//! 3. After every arrival the engine's `check_invariants` (compiled under
//!    the `audit` feature) re-validates heap order, position-map
//!    bijections, arena/index/expiry-deque agreement, capacity bounds,
//!    epoch bookkeeping, and frozen-cross-product coherence.
//!
//! The [`disorder`] module adds the event-time contracts: a `K = 0`
//! in-order run is bit-identical to the trusting engine, a bounded shuffle
//! within `K` reproduces the in-order output exactly (every policy, both
//! memory modes, sharded included), and beyond-bound lateness is dropped
//! with accounting, never joined (`mstream-audit disorder --cases N`).
//!
//! The [`multi`] module adds the multi-query contracts: 2–4 standing
//! queries (duplicate, overlapping-subgraph and disjoint mixes) run on one
//! shared data plane, and each query's output is checked against its *own*
//! solo exact oracle — equal at 100% memory, a sub-multiset under reduced
//! memory — for every policy, in-process and sharded S ∈ {1, 2}
//! (`mstream-audit multi --cases N`). About half the cases remove a
//! standing query and/or add one mid-trace; each query is then held to its
//! oracle over the arrivals it was registered for.
//!
//! Every **odd-seed case** additionally pins the score-cache A/B class:
//! each engine run in the three audits above (single-engine, sharded,
//! event-time, multi-query) is driven twice — the epoch-memoized
//! productivity score cache forced on and forced off — and the two runs
//! must agree bit for bit on emissions and on every metric except the
//! cache counters and stage timers themselves (DESIGN.md §16).
//!
//! Every **even-seed case** pins the plain-vs-eager A/B class instead:
//! each run of a policy that lets the engine owe window priorities
//! (`MSketch`, `MSketch-RS`; single-engine, sharded and multi-query) is
//! driven twice — the policy as shipped, and wrapped so that it no longer
//! declares `ShedPolicy::deferrable_priority`, which is the engine that
//! scores every arrival and rebuilds every window at every rollover — and
//! the two runs must agree in the same sense. The sweep summaries count
//! the cases in which a window actually owed its priorities. (The
//! event-time audit's `K = 0` identity already holds an eager engine — a
//! front end never defers — to the trusting one, in emit order.)
//!
//! Failures print a replay line (`cargo run -p mstream-audit -- replay
//! <seed>`) and a greedily shrunk minimal trace ([`shrink`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod disorder;
/// The eager reference policy the plain-vs-eager A/B runs compare against.
#[path = "../../../tests/support/eager.rs"]
mod eager;
pub mod gen;
pub mod multi;
pub mod run;
pub mod shrink;

pub use disorder::{inject_disorder, run_disorder_case};
pub use gen::{generate_case, generate_multi_case, Arrival, Case, MixKind, MultiCase, ReducedMemory};
pub use multi::run_multi_case;
pub use run::{install_quiet_hook, run_case, run_case_on, CaseStats, Failure, FailureKind};
pub use shrink::shrink_case;

/// Derives the per-case seed for case `index` of a sweep started with
/// `master`: the `index`-th output of the SplitMix64 generator seeded
/// with `master` (avoids correlated neighbour cases).
pub fn case_seed(master: u64, index: u64) -> u64 {
    mstream_types::splitmix64(master.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_generation_is_deterministic() {
        let a = generate_case(99);
        let b = generate_case(99);
        assert_eq!(a.arrivals.len(), b.arrivals.len());
        for (x, y) in a.arrivals.iter().zip(&b.arrivals) {
            assert_eq!(x.stream, y.stream);
            assert_eq!(x.values, y.values);
            assert_eq!(x.at_micros, y.at_micros);
        }
        assert_eq!(format!("{:?}", a.reduced), format!("{:?}", b.reduced));
        assert_eq!(a.shards, b.shards);
        assert_eq!(a.query.n_streams(), b.query.n_streams());
    }

    #[test]
    fn case_seeds_decorrelate_neighbours() {
        let s: Vec<u64> = (0..50).map(|i| case_seed(7, i)).collect();
        let mut unique = s.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), s.len(), "seed collisions");
    }

    #[test]
    fn generated_queries_cover_both_window_kinds() {
        let (mut time, mut tuples) = (false, false);
        for seed in 0..30u64 {
            let case = generate_case(case_seed(3, seed));
            for k in 0..case.n_streams() {
                match case.query.window(mstream_types::StreamId(k)) {
                    mstream_types::WindowSpec::Time(_) => time = true,
                    mstream_types::WindowSpec::Tuples(_) => tuples = true,
                }
            }
        }
        assert!(time && tuples, "generator must exercise both window kinds");
    }

    #[test]
    fn generator_covers_memory_modes_shards_and_partitionability() {
        use mstream_types::Partitioning;
        let (mut pw, mut pwe, mut pool) = (false, false, false);
        let (mut s2, mut s4) = (false, false);
        let (mut keyed, mut single) = (false, false);
        for i in 0..60u64 {
            let case = generate_case(case_seed(5, i));
            match case.reduced {
                ReducedMemory::PerWindow(_) => pw = true,
                ReducedMemory::PerWindowEach(_) => pwe = true,
                ReducedMemory::GlobalPool(_) => pool = true,
            }
            match case.shards {
                2 => s2 = true,
                4 => s4 = true,
                other => panic!("unexpected shard count {other}"),
            }
            match case.query.partitioning() {
                Partitioning::ByKey { .. } => keyed = true,
                Partitioning::Single { .. } => single = true,
            }
        }
        assert!(pw && pwe && pool, "all three memory modes generated");
        assert!(s2 && s4, "both shard counts generated");
        assert!(keyed && single, "both partitionability outcomes generated");
    }

    /// The score-cache A/B class is exactly the odd seeds, in both the
    /// solo and the multi-query generator, and a sweep of either parity
    /// exists (so the A/B and the plain classes both keep rotating).
    #[test]
    fn cache_ab_class_is_the_odd_seeds() {
        let (mut ab, mut plain) = (false, false);
        for i in 0..20u64 {
            let seed = case_seed(17, i);
            let case = generate_case(seed);
            assert_eq!(case.cache_ab, seed % 2 == 1);
            let multi = generate_multi_case(seed);
            assert_eq!(multi.cache_ab, seed % 2 == 1);
            if case.cache_ab {
                ab = true;
            } else {
                plain = true;
            }
        }
        assert!(ab && plain, "both parities must appear in a sweep");
    }

    /// The plain/eager A/B class is the even seeds, for exactly the
    /// policies that let the engine owe priorities; odd seeds keep the
    /// score-cache pair for every policy.
    #[test]
    fn deferral_ab_class_is_the_even_seeds_of_deferrable_policies() {
        use crate::run::{ab_pair, FailureKind};
        for &name in mstream_shed_policies::ALL_POLICY_NAMES {
            let owes = matches!(name, "MSketch" | "MSketch-RS");
            match ab_pair(false, name) {
                Some((plain, eager, kind)) => {
                    assert!(owes, "{name} must not get an eager twin");
                    assert!(!plain.eager && eager.eager);
                    assert_eq!(kind, FailureKind::DeferralDivergence);
                }
                None => assert!(!owes, "{name} must be A/B-run against its eager twin"),
            }
            let (on, off, kind) = ab_pair(true, name).expect("odd seeds A/B every policy");
            assert_eq!((on.cache, off.cache), (Some(true), Some(false)));
            assert!(!on.eager && !off.eager);
            assert_eq!(kind, FailureKind::ScoreCacheDivergence);
        }
    }

    #[test]
    fn small_sweep_passes() {
        install_quiet_hook();
        for i in 0..3u64 {
            let case = generate_case(case_seed(11, i));
            if let Err(f) = run_case(&case) {
                panic!("case {i} failed: {f}");
            }
        }
    }

    #[test]
    fn shrinker_returns_failing_subset_for_synthetic_failure() {
        // A passing case shrinks to itself (the guard path).
        install_quiet_hook();
        let case = generate_case(case_seed(11, 0));
        let kept = shrink_case(&case);
        assert_eq!(kept.len(), case.arrivals.len(), "passing case left intact");
    }
}
