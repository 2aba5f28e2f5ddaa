//! Differential audit harness for the shedding join engine.
//!
//! A case ([`gen`]) is a standing set of 1–4 queries, a memory mode, a
//! shard count, a disorder bound `K` (0: in order), for the queued class
//! an input queue, and a trace that may add or remove a query mid-run.
//! The run ([`run`]) drives every registered policy's engine through the
//! one builder, in process and sharded, and checks the contracts of
//! DESIGN.md §8 on it: each query exact at full memory (and in process
//! when no window can fill) and a sub-multiset of its oracle when
//! shedding, the event-time run equal to the in-order one, beyond-bound
//! lateness dropped and counted, queued runs conserving every arrival,
//! store owners replaying their solo runs, the
//! sharded partitioning contract, the score-cache (odd seeds) and
//! plain/eager (even seeds) A/B pairs, and every engine's structural
//! invariants after every arrival. Failures print a replay line
//! (`cargo run -p mstream-audit -- replay <seed>`) and a greedily shrunk
//! minimal trace ([`shrink()`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod disorder;
/// The eager reference policy the plain-vs-eager A/B runs compare against.
#[path = "../../../tests/support/eager.rs"]
mod eager;
pub mod gen;
pub mod run;
pub mod shrink;

pub use gen::{generate_case, Arrival, Case, Churn, MixKind, Trace};
pub use run::{install_quiet_hook, run_case, run_case_on, CaseStats, Failure, FailureKind};
pub use shrink::{shrink, shrink_case};

/// Derives the per-case seed for case `index` of a sweep started with
/// `master`: the `index`-th output of the SplitMix64 generator seeded
/// with `master` (avoids correlated neighbour cases).
pub fn case_seed(master: u64, index: u64) -> u64 {
    mstream_types::splitmix64(master.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// Multi-query standing sets through the one run.
#[cfg(test)]
mod multi {
    mod tests {
        use crate::{case_seed, generate_case, install_quiet_hook, run_case};

        /// The first multi-query sets of a sweep pass the whole run.
        #[test]
        fn small_multi_sweep_passes() {
            install_quiet_hook();
            let cases = (0..).map(|i| generate_case(case_seed(13, i)));
            for case in cases.filter(|c| c.queries.len() > 1).take(3) {
                if let Err(f) = run_case(&case) {
                    panic!("multi case (seed {}) failed: {f}", case.seed);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mstream_types::{Partitioning, WindowSpec};

    #[test]
    fn case_generation_is_deterministic() {
        let (a, b) = (generate_case(99), generate_case(99));
        let key = |c: &Case| {
            let arrivals: Vec<_> = c
                .trace
                .arrivals
                .iter()
                .map(|a| (a.stream, a.values.clone(), a.at_micros))
                .collect();
            format!(
                "{arrivals:?} {:?} {:?} {} {:?} {:?}",
                c.trace.churn, c.capacity, c.shards, c.disorder, c.queries
            )
        };
        assert_eq!(key(&a), key(&b));
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
        let tuples: Vec<bool> = (0..30u64)
            .flat_map(|seed| generate_case(case_seed(3, seed)).queries)
            .flat_map(|q| q.windows().to_vec())
            .map(|w| matches!(w, WindowSpec::Tuples(_)))
            .collect();
        let both = tuples.contains(&true) && tuples.contains(&false);
        assert!(both, "generator must exercise both window kinds");
    }

    /// Within 60 seeds the generator draws every class the run's
    /// contracts need: S = 2 and 4, keyed and unkeyed one-query shapes,
    /// time / tuple / mixed windows, K = 0 and K > 0, set sizes 1–4, each
    /// mix kind, each churn shape, mixed arity, the 9-stream spill, the
    /// queued class and the wide bank.
    #[test]
    fn generator_covers_memory_modes_shards_and_partitionability() {
        let mut drawn = std::collections::BTreeSet::new();
        for seed in 0..60u64 {
            let case = generate_case(seed);
            let mut class = |name: String| drawn.insert(name);
            class(format!("S={}", case.shards));
            class(format!("K>0:{}", !case.disorder.is_zero()));
            class(format!("size {}", case.queries.len()));
            for kind in &case.kinds {
                class(format!("{kind:?}"));
            }
            let windows = case.queries.iter().flat_map(|q| q.windows().iter());
            let tuples: Vec<bool> = windows
                .map(|w| matches!(w, WindowSpec::Tuples(_)))
                .collect();
            let flavour = match (tuples.iter().all(|&t| t), tuples.iter().any(|&t| t)) {
                (true, _) => "tuple windows",
                (false, true) => "mixed windows",
                (false, false) => "time windows",
            };
            class(flavour.into());
            let removes = case
                .trace
                .churn
                .iter()
                .filter(|(_, c)| matches!(c, Churn::Remove(_)))
                .count();
            let adds = case.trace.churn.len() - removes;
            class(format!("churn {removes}/{adds}"));
            if case.keyed {
                class("keyed".into());
            }
            if let [q] = &case.queries[..] {
                if matches!(q.partitioning(), Partitioning::Single { .. }) {
                    class("unkeyed one-query".into());
                }
            }
            if case.mixed_arity() {
                class("mixed arity".into());
            }
            if case.spills() {
                class("spill".into());
            }
            if case.queue.is_some() {
                class("queued".into());
            }
            if case.wide_bank {
                class("wide bank".into());
            }
        }
        let want = "S=2,S=4,K>0:false,K>0:true,size 1,\
                    size 2,size 3,size 4,Base,Duplicate,Overlap,Fresh,tuple windows,\
                    mixed windows,time windows,churn 0/0,churn 1/0,churn 0/1,churn 1/1,keyed,\
                    unkeyed one-query,mixed arity,spill,queued,wide bank";
        for class in want.split(',') {
            assert!(
                drawn.contains(class),
                "{class} never drawn in 60 seeds: {drawn:?}"
            );
        }
    }

    /// The score-cache A/B class is exactly the odd seeds, and a sweep
    /// draws both parities.
    #[test]
    fn cache_ab_class_is_the_odd_seeds() {
        let seeds: Vec<u64> = (0..20).map(|i| case_seed(17, i)).collect();
        for &seed in &seeds {
            assert_eq!(generate_case(seed).cache_ab, seed % 2 == 1);
        }
        assert!(seeds.iter().any(|s| s % 2 == 1) && seeds.iter().any(|s| s % 2 == 0));
    }

    /// Even seeds pair each policy that lets the engine owe priorities
    /// with its eager twin and every other policy with itself; odd seeds
    /// pair every policy's cache on with off. The first half of each pair
    /// runs behind the front end unless the trace carries churn, the
    /// second in order.
    #[test]
    fn deferral_ab_class_is_the_even_seeds_of_deferrable_policies() {
        use crate::run::ab_pair;
        for &name in mstream_core::ALL_POLICY_NAMES {
            let owes = matches!(name, "MSketch" | "MSketch-RS");
            for front in [true, false] {
                let (x, y, kind) = ab_pair(false, front, name);
                assert!(!x.eager, "{name}: the first run is the engine as shipped");
                assert_eq!(x.front, front, "{name}: the first run sits behind the front end");
                match (owes, y) {
                    (true, Some(y)) => {
                        assert!(y.eager && !y.front, "{name}: the eager twin runs in order");
                        assert_eq!(kind, FailureKind::DeferralDivergence);
                    }
                    (false, y) => {
                        assert_eq!(y.map(|y| y.front), front.then_some(false));
                        assert_eq!(kind, FailureKind::DisorderContract);
                    }
                    (true, None) => panic!("{name} must be A/B-run against its eager twin"),
                }
                let (on, off, kind) = ab_pair(true, front, name);
                let off = off.expect("odd seeds A/B every policy");
                assert_eq!(
                    (on.cache, off.cache, on.front, off.front),
                    (Some(true), Some(false), front, false)
                );
                assert_eq!(kind, FailureKind::ScoreCacheDivergence);
            }
        }
    }

    /// The first cases of a sweep — one-query and multi-query sets alike —
    /// pass the whole run.
    #[test]
    fn small_sweep_passes() {
        install_quiet_hook();
        for i in 0..4u64 {
            let case = generate_case(case_seed(11, i));
            if let Err(f) = run_case(&case) {
                panic!("case {i} (seed {}) failed: {f}", case.seed);
            }
        }
    }

    /// A synthetic failure — arrivals X and Y both present with a
    /// `remove_query` between them — shrinks to exactly X and Y, the
    /// removal remapped onto Y and the decoy churn event dropped; a
    /// passing trace comes back whole.
    #[test]
    fn shrinker_returns_failing_subset_for_synthetic_failure() {
        let arrivals = (0..20u64)
            .map(|i| Arrival {
                stream: 0,
                values: vec![i],
                at_micros: i,
            })
            .collect();
        let trace = Trace {
            arrivals,
            churn: vec![(6, Churn::Remove(1)), (15, Churn::Remove(0))],
        };
        let at = |t: &Trace, v: u64| t.arrivals.iter().position(|a| a.values == [v]);
        let fails = |t: &Trace| match (at(t, 3), at(t, 10)) {
            (Some(x), Some(y)) => t
                .churn
                .iter()
                .any(|(p, c)| matches!(c, Churn::Remove(1)) && x < *p && *p <= y),
            _ => false,
        };
        let shrunk = shrink(&trace, fails);
        let values: Vec<_> = shrunk.arrivals.iter().map(|a| a.values[0]).collect();
        assert_eq!(values, [3, 10]);
        assert!(
            matches!(shrunk.churn[..], [(1, Churn::Remove(1))]),
            "{:?}",
            shrunk.churn
        );
        let whole = shrink(&trace, |_| false);
        assert_eq!(
            (whole.arrivals.len(), whole.churn.len()),
            (20, 2),
            "passing trace left intact"
        );
    }
}
