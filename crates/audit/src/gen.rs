//! Seeded random generation of queries and workloads.
//!
//! Everything is a pure function of the case seed, so a failing case is
//! reproduced exactly by `replay <seed>` — including the engine's own
//! randomness, which is seeded from the same value.

use mstream_sketch::EpochSpec;
use mstream_types::{
    AttrRef, Catalog, EquiPredicate, JoinQuery, StreamId, StreamSchema, VDur, WindowSpec,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One generated stream arrival.
#[derive(Clone, Debug)]
pub struct Arrival {
    /// Target stream index.
    pub stream: usize,
    /// Attribute values (every generated schema has two attributes).
    pub values: Vec<u64>,
    /// Processing instant in virtual microseconds (nondecreasing).
    pub at_micros: u64,
}

/// Memory discipline for a case's reduced-memory run.
#[derive(Clone, Debug)]
pub enum ReducedMemory {
    /// The same small capacity on every window.
    PerWindow(usize),
    /// Heterogeneous per-window capacities (one entry per stream).
    PerWindowEach(Vec<usize>),
    /// One shared pool across all windows.
    GlobalPool(usize),
}

/// A fully materialised audit case: query, engine configuration knobs and
/// the arrival trace.
pub struct Case {
    /// The seed this case was generated from.
    pub seed: u64,
    /// The (validated) join query: 2–4 streams, chain or cyclic shape,
    /// possibly heterogeneous time/tuple windows.
    pub query: JoinQuery,
    /// Explicit tumbling-epoch discipline (mixed-window queries have no
    /// derivable default, so the generator always picks one).
    pub epoch: EpochSpec,
    /// Memory discipline for the reduced-memory run.
    pub reduced: ReducedMemory,
    /// Worker count for the sharded differential runs (2 or 4). Cases
    /// whose query cannot partition exercise the broadcast path instead.
    pub shards: usize,
    /// Whether this case pins the Zipf-hot-key class: a key-partitionable
    /// query whose join key concentrates ~60% of arrivals on one value,
    /// forcing the skew router's promote/split/demote machinery into the
    /// differential (every `seed % 8 == 4`).
    pub zipf_hot: bool,
    /// Whether this case pins the score-cache A/B class (every odd seed):
    /// each engine run is driven twice — productivity score cache on and
    /// off — and the two runs must be bit-identical in rows and in every
    /// metric except the cache counters and wall-clock ns themselves
    /// (DESIGN.md §16).
    pub cache_ab: bool,
    /// The arrival trace.
    pub arrivals: Vec<Arrival>,
}

impl Case {
    /// The number of streams in this case's query.
    pub fn n_streams(&self) -> usize {
        self.query.n_streams()
    }
}

/// Generates the audit case for `seed`.
pub fn generate_case(seed: u64) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(2..=4usize);

    let mut catalog = Catalog::new();
    for k in 0..n {
        catalog.add_stream(StreamSchema::new(format!("R{}", k + 1), &["A1", "A2"]));
    }

    // Every eighth seed pins the case class the sharded tick path depends
    // on — an all-tuple-window, key-partitionable query — so every sweep
    // is guaranteed real multi-shard runs with coalesced expiry ticks
    // (otherwise keyed × all-tuples is a ~12% coincidence per case).
    let pinned_tuple_shard = seed % 8 == 0;

    // Every eighth seed (offset 4, disjoint from the tuple-shard class)
    // pins the Zipf-hot-key class: keyed shape + one join-key value
    // carrying ~60% of arrivals, so every sweep drives the skew router's
    // heavy-hitter splitting through the exactness differential.
    let zipf_hot = seed % 8 == 4;

    // Window flavour: all-time, all-tuple, or heterogeneous per stream.
    let flavour = if pinned_tuple_shard {
        1
    } else {
        rng.gen_range(0..3u8)
    };
    let windows: Vec<WindowSpec> = (0..n)
        .map(|_| {
            let time = match flavour {
                0 => true,
                1 => false,
                _ => rng.gen_bool(0.5),
            };
            if time {
                WindowSpec::Time(VDur::from_secs(rng.gen_range(4..40u64)))
            } else {
                WindowSpec::Tuples(rng.gen_range(3..24u64))
            }
        })
        .collect();
    let all_tuples = windows.iter().all(|w| matches!(w, WindowSpec::Tuples(_)));

    // Join shape: a chain through all streams, optionally closed into a
    // cycle (3+ streams), optionally doubled on one edge. Attribute choices
    // are random on both sides, except that ~35% of cases pin every
    // predicate to attribute 0 — a guaranteed key-partitionable shape, so
    // the sharded differential regularly exercises real multi-shard runs.
    let keyed = pinned_tuple_shard || zipf_hot || rng.gen_bool(0.35);
    let attr = |rng: &mut StdRng| if keyed { 0 } else { rng.gen_range(0..2usize) };
    let mut predicates = Vec::new();
    for k in 0..n - 1 {
        predicates.push(EquiPredicate::new(
            AttrRef::new(StreamId(k), attr(&mut rng)),
            AttrRef::new(StreamId(k + 1), attr(&mut rng)),
        ));
    }
    if n >= 3 && rng.gen_bool(0.3) {
        predicates.push(EquiPredicate::new(
            AttrRef::new(StreamId(n - 1), attr(&mut rng)),
            AttrRef::new(StreamId(0), attr(&mut rng)),
        ));
    }
    if rng.gen_bool(0.2) {
        let k = rng.gen_range(0..n - 1);
        predicates.push(EquiPredicate::new(
            AttrRef::new(StreamId(k), attr(&mut rng)),
            AttrRef::new(StreamId(k + 1), attr(&mut rng)),
        ));
    }
    let query = JoinQuery::new(catalog, predicates, windows)
        .expect("generated queries are connected by construction");

    let epoch = if all_tuples {
        EpochSpec::PerStreamTuples(rng.gen_range(4..32u64))
    } else {
        EpochSpec::Time(VDur::from_secs(rng.gen_range(2..20u64)))
    };

    // Small value domains force joins; bursty clocks force expirations to
    // land on and around window boundaries.
    let domain = rng.gen_range(2..6u64);
    let len = rng.gen_range(60..200usize);
    let mut clock = 0u64;
    let arrivals = (0..len)
        .map(|_| {
            // ~1/4 of arrivals share the previous instant; the rest step
            // forward up to 2 virtual seconds.
            if !rng.gen_bool(0.25) {
                clock += rng.gen_range(1..2_000_000u64);
            }
            // Zipf-hot cases concentrate ~60% of join-key values (attr 0,
            // the partition key of every keyed shape) on value 0.
            let key = if zipf_hot && rng.gen_bool(0.6) {
                0
            } else {
                rng.gen_range(0..domain)
            };
            Arrival {
                stream: rng.gen_range(0..n),
                values: vec![key, rng.gen_range(0..domain)],
                at_micros: clock,
            }
        })
        .collect();

    let reduced = match rng.gen_range(0..3u8) {
        0 => ReducedMemory::PerWindow(rng.gen_range(2..8usize)),
        1 => ReducedMemory::PerWindowEach(
            (0..n).map(|_| rng.gen_range(2..8usize)).collect(),
        ),
        _ => ReducedMemory::GlobalPool(rng.gen_range(2..8usize) * n),
    };

    Case {
        seed,
        query,
        epoch,
        reduced,
        shards: if rng.gen_bool(0.5) { 2 } else { 4 },
        zipf_hot,
        // Derived arithmetically (no rng draw) so the pinned seed classes
        // above keep generating byte-identical cases.
        cache_ab: seed % 2 == 1,
        arrivals,
    }
}

/// How one query of a [`MultiCase`] relates to the queries before it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MixKind {
    /// The first query of the set.
    Base,
    /// An exact clone of an earlier query (collapses into its class).
    Duplicate,
    /// The same stream span as an earlier query with fresh windows and
    /// attribute choices — shares stores where `(stream, window)` agree.
    Overlap,
    /// An independently drawn stream span (disjoint when the pool allows).
    Fresh,
}

/// A multi-query audit case: 2–4 standing queries over a shared pool of
/// streams `R1..R5` — a mix of exact duplicates, overlapping subgraphs and
/// independent spans — plus one arrival trace over the union of their
/// streams. Windows are all time-based (the solo sweep owns tuple-window
/// coverage; one epoch discipline then serves every query). About half
/// the cases also carry registration churn: one `remove_query` and/or one
/// `add_query` applied mid-trace.
pub struct MultiCase {
    /// The seed this case was generated from.
    pub seed: u64,
    /// The standing queries, in registration order.
    pub queries: Vec<JoinQuery>,
    /// How each query relates to its predecessors (same indexing).
    pub kinds: Vec<MixKind>,
    /// Explicit tumbling-epoch discipline shared by every query.
    pub epoch: EpochSpec,
    /// Reduced per-window capacity (the shared data plane's one memory
    /// mode).
    pub capacity: usize,
    /// Whether every predicate of every query joins on attribute 0 — the
    /// key-partitionable class, pinned on even seeds so the sharded multi
    /// differential regularly runs on two real shards.
    pub keyed: bool,
    /// The score-cache A/B class (odd seeds, mirroring the solo sweep):
    /// the in-process engine runs cache-on and cache-off and must match
    /// bit for bit (DESIGN.md §16).
    pub cache_ab: bool,
    /// The arrival trace. `stream` is the *pool* index; the runner
    /// resolves it to the engine's union-catalog id by name (`R<pool+1>`).
    pub arrivals: Vec<Arrival>,
    /// `(query index, position)`: that standing query is removed just
    /// before the arrival at `position`. Any query may be drawn, the owner
    /// of a shared store included (its stores then change hands).
    pub remove: Option<(usize, usize)>,
    /// `(query, position)`: registered just before the arrival at
    /// `position` (after the removal, if both land on one position), under
    /// the next dense id, `queries.len()`. Keyed cases draw a fresh query
    /// over an existing span; the others re-register a clone of a standing
    /// query, the one shape a sharded run of any width must accept.
    pub add: Option<(JoinQuery, usize)>,
}

impl MultiCase {
    /// Whether the case carries an `add_query` or `remove_query`.
    pub fn has_churn(&self) -> bool {
        self.remove.is_some() || self.add.is_some()
    }

    /// Every query the case registers, `add` last, each with the
    /// half-open range of arrival positions it is registered over.
    pub fn registered(&self) -> Vec<(&JoinQuery, std::ops::Range<usize>)> {
        let len = self.arrivals.len();
        let mut out: Vec<_> = self.queries.iter().map(|q| (q, 0..len)).collect();
        if let Some((q, at)) = self.remove {
            out[q].1.end = at;
        }
        if let Some((query, at)) = &self.add {
            out.push((query, *at..len));
        }
        out
    }
}

/// Generates the multi-query audit case for `seed`.
pub fn generate_multi_case(seed: u64) -> MultiCase {
    const POOL: usize = 5;
    const WINDOW_SECS: [u64; 3] = [6, 12, 24];
    let mut rng = StdRng::seed_from_u64(seed);
    let keyed = seed % 2 == 0;
    let n_queries = rng.gen_range(2..=4usize);

    fn span(rng: &mut StdRng) -> (usize, usize) {
        let m = rng.gen_range(2..=3usize);
        let lo = rng.gen_range(0..=POOL - m);
        (lo, lo + m)
    }
    // A chain query over the pool streams `lo..hi`, with windows drawn
    // from a deliberately tiny set so overlapping queries regularly land
    // on the same `(stream, window)` store key.
    fn build(rng: &mut StdRng, (lo, hi): (usize, usize), keyed: bool) -> JoinQuery {
        let m = hi - lo;
        let mut catalog = Catalog::new();
        for p in lo..hi {
            catalog.add_stream(StreamSchema::new(format!("R{}", p + 1), &["A1", "A2"]));
        }
        let windows: Vec<WindowSpec> = (0..m)
            .map(|_| {
                WindowSpec::Time(VDur::from_secs(WINDOW_SECS[rng.gen_range(0..3usize)]))
            })
            .collect();
        let attr = |rng: &mut StdRng| if keyed { 0 } else { rng.gen_range(0..2usize) };
        let predicates: Vec<EquiPredicate> = (0..m - 1)
            .map(|k| {
                EquiPredicate::new(
                    AttrRef::new(StreamId(k), attr(rng)),
                    AttrRef::new(StreamId(k + 1), attr(rng)),
                )
            })
            .collect();
        JoinQuery::new(catalog, predicates, windows).expect("chains are connected")
    }

    let mut queries = Vec::with_capacity(n_queries);
    let mut spans = Vec::with_capacity(n_queries);
    let mut kinds = Vec::with_capacity(n_queries);
    let first = span(&mut rng);
    queries.push(build(&mut rng, first, keyed));
    spans.push(first);
    kinds.push(MixKind::Base);
    for _ in 1..n_queries {
        match rng.gen_range(0..3u8) {
            0 => {
                let i = rng.gen_range(0..queries.len());
                queries.push(queries[i].clone());
                spans.push(spans[i]);
                kinds.push(MixKind::Duplicate);
            }
            1 => {
                let i = rng.gen_range(0..spans.len());
                queries.push(build(&mut rng, spans[i], keyed));
                spans.push(spans[i]);
                kinds.push(MixKind::Overlap);
            }
            _ => {
                let s = span(&mut rng);
                queries.push(build(&mut rng, s, keyed));
                spans.push(s);
                kinds.push(MixKind::Fresh);
            }
        }
    }

    let mut used: Vec<usize> = spans.iter().flat_map(|&(lo, hi)| lo..hi).collect();
    used.sort_unstable();
    used.dedup();

    let epoch = EpochSpec::Time(VDur::from_secs(rng.gen_range(2..10u64)));
    let capacity = rng.gen_range(2..8usize);
    let domain = rng.gen_range(2..6u64);
    let len = rng.gen_range(60..160usize);
    let mut clock = 0u64;
    let arrivals = (0..len)
        .map(|_| {
            if !rng.gen_bool(0.25) {
                clock += rng.gen_range(1..2_000_000u64);
            }
            Arrival {
                stream: used[rng.gen_range(0..used.len())],
                values: vec![rng.gen_range(0..domain), rng.gen_range(0..domain)],
                at_micros: clock,
            }
        })
        .collect();

    // Churn is drawn last, so everything above is the case the seed always
    // generated. Positions keep a quarter of the trace on either side.
    let remove = rng
        .gen_bool(0.35)
        .then(|| (rng.gen_range(0..n_queries), rng.gen_range(len / 4..3 * len / 4)));
    let add = rng.gen_bool(0.35).then(|| {
        let i = rng.gen_range(0..n_queries);
        let query = if keyed {
            build(&mut rng, spans[i], true)
        } else {
            queries[i].clone()
        };
        (query, rng.gen_range(len / 4..3 * len / 4))
    });

    MultiCase {
        seed,
        queries,
        kinds,
        epoch,
        capacity,
        keyed,
        // Arithmetic (no rng draw): pinned classes stay byte-identical.
        cache_ab: seed % 2 == 1,
        arrivals,
        remove,
        add,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mstream_types::Partitioning;

    /// The pinned case class: every eighth seed must produce an
    /// all-tuple-window, key-partitionable query, so sweeps always cover
    /// the sharded coalesced-tick path with real multi-shard runs.
    #[test]
    fn every_eighth_seed_pins_sharded_tuple_windows() {
        for seed in [0u64, 8, 16, 64, 800, 4096] {
            let case = generate_case(seed);
            assert!(
                case.query
                    .windows()
                    .iter()
                    .all(|w| matches!(w, WindowSpec::Tuples(_))),
                "seed {seed}: pinned class must use tuple windows only"
            );
            assert!(
                matches!(case.query.partitioning(), Partitioning::ByKey { .. }),
                "seed {seed}: pinned class must partition by key"
            );
            assert!(case.shards >= 2, "pinned class runs multi-shard");
        }
    }

    /// Across a modest sweep the multi-query generator must emit all three
    /// mix kinds, both the keyed and the free-attribute class, and every
    /// query-set size from 2 to 4.
    #[test]
    fn multi_case_generator_covers_all_mix_kinds() {
        let (mut dup, mut overlap, mut fresh) = (false, false, false);
        let (mut keyed, mut free) = (false, false);
        let mut sizes = [false; 3];
        for seed in 0..60u64 {
            let case = generate_multi_case(seed);
            assert_eq!(case.kinds[0], MixKind::Base);
            assert_eq!(case.kinds.len(), case.queries.len());
            sizes[case.queries.len() - 2] = true;
            for k in &case.kinds[1..] {
                match k {
                    MixKind::Base => unreachable!("base is only first"),
                    MixKind::Duplicate => dup = true,
                    MixKind::Overlap => overlap = true,
                    MixKind::Fresh => fresh = true,
                }
            }
            if case.keyed {
                keyed = true;
                for q in &case.queries {
                    assert!(
                        matches!(q.partitioning(), Partitioning::ByKey { .. }),
                        "seed {seed}: keyed case has a non-partitionable query"
                    );
                }
            } else {
                free = true;
            }
            assert!(!case.arrivals.is_empty());
        }
        assert!(dup && overlap && fresh, "all three mix kinds generated");
        let churn: Vec<MultiCase> = (0..60).map(generate_multi_case).collect();
        assert!(churn.iter().any(|c| c.remove.is_some() && c.add.is_none()));
        assert!(churn.iter().any(|c| c.remove.is_none() && c.add.is_some()));
        assert!(churn.iter().any(|c| c.remove.is_some() && c.add.is_some()));
        assert!(churn.iter().any(|c| !c.has_churn()), "plain cases keep rotating");
        assert!(
            churn.iter().any(|c| c.remove.is_some_and(|(q, _)| q == 0)),
            "the first query, owner of whatever it shares, gets removed too"
        );
        assert!(keyed && free, "both partitionability classes generated");
        assert!(sizes.iter().all(|&s| s), "query-set sizes 2..=4 generated");
    }

    /// The Zipf-hot-key case class: every `seed % 8 == 4` must produce a
    /// key-partitionable query whose join key (attribute 0) concentrates
    /// well over its uniform share on one hot value, so sweeps always run
    /// the skew router's splitting machinery through the differential.
    #[test]
    fn every_eighth_seed_offset_four_pins_zipf_hot_keys() {
        for seed in [4u64, 12, 20, 68, 804, 4100] {
            let case = generate_case(seed);
            assert!(case.zipf_hot, "seed {seed}: class flag must be set");
            assert!(
                matches!(case.query.partitioning(), Partitioning::ByKey { .. }),
                "seed {seed}: zipf-hot class must partition by key"
            );
            assert!(case.shards >= 2, "zipf-hot class runs multi-shard");
            let hot = case
                .arrivals
                .iter()
                .filter(|a| a.values[0] == 0)
                .count();
            assert!(
                hot * 2 > case.arrivals.len(),
                "seed {seed}: hot key carries {hot}/{} arrivals — not skewed",
                case.arrivals.len()
            );
        }
        let uniform = generate_case(3);
        assert!(!uniform.zipf_hot, "other seeds stay unpinned");
    }
}
