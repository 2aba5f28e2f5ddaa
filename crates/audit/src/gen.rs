//! Seeded random generation of audit cases.
//!
//! Everything is a pure function of the case seed, so a failing case is
//! reproduced exactly by `replay <seed>` — including the engine's own
//! randomness, which is seeded from the same value.

use mstream_core::{EpochSpec, InputQueue};
use mstream_types::{
    AttrRef, Catalog, EquiPredicate, JoinQuery, StreamId, StreamSchema, VDur, WindowSpec,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// One generated stream arrival.
#[derive(Clone, Debug)]
pub struct Arrival {
    /// Target pool stream (`R<stream + 1>`).
    pub stream: usize,
    /// Attribute values, as many as the stream's schema has.
    pub values: Vec<u64>,
    /// Processing instant in virtual microseconds (nondecreasing).
    pub at_micros: u64,
}

/// A runtime change to the standing set.
#[derive(Clone, Debug)]
pub enum Churn {
    /// `remove_query` of this registered query id.
    Remove(usize),
    /// `add_query` of this query, registered under the next dense id.
    Add(JoinQuery),
}

/// What a case feeds the engine: arrivals, and churn events each applied
/// just before the arrival at its position (in list order on a tie; a
/// position equal to the trace length applies after the last arrival).
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// The arrivals, in processing order.
    pub arrivals: Vec<Arrival>,
    /// `(position, event)`, sorted by position.
    pub churn: Vec<(usize, Churn)>,
}

/// How one query of the standing set relates to the queries before it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MixKind {
    /// The first query of the set.
    Base,
    /// An exact clone of an earlier query (joins its class).
    Duplicate,
    /// An earlier query's stream span with fresh windows and attributes —
    /// shares stores where `(stream, window)` agree.
    Overlap,
    /// An independently drawn stream span.
    Fresh,
}

/// One audit case: a standing set of 1–4 queries over the pool streams
/// `R1..Rm`, the engine configuration and the trace.
#[derive(Clone)]
pub struct Case {
    /// The seed this case was generated from.
    pub seed: u64,
    /// Arity of each pool stream; every query naming it shares the schema.
    pub arity: Vec<usize>,
    /// The standing queries, in registration order.
    pub queries: Vec<JoinQuery>,
    /// How each query relates to its predecessors (same indexing).
    pub kinds: Vec<MixKind>,
    /// Tumbling-epoch discipline shared by every query.
    pub epoch: EpochSpec,
    /// The tuples every window holds in the reduced-memory runs.
    pub capacity: usize,
    /// Worker count for the sharded runs (2 or 4).
    pub shards: usize,
    /// The disorder bound `K` of the event-time runs (zero: in order).
    pub disorder: VDur,
    /// Whether every predicate of every query joins on attribute 0.
    pub keyed: bool,
    /// The skewed-key class (`seed % 8 == 4`): keyed, with ~60% of
    /// join-key values on one value, so one shard takes most arrivals.
    pub zipf_hot: bool,
    /// The score-cache A/B class (odd seeds); even seeds run the
    /// plain/eager pair instead.
    pub cache_ab: bool,
    /// The wide-bank class (`seed % 16 == 9`): sketch banks of 1 000
    /// copies, the engine's own sizing, so the frozen query's vector body
    /// runs under the invariant checks; every other case keeps 32 copies,
    /// one sign word.
    pub wide_bank: bool,
    /// The queued class (`seed % 16` of 3 or 10): the input queue every
    /// in-process run is built with. Its cases draw time windows only and
    /// carry no churn and no disorder.
    pub queue: Option<InputQueue>,
    /// The arrivals and churn.
    pub trace: Trace,
}

impl Case {
    /// Whether the trace carries an `add_query` or `remove_query`.
    pub fn has_churn(&self) -> bool {
        !self.trace.churn.is_empty()
    }

    /// Every query `trace` registers, adds last, each with the half-open
    /// range of arrival positions it is registered over.
    pub fn registered<'a>(&'a self, trace: &'a Trace) -> Vec<(&'a JoinQuery, Range<usize>)> {
        let len = trace.arrivals.len();
        let mut out: Vec<_> = self.queries.iter().map(|q| (q, 0..len)).collect();
        for (at, event) in &trace.churn {
            match event {
                Churn::Remove(q) => out[*q].1.end = *at,
                Churn::Add(query) => out.push((query, *at..len)),
            }
        }
        out
    }

    /// Whether some query joins more streams than the probe keeps binding
    /// slots for inline (8), so its probes spill.
    pub fn spills(&self) -> bool {
        self.queries.iter().any(|q| q.n_streams() > 8)
    }

    /// Whether the reduced-memory runs can shed nothing: every window
    /// `trace` registers is a `ROWS n` with room for `n` (DESIGN.md §16).
    /// In process, those runs must equal the oracle exactly.
    pub fn cannot_shed(&self, trace: &Trace) -> bool {
        let room = |w: &WindowSpec| matches!(w, WindowSpec::Tuples(n) if self.capacity as u64 >= *n);
        self.registered(trace).iter().all(|(q, _)| q.windows().iter().all(room))
    }

    /// Whether the input queue is transparent over `trace`: it serves in
    /// no time (a 0 µs service interval) and holds the longest run of
    /// same-instant arrivals, so every tuple is served at its arrival
    /// instant and none is shed. True without a queue.
    pub fn queue_is_transparent(&self, trace: &Trace) -> bool {
        let Some(queue) = self.queue else {
            return true;
        };
        let (mut burst, mut longest) = (0, 0);
        for (i, a) in trace.arrivals.iter().enumerate() {
            let same = i > 0 && trace.arrivals[i - 1].at_micros == a.at_micros;
            burst = if same { burst + 1 } else { 1 };
            longest = longest.max(burst);
        }
        VDur::from_rate(queue.service_rate).is_zero() && queue.capacity >= longest
    }

    /// Whether the streams the set uses differ in arity.
    pub fn mixed_arity(&self) -> bool {
        let used = catalog_order(&self.queries);
        used.iter().any(|&p| self.arity[p] != self.arity[used[0]])
    }
}

/// The pool stream behind each of `query`'s local streams.
pub fn pool_streams(query: &JoinQuery) -> Vec<usize> {
    let name = |s: &StreamSchema| s.name[1..].parse::<usize>().expect("pool names are R<n>") - 1;
    query.catalog().iter().map(|(_, s)| name(s)).collect()
}

/// The pool streams of the engine catalog `queries` build, in its order
/// (first appearance in registration order).
pub fn catalog_order(queries: &[JoinQuery]) -> Vec<usize> {
    let mut order = Vec::new();
    for p in queries.iter().flat_map(pool_streams) {
        if !order.contains(&p) {
            order.push(p);
        }
    }
    order
}

const ATTRS: [&str; 4] = ["A1", "A2", "A3", "A4"];
const TIME_SECS: [u64; 4] = [4, 9, 18, 36];
const TUPLES: [u64; 4] = [3, 6, 12, 23];
/// A service rate whose interval rounds to 0 µs.
const INSTANT_SERVICE: f64 = 1e9;
/// The overloaded service rates, tuples per second (arrivals average
/// about 1.3 a second).
const SLOW_SERVICE: [f64; 3] = [0.5, 1.0, 2.0];

/// The draws every query of one case shares.
struct Shape<'a> {
    arity: &'a [usize],
    /// 0 all-time windows, 1 all-tuple, 2 mixed per stream.
    flavour: u8,
    keyed: bool,
    /// The 9-stream class: tuple windows of 2–4 keep its join small.
    wide: bool,
}

/// A query over the pool streams `lo..hi`: a chain, each edge doubled
/// with probability 0.2 (a residual predicate on that probe step),
/// closed into a cycle with probability 0.3 (3+ streams). Windows come
/// from small menus so overlapping queries share stores.
fn build(rng: &mut StdRng, (lo, hi): (usize, usize), shape: &Shape) -> JoinQuery {
    let m = hi - lo;
    let mut catalog = Catalog::new();
    for p in lo..hi {
        catalog.add_stream(StreamSchema::new(
            format!("R{}", p + 1),
            &ATTRS[..shape.arity[p]],
        ));
    }
    let windows = (0..m)
        .map(|_| {
            let time = match shape.flavour {
                0 => true,
                1 => false,
                _ => rng.gen_bool(0.5),
            };
            if shape.wide {
                WindowSpec::Tuples(rng.gen_range(2..=4))
            } else if time {
                WindowSpec::Time(VDur::from_secs(TIME_SECS[rng.gen_range(0..4)]))
            } else {
                WindowSpec::Tuples(TUPLES[rng.gen_range(0..4)])
            }
        })
        .collect();
    let edge = |rng: &mut StdRng, a: usize, b: usize| {
        let mut side = |k: usize| {
            let attr = if shape.keyed {
                0
            } else {
                rng.gen_range(0..shape.arity[lo + k])
            };
            AttrRef::new(StreamId(k), attr)
        };
        EquiPredicate::new(side(a), side(b))
    };
    let mut predicates = Vec::new();
    for k in 0..m - 1 {
        predicates.push(edge(rng, k, k + 1));
        if rng.gen_bool(0.2) {
            predicates.push(edge(rng, k, k + 1));
        }
    }
    if m >= 3 && rng.gen_bool(0.3) {
        predicates.push(edge(rng, m - 1, 0));
    }
    JoinQuery::new(catalog, predicates, windows).expect("chains are connected")
}

/// Generates the audit case for `seed`.
///
/// Pinned classes (arithmetic on the seed, so they hold in every sweep):
/// `seed % 8 == 0` all-tuple windows and keyed (real multi-shard runs with
/// coalesced expiry ticks), `seed % 8 == 4` Zipf-hot keys, `seed % 16 == 2`
/// a 9-stream chain (the probe's binding slots spill), `seed % 16 == 6`
/// all-tuple windows with the reduced capacity equal to the longest (no
/// window can fill: every class idles), `seed % 16` of 3 or 10 the queued
/// class, `seed % 16 == 9` the wide bank, odd seeds the score-cache A/B
/// pair, even seeds the plain/eager pair.
pub fn generate_case(seed: u64) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    let tuple_shard = seed % 8 == 0;
    let zipf_hot = seed % 8 == 4;
    let wide = seed % 16 == 2;
    let unfillable = seed % 16 == 6;
    // Under queue shedding a `ROWS n` window holds the last n *served*
    // arrivals, which an oracle fed every arrival does not bound.
    let queue_class = matches!(seed % 16, 3 | 10);
    let n_queries = if rng.gen_bool(0.5) {
        1
    } else {
        rng.gen_range(2..=4usize)
    };
    // A hot key multiplies rows per arrival by its share on every step, so
    // Zipf-hot queries join at most three streams.
    let max_width = if zipf_hot { 3 } else { 5 };
    let pool = match (wide, n_queries) {
        (true, _) => 9,
        (false, 1) => rng.gen_range(2..=max_width),
        _ => 5,
    };
    let arity: Vec<usize> = (0..pool).map(|_| rng.gen_range(1..=4usize)).collect();
    let shape = Shape {
        arity: &arity,
        flavour: if tuple_shard || wide || unfillable {
            1
        } else if queue_class {
            0
        } else {
            rng.gen_range(0..3u8)
        },
        keyed: tuple_shard || zipf_hot || rng.gen_bool(0.4),
        wide,
    };
    let span = |rng: &mut StdRng| {
        let m = rng.gen_range(2..=max_width.min(4));
        let lo = rng.gen_range(0..=pool - m);
        (lo, lo + m)
    };

    let first = if n_queries == 1 || wide {
        (0, pool)
    } else {
        span(&mut rng)
    };
    let mut queries = vec![build(&mut rng, first, &shape)];
    let mut spans = vec![first];
    let mut kinds = vec![MixKind::Base];
    for _ in 1..n_queries {
        let i = rng.gen_range(0..queries.len());
        let (kind, query, s) = match rng.gen_range(0..3u8) {
            0 => (MixKind::Duplicate, queries[i].clone(), spans[i]),
            1 => (
                MixKind::Overlap,
                build(&mut rng, spans[i], &shape),
                spans[i],
            ),
            _ => {
                let s = span(&mut rng);
                (MixKind::Fresh, build(&mut rng, s, &shape), s)
            }
        };
        queries.push(query);
        spans.push(s);
        kinds.push(kind);
    }
    let used = catalog_order(&queries);

    let epoch = if shape.flavour == 1 {
        EpochSpec::PerStreamTuples(rng.gen_range(4..32u64))
    } else {
        EpochSpec::Time(VDur::from_secs(rng.gen_range(2..20u64)))
    };

    // Small value domains force joins; a wider widest query gets a wider
    // domain (the 9-stream class's tiny windows keep its own joins
    // small), so rows per arrival stay in the tens. Bursty clocks force
    // expirations to land on and around window boundaries.
    let widest = queries.iter().map(JoinQuery::n_streams).max().unwrap_or(2);
    let domain = rng.gen_range(2..6u64) + if wide { 0 } else { 2 * (widest as u64 - 2) };
    let len = rng.gen_range(60..160usize);
    let mut clock = 0u64;
    let arrivals = (0..len)
        .map(|_| {
            // ~1/4 of arrivals share the previous instant; the rest step
            // forward up to 2 virtual seconds.
            if !rng.gen_bool(0.25) {
                clock += rng.gen_range(1..2_000_000u64);
            }
            let stream = used[rng.gen_range(0..used.len())];
            let values = (0..arity[stream])
                .map(|a| {
                    // Zipf-hot cases put ~60% of join keys (attribute 0,
                    // the partition key of every keyed shape) on 0.
                    if a == 0 && zipf_hot && rng.gen_bool(0.6) {
                        0
                    } else {
                        rng.gen_range(0..domain)
                    }
                })
                .collect();
            Arrival {
                stream,
                values,
                at_micros: clock,
            }
        })
        .collect();

    let mut capacity = rng.gen_range(2..8usize);
    let shards = if rng.gen_bool(0.5) { 2 } else { 4 };

    // Churn (sets of two or more): positions keep a quarter of the trace
    // on either side. Any query may be removed, the owner of a shared
    // store included; keyed sets add a fresh query over a standing span,
    // the others a clone — the shapes a sharded run of any width accepts.
    let mut churn = Vec::new();
    if n_queries > 1 && !queue_class {
        let at = |rng: &mut StdRng| rng.gen_range(len / 4..3 * len / 4);
        if rng.gen_bool(0.3) {
            churn.push((at(&mut rng), Churn::Remove(rng.gen_range(0..n_queries))));
        }
        if rng.gen_bool(0.3) {
            let i = rng.gen_range(0..n_queries);
            let query = if shape.keyed {
                build(&mut rng, spans[i], &shape)
            } else {
                queries[i].clone()
            };
            churn.push((at(&mut rng), Churn::Add(query)));
        }
        churn.sort_by_key(|&(at, _)| at);
    }
    if unfillable {
        let added = churn.iter().filter_map(|(_, c)| match c {
            Churn::Add(q) => Some(q),
            Churn::Remove(_) => None,
        });
        let windows = queries.iter().chain(added).flat_map(|q| q.windows().to_vec());
        let longest = windows.map(|w| match w {
            WindowSpec::Tuples(n) => n as usize,
            WindowSpec::Time(_) => unreachable!("the class draws tuple windows only"),
        });
        capacity = longest.max().expect("a query has windows");
    }
    // Disorder and churn exclude each other: under a bound, registration
    // takes effect at the release frontier, not at a trace position. The
    // queue excludes both: it serves arrivals in arrival order, and a
    // registration takes effect at its service frontier.
    let disorder = if churn.is_empty() && !queue_class && rng.gen_bool(0.5) {
        VDur::from_micros(rng.gen_range(100_000..6_000_000u64))
    } else {
        VDur::from_micros(0)
    };
    let keyed = shape.keyed;
    // Drawn off the case's own rng, which the queue's draws do not shift.
    let queue = queue_class.then(|| {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5_5A5A_A5A5_5A5A);
        let capacity = rng.gen_range(1..=5usize);
        let service_rate = match rng.gen_bool(0.5) {
            true => INSTANT_SERVICE,
            false => SLOW_SERVICE[rng.gen_range(0..SLOW_SERVICE.len())],
        };
        InputQueue {
            service_rate,
            capacity,
        }
    });

    Case {
        seed,
        arity,
        queries,
        kinds,
        epoch,
        capacity,
        shards,
        disorder,
        keyed,
        zipf_hot,
        cache_ab: seed % 2 == 1,
        wide_bank: seed % 16 == 9,
        queue,
        trace: Trace { arrivals, churn },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mstream_types::Partitioning;

    fn partitions(case: &Case) -> bool {
        let keyed = |q: &JoinQuery| matches!(q.partitioning(), Partitioning::ByKey { .. });
        case.queries.iter().all(keyed)
    }

    /// Every eighth seed is the all-tuple-window keyed class, so sweeps
    /// always run real multi-shard runs with coalesced expiry ticks.
    #[test]
    fn every_eighth_seed_pins_sharded_tuple_windows() {
        for seed in [0u64, 8, 16, 64, 800, 4096] {
            let case = generate_case(seed);
            let tuples = |q: &JoinQuery| q.all_tuple_based();
            assert!(
                case.queries.iter().all(tuples),
                "seed {seed}: tuple windows only"
            );
            assert!(
                partitions(&case),
                "seed {seed}: pinned class must partition by key"
            );
        }
    }

    /// Every `seed % 16 == 6` gives each window room for its length, so no
    /// reduced-memory run in process can shed; other seeds mostly can.
    #[test]
    fn every_sixteenth_seed_offset_six_pins_windows_that_cannot_fill() {
        for seed in [6u64, 22, 38, 54, 806, 4102] {
            let case = generate_case(seed);
            assert!(case.cannot_shed(&case.trace), "seed {seed}");
        }
        let fillable = (0..40u64).map(generate_case).filter(|c| !c.cannot_shed(&c.trace));
        assert!(fillable.count() > 30, "other seeds stay fillable");
    }

    /// Every `seed % 8 == 4` is keyed and concentrates well over its
    /// uniform share of join keys on one value.
    #[test]
    fn every_eighth_seed_offset_four_pins_zipf_hot_keys() {
        for seed in [4u64, 12, 20, 68, 804, 4100] {
            let case = generate_case(seed);
            assert!(case.zipf_hot && partitions(&case), "seed {seed}");
            let arrivals = &case.trace.arrivals;
            let hot = arrivals.iter().filter(|a| a.values[0] == 0).count();
            assert!(
                hot * 2 > arrivals.len(),
                "seed {seed}: {hot}/{} hot",
                arrivals.len()
            );
        }
        assert!(!generate_case(3).zipf_hot, "other seeds stay unpinned");
    }

    /// Every `seed % 16` of 3 or 10 is queued, over time windows without
    /// churn or disorder; within 100 such seeds the class draws every
    /// capacity 1–5, instant and slow service, and queues that are and are
    /// not transparent. The policies draw every victim mode between them.
    #[test]
    fn the_queued_class_covers_capacities_rates_and_victim_modes() {
        let mut capacities = std::collections::BTreeSet::new();
        let (mut instant, mut slow, mut transparent, mut opaque) = (0, 0, 0, 0);
        for seed in (0..800u64).filter(|s| matches!(s % 16, 3 | 10)) {
            let case = generate_case(seed);
            let queue = case.queue.expect("queued class");
            let windows = case.queries.iter().flat_map(|q| q.windows());
            let tuples = windows
                .filter(|w| matches!(w, WindowSpec::Tuples(_)))
                .count();
            assert_eq!(tuples, 0, "seed {seed}: time windows only");
            assert!(
                case.trace.churn.is_empty() && case.disorder.is_zero(),
                "seed {seed}"
            );
            capacities.insert(queue.capacity);
            match VDur::from_rate(queue.service_rate).is_zero() {
                true => instant += 1,
                false => slow += 1,
            }
            match case.queue_is_transparent(&case.trace) {
                true => transparent += 1,
                false => opaque += 1,
            }
        }
        assert_eq!(capacities.into_iter().collect::<Vec<_>>(), [1, 2, 3, 4, 5]);
        assert!(instant > 0 && slow > 0 && transparent > 0 && opaque > 0);
        assert!(
            generate_case(5).queue.is_none(),
            "other seeds stay unqueued"
        );
        use mstream_core::{parse_policy, ALL_POLICY_NAMES};
        let victim = |n: &&str| format!("{:?}", parse_policy(n).unwrap().queue_victim());
        let modes: std::collections::BTreeSet<String> =
            ALL_POLICY_NAMES.iter().map(victim).collect();
        assert_eq!(modes.len(), 3, "{modes:?}");
    }

    /// Every set opens with its base query; the later members draw every
    /// other mix kind within 60 seeds.
    #[test]
    fn multi_case_generator_covers_all_mix_kinds() {
        let mut later = Vec::new();
        for seed in 0..60u64 {
            let case = generate_case(seed);
            assert_eq!(case.kinds.len(), case.queries.len(), "seed {seed}");
            assert_eq!(case.kinds[0], MixKind::Base, "seed {seed}");
            later.extend_from_slice(&case.kinds[1..]);
        }
        assert!(!later.contains(&MixKind::Base), "base is only first");
        for kind in [MixKind::Duplicate, MixKind::Overlap, MixKind::Fresh] {
            assert!(later.contains(&kind), "{kind:?} never drawn in 60 seeds");
        }
    }
}
