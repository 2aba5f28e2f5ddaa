//! Exact value-frequency tables — the state behind the `Bjoin` baseline.
//!
//! The multi-binary-join approach the paper compares against (Das et al.'s
//! `Prob` applied pairwise) prioritizes a tuple by the *frequency of its
//! join value in the partner stream*: an estimate of how many partner
//! arrivals the tuple can expect to meet, computed from the partner's
//! observed value distribution. That needs an exact frequency table per
//! (stream, join attribute) pair — `O(Σ |dom(A_i)|)` space, which is
//! precisely the cost the paper's complexity section charges the baseline
//! with (vs. `O(s1·s2·Σ log |dom(A_i)|)` for the sketches).
//!
//! [`TumblingFreq`] maintains these tables under the same tumbling-epoch
//! discipline as the AGMS sketches (accumulate the current epoch, score
//! from the last completed one), so the `Bjoin`/`Life` baselines and the
//! sketch policies estimate the same forward-looking quantity and differ
//! only in *pairwise-exact vs multi-way-sketched*.

use crate::tumbling::EpochSpec;
use mstream_types::{JoinQuery, StreamId, VTime, Value, WordBuild};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// An exact multiset of values with O(1) add/remove/count.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct FreqTable {
    counts: HashMap<Value, u64, WordBuild>,
    total: u64,
}

impl FreqTable {
    /// An empty table.
    pub fn new() -> Self {
        FreqTable::default()
    }

    /// Records one occurrence of `v`.
    pub fn add(&mut self, v: Value) {
        *self.counts.entry(v).or_insert(0) += 1;
        self.total += 1;
    }

    /// Removes one occurrence of `v`.
    ///
    /// # Panics
    /// Panics if `v` is not present — the window store and its frequency
    /// tables must never disagree, so a miss is a logic error.
    pub fn remove(&mut self, v: Value) {
        match self.counts.get_mut(&v) {
            Some(c) if *c > 1 => *c -= 1,
            Some(_) => {
                self.counts.remove(&v);
            }
            None => panic!("FreqTable::remove of absent value {v}"),
        }
        self.total -= 1;
    }

    /// The multiplicity of `v`.
    #[inline]
    pub fn count(&self, v: Value) -> u64 {
        self.counts.get(&v).copied().unwrap_or(0)
    }

    /// Total number of recorded occurrences.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct values present.
    #[inline]
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Whether the table is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Iterates over `(value, multiplicity)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (Value, u64)> + '_ {
        self.counts.iter().map(|(&v, &c)| (v, c))
    }
}

/// Partner-frequency bookkeeping for the `Bjoin` baseline.
///
/// For every equi-join predicate `j` and each of its two endpoint windows,
/// a [`FreqTable`] over the *partner* endpoint's values is kept; a tuple's
/// `Bjoin` priority is the product, over the predicates incident to its
/// stream, of the partner-window frequency of its join value — i.e. the
/// productivity the tuple would have if the query were decomposed into
/// independent binary joins (the decision that "disregards the content of
/// streams outside the joined pair").
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PartnerFrequency {
    /// `tables[pred]` = (freq of left endpoint's window, freq of right's).
    tables: Vec<(FreqTable, FreqTable)>,
}

impl PartnerFrequency {
    /// Builds empty tables for `n_predicates` predicates.
    pub fn new(n_predicates: usize) -> Self {
        PartnerFrequency {
            tables: vec![(FreqTable::new(), FreqTable::new()); n_predicates],
        }
    }

    /// Records that a tuple with value `v` on the **left** endpoint of
    /// predicate `pred` entered its window.
    pub fn add_left(&mut self, pred: usize, v: Value) {
        self.tables[pred].0.add(v);
    }

    /// Records that a tuple with value `v` on the **right** endpoint of
    /// predicate `pred` entered its window.
    pub fn add_right(&mut self, pred: usize, v: Value) {
        self.tables[pred].1.add(v);
    }

    /// Removes a left-endpoint occurrence.
    pub fn remove_left(&mut self, pred: usize, v: Value) {
        self.tables[pred].0.remove(v);
    }

    /// Removes a right-endpoint occurrence.
    pub fn remove_right(&mut self, pred: usize, v: Value) {
        self.tables[pred].1.remove(v);
    }

    /// Frequency of `v` among **left**-endpoint window tuples of `pred`
    /// (what a right-endpoint tuple consults).
    pub fn left_count(&self, pred: usize, v: Value) -> u64 {
        self.tables[pred].0.count(v)
    }

    /// Frequency of `v` among **right**-endpoint window tuples of `pred`
    /// (what a left-endpoint tuple consults).
    pub fn right_count(&self, pred: usize, v: Value) -> u64 {
        self.tables[pred].1.count(v)
    }
}

/// Tumbling-epoch partner-frequency tables over *arrival* streams.
///
/// Mirrors [`crate::TumblingSketches`]: each processed tuple is folded into
/// the current epoch's tables; priorities are answered from the last
/// completed epoch (per-stream fallback to the current tables while a
/// stream's first epoch is still open); time-based epochs roll everything
/// at once, tuple-based epochs roll per stream.
#[derive(Clone, Debug)]
pub struct TumblingFreq {
    /// `(predicate, attr on stream, this stream is the predicate's left
    /// endpoint)` for every stream.
    incidence: Vec<Vec<(usize, usize, bool)>>,
    /// `partner[pred]` = (left endpoint stream, right endpoint stream).
    endpoints: Vec<(usize, usize)>,
    current: PartnerFrequency,
    last: PartnerFrequency,
    /// Whether stream `k` has completed at least one epoch.
    has_last: Vec<bool>,
    epoch: EpochSpec,
    next_roll: VTime,
    arrivals: Vec<u64>,
}

impl TumblingFreq {
    /// Builds empty tables for `query`.
    pub fn new(query: &JoinQuery, epoch: EpochSpec) -> Self {
        let n = query.n_streams();
        let incidence = (0..n)
            .map(|s| {
                let sid = StreamId(s);
                query
                    .incident(sid)
                    .iter()
                    .map(|&(pred, attr)| {
                        (pred, attr, query.predicates()[pred].left.stream == sid)
                    })
                    .collect()
            })
            .collect();
        let endpoints = query
            .predicates()
            .iter()
            .map(|p| (p.left.stream.index(), p.right.stream.index()))
            .collect();
        let next_roll = match epoch {
            EpochSpec::Time(d) => {
                assert!(!d.is_zero(), "epoch length must be positive");
                VTime::ZERO + d
            }
            EpochSpec::PerStreamTuples(c) => {
                assert!(c > 0, "epoch tuple count must be positive");
                VTime::ZERO
            }
        };
        TumblingFreq {
            incidence,
            endpoints,
            current: PartnerFrequency::new(query.predicates().len()),
            last: PartnerFrequency::new(query.predicates().len()),
            has_last: vec![false; n],
            epoch,
            next_roll,
            arrivals: vec![0; n],
        }
    }

    /// Folds an arriving tuple into the current epoch and performs any due
    /// rollover. Returns `true` when a rollover happened.
    pub fn observe(&mut self, stream: StreamId, values: &[Value], now: VTime) -> bool {
        let mut rolled = false;
        if let EpochSpec::Time(d) = self.epoch {
            while now >= self.next_roll {
                self.roll_all();
                self.next_roll += d;
                rolled = true;
            }
        }
        for &(pred, attr, is_left) in &self.incidence[stream.index()] {
            let v = values[attr];
            if is_left {
                self.current.add_left(pred, v);
            } else {
                self.current.add_right(pred, v);
            }
        }
        if let EpochSpec::PerStreamTuples(c) = self.epoch {
            let k = stream.index();
            self.arrivals[k] += 1;
            if self.arrivals[k] >= c {
                self.arrivals[k] = 0;
                self.roll_stream(stream);
                rolled = true;
            }
        }
        rolled
    }

    fn roll_all(&mut self) {
        let fresh = PartnerFrequency::new(self.current.tables.len());
        self.last = std::mem::replace(&mut self.current, fresh);
        self.has_last.fill(true);
    }

    fn roll_stream(&mut self, stream: StreamId) {
        for &(pred, _, is_left) in &self.incidence[stream.index()] {
            let (cur_l, cur_r) = &mut self.current.tables[pred];
            let (last_l, last_r) = &mut self.last.tables[pred];
            if is_left {
                *last_l = std::mem::take(cur_l);
            } else {
                *last_r = std::mem::take(cur_r);
            }
        }
        self.has_last[stream.index()] = true;
    }

    /// Expected partner frequency of value `v` for a tuple of `of_stream`
    /// on predicate `pred`: the *other* endpoint's count of `v`, taken
    /// from the partner stream's last completed epoch (current tables
    /// while its first epoch is still open).
    ///
    /// # Panics
    /// Panics if `of_stream` is not an endpoint of `pred`.
    pub fn partner_count(&self, pred: usize, of_stream: StreamId, v: Value) -> u64 {
        let (left, right) = self.endpoints[pred];
        let (partner_stream, partner_is_left) = if of_stream.index() == left {
            (right, false)
        } else if of_stream.index() == right {
            (left, true)
        } else {
            panic!("stream {of_stream} is not an endpoint of predicate {pred}");
        };
        let tables = if self.has_last[partner_stream] {
            &self.last
        } else {
            &self.current
        };
        if partner_is_left {
            tables.left_count(pred, v)
        } else {
            tables.right_count(pred, v)
        }
    }

    /// Whether `stream` has completed at least one epoch.
    pub fn has_last_epoch(&self, stream: StreamId) -> bool {
        self.has_last[stream.index()]
    }
}

/// Space-saving top-k frequency tracker (Metwally et al.) over raw `u64`
/// keys — the coordinator-side heavy-hitter detector for skew-adaptive
/// routing.
///
/// Holds at most `capacity` monitored keys. An unmonitored arrival evicts
/// the counter with the smallest count and inherits that count as its
/// `error` bound, so for every monitored key:
///
///   true_count ≤ count,  and  count − error ≤ true_count.
///
/// `guaranteed()` (count − error) is therefore a *lower* bound on the true
/// frequency — promotion decisions key off it so a key is only declared
/// hot when it provably exceeds the threshold, while demotion keys off the
/// upper-bound `estimate()` so hot status is sticky (hysteresis lives in
/// the caller's two thresholds, not here).
///
/// Determinism: counters live in a `Vec` and eviction scans it for the
/// first minimum; the `HashMap` index is only ever used for point lookups,
/// never iterated, so identical observation sequences produce identical
/// trackers regardless of hash seeding.
#[derive(Clone, Debug)]
pub struct SpaceSaving {
    counters: Vec<SsCounter>,
    /// key -> index into `counters`; lookup-only (never iterated).
    index: HashMap<u64, usize, WordBuild>,
    total: u64,
}

#[derive(Clone, Copy, Debug)]
struct SsCounter {
    key: u64,
    count: u64,
    error: u64,
}

impl SpaceSaving {
    /// Tracker monitoring at most `capacity` keys (`capacity >= 1`).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        SpaceSaving {
            counters: Vec::with_capacity(capacity),
            index: HashMap::with_capacity_and_hasher(capacity * 2, WordBuild::default()),
            total: 0,
        }
    }

    /// Record one occurrence of `key`.
    pub fn observe(&mut self, key: u64) {
        self.total += 1;
        if let Some(&i) = self.index.get(&key) {
            self.counters[i].count += 1;
            return;
        }
        if self.counters.len() < self.counters.capacity() {
            self.index.insert(key, self.counters.len());
            self.counters.push(SsCounter { key, count: 1, error: 0 });
            return;
        }
        // Evict the first minimum-count counter; the newcomer inherits its
        // count as the error bound.
        let mut min = 0;
        for (i, c) in self.counters.iter().enumerate().skip(1) {
            if c.count < self.counters[min].count {
                min = i;
            }
        }
        let evicted = self.counters[min];
        self.index.remove(&evicted.key);
        self.index.insert(key, min);
        self.counters[min] = SsCounter {
            key,
            count: evicted.count + 1,
            error: evicted.count,
        };
    }

    /// Upper-bound estimate of `key`'s frequency (0 if unmonitored).
    pub fn estimate(&self, key: u64) -> u64 {
        self.index.get(&key).map_or(0, |&i| self.counters[i].count)
    }

    /// Guaranteed lower bound on `key`'s frequency (0 if unmonitored).
    pub fn guaranteed(&self, key: u64) -> u64 {
        self.index.get(&key).map_or(0, |&i| {
            let c = self.counters[i];
            c.count - c.error
        })
    }

    /// Total observations since the last `clear`.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of monitored keys.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// Whether the tracker has seen nothing since the last `clear`.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// Monitored `(key, count, error)` triples in slot order
    /// (deterministic: insertion/eviction order, never hash order).
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.counters.iter().map(|c| (c.key, c.count, c.error))
    }

    /// Reset for the next epoch, retaining allocated capacity.
    pub fn clear(&mut self) {
        self.counters.clear();
        self.index.clear();
        self.total = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn add_count_remove() {
        let mut t = FreqTable::new();
        assert!(t.is_empty());
        t.add(Value(3));
        t.add(Value(3));
        t.add(Value(5));
        assert_eq!(t.count(Value(3)), 2);
        assert_eq!(t.count(Value(5)), 1);
        assert_eq!(t.count(Value(9)), 0);
        assert_eq!(t.total(), 3);
        assert_eq!(t.distinct(), 2);
        t.remove(Value(3));
        assert_eq!(t.count(Value(3)), 1);
        t.remove(Value(3));
        assert_eq!(t.count(Value(3)), 0);
        assert_eq!(t.distinct(), 1);
        assert_eq!(t.total(), 1);
    }

    #[test]
    #[should_panic(expected = "absent value")]
    fn remove_absent_panics() {
        FreqTable::new().remove(Value(1));
    }

    #[test]
    fn iter_reports_multiplicities() {
        let mut t = FreqTable::new();
        for v in [1u64, 1, 2, 2, 2] {
            t.add(Value(v));
        }
        let mut pairs: Vec<_> = t.iter().collect();
        pairs.sort();
        assert_eq!(pairs, vec![(Value(1), 2), (Value(2), 3)]);
    }

    #[test]
    fn partner_frequency_sides_are_independent() {
        let mut pf = PartnerFrequency::new(2);
        pf.add_left(0, Value(7));
        pf.add_left(0, Value(7));
        pf.add_right(0, Value(7));
        pf.add_right(1, Value(7));
        assert_eq!(pf.left_count(0, Value(7)), 2);
        assert_eq!(pf.right_count(0, Value(7)), 1);
        assert_eq!(pf.left_count(1, Value(7)), 0);
        assert_eq!(pf.right_count(1, Value(7)), 1);
        pf.remove_left(0, Value(7));
        assert_eq!(pf.left_count(0, Value(7)), 1);
    }

    mod tumbling_freq {
        use super::*;
        use mstream_types::{Catalog, StreamSchema, VDur, WindowSpec};

        fn chain3() -> JoinQuery {
            let mut c = Catalog::new();
            c.add_stream(StreamSchema::new("R1", &["A1", "A2"]));
            c.add_stream(StreamSchema::new("R2", &["A1", "A2"]));
            c.add_stream(StreamSchema::new("R3", &["A1", "A2"]));
            JoinQuery::from_names(
                c,
                &[("R1.A1", "R2.A1"), ("R2.A2", "R3.A1")],
                WindowSpec::secs(100),
            )
            .unwrap()
        }

        #[test]
        fn first_epoch_falls_back_to_current_counts() {
            let q = chain3();
            let mut tf = TumblingFreq::new(&q, EpochSpec::Time(VDur::from_secs(100)));
            tf.observe(StreamId(1), &[Value(7), Value(3)], VTime::ZERO);
            tf.observe(StreamId(1), &[Value(7), Value(4)], VTime::ZERO);
            assert!(!tf.has_last_epoch(StreamId(1)));
            // An R1 tuple consults R2's (right endpoint of pred 0) counts.
            assert_eq!(tf.partner_count(0, StreamId(0), Value(7)), 2);
            assert_eq!(tf.partner_count(0, StreamId(0), Value(9)), 0);
            // An R3 tuple consults R2's A2 (left endpoint of pred 1).
            assert_eq!(tf.partner_count(1, StreamId(2), Value(3)), 1);
        }

        #[test]
        fn time_roll_switches_to_last_epoch() {
            let q = chain3();
            let mut tf = TumblingFreq::new(&q, EpochSpec::Time(VDur::from_secs(10)));
            for _ in 0..3 {
                tf.observe(StreamId(1), &[Value(5), Value(0)], VTime::ZERO);
            }
            let rolled = tf.observe(StreamId(1), &[Value(6), Value(0)], VTime::from_secs(11));
            assert!(rolled);
            assert!(tf.has_last_epoch(StreamId(0)));
            // Last epoch holds the three 5s; the 6 is in the current epoch
            // and invisible to scoring.
            assert_eq!(tf.partner_count(0, StreamId(0), Value(5)), 3);
            assert_eq!(tf.partner_count(0, StreamId(0), Value(6)), 0);
        }

        #[test]
        fn tuple_epochs_roll_per_stream() {
            let q = chain3();
            let mut tf = TumblingFreq::new(&q, EpochSpec::PerStreamTuples(2));
            tf.observe(StreamId(1), &[Value(5), Value(0)], VTime::ZERO);
            assert!(!tf.has_last_epoch(StreamId(1)));
            let rolled = tf.observe(StreamId(1), &[Value(5), Value(0)], VTime::ZERO);
            assert!(rolled);
            assert!(tf.has_last_epoch(StreamId(1)));
            assert!(!tf.has_last_epoch(StreamId(2)));
            assert_eq!(tf.partner_count(0, StreamId(0), Value(5)), 2);
            // A third arrival starts the next epoch; scoring still answers
            // from the completed one.
            tf.observe(StreamId(1), &[Value(9), Value(0)], VTime::ZERO);
            assert_eq!(tf.partner_count(0, StreamId(0), Value(9)), 0);
        }

        #[test]
        #[should_panic(expected = "not an endpoint")]
        fn foreign_stream_panics() {
            let q = chain3();
            let tf = TumblingFreq::new(&q, EpochSpec::Time(VDur::from_secs(10)));
            // Predicate 0 joins R1 and R2; asking for R3 is a logic error.
            let _ = tf.partner_count(0, StreamId(2), Value(1));
        }
    }

    mod space_saving {
        use super::*;

        #[test]
        fn exact_within_capacity() {
            let mut ss = SpaceSaving::with_capacity(4);
            for _ in 0..5 {
                ss.observe(10);
            }
            for _ in 0..3 {
                ss.observe(20);
            }
            ss.observe(30);
            assert_eq!(ss.estimate(10), 5);
            assert_eq!(ss.guaranteed(10), 5);
            assert_eq!(ss.estimate(20), 3);
            assert_eq!(ss.estimate(30), 1);
            assert_eq!(ss.estimate(99), 0);
            assert_eq!(ss.total(), 9);
            assert_eq!(ss.len(), 3);
        }

        #[test]
        fn eviction_inherits_count_as_error() {
            let mut ss = SpaceSaving::with_capacity(2);
            ss.observe(1);
            ss.observe(1);
            ss.observe(2);
            // 3 evicts 2 (the min, count 1) and inherits count=2, error=1.
            ss.observe(3);
            assert_eq!(ss.estimate(2), 0);
            assert_eq!(ss.estimate(3), 2);
            assert_eq!(ss.guaranteed(3), 1);
            // 1's counter was never touched.
            assert_eq!(ss.guaranteed(1), 2);
        }

        #[test]
        fn heavy_hitter_survives_noise() {
            // One hot key at ~50% among a churn of cold singletons: the
            // guaranteed bound must still certify it as dominant.
            let mut ss = SpaceSaving::with_capacity(8);
            for i in 0..400u64 {
                ss.observe(7);
                ss.observe(1000 + i); // unique cold key each round
            }
            assert_eq!(ss.total(), 800);
            assert!(ss.estimate(7) >= 400);
            // 7 is never evicted (its count dominates every min scan), so
            // error stays 0 and the guarantee is exact.
            assert_eq!(ss.guaranteed(7), 400);
        }

        #[test]
        fn clear_retains_capacity_and_resets_counts() {
            let mut ss = SpaceSaving::with_capacity(4);
            for k in 0..10u64 {
                ss.observe(k);
            }
            ss.clear();
            assert!(ss.is_empty());
            assert_eq!(ss.total(), 0);
            ss.observe(3);
            assert_eq!(ss.estimate(3), 1);
        }

        #[test]
        fn deterministic_across_runs() {
            let run = || {
                let mut ss = SpaceSaving::with_capacity(3);
                for v in [5u64, 9, 5, 2, 7, 7, 2, 9, 9, 4, 5, 4] {
                    ss.observe(v);
                }
                ss.iter().collect::<Vec<_>>()
            };
            assert_eq!(run(), run());
        }

        proptest! {
            /// Space-saving invariants: counts upper-bound true frequency,
            /// guaranteed lower-bounds it, and total is exact.
            #[test]
            fn bounds_hold(keys in proptest::collection::vec(0u64..12, 1..300)) {
                let mut ss = SpaceSaving::with_capacity(4);
                let mut truth: std::collections::HashMap<u64, u64> = Default::default();
                for &k in &keys {
                    ss.observe(k);
                    *truth.entry(k).or_insert(0) += 1;
                }
                prop_assert_eq!(ss.total(), keys.len() as u64);
                for (&k, &t) in &truth {
                    // Monitored keys overestimate; the guarantee never
                    // exceeds the truth. Unmonitored keys report 0.
                    if ss.estimate(k) > 0 {
                        prop_assert!(ss.estimate(k) >= t);
                        prop_assert!(ss.guaranteed(k) <= t);
                    }
                }
            }
        }
    }

    proptest! {
        /// Adds then removes in arbitrary interleaving never desynchronize
        /// the total from the per-value counts.
        #[test]
        fn totals_stay_consistent(ops in proptest::collection::vec((0u64..8, prop::bool::ANY), 0..200)) {
            let mut t = FreqTable::new();
            let mut reference: std::collections::HashMap<u64, u64> = Default::default();
            for (v, is_add) in ops {
                if is_add {
                    t.add(Value(v));
                    *reference.entry(v).or_insert(0) += 1;
                } else if reference.get(&v).copied().unwrap_or(0) > 0 {
                    t.remove(Value(v));
                    *reference.get_mut(&v).unwrap() -= 1;
                }
            }
            let ref_total: u64 = reference.values().sum();
            prop_assert_eq!(t.total(), ref_total);
            for (&v, &c) in &reference {
                prop_assert_eq!(t.count(Value(v)), c);
            }
        }
    }
}
