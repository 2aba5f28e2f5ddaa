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
//! from the last completed one), so the `Bjoin` baseline and the sketch
//! policies estimate the same forward-looking quantity and differ only in
//! *pairwise-exact vs multi-way-sketched*.

use crate::tumbling::{elapsed_epochs, EpochSpec};
use mstream_types::{JoinQuery, StreamId, VTime, Value, WordBuild};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// An exact multiset of values with O(1) add/count.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub(crate) struct FreqTable {
    counts: HashMap<Value, u64, WordBuild>,
}

impl FreqTable {
    /// An empty table.
    pub(crate) fn new() -> Self {
        FreqTable::default()
    }

    /// Records one occurrence of `v`.
    pub(crate) fn add(&mut self, v: Value) {
        *self.counts.entry(v).or_insert(0) += 1;
    }

    /// The multiplicity of `v`.
    #[inline]
    pub(crate) fn count(&self, v: Value) -> u64 {
        self.counts.get(&v).copied().unwrap_or(0)
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
pub(crate) struct PartnerFrequency {
    /// `tables[pred]` = (freq of left endpoint's window, freq of right's).
    tables: Vec<(FreqTable, FreqTable)>,
}

impl PartnerFrequency {
    /// Builds empty tables for `n_predicates` predicates.
    pub(crate) fn new(n_predicates: usize) -> Self {
        PartnerFrequency {
            tables: vec![(FreqTable::new(), FreqTable::new()); n_predicates],
        }
    }

    /// Records that a tuple with value `v` on the **left** endpoint of
    /// predicate `pred` entered its window.
    pub(crate) fn add_left(&mut self, pred: usize, v: Value) {
        self.tables[pred].0.add(v);
    }

    /// Records that a tuple with value `v` on the **right** endpoint of
    /// predicate `pred` entered its window.
    pub(crate) fn add_right(&mut self, pred: usize, v: Value) {
        self.tables[pred].1.add(v);
    }

    /// Frequency of `v` among **left**-endpoint window tuples of `pred`
    /// (what a right-endpoint tuple consults).
    pub(crate) fn left_count(&self, pred: usize, v: Value) -> u64 {
        self.tables[pred].0.count(v)
    }

    /// Frequency of `v` among **right**-endpoint window tuples of `pred`
    /// (what a left-endpoint tuple consults).
    pub(crate) fn right_count(&self, pred: usize, v: Value) -> u64 {
        self.tables[pred].1.count(v)
    }
}

/// Tumbling-epoch partner-frequency tables over *arrival* streams.
///
/// Mirrors [`crate::sketch::TumblingSketches`]: each processed tuple is folded into
/// the current epoch's tables; priorities are answered from the last
/// completed epoch (per-stream fallback to the current tables while a
/// stream's first epoch is still open); time-based epochs roll everything
/// at once, tuple-based epochs roll per stream.
#[derive(Clone, Debug)]
pub(crate) struct TumblingFreq {
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
    /// Time-mode: where the current epoch began (see
    /// [`crate::sketch::TumblingSketches`]).
    epoch_start: VTime,
    arrivals: Vec<u64>,
}

impl TumblingFreq {
    /// Builds empty tables for `query`.
    pub(crate) fn new(query: &JoinQuery, epoch: EpochSpec) -> Self {
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
        match epoch {
            EpochSpec::Time(d) => assert!(!d.is_zero(), "epoch length must be positive"),
            EpochSpec::PerStreamTuples(c) => assert!(c > 0, "epoch tuple count must be positive"),
        }
        TumblingFreq {
            incidence,
            endpoints,
            current: PartnerFrequency::new(query.predicates().len()),
            last: PartnerFrequency::new(query.predicates().len()),
            has_last: vec![false; n],
            epoch,
            epoch_start: VTime::ZERO,
            arrivals: vec![0; n],
        }
    }

    /// Folds an arriving tuple into the current epoch and performs any due
    /// rollover. Returns `true` when a rollover happened.
    pub(crate) fn observe(&mut self, stream: StreamId, values: &[Value], now: VTime) -> bool {
        let mut rolled = false;
        if let EpochSpec::Time(d) = self.epoch {
            // A gap of k epochs rolls min(k, 2) times: the second roll
            // leaves `last` empty, and every further roll would too.
            let elapsed = elapsed_epochs(&mut self.epoch_start, now, d);
            for _ in 0..elapsed.min(2) {
                self.roll_all();
            }
            rolled = elapsed > 0;
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
    pub(crate) fn partner_count(&self, pred: usize, of_stream: StreamId, v: Value) -> u64 {
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
    #[cfg(test)]
    pub(crate) fn has_last_epoch(&self, stream: StreamId) -> bool {
        self.has_last[stream.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn add_and_count() {
        let mut t = FreqTable::new();
        t.add(Value(3));
        t.add(Value(3));
        t.add(Value(5));
        assert_eq!(t.count(Value(3)), 2);
        assert_eq!(t.count(Value(5)), 1);
        assert_eq!(t.count(Value(9)), 0);
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
    }

    proptest! {
        /// Arbitrary adds keep every per-value total equal to a reference
        /// multiset's.
        #[test]
        fn totals_stay_consistent(ops in proptest::collection::vec(0u64..8, 0..200)) {
            let mut t = FreqTable::new();
            let mut reference: std::collections::HashMap<u64, u64> = Default::default();
            for v in ops {
                t.add(Value(v));
                *reference.entry(v).or_insert(0) += 1;
            }
            for v in 0..8 {
                prop_assert_eq!(t.count(Value(v)), reference.get(&v).copied().unwrap_or(0));
            }
        }
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

        /// A jump of 10^12 epochs rolls twice, not 10^12 times, and leaves
        /// the counts and the epoch grid of a jump of three.
        #[test]
        fn a_jump_of_many_epochs_matches_a_jump_of_three() {
            let q = chain3();
            let n = VDur::from_secs(10);
            let jump = |epochs: u64| {
                let mut tf = TumblingFreq::new(&q, EpochSpec::Time(n));
                tf.observe(StreamId(1), &[Value(5), Value(0)], VTime::from_secs(1));
                let start = VTime::ZERO + n.mul(epochs);
                let at = |secs| start + VDur::from_secs(secs);
                assert!(tf.observe(StreamId(1), &[Value(6), Value(0)], at(4)));
                assert!(!tf.observe(StreamId(2), &[Value(0), Value(1)], at(9)));
                let counts = |tf: &TumblingFreq| {
                    [5, 6, 0].map(|v| {
                        let r2 = tf.partner_count(0, StreamId(0), Value(v));
                        (r2, tf.partner_count(1, StreamId(1), Value(v)))
                    })
                };
                let before = counts(&tf);
                assert!(tf.observe(StreamId(0), &[Value(6), Value(0)], start + n));
                (before, counts(&tf))
            };
            let three = jump(3);
            assert_eq!(three.0, [(0, 0); 3], "the last completed epoch was empty");
            assert_eq!(three.1, [(0, 0), (1, 0), (0, 1)]);
            assert_eq!(jump(1_000_000_000_000), three);
        }

        /// An epoch of 2^62 µs: the boundary after 3·2^62 lies past
        /// `u64::MAX`, so the epoch begun there stays open.
        #[test]
        fn an_epoch_ending_past_the_end_of_time_stays_open() {
            let q = chain3();
            let mut tf = TumblingFreq::new(&q, EpochSpec::Time(VDur::from_micros(1 << 62)));
            tf.observe(StreamId(1), &[Value(5), Value(0)], VTime::from_secs(1));
            let end = VTime::from_micros(u64::MAX);
            let before_end = end - VDur::from_micros(1);
            assert!(tf.observe(StreamId(1), &[Value(6), Value(0)], before_end));
            assert!(!tf.observe(StreamId(1), &[Value(7), Value(0)], end));
            // The last completed epoch, [2·2^62, 3·2^62), was empty.
            assert_eq!(tf.partner_count(0, StreamId(0), Value(5)), 0);
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
}
