//! The state handed to a policy when it scores a tuple.

use mstream_sketch::{SignCacheStats, TumblingFreq, TumblingSketches};
use mstream_types::{JoinQuery, StreamId, Tuple, VTime};
use rand::rngs::StdRng;

/// What a policy needs the engine to maintain on its behalf.
///
/// Keeping unneeded state costs time and memory (e.g. exact frequency
/// tables are exactly the overhead the paper's sketches avoid), so the
/// engine materializes only what the active policy declares.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Requirements {
    /// Maintain tumbling AGMS sketches (productivity estimation).
    pub sketches: bool,
    /// Maintain exact per-predicate partner-frequency tables.
    pub partner_freq: bool,
    /// Track per-tuple produced-output counters (and refresh priorities as
    /// they grow).
    pub produced_counters: bool,
    /// Rebuild all window priorities at tumbling-epoch rollovers.
    pub recompute_on_epoch: bool,
}

/// Estimation state lent to [`crate::ShedPolicy`] scoring calls.
///
/// `sketches` and `partner_freq` are `Option`s: they are only populated
/// when the policy's [`Requirements`] asked for them, and a policy that
/// touches state it did not declare panics loudly (a programming error,
/// caught by tests, not a data condition).
pub struct PriorityCtx<'a> {
    /// The query (for predicate incidence and window specs).
    pub query: &'a JoinQuery,
    /// Tumbling sketches, if required.
    pub sketches: Option<&'a mut TumblingSketches>,
    /// Tumbling partner-frequency tables, if required.
    pub partner_freq: Option<&'a TumblingFreq>,
    /// Current virtual time (for lifetime-based policies).
    pub now: VTime,
    /// The engine's seeded rng (for randomized policies).
    pub rng: &'a mut StdRng,
}

impl<'a> PriorityCtx<'a> {
    /// Sketch-estimated productivity of `tuple`, clamped at zero.
    ///
    /// AGMS estimates are signed and unbounded: zero/negative estimates
    /// clamp to 0, and non-finite estimates (overflowed products, NaN)
    /// clamp through [`crate::policies::clamp_score`] so lifetime-weighted
    /// policies can never derive a `0 × ∞ = NaN` heap priority from them.
    /// A frozen epoch that saw no arrivals estimates exactly 0, so policies
    /// that divide by the estimate floor the denominator at `f64::EPSILON`.
    ///
    /// # Panics
    /// Panics if the policy did not declare `sketches` in its requirements.
    pub fn productivity(&mut self, tuple: &Tuple) -> f64 {
        let sketches = self
            .sketches
            .as_deref_mut()
            .expect("policy did not declare Requirements::sketches");
        crate::policies::clamp_score(sketches.productivity(tuple.stream, &tuple.values)).max(0.0)
    }

    /// Productivity of `tuple` against the *current* (still accumulating)
    /// epoch's sketches instead of the last completed epoch — the costly
    /// variant the paper rejects (§4: priorities would have to be
    /// recomputed on every arrival). Exposed for the epoch-discipline
    /// ablation.
    ///
    /// # Panics
    /// Panics if the policy did not declare `sketches`.
    pub fn current_productivity(&mut self, tuple: &Tuple) -> f64 {
        let sketches = self
            .sketches
            .as_deref_mut()
            .expect("policy did not declare Requirements::sketches");
        crate::policies::clamp_score(sketches.current_productivity(tuple.stream, &tuple.values))
            .max(0.0)
    }

    /// Product over the predicates incident to `tuple.stream` of the
    /// partner window's frequency of the tuple's join value — the `Prob`
    /// pairwise measure.
    ///
    /// # Panics
    /// Panics if the policy did not declare `partner_freq`.
    pub fn partner_frequency(&self, tuple: &Tuple) -> f64 {
        let pf = self
            .partner_freq
            .expect("policy did not declare Requirements::partner_freq");
        let mut product = 1.0f64;
        for &(pred_idx, attr) in self.query.incident(tuple.stream) {
            let v = tuple.values[attr];
            product *= pf.partner_count(pred_idx, tuple.stream, v) as f64;
        }
        product
    }

    /// The partner-window frequency of `tuple`'s join value on its
    /// **designated binary-join-tree pair** — the lowest-index predicate
    /// incident to its stream, matching a left-deep decomposition such as
    /// `(R1 ⋈ R2) ⋈ R3`. This is the paper's `Bjoin` measure: the middle
    /// stream consults only its first pair and is blind to the rest of the
    /// multi-way join (exactly the deficiency the paper demonstrates).
    ///
    /// # Panics
    /// Panics if the policy did not declare `partner_freq`.
    pub fn binary_tree_frequency(&self, tuple: &Tuple) -> f64 {
        let pf = self
            .partner_freq
            .expect("policy did not declare Requirements::partner_freq");
        let &(pred_idx, attr) = self
            .query
            .incident(tuple.stream)
            .first()
            .expect("every stream of a connected join has a predicate");
        pf.partner_count(pred_idx, tuple.stream, tuple.values[attr]) as f64
    }

    /// Seconds of lifetime `tuple` has left in its window (time-based
    /// windows; tuple-based windows fall back to 1.0 since remaining
    /// lifetime is measured in arrivals the engine cannot foresee).
    pub fn remaining_lifetime_secs(&self, tuple: &Tuple) -> f64 {
        match self.query.window(tuple.stream) {
            mstream_types::WindowSpec::Time(p) => {
                let expiry = tuple.ts.saturating_add(p);
                expiry.since(self.now).as_secs_f64()
            }
            mstream_types::WindowSpec::Tuples(_) => 1.0,
        }
    }

    /// Hit/miss/occupancy counters of the sketch bank's packed-sign memo,
    /// when the policy runs with sketches (`None` otherwise). Lets policy
    /// diagnostics report how much of the productivity hot path is served
    /// from memoized sign vectors.
    pub fn sketch_cache_stats(&self) -> Option<SignCacheStats> {
        self.sketches.as_deref().map(|s| s.sign_cache_stats())
    }

    /// Number of streams in the query.
    pub fn n_streams(&self) -> usize {
        self.query.n_streams()
    }

    /// The stream of interest's window length `p` in seconds, if
    /// time-based.
    pub fn window_secs(&self, stream: StreamId) -> Option<f64> {
        match self.query.window(stream) {
            mstream_types::WindowSpec::Time(p) => Some(p.as_secs_f64()),
            mstream_types::WindowSpec::Tuples(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mstream_sketch::{BankConfig, EpochSpec};
    use mstream_types::{Catalog, SeqNo, StreamSchema, VDur, Value, WindowSpec};
    use rand::SeedableRng;

    fn chain3() -> JoinQuery {
        chain3_over(WindowSpec::secs(100))
    }

    fn chain3_over(window: WindowSpec) -> JoinQuery {
        let mut c = Catalog::new();
        c.add_stream(StreamSchema::new("R1", &["A1", "A2"]));
        c.add_stream(StreamSchema::new("R2", &["A1", "A2"]));
        c.add_stream(StreamSchema::new("R3", &["A1", "A2"]));
        JoinQuery::from_names(c, &[("R1.A1", "R2.A1"), ("R2.A2", "R3.A1")], window).unwrap()
    }

    fn tup(stream: usize, ts: u64, a: u64, b: u64) -> Tuple {
        Tuple::new(
            StreamId(stream),
            VTime::from_secs(ts),
            SeqNo(0),
            vec![Value(a), Value(b)],
        )
    }

    #[test]
    fn remaining_lifetime_counts_down() {
        let q = chain3();
        let mut rng = StdRng::seed_from_u64(0);
        let ctx = PriorityCtx {
            query: &q,
            sketches: None,
            partner_freq: None,
            now: VTime::from_secs(30),
            rng: &mut rng,
        };
        // Arrived at t=10 with p=100: 80s left at t=30.
        assert_eq!(ctx.remaining_lifetime_secs(&tup(0, 10, 1, 1)), 80.0);
        // Already expired tuples saturate at 0.
        let ctx2 = PriorityCtx {
            now: VTime::from_secs(200),
            ..ctx
        };
        assert_eq!(ctx2.remaining_lifetime_secs(&tup(0, 10, 1, 1)), 0.0);
    }

    #[test]
    fn a_window_that_never_closes_has_all_of_time_left() {
        // `ts + p` past u64::MAX µs: wrapped, the sum read as a deadline
        // long gone (0 s left, so `Age` ranked every resident last).
        let q = chain3_over(WindowSpec::Time(VDur::from_micros(u64::MAX)));
        let mut rng = StdRng::seed_from_u64(0);
        let ctx = PriorityCtx {
            query: &q,
            sketches: None,
            partner_freq: None,
            now: VTime::from_secs(20),
            rng: &mut rng,
        };
        let end_of_time = VTime::from_micros(u64::MAX);
        let left = ctx.remaining_lifetime_secs(&tup(0, 10, 1, 1));
        assert_eq!(left, end_of_time.since(VTime::from_secs(20)).as_secs_f64());
    }

    #[test]
    fn partner_frequency_multiplies_incident_predicates() {
        let q = chain3();
        let mut pf = TumblingFreq::new(&q, EpochSpec::Time(VDur::from_secs(1000)));
        // First epoch: the tables fall back to the live (current) counts.
        // R2 sees three arrivals with A1=7 and A2=4.
        for _ in 0..3 {
            pf.observe(StreamId(1), &[Value(7), Value(4)], VTime::ZERO);
        }
        // R3 sees two arrivals with A1=4; R1 sees one with A1=7.
        for _ in 0..2 {
            pf.observe(StreamId(2), &[Value(4), Value(0)], VTime::ZERO);
        }
        pf.observe(StreamId(0), &[Value(7), Value(9)], VTime::ZERO);
        let mut rng = StdRng::seed_from_u64(0);
        let ctx = PriorityCtx {
            query: &q,
            sketches: None,
            partner_freq: Some(&pf),
            now: VTime::ZERO,
            rng: &mut rng,
        };
        // R1 tuple with A1=7: 3 partner arrivals on R2.
        assert_eq!(ctx.partner_frequency(&tup(0, 0, 7, 0)), 3.0);
        assert_eq!(ctx.binary_tree_frequency(&tup(0, 0, 7, 0)), 3.0);
        // R2 tuple (7, 4): full product = 1 (R1) x 2 (R3) = 2, but the
        // binary-tree measure only consults its first pair (R1) = 1.
        assert_eq!(ctx.partner_frequency(&tup(1, 0, 7, 4)), 2.0);
        assert_eq!(ctx.binary_tree_frequency(&tup(1, 0, 7, 4)), 1.0);
        // R3 tuple with A1=9: no partner -> 0.
        assert_eq!(ctx.partner_frequency(&tup(2, 0, 9, 0)), 0.0);
    }

    #[test]
    fn partner_frequency_uses_last_epoch_after_rollover() {
        let q = chain3();
        let mut pf = TumblingFreq::new(&q, EpochSpec::Time(VDur::from_secs(10)));
        for _ in 0..4 {
            pf.observe(StreamId(1), &[Value(7), Value(4)], VTime::ZERO);
        }
        // Cross the epoch boundary; the new arrival lands in the fresh
        // current epoch.
        pf.observe(StreamId(1), &[Value(9), Value(9)], VTime::from_secs(11));
        let mut rng = StdRng::seed_from_u64(0);
        let ctx = PriorityCtx {
            query: &q,
            sketches: None,
            partner_freq: Some(&pf),
            now: VTime::from_secs(11),
            rng: &mut rng,
        };
        // R1 consults R2's LAST epoch: 4 sevens, zero nines.
        assert_eq!(ctx.binary_tree_frequency(&tup(0, 11, 7, 0)), 4.0);
        assert_eq!(ctx.binary_tree_frequency(&tup(0, 11, 9, 0)), 0.0);
    }

    #[test]
    fn productivity_clamps_negative_estimates() {
        let q = chain3();
        let mut sk = TumblingSketches::new(
            &q,
            BankConfig {
                s1: 2,
                s2: 1,
                seed: 1,
            },
            EpochSpec::Time(VDur::from_secs(100)),
        );
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx = PriorityCtx {
            query: &q,
            sketches: Some(&mut sk),
            partner_freq: None,
            now: VTime::ZERO,
            rng: &mut rng,
        };
        // Empty sketches -> estimate 0, and never below.
        assert!(ctx.productivity(&tup(0, 0, 1, 1)) >= 0.0);
    }

    #[test]
    fn sketch_cache_stats_exposed_when_sketches_present() {
        let q = chain3();
        let mut sk = TumblingSketches::new(
            &q,
            BankConfig {
                s1: 4,
                s2: 1,
                seed: 2,
            },
            EpochSpec::Time(VDur::from_secs(100)),
        );
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx = PriorityCtx {
            query: &q,
            sketches: Some(&mut sk),
            partner_freq: None,
            now: VTime::ZERO,
            rng: &mut rng,
        };
        assert_eq!(ctx.sketch_cache_stats().unwrap().misses, 0);
        let _ = ctx.productivity(&tup(0, 0, 1, 1));
        let _ = ctx.productivity(&tup(0, 0, 1, 1));
        let stats = ctx.sketch_cache_stats().unwrap();
        assert!(stats.misses >= 1, "first sign lookup evaluates");
        assert!(stats.hits >= 1, "repeated sign lookup memoized");
        let mut rng2 = StdRng::seed_from_u64(0);
        let ctx2 = PriorityCtx {
            query: &q,
            sketches: None,
            partner_freq: None,
            now: VTime::ZERO,
            rng: &mut rng2,
        };
        assert!(ctx2.sketch_cache_stats().is_none());
    }

    #[test]
    #[should_panic(expected = "did not declare")]
    fn undeclared_sketch_access_panics() {
        let q = chain3();
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx = PriorityCtx {
            query: &q,
            sketches: None,
            partner_freq: None,
            now: VTime::ZERO,
            rng: &mut rng,
        };
        let _ = ctx.productivity(&tup(0, 0, 1, 1));
    }

    #[test]
    fn tuple_windows_report_unit_lifetime() {
        let mut c = Catalog::new();
        c.add_stream(StreamSchema::new("R1", &["A1"]));
        c.add_stream(StreamSchema::new("R2", &["A1"]));
        let q = JoinQuery::from_names(c, &[("R1.A1", "R2.A1")], WindowSpec::Tuples(10)).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let ctx = PriorityCtx {
            query: &q,
            sketches: None,
            partner_freq: None,
            now: VTime::from_secs(5),
            rng: &mut rng,
        };
        let t = Tuple::new(StreamId(0), VTime::ZERO, SeqNo(0), vec![Value(1)]);
        assert_eq!(ctx.remaining_lifetime_secs(&t), 1.0);
        assert_eq!(ctx.window_secs(StreamId(0)), None);
    }
}
