//! The concrete policies compared in the paper's evaluation (§5).

use crate::context::{PriorityCtx, Requirements};
use crate::window::QueueVictim;
use mstream_types::Tuple;
use rand::Rng;

/// Largest magnitude a policy score may take.
///
/// The priority heap (`mstream-window`) asserts finiteness, so every score
/// must be clamped into this range before it reaches a priority queue.
pub(crate) const MAX_SCORE: f64 = 1e300;

/// Maps a raw policy score onto the finite range the priority heaps accept.
///
/// AGMS estimates are unbounded sums of signed products, so a pathological
/// input can push a productivity estimate to `±∞`, and lifetime-weighted
/// measures can then produce `0 × ∞ = NaN`. Either would trip the
/// finiteness assert in the window heap and panic the engine mid-run. NaN
/// collapses to `0` (an estimate that carries no information protects
/// nothing); infinities saturate at `±1e300`.
pub(crate) fn clamp_score(score: f64) -> f64 {
    if score.is_nan() {
        0.0
    } else {
        score.clamp(-MAX_SCORE, MAX_SCORE)
    }
}

/// A load-shedding policy: a priority score per tuple.
///
/// Higher scores survive; the engine evicts the minimum when a window or
/// the queue is full. Scores must be finite.
pub trait ShedPolicy: Send {
    /// Short display name (matches the paper's legends).
    fn name(&self) -> &'static str;

    /// A fresh boxed copy of this policy. Sharded execution gives every
    /// worker its own instance, so policies carrying mutable state must
    /// copy it (the built-ins are all stateless unit structs).
    fn clone_box(&self) -> Box<dyn ShedPolicy>;

    /// What engine-maintained state this policy consumes.
    fn requirements(&self) -> Requirements;

    /// Priority of `tuple` as a *window* resident. `produced` is the number
    /// of join results attributed to the tuple so far (0 on arrival); only
    /// policies that declared `produced_counters` see non-zero values.
    fn window_priority(&mut self, ctx: &mut PriorityCtx<'_>, tuple: &Tuple, produced: u64)
        -> f64;

    /// Window priority plus opaque per-tuple state the engine caches so the
    /// priority can be refreshed cheaply as the tuple's produced-output
    /// counter grows ([`ShedPolicy::refresh_priority`]) without touching
    /// the estimation state again — the paper's "productivity computed at
    /// most twice per lifetime" discipline. Policies without
    /// produced-counters just return state 0.
    fn window_priority_with_state(
        &mut self,
        ctx: &mut PriorityCtx<'_>,
        tuple: &Tuple,
        produced: u64,
    ) -> (f64, f64) {
        (self.window_priority(ctx, tuple, produced), 0.0)
    }

    /// Recomputes the priority from cached `state` after the tuple's
    /// produced-output counter changed. Only called for policies that
    /// declare `Requirements::produced_counters`.
    fn refresh_priority(&self, state: f64, produced: u64) -> f64 {
        let _ = (state, produced);
        unreachable!("policy did not declare Requirements::produced_counters")
    }

    /// Whether this policy's window priority factors into a **shareable
    /// estimate** ([`ShedPolicy::window_estimate`]) recombined per tuple by
    /// [`ShedPolicy::window_priority_from_estimate`]. Declaring `true` is a
    /// contract with two clauses the engine exploits at epoch rollovers
    /// (DESIGN.md §16):
    ///
    /// 1. `window_priority_from_estimate(ctx, t, p, window_estimate(ctx, t))`
    ///    returns bit-identically what `window_priority_with_state(ctx, t, p)`
    ///    would, and
    /// 2. `window_estimate` depends on the tuple only through the values of
    ///    its stream's indexed join attributes — tuples agreeing on those
    ///    values share one estimate, so the rollover rebuild computes it
    ///    once per distinct key and fans it out to every resident slot.
    ///
    /// Defaults to `false`: undeclared (e.g. third-party) policies are
    /// rescored per slot exactly as before — they still inherit the
    /// estimate memo underneath the context's productivity estimate, just
    /// not the grouped walk.
    fn groupable_estimate(&self) -> bool {
        false
    }

    /// Whether this policy's window priority is a function of exactly three
    /// things: the tuple's join-key values, its produced count, and the
    /// **frozen** last-epoch sketch snapshot read through the context's
    /// productivity estimate — not of `ctx.now`, `ctx.rng`, the
    /// tuple's timestamp or sequence number, the live bank or the
    /// frequency tables — with [`ShedPolicy::refresh_priority`] agreeing
    /// with a full rescoring at the same produced count. Such a priority
    /// comes out the same whenever between two rollovers it is computed,
    /// so the engine may owe it: a window with room stores arrivals
    /// unscored and skips rollover rebuilds until it first needs a victim
    /// (DESIGN.md §16 lists the conditions the engine checks on its side).
    ///
    /// Defaults to `false`: an undeclared policy is scored on every
    /// arrival and rebuilt at every rollover, as ever.
    fn deferrable_priority(&self) -> bool {
        false
    }

    /// The shareable component of the window priority (see
    /// [`ShedPolicy::groupable_estimate`]). Defaults to the clamped
    /// sketch-estimated productivity — the partner-side quantity every
    /// built-in sketch policy prices tuples with.
    fn window_estimate(&mut self, ctx: &mut PriorityCtx<'_>, tuple: &Tuple) -> f64 {
        ctx.productivity(tuple)
    }

    /// Recombines a previously computed `estimate` with the tuple's
    /// per-slot inputs (produced count, lifetime, …) into
    /// `(priority, policy state)`. The default delegates to the full
    /// scoring path — correct for any policy, just without the saving —
    /// so only policies that declare [`ShedPolicy::groupable_estimate`]
    /// need to override it.
    fn window_priority_from_estimate(
        &mut self,
        ctx: &mut PriorityCtx<'_>,
        tuple: &Tuple,
        produced: u64,
        estimate: f64,
    ) -> (f64, f64) {
        let _ = estimate;
        self.window_priority_with_state(ctx, tuple, produced)
    }

    /// Priority of `tuple` as a *queue* resident. Defaults to the window
    /// priority with `produced = 0` (a queued tuple has produced nothing).
    fn queue_priority(&mut self, ctx: &mut PriorityCtx<'_>, tuple: &Tuple) -> f64 {
        self.window_priority(ctx, tuple, 0)
    }

    /// How a full queue chooses its victim.
    fn queue_victim(&self) -> QueueVictim {
        QueueVictim::MinPriority
    }
}

impl Clone for Box<dyn ShedPolicy> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// `MSketch` (paper §3.2, Max-Subset): evict the tuple with least
/// sketch-estimated productivity `|T_{W_i={t}}|`, maximizing the output
/// size of the approximate join.
#[derive(Clone, Copy, Debug, Default)]
pub struct MSketch;

impl ShedPolicy for MSketch {
    fn clone_box(&self) -> Box<dyn ShedPolicy> {
        Box::new(*self)
    }

    fn name(&self) -> &'static str {
        "MSketch"
    }

    fn requirements(&self) -> Requirements {
        Requirements {
            sketches: true,
            recompute_on_epoch: true,
            ..Default::default()
        }
    }

    fn window_priority(&mut self, ctx: &mut PriorityCtx<'_>, tuple: &Tuple, _produced: u64) -> f64 {
        ctx.productivity(tuple)
    }

    fn groupable_estimate(&self) -> bool {
        true
    }

    fn deferrable_priority(&self) -> bool {
        true
    }

    fn window_priority_from_estimate(
        &mut self,
        _ctx: &mut PriorityCtx<'_>,
        _tuple: &Tuple,
        _produced: u64,
        estimate: f64,
    ) -> (f64, f64) {
        // The priority IS the shared estimate.
        (estimate, 0.0)
    }
}

/// `MSketch-RS` (paper §3.2, Random Sampling): evict the tuple that has
/// already produced the largest *fraction* of its expected output
/// `(n−1)·prod(t)`, equalizing per-tuple output fractions so the emitted
/// result is a statistically accurate uniform sample of the true join.
/// Queued tuples all carry priority 1 and the queue sheds uniformly at
/// random.
#[derive(Clone, Copy, Debug, Default)]
pub struct MSketchRs;

impl ShedPolicy for MSketchRs {
    fn clone_box(&self) -> Box<dyn ShedPolicy> {
        Box::new(*self)
    }

    fn name(&self) -> &'static str {
        "MSketch-RS"
    }

    fn requirements(&self) -> Requirements {
        Requirements {
            sketches: true,
            produced_counters: true,
            recompute_on_epoch: true,
            ..Default::default()
        }
    }

    fn window_priority(&mut self, ctx: &mut PriorityCtx<'_>, tuple: &Tuple, produced: u64) -> f64 {
        self.window_priority_with_state(ctx, tuple, produced).0
    }

    fn window_priority_with_state(
        &mut self,
        ctx: &mut PriorityCtx<'_>,
        tuple: &Tuple,
        produced: u64,
    ) -> (f64, f64) {
        let estimate = ctx.productivity(tuple);
        self.window_priority_from_estimate(ctx, tuple, produced, estimate)
    }

    fn groupable_estimate(&self) -> bool {
        true
    }

    fn deferrable_priority(&self) -> bool {
        true
    }

    /// Recombine: scale the shared estimate to the expected output
    /// `(n−1)·prod(t)`, then apply the per-tuple produced count. This is
    /// the cacheable-estimate / cheap-combiner split — a credit refresh or
    /// a grouped rebuild reprices the tuple without re-estimating.
    fn window_priority_from_estimate(
        &mut self,
        ctx: &mut PriorityCtx<'_>,
        _tuple: &Tuple,
        produced: u64,
        estimate: f64,
    ) -> (f64, f64) {
        let expected = (ctx.n_streams() as f64 - 1.0) * estimate;
        (self.refresh_priority(expected, produced), expected)
    }

    /// Fraction of the cached expected output still to come. A tuple whose
    /// expectation is (near-)zero has nothing left to contribute to the
    /// sample — its remaining fraction is zero, so it is shed before any
    /// tuple that still owes output (otherwise dead tuples would be
    /// immortal at priority 1 and crowd every producer out of memory).
    /// Over-producers go further negative. Clamps keep scores finite.
    ///
    /// AGMS estimates can be zero or negative; a NaN expectation lands in
    /// the dead-tuple branch explicitly, so the division below only ever
    /// sees a denominator above the `EPSILON` floor (a saturated `+∞`
    /// expectation divides to 0 and scores the full fraction, which is the
    /// conservative direction).
    fn refresh_priority(&self, expected: f64, produced: u64) -> f64 {
        if expected.is_nan() || expected <= f64::EPSILON {
            if produced == 0 {
                0.0
            } else {
                clamp_score(-(produced as f64) * 1e6)
            }
        } else {
            (1.0 - produced as f64 / expected).max(-1e12)
        }
    }

    fn queue_priority(&mut self, _ctx: &mut PriorityCtx<'_>, _tuple: &Tuple) -> f64 {
        1.0
    }

    fn queue_victim(&self) -> QueueVictim {
        QueueVictim::Random
    }
}

/// `Age` (paper §5): priority = remaining lifetime × productivity. The
/// paper includes it to show that remaining lifetime is *not* a useful
/// factor (it raises a tuple's future gain and its storage cost at the
/// same rate), and finds it performs like `Random`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Age;

impl ShedPolicy for Age {
    fn clone_box(&self) -> Box<dyn ShedPolicy> {
        Box::new(*self)
    }

    fn name(&self) -> &'static str {
        "Age"
    }

    fn requirements(&self) -> Requirements {
        Requirements {
            sketches: true,
            recompute_on_epoch: true,
            ..Default::default()
        }
    }

    fn window_priority(&mut self, ctx: &mut PriorityCtx<'_>, tuple: &Tuple, _produced: u64) -> f64 {
        let life = ctx.remaining_lifetime_secs(tuple);
        life * ctx.productivity(tuple)
    }

    fn groupable_estimate(&self) -> bool {
        true
    }

    /// Recombine: the per-tuple remaining lifetime scales the shared
    /// productivity estimate (same factor order as the full path).
    fn window_priority_from_estimate(
        &mut self,
        ctx: &mut PriorityCtx<'_>,
        tuple: &Tuple,
        _produced: u64,
        estimate: f64,
    ) -> (f64, f64) {
        (ctx.remaining_lifetime_secs(tuple) * estimate, 0.0)
    }
}

/// `Bjoin` (paper §1/§5): the multi-binary-join baseline — Das et al.'s
/// `Prob` applied to a left-deep binary decomposition such as
/// `(R1 ⋈ R2) ⋈ R3`. Each window's priority is the partner frequency of
/// its tuple's join value on its designated pair only; the content of
/// every stream outside that pair is disregarded, which is exactly the
/// deficiency the paper demonstrates.
#[derive(Clone, Copy, Debug, Default)]
pub struct Bjoin;

impl ShedPolicy for Bjoin {
    fn clone_box(&self) -> Box<dyn ShedPolicy> {
        Box::new(*self)
    }

    fn name(&self) -> &'static str {
        "Bjoin"
    }

    fn requirements(&self) -> Requirements {
        Requirements {
            partner_freq: true,
            recompute_on_epoch: true,
            ..Default::default()
        }
    }

    fn window_priority(&mut self, ctx: &mut PriorityCtx<'_>, tuple: &Tuple, _produced: u64) -> f64 {
        ctx.binary_tree_frequency(tuple)
    }
}

/// `Random` (paper §5): evict uniformly at random — every tuple draws a
/// uniform score at arrival.
#[derive(Clone, Copy, Debug, Default)]
pub struct RandomLoad;

impl ShedPolicy for RandomLoad {
    fn clone_box(&self) -> Box<dyn ShedPolicy> {
        Box::new(*self)
    }

    fn name(&self) -> &'static str {
        "Random"
    }

    fn requirements(&self) -> Requirements {
        Requirements::default()
    }

    fn window_priority(&mut self, ctx: &mut PriorityCtx<'_>, _tuple: &Tuple, _produced: u64) -> f64 {
        ctx.rng.gen::<f64>()
    }

    fn queue_victim(&self) -> QueueVictim {
        QueueVictim::Random
    }
}

/// `FIFO` (paper §5): drop the oldest tuple — the score is the arrival
/// sequence number.
#[derive(Clone, Copy, Debug, Default)]
pub struct Fifo;

impl ShedPolicy for Fifo {
    fn clone_box(&self) -> Box<dyn ShedPolicy> {
        Box::new(*self)
    }

    fn name(&self) -> &'static str {
        "FIFO"
    }

    fn requirements(&self) -> Requirements {
        Requirements::default()
    }

    fn window_priority(&mut self, _ctx: &mut PriorityCtx<'_>, tuple: &Tuple, _produced: u64) -> f64 {
        tuple.seq.0 as f64
    }

    fn queue_victim(&self) -> QueueVictim {
        QueueVictim::Oldest
    }
}

/// Ablation variant of [`MSketch`] that scores against the *current*
/// (still-accumulating) epoch's sketches instead of the last completed
/// tumbling window. More reactive to the newest distribution but
/// systematically under-estimates early in each epoch (the sketch has seen
/// few tuples); the paper's design choice of last-epoch scoring is
/// validated by benchmarking this variant against it.
#[derive(Clone, Copy, Debug, Default)]
pub struct MSketchCurrentEpoch;

impl ShedPolicy for MSketchCurrentEpoch {
    fn clone_box(&self) -> Box<dyn ShedPolicy> {
        Box::new(*self)
    }

    fn name(&self) -> &'static str {
        "MSketch-Current"
    }

    fn requirements(&self) -> Requirements {
        Requirements {
            sketches: true,
            recompute_on_epoch: true,
            ..Default::default()
        }
    }

    fn window_priority(&mut self, ctx: &mut PriorityCtx<'_>, tuple: &Tuple, _produced: u64) -> f64 {
        ctx.current_productivity(tuple)
    }

    fn groupable_estimate(&self) -> bool {
        // The live bank does not change *during* a rebuild pass, so equal
        // join-key values still share one current-epoch estimate there —
        // the estimate is simply never memoized across arrivals.
        true
    }

    fn window_estimate(&mut self, ctx: &mut PriorityCtx<'_>, tuple: &Tuple) -> f64 {
        ctx.current_productivity(tuple)
    }

    fn window_priority_from_estimate(
        &mut self,
        _ctx: &mut PriorityCtx<'_>,
        _tuple: &Tuple,
        _produced: u64,
        estimate: f64,
    ) -> (f64, f64) {
        (estimate, 0.0)
    }
}

/// All built-in policy names, in the paper's reporting order.
pub const ALL_POLICY_NAMES: &[&str] = &[
    "MSketch",
    "MSketch-RS",
    "Age",
    "Bjoin",
    "Random",
    "FIFO",
];

/// Instantiates a built-in policy by (case-insensitive) name.
pub fn parse_policy(name: &str) -> Option<Box<dyn ShedPolicy>> {
    match name.to_ascii_lowercase().as_str() {
        "msketch" => Some(Box::new(MSketch)),
        "msketch-current" | "msketchcurrent" => Some(Box::new(MSketchCurrentEpoch)),
        "msketch-rs" | "msketchrs" | "rs" => Some(Box::new(MSketchRs)),
        "age" => Some(Box::new(Age)),
        "bjoin" => Some(Box::new(Bjoin)),
        "random" => Some(Box::new(RandomLoad)),
        "fifo" => Some(Box::new(Fifo)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::{BankConfig, EpochSpec, TumblingFreq, TumblingSketches};
    use mstream_types::{
        Catalog, JoinQuery, SeqNo, StreamId, StreamSchema, VDur, VTime, Value, WindowSpec,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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

    fn tup(stream: usize, seq: u64, ts: u64, a: u64, b: u64) -> Tuple {
        Tuple::new(
            StreamId(stream),
            VTime::from_secs(ts),
            SeqNo(seq),
            vec![Value(a), Value(b)],
        )
    }

    /// Builds sketches where R2 holds 20 copies of (9, 3) and R3 holds 10
    /// tuples with A1=3 — so an R1 tuple with A1=9 has productivity ~200.
    fn hot_sketches(q: &JoinQuery) -> TumblingSketches {
        let mut sk = TumblingSketches::new(
            q,
            BankConfig {
                s1: 300,
                s2: 1,
                seed: 9,
            },
            EpochSpec::Time(VDur::from_secs(1000)),
        );
        for _ in 0..20 {
            sk.observe(StreamId(1), &[Value(9), Value(3)], VTime::ZERO);
        }
        for i in 0..10 {
            sk.observe(StreamId(2), &[Value(3), Value(i)], VTime::ZERO);
        }
        sk
    }

    fn ctx<'a>(
        q: &'a JoinQuery,
        sk: Option<&'a mut TumblingSketches>,
        pf: Option<&'a TumblingFreq>,
        now: u64,
        rng: &'a mut StdRng,
    ) -> PriorityCtx<'a> {
        PriorityCtx {
            query: q,
            sketches: sk,
            partner_freq: pf,
            now: VTime::from_secs(now),
            rng,
        }
    }

    #[test]
    fn msketch_prefers_productive_tuples() {
        let q = chain3();
        let mut sk = hot_sketches(&q);
        let mut rng = StdRng::seed_from_u64(0);
        let mut p = MSketch;
        let mut c = ctx(&q, Some(&mut sk), None, 0, &mut rng);
        let hot = p.window_priority(&mut c, &tup(0, 0, 0, 9, 0), 0);
        let cold = p.window_priority(&mut c, &tup(0, 1, 0, 1, 0), 0);
        assert!(hot > cold + 50.0, "hot={hot} cold={cold}");
        assert!(cold >= 0.0, "clamped at zero");
    }

    #[test]
    fn msketch_queue_score_equals_window_score() {
        let q = chain3();
        let mut sk = hot_sketches(&q);
        let mut rng = StdRng::seed_from_u64(0);
        let mut p = MSketch;
        let t = tup(0, 0, 0, 9, 0);
        let w = p.window_priority(&mut ctx(&q, Some(&mut sk), None, 0, &mut rng), &t, 0);
        let qp = p.queue_priority(&mut ctx(&q, Some(&mut sk), None, 0, &mut rng), &t);
        assert_eq!(w, qp);
        assert_eq!(p.queue_victim(), QueueVictim::MinPriority);
    }

    #[test]
    fn rs_priority_decreases_as_tuple_produces() {
        let q = chain3();
        let mut sk = hot_sketches(&q);
        let mut rng = StdRng::seed_from_u64(0);
        let mut p = MSketchRs;
        let t = tup(0, 0, 0, 9, 0);
        let fresh = p.window_priority(&mut ctx(&q, Some(&mut sk), None, 0, &mut rng), &t, 0);
        let half = p.window_priority(&mut ctx(&q, Some(&mut sk), None, 0, &mut rng), &t, 200);
        let over = p.window_priority(&mut ctx(&q, Some(&mut sk), None, 0, &mut rng), &t, 800);
        assert!(fresh > half && half > over, "{fresh} > {half} > {over}");
        assert!((fresh - 1.0).abs() < 0.2, "fresh tuple has ~full fraction left");
    }

    #[test]
    fn rs_gives_zero_expectation_tuples_no_protection() {
        let q = chain3();
        let mut sk = TumblingSketches::new(
            &q,
            BankConfig {
                s1: 4,
                s2: 1,
                seed: 0,
            },
            EpochSpec::Time(VDur::from_secs(1000)),
        );
        let mut rng = StdRng::seed_from_u64(0);
        let mut p = MSketchRs;
        let t = tup(0, 0, 0, 1, 0);
        // Empty sketches: expectation 0.
        let idle = p.window_priority(&mut ctx(&q, Some(&mut sk), None, 0, &mut rng), &t, 0);
        let over = p.window_priority(&mut ctx(&q, Some(&mut sk), None, 0, &mut rng), &t, 5);
        assert_eq!(idle, 0.0, "nothing left to contribute");
        assert!(over < -1e5);
    }

    #[test]
    fn negative_productivity_estimates_score_finite() {
        // With a single sketch copy the AGMS estimate is one signed
        // product, so roughly half of all values carry a *negative*
        // estimate — the raw quantity MSketch-RS would divide by. Find one
        // and check every policy that consumes productivity stays finite
        // and clamped.
        let q = chain3();
        let mut sk = TumblingSketches::new(
            &q,
            BankConfig {
                s1: 1,
                s2: 1,
                seed: 3,
            },
            EpochSpec::Time(VDur::from_secs(1000)),
        );
        for i in 0..8 {
            sk.observe(StreamId(1), &[Value(i), Value(i)], VTime::ZERO);
            sk.observe(StreamId(2), &[Value(i), Value(0)], VTime::ZERO);
        }
        let negative = (0..64)
            .find(|&a| sk.current_productivity(StreamId(0), &[Value(a), Value(0)]) < 0.0)
            .expect("a single-copy sketch has negative estimates");
        let t = tup(0, 0, 0, negative, 0);
        let mut rng = StdRng::seed_from_u64(0);
        // The clamped context estimate is exactly zero.
        let mut c = ctx(&q, Some(&mut sk), None, 0, &mut rng);
        assert_eq!(c.productivity(&t), 0.0);
        // MSketch / Age: zero, not negative or NaN.
        assert_eq!(MSketch.window_priority(&mut c, &t, 0), 0.0);
        assert_eq!(Age.window_priority(&mut c, &t, 0), 0.0);
        // MSketch-RS: the expected-output denominator is <= 0, so the
        // remaining-fraction division must not run; the dead-tuple branch
        // yields finite scores for any produced count.
        let mut p = MSketchRs;
        for produced in [0, 1, 10, u64::MAX] {
            let (score, state) = p.window_priority_with_state(&mut c, &t, produced);
            assert!(score.is_finite(), "produced={produced} score={score}");
            assert!(state.is_finite());
            assert!(p.refresh_priority(state, produced).is_finite());
        }
        assert_eq!(p.window_priority(&mut c, &t, 0), 0.0);
        assert!(p.window_priority(&mut c, &t, 3) < 0.0, "over-producer sheds first");
    }

    #[test]
    fn tuple_against_empty_last_epoch_scores_finite() {
        // A gap of two or more epochs leaves the `last` snapshot all-zero,
        // so a tuple of the current epoch gets a productivity estimate of
        // exactly 0. MSketch-RS divides produced output by that
        // expectation — without the EPSILON denominator floor this would
        // be 0/0 = NaN straight into a priority heap.
        let q = chain3();
        let mut sk = TumblingSketches::new(
            &q,
            BankConfig {
                s1: 4,
                s2: 1,
                seed: 5,
            },
            EpochSpec::Time(VDur::from_secs(10)),
        );
        // One populated first epoch, then a jump across several empty
        // epochs: the frozen snapshot ends up all-zero.
        sk.observe(StreamId(1), &[Value(3), Value(3)], VTime::ZERO);
        sk.observe(StreamId(2), &[Value(3), Value(0)], VTime::ZERO);
        sk.observe(StreamId(1), &[Value(0), Value(0)], VTime::from_secs(55));
        let mut rng = StdRng::seed_from_u64(0);
        let mut c = ctx(&q, Some(&mut sk), None, 55, &mut rng);
        // A tuple of the current epoch [50, 60).
        let t = tup(0, 0, 55, 3, 0);
        assert_eq!(c.productivity(&t), 0.0, "empty frozen epoch estimates 0");
        assert_eq!(MSketch.window_priority(&mut c, &t, 0), 0.0);
        let age = Age.window_priority(&mut c, &t, 0);
        assert!(age.is_finite() && age >= 0.0, "age={age}");
        let mut p = MSketchRs;
        for produced in [0, 1, 10, u64::MAX] {
            let (score, state) = p.window_priority_with_state(&mut c, &t, produced);
            assert!(score.is_finite(), "produced={produced} score={score}");
            assert!(state.is_finite());
            assert!(p.refresh_priority(state, produced).is_finite());
        }
        assert_eq!(
            p.window_priority(&mut c, &t, 0),
            0.0,
            "a dead tuple gets no protection, not a NaN priority"
        );
        assert!(p.window_priority(&mut c, &t, 3) < 0.0);
    }

    #[test]
    fn clamp_score_maps_every_float_into_heap_range() {
        assert_eq!(clamp_score(f64::NAN), 0.0);
        assert_eq!(clamp_score(f64::INFINITY), MAX_SCORE);
        assert_eq!(clamp_score(f64::NEG_INFINITY), -MAX_SCORE);
        assert_eq!(clamp_score(42.5), 42.5);
        assert_eq!(clamp_score(-0.0), -0.0);
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, f64::MAX, 1e307] {
            assert!(clamp_score(v).is_finite());
        }
        // NaN expectations (estimator misuse) take the dead-tuple branch.
        let p = MSketchRs;
        assert_eq!(p.refresh_priority(f64::NAN, 0), 0.0);
        assert!(p.refresh_priority(f64::NAN, 7).is_finite());
        assert_eq!(p.refresh_priority(f64::INFINITY, 123), 1.0);
    }

    #[test]
    fn rs_queue_is_uniform() {
        let q = chain3();
        let mut rng = StdRng::seed_from_u64(0);
        let mut p = MSketchRs;
        let mut c = ctx(&q, None, None, 0, &mut rng);
        assert_eq!(p.queue_priority(&mut c, &tup(0, 0, 0, 9, 0)), 1.0);
        assert_eq!(p.queue_victim(), QueueVictim::Random);
    }

    #[test]
    fn age_scales_productivity_by_lifetime() {
        let q = chain3();
        let mut sk = hot_sketches(&q);
        let mut rng = StdRng::seed_from_u64(0);
        let mut p = Age;
        // Same value, one tuple much older (arrived t=0, now t=80 -> 20s
        // left) than the other (arrived t=80 -> 100s left).
        let old = p.window_priority(
            &mut ctx(&q, Some(&mut sk), None, 80, &mut rng),
            &tup(0, 0, 0, 9, 0),
            0,
        );
        let young = p.window_priority(
            &mut ctx(&q, Some(&mut sk), None, 80, &mut rng),
            &tup(0, 1, 80, 9, 0),
            0,
        );
        assert!(young > 4.0 * old, "young={young} old={old}");
    }

    /// Arrival-frequency tables (first epoch, falls back to current): R2
    /// has seen two (7, 4) arrivals and one (9, 4); R3 has seen one (4, 0).
    fn demo_freq(q: &JoinQuery) -> TumblingFreq {
        let mut pf = TumblingFreq::new(q, EpochSpec::Time(VDur::from_secs(1000)));
        pf.observe(StreamId(1), &[Value(7), Value(4)], VTime::ZERO);
        pf.observe(StreamId(1), &[Value(7), Value(4)], VTime::ZERO);
        pf.observe(StreamId(1), &[Value(9), Value(4)], VTime::ZERO);
        pf.observe(StreamId(2), &[Value(4), Value(0)], VTime::ZERO);
        pf
    }

    #[test]
    fn bjoin_uses_its_designated_pair_only() {
        let q = chain3();
        let pf = demo_freq(&q);
        let mut rng = StdRng::seed_from_u64(0);
        let mut p = Bjoin;
        let mut c = ctx(&q, None, Some(&pf), 0, &mut rng);
        // R1 consults the R2 pair: two A1=7 arrivals.
        assert_eq!(p.window_priority(&mut c, &tup(0, 0, 0, 7, 0), 0), 2.0);
        // R2 consults ONLY its first pair (R1, empty): score 0 even though
        // its A2=4 has an R3 partner — the blindness the paper criticizes.
        assert_eq!(p.window_priority(&mut c, &tup(1, 1, 0, 7, 4), 0), 0.0);
        // R3 consults the R2 pair on A2: one arrival with A2=4... in fact
        // all three R2 arrivals carry A2=4.
        assert_eq!(p.window_priority(&mut c, &tup(2, 2, 0, 4, 0), 0), 3.0);
    }

    #[test]
    fn random_draws_differ_and_need_nothing() {
        let q = chain3();
        let mut rng = StdRng::seed_from_u64(0);
        let mut p = RandomLoad;
        assert_eq!(p.requirements(), Requirements::default());
        let mut c = ctx(&q, None, None, 0, &mut rng);
        let t = tup(0, 0, 0, 1, 1);
        let a = p.window_priority(&mut c, &t, 0);
        let b = p.window_priority(&mut c, &t, 0);
        assert_ne!(a, b, "fresh draw per call");
        assert!((0.0..1.0).contains(&a));
    }

    #[test]
    fn fifo_orders_by_sequence() {
        let q = chain3();
        let mut rng = StdRng::seed_from_u64(0);
        let mut p = Fifo;
        let mut c = ctx(&q, None, None, 0, &mut rng);
        let older = p.window_priority(&mut c, &tup(0, 3, 0, 1, 1), 0);
        let newer = p.window_priority(&mut c, &tup(0, 9, 0, 1, 1), 0);
        assert!(older < newer, "oldest evicted first");
        assert_eq!(p.queue_victim(), QueueVictim::Oldest);
    }

    #[test]
    fn parse_policy_round_trips_all_names() {
        for name in ALL_POLICY_NAMES {
            let p = parse_policy(name).unwrap_or_else(|| panic!("{name} should parse"));
            assert_eq!(&p.name(), name);
        }
        assert!(parse_policy("nope").is_none());
        assert_eq!(parse_policy("rs").unwrap().name(), "MSketch-RS");
    }

    #[test]
    fn estimate_split_recombines_bit_identically() {
        // The groupable-estimate contract (clause 1): for every policy
        // declaring the split, recombining window_estimate through
        // window_priority_from_estimate must reproduce the full scoring
        // path bit for bit — this is what lets the rollover rebuild share
        // one estimate across every slot of a join key.
        let q = chain3();
        let policies: Vec<Box<dyn ShedPolicy>> = vec![
            Box::new(MSketch),
            Box::new(MSketchRs),
            Box::new(Age),
            Box::new(MSketchCurrentEpoch),
        ];
        for mut p in policies {
            assert!(p.groupable_estimate(), "{} declares the split", p.name());
            for produced in [0u64, 200, 800] {
                for (a, b) in [(9, 0), (1, 0), (3, 3)] {
                    let t = tup(0, 0, 0, a, b);
                    let mut sk = hot_sketches(&q);
                    let mut rng = StdRng::seed_from_u64(0);
                    let full = p.window_priority_with_state(
                        &mut ctx(&q, Some(&mut sk), None, 80, &mut rng),
                        &t,
                        produced,
                    );
                    let mut sk2 = hot_sketches(&q);
                    let mut rng2 = StdRng::seed_from_u64(0);
                    let est =
                        p.window_estimate(&mut ctx(&q, Some(&mut sk2), None, 80, &mut rng2), &t);
                    let split = p.window_priority_from_estimate(
                        &mut ctx(&q, Some(&mut sk2), None, 80, &mut rng2),
                        &t,
                        produced,
                        est,
                    );
                    assert_eq!(
                        full.0.to_bits(),
                        split.0.to_bits(),
                        "{} score, produced={produced} value=({a},{b})",
                        p.name()
                    );
                    assert_eq!(
                        full.1.to_bits(),
                        split.1.to_bits(),
                        "{} state, produced={produced} value=({a},{b})",
                        p.name()
                    );
                }
            }
        }
        // The non-sketch built-ins keep the per-slot path.
        assert!(!Bjoin.groupable_estimate());
        assert!(!RandomLoad.groupable_estimate());
        assert!(!Fifo.groupable_estimate());
    }

    #[test]
    fn requirements_match_paper_costs() {
        // The sketch policies must NOT require exact frequency tables, and
        // the binary-join baselines must not require sketches — this is the
        // space-cost comparison of paper §4.
        assert!(MSketch.requirements().sketches);
        assert!(!MSketch.requirements().partner_freq);
        assert!(Bjoin.requirements().partner_freq);
        assert!(!Bjoin.requirements().sketches);
        assert!(MSketchRs.requirements().produced_counters);
        assert!(!MSketch.requirements().produced_counters);
    }
}
