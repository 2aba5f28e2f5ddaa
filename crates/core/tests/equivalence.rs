//! Bit-identity of the flat SoA sketch kernels against the original
//! array-of-structs layout.
//!
//! The seed implementation stored one `Copy_ { Vec<FourWiseHash>,
//! Vec<AtomicSketch> }` per sketch copy and walked them pointer-chasing;
//! the rework stores coefficients copy-major per predicate and counters in
//! one stream-major `Vec<i64>`, evaluates ±1 signs into bit-packed words,
//! and freezes last-epoch cross-products. **None of that may change a
//! single output bit under a fixed seed.** This suite rebuilds the legacy
//! layout verbatim (from the still-public [`FourWiseHash`] /
//! [`AtomicSketch`] primitives) and drives both implementations through
//! identical workloads — golden vectors plus property-based random
//! schedules covering epoch rollovers in both time- and tuple-window mode.

use mstream_core::mstream_sketch::{
    median_of_means_slice, AtomicSketch, FourWiseHash, SignTable, SketchBank, TumblingSketches,
};
use mstream_core::{BankConfig, EpochSpec};
use mstream_types::{
    Catalog, JoinQuery, StreamId, StreamSchema, VDur, VTime, Value, WindowSpec,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

// ---------------------------------------------------------------------------
// Legacy reference implementation (the seed's AoS layout, verbatim logic).
// ---------------------------------------------------------------------------

struct LegacyCopy {
    families: Vec<FourWiseHash>,
    sketches: Vec<AtomicSketch>,
}

struct LegacyBank {
    s1: usize,
    s2: usize,
    incidence: Vec<Vec<(usize, usize)>>,
    copies: Vec<LegacyCopy>,
}

impl LegacyBank {
    fn new(query: &JoinQuery, config: BankConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let n_streams = query.n_streams();
        let n_preds = query.predicates().len();
        let copies = (0..config.copies())
            .map(|_| LegacyCopy {
                families: (0..n_preds)
                    .map(|_| FourWiseHash::random(&mut rng))
                    .collect(),
                sketches: vec![AtomicSketch::new(); n_streams],
            })
            .collect();
        let incidence = (0..n_streams)
            .map(|s| query.incident(StreamId(s)).to_vec())
            .collect();
        LegacyBank {
            s1: config.s1,
            s2: config.s2,
            incidence,
            copies,
        }
    }

    fn update(&mut self, stream: StreamId, values: &[Value]) {
        let k = stream.index();
        let incidence = &self.incidence[k];
        for copy in &mut self.copies {
            let mut sign = 1i64;
            for &(pred, attr) in incidence {
                sign *= copy.families[pred].sign(values[attr].raw());
            }
            copy.sketches[k].add(sign);
        }
    }

    fn sign_in_copy(&self, c: usize, stream: StreamId, values: &[Value]) -> i64 {
        let mut sign = 1i64;
        for &(pred, attr) in &self.incidence[stream.index()] {
            sign *= self.copies[c].families[pred].sign(values[attr].raw());
        }
        sign
    }

    fn take_stream_snapshot(&mut self, stream: StreamId) -> Vec<i64> {
        let k = stream.index();
        self.copies
            .iter_mut()
            .map(|copy| {
                let v = copy.sketches[k].value();
                copy.sketches[k].reset();
                v
            })
            .collect()
    }

    fn reset(&mut self) {
        for copy in &mut self.copies {
            for s in &mut copy.sketches {
                s.reset();
            }
        }
    }

    fn estimate_join_count(&self) -> f64 {
        let per_copy: Vec<f64> = self
            .copies
            .iter()
            .map(|copy| copy.sketches.iter().map(|s| s.value() as f64).product())
            .collect();
        median_of_means_slice(self.s1, self.s2, &per_copy)
    }

    fn productivity(&self, stream: StreamId, values: &[Value]) -> f64 {
        let i = stream.index();
        let per_copy: Vec<f64> = self
            .copies
            .iter()
            .map(|copy| {
                let mut est = 1.0f64;
                for (k, s) in copy.sketches.iter().enumerate() {
                    if k != i {
                        est *= s.value() as f64;
                    }
                }
                let mut sign = 1i64;
                for &(pred, attr) in &self.incidence[i] {
                    sign *= copy.families[pred].sign(values[attr].raw());
                }
                est * sign as f64
            })
            .collect();
        median_of_means_slice(self.s1, self.s2, &per_copy)
    }
}

/// The seed's tumbling-epoch layer: `last[c][k]` copy-major snapshots and
/// the sign-first per-copy fold.
struct LegacyTumbling {
    bank: LegacyBank,
    last: Vec<Vec<i64>>,
    has_last: Vec<bool>,
    epoch: EpochSpec,
    next_roll: VTime,
    arrivals: Vec<u64>,
}

impl LegacyTumbling {
    fn new(query: &JoinQuery, config: BankConfig, epoch: EpochSpec) -> Self {
        let bank = LegacyBank::new(query, config);
        let n_streams = query.n_streams();
        let next_roll = match epoch {
            EpochSpec::Time(n) => VTime::ZERO + n,
            EpochSpec::PerStreamTuples(_) => VTime::ZERO,
        };
        LegacyTumbling {
            last: vec![vec![0; n_streams]; config.copies()],
            has_last: vec![false; n_streams],
            epoch,
            next_roll,
            arrivals: vec![0; n_streams],
            bank,
        }
    }

    fn observe(&mut self, stream: StreamId, values: &[Value], now: VTime) -> bool {
        let rolled = match self.epoch {
            EpochSpec::Time(n) => {
                let mut rolled = false;
                while now >= self.next_roll {
                    self.roll_all();
                    self.next_roll += n;
                    rolled = true;
                }
                rolled
            }
            EpochSpec::PerStreamTuples(_) => false,
        };
        self.bank.update(stream, values);
        let rolled_tuple = match self.epoch {
            EpochSpec::PerStreamTuples(n) => {
                let k = stream.index();
                self.arrivals[k] += 1;
                if self.arrivals[k] >= n {
                    self.arrivals[k] = 0;
                    let snapshot = self.bank.take_stream_snapshot(stream);
                    for (c, v) in snapshot.into_iter().enumerate() {
                        self.last[c][k] = v;
                    }
                    self.has_last[k] = true;
                    true
                } else {
                    false
                }
            }
            EpochSpec::Time(_) => false,
        };
        rolled || rolled_tuple
    }

    fn roll_all(&mut self) {
        for (c, copy) in self.bank.copies.iter().enumerate() {
            for (k, s) in copy.sketches.iter().enumerate() {
                self.last[c][k] = s.value();
            }
        }
        self.bank.reset();
        self.has_last.fill(true);
    }

    fn productivity(&mut self, stream: StreamId, values: &[Value]) -> f64 {
        let i = stream.index();
        let copies = self.bank.copies.len();
        let mut per_copy = vec![0.0f64; copies];
        for (c, slot) in per_copy.iter_mut().enumerate() {
            let mut est = self.bank.sign_in_copy(c, stream, values) as f64;
            for k in 0..self.has_last.len() {
                if k == i {
                    continue;
                }
                let x = if self.has_last[k] {
                    self.last[c][k]
                } else {
                    self.bank.copies[c].sketches[k].value()
                };
                est *= x as f64;
            }
            *slot = est;
        }
        median_of_means_slice(self.bank.s1, self.bank.s2, &per_copy)
    }
}

// ---------------------------------------------------------------------------
// Shared fixtures.
// ---------------------------------------------------------------------------

fn chain_query() -> JoinQuery {
    let mut c = Catalog::new();
    c.add_stream(StreamSchema::new("R1", &["A1", "A2"]));
    c.add_stream(StreamSchema::new("R2", &["A1", "A2"]));
    c.add_stream(StreamSchema::new("R3", &["A1", "A2"]));
    JoinQuery::from_names(
        c,
        &[("R1.A1", "R2.A1"), ("R2.A2", "R3.A1")],
        WindowSpec::secs(500),
    )
    .unwrap()
}

fn v(a: u64, b: u64) -> Vec<Value> {
    vec![Value(a), Value(b)]
}

/// Whether the dispatched kernels run their AVX2 forms on this host.
fn has_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    return std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// Deterministic pseudo-workload: `(stream, values, seconds)` triples.
fn workload(len: u64, spread: u64) -> Vec<(StreamId, Vec<Value>, VTime)> {
    (0..len)
        .map(|i| {
            // Mildly skewed values so the sign cache sees both hits and
            // misses; time advances non-monotonically within a second but
            // monotonically overall.
            let s = StreamId((i % 3) as usize);
            let a = (i * i + 7 * i) % spread;
            let b = (i / 2) % spread;
            (s, v(a, b), VTime::from_secs(i / 4))
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Golden-vector equivalence.
// ---------------------------------------------------------------------------

#[test]
fn bank_estimates_bit_identical_on_golden_workload() {
    let q = chain_query();
    for (s1, s2, seed) in [(1, 1, 0u64), (7, 1, 1), (16, 3, 42), (130, 2, 0xDEAD)] {
        let cfg = BankConfig { s1, s2, seed };
        let mut new = SketchBank::new(&q, cfg);
        let mut signs = SignTable::new(q.predicates().len(), cfg);
        let mut old = LegacyBank::new(&q, cfg);
        for (s, vals, _) in workload(200, 23) {
            new.update(&mut signs, s, &vals);
            old.update(s, &vals);
        }
        assert_eq!(
            new.estimate_join_count().to_bits(),
            old.estimate_join_count().to_bits(),
            "join count diverged at s1={s1} s2={s2} seed={seed}"
        );
        for probe in 0..30u64 {
            for stream in 0..3 {
                let vals = v(probe % 23, (probe * 3) % 23);
                let sid = StreamId(stream);
                assert_eq!(
                    new.productivity(&mut signs, sid, &vals).to_bits(),
                    old.productivity(sid, &vals).to_bits(),
                    "productivity diverged: s1={s1} s2={s2} seed={seed} \
                     stream={stream} probe={probe}"
                );
            }
        }
    }
}

#[test]
fn per_copy_state_matches_legacy_exactly() {
    // Stronger than output equality: every counter and every sign agrees.
    let q = chain_query();
    let cfg = BankConfig {
        s1: 65, // odd size straddling a packed-word boundary
        s2: 1,
        seed: 9,
    };
    let mut new = SketchBank::new(&q, cfg);
    let mut signs = SignTable::new(q.predicates().len(), cfg);
    let mut old = LegacyBank::new(&q, cfg);
    for (s, vals, _) in workload(120, 11) {
        new.update(&mut signs, s, &vals);
        old.update(s, &vals);
    }
    for c in 0..cfg.copies() {
        for k in 0..3 {
            assert_eq!(
                new.sketch_value(c, StreamId(k)),
                old.copies[c].sketches[k].value(),
                "counter diverged at copy {c} stream {k}"
            );
        }
        for probe in 0..10u64 {
            let vals = v(probe, probe % 3);
            for k in 0..3 {
                assert_eq!(
                    new.sign_in_copy(&signs, c, StreamId(k), &vals),
                    old.sign_in_copy(c, StreamId(k), &vals),
                    "sign diverged at copy {c} stream {k} probe {probe}"
                );
            }
        }
    }
}

#[test]
fn tumbling_time_epochs_bit_identical_across_rollovers() {
    let q = chain_query();
    let cfg = BankConfig {
        s1: 40,
        s2: 2,
        seed: 77,
    };
    let epoch = EpochSpec::Time(VDur::from_secs(10));
    let mut new = TumblingSketches::new(&q, cfg, epoch);
    let mut old = LegacyTumbling::new(&q, cfg, epoch);
    for (i, (s, vals, t)) in workload(300, 17).into_iter().enumerate() {
        let rolled_new = new.observe(s, &vals, t);
        let rolled_old = old.observe(s, &vals, t);
        assert_eq!(rolled_new, rolled_old, "rollover cue diverged at {i}");
        // Probe from every stream each step so first-epoch fallback, mixed
        // and frozen paths all get exercised, before AND after rollovers.
        if i % 7 == 0 {
            for stream in 0..3 {
                let probe = v((i as u64) % 17, (i as u64 / 3) % 17);
                let sid = StreamId(stream);
                assert_eq!(
                    new.productivity(sid, &probe).to_bits(),
                    old.productivity(sid, &probe).to_bits(),
                    "tumbling productivity diverged at step {i} stream {stream}"
                );
            }
            assert_eq!(
                new.estimate_join_count().to_bits(),
                old.bank.estimate_join_count().to_bits(),
                "tumbling join count diverged at step {i}"
            );
        }
    }
}

#[test]
fn tumbling_tuple_epochs_bit_identical_with_snapshots() {
    // PerStreamTuples rolls through `take_stream_snapshot`: streams roll
    // independently, so the mixed last/current fallback path stays live for
    // straggler streams long after others have frozen.
    let q = chain_query();
    let cfg = BankConfig {
        s1: 33,
        s2: 1,
        seed: 123,
    };
    let epoch = EpochSpec::PerStreamTuples(8);
    let mut new = TumblingSketches::new(&q, cfg, epoch);
    let mut old = LegacyTumbling::new(&q, cfg, epoch);
    for (i, (s, vals, t)) in workload(250, 9).into_iter().enumerate() {
        // Skew arrivals: stream 2 only sees every third tuple, so it lags
        // a full epoch behind the others.
        if s == StreamId(2) && i % 3 != 0 {
            continue;
        }
        assert_eq!(new.observe(s, &vals, t), old.observe(s, &vals, t));
        if i % 5 == 0 {
            for stream in 0..3 {
                let probe = v((i as u64) % 9, (i as u64) % 4);
                let sid = StreamId(stream);
                assert_eq!(
                    new.productivity(sid, &probe).to_bits(),
                    old.productivity(sid, &probe).to_bits(),
                    "tuple-mode productivity diverged at step {i} stream {stream}"
                );
            }
        }
    }
}

/// Drives `n`-stream chain sketches through tuple epochs of eight, the
/// last stream arriving a third as often, and holds every stream's
/// estimate to the legacy fold's bits every fifth arrival. Returns how
/// many of those probes had every partner live and how many mixed frozen
/// and live partners.
fn mixed_epochs_match_legacy(n: usize, cfg: BankConfig) -> (usize, usize) {
    let mut c = Catalog::new();
    for k in 1..=n {
        c.add_stream(StreamSchema::new(format!("R{k}").as_str(), &["A1", "A2"]));
    }
    let preds: Vec<(String, String)> = (1..n)
        .map(|k| (format!("R{k}.A2"), format!("R{}.A1", k + 1)))
        .collect();
    let preds: Vec<(&str, &str)> = preds.iter().map(|(a, b)| (&**a, &**b)).collect();
    let q = JoinQuery::from_names(c, &preds, WindowSpec::secs(500)).unwrap();
    let epoch = EpochSpec::PerStreamTuples(8);
    let mut new = TumblingSketches::new(&q, cfg, epoch);
    let mut old = LegacyTumbling::new(&q, cfg, epoch);
    let (mut live, mut mixed) = (0, 0);
    for i in 0..240u64 {
        let s = StreamId(i as usize % n);
        if s.index() == n - 1 && i % 3 != 0 {
            continue;
        }
        let vals = v((i * i + 7 * i) % 9, (i / 2) % 9);
        let t = VTime::from_secs(i / 4);
        assert_eq!(new.observe(s, &vals, t), old.observe(s, &vals, t));
        if i % 5 == 0 {
            for stream in 0..n {
                let frozen = (0..n)
                    .filter(|&k| k != stream)
                    .filter(|&k| new.has_last_epoch(StreamId(k)))
                    .count();
                match frozen {
                    0 => live += 1,
                    f if f < n - 1 => mixed += 1,
                    _ => {}
                }
                let probe = v(i % 9, i % 4);
                let sid = StreamId(stream);
                assert_eq!(
                    new.productivity(sid, &probe).to_bits(),
                    old.productivity(sid, &probe).to_bits(),
                    "n={n} {cfg:?}: productivity diverged at step {i} stream {stream}"
                );
            }
        }
    }
    (live, mixed)
}

#[test]
fn general_mixed_path_bit_identical_on_two_and_four_streams() {
    // Off the three-stream shape a first-epoch query takes the general
    // fold (multiply row by row, sign, serial sum) or, with one partner,
    // the integer query; tuple-mode epochs with a lagging last stream keep
    // them live beside the frozen path.
    for n in [2usize, 4] {
        for (s1, s2) in [(33, 1), (20, 2)] {
            mixed_epochs_match_legacy(n, BankConfig { s1, s2, seed: 9 });
        }
    }
}

/// The integer first-epoch query through the tumbling layer: one partner
/// and two, one group and three, partners all live and frozen beside
/// live, to the legacy fold's bits.
#[test]
fn first_epoch_query_bit_identical_with_live_and_frozen_partners() {
    for n in [2usize, 3] {
        for s2 in [1, 3] {
            let cfg = BankConfig { s1: 40, s2, seed: 5 };
            let (live, mixed) = mixed_epochs_match_legacy(n, cfg);
            // One partner is live or frozen; two can be one of each.
            assert!(
                live > 0 && (n == 2 || mixed > 0),
                "n={n} s2={s2}: {live} live, {mixed} mixed"
            );
        }
    }
}

#[test]
fn current_productivity_matches_bank_path() {
    let q = chain_query();
    let cfg = BankConfig {
        s1: 50,
        s2: 1,
        seed: 4,
    };
    let mut new = TumblingSketches::new(&q, cfg, EpochSpec::Time(VDur::from_secs(50)));
    let mut old = LegacyBank::new(&q, cfg);
    for (s, vals, t) in workload(100, 13) {
        new.observe(s, &vals, t);
        old.update(s, &vals);
    }
    for probe in 0..10u64 {
        let vals = v(probe % 13, probe % 5);
        assert_eq!(
            new.current_productivity(StreamId(0), &vals).to_bits(),
            old.productivity(StreamId(0), &vals).to_bits()
        );
    }
}

// ---------------------------------------------------------------------------
// Property-based equivalence over random schedules.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random workloads, sizings and seeds: the SoA bank and the legacy
    /// bank agree bit for bit on every estimate.
    #[test]
    fn bank_equivalence_holds_for_random_workloads(
        seed in any::<u64>(),
        s1 in 1usize..24,
        s2 in 1usize..4,
        steps in prop::collection::vec(
            (0usize..3, 0u64..12, 0u64..12), 1..120),
        probes in prop::collection::vec(
            (0usize..3, 0u64..12, 0u64..12), 1..12),
    ) {
        let q = chain_query();
        let cfg = BankConfig { s1, s2, seed };
        let mut new = SketchBank::new(&q, cfg);
        let mut signs = SignTable::new(q.predicates().len(), cfg);
        let mut old = LegacyBank::new(&q, cfg);
        for (s, a, b) in steps {
            new.update(&mut signs, StreamId(s), &v(a, b));
            old.update(StreamId(s), &v(a, b));
        }
        prop_assert_eq!(
            new.estimate_join_count().to_bits(),
            old.estimate_join_count().to_bits()
        );
        for (s, a, b) in probes {
            prop_assert_eq!(
                new.productivity(&mut signs, StreamId(s), &v(a, b)).to_bits(),
                old.productivity(StreamId(s), &v(a, b)).to_bits()
            );
        }
    }

    /// Random schedules with epoch rollovers in both window modes: the
    /// tumbling layers agree bit for bit, including the frozen-cross-product
    /// fast path and the first-epoch fallback.
    #[test]
    fn tumbling_equivalence_holds_across_rollovers(
        seed in any::<u64>(),
        s1 in 1usize..16,
        time_mode in any::<bool>(),
        period in 1u64..12,
        steps in prop::collection::vec(
            (0usize..3, 0u64..8, 0u64..8, 0u64..40), 1..100),
        probes in prop::collection::vec(
            (0usize..3, 0u64..8, 0u64..8), 1..8),
    ) {
        let q = chain_query();
        let cfg = BankConfig { s1, s2: 1, seed };
        let epoch = if time_mode {
            EpochSpec::Time(VDur::from_secs(period))
        } else {
            EpochSpec::PerStreamTuples(period)
        };
        let mut new = TumblingSketches::new(&q, cfg, epoch);
        let mut old = LegacyTumbling::new(&q, cfg, epoch);
        let mut now = 0u64;
        for (s, a, b, dt) in steps {
            // Time must be monotone; accumulate the random increments.
            now += dt / 8;
            let t = VTime::from_secs(now);
            prop_assert_eq!(
                new.observe(StreamId(s), &v(a, b), t),
                old.observe(StreamId(s), &v(a, b), t)
            );
        }
        for (s, a, b) in &probes {
            prop_assert_eq!(
                new.productivity(StreamId(*s), &v(*a, *b)).to_bits(),
                old.productivity(StreamId(*s), &v(*a, *b)).to_bits()
            );
        }
        // Interleave another burst after probing (cross rows must
        // invalidate correctly), then probe again.
        for i in 0..10u64 {
            now += 1;
            let t = VTime::from_secs(now);
            prop_assert_eq!(
                new.observe(StreamId((i % 3) as usize), &v(i % 5, i % 4), t),
                old.observe(StreamId((i % 3) as usize), &v(i % 5, i % 4), t)
            );
        }
        for (s, a, b) in &probes {
            prop_assert_eq!(
                new.productivity(StreamId(*s), &v(*a, *b)).to_bits(),
                old.productivity(StreamId(*s), &v(*a, *b)).to_bits()
            );
        }
    }
}

// ---------------------------------------------------------------------------
// AVX2-vs-scalar kernel bit-identity.
//
// Three kernels in `mstream_sketch::kernel` — the sign fold, the sliced
// sum of the frozen query and the first-epoch integer sum — have an AVX2
// form beside their portable one in `kernel::scalar`; the entry points run
// AVX2 where the CPU has it. These properties pin both forms identical
// across odd lengths, ragged tails (len % 4 != 0, len % 64 != 0), every
// plane depth a guarded row can have, and extreme inputs (i64::MIN/MAX-
// adjacent counters).
// ---------------------------------------------------------------------------

mod kernels {
    use super::has_avx2;
    use mstream_core::kernel::{self, scalar};
    use mstream_core::mstream_sketch::SignFamilies;
    use proptest::prelude::*;
    use rand::SeedableRng;

    /// Deterministic counter stream biased toward the i64 extremes, with
    /// small values in between.
    fn extreme_i64(seed: u64, i: usize) -> i64 {
        let r = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(i as u32);
        match r % 7 {
            0 => i64::MAX - (r % 5) as i64,
            1 => i64::MIN + (r % 5) as i64,
            2 => 0,
            3 => -(1i64 << (r % 62)),
            _ => (r as i64) % 1000 - 500,
        }
    }

    fn mix(seed: u64, i: u64) -> u64 {
        super::deferred::mix(seed, i)
    }

    /// The sketch sizes the engine and the benches run at, and their
    /// neighbours across a sign word and a sixteen-value block.
    const PINNED_COPIES: [usize; 8] = [1, 7, 63, 64, 65, 999, 1000, 1025];

    fn sign_words(seed: u64, len: usize) -> Vec<u64> {
        (0..len.div_ceil(64))
            .map(|i| seed.wrapping_mul(i as u64 + 1).rotate_left(17))
            .collect()
    }

    /// Sampled lengths hit empty, sub-register, ragged-tail
    /// (`len % 4 != 0`), one-register, word-boundary and multi-word
    /// shapes; this pins the boundary cases the uniform range might miss.
    const PINNED_LENS: [usize; 8] = [0, 1, 3, 4, 63, 64, 65, 130];

    fn pick_len(sampled: usize, case_tag: u64) -> usize {
        if case_tag % 3 == 0 {
            PINNED_LENS[(case_tag / 3) as usize % PINNED_LENS.len()]
        } else {
            sampled
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn fold_packed_signs_modes_agree(
            sampled_len in 0usize..200,
            seed in any::<u64>(),
        ) {
            let len = pick_len(sampled_len, seed);
            let words = sign_words(seed, len);
            // Halved so the ±1 fold cannot overflow debug arithmetic; the
            // magnitude extremes still exercise the full word layout.
            let mut a: Vec<i64> = (0..len).map(|i| extreme_i64(seed, i) / 2).collect();
            let mut b = a.clone();
            scalar::fold_packed_signs(&words, &mut a);
            kernel::fold_packed_signs(&words, &mut b);
            prop_assert_eq!(&a, &b);
        }

        #[test]
        fn signed_product_sum_modes_agree(
            sampled_len in 0usize..200,
            first in 0usize..100,
            two in any::<bool>(),
            seed in any::<u64>(),
        ) {
            // Copies from any offset into the sign words, so heads of every
            // length. One row holds factors up to the 2^31 − 1 the AVX2
            // multiply takes, the other stays under 2^20, so no sum of up
            // to 200 products leaves the i64 range.
            let len = pick_len(sampled_len, seed);
            let wide = |i: usize| {
                let r = mix(seed, i as u64);
                let x = match r % 5 {
                    0 => (1 << 31) - 1,
                    1 => 0,
                    2 => 1 << 30,
                    _ => (r >> 8) as i64 % 5000,
                };
                if r >> 63 == 0 { x } else { -x }
            };
            let narrow = |i: usize| (mix(!seed, i as u64) % (1 << 21)) as i64 - (1 << 20);
            let a: Vec<i64> = (0..first + len).map(wide).collect();
            let b: Vec<i64> = (0..first + len).map(narrow).collect();
            let rows: &[&[i64]] = if two { &[&b, &a] } else { &[&a] };
            let words = sign_words(seed ^ 0xF00D, first + len);
            let copies = first..first + len;
            let want = scalar::signed_product_sum(&words, rows, copies.clone());
            prop_assert_eq!(kernel::signed_product_sum(&words, rows, copies.clone()), want);
            #[cfg(target_arch = "x86_64")]
            if has_avx2() {
                prop_assert_eq!(kernel::avx2::signed_product_sum(&words, rows, copies), want);
            }
        }

        #[test]
        fn eval_packed_modes_agree(
            sampled_copies in 1usize..200,
            seed in any::<u64>(),
            x in any::<u64>(),
        ) {
            let copies = pick_len(sampled_copies, seed).max(1);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let fam = SignFamilies::draw(&mut rng, 3, copies);
            for pred in 0..3 {
                let mut horner = Vec::new();
                let mut power = Vec::new();
                fam.eval_packed_scalar(pred, x, &mut horner);
                fam.eval_packed_into(pred, x, &mut power);
                prop_assert_eq!(&horner, &power);
            }
        }
    }

    /// On AVX2 hosts the `std::arch` sign fold must also be bit-identical
    /// at the pinned sizes (elsewhere this test is vacuous — the entry
    /// points never call it there either).
    #[test]
    fn avx2_sign_kernels_match_scalar() {
        #[cfg(target_arch = "x86_64")]
        if has_avx2() {
            for len in PINNED_LENS.into_iter().chain(PINNED_COPIES) {
                let words = sign_words(0xBEEF, len);
                let counters: Vec<i64> = (0..len).map(|i| extreme_i64(7, i) / 2).collect();
                let mut want = counters.clone();
                scalar::fold_packed_signs(&words, &mut want);
                let mut got = counters;
                kernel::avx2::fold_packed_signs(&words, &mut got);
                assert_eq!(want, got, "fold len={len}");
            }
        }
    }

    /// The integer sum at the pinned sizes, every form: one group, and
    /// three groups so that the later ones start mid-word and mid-block.
    #[test]
    fn summing_kernels_match_scalar_at_pinned_copies() {
        for copies in PINNED_COPIES {
            for seed in 0..4u64 {
                let words = sign_words(seed ^ 0xACE, 3 * copies);
                let a: Vec<i64> = (0..3 * copies)
                    .map(|i| (mix(seed, i as u64) % 4001) as i64 - 2000)
                    .collect();
                let b: Vec<i64> = (0..3 * copies)
                    .map(|i| (mix(!seed, i as u64) % 4001) as i64 - 2000)
                    .collect();
                for rows in [&[&a[..]][..], &[&a[..], &b[..]]] {
                    for g in 0..3 {
                        let copies = g * copies..(g + 1) * copies;
                        let want = scalar::signed_product_sum(&words, rows, copies.clone());
                        assert_eq!(
                            kernel::signed_product_sum(&words, rows, copies.clone()),
                            want
                        );
                        #[cfg(target_arch = "x86_64")]
                        if has_avx2() {
                            let got = kernel::avx2::signed_product_sum(&words, rows, copies);
                            assert_eq!(got, want, "{} rows, group {g}", rows.len());
                        }
                    }
                }
            }
        }
    }

    /// The sliced sum, scalar against the entry point and the AVX2 form,
    /// over rows of 1–20 sign words (the audit's 32 copies are one, the
    /// engine's 1 000 sixteen) at every depth from 1 to 54 planes: the
    /// whole row, and ranges that start and end mid-word — the edges of
    /// an `(s1, s2)` group — and span one word or several.
    #[test]
    fn sliced_sum_modes_agree_at_every_width_and_depth() {
        for words in 1..=20usize {
            let bits = 64 * words;
            let ranges = [
                0..bits,
                0..bits - 1,
                1..bits,
                bits / 3..bits / 3 + 1,
                bits / 3..(2 * bits / 3).max(bits / 3 + 1),
                13.min(bits - 1)..bits - 7,
            ];
            for depth in 1..=54usize {
                let seed = (words * 64 + depth) as u64;
                let signs = sign_words(seed, bits);
                let planes: Vec<u64> = (0..depth * words).map(|i| mix(!seed, i as u64)).collect();
                for copies in ranges.iter().filter(|r| !r.is_empty()) {
                    let want = scalar::sliced_sum(&signs, &planes, copies.clone());
                    let got = kernel::sliced_sum(&signs, &planes, copies.clone());
                    assert_eq!(got, want, "{words} words, {depth} planes, {copies:?}");
                    #[cfg(target_arch = "x86_64")]
                    if has_avx2() {
                        let got = kernel::avx2::sliced_sum(&signs, &planes, copies.clone());
                        assert_eq!(got, want, "avx2: {words} words, {depth} planes, {copies:?}");
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Deferred counter updates and the integer productivity queries.
//
// `SketchBank::update` parks sign vectors — eight to a block — in
// bit-sliced pending counters and settles them into the `i64` counters on
// read; the frozen productivity query reads a guarded cross row held as
// two's-complement bit-planes with one popcount per plane and word, and
// the first-epoch one sums its partners' signed products in integers
// inside bounds that make the serial f64 fold exact. All are pinned here
// against the eager, serial scalar kernels.
// ---------------------------------------------------------------------------

mod deferred {
    use super::{chain_query, v, LegacyTumbling};
    use mstream_core::kernel::{self, scalar};
    use mstream_core::mstream_sketch::{
        median_of_means_slice, SignTable, SketchBank, TumblingSketches,
    };
    use mstream_core::{BankConfig, EpochSpec};
    use mstream_types::{StreamId, VDur, VTime, Value};
    use proptest::prelude::*;

    /// The eager twin of a [`SketchBank`]: every update folded into the
    /// counters at once by `scalar::fold_packed_signs`, estimates from the
    /// per-copy kernels, signs from a table of its own (the bank's key, a
    /// second table).
    struct EagerBank {
        cfg: BankConfig,
        signs: SignTable,
        counters: Vec<i64>,
        words: Vec<u64>,
    }

    impl EagerBank {
        fn new(cfg: BankConfig) -> Self {
            EagerBank {
                cfg,
                signs: SignTable::new(chain_query().predicates().len(), cfg),
                counters: vec![0; 3 * cfg.copies()],
                words: Vec::new(),
            }
        }

        fn row(&mut self, stream: usize) -> &mut [i64] {
            let copies = self.cfg.copies();
            &mut self.counters[stream * copies..(stream + 1) * copies]
        }

        fn update(&mut self, bank: &SketchBank, stream: usize, values: &[Value]) {
            let mut words = std::mem::take(&mut self.words);
            bank.packed_signs_into(&mut self.signs, StreamId(stream), values, &mut words);
            scalar::fold_packed_signs(&words, self.row(stream));
            self.words = words;
        }

        fn estimate(&mut self, bank: &SketchBank, exclude: Option<(usize, &[Value])>) -> f64 {
            let copies = self.cfg.copies();
            let mut per_copy = vec![0.0f64; copies];
            let skip = exclude.map_or(usize::MAX, |(i, _)| i);
            kernel::column_products(&self.counters, copies, skip, &mut per_copy);
            if let Some((i, values)) = exclude {
                bank.packed_signs_into(&mut self.signs, StreamId(i), values, &mut self.words);
                kernel::apply_packed_signs(&self.words, &mut per_copy);
            }
            median_of_means_slice(self.cfg.s1, self.cfg.s2, &per_copy)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Updates, reads, resets and per-stream rolls in random order —
        /// after one burst long enough to hit the bank's own settle
        /// threshold — leave every counter and every estimate equal to the
        /// eager fold's.
        #[test]
        fn bank_settles_to_the_eager_fold_under_any_interleaving(
            seed in any::<u64>(),
            s1 in 1usize..70,
            s2 in 1usize..3,
            burst_stream in 0usize..3,
            burst_extra in 0u64..40,
            ops in prop::collection::vec(
                (0u8..11, 0usize..3, 0u64..12, 0u64..12), 1..150),
        ) {
            let q = chain_query();
            let cfg = BankConfig { s1, s2, seed };
            let copies = cfg.copies();
            let mut bank = SketchBank::new(&q, cfg);
            let mut signs = SignTable::new(q.predicates().len(), cfg);
            let mut eager = EagerBank::new(cfg);
            for i in 0..u64::from(SketchBank::PENDING_MAX) + burst_extra {
                let vals = v(i % 5, i % 3);
                bank.update(&mut signs, StreamId(burst_stream), &vals);
                eager.update(&bank, burst_stream, &vals);
            }
            for (op, s, a, b) in ops {
                let sid = StreamId(s);
                match op {
                    0..=4 => {
                        bank.update(&mut signs, sid, &v(a, b));
                        eager.update(&bank, s, &v(a, b));
                    }
                    5 => {
                        // 64..=75 updates: some bursts end on a block
                        // boundary, most inside a block.
                        for i in 0..64 + a {
                            bank.update(&mut signs, sid, &v(a, i % 4));
                            eager.update(&bank, s, &v(a, i % 4));
                        }
                    }
                    6 => prop_assert_eq!(
                        bank.estimate_join_count().to_bits(),
                        eager.estimate(&bank, None).to_bits()
                    ),
                    7 => {
                        let c = (13 * a + b) as usize % copies;
                        prop_assert_eq!(bank.sketch_value(c, sid), eager.row(s)[c]);
                    }
                    8 => {
                        let vals = v(a, b);
                        prop_assert_eq!(
                            bank.productivity(&mut signs, sid, &vals).to_bits(),
                            eager.estimate(&bank, Some((s, &vals))).to_bits()
                        );
                    }
                    9 => {
                        bank.reset();
                        eager.counters.fill(0);
                    }
                    _ => {
                        let mut snapshot = vec![0i64; copies];
                        bank.roll_stream_into(sid, &mut snapshot);
                        prop_assert_eq!(&snapshot[..], &*eager.row(s));
                        eager.row(s).fill(0);
                        prop_assert_eq!(bank.tuples_seen(sid), 0);
                    }
                }
            }
            for s in 0..3 {
                prop_assert_eq!(bank.counters_row(StreamId(s)), &*eager.row(s));
            }
        }

        /// The same through the tumbling layer, against the legacy eager
        /// implementation, in both epoch modes: bursts past the settle
        /// threshold between reads, whole-bank and per-stream rolls, the
        /// mixed first-epoch paths and the frozen one.
        #[test]
        fn tumbling_layer_settles_before_every_roll_and_live_read(
            seed in any::<u64>(),
            s1 in 1usize..10,
            time_mode in any::<bool>(),
            long_epochs in any::<bool>(),
            period in 1u64..12,
            burst_stream in 0usize..3,
            ops in prop::collection::vec(
                (0u8..8, 0usize..3, 0u64..8, 0u64..8, 0u64..40), 1..80),
        ) {
            let q = chain_query();
            let cfg = BankConfig { s1, s2: 1, seed };
            let threshold = u64::from(SketchBank::PENDING_MAX);
            let epoch = match (time_mode, long_epochs) {
                (true, _) => EpochSpec::Time(VDur::from_secs(period)),
                // Long tuple epochs hold a whole burst without a roll.
                (false, true) => EpochSpec::PerStreamTuples(threshold + 100 + period),
                (false, false) => EpochSpec::PerStreamTuples(period),
            };
            let mut new = TumblingSketches::new(&q, cfg, epoch);
            let mut old = LegacyTumbling::new(&q, cfg, epoch);
            let mut now = 0u64;
            let mut bursts = 0;
            // Every case opens with a burst, so the threshold is always hit.
            let opening = std::iter::once((5u8, burst_stream, 1u64, 2u64, 16u64));
            for (op, s, a, b, dt) in opening.chain(ops) {
                now += dt / 8;
                let t = VTime::from_secs(now);
                match op {
                    5 if bursts < 2 => {
                        bursts += 1;
                        for i in 0..threshold + dt {
                            let vals = v((a + i) % 6, b);
                            prop_assert_eq!(
                                new.observe(StreamId(s), &vals, t),
                                old.observe(StreamId(s), &vals, t)
                            );
                        }
                    }
                    6 => {
                        for stream in 0..3 {
                            prop_assert_eq!(
                                new.productivity(StreamId(stream), &v(a, b)).to_bits(),
                                old.productivity(StreamId(stream), &v(a, b)).to_bits()
                            );
                        }
                    }
                    7 => prop_assert_eq!(
                        new.estimate_join_count().to_bits(),
                        old.bank.estimate_join_count().to_bits()
                    ),
                    _ => prop_assert_eq!(
                        new.observe(StreamId(s), &v(a, b), t),
                        old.observe(StreamId(s), &v(a, b), t)
                    ),
                }
            }
            for stream in 0..3 {
                prop_assert_eq!(
                    new.productivity(StreamId(stream), &v(1, 2)).to_bits(),
                    old.productivity(StreamId(stream), &v(1, 2)).to_bits()
                );
            }
        }

        /// Random counters for one to three partners, at every group shape
        /// and at magnitudes on both sides of the guard: a row `slice_row`
        /// accepts answers with the serial fold's bits, and it accepts
        /// exactly the rows whose terms fit and whose `Σ_c |x_c|` — summed
        /// here in `u128` — is below 2^53.
        #[test]
        fn sliced_rows_match_the_serial_fold(
            seed in any::<u64>(),
            shape in 0usize..SHAPES.len(),
            partners in 1usize..4,
            magnitude in 0u32..28,
            zero_every in 1usize..40,
        ) {
            let (s1, s2) = SHAPES[shape];
            let copies = s1 * s2;
            let exclude = (seed % (partners as u64 + 1)) as usize;
            let last: Vec<i64> = (0..(partners + 1) * copies)
                .map(|i| {
                    let r = mix(seed, i as u64);
                    let x = ((r >> 1) % (1u64 << magnitude)) as i64;
                    if i % zero_every == 0 { 0 } else if r & 1 == 0 { x } else { -x }
                })
                .collect();
            let words: Vec<u64> = (0..copies.div_ceil(64)).map(|i| mix(!seed, i as u64)).collect();
            let rows = partner_rows(&last, copies, exclude);
            let exact = guard_holds(&rows);
            let got = sliced(&words, &last, exclude, s1, s2);
            prop_assert_eq!(got.is_some(), exact);
            if let Some(got) = got {
                prop_assert_eq!(got, bits(&serial_fold(&words, &rows, s1, s2)));
            }
        }

        /// The integer first-epoch query against the serial f64 fold: one
        /// partner and two, every group shape, counters up to
        /// `2^magnitude` (zero in every `zero_every`-th copy) and bounds at
        /// or a little above their true maxima. It answers exactly where
        /// the bounds pass, with the fold's bits.
        #[test]
        fn first_epoch_query_matches_the_serial_fold(
            seed in any::<u64>(),
            shape in 0usize..SHAPES.len(),
            two in any::<bool>(),
            magnitude in 0u32..33,
            slack in 0u64..3,
            zero_every in 1usize..40,
        ) {
            let (s1, s2) = SHAPES[shape];
            let len = s1 * s2;
            let draw = |salt: u64, i: usize| {
                let r = mix(seed ^ salt, i as u64);
                let x = ((r >> 1) % (1u64 << magnitude)) as i64;
                if i % zero_every == 0 { 0 } else if r & 1 == 0 { x } else { -x }
            };
            let a: Vec<i64> = (0..len).map(|i| draw(1, i)).collect();
            let b: Vec<i64> = (0..len).map(|i| draw(2, i)).collect();
            let rows: &[&[i64]] = if two { &[&a, &b] } else { &[&a] };
            let bounds: Vec<u64> = rows
                .iter()
                .map(|row| row.iter().map(|x| x.unsigned_abs()).max().unwrap_or(0) + slack)
                .collect();
            let words: Vec<u64> = (0..len.div_ceil(64)).map(|i| mix(!seed, i as u64)).collect();
            let want = serial_fold(&words, rows, s1, s2);
            let scale = bounds.iter().fold(s1 as u128, |p, &b| p * u128::from(b));
            let exact = bounds.iter().all(|&b| b < 1 << 31) && scale < 1 << 53;
            let got = integer_query(&words, rows, &bounds, s1, s2);
            prop_assert_eq!(got.is_some(), exact);
            if let Some(got) = got {
                prop_assert_eq!(got, bits(&want));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A block of 0–8 held vectors (zero-padded) through the adder
        /// tree leaves the planes eight single-vector adds leave, whatever
        /// they held before, and comes back all-zero.
        #[test]
        fn add_sign_block_matches_one_plane_add_per_vector(
            seed in any::<u64>(),
            held in 0usize..=kernel::BLOCK,
            words in 1usize..4,
            prior in 0u64..1000,
        ) {
            let vector = |i: u64| -> Vec<u64> { (0..words as u64).map(|w| mix(seed ^ i, w)).collect() };
            let mut planes = vec![0u64; 10 * words];
            for i in 0..prior {
                kernel::add_sign_planes(&mut vector(i), &mut planes);
            }
            let mut want = planes.clone();
            let mut block = vec![0u64; kernel::BLOCK * words];
            for j in 0..held {
                let v = vector(prior + j as u64);
                block[j * words..(j + 1) * words].copy_from_slice(&v);
                kernel::add_sign_planes(&mut v.clone(), &mut want);
            }
            kernel::add_sign_block(&mut block, &mut planes);
            prop_assert_eq!(planes, want);
            prop_assert!(block.iter().all(|&w| w == 0), "the block is consumed");
        }
    }

    /// Every pending count the bank can reach, in counters one to ten
    /// planes deep (a `P`-plane counter holds `2^P − 1` updates), over a
    /// row with a ragged last word: the settle is the eager fold.
    #[test]
    fn settle_planes_match_the_eager_fold_at_every_pending() {
        const COPIES: usize = 70;
        let words = COPIES.div_ceil(64);
        for depth in 1..=10usize {
            let mut planes = vec![0u64; depth * words];
            let start: Vec<i64> = (0..COPIES as i64).map(|c| 1000 - 37 * c).collect();
            let mut eager = start.clone();
            let most = ((1u32 << depth) - 1).min(SketchBank::PENDING_MAX);
            for pending in 0..=most {
                let mut settled = start.clone();
                kernel::settle_planes(&planes, pending, &mut settled);
                assert_eq!(settled, eager, "{pending} pending in {depth} planes");
                if pending < most {
                    let signs: Vec<u64> = (0..words as u64)
                        .map(|w| mix(depth as u64, 2 * u64::from(pending) + w))
                        .collect();
                    scalar::fold_packed_signs(&signs, &mut eager);
                    kernel::add_sign_planes(&mut signs.clone(), &mut planes);
                }
            }
        }
    }

    /// The serial f64 fold the integer first-epoch query stands in for:
    /// `fill(1.0)`, one row multiply per partner in order, signs, serial
    /// group sums.
    fn serial_fold(words: &[u64], rows: &[&[i64]], s1: usize, s2: usize) -> Vec<f64> {
        let mut per_copy = vec![1.0f64; s1 * s2];
        for row in rows {
            kernel::multiply_row(&mut per_copy, row);
        }
        kernel::apply_packed_signs(words, &mut per_copy);
        let mut groups = Vec::new();
        kernel::group_sums(&per_copy, s1, s2, &mut groups);
        groups
    }

    /// The integer query's group sums, or `None` where it declines.
    fn integer_query(
        words: &[u64],
        rows: &[&[i64]],
        bounds: &[u64],
        s1: usize,
        s2: usize,
    ) -> Option<Vec<u64>> {
        let mut groups = Vec::new();
        kernel::product_group_sums(words, rows, bounds, s1, s2, &mut groups).then(|| bits(&groups))
    }

    /// The first-epoch query's bound edges — a factor at 2^31 − 1 and at
    /// 2^31, `s1·Π bounds` at 2^53 − 1 and at 2^53 — with the edge value in
    /// the AVX2 body (copy 5) and in its tail (copy 67): inside, the serial
    /// fold's bits; at the edge, it declines.
    #[test]
    fn first_epoch_query_at_its_bound_edges() {
        const COPIES: usize = 70;
        let words: Vec<u64> = (0..2).map(|i| mix(31, i)).collect();
        let factor = (1i64 << 31) - 1;
        for slot in [5, 67] {
            for sign in [1, -1] {
                let b = vec![-1i64; COPIES];
                for (value, bound) in [(factor, factor as u64), (1 << 31, 1 << 31)] {
                    let mut a = vec![1i64; COPIES];
                    a[slot] = sign * value;
                    for (rows, bounds) in [
                        (&[&a[..], &b[..]][..], &[bound, 1][..]),
                        (&[&b[..], &a[..]], &[1, bound]),
                        (&[&a[..]], &[bound]),
                    ] {
                        let want = bits(&serial_fold(&words, rows, COPIES, 1));
                        let inside = bound < 1 << 31;
                        assert_eq!(
                            integer_query(&words, rows, bounds, COPIES, 1),
                            inside.then_some(want),
                            "factor {}",
                            a[slot]
                        );
                    }
                }
            }
            // 2^53 − 1 = 441 650 591 · 20 394 401, in groups of one copy.
            let (x, y) = (441_650_591i64, 20_394_401i64);
            let mut a = vec![1i64; COPIES];
            let mut b = vec![-1i64; COPIES];
            (a[slot], b[slot]) = (x, -y);
            let rows = [&a[..], &b[..]];
            let want = serial_fold(&words, &rows, 1, COPIES);
            assert_eq!(want[slot].abs(), ((1u64 << 53) - 1) as f64);
            assert_eq!(
                integer_query(&words, &rows, &[x as u64, y as u64], 1, COPIES),
                Some(bits(&want))
            );
            assert_eq!(
                integer_query(&words, &rows, &[1 << 27, 1 << 26], 1, COPIES),
                None
            );
        }
    }

    /// Rows whose integer sum is zero: the serial fold reads `-0.0` when
    /// every term is a zero with its sign bit set, `+0.0` otherwise — in a
    /// zero row under random signs, and in non-zero terms that cancel. The
    /// query gives the fold's zero, at a zero bound and at a zero sum.
    #[test]
    fn first_epoch_query_keeps_the_serial_sign_of_zero() {
        const COPIES: usize = 70;
        let words: Vec<u64> = (0..2).map(|i| mix(0, i)).collect();
        let bit = |c: usize| (words[c / 64] >> (c % 64)) & 1 == 1;
        let zeros = vec![0i64; COPIES];
        // `±1 · +0.0` is a zero of the ±1's sign; it is flipped where the
        // bit is set, so this row makes every term −0.0.
        let against: Vec<i64> = (0..COPIES).map(|c| if bit(c) { 1 } else { -1 }).collect();
        let ones = vec![1i64; COPIES];
        // Terms x and −x in pairs, the sign bit undone by the row's sign.
        let cancel: Vec<i64> = (0..COPIES)
            .map(|c| {
                let x = (c / 2 + 1) as i64;
                if (c % 2 == 0) == bit(c) {
                    -x
                } else {
                    x
                }
            })
            .collect();
        // All −0.0 but one term: a +0.0 (copy 69) or a cancelling pair.
        let mut one_plus = against.clone();
        one_plus[69] = -one_plus[69];
        let mut one_pair = against.clone();
        (one_pair[3], one_pair[40]) = (5, 5);
        let mut pair_factor = zeros.clone();
        pair_factor[3] = if bit(3) { -1 } else { 1 };
        pair_factor[40] = if bit(40) { 1 } else { -1 };
        for (rows, zero) in [
            (&[&against[..], &zeros[..]][..], -0.0f64),
            (&[&zeros[..], &against[..]], -0.0),
            (&[&one_plus[..], &zeros[..]], 0.0),
            (&[&one_pair[..], &pair_factor[..]], 0.0),
            (&[&ones[..], &zeros[..]], 0.0),
            (&[&zeros[..]], 0.0),
            (&[&cancel[..]], 0.0),
            (&[&cancel[..], &ones[..]], 0.0),
        ] {
            assert_eq!(
                bits(&serial_fold(&words, rows, COPIES, 1)),
                [zero.to_bits()]
            );
            let tight: Vec<u64> = rows
                .iter()
                .map(|row| row.iter().map(|x| x.unsigned_abs()).max().unwrap())
                .collect();
            for bounds in [tight, vec![COPIES as u64; rows.len()]] {
                let got = integer_query(&words, rows, &bounds, COPIES, 1);
                assert_eq!(got, Some(vec![zero.to_bits()]), "bounds {bounds:?}");
            }
        }
    }

    /// `(s1, s2)`: single groups at every ragged length the sign words and
    /// the sixteen accumulators care about, and multi-group shapes whose
    /// `s1` is no multiple of four, so groups start mid-nibble.
    #[rustfmt::skip]
    const SHAPES: [(usize, usize); 16] = [
        (1, 1), (63, 1), (64, 1), (65, 1), (130, 1), (1000, 1),
        (1, 3), (7, 3), (21, 3), (63, 3), (130, 3), (333, 3),
        (1, 5), (15, 5), (65, 5), (201, 5),
    ];

    pub(super) fn mix(seed: u64, i: u64) -> u64 {
        let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The rows of every stream but `exclude` of the stream-major `last`.
    fn partner_rows(last: &[i64], copies: usize, exclude: usize) -> Vec<&[i64]> {
        let rows = last.chunks_exact(copies).enumerate();
        rows.filter(|&(k, _)| k != exclude).map(|(_, row)| row).collect()
    }

    /// The slicing guard in `u128`: the partners' largest magnitudes
    /// multiply to below 2^53 and the terms' magnitudes sum to below 2^53.
    fn guard_holds(rows: &[&[i64]]) -> bool {
        let largest = |row: &[i64]| row.iter().map(|x| u128::from(x.unsigned_abs())).max().unwrap();
        let bound = rows.iter().fold(1u128, |p, row| p.saturating_mul(largest(row)));
        let term = |c: usize| rows.iter().map(|row| u128::from(row[c].unsigned_abs())).product::<u128>();
        bound < 1 << 53 && (0..rows[0].len()).map(term).sum::<u128>() < 1 << 53
    }

    /// The frozen query's group sums over the row `slice_row` builds, or
    /// `None` where it refuses the row.
    fn sliced(words: &[u64], last: &[i64], exclude: usize, s1: usize, s2: usize) -> Option<Vec<u64>> {
        let mut row = kernel::SlicedRow::default();
        if !kernel::slice_row(last, exclude, s1, s2, &mut row) {
            assert_eq!(row, kernel::SlicedRow::default(), "a refused row holds nothing");
            return None;
        }
        let mut groups = Vec::new();
        kernel::sliced_group_sums(words, &row, s1, s2, &mut groups);
        Some(bits(&groups))
    }

    /// Groups of zero products whose `f64` signs differ from copy to copy
    /// — a zero factor beside negative ones — next to groups that are not
    /// all zero, at every group shape, under random signs and under signs
    /// that make every term of a group −0.0: the frozen query keeps the
    /// serial fold's zero, and keeps the product signs only where a group
    /// of zeros needs them.
    #[test]
    fn sliced_rows_keep_the_serial_sign_of_zero() {
        for (s1, s2) in SHAPES {
            let copies = s1 * s2;
            let random: Vec<u64> = (0..copies.div_ceil(64)).map(|i| mix(9, i as u64)).collect();
            // Stream 1's sign follows copy parity, stream 2 is zero in the
            // even groups and ±3 in the odd ones.
            let r1: Vec<i64> = (0..copies).map(|c| if mix(3, c as u64) & 1 == 1 { -5 } else { 5 }).collect();
            let r2: Vec<i64> = (0..copies)
                .map(|c| match (c / s1) % 2 {
                    0 => 0,
                    _ if c % 3 == 0 => -3,
                    _ => 3,
                })
                .collect();
            let last: Vec<i64> = [vec![7; copies], r1.clone(), r2.clone()].concat();
            let negative_zero = |c: usize| (r1[c] < 0) != (r2[c] < 0);
            // Signs that make every zero term −0.0: set where the product
            // is a +0.0.
            let mut against = vec![0u64; copies.div_ceil(64)];
            for c in 0..copies {
                against[c / 64] |= u64::from(!negative_zero(c)) << (c % 64);
            }
            for words in [&random, &against] {
                let want = bits(&serial_fold(words, &[&r1, &r2], s1, s2));
                assert_eq!(sliced(words, &last, 0, s1, s2), Some(want.clone()), "{s1}x{s2}");
                let minus = want.iter().filter(|&&b| b == (-0.0f64).to_bits()).count();
                if std::ptr::eq(words, &against) {
                    assert_eq!(minus, s2.div_ceil(2), "{s1}x{s2}: every zero group reads -0.0");
                }
            }
            let mut row = kernel::SlicedRow::default();
            assert!(kernel::slice_row(&last, 0, s1, s2, &mut row));
            let needed = (0..copies).any(|c| r2[c] == 0 && negative_zero(c));
            let kept = if needed { copies.div_ceil(64) } else { 0 };
            assert_eq!(row.negative.len(), kept, "{s1}x{s2}: a signed zero group keeps the signs");
            // Without a zero group the product signs are not kept.
            let live: Vec<i64> = [vec![7; copies], r1.clone(), vec![-2; copies]].concat();
            assert!(kernel::slice_row(&live, 0, s1, s2, &mut row));
            assert!(row.negative.is_empty(), "{s1}x{s2}");
            let want = bits(&serial_fold(&random, &[&r1, &live[2 * copies..]], s1, s2));
            assert_eq!(sliced(&random, &live, 0, s1, s2), Some(want));
        }
    }

    /// The guard's edge: a row whose `Σ_c |x_c|` is 2^53 − 1 is sliced and
    /// answers with the serial bits; one at 2^53 is refused. And the
    /// cancellation bait `[1e16, 1 ×15, −1e16, 1 ×3]`, where the serial
    /// fold absorbs the 1s an exact sum keeps, never reaches the planes.
    #[test]
    fn exactness_guard_sits_at_two_to_the_53() {
        const COPIES: usize = 1000;
        let words: Vec<u64> = (0..16).map(|i| mix(53, i)).collect();
        // 2^53 − 1 = 441 650 591 · 20 394 401: one copy holds it all but
        // the 999 ones beside it.
        let (x, y) = (441_650_591i64, 20_394_401i64);
        let mut a = vec![1i64; COPIES];
        let mut b = vec![-1i64; COPIES];
        (a[17], b[17]) = (x, -(y - 1));
        let remainder = (1i64 << 53) - 1 - x * (y - 1) - (COPIES as i64 - 2);
        a[3] = remainder;
        let last = [vec![0; COPIES], a.clone(), b.clone()].concat();
        let rows = partner_rows(&last, COPIES, 0);
        assert!(guard_holds(&rows));
        let want = bits(&serial_fold(&words, &rows, COPIES, 1));
        assert_eq!(sliced(&words, &last, 0, COPIES, 1), Some(want));
        let mut row = kernel::SlicedRow::default();
        assert!(kernel::slice_row(&last, 0, COPIES, 1, &mut row));
        assert_eq!(row.planes.len(), 54 * 16, "|x| near 2^53 takes 53 bits and a sign");
        // One more unit anywhere reaches 2^53.
        a[3] += 1;
        let last = [vec![0; COPIES], a, b].concat();
        assert!(!guard_holds(&partner_rows(&last, COPIES, 0)));
        assert_eq!(sliced(&words, &last, 0, COPIES, 1), None);
        // The bait, as the product of two partners.
        let mut r2 = vec![1i64; 20];
        (r2[0], r2[16]) = (100_000_000, -100_000_000);
        let mut r3 = vec![1i64; 20];
        (r3[0], r3[16]) = (100_000_000, 100_000_000);
        let bait = [vec![0; 20], r2.clone(), r3.clone()].concat();
        assert_eq!(sliced(&[0], &bait, 0, 20, 1), None);
        assert_eq!(serial_fold(&[0], &[&r2, &r3], 20, 1), [3.0], "the fold, not the sum 18");
    }

    /// Three partners whose products leave `i64` — and one whose wrapped
    /// product reads zero — are refused; so is a zero factor beside two
    /// partners whose largest magnitudes multiply past 2^53 (the `f64`
    /// fold's partial product may round there), and it is a zero term
    /// below that.
    #[test]
    fn three_partner_products_that_overflow_are_refused() {
        const COPIES: usize = 70;
        let words: Vec<u64> = (0..2).map(|i| mix(64, i)).collect();
        let row = |slot: usize, value: i64| {
            let mut r = vec![1i64; COPIES];
            r[slot] = value;
            r
        };
        for slot in [5, 67] {
            for (factors, accepted) in [
                ([1i64 << 22, 1 << 22, -(1 << 22)], false),
                ([1 << 32, 1 << 32, 1], false),
                ([1 << 31, -(1 << 31), 4], false),
                ([1 << 40, 1 << 40, 0], false),
                ([1 << 31, -(1 << 31), 0], false),
                ([1 << 20, -(1 << 20), 0], true),
                ([-(1 << 17), 1 << 17, -(1 << 17)], true),
            ] {
                let [a, b, c] = factors.map(|f| row(slot, f));
                let last = [vec![9; COPIES], a, b, c].concat();
                let rows = partner_rows(&last, COPIES, 0);
                assert_eq!(guard_holds(&rows), accepted, "{factors:?}");
                let got = sliced(&words, &last, 0, COPIES, 1);
                let want = bits(&serial_fold(&words, &rows, COPIES, 1));
                assert_eq!(got, accepted.then_some(want), "{factors:?} at copy {slot}");
            }
        }
    }
}
