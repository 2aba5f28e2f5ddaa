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

use mstream_sketch::{
    median_of_means_slice, AtomicSketch, BankConfig, EpochSpec, FourWiseHash, SketchBank,
    TumblingSketches,
};
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
        let mut old = LegacyBank::new(&q, cfg);
        for (s, vals, _) in workload(200, 23) {
            new.update(s, &vals);
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
                    new.productivity(sid, &vals).to_bits(),
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
    let mut old = LegacyBank::new(&q, cfg);
    for (s, vals, _) in workload(120, 11) {
        new.update(s, &vals);
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
                    new.sign_in_copy(c, StreamId(k), &vals),
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

#[test]
fn general_mixed_path_bit_identical_on_two_and_four_streams() {
    // Off the three-stream shape a first-epoch query takes the general
    // fold (multiply row by row, sign, serial sum); tuple-mode epochs with
    // a lagging last stream keep it live beside the frozen path.
    for n in [2usize, 4] {
        let mut c = Catalog::new();
        for k in 1..=n {
            c.add_stream(StreamSchema::new(format!("R{k}").as_str(), &["A1", "A2"]));
        }
        let preds: Vec<(String, String)> = (1..n)
            .map(|k| (format!("R{k}.A2"), format!("R{}.A1", k + 1)))
            .collect();
        let preds: Vec<(&str, &str)> = preds.iter().map(|(a, b)| (&**a, &**b)).collect();
        let q = JoinQuery::from_names(c, &preds, WindowSpec::secs(500)).unwrap();
        for (s1, s2) in [(33, 1), (20, 2)] {
            let cfg = BankConfig { s1, s2, seed: 9 };
            let epoch = EpochSpec::PerStreamTuples(8);
            let mut new = TumblingSketches::new(&q, cfg, epoch);
            let mut old = LegacyTumbling::new(&q, cfg, epoch);
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
                        let probe = v(i % 9, i % 4);
                        let sid = StreamId(stream);
                        assert_eq!(
                            new.productivity(sid, &probe).to_bits(),
                            old.productivity(sid, &probe).to_bits(),
                            "n={n} s2={s2}: productivity diverged at step {i} stream {stream}"
                        );
                    }
                }
            }
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
        let mut old = LegacyBank::new(&q, cfg);
        for (s, a, b) in steps {
            new.update(StreamId(s), &v(a, b));
            old.update(StreamId(s), &v(a, b));
        }
        prop_assert_eq!(
            new.estimate_join_count().to_bits(),
            old.estimate_join_count().to_bits()
        );
        for (s, a, b) in probes {
            prop_assert_eq!(
                new.productivity(StreamId(s), &v(a, b)).to_bits(),
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
// Vector-vs-scalar kernel bit-identity (PR 9).
//
// Every kernel in `mstream_sketch::kernel` ships a scalar reference path
// and a portable lane path (plus AVX2 specializations of the sign fold,
// sign application, the signed sum and the fused first-epoch
// product-and-sum); the entry points run the lane path, or AVX2 where the
// CPU has it. These properties pin all implementations bit-identical
// across odd lengths, ragged tails (len % LANES != 0, len % 64 != 0), and
// extreme inputs (i64::MIN/MAX-adjacent counters, ±0.0, subnormal and
// infinite values).
// ---------------------------------------------------------------------------

mod kernels {
    use super::has_avx2;
    use mstream_sketch::kernel::{self, lanes, scalar, LANES};
    use mstream_sketch::SignFamilies;
    use proptest::prelude::*;
    use rand::SeedableRng;

    /// Deterministic counter stream biased toward the i64 extremes (the
    /// `as f64` casts are lossy there — both paths must be lossy the same
    /// way) with small values in between.
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

    /// Deterministic value stream biased toward signed zeros and huge
    /// magnitudes.
    fn extreme_f64(seed: u64, i: usize) -> f64 {
        let r = seed.rotate_left((3 * i) as u32).wrapping_add(i as u64);
        match r % 8 {
            0 => 0.0,
            1 => -0.0,
            2 => 1e300,
            3 => -1e-300,
            4 => f64::from_bits(r >> 2), // arbitrary finite-ish bit pattern
            _ => (r as i64 % 10_000) as f64 / 3.0,
        }
    }

    /// Values at the edges of the format: signed zeros, subnormals,
    /// infinities, and integers up to 2^60.
    fn edge_f64(seed: u64, i: usize) -> f64 {
        let r = mix(seed, i as u64);
        let x = match r % 9 {
            0 => 0.0,
            1 => f64::from_bits(1 + (r >> 40)), // subnormal
            2 => f64::MIN_POSITIVE,
            3 => f64::INFINITY,
            4 => 1e300,
            _ => ((r >> 4) % (1 << 60)) as f64,
        };
        if r >> 63 == 0 {
            x
        } else {
            -x
        }
    }

    fn mix(seed: u64, i: u64) -> u64 {
        super::deferred::mix(seed, i)
    }

    /// Bit equality, with any NaN equal to any NaN (∞ − ∞ in one
    /// accumulator: which NaN comes out is the hardware's business).
    fn same(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// The sketch sizes the engine and the benches run at, and their
    /// neighbours across a sign word and a sixteen-value block.
    const PINNED_COPIES: [usize; 8] = [1, 7, 63, 64, 65, 999, 1000, 1025];

    fn sign_words(seed: u64, len: usize) -> Vec<u64> {
        (0..len.div_ceil(64))
            .map(|i| seed.wrapping_mul(i as u64 + 1).rotate_left(17))
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Sampled lengths hit empty, sub-lane, ragged-tail
    /// (`len % LANES != 0`), exact-lane, word-boundary and multi-word
    /// shapes; this pins the boundary cases the uniform range might miss.
    const PINNED_LENS: [usize; 8] = [0, 1, 3, LANES, 63, 64, 65, 130];

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
            let mut c = a.clone();
            scalar::fold_packed_signs(&words, &mut a);
            lanes::fold_packed_signs(&words, &mut b);
            kernel::fold_packed_signs(&words, &mut c);
            prop_assert_eq!(&a, &b);
            prop_assert_eq!(&a, &c);
        }

        #[test]
        fn column_products_modes_agree(
            sampled_copies in 1usize..200,
            streams in 1usize..5,
            exclude in 0usize..6,
            seed in any::<u64>(),
        ) {
            let copies = pick_len(sampled_copies, seed).max(1);
            let buf: Vec<i64> = (0..copies * streams).map(|i| extreme_i64(seed, i)).collect();
            let mut a = vec![0.0f64; copies];
            let mut b = vec![0.0f64; copies];
            let mut c = vec![0.0f64; copies];
            scalar::column_products(&buf, copies, exclude, &mut a);
            lanes::column_products(&buf, copies, exclude, &mut b);
            kernel::column_products(&buf, copies, exclude, &mut c);
            prop_assert_eq!(bits(&a), bits(&b));
            prop_assert_eq!(bits(&a), bits(&c));
        }

        #[test]
        fn multiply_row_modes_agree(
            sampled_len in 0usize..200,
            seed in any::<u64>(),
        ) {
            let len = pick_len(sampled_len, seed);
            let row: Vec<i64> = (0..len).map(|i| extreme_i64(seed, i + 7)).collect();
            let acc0: Vec<f64> = (0..len).map(|i| extreme_f64(seed, i)).collect();
            let mut a = acc0.clone();
            let mut b = acc0.clone();
            let mut c = acc0.clone();
            scalar::multiply_row(&mut a, &row);
            lanes::multiply_row(&mut b, &row);
            kernel::multiply_row(&mut c, &row);
            prop_assert_eq!(bits(&a), bits(&b));
            prop_assert_eq!(bits(&a), bits(&c));
        }

        #[test]
        fn apply_packed_signs_modes_agree(
            sampled_len in 0usize..200,
            seed in any::<u64>(),
        ) {
            let len = pick_len(sampled_len, seed);
            let vals: Vec<f64> = (0..len).map(|i| extreme_f64(seed, i)).collect();
            let words = sign_words(seed ^ 0xABCD, len);
            let mut a = vals.clone();
            let mut b = vals.clone();
            let mut c = vals.clone();
            scalar::apply_packed_signs(&words, &mut a);
            lanes::apply_packed_signs(&words, &mut b);
            kernel::apply_packed_signs(&words, &mut c);
            prop_assert_eq!(bits(&a), bits(&b));
            prop_assert_eq!(bits(&a), bits(&c));
        }

        #[test]
        fn signed_copy_modes_agree(
            sampled_len in 0usize..200,
            seed in any::<u64>(),
        ) {
            let len = pick_len(sampled_len, seed);
            let src: Vec<f64> = (0..len).map(|i| extreme_f64(seed, 2 * i)).collect();
            let words = sign_words(seed ^ 0x5A5A, len);
            let mut a = vec![0.0f64; len];
            let mut b = vec![0.0f64; len];
            let mut c = vec![0.0f64; len];
            scalar::signed_copy(&words, &src, &mut a);
            lanes::signed_copy(&words, &src, &mut b);
            kernel::signed_copy(&words, &src, &mut c);
            prop_assert_eq!(bits(&a), bits(&b));
            prop_assert_eq!(bits(&a), bits(&c));
        }

        #[test]
        fn product2_signed_modes_agree(
            sampled_len in 0usize..200,
            seed in any::<u64>(),
        ) {
            let len = pick_len(sampled_len, seed);
            let a_row: Vec<i64> = (0..len).map(|i| extreme_i64(seed, i)).collect();
            let b_row: Vec<i64> = (0..len).map(|i| extreme_i64(!seed, i)).collect();
            let words = sign_words(seed ^ 0xF00D, len);
            let mut a = vec![0.0f64; len];
            let mut b = vec![0.0f64; len];
            let mut c = vec![0.0f64; len];
            scalar::product2_signed(&a_row, &b_row, &words, &mut a);
            lanes::product2_signed(&a_row, &b_row, &words, &mut b);
            kernel::product2_signed(&a_row, &b_row, &words, &mut c);
            prop_assert_eq!(bits(&a), bits(&b));
            prop_assert_eq!(bits(&a), bits(&c));
        }

        #[test]
        fn group_sums_modes_agree(
            s1 in 0usize..40,
            s2 in 0usize..12,
            seed in any::<u64>(),
        ) {
            // Group counts straddle the lane width (s2 % LANES ∈ all
            // residues over the sampled range) and the values are
            // catastrophic-cancellation bait, so any in-group reorder
            // would change bits.
            let per_copy: Vec<f64> = (0..s1 * s2).map(|i| extreme_f64(seed, i)).collect();
            let mut a = Vec::new();
            let mut b = Vec::new();
            let mut c = Vec::new();
            scalar::group_sums(&per_copy, s1, s2, &mut a);
            lanes::group_sums(&per_copy, s1, s2, &mut b);
            kernel::group_sums(&per_copy, s1, s2, &mut c);
            prop_assert_eq!(bits(&a), bits(&b));
            prop_assert_eq!(bits(&a), bits(&c));
        }

        #[test]
        fn signed_sum_modes_agree(
            sampled_len in 0usize..200,
            first in 0usize..200,
            seed in any::<u64>(),
        ) {
            // `first` is where a group of an `s2 > 1` bank starts: any
            // offset into the sign words, so heads of every length.
            let len = pick_len(sampled_len, seed);
            let vals: Vec<f64> = (0..len).map(|i| edge_f64(seed, i)).collect();
            let words = sign_words(seed ^ 0x5EED, first + len);
            let want = scalar::signed_sum(&words, first, &vals);
            prop_assert!(same(want, lanes::signed_sum(&words, first, &vals)));
            prop_assert!(same(want, kernel::signed_sum(&words, first, &vals)));
        }

        #[test]
        fn product2_signed_sum_modes_agree(
            sampled_len in 0usize..200,
            magnitude in 0u32..54,
            seed in any::<u64>(),
        ) {
            // Counters up to `2^magnitude`: small ones keep the guard sum
            // under 2^53 (the fast path answers), large ones push it over
            // or leave the counter range (it declines) — the reference and
            // the vector form must decline together.
            let len = pick_len(sampled_len, seed);
            let draw = |salt: u64, i: usize| {
                let r = mix(seed ^ salt, i as u64);
                let x = (r >> 1) % (1u64 << magnitude).max(2);
                if r & 1 == 0 { x as i64 } else { -(x as i64) }
            };
            let a: Vec<i64> = (0..len).map(|i| draw(1, i)).collect();
            let b: Vec<i64> = (0..len).map(|i| draw(2, i)).collect();
            let words = sign_words(seed ^ 0xF00D, len);
            let want = scalar::product2_signed_sum(&a, &b, &words);
            if let Some(sum) = want {
                let mut signed = vec![0.0f64; len];
                scalar::product2_signed(&a, &b, &words, &mut signed);
                let mut serial = Vec::new();
                scalar::group_sums(&signed, len, 1, &mut serial);
                prop_assert_eq!(sum.to_bits(), serial[0].to_bits());
            }
            if has_avx2() {
                let got = kernel::product2_signed_sum(&a, &b, &words);
                prop_assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits));
            } else {
                prop_assert_eq!(kernel::product2_signed_sum(&a, &b, &words), None);
            }
        }

        #[test]
        fn sum_is_exact_gives_the_serial_verdict(
            sampled_len in 2usize..200,
            slack in -40i64..40,
            seed in any::<u64>(),
        ) {
            // Integer rows whose Σ|x| lands within 40 of 2^53, either side:
            // the multi-accumulator test and the serial one agree.
            let len = pick_len(sampled_len, seed).max(2) as u64;
            let total = ((1i64 << 53) + slack) as u64;
            // Every term but the last is at least 64, so the last — what
            // is left of `total` — stays below 2^53 and converts exactly.
            let mut ints: Vec<u64> = (1..len).map(|i| 64 + mix(seed, i) % (total / len - 64)).collect();
            ints.push(total - ints.iter().sum::<u64>());
            let row: Vec<f64> = ints
                .iter()
                .enumerate()
                .map(|(i, &x)| if mix(!seed, i as u64) & 1 == 1 { -(x as f64) } else { x as f64 })
                .collect();
            let serial = row.iter().map(|x| x.abs()).sum::<f64>() < (1u64 << 53) as f64;
            prop_assert_eq!(serial, slack < 0);
            prop_assert_eq!(kernel::sum_is_exact(&row), serial);
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
                let mut a = Vec::new();
                let mut b = Vec::new();
                let mut c = Vec::new();
                fam.eval_packed_scalar(pred, x, &mut a);
                fam.eval_packed_lanes(pred, x, &mut b);
                fam.eval_packed_into(pred, x, &mut c);
                prop_assert_eq!(&a, &b);
                prop_assert_eq!(&a, &c);
            }
        }
    }

    /// On AVX2 hosts the `std::arch` specializations must also be
    /// bit-identical (elsewhere this test is vacuous — the entry points
    /// never call them there either).
    #[test]
    fn avx2_sign_kernels_match_scalar() {
        #[cfg(target_arch = "x86_64")]
        if has_avx2() {
            for len in PINNED_LENS.into_iter().chain(PINNED_COPIES) {
                let src: Vec<f64> = (0..len).map(|i| extreme_f64(0xC0FFEE, i)).collect();
                let words = sign_words(0xBEEF, len);
                let mut want = src.clone();
                scalar::apply_packed_signs(&words, &mut want);
                let mut got = src.clone();
                kernel::avx2::apply_packed_signs(&words, &mut got);
                assert_eq!(bits(&want), bits(&got), "apply len={len}");

                let counters: Vec<i64> = (0..len).map(|i| extreme_i64(7, i) / 2).collect();
                let mut want = counters.clone();
                scalar::fold_packed_signs(&words, &mut want);
                let mut got = counters;
                kernel::avx2::fold_packed_signs(&words, &mut got);
                assert_eq!(want, got, "fold len={len}");
            }
        }
    }

    /// The summing kernels at the pinned sizes, every form: one group, and
    /// three groups so that the later ones start mid-word and mid-block.
    #[test]
    fn summing_kernels_match_scalar_at_pinned_copies() {
        for copies in PINNED_COPIES {
            for seed in 0..4u64 {
                let vals: Vec<f64> = (0..3 * copies).map(|i| edge_f64(seed, i)).collect();
                let words = sign_words(seed ^ 0xACE, 3 * copies);
                for g in 0..3 {
                    let (first, group) = (g * copies, &vals[g * copies..(g + 1) * copies]);
                    let want = scalar::signed_sum(&words, first, group);
                    assert!(same(want, lanes::signed_sum(&words, first, group)));
                    assert!(same(want, kernel::signed_sum(&words, first, group)));
                    #[cfg(target_arch = "x86_64")]
                    if has_avx2() {
                        let got = kernel::avx2::signed_sum(&words, first, group);
                        assert!(same(want, got), "signed_sum copies={copies} group={g}");
                    }
                }
                let a: Vec<i64> = (0..copies)
                    .map(|i| (mix(seed, i as u64) % 4001) as i64 - 2000)
                    .collect();
                let b: Vec<i64> = (0..copies)
                    .map(|i| (mix(!seed, i as u64) % 4001) as i64 - 2000)
                    .collect();
                let want = scalar::product2_signed_sum(&a, &b, &words);
                assert!(want.is_some(), "small counters pass both guards");
                #[cfg(target_arch = "x86_64")]
                if has_avx2() {
                    let got = kernel::avx2::product2_signed_sum(&a, &b, &words);
                    assert_eq!(
                        got.map(f64::to_bits),
                        want.map(f64::to_bits),
                        "copies={copies}"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Deferred counter updates and the order-free signed sum (PR 14).
//
// `SketchBank::update` parks sign vectors — eight to a block — in
// bit-sliced pending counters and settles them into the `i64` counters on
// read; the frozen productivity query sums a guarded cross row in sixteen
// accumulators, and the first-epoch one multiplies, signs and sums two
// live rows in one guarded pass. All are pinned here against the eager,
// serial scalar kernels.
// ---------------------------------------------------------------------------

mod deferred {
    use super::{chain_query, has_avx2, v, LegacyTumbling};
    use mstream_sketch::kernel::{self, scalar};
    use mstream_sketch::{
        median_of_means_slice, BankConfig, EpochSpec, SketchBank, TumblingSketches,
    };
    use mstream_types::{StreamId, VDur, VTime, Value};
    use proptest::prelude::*;

    /// The eager twin of a [`SketchBank`]: every update folded into the
    /// counters at once by `scalar::fold_packed_signs`, estimates from the
    /// scalar kernels.
    struct EagerBank {
        cfg: BankConfig,
        counters: Vec<i64>,
        words: Vec<u64>,
    }

    impl EagerBank {
        fn new(cfg: BankConfig) -> Self {
            EagerBank {
                cfg,
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
            bank.packed_signs_into(StreamId(stream), values, &mut words);
            scalar::fold_packed_signs(&words, self.row(stream));
            self.words = words;
        }

        fn estimate(&mut self, bank: &SketchBank, exclude: Option<(usize, &[Value])>) -> f64 {
            let copies = self.cfg.copies();
            let mut per_copy = vec![0.0f64; copies];
            let skip = exclude.map_or(usize::MAX, |(i, _)| i);
            scalar::column_products(&self.counters, copies, skip, &mut per_copy);
            if let Some((i, values)) = exclude {
                bank.packed_signs_into(StreamId(i), values, &mut self.words);
                scalar::apply_packed_signs(&self.words, &mut per_copy);
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
            let mut eager = EagerBank::new(cfg);
            for i in 0..u64::from(SketchBank::PENDING_MAX) + burst_extra {
                let vals = v(i % 5, i % 3);
                bank.update(StreamId(burst_stream), &vals);
                eager.update(&bank, burst_stream, &vals);
            }
            for (op, s, a, b) in ops {
                let sid = StreamId(s);
                match op {
                    0..=4 => {
                        bank.update(sid, &v(a, b));
                        eager.update(&bank, s, &v(a, b));
                    }
                    5 => {
                        // 64..=75 updates: some bursts end on a block
                        // boundary, most inside a block.
                        for i in 0..64 + a {
                            bank.update(sid, &v(a, i % 4));
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
                            bank.productivity(sid, &vals).to_bits(),
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

        /// Random integer-valued rows under the 2^53 guard: the fused
        /// multi-accumulator sum returns the serial pair's bits for every
        /// group shape, ragged heads and tails included.
        #[test]
        fn signed_group_sums_match_the_serial_pair_on_guarded_rows(
            seed in any::<u64>(),
            shape in 0usize..SHAPES.len(),
            zero_every in 1usize..9,
        ) {
            let (s1, s2) = SHAPES[shape];
            let len = s1 * s2;
            // |x| < 2^52 / len keeps Σ|x| under the guard.
            let bound = (1u64 << 52) / len as u64;
            let row: Vec<f64> = (0..len)
                .map(|i| {
                    let r = mix(seed, i as u64);
                    if i % zero_every == 0 {
                        if r & 1 == 0 { 0.0 } else { -0.0 }
                    } else {
                        let x = (r % bound) as f64;
                        if r >> 63 == 0 { x } else { -x }
                    }
                })
                .collect();
            prop_assert!(kernel::sum_is_exact(&row));
            let words: Vec<u64> = (0..len.div_ceil(64)).map(|i| mix(!seed, i as u64)).collect();
            prop_assert_eq!(bits(&fused(&words, &row, s1, s2)), bits(&serial(&words, &row, s1, s2)));
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

    /// The fused first-epoch sum declines exactly at its two guards — a
    /// counter of magnitude 2^51, a guard sum of 2^53 — in the vector body
    /// and in the scalar tail, and just inside them returns the serial
    /// pair's bits.
    #[test]
    fn product2_signed_sum_declines_at_its_guards() {
        const COPIES: usize = 70;
        let words: Vec<u64> = (0..2).map(|i| mix(51, i)).collect();
        let serial = |a: &[i64], b: &[i64]| {
            let mut signed = vec![0.0f64; COPIES];
            scalar::product2_signed(a, b, &words, &mut signed);
            let mut sums = Vec::new();
            scalar::group_sums(&signed, COPIES, 1, &mut sums);
            sums[0].to_bits()
        };
        // What the dispatched kernel must answer where the reference
        // answers `want`: the same with AVX2, nothing without.
        let check = |a: &[i64], b: &[i64], want: Option<u64>, what: &str| {
            let reference = scalar::product2_signed_sum(a, b, &words).map(f64::to_bits);
            assert_eq!(reference, want, "reference: {what}");
            let got = kernel::product2_signed_sum(a, b, &words).map(f64::to_bits);
            assert_eq!(
                got,
                if has_avx2() { want } else { None },
                "dispatched: {what}"
            );
        };
        let limit = 1i64 << 51;
        // Slot 5 sits in the vector body, slot 67 in the tail.
        for slot in [5, 67] {
            for edge in [limit, -limit] {
                let mut a = vec![1i64; COPIES];
                let b = vec![0i64; COPIES];
                a[slot] = edge;
                check(&a, &b, None, "counter at the limit");
                check(&b, &a, None, "counter at the limit, other row");
                a[slot] = edge - edge.signum();
                check(&a, &b, Some(serial(&a, &b)), "counter inside the limit");
            }
            // Σ|a·b| = 2^53 exactly, then one less.
            let mut a = vec![0i64; COPIES];
            let mut b = vec![0i64; COPIES];
            (a[slot], b[slot]) = (1 << 26, -(1 << 26));
            (a[20], b[20]) = (1 << 26, 1 << 26);
            check(&a, &b, None, "guard sum at 2^53");
            (a[40], b[40]) = (-1, 1);
            check(&a, &b, None, "guard sum above 2^53");
            b[20] -= 1;
            b[40] = 0;
            assert_eq!(
                a.iter().zip(&b).map(|(x, y)| (x * y).abs()).sum::<i64>(),
                (1 << 53) - (1 << 26)
            );
            check(&a, &b, Some(serial(&a, &b)), "guard sum under 2^53");
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

    fn fused(words: &[u64], row: &[f64], s1: usize, s2: usize) -> Vec<f64> {
        let mut groups = Vec::new();
        kernel::signed_group_sums(words, row, s1, s2, &mut groups);
        groups
    }

    fn serial(words: &[u64], row: &[f64], s1: usize, s2: usize) -> Vec<f64> {
        let mut signed = vec![0.0f64; row.len()];
        scalar::signed_copy(words, row, &mut signed);
        let mut groups = Vec::new();
        scalar::group_sums(&signed, s1, s2, &mut groups);
        groups
    }

    #[test]
    fn signed_group_sums_pin_the_sign_of_zero() {
        for (s1, s2) in SHAPES {
            let len = s1 * s2;
            let words: Vec<u64> = (0..len.div_ceil(64)).map(|i| mix(7, i as u64)).collect();
            let all_plus = vec![0u64; words.len()];
            // Rows of one kind of zero: with no sign flipped the total
            // keeps the row's zero; under random signs it is −0.0 only if
            // every flipped term came out −0.0 — whatever the serial fold
            // says.
            for zero in [0.0f64, -0.0] {
                let row = vec![zero; len];
                assert!(kernel::sum_is_exact(&row));
                let plain = fused(&all_plus, &row, s1, s2);
                assert!(
                    plain.iter().all(|g| g.to_bits() == zero.to_bits()),
                    "{s1}x{s2}"
                );
                assert_eq!(
                    bits(&fused(&words, &row, s1, s2)),
                    bits(&serial(&words, &row, s1, s2)),
                    "zeros {zero:?} at {s1}x{s2}"
                );
            }
            // Non-zero terms that cancel: x where the sign bit is clear, −x
            // where it is set, alternating, so every signed pair sums to
            // +0.0 and never to −0.0.
            let row: Vec<f64> = (0..len)
                .map(|i| {
                    let x = (i / 2 + 1) as f64;
                    let flipped = (words[i / 64] >> (i % 64)) & 1 == 1;
                    if (i % 2 == 0) == flipped {
                        -x
                    } else {
                        x
                    }
                })
                .collect();
            assert_eq!(
                bits(&fused(&words, &row, s1, s2)),
                bits(&serial(&words, &row, s1, s2)),
                "cancelling row at {s1}x{s2}"
            );
        }
    }

    #[test]
    fn exactness_guard_sits_at_two_to_the_53() {
        let limit = (1u64 << 53) as f64;
        // Σ|x| = 2^53 − 1 passes, and the fused sum is then the serial one.
        let mut row = vec![1.0f64; 1000];
        row[17] = -(limit - 1000.0);
        assert!(kernel::sum_is_exact(&row));
        let words: Vec<u64> = (0..16).map(|i| mix(53, i)).collect();
        assert_eq!(
            bits(&fused(&words, &row, 1000, 1)),
            bits(&serial(&words, &row, 1000, 1))
        );
        // Σ|x| = 2^53 does not, nor does anything non-finite.
        row[0] = 2.0;
        assert!(!kernel::sum_is_exact(&row));
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            assert!(!kernel::sum_is_exact(&[1.0, bad, 1.0]));
        }
        // The cancellation bait of `group_sums_keeps_serial_order_in_every_mode`
        // is refused, so its row only ever meets the serial fold. Stretched
        // over more than sixteen copies the orders do differ — the guard is
        // what keeps that from showing.
        assert!(!kernel::sum_is_exact(&[1e16, 1.0, -1e16, 1.0]));
        let mut bait = vec![1.0f64; 20];
        bait[0] = 1e16;
        bait[16] = -1e16;
        assert!(!kernel::sum_is_exact(&bait));
        let plus = [0u64];
        assert_eq!(serial(&plus, &bait, 20, 1), [3.0]);
        assert_eq!(fused(&plus, &bait, 20, 1), [18.0]);
    }
}
