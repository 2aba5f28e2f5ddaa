//! [`WindowStore`] held, step by step, to a model that does everything the
//! slow way: residents in one `Vec` in arrival order, buckets as plain
//! `Vec`s with append and swap-remove, the victim found by a linear scan
//! *after* the arrival is stored, expiry by reading the oldest resident.
//! Whatever the store's due-key field, in-place replacement, heap layout,
//! key column and queue compaction do, none of it may show.

use crate::arena::Slot;
use crate::store::{Eviction, WindowStore};
use mstream_types::{SeqNo, StreamId, Tuple, VDur, VTime, Value, WindowSpec};
use proptest::prelude::*;
use std::collections::HashMap;

/// Join-key values are drawn below this, so buckets run several deep and
/// victim and newcomer often share one.
const DOMAIN: u64 = 4;

struct Resident {
    seq: u64,
    ts: VTime,
    arrival_idx: u64,
    values: Vec<Value>,
    /// `None` while priorities are deferred.
    score: Option<f64>,
    state: f64,
    produced: u64,
}

struct Model {
    spec: WindowSpec,
    capacity: usize,
    join_attrs: Vec<usize>,
    /// Arrival order.
    residents: Vec<Resident>,
    /// `buckets[a][value]` = sequence numbers in probe order.
    buckets: Vec<HashMap<u64, Vec<u64>>>,
    arrivals_seen: u64,
    deferred: bool,
}

impl Model {
    fn new(spec: WindowSpec, join_attrs: Vec<usize>, capacity: usize) -> Self {
        Model {
            spec,
            capacity,
            buckets: vec![HashMap::new(); join_attrs.len()],
            join_attrs,
            residents: Vec::new(),
            arrivals_seen: 0,
            deferred: false,
        }
    }

    fn store(&mut self, tuple: &Tuple, score: Option<f64>, state: f64) {
        self.arrivals_seen += 1;
        for (a, &attr) in self.join_attrs.iter().enumerate() {
            let bucket = self.buckets[a].entry(tuple.values[attr].0).or_default();
            bucket.push(tuple.seq.0);
        }
        self.residents.push(Resident {
            seq: tuple.seq.0,
            ts: tuple.ts,
            arrival_idx: self.arrivals_seen,
            values: tuple.values.to_vec(),
            score,
            state,
            produced: 0,
        });
    }

    /// Removes the resident at `at`, swap-removing it from its buckets.
    fn remove(&mut self, at: usize) -> Resident {
        let gone = self.residents.remove(at);
        for (a, &attr) in self.join_attrs.iter().enumerate() {
            let bucket = self.buckets[a].get_mut(&gone.values[attr].0).unwrap();
            let pos = bucket.iter().position(|&s| s == gone.seq).unwrap();
            bucket.swap_remove(pos);
        }
        gone
    }

    /// Store, then — over capacity — remove the `(score, seq)` minimum,
    /// which may be the arrival. Returns the victim's sequence number.
    fn insert_scored(&mut self, tuple: &Tuple, score: f64, state: f64) -> Option<u64> {
        self.store(tuple, Some(score), state);
        if self.residents.len() <= self.capacity {
            return None;
        }
        let rank = |r: &Resident| (r.score.unwrap(), r.seq);
        let (mut at, mut min) = (0, rank(&self.residents[0]));
        for (i, r) in self.residents.iter().enumerate().skip(1) {
            let (score, seq) = rank(r);
            // `partial_cmp`, so that −0.0 ties with 0.0.
            if (score, seq).partial_cmp(&min).unwrap().is_lt() {
                (at, min) = (i, (score, seq));
            }
        }
        Some(self.remove(at).seq)
    }

    fn expire(&mut self, now: VTime) -> Vec<u64> {
        let mut out = Vec::new();
        while let Some(oldest) = self.residents.first() {
            let due = match self.spec {
                WindowSpec::Time(p) => oldest.ts.as_micros().saturating_add(p.as_micros()) <= now.as_micros(),
                WindowSpec::Tuples(n) => self.arrivals_seen - oldest.arrival_idx >= n,
            };
            if !due {
                break;
            }
            out.push(self.remove(0).seq);
        }
        out
    }

    /// Either rebuild: every resident rescored by [`rescored`].
    fn rebuild(&mut self, salt: u64, state: f64) {
        self.deferred = false;
        for r in &mut self.residents {
            (r.score, r.state) = (Some(rescored(r.seq, r.values[0].0, r.produced, salt)), state);
        }
    }

    fn get_mut(&mut self, seq: u64) -> Option<&mut Resident> {
        self.residents.iter_mut().find(|r| r.seq == seq)
    }

    fn min(&self) -> Option<(u64, f64)> {
        let scored = self.residents.iter().filter_map(|r| Some((r.score?, r.seq)));
        scored
            .min_by(|a, b| a.partial_cmp(b).unwrap())
            .map(|(score, seq)| (seq, score))
    }
}

/// The score a rebuild gives a resident: a per-key estimate plus a
/// per-tuple part, with −0.0, 0.0 and repeated values among them.
fn estimate(key: u64) -> f64 {
    [0.0, -0.0, 1.5, -2.0][key as usize % 4]
}
fn rescored(seq: u64, key: u64, produced: u64, salt: u64) -> f64 {
    estimate(key) + ((seq * 7 + produced + salt) % 3) as f64
}

/// One random interleaving over `spec`, checked after every step.
fn run(spec: WindowSpec, n_attrs: usize, capacity: usize, ops: &[(u8, u64, u64, u64)]) {
    let join_attrs: Vec<usize> = (0..n_attrs).collect();
    let mut real = WindowStore::new(spec, join_attrs.clone(), capacity);
    let mut model = Model::new(spec, join_attrs, capacity);
    let mut slots: HashMap<u64, Slot> = HashMap::new();
    let (mut seq, mut clock) = (0u64, 0u64);
    let expire = |real: &mut WindowStore, model: &mut Model, clock: u64| {
        let now = VTime::from_secs(clock);
        let mut got = Vec::new();
        let n = real.expire_each(now, |t| got.push(t.seq.0));
        assert_eq!(got, model.expire(now), "expired at {now:?}");
        assert_eq!(n as usize, got.len());
    };
    // A tuple window is expired before every arrival, as the engines do:
    // `check_invariants` holds a resident past its count against the store.
    let counted = matches!(spec, WindowSpec::Tuples(_));
    for &(op, x, y, z) in ops {
        match op {
            // Half the steps are arrivals, or windows would never fill.
            0..=5 => {
                if counted {
                    expire(&mut real, &mut model, clock);
                }
                seq += 1;
                // Mostly in timestamp order, sometimes a little behind.
                let ts = VTime::from_secs(clock.saturating_sub(if z % 5 == 0 { y % 3 } else { 0 }));
                let values: Vec<Value> = (0..3).map(|a| Value((x >> (2 * a)) % DOMAIN)).collect();
                let t = Tuple::new(StreamId(0), ts, SeqNo(seq), values);
                if real.is_deferred() && !real.is_full() {
                    model.store(&t, None, 0.0);
                    slots.insert(seq, real.insert_unscored(t));
                } else {
                    if real.is_deferred() {
                        // As the engines do for a deferred window short of room.
                        real.rebuild_priorities(|t, p| (rescored(t.seq.0, t.values[0].0, p, 0), 1.0));
                        model.rebuild(0, 1.0);
                    }
                    // Few distinct scores, both zeros among them.
                    let score = [-0.0, 0.0, 1.0, 1.0, 2.5, -3.0][(y % 6) as usize];
                    let state = z as f64;
                    let want = model.insert_scored(&t, score, state);
                    let got = real.insert_scored(t, score, state);
                    let victim = match got.eviction {
                        Eviction::Evicted(v) => Some(v.seq.0),
                        Eviction::None => None,
                    };
                    assert_eq!(victim, want, "victim of arrival {seq}");
                    assert_eq!(got.slot.is_some(), want != Some(seq), "stored verdict of {seq}");
                    if let Some(slot) = got.slot {
                        slots.insert(seq, slot);
                    }
                }
            }
            6 | 7 => {
                clock += x % 4;
                expire(&mut real, &mut model, clock);
            }
            8 => {
                real.note_arrivals(x % 4);
                model.arrivals_seen += x % 4;
                if counted {
                    expire(&mut real, &mut model, clock);
                }
            }
            9 => {
                // Any handle ever issued: stale ones must be refused.
                let target = 1 + x % seq.max(1);
                let score = [0.0, -0.0, 0.5, 7.0][(y % 4) as usize];
                let live = model.get_mut(target).filter(|r| r.score.is_some());
                let want = live.map(|r| r.score = Some(score)).is_some();
                let got = slots.get(&target).is_some_and(|&s| real.update_priority(s, score));
                assert_eq!(got, want, "update_priority of {target}");
            }
            10 => {
                let target = 1 + x % seq.max(1);
                let want = model.get_mut(target).map(|r| {
                    r.produced += y % 5;
                    r.produced
                });
                let got = slots.get(&target).and_then(|&s| real.add_produced(s, y % 5));
                assert_eq!(got, want, "add_produced of {target}");
            }
            11 => {
                real.defer_priorities();
                model.deferred = true;
                model.residents.iter_mut().for_each(|r| r.score = None);
            }
            12 => {
                real.rebuild_priorities(|t, p| (rescored(t.seq.0, t.values[0].0, p, x), y as f64));
                model.rebuild(x, y as f64);
            }
            _ => {
                real.rebuild_priorities_grouped(|t, p, shared| {
                    let key = t.values[0].0;
                    if let Some(est) = shared {
                        assert_eq!(est.to_bits(), estimate(key).to_bits(), "estimate shared across keys");
                        assert_eq!(n_attrs, 1, "multi-attribute stores share nothing");
                    }
                    (rescored(t.seq.0, key, p, x), y as f64, estimate(key))
                });
                model.rebuild(x, y as f64);
            }
        }
        real.check_invariants();
        assert_eq!(real.len(), model.residents.len());
        assert_eq!(real.arrivals_seen(), model.arrivals_seen);
        assert_eq!(real.is_deferred(), model.deferred);
        let min = real.peek_min().map(|(slot, score)| (real.tuple(slot).unwrap().seq.0, score));
        assert_eq!(min, model.min(), "heap minimum");
        for (a, buckets) in model.buckets.iter().enumerate() {
            for value in 0..DOMAIN {
                let got: Vec<u64> = real
                    .probe(a, Value(value))
                    .iter()
                    .map(|s| {
                        assert_eq!(real.join_col(a).get(s), Value(value), "key column");
                        real.tuple(s).unwrap().seq.0
                    })
                    .collect();
                let want = buckets.get(&value).cloned().unwrap_or_default();
                assert_eq!(got, want, "candidate order of attribute {a} = {value}");
            }
        }
        for r in &model.residents {
            let slot = slots[&r.seq];
            assert_eq!(real.produced(slot), Some(r.produced));
            assert_eq!(real.state(slot).map(f64::to_bits), Some(r.state.to_bits()));
            assert_eq!(real.priority(slot).map(f64::to_bits), r.score.map(f64::to_bits));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn store_matches_the_naive_model(
        tuples in prop::bool::ANY,
        n_attrs in 1usize..=3,
        capacity in 1usize..9,
        length in 1u64..12,
        ops in proptest::collection::vec((0u8..14, 0u64..4096, 0u64..4096, 0u64..4096), 1..250),
    ) {
        let spec = if tuples {
            WindowSpec::Tuples(length)
        } else {
            WindowSpec::Time(VDur::from_secs(length))
        };
        run(spec, n_attrs, capacity, &ops);
    }
}

/// 20× overload for a dozen window lengths: twenty arrivals for each one
/// the window has room for, the victim seldom the oldest. The expiry queue
/// holds an entry per admitted arrival of one window length unless dead
/// entries are dropped as it fills — a multiple of the capacity that grows
/// with the overload.
#[test]
fn expiry_queue_is_bounded_by_capacity_under_overload() {
    const CAPACITY: usize = 50;
    // 1000 arrivals a window length of 100 s, 50 of them kept.
    let spec = WindowSpec::Time(VDur::from_secs(100));
    let mut real = WindowStore::new(spec, vec![0], CAPACITY);
    let mut model = Model::new(spec, vec![0], CAPACITY);
    let mut longest = 0;
    let (mut evicted, mut expired) = (0u64, 0u64);
    for seq in 1..=12_000u64 {
        let now = VTime::from_micros(seq * 100_000);
        let mut got = Vec::new();
        real.expire_each(now, |t| got.push(t.seq.0));
        assert_eq!(got, model.expire(now), "expired at {now:?}");
        expired += got.len() as u64;
        let t = Tuple::new(StreamId(0), now, SeqNo(seq), vec![Value(seq % 7)]);
        // Scores rise with the clock, so nearly every arrival is admitted
        // and evicted from the middle of the queue some fifty arrivals
        // later; one in fifty scores far ahead and lives to expire.
        let draw = mstream_types::splitmix64(seq);
        let ahead = if draw % 50 == 0 { 40.0 } else { (draw % 1000) as f64 / 1000.0 };
        let score = seq as f64 / CAPACITY as f64 + ahead;
        let want = model.insert_scored(&t, score, 0.0);
        let got = real.insert_scored(t, score, 0.0);
        assert_eq!(got.slot.is_some(), want != Some(seq));
        evicted += u64::from(got.slot.is_some() && want.is_some());
        longest = longest.max(real.expiry_queue_len());
    }
    real.check_invariants();
    assert!(expired > 100, "the run spans expiries ({expired})");
    assert!(evicted > 40 * CAPACITY as u64, "most admissions end in eviction ({evicted})");
    assert!(longest <= 2 * CAPACITY + 4, "expiry queue grew to {longest} entries");
}

/// `ts + p` in plain `+` wrapped for a window as long as time itself
/// (release) or panicked (debug, overflow checks): a tuple stamped 10 s was
/// "due" at 10 s − 1 µs and gone at the next arrival.
#[test]
fn a_window_as_long_as_time_expires_nothing() {
    let forever = WindowSpec::Time(VDur::from_micros(u64::MAX));
    let mut w = WindowStore::new(forever, vec![0], 4);
    let t = Tuple::new(StreamId(0), VTime::from_secs(10), SeqNo(0), vec![Value(1)]);
    w.insert(t, 1.0);
    assert!(w.expire(VTime::from_secs(20)).is_empty());
    assert!(w.expire(VTime::from_micros(u64::MAX - 1)).is_empty());
    assert_eq!(w.len(), 1);
    w.check_invariants();
    // Tuple windows count arrivals the same way.
    let mut w = WindowStore::new(WindowSpec::Tuples(u64::MAX), vec![0], 4);
    let t = Tuple::new(StreamId(0), VTime::ZERO, SeqNo(0), vec![Value(1)]);
    w.insert(t, 1.0);
    w.note_arrivals(1 << 40);
    assert!(w.expire(VTime::ZERO).is_empty());
    w.check_invariants();
}
