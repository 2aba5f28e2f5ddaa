//! Tumbling-window sketch management (paper §4, Algorithm 1, steps 1.2/1.4).
//!
//! Productivity could be computed against the *current* window's sketches,
//! but those change on every arrival, so every resident tuple's priority
//! would have to be recomputed per arrival. The paper instead partitions
//! each stream into disjoint **tumbling windows** of length `n` (set to the
//! join-window length `p` in all experiments) and answers productivity
//! queries from the sketch of the **last** completed epoch: each tuple's
//! priority is computed at most twice in its lifetime (once on arrival,
//! once when the epoch rolls over and priorities are rebuilt).
//!
//! During the very first epoch there is no "last" sketch yet; the paper
//! falls back to the current one, and so do we — per stream, so a slow
//! stream keeps falling back until its own first epoch completes.
//!
//! Because the last-epoch snapshot is **immutable between rollovers**, the
//! cross-products `Π_{k≠i} X_k^{last}` it contributes to every
//! productivity query are precomputed once per rollover (lazily, per
//! excluded stream) into contiguous `f64` rows. A productivity query then
//! reduces to one packed-sign lookup plus a signed sum over that row —
//! `O(copies)` adds instead of `O(copies · n)` multiplies — which is also
//! what the engine's epoch-rollover priority rebuild pays per tuple.

use crate::bank::{median_of_means_into, median_of_sums, BankConfig, SketchBank};
use crate::kernel;
use crate::score_cache::{ScoreCache, ScoreCacheStats, ScoreKey, MAX_CACHED_ATTRS};
use crate::signs::SignCacheStats;
use mstream_types::{JoinQuery, StreamId, VDur, VTime, Value};
use serde::{Deserialize, Serialize};

/// When sketches tumble.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum EpochSpec {
    /// All streams roll together every `n` (virtual) seconds — the
    /// discipline for time-based windows.
    Time(VDur),
    /// Each stream rolls after every `n` of its own arrivals — the
    /// discipline for tuple-based windows (paper §4.1).
    PerStreamTuples(u64),
}

/// The time-mode epoch boundaries an arrival at `now` has crossed since the
/// epoch that began at `start`, which it steps to the last boundary at or
/// before `now`: one division for any gap. `start` never passes `now`, so
/// nothing can overflow.
pub(crate) fn elapsed_epochs(start: &mut VTime, now: VTime, n: VDur) -> u64 {
    let epochs = now.since(*start).as_micros() / n.as_micros();
    *start += n.mul(epochs);
    epochs
}

/// Current + last tumbling-epoch sketches for every stream of a query.
#[derive(Clone, Debug)]
pub struct TumblingSketches {
    bank: SketchBank,
    /// `last[k * copies + c]` = last completed epoch's `X_k` in copy `c`
    /// (stream-major, same layout as the bank's counters).
    last: Vec<i64>,
    /// Whether stream `k` has completed at least one epoch.
    has_last: Vec<bool>,
    epoch: EpochSpec,
    /// Time-mode: where the current epoch began, a whole number of epochs
    /// from the origin. The next global roll fires one epoch later; an
    /// epoch whose end lies past `u64::MAX` µs stays open.
    epoch_start: VTime,
    /// Tuple-mode: arrivals seen per stream since its last roll.
    arrivals: Vec<u64>,
    /// Scratch buffer of per-copy statistics for the paths that build the
    /// signed products before they sum them (the general mixed path and
    /// the fall-backs of the fused ones). Empty until one of them first
    /// runs.
    scratch: Vec<f64>,
    /// Scratch buffer of group means for median-of-means.
    groups: Vec<f64>,
    /// Scratch buffer of packed sign words.
    words: Vec<u64>,
    /// `cross[i * copies + c]` = frozen `Π_{k≠i} X_k^{last}` in copy `c`.
    cross: Vec<f64>,
    /// Whether `cross` row `i` reflects the current `last` snapshot.
    cross_valid: Vec<bool>,
    /// Whether valid `cross` row `i` passes [`kernel::sum_is_exact`], i.e.
    /// may be summed in any order; recomputed with the row.
    cross_exact: Vec<bool>,
    /// Epoch-scoped memo of exact productivity estimates (DESIGN.md §16).
    /// Only fully-frozen lookups are memoized, so a hit returns the same
    /// bits a recomputation would.
    score_cache: ScoreCache,
    /// Monotone roll counter: bumped by every roll of any stream, in
    /// either epoch discipline. Score-cache keys carry it so no entry can
    /// outlive the snapshot it was computed from.
    generation: u64,
}

impl TumblingSketches {
    /// Builds zeroed tumbling sketches for `query`.
    pub fn new(query: &JoinQuery, config: BankConfig, epoch: EpochSpec) -> Self {
        let bank = SketchBank::new(query, config);
        let n_streams = query.n_streams();
        let copies = config.copies();
        match epoch {
            EpochSpec::Time(n) => assert!(!n.is_zero(), "epoch length must be positive"),
            EpochSpec::PerStreamTuples(n) => assert!(n > 0, "epoch tuple count must be positive"),
        }
        TumblingSketches {
            bank,
            last: vec![0; n_streams * copies],
            has_last: vec![false; n_streams],
            epoch,
            epoch_start: VTime::ZERO,
            arrivals: vec![0; n_streams],
            scratch: Vec::new(),
            groups: Vec::with_capacity(config.s2),
            words: Vec::new(),
            cross: vec![0.0; n_streams * copies],
            cross_valid: vec![false; n_streams],
            cross_exact: vec![false; n_streams],
            score_cache: ScoreCache::default(),
            generation: 0,
        }
    }

    /// The epoch discipline in force.
    pub fn epoch(&self) -> EpochSpec {
        self.epoch
    }

    /// Advances virtual time, folds the arriving tuple into the current
    /// sketches, and performs any due epoch rollover.
    ///
    /// Returns `true` if a rollover happened — the engine uses this as the
    /// cue to rebuild its priority queues (Algorithm 1, step 1.2: "reset all
    /// the priority queues").
    pub fn observe(&mut self, stream: StreamId, values: &[Value], now: VTime) -> bool {
        let rolled = match self.epoch {
            EpochSpec::Time(n) => {
                // A gap of k epochs rolls min(k, 2) times: the second roll
                // leaves `last` empty, and every further roll would too.
                let elapsed = elapsed_epochs(&mut self.epoch_start, now, n);
                for _ in 0..elapsed.min(2) {
                    self.roll_all();
                }
                elapsed > 0
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
                    self.roll_stream(stream);
                    true
                } else {
                    false
                }
            }
            EpochSpec::Time(_) => false,
        };
        rolled || rolled_tuple
    }

    /// Rolls every stream at once (time-based epochs).
    fn roll_all(&mut self) {
        for k in 0..self.has_last.len() {
            self.shift_snapshots(StreamId(k));
        }
        self.cross_valid.fill(false);
        self.generation += 1;
        self.score_cache.clear();
    }

    /// Rolls a single stream (tuple-based epochs).
    fn roll_stream(&mut self, stream: StreamId) {
        self.shift_snapshots(stream);
        // Every cross-product row except `k`'s own consults X_k^{last}.
        for (i, valid) in self.cross_valid.iter_mut().enumerate() {
            if i != stream.index() {
                *valid = false;
            }
        }
        self.generation += 1;
        self.score_cache.clear();
    }

    /// The data movement of a roll: `stream`'s settled bank counters move
    /// straight into its `last` snapshot.
    fn shift_snapshots(&mut self, stream: StreamId) {
        let copies = self.bank.config().copies();
        let k = stream.index();
        let last = &mut self.last[k * copies..(k + 1) * copies];
        self.bank.roll_stream_into(stream, last);
        self.has_last[k] = true;
    }

    /// Rebuilds the frozen cross-product row excluding stream `i` from the
    /// current `last` snapshot (ascending stream order, so the float fold
    /// matches the legacy per-copy loop bit for bit).
    fn ensure_cross_row(&mut self, i: usize) {
        if self.cross_valid[i] {
            return;
        }
        let copies = self.bank.config().copies();
        let row = &mut self.cross[i * copies..(i + 1) * copies];
        kernel::column_products(&self.last, copies, i, row);
        self.cross_exact[i] = kernel::sum_is_exact(row);
        self.cross_valid[i] = true;
    }

    /// Estimated productivity of a tuple of `stream`:
    /// `prod(t) = Π_j ξ_{j,t[j]} · Π_{k≠i} X_k^{last}`, median-of-means
    /// combined, with per-stream fallback to the current sketch while a
    /// stream has not yet completed its first epoch.
    ///
    /// Steady state (every other stream past its first epoch) runs the
    /// frozen-cross-product fast path: a memoized packed-sign lookup and a
    /// signed copy of a precomputed `f64` row — or, on repeated key values
    /// within one epoch, a score-cache hit that skips the kernel entirely
    /// and returns the exact bits of the first computation.
    pub fn productivity(&mut self, stream: StreamId, values: &[Value]) -> f64 {
        let i = stream.index();
        let n = self.has_last.len();
        // Only the fully-frozen path is memoizable: the mixed paths fold
        // live bank rows that change on every arrival.
        let frozen = (0..n).all(|k| k == i || self.has_last[k]);
        let key = if frozen {
            self.cache_key(stream, values)
        } else {
            None
        };
        if let Some(key) = &key {
            if let Some(v) = self.score_cache.get(key) {
                return v;
            }
        }
        let v = self.productivity_uncached(stream, values, frozen);
        if let Some(key) = key {
            self.score_cache.insert(key, v);
        }
        v
    }

    /// The kernel path behind [`TumblingSketches::productivity`]:
    /// `frozen` is the precomputed "every other stream past its first
    /// epoch" flag (passed in so the memoized wrapper derives it once).
    fn productivity_uncached(&mut self, stream: StreamId, values: &[Value], frozen: bool) -> f64 {
        let i = stream.index();
        let n = self.has_last.len();
        let cfg = self.bank.config();
        let copies = cfg.copies();
        self.bank.packed_signs_into(stream, values, &mut self.words);
        if frozen {
            self.ensure_cross_row(i);
            let row = &self.cross[i * copies..(i + 1) * copies];
            if self.cross_exact[i] {
                // Every partial sum of this row is an exact integer in any
                // order (DESIGN.md §16): one fused multi-accumulator pass,
                // bit-identical to the serial pair below.
                self.groups.clear();
                kernel::signed_group_sums(&self.words, row, cfg.s1, cfg.s2, &mut self.groups);
                return median_of_sums(cfg.s1, &mut self.groups);
            }
            self.scratch.resize(copies, 0.0);
            kernel::signed_copy(&self.words, row, &mut self.scratch);
            median_of_means_into(cfg.s1, cfg.s2, &self.scratch, &mut self.groups)
        } else if n == 3 {
            // Two-partner mixed path (the paper's 3-stream shape): product,
            // sign and sum in one pass where the sum cannot depend on its
            // order (DESIGN.md §15), else a fused, branch-free product pass
            // and the serial sum — bit-identical to the general fold below
            // either way.
            let (a, b) = match i {
                0 => (1, 2),
                1 => (0, 2),
                _ => (0, 1),
            };
            self.settle_live_partners(i);
            let Self {
                bank,
                last,
                has_last,
                scratch,
                groups,
                words,
                ..
            } = self;
            let row = |k: usize| -> &[i64] {
                if has_last[k] {
                    &last[k * copies..(k + 1) * copies]
                } else {
                    bank.settled_row(StreamId(k))
                }
            };
            if cfg.s2 == 1 {
                if let Some(sum) = kernel::product2_signed_sum(row(a), row(b), words) {
                    return median_of_sums(cfg.s1, &mut [sum]);
                }
            }
            scratch.resize(copies, 0.0);
            kernel::product2_signed(row(a), row(b), words, scratch);
            median_of_means_into(cfg.s1, cfg.s2, scratch, groups)
        } else {
            // Mixed path (some stream still in its first epoch): multiply
            // per-stream rows in ascending order, choosing last-epoch or
            // live counters per stream exactly as the paper prescribes.
            self.settle_live_partners(i);
            self.scratch.clear();
            self.scratch.resize(copies, 1.0);
            for k in 0..n {
                if k == i {
                    continue;
                }
                let row: &[i64] = if self.has_last[k] {
                    &self.last[k * copies..(k + 1) * copies]
                } else {
                    self.bank.settled_row(StreamId(k))
                };
                kernel::multiply_row(&mut self.scratch, row);
            }
            kernel::apply_packed_signs(&self.words, &mut self.scratch);
            median_of_means_into(cfg.s1, cfg.s2, &self.scratch, &mut self.groups)
        }
    }

    /// Settles the live bank row of every partner of stream `i` that has
    /// no `last` snapshot yet — the rows the mixed first-epoch paths fold.
    fn settle_live_partners(&mut self, i: usize) {
        for k in 0..self.has_last.len() {
            if k != i && !self.has_last[k] {
                self.bank.settle_stream(StreamId(k));
            }
        }
    }

    /// The score-cache key of a frozen lookup: the raw values of the
    /// stream's incident join attributes (the only tuple inputs the sign
    /// product — and hence the estimate — depends on), in incidence order.
    /// `None` when memoization is off or the stream has more incident
    /// attributes than the inline key holds.
    fn cache_key(&self, stream: StreamId, values: &[Value]) -> Option<ScoreKey> {
        if !self.score_cache.enabled() {
            return None;
        }
        let incidence = self.bank.incidence(stream);
        if incidence.len() > MAX_CACHED_ATTRS {
            return None;
        }
        let mut vals = [0u64; MAX_CACHED_ATTRS];
        for (slot, &(_, attr)) in vals.iter_mut().zip(incidence) {
            *slot = values[attr].raw();
        }
        Some(ScoreKey {
            generation: self.generation,
            stream: stream.index() as u32,
            values: vals,
            n_values: incidence.len() as u8,
        })
    }

    /// Productivity computed against the *current* epoch's sketches
    /// (the expensive variant; exposed for the recompute-policy ablation).
    /// Never memoized — the live bank changes on every arrival.
    pub fn current_productivity(&mut self, stream: StreamId, values: &[Value]) -> f64 {
        self.bank.productivity(stream, values)
    }

    /// Estimated size of the full multi-way join over the current epoch.
    pub fn estimate_join_count(&mut self) -> f64 {
        self.bank.estimate_join_count()
    }

    /// Read-only access to the underlying current-epoch bank (sizing,
    /// incidence, memo counters — reading counter values settles pending
    /// updates and goes through `&mut self` methods instead).
    pub fn bank(&self) -> &SketchBank {
        &self.bank
    }

    /// Whether `stream` has completed at least one epoch.
    pub fn has_last_epoch(&self, stream: StreamId) -> bool {
        self.has_last[stream.index()]
    }

    /// Hit/miss/occupancy counters of the bank's packed-sign memo.
    pub fn sign_cache_stats(&self) -> SignCacheStats {
        self.bank.sign_cache_stats()
    }

    /// Hit/miss/occupancy counters of the epoch-scoped productivity memo.
    pub fn score_cache_stats(&self) -> ScoreCacheStats {
        self.score_cache.stats()
    }

    /// Whether productivity memoization is active.
    pub fn score_cache_enabled(&self) -> bool {
        self.score_cache.enabled()
    }

    /// Turns productivity memoization (on by default) on or off for this
    /// instance (the audit harness A/B-compares cached and uncached runs
    /// inside one process). Disabling drops every resident estimate.
    pub fn set_score_cache(&mut self, enabled: bool) {
        self.score_cache.set_enabled(enabled);
    }

    /// Rebinds the memo's capacity bound (tests exercise the wholesale
    /// drop with tiny bounds); drops resident entries.
    pub fn set_score_cache_bound(&mut self, max_entries: usize) {
        let enabled = self.score_cache.enabled();
        self.score_cache = ScoreCache::with_capacity_bound(max_entries, enabled);
    }

    /// Structural audit of the tumbling state:
    ///
    /// - buffer shapes agree with the stream count and copy count;
    /// - epoch bookkeeping is coherent (time mode: the current epoch starts
    ///   a whole number of epochs from the origin; tuple mode: no per-stream
    ///   arrival counter has silently passed its roll threshold);
    /// - every cross-product row flagged `cross_valid` is bit-identical to
    ///   a fresh recomputation from the `last` snapshot — the frozen fast
    ///   path must never serve a stale product — and its stored
    ///   order-free-sum guard equals a fresh [`kernel::sum_is_exact`];
    /// - the bank's deferred-update state holds
    ///   ([`SketchBank::check_invariants`]).
    ///
    /// O(streams² · copies); compiled only for tests and the `audit`
    /// feature, where the differential harness calls it after every arrival.
    ///
    /// # Panics
    /// Panics on any violated invariant.
    #[cfg(any(test, feature = "audit"))]
    pub fn check_invariants(&self) {
        let n = self.has_last.len();
        let copies = self.bank.config().copies();
        assert_eq!(self.last.len(), n * copies, "last snapshot shape");
        assert_eq!(self.cross.len(), n * copies, "cross-product shape");
        assert_eq!(self.cross_valid.len(), n, "cross_valid shape");
        assert_eq!(self.cross_exact.len(), n, "cross_exact shape");
        assert_eq!(self.arrivals.len(), n, "arrival counter shape");
        self.bank.check_invariants();
        match self.epoch {
            EpochSpec::Time(p) => {
                let micros = self.epoch_start.as_micros();
                assert_eq!(micros % p.as_micros(), 0, "epoch start off the epoch grid");
            }
            EpochSpec::PerStreamTuples(c) => {
                for (k, &a) in self.arrivals.iter().enumerate() {
                    assert!(a < c, "stream {k} missed its epoch roll: {a} >= {c}");
                }
            }
        }
        self.score_cache.check_invariants(self.generation);
        let mut fresh = vec![0.0f64; copies];
        for i in 0..n {
            if !self.cross_valid[i] {
                continue;
            }
            kernel::column_products(&self.last, copies, i, &mut fresh);
            let row = &self.cross[i * copies..(i + 1) * copies];
            for (c, (&got, &want)) in row.iter().zip(&fresh).enumerate() {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "stale frozen cross-product: row {i}, copy {c}"
                );
            }
            assert_eq!(
                self.cross_exact[i],
                kernel::sum_is_exact(&fresh),
                "stale order-free-sum guard: row {i}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mstream_types::{Catalog, StreamSchema, WindowSpec};

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

    fn cfg(s1: usize, seed: u64) -> BankConfig {
        BankConfig { s1, s2: 1, seed }
    }

    #[test]
    fn first_epoch_falls_back_to_current() {
        let q = chain_query();
        let mut ts = TumblingSketches::new(&q, cfg(300, 1), EpochSpec::Time(VDur::from_secs(100)));
        for i in 0..30 {
            ts.observe(StreamId(1), &v(5, i % 2), VTime::from_secs(1));
            ts.observe(StreamId(2), &v(i % 2, 0), VTime::from_secs(1));
        }
        assert!(!ts.has_last_epoch(StreamId(1)));
        // 30 matching R2 tuples × 15 matching R3 tuples each = 450.
        let p = ts.productivity(StreamId(0), &v(5, 0));
        assert!((p - 450.0).abs() / 450.0 < 0.5, "p={p}");
    }

    #[test]
    fn time_roll_moves_current_to_last() {
        let q = chain_query();
        let mut ts = TumblingSketches::new(&q, cfg(300, 2), EpochSpec::Time(VDur::from_secs(10)));
        for _ in 0..20 {
            ts.observe(StreamId(1), &v(7, 3), VTime::from_secs(1));
        }
        for _ in 0..10 {
            ts.observe(StreamId(2), &v(3, 0), VTime::from_secs(2));
        }
        // Cross the epoch boundary: this arrival triggers the roll.
        let rolled = ts.observe(StreamId(1), &v(0, 0), VTime::from_secs(11));
        assert!(rolled);
        assert!(ts.has_last_epoch(StreamId(0)));
        // Productivity of an R1 tuple joining value 7 against the LAST
        // epoch: 20 × 10 = 200 (the new (0,0) tuple is in the current epoch
        // and must not contribute).
        let p = ts.productivity(StreamId(0), &v(7, 0));
        assert!((p - 200.0).abs() / 200.0 < 0.5, "p={p}");
    }

    #[test]
    fn multiple_epochs_can_roll_in_one_gap() {
        let q = chain_query();
        let mut ts = TumblingSketches::new(&q, cfg(4, 3), EpochSpec::Time(VDur::from_secs(5)));
        ts.observe(StreamId(0), &v(1, 1), VTime::ZERO);
        // Jump 3 epochs ahead; the intermediate empty epochs must clear the
        // last snapshot (the last completed epoch saw no tuples).
        let rolled = ts.observe(StreamId(0), &v(1, 1), VTime::from_secs(17));
        assert!(rolled);
        let p = ts.productivity(StreamId(1), &v(1, 1));
        assert_eq!(p, 0.0, "last epoch was empty");
    }

    /// Past two epochs a gap changes nothing but the epoch start: a jump
    /// of 10^12 epochs costs two rolls, not 10^12, and leaves the same
    /// estimates as a jump of two.
    #[test]
    fn a_jump_of_many_epochs_matches_a_jump_of_two() {
        let q = chain_query();
        let n = VDur::from_secs(10);
        let jump = |epochs: u64| {
            let mut ts = TumblingSketches::new(&q, cfg(64, 7), EpochSpec::Time(n));
            for i in 0..30u64 {
                let s = StreamId((i % 3) as usize);
                ts.observe(s, &v(i % 5, i % 3), VTime::from_secs(i % 9));
            }
            // Epoch 1 is current; the jump lands `epochs` epochs later.
            ts.observe(StreamId(1), &v(7, 3), VTime::from_secs(15));
            let start = VTime::ZERO + n.mul(1 + epochs);
            assert!(ts.observe(StreamId(2), &v(3, 0), start + VDur::from_secs(4)));
            assert_eq!(ts.epoch_start, start);
            ts.check_invariants();
            // The rest of the epoch rolls nothing; its end rolls once.
            assert!(!ts.observe(StreamId(0), &v(2, 1), start + VDur::from_secs(9)));
            let estimates = |ts: &mut TumblingSketches| -> Vec<u64> {
                (0..15u64)
                    .map(|a| {
                        let s = StreamId((a % 3) as usize);
                        ts.productivity(s, &v(a % 5, a % 3)).to_bits()
                    })
                    .collect()
            };
            let before = estimates(&mut ts);
            assert!(ts.observe(StreamId(0), &v(1, 1), start + n));
            assert_eq!(ts.epoch_start, start + n);
            (before, estimates(&mut ts))
        };
        assert_eq!(jump(1_000_000_000_000), jump(2));
    }

    /// An epoch of 2^62 µs has three boundaries below `u64::MAX`; the fourth
    /// does not exist, so the epoch begun at 3·2^62 stays open.
    #[test]
    fn an_epoch_ending_past_the_end_of_time_stays_open() {
        let q = chain_query();
        let n = VDur::from_micros(1 << 62);
        let mut ts = TumblingSketches::new(&q, cfg(8, 3), EpochSpec::Time(n));
        ts.observe(StreamId(1), &v(1, 1), VTime::from_secs(1));
        assert!(ts.observe(StreamId(1), &v(1, 1), VTime::from_micros(u64::MAX - 1)));
        assert_eq!(ts.epoch_start, VTime::from_micros(3 << 62));
        assert!(!ts.observe(StreamId(2), &v(1, 1), VTime::from_micros(u64::MAX)));
        ts.check_invariants();
        // The last completed epoch, [2·2^62, 3·2^62), was empty.
        assert_eq!(ts.productivity(StreamId(0), &v(1, 0)), 0.0);
    }

    #[test]
    fn per_stream_tuple_epochs_roll_independently() {
        let q = chain_query();
        let mut ts = TumblingSketches::new(&q, cfg(200, 4), EpochSpec::PerStreamTuples(10));
        // Stream 1 gets 10 arrivals (rolls); stream 2 only 5 (does not).
        let mut rolled_any = false;
        for i in 0..10 {
            rolled_any |= ts.observe(StreamId(1), &v(4, i % 2), VTime::ZERO);
        }
        assert!(rolled_any);
        assert!(ts.has_last_epoch(StreamId(1)));
        for _ in 0..5 {
            ts.observe(StreamId(2), &v(0, 9), VTime::ZERO);
        }
        assert!(!ts.has_last_epoch(StreamId(2)));
        // R1-tuple with A1=4: last epoch of stream 1 has 10 matches; stream
        // 2 falls back to its current sketch with 5 matches on value 0.
        let p = ts.productivity(StreamId(0), &v(4, 0));
        assert!((p - 50.0).abs() / 50.0 < 0.6, "p={p}");
    }

    #[test]
    fn current_productivity_sees_live_epoch() {
        let q = chain_query();
        let mut ts = TumblingSketches::new(&q, cfg(300, 5), EpochSpec::Time(VDur::from_secs(10)));
        for _ in 0..20 {
            ts.observe(StreamId(1), &v(2, 2), VTime::from_secs(1));
        }
        for _ in 0..20 {
            ts.observe(StreamId(2), &v(2, 2), VTime::from_secs(1));
        }
        // Roll, then add fresh tuples to the new epoch.
        ts.observe(StreamId(1), &v(9, 9), VTime::from_secs(11));
        let last_based = ts.productivity(StreamId(0), &v(9, 0));
        let current_based = ts.current_productivity(StreamId(0), &v(9, 0));
        // Value 9 only exists in the current epoch: last-based sees nothing.
        assert!(last_based.abs() < 40.0, "last_based={last_based}");
        // current-based sees 1 R2-tuple × 0 R3 matches = 0 too, but through
        // a different path; both must be finite and small.
        assert!(current_based.abs() < 40.0);
    }

    #[test]
    fn frozen_cross_products_match_direct_multiplication() {
        // Same query answered before and after the cross rows are (lazily)
        // built must agree bit for bit, across both time- and tuple-mode
        // rolls interleaved with cache-warming repeats.
        let q = chain_query();
        let mut ts = TumblingSketches::new(&q, cfg(64, 8), EpochSpec::Time(VDur::from_secs(10)));
        for i in 0..25u64 {
            let s = StreamId((i % 3) as usize);
            ts.observe(s, &v(i % 5, i % 3), VTime::from_secs(i % 9));
        }
        // Force a roll so the frozen path engages.
        ts.observe(StreamId(0), &v(1, 1), VTime::from_secs(30));
        assert!(ts.has_last_epoch(StreamId(1)));
        let first = ts.productivity(StreamId(0), &v(2, 0));
        let again = ts.productivity(StreamId(0), &v(2, 0));
        assert_eq!(first.to_bits(), again.to_bits());
        // A second roll invalidates and rebuilds the rows.
        ts.observe(StreamId(1), &v(2, 2), VTime::from_secs(45));
        let after_roll = ts.productivity(StreamId(0), &v(2, 0));
        assert_eq!(
            after_roll.to_bits(),
            ts.productivity(StreamId(0), &v(2, 0)).to_bits()
        );
    }

    #[test]
    fn sign_cache_stats_flow_through() {
        let q = chain_query();
        let mut ts = TumblingSketches::new(&q, cfg(32, 6), EpochSpec::Time(VDur::from_secs(100)));
        ts.observe(StreamId(0), &v(1, 1), VTime::ZERO);
        ts.observe(StreamId(0), &v(1, 1), VTime::ZERO);
        let stats = ts.sign_cache_stats();
        assert!(stats.misses >= 1);
        assert!(stats.hits >= 1, "repeated value must hit the memo");
    }

    /// Builds tumbling sketches past their first roll (frozen fast path
    /// live on every stream) with a hot value on R2/R3.
    fn frozen_sketches(s1: usize, seed: u64) -> TumblingSketches {
        let q = chain_query();
        let mut ts = TumblingSketches::new(&q, cfg(s1, seed), EpochSpec::Time(VDur::from_secs(10)));
        for _ in 0..20 {
            ts.observe(StreamId(1), &v(7, 3), VTime::from_secs(1));
        }
        for _ in 0..10 {
            ts.observe(StreamId(2), &v(3, 0), VTime::from_secs(2));
        }
        ts.observe(StreamId(1), &v(0, 0), VTime::from_secs(11));
        assert!((0..3).all(|k| ts.has_last_epoch(StreamId(k))));
        ts
    }

    #[test]
    fn score_cache_hits_are_bit_identical_to_uncached() {
        let mut cached = frozen_sketches(64, 2);
        let mut plain = frozen_sketches(64, 2);
        plain.set_score_cache(false);
        assert!(cached.score_cache_enabled(), "the memo is on by default");
        for a in 0..40u64 {
            let val = v(a % 5, a % 3);
            let s = StreamId((a % 3) as usize);
            let want = plain.productivity(s, &val);
            let got = cached.productivity(s, &val);
            assert_eq!(got.to_bits(), want.to_bits(), "stream {s:?} value {a}");
        }
        let stats = cached.score_cache_stats();
        assert!(stats.hits >= 1, "repeated keys must hit: {stats:?}");
        assert!(stats.misses >= 1);
        let off = plain.score_cache_stats();
        assert_eq!((off.hits, off.entries), (0, 0), "disabled memo is inert");
    }

    #[test]
    fn score_cache_flushes_at_rollover() {
        let mut ts = frozen_sketches(32, 5);
        ts.set_score_cache(true);
        let before = ts.productivity(StreamId(0), &v(7, 0));
        let _ = ts.productivity(StreamId(0), &v(7, 0));
        assert!(ts.score_cache_stats().entries >= 1);
        // Roll: the snapshot the entries were computed from is gone.
        assert!(ts.observe(StreamId(1), &v(7, 3), VTime::from_secs(25)));
        assert_eq!(ts.score_cache_stats().entries, 0, "rollover flushes wholesale");
        ts.check_invariants();
        let after = ts.productivity(StreamId(0), &v(7, 0));
        assert_ne!(
            before.to_bits(),
            after.to_bits(),
            "post-roll estimate reflects the new snapshot, not a stale entry"
        );
    }

    #[test]
    fn score_cache_bound_evicts_wholesale_and_stays_exact() {
        let mut ts = frozen_sketches(32, 6);
        ts.set_score_cache(true);
        ts.set_score_cache_bound(4);
        let mut firsts = Vec::new();
        for a in 0..12u64 {
            firsts.push(ts.productivity(StreamId(0), &v(a, 0)));
        }
        assert!(ts.score_cache_stats().entries <= 4, "bound respected");
        ts.check_invariants();
        // Re-query every value: some hit, some were dropped by the bound —
        // either way the bits match the first computation.
        for (a, want) in firsts.iter().enumerate() {
            let again = ts.productivity(StreamId(0), &v(a as u64, 0));
            assert_eq!(again.to_bits(), want.to_bits(), "value {a}");
        }
    }

    #[test]
    fn score_cache_skips_unfrozen_streams() {
        // Stream 2 never completes an epoch: productivity folds its live
        // bank row, which changes with every arrival — nothing may be
        // memoized, and repeated queries must track the live row.
        let q = chain_query();
        let mut ts = TumblingSketches::new(&q, cfg(200, 4), EpochSpec::PerStreamTuples(10));
        ts.set_score_cache(true);
        for i in 0..10 {
            ts.observe(StreamId(1), &v(4, i % 2), VTime::ZERO);
        }
        for _ in 0..5 {
            ts.observe(StreamId(2), &v(0, 9), VTime::ZERO);
        }
        assert!(!ts.has_last_epoch(StreamId(2)));
        let before = ts.productivity(StreamId(0), &v(4, 0));
        assert_eq!(ts.score_cache_stats().entries, 0, "mixed path never memoizes");
        for _ in 0..4 {
            ts.observe(StreamId(2), &v(0, 9), VTime::ZERO);
        }
        let after = ts.productivity(StreamId(0), &v(4, 0));
        assert!(
            (after - before).abs() > 1e-9,
            "estimate must follow the live row: {before} vs {after}"
        );
    }

    #[test]
    fn frozen_sum_branch_follows_each_cross_row_guard() {
        // Inject a last-epoch snapshot whose cross row for R1 is the
        // cancellation bait [1e16, 1 ×15, −1e16, 1 ×3]: Σ|x| ≥ 2^53, so the
        // row must be summed serially — a sixteen-accumulator sum cancels
        // the two giants first and keeps every 1 the serial fold absorbs.
        let q = chain_query();
        let mut ts = TumblingSketches::new(&q, cfg(20, 9), EpochSpec::Time(VDur::from_secs(10)));
        let mut r2 = vec![1i64; 20];
        (r2[0], r2[16]) = (100_000_000, -100_000_000);
        let mut r3 = vec![1i64; 20];
        (r3[0], r3[16]) = (100_000_000, 100_000_000);
        ts.last[20..40].copy_from_slice(&r2);
        ts.last[40..60].copy_from_slice(&r3);
        ts.has_last.fill(true);
        ts.set_score_cache(false);

        // The serial reference, from the scalar kernels and the row the
        // instance built.
        let serial = |ts: &TumblingSketches, vals: &[Value]| -> f64 {
            let mut words = Vec::new();
            ts.bank().packed_signs_into(StreamId(0), vals, &mut words);
            let mut signed = vec![0.0f64; 20];
            kernel::scalar::signed_copy(&words, &ts.cross[..20], &mut signed);
            let mut sums = Vec::new();
            kernel::scalar::group_sums(&signed, 20, 1, &mut sums);
            sums[0] / 20.0
        };
        let mut orders_differ = false;
        for a in 0..32 {
            let got = ts.productivity(StreamId(0), &v(a, 0));
            assert!(!ts.cross_exact[0], "bait row refused by the guard");
            assert_eq!(got.to_bits(), serial(&ts, &v(a, 0)).to_bits(), "value {a}");
            let mut fused = Vec::new();
            kernel::signed_group_sums(&ts.words, &ts.cross[..20], 20, 1, &mut fused);
            orders_differ |= fused[0] / 20.0 != got;
        }
        assert!(orders_differ, "the bait separates the two summation orders");
        ts.check_invariants();

        // One real roll later the snapshot is a handful of small counters:
        // the same instance now takes the fused branch, and still returns
        // the serial bits.
        for i in 0..6 {
            ts.observe(StreamId(1), &v(i % 2, 3), VTime::from_secs(1));
            ts.observe(StreamId(2), &v(3, i), VTime::from_secs(1));
        }
        assert!(ts.observe(StreamId(0), &v(0, 0), VTime::from_secs(11)));
        for a in 0..4 {
            let got = ts.productivity(StreamId(0), &v(a, 0));
            assert!(ts.cross_exact[0], "small integer row passes the guard");
            assert_eq!(got.to_bits(), serial(&ts, &v(a, 0)).to_bits(), "value {a}");
        }
        ts.check_invariants();
    }

    #[test]
    fn scratch_row_is_allocated_by_the_fall_back_paths_only() {
        // Three streams, one group: with AVX2 neither the first-epoch nor
        // the frozen query builds a per-copy row.
        let q = chain_query();
        let epoch = EpochSpec::Time(VDur::from_secs(10));
        let mut ts = TumblingSketches::new(&q, cfg(70, 3), epoch);
        for i in 0..30 {
            ts.observe(
                StreamId(i % 3),
                &v(i as u64 % 4, i as u64 % 3),
                VTime::from_secs(1),
            );
            let _ = ts.productivity(StreamId(i % 3), &v(1, 2));
        }
        ts.observe(StreamId(0), &v(0, 0), VTime::from_secs(11));
        let _ = ts.productivity(StreamId(1), &v(1, 2));
        ts.check_invariants();
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            assert_eq!(ts.scratch.capacity(), 0, "fused paths need no scratch row");
        }
        // Two groups: the first-epoch query falls back and builds the row.
        let two = BankConfig {
            s1: 35,
            s2: 2,
            seed: 3,
        };
        let mut ts = TumblingSketches::new(&q, two, epoch);
        ts.observe(StreamId(1), &v(1, 2), VTime::from_secs(1));
        let _ = ts.productivity(StreamId(0), &v(1, 0));
        assert_eq!(ts.scratch.len(), 70);
    }

    #[test]
    #[should_panic(expected = "epoch length must be positive")]
    fn zero_time_epoch_rejected() {
        let q = chain_query();
        let _ = TumblingSketches::new(&q, cfg(1, 0), EpochSpec::Time(VDur::ZERO));
    }

    #[test]
    #[should_panic(expected = "epoch tuple count must be positive")]
    fn zero_tuple_epoch_rejected() {
        let q = chain_query();
        let _ = TumblingSketches::new(&q, cfg(1, 0), EpochSpec::PerStreamTuples(0));
    }
}
