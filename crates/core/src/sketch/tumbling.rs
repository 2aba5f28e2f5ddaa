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
//! cross-products `x_c = Π_{k≠i} X_k^{last}[c]` it contributes to every
//! productivity query are built once per rollover — lazily, per excluded
//! stream, at the row's first query — as a [`FrozenRow`]: `B` two's-
//! complement bit-planes of one bit per copy (`B` the row's own width, at
//! most the bit length of `max_c |x_c|` plus a sign bit) and one integer
//! total per group. A productivity query then reduces to one packed-sign
//! lookup and `B` popcounts per sign word ([`kernel::sliced_group_sums`]),
//! which is also what the engine's epoch-rollover priority rebuild pays
//! per tuple. The answer is the serial `f64` fold's, because a row is only
//! sliced where that fold is exact: every partial product and every
//! partial sum an integer below `2^53` ([`kernel::slice_row`]). A row
//! outside that guard keeps no planes, and its queries take the serial
//! fold over `last`.
//!
//! The ξ-signs are not the sketches' own: [`EpochSketches`] — what a class
//! of the plane keeps — is lent the [`SignTable`] of its family key on
//! every call that evaluates signs, so the classes of one key share one
//! table. [`TumblingSketches`] is the standalone form, epoch sketches
//! with a table of their own.

use crate::bank::{median_of_means_into, median_of_sums, BankConfig, SketchBank};
use crate::kernel;
use crate::kernel::SlicedRow;
use crate::score_cache::{
    ScoreCache, ScoreCacheStats, ScoreValues, DEFAULT_SCORE_CACHE_ENTRIES, MAX_CACHED_ATTRS,
};
use crate::signs::SignTable;
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

/// Where a [`FrozenRow`] stands against the current `last` snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum RowState {
    /// Not built since a roll changed one of its partners.
    #[default]
    Stale,
    /// Built, outside the guard: no planes, queries take the serial fold.
    Serial,
    /// Built and bit-sliced.
    Sliced,
}

/// The frozen cross row `x_c = Π_{k≠i} X_k^{last}[c]` of one excluded
/// stream `i` (DESIGN.md §16), built at its first query after a roll: a
/// [`SlicedRow`] under the guard, nothing outside it. The buffers keep
/// their capacity from epoch to epoch.
#[derive(Clone, Debug, Default, PartialEq)]
struct FrozenRow {
    state: RowState,
    sliced: SlicedRow,
}

impl FrozenRow {
    /// Builds the row that excludes stream `exclude` from `last`.
    fn build(&mut self, last: &[i64], exclude: usize, cfg: BankConfig) {
        let sliced = kernel::slice_row(last, exclude, cfg.s1, cfg.s2, &mut self.sliced);
        self.state = match sliced {
            true => RowState::Sliced,
            false => RowState::Serial,
        };
    }
}

/// Current + last tumbling-epoch sketches for every stream of a query,
/// drawing their signs from a [`SignTable`] lent per call: one built with
/// `SignTable::new(query.predicates().len(), config)`, or any table of
/// that key.
#[derive(Clone, Debug)]
pub(crate) struct EpochSketches {
    bank: SketchBank,
    /// `last[k * copies + c]` = last completed epoch's `X_k` in copy `c`
    /// (stream-major, same layout as the bank's counters).
    last: Vec<i64>,
    /// Whether stream `k` has completed at least one epoch.
    has_last: Vec<bool>,
    /// `last_bound[k]` = the tuples stream `k`'s last completed epoch
    /// folded, a bound on every `|X_k^{last}|` of it.
    last_bound: Vec<u64>,
    epoch: EpochSpec,
    /// Time-mode: where the current epoch began, a whole number of epochs
    /// from the origin. The next global roll fires one epoch later; an
    /// epoch whose end lies past `u64::MAX` µs stays open.
    epoch_start: VTime,
    /// Scratch buffer of per-copy statistics for the serial fold (the
    /// mixed path's fallback and the frozen rows outside the guard). Empty
    /// until it first runs.
    scratch: Vec<f64>,
    /// Scratch buffer of group means for median-of-means.
    groups: Vec<f64>,
    /// Scratch buffer of packed sign words.
    words: Vec<u64>,
    /// `rows[i]` = the frozen cross row that excludes stream `i`; every
    /// row starts stale and holds nothing until its first query.
    rows: Vec<FrozenRow>,
    /// Epoch-scoped memo of exact productivity estimates (DESIGN.md §16).
    /// Only fully-frozen lookups are memoized, so a hit returns the same
    /// bits a recomputation would; every roll clears it.
    score_cache: ScoreCache,
}

impl EpochSketches {
    /// Builds zeroed tumbling sketches for `query`.
    pub(crate) fn new(query: &JoinQuery, config: BankConfig, epoch: EpochSpec) -> Self {
        let bank = SketchBank::new(query, config);
        let n_streams = query.n_streams();
        let copies = config.copies();
        match epoch {
            EpochSpec::Time(n) => assert!(!n.is_zero(), "epoch length must be positive"),
            EpochSpec::PerStreamTuples(n) => assert!(n > 0, "epoch tuple count must be positive"),
        }
        EpochSketches {
            bank,
            last: vec![0; n_streams * copies],
            has_last: vec![false; n_streams],
            last_bound: vec![0; n_streams],
            epoch,
            epoch_start: VTime::ZERO,
            scratch: Vec::new(),
            groups: Vec::with_capacity(config.s2),
            words: Vec::new(),
            rows: vec![FrozenRow::default(); n_streams],
            score_cache: ScoreCache::new(n_streams, DEFAULT_SCORE_CACHE_ENTRIES, true),
        }
    }

    /// Advances virtual time, folds the arriving tuple into the current
    /// sketches, and performs any due epoch rollover.
    ///
    /// Returns `true` if a rollover happened — the engine uses this as the
    /// cue to rebuild its priority queues (Algorithm 1, step 1.2: "reset all
    /// the priority queues").
    pub(crate) fn observe(
        &mut self,
        signs: &mut SignTable,
        stream: StreamId,
        values: &[Value],
        now: VTime,
    ) -> bool {
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
        self.bank.update(signs, stream, values);
        // Tuple mode: the bank counts the stream's tuples since its roll.
        let rolled_tuple = match self.epoch {
            EpochSpec::PerStreamTuples(n) if self.bank.tuples_seen(stream) >= n => {
                self.roll_stream(stream);
                true
            }
            _ => false,
        };
        rolled || rolled_tuple
    }

    /// Rolls every stream at once (time-based epochs).
    fn roll_all(&mut self) {
        for k in 0..self.has_last.len() {
            self.shift_snapshots(StreamId(k));
        }
        for row in &mut self.rows {
            row.state = RowState::Stale;
        }
        self.score_cache.clear();
    }

    /// Rolls a single stream (tuple-based epochs).
    fn roll_stream(&mut self, stream: StreamId) {
        self.shift_snapshots(stream);
        // Every cross-product row except `k`'s own consults X_k^{last}.
        for (i, row) in self.rows.iter_mut().enumerate() {
            if i != stream.index() {
                row.state = RowState::Stale;
            }
        }
        self.score_cache.clear();
    }

    /// The data movement of a roll: `stream`'s settled bank counters move
    /// straight into its `last` snapshot.
    fn shift_snapshots(&mut self, stream: StreamId) {
        let copies = self.bank.config().copies();
        let k = stream.index();
        let last = &mut self.last[k * copies..(k + 1) * copies];
        self.last_bound[k] = self.bank.tuples_seen(stream);
        self.bank.roll_stream_into(stream, last);
        self.has_last[k] = true;
    }

    /// The frozen query over the sliced cross row that excludes stream
    /// `i`, built first if a roll left it stale; `None` for a row outside
    /// the guard, whose queries take the serial fold.
    fn sliced_productivity(&mut self, i: usize) -> Option<f64> {
        let cfg = self.bank.config();
        let row = &mut self.rows[i];
        if row.state == RowState::Stale {
            row.build(&self.last, i, cfg);
        }
        if row.state != RowState::Sliced {
            return None;
        }
        self.groups.clear();
        kernel::sliced_group_sums(&self.words, &row.sliced, cfg.s1, cfg.s2, &mut self.groups);
        Some(median_of_sums(cfg.s1, &mut self.groups))
    }

    /// Estimated productivity of a tuple of `stream`:
    /// `prod(t) = Π_j ξ_{j,t[j]} · Π_{k≠i} X_k^{last}`, median-of-means
    /// combined, with per-stream fallback to the current sketch while a
    /// stream has not yet completed its first epoch.
    ///
    /// Steady state (every other stream past its first epoch) runs the
    /// frozen fast path: a memoized packed-sign lookup and a popcount per
    /// plane and word of the bit-sliced cross row — or, on repeated key
    /// values within one epoch, a score-cache hit that skips the kernel
    /// entirely and returns the exact bits of the first computation.
    pub(crate) fn productivity(
        &mut self,
        signs: &mut SignTable,
        stream: StreamId,
        values: &[Value],
    ) -> f64 {
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
            if let Some(v) = self.score_cache.get(i, key) {
                return v;
            }
        }
        let v = self.productivity_uncached(signs, stream, values, frozen);
        if let Some(key) = key {
            self.score_cache.insert(i, key, v);
        }
        v
    }

    /// The kernel path behind [`EpochSketches::productivity`]:
    /// `frozen` is the precomputed "every other stream past its first
    /// epoch" flag (passed in so the memoized wrapper derives it once).
    fn productivity_uncached(
        &mut self,
        signs: &mut SignTable,
        stream: StreamId,
        values: &[Value],
        frozen: bool,
    ) -> f64 {
        let i = stream.index();
        let n = self.has_last.len();
        let cfg = self.bank.config();
        let copies = cfg.copies();
        self.bank
            .packed_signs_into(signs, stream, values, &mut self.words);
        if frozen {
            if let Some(v) = self.sliced_productivity(i) {
                return v;
            }
        } else {
            // Mixed path (some stream still in its first epoch): last-epoch
            // or live counters per partner, as the paper prescribes.
            for k in (0..n).filter(|&k| k != i && !self.has_last[k]) {
                self.bank.settle_stream(StreamId(k));
            }
        }
        let Self {
            bank,
            last,
            has_last,
            last_bound,
            scratch,
            groups,
            words,
            ..
        } = self;
        let partner = |k: usize| -> (&[i64], u64) {
            if has_last[k] {
                (&last[k * copies..(k + 1) * copies], last_bound[k])
            } else {
                (bank.settled_row(StreamId(k)), bank.tuples_seen(StreamId(k)))
            }
        };
        let partners = (0..n).filter(|&k| k != i);
        // Each mixed row is bounded by the tuples its epoch folded: one or
        // two partners inside the bounds of DESIGN.md §15 are summed in
        // integers.
        if !frozen && n <= 3 {
            let (mut rows, mut bounds) = ([&[][..]; 2], [0; 2]);
            for (slot, k) in partners.clone().enumerate() {
                (rows[slot], bounds[slot]) = partner(k);
            }
            groups.clear();
            let (rows, bounds) = (&rows[..n - 1], &bounds[..n - 1]);
            if kernel::product_group_sums(words, rows, bounds, cfg.s1, cfg.s2, groups) {
                return median_of_sums(cfg.s1, groups);
            }
        }
        // The serial fold: rows multiply in ascending stream order and
        // sum serially.
        scratch.clear();
        scratch.resize(copies, 1.0);
        for k in partners {
            kernel::multiply_row(scratch, partner(k).0);
        }
        kernel::apply_packed_signs(words, scratch);
        median_of_means_into(cfg.s1, cfg.s2, scratch, groups)
    }

    /// The score-cache key of a frozen lookup in `stream`'s map: the raw
    /// values of the stream's incident join attributes (the only tuple
    /// inputs the sign product — and hence the estimate — depends on), in
    /// incidence order. `None` when memoization is off or the stream has
    /// more incident attributes than the key holds.
    fn cache_key(&self, stream: StreamId, values: &[Value]) -> Option<ScoreValues> {
        if !self.score_cache.enabled() {
            return None;
        }
        let incidence = self.bank.incidence(stream);
        if incidence.len() > MAX_CACHED_ATTRS {
            return None;
        }
        let mut key = [0u64; MAX_CACHED_ATTRS];
        for (slot, &(_, attr)) in key.iter_mut().zip(incidence) {
            *slot = values[attr].raw();
        }
        Some(key)
    }

    /// Productivity computed against the *current* epoch's sketches
    /// (the expensive variant; exposed for the recompute-policy ablation).
    /// Never memoized — the live bank changes on every arrival.
    pub(crate) fn current_productivity(
        &mut self,
        signs: &mut SignTable,
        stream: StreamId,
        values: &[Value],
    ) -> f64 {
        self.bank.productivity(signs, stream, values)
    }

    /// Estimated size of the full multi-way join over the current epoch.
    #[cfg(any(test, feature = "audit"))]
    fn estimate_join_count(&mut self) -> f64 {
        self.bank.estimate_join_count()
    }

    /// Whether `stream` has completed at least one epoch.
    pub(crate) fn has_last_epoch(&self, stream: StreamId) -> bool {
        self.has_last[stream.index()]
    }

    /// Hit/miss/occupancy counters of the epoch-scoped productivity memo.
    pub(crate) fn score_cache_stats(&self) -> ScoreCacheStats {
        self.score_cache.stats()
    }

    /// Turns productivity memoization (on by default) on or off for this
    /// instance (the audit harness A/B-compares cached and uncached runs
    /// inside one process). Disabling drops every resident estimate.
    pub(crate) fn set_score_cache(&mut self, enabled: bool) {
        self.score_cache.set_enabled(enabled);
    }

    /// Structural audit of the tumbling state:
    ///
    /// - buffer shapes agree with the stream count and copy count;
    /// - epoch bookkeeping is coherent (time mode: the current epoch starts
    ///   a whole number of epochs from the origin; tuple mode: no stream's
    ///   tuple count has silently passed its roll threshold);
    /// - every built cross row equals a fresh build from the `last`
    ///   snapshot — planes, product signs, totals and guard verdict; the
    ///   frozen fast path must never serve a stale product — and a sliced
    ///   one decodes, copy by copy, to the `f64` products
    ///   [`kernel::column_products`] folds, whose `Σ_c |x_c|` is below
    ///   `2^53`;
    /// - the bank's deferred-update state holds
    ///   (the bank's own `check_invariants`).
    ///
    /// O(streams² · copies); the differential harness calls it after every
    /// arrival.
    ///
    /// # Panics
    /// Panics on any violated invariant.
    #[cfg(any(test, feature = "audit"))]
    pub(crate) fn check_invariants(&self) {
        let n = self.has_last.len();
        let copies = self.bank.config().copies();
        assert_eq!(self.last.len(), n * copies, "last snapshot shape");
        assert_eq!(self.rows.len(), n, "frozen-row shape");
        self.bank.check_invariants();
        match self.epoch {
            EpochSpec::Time(p) => {
                let micros = self.epoch_start.as_micros();
                assert_eq!(micros % p.as_micros(), 0, "epoch start off the epoch grid");
            }
            EpochSpec::PerStreamTuples(c) => {
                for k in 0..n {
                    let a = self.bank.tuples_seen(StreamId(k));
                    assert!(a < c, "stream {k} missed its epoch roll: {a} >= {c}");
                }
            }
        }
        self.score_cache.check_invariants();
        assert_eq!(self.last_bound.len(), n, "last-bound shape");
        for (k, row) in self.last.chunks_exact(copies).enumerate() {
            let bound = self.last_bound[k];
            let within = row.iter().all(|x| x.unsigned_abs() <= bound);
            assert!(
                within,
                "stream {k}: a last-epoch counter above its epoch's {bound} tuples"
            );
        }
        let cfg = self.bank.config();
        let words = crate::signs::words_for(copies);
        let mut products = vec![0.0f64; copies];
        for (i, row) in self.rows.iter().enumerate() {
            if row.state == RowState::Stale {
                continue;
            }
            let mut fresh = FrozenRow::default();
            fresh.build(&self.last, i, cfg);
            assert_eq!(row, &fresh, "stale frozen cross row {i}");
            if row.state != RowState::Sliced {
                continue;
            }
            kernel::column_products(&self.last, copies, i, &mut products);
            let exact = products.iter().map(|x| x.abs()).sum::<f64>() < kernel::EXACT_LIMIT as f64;
            assert!(exact, "row {i} sliced outside the guard");
            let row = &row.sliced;
            let depth = row.planes.len() / words;
            for (c, &want) in products.iter().enumerate() {
                let bit = |plane: &[u64]| (plane[c / 64] >> (c % 64)) & 1;
                let low = row.planes.chunks_exact(words).enumerate();
                let x = low.fold(0i64, |x, (b, plane)| match b + 1 == depth {
                    true => x - ((bit(plane) as i64) << b),
                    false => x + ((bit(plane) as i64) << b),
                });
                assert_eq!(x as f64, want, "frozen cross row {i}, copy {c}");
                if x == 0 && !row.negative.is_empty() {
                    let negative = bit(&row.negative) == 1;
                    assert_eq!(
                        negative,
                        want.is_sign_negative(),
                        "row {i}, sign of copy {c}'s zero"
                    );
                }
            }
            for (g, &total) in row.totals.iter().enumerate() {
                let sum: f64 = products[g * cfg.s1..(g + 1) * cfg.s1].iter().sum();
                assert_eq!(
                    total as f64, sum,
                    "frozen cross row {i}, total of group {g}"
                );
            }
        }
    }
}

/// Tumbling sketches standing alone: a query's epoch sketches with a
/// [`SignTable`] of their own — the one-class case of what a plane keeps,
/// where every class is lent the table of its key.
#[derive(Clone, Debug)]
pub struct TumblingSketches {
    epochs: EpochSketches,
    signs: SignTable,
}

impl TumblingSketches {
    /// Builds zeroed tumbling sketches for `query`, with the sign table of
    /// `(config.seed, query.predicates().len(), config.copies())`.
    pub fn new(query: &JoinQuery, config: BankConfig, epoch: EpochSpec) -> Self {
        TumblingSketches {
            epochs: EpochSketches::new(query, config, epoch),
            signs: SignTable::new(query.predicates().len(), config),
        }
    }

    /// Advances virtual time, folds the arriving tuple into the current
    /// sketches, and performs any due epoch rollover; `true` if one
    /// happened.
    pub fn observe(&mut self, stream: StreamId, values: &[Value], now: VTime) -> bool {
        self.epochs.observe(&mut self.signs, stream, values, now)
    }

    /// Estimated productivity of a tuple of `stream` against the last
    /// completed epoch (per stream, the current one until its first roll),
    /// memoized within an epoch.
    pub fn productivity(&mut self, stream: StreamId, values: &[Value]) -> f64 {
        self.epochs.productivity(&mut self.signs, stream, values)
    }

    /// Productivity against the *current* epoch's sketches (the
    /// recompute-policy ablation); never memoized.
    pub fn current_productivity(&mut self, stream: StreamId, values: &[Value]) -> f64 {
        self.epochs
            .current_productivity(&mut self.signs, stream, values)
    }

    /// Estimated size of the full multi-way join over the current epoch.
    #[cfg(any(test, feature = "audit"))]
    pub fn estimate_join_count(&mut self) -> f64 {
        self.epochs.estimate_join_count()
    }

    /// Whether `stream` has completed at least one epoch.
    pub fn has_last_epoch(&self, stream: StreamId) -> bool {
        self.epochs.has_last_epoch(stream)
    }

    /// Turns productivity memoization (on by default) on or off.
    pub fn set_score_cache(&mut self, enabled: bool) {
        self.epochs.set_score_cache(enabled);
    }

    /// Hit/miss/occupancy counters of the own table's packed-sign memo.
    #[cfg(test)]
    pub(crate) fn sign_cache_stats(&self) -> crate::signs::SignCacheStats {
        self.signs.stats()
    }

    /// Hit/miss/occupancy counters of the epoch-scoped productivity memo.
    #[cfg(test)]
    pub(crate) fn score_cache_stats(&self) -> ScoreCacheStats {
        self.epochs.score_cache_stats()
    }

    /// The epoch sketches and their table, as a plane lends it — for the
    /// scoring tests that build a policy's context by hand.
    #[cfg(test)]
    pub(crate) fn lend(&mut self) -> (&mut EpochSketches, &mut SignTable) {
        (&mut self.epochs, &mut self.signs)
    }

    /// [`EpochSketches::check_invariants`].
    #[cfg(test)]
    pub(crate) fn check_invariants(&self) {
        self.epochs.check_invariants();
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
            assert_eq!(ts.epochs.epoch_start, start);
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
            assert_eq!(ts.epochs.epoch_start, start + n);
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
        assert_eq!(ts.epochs.epoch_start, VTime::from_micros(3 << 62));
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
        assert!(
            cached.epochs.score_cache.enabled(),
            "the memo is on by default"
        );
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
        assert_eq!(
            ts.score_cache_stats().entries,
            0,
            "rollover flushes wholesale"
        );
        ts.check_invariants();
        let after = ts.productivity(StreamId(0), &v(7, 0));
        assert_ne!(
            before.to_bits(),
            after.to_bits(),
            "post-roll estimate reflects the new snapshot, not a stale entry"
        );
    }

    /// R1 and R3 have one incident join attribute, R2 two: each stream's
    /// memo answers with the uncached bits in two successive epochs. R3 is
    /// silent in the second, so the third epoch's cross rows for R1 and R2
    /// are signed zeros, and two copies a group leave some estimates at
    /// `-0.0`.
    #[test]
    fn memoized_one_and_two_attribute_streams_match_uncached_across_rolls() {
        let mut cached = frozen_sketches(2, 3);
        let mut plain = frozen_sketches(2, 3);
        plain.set_score_cache(false);
        let mut negative_zeros = 0;
        for (roll_at, r3) in [(21, true), (31, false)] {
            for sketches in [&mut cached, &mut plain] {
                for i in 0..12u64 {
                    sketches.observe(StreamId(1), &v(i % 4, i % 3), VTime::from_secs(roll_at - 9));
                    if r3 {
                        sketches.observe(StreamId(2), &v(i % 3, 1), VTime::from_secs(roll_at - 9));
                    }
                }
                assert!(sketches.observe(StreamId(0), &v(1, 1), VTime::from_secs(roll_at)));
                assert_eq!(
                    sketches.score_cache_stats().entries,
                    0,
                    "a roll empties the memo"
                );
            }
            let before = cached.score_cache_stats();
            for a in 0..24u64 {
                for s in [0, 1, 2] {
                    let val = v(a % 6, a % 4);
                    let want = plain.productivity(StreamId(s), &val);
                    let got = cached.productivity(StreamId(s), &val);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "roll at {roll_at}: R{} {val:?}",
                        s + 1
                    );
                    negative_zeros += usize::from(got.to_bits() == (-0.0f64).to_bits());
                }
            }
            let after = cached.score_cache_stats();
            assert!(
                after.hits > before.hits && after.misses > before.misses,
                "{after:?}"
            );
            cached.check_invariants();
        }
        assert!(negative_zeros > 0, "no -0.0 estimate was memoized");
    }

    /// A stream with three incident join attributes (the star's centre) is
    /// scored by the kernel every time: its estimates equal the uncached
    /// ones and the memo's counters stand still.
    #[test]
    fn a_stream_with_three_incident_attributes_scores_uncached() {
        let mut c = Catalog::new();
        c.add_stream(StreamSchema::new("R1", &["A1", "A2", "A3"]));
        for name in ["R2", "R3", "R4"] {
            c.add_stream(StreamSchema::new(name, &["A1"]));
        }
        let preds = [("R1.A1", "R2.A1"), ("R1.A2", "R3.A1"), ("R1.A3", "R4.A1")];
        let q = JoinQuery::from_names(c, &preds, WindowSpec::secs(10)).unwrap();
        assert_eq!(q.incident(StreamId(0)).len(), 3);
        let build = || {
            let mut ts =
                TumblingSketches::new(&q, cfg(32, 4), EpochSpec::Time(VDur::from_secs(10)));
            for i in 0..20u64 {
                ts.observe(
                    StreamId(1 + (i % 3) as usize),
                    &[Value(i % 2)],
                    VTime::from_secs(1),
                );
            }
            ts.observe(StreamId(0), &[Value(0); 3], VTime::from_secs(11));
            ts
        };
        let (mut cached, mut plain) = (build(), build());
        plain.set_score_cache(false);
        let row = [Value(0), Value(1), Value(0)];
        for _ in 0..3 {
            let got = cached.productivity(StreamId(0), &row);
            assert_eq!(
                got.to_bits(),
                plain.productivity(StreamId(0), &row).to_bits()
            );
        }
        assert_ne!(
            cached.productivity(StreamId(0), &row),
            0.0,
            "the partners are frozen"
        );
        let s = cached.score_cache_stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 0, 0));
        // A one-attribute partner is still memoized.
        cached.productivity(StreamId(1), &[Value(1)]);
        assert_eq!(cached.score_cache_stats().misses, 1);
    }

    #[test]
    fn score_cache_bound_evicts_wholesale_and_stays_exact() {
        let mut ts = frozen_sketches(32, 6);
        // A tiny bound exercises the wholesale drop.
        ts.epochs.score_cache = ScoreCache::new(3, 4, true);
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
        assert_eq!(
            ts.score_cache_stats().entries,
            0,
            "mixed path never memoizes"
        );
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
        // row carries no planes and is summed serially — where the fold
        // absorbs the 1s an exact integer sum keeps.
        let q = chain_query();
        let mut ts = TumblingSketches::new(&q, cfg(20, 9), EpochSpec::Time(VDur::from_secs(10)));
        let mut r2 = vec![1i64; 20];
        (r2[0], r2[16]) = (100_000_000, -100_000_000);
        let mut r3 = vec![1i64; 20];
        (r3[0], r3[16]) = (100_000_000, 100_000_000);
        ts.epochs.last[20..40].copy_from_slice(&r2);
        ts.epochs.last[40..60].copy_from_slice(&r3);
        ts.epochs.has_last.fill(true);
        ts.epochs.last_bound.fill(100_000_000);
        ts.set_score_cache(false);

        // The serial reference: each copy's sign times the `f64` product
        // of the partners, summed left to right from −0.0 as the legacy
        // per-copy fold does; and the exact integer sum beside it.
        let reference = |ts: &TumblingSketches, vals: &[Value]| -> (f64, i128) {
            let mut products = vec![0.0f64; 20];
            kernel::column_products(&ts.epochs.last, 20, 0, &mut products);
            let sign = |c| ts.epochs.bank.sign_in_copy(&ts.signs, c, StreamId(0), vals);
            let serial = (0..20).fold(-0.0, |sum, c| sum + sign(c) as f64 * products[c]);
            let exact = (0..20)
                .map(|c| i128::from(sign(c)) * products[c] as i128)
                .sum();
            (serial / 20.0, exact)
        };
        let mut sums_differ = false;
        for a in 0..32 {
            let got = ts.productivity(StreamId(0), &v(a, 0));
            let row = &ts.epochs.rows[0];
            assert_eq!(row.state, RowState::Serial, "bait row refused by the guard");
            assert!(
                row.sliced.planes.is_empty(),
                "a row outside the guard has no planes"
            );
            let (serial, exact) = reference(&ts, &v(a, 0));
            assert_eq!(got.to_bits(), serial.to_bits(), "value {a}");
            sums_differ |= serial * 20.0 != exact as f64;
        }
        assert!(sums_differ, "the bait separates the serial and exact sums");
        ts.check_invariants();

        // One real roll later the snapshot is a handful of small counters:
        // the same instance now slices the row, and still returns the
        // serial bits.
        for i in 0..6 {
            ts.observe(StreamId(1), &v(i % 2, 3), VTime::from_secs(1));
            ts.observe(StreamId(2), &v(3, i), VTime::from_secs(1));
        }
        assert!(ts.observe(StreamId(0), &v(0, 0), VTime::from_secs(11)));
        for a in 0..4 {
            let got = ts.productivity(StreamId(0), &v(a, 0));
            let row = &ts.epochs.rows[0];
            assert_eq!(
                row.state,
                RowState::Sliced,
                "small integer row passes the guard"
            );
            assert!(!row.sliced.planes.is_empty());
            let (serial, _) = reference(&ts, &v(a, 0));
            assert_eq!(got.to_bits(), serial.to_bits(), "value {a}");
        }
        ts.check_invariants();
    }

    #[test]
    fn scratch_row_is_allocated_by_the_fall_back_paths_only() {
        // Three streams, in one group and in three: neither the integer
        // first-epoch query nor the frozen one builds a per-copy row.
        let q = chain_query();
        let epoch = EpochSpec::Time(VDur::from_secs(10));
        for s2 in [1, 3] {
            let cfg = BankConfig {
                s1: 70,
                s2,
                seed: 3,
            };
            let mut ts = TumblingSketches::new(&q, cfg, epoch);
            for i in 0..30 {
                let s = StreamId(i % 3);
                ts.observe(s, &v(i as u64 % 4, i as u64 % 3), VTime::from_secs(1));
                let _ = ts.productivity(s, &v(1, 2));
            }
            ts.observe(StreamId(0), &v(0, 0), VTime::from_secs(11));
            let _ = ts.productivity(StreamId(1), &v(1, 2));
            ts.check_invariants();
            assert_eq!(
                ts.epochs.scratch.capacity(),
                0,
                "s2 = {s2}: no per-copy row"
            );
        }
        // A partner bound of 2^31 leaves the first-epoch query to the
        // serial fold, which builds the row.
        let mut ts = TumblingSketches::new(&q, cfg(70, 3), EpochSpec::PerStreamTuples(5));
        ts.observe(StreamId(1), &v(1, 2), VTime::ZERO);
        ts.epochs.has_last[2] = true;
        ts.epochs.last_bound[2] = 1 << 31;
        let _ = ts.productivity(StreamId(0), &v(1, 0));
        assert_eq!(ts.epochs.scratch.len(), 70);
    }

    /// Tuple-mode epochs: R2 has rolled, R3 is still live, so an R1 tuple
    /// is scored against one frozen and one live row — in integers, and
    /// to the bit of an eagerly folded reference.
    #[test]
    fn a_rolled_and_a_live_partner_score_like_the_eager_fold() {
        let q = chain_query();
        for s2 in [1, 3] {
            let cfg = BankConfig {
                s1: 40,
                s2,
                seed: 21,
            };
            let copies = cfg.copies();
            let mut ts = TumblingSketches::new(&q, cfg, EpochSpec::PerStreamTuples(12));
            let mut live = vec![vec![0i64; copies]; 3];
            let mut last = vec![vec![0i64; copies]; 3];
            let mut words = Vec::new();
            let r2 = (0..17u64).map(|i| (1, v(i % 3, i % 4)));
            let r3 = (0..7u64).map(|i| (2, v(i % 4, i % 2)));
            for (k, vals) in r2.chain(r3) {
                ts.observe(StreamId(k), &vals, VTime::ZERO);
                ts.epochs
                    .bank
                    .packed_signs_into(&mut ts.signs, StreamId(k), &vals, &mut words);
                kernel::scalar::fold_packed_signs(&words, &mut live[k]);
                if ts.epochs.bank.tuples_seen(StreamId(k)) == 0 {
                    last[k] = std::mem::replace(&mut live[k], vec![0; copies]);
                }
            }
            assert!(ts.has_last_epoch(StreamId(1)) && !ts.has_last_epoch(StreamId(2)));
            for a in 0..6u64 {
                let vals = v(a % 3, 0);
                let mut per_copy = vec![1.0f64; copies];
                kernel::multiply_row(&mut per_copy, &last[1]);
                kernel::multiply_row(&mut per_copy, &live[2]);
                ts.epochs
                    .bank
                    .packed_signs_into(&mut ts.signs, StreamId(0), &vals, &mut words);
                kernel::apply_packed_signs(&words, &mut per_copy);
                let want = crate::bank::median_of_means_slice(cfg.s1, s2, &per_copy);
                let got = ts.productivity(StreamId(0), &vals);
                assert_eq!(got.to_bits(), want.to_bits(), "s2 = {s2}, value {a}");
            }
            ts.check_invariants();
            assert_eq!(
                ts.epochs.scratch.capacity(),
                0,
                "s2 = {s2}: the integer query answered"
            );
        }
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
