//! Banks of `s1 × s2` independent sketch copies with median-of-means
//! combination, for multi-way COUNT and per-tuple productivity estimation.
//!
//! Since the flat-kernel rework the bank is laid out structure-of-arrays:
//! the per-copy counters of all streams share one contiguous `Vec<i64>`
//! indexed `[stream × copies + copy]`. Updates and estimates stream
//! linearly through those arrays (see [`crate::kernel`]) instead of
//! chasing per-copy allocations. The hash families are not the bank's:
//! they live, with the memo of their bit-packed per-tuple sign vectors, in
//! a [`SignTable`] the caller lends to every call that needs signs, so
//! banks drawn from one `(seed, predicate count, copies)` share one. All
//! estimates are bit-identical to the legacy AoS layout under the same
//! seed (enforced by `tests/equivalence.rs`).
//!
//! Updates are **deferred**: [`SketchBank::update`] copies the tuple's
//! packed sign words into a per-stream *held block* of [`kernel::BLOCK`]
//! vectors; a full block enters a small per-stream *vertical counter*
//! (bit-planes that count, per copy, the pending −1 signs) through one
//! carry-save adder tree, and the `i64` counters are only brought up to
//! date — *settled* — when something reads them. Integer addition commutes,
//! so a settled counter equals the eagerly folded one bit for bit; every
//! reader of counter values therefore takes `&mut self`.

use crate::kernel::{self, BLOCK};
use crate::signs::{words_for, SignTable};
use mstream_types::{JoinQuery, StreamId, Value};
use serde::{Deserialize, Serialize};

/// Sizing of a [`SketchBank`].
///
/// The final estimate is the **median** over `s2` groups of the **mean**
/// over `s1` independent atomic-sketch copies (Dobra et al. §3.1). Larger
/// `s1` shrinks variance; larger `s2` boosts the confidence of the median.
/// The paper's experiments construct 1000 copies and return their average,
/// i.e. `s1 = 1000, s2 = 1` (see DESIGN.md, parameter reconstruction —
/// per-tuple productivities in skewed windows are unusable below several
/// hundred copies, which pins down the OCR-damaged count).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BankConfig {
    /// Copies averaged within a group.
    pub s1: usize,
    /// Groups whose means are median-combined.
    pub s2: usize,
    /// Seed for drawing the hash families (full-run determinism).
    pub seed: u64,
}

impl Default for BankConfig {
    fn default() -> Self {
        BankConfig {
            s1: 1000,
            s2: 1,
            seed: 0x5EED_5EED,
        }
    }
}

impl BankConfig {
    /// Total number of independent copies.
    pub fn copies(&self) -> usize {
        self.s1 * self.s2
    }
}

/// Bit-planes per stream in the vertical pending counters: a stream
/// settles after [`SketchBank::PENDING_MAX`] deferred updates at the latest. A
/// constant, not a setting — more planes amortise the settle over more
/// updates (`P·copies` operations per `2^P` updates) but deepen the carry
/// ripple of every block and cost `P · words_for(copies)` words per
/// stream; ten puts both costs in the noise of one sign-cache lookup.
const PENDING_PLANES: usize = 10;

/// Planes that can be non-zero while they hold `updates` updates: the bit
/// length of `updates`.
fn active_planes(updates: u32) -> usize {
    (u32::BITS - updates.leading_zeros()) as usize
}

/// Of `pending` updates, those still in the stream's held block: whole
/// blocks have entered the planes.
fn held_vectors(pending: u32) -> usize {
    pending as usize % BLOCK
}

/// Reusable query-path buffers (packed sign words, per-copy statistics,
/// group means), so no call allocates once they have grown.
#[derive(Clone, Debug, Default)]
struct BankScratch {
    words: Vec<u64>,
    per_copy: Vec<f64>,
    groups: Vec<f64>,
}

/// A bank of `s1 × s2` sketch copies over the streams of one [`JoinQuery`].
///
/// A `SketchBank` covers **one window's worth** of each stream (one
/// tumbling epoch). The epoch discipline — current vs. last bank, rollover
/// every `n` seconds — lives in [`crate::mstream_sketch::TumblingSketches`].
///
/// Every method that evaluates signs takes the bank's [`SignTable`]: the
/// one `SignTable::new(query.predicates().len(), config)` builds, or any
/// table of that key.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SketchBank {
    config: BankConfig,
    n_streams: usize,
    /// `incidence[k]` = `(predicate index, attr index)` pairs of stream `k`.
    incidence: Vec<Vec<(usize, usize)>>,
    /// `counters[k * copies + c]` = atomic sketch `X_k` in copy `c`, as of
    /// stream `k`'s last settle.
    counters: Vec<i64>,
    /// Vertical pending counters, `PENDING_PLANES` planes of
    /// `words_for(copies)` words per stream: bit `c % 64` of word `c / 64`
    /// of plane `p` of stream `k` is bit `p` of the number of −1 signs
    /// among copy `c`'s updates since the last settle. Serialised with the
    /// counters, so a round trip keeps the settled view.
    planes: Vec<u64>,
    /// Held blocks, [`BLOCK`] vectors of `words_for(copies)` words per
    /// stream: the sign words of stream `k`'s last `pending[k] % BLOCK`
    /// updates, one vector each, not yet in `planes`; the slots behind
    /// them are zero. Serialised too — a bank that goes out mid-block
    /// settles to the same counters when it comes back.
    blocks: Vec<u64>,
    /// `pending[k]` = updates of stream `k` since its last settle
    /// (`< Self::PENDING_MAX` between calls): whole blocks of them in
    /// `planes`, the remainder in its held block.
    pending: Vec<u32>,
    /// Tuples folded per stream this epoch.
    tuples: Vec<u64>,
    /// Query scratch (not part of the logical state).
    #[serde(skip)]
    scratch: BankScratch,
}

impl SketchBank {
    /// Deferred updates at which [`SketchBank::update`] settles a stream on
    /// its own (`2^P − 1` for the `P` bit-planes of the pending counters),
    /// so a stream never holds this many between calls.
    pub const PENDING_MAX: u32 = (1 << PENDING_PLANES) - 1;

    /// Builds a zeroed bank for `query`; its signs come from the table of
    /// `(config.seed, query.predicates().len(), config.copies())`.
    pub fn new(query: &JoinQuery, config: BankConfig) -> Self {
        assert!(config.s1 >= 1 && config.s2 >= 1, "s1 and s2 must be >= 1");
        let n_streams = query.n_streams();
        let copies = config.copies();
        let incidence = (0..n_streams)
            .map(|s| query.incident(StreamId(s)).to_vec())
            .collect();
        SketchBank {
            config,
            n_streams,
            incidence,
            counters: vec![0; n_streams * copies],
            planes: vec![0; n_streams * PENDING_PLANES * words_for(copies)],
            blocks: vec![0; n_streams * BLOCK * words_for(copies)],
            pending: vec![0; n_streams],
            tuples: vec![0; n_streams],
            scratch: BankScratch::default(),
        }
    }

    /// The bank's sizing.
    pub(crate) fn config(&self) -> BankConfig {
        self.config
    }

    /// The `(predicate index, attribute index)` pairs incident to `stream`
    /// — the attribute positions whose values determine the tuple's sign
    /// product (and therefore its productivity estimate, once the partner
    /// snapshots are frozen).
    pub(crate) fn incidence(&self, stream: StreamId) -> &[(usize, usize)] {
        &self.incidence[stream.index()]
    }

    /// Folds a tuple of `stream` (given its full value row) into every copy.
    ///
    /// Cost: one packed-sign lookup per incident predicate (a polynomial
    /// sweep on cache miss, a memcpy-sized fetch on hit), one XOR combine,
    /// and a copy of the sign words into the stream's held block; every
    /// [`kernel::BLOCK`]-th update adds the block into the stream's
    /// vertical counter — word operations, not `s1·s2` counter adds. The
    /// counters catch up when a reader settles the stream, or here once
    /// [`Self::PENDING_MAX`] updates are pending.
    pub fn update(&mut self, signs: &mut SignTable, stream: StreamId, values: &[Value]) {
        let k = stream.index();
        debug_assert!(k < self.n_streams);
        debug_assert_eq!(
            signs.copies(),
            self.config.copies(),
            "a table of another key"
        );
        let words = &mut self.scratch.words;
        signs.combine(&self.incidence[k], values, words);
        let n = words.len();
        let slot = k * BLOCK + held_vectors(self.pending[k]);
        self.blocks[slot * n..(slot + 1) * n].copy_from_slice(words);
        self.pending[k] += 1;
        self.tuples[k] += 1;
        if held_vectors(self.pending[k]) == 0 {
            self.flush_block(k);
        }
        if self.pending[k] == Self::PENDING_MAX {
            self.settle_stream(stream);
        }
    }

    /// Adds stream `k`'s held block into its planes — full or, from a
    /// settle, part-filled: the unused slots are zero and add nothing, so
    /// both go through the one adder tree.
    fn flush_block(&mut self, k: usize) {
        let words = words_for(self.config.copies());
        kernel::add_sign_block(
            &mut self.blocks[k * BLOCK * words..(k + 1) * BLOCK * words],
            &mut self.planes[k * PENDING_PLANES * words..(k + 1) * PENDING_PLANES * words],
        );
    }

    /// Brings `stream`'s counters up to date with every update so far:
    /// flushes its held block, `X_k[c] += pending − 2·neg[c]`, then zeroes
    /// the planes. One pending update settles through the plain sign fold
    /// — the first epoch, where every arrival reads its partners' live
    /// rows, costs what an eager update does.
    pub(crate) fn settle_stream(&mut self, stream: StreamId) {
        let k = stream.index();
        let pending = std::mem::take(&mut self.pending[k]);
        if pending == 0 {
            return;
        }
        if held_vectors(pending) > 0 {
            self.flush_block(k);
        }
        let copies = self.config.copies();
        let words = words_for(copies);
        let active = active_planes(pending);
        let first = k * PENDING_PLANES * words;
        let planes = &mut self.planes[first..first + active * words];
        let row = &mut self.counters[k * copies..(k + 1) * copies];
        if pending == 1 {
            kernel::fold_packed_signs(planes, row);
        } else {
            kernel::settle_planes(planes, pending, row);
        }
        planes.fill(0);
    }

    /// Settles every stream.
    fn settle(&mut self) {
        for k in 0..self.n_streams {
            self.settle_stream(StreamId(k));
        }
    }

    /// The ξ-sign product of a tuple of `stream` in copy `c`
    /// (`Π_{j ∈ attrs(R_i)} ξ_{j, t[j]}`). Scalar path, exposed for
    /// diagnostics and the equivalence suite.
    #[inline]
    pub fn sign_in_copy(
        &self,
        signs: &SignTable,
        c: usize,
        stream: StreamId,
        values: &[Value],
    ) -> i64 {
        let mut sign = 1i64;
        for &(pred, attr) in &self.incidence[stream.index()] {
            sign *= signs.sign_one(pred, c, values[attr].raw());
        }
        sign
    }

    /// Writes the packed per-copy sign products of a tuple of `stream`
    /// into `out` (bit `c` set ⇔ copy `c` has sign −1), served from the
    /// table's memo. This is the batched counterpart of
    /// [`SketchBank::sign_in_copy`].
    pub fn packed_signs_into(
        &self,
        signs: &mut SignTable,
        stream: StreamId,
        values: &[Value],
        out: &mut Vec<u64>,
    ) {
        signs.combine(&self.incidence[stream.index()], values, out);
    }

    /// The raw atomic-sketch counter `X_k` of `stream` in copy `c`.
    #[inline]
    #[cfg(any(test, feature = "audit"))]
    pub fn sketch_value(&mut self, c: usize, stream: StreamId) -> i64 {
        self.counters_row(stream)[c]
    }

    /// The contiguous per-copy counter row of `stream` (`X_k` for every
    /// copy), settled first.
    #[inline]
    #[cfg(any(test, feature = "audit"))]
    pub fn counters_row(&mut self, stream: StreamId) -> &[i64] {
        self.settle_stream(stream);
        self.settled_row(stream)
    }

    /// The counter row of a stream the caller has just settled — the
    /// shared-borrow form the tumbling layer multiplies two of at once.
    #[inline]
    pub(crate) fn settled_row(&self, stream: StreamId) -> &[i64] {
        let copies = self.config.copies();
        let k = stream.index();
        assert_eq!(self.pending[k], 0, "stream {k} read with updates pending");
        &self.counters[k * copies..(k + 1) * copies]
    }

    /// Moves `stream`'s settled per-copy counters into `snapshot` and
    /// resets them (epoch rollover of one stream, paper §4.1).
    pub fn roll_stream_into(&mut self, stream: StreamId, snapshot: &mut [i64]) {
        self.settle_stream(stream);
        let copies = self.config.copies();
        let k = stream.index();
        let row = &mut self.counters[k * copies..(k + 1) * copies];
        snapshot.copy_from_slice(row);
        row.fill(0);
        self.tuples[k] = 0;
    }

    /// Resets every atomic sketch (epoch rollover). Signs are the table's,
    /// not the bank's: families and memo stay valid across epochs.
    pub fn reset(&mut self) {
        self.counters.fill(0);
        self.planes.fill(0);
        self.blocks.fill(0);
        self.pending.fill(0);
        self.tuples.fill(0);
    }

    /// Number of tuples folded into stream `k` this epoch.
    pub fn tuples_seen(&self, stream: StreamId) -> u64 {
        self.tuples[stream.index()]
    }

    /// Median-of-means estimate of the full multi-way COUNT
    /// `|W_1 ⋈ … ⋈ W_n|` from this bank's sketches.
    #[cfg(any(test, feature = "audit"))]
    pub fn estimate_join_count(&mut self) -> f64 {
        self.settle();
        let copies = self.config.copies();
        let BankScratch {
            per_copy, groups, ..
        } = &mut self.scratch;
        per_copy.resize(copies, 0.0);
        kernel::column_products(&self.counters, copies, usize::MAX, per_copy);
        median_of_means_into(self.config.s1, self.config.s2, per_copy, groups)
    }

    /// Median-of-means estimate of `prod(t)` for a tuple of `stream` —
    /// the COUNT of the join in which `W_stream = {t}`:
    /// `prod(t) = Π_{j ∈ attrs(R_i)} ξ_{j, t[j]} · Π_{k ≠ i} X_k`.
    ///
    /// The estimate is unbiased but can come out negative for unproductive
    /// tuples; callers that need a priority should clamp at zero (true
    /// productivity is a count, hence non-negative).
    pub fn productivity(
        &mut self,
        signs: &mut SignTable,
        stream: StreamId,
        values: &[Value],
    ) -> f64 {
        self.settle();
        let i = stream.index();
        let copies = self.config.copies();
        let BankScratch {
            words,
            per_copy,
            groups,
        } = &mut self.scratch;
        signs.combine(&self.incidence[i], values, words);
        per_copy.resize(copies, 0.0);
        kernel::column_products(&self.counters, copies, i, per_copy);
        kernel::apply_packed_signs(words, per_copy);
        median_of_means_into(self.config.s1, self.config.s2, per_copy, groups)
    }

    /// Structural audit of the deferred-update state:
    ///
    /// - buffer shapes agree with the stream and copy counts;
    /// - no stream holds [`Self::PENDING_MAX`] or more pending updates,
    ///   every block slot behind the `pending % BLOCK` held vectors is
    ///   all-zero, and so is every plane above the bit length of the
    ///   updates the planes hold (the pending ones less the held ones);
    /// - no copy of a stream's settled view (its counters plus what its
    ///   planes and its block hold) exceeds the stream's tuple count in
    ///   magnitude; that the view equals the eager fold is the contract of
    ///   `tests/equivalence.rs`.
    ///
    /// O(streams · copies · planes).
    ///
    /// # Panics
    /// Panics on any violated invariant.
    #[cfg(any(test, feature = "audit"))]
    pub(crate) fn check_invariants(&self) {
        let copies = self.config.copies();
        let words = words_for(copies);
        let n = self.n_streams;
        assert_eq!(self.counters.len(), n * copies, "counter shape");
        assert_eq!(self.planes.len(), n * PENDING_PLANES * words, "plane shape");
        assert_eq!(self.blocks.len(), n * BLOCK * words, "block shape");
        assert_eq!(self.pending.len(), n, "pending shape");
        let mut view = vec![0i64; copies];
        for k in 0..n {
            let pending = self.pending[k];
            assert!(
                pending < Self::PENDING_MAX,
                "stream {k} missed its settle: {pending} pending"
            );
            let held = held_vectors(pending);
            let block = &self.blocks[k * BLOCK * words..(k + 1) * BLOCK * words];
            let (vectors, unused) = block.split_at(held * words);
            assert!(
                unused.iter().all(|&w| w == 0),
                "stream {k}: a block slot behind its {held} held vectors is set"
            );
            let in_planes = pending - held as u32;
            let active = active_planes(in_planes);
            let planes = &self.planes[k * PENDING_PLANES * words..(k + 1) * PENDING_PLANES * words];
            let (live, idle) = planes.split_at(active * words);
            assert!(
                idle.iter().all(|&w| w == 0),
                "stream {k}: a plane above bit {active} of {in_planes} updates is set"
            );
            view.copy_from_slice(&self.counters[k * copies..(k + 1) * copies]);
            kernel::settle_planes(live, in_planes, &mut view);
            for vector in vectors.chunks_exact(words) {
                kernel::scalar::fold_packed_signs(vector, &mut view);
            }
            let tuples = self.tuples[k];
            let within = view.iter().all(|x| x.unsigned_abs() <= tuples);
            assert!(
                within,
                "stream {k}: a counter above the {tuples} tuples it folded"
            );
        }
    }
}

/// Median over `s2` groups of means over `s1` per-copy statistics laid out
/// group-major, reusing `groups` as the scratch buffer for the group means
/// (no allocation once it has grown to `s2`). Shared by [`SketchBank`] and
/// the tumbling-epoch layer.
///
/// The mean stage runs through [`kernel::group_sums`], which keeps each
/// group's fold strictly serial (f64 addition is not associative), so the
/// estimate is bit-identical to the legacy per-copy fold.
pub(crate) fn median_of_means_into(
    s1: usize,
    s2: usize,
    per_copy: &[f64],
    groups: &mut Vec<f64>,
) -> f64 {
    groups.clear();
    kernel::group_sums(per_copy, s1, s2, groups);
    median_of_sums(s1, groups)
}

/// The median stage of median-of-means over group *sums* of `s1` copies
/// each: divides in place, then takes the median.
pub(crate) fn median_of_sums(s1: usize, sums: &mut [f64]) -> f64 {
    for g in sums.iter_mut() {
        *g /= s1 as f64;
    }
    median_in_place(sums)
}

/// Median-of-means over per-copy statistics laid out as `s1 × s2` values
/// (group-major). Allocating convenience wrapper around the bank's
/// in-place `median_of_means_into`.
pub fn median_of_means_slice(s1: usize, s2: usize, per_copy: &[f64]) -> f64 {
    let mut groups = Vec::with_capacity(s2);
    median_of_means_into(s1, s2, per_copy, &mut groups)
}

/// The median of a non-empty slice (averaging the two central elements for
/// even lengths).
fn median_in_place(xs: &mut [f64]) -> f64 {
    assert!(!xs.is_empty());
    xs.sort_by(|a, b| a.partial_cmp(b).expect("sketch statistics are finite"));
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mstream_types::{Catalog, StreamSchema, WindowSpec};

    /// The paper's 3-way chain query: R1.A1 = R2.A1 ∧ R2.A2 = R3.A1.
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

    /// A zeroed bank over `q` with the sign table of its key.
    fn bank_and_signs(q: &JoinQuery, config: BankConfig) -> (SketchBank, SignTable) {
        let table = SignTable::new(q.predicates().len(), config);
        (SketchBank::new(q, config), table)
    }

    fn v(a: u64, b: u64) -> Vec<Value> {
        vec![Value(a), Value(b)]
    }

    /// Exact chain-join count on explicit relations, used as ground truth.
    fn exact_chain_count(r1: &[Vec<Value>], r2: &[Vec<Value>], r3: &[Vec<Value>]) -> u64 {
        let mut count = 0;
        for t1 in r1 {
            for t2 in r2 {
                if t1[0] == t2[0] {
                    for t3 in r3 {
                        if t2[1] == t3[0] {
                            count += 1;
                        }
                    }
                }
            }
        }
        count
    }

    #[test]
    fn median_helper() {
        assert_eq!(median_in_place(&mut [3.0]), 3.0);
        assert_eq!(median_in_place(&mut [3.0, 1.0]), 2.0);
        assert_eq!(median_in_place(&mut [5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median_in_place(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn median_of_means_into_reuses_scratch() {
        let per_copy = [1.0, 3.0, 10.0, 20.0];
        let mut groups = Vec::new();
        assert_eq!(median_of_means_into(2, 2, &per_copy, &mut groups), 8.5);
        let cap = groups.capacity();
        assert_eq!(median_of_means_into(2, 2, &per_copy, &mut groups), 8.5);
        assert_eq!(groups.capacity(), cap, "no reallocation on reuse");
        assert_eq!(median_of_means_slice(4, 1, &per_copy), 8.5);
    }

    #[test]
    fn deterministic_under_seed() {
        let q = chain_query();
        let cfg = BankConfig {
            s1: 8,
            s2: 1,
            seed: 99,
        };
        let (mut b1, mut signs) = bank_and_signs(&q, cfg);
        let mut b2 = SketchBank::new(&q, cfg); // one key, one table
        for (s, vals) in [(0, v(1, 2)), (1, v(1, 5)), (2, v(5, 0))] {
            b1.update(&mut signs, StreamId(s), &vals);
            b2.update(&mut signs, StreamId(s), &vals);
        }
        assert_eq!(b1.estimate_join_count(), b2.estimate_join_count());
        assert_eq!(
            b1.productivity(&mut signs, StreamId(1), &v(1, 5)),
            b2.productivity(&mut signs, StreamId(1), &v(1, 5))
        );
    }

    #[test]
    fn count_estimate_is_close_on_structured_data() {
        // A join with a strong signal: value 7 chains through all streams.
        let q = chain_query();
        let (mut bank, mut signs) = bank_and_signs(
            &q,
            BankConfig {
                s1: 600,
                s2: 5,
                seed: 7,
            },
        );
        let r1: Vec<_> = (0..30).map(|i| v(7, i)).collect();
        let r2: Vec<_> = (0..20).map(|_| v(7, 3)).collect();
        let r3: Vec<_> = (0..10).map(|i| v(3, i)).collect();
        for t in &r1 {
            bank.update(&mut signs, StreamId(0), t);
        }
        for t in &r2 {
            bank.update(&mut signs, StreamId(1), t);
        }
        for t in &r3 {
            bank.update(&mut signs, StreamId(2), t);
        }
        let exact = exact_chain_count(&r1, &r2, &r3) as f64; // 30*20*10 = 6000
        assert_eq!(exact, 6000.0);
        let est = bank.estimate_join_count();
        let rel_err = (est - exact).abs() / exact;
        assert!(rel_err < 0.35, "est={est} exact={exact} rel_err={rel_err}");
    }

    #[test]
    fn count_estimate_unbiased_over_seeds() {
        // Average the estimator over many independent banks: the mean must
        // converge to the exact count (unbiasedness), much tighter than any
        // single estimate.
        let q = chain_query();
        let r1: Vec<_> = (0..8)
            .flat_map(|a| (0..2).map(move |b| v(a % 4, b)))
            .collect();
        let r2: Vec<_> = (0..10).map(|i| v(i % 4, i % 3)).collect();
        let r3: Vec<_> = (0..9).map(|i| v(i % 3, i)).collect();
        let exact = exact_chain_count(&r1, &r2, &r3) as f64;
        assert!(exact > 0.0);
        let seeds = 300;
        let mut sum = 0.0;
        for seed in 0..seeds {
            let (mut bank, mut signs) = bank_and_signs(&q, BankConfig { s1: 4, s2: 1, seed });
            for t in &r1 {
                bank.update(&mut signs, StreamId(0), t);
            }
            for t in &r2 {
                bank.update(&mut signs, StreamId(1), t);
            }
            for t in &r3 {
                bank.update(&mut signs, StreamId(2), t);
            }
            sum += bank.estimate_join_count();
        }
        let mean = sum / seeds as f64;
        let rel_err = (mean - exact).abs() / exact;
        assert!(rel_err < 0.25, "mean={mean} exact={exact}");
    }

    #[test]
    fn productivity_separates_hot_from_cold_tuples() {
        // R2/R3 heavily favour value 9; a fresh R1 tuple with A1=9 must get
        // a much larger productivity estimate than one with A1=0 (absent).
        let q = chain_query();
        let (mut bank, mut signs) = bank_and_signs(
            &q,
            BankConfig {
                s1: 400,
                s2: 3,
                seed: 21,
            },
        );
        for i in 0..50 {
            bank.update(&mut signs, StreamId(1), &v(9, i % 4));
        }
        for i in 0..40 {
            bank.update(&mut signs, StreamId(2), &v(i % 4, 0));
        }
        let hot = bank.productivity(&mut signs, StreamId(0), &v(9, 0));
        let cold = bank.productivity(&mut signs, StreamId(0), &v(0, 0));
        // Exact productivities: hot joins 50 R2-tuples × 10 matching R3 each
        // = 500; cold joins nothing.
        assert!(
            hot > 10.0 * cold.max(1.0),
            "hot={hot} cold={cold} should be separated"
        );
        let exact_hot = 500.0;
        assert!((hot - exact_hot).abs() / exact_hot < 0.5, "hot={hot}");
    }

    #[test]
    fn productivity_for_middle_stream_uses_both_neighbours() {
        let q = chain_query();
        let (mut bank, mut signs) = bank_and_signs(
            &q,
            BankConfig {
                s1: 400,
                s2: 3,
                seed: 5,
            },
        );
        for _ in 0..20 {
            bank.update(&mut signs, StreamId(0), &v(1, 0));
        }
        for _ in 0..30 {
            bank.update(&mut signs, StreamId(2), &v(2, 0));
        }
        // t = (1, 2) matches 20 left-side and 30 right-side tuples -> 600.
        let p = bank.productivity(&mut signs, StreamId(1), &v(1, 2));
        assert!((p - 600.0).abs() / 600.0 < 0.4, "p={p}");
        // t = (1, 5): no right-side partner -> ~0.
        let dead = bank.productivity(&mut signs, StreamId(1), &v(1, 5));
        assert!(dead.abs() < 150.0, "dead={dead}");
    }

    #[test]
    fn reset_zeroes_counts_but_keeps_families() {
        let q = chain_query();
        let cfg = BankConfig {
            s1: 4,
            s2: 1,
            seed: 3,
        };
        let (mut bank, mut signs) = bank_and_signs(&q, cfg);
        bank.update(&mut signs, StreamId(0), &v(1, 1));
        assert_eq!(bank.tuples_seen(StreamId(0)), 1);
        bank.reset();
        assert_eq!(bank.tuples_seen(StreamId(0)), 0);
        assert_eq!(bank.estimate_join_count(), 0.0);
        // Families survive reset: updating again gives the same state as a
        // fresh bank updated once.
        bank.update(&mut signs, StreamId(0), &v(1, 1));
        let mut fresh = SketchBank::new(&q, cfg);
        fresh.update(&mut signs, StreamId(0), &v(1, 1));
        assert_eq!(bank.estimate_join_count(), fresh.estimate_join_count());
    }

    #[test]
    fn empty_bank_estimates_zero() {
        let q = chain_query();
        let (mut bank, mut signs) = bank_and_signs(&q, BankConfig::default());
        assert_eq!(bank.estimate_join_count(), 0.0);
        assert_eq!(bank.productivity(&mut signs, StreamId(0), &v(1, 1)), 0.0);
    }

    #[test]
    fn snapshot_returns_row_and_zeroes_it() {
        let q = chain_query();
        let cfg = BankConfig {
            s1: 6,
            s2: 1,
            seed: 11,
        };
        let (mut bank, mut signs) = bank_and_signs(&q, cfg);
        bank.update(&mut signs, StreamId(1), &v(4, 2));
        bank.update(&mut signs, StreamId(1), &v(4, 2));
        let expected: Vec<i64> = (0..6).map(|c| bank.sketch_value(c, StreamId(1))).collect();
        assert!(expected.iter().any(|&x| x != 0));
        // One more update, left pending: the roll must settle it first.
        bank.update(&mut signs, StreamId(1), &v(4, 2));
        let expected: Vec<i64> = expected.iter().map(|x| x / 2 * 3).collect();
        let mut snap = vec![0i64; 6];
        bank.roll_stream_into(StreamId(1), &mut snap);
        assert_eq!(snap, expected);
        bank.check_invariants();
        assert_eq!(bank.counters_row(StreamId(1)), vec![0i64; 6].as_slice());
        assert_eq!(bank.tuples_seen(StreamId(1)), 0);
    }

    #[test]
    fn held_vectors_count_in_the_settled_view() {
        let q = chain_query();
        let cfg = BankConfig {
            s1: 70,
            s2: 1,
            seed: 19,
        };
        let (mut bank, mut signs) = bank_and_signs(&q, cfg);
        let mut eager = vec![0i64; 70];
        let mut words = Vec::new();
        for i in 0..21 {
            bank.update(&mut signs, StreamId(2), &v(i % 5, 0));
            bank.packed_signs_into(&mut signs, StreamId(2), &v(i % 5, 0), &mut words);
            kernel::scalar::fold_packed_signs(&words, &mut eager);
            // Every block fill level: a settled clone reads the eager fold.
            bank.check_invariants();
            let settled = bank.clone().counters_row(StreamId(2)).to_vec();
            assert_eq!(settled, eager, "update {i}");
        }
        // A read flushes the part-filled block through the tree.
        assert_eq!(bank.counters_row(StreamId(2)), eager.as_slice());
        assert_eq!(bank.pending[2], 0);
        bank.check_invariants();
    }

    #[test]
    #[should_panic(expected = "a block slot behind its 1 held vectors is set")]
    fn invariants_catch_a_dirty_block_slot() {
        let q = chain_query();
        let (mut bank, mut signs) = bank_and_signs(
            &q,
            BankConfig {
                s1: 70,
                s2: 1,
                seed: 1,
            },
        );
        bank.update(&mut signs, StreamId(0), &v(1, 1));
        // Two words a vector: slot 3 of stream 0's block starts at word 6.
        bank.blocks[6] = 1;
        bank.check_invariants();
    }

    #[test]
    fn serde_round_trip_keeps_pending_updates() {
        let q = chain_query();
        let cfg = BankConfig {
            s1: 70,
            s2: 1,
            seed: 17,
        };
        let (mut bank, mut signs) = bank_and_signs(&q, cfg);
        for i in 0..13 {
            bank.update(&mut signs, StreamId(0), &v(i, 1));
            bank.update(&mut signs, StreamId(1), &v(i % 2, 1));
        }
        // Settle one stream only: the other goes out mid-block, one block
        // in its planes and five vectors held.
        let _ = bank.counters_row(StreamId(0));
        assert_eq!((bank.pending[0], bank.pending[1]), (0, 13));
        let json = serde_json::to_string(&bank).unwrap();
        let mut back: SketchBank = serde_json::from_str(&json).unwrap();
        back.check_invariants();
        for k in 0..3 {
            let want = bank.counters_row(StreamId(k)).to_vec();
            assert_eq!(back.counters_row(StreamId(k)), want, "stream {k}");
        }
        assert_eq!(back.tuples_seen(StreamId(1)), 13);
    }

    #[test]
    fn packed_signs_match_scalar_signs_and_hit_cache() {
        let q = chain_query();
        let cfg = BankConfig {
            s1: 70,
            s2: 1,
            seed: 13,
        };
        let (bank, mut signs) = bank_and_signs(&q, cfg);
        let vals = v(5, 9);
        let mut words = Vec::new();
        bank.packed_signs_into(&mut signs, StreamId(1), &vals, &mut words);
        for c in 0..70 {
            let packed = if (words[c / 64] >> (c % 64)) & 1 == 1 {
                -1
            } else {
                1
            };
            assert_eq!(
                packed,
                bank.sign_in_copy(&signs, c, StreamId(1), &vals),
                "copy {c}"
            );
        }
        let before = signs.stats();
        bank.packed_signs_into(&mut signs, StreamId(1), &vals, &mut words);
        let after = signs.stats();
        assert_eq!(after.misses, before.misses, "second lookup is all hits");
        assert!(after.hits > before.hits);
    }
}
