//! Bit-packed ξ-sign vectors over structure-of-arrays hash banks.
//!
//! The AGMS hot path asks one question over and over: *for this predicate
//! and this attribute value, what is the ±1 sign in every one of the
//! `s1·s2` copies?* The answer is a vector of 1000 signs — one bit each —
//! so this module evaluates all copies of a predicate's polynomial in one
//! linear sweep over flat coefficient arrays ([`SignFamilies`]), packs the
//! result into a `[u64]` bitvector (bit set ⇔ sign is −1), and memoizes
//! the packed vectors in a bounded cache of one `value → bits` map per
//! predicate ([`SignCache`]) that exploits the Zipfian value repetition of
//! the paper's workloads. Families and memo together are a [`SignTable`].
//!
//! Signs of *incident predicates* combine by product; since each sign is
//! ±1, the product is +1 exactly when an even number of factors are −1 —
//! i.e. packed vectors combine by **XOR** ([`SignTable::combine`]).
//!
//! Sign vectors depend only on the hash coefficients, which are drawn once
//! from `(seed, predicate count, copies)` and never change (epoch
//! rollovers reset counters, not families). Cached vectors therefore stay
//! valid for the table's whole lifetime, and every sketch bank drawn from
//! the same key can read the same table: the plane keeps one per key
//! ([`SignTables`]) and lends it to each class in turn. The cache bound
//! exists purely to cap memory.

use crate::bank::BankConfig;
use crate::hash::{mod_mersenne, FourWiseHash};
use mstream_types::{Value, WordBuild};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::{Entry, HashMap};

/// Sign bits packed per `u64` word.
const WORD_BITS: usize = 64;

/// Default cap on memoized sign vectors of one [`SignTable`], across every
/// predicate.
///
/// At the paper's sizing (1000 copies = 16 words = 128 bytes per vector)
/// this bounds one table's memo at ~1 MiB of vectors plus their map
/// entries, while covering every value a Zipfian epoch realistically
/// revisits. That is not small beside the windows: on the benchmark's
/// `multi_shared` workload, when every class kept its own memo, the four
/// copies of the one-predicate memo were 0.53 MB of a 1.81 MB engine heap
/// peak (EXPERIMENTS.md). A plane therefore keeps one memo per family
/// key, not one per class.
pub(crate) const DEFAULT_SIGN_CACHE_ENTRIES: usize = 8192;

/// Number of `u64` words needed to hold one sign bit per copy.
#[inline]
pub(crate) fn words_for(copies: usize) -> usize {
    copies.div_ceil(WORD_BITS)
}

/// Flat, copy-major banks of four-wise independent ±1 families.
///
/// The legacy layout stored one [`FourWiseHash`] per `(copy, predicate)`
/// behind two levels of `Vec`, so evaluating "all copies of predicate `j`"
/// chased 1000 pointers. Here the degree-`d` coefficient of copy `c` for
/// predicate `j` lives at `coeffs[j][d * copies + c]`: evaluating every
/// copy for one value is four contiguous streams through one allocation.
///
/// Families are drawn through [`FourWiseHash::random`] in the exact order
/// the legacy layout used (copy-major outer, predicate inner), so a given
/// seed yields bit-identical signs in both layouts.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SignFamilies {
    copies: usize,
    /// `coeffs[pred][d * copies + c]` = degree-`d` coefficient of copy `c`.
    coeffs: Vec<Vec<u64>>,
}

impl SignFamilies {
    /// Draws `copies` independent families per predicate from `rng`,
    /// consuming the RNG in the legacy copy-major order.
    pub fn draw<R: Rng + ?Sized>(rng: &mut R, n_predicates: usize, copies: usize) -> Self {
        let mut coeffs = vec![vec![0u64; 4 * copies]; n_predicates];
        for c in 0..copies {
            for bank in coeffs.iter_mut() {
                let h = FourWiseHash::random(rng).coeffs();
                for (d, &coeff) in h.iter().enumerate() {
                    bank[d * copies + c] = coeff;
                }
            }
        }
        SignFamilies { copies, coeffs }
    }

    /// Number of independent copies per predicate.
    pub(crate) fn copies(&self) -> usize {
        self.copies
    }

    /// The scalar ±1 sign of one `(predicate, copy)` pair at `x` —
    /// bit-identical to `FourWiseHash::sign` on the same coefficients.
    #[inline]
    pub(crate) fn sign_one(&self, pred: usize, copy: usize, x: u64) -> i64 {
        let bank = &self.coeffs[pred];
        let n = self.copies;
        let x = mod_mersenne(x as u128);
        // Horner, highest degree first: (((c3·x + c2)·x + c1)·x + c0).
        let mut acc = bank[3 * n + copy];
        for d in (0..3).rev() {
            acc = mod_mersenne(acc as u128 * x as u128 + bank[d * n + copy] as u128);
        }
        if acc & 1 == 0 {
            1
        } else {
            -1
        }
    }

    /// Evaluates predicate `pred` at `x` across **all** copies and packs
    /// the signs into `out` (bit `c % 64` of word `c / 64` set ⇔ copy `c`
    /// has sign −1). `out` is cleared and resized to `words_for(copies)` words.
    ///
    /// Power form: `x`, `x²` and `x³` are reduced mod p once per call, so
    /// each copy is three independent multiplies summed in one `u128` —
    /// `c0 + c1·x + c2·x² + c3·x³ ≤ 3·(p − 1)² + p − 1 < 2^125` — and one
    /// `mod_mersenne`, which is exact for every `u128`. That is the
    /// residue in `[0, p)` the Horner chain of [`Self::eval_packed_scalar`]
    /// reaches through three dependent reductions, so every sign bit is
    /// the same (the equivalence suite holds the two to it).
    pub fn eval_packed_into(&self, pred: usize, x: u64, out: &mut Vec<u64>) {
        let n = self.copies;
        out.clear();
        out.resize(words_for(n), 0);
        let bank = &self.coeffs[pred];
        let x1 = mod_mersenne(x as u128);
        let x2 = mod_mersenne(x1 as u128 * x1 as u128);
        let x3 = mod_mersenne(x2 as u128 * x1 as u128);
        let (c0, rest) = bank.split_at(n);
        let (c1, rest) = rest.split_at(n);
        let (c2, c3) = rest.split_at(n);
        for (w, word) in out.iter_mut().enumerate() {
            let first = w * WORD_BITS;
            let mut bits = 0u64;
            for c in first..n.min(first + WORD_BITS) {
                let sum = c0[c] as u128
                    + c1[c] as u128 * x1 as u128
                    + c2[c] as u128 * x2 as u128
                    + c3[c] as u128 * x3 as u128;
                bits |= (mod_mersenne(sum) & 1) << (c - first);
            }
            *word = bits;
        }
    }

    /// Scalar reference for [`Self::eval_packed_into`]: one Horner chain
    /// per copy, ascending copy order.
    pub fn eval_packed_scalar(&self, pred: usize, x: u64, out: &mut Vec<u64>) {
        let n = self.copies;
        out.clear();
        out.resize(words_for(n), 0);
        let bank = &self.coeffs[pred];
        let x = mod_mersenne(x as u128);
        let (c0, rest) = bank.split_at(n);
        let (c1, rest) = rest.split_at(n);
        let (c2, c3) = rest.split_at(n);
        for c in 0..n {
            let mut acc = c3[c];
            acc = mod_mersenne(acc as u128 * x as u128 + c2[c] as u128);
            acc = mod_mersenne(acc as u128 * x as u128 + c1[c] as u128);
            acc = mod_mersenne(acc as u128 * x as u128 + c0[c] as u128);
            out[c / WORD_BITS] |= (acc & 1) << (c % WORD_BITS);
        }
    }
}

/// Aggregate counters of a [`SignCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct SignCacheStats {
    /// Lookups served from a memoized vector.
    pub hits: u64,
    /// Lookups that had to evaluate the polynomial bank.
    pub misses: u64,
    /// Vectors currently resident.
    pub entries: usize,
}

/// Bounded memo of packed sign vectors, one `value → bits` map per predicate.
#[derive(Clone, Debug)]
pub(crate) struct SignCache {
    /// `maps[pred]` = predicate `pred`'s vectors (grown on first sight).
    maps: Vec<HashMap<u64, Box<[u64]>, WordBuild>>,
    /// Vectors resident across every map.
    len: usize,
    hits: u64,
    misses: u64,
    max_entries: usize,
}

impl Default for SignCache {
    fn default() -> Self {
        SignCache::with_capacity_bound(DEFAULT_SIGN_CACHE_ENTRIES)
    }
}

impl SignCache {
    /// An empty cache holding at most `max_entries` vectors (at least 1).
    pub(crate) fn with_capacity_bound(max_entries: usize) -> Self {
        SignCache {
            maps: Vec::new(),
            len: 0,
            hits: 0,
            misses: 0,
            max_entries: max_entries.max(1),
        }
    }

    /// The packed sign vector of `(pred, value)`, evaluating and memoizing
    /// it on first sight. When the bound is hit every map is dropped
    /// (generation-style eviction: O(1) amortized, and the very next epoch
    /// of a Zipfian workload repopulates the hot set immediately).
    pub(crate) fn get_or_compute(
        &mut self,
        families: &SignFamilies,
        pred: usize,
        value: u64,
    ) -> &[u64] {
        if self.maps.len() <= pred {
            self.maps.resize_with(pred + 1, HashMap::default);
        }
        // Only a full memo pays a second lookup; a hit hashes the key once.
        if self.len >= self.max_entries && !self.maps[pred].contains_key(&value) {
            self.maps.iter_mut().for_each(HashMap::clear);
            self.len = 0;
        }
        match self.maps[pred].entry(value) {
            Entry::Occupied(hit) => {
                self.hits += 1;
                hit.into_mut()
            }
            Entry::Vacant(miss) => {
                self.misses += 1;
                self.len += 1;
                let mut bits = Vec::with_capacity(words_for(families.copies()));
                families.eval_packed_into(pred, value, &mut bits);
                miss.insert(bits.into_boxed_slice())
            }
        }
    }

    /// Current counters.
    pub(crate) fn stats(&self) -> SignCacheStats {
        SignCacheStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.len,
        }
    }

    /// The resident count is the maps' total and within the bound.
    #[cfg(feature = "audit")]
    fn check_invariants(&self) {
        let resident: usize = self.maps.iter().map(HashMap::len).sum();
        assert_eq!(resident, self.len, "sign memo resident count");
        assert!(self.len <= self.max_entries, "sign memo over its bound");
    }
}

/// One family key's ξ-sign source: the [`SignFamilies`] that
/// `(seed, predicate count, copies)` draws, and the memo of their packed
/// vectors. A sketch bank keeps no families of its own; it is lent the
/// table of its key on every call that needs signs. Two banks drawn from
/// one key have bit-identical families, and a memo hit is the vector a
/// recomputation gives, so which banks share a table changes no estimate.
#[derive(Clone, Debug)]
pub struct SignTable {
    families: SignFamilies,
    cache: SignCache,
}

impl SignTable {
    /// The families `config` draws for a query of `n_predicates`
    /// predicates (seeded by `config.seed`, copy-major), with an empty memo.
    pub fn new(n_predicates: usize, config: BankConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        SignTable {
            families: SignFamilies::draw(&mut rng, n_predicates, config.copies()),
            cache: SignCache::default(),
        }
    }

    /// Number of independent copies per predicate.
    pub(crate) fn copies(&self) -> usize {
        self.families.copies()
    }

    /// The scalar ±1 sign of one `(predicate, copy)` pair at `x`.
    #[inline]
    pub(crate) fn sign_one(&self, pred: usize, copy: usize, x: u64) -> i64 {
        self.families.sign_one(pred, copy, x)
    }

    /// XOR-combines the packed sign vectors of every predicate incident to
    /// a stream, evaluated at the tuple's attribute values, into `out` —
    /// the packed per-copy sign *products* `Π_{j ∈ attrs(R_i)} ξ_{j, t[j]}`,
    /// each vector served from the memo.
    ///
    /// `incidence` is the stream's `(predicate index, attribute index)`
    /// list; an empty list leaves `out` all-zero (every sign +1), matching
    /// the scalar convention of an empty product.
    pub fn combine(&mut self, incidence: &[(usize, usize)], values: &[Value], out: &mut Vec<u64>) {
        out.clear();
        out.resize(words_for(self.families.copies()), 0);
        for (idx, &(pred, attr)) in incidence.iter().enumerate() {
            let bits = self
                .cache
                .get_or_compute(&self.families, pred, values[attr].raw());
            if idx == 0 {
                out.copy_from_slice(bits);
            } else {
                for (o, &b) in out.iter_mut().zip(bits) {
                    *o ^= b;
                }
            }
        }
    }

    /// Hit/miss/occupancy counters of the memo.
    pub(crate) fn stats(&self) -> SignCacheStats {
        self.cache.stats()
    }
}

/// The sign tables of one plane: one [`SignTable`] per distinct
/// `(seed, predicate count, copies)`, counted by the classes drawing on it
/// the way a shared window store counts its users. Ids are slot indices,
/// stable while the table lives.
#[derive(Debug, Default)]
pub(crate) struct SignTables {
    slots: Vec<Option<SharedTable>>,
}

#[derive(Debug)]
struct SharedTable {
    /// `(seed, predicate count, copies)`: what fixes the families.
    key: (u64, usize, usize),
    table: SignTable,
    /// Classes drawing on the table.
    users: usize,
}

impl SignTables {
    /// The id of the table a query of `n_predicates` predicates draws on
    /// under `config`, counting one more user: an existing table of that
    /// key, or a new one.
    pub(crate) fn intern(&mut self, n_predicates: usize, config: BankConfig) -> usize {
        let key = (config.seed, n_predicates, config.copies());
        let found = self
            .slots
            .iter()
            .position(|slot| slot.as_ref().is_some_and(|t| t.key == key));
        if let Some(id) = found {
            self.slots[id].as_mut().expect("found live").users += 1;
            return id;
        }
        // One slot at a time: a plane holds a table or two, and a first
        // push would reserve four.
        self.slots.reserve_exact(1);
        self.slots.push(Some(SharedTable {
            key,
            table: SignTable::new(n_predicates, config),
            users: 1,
        }));
        self.slots.len() - 1
    }

    /// Counts one user of table `id` out. The last one frees the table
    /// and gets its final memo counters back.
    pub(crate) fn release(&mut self, id: usize) -> Option<SignCacheStats> {
        let shared = self.slots[id].as_mut().expect("released table is live");
        shared.users -= 1;
        if shared.users > 0 {
            return None;
        }
        self.slots[id].take().map(|t| t.table.stats())
    }

    /// Table `id`, lent for one call.
    #[inline]
    pub(crate) fn get_mut(&mut self, id: usize) -> &mut SignTable {
        &mut self.slots[id].as_mut().expect("lent table is live").table
    }

    /// Memo hits and misses summed over the live tables.
    pub(crate) fn stats(&self) -> (u64, u64) {
        let live = self.slots.iter().flatten();
        live.fold((0, 0), |(hits, misses), t| {
            let s = t.table.stats();
            (hits + s.hits, misses + s.misses)
        })
    }

    /// Live tables that two or more classes draw on.
    pub(crate) fn shared(&self) -> usize {
        self.slots.iter().flatten().filter(|t| t.users >= 2).count()
    }

    /// Live tables.
    #[cfg(test)]
    pub(crate) fn live(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    /// Every class drawing on a table — `users` lists each one's
    /// `(table id, predicate count)` — reads a live table of its key under
    /// `config`; every live table is counted by exactly the classes drawing
    /// on it, at least one, is the only table of its key, holds its key's
    /// families and keeps its memo within bound.
    ///
    /// # Panics
    /// Panics on any violated invariant.
    #[cfg(feature = "audit")]
    pub(crate) fn check_invariants(&self, config: BankConfig, users: &[(usize, usize)]) {
        for &(id, n_predicates) in users {
            let shared = self.slots.get(id).and_then(Option::as_ref);
            let key = shared.map(|t| t.key);
            let want = (config.seed, n_predicates, config.copies());
            assert_eq!(
                key,
                Some(want),
                "a class draws on sign table {id} of another key"
            );
        }
        for (id, shared) in self.slots.iter().enumerate() {
            let Some(shared) = shared else { continue };
            let counted = users.iter().filter(|&&(t, _)| t == id).count();
            assert!(shared.users > 0, "sign table {id} outlived its last user");
            assert_eq!(shared.users, counted, "sign table {id}: user count");
            let twins = self.slots.iter().flatten().filter(|t| t.key == shared.key);
            assert_eq!(
                twins.count(),
                1,
                "sign table {id}: a second table of its key"
            );
            let (_, n_predicates, copies) = shared.key;
            let families = &shared.table.families;
            assert_eq!(
                (families.coeffs.len(), families.copies),
                (n_predicates, copies),
                "sign table {id}: families of another key"
            );
            shared.table.cache.check_invariants();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::MERSENNE_P;

    fn families(seed: u64, n_preds: usize, copies: usize) -> SignFamilies {
        let mut rng = StdRng::seed_from_u64(seed);
        SignFamilies::draw(&mut rng, n_preds, copies)
    }

    /// Reassembles the [`FourWiseHash`] of one `(predicate, copy)` pair.
    fn family(soa: &SignFamilies, pred: usize, copy: usize) -> FourWiseHash {
        let (bank, n) = (&soa.coeffs[pred], soa.copies);
        FourWiseHash::from_coeffs([
            bank[copy],
            bank[n + copy],
            bank[2 * n + copy],
            bank[3 * n + copy],
        ])
    }

    /// The legacy construction order: copy-major, predicate inner.
    fn legacy_families(seed: u64, n_preds: usize, copies: usize) -> Vec<Vec<FourWiseHash>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..copies)
            .map(|_| {
                (0..n_preds)
                    .map(|_| FourWiseHash::random(&mut rng))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn words_for_rounds_up() {
        assert_eq!(words_for(1), 1);
        assert_eq!(words_for(64), 1);
        assert_eq!(words_for(65), 2);
        assert_eq!(words_for(1000), 16);
    }

    #[test]
    fn draw_matches_legacy_rng_order() {
        let soa = families(77, 2, 9);
        let legacy = legacy_families(77, 2, 9);
        for (copy, per_copy) in legacy.iter().enumerate() {
            for (pred, expected) in per_copy.iter().enumerate() {
                assert_eq!(
                    family(&soa, pred, copy),
                    *expected,
                    "copy {copy} pred {pred}"
                );
            }
        }
    }

    #[test]
    fn packed_bits_match_scalar_signs() {
        let soa = families(3, 2, 130); // > 2 words, with a ragged tail
        let mut bits = Vec::new();
        let p = MERSENNE_P;
        for pred in 0..2 {
            for x in [0u64, 1, 7, 123_456_789, p - 1, p, p + 1, 2 * p, u64::MAX] {
                soa.eval_packed_into(pred, x, &mut bits);
                assert_eq!(bits.len(), words_for(130));
                for c in 0..130 {
                    let packed = if (bits[c / 64] >> (c % 64)) & 1 == 1 {
                        -1
                    } else {
                        1
                    };
                    assert_eq!(
                        packed,
                        soa.sign_one(pred, c, x),
                        "pred {pred} copy {c} x {x}"
                    );
                    assert_eq!(packed, family(&soa, pred, c).sign(x));
                }
            }
        }
    }

    /// The power form's sums at the field's edges, on families built from
    /// explicit coefficients: `[p − 1, 1, 0, 0]` at `x = 1` sums to exactly
    /// `p` (residue 0, even — a reduction that skips its final subtract
    /// leaves `p`, odd), and every coefficient `p − 1` at `x = p − 1`
    /// (`x² ≡ 1`, `x³ ≡ p − 1`) sums to `2p(p − 1)`, near 2^123 and again
    /// a multiple of `p`.
    #[test]
    fn power_form_matches_horner_at_field_edges() {
        let p = MERSENNE_P;
        let explicit = |c: [u64; 4]| SignFamilies {
            copies: 3,
            coeffs: vec![c.iter().flat_map(|&d| [d; 3]).collect()],
        };
        let (mut power, mut horner) = (Vec::new(), Vec::new());
        for (coeffs, x, want) in [([p - 1, 1, 0, 0], 1, 0b000), ([p - 1; 4], p - 1, 0b000)] {
            let fam = explicit(coeffs);
            fam.eval_packed_into(0, x, &mut power);
            fam.eval_packed_scalar(0, x, &mut horner);
            assert_eq!(power, horner, "coeffs {coeffs:?} x {x}");
            assert_eq!(power, [want], "coeffs {coeffs:?} x {x}");
        }
    }

    /// Hand-computed golden vector: coeffs [3, 5, 7, 11] give
    /// h(0) = 3 (odd → −1), h(1) = 26 (even → +1), h(2) = 129 (odd → −1).
    #[test]
    fn golden_signs_for_known_coefficients() {
        let h = FourWiseHash::from_coeffs([3, 5, 7, 11]);
        assert_eq!(h.sign(0), -1);
        assert_eq!(h.sign(1), 1);
        assert_eq!(h.sign(2), -1);
    }

    #[test]
    fn xor_combine_is_sign_product() {
        let config = BankConfig {
            s1: 70,
            s2: 1,
            seed: 5,
        };
        let mut table = SignTable::new(2, config);
        assert_eq!(
            table.families,
            families(5, 2, 70),
            "the table draws from the seed"
        );
        let incidence = [(0usize, 0usize), (1usize, 1usize)];
        let values = [Value(42), Value(99)];
        let mut combined = Vec::new();
        table.combine(&incidence, &values, &mut combined);
        for c in 0..70 {
            let product = table.sign_one(0, c, 42) * table.sign_one(1, c, 99);
            let packed = if (combined[c / 64] >> (c % 64)) & 1 == 1 {
                -1
            } else {
                1
            };
            assert_eq!(packed, product, "copy {c}");
        }
    }

    #[test]
    fn empty_incidence_means_all_plus_one() {
        let config = BankConfig {
            s1: 10,
            s2: 1,
            seed: 5,
        };
        let mut table = SignTable::new(1, config);
        let mut combined = vec![u64::MAX; 3];
        table.combine(&[], &[], &mut combined);
        assert_eq!(combined, vec![0u64; words_for(10)]);
    }

    /// One table per key: a second user of a key shares it, another
    /// predicate count or seed gets its own, and the last user's release
    /// frees it with its counters.
    #[test]
    fn tables_are_interned_by_key_and_freed_by_their_last_user() {
        let config = BankConfig {
            s1: 8,
            s2: 1,
            seed: 3,
        };
        let mut tables = SignTables::default();
        let a = tables.intern(1, config);
        assert_eq!(tables.intern(1, config), a);
        let b = tables.intern(2, config);
        let c = tables.intern(1, BankConfig { seed: 4, ..config });
        assert!(a != b && a != c && b != c);
        assert_eq!(tables.shared(), 1);
        tables
            .get_mut(a)
            .combine(&[(0, 0)], &[Value(7)], &mut Vec::new());
        assert_eq!(tables.release(a), None, "one user left");
        assert_eq!(tables.shared(), 0);
        let last = tables.release(a).expect("the last user frees the table");
        assert_eq!((last.hits, last.misses), (0, 1));
        assert_eq!(tables.stats(), (0, 0), "freed counters leave the live sum");
        assert_ne!(tables.intern(1, config), a, "a freed id is not reused");
    }

    #[test]
    fn cache_counts_hits_and_bounds_entries() {
        let soa = families(9, 1, 8);
        let mut cache = SignCache::with_capacity_bound(4);
        for _ in 0..3 {
            cache.get_or_compute(&soa, 0, 1);
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (2, 1, 1));
        // Overflow the bound: generation reset keeps entries <= max.
        for v in 0..20u64 {
            cache.get_or_compute(&soa, 0, v);
        }
        assert!(cache.stats().entries <= 4);
        // Cached and freshly evaluated vectors agree.
        let mut fresh = Vec::new();
        soa.eval_packed_into(0, 1, &mut fresh);
        assert_eq!(cache.get_or_compute(&soa, 0, 1), fresh.as_slice());
    }

    /// One bound across the predicates' maps: the insert that finds the
    /// memo full drops every map, a hit never does, and a vector evaluated
    /// again after the drop is the same bits.
    #[test]
    fn per_predicate_maps_share_one_bound_and_clear_wholesale() {
        let soa = families(11, 2, 70);
        let mut cache = SignCache::with_capacity_bound(3);
        let first = cache.get_or_compute(&soa, 0, 5).to_vec();
        cache.get_or_compute(&soa, 1, 5);
        cache.get_or_compute(&soa, 1, 6);
        assert_eq!(cache.stats().entries, 3);
        // A hit on a full memo keeps every map.
        cache.get_or_compute(&soa, 0, 5);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 3, 3));
        // A new value of either predicate drops both maps.
        cache.get_or_compute(&soa, 0, 7);
        assert_eq!(cache.stats().entries, 1);
        assert_eq!(cache.get_or_compute(&soa, 0, 5), first.as_slice());
        cache.get_or_compute(&soa, 1, 5);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 6, 3));
    }
}
