//! Bit-packed ξ-sign vectors over structure-of-arrays hash banks.
//!
//! The AGMS hot path asks one question over and over: *for this predicate
//! and this attribute value, what is the ±1 sign in every one of the
//! `s1·s2` copies?* The answer is a vector of 1000 signs — one bit each —
//! so this module evaluates all copies of a predicate's polynomial in one
//! linear sweep over flat coefficient arrays ([`SignFamilies`]), packs the
//! result into a `[u64]` bitvector (bit set ⇔ sign is −1), and memoizes
//! the packed vectors in a bounded `(predicate, value) → bits` cache
//! ([`SignCache`]) that exploits the Zipfian value repetition of the
//! paper's workloads.
//!
//! Signs of *incident predicates* combine by product; since each sign is
//! ±1, the product is +1 exactly when an even number of factors are −1 —
//! i.e. packed vectors combine by **XOR** ([`combine_packed_signs`]).
//!
//! Sign vectors depend only on the hash coefficients, which are drawn once
//! at bank construction and never change (epoch rollovers reset counters,
//! not families). Cached vectors therefore stay valid for the bank's whole
//! lifetime; the cache bound exists purely to cap memory.

use crate::hash::{mod_mersenne, FourWiseHash};
use mstream_types::{Value, WordBuild};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::{Entry, HashMap};

/// Sign bits packed per `u64` word.
const WORD_BITS: usize = 64;

/// Default cap on memoized `(predicate, value)` sign vectors.
///
/// At the paper's sizing (1000 copies = 16 words = 128 bytes per vector)
/// this bounds the cache at ~1 MiB — far below the window stores — while
/// covering every value a Zipfian epoch realistically revisits.
pub const DEFAULT_SIGN_CACHE_ENTRIES: usize = 8192;

/// Number of `u64` words needed to hold one sign bit per copy.
#[inline]
pub fn words_for(copies: usize) -> usize {
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

    /// Number of predicates covered.
    pub fn n_predicates(&self) -> usize {
        self.coeffs.len()
    }

    /// Number of independent copies per predicate.
    pub fn copies(&self) -> usize {
        self.copies
    }

    /// Reassembles the [`FourWiseHash`] of one `(predicate, copy)` pair
    /// (diagnostics and equivalence tests).
    pub fn family(&self, pred: usize, copy: usize) -> FourWiseHash {
        let bank = &self.coeffs[pred];
        let n = self.copies;
        FourWiseHash::from_coeffs([
            bank[copy],
            bank[n + copy],
            bank[2 * n + copy],
            bank[3 * n + copy],
        ])
    }

    /// The scalar ±1 sign of one `(predicate, copy)` pair at `x` —
    /// bit-identical to `FourWiseHash::sign` on the same coefficients.
    #[inline]
    pub fn sign_one(&self, pred: usize, copy: usize, x: u64) -> i64 {
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
    /// has sign −1). `out` is cleared and resized to [`words_for`] words.
    ///
    /// Runs the lane-blocked form ([`Self::eval_packed_lanes`]); the
    /// arithmetic is pure integer math, so it is exact and bit-identical
    /// to the scalar reference loop — proven by the
    /// [`Self::eval_packed_scalar`] comparison in the equivalence suite.
    pub fn eval_packed_into(&self, pred: usize, x: u64, out: &mut Vec<u64>) {
        self.eval_packed_lanes(pred, x, out)
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

    /// Lane-blocked body of [`Self::eval_packed_into`]:
    /// [`crate::kernel::LANES`] independent Horner chains advance together
    /// (the copy-major coefficient layout makes each degree a contiguous
    /// load), with a scalar tail for `copies % LANES != 0`. Exact — every
    /// chain performs the identical integer operations as the scalar loop.
    pub fn eval_packed_lanes(&self, pred: usize, x: u64, out: &mut Vec<u64>) {
        const LANES: usize = crate::kernel::LANES;
        let n = self.copies;
        out.clear();
        out.resize(words_for(n), 0);
        let bank = &self.coeffs[pred];
        let x = mod_mersenne(x as u128) as u128;
        let (c0, rest) = bank.split_at(n);
        let (c1, rest) = rest.split_at(n);
        let (c2, c3) = rest.split_at(n);
        let mut c = 0usize;
        while c + LANES <= n {
            let mut acc = [0u64; LANES];
            acc.copy_from_slice(&c3[c..c + LANES]);
            for coeffs in [c2, c1, c0] {
                for l in 0..LANES {
                    acc[l] = mod_mersenne(acc[l] as u128 * x + coeffs[c + l] as u128);
                }
            }
            for (l, a) in acc.iter().enumerate() {
                let i = c + l;
                out[i / WORD_BITS] |= (a & 1) << (i % WORD_BITS);
            }
            c += LANES;
        }
        for i in c..n {
            let mut acc = c3[i];
            acc = mod_mersenne(acc as u128 * x + c2[i] as u128);
            acc = mod_mersenne(acc as u128 * x + c1[i] as u128);
            acc = mod_mersenne(acc as u128 * x + c0[i] as u128);
            out[i / WORD_BITS] |= (acc & 1) << (i % WORD_BITS);
        }
    }
}

/// Aggregate counters of a [`SignCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SignCacheStats {
    /// Lookups served from a memoized vector.
    pub hits: u64,
    /// Lookups that had to evaluate the polynomial bank.
    pub misses: u64,
    /// Vectors currently resident.
    pub entries: usize,
}

/// Bounded memo of packed sign vectors keyed by `(predicate, value)`.
#[derive(Clone, Debug)]
pub struct SignCache {
    map: HashMap<(usize, u64), Vec<u64>, WordBuild>,
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
    pub fn with_capacity_bound(max_entries: usize) -> Self {
        SignCache {
            map: HashMap::default(),
            hits: 0,
            misses: 0,
            max_entries: max_entries.max(1),
        }
    }

    /// The packed sign vector of `(pred, value)`, evaluating and memoizing
    /// it on first sight. When the bound is hit the whole map is dropped
    /// (generation-style eviction: O(1) amortized, and the very next epoch
    /// of a Zipfian workload repopulates the hot set immediately).
    pub fn get_or_compute(
        &mut self,
        families: &SignFamilies,
        pred: usize,
        value: u64,
    ) -> &[u64] {
        let key = (pred, value);
        // Only a full map pays a second lookup; a hit hashes the key once.
        if self.map.len() >= self.max_entries && !self.map.contains_key(&key) {
            self.map.clear();
        }
        match self.map.entry(key) {
            Entry::Occupied(hit) => {
                self.hits += 1;
                hit.into_mut()
            }
            Entry::Vacant(miss) => {
                self.misses += 1;
                let mut bits = Vec::new();
                families.eval_packed_into(pred, value, &mut bits);
                miss.insert(bits)
            }
        }
    }

    /// Drops every memoized vector; hit/miss counters persist.
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Current counters.
    pub fn stats(&self) -> SignCacheStats {
        SignCacheStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.map.len(),
        }
    }
}

/// XOR-combines the packed sign vectors of every predicate incident to a
/// stream, evaluated at the tuple's attribute values, into `out` — the
/// packed per-copy sign *products* `Π_{j ∈ attrs(R_i)} ξ_{j, t[j]}`.
///
/// `incidence` is the stream's `(predicate index, attribute index)` list;
/// an empty list leaves `out` all-zero (every sign +1), matching the
/// scalar convention of an empty product.
pub fn combine_packed_signs(
    families: &SignFamilies,
    cache: &mut SignCache,
    incidence: &[(usize, usize)],
    values: &[Value],
    out: &mut Vec<u64>,
) {
    out.clear();
    out.resize(words_for(families.copies()), 0);
    for (idx, &(pred, attr)) in incidence.iter().enumerate() {
        let bits = cache.get_or_compute(families, pred, values[attr].raw());
        if idx == 0 {
            out.copy_from_slice(bits);
        } else {
            for (o, &b) in out.iter_mut().zip(bits) {
                *o ^= b;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn families(seed: u64, n_preds: usize, copies: usize) -> SignFamilies {
        let mut rng = StdRng::seed_from_u64(seed);
        SignFamilies::draw(&mut rng, n_preds, copies)
    }

    /// The legacy construction order: copy-major, predicate inner.
    fn legacy_families(seed: u64, n_preds: usize, copies: usize) -> Vec<Vec<FourWiseHash>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..copies)
            .map(|_| (0..n_preds).map(|_| FourWiseHash::random(&mut rng)).collect())
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
                    soa.family(pred, copy),
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
        for pred in 0..2 {
            for x in [0u64, 1, 7, 123_456_789, u64::MAX] {
                soa.eval_packed_into(pred, x, &mut bits);
                assert_eq!(bits.len(), words_for(130));
                for c in 0..130 {
                    let packed = if (bits[c / 64] >> (c % 64)) & 1 == 1 { -1 } else { 1 };
                    assert_eq!(packed, soa.sign_one(pred, c, x), "pred {pred} copy {c} x {x}");
                    assert_eq!(packed, soa.family(pred, c).sign(x));
                }
            }
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
        let soa = families(5, 2, 70);
        let mut cache = SignCache::default();
        let incidence = [(0usize, 0usize), (1usize, 1usize)];
        let values = [Value(42), Value(99)];
        let mut combined = Vec::new();
        combine_packed_signs(&soa, &mut cache, &incidence, &values, &mut combined);
        for c in 0..70 {
            let product = soa.sign_one(0, c, 42) * soa.sign_one(1, c, 99);
            let packed = if (combined[c / 64] >> (c % 64)) & 1 == 1 { -1 } else { 1 };
            assert_eq!(packed, product, "copy {c}");
        }
    }

    #[test]
    fn empty_incidence_means_all_plus_one() {
        let soa = families(5, 1, 10);
        let mut cache = SignCache::default();
        let mut combined = vec![u64::MAX; 3];
        combine_packed_signs(&soa, &mut cache, &[], &[], &mut combined);
        assert_eq!(combined, vec![0u64; words_for(10)]);
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
}
