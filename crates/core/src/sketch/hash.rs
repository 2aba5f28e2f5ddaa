//! Four-wise independent ±1 hash families.
//!
//! AGMS sketches need, for every join-attribute pair `j ∈ θ`, a family of
//! random variables `ξ_{j,i} ∈ {−1, +1}` that is *four-wise independent*:
//! any four distinct domain points get independent signs. The classical
//! construction (Carter–Wegman) evaluates a uniformly random polynomial of
//! degree 3 over a prime field and takes one output bit. We use the Mersenne
//! prime `p = 2^61 − 1`, whose reduction ([`mod_mersenne`], exact for every
//! `u128`) needs only shifts and adds.
//!
//! A single family evaluates by Horner's rule ([`FourWiseHash::eval`]), one
//! reduction per step. The hot path does not: a sign-memo miss evaluates
//! one key across every copy of a predicate, so
//! [`crate::signs::SignFamilies::eval_packed_into`] reduces `x`, `x²` and `x³`
//! once and gives each copy one unreduced four-term sum and one reduction.
//! Both forms compute the same residue, hence the same sign.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// The Mersenne prime `2^61 − 1`.
pub(crate) const MERSENNE_P: u64 = (1u64 << 61) - 1;

/// Reduces `x` modulo `2^61 − 1` using the Mersenne shift-add identity.
///
/// Exact for **every** `u128`: `2^61 ≡ 1 (mod p)`, so each fold keeps the
/// residue. The first fold leaves less than `2^67 + 2^61`, the second less
/// than `2^61 + 64 < 2·p`, and one conditional subtract lands in `[0, p)`.
/// That covers a raw `u64` attribute value (a division-free `x % p`), a
/// product of two residues, and the power form's four-term sums in
/// [`crate::signs::SignFamilies::eval_packed_into`].
#[inline]
pub(crate) fn mod_mersenne(x: u128) -> u64 {
    // Fold twice: after one fold the value fits in 67 bits + small carry.
    let folded = (x & MERSENNE_P as u128) + (x >> 61);
    let folded = (folded & MERSENNE_P as u128) + (folded >> 61);
    let mut r = folded as u64;
    if r >= MERSENNE_P {
        r -= MERSENNE_P;
    }
    r
}

/// A four-wise independent ±1 family: `ξ(i) = ±1` for `i` in `u64`.
///
/// Internally a uniformly random degree-3 polynomial
/// `h(x) = c3·x³ + c2·x² + c1·x + c0 (mod 2^61 − 1)`; the sign is the
/// low-order bit of `h(x)`. Each family is cheap to store (4 words) and
/// evaluation is a handful of multiply-reduce steps, so maintaining the
/// `s1 × s2 × |θ|` families of a [`crate::bank::SketchBank`] stays "fast and
/// light" as the paper requires.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FourWiseHash {
    coeffs: [u64; 4],
}

impl FourWiseHash {
    /// Draws a fresh family from `rng`.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let mut coeffs = [0u64; 4];
        for c in &mut coeffs {
            *c = rng.gen_range(0..MERSENNE_P);
        }
        FourWiseHash { coeffs }
    }

    /// Builds a family from explicit coefficients (tests / golden vectors).
    #[cfg(test)]
    pub(crate) fn from_coeffs(coeffs: [u64; 4]) -> Self {
        let coeffs = coeffs.map(|c| c % MERSENNE_P);
        FourWiseHash { coeffs }
    }

    /// The polynomial coefficients `[c0, c1, c2, c3]` (ascending degree).
    /// Exposed so the SoA sign banks can adopt families drawn through the
    /// canonical [`FourWiseHash::random`] sequence without re-deriving it.
    #[inline]
    pub(crate) fn coeffs(&self) -> [u64; 4] {
        self.coeffs
    }

    /// Evaluates the underlying polynomial at `x`, in `[0, 2^61 − 1)`.
    #[inline]
    pub(crate) fn eval(&self, x: u64) -> u64 {
        // Division-free input reduction: the same shift-add Mersenne fold
        // used between Horner steps (bit-identical to `x % MERSENNE_P`,
        // see `mod_mersenne_matches_division_on_u64`).
        let x = mod_mersenne(x as u128);
        // Horner's rule: (((c3·x + c2)·x + c1)·x + c0).
        let mut acc = self.coeffs[3];
        for &c in [self.coeffs[2], self.coeffs[1], self.coeffs[0]].iter() {
            acc = mod_mersenne(acc as u128 * x as u128 + c as u128);
        }
        acc
    }

    /// The ±1 variable `ξ(x)`.
    #[inline]
    pub fn sign(&self, x: u64) -> i64 {
        if self.eval(x) & 1 == 0 {
            1
        } else {
            -1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mod_mersenne_small_values_identity() {
        for x in [0u128, 1, 2, 12345, (MERSENNE_P - 1) as u128] {
            assert_eq!(mod_mersenne(x), x as u64);
        }
        assert_eq!(mod_mersenne(MERSENNE_P as u128), 0);
        assert_eq!(mod_mersenne(MERSENNE_P as u128 + 5), 5);
    }

    /// Arbitrary `u128`s, not just products of residues: the doc promises
    /// every input, and a single fold leaves these far above `p`.
    #[test]
    fn mod_mersenne_matches_naive_on_products() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let (hi, lo): (u64, u64) = (rand::Rng::gen(&mut rng), rand::Rng::gen(&mut rng));
            let x = (hi as u128) << 64 | lo as u128;
            assert_eq!(mod_mersenne(x), (x % MERSENNE_P as u128) as u64, "x={x}");
        }
        let max = u128::MAX;
        assert_eq!(mod_mersenne(max), (max % MERSENNE_P as u128) as u64);
    }

    #[test]
    fn eval_matches_naive_polynomial() {
        let h = FourWiseHash::from_coeffs([3, 5, 7, 11]);
        let naive = |x: u128| -> u64 {
            let p = MERSENNE_P as u128;
            let x = x % p;
            ((11 * x % p * x % p * x % p + 7 * x % p * x % p + 5 * x % p + 3) % p) as u64
        };
        for x in [0u64, 1, 2, 99, 1_000_003, u64::MAX] {
            assert_eq!(h.eval(x), naive(x as u128), "x={x}");
        }
    }

    #[test]
    fn signs_are_plus_minus_one() {
        let mut rng = StdRng::seed_from_u64(1);
        let h = FourWiseHash::random(&mut rng);
        for x in 0..100u64 {
            let s = h.sign(x);
            assert!(s == 1 || s == -1);
        }
    }

    #[test]
    fn sign_is_deterministic_per_family() {
        let mut rng = StdRng::seed_from_u64(2);
        let h = FourWiseHash::random(&mut rng);
        let h2 = h.clone();
        for x in 0..50u64 {
            assert_eq!(h.sign(x), h2.sign(x));
        }
    }

    /// Empirical check of the two moment properties AGMS relies on:
    /// `E[ξ(x)] ≈ 0` and `E[ξ(x)·ξ(y)] ≈ 0` for `x ≠ y`, averaged over
    /// independently drawn families.
    #[test]
    fn signs_are_unbiased_and_pairwise_uncorrelated() {
        let mut rng = StdRng::seed_from_u64(42);
        let trials = 4000;
        let mut sum_single = 0i64;
        let mut sum_pair = 0i64;
        for _ in 0..trials {
            let h = FourWiseHash::random(&mut rng);
            sum_single += h.sign(17);
            sum_pair += h.sign(17) * h.sign(23);
        }
        let mean_single = sum_single as f64 / trials as f64;
        let mean_pair = sum_pair as f64 / trials as f64;
        // Standard error ~ 1/sqrt(4000) ≈ 0.016; allow 4 sigma.
        assert!(mean_single.abs() < 0.07, "E[xi] = {mean_single}");
        assert!(mean_pair.abs() < 0.07, "E[xi xi'] = {mean_pair}");
    }

    /// Fourth-moment sanity: for 4 distinct points the product of signs
    /// should also be mean-zero (this is where 2-wise constructions fail).
    #[test]
    fn four_point_products_are_unbiased() {
        let mut rng = StdRng::seed_from_u64(43);
        let trials = 4000;
        let mut sum = 0i64;
        for _ in 0..trials {
            let h = FourWiseHash::random(&mut rng);
            sum += h.sign(1) * h.sign(2) * h.sign(3) * h.sign(4);
        }
        let mean = sum as f64 / trials as f64;
        assert!(mean.abs() < 0.07, "E[4-product] = {mean}");
    }

    proptest! {
        #[test]
        fn eval_always_in_field(c0 in 0..u64::MAX, c1 in 0..u64::MAX,
                                c2 in 0..u64::MAX, c3 in 0..u64::MAX,
                                x in 0..u64::MAX) {
            let h = FourWiseHash::from_coeffs([c0, c1, c2, c3]);
            prop_assert!(h.eval(x) < MERSENNE_P);
        }

        /// The shift-add Mersenne fold and the hardware division agree on
        /// every `u64` input — the reduction `eval` now uses is exact.
        #[test]
        fn mod_mersenne_matches_division_on_u64(x in any::<u64>()) {
            prop_assert_eq!(mod_mersenne(x as u128), x % MERSENNE_P);
        }
    }

    #[test]
    fn mod_mersenne_matches_division_at_u64_edges() {
        for x in [
            0u64,
            1,
            MERSENNE_P - 1,
            MERSENNE_P,
            MERSENNE_P + 1,
            2 * MERSENNE_P,
            2 * MERSENNE_P + 1,
            u64::MAX - 1,
            u64::MAX,
        ] {
            assert_eq!(mod_mersenne(x as u128), x % MERSENNE_P, "x={x}");
        }
    }
}
