//! Per-relation atomic sketches.

use serde::{Deserialize, Serialize};

/// One atomic sketch `X_k` of one relation/window.
///
/// `X_k = Σ_{t ∈ R_k} Π_{j ∈ attrs(R_k) ∩ θ} ξ_{j, t[j]}` — each arriving
/// tuple contributes the product of its ±1 signs over the predicates
/// incident to its stream (Dobra et al. §3). The counter is an `i64`: an
/// epoch of `m` tuples bounds `|X_k| ≤ m`, so overflow is impossible for
/// any realistic epoch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AtomicSketch {
    value: i64,
    tuples: u64,
}

impl AtomicSketch {
    /// A zeroed sketch (the state at the start of every tumbling epoch).
    pub fn new() -> Self {
        AtomicSketch::default()
    }

    /// Adds one tuple whose incident-sign product is `sign_product` (±1).
    #[inline]
    pub fn add(&mut self, sign_product: i64) {
        debug_assert!(sign_product == 1 || sign_product == -1);
        self.value += sign_product;
        self.tuples += 1;
    }

    /// The current counter `X_k`.
    #[inline]
    pub fn value(&self) -> i64 {
        self.value
    }

    /// Resets to the zero state (epoch rollover).
    #[inline]
    pub fn reset(&mut self) {
        *self = AtomicSketch::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        let s = AtomicSketch::new();
        assert_eq!(s.value(), 0);
        assert_eq!(s.tuples, 0);
    }

    #[test]
    fn accumulates_signed_counts() {
        let mut s = AtomicSketch::new();
        s.add(1);
        s.add(1);
        s.add(-1);
        assert_eq!(s.value(), 1);
        assert_eq!(s.tuples, 3);
    }

    #[test]
    fn reset_clears_everything() {
        let mut s = AtomicSketch::new();
        s.add(-1);
        s.reset();
        assert_eq!(s, AtomicSketch::new());
    }

    #[test]
    #[should_panic(expected = "sign_product")]
    #[cfg(debug_assertions)]
    fn rejects_non_sign_inputs_in_debug() {
        AtomicSketch::new().add(2);
    }
}
