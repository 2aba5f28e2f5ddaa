//! Epoch-scoped memo of productivity estimates.
//!
//! Within one tumbling epoch a productivity estimate is a pure function of
//! `(stream, incident join-attribute values, frozen snapshot)` — the
//! arriving tuple contributes only its packed signs, and every partner row
//! is a frozen epoch snapshot that does not change between rollovers. On
//! skewed traffic most estimates therefore recompute a value already
//! produced this epoch. This module memoizes the **exact `f64` the kernel
//! returned** under an exact (collision-free) key, so a cache hit is
//! bit-identical to recomputation by construction.
//!
//! Keying and invalidation contract (DESIGN.md §16):
//!
//! * keys carry an **epoch generation** — bumped on every roll (any
//!   stream, either epoch discipline) — so an entry can never outlive the
//!   snapshot it was computed from;
//! * every lookup keys at the current generation: no tuple is ever scored
//!   against an older snapshot;
//! * only fully-frozen lookups are cacheable — any path that folds a
//!   *live* (still-accumulating) bank row is recomputed every time;
//! * the table is bounded in the style of the packed-sign memo: hitting
//!   the bound drops the whole map (O(1) amortized; a Zipfian hot set
//!   repopulates immediately), and every rollover clears it wholesale.
//!
//! The memo is on by default; [`TumblingSketches::set_score_cache`] turns
//! it off per instance (the audit harness A/B-compares cached and uncached
//! runs in one process).
//!
//! [`TumblingSketches::set_score_cache`]: crate::TumblingSketches::set_score_cache

use mstream_types::WordBuild;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Default bound on resident estimates (matches the packed-sign memo's
/// order of magnitude: the hot key set of a skewed workload fits easily,
/// and a uniform workload cycles through wholesale drops instead of
/// growing without bound).
pub const DEFAULT_SCORE_CACHE_ENTRIES: usize = 8192;

/// Most incident join attributes a stream may have and still be cached
/// (the key inlines the values; streams beyond this skip the memo).
pub const MAX_CACHED_ATTRS: usize = 4;

/// Exact lookup key of one memoized estimate. No hashing of the values
/// into a digest — the raw attribute values are the key, so distinct
/// inputs can never alias and a hit is bit-identical by construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ScoreKey {
    /// Epoch generation the frozen snapshot belongs to.
    pub generation: u64,
    /// Arriving tuple's stream.
    pub stream: u32,
    /// Raw values of the stream's incident join attributes, in incidence
    /// order; slots past `n_values` are zero-padded.
    pub values: [u64; MAX_CACHED_ATTRS],
    /// How many of `values` are meaningful.
    pub n_values: u8,
}

/// Aggregate counters of a [`ScoreCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScoreCacheStats {
    /// Cacheable lookups served from a memoized estimate.
    pub hits: u64,
    /// Cacheable lookups that had to run the estimation kernel.
    pub misses: u64,
    /// Estimates currently resident.
    pub entries: usize,
}

/// Bounded epoch-scoped memo of exact productivity estimates.
#[derive(Clone, Debug)]
pub struct ScoreCache {
    map: HashMap<ScoreKey, f64, WordBuild>,
    hits: u64,
    misses: u64,
    max_entries: usize,
    enabled: bool,
}

impl Default for ScoreCache {
    fn default() -> Self {
        ScoreCache::with_capacity_bound(DEFAULT_SCORE_CACHE_ENTRIES, true)
    }
}

impl ScoreCache {
    /// An empty cache holding at most `max_entries` estimates (at least 1).
    pub fn with_capacity_bound(max_entries: usize, enabled: bool) -> Self {
        ScoreCache {
            map: HashMap::default(),
            hits: 0,
            misses: 0,
            max_entries: max_entries.max(1),
            enabled,
        }
    }

    /// Whether lookups are served at all.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns memoization on or off; turning it off drops every resident
    /// entry (counters persist).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
        if !enabled {
            self.map.clear();
        }
    }

    /// The memoized estimate under `key`, counting a hit or a miss. A
    /// disabled cache returns `None` without counting.
    pub fn get(&mut self, key: &ScoreKey) -> Option<f64> {
        if !self.enabled {
            return None;
        }
        match self.map.get(key) {
            Some(&v) => {
                self.hits += 1;
                Some(v)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Memoizes `value` under `key`. When the bound is hit the whole map
    /// is dropped first (generation-style eviction, like the sign memo).
    pub fn insert(&mut self, key: ScoreKey, value: f64) {
        if !self.enabled {
            return;
        }
        if self.map.len() >= self.max_entries {
            self.map.clear();
        }
        self.map.insert(key, value);
    }

    /// Drops every memoized estimate (rollover invalidation); hit/miss
    /// counters persist.
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Structural audit: occupancy respects the bound, and every resident
    /// entry was keyed at the current generation — rollover invalidation
    /// can never leave an older estimate behind.
    ///
    /// # Panics
    /// Panics on any violated invariant.
    #[cfg(any(test, feature = "audit"))]
    pub fn check_invariants(&self, current_generation: u64) {
        assert!(
            self.map.len() <= self.max_entries,
            "score cache over bound: {} > {}",
            self.map.len(),
            self.max_entries
        );
        assert!(
            self.enabled || self.map.is_empty(),
            "disabled score cache holds entries"
        );
        for key in self.map.keys() {
            assert_eq!(
                key.generation, current_generation,
                "stale score-cache entry: generation {} at roll {}",
                key.generation, current_generation
            );
        }
    }

    /// Current counters.
    pub fn stats(&self) -> ScoreCacheStats {
        ScoreCacheStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.map.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(generation: u64, v: u64) -> ScoreKey {
        ScoreKey {
            generation,
            stream: 0,
            values: [v, 0, 0, 0],
            n_values: 1,
        }
    }

    #[test]
    fn hit_returns_exact_bits() {
        let mut c = ScoreCache::with_capacity_bound(8, true);
        let v = -0.0f64; // sign-sensitive: bit-identity must preserve it
        assert_eq!(c.get(&key(1, 7)), None);
        c.insert(key(1, 7), v);
        let got = c.get(&key(1, 7)).expect("memoized");
        assert_eq!(got.to_bits(), v.to_bits());
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn generations_do_not_alias() {
        let mut c = ScoreCache::with_capacity_bound(8, true);
        c.insert(key(1, 7), 1.0);
        c.insert(key(2, 7), 2.0);
        assert_eq!(c.get(&key(1, 7)), Some(1.0));
        assert_eq!(c.get(&key(2, 7)), Some(2.0));
    }

    #[test]
    #[should_panic(expected = "stale score-cache entry")]
    fn an_entry_one_generation_behind_is_stale() {
        let mut c = ScoreCache::with_capacity_bound(8, true);
        c.insert(key(1, 7), 1.0);
        c.check_invariants(2);
    }

    #[test]
    fn bound_drops_wholesale() {
        let mut c = ScoreCache::with_capacity_bound(2, true);
        c.insert(key(1, 1), 1.0);
        c.insert(key(1, 2), 2.0);
        assert_eq!(c.stats().entries, 2);
        // Third insert hits the bound: the map is dropped, then repopulated
        // with just the new entry.
        c.insert(key(1, 3), 3.0);
        assert_eq!(c.stats().entries, 1);
        assert_eq!(c.get(&key(1, 3)), Some(3.0));
        assert_eq!(c.get(&key(1, 1)), None);
    }

    #[test]
    fn disabled_cache_is_inert() {
        let mut c = ScoreCache::with_capacity_bound(8, false);
        c.insert(key(1, 7), 1.0);
        assert_eq!(c.get(&key(1, 7)), None);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 0, 0));
    }

    #[test]
    fn disabling_drops_entries() {
        let mut c = ScoreCache::with_capacity_bound(8, true);
        c.insert(key(1, 7), 1.0);
        c.set_enabled(false);
        c.set_enabled(true);
        assert_eq!(c.get(&key(1, 7)), None, "re-enabling starts cold");
    }
}
