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
//! * one map per stream, keyed by the raw values of that stream's incident
//!   join attributes — exactly what the estimate depends on once the
//!   snapshot is frozen;
//! * every roll (any stream, either epoch discipline) clears every map in
//!   the same call, so no entry outlives the snapshot it was computed from
//!   and no key needs to name an epoch;
//! * only fully-frozen lookups are cacheable — any path that folds a
//!   *live* (still-accumulating) bank row is recomputed every time;
//! * a stream with more than [`MAX_CACHED_ATTRS`] incident attributes is
//!   scored uncached;
//! * the maps share one bound in the style of the packed-sign memo:
//!   hitting it drops every map (O(1) amortized; a Zipfian hot set
//!   repopulates immediately).
//!
//! The memo is on by default; [`TumblingSketches::set_score_cache`] turns
//! it off per instance (the audit harness A/B-compares cached and uncached
//! runs in one process).
//!
//! [`TumblingSketches::set_score_cache`]: crate::sketch::TumblingSketches::set_score_cache

use mstream_types::WordBuild;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Default bound on resident estimates, across every stream (matches the
/// packed-sign memo's order of magnitude: the hot key set of a skewed
/// workload fits easily, and a uniform workload cycles through wholesale
/// drops instead of growing without bound).
pub(crate) const DEFAULT_SCORE_CACHE_ENTRIES: usize = 8192;

/// Most incident join attributes a stream may have and still be cached.
pub(crate) const MAX_CACHED_ATTRS: usize = 2;

/// Exact key of one memoized estimate within its stream's map: the raw
/// values of the stream's incident join attributes in incidence order, a
/// one-attribute stream's second slot zero. No digest stands in for the
/// values, so distinct inputs never alias and a hit is bit-identical by
/// construction.
pub(crate) type ScoreValues = [u64; MAX_CACHED_ATTRS];

/// Aggregate counters of the epoch-scoped productivity memo.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct ScoreCacheStats {
    /// Cacheable lookups served from a memoized estimate.
    pub hits: u64,
    /// Cacheable lookups that had to run the estimation kernel.
    pub misses: u64,
    /// Estimates currently resident.
    pub entries: usize,
}

/// Bounded epoch-scoped memo of exact productivity estimates.
#[derive(Clone, Debug)]
pub(crate) struct ScoreCache {
    /// `maps[k]` = stream `k`'s estimates.
    maps: Vec<HashMap<ScoreValues, f64, WordBuild>>,
    /// Estimates resident across every map.
    len: usize,
    hits: u64,
    misses: u64,
    max_entries: usize,
    enabled: bool,
}

impl ScoreCache {
    /// An empty memo for `n_streams` streams holding at most `max_entries`
    /// estimates in all (at least 1).
    pub(crate) fn new(n_streams: usize, max_entries: usize, enabled: bool) -> Self {
        ScoreCache {
            maps: vec![HashMap::default(); n_streams],
            len: 0,
            hits: 0,
            misses: 0,
            max_entries: max_entries.max(1),
            enabled,
        }
    }

    /// Whether lookups are served at all.
    pub(crate) fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns memoization on or off; turning it off drops every resident
    /// entry (counters persist).
    pub(crate) fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
        if !enabled {
            self.clear();
        }
    }

    /// The memoized estimate of `stream` under `key`, counting a hit or a
    /// miss. A disabled cache returns `None` without counting.
    pub(crate) fn get(&mut self, stream: usize, key: &ScoreValues) -> Option<f64> {
        if !self.enabled {
            return None;
        }
        match self.maps[stream].get(key) {
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

    /// Memoizes `value` of `stream` under `key`. When the bound is hit
    /// every map is dropped first (generation-style eviction, like the
    /// sign memo).
    pub(crate) fn insert(&mut self, stream: usize, key: ScoreValues, value: f64) {
        if !self.enabled {
            return;
        }
        if self.len >= self.max_entries {
            self.clear();
        }
        if self.maps[stream].insert(key, value).is_none() {
            self.len += 1;
        }
    }

    /// Drops every memoized estimate (rollover invalidation); hit/miss
    /// counters persist.
    pub(crate) fn clear(&mut self) {
        self.maps.iter_mut().for_each(HashMap::clear);
        self.len = 0;
    }

    /// Structural audit: the resident count is the maps' total and
    /// respects the bound, and a disabled memo holds nothing.
    ///
    /// # Panics
    /// Panics on any violated invariant.
    #[cfg(any(test, feature = "audit"))]
    pub(crate) fn check_invariants(&self) {
        let resident: usize = self.maps.iter().map(HashMap::len).sum();
        assert_eq!(resident, self.len, "score cache miscounts its entries");
        assert!(
            self.len <= self.max_entries,
            "score cache over bound: {} > {}",
            self.len,
            self.max_entries
        );
        assert!(
            self.enabled || self.len == 0,
            "disabled score cache holds entries"
        );
    }

    /// Current counters.
    pub(crate) fn stats(&self) -> ScoreCacheStats {
        ScoreCacheStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_returns_exact_bits() {
        let mut c = ScoreCache::new(1, 8, true);
        let v = -0.0f64; // sign-sensitive: bit-identity must preserve it
        assert_eq!(c.get(0, &[7, 0]), None);
        c.insert(0, [7, 0], v);
        let got = c.get(0, &[7, 0]).expect("memoized");
        assert_eq!(got.to_bits(), v.to_bits());
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn streams_do_not_alias() {
        let mut c = ScoreCache::new(2, 8, true);
        c.insert(0, [7, 0], 1.0);
        c.insert(1, [7, 0], 2.0);
        assert_eq!(c.get(0, &[7, 0]), Some(1.0));
        assert_eq!(c.get(1, &[7, 0]), Some(2.0));
        assert_eq!(c.get(1, &[7, 1]), None);
    }

    #[test]
    fn bound_drops_wholesale() {
        // One bound across the streams' maps.
        let mut c = ScoreCache::new(2, 2, true);
        c.insert(0, [1, 0], 1.0);
        c.insert(1, [2, 0], 2.0);
        assert_eq!(c.stats().entries, 2);
        // Third insert hits the bound: every map is dropped, then
        // repopulated with just the new entry.
        c.insert(0, [3, 0], 3.0);
        assert_eq!(c.stats().entries, 1);
        c.check_invariants();
        assert_eq!(c.get(0, &[3, 0]), Some(3.0));
        assert_eq!(c.get(0, &[1, 0]), None);
        assert_eq!(c.get(1, &[2, 0]), None);
    }

    #[test]
    fn disabled_cache_is_inert() {
        let mut c = ScoreCache::new(1, 8, false);
        c.insert(0, [7, 0], 1.0);
        assert_eq!(c.get(0, &[7, 0]), None);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 0, 0));
    }

    #[test]
    fn disabling_drops_entries() {
        let mut c = ScoreCache::new(1, 8, true);
        c.insert(0, [7, 0], 1.0);
        c.set_enabled(false);
        c.set_enabled(true);
        assert_eq!(c.get(0, &[7, 0]), None, "re-enabling starts cold");
        c.check_invariants();
    }
}
