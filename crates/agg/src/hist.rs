//! Histogram-based per-bucket collectors.
//!
//! The join-output streams under comparison can reach 10⁸–10⁹ result tuples
//! per run; materializing every aggregate-attribute value (as
//! [`crate::ValueBuckets`] does) would need gigabytes. The attributes the
//! paper aggregates over are small discrete domains, so a per-bucket
//! *histogram* loses nothing: means and quantiles are exact, and memory is
//! `O(buckets × distinct values)`.

use mstream_types::{VDur, VTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// An exact histogram over `u64` sample values.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Hist {
    counts: BTreeMap<u64, u64>,
    n: u64,
}

impl Hist {
    /// An empty histogram.
    pub fn new() -> Self {
        Hist::default()
    }

    /// Records one occurrence of `v`.
    #[inline]
    pub fn add(&mut self, v: u64) {
        *self.counts.entry(v).or_insert(0) += 1;
        self.n += 1;
    }

    /// Number of recorded samples.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The exact mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.n == 0 {
            return None;
        }
        let sum: f64 = self.counts.iter().map(|(&v, &c)| v as f64 * c as f64).sum();
        Some(sum / self.n as f64)
    }

    /// The `q`-quantile by linear interpolation between order statistics
    /// (same "type 7" convention as [`crate::quartiles`]), or `None` if
    /// empty.
    ///
    /// # Panics
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.n == 0 {
            return None;
        }
        let pos = q * (self.n - 1) as f64;
        let lo_rank = pos.floor() as u64;
        let hi_rank = pos.ceil() as u64;
        let frac = pos - lo_rank as f64;
        let lo = self.value_at_rank(lo_rank) as f64;
        let hi = self.value_at_rank(hi_rank) as f64;
        Some(lo * (1.0 - frac) + hi * frac)
    }

    /// The three quartiles `(Q1, median, Q3)`, or `None` if empty.
    pub fn quartiles(&self) -> Option<[f64; 3]> {
        Some([
            self.quantile(0.25)?,
            self.quantile(0.5)?,
            self.quantile(0.75)?,
        ])
    }

    /// The value of the 0-indexed order statistic `rank`.
    fn value_at_rank(&self, rank: u64) -> u64 {
        debug_assert!(rank < self.n);
        let mut seen = 0;
        for (&v, &c) in &self.counts {
            seen += c;
            if seen > rank {
                return v;
            }
        }
        unreachable!("rank below total count")
    }

    /// Iterates over `(value, count)` pairs in ascending value order.
    #[cfg(test)]
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts.iter().map(|(&v, &c)| (v, c))
    }
}

/// Per-time-bucket histograms of an output-attribute stream.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HistBuckets {
    bucket: VDur,
    hists: Vec<Hist>,
}

impl HistBuckets {
    /// A collector with the given bucket width.
    pub fn new(bucket: VDur) -> Self {
        assert!(!bucket.is_zero(), "bucket width must be positive");
        HistBuckets {
            bucket,
            hists: Vec::new(),
        }
    }

    /// Records sample `v` at time `t`.
    #[inline]
    pub fn add(&mut self, t: VTime, v: u64) {
        let idx = (t.as_micros() / self.bucket.as_micros()) as usize;
        if idx >= self.hists.len() {
            self.hists.resize_with(idx + 1, Hist::new);
        }
        self.hists[idx].add(v);
    }

    /// The per-bucket histograms, in time order.
    pub fn buckets(&self) -> &[Hist] {
        &self.hists
    }

    /// Total samples recorded.
    pub fn total_samples(&self) -> u64 {
        self.hists.iter().map(Hist::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mean_and_len() {
        let mut h = Hist::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), None);
        for v in [2u64, 4, 4, 6] {
            h.add(v);
        }
        assert_eq!(h.len(), 4);
        assert_eq!(h.mean(), Some(4.0));
    }

    #[test]
    fn quantiles_match_sorted_vector_semantics() {
        let mut h = Hist::new();
        for v in [5u64, 1, 3, 3, 9] {
            h.add(v);
        }
        // Sorted: [1, 3, 3, 5, 9].
        assert_eq!(h.quantile(0.0), Some(1.0));
        assert_eq!(h.quantile(0.5), Some(3.0));
        assert_eq!(h.quantile(1.0), Some(9.0));
        assert_eq!(h.quantile(0.25), Some(3.0));
        // 0.75 -> pos 3.0 -> exactly 5.
        assert_eq!(h.quantile(0.75), Some(5.0));
    }

    #[test]
    fn quartiles_of_ladder() {
        let mut h = Hist::new();
        for v in 0..=100u64 {
            h.add(v);
        }
        assert_eq!(h.quartiles(), Some([25.0, 50.0, 75.0]));
    }

    #[test]
    fn bucketing_by_time() {
        let mut hb = HistBuckets::new(VDur::from_secs(10));
        hb.add(VTime::from_secs(1), 5);
        hb.add(VTime::from_secs(9), 7);
        hb.add(VTime::from_secs(25), 1);
        assert_eq!(hb.buckets().len(), 3);
        assert_eq!(hb.buckets()[0].len(), 2);
        assert!(hb.buckets()[1].is_empty());
        assert_eq!(hb.buckets()[2].mean(), Some(1.0));
        assert_eq!(hb.total_samples(), 3);
    }

    #[test]
    fn iter_ascending() {
        let mut h = Hist::new();
        for v in [9u64, 1, 9, 4] {
            h.add(v);
        }
        let pairs: Vec<_> = h.iter().collect();
        assert_eq!(pairs, vec![(1, 1), (4, 1), (9, 2)]);
    }

    proptest! {
        /// Histogram quantiles agree exactly with sorted-vector quantiles.
        #[test]
        fn agrees_with_vector_quantile(vs in proptest::collection::vec(0u64..20, 1..200),
                                       q in 0.0f64..1.0) {
            let mut h = Hist::new();
            let mut xs: Vec<f64> = Vec::new();
            for &v in &vs {
                h.add(v);
                xs.push(v as f64);
            }
            let expected = crate::quantile::quantile(&xs, q).unwrap();
            let got = h.quantile(q).unwrap();
            prop_assert!((got - expected).abs() < 1e-9, "{got} vs {expected}");
            let hm = h.mean().unwrap();
            let vm = crate::quantile::mean(&xs).unwrap();
            prop_assert!((hm - vm).abs() < 1e-9);
        }
    }
}
