//! Time-bucketed collectors over the join-output stream.

use mstream_types::{VDur, VTime};
use serde::{Deserialize, Serialize};

/// Counts events per fixed-width virtual-time bucket (Figure 5's "number of
/// output tuples produced for every interval" series).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BucketSeries {
    bucket: VDur,
    counts: Vec<u64>,
}

impl BucketSeries {
    /// A series with the given bucket width.
    pub fn new(bucket: VDur) -> Self {
        assert!(!bucket.is_zero(), "bucket width must be positive");
        BucketSeries {
            bucket,
            counts: Vec::new(),
        }
    }

    /// Index of the bucket containing `t`.
    fn index(&self, t: VTime) -> usize {
        (t.as_micros() / self.bucket.as_micros()) as usize
    }

    /// Records `n` events at time `t`.
    pub fn add(&mut self, t: VTime, n: u64) {
        let idx = self.index(t);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += n;
    }

    /// Per-bucket counts (trailing empty buckets not materialized).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Sum over all buckets.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// `(bucket start seconds, count)` pairs.
    #[cfg(test)]
    pub(crate) fn points(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        let w = self.bucket.as_secs_f64();
        self.counts
            .iter()
            .enumerate()
            .map(move |(i, &c)| (i as f64 * w, c))
    }
}

/// Collects raw `f64` samples per fixed-width bucket: the exact reference
/// the tests hold [`crate::HistBuckets`] and its comparison to.
#[cfg(test)]
#[derive(Clone, Debug)]
pub(crate) struct ValueBuckets {
    bucket: VDur,
    values: Vec<Vec<f64>>,
}

#[cfg(test)]
impl ValueBuckets {
    /// A collector with the given bucket width.
    pub(crate) fn new(bucket: VDur) -> Self {
        assert!(!bucket.is_zero(), "bucket width must be positive");
        ValueBuckets {
            bucket,
            values: Vec::new(),
        }
    }

    /// Records sample `v` at time `t`.
    pub(crate) fn add(&mut self, t: VTime, v: f64) {
        let idx = (t.as_micros() / self.bucket.as_micros()) as usize;
        if idx >= self.values.len() {
            self.values.resize_with(idx + 1, Vec::new);
        }
        self.values[idx].push(v);
    }

    /// The samples of each bucket, in time order.
    pub(crate) fn buckets(&self) -> &[Vec<f64>] {
        &self.values
    }

    /// Number of buckets materialized.
    pub(crate) fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no samples were collected.
    pub(crate) fn is_empty(&self) -> bool {
        self.values.iter().all(Vec::is_empty)
    }

    /// Total sample count.
    pub(crate) fn total_samples(&self) -> usize {
        self.values.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_series_accumulates_by_interval() {
        let mut s = BucketSeries::new(VDur::from_secs(50));
        s.add(VTime::from_secs(0), 2);
        s.add(VTime::from_secs(49), 3);
        s.add(VTime::from_secs(50), 1);
        s.add(VTime::from_secs(170), 4);
        assert_eq!(s.counts(), &[5, 1, 0, 4]);
        assert_eq!(s.total(), 10);
    }

    #[test]
    fn bucket_series_points_report_start_times() {
        let mut s = BucketSeries::new(VDur::from_secs(10));
        s.add(VTime::from_secs(15), 7);
        let pts: Vec<_> = s.points().collect();
        assert_eq!(pts, vec![(0.0, 0), (10.0, 7)]);
    }

    #[test]
    fn value_buckets_group_samples() {
        let mut v = ValueBuckets::new(VDur::from_secs(10));
        v.add(VTime::from_secs(1), 1.0);
        v.add(VTime::from_secs(2), 2.0);
        v.add(VTime::from_secs(11), 9.0);
        assert_eq!(v.len(), 2);
        assert_eq!(v.buckets()[0], vec![1.0, 2.0]);
        assert_eq!(v.buckets()[1], vec![9.0]);
        assert_eq!(v.total_samples(), 3);
        assert!(!v.is_empty());
    }

    #[test]
    fn empty_collectors() {
        let s = BucketSeries::new(VDur::from_secs(1));
        assert_eq!(s.total(), 0);
        let v = ValueBuckets::new(VDur::from_secs(1));
        assert!(v.is_empty());
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn zero_bucket_rejected() {
        let _ = BucketSeries::new(VDur::ZERO);
    }
}
