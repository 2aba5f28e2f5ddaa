//! Accuracy metrics comparing approximate against exact join output.

use crate::hist::HistBuckets;
#[cfg(test)]
use crate::quantile::{mean, quantile};
#[cfg(test)]
use crate::series::ValueBuckets;

/// `|truth − estimate| / |truth|`; defined as 0 when both are 0 and 1 when
/// only the truth is 0 (the estimate invented mass out of nothing).
pub fn relative_error(truth: f64, estimate: f64) -> f64 {
    if truth == 0.0 {
        if estimate == 0.0 {
            0.0
        } else {
            1.0
        }
    } else {
        (truth - estimate).abs() / truth.abs()
    }
}

/// Mean absolute difference between the `qs`-quantiles of two samples
/// (the paper's "average quantile differences", Figure 7(b), with
/// `qs = [0.25, 0.5, 0.75]`). `None` if either sample is empty.
#[cfg(test)]
pub(crate) fn avg_quantile_diff(truth: &[f64], sample: &[f64], qs: &[f64]) -> Option<f64> {
    if truth.is_empty() || sample.is_empty() || qs.is_empty() {
        return None;
    }
    let sum: f64 = qs
        .iter()
        .map(|&q| (quantile(truth, q).unwrap() - quantile(sample, q).unwrap()).abs())
        .sum();
    Some(sum / qs.len() as f64)
}

/// Bucket-by-bucket comparison of two [`HistBuckets`] streams: the exact
/// join's output values vs a shed join's. Produces the two numbers Figure 7
/// plots per memory setting: the average relative error of the windowed
/// AVG, and the average quartile difference.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SeriesComparison {
    /// Mean over buckets of `relative_error(avg_true, avg_sample)`.
    pub avg_relative_error: f64,
    /// Mean over buckets of the average quartile difference.
    pub avg_quantile_difference: f64,
    /// Buckets in which both sides had samples (the denominator).
    pub compared_buckets: usize,
    /// Buckets where the exact join produced output but the shed join
    /// produced none (counted as full error, 1.0, in `avg_relative_error`).
    pub starved_buckets: usize,
}

impl SeriesComparison {
    /// Compares two histogram streams bucket-by-bucket using quartiles —
    /// the memory-bounded path used for full-scale runs (result streams of
    /// 10^8+ tuples).
    pub fn from_hists(truth: &HistBuckets, sample: &HistBuckets) -> SeriesComparison {
        let mut err_sum = 0.0;
        let mut qd_sum = 0.0;
        let mut compared = 0usize;
        let mut starved = 0usize;
        let empty = crate::hist::Hist::new();
        for (i, t_bucket) in truth.buckets().iter().enumerate() {
            if t_bucket.is_empty() {
                continue;
            }
            let s_bucket = sample.buckets().get(i).unwrap_or(&empty);
            if s_bucket.is_empty() {
                starved += 1;
                err_sum += 1.0;
                qd_sum += t_bucket.quantile(0.5).expect("non-empty").abs();
                compared += 1;
                continue;
            }
            err_sum += relative_error(
                t_bucket.mean().expect("non-empty"),
                s_bucket.mean().expect("non-empty"),
            );
            let tq = t_bucket.quartiles().expect("non-empty");
            let sq = s_bucket.quartiles().expect("non-empty");
            qd_sum += tq
                .iter()
                .zip(&sq)
                .map(|(a, b)| (a - b).abs())
                .sum::<f64>()
                / 3.0;
            compared += 1;
        }
        if compared == 0 {
            return SeriesComparison::default();
        }
        SeriesComparison {
            avg_relative_error: err_sum / compared as f64,
            avg_quantile_difference: qd_sum / compared as f64,
            compared_buckets: compared,
            starved_buckets: starved,
        }
    }

    /// Compares `truth` and `sample` bucket-by-bucket using quartiles.
    #[cfg(test)]
    pub(crate) fn compute(truth: &ValueBuckets, sample: &ValueBuckets) -> SeriesComparison {
        const QS: [f64; 3] = [0.25, 0.5, 0.75];
        let mut err_sum = 0.0;
        let mut qd_sum = 0.0;
        let mut compared = 0usize;
        let mut starved = 0usize;
        let empty: Vec<f64> = Vec::new();
        for (i, t_bucket) in truth.buckets().iter().enumerate() {
            if t_bucket.is_empty() {
                continue; // nothing to estimate in this window
            }
            let s_bucket = sample.buckets().get(i).unwrap_or(&empty);
            if s_bucket.is_empty() {
                // The shed join produced nothing this window: count the
                // window as fully wrong rather than silently skipping it
                // (skipping would reward policies that starve windows).
                starved += 1;
                err_sum += 1.0;
                let t_med = quantile(t_bucket, 0.5).unwrap();
                qd_sum += t_med.abs();
                compared += 1;
                continue;
            }
            let t_avg = mean(t_bucket).unwrap();
            let s_avg = mean(s_bucket).unwrap();
            err_sum += relative_error(t_avg, s_avg);
            qd_sum += avg_quantile_diff(t_bucket, s_bucket, &QS).unwrap();
            compared += 1;
        }
        if compared == 0 {
            return SeriesComparison::default();
        }
        SeriesComparison {
            avg_relative_error: err_sum / compared as f64,
            avg_quantile_difference: qd_sum / compared as f64,
            compared_buckets: compared,
            starved_buckets: starved,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mstream_types::{VDur, VTime};

    #[test]
    fn relative_error_cases() {
        assert_eq!(relative_error(10.0, 10.0), 0.0);
        assert_eq!(relative_error(10.0, 5.0), 0.5);
        assert_eq!(relative_error(10.0, 15.0), 0.5);
        assert_eq!(relative_error(0.0, 0.0), 0.0);
        assert_eq!(relative_error(0.0, 3.0), 1.0);
        assert_eq!(relative_error(-10.0, -5.0), 0.5);
    }

    #[test]
    fn quantile_diff_identical_samples_is_zero() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(avg_quantile_diff(&xs, &xs, &[0.25, 0.5, 0.75]), Some(0.0));
    }

    #[test]
    fn quantile_diff_detects_shifted_distribution() {
        let a: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..100).map(|i| i as f64 + 10.0).collect();
        let d = avg_quantile_diff(&a, &b, &[0.25, 0.5, 0.75]).unwrap();
        assert!((d - 10.0).abs() < 1e-9);
    }

    #[test]
    fn quantile_diff_empty_is_none() {
        assert_eq!(avg_quantile_diff(&[], &[1.0], &[0.5]), None);
        assert_eq!(avg_quantile_diff(&[1.0], &[], &[0.5]), None);
    }

    fn buckets(samples: &[(u64, f64)]) -> ValueBuckets {
        let mut v = ValueBuckets::new(VDur::from_secs(10));
        for &(t, x) in samples {
            v.add(VTime::from_secs(t), x);
        }
        v
    }

    #[test]
    fn comparison_of_identical_streams_is_perfect() {
        let t = buckets(&[(1, 5.0), (2, 7.0), (15, 1.0)]);
        let c = SeriesComparison::compute(&t, &t.clone());
        assert_eq!(c.avg_relative_error, 0.0);
        assert_eq!(c.avg_quantile_difference, 0.0);
        assert_eq!(c.compared_buckets, 2);
        assert_eq!(c.starved_buckets, 0);
    }

    #[test]
    fn starved_buckets_count_as_full_error() {
        let truth = buckets(&[(1, 4.0), (15, 8.0)]);
        let sample = buckets(&[(1, 4.0)]); // second window produced nothing
        let c = SeriesComparison::compute(&truth, &sample);
        assert_eq!(c.compared_buckets, 2);
        assert_eq!(c.starved_buckets, 1);
        assert_eq!(c.avg_relative_error, 0.5, "(0 + 1)/2");
    }

    #[test]
    fn biased_sample_scores_worse_than_fair_sample() {
        // Truth: values 1..=100 in one window. Fair sample: every 2nd
        // value. Biased sample: only the top decile.
        let truth = buckets(&(1..=100).map(|i| (1u64, i as f64)).collect::<Vec<_>>());
        let fair = buckets(&(1..=50).map(|i| (1u64, (2 * i) as f64)).collect::<Vec<_>>());
        let biased = buckets(&(91..=100).map(|i| (1u64, i as f64)).collect::<Vec<_>>());
        let c_fair = SeriesComparison::compute(&truth, &fair);
        let c_biased = SeriesComparison::compute(&truth, &biased);
        assert!(c_fair.avg_relative_error < c_biased.avg_relative_error);
        assert!(c_fair.avg_quantile_difference < c_biased.avg_quantile_difference);
    }

    #[test]
    fn hist_comparison_matches_vector_comparison() {
        use mstream_types::VDur as D;
        let samples_t = [(1u64, 4u64), (1, 6), (15, 2), (15, 8), (15, 8)];
        let samples_s = [(1u64, 4u64), (15, 8)];
        let mut vt = ValueBuckets::new(D::from_secs(10));
        let mut vs = ValueBuckets::new(D::from_secs(10));
        let mut ht = HistBuckets::new(D::from_secs(10));
        let mut hs = HistBuckets::new(D::from_secs(10));
        for &(t, x) in &samples_t {
            vt.add(VTime::from_secs(t), x as f64);
            ht.add(VTime::from_secs(t), x);
        }
        for &(t, x) in &samples_s {
            vs.add(VTime::from_secs(t), x as f64);
            hs.add(VTime::from_secs(t), x);
        }
        let a = SeriesComparison::compute(&vt, &vs);
        let b = SeriesComparison::from_hists(&ht, &hs);
        assert!((a.avg_relative_error - b.avg_relative_error).abs() < 1e-9);
        assert!((a.avg_quantile_difference - b.avg_quantile_difference).abs() < 1e-9);
        assert_eq!(a.compared_buckets, b.compared_buckets);
    }

    #[test]
    fn empty_truth_compares_to_default() {
        let t = ValueBuckets::new(VDur::from_secs(10));
        let s = ValueBuckets::new(VDur::from_secs(10));
        assert_eq!(SeriesComparison::compute(&t, &s), SeriesComparison::default());
    }
}
