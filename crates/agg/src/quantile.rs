//! Exact means and quantiles of small samples.

/// The arithmetic mean; `None` for an empty slice.
#[cfg(test)]
pub(crate) fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

/// The `q`-quantile (`0.0 ..= 1.0`) of `xs` by linear interpolation between
/// order statistics (the common "type 7" definition); `None` if empty.
///
/// # Panics
/// Panics if `q` is outside `[0, 1]` or any value is NaN.
pub(crate) fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// The three quartiles `(Q1, median, Q3)`; `None` if empty.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    Some([
        quantile(xs, 0.25)?,
        quantile(xs, 0.5)?,
        quantile(xs, 0.75)?,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[4.0]), Some(4.0));
        assert_eq!(mean(&[1.0, 2.0, 3.0]), Some(2.0));
    }

    #[test]
    fn quantile_endpoints_are_min_max() {
        let xs = [5.0, 1.0, 3.0];
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(5.0));
        assert_eq!(quantile(&xs, 0.5), Some(3.0));
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [0.0, 10.0];
        assert_eq!(quantile(&xs, 0.25), Some(2.5));
        assert_eq!(quantile(&xs, 0.75), Some(7.5));
    }

    #[test]
    fn quartiles_of_uniform_ladder() {
        let xs: Vec<f64> = (0..=100).map(|i| i as f64).collect();
        let [q1, q2, q3] = quartiles(&xs).unwrap();
        assert_eq!([q1, q2, q3], [25.0, 50.0, 75.0]);
    }

    #[test]
    fn empty_inputs_give_none() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    #[should_panic(expected = "in [0, 1]")]
    fn out_of_range_q_panics() {
        let _ = quantile(&[1.0], 1.5);
    }

    proptest! {
        #[test]
        fn quantile_is_monotone_in_q(mut xs in proptest::collection::vec(-100.0f64..100.0, 1..50),
                                     a in 0.0f64..1.0, b in 0.0f64..1.0) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let ql = quantile(&xs, lo).unwrap();
            let qh = quantile(&xs, hi).unwrap();
            prop_assert!(ql <= qh + 1e-9);
            // And bounded by the sample range.
            xs.sort_by(|x, y| x.partial_cmp(y).unwrap());
            prop_assert!(ql >= xs[0] - 1e-9 && qh <= xs[xs.len() - 1] + 1e-9);
        }

        #[test]
        fn mean_within_range(xs in proptest::collection::vec(-100.0f64..100.0, 1..50)) {
            let m = mean(&xs).unwrap();
            let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(m >= min - 1e-9 && m <= max + 1e-9);
        }
    }
}
