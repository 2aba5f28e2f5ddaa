//! Order statistics the harness reports: medians, the least-disturbed
//! reading of a pass (lap by lap, and whole) and of a set-up, the highest
//! percentile a sample supports, and the quartiles the benchmark's
//! acceptance check uses.

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// Percentiles the harness may name, highest first.
const LADDER: [(&str, f64); 5] = [
    ("p99", 0.99),
    ("p95", 0.95),
    ("p90", 0.90),
    ("p75", 0.75),
    ("p50", 0.50),
];

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metrics are finite"));
    v
}

/// Median of `values` (mean of the two middle values for even counts).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The value at quantile `q` of an ascending-sorted sample of whole
/// nanoseconds: the nearest-rank sample, plus how far into its run of
/// equal samples the rank lies. A clock tick `v` stands for the bin
/// `[v, v + 1)`, so this is the grouped-data quantile; where half the
/// calls of a workload take the same 67 ns it still moves when the
/// distribution does, and where samples are distinct it is the
/// nearest-rank sample itself.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    let at = rank.clamp(1, sorted.len()) - 1;
    let v = sorted[at];
    let first = sorted.partition_point(|&x| x < v);
    let past = sorted.partition_point(|&x| x <= v);
    v as f64 + (at - first) as f64 / (past - first) as f64
}

/// The highest percentile of [`LADDER`] with at least [`TAIL_SAMPLES`]
/// samples beyond it in a sample of `n`, as `(name, quantile)`. `p99`
/// needs `n >= 1000`; tiny samples fall back as far as the median.
pub fn highest_supported_percentile(n: usize) -> (&'static str, f64) {
    for (name, q) in LADDER {
        let beyond = n - ((n as f64) * q).ceil() as usize;
        if beyond >= TAIL_SAMPLES {
            return (name, q);
        }
    }
    LADDER[LADDER.len() - 1]
}

/// The highest of the per-pass throughputs and the run's own spread
/// around it: how far the third quartile lies below it, as a share of it.
///
/// Every pass of a run does the same work (the rows are checked to be
/// identical), and what the machine adds — a noisy neighbour for a few
/// seconds, worker threads placed on one core — only ever slows a pass.
/// The fastest pass is therefore the least-disturbed whole pass, and it is
/// well supported when a quarter of the passes come close to it.
pub fn fastest_and_spread(per_s: &[f64]) -> (f64, f64) {
    let v = sorted(per_s);
    let fastest = v[v.len() - 1];
    let [_, _, q3] = quartiles(per_s);
    (fastest, (fastest - q3).abs() / fastest.abs())
}

/// The sample a tenth of the way in from the low end (the lowest of fewer
/// than ten) and the run's own spread around it, as in
/// [`fastest_and_spread`]:
/// how far the first quartile lies above it, as a share of it.
///
/// For `setup_s`, where the floor is not sharp: now and then a round's
/// thread spawns all land well (`keyed_sharded`: one round in thirty reads
/// 95–105 µs where the rest start at 125 µs), and the lowest round follows
/// those. Over ten seeds the lowest round spread by 22–26% of its median
/// there, this by 13–17%, the rounds' median by 18–24%.
pub fn low_decile_and_spread(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let low = v[v.len() / 10];
    let [q1, _, _] = quartiles(values);
    (low, (q1 - low).abs() / low.abs())
}

/// The time one pass takes when nothing disturbs it, from the lap times of
/// several passes over the same trace: every lap at the fastest it ran in
/// any pass, summed.
///
/// Lap `l` does the same work in every pass, and the machine only ever adds
/// to it — the virtual CPU is taken away for some milliseconds, and the
/// caches are cold when it returns — so the fastest reading of a lap is the
/// closest to that work's own time. A whole pass is hit somewhere every
/// time when the machine is busy; a 256-arrival lap runs clean in one pass
/// or another. With one lap per pass this is the fastest pass.
///
/// # Panics
/// Panics without passes, or when passes differ in their lap count.
pub fn undisturbed_ns(lap_ns: &[&[u64]]) -> u64 {
    let laps = lap_ns.first().expect("at least one pass").len();
    assert!(
        lap_ns.iter().all(|p| p.len() == laps),
        "passes over one trace have the same laps"
    );
    (0..laps)
        .map(|l| {
            lap_ns
                .iter()
                .map(|p| p[l])
                .min()
                .expect("at least one pass")
        })
        .sum()
}

/// `(max − min) ÷ median`: how far apart the timed passes of one run lie.
pub fn spread(values: &[f64]) -> f64 {
    let v = sorted(values);
    (v[v.len() - 1] - v[0]) / median(values)
}

/// The quartiles Python's `statistics.quantiles(values, n=4)` returns
/// (its default "exclusive" method), so `aa.sh` judges a spread exactly
/// as the benchmark's acceptance check does.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need two samples");
    let at = |i: usize| {
        // Position i·(n+1)/4 on a 1-based scale; the index is clamped to
        // the sample but the offset is not, so tiny samples extrapolate
        // exactly as Python does.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + delta * (v[j] - v[j - 1])
    };
    [at(1), at(2), at(3)]
}

/// Distance between the first and third quartile as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples leave exactly 10 beyond the 99th percentile.
        assert_eq!(highest_supported_percentile(1000).0, "p99");
        assert_eq!(highest_supported_percentile(30_000).0, "p99");
        // 999 leave 9: the name must step down, not overstate the tail.
        assert_eq!(highest_supported_percentile(999).0, "p95");
        assert_eq!(highest_supported_percentile(200).0, "p95");
        assert_eq!(highest_supported_percentile(199).0, "p90");
        assert_eq!(highest_supported_percentile(100).0, "p90");
        assert_eq!(highest_supported_percentile(99).0, "p75");
        assert_eq!(highest_supported_percentile(40).0, "p75");
        assert_eq!(highest_supported_percentile(39).0, "p50");
        assert_eq!(highest_supported_percentile(3).0, "p50");
    }

    #[test]
    fn quantile_is_nearest_rank_interpolated_within_ties() {
        let s: Vec<u64> = (1..=1000).collect();
        assert_eq!(quantile_sorted(&s, 0.99), 990.0);
        assert_eq!(quantile_sorted(&s, 0.5), 500.0);
        assert_eq!(quantile_sorted(&s, 1.0), 1000.0);
        assert_eq!(quantile_sorted(&[5], 0.99), 5.0);
        // Eight samples in the 67 ns bin, the median rank on the sixth of
        // them (rank 7 of 10, after one smaller sample).
        let ties = [60, 67, 67, 67, 67, 67, 67, 67, 67, 90];
        assert_eq!(quantile_sorted(&ties, 0.7), 67.0 + 5.0 / 8.0);
        // More slow calls push the same quantile up inside the bin.
        let slower = [67, 67, 67, 67, 67, 67, 67, 67, 90, 90];
        assert!(quantile_sorted(&slower, 0.7) > quantile_sorted(&ties, 0.7));
    }

    #[test]
    fn fastest_pass_and_its_support() {
        // Q3 = 102.5 lies 6.8% below the fastest pass.
        let per_s = [100.0, 80.0, 110.0, 90.0, 70.0, 99.0];
        let (fastest, spread) = fastest_and_spread(&per_s);
        assert_eq!(fastest, 110.0);
        assert!((spread - (110.0 - 102.5) / 110.0).abs() < 1e-12, "{spread}");
        // Identical passes have no spread.
        assert_eq!(fastest_and_spread(&[2.0, 2.0, 2.0]), (2.0, 0.0));
    }

    #[test]
    fn low_decile_skips_a_lucky_tenth() {
        // Twenty rounds: two lucky ones, then the floor.
        let mut rounds = vec![0.8, 0.9];
        rounds.extend([1.0; 8]);
        rounds.extend([1.1; 10]);
        let (low, spread) = low_decile_and_spread(&rounds);
        assert_eq!(low, 1.0);
        assert_eq!(spread, 0.0);
        // Fewer than ten samples: the lowest.
        assert_eq!(low_decile_and_spread(&[3.0, 2.0, 4.0, 5.0, 6.0]).0, 2.0);
    }

    #[test]
    fn undisturbed_time_takes_each_lap_at_its_fastest() {
        // Pass 0 was disturbed in lap 1, pass 1 in lap 0 and lap 2.
        let passes: [&[u64]; 2] = [&[10, 90, 30], &[50, 20, 35]];
        assert_eq!(undisturbed_ns(&passes), 10 + 20 + 30);
        // One lap per pass: the fastest pass.
        assert_eq!(undisturbed_ns(&[&[130], &[105], &[110]]), 105);
        assert_eq!(undisturbed_ns(&[&[7, 8]]), 15);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        assert_eq!(
            quartiles(&[50.0, 10.0, 30.0, 20.0, 40.0]),
            [15.0, 30.0, 45.0]
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn spread_is_range_over_median() {
        assert_eq!(spread(&[1.0, 2.0, 3.0]), 1.0);
        assert_eq!(spread(&[2.0, 2.0]), 0.0);
    }
}
