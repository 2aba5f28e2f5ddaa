//! A Zipfian sampler over ranks `1..=n`.

use rand::Rng;

/// Samples ranks `0..n` with probability proportional to `(rank+1)^-z`.
///
/// `z = 0` degenerates to the uniform distribution; larger `z` concentrates
/// mass on low ranks. The cumulative table is precomputed so sampling is a
/// binary search — O(log n) per draw, fully deterministic given the rng.
#[derive(Clone, Debug)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Builds a sampler over `n` ranks with skew parameter `z`.
    ///
    /// # Panics
    /// Panics if `n == 0`, or `z` is negative or non-finite.
    pub fn new(n: usize, z: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(z >= 0.0 && z.is_finite(), "skew must be finite and >= 0");
        let mut cumulative = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += (rank as f64).powf(-z);
            cumulative.push(acc);
        }
        let total = acc;
        for c in &mut cumulative {
            *c /= total;
        }
        // Guard against floating-point shortfall at the top end.
        *cumulative.last_mut().expect("non-empty") = 1.0;
        Zipf { cumulative }
    }

    /// Draws a rank in `0..n` (0 = most probable).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        self.cumulative.partition_point(|&c| c < u)
    }

    /// The probability assigned to `rank`.
    pub(crate) fn pmf(&self, rank: usize) -> f64 {
        let hi = self.cumulative[rank];
        let lo = if rank == 0 {
            0.0
        } else {
            self.cumulative[rank - 1]
        };
        hi - lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_when_z_is_zero() {
        let z = Zipf::new(4, 0.0);
        for r in 0..4 {
            assert!((z.pmf(r) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn pmf_sums_to_one() {
        for &(n, s) in &[(1usize, 0.5f64), (10, 1.0), (100, 2.0), (7, 0.1)] {
            let z = Zipf::new(n, s);
            let total: f64 = (0..n).map(|r| z.pmf(r)).sum();
            assert!((total - 1.0).abs() < 1e-9, "n={n} z={s} total={total}");
        }
    }

    #[test]
    fn skew_concentrates_on_low_ranks() {
        let z = Zipf::new(10, 2.0);
        assert!(z.pmf(0) > 0.6, "rank 0 dominates at z=2: {}", z.pmf(0));
        assert!(z.pmf(0) > z.pmf(1));
        assert!(z.pmf(1) > z.pmf(5));
    }

    #[test]
    fn single_rank_always_samples_zero() {
        let z = Zipf::new(1, 1.5);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..20 {
            assert_eq!(z.sample(&mut rng), 0);
        }
    }

    #[test]
    fn empirical_frequencies_match_pmf() {
        let z = Zipf::new(5, 1.2);
        let mut rng = StdRng::seed_from_u64(42);
        let draws = 50_000;
        let mut counts = [0usize; 5];
        for _ in 0..draws {
            counts[z.sample(&mut rng)] += 1;
        }
        for (r, &count) in counts.iter().enumerate() {
            let emp = count as f64 / draws as f64;
            assert!(
                (emp - z.pmf(r)).abs() < 0.01,
                "rank {r}: empirical {emp} vs pmf {}",
                z.pmf(r)
            );
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let z = Zipf::new(20, 1.0);
        let a: Vec<usize> = {
            let mut rng = StdRng::seed_from_u64(9);
            (0..50).map(|_| z.sample(&mut rng)).collect()
        };
        let b: Vec<usize> = {
            let mut rng = StdRng::seed_from_u64(9);
            (0..50).map(|_| z.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        let _ = Zipf::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "skew must be finite")]
    fn negative_skew_rejected() {
        let _ = Zipf::new(3, -1.0);
    }
}
