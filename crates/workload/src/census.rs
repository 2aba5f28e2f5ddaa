//! A correlated categorical generator standing in for the CPS census data
//! (paper §5.2.2).
//!
//! The paper joins three monthly Current Population Survey extracts
//! (Oct'03, Apr'04, Oct'04) on discretized attributes Age (1–9),
//! Income (1–16) and Education (1–6). The raw microdata is not
//! redistributable, so this module synthesizes tuples from a correlated
//! model — see DESIGN.md §5 ("Substitutions"): the experiments only
//! exercise the joint frequency distribution of three small categorical
//! attributes across three months, so a model with realistic skew,
//! age→education→income dependence and mild month-over-month drift
//! exercises the identical code paths.
//!
//! Schema per month-stream: `(Age, Income, Education)` = attributes 0/1/2.
//! The paper's query joins `Oct03.Age = Apr04.Age` and
//! `Apr04.Education = Oct04.Education`.

use crate::trace::Trace;
use mstream_types::{Error, Result, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Domain sizes, mirroring the paper's discretization.
pub(crate) const AGE_LEVELS: u64 = 9;
/// Income bracket count.
pub(crate) const INCOME_LEVELS: u64 = 16;
/// Education level count.
pub(crate) const EDUCATION_LEVELS: u64 = 6;

/// Generator configuration.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CensusConfig {
    /// Survey rows per month-stream (paper: ~65 000; default scaled to
    /// 6 500 for laptop-scale runs — see DESIGN.md parameter table).
    pub tuples_per_month: usize,
    /// Number of month-streams (paper: 3).
    pub months: usize,
    /// Strength of month-over-month marginal drift in `[0, 1]`.
    pub drift: f64,
    /// Master seed.
    pub seed: u64,
}

impl Default for CensusConfig {
    fn default() -> Self {
        CensusConfig {
            tuples_per_month: 6_500,
            months: 3,
            drift: 0.08,
            seed: 0xCE25,
        }
    }
}

/// Deterministic census-like tuple generator.
#[derive(Clone, Debug)]
pub struct CensusGenerator {
    config: CensusConfig,
}

impl CensusGenerator {
    /// Validates and wraps the configuration.
    pub fn new(config: CensusConfig) -> Result<Self> {
        if config.months == 0 {
            return Err(Error::InvalidConfig("months must be >= 1".into()));
        }
        if config.tuples_per_month == 0 {
            return Err(Error::InvalidConfig(
                "tuples_per_month must be >= 1".into(),
            ));
        }
        if !(0.0..=1.0).contains(&config.drift) || !config.drift.is_finite() {
            return Err(Error::InvalidConfig("drift must be in [0, 1]".into()));
        }
        Ok(CensusGenerator { config })
    }

    /// Generates the interleaved trace (round-robin across months, so all
    /// three "survey streams" flow concurrently, as the join requires).
    pub fn generate(&self) -> Trace {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let per_month: Vec<Vec<Vec<Value>>> = (0..self.config.months)
            .map(|m| {
                (0..self.config.tuples_per_month)
                    .map(|_| self.sample_tuple(m, &mut rng))
                    .collect()
            })
            .collect();
        Trace::interleave(per_month)
    }

    /// Samples one `(Age, Income, Education)` row for month `m`.
    fn sample_tuple(&self, month: usize, rng: &mut StdRng) -> Vec<Value> {
        let drift = self.config.drift * month as f64;
        // Age: working-age bulge (bands 3-6 dominate), stable over months.
        let age_weights: Vec<f64> = (1..=AGE_LEVELS)
            .map(|a| {
                let x = a as f64;
                (-(x - 4.5) * (x - 4.5) / 8.0).exp() + 0.15
            })
            .collect();
        let age = 1 + sample_weighted(rng, &age_weights) as u64;

        // Education | Age: mid-skewed, shifted up for prime-age cohorts and
        // drifting slightly upward across months.
        let edu_center = 2.6 + 0.5 * gaussian_bump(age as f64, 4.0, 3.0) + 2.0 * drift;
        let edu_weights: Vec<f64> = (1..=EDUCATION_LEVELS)
            .map(|e| (-(e as f64 - edu_center) * (e as f64 - edu_center) / 2.0).exp() + 0.05)
            .collect();
        let education = 1 + sample_weighted(rng, &edu_weights) as u64;

        // Income | Education, Age: log-ish ladder centred on a level that
        // rises with education and peaks mid-career; months drift upward.
        let income_center = 2.0
            + 1.8 * education as f64
            + 2.0 * gaussian_bump(age as f64, 5.0, 2.5)
            + 3.0 * drift;
        let income_weights: Vec<f64> = (1..=INCOME_LEVELS)
            .map(|i| {
                (-(i as f64 - income_center) * (i as f64 - income_center) / 6.0).exp() + 0.02
            })
            .collect();
        let income = 1 + sample_weighted(rng, &income_weights) as u64;

        vec![Value(age), Value(income), Value(education)]
    }

    /// Human-readable synopsis for `--describe` output.
    pub fn describe(&self) -> String {
        format!(
            "Census-like data: {} months x {} tuples; attrs Age(1-{}), \
             Income(1-{}), Education(1-{}); drift {:.2}; seed {}",
            self.config.months,
            self.config.tuples_per_month,
            AGE_LEVELS,
            INCOME_LEVELS,
            EDUCATION_LEVELS,
            self.config.drift,
            self.config.seed
        )
    }
}

/// A unit bump at `center` with the given width.
fn gaussian_bump(x: f64, center: f64, width: f64) -> f64 {
    (-(x - center) * (x - center) / (2.0 * width * width)).exp()
}

/// Samples an index proportionally to non-negative `weights`.
fn sample_weighted(rng: &mut StdRng, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    debug_assert!(total > 0.0);
    let mut u = rng.gen::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        u -= w;
        if u <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use mstream_types::StreamId;

    /// Attribute indexes of Age, Income and Education in a generated row.
    const AGE: usize = 0;
    const INCOME: usize = 1;
    const EDUCATION: usize = 2;

    fn small() -> CensusGenerator {
        CensusGenerator::new(CensusConfig {
            tuples_per_month: 2000,
            months: 3,
            drift: 0.1,
            seed: 5,
        })
        .unwrap()
    }

    #[test]
    fn domains_are_respected() {
        let trace = small().generate();
        assert_eq!(trace.len(), 6000);
        for item in &trace.items {
            let (a, i, e) = (
                item.values[AGE].raw(),
                item.values[INCOME].raw(),
                item.values[EDUCATION].raw(),
            );
            assert!((1..=AGE_LEVELS).contains(&a), "age {a}");
            assert!((1..=INCOME_LEVELS).contains(&i), "income {i}");
            assert!((1..=EDUCATION_LEVELS).contains(&e), "education {e}");
        }
    }

    #[test]
    fn months_interleave_round_robin() {
        let trace = small().generate();
        for (i, item) in trace.items.iter().take(9).enumerate() {
            assert_eq!(item.stream, StreamId(i % 3));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(small().generate(), small().generate());
    }

    #[test]
    fn age_distribution_is_skewed_not_uniform() {
        let trace = small().generate();
        let hist = trace.value_histogram(StreamId(0), AGE);
        let max = *hist.values().max().unwrap() as f64;
        let min = hist.values().min().copied().unwrap_or(0) as f64;
        assert!(max > 2.0 * min.max(1.0), "working-age bulge expected");
    }

    #[test]
    fn income_correlates_with_education() {
        let trace = small().generate();
        // Mean income for low vs high education on month 0.
        let (mut lo_sum, mut lo_n, mut hi_sum, mut hi_n) = (0u64, 0u64, 0u64, 0u64);
        for item in trace.per_stream(StreamId(0)) {
            let e = item.values[EDUCATION].raw();
            let i = item.values[INCOME].raw();
            if e <= 2 {
                lo_sum += i;
                lo_n += 1;
            } else if e >= 5 {
                hi_sum += i;
                hi_n += 1;
            }
        }
        assert!(lo_n > 20 && hi_n > 20, "both strata populated");
        let lo_mean = lo_sum as f64 / lo_n as f64;
        let hi_mean = hi_sum as f64 / hi_n as f64;
        assert!(
            hi_mean > lo_mean + 2.0,
            "income should rise with education: {lo_mean} vs {hi_mean}"
        );
    }

    #[test]
    fn drift_shifts_income_across_months() {
        let g = CensusGenerator::new(CensusConfig {
            tuples_per_month: 4000,
            months: 3,
            drift: 0.5,
            seed: 5,
        })
        .unwrap();
        let trace = g.generate();
        let mean_income = |s: usize| {
            let items: Vec<_> = trace.per_stream(StreamId(s)).collect();
            items
                .iter()
                .map(|it| it.values[INCOME].raw() as f64)
                .sum::<f64>()
                / items.len() as f64
        };
        assert!(
            mean_income(2) > mean_income(0) + 0.5,
            "month 2 income should drift up: {} vs {}",
            mean_income(0),
            mean_income(2)
        );
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(CensusGenerator::new(CensusConfig {
            months: 0,
            ..Default::default()
        })
        .is_err());
        assert!(CensusGenerator::new(CensusConfig {
            tuples_per_month: 0,
            ..Default::default()
        })
        .is_err());
        assert!(CensusGenerator::new(CensusConfig {
            drift: 1.5,
            ..Default::default()
        })
        .is_err());
    }

    #[test]
    fn describe_summarizes() {
        let d = small().describe();
        assert!(d.contains("3 months"));
        assert!(d.contains("Age(1-9)"));
    }
}
