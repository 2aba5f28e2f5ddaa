//! The Vitter & Wang region-based synthetic generator (paper §5.1, Table 1).
//!
//! Each relation's attribute space (`domain^arity` integer cells) receives
//! `n_regions` rectangular regions of `volume` cells centred at uniformly
//! random points. Tuple mass is distributed Zipf(`z_inter`) **across**
//! regions and Zipf(`z_intra`) **within** each region, where a cell's
//! intra-region rank is its distance from the region center — "the one near
//! the center is more frequent". Every region draws its own `z_intra`
//! uniformly from the configured range (the paper's data sets are labelled
//! by ranges such as 0.1–0.5 or 1.6–2.0).
//!
//! **Concept drift** (paper §5.1: "we input the tuples to the system from
//! the sources alternatively in a prescribed order") is reproduced by
//! feeding the data one region-phase at a time: within a phase every
//! relation emits only its phase-th region's tuples, in random order,
//! interleaved round-robin across relations; phase boundaries are recorded
//! as drift markers.

use crate::trace::Trace;
use crate::zipf::Zipf;
use mstream_types::{Error, Result, Value};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// How a generated data set is ordered into an arrival stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FeedOrder {
    /// All tuples of a relation are shuffled together: the value
    /// distribution is stationary over the run. Used by every experiment
    /// except the concept-drift one.
    Stationary,
    /// Tuples are fed one region-phase at a time (equal-length phases, one
    /// region each, random order within a phase): the hot cells change at
    /// every phase boundary, simulating concept drift (Figure 5). Phase
    /// boundaries are recorded as the trace's drift points.
    RegionPhases,
}

/// Configuration mirroring the paper's Table 1.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RegionsConfig {
    /// Number of relations/streams (Table 1: 3).
    pub n_relations: usize,
    /// Attributes per relation (Table 1: 2 — `R(A1, A2)`).
    pub arity: usize,
    /// Size of each attribute domain (Table 1: 100).
    pub domain: u64,
    /// Regions per relation (Table 1: 10).
    pub n_regions: usize,
    /// Cells per region (Table 1: "Volume 1\[000\]" — 1000 cells, i.e. each
    /// region covers 10% of the 100x100 attribute space; this is the
    /// reading under which low `z_intra` makes the overall value
    /// distribution "nearly uniform", as the paper observes).
    pub volume: usize,
    /// Zipf skew across regions (Table 1: 1.0).
    pub z_inter: f64,
    /// Range from which each region draws its within-region skew
    /// (the paper's data sets: 0.1–0.5, 0.6–1.0, 1.1–1.5, 1.6–2.0).
    pub z_intra: (f64, f64),
    /// Per-relation displacement (in cells, per axis) of each region
    /// center from the data set's base layout. 0 = identical layouts on
    /// every stream; large values decorrelate the streams completely.
    pub center_jitter: u64,
    /// Number of evenly spaced anchor coordinates per axis that region
    /// centers snap to. Hot values then recur across attributes and
    /// relations, so chains of hot cells exist (some with strong
    /// continuations, some dead ends) — the structure a multi-way-aware
    /// shedder exploits. `None` draws centers uniformly at random.
    pub anchor_grid: Option<u64>,
    /// Tuples generated per relation (Table 1: 10 000).
    pub tuples_per_relation: usize,
    /// Arrival ordering (stationary vs region-phase drift).
    pub feed: FeedOrder,
    /// Master seed; every derived choice is deterministic in it.
    pub seed: u64,
}

impl Default for RegionsConfig {
    fn default() -> Self {
        RegionsConfig {
            n_relations: 3,
            arity: 2,
            domain: 100,
            n_regions: 10,
            volume: 1000,
            z_inter: 1.0,
            z_intra: (1.6, 2.0),
            center_jitter: 0,
            anchor_grid: Some(10),
            tuples_per_relation: 10_000,
            feed: FeedOrder::Stationary,
            seed: 0xDA7A,
        }
    }
}

impl RegionsConfig {
    /// The paper's four data sets differ only in the `z_intra` range.
    pub fn with_z_intra(lo: f64, hi: f64) -> Self {
        RegionsConfig {
            z_intra: (lo, hi),
            ..Default::default()
        }
    }

    fn validate(&self) -> Result<()> {
        let check = |ok: bool, msg: &str| {
            if ok {
                Ok(())
            } else {
                Err(Error::InvalidConfig(msg.to_string()))
            }
        };
        check(self.n_relations >= 1, "n_relations must be >= 1")?;
        check(self.arity >= 1, "arity must be >= 1")?;
        check(self.domain >= 1, "domain must be >= 1")?;
        check(self.n_regions >= 1, "n_regions must be >= 1")?;
        check(self.volume >= 1, "volume must be >= 1")?;
        check(
            (self.volume as u64) <= self.domain.pow(self.arity as u32),
            "volume exceeds attribute space",
        )?;
        check(
            self.z_intra.0 <= self.z_intra.1 && self.z_intra.0 >= 0.0,
            "z_intra range must be ordered and non-negative",
        )?;
        check(self.z_inter >= 0.0, "z_inter must be non-negative")?;
        if let Some(g) = self.anchor_grid {
            check(g >= 1 && g <= self.domain, "anchor_grid must be in 1..=domain")?;
        }
        Ok(())
    }
}

/// One rectangular region: its cells ranked by distance from the center.
#[derive(Clone, Debug)]
struct Region {
    /// Cells in increasing distance-from-center order.
    cells: Vec<Vec<Value>>,
    /// This region's within-region skew.
    z_intra: f64,
}

/// A deterministic generator of region-structured relations.
#[derive(Clone, Debug)]
pub struct RegionsGenerator {
    config: RegionsConfig,
    /// `regions[r][g]` = region `g` of relation `r`.
    regions: Vec<Vec<Region>>,
    /// Tuples allocated to each region rank by Zipf(`z_inter`).
    tuples_per_region: Vec<usize>,
}

impl RegionsGenerator {
    /// Lays out regions for `config` (everything after this is sampling).
    pub fn new(config: RegionsConfig) -> Result<Self> {
        config.validate()?;
        let mut rng = StdRng::seed_from_u64(config.seed);
        // The data set draws one base layout of region centers, and every
        // relation uses a jittered copy of it (each center displaced by up
        // to +-jitter per axis). Shared structure gives the multi-way join
        // its mass (hot cells align across streams); the jitter decorrelates
        // the streams enough that a value hot in one joined pair is not
        // automatically hot in the rest of the chain — the structure that
        // separates multi-way-aware shedding from pairwise baselines.
        // Data sets differ by their seed ("different centers of regions").
        let draw_coord = |rng: &mut StdRng| -> i64 {
            match config.anchor_grid {
                Some(grid) => {
                    // Anchor k of g sits at the center of the k-th of g
                    // equal slices of the domain.
                    let k = rng.gen_range(0..grid);
                    ((2 * k + 1) * config.domain / (2 * grid)) as i64
                }
                None => rng.gen_range(0..config.domain) as i64,
            }
        };
        let base: Vec<(Vec<i64>, f64)> = (0..config.n_regions)
            .map(|_| {
                let center: Vec<i64> = (0..config.arity)
                    .map(|_| draw_coord(&mut rng))
                    .collect();
                let z_intra = if config.z_intra.0 == config.z_intra.1 {
                    config.z_intra.0
                } else {
                    rng.gen_range(config.z_intra.0..config.z_intra.1)
                };
                (center, z_intra)
            })
            .collect();
        let jitter = config.center_jitter as i64;
        let regions: Vec<Vec<Region>> = (0..config.n_relations)
            .map(|_| {
                base.iter()
                    .map(|(center, z_intra)| {
                        let center: Vec<i64> = center
                            .iter()
                            .map(|&c| {
                                let j = if jitter > 0 {
                                    rng.gen_range(-jitter..=jitter)
                                } else {
                                    0
                                };
                                (c + j).clamp(0, config.domain as i64 - 1)
                            })
                            .collect();
                        Region {
                            cells: nearest_cells(&center, config.domain, config.volume),
                            z_intra: *z_intra,
                        }
                    })
                    .collect()
            })
            .collect();
        let inter = Zipf::new(config.n_regions, config.z_inter);
        let mut tuples_per_region: Vec<usize> = (0..config.n_regions)
            .map(|g| (inter.pmf(g) * config.tuples_per_relation as f64).floor() as usize)
            .collect();
        // Distribute rounding leftovers to the head ranks.
        let assigned: usize = tuples_per_region.iter().sum();
        for i in 0..config.tuples_per_relation.saturating_sub(assigned) {
            tuples_per_region[i % config.n_regions] += 1;
        }
        Ok(RegionsGenerator {
            config,
            regions,
            tuples_per_region,
        })
    }

    /// The configuration in force.
    pub fn config(&self) -> &RegionsConfig {
        &self.config
    }

    /// Generates the full trace according to the configured [`FeedOrder`].
    pub fn generate(&self) -> Trace {
        let mut rng = StdRng::seed_from_u64(self.config.seed.wrapping_add(1));
        match self.config.feed {
            FeedOrder::Stationary => self.generate_stationary(&mut rng),
            FeedOrder::RegionPhases => self.generate_phases(&mut rng),
        }
    }

    /// Stationary order: per relation, draw each region's Zipf(`z_inter`)
    /// share of tuples, shuffle the whole relation, interleave round-robin.
    fn generate_stationary(&self, rng: &mut StdRng) -> Trace {
        let per_relation: Vec<Vec<Vec<Value>>> = (0..self.config.n_relations)
            .map(|r| {
                let mut tuples = Vec::with_capacity(self.config.tuples_per_relation);
                for g in 0..self.config.n_regions {
                    let region = &self.regions[r][g];
                    let intra = Zipf::new(region.cells.len(), region.z_intra);
                    for _ in 0..self.tuples_per_region[g] {
                        tuples.push(region.cells[intra.sample(rng)].clone());
                    }
                }
                tuples.shuffle(rng);
                tuples
            })
            .collect();
        Trace::interleave(per_relation)
    }

    /// Drift order: equal-length phases. Phase `g`'s tuples are drawn 70%
    /// from region `g` and 30% from the stationary Zipf(`z_inter`) mixture
    /// over all regions, so the *dominant* hot cells move at every
    /// boundary while the join always has some background mass (a phase
    /// whose region happens to have no cross-stream partners would
    /// otherwise produce nothing for every policy, telling us nothing
    /// about shedding).
    fn generate_phases(&self, rng: &mut StdRng) -> Trace {
        let mut trace = Trace::new();
        let per_phase = (self.config.tuples_per_relation / self.config.n_regions).max(1);
        let inter = Zipf::new(self.config.n_regions, self.config.z_inter);
        for g in 0..self.config.n_regions {
            if g > 0 {
                trace.mark_drift();
            }
            let per_relation: Vec<Vec<Vec<Value>>> = (0..self.config.n_relations)
                .map(|r| {
                    let mut tuples: Vec<Vec<Value>> = (0..per_phase)
                        .map(|_| {
                            let region_idx = if rng.gen_bool(0.7) {
                                g
                            } else {
                                inter.sample(rng)
                            };
                            let region = &self.regions[r][region_idx];
                            let intra = Zipf::new(region.cells.len(), region.z_intra);
                            region.cells[intra.sample(rng)].clone()
                        })
                        .collect();
                    tuples.shuffle(rng);
                    tuples
                })
                .collect();
            let phase = Trace::interleave(per_relation);
            trace.items.extend(phase.items);
        }
        trace
    }

    /// A Table-1-style description of the data set.
    pub fn describe(&self) -> String {
        let c = &self.config;
        format!(
            "Relations: {} (arity {}); tuples/relation: {}; domain: {}; \
             regions: {}; volume: {}; z-inter: {}; z-intra: {:.1}-{:.1}; seed: {}",
            c.n_relations,
            c.arity,
            c.tuples_per_relation,
            c.domain,
            c.n_regions,
            c.volume,
            c.z_inter,
            c.z_intra.0,
            c.z_intra.1,
            c.seed
        )
    }
}

/// The `volume` cells of `[0, domain)^d` nearest to `center`, ordered by
/// squared Euclidean distance (lexicographic tiebreak for determinism).
fn nearest_cells(center: &[i64], domain: u64, volume: usize) -> Vec<Vec<Value>> {
    let d = center.len();
    let mut radius = 1i64;
    loop {
        let mut cells: Vec<(i64, Vec<u64>)> = Vec::new();
        let mut coord = vec![0i64; d];
        collect_box(center, domain, radius, 0, &mut coord, &mut cells);
        if cells.len() >= volume {
            cells.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
            return cells
                .into_iter()
                .take(volume)
                .map(|(_, coords)| coords.into_iter().map(Value).collect())
                .collect();
        }
        radius *= 2;
        // The whole space has >= volume cells (validated), so this halts.
    }
}

/// Recursively enumerates integer cells within `radius` (per axis) of
/// `center`, clamped to the domain, recording squared distances.
fn collect_box(
    center: &[i64],
    domain: u64,
    radius: i64,
    axis: usize,
    coord: &mut Vec<i64>,
    out: &mut Vec<(i64, Vec<u64>)>,
) {
    if axis == center.len() {
        let dist: i64 = coord
            .iter()
            .zip(center)
            .map(|(&c, &ctr)| (c - ctr) * (c - ctr))
            .sum();
        out.push((dist, coord.iter().map(|&c| c as u64).collect()));
        return;
    }
    let lo = (center[axis] - radius).max(0);
    let hi = (center[axis] + radius).min(domain as i64 - 1);
    for c in lo..=hi {
        coord[axis] = c;
        collect_box(center, domain, radius, axis + 1, coord, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mstream_types::StreamId;

    fn small_config() -> RegionsConfig {
        RegionsConfig {
            n_relations: 3,
            arity: 2,
            domain: 50,
            n_regions: 4,
            volume: 6,
            z_inter: 1.0,
            z_intra: (1.0, 1.5),
            center_jitter: 3,
            anchor_grid: Some(5),
            tuples_per_relation: 400,
            feed: FeedOrder::Stationary,
            seed: 11,
        }
    }

    #[test]
    fn nearest_cells_center_first() {
        let cells = nearest_cells(&[5, 5], 100, 5);
        assert_eq!(cells.len(), 5);
        assert_eq!(cells[0], vec![Value(5), Value(5)], "center is rank 0");
        // All cells are adjacent to the center.
        for c in &cells {
            let dx = c[0].raw() as i64 - 5;
            let dy = c[1].raw() as i64 - 5;
            assert!(dx * dx + dy * dy <= 2);
        }
    }

    #[test]
    fn nearest_cells_clamped_at_domain_edge() {
        let cells = nearest_cells(&[0, 0], 10, 4);
        assert_eq!(cells.len(), 4);
        for c in &cells {
            assert!(c[0].raw() < 10 && c[1].raw() < 10);
        }
        assert_eq!(cells[0], vec![Value(0), Value(0)]);
    }

    #[test]
    fn nearest_cells_grows_radius_when_needed() {
        // volume larger than the initial 3x3 box forces radius growth.
        let cells = nearest_cells(&[5, 5], 100, 30);
        assert_eq!(cells.len(), 30);
    }

    #[test]
    fn generates_requested_tuple_counts() {
        let g = RegionsGenerator::new(small_config()).unwrap();
        let trace = g.generate();
        assert_eq!(trace.len(), 3 * 400);
        let counts = trace.stream_counts();
        for s in 0..3 {
            assert_eq!(counts[&StreamId(s)], 400);
        }
    }

    #[test]
    fn stationary_feed_has_no_drift_markers() {
        let g = RegionsGenerator::new(small_config()).unwrap();
        assert!(g.generate().drift_points.is_empty());
    }

    #[test]
    fn drift_feed_marks_equal_phase_boundaries() {
        let mut cfg = small_config();
        cfg.feed = FeedOrder::RegionPhases;
        let g = RegionsGenerator::new(cfg).unwrap();
        let trace = g.generate();
        assert_eq!(trace.drift_points.len(), 3, "n_regions - 1 boundaries");
        // Equal-length phases: boundaries evenly spaced.
        let phase = trace.len() / 4;
        for (i, &d) in trace.drift_points.iter().enumerate() {
            assert_eq!(d, (i + 1) * phase);
        }
    }

    #[test]
    fn drift_feed_changes_distribution_across_phases() {
        let mut cfg = small_config();
        cfg.feed = FeedOrder::RegionPhases;
        cfg.z_intra = (2.0, 2.0001);
        let g = RegionsGenerator::new(cfg).unwrap();
        let trace = g.generate();
        // The modal value of phase 0 should differ from phase 3's (regions
        // have different centers with overwhelming probability).
        let phase = trace.len() / 4;
        let mode = |lo: usize, hi: usize| {
            let mut hist = std::collections::HashMap::new();
            for it in &trace.items[lo..hi] {
                if it.stream == StreamId(0) {
                    *hist.entry(it.values[0]).or_insert(0usize) += 1;
                }
            }
            hist.into_iter().max_by_key(|&(_, c)| c).map(|(v, _)| v)
        };
        assert_ne!(mode(0, phase), mode(3 * phase, 4 * phase));
    }

    #[test]
    fn values_stay_in_domain() {
        let g = RegionsGenerator::new(small_config()).unwrap();
        let trace = g.generate();
        for item in &trace.items {
            assert_eq!(item.values.len(), 2);
            for v in &item.values {
                assert!(v.raw() < 50);
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = RegionsGenerator::new(small_config()).unwrap().generate();
        let b = RegionsGenerator::new(small_config()).unwrap().generate();
        assert_eq!(a, b);
        let mut other = small_config();
        other.seed = 12;
        let c = RegionsGenerator::new(other).unwrap().generate();
        assert_ne!(a, c);
    }

    #[test]
    fn higher_skew_concentrates_values() {
        // Compare the hottest-value share under low vs high z_intra.
        let share = |z: (f64, f64)| {
            let mut cfg = small_config();
            cfg.z_intra = z;
            let trace = RegionsGenerator::new(cfg).unwrap().generate();
            let hist = trace.value_histogram(StreamId(0), 0);
            let max = hist.values().max().copied().unwrap_or(0);
            max as f64 / 400.0
        };
        let low = share((0.1, 0.10001));
        let high = share((2.0, 2.00001));
        assert!(
            high > low,
            "z=2.0 share {high} should exceed z=0.1 share {low}"
        );
    }

    #[test]
    fn zipf_inter_allocates_more_to_early_regions() {
        let g = RegionsGenerator::new(small_config()).unwrap();
        assert!(g.tuples_per_region[0] > g.tuples_per_region[3]);
        let total: usize = g.tuples_per_region.iter().sum();
        assert_eq!(total, 400);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut cfg = small_config();
        cfg.volume = 50 * 50 + 1;
        assert!(RegionsGenerator::new(cfg).is_err());
        let mut cfg = small_config();
        cfg.z_intra = (2.0, 1.0);
        assert!(RegionsGenerator::new(cfg).is_err());
        let mut cfg = small_config();
        cfg.n_regions = 0;
        assert!(RegionsGenerator::new(cfg).is_err());
    }

    #[test]
    fn describe_mentions_table1_fields() {
        let g = RegionsGenerator::new(RegionsConfig::default()).unwrap();
        let d = g.describe();
        assert!(d.contains("regions: 10"));
        assert!(d.contains("domain: 100"));
        assert!(d.contains("z-inter: 1"));
    }
}
