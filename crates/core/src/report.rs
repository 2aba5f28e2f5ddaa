//! Run-level counters and reports.

use mstream_agg::{BucketSeries, HistBuckets};
use mstream_types::VTime;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Counters the engine accumulates while processing.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineMetrics {
    /// Join result tuples emitted.
    pub total_output: u64,
    /// Tuples run through the join operator.
    pub processed: u64,
    /// Replicated deliveries ingested in addition to an arrival's one
    /// `processed` delivery (broadcast-stream copies); 0 for unsharded
    /// and key-partitioned runs.
    #[serde(default)]
    pub replicated: u64,
    /// Tuples dismissed from windows before expiry (shed).
    pub shed_window: u64,
    /// Tuples dropped from the input queue (shed).
    pub shed_queue: u64,
    /// Arrivals discarded by the event-time front end because their
    /// timestamp had already fallen behind the watermark (lateness beyond
    /// the configured disorder bound); 0 when no bound is configured.
    #[serde(default)]
    pub late_dropped: u64,
    /// Tuples that left windows by normal expiration.
    pub expired: u64,
    /// Tumbling-epoch rollovers observed.
    pub epoch_rollovers: u64,
    /// Wall-clock nanoseconds folding arrivals into the estimation state
    /// (AGMS sketch / frequency-table `observe` calls). An estimate: one
    /// arrival in [`STRIDE`](crate::clock::STRIDE) is timed and charged
    /// `STRIDE` times what it took.
    #[serde(default)]
    pub sketch_observe_ns: u64,
    /// Wall-clock nanoseconds rebuilding window priorities, at rollovers
    /// or on demand. Exact: every pass is timed.
    #[serde(default)]
    pub priority_rebuild_ns: u64,
    /// Store rescoring passes actually run: one per store at a rollover
    /// that rebuilds eagerly, one when a store that owed its priorities
    /// first needs a victim, none for a rollover that only marks.
    #[serde(default)]
    pub priority_rebuilds: u64,
    /// Wall-clock nanoseconds scoring arriving tuples (productivity
    /// queries for sketch policies). An estimate, sampled and scaled like
    /// [`EngineMetrics::sketch_observe_ns`].
    #[serde(default)]
    pub score_ns: u64,
    /// Wall-clock nanoseconds expiring tuples from every window (step 2 of
    /// an arrival). An estimate, sampled and scaled like
    /// [`EngineMetrics::sketch_observe_ns`].
    #[serde(default)]
    pub expire_ns: u64,
    /// Wall-clock nanoseconds probing the partner windows and handing the
    /// runs to the sink (step 3; the sink's own work included). An
    /// estimate, sampled and scaled like
    /// [`EngineMetrics::sketch_observe_ns`].
    #[serde(default)]
    pub probe_ns: u64,
    /// Wall-clock nanoseconds storing the arrival in its window and
    /// evicting its victim (the `WindowStore` half of step 5; the scoring
    /// half is [`EngineMetrics::score_ns`]). An estimate, sampled and
    /// scaled like [`EngineMetrics::sketch_observe_ns`].
    #[serde(default)]
    pub insert_ns: u64,
    /// Packed-sign cache hits inside the sketch bank (0 when sketch-free).
    #[serde(default)]
    pub sign_cache_hits: u64,
    /// Packed-sign cache misses inside the sketch bank.
    #[serde(default)]
    pub sign_cache_misses: u64,
    /// Productivity score-cache hits: cacheable estimate lookups served
    /// from the epoch memo (DESIGN.md §16); 0 when sketch-free or with
    /// the cache turned off.
    #[serde(default)]
    pub score_cache_hits: u64,
    /// Productivity score-cache misses: cacheable estimate lookups that
    /// ran the estimation kernel.
    #[serde(default)]
    pub score_cache_misses: u64,
}

impl EngineMetrics {
    /// Folds `other` into `self` by summing every counter (used to combine
    /// the per-shard metrics of a partitioned run).
    pub(crate) fn merge(&mut self, other: &EngineMetrics) {
        self.total_output += other.total_output;
        self.processed += other.processed;
        self.replicated += other.replicated;
        self.shed_window += other.shed_window;
        self.shed_queue += other.shed_queue;
        self.late_dropped += other.late_dropped;
        self.expired += other.expired;
        self.epoch_rollovers += other.epoch_rollovers;
        self.sketch_observe_ns += other.sketch_observe_ns;
        self.priority_rebuild_ns += other.priority_rebuild_ns;
        self.priority_rebuilds += other.priority_rebuilds;
        self.score_ns += other.score_ns;
        self.expire_ns += other.expire_ns;
        self.probe_ns += other.probe_ns;
        self.insert_ns += other.insert_ns;
        self.sign_cache_hits += other.sign_cache_hits;
        self.sign_cache_misses += other.sign_cache_misses;
        self.score_cache_hits += other.score_cache_hits;
        self.score_cache_misses += other.score_cache_misses;
    }
}

/// The outcome of running one trace through one engine.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Final engine counters.
    pub metrics: EngineMetrics,
    /// Output tuples per time bucket, when requested (Figure 5).
    pub series: Option<BucketSeries>,
    /// Collected aggregate-attribute histograms per bucket, when requested
    /// (Figure 7's windowed AVG / quartiles input).
    pub agg_values: Option<HistBuckets>,
    /// Virtual time when the last tuple finished processing.
    pub end_time: VTime,
    /// Wall-clock time spent inside the engine (shedding decisions + join
    /// processing — the quantity Figure 3 compares).
    pub wall_time: Duration,
    /// Parallel workers the run actually executed on (1 for the
    /// single-threaded engine).
    pub shards: usize,
    /// Why a multi-shard request degraded to one shard, if it did (the
    /// query's predicates do not all share one partition attribute).
    pub degraded: Option<String>,
}

impl Default for RunReport {
    fn default() -> Self {
        RunReport {
            metrics: EngineMetrics::default(),
            series: None,
            agg_values: None,
            end_time: VTime::ZERO,
            wall_time: Duration::ZERO,
            // Every run executes on at least one shard; `..Default::default()`
            // constructions elsewhere inherit the single-threaded answer.
            shards: 1,
            degraded: None,
        }
    }
}

impl RunReport {
    /// Output tuples emitted.
    pub fn total_output(&self) -> u64 {
        self.metrics.total_output
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_zeroed() {
        let m = EngineMetrics::default();
        assert_eq!(m.total_output, 0);
        assert_eq!(m.shed_window + m.shed_queue + m.expired, 0);
        let r = RunReport::default();
        assert_eq!(r.total_output(), 0);
        assert!(r.series.is_none());
        assert_eq!(r.shards, 1, "runs execute on at least one shard");
        assert!(r.degraded.is_none());
    }

    #[test]
    fn merge_sums_every_counter() {
        let a = EngineMetrics {
            total_output: 1,
            processed: 2,
            replicated: 12,
            shed_window: 3,
            shed_queue: 4,
            late_dropped: 13,
            expired: 5,
            epoch_rollovers: 6,
            sketch_observe_ns: 7,
            priority_rebuild_ns: 8,
            priority_rebuilds: 16,
            score_ns: 9,
            expire_ns: 17,
            probe_ns: 18,
            insert_ns: 19,
            sign_cache_hits: 10,
            sign_cache_misses: 11,
            score_cache_hits: 14,
            score_cache_misses: 15,
        };
        let mut m = a.clone();
        m.merge(&a);
        let json = serde_json::to_value(&m);
        let single = serde_json::to_value(&a);
        for (key, v) in json.as_object().unwrap() {
            let one = single[key.as_str()].as_u64().unwrap();
            assert_eq!(v.as_u64().unwrap(), 2 * one, "{key} must be summed");
        }
    }

    #[test]
    fn metrics_serialize_for_artifacts() {
        let m = EngineMetrics {
            total_output: 5,
            processed: 10,
            ..Default::default()
        };
        let json = serde_json::to_string(&m).unwrap();
        let back: EngineMetrics = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }
}
