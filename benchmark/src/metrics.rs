//! The metric tables: names, units and directions, exactly as
//! `BENCHMARK.json` lists them (a unit test keeps the two in step).

/// `(name, unit, better, bound)` of every end-to-end metric. The bound is
/// the share of the parent's median by which the metric may worsen.
///
/// The timed ones have the largest bound the benchmark contract allows,
/// because time here is raw wall clock and the development box itself
/// moves by that much: the same code read 525 k arrivals/s on `flat_single`
/// in one quarter of an hour and 416 k in another (README, "Bounds").
/// `recall` and heap repeat exactly at a fixed seed; their bounds are about
/// twice and four times their widest spread over seeds.
///
/// The issue's `ingest_p50_ns` and `ingest_p99_ns` are not here. Both
/// failed the same-code check past that largest bound — the median on
/// `skew_single` spread by 28% of itself over ten runs, the tail read 34%
/// apart in two runs of `flat_single` — and a longer measurement did not
/// help (README, "Bounds"). By the issue's own rule they are the per-layer
/// `core.ingest_p50_ns` and `core.ingest_p99_ns`.
pub const END_TO_END: [(&str, &str, &str, f64); 4] = [
    ("arrivals_per_s", "1/s", "higher", 0.25),
    ("recall", "ratio", "higher", 0.03),
    ("engine_heap_peak_mb", "MB", "lower", 0.05),
    ("setup_s", "s", "lower", 0.25),
];

/// `(name, unit, better)` of every per-layer metric, outside-in by layer.
/// A metric that does not apply to a workload (no reorder buffer, no
/// shards, no query plane) is printed as 0 in the result line and left
/// out of the human-readable table.
pub const PER_LAYER: [(&str, &str, &str); 74] = [
    // sketch
    ("sketch.observe_ns_per_op", "ns", "lower"),
    ("sketch.score_ns_per_op", "ns", "lower"),
    ("sketch.rollover_ns_max", "ns", "lower"),
    ("sketch.score_cache_hit_ratio", "ratio", "higher"),
    ("sketch.sign_cache_hit_ratio", "ratio", "higher"),
    ("sketch.observe_share", "ratio", "lower"),
    ("sketch.score_share", "ratio", "lower"),
    ("sketch.bank_mb", "MB", "lower"),
    // window
    ("window.insert_evict_ns_per_op", "ns", "lower"),
    ("window.expire_ns_per_op", "ns", "lower"),
    ("window.index_probe_ns_per_op", "ns", "lower"),
    ("window.heap_update_ns_per_op", "ns", "lower"),
    ("window.rebuild_grouped_ns_per_tuple", "ns", "lower"),
    ("window.evictions", "count", "lower"),
    ("window.bytes_per_tuple", "B", "lower"),
    ("window.reorder_ns_per_op", "ns", "lower"),
    ("window.reorder_peak_depth", "count", "lower"),
    // join
    ("join.probe_ns_per_row", "ns", "lower"),
    ("join.probe_ns_per_arrival", "ns", "lower"),
    ("join.rows_enumerated", "count", "higher"),
    ("join.plan_build_us", "us", "lower"),
    ("join.exact_rows_per_s", "1/s", "higher"),
    // shed
    ("shed.window_shed", "count", "lower"),
    ("shed.rows_per_stored_tuple", "ratio", "higher"),
    ("shed.recall_vs_fifo", "ratio", "higher"),
    ("shed.rebuild_share", "ratio", "lower"),
    ("shed.rs_agg_rel_err", "ratio", "lower"),
    // core.engine
    ("core.ingest_p50_ns", "ns", "lower"),
    ("core.ingest_p99_ns", "ns", "lower"),
    ("core.rows_out", "count", "higher"),
    ("core.rows_per_s", "1/s", "higher"),
    ("core.ns_per_row", "ns", "lower"),
    ("core.expired", "count", "higher"),
    ("core.epoch_rollovers", "count", "lower"),
    ("core.steady_allocs_per_karrival", "count", "lower"),
    ("core.batch64_vs_single", "ratio", "lower"),
    ("core.unattributed_share", "ratio", "lower"),
    ("core.failed_share", "ratio", "lower"),
    // core.shard
    ("shard.route_only_ns_per_arrival", "ns", "lower"),
    ("shard.finish_s", "s", "lower"),
    ("shard.imbalance", "ratio", "lower"),
    ("shard.replicated_per_arrival", "ratio", "lower"),
    ("shard.hot_promoted", "count", "lower"),
    ("shard.s1_overhead_vs_inproc", "ratio", "lower"),
    ("shard.parallel_efficiency", "ratio", "higher"),
    ("shard.cpu_s_per_wall_s", "ratio", "lower"),
    ("shard.fixedmem_recall", "ratio", "higher"),
    ("shard.fixedmem_arrivals_per_s", "1/s", "higher"),
    // core.multi
    ("multi.classes", "count", "lower"),
    ("multi.stores", "count", "lower"),
    ("multi.fanout_rows_per_class_row", "ratio", "higher"),
    ("multi.n1_vs_solo", "ratio", "lower"),
    ("multi.add_query_us", "us", "lower"),
    ("multi.remove_query_us", "us", "lower"),
    ("multi.per_query_recall_min", "ratio", "higher"),
    // workload, query
    ("workload.generate_s", "s", "lower"),
    ("workload.oracle_s", "s", "lower"),
    ("workload.csv_read_mb_per_s", "MB/s", "higher"),
    ("query.parse_us", "us", "lower"),
    // self time per layer, from the traced run's spans
    ("trace.self_ms.setup", "ms", "lower"),
    ("trace.self_ms.ingest", "ms", "lower"),
    ("trace.self_ms.end", "ms", "lower"),
    ("trace.self_ms.harness", "ms", "lower"),
    ("trace.self_ms.extra_passes", "ms", "lower"),
    ("trace.self_ms.drive_sketch", "ms", "lower"),
    ("trace.self_ms.drive_window", "ms", "lower"),
    ("trace.self_ms.drive_join", "ms", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.top_level_cover", "ratio", "higher"),
    // harness
    ("trace.overhead_ratio", "ratio", "lower"),
    ("harness.pass_spread", "ratio", "lower"),
    ("harness.timer_overhead_ns", "ns", "lower"),
    ("harness.passes", "count", "higher"),
    ("harness.slow_passes", "count", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{workload_names, WORKLOADS};

    /// `BENCHMARK.json` is what the driver reads; these tables are what the
    /// program prints. They must name the same things.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let e2e = json["end_to_end"].as_array().expect("end_to_end list");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, (name, unit, better, bound)) in e2e.iter().zip(END_TO_END) {
            assert_eq!(entry["name"], name);
            assert_eq!(entry["unit"], unit, "{name}");
            assert_eq!(entry["better"], better, "{name}");
            assert_eq!(entry["bound"].as_f64(), Some(bound), "{name}");
        }
        let layers = json["per_layer"].as_array().expect("per_layer list");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (entry, (name, unit, better)) in layers.iter().zip(PER_LAYER) {
            assert_eq!(entry["name"], name);
            assert_eq!(entry["unit"], unit, "{name}");
            assert_eq!(entry["better"], better, "{name}");
        }
        let workloads = json["workloads"].as_array().expect("workloads list");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (entry, (name, why)) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(entry["name"], name);
            assert_eq!(entry["why"], why, "{name}");
            assert!(why.len() <= 200, "{name}: why is {} characters", why.len());
        }
        assert_eq!(json["paths"].as_array().map(Vec::len), Some(1));
        assert_eq!(json["paths"][0], "benchmark");
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        names.extend(workload_names());
        for name in &names {
            assert!(name.len() <= 64, "{name}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
    }
}
