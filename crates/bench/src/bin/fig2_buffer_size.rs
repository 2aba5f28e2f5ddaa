//! Figure 2 (a, b): number of output tuples vs buffer size, for the
//! low-skew (z-intra 0.1–0.5) and high-skew (1.6–2.0) synthetic data sets.
//!
//! ```text
//! cargo run --release -p mstream-bench --bin fig2_buffer_size
//! cargo run --release -p mstream-bench --bin fig2_buffer_size -- --describe   # Table 1
//! ```

use mstream_bench::{paper, runner, table, Args};
use mstream_core::prelude::*;

fn main() {
    let args = Args::from_env();
    let scale = args.scale_or(1.0);
    if args.describe {
        println!("## Table 1: synthetic data sets");
        for (i, z) in paper::Z_INTRA_RANGES.iter().enumerate() {
            let gen = paper::paper_regions(*z, scale, args.seed);
            println!("dataset {}: {}", i + 1, gen.describe());
        }
        return;
    }
    let query = paper::paper_query(paper::scaled_window(scale));
    let opts = RunOptions::default();
    let mut json_rows = Vec::new();
    // MSketch/Random output ratio at 25% memory, per part (a = low skew,
    // b = high skew) — the cross-part shape check.
    let mut gap_at_25 = Vec::new();
    for (part, z) in [("a", paper::Z_INTRA_RANGES[0]), ("b", paper::Z_INTRA_RANGES[3])] {
        let trace = paper::paper_regions(z, scale, args.seed).generate();
        let header: Vec<String> = std::iter::once("buffer".to_string())
            .chain(paper::MAX_SUBSET_POLICIES.iter().map(|p| p.to_string()))
            .collect();
        let mut rows = Vec::new();
        let mut by_policy: Vec<Vec<u64>> = vec![Vec::new(); paper::MAX_SUBSET_POLICIES.len()];
        for pct in paper::MEMORY_GRID {
            let capacity = paper::memory_tuples(pct, scale);
            let mut row = vec![format!("{capacity} ({pct}%)")];
            for (pi, policy) in paper::MAX_SUBSET_POLICIES.iter().enumerate() {
                let report =
                    runner::run_policy(&query, policy, capacity, &trace, &opts, args.seed);
                row.push(report.total_output().to_string());
                by_policy[pi].push(report.total_output());
                json_rows.push(serde_json::json!({
                    "figure": format!("2{part}"),
                    "z_intra": z,
                    "memory_pct": pct,
                    "capacity": capacity,
                    "policy": policy,
                    "output": report.total_output(),
                    "shed_window": report.metrics.shed_window,
                }));
            }
            rows.push(row);
        }
        table::print_table(
            &format!(
                "Figure 2({part}): #output tuples vs buffer size, z-intra {:.1}-{:.1}",
                z.0, z.1
            ),
            &header,
            &rows,
        );
        // Paper shape: on the high-skew data MSketch dominates every
        // baseline wherever shedding actually happens (below 100% memory);
        // on low skew all algorithms are within a whisker of each other.
        let msketch = &by_policy[0];
        gap_at_25.push(msketch[1] as f64 / by_policy[3][1].max(1) as f64);
        if part == "b" {
            let shedding_points = paper::MEMORY_GRID.len() - 1; // exclude 100%
            let dominated = (1..paper::MAX_SUBSET_POLICIES.len()).all(|pi| {
                (0..shedding_points).all(|m| msketch[m] >= by_policy[pi][m])
            });
            table::print_shape("MSketch >= all baselines below 100% memory (high skew)", dominated);
        }
        // All algorithms coincide at 100% memory (no shedding).
        let at_full: Vec<u64> = by_policy.iter().map(|p| *p.last().unwrap()).collect();
        table::print_shape(
            &format!("part ({part}): all algorithms coincide at 100% memory"),
            at_full.windows(2).all(|w| w[0] == w[1]),
        );
    }
    table::print_shape(
        &format!(
            "the MSketch/Random gap widens with skew (25% memory: {:.1}x at low skew -> {:.1}x at high skew)",
            gap_at_25[0], gap_at_25[1]
        ),
        gap_at_25[1] > gap_at_25[0],
    );
    mstream_bench::args::maybe_dump_json(&args.json, &json_rows);
}
