//! Figure 3: wall-clock processing time (shedding decisions + join
//! processing) per algorithm, on the high-skew data set.
//!
//! The paper's claims: `Random` is cheapest (no estimation at all), the
//! differences are small, and MSketch's sketch maintenance "does not add
//! much time overhead" relative to the join work itself.
//!
//! ```text
//! cargo run --release -p mstream-bench --bin fig3_time
//! ```

use mstream_bench::{paper, runner, table, Args};
use mstream_core::prelude::*;

fn main() {
    let args = Args::from_env();
    let scale = args.scale_or(1.0);
    let query = paper::paper_query(paper::scaled_window(scale));
    let trace = paper::paper_regions(paper::Z_INTRA_RANGES[3], scale, args.seed).generate();
    let opts = RunOptions::default();
    // The paper reports time at one memory setting; 25% keeps every policy
    // busy shedding.
    let capacity = paper::memory_tuples(25, scale);
    let header = vec![
        "policy".to_string(),
        "time (s)".to_string(),
        "output".to_string(),
        "tuples/s".to_string(),
    ];
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let mut timings: Vec<(String, f64)> = Vec::new();
    for policy in paper::MAX_SUBSET_POLICIES {
        let report = runner::run_policy(&query, policy, capacity, &trace, &opts, args.seed);
        let secs = report.wall_time.as_secs_f64();
        timings.push((policy.to_string(), secs));
        rows.push(vec![
            policy.to_string(),
            format!("{secs:.3}"),
            report.total_output().to_string(),
            table::fmt_num(report.metrics.processed as f64 / secs),
        ]);
        json_rows.push(serde_json::json!({
            "figure": "3",
            "policy": policy,
            "seconds": secs,
            "output": report.total_output(),
        }));
    }
    table::print_table(
        &format!("Figure 3: processing time, z-intra 1.6-2.0, {capacity} tuples/window (25%)"),
        &header,
        &rows,
    );
    let time_of = |name: &str| {
        timings
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, t)| t)
            .expect("policy timed")
    };
    table::print_shape(
        "Random is the fastest policy (it makes no estimation and produces the least output)",
        timings
            .iter()
            .all(|(n, t)| n == "Random" || *t >= 0.85 * time_of("Random")),
    );
    // Paper §5.1.1: "the computation time for MSketch and Bjoin are almost
    // the same".
    table::print_shape(
        &format!(
            "MSketch and Bjoin take comparable time, <= 2.5x (measured {:.2}x)",
            time_of("MSketch") / time_of("Bjoin")
        ),
        time_of("MSketch") <= 2.5 * time_of("Bjoin"),
    );
    // Paper: "MSketch does not add much time overhead for the multi-way
    // join computation" — normalize by useful work (result tuples), since
    // the semantic policies also produce ~10x more output.
    let per_output = |name: &str| {
        let out = json_rows
            .iter()
            .find(|r| r["policy"] == name)
            .and_then(|r| r["output"].as_u64())
            .unwrap_or(1)
            .max(1) as f64;
        time_of(name) / out
    };
    table::print_shape(
        &format!(
            "per-result-tuple cost of MSketch is close to Random's ({:.1}ns vs {:.1}ns)",
            per_output("MSketch") * 1e9,
            per_output("Random") * 1e9
        ),
        per_output("MSketch") <= 2.0 * per_output("Random"),
    );
    mstream_bench::args::maybe_dump_json(&args.json, &json_rows);
}
