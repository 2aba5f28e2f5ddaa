//! Design-choice ablations (DESIGN.md §7) — not figures from the paper but
//! measurements of the choices its design fixes silently:
//!
//! 1. **Sketch accuracy** (`s1` sweep): how many atomic-sketch copies the
//!    productivity estimate needs before MSketch's ranking beats exact
//!    pairwise frequencies.
//! 2. **Epoch discipline**: scoring against the last completed tumbling
//!    window (the paper's choice) vs the live current-epoch sketches.
//!
//! ```text
//! cargo run --release -p mstream-bench --bin ablations
//! ```

use mstream_bench::{paper, runner, table, Args};
use mstream_core::prelude::*;

fn main() {
    let args = Args::from_env();
    let scale = args.scale_or(1.0);
    let query = paper::paper_query(paper::scaled_window(scale));
    let trace = paper::paper_regions(paper::Z_INTRA_RANGES[3], scale, args.seed).generate();
    let opts = RunOptions::default();
    let capacity = paper::memory_tuples(25, scale);
    let mut json_rows = Vec::new();

    // 1. s1 sweep.
    let mut rows = Vec::new();
    let mut outputs = Vec::new();
    for s1 in [50usize, 200, 1000, 4000] {
        let mut engine = EngineBuilder::new(query.clone())
            .policy(MSketch)
            .capacity_per_window(capacity)
            .bank(BankConfig {
                s1,
                s2: 1,
                seed: args.seed ^ 0x5EED,
            })
            .seed(args.seed)
            .build()
            .expect("valid");
        let report = run_trace(&mut engine, &trace, &opts);
        outputs.push(report.total_output());
        rows.push(vec![
            s1.to_string(),
            report.total_output().to_string(),
            format!("{:.2}", report.wall_time.as_secs_f64()),
        ]);
        json_rows.push(serde_json::json!({
            "ablation": "s1", "s1": s1, "output": report.total_output(),
            "seconds": report.wall_time.as_secs_f64(),
        }));
    }
    table::print_table(
        &format!("Ablation 1: MSketch output vs sketch copies s1 (25% memory, {capacity} tuples)"),
        &["s1".to_string(), "output".to_string(), "time (s)".to_string()],
        &rows,
    );
    table::print_shape(
        "more sketch copies monotonically help (within noise): s1=1000 > s1=50",
        outputs[2] > outputs[0],
    );

    // 2. Epoch discipline: last-epoch vs current-epoch scoring.
    let mut rows = Vec::new();
    let mut epoch_outputs = Vec::new();
    for policy_name in ["MSketch", "msketch-current"] {
        let report = runner::run_policy(&query, policy_name, capacity, &trace, &opts, args.seed);
        epoch_outputs.push(report.total_output());
        rows.push(vec![
            if policy_name == "MSketch" { "last epoch (paper)" } else { "current epoch" }
                .to_string(),
            report.total_output().to_string(),
        ]);
        json_rows.push(serde_json::json!({
            "ablation": "epoch", "variant": policy_name, "output": report.total_output(),
        }));
    }
    table::print_table(
        "Ablation 2: scoring against last vs current tumbling epoch",
        &["variant".to_string(), "output".to_string()],
        &rows,
    );
    table::print_shape(
        "last-epoch scoring (the paper's design) is at least competitive",
        epoch_outputs[0] as f64 >= 0.8 * epoch_outputs[1] as f64,
    );

    mstream_bench::args::maybe_dump_json(&args.json, &json_rows);
}
