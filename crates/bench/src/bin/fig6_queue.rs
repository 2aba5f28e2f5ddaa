//! Figure 6: performance when the input queue forms — arrivals 5× faster
//! than the join service rate, queue capacity 100 tuples, z-intra 1.6–2.0.
//!
//! Paper shape: MSketch "works much better when a queue is formed" — its
//! productivity measure also makes good queue-shedding decisions, widening
//! the gap over the baselines.
//!
//! ```text
//! cargo run --release -p mstream-bench --bin fig6_queue
//! ```

use mstream_bench::{paper, runner, table, Args};
use mstream_core::prelude::*;

/// The algorithms the paper compares once the queue forms.
const POLICIES: [&str; 4] = ["MSketch", "Bjoin", "Random", "FIFO"];

fn main() {
    let args = Args::from_env();
    let scale = args.scale_or(1.0);
    let query = paper::paper_query(paper::scaled_window(scale));
    let trace = paper::paper_regions(paper::Z_INTRA_RANGES[3], scale, args.seed).generate();
    let opts = RunOptions {
        arrival_rate: paper::ARRIVAL_RATE,
        ..Default::default()
    };
    // "the input rate is 5 times faster than the join processing rate".
    let service_rate = paper::ARRIVAL_RATE / 5.0;
    let header: Vec<String> = std::iter::once("buffer".to_string())
        .chain(POLICIES.iter().map(|p| p.to_string()))
        .collect();
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let mut by_policy: Vec<Vec<u64>> = vec![Vec::new(); POLICIES.len()];
    for pct in paper::MEMORY_GRID {
        let capacity = paper::memory_tuples(pct, scale);
        let mut row = vec![format!("{capacity} ({pct}%)")];
        for (pi, policy) in POLICIES.iter().enumerate() {
            let mut engine = runner::engine_builder(&query, policy, capacity, args.seed)
                .input_queue(service_rate, paper::QUEUE_CAPACITY)
                .build()
                .expect("engine config is valid");
            let report = run_trace(&mut engine, &trace, &opts);
            row.push(report.total_output().to_string());
            by_policy[pi].push(report.total_output());
            json_rows.push(serde_json::json!({
                "figure": "6",
                "memory_pct": pct,
                "policy": policy,
                "output": report.total_output(),
                "shed_queue": report.metrics.shed_queue,
                "processed": report.metrics.processed,
            }));
        }
        rows.push(row);
    }
    table::print_table(
        "Figure 6: #output tuples vs buffer size with the queue formed (k = 5l, queue = 100)",
        &header,
        &rows,
    );
    let dominated = (0..paper::MEMORY_GRID.len()).all(|m| {
        (1..POLICIES.len()).all(|pi| by_policy[0][m] >= by_policy[pi][m])
    });
    table::print_shape("MSketch >= all baselines at every memory point under overload", dominated);
    let total = |pi: usize| by_policy[pi].iter().sum::<u64>() as f64;
    table::print_shape(
        &format!(
            "semantic queue shedding beats drop-oldest (MSketch/FIFO = {:.1}x)",
            total(0) / total(3).max(1.0)
        ),
        total(0) > total(3),
    );
    mstream_bench::args::maybe_dump_json(&args.json, &json_rows);
}
