//! Policy runners shared by the figure binaries.

use mstream_core::prelude::*;

/// Builds an engine for `policy_name` with the standard experiment sizing
/// and `capacity` tuples per window.
pub fn build_engine(
    query: &JoinQuery,
    policy_name: &str,
    capacity: usize,
    seed: u64,
) -> ShedJoinEngine {
    engine_builder(query, policy_name, capacity, seed)
        .build()
        .expect("engine config is valid")
}

/// The builder behind [`build_engine`], for runs that add to it (Figure
/// 6's input queue).
pub fn engine_builder(
    query: &JoinQuery,
    policy_name: &str,
    capacity: usize,
    seed: u64,
) -> EngineBuilder {
    let policy =
        parse_policy(policy_name).unwrap_or_else(|| panic!("unknown policy {policy_name}"));
    EngineBuilder::new(query.clone())
        .boxed_policy(policy)
        .capacity_per_window(capacity)
        .bank(BankConfig {
            s1: 1000,
            s2: 1,
            seed: seed ^ 0x5EED,
        })
        .seed(seed)
}

/// Runs one policy over `trace` and returns its report.
pub fn run_policy(
    query: &JoinQuery,
    policy_name: &str,
    capacity: usize,
    trace: &Trace,
    opts: &RunOptions,
    seed: u64,
) -> RunReport {
    let mut engine = build_engine(query, policy_name, capacity, seed);
    run_trace(&mut engine, trace, opts)
}

/// Runs every policy in `policies` and returns `(name, report)` rows.
pub fn run_policies(
    query: &JoinQuery,
    policies: &[&str],
    capacity: usize,
    trace: &Trace,
    opts: &RunOptions,
    seed: u64,
) -> Vec<(String, RunReport)> {
    policies
        .iter()
        .map(|&name| {
            (
                name.to_string(),
                run_policy(query, name, capacity, trace, opts, seed),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;

    #[test]
    fn run_policy_produces_output() {
        let query = paper::paper_query(100);
        let trace = paper::paper_regions((1.0, 1.5), 0.03, 5).generate();
        let opts = RunOptions::default();
        let report = run_policy(&query, "MSketch", 50, &trace, &opts, 1);
        assert!(report.total_output() > 0);
    }

    #[test]
    fn run_policies_covers_lineup() {
        let query = paper::paper_query(100);
        let trace = paper::paper_regions((1.0, 1.5), 0.02, 5).generate();
        let opts = RunOptions::default();
        let rows = run_policies(
            &query,
            &paper::MAX_SUBSET_POLICIES,
            20,
            &trace,
            &opts,
            1,
        );
        assert_eq!(rows.len(), 5);
        assert!(rows.iter().all(|(_, r)| r.metrics.processed > 0));
    }

    #[test]
    #[should_panic(expected = "unknown policy")]
    fn unknown_policy_panics() {
        let query = paper::paper_query(100);
        let _ = build_engine(&query, "nope", 10, 1);
    }
}
