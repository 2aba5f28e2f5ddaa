//! The A/A comparison behind `aa.sh`: two result files from the same
//! commit, every end-to-end metric of every workload against its bound.

use crate::metrics::END_TO_END;
use serde_json::Value as Json;
use std::path::Path;
use std::process::ExitCode;

/// Counts that must repeat exactly on the same commit and seed. The
/// allocation count is exempt where worker threads allocate concurrently.
const EXACT: [&str; 4] = [
    "recall",
    "core.rows_out",
    "shed.window_shed",
    "core.steady_allocs_per_karrival",
];

/// How two runs of one metric on one workload relate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The two values lie within the bound and so does each run's spread.
    Agree,
    /// A run's own spread is wider than the bound: nothing can be said.
    Unresolved,
    /// The two values lie further apart than the bound.
    Differ,
}

/// Judges one cell: the two runs' values `a` and `b`, each run's own spread
/// (see `stats::fastest_and_spread`), and the metric's bound.
pub fn judge(a: f64, b: f64, spread_a: f64, spread_b: f64, bound: f64) -> Verdict {
    let apart = (a - b).abs() / a.abs().max(f64::MIN_POSITIVE);
    if apart > bound {
        Verdict::Differ
    } else if spread_a.max(spread_b) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Agree
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn find_run<'a>(file: &'a Json, workload: &str, traced: bool) -> Option<&'a Json> {
    file["runs"]
        .as_array()?
        .iter()
        .find(|r| r["workload"] == workload && r["traced"] == traced)
}

fn metric(run: &Json, name: &str) -> Option<f64> {
    run["metrics"]
        .as_object()?
        .iter()
        .find(|(k, _)| k == name)?
        .1["value"]
        .as_f64()
}

/// A run's own spread of metric `name`, as the harness recorded it under
/// `info.spread` (1 when missing, so the cell cannot read `agree`).
fn own_spread(run: &Json, name: &str) -> f64 {
    run["info"]["spread"][name].as_f64().unwrap_or(1.0)
}

/// Compares two result files and prints one verdict per cell. Fails on
/// any `differ`, `unresolved` or mismatching exact count.
pub fn compare_files(a: &Path, b: &Path) -> ExitCode {
    let (fa, fb) = match (load(a), load(b)) {
        (Ok(fa), Ok(fb)) => (fa, fb),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let workloads: Vec<&str> = fa["runs"]
        .as_array()
        .map(|runs| {
            let mut names: Vec<&str> = runs.iter().filter_map(|r| r["workload"].as_str()).collect();
            names.dedup();
            names
        })
        .unwrap_or_default();
    let mut bad = 0;
    println!(
        "{:<14} {:<22} {:>16} {:>16} {:>8} {:>8}  verdict",
        "workload", "metric", "first", "second", "apart", "bound"
    );
    for w in &workloads {
        if let (Some(ra), Some(rb)) = (find_run(&fa, w, false), find_run(&fb, w, false)) {
            for (name, _, _, bound) in END_TO_END {
                let (Some(va), Some(vb)) = (metric(ra, name), metric(rb, name)) else {
                    println!("{w:<14} {name:<22} missing in one file");
                    bad += 1;
                    continue;
                };
                let (sa, sb) = (own_spread(ra, name), own_spread(rb, name));
                let verdict = judge(va, vb, sa, sb, bound);
                if verdict != Verdict::Agree {
                    bad += 1;
                }
                let apart = (va - vb).abs() / va.abs().max(f64::MIN_POSITIVE);
                println!(
                    "{w:<14} {name:<22} {va:>16.6} {vb:>16.6} {apart:>8.4} {bound:>8.2}  {}",
                    format!("{verdict:?}").to_lowercase()
                );
            }
        }
        for name in EXACT {
            let traced = name != "recall";
            let (Some(ra), Some(rb)) = (find_run(&fa, w, traced), find_run(&fb, w, traced)) else {
                continue;
            };
            let threaded = ra["info"]["workers"].as_u64().unwrap_or(1) > 1;
            if name == "core.steady_allocs_per_karrival" && (threaded || *w == "keyed_sharded") {
                continue;
            }
            let (va, vb) = (metric(ra, name), metric(rb, name));
            let same = va == vb;
            if !same {
                bad += 1;
            }
            println!(
                "{w:<14} {name:<38} {:>18} {:>18}  {}",
                va.map_or("-".to_string(), |v| v.to_string()),
                vb.map_or("-".to_string(), |v| v.to_string()),
                if same { "identical" } else { "MISMATCH" }
            );
        }
    }
    if workloads.is_empty() {
        eprintln!("error: {} holds no runs", a.display());
        return ExitCode::from(2);
    }
    if bad == 0 {
        println!("A/A: every cell agrees");
        ExitCode::SUCCESS
    } else {
        println!("A/A: {bad} cell(s) do not agree");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        assert_eq!(judge(100.0, 104.0, 0.01, 0.02, 0.10), Verdict::Agree);
        assert_eq!(judge(100.0, 89.0, 0.01, 0.02, 0.10), Verdict::Differ);
        assert_eq!(judge(100.0, 111.0, 0.01, 0.02, 0.10), Verdict::Differ);
        // Close values mean nothing when a run's own passes scatter more
        // than the bound.
        assert_eq!(judge(100.0, 101.0, 0.01, 0.15, 0.10), Verdict::Unresolved);
        assert_eq!(judge(1.0, 1.0, 0.0, 0.0, 0.0), Verdict::Agree);
    }
}
