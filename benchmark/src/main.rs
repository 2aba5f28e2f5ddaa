//! Command line of the benchmark; `run.sh` builds and invokes it.
//!
//! ```text
//! mstream-benchmark [--workload <name>|all] [--seed N] [--seconds S]
//!                   [--trace 0|1|both] [--reverse] [--out-dir DIR] [--results FILE]
//! mstream-benchmark compare <results-a.json> <results-b.json>
//! ```
//!
//! Prints every metric by name with its unit, then — as the last line of
//! standard output — one JSON object per the benchmark contract for the
//! last workload and mode run. Exits non-zero if any correctness check
//! failed.

use mstream_benchmark::compare::compare_files;
use mstream_benchmark::harness::{run_end_to_end, run_per_layer, Report, RunOptions};
use mstream_benchmark::workloads::workload_names;
use serde_json::{json, Value as Json};
use std::path::PathBuf;
use std::process::ExitCode;

/// Environment pins that select an engine variant; the benchmark measures
/// the default one only.
const PINS: [&str; 2] = ["MSTREAM_KERNEL", "MSTREAM_SCORE_CACHE"];

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    modes: Vec<bool>,
    out_dir: Option<PathBuf>,
    results: Option<PathBuf>,
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("error: {problem}");
    eprintln!(
        "usage: run.sh [--workload <name>|all] [--seed N] [--seconds S] [--trace 0|1|both] \
         [--reverse] [--out-dir DIR] [--results FILE]\n       run.sh compare <a.json> <b.json>"
    );
    eprintln!(
        "workloads: {}",
        workload_names().collect::<Vec<_>>().join(", ")
    );
    ExitCode::from(2)
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: workload_names().collect(),
        seed: 42,
        seconds: 30.0,
        modes: vec![false, true],
        out_dir: None,
        results: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if name != "all" {
                    let known = workload_names().find(|w| w == name);
                    args.workloads =
                        vec![known.ok_or_else(|| format!("unknown workload `{name}`"))?];
                }
            }
            "--seed" => {
                let v = value()?;
                args.seed = v
                    .parse()
                    .map_err(|_| format!("--seed takes a whole number, got `{v}`"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| (1.0..=60.0).contains(s))
                    .ok_or_else(|| format!("--seconds takes 1 to 60, got `{v}`"))?;
            }
            "--trace" => {
                args.modes = match value()?.as_str() {
                    "0" => vec![false],
                    "1" => vec![true],
                    "both" => vec![false, true],
                    other => return Err(format!("--trace takes 0, 1 or both, got `{other}`")),
                };
            }
            "--reverse" => args.workloads.reverse(),
            "--out-dir" => args.out_dir = Some(PathBuf::from(value()?)),
            "--results" => args.results = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn environment(args: &Args) -> Json {
    let env_or_unknown = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
    json!({
        "nproc": std::thread::available_parallelism().map_or(1, usize::from),
        "cpu_model": cpu_model(),
        "rustc": env_or_unknown("MSTREAM_BENCH_RUSTC"),
        "git_commit": env_or_unknown("MSTREAM_BENCH_COMMIT"),
        "seed": args.seed,
        "seconds": args.seconds,
    })
}

fn print_report(report: &Report) {
    let mode = if report.traced {
        "per-layer (traced run)"
    } else {
        "end-to-end"
    };
    println!("\n== {} · {mode} ==", report.workload);
    let info = &report.info;
    println!(
        "   {} arrivals, {} rows out, {} oracle rows, nproc {}, workers {}, {} timed passes",
        info["arrivals"],
        info["rows_out"],
        info["oracle_rows"],
        info["nproc"],
        info["workers"],
        info["timed_passes"]
    );
    println!("   {}", info["params"].as_str().unwrap_or(""));
    for (name, value) in &report.metrics {
        // A metric that does not apply to this workload is not printed.
        if let Some(v) = value {
            println!("   {name:<38} {v:>18.6} {}", Report::unit(name));
        }
    }
    println!(
        "   {:<38} {:>18.6} ratio",
        "failed_share",
        report.failed_share()
    );
    if let Some(slow) = info["slow_passes"].as_array().filter(|s| !s.is_empty()) {
        println!("   timed passes over 1.5x the median: {slow:?}");
    }
    for check in &report.checks {
        let mark = if check.passed { "ok  " } else { "FAIL" };
        println!("   [{mark}] {} — {}", check.name, check.detail);
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match (argv.get(1), argv.get(2)) {
            (Some(a), Some(b)) if argv.len() == 3 => compare_files(a.as_ref(), b.as_ref()),
            _ => usage("compare takes two results files"),
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(problem) => return usage(&problem),
    };
    for pin in PINS {
        if std::env::var_os(pin).is_some() {
            eprintln!(
                "error: {pin} is set; the benchmark measures the default engine only — unset it"
            );
            return ExitCode::from(2);
        }
    }
    let opts = RunOptions {
        seed: args.seed,
        seconds: args.seconds,
        out_dir: args.out_dir.clone(),
    };
    let mut records = Vec::new();
    let mut last_line = None;
    let mut all_correct = true;
    for &name in &args.workloads {
        for &traced in &args.modes {
            let report = if traced {
                run_per_layer(name, &opts)
            } else {
                run_end_to_end(name, &opts)
            }
            .expect("workload names were validated");
            print_report(&report);
            all_correct &= report.correct();
            records.push(report.to_json());
            last_line = Some(report.result_line());
        }
    }
    let results = json!({"environment": environment(&args), "runs": records});
    let path = args
        .results
        .or_else(|| args.out_dir.as_ref().map(|d| d.join("results.json")));
    if let Some(path) = path {
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| {
                std::fs::write(
                    &path,
                    serde_json::to_string_pretty(&results).expect("serializable"),
                )
            });
        if let Err(e) = written {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("\nresults written to {}", path.display());
    }
    println!("{}", last_line.expect("at least one workload ran"));
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
