//! `mstream-audit` — differential audit harness CLI.
//!
//! ```text
//! mstream-audit sweep --cases N [--seed S]   random sweep of N cases
//! mstream-audit replay <seed>                re-run one case by seed
//! ```
//!
//! Exit status: 0 if every case passed, 1 on the first failure (after
//! printing a replay line and a shrunk minimal trace), 2 on usage errors.

use mstream_audit::{
    case_seed, generate_case, generate_multi_case, install_quiet_hook, run_case,
    run_disorder_case, run_multi_case, shrink_case, Arrival, Case, Failure, MultiCase,
    ReducedMemory,
};
use mstream_types::StreamId;

const USAGE: &str = "usage:
  mstream-audit sweep --cases <N> [--seed <S>]
  mstream-audit replay <seed>
  mstream-audit disorder --cases <N> [--seed <S>]
  mstream-audit disorder-replay <seed>
  mstream-audit multi --cases <N> [--seed <S>]
  mstream-audit multi-replay <seed>";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("sweep") => sweep(&args[1..]),
        Some("replay") => replay(&args[1..]),
        Some("disorder") => disorder(&args[1..]),
        Some("disorder-replay") => disorder_replay(&args[1..]),
        Some("multi") => multi(&args[1..]),
        Some("multi-replay") => multi_replay(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

fn sweep(args: &[String]) -> i32 {
    let mut cases = 100u64;
    let mut master = 1u64;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            eprintln!("{USAGE}");
            return 2;
        };
        let Ok(parsed) = value.parse::<u64>() else {
            eprintln!("invalid number for {flag}: {value}\n{USAGE}");
            return 2;
        };
        match flag.as_str() {
            "--cases" => cases = parsed,
            "--seed" => master = parsed,
            _ => {
                eprintln!("unknown flag {flag}\n{USAGE}");
                return 2;
            }
        }
    }
    silence_panics();
    let mut arrivals_total = 0usize;
    let mut deferred_cases = 0usize;
    for i in 0..cases {
        let seed = case_seed(master, i);
        let case = generate_case(seed);
        arrivals_total += case.arrivals.len();
        match run_case(&case) {
            Ok(stats) => deferred_cases += usize::from(stats.deferred),
            Err(failure) => {
                report(&case, &failure);
                return 1;
            }
        }
        if (i + 1) % 25 == 0 {
            eprintln!("  … {}/{cases} cases clean", i + 1);
        }
    }
    println!(
        "audit sweep: {cases} cases ({arrivals_total} arrivals, {deferred_cases} deferred \
         cases in which a window owed its priorities) — all policies match the \
         exact oracle at 100% memory (single-engine and sharded), all shed runs are \
         sub-multisets, sharded runs honour the partitioning contract, score-cache \
         on/off A/B runs are bit-identical on every odd-seed case and plain/eager A/B \
         runs on every even-seed case, zero invariant violations"
    );
    0
}

fn replay(args: &[String]) -> i32 {
    let Some(Ok(seed)) = args.first().map(|s| s.parse::<u64>()) else {
        eprintln!("{USAGE}");
        return 2;
    };
    silence_panics();
    let case = generate_case(seed);
    match run_case(&case) {
        Ok(_) => {
            println!("seed {seed}: PASS ({} arrivals)", case.arrivals.len());
            0
        }
        Err(failure) => {
            report(&case, &failure);
            1
        }
    }
}

fn disorder(args: &[String]) -> i32 {
    let mut cases = 100u64;
    let mut master = 1u64;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            eprintln!("{USAGE}");
            return 2;
        };
        let Ok(parsed) = value.parse::<u64>() else {
            eprintln!("invalid number for {flag}: {value}\n{USAGE}");
            return 2;
        };
        match flag.as_str() {
            "--cases" => cases = parsed,
            "--seed" => master = parsed,
            _ => {
                eprintln!("unknown flag {flag}\n{USAGE}");
                return 2;
            }
        }
    }
    silence_panics();
    let mut arrivals_total = 0usize;
    for i in 0..cases {
        let seed = case_seed(master, i);
        let case = generate_case(seed);
        arrivals_total += case.arrivals.len();
        if let Err(failure) = run_disorder_case(&case) {
            report_disorder(&case, &failure);
            return 1;
        }
        if (i + 1) % 25 == 0 {
            eprintln!("  … {}/{cases} disorder cases clean", i + 1);
        }
    }
    println!(
        "disorder audit: {cases} cases ({arrivals_total} arrivals) — K=0 runs are \
         bit-identical to the trusting engine, covered disorder reproduces the in-order \
         output for every policy (single-engine and sharded, S ∈ {{1, 2, 4}}), \
         beyond-bound lateness is dropped, counted, and never joined, and event-time \
         score-cache A/B runs are bit-identical on every odd-seed case"
    );
    0
}

fn disorder_replay(args: &[String]) -> i32 {
    let Some(Ok(seed)) = args.first().map(|s| s.parse::<u64>()) else {
        eprintln!("{USAGE}");
        return 2;
    };
    silence_panics();
    let case = generate_case(seed);
    match run_disorder_case(&case) {
        Ok(()) => {
            println!("seed {seed}: PASS ({} arrivals)", case.arrivals.len());
            0
        }
        Err(failure) => {
            report_disorder(&case, &failure);
            1
        }
    }
}

fn multi(args: &[String]) -> i32 {
    let mut cases = 100u64;
    let mut master = 1u64;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            eprintln!("{USAGE}");
            return 2;
        };
        let Ok(parsed) = value.parse::<u64>() else {
            eprintln!("invalid number for {flag}: {value}\n{USAGE}");
            return 2;
        };
        match flag.as_str() {
            "--cases" => cases = parsed,
            "--seed" => master = parsed,
            _ => {
                eprintln!("unknown flag {flag}\n{USAGE}");
                return 2;
            }
        }
    }
    silence_panics();
    let mut arrivals_total = 0usize;
    let mut queries_total = 0usize;
    let mut churn_cases = 0usize;
    let mut deferred_cases = 0usize;
    for i in 0..cases {
        let seed = case_seed(master, i);
        let case = generate_multi_case(seed);
        arrivals_total += case.arrivals.len();
        queries_total += case.registered().len();
        churn_cases += usize::from(case.has_churn());
        match run_multi_case(&case) {
            Ok(stats) => deferred_cases += usize::from(stats.deferred),
            Err(failure) => {
                report_multi(&case, &failure);
                return 1;
            }
        }
        if (i + 1) % 25 == 0 {
            eprintln!("  … {}/{cases} multi-query cases clean", i + 1);
        }
    }
    println!(
        "multi-query audit: {cases} cases ({queries_total} standing queries, \
         {arrivals_total} arrivals, {churn_cases} churn cases with a mid-trace add_query or \
         remove_query, {deferred_cases} deferred cases in which a shared store owed its \
         priorities) — every query's shared-plane output matches its solo exact oracle \
         over the arrivals it was registered for at 100% memory for every policy \
         (in-process and sharded S ∈ {{1, 2}}), \
         every shed run is a per-query sub-multiset, keyed sets run at full width, \
         score-cache on/off A/B runs are bit-identical on every odd-seed case and \
         plain/eager A/B runs on every even-seed case, zero invariant violations"
    );
    0
}

fn multi_replay(args: &[String]) -> i32 {
    let Some(Ok(seed)) = args.first().map(|s| s.parse::<u64>()) else {
        eprintln!("{USAGE}");
        return 2;
    };
    silence_panics();
    let case = generate_multi_case(seed);
    match run_multi_case(&case) {
        Ok(_) => {
            println!(
                "seed {seed}: PASS ({} queries, {} arrivals)",
                case.queries.len(),
                case.arrivals.len()
            );
            0
        }
        Err(failure) => {
            report_multi(&case, &failure);
            1
        }
    }
}

/// Invariant violations unwind as panics dozens of times during a shrink;
/// the quiet hook suppresses the backtrace spray while recording each
/// panic's message and location for the report.
fn silence_panics() {
    install_quiet_hook();
}

fn report(case: &Case, failure: &Failure) {
    eprintln!("AUDIT FAILURE");
    eprintln!("  seed:    {}", case.seed);
    eprintln!("  query:   {}", describe(case));
    eprintln!("  failure: {failure}");
    eprintln!("  replay:  cargo run -p mstream-audit -- replay {}", case.seed);
    eprintln!(
        "  shrinking {} arrivals (greedy, may take a moment)…",
        case.arrivals.len()
    );
    let minimal = shrink_case(case);
    eprintln!("  minimal failing trace ({} arrivals):", minimal.len());
    for (i, a) in minimal.iter().enumerate() {
        eprintln!("    {}", describe_arrival(i, a));
    }
}

/// Disorder failures are reported without the shrink pass: the shrinker
/// minimises against the exactness differential, which a disorder-contract
/// violation generally does not trip.
fn report_disorder(case: &Case, failure: &Failure) {
    eprintln!("DISORDER AUDIT FAILURE");
    eprintln!("  seed:    {}", case.seed);
    eprintln!("  query:   {}", describe(case));
    eprintln!("  failure: {failure}");
    eprintln!(
        "  replay:  cargo run -p mstream-audit -- disorder-replay {}",
        case.seed
    );
}

/// Multi-query failures are reported without the shrink pass (the shrinker
/// minimises solo cases against the single-engine differential).
fn report_multi(case: &MultiCase, failure: &Failure) {
    eprintln!("MULTI-QUERY AUDIT FAILURE");
    eprintln!("  seed:    {}", case.seed);
    eprintln!("  set:     {}", describe_multi(case));
    eprintln!("  failure: {failure}");
    eprintln!(
        "  replay:  cargo run -p mstream-audit -- multi-replay {}",
        case.seed
    );
}

fn describe_multi(case: &MultiCase) -> String {
    let queries: Vec<String> = case
        .queries
        .iter()
        .zip(&case.kinds)
        .map(|(q, kind)| {
            let streams: Vec<&str> = q
                .catalog()
                .iter()
                .map(|(_, s)| s.name.as_str())
                .collect();
            format!("{kind:?}({})", streams.join(","))
        })
        .collect();
    let remove = case.remove.map(|(q, at)| format!(", remove q{q} before #{at}"));
    let add = case.add.as_ref().map(|(q, at)| {
        let streams: Vec<&str> = q.catalog().iter().map(|(_, s)| s.name.as_str()).collect();
        format!(", add ({}) before #{at}", streams.join(","))
    });
    format!(
        "{} queries [{}], epoch {:?}, cap {}/window, keyed {}, {} arrivals{}{}",
        case.queries.len(),
        queries.join(" "),
        case.epoch,
        case.capacity,
        case.keyed,
        case.arrivals.len(),
        remove.unwrap_or_default(),
        add.unwrap_or_default()
    )
}

fn describe(case: &Case) -> String {
    let windows: Vec<String> = (0..case.n_streams())
        .map(|k| format!("{:?}", case.query.window(StreamId(k))))
        .collect();
    let memory = match &case.reduced {
        ReducedMemory::PerWindow(c) => format!("cap {c}/window"),
        ReducedMemory::PerWindowEach(cs) => format!("caps {cs:?}"),
        ReducedMemory::GlobalPool(total) => format!("pool {total}"),
    };
    format!(
        "{} streams, {} predicates, windows [{}], epoch {:?}, reduced {}, {} shards ({:?})",
        case.n_streams(),
        case.query.predicates().len(),
        windows.join(", "),
        case.epoch,
        memory,
        case.shards,
        case.query.partitioning(),
    )
}

fn describe_arrival(i: usize, a: &Arrival) -> String {
    format!(
        "#{i}: stream {} values {:?} at {}µs",
        a.stream, a.values, a.at_micros
    )
}
