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
    case_seed, generate_case, install_quiet_hook, run_case, shrink_case, Case, Churn, Failure,
};

const USAGE: &str = "usage:
  mstream-audit sweep --cases <N> [--seed <S>]
  mstream-audit replay <seed>";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("sweep") => sweep(&args[1..]),
        Some("replay") => replay(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

fn sweep(args: &[String]) -> i32 {
    let (mut cases, mut master) = (100u64, 1u64);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(Ok(value)) = it.next().map(|v| v.parse::<u64>()) else {
            eprintln!("missing or invalid number for {flag}\n{USAGE}");
            return 2;
        };
        match flag.as_str() {
            "--cases" => cases = value,
            "--seed" => master = value,
            _ => {
                eprintln!("unknown flag {flag}\n{USAGE}");
                return 2;
            }
        }
    }
    install_quiet_hook();
    // Class counts: a sweep in which one stays zero watched nothing there.
    let mut n = [0usize; 15];
    for i in 0..cases {
        let case = generate_case(case_seed(master, i));
        let stats = match run_case(&case) {
            Ok(stats) => stats,
            Err(failure) => {
                report(&case, &failure);
                return 1;
            }
        };
        let size = case.queries.len();
        let classes = [
            case.trace.arrivals.len(),
            case.registered(&case.trace).len(),
            usize::from(size == 1),
            usize::from(size > 1),
            usize::from(case.has_churn()),
            usize::from(!case.disorder.is_zero()),
            usize::from(stats.late_probe),
            usize::from(stats.deferred),
            usize::from(stats.idle),
            usize::from(stats.skewed_sharded),
            usize::from(case.mixed_arity()),
            usize::from(case.spills()),
            usize::from(case.queue.is_some()),
            usize::from(stats.shared_signs),
            usize::from(case.wide_bank),
        ];
        for (total, c) in n.iter_mut().zip(classes) {
            *total += c;
        }
        if (i + 1) % 25 == 0 {
            eprintln!("  … {}/{cases} cases clean", i + 1);
        }
    }
    println!(
        "audit sweep: {cases} cases ({} arrivals, {} standing queries; {} one-query sets, \
         {} multi-query sets, {} churn cases, {} disorder cases, {} late-drop probes, \
         {} deferred cases, {} idle-estimation cases, {} skewed-key sharded cases, \
         {} mixed-arity cases, {} spill cases, {} queued cases, {} shared-sign cases, \
         {} wide-bank cases) — every \
         query matches its exact \
         oracle at 100% memory (and in process when no window can fill; queued, when the queue \
         is transparent) and is a sub-multiset of it when shedding, for every policy in process \
         and sharded; event-time runs reproduce the in-order runs; beyond-bound arrivals are \
         dropped and counted; queued runs process or queue-shed every arrival once; store owners \
         replay their solo runs; sharded runs honour the partitioning contract; the score-cache \
         (odd seeds) and plain/eager (even seeds) A/B pairs are bit-identical; zero invariant \
         violations",
        n[0],
        n[1],
        n[2],
        n[3],
        n[4],
        n[5],
        n[6],
        n[7],
        n[8],
        n[9],
        n[10],
        n[11],
        n[12],
        n[13],
        n[14]
    );
    0
}

fn replay(args: &[String]) -> i32 {
    let Some(Ok(seed)) = args.first().map(|s| s.parse::<u64>()) else {
        eprintln!("{USAGE}");
        return 2;
    };
    install_quiet_hook();
    let case = generate_case(seed);
    match run_case(&case) {
        Ok(_) => {
            println!("seed {seed}: PASS ({})", describe(&case));
            0
        }
        Err(failure) => {
            report(&case, &failure);
            1
        }
    }
}

fn report(case: &Case, failure: &Failure) {
    eprintln!("AUDIT FAILURE");
    eprintln!("  seed:    {}", case.seed);
    eprintln!("  case:    {}", describe(case));
    eprintln!("  failure: {failure}");
    eprintln!(
        "  replay:  cargo run -p mstream-audit -- replay {}",
        case.seed
    );
    eprintln!(
        "  shrinking {} arrivals (greedy, may take a moment)…",
        case.trace.arrivals.len()
    );
    let minimal = shrink_case(case);
    eprintln!(
        "  minimal failing trace ({} arrivals, {} churn events):",
        minimal.arrivals.len(),
        minimal.churn.len()
    );
    for i in 0..=minimal.arrivals.len() {
        for (_, event) in minimal.churn.iter().filter(|(at, _)| *at == i) {
            eprintln!("    {}", describe_churn(event));
        }
        if let Some(a) = minimal.arrivals.get(i) {
            let (r, values, at) = (a.stream + 1, &a.values, a.at_micros);
            eprintln!("    #{i}: R{r} values {values:?} at {at}µs");
        }
    }
}

fn describe_churn(event: &Churn) -> String {
    match event {
        Churn::Remove(q) => format!("remove_query q{q}"),
        Churn::Add(query) => format!("add_query {query:?}"),
    }
}

fn describe(case: &Case) -> String {
    let queries: Vec<String> = case
        .queries
        .iter()
        .zip(&case.kinds)
        .map(|(q, kind)| {
            let streams: Vec<&str> = q.catalog().iter().map(|(_, s)| s.name.as_str()).collect();
            let windows: Vec<String> = q.windows().iter().map(|w| format!("{w:?}")).collect();
            format!(
                "{kind:?}({}; {} predicates; windows {}; {:?})",
                streams.join(","),
                q.predicates().len(),
                windows.join(","),
                q.partitioning()
            )
        })
        .collect();
    let churn: Vec<String> = case
        .trace
        .churn
        .iter()
        .map(|(at, e)| format!("{} before #{at}", describe_churn(e)))
        .collect();
    let queue = match case.queue {
        Some(q) => format!("queue {} at {}/s", q.capacity, q.service_rate),
        None => "no queue".into(),
    };
    format!(
        "{} queries [{}], arities {:?}, epoch {:?}, {} sketch copies, reduced cap {}/window, \
         {} shards, K = {}µs, {queue}, {} arrivals, churn [{}]",
        case.queries.len(),
        queries.join(" "),
        case.arity,
        case.epoch,
        if case.wide_bank { 1000 } else { 32 },
        case.capacity,
        case.shards,
        case.disorder.as_micros(),
        case.trace.arrivals.len(),
        churn.join(", ")
    )
}
