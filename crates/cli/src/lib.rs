//! Implementation of the `mstream` command-line tool.
//!
//! Subcommands:
//!
//! * `mstream run`      — execute a CQL-style query, or a set of them, over
//!   a CSV trace with a chosen shedding policy and memory budget, print a
//!   run report with each query's recall.
//! * `mstream generate` — emit a synthetic workload (the paper's region
//!   generator or the census-like generator) as a CSV trace.
//! * `mstream explain`  — parse a query and print its streams, windows,
//!   predicates and per-origin probe plans.
//! * `mstream policies` — list the built-in shedding policies.
//!
//! The logic lives in this library crate so it is unit-testable; `main.rs`
//! is a thin dispatcher.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod commands;
pub mod opts;

pub use commands::{explain, generate, policies, run};
pub use opts::{CliError, Flags};

/// Entry point shared by `main.rs` and tests: dispatch on the subcommand.
pub fn dispatch(args: &[String], out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let (sub, rest) = args
        .split_first()
        .ok_or_else(|| CliError::usage("missing subcommand"))?;
    let flags = |accepted| Flags::parse(rest, accepted);
    match sub.as_str() {
        "run" => run(&flags(opts::RUN_FLAGS)?, out),
        "generate" => generate(&flags(opts::GENERATE_FLAGS)?, out),
        "explain" => explain(&flags(opts::EXPLAIN_FLAGS)?, out),
        "policies" => flags("").and_then(|_| policies(out)),
        "help" | "--help" | "-h" => flags("").and_then(|_| Ok(write!(out, "{USAGE}")?)),
        other => Err(CliError::usage(format!("unknown subcommand `{other}`"))),
    }
}

/// The top-level usage text.
pub const USAGE: &str = "\
mstream — semantic load shedding for multi-way window joins (ICDE'07 reproduction)

USAGE:
    mstream run      --query <SQL> | --queries <file.json> --trace <file.csv> [options]
    mstream generate --workload regions|census --out <file.csv> [options]
    mstream explain  --query <SQL>
    mstream policies

RUN OPTIONS:
    --query <SQL>        e.g. \"SELECT * FROM L(k) [ROWS 100], R(k) WHERE L.k = R.k\"
    --query-file <path>  read the query from a file instead
    --queries <path>     JSON array of query strings: run them all as standing
                         queries on one shared data plane (--query is the set
                         of one); excludes --query. Every run reports each
                         query's produced/shed counts and its recall against
                         a full-memory companion run of the same set
    --trace <path>       CSV trace: `stream,value,value,...` per line ('-' = stdin)
    --policy <name>      MSketch | MSketch-RS | Age | Bjoin | Random | FIFO
                         (default MSketch)
    --capacity <n>       tuples of memory per window (default 1024)
    --rate <k>           global arrival rate, tuples/second (default 10)
    --service <l>        join service rate; omit for an unbounded operator;
                         excludes --disorder-bound
    --queue <n>          input-queue capacity under overload (default 100)
    --seed <n>           engine seed (default 42)
    --shards <n>         hash-partition across n worker threads when every
                         query's predicates share one key per stream; any other
                         set runs on 1 shard and the report says why;
                         --capacity stays the total budget; the report adds
                         per-shard rows; excludes --service
    --disorder-bound <s> event-time mode: buffer out-of-order arrivals up to s
                         seconds of lateness, release them in timestamp order
                         as the watermark advances, and drop (with accounting)
                         anything later; omit to trust timestamps as given
    --json               print the report as JSON instead of text
    --stage-json         append a JSON object of per-stage wall-clock
                         nanoseconds (sketch_observe_ns, expire_ns, probe_ns,
                         score_ns, insert_ns, priority_rebuild_ns), the
                         rescoring passes run (priority_rebuilds) and
                         estimation-cache counters (packed-sign and
                         productivity score memos); sharded runs include a
                         per_shard breakdown. All but priority_rebuild_ns
                         (exact) are estimates: one arrival in
                         stage_sample_stride is timed and its time
                         multiplied by the stride

GENERATE OPTIONS:
    --workload <w>       regions (Table-1 synthetic) | census
    --out <path>         output CSV path ('-' = stdout)
    --tuples <n>         tuples per relation/month (default 1000)
    --z <lo,hi>          regions: z-intra range (default 1.6,2.0)
    --drift              regions: feed in region phases with drift markers
    --seed <n>           generator seed (default 42)
";
