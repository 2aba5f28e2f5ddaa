//! The repository's benchmark (see `BENCHMARK.json` and `README.md`).
//!
//! * [`workloads`] — the six named workloads, generated from `--seed`.
//! * [`engines`] — builds the engine under test and replays a workload.
//! * [`oracle`] — the exact reference the outputs are checked against.
//! * [`layers`] — drives each layer's public functions alone.
//! * [`harness`] — passes, correctness checks and metric assembly;
//!   [`metrics`] names what it reports, [`compare`] is the A/A check.
//! * [`span`], [`stats`], [`alloc`] — spans, order statistics and the
//!   counting allocator underneath them.

#![warn(missing_docs)]

pub mod alloc;
pub mod compare;
pub mod engines;
pub mod harness;
pub mod layers;
pub mod metrics;
pub mod oracle;
pub mod span;
pub mod stats;
pub mod workloads;

/// Every allocation of the process — harness, engine and the engine's
/// worker threads alike — goes through this counter.
#[global_allocator]
pub static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc::new();
