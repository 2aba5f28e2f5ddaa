//! Workload generators reproducing the paper's evaluation inputs (§5).
//!
//! Two families of workloads drive every experiment:
//!
//! * [`RegionsGenerator`] — the synthetic generator of Vitter & Wang (SIGMOD'99) as
//!   configured in the paper's Table 1: rectangular regions uniformly
//!   placed in each relation's attribute space, a Zipfian `z-inter`
//!   distribution across regions and `z-intra` within each region (cells
//!   closer to a region's center are more frequent). Feeding the data
//!   region-phase by region-phase simulates **concept drift**.
//! * [`CensusGenerator`] — a correlated categorical generator standing in for the
//!   CPS census extracts (Age 1–9, Income 1–16, Education 1–6 over three
//!   months); see DESIGN.md §5 for why this substitution preserves the
//!   experiments' behaviour.
//!
//! Both produce a [`Trace`]: a replayable, fully deterministic arrival
//! sequence that the simulation driver timestamps.

//!
//! ```
//! use mstream_workload::{RegionsConfig, RegionsGenerator};
//!
//! let gen = RegionsGenerator::new(RegionsConfig {
//!     tuples_per_relation: 300,
//!     seed: 7,
//!     ..Default::default()
//! }).unwrap();
//! let trace = gen.generate();
//! assert_eq!(trace.len(), 3 * 300);
//! // Deterministic: the same config replays bit-for-bit.
//! assert_eq!(trace, gen.generate());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod census;
mod io;
mod regions;
mod trace;
mod zipf;

pub use census::{CensusConfig, CensusGenerator};
pub use io::{read_trace, trace_to_csv, write_trace, TraceIoError};
pub use regions::{FeedOrder, RegionsConfig, RegionsGenerator};
pub use trace::{Trace, TraceItem};
pub use zipf::Zipf;
