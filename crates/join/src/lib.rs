//! Multi-way sliding-window join execution.
//!
//! The paper's operator (§2, Figure 1) processes one tuple at a time: when
//! tuple `t` of stream `S_i` reaches the join operator, expired tuples are
//! deleted from every window, the join result produced by `t` against all
//! *other* windows is emitted, and `t` is stored in `W_i`. This crate
//! implements the probing machinery that all engines (shedding or exact)
//! share:
//!
//! * [`ProbePlan`] — a per-origin-stream evaluation order over the join
//!   graph: BFS from the origin so every step probes a hash index on one
//!   driving predicate and verifies any remaining predicates by value.
//! * [`probe_runs_in`] — the one match enumerator. It delivers the probe
//!   tree's two innermost levels as [`Run`]s — a stretch of outer
//!   candidates times the inner candidate list they share — over any
//!   [`StoreLookup`] (a slice of stores, or the multi-query plane's mapped
//!   view of its shared store table): a consumer that counts or credits
//!   per tuple reads a run's length and its two slot lists, once per
//!   block instead of once per result row or per outer candidate.
//! * [`probe_each`] / [`probe_each_in`] / [`probe_count`] — its row-wise
//!   and counting instantiations: every combination of window tuples that
//!   joins with the arriving tuple as a zero-copy [`Bindings`] view
//!   (windowed aggregates, result collection), or just how many.
//! * [`ExactJoin`] — the unbounded-memory reference executor: ground truth
//!   for "ratio of approximate and exact result" (Figure 4) and for the
//!   aggregate/quantile error metrics (Figure 7).

//!
//! ```
//! use mstream_join::ExactJoin;
//! use mstream_types::{Catalog, JoinQuery, StreamId, StreamSchema, VTime, Value, WindowSpec};
//!
//! let mut c = Catalog::new();
//! c.add_stream(StreamSchema::new("L", &["k"]));
//! c.add_stream(StreamSchema::new("R", &["k"]));
//! let query = JoinQuery::from_names(c, &[("L.k", "R.k")], WindowSpec::secs(60)).unwrap();
//!
//! let mut join = ExactJoin::new(query);
//! assert_eq!(join.process(StreamId(0), vec![Value(5)], VTime::ZERO), 0);
//! assert_eq!(join.process(StreamId(1), vec![Value(5)], VTime::from_secs(1)), 1);
//! assert_eq!(join.total_output(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exact;
pub mod plan;
pub mod probe;

pub use exact::ExactJoin;
pub use plan::{PlanStep, ProbePlan};
pub use probe::{
    probe_count, probe_each, probe_each_in, probe_runs_in, Bindings, Run, StoreLookup,
};
