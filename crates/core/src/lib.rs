//! # mstream-core
//!
//! A from-scratch reproduction of **"Load Shedding for Window Joins on
//! Multiple Data Streams"** (Yan-Nei Law & Carlo Zaniolo, ICDE 2007): a
//! multi-way sliding-window join operator that keeps running under memory
//! pressure and overload by *semantically* shedding load — evicting the
//! tuples that contribute least to the join result, as estimated by
//! fast-and-light AGMS sketches over tumbling windows.
//!
//! ## Quick start
//!
//! ```
//! use mstream_core::prelude::*;
//!
//! // Three streams joined in a chain: R1.A1 = R2.A1 and R2.A2 = R3.A1,
//! // over 100-second sliding windows.
//! let mut catalog = Catalog::new();
//! catalog.add_stream(StreamSchema::new("R1", &["A1", "A2"]));
//! catalog.add_stream(StreamSchema::new("R2", &["A1", "A2"]));
//! catalog.add_stream(StreamSchema::new("R3", &["A1", "A2"]));
//! let query = JoinQuery::from_names(
//!     catalog,
//!     &[("R1.A1", "R2.A1"), ("R2.A2", "R3.A1")],
//!     WindowSpec::secs(100),
//! ).unwrap();
//!
//! // An MSketch-shedding engine holding at most 64 tuples per window.
//! let mut engine = EngineBuilder::new(query)
//!     .policy(MSketch)
//!     .capacity_per_window(64)
//!     .build()
//!     .unwrap();
//!
//! // Feed a few arrivals by hand (real runs use `run_trace`). Results
//! // flow into a sink; `CountSink` just counts them.
//! let mut sink = CountSink::default();
//! let o = engine.ingest(Arrival::new(StreamId(1), vec![Value(7), Value(3)], VTime::from_secs(1)), &mut sink);
//! assert_eq!(o.produced, 0); // nothing to join against yet
//! let o = engine.ingest(Arrival::new(StreamId(2), vec![Value(3), Value(0)], VTime::from_secs(2)), &mut sink);
//! assert_eq!(o.produced, 0); // still missing the R1 side
//! let o = engine.ingest(Arrival::new(StreamId(0), vec![Value(7), Value(9)], VTime::from_secs(3)), &mut sink);
//! assert_eq!(o.produced, 1); // completes one 3-way result
//! assert!(o.stored);
//! assert_eq!(sink.produced, 1);
//! assert_eq!(engine.metrics().total_output, 1);
//! ```
//!
//! ## Crate map
//!
//! * [`multi`] — [`MultiQueryEngine`], the one in-process engine:
//!   Algorithm 1 of the paper over shared window stores, for N standing
//!   queries; [`ShedJoinEngine`] is the same engine with one query.
//! * [`engine`] — what it is made of: configuration, the reorder stage,
//!   and the per-query core (tumbling sketches, priority queues,
//!   per-policy state).
//! * [`ingest`] — the unified feed API: [`Arrival`] in, join results out
//!   through an [`EmitSink`].
//! * [`shard`] — [`ShardedJoinEngine`]: hash-partitioned parallel
//!   execution across worker threads, when the query's predicates allow.
//! * [`sim`] — the discrete-event driver: arrival rate `k`, service rate
//!   `l`, the bounded input queue, and overload shedding.
//! * [`builder`] — [`EngineBuilder`], the one documented construction path.
//! * [`report`] — run reports: output counts, per-bucket series, collected
//!   aggregate values, shedding counters, wall-clock time.
//!
//! Re-exported substrate crates: [`mstream_types`] (values/queries),
//! [`mstream_sketch`] (AGMS sketches), [`mstream_window`] (stores/queues),
//! [`mstream_join`] (probe plans + exact reference join),
//! [`mstream_shed_policies`] (the seven policies), [`mstream_workload`]
//! (paper workloads) and [`mstream_agg`] (aggregates/metrics).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod clock;
/// The eager reference policy the deferral tests compare against.
#[cfg(test)]
#[path = "../../../tests/support/eager.rs"]
mod eager;
pub mod engine;
pub mod ingest;
pub mod multi;
mod multi_shard;
pub mod report;
pub mod shard;
pub mod sim;

pub use builder::{BuildError, EngineBuilder};
pub use engine::{EngineConfig, MemoryMode, ShedJoinEngine};
pub use ingest::{
    Arrival, CountSink, EmitSink, FnSink, IngestOutcome, IngestRole, QueryFnSink, QueryRowsSink,
    VecSink,
};
pub use multi::{MultiQueryEngine, MultiRunReport, QueryStats, ShardedMultiEngine};
pub use report::{EngineMetrics, RunReport};
pub use shard::{Backpressure, HotKeyConfig, ShardConfig, ShardedJoinEngine, ShardedRunReport};
pub use sim::{run_exact_trace, run_trace, RunOptions, SimConfig};

// Re-export the substrate crates under their own names…
pub use mstream_agg;
pub use mstream_join;
pub use mstream_shed_policies;
pub use mstream_sketch;
pub use mstream_types;
pub use mstream_window;
pub use mstream_workload;

/// One-stop imports for applications and examples.
pub mod prelude {
    pub use crate::builder::{BuildError, EngineBuilder};
    pub use crate::engine::{EngineConfig, MemoryMode, ShedJoinEngine};
    pub use crate::ingest::{
        Arrival, CountSink, EmitSink, FnSink, IngestOutcome, IngestRole, QueryFnSink,
        QueryRowsSink, VecSink,
    };
    pub use crate::multi::{MultiQueryEngine, MultiRunReport, QueryStats, ShardedMultiEngine};
    pub use crate::report::{EngineMetrics, RunReport};
    pub use crate::shard::{Backpressure, HotKeyConfig, ShardConfig, ShardedJoinEngine, ShardedRunReport};
    pub use crate::sim::{run_exact_trace, run_trace, RunOptions, SimConfig};
    pub use mstream_agg::{quartiles, Reservoir, SeriesComparison};
    pub use mstream_join::{Bindings, ExactJoin};
    pub use mstream_shed_policies::{
        parse_policy, Age, Bjoin, Fifo, Life, MSketch, MSketchCurrentEpoch, MSketchRs,
        RandomLoad, ShedPolicy, ALL_POLICY_NAMES,
    };
    pub use mstream_sketch::{BankConfig, EpochSpec};
    pub use mstream_types::{
        AttrRef, Catalog, EquiPredicate, JoinQuery, Partitioning, QueryId, SeqNo, StreamId,
        StreamSchema, Tuple, VDur, VTime, Value, WindowSpec,
    };
    pub use mstream_workload::{
        CensusConfig, CensusGenerator, FeedOrder, RegionsConfig, RegionsGenerator, Trace,
    };
}
