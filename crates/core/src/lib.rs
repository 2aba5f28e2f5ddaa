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
//! * [`MultiQueryEngine`] — the one in-process engine: Algorithm 1 of the
//!   paper over shared window stores, for N standing queries;
//!   [`ShedJoinEngine`] is the same engine with one query. Two optional
//!   stages sit in front of it: the reorder stage
//!   ([`EngineBuilder::disorder_bound`]) and the overload input queue
//!   ([`EngineBuilder::input_queue`]).
//! * [`Arrival`] in, join results out through an [`EmitSink`] — the
//!   unified feed API.
//! * [`ShardedJoinEngine`] — the one sharded coordinator: the same plane
//!   on every worker thread, for one query or a standing set, each arrival
//!   routed once by partition key; a set without one key runs on one
//!   shard.
//! * [`run_trace`] / [`run_exact_trace`] — trace replay: a trace at arrival
//!   rate `k` through `ingest` and `flush` (behind the input queue's
//!   service rate `l`: the overload model), and the exact run on its
//!   timeline.
//! * [`EngineBuilder`] — the one documented construction path.
//! * [`RunReport`] / [`EngineMetrics`] — run reports: output counts,
//!   per-bucket series, collected aggregate values, shedding counters,
//!   wall-clock time.
//!
//! * The engine's substrate, one module each: `window` (stores, indexes,
//!   queues), `join` (probe plans, the match enumerator, the exact
//!   reference join), `sketch` (AGMS sketch banks and their kernels) and
//!   `shed` (the seven policies). They are private; the names an
//!   application needs are on this crate's list below: the policies,
//!   [`BankConfig`] / [`EpochSpec`], [`Bindings`] / [`Run`] (what a sink
//!   receives) and [`ExactJoin`].
//!
//! Re-exported crates: [`mstream_types`] (values/queries),
//! [`mstream_workload`] (paper workloads) and [`mstream_agg`]
//! (aggregates/metrics).

// `deny` rather than `forbid`: the one sanctioned exception is the
// tightly-scoped allow on `kernel::avx2`, whose only unsafety is the
// `target_feature` calling contract (discharged by runtime CPU detection).
// Everything else in the crate stays safe; `scripts/check.sh` counts the
// allows.
#![deny(unsafe_code)]
#![warn(missing_docs)]

// The eager reference (`tests/support/eager.rs`) names this crate's items
// as `mstream_core::…`, so the unit tests can include it as they are.
#[cfg(test)]
extern crate self as mstream_core;

mod builder;
mod clock;
/// The eager reference policy the deferral tests compare against.
#[cfg(test)]
#[path = "../../../tests/support/eager.rs"]
mod eager;
mod engine;
mod ingest;
mod multi;
mod report;
mod shard;
mod sim;

// The substrate: one directory per layer, whose `mod.rs` holds the layer's
// documentation and its `pub(crate) use` list, through which the rest of
// the crate names it (`crate::window::WindowStore`). The files are declared
// here, at the crate root, so a unit test's name carries no layer prefix
// (`arena::tests::…`) and stays what it was before the layers were merged.
#[path = "window/arena.rs"]
mod arena;
#[path = "sketch/atomic.rs"]
mod atomic;
#[path = "sketch/bank.rs"]
mod bank;
#[path = "shed/context.rs"]
mod context;
#[path = "join/exact.rs"]
mod exact;
#[path = "sketch/freq.rs"]
mod freq;
#[path = "sketch/hash.rs"]
mod hash;
#[path = "window/heap.rs"]
mod heap;
#[path = "window/index.rs"]
mod index;
mod join;
// Public for the micro-benchmarks and the equivalence suite, which hold
// the portable `kernel::scalar` forms and the AVX2 ones against each other.
#[path = "sketch/kernel.rs"]
pub mod kernel;
#[path = "join/plan.rs"]
mod plan;
#[path = "shed/policies.rs"]
mod policies;
#[path = "join/probe.rs"]
mod probe;
#[path = "window/queue.rs"]
mod queue;
#[path = "window/reorder.rs"]
mod reorder;
#[path = "sketch/score_cache.rs"]
mod score_cache;
mod shed;
#[path = "sketch/signs.rs"]
mod signs;
mod sketch;
#[path = "window/store.rs"]
mod store;
#[cfg(test)]
#[path = "window/store_model.rs"]
mod store_model;
#[path = "sketch/tumbling.rs"]
mod tumbling;
mod window;

pub use bank::BankConfig;
pub use builder::{BuildError, EngineBuilder};
pub use clock::STRIDE as STAGE_SAMPLE_STRIDE;
pub use context::{PriorityCtx, Requirements};
pub use engine::{InputQueue, ShedJoinEngine};
pub use exact::ExactJoin;
pub use ingest::{
    Arrival, CountSink, EmitSink, FnSink, IngestOutcome, QueryFnSink, QueryRowsSink, VecSink,
};
pub use multi::{MultiQueryEngine, QueryStats};
pub use policies::{
    parse_policy, Age, Bjoin, Fifo, MSketch, MSketchCurrentEpoch, MSketchRs, RandomLoad, ShedPolicy,
    ALL_POLICY_NAMES,
};
pub use probe::{Bindings, Run};
pub use queue::QueueVictim;
pub use report::{EngineMetrics, RunReport};
pub use shard::{Backpressure, HotKeyConfig, ShardConfig, ShardedJoinEngine, ShardedRunReport};
pub use sim::{run_exact_trace, run_trace, RunOptions};
pub use tumbling::EpochSpec;

// Re-export the crates the engine is built on under their own names…
pub use mstream_agg;
pub use mstream_types;
pub use mstream_workload;

/// The join-layer names `benchmark/`, the micro-benchmarks, the CLI and
/// the tests import under the name of the crate this layer once was; kept
/// so `benchmark/` builds until its next change.
pub mod mstream_join {
    pub use crate::plan::{PlanStep, ProbePlan};
    pub use crate::probe::{probe_count, probe_each, Bindings, Run};
}

/// The sketch-layer names `benchmark/`, the micro-benchmarks and the
/// equivalence suite (which rebuilds the legacy layout from `AtomicSketch`
/// and `median_of_means_slice`) import under the name of the crate this
/// layer once was; kept so `benchmark/` builds until its next change.
pub mod mstream_sketch {
    pub use crate::atomic::AtomicSketch;
    pub use crate::bank::{median_of_means_slice, SketchBank};
    pub use crate::hash::FourWiseHash;
    pub use crate::signs::{combine_packed_signs, SignCache, SignFamilies};
    pub use crate::tumbling::TumblingSketches;
}

/// The window-layer names `benchmark/`, the micro-benchmarks and the
/// index equivalence suite import under the name of the crate this layer
/// once was; kept so `benchmark/` builds until its next change.
pub mod mstream_window {
    pub use crate::arena::{Arena, Slot};
    pub use crate::index::{Candidates, FlatIndex};
    pub use crate::queue::{QueueVictim, ShedQueue};
    pub use crate::reorder::ReorderBuffer;
    pub use crate::store::{Eviction, InsertOutcome, WindowStore};
}

/// One-stop imports for applications and examples: this crate's own API
/// (its re-export list above) plus the items they name from the crates it
/// re-exports.
pub mod prelude {
    pub use crate::*;
    pub use mstream_agg::{quartiles, Reservoir, SeriesComparison};
    pub use mstream_types::{
        AttrRef, Catalog, EquiPredicate, JoinQuery, Partitioning, QueryId, SeqNo, StreamId,
        StreamSchema, Tuple, VDur, VTime, Value, WindowSpec,
    };
    pub use mstream_workload::{
        CensusConfig, CensusGenerator, FeedOrder, RegionsConfig, RegionsGenerator, Trace,
    };
}
