//! Ergonomic construction of shedding join engines.
//!
//! [`EngineBuilder`] is the one documented construction path: it owns all
//! configuration validation (memory capacities, sketch bank sizing, epoch
//! derivability, shard counts, the input queue) and produces the one in-process engine —
//! [`MultiQueryEngine`] over every [`EngineBuilder::register`]ed query
//! (`build_multi`), or over exactly one ([`ShedJoinEngine`], `build`) —
//! or the one sharded coordinator over every registered query,
//! [`ShardedJoinEngine`] (`build_sharded`).
//!
//! Validation failures are reported as the typed [`BuildError`] enum; it
//! converts losslessly into the workspace-wide
//! [`mstream_types::Error::InvalidConfig`] for callers that funnel every
//! error through [`mstream_types::Result`].

use crate::engine::{default_epoch, resolve_capacities, EngineConfig, InputQueue};
use crate::engine::{MemoryMode, ShedJoinEngine};
use crate::multi::{merge_into_catalog, MultiQueryEngine};
use crate::shard::{ShardConfig, ShardedJoinEngine};
use crate::shed::{MSketch, ShedPolicy};
use crate::sketch::BankConfig;
use mstream_types::{Catalog, Error, JoinQuery, QueryId};
use std::fmt;

/// Typed validation errors surfaced by [`EngineBuilder`] and the engine
/// constructors — every invalid configuration has a named variant instead
/// of a stringly error, so callers can match on the failure mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A window capacity (per-window, per-stream, or pool total) was zero.
    ZeroWindowCapacity,
    /// [`MemoryMode::PerWindowEach`] listed a different number of
    /// capacities than the registered queries have (global) streams — at
    /// build, or when `add_query` brings a stream the list does not cover.
    CapacityCountMismatch {
        /// Number of capacities provided.
        got: usize,
        /// Number of streams in the query.
        expected: usize,
    },
    /// The sketch bank was sized with `s1 == 0` or `s2 == 0`.
    ZeroSketchBank,
    /// A shard count of zero was requested.
    ZeroShards,
    /// `build()` was called with a multi-shard configuration.
    MultiShardBuild {
        /// The requested shard count.
        shards: usize,
    },
    /// The query mixes time- and tuple-based windows, so the paper's
    /// default tumbling epoch cannot be derived for a policy that keeps
    /// estimates (only the audit sets an epoch of its own).
    EpochUnderivable,
    /// `build()` needs exactly one registered query; use `build_multi()`
    /// or `build_sharded()` for query sets.
    QueryCountForSingle {
        /// Number of registered queries.
        got: usize,
    },
    /// `build_multi()` was called with no registered queries.
    NoQueries,
    /// Two registered queries name the same stream with different schemas
    /// (attribute lists must be identical for the stream state to be
    /// shared).
    SchemaMismatch {
        /// The stream name both queries use.
        stream: String,
    },
    /// An input queue with a disorder bound (the queue serves in arrival order).
    QueueWithDisorder,
    /// An input queue passed to `build_sharded()` (it models one operator).
    QueueSharded,
    /// An input queue with a service rate not positive and finite, or capacity 0.
    BadInputQueue,
    /// Engine construction failed after validation (wraps the underlying
    /// workspace error).
    Engine(Error),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::ZeroWindowCapacity => write!(f, "window capacity must be positive"),
            BuildError::CapacityCountMismatch { got, expected } => {
                write!(f, "{got} capacities for {expected} streams")
            }
            BuildError::ZeroSketchBank => write!(f, "sketch bank needs s1 >= 1 and s2 >= 1"),
            BuildError::ZeroShards => write!(f, "shard count must be >= 1"),
            BuildError::MultiShardBuild { shards } => {
                write!(f, "{shards} shards requested; call build_sharded()")
            }
            BuildError::EpochUnderivable => write!(
                f,
                "mixed time/tuple windows have no default epoch for an estimating policy"
            ),
            BuildError::QueryCountForSingle { got } => write!(
                f,
                "{got} queries registered; build() takes exactly one — \
                 use build_multi() or build_sharded()"
            ),
            BuildError::NoQueries => write!(f, "no queries registered; call register() first"),
            BuildError::SchemaMismatch { stream } => write!(
                f,
                "stream `{stream}` is declared with different schemas by two registered queries"
            ),
            BuildError::QueueWithDisorder => write!(f, "a queue excludes a disorder bound"),
            BuildError::QueueSharded => write!(f, "a queue runs on build(), not build_sharded()"),
            BuildError::BadInputQueue => write!(f, "a queue needs a finite rate > 0, size >= 1"),
            BuildError::Engine(e) => write!(f, "engine construction failed: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<BuildError> for Error {
    fn from(e: BuildError) -> Self {
        match e {
            BuildError::Engine(inner) => inner,
            other => Error::InvalidConfig(other.to_string()),
        }
    }
}

impl From<Error> for BuildError {
    fn from(e: Error) -> Self {
        BuildError::Engine(e)
    }
}

/// A fluent builder over the in-process engine ([`MultiQueryEngine`], or
/// [`ShedJoinEngine`] for one query) and the sharded coordinator
/// ([`ShardedJoinEngine`]).
///
/// ```
/// use mstream_core::prelude::*;
///
/// let mut catalog = Catalog::new();
/// catalog.add_stream(StreamSchema::new("L", &["k"]));
/// catalog.add_stream(StreamSchema::new("R", &["k"]));
/// let query = JoinQuery::from_names(catalog, &[("L.k", "R.k")], WindowSpec::secs(60)).unwrap();
///
/// let engine = EngineBuilder::new(query)
///     .policy(MSketchRs)
///     .capacity_per_window(256)
///     .seed(7)
///     .build()
///     .unwrap();
/// assert_eq!(engine.policy_name(), "MSketch-RS");
/// ```
///
/// Registering several queries turns the builder into a query-set builder;
/// `build_multi()` then produces one engine whose window stores, indexes
/// and sketches are owned per *stream* and shared by every query:
///
/// ```
/// use mstream_core::prelude::*;
///
/// let mk = || {
///     let mut c = Catalog::new();
///     c.add_stream(StreamSchema::new("L", &["k"]));
///     c.add_stream(StreamSchema::new("R", &["k"]));
///     JoinQuery::from_names(c, &[("L.k", "R.k")], WindowSpec::secs(60)).unwrap()
/// };
/// let mut b = EngineBuilder::new_multi().capacity_per_window(64);
/// let q0 = b.register(mk()).unwrap();
/// let q1 = b.register(mk()).unwrap();
/// assert_ne!(q0, q1);
/// let engine = b.build_multi().unwrap();
/// assert_eq!(engine.n_queries(), 2);
/// ```
pub struct EngineBuilder {
    queries: Vec<JoinQuery>,
    policy: Box<dyn ShedPolicy>,
    config: EngineConfig,
    shard: ShardConfig,
}

impl EngineBuilder {
    /// Starts a builder for the single query `query` with the paper's
    /// flagship policy (`MSketch`) and default sizing. Equivalent to
    /// [`EngineBuilder::new_multi`] followed by one
    /// [`EngineBuilder::register`].
    pub fn new(query: JoinQuery) -> Self {
        let mut b = Self::new_multi();
        b.queries.push(query);
        b
    }

    /// Starts an empty query-set builder; add standing queries with
    /// [`EngineBuilder::register`] and build with
    /// [`EngineBuilder::build_multi`].
    pub fn new_multi() -> Self {
        EngineBuilder {
            queries: Vec::new(),
            policy: Box::new(MSketch),
            config: EngineConfig::default(),
            shard: ShardConfig::default(),
        }
    }

    /// Registers one standing query and returns the [`QueryId`] its
    /// results will be emitted under (ids are assigned densely in
    /// registration order). Rejects queries whose stream schemas conflict
    /// with an already-registered query of the same stream *name* — shared
    /// per-stream state requires identical schemas.
    pub fn register(&mut self, query: JoinQuery) -> Result<QueryId, BuildError> {
        for earlier in &self.queries {
            check_catalogs_compatible(earlier, &query)?;
        }
        let id = QueryId(self.queries.len() as u32);
        self.queries.push(query);
        Ok(id)
    }

    /// Sets the shedding policy.
    pub fn policy<P: ShedPolicy + 'static>(mut self, policy: P) -> Self {
        self.policy = Box::new(policy);
        self
    }

    /// Sets a boxed shedding policy (e.g. from
    /// [`crate::parse_policy`]).
    pub fn boxed_policy(mut self, policy: Box<dyn ShedPolicy>) -> Self {
        self.policy = policy;
        self
    }

    /// Allocates `tuples` of memory to every window.
    pub fn capacity_per_window(mut self, tuples: usize) -> Self {
        self.config.memory = MemoryMode::PerWindow(tuples);
        self
    }

    /// Allocates explicit per-stream capacities.
    pub fn capacities(mut self, tuples: Vec<usize>) -> Self {
        self.config.memory = MemoryMode::PerWindowEach(tuples);
        self
    }

    /// Uses a single shared memory pool across all windows (the global
    /// least-priority tuple is evicted when the pool overflows).
    pub fn global_pool(mut self, total_tuples: usize) -> Self {
        self.config.memory = MemoryMode::GlobalPool(total_tuples);
        self
    }

    /// Full sketch sizing.
    pub fn bank(mut self, bank: BankConfig) -> Self {
        self.config.bank = bank;
        self
    }

    /// Overrides the tumbling-epoch discipline (default: epoch = window,
    /// the paper's). Only the audit draws epochs apart from the window.
    #[cfg(feature = "audit")]
    pub fn epoch(mut self, epoch: crate::sketch::EpochSpec) -> Self {
        self.config.epoch = Some(epoch);
        self
    }

    /// Seeds all engine randomness (sketch families share
    /// `EngineConfig::bank.seed`).
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Arms the event-time front end with disorder bound `bound`
    /// (DESIGN.md §13): arrivals buffer in per-stream reorder buffers,
    /// release in timestamp order as the watermark advances, and
    /// late-drop (counted in `EngineMetrics::late_dropped`) once later
    /// than the bound. Without this, timestamps are trusted as given and
    /// processed in arrival order. Sharded builds reorder at the
    /// coordinator, before routing.
    pub fn disorder_bound(mut self, bound: mstream_types::VDur) -> Self {
        self.config.disorder = Some(bound);
        self
    }

    /// Puts the overload input queue in front of the operator (paper §2,
    /// DESIGN.md §13): served at `service_rate` tuples per second, holding
    /// `capacity`. Excludes [`EngineBuilder::disorder_bound`] and sharding.
    pub fn input_queue(mut self, service_rate: f64, capacity: usize) -> Self {
        self.config.input_queue = Some(InputQueue {
            service_rate,
            capacity,
        });
        self
    }

    /// Turns the epoch-memoized productivity score cache (DESIGN.md §16,
    /// on by default) on or off for this engine. Cached and uncached runs
    /// are bit-identical; the cache only changes how often the estimation
    /// kernel runs. Sharded builds propagate the setting to every worker.
    /// Only the audit's cached/uncached A/B pair turns it off.
    #[cfg(feature = "audit")]
    pub fn score_cache(mut self, enabled: bool) -> Self {
        self.config.score_cache = enabled;
        self
    }

    /// Requests `shards` parallel workers. The engine must then be built
    /// with [`EngineBuilder::build_sharded`]; a query set without one
    /// partition attribute per stream degrades to a single shard (the
    /// reason is surfaced on the run report).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shard.shards = shards;
        self
    }

    /// Full sharded-execution tuning (channel capacity, batch size, row
    /// collection). The shard *count* set here is kept;
    /// call [`EngineBuilder::shards`] afterwards to override just that.
    pub fn shard_config(mut self, config: ShardConfig) -> Self {
        self.shard = config;
        self
    }

    /// Validates everything the engine constructors assume: at least one
    /// query, schemas that merge into one catalog, memory capacities over
    /// its (global) streams, sketch bank sizing, epoch derivability for the
    /// chosen policy, the shard count, and the input queue.
    fn validate(&self) -> Result<(), BuildError> {
        if self.queries.is_empty() {
            return Err(BuildError::NoQueries);
        }
        let mut catalog = Catalog::new();
        for query in &self.queries {
            merge_into_catalog(&mut catalog, query)?;
        }
        resolve_capacities(&self.config.memory, catalog.len())?;
        if self.config.bank.s1 == 0 || self.config.bank.s2 == 0 {
            return Err(BuildError::ZeroSketchBank);
        }
        let reqs = self.policy.requirements();
        if (reqs.sketches || reqs.partner_freq) && self.config.epoch.is_none() {
            // Surfaces the mixed-window error at build time instead of
            // deep inside engine construction.
            for query in &self.queries {
                default_epoch(query)?;
            }
        }
        if self.shard.shards == 0 {
            return Err(BuildError::ZeroShards);
        }
        if let Some(queue) = self.config.input_queue {
            let rate = queue.service_rate;
            if !(rate > 0.0 && rate.is_finite() && queue.capacity > 0) {
                return Err(BuildError::BadInputQueue);
            }
            if self.config.disorder.is_some() {
                return Err(BuildError::QueueWithDisorder);
            }
        }
        Ok(())
    }

    /// Builds the single-threaded engine over the one registered query:
    /// the shared data plane with that query registered, its streams the
    /// global streams in the query's order.
    ///
    /// Errors if [`EngineBuilder::shards`] requested more than one worker
    /// (use [`EngineBuilder::build_sharded`]) or if more than one query
    /// was registered (use [`EngineBuilder::build_multi`]).
    pub fn build(self) -> Result<ShedJoinEngine, BuildError> {
        match self.queries.len() {
            0 => Err(BuildError::NoQueries),
            1 => self.build_multi(),
            got => Err(BuildError::QueryCountForSingle { got }),
        }
    }

    /// Builds the sharded coordinator over every registered query (spawns
    /// its worker threads). The routing plan comes from the whole set: by
    /// partition key when every query partitions and all agree on each
    /// shared stream's attribute, one shard (with a reason) otherwise. A shard count of 1
    /// is valid and runs the same code path with a single worker.
    pub fn build_sharded(self) -> Result<ShardedJoinEngine, BuildError> {
        self.validate()?;
        if self.config.input_queue.is_some() {
            return Err(BuildError::QueueSharded);
        }
        ShardedJoinEngine::new(self.queries, self.policy, self.config, self.shard)
    }

    /// Builds the shared-data-plane engine over every registered query.
    pub fn build_multi(self) -> Result<MultiQueryEngine, BuildError> {
        self.validate()?;
        if self.shard.shards > 1 {
            return Err(BuildError::MultiShardBuild {
                shards: self.shard.shards,
            });
        }
        MultiQueryEngine::new(self.queries, self.policy, self.config)
    }
}

/// Rejects two queries that name the same stream with different schemas.
fn check_catalogs_compatible(a: &JoinQuery, b: &JoinQuery) -> Result<(), BuildError> {
    for (_, sb) in b.catalog().iter() {
        for (_, sa) in a.catalog().iter() {
            if sa.name == sb.name && sa.attrs != sb.attrs {
                return Err(BuildError::SchemaMismatch {
                    stream: sb.name.clone(),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::{Arrival, CountSink};
    use crate::Fifo;
    use mstream_types::{Catalog, StreamId, StreamSchema, VTime, Value, WindowSpec};

    fn pair_query() -> JoinQuery {
        let mut c = Catalog::new();
        c.add_stream(StreamSchema::new("L", &["k"]));
        c.add_stream(StreamSchema::new("R", &["k"]));
        JoinQuery::from_names(c, &[("L.k", "R.k")], WindowSpec::secs(60)).unwrap()
    }

    fn feed(e: &mut ShedJoinEngine, s: usize, v: u64, at: VTime) {
        e.ingest(
            Arrival::new(StreamId(s), vec![Value(v)], at),
            &mut CountSink::default(),
        );
    }

    #[test]
    fn builder_defaults_to_msketch() {
        let e = EngineBuilder::new(pair_query()).build().unwrap();
        assert_eq!(e.policy_name(), "MSketch");
    }

    #[test]
    fn builder_applies_policy_and_capacity() {
        let mut e = EngineBuilder::new(pair_query())
            .policy(Fifo)
            .capacity_per_window(2)
            .build()
            .unwrap();
        assert_eq!(e.policy_name(), "FIFO");
        for i in 0..5u64 {
            feed(&mut e, 0, i, VTime::ZERO);
        }
        assert_eq!(e.window_len(StreamId(0)), Some(2));
        assert_eq!(e.metrics().shed_window, 3);
    }

    #[test]
    fn builder_accepts_parsed_policies() {
        let boxed = crate::parse_policy("bjoin").unwrap();
        let e = EngineBuilder::new(pair_query())
            .boxed_policy(boxed)
            .build()
            .unwrap();
        assert_eq!(e.policy_name(), "Bjoin");
    }

    #[test]
    fn builder_rejects_bad_capacities() {
        let err = EngineBuilder::new(pair_query())
            .capacities(vec![1])
            .build()
            .err()
            .expect("capacity count mismatch rejected");
        assert_eq!(
            err,
            BuildError::CapacityCountMismatch {
                got: 1,
                expected: 2
            }
        );
    }

    #[test]
    fn builder_rejects_bad_bank_and_shards() {
        let bank = BankConfig {
            s1: 0,
            ..BankConfig::default()
        };
        assert_eq!(
            EngineBuilder::new(pair_query()).bank(bank).build().err(),
            Some(BuildError::ZeroSketchBank)
        );
        assert_eq!(
            EngineBuilder::new(pair_query()).shards(0).build().err(),
            Some(BuildError::ZeroShards)
        );
    }

    #[test]
    fn builder_build_refuses_multi_shard() {
        let err = EngineBuilder::new(pair_query())
            .shards(4)
            .build()
            .err()
            .expect("multi-shard build() must be rejected");
        assert_eq!(err, BuildError::MultiShardBuild { shards: 4 });
        assert!(err.to_string().contains("build_sharded"));
    }

    #[test]
    fn builder_global_pool_mode() {
        let mut e = EngineBuilder::new(pair_query())
            .policy(Fifo)
            .global_pool(3)
            .build()
            .unwrap();
        for i in 0..5u64 {
            feed(&mut e, (i % 2) as usize, i, VTime::ZERO);
        }
        let total =
            e.window_len(StreamId(0)).unwrap() + e.window_len(StreamId(1)).unwrap();
        assert_eq!(total, 3);
    }

    #[test]
    fn builder_disorder_bound_arms_the_front_end() {
        use mstream_types::VDur;
        let mut e = EngineBuilder::new(pair_query())
            .policy(Fifo)
            .disorder_bound(VDur::from_secs(5))
            .build()
            .unwrap();
        feed(&mut e, 0, 1, VTime::from_secs(100));
        feed(&mut e, 1, 1, VTime::from_secs(100));
        // Buffered, not yet released: the watermark sits at 95s.
        assert_eq!(e.watermark(), Some(VTime::from_secs(95)));
        assert_eq!(e.buffered(), 2);
        let out = e.flush(&mut CountSink::default());
        assert_eq!(out.produced, 1, "flushed pair joins");
        assert_eq!(e.buffered(), 0);
    }

    #[test]
    fn input_queue_refusals_are_typed() {
        let with_queue = |rate: f64, capacity: usize| {
            EngineBuilder::new(pair_query()).input_queue(rate, capacity)
        };
        assert!(with_queue(5.0, 1).build().is_ok());
        for rate in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert_eq!(
                with_queue(rate, 10).build().err(),
                Some(BuildError::BadInputQueue)
            );
        }
        assert_eq!(
            with_queue(5.0, 0).build().err(),
            Some(BuildError::BadInputQueue)
        );
        let behind_front = with_queue(5.0, 10).disorder_bound(mstream_types::VDur::from_secs(1));
        assert_eq!(
            behind_front.build().err(),
            Some(BuildError::QueueWithDisorder)
        );
        let sharded = with_queue(5.0, 10).shards(2).build_sharded().err();
        assert_eq!(sharded, Some(BuildError::QueueSharded));
    }

    /// An engine with a queue builds no idle class: `[ROWS 5]` windows
    /// with room for 5 idle without one and estimate with one.
    #[test]
    fn an_input_queue_builds_no_idle_class() {
        let mut c = Catalog::new();
        c.add_stream(StreamSchema::new("L", &["k"]));
        c.add_stream(StreamSchema::new("R", &["k"]));
        let rows = JoinQuery::from_names(c, &[("L.k", "R.k")], WindowSpec::Tuples(5)).unwrap();
        let plain = EngineBuilder::new(rows.clone())
            .capacity_per_window(5)
            .build()
            .unwrap();
        assert_eq!(plain.idle_classes(), 1);
        let builder = EngineBuilder::new(rows.clone()).capacity_per_window(5);
        let mut queued_engine = builder.input_queue(5.0, 10).build().unwrap();
        assert_eq!(queued_engine.idle_classes(), 0);
        queued_engine.add_query(rows).unwrap();
        assert_eq!(queued_engine.idle_classes(), 0, "nor does a registration");
    }

    #[test]
    fn window_len_out_of_range_is_none() {
        let e = EngineBuilder::new(pair_query()).build().unwrap();
        assert_eq!(e.window_len(StreamId(7)), None);
    }

    #[test]
    fn register_assigns_dense_ids_and_checks_schemas() {
        let mut b = EngineBuilder::new_multi();
        assert_eq!(b.register(pair_query()).unwrap(), QueryId(0));
        assert_eq!(b.register(pair_query()).unwrap(), QueryId(1));
        // Same stream name `L`, different schema: rejected.
        let mut c = Catalog::new();
        c.add_stream(StreamSchema::new("L", &["k", "extra"]));
        c.add_stream(StreamSchema::new("Z", &["k"]));
        let clash =
            JoinQuery::from_names(c, &[("L.k", "Z.k")], WindowSpec::secs(60)).unwrap();
        assert_eq!(
            b.register(clash).err(),
            Some(BuildError::SchemaMismatch {
                stream: "L".into()
            })
        );
    }

    #[test]
    fn build_refuses_query_sets_and_build_multi_refuses_empty() {
        let mut b = EngineBuilder::new_multi();
        b.register(pair_query()).unwrap();
        b.register(pair_query()).unwrap();
        assert_eq!(
            b.build().err(),
            Some(BuildError::QueryCountForSingle { got: 2 })
        );
        assert_eq!(
            EngineBuilder::new_multi().build_multi().err(),
            Some(BuildError::NoQueries)
        );
        assert_eq!(
            EngineBuilder::new_multi().build().err(),
            Some(BuildError::NoQueries)
        );
    }

    #[test]
    fn build_errors_convert_to_workspace_errors() {
        let err: Error = BuildError::ZeroShards.into();
        assert!(matches!(err, Error::InvalidConfig(_)));
        assert!(err.to_string().contains("shard count"));
    }
}
