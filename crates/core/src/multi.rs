//! The engine: one shared data plane, N standing queries. A single-query
//! engine ([`crate::ShedJoinEngine`], [`crate::EngineBuilder::build`]) is
//! this plane with one registered query.
//!
//! [`MultiQueryEngine`] owns one [`WindowStore`] (with its flat indexes)
//! per **stream × window**, and registered queries borrow them.
//! Registration groups queries into **classes** — structurally identical
//! queries (same streams, windows and predicates) collapse into one class
//! that is planned, estimated, scored and probed exactly once; its
//! emissions fan out to every member [`QueryId`]. Distinct classes that
//! touch the same `(stream, window)` pair share the store outright. A class
//! is a per-query core ([`QueryCore`]: plans, policy, estimation state)
//! plus a mapping of its local streams into the shared store table; it
//! probes with `mstream-join`'s kernels through that mapping.
//!
//! # Emission order
//!
//! Each query's results arrive in its solo run's order. Across queries,
//! one arrival's results are emitted class by class in class-id
//! (registration) order, and within a class run by run (the probe's two
//! innermost levels, [`mstream_join::Run`]), each run to every member in
//! registration order — so two members of one class alternate per run,
//! not per row, while every query's own order is unchanged. A run spans
//! every consecutive outer candidate sharing its inner list, so that
//! alternation is coarse and data-dependent; it is no contract, and the
//! shipped sinks, the audit and the tests read per-query order only.
//!
//! # Ownership and exactness
//!
//! Every store has a deterministic **owner**: the lowest-id class using it.
//! The owner's policy scores insertions, takes the produced-output credits
//! of its own emissions, and rebuilds the store's priorities on its epoch
//! rollovers — so the owner's stores evolve bit-for-bit as they would in
//! that query's solo run, even under shedding. Queries that share a store
//! they do not own get the full exactness contract only at full memory
//! (identical contents, identical bucket order → bit-identical output
//! modulo stream tags, see below); under shedding their output is a
//! sub-multiset of their exact output, shaped by the owner's policy.
//!
//! # Registration semantics
//!
//! [`MultiQueryEngine::add_query`] mid-run always creates a fresh class
//! with **fresh stores** (never reusing resident state), so a query
//! registered mid-run sees only tuples admitted after registration —
//! deterministic state handoff with no retroactive results. Under a
//! disorder bound, "after" means after the release frontier: arrivals
//! still held by the reorder stage are released later, so the new query
//! sees them and a removed one does not.
//! [`MultiQueryEngine::remove_query`] drops the member; a class with no
//! members left is dismantled and any store losing its last user is freed
//! immediately (its memory budget with it). A shared store whose owner
//! departs passes to its next-oldest user: its residents are retagged to
//! that class's local stream id and rescored by its policy on the spot.
//! Query ids are dense registration-order indices and are never reused.
//!
//! # Stream tags in emissions
//!
//! Stored tuples carry the *owner class's local* stream tag; the arriving
//! tuple in a [`Bindings`] carries the engine's *global* tag. Consumers
//! identifying result rows should therefore key on `(ts, values)` (plus
//! emission order), not on `Tuple::stream` — the differential tests and
//! the audit harness do exactly this. With one registered query the two
//! coincide.
//!
//! [`Bindings`]: mstream_join::Bindings

use crate::builder::BuildError;
use crate::clock::StageClock;
use crate::engine::{
    resolve_capacities, EngineConfig, MemoryMode, ProducedScratch, QueryCore, ReorderStage,
};
use crate::ingest::{Arrival, EmitSink, IngestOutcome, IngestRole};
use crate::report::EngineMetrics;
use mstream_join::{probe_runs_in, StoreLookup};
use mstream_shed_policies::ShedPolicy;
use mstream_sketch::TumblingSketches;
use mstream_types::{
    Catalog, EquiPredicate, JoinQuery, QueryId, SeqNo, StreamId, Tuple, VTime, WindowSpec,
};
use mstream_window::{Eviction, ShedQueue, WindowStore};

pub use crate::multi_shard::{MultiRunReport, ShardedMultiEngine};

/// One shared window store plus its sharing bookkeeping.
struct StoreEntry {
    store: WindowStore,
    /// The global stream this store holds tuples of.
    gstream: StreamId,
    /// Classes using this store, in registration order; `users[0]` is the
    /// owner whose policy governs scoring and shedding here.
    users: Vec<usize>,
    /// This store's stream in the owner's local space — the tag every
    /// resident carries.
    owner_local: StreamId,
    /// Tuples shed from this store (evictions before expiry).
    shed: u64,
}

/// One class of structurally identical registered queries.
struct QueryClass {
    /// The class's query in its own local stream space (`StreamId(0..n)`),
    /// with its plans, policy and estimation state.
    core: QueryCore,
    /// Member queries, in registration order; every emission fans out to
    /// each of them.
    members: Vec<QueryId>,
    /// Local stream `k` → global stream id.
    gstream_of: Vec<StreamId>,
    /// Local stream `k` → store table index.
    store_of: Vec<usize>,
}

impl QueryClass {
    /// The local stream id of global stream `g` in this class, if any.
    #[inline]
    fn local_of(&self, g: StreamId) -> Option<StreamId> {
        self.gstream_of.iter().position(|&x| x == g).map(StreamId)
    }
}

/// Per registered query state (dense by [`QueryId`]).
struct QueryState {
    class: usize,
    produced: u64,
}

/// Per-query counters reported by [`MultiQueryEngine::query_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Join results emitted under this query's id.
    pub produced: u64,
    /// Tuples shed from the stores this query reads (shared stores count
    /// the same eviction for every user).
    pub shed: u64,
}

/// A query-local view of the shared store table: local stream `k` resolves
/// through the class's `store_of` mapping. This is the [`StoreLookup`] a
/// class probes through.
pub(crate) struct MappedStores<'a> {
    entries: &'a [Option<StoreEntry>],
    map: &'a [usize],
}

impl StoreLookup for MappedStores<'_> {
    #[inline]
    fn store(&self, stream: StreamId) -> &WindowStore {
        &self.entries[self.map[stream.index()]]
            .as_ref()
            .expect("mapped store is live")
            .store
    }
}

/// One engine executing N standing window-join queries over shared
/// per-stream state. See the module docs for the sharing and exactness
/// model; construction goes through [`crate::EngineBuilder::build_multi`]
/// (or [`crate::EngineBuilder::build`] for one query).
pub struct MultiQueryEngine {
    catalog: Catalog,
    policy_proto: Box<dyn ShedPolicy>,
    config: EngineConfig,
    queries: Vec<Option<QueryState>>,
    classes: Vec<Option<QueryClass>>,
    stores: Vec<Option<StoreEntry>>,
    /// Per-store produced-credit scratch (parallel to `stores`).
    scratches: Vec<ProducedScratch>,
    next_seq: SeqNo,
    /// The latest processing instant: what a store handed to a new owner
    /// between arrivals is rescored at.
    clock: VTime,
    metrics: EngineMetrics,
    /// Picks the arrivals whose stages are timed.
    stage_clock: StageClock,
    /// Cache counters of classes dismantled by
    /// [`MultiQueryEngine::remove_query`], folded in at teardown so the
    /// engine-level cache statistics stay monotone as classes (and the
    /// sketch banks carrying the live counters) come and go.
    retired_cache: RetiredCacheStats,
    /// The bounded-disorder reorder stage in front of the operator
    /// (DESIGN.md §13), over global streams; `None` trusts timestamps as
    /// given.
    front: Option<ReorderStage>,
}

/// Sketch-side cache counters surviving their class (see
/// [`MultiQueryEngine::remove_query`]).
#[derive(Clone, Copy, Debug, Default)]
struct RetiredCacheStats {
    sign_hits: u64,
    sign_misses: u64,
    score_hits: u64,
    score_misses: u64,
}

impl RetiredCacheStats {
    fn absorb(&mut self, sketches: &TumblingSketches) {
        let signs = sketches.sign_cache_stats();
        self.sign_hits += signs.hits;
        self.sign_misses += signs.misses;
        let scores = sketches.score_cache_stats();
        self.score_hits += scores.hits;
        self.score_misses += scores.misses;
    }
}

/// Maps `query`'s local streams into `catalog` by stream *name*, appending
/// streams the catalog has not seen and rejecting schema conflicts. Shared
/// by the in-process engine and the sharded coordinator (whose routing
/// table must mirror its workers' merged catalogs exactly).
pub(crate) fn merge_into_catalog(
    catalog: &mut Catalog,
    query: &JoinQuery,
) -> Result<Vec<StreamId>, BuildError> {
    let mut gstream_of = Vec::with_capacity(query.n_streams());
    for (_, schema) in query.catalog().iter() {
        let existing = catalog
            .iter()
            .find(|(_, s)| s.name == schema.name)
            .map(|(g, s)| (g, s.attrs.clone()));
        let g = match existing {
            Some((g, attrs)) => {
                if attrs != schema.attrs {
                    return Err(BuildError::SchemaMismatch {
                        stream: schema.name.clone(),
                    });
                }
                g
            }
            None => catalog.add_stream(schema.clone()),
        };
        gstream_of.push(g);
    }
    Ok(gstream_of)
}

/// The attributes a store of `query`'s local stream `k` indexes.
fn store_attrs(query: &JoinQuery, k: StreamId) -> Vec<usize> {
    let mut attrs = query.join_attrs(k);
    attrs.sort_unstable();
    attrs.dedup();
    attrs
}

/// A query's structural signature: two queries with equal signatures are
/// the same standing computation and collapse into one class.
fn class_signature(q: &JoinQuery) -> (Vec<String>, Vec<WindowSpec>, Vec<EquiPredicate>) {
    let names = q.catalog().iter().map(|(_, s)| s.name.clone()).collect();
    (names, q.windows().to_vec(), q.predicates().to_vec())
}

impl MultiQueryEngine {
    /// Builds the engine over `queries` (registration order = dense query
    /// ids). Prefer [`crate::EngineBuilder::build_multi`], which validates
    /// the configuration first.
    pub(crate) fn new(
        queries: Vec<JoinQuery>,
        policy: Box<dyn ShedPolicy>,
        config: EngineConfig,
    ) -> Result<Self, BuildError> {
        if queries.is_empty() {
            return Err(BuildError::NoQueries);
        }
        let mut engine = MultiQueryEngine {
            catalog: Catalog::new(),
            policy_proto: policy,
            config,
            queries: Vec::new(),
            classes: Vec::new(),
            stores: Vec::new(),
            scratches: Vec::new(),
            next_seq: SeqNo(0),
            clock: VTime::ZERO,
            metrics: EngineMetrics::default(),
            stage_clock: StageClock::default(),
            retired_cache: RetiredCacheStats::default(),
            front: None,
        };
        // Group into classes first so structurally identical queries share
        // everything, then plan the store table with the attr-index union
        // of all users before any store is constructed.
        let mut specs: Vec<(JoinQuery, Vec<QueryId>)> = Vec::new();
        for (i, q) in queries.into_iter().enumerate() {
            let sig = class_signature(&q);
            match specs.iter_mut().find(|(e, _)| class_signature(e) == sig) {
                Some((_, members)) => members.push(QueryId(i as u32)),
                None => specs.push((q, vec![QueryId(i as u32)])),
            }
        }
        struct Planned {
            gstream: StreamId,
            window: WindowSpec,
            attrs: Vec<usize>,
            users: Vec<usize>,
            owner_local: StreamId,
        }
        let mut planned: Vec<Planned> = Vec::new();
        let mut class_maps: Vec<(Vec<StreamId>, Vec<usize>)> = Vec::new();
        for (cid, (q, _)) in specs.iter().enumerate() {
            let gstream_of = merge_into_catalog(&mut engine.catalog, q)?;
            let mut store_of = Vec::with_capacity(q.n_streams());
            for (k, &g) in gstream_of.iter().enumerate() {
                let window = q.window(StreamId(k));
                let attrs = store_attrs(q, StreamId(k));
                let si = match planned
                    .iter()
                    .position(|p| p.gstream == g && p.window == window)
                {
                    Some(si) => {
                        let p = &mut planned[si];
                        for a in attrs {
                            if !p.attrs.contains(&a) {
                                p.attrs.push(a);
                            }
                        }
                        p.attrs.sort_unstable();
                        if !p.users.contains(&cid) {
                            p.users.push(cid);
                        }
                        si
                    }
                    None => {
                        planned.push(Planned {
                            gstream: g,
                            window,
                            attrs,
                            users: vec![cid],
                            owner_local: StreamId(k),
                        });
                        planned.len() - 1
                    }
                };
                store_of.push(si);
            }
            class_maps.push((gstream_of, store_of));
        }
        let capacities = resolve_capacities(&engine.config.memory, engine.catalog.len())?;
        for p in planned {
            engine.stores.push(Some(StoreEntry {
                store: WindowStore::new(p.window, p.attrs, capacities[p.gstream.index()]),
                gstream: p.gstream,
                users: p.users,
                owner_local: p.owner_local,
                shed: 0,
            }));
            engine.scratches.push(ProducedScratch::default());
        }
        for ((q, members), (gstream_of, store_of)) in specs.into_iter().zip(class_maps) {
            let cid = engine.classes.len();
            for m in &members {
                if engine.queries.len() <= m.index() {
                    engine.queries.resize_with(m.index() + 1, || None);
                }
                engine.queries[m.index()] = Some(QueryState {
                    class: cid,
                    produced: 0,
                });
            }
            engine.classes.push(Some(QueryClass {
                core: QueryCore::new(q, engine.policy_proto.clone(), &engine.config)?,
                members,
                gstream_of,
                store_of,
            }));
        }
        let n_streams = engine.catalog.len();
        engine.front = engine.config.disorder.map(|k| ReorderStage::new(k, n_streams));
        Ok(engine)
    }

    /// The merged global catalog; [`Arrival::stream`] ids passed to
    /// [`MultiQueryEngine::ingest`] index into it.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The global id of the stream named `name`.
    pub fn stream_id(&self, name: &str) -> Option<StreamId> {
        self.catalog
            .iter()
            .find(|(_, s)| s.name == name)
            .map(|(g, _)| g)
    }

    /// Queries currently registered (removed queries do not count).
    pub fn n_queries(&self) -> usize {
        self.queries.iter().flatten().count()
    }

    /// Query ids handed out so far (dense; includes removed queries).
    pub fn n_registered(&self) -> usize {
        self.queries.len()
    }

    /// Distinct query classes currently active — the unit of planning,
    /// estimation and scoring work.
    pub fn n_classes(&self) -> usize {
        self.classes.iter().flatten().count()
    }

    /// Live shared window stores — the unit of resident memory.
    pub fn n_stores(&self) -> usize {
        self.stores.iter().flatten().count()
    }

    /// The query executed for `id` (its class's local-stream-space query).
    pub fn query(&self, id: QueryId) -> Option<&JoinQuery> {
        let state = self.queries.get(id.index())?.as_ref()?;
        self.classes[state.class].as_ref().map(|c| &c.core.query)
    }

    /// The shedding policy's display name.
    pub fn policy_name(&self) -> &'static str {
        self.policy_proto.name()
    }

    /// Accumulated engine-level counters. Sketch-side cache statistics
    /// are snapshotted here, at read time — not on every arrival, which put
    /// counter copies on the per-ingest hot path for values nobody reads
    /// mid-run: the sum over every live class's sketch bank plus the folded
    /// baseline of classes already dismantled by
    /// [`MultiQueryEngine::remove_query`], so the counters stay monotone
    /// across query churn. So is the reorder stage's late-drop count.
    pub fn metrics(&mut self) -> &EngineMetrics {
        let mut total = self.retired_cache;
        for class in self.classes.iter().flatten() {
            if let Some(sk) = class.core.sketches.as_ref() {
                total.absorb(sk);
            }
        }
        self.metrics.sign_cache_hits = total.sign_hits;
        self.metrics.sign_cache_misses = total.sign_misses;
        self.metrics.score_cache_hits = total.score_hits;
        self.metrics.score_cache_misses = total.score_misses;
        self.metrics.late_dropped = self.front.as_ref().map_or(0, |f| f.dropped);
        &self.metrics
    }

    /// Per-query produced/shed counters, `None` if `id` was never
    /// registered or has been removed.
    pub fn query_stats(&self, id: QueryId) -> Option<QueryStats> {
        let state = self.queries.get(id.index())?.as_ref()?;
        let class = self.classes[state.class].as_ref()?;
        let shed = class
            .store_of
            .iter()
            .map(|&si| self.stores[si].as_ref().map_or(0, |e| e.shed))
            .sum();
        Some(QueryStats {
            produced: state.produced,
            shed,
        })
    }

    /// Total resident tuples across every live store.
    pub fn total_resident(&self) -> usize {
        self.stores
            .iter()
            .flatten()
            .map(|e| e.store.len())
            .sum()
    }

    /// Resident tuples across the live stores of global stream `stream`,
    /// or `None` if no live store holds that stream.
    pub fn window_len(&self, stream: StreamId) -> Option<usize> {
        let mut live = self.stores.iter().flatten().filter(|e| e.gstream == stream);
        let first = live.next()?.store.len();
        Some(first + live.map(|e| e.store.len()).sum::<usize>())
    }

    /// Stores that currently owe their priorities: marked at a rollover
    /// and not yet short of room (DESIGN.md §16). Always 0 for a policy
    /// that scores eagerly.
    pub fn deferred_windows(&self) -> usize {
        let live = self.stores.iter().flatten();
        live.filter(|e| e.store.is_deferred()).count()
    }

    /// Structural audit of the shared data plane: every live store's
    /// internal invariants (per-store capacity bounds included), every
    /// class's sketch coherence, the sharing bookkeeping (owners exist,
    /// mappings in range, every resident carries its owner's local stream
    /// id), the pooled total under [`MemoryMode::GlobalPool`], and a
    /// reorder stage holding nothing releasable. O(resident tuples) and
    /// worse; compiled only under the `audit` feature, where the
    /// differential harness calls it after every arrival.
    ///
    /// # Panics
    /// Panics on any violated invariant.
    #[cfg(feature = "audit")]
    pub fn check_invariants(&self) {
        for (si, entry) in self.stores.iter().enumerate() {
            let Some(entry) = entry else { continue };
            entry.store.check_invariants();
            assert!(!entry.users.is_empty(), "stores without users are freed");
            for &cid in &entry.users {
                assert!(
                    self.classes.get(cid).is_some_and(|c| c.is_some()),
                    "store user class {cid} is live"
                );
            }
            let owner = self.classes[entry.users[0]].as_ref().expect("checked");
            assert_eq!(
                owner.store_of.get(entry.owner_local.index()),
                Some(&si),
                "store {si}: recorded owner-local stream maps back to the store"
            );
            for (_, tuple) in entry.store.iter() {
                assert_eq!(
                    tuple.stream, entry.owner_local,
                    "store {si}: resident carries its owner's local stream id"
                );
            }
        }
        for class in self.classes.iter().flatten() {
            if let Some(sk) = class.core.sketches.as_ref() {
                sk.check_invariants();
            }
            for (&si, &g) in class.store_of.iter().zip(&class.gstream_of) {
                let entry = self.stores[si].as_ref().expect("class store is live");
                assert_eq!(entry.gstream, g, "store mapping agrees on stream");
            }
            for &m in &class.members {
                assert!(
                    self.queries[m.index()].is_some(),
                    "class member {m} is registered"
                );
            }
        }
        if let MemoryMode::GlobalPool(total) = self.config.memory {
            let resident = self.total_resident();
            assert!(resident <= total, "pool overrun: {resident} resident > {total} budget");
        }
        if let Some(front) = self.front.as_ref() {
            front.check_invariants();
        }
    }

    /// Registers a new standing query at runtime and returns its id.
    ///
    /// The query always gets a fresh class with fresh stores — even if it
    /// is structurally identical to a running one — so it sees only
    /// tuples admitted after this call (deterministic handoff; under a
    /// disorder bound, released after it). Its schema must agree with the
    /// global catalog on any stream name it shares, and under
    /// [`MemoryMode::PerWindowEach`] it may bring no stream the capacity
    /// list does not cover ([`BuildError::CapacityCountMismatch`]). A
    /// rejected query leaves no trace.
    pub fn add_query(&mut self, query: JoinQuery) -> Result<QueryId, BuildError> {
        let snapshot = self.catalog.clone();
        let registered = merge_into_catalog(&mut self.catalog, &query).and_then(|gstream_of| {
            let capacities = resolve_capacities(&self.config.memory, self.catalog.len())?;
            let core = QueryCore::new(query, self.policy_proto.clone(), &self.config)?;
            Ok((gstream_of, capacities, core))
        });
        let (gstream_of, capacities, core) = match registered {
            Ok(r) => r,
            Err(e) => {
                self.catalog = snapshot;
                return Err(e);
            }
        };
        if let Some(front) = self.front.as_mut() {
            front.add_streams(self.catalog.len());
        }
        let cid = self.classes.len();
        let first_store = self.stores.len();
        for (k, &g) in gstream_of.iter().enumerate() {
            let local = StreamId(k);
            let attrs = store_attrs(&core.query, local);
            self.stores.push(Some(StoreEntry {
                store: WindowStore::new(core.query.window(local), attrs, capacities[g.index()]),
                gstream: g,
                users: vec![cid],
                owner_local: local,
                shed: 0,
            }));
            self.scratches.push(ProducedScratch::default());
        }
        let qid = QueryId(self.queries.len() as u32);
        self.classes.push(Some(QueryClass {
            core,
            members: vec![qid],
            store_of: (first_store..first_store + gstream_of.len()).collect(),
            gstream_of,
        }));
        self.queries.push(Some(QueryState {
            class: cid,
            produced: 0,
        }));
        Ok(qid)
    }

    /// Deregisters `id`: it stops emitting immediately. When it was its
    /// class's last member the class is dismantled, and stores left with
    /// no users are freed on the spot (their memory budget with them).
    /// Returns `false` if `id` is unknown or already removed. Survivor
    /// queries are not perturbed: shared stores keep their contents, and a
    /// shared store whose owner departs is handed to its next-oldest user
    /// — residents retagged to that class's local stream id and, for
    /// policies that rescore at rollovers, rescored by it right away, so
    /// one heap never mixes two queries' estimates.
    pub fn remove_query(&mut self, id: QueryId) -> bool {
        let Some(state) = self.queries.get_mut(id.index()).and_then(Option::take) else {
            return false;
        };
        let cid = state.class;
        let class = self.classes[cid].as_mut().expect("member's class is live");
        class.members.retain(|&q| q != id);
        if class.members.is_empty() {
            let retired = std::mem::take(&mut self.classes[cid]).expect("checked");
            if let Some(sk) = retired.core.sketches.as_ref() {
                // The class's sketch bank dies here; bank its cache
                // counters so engine-level stats stay monotone.
                self.retired_cache.absorb(sk);
            }
            for si in retired.store_of {
                let entry = self.stores[si].as_mut().expect("class store is live");
                let owned = entry.users[0] == cid;
                entry.users.retain(|&c| c != cid);
                let Some(&heir) = entry.users.first() else {
                    self.stores[si] = None;
                    continue;
                };
                if !owned {
                    continue;
                }
                let heir = self.classes[heir].as_mut().expect("store user is live");
                let k = heir.store_of.iter().position(|&s| s == si);
                entry.owner_local = StreamId(k.expect("a user maps its store"));
                entry.store.retag(entry.owner_local);
                if heir.core.reqs.recompute_on_epoch {
                    heir.core
                        .rollover_store(&mut entry.store, self.clock, &mut self.metrics);
                }
            }
        }
        true
    }

    /// Mints an [`Arrival`] (global stream id) into a sequence-numbered
    /// tuple without processing it.
    ///
    /// Use this when the tuple will be processed *later* (queued input,
    /// sharded dispatch): sequence numbers are assigned in arrival order,
    /// independent of service order.
    pub fn mint(&mut self, arrival: Arrival) -> Tuple {
        let seq = self.next_seq;
        self.next_seq = seq.next();
        Tuple::new(arrival.stream, arrival.ts, seq, arrival.values)
    }

    /// The single entry point for feeding the engine: mints `arrival`
    /// (addressed by **global** stream id) and runs it through the data
    /// plane at its arrival timestamp — every interested class observes
    /// it, probes its partner stores, and fans results out to its member
    /// queries via `sink`. Returns the aggregate outcome across all
    /// queries.
    ///
    /// # Timestamp contract
    /// Without a disorder bound ([`EngineConfig::disorder`] = `None`),
    /// timestamps are trusted as given — monotone or not — and the arrival
    /// is processed immediately at its own timestamp. With a bound `K`, the
    /// reorder stage takes over: the arrival is buffered and later
    /// released in timestamp order, unless its timestamp has already
    /// fallen behind the watermark (`min` cross-stream high-water mark
    /// minus `K`), in which case it is dropped — counted in
    /// [`EngineMetrics::late_dropped`], never joined, and **never a
    /// panic**. The outcome then sums the arrivals this one released.
    pub fn ingest(&mut self, arrival: Arrival, sink: &mut impl EmitSink) -> IngestOutcome {
        let Some(front) = self.front.as_mut() else {
            let now = arrival.ts;
            let tuple = self.mint(arrival);
            return self.ingest_tuple(tuple, now, sink);
        };
        let Some(wm) = front.give(arrival) else {
            return IngestOutcome::default();
        };
        self.release(|front| front.release_below(wm), sink)
    }

    /// Drains the reorder stage at end of input, releasing every
    /// still-buffered arrival in `(ts, admission)` order regardless of the
    /// watermark. A no-op (and an all-zero outcome) without a disorder
    /// bound.
    pub fn flush(&mut self, sink: &mut impl EmitSink) -> IngestOutcome {
        self.release(ReorderStage::drain, sink)
    }

    /// Mints and runs every arrival `next` takes off the reorder stage.
    fn release(
        &mut self,
        mut next: impl FnMut(&mut ReorderStage) -> Option<Arrival>,
        sink: &mut impl EmitSink,
    ) -> IngestOutcome {
        let mut total = IngestOutcome {
            produced: 0,
            stored: true,
            shed: 0,
        };
        while let Some(arrival) = self.front.as_mut().and_then(&mut next) {
            let now = arrival.ts;
            let tuple = self.mint(arrival);
            let out = self.ingest_tuple(tuple, now, sink);
            total.produced += out.produced;
            total.shed += out.shed;
        }
        total
    }

    /// The current event-time watermark (`None` without a disorder bound).
    pub fn watermark(&self) -> Option<VTime> {
        self.front.as_ref().map(ReorderStage::watermark)
    }

    /// Arrivals currently held by the reorder stage (0 without a bound).
    pub fn buffered(&self) -> usize {
        self.front.as_ref().map_or(0, ReorderStage::len)
    }

    /// Runs one already-minted tuple (global stream tag) through the data
    /// plane at time `now` (its arrival timestamp may be earlier if it
    /// waited in an input queue or a shard channel) — the primitive the
    /// sharded coordinators feed.
    pub fn ingest_tuple(
        &mut self,
        tuple: Tuple,
        now: VTime,
        sink: &mut impl EmitSink,
    ) -> IngestOutcome {
        self.ingest_tuple_as(tuple, now, sink, IngestRole::FULL)
    }

    /// Role-parameterized form of [`MultiQueryEngine::ingest_tuple`], the
    /// primitive behind replicated delivery in the sharded engine.
    ///
    /// Every role observes sketches, expires windows, scores and stores the
    /// tuple — so replicated copies keep estimation state and tuple-window
    /// expiry counters advancing identically on every shard. The role only
    /// gates the *probe* (whether this delivery emits join results) and the
    /// *accounting* (whether it counts as the arrival's one `processed`
    /// delivery or as a `replicated` copy).
    pub fn ingest_tuple_as(
        &mut self,
        tuple: Tuple,
        now: VTime,
        sink: &mut impl EmitSink,
        role: IngestRole,
    ) -> IngestOutcome {
        let g = tuple.stream;
        assert!(
            g.index() < self.catalog.len(),
            "arrival stream {g} is not in the engine catalog"
        );
        self.clock = now;
        let sample = self.stage_clock.next_arrival();
        let event_time = self.front.is_some();
        let Self {
            queries,
            classes,
            stores,
            scratches,
            metrics,
            config,
            ..
        } = self;
        // 1. Every interested class folds the arrival into its estimation
        //    state under its *local* stream id; a class whose epoch rolls
        //    over rebuilds the priorities of the stores it owns against the
        //    fresh snapshot, or owes each rebuild to the store's next shed.
        for (cid, class) in classes.iter_mut().enumerate() {
            let Some(class) = class.as_mut() else {
                continue;
            };
            let Some(k) = class.local_of(g) else { continue };
            if !class.core.observe(k, &tuple.values, now, sample, metrics) {
                continue;
            }
            metrics.epoch_rollovers += 1;
            if !class.core.reqs.recompute_on_epoch {
                continue;
            }
            for &si in &class.store_of {
                let entry = stores[si].as_mut().expect("class store is live");
                if entry.users[0] == cid {
                    class.core.rollover_store(&mut entry.store, now, metrics);
                }
            }
        }
        // 2. Expire every live store. Expirations always proceed
        //    oldest-first, so expiring a store between its owner's events
        //    changes only the batching of removals, never their sequence —
        //    owner-solo equivalence is preserved.
        metrics.expired += sample.time(&mut metrics.expire_ns, || {
            let live = stores.iter_mut().flatten();
            live.map(|entry| entry.store.expire_each(now, drop)).sum::<u64>()
        });
        // 3. Every interested class probes its partner stores, before any
        //    insertion (the paper's operator probes partner windows only),
        //    a run of the probe's two innermost levels at a time: what a run
        //    costs beyond finding it is the sink's to decide
        //    (`EmitSink::emit_run` — a row reader pays per row, a counter
        //    per run), and each run goes to every member. Runs credit the
        //    partner stores the class owns, so an owner's produced counts
        //    stay those of its solo run; whether a class credits at all is
        //    decided here, not per run — a policy without produced counters
        //    runs kernels over a closure that carries no crediting code.
        //    Store-only replicas skip the probe: their arrival's results are
        //    emitted by the one shard that received the FULL delivery.
        let entries: &[Option<StoreEntry>] = stores;
        let (produced, credited) = sample.time(&mut metrics.probe_ns, || {
            let mut produced = 0u64;
            let mut credited = false;
            if !role.probe {
                return (produced, credited);
            }
            for (cid, class) in classes.iter().enumerate() {
                let Some(class) = class.as_ref() else {
                    continue;
                };
                let Some(origin) = class.local_of(g) else {
                    continue;
                };
                let plan = &class.core.plans[origin.index()];
                // Slices: the run closure then carries (ptr, len) itself
                // instead of re-reading them through the class per run.
                let members: &[QueryId] = &class.members;
                let map: &[usize] = &class.store_of;
                let lookup = MappedStores { entries, map };
                let rows = if class.core.reqs.produced_counters {
                    credited = true;
                    probe_runs_in(plan, &tuple, &lookup, |run| {
                        for (k, &si) in map.iter().enumerate() {
                            let entry = entries[si].as_ref().expect("class store is live");
                            if entry.users[0] == cid {
                                scratches[si].credit(StreamId(k), run);
                            }
                        }
                        for &qid in members {
                            sink.emit_run(qid, run);
                        }
                    })
                } else {
                    probe_runs_in(plan, &tuple, &lookup, |run| {
                        for &qid in members {
                            sink.emit_run(qid, run);
                        }
                    })
                };
                for &qid in members {
                    let q = queries[qid.index()].as_mut();
                    q.expect("member is registered").produced += rows;
                }
                produced += rows * members.len() as u64;
            }
            (produced, credited)
        });
        metrics.total_output += produced;
        if role.count_processed {
            metrics.processed += 1;
        } else {
            metrics.replicated += 1;
        }
        // 4. Land the produced-output credits and refresh the credited
        //    priorities by each store owner's policy: one coalesced heap
        //    update per touched slot, landed before the insert below can
        //    read a priority to pick a victim.
        if credited && produced > 0 {
            for (entry, scratch) in stores.iter_mut().zip(scratches.iter_mut()) {
                let Some(entry) = entry else { continue };
                let owner = classes[entry.users[0]].as_ref().expect("owner is live");
                scratch.apply_to(&mut entry.store, &owner.core);
            }
        }
        // 5. Store the arrival once per (stream, window) store, tagged and
        //    — if the store may shed — scored by the store's owner; shed if
        //    the store (or the pool) is full.
        let mut stored = false;
        let mut shed = 0u64;
        let mut copies = 0u64;
        for entry in stores.iter_mut().flatten() {
            if entry.gstream != g {
                continue;
            }
            let owner = classes[entry.users[0]].as_mut().expect("owner is live");
            let mut local = tuple.clone();
            local.stream = entry.owner_local;
            let outcome = owner
                .core
                .admit(&mut entry.store, local, now, event_time, sample, metrics);
            stored |= outcome.slot.is_some();
            copies += 1;
            if let Eviction::Evicted(_) = outcome.eviction {
                entry.shed += 1;
                metrics.shed_window += 1;
                shed += 1;
            }
        }
        if let MemoryMode::GlobalPool(total) = config.memory {
            let (evicted, own) = shed_to_pool(stores, total, tuple.seq, metrics);
            shed += evicted;
            stored = own < copies;
        }
        IngestOutcome {
            produced,
            stored,
            shed,
        }
    }

    /// [`MultiQueryEngine::ingest`] over a run of arrivals, in order. The
    /// aggregate outcome sums `produced`/`shed`; `stored` reports the final
    /// arrival's disposition.
    pub fn ingest_batch(
        &mut self,
        arrivals: impl IntoIterator<Item = Arrival>,
        sink: &mut impl EmitSink,
    ) -> IngestOutcome {
        let mut total = IngestOutcome {
            produced: 0,
            stored: true,
            shed: 0,
        };
        for arrival in arrivals {
            let out = self.ingest(arrival, sink);
            total.produced += out.produced;
            total.shed += out.shed;
            total.stored = out.stored;
        }
        total
    }

    /// Notes `n` arrivals of global stream `g` processed on another shard,
    /// so tuple-based window expiry here counts every operator-reaching
    /// arrival.
    pub fn note_foreign_arrivals(&mut self, g: StreamId, n: u64) {
        for entry in self.stores.iter_mut().flatten() {
            if entry.gstream == g {
                entry.store.note_arrivals(n);
            }
        }
    }

    /// Offers the minted `tuple` to the input `queue` in front of the
    /// operator (paper §2's overload model) at `now`: scored by the
    /// policy's queue priority — answered by the owner class of the first
    /// live store of its stream — with any random victim drawn from that
    /// class's rng, so a whole run stays one deterministic random sequence.
    /// A tuple the full queue sheds is counted in
    /// [`EngineMetrics::shed_queue`].
    ///
    /// # Panics
    /// Panics if no live query reads the tuple's stream.
    pub fn offer(&mut self, queue: &mut ShedQueue, tuple: Tuple, now: VTime) {
        let event_time = self.front.is_some();
        let entry = self.stores.iter().flatten().find(|e| e.gstream == tuple.stream);
        let entry = entry.expect("a live query reads the stream");
        let owner = self.classes[entry.users[0]].as_mut().expect("owner is live");
        let mut local = tuple.clone();
        local.stream = entry.owner_local;
        let score = owner.core.queue_score(&local, now, event_time);
        let victim = self.policy_proto.queue_victim();
        if queue.offer(tuple, score, victim, &mut owner.core.rng).is_some() {
            self.metrics.shed_queue += 1;
        }
    }
}

#[cfg(test)]
impl MultiQueryEngine {
    /// Class `cid`'s core and its view of the store table — what a
    /// single-query engine's tests read for the engine's plans and stores.
    pub(crate) fn class_view(&self, cid: usize) -> (&QueryCore, MappedStores<'_>) {
        let class = self.classes[cid].as_ref().expect("class is live");
        let stores = MappedStores {
            entries: &self.stores,
            map: &class.store_of,
        };
        (&class.core, stores)
    }
}

/// [`MemoryMode::GlobalPool`]'s half of step 5: while the live stores hold
/// more than `total` tuples, evict the global minimum under the same
/// `(score, seq)` order the per-store heaps use, so cross-window ties still
/// evict the oldest tuple first — never the just-inserted one ahead of an
/// equally-scored elder. Pool stores are unbounded (only this loop
/// evicts). Returns the evictions and how many of them were copies of the
/// arrival `seq`.
fn shed_to_pool(
    stores: &mut [Option<StoreEntry>],
    total: usize,
    seq: SeqNo,
    metrics: &mut EngineMetrics,
) -> (u64, u64) {
    let (mut shed, mut own) = (0u64, 0u64);
    while stores.iter().flatten().map(|e| e.store.len()).sum::<usize>() > total {
        let victim_store = stores
            .iter()
            .enumerate()
            .filter_map(|(i, e)| {
                let st = &e.as_ref()?.store;
                st.peek_min().map(|(slot, p)| {
                    let seq = st.tuple(slot).expect("heap slot is live").seq;
                    (i, p, seq)
                })
            })
            .min_by(|a, b| {
                a.1.partial_cmp(&b.1)
                    .expect("finite priorities")
                    .then(a.2.cmp(&b.2))
            })
            .map(|(i, _, _)| i)
            .expect("pool over limit implies a resident tuple");
        let entry = stores[victim_store].as_mut().expect("victim store is live");
        let (victim, _) = entry.store.evict_min().expect("store has a minimum");
        own += u64::from(victim.seq == seq);
        entry.shed += 1;
        metrics.shed_window += 1;
        shed += 1;
    }
    (shed, own)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::EngineBuilder;
    use crate::ingest::{CountSink, QueryRowsSink, VecSink};
    use mstream_shed_policies::{Fifo, MSketch};
    use mstream_types::{Row, StreamSchema, Value};

    fn pair_query(l: &str, r: &str, secs: u64) -> JoinQuery {
        let mut c = Catalog::new();
        c.add_stream(StreamSchema::new(l, &["k", "v"]));
        c.add_stream(StreamSchema::new(r, &["k", "v"]));
        JoinQuery::from_names(
            c,
            &[(&format!("{l}.k"), &format!("{r}.k"))],
            WindowSpec::secs(secs),
        )
        .unwrap()
    }

    fn chain_query(a: &str, b: &str, c_name: &str, secs: u64) -> JoinQuery {
        let mut c = Catalog::new();
        c.add_stream(StreamSchema::new(a, &["k", "v"]));
        c.add_stream(StreamSchema::new(b, &["k", "v"]));
        c.add_stream(StreamSchema::new(c_name, &["k", "v"]));
        JoinQuery::from_names(
            c,
            &[
                (&format!("{a}.k"), &format!("{b}.k")),
                (&format!("{b}.v"), &format!("{c_name}.k")),
            ],
            WindowSpec::secs(secs),
        )
        .unwrap()
    }

    fn multi(queries: Vec<JoinQuery>, capacity: usize) -> MultiQueryEngine {
        let mut b = EngineBuilder::new_multi()
            .policy(Fifo)
            .capacity_per_window(capacity);
        for q in queries {
            b.register(q).unwrap();
        }
        b.build_multi().unwrap()
    }

    /// A deterministic little trace over streams by name. Keys derive
    /// from the round-robin *cycle* index so they do not correlate with
    /// the stream (a `i % 3` key would be constant per stream whenever
    /// the stream count divides 3).
    fn trace(names: &[&str], len: u64) -> Vec<(String, Row, VTime)> {
        (0..len)
            .map(|i| {
                let s = names[(i % names.len() as u64) as usize];
                let cycle = i / names.len() as u64;
                let row: Row = vec![Value(cycle % 3), Value(cycle % 5)].into();
                (s.to_string(), row, VTime::from_secs(i))
            })
            .collect()
    }

    fn feed(e: &mut MultiQueryEngine, t: &[(String, Row, VTime)], sink: &mut QueryRowsSink) {
        for (name, row, ts) in t {
            let g = e.stream_id(name).expect("stream registered");
            e.ingest(Arrival::new(g, row.clone(), *ts), sink);
        }
    }

    /// Projects an emitted row to comparable form (stream tags differ
    /// between a query's run on a shared plane and its run alone).
    fn key_rows(rows: &[Vec<Tuple>]) -> Vec<Vec<(VTime, Row)>> {
        rows.iter()
            .map(|r| r.iter().map(|t| (t.ts, t.values.clone())).collect())
            .collect()
    }

    fn solo_rows(query: JoinQuery, t: &[(String, Row, VTime)], capacity: usize) -> Vec<Vec<Tuple>> {
        let mut e = EngineBuilder::new(query)
            .policy(Fifo)
            .capacity_per_window(capacity)
            .build()
            .unwrap();
        let mut sink = VecSink::default();
        for (name, row, ts) in t {
            let query = e.query(QueryId::SOLO).expect("one registered query");
            let Ok(attr) = query.catalog().resolve(&format!("{name}.k")) else {
                continue; // stream not in this query
            };
            e.ingest(Arrival::new(attr.stream, row.clone(), *ts), &mut sink);
        }
        sink.rows
    }

    #[test]
    fn duplicate_queries_collapse_into_one_class_and_fan_out() {
        let mut e = multi(vec![pair_query("L", "R", 60), pair_query("L", "R", 60)], 64);
        assert_eq!(e.n_queries(), 2);
        assert_eq!(e.n_classes(), 1, "duplicates share one class");
        assert_eq!(e.n_stores(), 2, "one store per stream, not per query");
        let t = trace(&["L", "R"], 40);
        let mut sink = QueryRowsSink::default();
        feed(&mut e, &t, &mut sink);
        assert!(!sink.rows[0].is_empty());
        assert_eq!(
            key_rows(&sink.rows[0]),
            key_rows(&sink.rows[1]),
            "both duplicates see identical results"
        );
        let s0 = e.query_stats(QueryId(0)).unwrap();
        let s1 = e.query_stats(QueryId(1)).unwrap();
        assert_eq!(s0, s1);
        assert_eq!(s0.produced, sink.rows[0].len() as u64);
    }

    #[test]
    fn full_memory_matches_each_solo_run() {
        // Duplicate + overlapping-subgraph + disjoint mix.
        let queries = vec![
            pair_query("L", "R", 60),
            pair_query("L", "R", 60),
            chain_query("L", "R", "X", 60),
            pair_query("A", "B", 60),
        ];
        let mut e = multi(queries.clone(), 100_000);
        let t = trace(&["L", "R", "X", "A", "B"], 120);
        let mut sink = QueryRowsSink::default();
        feed(&mut e, &t, &mut sink);
        for (i, q) in queries.into_iter().enumerate() {
            let solo = solo_rows(q, &t, 100_000);
            assert_eq!(
                key_rows(&sink.rows[i]),
                key_rows(&solo),
                "query {i} diverged from its solo run"
            );
        }
    }

    #[test]
    fn overlapping_subgraphs_share_stores() {
        let e = multi(
            vec![pair_query("L", "R", 60), chain_query("L", "R", "X", 60)],
            64,
        );
        assert_eq!(e.n_classes(), 2);
        // L and R are shared; only X is extra: 3 stores, not 5.
        assert_eq!(e.n_stores(), 3);
    }

    #[test]
    fn different_windows_get_distinct_stores() {
        let e = multi(vec![pair_query("L", "R", 60), pair_query("L", "R", 120)], 64);
        assert_eq!(e.n_classes(), 2);
        assert_eq!(e.n_stores(), 4, "window is part of the sharing key");
    }

    #[test]
    fn add_query_sees_only_the_suffix() {
        let mut e = multi(vec![pair_query("L", "R", 60)], 1 << 20);
        let t = trace(&["L", "R"], 60);
        let (head, tail) = t.split_at(30);
        let mut sink = QueryRowsSink::default();
        feed(&mut e, head, &mut sink);
        let q1 = e.add_query(pair_query("L", "R", 60)).unwrap();
        assert_eq!(q1, QueryId(1));
        assert_eq!(e.n_classes(), 2, "runtime additions never share state");
        feed(&mut e, tail, &mut sink);
        // The late query matches a solo run over the suffix only.
        let solo = solo_rows(pair_query("L", "R", 60), tail, 1 << 20);
        assert_eq!(key_rows(&sink.rows[1]), key_rows(&solo));
        // And the original query is unperturbed by the registration.
        let full = solo_rows(pair_query("L", "R", 60), &t, 1 << 20);
        assert_eq!(key_rows(&sink.rows[0]), key_rows(&full));
    }

    #[test]
    fn remove_query_frees_stores_and_stops_emitting() {
        let mut e = multi(vec![pair_query("L", "R", 60), pair_query("A", "B", 60)], 64);
        assert_eq!(e.n_stores(), 4);
        let t = trace(&["L", "R", "A", "B"], 40);
        let mut sink = QueryRowsSink::default();
        feed(&mut e, &t, &mut sink);
        assert!(e.remove_query(QueryId(1)));
        assert!(!e.remove_query(QueryId(1)), "double removal is a no-op");
        assert_eq!(e.n_stores(), 2, "sole-user stores freed");
        assert_eq!(e.n_queries(), 1);
        let before = sink.rows[1].len();
        feed(&mut e, &t, &mut sink);
        assert_eq!(sink.rows[1].len(), before, "removed query emits nothing");
        assert!(sink.rows[0].len() > 0);
        assert!(e.query_stats(QueryId(1)).is_none());
    }

    #[test]
    fn remove_query_keeps_cache_counters_monotone() {
        // Engine-level cache statistics live in the per-class sketch
        // banks; dismantling a class must fold its counts into the retired
        // baseline, never lose them.
        let mut b = EngineBuilder::new_multi()
            .policy(mstream_shed_policies::MSketch)
            .capacity_per_window(4); // full windows: every arrival is scored
        b.register(pair_query("L", "R", 30)).unwrap();
        b.register(pair_query("A", "B", 30)).unwrap();
        let mut e = b.build_multi().unwrap();
        let t = trace(&["L", "R", "A", "B"], 200);
        let mut sink = QueryRowsSink::default();
        feed(&mut e, &t, &mut sink);
        let before = e.metrics().clone();
        let activity = before.score_cache_hits + before.score_cache_misses;
        assert!(activity > 0, "sketch scoring must exercise the cache");
        assert!(e.remove_query(QueryId(1)));
        let after = e.metrics().clone();
        assert!(
            after.score_cache_hits >= before.score_cache_hits
                && after.score_cache_misses >= before.score_cache_misses
                && after.sign_cache_hits >= before.sign_cache_hits
                && after.sign_cache_misses >= before.sign_cache_misses,
            "cache counters went backwards across remove_query:\n{before:?}\n{after:?}"
        );
        // The survivor keeps counting on top of the retired baseline.
        feed(&mut e, &t, &mut sink);
        let later = e.metrics().clone();
        assert!(
            later.score_cache_hits + later.score_cache_misses
                >= after.score_cache_hits + after.score_cache_misses,
            "counters stay monotone after churn"
        );
    }

    #[test]
    fn shared_store_removal_keeps_survivors() {
        let mut e = multi(
            vec![pair_query("L", "R", 60), chain_query("L", "R", "X", 60)],
            1 << 20,
        );
        let t = trace(&["L", "R", "X"], 40);
        let mut sink = QueryRowsSink::default();
        feed(&mut e, &t.clone()[..20], &mut sink);
        assert!(e.remove_query(QueryId(0)));
        assert_eq!(e.n_stores(), 3, "shared stores survive, owner hands off");
        feed(&mut e, &t[20..], &mut sink);
        let solo = solo_rows(chain_query("L", "R", "X", 60), &t, 1 << 20);
        assert_eq!(key_rows(&sink.rows[1]), key_rows(&solo));
    }

    #[test]
    fn owner_handoff_retags_residents_for_the_heir() {
        // chain(A,B,X) owns the shared X store and tags its residents with
        // its local id 2; pair(X,Y) knows X as 0 and has two streams. Once
        // the chain departs, the pair's rollovers rescore those residents:
        // under the departed owner's tag that indexed the pair's sketch
        // bank out of bounds.
        let mut b = EngineBuilder::new_multi()
            .policy(MSketch)
            .capacity_per_window(8);
        b.register(chain_query("A", "B", "X", 20)).unwrap();
        b.register(pair_query("X", "Y", 20)).unwrap();
        let mut e = b.build_multi().unwrap();
        let t = trace(&["A", "B", "X", "Y"], 200);
        let mut sink = QueryRowsSink::default();
        feed(&mut e, &t[..40], &mut sink);
        assert!(e.remove_query(QueryId(0)));
        assert_eq!(e.n_stores(), 2, "the shared X store passes to the pair");
        feed(&mut e, &t[40..], &mut sink);
        assert!(e.metrics().epoch_rollovers > 0, "the heir must roll over");
        let x = e.stores.iter().flatten().find(|s| s.gstream == StreamId(2));
        let x = x.expect("X store is live");
        assert_eq!(x.owner_local, StreamId(0));
        assert!(x.store.iter().all(|(_, t)| t.stream == StreamId(0)));
    }

    #[test]
    fn plane_owes_priorities_exactly_like_the_eager_reference() {
        // Rollover, step 5 and the owner hand-off all go through the solo
        // engine's two methods: chain(A,B,X) owns the shared X store until
        // it departs mid-run and pair(X,Y) inherits it, owed passes and all.
        use crate::eager::Eager;
        use mstream_shed_policies::MSketchRs;
        let t = trace(&["A", "B", "X", "Y"], 400);
        let run = |policy: Box<dyn ShedPolicy>, capacity: usize| {
            let mut b = EngineBuilder::new_multi()
                .boxed_policy(policy)
                .capacity_per_window(capacity);
            b.register(chain_query("A", "B", "X", 20)).unwrap();
            b.register(pair_query("X", "Y", 20)).unwrap();
            let mut e = b.build_multi().unwrap();
            let mut sink = QueryRowsSink::default();
            let mut deferred_peak = 0;
            for (i, (name, row, ts)) in t.iter().enumerate() {
                if i == 200 {
                    assert!(e.remove_query(QueryId(0)));
                }
                let g = e.stream_id(name).unwrap();
                e.ingest(Arrival::new(g, row.clone(), *ts), &mut sink);
                deferred_peak = deferred_peak.max(e.deferred_windows());
            }
            let metrics = EngineMetrics {
                sketch_observe_ns: 0,
                score_ns: 0,
                expire_ns: 0,
                probe_ns: 0,
                insert_ns: 0,
                priority_rebuild_ns: 0,
                priority_rebuilds: 0,
                sign_cache_hits: 0,
                sign_cache_misses: 0,
                score_cache_hits: 0,
                score_cache_misses: 0,
                ..e.metrics().clone()
            };
            (sink.rows, metrics, deferred_peak)
        };
        let policies: [fn() -> Box<dyn ShedPolicy>; 2] =
            [|| Box::new(MSketch), || Box::new(MSketchRs)];
        for mk in policies {
            // 5 residents per 20 s window: capacity 4 is always full.
            for capacity in [4, 64] {
                let (rows, metrics, deferred) = run(mk(), capacity);
                let (want_rows, want_metrics, never) = run(Box::new(Eager(mk())), capacity);
                let label = format!("{} at capacity {capacity}", mk().name());
                assert_eq!(rows, want_rows, "{label}: rows or their order");
                assert_eq!(metrics, want_metrics, "{label}: counters");
                assert!(rows.iter().all(|r| !r.is_empty()), "{label}: both queries join");
                assert_eq!(never, 0, "{label}: the reference owes nothing");
                assert!(deferred > 0, "{label}: the plane must defer");
                assert_eq!(metrics.shed_window > 0, capacity == 4, "{label}");
            }
        }
    }

    #[test]
    fn plane_times_the_sampled_stages_like_the_solo_engine() {
        // Two classes sharing the X store, windows always full: a sketch
        // policy is charged observe and score time on the timed arrivals
        // (400 arrivals, one in `clock::STRIDE` timed), a sketch-free one
        // no observe time.
        let run = |policy: Box<dyn ShedPolicy>| {
            let mut b = EngineBuilder::new_multi()
                .boxed_policy(policy)
                .capacity_per_window(4);
            b.register(chain_query("A", "B", "X", 20)).unwrap();
            b.register(pair_query("X", "Y", 20)).unwrap();
            let mut e = b.build_multi().unwrap();
            feed(&mut e, &trace(&["A", "B", "X", "Y"], 400), &mut QueryRowsSink::default());
            e.metrics().clone()
        };
        let m = run(Box::new(MSketch));
        assert!(m.shed_window > 0, "capacity 4 must shed");
        assert!(m.sketch_observe_ns > 0 && m.score_ns > 0, "{m:?}");
        assert!(m.expire_ns > 0 && m.probe_ns > 0 && m.insert_ns > 0, "{m:?}");
        assert_eq!(run(Box::new(Fifo)).sketch_observe_ns, 0);
    }

    #[test]
    fn shed_output_is_a_sub_multiset_of_exact() {
        let mut tight = multi(vec![pair_query("L", "R", 60)], 2);
        let mut exact = multi(vec![pair_query("L", "R", 60)], 1 << 20);
        let t = trace(&["L", "R"], 80);
        let (mut s1, mut s2) = (QueryRowsSink::default(), QueryRowsSink::default());
        feed(&mut tight, &t, &mut s1);
        feed(&mut exact, &t, &mut s2);
        assert!(tight.metrics().shed_window > 0, "capacity 2 must shed");
        let mut exact_keys = key_rows(&s2.rows[0]);
        for row in key_rows(&s1.rows[0]) {
            let pos = exact_keys
                .iter()
                .position(|r| *r == row)
                .expect("shed output must be a sub-multiset of exact");
            exact_keys.swap_remove(pos);
        }
        let stats = tight.query_stats(QueryId(0)).unwrap();
        assert!(stats.shed > 0);
    }

    #[test]
    fn store_replica_stores_without_probing() {
        // The sharded engine's replicas run the plane: a store-only copy
        // observes, expires and stores but never probes, and only the
        // FULL delivery counts as `processed`.
        let mut e = multi(vec![pair_query("L", "R", 60)], 64);
        let (l, r) = (e.stream_id("L").unwrap(), e.stream_id("R").unwrap());
        let mut sink = CountSink::default();
        let mut deliver = |e: &mut MultiQueryEngine, g, role| {
            let t = e.mint(Arrival::new(g, vec![Value(1), Value(0)], VTime::ZERO));
            e.ingest_tuple_as(t, VTime::ZERO, &mut sink, role).produced
        };
        assert_eq!(deliver(&mut e, l, IngestRole::FULL), 0);
        assert_eq!(deliver(&mut e, r, IngestRole::STORE_REPLICA), 0, "a replica never probes");
        assert_eq!(e.window_len(r), Some(1), "but it stores");
        assert_eq!(deliver(&mut e, l, IngestRole::PROBE_REPLICA), 1, "a probing copy joins");
        let m = e.metrics();
        assert_eq!((m.processed, m.replicated, m.total_output), (1, 2, 1));
    }

    #[test]
    fn per_window_each_is_indexed_by_global_stream() {
        // L = 0, R = 1, X = 2 globally; the second query knows R as 0 and
        // X as 1, so a list read by local stream would give X R's budget.
        let mut b = EngineBuilder::new_multi().policy(Fifo).capacities(vec![2, 4, 8]);
        b.register(pair_query("L", "R", 600)).unwrap();
        b.register(pair_query("R", "X", 600)).unwrap();
        let mut e = b.build_multi().unwrap();
        let t = trace(&["L", "R", "X"], 60);
        let mut sink = QueryRowsSink::default();
        feed(&mut e, &t, &mut sink);
        let len = |e: &MultiQueryEngine, name| e.window_len(e.stream_id(name).unwrap());
        assert_eq!([len(&e, "L"), len(&e, "R"), len(&e, "X")], [Some(2), Some(4), Some(8)]);
        // A stream the list does not cover is a typed rejection, rolled back.
        assert_eq!(
            e.add_query(pair_query("X", "Y", 600)),
            Err(BuildError::CapacityCountMismatch {
                got: 3,
                expected: 4
            })
        );
        assert_eq!((e.catalog().len(), e.n_queries(), e.n_stores()), (3, 2, 3));
        // A covered one gets fresh stores at its streams' global budgets.
        e.add_query(pair_query("X", "L", 600)).unwrap();
        feed(&mut e, &t, &mut sink);
        assert_eq!([len(&e, "L"), len(&e, "X")], [Some(2 + 2), Some(8 + 8)]);
    }

    #[test]
    fn global_pool_bounds_the_plane_and_sheds_a_sub_multiset() {
        let queries = vec![pair_query("L", "R", 60), chain_query("L", "R", "X", 60)];
        let mut b = EngineBuilder::new_multi().policy(MSketch).global_pool(10);
        for q in &queries {
            b.register(q.clone()).unwrap();
        }
        let mut pooled = b.build_multi().unwrap();
        let mut exact = multi(queries, 1 << 20);
        let t = trace(&["L", "R", "X"], 150);
        let (mut s1, mut s2) = (QueryRowsSink::default(), QueryRowsSink::default());
        for (name, row, ts) in &t {
            let g = pooled.stream_id(name).unwrap();
            pooled.ingest(Arrival::new(g, row.clone(), *ts), &mut s1);
            exact.ingest(Arrival::new(g, row.clone(), *ts), &mut s2);
            assert!(pooled.total_resident() <= 10, "pool bound violated");
        }
        assert!(pooled.metrics().shed_window > 0, "a pool of 10 must shed");
        for q in 0..2 {
            let mut exact_keys = key_rows(&s2.rows[q]);
            assert!(!s1.rows[q].is_empty(), "query {q} still joins");
            for row in key_rows(&s1.rows[q]) {
                let pos = exact_keys.iter().position(|r| *r == row);
                exact_keys.swap_remove(pos.expect("shed output is a sub-multiset of exact"));
            }
        }
    }

    #[test]
    fn schema_mismatch_on_add_is_rejected_and_rolled_back() {
        let mut e = multi(vec![pair_query("L", "R", 60)], 64);
        let mut c = Catalog::new();
        c.add_stream(StreamSchema::new("L", &["k", "v", "w"]));
        c.add_stream(StreamSchema::new("Z", &["k", "v"]));
        let clash = JoinQuery::from_names(c, &[("L.k", "Z.k")], WindowSpec::secs(60)).unwrap();
        assert!(matches!(
            e.add_query(clash),
            Err(BuildError::SchemaMismatch { .. })
        ));
        assert_eq!(e.catalog().len(), 2, "failed registration leaves no trace");
        assert_eq!(e.n_queries(), 1);
        let mut sink = CountSink::default();
        let g = e.stream_id("L").unwrap();
        e.ingest(Arrival::new(g, vec![Value(1), Value(2)], VTime::ZERO), &mut sink);
    }
}
