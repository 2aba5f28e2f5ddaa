//! The shared multi-query data plane: one engine, N standing queries.
//!
//! [`MultiQueryEngine`] inverts the ownership of the single-query engine:
//! instead of a query owning its windows, the *engine* owns one
//! [`WindowStore`] (with its flat indexes) per **stream × window** and
//! registered queries borrow them. Registration groups queries into
//! **classes** — structurally identical queries (same streams, windows and
//! predicates) collapse into one class that is planned, estimated, scored
//! and probed exactly once; its emissions fan out to every member
//! [`QueryId`]. Distinct classes that touch the same `(stream, window)`
//! pair share the store outright, and their probe plans are merged into a
//! per-arrival-stream **probe trie** so a shared plan prefix (the same
//! equi-predicate over the same stores) is enumerated once and its partial
//! probe results are reused by every query hanging off it.
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
//! deterministic state handoff with no retroactive results.
//! [`MultiQueryEngine::remove_query`] drops the member; a class with no
//! members left is dismantled and any store losing its last user is freed
//! immediately (its memory budget with it). Query ids are dense
//! registration-order indices and are never reused.
//!
//! # Stream tags in emissions
//!
//! Stored tuples carry the *owner class's local* stream tag; the arriving
//! tuple in a [`Bindings`] carries the engine's *global* tag. Consumers
//! identifying result rows should therefore key on `(ts, values)` (plus
//! emission order), not on `Tuple::stream` — the differential tests and
//! the audit harness do exactly this.

use crate::builder::BuildError;
use crate::engine::{default_epoch, rescore_store, EngineConfig, MemoryMode, ProducedScratch};
use crate::ingest::{Arrival, EmitSink, IngestOutcome};
use crate::report::EngineMetrics;
use mstream_join::{Bindings, ProbePlan, StoreLookup};
use mstream_shed_policies::{clamp_score, PriorityCtx, Requirements, ShedPolicy};
use mstream_sketch::{TumblingFreq, TumblingSketches};
use mstream_types::{
    Catalog, EquiPredicate, JoinQuery, QueryId, SeqNo, StreamId, Tuple, VTime, Value, WindowSpec,
};
use mstream_window::{Slot, WindowStore};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub use crate::multi_shard::{MultiRunReport, ShardedMultiEngine};

/// One shared window store plus its sharing bookkeeping.
struct StoreEntry {
    store: WindowStore,
    /// The global stream this store holds tuples of.
    gstream: StreamId,
    /// Classes using this store, in registration order; `users[0]` is the
    /// owner whose policy governs scoring and shedding here.
    users: Vec<usize>,
    /// Tuples shed from this store (evictions before expiry).
    shed: u64,
}

/// One class of structurally identical registered queries.
struct QueryClass {
    /// The class's query in its own local stream space (`StreamId(0..n)`).
    query: JoinQuery,
    /// Member queries, in registration order; every emission fans out to
    /// each of them.
    members: Vec<QueryId>,
    plans: Vec<ProbePlan>,
    policy: Box<dyn ShedPolicy>,
    reqs: Requirements,
    sketches: Option<TumblingSketches>,
    partner_freq: Option<TumblingFreq>,
    rng: StdRng,
    /// Local stream `k` → global stream id.
    gstream_of: Vec<StreamId>,
    /// Local stream `k` → store table index.
    store_of: Vec<usize>,
}

impl QueryClass {
    /// The local stream id of global stream `g` in this class, if any.
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

/// A position in the probe-trie path: the arriving tuple or an
/// already-bound trie depth. Canonicalizing plan steps into path positions
/// (instead of query-local stream ids) is what lets structurally matching
/// steps of *different* queries merge into one trie node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PathRef {
    Origin,
    Depth(usize),
}

/// One merged probe step shared by every class whose canonical plan
/// traverses it. `terminals` lists the classes whose plans complete here.
struct TrieNode {
    /// Store table index probed by this step.
    store: usize,
    /// Schema attribute hash-probed on that store.
    probe_attr: usize,
    /// Where the probe value comes from.
    drive: (PathRef, usize),
    /// Residual equi-checks `(bound position, bound attr, candidate
    /// attr)`.
    residual: Vec<(PathRef, usize, usize)>,
    /// `(class id, class-local origin stream)` pairs completing here.
    terminals: Vec<(usize, StreamId)>,
    children: Vec<TrieNode>,
}

/// Applies the produced-output credits of the probe just run to every
/// store: one coalesced `add_produced` + priority refresh per touched slot,
/// refreshed by the store owner's policy (credits are only accrued by
/// owner-class emissions, keeping the owner's counters solo-identical).
/// The multi-query twin of the solo engine's `flush_produced`; shares its
/// [`ProducedScratch`].
fn flush_credit_stores(
    stores: &mut [Option<StoreEntry>],
    scratches: &mut [ProducedScratch],
    classes: &[Option<QueryClass>],
) {
    for (slot, scratch) in stores.iter_mut().zip(scratches.iter_mut()) {
        if scratch.touched.is_empty() {
            continue;
        }
        let entry = slot.as_mut().expect("credited store is live");
        let owner = entry.users[0];
        let policy = &classes[owner].as_ref().expect("owner is live").policy;
        scratch.drain_credits(|slot, cnt| {
            let Some(total) = entry.store.add_produced(slot, cnt) else {
                return;
            };
            let state = entry.store.state(slot).expect("credited slot is live");
            let score = clamp_score(policy.refresh_priority(state, total));
            entry.store.update_priority(slot, score);
        });
    }
}

/// A query-local view of the shared store table: local stream `k` resolves
/// through the class's `store_of` mapping. This is the [`StoreLookup`]
/// behind every multi-query [`Bindings`].
struct MappedStores<'a> {
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
/// model; construction goes through
/// [`crate::EngineBuilder::build_multi`].
pub struct MultiQueryEngine {
    catalog: Catalog,
    policy_proto: Box<dyn ShedPolicy>,
    config: EngineConfig,
    queries: Vec<Option<QueryState>>,
    classes: Vec<Option<QueryClass>>,
    stores: Vec<Option<StoreEntry>>,
    /// Per-store produced-credit scratch (parallel to `stores`).
    scratches: Vec<ProducedScratch>,
    /// Per-class slot scratch for assembling emission bindings (parallel
    /// to `classes`).
    emit_scratch: Vec<Vec<Option<Slot>>>,
    /// Per global stream: merged probe-trie roots.
    tries: Vec<Vec<TrieNode>>,
    next_seq: SeqNo,
    metrics: EngineMetrics,
    /// Cache counters of classes dismantled by
    /// [`MultiQueryEngine::remove_query`], folded in at teardown so the
    /// engine-level cache statistics stay monotone as classes (and the
    /// sketch banks carrying the live counters) come and go.
    retired_cache: RetiredCacheStats,
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
            emit_scratch: Vec::new(),
            tries: Vec::new(),
            next_seq: SeqNo(0),
            metrics: EngineMetrics::default(),
            retired_cache: RetiredCacheStats::default(),
        };
        engine.per_window_capacity()?;
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
        }
        let mut planned: Vec<Planned> = Vec::new();
        let mut class_maps: Vec<(Vec<StreamId>, Vec<usize>)> = Vec::new();
        for (cid, (q, _)) in specs.iter().enumerate() {
            let gstream_of = engine.merge_catalog(q)?;
            let mut store_of = Vec::with_capacity(q.n_streams());
            for (k, &g) in gstream_of.iter().enumerate() {
                let window = q.window(StreamId(k));
                let mut attrs = q.join_attrs(StreamId(k));
                attrs.sort_unstable();
                attrs.dedup();
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
                        });
                        planned.len() - 1
                    }
                };
                store_of.push(si);
            }
            class_maps.push((gstream_of, store_of));
        }
        let capacity = engine.per_window_capacity()?;
        for p in planned {
            engine.stores.push(Some(StoreEntry {
                store: WindowStore::new(p.window, p.attrs.clone(), capacity),
                gstream: p.gstream,
                users: p.users,
                shed: 0,
            }));
            engine.scratches.push(ProducedScratch::default());
        }
        for ((q, members), (gstream_of, store_of)) in specs.into_iter().zip(class_maps) {
            let cid = engine.classes.len();
            let class = make_class(
                q,
                members.clone(),
                gstream_of,
                store_of,
                engine.policy_proto.clone(),
                &engine.config,
            )?;
            engine.classes.push(Some(class));
            engine.emit_scratch.push(Vec::new());
            for m in members {
                if engine.queries.len() <= m.index() {
                    engine.queries.resize_with(m.index() + 1, || None);
                }
                engine.queries[m.index()] = Some(QueryState {
                    class: cid,
                    produced: 0,
                });
            }
        }
        engine.rebuild_tries();
        Ok(engine)
    }

    /// The per-window capacity of the (sole supported) memory mode.
    fn per_window_capacity(&self) -> Result<usize, BuildError> {
        match &self.config.memory {
            MemoryMode::PerWindow(0) => Err(BuildError::ZeroWindowCapacity),
            MemoryMode::PerWindow(c) => Ok(*c),
            MemoryMode::PerWindowEach(_) => Err(BuildError::UnsupportedMulti {
                what: "MemoryMode::PerWindowEach",
            }),
            MemoryMode::GlobalPool(_) => Err(BuildError::UnsupportedMulti {
                what: "MemoryMode::GlobalPool",
            }),
        }
    }

    /// Maps `query`'s local streams into the global catalog by stream
    /// *name*, appending streams the catalog has not seen and rejecting
    /// schema conflicts.
    fn merge_catalog(&mut self, query: &JoinQuery) -> Result<Vec<StreamId>, BuildError> {
        merge_into_catalog(&mut self.catalog, query)
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
        self.classes[state.class].as_ref().map(|c| &c.query)
    }

    /// Accumulated engine-level counters. Sketch-side cache statistics
    /// are snapshotted here, at read time: the sum over every live class's
    /// sketch bank plus the folded baseline of classes already dismantled
    /// by [`MultiQueryEngine::remove_query`] — so the counters stay
    /// monotone across query churn.
    pub fn metrics(&mut self) -> &EngineMetrics {
        let mut total = self.retired_cache;
        for class in self.classes.iter().flatten() {
            if let Some(sk) = class.sketches.as_ref() {
                total.absorb(sk);
            }
        }
        self.metrics.sign_cache_hits = total.sign_hits;
        self.metrics.sign_cache_misses = total.sign_misses;
        self.metrics.score_cache_hits = total.score_hits;
        self.metrics.score_cache_misses = total.score_misses;
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

    /// Structural audit of the shared data plane: every live store's
    /// internal invariants, every class's sketch coherence, and the
    /// sharing bookkeeping (owners exist, mappings in range). Compiled
    /// only under the `audit` feature.
    ///
    /// # Panics
    /// Panics on any violated invariant.
    #[cfg(feature = "audit")]
    pub fn check_invariants(&self) {
        for entry in self.stores.iter().flatten() {
            entry.store.check_invariants();
            assert!(!entry.users.is_empty(), "stores without users are freed");
            for &cid in &entry.users {
                assert!(
                    self.classes.get(cid).is_some_and(|c| c.is_some()),
                    "store user class {cid} is live"
                );
            }
        }
        for class in self.classes.iter().flatten() {
            if let Some(sk) = class.sketches.as_ref() {
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
    }

    /// Registers a new standing query at runtime and returns its id.
    ///
    /// The query always gets a fresh class with fresh stores — even if it
    /// is structurally identical to a running one — so it sees only
    /// tuples admitted after this call (deterministic handoff). Its
    /// schema must agree with the global catalog on any stream name it
    /// shares.
    pub fn add_query(&mut self, query: JoinQuery) -> Result<QueryId, BuildError> {
        let capacity = self.per_window_capacity()?;
        let snapshot = self.catalog.clone();
        let gstream_of = match self.merge_catalog(&query) {
            Ok(m) => m,
            Err(e) => {
                self.catalog = snapshot;
                return Err(e);
            }
        };
        let cid = self.classes.len();
        let first_store = self.stores.len();
        let store_of: Vec<usize> = (0..query.n_streams()).map(|k| first_store + k).collect();
        let windows: Vec<WindowSpec> = (0..query.n_streams())
            .map(|k| query.window(StreamId(k)))
            .collect();
        let attr_sets: Vec<Vec<usize>> = (0..query.n_streams())
            .map(|k| {
                let mut a = query.join_attrs(StreamId(k));
                a.sort_unstable();
                a.dedup();
                a
            })
            .collect();
        let qid = QueryId(self.queries.len() as u32);
        let class = match make_class(
            query,
            vec![qid],
            gstream_of.clone(),
            store_of,
            self.policy_proto.clone(),
            &self.config,
        ) {
            Ok(c) => c,
            Err(e) => {
                self.catalog = snapshot;
                return Err(e);
            }
        };
        for ((&g, window), attrs) in gstream_of.iter().zip(windows).zip(attr_sets) {
            self.stores.push(Some(StoreEntry {
                store: WindowStore::new(window, attrs, capacity),
                gstream: g,
                users: vec![cid],
                shed: 0,
            }));
            self.scratches.push(ProducedScratch::default());
        }
        self.classes.push(Some(class));
        self.emit_scratch.push(Vec::new());
        self.queries.push(Some(QueryState {
            class: cid,
            produced: 0,
        }));
        self.rebuild_tries();
        Ok(qid)
    }

    /// Deregisters `id`: it stops emitting immediately. When it was its
    /// class's last member the class is dismantled, and stores left with
    /// no users are freed on the spot (their memory budget with them).
    /// Returns `false` if `id` is unknown or already removed. Survivor
    /// queries are not perturbed: shared stores keep evolving, and a
    /// shared store whose owner departs is handed to its next-oldest user
    /// (which rescoring picks up from the next epoch rollover).
    pub fn remove_query(&mut self, id: QueryId) -> bool {
        let Some(state) = self.queries.get_mut(id.index()).and_then(Option::take) else {
            return false;
        };
        let cid = state.class;
        let class = self.classes[cid].as_mut().expect("member's class is live");
        class.members.retain(|&q| q != id);
        if class.members.is_empty() {
            let retired = std::mem::take(&mut self.classes[cid]).expect("checked");
            if let Some(sk) = retired.sketches.as_ref() {
                // The class's sketch bank dies here; bank its cache
                // counters so engine-level stats stay monotone.
                self.retired_cache.absorb(sk);
            }
            let store_of = retired.store_of;
            for si in store_of {
                let entry = self.stores[si].as_mut().expect("class store is live");
                entry.users.retain(|&c| c != cid);
                if entry.users.is_empty() {
                    self.stores[si] = None;
                }
            }
        }
        self.rebuild_tries();
        true
    }

    /// Mints an [`Arrival`] (global stream id) into a sequence-numbered
    /// tuple without processing it.
    pub fn mint(&mut self, arrival: Arrival) -> Tuple {
        let seq = self.next_seq;
        self.next_seq = seq.next();
        Tuple::new(arrival.stream, arrival.ts, seq, arrival.values)
    }

    /// Feeds one arrival (addressed by **global** stream id) through the
    /// shared data plane: every interested class observes it, probes once
    /// through the merged trie, and fans results out to its member
    /// queries via `sink`. Returns the aggregate outcome across all
    /// queries.
    pub fn ingest(&mut self, arrival: Arrival, sink: &mut impl EmitSink) -> IngestOutcome {
        let now = arrival.ts;
        let tuple = self.mint(arrival);
        self.ingest_tuple(tuple, now, sink)
    }

    /// Runs one already-minted tuple (global stream tag) through the data
    /// plane at time `now` — the primitive the sharded coordinator feeds.
    pub fn ingest_tuple(
        &mut self,
        tuple: Tuple,
        now: VTime,
        sink: &mut impl EmitSink,
    ) -> IngestOutcome {
        let g = tuple.stream;
        assert!(
            g.index() < self.catalog.len(),
            "arrival stream {g} is not in the engine catalog"
        );
        let Self {
            queries,
            classes,
            stores,
            scratches,
            emit_scratch,
            tries,
            metrics,
            ..
        } = self;
        // 1. Every interested class folds the arrival into its estimation
        //    state under its *local* stream id; a class whose epoch rolls
        //    over rebuilds the priorities of the stores it owns (exactly
        //    its solo rollover, store tuples already carry its tags).
        for (cid, class) in classes.iter_mut().enumerate() {
            let Some(class) = class.as_mut() else {
                continue;
            };
            let Some(k) = class.local_of(g) else { continue };
            let mut rolled = false;
            if let Some(sk) = class.sketches.as_mut() {
                rolled |= sk.observe(k, &tuple.values, now);
            }
            if let Some(fr) = class.partner_freq.as_mut() {
                rolled |= fr.observe(k, &tuple.values, now);
            }
            if !rolled {
                continue;
            }
            metrics.epoch_rollovers += 1;
            if !class.reqs.recompute_on_epoch {
                continue;
            }
            let QueryClass {
                query,
                policy,
                sketches,
                partner_freq,
                rng,
                store_of,
                ..
            } = class;
            for &si in store_of.iter() {
                let entry = stores[si].as_mut().expect("class store is live");
                if entry.users.first() == Some(&cid) {
                    rescore_store(
                        query,
                        policy.as_mut(),
                        sketches,
                        partner_freq,
                        rng,
                        &mut entry.store,
                        now,
                    );
                }
            }
        }
        // 2. Expire every live store. Expirations always proceed
        //    oldest-first, so expiring a store between its owner's events
        //    changes only the batching of removals, never their sequence —
        //    owner-solo equivalence is preserved.
        for entry in stores.iter_mut().flatten() {
            metrics.expired += entry.store.expire(now).len() as u64;
        }
        // 3. Probe every interested class through the merged trie, before
        //    any insertion (the paper's operator probes partner windows
        //    only). Shared prefixes are enumerated once.
        let produced = {
            let entries: &[Option<StoreEntry>] = stores;
            let mut ctx = ProbeCtx {
                entries,
                classes,
                queries,
                scratches,
                emit_scratch,
                sink,
                tuple: &tuple,
                path: Vec::with_capacity(4),
                produced: 0,
            };
            if let Some(roots) = tries.get(g.index()) {
                for node in roots {
                    ctx.walk(node);
                }
            }
            ctx.produced
        };
        metrics.total_output += produced;
        metrics.processed += 1;
        // 4. Apply produced-output credits: one coalesced heap update per
        //    touched slot (see `flush_credit_stores`).
        flush_credit_stores(stores, scratches, classes);
        // 5. Store the arrival once per (stream, window) store, scored and
        //    tagged by the store's owner; shed if full.
        let mut stored = false;
        let mut shed = 0u64;
        for (si, slot) in stores.iter_mut().enumerate() {
            let Some(entry) = slot.as_mut() else {
                continue;
            };
            if entry.gstream != g {
                continue;
            }
            let owner = entry.users[0];
            let class = classes[owner].as_mut().expect("owner is live");
            let k = class
                .store_of
                .iter()
                .position(|&s| s == si)
                .expect("owner uses its store");
            let mut local = tuple.clone();
            local.stream = StreamId(k);
            let (score, state) = {
                let QueryClass {
                    query,
                    policy,
                    sketches,
                    partner_freq,
                    rng,
                    ..
                } = class;
                let mut ctx = PriorityCtx {
                    query,
                    sketches: sketches.as_mut(),
                    partner_freq: partner_freq.as_ref(),
                    now,
                    rng,
                    event_time: false,
                };
                let (s, st) = policy.window_priority_with_state(&mut ctx, &local, 0);
                (clamp_score(s), st)
            };
            let outcome = entry.store.insert_scored(local, score, state);
            stored |= outcome.slot.is_some();
            if let mstream_window::Eviction::Evicted(_) = outcome.eviction {
                entry.shed += 1;
                metrics.shed_window += 1;
                shed += 1;
            }
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

    /// Rebuilds the per-stream probe tries from the live classes (called
    /// after every registration change; class-id insertion order keeps the
    /// merge deterministic).
    fn rebuild_tries(&mut self) {
        let mut tries: Vec<Vec<TrieNode>> = (0..self.catalog.len()).map(|_| Vec::new()).collect();
        for cid in 0..self.classes.len() {
            let Some(class) = self.classes[cid].as_ref() else {
                continue;
            };
            for k in 0..class.query.n_streams() {
                let g = class.gstream_of[k];
                let steps = canon_steps(class, StreamId(k));
                debug_assert!(!steps.is_empty(), "joins have at least two streams");
                let mut cur: &mut Vec<TrieNode> = &mut tries[g.index()];
                for (j, step) in steps.iter().enumerate() {
                    let pos = match cur.iter().position(|n| {
                        n.store == step.store
                            && n.probe_attr == step.probe_attr
                            && n.drive == step.drive
                            && n.residual == step.residual
                    }) {
                        Some(p) => p,
                        None => {
                            cur.push(TrieNode {
                                store: step.store,
                                probe_attr: step.probe_attr,
                                drive: step.drive,
                                residual: step.residual.clone(),
                                terminals: Vec::new(),
                                children: Vec::new(),
                            });
                            cur.len() - 1
                        }
                    };
                    if j + 1 == steps.len() {
                        cur[pos].terminals.push((cid, StreamId(k)));
                        break;
                    }
                    cur = &mut cur[pos].children;
                }
            }
        }
        self.tries = tries;
    }
}

/// A class plan step canonicalized into path-position space.
struct CanonStep {
    store: usize,
    probe_attr: usize,
    drive: (PathRef, usize),
    residual: Vec<(PathRef, usize, usize)>,
}

/// Rewrites `class`'s probe plan for local origin `k` so that every stream
/// reference becomes a path position — the representation under which
/// structurally matching steps of different queries compare equal.
fn canon_steps(class: &QueryClass, origin: StreamId) -> Vec<CanonStep> {
    let plan = &class.plans[origin.index()];
    let mut pos_of: Vec<Option<PathRef>> = vec![None; class.query.n_streams()];
    pos_of[origin.index()] = Some(PathRef::Origin);
    plan.steps()
        .iter()
        .enumerate()
        .map(|(j, step)| {
            let canon = CanonStep {
                store: class.store_of[step.stream.index()],
                probe_attr: step.probe_attr,
                drive: (
                    pos_of[step.drive_stream.index()].expect("drive stream bound before use"),
                    step.drive_attr,
                ),
                residual: step
                    .residual
                    .iter()
                    .map(|&(bs, ba, ca)| {
                        (
                            pos_of[bs.index()].expect("residual stream bound before use"),
                            ba,
                            ca,
                        )
                    })
                    .collect(),
            };
            pos_of[step.stream.index()] = Some(PathRef::Depth(j));
            canon
        })
        .collect()
}

/// Constructs one query class (shared by build-time registration and
/// runtime [`MultiQueryEngine::add_query`]).
fn make_class(
    query: JoinQuery,
    members: Vec<QueryId>,
    gstream_of: Vec<StreamId>,
    store_of: Vec<usize>,
    policy: Box<dyn ShedPolicy>,
    config: &EngineConfig,
) -> Result<QueryClass, BuildError> {
    let reqs = policy.requirements();
    let epoch = if reqs.sketches || reqs.partner_freq {
        Some(match config.epoch {
            Some(e) => e,
            None => default_epoch(&query)?,
        })
    } else {
        None
    };
    let mut sketches = reqs.sketches.then(|| {
        TumblingSketches::new(&query, config.bank, epoch.expect("resolved above"))
    });
    if let Some(s) = sketches.as_mut() {
        s.set_score_cache(config.score_cache);
    }
    let partner_freq = reqs
        .partner_freq
        .then(|| TumblingFreq::new(&query, epoch.expect("resolved above")));
    Ok(QueryClass {
        plans: ProbePlan::all(&query),
        query,
        members,
        policy,
        reqs,
        sketches,
        partner_freq,
        rng: StdRng::seed_from_u64(config.seed),
        gstream_of,
        store_of,
    })
}

/// The trie walk state: one depth-first enumeration over a global stream's
/// merged probe trie, shared by every interested class.
struct ProbeCtx<'a, S: EmitSink> {
    entries: &'a [Option<StoreEntry>],
    classes: &'a [Option<QueryClass>],
    queries: &'a mut [Option<QueryState>],
    scratches: &'a mut [ProducedScratch],
    emit_scratch: &'a mut [Vec<Option<Slot>>],
    sink: &'a mut S,
    /// The arriving tuple (global stream tag; only values/ts/seq are read).
    tuple: &'a Tuple,
    /// `(slot, store index)` bound at each trie depth.
    path: Vec<(Slot, usize)>,
    produced: u64,
}

impl<'a, S: EmitSink> ProbeCtx<'a, S> {
    /// Resolves a path-position attribute reference against the current
    /// path.
    fn value_at(&self, r: PathRef, attr: usize) -> Value {
        match r {
            PathRef::Origin => self.tuple.values[attr],
            PathRef::Depth(j) => {
                let (slot, si) = self.path[j];
                self.entries[si]
                    .as_ref()
                    .expect("path store is live")
                    .store
                    .tuple(slot)
                    .expect("bound slot is live")
                    .values[attr]
            }
        }
    }

    /// Depth-first enumeration: candidates of this node's store, residual
    /// filtering, terminal emissions, then children — which is exactly the
    /// recursive kernel's order for each individual class, so per-query
    /// emission order matches that query's solo run.
    fn walk(&mut self, node: &TrieNode) {
        let entries = self.entries;
        let drive = self.value_at(node.drive.0, node.drive.1);
        let res: Vec<(Value, usize)> = node
            .residual
            .iter()
            .map(|&(r, ba, ca)| (self.value_at(r, ba), ca))
            .collect();
        let store = &entries[node.store].as_ref().expect("trie store is live").store;
        for slot in store.probe(node.probe_attr, drive).iter() {
            if !res.is_empty() {
                let t = store.tuple(slot).expect("probed slot is live");
                if !res.iter().all(|&(v, ca)| t.values[ca] == v) {
                    continue;
                }
            }
            self.path.push((slot, node.store));
            for &(cid, origin_local) in &node.terminals {
                self.emit(cid, origin_local);
            }
            for child in &node.children {
                self.walk(child);
            }
            self.path.pop();
        }
    }

    /// Emits one completed match of class `cid` to every member query, and
    /// accrues produced credits on the stores the class owns.
    fn emit(&mut self, cid: usize, origin_local: StreamId) {
        let class = self.classes[cid].as_ref().expect("terminal class is live");
        let plan = &class.plans[origin_local.index()];
        let scratch = &mut self.emit_scratch[cid];
        scratch.clear();
        scratch.resize(class.query.n_streams(), None);
        for (j, step) in plan.steps().iter().enumerate() {
            scratch[step.stream.index()] = Some(self.path[j].0);
        }
        if class.reqs.produced_counters {
            for &(slot, si) in self.path.iter() {
                let owner = self.entries[si].as_ref().expect("path store is live").users[0];
                if owner == cid {
                    self.scratches[si].add(slot, 1);
                }
            }
        }
        let lookup = MappedStores {
            entries: self.entries,
            map: &class.store_of,
        };
        let bindings = Bindings::from_parts(origin_local, self.tuple, scratch, &lookup);
        for &qid in &class.members {
            if let Some(q) = self.queries[qid.index()].as_mut() {
                q.produced += 1;
            }
            self.sink.emit(qid, &bindings);
            self.produced += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::EngineBuilder;
    use crate::ingest::{CountSink, QueryRowsSink, VecSink};
    use mstream_shed_policies::Fifo;
    use mstream_types::{Row, StreamSchema};

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
    /// between the shared and the solo engines by design).
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
            let Ok(attr) = e.query().catalog().resolve(&format!("{name}.k")) else {
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
            .capacity_per_window(16);
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
