//! The shedding multi-way join engine (paper §4, Algorithm 1).

use crate::builder::BuildError;
use crate::clock::{Sample, StageClock};
use crate::ingest::{Arrival, EmitSink, IngestOutcome, IngestRole};
use crate::report::EngineMetrics;
use mstream_join::{probe_runs_in, ProbePlan, Run};
use mstream_shed_policies::{clamp_score, PriorityCtx, Requirements, ShedPolicy};
use mstream_sketch::{BankConfig, EpochSpec, TumblingFreq, TumblingSketches};
use mstream_types::{
    JoinQuery, QueryId, Result, SeqNo, StreamId, Tuple, VDur, VTime, Value, WindowSpec,
};
use mstream_window::{Eviction, InsertOutcome, QueueVictim, ReorderBuffer, Slot, WindowStore};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// How window memory is allocated across streams.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MemoryMode {
    /// The same fixed number of tuples for every window (the allocation
    /// used in all of the paper's reported experiments).
    PerWindow(usize),
    /// An explicit per-stream allocation.
    PerWindowEach(Vec<usize>),
    /// One shared pool: windows grow freely but when the total exceeds the
    /// pool, the globally least-priority tuple (across all windows) is
    /// evicted — the variable-allocation variant the paper tried and found
    /// "not so significant" (§5.1.1); reproduced as an ablation.
    GlobalPool(usize),
}

/// Engine construction parameters.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Window memory allocation.
    pub memory: MemoryMode,
    /// AGMS sketch sizing (only materialized if the policy needs sketches).
    pub bank: BankConfig,
    /// Tumbling-epoch discipline; `None` derives the paper's default
    /// (epoch length = join-window length `p`, or per-stream tuple counts
    /// for tuple-based windows).
    pub epoch: Option<EpochSpec>,
    /// Seed for all engine-internal randomness.
    pub seed: u64,
    /// Bounded-disorder event-time front end (DESIGN.md §13). `None` (the
    /// default) keeps the legacy arrival-time semantics: timestamps are
    /// trusted as given, monotone or not, and processing happens at each
    /// arrival's own timestamp. `Some(k)` arms per-stream reorder buffers:
    /// arrivals are admitted while `ts >= watermark` (the cross-stream
    /// minimum high-water mark minus `k`), released to the operator in
    /// `(ts, admission)` order as the watermark advances, and dropped with
    /// [`EngineMetrics::late_dropped`] accounting once later than the
    /// bound. `Some(VDur::ZERO)` is valid: no lateness tolerance, but
    /// cross-stream timestamp alignment still applies.
    pub disorder: Option<VDur>,
    /// Epoch-memoized productivity scoring (DESIGN.md §16), on by default.
    /// Cached and uncached runs are bit-identical by construction — the
    /// memo stores the exact `f64` under an exact key — so the audit
    /// harness A/B-compares the two in one process, with the uncached run
    /// as the reference.
    pub score_cache: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            memory: MemoryMode::PerWindow(1024),
            bank: BankConfig::default(),
            epoch: None,
            seed: 0xEA51,
            disorder: None,
            score_cache: true,
        }
    }
}

/// The event-time ingest front end: per-stream reorder buffers, per-stream
/// high-water marks, and the admission counter that keeps same-timestamp
/// arrivals replaying in arrival order.
pub(crate) struct EventTimeFrontEnd {
    /// The disorder bound `K`.
    pub(crate) bound: VDur,
    /// One reorder buffer per stream.
    pub(crate) buffers: Vec<ReorderBuffer<Arrival>>,
    /// Per-stream maximum timestamp seen (streams with no arrivals yet
    /// hold `VTime::ZERO`, pinning the watermark at the origin until every
    /// stream has spoken).
    pub(crate) hwm: Vec<VTime>,
    /// Admission counter: the tiebreak that orders same-timestamp releases.
    pub(crate) admitted: u64,
}

impl EventTimeFrontEnd {
    pub(crate) fn new(bound: VDur, n_streams: usize) -> Self {
        EventTimeFrontEnd {
            bound,
            buffers: (0..n_streams).map(|_| ReorderBuffer::new()).collect(),
            hwm: vec![VTime::ZERO; n_streams],
            admitted: 0,
        }
    }

    /// `wm = min_s(hwm_s) - K`, saturating at the origin. No accepted
    /// arrival can carry a timestamp below this (lateness is bounded by
    /// `K` relative to the slowest stream's high-water mark), so buffered
    /// tuples strictly below it are safe to release.
    pub(crate) fn watermark(&self) -> VTime {
        let min_hwm = self
            .hwm
            .iter()
            .copied()
            .min()
            .expect("a join has at least one stream");
        min_hwm - self.bound
    }
}

/// The per-query half of Algorithm 1: one query's probe plans, shedding
/// policy and tumbling estimation state, with the steps that touch nothing
/// else — fold an arrival in (step 1), rescore or defer one store at a
/// rollover, admit a tuple to its window (step 5), score one for the
/// input queue.
/// [`ShedJoinEngine`] embeds one next to the stores it owns; every class of
/// the multi-query plane embeds one next to its mapping into the shared
/// store table, so the plane at N = 1 runs the solo engine's code.
pub(crate) struct QueryCore {
    pub(crate) query: JoinQuery,
    pub(crate) plans: Vec<ProbePlan>,
    pub(crate) policy: Box<dyn ShedPolicy>,
    pub(crate) reqs: Requirements,
    pub(crate) sketches: Option<TumblingSketches>,
    partner_freq: Option<TumblingFreq>,
    pub(crate) rng: StdRng,
    /// The construction-time half of [`QueryCore::can_defer`].
    may_defer: bool,
}

impl QueryCore {
    /// Materializes exactly the estimation state `policy` declares it
    /// needs, on `config`'s epoch (or the paper's default for `query`).
    pub(crate) fn new(
        query: JoinQuery,
        policy: Box<dyn ShedPolicy>,
        config: &EngineConfig,
    ) -> core::result::Result<Self, BuildError> {
        let reqs = policy.requirements();
        let epoch = if reqs.sketches || reqs.partner_freq {
            Some(match config.epoch {
                Some(e) => e,
                None => default_epoch(&query)?,
            })
        } else {
            None
        };
        let mut sketches = reqs
            .sketches
            .then(|| TumblingSketches::new(&query, config.bank, epoch.expect("resolved above")));
        if let Some(s) = sketches.as_mut() {
            s.set_score_cache(config.score_cache);
        }
        let partner_freq = reqs
            .partner_freq
            .then(|| TumblingFreq::new(&query, epoch.expect("resolved above")));
        let may_defer = policy.deferrable_priority()
            && reqs.recompute_on_epoch
            && sketches.is_some()
            && config.disorder.is_none()
            && !matches!(config.memory, MemoryMode::GlobalPool(_));
        Ok(QueryCore {
            plans: ProbePlan::all(&query),
            query,
            policy,
            reqs,
            sketches,
            partner_freq,
            rng: StdRng::seed_from_u64(config.seed),
            may_defer,
        })
    }

    /// Step 1: folds an arrival on (query-local) `stream` into the current
    /// tumbling estimation state — AGMS sketches and/or exact
    /// arrival-frequency tables. Returns whether the epoch rolled over.
    /// Charged to [`EngineMetrics::sketch_observe_ns`] when `sample` says
    /// the arrival is timed; a policy that keeps no estimation state is
    /// charged nothing.
    pub(crate) fn observe(
        &mut self,
        stream: StreamId,
        values: &[Value],
        now: VTime,
        sample: Sample,
        metrics: &mut EngineMetrics,
    ) -> bool {
        if self.sketches.is_none() && self.partner_freq.is_none() {
            return false;
        }
        sample.time(&mut metrics.sketch_observe_ns, || {
            let mut rolled = false;
            if let Some(sketches) = self.sketches.as_mut() {
                rolled |= sketches.observe(stream, values, now);
            }
            if let Some(freq) = self.partner_freq.as_mut() {
                rolled |= freq.observe(stream, values, now);
            }
            rolled
        })
    }

    /// The policy next to the estimation state it scores against.
    fn scoring(&mut self, now: VTime, event_time: bool) -> (&mut dyn ShedPolicy, PriorityCtx<'_>) {
        let ctx = PriorityCtx {
            query: &self.query,
            sketches: self.sketches.as_mut(),
            partner_freq: self.partner_freq.as_ref(),
            now,
            rng: &mut self.rng,
            event_time,
        };
        (self.policy.as_mut(), ctx)
    }

    /// The `(priority, cached policy state)` `tuple` (tagged with its
    /// query-local stream) enters its window with. All scores funnel
    /// through the finite clamp before they reach a priority heap —
    /// third-party policies included.
    fn admission_score(&mut self, tuple: &Tuple, now: VTime, event_time: bool) -> (f64, f64) {
        let (policy, mut ctx) = self.scoring(now, event_time);
        let (score, state) = policy.window_priority_with_state(&mut ctx, tuple, 0);
        (clamp_score(score), state)
    }

    /// Priority the policy assigns `tuple` if it were queued right now.
    pub(crate) fn queue_score(&mut self, tuple: &Tuple, now: VTime, event_time: bool) -> f64 {
        let (policy, mut ctx) = self.scoring(now, event_time);
        clamp_score(policy.queue_priority(&mut ctx, tuple))
    }

    /// Whether a store's priorities may be owed instead of kept: the
    /// answer must not depend on *when* it is computed (DESIGN.md §16).
    /// That holds when the policy declares its priority a function of key
    /// values, produced count and the frozen snapshot
    /// ([`ShedPolicy::deferrable_priority`]) and rebuilds at rollovers, no
    /// event-time front end scores late tuples against an older snapshot,
    /// memory is per window (the pool picks its victim across heaps on
    /// every overflow) — fixed at construction — and every stream has
    /// completed an epoch, so no estimate reads the live bank.
    fn can_defer(&self) -> bool {
        self.may_defer
            && self.sketches.as_ref().is_some_and(|s| {
                (0..self.query.n_streams()).all(|k| s.has_last_epoch(StreamId(k)))
            })
    }

    /// One store's share of an epoch rollover (or of a change of owner):
    /// rescore its residents against the fresh snapshot now, or owe the
    /// pass until the store first needs a victim ([`QueryCore::admit`]).
    pub(crate) fn rollover_store(
        &mut self,
        store: &mut WindowStore,
        now: VTime,
        metrics: &mut EngineMetrics,
    ) {
        if self.can_defer() {
            store.defer_priorities();
        } else {
            self.timed_rescore(store, now, metrics);
        }
    }

    /// Step 5: stores `tuple` in its window, shedding if full. A window
    /// that owes its priorities and has room takes the tuple unscored; one
    /// that owes them and is full first runs the pass its last rollover
    /// skipped, then scores and inserts like any other. The scoring is
    /// charged to [`EngineMetrics::score_ns`] and the store's insert (and
    /// eviction) to [`EngineMetrics::insert_ns`] when `sample` says the
    /// arrival is timed.
    pub(crate) fn admit(
        &mut self,
        store: &mut WindowStore,
        tuple: Tuple,
        now: VTime,
        event_time: bool,
        sample: Sample,
        metrics: &mut EngineMetrics,
    ) -> InsertOutcome {
        if store.is_deferred() {
            if !store.is_full() {
                let slot = sample.time(&mut metrics.insert_ns, || store.insert_unscored(tuple));
                return InsertOutcome {
                    slot: Some(slot),
                    eviction: Eviction::None,
                };
            }
            self.timed_rescore(store, now, metrics);
        }
        let (score, state) = sample.time(&mut metrics.score_ns, || {
            self.admission_score(&tuple, now, event_time)
        });
        sample.time(&mut metrics.insert_ns, || store.insert_scored(tuple, score, state))
    }

    /// [`QueryCore::rescore_store`], counted and timed — every pass, not
    /// a sample: there are a few hundred a run.
    fn timed_rescore(&mut self, store: &mut WindowStore, now: VTime, metrics: &mut EngineMetrics) {
        let t0 = Instant::now();
        self.rescore_store(store, now);
        metrics.priority_rebuild_ns += t0.elapsed().as_nanos() as u64;
        metrics.priority_rebuilds += 1;
    }

    /// Rollover rescoring of one store's residents.
    ///
    /// Residents are rescored against the *current* epoch snapshot even in
    /// event-time mode: the paper's rollover rescoring asks "how productive
    /// will this tuple be from now on", not "which epoch did it arrive in"
    /// — and the trusting engine does exactly this, which the K = 0
    /// bit-identity contract (DESIGN.md §13) pins. Event-time epoch
    /// targeting applies only where a tuple's own timestamp is the scoring
    /// instant: admission scoring and queue admission.
    fn rescore_store(&mut self, store: &mut WindowStore, now: VTime) {
        let (policy, mut ctx) = self.scoring(now, false);
        if policy.groupable_estimate() {
            // Walk residents grouped by distinct join key: one
            // estimation-kernel run per key, fanned out to every slot
            // holding that key through the cheap produced-count combiner
            // (DESIGN.md §16).
            store.rebuild_priorities_grouped(|tuple, produced, shared| {
                let estimate = shared.unwrap_or_else(|| policy.window_estimate(&mut ctx, tuple));
                let (score, state) =
                    policy.window_priority_from_estimate(&mut ctx, tuple, produced, estimate);
                (clamp_score(score), state, estimate)
            });
        } else {
            store.rebuild_priorities(|tuple, produced| {
                let (score, state) = policy.window_priority_with_state(&mut ctx, tuple, produced);
                (clamp_score(score), state)
            });
        }
    }

    /// Step 4 for one slot: the priority after its produced count grew to
    /// `produced`, from the state cached at its last full scoring (the
    /// paper's "productivity computed at most twice per lifetime").
    pub(crate) fn refreshed_priority(&self, state: f64, produced: u64) -> f64 {
        clamp_score(self.policy.refresh_priority(state, produced))
    }
}

/// A multi-way sliding-window join that sheds load by priority.
///
/// Per arriving tuple (Algorithm 1): update the current tumbling sketch,
/// expire stale tuples from every window, emit the join results the tuple
/// produces against all other windows, and store it — scored with the
/// active policy's priority measure only if its window may shed, evicting
/// the least-priority resident if the window (or the global pool) is full.
/// Tumbling-epoch rollovers rebuild all priorities ("reset all the priority
/// queues"), or owe the rebuild to the first arrival that needs a victim
/// when its result cannot depend on the delay ([`QueryCore::rollover_store`]).
pub struct ShedJoinEngine {
    core: QueryCore,
    memory: MemoryMode,
    stores: Vec<WindowStore>,
    next_seq: SeqNo,
    metrics: EngineMetrics,
    /// Picks the arrivals whose stages are timed.
    stage_clock: StageClock,
    /// Per-stream scratch reused across arrivals for per-slot produced
    /// counting (coalesced heap rescoring).
    produced_scratch: Vec<ProducedScratch>,
    /// Bounded-disorder reorder buffers; `None` runs the legacy
    /// arrival-time path untouched.
    front: Option<EventTimeFrontEnd>,
}

/// A sparse per-stream accumulator for produced-output deltas gathered
/// during one probe and applied as **one** coalesced heap update per
/// touched slot. `delta` is indexed by the dense arena slot index and is
/// all-zeros between flushes; `touched` records each credited slot in
/// first-match order. Replaces a `HashMap<(stream, Slot), u64>` scratch:
/// no SipHash in the match callback and no `drain().collect()` allocation
/// per arrival.
///
/// A flush follows every probe, before anything can free or reuse an
/// arena index, so an index maps to exactly one live slot while credits
/// are pending.
#[derive(Default)]
pub(crate) struct ProducedScratch {
    delta: Vec<u64>,
    touched: Vec<Slot>,
}

impl ProducedScratch {
    #[inline]
    fn add(&mut self, slot: Slot, n: u64) {
        let i = slot.index();
        if i >= self.delta.len() {
            self.delta.resize(i + 1, 0);
        }
        if self.delta[i] == 0 {
            self.touched.push(slot);
        }
        self.delta[i] += n;
    }

    /// Credits `stream`'s share of `run`, `self` being that stream's
    /// scratch: each slot of the run's inner list earns the outer count,
    /// once; each slot of its outer stretch the inner count; the one slot
    /// the run's prefix binds there the run's length; the origin stream
    /// nothing — the integers, and the first-credit order, of crediting
    /// every stream of every row (rows run outer-major, so the first outer
    /// candidate's rows touch the whole inner list, in order, before a
    /// later one could).
    #[inline]
    pub(crate) fn credit(&mut self, stream: StreamId, run: &Run<'_>) {
        if stream == run.stream() {
            let n = run.outer_len() as u64;
            run.slots().for_each(|slot| self.add(slot, n));
        } else if Some(stream) == run.outer_stream() {
            let n = run.inner_len() as u64;
            run.outer_slots().for_each(|slot| self.add(slot, n));
        } else if let Some(slot) = run.slot(stream) {
            self.add(slot, run.len() as u64);
        }
    }

    /// Lands the pending credits on `store` — one coalesced
    /// `add_produced` + priority refresh by `core`'s policy per credited
    /// slot, in first-credit order — and leaves the scratch all-zero. A
    /// store that owes its priorities takes the counts only: its rebuild
    /// reads them.
    pub(crate) fn apply_to(&mut self, store: &mut WindowStore, core: &QueryCore) {
        let owed = store.is_deferred();
        for slot in self.touched.drain(..) {
            let cnt = std::mem::take(&mut self.delta[slot.index()]);
            let Some(total) = store.add_produced(slot, cnt) else {
                continue;
            };
            if owed {
                continue;
            }
            let state = store.state(slot).expect("counted slot is live");
            store.update_priority(slot, core.refreshed_priority(state, total));
        }
    }
}

impl ShedJoinEngine {
    /// Builds an engine for `query` shedding with `policy`.
    pub fn new(
        query: JoinQuery,
        policy: Box<dyn ShedPolicy>,
        config: EngineConfig,
    ) -> Result<Self> {
        let n = query.n_streams();
        let capacities = resolve_capacities(&config.memory, n)?;
        let stores = (0..n)
            .map(|s| {
                let sid = StreamId(s);
                WindowStore::new(query.window(sid), query.join_attrs(sid), capacities[s])
            })
            .collect();
        Ok(ShedJoinEngine {
            core: QueryCore::new(query, policy, &config)?,
            memory: config.memory,
            stores,
            next_seq: SeqNo(0),
            metrics: EngineMetrics::default(),
            stage_clock: StageClock::default(),
            produced_scratch: (0..n).map(|_| ProducedScratch::default()).collect(),
            front: config.disorder.map(|k| EventTimeFrontEnd::new(k, n)),
        })
    }

    /// The query being executed.
    pub fn query(&self) -> &JoinQuery {
        &self.core.query
    }

    /// The active policy's display name.
    pub fn policy_name(&self) -> &'static str {
        self.core.policy.name()
    }

    /// Accumulated counters. Sketch-side cache statistics (packed-sign and
    /// productivity-score memos) are snapshotted here, at read time — not
    /// on every arrival, which put two counter copies on the per-ingest
    /// hot path for values nobody reads mid-run.
    pub fn metrics(&mut self) -> &EngineMetrics {
        if let Some(sketches) = self.core.sketches.as_ref() {
            let signs = sketches.sign_cache_stats();
            self.metrics.sign_cache_hits = signs.hits;
            self.metrics.sign_cache_misses = signs.misses;
            let scores = sketches.score_cache_stats();
            self.metrics.score_cache_hits = scores.hits;
            self.metrics.score_cache_misses = scores.misses;
        }
        &self.metrics
    }

    /// Resident tuples in `stream`'s window, or `None` if `stream` is not
    /// one of this query's streams.
    pub fn window_len(&self, stream: StreamId) -> Option<usize> {
        self.stores.get(stream.index()).map(WindowStore::len)
    }

    /// Total resident tuples across every window (per-shard occupancy in a
    /// sharded run).
    pub fn total_resident(&self) -> usize {
        self.stores.iter().map(WindowStore::len).sum()
    }

    /// Windows that currently owe their priorities: marked at a rollover
    /// and not yet short of room (DESIGN.md §16). Always 0 for an engine
    /// that scores eagerly.
    pub fn deferred_windows(&self) -> usize {
        self.stores.iter().filter(|s| s.is_deferred()).count()
    }

    /// Structural audit of the whole operator: every window store's
    /// arena/index/heap/expiry agreement, the tumbling sketches' epoch and
    /// frozen-cross-product coherence, and the mode-aware memory bound
    /// (per-window capacities, or the pooled total in
    /// [`MemoryMode::GlobalPool`], where individual stores are unbounded
    /// but the sum must respect the pool).
    ///
    /// O(resident tuples) and worse; compiled only under the `audit`
    /// feature, where the differential harness calls it after every
    /// arrival.
    ///
    /// # Panics
    /// Panics on any violated invariant.
    #[cfg(feature = "audit")]
    pub fn check_invariants(&self) {
        for store in &self.stores {
            store.check_invariants();
        }
        if let Some(sketches) = self.core.sketches.as_ref() {
            sketches.check_invariants();
        }
        match &self.memory {
            // Store-local capacity bounds are asserted inside
            // `WindowStore::check_invariants`; nothing extra to add.
            MemoryMode::PerWindow(_) | MemoryMode::PerWindowEach(_) => {}
            MemoryMode::GlobalPool(total) => {
                let resident: usize = self.stores.iter().map(|s| s.len()).sum();
                assert!(
                    resident <= *total,
                    "pool overrun: {resident} resident > {total} budget"
                );
            }
        }
        if let Some(front) = self.front.as_ref() {
            // Everything still buffered must be at or ahead of the
            // watermark: earlier entries were either released or late-dropped.
            let wm = front.watermark();
            for (k, buf) in front.buffers.iter().enumerate() {
                if let Some((ts, _)) = buf.peek_key() {
                    assert!(
                        ts >= wm,
                        "stream {k} holds a releasable arrival: {ts:?} < watermark {wm:?}"
                    );
                }
            }
        }
    }

    /// Mints an [`Arrival`] into a sequence-numbered tuple without
    /// processing it.
    ///
    /// Use this when the tuple will be processed *later* (queued input,
    /// sharded dispatch): sequence numbers are assigned in arrival order,
    /// independent of service order.
    pub fn mint(&mut self, arrival: Arrival) -> Tuple {
        let seq = self.next_seq;
        self.next_seq = seq.next();
        Tuple::new(arrival.stream, arrival.ts, seq, arrival.values)
    }

    /// The single entry point for feeding the engine: mints `arrival` and
    /// runs it through the operator at its arrival timestamp, passing every
    /// join result it completes to `sink`.
    ///
    /// # Timestamp contract
    /// Without a disorder bound ([`EngineConfig::disorder`] = `None`),
    /// timestamps are trusted as given — monotone or not — and the arrival
    /// is processed immediately at its own timestamp. With a bound `K`, the
    /// event-time front end takes over: the arrival is buffered and later
    /// replayed in timestamp order, unless its timestamp has already fallen
    /// behind the watermark (`min` cross-stream high-water mark minus `K`),
    /// in which case it is dropped — counted in
    /// [`EngineMetrics::late_dropped`], never joined, and **never a
    /// panic**. Regressions within the bound are therefore absorbed;
    /// regressions beyond it are accounted, not amplified.
    pub fn ingest(&mut self, arrival: Arrival, sink: &mut impl EmitSink) -> IngestOutcome {
        if self.front.is_some() {
            return self.ingest_event_time(arrival, sink);
        }
        let now = arrival.ts;
        let tuple = self.mint(arrival);
        self.ingest_tuple(tuple, now, sink)
    }

    /// Event-time ingest: advance this stream's high-water mark, admit or
    /// late-drop the arrival against the watermark, then release every
    /// buffered arrival the new watermark proves safe.
    fn ingest_event_time(&mut self, arrival: Arrival, sink: &mut impl EmitSink) -> IngestOutcome {
        let front = self.front.as_mut().expect("caller checked");
        let k = arrival.stream.index();
        if arrival.ts > front.hwm[k] {
            front.hwm[k] = arrival.ts;
        }
        let wm = front.watermark();
        if arrival.ts < wm {
            // Later than the disorder bound: the reorder guarantee no
            // longer covers it (its window contemporaries may already have
            // been released and expired), so joining it would produce
            // results an in-order run never would. Count and drop.
            self.metrics.late_dropped += 1;
            return IngestOutcome {
                produced: 0,
                stored: false,
                shed: 0,
            };
        }
        let entry = front.admitted;
        front.admitted += 1;
        front.buffers[k].push(arrival.ts, entry, arrival);
        self.release_below(Some(wm), sink)
    }

    /// Releases buffered arrivals in merged `(ts, admission)` order while
    /// the head's timestamp is strictly below `wm` (`None` releases
    /// everything — end-of-trace flush). Strictness matters: a future
    /// accepted arrival carries `ts >= wm`, so nothing released here can
    /// ever be preceded by one still to come. Each release is processed at
    /// its **own** timestamp through the unchanged pipeline — a covered
    /// disorder run is literally a replay of the in-order run.
    fn release_below(&mut self, wm: Option<VTime>, sink: &mut impl EmitSink) -> IngestOutcome {
        let mut total = IngestOutcome {
            produced: 0,
            stored: true,
            shed: 0,
        };
        loop {
            let front = self.front.as_mut().expect("event-time engines only");
            let mut head: Option<(VTime, u64, usize)> = None;
            for (k, buf) in front.buffers.iter().enumerate() {
                if let Some((ts, entry)) = buf.peek_key() {
                    if head.map_or(true, |(ht, he, _)| (ts, entry) < (ht, he)) {
                        head = Some((ts, entry, k));
                    }
                }
            }
            let Some((ts, _, k)) = head else { break };
            if let Some(wm) = wm {
                if ts >= wm {
                    break;
                }
            }
            let (_, _, arrival) = front.buffers[k].pop().expect("peeked entry exists");
            let now = arrival.ts;
            let tuple = self.mint(arrival);
            let out = self.ingest_tuple(tuple, now, sink);
            total.produced += out.produced;
            total.shed += out.shed;
        }
        total
    }

    /// Drains the event-time reorder buffers at end of trace, releasing
    /// every still-buffered arrival in `(ts, admission)` order regardless
    /// of the watermark. No-op (and all-zero outcome) without a disorder
    /// bound.
    pub fn flush(&mut self, sink: &mut impl EmitSink) -> IngestOutcome {
        if self.front.is_none() {
            return IngestOutcome {
                produced: 0,
                stored: true,
                shed: 0,
            };
        }
        self.release_below(None, sink)
    }

    /// The current event-time watermark (`None` without a disorder bound).
    pub fn watermark(&self) -> Option<VTime> {
        self.front.as_ref().map(EventTimeFrontEnd::watermark)
    }

    /// The configured disorder bound (`None` = legacy arrival-time path).
    pub fn disorder_bound(&self) -> Option<VDur> {
        self.front.as_ref().map(|f| f.bound)
    }

    /// Arrivals currently held in the reorder buffers (0 without a bound).
    pub fn buffered(&self) -> usize {
        self.front
            .as_ref()
            .map_or(0, |f| f.buffers.iter().map(ReorderBuffer::len).sum())
    }

    /// Runs one already-minted tuple through the join operator at time
    /// `now` (its arrival timestamp may be earlier if it waited in an input
    /// queue or a shard channel), passing every result combination to
    /// `sink`.
    pub fn ingest_tuple(
        &mut self,
        tuple: Tuple,
        now: VTime,
        sink: &mut impl EmitSink,
    ) -> IngestOutcome {
        self.ingest_tuple_as(tuple, now, sink, IngestRole::FULL)
    }

    /// Role-parameterized form of [`ShedJoinEngine::ingest_tuple`], the
    /// primitive behind replicated delivery in the sharded engine.
    ///
    /// Every role observes sketches, expires windows, scores and stores the
    /// tuple — so replicated copies keep estimation state and tuple-window
    /// expiry counters advancing identically on every shard. The role only
    /// gates the *probe* (whether this delivery emits join results) and the
    /// *accounting* (whether it counts as the arrival's one `processed`
    /// delivery or as a `replicated` copy). `IngestRole::FULL` is exactly
    /// the classic path: `ingest_tuple` delegates here unconditionally, so
    /// an unsharded engine and an S=1 sharded engine execute the same code.
    pub fn ingest_tuple_as(
        &mut self,
        tuple: Tuple,
        now: VTime,
        sink: &mut impl EmitSink,
        role: IngestRole,
    ) -> IngestOutcome {
        let stream = tuple.stream;
        // 1. Fold into the current tumbling estimation state (AGMS sketches
        //    and/or exact arrival-frequency tables); on epoch rollover,
        //    rebuild every window's priorities against the fresh snapshot,
        //    or owe the rebuild to the window's next shed.
        let sample = self.stage_clock.next_arrival();
        let core = &mut self.core;
        if core.observe(stream, &tuple.values, now, sample, &mut self.metrics) {
            self.metrics.epoch_rollovers += 1;
            if core.reqs.recompute_on_epoch {
                for store in &mut self.stores {
                    core.rollover_store(store, now, &mut self.metrics);
                }
            }
        }
        // 2. Delete expired tuples from every window.
        self.expire_all(now, sample);
        // 3. Emit the join results produced by this tuple, a run of the
        //    probe's two innermost levels at a time: what a run costs beyond
        //    finding it is the sink's to decide (`EmitSink::emit_run` — a
        //    row reader pays per row, a counter per run), and with
        //    produced counters a run is credited as a unit. Store-only
        //    replicas skip the probe entirely: their arrival's results are
        //    emitted by the one shard that received the FULL delivery.
        //    Whether runs are credited is decided here, once per arrival:
        //    a policy without produced counters runs kernels instantiated
        //    over a closure that carries no crediting code at all.
        let track = self.core.reqs.produced_counters;
        let plan = &self.core.plans[stream.index()];
        let stores = &self.stores.as_slice();
        let scratch = &mut self.produced_scratch;
        let produced = sample.time(&mut self.metrics.probe_ns, || {
            if !role.probe {
                0
            } else if track {
                probe_runs_in(plan, &tuple, stores, |run| {
                    for (k, s) in scratch.iter_mut().enumerate() {
                        s.credit(StreamId(k), run);
                    }
                    sink.emit_run(QueryId::SOLO, run);
                })
            } else {
                probe_runs_in(plan, &tuple, stores, |run| {
                    sink.emit_run(QueryId::SOLO, run)
                })
            }
        });
        self.metrics.total_output += produced;
        if role.count_processed {
            self.metrics.processed += 1;
        } else {
            self.metrics.replicated += 1;
        }
        // 4. Credit output to the participating window tuples and refresh
        //    their priorities (the RS measure depends on produced counts):
        //    one coalesced heap update per touched slot, landed before the
        //    insert below can read a priority to pick a victim.
        if track && produced > 0 {
            self.flush_produced();
        }
        // 5. Store the arriving tuple — scored only if its window may
        //    shed — shedding if full.
        let (stored, shed) = self.insert_with_shedding(tuple, now, sample);
        IngestOutcome {
            produced,
            stored,
            shed,
        }
    }

    /// [`ShedJoinEngine::ingest`] over a run of arrivals, in order. The
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

    /// Applies the produced-output credits of the probe just run, in
    /// first-credit order.
    fn flush_produced(&mut self) {
        for (store, scratch) in self.stores.iter_mut().zip(&mut self.produced_scratch) {
            scratch.apply_to(store, &self.core);
        }
    }

    /// Notes an arrival on `stream` that is being processed *elsewhere*
    /// (another shard of a partitioned execution), so tuple-based window
    /// expiration here still counts every operator-reaching arrival of the
    /// stream, not just the ones routed to this engine.
    pub fn note_foreign_arrival(&mut self, stream: StreamId) {
        self.stores[stream.index()].note_arrival();
    }

    /// Bulk form of [`ShedJoinEngine::note_foreign_arrival`]: notes `n`
    /// foreign arrivals on `stream` in one call (a coalesced tick summary
    /// from the shard coordinator).
    pub fn note_foreign_arrivals(&mut self, stream: StreamId, n: u64) {
        self.stores[stream.index()].note_arrivals(n);
    }

    /// Priority a policy assigns `tuple` if it were queued right now.
    pub fn queue_score(&mut self, tuple: &Tuple, now: VTime) -> f64 {
        self.core.queue_score(tuple, now, self.front.is_some())
    }

    /// The queue-victim mode of the active policy.
    pub fn queue_victim(&self) -> QueueVictim {
        self.core.policy.queue_victim()
    }

    /// The engine's seeded rng (shared with the queue for victim draws so a
    /// whole run remains a single deterministic random sequence).
    pub fn rng_mut(&mut self) -> &mut StdRng {
        &mut self.core.rng
    }

    /// Records that the input queue shed a tuple before it reached the
    /// operator.
    pub fn note_queue_shed(&mut self) {
        self.metrics.shed_queue += 1;
    }

    /// Estimated size of the full multi-way join over the current epoch
    /// (diagnostics; `None` when the policy runs sketch-free).
    pub fn estimate_join_count(&mut self) -> Option<f64> {
        self.core.sketches.as_mut().map(|s| s.estimate_join_count())
    }

    fn expire_all(&mut self, now: VTime, sample: Sample) {
        let stores = &mut self.stores;
        self.metrics.expired += sample.time(&mut self.metrics.expire_ns, || {
            stores.iter_mut().map(|store| store.expire_each(now, drop)).sum::<u64>()
        });
    }

    /// Returns `(stored, shed)`: whether the arriving tuple remained
    /// resident, and how many tuples (possibly itself) were evicted.
    fn insert_with_shedding(&mut self, tuple: Tuple, now: VTime, sample: Sample) -> (bool, u64) {
        let seq = tuple.seq;
        let store = &mut self.stores[tuple.stream.index()];
        let event_time = self.front.is_some();
        let outcome = self
            .core
            .admit(store, tuple, now, event_time, sample, &mut self.metrics);
        match self.memory {
            MemoryMode::PerWindow(_) | MemoryMode::PerWindowEach(_) => {
                let stored = outcome.slot.is_some();
                if let Eviction::Evicted(_) = outcome.eviction {
                    self.metrics.shed_window += 1;
                    (stored, 1)
                } else {
                    (stored, 0)
                }
            }
            MemoryMode::GlobalPool(total) => {
                debug_assert_eq!(
                    outcome.eviction,
                    Eviction::None,
                    "pool-mode stores are unbounded; only the engine evicts"
                );
                let mut stored = true;
                let mut shed = 0u64;
                while self.stores.iter().map(WindowStore::len).sum::<usize>() > total {
                    // Global minimum under the same (score, seq) order the
                    // per-store heaps use, so cross-window ties still evict
                    // the oldest tuple first — never the just-inserted one
                    // ahead of an equally-scored elder.
                    let victim_store = self
                        .stores
                        .iter()
                        .enumerate()
                        .filter_map(|(i, st)| {
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
                    let (victim, _) = self.stores[victim_store]
                        .evict_min()
                        .expect("store has a minimum");
                    if victim.seq == seq {
                        stored = false;
                    }
                    self.metrics.shed_window += 1;
                    shed += 1;
                }
                (stored, shed)
            }
        }
    }
}

/// Resolves a [`MemoryMode`] into per-store capacities for an `n`-stream
/// query, validating it in the process (shared by the engine, the builder
/// and the sharded coordinator).
///
/// Pool mode yields effectively-unbounded stores: ALL enforcement happens
/// in the engine's post-insert loop, which evicts the global (cross-window)
/// minimum. Giving a store a finite capacity would let it self-evict its
/// *local* minimum when it alone exceeds the pool — the wrong victim
/// (possibly the just-inserted tuple out of tie order), and one the
/// metrics would never see.
pub(crate) fn resolve_capacities(
    memory: &MemoryMode,
    n: usize,
) -> core::result::Result<Vec<usize>, BuildError> {
    let capacities: Vec<usize> = match memory {
        MemoryMode::PerWindow(c) => vec![*c; n],
        MemoryMode::PerWindowEach(cs) => {
            if cs.len() != n {
                return Err(BuildError::CapacityCountMismatch {
                    got: cs.len(),
                    expected: n,
                });
            }
            cs.clone()
        }
        MemoryMode::GlobalPool(total) => {
            if *total == 0 {
                return Err(BuildError::ZeroWindowCapacity);
            }
            vec![usize::MAX / 2; n]
        }
    };
    if capacities.contains(&0) {
        return Err(BuildError::ZeroWindowCapacity);
    }
    Ok(capacities)
}

/// The paper's default epoch: `n = p` for time windows; per-stream tuple
/// counts for tuple-based windows (§4.1). Mixed window kinds require an
/// explicit epoch choice.
pub(crate) fn default_epoch(
    query: &JoinQuery,
) -> core::result::Result<EpochSpec, BuildError> {
    if query.all_tuple_based() {
        let count = query
            .windows()
            .iter()
            .map(|w| match w {
                WindowSpec::Tuples(c) => *c,
                WindowSpec::Time(_) => unreachable!("all_tuple_based checked"),
            })
            .max()
            .expect("queries have >= 2 streams");
        return Ok(EpochSpec::PerStreamTuples(count));
    }
    match query.max_time_window() {
        Some(p) if query.windows().iter().all(|w| matches!(w, WindowSpec::Time(_))) => {
            Ok(EpochSpec::Time(p))
        }
        _ => Err(BuildError::EpochUnderivable),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::CountSink;
    use mstream_shed_policies::{Bjoin, Fifo, MSketch, MSketchRs, RandomLoad};
    use mstream_types::{Catalog, Error, StreamSchema, VDur, Value};

    fn chain3(window_secs: u64) -> JoinQuery {
        let mut c = Catalog::new();
        c.add_stream(StreamSchema::new("R1", &["A1", "A2"]));
        c.add_stream(StreamSchema::new("R2", &["A1", "A2"]));
        c.add_stream(StreamSchema::new("R3", &["A1", "A2"]));
        JoinQuery::from_names(
            c,
            &[("R1.A1", "R2.A1"), ("R2.A2", "R3.A1")],
            WindowSpec::secs(window_secs),
        )
        .unwrap()
    }

    fn cfg(capacity: usize) -> EngineConfig {
        EngineConfig {
            memory: MemoryMode::PerWindow(capacity),
            bank: BankConfig {
                s1: 50,
                s2: 1,
                seed: 7,
            },
            epoch: None,
            seed: 3,
            disorder: None,
            score_cache: true,
        }
    }

    fn v(a: u64, b: u64) -> Vec<Value> {
        vec![Value(a), Value(b)]
    }

    /// Test shorthand for the ingest path; returns the produced count.
    fn arrive(engine: &mut ShedJoinEngine, s: StreamId, vals: Vec<Value>, now: VTime) -> u64 {
        engine
            .ingest(Arrival::new(s, vals, now), &mut CountSink::default())
            .produced
    }

    #[test]
    fn unshedded_engine_matches_exact_join() {
        // With capacity >= arrivals the engine must be exact regardless of
        // policy.
        use mstream_join::ExactJoin;
        use rand::Rng;
        let mut engine =
            ShedJoinEngine::new(chain3(50), Box::new(MSketch), cfg(10_000)).unwrap();
        let mut exact = ExactJoin::new(chain3(50));
        let mut rng = StdRng::seed_from_u64(1);
        for i in 0..500u64 {
            let now = VTime::from_secs(i / 5);
            let s = StreamId(rng.gen_range(0..3));
            let vals = v(rng.gen_range(0..6), rng.gen_range(0..6));
            let a = arrive(&mut engine, s, vals.clone(), now);
            let b = exact.process(s, vals, now);
            assert_eq!(a, b, "arrival {i}");
        }
        assert_eq!(engine.metrics().total_output, exact.total_output());
        assert!(engine.metrics().total_output > 0);
        assert_eq!(engine.metrics().shed_window, 0);
    }

    #[test]
    fn all_policies_run_and_respect_capacity() {
        use rand::Rng;
        let policies: Vec<Box<dyn ShedPolicy>> = vec![
            Box::new(MSketch),
            Box::new(MSketchRs),
            Box::new(mstream_shed_policies::Age),
            Box::new(mstream_shed_policies::Life),
            Box::new(Bjoin),
            Box::new(RandomLoad),
            Box::new(Fifo),
        ];
        for policy in policies {
            let name = policy.name();
            let mut engine = ShedJoinEngine::new(chain3(100), policy, cfg(16)).unwrap();
            let mut rng = StdRng::seed_from_u64(2);
            for i in 0..600u64 {
                let now = VTime::from_secs(i / 3);
                let s = StreamId(rng.gen_range(0..3));
                arrive(&mut engine, s, v(rng.gen_range(0..5), rng.gen_range(0..5)), now);
                for k in 0..3 {
                    assert!(
                        engine.window_len(StreamId(k)).unwrap() <= 16,
                        "{name}: window over capacity"
                    );
                }
            }
            assert!(
                engine.metrics().shed_window > 0,
                "{name}: tight memory must shed"
            );
        }
    }

    #[test]
    fn score_cache_on_and_off_runs_are_bit_identical() {
        // The epoch memo stores the exact f64 under an exact key, so a
        // cached run must replay the uncached run bit for bit: same
        // emissions in the same order, same shed decisions, same counters
        // — up to the cache statistics themselves (a score-cache hit skips
        // the packed-sign path, so sign-cache traffic legitimately
        // differs) and wall-clock ns.
        use crate::ingest::VecSink;
        use rand::Rng;
        let policies: &[fn() -> Box<dyn ShedPolicy>] = &[
            || Box::new(MSketch),
            || Box::new(MSketchRs),
            || Box::new(mstream_shed_policies::Age),
        ];
        for mk in policies {
            let run = |cached: bool| {
                let config = EngineConfig {
                    score_cache: cached,
                    ..cfg(16)
                };
                let mut engine = ShedJoinEngine::new(chain3(40), mk(), config).unwrap();
                let mut sink = VecSink::default();
                let mut rng = StdRng::seed_from_u64(9);
                for i in 0..600u64 {
                    let now = VTime::from_secs(i / 3);
                    let s = StreamId(rng.gen_range(0..3));
                    let vals = v(rng.gen_range(0..4), rng.gen_range(0..4));
                    engine.ingest(Arrival::new(s, vals, now), &mut sink);
                }
                let mut metrics = engine.metrics().clone();
                let cache = (metrics.score_cache_hits, metrics.score_cache_misses);
                metrics.sketch_observe_ns = 0;
                metrics.priority_rebuild_ns = 0;
                metrics.score_ns = 0;
                metrics.expire_ns = 0;
                metrics.probe_ns = 0;
                metrics.insert_ns = 0;
                metrics.sign_cache_hits = 0;
                metrics.sign_cache_misses = 0;
                metrics.score_cache_hits = 0;
                metrics.score_cache_misses = 0;
                (sink.rows, metrics, cache)
            };
            let name = mk().name();
            let (rows_on, metrics_on, cache_on) = run(true);
            let (rows_off, metrics_off, cache_off) = run(false);
            assert_eq!(rows_on, rows_off, "{name}: emissions diverged");
            assert_eq!(metrics_on, metrics_off, "{name}: metrics diverged");
            assert_eq!(cache_off, (0, 0), "{name}: disabled cache counts nothing");
            assert!(
                cache_on.0 + cache_on.1 > 0,
                "{name}: a groupable sketch policy must exercise the cache"
            );
        }
    }

    #[test]
    fn msketch_keeps_productive_tuples_under_pressure() {
        // Stream R1 sees two kinds of tuples: A1=1 (productive: R2/R3 are
        // full of partners) and A1=0 (dead weight). With a tiny window,
        // MSketch should retain the productive kind and out-produce FIFO.
        let run = |policy: Box<dyn ShedPolicy>| {
            let mut engine = ShedJoinEngine::new(chain3(1000), policy, cfg(8)).unwrap();
            for i in 0..200u64 {
                let now = VTime::from_secs(i);
                arrive(&mut engine, StreamId(1), v(1, 2), now);
                arrive(&mut engine, StreamId(2), v(2, 0), now);
                // Alternate productive / dead R1 tuples: FIFO retains the
                // last 8 (half dead), MSketch retains 8 productive ones, so
                // the R2/R3 arrivals that probe W1 find twice the partners.
                let a = if i % 2 == 0 { 1 } else { 0 };
                arrive(&mut engine, StreamId(0), v(a, 0), now);
            }
            engine.metrics().total_output
        };
        let msketch = run(Box::new(MSketch));
        let fifo = run(Box::new(Fifo));
        assert!(
            msketch > fifo,
            "MSketch ({msketch}) should beat FIFO ({fifo}) on skewed data"
        );
    }

    #[test]
    fn global_pool_respects_total_budget() {
        use rand::Rng;
        let mut config = cfg(0);
        config.memory = MemoryMode::GlobalPool(30);
        let mut engine = ShedJoinEngine::new(chain3(1000), Box::new(MSketch), config).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for i in 0..300u64 {
            let s = StreamId(rng.gen_range(0..3));
            arrive(&mut engine, s, v(rng.gen_range(0..4), 0), VTime::from_secs(i));
            let total: usize = (0..3).map(|k| engine.window_len(StreamId(k)).unwrap()).sum();
            assert!(total <= 30, "pool bound violated: {total}");
        }
        assert!(engine.metrics().shed_window > 0);
    }

    #[test]
    fn global_pool_ties_evict_oldest_across_windows() {
        // Empty sketches give every MSketch arrival score 0, so pool
        // eviction order is decided purely by the (score, seq) tie-break:
        // the globally oldest tuple goes first, never the one that was just
        // inserted. Values are chosen to never join (no produced updates).
        // Arrive in DESCENDING stream order so the oldest tied tuple lives
        // in the highest-indexed store: a score-only comparison that
        // resolves ties by store order would evict the fresh tuple instead.
        let mut config = cfg(0);
        config.memory = MemoryMode::GlobalPool(2);
        let mut engine = ShedJoinEngine::new(chain3(1000), Box::new(MSketch), config).unwrap();
        arrive(&mut engine, StreamId(2), v(1, 1), VTime::ZERO);
        arrive(&mut engine, StreamId(1), v(2, 2), VTime::ZERO);
        // Third arrival overflows the pool; seq 0 (window 2) must go, even
        // though the arrival landed in window 0.
        arrive(&mut engine, StreamId(0), v(3, 3), VTime::ZERO);
        assert_eq!(engine.window_len(StreamId(2)).unwrap(), 0, "oldest evicted");
        assert_eq!(engine.window_len(StreamId(1)).unwrap(), 1);
        assert_eq!(engine.window_len(StreamId(0)).unwrap(), 1, "fresh tuple survives the tie");
        assert_eq!(engine.metrics().shed_window, 1);
    }

    #[test]
    fn global_pool_counts_single_window_overflow() {
        // All arrivals land in ONE window. Before pool enforcement moved
        // entirely into the engine, the store (sized to the whole pool)
        // would silently self-evict its local minimum here: the pool stayed
        // within budget but `shed_window` never saw those evictions.
        let mut config = cfg(0);
        config.memory = MemoryMode::GlobalPool(2);
        let mut engine = ShedJoinEngine::new(chain3(1000), Box::new(Fifo), config).unwrap();
        for i in 0..5u64 {
            arrive(&mut engine, StreamId(0), v(i, i), VTime::ZERO);
        }
        assert_eq!(engine.window_len(StreamId(0)).unwrap(), 2, "pool bound enforced");
        assert_eq!(
            engine.metrics().shed_window,
            3,
            "every pool eviction is counted exactly once"
        );
    }

    #[test]
    fn global_pool_zero_budget_rejected() {
        let mut config = cfg(1);
        config.memory = MemoryMode::GlobalPool(0);
        let err = ShedJoinEngine::new(chain3(10), Box::new(Fifo), config)
            .err()
            .expect("zero pool must be rejected");
        assert!(matches!(err, Error::InvalidConfig(_)));
    }

    #[test]
    fn bjoin_runs_through_shedding_and_epoch_rollovers() {
        use rand::Rng;
        // Exercise the tumbling frequency tables across inserts, evictions,
        // expirations and epoch rollovers.
        let mut engine = ShedJoinEngine::new(chain3(20), Box::new(Bjoin), cfg(8)).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        for i in 0..1500u64 {
            let s = StreamId(rng.gen_range(0..3));
            arrive(&mut engine, 
                s,
                v(rng.gen_range(0..4), rng.gen_range(0..4)),
                // ~0.7 arrivals/s/stream against 20s windows of 8 slots:
                // slow enough that hot tuples can outlive the window
                // (expirations), fast enough to overflow it (evictions).
                VTime::from_secs(i / 2),
            );
        }
        assert!(engine.metrics().expired > 0, "expirations exercised");
        assert!(engine.metrics().shed_window > 0, "evictions exercised");
    }

    #[test]
    fn produced_counters_feed_rs_priorities() {
        let mut engine = ShedJoinEngine::new(chain3(1000), Box::new(MSketchRs), cfg(64)).unwrap();
        // A hot R2 tuple that produces on every R1/R3 arrival.
        arrive(&mut engine, StreamId(1), v(1, 1), VTime::ZERO);
        arrive(&mut engine, StreamId(2), v(1, 0), VTime::ZERO);
        let mut produced = 0;
        for i in 0..10u64 {
            produced += arrive(&mut engine, StreamId(0), v(1, 0), VTime::from_secs(i));
        }
        assert_eq!(produced, 10);
        assert_eq!(engine.metrics().total_output, 10);
    }

    #[test]
    fn crediting_by_run_equals_crediting_by_row() {
        // Chain from the ends, star from the middle, over windows where
        // few values repeat often — neighbouring candidates drive the same
        // inner list, so runs carry outer stretches: per stream, the
        // run-wise credits are the row-wise integers in the same
        // first-credit order.
        let mut engine = ShedJoinEngine::new(chain3(1000), Box::new(Fifo), cfg(1000)).unwrap();
        for i in 0..90u64 {
            let j = i / 3;
            arrive(&mut engine, StreamId(i as usize % 3), v(j / 2 % 3, j / 6 % 2), VTime::ZERO);
        }
        for (origin, plan) in engine.core.plans.iter().enumerate() {
            let t = Tuple::new(StreamId(origin), VTime::ZERO, SeqNo(999), v(1, 1));
            let scratches = || -> Vec<ProducedScratch> { (0..3).map(|_| Default::default()).collect() };
            let (mut by_run, mut by_row) = (scratches(), scratches());
            let mut blocks = 0;
            probe_runs_in(plan, &t, &engine.stores.as_slice(), |run| {
                blocks += usize::from(run.outer_len() > 1 && run.inner_len() > 1);
                for (k, s) in by_run.iter_mut().enumerate() {
                    s.credit(StreamId(k), run);
                }
            });
            assert!(blocks > 0, "origin {origin}: no run spans several outer candidates");
            let rows = mstream_join::probe_each(plan, &t, &engine.stores, |b| {
                for (k, s) in by_row.iter_mut().enumerate() {
                    if let Some(slot) = b.slot(StreamId(k)) {
                        s.add(slot, 1);
                    }
                }
            });
            assert!(rows >= 100, "origin {origin} fans out");
            for (run, row) in by_run.iter().zip(&by_row) {
                assert_eq!(run.touched, row.touched, "origin {origin}");
                assert_eq!(run.delta, row.delta, "origin {origin}");
            }
        }
    }

    #[test]
    fn epoch_rollover_rebuilds_priorities() {
        let mut config = cfg(32);
        config.epoch = Some(EpochSpec::Time(VDur::from_secs(10)));
        let mut engine = ShedJoinEngine::new(chain3(100), Box::new(MSketch), config).unwrap();
        for i in 0..50u64 {
            arrive(&mut engine, StreamId(i as usize % 3), v(1, 1), VTime::from_secs(i));
        }
        assert!(engine.metrics().epoch_rollovers >= 4);
    }

    #[test]
    fn stage_timings_and_cache_stats_accumulate() {
        // Windows of 8 fill, so the passes the rollovers owe run on demand.
        let mut config = cfg(8);
        config.epoch = Some(EpochSpec::Time(VDur::from_secs(10)));
        let mut engine = ShedJoinEngine::new(chain3(100), Box::new(MSketch), config).unwrap();
        // Long enough for a few timed arrivals (one in `clock::STRIDE`).
        for i in 0..240u64 {
            // Heavy value repetition: the packed-sign cache must hit.
            arrive(&mut engine, StreamId(i as usize % 3), v(i % 4, i % 3), VTime::from_secs(i));
        }
        let m = engine.metrics();
        assert!(m.sketch_observe_ns > 0, "observe stage timed");
        assert!(m.score_ns > 0, "scoring stage timed");
        assert!(m.expire_ns > 0 && m.probe_ns > 0 && m.insert_ns > 0, "window stages timed: {m:?}");
        for ns in [m.sketch_observe_ns, m.score_ns, m.expire_ns, m.probe_ns, m.insert_ns] {
            assert_eq!(ns % crate::clock::STRIDE, 0, "sampled stages are charged by the stride");
        }
        assert!(m.priority_rebuild_ns > 0, "on-demand rebuilds timed");
        assert!(m.priority_rebuilds > 0);
        assert!(m.sign_cache_misses > 0);
        assert!(
            m.sign_cache_hits > m.sign_cache_misses,
            "repeated values must be served from the sign cache \
             (hits={}, misses={})",
            m.sign_cache_hits,
            m.sign_cache_misses
        );
        // Sketch-free policies leave the sketch counters untouched.
        let mut plain = ShedJoinEngine::new(chain3(100), Box::new(Fifo), cfg(32)).unwrap();
        arrive(&mut plain, StreamId(0), v(1, 1), VTime::ZERO);
        assert_eq!(plain.metrics().sign_cache_hits, 0);
        assert_eq!(plain.metrics().sketch_observe_ns, 0);
    }

    #[test]
    fn priority_rebuilds_counts_the_passes_actually_run() {
        use crate::eager::Eager;
        let run = |policy: Box<dyn ShedPolicy>, capacity: usize| {
            let mut config = cfg(capacity);
            config.epoch = Some(EpochSpec::Time(VDur::from_secs(10)));
            let mut engine = ShedJoinEngine::new(chain3(40), policy, config).unwrap();
            for i in 0..600u64 {
                arrive(&mut engine, StreamId(i as usize % 3), v(i % 4, i % 3), VTime::from_secs(i / 3));
            }
            engine.metrics().clone()
        };
        // The reference rebuilds every window at every rollover.
        let eager = run(Box::new(Eager(Box::new(MSketch))), 10_000);
        assert!(eager.epoch_rollovers >= 10);
        assert_eq!(eager.priority_rebuilds, eager.epoch_rollovers * 3);
        // Time epochs roll every stream at once, so from the first rollover
        // on a window that never fills owes its pass for good.
        let roomy = run(Box::new(MSketch), 10_000);
        assert_eq!(roomy.epoch_rollovers, eager.epoch_rollovers);
        assert_eq!((roomy.priority_rebuilds, roomy.priority_rebuild_ns), (0, 0));
        assert_eq!(roomy.total_output, eager.total_output);
        // A window that is short of room runs the pass when it first needs
        // a victim, and the time lands where rollover passes put it.
        let tight = run(Box::new(MSketch), 8);
        assert!(tight.shed_window > 0);
        assert!(tight.priority_rebuilds > 0 && tight.priority_rebuilds <= eager.priority_rebuilds);
        assert!(tight.priority_rebuild_ns > 0);
    }

    #[test]
    fn invalid_capacity_rejected() {
        let err = ShedJoinEngine::new(chain3(10), Box::new(Fifo), {
            let mut c = cfg(0);
            c.memory = MemoryMode::PerWindow(0);
            c
        })
        .err()
        .expect("zero capacity must be rejected");
        assert!(matches!(err, Error::InvalidConfig(_)));
        let err = ShedJoinEngine::new(chain3(10), Box::new(Fifo), {
            let mut c = cfg(1);
            c.memory = MemoryMode::PerWindowEach(vec![1, 2]);
            c
        })
        .err()
        .expect("capacity count mismatch must be rejected");
        assert!(matches!(err, Error::InvalidConfig(_)));
    }

    #[test]
    fn tuple_based_windows_get_tuple_epochs() {
        let mut c = Catalog::new();
        c.add_stream(StreamSchema::new("R1", &["A1"]));
        c.add_stream(StreamSchema::new("R2", &["A1"]));
        let q = JoinQuery::from_names(c, &[("R1.A1", "R2.A1")], WindowSpec::Tuples(20)).unwrap();
        let engine = ShedJoinEngine::new(q, Box::new(MSketch), cfg(8)).unwrap();
        // Constructed without error: the default epoch resolved to
        // PerStreamTuples(20).
        assert_eq!(engine.policy_name(), "MSketch");
    }

    #[test]
    fn deterministic_runs_per_seed() {
        use rand::Rng;
        let run = |seed: u64| {
            let mut config = cfg(16);
            config.seed = seed;
            let mut engine =
                ShedJoinEngine::new(chain3(100), Box::new(RandomLoad), config).unwrap();
            let mut rng = StdRng::seed_from_u64(9);
            for i in 0..400u64 {
                let s = StreamId(rng.gen_range(0..3));
                arrive(&mut engine, 
                    s,
                    v(rng.gen_range(0..5), rng.gen_range(0..5)),
                    VTime::from_secs(i / 4),
                );
            }
            engine.metrics().total_output
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2), "different seeds shed differently");
    }

    #[test]
    fn random_policy_victims_are_pinned() {
        // Which arrivals are timed is a function of the arrival count: a
        // stage clock that drew from the engine's rng instead would move
        // every uniform victim after the first timed arrival. The sequence
        // is the one the engine shed before it had a stage clock.
        const PINNED_VICTIMS: [u64; 76] = [
            15, 16, 23, 9, 28, 17, 30, 4, 2, 6, 22, 5, 33, 37, 38, 39,
            40, 29, 42, 43, 41, 45, 46, 47, 48, 1, 50, 36, 52, 53, 21, 55,
            56, 3, 58, 26, 60, 19, 20, 63, 64, 65, 66, 7, 44, 69, 70, 59,
            72, 61, 11, 75, 76, 77, 51, 79, 80, 81, 82, 83, 84, 85, 86, 12,
            88, 14, 90, 91, 92, 93, 13, 89, 96, 97, 98, 99,
        ];
        let mut engine =
            ShedJoinEngine::new(chain3(100), Box::new(RandomLoad), cfg(8)).unwrap();
        let mut victims = Vec::new();
        for i in 0..100u64 {
            let k = i as usize % 3;
            let resident = |e: &ShedJoinEngine| -> Vec<u64> {
                e.stores[k].iter().map(|(_, t)| t.seq.0).collect()
            };
            let before = resident(&engine);
            let arrival = Arrival::new(StreamId(k), v(i % 5, i % 7), VTime::from_secs(i / 4));
            let out = engine.ingest(arrival, &mut CountSink::default());
            if out.shed > 0 {
                let after = resident(&engine);
                let evicted = before.into_iter().find(|seq| !after.contains(seq));
                victims.push(evicted.unwrap_or(i));
            }
        }
        assert_eq!(victims.len(), 100 - 3 * 8, "every arrival past a full window sheds one");
        assert_eq!(victims, PINNED_VICTIMS);
    }
}
