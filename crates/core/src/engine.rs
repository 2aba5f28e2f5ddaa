//! What the engine is made of (paper §4, Algorithm 1): its configuration,
//! the two optional stages in front of it — the bounded-disorder reorder
//! stage and the overload input queue — and the per-query
//! core every registered query runs — plans, policy, estimation state. The
//! engine itself is the shared data plane, [`crate::MultiQueryEngine`]; a
//! single-query engine ([`ShedJoinEngine`]) is that plane with one
//! registered query.

use crate::builder::BuildError;
use crate::clock::Sample;
use crate::ingest::Arrival;
use crate::join::{ProbePlan, Run};
use crate::report::EngineMetrics;
use crate::shed::{clamp_score, PriorityCtx, Requirements, ShedPolicy};
use crate::sketch::{BankConfig, EpochSpec, TumblingFreq, TumblingSketches};
use crate::window::{Eviction, InsertOutcome, ReorderBuffer, ShedQueue, Slot, WindowStore};
use mstream_types::{JoinQuery, StreamId, Tuple, VDur, VTime, Value, WindowSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// A multi-way sliding-window join that sheds load by priority: the
/// shared data plane with one registered query (its streams are the global
/// streams, in the query's order). Built by [`crate::EngineBuilder::build`].
///
/// Per arriving tuple (Algorithm 1): update the current tumbling sketch,
/// expire stale tuples from every window, emit the join results the tuple
/// produces against all other windows, and store it — scored with the
/// active policy's priority measure only if its window may shed, evicting
/// the least-priority resident if the window is full.
pub type ShedJoinEngine = crate::multi::MultiQueryEngine;

/// Engine construction parameters.
#[derive(Clone, Debug)]
pub(crate) struct EngineConfig {
    /// Tuples of memory every window holds (the allocation of all of the
    /// paper's reported experiments).
    pub capacity: usize,
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
    /// The overload input queue in front of the operator (DESIGN.md
    /// §13); `None` (the default) processes every arrival on the spot.
    pub input_queue: Option<InputQueue>,
}

/// Paper §2's overload model, operator side
/// ([`crate::EngineBuilder::input_queue`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InputQueue {
    /// Join service rate `l`, tuples per second.
    pub service_rate: f64,
    /// Queue capacity in tuples (Figure 6 keeps 100).
    pub capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            capacity: 1024,
            bank: BankConfig::default(),
            epoch: None,
            seed: 0xEA51,
            disorder: None,
            score_cache: true,
            input_queue: None,
        }
    }
}

/// The bounded-disorder front end (DESIGN.md §13) as one stage every
/// front door shares — the engine before it mints, the sharded
/// coordinators before they mint and route: [`ReorderStage::give`] an
/// arrival, [`ReorderStage::release_below`] the watermark, and
/// [`ReorderStage::drain`] at end of input. Per-stream reorder buffers,
/// per-stream high-water marks, and the admission counter that keeps
/// same-timestamp arrivals releasing in arrival order.
pub(crate) struct ReorderStage {
    /// Arrivals refused for lateness beyond the bound
    /// ([`EngineMetrics::late_dropped`]).
    pub(crate) dropped: u64,
    /// The disorder bound `K`.
    bound: VDur,
    /// One reorder buffer per stream.
    buffers: Vec<ReorderBuffer<Arrival>>,
    /// Per-stream maximum timestamp seen (streams with no arrivals yet
    /// hold `VTime::ZERO`, pinning the watermark at the origin until every
    /// stream has spoken).
    hwm: Vec<VTime>,
    /// Admission counter: the tiebreak that orders same-timestamp releases.
    admitted: u64,
}

impl ReorderStage {
    pub(crate) fn new(bound: VDur, n_streams: usize) -> Self {
        let mut stage = ReorderStage {
            dropped: 0,
            bound,
            buffers: Vec::new(),
            hwm: Vec::new(),
            admitted: 0,
        };
        stage.add_streams(n_streams);
        stage
    }

    /// Grows the stage to `n_streams` streams (a registration brought new
    /// ones). A new stream starts at the slowest stream's high-water mark,
    /// so registering never moves the watermark backwards.
    pub(crate) fn add_streams(&mut self, n_streams: usize) {
        let start = self.hwm.iter().copied().min().unwrap_or(VTime::ZERO);
        self.hwm.resize(n_streams, start);
        self.buffers.resize_with(n_streams, ReorderBuffer::new);
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

    /// Arrivals currently buffered.
    pub(crate) fn len(&self) -> usize {
        self.buffers.iter().map(ReorderBuffer::len).sum()
    }

    /// Takes one arrival: advances its stream's high-water mark, then
    /// buffers it and returns the watermark to release below — or drops
    /// and counts it (`None`) when it is already below the watermark. Such
    /// an arrival is later than the bound: the reorder guarantee no longer
    /// covers it (its window contemporaries may already have been released
    /// and expired), so joining it would produce results an in-order run
    /// never would.
    pub(crate) fn give(&mut self, arrival: Arrival) -> Option<VTime> {
        let k = arrival.stream.index();
        if arrival.ts > self.hwm[k] {
            self.hwm[k] = arrival.ts;
        }
        let wm = self.watermark();
        if arrival.ts < wm {
            self.dropped += 1;
            return None;
        }
        self.buffers[k].push(arrival.ts, self.admitted, arrival);
        self.admitted += 1;
        Some(wm)
    }

    /// The next buffered arrival in merged `(ts, admission)` order, if its
    /// timestamp is strictly below `wm`. Strictness matters: a future
    /// accepted arrival carries `ts >= wm`, so nothing released here can
    /// ever be preceded by one still to come. Each release is processed at
    /// its **own** timestamp, so a covered disorder run is literally a
    /// replay of the in-order run.
    pub(crate) fn release_below(&mut self, wm: VTime) -> Option<Arrival> {
        self.pop_head(|ts| ts < wm)
    }

    /// The next buffered arrival regardless of the watermark (end of
    /// input).
    pub(crate) fn drain(&mut self) -> Option<Arrival> {
        self.pop_head(|_| true)
    }

    /// The `(ts, admission, stream)` of the first arrival in merged
    /// `(ts, admission)` order (admissions are unique).
    fn head(&self) -> Option<(VTime, u64, usize)> {
        let heads = self.buffers.iter().enumerate();
        heads.filter_map(|(k, buf)| buf.peek_key().map(|(ts, entry)| (ts, entry, k))).min()
    }

    fn pop_head(&mut self, due: impl Fn(VTime) -> bool) -> Option<Arrival> {
        let (_, _, k) = self.head().filter(|&(ts, _, _)| due(ts))?;
        self.buffers[k].pop().map(|(_, _, arrival)| arrival)
    }

    /// Everything still buffered is at or ahead of the watermark: earlier
    /// entries were either released or late-dropped.
    ///
    /// # Panics
    /// Panics on a releasable arrival left behind.
    #[cfg(feature = "audit")]
    pub(crate) fn check_invariants(&self) {
        let wm = self.watermark();
        if let Some((ts, _, k)) = self.head() {
            assert!(ts >= wm, "stream {k} holds a releasable arrival: {ts:?} < watermark {wm:?}");
        }
    }
}

/// The overload input queue (paper §2, Figure 1) as a stage of the plane,
/// the sibling of [`ReorderStage`]: the engine offers it every minted
/// arrival and serves it one tuple per service interval.
pub(crate) struct QueueStage {
    pub(crate) queue: ShedQueue,
    /// The service interval `1 / l`.
    service: VDur,
    /// When the server next becomes free.
    server_free: VTime,
    /// Draws the victims of tuples no live store reads.
    pub(crate) rng: StdRng,
}

impl QueueStage {
    /// An empty queue served at `spec`'s rate (validated by the builder).
    pub(crate) fn new(spec: InputQueue, seed: u64) -> Self {
        QueueStage {
            queue: ShedQueue::new(spec.capacity),
            service: VDur::from_rate(spec.service_rate),
            server_free: VTime::ZERO,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Takes the oldest queued tuple off the queue with the instant its
    /// service starts, `max(server free, its arrival)`, if that is earlier
    /// than `until` (`None`: whenever it is), and books the server for one
    /// service interval from then.
    pub(crate) fn serve_before(&mut self, until: Option<VTime>) -> Option<(Tuple, VTime)> {
        let start = self.server_free.max(self.queue.peek_front()?.ts);
        if until.is_some_and(|t| start >= t) {
            return None;
        }
        let tuple = self.queue.pop_front().expect("peeked tuple present");
        self.server_free = start + self.service;
        Some((tuple, start))
    }
}

/// The per-query half of Algorithm 1: one query's probe plans, shedding
/// policy and tumbling estimation state, with the steps that touch nothing
/// else — fold an arrival in (step 1), rescore or defer one store at a
/// rollover, admit a tuple to its window (step 5), score one for the
/// input queue. Every class of the engine embeds one next to its mapping
/// into the shared store table.
pub(crate) struct QueryCore {
    pub(crate) query: JoinQuery,
    pub(crate) plans: Vec<ProbePlan>,
    pub(crate) policy: Box<dyn ShedPolicy>,
    /// What the engine keeps for the policy: its declared requirements,
    /// or none at all while the core is idle.
    pub(crate) reqs: Requirements,
    pub(crate) sketches: Option<TumblingSketches>,
    partner_freq: Option<TumblingFreq>,
    pub(crate) rng: StdRng,
    /// The construction-time half of [`QueryCore::can_defer`].
    may_defer: bool,
    /// No window of the query can fill, so nothing is estimated, credited
    /// or scored (DESIGN.md §16, "A window that cannot fill").
    pub(crate) idle: bool,
}

impl QueryCore {
    /// A core on `config`'s epoch (or the paper's default for `query`).
    /// An `idle` one keeps no estimation state and asks the engine for
    /// nothing; any other materializes exactly the estimation state
    /// `policy` declares it needs.
    pub(crate) fn new(
        query: JoinQuery,
        policy: Box<dyn ShedPolicy>,
        config: &EngineConfig,
        idle: bool,
    ) -> core::result::Result<Self, BuildError> {
        let declared = policy.requirements();
        // Validated here, idle or not.
        let epoch = (declared.sketches || declared.partner_freq).then(|| epoch_of(&query, config));
        let epoch = epoch.transpose()?;
        let reqs = if idle {
            Requirements::default()
        } else {
            declared
        };
        let sketches = epoch.filter(|_| reqs.sketches).map(|e| {
            let mut sketches = TumblingSketches::new(&query, config.bank, e);
            sketches.set_score_cache(config.score_cache);
            sketches
        });
        let partner_freq = epoch
            .filter(|_| reqs.partner_freq)
            .map(|e| TumblingFreq::new(&query, e));
        let may_defer =
            policy.deferrable_priority() && declared.recompute_on_epoch && declared.sketches;
        Ok(QueryCore {
            plans: ProbePlan::all(&query),
            query,
            policy,
            reqs,
            sketches,
            partner_freq,
            rng: StdRng::seed_from_u64(config.seed),
            may_defer,
            idle,
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
        if !self.estimates() {
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

    /// Whether the core keeps estimation state at all.
    pub(crate) fn estimates(&self) -> bool {
        self.sketches.is_some() || self.partner_freq.is_some()
    }

    /// The policy next to the estimation state it scores against.
    fn scoring(&mut self, now: VTime) -> (&mut dyn ShedPolicy, PriorityCtx<'_>) {
        let ctx = PriorityCtx {
            query: &self.query,
            sketches: self.sketches.as_mut(),
            partner_freq: self.partner_freq.as_ref(),
            now,
            rng: &mut self.rng,
        };
        (self.policy.as_mut(), ctx)
    }

    /// The `(priority, cached policy state)` `tuple` (tagged with its
    /// query-local stream) enters its window with. All scores funnel
    /// through the finite clamp before they reach a priority heap —
    /// third-party policies included.
    fn admission_score(&mut self, tuple: &Tuple, now: VTime) -> (f64, f64) {
        let (policy, mut ctx) = self.scoring(now);
        let (score, state) = policy.window_priority_with_state(&mut ctx, tuple, 0);
        (clamp_score(score), state)
    }

    /// Priority the policy assigns `tuple` if it were queued right now.
    pub(crate) fn queue_score(&mut self, tuple: &Tuple, now: VTime) -> f64 {
        let (policy, mut ctx) = self.scoring(now);
        clamp_score(policy.queue_priority(&mut ctx, tuple))
    }

    /// Whether a store's priorities may be owed instead of kept: the
    /// answer must not depend on *when* it is computed (DESIGN.md §16).
    /// That holds when the policy declares its priority a function of key
    /// values, produced count and the frozen snapshot
    /// ([`ShedPolicy::deferrable_priority`]) and rebuilds at rollovers —
    /// fixed at construction — and every stream has completed an epoch, so
    /// no estimate reads the live bank.
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
            self.admission_score(&tuple, now)
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

    /// Rollover rescoring of one store's residents against the current
    /// epoch snapshot.
    pub(crate) fn rescore_store(&mut self, store: &mut WindowStore, now: VTime) {
        let (policy, mut ctx) = self.scoring(now);
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

/// `config`'s epoch, or the paper's default for `query`.
fn epoch_of(query: &JoinQuery, config: &EngineConfig) -> core::result::Result<EpochSpec, BuildError> {
    match config.epoch {
        Some(e) => Ok(e),
        None => default_epoch(query),
    }
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
    use crate::join::{probe_runs_in, StoreLookup};
    use crate::{Bjoin, Fifo, MSketch, MSketchRs, RandomLoad};
    use mstream_types::{Catalog, Error, SeqNo, StreamSchema, VDur, Value};

    /// The engine over `query` alone, through the plane's constructor.
    fn solo(
        query: JoinQuery,
        policy: Box<dyn ShedPolicy>,
        config: EngineConfig,
    ) -> mstream_types::Result<ShedJoinEngine> {
        ShedJoinEngine::new(vec![query], policy, config).map_err(Into::into)
    }

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
            capacity,
            bank: BankConfig {
                s1: 50,
                s2: 1,
                seed: 7,
            },
            epoch: None,
            seed: 3,
            disorder: None,
            score_cache: true,
            input_queue: None,
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
    fn the_stage_releases_strictly_below_the_watermark() {
        let at = |s: usize, secs: u64| {
            Arrival::new(StreamId(s), vec![Value(secs)], VTime::from_secs(secs))
        };
        let mut stage = ReorderStage::new(VDur::ZERO, 2);
        assert_eq!(stage.give(at(0, 10)), Some(VTime::ZERO), "stream 1 is silent");
        let wm = stage.give(at(1, 10)).expect("on time");
        assert_eq!(wm, VTime::from_secs(10));
        // Both sit on the watermark, and a later arrival may still carry
        // their timestamp: neither may leave yet.
        assert!(stage.release_below(wm).is_none());
        assert!(stage.give(at(0, 10)).is_some(), "on the watermark is on time");
        assert!(stage.give(at(1, 9)).is_none(), "below it is late");
        assert_eq!(stage.dropped, 1);
        assert!(stage.give(at(1, 11)).is_some() && stage.give(at(0, 12)).is_some());
        // A stream registered late joins at the slowest high-water mark.
        stage.add_streams(3);
        let wm = stage.watermark();
        assert_eq!(wm, VTime::from_secs(11));
        let released: Vec<_> = std::iter::from_fn(|| stage.release_below(wm))
            .map(|a| (a.stream.index(), a.ts.as_secs_f64()))
            .collect();
        assert_eq!(released, [(0, 10.0), (1, 10.0), (0, 10.0)], "(ts, admission) order");
        let drained: Vec<_> = std::iter::from_fn(|| stage.drain()).map(|a| a.stream).collect();
        assert_eq!(drained, [StreamId(1), StreamId(0)]);
        assert_eq!(stage.len(), 0);
    }

    #[test]
    fn unshedded_engine_matches_exact_join() {
        // With capacity >= arrivals the engine must be exact regardless of
        // policy.
        use crate::join::ExactJoin;
        use rand::Rng;
        let mut engine =
            solo(chain3(50), Box::new(MSketch), cfg(10_000)).unwrap();
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
            Box::new(crate::Age),
            Box::new(Bjoin),
            Box::new(RandomLoad),
            Box::new(Fifo),
        ];
        for policy in policies {
            let name = policy.name();
            let mut engine = solo(chain3(100), policy, cfg(16)).unwrap();
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
            || Box::new(crate::Age),
        ];
        for mk in policies {
            let run = |cached: bool| {
                let config = EngineConfig {
                    score_cache: cached,
                    ..cfg(16)
                };
                let mut engine = solo(chain3(40), mk(), config).unwrap();
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
            let mut engine = solo(chain3(1000), policy, cfg(8)).unwrap();
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
    fn bjoin_runs_through_shedding_and_epoch_rollovers() {
        use rand::Rng;
        // Exercise the tumbling frequency tables across inserts, evictions,
        // expirations and epoch rollovers.
        let mut engine = solo(chain3(20), Box::new(Bjoin), cfg(8)).unwrap();
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
        let mut engine = solo(chain3(1000), Box::new(MSketchRs), cfg(64)).unwrap();
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
        let mut engine = solo(chain3(1000), Box::new(Fifo), cfg(1000)).unwrap();
        for i in 0..90u64 {
            let j = i / 3;
            arrive(&mut engine, StreamId(i as usize % 3), v(j / 2 % 3, j / 6 % 2), VTime::ZERO);
        }
        let (core, stores) = engine.class_view(0);
        for (origin, plan) in core.plans.iter().enumerate() {
            let t = Tuple::new(StreamId(origin), VTime::ZERO, SeqNo(999), v(1, 1));
            let scratches = || -> Vec<ProducedScratch> { (0..3).map(|_| Default::default()).collect() };
            let (mut by_run, mut by_row) = (scratches(), scratches());
            let mut blocks = 0;
            probe_runs_in(plan, &t, &stores, |run| {
                blocks += usize::from(run.outer_len() > 1 && run.inner_len() > 1);
                for (k, s) in by_run.iter_mut().enumerate() {
                    s.credit(StreamId(k), run);
                }
            });
            assert!(blocks > 0, "origin {origin}: no run spans several outer candidates");
            let rows = crate::probe::probe_each_in(plan, &t, &stores, |b| {
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
        let mut engine = solo(chain3(100), Box::new(MSketch), config).unwrap();
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
        let mut engine = solo(chain3(100), Box::new(MSketch), config).unwrap();
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
        let mut plain = solo(chain3(100), Box::new(Fifo), cfg(32)).unwrap();
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
            let mut engine = solo(chain3(40), policy, config).unwrap();
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
        let err = solo(chain3(10), Box::new(Fifo), cfg(0))
            .err()
            .expect("zero capacity must be rejected");
        assert!(matches!(err, Error::InvalidConfig(_)));
    }

    #[test]
    fn tuple_based_windows_get_tuple_epochs() {
        let mut c = Catalog::new();
        c.add_stream(StreamSchema::new("R1", &["A1"]));
        c.add_stream(StreamSchema::new("R2", &["A1"]));
        let q = JoinQuery::from_names(c, &[("R1.A1", "R2.A1")], WindowSpec::Tuples(20)).unwrap();
        let engine = solo(q, Box::new(MSketch), cfg(8)).unwrap();
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
                solo(chain3(100), Box::new(RandomLoad), config).unwrap();
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
            solo(chain3(100), Box::new(RandomLoad), cfg(8)).unwrap();
        let mut victims = Vec::new();
        for i in 0..100u64 {
            let k = i as usize % 3;
            let resident = |e: &ShedJoinEngine| -> Vec<u64> {
                let (_, stores) = e.class_view(0);
                stores.store(StreamId(k)).iter().map(|(_, t)| t.seq.0).collect()
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
