//! Hash-partitioned parallel execution of the shedding join.
//!
//! [`ShardedJoinEngine`] analyzes the query's equi-predicate graph
//! ([`JoinQuery::partitioning`]): when every predicate lies in one
//! attribute-equivalence class, arrivals can be hash-partitioned by that
//! attribute's value across `S` worker threads, each owning an independent
//! engine ([`crate::ShedJoinEngine`]) with `1/S` of the memory budget — two
//! tuples with different partition keys can never join, so the union of the
//! per-shard outputs equals the single-engine output exactly (at full memory
//! it is byte-identical; under shedding each shard shrinks its own
//! partition).
//! Queries that join through more than one attribute class degrade to one
//! shard, with the reason surfaced on the [`RunReport`].
//!
//! ## Data plane
//!
//! The coordinator buffers routed tuples into per-shard batches
//! (`Vec<Item>`) and sends full batches over bounded channels. Batch
//! buffers are *recycled*: each worker drains a batch in place and sends
//! the empty allocation back on a per-worker return channel, so
//! steady-state ingest allocates nothing — combined with the inline
//! [`mstream_types::Row`] tuple payload, routing a tuple of arity ≤
//! [`mstream_types::ROW_INLINE`] touches the heap zero times.
//!
//! ## Tuple-based windows
//!
//! Tuple-count windows expire by *arrivals seen on the stream*, which a
//! shard only partially observes. The coordinator accumulates the arrivals
//! routed elsewhere as per-shard pending tick counters and flushes them as
//! one coalesced [`Item::Ticks`] summary immediately before the next tuple
//! delivered to that shard (O(1) channel items per batch instead of O(S)
//! per arrival). Ticks only advance each stream's arrival counter
//! ([`crate::MultiQueryEngine::note_foreign_arrivals`]) and expiry is
//! evaluated when the *next stored tuple* is processed, so a summary applied just
//! before that tuple is observationally identical to the per-arrival
//! interleaving — expiry boundaries match the single-engine run exactly.
//! Time-based windows need no ticks (expiry depends only on timestamps).
//!
//! ## Skew-adaptive routing (DESIGN.md §12)
//!
//! Hash routing pins every hot join key to one worker, so a Zipf-skewed
//! key distribution saturates one shard while the rest idle. The
//! coordinator therefore runs an online heavy-hitter detector (a
//! space-saving tracker over routed keys, sampled at a fixed arrival
//! cadence with promote/demote hysteresis). Arrivals carrying a *hot* key
//! fan their **store side** to every shard ([`Item::Replica`]: observe +
//! expire + store, no probe, no `processed` credit) while their **probe
//! side** goes to exactly one shard — round-robin once the key's *fan-out
//! gate* opens, the hash-home shard until then. The gate guards exactness:
//! a shard other than the hash home is missing the key's pre-promotion
//! tuples, so probes stay pinned to the home until every pre-promotion
//! tuple is provably expired (time windows: `now ≥ promote_ts + p`;
//! tuple windows: `c + 1` further arrivals on the stream since the
//! promotion snapshot). Each arrival gets exactly one probing (FULL)
//! delivery, so produced counts and join results are never duplicated, and
//! demotion is immediately safe (the home shard received every replica).
//!
//! ## Broadcast execution mode
//!
//! Queries whose equi-predicate graph is *not* key-partitionable
//! previously degraded to one shard. With [`ShardConfig::broadcast`] (the
//! default) they instead run replicated: the **dominant** stream (most
//! incident predicates, ties to the lowest index) is partitioned
//! round-robin, and every other stream is broadcast — stored on all
//! shards, probed on all shards ([`Item::ProbeReplica`] on the non-home
//! copies). Every result combination contains exactly one dominant-stream
//! tuple, resident on exactly one shard, so each combination is emitted
//! exactly once. Broadcast streams keep their *full* window allocation on
//! every shard (memory × S for those streams — the price of sharing the
//! build side), while the dominant stream's window divides by S.
//!
//! ## Determinism
//!
//! The coordinator mints globally-ordered sequence numbers, routes by a
//! fixed hash of the key value, and derives each worker's engine seed from
//! the master seed — so a run is a pure function of (query, policy,
//! config, trace); the heavy-hitter tracker and round-robin cursors are
//! deterministic too (`Vec` scans only, no hash-order iteration). With
//! [`Backpressure::Block`] (the default) nothing is ever dropped at the
//! channels and replays are exact; [`Backpressure::Shed`] instead drops
//! batches when a worker falls behind, counting them in
//! [`ShardedRunReport::shed_channel`]. A dropped batch's coalesced tick
//! summaries are re-queued into the pending counters (tick counts commute,
//! and the dropped batch is always the newest traffic for that shard), so
//! tuple-window accounting only drifts by the dropped *tuples* themselves
//! — live-mode semantics matching the single engine's queue shedding,
//! where a dropped tuple never ages any window. Dropped replica deliveries
//! re-queue as ticks for their shard (the arrival is still processed by
//! its FULL delivery elsewhere), so expiry counters never skew.

use crate::engine::{EngineConfig, MemoryMode, ReorderStage};
use crate::ingest::{Arrival, CountSink, IngestRole, VecSink};
use crate::multi::MultiQueryEngine;
use crate::report::{EngineMetrics, RunReport};
use crossbeam::channel::{bounded, Receiver, Sender};
use mstream_shed_policies::ShedPolicy;
use mstream_sketch::{BankConfig, SpaceSaving};
use mstream_types::{
    splitmix64, Error, JoinQuery, Partitioning, Result, SeqNo, StreamId, Tuple, VDur, VTime,
    WindowSpec, WordBuild,
};
use mstream_workload::Trace;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::thread::JoinHandle;
use std::time::Instant;

/// What the coordinator does when a worker's channel is full.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backpressure {
    /// Wait for the worker (lossless; keeps replays exact).
    #[default]
    Block,
    /// Drop the batch and count it (live-mode load shedding at the
    /// source, as in the paper's overloaded-operator regime).
    Shed,
}

/// Online heavy-hitter detection knobs for skew-adaptive routing (active
/// only for key-partitioned runs with more than one shard).
///
/// Thresholds are integer **permille** of the tracker's observed total
/// (integer math keeps routing decisions platform-deterministic). `0`
/// resolves the paper-free defaults at construction: promote at
/// `1000 / (2·S)` permille (a key earning more than half a shard's fair
/// share of probe work), demote at half the promote threshold — the
/// promote/demote gap is the hysteresis that keeps the hot set stable
/// between decision epochs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HotKeyConfig {
    /// Master switch; `false` restores pure hash routing.
    pub enabled: bool,
    /// Concurrently-hot key slots (keys beyond this stay hash-routed).
    pub capacity: usize,
    /// Space-saving counters in the detector. Detection resolution is
    /// `total / tracker_capacity`: a key share below
    /// `1 / tracker_capacity` can never be *certified* hot, so size this
    /// well above `1000 / promote_permille`.
    pub tracker_capacity: usize,
    /// Arrivals between promote/demote decision points (the tracker
    /// accumulates across epochs; this is the decision cadence).
    pub epoch_arrivals: u64,
    /// Promote when a key's *guaranteed* (lower-bound) share reaches this
    /// many permille; `0` = auto (`1000 / (2·S)`).
    pub promote_permille: u32,
    /// Demote when a key's *estimated* (upper-bound) share falls below
    /// this many permille; `0` = auto (half the promote threshold).
    pub demote_permille: u32,
}

impl Default for HotKeyConfig {
    fn default() -> Self {
        HotKeyConfig {
            enabled: true,
            capacity: 32,
            tracker_capacity: 256,
            epoch_arrivals: 2048,
            promote_permille: 0,
            demote_permille: 0,
        }
    }
}

/// Tuning for sharded execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardConfig {
    /// Requested worker count (the engine may degrade to 1; see
    /// [`ShardedJoinEngine::degraded`]).
    pub shards: usize,
    /// Bounded channel depth per worker, in *batches*.
    pub channel_capacity: usize,
    /// Arrivals buffered per worker before a batch is sent.
    pub batch_size: usize,
    /// Full-channel behavior.
    pub backpressure: Backpressure,
    /// Collect every join result row (owned tuples in stream order) for
    /// the merged report. Needed for differential testing; off for
    /// throughput runs.
    pub collect_rows: bool,
    /// Diagnostic mode: workers drain and recycle batches without running
    /// the join, isolating the data-plane cost (mint + route + channel
    /// round-trip). Output counters stay zero; `tests/route_only_allocs.rs`
    /// holds its steady state to zero allocations and the benchmark times
    /// it as `shard.route_only_ns_per_arrival`.
    pub route_only: bool,
    /// Heavy-hitter splitting for key-partitioned queries.
    pub hot_keys: HotKeyConfig,
    /// Run non-key-partitionable queries in broadcast mode at the
    /// requested shard count instead of degrading to one shard.
    pub broadcast: bool,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 1,
            channel_capacity: 64,
            batch_size: 64,
            backpressure: Backpressure::Block,
            collect_rows: false,
            route_only: false,
            hot_keys: HotKeyConfig::default(),
            broadcast: true,
        }
    }
}

/// The merged outcome of a sharded run.
#[derive(Clone, Debug)]
pub struct ShardedRunReport {
    /// Combined counters and run metadata (per-shard metrics summed;
    /// `shards` / `degraded` describe how the run actually executed).
    pub combined: RunReport,
    /// Each worker's own counters, indexed by shard.
    pub per_shard: Vec<EngineMetrics>,
    /// Tuples dropped at the shard channels under [`Backpressure::Shed`].
    pub shed_channel: u64,
    /// FULL (probing) deliveries the coordinator assigned to each shard
    /// (before any channel shedding) — the router's probe-work balance.
    /// Exactly one per arrival; replicated build/broadcast copies are not
    /// counted here (see [`EngineMetrics::replicated`]).
    pub routed: Vec<u64>,
    /// Final resident tuples on each shard (per-shard window occupancy at
    /// the end of the run).
    pub resident: Vec<usize>,
    /// Hot-key promotions performed by the skew router over the run.
    pub hot_promoted: u64,
    /// Whether the run executed in broadcast mode (replicated windows for
    /// non-key-partitionable queries).
    pub broadcast: bool,
    /// Every join result row (tuples in stream order), merged across
    /// shards and sorted by per-stream sequence numbers, when
    /// [`ShardConfig::collect_rows`] was set.
    pub rows: Option<Vec<Vec<Tuple>>>,
}

/// Streams covered by one [`Item::Ticks`] summary (wider schemas send
/// several chained blocks).
const TICK_LANES: usize = 8;

/// Coalesced foreign-arrival counts for the contiguous stream range
/// `[base, base + n)`: `counts[k]` arrivals on stream `base + k` were
/// routed to other shards since this shard's previous batch traffic.
#[derive(Clone, Copy, Debug)]
struct TickBlock {
    base: u8,
    n: u8,
    counts: [u32; TICK_LANES],
}

/// One message element on a worker channel.
enum Item {
    /// A tuple routed to this shard for processing — the arrival's one
    /// FULL delivery (probe + emit + `processed` credit).
    Tuple(Tuple),
    /// A replicated build-side copy (hot-key splitting): observe, expire
    /// and store, but do not probe and do not count as processed.
    Replica(Tuple),
    /// A broadcast-stream copy on a non-home shard: stores *and* probes
    /// (this shard holds dominant-stream partners no other shard has) but
    /// does not count as processed.
    ProbeReplica(Tuple),
    /// Arrivals other shards are processing (advances tuple-window expiry
    /// here). Always delivered before the tuples that follow them.
    Ticks(TickBlock),
}

struct WorkerOut {
    metrics: EngineMetrics,
    /// Result rows sorted by per-stream seq on the worker thread, so the
    /// coordinator's merge is a k-way interleave, not a global sort.
    rows: Option<Vec<Vec<Tuple>>>,
    end_time: VTime,
    /// Window occupancy at the end of the run.
    resident: usize,
}

/// One concurrently-hot key's routing state.
struct HotSlot {
    key: u64,
    active: bool,
    /// Round-robin cursor for probe placement once the fan-out gate opens
    /// (seeded with the slot index so concurrent hot keys start de-phased).
    rr: u64,
    /// Hash-home shard — the probe target while the gate is closed (it is
    /// the only shard holding the key's pre-promotion tuples).
    home: usize,
    /// Arrival timestamp at promotion (time-window gate anchor).
    promote_ts: VTime,
    /// Per-stream global arrival counts at promotion (tuple-window gate
    /// anchor); preallocated, length `n_streams`.
    snapshot: Vec<u64>,
    /// Once true, probes round-robin (sticky for the rest of the hot
    /// period: windows only ever shrink behind the gate condition).
    gate_open: bool,
}

/// Where one arrival's probing delivery goes.
enum Placement {
    /// Cold key: classic hash routing (ticks to the other shards).
    Cold { home: usize },
    /// Hot key: FULL to `probe`, store replicas to every other shard.
    Hot { probe: usize },
}

/// Minimum guaranteed observations before a key may be promoted: permille
/// thresholds alone are meaningless against the tiny totals of the first
/// decision epochs (one observation out of 64 is 15‰).
const MIN_PROMOTE_SUPPORT: u64 = 8;

/// Coordinator-side heavy-hitter detection and hot-key routing (key-
/// partitioned mode, S > 1). All state is preallocated at construction
/// and every decision iterates `Vec`s only, so routing stays
/// allocation-free and platform-deterministic.
struct SkewRouter {
    shards: usize,
    tracker: SpaceSaving,
    epoch_arrivals: u64,
    since_epoch: u64,
    promote_permille: u64,
    demote_permille: u64,
    /// key -> slot index; lookup-only (never iterated).
    hot_index: HashMap<u64, usize, WordBuild>,
    slots: Vec<HotSlot>,
    /// Global arrivals per stream seen by the coordinator (the oracle
    /// position every shard's expiry counter is synchronized to).
    stream_arrivals: Vec<u64>,
    /// Tuple-window sizes per stream (`None` for time windows).
    tuple_counts: Vec<Option<u64>>,
    /// Longest time window across streams, if any.
    max_time_window: Option<VDur>,
    /// Total promotions performed (diagnostic).
    promoted: u64,
}

impl SkewRouter {
    fn new(query: &JoinQuery, cfg: &HotKeyConfig, shards: usize) -> Self {
        let n = query.n_streams();
        let promote = if cfg.promote_permille == 0 {
            (1000 / (2 * shards as u64)).max(1)
        } else {
            u64::from(cfg.promote_permille)
        };
        let demote = if cfg.demote_permille == 0 {
            (promote / 2).max(1)
        } else {
            u64::from(cfg.demote_permille)
        };
        let tuple_counts: Vec<Option<u64>> = query
            .windows()
            .iter()
            .map(|w| match *w {
                WindowSpec::Tuples(c) => Some(c),
                WindowSpec::Time(_) => None,
            })
            .collect();
        let max_time_window = query
            .windows()
            .iter()
            .filter_map(|w| match *w {
                WindowSpec::Time(p) => Some(p),
                WindowSpec::Tuples(_) => None,
            })
            .max();
        let capacity = cfg.capacity.max(1);
        SkewRouter {
            shards,
            tracker: SpaceSaving::with_capacity(cfg.tracker_capacity.max(capacity)),
            epoch_arrivals: cfg.epoch_arrivals.max(1),
            since_epoch: 0,
            promote_permille: promote,
            demote_permille: demote,
            hot_index: HashMap::with_capacity_and_hasher(capacity * 2, WordBuild::default()),
            slots: (0..capacity)
                .map(|i| HotSlot {
                    key: 0,
                    active: false,
                    rr: i as u64,
                    home: 0,
                    promote_ts: VTime::ZERO,
                    snapshot: vec![0; n],
                    gate_open: false,
                })
                .collect(),
            stream_arrivals: vec![0; n],
            tuple_counts,
            max_time_window,
            promoted: 0,
        }
    }

    /// Observes one routed arrival and places its probing delivery.
    fn place(&mut self, key: u64, stream: StreamId, now: VTime, home: usize) -> Placement {
        self.stream_arrivals[stream.index()] += 1;
        self.tracker.observe(key);
        self.since_epoch += 1;
        if self.since_epoch >= self.epoch_arrivals {
            self.epoch_end(now);
        }
        let Some(&i) = self.hot_index.get(&key) else {
            return Placement::Cold { home };
        };
        let slot = &mut self.slots[i];
        if !slot.gate_open {
            slot.gate_open = gate_opens(
                slot,
                &self.stream_arrivals,
                &self.tuple_counts,
                self.max_time_window,
                now,
            );
        }
        let probe = if slot.gate_open {
            let p = (slot.rr % self.shards as u64) as usize;
            slot.rr += 1;
            p
        } else {
            slot.home
        };
        Placement::Hot { probe }
    }

    /// Promote/demote decision point, run every `epoch_arrivals` arrivals.
    /// The tracker accumulates across epochs (cumulative shares), so
    /// detection resolution improves over the run while the decision
    /// cadence stays fixed.
    fn epoch_end(&mut self, now: VTime) {
        self.since_epoch = 0;
        let total = self.tracker.total();
        if total == 0 {
            return;
        }
        // Demote first (freeing slots for this epoch's promotions): a hot
        // key whose *upper-bound* share fell below the demote threshold is
        // returned to hash routing. Immediately safe — its home shard
        // received every replica during the hot period, so it has the
        // key's full window.
        for slot in &mut self.slots {
            if slot.active && self.tracker.estimate(slot.key) * 1000 < self.demote_permille * total
            {
                slot.active = false;
                self.hot_index.remove(&slot.key);
            }
        }
        // Promote keys whose *guaranteed* (lower-bound) share clears the
        // promote threshold — a key is only split when it provably earns
        // it — and that have minimum absolute support: in the first few
        // epochs the observed total is small enough that a key seen once
        // or twice clears any permille share test, and every such noise
        // promotion costs a home-pinned fan-out-gate window before its
        // eventual demotion. Slot-order iteration keeps this
        // deterministic.
        for (key, count, error) in self.tracker.iter() {
            let guaranteed = count - error;
            if guaranteed < MIN_PROMOTE_SUPPORT {
                continue;
            }
            if guaranteed * 1000 < self.promote_permille * total {
                continue;
            }
            if self.hot_index.contains_key(&key) {
                continue;
            }
            let Some(i) = self.slots.iter().position(|s| !s.active) else {
                break; // All slots busy; surplus keys stay hash-routed.
            };
            let slot = &mut self.slots[i];
            slot.key = key;
            slot.active = true;
            slot.home = (splitmix64(key) % self.shards as u64) as usize;
            slot.promote_ts = now;
            slot.snapshot.copy_from_slice(&self.stream_arrivals);
            slot.gate_open = false;
            self.hot_index.insert(key, i);
            self.promoted += 1;
        }
    }
}

/// Whether a hot key's fan-out gate opens: every pre-promotion tuple of
/// the key is provably expired on every shard, so all shards hold
/// identical windows for the key and probes may round-robin.
///
/// Time windows are exact (every store expires before every probe and
/// expiry is `ts + p <= now`; pre-promotion tuples have `ts <=
/// promote_ts`), the deadline saturating: a window that never closes
/// never opens the gate. Tuple windows ask for `c + 1` further arrivals on
/// the stream since the promotion snapshot — one more than the window depth,
/// absorbing the arriving tuple's own not-yet-counted position.
fn gate_opens(
    slot: &HotSlot,
    arrivals: &[u64],
    tuple_counts: &[Option<u64>],
    max_time_window: Option<VDur>,
    now: VTime,
) -> bool {
    if let Some(p) = max_time_window {
        if now < slot.promote_ts.saturating_add(p) {
            return false;
        }
    }
    for (s, c) in tuple_counts.iter().enumerate() {
        if let Some(c) = c {
            if arrivals[s] - slot.snapshot[s] < c + 1 {
                return false;
            }
        }
    }
    true
}

/// Broadcast-mode routing state: the dominant stream partitions
/// round-robin; every other stream replicates to all shards.
struct BroadcastPlan {
    /// The partitioned stream (most incident predicates; ties to the
    /// lowest index).
    dominant: usize,
    /// Round-robin cursor for dominant-stream placement.
    dominant_rr: u64,
    /// Round-robin cursor designating the FULL (accounting) shard for
    /// broadcast-stream arrivals.
    broadcast_rr: u64,
}

/// The stream with the most incident equi-predicates — partitioning it
/// removes the most probe work per shard; ties break to the lowest
/// stream index (deterministic and stable across runs).
fn dominant_stream(query: &JoinQuery) -> usize {
    let mut incident = vec![0usize; query.n_streams()];
    for p in query.predicates() {
        incident[p.left.stream.index()] += 1;
        incident[p.right.stream.index()] += 1;
    }
    let mut best = 0;
    for (s, &n) in incident.iter().enumerate() {
        if n > incident[best] {
            best = s;
        }
    }
    best
}

/// A shard-parallel front for the engine: route arrivals with
/// [`ShardedJoinEngine::ingest`], then collect the merged report with
/// [`ShardedJoinEngine::finish`].
pub struct ShardedJoinEngine {
    shards: usize,
    n_streams: usize,
    degraded: Option<String>,
    key_attrs: Option<Vec<usize>>,
    needs_ticks: bool,
    batch_size: usize,
    backpressure: Backpressure,
    collect_rows: bool,
    senders: Vec<Sender<Vec<Item>>>,
    /// Per-worker return path carrying drained batch allocations back for
    /// reuse (steady-state ingest then allocates no batch buffers).
    returns: Vec<Receiver<Vec<Item>>>,
    buffers: Vec<Vec<Item>>,
    /// Pending foreign-arrival ticks, flat-indexed `[shard * n_streams +
    /// stream]`; drained into an [`Item::Ticks`] summary right before the
    /// next tuple pushed to that shard.
    pending_ticks: Vec<u64>,
    /// Per-shard dirty flags for `pending_ticks`, keeping the hot-path
    /// check O(1).
    pending_any: Vec<bool>,
    routed: Vec<u64>,
    handles: Vec<JoinHandle<WorkerOut>>,
    next_seq: SeqNo,
    shed_channel: u64,
    /// Heavy-hitter detection and hot-key routing (key-partitioned mode,
    /// S > 1, hot keys enabled).
    skew: Option<SkewRouter>,
    /// Broadcast-mode routing (non-key-partitionable query, S > 1,
    /// broadcast enabled).
    broadcast: Option<BroadcastPlan>,
    /// Coordinator-side reorder stage: arrivals are reordered *before*
    /// minting and routing, so every worker — and the skew router's
    /// fan-out gate — observes a monotone (watermark-ordered) timestamp
    /// sequence. `None` without a disorder bound.
    front: Option<ReorderStage>,
    started: Instant,
}

impl ShardedJoinEngine {
    /// Spawns the worker threads for `query` with per-worker copies of
    /// `policy`. `config.memory` is the *total* budget; each worker gets
    /// `1/S` of it. Prefer [`crate::EngineBuilder::build_sharded`].
    pub fn new(
        query: JoinQuery,
        policy: Box<dyn ShedPolicy>,
        config: EngineConfig,
        shard: ShardConfig,
    ) -> Result<Self> {
        if shard.shards == 0 {
            return Err(Error::InvalidConfig("shard count must be >= 1".into()));
        }
        if shard.batch_size == 0 || shard.channel_capacity == 0 {
            return Err(Error::InvalidConfig(
                "shard batch size and channel capacity must be >= 1".into(),
            ));
        }
        let (shards, degraded, key_attrs, broadcast) =
            match (shard.shards, query.partitioning()) {
                (1, p) => (1, None, p.key_attrs().map(<[usize]>::to_vec), None),
                (s, Partitioning::ByKey { key_attrs }) => (s, None, Some(key_attrs), None),
                (s, Partitioning::Single { .. }) if shard.broadcast => (
                    s,
                    None,
                    None,
                    Some(BroadcastPlan {
                        dominant: dominant_stream(&query),
                        dominant_rr: 0,
                        broadcast_rr: 0,
                    }),
                ),
                (_, Partitioning::Single { reason }) => (1, Some(reason), None, None),
            };
        let n_streams = query.n_streams();
        let needs_ticks = shards > 1
            && query
                .windows()
                .iter()
                .any(|w| matches!(w, WindowSpec::Tuples(_)));
        let memory = match &broadcast {
            Some(plan) => broadcast_memory(&config.memory, shards, plan.dominant, n_streams),
            None => split_memory(&config.memory, shards),
        };
        // Broadcast shards each observe *every* broadcast-stream arrival
        // (replicated estimation state mirrors the replicated windows), so
        // they keep the full bank; key-partitioned shards estimate 1/S of
        // the key space and split it.
        let bank = if broadcast.is_some() {
            config.bank
        } else {
            split_bank(&config.bank, shards)
        };
        let skew = (shards > 1 && key_attrs.is_some() && shard.hot_keys.enabled)
            .then(|| SkewRouter::new(&query, &shard.hot_keys, shards));
        let mut senders = Vec::with_capacity(shards);
        let mut returns = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        // Reordering happens once, at the coordinator, before minting and
        // routing: workers then see timestamps in watermark order and
        // trust them.
        let front = config.disorder.map(|k| ReorderStage::new(k, n_streams));
        for i in 0..shards {
            let mut worker_config = config.clone();
            worker_config.memory = memory.clone();
            worker_config.bank = bank;
            worker_config.disorder = None;
            // A 1-shard run keeps the master seed so it is bit-identical to
            // the single-threaded engine; multi-shard workers get
            // independent derived streams.
            if shards > 1 {
                worker_config.seed = splitmix64(config.seed ^ (i as u64 + 1));
            }
            let engine = MultiQueryEngine::new(vec![query.clone()], policy.clone(), worker_config)?;
            let (tx, rx) = bounded(shard.channel_capacity);
            // The return channel holds every buffer that can be in flight
            // (channel depth + the one being drained + the one being
            // filled), so workers never block returning one.
            let (ret_tx, ret_rx) = bounded(shard.channel_capacity + 2);
            let mode = WorkerMode {
                collect_rows: shard.collect_rows,
                route_only: shard.route_only,
            };
            handles.push(std::thread::spawn(move || {
                worker_loop(engine, rx, ret_tx, mode)
            }));
            senders.push(tx);
            returns.push(ret_rx);
        }
        let batch_size = shard.batch_size;
        Ok(ShardedJoinEngine {
            shards,
            n_streams,
            degraded,
            key_attrs,
            needs_ticks,
            batch_size,
            backpressure: shard.backpressure,
            collect_rows: shard.collect_rows,
            senders,
            returns,
            buffers: (0..shards).map(|_| Vec::with_capacity(batch_size)).collect(),
            pending_ticks: vec![0; shards * n_streams],
            pending_any: vec![false; shards],
            routed: vec![0; shards],
            handles,
            next_seq: SeqNo(0),
            shed_channel: 0,
            skew,
            broadcast,
            front,
            started: Instant::now(),
        })
    }

    /// Workers the engine actually runs on (1 when the query degraded).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Why a multi-shard request fell back to one shard, if it did.
    pub fn degraded(&self) -> Option<&str> {
        self.degraded.as_deref()
    }

    /// Routes one arrival. Key-partitioned arrivals go to their hash-home
    /// shard — unless the skew router has the key hot, in which case the
    /// store side replicates to every shard and the probe side goes to
    /// one. Broadcast-mode arrivals partition the dominant stream and
    /// replicate the rest. For tuple-based windows, arrivals a shard does
    /// not receive are recorded as pending expiry ticks, delivered as a
    /// coalesced summary ahead of that shard's next delivery. Channel
    /// errors surface at [`ShardedJoinEngine::finish`], where the worker's
    /// panic is reported.
    ///
    /// With a disorder bound configured, the coordinator's event-time
    /// front end runs *before* minting and routing: arrivals buffer until
    /// the watermark proves them safe, release in `(ts, admission)` order,
    /// and late-drop (counted, never routed, never a panic) once beyond
    /// the bound. Routing therefore always observes a monotone timestamp
    /// sequence — which also re-anchors the skew router's time-window
    /// fan-out gate (`now ≥ promote_ts + p`) on the watermark clock, where
    /// its expiry reasoning is sound even for disordered inputs.
    pub fn ingest(&mut self, arrival: Arrival) {
        let Some(front) = self.front.as_mut() else {
            self.route_arrival(arrival);
            return;
        };
        let Some(wm) = front.give(arrival) else {
            return;
        };
        while let Some(arrival) = self.front.as_mut().and_then(|f| f.release_below(wm)) {
            self.route_arrival(arrival);
        }
    }

    /// Mints and routes one arrival (the pre-event-time `ingest` body).
    fn route_arrival(&mut self, arrival: Arrival) {
        let stream = arrival.stream;
        let seq = self.next_seq;
        self.next_seq = seq.next();
        let tuple = Tuple::new(stream, arrival.ts, seq, arrival.values);
        if self.broadcast.is_some() {
            self.ingest_broadcast(tuple);
            return;
        }
        if self.shards == 1 {
            self.routed[0] += 1;
            self.push(0, Item::Tuple(tuple));
            return;
        }
        let key_attrs = self.key_attrs.as_ref().expect("multi-shard implies keys");
        let key = tuple.values[key_attrs[stream.index()]].raw();
        let home = (splitmix64(key) % self.shards as u64) as usize;
        let placement = match self.skew.as_mut() {
            Some(skew) => skew.place(key, stream, tuple.ts, home),
            None => Placement::Cold { home },
        };
        match placement {
            Placement::Cold { home } => self.deliver_cold(home, tuple),
            Placement::Hot { probe } => self.deliver_hot(probe, tuple),
        }
    }

    /// Classic single-shard delivery: the tuple to `home`, pending expiry
    /// ticks to every other shard.
    fn deliver_cold(&mut self, home: usize, tuple: Tuple) {
        self.routed[home] += 1;
        if self.needs_ticks {
            let s = tuple.stream.index();
            for shard in 0..self.shards {
                if shard != home {
                    self.pending_ticks[shard * self.n_streams + s] += 1;
                    self.pending_any[shard] = true;
                }
            }
            if self.pending_any[home] {
                self.flush_pending_ticks(home);
            }
        }
        self.push(home, Item::Tuple(tuple));
    }

    /// Hot-key delivery: the one FULL (probing) delivery to `probe`, a
    /// store replica to every other shard. Each shard receives a delivery
    /// — storing advances its own expiry counters — so the arrival queues
    /// no ticks; but older pending ticks flush to *every* shard first so
    /// each copy lands at the arrival's global expiry position.
    fn deliver_hot(&mut self, probe: usize, tuple: Tuple) {
        self.routed[probe] += 1;
        if self.needs_ticks {
            for shard in 0..self.shards {
                if self.pending_any[shard] {
                    self.flush_pending_ticks(shard);
                }
            }
        }
        for shard in 0..self.shards {
            if shard != probe {
                self.push(shard, Item::Replica(tuple.clone()));
            }
        }
        self.push(probe, Item::Tuple(tuple));
    }

    /// Broadcast-mode delivery: dominant-stream arrivals partition
    /// round-robin (with expiry ticks to the shards that miss them, like
    /// hash mode); every other stream is stored *and probed* on all
    /// shards, with one round-robin-designated FULL delivery carrying the
    /// arrival's `processed` accounting.
    fn ingest_broadcast(&mut self, tuple: Tuple) {
        let shards = self.shards as u64;
        let plan = self.broadcast.as_mut().expect("broadcast mode");
        if tuple.stream.index() == plan.dominant {
            let home = (plan.dominant_rr % shards) as usize;
            plan.dominant_rr += 1;
            self.deliver_cold(home, tuple);
            return;
        }
        let full = (plan.broadcast_rr % shards) as usize;
        plan.broadcast_rr += 1;
        self.routed[full] += 1;
        if self.needs_ticks {
            for shard in 0..self.shards {
                if self.pending_any[shard] {
                    self.flush_pending_ticks(shard);
                }
            }
        }
        for shard in 0..self.shards {
            if shard != full {
                self.push(shard, Item::ProbeReplica(tuple.clone()));
            }
        }
        self.push(full, Item::Tuple(tuple));
    }

    /// Drains `shard`'s pending tick counters into [`Item::Ticks`]
    /// summaries on its batch buffer (chunked [`TICK_LANES`] streams at a
    /// time; counts above `u32::MAX` chain extra blocks).
    fn flush_pending_ticks(&mut self, shard: usize) {
        for base in (0..self.n_streams).step_by(TICK_LANES) {
            let n = TICK_LANES.min(self.n_streams - base);
            loop {
                let mut block = TickBlock {
                    base: base as u8,
                    n: n as u8,
                    counts: [0; TICK_LANES],
                };
                let mut any = false;
                for lane in 0..n {
                    let slot = &mut self.pending_ticks[shard * self.n_streams + base + lane];
                    let take = (*slot).min(u32::MAX as u64);
                    if take > 0 {
                        block.counts[lane] = take as u32;
                        *slot -= take;
                        any = true;
                    }
                }
                if !any {
                    break;
                }
                self.push(shard, Item::Ticks(block));
            }
        }
        self.pending_any[shard] = false;
    }

    fn push(&mut self, shard: usize, item: Item) {
        self.buffers[shard].push(item);
        if self.buffers[shard].len() >= self.batch_size {
            self.flush(shard);
        }
    }

    /// Takes a recycled batch buffer off `shard`'s return channel, falling
    /// back to a fresh allocation only when every buffer is still in
    /// flight (startup, or a worker busy draining).
    fn recycled_buffer(&mut self, shard: usize) -> Vec<Item> {
        self.returns[shard]
            .try_recv()
            .unwrap_or_else(|_| Vec::with_capacity(self.batch_size))
    }

    fn flush(&mut self, shard: usize) {
        if self.buffers[shard].is_empty() {
            return;
        }
        // `Vec::new()` is allocation-free; the slot is refilled below with
        // either a recycled buffer or (under Shed) the rejected batch.
        let batch = std::mem::take(&mut self.buffers[shard]);
        match self.backpressure {
            Backpressure::Block => {
                if self.senders[shard].send(batch).is_err() {
                    // The worker died; its panic is reported by `finish`.
                }
                self.buffers[shard] = self.recycled_buffer(shard);
            }
            Backpressure::Shed => match self.senders[shard].try_send(batch) {
                Ok(()) => self.buffers[shard] = self.recycled_buffer(shard),
                Err(err) => {
                    let mut batch = err.into_inner();
                    self.account_rejected(shard, &batch);
                    // The rejected batch's allocation becomes the shard's
                    // next buffer — shedding allocates nothing either.
                    batch.clear();
                    self.buffers[shard] = batch;
                }
            },
        }
    }

    /// Books a batch the full channel rejected: tuples count as
    /// channel-shed, but tick summaries are pure counters and are
    /// re-queued as pending so a full channel never silently skews
    /// tuple-window expiry. A shed tuple also re-queues as a tick for its
    /// own shard — `ingest` already ticked every *other* shard for that
    /// arrival, so the home shard must count it too or its tuple windows
    /// would expire late and emit rows no unshedded run produces. The
    /// rejected batch is the newest traffic for this shard, so the counts
    /// re-merge in order.
    fn account_rejected(&mut self, shard: usize, batch: &[Item]) {
        for item in batch {
            match item {
                Item::Tuple(tuple) => {
                    self.shed_channel += 1;
                    if self.needs_ticks {
                        self.pending_ticks[shard * self.n_streams + tuple.stream.index()] += 1;
                        self.pending_any[shard] = true;
                    }
                }
                // A dropped replica is not channel shedding — the arrival
                // is still fully processed by its FULL delivery elsewhere.
                // But this shard missed a counter-advancing store, so the
                // arrival re-queues as a tick to keep its expiry exact.
                Item::Replica(tuple) | Item::ProbeReplica(tuple) => {
                    if self.needs_ticks {
                        self.pending_ticks[shard * self.n_streams + tuple.stream.index()] += 1;
                        self.pending_any[shard] = true;
                    }
                }
                Item::Ticks(block) => {
                    for lane in 0..block.n as usize {
                        let count = block.counts[lane];
                        if count > 0 {
                            let stream = block.base as usize + lane;
                            self.pending_ticks[shard * self.n_streams + stream] += count as u64;
                            self.pending_any[shard] = true;
                        }
                    }
                }
            }
        }
    }

    /// Flushes the remaining batches, waits for every worker, and merges
    /// their metrics (and rows, when collected) into one report.
    ///
    /// Fails with [`Error::Shard`] if any worker panicked — under the
    /// `audit` feature workers check engine invariants after every tuple.
    pub fn finish(mut self) -> Result<ShardedRunReport> {
        // Drain the reorder stage first: end of trace, so every
        // still-buffered arrival releases regardless of the watermark
        // (no-op without a disorder bound).
        while let Some(arrival) = self.front.as_mut().and_then(ReorderStage::drain) {
            self.route_arrival(arrival);
        }
        for shard in 0..self.shards {
            // Trailing ticks (arrivals after a shard's last tuple) cannot
            // change its output, but delivering them keeps the final
            // arrival counters exact on every shard.
            if self.needs_ticks && self.pending_any[shard] {
                self.flush_pending_ticks(shard);
            }
            self.flush(shard);
        }
        self.senders.clear(); // Dropping the senders ends the worker loops.
        let handles = std::mem::take(&mut self.handles);
        let mut combined = EngineMetrics::default();
        let mut per_shard = Vec::with_capacity(self.shards);
        let mut resident = Vec::with_capacity(self.shards);
        let mut worker_rows = self.collect_rows.then(Vec::new);
        let mut end_time = VTime::ZERO;
        let mut failure: Option<Error> = None;
        for (i, handle) in handles.into_iter().enumerate() {
            match handle.join() {
                Ok(out) => {
                    combined.merge(&out.metrics);
                    per_shard.push(out.metrics);
                    resident.push(out.resident);
                    if let (Some(all), Some(r)) = (worker_rows.as_mut(), out.rows) {
                        all.push(r);
                    }
                    end_time = end_time.max(out.end_time);
                }
                Err(panic) => {
                    failure.get_or_insert(Error::Shard(format!(
                        "worker {i} panicked: {}",
                        panic_message(&panic)
                    )));
                }
            }
        }
        if let Some(err) = failure {
            return Err(err);
        }
        // Coordinator-side late drops happen before routing, so no worker
        // ever saw them; fold them into the combined counters here.
        combined.late_dropped += self.front.as_ref().map_or(0, |f| f.dropped);
        // Seq-stamped merge: per-stream arrival sequence numbers are
        // global (coordinator-minted), so this canonical order is directly
        // comparable across shard counts and to the single-engine oracle.
        // Each worker pre-sorted its rows, so this is a k-way interleave.
        let rows = worker_rows.map(merge_sorted_rows);
        let combined = RunReport {
            metrics: combined,
            end_time,
            wall_time: self.started.elapsed(),
            shards: self.shards,
            degraded: self.degraded.clone(),
            ..Default::default()
        };
        Ok(ShardedRunReport {
            combined,
            per_shard,
            shed_channel: self.shed_channel,
            routed: self.routed,
            resident,
            hot_promoted: self.skew.as_ref().map_or(0, |s| s.promoted),
            broadcast: self.broadcast.is_some(),
            rows,
        })
    }

    /// Convenience driver: feeds `trace` at `arrival_rate` tuples/second
    /// on the same virtual-time schedule as [`crate::sim::run_trace`],
    /// then finishes. Cloning `item.values` is a plain copy for inline
    /// arities (≤ [`mstream_types::ROW_INLINE`]), so replaying a trace
    /// allocates nothing per arrival.
    pub fn run_trace(mut self, trace: &Trace, arrival_rate: f64) -> Result<ShardedRunReport> {
        let dt = VDur::from_rate(arrival_rate);
        for (i, item) in trace.items.iter().enumerate() {
            let now = VTime::ZERO + dt.mul(i as u64);
            self.ingest(Arrival::new(item.stream, item.values.clone(), now));
        }
        self.finish()
    }
}

/// Compares result rows by their per-stream sequence numbers, the
/// canonical output order. Keys are unique (each join combination is
/// emitted exactly once, on exactly one shard), so unstable sorting and
/// arbitrary merge tie-breaks reproduce one well-defined order.
pub(crate) fn row_seq_cmp(a: &[Tuple], b: &[Tuple]) -> Ordering {
    a.iter().map(|t| t.seq).cmp(b.iter().map(|t| t.seq))
}

/// K-way merges per-worker row lists, each already sorted by
/// [`row_seq_cmp`], into one sorted list without per-row key allocation.
fn merge_sorted_rows(mut per_worker: Vec<Vec<Vec<Tuple>>>) -> Vec<Vec<Tuple>> {
    per_worker.retain(|rows| !rows.is_empty());
    if per_worker.len() <= 1 {
        return per_worker.pop().unwrap_or_default();
    }
    let total = per_worker.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    for rows in &mut per_worker {
        rows.reverse(); // Next-smallest row is now an O(1) pop from the back.
    }
    while !per_worker.is_empty() {
        let mut best = 0;
        for i in 1..per_worker.len() {
            let candidate = per_worker[i].last().expect("empty lists are removed");
            let current = per_worker[best].last().expect("empty lists are removed");
            if row_seq_cmp(candidate, current) == Ordering::Less {
                best = i;
            }
        }
        out.push(per_worker[best].pop().expect("best list is non-empty"));
        if per_worker[best].is_empty() {
            per_worker.swap_remove(best);
        }
    }
    out
}

#[derive(Clone, Copy)]
struct WorkerMode {
    collect_rows: bool,
    route_only: bool,
}

fn worker_loop(
    mut engine: MultiQueryEngine,
    rx: Receiver<Vec<Item>>,
    ret_tx: Sender<Vec<Item>>,
    mode: WorkerMode,
) -> WorkerOut {
    let mut vec_sink = VecSink::default();
    let mut count_sink = CountSink::default();
    let mut end_time = VTime::ZERO;
    while let Ok(mut batch) = rx.recv() {
        if mode.route_only {
            batch.clear();
        } else {
            for item in batch.drain(..) {
                match item {
                    Item::Ticks(block) => {
                        for lane in 0..block.n as usize {
                            let count = block.counts[lane];
                            if count > 0 {
                                let stream = StreamId(block.base as usize + lane);
                                engine.note_foreign_arrivals(stream, count as u64);
                            }
                        }
                    }
                    item => {
                        let (tuple, role) = match item {
                            Item::Tuple(t) => (t, IngestRole::FULL),
                            Item::Replica(t) => (t, IngestRole::STORE_REPLICA),
                            Item::ProbeReplica(t) => (t, IngestRole::PROBE_REPLICA),
                            Item::Ticks(_) => unreachable!("handled above"),
                        };
                        let now = tuple.ts;
                        end_time = end_time.max(now);
                        if mode.collect_rows {
                            engine.ingest_tuple_as(tuple, now, &mut vec_sink, role);
                        } else {
                            engine.ingest_tuple_as(tuple, now, &mut count_sink, role);
                        }
                        #[cfg(feature = "audit")]
                        engine.check_invariants();
                    }
                }
            }
        }
        // Hand the drained allocation back for reuse. The return channel
        // is sized to hold every in-flight buffer, so a failure only
        // means the coordinator is gone — then the buffer just drops.
        let _ = ret_tx.try_send(batch);
    }
    let rows = mode.collect_rows.then(|| {
        let mut rows = vec_sink.rows;
        rows.sort_unstable_by(|a, b| row_seq_cmp(a, b));
        rows
    });
    WorkerOut {
        resident: engine.total_resident(),
        metrics: engine.metrics().clone(),
        rows,
        end_time,
    }
}

/// Splits a total memory budget evenly across `shards` workers (each
/// window keeps at least one slot).
pub(crate) fn split_memory(memory: &MemoryMode, shards: usize) -> MemoryMode {
    if shards <= 1 {
        return memory.clone();
    }
    match memory {
        MemoryMode::PerWindow(c) => MemoryMode::PerWindow((c / shards).max(1)),
        MemoryMode::PerWindowEach(cs) => {
            MemoryMode::PerWindowEach(cs.iter().map(|c| (c / shards).max(1)).collect())
        }
        MemoryMode::GlobalPool(total) => MemoryMode::GlobalPool((total / shards).max(1)),
    }
}

/// Per-shard memory for broadcast mode: broadcast streams keep their
/// *full* window allocation on every shard (their windows are replicated
/// — total memory for those streams is window memory × S, the documented
/// price of sharing the build side), while the dominant stream's window
/// divides by S (each shard holds one partition of it). A global pool
/// stays whole per shard for the same reason: most of its occupancy is
/// replicated broadcast state.
fn broadcast_memory(
    memory: &MemoryMode,
    shards: usize,
    dominant: usize,
    n_streams: usize,
) -> MemoryMode {
    if shards <= 1 {
        return memory.clone();
    }
    let split = |c: usize, s: usize| {
        if s == dominant {
            (c / shards).max(1)
        } else {
            c
        }
    };
    match memory {
        MemoryMode::PerWindow(c) => {
            MemoryMode::PerWindowEach((0..n_streams).map(|s| split(*c, s)).collect())
        }
        MemoryMode::PerWindowEach(cs) => {
            MemoryMode::PerWindowEach(cs.iter().enumerate().map(|(s, c)| split(*c, s)).collect())
        }
        MemoryMode::GlobalPool(total) => MemoryMode::GlobalPool(*total),
    }
}

/// Splits the estimation budget the way [`split_memory`] splits the
/// window budget: per-shard banks keep the full median structure (`s2`
/// groups) but average `s1/S` copies per group (floor 1), so the total
/// sketch memory stays constant as shards are added. Each shard estimates
/// only its own key partition — a strictly smaller join — so the divided
/// budget funds `S` independent, narrower estimators instead of `S`
/// replicas of the full-width one. A 1-shard run keeps the master bank
/// untouched (bit-identical to the single engine).
pub(crate) fn split_bank(bank: &BankConfig, shards: usize) -> BankConfig {
    if shards <= 1 {
        return *bank;
    }
    BankConfig {
        s1: (bank.s1 / shards).max(1),
        ..*bank
    }
}

pub(crate) fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_bank_divides_means_keeps_median_groups() {
        let bank = BankConfig {
            s1: 1000,
            s2: 3,
            seed: 9,
        };
        assert_eq!(split_bank(&bank, 1), bank, "S=1 keeps the master bank");
        let quarter = split_bank(&bank, 4);
        assert_eq!(quarter.s1, 250);
        assert_eq!(quarter.s2, 3, "median robustness is not divided");
        assert_eq!(quarter.seed, 9, "sign families stay seed-stable");
        assert_eq!(split_bank(&bank, 4000).s1, 1, "floor of one copy");
    }

    #[test]
    fn split_memory_is_even_with_floor_of_one() {
        assert_eq!(
            split_memory(&MemoryMode::PerWindow(64), 4),
            MemoryMode::PerWindow(16)
        );
        assert_eq!(
            split_memory(&MemoryMode::PerWindow(2), 8),
            MemoryMode::PerWindow(1)
        );
        assert_eq!(
            split_memory(&MemoryMode::PerWindowEach(vec![8, 4]), 2),
            MemoryMode::PerWindowEach(vec![4, 2])
        );
        assert_eq!(
            split_memory(&MemoryMode::GlobalPool(100), 3),
            MemoryMode::GlobalPool(33)
        );
        // A single shard keeps the budget untouched.
        assert_eq!(
            split_memory(&MemoryMode::GlobalPool(100), 1),
            MemoryMode::GlobalPool(100)
        );
    }

    #[test]
    fn splitmix_spreads_small_domains() {
        // Join keys live in tiny discretized domains; the router must not
        // collapse them onto one shard.
        let shards = 4u64;
        let hit: std::collections::HashSet<u64> =
            (0..16u64).map(|v| splitmix64(v) % shards).collect();
        assert!(hit.len() >= 3, "16 keys should reach >= 3 of 4 shards");
    }

    #[test]
    fn splitmix_is_stable() {
        // Routing (and thus sharded replay) depends on these exact values.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(1), 0x910A_2DEC_8902_5CC1);
    }

    fn row(seqs: &[u64]) -> Vec<Tuple> {
        seqs.iter()
            .enumerate()
            .map(|(k, &s)| Tuple::new(StreamId(k), VTime::ZERO, SeqNo(s), mstream_types::Row::new()))
            .collect()
    }

    fn seqs(rows: &[Vec<Tuple>]) -> Vec<Vec<u64>> {
        rows.iter()
            .map(|r| r.iter().map(|t| t.seq.0).collect())
            .collect()
    }

    #[test]
    fn merge_interleaves_sorted_worker_lists() {
        let a = vec![row(&[0, 1]), row(&[2, 5]), row(&[9, 0])];
        let b = vec![row(&[1, 7]), row(&[3, 3])];
        let c = vec![];
        let merged = merge_sorted_rows(vec![a, b, c]);
        assert_eq!(
            seqs(&merged),
            vec![
                vec![0, 1],
                vec![1, 7],
                vec![2, 5],
                vec![3, 3],
                vec![9, 0]
            ]
        );
    }

    #[test]
    fn merge_matches_global_sort_on_shuffled_input() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        // Unique 2-seq keys split across 4 "workers", each locally sorted.
        let mut keys: Vec<[u64; 2]> = (0..200u64).map(|i| [i / 20, i % 20]).collect();
        for i in (1..keys.len()).rev() {
            keys.swap(i, rng.gen_range(0..=i));
        }
        let mut workers: Vec<Vec<Vec<Tuple>>> = (0..4).map(|_| Vec::new()).collect();
        for (i, k) in keys.iter().enumerate() {
            workers[i % 4].push(row(&k[..]));
        }
        for w in &mut workers {
            w.sort_unstable_by(|a, b| row_seq_cmp(a, b));
        }
        let mut expect: Vec<Vec<Tuple>> = workers.iter().flatten().cloned().collect();
        expect.sort_by_key(|r| r.iter().map(|t| t.seq).collect::<Vec<_>>());
        let merged = merge_sorted_rows(workers);
        assert_eq!(seqs(&merged), seqs(&expect));
    }

    #[test]
    fn tick_blocks_chunk_wide_schemas() {
        // 10 streams -> lanes split across two blocks at the chunk size.
        assert_eq!(TICK_LANES, 8, "chunking tests assume 8 lanes");
        let bases: Vec<usize> = (0..10).step_by(TICK_LANES).collect();
        assert_eq!(bases, vec![0, 8]);
    }

    /// A full channel must count rejected tuples as channel-shed but give
    /// rejected tick summaries back to the pending counters — dropping
    /// them would silently skew tuple-window expiry on the starved shard.
    #[test]
    fn rejected_batches_requeue_tick_summaries() {
        use mstream_types::{Catalog, JoinQuery, WindowSpec};
        let mut c = Catalog::new();
        c.add_stream(mstream_types::StreamSchema::new("R1", &["A1"]));
        c.add_stream(mstream_types::StreamSchema::new("R2", &["A1"]));
        let query = JoinQuery::from_names(
            c,
            &[("R1.A1", "R2.A1")],
            WindowSpec::Tuples(4),
        )
        .unwrap();
        let mut engine = ShardedJoinEngine::new(
            query,
            mstream_shed_policies::Fifo.clone_box(),
            EngineConfig::default(),
            ShardConfig {
                shards: 2,
                backpressure: Backpressure::Shed,
                ..ShardConfig::default()
            },
        )
        .unwrap();
        let batch = vec![
            Item::Ticks(TickBlock {
                base: 0,
                n: 2,
                counts: {
                    let mut c = [0u32; TICK_LANES];
                    c[0] = 3;
                    c[1] = 1;
                    c
                },
            }),
            Item::Tuple(Tuple::new(
                StreamId(0),
                VTime::ZERO,
                SeqNo(0),
                mstream_types::Row::new(),
            )),
            Item::Tuple(Tuple::new(
                StreamId(1),
                VTime::ZERO,
                SeqNo(1),
                mstream_types::Row::new(),
            )),
        ];
        engine.account_rejected(1, &batch);
        assert_eq!(engine.shed_channel, 2, "only tuples count as shed");
        // Tick summary counts re-merge, and each shed tuple ticks its own
        // shard (the other shards were already ticked at ingest).
        assert_eq!(engine.pending_ticks[1 * 2 + 0], 3 + 1, "stream 0 re-queued");
        assert_eq!(engine.pending_ticks[1 * 2 + 1], 1 + 1, "stream 1 re-queued");
        assert_eq!(engine.pending_ticks[0], 0, "other shard untouched");
        assert!(engine.pending_any[1], "re-queued counts marked dirty");
        assert!(!engine.pending_any[0]);
        // Re-queued counts drain into the next summary for that shard.
        engine.flush_pending_ticks(1);
        assert_eq!(engine.pending_ticks[1 * 2 + 0], 0);
        assert!(!engine.pending_any[1]);
        engine.finish().unwrap();
    }

    fn two_stream_query(window: WindowSpec) -> mstream_types::JoinQuery {
        use mstream_types::{Catalog, JoinQuery, StreamSchema};
        let mut c = Catalog::new();
        c.add_stream(StreamSchema::new("R1", &["A1"]));
        c.add_stream(StreamSchema::new("R2", &["A1"]));
        JoinQuery::from_names(c, &[("R1.A1", "R2.A1")], window).unwrap()
    }

    /// A cumulative 60%-share key must promote at the first epoch
    /// boundary; its probes stay pinned to the hash home until the
    /// tuple-window gate opens, then round-robin across shards; and once
    /// the key's share decays below the demote threshold it returns to
    /// hash routing.
    #[test]
    fn skew_router_promotes_gates_round_robins_and_demotes() {
        let query = two_stream_query(WindowSpec::Tuples(4));
        let cfg = HotKeyConfig {
            enabled: true,
            capacity: 4,
            tracker_capacity: 64,
            epoch_arrivals: 8,
            promote_permille: 300,
            demote_permille: 150,
        };
        let shards = 4;
        let mut router = SkewRouter::new(&query, &cfg, shards);
        let home = |k: u64| (splitmix64(k) % shards as u64) as usize;

        // First epoch: key 7 on every arrival, alternating streams. The
        // epoch boundary fires inside the 8th `place` call, before that
        // arrival's own routing decision.
        for i in 0..7u64 {
            let p = router.place(7, StreamId((i % 2) as usize), VTime::from_secs(i), home(7));
            assert!(
                matches!(p, Placement::Cold { .. }),
                "not yet promoted mid-epoch"
            );
        }
        let p = router.place(7, StreamId(1), VTime::from_secs(7), home(7));
        assert!(matches!(p, Placement::Hot { .. }), "promoted at the epoch");
        assert_eq!(router.promoted, 1, "epoch boundary promotes the 100% key");

        // Gate: tuple windows need c + 1 = 5 further arrivals per stream
        // since the snapshot; until then probes pin to the hash home.
        let mut placements = Vec::new();
        for i in 8..28u64 {
            match router.place(7, StreamId((i % 2) as usize), VTime::from_secs(i), home(7)) {
                Placement::Hot { probe } => placements.push(probe),
                Placement::Cold { .. } => panic!("hot key must place as Hot"),
            }
        }
        assert!(
            placements[..8].iter().all(|&p| p == home(7)),
            "gate must pin early probes to the home shard: {placements:?}"
        );
        let spread: std::collections::HashSet<usize> = placements[10..].iter().copied().collect();
        assert_eq!(spread.len(), shards, "open gate round-robins all shards");

        // Decay: flood with cold keys until key 7's share falls under the
        // demote threshold, then check it hash-routes again.
        for i in 0..400u64 {
            router.place(1000 + i, StreamId(0), VTime::from_secs(40), home(1000 + i));
        }
        assert!(
            matches!(
                router.place(7, StreamId(0), VTime::from_secs(41), home(7)),
                Placement::Cold { .. }
            ),
            "decayed key must demote back to hash routing"
        );
        assert!(router.slots.iter().all(|s| !s.active || s.key != 7));
    }

    /// Same-seed replay determinism of the router itself: identical
    /// arrival sequences must yield identical placement sequences.
    #[test]
    fn skew_router_is_deterministic() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let query = two_stream_query(WindowSpec::Tuples(6));
        let cfg = HotKeyConfig {
            enabled: true,
            capacity: 4,
            tracker_capacity: 32,
            epoch_arrivals: 16,
            promote_permille: 250,
            demote_permille: 125,
        };
        let run = || {
            let mut router = SkewRouter::new(&query, &cfg, 4);
            let mut rng = StdRng::seed_from_u64(3);
            let mut out = Vec::new();
            for i in 0..600u64 {
                let key = if rng.gen_bool(0.5) { 0 } else { rng.gen_range(1..20) };
                let home = (splitmix64(key) % 4) as usize;
                let p = router.place(key, StreamId((i % 2) as usize), VTime::from_secs(i / 4), home);
                out.push(match p {
                    Placement::Cold { home } => (0, home),
                    Placement::Hot { probe } => (1, probe),
                });
            }
            (out, router.promoted)
        };
        assert_eq!(run(), run());
    }

    /// The time-window gate anchors on the promotion timestamp: closed
    /// strictly before `promote_ts + p`, open at it — and a window that
    /// never closes never opens it (the deadline saturates; a wrapping sum
    /// lands just before `promote_ts` and opens the gate at once).
    #[test]
    fn time_window_gate_opens_exactly_at_promote_ts_plus_window() {
        let slot = HotSlot {
            key: 1,
            active: true,
            rr: 0,
            home: 0,
            promote_ts: VTime::from_secs(10),
            snapshot: vec![0, 0],
            gate_open: false,
        };
        let p = VDur::from_secs(30);
        let counts = [None, None];
        assert!(!gate_opens(&slot, &[9, 9], &counts, Some(p), VTime::from_secs(39)));
        assert!(gate_opens(&slot, &[0, 0], &counts, Some(p), VTime::from_secs(40)));
        let forever = Some(VDur::from_micros(u64::MAX));
        for now in [VTime::from_secs(10), VTime::from_secs(1 << 40), VTime::from_micros(u64::MAX - 1)] {
            assert!(!gate_opens(&slot, &[0, 0], &counts, forever, now), "{now:?}");
        }
    }

    /// The tuple-window gate demands `c + 1` arrivals past the snapshot on
    /// every tuple-windowed stream (the extra one absorbs the arriving
    /// tuple's own not-yet-counted position).
    #[test]
    fn tuple_window_gate_needs_full_window_turnover_per_stream() {
        let slot = HotSlot {
            key: 1,
            active: true,
            rr: 0,
            home: 0,
            promote_ts: VTime::ZERO,
            snapshot: vec![10, 20],
            gate_open: false,
        };
        let counts = [Some(4), Some(4)];
        assert!(!gate_opens(&slot, &[15, 24], &counts, None, VTime::ZERO));
        assert!(!gate_opens(&slot, &[14, 25], &counts, None, VTime::ZERO));
        assert!(gate_opens(&slot, &[15, 25], &counts, None, VTime::ZERO));
    }

    /// The dominant stream is the one with the most incident predicates
    /// (it is partitioned; everything else broadcasts), ties to the
    /// lowest index.
    #[test]
    fn dominant_stream_picks_most_incident_predicates() {
        use mstream_types::{Catalog, JoinQuery, StreamSchema};
        let mut c = Catalog::new();
        c.add_stream(StreamSchema::new("R1", &["A1", "A2"]));
        c.add_stream(StreamSchema::new("R2", &["A1", "A2"]));
        c.add_stream(StreamSchema::new("R3", &["A1"]));
        // Chain through R2: R2 has two incident predicates, R1/R3 one.
        let chain = JoinQuery::from_names(
            c.clone(),
            &[("R1.A1", "R2.A1"), ("R2.A2", "R3.A1")],
            WindowSpec::secs(10),
        )
        .unwrap();
        assert_eq!(dominant_stream(&chain), 1);
        // A symmetric pair ties; the lowest stream index wins.
        let mut c2 = Catalog::new();
        c2.add_stream(StreamSchema::new("L", &["k"]));
        c2.add_stream(StreamSchema::new("R", &["k"]));
        let pair =
            JoinQuery::from_names(c2, &[("L.k", "R.k")], WindowSpec::secs(10)).unwrap();
        assert_eq!(dominant_stream(&pair), 0);
    }

    /// Broadcast memory: broadcast streams keep their full window on every
    /// shard (replicated build sides), the dominant stream divides by S,
    /// and a global pool stays whole per shard.
    #[test]
    fn broadcast_memory_replicates_broadcast_windows() {
        assert_eq!(
            broadcast_memory(&MemoryMode::PerWindow(64), 4, 1, 3),
            MemoryMode::PerWindowEach(vec![64, 16, 64])
        );
        assert_eq!(
            broadcast_memory(&MemoryMode::PerWindowEach(vec![8, 12, 6]), 2, 0, 3),
            MemoryMode::PerWindowEach(vec![4, 12, 6])
        );
        assert_eq!(
            broadcast_memory(&MemoryMode::GlobalPool(100), 4, 0, 2),
            MemoryMode::GlobalPool(100)
        );
        // A single shard keeps the budget untouched.
        assert_eq!(
            broadcast_memory(&MemoryMode::PerWindow(64), 1, 0, 2),
            MemoryMode::PerWindow(64)
        );
    }
}
