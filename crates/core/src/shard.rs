//! Hash-partitioned parallel execution of the shedding join, for one
//! standing query or a set of them (DESIGN.md §9).
//!
//! [`ShardedJoinEngine`] runs one [`MultiQueryEngine`] per worker thread
//! over the whole registered set and routes each arrival **once**: every
//! query interested in it is served on the shard that receives it, from
//! that worker's shared stores, so routing cost does not grow with the
//! number of queries. One routing plan is computed from the set:
//!
//! * **By key.** Every query is key-partitionable
//!   ([`JoinQuery::partitioning`]) and all of them agree on the partition
//!   attribute of every global stream they share: arrivals are
//!   hash-partitioned by that attribute's value across `S` workers, each
//!   with `1/S` of the memory and sketch budgets. Every arrival goes to its
//!   hash-home shard and nowhere else, however skewed the keys (DESIGN.md
//!   §12 says why hot keys are not split). Two tuples with different keys
//!   never join, so at full memory the merged output equals the in-process
//!   output exactly; under shedding each shard shrinks its own partition.
//! * **On one shard.** Any other set — one query or many — runs on one
//!   worker, with the reason on the [`RunReport`]. A one-shard run keeps
//!   the master seed and budgets, so it is bit-identical to the in-process
//!   plane.
//!
//! ## Data plane
//!
//! The coordinator writes routed arrivals straight into per-shard batches
//! of flat word records (`Vec<u64>`) and sends full batches over bounded
//! channels, blocking while a worker's channel is full. A tuple record is
//! a header word (record kind, global stream, arity) followed by `ts`,
//! `seq` and the raw values, so a keyed arity-2 arrival is 5 words; a tick summary is one record of
//! `(stream, count)` pairs. Batch buffers are *recycled*: each worker
//! decodes a batch into the tuples it ingests and sends the emptied
//! allocation back on a per-worker return channel, so steady-state ingest
//! of rows of arity ≤ [`mstream_types::ROW_INLINE`] touches the heap zero
//! times.
//!
//! ## Tuple-based windows
//!
//! Tuple-count windows expire by *arrivals seen on the stream*, which a
//! shard only partially observes. The coordinator accumulates the arrivals
//! routed elsewhere as per-shard pending tick counters and writes them as
//! one coalesced tick summary immediately before the next tuple delivered
//! to that shard, in the same batch. Ticks only advance each stream's
//! arrival counter ([`MultiQueryEngine::note_foreign_arrivals`]) and
//! expiry is evaluated when the *next stored tuple* is processed, so a
//! summary applied just before that tuple is observationally identical to
//! the per-arrival interleaving. Time-based windows need no ticks.
//!
//! ## Runtime registration
//!
//! [`ShardedJoinEngine::add_query`] / [`ShardedJoinEngine::remove_query`]
//! travel the data channel as `Msg::Add` / `Msg::Remove`, right after the
//! shard's flushed batch (tick summary included), so every worker applies
//! a registration at the same point of its routed sub-trace: a query added
//! mid-run sees, on every shard, exactly the tuples routed after it, and
//! its tuple windows count no earlier arrival. There is no online
//! re-partitioning: an added query that does not fit the running key plan
//! is rejected.
//!
//! ## Determinism
//!
//! The coordinator mints globally-ordered sequence numbers, routes by a
//! fixed hash of the key value, and derives each worker's engine seed from
//! the master seed — so a run is a pure function of (queries, policy,
//! config, trace, registration schedule). Nothing is dropped at the
//! channels, so replays are exact.

use crate::builder::BuildError;
use crate::engine::{EngineConfig, ReorderStage};
use crate::ingest::{Arrival, CountSink, QueryRowsSink};
use crate::multi::{merge_into_catalog, MultiQueryEngine, QueryStats};
use crate::report::{EngineMetrics, RunReport};
use crate::shed::ShedPolicy;
use crate::sketch::BankConfig;
use crossbeam::channel::{bounded, Receiver, Sender};
use mstream_types::{
    splitmix64, Catalog, Error, JoinQuery, Partitioning, QueryId, Result, Row, SeqNo, StreamId,
    Tuple, VTime, WindowSpec,
};
use mstream_workload::Trace;
use std::cmp::Ordering;
use std::thread::JoinHandle;
use std::time::Instant;

/// Ignored: the coordinator always waits for a worker whose channel is
/// full. Kept so `benchmark/` builds until its next change.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backpressure {
    /// The only behavior.
    #[default]
    Block,
}

/// Ignored: key-partitioned runs never split hot keys (DESIGN.md §12).
/// Kept, with its fields, so `benchmark/` builds until its next change.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HotKeyConfig {
    /// Ignored.
    pub enabled: bool,
    /// Ignored.
    pub capacity: usize,
    /// Ignored.
    pub tracker_capacity: usize,
    /// Ignored.
    pub epoch_arrivals: u64,
    /// Ignored.
    pub promote_permille: u32,
    /// Ignored.
    pub demote_permille: u32,
}

/// Tuning for sharded execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardConfig {
    /// Requested worker count (the engine may degrade to 1; see
    /// [`ShardedJoinEngine::degraded`]).
    pub shards: usize,
    /// Bounded channel depth per worker, in *batches*.
    pub channel_capacity: usize,
    /// Records buffered per worker before a batch is sent: tuple
    /// deliveries plus tick summaries. A registration sends the batch
    /// early.
    pub batch_size: usize,
    /// Ignored; kept so `benchmark/` builds until its next change.
    pub backpressure: Backpressure,
    /// Collect every join result row (owned tuples in stream order) for
    /// the merged report, per query. Needed for differential testing; off for
    /// throughput runs.
    pub collect_rows: bool,
    /// Diagnostic mode: workers drain and recycle batches without running
    /// the join, isolating the data-plane cost (mint + route + channel
    /// round-trip). Output counters stay zero; `tests/route_only_allocs.rs`
    /// holds its steady state to zero allocations and the benchmark times
    /// it as `shard.route_only_ns_per_arrival`.
    pub route_only: bool,
    /// Ignored; kept so `benchmark/` builds until its next change.
    pub hot_keys: HotKeyConfig,
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
    /// Per registered query id: produced/shed counters summed across
    /// shards (removed queries report zeros).
    pub stats: Vec<QueryStats>,
    /// Tuple deliveries the coordinator assigned to each shard — the
    /// router's probe-work balance. Exactly one per arrival.
    pub routed: Vec<u64>,
    /// Words of the record batches each shard's channel accepted: the
    /// bytes moved to a worker, over 8. Registrations are not counted.
    pub wire_words: Vec<u64>,
    /// Final resident tuples on each shard (per-shard window occupancy at
    /// the end of the run).
    pub resident: Vec<usize>,
    /// Always 0: hot keys are never split. Kept so `benchmark/` builds
    /// until its next change.
    pub hot_promoted: u64,
    /// Per query id, every result row (tuples in the query's local stream
    /// order), merged across shards and sorted by per-stream sequence
    /// numbers, when [`ShardConfig::collect_rows`] was set.
    pub rows: Option<Vec<Vec<Vec<Tuple>>>>,
}

// A batch is a run of records, each starting with a header word: the
// record kind in its low bit, a length (a tuple's arity, or a tick
// summary's pair count) in bits 1..32, and a tuple's global stream in bits
// 32..64. A tuple record continues with `ts` (µs), `seq` and the raw
// values; a tick summary with `(stream, count)` pairs.

/// A tuple's one delivery.
const TUPLE: u64 = 0;
/// Arrivals other shards are processing (advances tuple-window expiry
/// here); always ahead of the records that follow them.
const TICKS: u64 = 1;
const LEN_SHIFT: u32 = 1;
const STREAM_SHIFT: u32 = 32;
const LEN_MASK: u64 = (1 << (STREAM_SHIFT - LEN_SHIFT)) - 1;
/// Words of a tuple record ahead of its values: header, `ts`, `seq`.
const TUPLE_HEAD: usize = 3;

fn header(kind: u64, stream: usize, len: usize) -> u64 {
    debug_assert!(len as u64 <= LEN_MASK && (stream as u64) >> (64 - STREAM_SHIFT) == 0);
    kind | (len as u64) << LEN_SHIFT | (stream as u64) << STREAM_SHIFT
}

/// One record of a batch, borrowed from it.
#[derive(Debug, PartialEq)]
enum Record<'a> {
    /// A tuple delivery; `body` is `ts`, `seq` and the values.
    Tuple { stream: usize, body: &'a [u64] },
    /// Foreign-arrival counts as flat `(stream, count)` pairs.
    Ticks(&'a [u64]),
}

/// The records of `batch`, in order.
fn records(batch: &[u64]) -> impl Iterator<Item = Record<'_>> {
    let mut rest = batch;
    std::iter::from_fn(move || {
        let (&head, tail) = rest.split_first()?;
        let (kind, len) = (head & 1, (head >> LEN_SHIFT) & LEN_MASK);
        let words = if kind == TICKS { 2 * len } else { TUPLE_HEAD as u64 - 1 + len };
        let (body, next) = tail.split_at(words as usize);
        rest = next;
        Some(match kind {
            TICKS => Record::Ticks(body),
            _ => Record::Tuple {
                stream: (head >> STREAM_SHIFT) as usize,
                body,
            },
        })
    })
}

/// The `(stream, count)` pairs of a tick summary.
fn tick_pairs(pairs: &[u64]) -> impl Iterator<Item = (usize, u64)> + '_ {
    pairs.chunks_exact(2).map(|p| (p[0] as usize, p[1]))
}

/// The tuple a record's `body` carries on `stream`.
fn decode_tuple(stream: usize, body: &[u64]) -> Tuple {
    let values = Row::from_raw(&body[2..]);
    Tuple::new(StreamId(stream), VTime::from_micros(body[0]), SeqNo(body[1]), values)
}

/// One message on a worker channel.
#[derive(Clone)]
enum Msg {
    /// A batch of records.
    Batch(Vec<u64>),
    /// Register a standing query (every worker assigns it the same dense
    /// id).
    Add(Box<JoinQuery>),
    /// Deregister a query.
    Remove(QueryId),
}

struct WorkerOut {
    metrics: EngineMetrics,
    /// Per registered query id: the worker's counters (`None` once
    /// removed).
    stats: Vec<Option<QueryStats>>,
    /// Per query id, result rows sorted by per-stream seq on the worker
    /// thread, so the coordinator's merge is a k-way interleave, not a
    /// global sort.
    rows: Option<Vec<Vec<Vec<Tuple>>>>,
    end_time: VTime,
    /// Window occupancy at the end of the run.
    resident: usize,
}

/// Extends the key plan `key_of` (global stream → partition attribute)
/// with `query`'s streams — its local stream `k` is global stream
/// `gstream_of[k]` — or says why the query cannot share it: it is not
/// key-partitionable, or it partitions a stream the plan already
/// partitions on another attribute (a tuple would then have to live on two
/// shards at once).
fn extend_key_plan(
    key_of: &mut Vec<Option<usize>>,
    gstream_of: &[StreamId],
    query: &JoinQuery,
) -> std::result::Result<(), String> {
    let key_attrs = match query.partitioning() {
        Partitioning::ByKey { key_attrs } => key_attrs,
        Partitioning::Single { reason } => return Err(reason),
    };
    for (&g, &attr) in gstream_of.iter().zip(&key_attrs) {
        if key_of.len() <= g.index() {
            key_of.resize(g.index() + 1, None);
        }
        match key_of[g.index()] {
            None => key_of[g.index()] = Some(attr),
            Some(prev) if prev == attr => {}
            Some(prev) => return Err(format!(
                "stream {g} is partitioned on attr {prev} by one query and attr {attr} by another"
            )),
        }
    }
    Ok(())
}

fn widest_arity(catalog: &Catalog) -> usize {
    catalog.iter().map(|(_, s)| s.arity()).max().unwrap_or(0)
}

fn has_tuple_windows(query: &JoinQuery) -> bool {
    query
        .windows()
        .iter()
        .any(|w| matches!(w, WindowSpec::Tuples(_)))
}

/// A shard-parallel front for the engine: route arrivals with
/// [`ShardedJoinEngine::ingest`], change the standing set with
/// [`ShardedJoinEngine::add_query`] / [`ShardedJoinEngine::remove_query`],
/// then collect the merged report with [`ShardedJoinEngine::finish`].
/// Built by [`crate::EngineBuilder::build_sharded`].
pub struct ShardedJoinEngine {
    shards: usize,
    degraded: Option<String>,
    /// The coordinator's mirror of every worker's merged catalog (they
    /// evolve in lockstep through [`ShardedJoinEngine::add_query`]);
    /// arrivals are addressed against it, and it sets the width of the
    /// per-stream tick lanes.
    catalog: Catalog,
    /// Global stream → partition attribute (key-partitioned runs with
    /// S > 1; empty otherwise).
    key_of: Vec<Option<usize>>,
    needs_ticks: bool,
    /// Records a batch holds before it is sent.
    batch_size: usize,
    /// Words a fresh batch buffer reserves: `batch_size` records of the
    /// widest tuple in the catalog.
    buffer_words: usize,
    collect_rows: bool,
    senders: Vec<Sender<Msg>>,
    /// Per-worker return path carrying drained batch allocations back for
    /// reuse (steady-state ingest then allocates no batch buffers).
    returns: Vec<Receiver<Vec<u64>>>,
    buffers: Vec<Vec<u64>>,
    /// Records in each shard's buffer.
    records: Vec<usize>,
    /// Words of the batches each shard's channel accepted.
    wire_words: Vec<u64>,
    /// Pending foreign-arrival ticks, flat-indexed
    /// `[shard * catalog.len() + stream]`; drained into a tick summary
    /// right before the next record pushed to that shard.
    pending_ticks: Vec<u64>,
    /// Per-shard dirty flags for `pending_ticks`, keeping the hot-path
    /// check O(1).
    pending_any: Vec<bool>,
    routed: Vec<u64>,
    handles: Vec<JoinHandle<WorkerOut>>,
    next_seq: SeqNo,
    /// Query ids handed out so far (dense; mirrors every worker).
    n_registered: usize,
    /// Coordinator-side reorder stage: arrivals are reordered *before*
    /// minting and routing, so every worker observes a monotone
    /// (watermark-ordered) timestamp sequence. `None` without a disorder
    /// bound.
    front: Option<ReorderStage>,
    started: Instant,
}

impl ShardedJoinEngine {
    /// Computes the routing plan for `queries` and spawns the worker
    /// threads, each with a copy of `policy`. `config.capacity` is the
    /// *total* budget; each key-partitioned worker gets `1/S` of it.
    pub(crate) fn new(
        queries: Vec<JoinQuery>,
        policy: Box<dyn ShedPolicy>,
        config: EngineConfig,
        shard: ShardConfig,
    ) -> std::result::Result<Self, BuildError> {
        if shard.batch_size == 0 || shard.channel_capacity == 0 {
            return Err(BuildError::Engine(Error::InvalidConfig(
                "shard batch size and channel capacity must be >= 1".into(),
            )));
        }
        let mut catalog = Catalog::new();
        let mut sets = Vec::with_capacity(queries.len());
        for query in &queries {
            sets.push((merge_into_catalog(&mut catalog, query)?, query));
        }
        let n_streams = catalog.len();
        let mut key_of = Vec::new();
        let mut degraded = None;
        if shard.shards > 1 {
            let plan = sets.iter().try_for_each(|(gstream_of, query)| {
                extend_key_plan(&mut key_of, gstream_of, query)
            });
            if let Err(reason) = plan {
                key_of.clear();
                degraded = Some(reason);
            }
        }
        let shards = if degraded.is_some() { 1 } else { shard.shards };
        let needs_ticks = shards > 1 && queries.iter().any(has_tuple_windows);
        let capacity = split_memory(config.capacity, shards);
        let bank = split_bank(&config.bank, shards);
        let mut senders = Vec::with_capacity(shards);
        let mut returns = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        for i in 0..shards {
            let mut worker_config = config.clone();
            worker_config.capacity = capacity;
            worker_config.bank = bank;
            // Reordering happens once, at the coordinator, before minting
            // and routing: workers see watermark-ordered timestamps.
            worker_config.disorder = None;
            // A 1-shard run keeps the master seed so it is bit-identical to
            // the in-process plane; multi-shard workers get independent
            // derived streams.
            if shards > 1 {
                worker_config.seed = splitmix64(config.seed ^ (i as u64 + 1));
            }
            let engine = MultiQueryEngine::new(queries.clone(), policy.clone(), worker_config)?;
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
        let buffer_words = batch_size * (TUPLE_HEAD + widest_arity(&catalog));
        Ok(ShardedJoinEngine {
            shards,
            degraded,
            catalog,
            key_of,
            needs_ticks,
            batch_size,
            buffer_words,
            collect_rows: shard.collect_rows,
            senders,
            returns,
            buffers: (0..shards).map(|_| Vec::with_capacity(buffer_words)).collect(),
            records: vec![0; shards],
            wire_words: vec![0; shards],
            pending_ticks: vec![0; shards * n_streams],
            pending_any: vec![false; shards],
            routed: vec![0; shards],
            handles,
            next_seq: SeqNo(0),
            n_registered: queries.len(),
            front: config.disorder.map(|k| ReorderStage::new(k, n_streams)),
            started: Instant::now(),
        })
    }

    /// Workers the engine actually runs on (1 when the set degraded).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Why a multi-shard request fell back to one shard, if it did.
    pub fn degraded(&self) -> Option<&str> {
        self.degraded.as_deref()
    }

    /// The merged global catalog; [`Arrival::stream`] ids passed to
    /// [`ShardedJoinEngine::ingest`] index into it.
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

    /// Registers a new standing query on every shard and returns its id —
    /// the id each worker assigns, since registrations reach them all in
    /// one order. As in [`MultiQueryEngine::add_query`], the query sees
    /// only arrivals routed after this call (under a disorder bound:
    /// released after it).
    ///
    /// On a key-partitioned run the query must partition too, on the
    /// attribute the running set uses for every stream it shares; a query
    /// that does not is rejected. A rejected query leaves no trace.
    pub fn add_query(&mut self, query: JoinQuery) -> std::result::Result<QueryId, BuildError> {
        let mut catalog = self.catalog.clone();
        let gstream_of = merge_into_catalog(&mut catalog, &query)?;
        let mut key_of = self.key_of.clone();
        if self.shards > 1 {
            extend_key_plan(&mut key_of, &gstream_of, &query).map_err(|reason| {
                BuildError::Engine(Error::InvalidConfig(format!(
                    "cannot add to a {}-shard run: {reason}",
                    self.shards
                )))
            })?;
        }
        let n_streams = catalog.len();
        self.needs_ticks |= self.shards > 1 && has_tuple_windows(&query);
        self.send_registration(Msg::Add(Box::new(query)));
        // Every pending tick went out ahead of the registration, so the
        // counters re-lay for the grown catalog as zeros.
        self.pending_ticks = vec![0; self.shards * n_streams];
        // A recycled buffer below the new reservation grows once.
        self.buffer_words = self
            .buffer_words
            .max(self.batch_size * (TUPLE_HEAD + widest_arity(&catalog)));
        self.catalog = catalog;
        self.key_of = key_of;
        if let Some(front) = self.front.as_mut() {
            front.add_streams(n_streams);
        }
        let id = QueryId(self.n_registered as u32);
        self.n_registered += 1;
        Ok(id)
    }

    /// Deregisters `id` on every shard, at the same point of each one's
    /// routed sub-trace. Unknown or already-removed ids are a no-op on the
    /// workers.
    pub fn remove_query(&mut self, id: QueryId) {
        self.send_registration(Msg::Remove(id));
    }

    /// Routes one arrival (addressed by **global** stream id) to its
    /// hash-home shard only. For tuple-based windows, arrivals a shard does
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
    /// sequence.
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

    /// Mints one arrival and delivers it: the tuple to its home shard,
    /// pending expiry ticks to every other shard.
    fn route_arrival(&mut self, arrival: Arrival) {
        let seq = self.next_seq;
        self.next_seq = seq.next();
        let home = if self.shards == 1 {
            0
        } else {
            let attr =
                self.key_of[arrival.stream.index()].expect("a keyed run partitions every stream");
            (splitmix64(arrival.values[attr].raw()) % self.shards as u64) as usize
        };
        self.routed[home] += 1;
        if self.needs_ticks {
            let (n, s) = (self.catalog.len(), arrival.stream.index());
            for shard in 0..self.shards {
                if shard != home {
                    self.pending_ticks[shard * n + s] += 1;
                    self.pending_any[shard] = true;
                }
            }
        }
        self.push_tuple(home, &arrival, seq);
    }

    /// Sends a registration change to every shard, right after its flushed
    /// batch and tick summary.
    fn send_registration(&mut self, msg: Msg) {
        for shard in 0..self.shards {
            self.flush_with_ticks(shard);
            // A dead worker's panic is reported by `finish`.
            let _ = self.senders[shard].send(msg.clone());
        }
    }

    /// Writes `arrival` as a tuple record to `shard`'s batch, right behind
    /// the shard's pending tick summary.
    fn push_tuple(&mut self, shard: usize, arrival: &Arrival, seq: SeqNo) {
        let values = arrival.values.as_slice();
        self.make_room(shard, TUPLE_HEAD + values.len());
        self.write_ticks(shard);
        let buffer = &mut self.buffers[shard];
        buffer.extend([
            header(TUPLE, arrival.stream.index(), values.len()),
            arrival.ts.as_micros(),
            seq.0,
        ]);
        buffer.extend(values.iter().map(|v| v.raw()));
        self.records[shard] += 1;
        if self.records[shard] >= self.batch_size {
            self.flush(shard);
        }
    }

    /// Sends `shard`'s batch with its pending ticks as the last record.
    fn flush_with_ticks(&mut self, shard: usize) {
        self.make_room(shard, 0);
        self.write_ticks(shard);
        self.flush(shard);
    }

    /// Sends `shard`'s batch early if its pending tick summary and a
    /// record of `words` would not fit the reservation, so a buffer stays
    /// at `buffer_words`: wide tick summaries end a batch before
    /// `batch_size` records.
    fn make_room(&mut self, shard: usize, words: usize) {
        let summary = if self.pending_any[shard] {
            let pending = &self.pending_ticks[self.tick_range(shard)];
            1 + 2 * pending.iter().filter(|&&n| n > 0).count()
        } else {
            0
        };
        if self.buffers[shard].len() + summary + words > self.buffer_words {
            self.flush(shard);
        }
    }

    /// Drains `shard`'s pending tick counters, if any, into one tick
    /// summary on its batch buffer.
    fn write_ticks(&mut self, shard: usize) {
        if !self.pending_any[shard] {
            return;
        }
        self.pending_any[shard] = false;
        let range = self.tick_range(shard);
        let buffer = &mut self.buffers[shard];
        let at = buffer.len();
        buffer.push(0);
        for (stream, count) in self.pending_ticks[range].iter_mut().enumerate() {
            if *count > 0 {
                buffer.extend([stream as u64, std::mem::take(count)]);
            }
        }
        buffer[at] = header(TICKS, 0, (buffer.len() - at - 1) / 2);
        self.records[shard] += 1;
    }

    /// `shard`'s slice of `pending_ticks`.
    fn tick_range(&self, shard: usize) -> std::ops::Range<usize> {
        let n_streams = self.catalog.len();
        shard * n_streams..(shard + 1) * n_streams
    }

    /// Takes a recycled batch buffer off `shard`'s return channel, falling
    /// back to a fresh allocation only when every buffer is still in
    /// flight (startup, or a worker busy draining).
    fn recycled_buffer(&mut self, shard: usize) -> Vec<u64> {
        self.returns[shard]
            .try_recv()
            .unwrap_or_else(|_| Vec::with_capacity(self.buffer_words))
    }

    /// Sends `shard`'s batch, waiting while its channel is full, and
    /// refills the slot with a recycled buffer.
    fn flush(&mut self, shard: usize) {
        if self.records[shard] == 0 {
            return;
        }
        self.records[shard] = 0;
        let batch = std::mem::take(&mut self.buffers[shard]);
        let words = batch.len() as u64;
        // An error means the worker died; `finish` reports its panic.
        if self.senders[shard].send(Msg::Batch(batch)).is_ok() {
            self.wire_words[shard] += words;
        }
        self.buffers[shard] = self.recycled_buffer(shard);
    }

    /// Flushes the remaining batches, waits for every worker, and merges
    /// their metrics, per-query counters and (when collected) rows into one
    /// report.
    ///
    /// Fails with [`Error::Shard`] if any worker panicked.
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
            self.flush_with_ticks(shard);
        }
        self.senders.clear(); // Dropping the senders ends the worker loops.
        let handles = std::mem::take(&mut self.handles);
        let mut combined = EngineMetrics::default();
        let mut per_shard = Vec::with_capacity(self.shards);
        let mut resident = Vec::with_capacity(self.shards);
        let mut stats = vec![QueryStats::default(); self.n_registered];
        let mut worker_rows = Vec::new();
        let mut end_time = VTime::ZERO;
        let mut failure: Option<Error> = None;
        for (i, handle) in handles.into_iter().enumerate() {
            match handle.join() {
                Ok(out) => {
                    combined.merge(&out.metrics);
                    per_shard.push(out.metrics);
                    resident.push(out.resident);
                    for (total, s) in stats.iter_mut().zip(&out.stats) {
                        if let Some(s) = s {
                            total.produced += s.produced;
                            total.shed += s.shed;
                        }
                    }
                    worker_rows.extend(out.rows);
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
        // Seq-stamped merge, query by query: per-stream arrival sequence
        // numbers are global (coordinator-minted), so this canonical order
        // is directly comparable across shard counts and to the in-process
        // plane. Each worker pre-sorted its rows, so this is a k-way
        // interleave.
        let rows = self.collect_rows.then(|| {
            (0..self.n_registered)
                .map(|q| {
                    let lists = worker_rows.iter_mut();
                    merge_sorted_rows(
                        lists
                            .map(|w| w.get_mut(q).map(std::mem::take).unwrap_or_default())
                            .collect(),
                    )
                })
                .collect()
        });
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
            stats,
            routed: self.routed,
            wire_words: self.wire_words,
            resident,
            hot_promoted: 0,
            rows,
        })
    }

    /// Convenience driver: feeds `trace` at `arrival_rate` tuples/second
    /// on the [`Trace::timed`] schedule [`crate::sim::run_trace`] uses,
    /// then finishes. Cloning `item.values` is a plain copy for inline
    /// arities (≤ [`mstream_types::ROW_INLINE`]), so replaying a trace
    /// allocates nothing per arrival.
    pub fn run_trace(mut self, trace: &Trace, arrival_rate: f64) -> Result<ShardedRunReport> {
        for (now, item) in trace.timed(arrival_rate) {
            self.ingest(Arrival::new(item.stream, item.values.clone(), now));
        }
        self.finish()
    }
}

/// Compares result rows by their per-stream sequence numbers, the
/// canonical output order. Keys are unique (each join combination is
/// emitted exactly once, on exactly one shard), so unstable sorting and
/// arbitrary merge tie-breaks reproduce one well-defined order.
fn row_seq_cmp(a: &[Tuple], b: &[Tuple]) -> Ordering {
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
    rx: Receiver<Msg>,
    ret_tx: Sender<Vec<u64>>,
    mode: WorkerMode,
) -> WorkerOut {
    let mut rows_sink = QueryRowsSink::default();
    // Without row collection nothing reads the results here: per-query
    // counts come from `query_stats`.
    let mut count_sink = CountSink::default();
    let mut end_time = VTime::ZERO;
    while let Ok(msg) = rx.recv() {
        let mut batch = match msg {
            Msg::Batch(batch) => batch,
            Msg::Add(query) => {
                engine
                    .add_query(*query)
                    .expect("coordinator-validated registration");
                continue;
            }
            Msg::Remove(id) => {
                engine.remove_query(id);
                continue;
            }
        };
        if mode.route_only {
            batch.clear();
        }
        for record in records(&batch) {
            let tuple = match record {
                Record::Tuple { stream, body } => decode_tuple(stream, body),
                Record::Ticks(pairs) => {
                    for (stream, count) in tick_pairs(pairs) {
                        engine.note_foreign_arrivals(StreamId(stream), count);
                    }
                    continue;
                }
            };
            let now = tuple.ts;
            end_time = end_time.max(now);
            if mode.collect_rows {
                engine.ingest_tuple(tuple, now, &mut rows_sink);
            } else {
                engine.ingest_tuple(tuple, now, &mut count_sink);
            }
        }
        // Hand the emptied allocation back for reuse. The return channel
        // is sized to hold every in-flight buffer, so a failure only
        // means the coordinator is gone — then the buffer just drops.
        batch.clear();
        let _ = ret_tx.try_send(batch);
    }
    let rows = mode.collect_rows.then(|| {
        let mut rows = rows_sink.rows;
        for query_rows in &mut rows {
            query_rows.sort_unstable_by(|a, b| row_seq_cmp(a, b));
        }
        rows
    });
    WorkerOut {
        resident: engine.total_resident(),
        metrics: engine.metrics().clone(),
        stats: (0..engine.n_registered())
            .map(|q| engine.query_stats(QueryId(q as u32)))
            .collect(),
        rows,
        end_time,
    }
}

/// Splits a total window capacity evenly across `shards` workers (each
/// window keeps at least one slot).
fn split_memory(capacity: usize, shards: usize) -> usize {
    (capacity / shards).max(1)
}

/// Splits the estimation budget the way [`split_memory`] splits the
/// window budget: per-shard banks keep the full median structure (`s2`
/// groups) but average `s1/S` copies per group (floor 1), so the total
/// sketch memory stays constant as shards are added. Each shard estimates
/// only its own key partition — a strictly smaller join — so the divided
/// budget funds `S` independent, narrower estimators instead of `S`
/// replicas of the full-width one. A 1-shard run keeps the master bank
/// untouched (bit-identical to the in-process plane).
fn split_bank(bank: &BankConfig, shards: usize) -> BankConfig {
    if shards <= 1 {
        return *bank;
    }
    BankConfig {
        s1: (bank.s1 / shards).max(1),
        ..*bank
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
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
    use crate::builder::EngineBuilder;
    use mstream_types::{StreamSchema, Value, ROW_INLINE};

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
        assert_eq!(split_memory(64, 4), 16);
        assert_eq!(split_memory(100, 3), 33);
        assert_eq!(split_memory(2, 8), 1);
        // A single shard keeps the budget untouched.
        assert_eq!(split_memory(100, 1), 100);
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
            .map(|(k, &s)| Tuple::new(StreamId(k), VTime::ZERO, SeqNo(s), Row::new()))
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

    fn pair_query(l: &str, r: &str, window: WindowSpec) -> JoinQuery {
        let mut c = Catalog::new();
        c.add_stream(StreamSchema::new(l, &["k", "v"]));
        c.add_stream(StreamSchema::new(r, &["k", "v"]));
        JoinQuery::from_names(c, &[(&format!("{l}.k"), &format!("{r}.k"))], window).unwrap()
    }

    /// `L.v = Z.k`: partitions `L` on its second attribute, where
    /// [`pair_query`] partitions it on the first.
    fn clashing_query() -> JoinQuery {
        let mut c = Catalog::new();
        c.add_stream(StreamSchema::new("L", &["k", "v"]));
        c.add_stream(StreamSchema::new("Z", &["k", "v"]));
        JoinQuery::from_names(c, &[("L.v", "Z.k")], WindowSpec::secs(600)).unwrap()
    }

    fn engine(queries: Vec<JoinQuery>, shard: ShardConfig) -> ShardedJoinEngine {
        let mut b = EngineBuilder::new_multi()
            .policy(crate::Fifo)
            .capacity_per_window(1 << 16)
            .shard_config(shard);
        for q in queries {
            b.register(q).unwrap();
        }
        b.build_sharded().unwrap()
    }

    fn shards(n: usize) -> ShardConfig {
        ShardConfig {
            shards: n,
            ..ShardConfig::default()
        }
    }

    /// The ticks queued for `shard`'s next batch, as `(stream, count)`.
    fn buffered_ticks(engine: &ShardedJoinEngine, shard: usize) -> Vec<(usize, u64)> {
        let summaries = records(&engine.buffers[shard]).filter_map(|record| match record {
            Record::Ticks(pairs) => Some(pairs),
            Record::Tuple { .. } => None,
        });
        summaries.flat_map(tick_pairs).collect()
    }

    /// Two streams, then single-attribute streams up to `n_streams`, with
    /// the pending counters re-laid for them.
    fn wide_engine(n_streams: usize) -> ShardedJoinEngine {
        let mut engine = engine(
            vec![pair_query("R1", "R2", WindowSpec::Tuples(4))],
            shards(2),
        );
        for s in 2..n_streams {
            engine.catalog.add_stream(StreamSchema::new(format!("S{s}"), &["k"]));
        }
        engine.pending_ticks = vec![0; 2 * n_streams];
        engine
    }

    fn arrival(stream: usize, arity: usize, ts: u64) -> Arrival {
        let values: Vec<Value> = (0..arity as u64).map(|v| Value(v * 7 + 1)).collect();
        Arrival::new(StreamId(stream), values, VTime::from_micros(ts))
    }

    /// Drops what `shard`'s buffer holds, so `finish` sends nothing the
    /// test wrote by hand.
    fn discard_buffer(engine: &mut ShardedJoinEngine, shard: usize) {
        engine.buffers[shard].clear();
        engine.records[shard] = 0;
    }

    /// Every record kind decodes to what was written: tuples of arity 0,
    /// `ROW_INLINE` and `ROW_INLINE + 2` (spilled), one on a stream past
    /// 256, and one tick summary whose count exceeds `u32::MAX`.
    #[test]
    fn records_round_trip_every_kind() {
        let mut engine = wide_engine(301);
        let sent = [
            arrival(0, 0, 5),
            arrival(1, ROW_INLINE, 6),
            arrival(2, ROW_INLINE + 2, u64::MAX),
            arrival(300, 2, 8),
        ];
        let big = u64::from(u32::MAX) + 5;
        engine.pending_ticks[301 + 1] = 3;
        engine.pending_ticks[301 + 300] = big;
        engine.pending_any[1] = true;
        for (seq, a) in sent.iter().enumerate() {
            engine.push_tuple(1, a, SeqNo(seq as u64));
        }
        assert_eq!(engine.records[1], 1 + sent.len());
        let got: Vec<Record> = records(&engine.buffers[1]).collect();
        assert_eq!(got.len(), 1 + sent.len(), "one tick summary, then the tuples");
        assert_eq!(got[0], Record::Ticks(&[1, 3, 300, big]));
        for (seq, (a, record)) in sent.iter().zip(&got[1..]).enumerate() {
            let Record::Tuple { stream, body } = record else {
                panic!("record {seq} is not a tuple")
            };
            let tuple = decode_tuple(*stream, body);
            let expect = Tuple::new(a.stream, a.ts, SeqNo(seq as u64), a.values.clone());
            assert!(tuple == expect, "record {seq}: {tuple:?} != {expect:?}");
            assert_eq!(tuple.values.is_inline(), a.values.len() <= ROW_INLINE);
        }
        discard_buffer(&mut engine, 1);
        engine.finish().unwrap();
    }

    /// A keyed arity-2 arrival travels as 5 words (40 bytes): header,
    /// `ts`, `seq` and its two values.
    #[test]
    fn keyed_arity_two_record_is_five_words() {
        let mut engine = engine(vec![pair_query("R1", "R2", WindowSpec::secs(9))], shards(2));
        engine.push_tuple(0, &arrival(0, 2, 1), SeqNo(0));
        assert_eq!(engine.buffers[0].len(), 5);
        assert_eq!(engine.buffer_words, 64 * 5, "a buffer reserves batch_size records");
        engine.finish().unwrap();
    }

    /// A record that would overflow its buffer's reservation sends the
    /// batch ahead of it, so a buffer stays at `batch_size × (3 + widest
    /// arity)` words even when wide tick summaries fill it.
    #[test]
    fn a_record_past_the_reservation_sends_the_batch_early() {
        let mut engine = engine(
            vec![pair_query("R1", "R2", WindowSpec::Tuples(4))],
            ShardConfig {
                shards: 2,
                batch_size: 4,
                ..ShardConfig::default()
            },
        );
        engine.catalog.add_stream(StreamSchema::new("S2", &["k"]));
        engine.pending_ticks = vec![0; 6];
        for seq in 0..3 {
            engine.push_tuple(1, &arrival(0, 2, seq), SeqNo(seq));
        }
        engine.pending_ticks[3..].fill(1);
        engine.pending_any[1] = true;
        // 15 words held, 20 reserved: the 7-word summary and its 5-word
        // tuple start a batch.
        engine.push_tuple(1, &arrival(0, 2, 3), SeqNo(3));
        assert_eq!(engine.wire_words[1], 15, "the three tuples went ahead");
        assert_eq!((engine.records[1], engine.buffers[1].len()), (2, 12));
        discard_buffer(&mut engine, 1);
        engine.finish().unwrap();
    }

    /// A union catalog past 256 streams (which `add_query` can grow) must
    /// still credit each tick to its own stream.
    #[test]
    fn tick_summaries_address_streams_past_256() {
        let mut engine = wide_engine(301);
        engine.pending_ticks[301 + 300] = 5;
        engine.pending_any[1] = true;
        engine.write_ticks(1);
        assert_eq!(buffered_ticks(&engine, 1), vec![(300, 5)]);
        discard_buffer(&mut engine, 1);
        engine.finish().unwrap();
    }

    /// However wide the catalog, a shard's pending ticks leave as one
    /// summary record: one pair per stream with a nonzero count.
    #[test]
    fn one_tick_summary_covers_a_wide_catalog() {
        let mut engine = wide_engine(10);
        for s in (0..10).step_by(3) {
            engine.pending_ticks[10 + s] = s as u64 + 1;
        }
        engine.pending_any[1] = true;
        engine.write_ticks(1);
        assert_eq!(engine.records[1], 1);
        assert_eq!(buffered_ticks(&engine, 1), vec![(0, 1), (3, 4), (6, 7), (9, 10)]);
        discard_buffer(&mut engine, 1);
        engine.finish().unwrap();
    }

    /// Two queries partitioning one stream on different attributes cannot
    /// share a key plan: the set degrades to one shard, with the reason.
    #[test]
    fn conflicting_partitioning_degrades_to_one_shard() {
        let set = vec![
            pair_query("L", "R", WindowSpec::secs(600)),
            clashing_query(),
        ];
        let e = engine(set, shards(4));
        assert_eq!(e.shards(), 1);
        assert!(e.degraded().is_some_and(|r| r.contains("stream")));
        e.finish().unwrap();
    }

    /// There is no online re-partitioning: an added query that does not fit
    /// the running key plan is rejected, and leaves the run as it was.
    #[test]
    fn incompatible_runtime_add_is_rejected_on_multi_shard() {
        let mut e = engine(vec![pair_query("L", "R", WindowSpec::secs(600))], shards(2));
        assert!(e.add_query(clashing_query()).is_err());
        assert_eq!(e.n_registered, 1, "failed add leaves the id space alone");
        assert_eq!(e.catalog().len(), 2, "failed add leaves the catalog alone");
        for i in 0..40u64 {
            let g = e.stream_id(["L", "R"][(i % 2) as usize]).unwrap();
            let row: Row = vec![mstream_types::Value(i % 3), mstream_types::Value(i % 5)].into();
            e.ingest(Arrival::new(g, row, VTime::from_secs(i)));
        }
        let report = e.finish().unwrap();
        assert_eq!(report.stats.len(), 1);
        assert!(report.stats[0].produced > 0);
    }

    /// A set that cannot partition runs on one shard, where any query can
    /// be added: there is no key plan to fit.
    #[test]
    fn a_degraded_run_accepts_any_added_query() {
        let mut c = Catalog::new();
        for s in ["R1", "R2", "R3"] {
            c.add_stream(StreamSchema::new(s, &["A1", "A2"]));
        }
        let chain = JoinQuery::from_names(
            c,
            &[("R1.A1", "R2.A1"), ("R2.A2", "R3.A1")],
            WindowSpec::secs(9),
        )
        .unwrap();
        let mut e = engine(vec![chain], shards(2));
        assert_eq!(e.shards(), 1);
        assert!(e.degraded().is_some());
        assert_eq!(e.add_query(clashing_query()).unwrap(), QueryId(1));
        e.finish().unwrap();
    }
}
