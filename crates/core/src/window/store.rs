//! The per-stream window store.

use crate::arena::{Arena, Slot};
use crate::heap::IndexedHeap;
use crate::index::{Candidates, FlatIndex};
use mstream_types::{StreamId, Tuple, VTime, Value, WindowSpec};
use std::collections::VecDeque;

/// One resident window tuple plus the bookkeeping that must travel with it.
///
/// Everything per-slot that the hot paths touch *without* the tuple —
/// index positions, produced counters, cached policy state — lives in flat
/// parallel arrays on [`WindowStore`] instead (struct-of-arrays), so the
/// entry itself adds no heap allocation beyond the tuple's own values and
/// probe/eviction loops never drag the full entry into cache.
struct Entry {
    tuple: Tuple,
    /// This stream's arrival counter value when the tuple entered
    /// (drives tuple-based expiration).
    arrival_idx: u64,
}

/// One indexed attribute's values across a store's residents
/// ([`WindowStore::join_col`]).
#[derive(Clone, Copy)]
pub(crate) struct JoinCol<'a> {
    /// Row-major: one row of `stride` values per arena index.
    vals: &'a [Value],
    stride: usize,
    /// The attribute's offset within a row.
    a: usize,
}

impl JoinCol<'_> {
    /// The value the tuple at `slot` carries on the column's attribute.
    /// `slot` must be live — fresh from a probe of the same store, say:
    /// the column keeps no generations to tell a stale handle by.
    #[inline]
    pub(crate) fn get(&self, slot: Slot) -> Value {
        self.vals[slot.index() * self.stride + self.a]
    }
}

/// What happened when a tuple was offered to a full window.
#[derive(Debug, PartialEq)]
pub enum Eviction {
    /// The window had room; nothing was evicted.
    None,
    /// A resident tuple (possibly the newly offered one) was dismissed.
    Evicted(Tuple),
}

/// The result of [`WindowStore::insert`].
#[derive(Debug, PartialEq)]
pub struct InsertOutcome {
    /// Where the offered tuple now lives, or `None` if it was itself the
    /// lowest-priority tuple and was dismissed immediately.
    pub slot: Option<Slot>,
    /// The eviction performed to make room, if any.
    pub eviction: Eviction,
}

/// A sliding-window buffer with priority-driven shedding.
///
/// Combines (paper §2/§4): a fixed `capacity` (the allocated memory), FIFO
/// expiration per the window spec, hash indexes on every join attribute for
/// n-way probing, and an indexed min-heap over tuple priorities so that
/// "when the window is full, remove the tuple with lowest priority".
///
/// All policies in the paper reduce to a priority score: productivity for
/// `MSketch`, remaining-output-fraction for `MSketch-RS`, partner frequency
/// for `Bjoin`, remaining-lifetime × productivity for `Age`, a uniform
/// random draw for `Random`, and the arrival sequence number for `FIFO`
/// (drop-oldest). The store itself is policy-agnostic: callers hand it a
/// score per tuple and may rebuild all scores at tumbling-epoch rollovers.
///
/// Layout (see DESIGN.md §10): join indexes are open-addressed
/// [`FlatIndex`] tables (no SipHash, no per-value `Vec`), and the per-slot
/// sidecars `index_pos` / `join_vals` / `produced` / `state` are flat
/// arrays indexed by the slot's dense arena index.
pub struct WindowStore {
    spec: WindowSpec,
    capacity: usize,
    /// Schema attribute indexes that carry a hash index.
    join_attrs: Vec<usize>,
    arena: Arena<Entry>,
    /// Arrival-ordered queue of slots for expiration. Its front is live
    /// (or the queue is empty); entries of tuples evicted from the middle
    /// stay queued until they surface or are compacted away.
    expiry: VecDeque<Slot>,
    /// The due key ([`WindowStore::due_key`]) of `expiry`'s front, or
    /// `u64::MAX` while the queue is empty: nothing expires before the
    /// clock (time windows) or the arrival count (tuple windows) gets
    /// there, so an arrival with nothing due is one comparison.
    next_due: u64,
    /// `indexes[a]` maps a value of `join_attrs[a]` to the slots holding it.
    indexes: Vec<FlatIndex>,
    heap: IndexedHeap,
    /// Arrivals observed on this stream (count includes shed tuples).
    arrivals_seen: u64,
    /// `index_pos[slot.index() * join_attrs.len() + a]` = position of the
    /// slot inside its bucket of indexed attribute `a`, for O(1)
    /// swap-removal. Valid only while the slot is live.
    index_pos: Vec<u32>,
    /// `join_vals[slot.index() * join_attrs.len() + a]` = the slot's value
    /// on indexed attribute `a`: the column [`WindowStore::join_col`]
    /// reads. Valid only while the slot is live.
    join_vals: Vec<Value>,
    /// Join-output tuples attributed to each live slot so far (used by the
    /// random-sampling priority measure). Indexed by `slot.index()`.
    produced: Vec<u64>,
    /// Opaque per-tuple policy state (e.g. the cached expected-output
    /// denominator of the random-sampling measure), refreshed whenever the
    /// priority is recomputed from scratch. Indexed by `slot.index()`.
    state: Vec<f64>,
    /// Priorities are owed, not kept: the heap is empty and residents carry
    /// no score until the next rebuild (see [`WindowStore::defer_priorities`]).
    deferred: bool,
}

impl WindowStore {
    /// Creates an empty store.
    ///
    /// `join_attrs` are the schema attribute indexes to hash-index (from
    /// [`mstream_types::JoinQuery::join_attrs`]); `capacity` is the memory
    /// allocated to this window, in tuples.
    pub fn new(spec: WindowSpec, join_attrs: Vec<usize>, capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        let n_idx = join_attrs.len();
        // Cap the eager reservation: "unbounded" reference joins pass huge
        // capacities and grow on demand instead, and a `ROWS n` window never
        // holds more than `n`.
        let most = match spec {
            WindowSpec::Tuples(n) => capacity.min(usize::try_from(n).unwrap_or(usize::MAX)),
            WindowSpec::Time(_) => capacity,
        };
        let reserve = most.min(4096) + 1;
        WindowStore {
            spec,
            capacity,
            join_attrs,
            arena: Arena::with_capacity(reserve),
            expiry: VecDeque::with_capacity(reserve),
            next_due: u64::MAX,
            indexes: (0..n_idx).map(|_| FlatIndex::new()).collect(),
            heap: IndexedHeap::new(),
            arrivals_seen: 0,
            index_pos: Vec::with_capacity(reserve * n_idx),
            join_vals: Vec::new(),
            produced: Vec::with_capacity(reserve),
            state: Vec::with_capacity(reserve),
            deferred: false,
        }
    }

    /// Number of resident tuples.
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// Whether the window holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    /// Arrivals observed so far (including tuples that were shed).
    #[cfg(test)]
    pub(crate) fn arrivals_seen(&self) -> u64 {
        self.arrivals_seen
    }

    /// Notes `n` arrivals on this stream *without* storing them (they
    /// still advance tuple-based expiration), used by sharded execution to
    /// apply a coalesced foreign-arrival tick summary. Ticks only advance
    /// the counter (expiry is evaluated on the next stored arrival), so `n`
    /// single ticks and one bulk tick are observationally identical.
    pub(crate) fn note_arrivals(&mut self, n: u64) {
        self.arrivals_seen += n;
    }

    /// Removes all expired tuples as of `now`, returning them oldest-first.
    ///
    /// Time-based windows expire tuples with `ts + p <= now`; tuple-based
    /// windows expire tuples once `count` newer arrivals have been seen on
    /// this stream (paper §4.1 semantics — arrivals, not residents, so
    /// shedding does not extend lifetimes).
    pub fn expire(&mut self, now: VTime) -> Vec<Tuple> {
        let mut expired = Vec::new();
        self.expire_each(now, |tuple| expired.push(tuple));
        expired
    }

    /// [`Self::expire`] handing each expired tuple to `visit`, oldest
    /// first, instead of collecting them; returns how many expired. The
    /// engines only count, so their per-arrival expiry allocates nothing —
    /// and with nothing due touches neither queue nor arena.
    #[inline]
    pub fn expire_each(&mut self, now: VTime, visit: impl FnMut(Tuple)) -> u64 {
        self.expire_ahead_of(now, false, visit)
    }

    /// [`Self::expire_each`] as an arrival's first step, `arriving` saying
    /// whether the arrival is of this store's stream, hence about to be
    /// stored here. A tuple window then counts it before expiring, so the
    /// resident it pushes out of the last `n` leaves by expiry, not as the
    /// insert's victim: a `ROWS n` window holds at most `n - 1` residents
    /// when the insert comes, and one with room for `n` never needs a
    /// victim. The insert counts the arrival as ever. An arrival never
    /// probes its own stream, so no probe sees a different window.
    #[inline]
    pub(crate) fn expire_ahead_of(
        &mut self,
        now: VTime,
        arriving: bool,
        mut visit: impl FnMut(Tuple),
    ) -> u64 {
        let clock = match self.spec {
            WindowSpec::Time(_) => now.as_micros(),
            WindowSpec::Tuples(_) => self.arrivals_seen + u64::from(arriving),
        };
        let mut expired = 0;
        while self.next_due <= clock {
            // `u64::MAX` is also the empty queue's key.
            let Some(&front) = self.expiry.front() else {
                break;
            };
            // Removing the front re-reads `next_due` off the one behind it.
            visit(self.remove_slot(front).expect("the expiry queue's front is live"));
            expired += 1;
        }
        expired
    }

    /// When `entry` leaves by expiry, on the clock [`Self::expire_each`]
    /// reads: the first instant a time window no longer covers it
    /// (`ts + p` in µs, saturating — a window of `u64::MAX` µs never
    /// closes), or the arrival count that pushes it out of a tuple window.
    fn due_key(&self, entry: &Entry) -> u64 {
        match self.spec {
            WindowSpec::Time(p) => entry.tuple.ts.saturating_add(p).as_micros(),
            WindowSpec::Tuples(count) => entry.arrival_idx.saturating_add(count),
        }
    }

    /// Inserts `tuple` with the given priority `score`, evicting the
    /// lowest-priority resident (possibly `tuple` itself) if the window is
    /// at capacity. Counts the arrival.
    pub fn insert(&mut self, tuple: Tuple, score: f64) -> InsertOutcome {
        self.insert_scored(tuple, score, 0.0)
    }

    /// [`Self::insert`] with explicit per-tuple policy state.
    ///
    /// A full window whose minimum outranks the arrival under the heap's
    /// own `(score, seq)` order dismisses the arrival before it touches
    /// arena, indexes, expiry queue or heap: it would be stored only to be
    /// picked as the victim. Any other arrival to a full window takes its
    /// minimum's place (`replace_min`).
    ///
    /// # Panics
    /// Panics if priorities are deferred (`defer_priorities`): a
    /// lone scored resident among unscored ones would be the only victim
    /// the heap can name.
    pub fn insert_scored(&mut self, tuple: Tuple, score: f64, state: f64) -> InsertOutcome {
        assert!(!self.deferred, "rebuild a deferred store before scoring into it");
        self.arrivals_seen += 1;
        if self.arena.len() < self.capacity {
            return InsertOutcome {
                slot: Some(self.store(tuple, Some(score), state)),
                eviction: Eviction::None,
            };
        }
        if self.heap.would_be_min(score, tuple.seq.0) {
            return InsertOutcome {
                slot: None,
                eviction: Eviction::Evicted(tuple),
            };
        }
        let (slot, victim) = self.replace_min(tuple, score, state);
        InsertOutcome {
            slot: Some(slot),
            eviction: Eviction::Evicted(victim),
        }
    }

    /// Stores `tuple` in a deferred window that has room, with no score
    /// and no heap entry: the rebuild that ends the deferral scores it
    /// with the other residents. Counts the arrival.
    ///
    /// # Panics
    /// Panics unless priorities are deferred and the window has room.
    pub(crate) fn insert_unscored(&mut self, tuple: Tuple) -> Slot {
        assert!(
            self.deferred && self.arena.len() < self.capacity,
            "unscored inserts need a deferred store with room"
        );
        self.arrivals_seen += 1;
        self.store(tuple, None, 0.0)
    }

    /// Stores a tuple unconditionally (no capacity check, no arrival
    /// count); `score: None` leaves it out of the heap.
    fn store(&mut self, tuple: Tuple, score: Option<f64>, state: f64) -> Slot {
        let tie = tuple.seq.0;
        let arrival_idx = self.arrivals_seen;
        let n_idx = self.join_attrs.len();
        let slot = self.arena.insert(Entry { tuple, arrival_idx });
        let i = slot.index();
        if i >= self.produced.len() {
            self.produced.resize(i + 1, 0);
            self.state.resize(i + 1, 0.0);
            self.index_pos.resize((i + 1) * n_idx, 0);
            self.join_vals.resize((i + 1) * n_idx, Value(0));
        }
        self.link(slot, state, None);
        if let Some(score) = score {
            self.heap.insert(slot, score, tie);
        }
        slot
    }

    /// Hands the heap minimum's place to `tuple`: same arena index (next
    /// generation), same heap root (one sift down), no free-list round
    /// trip.
    fn replace_min(&mut self, tuple: Tuple, score: f64, state: f64) -> (Slot, Tuple) {
        let tie = tuple.seq.0;
        let (victim, _) = self.heap.peek_min().expect("a full window has a minimum");
        let entry = Entry {
            tuple,
            arrival_idx: self.arrivals_seen,
        };
        let (slot, old) = self.arena.replace(victim, entry).expect("heap entries are live");
        self.unqueue(victim);
        self.link(slot, state, Some((victim, &old.tuple)));
        self.heap.replace_min(slot, score, tie);
        (slot, old.tuple)
    }

    /// What every newcomer gets once the arena holds it and the sidecar
    /// rows of its index exist: fresh counters, its bucket positions and
    /// column values, and the back of the expiry queue.
    ///
    /// `leaving` is the victim whose arena index — hence sidecar rows —
    /// the newcomer took over. Each index sees the newcomer inserted
    /// **before** the victim is removed, the order of "store, then evict
    /// the minimum": a swap-removal moves the bucket's last slot into the
    /// hole, so where the newcomer lands, hence every later probe's
    /// enumeration order, is what it always was.
    fn link(&mut self, slot: Slot, state: f64, leaving: Option<(Slot, &Tuple)>) {
        let i = slot.index();
        let n_idx = self.join_attrs.len();
        self.produced[i] = 0;
        self.state[i] = state;
        let entry = self.arena.get(slot).expect("just inserted");
        for (a, &attr) in self.join_attrs.iter().enumerate() {
            let cell = i * n_idx + a;
            let value = entry.tuple.values[attr];
            let victim_pos = self.index_pos[cell];
            self.join_vals[cell] = value;
            self.index_pos[cell] = self.indexes[a].insert(value.0, slot);
            if let Some((victim, tuple)) = leaving {
                let key = tuple.values[attr].0;
                if let Some(moved) = self.indexes[a].remove(key, victim_pos, victim) {
                    self.index_pos[moved.index() * n_idx + a] = victim_pos;
                }
            }
        }
        if self.expiry.is_empty() {
            self.next_due = self.due_key(entry);
        } else if self.expiry.len() == self.expiry.capacity() {
            self.compact_expiry();
        }
        self.expiry.push_back(slot);
    }

    /// The expiry queue is about to grow: if more than a third of it is
    /// entries of tuples evicted since (at 20× overload nineteen in
    /// twenty), drops those instead. Each pass removes a third of the queue
    /// or leaves it to double, so a push stays O(1) amortised and the
    /// queue's length stays within a small multiple of the residents'.
    /// Order, and the live front, are untouched. Out of line: it runs once
    /// in hundreds of inserts and would bloat every one of them.
    #[cold]
    #[inline(never)]
    fn compact_expiry(&mut self) {
        // The arena already holds the newcomer, the queue not yet.
        let stale = self.expiry.len() + 1 - self.arena.len();
        if stale * 3 > self.expiry.len() {
            let arena = &self.arena;
            self.expiry.retain(|&slot| arena.contains(slot));
        }
    }

    /// Fully removes `slot` from arena, indexes, heap and — if it is the
    /// front — the expiry queue.
    fn remove_slot(&mut self, slot: Slot) -> Option<Tuple> {
        let entry = self.arena.remove(slot)?;
        let i = slot.index();
        let n_idx = self.join_attrs.len();
        for (a, &attr) in self.join_attrs.iter().enumerate() {
            let value = entry.tuple.values[attr];
            let pos = self.index_pos[i * n_idx + a];
            if let Some(moved) = self.indexes[a].remove(value.0, pos, slot) {
                self.index_pos[moved.index() * n_idx + a] = pos;
            }
        }
        self.heap.remove(slot);
        self.unqueue(slot);
        Some(entry.tuple)
    }

    /// `dead` has just left the arena. Anywhere but the front its queue
    /// entry stays behind (it surfaces, or is compacted away, later); at
    /// the front it goes now, with every dead entry queued behind it, and
    /// `next_due` is read off the live entry that surfaces.
    fn unqueue(&mut self, dead: Slot) {
        if self.expiry.front() != Some(&dead) {
            return;
        }
        self.expiry.pop_front();
        self.next_due = loop {
            let Some(&front) = self.expiry.front() else {
                break u64::MAX;
            };
            match self.arena.get(front) {
                Some(entry) => break self.due_key(entry),
                None => self.expiry.pop_front(),
            };
        };
    }

    /// Evicts and returns the lowest-priority tuple, if any (`None` while
    /// priorities are deferred: no resident has one).
    #[cfg(test)]
    pub(crate) fn evict_min(&mut self) -> Option<(Tuple, f64)> {
        let (slot, score) = self.heap.peek_min()?;
        let tuple = self.remove_slot(slot).expect("heap entries are live");
        Some((tuple, score))
    }

    /// The lowest priority currently resident, if any; `None` while
    /// priorities are deferred.
    #[cfg(test)]
    pub(crate) fn peek_min(&self) -> Option<(Slot, f64)> {
        self.heap.peek_min()
    }

    /// The hash index on schema attribute `attr`, keyed by the raw value
    /// payload: what a caller probing the same attribute many times
    /// resolves once ([`WindowStore::probe`] resolves it per call).
    ///
    /// # Panics
    /// Panics if `attr` is not one of the indexed join attributes.
    pub(crate) fn index_on(&self, attr: usize) -> &FlatIndex {
        &self.indexes[self.indexed(attr)]
    }

    /// Where schema attribute `attr` sits among the indexed ones.
    fn indexed(&self, attr: usize) -> usize {
        match self.join_attrs.iter().position(|&ja| ja == attr) {
            Some(a) => a,
            None => panic!("attribute {attr} is not indexed"),
        }
    }

    /// The residents' values on schema attribute `attr`, as a column read
    /// by slot: what a probe walking many candidates for one join key
    /// reads in place of each candidate's tuple.
    ///
    /// # Panics
    /// Panics if `attr` is not one of the indexed join attributes.
    pub(crate) fn join_col(&self, attr: usize) -> JoinCol<'_> {
        JoinCol {
            vals: &self.join_vals,
            stride: self.join_attrs.len(),
            a: self.indexed(attr),
        }
    }

    /// Slots holding `value` on schema attribute `attr`, in bucket order.
    ///
    /// # Panics
    /// Panics if `attr` is not one of the indexed join attributes.
    pub fn probe(&self, attr: usize, value: Value) -> Candidates<'_> {
        self.index_on(attr).probe(value.0)
    }

    /// The tuple at `slot`, if live.
    pub fn tuple(&self, slot: Slot) -> Option<&Tuple> {
        self.arena.get(slot).map(|e| &e.tuple)
    }

    /// Adds `n` to the produced-output counter of `slot` (for the
    /// random-sampling priority). Returns the new total, or `None` if the
    /// slot is stale.
    pub(crate) fn add_produced(&mut self, slot: Slot, n: u64) -> Option<u64> {
        if !self.arena.contains(slot) {
            return None;
        }
        let p = &mut self.produced[slot.index()];
        *p += n;
        Some(*p)
    }

    /// The produced-output counter of `slot`.
    #[cfg(test)]
    pub(crate) fn produced(&self, slot: Slot) -> Option<u64> {
        self.arena.contains(slot).then(|| self.produced[slot.index()])
    }

    /// The cached policy state of `slot`.
    pub(crate) fn state(&self, slot: Slot) -> Option<f64> {
        self.arena.contains(slot).then(|| self.state[slot.index()])
    }

    /// Updates the priority of a resident tuple; `false` if the slot is
    /// stale or priorities are deferred.
    pub fn update_priority(&mut self, slot: Slot, score: f64) -> bool {
        self.heap.update(slot, score)
    }

    /// The priority of a resident tuple.
    #[cfg(test)]
    pub(crate) fn priority(&self, slot: Slot) -> Option<f64> {
        self.heap.score(slot)
    }

    /// Owes every priority instead of recomputing it: empties the heap and
    /// leaves the store **deferred** until the next
    /// [`WindowStore::rebuild_priorities`] /
    /// [`WindowStore::rebuild_priorities_grouped`]. Arena, indexes, expiry
    /// order and produced counts are untouched, so probes, expiry and
    /// credits run as ever; only victim selection needs the rebuild, and a
    /// window with room selects none. Legal when a rebuild yields the same
    /// priorities whenever it runs — the caller's call (DESIGN.md §16).
    pub(crate) fn defer_priorities(&mut self) {
        self.heap.clear();
        self.deferred = true;
    }

    /// Whether priorities are owed ([`WindowStore::defer_priorities`]).
    pub(crate) fn is_deferred(&self) -> bool {
        self.deferred
    }

    /// Whether the next stored arrival needs a victim.
    pub(crate) fn is_full(&self) -> bool {
        self.arena.len() >= self.capacity
    }

    /// Whether no arrival can find the window full: a `ROWS n` window with
    /// room for `n`, expired by [`Self::expire_ahead_of`] before each
    /// arrival of its stream, holds at most `n - 1` residents then. Such a
    /// store never sheds, so nothing needs its priorities; a class whose
    /// every store is one is idle (DESIGN.md §16). Fixed for the store's
    /// life: window and capacity never change.
    pub(crate) fn cannot_fill(&self) -> bool {
        matches!(self.spec, WindowSpec::Tuples(n) if self.capacity as u64 >= n)
    }

    /// Recomputes every resident tuple's priority (tumbling-epoch rollover:
    /// "reset all the priority queues"). The callback sees the tuple and
    /// its produced-so-far counter and returns `(score, policy state)`.
    pub fn rebuild_priorities(&mut self, mut score: impl FnMut(&Tuple, u64) -> (f64, f64)) {
        self.heap.clear();
        self.deferred = false;
        for (slot, entry) in self.arena.iter() {
            let i = slot.index();
            let (sc, st) = score(&entry.tuple, self.produced[i]);
            self.state[i] = st;
            self.heap.insert(slot, sc, entry.tuple.seq.0);
        }
    }

    /// Key-grouped variant of [`WindowStore::rebuild_priorities`] for
    /// policies whose score factors into a per-key estimate recombined per
    /// tuple (DESIGN.md §16): residents are walked **grouped by distinct
    /// join-key value** via the hash index, so the scoring callback can
    /// compute the expensive estimate once per distinct key and fan it out
    /// to every slot holding that key — O(distinct keys × kernel +
    /// residents) instead of O(residents × kernel).
    ///
    /// The callback sees `(tuple, produced, shared)` where `shared` is
    /// `None` for the first slot of each key group and `Some(estimate)` —
    /// the third element of the previous return — for the rest; it returns
    /// `(score, policy state, estimate)`.
    ///
    /// Stores indexing more than one join attribute fall back to the
    /// per-slot walk with `shared = None` throughout (a bucket of one
    /// index does not pin the other indexed values, so no estimate may be
    /// shared). Either walk visits every resident exactly once, and the
    /// heap orders strictly by `(score, seq)` — a total order, since
    /// sequence numbers are unique — so the visit order is unobservable:
    /// grouped and arena-order rebuilds yield identical eviction behavior.
    pub fn rebuild_priorities_grouped(
        &mut self,
        mut score: impl FnMut(&Tuple, u64, Option<f64>) -> (f64, f64, f64),
    ) {
        if self.join_attrs.len() != 1 {
            self.rebuild_priorities(|tuple, produced| {
                let (sc, st, _) = score(tuple, produced, None);
                (sc, st)
            });
            return;
        }
        self.heap.clear();
        self.deferred = false;
        let Self {
            arena,
            indexes,
            heap,
            produced,
            state,
            ..
        } = self;
        for (_value, cands) in indexes[0].iter_keys() {
            let mut shared: Option<f64> = None;
            for slot in cands.iter() {
                let entry = arena.get(slot).expect("indexed slot is live");
                let i = slot.index();
                let (sc, st, est) = score(&entry.tuple, produced[i], shared);
                shared = Some(est);
                state[i] = st;
                heap.insert(slot, sc, entry.tuple.seq.0);
            }
        }
    }

    /// Rewrites every resident's [`Tuple::stream`] tag to `stream`. Tags
    /// are query-local, so a store changing hands between queries of the
    /// multi-query plane must carry its new owner's id for this stream
    /// before that owner's policy scores the residents.
    pub(crate) fn retag(&mut self, stream: StreamId) {
        for entry in self.arena.iter_mut() {
            entry.tuple.stream = stream;
        }
    }

    /// Iterates over `(Slot, &Tuple)` for all resident tuples in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (Slot, &Tuple)> {
        self.arena.iter().map(|(slot, e)| (slot, &e.tuple))
    }

    /// Entries in the expiry queue, dead ones included (for the test that
    /// bounds it by the capacity).
    #[cfg(test)]
    pub(crate) fn expiry_queue_len(&self) -> usize {
        self.expiry.len()
    }

    /// Internal consistency check used by tests: every resident tuple is in
    /// the heap — or, on a deferred store, none is and the heap is empty —
    /// and in every index bucket its values demand, and vice versa.
    #[cfg(any(test, feature = "audit"))]
    pub(crate) fn check_consistency(&self) {
        if self.deferred {
            assert!(self.heap.is_empty(), "heap entry on a deferred store");
        } else {
            assert_eq!(self.arena.len(), self.heap.len(), "arena vs heap size");
        }
        let n_idx = self.join_attrs.len();
        for (slot, entry) in self.arena.iter() {
            assert!(
                self.deferred || self.heap.contains(slot),
                "live slot missing from heap"
            );
            for (a, &attr) in self.join_attrs.iter().enumerate() {
                let value = entry.tuple.values[attr];
                let pos = self.index_pos[slot.index() * n_idx + a] as usize;
                let bucket = self.indexes[a].probe(value.0);
                assert_eq!(bucket.get(pos), Some(slot), "index_pos desynchronized");
                assert_eq!(self.join_col(attr).get(slot), value, "join column desynchronized");
            }
        }
        if !self.join_attrs.is_empty() {
            let indexed = self.indexes[0].len();
            assert_eq!(indexed, self.arena.len(), "index vs arena size");
        }
    }

    /// Full structural audit: `check_consistency` plus heap-order /
    /// position-map invariants, the open-addressed indexes' internal
    /// invariants *and* a cross-check of their contents against a reference
    /// `HashMap` rebuilt from the arena, the capacity bound, and agreement
    /// between the expiry queue (live front, its due key on record, dead
    /// entries only behind it) and the arena.
    ///
    /// O(n log n); the differential harness calls it after every arrival.
    ///
    /// # Panics
    /// Panics on any violated invariant.
    #[cfg(any(test, feature = "audit"))]
    pub(crate) fn check_invariants(&self) {
        self.check_consistency();
        self.heap.check_invariants();
        self.check_index_against_reference();
        assert!(
            self.arena.len() <= self.capacity,
            "window over capacity: {} > {}",
            self.arena.len(),
            self.capacity
        );
        // The queue's front is live and `next_due` is its due key — or the
        // store would sit on a due tuple, or walk the queue for nothing.
        let front_due = self.expiry.front().map(|&front| {
            let entry = self.arena.get(front).expect("dead entry at the expiry queue's front");
            self.due_key(entry)
        });
        assert_eq!(self.next_due, front_due.unwrap_or(u64::MAX), "next_due out of date");
        // Every live slot must appear in the expiry deque exactly once, and
        // live deque entries must run oldest-first (nondecreasing seq) or
        // FIFO expiration would release tuples out of order.
        let mut seen = std::collections::HashSet::new();
        let mut last_seq: Option<mstream_types::SeqNo> = None;
        for &slot in &self.expiry {
            let Some(entry) = self.arena.get(slot) else {
                continue; // evicted since; surfaces or is compacted later
            };
            assert!(seen.insert(slot), "slot queued for expiry twice: {slot:?}");
            if let Some(prev) = last_seq {
                assert!(
                    entry.tuple.seq >= prev,
                    "expiry deque out of arrival order"
                );
            }
            last_seq = Some(entry.tuple.seq);
            // A resident must not already be past its tuple-window bound.
            if let WindowSpec::Tuples(count) = self.spec {
                assert!(
                    self.arrivals_seen.saturating_sub(entry.arrival_idx) <= count,
                    "resident tuple outlived its tuple window"
                );
            }
        }
        assert_eq!(
            seen.len(),
            self.arena.len(),
            "live slot missing from expiry deque"
        );
    }

    /// Differential check of every open-addressed index against a reference
    /// `HashMap<value, Vec<Slot>>` rebuilt from the arena: per-key slot
    /// multisets must agree exactly and the index must hold no extra keys.
    #[cfg(any(test, feature = "audit"))]
    fn check_index_against_reference(&self) {
        use std::collections::HashMap;
        for (a, &attr) in self.join_attrs.iter().enumerate() {
            self.indexes[a].check_invariants();
            let mut reference: HashMap<u64, Vec<Slot>> = HashMap::new();
            for (slot, entry) in self.arena.iter() {
                reference
                    .entry(entry.tuple.values[attr].0)
                    .or_default()
                    .push(slot);
            }
            assert_eq!(
                self.indexes[a].n_keys(),
                reference.len(),
                "index {a}: distinct-key count diverges from reference"
            );
            for (key, want) in reference.iter_mut() {
                let mut got: Vec<Slot> = self.indexes[a].probe(*key).iter().collect();
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(
                    &got, want,
                    "index {a} key {key}: slots diverge from reference"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mstream_types::{SeqNo, StreamId, VDur};
    use proptest::prelude::*;

    fn tup(seq: u64, ts_secs: u64, a: u64, b: u64) -> Tuple {
        Tuple::new(
            StreamId(0),
            VTime::from_secs(ts_secs),
            SeqNo(seq),
            vec![Value(a), Value(b)],
        )
    }

    fn time_store(cap: usize) -> WindowStore {
        WindowStore::new(WindowSpec::Time(VDur::from_secs(10)), vec![0, 1], cap)
    }

    #[test]
    fn insert_within_capacity_keeps_all() {
        let mut w = time_store(3);
        for i in 0..3 {
            let out = w.insert(tup(i, 0, i, 0), 1.0);
            assert_eq!(out.eviction, Eviction::None);
            assert!(out.slot.is_some());
        }
        assert_eq!(w.len(), 3);
        w.check_consistency();
    }

    #[test]
    fn overflow_evicts_lowest_priority() {
        let mut w = time_store(2);
        w.insert(tup(0, 0, 10, 0), 5.0);
        w.insert(tup(1, 0, 11, 0), 1.0);
        let out = w.insert(tup(2, 0, 12, 0), 3.0);
        match out.eviction {
            Eviction::Evicted(t) => assert_eq!(t.seq, SeqNo(1), "lowest priority evicted"),
            Eviction::None => panic!("expected eviction"),
        }
        assert!(out.slot.is_some());
        assert_eq!(w.len(), 2);
        w.check_consistency();
    }

    #[test]
    fn new_tuple_can_be_its_own_victim() {
        let mut w = time_store(2);
        w.insert(tup(0, 0, 10, 0), 5.0);
        w.insert(tup(1, 0, 11, 0), 4.0);
        let out = w.insert(tup(2, 0, 12, 0), 0.1);
        assert_eq!(out.slot, None, "new tuple was immediately dismissed");
        match out.eviction {
            Eviction::Evicted(t) => assert_eq!(t.seq, SeqNo(2)),
            Eviction::None => panic!("expected eviction"),
        }
        assert_eq!(w.len(), 2);
        w.check_consistency();
    }

    #[test]
    fn time_expiration_is_strict_boundary() {
        let mut w = time_store(10);
        w.insert(tup(0, 0, 1, 1), 1.0);
        w.insert(tup(1, 5, 2, 2), 1.0);
        // p = 10s: the t=0 tuple dies exactly at now=10.
        assert!(w.expire(VTime::from_secs(9)).is_empty());
        let dead = w.expire(VTime::from_secs(10));
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].seq, SeqNo(0));
        assert_eq!(w.len(), 1);
        w.check_consistency();
    }

    #[test]
    fn tuple_window_counts_arrivals_not_residents() {
        let mut w = WindowStore::new(WindowSpec::Tuples(3), vec![0], 10);
        w.insert(tup(0, 0, 1, 0), 1.0);
        // Two arrivals that were shed upstream still age the window.
        w.note_arrivals(1);
        w.note_arrivals(1);
        assert!(w.expire(VTime::ZERO).is_empty(), "2 newer arrivals < 3");
        // A third arrival of the stream is counted ahead of its insert, so
        // the tuple it pushes out leaves before the insert finds it.
        assert_eq!(w.expire_ahead_of(VTime::ZERO, false, drop), 0, "another stream's arrival");
        assert_eq!(w.expire_ahead_of(VTime::ZERO, true, drop), 1, "3 newer arrivals expire the tuple");
        w.insert(tup(1, 0, 2, 0), 1.0);
        assert_eq!((w.len(), w.arrivals_seen()), (1, 4), "the insert counts the arrival once");
    }

    #[test]
    fn a_tuple_window_with_room_for_its_length_never_evicts() {
        for (n, capacity) in [(3u64, 3usize), (3, 2), (1, 1)] {
            let mut w = WindowStore::new(WindowSpec::Tuples(n), vec![0], capacity);
            assert_eq!(w.cannot_fill(), capacity as u64 >= n);
            let mut evicted = 0;
            for seq in 0..40 {
                w.expire_ahead_of(VTime::ZERO, true, drop);
                assert_eq!(w.is_full(), !w.cannot_fill() && seq >= capacity as u64);
                let out = w.insert(tup(seq, 0, seq % 4, 0), seq as f64);
                evicted += usize::from(matches!(out.eviction, Eviction::Evicted(_)));
                w.check_invariants();
            }
            let resident: Vec<u64> = w.iter().map(|(_, t)| t.seq.0).collect();
            if w.cannot_fill() {
                assert_eq!(evicted, 0, "ROWS {n} at capacity {capacity}");
                assert_eq!(resident.len() as u64, n, "the last {n} arrivals");
            } else {
                assert!(evicted > 0, "ROWS {n} at capacity {capacity} sheds");
            }
        }
    }

    #[test]
    fn expire_each_visits_oldest_first_and_counts() {
        let mut w = time_store(10);
        for seq in 0..4 {
            w.insert(tup(seq, seq, 7, 0), 1.0);
        }
        // Window length 10: at t = 12 the tuples stamped 0, 1, 2 are out.
        let mut seen = Vec::new();
        let n = w.expire_each(VTime::from_secs(12), |t| seen.push(t.seq.0));
        assert_eq!((n, seen), (3, vec![0, 1, 2]));
        assert_eq!(w.expire_each(VTime::from_secs(12), drop), 0);
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn probe_finds_matching_tuples() {
        let mut w = time_store(10);
        w.insert(tup(0, 0, 7, 1), 1.0);
        w.insert(tup(1, 0, 7, 2), 1.0);
        w.insert(tup(2, 0, 8, 7), 1.0);
        assert_eq!(w.probe(0, Value(7)).len(), 2);
        assert_eq!(w.probe(0, Value(8)).len(), 1);
        assert_eq!(w.probe(0, Value(9)).len(), 0);
        // Attribute 1 is indexed separately.
        assert_eq!(w.probe(1, Value(7)).len(), 1);
    }

    /// A `ROWS n` window never holds more than `n`, so a lossless budget
    /// far above `n` reserves room for `n` tuples and the arrival only.
    #[test]
    fn a_tuple_window_reserves_its_row_count() {
        let w = WindowStore::new(WindowSpec::Tuples(100), vec![0], 200_001);
        assert!(w.expiry.capacity() <= 101, "{}", w.expiry.capacity());
        assert!(w.produced.capacity() <= 101 && w.state.capacity() <= 101);
        assert!(w.index_pos.capacity() <= 101);
        let w = WindowStore::new(WindowSpec::secs(10), vec![0], 200_001);
        assert_eq!(
            w.produced.capacity(),
            4097,
            "RANGE windows keep the 4096 cap"
        );
    }

    #[test]
    #[should_panic(expected = "not indexed")]
    fn probe_unindexed_attr_panics() {
        let w = WindowStore::new(WindowSpec::Tuples(3), vec![0], 10);
        let _ = w.probe(1, Value(0));
    }

    #[test]
    fn eviction_removes_from_indexes() {
        let mut w = time_store(1);
        w.insert(tup(0, 0, 7, 1), 1.0);
        w.insert(tup(1, 0, 7, 2), 2.0); // evicts seq 0
        assert_eq!(w.probe(0, Value(7)).len(), 1);
        let slot = w.probe(0, Value(7)).get(0).unwrap();
        assert_eq!(w.tuple(slot).unwrap().seq, SeqNo(1));
        w.check_consistency();
    }

    #[test]
    fn produced_counters() {
        let mut w = time_store(4);
        let slot = w.insert(tup(0, 0, 1, 1), 1.0).slot.unwrap();
        assert_eq!(w.produced(slot), Some(0));
        assert_eq!(w.add_produced(slot, 3), Some(3));
        assert_eq!(w.add_produced(slot, 2), Some(5));
        let (victim, _) = w.evict_min().unwrap();
        assert_eq!(victim.seq, SeqNo(0));
        assert_eq!(w.produced(slot), None, "stale after eviction");
    }

    #[test]
    fn produced_counter_resets_on_slot_reuse() {
        // A new tuple that recycles an evicted tuple's arena slot must not
        // inherit its produced counter or policy state.
        let mut w = time_store(1);
        let s0 = w.insert_scored(tup(0, 0, 1, 1), 1.0, 9.0).slot.unwrap();
        assert_eq!(w.add_produced(s0, 7), Some(7));
        w.insert_scored(tup(1, 0, 2, 2), 2.0, 3.0); // evicts seq 0, freeing its slot
        w.insert_scored(tup(2, 0, 3, 3), 3.0, 4.0); // evicts seq 1, recycles slot 0
        let s2 = w.probe(0, Value(3)).get(0).unwrap();
        assert_eq!(s2.index(), s0.index(), "arena slot recycled");
        assert_eq!(w.produced(s2), Some(0));
        assert_eq!(w.state(s2), Some(4.0));
        assert_eq!(w.produced(s0), None, "stale handle still rejected");
        w.check_invariants();
    }

    #[test]
    fn rebuild_priorities_changes_eviction_order() {
        let mut w = time_store(3);
        w.insert(tup(0, 0, 1, 0), 1.0);
        w.insert(tup(1, 0, 2, 0), 2.0);
        w.insert(tup(2, 0, 3, 0), 3.0);
        // Invert: oldest gets the highest score.
        w.rebuild_priorities(|t, _| (100.0 - t.seq.0 as f64, 0.0));
        let (victim, score) = w.evict_min().unwrap();
        assert_eq!(victim.seq, SeqNo(2));
        assert_eq!(score, 98.0);
        w.check_consistency();
    }

    #[test]
    fn grouped_rebuild_shares_one_estimate_per_key() {
        let mut w = WindowStore::new(WindowSpec::secs(10), vec![0], 16);
        // Keys on attr 0: value 7 held by three slots, value 8 by two,
        // value 9 by one.
        for (seq, a) in [(0, 7), (1, 7), (2, 8), (3, 9), (4, 7), (5, 8)] {
            w.insert(tup(seq, 0, a, seq), 1.0);
        }
        let mut estimates = 0u32;
        w.rebuild_priorities_grouped(|t, _produced, shared| {
            let est = shared.unwrap_or_else(|| {
                estimates += 1;
                (t.values[0].0 * 10) as f64
            });
            // Score = shared estimate + per-slot recombine (seq here).
            (est + t.seq.0 as f64, est, est)
        });
        assert_eq!(estimates, 3, "one estimate per distinct key, not per slot");
        // Every slot carries the recombined score and the shared state.
        for (slot, t) in w.iter().collect::<Vec<_>>() {
            let want = (t.values[0].0 * 10) as f64;
            assert_eq!(w.priority(slot), Some(want + t.seq.0 as f64));
            assert_eq!(w.state(slot), Some(want));
        }
        w.check_consistency();
        // Eviction order matches a per-slot rebuild with the same scores.
        let (victim, score) = w.evict_min().unwrap();
        assert_eq!(victim.seq, SeqNo(0), "lowest key, oldest slot");
        assert_eq!(score, 70.0);
    }

    #[test]
    fn grouped_rebuild_multi_attr_falls_back_per_slot() {
        // Two indexed attributes: one bucket does not pin the other value,
        // so the walk must degrade to per-slot with no sharing.
        let mut w = WindowStore::new(WindowSpec::secs(10), vec![0, 1], 16);
        w.insert(tup(0, 0, 7, 1), 1.0);
        w.insert(tup(1, 0, 7, 2), 1.0);
        let mut shared_seen = 0u32;
        let mut calls = 0u32;
        w.rebuild_priorities_grouped(|t, _p, shared| {
            calls += 1;
            if shared.is_some() {
                shared_seen += 1;
            }
            (t.seq.0 as f64, 0.0, 0.0)
        });
        assert_eq!(calls, 2);
        assert_eq!(shared_seen, 0, "no estimate sharing across multi-attr keys");
        w.check_consistency();
    }

    #[test]
    fn deferred_store_keeps_everything_but_the_heap() {
        let mut w = time_store(4);
        let s0 = w.insert(tup(0, 0, 7, 1), 5.0).slot.unwrap();
        w.insert(tup(1, 1, 7, 2), 1.0);
        w.defer_priorities();
        assert!(w.is_deferred() && !w.is_full());
        assert_eq!((w.peek_min(), w.priority(s0)), (None, None), "no priorities");
        assert!(!w.update_priority(s0, 9.0));
        // Unscored inserts, probes, credits and expiry run as ever.
        let s2 = w.insert_unscored(tup(2, 2, 7, 3));
        assert_eq!(w.probe(0, Value(7)).len(), 3);
        assert_eq!(w.add_produced(s2, 4), Some(4));
        assert_eq!(w.arrivals_seen(), 3);
        w.check_invariants();
        assert_eq!(w.expire(VTime::from_secs(10)).len(), 1, "seq 0 expires");
        w.check_invariants();
        // The rebuild ends the deferral and sees the counts kept meanwhile.
        w.rebuild_priorities(|t, produced| (t.seq.0 as f64 + produced as f64, 0.0));
        assert!(!w.is_deferred());
        assert_eq!(w.priority(s2), Some(6.0));
        assert_eq!(w.peek_min().map(|(_, p)| p), Some(1.0));
        w.check_invariants();
    }

    #[test]
    fn deferred_store_is_full_at_capacity_and_still_bounded() {
        let mut w = time_store(2);
        w.defer_priorities();
        w.insert_unscored(tup(0, 0, 1, 1));
        w.insert_unscored(tup(1, 0, 2, 2));
        assert!(w.is_full());
        w.check_invariants();
    }

    #[test]
    #[should_panic(expected = "deferred store with room")]
    fn unscored_insert_into_a_full_store_panics() {
        let mut w = time_store(1);
        w.defer_priorities();
        w.insert_unscored(tup(0, 0, 1, 1));
        w.insert_unscored(tup(1, 0, 2, 2));
    }

    #[test]
    #[should_panic(expected = "rebuild a deferred store")]
    fn scored_insert_into_a_deferred_store_panics() {
        let mut w = time_store(2);
        w.defer_priorities();
        w.insert(tup(0, 0, 1, 1), 1.0);
    }

    #[test]
    #[should_panic(expected = "heap entry on a deferred store")]
    fn consistency_check_rejects_a_heap_entry_on_a_deferred_store() {
        let mut w = time_store(2);
        w.defer_priorities();
        let slot = w.insert_unscored(tup(0, 0, 1, 1));
        w.heap.insert(slot, 1.0, 0);
        w.check_consistency();
    }

    #[test]
    fn full_store_dismisses_a_losing_arrival_untouched() {
        let mut w = time_store(2);
        w.insert(tup(0, 0, 7, 0), 5.0);
        w.insert(tup(1, 0, 7, 0), 4.0);
        let survivor = w.probe(0, Value(7)).get(0);
        // The heap evicts the lowest (score, seq): an arrival tying the
        // minimum's score is younger, so it outlives it.
        let tie = w.insert(tup(2, 0, 7, 0), 4.0);
        assert!(matches!(tie.eviction, Eviction::Evicted(ref t) if t.seq == SeqNo(1)));
        assert!(tie.slot.is_some());
        let loser = w.insert(tup(3, 0, 7, 0), 3.0);
        assert_eq!(loser.slot, None);
        assert!(matches!(loser.eviction, Eviction::Evicted(ref t) if t.seq == SeqNo(3)));
        assert_eq!(w.arrivals_seen(), 4, "a dismissed arrival still counts");
        assert_eq!(w.probe(0, Value(7)).get(0), survivor, "buckets untouched");
        w.check_invariants();
    }

    #[test]
    fn update_priority_single() {
        let mut w = time_store(3);
        let s0 = w.insert(tup(0, 0, 1, 0), 5.0).slot.unwrap();
        w.insert(tup(1, 0, 2, 0), 4.0);
        assert!(w.update_priority(s0, 0.5));
        assert_eq!(w.peek_min().unwrap().0, s0);
        assert_eq!(w.priority(s0), Some(0.5));
    }

    #[test]
    fn expire_after_evictions_skips_stale_entries() {
        let mut w = time_store(2);
        w.insert(tup(0, 0, 1, 0), 0.0);
        w.insert(tup(1, 0, 2, 0), 5.0);
        w.insert(tup(2, 1, 3, 0), 5.0); // evicts seq 0 (front of expiry queue)
        let dead = w.expire(VTime::from_secs(10));
        assert_eq!(dead.len(), 1, "only seq 1 expires; seq 0 already gone");
        assert_eq!(dead[0].seq, SeqNo(1));
        assert_eq!(w.len(), 1);
        w.check_consistency();
    }

    /// [`WindowStore::insert_scored`] as it was before a losing arrival
    /// was dismissed up front: always store, then evict the minimum.
    fn insert_store_then_evict(w: &mut WindowStore, tuple: Tuple, score: f64) -> InsertOutcome {
        w.arrivals_seen += 1;
        let seq = tuple.seq;
        let slot = w.store(tuple, Some(score), 0.0);
        if w.arena.len() <= w.capacity {
            return InsertOutcome {
                slot: Some(slot),
                eviction: Eviction::None,
            };
        }
        let (victim_slot, _) = w.heap.peek_min().expect("non-empty over capacity");
        let victim = w.remove_slot(victim_slot).expect("heap entries are live");
        InsertOutcome {
            slot: (victim.seq != seq).then_some(slot),
            eviction: Eviction::Evicted(victim),
        }
    }

    /// Every bucket of both indexes as resident sequence numbers, in
    /// bucket order — what a probe enumerates, hence the emission order.
    fn buckets(w: &WindowStore) -> Vec<Vec<u64>> {
        let mut out = Vec::new();
        for attr in 0..2 {
            for value in 0..20 {
                let bucket = w.probe(attr, Value(value));
                out.push(bucket.iter().map(|s| w.tuple(s).unwrap().seq.0).collect());
            }
        }
        out
    }

    proptest! {
        /// Dismissing a losing arrival before it is stored is unobservable:
        /// same victims, same stored/dismissed verdicts, same residents in
        /// the same bucket order, same expirations as store-then-evict.
        #[test]
        fn dismissal_matches_store_then_evict(ops in proptest::collection::vec((0u8..4, 0u64..20, 0u64..4), 1..200)) {
            let mut new = WindowStore::new(WindowSpec::Time(VDur::from_secs(5)), vec![0, 1], 6);
            let mut old = WindowStore::new(WindowSpec::Time(VDur::from_secs(5)), vec![0, 1], 6);
            let (mut seq, mut clock) = (0u64, 0u64);
            for (op, val, score) in ops {
                if op == 0 {
                    clock += 1;
                    let now = VTime::from_secs(clock);
                    prop_assert_eq!(new.expire(now), old.expire(now));
                } else {
                    let t = tup(seq, clock, val, val % 3);
                    seq += 1;
                    let a = new.insert(t.clone(), score as f64);
                    let b = insert_store_then_evict(&mut old, t, score as f64);
                    prop_assert_eq!(a.slot.is_some(), b.slot.is_some());
                    prop_assert_eq!(a.eviction, b.eviction);
                }
                prop_assert_eq!(buckets(&new), buckets(&old));
                prop_assert_eq!(new.arrivals_seen(), old.arrivals_seen());
                new.check_invariants();
                old.check_invariants();
            }
        }

        /// Random mixes of inserts, evictions and expirations never break
        /// internal consistency, and capacity is never exceeded.
        #[test]
        fn store_stays_consistent(ops in proptest::collection::vec((0u8..3, 0u64..20, 0u64..5), 1..200)) {
            let mut w = WindowStore::new(WindowSpec::Time(VDur::from_secs(5)), vec![0, 1], 8);
            let mut seq = 0u64;
            let mut clock = 0u64;
            for (op, val, score) in ops {
                match op {
                    0 => {
                        let t = tup(seq, clock, val, val % 3);
                        seq += 1;
                        w.insert(t, score as f64);
                    }
                    1 => {
                        clock += 1;
                        let _ = w.expire(VTime::from_secs(clock));
                    }
                    _ => {
                        let _ = w.evict_min();
                    }
                }
                prop_assert!(w.len() <= 8);
                w.check_invariants();
            }
        }
    }
}
