//! The bounded input queue in front of the join operator.
//!
//! Paper §2: "If a queue forms, it is soon filled to capacity. So, we need
//! to make a load shedding decision to keep the tuples with highest
//! priority in the queue." Max-subset policies evict the least-productive
//! queued tuple; the random-sampling policy gives every queued tuple
//! priority 1 and evicts uniformly at random (§3.2); `FIFO` drops the
//! oldest. [`ShedQueue`] supports all of these through [`QueueVictim`].

use crate::arena::{Arena, Slot};
use crate::heap::IndexedHeap;
use mstream_types::{Tuple, WordBuild};
use rand::Rng;
use std::collections::{HashMap, VecDeque};

/// How a full queue chooses its victim.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueVictim {
    /// Evict the queued-or-offered tuple with the least priority score
    /// (max-subset shedding).
    MinPriority,
    /// Evict a uniformly random queued-or-offered tuple (random-sampling
    /// shedding: every tuple has equal priority).
    Random,
    /// Evict the oldest queued tuple (`FIFO` baseline: drop-oldest).
    Oldest,
}

/// A FIFO queue with bounded capacity and pluggable shedding.
pub struct ShedQueue {
    capacity: usize,
    arena: Arena<(Tuple, f64)>,
    /// FIFO order (lazily cleaned of evicted slots).
    fifo: VecDeque<Slot>,
    heap: IndexedHeap,
    /// Dense list of live slots for O(1) random victim selection.
    live: Vec<Slot>,
    live_pos: HashMap<Slot, usize, WordBuild>,
}

impl ShedQueue {
    /// An empty queue holding at most `capacity` tuples.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        ShedQueue {
            capacity,
            arena: Arena::with_capacity(capacity + 1),
            fifo: VecDeque::with_capacity(capacity + 1),
            heap: IndexedHeap::new(),
            live: Vec::with_capacity(capacity + 1),
            live_pos: HashMap::with_capacity_and_hasher(capacity + 1, WordBuild::default()),
        }
    }

    /// Number of queued tuples.
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Offers a tuple with a priority `score`. If the queue is full, a
    /// victim chosen per `mode` is dropped — possibly the offered tuple
    /// itself. Returns the dropped tuple, if any.
    pub fn offer<R: Rng + ?Sized>(
        &mut self,
        tuple: Tuple,
        score: f64,
        mode: QueueVictim,
        rng: &mut R,
    ) -> Option<Tuple> {
        let seq = tuple.seq;
        self.push(tuple, score);
        if self.arena.len() <= self.capacity {
            return None;
        }
        let victim_slot = match mode {
            QueueVictim::MinPriority => self.heap.peek_min().expect("non-empty").0,
            QueueVictim::Random => self.live[rng.gen_range(0..self.live.len())],
            QueueVictim::Oldest => self.oldest_live().expect("non-empty"),
        };
        let victim = self.remove_slot(victim_slot).expect("victim is live");
        debug_assert!(victim.seq != seq || mode != QueueVictim::Oldest || self.capacity == 0);
        Some(victim)
    }

    /// Appends unconditionally (internal; capacity enforced by `offer`).
    fn push(&mut self, tuple: Tuple, score: f64) {
        let tie = tuple.seq.0;
        let slot = self.arena.insert((tuple, score));
        self.fifo.push_back(slot);
        self.heap.insert(slot, score, tie);
        self.live_pos.insert(slot, self.live.len());
        self.live.push(slot);
    }

    /// Dequeues the oldest tuple for processing.
    pub fn pop_front(&mut self) -> Option<Tuple> {
        let slot = self.oldest_live()?;
        self.remove_slot(slot)
    }

    /// The oldest queued tuple without removing it (the simulation driver
    /// needs its arrival timestamp to schedule service start).
    pub fn peek_front(&mut self) -> Option<&Tuple> {
        let slot = self.oldest_live()?;
        self.arena.get(slot).map(|(t, _)| t)
    }

    /// The oldest live slot, cleaning stale FIFO entries on the way.
    fn oldest_live(&mut self) -> Option<Slot> {
        while let Some(&slot) = self.fifo.front() {
            if self.arena.contains(slot) {
                return Some(slot);
            }
            self.fifo.pop_front();
        }
        None
    }

    fn remove_slot(&mut self, slot: Slot) -> Option<Tuple> {
        let (tuple, _) = self.arena.remove(slot)?;
        self.heap.remove(slot);
        let pos = self.live_pos.remove(&slot).expect("live slot tracked");
        self.live.swap_remove(pos);
        if let Some(&moved) = self.live.get(pos) {
            self.live_pos.insert(moved, pos);
        }
        Some(tuple)
    }

    /// Iterates over queued tuples and their scores, in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, f64)> {
        self.arena.iter().map(|(_, (t, s))| (t, *s))
    }

    #[doc(hidden)]
    pub fn check_consistency(&self) {
        assert_eq!(self.arena.len(), self.heap.len());
        assert_eq!(self.arena.len(), self.live.len());
        assert_eq!(self.live.len(), self.live_pos.len());
        for (i, &slot) in self.live.iter().enumerate() {
            assert!(self.arena.contains(slot));
            assert_eq!(self.live_pos[&slot], i);
        }
    }

    /// Full structural audit: [`Self::check_consistency`] plus heap-order /
    /// position-map invariants, the capacity bound, and agreement between
    /// the lazily-cleaned FIFO deque and the arena.
    ///
    /// Compiled only for tests and the `audit` feature.
    ///
    /// # Panics
    /// Panics on any violated invariant.
    #[cfg(any(test, feature = "audit"))]
    pub fn check_invariants(&self) {
        self.check_consistency();
        self.heap.check_invariants();
        assert!(
            self.arena.len() <= self.capacity,
            "queue over capacity: {} > {}",
            self.arena.len(),
            self.capacity
        );
        let live_in_fifo = self
            .fifo
            .iter()
            .filter(|&&s| self.arena.contains(s))
            .count();
        assert_eq!(
            live_in_fifo,
            self.arena.len(),
            "queued tuple missing from FIFO deque"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mstream_types::{SeqNo, StreamId, VTime, Value};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tup(seq: u64) -> Tuple {
        Tuple::new(StreamId(0), VTime::ZERO, SeqNo(seq), vec![Value(seq)])
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1)
    }

    #[test]
    fn fifo_order_preserved() {
        let mut q = ShedQueue::new(5);
        let mut r = rng();
        for i in 0..3 {
            assert!(q.offer(tup(i), 1.0, QueueVictim::MinPriority, &mut r).is_none());
        }
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop_front().unwrap().seq, SeqNo(0));
        assert_eq!(q.pop_front().unwrap().seq, SeqNo(1));
        assert_eq!(q.pop_front().unwrap().seq, SeqNo(2));
        assert!(q.pop_front().is_none());
    }

    #[test]
    fn min_priority_eviction_drops_least() {
        let mut q = ShedQueue::new(2);
        let mut r = rng();
        q.offer(tup(0), 5.0, QueueVictim::MinPriority, &mut r);
        q.offer(tup(1), 1.0, QueueVictim::MinPriority, &mut r);
        let dropped = q.offer(tup(2), 3.0, QueueVictim::MinPriority, &mut r).unwrap();
        assert_eq!(dropped.seq, SeqNo(1));
        // FIFO order of survivors unchanged.
        assert_eq!(q.pop_front().unwrap().seq, SeqNo(0));
        assert_eq!(q.pop_front().unwrap().seq, SeqNo(2));
    }

    #[test]
    fn offered_tuple_can_be_the_victim() {
        let mut q = ShedQueue::new(1);
        let mut r = rng();
        q.offer(tup(0), 9.0, QueueVictim::MinPriority, &mut r);
        let dropped = q.offer(tup(1), 0.5, QueueVictim::MinPriority, &mut r).unwrap();
        assert_eq!(dropped.seq, SeqNo(1), "low-priority newcomer rejected");
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn oldest_eviction_is_drop_oldest() {
        let mut q = ShedQueue::new(2);
        let mut r = rng();
        q.offer(tup(0), 1.0, QueueVictim::Oldest, &mut r);
        q.offer(tup(1), 1.0, QueueVictim::Oldest, &mut r);
        let dropped = q.offer(tup(2), 1.0, QueueVictim::Oldest, &mut r).unwrap();
        assert_eq!(dropped.seq, SeqNo(0));
        assert_eq!(q.pop_front().unwrap().seq, SeqNo(1));
    }

    #[test]
    fn random_eviction_hits_everyone_eventually() {
        // With a full queue of 3 and many offers, every position should be
        // evicted at least once under uniform selection.
        let mut seen_drop_of_initial = std::collections::HashSet::new();
        for seed in 0..40u64 {
            let mut q = ShedQueue::new(3);
            let mut r = StdRng::seed_from_u64(seed);
            for i in 0..3 {
                q.offer(tup(i), 1.0, QueueVictim::Random, &mut r);
            }
            if let Some(d) = q.offer(tup(99), 1.0, QueueVictim::Random, &mut r) {
                seen_drop_of_initial.insert(d.seq.0);
            }
        }
        assert!(
            seen_drop_of_initial.len() >= 3,
            "random eviction too narrow: {seen_drop_of_initial:?}"
        );
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut q = ShedQueue::new(4);
        let mut r = rng();
        for i in 0..50 {
            q.offer(tup(i), (i % 7) as f64, QueueVictim::MinPriority, &mut r);
            assert!(q.len() <= 4);
            q.check_consistency();
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = ShedQueue::new(0);
    }

    /// Capacity 1 is the degenerate hot path: every offer past the first
    /// forces an eviction, under every victim mode. The queue must stay at
    /// exactly one resident, stay internally consistent, and account for
    /// every tuple exactly once (dropped or still resident).
    #[test]
    fn capacity_one_churn_under_each_mode() {
        for mode in [QueueVictim::MinPriority, QueueVictim::Random, QueueVictim::Oldest] {
            let mut q = ShedQueue::new(1);
            let mut r = rng();
            let mut dropped = Vec::new();
            for i in 0..20u64 {
                // Alternate high/low scores so MinPriority exercises both
                // keep-resident and keep-newcomer branches.
                let score = if i % 2 == 0 { 1.0 } else { 9.0 };
                if let Some(d) = q.offer(tup(i), score, mode, &mut r) {
                    dropped.push(d.seq.0);
                }
                assert_eq!(q.len(), 1, "{mode:?}: cap-1 queue must hold exactly one");
                q.check_consistency();
            }
            let resident = q.pop_front().expect("one resident").seq.0;
            dropped.push(resident);
            dropped.sort_unstable();
            assert_eq!(dropped, (0..20).collect::<Vec<_>>(), "{mode:?}: tuple lost or duplicated");
        }
    }

    /// Under `Random` the offered tuple is in the victim pool too: over
    /// enough seeds a cap-1 queue must sometimes bounce the newcomer and
    /// sometimes replace the resident.
    #[test]
    fn offered_tuple_can_be_random_victim() {
        let (mut newcomer_dropped, mut resident_dropped) = (false, false);
        for seed in 0..64u64 {
            let mut q = ShedQueue::new(1);
            let mut r = StdRng::seed_from_u64(seed);
            q.offer(tup(0), 1.0, QueueVictim::Random, &mut r);
            match q.offer(tup(1), 1.0, QueueVictim::Random, &mut r) {
                Some(d) if d.seq == SeqNo(1) => newcomer_dropped = true,
                Some(d) if d.seq == SeqNo(0) => resident_dropped = true,
                other => panic!("full cap-1 queue must evict exactly one: {other:?}"),
            }
            q.check_consistency();
        }
        assert!(newcomer_dropped, "offered tuple never chosen as random victim");
        assert!(resident_dropped, "resident never chosen as random victim");
    }

    /// Random shedding is a function of the RNG stream: two runs with the
    /// same seed and same offers evict the same victims in the same order.
    /// (Replayability of audit failures depends on this.)
    #[test]
    fn random_shedding_deterministic_under_fixed_seed() {
        let run = |seed: u64| {
            let mut q = ShedQueue::new(3);
            let mut r = StdRng::seed_from_u64(seed);
            let mut drops = Vec::new();
            for i in 0..50u64 {
                if let Some(d) = q.offer(tup(i), 1.0, QueueVictim::Random, &mut r) {
                    drops.push(d.seq.0);
                }
            }
            drops
        };
        assert_eq!(run(42), run(42), "same seed must replay identically");
        assert_ne!(run(42), run(43), "different seeds should diverge on 47 evictions");
    }

    proptest! {
        /// Arbitrary offer/pop sequences keep the queue consistent and
        /// FIFO pops come out in strictly increasing seq order between
        /// evictions.
        #[test]
        fn queue_stays_consistent(ops in proptest::collection::vec((prop::bool::ANY, 0u8..3, 0u64..10), 1..200)) {
            let mut q = ShedQueue::new(5);
            let mut r = StdRng::seed_from_u64(7);
            let mut seq = 0u64;
            let mut last_popped: Option<u64> = None;
            for (is_offer, mode, score) in ops {
                if is_offer {
                    let mode = match mode {
                        0 => QueueVictim::MinPriority,
                        1 => QueueVictim::Random,
                        _ => QueueVictim::Oldest,
                    };
                    q.offer(tup(seq), score as f64, mode, &mut r);
                    seq += 1;
                } else if let Some(t) = q.pop_front() {
                    if let Some(prev) = last_popped {
                        prop_assert!(t.seq.0 > prev, "FIFO order violated");
                    }
                    last_popped = Some(t.seq.0);
                }
                prop_assert!(q.len() <= 5);
                q.check_consistency();
            }
        }
    }
}
