//! An indexed binary min-heap over arena slots.
//!
//! Shedding needs `pop_min` (evict the least-priority tuple) while
//! expiration and probing need `remove(slot)` for tuples that leave for
//! other reasons, and tumbling-epoch rollover needs `update(slot, prio)`.
//! A binary heap augmented with a slot→position map supports all three in
//! O(log n).

use crate::arena::Slot;

/// Heap priority: an `f64` score with a `u64` tiebreaker.
///
/// Scores must be finite (`NaN` would poison the heap order); the
/// tiebreaker (the tuple's arrival sequence number) makes the eviction
/// order — and therefore every experiment — fully deterministic even when
/// scores collide. Lower tiebreaker wins ties, i.e. among equal-priority
/// tuples the oldest is evicted first.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Prio {
    score: f64,
    tie: u64,
}

impl Prio {
    fn new(score: f64, tie: u64) -> Self {
        assert!(score.is_finite(), "heap priority must be finite, got {score}");
        Prio { score, tie }
    }

    fn less(&self, other: &Prio) -> bool {
        match self.score.partial_cmp(&other.score).expect("finite scores") {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => self.tie < other.tie,
        }
    }
}

/// A min-heap of `(Slot, priority)` with O(log n) arbitrary removal.
///
/// The slot→position map is a flat array indexed by the slot's dense arena
/// index (`positions[i]` = heap position + 1, 0 = absent) rather than a
/// `HashMap<Slot, usize>`: every sift step updates positions, so keeping
/// the map hash-free takes SipHash out of the insert/evict/rescore hot
/// path entirely. Stale handles are detected by comparing the stored slot
/// (index *and* generation) at the recorded position; at most one
/// generation of an arena index can be resident, which the arena-backed
/// users (window stores, shed queues) guarantee structurally.
#[derive(Default)]
pub struct IndexedHeap {
    /// Heap-ordered array of (slot, priority).
    heap: Vec<(Slot, Prio)>,
    /// `positions[slot.index()]` = position in `heap` + 1, or 0 if the
    /// index is not resident.
    positions: Vec<u32>,
}

impl IndexedHeap {
    /// An empty heap.
    pub fn new() -> Self {
        IndexedHeap::default()
    }

    /// The heap position of `slot`, generation-checked: a stale handle
    /// whose arena index was reused maps to a cell holding the *new*
    /// slot, which the comparison rejects.
    #[inline]
    fn position(&self, slot: Slot) -> Option<usize> {
        let p = *self.positions.get(slot.index())?;
        if p == 0 {
            return None;
        }
        let pos = (p - 1) as usize;
        (self.heap[pos].0 == slot).then_some(pos)
    }

    #[inline]
    fn set_position(&mut self, slot: Slot, pos: usize) {
        self.positions[slot.index()] = pos as u32 + 1;
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the heap is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Inserts `slot` with the given score and tiebreaker.
    ///
    /// # Panics
    /// Panics if `slot` is already present or `score` is not finite.
    pub fn insert(&mut self, slot: Slot, score: f64, tie: u64) {
        let i = slot.index();
        if i >= self.positions.len() {
            self.positions.resize(i + 1, 0);
        }
        assert!(self.positions[i] == 0, "slot already in heap: {slot:?}");
        let prio = Prio::new(score, tie);
        let idx = self.heap.len();
        self.heap.push((slot, prio));
        self.set_position(slot, idx);
        self.sift_up(idx);
    }

    /// The minimum entry without removing it.
    pub fn peek_min(&self) -> Option<(Slot, f64)> {
        self.heap.first().map(|&(s, p)| (s, p.score))
    }

    /// Whether an entry `(score, tie)` would sort strictly before the
    /// current minimum (`false` on an empty heap).
    ///
    /// # Panics
    /// Panics if `score` is not finite.
    pub fn would_be_min(&self, score: f64, tie: u64) -> bool {
        let prio = Prio::new(score, tie);
        self.heap.first().is_some_and(|(_, min)| prio.less(min))
    }

    /// Removes and returns the minimum-priority slot.
    pub fn pop_min(&mut self) -> Option<(Slot, f64)> {
        if self.heap.is_empty() {
            return None;
        }
        let (slot, prio) = self.heap[0];
        self.remove_at(0);
        Some((slot, prio.score))
    }

    /// Removes `slot` wherever it is; returns its score if present.
    pub fn remove(&mut self, slot: Slot) -> Option<f64> {
        let idx = self.position(slot)?;
        let score = self.heap[idx].1.score;
        self.remove_at(idx);
        Some(score)
    }

    /// Changes the score of `slot` (tiebreaker preserved); true if present.
    pub fn update(&mut self, slot: Slot, score: f64) -> bool {
        let Some(idx) = self.position(slot) else {
            return false;
        };
        let old = self.heap[idx].1;
        let new = Prio::new(score, old.tie);
        self.heap[idx].1 = new;
        if new.less(&old) {
            self.sift_up(idx);
        } else {
            self.sift_down(idx);
        }
        true
    }

    /// Whether `slot` is in the heap.
    pub fn contains(&self, slot: Slot) -> bool {
        self.position(slot).is_some()
    }

    /// The score of `slot`, if present.
    pub fn score(&self, slot: Slot) -> Option<f64> {
        self.position(slot).map(|idx| self.heap[idx].1.score)
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        for i in 0..self.heap.len() {
            self.positions[self.heap[i].0.index()] = 0;
        }
        self.heap.clear();
    }

    /// Iterates over all `(slot, score)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (Slot, f64)> + '_ {
        self.heap.iter().map(|&(s, p)| (s, p.score))
    }

    fn remove_at(&mut self, idx: usize) {
        let last = self.heap.len() - 1;
        let (removed_slot, _) = self.heap[idx];
        self.heap.swap(idx, last);
        self.heap.pop();
        self.positions[removed_slot.index()] = 0;
        if idx <= last && idx < self.heap.len() {
            let moved = self.heap[idx].0;
            self.set_position(moved, idx);
            self.sift_down(idx);
            self.sift_up(idx);
        }
    }

    fn sift_up(&mut self, mut idx: usize) {
        while idx > 0 {
            let parent = (idx - 1) / 2;
            if self.heap[idx].1.less(&self.heap[parent].1) {
                self.swap_entries(idx, parent);
                idx = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut idx: usize) {
        loop {
            let left = 2 * idx + 1;
            let right = 2 * idx + 2;
            let mut smallest = idx;
            if left < self.heap.len() && self.heap[left].1.less(&self.heap[smallest].1) {
                smallest = left;
            }
            if right < self.heap.len() && self.heap[right].1.less(&self.heap[smallest].1) {
                smallest = right;
            }
            if smallest == idx {
                break;
            }
            self.swap_entries(idx, smallest);
            idx = smallest;
        }
    }

    fn swap_entries(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.set_position(self.heap[a].0, a);
        self.set_position(self.heap[b].0, b);
    }

    /// Structural invariant check: heap order + position-map bijection.
    ///
    /// O(n); compiled only for tests and the `audit` feature, where the
    /// differential harness calls it after every arrival.
    ///
    /// # Panics
    /// Panics if the binary-heap order is violated, or if `positions` is
    /// not an exact inverse of the heap array (missing, stale, or
    /// duplicated entries).
    #[cfg(any(test, feature = "audit"))]
    pub fn check_invariants(&self) {
        let resident = self.positions.iter().filter(|&&p| p != 0).count();
        assert_eq!(
            self.heap.len(),
            resident,
            "heap/position-map size mismatch"
        );
        for (i, &(slot, ref prio)) in self.heap.iter().enumerate() {
            assert_eq!(
                self.position(slot),
                Some(i),
                "position map stale for {slot:?}"
            );
            if i > 0 {
                let parent = &self.heap[(i - 1) / 2].1;
                assert!(!prio.less(parent), "heap order violated at {i}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::Arena;
    use proptest::prelude::*;

    /// Mints distinct slots by using a throwaway arena.
    fn slots(n: usize) -> Vec<Slot> {
        let mut arena = Arena::new();
        (0..n).map(|i| arena.insert(i)).collect()
    }

    #[test]
    fn pops_in_priority_order() {
        let ss = slots(5);
        let mut h = IndexedHeap::new();
        for (i, (&s, score)) in ss.iter().zip([5.0, 1.0, 3.0, 2.0, 4.0]).enumerate() {
            h.insert(s, score, i as u64);
        }
        let order: Vec<f64> = std::iter::from_fn(|| h.pop_min().map(|(_, p)| p)).collect();
        assert_eq!(order, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn ties_break_by_sequence_oldest_first() {
        let ss = slots(3);
        let mut h = IndexedHeap::new();
        h.insert(ss[0], 1.0, 30);
        h.insert(ss[1], 1.0, 10);
        h.insert(ss[2], 1.0, 20);
        assert_eq!(h.pop_min().unwrap().0, ss[1]);
        assert_eq!(h.pop_min().unwrap().0, ss[2]);
        assert_eq!(h.pop_min().unwrap().0, ss[0]);
    }

    #[test]
    fn remove_arbitrary_entries() {
        let ss = slots(4);
        let mut h = IndexedHeap::new();
        for (i, &s) in ss.iter().enumerate() {
            h.insert(s, i as f64, i as u64);
        }
        assert_eq!(h.remove(ss[1]), Some(1.0));
        assert_eq!(h.remove(ss[1]), None, "second removal is a no-op");
        let remaining: Vec<f64> =
            std::iter::from_fn(|| h.pop_min().map(|(_, p)| p)).collect();
        assert_eq!(remaining, vec![0.0, 2.0, 3.0]);
    }

    #[test]
    fn update_reorders() {
        let ss = slots(3);
        let mut h = IndexedHeap::new();
        h.insert(ss[0], 1.0, 0);
        h.insert(ss[1], 2.0, 1);
        h.insert(ss[2], 3.0, 2);
        assert!(h.update(ss[2], 0.5));
        assert_eq!(h.peek_min().unwrap().0, ss[2]);
        assert!(h.update(ss[2], 10.0));
        assert_eq!(h.peek_min().unwrap().0, ss[0]);
        assert_eq!(h.score(ss[2]), Some(10.0));
    }

    #[test]
    fn contains_and_clear() {
        let ss = slots(2);
        let mut h = IndexedHeap::new();
        h.insert(ss[0], 1.0, 0);
        assert!(h.contains(ss[0]));
        assert!(!h.contains(ss[1]));
        h.clear();
        assert!(h.is_empty());
        assert!(!h.contains(ss[0]));
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn nan_scores_rejected() {
        let ss = slots(1);
        IndexedHeap::new().insert(ss[0], f64::NAN, 0);
    }

    #[test]
    #[should_panic(expected = "already in heap")]
    fn duplicate_insert_rejected() {
        let ss = slots(1);
        let mut h = IndexedHeap::new();
        h.insert(ss[0], 1.0, 0);
        h.insert(ss[0], 2.0, 1);
    }

    proptest! {
        /// Under arbitrary insert/remove/update/pop interleavings the heap
        /// keeps its invariants and pop_min always returns the true minimum.
        #[test]
        fn maintains_invariants(ops in proptest::collection::vec((0u8..4, 0usize..16, -100i32..100), 1..300)) {
            let all = slots(16);
            let mut h = IndexedHeap::new();
            let mut model: std::collections::HashMap<Slot, (f64, u64)> = Default::default();
            let mut tie = 0u64;
            for (op, which, score) in ops {
                let slot = all[which];
                let score = score as f64;
                match op {
                    0 => {
                        if let std::collections::hash_map::Entry::Vacant(e) = model.entry(slot) {
                            h.insert(slot, score, tie);
                            e.insert((score, tie));
                            tie += 1;
                        }
                    }
                    1 => {
                        let got = h.remove(slot);
                        let expect = model.remove(&slot).map(|(s, _)| s);
                        prop_assert_eq!(got, expect);
                    }
                    2 => {
                        let present = h.update(slot, score);
                        prop_assert_eq!(present, model.contains_key(&slot));
                        if let Some(entry) = model.get_mut(&slot) {
                            entry.0 = score;
                        }
                    }
                    _ => {
                        let got = h.pop_min();
                        // The model's minimum under (score, tie) order.
                        let expect = model
                            .iter()
                            .min_by(|a, b| {
                                a.1 .0.partial_cmp(&b.1 .0).unwrap().then(a.1 .1.cmp(&b.1 .1))
                            })
                            .map(|(&s, &(sc, _))| (s, sc));
                        prop_assert_eq!(got, expect);
                        if let Some((s, _)) = got {
                            model.remove(&s);
                        }
                    }
                }
                h.check_invariants();
                prop_assert_eq!(h.len(), model.len());
            }
        }
    }
}
