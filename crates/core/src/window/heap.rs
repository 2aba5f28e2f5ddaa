//! An indexed 4-ary min-heap over arena slots.
//!
//! Shedding needs `peek_min` / `replace_min` (find the least-priority
//! tuple to evict, or hand its place to the arrival that displaces it) while
//! expiration and probing need `remove(slot)` for tuples that leave for
//! other reasons, and tumbling-epoch rollover needs `update(slot, prio)`.
//! A d-ary heap augmented with a slot→position map supports all of them in
//! O(log n). Four children a node: a sift-down — the eviction path — walks
//! half the levels of a binary heap and finds each level's children side by
//! side, and the order being total, the layout is unobservable.

use crate::arena::Slot;

/// Children per node. Private: nothing outside the sifts can tell.
const ARITY: usize = 4;

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

    /// `(score, tie)` as one unsigned integer that sorts as the pair does:
    /// the score's sign-magnitude bits turned into offset binary (which
    /// grows with the score, and where −0.0 and 0.0 — equal, so tied — are
    /// one value) above the tiebreaker. Sifts compare ranks: integer
    /// compares that select without branching, where float compares on
    /// scores in no particular order mispredict every other time.
    #[inline]
    fn rank(&self) -> u128 {
        let bits = self.score.to_bits();
        let negative = ((bits as i64) >> 63) as u64; // all ones, or none
        let magnitude = bits & (u64::MAX >> 1);
        let ordered = (magnitude ^ negative).wrapping_sub(negative) ^ (1 << 63);
        (ordered as u128) << 64 | self.tie as u128
    }

    /// Strictly before `other` in `(score, tie)` order.
    #[inline]
    fn less(&self, other: &Prio) -> bool {
        self.rank() < other.rank()
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
///
/// The sifts move a *hole*: the entry being placed is held aside while
/// the entries in its way shift one level each (one array write and one
/// position write a level), and is written once where the hole stops.
#[derive(Default)]
pub(crate) struct IndexedHeap {
    /// Heap-ordered array of (slot, priority).
    heap: Vec<(Slot, Prio)>,
    /// `positions[slot.index()]` = position in `heap` + 1, or 0 if the
    /// index is not resident.
    positions: Vec<u32>,
}

impl IndexedHeap {
    /// An empty heap.
    pub(crate) fn new() -> Self {
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

    /// Writes `entry` at `pos` and records the position.
    #[inline]
    fn place(&mut self, pos: usize, entry: (Slot, Prio)) {
        self.heap[pos] = entry;
        self.positions[entry.0.index()] = pos as u32 + 1;
    }

    /// Makes room for `slot` in the position map and checks it is absent.
    #[inline]
    fn claim(&mut self, slot: Slot) {
        let i = slot.index();
        if i >= self.positions.len() {
            self.positions.resize(i + 1, 0);
        }
        assert!(self.positions[i] == 0, "slot already in heap: {slot:?}");
    }

    /// Number of entries.
    #[cfg(any(test, feature = "audit"))]
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the heap is empty.
    #[cfg(any(test, feature = "audit"))]
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Inserts `slot` with the given score and tiebreaker.
    ///
    /// # Panics
    /// Panics if `slot` is already present or `score` is not finite.
    pub(crate) fn insert(&mut self, slot: Slot, score: f64, tie: u64) {
        self.claim(slot);
        let entry = (slot, Prio::new(score, tie));
        let hole = self.heap.len();
        self.heap.push(entry);
        self.sift_up(hole, entry);
    }

    /// The minimum entry without removing it.
    pub(crate) fn peek_min(&self) -> Option<(Slot, f64)> {
        self.heap.first().map(|&(s, p)| (s, p.score))
    }

    /// Whether an entry `(score, tie)` would sort strictly before the
    /// current minimum (`false` on an empty heap).
    ///
    /// # Panics
    /// Panics if `score` is not finite.
    pub(crate) fn would_be_min(&self, score: f64, tie: u64) -> bool {
        let prio = Prio::new(score, tie);
        self.heap.first().is_some_and(|(_, min)| prio.less(min))
    }

    /// Removes the minimum and inserts `slot` in one sift: the newcomer
    /// takes the root's place and sinks from there. `slot` may reuse the
    /// minimum's arena index (an in-place arena replacement). Returns the
    /// removed minimum.
    ///
    /// # Panics
    /// Panics if the heap is empty, `slot` is already present or `score`
    /// is not finite.
    pub(crate) fn replace_min(&mut self, slot: Slot, score: f64, tie: u64) -> (Slot, f64) {
        let &(min, prio) = self.heap.first().expect("replace_min on an empty heap");
        self.positions[min.index()] = 0;
        self.claim(slot);
        self.sift_down(0, (slot, Prio::new(score, tie)));
        (min, prio.score)
    }

    /// Removes `slot` wherever it is; returns its score if present.
    pub(crate) fn remove(&mut self, slot: Slot) -> Option<f64> {
        let idx = self.position(slot)?;
        let score = self.heap[idx].1.score;
        self.remove_at(idx);
        Some(score)
    }

    /// Changes the score of `slot` (tiebreaker preserved); true if present.
    pub(crate) fn update(&mut self, slot: Slot, score: f64) -> bool {
        let Some(idx) = self.position(slot) else {
            return false;
        };
        let old = self.heap[idx].1;
        self.resift(idx, (slot, Prio::new(score, old.tie)), &old);
        true
    }

    /// Whether `slot` is in the heap.
    #[cfg(any(test, feature = "audit"))]
    pub(crate) fn contains(&self, slot: Slot) -> bool {
        self.position(slot).is_some()
    }

    /// The score of `slot`, if present.
    #[cfg(test)]
    pub(crate) fn score(&self, slot: Slot) -> Option<f64> {
        self.position(slot).map(|idx| self.heap[idx].1.score)
    }

    /// Removes every entry.
    pub(crate) fn clear(&mut self) {
        for i in 0..self.heap.len() {
            self.positions[self.heap[i].0.index()] = 0;
        }
        self.heap.clear();
    }

    /// Removes the entry at `idx`: the last entry fills the hole it leaves.
    fn remove_at(&mut self, idx: usize) {
        let (removed, old) = self.heap[idx];
        self.positions[removed.index()] = 0;
        let last = self.heap.pop().expect("idx is in range");
        if idx < self.heap.len() {
            self.resift(idx, last, &old);
        }
    }

    /// Places `entry` into the hole at `idx`, which held priority `old`:
    /// towards the root if it sorts before `old`, towards the leaves
    /// otherwise.
    fn resift(&mut self, idx: usize, entry: (Slot, Prio), old: &Prio) {
        if entry.1.less(old) {
            self.sift_up(idx, entry);
        } else {
            self.sift_down(idx, entry);
        }
    }

    /// Moves the hole at `idx` up while `entry` sorts before its parent,
    /// then places `entry`.
    fn sift_up(&mut self, mut idx: usize, entry: (Slot, Prio)) {
        let rank = entry.1.rank();
        while idx > 0 {
            let parent = (idx - 1) / ARITY;
            let above = self.heap[parent];
            if rank >= above.1.rank() {
                break;
            }
            self.place(idx, above);
            idx = parent;
        }
        self.place(idx, entry);
    }

    /// Moves the hole at `idx` down while its least child sorts before
    /// `entry`, then places `entry`.
    fn sift_down(&mut self, mut idx: usize, entry: (Slot, Prio)) {
        let rank = entry.1.rank();
        while let Some((least, least_rank)) = self.least_child(idx) {
            if least_rank >= rank {
                break;
            }
            self.place(idx, self.heap[least]);
            idx = least;
        }
        self.place(idx, entry);
    }

    /// The position and rank of the least child of `idx`; `None` at a leaf.
    #[inline]
    fn least_child(&self, idx: usize) -> Option<(usize, u128)> {
        let first = ARITY * idx + 1;
        let pick = |a: (usize, u128), b: (usize, u128)| if b.1 < a.1 { b } else { a };
        let ranked = |child: usize| (child, self.heap[child].1.rank());
        if let Some(full) = self.heap.get(first..first + ARITY) {
            // A full group, as every one but the last: two rounds of a
            // knock-out, the first round's pair independent of each other.
            let r = |c: usize| (first + c, full[c].1.rank());
            return Some(pick(pick(r(0), r(1)), pick(r(2), r(3))));
        }
        (first..self.heap.len()).map(ranked).reduce(pick)
    }

    /// Structural invariant check: heap order + position-map bijection.
    ///
    /// O(n); the differential harness calls it after every arrival.
    ///
    /// # Panics
    /// Panics if the heap order is violated, or if `positions` is not an
    /// exact inverse of the heap array (missing, stale, or duplicated
    /// entries).
    #[cfg(any(test, feature = "audit"))]
    pub(crate) fn check_invariants(&self) {
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
                let parent = &self.heap[(i - 1) / ARITY].1;
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

    /// Removes and returns the minimum, the way an eviction does.
    fn pop_min(h: &mut IndexedHeap) -> Option<(Slot, f64)> {
        let (slot, score) = h.peek_min()?;
        h.remove(slot);
        Some((slot, score))
    }

    #[test]
    fn pops_in_priority_order() {
        let ss = slots(5);
        let mut h = IndexedHeap::new();
        for (i, (&s, score)) in ss.iter().zip([5.0, 1.0, 3.0, 2.0, 4.0]).enumerate() {
            h.insert(s, score, i as u64);
        }
        let order: Vec<f64> = std::iter::from_fn(|| pop_min(&mut h).map(|(_, p)| p)).collect();
        assert_eq!(order, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn ties_break_by_sequence_oldest_first() {
        let ss = slots(3);
        let mut h = IndexedHeap::new();
        h.insert(ss[0], 1.0, 30);
        h.insert(ss[1], 1.0, 10);
        h.insert(ss[2], 1.0, 20);
        assert_eq!(pop_min(&mut h).unwrap().0, ss[1]);
        assert_eq!(pop_min(&mut h).unwrap().0, ss[2]);
        assert_eq!(pop_min(&mut h).unwrap().0, ss[0]);
    }

    #[test]
    fn rank_sorts_as_score_then_tie() {
        let scores = [
            -f64::MAX, -1e12, -1.0, -f64::MIN_POSITIVE, -5e-324, -0.0, 0.0, 5e-324,
            f64::MIN_POSITIVE, 0.5, 1.0, 1e12, f64::MAX,
        ];
        for &a in &scores {
            for &b in &scores {
                for (ta, tb) in [(0, 0), (0, 1), (1, 0), (u64::MAX, 0)] {
                    let (pa, pb) = (Prio::new(a, ta), Prio::new(b, tb));
                    let want = a.partial_cmp(&b).unwrap().then(ta.cmp(&tb));
                    assert_eq!(pa.rank().cmp(&pb.rank()), want, "({a}, {ta}) vs ({b}, {tb})");
                    assert_eq!(pa.less(&pb), want.is_lt());
                }
            }
        }
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
            std::iter::from_fn(|| pop_min(&mut h).map(|(_, p)| p)).collect();
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
        /// Under arbitrary insert / remove / update / pop / replace-min
        /// interleavings the heap keeps its invariants and agrees with a
        /// `Vec` kept sorted by `partial_cmp` on the score, then the
        /// tiebreaker — so −0.0 and 0.0 tie — on every minimum it names
        /// and, drained at the end, on the whole order. Half the scores
        /// come from five values, both zeros among them.
        #[test]
        fn maintains_invariants(ops in proptest::collection::vec((0u8..6, 0usize..16, -100i32..100), 1..300)) {
            let mut arena = Arena::new();
            let mut all: Vec<Slot> = (0..16).map(|i| arena.insert(i)).collect();
            let mut h = IndexedHeap::new();
            let mut model: Vec<(f64, u64, Slot)> = Vec::new();
            let resort = |model: &mut Vec<(f64, u64, Slot)>| {
                model.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
            };
            let mut tie = 0u64;
            for (op, which, raw) in ops {
                let slot = all[which];
                let score = if raw % 2 == 0 {
                    [-0.0, 0.0, 1.0, -1.0, 2.5][raw.unsigned_abs() as usize % 5]
                } else {
                    raw as f64
                };
                let at = model.iter().position(|e| e.2 == slot);
                match op {
                    0 | 1 => {
                        if at.is_none() {
                            h.insert(slot, score, tie);
                            model.push((score, tie, slot));
                            tie += 1;
                        }
                    }
                    2 => {
                        let expect = at.map(|at| model.remove(at).0);
                        prop_assert_eq!(h.remove(slot).map(f64::to_bits), expect.map(f64::to_bits));
                    }
                    3 => {
                        prop_assert_eq!(h.update(slot, score), at.is_some());
                        if let Some(at) = at {
                            model[at].0 = score;
                        }
                    }
                    4 => {
                        let expect = (!model.is_empty()).then(|| model.remove(0));
                        prop_assert_eq!(pop_min(&mut h), expect.map(|(score, _, s)| (s, score)));
                    }
                    _ => {
                        // The newcomer takes the minimum's place — a slot
                        // not in the heap, or, as the window store does it,
                        // the next generation of the minimum's own index.
                        let Some(&(min_score, _, min)) = model.first() else { continue };
                        let fresh = match at {
                            None => slot,
                            Some(_) => {
                                let (fresh, _) = arena.replace(min, 0).unwrap();
                                all[min.index()] = fresh;
                                fresh
                            }
                        };
                        prop_assert_eq!(h.replace_min(fresh, score, tie), (min, min_score));
                        model[0] = (score, tie, fresh);
                        tie += 1;
                        prop_assert!(!h.contains(min) && h.contains(fresh));
                    }
                }
                resort(&mut model);
                h.check_invariants();
                prop_assert_eq!(h.len(), model.len());
                prop_assert_eq!(h.peek_min(), model.first().map(|&(score, _, s)| (s, score)));
                prop_assert_eq!(
                    h.would_be_min(score, tie),
                    model.first().is_some_and(|m| score < m.0 || (score == m.0 && tie < m.1))
                );
            }
            let drained: Vec<Slot> =
                std::iter::from_fn(|| pop_min(&mut h).map(|(s, _)| s)).collect();
            prop_assert_eq!(drained, model.iter().map(|e| e.2).collect::<Vec<_>>());
        }
    }
}
