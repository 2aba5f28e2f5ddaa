//! An open-addressed join-attribute index.
//!
//! [`WindowStore`](crate::store::WindowStore) keeps one hash index per join
//! attribute so an arriving tuple can probe every other window in O(1) per
//! candidate. [`FlatIndex`] replaced a `HashMap<Value, Vec<Slot>>`, which
//! put SipHash and a pointer chase on the probe hot path and allocated once
//! per distinct value, with:
//!
//! * an **open-addressed table** of `(key, bucket id)` cells: linear
//!   probing over a power-of-two table at most half full, keyed by the raw
//!   `u64` value payload mixed with SplitMix64. A removal shifts the rest of
//!   its cluster back (backward-shift deletion), so the table holds live
//!   keys only, never rehashes to drop tombstones and grows by doubling;
//! * **buckets in a dense pool** with a free list, each inlining the first
//!   [`INLINE`] slots, so low-fanout keys (the common case under shedding)
//!   are served from one bucket and an empty cell costs 12 bytes;
//! * a **side spill arena** for high-fanout keys: one shared `Vec<Slot>`
//!   carved into power-of-two blocks with per-class free lists, so growth
//!   never allocates per key and freed blocks are recycled.
//!
//! The per-key slot list keeps the exact semantics of the old `Vec<Slot>`
//! bucket: `insert` appends (returning the position, which the store
//! records for O(1) removal) and `remove` swap-removes (returning the slot
//! that moved into the hole, so the store can patch its recorded position).
//! Probe order is therefore **bit-identical** to the legacy index.
use crate::arena::Slot;
// The key mixer is the function the sharded engine routes with — one
// definition, imported by both — so behaviour is stable across platforms
// and runs.
use mstream_types::splitmix64 as mix;

/// Slots stored inline in each bucket before spilling to the side arena.
pub(crate) const INLINE: usize = 3;

/// The bucket id of an empty cell.
const EMPTY: u32 = u32::MAX;

/// One table cell: a key and its bucket's position in the pool, or
/// [`EMPTY`]. Packed to 12 bytes, so the probe scan reads one array.
#[derive(Clone, Copy)]
#[repr(C, packed(4))]
struct Cell {
    key: u64,
    id: u32,
}

/// One key's slot list (inline head, spill tail), kept in the index's
/// bucket pool and named by its position there.
#[derive(Clone, Copy)]
struct Bucket {
    /// Number of slots held for the key (inline + spill).
    len: u32,
    /// Offset of this bucket's spill block in the shared arena.
    spill_off: u32,
    /// Allocated spill capacity (a power of two), or 0 when unspilled.
    spill_cap: u32,
    inline: [Slot; INLINE],
}

/// A borrowed view of one key's candidate slots: the inline head plus the
/// spilled tail. Iterates in insertion order (as perturbed by
/// swap-removal), exactly like the legacy `Vec<Slot>` bucket.
#[derive(Clone, Copy, Default)]
pub struct Candidates<'a> {
    head: &'a [Slot],
    tail: &'a [Slot],
}

impl<'a> Candidates<'a> {
    /// Number of candidate slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.head.len() + self.tail.len()
    }

    /// Whether there are no candidates.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.head.is_empty()
    }

    /// The candidate at `pos`, if in range.
    #[cfg(any(test, feature = "audit"))]
    #[inline]
    pub(crate) fn get(&self, pos: usize) -> Option<Slot> {
        self.iter().nth(pos)
    }

    /// The two contiguous runs `(inline head, spill tail)` — the shape the
    /// iterative probe kernel consumes without an iterator in the way.
    #[inline]
    pub(crate) fn parts(&self) -> (&'a [Slot], &'a [Slot]) {
        (self.head, self.tail)
    }

    /// Iterates the candidates in bucket order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = Slot> + 'a {
        self.head.iter().chain(self.tail.iter()).copied()
    }
}

impl<'a> IntoIterator for Candidates<'a> {
    type Item = Slot;
    type IntoIter =
        std::iter::Copied<std::iter::Chain<std::slice::Iter<'a, Slot>, std::slice::Iter<'a, Slot>>>;

    fn into_iter(self) -> Self::IntoIter {
        self.head.iter().chain(self.tail.iter()).copied()
    }
}

/// An open-addressed multimap from `u64` join-key payloads to arena slots.
///
/// DESIGN.md §10 describes the layout. All operations the window
/// store needs are O(1) (amortized for growth): `insert` (append to a
/// key's list), `remove` (swap-remove by recorded position) and `probe`.
#[derive(Default)]
pub struct FlatIndex {
    /// The open-addressed table; a bucket is read only on a key match.
    cells: Vec<Cell>,
    /// The slot lists of the present keys, and freed ones awaiting reuse.
    pool: Vec<Bucket>,
    /// Pool positions of the freed buckets.
    free_ids: Vec<u32>,
    /// Shared spill storage, carved into power-of-two blocks.
    spill: Vec<Slot>,
    /// `free[c]` = offsets of recycled spill blocks of size `1 << c`.
    free: Vec<Vec<u32>>,
    /// Total slots across all keys.
    total: usize,
}

impl FlatIndex {
    /// An empty index.
    pub fn new() -> Self {
        FlatIndex::default()
    }

    /// Total slots across all keys.
    #[inline]
    pub fn len(&self) -> usize {
        self.total
    }

    /// Whether the index holds no slots.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Number of distinct keys present.
    #[inline]
    pub fn n_keys(&self) -> usize {
        self.pool.len() - self.free_ids.len()
    }

    /// The candidate slots of `key`, in bucket order.
    #[inline]
    pub fn probe(&self, key: u64) -> Candidates<'_> {
        match self.find(key) {
            Some(cell) => self.candidates(self.cells[cell].id as usize),
            None => Candidates::default(),
        }
    }

    /// Appends `slot` to `key`'s list, returning its position (for later
    /// O(1) [`FlatIndex::remove`]).
    pub fn insert(&mut self, key: u64, slot: Slot) -> u32 {
        self.total += 1;
        let id = match self.find(key) {
            Some(cell) => self.cells[cell].id,
            None => {
                if (self.n_keys() + 1) * 2 > self.cells.len() {
                    self.grow();
                }
                // A freed bucket is vacant: no slots, no spill block.
                let id = self.free_ids.pop().unwrap_or_else(|| {
                    self.pool.push(Bucket {
                        len: 0,
                        spill_off: 0,
                        spill_cap: 0,
                        inline: [Slot::DANGLING; INLINE],
                    });
                    u32::try_from(self.pool.len() - 1).expect("pool exceeds u32 ids")
                });
                self.place(key, id);
                id
            }
        };
        self.bucket_push(id as usize, slot)
    }

    /// Swap-removes position `pos` from `key`'s list. Returns the slot
    /// that moved into `pos` (the former last element), or `None` if `pos`
    /// was the last. The caller must patch the moved slot's recorded
    /// position.
    ///
    /// # Panics
    /// Panics (in debug builds) if `key` is absent, `pos` is out of range,
    /// or the entry at `pos` is not `expected`.
    pub fn remove(&mut self, key: u64, pos: u32, expected: Slot) -> Option<Slot> {
        let cell = self.find(key).expect("removing an unindexed key");
        let bi = self.cells[cell].id as usize;
        debug_assert_eq!(*self.slot_mut(bi, pos), expected, "stale index position");
        self.total -= 1;
        let last = self.pool[bi].len - 1;
        let moved = (pos != last).then(|| *self.slot_mut(bi, last));
        if let Some(m) = moved {
            *self.slot_mut(bi, pos) = m;
        }
        let b = &mut self.pool[bi];
        b.len = last;
        if last as usize == INLINE && b.spill_cap > 0 {
            // The tail just emptied: recycle the spill block.
            let (off, cap) = (b.spill_off, std::mem::take(&mut b.spill_cap));
            self.free_block(off, cap);
        }
        if last == 0 {
            self.free_ids.push(bi as u32);
            self.vacate(cell);
        }
        moved
    }

    /// Iterates `(key, candidates)` over all present keys, in table order.
    pub(crate) fn iter_keys(&self) -> impl Iterator<Item = (u64, Candidates<'_>)> {
        let present = self.cells.iter().filter(|c| c.id != EMPTY);
        present.map(|&Cell { key, id }| (key, self.candidates(id as usize)))
    }

    #[inline]
    fn candidates(&self, bi: usize) -> Candidates<'_> {
        let b = &self.pool[bi];
        let len = b.len as usize;
        if len <= INLINE {
            Candidates {
                head: &b.inline[..len],
                tail: &[],
            }
        } else {
            let off = b.spill_off as usize;
            Candidates {
                head: &b.inline,
                tail: &self.spill[off..off + (len - INLINE)],
            }
        }
    }

    /// The cell `key` hashes to.
    #[inline]
    fn home(&self, key: u64) -> usize {
        (mix(key) as usize) & (self.cells.len() - 1)
    }

    /// The cell holding `key`: the table keeps no empty cell between a
    /// key's home and its cell, so the scan stops at the first one.
    #[inline]
    fn find(&self, key: u64) -> Option<usize> {
        let mask = self.cells.len().checked_sub(1)?;
        let mut i = self.home(key);
        while self.cells[i].id != EMPTY {
            if self.cells[i].key == key {
                return Some(i);
            }
            i = (i + 1) & mask;
        }
        None
    }

    /// Puts `key` with bucket `id` in the first empty cell from its home.
    fn place(&mut self, key: u64, id: u32) {
        let mask = self.cells.len() - 1;
        let mut i = self.home(key);
        while self.cells[i].id != EMPTY {
            i = (i + 1) & mask;
        }
        self.cells[i] = Cell { key, id };
    }

    /// Empties cell `hole` by backward-shift deletion (Knuth, TAOCP 6.4,
    /// Algorithm R): walking the rest of the cluster, each key whose home
    /// does not lie cyclically in `(hole, j]` moves back into the hole,
    /// which moves on to its old cell `j`. No key is left behind an empty
    /// cell, so the table needs no tombstones.
    fn vacate(&mut self, mut hole: usize) {
        let mask = self.cells.len() - 1;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            if self.cells[j].id == EMPTY {
                break;
            }
            let home = self.home(self.cells[j].key);
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.cells[hole] = self.cells[j];
                hole = j;
            }
        }
        self.cells[hole].id = EMPTY;
    }

    /// Position `pos` of bucket `bi`'s slot list.
    fn slot_mut(&mut self, bi: usize, pos: u32) -> &mut Slot {
        let b = &mut self.pool[bi];
        debug_assert!(pos < b.len, "bucket position out of range");
        match (pos as usize).checked_sub(INLINE) {
            None => &mut b.inline[pos as usize],
            Some(at) => &mut self.spill[b.spill_off as usize + at],
        }
    }

    /// Appends `slot` to bucket `bi`, growing its spill block as needed.
    fn bucket_push(&mut self, bi: usize, slot: Slot) -> u32 {
        let b = self.pool[bi];
        let (len, old, cap) = (b.len, b.spill_off, b.spill_cap);
        let spilled = (len as usize).saturating_sub(INLINE);
        if len as usize >= INLINE && spilled == cap as usize {
            let off = self.alloc_block((cap * 2).max(1));
            if cap > 0 {
                let old = old as usize;
                self.spill.copy_within(old..old + spilled, off as usize);
                self.free_block(old as u32, cap);
            }
            self.pool[bi].spill_off = off;
            self.pool[bi].spill_cap = (cap * 2).max(1);
        }
        self.pool[bi].len = len + 1;
        *self.slot_mut(bi, len) = slot;
        len
    }

    /// Takes a spill block of capacity `cap` (a power of two) from the
    /// free list, or carves a fresh one off the arena's end.
    fn alloc_block(&mut self, cap: u32) -> u32 {
        let class = cap.trailing_zeros() as usize;
        if let Some(off) = self.free.get_mut(class).and_then(Vec::pop) {
            return off;
        }
        let off = u32::try_from(self.spill.len()).expect("spill arena exceeds u32 offsets");
        self.spill
            .resize(self.spill.len() + cap as usize, Slot::DANGLING);
        off
    }

    fn free_block(&mut self, off: u32, cap: u32) {
        let class = cap.trailing_zeros() as usize;
        if self.free.len() <= class {
            self.free.resize_with(class + 1, Vec::new);
        }
        self.free[class].push(off);
    }

    /// Doubles the table (8 cells at first). Only cells move: buckets
    /// keep their pool positions and spill blocks stay in place.
    fn grow(&mut self) {
        let empty = Cell { key: 0, id: EMPTY };
        let cells = vec![empty; (self.cells.len() * 2).max(8)];
        for Cell { key, id } in std::mem::replace(&mut self.cells, cells) {
            if id != EMPTY {
                self.place(key, id);
            }
        }
    }

    /// Structural invariant check: load at most ½, every key reachable
    /// from its home cell, every pool bucket in one cell or on the free
    /// list, slot totals, spill-block bounds and free-list disjointness.
    /// O(cells + pool + spill); the differential harness calls it (via
    /// `WindowStore::check_invariants`) after every arrival.
    ///
    /// # Panics
    /// Panics on any violated invariant.
    #[cfg(any(test, feature = "audit"))]
    pub(crate) fn check_invariants(&self) {
        let cells = self.cells.len();
        assert!(cells == 0 || cells.is_power_of_two(), "cells not 2^k");
        assert!(self.n_keys() * 2 <= cells, "load above one half");
        // Every pool bucket sits in exactly one cell or on the free list.
        let mut held = vec![0u32; self.pool.len()];
        let occupied = self.cells.iter().map(|c| c.id).filter(|&id| id != EMPTY);
        for id in occupied.chain(self.free_ids.iter().copied()) {
            held[id as usize] += 1;
        }
        assert!(held.iter().all(|&h| h == 1), "bucket held 0 or 2+ times");
        for &id in &self.free_ids {
            let b = &self.pool[id as usize];
            assert!(b.len == 0 && b.spill_cap == 0, "a free bucket holds slots");
        }
        // Spill occupancy: live blocks must be in-bounds and disjoint from
        // each other and from every free-listed block.
        let mut claimed = vec![false; self.spill.len()];
        let mut claim = |off: u32, cap: u32| {
            for i in off as usize..(off + cap) as usize {
                assert!(i < claimed.len(), "spill block out of bounds");
                assert!(!claimed[i], "overlapping spill blocks at {i}");
                claimed[i] = true;
            }
        };
        let mut total = 0usize;
        let mut seen_keys = std::collections::HashSet::new();
        let cells = self.cells.iter().enumerate();
        for (i, &Cell { key, id }) in cells.filter(|(_, c)| c.id != EMPTY) {
            let b = &self.pool[id as usize];
            assert!(b.len > 0, "occupied cell with no slots");
            assert!(seen_keys.insert(key), "duplicate key {key}");
            assert_eq!(self.find(key), Some(i), "key {key} unreachable");
            total += b.len as usize;
            if b.spill_cap > 0 {
                assert!(b.spill_cap.is_power_of_two(), "spill cap not 2^k");
                claim(b.spill_off, b.spill_cap);
            }
            let room = INLINE + b.spill_cap as usize;
            assert!(b.len as usize <= room, "spill past its block");
        }
        assert_eq!(total, self.total, "slot total stale");
        for (class, blocks) in self.free.iter().enumerate() {
            for &off in blocks {
                claim(off, 1 << class);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::Arena;

    fn slots(n: usize) -> Vec<Slot> {
        let mut arena = Arena::new();
        (0..n).map(|i| arena.insert(i)).collect()
    }

    #[test]
    fn insert_probe_roundtrip() {
        let ss = slots(5);
        let mut idx = FlatIndex::new();
        assert!(idx.probe(7).is_empty());
        assert_eq!(idx.insert(7, ss[0]), 0);
        assert_eq!(idx.insert(7, ss[1]), 1);
        assert_eq!(idx.insert(9, ss[2]), 0);
        assert!(idx.probe(7).iter().eq([ss[0], ss[1]]));
        assert_eq!(idx.probe(9).len(), 1);
        assert!(idx.probe(8).is_empty());
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.n_keys(), 2);
        idx.check_invariants();
    }

    #[test]
    fn spill_growth_keeps_order() {
        let ss = slots(40);
        let mut idx = FlatIndex::new();
        for (i, &s) in ss.iter().enumerate() {
            assert_eq!(idx.insert(1, s), i as u32);
        }
        assert!(idx.probe(1).iter().eq(ss.iter().copied()));
        let (head, tail) = idx.probe(1).parts();
        assert_eq!(head.len(), INLINE);
        assert_eq!(tail.len(), 40 - INLINE);
        idx.check_invariants();
    }

    #[test]
    fn swap_remove_matches_vec_semantics() {
        let ss = slots(6);
        let mut idx = FlatIndex::new();
        let mut model: Vec<Slot> = Vec::new();
        for &s in &ss {
            idx.insert(3, s);
            model.push(s);
        }
        // Remove from the middle: the last slot moves into the hole.
        let moved = idx.remove(3, 1, model[1]);
        model.swap_remove(1);
        assert_eq!(moved, Some(model[1]));
        assert!(idx.probe(3).iter().eq(model.iter().copied()));
        // Remove the tail: nothing moves.
        let last = model.len() as u32 - 1;
        assert_eq!(idx.remove(3, last, model.pop().unwrap()), None);
        assert!(idx.probe(3).iter().eq(model.iter().copied()));
        idx.check_invariants();
    }

    /// Removes every slot of `key`, last first, checking after each step.
    fn drain(idx: &mut FlatIndex, key: u64) {
        while let Some(last) = idx.probe(key).len().checked_sub(1) {
            idx.remove(key, last as u32, idx.probe(key).get(last).unwrap());
            idx.check_invariants();
        }
    }

    #[test]
    fn emptied_keys_disappear_and_blocks_recycle() {
        let ss = slots(10);
        let mut idx = FlatIndex::new();
        for &s in &ss {
            idx.insert(5, s);
        }
        drain(&mut idx, 5);
        assert!(idx.probe(5).is_empty());
        assert_eq!((idx.n_keys(), idx.len()), (0, 0));
        assert!(
            idx.cells.iter().all(|c| c.id == EMPTY),
            "a cell kept its key"
        );
        // The key comes back in the freed bucket and the recycled blocks.
        let (pool, spill) = (idx.pool.len(), idx.spill.len());
        for &s in &ss {
            idx.insert(5, s);
        }
        assert_eq!((idx.pool.len(), idx.spill.len()), (pool, spill));
        idx.check_invariants();
    }

    #[test]
    fn many_keys_force_rehash() {
        let ss = slots(512);
        let mut idx = FlatIndex::new();
        for (i, &s) in ss.iter().enumerate() {
            idx.insert(i as u64, s);
            idx.check_invariants();
        }
        assert_eq!(idx.n_keys(), 512);
        for (i, &s) in ss.iter().enumerate() {
            assert!(idx.probe(i as u64).iter().eq([s]));
        }
        idx.check_invariants();
    }

    #[test]
    fn churn_through_backward_shifts_stays_consistent() {
        // Insert/remove cycles over a small key domain: every emptied key
        // shifts its cluster back.
        let ss = slots(64);
        let mut idx = FlatIndex::new();
        for round in 0..200u64 {
            let key = round % 7;
            idx.insert(key, ss[(round % 64) as usize]);
            if round % 3 == 0 {
                let c = idx.probe(key);
                let last = c.len() - 1;
                let s = c.get(last).unwrap();
                idx.remove(key, last as u32, s);
            }
            idx.check_invariants();
        }
    }

    #[test]
    fn removal_shifts_a_wrapped_cluster_back() {
        // Four keys fill cells 6, 7, 0 and 1 of an 8-cell table: a cluster
        // wrapping past the end, all homed in it, or the last at its own
        // home (cell 1), where it must stay when cell 0 empties.
        let ss = slots(1);
        for homes in [[6, 6, 7, 7], [6, 6, 6, 1]] {
            let mut keys: Vec<u64> = Vec::new();
            for h in homes {
                keys.extend((0..).find(|&k| mix(k) & 7 == h && !keys.contains(&k)));
            }
            // Delete the head, middle, wrapped part or tail first.
            for first in 0..4 {
                let mut idx = FlatIndex::new();
                for &k in &keys {
                    idx.insert(k, ss[0]);
                }
                let cells: Vec<_> = keys.iter().map(|&k| idx.find(k).unwrap()).collect();
                assert_eq!((idx.cells.len(), cells), (8, vec![6, 7, 0, 1]));
                for &k in keys.iter().cycle().skip(first).take(4) {
                    drain(&mut idx, k);
                    assert_eq!(idx.cells.len(), 8, "a removal grew the table");
                }
            }
        }
    }

    #[test]
    fn churn_over_a_wide_domain_stays_at_its_live_keys() {
        // At most 100 of 4 096 keys live: at load ½ that is 256 cells,
        // however many keys have come and gone.
        let ss = slots(1);
        let (mut idx, mut live) = (FlatIndex::new(), Vec::new());
        for step in 0..20_000u64 {
            let r = mix(step);
            let key = r % 4096;
            let at = live.iter().position(|&k| k == key);
            if at.is_none() && live.len() < 100 {
                idx.insert(key, ss[0]);
                live.push(key);
            } else {
                let k = live.swap_remove(at.unwrap_or((r >> 32) as usize % 100));
                idx.remove(k, 0, ss[0]);
            }
            assert!(idx.cells.len() <= 256, "grew past 256 cells at step {step}");
        }
        assert_eq!(idx.n_keys(), live.len());
        idx.check_invariants();
    }
}
