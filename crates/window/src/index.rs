//! An open-addressed join-attribute index.
//!
//! [`WindowStore`](crate::store::WindowStore) keeps one hash index per join
//! attribute so an arriving tuple can probe every other window in O(1) per
//! candidate. The first implementation used `HashMap<Value, Vec<Slot>>`,
//! which put a SipHash computation and a pointer chase (bucket `Vec`
//! header and heap payload) on the probe hot path, plus one heap
//! allocation per distinct value. [`FlatIndex`] replaces it with:
//!
//! * an **open-addressed table** (linear probing, power-of-two capacity,
//!   tombstone deletion) keyed by the raw `u64` value payload, mixed with
//!   SplitMix64 — a handful of arithmetic ops instead of SipHash;
//! * buckets that **inline the first [`INLINE`] slots**, so low-fanout keys
//!   (the common case under shedding) are served entirely from the bucket
//!   cache line;
//! * a **side spill arena** for high-fanout keys: one shared `Vec<Slot>`
//!   carved into power-of-two blocks with per-class free lists, so growth
//!   never allocates per key and freed blocks are recycled.
//!
//! The per-key slot list preserves the exact semantics of the old
//! `Vec<Slot>` bucket: `insert` appends (returning the position, which the
//! store records for O(1) removal) and `remove` swap-removes (returning the
//! slot that moved into the hole, so the store can patch its recorded
//! position). Probe order is therefore **bit-identical** to the legacy
//! index, which is what keeps every engine result byte-for-byte unchanged.

use crate::arena::Slot;
// The key mixer is the function the sharded engine routes with — one
// definition, imported by both — so behaviour is stable across platforms
// and runs.
use mstream_types::splitmix64 as mix;

/// Slots stored inline in each bucket before spilling to the side arena.
pub const INLINE: usize = 3;

const EMPTY: u8 = 0;
const OCCUPIED: u8 = 1;
const TOMBSTONE: u8 = 2;

/// One open-addressing cell's payload: the slot list (inline head, spill
/// tail). The key itself lives in a dense side array so the probe scan
/// walks 8-byte cells instead of dragging the whole bucket through cache.
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

impl Bucket {
    const VACANT: Bucket = Bucket {
        len: 0,
        spill_off: 0,
        spill_cap: 0,
        inline: [Slot::DANGLING; INLINE],
    };

    fn new(first: Slot) -> Self {
        let mut inline = [Slot::DANGLING; INLINE];
        inline[0] = first;
        Bucket {
            len: 1,
            spill_off: 0,
            spill_cap: 0,
            inline,
        }
    }
}

/// A borrowed view of one key's candidate slots: the inline head plus the
/// spilled tail. Iterates in insertion order (as perturbed by
/// swap-removal), exactly like the legacy `Vec<Slot>` bucket.
#[derive(Clone, Copy)]
pub struct Candidates<'a> {
    head: &'a [Slot],
    tail: &'a [Slot],
}

impl<'a> Candidates<'a> {
    /// The empty candidate list.
    pub const EMPTY: Candidates<'static> = Candidates { head: &[], tail: &[] };

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
    #[inline]
    pub fn get(&self, pos: usize) -> Option<Slot> {
        if pos < self.head.len() {
            Some(self.head[pos])
        } else {
            self.tail.get(pos - self.head.len()).copied()
        }
    }

    /// The two contiguous runs `(inline head, spill tail)` — the shape the
    /// iterative probe kernel consumes without an iterator in the way.
    #[inline]
    pub fn parts(&self) -> (&'a [Slot], &'a [Slot]) {
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
    type IntoIter = std::iter::Copied<
        std::iter::Chain<std::slice::Iter<'a, Slot>, std::slice::Iter<'a, Slot>>,
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.head.iter().chain(self.tail.iter()).copied()
    }
}

/// An open-addressed multimap from `u64` join-key payloads to arena slots.
///
/// See the [module docs](self) for the layout. All operations the window
/// store needs are O(1) (amortized for growth): `insert` (append to a
/// key's list), `remove` (swap-remove by recorded position) and `probe`.
#[derive(Default)]
pub struct FlatIndex {
    ctrl: Vec<u8>,
    /// Key of each occupied cell, parallel to `buckets`. Kept separate so
    /// the linear-probe scan touches a dense `u64` array (8 keys per cache
    /// line) and only dereferences the 40-byte bucket on a key match.
    keys: Vec<u64>,
    buckets: Vec<Bucket>,
    /// Shared spill storage, carved into power-of-two blocks.
    spill: Vec<Slot>,
    /// `free[c]` = offsets of recycled spill blocks of size `1 << c`.
    free: Vec<Vec<u32>>,
    /// Occupied buckets (distinct keys present).
    live: usize,
    /// Occupied + tombstoned buckets (probe-chain occupancy).
    used: usize,
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
        self.live
    }

    /// The candidate slots of `key`, in bucket order.
    #[inline]
    pub fn probe(&self, key: u64) -> Candidates<'_> {
        match self.find(key) {
            Some(bi) => self.candidates(bi),
            None => Candidates::EMPTY,
        }
    }

    /// Appends `slot` to `key`'s list, returning its position (for later
    /// O(1) [`FlatIndex::remove`]).
    pub fn insert(&mut self, key: u64, slot: Slot) -> u32 {
        self.total += 1;
        if let Some(bi) = self.find(key) {
            return self.bucket_push(bi, slot);
        }
        if self.buckets.is_empty() || (self.used + 1) * 2 > self.buckets.len() {
            self.grow();
        }
        let mask = self.buckets.len() - 1;
        let mut i = (mix(key) as usize) & mask;
        let mut dest: Option<usize> = None;
        loop {
            match self.ctrl[i] {
                EMPTY => {
                    // Prefer the first tombstone passed on the way; a fresh
                    // EMPTY cell extends probe-chain occupancy.
                    let d = dest.unwrap_or(i);
                    if d == i {
                        self.used += 1;
                    }
                    dest = Some(d);
                    break;
                }
                TOMBSTONE if dest.is_none() => dest = Some(i),
                _ => {}
            }
            i = (i + 1) & mask;
        }
        let d = dest.expect("insert destination found");
        self.ctrl[d] = OCCUPIED;
        self.keys[d] = key;
        self.buckets[d] = Bucket::new(slot);
        self.live += 1;
        0
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
        let bi = self.find(key).expect("removing an unindexed key");
        debug_assert_eq!(
            self.bucket_get(bi, pos),
            expected,
            "recorded index position desynchronized"
        );
        let _ = expected;
        self.total -= 1;
        let last = self.buckets[bi].len - 1;
        let moved = if pos != last {
            let m = self.bucket_get(bi, last);
            self.bucket_set(bi, pos, m);
            Some(m)
        } else {
            None
        };
        self.buckets[bi].len = last;
        if last as usize == INLINE && self.buckets[bi].spill_cap > 0 {
            // The tail just emptied: recycle the spill block.
            let (off, cap) = (self.buckets[bi].spill_off, self.buckets[bi].spill_cap);
            self.free_block(off, cap);
            self.buckets[bi].spill_cap = 0;
        }
        if last == 0 {
            self.ctrl[bi] = TOMBSTONE;
            self.live -= 1;
        }
        moved
    }

    /// Iterates `(key, candidates)` over all present keys, in table order.
    pub fn iter_keys(&self) -> impl Iterator<Item = (u64, Candidates<'_>)> {
        self.ctrl
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c == OCCUPIED)
            .map(move |(i, _)| (self.keys[i], self.candidates(i)))
    }

    #[inline]
    fn candidates(&self, bi: usize) -> Candidates<'_> {
        let b = &self.buckets[bi];
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

    #[inline]
    fn find(&self, key: u64) -> Option<usize> {
        if self.buckets.is_empty() {
            return None;
        }
        let mask = self.buckets.len() - 1;
        let mut i = (mix(key) as usize) & mask;
        loop {
            let c = self.ctrl[i];
            if c == EMPTY {
                return None;
            }
            if c == OCCUPIED && self.keys[i] == key {
                return Some(i);
            }
            i = (i + 1) & mask;
        }
    }

    fn bucket_get(&self, bi: usize, pos: u32) -> Slot {
        let b = &self.buckets[bi];
        debug_assert!(pos < b.len, "bucket position out of range");
        if (pos as usize) < INLINE {
            b.inline[pos as usize]
        } else {
            self.spill[b.spill_off as usize + pos as usize - INLINE]
        }
    }

    fn bucket_set(&mut self, bi: usize, pos: u32, slot: Slot) {
        let b = &mut self.buckets[bi];
        if (pos as usize) < INLINE {
            b.inline[pos as usize] = slot;
        } else {
            self.spill[b.spill_off as usize + pos as usize - INLINE] = slot;
        }
    }

    /// Appends `slot` to bucket `bi`, growing its spill block as needed.
    fn bucket_push(&mut self, bi: usize, slot: Slot) -> u32 {
        let len = self.buckets[bi].len;
        if (len as usize) < INLINE {
            self.buckets[bi].inline[len as usize] = slot;
        } else {
            let spill_len = len - INLINE as u32;
            let cap = self.buckets[bi].spill_cap;
            if spill_len == cap {
                let new_cap = (cap * 2).max(1);
                let new_off = self.alloc_block(new_cap);
                if cap > 0 {
                    let old = self.buckets[bi].spill_off as usize;
                    self.spill
                        .copy_within(old..old + spill_len as usize, new_off as usize);
                    self.free_block(self.buckets[bi].spill_off, cap);
                }
                self.buckets[bi].spill_off = new_off;
                self.buckets[bi].spill_cap = new_cap;
            }
            let off = self.buckets[bi].spill_off;
            self.spill[off as usize + spill_len as usize] = slot;
        }
        self.buckets[bi].len = len + 1;
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

    /// Rehashes into a table sized for the live keys, dropping tombstones.
    /// Spill blocks are untouched — only bucket cells move. The rehash
    /// target keeps occupancy at or below ~1/4 (growing again at 1/2), so
    /// linear-probe chains stay a couple of cells long.
    fn grow(&mut self) {
        let new_cap = ((self.live + 1) * 4).next_power_of_two().max(8);
        let old_buckets = std::mem::replace(&mut self.buckets, vec![Bucket::VACANT; new_cap]);
        let old_keys = std::mem::replace(&mut self.keys, vec![0; new_cap]);
        let old_ctrl = std::mem::replace(&mut self.ctrl, vec![EMPTY; new_cap]);
        let mask = new_cap - 1;
        for ((b, k), c) in old_buckets.into_iter().zip(old_keys).zip(old_ctrl) {
            if c != OCCUPIED {
                continue;
            }
            let mut i = (mix(k) as usize) & mask;
            while self.ctrl[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.ctrl[i] = OCCUPIED;
            self.keys[i] = k;
            self.buckets[i] = b;
        }
        self.used = self.live;
    }

    /// Structural invariant check: control-byte/bucket agreement, key
    /// reachability from its hash position, slot totals, spill-block
    /// bounds and free-list disjointness.
    ///
    /// O(capacity + spill); compiled only for tests and the `audit`
    /// feature, where the differential harness calls it (via
    /// `WindowStore::check_invariants`) after every arrival.
    ///
    /// # Panics
    /// Panics on any violated invariant.
    #[cfg(any(test, feature = "audit"))]
    pub fn check_invariants(&self) {
        assert_eq!(self.ctrl.len(), self.buckets.len(), "ctrl/bucket length");
        assert_eq!(self.ctrl.len(), self.keys.len(), "ctrl/key length");
        let occupied = self.ctrl.iter().filter(|&&c| c == OCCUPIED).count();
        let tombs = self.ctrl.iter().filter(|&&c| c == TOMBSTONE).count();
        assert_eq!(occupied, self.live, "live count stale");
        assert_eq!(occupied + tombs, self.used, "used count stale");
        if !self.buckets.is_empty() {
            assert!(self.used < self.buckets.len(), "no EMPTY cell left");
            assert!(self.buckets.len().is_power_of_two(), "capacity not 2^k");
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
        for (i, &c) in self.ctrl.iter().enumerate() {
            if c != OCCUPIED {
                continue;
            }
            let b = &self.buckets[i];
            let key = self.keys[i];
            assert!(b.len > 0, "occupied bucket with no slots");
            assert!(seen_keys.insert(key), "duplicate key {key}");
            assert_eq!(
                self.find(key),
                Some(i),
                "key {key} not reachable from its hash position"
            );
            total += b.len as usize;
            if b.spill_cap > 0 {
                assert!(b.spill_cap.is_power_of_two(), "spill cap not 2^k");
                claim(b.spill_off, b.spill_cap);
            }
            if b.len as usize > INLINE {
                assert!(
                    b.len as usize - INLINE <= b.spill_cap as usize,
                    "spilled slots exceed spill capacity"
                );
            }
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
        let got: Vec<Slot> = idx.probe(7).iter().collect();
        assert_eq!(got, vec![ss[0], ss[1]]);
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
        let got: Vec<Slot> = idx.probe(1).iter().collect();
        assert_eq!(got, ss);
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
        let got: Vec<Slot> = idx.probe(3).iter().collect();
        assert_eq!(got, model);
        // Remove the tail: nothing moves.
        let last = model.len() as u32 - 1;
        assert_eq!(idx.remove(3, last, *model.last().unwrap()), None);
        model.pop();
        let got: Vec<Slot> = idx.probe(3).iter().collect();
        assert_eq!(got, model);
        idx.check_invariants();
    }

    #[test]
    fn emptied_keys_disappear_and_blocks_recycle() {
        let ss = slots(10);
        let mut idx = FlatIndex::new();
        for &s in &ss {
            idx.insert(5, s);
        }
        for _ in 0..ss.len() {
            let len = idx.probe(5).len();
            let last = idx.probe(5).get(len - 1).unwrap();
            idx.remove(5, len as u32 - 1, last);
            idx.check_invariants();
        }
        assert!(idx.probe(5).is_empty());
        assert_eq!(idx.n_keys(), 0);
        assert_eq!(idx.len(), 0);
        // The key can come back after tombstoning.
        idx.insert(5, ss[0]);
        assert_eq!(idx.probe(5).len(), 1);
        idx.check_invariants();
    }

    #[test]
    fn many_keys_force_rehash() {
        let ss = slots(512);
        let mut idx = FlatIndex::new();
        for (i, &s) in ss.iter().enumerate() {
            idx.insert(i as u64, s);
            if i % 64 == 0 {
                idx.check_invariants();
            }
        }
        assert_eq!(idx.n_keys(), 512);
        for (i, &s) in ss.iter().enumerate() {
            let got: Vec<Slot> = idx.probe(i as u64).iter().collect();
            assert_eq!(got, vec![s]);
        }
        idx.check_invariants();
    }

    #[test]
    fn churn_through_tombstones_stays_consistent() {
        // Insert/remove cycles over a small key domain: exercises tombstone
        // reuse and the no-EMPTY-starvation guarantee.
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
}
