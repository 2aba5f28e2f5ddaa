//! A slab-style arena with stable slots and a free list.
//!
//! Window tuples are referenced from three places at once (expiration
//! deque, hash indexes, priority heap), so they need a stable integer
//! handle. A generation counter per slot turns dangling handles into
//! detectable errors instead of silent aliasing when slots are reused.

/// A stable handle to an arena entry: slot index + generation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Slot {
    index: u32,
    generation: u32,
}

impl Slot {
    /// A sentinel that never refers to a live arena entry (the arena
    /// refuses to grow past `u32::MAX` slots). Used by the flat join index
    /// to fill unoccupied inline bucket cells; never handed out.
    pub(crate) const DANGLING: Slot = Slot {
        index: u32::MAX,
        generation: u32::MAX,
    };

    /// The raw slot index (dense, reusable; pair with generation to detect
    /// stale handles).
    #[inline]
    pub fn index(self) -> usize {
        self.index as usize
    }
}

enum Entry<T> {
    Occupied { generation: u32, value: T },
    Free { generation: u32, next_free: Option<u32> },
}

/// A generational arena.
pub struct Arena<T> {
    entries: Vec<Entry<T>>,
    free_head: Option<u32>,
    len: usize,
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Arena::new()
    }
}

impl<T> Arena<T> {
    /// An empty arena.
    pub fn new() -> Self {
        Arena {
            entries: Vec::new(),
            free_head: None,
            len: 0,
        }
    }

    /// An empty arena with room for `cap` entries before reallocating.
    pub(crate) fn with_capacity(cap: usize) -> Self {
        Arena {
            entries: Vec::with_capacity(cap),
            free_head: None,
            len: 0,
        }
    }

    /// Number of live entries.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether the arena holds no live entries.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `value`, reusing a free slot if available.
    pub fn insert(&mut self, value: T) -> Slot {
        self.len += 1;
        match self.free_head {
            Some(idx) => {
                let generation = match self.entries[idx as usize] {
                    Entry::Free {
                        generation,
                        next_free,
                    } => {
                        self.free_head = next_free;
                        generation + 1
                    }
                    Entry::Occupied { .. } => unreachable!("free list points at occupied slot"),
                };
                self.entries[idx as usize] = Entry::Occupied { generation, value };
                Slot {
                    index: idx,
                    generation,
                }
            }
            None => {
                let idx = u32::try_from(self.entries.len())
                    .ok()
                    .filter(|&i| i < u32::MAX)
                    .expect("arena exceeds u32 slots");
                self.entries.push(Entry::Occupied {
                    generation: 0,
                    value,
                });
                Slot {
                    index: idx,
                    generation: 0,
                }
            }
        }
    }

    /// Removes and returns the entry at `slot`, or `None` if stale/absent.
    pub fn remove(&mut self, slot: Slot) -> Option<T> {
        let entry = self.entries.get_mut(slot.index())?;
        match entry {
            Entry::Occupied { generation, .. } if *generation == slot.generation => {
                let generation = *generation;
                let old = std::mem::replace(
                    entry,
                    Entry::Free {
                        generation,
                        next_free: self.free_head,
                    },
                );
                self.free_head = Some(slot.index);
                self.len -= 1;
                match old {
                    Entry::Occupied { value, .. } => Some(value),
                    Entry::Free { .. } => unreachable!(),
                }
            }
            _ => None,
        }
    }

    /// Swaps `value` in for the live entry at `slot`: same index, next
    /// generation — what `remove` followed by an `insert` that reuses the
    /// index yields, without the free-list round trip. Returns the new
    /// handle and the old entry, or `None` (dropping `value`) if `slot` is
    /// stale/absent.
    pub(crate) fn replace(&mut self, slot: Slot, value: T) -> Option<(Slot, T)> {
        match self.entries.get_mut(slot.index())? {
            Entry::Occupied { generation, value: old } if *generation == slot.generation => {
                *generation += 1;
                let fresh = Slot {
                    index: slot.index,
                    generation: *generation,
                };
                Some((fresh, std::mem::replace(old, value)))
            }
            _ => None,
        }
    }

    /// Shared access to the entry at `slot`, or `None` if stale/absent.
    pub(crate) fn get(&self, slot: Slot) -> Option<&T> {
        match self.entries.get(slot.index()) {
            Some(Entry::Occupied { generation, value }) if *generation == slot.generation => {
                Some(value)
            }
            _ => None,
        }
    }

    /// Mutable access to the entry at `slot`, or `None` if stale/absent.
    #[cfg(test)]
    pub(crate) fn get_mut(&mut self, slot: Slot) -> Option<&mut T> {
        match self.entries.get_mut(slot.index()) {
            Some(Entry::Occupied { generation, value }) if *generation == slot.generation => {
                Some(value)
            }
            _ => None,
        }
    }

    /// Whether `slot` refers to a live entry.
    pub(crate) fn contains(&self, slot: Slot) -> bool {
        self.get(slot).is_some()
    }

    /// Iterates over `(Slot, &T)` for all live entries, in slot order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Slot, &T)> {
        self.entries.iter().enumerate().filter_map(|(i, e)| match e {
            Entry::Occupied { generation, value } => Some((
                Slot {
                    index: i as u32,
                    generation: *generation,
                },
                value,
            )),
            Entry::Free { .. } => None,
        })
    }

    /// Mutable access to every live entry, in slot order.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.entries.iter_mut().filter_map(|e| match e {
            Entry::Occupied { value, .. } => Some(value),
            Entry::Free { .. } => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn insert_get_remove() {
        let mut a = Arena::new();
        let s1 = a.insert("a");
        let s2 = a.insert("b");
        assert_eq!(a.len(), 2);
        assert_eq!(a.get(s1), Some(&"a"));
        assert_eq!(a.get(s2), Some(&"b"));
        assert_eq!(a.remove(s1), Some("a"));
        assert_eq!(a.get(s1), None);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn stale_handles_are_rejected_after_reuse() {
        let mut a = Arena::new();
        let s1 = a.insert(1);
        a.remove(s1);
        let s2 = a.insert(2);
        // Slot index is reused but the generation differs.
        assert_eq!(s1.index(), s2.index());
        assert_ne!(s1, s2);
        assert_eq!(a.get(s1), None);
        assert_eq!(a.remove(s1), None);
        assert_eq!(a.get(s2), Some(&2));
    }

    #[test]
    fn replace_keeps_the_index_and_retires_the_handle() {
        let mut a = Arena::new();
        let s1 = a.insert(1);
        let other = a.insert(7);
        let (s2, old) = a.replace(s1, 2).unwrap();
        assert_eq!((old, a.len()), (1, 2));
        assert_eq!(s1.index(), s2.index());
        assert_ne!(s1, s2);
        assert_eq!((a.get(s1), a.get(s2), a.get(other)), (None, Some(&2), Some(&7)));
        assert_eq!(a.replace(s1, 3), None, "a stale handle replaces nothing");
        // The same handle a remove + insert on the index would have minted.
        let mut b = Arena::new();
        let t1 = b.insert(1);
        b.remove(t1);
        assert_eq!(b.insert(2), s2);
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut a = Arena::new();
        let s = a.insert(10);
        *a.get_mut(s).unwrap() += 5;
        assert_eq!(a.get(s), Some(&15));
    }

    #[test]
    fn iter_skips_free_slots() {
        let mut a = Arena::new();
        let s1 = a.insert(1);
        let _s2 = a.insert(2);
        let _s3 = a.insert(3);
        a.remove(s1);
        let values: Vec<i32> = a.iter().map(|(_, &v)| v).collect();
        assert_eq!(values, vec![2, 3]);
    }

    #[test]
    fn double_remove_is_none() {
        let mut a = Arena::new();
        let s = a.insert(1);
        assert_eq!(a.remove(s), Some(1));
        assert_eq!(a.remove(s), None);
        assert!(a.is_empty());
    }

    proptest! {
        /// The arena behaves like a HashMap<Slot, T> under arbitrary
        /// insert/remove interleavings, and len() always agrees.
        #[test]
        fn behaves_like_a_map(ops in proptest::collection::vec((0usize..12, prop::bool::ANY), 0..300)) {
            let mut arena = Arena::new();
            let mut model: Vec<(Slot, usize)> = Vec::new();
            for (val, is_insert) in ops {
                if is_insert || model.is_empty() {
                    let slot = arena.insert(val);
                    model.push((slot, val));
                } else {
                    let (slot, expect) = model.remove(val % model.len());
                    prop_assert_eq!(arena.remove(slot), Some(expect));
                }
                prop_assert_eq!(arena.len(), model.len());
                for &(slot, v) in &model {
                    prop_assert_eq!(arena.get(slot), Some(&v));
                }
            }
        }
    }
}
