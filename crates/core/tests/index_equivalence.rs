//! Differential test of the open-addressed [`FlatIndex`] against the data
//! structure it replaced: `HashMap<u64, Vec<Slot>>` with append-insert and
//! swap-remove buckets. Probe order must match the model **exactly** —
//! that bit-identical bucket order is what keeps every engine result
//! unchanged by the index rewrite (DESIGN.md §10).

use mstream_core::mstream_window::{Arena, FlatIndex, Slot};
use proptest::prelude::*;
use std::collections::HashMap;

/// Drives the same operation sequence through the flat index and the
/// legacy model, asserting positions, moved-slot reports and probe order
/// agree after every step. Ops 0 and 1 insert at the drawn key, 2 removes
/// from it, and 3 or more removes from a present key picked by `r`.
fn run_ops(key_domain: u64, ops: Vec<(u8, u64, usize)>) {
    let mut arena: Arena<u32> = Arena::new();
    let mut idx = FlatIndex::new();
    let mut model: HashMap<u64, Vec<Slot>> = HashMap::new();
    // The model's keys in a deterministic order, for op 3 to pick from.
    let mut present: Vec<u64> = Vec::new();
    let mut next = 0u32;
    for (op, key, r) in ops {
        let key = match op {
            3.. if !present.is_empty() => present[r % present.len()],
            _ => key % key_domain,
        };
        match op {
            // Insert is weighted 2:1 so buckets grow deep enough to spill.
            0 | 1 => {
                let slot = arena.insert(next);
                next += 1;
                let pos = idx.insert(key, slot);
                let bucket = model.entry(key).or_default();
                prop_assert_eq!(pos as usize, bucket.len(), "append position");
                if bucket.is_empty() {
                    present.push(key);
                }
                bucket.push(slot);
            }
            _ => {
                let Some(bucket) = model.get_mut(&key).filter(|b| !b.is_empty()) else {
                    continue;
                };
                let pos = r % bucket.len();
                let expected = bucket[pos];
                let moved = idx.remove(key, pos as u32, expected);
                bucket.swap_remove(pos);
                let want_moved = bucket.get(pos).copied();
                prop_assert_eq!(moved, want_moved, "swap-remove moved slot");
                if bucket.is_empty() {
                    model.remove(&key);
                    present.retain(|&k| k != key);
                }
                arena.remove(expected);
            }
        }
        // Every key of a small domain; of a wide one, the present keys and
        // the one just touched.
        let probed: Vec<u64> = match key_domain {
            0..=64 => (0..key_domain).collect(),
            _ => present.iter().copied().chain([key]).collect(),
        };
        for k in probed {
            let got: Vec<Slot> = idx.probe(k).iter().collect();
            let want = model.get(&k).cloned().unwrap_or_default();
            prop_assert_eq!(got, want, "probe order diverged for key {}", k);
        }
    }
    prop_assert_eq!(idx.len(), model.values().map(Vec::len).sum::<usize>());
    prop_assert_eq!(idx.n_keys(), model.len());
}

proptest! {
    /// Few keys, deep buckets: exercises inline→spill transitions, spill
    /// growth/recycling and swap-remove across the inline/spill boundary.
    #[test]
    fn deep_buckets_match_model(ops in prop::collection::vec((0u8..3, 0u64..4, 0usize..64), 1..300)) {
        run_ops(4, ops);
    }

    /// Many keys, shallow buckets: exercises table growth and key
    /// displacement under open addressing.
    #[test]
    fn many_keys_match_model(ops in prop::collection::vec((0u8..3, 0u64..64, 0usize..64), 1..300)) {
        run_ops(64, ops);
    }

    /// A wide key domain, as many removals as insertions: nearly every key
    /// holds one slot, so most removals vacate a key and shift the rest of
    /// its cluster back.
    #[test]
    fn vacating_keys_match_model(ops in prop::collection::vec((0u8..5, 0u64..4096, 0usize..64), 1..400)) {
        run_ops(4096, ops);
    }
}
