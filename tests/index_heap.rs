//! A full window's join index holds its live keys and little more: a
//! removal shifts the rest of its cluster back instead of leaving a
//! tombstone, so churning keys through a window neither fills the table
//! with dead cells nor rehashes it to four times its live keys. Measured in
//! live heap bytes over a whole store, at `flat_single`'s shape: a window
//! of 166 tuples over uniform keys.
//!
//! This is the only test in its binary (see `support/counting_alloc.rs`).

use mstream_core::mstream_window::WindowStore;
use mstream_core::prelude::*;
use mstream_types::splitmix64;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{live_bytes, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Tuples a window holds.
const CAPACITY: usize = 166;
/// Distinct join keys, drawn uniformly.
const KEYS: u64 = 512;
const ARRIVALS: u64 = 20_000;

#[test]
fn a_churning_window_holds_its_index_at_its_live_keys() {
    let before = live_bytes();
    let mut store = WindowStore::new(WindowSpec::secs(1_000_000), vec![0], CAPACITY);
    let mut peak = 0;
    for i in 0..ARRIVALS {
        let r = splitmix64(i);
        let tuple = Tuple::new(
            StreamId(0),
            VTime::from_secs(i),
            SeqNo(i),
            vec![Value(r % KEYS)],
        );
        // A random priority: the victim is any resident, so every key churns.
        store.insert(tuple, (r >> 11) as f64);
        peak = peak.max(live_bytes() - before);
    }
    assert_eq!(store.len(), CAPACITY);
    // The store without an index peaks at 25.9 KB (arena, expiry queue,
    // heap, per-slot columns). Its index holds at most 166 keys: 512 cells
    // of 12 B, a pool of 256 buckets of 36 B and the key columns, 18.5 KB
    // in all. Tombstones forced rehashes to four times the live keys, 1 024
    // cells of 45 B: 75 KB for the whole store.
    const BOUND: u64 = 48_000;
    assert!(
        peak < BOUND,
        "a {CAPACITY}-tuple window peaked at {peak} live heap bytes (bound {BOUND})"
    );
}
