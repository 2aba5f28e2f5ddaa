//! A frozen cross row is built at its first query after a roll, sized to
//! its own depth `B`: `B` two's-complement bit-planes of one bit per copy
//! and one total per group. Building the sketches allocates no row at all,
//! and a rolled pair query holds at most `(B + 1) · words · 8` bytes per
//! row it has built — `words` the 16 sign words of the paper's 1 000
//! copies. Two rolls in one gap leave empty snapshots, whose rows are
//! zeros: they are answered from no planes and allocate nothing. Measured
//! in live heap bytes.
//!
//! This is the only test in its binary (see `support/counting_alloc.rs`).

use mstream_core::mstream_sketch::{SignTable, SketchBank, TumblingSketches};
use mstream_core::prelude::*;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{live_bytes, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const CONFIG: BankConfig = BankConfig {
    s1: 1000,
    s2: 1,
    seed: 17,
};
/// Sign words of one copy bit each.
const WORDS: u64 = 16;
/// Tuples each stream folds in the first epoch: every `|X_k[c]|` is at
/// most this, so a pair row's `B` is at most its bit length plus one.
const TUPLES: u64 = 100;
const DEPTH_MAX: u64 = (u64::BITS - TUPLES.leading_zeros()) as u64 + 1;

fn pair() -> JoinQuery {
    let mut c = Catalog::new();
    c.add_stream(StreamSchema::new("L", &["k"]));
    c.add_stream(StreamSchema::new("R", &["k"]));
    JoinQuery::from_names(c, &[("L.k", "R.k")], WindowSpec::secs(10)).unwrap()
}

/// Live bytes `make`'s value holds, and the value.
fn held<T>(make: impl FnOnce() -> T) -> (u64, T) {
    let before = live_bytes();
    let value = make();
    (live_bytes() - before, value)
}

/// Live bytes the productivity queries of both streams of the pair add.
fn queried(ts: &mut TumblingSketches, values: &[u64]) -> u64 {
    let before = live_bytes();
    for &v in values {
        for s in 0..2 {
            std::hint::black_box(ts.productivity(StreamId(s), &[Value(v)]));
        }
    }
    live_bytes() - before
}

#[test]
fn frozen_rows_are_built_on_first_use_at_their_own_depth() {
    let q = pair();
    let epoch = EpochSpec::Time(VDur::from_secs(10));
    let snapshot = 2 * CONFIG.copies() as u64 * 8;

    // Beyond its bank and sign table, the standalone sketches hold the
    // last-epoch snapshot and a few words of bookkeeping — no cross row.
    let (bank, _b) = held(|| SketchBank::new(&q, CONFIG));
    let (signs, _s) = held(|| SignTable::new(q.predicates().len(), CONFIG));
    let (sketches, mut ts) = held(|| TumblingSketches::new(&q, CONFIG, epoch));
    let extra = sketches - bank - signs;
    assert!(
        extra <= snapshot + 1024,
        "building the sketches held {extra} bytes beyond the bank and signs \
         ({snapshot} of them the last-epoch snapshot)"
    );

    // First epoch: every value's signs memoized, the sign scratch grown.
    ts.set_score_cache(false);
    let values = [0, 1, 2, 3];
    for i in 0..TUPLES {
        for s in 0..2 {
            ts.observe(StreamId(s), &[Value(i % 4)], VTime::from_secs(1));
        }
    }
    queried(&mut ts, &values);
    assert!(ts.observe(StreamId(0), &[Value(0)], VTime::from_secs(11)));
    assert!(ts.has_last_epoch(StreamId(1)));

    // Rolled: the first queries build two rows, later ones allocate
    // nothing.
    let rows = queried(&mut ts, &values);
    let bound = 2 * (DEPTH_MAX + 1) * WORDS * 8;
    assert!(rows > 0, "the rows are built at their first query");
    assert!(
        rows <= bound,
        "two rows of at most {DEPTH_MAX} planes held {rows} bytes (bound {bound})"
    );
    assert_eq!(queried(&mut ts, &values), 0, "a built row is reused");

    // Two rolls in one gap: the snapshots are empty, the rows zeros.
    let (_, mut late) = held(|| TumblingSketches::new(&q, CONFIG, epoch));
    late.set_score_cache(false);
    late.observe(StreamId(0), &[Value(1)], VTime::from_secs(1));
    queried(&mut late, &[1]);
    assert!(late.observe(StreamId(1), &[Value(1)], VTime::from_secs(25)));
    assert_eq!(queried(&mut late, &[1]), 0, "a row of zeros holds nothing");
    assert_eq!(late.productivity(StreamId(0), &[Value(1)]), 0.0);
}
