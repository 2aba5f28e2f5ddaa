//! A plane holds one sign table per family key, not one per class: a
//! second pair query registered on fresh streams of a running MSketch
//! plane draws on the first one's ξ-families and memo. What the
//! registration adds beyond its window stores and its own sketch counters
//! is measured in live heap bytes, against one `SignFamilies` at the
//! paper's 1000 copies (4 coefficients × 1000 copies × 8 B = 32 KB).
//!
//! This is the only test in its binary (see `support/counting_alloc.rs`).

use mstream_core::mstream_sketch::{SignFamilies, TumblingSketches};
use mstream_core::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{live_bytes, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn pair(l: &str, r: &str) -> JoinQuery {
    let mut c = Catalog::new();
    c.add_stream(StreamSchema::new(l, &["k"]));
    c.add_stream(StreamSchema::new(r, &["k"]));
    let on = (format!("{l}.k"), format!("{r}.k"));
    JoinQuery::from_names(c, &[(&on.0, &on.1)], WindowSpec::secs(60)).unwrap()
}

/// Live bytes `make`'s value holds, measured while it is alive.
fn held<T>(make: impl FnOnce() -> T) -> u64 {
    let before = live_bytes();
    let value = make();
    let bytes = live_bytes() - before;
    drop(value);
    bytes
}

/// Live bytes `add_query(pair(A, B))` adds to a running plane of `policy`
/// over `pair(L, R)` that has seen a few arrivals.
fn registration(policy: Box<dyn ShedPolicy>) -> u64 {
    let mut b = EngineBuilder::new_multi()
        .boxed_policy(policy)
        .capacity_per_window(8);
    b.register(pair("L", "R")).unwrap();
    let mut e = b.build_multi().unwrap();
    let mut sink = CountSink::default();
    for i in 0..64u64 {
        let arrival = Arrival::new(
            StreamId((i % 2) as usize),
            vec![Value(i % 5)],
            VTime::from_secs(i),
        );
        e.ingest(arrival, &mut sink);
    }
    let before = live_bytes();
    e.add_query(pair("A", "B")).unwrap();
    live_bytes() - before
}

#[test]
fn a_second_class_of_one_key_adds_no_sign_families() {
    let config = BankConfig::default();
    assert_eq!(config.copies(), 1000);
    let families = held(|| {
        let mut rng = StdRng::seed_from_u64(config.seed);
        SignFamilies::draw(&mut rng, 1, config.copies())
    });
    assert!(families >= 32_000, "one predicate's families: {families} B");
    // The standalone sketches of a pair: the class's own counters plus a
    // sign table whose memo is still empty, i.e. its families.
    let epoch = EpochSpec::Time(VDur::from_secs(60));
    let counters = held(|| TumblingSketches::new(&pair("A", "B"), config, epoch)) - families;
    // A sketch-free policy's registration is the stores (and plans) alone.
    let stores = registration(Box::new(Fifo));
    let added = registration(Box::new(MSketch));
    let beyond = added - stores - counters;
    assert!(
        beyond < families / 2,
        "the second class added {beyond} B beyond its stores ({stores} B) and its \
         counters ({counters} B): a sign table of its own ({families} B of families)"
    );
}
