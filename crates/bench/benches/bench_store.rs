//! Microbenchmarks of the storage substrate: window-store insert/evict,
//! index probes, probe kernels, and queue shedding.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mstream_core::mstream_join::{probe_count, probe_each, ProbePlan};
use mstream_core::mstream_window::{Arena, FlatIndex, QueueVictim, ShedQueue, Slot, WindowStore};
use mstream_core::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

fn tup(seq: u64, ts: u64, a: u64, b: u64) -> Tuple {
    Tuple::new(
        StreamId(0),
        VTime::from_secs(ts),
        SeqNo(seq),
        vec![Value(a), Value(b)],
    )
}

/// The per-arrival window kernels outside an end-to-end run, a thousand
/// operations an iteration (ms/iter reads as microseconds an operation):
/// `insert_evict_full` — a full 512-tuple window, two indexed attributes,
/// scores that rise with the clock so that every insert displaces a
/// resident somewhere in the heap — and `expire_idle_{3,8}` — one
/// `expire_each` per store of an engine's set (3 solo, 8 on the plane)
/// when nothing is due, as on most arrivals.
fn bench_window_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("window_kernels_x1000");
    let never = WindowSpec::Time(VDur::from_secs(1 << 30));
    let mut rng = StdRng::seed_from_u64(7);
    let mut seq = 0u64;
    let mut arrival = |rng: &mut StdRng| {
        seq += 1;
        let t = tup(seq, seq / 10, rng.gen_range(0..100), rng.gen_range(0..100));
        (t, seq as f64 / 512.0 + rng.gen::<f64>())
    };
    let mut store = WindowStore::new(never, vec![0, 1], 512);
    for _ in 0..512 {
        let (t, score) = arrival(&mut rng);
        store.insert(t, score);
    }
    group.bench_function("insert_evict_full", |b| {
        b.iter(|| {
            for _ in 0..1000 {
                let (t, score) = arrival(&mut rng);
                black_box(store.insert(t, score));
            }
        })
    });
    for n in [3usize, 8] {
        let mut stores: Vec<WindowStore> = (0..n)
            .map(|_| {
                let mut store = WindowStore::new(never, vec![0], 512);
                for _ in 0..256 {
                    let (t, score) = arrival(&mut rng);
                    store.insert(t, score);
                }
                store
            })
            .collect();
        let mut now = 0u64;
        group.bench_function(&format!("expire_idle_{n}"), |b| {
            b.iter(|| {
                let mut expired = 0;
                for _ in 0..1000 {
                    now += 1;
                    for store in stores.iter_mut() {
                        expired += store.expire_each(black_box(VTime::from_secs(now)), drop);
                    }
                }
                assert_eq!(expired, 0, "nothing is due");
            })
        });
    }
    group.finish();
}

/// Hash-index probe on a 1024-tuple window.
fn bench_window_probe(c: &mut Criterion) {
    let mut store = WindowStore::new(WindowSpec::Time(VDur::from_secs(1 << 30)), vec![0, 1], 2048);
    let mut rng = StdRng::seed_from_u64(2);
    for seq in 0..1024u64 {
        store.insert(tup(seq, 0, rng.gen_range(0..100), rng.gen_range(0..100)), 1.0);
    }
    c.bench_function("window_probe", |b| {
        let mut v = 0u64;
        b.iter(|| {
            v = (v + 1) % 100;
            black_box(store.probe(0, Value(v)).len())
        })
    });
}

/// Priority rebuild of a full 1024-tuple window (epoch rollover cost,
/// excluding the scoring itself).
fn bench_rebuild(c: &mut Criterion) {
    let mut store = WindowStore::new(WindowSpec::Time(VDur::from_secs(1 << 30)), vec![0, 1], 1024);
    let mut rng = StdRng::seed_from_u64(3);
    for seq in 0..1024u64 {
        store.insert(tup(seq, 0, rng.gen_range(0..100), rng.gen_range(0..100)), rng.gen());
    }
    c.bench_function("window_rebuild_priorities_1024", |b| {
        b.iter(|| {
            store.rebuild_priorities(|t, _| ((t.seq.0 % 97) as f64, 0.0));
        })
    });
}

/// Queue offers into a full queue under each victim mode.
fn bench_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("queue_offer_full");
    for (label, mode) in [
        ("min_priority", QueueVictim::MinPriority),
        ("random", QueueVictim::Random),
        ("oldest", QueueVictim::Oldest),
    ] {
        let mut queue = ShedQueue::new(100);
        let mut rng = StdRng::seed_from_u64(4);
        let mut seq = 0u64;
        for _ in 0..100 {
            queue.offer(tup(seq, 0, 1, 1), rng.gen(), mode, &mut rng);
            seq += 1;
        }
        group.bench_function(label, |b| {
            b.iter(|| {
                let t = tup(seq, 0, 1, 1);
                seq += 1;
                black_box(queue.offer(t, rng.gen(), mode, &mut rng));
            })
        });
    }
    group.finish();
}

/// The probe kernel on a 3-stream chain, populated windows: the row walk
/// from the middle origin (the star fast path) over 64 values a column,
/// and the counting drive over duplicate-heavy windows — four values a
/// column, four in five of them the same one, the intra-window skew of
/// the paper's Figures 3-4 — from an end (chain: one inner index probe and
/// one delivery per stretch of equal drive values) and from the middle
/// (star: one delivery per probe). There a probe has hundreds of outer
/// candidates, so work that creeps back in per candidate shows here
/// without an end-to-end run.
fn bench_join_probe(c: &mut Criterion) {
    let names = ["R1", "R2", "R3"];
    let mut cat = Catalog::new();
    for name in names {
        cat.add_stream(StreamSchema::new(name, &["A1", "A2"]));
    }
    let q = JoinQuery::from_names(
        cat,
        &[("R1.A1", "R2.A1"), ("R2.A2", "R3.A1")],
        WindowSpec::secs(1 << 20),
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let mut seq = 0u64;
    // Three windows of 1024 tuples, each column drawn by `value`.
    let mut filled = |value: &mut dyn FnMut(&mut StdRng) -> u64| -> Vec<WindowStore> {
        (0..3)
            .map(|s| {
                let sid = StreamId(s);
                let mut store = WindowStore::new(q.window(sid), q.join_attrs(sid), 2048);
                for _ in 0..1024 {
                    let values = vec![Value(value(&mut rng)), Value(value(&mut rng))];
                    store.insert(Tuple::new(sid, VTime::ZERO, SeqNo(seq), values), 0.0);
                    seq += 1;
                }
                store
            })
            .collect()
    };
    let stores = filled(&mut |rng| rng.gen_range(0..64));
    let skewed = filled(&mut |rng| rng.gen_range(0..20u64).saturating_sub(16));
    // `skew_single`'s shape: some 78 outer candidates a probe (13 values
    // of R2.A1 over 1024 tuples), four in five of them driving R3 with one
    // value of R2.A2 — so what a probe costs is reading each candidate's
    // drive value, from the second of R2's two indexed attributes.
    let mut outer_key = true;
    let drive_col = filled(&mut |rng| {
        outer_key = !outer_key;
        if outer_key {
            rng.gen_range(0..20u64).saturating_sub(16)
        } else {
            rng.gen_range(0..13)
        }
    });
    let mut v = 0u64;
    let mid = ProbePlan::new(&q, StreamId(1));
    c.bench_function("probe_kernel_chain3_mid", |b| {
        b.iter(|| {
            v = (v + 1) % 64;
            let t = Tuple::new(StreamId(1), VTime::ZERO, SeqNo(seq), vec![Value(v), Value((v * 7) % 64)]);
            black_box(probe_each(&mid, &t, &stores, |m| {
                black_box(m.origin());
            }))
        })
    });
    // A thousand probes an iteration: the vendored criterion prints
    // milliseconds to three places, so ms/iter reads as microseconds a probe.
    let mut group = c.benchmark_group("probe_count_dup_x1000");
    for (name, origin) in [("chain3_end", 0), ("chain3_mid", 1)] {
        let plan = ProbePlan::new(&q, StreamId(origin));
        group.bench_function(name, |b| {
            b.iter(|| {
                for _ in 0..1000 {
                    v = (v + 1) % 4;
                    let t = Tuple::new(StreamId(origin), VTime::ZERO, SeqNo(seq), vec![Value(v), Value(v / 2)]);
                    black_box(probe_count(&plan, black_box(&t), &skewed));
                }
            })
        });
    }
    group.finish();
    // The chain from R1: each of R2's candidates drives R3 with its own A2.
    let end = ProbePlan::new(&q, StreamId(0));
    c.bench_function("probe_chain_drive_col_x1000", |b| {
        b.iter(|| {
            for _ in 0..1000 {
                v = (v + 1) % 13;
                let t = Tuple::new(StreamId(0), VTime::ZERO, SeqNo(seq), vec![Value(v), Value(0)]);
                black_box(probe_count(&end, black_box(&t), &drive_col));
            }
        })
    });
}

/// Raw single-key probe: the open-addressed `FlatIndex` against the
/// `HashMap<Value, Vec<Slot>>` it replaced, same contents.
fn bench_flat_index(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(6);
    let mut arena: Arena<u64> = Arena::new();
    let mut flat = FlatIndex::new();
    let mut legacy: HashMap<Value, Vec<Slot>> = HashMap::new();
    for i in 0..4096u64 {
        let key = rng.gen_range(0..512);
        let slot = arena.insert(i);
        flat.insert(key, slot);
        legacy.entry(Value(key)).or_default().push(slot);
    }
    let mut group = c.benchmark_group("index_probe_4096");
    let mut v = 0u64;
    group.bench_function("flat", |b| {
        b.iter(|| {
            v = (v + 1) % 512;
            black_box(flat.probe(black_box(v)).len())
        })
    });
    group.bench_function("hashmap", |b| {
        b.iter(|| {
            v = (v + 1) % 512;
            black_box(legacy.get(&Value(black_box(v))).map_or(0, Vec::len))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_window_kernels,
    bench_window_probe,
    bench_rebuild,
    bench_queue,
    bench_join_probe,
    bench_flat_index
);
criterion_main!(benches);
