//! Microbenchmarks of the estimation substrate: ±1 hashing, atomic-sketch
//! updates and productivity estimation — the per-tuple costs behind the
//! paper's "fast-and-light" claim.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use mstream_core::mstream_sketch::kernel;
use mstream_core::mstream_sketch::signs::combine_packed_signs;
use mstream_core::mstream_sketch::{
    FourWiseHash, SignCache, SignFamilies, SketchBank, TumblingSketches,
};
use mstream_core::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn chain3() -> JoinQuery {
    let mut c = Catalog::new();
    c.add_stream(StreamSchema::new("R1", &["A1", "A2"]));
    c.add_stream(StreamSchema::new("R2", &["A1", "A2"]));
    c.add_stream(StreamSchema::new("R3", &["A1", "A2"]));
    JoinQuery::from_names(
        c,
        &[("R1.A1", "R2.A1"), ("R2.A2", "R3.A1")],
        WindowSpec::secs(500),
    )
    .unwrap()
}

fn bench_hash(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let h = FourWiseHash::random(&mut rng);
    c.bench_function("four_wise_sign", |b| {
        let mut x = 0u64;
        b.iter(|| {
            x = x.wrapping_add(0x9E37_79B9);
            black_box(h.sign(black_box(x)))
        })
    });
}

fn bench_bank_update(c: &mut Criterion) {
    let query = chain3();
    let mut group = c.benchmark_group("sketch_bank_update");
    for s1 in [100usize, 1000] {
        let mut bank = SketchBank::new(
            &query,
            BankConfig {
                s1,
                s2: 1,
                seed: 2,
            },
        );
        let mut v = 0u64;
        group.bench_with_input(BenchmarkId::from_parameter(s1), &s1, |b, _| {
            b.iter(|| {
                v = (v + 1) % 100;
                bank.update(StreamId(1), &[Value(v), Value(v % 7)]);
            })
        });
    }
    group.finish();
}

fn bench_productivity(c: &mut Criterion) {
    let query = chain3();
    let mut group = c.benchmark_group("productivity_estimate");
    for s1 in [100usize, 1000] {
        let mut sk = TumblingSketches::new(
            &query,
            BankConfig {
                s1,
                s2: 1,
                seed: 3,
            },
            EpochSpec::Time(VDur::from_secs(500)),
        );
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..2000 {
            let s = StreamId(rng.gen_range(0..3));
            sk.observe(
                s,
                &[Value(rng.gen_range(0..100)), Value(rng.gen_range(0..100))],
                VTime::ZERO,
            );
        }
        let mut v = 0u64;
        group.bench_with_input(BenchmarkId::from_parameter(s1), &s1, |b, _| {
            b.iter(|| {
                v = (v + 1) % 100;
                black_box(sk.productivity(StreamId(0), &[Value(v), Value(0)]))
            })
        });
    }
    group.finish();
}

/// The packed-sign kernels in isolation: one full polynomial sweep over
/// 1000 copies, the XOR combine with every lookup missing the memo, and
/// the same combine served entirely from memoized vectors.
fn bench_packed_signs(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let families = SignFamilies::draw(&mut rng, 2, 1000);
    let incidence = [(0usize, 0usize), (1usize, 1usize)];
    let mut out = Vec::new();
    let mut group = c.benchmark_group("packed_signs");
    group.bench_function("eval_1000_copies", |b| {
        let mut x = 0u64;
        b.iter(|| {
            x = x.wrapping_add(0x9E37_79B9);
            families.eval_packed_into(0, black_box(x), &mut out);
            black_box(&out);
        })
    });
    let mut cold_cache = SignCache::default();
    group.bench_function("xor_combine_cold", |b| {
        let mut x = 0u64;
        b.iter(|| {
            // Always-fresh values: every lookup evaluates (and the bounded
            // memo periodically generation-resets — that cost is part of
            // the cold path).
            x = x.wrapping_add(1);
            combine_packed_signs(
                &families,
                &mut cold_cache,
                &incidence,
                &[Value(x), Value(x ^ 0xFFFF)],
                &mut out,
            );
            black_box(&out);
        })
    });
    let mut hot_cache = SignCache::default();
    group.bench_function("xor_combine_cached", |b| {
        let mut x = 0u64;
        b.iter(|| {
            // A 64-value hot set: after one lap everything is memoized, so
            // the combine is two map hits and 16 XOR'd words.
            x = (x + 1) % 64;
            combine_packed_signs(
                &families,
                &mut hot_cache,
                &incidence,
                &[Value(x), Value(x + 1000)],
                &mut out,
            );
            black_box(&out);
        })
    });
    group.finish();
}

/// Productivity at the paper's sizing (`s1 = 1000`) over a Zipfian value
/// pool, past the first epoch rollover — the steady-state hot path the
/// engine pays on every arrival and on every rollover rebuild: a memoized
/// packed-sign lookup plus a signed sum over a frozen cross-product row.
fn bench_productivity_repeated(c: &mut Criterion) {
    let query = chain3();
    let mut sk = TumblingSketches::new(
        &query,
        BankConfig {
            s1: 1000,
            s2: 1,
            seed: 6,
        },
        EpochSpec::Time(VDur::from_secs(100)),
    );
    // Zipf-like pool: value v drawn with weight ~ 1/(v+1) over 50 values.
    let mut pool: Vec<u64> = Vec::new();
    for v in 0..50u64 {
        for _ in 0..(50 / (v + 1)) {
            pool.push(v);
        }
    }
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..3000 {
        let s = StreamId(rng.gen_range(0..3));
        let a = pool[rng.gen_range(0..pool.len())];
        let b = pool[rng.gen_range(0..pool.len())];
        sk.observe(s, &[Value(a), Value(b)], VTime::ZERO);
    }
    // Cross the epoch boundary: every stream now has a last-epoch snapshot,
    // so queries run the frozen-cross-product path.
    sk.observe(StreamId(0), &[Value(0), Value(0)], VTime::from_secs(150));
    let mut group = c.benchmark_group("productivity_repeated_zipf");
    let mut i = 0usize;
    group.bench_function("s1_1000_frozen", |b| {
        b.iter(|| {
            i = (i + 1) % pool.len();
            black_box(sk.productivity(StreamId(0), &[Value(pool[i]), Value(0)]))
        })
    });
    group.finish();
}

/// The epoch-memoized productivity score cache (DESIGN.md §16) on the
/// frozen cross-product path at the paper's sizing (`s1 = 1000`): a hot
/// 50-key working set served from the memo, an always-fresh key stream
/// paying the miss-and-insert cost (with the bounded table's periodic
/// wholesale clears), and the same hot set with the cache pinned off —
/// the raw signed-fold every lookup would pay without memoization.
fn bench_score_cache(c: &mut Criterion) {
    let query = chain3();
    let mut seed_sketches = || {
        let mut sk = TumblingSketches::new(
            &query,
            BankConfig {
                s1: 1000,
                s2: 1,
                seed: 9,
            },
            EpochSpec::Time(VDur::from_secs(100)),
        );
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..3000 {
            let s = StreamId(rng.gen_range(0..3));
            sk.observe(
                s,
                &[
                    Value(rng.gen_range(0..50)),
                    Value(rng.gen_range(0..50)),
                ],
                VTime::ZERO,
            );
        }
        // Cross the epoch boundary so every probe runs the frozen
        // cross-product path — the one the memo covers.
        sk.observe(StreamId(0), &[Value(0), Value(0)], VTime::from_secs(150));
        sk
    };
    let mut group = c.benchmark_group("score_cache");
    {
        let mut sk = seed_sketches();
        sk.set_score_cache(true);
        // Warm the memo: one lap over the working set.
        for v in 0..50u64 {
            black_box(sk.productivity(StreamId(0), &[Value(v), Value(0)]));
        }
        let mut v = 0u64;
        group.bench_function("hit", |b| {
            b.iter(|| {
                v = (v + 1) % 50;
                black_box(sk.productivity(StreamId(0), &[Value(v), Value(0)]))
            })
        });
    }
    {
        let mut sk = seed_sketches();
        sk.set_score_cache(true);
        let mut x = 0u64;
        group.bench_function("miss", |b| {
            b.iter(|| {
                x = x.wrapping_add(1);
                black_box(sk.productivity(StreamId(0), &[Value(x), Value(0)]))
            })
        });
    }
    {
        let mut sk = seed_sketches();
        sk.set_score_cache(false);
        let mut v = 0u64;
        group.bench_function("uncached", |b| {
            b.iter(|| {
                v = (v + 1) % 50;
                black_box(sk.productivity(StreamId(0), &[Value(v), Value(0)]))
            })
        });
    }
    group.finish();
}

/// Vector-vs-scalar on the raw kernels, every form the build supports:
/// the scalar reference, the lane-parallel safe form, the AVX2 sign
/// specializations when the host has them, and the entry point the
/// engine actually calls. Each input is asserted bit-identical
/// across modes before timing (the equivalence proptests own the
/// exhaustive version of that claim).
fn bench_kernel_modes(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(8);
    const N: usize = 16 * 1024;
    let signs: Vec<u64> = (0..N / 64).map(|_| rng.gen()).collect();
    let f64s: Vec<f64> = (0..N).map(|_| rng.gen::<f64>() - 0.5).collect();
    let i64s: Vec<i64> = (0..N).map(|_| (rng.gen::<u64>() as i64) >> 8).collect();

    let mut group = c.benchmark_group("kernel_modes");
    // fold_packed_signs: ±1 folds into i64 counters.
    {
        let mut want = i64s.clone();
        kernel::scalar::fold_packed_signs(&signs, &mut want);
        let mut got = i64s.clone();
        kernel::lanes::fold_packed_signs(&signs, &mut got);
        assert_eq!(want, got, "fold_packed_signs modes diverge");
        let mut buf = i64s.clone();
        group.bench_function("fold_signs_scalar", |b| {
            b.iter(|| {
                buf.copy_from_slice(&i64s);
                kernel::scalar::fold_packed_signs(black_box(&signs), &mut buf);
                black_box(&buf);
            })
        });
        group.bench_function("fold_signs_lanes", |b| {
            b.iter(|| {
                buf.copy_from_slice(&i64s);
                kernel::lanes::fold_packed_signs(black_box(&signs), &mut buf);
                black_box(&buf);
            })
        });
    }
    // signed_copy: sign-bit XOR while copying (the probe row kernel).
    {
        let mut want = vec![0f64; N];
        kernel::scalar::signed_copy(&signs, &f64s, &mut want);
        let mut got = vec![0f64; N];
        kernel::signed_copy(&signs, &f64s, &mut got);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&want), bits(&got), "signed_copy modes diverge");
        let mut dst = vec![0f64; N];
        group.bench_function("signed_copy_scalar", |b| {
            b.iter(|| {
                kernel::scalar::signed_copy(black_box(&signs), black_box(&f64s), &mut dst);
                black_box(&dst);
            })
        });
        group.bench_function("signed_copy_lanes", |b| {
            b.iter(|| {
                kernel::lanes::signed_copy(black_box(&signs), black_box(&f64s), &mut dst);
                black_box(&dst);
            })
        });
    }
    // group_sums: the mean stage of median-of-means (serial in-group
    // order, lanes across groups).
    {
        let (s1, s2) = (32usize, N / 32);
        let mut want = Vec::new();
        kernel::scalar::group_sums(&f64s, s1, s2, &mut want);
        let mut got = Vec::new();
        kernel::lanes::group_sums(&f64s, s1, s2, &mut got);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&want), bits(&got), "group_sums modes diverge");
        let mut out = Vec::new();
        group.bench_function("group_sums_scalar", |b| {
            b.iter(|| {
                out.clear();
                kernel::scalar::group_sums(black_box(&f64s), s1, s2, &mut out);
                black_box(&out);
            })
        });
        group.bench_function("group_sums_lanes", |b| {
            b.iter(|| {
                out.clear();
                kernel::lanes::group_sums(black_box(&f64s), s1, s2, &mut out);
                black_box(&out);
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_hash,
    bench_bank_update,
    bench_productivity,
    bench_packed_signs,
    bench_productivity_repeated,
    bench_score_cache,
    bench_kernel_modes
);
criterion_main!(benches);
