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

/// Vector-vs-scalar on the raw kernels: the scalar reference and the
/// lane-parallel safe form (the AVX2 forms the entry points dispatch to
/// are timed in [`bench_arrival_kernels`]). Each input is asserted bit-identical
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

/// The loops an arrival pays at the paper's sizing (1000 copies), one
/// case per figure DESIGN.md §15 quotes. Each sample runs its kernel
/// `REPS` times, so the printed ms/iter reads as µs per call.
///
/// Run as `cargo bench --offline -p mstream-bench --bench bench_sketch`:
/// without `-p`, cargo unifies features over the whole workspace,
/// `mstream-audit` switches `mstream-sketch/audit` on, and every
/// `SketchBank::update` also folds the audit shadow (≈ 0.9 µs).
fn bench_arrival_kernels(c: &mut Criterion) {
    const REPS: usize = 1000;
    const COPIES: usize = 1000;
    const WORDS: usize = COPIES.div_ceil(64);
    let mut rng = StdRng::seed_from_u64(11);
    let mut group = c.benchmark_group("arrival_kernels_x1000");

    // Eight sign vectors into ten planes: copying them into a block and
    // one pass of the adder tree, against eight single-vector ripples.
    let vectors: Vec<u64> = (0..kernel::BLOCK * WORDS).map(|_| rng.gen()).collect();
    {
        let mut planes = vec![0u64; 10 * WORDS];
        let mut block = vec![0u64; kernel::BLOCK * WORDS];
        group.bench_function("add_sign_block", |b| {
            b.iter(|| {
                // 125 blocks fill the planes to 1000 of their 1023.
                for rep in 0..REPS {
                    if rep % 125 == 0 {
                        planes.fill(0);
                    }
                    block.copy_from_slice(black_box(&vectors));
                    kernel::add_sign_block(&mut block, &mut planes);
                }
                black_box(&planes);
            })
        });
        let mut carry = vec![0u64; WORDS];
        group.bench_function("add_sign_planes_times_8", |b| {
            b.iter(|| {
                for rep in 0..REPS {
                    if rep % 125 == 0 {
                        planes.fill(0);
                    }
                    for vector in black_box(&vectors).chunks_exact(WORDS) {
                        carry.copy_from_slice(vector);
                        kernel::add_sign_planes(&mut carry, &mut planes);
                    }
                }
                black_box(&planes);
            })
        });
    }

    // A settle at one pending update (the plain sign fold), a hundred
    // (seven planes) and the bank's own threshold (all ten).
    {
        let mut counters = vec![0i64; COPIES];
        let signs: Vec<u64> = (0..WORDS).map(|_| rng.gen()).collect();
        group.bench_function("settle_pending_1_fold_packed_signs", |b| {
            b.iter(|| {
                for _ in 0..REPS {
                    kernel::fold_packed_signs(black_box(&signs), &mut counters);
                }
                black_box(&counters);
            })
        });
        for (pending, depth) in [(100u32, 7usize), (1023, 10)] {
            let planes: Vec<u64> = (0..depth * WORDS).map(|_| rng.gen()).collect();
            group.bench_function(&format!("settle_planes_pending_{pending}"), |b| {
                b.iter(|| {
                    for _ in 0..REPS {
                        kernel::settle_planes(black_box(&planes), pending, &mut counters);
                    }
                    black_box(&counters);
                })
            });
        }
    }

    // The frozen query's sum over one cross row, and its guard.
    {
        let signs: Vec<u64> = (0..WORDS).map(|_| rng.gen()).collect();
        let row: Vec<f64> = (0..COPIES)
            .map(|_| f64::from(rng.gen_range(-2000..2000)))
            .collect();
        assert!(kernel::sum_is_exact(&row));
        group.bench_function("signed_sum", |b| {
            b.iter(|| {
                for _ in 0..REPS {
                    black_box(kernel::signed_sum(black_box(&signs), 0, black_box(&row)));
                }
            })
        });
        group.bench_function("sum_is_exact", |b| {
            b.iter(|| {
                for _ in 0..REPS {
                    black_box(kernel::sum_is_exact(black_box(&row)));
                }
            })
        });
    }

    // The first-epoch query's two live rows: fused, and the pair it
    // replaces (which stays as its fall-back).
    {
        let signs: Vec<u64> = (0..WORDS).map(|_| rng.gen()).collect();
        let row_a: Vec<i64> = (0..COPIES).map(|_| rng.gen_range(-100..100)).collect();
        let row_b: Vec<i64> = (0..COPIES).map(|_| rng.gen_range(-100..100)).collect();
        group.bench_function("product2_signed_sum", |b| {
            b.iter(|| {
                for _ in 0..REPS {
                    black_box(kernel::product2_signed_sum(
                        black_box(&row_a),
                        black_box(&row_b),
                        &signs,
                    ));
                }
            })
        });
        let mut per_copy = vec![0f64; COPIES];
        let mut sums = Vec::new();
        group.bench_function("product2_signed_then_group_sums", |b| {
            b.iter(|| {
                for _ in 0..REPS {
                    kernel::product2_signed(
                        black_box(&row_a),
                        black_box(&row_b),
                        &signs,
                        &mut per_copy,
                    );
                    sums.clear();
                    kernel::group_sums(&per_copy, COPIES, 1, &mut sums);
                    black_box(&sums);
                }
            })
        });
    }

    // What a first-epoch arrival pays the sketch layer end to end: the
    // update, the settle of both partners' live rows, the fused query.
    {
        let query = chain3();
        let mut sk = TumblingSketches::new(
            &query,
            BankConfig {
                s1: COPIES,
                s2: 1,
                seed: 12,
            },
            EpochSpec::Time(VDur::from_secs(1_000_000)),
        );
        let arrivals: Vec<(StreamId, [Value; 2])> = (0..REPS)
            .map(|_| {
                let values = [Value(rng.gen_range(0..100)), Value(rng.gen_range(0..100))];
                (StreamId(rng.gen_range(0..3)), values)
            })
            .collect();
        group.bench_function("first_epoch_observe_and_productivity", |b| {
            b.iter(|| {
                for (stream, values) in &arrivals {
                    sk.observe(*stream, values, VTime::ZERO);
                    black_box(sk.productivity(*stream, values));
                }
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
    bench_kernel_modes,
    bench_arrival_kernels
);
criterion_main!(benches);
