//! Microbenchmarks of the estimation substrate: ±1 hashing, atomic-sketch
//! updates and productivity estimation — the per-tuple costs behind the
//! paper's "fast-and-light" claim.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use mstream_core::kernel;
use mstream_core::mstream_sketch::{
    FourWiseHash, SignFamilies, SignTable, SketchBank, TumblingSketches,
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
        let config = BankConfig {
            s1,
            s2: 1,
            seed: 2,
        };
        let mut bank = SketchBank::new(&query, config);
        let mut signs = SignTable::new(query.predicates().len(), config);
        let mut v = 0u64;
        group.bench_with_input(BenchmarkId::from_parameter(s1), &s1, |b, _| {
            b.iter(|| {
                v = (v + 1) % 100;
                bank.update(&mut signs, StreamId(1), &[Value(v), Value(v % 7)]);
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

/// The packed-sign kernels in isolation: full polynomial sweeps over 1000
/// copies (the power form a memo miss runs, beside the Horner reference it
/// replaced; each sample sweeps 1000 keys, so ms/iter reads as µs per
/// vector), the XOR combine with every lookup missing the memo, and the
/// same combine served entirely from memoized vectors.
fn bench_packed_signs(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let families = SignFamilies::draw(&mut rng, 2, 1000);
    let incidence = [(0usize, 0usize), (1usize, 1usize)];
    let mut out = Vec::new();
    let mut group = c.benchmark_group("packed_signs");
    type Eval = fn(&SignFamilies, usize, u64, &mut Vec<u64>);
    let evals: [(&str, Eval); 2] = [
        ("eval_1000_copies", SignFamilies::eval_packed_into),
        ("eval_1000_copies_horner", SignFamilies::eval_packed_scalar),
    ];
    for (name, eval) in evals {
        group.bench_function(name, |b| {
            let mut x = 0u64;
            b.iter(|| {
                for _ in 0..1000 {
                    x = x.wrapping_add(0x9E37_79B9);
                    eval(&families, 0, black_box(x), &mut out);
                    black_box(&out);
                }
            })
        });
    }
    // The same families as `families` (one seed, two predicates, 1000
    // copies), each with a memo of its own.
    let config = BankConfig {
        s1: 1000,
        s2: 1,
        seed: 5,
    };
    let mut cold = SignTable::new(2, config);
    group.bench_function("xor_combine_cold", |b| {
        let mut x = 0u64;
        b.iter(|| {
            // Always-fresh values: every lookup evaluates (and the bounded
            // memo periodically generation-resets — that cost is part of
            // the cold path).
            x = x.wrapping_add(1);
            cold.combine(&incidence, &[Value(x), Value(x ^ 0xFFFF)], &mut out);
            black_box(&out);
        })
    });
    let mut hot = SignTable::new(2, config);
    group.bench_function("xor_combine_cached", |b| {
        let mut x = 0u64;
        b.iter(|| {
            // A 64-value hot set: after one lap everything is memoized, so
            // the combine is two map hits and 16 XOR'd words.
            x = (x + 1) % 64;
            hot.combine(&incidence, &[Value(x), Value(x + 1000)], &mut out);
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
    let seed_sketches = || {
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

/// The three kernels with two forms, each form at the paper's sizing
/// (1000 copies): the portable `kernel::scalar` form against the entry
/// point, which runs the AVX2 form where the CPU has it. Each input is
/// asserted bit-identical across the two before timing (the equivalence
/// suite owns the exhaustive version of that claim), and each sample runs
/// its kernel `REPS` times, so the printed ms/iter reads as µs per call.
fn bench_kernel_modes(c: &mut Criterion) {
    const REPS: usize = 1000;
    const COPIES: usize = 1000;
    let mut rng = StdRng::seed_from_u64(8);
    let signs: Vec<u64> = (0..COPIES.div_ceil(64)).map(|_| rng.gen()).collect();
    let counters: Vec<i64> = (0..COPIES).map(|_| rng.gen_range(-5000..5000)).collect();
    let row_a: Vec<i64> = (0..COPIES).map(|_| rng.gen_range(-100..100)).collect();
    let row_b: Vec<i64> = (0..COPIES).map(|_| rng.gen_range(-100..100)).collect();
    let rows = [&row_a[..], &row_b[..]];

    let mut group = c.benchmark_group("kernel_modes_x1000");
    {
        let mut want = counters.clone();
        kernel::scalar::fold_packed_signs(&signs, &mut want);
        let mut got = counters.clone();
        kernel::fold_packed_signs(&signs, &mut got);
        assert_eq!(want, got, "fold_packed_signs forms diverge");
        let mut buf = counters.clone();
        type Fold = fn(&[u64], &mut [i64]);
        let forms: [(&str, Fold); 2] = [
            ("fold_packed_signs_scalar", kernel::scalar::fold_packed_signs),
            ("fold_packed_signs", kernel::fold_packed_signs),
        ];
        for (name, fold) in forms {
            group.bench_function(name, |b| {
                b.iter(|| {
                    for _ in 0..REPS {
                        fold(black_box(&signs), &mut buf);
                    }
                    black_box(&buf);
                })
            });
        }
    }
    // The sliced sum over a frozen row of 8, 20 and 40 planes — what
    // `multi_shared`'s, `flat_single`'s and a deep row's queries read.
    for depth in [8usize, 20, 40] {
        let planes: Vec<u64> = (0..depth * signs.len()).map(|_| rng.gen()).collect();
        let want = kernel::scalar::sliced_sum(&signs, &planes, 0..COPIES);
        assert_eq!(want, kernel::sliced_sum(&signs, &planes, 0..COPIES));
        type SlicedSum = fn(&[u64], &[u64], std::ops::Range<usize>) -> i64;
        let forms: [(&str, SlicedSum); 2] = [
            ("scalar", kernel::scalar::sliced_sum),
            ("entry", kernel::sliced_sum),
        ];
        for (form, sum) in forms {
            group.bench_function(&format!("sliced_sum_b{depth}_{form}"), |b| {
                b.iter(|| {
                    for _ in 0..REPS {
                        black_box(sum(black_box(&signs), black_box(&planes), 0..COPIES));
                    }
                })
            });
        }
    }
    {
        let want = kernel::scalar::signed_product_sum(&signs, &rows, 0..COPIES);
        assert_eq!(want, kernel::signed_product_sum(&signs, &rows, 0..COPIES));
        type ProductSum = fn(&[u64], &[&[i64]], std::ops::Range<usize>) -> i64;
        let forms: [(&str, ProductSum); 2] = [
            ("signed_product_sum_scalar", kernel::scalar::signed_product_sum),
            ("signed_product_sum", kernel::signed_product_sum),
        ];
        for (name, product_sum) in forms {
            group.bench_function(name, |b| {
                b.iter(|| {
                    for _ in 0..REPS {
                        black_box(product_sum(black_box(&signs), black_box(&rows), 0..COPIES));
                    }
                })
            });
        }
    }
    group.finish();
}

/// The loops an arrival pays at the paper's sizing (1000 copies), one
/// case per figure DESIGN.md §15 quotes. Each sample runs its kernel
/// `REPS` times, so the printed ms/iter reads as µs per call.
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

    // The frozen query over one sliced cross row of two partners whose
    // counters stay below 2^5, 2^10 and 2^20 in magnitude (B = 11, 21 and
    // 41 planes), and the build of that row after a roll.
    for bits in [5u32, 10, 20] {
        let signs: Vec<u64> = (0..WORDS).map(|_| rng.gen()).collect();
        let bound = 1i64 << bits;
        let last: Vec<i64> = (0..3 * COPIES)
            .map(|_| rng.gen_range(1 - bound..bound))
            .collect();
        let mut row = kernel::SlicedRow::default();
        assert!(kernel::slice_row(&last, 0, COPIES, 1, &mut row));
        let depth = row.planes.len() / WORDS;
        let mut sums = Vec::new();
        group.bench_function(&format!("sliced_group_sums_b{depth}"), |b| {
            b.iter(|| {
                for _ in 0..REPS {
                    sums.clear();
                    kernel::sliced_group_sums(black_box(&signs), &row, COPIES, 1, &mut sums);
                    black_box(&sums);
                }
            })
        });
        group.bench_function(&format!("slice_row_b{depth}"), |b| {
            b.iter(|| {
                for _ in 0..REPS {
                    assert!(kernel::slice_row(black_box(&last), 0, COPIES, 1, &mut row));
                }
                black_box(&row);
            })
        });
    }

    // The first-epoch query's two live rows: in integers, and the serial
    // fold it falls back to outside its bounds.
    {
        let signs: Vec<u64> = (0..WORDS).map(|_| rng.gen()).collect();
        let row_a: Vec<i64> = (0..COPIES).map(|_| rng.gen_range(-100..100)).collect();
        let row_b: Vec<i64> = (0..COPIES).map(|_| rng.gen_range(-100..100)).collect();
        let rows = [&row_a[..], &row_b[..]];
        let mut sums = Vec::new();
        group.bench_function("product_group_sums", |b| {
            b.iter(|| {
                for _ in 0..REPS {
                    sums.clear();
                    let rows = black_box(&rows);
                    assert!(kernel::product_group_sums(&signs, rows, &[100, 100], COPIES, 1, &mut sums));
                    black_box(&sums);
                }
            })
        });
        let mut per_copy = vec![0f64; COPIES];
        group.bench_function("serial_fold_fallback", |b| {
            b.iter(|| {
                for _ in 0..REPS {
                    per_copy.fill(1.0);
                    kernel::multiply_row(&mut per_copy, black_box(&row_a));
                    kernel::multiply_row(&mut per_copy, black_box(&row_b));
                    kernel::apply_packed_signs(&signs, &mut per_copy);
                    sums.clear();
                    kernel::group_sums(&per_copy, COPIES, 1, &mut sums);
                    black_box(&sums);
                }
            })
        });
    }

    // What a first-epoch arrival pays the sketch layer end to end: the
    // update, the settle of both partners' live rows, the integer query.
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
