//! Self-timed probe/eviction microbenches: the flat hot path vs the
//! pre-rewrite one, on the same machine in the same process.
//!
//! Because the legacy structures no longer exist in the library, this bin
//! carries faithful replicas of what they were: the recursive probe kernel
//! is retained in `mstream-join` (`probe_each_recursive`), and the old
//! `HashMap<Value, Vec<Slot>>`-indexed window store is rebuilt here from
//! public pieces (`Arena` + `IndexedHeap` + std `HashMap`) with the exact
//! per-entry layout `WindowStore` used to have. Every comparison first
//! asserts the two sides produce identical results, then times them.
//!
//! Flags: `--quick` (smaller workloads, for CI sanity), `--json PATH`
//! (emit rows for BENCH_probe.json), plus the common `--seed`.

use mstream_bench::{args, table, Args};
use mstream_core::mstream_join::{probe_each, probe_each_recursive, ProbePlan};
use mstream_core::mstream_sketch::kernel;
use mstream_core::mstream_window::{Arena, FlatIndex, Slot, WindowStore};
use mstream_core::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// One comparison row: the legacy path, the flat path, and the ratio.
#[derive(Serialize)]
struct Row {
    bench: String,
    baseline: String,
    baseline_ns_per_op: f64,
    flat_ns_per_op: f64,
    speedup: f64,
    ops: u64,
}

/// Best-of-`repeats` wall time of `f`, in ns per `ops` operations.
fn time_ns_per_op(repeats: usize, ops: u64, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..repeats {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_nanos() as f64);
    }
    best / ops as f64
}

fn tup(stream: usize, seq: u64, a: u64, b: u64) -> Tuple {
    Tuple::new(
        StreamId(stream),
        VTime::ZERO,
        SeqNo(seq),
        vec![Value(a), Value(b)],
    )
}

fn query(predicates: &[(&str, &str)], n: usize) -> JoinQuery {
    let names = ["R1", "R2", "R3"];
    let mut c = Catalog::new();
    for &name in &names[..n] {
        c.add_stream(StreamSchema::new(name, &["A1", "A2"]));
    }
    JoinQuery::from_names(c, predicates, WindowSpec::secs(1 << 20)).unwrap()
}

/// Populates per-stream windows with `per_window` tuples over a value
/// domain sized for moderate fanout, and mints the arrival batch.
fn probe_workload(
    q: &JoinQuery,
    per_window: usize,
    arrivals: usize,
    origin: usize,
    seed: u64,
) -> (Vec<WindowStore>, Vec<Tuple>) {
    let n = q.n_streams();
    let domain = (per_window as u64 / 16).max(4);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stores: Vec<WindowStore> = (0..n)
        .map(|s| {
            WindowStore::new(
                q.window(StreamId(s)),
                q.join_attrs(StreamId(s)),
                per_window + 1,
            )
        })
        .collect();
    let mut seq = 0u64;
    for (s, store) in stores.iter_mut().enumerate() {
        for _ in 0..per_window {
            let t = tup(s, seq, rng.gen_range(0..domain), rng.gen_range(0..domain));
            store.insert(t, 0.0);
            seq += 1;
        }
    }
    let batch = (0..arrivals)
        .map(|i| {
            tup(
                origin,
                1_000_000 + i as u64,
                rng.gen_range(0..domain),
                rng.gen_range(0..domain),
            )
        })
        .collect();
    (stores, batch)
}

/// Times the iterative kernel against the retained recursive one on the
/// same stores and arrival batch, asserting identical match counts first.
fn bench_probe_kernel(
    name: &str,
    q: &JoinQuery,
    origin: usize,
    per_window: usize,
    arrivals: usize,
    repeats: usize,
    seed: u64,
) -> Row {
    let (stores, batch) = probe_workload(q, per_window, arrivals, origin, seed);
    let plan = ProbePlan::new(q, StreamId(origin));
    // Correctness smoke: counts must agree tuple-for-tuple.
    for t in &batch[..batch.len().min(200)] {
        let a = probe_each(&plan, t, &stores, |_| {});
        let b = probe_each_recursive(&plan, t, &stores, |_| {});
        assert_eq!(a, b, "{name}: kernels disagree");
    }
    let run_iter = || {
        let mut total = 0u64;
        for t in &batch {
            total += probe_each(&plan, black_box(t), &stores, |b| {
                black_box(b.origin());
            });
        }
        black_box(total);
    };
    let run_rec = || {
        let mut total = 0u64;
        for t in &batch {
            total += probe_each_recursive(&plan, black_box(t), &stores, |b| {
                black_box(b.origin());
            });
        }
        black_box(total);
    };
    run_iter(); // warmup
    run_rec();
    let flat = time_ns_per_op(repeats, batch.len() as u64, run_iter);
    let base = time_ns_per_op(repeats, batch.len() as u64, run_rec);
    Row {
        bench: name.to_string(),
        baseline: "recursive kernel".to_string(),
        baseline_ns_per_op: base,
        flat_ns_per_op: flat,
        speedup: base / flat,
        ops: batch.len() as u64,
    }
}

// ---------------------------------------------------------------------------
// Legacy store replica: the exact pre-rewrite layout. One heap-allocated
// `index_pos` per entry, `HashMap<Value, Vec<Slot>>` per indexed attribute,
// and a priority heap whose position map is a `HashMap<Slot, usize>` — the
// layout `IndexedHeap` had before its positions were flattened to a vector.

struct LegacyHeap {
    heap: Vec<(Slot, f64, u64)>,
    positions: HashMap<Slot, usize>,
}

impl LegacyHeap {
    fn new() -> Self {
        LegacyHeap {
            heap: Vec::new(),
            positions: HashMap::new(),
        }
    }

    fn less(a: &(Slot, f64, u64), b: &(Slot, f64, u64)) -> bool {
        (a.1, a.2) < (b.1, b.2)
    }

    fn insert(&mut self, slot: Slot, score: f64, tie: u64) {
        let pos = self.heap.len();
        self.heap.push((slot, score, tie));
        self.positions.insert(slot, pos);
        self.sift_up(pos);
    }

    fn peek_min(&self) -> Option<(Slot, f64)> {
        self.heap.first().map(|&(s, score, _)| (s, score))
    }

    fn remove(&mut self, slot: Slot) {
        let pos = self.positions.remove(&slot).expect("slot in heap");
        let last = self.heap.len() - 1;
        self.heap.swap(pos, last);
        self.heap.pop();
        if pos <= last && pos < self.heap.len() {
            self.positions.insert(self.heap[pos].0, pos);
            self.sift_down(pos);
            self.sift_up(pos);
        }
    }

    fn sift_up(&mut self, mut pos: usize) {
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if !Self::less(&self.heap[pos], &self.heap[parent]) {
                break;
            }
            self.heap.swap(pos, parent);
            self.positions.insert(self.heap[pos].0, pos);
            self.positions.insert(self.heap[parent].0, parent);
            pos = parent;
        }
    }

    fn sift_down(&mut self, mut pos: usize) {
        loop {
            let (l, r) = (2 * pos + 1, 2 * pos + 2);
            let mut min = pos;
            if l < self.heap.len() && Self::less(&self.heap[l], &self.heap[min]) {
                min = l;
            }
            if r < self.heap.len() && Self::less(&self.heap[r], &self.heap[min]) {
                min = r;
            }
            if min == pos {
                break;
            }
            self.heap.swap(pos, min);
            self.positions.insert(self.heap[pos].0, pos);
            self.positions.insert(self.heap[min].0, min);
            pos = min;
        }
    }
}

struct LegacyEntry {
    tuple: Tuple,
    index_pos: Vec<u32>,
}

struct LegacyStore {
    join_attrs: Vec<usize>,
    arena: Arena<LegacyEntry>,
    indexes: Vec<HashMap<Value, Vec<Slot>>>,
    heap: LegacyHeap,
}

impl LegacyStore {
    fn new(join_attrs: Vec<usize>) -> Self {
        let n = join_attrs.len();
        LegacyStore {
            join_attrs,
            arena: Arena::new(),
            indexes: (0..n).map(|_| HashMap::new()).collect(),
            heap: LegacyHeap::new(),
        }
    }

    fn insert(&mut self, tuple: Tuple, score: f64) -> Slot {
        let tie = tuple.seq.0;
        let n_idx = self.join_attrs.len();
        let slot = self.arena.insert(LegacyEntry {
            tuple,
            index_pos: vec![0; n_idx],
        });
        for a in 0..n_idx {
            let value = self.arena.get(slot).unwrap().tuple.values[self.join_attrs[a]];
            let bucket = self.indexes[a].entry(value).or_default();
            let pos = bucket.len() as u32;
            bucket.push(slot);
            self.arena.get_mut(slot).unwrap().index_pos[a] = pos;
        }
        self.heap.insert(slot, score, tie);
        slot
    }

    fn evict_min(&mut self) -> Option<Tuple> {
        let (slot, _) = self.heap.peek_min()?;
        let entry = self.arena.remove(slot).expect("heap entries live");
        for (a, &attr) in self.join_attrs.iter().enumerate() {
            let value = entry.tuple.values[attr];
            let bucket = self.indexes[a].get_mut(&value).expect("indexed");
            let pos = entry.index_pos[a] as usize;
            bucket.swap_remove(pos);
            if let Some(&moved) = bucket.get(pos) {
                self.arena.get_mut(moved).unwrap().index_pos[a] = pos as u32;
            }
            if bucket.is_empty() {
                self.indexes[a].remove(&value);
            }
        }
        self.heap.remove(slot);
        Some(entry.tuple)
    }
}

/// Steady-state insert+evict churn: every insert over capacity pays one
/// min-eviction, exercising index insert, swap-remove and heap traffic.
fn bench_insert_evict(capacity: usize, churn: usize, repeats: usize, seed: u64) -> Row {
    let domain = (capacity as u64 / 16).max(4);
    let mk_batch = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..capacity + churn)
            .map(|i| {
                (
                    tup(0, i as u64, rng.gen_range(0..domain), rng.gen_range(0..domain)),
                    rng.gen::<f64>(),
                )
            })
            .collect::<Vec<_>>()
    };
    let batch = mk_batch(seed);
    let run_flat = || {
        let mut w = WindowStore::new(WindowSpec::secs(1 << 20), vec![0, 1], capacity);
        for (t, score) in &batch {
            black_box(w.insert(t.clone(), *score));
        }
        black_box(w.len());
    };
    let run_legacy = || {
        let mut w = LegacyStore::new(vec![0, 1]);
        for (t, score) in &batch {
            w.insert(t.clone(), *score);
            if w.arena.len() > capacity {
                black_box(w.evict_min());
            }
        }
        black_box(w.arena.len());
    };
    run_flat();
    run_legacy();
    let flat = time_ns_per_op(repeats, batch.len() as u64, run_flat);
    let base = time_ns_per_op(repeats, batch.len() as u64, run_legacy);
    Row {
        bench: format!("insert_evict_cap{capacity}"),
        baseline: "HashMap<Value,Vec<Slot>> store replica".to_string(),
        baseline_ns_per_op: base,
        flat_ns_per_op: flat,
        speedup: base / flat,
        ops: batch.len() as u64,
    }
}

/// Raw index probe throughput: FlatIndex vs the legacy HashMap index, same
/// contents, verified equal before timing.
fn bench_index_probe(n_slots: usize, probes: usize, repeats: usize, seed: u64) -> Row {
    let domain = (n_slots as u64 / 8).max(4);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut arena: Arena<u64> = Arena::new();
    let mut flat = FlatIndex::new();
    let mut legacy: HashMap<Value, Vec<Slot>> = HashMap::new();
    for i in 0..n_slots {
        let key = rng.gen_range(0..domain);
        let slot = arena.insert(i as u64);
        flat.insert(key, slot);
        legacy.entry(Value(key)).or_default().push(slot);
    }
    for k in 0..domain {
        let got: Vec<Slot> = flat.probe(k).iter().collect();
        let want = legacy.get(&Value(k)).cloned().unwrap_or_default();
        assert_eq!(got, want, "index contents diverge at key {k}");
    }
    let keys: Vec<u64> = (0..probes).map(|_| rng.gen_range(0..domain)).collect();
    let run_flat = || {
        let mut total = 0usize;
        for &k in &keys {
            total += flat.probe(black_box(k)).len();
        }
        black_box(total);
    };
    let run_legacy = || {
        let mut total = 0usize;
        for &k in &keys {
            total += legacy.get(&Value(black_box(k))).map_or(0, Vec::len);
        }
        black_box(total);
    };
    run_flat();
    run_legacy();
    let flat_ns = time_ns_per_op(repeats, probes as u64, run_flat);
    let base_ns = time_ns_per_op(repeats, probes as u64, run_legacy);
    Row {
        bench: format!("index_probe_{n_slots}slots"),
        baseline: "HashMap<Value,Vec<Slot>>".to_string(),
        baseline_ns_per_op: base_ns,
        flat_ns_per_op: flat_ns,
        speedup: base_ns / flat_ns,
        ops: probes as u64,
    }
}

/// The shipped sign-application kernel (lane/AVX2 path) vs the scalar
/// reference on the same buffers, asserted bitwise-equal first.
fn bench_kernel_signed_copy(len: usize, repeats: usize, seed: u64) -> Row {
    let mut rng = StdRng::seed_from_u64(seed);
    let src: Vec<f64> = (0..len).map(|_| rng.gen::<f64>() - 0.5).collect();
    let words: Vec<u64> = (0..len.div_ceil(64)).map(|_| rng.gen()).collect();
    let mut out_scalar = vec![0f64; len];
    let mut out_vec = vec![0f64; len];
    kernel::scalar::signed_copy(&words, &src, &mut out_scalar);
    kernel::signed_copy(&words, &src, &mut out_vec);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&out_scalar), bits(&out_vec), "signed_copy kernels diverge");
    let mut run_scalar = || {
        kernel::scalar::signed_copy(black_box(&words), black_box(&src), &mut out_scalar);
        black_box(&out_scalar);
    };
    let mut run_vec = || {
        kernel::signed_copy(black_box(&words), black_box(&src), &mut out_vec);
        black_box(&out_vec);
    };
    run_scalar();
    run_vec();
    let flat = time_ns_per_op(repeats.max(50), len as u64, &mut run_vec);
    let base = time_ns_per_op(repeats.max(50), len as u64, &mut run_scalar);
    Row {
        bench: format!("kernel_signed_copy_{len}"),
        baseline: "scalar kernel".to_string(),
        baseline_ns_per_op: base,
        flat_ns_per_op: flat,
        speedup: base / flat,
        ops: len as u64,
    }
}

/// The shipped mean-stage kernel (`group_sums`, lane-parallel across
/// groups with serial in-group order) vs the scalar reference,
/// asserted bitwise-equal first.
fn bench_kernel_group_sums(s1: usize, s2: usize, repeats: usize, seed: u64) -> Row {
    let mut rng = StdRng::seed_from_u64(seed);
    let per_copy: Vec<f64> = (0..s1 * s2).map(|_| rng.gen::<f64>() - 0.5).collect();
    let mut out_scalar = Vec::new();
    let mut out_vec = Vec::new();
    kernel::scalar::group_sums(&per_copy, s1, s2, &mut out_scalar);
    kernel::group_sums(&per_copy, s1, s2, &mut out_vec);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&out_scalar), bits(&out_vec), "group_sums kernels diverge");
    let mut run_scalar = || {
        out_scalar.clear();
        kernel::scalar::group_sums(black_box(&per_copy), s1, s2, &mut out_scalar);
        black_box(&out_scalar);
    };
    let mut run_vec = || {
        out_vec.clear();
        kernel::group_sums(black_box(&per_copy), s1, s2, &mut out_vec);
        black_box(&out_vec);
    };
    run_scalar();
    run_vec();
    let ops = (s1 * s2) as u64;
    let flat = time_ns_per_op(repeats.max(50), ops, &mut run_vec);
    let base = time_ns_per_op(repeats.max(50), ops, &mut run_scalar);
    Row {
        bench: format!("kernel_group_sums_{s1}x{s2}"),
        baseline: "scalar kernel".to_string(),
        baseline_ns_per_op: base,
        flat_ns_per_op: flat,
        speedup: base / flat,
        ops,
    }
}

fn main() {
    let a = Args::from_env();
    let quick = a.has_flag("--quick");
    let (per_window, arrivals, repeats) = if quick {
        (1_024, 400, 3)
    } else {
        (4_096, 4_000, 5)
    };
    let (cap, churn) = if quick { (1_024, 4_096) } else { (4_096, 65_536) };
    let (idx_slots, idx_probes) = if quick {
        (4_096, 100_000)
    } else {
        (16_384, 2_000_000)
    };

    let chain3 = query(&[("R1.A1", "R2.A1"), ("R2.A2", "R3.A1")], 3);
    let chain2 = query(&[("R1.A1", "R2.A1")], 2);
    let triangle = query(
        &[("R1.A1", "R2.A1"), ("R2.A2", "R3.A1"), ("R3.A2", "R1.A2")],
        3,
    );

    let rows = vec![
        bench_probe_kernel("probe_chain2", &chain2, 0, per_window, arrivals, repeats, a.seed),
        bench_probe_kernel(
            "probe_chain3_end",
            &chain3,
            0,
            per_window,
            arrivals,
            repeats,
            a.seed + 1,
        ),
        bench_probe_kernel(
            "probe_chain3_mid_star",
            &chain3,
            1,
            per_window,
            arrivals,
            repeats,
            a.seed + 2,
        ),
        bench_probe_kernel(
            "probe_triangle_residual",
            &triangle,
            0,
            per_window,
            arrivals,
            repeats,
            a.seed + 3,
        ),
        bench_insert_evict(cap, churn, repeats, a.seed + 4),
        bench_index_probe(idx_slots, idx_probes, repeats, a.seed + 5),
        bench_kernel_signed_copy(if quick { 16_384 } else { 65_536 }, repeats, a.seed + 7),
        bench_kernel_group_sums(32, if quick { 512 } else { 2_048 }, repeats, a.seed + 8),
    ];

    let header: Vec<String> = ["bench", "baseline ns/op", "flat ns/op", "speedup"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.bench.clone(),
                format!("{:.1}", r.baseline_ns_per_op),
                format!("{:.1}", r.flat_ns_per_op),
                format!("{:.2}x", r.speedup),
            ]
        })
        .collect();
    table::print_table("probe/eviction hot path: legacy vs flat", &header, &cells);
    args::maybe_dump_json(&a.json, &rows);
}
