//! Drives: a workload's trace replayed through one layer's public
//! functions alone, with the calls timed from outside.
//!
//! Homogeneous loops (one kind of call) are timed by their spans, one span
//! per 1024 calls. Replays that interleave several kinds of call time each
//! call with an [`OpTimer`], which subtracts the clock's own cost.

use crate::span::Tracer;
use crate::workloads::Prepared;
use crate::ALLOC;
use mstream_core::mstream_join::{probe_each, ProbePlan};
use mstream_core::mstream_sketch::TumblingSketches;
use mstream_core::mstream_window::{Eviction, ReorderBuffer, WindowStore};
use mstream_core::mstream_workload::{read_trace, write_trace};
use mstream_core::prelude::*;
use mstream_query::parse_query;
use std::time::Instant;

/// Calls per span in a drive.
pub const GROUP: usize = 1024;
/// Arrivals a drive replays at most.
const DRIVE_ARRIVALS: usize = 120_000;
/// Rows the join drive enumerates at most.
const JOIN_ROW_BUDGET: u64 = 1_000_000_000;
/// Calls a homogeneous micro-loop makes at least.
const MICRO_OPS: usize = 200_000;

/// Times single calls, net of what reading the clock twice costs.
pub struct OpTimer {
    /// Median nanoseconds between two back-to-back clock reads.
    pub overhead_ns: u64,
}

impl OpTimer {
    /// Measures the clock's own cost on this machine.
    pub fn calibrate() -> Self {
        let mut samples: Vec<u64> = (0..20_001)
            .map(|_| {
                let t0 = Instant::now();
                t0.elapsed().as_nanos() as u64
            })
            .collect();
        samples.sort_unstable();
        OpTimer {
            overhead_ns: samples[samples.len() / 2],
        }
    }

    /// Runs `f` and returns its result and its net duration.
    #[inline]
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> (T, u64) {
        let t0 = Instant::now();
        let out = f();
        let ns = t0.elapsed().as_nanos() as u64;
        (out, ns.saturating_sub(self.overhead_ns))
    }
}

/// Query 0's own arrivals on the oracle timeline, with query-local stream
/// ids, capped at [`DRIVE_ARRIVALS`].
fn drive_arrivals(p: &Prepared) -> Vec<Arrival> {
    let q = &p.queries[0];
    p.timeline()
        .iter()
        .filter_map(|a| {
            let local = q.global.iter().position(|g| *g == a.stream)?;
            Some(Arrival::new(StreamId(local), a.values.clone(), a.ts))
        })
        .take(DRIVE_ARRIVALS)
        .collect()
}

/// A deterministic pseudo-random score in `[0, 1)` for tuple `seq`.
fn score_of(seq: u64) -> f64 {
    let mut z = seq.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
}

/// Runs `op` over `items` in spans of [`GROUP`] calls named `name`;
/// returns `(calls, nanoseconds inside the spans)`.
fn grouped<I>(
    tracer: &mut Tracer,
    name: &'static str,
    items: impl Iterator<Item = I>,
    mut op: impl FnMut(I),
) -> (u64, u64) {
    let name = tracer.name(name);
    let mut items = items.peekable();
    let (mut calls, mut ns) = (0u64, 0u64);
    while items.peek().is_some() {
        let id = tracer.begin(name);
        let mut n = 0u64;
        for item in items.by_ref().take(GROUP) {
            op(item);
            n += 1;
        }
        tracer.end(id, n);
        calls += n;
        ns += tracer.spans()[id as usize].duration_ns();
    }
    (calls, ns)
}

/// The tumbling epoch the engine derives for `query`.
fn default_epoch(query: &JoinQuery) -> EpochSpec {
    match query.window(StreamId(0)) {
        WindowSpec::Time(p) => EpochSpec::Time(p),
        WindowSpec::Tuples(n) => EpochSpec::PerStreamTuples(n),
    }
}

/// What the sketch drive measured.
pub struct SketchNumbers {
    /// `TumblingSketches::observe`, mean net nanoseconds per call.
    pub observe_ns_per_op: f64,
    /// `TumblingSketches::productivity`, mean net nanoseconds per call.
    pub score_ns_per_op: f64,
    /// Slowest `observe` call that rolled the epoch.
    pub rollover_ns_max: f64,
    /// Heap the sketch bank holds once built.
    pub bank_mb: f64,
}

/// Replays query 0's arrivals through `TumblingSketches` alone: `observe`
/// then `productivity` per arrival, as the engine orders them.
pub fn sketch_drive(p: &Prepared, tracer: &mut Tracer, timer: &OpTimer) -> SketchNumbers {
    tracer.scope("drive.sketch", |tracer| {
        let query = &p.queries[0].query;
        let arrivals = drive_arrivals(p);
        let before = ALLOC.live();
        let mut sketches =
            TumblingSketches::new(query, BankConfig::default(), default_epoch(query));
        let bank_bytes = ALLOC.live().saturating_sub(before);
        let (mut observe_ns, mut score_ns, mut roll_max) = (0u64, 0u64, 0u64);
        let (calls, _) = grouped(
            tracer,
            "sketch.observe+productivity",
            arrivals.iter(),
            |a| {
                let (rolled, ns) = timer.time(|| sketches.observe(a.stream, &a.values, a.ts));
                observe_ns += ns;
                if rolled {
                    roll_max = roll_max.max(ns);
                }
                let (score, ns) = timer.time(|| sketches.productivity(a.stream, &a.values));
                std::hint::black_box(score);
                score_ns += ns;
            },
        );
        let n = calls.max(1) as f64;
        let out = SketchNumbers {
            observe_ns_per_op: observe_ns as f64 / n,
            score_ns_per_op: score_ns as f64 / n,
            rollover_ns_max: roll_max as f64,
            bank_mb: bank_bytes as f64 / 1e6,
        };
        (out, calls)
    })
}

/// What the window drive measured.
pub struct WindowNumbers {
    /// `insert_scored` (evicting when full), mean net ns per call.
    pub insert_evict_ns_per_op: f64,
    /// `expire` on every store, mean net ns per arrival.
    pub expire_ns_per_op: f64,
    /// `probe(..).len()` on the first partner index, mean net ns per call.
    pub index_probe_ns_per_op: f64,
    /// `update_priority`, mean ns per call.
    pub heap_update_ns_per_op: f64,
    /// `rebuild_priorities_grouped`, mean ns per resident tuple.
    pub rebuild_grouped_ns_per_tuple: f64,
    /// Tuples evicted by priority during the replay.
    pub evictions: f64,
    /// Heap held per resident tuple at the end of the replay.
    pub bytes_per_tuple: f64,
}

/// Replays query 0's arrivals through `WindowStore`s alone at the
/// workload's budget (expire, index lookup, scored insert), then exercises
/// the heap on the filled store.
pub fn window_drive(p: &Prepared, tracer: &mut Tracer, timer: &OpTimer) -> WindowNumbers {
    tracer.scope("drive.window", |tracer| {
        let query = &p.queries[0].query;
        let plans = ProbePlan::all(query);
        let arrivals = drive_arrivals(p);
        let before = ALLOC.live();
        let mut stores: Vec<WindowStore> = (0..query.n_streams())
            .map(|s| {
                let sid = StreamId(s);
                WindowStore::new(query.window(sid), query.join_attrs(sid), p.capacity)
            })
            .collect();
        let (mut insert_ns, mut expire_ns, mut probe_ns, mut evictions) = (0u64, 0u64, 0u64, 0u64);
        let (calls, _) = grouped(
            tracer,
            "window.expire+probe+insert",
            arrivals.iter().enumerate(),
            |(i, a)| {
                let tuple = Tuple::new(a.stream, a.ts, SeqNo(i as u64), a.values.clone());
                let ((), ns) = timer.time(|| {
                    for store in stores.iter_mut() {
                        std::hint::black_box(store.expire(a.ts));
                    }
                });
                expire_ns += ns;
                let step = &plans[a.stream.index()].steps()[0];
                let value = tuple.values[step.drive_attr];
                let (len, ns) = timer.time(|| {
                    stores[step.stream.index()]
                        .probe(step.probe_attr, value)
                        .len()
                });
                std::hint::black_box(len);
                probe_ns += ns;
                let score = score_of(i as u64);
                let (outcome, ns) =
                    timer.time(|| stores[a.stream.index()].insert_scored(tuple, score, 0.0));
                insert_ns += ns;
                if matches!(outcome.eviction, Eviction::Evicted(_)) {
                    evictions += 1;
                }
            },
        );
        let resident: usize = stores.iter().map(WindowStore::len).sum();
        let held = ALLOC.live().saturating_sub(before);

        // Heap updates and grouped rebuilds on the filled store of stream
        // 0 (one join attribute in every workload's first query, so the
        // grouped walk is the one that runs).
        let store = &mut stores[0];
        let slots: Vec<_> = store.iter().map(|(slot, _)| slot).collect();
        let rounds = (MICRO_OPS / slots.len().max(1)).max(1);
        let updates = (0..rounds).flat_map(|r| slots.iter().map(move |s| (r, *s)));
        let (update_calls, update_ns) =
            grouped(tracer, "window.update_priority", updates, |(r, slot)| {
                store.update_priority(slot, score_of((r * 7919 + slot.index()) as u64));
            });
        let name = tracer.name("window.rebuild_priorities_grouped");
        let (mut rebuilt, mut rebuild_ns) = (0u64, 0u64);
        for r in 0..rounds {
            let id = tracer.begin(name);
            store.rebuild_priorities_grouped(|t, _produced, shared| {
                let est = shared.unwrap_or_else(|| score_of(t.values[0].raw() + r as u64));
                (est + score_of(t.seq.0) * 1e-3, 0.0, est)
            });
            tracer.end(id, store.len() as u64);
            rebuilt += store.len() as u64;
            rebuild_ns += tracer.spans()[id as usize].duration_ns();
        }
        let n = calls.max(1) as f64;
        let out = WindowNumbers {
            insert_evict_ns_per_op: insert_ns as f64 / n,
            expire_ns_per_op: expire_ns as f64 / n,
            index_probe_ns_per_op: probe_ns as f64 / n,
            heap_update_ns_per_op: update_ns as f64 / update_calls.max(1) as f64,
            rebuild_grouped_ns_per_tuple: rebuild_ns as f64 / rebuilt.max(1) as f64,
            evictions: evictions as f64,
            bytes_per_tuple: held as f64 / resident.max(1) as f64,
        };
        (out, calls)
    })
}

/// What the join drive measured.
pub struct JoinNumbers {
    /// `probe_count`, net nanoseconds per enumerated row.
    pub probe_ns_per_row: f64,
    /// `probe_count`, net nanoseconds per call.
    pub probe_ns_per_arrival: f64,
    /// Rows the drive enumerated.
    pub rows_enumerated: f64,
    /// `ProbePlan::all`, microseconds per call.
    pub plan_build_us: f64,
}

/// `probe_count` per arrival against stores filled by an unshedded replay
/// of query 0, so the rows enumerated are the oracle's and the cost is per
/// row. Stops once [`JOIN_ROW_BUDGET`] rows have been enumerated.
pub fn join_drive(p: &Prepared, tracer: &mut Tracer, timer: &OpTimer) -> JoinNumbers {
    tracer.scope("drive.join", |tracer| {
        let query = &p.queries[0].query;
        let arrivals = drive_arrivals(p);
        const REPS: u32 = 200;
        let t0 = Instant::now();
        for _ in 0..REPS {
            std::hint::black_box(ProbePlan::all(std::hint::black_box(query)));
        }
        let plan_build_us = t0.elapsed().as_secs_f64() * 1e6 / f64::from(REPS);
        let plans = ProbePlan::all(query);
        let mut stores: Vec<WindowStore> = (0..query.n_streams())
            .map(|s| {
                let sid = StreamId(s);
                WindowStore::new(query.window(sid), query.join_attrs(sid), usize::MAX / 2)
            })
            .collect();
        let name = tracer.name("join.probe_each");
        let mut sink = CountSink::default();
        let (mut rows, mut probe_ns, mut calls) = (0u64, 0u64, 0u64);
        for (g, group) in arrivals.chunks(GROUP).enumerate() {
            if rows >= JOIN_ROW_BUDGET {
                break;
            }
            let id = tracer.begin(name);
            let mut group_rows = 0u64;
            for (k, a) in group.iter().enumerate() {
                for store in stores.iter_mut() {
                    let _ = store.expire(a.ts);
                }
                let seq = SeqNo((g * GROUP + k) as u64);
                let tuple = Tuple::new(a.stream, a.ts, seq, a.values.clone());
                let (n, ns) = timer.time(|| {
                    probe_each(&plans[a.stream.index()], &tuple, &stores, |b| {
                        sink.emit(QueryId::SOLO, b);
                    })
                });
                group_rows += n;
                probe_ns += ns;
                calls += 1;
                stores[a.stream.index()].insert(tuple, 0.0);
            }
            tracer.end(id, group_rows);
            rows += group_rows;
        }
        assert_eq!(
            std::hint::black_box(&sink).produced,
            rows,
            "the sink saw every row"
        );
        let out = JoinNumbers {
            probe_ns_per_row: probe_ns as f64 / rows.max(1) as f64,
            probe_ns_per_arrival: probe_ns as f64 / calls.max(1) as f64,
            rows_enumerated: rows as f64,
            plan_build_us,
        };
        (out, rows)
    })
}

/// Replays the delivery order through `ReorderBuffer`s alone, with the
/// engine's admission rule (watermark = slowest stream's newest timestamp
/// minus the bound). Returns nanoseconds per delivered arrival.
pub fn reorder_drive(p: &Prepared, tracer: &mut Tracer) -> f64 {
    let bound = p
        .disorder
        .expect("only the disorder workload drives the reorder layer");
    tracer.scope("drive.reorder", |tracer| {
        let n_streams = p.queries[0].query.n_streams();
        let mut buffers: Vec<ReorderBuffer<Arrival>> =
            (0..n_streams).map(|_| ReorderBuffer::new()).collect();
        let mut hwm = vec![VTime::ZERO; n_streams];
        let mut admitted = 0u64;
        let mut released = 0u64;
        let arrivals = p.arrivals.iter().take(DRIVE_ARRIVALS).cloned();
        let (calls, ns) = grouped(tracer, "window.reorder_push_pop", arrivals, |a| {
            let k = a.stream.index();
            hwm[k] = hwm[k].max(a.ts);
            let wm = *hwm.iter().min().expect("a join has streams") - bound;
            if a.ts < wm {
                return;
            }
            buffers[k].push(a.ts, admitted, a);
            admitted += 1;
            loop {
                let head = buffers
                    .iter()
                    .enumerate()
                    .filter_map(|(s, b)| b.peek_key().map(|key| (key, s)))
                    .min();
                match head {
                    Some(((ts, _), s)) if ts < wm => {
                        std::hint::black_box(buffers[s].pop());
                        released += 1;
                    }
                    _ => break,
                }
            }
        });
        std::hint::black_box(released);
        (ns as f64 / calls.max(1) as f64, calls)
    })
}

/// `(CSV read MB/s, query parse µs)`: a `write_trace` → `read_trace` round
/// trip of the workload's trace, and parsing every standing query's text.
pub fn io_drive(p: &Prepared, tracer: &mut Tracer) -> (f64, f64) {
    tracer.scope("drive.workload+query", |tracer| {
        let mut trace = Trace::new();
        for a in p.arrivals.iter().take(DRIVE_ARRIVALS) {
            trace.push(a.stream, a.values.clone());
        }
        let mut csv = Vec::new();
        tracer.scope("workload.write_trace", |_| {
            write_trace(&trace, &mut csv).expect("writing to memory cannot fail");
            ((), trace.len() as u64)
        });
        let t0 = Instant::now();
        let back = tracer.scope("workload.read_trace", |_| {
            let back = read_trace(csv.as_slice()).expect("a written trace reads back");
            let n = back.len() as u64;
            (back, n)
        });
        let read_s = t0.elapsed().as_secs_f64();
        assert_eq!(back, trace, "CSV round trip preserves the trace");
        const REPS: u32 = 200;
        let t0 = Instant::now();
        tracer.scope("query.parse_query", |_| {
            for _ in 0..REPS {
                for q in &p.queries {
                    std::hint::black_box(parse_query(std::hint::black_box(&q.text)))
                        .expect("workload query text is valid");
                }
            }
            ((), u64::from(REPS) * p.queries.len() as u64)
        });
        let parse_us = t0.elapsed().as_secs_f64() * 1e6 / f64::from(REPS);
        (
            (csv.len() as f64 / 1e6 / read_s, parse_us),
            trace.len() as u64,
        )
    })
}
