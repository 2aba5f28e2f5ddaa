//! Shard-scaling throughput: the sharded engine on a key-partitionable
//! variant of the paper's query across a sweep of worker counts.
//!
//! Not a figure from the paper — the ICDE'07 operator is single-threaded —
//! but the measurement behind the sharded-execution design notes in
//! DESIGN.md (§11, §12): when every predicate rides one attribute class,
//! hash partitioning splits both the work and the memory budget `S` ways
//! with no cross-shard probes, so throughput should scale until routing
//! skew or channel overhead dominates. The `--zipf` workload measures the
//! skew-adaptive answer to the "routing skew dominates" failure mode:
//! heavy-hitter keys are split across shards with replicated build sides,
//! so probe-work imbalance stays near 1.0 even when one key carries >60%
//! of the traffic.
//!
//! Each shard count gets one untimed warmup pass (thread spin-up, page
//! faults, allocator steady state), then fresh-engine passes over the same
//! trace until at least `--min-secs` (default 1) of measured wall time
//! accumulates, so a point is never a single sub-second sample.
//!
//! Every pass also samples the process-wide allocation counter over the
//! second half of the trace (after the batch-buffer pool has primed) and
//! reports routing imbalance (max shard probe load over the mean). With
//! `--route-only`, workers drain batches without joining, isolating the
//! data-plane cost — mint + route + channel round-trip — where steady
//! state must allocate **zero** times per arrival for inline arities.
//!
//! ```text
//! cargo run --release -p mstream-bench --bin shard_scaling
//! cargo run --release -p mstream-bench --bin shard_scaling -- --route-only
//! cargo run --release -p mstream-bench --bin shard_scaling -- --zipf 2.0 --shards 1,4,8
//! cargo run --release -p mstream-bench --bin shard_scaling -- --scale 0.2 --mem-pct 100 --json out.json
//! ```
//!
//! Flags beyond the common set:
//!
//! * `--zipf <theta>` — replace the regions trace with a synthetic
//!   Zipf(theta) hot-key trace (domain 1000, tuple windows), and arm an
//!   aggressive hot-key detector (epoch 64 arrivals, promote at 5‰).
//! * `--shards <list>` — comma-separated shard counts (default `1,2,4,8`);
//!   speedups are relative to the first entry.
//! * `--mem-pct <pct>` — total memory as a percentage of the full window
//!   (default 25). At >= 100 the run is made provably lossless (every
//!   window can hold the whole trace on every shard), so every shard
//!   count produces the identical output multiset (the skewed-route
//!   differential smoke in check.sh gates on this).
//! * `--disorder <list>` — comma-separated disorder bounds K in
//!   milliseconds (e.g. `0,16,256`). Each K gets its own sweep point per
//!   shard count: the feed order is shuffled with per-arrival lateness
//!   bounded by K (deterministic jitter sort) and the coordinator's
//!   event-time front end is armed with the same bound (DESIGN.md §13),
//!   so the rows measure pure reorder-buffer overhead — covered disorder
//!   must reproduce the identical output at every K, and the
//!   `shard_scaling_disorder` section of BENCH_shard.json gates the
//!   wall-time cost.
//! * `--score-cache on|off` — build every worker with the productivity
//!   score cache on (the default) or off (DESIGN.md §16). Output is
//!   identical by contract; `scripts/bench_shard.sh` runs both legs for
//!   the `score_cache_zipf` section of BENCH_shard.json.

use mstream_bench::{args, paper, table, Args};
use mstream_core::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapped with a process-wide allocation counter, so
/// the bench can demonstrate the data plane's zero-allocation steady
/// state without external tooling.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The paper's 3-relation shape with both predicates through `A1` — one
/// attribute-equivalence class, so the query partitions by key.
fn keyed_query(window: WindowSpec) -> JoinQuery {
    let mut catalog = Catalog::new();
    catalog.add_stream(StreamSchema::new("R1", &["A1", "A2"]));
    catalog.add_stream(StreamSchema::new("R2", &["A1", "A2"]));
    catalog.add_stream(StreamSchema::new("R3", &["A1", "A2"]));
    JoinQuery::from_names(catalog, &[("R1.A1", "R2.A1"), ("R2.A1", "R3.A1")], window)
        .expect("valid query")
}

/// Tuple window for the Zipf workload: deep enough that the hot-key
/// fan-out gate (one full window turnover per stream) opens in ~300
/// arrivals, shallow enough that per-shard replicated windows stay small.
const ZIPF_WINDOW: u64 = 100;

/// Join-key domain of the Zipf workload.
const ZIPF_DOMAIN: u64 = 1000;

/// A synthetic Zipf(theta) hot-key trace: arrivals rotate across the
/// three streams; the join key (attr 0) is drawn from a Zipf(theta)
/// distribution over `ZIPF_DOMAIN` values via inverse-CDF sampling (at
/// theta = 2.0 the top key alone carries ~61% of the traffic), the
/// second attribute is uniform noise.
fn zipf_trace(theta: f64, arrivals: usize, seed: u64) -> Trace {
    let weights: Vec<f64> = (1..=ZIPF_DOMAIN)
        .map(|k| 1.0 / (k as f64).powf(theta))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(weights.len());
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cdf.push(acc);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trace = Trace::new();
    for i in 0..arrivals {
        let u: f64 = rng.gen();
        let key = cdf.partition_point(|&c| c < u) as u64;
        trace.push(
            StreamId(i % 3),
            vec![Value(key), Value(rng.gen_range(0..ZIPF_DOMAIN))],
        );
    }
    trace
}

/// The aggressive detector for the Zipf workload: decisions every 64
/// arrivals, promotion at a guaranteed 5‰ share (at theta = 2.0 that
/// certifies the ~11 keys carrying ~95% of traffic), tracker sized past
/// the key domain so counts are exact.
fn zipf_hot_config() -> HotKeyConfig {
    HotKeyConfig {
        enabled: true,
        capacity: 64,
        tracker_capacity: 2048,
        epoch_arrivals: 64,
        promote_permille: 5,
        demote_permille: 2,
    }
}

struct Pass {
    report: ShardedRunReport,
    /// Allocation calls observed process-wide over the trace's second
    /// half (buffer pool primed; includes worker-thread join work unless
    /// `--route-only`).
    steady_allocs: u64,
}

/// Largest shard probe load divided by the mean load (1.0 = even).
fn imbalance(routed: &[u64]) -> f64 {
    let total: u64 = routed.iter().sum();
    if total == 0 || routed.is_empty() {
        return 1.0;
    }
    let mean = total as f64 / routed.len() as f64;
    routed.iter().copied().max().unwrap_or(0) as f64 / mean
}

fn main() {
    let args = Args::from_env();
    let scale = args.scale_or(1.0);
    let route_only = args.has_flag("--route-only");
    let min_secs: f64 = args
        .flag_value("--min-secs")
        .map(|v| v.parse().expect("--min-secs takes a number"))
        .unwrap_or(1.0);
    let zipf_theta: Option<f64> = args
        .flag_value("--zipf")
        .map(|v| v.parse().expect("--zipf takes the exponent theta"));
    let shard_list: Vec<usize> = args
        .flag_value("--shards")
        .map(|v| {
            v.split(',')
                .map(|s| s.trim().parse().expect("--shards takes e.g. 1,2,4,8"))
                .collect()
        })
        .unwrap_or_else(|| vec![1, 2, 4, 8]);
    assert!(!shard_list.is_empty(), "--shards needs at least one count");
    let mem_pct: u32 = args
        .flag_value("--mem-pct")
        .map(|v| v.parse().expect("--mem-pct takes a percentage"))
        .unwrap_or(25);
    let disorder_ms: Option<Vec<u64>> = args.flag_value("--disorder").map(|v| {
        v.split(',')
            .map(|s| s.trim().parse().expect("--disorder takes e.g. 0,16,256 (ms)"))
            .collect()
    });
    let score_cache = match args.flag_value("--score-cache") {
        None | Some("on") => true,
        Some("off") => false,
        Some(other) => panic!("--score-cache takes on|off, got {other}"),
    };

    let (query, trace, base_capacity, workload) = match zipf_theta {
        Some(theta) => {
            // Long enough that the one-time detection + fan-out-gate
            // transient (a few hundred home-pinned arrivals per hot key)
            // amortizes into the steady-state routing balance.
            let arrivals = ((100_000.0 * scale).round() as usize).max(600);
            (
                keyed_query(WindowSpec::Tuples(ZIPF_WINDOW)),
                zipf_trace(theta, arrivals, args.seed),
                ((ZIPF_WINDOW as usize * mem_pct as usize) / 100).max(2),
                "zipf",
            )
        }
        None => (
            keyed_query(WindowSpec::secs(paper::scaled_window(scale))),
            paper::paper_regions(paper::Z_INTRA_RANGES[1], scale, args.seed).generate(),
            paper::memory_tuples(mem_pct, scale),
            "uniform",
        ),
    };
    let rate = 1000.0;
    let cores = std::thread::available_parallelism().map_or(1, usize::from);

    // One delivery order per disorder bound: index `i`'s sort key is its
    // schedule instant (`i·dt`) plus a deterministic jitter in `[0, K]`,
    // ties broken by index. Delivered lateness never exceeds K (an
    // earlier-keyed arrival's instant is at most `key ≤ ts + K` ahead), so
    // a front end armed with bound K accepts every arrival and the run
    // measures pure reordering overhead — no output changes.
    let dt = VDur::from_rate(rate);
    let delivery_order = |k_ms: u64| -> Vec<usize> {
        let k_micros = k_ms * 1000;
        let mut keyed: Vec<(u64, usize)> = (0..trace.len())
            .map(|i| {
                let mixed = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33;
                (dt.mul(i as u64).as_micros() + mixed % (k_micros + 1), i)
            })
            .collect();
        keyed.sort_unstable();
        keyed.into_iter().map(|(_, i)| i).collect()
    };

    let run_pass = |shards: usize, disorder: Option<(u64, &[usize])>| -> Pass {
        // At >= 100% the run is made *provably* lossless instead of
        // nominally so: every window can hold the whole trace on every
        // shard (hot-key splitting replicates build sides, so "full
        // memory" must survive any routing — DESIGN.md §12 memory math).
        // A budget of exactly the window's occupancy still sheds at the
        // insert instant, before expiry frees the outgoing slot.
        let capacity = if mem_pct >= 100 {
            (trace.len() + 1) * shards
        } else {
            base_capacity
        };
        let hot_keys = if zipf_theta.is_some() {
            zipf_hot_config()
        } else {
            HotKeyConfig::default()
        };
        let mut builder = EngineBuilder::new(query.clone())
            .policy(MSketch)
            .capacity_per_window(capacity)
            .score_cache(score_cache)
            .seed(args.seed);
        if let Some((k_ms, _)) = disorder {
            builder = builder.disorder_bound(VDur::from_micros(k_ms * 1000));
        }
        let mut engine = builder
            .shard_config(ShardConfig {
                shards,
                channel_capacity: 64,
                batch_size: 256,
                backpressure: Backpressure::Block,
                collect_rows: false,
                route_only,
                hot_keys,
                ..ShardConfig::default()
            })
            .build_sharded()
            .expect("valid engine");
        assert_eq!(engine.shards(), shards, "query must partition");
        // Feed the trace on run_trace's virtual-time schedule (each
        // arrival's timestamp is its *scheduled* instant even when the
        // delivery order is shuffled), snapshotting the allocation counter
        // at the halfway point: by then the batch buffers are recycling,
        // so the second half is the steady state.
        let half = trace.len() / 2;
        let mut before = 0u64;
        for p in 0..trace.len() {
            if p == half {
                before = ALLOC_CALLS.load(Ordering::Relaxed);
            }
            let i = disorder.map_or(p, |(_, order)| order[p]);
            let item = &trace.items[i];
            let now = VTime::ZERO + dt.mul(i as u64);
            engine.ingest(Arrival::new(item.stream, item.values.clone(), now));
        }
        let steady_allocs = ALLOC_CALLS.load(Ordering::Relaxed) - before;
        let report = engine.finish().expect("workers exit cleanly");
        Pass {
            report,
            steady_allocs,
        }
    };

    let k_orders: Vec<(u64, Vec<usize>)> = disorder_ms
        .as_deref()
        .unwrap_or_default()
        .iter()
        .map(|&k| (k, delivery_order(k)))
        .collect();
    let mut points: Vec<(usize, Option<u64>)> = Vec::new();
    for &shards in &shard_list {
        match &disorder_ms {
            Some(ks) => points.extend(ks.iter().map(|&k| (shards, Some(k)))),
            None => points.push((shards, None)),
        }
    }

    let mut header = vec![
        "shards".to_string(),
        "time (s)".to_string(),
        "passes".to_string(),
        "output".to_string(),
        "tuples/s".to_string(),
        "imbalance".to_string(),
        "promoted".to_string(),
        "steady allocs".to_string(),
        "score (ms)".to_string(),
        "rebuild (ms)".to_string(),
        "speedup".to_string(),
    ];
    if disorder_ms.is_some() {
        header.insert(1, "K (ms)".to_string());
    }
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let mut base_secs = 0.0f64;
    let mut times = Vec::new();
    for (point, &(shards, k_ms)) in points.iter().enumerate() {
        let disorder = k_ms.map(|k| {
            let order = &k_orders.iter().find(|(ko, _)| *ko == k).expect("order built").1;
            (k, order.as_slice())
        });
        // Untimed warmup: thread spin-up, page faults, allocator warm.
        let warm = run_pass(shards, disorder);
        // Timed passes until the point has accumulated `min_secs` of wall
        // time; each pass is a fresh engine over the same trace.
        let mut total_secs = 0.0f64;
        let mut passes = 0u32;
        let mut output = 0u64;
        let mut processed = 0u64;
        let mut replicated = 0u64;
        let mut shed_window = 0u64;
        let mut hot_promoted = 0u64;
        let mut score_ns = 0u64;
        let mut priority_rebuild_ns = 0u64;
        let mut steady_allocs = u64::MAX;
        let mut skew = 1.0f64;
        let mut routed = Vec::new();
        let mut resident = Vec::new();
        while total_secs < min_secs {
            let pass = run_pass(shards, disorder);
            assert_eq!(
                pass.report.combined.total_output(),
                warm.report.combined.total_output(),
                "passes must be deterministic"
            );
            total_secs += pass.report.combined.wall_time.as_secs_f64();
            output = pass.report.combined.total_output();
            processed = pass.report.combined.metrics.processed;
            replicated = pass.report.combined.metrics.replicated;
            shed_window = pass.report.combined.metrics.shed_window;
            hot_promoted = pass.report.hot_promoted;
            // Summed across shards (the coordinator merge): the shedding
            // decision + rollover rescoring cost the score cache targets.
            score_ns = pass.report.combined.metrics.score_ns;
            priority_rebuild_ns = pass.report.combined.metrics.priority_rebuild_ns;
            // Keep the *minimum* steady-state count: any single pass with
            // zero allocations proves the plane itself allocates nothing
            // (other passes can be polluted by OS/runtime noise).
            steady_allocs = steady_allocs.min(pass.steady_allocs);
            skew = imbalance(&pass.report.routed);
            routed = pass.report.routed.clone();
            resident = pass.report.resident.clone();
            passes += 1;
        }
        let secs = total_secs / passes as f64;
        if point == 0 {
            base_secs = secs;
        }
        times.push(secs);
        let throughput = if route_only {
            trace.len() as f64 / secs
        } else {
            processed as f64 / secs
        };
        let mut row = vec![
            shards.to_string(),
            format!("{secs:.3}"),
            passes.to_string(),
            output.to_string(),
            table::fmt_num(throughput),
            format!("{skew:.2}"),
            hot_promoted.to_string(),
            steady_allocs.to_string(),
            format!("{:.2}", score_ns as f64 / 1e6),
            format!("{:.2}", priority_rebuild_ns as f64 / 1e6),
            format!("{:.2}x", base_secs / secs),
        ];
        if let Some(k) = k_ms {
            row.insert(1, k.to_string());
        }
        rows.push(row);
        let json_row = serde_json::json!({
            "shards": shards,
            "seconds": secs,
            "passes": passes,
            "measured_seconds": total_secs,
            "arrivals": trace.len(),
            "output": output,
            "processed": processed,
            "replicated": replicated,
            "shed_window": shed_window,
            "imbalance": skew,
            "routed": routed,
            "resident": resident,
            "hot_promoted": hot_promoted,
            "steady_allocs": steady_allocs,
            "score_ns": score_ns,
            "priority_rebuild_ns": priority_rebuild_ns,
            "route_only": route_only,
            "workload": workload,
            "zipf_theta": zipf_theta,
            "mem_pct": mem_pct,
            "cores": cores,
            "speedup": base_secs / secs,
        });
        let json_row = match (k_ms, json_row) {
            (Some(k), serde_json::Value::Object(mut m)) => {
                m.push(("disorder_k_ms".to_string(), serde_json::json!(k)));
                serde_json::Value::Object(m)
            }
            (_, v) => v,
        };
        json_rows.push(json_row);
    }
    let title = if let Some(ks) = &disorder_ms {
        format!(
            "Shard scaling (bounded disorder K ∈ {ks:?} ms): keyed 3-way join, {mem_pct}% memory, {} arrivals",
            trace.len()
        )
    } else if route_only {
        format!(
            "Shard scaling (route-only data plane): keyed 3-way join trace, {} arrivals",
            trace.len()
        )
    } else if let Some(theta) = zipf_theta {
        format!(
            "Shard scaling (Zipf theta={theta} hot keys): keyed 3-way join, {mem_pct}% memory, {} arrivals",
            trace.len()
        )
    } else {
        format!("Shard scaling: keyed 3-way join, {mem_pct}% memory ({base_capacity} tuples total)")
    };
    table::print_table(&title, &header, &rows);
    if disorder_ms.is_some() {
        // The headline is deterministic: covered disorder is invisible —
        // every K (including 0) must reproduce the identical output count
        // at every shard count, with the reorder buffer the only cost.
        let invisible = json_rows
            .windows(2)
            .all(|w| w[0]["shards"] != w[1]["shards"] || w[0]["output"] == w[1]["output"]);
        table::print_shape(
            "bounded disorder is output-invisible (every K reproduces the same output per shard count)",
            invisible,
        );
    } else if route_only {
        table::print_shape(
            "steady-state data plane allocates nothing (some pass saw 0 allocs per arrival)",
            json_rows
                .iter()
                .any(|r| r["steady_allocs"].as_u64() == Some(0)),
        );
    } else if zipf_theta.is_some() {
        // The skew headline is deterministic (routing, not wall time):
        // heavy-hitter splitting must hold probe-work imbalance near 1.0
        // at every multi-shard point despite the >60%-share hot key.
        let balanced = json_rows
            .iter()
            .filter(|r| r["shards"].as_u64().unwrap_or(1) > 1)
            .all(|r| r["imbalance"].as_f64().unwrap_or(f64::MAX) <= 1.05);
        table::print_shape(
            "hot-key splitting holds probe imbalance <= 1.05 at every multi-shard point",
            balanced,
        );
    } else if times.len() >= 2 && cores > 1 {
        table::print_shape(
            "multi-shard beats single-shard wall time (some multi-shard point faster than the first)",
            times[1..].iter().any(|t| *t < times[0]),
        );
    } else {
        println!(
            "# paper-shape: wall-time scaling not evaluated ({} measured point(s), {cores} core(s))",
            times.len()
        );
    }
    args::maybe_dump_json(&args.json, &json_rows);
}
