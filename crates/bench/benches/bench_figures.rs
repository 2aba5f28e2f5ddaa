//! End-to-end smoke benchmarks: one tiny-scale run per paper experiment so
//! `cargo bench` exercises every figure's full code path (workload
//! generation → simulation → metrics). The printable full-scale tables
//! come from the `fig*` binaries (see DESIGN.md §4), not from here.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mstream_bench::{paper, runner};
use mstream_core::prelude::*;

const SCALE: f64 = 0.04;

fn bench_figures(c: &mut Criterion) {
    let mut group = c.benchmark_group("figure_paths");
    group.sample_size(10);
    let query = paper::paper_query(paper::scaled_window(SCALE));
    let high_skew = paper::paper_regions(paper::Z_INTRA_RANGES[3], SCALE, 42).generate();
    let capacity = paper::memory_tuples(25, SCALE);

    group.bench_function("fig2_policy_run", |b| {
        b.iter(|| {
            black_box(runner::run_policy(
                &query,
                "MSketch",
                capacity,
                &high_skew,
                &RunOptions::default(),
                42,
            ))
        })
    });

    group.bench_function("fig4_exact_reference", |b| {
        b.iter(|| black_box(run_exact_trace(&query, &high_skew, &RunOptions::default())))
    });

    let drift_trace = {
        let mut config = paper::paper_regions(paper::Z_INTRA_RANGES[3], SCALE, 42)
            .config()
            .clone();
        config.feed = FeedOrder::RegionPhases;
        RegionsGenerator::new(config).unwrap().generate()
    };
    let drift_opts = RunOptions {
        output_bucket: Some(VDur::from_secs(paper::scaled_drift_bucket(SCALE))),
        ..Default::default()
    };
    group.bench_function("fig5_drift_series", |b| {
        b.iter(|| {
            black_box(runner::run_policy(
                &query,
                "MSketch",
                paper::memory_tuples(75, SCALE),
                &drift_trace,
                &drift_opts,
                42,
            ))
        })
    });

    let overload_opts = RunOptions {
        arrival_rate: paper::ARRIVAL_RATE,
        ..Default::default()
    };
    group.bench_function("fig6_overload_run", |b| {
        b.iter(|| {
            let mut engine = runner::engine_builder(&query, "MSketch", capacity, 42)
                .input_queue(paper::ARRIVAL_RATE / 5.0, paper::QUEUE_CAPACITY)
                .build()
                .expect("engine config is valid");
            black_box(run_trace(&mut engine, &high_skew, &overload_opts))
        })
    });

    let agg_opts = RunOptions {
        agg_attr: Some((StreamId(0), 1)),
        agg_bucket: VDur::from_secs(paper::scaled_window(SCALE)),
        ..Default::default()
    };
    group.bench_function("fig7_sampling_run", |b| {
        b.iter(|| {
            black_box(runner::run_policy(
                &query,
                "MSketch-RS",
                capacity,
                &high_skew,
                &agg_opts,
                42,
            ))
        })
    });

    let census_query = paper::census_query((500.0 * SCALE) as u64);
    let census_trace = paper::census_data(SCALE * 2.0, 42).generate();
    group.bench_function("fig8_census_run", |b| {
        b.iter(|| {
            black_box(runner::run_policy(
                &census_query,
                "MSketch",
                paper::census_full_window((500.0 * SCALE) as u64) / 4,
                &census_trace,
                &RunOptions::default(),
                42,
            ))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_figures);
criterion_main!(benches);
