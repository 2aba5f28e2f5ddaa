//! Stream mining over a shed join — the paper's future-work direction
//! (§6): "a statistically accurate random sample is usually sufficient to
//! answer stream mining queries such as clustering and classification".
//!
//! A reservoir sample is maintained over the output of a memory-limited
//! 3-way join, and a 1-nearest-neighbour classifier answers a streaming
//! question from it: *given a joined (Age, Education) profile, predict the
//! income bracket class*. The classifier trained on the shed join's sample
//! is evaluated against labels derived from the exact join.
//!
//! ```text
//! cargo run --release -p mstream-core --example stream_mining
//! ```

use mstream_core::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A labelled training point harvested from the join output.
#[derive(Clone, Copy, Debug)]
struct Point {
    age: f64,
    education: f64,
    /// Class label: low (0) / mid (1) / high (2) income bracket.
    class: u8,
}

fn income_class(income: u64) -> u8 {
    match income {
        0..=6 => 0,
        7..=11 => 1,
        _ => 2,
    }
}

/// 1-NN prediction over the reservoir.
fn predict(sample: &[Point], age: f64, education: f64) -> Option<u8> {
    sample
        .iter()
        .min_by(|a, b| {
            let da = (a.age - age).powi(2) + (a.education - education).powi(2);
            let db = (b.age - age).powi(2) + (b.education - education).powi(2);
            da.partial_cmp(&db).expect("finite distances")
        })
        .map(|p| p.class)
}

fn main() {
    let mut catalog = Catalog::new();
    catalog.add_stream(StreamSchema::new("Oct03", &["Age", "Income", "Education"]));
    catalog.add_stream(StreamSchema::new("Apr04", &["Age", "Income", "Education"]));
    catalog.add_stream(StreamSchema::new("Oct04", &["Age", "Income", "Education"]));
    let query = JoinQuery::from_names(
        catalog,
        &[
            ("Oct03.Age", "Apr04.Age"),
            ("Apr04.Education", "Oct04.Education"),
        ],
        WindowSpec::secs(150),
    )
    .expect("valid query");

    let trace = CensusGenerator::new(CensusConfig {
        tuples_per_month: 3_000,
        ..Default::default()
    })
    .expect("valid config")
    .generate();

    // Ground truth: the exact join's majority class per (age, education)
    // cell — what a classifier with unlimited resources would learn.
    let mut cell_counts = std::collections::HashMap::<(u64, u64), [u64; 3]>::new();
    let mut exact = ExactJoin::new(query.clone());
    for (now, item) in trace.timed(10.0) {
        exact.process_each(item.stream, item.values.clone(), now, |b| {
            let age = b.value(StreamId(1), 0).raw();
            let edu = b.value(StreamId(1), 2).raw();
            let class = income_class(b.value(StreamId(1), 1).raw());
            cell_counts.entry((age, edu)).or_default()[class as usize] += 1;
        });
    }
    let truth: Vec<((u64, u64), u8)> = cell_counts
        .iter()
        .map(|(&cell, counts)| {
            let best = (0..3).max_by_key(|&c| counts[c]).expect("3 classes") as u8;
            (cell, best)
        })
        .collect();
    println!(
        "exact join: {} results over {} distinct (age, education) cells",
        exact.total_output(),
        truth.len()
    );

    // Mine from shed joins: reservoir of 400 labelled points.
    println!("\n1-NN income-class accuracy from a 400-point reservoir:");
    println!("{:<12} {:>10} {:>10}", "policy", "seen", "accuracy");
    for name in ["MSketch-RS", "FIFO"] {
        let mut engine = EngineBuilder::new(query.clone())
            .boxed_policy(parse_policy(name).expect("builtin policy"))
            .capacity_per_window(80)
            .seed(3)
            .build()
            .expect("valid engine");
        let mut reservoir: Reservoir<Point> = Reservoir::new(400);
        let mut rng = StdRng::seed_from_u64(17);
        for (now, item) in trace.timed(10.0) {
            let arrival = Arrival::new(item.stream, item.values.clone(), now);
            engine.ingest(
                arrival,
                &mut FnSink(|b: &Bindings<'_>| {
                    reservoir.offer(
                        Point {
                            age: b.value(StreamId(1), 0).raw() as f64,
                            education: b.value(StreamId(1), 2).raw() as f64,
                            class: income_class(b.value(StreamId(1), 1).raw()),
                        },
                        &mut rng,
                    );
                }),
            );
        }
        let sample = reservoir.items();
        let correct = truth
            .iter()
            .filter(|&&((age, edu), label)| {
                predict(sample, age as f64, edu as f64) == Some(label)
            })
            .count();
        println!(
            "{:<12} {:>10} {:>9.1}%",
            name,
            reservoir.seen(),
            100.0 * correct as f64 / truth.len().max(1) as f64
        );
    }
    println!(
        "\nThe classifier never sees the exact join; a bounded reservoir over \
         the shed\njoin's output is enough to recover the class structure."
    );
}
