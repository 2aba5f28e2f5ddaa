//! Integration: the queueing model under overload (paper §2 and Figure 6).

use mstream_core::prelude::*;

fn chain3(window_secs: u64) -> JoinQuery {
    let mut c = Catalog::new();
    c.add_stream(StreamSchema::new("R1", &["A1", "A2"]));
    c.add_stream(StreamSchema::new("R2", &["A1", "A2"]));
    c.add_stream(StreamSchema::new("R3", &["A1", "A2"]));
    JoinQuery::from_names(
        c,
        &[("R1.A1", "R2.A1"), ("R2.A2", "R3.A1")],
        WindowSpec::secs(window_secs),
    )
    .unwrap()
}

fn trace() -> Trace {
    let mut config = RegionsConfig::with_z_intra(1.6, 2.0);
    config.tuples_per_relation = 1_500;
    config.seed = 21;
    RegionsGenerator::new(config).unwrap().generate()
}

/// Arrivals at 10/s, served `factor` times slower through a queue of
/// `queue` tuples.
struct Overload {
    factor: f64,
    queue: usize,
}

fn overload_opts(factor: f64, queue: usize) -> Overload {
    Overload { factor, queue }
}

fn run_policy(name: &str, overload: &Overload) -> RunReport {
    let mut engine = EngineBuilder::new(chain3(100))
        .boxed_policy(parse_policy(name).unwrap())
        .capacity_per_window(200)
        .input_queue(10.0 / overload.factor, overload.queue)
        .seed(4)
        .build()
        .unwrap();
    let opts = RunOptions {
        arrival_rate: 10.0,
        ..Default::default()
    };
    run_trace(&mut engine, &trace(), &opts)
}

/// Under k = 5l the queue saturates and sheds roughly 4/5 of arrivals;
/// every arrival is either processed or queue-shed.
#[test]
fn overload_sheds_the_expected_fraction() {
    let opts = overload_opts(5.0, 100);
    for name in ["MSketch", "Random", "FIFO"] {
        let report = run_policy(name, &opts);
        let total = trace().len() as u64;
        assert_eq!(
            report.metrics.processed + report.metrics.shed_queue,
            total,
            "{name}: conservation"
        );
        let processed_frac = report.metrics.processed as f64 / total as f64;
        assert!(
            (0.18..=0.30).contains(&processed_frac),
            "{name}: ~1/5 of arrivals can be serviced, got {processed_frac:.2}"
        );
    }
}

/// Semantic queue shedding retains join-relevant tuples: MSketch's output
/// under overload beats FIFO's drop-oldest by a wide margin (Figure 6).
#[test]
fn semantic_queue_shedding_beats_drop_oldest() {
    let opts = overload_opts(5.0, 100);
    let msketch = run_policy("MSketch", &opts).total_output();
    let fifo = run_policy("FIFO", &opts).total_output();
    assert!(
        msketch > 2 * fifo,
        "MSketch ({msketch}) must clearly beat FIFO ({fifo}) under overload"
    );
}

/// A faster server (no overload) never sheds from the queue, regardless of
/// queue size.
#[test]
fn no_queue_shedding_without_overload() {
    let opts = overload_opts(0.5, 4); // service twice the arrival rate
    let report = run_policy("MSketch", &opts);
    assert_eq!(report.metrics.shed_queue, 0);
    assert_eq!(report.metrics.processed, trace().len() as u64);
}

/// Queue capacity matters under overload: a larger queue lets the server
/// keep working through bursts, processing at least as many tuples.
#[test]
fn larger_queue_never_processes_fewer() {
    let small = run_policy("MSketch", &overload_opts(5.0, 10));
    let large = run_policy("MSketch", &overload_opts(5.0, 500));
    assert!(large.metrics.processed >= small.metrics.processed);
}

/// The run's virtual clock keeps advancing while the backlog drains: the
/// last processed tuple finishes after the last arrival.
#[test]
fn backlog_drains_after_arrivals_end() {
    let report = run_policy("Random", &overload_opts(5.0, 100));
    let last_arrival_secs = trace().len() as f64 / 10.0;
    assert!(report.end_time.as_secs_f64() >= last_arrival_secs);
}

/// Removing the last query that reads a stream while that stream's tuples
/// wait in the queue: they stay queued, score 0 (the first victims of a
/// priority queue), and are no-ops when served. Nothing panics, every
/// arrival is still processed or queue-shed exactly once, and the removed
/// query emits nothing more.
#[test]
fn removing_a_streams_last_reader_while_its_tuples_wait() {
    let mut c = Catalog::new();
    c.add_stream(StreamSchema::new("R3", &["A1", "A2"]));
    c.add_stream(StreamSchema::new("R4", &["A1", "A2"]));
    let pair = JoinQuery::from_names(c, &[("R3.A1", "R4.A1")], WindowSpec::secs(100)).unwrap();
    for name in ["MSketch", "Random", "FIFO"] {
        let mut builder = EngineBuilder::new_multi()
            .boxed_policy(parse_policy(name).unwrap())
            .capacity_per_window(50)
            .input_queue(1.0, 40)
            .seed(4);
        builder.register(chain3(100)).unwrap();
        let reader = builder.register(pair.clone()).unwrap();
        let mut engine = builder.build_multi().unwrap();
        let r4 = engine.stream_id("R4").unwrap();
        let mut sink = CountSink::default();
        let n = 400u64;
        for i in 0..n {
            if i == n / 2 {
                // Ten arrivals a second against one served: the queue is
                // full, and FIFO's holds the last 40 arrivals, R4's among
                // them.
                assert!(engine.remove_query(reader), "{name}");
                assert_eq!(engine.window_len(r4), None, "{name}: R4 has no reader");
            }
            let values = vec![Value(i % 5), Value(i % 3)];
            let at = VTime::from_micros(i * 100_000);
            engine.ingest(
                Arrival::new(StreamId((i % 4) as usize), values, at),
                &mut sink,
            );
        }
        engine.flush(&mut sink);
        let m = engine.metrics();
        assert!(m.shed_queue > 0, "{name}: the queue sheds");
        assert_eq!(m.processed + m.shed_queue, n, "{name}: conservation");
        assert_eq!(engine.query_stats(reader), None, "{name}: removed");
    }
}
