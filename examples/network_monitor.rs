//! Network-monitoring scenario: correlating three event streams under
//! overload — the application class the paper's introduction motivates.
//!
//! Three monitors emit events at a rate the join operator cannot keep up
//! with (arrivals 4x faster than service):
//!
//! * `Flows(src, dst)`      — flow records from a border router,
//! * `Alerts(host, sig)`    — IDS alerts keyed by the offending host,
//! * `DnsReqs(resolver, domain_class)` — DNS requests per resolver.
//!
//! The continuous query correlates alerts with the flows of the alerted
//! host and the DNS activity of the flow's destination:
//!
//! ```sql
//! SELECT * FROM Flows [300s], Alerts [300s], DnsReqs [300s]
//! WHERE Flows.src = Alerts.host AND Flows.dst = DnsReqs.resolver
//! ```
//!
//! A handful of compromised hosts generate most of the correlated
//! activity; semantic shedding keeps exactly those, so the security
//! analyst keeps seeing the incidents even while most traffic is dropped.
//!
//! ```text
//! cargo run --release -p mstream-core --example network_monitor
//! ```

use mstream_core::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds an interleaved trace with a few "hot" compromised hosts whose
/// activity appears on all three streams.
fn traffic(seed: u64, arrivals: usize) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trace = Trace::new();
    let hosts = 200u64;
    let hot: Vec<u64> = (0..4).map(|i| 13 + 31 * i).collect();
    for i in 0..arrivals {
        let stream = StreamId(i % 3);
        let pick_host = |rng: &mut StdRng| -> u64 {
            if rng.gen_bool(0.45) {
                hot[rng.gen_range(0..hot.len())]
            } else {
                rng.gen_range(0..hosts)
            }
        };
        let values = match stream.index() {
            // Flows(src, dst)
            0 => vec![Value(pick_host(&mut rng)), Value(pick_host(&mut rng))],
            // Alerts(host, sig)
            1 => vec![Value(pick_host(&mut rng)), Value(rng.gen_range(0..32))],
            // DnsReqs(resolver, domain_class)
            _ => vec![Value(pick_host(&mut rng)), Value(rng.gen_range(0..8))],
        };
        trace.push(stream, values);
    }
    trace
}

fn main() {
    let mut catalog = Catalog::new();
    catalog.add_stream(StreamSchema::new("Flows", &["src", "dst"]));
    catalog.add_stream(StreamSchema::new("Alerts", &["host", "sig"]));
    catalog.add_stream(StreamSchema::new("DnsReqs", &["resolver", "domain_class"]));
    let query = JoinQuery::from_names(
        catalog,
        &[("Flows.src", "Alerts.host"), ("Flows.dst", "DnsReqs.resolver")],
        WindowSpec::secs(300),
    )
    .expect("valid query");

    let trace = traffic(99, 24_000);
    // 40 events/s arrive; the operator services only 10/s; the input queue
    // holds 200 events.
    let opts = RunOptions {
        arrival_rate: 40.0,
        ..Default::default()
    };

    println!("correlating Flows x Alerts x DnsReqs under 4x overload\n");
    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>12}",
        "policy", "correlated", "queue-shed", "window-shed", "processed"
    );
    for name in ["MSketch", "Bjoin", "Random", "FIFO"] {
        let mut engine = EngineBuilder::new(query.clone())
            .boxed_policy(parse_policy(name).expect("builtin policy"))
            .capacity_per_window(400)
            .input_queue(10.0, 200)
            .seed(1)
            .build()
            .expect("valid engine");
        let report = run_trace(&mut engine, &trace, &opts);
        println!(
            "{:<12} {:>12} {:>12} {:>12} {:>12}",
            name,
            report.total_output(),
            report.metrics.shed_queue,
            report.metrics.shed_window,
            report.metrics.processed,
        );
    }
    println!(
        "\nEvery policy must drop ~3/4 of the events; the sketch-guided one \
         drops the\nuncorrelated background and keeps the incident traffic."
    );
}
