//! The harness's exact reference: how many rows a query emits on a
//! timeline when nothing is ever shed.
//!
//! `ExactJoin` *enumerates* every result row, which costs as much as the
//! join itself — on `skew_single` the unshedded join is sixteen times the
//! measured pass. [`CountingOracle`] walks the same stores and plans but
//! does not enumerate the last probe step: the rows (and the aggregate)
//! below the last-but-one binding depend only on that step's drive value,
//! so they are computed once per distinct value per arrival and multiplied
//! out. Every run cross-checks it against `ExactJoin` row for row on a
//! prefix of the timeline ([`exact_join_rows`]).

use crate::workloads::AggSpec;
use mstream_core::mstream_join::{PlanStep, ProbePlan};
use mstream_core::mstream_types::Row;
use mstream_core::mstream_window::WindowStore;
use mstream_core::prelude::*;

/// Per-bucket `(sum, count)` of an aggregated attribute over result rows.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AggSeries {
    /// Bucket length in virtual microseconds.
    pub bucket_micros: u64,
    /// `(sum of the attribute, rows)` per bucket.
    pub buckets: Vec<(u64, u64)>,
}

impl AggSeries {
    /// An empty series able to hold timestamps up to `end`.
    pub fn new(bucket: VDur, end: VTime) -> Self {
        let bucket_micros = bucket.as_micros().max(1);
        let n = (end.as_micros() / bucket_micros + 1) as usize;
        AggSeries {
            bucket_micros,
            buckets: vec![(0, 0); n],
        }
    }

    /// Adds `rows` result rows at time `t` whose attribute values sum to
    /// `sum`.
    #[inline]
    pub fn add(&mut self, t: VTime, sum: u64, rows: u64) {
        let b = &mut self.buckets[(t.as_micros() / self.bucket_micros) as usize];
        b.0 += sum;
        b.1 += rows;
    }

    /// Mean over the truth's non-empty buckets of the relative error of
    /// the bucket average; a bucket the sample left empty counts as 1.0
    /// (the definition `mstream_agg::SeriesComparison` uses).
    pub fn avg_relative_error(truth: &AggSeries, sample: &AggSeries) -> f64 {
        let mut err = 0.0;
        let mut compared = 0usize;
        for (i, &(t_sum, t_rows)) in truth.buckets.iter().enumerate() {
            if t_rows == 0 {
                continue;
            }
            compared += 1;
            let (s_sum, s_rows) = sample.buckets.get(i).copied().unwrap_or((0, 0));
            err += if s_rows == 0 {
                1.0
            } else {
                mstream_core::mstream_agg::relative_error(
                    t_sum as f64 / t_rows as f64,
                    s_sum as f64 / s_rows as f64,
                )
            };
        }
        if compared == 0 {
            0.0
        } else {
            err / compared as f64
        }
    }
}

/// Unbounded window stores and probe plans for one query, counting result
/// rows instead of enumerating them.
pub struct CountingOracle {
    stores: Vec<WindowStore>,
    plans: Vec<ProbePlan>,
    agg: Option<AggSpec>,
    next_seq: SeqNo,
    /// `(drive value, rows, aggregate sum)` of the last probe step, per
    /// distinct drive value of the current arrival.
    memo: Vec<(Value, u64, u64)>,
}

impl CountingOracle {
    /// The oracle for `query`, optionally summing `agg` over result rows.
    ///
    /// # Panics
    /// Panics if a probe plan carries residual predicates (a cyclic join
    /// graph): none of the benchmark's queries does, and the last-step
    /// shortcut is only valid without them.
    pub fn new(query: &JoinQuery, agg: Option<AggSpec>) -> Self {
        let plans = ProbePlan::all(query);
        assert!(
            plans
                .iter()
                .all(|p| p.steps().iter().all(|s| s.residual.is_empty())),
            "counting oracle handles acyclic join graphs only"
        );
        let stores = (0..query.n_streams())
            .map(|s| {
                let sid = StreamId(s);
                WindowStore::new(query.window(sid), query.join_attrs(sid), usize::MAX / 2)
            })
            .collect();
        CountingOracle {
            stores,
            plans,
            agg,
            next_seq: SeqNo(0),
            memo: Vec::new(),
        }
    }

    /// Processes one arrival exactly as `ExactJoin::process` does (expire,
    /// probe, store) and returns `(rows, aggregate sum)` it produces.
    pub fn process(&mut self, stream: StreamId, values: Row, now: VTime) -> (u64, u64) {
        let seq = self.next_seq;
        self.next_seq = seq.next();
        for store in &mut self.stores {
            let _ = store.expire(now);
        }
        let tuple = Tuple::new(stream, now, seq, values);
        self.memo.clear();
        let steps = self.plans[stream.index()].steps();
        let mut bound: Vec<Option<&Tuple>> = vec![None; self.stores.len()];
        bound[stream.index()] = Some(&tuple);
        let out = count_from(steps, &self.stores, self.agg, &mut bound, &mut self.memo);
        self.stores[stream.index()].insert(tuple, 0.0);
        out
    }
}

/// Rows and aggregate sum of all result combinations extending `bound`
/// through `steps`.
fn count_from<'a>(
    steps: &[PlanStep],
    stores: &'a [WindowStore],
    agg: Option<AggSpec>,
    bound: &mut Vec<Option<&'a Tuple>>,
    memo: &mut Vec<(Value, u64, u64)>,
) -> (u64, u64) {
    // The aggregated value once its stream is bound.
    let agg_of = |bound: &[Option<&Tuple>]| {
        agg.and_then(|a| bound[a.stream.index()].map(|t| t.values[a.attr].raw()))
    };
    let Some((step, rest)) = steps.split_first() else {
        return (1, agg_of(bound).unwrap_or(0));
    };
    let drive = bound[step.drive_stream.index()].expect("plans drive from bound streams");
    let value = drive.values[step.drive_attr];
    let store = &stores[step.stream.index()];
    let cands = store.probe(step.probe_attr, value);
    if rest.is_empty() {
        // Last step: everything below depends on `value` alone.
        let (rows, cand_sum) = match memo.iter().find(|m| m.0 == value) {
            Some(&(_, rows, sum)) => (rows, sum),
            None => {
                let rows = cands.len() as u64;
                let sum = match agg {
                    Some(a) if a.stream == step.stream => cands
                        .iter()
                        .map(|slot| {
                            store.tuple(slot).expect("indexed slot is live").values[a.attr].raw()
                        })
                        .sum(),
                    _ => 0,
                };
                memo.push((value, rows, sum));
                (rows, sum)
            }
        };
        // Either the aggregated stream is this step's (sum over its
        // candidates) or it is already bound (its value, once per row).
        let sum = match agg_of(bound) {
            Some(v) => v * rows,
            None => cand_sum,
        };
        return (rows, sum);
    }
    let mut total = (0u64, 0u64);
    for slot in cands.iter() {
        bound[step.stream.index()] = Some(store.tuple(slot).expect("indexed slot is live"));
        let (rows, sum) = count_from(rest, stores, agg, bound, memo);
        total.0 += rows;
        total.1 += sum;
    }
    bound[step.stream.index()] = None;
    total
}

/// Rows `ExactJoin` itself emits over `arrivals` (query-local stream ids),
/// optionally aggregating like the measured sink does.
pub fn exact_join_rows(
    query: &JoinQuery,
    arrivals: impl Iterator<Item = Arrival>,
    agg: Option<(AggSpec, &mut AggSeries)>,
) -> u64 {
    let mut join = ExactJoin::new(query.clone());
    match agg {
        None => {
            for a in arrivals {
                join.process(a.stream, a.values, a.ts);
            }
        }
        Some((spec, series)) => {
            for a in arrivals {
                let now = a.ts;
                join.process_each(a.stream, a.values, now, |b| {
                    series.add(now, b.value(spec.stream, spec.attr).raw(), 1);
                });
            }
        }
    }
    join.total_output()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mstream_query::parse_query;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_arrivals(n_streams: usize, n: usize, domain: u64, seed: u64) -> Vec<Arrival> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                Arrival::new(
                    StreamId(rng.gen_range(0..n_streams)),
                    vec![
                        Value(rng.gen_range(0..domain)),
                        Value(rng.gen_range(0..domain)),
                    ],
                    VTime::from_micros(i as u64 * 250_000),
                )
            })
            .collect()
    }

    /// The oracle must agree with `ExactJoin` arrival by arrival — rows and
    /// aggregate — for chains, stars, pairs, time and tuple windows, and
    /// with the aggregated stream first, in the middle and last.
    #[test]
    fn counting_matches_exact_join_per_arrival() {
        let cases = [
            ("SELECT * FROM A(x, y) [RANGE 20 SECONDS], B(x, y), C(x, y) WHERE A.x = B.x AND B.y = C.x", 3),
            ("SELECT * FROM A(x, y) [ROWS 30], B(x, y), C(x, y) WHERE A.x = B.x AND B.x = C.x", 3),
            ("SELECT * FROM A(x, y) [RANGE 15 SECONDS], B(x, y) WHERE A.x = B.x", 2),
            ("SELECT * FROM A(x, y) [RANGE 20 SECONDS], B(x, y), C(x, y), D(x, y) WHERE A.x = B.x AND B.y = C.x AND C.y = D.y", 4),
        ];
        for (text, n_streams) in cases {
            let query = parse_query(text).unwrap();
            for agg_stream in 0..n_streams {
                let spec = AggSpec {
                    stream: StreamId(agg_stream),
                    attr: 1,
                    bucket: VDur::from_secs(10),
                };
                let arrivals = random_arrivals(n_streams, 1500, 5, 11 + agg_stream as u64);
                let mut oracle = CountingOracle::new(&query, Some(spec));
                let mut exact = ExactJoin::new(query.clone());
                let mut total = 0;
                for a in arrivals {
                    let mut want_sum = 0u64;
                    let want = exact.process_each(a.stream, a.values.clone(), a.ts, |b| {
                        want_sum += b.value(spec.stream, spec.attr).raw();
                    });
                    let got = oracle.process(a.stream, a.values, a.ts);
                    assert_eq!(got, (want, want_sum), "{text} agg on stream {agg_stream}");
                    total += want;
                }
                assert!(total > 1000, "{text}: the trace must join ({total} rows)");
            }
        }
    }

    #[test]
    fn relative_error_counts_starved_buckets_as_full_error() {
        let end = VTime::from_secs(29);
        let mut truth = AggSeries::new(VDur::from_secs(10), end);
        let mut sample = AggSeries::new(VDur::from_secs(10), end);
        truth.add(VTime::from_secs(1), 100, 10); // avg 10
        truth.add(VTime::from_secs(11), 200, 10); // avg 20
        sample.add(VTime::from_secs(2), 45, 5); // avg 9: error 0.1
                                                // The sample's second bucket is empty: error 1.0. The third is
                                                // empty in the truth too and is not compared.
        let err = AggSeries::avg_relative_error(&truth, &sample);
        assert!((err - 0.55).abs() < 1e-12, "{err}");
    }
}
