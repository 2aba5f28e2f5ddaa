//! The exact (unbounded-memory) reference join.

use crate::plan::ProbePlan;
use crate::probe::{probe_count, probe_each, Bindings};
use mstream_types::{JoinQuery, Row, SeqNo, StreamId, Tuple, VTime};
use mstream_window::WindowStore;

/// A multi-way window join with no memory limit and no shedding.
///
/// This is the ground-truth executor: every experiment that reports a
/// "ratio of approximate and exact result" (Figure 4), a relative aggregate
/// error, or a quantile difference (Figure 7) runs the same trace through
/// an `ExactJoin` to obtain the true result.
pub struct ExactJoin {
    query: JoinQuery,
    stores: Vec<WindowStore>,
    plans: Vec<ProbePlan>,
    next_seq: SeqNo,
    total_output: u64,
}

impl ExactJoin {
    /// Builds the reference executor for `query`.
    pub fn new(query: JoinQuery) -> Self {
        let stores = (0..query.n_streams())
            .map(|s| {
                let sid = StreamId(s);
                WindowStore::new(query.window(sid), query.join_attrs(sid), usize::MAX / 2)
            })
            .collect();
        let plans = ProbePlan::all(&query);
        ExactJoin {
            query,
            stores,
            plans,
            next_seq: SeqNo(0),
            total_output: 0,
        }
    }

    /// The query being executed.
    pub fn query(&self) -> &JoinQuery {
        &self.query
    }

    /// Processes one arrival: expires windows, emits the join results the
    /// tuple produces (via `on_match`), stores the tuple. Returns the
    /// number of result tuples produced by this arrival.
    pub fn process_each<F: FnMut(&Bindings<'_>)>(
        &mut self,
        stream: StreamId,
        values: impl Into<Row>,
        now: VTime,
        on_match: F,
    ) -> u64 {
        self.process_with(stream, values, now, |plan, tuple, stores| {
            probe_each(plan, tuple, stores, on_match)
        })
    }

    /// [`Self::process_each`] without inspecting matches: the probe's run
    /// lengths are summed and no result row is enumerated.
    pub fn process(&mut self, stream: StreamId, values: impl Into<Row>, now: VTime) -> u64 {
        self.process_with(stream, values, now, probe_count)
    }

    /// One arrival through expire → `probe` → store.
    fn process_with(
        &mut self,
        stream: StreamId,
        values: impl Into<Row>,
        now: VTime,
        probe: impl FnOnce(&ProbePlan, &Tuple, &[WindowStore]) -> u64,
    ) -> u64 {
        let seq = self.next_seq;
        self.next_seq = seq.next();
        for store in &mut self.stores {
            let _ = store.expire(now);
        }
        let tuple = Tuple::new(stream, now, seq, values);
        let produced = probe(&self.plans[stream.index()], &tuple, &self.stores);
        self.total_output += produced;
        self.stores[stream.index()].insert(tuple, 0.0);
        produced
    }

    /// Total result tuples emitted so far.
    pub fn total_output(&self) -> u64 {
        self.total_output
    }

    /// Resident tuples in `stream`'s window, or `None` if `stream` is not
    /// one of this query's streams.
    pub fn window_len(&self, stream: StreamId) -> Option<usize> {
        self.stores.get(stream.index()).map(|s| s.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mstream_types::{Catalog, StreamSchema, VDur, Value, WindowSpec};

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

    fn v(a: u64, b: u64) -> Vec<Value> {
        vec![Value(a), Value(b)]
    }

    #[test]
    fn produces_all_chain_matches() {
        let mut j = ExactJoin::new(chain3(100));
        let t = VTime::ZERO;
        assert_eq!(j.process(StreamId(1), v(5, 8), t), 0, "nothing to join yet");
        // The 3-way result needs all sides: W1 is still empty.
        assert_eq!(j.process(StreamId(2), v(8, 0), t), 0);
        // R2.(5,8) matches R3.(8,0); each arriving R1.(5,_) completes one.
        assert_eq!(j.process(StreamId(0), v(5, 1), t), 1);
        assert_eq!(j.process(StreamId(0), v(5, 2), t), 1);
        assert_eq!(j.total_output(), 2);
    }

    #[test]
    fn chain_join_needs_all_three_sides() {
        let mut j = ExactJoin::new(chain3(100));
        let t = VTime::ZERO;
        j.process(StreamId(0), v(5, 1), t);
        // R2 tuple matches R1 on A1 but no R3 exists yet: emits nothing.
        assert_eq!(j.process(StreamId(1), v(5, 8), t), 0);
        // R3 arrival completes the chain.
        assert_eq!(j.process(StreamId(2), v(8, 3), t), 1);
    }

    #[test]
    fn expiration_removes_old_partners() {
        let mut j = ExactJoin::new(chain3(10));
        j.process(StreamId(1), v(5, 8), VTime::ZERO);
        j.process(StreamId(2), v(8, 0), VTime::ZERO);
        // At t=10 the earlier tuples have expired: no matches.
        assert_eq!(j.process(StreamId(0), v(5, 1), VTime::from_secs(10)), 0);
        assert_eq!(j.window_len(StreamId(1)), Some(0));
    }

    #[test]
    fn window_lengths_track_arrivals() {
        let mut j = ExactJoin::new(chain3(100));
        for i in 0..5 {
            j.process(StreamId(0), v(i, i), VTime::ZERO);
        }
        assert_eq!(j.window_len(StreamId(0)), Some(5));
        assert_eq!(j.window_len(StreamId(1)), Some(0));
    }

    #[test]
    fn matches_brute_force_on_random_trace() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let window = VDur::from_secs(50);
        let mut j = ExactJoin::new(chain3(50));
        let mut rng = StdRng::seed_from_u64(3);
        // history of (stream, ts, values) for brute-force reference.
        let mut history: Vec<(usize, u64, u64, u64)> = Vec::new();
        let mut total = 0u64;
        for step in 0..600u64 {
            let now = VTime::from_secs(step / 4);
            let s = rng.gen_range(0..3usize);
            let (a, b) = (rng.gen_range(0..6u64), rng.gen_range(0..6u64));
            let got = j.process(StreamId(s), v(a, b), now);
            // Brute force: alive = ts + 50 > now, on the other two streams.
            let alive: Vec<&(usize, u64, u64, u64)> = history
                .iter()
                .filter(|(_, ts, _, _)| VTime::from_secs(*ts) + window > now)
                .collect();
            let mut expect = 0u64;
            match s {
                0 => {
                    for &&(s2, _, a2, b2) in &alive {
                        if s2 == 1 && a2 == a {
                            for &&(s3, _, a3, _) in &alive {
                                if s3 == 2 && a3 == b2 {
                                    expect += 1;
                                }
                            }
                        }
                    }
                }
                1 => {
                    let left = alive.iter().filter(|t| t.0 == 0 && t.2 == a).count() as u64;
                    let right = alive.iter().filter(|t| t.0 == 2 && t.2 == b).count() as u64;
                    expect = left * right;
                }
                _ => {
                    for &&(s2, _, a2, b2) in &alive {
                        if s2 == 1 && b2 == a {
                            for &&(s1, _, a1, _) in &alive {
                                if s1 == 0 && a1 == a2 {
                                    expect += 1;
                                }
                            }
                        }
                    }
                }
            }
            assert_eq!(got, expect, "step {step} stream {s}");
            history.push((s, step / 4, a, b));
            total += got;
        }
        assert_eq!(j.total_output(), total);
        assert!(total > 0, "trace should produce some joins");
    }
}
