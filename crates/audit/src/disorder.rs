//! Bounded-shuffle injection for the event-time runs (DESIGN.md §13).

use crate::gen::Arrival;
use mstream_types::VDur;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Reorders `arrivals` with per-arrival lateness bounded by `bound`,
/// keeping every maximal run of equal timestamps atomic (in original
/// order).
///
/// Each equal-timestamp group gets a random jitter in `[0, bound]` added to
/// its sort key, and groups are stably reordered by `(key, original
/// index)`. If group `h` is delivered before group `g`, then `ts(h) ≤
/// key(h) ≤ key(g) ≤ ts(g) + bound` — so when `g` arrives, every stream's
/// high-water mark is at most `ts(g) + bound`, the watermark is at most
/// `ts(g)`, and `g` is always accepted: the shuffle never exceeds the
/// disorder bound it was built for. Group atomicity matters because the
/// front end breaks equal-timestamp ties by admission order; delivering a
/// group intact replays the in-order tie order exactly, so the engine
/// mints sequence numbers in trace order.
pub fn inject_disorder(arrivals: &[Arrival], bound: VDur, seed: u64) -> Vec<Arrival> {
    if bound.is_zero() {
        return arrivals.to_vec();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut groups: Vec<(u64, usize, &[Arrival])> = Vec::new();
    let mut i = 0;
    while i < arrivals.len() {
        let ts = arrivals[i].at_micros;
        let mut j = i;
        while j < arrivals.len() && arrivals[j].at_micros == ts {
            j += 1;
        }
        let jitter = rng.gen_range(0..=bound.as_micros());
        groups.push((ts + jitter, groups.len(), &arrivals[i..j]));
        i = j;
    }
    groups.sort_by_key(|&(key, idx, _)| (key, idx));
    groups
        .into_iter()
        .flat_map(|(_, _, g)| g.iter().cloned())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{case_seed, generate_case, install_quiet_hook, run_case};

    const BOUND: VDur = VDur::from_micros(2_500_000);

    /// The injected shuffle respects its own bound: replaying the shuffled
    /// trace against a simulated watermark never finds an arrival below it.
    #[test]
    fn injected_disorder_stays_within_the_bound() {
        for i in 0..10u64 {
            let case = generate_case(case_seed(21, i));
            let shuffled = inject_disorder(&case.trace.arrivals, BOUND, case.seed);
            assert_eq!(shuffled.len(), case.trace.arrivals.len());
            let mut hwm = vec![0u64; case.arity.len()];
            let used = crate::gen::catalog_order(&case.queries);
            for a in &shuffled {
                hwm[a.stream] = hwm[a.stream].max(a.at_micros);
                let slowest = used.iter().map(|&p| hwm[p]).min().unwrap();
                let wm = slowest.saturating_sub(BOUND.as_micros());
                assert!(
                    a.at_micros >= wm,
                    "case {i}: arrival at {}µs below {wm}µs",
                    a.at_micros
                );
            }
        }
    }

    /// Equal-timestamp groups travel atomically and in original order.
    #[test]
    fn injected_disorder_keeps_equal_timestamp_groups_atomic() {
        for i in 0..10u64 {
            let case = generate_case(case_seed(22, i));
            // Each arrival carries its original index as its only value.
            let mut tagged = case.trace.arrivals.clone();
            for (n, a) in tagged.iter_mut().enumerate() {
                a.values = vec![n as u64];
            }
            let shuffled = inject_disorder(&tagged, BOUND, case.seed);
            let originals: Vec<u64> = shuffled.iter().map(|a| a.values[0]).collect();
            let mut k = 0;
            while k < shuffled.len() {
                let ts = shuffled[k].at_micros;
                let mut j = k;
                while j < shuffled.len() && shuffled[j].at_micros == ts {
                    j += 1;
                }
                for w in originals[k..j].windows(2) {
                    assert!(w[0] + 1 == w[1], "case {i}: group broken at ts {ts}");
                }
                k = j;
            }
        }
    }

    /// A zero bound injects nothing.
    #[test]
    fn zero_bound_is_identity() {
        let case = generate_case(case_seed(23, 0));
        let same = inject_disorder(&case.trace.arrivals, VDur::from_micros(0), 9);
        assert_eq!(same.len(), case.trace.arrivals.len());
        for (a, b) in same.iter().zip(&case.trace.arrivals) {
            assert_eq!((a.stream, a.at_micros), (b.stream, b.at_micros));
        }
    }

    /// The first two cases with a nonzero bound pass the whole run.
    #[test]
    fn small_disorder_sweep_passes() {
        install_quiet_hook();
        let cases = (0..).map(|i| generate_case(case_seed(31, i)));
        for case in cases.filter(|c| !c.disorder.is_zero()).take(2) {
            if let Err(f) = run_case(&case) {
                panic!("disorder case (seed {}) failed: {f}", case.seed);
            }
        }
    }
}
