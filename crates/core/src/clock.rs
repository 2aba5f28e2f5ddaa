//! The sampled stage clock the engine's per-arrival stages share.
//!
//! Reading the wall clock around every `observe` and every admission score
//! was a tenth of an arrival (four reads at ≈ 35 ns against a few hundred
//! nanoseconds of work). [`StageClock`] instead times the first arrival
//! and every [`STRIDE`]-th after it and charges each timed stage
//! `elapsed × STRIDE`, so the per-arrival stage totals
//! ([`EngineMetrics::sketch_observe_ns`], [`EngineMetrics::expire_ns`],
//! [`EngineMetrics::probe_ns`], [`EngineMetrics::score_ns`],
//! [`EngineMetrics::insert_ns`]) keep their unit as estimates of the total.
//! Which arrivals are timed depends on the arrival count alone — never on
//! the engine's rng — so a timed run sheds exactly what an untimed one
//! would.
//!
//! [`EngineMetrics::sketch_observe_ns`]: crate::report::EngineMetrics::sketch_observe_ns
//! [`EngineMetrics::expire_ns`]: crate::report::EngineMetrics::expire_ns
//! [`EngineMetrics::probe_ns`]: crate::report::EngineMetrics::probe_ns
//! [`EngineMetrics::score_ns`]: crate::report::EngineMetrics::score_ns
//! [`EngineMetrics::insert_ns`]: crate::report::EngineMetrics::insert_ns

use std::time::Instant;

/// One arrival in this many is timed. A prime that divides no stream
/// count a round-robin feed is likely to have, so every stream of a 2-,
/// 3-, 4-, 6- or 8-way rotation is sampled equally often.
pub const STRIDE: u64 = 61;

/// Decides, once per arrival, whether that arrival's stages are timed.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct StageClock {
    /// Arrivals still to pass untimed before the next timed one.
    untimed_left: u64,
}

impl StageClock {
    /// The verdict for the next arrival: timed for the first, then for
    /// every [`STRIDE`]-th.
    #[inline]
    pub(crate) fn next_arrival(&mut self) -> Sample {
        if self.untimed_left == 0 {
            self.untimed_left = STRIDE - 1;
            Sample(true)
        } else {
            self.untimed_left -= 1;
            Sample(false)
        }
    }
}

/// [`StageClock`]'s verdict on one arrival, handed to every stage of it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Sample(bool);

impl Sample {
    /// Runs `stage`; on a timed arrival adds `elapsed × STRIDE` to `total`.
    /// One call site for `stage`, so a stage as large as the probe kernels
    /// is instantiated once, not once per verdict.
    #[inline]
    pub(crate) fn time<R>(self, total: &mut u64, stage: impl FnOnce() -> R) -> R {
        let t0 = self.0.then(Instant::now);
        let out = stage();
        if let Some(t0) = t0 {
            *total += t0.elapsed().as_nanos() as u64 * STRIDE;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timed(clock: &mut StageClock) -> bool {
        clock.next_arrival().0
    }

    #[test]
    fn the_first_arrival_and_every_stride_th_are_timed() {
        for n in [0u64, 1, 2, 60, 61, 62, 122, 1000, 61 * 61 + 7] {
            let mut clock = StageClock::default();
            let verdicts: Vec<bool> = (0..n).map(|_| timed(&mut clock)).collect();
            let count = verdicts.iter().filter(|&&t| t).count() as u64;
            assert_eq!(count, n.div_ceil(STRIDE), "{n} arrivals");
            assert!(verdicts.iter().enumerate().all(|(i, &t)| t == (i as u64 % STRIDE == 0)));
        }
    }

    #[test]
    fn every_stream_of_a_rotation_is_timed_soon() {
        for streams in [2usize, 3, 4, 6, 8] {
            let mut clock = StageClock::default();
            let mut seen = vec![false; streams];
            for i in 0..8 * STRIDE as usize {
                if timed(&mut clock) {
                    seen[i % streams] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "{streams}-way rotation: {seen:?}");
        }
    }

    #[test]
    fn a_timed_stage_is_charged_stride_times_its_elapsed_time() {
        let mut total = 0u64;
        let out = Sample(false).time(&mut total, || 7);
        assert_eq!((out, total), (7, 0), "an untimed stage reads no clock");
        let out = Sample(true).time(&mut total, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            9
        });
        assert_eq!(out, 9);
        assert!(total >= 2_000_000 * STRIDE, "charged {total} ns");
        assert_eq!(total % STRIDE, 0);
    }
}
