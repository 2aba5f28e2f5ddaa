//! Virtual time for the deterministic discrete-event simulation.
//!
//! The paper's model (§2) is parameterized by an arrival rate `k` and a join
//! service rate `l`, both in tuples per second, and by a window length `p`
//! in seconds. Running the system on wall-clock time would make every
//! experiment non-reproducible, so the whole workspace operates on *virtual*
//! time: an integer count of microseconds since the start of the run.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Microseconds per second, the granularity of virtual time.
pub const MICROS_PER_SEC: u64 = 1_000_000;

/// A point in virtual time (microseconds since simulation start).
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct VTime(u64);

/// A span of virtual time (microseconds).
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct VDur(u64);

impl VTime {
    /// The origin of virtual time.
    pub const ZERO: VTime = VTime(0);

    /// A time point `micros` microseconds after the origin.
    #[inline]
    pub const fn from_micros(micros: u64) -> Self {
        VTime(micros)
    }

    /// A time point `secs` seconds after the origin.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        VTime(secs * MICROS_PER_SEC)
    }

    /// Microseconds since the origin.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since the origin, as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// The duration elapsed since `earlier`, saturating at zero.
    #[inline]
    pub fn since(self, earlier: VTime) -> VDur {
        VDur(self.0.saturating_sub(earlier.0))
    }

    /// `self + dur`, saturating at the end of virtual time instead of
    /// wrapping (release) or panicking (debug) as the plain `+` does: the
    /// form for a *deadline* — a window of `u64::MAX` µs never closes.
    #[inline]
    pub const fn saturating_add(self, dur: VDur) -> VTime {
        VTime(self.0.saturating_add(dur.0))
    }
}

impl VDur {
    /// The zero-length duration.
    pub const ZERO: VDur = VDur(0);

    /// A duration of `micros` microseconds.
    #[inline]
    pub const fn from_micros(micros: u64) -> Self {
        VDur(micros)
    }

    /// A duration of `secs` seconds.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        VDur(secs * MICROS_PER_SEC)
    }

    /// A duration of `secs` (fractional) seconds, rounded to microseconds.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs >= 0.0 && secs.is_finite(), "duration must be finite and non-negative");
        VDur((secs * MICROS_PER_SEC as f64).round() as u64)
    }

    /// Length in microseconds.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Length in seconds, as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// The inter-arrival duration for a rate of `per_sec` events per second.
    ///
    /// # Panics
    /// Panics if `per_sec` is not strictly positive and finite.
    #[inline]
    pub fn from_rate(per_sec: f64) -> Self {
        assert!(per_sec > 0.0 && per_sec.is_finite(), "rate must be positive");
        VDur::from_secs_f64(1.0 / per_sec)
    }

    /// This duration scaled by an integer factor.
    ///
    /// # Panics
    /// Panics if the product overflows virtual time (`u64::MAX` µs), in
    /// release builds too; [`VDur::checked_mul`] is the form that asks.
    #[inline]
    pub const fn mul(self, factor: u64) -> Self {
        match self.checked_mul(factor) {
            Some(d) => d,
            None => panic!("duration overflows virtual time"),
        }
    }

    /// This duration scaled by an integer factor, or `None` if the product
    /// overflows virtual time.
    #[inline]
    pub const fn checked_mul(self, factor: u64) -> Option<Self> {
        match self.0.checked_mul(factor) {
            Some(micros) => Some(VDur(micros)),
            None => None,
        }
    }

    /// Whether this is the zero duration.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<VDur> for VTime {
    type Output = VTime;
    #[inline]
    fn add(self, rhs: VDur) -> VTime {
        VTime(self.0 + rhs.0)
    }
}

impl AddAssign<VDur> for VTime {
    #[inline]
    fn add_assign(&mut self, rhs: VDur) {
        self.0 += rhs.0;
    }
}

impl Sub<VDur> for VTime {
    type Output = VTime;
    #[inline]
    fn sub(self, rhs: VDur) -> VTime {
        VTime(self.0.saturating_sub(rhs.0))
    }
}

impl Add for VDur {
    type Output = VDur;
    #[inline]
    fn add(self, rhs: VDur) -> VDur {
        VDur(self.0 + rhs.0)
    }
}

impl fmt::Debug for VTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for VDur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_and_accessors() {
        assert_eq!(VTime::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(VDur::from_secs(3).as_micros(), 3_000_000);
        assert_eq!(VTime::from_micros(10).as_micros(), 10);
        assert!((VTime::from_secs(1).as_secs_f64() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let t = VTime::from_secs(10) + VDur::from_secs(5);
        assert_eq!(t, VTime::from_secs(15));
        assert_eq!(t - VDur::from_secs(20), VTime::ZERO, "subtraction saturates");
        assert_eq!(t.since(VTime::from_secs(12)), VDur::from_secs(3));
        assert_eq!(VTime::from_secs(1).since(VTime::from_secs(2)), VDur::ZERO);
        assert_eq!(t.saturating_add(VDur::from_secs(1)), VTime::from_secs(16));
        let forever = VDur::from_micros(u64::MAX);
        assert_eq!(t.saturating_add(forever), VTime::from_micros(u64::MAX), "saturates");
    }

    #[test]
    fn rate_to_interarrival() {
        // 4 tuples per second -> 250ms between tuples.
        assert_eq!(VDur::from_rate(4.0).as_micros(), 250_000);
        // 1000 tuples per second -> 1ms.
        assert_eq!(VDur::from_rate(1000.0).as_micros(), 1_000);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_panics() {
        let _ = VDur::from_rate(0.0);
    }

    #[test]
    fn duration_helpers() {
        assert!(VDur::ZERO.is_zero());
        assert!(!VDur::from_micros(1).is_zero());
        assert_eq!(VDur::from_secs(2).mul(3), VDur::from_secs(6));
        assert_eq!(VDur::from_secs(1) + VDur::from_secs(2), VDur::from_secs(3));
        assert_eq!(VDur::from_secs(2).checked_mul(3), Some(VDur::from_secs(6)));
        assert_eq!(VDur::from_micros(u64::MAX / 2 + 1).checked_mul(2), None);
    }

    #[test]
    #[should_panic(expected = "duration overflows virtual time")]
    fn mul_past_the_end_of_virtual_time_panics() {
        let _ = VDur::from_micros(u64::MAX / 2 + 1).mul(2);
    }

    proptest! {
        #[test]
        fn add_then_since_round_trips(base in 0u64..1_000_000_000, d in 0u64..1_000_000_000) {
            let t0 = VTime::from_micros(base);
            let dur = VDur::from_micros(d);
            prop_assert_eq!((t0 + dur).since(t0), dur);
        }

        #[test]
        fn from_secs_f64_close(secs in 0.0f64..1e6) {
            let d = VDur::from_secs_f64(secs);
            prop_assert!((d.as_secs_f64() - secs).abs() <= 1e-6);
        }
    }
}
