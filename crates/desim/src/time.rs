//! Simulated time: microsecond-resolution instants and durations.
//!
//! Integer microseconds are used instead of `f64` seconds so that event
//! ordering is exact — floating-point accumulation error would make the
//! simulator's behaviour depend on the order operations happened to run in.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub};

/// An instant on the simulated clock, in microseconds since simulation
/// start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Creates an instant from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Creates an instant from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Creates an instant from fractional seconds (rounded to the nearest
    /// microsecond; negative values clamp to zero).
    pub fn from_secs_f64(s: f64) -> Self {
        SimTime((s.max(0.0) * 1e6).round() as u64)
    }

    /// Raw microseconds since simulation start.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start as `f64`.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Time elapsed since `earlier`, saturating at zero.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// How many of the instants `self + j * every` (`j = 1, 2, …`) fall
    /// strictly before `limit`. A zero `every` never leaves `self`, so
    /// the count is unbounded (`u64::MAX`) while `self < limit`.
    pub fn strides_before(self, every: SimDuration, limit: SimTime) -> u64 {
        if limit.0 <= self.0 {
            return 0;
        }
        (limit.0 - self.0 - 1)
            .checked_div(every.0)
            .unwrap_or(u64::MAX)
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Creates a duration from fractional seconds (rounded; negative values
    /// clamp to zero).
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration((s.max(0.0) * 1e6).round() as u64)
    }

    /// Raw microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Length in seconds as `f64`.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;

    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;

    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimTime::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimTime::from_secs_f64(1.5).as_secs_f64(), 1.5);
        assert_eq!(SimDuration::from_secs_f64(0.25).as_micros(), 250_000);
    }

    #[test]
    fn negative_f64_clamps_to_zero() {
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
        assert_eq!(SimDuration::from_secs_f64(-0.1), SimDuration::ZERO);
    }

    #[test]
    fn arithmetic_behaves() {
        let t = SimTime::from_secs(1) + SimDuration::from_millis(500);
        assert_eq!(t.as_micros(), 1_500_000);
        let d = t - SimTime::from_secs(1);
        assert_eq!(d, SimDuration::from_millis(500));
    }

    #[test]
    fn strides_before_counts_strictly_earlier_multiples() {
        let at = SimTime::from_micros(10);
        let every = SimDuration::from_micros(5);
        // 15, 20, 25 < 30; 30 itself is not before the limit.
        assert_eq!(at.strides_before(every, SimTime::from_micros(30)), 3);
        assert_eq!(at.strides_before(every, SimTime::from_micros(31)), 4);
        assert_eq!(at.strides_before(every, SimTime::from_micros(15)), 0);
        assert_eq!(at.strides_before(every, SimTime::from_micros(16)), 1);
        assert_eq!(at.strides_before(every, at), 0);
        assert_eq!(at.strides_before(every, SimTime::ZERO), 0);
        let still = SimDuration::ZERO;
        assert_eq!(at.strides_before(still, SimTime::from_micros(11)), u64::MAX);
        assert_eq!(at.strides_before(still, at), 0);
        // Agrees with the definition by enumeration.
        for limit in 0..60 {
            let limit = SimTime::from_micros(limit);
            let by_hand = (1..100u64).filter(|&j| at + every * j < limit).count();
            assert_eq!(at.strides_before(every, limit), by_hand as u64);
        }
    }

    #[test]
    fn since_saturates() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(a.since(b), SimDuration::ZERO);
        assert_eq!(b.since(a), SimDuration::from_secs(1));
    }

    #[test]
    fn ordering_is_total() {
        let mut ts = vec![
            SimTime::from_micros(5),
            SimTime::from_micros(1),
            SimTime::from_micros(3),
        ];
        ts.sort();
        assert_eq!(
            ts,
            vec![
                SimTime::from_micros(1),
                SimTime::from_micros(3),
                SimTime::from_micros(5),
            ]
        );
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(format!("{}", SimTime::from_millis(1500)), "1.500000s");
    }
}
