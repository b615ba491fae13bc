//! Simulated time.
//!
//! All simulation components share a single nanosecond-resolution clock.
//! [`SimTime`] is an absolute instant since simulation start and
//! [`SimDuration`] a span between instants. Both are thin wrappers over
//! `u64` so they are `Copy`, totally ordered and cheap to pass around; the
//! newtypes exist purely so instants and spans cannot be confused.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant in simulated time, in nanoseconds since start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// The latest representable instant (unbounded-range sentinel).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Builds an instant from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Builds an instant from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Builds an instant from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Builds an instant from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Raw nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration elapsed since `earlier`. Saturates at zero rather than
    /// panicking so that slightly out-of-order samples are harmless.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a span from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Builds a span from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Builds a span from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Builds a span from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Builds a span from fractional seconds, rounding to nanoseconds.
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration(round_nonneg(s.max(0.0) * 1e9))
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The span in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The span in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// True if the span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction of spans.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// The smaller of two spans.
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// The larger of two spans.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// Scales the span by a non-negative factor, rounding to nanoseconds.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        SimDuration(round_nonneg(self.0 as f64 * factor.max(0.0)))
    }

    /// Bytes-per-second rate over this span (0 for an empty span).
    pub fn rate_per_sec(self, amount: u64) -> f64 {
        if self.0 == 0 {
            0.0
        } else {
            amount as f64 / self.as_secs_f64()
        }
    }
}

/// `x.round() as u64` (half away from zero, saturating, NaN to 0) for a
/// non-negative or NaN `x`, without the libm call `f64::round` compiles
/// to on the baseline x86-64 target. Below 2^53, `x - trunc(x)` is exact
/// (Sterbenz), so comparing it with 0.5 rounds exactly; from 2^53 on
/// every `f64` is an integer and the saturating cast alone is exact.
#[inline]
fn round_nonneg(x: f64) -> u64 {
    const EXACT: f64 = (1u64 << 53) as f64;
    let t = x as u64;
    if x >= EXACT {
        return t;
    }
    t + u64::from(x - t as f64 >= 0.5)
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

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        SimDuration(iter.map(|d| d.0).sum())
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}ns", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.1}us", self.0 as f64 / 1e3)
        } else if self.0 < 1_000_000_000 {
            write!(f, "{:.2}ms", self.0 as f64 / 1e6)
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimTime::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(SimTime::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimTime::from_micros(5).as_nanos(), 5_000);
        assert_eq!(SimDuration::from_secs(1).as_secs_f64(), 1.0);
        assert_eq!(SimDuration::from_millis(250).as_millis_f64(), 250.0);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_millis(10) + SimDuration::from_millis(5);
        assert_eq!(t.as_nanos(), 15_000_000);
        assert_eq!((t - SimTime::from_millis(5)).as_nanos(), 10_000_000);
        assert_eq!(t.since(SimTime::from_millis(12)).as_nanos(), 3_000_000);
        // saturating behaviour
        assert_eq!(SimTime::from_millis(1).since(t), SimDuration::ZERO);
    }

    #[test]
    fn duration_scaling_and_rate() {
        let d = SimDuration::from_secs(2);
        assert_eq!(d.mul_f64(0.5), SimDuration::from_secs(1));
        assert_eq!(d.mul_f64(-1.0), SimDuration::ZERO);
        assert_eq!(d.rate_per_sec(4_000_000_000), 2e9);
        assert_eq!(SimDuration::ZERO.rate_per_sec(10), 0.0);
    }

    #[test]
    fn duration_sum_and_min_max() {
        let total: SimDuration = [
            SimDuration::from_millis(1),
            SimDuration::from_millis(2),
            SimDuration::from_millis(3),
        ]
        .into_iter()
        .sum();
        assert_eq!(total, SimDuration::from_millis(6));
        let a = SimDuration::from_millis(1);
        let b = SimDuration::from_millis(2);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimDuration::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", SimDuration::from_micros(12)), "12.0us");
        assert_eq!(format!("{}", SimDuration::from_millis(12)), "12.00ms");
        assert_eq!(format!("{}", SimDuration::from_secs(12)), "12.000s");
        assert_eq!(format!("{}", SimTime::from_millis(1500)), "1.500s");
    }

    #[test]
    fn rounding_matches_f64_round() {
        // The formulas `round_nonneg` replaced.
        let mul_ref = |d: SimDuration, f: f64| (d.0 as f64 * f.max(0.0)).round() as u64;
        let secs_ref = |s: f64| (s.max(0.0) * 1e9).round() as u64;
        let check = |x: f64| {
            assert_eq!(round_nonneg(x), x.round() as u64, "round {x:e}");
            for d in [1, 3, 1_000] {
                let d = SimDuration::from_nanos(d);
                assert_eq!(d.mul_f64(x).0, mul_ref(d, x), "{d:?} * {x:e}");
            }
            let s = x / 1e9;
            assert_eq!(SimDuration::from_secs_f64(s).0, secs_ref(s), "{s:e} s");
        };
        let p52 = (1u64 << 52) as f64;
        let p53 = (1u64 << 53) as f64;
        for x in [
            0.0,
            0.5,
            0.49999999999999994,
            1.5,
            2.5,
            p52 - 0.5,
            p52 + 0.5,
            p53,
            p53 + 2.0,
            1e19,
            f64::INFINITY,
            f64::NAN,
        ] {
            check(x);
        }
        // Seeded values over [0, 2^54): a random exponent and mantissa,
        // and every third one an exact tie `n + 0.5`.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 0..1_000_000 {
            let r = next();
            let x = if i % 3 == 0 {
                (r >> (12 + r % 52)) as f64 + 0.5
            } else {
                let exp = 1023 - 8 + (r >> 52) % 62;
                f64::from_bits(exp << 52 | (next() >> 12))
            };
            assert!(x < 2.0 * p53, "{x:e} out of range");
            check(x);
        }
    }
}
