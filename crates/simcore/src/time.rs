//! Virtual simulation clock.
//!
//! Time is stored as an integer number of nanoseconds since the start of
//! the simulation. Integer time keeps event ordering exact — two events
//! scheduled from the same inputs always compare the same way, which is a
//! prerequisite for deterministic replay.

use serde::Serialize;
use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// An instant on the simulation clock, in nanoseconds since t = 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize)]
pub struct SimDuration(u64);

/// Both clock types order by their nanosecond count. The impls are
/// written out because a derived `PartialOrd` calls `partial_cmp`,
/// which `crates/clippy.toml` disallows (D002 in DESIGN.md §7).
macro_rules! nanos_ord {
    ($($clock:ident),*) => {$(
        impl PartialOrd for $clock {
            #[inline]
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }

        impl Ord for $clock {
            #[inline]
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.0.cmp(&other.0)
            }
        }
    )*};
}
nanos_ord!(SimTime, SimDuration);

/// 2^53: below it every `f64` splits exactly into an integer part that
/// fits an `i64` and a fraction.
const EXACT_SPLIT: f64 = 9_007_199_254_740_992.0;

/// Fractional seconds to the nearest nanosecond, ties away from zero;
/// negative and NaN inputs give 0 and +inf saturates. Bit-for-bit
/// `(s.max(0.0) * 1e9).round() as u64`, without `f64::round`: the
/// x86-64 baseline target has no rounding instruction, so that call
/// goes to a software routine on every time conversion. Below 2^53
/// both `ns - whole` and the casts are exact, so comparing the
/// fraction with one half rounds exactly as `round` does (including
/// 0.49999999999999994, which `(ns + 0.5).floor()` would round up).
#[inline]
fn secs_to_nanos(s: f64) -> u64 {
    round_nanos(s.max(0.0) * 1e9)
}

/// `ns.round() as u64` for a non-negative or NaN `ns`.
#[inline]
fn round_nanos(ns: f64) -> u64 {
    if ns < EXACT_SPLIT {
        let whole = ns as i64;
        let up = ns - whole as f64 >= 0.5;
        (whole + i64::from(up)) as u64
    } else {
        ns.round() as u64
    }
}

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
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

    /// Builds an instant from fractional seconds, rounding to the nearest
    /// nanosecond. Negative inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        SimTime(secs_to_nanos(s))
    }

    /// Raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This instant expressed in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// This instant expressed in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Duration elapsed since `earlier`, saturating at zero if `earlier`
    /// is in the future.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a duration; `None` on overflow.
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Builds a duration from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Builds a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Builds a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Builds a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Builds a duration from fractional seconds, rounding to the nearest
    /// nanosecond. Negative inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration(secs_to_nanos(s))
    }

    /// Builds a duration from fractional milliseconds.
    pub fn from_millis_f64(ms: f64) -> Self {
        SimDuration::from_secs_f64(ms / 1e3)
    }

    /// Raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This duration in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// This duration in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Whether the duration is exactly zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiplies the duration by a non-negative scalar, saturating at the
    /// maximum representable duration.
    #[cfg(test)]
    fn mul_f64(self, k: f64) -> SimDuration {
        let v = (self.0 as f64 * k.max(0.0)).round();
        if v >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration(v as u64)
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
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
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}ns", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else if self.0 < 1_000_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(2), SimTime::from_millis(2_000));
        assert_eq!(SimTime::from_millis(3), SimTime::from_micros(3_000));
        assert_eq!(SimTime::from_micros(5), SimTime::from_nanos(5_000));
        assert_eq!(SimDuration::from_secs(1).as_nanos(), 1_000_000_000);
    }

    #[test]
    fn arithmetic_roundtrip() {
        let t = SimTime::from_millis(10) + SimDuration::from_millis(5);
        assert_eq!(t, SimTime::from_millis(15));
        assert_eq!(t - SimTime::from_millis(10), SimDuration::from_millis(5));
    }

    #[test]
    fn subtraction_saturates() {
        let early = SimTime::from_millis(1);
        let late = SimTime::from_millis(2);
        assert_eq!(early - late, SimDuration::ZERO);
        assert_eq!(early.since(late), SimDuration::ZERO);
        assert_eq!(late.since(early), SimDuration::from_millis(1));
    }

    #[test]
    fn float_conversions() {
        let d = SimDuration::from_secs_f64(1.5);
        assert_eq!(d, SimDuration::from_millis(1_500));
        assert!((d.as_secs_f64() - 1.5).abs() < 1e-12);
        assert_eq!(SimDuration::from_secs_f64(-3.0), SimDuration::ZERO);
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
    }

    /// The conversion `secs_to_nanos` replaces, kept as its oracle.
    fn secs_to_nanos_oracle(s: f64) -> u64 {
        (s.max(0.0) * 1e9).round() as u64
    }

    fn assert_rounds_like_oracle(s: f64) {
        assert_eq!(
            secs_to_nanos(s),
            secs_to_nanos_oracle(s),
            "{s:e} s ({:e} ns)",
            s * 1e9
        );
    }

    #[test]
    fn rounding_matches_f64_round_on_edge_cases() {
        let two52 = EXACT_SPLIT / 2.0;
        let mut cases = vec![
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN_POSITIVE,
            -1e-9,
            -3.0,
            1e-10,
            1.8446744073709552e10,
            1e12,
        ];
        // Half-ties and their neighbours, in nanoseconds.
        let mut nanos = vec![];
        for ns in [0.5, 1.5, 2.5, 0.49999999999999994, 1e6 + 0.5, 12_345.5] {
            nanos.extend([ns, next_down(ns), next_up(ns)]);
        }
        // Around 2^52 (the last binade with a half) and 2^53 (the split's edge).
        for edge in [two52, EXACT_SPLIT] {
            let mut v = edge;
            for _ in 0..4 {
                v = next_down(v);
            }
            for _ in 0..9 {
                nanos.push(v);
                v = next_up(v);
            }
        }
        for &ns in &nanos {
            assert_eq!(round_nanos(ns), ns.round() as u64, "{ns:e} ns");
            cases.push(ns / 1e9);
        }
        for s in cases {
            assert_rounds_like_oracle(s);
        }
        assert_eq!(round_nanos(0.49999999999999994), 0);
        assert_eq!(secs_to_nanos(f64::NAN), 0);
        assert_eq!(secs_to_nanos(f64::INFINITY), u64::MAX);
        assert_eq!(SimDuration::from_secs_f64(2.5e-9).as_nanos(), 3);
    }

    #[test]
    fn rounding_matches_f64_round_on_random_inputs() {
        use rand::RngCore;
        let mut rng = crate::SimRng::new(0x7ea5);
        for _ in 0..200_000 {
            // Random bit patterns cover every binade, sign and NaN payload;
            // the scaled draws cover the simulator's range densely.
            assert_rounds_like_oracle(f64::from_bits(rng.next_u64()));
            let u = rng.f64();
            assert_rounds_like_oracle(u * 1e-3);
            assert_rounds_like_oracle(u * 100.0);
            assert_rounds_like_oracle(u * 1e8);
            let tie = rng.range_u64(0, 1 << 40) as f64 + 0.5;
            assert_rounds_like_oracle(tie / 1e9);
        }
    }

    fn next_up(v: f64) -> f64 {
        f64::from_bits(v.to_bits() + 1)
    }

    fn next_down(v: f64) -> f64 {
        f64::from_bits(v.to_bits() - 1)
    }

    #[test]
    fn mul_f64_scales_and_saturates() {
        let d = SimDuration::from_millis(10);
        assert_eq!(d.mul_f64(2.5), SimDuration::from_millis(25));
        assert_eq!(d.mul_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::MAX.mul_f64(2.0), SimDuration::MAX);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", SimDuration::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", SimDuration::from_micros(12)), "12.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(12)), "12.000s");
    }
}
