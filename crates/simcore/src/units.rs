//! Strongly-typed radio and network units.
//!
//! Mixing up dB and dBm, or bits and bytes per second, is the classic
//! source of silent wrongness in link-budget code. Each quantity gets a
//! newtype with explicit constructors/accessors; conversions that change
//! the physical meaning (e.g. dBm → mW) are spelled out as methods.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

/// Absolute power on the decibel-milliwatt scale.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Dbm(f64);

/// A power *ratio* (gain or loss) in decibels.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Db(f64);

/// Linear power in milliwatts.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Power(f64);

/// Energy in joules.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Energy(f64);

/// Carrier or subcarrier frequency in hertz.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Frequency(f64);

/// Channel bandwidth in hertz.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Bandwidth(f64);

/// Data rate in bits per second.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct BitRate(f64);

/// The comparison operators order each unit by its raw `f64`, exactly
/// as a derived `PartialOrd` would. Sorting goes through `total_cmp`
/// on the raw values instead (D002 in DESIGN.md §7).
macro_rules! float_partial_ord {
    ($($unit:ident),*) => {$(
        impl PartialOrd for $unit {
            #[inline]
            #[expect(
                clippy::disallowed_methods,
                reason = "operators only; NaN-safe sorts use total_cmp"
            )]
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                self.0.partial_cmp(&other.0)
            }
        }
    )*};
}
float_partial_ord!(Dbm, Db, Power, Energy, Frequency, Bandwidth, BitRate);

impl Dbm {
    /// Constructs from a dBm value.
    pub const fn new(v: f64) -> Self {
        Dbm(v)
    }
    /// The raw dBm value.
    pub const fn value(self) -> f64 {
        self.0
    }
    /// Converts to linear milliwatts.
    pub fn to_milliwatts(self) -> Power {
        Power(10f64.powf(self.0 / 10.0))
    }
    /// Constructs from linear milliwatts.
    ///
    /// # Panics
    /// Panics if `mw` is not positive — zero power has no dBm value.
    pub fn from_milliwatts(mw: Power) -> Self {
        assert!(mw.0 > 0.0, "dBm undefined for non-positive power");
        Dbm(10.0 * mw.0.log10())
    }
}

impl Db {
    /// Constructs from a dB value.
    pub const fn new(v: f64) -> Self {
        Db(v)
    }
    /// The raw dB value.
    pub const fn value(self) -> f64 {
        self.0
    }
    /// Converts the ratio to linear scale.
    pub fn to_linear(self) -> f64 {
        10f64.powf(self.0 / 10.0)
    }
    /// Constructs from a linear power ratio.
    pub fn from_linear(r: f64) -> Self {
        assert!(r > 0.0, "dB undefined for non-positive ratio");
        Db(10.0 * r.log10())
    }
}

impl Power {
    /// Constructs from milliwatts.
    pub const fn from_milliwatts(mw: f64) -> Self {
        Power(mw)
    }
    /// Constructs from watts.
    pub fn from_watts(w: f64) -> Self {
        Power(w * 1e3)
    }
    /// Milliwatt value.
    pub const fn milliwatts(self) -> f64 {
        self.0
    }
    /// Watt value.
    pub fn watts(self) -> f64 {
        self.0 / 1e3
    }
    /// Energy consumed when drawing this power for `seconds`.
    pub fn over_seconds(self, seconds: f64) -> Energy {
        Energy::from_joules(self.watts() * seconds)
    }
}

impl Energy {
    /// Constructs from joules.
    pub const fn from_joules(j: f64) -> Self {
        Energy(j)
    }
    /// Joule value.
    pub const fn joules(self) -> f64 {
        self.0
    }
    /// Energy per bit (microjoules per bit) when this energy moved `bits`.
    /// Returns `NaN` when `bits` is zero.
    pub fn micro_joules_per_bit(self, bits: f64) -> f64 {
        self.0 * 1e6 / bits
    }
}

impl Frequency {
    /// Constructs from hertz.
    pub const fn from_hz(hz: f64) -> Self {
        Frequency(hz)
    }
    /// Constructs from megahertz.
    pub fn from_mhz(mhz: f64) -> Self {
        Frequency(mhz * 1e6)
    }
    /// Constructs from gigahertz.
    pub fn from_ghz(ghz: f64) -> Self {
        Frequency(ghz * 1e9)
    }
    /// Hertz value.
    pub const fn hz(self) -> f64 {
        self.0
    }
    /// Megahertz value.
    pub fn mhz(self) -> f64 {
        self.0 / 1e6
    }
    /// Gigahertz value.
    pub fn ghz(self) -> f64 {
        self.0 / 1e9
    }
}

impl Bandwidth {
    /// Constructs from hertz.
    pub const fn from_hz(hz: f64) -> Self {
        Bandwidth(hz)
    }
    /// Constructs from megahertz.
    pub fn from_mhz(mhz: f64) -> Self {
        Bandwidth(mhz * 1e6)
    }
    /// Hertz value.
    pub const fn hz(self) -> f64 {
        self.0
    }
    /// Megahertz value.
    pub fn mhz(self) -> f64 {
        self.0 / 1e6
    }
}

impl BitRate {
    /// Zero rate.
    pub const ZERO: BitRate = BitRate(0.0);

    /// Constructs from bits per second.
    pub const fn from_bps(bps: f64) -> Self {
        BitRate(bps)
    }
    /// Constructs from megabits per second.
    pub fn from_mbps(mbps: f64) -> Self {
        BitRate(mbps * 1e6)
    }
    /// Constructs from gigabits per second.
    pub fn from_gbps(gbps: f64) -> Self {
        BitRate(gbps * 1e9)
    }
    /// Bits per second.
    pub const fn bps(self) -> f64 {
        self.0
    }
    /// Megabits per second.
    pub fn mbps(self) -> f64 {
        self.0 / 1e6
    }
    /// Time to serialise `bits` at this rate, in seconds. Infinite for a
    /// zero rate.
    pub fn secs_for_bits(self, bits: f64) -> f64 {
        if self.0 <= 0.0 {
            f64::INFINITY
        } else {
            bits / self.0
        }
    }
}

// --- arithmetic that is physically meaningful ---

impl Add<Db> for Dbm {
    type Output = Dbm;
    fn add(self, rhs: Db) -> Dbm {
        Dbm(self.0 + rhs.0)
    }
}
impl Sub<Db> for Dbm {
    type Output = Dbm;
    fn sub(self, rhs: Db) -> Dbm {
        Dbm(self.0 - rhs.0)
    }
}
impl Sub for Dbm {
    /// dBm − dBm = a ratio in dB.
    type Output = Db;
    fn sub(self, rhs: Dbm) -> Db {
        Db(self.0 - rhs.0)
    }
}
impl Add for Db {
    type Output = Db;
    fn add(self, rhs: Db) -> Db {
        Db(self.0 + rhs.0)
    }
}
impl Sub for Db {
    type Output = Db;
    fn sub(self, rhs: Db) -> Db {
        Db(self.0 - rhs.0)
    }
}
impl Neg for Db {
    type Output = Db;
    fn neg(self) -> Db {
        Db(-self.0)
    }
}
impl Add for Power {
    type Output = Power;
    fn add(self, rhs: Power) -> Power {
        Power(self.0 + rhs.0)
    }
}
impl AddAssign for Power {
    fn add_assign(&mut self, rhs: Power) {
        self.0 += rhs.0;
    }
}
impl Sub for Power {
    type Output = Power;
    fn sub(self, rhs: Power) -> Power {
        Power(self.0 - rhs.0)
    }
}
impl Mul<f64> for Power {
    type Output = Power;
    fn mul(self, rhs: f64) -> Power {
        Power(self.0 * rhs)
    }
}
impl Sum for Power {
    fn sum<I: Iterator<Item = Power>>(iter: I) -> Power {
        iter.fold(Power::default(), |a, b| a + b)
    }
}
impl Add for Energy {
    type Output = Energy;
    fn add(self, rhs: Energy) -> Energy {
        Energy(self.0 + rhs.0)
    }
}
impl AddAssign for Energy {
    fn add_assign(&mut self, rhs: Energy) {
        self.0 += rhs.0;
    }
}
impl Sub for Energy {
    type Output = Energy;
    fn sub(self, rhs: Energy) -> Energy {
        Energy(self.0 - rhs.0)
    }
}
impl Sum for Energy {
    fn sum<I: Iterator<Item = Energy>>(iter: I) -> Energy {
        iter.fold(Energy::default(), |a, b| a + b)
    }
}
impl Mul<f64> for BitRate {
    type Output = BitRate;
    fn mul(self, rhs: f64) -> BitRate {
        BitRate(self.0 * rhs)
    }
}
impl Add for BitRate {
    type Output = BitRate;
    fn add(self, rhs: BitRate) -> BitRate {
        BitRate(self.0 + rhs.0)
    }
}
impl Div for BitRate {
    /// rate / rate = dimensionless utilisation.
    type Output = f64;
    fn div(self, rhs: BitRate) -> f64 {
        self.0 / rhs.0
    }
}

impl fmt::Display for Dbm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} dBm", self.0)
    }
}
impl fmt::Display for Db {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} dB", self.0)
    }
}
impl fmt::Display for BitRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e9 {
            write!(f, "{:.2} Gbps", self.0 / 1e9)
        } else if self.0 >= 1e6 {
            write!(f, "{:.2} Mbps", self.0 / 1e6)
        } else if self.0 >= 1e3 {
            write!(f, "{:.2} Kbps", self.0 / 1e3)
        } else {
            write!(f, "{:.0} bps", self.0)
        }
    }
}
impl fmt::Display for Power {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} mW", self.0)
    }
}
impl fmt::Display for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} J", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dbm_milliwatt_roundtrip() {
        let p = Dbm::new(0.0).to_milliwatts();
        assert!((p.milliwatts() - 1.0).abs() < 1e-12);
        let p30 = Dbm::new(30.0).to_milliwatts();
        assert!((p30.milliwatts() - 1000.0).abs() < 1e-9);
        let back = Dbm::from_milliwatts(p30);
        assert!((back.value() - 30.0).abs() < 1e-12);
    }

    #[test]
    fn db_linear_roundtrip() {
        assert!((Db::new(3.0103).to_linear() - 2.0).abs() < 1e-4);
        assert!((Db::from_linear(100.0).value() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn dbm_arithmetic() {
        let rx = Dbm::new(-60.0) - Db::new(20.0);
        assert_eq!(rx.value(), -80.0);
        let gap = Dbm::new(-70.0) - Dbm::new(-80.0);
        assert_eq!(gap.value(), 10.0);
    }

    #[test]
    fn energy_accounting() {
        // 2 W for 10 s = 20 J.
        let e = Power::from_watts(2.0).over_seconds(10.0);
        assert!((e.joules() - 20.0).abs() < 1e-12);
        // 20 J over 1 Mbit = 20 uJ/bit.
        assert!((e.micro_joules_per_bit(1e6) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn bitrate_serialisation_time() {
        let r = BitRate::from_mbps(100.0);
        // 12 500 bytes at 100 Mbps = 1 ms.
        assert!((r.secs_for_bits(12_500.0 * 8.0) - 1e-3).abs() < 1e-12);
        assert!(BitRate::ZERO.secs_for_bits(8.0).is_infinite());
    }

    #[test]
    fn utilisation_ratio() {
        let u = BitRate::from_mbps(280.0) / BitRate::from_mbps(880.0);
        assert!((u - 0.3181818).abs() < 1e-6);
    }

    #[test]
    fn frequency_conversions() {
        assert_eq!(Frequency::from_ghz(3.5).mhz(), 3500.0);
        assert_eq!(Bandwidth::from_mhz(100.0).hz(), 1e8);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", BitRate::from_mbps(880.0)), "880.00 Mbps");
        assert_eq!(format!("{}", BitRate::from_gbps(1.2)), "1.20 Gbps");
        assert_eq!(format!("{}", Dbm::new(-84.03)), "-84.03 dBm");
    }
}
