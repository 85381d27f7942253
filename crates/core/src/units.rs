//! Strongly-typed physical and logical units used throughout the workspace.
//!
//! Simulation results are only as trustworthy as their unit discipline, so
//! every quantity that crosses a module boundary is a newtype
//! ([`Bytes`], [`Bandwidth`], [`SimTime`], [`FlopCount`], [`FlopRate`],
//! [`Hertz`], [`Watts`], [`CostUnits`]) rather than a bare
//! number. Conversions between them are explicit methods such as
//! [`Bandwidth::time_to_move`] so that dimensional errors are caught at
//! compile time.
//!
//! Time is stored in integer **picoseconds**: the fastest event the simulator
//! models is a single 1.35 GHz cycle (≈ 740 ps), and u64 picoseconds covers
//! ~213 days of simulated time, far beyond any experiment here.
//!
//! # Examples
//!
//! ```
//! use mtia_core::units::{Bytes, Bandwidth, SimTime};
//!
//! let weights = Bytes::from_mib(109);
//! let lpddr = Bandwidth::from_gb_per_s(204.8);
//! let t = lpddr.time_to_move(weights);
//! assert!(t > SimTime::from_micros(500) && t < SimTime::from_micros(600));
//! ```

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// `x.round() as u64` without the software `round`: baseline x86-64 has
/// no rounding instruction, so `f64::round` is a library call, while a
/// truncating conversion is one instruction.
///
/// For `0 <= x < 2^63` the result is `t + (x - t >= 0.5)` with
/// `t = x as i64`. Below 2^52 the fraction `x - t` is exact, and from 2^52
/// up every double is an integer, so the fraction is zero; ties round up,
/// as `round` rounds them away from zero. Every other input (negative,
/// NaN, >= 2^63) takes `x.round() as u64`. The result is bit-identical to
/// `x.round() as u64` for every `f64`.
#[inline]
fn round_u64(x: f64) -> u64 {
    const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;
    if (0.0..TWO_POW_63).contains(&x) {
        let t = x as i64;
        t as u64 + u64::from(x - t as f64 >= 0.5)
    } else {
        x.round() as u64
    }
}

/// A byte count (capacity or traffic volume).
///
/// ```
/// use mtia_core::units::Bytes;
/// assert_eq!(Bytes::from_kib(384).as_u64(), 384 * 1024);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bytes(u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);

    /// Creates a byte count from a raw number of bytes.
    pub const fn new(bytes: u64) -> Self {
        Bytes(bytes)
    }

    /// Creates a byte count from binary kilobytes (1024 B).
    pub const fn from_kib(kib: u64) -> Self {
        Bytes(kib * 1024)
    }

    /// Creates a byte count from binary megabytes.
    pub const fn from_mib(mib: u64) -> Self {
        Bytes(mib * 1024 * 1024)
    }

    /// Creates a byte count from binary gigabytes.
    pub const fn from_gib(gib: u64) -> Self {
        Bytes(gib * 1024 * 1024 * 1024)
    }

    /// Raw byte count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Byte count as `f64`, for ratio arithmetic.
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Byte count in binary megabytes.
    pub fn as_mib(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0)
    }

    /// Byte count in binary gigabytes.
    pub fn as_gib(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0 * 1024.0)
    }

    /// Saturating subtraction: never underflows.
    pub fn saturating_sub(self, other: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(other.0))
    }

    /// Returns `self` scaled by a dimensionless factor, rounding to nearest.
    pub fn scale(self, factor: f64) -> Bytes {
        debug_assert!(factor >= 0.0, "byte scale factor must be non-negative");
        Bytes(round_u64(self.0 as f64 * factor))
    }

    /// The smaller of two byte counts.
    pub fn min(self, other: Bytes) -> Bytes {
        Bytes(self.0.min(other.0))
    }

    /// The larger of two byte counts.
    pub fn max(self, other: Bytes) -> Bytes {
        Bytes(self.0.max(other.0))
    }
}

impl Add for Bytes {
    type Output = Bytes;
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl AddAssign for Bytes {
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 += rhs.0;
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    fn sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 - rhs.0)
    }
}

impl SubAssign for Bytes {
    fn sub_assign(&mut self, rhs: Bytes) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Bytes {
    type Output = Bytes;
    fn mul(self, rhs: u64) -> Bytes {
        Bytes(self.0 * rhs)
    }
}

impl Div<u64> for Bytes {
    type Output = Bytes;
    fn div(self, rhs: u64) -> Bytes {
        Bytes(self.0 / rhs)
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        iter.fold(Bytes::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        if b >= 1024 * 1024 * 1024 {
            write!(f, "{:.2} GiB", self.as_gib())
        } else if b >= 1024 * 1024 {
            write!(f, "{:.2} MiB", self.as_mib())
        } else if b >= 1024 {
            write!(f, "{:.2} KiB", b as f64 / 1024.0)
        } else {
            write!(f, "{b} B")
        }
    }
}

/// A data-transfer rate in bytes per second.
///
/// The paper quotes bandwidths in decimal units (GB/s = 1e9 B/s), and this
/// type follows that convention.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// Zero bandwidth.
    pub const ZERO: Bandwidth = Bandwidth(0.0);

    /// Creates a bandwidth from bytes/second.
    pub const fn from_bytes_per_s(bps: f64) -> Self {
        Bandwidth(bps)
    }

    /// Creates a bandwidth from decimal gigabytes/second (1 GB = 1e9 B).
    pub const fn from_gb_per_s(gbps: f64) -> Self {
        Bandwidth(gbps * 1e9)
    }

    /// Creates a bandwidth from decimal terabytes/second.
    pub const fn from_tb_per_s(tbps: f64) -> Self {
        Bandwidth(tbps * 1e12)
    }

    /// Bandwidth in bytes/second.
    pub fn as_bytes_per_s(self) -> f64 {
        self.0
    }

    /// Bandwidth in decimal GB/s.
    pub fn as_gb_per_s(self) -> f64 {
        self.0 / 1e9
    }

    /// Time needed to move `bytes` at this bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if the bandwidth is zero (moving data over a zero-bandwidth
    /// link has no finite completion time).
    pub fn time_to_move(self, bytes: Bytes) -> SimTime {
        assert!(self.0 > 0.0, "cannot move data over zero bandwidth");
        SimTime::from_secs_f64(bytes.as_f64() / self.0)
    }

    /// Returns `self` scaled by a dimensionless factor (e.g. an efficiency).
    pub fn scale(self, factor: f64) -> Bandwidth {
        Bandwidth(self.0 * factor)
    }

    /// The smaller of two bandwidths.
    pub fn min(self, other: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.min(other.0))
    }
}

impl Add for Bandwidth {
    type Output = Bandwidth;
    fn add(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0 + rhs.0)
    }
}

impl Mul<f64> for Bandwidth {
    type Output = Bandwidth;
    fn mul(self, rhs: f64) -> Bandwidth {
        Bandwidth(self.0 * rhs)
    }
}

impl Div<f64> for Bandwidth {
    type Output = Bandwidth;
    fn div(self, rhs: f64) -> Bandwidth {
        Bandwidth(self.0 / rhs)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e12 {
            write!(f, "{:.2} TB/s", self.0 / 1e12)
        } else {
            write!(f, "{:.1} GB/s", self.0 / 1e9)
        }
    }
}

/// A point in simulated time, or a duration, in integer picoseconds.
///
/// ```
/// use mtia_core::units::SimTime;
/// let cycle = SimTime::from_secs_f64(1.0 / 1.35e9);
/// assert_eq!(cycle.as_picos(), 741); // one 1.35 GHz cycle
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Time zero / zero duration.
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable time; useful as an "infinite" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from raw picoseconds.
    pub const fn from_picos(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Creates a time from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns * 1_000)
    }

    /// Creates a time from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000_000)
    }

    /// Creates a time from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000_000)
    }

    /// Creates a time from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000_000)
    }

    /// Creates a time from fractional seconds, rounding to the nearest
    /// picosecond.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or non-finite.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "SimTime must be finite and non-negative, got {secs}"
        );
        SimTime(round_u64(secs * 1e12))
    }

    /// Raw picosecond count.
    pub const fn as_picos(self) -> u64 {
        self.0
    }

    /// Time in nanoseconds (fractional).
    #[inline]
    pub fn as_nanos_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Time in microseconds (fractional).
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Time in milliseconds (fractional).
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time in seconds (fractional).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Saturating subtraction: never underflows.
    #[inline]
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }

    /// Returns `self` scaled by a dimensionless factor.
    #[inline]
    pub fn scale(self, factor: f64) -> SimTime {
        debug_assert!(factor >= 0.0, "time scale factor must be non-negative");
        SimTime(round_u64(self.0 as f64 * factor))
    }

    /// The smaller of two times.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }

    /// The larger of two times.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Dimensionless ratio `self / other`.
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    #[inline]
    pub fn ratio(self, other: SimTime) -> f64 {
        assert!(other.0 > 0, "division by zero duration");
        self.0 as f64 / other.0 as f64
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        const DAY: u64 = 86_400_000_000_000_000;
        const HOUR: u64 = 3_600_000_000_000_000;
        const MINUTE: u64 = 60_000_000_000_000;
        if ps >= DAY {
            write!(f, "{:.1} days", self.as_secs_f64() / 86_400.0)
        } else if ps >= 2 * HOUR {
            write!(f, "{:.1} h", self.as_secs_f64() / 3_600.0)
        } else if ps >= 10 * MINUTE {
            write!(f, "{:.1} min", self.as_secs_f64() / 60.0)
        } else if ps >= 1_000_000_000_000 {
            write!(f, "{:.3} s", self.as_secs_f64())
        } else if ps >= 1_000_000_000 {
            write!(f, "{:.3} ms", self.as_millis_f64())
        } else if ps >= 1_000_000 {
            write!(f, "{:.3} µs", self.as_micros_f64())
        } else if ps >= 1_000 {
            write!(f, "{:.3} ns", self.as_nanos_f64())
        } else {
            write!(f, "{ps} ps")
        }
    }
}

/// A count of floating-point (or INT8 MAC) operations.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct FlopCount(f64);

impl FlopCount {
    /// Zero operations.
    pub const ZERO: FlopCount = FlopCount(0.0);

    /// Creates an operation count.
    pub const fn new(flops: f64) -> Self {
        FlopCount(flops)
    }

    /// Creates an operation count from megaflops (1e6).
    pub const fn from_mflops(m: f64) -> Self {
        FlopCount(m * 1e6)
    }

    /// Raw operation count.
    pub fn as_f64(self) -> f64 {
        self.0
    }

    /// Operation count in megaflops.
    pub fn as_mflops(self) -> f64 {
        self.0 / 1e6
    }

    /// Operation count in gigaflops.
    pub fn as_gflops(self) -> f64 {
        self.0 / 1e9
    }
}

impl Add for FlopCount {
    type Output = FlopCount;
    fn add(self, rhs: FlopCount) -> FlopCount {
        FlopCount(self.0 + rhs.0)
    }
}

impl AddAssign for FlopCount {
    fn add_assign(&mut self, rhs: FlopCount) {
        self.0 += rhs.0;
    }
}

impl Mul<f64> for FlopCount {
    type Output = FlopCount;
    fn mul(self, rhs: f64) -> FlopCount {
        FlopCount(self.0 * rhs)
    }
}

impl Sum for FlopCount {
    fn sum<I: Iterator<Item = FlopCount>>(iter: I) -> FlopCount {
        iter.fold(FlopCount::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for FlopCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e12 {
            write!(f, "{:.2} TFLOP", self.0 / 1e12)
        } else if self.0 >= 1e9 {
            write!(f, "{:.2} GFLOP", self.0 / 1e9)
        } else if self.0 >= 1e6 {
            write!(f, "{:.2} MFLOP", self.0 / 1e6)
        } else {
            write!(f, "{:.0} FLOP", self.0)
        }
    }
}

/// A compute rate in operations per second.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct FlopRate(f64);

impl FlopRate {
    /// Zero rate.
    pub const ZERO: FlopRate = FlopRate(0.0);

    /// Creates a rate from operations/second.
    pub const fn from_flops_per_s(f: f64) -> Self {
        FlopRate(f)
    }

    /// Creates a rate from teraops/second.
    pub const fn from_tflops(t: f64) -> Self {
        FlopRate(t * 1e12)
    }

    /// Rate in operations/second.
    pub fn as_flops_per_s(self) -> f64 {
        self.0
    }

    /// Rate in teraops/second.
    pub fn as_tflops(self) -> f64 {
        self.0 / 1e12
    }

    /// Time needed to execute `flops` operations at this rate.
    ///
    /// # Panics
    ///
    /// Panics if the rate is zero.
    pub fn time_to_compute(self, flops: FlopCount) -> SimTime {
        assert!(self.0 > 0.0, "cannot compute at zero FLOP rate");
        SimTime::from_secs_f64(flops.as_f64() / self.0)
    }

    /// Returns `self` scaled by a dimensionless factor (e.g. an efficiency).
    pub fn scale(self, factor: f64) -> FlopRate {
        FlopRate(self.0 * factor)
    }
}

impl Add for FlopRate {
    type Output = FlopRate;
    fn add(self, rhs: FlopRate) -> FlopRate {
        FlopRate(self.0 + rhs.0)
    }
}

impl Mul<f64> for FlopRate {
    type Output = FlopRate;
    fn mul(self, rhs: f64) -> FlopRate {
        FlopRate(self.0 * rhs)
    }
}

impl fmt::Display for FlopRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} TFLOPS", self.0 / 1e12)
    }
}

/// A clock frequency.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Hertz(f64);

impl Hertz {
    /// Creates a frequency from hertz.
    pub const fn new(hz: f64) -> Self {
        Hertz(hz)
    }

    /// Creates a frequency from megahertz.
    pub const fn from_mhz(mhz: f64) -> Self {
        Hertz(mhz * 1e6)
    }

    /// Creates a frequency from gigahertz.
    pub const fn from_ghz(ghz: f64) -> Self {
        Hertz(ghz * 1e9)
    }

    /// Frequency in hertz.
    pub fn as_hz(self) -> f64 {
        self.0
    }

    /// Frequency in gigahertz.
    pub fn as_ghz(self) -> f64 {
        self.0 / 1e9
    }

    /// Time to execute `cycles` clock cycles.
    pub fn time_for_cycles(self, cycles: f64) -> SimTime {
        assert!(self.0 > 0.0, "zero frequency has no cycle time");
        SimTime::from_secs_f64(cycles / self.0)
    }

    /// Dimensionless ratio `self / other`.
    pub fn ratio(self, other: Hertz) -> f64 {
        assert!(other.0 > 0.0, "division by zero frequency");
        self.0 / other.0
    }
}

impl fmt::Display for Hertz {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} GHz", self.0 / 1e9)
    }
}

/// Electrical power in watts.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Watts(f64);

impl Watts {
    /// Zero power.
    pub const ZERO: Watts = Watts(0.0);

    /// Creates a power value.
    pub const fn new(w: f64) -> Self {
        Watts(w)
    }

    /// Power in watts.
    pub fn as_f64(self) -> f64 {
        self.0
    }

    /// Returns `self` scaled by a dimensionless factor (e.g. utilization).
    pub fn scale(self, factor: f64) -> Watts {
        Watts(self.0 * factor)
    }

    /// The larger of two powers.
    pub fn max(self, other: Watts) -> Watts {
        Watts(self.0.max(other.0))
    }
}

impl Add for Watts {
    type Output = Watts;
    fn add(self, rhs: Watts) -> Watts {
        Watts(self.0 + rhs.0)
    }
}

impl AddAssign for Watts {
    fn add_assign(&mut self, rhs: Watts) {
        self.0 += rhs.0;
    }
}

impl Sub for Watts {
    type Output = Watts;
    fn sub(self, rhs: Watts) -> Watts {
        Watts(self.0 - rhs.0)
    }
}

impl Mul<f64> for Watts {
    type Output = Watts;
    fn mul(self, rhs: f64) -> Watts {
        Watts(self.0 * rhs)
    }
}

impl Sum for Watts {
    fn sum<I: Iterator<Item = Watts>>(iter: I) -> Watts {
        iter.fold(Watts::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Watts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1000.0 {
            write!(f, "{:.2} kW", self.0 / 1000.0)
        } else {
            write!(f, "{:.1} W", self.0)
        }
    }
}

/// Abstract cost units for TCO accounting.
///
/// The paper reports only *relative* Perf/TCO, so costs here are arbitrary
/// units: the GPU baseline server is defined as cost 1000 in
/// [`crate::calib`], and everything else is expressed against it.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct CostUnits(f64);

impl CostUnits {
    /// Zero cost.
    pub const ZERO: CostUnits = CostUnits(0.0);

    /// Creates a cost value.
    pub const fn new(c: f64) -> Self {
        CostUnits(c)
    }

    /// Cost as a raw number.
    pub fn as_f64(self) -> f64 {
        self.0
    }

    /// Dimensionless ratio `self / other`.
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    pub fn ratio(self, other: CostUnits) -> f64 {
        assert!(other.0 != 0.0, "division by zero cost");
        self.0 / other.0
    }
}

impl Add for CostUnits {
    type Output = CostUnits;
    fn add(self, rhs: CostUnits) -> CostUnits {
        CostUnits(self.0 + rhs.0)
    }
}

impl AddAssign for CostUnits {
    fn add_assign(&mut self, rhs: CostUnits) {
        self.0 += rhs.0;
    }
}

impl Mul<f64> for CostUnits {
    type Output = CostUnits;
    fn mul(self, rhs: f64) -> CostUnits {
        CostUnits(self.0 * rhs)
    }
}

impl Div<f64> for CostUnits {
    type Output = CostUnits;
    fn div(self, rhs: f64) -> CostUnits {
        CostUnits(self.0 / rhs)
    }
}

impl Sum for CostUnits {
    fn sum<I: Iterator<Item = CostUnits>>(iter: I) -> CostUnits {
        iter.fold(CostUnits::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for CostUnits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} cu", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_constructors_and_accessors() {
        assert_eq!(Bytes::from_kib(1).as_u64(), 1024);
        assert_eq!(Bytes::from_mib(1).as_u64(), 1024 * 1024);
        assert_eq!(Bytes::from_gib(2).as_gib(), 2.0);
        assert_eq!(Bytes::ZERO.as_u64(), 0);
    }

    #[test]
    fn bytes_arithmetic() {
        let a = Bytes::from_kib(3);
        let b = Bytes::from_kib(1);
        assert_eq!(a + b, Bytes::from_kib(4));
        assert_eq!(a - b, Bytes::from_kib(2));
        assert_eq!(a * 2, Bytes::from_kib(6));
        assert_eq!(a / 3, Bytes::from_kib(1));
        assert_eq!(b.saturating_sub(a), Bytes::ZERO);
    }

    #[test]
    fn bytes_display_scales() {
        assert_eq!(Bytes::new(512).to_string(), "512 B");
        assert_eq!(Bytes::from_kib(2).to_string(), "2.00 KiB");
        assert_eq!(Bytes::from_mib(256).to_string(), "256.00 MiB");
        assert_eq!(Bytes::from_gib(64).to_string(), "64.00 GiB");
    }

    #[test]
    fn bandwidth_moves_bytes() {
        let bw = Bandwidth::from_gb_per_s(100.0);
        let t = bw.time_to_move(Bytes::new(1_000_000_000));
        assert_eq!(t, SimTime::from_millis(10));
    }

    #[test]
    #[should_panic(expected = "zero bandwidth")]
    fn zero_bandwidth_panics() {
        let _ = Bandwidth::ZERO.time_to_move(Bytes::new(1));
    }

    #[test]
    fn simtime_conversions_roundtrip() {
        let t = SimTime::from_micros(123);
        assert_eq!(t.as_micros_f64(), 123.0);
        assert_eq!(SimTime::from_secs_f64(t.as_secs_f64()), t);
        assert_eq!(SimTime::from_millis(1).as_picos(), 1_000_000_000);
    }

    #[test]
    fn simtime_display_scales() {
        assert_eq!(SimTime::from_picos(500).to_string(), "500 ps");
        assert_eq!(SimTime::from_nanos(5).to_string(), "5.000 ns");
        assert_eq!(SimTime::from_micros(5).to_string(), "5.000 µs");
        assert_eq!(SimTime::from_millis(5).to_string(), "5.000 ms");
        assert_eq!(SimTime::from_secs(5).to_string(), "5.000 s");
        assert_eq!(SimTime::from_secs(1800).to_string(), "30.0 min");
        assert_eq!(SimTime::from_secs(3 * 3600).to_string(), "3.0 h");
        assert_eq!(SimTime::from_secs(18 * 86_400).to_string(), "18.0 days");
    }

    #[test]
    fn floprate_computes_time() {
        // 177 TFLOPS executing 177 GFLOP takes 1 ms.
        let rate = FlopRate::from_tflops(177.0);
        let t = rate.time_to_compute(FlopCount::new(177e9));
        assert_eq!(t, SimTime::from_millis(1));
    }

    #[test]
    fn hertz_cycle_time() {
        let f = Hertz::from_ghz(1.0);
        assert_eq!(f.time_for_cycles(1.0), SimTime::from_nanos(1));
        assert_eq!(Hertz::from_ghz(1.35).ratio(Hertz::from_ghz(1.35)), 1.0);
        // One 1.35 GHz cycle rounds to 741 ps.
        assert_eq!(Hertz::from_ghz(1.35).time_for_cycles(1.0).as_picos(), 741);
    }

    #[test]
    fn cost_ratio() {
        let gpu = CostUnits::new(1000.0);
        let mtia = CostUnits::new(250.0);
        assert_eq!(mtia.ratio(gpu), 0.25);
    }

    #[test]
    fn sums_work() {
        let total: Bytes = [Bytes::new(1), Bytes::new(2), Bytes::new(3)]
            .into_iter()
            .sum();
        assert_eq!(total, Bytes::new(6));
        let t: SimTime = [SimTime::from_nanos(1), SimTime::from_nanos(2)]
            .into_iter()
            .sum();
        assert_eq!(t, SimTime::from_nanos(3));
    }

    #[test]
    fn scale_rounds() {
        assert_eq!(Bytes::new(10).scale(0.55), Bytes::new(6));
        assert_eq!(SimTime::from_picos(10).scale(1.5), SimTime::from_picos(15));
    }

    /// `round_u64` must agree with `x.round() as u64` bit for bit.
    fn assert_rounds_like_std(x: f64) {
        assert_eq!(
            round_u64(x),
            x.round() as u64,
            "x = {x:e} (bits {:#018x})",
            x.to_bits()
        );
    }

    #[test]
    fn integer_rounding_matches_std_round() {
        const P52: f64 = 4_503_599_627_370_496.0;
        const P63: f64 = 9_223_372_036_854_775_808.0;
        let mut edges = vec![
            0.0,
            -0.0,
            0.5,
            1.5,
            2.5,
            1e12 + 0.5,
            0.499_999_999_999_999_94,
            P52 - 0.5,
            P52 - 1.5,
            P52,
            P52 + 1.0,
            2.0 * P52 + 2.0,
            P63,
            2.0 * P63,
            4.0 * P63,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            -0.5,
            -0.49,
            -1.5,
            -1e300,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::EPSILON,
        ];
        // The neighbours of every edge (ties, the subnormal floor, 2^52,
        // 2^63 and 2^64) sit on either side of a branch or a rounding step.
        for x in edges.clone() {
            edges.push(f64::from_bits(x.to_bits().wrapping_add(1)));
            edges.push(f64::from_bits(x.to_bits().wrapping_sub(1)));
        }
        for x in edges {
            assert_rounds_like_std(x);
        }
        // Exact ties k + 0.5 and their neighbours across every binade
        // that still has a half.
        for e in 0..52 {
            let x = (1u64 << e) as f64 + 0.5;
            for bits in [x.to_bits() - 1, x.to_bits(), x.to_bits() + 1] {
                assert_rounds_like_std(f64::from_bits(bits));
            }
        }
        // Random non-negative bit patterns (every exponent, so subnormals,
        // fractions, huge values, infinity and NaN payloads), from a fixed
        // splitmix64 stream.
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        for _ in 0..1_000_000 {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            assert_rounds_like_std(f64::from_bits(z >> 1));
            // And a 53-bit integer shifted down into a random binade, so
            // most samples carry a fraction in the range the fast path
            // serves.
            assert_rounds_like_std((z >> 11) as f64 / (1u64 << (z % 53)) as f64);
        }
    }
}
