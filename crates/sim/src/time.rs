//! Simulation time base.
//!
//! All simulated clocks in the workspace share a single time base: an
//! unsigned 64-bit count of **picoseconds** since simulation start. At
//! picosecond resolution a `u64` covers ~213 days of simulated time, far
//! beyond any experiment in this repository (the largest runs are a few
//! simulated seconds).
//!
//! Picoseconds were chosen over nanoseconds so that the two clock domains
//! of the paper's testbed divide evenly:
//!
//! * the host's `CLOCK_MONOTONIC` with 1 ns resolution, and
//! * the FPGA fabric clock at 125 MHz (8 ns per cycle), which drives the
//!   hardware performance counters.
//!
//! PCIe symbol times at Gen2 (5 GT/s → 200 ps/bit) are also exact in this
//! base, so link serialization delays accumulate without rounding drift.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant or duration on the global simulation clock, in picoseconds.
///
/// `Time` is used for both absolute instants and durations; the arithmetic
/// provided is the subset that is meaningful for either use. Subtraction is
/// checked in debug builds (simulated time never runs backwards).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

/// One FPGA fabric-clock cycle at 125 MHz, the clock used by the paper's
/// designs and their performance counters.
pub const FPGA_CYCLE: Time = Time::from_ns(8);

impl Time {
    /// The zero instant (simulation start) / the empty duration.
    pub const ZERO: Time = Time(0);
    /// The maximum representable time; used as an "infinitely far" deadline.
    pub const MAX: Time = Time(u64::MAX);

    /// Construct from picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        Time(ps)
    }

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        Time(ns * 1_000)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        Time(us * 1_000_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        Time(ms * 1_000_000_000)
    }

    /// Construct from seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Time(s * 1_000_000_000_000)
    }

    /// Construct from a (non-negative, finite) floating-point nanosecond
    /// count, rounding to the nearest picosecond. Used when converting
    /// sampled cost-model values into simulation time.
    #[inline]
    pub fn from_ns_f64(ns: f64) -> Self {
        debug_assert!(ns.is_finite() && ns >= 0.0, "invalid duration: {ns} ns");
        Time(round_u64(ns * 1_000.0))
    }

    /// Raw picosecond count.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Whole nanoseconds (truncating), the host clock's view of this time.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0 / 1_000
    }

    /// Nanoseconds as a float, for statistics.
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Microseconds as a float, the unit the paper reports in.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Saturating subtraction, for durations that may be measured across
    /// clock-domain quantization and could otherwise underflow by one tick.
    #[inline]
    pub fn saturating_sub(self, rhs: Time) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition.
    #[inline]
    pub fn checked_add(self, rhs: Time) -> Option<Time> {
        self.0.checked_add(rhs.0).map(Time)
    }

    /// Quantize *down* to a multiple of `tick` — how a free-running hardware
    /// counter clocked at `tick` observes this instant. The paper's FPGA
    /// counters tick at [`FPGA_CYCLE`] (8 ns).
    #[inline]
    pub fn quantize(self, tick: Time) -> Time {
        debug_assert!(tick.0 > 0);
        Time(self.0 / tick.0 * tick.0)
    }

    /// Number of whole `tick` periods contained in this duration.
    #[inline]
    pub fn ticks(self, tick: Time) -> u64 {
        debug_assert!(tick.0 > 0);
        self.0 / tick.0
    }

    /// Scale a duration by a float factor (rounds to nearest picosecond).
    #[inline]
    pub fn scale(self, factor: f64) -> Time {
        debug_assert!(factor.is_finite() && factor >= 0.0);
        // Up to 2^53 picoseconds the float round trip is exact, so a
        // unit factor returns `self` unchanged.
        if factor == 1.0 && self.0 <= 1 << 53 {
            return self;
        }
        Time(round_u64(self.0 as f64 * factor))
    }
}

/// `x.round() as u64` (half away from zero, saturating; NaN and
/// negatives give 0) without the out-of-line `round` call that x86-64
/// without SSE4.1 makes. Exact for every `f64`: below 2^53 the
/// truncation `t` and `x - t` are exact, and from 2^52 on `x` is an
/// integer, so the fraction is 0 (or the sum saturates at `u64::MAX`).
#[inline]
fn round_u64(x: f64) -> u64 {
    let t = x as u64;
    t.saturating_add((x - t as f64 >= 0.5) as u64)
}

impl Add for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Time) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Time) {
        self.0 += rhs.0;
    }
}

impl Sub for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Time) -> Time {
        debug_assert!(self.0 >= rhs.0, "time underflow: {} - {}", self, rhs);
        Time(self.0 - rhs.0)
    }
}

impl SubAssign for Time {
    #[inline]
    fn sub_assign(&mut self, rhs: Time) {
        debug_assert!(self.0 >= rhs.0);
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Time {
    type Output = Time;
    #[inline]
    fn mul(self, rhs: u64) -> Time {
        Time(self.0 * rhs)
    }
}

impl Div<u64> for Time {
    type Output = Time;
    #[inline]
    fn div(self, rhs: u64) -> Time {
        Time(self.0 / rhs)
    }
}

impl Sum for Time {
    fn sum<I: Iterator<Item = Time>>(iter: I) -> Time {
        iter.fold(Time::ZERO, Add::add)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Time {
    /// Human-scaled display: picks ns/µs/ms/s so logs stay readable.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps == 0 {
            write!(f, "0")
        } else if ps < 1_000 {
            write!(f, "{ps}ps")
        } else if ps < 1_000_000 {
            write!(f, "{:.3}ns", ps as f64 / 1e3)
        } else if ps < 1_000_000_000 {
            write!(f, "{:.3}us", ps as f64 / 1e6)
        } else if ps < 1_000_000_000_000 {
            write!(f, "{:.3}ms", ps as f64 / 1e9)
        } else {
            write!(f, "{:.3}s", ps as f64 / 1e12)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Time::from_ns(1), Time::from_ps(1_000));
        assert_eq!(Time::from_us(1), Time::from_ns(1_000));
        assert_eq!(Time::from_ms(1), Time::from_us(1_000));
        assert_eq!(Time::from_secs(1), Time::from_ms(1_000));
    }

    #[test]
    fn float_round_trip() {
        let t = Time::from_ns_f64(1234.5678);
        assert_eq!(t.as_ps(), 1_234_568);
        assert!((t.as_ns_f64() - 1234.568).abs() < 1e-9);
    }

    /// `round_u64` against both library forms it replaces.
    fn check_round(x: f64) {
        assert_eq!(round_u64(x), x.round() as u64, "{x:e} ({:#x})", x.to_bits());
        assert_eq!(round_u64(x), x.round().max(0.0) as u64, "{x:e}");
    }

    #[test]
    fn round_u64_edge_cases() {
        let two52 = (1u64 << 52) as f64;
        for x in [
            0.0,
            -0.0,
            0.5,
            1.5,
            2.5,
            -0.5,
            -1.5,
            0.499_999_999_999_999_94,
            1234.5,
            1e-300,
            -3.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN_POSITIVE,
            two52 - 0.5,
            two52,
            two52 + 1.0,
            2.0 * two52 + 2.0,
            u64::MAX as f64,
            18_446_744_073_709_549_568.0, // largest f64 below 2^64
        ] {
            check_round(x);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(20_000))]

        /// Any bit pattern: NaNs, infinities, subnormals, huge values.
        #[test]
        fn round_u64_any_bits(bits in proptest::prelude::any::<u64>()) {
            check_round(f64::from_bits(bits));
        }

        /// Fractional values in the picosecond range the model uses,
        /// which random bit patterns rarely hit.
        #[test]
        fn round_u64_fractions(v in proptest::prelude::any::<u64>(), shift in 0u32..64) {
            check_round((v >> shift) as f64 / 1024.0);
        }
    }

    #[test]
    fn unit_scale_is_identity() {
        for ps in [0, 1, 999, 1 << 40, 1 << 53, (1 << 53) + 1, u64::MAX] {
            let t = Time::from_ps(ps);
            assert_eq!(t.scale(1.0), Time::from_ps((ps as f64).round() as u64));
        }
    }

    #[test]
    fn fpga_cycle_is_8ns() {
        assert_eq!(FPGA_CYCLE.as_ns(), 8);
        // 125 MHz: 125e6 cycles per second.
        assert_eq!(Time::from_secs(1).ticks(FPGA_CYCLE), 125_000_000);
    }

    #[test]
    fn quantize_rounds_down_to_tick() {
        let t = Time::from_ns(23);
        assert_eq!(t.quantize(FPGA_CYCLE), Time::from_ns(16));
        assert_eq!(Time::from_ns(24).quantize(FPGA_CYCLE), Time::from_ns(24));
        assert_eq!(Time::ZERO.quantize(FPGA_CYCLE), Time::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = Time::from_ns(10);
        let b = Time::from_ns(4);
        assert_eq!(a + b, Time::from_ns(14));
        assert_eq!(a - b, Time::from_ns(6));
        assert_eq!(a * 3, Time::from_ns(30));
        assert_eq!(a / 2, Time::from_ns(5));
        assert_eq!(b.saturating_sub(a), Time::ZERO);
        assert_eq!(a.scale(2.5), Time::from_ns(25));
    }

    #[test]
    fn display_scales() {
        assert_eq!(Time::from_ps(500).to_string(), "500ps");
        assert_eq!(Time::from_ns(500).to_string(), "500.000ns");
        assert_eq!(Time::from_us(3).to_string(), "3.000us");
        assert_eq!(Time::from_ms(7).to_string(), "7.000ms");
        assert_eq!(Time::from_secs(2).to_string(), "2.000s");
        assert_eq!(Time::ZERO.to_string(), "0");
    }

    #[test]
    fn sum_of_durations() {
        let total: Time = [Time::from_ns(1), Time::from_ns(2), Time::from_ns(3)]
            .into_iter()
            .sum();
        assert_eq!(total, Time::from_ns(6));
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn sub_underflow_panics_in_debug() {
        let _ = Time::from_ns(1) - Time::from_ns(2);
    }
}
