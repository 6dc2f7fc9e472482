//! Virtual time for the simulation.
//!
//! Instants ([`SimTime`]) and durations ([`Dur`]) are integer picosecond
//! counts. Picosecond resolution keeps cell-level ATM arithmetic exact enough
//! for determinism: a 53-byte cell on an OC-48 (2.4 Gb/s) link lasts
//! 176,666 ps, and a `u64` of picoseconds still covers ~213 days of virtual
//! time — far beyond any experiment in this repository.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A span of virtual time, in picoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dur(u64);

impl Dur {
    /// The zero-length duration.
    pub const ZERO: Dur = Dur(0);

    /// Creates a duration from picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Dur {
        Dur(ps)
    }

    /// Creates a duration from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Dur {
        Dur(ns * 1_000)
    }

    /// Creates a duration from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Dur {
        Dur(us * 1_000_000)
    }

    /// Creates a duration from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Dur {
        Dur(ms * 1_000_000_000)
    }

    /// Creates a duration from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Dur {
        Dur(s * 1_000_000_000_000)
    }

    /// The time it takes to serialize `bytes` bytes onto a link running at
    /// `bits_per_sec`, rounded up to the next picosecond so that modeled
    /// transmission never takes zero time. Zero-byte frames (pure-header
    /// artifacts of fragmentation edge cases) still cost 1 ps: a
    /// zero-duration wire event could reorder against its own enqueue.
    pub fn for_bytes(bytes: usize, bits_per_sec: u64) -> Dur {
        assert!(bits_per_sec > 0, "zero-rate link");
        let bits = bytes as u128 * 8;
        let ps = (bits * 1_000_000_000_000)
            .div_ceil(bits_per_sec as u128)
            .max(1);
        Dur(u64::try_from(ps).expect("duration overflow"))
    }

    /// Duration of `cycles` CPU cycles on a clock running at `hz`.
    pub fn for_cycles(cycles: u64, hz: u64) -> Dur {
        assert!(hz > 0, "zero clock rate");
        let ps = (cycles as u128 * 1_000_000_000_000).div_ceil(hz as u128);
        Dur(u64::try_from(ps).expect("duration overflow"))
    }

    /// This duration in picoseconds.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// This duration in (truncated) microseconds.
    #[inline]
    pub(crate) const fn as_micros(self) -> u64 {
        self.0 / 1_000_000
    }

    /// This duration in fractional seconds.
    #[inline]
    // ncs-lint: allow(float-time)
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12 // ncs-lint: allow(float-time)
    }

    /// Returns `true` if this is the zero duration.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies by a dimensionless integer factor.
    #[inline]
    pub const fn times(self, n: u64) -> Dur {
        Dur(self.0 * n)
    }
}

impl Add for Dur {
    type Output = Dur;
    #[inline]
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0.checked_add(rhs.0).expect("duration overflow"))
    }
}

impl AddAssign for Dur {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        *self = *self + rhs;
    }
}

impl Sub for Dur {
    type Output = Dur;
    #[inline]
    fn sub(self, rhs: Dur) -> Dur {
        Dur(self.0.checked_sub(rhs.0).expect("duration underflow"))
    }
}

impl SubAssign for Dur {
    #[inline]
    fn sub_assign(&mut self, rhs: Dur) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Dur {
    type Output = Dur;
    #[inline]
    fn mul(self, rhs: u64) -> Dur {
        Dur(self.0.checked_mul(rhs).expect("duration overflow"))
    }
}

impl Div<u64> for Dur {
    type Output = Dur;
    #[inline]
    fn div(self, rhs: u64) -> Dur {
        Dur(self.0 / rhs)
    }
}

impl Sum for Dur {
    fn sum<I: Iterator<Item = Dur>>(iter: I) -> Dur {
        iter.fold(Dur::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps == 0 {
            write!(f, "0s")
        } else if ps < 1_000 {
            write!(f, "{ps}ps")
        } else if ps < 1_000_000 {
            write!(f, "{:.3}ns", ps as f64 / 1e3) // ncs-lint: allow(float-time)
        } else if ps < 1_000_000_000 {
            write!(f, "{:.3}us", ps as f64 / 1e6) // ncs-lint: allow(float-time)
        } else if ps < 1_000_000_000_000 {
            write!(f, "{:.3}ms", ps as f64 / 1e9) // ncs-lint: allow(float-time)
        } else {
            write!(f, "{:.6}s", ps as f64 / 1e12) // ncs-lint: allow(float-time)
        }
    }
}

/// An instant of virtual time (picoseconds since simulation start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch, t = 0.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant `ps` picoseconds after the epoch.
    #[inline]
    pub const fn from_ps(ps: u64) -> SimTime {
        SimTime(ps)
    }

    /// Picoseconds since the epoch.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch, as a float (for reporting only).
    #[inline]
    // ncs-lint: allow(float-time)
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12 // ncs-lint: allow(float-time)
    }

    /// Duration elapsed since `earlier`. Panics if `earlier` is later.
    #[inline]
    pub fn since(self, earlier: SimTime) -> Dur {
        Dur(self.0.checked_sub(earlier.0).expect("time went backwards"))
    }

    /// Saturating version of [`SimTime::since`].
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }
}

impl Add<Dur> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: Dur) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("time overflow"))
    }
}

impl AddAssign<Dur> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        *self = *self + rhs;
    }
}

impl Sub<Dur> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: Dur) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("time underflow"))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", Dur(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", Dur(self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_constructors_agree() {
        assert_eq!(Dur::from_nanos(1), Dur::from_ps(1_000));
        assert_eq!(Dur::from_micros(1), Dur::from_nanos(1_000));
        assert_eq!(Dur::from_millis(1), Dur::from_micros(1_000));
        assert_eq!(Dur::from_secs(1), Dur::from_millis(1_000));
    }

    #[test]
    fn for_bytes_matches_hand_math() {
        // 53-byte ATM cell at 2.4 Gb/s: 53*8 / 2.4e9 s = 176.666..ns
        let d = Dur::for_bytes(53, 2_400_000_000);
        assert_eq!(d.as_ps(), 176_667); // rounded up
                                        // 1 KB at 1 Gb/s = 8.192 us? no: 1024*8/1e9 = 8.192us
        let d = Dur::for_bytes(1024, 1_000_000_000);
        assert_eq!(d.as_ps(), 8_192_000_000 / 1000);
    }

    #[test]
    fn for_bytes_never_zero() {
        assert!(Dur::for_bytes(1, u64::MAX).as_ps() > 0);
    }

    #[test]
    fn for_bytes_zero_length_still_costs_a_picosecond() {
        // The boundary the old `div_ceil` missed: 0 bits ceil-divides to 0.
        assert_eq!(Dur::for_bytes(0, 1).as_ps(), 1);
        assert_eq!(Dur::for_bytes(0, 155_520_000).as_ps(), 1);
        assert_eq!(Dur::for_bytes(0, u64::MAX).as_ps(), 1);
    }

    #[test]
    fn for_bytes_rounding_boundaries() {
        // Exact division is untouched by the ≥1 ps clamp: 1 byte at 8 Gb/s
        // is exactly 1000 ps.
        assert_eq!(Dur::for_bytes(1, 8_000_000_000).as_ps(), 1_000);
        // One bit over exact: must round up, not down.
        assert_eq!(Dur::for_bytes(1, 8_000_000_001).as_ps(), 1_000);
        assert_eq!(Dur::for_bytes(1, u64::MAX).as_ps(), 1);
    }

    #[test]
    fn for_cycles_matches() {
        // 40 MHz clock: 1 cycle = 25 ns
        assert_eq!(Dur::for_cycles(1, 40_000_000), Dur::from_nanos(25));
        assert_eq!(Dur::for_cycles(1_000_000, 40_000_000), Dur::from_millis(25));
    }

    #[test]
    fn instant_arithmetic() {
        let t0 = SimTime::ZERO;
        let t1 = t0 + Dur::from_micros(5);
        assert_eq!(t1.since(t0), Dur::from_micros(5));
        assert_eq!(t1.saturating_since(t1 + Dur::from_ps(1)), Dur::ZERO);
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn since_panics_on_backwards() {
        let t0 = SimTime::from_ps(10);
        let _ = SimTime::from_ps(5).since(t0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Dur::from_ps(7).to_string(), "7ps");
        assert_eq!(Dur::from_nanos(1).to_string(), "1.000ns");
        assert_eq!(Dur::from_micros(3).to_string(), "3.000us");
        assert_eq!(Dur::from_millis(12).to_string(), "12.000ms");
        assert_eq!(Dur::from_secs(2).to_string(), "2.000000s");
    }

    #[test]
    fn sum_and_scale() {
        let total: Dur = [Dur::from_nanos(1), Dur::from_nanos(2)].into_iter().sum();
        assert_eq!(total, Dur::from_nanos(3));
        assert_eq!(Dur::from_nanos(2) * 3, Dur::from_nanos(6));
        assert_eq!(Dur::from_nanos(6) / 2, Dur::from_nanos(3));
        assert_eq!(Dur::from_nanos(2).times(4), Dur::from_nanos(8));
    }
}
