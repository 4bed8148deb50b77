//! Simulation time and durations.
//!
//! All latencies in the paper (computational latency, synchronization
//! latency, synchronization cycles) are expressed in abstract *time units*
//! (the worked example in the paper uses minutes). [`SimTime`] is a point on
//! the simulation time line and [`SimDuration`] is a signed span between two
//! points; both wrap an `f64` that is validated on construction and by
//! every operator so that `NaN` can never enter the event queue ordering.
//! Infinities are allowed, so horizons like [`SimTime::MAX`] stay
//! representable.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point on the simulation time line, in abstract time units.
///
/// `SimTime` is totally ordered (construction rejects `NaN`), cheap to copy
/// and starts at [`SimTime::ZERO`].
///
/// # Examples
///
/// ```
/// use ivdss_simkernel::time::{SimTime, SimDuration};
///
/// let start = SimTime::new(11.0);
/// let finish = start + SimDuration::new(10.0);
/// assert_eq!(finish, SimTime::new(21.0));
/// assert_eq!(finish - start, SimDuration::new(10.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimTime(f64);

/// A span between two [`SimTime`] points, in abstract time units.
///
/// Durations may be negative (e.g. the signed distance between two
/// timestamps); use [`SimDuration::max`]`(SimDuration::ZERO)` or
/// [`SimDuration::clamp_non_negative`] where a physical latency is required.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimDuration(f64);

impl SimTime {
    /// The origin of the simulation time line.
    pub const ZERO: SimTime = SimTime(0.0);

    /// A time later than every other time; useful as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(f64::MAX);

    /// Creates a time point from a raw value.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN (infinite values are allowed so that
    /// [`SimTime::MAX`]-style horizons remain representable).
    #[must_use]
    pub fn new(value: f64) -> Self {
        assert!(!value.is_nan(), "SimTime must not be NaN");
        SimTime(value)
    }

    /// Returns the raw value in time units.
    #[must_use]
    pub fn value(self) -> f64 {
        self.0
    }

    /// Returns the signed duration `self - earlier`.
    ///
    /// # Panics
    ///
    /// Panics if the difference is NaN (both points the same infinity).
    #[must_use]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration::new(self.0 - earlier.0)
    }

    /// Returns the later of two time points.
    #[must_use]
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the earlier of two time points.
    #[must_use]
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0.0);

    /// Creates a duration from a raw value.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN.
    #[must_use]
    pub fn new(value: f64) -> Self {
        assert!(!value.is_nan(), "SimDuration must not be NaN");
        SimDuration(value)
    }

    /// Returns the raw value in time units.
    #[must_use]
    pub fn value(self) -> f64 {
        self.0
    }

    /// Returns `true` if the duration is negative.
    #[must_use]
    pub fn is_negative(self) -> bool {
        self.0 < 0.0
    }

    /// Returns the duration, replacing negative values with zero.
    ///
    /// Physical latencies (queuing, processing, staleness) are never
    /// negative; this is the canonical way to derive one from a signed
    /// timestamp difference.
    #[must_use]
    pub fn clamp_non_negative(self) -> SimDuration {
        if self.0 < 0.0 {
            SimDuration::ZERO
        } else {
            self
        }
    }

    /// Returns the larger of two durations.
    #[must_use]
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two durations.
    #[must_use]
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}", self.0)
    }
}

impl From<f64> for SimTime {
    fn from(value: f64) -> Self {
        SimTime::new(value)
    }
}

impl From<f64> for SimDuration {
    fn from(value: f64) -> Self {
        SimDuration::new(value)
    }
}

impl Eq for SimTime {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Construction forbids NaN, so partial_cmp is total.
        self.partial_cmp(other).expect("SimTime is never NaN")
    }
}

impl Eq for SimDuration {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for SimDuration {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.partial_cmp(other).expect("SimDuration is never NaN")
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime::new(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;

    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime::new(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;

    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration::new(self.0 + rhs.0)
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
        SimDuration::new(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;

    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration::new(self.0 * rhs)
    }
}

impl Div<f64> for SimDuration {
    type Output = SimDuration;

    fn div(self, rhs: f64) -> SimDuration {
        SimDuration::new(self.0 / rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrips() {
        let t = SimTime::new(5.0);
        let d = SimDuration::new(2.5);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
        assert_eq!(t.since(SimTime::ZERO).value(), 5.0);
    }

    #[test]
    fn ordering_is_total() {
        let mut times = [SimTime::new(3.0), SimTime::ZERO, SimTime::new(-1.0)];
        times.sort();
        assert_eq!(times[0], SimTime::new(-1.0));
        assert_eq!(times[2], SimTime::new(3.0));
    }

    #[test]
    fn min_max() {
        let a = SimTime::new(1.0);
        let b = SimTime::new(2.0);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let x = SimDuration::new(-1.0);
        let y = SimDuration::new(4.0);
        assert_eq!(x.max(y), y);
        assert_eq!(x.min(y), x);
    }

    #[test]
    fn clamp_non_negative_clamps() {
        assert_eq!(
            SimDuration::new(-3.0).clamp_non_negative(),
            SimDuration::ZERO
        );
        assert_eq!(
            SimDuration::new(3.0).clamp_non_negative(),
            SimDuration::new(3.0)
        );
        assert!(SimDuration::new(-0.5).is_negative());
        assert!(!SimDuration::ZERO.is_negative());
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_time_rejected() {
        let _ = SimTime::new(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_duration_rejected() {
        let _ = SimDuration::new(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "SimDuration must not be NaN")]
    fn infinite_minus_infinite_time_rejected() {
        let inf = SimTime::new(f64::INFINITY);
        let _ = inf - inf;
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::new(3.0);
        assert_eq!(d * 2.0, SimDuration::new(6.0));
        assert_eq!(d / 2.0, SimDuration::new(1.5));
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::new(1.5).to_string(), "t=1.500");
        assert_eq!(SimDuration::new(1.5).to_string(), "1.500");
    }

    #[test]
    fn conversions_from_f64() {
        assert_eq!(SimTime::from(2.0), SimTime::new(2.0));
        assert_eq!(SimDuration::from(2.0), SimDuration::new(2.0));
    }
}
