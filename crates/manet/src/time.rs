//! Virtual time for the discrete-event simulator.
//!
//! Time is kept in integer **microseconds** so event ordering is exact and
//! runs are bit-reproducible; helpers convert to and from seconds for
//! configuration and reporting.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant of simulated time (µs since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time (µs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);

    /// Seconds since simulation start.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Instant at `secs` seconds.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs >= 0.0 && secs.is_finite(), "invalid time {secs}");
        SimTime((secs * 1e6).round() as u64)
    }

    /// Duration since `earlier`; saturates at zero.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Span of `secs` seconds.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs >= 0.0 && secs.is_finite(), "invalid duration {secs}");
        SimDuration((secs * 1e6).round() as u64)
    }

    /// Span of `ms` milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1000)
    }

    /// Span of `us` microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Whole microseconds in this span.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds in this span.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Scales the span by a non-negative factor.
    pub fn mul_f64(self, k: f64) -> Self {
        assert!(k >= 0.0 && k.is_finite());
        SimDuration((self.0 as f64 * k).round() as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, o: SimDuration) -> SimDuration {
        SimDuration(self.0 + o.0)
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, o: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(o.0))
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
    fn conversion_round_trip() {
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t.0, 1_500_000);
        assert_eq!(t.as_secs_f64(), 1.5);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs_f64(1.0) + SimDuration::from_millis(250);
        assert_eq!(t.as_secs_f64(), 1.25);
        assert_eq!(t.since(SimTime::from_secs_f64(0.5)).as_secs_f64(), 0.75);
        // Saturating difference.
        assert_eq!(SimTime::ZERO.since(t), SimDuration::ZERO);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_secs_f64(2.0).mul_f64(0.25);
        assert_eq!(d.as_secs_f64(), 0.5);
    }

    #[test]
    #[should_panic(expected = "invalid time")]
    fn negative_time_rejected() {
        SimTime::from_secs_f64(-1.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimTime::from_secs_f64(2.0)), "2.000000s");
    }
}
