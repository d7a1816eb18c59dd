//! Virtual time for the discrete-event simulator.
//!
//! Time is a monotone microsecond counter starting at zero. Microsecond
//! resolution comfortably covers everything Spire cares about (WAN latencies
//! are tens of milliseconds; crypto costs are modeled in microseconds).

use serde::{Deserialize, Serialize};

/// An instant in virtual time (microseconds since simulation start).
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default, Serialize, Deserialize,
)]
pub struct Time(pub u64);

/// A span of virtual time (microseconds).
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default, Serialize, Deserialize,
)]
pub struct Span(pub u64);

impl Time {
    /// The simulation epoch.
    pub const ZERO: Time = Time(0);

    /// Advances this instant by `span`.
    pub fn after(self, span: Span) -> Time {
        Time(self.0.saturating_add(span.0))
    }

    /// The span since an earlier instant (saturating at zero).
    pub fn since(self, earlier: Time) -> Span {
        Span(self.0.saturating_sub(earlier.0))
    }

    /// This instant expressed in seconds (lossy).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }
}

impl Span {
    /// Zero-length span.
    pub const ZERO: Span = Span(0);

    /// Builds a span from microseconds.
    pub const fn micros(us: u64) -> Span {
        Span(us)
    }

    /// Builds a span from milliseconds.
    pub const fn millis(ms: u64) -> Span {
        Span(ms * 1_000)
    }

    /// Builds a span from seconds.
    pub const fn secs(s: u64) -> Span {
        Span(s * 1_000_000)
    }

    /// The span in milliseconds (lossy).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The span in seconds (lossy).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Multiplies the span by an integer factor.
    pub fn times(self, factor: u64) -> Span {
        Span(self.0.saturating_mul(factor))
    }
}

impl std::ops::Add<Span> for Time {
    type Output = Time;
    fn add(self, rhs: Span) -> Time {
        self.after(rhs)
    }
}

impl std::ops::Add for Span {
    type Output = Span;
    fn add(self, rhs: Span) -> Span {
        Span(self.0.saturating_add(rhs.0))
    }
}

impl std::ops::Sub for Span {
    type Output = Span;
    fn sub(self, rhs: Span) -> Span {
        Span(self.0.saturating_sub(rhs.0))
    }
}

impl std::fmt::Display for Time {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl std::fmt::Display for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else {
            write!(f, "{:.3}ms", self.as_millis_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = Time::ZERO + Span::millis(5);
        assert_eq!(t, Time(5_000));
        assert_eq!(t.since(Time::ZERO), Span::millis(5));
        assert_eq!(Time::ZERO.since(t), Span::ZERO); // saturating
        assert_eq!(Span::secs(1) + Span::millis(500), Span(1_500_000));
        assert_eq!(Span::secs(2) - Span::secs(1), Span::secs(1));
        assert_eq!(Span::millis(3).times(4), Span::millis(12));
    }

    #[test]
    fn conversions() {
        assert!((Time(2_500_000).as_secs_f64() - 2.5).abs() < 1e-9);
        assert!((Span::millis(1500).as_secs_f64() - 1.5).abs() < 1e-9);
        assert!((Span::micros(1500).as_millis_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", Span::millis(250)), "250.000ms");
        assert_eq!(format!("{}", Span::secs(3)), "3.000s");
        assert_eq!(format!("{}", Time(1_500_000)), "1.500s");
    }
}
