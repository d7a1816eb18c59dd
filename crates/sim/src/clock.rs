//! Time sources for the two hosting substrates.
//!
//! The discrete-event [`crate::World`] advances a virtual microsecond
//! counter; the real-clock runtime (`spire-rt`) reads a monotonic OS clock.
//! Both express "now" as a [`Time`] measured from substrate start, so actor
//! code and metrics are directly comparable across substrates.

use crate::time::Time;
use std::time::Instant;

/// A source of [`Time`] instants: virtual (driven by the event loop) or
/// monotonic (driven by the OS clock).
#[derive(Clone, Debug)]
pub enum Clock {
    /// Simulated time, advanced explicitly by the event loop.
    Virtual(Time),
    /// Wall-clock time, measured from `start` with a monotonic clock.
    Monotonic {
        /// The substrate's epoch; `now()` is the elapsed time since it.
        start: Instant,
    },
}

impl Clock {
    /// A virtual clock at the simulation epoch.
    pub fn virtual_at_zero() -> Clock {
        Clock::Virtual(Time::ZERO)
    }

    /// The current instant, measured from the clock's epoch.
    #[inline]
    pub fn now(&self) -> Time {
        match self {
            Clock::Virtual(t) => *t,
            Clock::Monotonic { start } => Time(start.elapsed().as_micros() as u64),
        }
    }

    /// Advances a virtual clock to `t` (no-op on a monotonic clock, which
    /// only the OS advances). Virtual time never moves backwards.
    #[inline]
    pub fn advance_to(&mut self, t: Time) {
        if let Clock::Virtual(now) = self {
            *now = (*now).max(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_advances_monotonically() {
        let mut c = Clock::virtual_at_zero();
        assert_eq!(c.now(), Time::ZERO);
        c.advance_to(Time(500));
        assert_eq!(c.now(), Time(500));
        c.advance_to(Time(100)); // never backwards
        assert_eq!(c.now(), Time(500));
    }

    #[test]
    fn monotonic_clock_moves_forward() {
        let mut c = Clock::Monotonic {
            start: Instant::now(),
        };
        let a = c.now();
        c.advance_to(Time(u64::MAX)); // no-op
        std::thread::sleep(std::time::Duration::from_millis(2));
        let b = c.now();
        assert!(b > a, "monotonic clock did not advance: {a} -> {b}");
    }
}
