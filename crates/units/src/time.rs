//! Simulation time axis.
//!
//! The paper simulates one year at 15-minute intervals. We model simulation
//! time as a minute-of-year offset in a non-leap year (365 days), which is
//! all the solar geometry needs: day-of-year drives declination, minute-of-day
//! drives the hour angle.

quantity!(
    /// A duration in minutes.
    ///
    /// ```
    /// use pv_units::Minutes;
    /// assert_eq!(Minutes::new(90.0).as_hours(), 1.5);
    /// ```
    Minutes,
    "min"
);

/// Minutes in a day.
pub const MINUTES_PER_DAY: u32 = 24 * 60;
/// Minutes in a (non-leap) simulation year.
pub const MINUTES_PER_YEAR: u32 = 365 * MINUTES_PER_DAY;

impl Minutes {
    /// Duration in hours.
    #[inline]
    #[must_use]
    pub fn as_hours(self) -> f64 {
        self.value() / 60.0
    }

    /// Duration in minutes as `f64`.
    #[inline]
    #[must_use]
    pub const fn as_minutes(self) -> f64 {
        self.value()
    }
}

/// One instant on the simulation time axis: a step index plus its
/// minute-of-year timestamp.
///
/// ```
/// use pv_units::SimulationClock;
/// let clock = SimulationClock::year_at_minutes(15);
/// let noon_jan1 = clock.step_at(48); // 48 * 15 min = 12:00 on day 0
/// assert_eq!(noon_jan1.day_of_year(), 0);
/// assert_eq!(noon_jan1.hour_of_day(), 12.0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TimeStep {
    index: u32,
    minute_of_year: u32,
}

impl TimeStep {
    /// Position of this step in the clock's step sequence.
    #[inline]
    #[must_use]
    pub const fn index(self) -> u32 {
        self.index
    }

    /// Minutes elapsed since 00:00 of January 1st.
    #[inline]
    #[must_use]
    pub const fn minute_of_year(self) -> u32 {
        self.minute_of_year
    }

    /// Day of the year, 0-based (0 = January 1st).
    #[inline]
    #[must_use]
    pub const fn day_of_year(self) -> u32 {
        self.minute_of_year / MINUTES_PER_DAY
    }

    /// Local solar hour of the day, fractional (12.0 = solar noon).
    #[inline]
    #[must_use]
    pub fn hour_of_day(self) -> f64 {
        f64::from(self.minute_of_year % MINUTES_PER_DAY) / 60.0
    }
}

/// A uniform sampling of the simulation year.
///
/// The default configuration matches the paper: 15-minute steps over a full
/// year (35,040 steps). Coarser steps (e.g. hourly) trade accuracy for speed
/// in tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimulationClock {
    step_minutes: u32,
    num_steps: u32,
}

impl SimulationClock {
    /// A full-year clock with the given step in minutes.
    ///
    /// # Panics
    ///
    /// Panics if `step_minutes` is zero or does not divide the day evenly.
    #[must_use]
    pub fn year_at_minutes(step_minutes: u32) -> Self {
        assert!(step_minutes > 0, "step must be positive");
        assert_eq!(
            MINUTES_PER_DAY % step_minutes,
            0,
            "step must divide the day evenly"
        );
        Self {
            step_minutes,
            num_steps: MINUTES_PER_YEAR / step_minutes,
        }
    }

    /// The paper's configuration: one year at 15-minute steps.
    #[must_use]
    pub fn paper() -> Self {
        Self::year_at_minutes(15)
    }

    /// A clock covering only the first `days` days of the year (for tests
    /// and fast experiments).
    ///
    /// # Panics
    ///
    /// Panics on a zero step, a step not dividing the day, or `days > 365`.
    #[must_use]
    pub fn days_at_minutes(days: u32, step_minutes: u32) -> Self {
        assert!(days <= 365, "at most one simulation year");
        let full = Self::year_at_minutes(step_minutes);
        Self {
            num_steps: days * (MINUTES_PER_DAY / step_minutes),
            ..full
        }
    }

    /// Step duration.
    #[inline]
    #[must_use]
    pub fn step(self) -> Minutes {
        Minutes::new(f64::from(self.step_minutes))
    }

    /// Number of steps in the simulated period (the paper's `NT`).
    #[inline]
    #[must_use]
    pub const fn num_steps(self) -> u32 {
        self.num_steps
    }

    /// The `i`-th time step.
    ///
    /// # Panics
    ///
    /// Panics if `index >= num_steps()`.
    #[inline]
    #[must_use]
    pub fn step_at(self, index: u32) -> TimeStep {
        assert!(index < self.num_steps, "step index out of range");
        TimeStep {
            index,
            minute_of_year: index * self.step_minutes,
        }
    }

    /// Iterates over all steps of the simulated period.
    pub fn steps(self) -> impl Iterator<Item = TimeStep> {
        (0..self.num_steps).map(move |i| self.step_at(i))
    }

    /// Total simulated duration.
    #[must_use]
    pub fn total_duration(self) -> Minutes {
        Minutes::new(f64::from(self.num_steps) * f64::from(self.step_minutes))
    }
}

impl Default for SimulationClock {
    /// Defaults to the paper's year-at-15-minutes configuration.
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_clock_has_35040_steps() {
        assert_eq!(SimulationClock::paper().num_steps(), 35_040);
    }

    #[test]
    fn steps_cover_year_without_gaps() {
        let clock = SimulationClock::year_at_minutes(60);
        let mut expected_minute = 0;
        for step in clock.steps() {
            assert_eq!(step.minute_of_year(), expected_minute);
            expected_minute += 60;
        }
        assert_eq!(expected_minute, MINUTES_PER_YEAR);
    }

    #[test]
    fn day_and_hour_decomposition() {
        let clock = SimulationClock::year_at_minutes(15);
        let s = clock.step_at(4 * 24 * 3 + 4 * 6); // day 3, 06:00
        assert_eq!(s.day_of_year(), 3);
        assert_eq!(s.hour_of_day(), 6.0);
    }

    #[test]
    fn truncated_clock() {
        let clock = SimulationClock::days_at_minutes(7, 30);
        assert_eq!(clock.num_steps(), 7 * 48);
        assert_eq!(clock.total_duration().as_hours(), 7.0 * 24.0);
    }

    #[test]
    #[should_panic(expected = "divide the day")]
    fn uneven_step_rejected() {
        let _ = SimulationClock::year_at_minutes(7);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_step_rejected() {
        let clock = SimulationClock::days_at_minutes(1, 60);
        let _ = clock.step_at(24);
    }
}
