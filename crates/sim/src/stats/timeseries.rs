//! Time-indexed measurement recording.
//!
//! Two kinds of signals appear in the experiments:
//!
//! * **Point series** ([`TimeSeries`]) — discrete samples such as per-window
//!   throughput, recorded at their timestamps.
//! * **Step gauges** ([`StepGauge`]) — piecewise-constant values such as
//!   "active threads" or "number of VMs", where *time-weighted* averages are
//!   the meaningful aggregate (a CPU that is busy 80 % of a window should
//!   report 0.8 regardless of how many times the value changed).

use crate::time::SimTime;

/// A sequence of `(time, value)` samples in non-decreasing time order.
///
/// # Examples
///
/// ```
/// use dcm_sim::stats::TimeSeries;
/// use dcm_sim::time::SimTime;
///
/// let mut ts = TimeSeries::new();
/// ts.push(SimTime::from_secs(1), 10.0);
/// ts.push(SimTime::from_secs(2), 20.0);
/// assert_eq!(ts.len(), 2);
/// assert_eq!(ts.mean(), Some(15.0));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries { points: Vec::new() }
    }

    /// Appends a sample.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `at` precedes the last recorded timestamp.
    pub fn push(&mut self, at: SimTime, value: f64) {
        debug_assert!(
            self.points.last().is_none_or(|&(t, _)| t <= at),
            "time series must be appended in order"
        );
        self.points.push((at, value));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if the series has no samples.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Iterator over `(time, value)` samples.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.points.iter().copied()
    }

    /// Samples with `start <= t < end`.
    pub fn range(&self, start: SimTime, end: SimTime) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.points
            .iter()
            .copied()
            .skip_while(move |&(t, _)| t < start)
            .take_while(move |&(t, _)| t < end)
    }

    /// Unweighted mean of sample values; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.points.is_empty() {
            None
        } else {
            Some(self.points.iter().map(|&(_, v)| v).sum::<f64>() / self.points.len() as f64)
        }
    }

    /// Maximum sample value; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// The most recent sample, if any.
    pub fn last(&self) -> Option<(SimTime, f64)> {
        self.points.last().copied()
    }

    /// Borrow the raw samples.
    pub fn as_slice(&self) -> &[(SimTime, f64)] {
        &self.points
    }
}

impl FromIterator<(SimTime, f64)> for TimeSeries {
    fn from_iter<I: IntoIterator<Item = (SimTime, f64)>>(iter: I) -> Self {
        let mut ts = TimeSeries::new();
        for (t, v) in iter {
            ts.push(t, v);
        }
        ts
    }
}

/// A piecewise-constant signal supporting time-weighted integration.
///
/// # Examples
///
/// ```
/// use dcm_sim::stats::StepGauge;
/// use dcm_sim::time::SimTime;
///
/// let mut g = StepGauge::new(SimTime::ZERO, 0.0);
/// g.set(SimTime::from_secs(2), 10.0);
/// // 2 s at 0.0 then 2 s at 10.0 → time-weighted mean 5.0
/// let avg = g.time_weighted_mean(SimTime::ZERO, SimTime::from_secs(4));
/// assert_eq!(avg, 5.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StepGauge {
    // Change points: value holds from its timestamp until the next one.
    steps: Vec<(SimTime, f64)>,
}

impl StepGauge {
    /// Creates a gauge whose value is `initial` from time `start`.
    pub fn new(start: SimTime, initial: f64) -> Self {
        StepGauge {
            steps: vec![(start, initial)],
        }
    }

    /// Sets the value from time `at` onward.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `at` precedes the last change point.
    pub fn set(&mut self, at: SimTime, value: f64) {
        let last = self.steps.last().expect("gauge always has an initial step");
        debug_assert!(last.0 <= at, "gauge must be updated in time order");
        if last.0 == at {
            // Same-instant update replaces the value.
            let idx = self.steps.len() - 1;
            self.steps[idx].1 = value;
        } else if last.1 != value {
            self.steps.push((at, value));
        }
    }

    /// Adjusts the value by `delta` from time `at` onward (useful for
    /// counters such as active threads).
    pub fn add(&mut self, at: SimTime, delta: f64) {
        let current = self.value();
        self.set(at, current + delta);
    }

    /// The current (latest) value.
    pub fn value(&self) -> f64 {
        self.steps
            .last()
            .expect("gauge always has an initial step")
            .1
    }

    /// The value in effect at time `at` (the last change point at or before
    /// `at`; the initial value if `at` precedes all change points).
    pub fn value_at(&self, at: SimTime) -> f64 {
        match self.steps.binary_search_by(|&(t, _)| t.cmp(&at)) {
            Ok(i) => self.steps[i].1,
            Err(0) => self.steps[0].1,
            Err(i) => self.steps[i - 1].1,
        }
    }

    /// Integral of the signal over `[start, end)` divided by the interval
    /// length — the time-weighted mean. Returns the value at `start` when
    /// the interval is empty.
    pub fn time_weighted_mean(&self, start: SimTime, end: SimTime) -> f64 {
        if end <= start {
            return self.value_at(start);
        }
        let total = (end - start).as_secs_f64();
        let mut integral = 0.0;
        let mut cursor = start;
        let mut value = self.value_at(start);
        for &(t, v) in self.steps.iter().filter(|&&(t, _)| t > start && t < end) {
            integral += value * (t - cursor).as_secs_f64();
            cursor = t;
            value = v;
        }
        integral += value * (end - cursor).as_secs_f64();
        integral / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn series_mean_max_last() {
        let ts: TimeSeries = [(t(0.0), 1.0), (t(1.0), 3.0), (t(2.0), 2.0)]
            .into_iter()
            .collect();
        assert_eq!(ts.mean(), Some(2.0));
        assert_eq!(ts.max(), Some(3.0));
        assert_eq!(ts.last(), Some((t(2.0), 2.0)));
        assert_eq!(ts.range(t(0.5), t(2.0)).count(), 1);
    }

    #[test]
    fn empty_series_is_safe() {
        let ts = TimeSeries::new();
        assert!(ts.is_empty());
        assert_eq!(ts.mean(), None);
        assert_eq!(ts.max(), None);
    }

    #[test]
    fn gauge_time_weighted_mean() {
        let mut g = StepGauge::new(SimTime::ZERO, 1.0);
        g.set(t(1.0), 3.0);
        g.set(t(3.0), 0.0);
        // [0,4): 1*1 + 3*2 + 0*1 = 7 over 4 seconds
        assert!((g.time_weighted_mean(SimTime::ZERO, t(4.0)) - 1.75).abs() < 1e-12);
        // Sub-interval [2,4): 3*1 + 0*1 = 3 over 2
        assert!((g.time_weighted_mean(t(2.0), t(4.0)) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn gauge_value_at_lookup() {
        let mut g = StepGauge::new(t(1.0), 5.0);
        g.set(t(3.0), 7.0);
        assert_eq!(g.value_at(t(0.0)), 5.0);
        assert_eq!(g.value_at(t(1.0)), 5.0);
        assert_eq!(g.value_at(t(2.9)), 5.0);
        assert_eq!(g.value_at(t(3.0)), 7.0);
        assert_eq!(g.value_at(t(10.0)), 7.0);
        assert_eq!(g.value(), 7.0);
    }

    #[test]
    fn gauge_add_and_same_instant_set() {
        let mut g = StepGauge::new(SimTime::ZERO, 0.0);
        g.add(t(1.0), 2.0);
        g.add(t(1.0), 3.0); // same instant: replaces, cumulative value 5
        assert_eq!(g.value(), 5.0);
        g.add(t(2.0), -5.0);
        assert_eq!(g.value(), 0.0);
    }

    #[test]
    fn gauge_empty_interval_returns_instant_value() {
        let g = StepGauge::new(SimTime::ZERO, 9.0);
        assert_eq!(g.time_weighted_mean(t(1.0), t(1.0)), 9.0);
    }
}
