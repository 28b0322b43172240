//! Time-series recorders.
//!
//! The measurement campaigns produce traces — throughput over time, power
//! over time, cwnd over time — which benches print as figure series.
//! [`TimeSeries`] is the common container: timestamped samples with
//! summary helpers.

use crate::time::SimTime;
use serde::Serialize;

/// A monotonic sequence of `(time, value)` samples.
#[derive(Debug, Clone, Default, Serialize)]
pub struct TimeSeries {
    times: Vec<SimTime>,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// Appends a sample. Samples must be pushed in non-decreasing time
    /// order; an out-of-order sample is silently dropped, in every build
    /// profile. (This used to panic in debug builds and drop in release
    /// builds — a recorder fed by event-driven callbacks must not turn a
    /// harmless late sample into a crash that depends on the profile.)
    /// Use [`TimeSeries::try_push`] to observe whether a sample landed.
    pub fn push(&mut self, t: SimTime, v: f64) {
        let _ = self.try_push(t, v);
    }

    /// Appends a sample; returns `false` (dropping the sample) when `t`
    /// is earlier than the last recorded time.
    pub fn try_push(&mut self, t: SimTime, v: f64) -> bool {
        if self.times.last().is_some_and(|&last| t < last) {
            return false;
        }
        self.times.push(t);
        self.values.push(v);
        true
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Iterator over `(time, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.times.iter().copied().zip(self.values.iter().copied())
    }

    /// The raw values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The raw timestamps.
    pub fn times(&self) -> &[SimTime] {
        &self.times
    }

    /// Mean of all values (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return f64::NAN;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Largest value (`NaN` when empty).
    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(f64::NAN, f64::max)
    }

    /// Last value, if any.
    pub fn last(&self) -> Option<(SimTime, f64)> {
        Some((*self.times.last()?, *self.values.last()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn push_and_iterate() {
        let mut ts = TimeSeries::new();
        ts.push(ms(0), 1.0);
        ts.push(ms(10), 2.0);
        ts.push(ms(20), 3.0);
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.mean(), 2.0);
        assert_eq!(ts.max(), 3.0);
        assert_eq!(ts.last(), Some((ms(20), 3.0)));
    }

    #[test]
    fn out_of_order_pushes_are_dropped_in_every_profile() {
        let mut ts = TimeSeries::new();
        assert!(ts.try_push(ms(10), 1.0));
        assert!(!ts.try_push(ms(5), 9.0), "late sample must be rejected");
        ts.push(ms(5), 9.0); // same behavior via the infallible API
        assert_eq!(ts.len(), 1);
        assert_eq!(ts.last(), Some((ms(10), 1.0)));
        // Equal timestamps are in order and accepted.
        assert!(ts.try_push(ms(10), 2.0));
        assert_eq!(ts.len(), 2);
    }

    #[test]
    fn empty_series() {
        let ts = TimeSeries::new();
        assert!(ts.mean().is_nan());
        assert!(ts.last().is_none());
    }
}
