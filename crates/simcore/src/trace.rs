//! Time-series recorders.
//!
//! The measurement campaigns produce traces — throughput over time, power
//! over time, cwnd over time — which benches print as figure series.
//! [`TimeSeries`] is the common container: timestamped samples with
//! resampling and windowed-aggregation helpers.

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

    /// Aggregates samples into fixed windows of `width`, producing one
    /// `(window_start, aggregate)` point per non-empty window. `agg`
    /// receives the samples that fell into the window.
    #[cfg(test)]
    fn windowed<F>(&self, width: crate::time::SimDuration, mut agg: F) -> Vec<(SimTime, f64)>
    where
        F: FnMut(&[f64]) -> f64,
    {
        assert!(!width.is_zero(), "window width must be positive");
        let mut out = Vec::new();
        if self.times.is_empty() {
            return out;
        }
        let w = width.as_nanos();
        let mut win_start = self.times[0].as_nanos() / w * w;
        let mut bucket: Vec<f64> = Vec::new();
        for (t, v) in self.iter() {
            let s = t.as_nanos() / w * w;
            if s != win_start {
                if !bucket.is_empty() {
                    out.push((SimTime::from_nanos(win_start), agg(&bucket)));
                    bucket.clear();
                }
                win_start = s;
            }
            bucket.push(v);
        }
        if !bucket.is_empty() {
            out.push((SimTime::from_nanos(win_start), agg(&bucket)));
        }
        out
    }

    /// Sums values per window — the natural aggregation for byte counts,
    /// returning `(window_start, sum)` pairs.
    #[cfg(test)]
    fn windowed_sum(&self, width: crate::time::SimDuration) -> Vec<(SimTime, f64)> {
        self.windowed(width, |xs| xs.iter().sum())
    }

    /// Means values per window — the natural aggregation for gauges.
    #[cfg(test)]
    fn windowed_mean(&self, width: crate::time::SimDuration) -> Vec<(SimTime, f64)> {
        self.windowed(width, |xs| xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

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
    fn windowed_sum_buckets_correctly() {
        let mut ts = TimeSeries::new();
        for i in 0..10 {
            ts.push(ms(i * 100), 1.0); // samples at 0,100,...,900 ms
        }
        let w = ts.windowed_sum(SimDuration::from_millis(500));
        assert_eq!(w.len(), 2);
        assert_eq!(w[0], (ms(0), 5.0));
        assert_eq!(w[1], (ms(500), 5.0));
    }

    #[test]
    fn windowed_mean() {
        let mut ts = TimeSeries::new();
        ts.push(ms(0), 2.0);
        ts.push(ms(1), 4.0);
        ts.push(ms(1000), 10.0);
        let w = ts.windowed_mean(SimDuration::from_secs(1));
        assert_eq!(w, vec![(ms(0), 3.0), (ms(1000), 10.0)]);
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
        assert!(ts.windowed_sum(SimDuration::from_secs(1)).is_empty());
        assert!(ts.last().is_none());
    }
}
