//! Statistics for aggregating measurement campaigns.
//!
//! The paper reports means ± standard deviations, CDFs and bucketed
//! distributions; this module provides exactly those aggregations:
//! [`OnlineStats`] (Welford's numerically-stable running moments),
//! [`Cdf`] (empirical distribution with percentile queries) and
//! [`Histogram`] (fixed-edge bucket counts, e.g. the paper's Tab. 2 RSRP
//! buckets).

use serde::Serialize;

/// Running mean/variance/min/max using Welford's algorithm.
#[derive(Debug, Clone, Default, Serialize)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 for fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// Empirical cumulative distribution over a finite sample.
#[derive(Debug, Clone, Default, Serialize)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from samples (NaNs are dropped).
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        samples.retain(|x| !x.is_nan());
        samples.sort_by(f64::total_cmp);
        Cdf { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the CDF holds no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `P(X <= x)`; 0 for an empty CDF.
    #[cfg(test)]
    fn prob_le(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Quantile by linear interpolation; `q` is clamped to `[0, 1]`.
    /// Returns `NaN` for an empty CDF.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.sorted.is_empty() {
            return f64::NAN;
        }
        let q = q.clamp(0.0, 1.0);
        let pos = q * (self.sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        if lo == hi {
            self.sorted[lo]
        } else {
            let w = pos - lo as f64;
            self.sorted[lo] * (1.0 - w) + self.sorted[hi] * w
        }
    }

    /// Median, i.e. the 0.5 quantile.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Arithmetic mean of the samples (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            return f64::NAN;
        }
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// Renders the CDF as `n` evenly spaced `(value, probability)` points,
    /// the format benches print for figure series.
    #[cfg(test)]
    fn points(&self, n: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() || n == 0 {
            return Vec::new();
        }
        (0..n)
            .map(|i| {
                let q = i as f64 / (n - 1).max(1) as f64;
                (self.quantile(q), q)
            })
            .collect()
    }
}

/// Fixed-edge histogram. Buckets are `[edge[i], edge[i+1])`, with an
/// implicit underflow bucket below the first edge and overflow bucket at
/// or above the last.
#[derive(Debug, Clone, Serialize)]
pub struct Histogram {
    edges: Vec<f64>,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram with the given ascending bucket edges.
    ///
    /// # Panics
    /// Panics if fewer than two edges are supplied or they are not
    /// strictly ascending.
    pub fn new(edges: Vec<f64>) -> Self {
        assert!(edges.len() >= 2, "need at least two edges");
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "edges must be strictly ascending"
        );
        let n = edges.len() - 1;
        Histogram {
            edges,
            counts: vec![0; n],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        if x < self.edges[0] {
            self.underflow += 1;
            return;
        }
        let Some(&last) = self.edges.last() else {
            self.overflow += 1;
            return;
        };
        if x >= last {
            self.overflow += 1;
            return;
        }
        // partition_point returns the first edge > x; bucket is that - 1.
        let idx = self.edges.partition_point(|&e| e <= x) - 1;
        self.counts[idx] += 1;
    }

    /// Count in bucket `i`.
    pub fn count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// All in-range bucket counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Observations below the first edge.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the last edge.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations, including under/overflow.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// Fraction of all observations in bucket `i`.
    pub fn fraction(&self, i: usize) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.counts[i] as f64 / t as f64
        }
    }

    /// Bucket boundaries `(lo, hi)` for bucket `i`.
    #[cfg(test)]
    fn bucket_range(&self, i: usize) -> (f64, f64) {
        (self.edges[i], self.edges[i + 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn online_stats_basic() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_stats_are_sane() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn cdf_quantiles() {
        let c = Cdf::from_samples(vec![3.0, 1.0, 2.0, 4.0, 5.0]);
        assert_eq!(c.quantile(0.0), 1.0);
        assert_eq!(c.quantile(1.0), 5.0);
        assert_eq!(c.median(), 3.0);
        assert!((c.quantile(0.25) - 2.0).abs() < 1e-12);
        assert!((c.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_prob_le() {
        let c = Cdf::from_samples(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(c.prob_le(0.5), 0.0);
        assert_eq!(c.prob_le(2.0), 0.5);
        assert_eq!(c.prob_le(10.0), 1.0);
    }

    #[test]
    fn cdf_drops_nan_and_handles_empty() {
        let c = Cdf::from_samples(vec![f64::NAN, 1.0, f64::NAN]);
        assert_eq!(c.len(), 1);
        let e = Cdf::from_samples(vec![]);
        assert!(e.quantile(0.5).is_nan());
        assert_eq!(e.prob_le(1.0), 0.0);
        assert!(e.points(5).is_empty());
    }

    #[test]
    fn histogram_bucketing() {
        // Paper Tab. 2 RSRP bucket edges.
        let mut h = Histogram::new(vec![-140.0, -105.0, -90.0, -80.0, -70.0, -60.0, -40.0]);
        h.push(-110.0); // bucket 0
        h.push(-100.0); // bucket 1
        h.push(-85.0); // bucket 2
        h.push(-75.0); // bucket 3
        h.push(-65.0); // bucket 4
        h.push(-50.0); // bucket 5
        h.push(-150.0); // underflow
        h.push(-40.0); // overflow (>= last edge)
        assert_eq!(h.counts(), &[1, 1, 1, 1, 1, 1]);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.total(), 8);
        assert!((h.fraction(0) - 0.125).abs() < 1e-12);
        assert_eq!(h.bucket_range(0), (-140.0, -105.0));
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn histogram_rejects_bad_edges() {
        let _ = Histogram::new(vec![0.0, 0.0, 1.0]);
    }

    #[test]
    fn cdf_points_monotonic() {
        let c = Cdf::from_samples((0..100).map(|i| i as f64).collect());
        let pts = c.points(11);
        assert_eq!(pts.len(), 11);
        for w in pts.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
    }

    proptest! {
        /// prob_le is a valid, monotone CDF.
        #[test]
        fn cdf_prob_le_monotone(samples in prop::collection::vec(-1e3f64..1e3, 1..200)) {
            let c = Cdf::from_samples(samples);
            let mut prev = 0.0;
            for i in -10..=10 {
                let p = c.prob_le(i as f64 * 100.0);
                prop_assert!((0.0..=1.0).contains(&p));
                prop_assert!(p >= prev);
                prev = p;
            }
        }
    }
}
