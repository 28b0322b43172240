//! Order statistics for the benchmark's timings.

use std::time::Duration;

/// Median of `xs` (mean of the middle pair for an even count); 0 for
/// an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median of durations, in seconds.
pub fn median_s(ds: &[Duration]) -> f64 {
    median(&ds.iter().map(Duration::as_secs_f64).collect::<Vec<_>>())
}

/// The tail percentile the benchmark reports for `n` samples: p99.9,
/// or, when fewer than ten samples lie beyond p99.9, the highest
/// quantile that still has at least ten samples beyond it. Below 20
/// samples not even the median has ten beyond it; the tail is then the
/// median, so it never reads below p50.
pub fn tail_quantile(n: u64) -> f64 {
    if n < 20 {
        return 0.5;
    }
    ((n - 10) as f64 / n as f64).min(0.999)
}

/// Sub-buckets per power of two (as a bit count): 16 sub-buckets bound
/// the relative error of a reported value to about 3 %.
const SUB_BITS: u32 = 4;
const SUB: u64 = 1 << SUB_BITS;
/// Values below this are counted exactly, one bucket each.
const LINEAR: u64 = 2 * SUB;

/// A log-linear histogram of nanosecond latencies: exact below 32 ns,
/// then 16 buckets per power of two.
#[derive(Debug, Clone, Default)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    n: u64,
}

fn bucket(v: u64) -> usize {
    if v < LINEAR {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let m = (v >> (e - SUB_BITS)) & (SUB - 1);
    (LINEAR + u64::from(e - SUB_BITS - 1) * SUB + m) as usize
}

/// Midpoint of bucket `i`, the value reported for samples in it.
fn representative(i: usize) -> u64 {
    let i = i as u64;
    if i < LINEAR {
        return i;
    }
    let e = (i - LINEAR) / SUB + u64::from(SUB_BITS) + 1;
    let m = (i - LINEAR) % SUB;
    let width = 1u64 << (e - u64::from(SUB_BITS));
    ((SUB + m) << (e - u64::from(SUB_BITS))) + width / 2
}

impl LatencyHistogram {
    /// Records one latency.
    pub fn record(&mut self, d: Duration) {
        self.record_ns(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Records one latency given in nanoseconds.
    pub fn record_ns(&mut self, ns: u64) {
        let b = bucket(ns);
        if self.counts.len() <= b {
            self.counts.resize(b + 1, 0);
        }
        self.counts[b] += 1;
        self.n += 1;
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// The `q`-quantile in nanoseconds (the sample of rank ⌈q·n⌉, as
    /// its bucket's midpoint); 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        // The epsilon keeps float error in q·n from rounding an exact
        // rank (such as n - 10 for the tail) up to the next sample.
        let rank = ((q * self.n as f64 - 1e-9).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return representative(i) as f64;
            }
        }
        0.0
    }

    /// `(bucket midpoint ns, count)` for every non-empty bucket.
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (representative(i), c))
            .collect()
    }
}
