//! The percentile rule and the latency histogram behind the reported
//! call latencies.

use fiveg_benchmark::stats::{median, tail_quantile, LatencyHistogram};

#[test]
fn tail_is_p999_when_ten_samples_lie_beyond_it() {
    assert_eq!(tail_quantile(10_000), 0.999);
    assert_eq!(tail_quantile(3_000_000), 0.999);
}

#[test]
fn tail_backs_off_until_ten_samples_lie_beyond_it() {
    assert!((tail_quantile(1_000) - 0.99).abs() < 1e-12);
    assert!((tail_quantile(20) - 0.5).abs() < 1e-12);
    for n in 0..20 {
        assert_eq!(
            tail_quantile(n),
            0.5,
            "n={n}: too few samples, the tail is the median"
        );
    }
    for n in 20..20_000u64 {
        let q = tail_quantile(n);
        let rank = (q * n as f64 - 1e-9).ceil() as u64;
        let beyond = n - rank;
        assert!(beyond >= 10, "n={n}: only {beyond} samples beyond");
        assert!(
            beyond == 10 || q == 0.999,
            "n={n}: q={q} is not the highest"
        );
    }
}

#[test]
fn reported_tail_has_ten_samples_above_it() {
    // 25 samples of 1..=25 ns (all exact buckets): the tail is the
    // 15th smallest, with 10 above it.
    let mut h = LatencyHistogram::default();
    for v in 1..=25 {
        h.record_ns(v);
    }
    assert_eq!(h.quantile(tail_quantile(h.count())), 15.0);
    // Nine samples: the tail falls back to the median.
    let mut h = LatencyHistogram::default();
    for v in 1..=9 {
        h.record_ns(v);
    }
    assert_eq!(h.quantile(tail_quantile(h.count())), 5.0);
}

#[test]
fn histogram_quantiles_are_exact_below_32ns() {
    let mut h = LatencyHistogram::default();
    for v in 0..32 {
        h.record_ns(v);
    }
    assert_eq!(h.count(), 32);
    for k in 1..=32u64 {
        assert_eq!(h.quantile(k as f64 / 32.0), (k - 1) as f64);
    }
}

#[test]
fn histogram_quantiles_are_within_3_percent() {
    let mut h = LatencyHistogram::default();
    for v in 1..=200_000u64 {
        h.record_ns(v);
    }
    for (q, want) in [(0.5, 100_000.0), (0.9, 180_000.0), (0.999, 199_800.0)] {
        let got = h.quantile(q);
        assert!((got - want).abs() / want < 0.032, "q={q}: {got} vs {want}");
    }
    let mut merged = LatencyHistogram::default();
    merged.merge(&h);
    merged.merge(&h);
    assert_eq!(merged.count(), 2 * h.count());
    assert_eq!(merged.quantile(0.5), h.quantile(0.5));
}

#[test]
fn empty_inputs_read_zero() {
    assert_eq!(LatencyHistogram::default().quantile(0.5), 0.0);
    assert_eq!(median(&[]), 0.0);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
}
