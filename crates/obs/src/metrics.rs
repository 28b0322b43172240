//! The metrics registry: counters, max-gauges, fixed-bucket histograms
//! and span timers behind a cloneable [`MetricsHandle`].
//!
//! Everything is thread-safe (plain atomics behind `Arc`s); instruments
//! are resolved by `&'static str` name through a mutex-guarded map once
//! and then updated lock-free. Counter/gauge/histogram values are
//! **deterministic** — they count simulation work, which depends only on
//! the seed — while span timers measure host wall time and are advisory
//! (see `DESIGN.md §Observability`).

#![expect(
    clippy::disallowed_types,
    reason = "the registry is the sanctioned shared sink: u64 atomics whose adds and maxes commute, behind one name map"
)]

use crate::snapshot::{HistogramSnapshot, Snapshot, SpanSnapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A monotonic counter. Cloning shares the underlying cell.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A high-watermark gauge: `record` keeps the maximum ever seen.
#[derive(Debug, Clone, Default)]
pub struct MaxGauge(Arc<AtomicU64>);

impl MaxGauge {
    /// Raises the watermark to `v` if `v` exceeds it.
    pub fn record(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current watermark.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram over `u64` observations.
///
/// Buckets have *less-than-or-equal* upper edges; one implicit overflow
/// bucket catches everything above the last edge. Edges are fixed at
/// first registration — re-registering the same name with different
/// edges panics, because merged snapshots would be meaningless.
#[derive(Debug)]
pub struct Histogram {
    edges: Box<[u64]>,
    /// One slot per edge plus the overflow slot.
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    fn new(edges: &[u64]) -> Histogram {
        assert!(!edges.is_empty(), "a histogram needs at least one edge");
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "histogram edges must be strictly increasing"
        );
        Histogram {
            edges: edges.into(),
            buckets: (0..edges.len() + 1).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn observe(&self, v: u64) {
        let idx = self.edges.partition_point(|&e| e < v);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// The configured bucket edges.
    pub fn edges(&self) -> &[u64] {
        &self.edges
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            edges: self.edges.to_vec(),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// Aggregated wall-time statistics for one span name.
#[derive(Debug, Default)]
pub struct SpanStats {
    count: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl SpanStats {
    fn record(&self, ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    fn snapshot(&self) -> SpanSnapshot {
        SpanSnapshot {
            count: self.count.load(Ordering::Relaxed),
            total_ns: self.total_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
        }
    }
}

/// A scoped wall-clock timer: created by [`MetricsHandle::span`], it
/// records its lifetime into the span's statistics on drop.
///
/// Recorded durations are clamped to ≥ 1 ns: host clocks can report a
/// zero elapsed time for very short scopes (coarse clock sources), and a
/// zero-width span is indistinguishable from "never ran" downstream.
#[derive(Debug)]
pub struct SpanGuard {
    stats: Arc<SpanStats>,
    started: Instant,
}

impl SpanGuard {
    /// Elapsed nanoseconds so far (clamped to ≥ 1).
    pub fn elapsed_ns(&self) -> u64 {
        clamp_span_ns(self.started.elapsed().as_nanos())
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.stats.record(self.elapsed_ns());
    }
}

/// Clamps a raw elapsed reading into the span invariant: strictly
/// positive, saturating at `u64::MAX` rather than wrapping.
pub(crate) fn clamp_span_ns(raw: u128) -> u64 {
    u64::try_from(raw).unwrap_or(u64::MAX).max(1)
}

#[derive(Debug, Default)]
struct Instruments {
    counters: BTreeMap<&'static str, Counter>,
    gauges: BTreeMap<&'static str, MaxGauge>,
    histograms: BTreeMap<&'static str, Arc<Histogram>>,
    spans: BTreeMap<&'static str, Arc<SpanStats>>,
}

/// A cloneable handle onto one metrics registry.
///
/// All clones share the same instruments; [`MetricsHandle::snapshot`]
/// freezes the registry into a [`Snapshot`] with stable (sorted) key
/// order. The campaign executor creates one handle per job attempt, so
/// per-job metrics never bleed across jobs or retries.
#[derive(Debug, Clone, Default)]
pub struct MetricsHandle {
    inner: Arc<Mutex<Instruments>>,
}

impl MetricsHandle {
    /// Creates an empty registry.
    pub fn new() -> MetricsHandle {
        MetricsHandle::default()
    }

    /// Resolves (registering on first use) the counter `name`.
    pub fn counter(&self, name: &'static str) -> Counter {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .counters
            .entry(name)
            .or_default()
            .clone()
    }

    /// Resolves (registering on first use) the max-gauge `name`.
    pub fn gauge(&self, name: &'static str) -> MaxGauge {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .gauges
            .entry(name)
            .or_default()
            .clone()
    }

    /// Resolves (registering on first use) the histogram `name` with the
    /// given bucket edges.
    ///
    /// # Panics
    /// If `name` is already registered with different edges.
    pub fn histogram(&self, name: &'static str, edges: &[u64]) -> Arc<Histogram> {
        let h = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .histograms
            .entry(name)
            .or_insert_with(|| Arc::new(Histogram::new(edges)))
            .clone();
        assert!(
            h.edges() == edges,
            "histogram `{name}` re-registered with different edges"
        );
        h
    }

    /// Starts a span timer; the elapsed wall time is recorded when the
    /// returned guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        let stats = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .spans
            .entry(name)
            .or_default()
            .clone();
        #[expect(
            clippy::disallowed_methods,
            reason = "span timers are the one sanctioned wall-clock read; spans never reach artifacts"
        )]
        let started = Instant::now();
        SpanGuard { stats, started }
    }

    /// Freezes every instrument into a deterministic snapshot.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        Snapshot {
            counters: inner
                .counters
                .iter()
                .map(|(&k, v)| (k.to_string(), v.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(&k, v)| (k.to_string(), v.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(&k, v)| (k.to_string(), v.snapshot()))
                .collect(),
            spans: inner
                .spans
                .iter()
                .map(|(&k, v)| (k.to_string(), v.snapshot()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share() {
        let m = MetricsHandle::new();
        let a = m.counter("x");
        let b = m.counter("x");
        a.inc();
        b.add(4);
        assert_eq!(m.counter("x").get(), 5);
        assert_eq!(m.counter("y").get(), 0);
    }

    #[test]
    fn gauge_keeps_the_maximum() {
        let m = MetricsHandle::new();
        let g = m.gauge("depth");
        g.record(3);
        g.record(9);
        g.record(7);
        assert_eq!(g.get(), 9);
    }

    #[test]
    fn histogram_bucket_edges_are_le_semantics() {
        let m = MetricsHandle::new();
        let h = m.histogram("tries", &[1, 2, 4]);
        // One observation per interesting boundary: below/at each edge
        // lands in that edge's bucket, above the last edge overflows.
        for v in [0, 1, 2, 3, 4, 5, 100] {
            h.observe(v);
        }
        let snap = m.snapshot();
        let hs = &snap.histograms["tries"];
        assert_eq!(hs.edges, vec![1, 2, 4]);
        // le_1: {0,1}; le_2: {2}; le_4: {3,4}; overflow: {5,100}.
        assert_eq!(hs.buckets, vec![2, 1, 2, 2]);
        assert_eq!(hs.count, 7);
        assert_eq!(hs.sum, 115);
    }

    #[test]
    #[should_panic(expected = "different edges")]
    fn histogram_edge_mismatch_panics() {
        let m = MetricsHandle::new();
        m.histogram("h", &[1, 2]);
        m.histogram("h", &[1, 3]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_edges() {
        let m = MetricsHandle::new();
        m.histogram("h", &[2, 1]);
    }

    #[test]
    fn counters_merge_across_worker_threads() {
        let m = MetricsHandle::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let m = m.clone();
                s.spawn(move || {
                    let c = m.counter("shared");
                    let h = m.histogram("obs", &[10, 100]);
                    let g = m.gauge("peak");
                    for i in 0..1_000u64 {
                        c.inc();
                        h.observe(i % 150);
                        g.record(i);
                    }
                });
            }
        });
        let snap = m.snapshot();
        assert_eq!(snap.counters["shared"], 4_000);
        assert_eq!(snap.gauges["peak"], 999);
        assert_eq!(snap.histograms["obs"].count, 4_000);
        let bucket_total: u64 = snap.histograms["obs"].buckets.iter().sum();
        assert_eq!(bucket_total, 4_000);
    }

    #[test]
    fn span_guard_records_positive_durations() {
        let m = MetricsHandle::new();
        {
            let _g = m.span("work");
        }
        {
            let _g = m.span("work");
        }
        let s = &m.snapshot().spans["work"];
        assert_eq!(s.count, 2);
        assert!(s.total_ns >= 2, "even empty scopes record ≥ 1 ns each");
        assert!(s.max_ns >= 1);
    }
}
