//! Frozen metrics: a deterministic, mergeable, JSON-serializable view
//! of a registry at one instant.
//!
//! Snapshots separate two trust classes:
//!
//! * **counters / gauges / histograms** count *simulation* work, so for
//!   a fixed seed they are bit-identical run to run — these feed golden
//!   checks and benchmark drift detection;
//! * **spans** measure *host* wall time — advisory only, never compared.
//!
//! [`Snapshot::to_json`] emits keys in sorted order with a fixed layout,
//! so equal snapshots produce equal bytes — the property the determinism
//! CI stage relies on.

use crate::json::escape_into;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Frozen state of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Bucket upper edges (`observe(v)` lands in the first edge ≥ v).
    pub edges: Vec<u64>,
    /// Per-bucket counts; one slot per edge plus the overflow slot.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
}

/// Frozen state of one span timer (advisory wall time).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Completed spans.
    pub count: u64,
    /// Total wall time, nanoseconds.
    pub total_ns: u64,
    /// Longest single span, nanoseconds.
    pub max_ns: u64,
}

/// A frozen, mergeable view of a whole metrics registry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Monotonic counters, by name.
    pub counters: BTreeMap<String, u64>,
    /// High-watermark gauges, by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histograms, by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Span timers, by name (advisory; excluded from determinism checks).
    pub spans: BTreeMap<String, SpanSnapshot>,
}

impl Snapshot {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.spans.is_empty()
    }

    /// Folds `other` into `self`: counters and histogram buckets add,
    /// gauges take the maximum, spans add. Histograms present on both
    /// sides must share edges.
    ///
    /// # Panics
    /// If a histogram name appears on both sides with different edges.
    pub fn merge(&mut self, other: &Snapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            let slot = self.gauges.entry(k.clone()).or_insert(0);
            *slot = (*slot).max(*v);
        }
        for (k, h) in &other.histograms {
            match self.histograms.get_mut(k) {
                None => {
                    self.histograms.insert(k.clone(), h.clone());
                }
                Some(mine) => {
                    assert!(
                        mine.edges == h.edges,
                        "merging histogram `{k}` with different edges"
                    );
                    for (b, o) in mine.buckets.iter_mut().zip(&h.buckets) {
                        *b += o;
                    }
                    mine.count += h.count;
                    mine.sum += h.sum;
                }
            }
        }
        for (k, s) in &other.spans {
            let slot = self.spans.entry(k.clone()).or_insert(SpanSnapshot {
                count: 0,
                total_ns: 0,
                max_ns: 0,
            });
            slot.count += s.count;
            slot.total_ns += s.total_ns;
            slot.max_ns = slot.max_ns.max(s.max_ns);
        }
    }

    /// Flattens every *deterministic* instrument into one sorted
    /// `name → value` map: counters and gauges as-is, histograms as
    /// `name.le_EDGE` / `name.overflow` buckets plus `name.count` and
    /// `name.sum`. Spans are deliberately absent — this map is what
    /// benchmark baselines and the determinism gate byte-compare.
    pub fn deterministic(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for (k, &v) in &self.counters {
            out.insert(k.clone(), v);
        }
        for (k, &v) in &self.gauges {
            out.insert(k.clone(), v);
        }
        for (k, h) in &self.histograms {
            for (i, &b) in h.buckets.iter().enumerate() {
                let key = match h.edges.get(i) {
                    Some(e) => format!("{k}.le_{e}"),
                    None => format!("{k}.overflow"),
                };
                out.insert(key, b);
            }
            out.insert(format!("{k}.count"), h.count);
            out.insert(format!("{k}.sum"), h.sum);
        }
        out
    }

    /// Renders the snapshot as JSON with stable key order: top-level
    /// sections `counters`, `gauges`, `histograms`, `spans`, each sorted
    /// by name. Equal snapshots render to equal bytes.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push('{');
        write_u64_map(&mut s, "counters", &self.counters);
        s.push(',');
        write_u64_map(&mut s, "gauges", &self.gauges);
        s.push(',');
        write_key(&mut s, "histograms");
        s.push('{');
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            write_key(&mut s, k);
            s.push('{');
            write_key(&mut s, "edges");
            write_u64_array(&mut s, &h.edges);
            s.push(',');
            write_key(&mut s, "buckets");
            write_u64_array(&mut s, &h.buckets);
            let _ = write!(s, ",\"count\":{},\"sum\":{}", h.count, h.sum);
            s.push('}');
        }
        s.push('}');
        s.push(',');
        write_key(&mut s, "spans");
        s.push('{');
        for (i, (k, sp)) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            write_key(&mut s, k);
            let _ = write!(
                s,
                "{{\"count\":{},\"total_ns\":{},\"max_ns\":{}}}",
                sp.count, sp.total_ns, sp.max_ns
            );
        }
        s.push('}');
        s.push('}');
        s
    }
}

/// Writes `"key":` with JSON string escaping.
fn write_key(out: &mut String, key: &str) {
    out.push('"');
    escape_into(out, key);
    out.push_str("\":");
}

fn write_u64_map(out: &mut String, section: &str, map: &BTreeMap<String, u64>) {
    write_key(out, section);
    out.push('{');
    for (i, (k, v)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_key(out, k);
        let _ = write!(out, "{v}");
    }
    out.push('}');
}

fn write_u64_array(out: &mut String, vals: &[u64]) {
    out.push('[');
    for (i, v) in vals.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsHandle;

    fn sample() -> Snapshot {
        let m = MetricsHandle::new();
        m.counter("b.two").add(2);
        m.counter("a.one").add(1);
        m.gauge("depth").record(7);
        m.histogram("h", &[1, 10]).observe(5);
        drop(m.span("t"));
        m.snapshot()
    }

    #[test]
    fn json_key_order_is_stable_and_sorted() {
        let j = sample().to_json();
        // Counters render sorted regardless of registration order.
        let a = j.find("a.one").unwrap();
        let b = j.find("b.two").unwrap();
        assert!(a < b, "{j}");
        // Rendering the same snapshot twice is byte-identical, and two
        // independently built registries agree on everything
        // deterministic (spans carry wall time, so only those differ).
        let snap = sample();
        assert_eq!(snap.to_json(), snap.to_json());
        assert_eq!(sample().deterministic(), sample().deterministic());
        // Sections appear in fixed order.
        let (c, g, h, s) = (
            j.find("\"counters\"").unwrap(),
            j.find("\"gauges\"").unwrap(),
            j.find("\"histograms\"").unwrap(),
            j.find("\"spans\"").unwrap(),
        );
        assert!(c < g && g < h && h < s);
    }

    #[test]
    fn merge_adds_counters_and_maxes_gauges() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.counters["a.one"], 2);
        assert_eq!(a.counters["b.two"], 4);
        assert_eq!(a.gauges["depth"], 7, "gauges take max, not sum");
        assert_eq!(a.histograms["h"].count, 2);
        assert_eq!(a.spans["t"].count, 2);
    }

    #[test]
    #[should_panic(expected = "different edges")]
    fn merge_rejects_mismatched_histograms() {
        let m1 = MetricsHandle::new();
        m1.histogram("h", &[1]).observe(1);
        let m2 = MetricsHandle::new();
        m2.histogram("h", &[2]).observe(1);
        let mut a = m1.snapshot();
        a.merge(&m2.snapshot());
    }

    #[test]
    fn deterministic_flattens_histograms_and_drops_spans() {
        let flat = sample().deterministic();
        assert_eq!(flat["a.one"], 1);
        assert_eq!(flat["depth"], 7);
        assert_eq!(flat["h.le_1"], 0);
        assert_eq!(flat["h.le_10"], 1);
        assert_eq!(flat["h.overflow"], 0);
        assert_eq!(flat["h.count"], 1);
        assert_eq!(flat["h.sum"], 5);
        assert!(
            !flat.keys().any(|k| k.starts_with('t')),
            "span timings must not leak into the deterministic view"
        );
    }

    #[test]
    fn keys_are_escaped() {
        let mut s = Snapshot::default();
        s.counters.insert("we\"ird\n".into(), 1);
        let j = s.to_json();
        assert!(j.contains("we\\\"ird\\n"));
    }
}
