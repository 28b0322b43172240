//! # fiveg-trace — deterministic flight recorder + columnar KPI store
//!
//! Structured event tracing for the simulator: typed [`TraceEvent`]s
//! are emitted from the radio / fault / KPI / CC / shard layers into an
//! ambient per-run sink, then merged in global `(t_ns, origin, seq)`
//! order and serialised as a fixed-width columnar binary plus a JSON
//! sidecar schema. The merged order is keyed by **logical** origins
//! (UE chunk, router hub, serial code), so for the default category
//! set the trace bytes are invariant under `--jobs`, which sets the
//! worker, sweep-thread and shard counts — the same contract every
//! other artifact obeys (see DESIGN.md §11).
//!
//! Like `fiveg-obs`, the API is ambient: instrumented code calls
//! [`emit`] unconditionally and pays one thread-local read when no
//! trace scope is installed. The campaign executor installs a scope
//! per job when `repro --trace` is passed; the shard kernel re-installs
//! it inside its worker threads.
//!
//! Two capture modes:
//!
//! * **full** — every accepted event is kept.
//! * **ring** (flight recorder, the default) — each `(origin,
//!   category)` stream keeps a bounded deque of its most recent
//!   events, and after the global merge each *category* is truncated
//!   to its last `ring` events. Because the per-stream deques retain a
//!   superset of any global suffix, the truncated result equals what a
//!   single global ring would have kept — for any shard partition.

#![warn(missing_docs, clippy::unwrap_used, clippy::expect_used)]
// Clippy reports a disallowed item-position macro at the crate root, so
// the expectation for the one `thread_local!` (`SCOPE`) sits here.
#![expect(
    clippy::disallowed_macros,
    reason = "SCOPE only routes emits to a sink; it holds no trace row"
)]

use std::collections::{BTreeMap, VecDeque};
#[expect(clippy::disallowed_types, reason = "TraceSink's mask mirror")]
use std::sync::atomic::{AtomicU8, Ordering};
#[expect(clippy::disallowed_types, reason = "TraceSink's lock")]
use std::sync::{Arc, Mutex, PoisonError};

pub mod columnar;
pub mod event;

pub use columnar::{decode, encode, ColType, Column, DecodeError, Table};
pub use event::{Category, TraceEvent, KIND_NAMES, NO_UE, ROUTER_ORIGIN};

/// Capture mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceMode {
    /// Keep everything.
    Full,
    /// Flight recorder: last `ring` events per category.
    Ring,
}

impl TraceMode {
    /// Stable name used in the sidecar and CLI flags.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TraceMode::Full => "full",
            TraceMode::Ring => "ring",
        }
    }
}

/// Sink configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceConfig {
    /// Capture mode (full or flight-recorder ring).
    pub mode: TraceMode,
    /// Ring capacity per category (ring mode only).
    pub ring: usize,
    /// KPI sampling: record every `sample`-th tick (1 = every tick).
    pub sample: u32,
    /// Category bitmask ([`Category::bit`]).
    pub mask: u8,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            mode: TraceMode::Ring,
            ring: 1024,
            sample: 1,
            mask: Category::default_mask(),
        }
    }
}

/// One merged trace row; field order mirrors the columnar schema.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Row {
    /// Simulation time, nanoseconds.
    pub t_ns: u64,
    /// Logical origin (UE/flow/cell id) that emitted the event.
    pub origin: u32,
    /// Per-origin monotone sequence number (the total-order tiebreak).
    pub seq: u32,
    /// Event kind code (index into [`event::KIND_NAMES`]).
    pub kind: u8,
    /// UE id column (kind-specific; 0 when unused).
    pub ue: u32,
    /// First kind-specific integer column.
    pub a: u32,
    /// Second kind-specific integer column.
    pub b: u32,
    /// First kind-specific float column.
    pub v0: f64,
    /// Second kind-specific float column.
    pub v1: f64,
}

/// A named UE-index range annotation (fleet groups).
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize)]
pub struct Group {
    /// Group name as written to the sidecar.
    pub name: String,
    /// First UE index (inclusive).
    pub start: u32,
    /// Last UE index (exclusive).
    pub end: u32,
}

#[derive(Default)]
struct Inner {
    cfg: TraceConfig,
    /// Per-origin monotone sequence counters.
    seqs: BTreeMap<u32, u32>,
    /// Full-mode buffer.
    full: Vec<Row>,
    /// Ring-mode per-(origin, category) bounded deques.
    rings: BTreeMap<(u32, u8), VecDeque<Row>>,
    /// Accepted events per kind (before any ring truncation).
    counts: [u64; 9],
    groups: Vec<Group>,
}

/// The per-run trace sink. Shared across threads behind one mutex;
/// determinism comes from per-origin sequencing plus the final sort,
/// not from lock-acquisition order.
#[expect(
    clippy::disallowed_types,
    reason = "the one run sink: rows are merged in (t_ns, origin, seq) order after the run, so lock order never reaches the trace bytes"
)]
pub struct TraceSink {
    inner: Mutex<Inner>,
    /// Lock-free mirror of `cfg.mask` so hot emitters (the shard
    /// kernel's per-message send/recv) skip the mutex entirely when
    /// their category is filtered out.
    mask: AtomicU8,
}

/// Cloneable handle to a [`TraceSink`].
#[derive(Clone)]
pub struct TraceHandle(Arc<TraceSink>);

/// Finished trace: the columnar binary plus its JSON sidecar.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceOutput {
    /// Columnar binary (`FVTR0001` format).
    pub bin: Vec<u8>,
    /// JSON sidecar describing schema, counts and groups.
    pub sidecar: String,
    /// Rows present in `bin` (post-truncation).
    pub rows: u64,
    /// Events accepted by the mask (pre-truncation).
    pub events: u64,
}

impl Default for TraceHandle {
    fn default() -> Self {
        TraceHandle::new(TraceConfig::default())
    }
}

impl TraceHandle {
    /// Creates a fresh sink with the given configuration.
    #[must_use]
    #[expect(clippy::disallowed_types, reason = "builds the TraceSink")]
    pub fn new(cfg: TraceConfig) -> TraceHandle {
        let mask = cfg.mask;
        TraceHandle(Arc::new(TraceSink {
            inner: Mutex::new(Inner {
                cfg,
                ..Inner::default()
            }),
            mask: AtomicU8::new(mask),
        }))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A panicking emitter cannot leave partial state worth
        // protecting: rows are appended whole.
        self.0.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records one event (applies the category mask, assigns the
    /// per-origin sequence number, honours ring bounds).
    pub fn emit(&self, origin: u32, ev: &TraceEvent) {
        let cat = ev.category();
        if self.0.mask.load(Ordering::Relaxed) & cat.bit() == 0 {
            return;
        }
        let mut g = self.lock();
        if g.cfg.mask & cat.bit() == 0 {
            return;
        }
        let seq = g.seqs.entry(origin).or_insert(0);
        let s = *seq;
        *seq += 1;
        let (ue, a, b, v0, v1) = ev.payload();
        let row = Row {
            t_ns: ev.t_ns(),
            origin,
            seq: s,
            kind: ev.kind(),
            ue,
            a,
            b,
            v0,
            v1,
        };
        g.counts[row.kind as usize] += 1;
        match g.cfg.mode {
            TraceMode::Full => g.full.push(row),
            TraceMode::Ring => {
                let cap = g.cfg.ring.max(1);
                let dq = g.rings.entry((origin, cat.bit())).or_default();
                if dq.len() == cap {
                    dq.pop_front();
                }
                dq.push_back(row);
            }
        }
    }

    /// Current KPI sampling rate (>= 1).
    #[must_use]
    pub fn sample(&self) -> u32 {
        self.lock().cfg.sample.max(1)
    }

    /// Adjusts the configuration in place. Intended for the scenario
    /// DSL `trace` block, which refines sampling / categories / ring
    /// size before any event is emitted; reconfiguring mid-run only
    /// affects subsequent events.
    pub fn configure(&self, f: impl FnOnce(&mut TraceConfig)) {
        let mut g = self.lock();
        f(&mut g.cfg);
        self.0.mask.store(g.cfg.mask, Ordering::Relaxed);
    }

    /// Installs the fleet-group UE-range annotations for the sidecar.
    pub fn set_groups(&self, groups: Vec<Group>) {
        self.lock().groups = groups;
    }

    /// Drains the sink into the merged columnar artifact. Also bumps
    /// the `trace.events` / `trace.bytes` obs counters (under the
    /// ambient obs scope, if any) so tracing cost is visible in perf
    /// blocks and the bench gate.
    #[must_use]
    pub fn finish(&self) -> TraceOutput {
        let inner = {
            let mut g = self.lock();
            std::mem::take(&mut *g)
        };
        let mut rows: Vec<Row> = match inner.cfg.mode {
            TraceMode::Full => inner.full,
            TraceMode::Ring => inner.rings.into_values().flatten().collect(),
        };
        rows.sort_by_key(|r| (r.t_ns, r.origin, r.seq));
        if inner.cfg.mode == TraceMode::Ring {
            rows = truncate_per_category(rows, inner.cfg.ring.max(1));
        }
        let events: u64 = inner.counts.iter().sum();
        let table = Table {
            columns: schema(),
            rows: rows
                .iter()
                .map(|r| {
                    vec![
                        r.t_ns,
                        u64::from(r.origin),
                        u64::from(r.seq),
                        u64::from(r.kind),
                        u64::from(r.ue),
                        u64::from(r.a),
                        u64::from(r.b),
                        r.v0.to_bits(),
                        r.v1.to_bits(),
                    ]
                })
                .collect(),
        };
        let bin = encode(&table);
        let sidecar = sidecar_json(&inner.cfg, &inner.counts, &inner.groups, &bin, rows.len());
        fiveg_obs::counter_add("trace.events", events);
        fiveg_obs::counter_add("trace.bytes", bin.len() as u64);
        TraceOutput {
            bin,
            sidecar,
            rows: rows.len() as u64,
            events,
        }
    }
}

/// Keeps the last `cap` rows of each category, preserving order.
fn truncate_per_category(rows: Vec<Row>, cap: usize) -> Vec<Row> {
    let mut budget: BTreeMap<u8, usize> = BTreeMap::new();
    let mut keep = vec![false; rows.len()];
    for (i, r) in rows.iter().enumerate().rev() {
        let cat_bit = kind_category_bit(r.kind);
        let used = budget.entry(cat_bit).or_insert(0);
        if *used < cap {
            *used += 1;
            keep[i] = true;
        }
    }
    rows.into_iter()
        .zip(keep)
        .filter_map(|(r, k)| k.then_some(r))
        .collect()
}

fn kind_category_bit(kind: u8) -> u8 {
    match kind {
        0 | 1 => Category::Radio.bit(),
        2..=4 => Category::Fault.bit(),
        5 | 6 => Category::Shard.bit(),
        7 => Category::Cc.bit(),
        _ => Category::Kpi.bit(),
    }
}

/// The fixed 9-column trace schema.
#[must_use]
pub fn schema() -> Vec<Column> {
    [
        ("t_ns", ColType::U64),
        ("origin", ColType::U32),
        ("seq", ColType::U32),
        ("kind", ColType::U8),
        ("ue", ColType::U32),
        ("a", ColType::U32),
        ("b", ColType::U32),
        ("v0", ColType::F64),
        ("v1", ColType::F64),
    ]
    .into_iter()
    .map(|(name, ty)| Column {
        name: name.to_string(),
        ty,
    })
    .collect()
}

/// FNV-1a 64-bit (same constants as the campaign manifest hashes).
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Lower-hex rendering of a 64-bit hash.
#[must_use]
pub fn hex64(h: u64) -> String {
    format!("{h:016x}")
}

#[derive(serde::Serialize)]
struct SidecarColumn {
    name: String,
    ty: &'static str,
}

#[derive(serde::Serialize)]
struct Sidecar {
    schema: u32,
    mode: &'static str,
    ring: u64,
    sample: u32,
    categories: Vec<&'static str>,
    columns: Vec<SidecarColumn>,
    rows: u64,
    counts: BTreeMap<String, u64>,
    bin_hash: String,
    groups: Vec<Group>,
}

fn sidecar_json(
    cfg: &TraceConfig,
    counts: &[u64; 9],
    groups: &[Group],
    bin: &[u8],
    rows: usize,
) -> String {
    let side = Sidecar {
        schema: 1,
        mode: cfg.mode.name(),
        ring: cfg.ring as u64,
        sample: cfg.sample,
        categories: Category::ALL
            .into_iter()
            .filter(|c| cfg.mask & c.bit() != 0)
            .map(Category::name)
            .collect(),
        columns: schema()
            .into_iter()
            .map(|c| SidecarColumn {
                name: c.name,
                ty: c.ty.name(),
            })
            .collect(),
        rows: rows as u64,
        counts: KIND_NAMES
            .iter()
            .enumerate()
            .filter(|&(k, _)| counts[k] > 0)
            .map(|(k, name)| ((*name).to_string(), counts[k]))
            .collect(),
        bin_hash: hex64(fnv1a64(bin)),
        groups: groups.to_vec(),
    };
    // Serialisation of a struct of plain fields cannot fail; fall back
    // to an empty object rather than poisoning the artifact path.
    serde_json::to_string_pretty(&side).unwrap_or_else(|_| "{}".to_string())
}

// ---------------------------------------------------------------------
// Ambient scope (mirrors fiveg-obs).

thread_local! {
    #[expect(clippy::disallowed_types, reason = "SCOPE only routes emits to a sink; it holds no trace row")]
    static SCOPE: std::cell::RefCell<Vec<TraceHandle>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Runs `f` with `handle` installed as the ambient trace sink.
pub fn scoped<R>(handle: &TraceHandle, f: impl FnOnce() -> R) -> R {
    SCOPE.with(|s| s.borrow_mut().push(handle.clone()));
    struct Pop;
    impl Drop for Pop {
        fn drop(&mut self) {
            SCOPE.with(|s| {
                s.borrow_mut().pop();
            });
        }
    }
    let _pop = Pop;
    f()
}

/// The innermost ambient handle, if any. Worker threads use this to
/// re-install the scope across thread boundaries.
#[must_use]
pub fn current() -> Option<TraceHandle> {
    SCOPE.with(|s| s.borrow().last().cloned())
}

/// Whether a trace scope is installed (cheap pre-check for emitters
/// that would otherwise compute payload fields).
#[must_use]
pub fn is_active() -> bool {
    SCOPE.with(|s| !s.borrow().is_empty())
}

/// Emits an event into the ambient sink; no-op without a scope.
pub fn emit(origin: u32, ev: &TraceEvent) {
    SCOPE.with(|s| {
        if let Some(h) = s.borrow().last() {
            h.emit(origin, ev);
        }
    });
}

/// Ambient KPI sampling rate; 1 when no scope is installed.
#[must_use]
pub fn sample_rate() -> u32 {
    current().map_or(1, |h| h.sample())
}

/// Adjusts the ambient sink's configuration; no-op without a scope.
pub fn configure(f: impl FnOnce(&mut TraceConfig)) {
    if let Some(h) = current() {
        h.configure(f);
    }
}

/// Installs group annotations on the ambient sink; no-op without one.
pub fn set_groups(groups: Vec<Group>) {
    if let Some(h) = current() {
        h.set_groups(groups);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, ue: u32) -> TraceEvent {
        TraceEvent::Attach {
            t_ns: t,
            ue,
            pci: 60,
            rsrp_dbm: -80.0,
        }
    }

    /// Split the same logical event streams across different "shard"
    /// interleavings: the finished bytes must be identical, because
    /// ordering comes from (t, origin, seq), not arrival order.
    #[test]
    fn merge_order_is_arrival_invariant() {
        let mk = |interleave: bool| {
            let h = TraceHandle::new(TraceConfig {
                mode: TraceMode::Full,
                ..TraceConfig::default()
            });
            let stream_a: Vec<TraceEvent> = (0..10).map(|i| ev(i * 100, 1)).collect();
            let stream_b: Vec<TraceEvent> = (0..10).map(|i| ev(i * 100 + 50, 2)).collect();
            if interleave {
                for (a, b) in stream_a.iter().zip(&stream_b) {
                    h.emit(7, a);
                    h.emit(9, b);
                }
            } else {
                for b in &stream_b {
                    h.emit(9, b);
                }
                for a in &stream_a {
                    h.emit(7, a);
                }
            }
            h.finish()
        };
        let x = mk(true);
        let y = mk(false);
        assert_eq!(x.bin, y.bin);
        assert_eq!(x.sidecar, y.sidecar);
    }

    /// Ring mode equals a single global per-category ring regardless
    /// of how origins were partitioned into per-stream deques.
    #[test]
    fn ring_truncation_matches_global_ring() {
        let cfg = TraceConfig {
            mode: TraceMode::Ring,
            ring: 5,
            ..TraceConfig::default()
        };
        let h = TraceHandle::new(cfg.clone());
        // 3 origins x 20 events, timestamps interleaved across origins.
        for i in 0..20u64 {
            for origin in 0..3u32 {
                h.emit(origin, &ev(i * 10 + u64::from(origin), origin));
            }
        }
        let out = h.finish();
        let table = decode(&out.bin, &schema()).expect("decode");
        assert_eq!(table.rows.len(), 5);
        // The last 5 events globally: t = 192, 180, 181, 182 ... sorted
        // ascending the kept suffix is t in {181, 182, 190, 191, 192}.
        let ts: Vec<u64> = table.rows.iter().map(|r| r[0]).collect();
        assert_eq!(ts, vec![181, 182, 190, 191, 192]);
        assert_eq!(out.rows, 5);
        assert_eq!(out.events, 60);
    }

    /// Ring mode counts the same accepted events as full mode into
    /// `trace.events`, but keeps and encodes fewer `trace.bytes`.
    #[test]
    fn ring_mode_counts_every_event_in_fewer_bytes() {
        let counters = |mode: TraceMode| {
            let m = fiveg_obs::MetricsHandle::new();
            fiveg_obs::scoped(&m, || {
                let h = TraceHandle::new(TraceConfig {
                    mode,
                    ring: 5,
                    ..TraceConfig::default()
                });
                for i in 0..20u64 {
                    for origin in 0..3u32 {
                        h.emit(origin, &ev(i * 10 + u64::from(origin), origin));
                    }
                }
                h.finish()
            });
            m.snapshot().deterministic()
        };
        let full = counters(TraceMode::Full);
        let ring = counters(TraceMode::Ring);
        assert_eq!(full["trace.events"], 60);
        assert_eq!(ring["trace.events"], full["trace.events"]);
        assert!(
            ring["trace.bytes"] < full["trace.bytes"],
            "ring {} vs full {} bytes",
            ring["trace.bytes"],
            full["trace.bytes"]
        );
    }

    /// Category mask drops events entirely (no seq consumed, so masked
    /// categories cannot perturb the bytes of unmasked ones).
    #[test]
    fn masked_categories_do_not_consume_sequence_numbers() {
        let mk = |with_shard_events: bool| {
            let h = TraceHandle::new(TraceConfig {
                mode: TraceMode::Full,
                ..TraceConfig::default()
            });
            h.emit(0, &ev(5, 1));
            if with_shard_events {
                h.emit(
                    0,
                    &TraceEvent::ShardMsgSend {
                        t_ns: 6,
                        src: 0,
                        dst: 1,
                    },
                );
            }
            h.emit(0, &ev(7, 1));
            h.finish()
        };
        assert_eq!(mk(true).bin, mk(false).bin);
    }

    #[test]
    fn scope_is_ambient_and_nested() {
        assert!(!is_active());
        assert_eq!(sample_rate(), 1);
        emit(0, &ev(1, 1)); // no-op without scope
        let h = TraceHandle::new(TraceConfig {
            mode: TraceMode::Full,
            sample: 4,
            ..TraceConfig::default()
        });
        let out = scoped(&h, || {
            assert!(is_active());
            assert_eq!(sample_rate(), 4);
            emit(3, &ev(2, 9));
            h.finish()
        });
        assert!(!is_active());
        assert_eq!(out.rows, 1);
    }

    #[test]
    fn sidecar_reports_counts_and_hash() {
        let h = TraceHandle::new(TraceConfig {
            mode: TraceMode::Full,
            ..TraceConfig::default()
        });
        h.set_groups(vec![Group {
            name: "walkers".into(),
            start: 0,
            end: 24,
        }]);
        h.emit(0, &ev(1, 0));
        let out = h.finish();
        let side = fiveg_obs::parse_json(&out.sidecar).expect("sidecar parses");
        assert_eq!(
            side.get("bin_hash").and_then(|v| v.as_str()),
            Some(hex64(fnv1a64(&out.bin)).as_str())
        );
        assert_eq!(
            side.get("counts")
                .and_then(|c| c.get("attach"))
                .and_then(fiveg_obs::JsonValue::as_u64),
            Some(1)
        );
        assert_eq!(side.get("mode").and_then(|v| v.as_str()), Some("full"));
    }
}
