//! # fiveg-trace — deterministic flight recorder + columnar KPI store
//!
//! Structured event tracing for the simulator: typed [`TraceEvent`]s
//! are emitted from the radio / fault / KPI / CC layers into an
//! ambient per-run sink, then merged in global `(t_ns, origin, seq)`
//! order into [`Row`]s of one fixed 9-column layout ([`COLUMNS`]). The
//! rows are serialised column-major into a `.trace.bin`,
//! next to a JSON sidecar that repeats the layout and carries counts,
//! groups and the binary's hash; [`decode`] checks a binary against
//! that layout. The merged order is keyed by **logical** origins
//! (UE chunk, router hub, serial code), so the trace bytes are
//! invariant under `--jobs`, which sets the worker, sweep-thread and
//! shard counts — the same contract every other artifact obeys (see
//! DESIGN.md §11). Every event of every [`Category`] is recorded.
//!
//! Like `fiveg-obs`, the API is ambient: instrumented code calls
//! [`emit`] unconditionally and pays one thread-local read when no
//! trace scope is installed. The campaign executor installs a scope
//! per job when `repro --trace` is passed; the shard kernel re-installs
//! it inside its worker threads.
//!
//! Two capture modes:
//!
//! * **full** — every event is kept.
//! * **ring** (flight recorder, the default) — each `(origin,
//!   category)` stream keeps a bounded deque of its most recent
//!   events, and after the global merge each *category* is truncated
//!   to its last `ring` events (1024 unless [`TraceConfig::ring`] says
//!   otherwise). Because the per-stream deques retain a
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
#[expect(clippy::disallowed_types, reason = "TraceHandle's lock")]
use std::sync::{Arc, Mutex, PoisonError};

mod columnar;
mod event;

use columnar::encode;
pub use columnar::{decode, DecodeError, COLUMNS};
pub use event::{Category, TraceEvent, KINDS, NO_UE, ROUTER_ORIGIN};

/// Capture mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceMode {
    /// Keep everything.
    Full,
    /// Flight recorder: the last [`TraceConfig::ring`] events of each
    /// category. Every event still counts toward
    /// [`TraceOutput::events`].
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
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            mode: TraceMode::Ring,
            ring: 1024,
        }
    }
}

/// One merged trace row; field order is the binary's column order
/// ([`COLUMNS`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Row {
    /// Simulation time, nanoseconds.
    pub t_ns: u64,
    /// Logical origin (UE/flow/cell id) that emitted the event.
    pub origin: u32,
    /// Per-origin monotone sequence number (the total-order tiebreak).
    pub seq: u32,
    /// Event kind code (index into [`KINDS`]).
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
    rings: BTreeMap<(u32, Option<u8>), VecDeque<Row>>,
    /// Accepted events per kind (before any ring truncation).
    counts: [u64; 9],
    groups: Vec<Group>,
}

/// Cloneable handle to the per-run trace sink. The sink is shared
/// across threads behind one mutex; determinism comes from per-origin
/// sequencing plus the final sort, not from lock-acquisition order.
#[derive(Clone)]
#[expect(
    clippy::disallowed_types,
    reason = "the one run sink: rows are merged in (t_ns, origin, seq) order after the run, so lock order never reaches the trace bytes"
)]
pub struct TraceHandle(Arc<Mutex<Inner>>);

/// Finished trace: the columnar binary plus its JSON sidecar.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceOutput {
    /// Columnar binary (`FVTR0001` format).
    pub bin: Vec<u8>,
    /// JSON sidecar describing schema, counts and groups.
    pub sidecar: String,
    /// Rows present in `bin` (post-truncation).
    pub rows: u64,
    /// Events emitted (pre-truncation).
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
    #[expect(clippy::disallowed_types, reason = "builds the sink")]
    pub fn new(cfg: TraceConfig) -> TraceHandle {
        TraceHandle(Arc::new(Mutex::new(Inner {
            cfg,
            ..Inner::default()
        })))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A panicking emitter cannot leave partial state worth
        // protecting: rows are appended whole.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records one event (assigns the per-origin sequence number,
    /// honours ring bounds).
    pub fn emit(&self, origin: u32, ev: &TraceEvent) {
        let mut g = self.lock();
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
                let dq = g.rings.entry((origin, category_key(row.kind))).or_default();
                if dq.len() == cap {
                    dq.pop_front();
                }
                dq.push_back(row);
            }
        }
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
        let bin = encode(&rows);
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

/// The ring bound's key for kind code `kind`: its [`KINDS`] category.
fn category_key(kind: u8) -> Option<u8> {
    KINDS[usize::from(kind)].map(|(_, c)| c as u8)
}

/// Keeps the last `cap` rows of each category, preserving order.
fn truncate_per_category(rows: Vec<Row>, cap: usize) -> Vec<Row> {
    let mut budget: BTreeMap<Option<u8>, usize> = BTreeMap::new();
    let mut keep = vec![false; rows.len()];
    for (i, r) in rows.iter().enumerate().rev() {
        let used = budget.entry(category_key(r.kind)).or_insert(0);
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

/// FNV-1a 64-bit (same constants as the campaign manifest hashes).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Lower-hex rendering of a 64-bit hash.
fn hex64(h: u64) -> String {
    format!("{h:016x}")
}

#[derive(serde::Serialize)]
struct SidecarColumn {
    name: &'static str,
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
        // `sample` and `categories` are fixed; the sidecar keeps them
        // so its bytes do not move.
        sample: 1,
        categories: Category::ALL.map(Category::name).into(),
        columns: COLUMNS.map(|(name, ty)| SidecarColumn { name, ty }).into(),
        rows: rows as u64,
        counts: KINDS
            .iter()
            .zip(counts)
            .filter_map(|(kind, &n)| match kind {
                Some((name, _)) if n > 0 => Some(((*name).to_string(), n)),
                _ => None,
            })
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
        let h = TraceHandle::new(TraceConfig {
            mode: TraceMode::Ring,
            ring: 5,
        });
        // 3 origins x 20 events, timestamps interleaved across origins.
        for i in 0..20u64 {
            for origin in 0..3u32 {
                h.emit(origin, &ev(i * 10 + u64::from(origin), origin));
            }
        }
        let out = h.finish();
        let rows = decode(&out.bin).expect("decode");
        assert_eq!(rows.len(), 5);
        // The last 5 events globally: t = 192, 180, 181, 182 ... sorted
        // ascending the kept suffix is t in {181, 182, 190, 191, 192}.
        let ts: Vec<u64> = rows.iter().map(|r| r.t_ns).collect();
        assert_eq!(ts, vec![181, 182, 190, 191, 192]);
        assert_eq!(out.rows, 5);
        assert_eq!(out.events, 60);
    }

    /// Ring mode counts the same emitted events as full mode into
    /// `trace.events`, but keeps and encodes fewer `trace.bytes`.
    #[test]
    fn ring_mode_counts_every_event_in_fewer_bytes() {
        let counters = |mode: TraceMode| {
            let m = fiveg_obs::MetricsHandle::new();
            fiveg_obs::scoped(&m, || {
                let h = TraceHandle::new(TraceConfig { mode, ring: 5 });
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

    #[test]
    fn scope_is_ambient_and_nested() {
        assert!(!is_active());
        emit(0, &ev(1, 1)); // no-op without scope
        let h = TraceHandle::new(TraceConfig {
            mode: TraceMode::Full,
            ..TraceConfig::default()
        });
        let out = scoped(&h, || {
            assert!(is_active());
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
