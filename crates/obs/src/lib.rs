//! # fiveg-obs
//!
//! Zero-dependency observability for the `fiveg` workspace: a
//! thread-safe metrics registry ([`MetricsHandle`]) with monotonic
//! [`Counter`]s, high-watermark [`MaxGauge`]s, fixed-bucket
//! [`Histogram`]s and scoped [`SpanGuard`] timers, plus a deterministic
//! [`Snapshot`] that serializes to JSON with stable key order.
//!
//! The paper's methodology rests on continuous KPI logging (XCAL traces
//! of MCS/PRB, HARQ retransmissions, RRC dwell times); this crate is the
//! simulator-side equivalent: every hot layer records how much work a
//! run actually executed, so a calibration drift is distinguishable from
//! a performance regression.
//!
//! ## The current-handle scope
//!
//! Simulation layers (`simcore`, `net`, `transport`, `ran`, `energy`)
//! must not thread a metrics argument through every constructor, so the
//! active handle is ambient: the campaign executor installs a per-job
//! handle with [`scoped`], and instrumented code records through the
//! free functions ([`counter_add`], [`observe`], [`gauge_max`]), which
//! are no-ops when no handle is installed (unit tests, ad-hoc callers).
//! The scope is per-thread; a job unit runs entirely on one worker
//! thread, so per-job metrics depend only on the job's seed — never on
//! worker count or scheduling, extending the campaign determinism
//! guarantee to metrics.
//!
//! ## Determinism contract
//!
//! Counters, gauges and histograms count *simulation* work and are
//! bit-identical for a fixed seed. Span timers measure *host* wall time
//! and are advisory: [`Snapshot::deterministic`] excludes them, and CI
//! only warns (never fails) on timing changes.
//!
//! ```
//! use fiveg_obs::MetricsHandle;
//!
//! let m = MetricsHandle::new();
//! let n = fiveg_obs::scoped(&m, || {
//!     fiveg_obs::counter_add("demo.events", 3);
//!     fiveg_obs::observe("demo.tries", &[1, 2, 4], 2);
//!     42
//! });
//! assert_eq!(n, 42);
//! let snap = m.snapshot();
//! assert_eq!(snap.counters["demo.events"], 3);
//! assert_eq!(snap.deterministic()["demo.tries.le_2"], 1);
//! ```

#![warn(missing_docs, clippy::unwrap_used, clippy::expect_used)]
// Clippy reports a disallowed item-position macro at the crate root, so
// the expectation for the one `thread_local!` (`CURRENT`) sits here.
#![expect(
    clippy::disallowed_macros,
    reason = "CURRENT only routes writes to a handle; it holds no metric value"
)]

pub mod json;
mod metrics;
mod snapshot;

pub use json::{parse as parse_json, JsonError, JsonValue};
pub use metrics::{Counter, Histogram, MaxGauge, MetricsHandle, SpanGuard};
pub use snapshot::{HistogramSnapshot, Snapshot, SpanSnapshot};

thread_local! {
    /// Stack of installed handles; the innermost scope wins.
    #[expect(clippy::disallowed_types, reason = "the scope stack only routes writes to a handle; it holds no metric value")]
    static CURRENT: std::cell::RefCell<Vec<MetricsHandle>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Pops the scope on drop, so a panicking job never leaks its handle
/// onto the worker thread that `catch_unwind` will reuse.
struct ScopeGuard;

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

/// Runs `f` with `handle` installed as the thread's current metrics
/// sink. Scopes nest; the innermost wins. The handle is uninstalled on
/// the way out even if `f` panics.
pub fn scoped<R>(handle: &MetricsHandle, f: impl FnOnce() -> R) -> R {
    CURRENT.with(|c| c.borrow_mut().push(handle.clone()));
    let _guard = ScopeGuard;
    f()
}

/// The thread's current metrics handle, if one is installed.
pub fn current() -> Option<MetricsHandle> {
    CURRENT.with(|c| c.borrow().last().cloned())
}

/// Adds `n` to counter `name` on the current handle; no-op when no
/// handle is installed.
pub fn counter_add(name: &'static str, n: u64) {
    if let Some(m) = current() {
        m.counter(name).add(n);
    }
}

/// Raises max-gauge `name` to `v` on the current handle; no-op when no
/// handle is installed.
pub fn gauge_max(name: &'static str, v: u64) {
    if let Some(m) = current() {
        m.gauge(name).record(v);
    }
}

/// Records `v` into histogram `name` (registered with `edges` on first
/// use) on the current handle; no-op when no handle is installed.
pub fn observe(name: &'static str, edges: &[u64], v: u64) {
    if let Some(m) = current() {
        m.histogram(name, edges).observe(v);
    }
}

/// Starts a span timer on the current handle, if one is installed.
/// Hold the returned guard for the duration of the timed scope.
pub fn span(name: &'static str) -> Option<SpanGuard> {
    current().map(|m| m.span(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_functions_are_noops_without_a_scope() {
        // Must not panic or allocate registries anywhere.
        counter_add("nope", 1);
        gauge_max("nope", 1);
        observe("nope", &[1], 1);
        assert!(span("nope").is_none());
        assert!(current().is_none());
    }

    #[test]
    fn scopes_nest_and_unwind() {
        let outer = MetricsHandle::new();
        let inner = MetricsHandle::new();
        scoped(&outer, || {
            counter_add("c", 1);
            scoped(&inner, || counter_add("c", 10));
            counter_add("c", 2);
        });
        assert_eq!(outer.snapshot().counters["c"], 3);
        assert_eq!(inner.snapshot().counters["c"], 10);
        assert!(current().is_none());
    }

    #[test]
    fn panicking_scope_is_popped() {
        let m = MetricsHandle::new();
        let r = std::panic::catch_unwind(|| {
            scoped(&m, || panic!("boom"));
        });
        assert!(r.is_err());
        assert!(current().is_none(), "panic must not leak the scope");
    }

    #[test]
    fn scope_is_per_thread() {
        let m = MetricsHandle::new();
        scoped(&m, || {
            std::thread::spawn(|| assert!(current().is_none()))
                .join()
                .unwrap();
        });
    }
}
