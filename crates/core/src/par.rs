//! Deterministic scoped-thread fan-out for grid and trace sweeps.
//!
//! The radio-measurement experiments evaluate thousands of independent
//! UE positions; this module spreads them over `std::thread::scope`
//! workers while keeping every observable byte-identical to the serial
//! run. The caller passes the thread count; campaign jobs pass
//! `JobCtx::threads`, which is the run's `--jobs`.
//!
//! - **Output order** — work is split into fixed-size chunks
//!   ([`CHUNK`]); workers claim chunk *indices* from an atomic counter
//!   and write each chunk's results into its own slot, so the flattened
//!   output is in input order for any thread count.
//! - **Metrics** — the ambient `fiveg-obs` handle is captured before the
//!   scope and re-installed inside every worker, so per-job counters
//!   land in the job's registry. Per-chunk worker state (e.g. a
//!   [`fiveg_phy::MeasureScratch`]) is created and dropped *per chunk*,
//!   not per worker: counters like `phy.scratch.reuse` then depend only
//!   on the chunk structure — identical for 1 thread or 64 — never on
//!   which worker happened to claim which chunk.
//! - **Floats** — callers keep order-sensitive reductions (e.g.
//!   `OnlineStats` pushes) serial over the order-preserved results.
//!
//! No external dependencies: plain `std::thread::scope`.
#![expect(
    clippy::disallowed_types,
    reason = "the fan-out itself: an atomic chunk-claim counter and one slot per chunk; results come back in input order"
)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Fixed work-chunk size. Must never vary with thread count or host —
/// per-chunk scratch lifetimes (and thus the `phy.scratch.reuse`
/// counter) are part of the deterministic-metrics contract.
pub const CHUNK: usize = 64;

/// Maps `f` over `items` with a per-chunk state built by `init` (a
/// scratch buffer, typically), preserving input order for any
/// `threads`. `f` receives the state, the item index and the item. The
/// state is created at the start of every chunk and dropped at its end,
/// inside the worker's obs scope, so Drop-flushed counters are
/// chunk-structured and deterministic.
///
/// Reduce the order-preserved results after the call:
///
/// ```
/// let out = fiveg_core::par::par_map_with(&[1.0f64, 2.0], 2, || (), |(), _, x| x * 2.0);
/// assert_eq!(out.iter().sum::<f64>(), 6.0);
/// ```
///
/// `f` is `Fn + Sync`, so it cannot accumulate across items, whose
/// order varies with `threads` (F001 of DESIGN.md §7):
///
/// ```compile_fail,E0596
/// let mut total = 0.0f64;
/// fiveg_core::par::par_map_with(&[1.0f64, 2.0], 2, || (), |(), _, x| total += x);
/// ```
pub fn par_map_with<T: Sync, R: Send, S>(
    items: &[T],
    threads: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize, &T) -> R + Sync,
) -> Vec<R> {
    if items.is_empty() {
        return Vec::new();
    }
    let n_chunks = items.len().div_ceil(CHUNK);
    let threads = threads.clamp(1, n_chunks);
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<Vec<R>>>> = Mutex::new((0..n_chunks).map(|_| None).collect());

    let run_worker = || loop {
        let c = next.fetch_add(1, Ordering::Relaxed);
        if c >= n_chunks {
            break;
        }
        let start = c * CHUNK;
        let end = (start + CHUNK).min(items.len());
        let mut out = Vec::with_capacity(end - start);
        {
            let mut state = init();
            for (i, item) in items.iter().enumerate().take(end).skip(start) {
                out.push(f(&mut state, i, item));
            }
            // `state` drops here, inside the worker's obs scope.
        }
        slots
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)[c] = Some(out);
    };

    if threads == 1 {
        // Same chunk structure, no spawn: the ambient obs scope of the
        // calling thread is already installed.
        run_worker();
    } else {
        let handle = fiveg_obs::current();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| match &handle {
                    Some(h) => fiveg_obs::scoped(h, run_worker),
                    None => run_worker(),
                });
            }
        });
    }

    let slots = slots
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    // Every chunk index is claimed by construction (the atomic counter
    // covers 0..n_chunks); the flatten keeps this total without a panic
    // path, and the debug assert documents the invariant in test builds.
    debug_assert!(slots.iter().all(Option::is_some), "every chunk claimed");
    let mut out = Vec::with_capacity(items.len());
    for s in slots {
        out.extend(s.into_iter().flatten());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_order_is_input_order_for_any_thread_count() {
        let items: Vec<u64> = (0..1000).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        for threads in [1, 2, 8] {
            let got = par_map_with(
                &items,
                threads,
                || (),
                |(), i, &x| {
                    assert_eq!(i as u64, x);
                    x * 3 + 1
                },
            );
            assert_eq!(got, expect, "threads={threads}");
        }
        assert_eq!(
            par_map_with(&Vec::<u64>::new(), 4, || (), |(), _, &x| x),
            vec![]
        );
    }

    #[test]
    fn state_is_per_chunk_regardless_of_threads() {
        let items: Vec<usize> = (0..CHUNK * 3 + 5).collect();
        for threads in [1, 2, 8] {
            let inits = AtomicUsize::new(0);
            let _ = par_map_with(
                &items,
                threads,
                || inits.fetch_add(1, Ordering::Relaxed),
                |_, _, &x| x,
            );
            assert_eq!(
                inits.load(Ordering::Relaxed),
                items.len().div_ceil(CHUNK),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn obs_counters_propagate_to_workers() {
        let items: Vec<u64> = (0..300).collect();
        let mut totals = Vec::new();
        for threads in [1, 2, 8] {
            let m = fiveg_obs::MetricsHandle::new();
            fiveg_obs::scoped(&m, || {
                let _ = par_map_with(
                    &items,
                    threads,
                    || (),
                    |(), _, &x| {
                        fiveg_obs::counter_add("par.test.work", 1);
                        x
                    },
                );
            });
            totals.push(m.snapshot().counters["par.test.work"]);
        }
        assert_eq!(totals, vec![300, 300, 300]);
    }
}
