//! # fiveg-bench
//!
//! The bench report behind `repro --bench` (per-job counters and host
//! timings, and the counter-drift gate against a committed baseline),
//! and the `repro` binary that regenerates every table and figure of
//! the paper as text + JSON artifacts.

#![warn(missing_docs, clippy::unwrap_used, clippy::expect_used)]

pub mod report;

pub use report::{
    compare_to_baseline, BenchComparison, BenchReport, BenchTotals, BENCH_SCHEMA,
    THROUGHPUT_WARN_FRACTION,
};
