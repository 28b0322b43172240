//! # fiveg-bench
//!
//! The benchmark harness: the bench report and its hot-path micros, and
//! the `repro` binary that regenerates every table and figure of the
//! paper as text + JSON artifacts.

#![warn(missing_docs, clippy::unwrap_used, clippy::expect_used)]

pub mod micro;
pub mod report;

pub use micro::{
    city_attach_micro, city_sweep_micro, fleet_shard_micro, phy_sample_micro, trace_overhead_micro,
};
pub use report::{
    compare_to_baseline, BenchComparison, BenchJob, BenchReport, BenchTotals, MicroBench,
    BENCH_SCHEMA, THROUGHPUT_WARN_FRACTION,
};
