//! # fiveg-campaign
//!
//! Campaign orchestration for the `fiveg` workspace: turns the paper's
//! ~30 independent experiment campaigns from a wall of sequential calls
//! into an enumerable, schedulable job system.
//!
//! The subsystem has three layers:
//!
//! * **Job registry** ([`Job`], [`Registry`]) — every experiment is a
//!   named [`Job`] (name, paper section, fidelity knobs) returning a
//!   [`JobOutput`] (human text + JSON artifact). The full paper suite
//!   becomes *data* that can be listed, filtered and sharded.
//! * **Deterministic parallel executor** ([`run`], [`RunConfig`]) — a plain
//!   `std::thread` worker pool (no async runtime, per DESIGN.md §4).
//!   Each `(job, rep)` unit derives its RNG seed by stable-hashing
//!   `(base_seed, job_name, rep)`, so artifacts are byte-identical for
//!   any worker count or scheduling order. Panicking jobs are isolated
//!   with `catch_unwind` and a per-job retry budget instead of killing
//!   the run.
//! * **Observability + regression** ([`JobEvent`], [`Manifest`],
//!   [`check_run`], [`write_golden`], [`write_run`]) — per-job
//!   status/wall-time progress events, a run `manifest.json` (jobs,
//!   seeds, durations, artifact hashes), and a golden-check mode that
//!   diffs fresh JSON artifacts against committed outputs and reports
//!   drift.
//!
//! The `repro` binary in `fiveg-bench` is a thin CLI over this crate;
//! `fiveg_core::jobs` registers the paper suite.
//!
//! ## Example
//!
//! ```
//! use fiveg_campaign::{FnJob, JobOutput, Registry, RunConfig, run};
//!
//! let mut reg = Registry::new();
//! reg.register(FnJob::new("double", "demo", |ctx| {
//!     let v = ctx.seed.wrapping_mul(2);
//!     Ok(JobOutput::new(format!("{v}\n"), format!("{{\"v\":{v}}}")))
//! }));
//! let report = run(&reg, &RunConfig::new(2020).workers(2), &mut |_| {});
//! assert_eq!(report.results.len(), 1);
//! assert!(report.results[0].is_ok());
//! ```

#![warn(missing_docs, clippy::unwrap_used, clippy::expect_used)]

mod artifacts;
mod executor;
mod golden;
mod job;
mod manifest;
mod registry;

pub use artifacts::write_run;
pub use executor::{run, JobEvent, JobResult, JobStatus, RunConfig, RunReport};
pub use golden::{check_run, write_golden, ArtifactCheck, GoldenReport};
pub use job::{derive_seed, FidelityLevel, FnJob, Job, JobCtx, JobOutput};
pub use manifest::{Manifest, ManifestJob, PerfBlock};
pub use registry::Registry;
