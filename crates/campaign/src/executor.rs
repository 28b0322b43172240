//! The deterministic parallel executor.
//!
//! A plain `std::thread` worker pool (no async runtime — the workload is
//! CPU-bound simulation). Work units are `(job, rep)` pairs; each unit's
//! RNG seed is a stable hash of `(base_seed, job_name, rep)`, so the
//! produced artifacts are byte-identical whatever the worker count or
//! scheduling order. Unit panics are caught with `catch_unwind`,
//! re-attempted up to the job's retry budget, and reported as failures
//! without disturbing sibling jobs.

use crate::job::{derive_seed, FidelityLevel, Job, JobCtx, JobOutput};
use crate::manifest::Manifest;
use crate::registry::Registry;
use std::panic::{self, AssertUnwindSafe};
#[expect(
    clippy::disallowed_types,
    reason = "the unit-claim counter in run_campaign"
)]
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Execution parameters for one campaign run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Base seed; per-unit seeds derive from it (see [`derive_seed`]).
    pub base_seed: u64,
    /// Fidelity handed to every job.
    pub fidelity: FidelityLevel,
    /// Worker threads (≥ 1): units run concurrently on this many
    /// workers, and each unit's sweeps and fleet shards fan out on as
    /// many threads ([`JobCtx::threads`]). Has no effect on results,
    /// only wall time.
    pub workers: usize,
    /// Substring filter over job names/sections (`--only`).
    pub only: Option<String>,
    /// Event tracing: when set, every unit runs under a fresh
    /// `fiveg-trace` sink in this mode and its columnar artifact is
    /// written/fingerprinted next to the JSON artifact.
    pub trace: Option<fiveg_trace::TraceMode>,
}

impl RunConfig {
    /// Quick-fidelity, single-worker config with the given base seed.
    pub fn new(base_seed: u64) -> RunConfig {
        RunConfig {
            base_seed,
            fidelity: FidelityLevel::Quick,
            workers: 1,
            only: None,
            trace: None,
        }
    }

    /// Sets the run's one thread count (clamped to ≥ 1): the number of
    /// concurrent units and each unit's sweep threads and fleet shards.
    pub fn workers(mut self, n: usize) -> RunConfig {
        self.workers = n.max(1);
        self
    }

    /// Sets the fidelity.
    pub fn fidelity(mut self, f: FidelityLevel) -> RunConfig {
        self.fidelity = f;
        self
    }

    /// Restricts the run to jobs matching `filter`.
    pub fn only(mut self, filter: impl Into<String>) -> RunConfig {
        self.only = Some(filter.into());
        self
    }

    /// Enables per-unit event tracing in the given mode.
    pub fn trace(mut self, mode: fiveg_trace::TraceMode) -> RunConfig {
        self.trace = Some(mode);
        self
    }
}

/// Terminal state of one work unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// The unit produced its output.
    Ok,
    /// All attempts failed; the message is the last error or panic.
    Failed(String),
}

/// The outcome of one `(job, rep)` work unit.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Job name.
    pub name: String,
    /// Job section.
    pub section: String,
    /// Repetition index.
    pub rep: u32,
    /// Derived seed the unit ran with.
    pub seed: u64,
    /// Attempts consumed (1 = first try succeeded).
    pub attempts: u32,
    /// Wall time across all attempts.
    pub wall: Duration,
    /// Terminal status.
    pub status: JobStatus,
    /// Output when `status == Ok`.
    pub output: Option<JobOutput>,
    /// Metrics recorded by the successful attempt (counters, gauges,
    /// histograms, span timers), when `status == Ok`.
    pub metrics: Option<fiveg_obs::Snapshot>,
    /// Finished trace artifact, when tracing was enabled and the unit
    /// succeeded.
    pub trace: Option<fiveg_trace::TraceOutput>,
}

impl JobResult {
    /// Whether the unit succeeded.
    pub fn is_ok(&self) -> bool {
        self.status == JobStatus::Ok
    }

    /// Artifact file stem: `name` for rep 0, `name.repN` for sweeps.
    pub fn artifact_stem(&self) -> String {
        if self.rep == 0 {
            self.name.clone()
        } else {
            format!("{}.rep{}", self.name, self.rep)
        }
    }
}

/// Progress notifications delivered to the `run` callback, on the
/// calling thread, as units start and finish.
#[derive(Debug, Clone)]
pub enum JobEvent {
    /// A worker picked up a unit.
    Started {
        /// Job name.
        name: String,
        /// Repetition index.
        rep: u32,
    },
    /// A unit reached a terminal state.
    Finished {
        /// Job name.
        name: String,
        /// Repetition index.
        rep: u32,
        /// Whether it succeeded.
        ok: bool,
        /// Failure message, when `!ok`.
        error: Option<String>,
        /// Attempts consumed.
        attempts: u32,
        /// Wall time in milliseconds.
        wall_ms: u64,
        /// Units finished so far (including this one).
        done: usize,
        /// Total units in the run.
        total: usize,
    },
}

/// Everything a campaign run produced.
#[derive(Debug)]
pub struct RunReport {
    /// Per-unit results, in deterministic `(registry, rep)` order.
    pub results: Vec<JobResult>,
    /// The run manifest (jobs, seeds, durations, artifact hashes).
    pub manifest: Manifest,
    /// Whether every registry job ran (no `only` filter left one out),
    /// so a golden check can also report goldens no job produced.
    pub whole_registry: bool,
    /// Total wall time of the run.
    pub wall: Duration,
}

impl RunReport {
    /// Number of failed units.
    pub fn failures(&self) -> usize {
        self.results.iter().filter(|r| !r.is_ok()).count()
    }
}

enum Msg {
    Started { unit: usize },
    Done { unit: usize, result: Box<JobResult> },
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

fn run_unit(job: &dyn Job, cfg: &RunConfig, rep: u32) -> JobResult {
    let seed = derive_seed(cfg.base_seed, job.name(), rep);
    let ctx = JobCtx {
        seed,
        base_seed: cfg.base_seed,
        fidelity: cfg.fidelity,
        rep,
        threads: cfg.workers.max(1),
    };
    let max_attempts = 1 + job.retry_budget();
    #[expect(
        clippy::disallowed_methods,
        reason = "wall time feeds manifest.json, not artifacts"
    )]
    let start = Instant::now();
    let mut attempts = 0;
    let mut last_err = String::new();
    while attempts < max_attempts {
        attempts += 1;
        // A fresh registry per attempt keeps a failed attempt's partial
        // counts out of the retry's metrics; the unit runs entirely on
        // this worker thread, so the thread-local scope sees all of it.
        let metrics = fiveg_obs::MetricsHandle::new();
        // Like the metrics registry, the trace sink is per attempt so a
        // failed attempt's partial events never leak into the retry.
        let trace_sink = cfg.trace.map(|mode| {
            fiveg_trace::TraceHandle::new(fiveg_trace::TraceConfig {
                mode,
                ..fiveg_trace::TraceConfig::default()
            })
        });
        match panic::catch_unwind(AssertUnwindSafe(|| {
            fiveg_obs::scoped(&metrics, || {
                let _timer = fiveg_obs::span("job.run");
                let run = || job.run(&ctx);
                match &trace_sink {
                    Some(t) => fiveg_trace::scoped(t, run),
                    None => run(),
                }
            })
        })) {
            Ok(Ok(output)) => {
                // Finish inside the unit's obs scope so trace.events /
                // trace.bytes land in this unit's perf block.
                let trace = trace_sink
                    .as_ref()
                    .map(|t| fiveg_obs::scoped(&metrics, || t.finish()));
                return JobResult {
                    name: job.name().to_string(),
                    section: job.section().to_string(),
                    rep,
                    seed,
                    attempts,
                    wall: start.elapsed(),
                    status: JobStatus::Ok,
                    output: Some(output),
                    metrics: Some(metrics.snapshot()),
                    trace,
                };
            }
            Ok(Err(e)) => last_err = e,
            Err(payload) => last_err = format!("panic: {}", panic_message(payload)),
        }
    }
    JobResult {
        name: job.name().to_string(),
        section: job.section().to_string(),
        rep,
        seed,
        attempts,
        wall: start.elapsed(),
        status: JobStatus::Failed(last_err),
        output: None,
        metrics: None,
        trace: None,
    }
}

/// Runs the (optionally filtered) registry under `cfg`, invoking
/// `progress` for every unit start/finish, and returns the collected
/// results plus manifest.
///
/// Results are returned in deterministic `(registry order, rep)` order
/// regardless of completion order, and each unit's bytes depend only on
/// `(base_seed, job_name, rep, fidelity)` — never on `cfg.workers`.
pub fn run(registry: &Registry, cfg: &RunConfig, progress: &mut dyn FnMut(&JobEvent)) -> RunReport {
    let jobs: Vec<Arc<dyn Job>> = match &cfg.only {
        Some(f) => registry.matching(f),
        None => registry.jobs().to_vec(),
    };
    // Work units in deterministic order: registry order, then rep.
    let units: Vec<(Arc<dyn Job>, u32)> = jobs
        .iter()
        .flat_map(|j| (0..j.reps().max(1)).map(move |r| (j.clone(), r)))
        .collect();
    let total = units.len();
    #[expect(
        clippy::disallowed_methods,
        reason = "campaign wall time feeds manifest.json only"
    )]
    let start = Instant::now();

    #[expect(
        clippy::disallowed_types,
        reason = "workers claim unit indices; results land in per-unit slots, so claim order never reaches an artifact"
    )]
    let next_unit = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<Msg>();
    let mut slots: Vec<Option<JobResult>> = (0..total).map(|_| None).collect();

    thread::scope(|scope| {
        let workers = cfg.workers.max(1).min(total.max(1));
        for _ in 0..workers {
            let tx = tx.clone();
            let units = &units;
            let next_unit = &next_unit;
            scope.spawn(move || loop {
                let idx = next_unit.fetch_add(1, Ordering::Relaxed);
                if idx >= units.len() {
                    break;
                }
                let (job, rep) = &units[idx];
                if tx.send(Msg::Started { unit: idx }).is_err() {
                    break;
                }
                let result = run_unit(job.as_ref(), cfg, *rep);
                if tx
                    .send(Msg::Done {
                        unit: idx,
                        result: Box::new(result),
                    })
                    .is_err()
                {
                    break;
                }
            });
        }
        drop(tx);

        let mut done = 0usize;
        while let Ok(msg) = rx.recv() {
            match msg {
                Msg::Started { unit } => {
                    let (job, rep) = &units[unit];
                    progress(&JobEvent::Started {
                        name: job.name().to_string(),
                        rep: *rep,
                    });
                }
                Msg::Done { unit, result } => {
                    done += 1;
                    progress(&JobEvent::Finished {
                        name: result.name.clone(),
                        rep: result.rep,
                        ok: result.is_ok(),
                        error: match &result.status {
                            JobStatus::Failed(e) => Some(e.clone()),
                            JobStatus::Ok => None,
                        },
                        attempts: result.attempts,
                        wall_ms: result.wall.as_millis() as u64,
                        done,
                        total,
                    });
                    slots[unit] = Some(*result);
                }
            }
        }
    });

    let results: Vec<JobResult> = slots
        .into_iter()
        .enumerate()
        .map(|(unit, s)| {
            s.unwrap_or_else(|| {
                // A worker died before reporting this unit (it panicked
                // outside the catch_unwind in run_unit): record a failed
                // result instead of tearing down the whole run.
                let (job, rep) = &units[unit];
                JobResult {
                    name: job.name().to_string(),
                    section: job.section().to_string(),
                    rep: *rep,
                    seed: derive_seed(cfg.base_seed, job.name(), *rep),
                    attempts: 0,
                    wall: Duration::ZERO,
                    status: JobStatus::Failed(
                        "worker terminated before reporting a result".to_string(),
                    ),
                    output: None,
                    metrics: None,
                    trace: None,
                }
            })
        })
        .collect();
    let wall = start.elapsed();
    let manifest = Manifest::from_results(cfg, &results, wall);
    RunReport {
        results,
        manifest,
        whole_registry: jobs.len() == registry.jobs().len(),
        wall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{FnJob, JobOutput};

    fn seeded_job(name: &'static str) -> FnJob {
        FnJob::new(name, "test", |ctx| {
            Ok(JobOutput::new(
                format!("seed {}\n", ctx.seed),
                format!("{{\"seed\":{}}}", ctx.seed),
            ))
        })
    }

    fn registry() -> Registry {
        let mut r = Registry::new();
        r.register(seeded_job("a"));
        r.register(seeded_job("b"));
        r.register(seeded_job("c").with_reps(3));
        r
    }

    #[test]
    fn results_identical_across_worker_counts() {
        let reg = registry();
        let one = run(&reg, &RunConfig::new(7).workers(1), &mut |_| {});
        let four = run(&reg, &RunConfig::new(7).workers(4), &mut |_| {});
        assert_eq!(one.results.len(), 5);
        let json = |rep: &RunReport| -> Vec<String> {
            rep.results
                .iter()
                .map(|r| r.output.as_ref().unwrap().json.clone())
                .collect()
        };
        assert_eq!(json(&one), json(&four));
    }

    #[test]
    fn panicking_job_is_isolated_and_retried() {
        let mut reg = Registry::new();
        reg.register(seeded_job("good"));
        reg.register(
            FnJob::new("bad", "test", |_| panic!("intentional test panic")).with_retry_budget(2),
        );
        let report = run(&reg, &RunConfig::new(1).workers(2), &mut |_| {});
        assert_eq!(report.failures(), 1);
        let bad = report.results.iter().find(|r| r.name == "bad").unwrap();
        assert_eq!(bad.attempts, 3);
        assert!(matches!(&bad.status, JobStatus::Failed(e) if e.contains("intentional")));
        let good = report.results.iter().find(|r| r.name == "good").unwrap();
        assert!(good.is_ok());
    }

    #[test]
    fn job_level_errors_are_reported() {
        let mut reg = Registry::new();
        reg.register(FnJob::new("err", "test", |_| Err("no data".into())).with_retry_budget(0));
        let report = run(&reg, &RunConfig::new(1), &mut |_| {});
        assert!(matches!(&report.results[0].status, JobStatus::Failed(e) if e == "no data"));
        assert_eq!(report.results[0].attempts, 1);
    }

    #[test]
    fn only_filter_limits_units() {
        let reg = registry();
        let report = run(&reg, &RunConfig::new(7).only("a"), &mut |_| {});
        assert_eq!(report.results.len(), 1);
        assert_eq!(report.results[0].name, "a");
    }

    #[test]
    fn progress_events_cover_all_units() {
        let reg = registry();
        let mut started = 0;
        let mut finished = 0;
        run(&reg, &RunConfig::new(7).workers(3), &mut |ev| match ev {
            JobEvent::Started { .. } => started += 1,
            JobEvent::Finished { done, total, .. } => {
                finished += 1;
                assert_eq!(*total, 5);
                assert!(*done <= 5);
            }
        });
        assert_eq!(started, 5);
        assert_eq!(finished, 5);
    }
}
