//! The job abstraction: what the executor schedules.

use fiveg_simcore::hash::stable_hash_fields;

/// How long/large a job's campaign runs.
///
/// Mirrors `fiveg_core::Fidelity` without depending on it — the
/// orchestration layer sits *below* the experiment facade in the crate
/// DAG, so it owns the CLI-facing knob and `fiveg-core` maps it onto its
/// own type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FidelityLevel {
    /// Short runs for tests, CI and smoke checks.
    Quick,
    /// Paper-methodology scale (60 s flows, full campaigns).
    Paper,
}

impl FidelityLevel {
    /// Stable lowercase name, used in manifests.
    pub fn name(self) -> &'static str {
        match self {
            FidelityLevel::Quick => "quick",
            FidelityLevel::Paper => "paper",
        }
    }
}

/// Everything a job may depend on. Handed to [`Job::run`].
///
/// `seed` is already derived for this `(job, rep)` unit — jobs must draw
/// all randomness from it and nothing else, which is what makes results
/// independent of scheduling.
#[derive(Debug, Clone, Copy)]
pub struct JobCtx {
    /// Derived RNG seed for this unit (see [`derive_seed`]).
    pub seed: u64,
    /// The run's base seed, shared by every job. Jobs that measure one
    /// common deployment (the campus scenario) build it from this, so
    /// all figures describe the *same* campus; job-private randomness
    /// must come from `seed`.
    pub base_seed: u64,
    /// Requested fidelity.
    pub fidelity: FidelityLevel,
    /// Repetition index within the job's seed sweep, `0..reps`.
    pub rep: u32,
    /// Threads the unit may fan out on: its grid sweeps and its fleet
    /// shards. The executor sets it to the run's worker count
    /// ([`crate::RunConfig::workers`]); results never depend on it.
    pub threads: usize,
}

/// What a job produces: the human-readable rendering and the JSON
/// artifact that golden checks diff.
#[derive(Debug, Clone)]
pub struct JobOutput {
    /// Text rendering (paper-vs-measured table).
    pub text: String,
    /// JSON artifact; must be deterministic for a given [`JobCtx`].
    pub json: String,
}

impl JobOutput {
    /// Bundles the two renderings.
    pub fn new(text: String, json: String) -> JobOutput {
        JobOutput { text, json }
    }
}

/// A schedulable unit of the measurement campaign.
///
/// Implementations must be deterministic functions of the [`JobCtx`]:
/// same ctx, same output bytes. They may panic; the executor isolates
/// panics and charges them against [`Job::retry_budget`].
pub trait Job: Send + Sync {
    /// Unique name, used for seeds, artifact files and `--only` filters.
    fn name(&self) -> &str;

    /// Paper section/family the job belongs to (e.g. `"coverage"`).
    fn section(&self) -> &str;

    /// Number of seed-sweep repetitions; `1` for single-shot jobs.
    fn reps(&self) -> u32 {
        1
    }

    /// How many times a failing unit may be re-attempted (same seed).
    fn retry_budget(&self) -> u32 {
        1
    }

    /// Runs one unit of the job.
    fn run(&self, ctx: &JobCtx) -> Result<JobOutput, String>;
}

/// A [`Job`] built from a plain function pointer plus metadata — the
/// registration currency of `fiveg-core::jobs`.
pub struct FnJob {
    name: &'static str,
    section: &'static str,
    reps: u32,
    retry_budget: u32,
    runner: fn(&JobCtx) -> Result<JobOutput, String>,
}

impl FnJob {
    /// Single-rep job with the default retry budget of one retry.
    pub fn new(
        name: &'static str,
        section: &'static str,
        runner: fn(&JobCtx) -> Result<JobOutput, String>,
    ) -> FnJob {
        FnJob {
            name,
            section,
            reps: 1,
            retry_budget: 1,
            runner,
        }
    }

    /// Sets the number of seed-sweep repetitions.
    #[cfg(test)]
    pub(crate) fn with_reps(mut self, reps: u32) -> FnJob {
        assert!(reps >= 1, "a job needs at least one rep");
        self.reps = reps;
        self
    }

    /// Sets the per-unit retry budget.
    #[cfg(test)]
    pub(crate) fn with_retry_budget(mut self, retries: u32) -> FnJob {
        self.retry_budget = retries;
        self
    }
}

impl Job for FnJob {
    fn name(&self) -> &str {
        self.name
    }
    fn section(&self) -> &str {
        self.section
    }
    fn reps(&self) -> u32 {
        self.reps
    }
    fn retry_budget(&self) -> u32 {
        self.retry_budget
    }
    fn run(&self, ctx: &JobCtx) -> Result<JobOutput, String> {
        (self.runner)(ctx)
    }
}

/// Derives the RNG seed for one `(job, rep)` unit.
///
/// Stable-hashes `(base_seed, job_name, rep)` so the seed depends only
/// on identity, never on worker count, scheduling order or registry
/// position — the core determinism guarantee of the executor.
pub fn derive_seed(base_seed: u64, job_name: &str, rep: u32) -> u64 {
    stable_hash_fields(&[
        &base_seed.to_le_bytes(),
        job_name.as_bytes(),
        &rep.to_le_bytes(),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_seed_is_stable_and_spreads() {
        assert_eq!(
            derive_seed(2020, "table1", 0),
            derive_seed(2020, "table1", 0)
        );
        assert_ne!(
            derive_seed(2020, "table1", 0),
            derive_seed(2020, "table1", 1)
        );
        assert_ne!(
            derive_seed(2020, "table1", 0),
            derive_seed(2020, "table2", 0)
        );
        assert_ne!(
            derive_seed(2020, "table1", 0),
            derive_seed(2021, "table1", 0)
        );
    }

    #[test]
    fn fn_job_carries_metadata() {
        let j = FnJob::new("x", "sec", |_| {
            Ok(JobOutput::new(String::new(), String::new()))
        })
        .with_reps(3)
        .with_retry_budget(0);
        assert_eq!(j.name(), "x");
        assert_eq!(j.section(), "sec");
        assert_eq!(j.reps(), 3);
        assert_eq!(j.retry_budget(), 0);
    }
}
