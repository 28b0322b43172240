//! `campaign-quick`: registry jobs through the campaign executor.

use crate::oracle::{baseline_mismatch, Oracle};
use crate::{span, Probe, Round, Workload};
use fiveg_core::campaign::{self, Job, JobCtx, JobOutput, JobStatus, Registry, RunConfig};
use fiveg_core::simcore::hash::{fnv1a64, hex64};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The jobs of one round: every paper registry job except the five
/// longest (fig12, fig7, fig8, fig9, table3 take 40 of the quick
/// campaign's 47 s on a 2-core host, so a run could not repeat them).
/// `bulk-flows` drives the packet DES those five spend their time in.
pub const ROUND_JOBS: [&str; 20] = [
    "table1",
    "table2",
    "fig2a",
    "fig2b",
    "fig3",
    "fig4",
    "fig5_fig6",
    "fig10",
    "fig11",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18_19_20",
    "fig21",
    "fig22",
    "fig23",
    "table4",
    "sec8_cpe_dsl",
];

/// Jobs whose share of job time is reported on its own, with the metric
/// name; the rest add up to `campaign.job_share.other`.
pub const JOB_SHARES: [(&str, &str); 5] = [
    ("fig18_19_20", "campaign.job_share.fig18_19_20"),
    ("fig11", "campaign.job_share.fig11"),
    ("fig16", "campaign.job_share.fig16"),
    ("fig17", "campaign.job_share.fig17"),
    ("fig5_fig6", "campaign.job_share.fig5_fig6"),
];

/// A registry job shared with the paper registry it came from.
struct Shared(Arc<dyn Job>);

impl Job for Shared {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn section(&self) -> &str {
        self.0.section()
    }
    fn reps(&self) -> u32 {
        self.0.reps()
    }
    fn retry_budget(&self) -> u32 {
        self.0.retry_budget()
    }
    fn run(&self, ctx: &JobCtx) -> Result<JobOutput, String> {
        self.0.run(ctx)
    }
}

/// The campaign workload's input: a registry of the round's jobs.
pub struct Campaign {
    registry: Registry,
    seed: u64,
}

impl Campaign {
    /// Selects `jobs` from the paper registry; `seed` is the base seed.
    pub fn new(seed: u64, jobs: &[&str]) -> Result<Campaign, String> {
        let paper = fiveg_core::jobs::paper_registry();
        let mut registry = Registry::new();
        for name in jobs {
            let job = paper
                .jobs()
                .iter()
                .find(|j| j.name() == *name)
                .ok_or_else(|| format!("no registry job `{name}`"))?;
            registry.register(Shared(job.clone()));
        }
        Ok(Campaign { registry, seed })
    }
}

impl Workload for Campaign {
    /// One campaign run on one worker. Work unit: a registry job.
    fn round(&self, probe: Option<&mut Probe>) -> Round {
        let cfg = RunConfig::new(self.seed).workers(1);
        let start = Instant::now();
        let report = campaign::run(&self.registry, &cfg, &mut |_| {});
        let run_wall = start.elapsed();

        let mut round = Round::default();
        let mut merged = fiveg_obs::Snapshot::default();
        let mut jobs = Duration::ZERO;
        let mut probe = probe;
        for r in &report.results {
            round.ops += 1;
            match (&r.status, &r.output) {
                (JobStatus::Ok, Some(out)) => {
                    round.work += 1.0;
                    round
                        .digests
                        .insert(r.artifact_stem(), hex64(fnv1a64(out.json.as_bytes())));
                }
                _ => round.errors += 1,
            }
            if let Some(m) = &r.metrics {
                merged.merge(m);
                round
                    .op_counters
                    .insert(r.artifact_stem(), m.deterministic());
            }
            jobs += r.wall;
            if let Some(p) = probe.as_deref_mut() {
                p.add(&format!("job.{}", r.name), r.wall);
                p.calls.record(r.wall);
            }
        }
        round.counters = merged.deterministic();
        if let Some(p) = probe {
            p.add(span::JOBS, jobs);
            p.add(span::CAMPAIGN_SELF, run_wall.saturating_sub(jobs));
        }
        round
    }

    /// At the committed seed, every job's counters must equal its row
    /// in the campaign's bench baseline.
    fn check(&self, first: &Round, oracle: &Oracle) -> Vec<String> {
        let Some(baseline) = &oracle.baseline else {
            return Vec::new();
        };
        first
            .op_counters
            .iter()
            .filter_map(|(job, c)| baseline_mismatch(baseline, job, c))
            .collect()
    }
}
