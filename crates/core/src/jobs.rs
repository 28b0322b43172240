//! The paper suite as a [`fiveg_campaign`] job registry.
//!
//! Every table and figure of the paper's evaluation is registered as a
//! named [`Job`](fiveg_campaign::Job), so the campaign executor can run
//! the whole reproduction in parallel, write per-job artifacts and diff
//! them against committed goldens.
//!
//! Seeding convention: jobs that measure the one shared deployment (the
//! campus scenario of Sec. 3) build it from the run's *base* seed, so
//! all such figures describe the same campus — exactly as the paper
//! measures one operator network. Jobs with private randomness (flow
//! workloads, probe schedules) use the per-job *derived* seed, which
//! makes their streams independent of each other and of scheduling.

use crate::experiments::{application, coverage, discussion, energy, handoff, latency, throughput};
use crate::{Fidelity, Scenario};
use fiveg_campaign::{FidelityLevel, FnJob, JobCtx, JobOutput, Registry};
use serde::Serialize;

/// Maps the orchestration-layer fidelity knob onto the experiment one.
pub fn fidelity_of(level: FidelityLevel) -> Fidelity {
    match level {
        FidelityLevel::Quick => Fidelity::Quick,
        FidelityLevel::Paper => Fidelity::Paper,
    }
}

fn output<T: Serialize>(text: String, value: &T) -> Result<JobOutput, String> {
    let json = serde_json::to_string_pretty(value).map_err(|e| format!("serialise: {e}"))?;
    Ok(JobOutput::new(text, json))
}

fn scenario(ctx: &JobCtx) -> Scenario {
    Scenario::paper(ctx.base_seed)
}

fn fid(ctx: &JobCtx) -> Fidelity {
    fidelity_of(ctx.fidelity)
}

macro_rules! jobs {
    ($( $fname:ident ($ctx:ident) => $expr:expr; )*) => {
        $(
            fn $fname($ctx: &JobCtx) -> Result<JobOutput, String> {
                let r = $expr;
                output(r.to_text(), &r)
            }
        )*
    };
}

jobs! {
    // Sec. 3: coverage.
    job_table1(ctx) => coverage::table1(&scenario(ctx), ctx.threads);
    job_table2(ctx) => coverage::table2(&scenario(ctx), 4630, ctx.threads);
    job_fig2a(ctx) => coverage::fig2a(&scenario(ctx), 20.0, ctx.threads);
    job_fig2b(ctx) => coverage::fig2b(&scenario(ctx), ctx.threads);
    job_fig3(ctx) => coverage::fig3(&scenario(ctx));
    // Sec. 3.4: hand-off.
    job_fig4(ctx) => handoff::fig4(&scenario(ctx));
    job_fig5_fig6(ctx) => handoff::handoff_study(&scenario(ctx), fid(ctx));
    job_fig12(ctx) => handoff::fig12(
        &scenario(ctx),
        if fid(ctx) == Fidelity::Paper { 30 } else { 5 },
    );
    // Sec. 4: throughput & loss.
    job_fig7(ctx) => throughput::fig7(fid(ctx), ctx.seed);
    job_fig8(ctx) => throughput::fig8(fid(ctx), ctx.seed);
    job_fig9(ctx) => throughput::fig9(fid(ctx), ctx.seed);
    job_fig10(ctx) => throughput::fig10(ctx.seed, 100_000);
    job_fig11(ctx) => throughput::fig11(fid(ctx), ctx.seed);
    job_table3(ctx) => throughput::table3(fid(ctx), ctx.seed);
    // Sec. 4.4: latency.
    job_fig13(ctx) => latency::fig13(fid(ctx), ctx.seed);
    job_fig14(ctx) => latency::fig14(ctx.seed, 100);
    job_fig15(ctx) => latency::fig15(fid(ctx), ctx.seed);
    // Sec. 5: applications.
    job_fig16(ctx) => application::fig16(fid(ctx), ctx.seed);
    job_fig17(ctx) => application::fig17(ctx.seed);
    job_fig18_19_20(ctx) => application::video_study(fid(ctx), ctx.seed);
    // Sec. 6: energy.
    job_fig21(_ctx) => energy::fig21(60);
    job_fig22(_ctx) => energy::fig22();
    job_fig23(_ctx) => energy::fig23();
    job_table4(_ctx) => energy::table4();
    // Sec. 8: discussion.
    job_sec8_cpe_dsl(ctx) => discussion::cpe_study(&scenario(ctx));
}

/// Builds the full paper suite, in paper order. Job names double as
/// artifact file stems (`table1.json`, `fig7.json`, ...), and sections
/// let `--only` select whole paper sections (e.g. `--only coverage`).
pub fn paper_registry() -> Registry {
    let mut r = Registry::new();
    r.register(FnJob::new("table1", "sec3-coverage", job_table1));
    r.register(FnJob::new("table2", "sec3-coverage", job_table2));
    r.register(FnJob::new("fig2a", "sec3-coverage", job_fig2a));
    r.register(FnJob::new("fig2b", "sec3-coverage", job_fig2b));
    r.register(FnJob::new("fig3", "sec3-coverage", job_fig3));
    r.register(FnJob::new("fig4", "sec3.4-handoff", job_fig4));
    r.register(FnJob::new("fig5_fig6", "sec3.4-handoff", job_fig5_fig6));
    r.register(FnJob::new("fig12", "sec3.4-handoff", job_fig12));
    r.register(FnJob::new("fig7", "sec4-throughput", job_fig7));
    r.register(FnJob::new("fig8", "sec4-throughput", job_fig8));
    r.register(FnJob::new("fig9", "sec4-throughput", job_fig9));
    r.register(FnJob::new("fig10", "sec4-throughput", job_fig10));
    r.register(FnJob::new("fig11", "sec4-throughput", job_fig11));
    r.register(FnJob::new("table3", "sec4-throughput", job_table3));
    r.register(FnJob::new("fig13", "sec4.4-latency", job_fig13));
    r.register(FnJob::new("fig14", "sec4.4-latency", job_fig14));
    r.register(FnJob::new("fig15", "sec4.4-latency", job_fig15));
    r.register(FnJob::new("fig16", "sec5-applications", job_fig16));
    r.register(FnJob::new("fig17", "sec5-applications", job_fig17));
    r.register(FnJob::new(
        "fig18_19_20",
        "sec5-applications",
        job_fig18_19_20,
    ));
    r.register(FnJob::new("fig21", "sec6-energy", job_fig21));
    r.register(FnJob::new("fig22", "sec6-energy", job_fig22));
    r.register(FnJob::new("fig23", "sec6-energy", job_fig23));
    r.register(FnJob::new("table4", "sec6-energy", job_table4));
    r.register(FnJob::new(
        "sec8_cpe_dsl",
        "sec8-discussion",
        job_sec8_cpe_dsl,
    ));
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use fiveg_campaign::{run, RunConfig};

    #[test]
    fn registry_covers_the_paper() {
        let r = paper_registry();
        assert_eq!(r.len(), 25);
        // One job per section family the paper evaluates.
        for section in [
            "sec3-coverage",
            "sec3.4-handoff",
            "sec4-throughput",
            "sec4.4-latency",
            "sec5-applications",
            "sec6-energy",
            "sec8-discussion",
        ] {
            assert!(!r.matching(section).is_empty(), "{section}");
        }
    }

    #[test]
    fn fidelity_mapping_round_trips() {
        assert_eq!(fidelity_of(FidelityLevel::Quick), Fidelity::Quick);
        assert_eq!(fidelity_of(FidelityLevel::Paper), Fidelity::Paper);
    }

    #[test]
    fn table4_job_runs_and_serialises() {
        // table4 is the cheapest pure-model job — a fast end-to-end
        // check that registry jobs produce both renderings.
        let report = run(
            &paper_registry(),
            &RunConfig::new(2020).only("table4"),
            &mut |_| {},
        );
        assert_eq!(report.failures(), 0);
        let out = report.results[0].output.as_ref().unwrap();
        assert!(out.text.contains("Table 4"));
        assert!(out.json.starts_with('{'));
    }
}
