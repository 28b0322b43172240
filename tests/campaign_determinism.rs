//! End-to-end campaign guarantees, exercised with the real paper jobs:
//!
//! * artifacts are byte-identical whatever the worker count, which
//!   also sets each job's sweep threads and fleet shards,
//! * a panicking job is retried, reported failed, and never disturbs
//!   its siblings,
//! * golden checks accept a blessed run and reject a perturbed one.

use fiveg_campaign::{
    check_run, derive_seed, run, write_golden, ArtifactCheck, FnJob, Job, JobOutput, JobStatus,
    Registry, RunConfig, RunReport,
};
use fiveg_core::jobs::paper_registry;
use fiveg_core::scenario_dsl::{parse_scenario, WorkloadSpec};
use fiveg_core::scenario_run::ScenarioJob;
use fiveg_core::CHUNK;
use std::fs;

/// The cheap end of the suite: model-only jobs that finish in
/// milliseconds, so the determinism comparison runs the real experiment
/// code twice without dominating the test suite.
const CHEAP: &str = "sec6-energy";

fn artifact_bytes(report: &RunReport) -> Vec<(String, String)> {
    report
        .results
        .iter()
        .map(|r| {
            (
                r.artifact_stem(),
                r.output.as_ref().expect("job succeeded").json.clone(),
            )
        })
        .collect()
}

#[test]
fn worker_count_does_not_change_artifacts() {
    let reg = paper_registry();
    let one = run(
        &reg,
        &RunConfig::new(2020).only(CHEAP).workers(1),
        &mut |_| {},
    );
    let four = run(
        &reg,
        &RunConfig::new(2020).only(CHEAP).workers(4),
        &mut |_| {},
    );
    assert_eq!(one.failures(), 0);
    assert_eq!(four.failures(), 0);
    assert!(one.results.len() >= 4, "energy section has 4 jobs");
    assert_eq!(artifact_bytes(&one), artifact_bytes(&four));
    // Manifest rows (minus wall time) agree too: same seeds, hashes,
    // order.
    for (a, b) in one.manifest.jobs.iter().zip(&four.manifest.jobs) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.json_hash, b.json_hash);
    }
}

#[test]
fn metrics_counters_are_identical_across_worker_counts() {
    let reg = paper_registry();
    let one = run(
        &reg,
        &RunConfig::new(2020).only(CHEAP).workers(1),
        &mut |_| {},
    );
    let eight = run(
        &reg,
        &RunConfig::new(2020).only(CHEAP).workers(8),
        &mut |_| {},
    );
    for (a, b) in one.results.iter().zip(&eight.results) {
        assert_eq!(a.name, b.name);
        let (sa, sb) = (a.metrics.as_ref().unwrap(), b.metrics.as_ref().unwrap());
        // The full deterministic view — counters, gauges, flattened
        // histogram buckets — must not depend on the worker count.
        assert_eq!(sa.deterministic(), sb.deterministic(), "{}", a.name);
        // Span timers carry host wall time and are exactly the part
        // excluded from the comparison above.
        assert!(!sa.spans.is_empty() || sa.counters.is_empty());
    }
    // Manifest perf rows expose the same counters.
    for (row, r) in one.manifest.jobs.iter().zip(&one.results) {
        let perf = row.perf.as_ref().expect("successful job has perf row");
        assert_eq!(perf.counters, r.metrics.as_ref().unwrap().deterministic());
        assert_eq!(
            perf.events,
            perf.counters
                .get("sim.events.executed")
                .copied()
                .unwrap_or(0)
        );
    }
    // The energy jobs drive the radio state machine, so dwell counters
    // must actually be present — this guards against the scope silently
    // not being installed.
    let table4 = one.results.iter().find(|r| r.name == "table4").unwrap();
    let counters = table4.metrics.as_ref().unwrap().deterministic();
    assert!(
        counters.keys().any(|k| k.starts_with("energy.dwell_ns.")),
        "energy instrumentation missing: {:?}",
        counters.keys().collect::<Vec<_>>()
    );
}

/// A fleet of 192 UEs, three 64-UE chunks: at 3 workers and up its
/// job runs on three UE shards.
const THREE_CHUNK_FLEET: &str = r#"{
  "name": "three_chunk_fleet",
  "workload": { "kind": "fleet", "duration_s": 10, "tick_ms": 1000, "groups": [
    { "name": "walkers", "count": 96, "tech": "nr",
      "mobility": { "model": "waypoint", "speed_min_kmh": 3, "speed_max_kmh": 12 },
      "arrival": { "process": "steady" }, "app": { "kind": "bulk" } },
    { "name": "parked", "count": 96, "tech": "lte",
      "mobility": { "model": "static" },
      "arrival": { "process": "steady" },
      "app": { "kind": "video", "resolution": "1080p", "scene": "static" } } ] },
  "faults": [ { "kind": "cell_outage", "start_s": 3, "end_s": 7,
                "pcis": [60, 61, 62, 63, 64, 65] } ]
}"#;

#[test]
fn job_ctx_threads_is_the_worker_count() {
    let mut reg = Registry::new();
    reg.register(FnJob::new("threads_probe", "test", |ctx| {
        Ok(JobOutput::new(String::new(), ctx.threads.to_string()))
    }));
    for workers in [1, 2, 3, 8] {
        let report = run(&reg, &RunConfig::new(2020).workers(workers), &mut |_| {});
        let out = report.results[0].output.as_ref().expect("probe ran");
        assert_eq!(out.json, workers.to_string(), "workers={workers}");
    }
}

#[test]
fn fleet_job_is_identical_across_worker_and_shard_counts() {
    let spec = parse_scenario(THREE_CHUNK_FLEET, "mem").expect("parses");
    assert_eq!(spec.validate(), Ok(()));
    let WorkloadSpec::Fleet(fleet) = &spec.workload else {
        panic!("a fleet scenario")
    };
    let ues: u32 = fleet.groups.iter().map(|g| g.count).sum();
    assert!(
        (ues as usize).div_ceil(CHUNK) >= 3,
        "{ues} UEs must span three chunks"
    );
    let mut reg = Registry::new();
    reg.register(ScenarioJob::new(spec));
    // Workers 1 runs one UE shard; 2 runs two; 3 and 8 run three.
    let runs: Vec<RunReport> = [1, 2, 3, 8]
        .iter()
        .map(|&w| run(&reg, &RunConfig::new(2020).workers(w), &mut |_| {}))
        .collect();
    let base = &runs[0];
    assert_eq!(base.failures(), 0);
    let json = &base.results[0].output.as_ref().expect("fleet ran").json;
    assert!(
        json.contains(&format!("\"ues\": {ues}")),
        "the artifact reports all {ues} UEs"
    );
    let counters = base.results[0]
        .metrics
        .as_ref()
        .expect("metrics")
        .deterministic();
    assert!(counters.contains_key("shard.events"), "{counters:?}");
    for (r, w) in runs.iter().zip([1, 2, 3, 8]).skip(1) {
        assert_eq!(r.failures(), 0, "workers={w}");
        assert_eq!(artifact_bytes(r), artifact_bytes(base), "workers={w}");
        assert_eq!(
            r.results[0]
                .metrics
                .as_ref()
                .expect("metrics")
                .deterministic(),
            counters,
            "workers={w}"
        );
        assert_eq!(
            r.manifest.jobs[0].json_hash, base.manifest.jobs[0].json_hash,
            "workers={w}"
        );
    }
}

#[test]
fn seeds_are_per_job_and_stable() {
    let reg = paper_registry();
    let report = run(&reg, &RunConfig::new(7).only("sec6-energy"), &mut |_| {});
    for r in &report.results {
        assert_eq!(r.seed, derive_seed(7, &r.name, r.rep), "{}", r.name);
    }
    // Distinct jobs get distinct seeds.
    let mut seeds: Vec<u64> = report.results.iter().map(|r| r.seed).collect();
    seeds.sort_unstable();
    seeds.dedup();
    assert_eq!(seeds.len(), report.results.len());
}

#[test]
fn panicking_job_fails_without_aborting_siblings() {
    let mut reg = Registry::new();
    // A real paper job next to a job that always panics.
    for job in paper_registry().matching("table4") {
        reg.register(ArcJob(job));
    }
    reg.register(
        // `FnJob::new` grants one retry.
        FnJob::new("always_panics", "test", |_| {
            panic!("deliberate campaign-test panic")
        }),
    );
    let report = run(&reg, &RunConfig::new(2020).workers(2), &mut |_| {});
    assert_eq!(report.results.len(), 2);
    let bad = report
        .results
        .iter()
        .find(|r| r.name == "always_panics")
        .unwrap();
    assert!(!bad.is_ok());
    assert_eq!(bad.attempts, 2, "one retry consumed");
    assert!(
        matches!(&bad.status, JobStatus::Failed(e) if e.contains("deliberate")),
        "panic message propagates"
    );
    let good = report.results.iter().find(|r| r.name == "table4").unwrap();
    assert!(good.is_ok(), "sibling unaffected: {:?}", good.status);
}

/// Adapter re-registering an `Arc<dyn Job>` from another registry.
struct ArcJob(std::sync::Arc<dyn Job>);

impl Job for ArcJob {
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
    fn run(&self, ctx: &fiveg_campaign::JobCtx) -> Result<JobOutput, String> {
        self.0.run(ctx)
    }
}

#[test]
fn golden_check_accepts_blessed_and_rejects_perturbed() {
    let reg = paper_registry();
    let report = run(&reg, &RunConfig::new(2020).only("table4"), &mut |_| {});
    assert_eq!(report.failures(), 0);

    let dir = std::env::temp_dir().join(format!("fiveg-campaign-golden-it-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    write_golden(&dir, &report).unwrap();

    // Blessed bytes match.
    let clean = check_run(&dir, &report).unwrap();
    assert!(clean.ok(), "{}", clean.summary());

    // A one-character perturbation is drift.
    let golden = dir.join("table4.json");
    let text = fs::read_to_string(&golden).unwrap();
    let digit = text.find(|c: char| c.is_ascii_digit()).unwrap();
    let mut bytes = text.into_bytes();
    bytes[digit] = if bytes[digit] == b'9' {
        b'0'
    } else {
        bytes[digit] + 1
    };
    fs::write(&golden, &bytes).unwrap();
    let drifted = check_run(&dir, &report).unwrap();
    assert!(!drifted.ok());
    assert!(drifted
        .checks
        .iter()
        .any(|c| matches!(c, ArtifactCheck::Drift { name, .. } if name == "table4.json")));

    let _ = fs::remove_dir_all(&dir);
}
