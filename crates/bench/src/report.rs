//! Benchmark reports: the `BENCH_0003.json` schema and the drift
//! comparator behind `repro --bench` / `--bench-check`.
//!
//! A bench report summarises one campaign run per job: deterministic
//! work counters (events executed, packets forwarded, HARQ tries, …)
//! plus advisory host timings (wall time, events per second), and — new
//! in schema 3 — a `micro` section of eight targeted hot-path
//! microbenchmarks: `phy.sample` (the radio measurement path),
//! `city.sweep.100k`, `city.attach.{full,incremental}`,
//! `shard.fleet.{serial,sharded}` and `trace.{full,ring}`. The CI perf
//! gate compares a fresh report against a committed baseline:
//!
//! * **counter drift is a failure** — counters depend only on the seed,
//!   so any change means the simulation itself changed;
//! * **throughput regression is a warning** — wall time depends on the
//!   host, so a slow machine must not fail the build. Only a drop of
//!   more than [`THROUGHPUT_WARN_FRACTION`] is called out.

use fiveg_campaign::{JobResult, RunReport};
use fiveg_obs::{parse_json, JsonValue};
use serde::Serialize;
use std::collections::BTreeMap;

/// Schema version of the bench report (the `0003` in `BENCH_0003.json`).
pub const BENCH_SCHEMA: u32 = 3;

/// Relative `events_per_sec` drop that triggers a regression warning.
pub const THROUGHPUT_WARN_FRACTION: f64 = 0.25;

/// One job's row in a bench report.
#[derive(Debug, Clone, Serialize)]
pub struct BenchJob {
    /// Wall time, milliseconds (advisory).
    pub wall_ms: u64,
    /// Simulation events executed (deterministic).
    pub events: u64,
    /// Events per wall-clock second (advisory).
    pub events_per_sec: u64,
    /// All deterministic counters, sorted by name.
    pub counters: BTreeMap<String, u64>,
}

/// Whole-run totals, aggregated over all jobs.
#[derive(Debug, Clone, Serialize)]
pub struct BenchTotals {
    /// Sum of per-job wall times, milliseconds (advisory).
    pub wall_ms: u64,
    /// Total simulation events executed (deterministic).
    pub events: u64,
    /// Aggregate events per wall-clock second (advisory).
    pub events_per_sec: u64,
}

/// One microbenchmark row: a fixed, seed-deterministic hot-path
/// workload timed outside the campaign executor.
#[derive(Debug, Clone, Serialize)]
pub struct MicroBench {
    /// Wall time, milliseconds (advisory).
    pub wall_ms: u64,
    /// Measurement samples taken (deterministic).
    pub samples: u64,
    /// Samples per wall-clock second (advisory).
    pub samples_per_sec: u64,
    /// All deterministic counters the workload recorded, sorted by name.
    pub counters: BTreeMap<String, u64>,
}

/// The `BENCH_0003.json` document.
#[derive(Debug, Clone, Serialize)]
pub struct BenchReport {
    /// Bench schema version.
    pub schema: u32,
    /// Fidelity name of the run (`"quick"` / `"paper"`).
    pub fidelity: String,
    /// Base seed of the run.
    pub base_seed: u64,
    /// Per-job rows, keyed by artifact stem (`name` or `name.repN`).
    pub jobs: BTreeMap<String, BenchJob>,
    /// Whole-run totals.
    pub totals: BenchTotals,
    /// Hot-path microbenchmarks, keyed by name (e.g. `phy.sample`).
    pub micro: BTreeMap<String, MicroBench>,
}

fn bench_job(r: &JobResult) -> Option<BenchJob> {
    let snap = r.metrics.as_ref()?;
    let counters = snap.deterministic();
    let events = counters.get("sim.events.executed").copied().unwrap_or(0);
    let events_per_sec = if r.wall.as_secs_f64() > 0.0 {
        (events as f64 / r.wall.as_secs_f64()) as u64
    } else {
        0
    };
    Some(BenchJob {
        wall_ms: r.wall.as_millis() as u64,
        events,
        events_per_sec,
        counters,
    })
}

impl BenchReport {
    /// Builds the report from a finished campaign run. Failed units are
    /// skipped (they have no metrics); the caller already fails the run.
    pub fn from_run(report: &RunReport) -> BenchReport {
        let mut jobs = BTreeMap::new();
        for r in &report.results {
            if let Some(row) = bench_job(r) {
                jobs.insert(r.artifact_stem(), row);
            }
        }
        let wall_ms: u64 = jobs.values().map(|j| j.wall_ms).sum();
        let events: u64 = jobs.values().map(|j| j.events).sum();
        let events_per_sec = if wall_ms > 0 {
            (events as f64 / (wall_ms as f64 / 1000.0)) as u64
        } else {
            0
        };
        BenchReport {
            schema: BENCH_SCHEMA,
            fidelity: report.manifest.fidelity.clone(),
            base_seed: report.manifest.base_seed,
            jobs,
            totals: BenchTotals {
                wall_ms,
                events,
                events_per_sec,
            },
            micro: BTreeMap::new(),
        }
    }

    /// Pretty JSON rendering (`BTreeMap` keys keep it byte-stable for
    /// identical counter content).
    pub fn to_json(&self) -> String {
        // Serialisation of plain data cannot fail; keep the library
        // panic-free rather than abort a whole campaign on a bug here.
        serde_json::to_string_pretty(self).unwrap_or_else(|_| "{}".to_string())
    }
}

/// Outcome of comparing a fresh bench report against a baseline.
#[derive(Debug, Clone, Default)]
pub struct BenchComparison {
    /// Counter drift — any entry here must fail the gate.
    pub failures: Vec<String>,
    /// Advisory throughput regressions — reported, never fatal.
    pub warnings: Vec<String>,
}

impl BenchComparison {
    /// Whether the gate passes (warnings allowed).
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// Human-readable summary, one line per finding.
    pub fn summary(&self) -> String {
        let mut s = String::new();
        for f in &self.failures {
            s.push_str("bench FAIL: ");
            s.push_str(f);
            s.push('\n');
        }
        for w in &self.warnings {
            s.push_str("bench warn: ");
            s.push_str(w);
            s.push('\n');
        }
        if self.failures.is_empty() && self.warnings.is_empty() {
            s.push_str("bench: counters match baseline, throughput within bounds\n");
        }
        s
    }
}

fn u64_field(job: &JsonValue, field: &str) -> Option<u64> {
    job.get(field).and_then(JsonValue::as_u64)
}

/// Compares `current` against a parsed `baseline` document (the JSON of
/// an earlier [`BenchReport`]). Counter drift — a job missing on either
/// side, a counter missing on either side, or any value difference — is
/// a failure; an `events_per_sec` drop beyond
/// [`THROUGHPUT_WARN_FRACTION`] is a warning.
pub fn compare_to_baseline(
    current: &BenchReport,
    baseline_json: &str,
) -> Result<BenchComparison, String> {
    let doc = parse_json(baseline_json).map_err(|e| format!("baseline is not valid JSON: {e}"))?;
    let base_jobs = doc
        .get("jobs")
        .and_then(JsonValue::as_object)
        .ok_or_else(|| "baseline has no `jobs` object".to_string())?;

    let mut cmp = BenchComparison::default();
    for name in base_jobs.keys() {
        if !current.jobs.contains_key(name) {
            cmp.failures
                .push(format!("job `{name}` in baseline but not in this run"));
        }
    }
    for (name, job) in &current.jobs {
        let Some(base) = base_jobs.get(name) else {
            cmp.failures.push(format!(
                "job `{name}` not in baseline (re-bless golden/bench-baseline.json)"
            ));
            continue;
        };
        let base_counters = base
            .get("counters")
            .and_then(JsonValue::as_object)
            .ok_or_else(|| format!("baseline job `{name}` has no `counters` object"))?;
        for key in base_counters.keys() {
            if !job.counters.contains_key(key) {
                cmp.failures
                    .push(format!("{name}: counter `{key}` disappeared"));
            }
        }
        for (key, &val) in &job.counters {
            match base_counters.get(key).and_then(JsonValue::as_u64) {
                None => cmp
                    .failures
                    .push(format!("{name}: counter `{key}` not in baseline")),
                Some(b) if b != val => cmp
                    .failures
                    .push(format!("{name}: counter `{key}` drifted {b} -> {val}")),
                Some(_) => {}
            }
        }
        if let Some(base_eps) = u64_field(base, "events_per_sec") {
            let eps = job.events_per_sec;
            if base_eps > 0 && (eps as f64) < (base_eps as f64) * (1.0 - THROUGHPUT_WARN_FRACTION) {
                cmp.warnings.push(format!(
                    "{name}: events/sec fell {base_eps} -> {eps} (>{:.0}% regression; advisory)",
                    THROUGHPUT_WARN_FRACTION * 100.0
                ));
            }
        }
    }

    // Microbenchmark section (schema 3). Same rules: counter drift
    // fails, samples/sec only warns. A baseline that predates the
    // section cannot gate it — fail loudly so it gets re-blessed rather
    // than silently skipping the check.
    match doc.get("micro").and_then(JsonValue::as_object) {
        None => {
            if !current.micro.is_empty() {
                cmp.failures.push(
                    "baseline has no `micro` section (schema < 3; re-bless golden/bench-baseline.json)"
                        .to_string(),
                );
            }
        }
        Some(base_micro) => {
            for name in base_micro.keys() {
                if !current.micro.contains_key(name) {
                    cmp.failures
                        .push(format!("micro `{name}` in baseline but not in this run"));
                }
            }
            for (name, row) in &current.micro {
                let Some(base) = base_micro.get(name) else {
                    cmp.failures.push(format!(
                        "micro `{name}` not in baseline (re-bless golden/bench-baseline.json)"
                    ));
                    continue;
                };
                let base_counters = base
                    .get("counters")
                    .and_then(JsonValue::as_object)
                    .ok_or_else(|| format!("baseline micro `{name}` has no `counters` object"))?;
                for key in base_counters.keys() {
                    if !row.counters.contains_key(key) {
                        cmp.failures
                            .push(format!("micro {name}: counter `{key}` disappeared"));
                    }
                }
                for (key, &val) in &row.counters {
                    match base_counters.get(key).and_then(JsonValue::as_u64) {
                        None => cmp
                            .failures
                            .push(format!("micro {name}: counter `{key}` not in baseline")),
                        Some(b) if b != val => cmp.failures.push(format!(
                            "micro {name}: counter `{key}` drifted {b} -> {val}"
                        )),
                        Some(_) => {}
                    }
                }
                if let Some(base_sps) = u64_field(base, "samples_per_sec") {
                    let sps = row.samples_per_sec;
                    if base_sps > 0
                        && (sps as f64) < (base_sps as f64) * (1.0 - THROUGHPUT_WARN_FRACTION)
                    {
                        cmp.warnings.push(format!(
                            "micro {name}: samples/sec fell {base_sps} -> {sps} (>{:.0}% regression; advisory)",
                            THROUGHPUT_WARN_FRACTION * 100.0
                        ));
                    }
                }
            }
        }
    }
    Ok(cmp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(counters: &[(&str, u64)], eps: u64) -> BenchReport {
        let counters: BTreeMap<String, u64> =
            counters.iter().map(|&(k, v)| (k.to_string(), v)).collect();
        let events = counters.get("sim.events.executed").copied().unwrap_or(0);
        let mut jobs = BTreeMap::new();
        jobs.insert(
            "table1".to_string(),
            BenchJob {
                wall_ms: 10,
                events,
                events_per_sec: eps,
                counters,
            },
        );
        BenchReport {
            schema: BENCH_SCHEMA,
            fidelity: "quick".into(),
            base_seed: 2020,
            jobs,
            totals: BenchTotals {
                wall_ms: 10,
                events,
                events_per_sec: eps,
            },
            micro: BTreeMap::new(),
        }
    }

    fn with_micro(mut r: BenchReport, counters: &[(&str, u64)], sps: u64) -> BenchReport {
        let counters: BTreeMap<String, u64> =
            counters.iter().map(|&(k, v)| (k.to_string(), v)).collect();
        let samples = counters.get("phy.measure.samples").copied().unwrap_or(0);
        r.micro.insert(
            "phy.sample".to_string(),
            MicroBench {
                wall_ms: 5,
                samples,
                samples_per_sec: sps,
                counters,
            },
        );
        r
    }

    #[test]
    fn identical_reports_pass() {
        let r = report_with(&[("sim.events.executed", 100)], 5_000);
        let cmp = compare_to_baseline(&r, &r.to_json()).unwrap();
        assert!(cmp.ok(), "{:?}", cmp.failures);
        assert!(cmp.warnings.is_empty());
    }

    #[test]
    fn counter_drift_fails() {
        let base = report_with(&[("sim.events.executed", 100)], 5_000);
        let cur = report_with(&[("sim.events.executed", 101)], 5_000);
        let cmp = compare_to_baseline(&cur, &base.to_json()).unwrap();
        assert!(!cmp.ok());
        assert!(cmp.failures[0].contains("drifted 100 -> 101"));
    }

    #[test]
    fn new_and_missing_counters_fail() {
        let base = report_with(&[("a", 1), ("b", 2)], 5_000);
        let cur = report_with(&[("a", 1), ("c", 3)], 5_000);
        let cmp = compare_to_baseline(&cur, &base.to_json()).unwrap();
        assert_eq!(cmp.failures.len(), 2, "{:?}", cmp.failures);
    }

    #[test]
    fn slow_run_warns_but_passes() {
        let base = report_with(&[("sim.events.executed", 100)], 10_000);
        let cur = report_with(&[("sim.events.executed", 100)], 1_000);
        let cmp = compare_to_baseline(&cur, &base.to_json()).unwrap();
        assert!(cmp.ok(), "throughput regressions must not fail the gate");
        assert_eq!(cmp.warnings.len(), 1);
        assert!(cmp.summary().contains("bench warn"));
    }

    #[test]
    fn missing_job_fails_both_directions() {
        let base = report_with(&[("a", 1)], 5_000);
        let mut cur = report_with(&[("a", 1)], 5_000);
        let row = cur.jobs.remove("table1").unwrap();
        cur.jobs.insert("table9".into(), row);
        let cmp = compare_to_baseline(&cur, &base.to_json()).unwrap();
        assert_eq!(cmp.failures.len(), 2, "{:?}", cmp.failures);
    }

    #[test]
    fn garbage_baseline_is_an_error() {
        let r = report_with(&[], 0);
        assert!(compare_to_baseline(&r, "not json").is_err());
        assert!(compare_to_baseline(&r, "{}").is_err());
    }

    #[test]
    fn micro_counter_drift_fails() {
        let base = with_micro(
            report_with(&[("a", 1)], 5_000),
            &[("phy.measure.samples", 720), ("phy.rays.traced", 33_840)],
            9_000,
        );
        let ok = compare_to_baseline(&base, &base.to_json()).unwrap();
        assert!(ok.ok(), "{:?}", ok.failures);
        let cur = with_micro(
            report_with(&[("a", 1)], 5_000),
            &[("phy.measure.samples", 720), ("phy.rays.traced", 33_000)],
            9_000,
        );
        let cmp = compare_to_baseline(&cur, &base.to_json()).unwrap();
        assert!(!cmp.ok());
        assert!(
            cmp.failures[0].contains("phy.rays.traced"),
            "{:?}",
            cmp.failures
        );
    }

    #[test]
    fn micro_slowdown_warns_but_passes() {
        let base = with_micro(report_with(&[("a", 1)], 5_000), &[("x", 1)], 10_000);
        let cur = with_micro(report_with(&[("a", 1)], 5_000), &[("x", 1)], 1_000);
        let cmp = compare_to_baseline(&cur, &base.to_json()).unwrap();
        assert!(cmp.ok(), "{:?}", cmp.failures);
        assert_eq!(cmp.warnings.len(), 1);
        assert!(cmp.warnings[0].contains("samples/sec"));
    }

    #[test]
    fn pre_micro_baseline_fails_when_run_has_micro() {
        let base = report_with(&[("a", 1)], 5_000);
        // Rename the `micro` key away to emulate a schema-2 baseline
        // document (rename rather than delete keeps the JSON valid).
        let base_json = base.to_json().replace("\"micro\"", "\"legacy\"");
        assert!(!base_json.contains("\"micro\""));
        let cur = with_micro(report_with(&[("a", 1)], 5_000), &[("x", 1)], 1_000);
        let cmp = compare_to_baseline(&cur, &base_json).unwrap();
        assert!(!cmp.ok());
        assert!(cmp.failures[0].contains("re-bless"), "{:?}", cmp.failures);
        // And a schema-2 baseline with a schema-2 run (no micro) still
        // passes — the gate only demands what the run produces.
        let cmp2 = compare_to_baseline(&base, &base_json).unwrap();
        assert!(cmp2.ok(), "{:?}", cmp2.failures);
    }
}
