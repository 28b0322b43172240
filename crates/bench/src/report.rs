//! Benchmark reports: the `BENCH_0004.json` schema and the drift
//! comparator behind `repro --bench` / `--bench-check`.
//!
//! A bench report summarises one campaign run per job: deterministic
//! work counters (events executed, packets forwarded, HARQ tries, …)
//! plus advisory host timings (wall time, events per second). Layer
//! timings outside the campaign are the `benchmark/` workloads' job. The
//! CI quick-campaign stage compares a fresh report against a committed
//! baseline:
//!
//! * **counter drift is a failure** — counters depend only on the seed,
//!   so any change means the simulation itself changed;
//! * **throughput regression is a warning** — wall time depends on the
//!   host, so a slow machine must not fail the build. Only a drop of
//!   more than [`THROUGHPUT_WARN_FRACTION`] is called out.

use fiveg_campaign::{PerfBlock, RunReport};
use fiveg_obs::{parse_json, JsonValue};
use serde::Serialize;
use std::collections::BTreeMap;

/// Schema version of the bench report (the `0004` in `BENCH_0004.json`).
pub const BENCH_SCHEMA: u32 = 4;

/// Relative `events_per_sec` drop that triggers a regression warning.
pub const THROUGHPUT_WARN_FRACTION: f64 = 0.25;

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

/// The `BENCH_0004.json` document.
#[derive(Debug, Clone, Serialize)]
pub struct BenchReport {
    /// Bench schema version.
    pub schema: u32,
    /// Fidelity name of the run (`"quick"` / `"paper"`).
    pub fidelity: String,
    /// Base seed of the run.
    pub base_seed: u64,
    /// Per-job rows, keyed by artifact stem (`name` or `name.repN`):
    /// the manifest's perf block of each successful unit.
    pub jobs: BTreeMap<String, PerfBlock>,
    /// Whole-run totals.
    pub totals: BenchTotals,
}

impl BenchReport {
    /// Builds the report from a finished campaign run. Failed units are
    /// skipped (they have no metrics); the caller already fails the run.
    pub fn from_run(report: &RunReport) -> BenchReport {
        let mut jobs = BTreeMap::new();
        for r in &report.results {
            if let Some(row) = PerfBlock::from_result(r) {
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
/// an earlier [`BenchReport`]). A baseline without a `schema`, or of
/// another schema than [`BENCH_SCHEMA`], is an error. Counter drift — a
/// job missing on either side, a counter missing on either side, or any
/// value difference — is a failure; an `events_per_sec` drop beyond
/// [`THROUGHPUT_WARN_FRACTION`] is a warning.
pub fn compare_to_baseline(
    current: &BenchReport,
    baseline_json: &str,
) -> Result<BenchComparison, String> {
    let doc = parse_json(baseline_json).map_err(|e| format!("baseline is not valid JSON: {e}"))?;
    match doc.get("schema").and_then(JsonValue::as_u64) {
        Some(schema) if schema == u64::from(BENCH_SCHEMA) => {}
        Some(schema) => {
            return Err(format!(
                "baseline is bench schema {schema}, this build writes schema {BENCH_SCHEMA}"
            ))
        }
        None => {
            return Err(format!(
                "baseline has no numeric `schema`, this build writes schema {BENCH_SCHEMA}"
            ))
        }
    }
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
            PerfBlock {
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
        }
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
    fn other_schema_baseline_is_an_error() {
        let r = report_with(&[("sim.events.executed", 100)], 5_000);
        let schema3 =
            r.to_json()
                .replacen(&format!("\"schema\": {BENCH_SCHEMA},"), "\"schema\": 3,", 1);
        assert_ne!(schema3, r.to_json());
        let err = compare_to_baseline(&r, &schema3).unwrap_err();
        let named = format!("schema {BENCH_SCHEMA}");
        assert!(err.contains("schema 3") && err.contains(&named), "{err}");
        let err = compare_to_baseline(&r, r#"{"jobs": {}}"#).unwrap_err();
        assert!(err.contains("no numeric `schema`"), "{err}");
    }

    #[test]
    fn garbage_baseline_is_an_error() {
        let r = report_with(&[], 0);
        assert!(compare_to_baseline(&r, "not json").is_err());
        assert!(compare_to_baseline(&r, "{}").is_err());
    }
}
