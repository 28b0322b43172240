//! Reference outputs: the committed `expected/seed-2020.json` and the
//! campaign's bench baseline.

use fiveg_obs::json::{self, JsonValue};
use serde::Serialize;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The seed `expected/` holds outputs for.
pub const EXPECTED_SEED: u64 = 2020;

/// The committed expected-outputs file.
pub fn expected_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("expected/seed-{EXPECTED_SEED}.json"))
}

/// The campaign's committed per-job counter baseline (read-only).
pub fn baseline_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../golden/bench-baseline.json")
}

/// One workload's reference outputs.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct Expected {
    /// Output digest per op.
    pub digests: BTreeMap<String, String>,
    /// Deterministic obs counters of one round.
    pub counters: BTreeMap<String, u64>,
}

/// What a run is checked against besides its own first round.
#[derive(Debug, Default)]
pub struct Oracle {
    /// Committed outputs for this workload, at [`EXPECTED_SEED`].
    pub expected: Option<Expected>,
    /// `golden/bench-baseline.json`, at [`EXPECTED_SEED`].
    pub baseline: Option<JsonValue>,
}

fn read_json(path: &Path) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

impl Oracle {
    /// The oracle for `workload` at `seed`: the committed files at
    /// [`EXPECTED_SEED`], nothing otherwise (the run's own rounds and
    /// the traced pass's cross-checks are then the oracle).
    pub fn load(workload: &str, seed: u64) -> Result<Oracle, String> {
        if seed != EXPECTED_SEED {
            return Ok(Oracle::default());
        }
        let all = read_json(&expected_path())?;
        let w = all
            .get("workloads")
            .and_then(|w| w.get(workload))
            .ok_or_else(|| format!("{} has no `{workload}`", expected_path().display()))?;
        Ok(Oracle {
            expected: Some(parse_expected(w)?),
            baseline: Some(read_json(&baseline_path())?),
        })
    }
}

fn parse_expected(v: &JsonValue) -> Result<Expected, String> {
    let obj = |key: &str| {
        v.get(key)
            .and_then(JsonValue::as_object)
            .ok_or_else(|| format!("expected entry lacks `{key}`"))
    };
    let mut e = Expected::default();
    for (k, d) in obj("digests")? {
        let d = d
            .as_str()
            .ok_or_else(|| format!("digest `{k}` is not a string"))?;
        e.digests.insert(k.clone(), d.to_string());
    }
    for (k, c) in obj("counters")? {
        let c = c
            .as_u64()
            .ok_or_else(|| format!("counter `{k}` is not an integer"))?;
        e.counters.insert(k.clone(), c);
    }
    Ok(e)
}

#[derive(Serialize)]
struct ExpectedFile {
    seed: u64,
    workloads: BTreeMap<String, Expected>,
}

/// Renders the expected-outputs file for `workloads`.
pub fn render_expected(workloads: BTreeMap<String, Expected>) -> String {
    let file = ExpectedFile {
        seed: EXPECTED_SEED,
        workloads,
    };
    serde_json::to_string_pretty(&file).unwrap_or_default() + "\n"
}

/// Checks one campaign job's counters against the bench baseline row of
/// the same name; `None` when they match.
pub fn baseline_mismatch(
    baseline: &JsonValue,
    job: &str,
    counters: &BTreeMap<String, u64>,
) -> Option<String> {
    let Some(row) = baseline
        .get("jobs")
        .and_then(|j| j.get(job))
        .and_then(|r| r.get("counters"))
        .and_then(JsonValue::as_object)
    else {
        return Some(format!("baseline: no counters for job {job}"));
    };
    let base: BTreeMap<&str, Option<u64>> =
        row.iter().map(|(k, v)| (k.as_str(), v.as_u64())).collect();
    let got: BTreeMap<&str, Option<u64>> = counters
        .iter()
        .map(|(k, v)| (k.as_str(), Some(*v)))
        .collect();
    (base != got).then(|| format!("baseline: job {job} counters {got:?} != baseline {base:?}"))
}
