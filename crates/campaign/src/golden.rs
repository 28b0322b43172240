//! Golden-result regression checks.
//!
//! A golden directory holds the committed artifacts of a blessed run
//! (same base seed and fidelity): each JSON artifact and each trace
//! sidecar is pinned exactly once, either as a file of the same name or,
//! when it is larger than [`MAX_GOLDEN_FILE_BYTES`], as a `<name> <hex>`
//! line of [`HASH_LIST`] holding the FNV-1a hash of its bytes (the
//! manifest's `json_hash`). `check_run` diffs a fresh
//! [`crate::RunReport`] against it: any byte or hash difference,
//! missing pin, or failed job is drift, and the caller exits non-zero.
//! A run of the whole registry must also account for every pin: a
//! golden that no job produced is an orphan. `write_golden` blesses a
//! run into the same layout.

use crate::executor::RunReport;
use fiveg_obs::json::key_path_at;
use fiveg_simcore::hash::{fnv1a64, hex64};
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::Path;

/// Largest artifact that [`write_golden`] commits as a file; a larger
/// one is pinned by its hash in `json_hash.txt`.
pub const MAX_GOLDEN_FILE_BYTES: usize = 1 << 20;

/// File in a golden directory that pins the artifacts over
/// `MAX_GOLDEN_FILE_BYTES` (1 MiB): one `<name> <hex>` line each (16 lowercase
/// hex digits), sorted by name.
pub const HASH_LIST: &str = "json_hash.txt";

/// Outcome of checking one artifact against its golden file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactCheck {
    /// Bytes match.
    Match {
        /// Artifact file name.
        name: String,
    },
    /// Bytes differ; carries the first differing line, the byte offset
    /// of the divergence and the JSON key path enclosing it.
    Drift {
        /// Artifact file name.
        name: String,
        /// 1-based line number of the first difference.
        line: usize,
        /// 0-based byte offset where the two artifacts diverge.
        offset: usize,
        /// Dotted JSON key path enclosing the divergence in the golden
        /// file (e.g. `faults[1].impact`), or empty at top level.
        key: String,
        /// The golden line (or `<eof>`).
        expected: String,
        /// The freshly produced line (or `<eof>`).
        actual: String,
    },
    /// The artifact is pinned by hash and its hash differs.
    HashDrift {
        /// Artifact file name.
        name: String,
        /// The pinned hash from the golden directory's `json_hash.txt`.
        expected: String,
        /// The hash of the freshly produced bytes.
        actual: String,
    },
    /// The run produced an artifact with no committed golden.
    MissingGolden {
        /// Artifact file name.
        name: String,
    },
    /// A run of the whole registry produced nothing for this pin.
    Orphan {
        /// Pinned artifact file name.
        name: String,
        /// Whether the pin is a `json_hash.txt` line rather than a file.
        hashed: bool,
    },
    /// The job failed, so there is nothing to compare.
    JobFailed {
        /// Job name.
        name: String,
        /// Failure message.
        error: String,
    },
}

impl ArtifactCheck {
    /// Whether this check passes.
    pub fn is_ok(&self) -> bool {
        matches!(self, ArtifactCheck::Match { .. })
    }

    /// One-line rendering for reports.
    pub fn describe(&self) -> String {
        match self {
            ArtifactCheck::Match { name } => format!("ok      {name}"),
            ArtifactCheck::Drift {
                name,
                line,
                offset,
                key,
                expected,
                actual,
            } => {
                let at = if key.is_empty() {
                    format!("byte {offset}")
                } else {
                    format!("byte {offset}, key `{key}`")
                };
                format!(
                    "DRIFT   {name}: first difference at line {line} ({at})\n  golden: {expected}\n  actual: {actual}"
                )
            }
            ArtifactCheck::HashDrift {
                name,
                expected,
                actual,
            } => format!("DRIFT   {name}: hash {actual}, pinned {expected} in {HASH_LIST}"),
            ArtifactCheck::MissingGolden { name } => {
                format!("MISSING {name}: no golden file or hash (bless the run to add it)")
            }
            ArtifactCheck::Orphan { name, hashed } => {
                let pin = if *hashed {
                    format!("{HASH_LIST} line")
                } else {
                    "golden file".to_string()
                };
                format!("ORPHAN  {name}: {pin} that no job produced (delete it)")
            }
            ArtifactCheck::JobFailed { name, error } => {
                format!("FAILED  {name}: job did not produce an artifact: {error}")
            }
        }
    }
}

/// All artifact checks for one run.
#[derive(Debug, Clone)]
pub struct GoldenReport {
    /// Per-artifact outcomes, in run order.
    pub checks: Vec<ArtifactCheck>,
}

impl GoldenReport {
    /// Whether every artifact matched its golden.
    pub fn ok(&self) -> bool {
        self.checks.iter().all(ArtifactCheck::is_ok)
    }

    /// Number of non-matching artifacts.
    pub fn drift_count(&self) -> usize {
        self.checks.iter().filter(|c| !c.is_ok()).count()
    }

    /// Multi-line human summary.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for c in &self.checks {
            out.push_str(&c.describe());
            out.push('\n');
        }
        out.push_str(&format!(
            "golden check: {} artifacts, {} drifted\n",
            self.checks.len(),
            self.drift_count()
        ));
        out
    }
}

/// Byte offset at which the two strings diverge (`min(len)` when one is
/// a prefix of the other).
fn first_diff_offset(expected: &str, actual: &str) -> usize {
    expected
        .bytes()
        .zip(actual.bytes())
        .position(|(e, a)| e != a)
        .unwrap_or_else(|| expected.len().min(actual.len()))
}

fn first_diff_line(expected: &str, actual: &str) -> (usize, String, String) {
    for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
        if e != a {
            return (i + 1, e.to_string(), a.to_string());
        }
    }
    let n = expected.lines().count().min(actual.lines().count());
    let e = expected.lines().nth(n).unwrap_or("<eof>").to_string();
    let a = actual.lines().nth(n).unwrap_or("<eof>").to_string();
    (n + 1, e, a)
}

/// Reads `dir`'s `json_hash.txt` as `name -> hex`; empty when the file
/// does not exist.
fn read_hash_list(dir: &Path) -> io::Result<BTreeMap<String, String>> {
    let path = dir.join(HASH_LIST);
    let text = match fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(BTreeMap::new()),
        Err(e) => return Err(e),
    };
    let mut pins = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        match line.split_once(' ') {
            Some((name, hex))
                if hex.len() == 16
                    && hex.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) =>
            {
                pins.insert(name.to_string(), hex.to_string());
            }
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "{}:{}: expected `<name> <16 lowercase hex digits>`, got `{line}`",
                        path.display(),
                        i + 1
                    ),
                ))
            }
        }
    }
    Ok(pins)
}

/// The run's golden-checked artifacts as `(file name, bytes)`: each
/// successful unit's JSON artifact and, when it was traced, its trace
/// sidecar (which carries the binary's `bin_hash`). Failed units come
/// back as [`ArtifactCheck::JobFailed`].
fn produced_artifacts(report: &RunReport) -> (Vec<(String, &str)>, Vec<ArtifactCheck>) {
    let mut produced = Vec::new();
    let mut failed = Vec::new();
    for r in &report.results {
        match &r.output {
            Some(out) => {
                let stem = r.artifact_stem();
                produced.push((format!("{stem}.json"), out.json.as_str()));
                if let Some(t) = &r.trace {
                    produced.push((format!("{stem}.trace.json"), t.sidecar.as_str()));
                }
            }
            None => failed.push(ArtifactCheck::JobFailed {
                name: r.name.clone(),
                error: match &r.status {
                    crate::JobStatus::Failed(e) => e.clone(),
                    crate::JobStatus::Ok => String::new(),
                },
            }),
        }
    }
    (produced, failed)
}

/// Checks `(file_name, produced_bytes)` pairs against `golden_dir`: a
/// golden file is compared byte for byte, else a `json_hash.txt` pin by
/// hash, else the artifact has no golden.
pub fn check_artifacts(golden_dir: &Path, produced: &[(String, &str)]) -> io::Result<GoldenReport> {
    let hashes = read_hash_list(golden_dir)?;
    let mut checks = Vec::new();
    for &(ref name, actual) in produced {
        let path = golden_dir.join(name);
        let name = name.clone();
        let check = if path.exists() {
            let expected = fs::read_to_string(&path)?;
            if expected == actual {
                ArtifactCheck::Match { name }
            } else {
                let (line, e, a) = first_diff_line(&expected, actual);
                let offset = first_diff_offset(&expected, actual);
                ArtifactCheck::Drift {
                    name,
                    line,
                    offset,
                    key: key_path_at(&expected, offset),
                    expected: e,
                    actual: a,
                }
            }
        } else if let Some(pinned) = hashes.get(&name) {
            let hash = hex64(fnv1a64(actual.as_bytes()));
            if &hash == pinned {
                ArtifactCheck::Match { name }
            } else {
                ArtifactCheck::HashDrift {
                    name,
                    expected: pinned.clone(),
                    actual: hash,
                }
            }
        } else {
            ArtifactCheck::MissingGolden { name }
        };
        checks.push(check);
    }
    Ok(GoldenReport { checks })
}

/// Checks every artifact a run produced (and flags failed jobs) against
/// `golden_dir`. When the run covered the whole registry, every
/// `*.json` golden file and `json_hash.txt` line that no unit produced is
/// an [`ArtifactCheck::Orphan`]; a failed unit's pins are not.
pub fn check_run(golden_dir: &Path, report: &RunReport) -> io::Result<GoldenReport> {
    let (produced, failed) = produced_artifacts(report);
    let mut rep = check_artifacts(golden_dir, &produced)?;
    if report.whole_registry {
        let mut claimed: BTreeSet<String> = produced.into_iter().map(|(name, _)| name).collect();
        for r in report.results.iter().filter(|r| !r.is_ok()) {
            let stem = r.artifact_stem();
            claimed.insert(format!("{stem}.json"));
            claimed.insert(format!("{stem}.trace.json"));
        }
        // Files first, then hash lines, each sorted by name.
        let mut orphans = BTreeSet::new();
        for entry in fs::read_dir(golden_dir)? {
            let name = entry?.file_name().to_string_lossy().into_owned();
            if name.ends_with(".json") && !claimed.contains(&name) {
                orphans.insert((false, name));
            }
        }
        for name in read_hash_list(golden_dir)?.into_keys() {
            if !claimed.contains(&name) {
                orphans.insert((true, name));
            }
        }
        rep.checks.extend(
            orphans
                .into_iter()
                .map(|(hashed, name)| ArtifactCheck::Orphan { name, hashed }),
        );
    }
    rep.checks.extend(failed);
    Ok(rep)
}

/// Blesses a run as the new golden in `dir` (created if needed): each
/// artifact `check_run` compares is pinned as a file, or by hash when
/// it is larger than `MAX_GOLDEN_FILE_BYTES` (1 MiB). A pin of the other kind
/// for the same name is removed, and the other `json_hash.txt` lines are
/// kept. Returns the number of artifacts pinned.
pub fn write_golden(dir: &Path, report: &RunReport) -> io::Result<usize> {
    fs::create_dir_all(dir)?;
    let mut hashes = read_hash_list(dir)?;
    let (produced, _) = produced_artifacts(report);
    for &(ref name, bytes) in &produced {
        let path = dir.join(name);
        if bytes.len() > MAX_GOLDEN_FILE_BYTES {
            hashes.insert(name.clone(), hex64(fnv1a64(bytes.as_bytes())));
            remove_if_present(&path)?;
        } else {
            hashes.remove(name);
            fs::write(&path, bytes)?;
        }
    }
    let list = dir.join(HASH_LIST);
    if hashes.is_empty() {
        remove_if_present(&list)?;
    } else {
        let text: String = hashes
            .iter()
            .map(|(name, hex)| format!("{name} {hex}\n"))
            .collect();
        fs::write(&list, text)?;
    }
    Ok(produced.len())
}

fn remove_if_present(path: &Path) -> io::Result<()> {
    match fs::remove_file(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
        r => r,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let d =
            std::env::temp_dir().join(format!("fiveg-golden-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn match_drift_and_missing() {
        let dir = tempdir("basic");
        fs::write(dir.join("a.json"), "{\n  \"v\": 1\n}").unwrap();
        fs::write(dir.join("b.json"), "{\n  \"v\": 2\n}").unwrap();
        let produced = vec![
            ("a.json".to_string(), "{\n  \"v\": 1\n}"),
            ("b.json".to_string(), "{\n  \"v\": 9\n}"),
            ("c.json".to_string(), "{}"),
        ];
        let rep = check_artifacts(&dir, &produced).unwrap();
        assert!(!rep.ok());
        assert_eq!(rep.drift_count(), 2);
        assert!(rep.checks[0].is_ok());
        match &rep.checks[1] {
            ArtifactCheck::Drift {
                line,
                offset,
                key,
                expected,
                actual,
                ..
            } => {
                assert_eq!(*line, 2);
                // `{\n  "v": 2` vs `{\n  "v": 9` diverge at the value.
                assert_eq!(*offset, 9);
                assert_eq!(key, "v");
                assert!(expected.contains('2'));
                assert!(actual.contains('9'));
            }
            other => panic!("expected drift, got {other:?}"),
        }
        assert!(matches!(
            &rep.checks[2],
            ArtifactCheck::MissingGolden { .. }
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_path_walks_nesting() {
        let src = r#"{
  "top": 1,
  "faults": [
    { "kind": "outage", "impact": 71 },
    { "kind": "storm", "impact": 21 }
  ]
}"#;
        let at = src.find("21").unwrap();
        assert_eq!(key_path_at(src, at), "faults[1].impact");
        let at = src.find('1').unwrap();
        assert_eq!(key_path_at(src, at), "top");
        assert_eq!(key_path_at(src, 0), "");
    }

    #[test]
    fn key_path_survives_escapes_and_strings_with_braces() {
        let src = r#"{ "a": "not { a key", "b": "esc \" quote", "c": 5 }"#;
        let at = src.find('5').unwrap();
        assert_eq!(key_path_at(src, at), "c");
        // Divergence inside a string value names that value's key.
        let at = src.find("quote").unwrap();
        assert_eq!(key_path_at(src, at), "b");
    }

    #[test]
    fn drift_describe_names_offset_and_key() {
        let dir = tempdir("offset");
        fs::write(
            dir.join("t.json"),
            "{\n  \"rsrp\": [\n    -85.5,\n    5.6\n  ]\n}",
        )
        .unwrap();
        let produced = vec![(
            "t.json".to_string(),
            "{\n  \"rsrp\": [\n    -85.5,\n    5.7\n  ]\n}",
        )];
        let rep = check_artifacts(&dir, &produced).unwrap();
        match &rep.checks[0] {
            ArtifactCheck::Drift { offset, key, .. } => {
                assert_eq!(key, "rsrp[1]");
                let text = rep.checks[0].describe();
                assert!(text.contains(&format!("byte {offset}")), "{text}");
                assert!(text.contains("key `rsrp[1]`"), "{text}");
            }
            other => panic!("expected drift, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn prefix_truncation_diverges_at_shorter_len() {
        assert_eq!(first_diff_offset("abcdef", "abc"), 3);
        assert_eq!(first_diff_offset("abc", "abc"), 3);
        assert_eq!(first_diff_offset("xbc", "abc"), 0);
    }

    /// A job whose artifact is a fixed string.
    struct Fixed(&'static str, String);

    impl crate::Job for Fixed {
        fn name(&self) -> &str {
            self.0
        }
        fn section(&self) -> &str {
            "test"
        }
        fn run(&self, _: &crate::JobCtx) -> Result<crate::JobOutput, String> {
            Ok(crate::JobOutput::new(String::new(), self.1.clone()))
        }
    }

    fn one_job_run(name: &'static str, json: String, trace: bool) -> RunReport {
        let mut reg = crate::Registry::new();
        reg.register(Fixed(name, json));
        let mut cfg = crate::RunConfig::new(1);
        if trace {
            cfg = cfg.trace(fiveg_trace::TraceMode::Full);
        }
        crate::run(&reg, &cfg, &mut |_| {})
    }

    /// A JSON array just over the file limit.
    fn big_json() -> String {
        let mut s = "[0".to_string();
        while s.len() <= MAX_GOLDEN_FILE_BYTES {
            s.push_str(",0");
        }
        s.push(']');
        s
    }

    #[test]
    fn hash_pin_matches_and_drift_names_both_hashes() {
        let dir = tempdir("hash");
        let pinned = hex64(fnv1a64(b"[1, 2]"));
        fs::write(dir.join(HASH_LIST), format!("big.json {pinned}\n")).unwrap();
        let rep = check_artifacts(&dir, &[("big.json".to_string(), "[1, 2]")]).unwrap();
        assert!(rep.ok(), "{}", rep.summary());

        let rep = check_artifacts(&dir, &[("big.json".to_string(), "[1, 3]")]).unwrap();
        let actual = hex64(fnv1a64(b"[1, 3]"));
        assert_eq!(
            rep.checks[0],
            ArtifactCheck::HashDrift {
                name: "big.json".into(),
                expected: pinned.clone(),
                actual: actual.clone(),
            }
        );
        let text = rep.checks[0].describe();
        assert!(text.starts_with("DRIFT   big.json"), "{text}");
        assert!(text.contains(&pinned) && text.contains(&actual), "{text}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_hash_list_is_an_error_naming_the_line() {
        let dir = tempdir("badlist");
        fs::write(dir.join(HASH_LIST), "a.json 0123456789abcdef\nb.json xyz\n").unwrap();
        let err = check_artifacts(&dir, &[]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains(":2: expected"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_artifact_round_trips_through_one_hash_line() {
        let dir = tempdir("oversized");
        let json = big_json();
        let report = one_job_run("big", json.clone(), false);
        assert_eq!(write_golden(&dir, &report).unwrap(), 1);
        assert!(!dir.join("big.json").exists(), "no file over the limit");
        assert_eq!(
            fs::read_to_string(dir.join(HASH_LIST)).unwrap(),
            format!("big.json {}\n", hex64(fnv1a64(json.as_bytes())))
        );
        let rep = check_run(&dir, &report).unwrap();
        assert!(rep.ok(), "{}", rep.summary());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rebless_flips_the_pin_kind_and_keeps_other_lines() {
        let dir = tempdir("flip");
        let keep = "keep.json 0123456789abcdef\n";
        fs::write(dir.join(HASH_LIST), keep).unwrap();
        let small = one_job_run("art", "{\"v\": 1}".into(), false);
        let big = one_job_run("art", big_json(), false);
        // The one-job registry is the whole registry, so the kept line,
        // which no job produced, is an orphan, and nothing else fails.
        let only_keep_orphaned = |rep: GoldenReport| {
            let failing: Vec<_> = rep.checks.into_iter().filter(|c| !c.is_ok()).collect();
            failing
                == [ArtifactCheck::Orphan {
                    name: "keep.json".into(),
                    hashed: true,
                }]
        };

        write_golden(&dir, &big).unwrap();
        assert!(!dir.join("art.json").exists());
        let list = fs::read_to_string(dir.join(HASH_LIST)).unwrap();
        assert_eq!(list.lines().count(), 2, "{list}");
        assert!(
            list.starts_with("art.json ") && list.ends_with(keep),
            "{list}"
        );
        assert!(only_keep_orphaned(check_run(&dir, &big).unwrap()));

        write_golden(&dir, &small).unwrap();
        assert_eq!(
            fs::read_to_string(dir.join("art.json")).unwrap(),
            "{\"v\": 1}"
        );
        assert_eq!(fs::read_to_string(dir.join(HASH_LIST)).unwrap(), keep);
        assert!(only_keep_orphaned(check_run(&dir, &small).unwrap()));
        // The big run now drifts against the file, located by byte.
        assert!(matches!(
            check_run(&dir, &big).unwrap().checks[0],
            ArtifactCheck::Drift { offset: 0, .. }
        ));

        // With no hash pin left, the list itself goes.
        fs::remove_file(dir.join(HASH_LIST)).unwrap();
        write_golden(&dir, &big).unwrap();
        write_golden(&dir, &small).unwrap();
        assert!(!dir.join(HASH_LIST).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_sidecar_is_blessed_and_its_drift_located_by_key() {
        let dir = tempdir("sidecar");
        let report = one_job_run("traced", "{}".into(), true);
        assert_eq!(write_golden(&dir, &report).unwrap(), 2);
        let sidecar = dir.join("traced.trace.json");
        let text = fs::read_to_string(&sidecar).unwrap();
        assert!(check_run(&dir, &report).unwrap().ok());

        // Flip one digit of the pinned binary hash.
        let at = text.find("\"bin_hash\": \"").unwrap() + "\"bin_hash\": \"".len();
        let mut bytes = text.into_bytes();
        bytes[at] = if bytes[at] == b'0' { b'1' } else { b'0' };
        fs::write(&sidecar, &bytes).unwrap();
        let rep = check_run(&dir, &report).unwrap();
        assert_eq!(rep.drift_count(), 1, "{}", rep.summary());
        match &rep.checks[1] {
            ArtifactCheck::Drift {
                name, offset, key, ..
            } => {
                assert_eq!(name, "traced.trace.json");
                assert_eq!(*offset, at);
                assert_eq!(key, "bin_hash");
            }
            other => panic!("expected sidecar drift, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn orphans_fail_a_whole_registry_check_only() {
        let dir = tempdir("orphans");
        let mut reg = crate::Registry::new();
        reg.register(Fixed("art", "{}".into()));
        reg.register(crate::FnJob::new("broken", "test", |_| Err("boom".into())));
        let whole = crate::run(&reg, &crate::RunConfig::new(1), &mut |_| {});
        write_golden(&dir, &whole).unwrap();
        fs::write(dir.join("broken.json"), "{}").unwrap();
        fs::write(dir.join("fig99.json"), "{}").unwrap();
        fs::write(dir.join(HASH_LIST), "fig98.json 0123456789abcdef\n").unwrap();

        let rep = check_run(&dir, &whole).unwrap();
        let failing: Vec<String> = rep
            .checks
            .iter()
            .filter(|c| !c.is_ok())
            .map(ArtifactCheck::describe)
            .collect();
        // A failed job's golden is not an orphan: the job is reported.
        assert_eq!(failing.len(), 3, "{}", rep.summary());
        assert!(failing[0].starts_with("ORPHAN  fig99.json: golden file that no job"));
        assert!(failing[1].starts_with("ORPHAN  fig98.json: json_hash.txt line that no job"));
        assert!(failing[2].starts_with("FAILED  broken"));

        let only = crate::run(&reg, &crate::RunConfig::new(1).only("art"), &mut |_| {});
        assert!(check_run(&dir, &only).unwrap().ok());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn summary_counts() {
        let dir = tempdir("summary");
        fs::write(dir.join("x.json"), "1").unwrap();
        let rep = check_artifacts(&dir, &[("x.json".to_string(), "1")]).unwrap();
        assert!(rep.ok());
        assert!(rep.summary().contains("0 drifted"));
        let _ = fs::remove_dir_all(&dir);
    }
}
