//! `fiveg-lint`: the workspace determinism linter.
//!
//! The campaign goldens prove *that* every artifact is byte-identical
//! for any `--jobs`/thread count; this crate proves *where* a hazard
//! entered. It scans `crates/`, `tests/` and `examples/` (never
//! `vendor/`) with its own Rust tokenizer ([`tokenizer`]), parses every
//! file into an item model ([`parser`]), resolves a name-based call
//! graph and enforces the rules that need that workspace model (see
//! [`rules::RULES`] and [`workspace`]): S-rules (shard safety:
//! S001–S003), F-rules (float determinism: F001) and W001 (the declared
//! crate-layering DAG).
//!
//! The invariants visible on one line (unordered maps, `partial_cmp`,
//! wall-clock reads, `static mut`, library panics, unsafe code and
//! missing docs) are rustc and clippy lints configured in
//! `crates/clippy.toml`, `[workspace.lints]` and each lib root;
//! [`rules::TOOLCHAIN_RULES`] maps each old rule id to its lint. No
//! rule is needed for unseeded RNG: `vendor/rand` has no entropy
//! source, so such code does not compile.
//!
//! Suppression is explicit and per site: a
//! `// fiveg-lint: allow(S00x) -- reason` pragma here, an
//! `#[expect(lint, reason = "...")]` attribute for the toolchain lints.
//! `--check` fails on any finding.

#![warn(missing_docs, clippy::unwrap_used, clippy::expect_used)]

pub mod parser;
pub mod rules;
pub mod selftest;
pub mod tokenizer;
pub mod workspace;

use std::fs;
use std::path::{Path, PathBuf};

pub use rules::{FileCtx, FileKind, Finding, RULES, TOOLCHAIN_RULES};

/// Directories scanned under the workspace root.
pub const SCAN_ROOTS: &[&str] = &["crates", "tests", "examples"];

/// Everything one scan produced.
#[derive(Debug, Default)]
pub struct ScanReport {
    /// All unsuppressed findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Number of findings silenced by pragmas.
    pub suppressed: usize,
    /// Number of `.rs` files scanned.
    pub files: usize,
}

/// Scans the workspace rooted at `root`: the semantic workspace pass
/// (S/F/W001 rules and pragma checks) over every source file plus the
/// crate manifests. Files are visited in sorted path order so the
/// report is deterministic; `vendor/`, `target/` and lint fixture
/// directories are never scanned.
pub fn scan_workspace(root: &Path) -> std::io::Result<ScanReport> {
    let mut files = Vec::new();
    for dir in SCAN_ROOTS {
        collect_rs_files(&root.join(dir), &mut files)?;
    }
    files.sort();
    let mut sources: Vec<workspace::SourceFile> = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let Some(ctx) = FileCtx::classify(&rel) else {
            continue;
        };
        let src = fs::read_to_string(&path)?;
        sources.push(workspace::SourceFile { ctx, src });
    }
    let manifests = workspace::load_manifests(root)?;
    let (findings, suppressed) = workspace::analyze(&sources, &manifests);
    Ok(ScanReport {
        findings,
        suppressed,
        files: sources.len(),
    })
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name == "target" || name == "fixtures" || name == "vendor" {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Renders findings as the stable JSON report (`--json`): findings
/// sorted by (file, line, rule), object keys sorted, no wall-clock or
/// host-dependent fields — byte-identical across runs and machines.
pub fn report_json(report: &ScanReport) -> String {
    let mut out = String::from("{\n  \"findings\": [\n");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str("    {\"excerpt\": ");
        escape_json_into(&mut out, &f.excerpt);
        out.push_str(", \"file\": ");
        escape_json_into(&mut out, &f.file);
        out.push_str(", \"hint\": ");
        escape_json_into(&mut out, f.hint);
        out.push_str(&format!(", \"line\": {}, \"rule\": ", f.line));
        escape_json_into(&mut out, f.rule);
        out.push('}');
    }
    if !report.findings.is_empty() {
        out.push('\n');
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"summary\": {{\"files\": {}, \"suppressed\": {}, \"total\": {}}},\n",
        report.files,
        report.suppressed,
        report.findings.len()
    ));
    out.push_str("  \"schema\": 2\n}\n");
    out
}

/// Appends `s` as a JSON string literal.
fn escape_json_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The rule id with the most findings, with its count — named in the
/// CI failure message so the offending invariant is obvious.
pub fn worst_rule(findings: &[Finding]) -> Option<(&'static str, usize)> {
    let mut counts: std::collections::BTreeMap<&'static str, usize> =
        std::collections::BTreeMap::new();
    for f in findings {
        *counts.entry(f.rule).or_insert(0) += 1;
    }
    // max_by_key returns the *last* max; iterate explicitly so ties
    // break toward the lexically-first rule id, deterministically.
    let mut best: Option<(&str, usize)> = None;
    for (rule, count) in counts {
        if best.is_none_or(|(_, c)| count > c) {
            best = Some((rule, count));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str) -> Finding {
        Finding {
            file: "crates/x/src/a.rs".into(),
            line: 3,
            rule,
            excerpt: "std::env::var(\"FIVEG_X\")".into(),
            hint: "h",
        }
    }

    #[test]
    fn worst_rule_breaks_ties_deterministically() {
        let all = vec![finding("S003"), finding("F001"), finding("F001")];
        assert_eq!(worst_rule(&all), Some(("F001", 2)));
        assert_eq!(worst_rule(&all[..2]), Some(("F001", 1)));
        assert_eq!(worst_rule(&[]), None);
    }

    #[test]
    fn report_json_is_stable() {
        let report = ScanReport {
            findings: vec![finding("S002")],
            suppressed: 1,
            files: 2,
        };
        let one = report_json(&report);
        assert_eq!(one, report_json(&report));
        assert!(one.contains("\"excerpt\": \"std::env::var(\\\"FIVEG_X\\\")\""));
        let parsed = fiveg_obs::parse_json(&one).expect("valid json");
        assert_eq!(
            parsed
                .get("summary")
                .and_then(|s| s.get("total"))
                .and_then(fiveg_obs::JsonValue::as_u64),
            Some(1)
        );
    }
}
