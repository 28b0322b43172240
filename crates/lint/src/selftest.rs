//! The fixture self-test: runs the rule engine over
//! `crates/lint/fixtures/` and compares findings against inline
//! expectation markers.
//!
//! Markers: `//~ RULE [RULE...]` expects those findings on the marker's
//! own line; `//~^ RULE` on the line above. Fixtures declare the
//! workspace path they emulate with a `lint-fixture-path:` header so
//! scoping (library / test file) is exercised too. Each fixture runs
//! through the semantic pass on its own (manifest-less, so same-file
//! taint only).
//!
//! `fixtures/ws/` holds a miniature workspace (crate directories with
//! `Cargo.toml` + `src/lib.rs`) exercised through the full
//! manifest-aware pass: crate-layering (W001, markers as `# //~ W001`
//! TOML comments) and cross-crate shard taint (S001 across a dependency
//! edge). `cargo test -p fiveg-lint` runs all of this.

use std::path::Path;

use crate::rules::{FileCtx, RULES};
use crate::workspace::{analyze, load_manifests, SourceFile};

/// Runs every `.rs` fixture under `fixtures`. `Ok(checked_count)` when
/// all match; `Err(messages)` describing each drift otherwise.
pub fn run(fixtures: &Path) -> Result<usize, Vec<String>> {
    let mut entries = match std::fs::read_dir(fixtures) {
        Ok(rd) => rd
            .filter_map(Result::ok)
            .map(|e| e.path())
            .collect::<Vec<_>>(),
        Err(e) => return Err(vec![format!("cannot read {}: {e}", fixtures.display())]),
    };
    entries.sort();
    let mut failures = Vec::new();
    let mut checked = 0usize;
    for path in entries
        .iter()
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
    {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("?")
            .to_string();
        let src = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                failures.push(format!("{name}: cannot read: {e}"));
                continue;
            }
        };
        let Some(emulated) = fixture_path_header(&src) else {
            failures.push(format!("{name}: missing `lint-fixture-path:` header"));
            continue;
        };
        let Some(ctx) = FileCtx::classify(&emulated) else {
            failures.push(format!("{name}: header path `{emulated}` is not scannable"));
            continue;
        };
        let file = SourceFile {
            ctx,
            src: src.clone(),
        };
        let (findings, _) = analyze(std::slice::from_ref(&file), &[]);
        let mut got: Vec<(u32, &str)> = findings.iter().map(|f| (f.line, f.rule)).collect();
        got.sort_unstable();
        let want = expected_markers(&src);
        checked += 1;
        if got != want {
            let mut msg = format!("{name} (as {emulated}) drifted:");
            for &(line, rule) in &want {
                if !got.contains(&(line, rule)) {
                    msg.push_str(&format!("\n  missing expected {rule} at line {line}"));
                }
            }
            for f in &findings {
                if !want.contains(&(f.line, f.rule)) {
                    msg.push_str(&format!(
                        "\n  unexpected {} at line {} `{}`",
                        f.rule, f.line, f.excerpt
                    ));
                }
            }
            failures.push(msg);
        }
    }
    if checked == 0 {
        failures.push(format!("no fixtures found in {}", fixtures.display()));
    }
    let ws_root = fixtures.join("ws");
    if ws_root.is_dir() {
        match run_ws(&ws_root) {
            Ok(n) => checked += n,
            Err(mut msgs) => failures.append(&mut msgs),
        }
    } else {
        failures.push(format!(
            "missing ws fixture workspace at {}",
            ws_root.display()
        ));
    }
    if failures.is_empty() {
        Ok(checked)
    } else {
        Err(failures)
    }
}

/// Runs the full manifest-aware pass over the miniature fixture
/// workspace and compares every finding against the markers in its
/// `.rs` and `Cargo.toml` files.
fn run_ws(ws_root: &Path) -> Result<usize, Vec<String>> {
    let manifests = match load_manifests(ws_root) {
        Ok(m) => m,
        Err(e) => return Err(vec![format!("ws fixture: cannot load manifests: {e}")]),
    };
    let mut want: Vec<(String, u32, &str)> = Vec::new();
    for m in &manifests {
        let Ok(text) = std::fs::read_to_string(ws_root.join(&m.rel_path)) else {
            continue;
        };
        for (line, rule) in expected_markers(&text) {
            want.push((m.rel_path.clone(), line, rule));
        }
    }
    let mut sources = Vec::new();
    let mut rs_files = Vec::new();
    collect_ws_rs(ws_root, ws_root, &mut rs_files);
    rs_files.sort();
    for rel in rs_files {
        let Ok(src) = std::fs::read_to_string(ws_root.join(&rel)) else {
            continue;
        };
        let Some(ctx) = FileCtx::classify(&rel) else {
            continue;
        };
        for (line, rule) in expected_markers(&src) {
            want.push((rel.clone(), line, rule));
        }
        sources.push(SourceFile { ctx, src });
    }
    let files = sources.len();
    let (findings, _) = analyze(&sources, &manifests);
    let mut got: Vec<(String, u32, &str)> = findings
        .into_iter()
        .map(|f| (f.file, f.line, f.rule))
        .collect();
    got.sort_unstable();
    want.sort_unstable();
    if files == 0 {
        return Err(vec!["ws fixture workspace has no source files".into()]);
    }
    if got == want {
        return Ok(files);
    }
    let mut msgs = Vec::new();
    for (file, line, rule) in &want {
        if !got.contains(&(file.clone(), *line, rule)) {
            msgs.push(format!(
                "ws fixture: missing expected {rule} at {file}:{line}"
            ));
        }
    }
    for (file, line, rule) in &got {
        if !want.contains(&(file.clone(), *line, rule)) {
            msgs.push(format!("ws fixture: unexpected {rule} at {file}:{line}"));
        }
    }
    Err(msgs)
}

/// Collects `.rs` paths under `dir` as `/`-separated paths relative to
/// `ws_root`.
fn collect_ws_rs(ws_root: &Path, dir: &Path, out: &mut Vec<String>) {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in rd.filter_map(Result::ok) {
        let path = entry.path();
        if path.is_dir() {
            collect_ws_rs(ws_root, &path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            if let Ok(rel) = path.strip_prefix(ws_root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
}

fn fixture_path_header(src: &str) -> Option<String> {
    for line in src.lines().take(5) {
        if let Some(idx) = line.find("lint-fixture-path:") {
            return Some(line[idx + "lint-fixture-path:".len()..].trim().to_string());
        }
    }
    None
}

/// Expected (line, rule) pairs from the markers, sorted like scan
/// output. Unknown rule ids become a guaranteed-mismatch sentinel so a
/// typo in a fixture cannot silently pass.
fn expected_markers(src: &str) -> Vec<(u32, &'static str)> {
    let mut want = Vec::new();
    for (i, line) in src.lines().enumerate() {
        let lineno = i as u32 + 1;
        let Some(idx) = line.find("//~") else {
            continue;
        };
        let rest = &line[idx + 3..];
        let (target, list) = match rest.strip_prefix('^') {
            Some(r) => (lineno - 1, r),
            None => (lineno, rest),
        };
        for word in list.split_whitespace() {
            match RULES.iter().find(|(id, _, _)| *id == word) {
                Some((id, _, _)) => want.push((target, *id)),
                None => want.push((target, "???")),
            }
        }
    }
    want.sort_unstable();
    want
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marker_parsing() {
        let src = "let a = 1; //~ S003 F001\n//~^ S001\nplain\n//~ Z999 U001\n";
        assert_eq!(
            expected_markers(src),
            vec![
                (1, "F001"),
                (1, "S001"),
                (1, "S003"),
                (4, "???"),
                (4, "???")
            ]
        );
    }
}
