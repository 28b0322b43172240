//! The rule table, file classification and suppression pragmas.
//!
//! Each rule is a named, machine-checkable invariant of this
//! workspace's "byte-identical artifacts for any worker/thread count"
//! guarantee that needs the workspace model to see; the rules are
//! evaluated by [`crate::workspace::analyze`]. Pragmas are read from
//! the token stream of [`crate::tokenizer`], so a pragma quoted inside
//! a string never counts.

use crate::tokenizer::{tokenize, Tok};

/// Where a file sits in the workspace; decides which rules apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// `crates/<name>/src/**` minus binaries — panics here abort sims.
    Lib,
    /// `src/main.rs`, `src/bin/**` — CLI entry points may panic on bad
    /// user input.
    Bin,
    /// `examples/**` anywhere.
    Example,
    /// `tests/**` anywhere, and benches.
    Test,
}

/// Per-file context computed from its workspace-relative path.
#[derive(Debug, Clone)]
pub struct FileCtx {
    /// Path relative to the workspace root, `/`-separated.
    pub rel_path: String,
    /// `<name>` for `crates/<name>/...` files.
    pub crate_name: Option<String>,
    /// Location class.
    pub kind: FileKind,
}

impl FileCtx {
    /// Classifies a workspace-relative path, or `None` for paths the
    /// linter must not scan (vendored code, lint fixtures).
    pub fn classify(rel_path: &str) -> Option<FileCtx> {
        let rel = rel_path.replace('\\', "/");
        if rel.starts_with("vendor/") || rel.contains("/fixtures/") || rel.starts_with("target/") {
            return None;
        }
        let crate_name = rel
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
            .map(str::to_string);
        let tail = match crate_name {
            Some(ref name) => rel
                .strip_prefix("crates/")
                .and_then(|r| r.strip_prefix(name.as_str()))
                .and_then(|r| r.strip_prefix('/'))
                .unwrap_or(&rel),
            None => &rel,
        };
        let kind = if tail.starts_with("tests/") || tail.starts_with("benches/") {
            FileKind::Test
        } else if tail.starts_with("examples/") {
            FileKind::Example
        } else if tail.starts_with("src/bin/") || tail == "src/main.rs" {
            FileKind::Bin
        } else {
            FileKind::Lib
        };
        Some(FileCtx {
            rel_path: rel,
            crate_name,
            kind,
        })
    }
}

/// One finding: rule, location, the offending line and a fix hint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id (`S001` ... `W001`, `L000`).
    pub rule: &'static str,
    /// The trimmed source line.
    pub excerpt: String,
    /// One-line fix hint.
    pub hint: &'static str,
}

/// Rule table: id, what it catches, and the fix hint attached to every
/// finding. Kept in one place so `--rules`, the docs and the engine
/// cannot drift apart.
pub const RULES: &[(&str, &str, &str)] = &[
    (
        "L000",
        "malformed fiveg-lint pragma",
        "pragma syntax is `// fiveg-lint: allow(S00x[,F001]) -- reason`",
    ),
    (
        "S001",
        "obs metric write reachable from a ShardLogic handler outside a Drop flush",
        "ambient writes under the shard engine are worker-ordered; accumulate in per-origin scratch and flush from Drop",
    ),
    (
        "S002",
        "FIVEG_* environment read outside core::par / fiveg-campaign",
        "scattered env reads fork run configuration; read once in core::par or the campaign runner and pass values down",
    ),
    (
        "S003",
        "mutable static/thread_local state reachable from a ShardLogic handler",
        "cross-shard shared state orders by worker schedule; key state by logical origin inside the shard instead",
    ),
    (
        "F001",
        "float accumulation inside a par_map/thread::scope closure",
        "float reduction order varies with the thread count; accumulate per chunk and combine in a fixed order after the join",
    ),
    (
        "W001",
        "crate dependency edge outside the declared layering DAG",
        "add the edge to ALLOWED_DEPS in crates/lint/src/workspace.rs (a reviewed design decision) or drop the dependency",
    ),
];

/// Rules enforced by the toolchain instead: id, what it catches, the
/// lint, and where that lint is configured. `--rules` prints them after
/// [`RULES`]; `cargo clippy -D warnings` turns every lint into an error.
pub const TOOLCHAIN_RULES: &[(&str, &str, &str, &str)] = &[
    (
        "D001",
        "HashMap/HashSet",
        "clippy::disallowed_types",
        "crates/clippy.toml",
    ),
    (
        "D002",
        "partial_cmp calls, derived PartialOrd included",
        "clippy::disallowed_methods",
        "crates/clippy.toml",
    ),
    (
        "D003",
        "wall-clock reads (Instant::now, SystemTime::now)",
        "clippy::disallowed_methods",
        "crates/clippy.toml",
    ),
    (
        "D004",
        "static mut global state",
        "unsafe_code",
        "[workspace.lints.rust]",
    ),
    (
        "U001",
        "unwrap()/expect() in library code",
        "clippy::unwrap_used, clippy::expect_used",
        "each lib root",
    ),
    (
        "W002",
        "unsafe code",
        "unsafe_code",
        "[workspace.lints.rust]",
    ),
    (
        "W003",
        "public item without a rustdoc comment",
        "missing_docs",
        "each lib root",
    ),
];

/// True if `id` is a known rule id.
pub fn rule_exists(id: &str) -> bool {
    RULES.iter().any(|(r, _, _)| *r == id)
}

/// Fix hint for a rule id (`""` for unknown ids).
pub fn hint_for(id: &str) -> &'static str {
    RULES
        .iter()
        .find(|(r, _, _)| *r == id)
        .map_or("", |(_, _, h)| h)
}

/// A well-formed suppression pragma: its line and the rules it names.
pub type Pragma = (u32, Vec<String>);

/// Reads a file's pragmas: the well-formed ones, and an L000 finding
/// for each malformed one.
///
/// `// fiveg-lint: allow(S002) -- reason` silences the listed rules on
/// the pragma's own line and on the line directly below it, so it works
/// both as a trailing comment and as a stand-alone line above the
/// offending statement.
pub fn scan_pragmas(ctx: &FileCtx, src: &str) -> (Vec<Pragma>, Vec<Finding>) {
    let mut pragmas = Vec::new();
    let mut malformed = Vec::new();
    for t in tokenize(src).iter().filter(|t| t.is_comment()) {
        let Some(body) = pragma_body(t.text) else {
            continue;
        };
        match parse_pragma(body) {
            Some(rules) => pragmas.push((t.line, rules)),
            None => malformed.push(Finding {
                file: ctx.rel_path.clone(),
                line: t.line,
                rule: "L000",
                excerpt: src
                    .lines()
                    .nth(t.line as usize - 1)
                    .unwrap_or_default()
                    .trim()
                    .to_string(),
                hint: hint_for("L000"),
            }),
        }
    }
    (pragmas, malformed)
}

/// True when a pragma in `pragmas` names `rule` on `line` or the line
/// above it.
pub fn suppressed(pragmas: &[Pragma], rule: &str, line: u32) -> bool {
    pragmas
        .iter()
        .any(|(at, rules)| (*at == line || *at + 1 == line) && rules.iter().any(|r| r == rule))
}

/// Extracts the pragma body from a comment whose text *starts* with
/// `fiveg-lint:` (after the comment markers). Prose that merely
/// mentions the pragma syntax mid-sentence is not a pragma.
fn pragma_body(comment: &str) -> Option<&str> {
    let body = comment
        .trim_start_matches(['/', '!', '*'])
        .trim_start()
        .strip_prefix("fiveg-lint:")?;
    let body = body.trim();
    // Block comments carry their closing delimiter in the token text.
    Some(body.strip_suffix("*/").map_or(body, str::trim_end))
}

/// Parses `allow(S001,S003) -- reason`; `None` if malformed (unknown
/// rule, missing reason, bad shape).
fn parse_pragma(body: &str) -> Option<Vec<String>> {
    let rest = body.strip_prefix("allow(")?;
    let close = rest.find(')')?;
    let (list, tail) = rest.split_at(close);
    let tail = tail[1..].trim_start();
    let reason = tail.strip_prefix("--")?;
    if reason.trim().is_empty() {
        return None;
    }
    let rules: Vec<String> = list.split(',').map(|r| r.trim().to_string()).collect();
    if rules.is_empty() || rules.iter().any(|r| !rule_exists(r)) {
        return None;
    }
    Some(rules)
}

/// `test_regions` computed from raw source, for callers outside this
/// module that do not hold a token stream.
pub fn test_regions_of(src: &str) -> Vec<(u32, u32)> {
    test_regions(&tokenize(src))
}

/// Line ranges covered by `#[cfg(test)]` / `#[test]` items. After the
/// attribute, the region extends to the end of the next brace-balanced
/// block (or to the terminating `;` for brace-less items).
fn test_regions(toks: &[Tok]) -> Vec<(u32, u32)> {
    let sig: Vec<&Tok> = toks.iter().filter(|t| !t.is_comment()).collect();
    let mut regions = Vec::new();
    let mut i = 0;
    while i < sig.len() {
        if sig[i].text == "#" && matches!(sig.get(i + 1), Some(t) if t.text == "[") {
            // Match `#[test]` or `#[cfg(test)]` exactly.
            let is_test_attr = matches!(
                (sig.get(i + 2), sig.get(i + 3)),
                (Some(a), Some(b)) if a.text == "test" && b.text == "]"
            ) || matches!(
                (sig.get(i + 2), sig.get(i + 3), sig.get(i + 4), sig.get(i + 5), sig.get(i + 6)),
                (Some(a), Some(b), Some(c), Some(d), Some(e))
                    if a.text == "cfg" && b.text == "(" && c.text == "test"
                        && d.text == ")" && e.text == "]"
            );
            if is_test_attr {
                let start_line = sig[i].line;
                let mut j = i;
                // Find the opening brace of the annotated item; a `;`
                // first means a brace-less item (e.g. `#[cfg(test)] use`).
                let mut depth = 0usize;
                let mut end_line = start_line;
                while j < sig.len() {
                    match sig[j].text {
                        "{" => {
                            depth += 1;
                        }
                        "}" => {
                            depth = depth.saturating_sub(1);
                            if depth == 0 {
                                end_line = sig[j].line;
                                break;
                            }
                        }
                        ";" if depth == 0 => {
                            end_line = sig[j].line;
                            break;
                        }
                        _ => {}
                    }
                    end_line = sig[j].line;
                    j += 1;
                }
                regions.push((start_line, end_line));
                i = j + 1;
                continue;
            }
        }
        i += 1;
    }
    regions
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::{analyze, SourceFile};

    fn lib_ctx(path: &str) -> FileCtx {
        FileCtx::classify(path).expect("classifiable")
    }

    /// Runs the single-file semantic pass: `(findings, suppressed)`.
    fn scan(path: &str, src: &str) -> (Vec<Finding>, usize) {
        let file = SourceFile {
            ctx: lib_ctx(path),
            src: src.to_string(),
        };
        analyze(&[file], &[])
    }

    const ENV_READ: &str = "std::env::var(\"FIVEG_X\").is_ok()";

    #[test]
    fn classify_kinds() {
        assert_eq!(lib_ctx("crates/phy/src/env.rs").kind, FileKind::Lib);
        assert_eq!(lib_ctx("crates/bench/src/bin/repro.rs").kind, FileKind::Bin);
        assert_eq!(lib_ctx("crates/phy/examples/x.rs").kind, FileKind::Example);
        assert_eq!(lib_ctx("tests/integration.rs").kind, FileKind::Test);
        assert_eq!(lib_ctx("examples/quickstart.rs").kind, FileKind::Example);
        assert!(FileCtx::classify("vendor/rand/src/lib.rs").is_none());
        assert!(FileCtx::classify("crates/lint/fixtures/pos.rs").is_none());
    }

    #[test]
    fn pragma_suppresses_same_and_next_line() {
        let trailing =
            format!("fn f() -> bool {{\n    {ENV_READ} // fiveg-lint: allow(S002) -- knob\n}}\n");
        let (f, s) = scan("crates/net/src/x.rs", &trailing);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(s, 1);
        let above = format!(
            "fn f() -> bool {{\n    // fiveg-lint: allow(S002) -- knob\n    {ENV_READ}\n}}\n"
        );
        let (f, s) = scan("crates/net/src/x.rs", &above);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(s, 1);
    }

    #[test]
    fn pragma_does_not_blanket_other_rules_or_lines() {
        let src = format!(
            "fn f() -> bool {{\n    // fiveg-lint: allow(S002) -- knob\n    {ENV_READ};\n    {ENV_READ}\n}}\n"
        );
        let (f, s) = scan("crates/net/src/x.rs", &src);
        assert_eq!(s, 1);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 4);
        let other = format!(
            "fn f() -> bool {{\n    // fiveg-lint: allow(F001) -- wrong rule\n    {ENV_READ}\n}}\n"
        );
        let (f, s) = scan("crates/net/src/x.rs", &other);
        assert_eq!(s, 0);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "S002");
    }

    #[test]
    fn malformed_pragmas_are_l000() {
        for bad in [
            "// fiveg-lint: allow(S002)\nlet a = 1;\n", // missing reason
            "// fiveg-lint: allow(X999) -- nope\nlet a = 1;\n", // unknown rule
            "// fiveg-lint: allow(D001) -- nope\nlet a = 1;\n", // moved to clippy
            "// fiveg-lint: disallow(S002) -- x\nlet a = 1;\n", // bad verb
        ] {
            let (f, _) = scan("crates/net/src/x.rs", bad);
            assert_eq!(f.len(), 1, "{bad:?}");
            assert_eq!(f[0].rule, "L000", "{bad:?}");
        }
    }

    #[test]
    fn strings_and_comments_never_match() {
        let src = format!(
            "// {ENV_READ}\n// fiveg-lint mentioned in prose is not a pragma\nfn f() {{ let s = \"{}\"; }}\n",
            ENV_READ.replace('"', "\\\"")
        );
        let (f, s) = scan("crates/phy/src/x.rs", &src);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(s, 0);
    }
}
