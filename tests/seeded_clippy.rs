//! The determinism rules that clippy and rustc enforce (DESIGN.md §7),
//! checked end to end: a throwaway workspace takes the real
//! `crates/clippy.toml` and the real root `[workspace.lints]` tables,
//! plants one violation per rule, and `cargo clippy -- -D warnings`
//! must fail on each with the expected lints (one test per rule). A
//! clean control crate must pass, and a package outside `crates/` (the
//! position of `benchmark/`) must not be reached by the clippy
//! configuration. [`RULES`] is also DESIGN.md §7's rule table, cell for
//! cell.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// One rule: its DESIGN.md §7 row and a planted violation (a lib body
/// after the lib-root header) on which clippy must report every lint.
struct Rule {
    id: &'static str,
    what: &'static str,
    lints: &'static [&'static str],
    configured_in: &'static str,
    body: &'static str,
}

const CLIPPY_TOML: &str = "crates/clippy.toml";
const RUST_LINTS: &str = "[workspace.lints.rust]";
const LIB_ROOT: &str = "each lib root";

const RULES: &[Rule] = &[
    Rule {
        id: "D001",
        what: "HashMap/HashSet",
        lints: &["clippy::disallowed_types"],
        configured_in: CLIPPY_TOML,
        body: "/// Seeded.\npub fn count() -> usize {\n    std::collections::HashMap::<u32, u32>::new().len()\n        + std::collections::HashSet::<u32>::new().len()\n}\n",
    },
    Rule {
        id: "D002",
        what: "partial_cmp calls, derived PartialOrd included",
        lints: &["clippy::disallowed_methods"],
        configured_in: CLIPPY_TOML,
        body: "/// Seeded.\npub fn before(a: f64, b: f64) -> bool {\n    a.partial_cmp(&b) == Some(std::cmp::Ordering::Less)\n}\n",
    },
    Rule {
        id: "D003",
        what: "wall-clock reads (Instant::now, SystemTime::now)",
        lints: &["clippy::disallowed_methods"],
        configured_in: CLIPPY_TOML,
        body: "/// Seeded.\npub fn now() -> std::time::Instant {\n    std::time::Instant::now()\n}\n",
    },
    Rule {
        id: "D004",
        what: "static mut global state",
        lints: &["unsafe_code"],
        configured_in: RUST_LINTS,
        body: "static mut COUNTER: u32 = 0;\n/// Seeded.\npub fn bump() -> u32 {\n    unsafe {\n        COUNTER += 1;\n        COUNTER\n    }\n}\n",
    },
    Rule {
        id: "F001",
        what: "float accumulation shared across threads (a locked f64 or an atomic)",
        lints: &["clippy::disallowed_types"],
        configured_in: CLIPPY_TOML,
        body: "/// Seeded.\npub fn total(xs: &[f64]) -> f64 {\n    let sum = std::sync::Mutex::new(0.0f64);\n    std::thread::scope(|s| {\n        for x in xs {\n            let sum = &sum;\n            s.spawn(move || *sum.lock().unwrap_or_else(std::sync::PoisonError::into_inner) += x);\n        }\n    });\n    sum.into_inner().unwrap_or_default()\n}\n",
    },
    Rule {
        id: "L000",
        what: "a suppression without a reason, for an unknown lint or that no longer fires",
        lints: &[
            "clippy::allow_attributes_without_reason",
            "unknown_lints",
            "unfulfilled_lint_expectations",
        ],
        configured_in: "[workspace.lints.clippy], rustc defaults",
        body: "/// Seeded.\n#[expect(clippy::disallowed_methods)]\npub fn now() -> std::time::Instant {\n    std::time::Instant::now()\n}\n/// Seeded.\n#[expect(clippy::no_such_lint, reason = \"seeded\")]\npub fn unknown() {}\n/// Seeded.\n#[expect(clippy::disallowed_methods, reason = \"seeded\")]\npub fn stale() {}\n",
    },
    Rule {
        id: "S002",
        what: "environment-variable reads (std::env::var, var_os, vars, vars_os)",
        lints: &["clippy::disallowed_methods"],
        configured_in: CLIPPY_TOML,
        body: "/// Seeded.\npub fn knobs() -> usize {\n    usize::from(std::env::var(\"K\").is_ok())\n        + usize::from(std::env::var_os(\"K\").is_some())\n        + std::env::vars().count()\n        + std::env::vars_os().count()\n}\n",
    },
    Rule {
        id: "S003",
        what: "shared mutable state (locks, cells, once-cells, atomics, thread_local!)",
        lints: &["clippy::disallowed_types", "clippy::disallowed_macros"],
        configured_in: CLIPPY_TOML,
        body: "static HITS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);\nthread_local! {\n    static SEEN: u64 = const { 0 };\n}\n/// Seeded.\npub fn bump() -> u64 {\n    SEEN.with(|s| *s) + HITS.fetch_add(1, std::sync::atomic::Ordering::Relaxed)\n}\n",
    },
    Rule {
        id: "U001",
        what: "unwrap()/expect() in library code",
        lints: &["clippy::unwrap_used", "clippy::expect_used"],
        configured_in: LIB_ROOT,
        body: "/// Seeded.\npub fn first(o: Option<u32>, r: Result<u32, ()>) -> u32 {\n    o.unwrap() + r.expect(\"set\")\n}\n",
    },
    Rule {
        id: "U002",
        what: "a check compiled out of release builds (debug_assert!, debug_assert_eq!, debug_assert_ne!)",
        lints: &["clippy::disallowed_macros"],
        configured_in: CLIPPY_TOML,
        body: "/// Seeded.\npub fn half(a: u32, b: u32) -> u32 {\n    debug_assert!(a >= b);\n    debug_assert_eq!(a % 2, 0);\n    debug_assert_ne!(b, 7);\n    (a - b) / 2\n}\n",
    },
    Rule {
        id: "W002",
        what: "unsafe code",
        lints: &["unsafe_code"],
        configured_in: RUST_LINTS,
        body: "/// Seeded.\npub fn read(p: &u8) -> u8 {\n    unsafe { *std::ptr::from_ref(p) }\n}\n",
    },
    Rule {
        id: "W003",
        what: "public item without a rustdoc comment",
        lints: &["missing_docs"],
        configured_in: LIB_ROOT,
        body: "pub fn undocumented() {}\n",
    },
];

/// Clean code in the shapes the rules exempt: an `#[expect]`-ed
/// wall-clock read, unwraps in a unit test, a binary and an
/// integration-test helper.
const CONTROL_LIB: &str = "\
/// Seeded: ordered map, NaN-safe order, one expected wall-clock read.
pub fn clean(xs: &mut [f64]) -> usize {
    xs.sort_by(f64::total_cmp);
    #[expect(clippy::disallowed_methods, reason = \"seeded suppression\")]
    let start = std::time::Instant::now();
    let mut m = std::collections::BTreeMap::new();
    m.insert(1u32, start);
    m.len()
}

#[cfg(test)]
mod tests {
    #[test]
    fn unit_tests_may_unwrap() {
        let v = [1u32];
        assert_eq!(v.first().unwrap() + v.last().expect(\"one\"), 2);
    }
}
";

const CONTROL_BIN: &str = "\
fn main() {
    let n: u32 = std::env::args().count().try_into().unwrap();
    println!(\"{n}\");
}
";

const CONTROL_TEST: &str = "\
fn helper(v: &[u32]) -> u32 {
    *v.first().expect(\"helpers may expect\")
}

#[test]
fn integration_helpers_may_panic() {
    assert_eq!(helper(&[2]), 2);
}
";

/// Outside `crates/`: what `crates/clippy.toml` disallows is allowed.
const OUTSIDE_LIB: &str = "\
//! Seeded package outside crates/.
/// Seeded.
pub fn elapsed() -> usize {
    let t = std::time::Instant::now();
    let m = std::collections::HashMap::<u32, u32>::new();
    m.len() + usize::from(t.elapsed().as_secs() > 0)
}
";

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The `[workspace.lints.*]` tables of the root manifest, verbatim.
fn workspace_lints(manifest: &str) -> String {
    let mut out = String::new();
    let mut inside = false;
    for line in manifest.lines() {
        if line.starts_with('[') {
            inside = line.starts_with("[workspace.lints");
        }
        if inside {
            out.push_str(line);
            out.push('\n');
        }
    }
    assert!(
        out.contains("unsafe_code"),
        "no [workspace.lints.rust] unsafe_code entry"
    );
    out
}

/// The lib-root lint header every authored crate carries (U001, W003),
/// read from `fiveg-core`'s root.
fn lib_root_header() -> String {
    let lib = read(&Path::new(env!("CARGO_MANIFEST_DIR")).join("src/lib.rs"));
    let header = lib.lines().find(|l| l.starts_with("#![warn("));
    header.expect("lib root #![warn(...)] header").to_string()
}

fn package_manifest(name: &str, workspace: &str) -> String {
    format!("[package]\nname = \"{name}\"\nversion = \"0.0.0\"\nedition = \"2021\"\npublish = false\n\n{workspace}\n")
}

/// The throwaway workspace, written once per test process: the tests
/// run in parallel and share it (cargo serialises their builds on the
/// target-directory lock).
#[expect(clippy::disallowed_types, reason = "a fixture written once")]
fn seeded() -> &'static Path {
    static ROOT: std::sync::OnceLock<PathBuf> = std::sync::OnceLock::new();
    ROOT.get_or_init(seed)
}

/// Writes the throwaway workspace under the cargo test tmpdir.
fn seed() -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("clippy-seeded-ws");
    if root.exists() {
        fs::remove_dir_all(&root).expect("clear previous seed");
    }
    let repo = repo_root();
    let lints = workspace_lints(&read(&repo.join("Cargo.toml")));
    let header = lib_root_header();
    let lints_ws = "[lints]\nworkspace = true";
    let mut files = vec![
        (
            "Cargo.toml".to_string(),
            format!("[workspace]\nmembers = [\"crates/*\"]\nexclude = [\"outside\"]\nresolver = \"2\"\n\n{lints}"),
        ),
        (CLIPPY_TOML.into(), read(&repo.join(CLIPPY_TOML))),
        ("crates/control/Cargo.toml".into(), package_manifest("control", lints_ws)),
        ("crates/control/src/lib.rs".into(), format!("//! Seeded clean crate.\n{header}\n{CONTROL_LIB}")),
        ("crates/control/src/main.rs".into(), CONTROL_BIN.into()),
        ("crates/control/tests/helpers.rs".into(), CONTROL_TEST.into()),
        ("outside/Cargo.toml".into(), package_manifest("outside", "[workspace]")),
        ("outside/src/lib.rs".into(), OUTSIDE_LIB.into()),
    ];
    for rule in RULES {
        let dir = format!("crates/{}", package(rule.id));
        files.push((
            format!("{dir}/Cargo.toml"),
            package_manifest(&package(rule.id), lints_ws),
        ));
        let lib = format!("//! Seeded {} violation.\n{header}\n{}", rule.id, rule.body);
        files.push((format!("{dir}/src/lib.rs"), lib));
    }
    for (rel, body) in files {
        let path = root.join(rel);
        fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        fs::write(path, body).expect("write seed file");
    }
    // Resolve both lockfiles up front so parallel clippy runs never
    // race to write them.
    for dir in [root.clone(), root.join("outside")] {
        let status = Command::new(env!("CARGO"))
            .current_dir(&dir)
            .args(["generate-lockfile", "--offline", "--quiet"])
            .status()
            .expect("run cargo generate-lockfile");
        assert!(status.success(), "generate-lockfile in {}", dir.display());
    }
    root
}

fn package(id: &str) -> String {
    format!("seed_{}", id.to_lowercase())
}

/// `cargo clippy --offline <args> -- -D warnings` in `root`, with JSON
/// diagnostics on stdout.
fn clippy(root: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO"))
        .current_dir(root)
        .env("CARGO_TARGET_DIR", root.join("target"))
        .env_remove("CLIPPY_CONF_DIR")
        .args(["clippy", "--offline", "--quiet", "--message-format=json"])
        .args(args)
        .args(["--", "-D", "warnings"])
        .output()
        .expect("run cargo clippy")
}

fn rendered(out: &Output) -> String {
    let mut text = String::from_utf8_lossy(&out.stderr).into_owned();
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        if line.contains("\"reason\":\"compiler-message\"") {
            text.push_str(line);
            text.push('\n');
        }
    }
    text
}

/// Plants rule `id`'s violation and asserts clippy fails on it with
/// every lint the rule names. Returns clippy's rendered output.
fn assert_rule_enforced(id: &str) -> String {
    let rule = RULES
        .iter()
        .find(|r| r.id == id)
        .expect("a rule with this id");
    let out = clippy(seeded(), &["-p", &package(id)]);
    let text = rendered(&out);
    assert!(
        !out.status.success(),
        "{id}: clippy -D warnings passed on a planted violation\n{text}"
    );
    for lint in rule.lints {
        let code = format!("\"code\":{{\"code\":\"{lint}\"");
        assert!(
            text.contains(&code),
            "{id}: clippy did not report {lint}\n{text}"
        );
    }
    text
}

macro_rules! rule_tests {
    ($($name:ident => $id:literal,)*) => {
        $(#[test]
        fn $name() {
            assert_rule_enforced($id);
        })*
    };
}

rule_tests! {
    d001_hashmap_and_hashset_are_disallowed_types => "D001",
    d002_partial_cmp_calls_are_disallowed_methods => "D002",
    d003_wall_clock_reads_are_disallowed_methods => "D003",
    d004_static_mut_needs_forbidden_unsafe => "D004",
    f001_a_shared_float_accumulator_is_a_disallowed_type => "F001",
    l000_suppressions_need_a_reason_a_known_lint_and_a_hit => "L000",
    s003_statics_atomics_and_thread_locals_are_disallowed => "S003",
    w002_unsafe_is_forbidden_workspace_wide => "W002",
    w003_undocumented_pub_items_fail_missing_docs => "W003",
}

#[test]
fn s002_env_reads_are_disallowed_methods() {
    // Each of the four reads is flagged, not only the first.
    let text = assert_rule_enforced("S002");
    for path in ["var", "var_os", "vars", "vars_os"] {
        let msg = format!("disallowed method `std::env::{path}`");
        assert!(
            text.contains(&msg),
            "S002: clippy did not flag std::env::{path}\n{text}"
        );
    }
}

#[test]
fn u002_debug_asserts_are_disallowed_macros() {
    // Each of the three macros is flagged, not only the first.
    let text = assert_rule_enforced("U002");
    for mac in ["debug_assert", "debug_assert_eq", "debug_assert_ne"] {
        let msg = format!("use of a disallowed macro `std::{mac}`");
        assert!(
            text.contains(&msg),
            "U002: clippy did not flag {mac}!\n{text}"
        );
    }
}

#[test]
fn u001_panics_fail_in_lib_code_only() {
    assert_rule_enforced("U001");
    // Unit tests, binaries and integration-test helpers stay exempt.
    let control = clippy(seeded(), &["-p", "control", "--all-targets"]);
    let text = rendered(&control);
    assert!(
        control.status.success(),
        "the clean control crate must pass clippy -D warnings\n{text}"
    );
}

#[test]
fn clippy_config_does_not_reach_outside_crates() {
    let outside = clippy(seeded(), &["--manifest-path", "outside/Cargo.toml"]);
    let text = rendered(&outside);
    assert!(
        outside.status.success(),
        "crates/clippy.toml reached a package outside crates/\n{text}"
    );
}

#[test]
fn design_section_7_table_matches_rules() {
    // DESIGN.md §7's rule table and RULES, row for row and cell for
    // cell: edit either side without the other and this fails.
    let design = read(&repo_root().join("DESIGN.md"));
    let header = "| rule | what it catches | lint | configured in |";
    let mut lines = design.lines().skip_while(|l| *l != header);
    assert!(lines.next().is_some(), "DESIGN.md lost its §7 rule table");
    let rows: Vec<&str> = lines.skip(1).take_while(|l| l.starts_with('|')).collect();
    let want: Vec<String> = RULES
        .iter()
        .map(|r| {
            format!(
                "| {} | {} | {} | {} |",
                r.id,
                r.what,
                r.lints.join(", "),
                r.configured_in
            )
        })
        .collect();
    assert_eq!(rows, want, "DESIGN.md §7 rule table vs RULES");
}

/// The lines of `text` after the line `start`, up to the first line
/// that starts with `end`.
fn block<'a>(text: &'a str, start: &str, end: char) -> Vec<&'a str> {
    text.lines()
        .skip_while(|l| *l != start)
        .skip(1)
        .take_while(|l| !l.starts_with(end))
        .collect()
}

/// Whether a `crates/clippy.toml` list entry's reason opens with rule
/// `id` (`reason = "S003/F001: ..."`).
fn names_rule(entry: &str, id: &str) -> bool {
    entry
        .split("reason = \"")
        .nth(1)
        .and_then(|r| r.split(':').next())
        .is_some_and(|ids| ids.split('/').any(|i| i == id))
}

#[test]
fn design_section_7_toolchain_table_matches() {
    // The lint and configured-in cells of the §7 table name the real
    // configuration: each rule's lints are set where its row says.
    let repo = repo_root();
    let clippy_toml = read(&repo.join(CLIPPY_TOML));
    let manifest = read(&repo.join("Cargo.toml"));
    let header = lib_root_header();
    let sets = |table: &str, lint: &str| {
        let key = format!("{lint} = ");
        block(&manifest, table, '[')
            .iter()
            .any(|l| l.starts_with(&key))
    };
    for rule in RULES {
        for lint in rule.lints {
            let clippy_lint = lint.strip_prefix("clippy::");
            let configured = match rule.configured_in {
                CLIPPY_TOML => clippy_lint.is_some_and(|l| {
                    let list = format!("{} = [", l.replace('_', "-"));
                    block(&clippy_toml, &list, ']')
                        .iter()
                        .any(|entry| names_rule(entry, rule.id))
                }),
                RUST_LINTS => sets(RUST_LINTS, lint),
                LIB_ROOT => header.contains(lint),
                "[workspace.lints.clippy], rustc defaults" => match clippy_lint {
                    Some(l) => sets("[workspace.lints.clippy]", l),
                    // On by default unless the workspace table sets it.
                    None => !sets(RUST_LINTS, lint),
                },
                other => panic!("{}: unknown configured-in cell `{other}`", rule.id),
            };
            assert!(
                configured,
                "{}: {lint} is not configured in {}",
                rule.id, rule.configured_in
            );
        }
    }
}

#[test]
fn seeded_cases_match_toolchain_rules() {
    // Every rule in RULES is planted by exactly one test of this file,
    // and no test plants a rule RULES lacks.
    let source = include_str!("seeded_clippy.rs");
    let mut planted: Vec<&str> = ["assert_rule_enforced(\"", " => \""]
        .iter()
        .flat_map(|opener| source.split(opener).skip(1))
        .filter_map(|rest| rest.split('"').next())
        .collect();
    planted.sort_unstable();
    let mut ids: Vec<&str> = RULES.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    assert_eq!(planted, ids, "seeded tests vs RULES");
}

#[test]
fn every_crate_opts_into_the_toolchain_rules() {
    // U001 and W003 live at each lib root and unsafe_code in the
    // workspace table, so a crate that skips either loses those rules.
    let header = lib_root_header();
    let crates = repo_root().join("crates");
    let mut checked = 0;
    for entry in fs::read_dir(&crates).expect("read crates/") {
        let dir = entry.expect("dir entry").path();
        let Ok(manifest) = fs::read_to_string(dir.join("Cargo.toml")) else {
            continue;
        };
        let name = dir.display();
        assert!(
            manifest.contains("[lints]\nworkspace = true"),
            "{name}/Cargo.toml does not inherit [workspace.lints]"
        );
        let lib = dir.join("src/lib.rs");
        if lib.exists() {
            assert!(
                read(&lib).lines().any(|l| l == header),
                "{name}/src/lib.rs lacks `{header}`"
            );
        }
        checked += 1;
    }
    assert!(checked >= 10, "found only {checked} crates");
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("read {}: {e}", dir.display())) {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// `name!` invocations in `src`, outside `//` comments.
fn macro_calls(src: &str, name: &str) -> usize {
    src.lines()
        .map(|line| {
            let code = line.split("//").next().unwrap_or_default();
            code.match_indices(name)
                .filter(|&(i, word)| {
                    let before = code[..i].chars().next_back();
                    let after = code[i + word.len()..].trim_start();
                    !before.is_some_and(|c| c.is_alphanumeric() || c == '_')
                        && after.starts_with('!')
                })
                .count()
        })
        .sum()
}

/// The files of `crates/*/src` that invoke `name!`, with their counts.
fn macro_sites(name: &str) -> Vec<(String, usize)> {
    let root = repo_root();
    let mut files = Vec::new();
    for entry in fs::read_dir(root.join("crates")).expect("read crates/") {
        let src = entry.expect("dir entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    assert!(files.len() > 50, "found only {} source files", files.len());
    let mut found: Vec<(String, usize)> = files
        .iter()
        .map(|f| {
            let rel = f.strip_prefix(&root).unwrap_or(f);
            (rel.display().to_string(), macro_calls(&read(f), name))
        })
        .filter(|&(_, n)| n > 0)
        .collect();
    found.sort();
    found
}

#[test]
fn thread_locals_stay_at_the_two_expected_crate_roots() {
    // S003's macro ban is expected once per crate root in obs and
    // trace (clippy reports item-position macros there), which would
    // hide a second `thread_local!` in either crate. So count them:
    // exactly one in each of those roots, none anywhere else. The same
    // expectation would hide U002's macros there, so count those too:
    // none anywhere.
    let want = [
        ("crates/obs/src/lib.rs".to_string(), 1),
        ("crates/trace/src/lib.rs".to_string(), 1),
    ];
    assert_eq!(
        macro_sites("thread_local"),
        want,
        "thread_local! sites under crates/*/src"
    );
    for name in ["debug_assert", "debug_assert_eq", "debug_assert_ne"] {
        assert_eq!(macro_sites(name), [], "{name}! sites under crates/*/src");
    }
    let thread_locals = |src| macro_calls(src, "thread_local");
    assert_eq!(thread_locals("thread_local! {}\n// thread_local!\n"), 1);
    assert_eq!(
        thread_locals("std::thread_local ! {}\nmy_thread_local!()\n"),
        1
    );
    assert_eq!(macro_calls("debug_assert_eq!(a, b);\n", "debug_assert"), 0);
}
