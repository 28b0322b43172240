//! The determinism rules that moved from `fiveg-lint` to clippy and
//! rustc (DESIGN.md §7, `TOOLCHAIN_RULES`), checked end to end: a
//! throwaway workspace takes the real `crates/clippy.toml` and the real
//! root `[workspace.lints]` tables, plants one violation per rule, and
//! `cargo clippy -- -D warnings` must fail on each with the expected
//! lint (one test per rule). A clean control crate must pass, and a
//! package outside `crates/` (the position of `benchmark/`) must not be
//! reached by the clippy configuration.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::OnceLock;

use fiveg_lint::TOOLCHAIN_RULES;

/// One planted violation: rule id, package name, lib body (after the
/// lib-root header) and the lint codes clippy must report.
struct Case {
    rule: &'static str,
    package: &'static str,
    body: &'static str,
    lints: &'static [&'static str],
}

const CASES: &[Case] = &[
    Case {
        rule: "D001",
        package: "seed_d001",
        body: "/// Seeded.\npub fn count() -> usize {\n    std::collections::HashMap::<u32, u32>::new().len()\n        + std::collections::HashSet::<u32>::new().len()\n}\n",
        lints: &["clippy::disallowed_types"],
    },
    Case {
        rule: "D002",
        package: "seed_d002",
        body: "/// Seeded.\npub fn before(a: f64, b: f64) -> bool {\n    a.partial_cmp(&b) == Some(std::cmp::Ordering::Less)\n}\n",
        lints: &["clippy::disallowed_methods"],
    },
    Case {
        rule: "D003",
        package: "seed_d003",
        body: "/// Seeded.\npub fn now() -> std::time::Instant {\n    std::time::Instant::now()\n}\n",
        lints: &["clippy::disallowed_methods"],
    },
    Case {
        rule: "D004",
        package: "seed_d004",
        body: "static mut COUNTER: u32 = 0;\n/// Seeded.\npub fn bump() -> u32 {\n    unsafe {\n        COUNTER += 1;\n        COUNTER\n    }\n}\n",
        lints: &["unsafe_code"],
    },
    Case {
        rule: "S002",
        package: "seed_s002",
        body: "/// Seeded.\npub fn knobs() -> usize {\n    usize::from(std::env::var(\"K\").is_ok())\n        + usize::from(std::env::var_os(\"K\").is_some())\n        + std::env::vars().count()\n        + std::env::vars_os().count()\n}\n",
        lints: &["clippy::disallowed_methods"],
    },
    Case {
        rule: "U001",
        package: "seed_u001",
        body: "/// Seeded.\npub fn first(o: Option<u32>, r: Result<u32, ()>) -> u32 {\n    o.unwrap() + r.expect(\"set\")\n}\n",
        lints: &["clippy::unwrap_used", "clippy::expect_used"],
    },
    Case {
        rule: "W002",
        package: "seed_w002",
        body: "/// Seeded.\npub fn read(p: &u8) -> u8 {\n    unsafe { *std::ptr::from_ref(p) }\n}\n",
        lints: &["unsafe_code"],
    },
    Case {
        rule: "W003",
        package: "seed_w003",
        body: "pub fn undocumented() {}\n",
        lints: &["missing_docs"],
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

fn write(root: &Path, rel: &str, body: &str) {
    let path = root.join(rel);
    fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
    fs::write(path, body).expect("write seed file");
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
        "root Cargo.toml has no [workspace.lints.rust] unsafe_code entry"
    );
    out
}

/// The lib-root lint header every authored crate carries (U001, W003),
/// read from this crate's own root.
fn lib_root_header() -> String {
    let lib = read(&Path::new(env!("CARGO_MANIFEST_DIR")).join("src/lib.rs"));
    lib.lines()
        .find(|l| l.starts_with("#![warn("))
        .expect("lib root #![warn(...)] header")
        .to_string()
}

fn package_manifest(name: &str) -> String {
    format!(
        "[package]\nname = \"{name}\"\nversion = \"0.0.0\"\nedition = \"2021\"\npublish = false\n\n[lints]\nworkspace = true\n"
    )
}

/// The throwaway workspace, written once per test process: the tests
/// run in parallel and share it (cargo serialises their builds on the
/// target-directory lock).
fn seeded() -> &'static Path {
    static ROOT: OnceLock<PathBuf> = OnceLock::new();
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
    write(
        &root,
        "Cargo.toml",
        &format!(
            "[workspace]\nmembers = [\"crates/*\"]\nexclude = [\"outside\"]\nresolver = \"2\"\n\n{lints}"
        ),
    );
    write(
        &root,
        "crates/clippy.toml",
        &read(&repo.join("crates/clippy.toml")),
    );
    let header = lib_root_header();
    for case in CASES {
        let dir = format!("crates/{}", case.package);
        write(
            &root,
            &format!("{dir}/Cargo.toml"),
            &package_manifest(case.package),
        );
        write(
            &root,
            &format!("{dir}/src/lib.rs"),
            &format!(
                "//! Seeded {} violation.\n{header}\n{}",
                case.rule, case.body
            ),
        );
    }
    write(
        &root,
        "crates/control/Cargo.toml",
        &package_manifest("control"),
    );
    write(
        &root,
        "crates/control/src/lib.rs",
        &format!("//! Seeded clean crate.\n{header}\n{CONTROL_LIB}"),
    );
    write(&root, "crates/control/src/main.rs", CONTROL_BIN);
    write(&root, "crates/control/tests/helpers.rs", CONTROL_TEST);
    write(
        &root,
        "outside/Cargo.toml",
        "[package]\nname = \"outside\"\nversion = \"0.0.0\"\nedition = \"2021\"\npublish = false\n\n[workspace]\n",
    );
    write(&root, "outside/src/lib.rs", OUTSIDE_LIB);
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

fn reports(out: &Output, lint: &str) -> bool {
    String::from_utf8_lossy(&out.stdout).contains(&format!("\"code\":{{\"code\":\"{lint}\""))
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

/// Plants `rule`'s violation and asserts clippy fails on it with every
/// lint the case names. Returns clippy's output.
fn assert_rule_enforced(rule: &str) -> Output {
    let case = CASES
        .iter()
        .find(|c| c.rule == rule)
        .unwrap_or_else(|| panic!("no seeded case for {rule}"));
    let out = clippy(seeded(), &["-p", case.package]);
    assert!(
        !out.status.success(),
        "{rule}: clippy -D warnings passed on a planted violation\n{}",
        rendered(&out)
    );
    for lint in case.lints {
        assert!(
            reports(&out, lint),
            "{rule}: clippy did not report {lint}\n{}",
            rendered(&out)
        );
    }
    out
}

#[test]
fn seeded_cases_match_toolchain_rules() {
    // The cases cover exactly the documented mapping, lint for lint.
    for (id, _, lint, _) in TOOLCHAIN_RULES {
        let case = CASES
            .iter()
            .find(|c| c.rule == *id)
            .unwrap_or_else(|| panic!("no seeded case for {id}"));
        assert_eq!(
            case.lints.join(", "),
            *lint,
            "{id}: seeded lints differ from TOOLCHAIN_RULES"
        );
    }
    assert_eq!(CASES.len(), TOOLCHAIN_RULES.len());
}

#[test]
fn d001_hashmap_and_hashset_are_disallowed_types() {
    assert_rule_enforced("D001");
}

#[test]
fn d002_partial_cmp_calls_are_disallowed_methods() {
    assert_rule_enforced("D002");
}

#[test]
fn d003_wall_clock_reads_are_disallowed_methods() {
    assert_rule_enforced("D003");
}

#[test]
fn d004_static_mut_needs_forbidden_unsafe() {
    assert_rule_enforced("D004");
}

#[test]
fn s002_env_reads_are_disallowed_methods() {
    let out = assert_rule_enforced("S002");
    // Each of the four reads is flagged, not only the first.
    let text = rendered(&out);
    for path in ["var", "var_os", "vars", "vars_os"] {
        assert!(
            text.contains(&format!("disallowed method `std::env::{path}`")),
            "S002: clippy did not flag std::env::{path}\n{text}"
        );
    }
}

#[test]
fn u001_panics_fail_in_lib_code_only() {
    assert_rule_enforced("U001");
    // Unit tests, binaries and integration-test helpers stay exempt.
    let control = clippy(seeded(), &["-p", "control", "--all-targets"]);
    assert!(
        control.status.success(),
        "the clean control crate must pass clippy -D warnings\n{}",
        rendered(&control)
    );
}

#[test]
fn w002_unsafe_is_forbidden_workspace_wide() {
    assert_rule_enforced("W002");
}

#[test]
fn w003_undocumented_pub_items_fail_missing_docs() {
    assert_rule_enforced("W003");
}

#[test]
fn clippy_config_does_not_reach_outside_crates() {
    let outside = clippy(seeded(), &["--manifest-path", "outside/Cargo.toml"]);
    assert!(
        outside.status.success(),
        "crates/clippy.toml reached a package outside crates/\n{}",
        rendered(&outside)
    );
}

#[test]
fn every_crate_opts_into_the_toolchain_rules() {
    // U001 and W003 live at each lib root and unsafe_code in the
    // workspace table, so a crate that skips either loses those rules.
    let header = lib_root_header();
    let crates = repo_root().join("crates");
    let mut names: Vec<String> = fs::read_dir(&crates)
        .expect("read crates/")
        .filter_map(Result::ok)
        .filter(|e| e.path().is_dir())
        .filter_map(|e| e.file_name().to_str().map(str::to_string))
        .collect();
    names.sort();
    assert!(names.len() >= 10, "found only {names:?}");
    for name in names {
        let manifest = read(&crates.join(&name).join("Cargo.toml"));
        assert!(
            manifest.contains("[lints]\nworkspace = true"),
            "crates/{name}/Cargo.toml does not inherit [workspace.lints]"
        );
        let lib = crates.join(&name).join("src/lib.rs");
        if lib.exists() {
            assert!(
                read(&lib).lines().any(|l| l == header),
                "crates/{name}/src/lib.rs lacks `{header}`"
            );
        }
    }
}
