//! End-to-end checks on a seeded throwaway workspace: every rule id
//! (S001–S003, F001, W001, L000) fires on a planted violation and
//! `--check` exits 2, driven through the real binary. The rules that
//! moved to clippy and rustc are seeded in `seeded_clippy.rs`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

const RULES: &[&str] = &["S001", "S002", "S003", "F001", "W001", "L000"];

/// Builds a miniature workspace under `target/tmp` with one planted
/// violation per rule. Returns its root.
fn seed_workspace(name: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    if root.exists() {
        fs::remove_dir_all(&root).expect("clear previous seed");
    }
    let write = |rel: &str, body: &str| {
        let path = root.join(rel);
        fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        fs::write(path, body).expect("write seed file");
    };
    write("Cargo.toml", "[workspace]\nmembers = [\"crates/*\"]\n");
    // `obs` may depend on nothing — fiveg-core here is a W001 edge.
    write(
        "crates/obs/Cargo.toml",
        "[package]\nname = \"fiveg-obs\"\n\n[dependencies]\nfiveg-core = { path = \"../core\" }\n",
    );
    // Sink crate: its own lib stays silent apart from the L000 seed, a
    // pragma without a reason.
    write(
        "crates/obs/src/lib.rs",
        "//! Seeded obs crate.\n\
         // fiveg-lint: allow(S001)\n\
         pub fn api() {}\n",
    );
    write(
        "crates/simcore/Cargo.toml",
        "[package]\nname = \"fiveg-simcore\"\n\n[dependencies]\n",
    );
    // S001 (obs write in a handler), S003 (mutable static from a
    // handler), S002 (env read), F001 (float accumulation in a
    // parallel closure) — all in one library file.
    write(
        "crates/simcore/src/lib.rs",
        "//! Seeded simcore crate.\n\
         static HITS: AtomicU64 = AtomicU64::new(0);\n\
         /// Seeded shard handler.\n\
         pub struct Node;\n\
         impl ShardLogic for Node {\n\
             fn handle(&mut self) {\n\
                 fiveg_obs::counter_add(\"seed.hits\", 1);\n\
                 HITS.fetch_add(1, Ordering::Relaxed);\n\
             }\n\
         }\n\
         /// Seeded env read outside core::par / campaign.\n\
         pub fn knob() -> bool {\n\
             std::env::var(\"FIVEG_SEEDED_KNOB\").is_ok()\n\
         }\n\
         /// Seeded float accumulation under par_map_with.\n\
         pub fn reduce(xs: &[f64]) -> f64 {\n\
             let mut total = 0.0f64;\n\
             par_map_with(xs, 4, || (), |_, _, x| {\n\
                 total += x;\n\
             });\n\
             total\n\
         }\n",
    );
    root
}

fn lint(root: &Path, mode: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_fiveg-lint"))
        .arg(mode)
        .arg("--root")
        .arg(root)
        .output()
        .expect("run fiveg-lint")
}

#[test]
fn seeded_violations_exit_2() {
    let root = seed_workspace("lint-seeded-ws");
    let check = lint(&root, "--check");
    assert_eq!(
        check.status.code(),
        Some(2),
        "--check on seeded violations must exit 2\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&check.stdout),
        String::from_utf8_lossy(&check.stderr),
    );
    let listing = String::from_utf8_lossy(&check.stdout);
    for rule in RULES {
        assert!(
            listing.contains(rule),
            "seeded workspace did not produce a {rule} finding:\n{listing}"
        );
    }
}

#[test]
fn seeded_scan_reports_every_rule() {
    // Library-level version of the same check, through scan_workspace.
    let root = seed_workspace("lint-seeded-ws-lib");
    let report = fiveg_lint::scan_workspace(&root).expect("scan seeded workspace");
    for rule in RULES {
        assert!(
            report.findings.iter().any(|f| f.rule == *rule),
            "seeded workspace scan missing {rule}"
        );
    }
}

#[test]
fn real_tree_shard_handler_is_seen_by_parser() {
    // Taint seeding must not go silently vacuous: the parser has to
    // see the real fleet shard handler in core.
    let src = fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../core/src/scenario_run.rs"
    ))
    .expect("read core scenario_run.rs");
    let model = fiveg_lint::parser::parse_file(&src);
    let handlers: Vec<&str> = model
        .fns
        .iter()
        .filter(|f| {
            f.impl_ctx
                .as_ref()
                .is_some_and(|c| c.trait_name.as_deref() == Some("ShardLogic"))
        })
        .map(|f| f.name.as_str())
        .collect();
    assert!(
        !handlers.is_empty(),
        "no fns parsed inside `impl ShardLogic for ..` in core/src/scenario_run.rs — \
         S-rule seeding would be vacuous"
    );
}
