//! The crate layering DAG (W001 of DESIGN.md §7): every `fiveg-*` crate
//! that a `crates/*/Cargo.toml` names under `[dependencies]` must be
//! declared in [`ALLOWED_DEPS`], every crate directory needs a row, and
//! the declared edges must stay acyclic. Dev-dependencies may cross
//! layers for tests.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

/// For each crate (by `crates/<name>` directory name), the `fiveg-*`
/// crates its `[dependencies]` section may name. Adding an edge is a
/// reviewed design decision, not a `Cargo.toml` drive-by.
///
/// Layering (bottom → top): `obs` and `trace` are leaf infrastructure;
/// `simcore` is the DES kernel; `geo`/`phy`/`ran`/`net`/`transport`/
/// `apps`/`energy` are the sim libraries; `scenario` is pure data
/// model; `campaign` schedules; `core` composes everything; `bench` is
/// the CLI shell.
const ALLOWED_DEPS: &[(&str, &[&str])] = &[
    ("obs", &[]),
    ("trace", &["obs"]),
    ("simcore", &["obs", "trace"]),
    ("geo", &["simcore"]),
    ("phy", &["simcore", "geo", "obs"]),
    ("ran", &["obs", "simcore", "geo", "phy", "trace"]),
    ("net", &["obs", "simcore", "trace"]),
    ("transport", &["obs", "simcore", "net", "trace"]),
    ("apps", &["simcore", "net", "transport"]),
    ("energy", &["obs", "simcore"]),
    ("scenario", &["obs", "geo"]),
    ("campaign", &["obs", "simcore", "trace"]),
    (
        "core",
        &[
            "simcore",
            "geo",
            "phy",
            "ran",
            "net",
            "transport",
            "apps",
            "energy",
            "campaign",
            "obs",
            "scenario",
            "trace",
        ],
    ),
    (
        "bench",
        &["core", "campaign", "obs", "trace", "geo", "scenario"],
    ),
];

/// The short names of the `fiveg-*` crates in a manifest's
/// `[dependencies]` section, as `fiveg-x = ...`, `fiveg-x.workspace =
/// ...` or a `[dependencies.fiveg-x]` table.
fn fiveg_deps(manifest: &str) -> Vec<&str> {
    let mut in_deps = false;
    let mut deps = Vec::new();
    for line in manifest.lines().map(str::trim) {
        let key = if let Some(header) = line.strip_prefix('[') {
            in_deps = line == "[dependencies]";
            header
                .strip_prefix("dependencies.")
                .map(|h| h.trim_end_matches(']'))
        } else {
            Some(line).filter(|_| in_deps)
        };
        if let Some(dep) = key.and_then(|k| k.strip_prefix("fiveg-")) {
            deps.extend(dep.split([' ', '.', '=']).next());
        }
    }
    deps
}

/// Every way crate `name`'s manifest breaks the DAG, one message each.
fn violations(name: &str, manifest: &str) -> Vec<String> {
    let Some((_, allowed)) = ALLOWED_DEPS.iter().find(|(k, _)| *k == name) else {
        return vec![format!("crates/{name} has no ALLOWED_DEPS row")];
    };
    fiveg_deps(manifest)
        .into_iter()
        .filter(|d| !allowed.contains(d))
        .map(|d| {
            format!("crates/{name} depends on fiveg-{d}, an edge ALLOWED_DEPS does not declare")
        })
        .collect()
}

#[test]
fn dag_is_well_formed() {
    let keys: BTreeSet<&str> = ALLOWED_DEPS.iter().map(|(k, _)| *k).collect();
    assert_eq!(keys.len(), ALLOWED_DEPS.len(), "a crate has two rows");
    // Kahn's algorithm over the allowed edges.
    let mut indeg: BTreeMap<&str, usize> = keys.iter().map(|k| (*k, 0)).collect();
    for (k, deps) in ALLOWED_DEPS {
        for d in *deps {
            *indeg
                .get_mut(d)
                .unwrap_or_else(|| panic!("crate `{k}` allows unknown dep `{d}`")) += 1;
        }
    }
    let mut ready: Vec<&str> = indeg
        .iter()
        .filter(|(_, n)| **n == 0)
        .map(|(k, _)| *k)
        .collect();
    let mut done = 0;
    while let Some(k) = ready.pop() {
        done += 1;
        let (_, deps) = ALLOWED_DEPS
            .iter()
            .find(|(name, _)| *name == k)
            .expect("row");
        for d in *deps {
            let n = indeg.get_mut(d).expect("known dep");
            *n -= 1;
            if *n == 0 {
                ready.push(d);
            }
        }
    }
    assert_eq!(done, keys.len(), "the layering DAG has a cycle");
}

#[test]
fn every_crate_keeps_to_the_dag() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut names = BTreeSet::new();
    let mut bad = Vec::new();
    for entry in fs::read_dir(&crates).expect("read crates/") {
        let path = entry.expect("dir entry").path().join("Cargo.toml");
        let Ok(manifest) = fs::read_to_string(&path) else {
            continue;
        };
        let name = path
            .parent()
            .and_then(Path::file_name)
            .and_then(|n| n.to_str());
        let name = name.expect("utf-8 crate directory").to_string();
        bad.extend(violations(&name, &manifest));
        names.insert(name);
    }
    assert!(names.len() >= 10, "found only {names:?}");
    assert!(bad.is_empty(), "layering violations:\n{}", bad.join("\n"));
    for (k, _) in ALLOWED_DEPS {
        assert!(names.contains(*k), "ALLOWED_DEPS row `{k}` names no crate");
    }
}

#[test]
fn an_undeclared_edge_fails() {
    // `obs` may depend on nothing: fiveg-core is an edge in every form.
    for dep in [
        "fiveg-core = { path = \"../core\" }",
        "fiveg-core.workspace = true",
        "[dependencies.fiveg-core]\nworkspace = true",
    ] {
        let obs = format!("[package]\nname = \"fiveg-obs\"\n\n[dependencies]\n{dep}\n");
        assert_eq!(
            violations("obs", &obs),
            ["crates/obs depends on fiveg-core, an edge ALLOWED_DEPS does not declare"],
            "{dep}"
        );
    }
    // A crate without a row fails.
    assert_eq!(
        violations("lint", ""),
        ["crates/lint has no ALLOWED_DEPS row"]
    );
}

#[test]
fn manifest_parse_reads_dependencies_only() {
    // Dev-dependencies may cross layers, so only `[dependencies]` (and
    // its per-crate tables) count as edges.
    let net = "\
[package]
name = \"fiveg-net\"

[dependencies]
fiveg-obs = { workspace = true }
fiveg-simcore.workspace = true
serde = { workspace = true }

[dependencies.fiveg-trace]
workspace = true

[dev-dependencies]
fiveg-core = { workspace = true }
";
    assert_eq!(fiveg_deps(net), ["obs", "simcore", "trace"]);
    assert!(violations("net", net).is_empty());
}
