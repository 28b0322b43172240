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

/// The `.rs` files under `dir`, recursively, in path order.
fn rust_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<_> = entries.map(|e| e.expect("dir entry").path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// A file's non-test text: everything before its first column-0
/// `#[cfg(test)]` (the unit-test module), with `//` comments (doc
/// comments included) cut from each line.
fn non_test_lines(source: &str) -> Vec<&str> {
    source
        .lines()
        .take_while(|l| !l.starts_with("#[cfg(test)]"))
        .map(|l| l.find("//").map_or(l, |i| &l[..i]))
        .collect()
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// `text` without its `pub use ...;` re-exports: listing a name in the
/// crate's API is not a use of it.
fn without_reexports(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(i) = rest.find("pub use ") {
        let at_word = rest[..i].chars().next_back().is_none_or(|c| !is_ident(c));
        out.push_str(&rest[..i]);
        if at_word {
            let end = rest[i..].find(';').map_or(rest.len(), |j| i + j + 1);
            rest = &rest[end..];
        } else {
            out.push_str("pub use ");
            rest = &rest[i + "pub use ".len()..];
        }
    }
    out.push_str(rest);
    out
}

/// The words of `text` written as a function use: `.name`, `::name`
/// or `name(`, but not the `fn name(` of a definition. A struct field
/// or binding that shares a function's name is none of these.
fn called_names(text: &str) -> Vec<&str> {
    let mut names = Vec::new();
    let mut start = None;
    for (i, c) in text.char_indices().chain([(text.len(), ' ')]) {
        match (is_ident(c), start) {
            (true, None) => start = Some(i),
            (false, Some(s)) => {
                start = None;
                let (before, after) = (&text[..s], &text[i..]);
                let called =
                    before.ends_with('.') || before.ends_with("::") || after.starts_with('(');
                if called && !before.ends_with("fn ") {
                    names.push(&text[s..i]);
                }
            }
            _ => {}
        }
    }
    names
}

/// The `pub fn` / `pub const fn` definitions in `defining` whose name
/// the non-test text of `defining` and `using` never calls, as
/// `file:line name`.
fn named_only_by_tests(defining: &[(String, String)], using: &[(String, String)]) -> Vec<String> {
    let texts: Vec<String> = defining
        .iter()
        .chain(using)
        .map(|(_, source)| without_reexports(&non_test_lines(source).join("\n")))
        .collect();
    let called: BTreeSet<&str> = texts.iter().flat_map(|t| called_names(t)).collect();
    let mut bad = Vec::new();
    for (file, source) in defining {
        for (n, line) in non_test_lines(source).iter().enumerate() {
            for prefix in ["pub fn ", "pub const fn "] {
                let mut from = 0;
                while let Some(at) = line[from..].find(prefix).map(|j| from + j) {
                    from = at + prefix.len();
                    if line[..at].chars().next_back().is_some_and(is_ident) {
                        continue;
                    }
                    let name: String = line[from..].chars().take_while(|&c| is_ident(c)).collect();
                    if !called.contains(name.as_str()) {
                        bad.push(format!("{file}:{} {name}", n + 1));
                    }
                }
            }
        }
    }
    bad
}

/// No `pub fn` in `crates/*/src` is named only by tests.
///
/// rustc's `dead_code` lint reports a callerless free item in a private
/// module, but never a method of an exported type, nor a function only
/// `#[cfg(test)]` code calls. This check covers those: for each
/// `pub fn` or `pub const fn` in the non-test text of `crates/*/src`
/// (each file up to its first column-0 `#[cfg(test)]`, `//` comments
/// cut), it counts calls of the name (`.name`, `::name` or `name(`)
/// in that text and in `examples/`, `crates/*/examples/` and
/// `benchmark/src`, not counting `pub use` re-exports or the `fn name`
/// of a definition. A name that nothing calls fails.
/// Unit tests, `crates/*/tests` and `tests/` do not count: an item only
/// they need is `#[cfg(test)]` next to them, not API.
///
/// It matches names, not paths: a common name such as `new` or `len`
/// passes as long as anything else calls it. So it misses some
/// test-only functions (false negatives), but fails only on a name that
/// no non-test code calls at all.
#[test]
fn no_pub_fn_is_named_only_by_tests() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let read = |dirs: &[std::path::PathBuf]| -> Vec<(String, String)> {
        let mut files = Vec::new();
        for dir in dirs {
            rust_files(dir, &mut files);
        }
        files
            .into_iter()
            .map(|f| {
                let name = f.strip_prefix(&root).unwrap_or(&f).display().to_string();
                (name, fs::read_to_string(&f).expect("read source"))
            })
            .collect()
    };
    let mut crate_dirs: Vec<_> = fs::read_dir(root.join("crates"))
        .expect("read crates/")
        .map(|e| e.expect("dir entry").path())
        .collect();
    crate_dirs.sort();
    let src: Vec<_> = crate_dirs.iter().map(|d| d.join("src")).collect();
    let mut other: Vec<_> = crate_dirs.iter().map(|d| d.join("examples")).collect();
    other.push(root.join("examples"));
    other.push(root.join("benchmark/src"));
    let (defining, using) = (read(&src), read(&other));
    assert!(
        defining.len() > 50,
        "found only {} source files",
        defining.len()
    );
    let bad = named_only_by_tests(&defining, &using);
    assert!(
        bad.is_empty(),
        "pub fns that no non-test code names (delete them, or make them \
         #[cfg(test)] next to their tests):\n{}",
        bad.join("\n")
    );
}

#[test]
fn a_pub_fn_named_only_by_tests_fails_the_scan() {
    let file = |name: &str, text: &str| (name.to_string(), text.to_string());
    let lib = file(
        "crates/x/src/lib.rs",
        "pub use a::{kept, only_tested};\n\
         pub fn kept() {}\n\
         /// `only_tested` is mentioned here.\n\
         pub fn only_tested() {} // kept(), only_tested()\n\
         pub const fn used_by_example() {}\n\
         pub struct Estimate { pub wired: f64 }\n\
         pub fn wired() -> f64 { 0.0 }\n\
         #[cfg(test)]\n\
         mod tests { fn t() { super::only_tested(); super::wired(); } }\n",
    );
    // A field that shares a test-only fn's name does not hide it.
    let main = file(
        "crates/x/src/main.rs",
        "fn main() { x::kept(); let _ = x::Estimate { wired: 1.0 }; }\n",
    );
    let example = file("examples/e.rs", "fn main() { x::used_by_example(); }\n");
    assert_eq!(
        named_only_by_tests(&[lib.clone(), main.clone()], &[example]),
        [
            "crates/x/src/lib.rs:4 only_tested",
            "crates/x/src/lib.rs:7 wired"
        ]
    );
    assert_eq!(
        named_only_by_tests(&[lib, main], &[]),
        [
            "crates/x/src/lib.rs:4 only_tested",
            "crates/x/src/lib.rs:5 used_by_example",
            "crates/x/src/lib.rs:7 wired"
        ]
    );
}
