//! The workspace model and the semantic rule families (S/F/W).
//!
//! Hazards visible on one line (unordered maps, wall-clock reads,
//! library panics, unsafe code, missing docs) are rustc and clippy
//! lints, configured in the workspace `Cargo.toml` and
//! `crates/clippy.toml`. The hazards left here are *cross-file*: an obs
//! counter write buried three calls below a `ShardLogic` handler, a
//! crate quietly growing a dependency edge that inverts the layering, a
//! float reduction inside a scoped-thread closure. This module builds a
//! light workspace model — parsed [`crate::parser::FileModel`]s per
//! file, `fiveg-*` dependency edges per crate manifest, a name-resolved
//! call graph with shard-handler taint — and evaluates:
//!
//! * **S001** — obs metric writes (`counter_add` / `gauge_max` /
//!   `observe`) reachable from an `impl ShardLogic` handler, outside a
//!   per-origin scratch `Drop` flush. Ambient writes under the shard
//!   engine execute in worker order; only origin-keyed, chunk-structured
//!   flushes keep counters byte-identical across `FIVEG_SHARDS`.
//! * **S002** — `std::env` reads of `FIVEG_*` outside `core::par` (and
//!   the `campaign` crate). Scattered env reads fork run configuration.
//! * **S003** — mutable `static` / `thread_local!` state referenced
//!   from shard-handler-reachable code.
//! * **F001** — float accumulation (`+=`, `fold(0.0, ..)`,
//!   `sum::<f64>()`, `OnlineStats`) inside `par_map*` /
//!   `std::thread::scope` closures: reduction order varies with the
//!   thread count.
//! * **W001** — crate dependency edges outside the declared layering
//!   DAG ([`ALLOWED_DEPS`]).
//! * **L000** — malformed `// fiveg-lint:` pragmas.
//!
//! Call-graph edges are resolved *by name* within a crate and its
//! declared dependencies — a deliberate over-approximation (no type
//! information), tamed by per-site pragmas. The `obs` and `trace`
//! crates are exempt from S001/S003: their ambient sinks are the
//! *sanctioned* aggregation channels, and their shard-invariance is
//! proven end-to-end by the `ci.sh` shard matrix and trace-determinism
//! stages rather than statically.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use crate::parser::{parse_file, FileModel};
use crate::rules::{
    hint_for, scan_pragmas, suppressed, test_regions_of, FileCtx, FileKind, Finding,
};

/// The declared crate-layering DAG: for each crate (by `crates/<name>`
/// directory name), the `fiveg-*` crates its `[dependencies]` section
/// may name. W001 fires on any edge not listed here — adding one is an
/// explicit, reviewed design decision, not a `Cargo.toml` drive-by.
///
/// Layering (bottom → top): `obs` and `trace` are leaf infrastructure;
/// `simcore` is the DES kernel; `geo`/`phy`/`ran`/`net`/`transport`/
/// `apps`/`energy` are the sim libraries; `scenario` is pure data
/// model; `campaign` schedules; `core` composes everything; `bench` is
/// the CLI shell. `lint` depends on nothing, so it stays buildable
/// before anything else is.
pub const ALLOWED_DEPS: &[(&str, &[&str])] = &[
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
    ("lint", &[]),
];

/// Obs write entry points guarded by S001.
const OBS_WRITES: &[&str] = &["counter_add", "gauge_max", "observe"];

/// Crates whose internals are exempt from S001/S003: their ambient
/// sinks are the sanctioned aggregation channels (see module docs).
const SINK_CRATES: &[&str] = &["obs", "trace"];

/// One `fiveg-*` dependency edge from a crate manifest.
#[derive(Debug, Clone)]
pub struct Dep {
    /// Short crate name (`"obs"` for `fiveg-obs`).
    pub name: String,
    /// 1-based line of the dependency in the manifest.
    pub line: u32,
    /// Trimmed manifest line.
    pub excerpt: String,
}

/// One crate manifest, as W001 sees it.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// `crates/<name>` directory name.
    pub crate_name: String,
    /// Workspace-relative manifest path (`crates/net/Cargo.toml`).
    pub rel_path: String,
    /// `fiveg-*` edges in the `[dependencies]` section only —
    /// dev-dependencies may reach across layers for tests.
    pub deps: Vec<Dep>,
}

impl Manifest {
    /// Parses the `[dependencies]` section of one `Cargo.toml` for
    /// `fiveg-*` edges. A line scan is enough: the manifests in this
    /// workspace are machine-written one-dep-per-line TOML.
    pub fn parse(crate_name: &str, rel_path: &str, text: &str) -> Manifest {
        let mut deps = Vec::new();
        let mut in_deps = false;
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.starts_with('[') {
                in_deps = line == "[dependencies]";
                continue;
            }
            if !in_deps {
                continue;
            }
            if let Some(rest) = line.strip_prefix("fiveg-") {
                if let Some(dep) = rest.split(['=', ' ']).next() {
                    if !dep.is_empty() {
                        deps.push(Dep {
                            name: dep.to_string(),
                            line: idx as u32 + 1,
                            excerpt: line.to_string(),
                        });
                    }
                }
            }
        }
        Manifest {
            crate_name: crate_name.to_string(),
            rel_path: rel_path.to_string(),
            deps,
        }
    }
}

/// Loads every `crates/<name>/Cargo.toml` under `root`.
pub fn load_manifests(root: &Path) -> std::io::Result<Vec<Manifest>> {
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Ok(Vec::new());
    }
    let mut names: Vec<String> = std::fs::read_dir(&crates_dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .filter(|e| e.path().is_dir())
        .filter_map(|e| e.file_name().to_str().map(str::to_string))
        .collect();
    names.sort();
    let mut out = Vec::new();
    for name in names {
        let path = crates_dir.join(&name).join("Cargo.toml");
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        let rel = format!("crates/{name}/Cargo.toml");
        out.push(Manifest::parse(&name, &rel, &text));
    }
    Ok(out)
}

/// A source file handed to the analyzer.
#[derive(Debug)]
pub struct SourceFile {
    /// Classification (path, crate, kind).
    pub ctx: FileCtx,
    /// Full source text.
    pub src: String,
}

struct FileData<'a> {
    ctx: &'a FileCtx,
    src: &'a str,
    model: FileModel,
    tests: Vec<(u32, u32)>,
    lines: Vec<&'a str>,
}

impl FileData<'_> {
    fn in_test(&self, line: u32) -> bool {
        self.ctx.kind == FileKind::Test || self.tests.iter().any(|&(a, b)| line >= a && line <= b)
    }

    fn excerpt(&self, line: u32) -> String {
        self.lines
            .get(line as usize - 1)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }
}

/// Runs the semantic pass over parsed sources + manifests. Returns
/// `(findings, suppressed_by_pragma)`, findings sorted by (file, line,
/// rule). Malformed pragmas are L000 findings and cannot themselves be
/// suppressed.
pub fn analyze(files: &[SourceFile], manifests: &[Manifest]) -> (Vec<Finding>, usize) {
    let data: Vec<FileData> = files
        .iter()
        .map(|f| FileData {
            ctx: &f.ctx,
            src: &f.src,
            model: parse_file(&f.src),
            tests: test_regions_of(&f.src),
            lines: f.src.lines().collect(),
        })
        .collect();

    let mut raw: Vec<Finding> = Vec::new();
    let allowed: BTreeMap<&str, &[&str]> = ALLOWED_DEPS.iter().copied().collect();

    // --- W001: layering DAG ------------------------------------------------
    for m in manifests {
        let ok = allowed.get(m.crate_name.as_str()).copied().unwrap_or(&[]);
        for dep in &m.deps {
            if !ok.contains(&dep.name.as_str()) {
                raw.push(Finding {
                    file: m.rel_path.clone(),
                    line: dep.line,
                    rule: "W001",
                    excerpt: dep.excerpt.clone(),
                    hint: hint_for("W001"),
                });
            }
        }
    }

    // --- crate dependency closure (for call resolution) --------------------
    let direct: BTreeMap<&str, BTreeSet<&str>> = manifests
        .iter()
        .map(|m| {
            (
                m.crate_name.as_str(),
                m.deps.iter().map(|d| d.name.as_str()).collect(),
            )
        })
        .collect();
    let closure = |start: &str| -> BTreeSet<String> {
        let mut seen: BTreeSet<String> = BTreeSet::new();
        let mut work = vec![start.to_string()];
        while let Some(c) = work.pop() {
            if let Some(deps) = direct.get(c.as_str()) {
                for d in deps {
                    if seen.insert((*d).to_string()) {
                        work.push((*d).to_string());
                    }
                }
            }
        }
        seen
    };

    // --- global fn index + shard taint -------------------------------------
    // Fn identity: (file index, fn index). Resolution is by callee name
    // within the caller's crate and its dependency closure.
    let mut by_name: BTreeMap<&str, Vec<(usize, usize)>> = BTreeMap::new();
    for (fi, d) in data.iter().enumerate() {
        for (gi, f) in d.model.fns.iter().enumerate() {
            by_name.entry(f.name.as_str()).or_default().push((fi, gi));
        }
    }
    let crate_of = |fi: usize| data[fi].ctx.crate_name.as_deref();
    let reachable_crates: BTreeMap<usize, BTreeSet<String>> = data
        .iter()
        .enumerate()
        .map(|(fi, _)| {
            let mut set = match crate_of(fi) {
                Some(c) => closure(c),
                None => BTreeSet::new(),
            };
            if let Some(c) = crate_of(fi) {
                set.insert(c.to_string());
            }
            (fi, set)
        })
        .collect();

    let mut tainted: BTreeSet<(usize, usize)> = BTreeSet::new();
    let mut work: Vec<(usize, usize)> = Vec::new();
    for (fi, d) in data.iter().enumerate() {
        if d.ctx.kind != FileKind::Lib {
            continue;
        }
        for (gi, f) in d.model.fns.iter().enumerate() {
            let is_shard_impl = f
                .impl_ctx
                .as_ref()
                .is_some_and(|c| c.trait_name.as_deref() == Some("ShardLogic"));
            if is_shard_impl && !d.in_test(f.line) && tainted.insert((fi, gi)) {
                work.push((fi, gi));
            }
        }
    }
    while let Some((fi, gi)) = work.pop() {
        let caller_crates = &reachable_crates[&fi];
        for call in &data[fi].model.fns[gi].calls {
            let Some(cands) = by_name.get(call.name.as_str()) else {
                continue;
            };
            for &(cfi, cgi) in cands {
                let callee_crate = crate_of(cfi);
                let in_scope = match callee_crate {
                    Some(c) => caller_crates.contains(c),
                    None => false,
                };
                if in_scope
                    && data[cfi].ctx.kind == FileKind::Lib
                    && !data[cfi].in_test(data[cfi].model.fns[cgi].line)
                    && tainted.insert((cfi, cgi))
                {
                    work.push((cfi, cgi));
                }
            }
        }
    }

    // --- mutable statics (for S003) ----------------------------------------
    let mut mut_statics: BTreeMap<&str, Vec<usize>> = BTreeMap::new(); // name -> file idx
    for (fi, d) in data.iter().enumerate() {
        for s in &d.model.statics {
            let mutable = s.thread_local || ty_has_interior_mutability(&s.ty);
            if mutable {
                mut_statics.entry(s.name.as_str()).or_default().push(fi);
            }
        }
    }

    // --- S001 / S003 over tainted fns --------------------------------------
    for &(fi, gi) in &tainted {
        let d = &data[fi];
        let Some(krate) = crate_of(fi) else { continue };
        if SINK_CRATES.contains(&krate) {
            continue;
        }
        let f = &d.model.fns[gi];
        let in_drop = f
            .impl_ctx
            .as_ref()
            .is_some_and(|c| c.trait_name.as_deref() == Some("Drop"));
        for call in &f.calls {
            if OBS_WRITES.contains(&call.name.as_str()) && !in_drop && !d.in_test(call.line) {
                raw.push(Finding {
                    file: d.ctx.rel_path.clone(),
                    line: call.line,
                    rule: "S001",
                    excerpt: d.excerpt(call.line),
                    hint: hint_for("S001"),
                });
            }
        }
        let visible = &reachable_crates[&fi];
        for r in &f.screaming_refs {
            let Some(decl_files) = mut_statics.get(r.name.as_str()) else {
                continue;
            };
            let in_scope = decl_files
                .iter()
                .any(|&sfi| crate_of(sfi).is_some_and(|c| c == krate || visible.contains(c)));
            if in_scope && !d.in_test(r.line) {
                raw.push(Finding {
                    file: d.ctx.rel_path.clone(),
                    line: r.line,
                    rule: "S003",
                    excerpt: d.excerpt(r.line),
                    hint: hint_for("S003"),
                });
            }
        }
    }

    // --- S002 / F001 per file ----------------------------------------------
    for d in &data {
        if d.ctx.kind != FileKind::Lib {
            continue;
        }
        let krate = d.ctx.crate_name.as_deref().unwrap_or("");
        let env_exempt = krate == "campaign" || d.ctx.rel_path == "crates/core/src/par.rs";
        if !env_exempt {
            for e in &d.model.env_reads {
                if !d.in_test(e.line) {
                    raw.push(Finding {
                        file: d.ctx.rel_path.clone(),
                        line: e.line,
                        rule: "S002",
                        excerpt: d.excerpt(e.line),
                        hint: hint_for("S002"),
                    });
                }
            }
        }
        for fa in &d.model.float_par {
            if !d.in_test(fa.line) {
                raw.push(Finding {
                    file: d.ctx.rel_path.clone(),
                    line: fa.line,
                    rule: "F001",
                    excerpt: d.excerpt(fa.line),
                    hint: hint_for("F001"),
                });
            }
        }
    }

    // One finding per (rule, file, line): taint can reach a fn through
    // several paths, the hazard site is still one.
    raw.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    raw.dedup_by(|a, b| a.rule == b.rule && a.file == b.file && a.line == b.line);

    // --- pragmas: L000 for malformed ones, suppression by the rest ---------
    let mut pragmas = BTreeMap::new();
    let mut findings = Vec::new();
    for d in &data {
        let (ok, malformed) = scan_pragmas(d.ctx, d.src);
        pragmas.insert(d.ctx.rel_path.as_str(), ok);
        findings.extend(malformed);
    }
    let mut silenced = 0usize;
    for f in raw {
        if pragmas
            .get(f.file.as_str())
            .is_some_and(|ps| suppressed(ps, f.rule, f.line))
        {
            silenced += 1;
        } else {
            findings.push(f);
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    (findings, silenced)
}

/// True when a static's type tokens imply interior mutability that
/// shard handlers could race on or order-depend on. Write-once cells
/// (`OnceLock`, `OnceCell`, `LazyLock`) are excluded: they cannot vary
/// across shard schedules after initialization.
fn ty_has_interior_mutability(ty: &str) -> bool {
    ty.split(|c: char| !c.is_ascii_alphanumeric() && c != '_')
        .any(|word| {
            word.starts_with("Atomic")
                || matches!(word, "Mutex" | "RwLock" | "RefCell" | "Cell" | "UnsafeCell")
        })
}

/// Validates the declared DAG itself: every named dep exists as a key
/// and the graph is acyclic (a topological order exists). Used by unit
/// tests so the table cannot decay into something self-contradictory.
pub fn dag_is_well_formed() -> Result<(), String> {
    let keys: BTreeSet<&str> = ALLOWED_DEPS.iter().map(|(k, _)| *k).collect();
    for (k, deps) in ALLOWED_DEPS {
        for d in *deps {
            if !keys.contains(d) {
                return Err(format!("crate `{k}` allows unknown dep `{d}`"));
            }
        }
    }
    // Kahn's algorithm over the allowed edges.
    let mut indeg: BTreeMap<&str, usize> = keys.iter().map(|k| (*k, 0)).collect();
    for (_, deps) in ALLOWED_DEPS {
        for d in *deps {
            if let Some(n) = indeg.get_mut(d) {
                *n += 1;
            }
        }
    }
    let mut ready: Vec<&str> = indeg
        .iter()
        .filter(|(_, &n)| n == 0)
        .map(|(k, _)| *k)
        .collect();
    let mut done = 0usize;
    while let Some(k) = ready.pop() {
        done += 1;
        let deps = ALLOWED_DEPS
            .iter()
            .find(|(name, _)| *name == k)
            .map_or(&[][..], |(_, d)| *d);
        for d in deps {
            if let Some(n) = indeg.get_mut(d) {
                *n -= 1;
                if *n == 0 {
                    ready.push(d);
                }
            }
        }
    }
    if done != keys.len() {
        return Err("layering DAG has a cycle".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src_file(path: &str, src: &str) -> SourceFile {
        SourceFile {
            ctx: FileCtx::classify(path).expect("classifiable"),
            src: src.to_string(),
        }
    }

    fn rules_at(findings: &[Finding]) -> Vec<(&str, u32)> {
        findings.iter().map(|f| (f.rule, f.line)).collect()
    }

    #[test]
    fn declared_dag_is_well_formed() {
        dag_is_well_formed().expect("DAG must be acyclic and closed");
    }

    #[test]
    fn manifest_parse_reads_dependencies_only() {
        let toml = "\
[package]
name = \"fiveg-net\"

[dependencies]
fiveg-obs = { workspace = true }
fiveg-simcore = { workspace = true }

[dev-dependencies]
fiveg-core = { workspace = true }
";
        let m = Manifest::parse("net", "crates/net/Cargo.toml", toml);
        let names: Vec<&str> = m.deps.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, vec!["obs", "simcore"]);
        assert_eq!(m.deps[0].line, 5);
    }

    #[test]
    fn w001_fires_on_undeclared_edges() {
        let m = Manifest::parse(
            "geo",
            "crates/geo/Cargo.toml",
            "[dependencies]\nfiveg-simcore = { workspace = true }\nfiveg-core = { workspace = true }\n",
        );
        let (f, _) = analyze(&[], &[m]);
        assert_eq!(rules_at(&f), vec![("W001", 3)]);
    }

    #[test]
    fn s001_taint_reaches_through_helpers() {
        let src = "
impl ShardLogic for Node {
    fn handle(&mut self) { self.helper(); }
}
impl Node {
    fn helper(&mut self) { fiveg_obs::counter_add(\"x.y\", 1); }
}
fn unrelated() { fiveg_obs::counter_add(\"x.z\", 1); }
";
        let (f, _) = analyze(&[src_file("crates/core/src/fx.rs", src)], &[]);
        assert_eq!(rules_at(&f), vec![("S001", 6)]);
    }

    #[test]
    fn s001_exempts_drop_flush_and_sink_crates() {
        let src = "
impl ShardLogic for Node {
    fn handle(&mut self) { scratch_done(); }
}
fn scratch_done() { let s = Scratch; drop(s); }
impl Drop for Scratch {
    fn drop(&mut self) { fiveg_obs::counter_add(\"x.y\", 1); }
}
";
        let (f, _) = analyze(&[src_file("crates/phy/src/fx.rs", src)], &[]);
        assert!(!rules_at(&f).iter().any(|&(r, _)| r == "S001"), "{f:?}");
        // Same shape inside the trace crate: exempt wholesale.
        let src = "
impl ShardLogic for Node {
    fn handle(&mut self) { fiveg_obs::counter_add(\"t\", 1); }
}
";
        let (f, _) = analyze(&[src_file("crates/trace/src/fx.rs", src)], &[]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn s003_flags_mutable_static_refs() {
        let src = "
static SEQ: AtomicU64 = AtomicU64::new(0);
static LIMIT: usize = 8;
impl ShardLogic for Node {
    fn handle(&mut self) {
        SEQ.fetch_add(1, Ordering::Relaxed);
        let _ = LIMIT;
    }
}
";
        let (f, _) = analyze(&[src_file("crates/core/src/fx.rs", src)], &[]);
        assert_eq!(rules_at(&f), vec![("S003", 6)]);
    }

    #[test]
    fn s002_scopes_env_reads() {
        let src = "fn f() { let v = std::env::var(\"FIVEG_SHARDS\"); }\n";
        let (f, _) = analyze(&[src_file("crates/net/src/fx.rs", src)], &[]);
        assert_eq!(rules_at(&f), vec![("S002", 1)]);
        // core::par and campaign are the sanctioned homes.
        let (f, _) = analyze(&[src_file("crates/core/src/par.rs", src)], &[]);
        assert!(f.is_empty());
        let (f, _) = analyze(&[src_file("crates/campaign/src/fx.rs", src)], &[]);
        assert!(f.is_empty());
    }

    #[test]
    fn pragmas_suppress_semantic_findings() {
        let src = "\
fn knobs() {
    // fiveg-lint: allow(S002) -- read once at start-up
    let a = std::env::var(\"FIVEG_A\");
    let b = std::env::var(\"FIVEG_B\");
}
";
        let (f, s) = analyze(&[src_file("crates/geo/src/fx.rs", src)], &[]);
        assert_eq!(s, 1);
        assert_eq!(rules_at(&f), vec![("S002", 4)]);
    }

    #[test]
    fn test_regions_are_exempt() {
        let src = "
#[cfg(test)]
mod tests {
    impl ShardLogic for T { fn handle(&mut self) { fiveg_obs::counter_add(\"x\", 1); } }
    pub fn helper() {}
}
";
        let (f, _) = analyze(&[src_file("crates/core/src/fx.rs", src)], &[]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn cross_crate_taint_respects_dependency_edges() {
        let core_manifest = Manifest::parse(
            "core",
            "crates/core/Cargo.toml",
            "[dependencies]\nfiveg-phy = { workspace = true }\n",
        );
        let phy_manifest = Manifest::parse("phy", "crates/phy/Cargo.toml", "[dependencies]\n");
        let core_src = "
impl ShardLogic for Node {
    fn handle(&mut self) { measure_site(); }
}
";
        let phy_src = "fn measure_site() { fiveg_obs::counter_add(\"phy.x\", 1); }\n";
        let (f, _) = analyze(
            &[
                src_file("crates/core/src/fx.rs", core_src),
                src_file("crates/phy/src/fx.rs", phy_src),
            ],
            &[core_manifest, phy_manifest],
        );
        assert_eq!(rules_at(&f), vec![("S001", 1)]);
        // Reverse direction: phy does not depend on core, so a handler
        // in phy cannot taint a core fn.
        let phy_handler = "
impl ShardLogic for Node {
    fn handle(&mut self) { core_helper(); }
}
";
        let core_helper = "fn core_helper() { fiveg_obs::counter_add(\"c.x\", 1); }\n";
        let core_manifest = Manifest::parse(
            "core",
            "crates/core/Cargo.toml",
            "[dependencies]\nfiveg-phy = { workspace = true }\n",
        );
        let phy_manifest = Manifest::parse("phy", "crates/phy/Cargo.toml", "[dependencies]\n");
        let (f, _) = analyze(
            &[
                src_file("crates/phy/src/fx.rs", phy_handler),
                src_file("crates/core/src/fx.rs", core_helper),
            ],
            &[core_manifest, phy_manifest],
        );
        assert!(f.is_empty(), "{f:?}");
    }
}
