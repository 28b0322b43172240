//! `fiveg-lint` CLI.
//!
//! Exit codes: 0 = clean, 1 = usage or I/O error, 2 = findings
//! (`--check`).

use std::path::PathBuf;
use std::process::ExitCode;

use fiveg_lint::{report_json, scan_workspace, worst_rule, Finding, RULES, TOOLCHAIN_RULES};

const USAGE: &str = "\
fiveg-lint: workspace determinism linter

USAGE: fiveg-lint [MODE] [--root DIR]

MODES (default: list all findings):
  --check       exit 2 on any finding; print the findings and the rule
                id with the most of them
  --json        print the full report as stable, diffable JSON
  --rules       print the rule table, then the rules clippy and rustc
                enforce instead
  --help        this text

OPTIONS:
  --root DIR    workspace root (default: nearest ancestor with a
                [workspace] Cargo.toml)
";

enum Mode {
    List,
    Check,
    Json,
    Rules,
}

fn main() -> ExitCode {
    let mut mode = Mode::List;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => mode = Mode::Check,
            "--json" => mode = Mode::Json,
            "--rules" => mode = Mode::Rules,
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--root" => match args.next() {
                Some(v) => root = Some(PathBuf::from(v)),
                None => return usage_error("--root needs a value"),
            },
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }

    if let Mode::Rules = mode {
        for (id, what, hint) in RULES {
            println!("{id}  {what}\n      fix: {hint}");
        }
        println!("\nenforced by the toolchain (cargo clippy -D warnings):");
        for (id, what, lint, place) in TOOLCHAIN_RULES {
            println!("{id}  {what}\n      lint: {lint} ({place})");
        }
        return ExitCode::SUCCESS;
    }

    let Some(root) = root.or_else(find_workspace_root) else {
        eprintln!("fiveg-lint: no [workspace] Cargo.toml above the current directory; pass --root");
        return ExitCode::FAILURE;
    };
    let report = match scan_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fiveg-lint: scan failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    match mode {
        Mode::Json => {
            print!("{}", report_json(&report));
            ExitCode::SUCCESS
        }
        Mode::Check => {
            if report.findings.is_empty() {
                println!(
                    "fiveg-lint: clean — {} files, {} suppressed",
                    report.files, report.suppressed
                );
                return ExitCode::SUCCESS;
            }
            for f in &report.findings {
                print_finding(f);
            }
            if let Some((rule, count)) = worst_rule(&report.findings) {
                eprintln!(
                    "fiveg-lint: {} finding(s); most from {rule} ({count}) — fix them or add `// fiveg-lint: allow({rule}) -- reason`",
                    report.findings.len()
                );
            }
            ExitCode::from(2)
        }
        Mode::List => {
            for f in &report.findings {
                print_finding(f);
            }
            println!(
                "fiveg-lint: {} findings in {} files ({} suppressed)",
                report.findings.len(),
                report.files,
                report.suppressed
            );
            ExitCode::SUCCESS
        }
        Mode::Rules => unreachable!("handled above"),
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("fiveg-lint: {msg}\n\n{USAGE}");
    ExitCode::FAILURE
}

fn print_finding(f: &Finding) {
    println!("{}:{} {} `{}`", f.file, f.line, f.rule, f.excerpt);
    println!("        fix: {}", f.hint);
}

fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
