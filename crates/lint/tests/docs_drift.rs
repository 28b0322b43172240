//! Docs-drift check: the two DESIGN.md §7 rule tables must match
//! `fiveg_lint::RULES` and `fiveg_lint::TOOLCHAIN_RULES` — the tables
//! `fiveg-lint --rules` prints — row for row, string for string. Edit
//! either side without the other and this test names the exact drifted
//! cell.

use fiveg_lint::{RULES, TOOLCHAIN_RULES};

const RULES_HEADER: &str = "| rule | what it catches | fix hint |";
const TOOLCHAIN_HEADER: &str = "| rule | what it catches | lint | configured in |";

fn design() -> String {
    let design_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md");
    std::fs::read_to_string(design_path)
        .unwrap_or_else(|e| panic!("cannot read {design_path}: {e}"))
}

/// The body rows of the markdown table whose header line is `header`,
/// each split into trimmed cells.
fn table_rows(design: &str, header: &str) -> Vec<Vec<String>> {
    let mut lines = design.lines().skip_while(|l| l.trim() != header);
    assert!(lines.next().is_some(), "DESIGN.md has no `{header}` table");
    lines.next(); // the |---| separator
    lines
        .take_while(|l| l.starts_with('|'))
        .map(|l| {
            l.trim()
                .trim_matches('|')
                .split('|')
                .map(|c| c.trim().to_string())
                .collect()
        })
        .collect()
}

/// Asserts the table rows equal `want`, naming the first drifted cell.
fn assert_table(header: &str, want: &[Vec<&str>]) {
    let rows = table_rows(&design(), header);
    assert_eq!(
        rows.len(),
        want.len(),
        "DESIGN.md `{header}` table has {} rows, the code has {} — add/remove the row",
        rows.len(),
        want.len()
    );
    for (row, want) in rows.iter().zip(want) {
        assert_eq!(
            row, want,
            "{}: DESIGN.md row differs from the code (and from `--rules` output)",
            want[0]
        );
    }
}

#[test]
fn design_section_7_table_matches_rules() {
    let want: Vec<Vec<&str>> = RULES
        .iter()
        .map(|(id, what, hint)| vec![*id, *what, *hint])
        .collect();
    assert_table(RULES_HEADER, &want);
}

#[test]
fn design_section_7_toolchain_table_matches() {
    let want: Vec<Vec<&str>> = TOOLCHAIN_RULES
        .iter()
        .map(|(id, what, lint, place)| vec![*id, *what, *lint, *place])
        .collect();
    assert_table(TOOLCHAIN_HEADER, &want);
}

#[test]
fn design_has_section_12() {
    let design = design();
    assert!(
        design.contains("## 12. Workspace-aware semantic analysis"),
        "DESIGN.md lost §12 (workspace model / rule families / layering DAG)"
    );
    // The layering table lives in workspace.rs; §12 must point there.
    assert!(
        design.contains("ALLOWED_DEPS"),
        "DESIGN.md §12 no longer references the ALLOWED_DEPS layering DAG"
    );
}
