//! `BENCHMARK.json` must list exactly the workloads and metrics the
//! binary prints, in the same order, with the same units.

use fiveg_benchmark::catalog::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use fiveg_obs::json::{parse, JsonValue};
use std::path::Path;

fn benchmark_json() -> JsonValue {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(doc: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    match doc.get(key) {
        Some(JsonValue::Array(items)) => items,
        other => panic!("`{key}` is not a list: {other:?}"),
    }
}

fn field<'a>(item: &'a JsonValue, key: &str) -> &'a str {
    item.get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("entry lacks `{key}`: {item:?}"))
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn assert_metrics(doc: &JsonValue, key: &str, want: &[Metric]) {
    let got: Vec<(&str, &str, &str)> = list(doc, key)
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
        .collect();
    let want: Vec<(&str, &str, &str)> = want.iter().map(|m| (m.name, m.unit, m.better)).collect();
    assert_eq!(got, want, "`{key}` differs from the catalog");
}

#[test]
fn benchmark_json_matches_the_catalog() {
    let doc = benchmark_json();
    let workloads: Vec<(&str, &str)> = list(&doc, "workloads")
        .iter()
        .map(|w| (field(w, "name"), field(w, "why")))
        .collect();
    assert_eq!(workloads, WORKLOADS.to_vec());
    assert_metrics(&doc, "end_to_end", &END_TO_END);
    assert_metrics(&doc, "per_layer", &PER_LAYER);
}

#[test]
fn names_are_unique_and_well_formed() {
    let mut seen = std::collections::BTreeSet::new();
    let names = WORKLOADS
        .iter()
        .map(|(w, _)| *w)
        .chain(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name));
    for name in names {
        assert!(valid_name(name), "bad name `{name}`");
        assert!(seen.insert(name), "`{name}` used twice");
    }
    for m in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(matches!(m.better, "higher" | "lower"), "{}", m.name);
        assert!(
            m.unit.len() <= 16
                && m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit `{}`",
            m.unit
        );
    }
}
