//! Error-path coverage for the fiveg-obs JSON reader.
//!
//! This parser gates two committed golden formats — the bench baseline
//! (`golden/bench-baseline.json`) and the lint baseline
//! (`golden/lint-baseline.json`) — so a malformed or truncated file
//! must fail loudly with a byte offset, never mis-parse.

use fiveg_obs::{parse_json, JsonValue};

fn err_at(input: &str) -> usize {
    parse_json(input).expect_err("must fail").offset
}

#[test]
fn truncated_documents_fail_with_offsets() {
    // Truncation at every structural layer: object, key, colon, value,
    // array, string, and mid-escape.
    for input in [
        "{",
        "{\"a\"",
        "{\"a\":",
        "{\"a\":1",
        "{\"a\":1,",
        "[",
        "[1",
        "[1,",
        "\"abc",
        "\"abc\\",
        "\"abc\\u00",
        "tru",
        "-",
    ] {
        let e = parse_json(input).expect_err(input);
        assert!(
            e.offset <= input.len(),
            "offset {} beyond input for {input:?}",
            e.offset
        );
    }
}

#[test]
fn truncated_u_escape_is_reported_as_such() {
    let e = parse_json("\"a\\u12").expect_err("truncated escape");
    assert!(e.message.contains("truncated"), "{e}");
}

#[test]
fn duplicate_keys_are_rejected() {
    // The writers never emit duplicates, so a repeated key is a
    // hand-edit that would otherwise silently drop one value. The
    // error points at the second occurrence, at any depth.
    let e = parse_json(r#"{"a": 1, "b": 2, "a": 3}"#).expect_err("duplicate");
    assert_eq!(e.offset, 17, "{e}");
    assert!(e.message.contains("duplicate key `a`"), "{e}");
    assert_eq!(err_at(r#"[{"x": {"y": 1, "y": 2}}]"#), 16);
    // The same key in sibling objects is fine.
    let v = parse_json(r#"[{"a": 1}, {"a": 2}]"#).expect("siblings");
    assert!(matches!(v, JsonValue::Array(ref items) if items.len() == 2));
}

#[test]
fn invalid_unicode_escapes() {
    // Non-hex digits in \u.
    assert!(parse_json("\"\\uzzzz\"").is_err());
    // Multi-byte UTF-8 inside a \u escape's hex window is non-ascii.
    assert!(parse_json("\"\\u12é4\"").is_err());
    // Unknown escape letter.
    assert!(parse_json("\"\\q\"").is_err());
}

#[test]
fn unpaired_surrogates_become_replacement_chars() {
    // The writer never emits surrogates; reading one back cannot panic
    // and maps to U+FFFD so downstream comparisons stay total.
    let v = parse_json("\"a\\ud800b\"").expect("parses");
    assert_eq!(v.as_str(), Some("a\u{fffd}b"));
}

#[test]
fn raw_multibyte_utf8_passes_through() {
    let v = parse_json("\"héllo — ok\"").expect("parses");
    assert_eq!(v.as_str(), Some("héllo — ok"));
}

#[test]
fn trailing_garbage_is_rejected_with_position() {
    assert_eq!(err_at("{} x"), 3);
    assert!(parse_json("1 2").is_err());
    assert!(parse_json("{\"a\":1} {\"b\":2}").is_err());
}

#[test]
fn malformed_numbers_are_rejected() {
    for input in ["1e", "1e+", "--5", "1.2.3", "0x10"] {
        assert!(parse_json(input).is_err(), "{input:?} must fail");
    }
}

#[test]
fn structural_errors_are_rejected() {
    for input in [
        "{\"a\" 1}",         // missing colon
        "{\"a\":1 \"b\":2}", // missing comma
        "[1 2]",
        "{1: 2}", // non-string key
        "[,]",
        "{,}",
    ] {
        assert!(parse_json(input).is_err(), "{input:?} must fail");
    }
}
