//! Property tests for the item-level parser: total on arbitrary input
//! (never panics, even on token soup and truncated items) and every
//! reported line stays inside the file — the span guarantee the
//! finding excerpts and `file:line` reports depend on.

use fiveg_lint::parser::{parse_file, FileModel};
use proptest::prelude::*;

/// Rust-ish fragments biased toward the constructs the parser treats
/// specially, so random concatenations hit item boundaries, attribute
/// back-scans, generic skips and parallel-region scans far more often
/// than uniform bytes would.
const FRAGMENTS: &[&str] = &[
    "pub ",
    "pub(crate) ",
    "fn f",
    "fn ",
    "(",
    ")",
    "{",
    "}",
    "{ }",
    ";",
    "impl ",
    "impl<T: Clone> ",
    "ShardLogic ",
    "for ",
    "Node ",
    "Drop ",
    "mod m ",
    "trait T ",
    "struct S ",
    "enum E ",
    "type A = B;",
    "static X: AtomicU64 = AtomicU64::new(0);",
    "static Y: usize = 8;",
    "thread_local! { static Z: RefCell<u32> = RefCell::new(0); }",
    "const C: f64 = 1.0;",
    "let mut acc = 0.0;",
    "let n = 0usize;",
    "acc += x;",
    "n += 1;",
    "par_map_with(xs, 4, || (), |_, i, x| ",
    "std::thread::scope(|s| ",
    "xs.iter().sum::<f64>()",
    ".fold(0.0, |a, b| a + b)",
    "OnlineStats::new()",
    "std::env::var(\"FIVEG_SHARDS\")",
    "env::var_os(\"PATH\")",
    "fiveg_obs::counter_add(\"k\", 1)",
    "SCREAMING_REF",
    "/// doc comment\n",
    "//! inner doc\n",
    "// plain comment\n",
    "/* block */ ",
    "/* /* nested */ */ ",
    "#[derive(Clone)]\n",
    "#[test]\n",
    "#[cfg(test)]\n",
    "#![forbid(unsafe_code)]\n",
    "#[doc = \"x\"]\n",
    "\"string literal\"",
    "r#\"raw \" string\"#",
    "'c'",
    "'static ",
    "0x1f",
    "1e3",
    "1_000e-5",
    "0.5f32",
    "::",
    "<",
    ">",
    "->",
    ",",
    ".",
    "\n",
    "    ",
    "=>",
    "&mut ",
    "where T: Send ",
];

/// Every line the model reports must be a real line of the input.
fn assert_spans(src: &str, model: &FileModel) {
    let max = src.lines().count() as u32 + 1;
    let ok = |line: u32| line >= 1 && line <= max;
    for f in &model.fns {
        assert!(ok(f.line), "fn {} line {} out of 1..={max}", f.name, f.line);
        for c in f.calls.iter().chain(&f.screaming_refs) {
            assert!(
                ok(c.line),
                "call {} line {} out of 1..={max}",
                c.name,
                c.line
            );
        }
    }
    for s in &model.statics {
        assert!(ok(s.line), "static {} line {}", s.name, s.line);
    }
    for e in &model.env_reads {
        assert!(ok(e.line), "env {} line {}", e.var, e.line);
    }
    for fa in &model.float_par {
        assert!(ok(fa.line), "float_par {} line {}", fa.what, fa.line);
    }
}

proptest! {
    #[test]
    fn parser_is_total_on_fragment_soup(
        picks in prop::collection::vec(0usize..FRAGMENTS.len(), 0..80)
    ) {
        let src: String = picks.iter().map(|&i| FRAGMENTS[i]).collect();
        let model = parse_file(&src);
        assert_spans(&src, &model);
    }

    #[test]
    fn parser_is_total_on_random_text(src in "[ -~\n]{0,200}") {
        let model = parse_file(&src);
        assert_spans(&src, &model);
    }

    #[test]
    fn truncation_never_panics(
        picks in prop::collection::vec(0usize..FRAGMENTS.len(), 1..40),
        cut in 0usize..400
    ) {
        // Chop a valid-ish stream mid-token: unterminated items and
        // dangling attributes must degrade, not panic.
        let src: String = picks.iter().map(|&i| FRAGMENTS[i]).collect();
        let cut = cut.min(src.len());
        let cut = (cut..=src.len())
            .find(|&c| src.is_char_boundary(c))
            .unwrap_or(src.len());
        let model = parse_file(&src[..cut]);
        assert_spans(&src[..cut], &model);
    }
}
