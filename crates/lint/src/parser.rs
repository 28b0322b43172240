//! Item-level parsing on top of [`crate::tokenizer`].
//!
//! The workspace rules (S/F families) need more structure than a
//! token stream: which `fn` a call site lives in, whether that fn sits
//! inside an `impl ShardLogic for ...` block, where a parallel-closure
//! region starts and ends. This module recovers exactly that — modules, `fn`/`impl`/`trait`
//! items, statics, `thread_local!` declarations and closure-bearing
//! call regions — as a flat [`FileModel`] of *facts*, still with zero
//! external dependencies.
//!
//! Like the tokenizer, the parser must never fail: on syntactically
//! broken input it degrades to recording fewer facts, never panics and
//! never reports a line outside the file. (A property test drives
//! arbitrary inputs through it.)

use crate::tokenizer::{tokenize, Tok, TokKind};

/// The innermost `impl` block a fn sits in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImplCtx {
    /// `Some("ShardLogic")` for `impl fiveg_simcore::shard::ShardLogic
    /// for FleetNode` — the last path segment before `for`. `None` for
    /// inherent impls.
    pub trait_name: Option<String>,
    /// First path segment of the self type (`FleetNode`).
    pub type_name: String,
}

/// One call site inside a fn body: the callee's final name segment.
#[derive(Debug, Clone)]
pub struct Call {
    /// Identifier directly before the `(`.
    pub name: String,
    /// 1-based line of the callee identifier.
    pub line: u32,
}

/// One `fn` item (free, inherent method, or trait-impl method).
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// The fn's name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Innermost enclosing `impl` block, if any.
    pub impl_ctx: Option<ImplCtx>,
    /// Every `name(` call site in the body (methods and plain calls).
    pub calls: Vec<Call>,
    /// SCREAMING_SNAKE_CASE identifiers referenced in the body — the
    /// candidates for static/`thread_local!` state access (S003).
    pub screaming_refs: Vec<Call>,
}

/// A `static` item (or a `static` inside `thread_local!`).
#[derive(Debug, Clone)]
pub struct StaticInfo {
    /// The static's name.
    pub name: String,
    /// 1-based line of the name.
    pub line: u32,
    /// The type tokens joined with spaces (`AtomicU64`, `RefCell < V >`).
    pub ty: String,
    /// Declared inside a `thread_local! { ... }` block.
    pub thread_local: bool,
}

/// A float-accumulation hazard inside a parallel-closure region (F001).
#[derive(Debug, Clone)]
pub struct FloatAccum {
    /// 1-based line of the hazard.
    pub line: u32,
    /// What was matched (`+=`, `fold`, `sum::<f64>`, `OnlineStats`).
    pub what: &'static str,
}

/// A `std::env` read of a `FIVEG_*` variable (S002).
#[derive(Debug, Clone)]
pub struct EnvRead {
    /// 1-based line of the `env` identifier.
    pub line: u32,
    /// The literal variable name, quotes stripped.
    pub var: String,
}

/// Everything the workspace rules need to know about one file.
#[derive(Debug, Clone, Default)]
pub struct FileModel {
    /// All fn items, in source order.
    pub fns: Vec<FnInfo>,
    /// Item-level statics and `thread_local!` declarations.
    pub statics: Vec<StaticInfo>,
    /// Float accumulations inside `par_map*` / `thread::scope` closures.
    pub float_par: Vec<FloatAccum>,
    /// `FIVEG_*` environment reads.
    pub env_reads: Vec<EnvRead>,
    /// Number of lines in the file (span sanity bound).
    pub lines: u32,
}

/// Keywords that look like `name(` call sites but are control flow.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "as", "in", "move", "mut", "ref", "else",
    "let", "fn", "impl", "use", "pub", "struct", "enum", "where", "break", "continue", "await",
    "async", "dyn", "unsafe", "const", "static", "type", "trait", "mod", "crate", "super", "self",
    "Self",
];

/// Function names whose argument list is a parallel region: any closure
/// passed to them runs on multiple workers concurrently.
const PAR_ENTRYPOINTS: &[&str] = &["par_map", "par_map_threads", "par_map_with"];

/// Parses one file into its fact model. Never panics; unknown syntax
/// is skipped, not diagnosed.
pub fn parse_file(src: &str) -> FileModel {
    let toks = tokenize(src);
    let sig: Vec<&Tok> = toks.iter().filter(|t| !t.is_comment()).collect();
    let mut p = Parser {
        sig: &sig,
        model: FileModel {
            lines: src.lines().count() as u32 + 1,
            ..FileModel::default()
        },
    };
    let mut i = 0;
    p.parse_items(&mut i, sig.len(), None);
    p.model
}

struct Parser<'a, 'b> {
    sig: &'b [&'b Tok<'a>],
    model: FileModel,
}

impl Parser<'_, '_> {
    fn text(&self, i: usize) -> &str {
        self.sig.get(i).map_or("", |t| t.text)
    }

    fn line(&self, i: usize) -> u32 {
        self.sig.get(i).map_or(1, |t| t.line)
    }

    /// Advances past a balanced `open`/`close` group; `i` enters at the
    /// opening token and leaves just past the matching close (or at
    /// `end` on truncated input).
    fn skip_balanced(&self, i: &mut usize, end: usize, open: &str, close: &str) {
        let mut depth = 0usize;
        while *i < end {
            let t = self.text(*i);
            if t == open {
                depth += 1;
            } else if t == close {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    *i += 1;
                    return;
                }
            }
            *i += 1;
        }
    }

    /// Parses items in `sig[*i..end]`; `impl_ctx` is the innermost
    /// enclosing impl block.
    fn parse_items(&mut self, i: &mut usize, end: usize, impl_ctx: Option<&ImplCtx>) {
        while *i < end {
            let t = self.text(*i);
            match t {
                "#" => {
                    // Attribute: `#[...]` or `#![...]`.
                    *i += 1;
                    if self.text(*i) == "!" {
                        *i += 1;
                    }
                    if self.text(*i) == "[" {
                        self.skip_balanced(i, end, "[", "]");
                    }
                }
                "fn" => {
                    self.parse_fn(i, end, impl_ctx);
                }
                "impl" => {
                    self.parse_impl(i, end);
                }
                "mod" => {
                    // Past `mod name`.
                    *i += 2;
                    if self.text(*i) == "{" {
                        let mut j = *i;
                        self.skip_balanced(&mut j, end, "{", "}");
                        *i += 1; // step inside the brace
                        self.parse_items(i, j.saturating_sub(1), None);
                        *i = j;
                    } else if self.text(*i) == ";" {
                        *i += 1;
                    }
                }
                "struct" | "enum" | "trait" | "union" | "type" => {
                    let is_trait = t == "trait";
                    // Past the keyword and the name.
                    *i += 2;
                    // Body: trait bodies contain items (default methods);
                    // struct/enum bodies are data and are skipped.
                    while *i < end && self.text(*i) != "{" && self.text(*i) != ";" {
                        if self.text(*i) == "(" {
                            // Tuple struct: skip fields, then expect `;`.
                            self.skip_balanced(i, end, "(", ")");
                            continue;
                        }
                        *i += 1;
                    }
                    if self.text(*i) == "{" {
                        if is_trait {
                            let mut j = *i;
                            self.skip_balanced(&mut j, end, "{", "}");
                            *i += 1;
                            self.parse_items(i, j.saturating_sub(1), None);
                            *i = j;
                        } else {
                            self.skip_balanced(i, end, "{", "}");
                        }
                    } else if self.text(*i) == ";" {
                        *i += 1;
                    }
                }
                "static" | "const" => {
                    // `const fn` is handled by the `fn` arm next round.
                    if self.text(*i + 1) == "fn"
                        || (self.text(*i + 1) == "unsafe" && self.text(*i + 2) == "fn")
                    {
                        *i += 1;
                        continue;
                    }
                    let is_static = t == "static";
                    *i += 1;
                    if self.text(*i) == "mut" {
                        *i += 1;
                    }
                    let name = self.text(*i).to_string();
                    let name_line = self.line(*i);
                    *i += 1;
                    let mut ty = String::new();
                    if self.text(*i) == ":" {
                        *i += 1;
                        while *i < end && self.text(*i) != "=" && self.text(*i) != ";" {
                            if !ty.is_empty() {
                                ty.push(' ');
                            }
                            ty.push_str(self.text(*i));
                            *i += 1;
                        }
                    }
                    while *i < end && self.text(*i) != ";" {
                        if self.text(*i) == "{" {
                            self.skip_balanced(i, end, "{", "}");
                            continue;
                        }
                        *i += 1;
                    }
                    if is_static && !name.is_empty() {
                        self.model.statics.push(StaticInfo {
                            name,
                            line: name_line,
                            ty,
                            thread_local: false,
                        });
                    }
                }
                "thread_local" if self.text(*i + 1) == "!" => {
                    *i += 2;
                    if self.text(*i) == "{" || self.text(*i) == "(" {
                        let (open, close) = if self.text(*i) == "{" {
                            ("{", "}")
                        } else {
                            ("(", ")")
                        };
                        let mut j = *i;
                        self.skip_balanced(&mut j, end, open, close);
                        // Record each `static NAME` inside the macro body.
                        let mut k = *i;
                        while k < j {
                            if self.text(k) == "static" {
                                let name = self.text(k + 1).to_string();
                                if !name.is_empty() {
                                    self.model.statics.push(StaticInfo {
                                        name,
                                        line: self.line(k + 1),
                                        ty: String::new(),
                                        thread_local: true,
                                    });
                                }
                            }
                            k += 1;
                        }
                        *i = j;
                    }
                }
                "{" => {
                    // Stray block (e.g. macro output); recurse so nested
                    // items keep their impl context.
                    let mut j = *i;
                    self.skip_balanced(&mut j, end, "{", "}");
                    *i += 1;
                    self.parse_items(i, j.saturating_sub(1), impl_ctx);
                    *i = j;
                }
                _ => {
                    *i += 1;
                }
            }
        }
    }

    /// At the `impl` keyword: recovers the trait/type names and parses
    /// the body's items with that context.
    fn parse_impl(&mut self, i: &mut usize, end: usize) {
        *i += 1; // past `impl`
        if self.text(*i) == "<" {
            // Generic params: skip to the matching `>` by nesting count.
            let mut depth = 0usize;
            while *i < end {
                match self.text(*i) {
                    "<" => depth += 1,
                    ">" => {
                        depth = depth.saturating_sub(1);
                        if depth == 0 {
                            *i += 1;
                            break;
                        }
                    }
                    "{" | ";" => break, // malformed; bail
                    _ => {}
                }
                *i += 1;
            }
        }
        // Collect path idents up to `{` / `;`, splitting at `for`.
        let mut before_for: Vec<String> = Vec::new();
        let mut after_for: Vec<String> = Vec::new();
        let mut seen_for = false;
        while *i < end {
            let t = self.text(*i);
            match t {
                "{" | ";" | "where" => break,
                "for" => seen_for = true,
                _ => {
                    if self
                        .sig
                        .get(*i)
                        .is_some_and(|t| t.kind == TokKind::Ident && t.text != "dyn")
                    {
                        if seen_for {
                            after_for.push(t.to_string());
                        } else {
                            before_for.push(t.to_string());
                        }
                    }
                }
            }
            *i += 1;
        }
        if self.text(*i) == "where" {
            while *i < end && self.text(*i) != "{" && self.text(*i) != ";" {
                *i += 1;
            }
        }
        let ctx = if seen_for {
            ImplCtx {
                trait_name: before_for.last().cloned(),
                type_name: after_for.first().cloned().unwrap_or_default(),
            }
        } else {
            ImplCtx {
                trait_name: None,
                type_name: before_for.first().cloned().unwrap_or_default(),
            }
        };
        if self.text(*i) == "{" {
            let mut j = *i;
            self.skip_balanced(&mut j, end, "{", "}");
            *i += 1;
            self.parse_items(i, j.saturating_sub(1), Some(&ctx));
            *i = j;
        } else if self.text(*i) == ";" {
            *i += 1;
        }
    }

    /// At the `fn` keyword: records the fn and scans its body for call
    /// sites, screaming-case references, parallel regions, float
    /// accumulation and env reads.
    fn parse_fn(&mut self, i: &mut usize, end: usize, impl_ctx: Option<&ImplCtx>) {
        let fn_line = self.line(*i);
        *i += 1;
        let name = self.text(*i).to_string();
        *i += 1;
        // Signature: skip to the body `{` or declaration `;`, balancing
        // parens/brackets (a `{` inside them — e.g. a default argument
        // block — does not open the body).
        let mut paren = 0usize;
        while *i < end {
            match self.text(*i) {
                "(" | "[" => paren += 1,
                ")" | "]" => paren = paren.saturating_sub(1),
                "{" if paren == 0 => break,
                ";" if paren == 0 => {
                    // Trait method declaration without a body.
                    *i += 1;
                    self.record_fn(name, fn_line, impl_ctx, 0, 0);
                    return;
                }
                _ => {}
            }
            *i += 1;
        }
        let body_start = *i;
        let mut j = *i;
        self.skip_balanced(&mut j, end, "{", "}");
        self.record_fn(name, fn_line, impl_ctx, body_start, j);
        *i = j;
    }

    fn record_fn(
        &mut self,
        name: String,
        line: u32,
        impl_ctx: Option<&ImplCtx>,
        body_start: usize,
        body_end: usize,
    ) {
        if name.is_empty() {
            return;
        }
        let mut info = FnInfo {
            name,
            line,
            impl_ctx: impl_ctx.cloned(),
            calls: Vec::new(),
            screaming_refs: Vec::new(),
        };
        if body_end > body_start {
            self.scan_body(body_start, body_end, &mut info);
        }
        self.model.fns.push(info);
    }

    /// Variable names bound with a float initializer anywhere in
    /// `sig[start..end]`: `let [mut] name` whose binding statement
    /// mentions `f64`/`f32` or a float literal. Lets the par-region
    /// scan see that `acc += x` is a float accumulation when the float
    /// type only appears at the `let` site.
    fn float_bindings(&self, start: usize, end: usize) -> Vec<String> {
        let mut out = Vec::new();
        let mut k = start;
        while k < end {
            if self.text(k) == "let" {
                let mut n = k + 1;
                if self.text(n) == "mut" {
                    n += 1;
                }
                let name = self.text(n).to_string();
                let is_ident = self.sig.get(n).is_some_and(|t| t.kind == TokKind::Ident);
                // Scan the binding statement (to `;`) for float-ness.
                let mut j = n;
                let mut is_float = false;
                while j < end && self.text(j) != ";" {
                    if let Some(t) = self.sig.get(j) {
                        is_float |= match t.kind {
                            TokKind::Ident => t.text == "f64" || t.text == "f32",
                            TokKind::Num => is_float_literal(t.text),
                            _ => false,
                        };
                    }
                    j += 1;
                }
                if is_ident && is_float {
                    out.push(name);
                }
                k = j;
            }
            k += 1;
        }
        out
    }

    /// Scans a fn body `sig[start..end]` for the fact kinds.
    fn scan_body(&mut self, start: usize, end: usize, info: &mut FnInfo) {
        let mut par_regions: Vec<(usize, usize)> = Vec::new();
        let mut k = start;
        while k < end {
            let t = self.sig[k];
            if t.kind == TokKind::Ident {
                let name = t.text;
                let next = self.text(k + 1);
                // Call site: `name(`, excluding control-flow keywords.
                if next == "(" && !NON_CALL_KEYWORDS.contains(&name) {
                    info.calls.push(Call {
                        name: name.to_string(),
                        line: t.line,
                    });
                }
                // Parallel region: the balanced argument list of a
                // `par_map*` call or of `thread::scope`.
                let is_par = PAR_ENTRYPOINTS.contains(&name)
                    || (name == "scope"
                        && k >= 2
                        && self.text(k - 1) == ":"
                        && self.text(k - 2) == ":"
                        && k >= 3
                        && self.text(k - 3) == "thread");
                if is_par && next == "(" {
                    let mut j = k + 1;
                    self.skip_balanced(&mut j, end, "(", ")");
                    par_regions.push((k + 1, j));
                }
                // Screaming-case reference (static / thread_local use).
                if is_screaming(name) {
                    info.screaming_refs.push(Call {
                        name: name.to_string(),
                        line: t.line,
                    });
                }
                // `env::var("FIVEG_...")` / `env::var_os(...)`.
                if name == "env" && next == ":" && self.text(k + 2) == ":" {
                    let callee = self.text(k + 3);
                    if callee.starts_with("var") && self.text(k + 4) == "(" {
                        if let Some(arg) = self.sig.get(k + 5) {
                            if arg.kind == TokKind::Str {
                                let var = arg.text.trim_matches('"');
                                if var.starts_with("FIVEG_") {
                                    self.model.env_reads.push(EnvRead {
                                        line: t.line,
                                        var: var.to_string(),
                                    });
                                }
                            }
                        }
                    }
                }
            }
            k += 1;
        }
        if !par_regions.is_empty() {
            let float_vars = self.float_bindings(start, end);
            for (a, b) in par_regions {
                self.scan_par_region(a, b.min(end), &float_vars);
            }
        }
    }

    /// Flags order-dependent float reductions inside one parallel
    /// region (the argument list of a `par_map*` / `thread::scope`
    /// call, closures included). `float_vars` carries variables the
    /// enclosing fn bound with a float initializer.
    fn scan_par_region(&mut self, start: usize, end: usize, float_vars: &[String]) {
        let mut k = start;
        while k < end {
            let t = self.sig[k];
            let push = |model: &mut FileModel, line: u32, what: &'static str| {
                if !model
                    .float_par
                    .iter()
                    .any(|f| f.line == line && f.what == what)
                {
                    model.float_par.push(FloatAccum { line, what });
                }
            };
            match t.kind {
                TokKind::Ident => match t.text {
                    // The workspace's order-sensitive accumulator: its
                    // push order is part of the artifact bytes.
                    "OnlineStats" => push(&mut self.model, t.line, "OnlineStats"),
                    // `.sum::<f64>()` / `.fold(0.0, ...)` — explicit
                    // float reductions.
                    "sum" | "product"
                        if self.text(k + 1) == ":"
                            && self.text(k + 2) == ":"
                            && self.text(k + 3) == "<"
                            && matches!(self.text(k + 4), "f64" | "f32") =>
                    {
                        push(&mut self.model, t.line, "sum::<float>");
                    }
                    "fold"
                        if self.text(k + 1) == "("
                            && self.sig.get(k + 2).is_some_and(|arg| {
                                arg.kind == TokKind::Num && is_float_literal(arg.text)
                            }) =>
                    {
                        push(&mut self.model, t.line, "fold(float)");
                    }
                    _ => {}
                },
                TokKind::Punct if t.text == "+" || t.text == "-" => {
                    // `+=` / `-=`: a float compound assignment if the
                    // statement around it mentions a float type or
                    // float literal, or the left-hand side is a
                    // variable bound with a float initializer.
                    let lhs_is_float = k > start
                        && self.sig[k - 1].kind == TokKind::Ident
                        && float_vars.iter().any(|v| v == self.sig[k - 1].text);
                    if self.text(k + 1) == "="
                        && (lhs_is_float || self.statement_mentions_float(k, start, end))
                    {
                        push(&mut self.model, t.line, "float +=");
                    }
                }
                _ => {}
            }
            k += 1;
        }
    }

    /// True when the statement containing token `k` (delimited by `;`,
    /// `{` or `}`) mentions `f64`/`f32` or a float literal.
    fn statement_mentions_float(&self, k: usize, lo: usize, hi: usize) -> bool {
        let mut a = k;
        while a > lo {
            let t = self.text(a - 1);
            if t == ";" || t == "{" || t == "}" {
                break;
            }
            a -= 1;
        }
        let mut b = k;
        while b < hi {
            let t = self.text(b);
            if t == ";" || t == "{" || t == "}" {
                break;
            }
            b += 1;
        }
        (a..b).any(|j| {
            let t = self.sig[j];
            match t.kind {
                TokKind::Ident => t.text == "f64" || t.text == "f32",
                TokKind::Num => is_float_literal(t.text),
                _ => false,
            }
        })
    }
}

/// `TOTAL_POWER`, `SHARD_SEQ` — but not `X` or `Ordering`.
fn is_screaming(name: &str) -> bool {
    name.len() > 1
        && name
            .chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
        && name.chars().any(|c| c.is_ascii_uppercase())
}

/// `1.5`, `2e3`, `1f64` — numeric literals that are floats. Integer
/// literals with alphabetic suffixes (`0usize`, `3u64`) are not: the
/// `e` in `usize` is not an exponent, so the check demands digits on
/// both sides of one.
fn is_float_literal(text: &str) -> bool {
    if text.starts_with("0x") || text.starts_with("0b") || text.starts_with("0o") {
        return false;
    }
    if text.contains('.') || text.ends_with("f32") || text.ends_with("f64") {
        return true;
    }
    // Exponent form: digits/underscores, then e/E, optional sign, digits.
    let bytes = text.as_bytes();
    if let Some(pos) = text.find(['e', 'E']) {
        let mantissa_ok = pos > 0
            && bytes[..pos]
                .iter()
                .all(|b| b.is_ascii_digit() || *b == b'_');
        let exp = &text[pos + 1..];
        let exp = exp.strip_prefix(['+', '-']).unwrap_or(exp);
        let exp_ok = !exp.is_empty() && exp.bytes().all(|b| b.is_ascii_digit() || b == b'_');
        return mantissa_ok && exp_ok;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_fns_with_impl_context() {
        let src = "
impl fiveg_simcore::shard::ShardLogic for FleetNode<'_> {
    type Event = FleetEvent;
    fn handle(&mut self, ctx: &mut ShardCtx<'_, FleetEvent>, at: SimTime, ev: FleetEvent) {
        self.on_measure(ctx, 1, 2);
        helper(ev);
    }
}
fn helper(ev: FleetEvent) {}
";
        let m = parse_file(src);
        assert_eq!(m.fns.len(), 2);
        let handle = &m.fns[0];
        assert_eq!(handle.name, "handle");
        let ctx = handle.impl_ctx.as_ref().expect("impl ctx");
        assert_eq!(ctx.trait_name.as_deref(), Some("ShardLogic"));
        assert_eq!(ctx.type_name, "FleetNode");
        let calls: Vec<&str> = handle.calls.iter().map(|c| c.name.as_str()).collect();
        assert!(calls.contains(&"on_measure"));
        assert!(calls.contains(&"helper"));
        assert!(m.fns[1].impl_ctx.is_none());
    }

    #[test]
    fn inherent_impl_has_no_trait() {
        let m = parse_file("impl Foo { pub fn bar(&self) {} }");
        let ctx = m.fns[0].impl_ctx.as_ref().expect("ctx");
        assert_eq!(ctx.trait_name, None);
        assert_eq!(ctx.type_name, "Foo");
    }

    #[test]
    fn statics_and_thread_locals() {
        let src = "
static TOTAL: AtomicU64 = AtomicU64::new(0);
thread_local! {
    static SCRATCH: RefCell<Vec<u8>> = RefCell::new(Vec::new());
}
fn touch() { TOTAL.fetch_add(1, Ordering::Relaxed); SCRATCH.with(|_| {}); }
";
        let m = parse_file(src);
        assert_eq!(m.statics.len(), 2);
        assert_eq!(m.statics[0].name, "TOTAL");
        assert!(m.statics[0].ty.contains("AtomicU64"));
        assert!(!m.statics[0].thread_local);
        assert_eq!(m.statics[1].name, "SCRATCH");
        assert!(m.statics[1].thread_local);
        let refs: Vec<&str> = m.fns[0]
            .screaming_refs
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        assert!(refs.contains(&"TOTAL"));
        assert!(refs.contains(&"SCRATCH"));
    }

    #[test]
    fn env_reads_only_fiveg() {
        let src = r#"
fn conf() {
    let a = std::env::var("FIVEG_SHARDS");
    let b = std::env::var("PATH");
    let c = std::env::var_os("FIVEG_TRACE");
}
"#;
        let m = parse_file(src);
        let vars: Vec<&str> = m.env_reads.iter().map(|e| e.var.as_str()).collect();
        assert_eq!(vars, vec!["FIVEG_SHARDS", "FIVEG_TRACE"]);
    }

    #[test]
    fn float_accum_inside_par_regions_only() {
        let src = "
fn serial(xs: &[f64]) -> f64 {
    let mut acc = 0.0;
    for x in xs { acc += x; }
    acc
}
fn parallel(xs: &[f64]) {
    let mut acc = 0.0f64;
    par_map_with(xs, 4, || (), |_, i, x| {
        acc += x;
        stats.fold(0.0, |a, b| a + b);
        let s: f64 = xs.iter().sum::<f64>();
        let mut o = OnlineStats::new();
    });
}
";
        let m = parse_file(src);
        let whats: Vec<&str> = m.float_par.iter().map(|f| f.what).collect();
        assert!(whats.contains(&"float +="), "{whats:?}");
        assert!(whats.contains(&"fold(float)"));
        assert!(whats.contains(&"sum::<float>"));
        assert!(whats.contains(&"OnlineStats"));
        // The serial fn contributes nothing.
        assert!(m.float_par.iter().all(|f| f.line >= 8), "{:?}", m.float_par);
    }

    #[test]
    fn thread_scope_is_a_par_region() {
        let src = "
fn f(xs: &[f64]) {
    let mut total = 0.0;
    std::thread::scope(|s| {
        s.spawn(|| { total += xs[0]; });
    });
}
";
        let m = parse_file(src);
        assert!(m.float_par.iter().any(|f| f.what == "float +="));
    }

    #[test]
    fn integer_accum_is_not_flagged() {
        let src = "
fn f(xs: &[u64]) {
    par_map_with(xs, 4, || (), |_, i, x| {
        let mut n = 0u64;
        n += x;
    });
}
";
        let m = parse_file(src);
        assert!(m.float_par.is_empty(), "{:?}", m.float_par);
    }

    #[test]
    fn never_panics_on_garbage() {
        for src in [
            "",
            "impl",
            "fn",
            "fn f(",
            "impl < for {",
            "pub pub pub",
            "static : = ;",
            "thread_local!",
            "{{{{",
            "}}}}",
            "fn f() { par_map_with( }",
            "\u{1F600} fn \u{1F600}() {}",
        ] {
            let m = parse_file(src);
            for f in &m.fns {
                assert!(f.line <= m.lines);
            }
        }
    }

    #[test]
    fn screaming_filter() {
        assert!(is_screaming("TOTAL_POWER"));
        assert!(is_screaming("SHARD2"));
        assert!(!is_screaming("Ordering"));
        assert!(!is_screaming("x"));
        assert!(!is_screaming("X"));
        assert!(!is_screaming("__"));
    }
}
