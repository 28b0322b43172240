//! A minimal JSON reader, plus the string escaper and key-path locator
//! that go with it.
//!
//! The workspace's vendored `serde_json` subset is write-only, but the
//! benchmark-regression gate must *read* committed baselines
//! (`golden/bench-baseline.json`) back. This module parses the small,
//! machine-written JSON this workspace itself emits: objects, arrays,
//! strings, integers, floats, booleans and null. It is strict about
//! structure (trailing garbage and duplicate keys are errors) and keeps
//! object keys in a sorted map, matching the writer's stable ordering.
//! Parsed values carry no source offsets; [`key_path_offset`] and
//! [`key_path_at`] map between a value's dotted key path and its place
//! in the text.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number that is a lossless unsigned integer.
    UInt(u64),
    /// Any other number (negative, fractional, exponent).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; keys sorted (a duplicate key is a parse error).
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The object's map, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The value as `u64`, if losslessly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `f64` (integers convert).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::UInt(v) => Some(*v as f64),
            JsonValue::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The string contents, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// A parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: msg.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key_at = self.pos;
            let key = self.string()?;
            if map.contains_key(&key) {
                return Err(JsonError {
                    offset: key_at,
                    message: format!("duplicate key `{key}`"),
                });
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            map.insert(key, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(map));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ascii \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogates are not produced by our writer;
                            // map unpaired ones to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // byte stream is valid UTF-8).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe_free_utf8_prefix(rest);
                    if s.is_empty() {
                        // Invalid UTF-8 (unreachable for `&str` input):
                        // substitute and advance so the loop terminates.
                        out.push('\u{fffd}');
                        self.pos += 1;
                    } else {
                        out.push_str(s);
                        self.pos += s.len();
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        // The scanned bytes are all ASCII, so this cannot fail; the
        // error arm keeps the parser total instead of panicking.
        let Ok(text) = std::str::from_utf8(&self.bytes[start..self.pos]) else {
            return Err(self.err("invalid number"));
        };
        if let Ok(u) = text.parse::<u64>() {
            return Ok(JsonValue::UInt(u));
        }
        text.parse::<f64>()
            .map(JsonValue::Float)
            .map_err(|_| self.err(format!("invalid number `{text}`")))
    }
}

/// Longest prefix of `bytes` that contains no `"` or `\` — returned as
/// `&str`. The input comes from a `&str`, so the prefix is valid UTF-8;
/// should that invariant ever break, the valid prefix is returned and
/// the caller substitutes the offending byte.
fn unsafe_free_utf8_prefix(bytes: &[u8]) -> &str {
    let end = bytes
        .iter()
        .position(|&b| b == b'"' || b == b'\\')
        .unwrap_or(bytes.len());
    match std::str::from_utf8(&bytes[..end]) {
        Ok(s) => s,
        Err(e) => {
            // `valid_up_to` is a char boundary, so re-slicing succeeds.
            std::str::from_utf8(&bytes[..e.valid_up_to()]).unwrap_or("")
        }
    }
}

/// Escapes a string's characters into `out` (no surrounding quotes).
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// One container enclosing a position in a JSON text.
enum Frame {
    /// An object, with the key of the member being read.
    Object(Option<String>),
    /// An array, with the index of the element being read.
    Array(usize),
}

/// Walks well-formed JSON `src` up to byte `end`, keeping the stack of
/// containers that enclose the position. `at_value(pos, stack)` runs at
/// each byte offset where a member or element value may start (just
/// past `:`, `[` or an array's `,`); the walk stops when it returns
/// true. A light structural scan, not a parser: it tracks only object
/// keys, array indices and string escapes.
fn walk(src: &str, end: usize, mut at_value: impl FnMut(usize, &[Frame]) -> bool) -> Vec<Frame> {
    let bytes = src.as_bytes();
    let end = end.min(bytes.len());
    let mut stack = Vec::new();
    let mut i = 0;
    while i < end {
        let value_next = match bytes[i] {
            b'{' => {
                stack.push(Frame::Object(None));
                false
            }
            b'[' => {
                stack.push(Frame::Array(0));
                true
            }
            b'}' | b']' => {
                stack.pop();
                false
            }
            b',' => match stack.last_mut() {
                Some(Frame::Array(idx)) => {
                    *idx += 1;
                    true
                }
                _ => false,
            },
            b':' => true,
            b'"' => {
                // Scan the string body, honouring escapes.
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != b'"' {
                    if bytes[j] == b'\\' {
                        j += 1;
                    }
                    j += 1;
                }
                // A string followed by `:` names the next value.
                let mut k = j + 1;
                while k < bytes.len() && bytes[k].is_ascii_whitespace() {
                    k += 1;
                }
                if bytes.get(k) == Some(&b':') {
                    if let Some(Frame::Object(key)) = stack.last_mut() {
                        *key = Some(String::from_utf8_lossy(&bytes[start..j]).into_owned());
                    }
                }
                // A position inside this string stops the walk here.
                if j >= end {
                    break;
                }
                i = j;
                false
            }
            _ => false,
        };
        i += 1;
        if value_next && at_value(i, &stack) {
            break;
        }
    }
    stack
}

/// Renders a container stack as a dotted key path.
fn render(stack: &[Frame]) -> String {
    let mut path = String::new();
    for frame in stack {
        match frame {
            Frame::Object(Some(k)) => {
                if !path.is_empty() {
                    path.push('.');
                }
                path.push_str(k);
            }
            Frame::Object(None) => {}
            Frame::Array(idx) => {
                let _ = write!(path, "[{idx}]");
            }
        }
    }
    path
}

/// The dotted key path enclosing byte `offset` of well-formed JSON
/// `src`: `faults[1].impact`, or empty at top level.
pub fn key_path_at(src: &str, offset: usize) -> String {
    render(&walk(src, offset, |_, _| false))
}

/// Byte offset where the first value at dotted key path `path` (as
/// [`key_path_at`] renders it, e.g. `workload.groups[1].count`) starts
/// in well-formed JSON `src`; `None` when no value has that path.
pub fn key_path_offset(src: &str, path: &str) -> Option<usize> {
    let mut found = None;
    walk(src, src.len(), |pos, stack| {
        if render(stack) != path {
            return false;
        }
        let ws = src.as_bytes()[pos..]
            .iter()
            .take_while(|b| b.is_ascii_whitespace())
            .count();
        found = Some(pos + ws);
        true
    });
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse(" 42 ").unwrap(), JsonValue::UInt(42));
        assert_eq!(parse("-1.5").unwrap(), JsonValue::Float(-1.5));
        assert_eq!(parse("\"hi\"").unwrap(), JsonValue::Str("hi".into()));
    }

    #[test]
    fn large_u64_counters_are_lossless() {
        let v = parse(&format!("{}", u64::MAX)).unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a":{"b":[1,2,{"c":"d\n"}]},"e":null}"#).unwrap();
        let b = v.get("a").and_then(|a| a.get("b")).unwrap();
        match b {
            JsonValue::Array(items) => {
                assert_eq!(items.len(), 3);
                assert_eq!(items[2].get("c").and_then(JsonValue::as_str), Some("d\n"));
            }
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn round_trips_the_snapshot_writer() {
        use crate::MetricsHandle;
        let m = MetricsHandle::new();
        m.counter("sim.events").add(123);
        m.gauge("depth").record(9);
        m.histogram("tries", &[1, 4]).observe(2);
        let json = m.snapshot().to_json();
        let v = parse(&json).unwrap();
        assert_eq!(
            v.get("counters")
                .and_then(|c| c.get("sim.events"))
                .and_then(JsonValue::as_u64),
            Some(123)
        );
        assert_eq!(
            v.get("histograms")
                .and_then(|h| h.get("tries"))
                .and_then(|t| t.get("count"))
                .and_then(JsonValue::as_u64),
            Some(1)
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn key_path_offset_finds_the_value_of_that_path_only() {
        let src = r#"{
  "count": 0,
  "groups": [
    { "name": "a", "count": 12 },
    { "name": "count", "count": 6 }
  ]
}"#;
        let at = key_path_offset(src, "groups[1].count").unwrap();
        assert!(src[at..].starts_with("6 }"), "{}", &src[at..]);
        assert_eq!(key_path_at(src, at), "groups[1].count");
        let at = key_path_offset(src, "groups[1]").unwrap();
        assert!(src[at..].starts_with("{ \"name\": \"count\""));
        assert!(src[key_path_offset(src, "count").unwrap()..].starts_with("0,"));
        assert_eq!(key_path_offset(src, "groups[2].count"), None);
        assert_eq!(key_path_offset(src, "name"), None);
    }
}
