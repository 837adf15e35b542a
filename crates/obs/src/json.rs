//! A minimal JSON value, writer and parser (std only).
//!
//! The workspace has no crates.io access, so this module is the single JSON
//! implementation everything shares: the Chrome-trace exporter writes
//! through it, the round-trip tests and `trace_dump`'s self-validation parse
//! through it, and the bench binaries build their `BENCH_*.json` files from
//! [`Json`] values instead of hand-rolled `push_str` formatting. It is also
//! the plan service's wire codec, so [`parse`] treats its input as hostile:
//! time linear in the length, nesting bounded by [`MAX_DEPTH`], numbers
//! only in RFC 8259's grammar. A document that is only passed on is kept as
//! checked text instead of a tree ([`RawJson`], [`parse_with_raw`]); the
//! check shares the parser's lexers, so it accepts the same language.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (always stored as f64).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved when writing.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Object field lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string slice, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Serializes compactly (no insignificant whitespace).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serializes with two-space indentation.
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (nl, pad, pad_in) = match indent {
            Some(w) => ("\n", " ".repeat(w * depth), " ".repeat(w * (depth + 1))),
            None => ("", String::new(), String::new()),
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => write_num(out, *v),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    item.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push('}');
            }
        }
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v as f64)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

fn write_num(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null"); // JSON has no NaN/Inf
    } else if v == v.trunc() && v.abs() < 9e15 {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    // Copy clean runs whole; only the bytes that need an escape (all ASCII,
    // so every cut is on a char boundary) are written one at a time.
    let mut clean = 0;
    for (i, b) in s.bytes().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        out.push_str(&s[clean..i]);
        clean = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[clean..]);
    out.push('"');
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses once
/// per level, so an unbounded `[[[[…` from the network would overflow the
/// calling thread's stack; the deepest document this workspace writes (a
/// plan response) nests 7 levels.
pub const MAX_DEPTH: usize = 128;

/// Parses a JSON document in time linear in its length. Errors carry the
/// byte offset of the problem; nesting beyond [`MAX_DEPTH`] is an error.
pub fn parse(src: &str) -> Result<Json, String> {
    Parser::document(src, Parser::value)
}

/// A JSON document kept as its text, checked to be one [`parse`] accepts.
///
/// Checking builds nothing: it runs the parser's own string, number and
/// literal lexers and its [`MAX_DEPTH`] guard, so a text is accepted here
/// exactly when [`parse`] accepts it, with the same error when it is not.
/// The plan service's client holds a served plan this way: every caller
/// only writes the plan out again, and the text it received is already the
/// server's canonical serialisation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawJson(String);

impl RawJson {
    /// Checks that `src` is one JSON document and keeps a copy of it.
    pub fn new(src: &str) -> Result<RawJson, String> {
        Parser::document(src, Parser::skip_value)?;
        Ok(RawJson(src.to_string()))
    }

    /// The text, as checked.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The text, byte for byte as checked (nothing is re-serialised).
    pub fn to_json(&self) -> String {
        self.0.clone()
    }

    /// The tree [`parse`] builds from the text.
    pub fn parse(&self) -> Json {
        parse(&self.0).expect("a RawJson was checked by the parser's own lexers")
    }
}

/// Parses `src` like [`parse`], except for the members of a top-level object
/// named `key`: their values are checked in place as [`RawJson::new`]
/// checks, not built, and are left out of the returned tree; the first is
/// returned as [`RawJson`], its bytes copied once. Accepts exactly what
/// [`parse`] accepts, with the same errors; nesting inside a `key` value
/// counts the enclosing object, as it does in [`parse`].
pub fn parse_with_raw(src: &str, key: &str) -> Result<(Json, Option<RawJson>), String> {
    let mut raw = None;
    let tree = Parser::document(src, |p| {
        if p.peek() != Some(b'{') {
            return p.value();
        }
        p.nested(|p| {
            let mut pairs = Vec::new();
            p.seq(b'{', b'}', |p| {
                let mut name = String::new();
                p.key(Some(&mut name))?;
                if name != key {
                    pairs.push((name, p.value()?));
                    return Ok(());
                }
                let start = p.pos;
                p.skip_value()?;
                if raw.is_none() {
                    raw = Some(RawJson(p.src[start..p.pos].to_string()));
                }
                Ok(())
            })?;
            Ok(Json::Obj(pairs))
        })
    })?;
    Ok((tree, raw))
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
    /// Open arrays + objects around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    /// Runs `item` on the one value of `src`, which only whitespace may
    /// surround.
    fn document<T>(
        src: &'a str,
        item: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<T, String> {
        let mut p = Parser { src, pos: 0, depth: 0 };
        p.skip_ws();
        let v = item(&mut p)?;
        p.skip_ws();
        if p.pos != src.len() {
            return Err(format!("trailing content at byte {}", p.pos));
        }
        Ok(v)
    }

    fn bytes(&self) -> &'a [u8] {
        self.src.as_bytes()
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes().get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn unexpected(&self) -> String {
        format!("unexpected {:?} at byte {}", self.peek().map(|b| b as char), self.pos)
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.nested(|p| {
                let mut pairs = Vec::new();
                p.seq(b'{', b'}', |p| {
                    let mut key = String::new();
                    p.key(Some(&mut key))?;
                    pairs.push((key, p.value()?));
                    Ok(())
                })?;
                Ok(Json::Obj(pairs))
            }),
            Some(b'[') => self.nested(|p| {
                let mut items = Vec::new();
                p.seq(b'[', b']', |p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }),
            Some(b'"') => {
                let mut s = String::new();
                self.string(Some(&mut s))?;
                Ok(Json::Str(s))
            }
            Some(b't') => self.literal("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Json::Bool(false)),
            Some(b'n') => self.literal("null").map(|()| Json::Null),
            Some(b'-' | b'0'..=b'9') => {
                let text = self.number()?;
                Ok(Json::Num(text.parse().expect("a JSON number is Rust float syntax")))
            }
            _ => Err(self.unexpected()),
        }
    }

    /// Checks one value exactly as [`Parser::value`] reads it, building
    /// nothing.
    fn skip_value(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'{') => self.nested(|p| {
                p.seq(b'{', b'}', |p| {
                    p.key(None)?;
                    p.skip_value()
                })
            }),
            Some(b'[') => self.nested(|p| p.seq(b'[', b']', Parser::skip_value)),
            Some(b'"') => self.string(None),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(b'-' | b'0'..=b'9') => self.number().map(drop),
            _ => Err(self.unexpected()),
        }
    }

    fn nested<T>(
        &mut self,
        container: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<T, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    /// The comma-separated elements of an array or object, from its `open`
    /// byte through its `close` byte; `elem` reads one element, starting on
    /// its first byte.
    fn seq(
        &mut self,
        open: u8,
        close: u8,
        mut elem: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(open)?;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            elem(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => {
                    return Err(format!("expected ',' or '{}' at byte {}", close as char, self.pos))
                }
            }
        }
    }

    /// An object member's key and colon, decoded into `out` when given;
    /// leaves `pos` on the value.
    fn key(&mut self, out: Option<&mut String>) -> Result<(), String> {
        self.string(out)?;
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        Ok(())
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    /// One number of RFC 8259's grammar,
    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`, as text.
    /// Rust's float syntax is a superset, so the text always converts.
    fn number(&mut self) -> Result<&'a str, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.peek() == Some(b'0') {
            self.pos += 1;
        } else {
            self.digits()?;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        Ok(&self.src[start..self.pos])
    }

    /// One or more decimal digits.
    fn digits(&mut self) -> Result<(), String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(format!("expected a digit at byte {}", self.pos));
        }
        Ok(())
    }

    /// The four hex digits of a `\u` escape, with `pos` on the `u`; leaves
    /// `pos` on the last digit.
    fn hex4(&mut self) -> Result<u32, String> {
        let at = self.pos - 1;
        let code = self
            .bytes()
            .get(self.pos + 1..self.pos + 5)
            .and_then(|hex| {
                hex.iter().try_fold(0u32, |acc, &b| Some(acc * 16 + (b as char).to_digit(16)?))
            })
            .ok_or_else(|| format!("bad \\u escape at byte {at}"))?;
        self.pos += 4;
        Ok(code)
    }

    /// A `\u` escape, with `pos` on the `u`. A high surrogate followed by an
    /// escaped low surrogate is one scalar (how `ensure_ascii` writers spell
    /// everything outside the BMP); a lone half has no scalar value and
    /// decodes to U+FFFD.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let hi = self.hex4()?;
        if (0xd800..0xdc00).contains(&hi) && self.bytes()[self.pos + 1..].starts_with(b"\\u") {
            let before = self.pos;
            self.pos += 2;
            let lo = self.hex4()?;
            if (0xdc00..0xe000).contains(&lo) {
                let code = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                return Ok(char::from_u32(code).expect("a surrogate pair encodes a scalar"));
            }
            // Not a pair: the second escape is decoded on its own next turn.
            self.pos = before;
        }
        Ok(char::from_u32(hi).unwrap_or('\u{fffd}'))
    }

    /// A string, with `pos` on its opening quote, decoded into `out` when
    /// given.
    fn string(&mut self, mut out: Option<&mut String>) -> Result<(), String> {
        let open = self.pos;
        self.expect(b'"')?;
        loop {
            // The run up to the next quote or backslash is copied whole.
            // Both are ASCII, so neither can sit inside a multi-byte scalar:
            // the run starts and ends on char boundaries of `src`, which is
            // valid UTF-8 already.
            let rest = &self.bytes()[self.pos..];
            let run = rest.iter().position(|&b| b == b'"' || b == b'\\').unwrap_or(rest.len());
            if let Some(out) = out.as_deref_mut() {
                out.push_str(&self.src[self.pos..self.pos + run]);
            }
            self.pos += run;
            match self.peek() {
                None => return Err(format!("unterminated string starting at byte {open}")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(_) => {
                    self.pos += 1;
                    let c = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => self.unicode_escape()?,
                        other => {
                            return Err(format!(
                                "bad escape {:?} at byte {}",
                                other.map(|b| b as char),
                                self.pos - 1
                            ))
                        }
                    };
                    if let Some(out) = out.as_deref_mut() {
                        out.push(c);
                    }
                    self.pos += 1;
                }
            }
        }
    }
}

/// Convenience: a `BTreeMap` of named numbers as a JSON object.
pub fn num_map(map: &BTreeMap<String, f64>) -> Json {
    Json::Obj(map.iter().map(|(k, v)| (k.clone(), Json::Num(*v))).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_values() {
        let v = Json::obj(vec![
            ("name", "trace \"x\"\n".into()),
            ("n", 42u64.into()),
            ("pi", 3.25.into()),
            ("neg", (-7.5).into()),
            ("ok", true.into()),
            ("nothing", Json::Null),
            ("list", Json::Arr(vec![1u64.into(), "two".into(), Json::Bool(false)])),
            ("nested", Json::obj(vec![("k", Json::Arr(vec![]))])),
        ]);
        for text in [v.to_json(), v.to_json_pretty()] {
            let back = parse(&text).unwrap();
            assert_eq!(back, v, "source: {text}");
        }
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Json::Num(5.0).to_json(), "5");
        assert_eq!(Json::Num(5.5).to_json(), "5.5");
        assert_eq!(Json::Num(f64::NAN).to_json(), "null");
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"a": 1, "b": "x", "c": [true], "d": false}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_f64), Some(1.0));
        assert_eq!(v.get("b").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("c").and_then(Json::as_array).map(|a| a.len()), Some(1));
        assert_eq!(v.get("d").and_then(Json::as_bool), Some(false));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn rejects_garbage() {
        for (src, at) in [
            ("{", 1),
            ("[1,]", 3),
            ("{\"a\" 1}", 5),
            ("12 34", 3),
            ("", 0),
            ("\"abc", 0),
            ("\"a\\qb\"", 2),
            ("\"\\u12g4\"", 1),
            ("\"\\ud83d\\u+e00\"", 7),
            // Numbers outside RFC 8259's grammar that Rust's float parser
            // takes: a leading zero ends the number, a point or an exponent
            // needs a digit after it.
            ("01", 1),
            ("-01", 2),
            ("00", 1),
            ("1.", 2),
            ("0.", 2),
            ("1.e5", 2),
        ] {
            let err = parse(src).expect_err(src);
            assert!(err.ends_with(&format!("at byte {at}")), "{src:?}: {err}");
        }
    }

    #[test]
    fn parses_unicode_and_escapes() {
        let v = parse(r#""café ☕""#).unwrap();
        assert_eq!(v.as_str(), Some("café ☕"));
        let v = parse(r#""a\"b\\c\/d\n\r\t\b\f\u00e9\u2615""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c/d\n\r\t\u{8}\u{c}é☕"));
    }

    #[test]
    fn surrogate_pairs_combine_and_lone_halves_are_replaced() {
        let s = |src: &str| parse(src).unwrap().as_str().unwrap().to_string();
        // What an `ensure_ascii` writer sends for U+1F600.
        assert_eq!(s(r#""\ud83d\ude00""#), "😀");
        assert_eq!(s(r#""x\uD83D\uDE00y""#), "x😀y");
        assert_eq!(s(r#""\ud83d""#), "\u{fffd}");
        assert_eq!(s(r#""\ude00""#), "\u{fffd}");
        assert_eq!(s(r#""\ud83d\u0041""#), "\u{fffd}A");
        assert_eq!(s(r#""\ud83d\ud83d\ude00""#), "\u{fffd}😀");
        assert_eq!(s(r#""\ud83dx""#), "\u{fffd}x");
    }

    #[test]
    fn writer_escapes_only_what_it_must() {
        let text = Json::Str("plain é☕😀 \"q\" \\ \n\r\t\u{1}\u{7f}".into()).to_json();
        assert_eq!(text, "\"plain é☕😀 \\\"q\\\" \\\\ \\n\\r\\t\\u0001\u{7f}\"");
    }
}
