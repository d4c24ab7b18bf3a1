//! A minimal JSON value type with a total parser and deterministic writer.
//!
//! The serve protocol is line-delimited JSON-RPC and the bench reports are
//! JSON files; with no external dependencies available, this module is the
//! one JSON implementation the workspace shares. Design points:
//!
//! - **Total**: [`Value::parse`] never panics; malformed input yields
//!   [`crate::Error::Format`]. Nesting depth is capped ([`MAX_DEPTH`]) so a
//!   hostile client can't overflow the stack, document size is capped
//!   ([`MAX_BYTES`]) so it can't balloon the heap either, and the parser is
//!   recursion-free on the unwind path (iterative-friendly depth counter).
//!   Callers facing untrusted sockets can tighten both caps with
//!   [`Value::parse_with_limits`].
//! - **Deterministic**: objects are `BTreeMap`s, so [`Value::render`]
//!   produces byte-identical output for equal values — which is what the
//!   serve chaos test's "byte-identical results after restart" assertion
//!   leans on.
//! - **Honest numbers**: numbers are kept as `f64` with integer-preserving
//!   rendering for values that round-trip exactly (covers every length,
//!   count, and millisecond field the protocol uses).
//!
//! ```
//! use support::json::Value;
//!
//! let v = Value::parse(r#"{"op":"analyze","deadline_ms":250}"#).unwrap();
//! assert_eq!(v.get("op").and_then(Value::as_str), Some("analyze"));
//! assert_eq!(v.get("deadline_ms").and_then(Value::as_u64), Some(250));
//! ```

use crate::error::Error;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Maximum nesting depth accepted by the parser. Deep enough for any real
/// protocol message, shallow enough to never threaten the stack.
pub const MAX_DEPTH: u32 = 64;

/// Maximum document size accepted by the parser, in bytes. Generous enough
/// for any bench report or batched analyze request; a hard stop for a
/// hostile multi-hundred-megabyte body.
pub const MAX_BYTES: usize = 16 << 20;

/// Parser resource caps; see [`Value::parse_with_limits`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseLimits {
    /// Maximum nesting depth (arrays + objects).
    pub max_depth: u32,
    /// Maximum document size in bytes, checked before parsing starts.
    pub max_bytes: usize,
}

impl Default for ParseLimits {
    fn default() -> Self {
        ParseLimits { max_depth: MAX_DEPTH, max_bytes: MAX_BYTES }
    }
}

/// A parsed JSON value. Objects use [`BTreeMap`] for stable key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Parses a complete JSON document; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Value, Error> {
        Self::parse_with_limits(text, ParseLimits::default())
    }

    /// [`parse`](Self::parse) with explicit resource caps — the entry point
    /// for untrusted input (the serve daemon ties these to its frame-size
    /// cap). Exceeding either cap is a clean [`crate::Error::Format`],
    /// never a panic or an unbounded allocation.
    pub fn parse_with_limits(text: &str, limits: ParseLimits) -> Result<Value, Error> {
        if text.len() > limits.max_bytes {
            return Err(Error::Format(format!(
                "json: document of {} bytes exceeds the {}-byte cap",
                text.len(),
                limits.max_bytes
            )));
        }
        let mut p = Parser { text, bytes: text.as_bytes(), pos: 0, limits };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }

    /// Renders compact JSON (no whitespace), deterministically.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Num(n) => write_num(*n, out),
            Value::Str(s) => {
                out.push('"');
                escape_into(s, out);
                out.push('"');
            }
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Value::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    escape_into(k, out);
                    out.push_str("\":");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    // --- typed accessors (all total; wrong shape → None) ---

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, only when it is a non-negative integer that
    /// round-trips exactly through `f64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Object member lookup; `None` on non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_obj().and_then(|m| m.get(key))
    }

    /// Convenience constructor for string values.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Convenience constructor for integer values.
    pub fn int(n: u64) -> Value {
        Value::Num(n as f64)
    }
}

/// Builds an object from key/value pairs (a tiny `json!`-alike).
pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Appends `s` to `out` as the body of a JSON string: `"`, `\` and the
/// control characters below U+0020 are escaped, everything else (DEL and
/// non-ASCII text included) is copied as is. Every byte that needs an
/// escape is ASCII, so the text between two of them is copied in one run.
pub fn escape_into(s: &str, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let bytes = s.as_bytes();
    let mut i = 0;
    loop {
        let run = plain_run(&bytes[i..]);
        out.push_str(&s[i..i + run]);
        i += run;
        let Some(&b) = bytes.get(i) else { return };
        i += 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xF)]));
            }
        }
    }
}

/// The length of the longest prefix of `bytes` with no `"`, no `\` and no
/// byte below 0x20: the text a JSON string holds as is. Tests eight bytes
/// per step: a byte is flagged when it equals `"` or `\` (a zero byte of
/// the word XORed with it) or lies below 0x20 (subtracting 0x20 borrows
/// while its top bit is clear). A borrow can only flag bytes above one
/// already flagged, so the lowest flag is exact.
fn plain_run(bytes: &[u8]) -> usize {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const TOPS: u64 = u64::from_le_bytes([0x80; 8]);
    const QUOTES: u64 = u64::from_le_bytes([b'"'; 8]);
    const BACKSLASHES: u64 = u64::from_le_bytes([b'\\'; 8]);
    const SPACES: u64 = u64::from_le_bytes([0x20; 8]);
    let zero_byte = |x: u64| x.wrapping_sub(ONES) & !x;
    let mut words = bytes.chunks_exact(8);
    let mut n = 0;
    for chunk in &mut words {
        let mut word = [0; 8];
        word.copy_from_slice(chunk);
        let w = u64::from_le_bytes(word);
        let flags = (zero_byte(w ^ QUOTES)
            | zero_byte(w ^ BACKSLASHES)
            | (w.wrapping_sub(SPACES) & !w))
            & TOPS;
        if flags != 0 {
            return n + (flags.trailing_zeros() / 8) as usize;
        }
        n += 8;
    }
    let tail = words.remainder();
    n + tail.iter().position(|&b| b == b'"' || b == b'\\' || b < 0x20).unwrap_or(tail.len())
}

fn write_num(n: f64, out: &mut String) {
    if !n.is_finite() {
        // JSON has no NaN/Inf; degrade to null rather than emit garbage.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    limits: ParseLimits,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> Error {
        Error::Format(format!("json: {msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' => self.pos += 1,
                _ => break,
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_lit(&mut self, lit: &str) -> Result<(), Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn value(&mut self, depth: u32) -> Result<Value, Error> {
        if depth > self.limits.max_depth {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.expect_lit("null").map(|()| Value::Null),
            Some(b't') => self.expect_lit("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.expect_lit("false").map(|()| Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: u32) -> Result<Value, Error> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Value::Arr(items));
            }
            if !self.eat(b',') {
                return Err(self.err("expected `,` or `]` in array"));
            }
        }
    }

    fn object(&mut self, depth: u32) -> Result<Value, Error> {
        self.pos += 1; // '{'
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected string key in object"));
            }
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return Err(self.err("expected `:` after object key"));
            }
            let val = self.value(depth + 1)?;
            // Duplicate keys: last one wins (matches common parsers).
            map.insert(key, val);
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Value::Obj(map));
            }
            if !self.eat(b',') {
                return Err(self.err("expected `,` or `}` in object"));
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.pos += 1; // '"'
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            let ch = if (0xD800..0xDC00).contains(&cp) {
                                // High surrogate: require a low surrogate pair.
                                if !(self.eat(b'\\') && self.eat(b'u')) {
                                    return Err(self.err("lone high surrogate"));
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let c =
                                    0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(c)
                            } else {
                                char::from_u32(cp)
                            };
                            match ch {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid codepoint")),
                            }
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                0x00..=0x1F => return Err(self.err("raw control character in string")),
                _ => {
                    // Copy the run up to the next quote, backslash or
                    // control byte in one push. It starts after the opening
                    // quote or an escape and ends at one of those bytes or
                    // at the end of input: ASCII bytes on both sides, so
                    // the slice lies on char boundaries.
                    let start = self.pos;
                    self.pos += plain_run(&self.bytes[start..]);
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let mut v = 0u32;
        for _ in 0..4 {
            let Some(b) = self.peek() else {
                return Err(self.err("truncated \\u escape"));
            };
            let d = match b {
                b'0'..=b'9' => b - b'0',
                b'a'..=b'f' => b - b'a' + 10,
                b'A'..=b'F' => b - b'A' + 10,
                _ => return Err(self.err("invalid hex digit in \\u escape")),
            };
            v = (v << 4) | u32::from(d);
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        self.eat(b'-');
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.eat(b'.') {
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_protocol_shapes() {
        let src = r#"{"id":7,"op":"analyze","sources":[{"name":"a.c","text":"int x;"}],"deadline_ms":250,"flags":{"strict":false,"ratio":0.5},"note":null}"#;
        let v = Value::parse(src).expect("parse");
        let rendered = v.render();
        let v2 = Value::parse(&rendered).expect("reparse");
        assert_eq!(v, v2);
        assert_eq!(v.get("id").and_then(Value::as_u64), Some(7));
        assert_eq!(v.get("op").and_then(Value::as_str), Some("analyze"));
        assert_eq!(v.get("flags").and_then(|f| f.get("ratio")).and_then(Value::as_f64), Some(0.5));
        assert!(matches!(v.get("note"), Some(Value::Null)));
    }

    #[test]
    fn render_is_deterministic_regardless_of_insertion_order() {
        let a = obj([("zeta", Value::int(1)), ("alpha", Value::int(2))]);
        let b = obj([("alpha", Value::int(2)), ("zeta", Value::int(1))]);
        assert_eq!(a.render(), b.render());
        assert_eq!(a.render(), r#"{"alpha":2,"zeta":1}"#);
    }

    #[test]
    fn escapes_round_trip() {
        let v = Value::str("line\nquote\"tab\tslash\\u{1F} \u{1F600}");
        let back = Value::parse(&v.render()).expect("parse");
        assert_eq!(v, back);
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = Value::parse(r#""😀""#).expect("parse");
        assert_eq!(v.as_str(), Some("\u{1F600}"));
        assert!(Value::parse(r#""\ud83d""#).is_err(), "lone surrogate rejected");
    }

    #[test]
    fn malformed_inputs_error_not_panic() {
        for bad in [
            "", "{", "}", "[1,", r#"{"a"}"#, r#"{"a":}"#, "01x", "tru", "\"\u{1}\"",
            "nulll", "[1]2", "-", "1e", r#"{"a":1,}"#,
        ] {
            assert!(Value::parse(bad).is_err(), "should reject: {bad:?}");
        }
    }

    #[test]
    fn depth_is_bounded() {
        let deep = "[".repeat(MAX_DEPTH as usize + 8) + &"]".repeat(MAX_DEPTH as usize + 8);
        assert!(Value::parse(&deep).is_err());
        let ok = "[".repeat(8) + &"]".repeat(8);
        assert!(Value::parse(&ok).is_ok());
    }

    #[test]
    fn size_cap_trips_before_parsing() {
        let limits = ParseLimits { max_bytes: 16, ..Default::default() };
        let small = r#"{"a":1}"#;
        assert!(Value::parse_with_limits(small, limits).is_ok());
        let big = format!(r#"{{"a":"{}"}}"#, "x".repeat(64));
        let err = Value::parse_with_limits(&big, limits).expect_err("cap must trip");
        assert!(err.to_string().contains("exceeds"), "got: {err}");
    }

    #[test]
    fn custom_depth_cap_overrides_default() {
        let limits = ParseLimits { max_depth: 4, ..Default::default() };
        let deep = "[".repeat(8) + &"]".repeat(8);
        assert!(Value::parse_with_limits(&deep, limits).is_err());
        assert!(Value::parse(&deep).is_ok(), "default cap is deeper");
        let shallow = "[[[1]]]";
        assert!(Value::parse_with_limits(shallow, limits).is_ok());
    }

    #[test]
    fn numbers_render_integers_exactly() {
        assert_eq!(Value::int(2_226_506).render(), "2226506");
        assert_eq!(Value::Num(-3.0).render(), "-3");
        assert_eq!(Value::Num(f64::NAN).render(), "null");
        assert_eq!(Value::parse("1e3").unwrap().as_u64(), Some(1000));
    }
}
