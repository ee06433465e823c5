//! A minimal JSON reader for request bodies.
//!
//! The workspace already has two JSON *writers* (the JSONL event sink
//! and the bench reports), both built on [`xring_obs::json_escape`];
//! responses here reuse that escaper rather than adding a third writer.
//! What no crate had yet is a *reader* — requests arrive over the wire,
//! so the daemon must parse untrusted text. This is a strict
//! recursive-descent parser over the JSON grammar (RFC 8259): no trailing
//! commas, no comments, `\uXXXX` escapes decoded (surrogate pairs
//! included), a depth limit against stack-exhaustion payloads, and every
//! error carries a byte offset for the structured 400 body.

use std::collections::BTreeMap;
use std::fmt;

/// Nesting depth limit; a parser stack frame per level, so this bounds
/// recursion on adversarial `[[[[…]]]]` bodies.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value. Numbers are kept as `f64` — the protocol's
/// integral fields range-check via [`Json::as_usize`], which rejects
/// fractional or out-of-range values rather than truncating them.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. `BTreeMap` so iteration (and error messages) are
    /// deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The object map, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as a non-negative integer. Fractional, negative,
    /// non-finite or > 2^53 values are rejected — a payload saying
    /// `"max_wavelengths": 2.5` is an error, not wavelength 2.
    pub fn as_usize(&self) -> Option<usize> {
        let n = self.as_f64()?;
        if n.is_finite() && n >= 0.0 && n.fract() == 0.0 && n <= 9_007_199_254_740_992.0 {
            Some(n as usize)
        } else {
            None
        }
    }

    /// The number as an `i64` (integral, in range).
    pub fn as_i64(&self) -> Option<i64> {
        let n = self.as_f64()?;
        if n.is_finite() && n.fract() == 0.0 && n.abs() <= 9_007_199_254_740_992.0 {
            Some(n as i64)
        } else {
            None
        }
    }

    /// Convenience: `self.as_obj()?.get(key)`.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?.get(key)
    }
}

/// A parse failure: what went wrong and the byte offset it happened at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description of the offence.
    pub message: String,
    /// Byte offset into the input where parsing stopped.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Parses `text` as a single JSON document (trailing whitespace allowed,
/// trailing garbage rejected).
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_owned(),
            offset: self.pos,
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

    fn expect(&mut self, c: u8) -> Result<(), JsonError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let (at, key) = (self.pos, self.string()?);
            if map.contains_key(&key) {
                self.pos = at;
                return Err(self.err("duplicate object key"));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
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
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must follow.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp)
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                        }
                        _ => return Err(self.err("invalid escape character")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // bytes are valid UTF-8 by construction).
                    let start = self.pos;
                    self.pos += 1;
                    while self.peek().is_some_and(|b| (b & 0xC0) == 0x80) {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).expect("utf8"));
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("non-ASCII in \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .ok()
            .filter(|n| n.is_finite())
            .map(Json::Num)
            .ok_or_else(|| JsonError {
                message: format!("invalid number '{text}'"),
                offset: start,
            })
    }
}

/// Formats `n` the way the workspace's JSON writers do: integral values
/// without a fraction, everything else via `{}` (shortest round-trip).
pub fn fmt_f64(n: f64) -> String {
    if !n.is_finite() {
        return "null".to_owned(); // JSON has no NaN/Inf
    }
    if n.fract() == 0.0 && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

/// `"key": "escaped"` — the response writers' building block, on top of
/// [`xring_obs::json_escape`] (the workspace's one JSON string escaper).
pub fn str_field(key: &str, value: &str) -> String {
    format!(
        "\"{}\":\"{}\"",
        xring_obs::json_escape(key),
        xring_obs::json_escape(value)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("-2.5e1").unwrap(), Json::Num(-25.0));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Json::Str("a\nb".to_owned()));
        let arr = parse("[1, 2, 3]").unwrap();
        assert_eq!(arr.as_arr().unwrap().len(), 3);
        let obj = parse("{\"a\": {\"b\": [true]}}").unwrap();
        assert_eq!(
            obj.get("a").and_then(|a| a.get("b")),
            Some(&Json::Arr(vec![Json::Bool(true)]))
        );
    }

    #[test]
    fn decodes_unicode_escapes() {
        assert_eq!(parse("\"\\u00e9\"").unwrap(), Json::Str("é".to_owned()));
        // Surrogate pair for U+1F600.
        assert_eq!(
            parse("\"\\ud83d\\ude00\"").unwrap(),
            Json::Str("😀".to_owned())
        );
        assert!(parse("\"\\ud83d\"").is_err(), "unpaired surrogate accepted");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "}",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "\"\x01\"",
            "{,}",
            "nan",
            "+1",
            "01a",
        ] {
            assert!(parse(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn rejects_duplicate_keys_at_the_repeated_key() {
        let body = r#"{"options":{"max_wavelengths":8, "max_wavelengths":64}}"#;
        let err = parse(body).unwrap_err();
        assert_eq!(err.message, "duplicate object key");
        assert_eq!(err.offset, body.rfind("\"max_wavelengths\"").unwrap());
        // Equal keys in different objects are not duplicates.
        assert!(parse(r#"{"a": {"a": 1}, "b": {"a": 2}}"#).is_ok());
    }

    #[test]
    fn reports_error_offsets() {
        let err = parse("{\"a\": ?}").unwrap_err();
        assert_eq!(err.offset, 6);
        assert!(err.to_string().contains("at byte 6"));
    }

    #[test]
    fn depth_limit_blocks_nesting_bombs() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        let err = parse(&deep).unwrap_err();
        assert!(err.message.contains("deep"));
        // At the limit itself parsing still succeeds.
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn integral_accessors_reject_lossy_values() {
        assert_eq!(parse("4").unwrap().as_usize(), Some(4));
        assert_eq!(parse("4.5").unwrap().as_usize(), None);
        assert_eq!(parse("-1").unwrap().as_usize(), None);
        assert_eq!(parse("-3").unwrap().as_i64(), Some(-3));
    }

    #[test]
    fn float_formatting_round_trips() {
        assert_eq!(fmt_f64(3.0), "3");
        assert_eq!(fmt_f64(-0.25), "-0.25");
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(parse(&fmt_f64(1.0e-9)).unwrap(), Json::Num(1.0e-9));
    }

    #[test]
    fn str_field_escapes_both_sides() {
        assert_eq!(str_field("a\"b", "c\nd"), "\"a\\\"b\":\"c\\nd\"");
    }
}
