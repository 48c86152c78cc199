//! Hand-rolled JSON value model, writer, and parser.
//!
//! The workspace builds fully offline, so `quorum-obs` cannot pull in
//! `serde`/`serde_json`. The subset implemented here is exactly what run
//! manifests need: objects (insertion-ordered via sorted `BTreeMap`),
//! arrays, strings, finite f64 numbers, u64 integers, booleans, null.
//! The parser exists so manifests can be read back in tests and tooling;
//! it accepts standard JSON (with the usual escapes) and rejects NaN and
//! infinities, which the writer never emits either.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// An in-memory JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer, written without a decimal point.
    Int(u64),
    /// A finite double, written with enough digits to round-trip.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object with deterministically (lexicographically) ordered keys.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// An empty object.
    pub(crate) fn object() -> Self {
        JsonValue::Object(BTreeMap::new())
    }

    /// Inserts `key → value` into an object; panics if `self` is not one.
    pub(crate) fn insert(&mut self, key: &str, value: JsonValue) {
        match self {
            JsonValue::Object(map) => {
                map.insert(key.to_string(), value);
            }
            other => panic!("insert on non-object JsonValue {other:?}"),
        }
    }

    /// Member lookup on objects; `None` for other variants.
    pub(crate) fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The value as a u64 if it is an integer (or an integral `Num`).
    pub(crate) fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Int(v) => Some(*v),
            JsonValue::Num(v) if v.fract() == 0.0 && *v >= 0.0 && *v <= u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The value as an f64 for either numeric variant.
    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(v) => Some(*v as f64),
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub(crate) fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace).
    pub(crate) fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out, None, 0);
        out
    }

    /// Serializes with two-space indentation and a trailing newline —
    /// the format manifests are written in, diff-friendly.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write_into(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Int(v) => {
                let _ = write!(out, "{v}");
            }
            JsonValue::Num(v) => write_f64(out, *v),
            JsonValue::Str(s) => write_escaped(out, s),
            JsonValue::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write_into(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            JsonValue::Object(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write_into(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document. Errors carry a byte offset and message.
    pub(crate) fn parse(input: &str) -> Result<JsonValue, ParseError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(value)
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

fn write_f64(out: &mut String, v: f64) {
    assert!(v.is_finite(), "JSON cannot represent {v}");
    if v == v.trunc() && v.abs() < 1e15 {
        // Keep a decimal point so the reader can tell Num from Int.
        let _ = write!(out, "{v:.1}");
    } else {
        // `{}` on f64 is shortest-round-trip in Rust.
        let _ = write!(out, "{v}");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

/// A parse failure: byte offset plus a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ParseError {
    /// Byte offset into the input where parsing failed.
    pub(crate) offset: usize,
    /// What went wrong.
    pub(crate) message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.to_string(),
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

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<JsonValue, ParseError> {
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            map.insert(key, self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
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
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ASCII \\u escape"))?;
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
                    // Advance one full UTF-8 character.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid UTF-8"))?;
                    let c = s.chars().next().expect("Some(_) arm guarantees a byte");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("number span is ASCII");
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(JsonValue::Int(v));
            }
        }
        let v: f64 = text.parse().map_err(|_| self.err("invalid number"))?;
        if !v.is_finite() {
            return Err(self.err("number out of range"));
        }
        Ok(JsonValue::Num(v))
    }
}

/// Flattens a JSON document into `key,value` CSV rows.
///
/// Nested object keys join with `.`; array elements index with `[i]`.
/// Scalar leaves become one row each; the header row is `key,value`.
/// Strings containing commas or quotes are double-quote escaped per
/// RFC 4180.
pub(crate) fn to_csv(value: &JsonValue) -> String {
    let mut rows = vec!["key,value".to_string()];
    flatten(value, String::new(), &mut rows);
    let mut out = rows.join("\n");
    out.push('\n');
    out
}

fn flatten(value: &JsonValue, prefix: String, rows: &mut Vec<String>) {
    match value {
        JsonValue::Object(map) => {
            for (k, v) in map {
                let key = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                flatten(v, key, rows);
            }
        }
        JsonValue::Array(items) => {
            for (i, v) in items.iter().enumerate() {
                flatten(v, format!("{prefix}[{i}]"), rows);
            }
        }
        scalar => {
            let rendered = match scalar {
                JsonValue::Str(s) => csv_escape(s),
                other => other.to_string_compact(),
            };
            rows.push(format!("{},{}", csv_escape(&prefix), rendered));
        }
    }
}

fn csv_escape(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JsonValue {
        let mut obj = JsonValue::object();
        obj.insert("seed", JsonValue::Int(42));
        obj.insert("rho", JsonValue::Num(1.0 / 128.0));
        obj.insert("label", JsonValue::Str("ring, 101 sites".into()));
        obj.insert("ok", JsonValue::Bool(true));
        obj.insert("none", JsonValue::Null);
        obj.insert(
            "trace",
            JsonValue::Array(vec![JsonValue::Num(0.5), JsonValue::Num(0.25)]),
        );
        obj
    }

    #[test]
    fn compact_and_pretty_parse_back_identically() {
        let doc = sample();
        assert_eq!(JsonValue::parse(&doc.to_string_compact()).unwrap(), doc);
        assert_eq!(JsonValue::parse(&doc.to_string_pretty()).unwrap(), doc);
    }

    #[test]
    fn integers_and_floats_stay_distinct() {
        let round = JsonValue::parse("{\"i\": 3, \"f\": 3.0}").unwrap();
        assert_eq!(round.get("i"), Some(&JsonValue::Int(3)));
        assert_eq!(round.get("f"), Some(&JsonValue::Num(3.0)));
        // And the writer preserves the distinction.
        assert_eq!(JsonValue::Int(3).to_string_compact(), "3");
        assert_eq!(JsonValue::Num(3.0).to_string_compact(), "3.0");
    }

    #[test]
    fn floats_round_trip_exactly() {
        for v in [
            1.0 / 128.0,
            0.005,
            1e-17,
            123456.789,
            -0.0,
            f64::MIN_POSITIVE,
        ] {
            let text = JsonValue::Num(v).to_string_compact();
            match JsonValue::parse(&text).unwrap() {
                JsonValue::Num(back) => assert_eq!(back.to_bits(), v.to_bits(), "{text}"),
                JsonValue::Int(back) => assert_eq!(back as f64, v),
                other => panic!("parsed {other:?}"),
            }
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let tricky = "quote \" slash \\ newline \n tab \t unicode é control \u{0001}";
        let text = JsonValue::Str(tricky.into()).to_string_compact();
        assert_eq!(
            JsonValue::parse(&text).unwrap(),
            JsonValue::Str(tricky.into())
        );
    }

    #[test]
    fn object_keys_are_sorted_in_output() {
        let mut obj = JsonValue::object();
        obj.insert("zeta", JsonValue::Int(1));
        obj.insert("alpha", JsonValue::Int(2));
        let text = obj.to_string_compact();
        assert!(text.find("alpha").unwrap() < text.find("zeta").unwrap());
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "nul", "1 2", "\"open"] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parse_accepts_whitespace_and_nesting() {
        let doc = JsonValue::parse(" { \"a\" : [ 1 , { \"b\" : null } ] } ").unwrap();
        let arr = doc.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr[0], JsonValue::Int(1));
        assert_eq!(arr[1].get("b"), Some(&JsonValue::Null));
    }

    #[test]
    fn csv_flattening_covers_nesting_and_escaping() {
        let csv = to_csv(&sample());
        assert!(csv.starts_with("key,value\n"));
        assert!(csv.contains("seed,42\n"));
        assert!(csv.contains("trace[0],0.5\n"));
        assert!(csv.contains("trace[1],0.25\n"));
        // The comma in the label forces quoting.
        assert!(csv.contains("label,\"ring, 101 sites\"\n"));
    }

    #[test]
    fn negative_and_exponent_numbers_parse() {
        assert_eq!(
            JsonValue::parse("-2.5e-3").unwrap(),
            JsonValue::Num(-2.5e-3)
        );
        assert_eq!(JsonValue::parse("-7").unwrap(), JsonValue::Num(-7.0));
    }
}
