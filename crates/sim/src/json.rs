//! Minimal JSON support for the observability layer: a streaming writer
//! used by the metrics and Chrome-trace exporters, and a small
//! recursive-descent parser used by round-trip tests and downstream
//! tooling. The repo builds fully offline, so this replaces serde_json
//! for the narrow subset the simulator needs (objects, arrays, strings,
//! finite numbers, booleans, null).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// A streaming JSON writer with automatic comma placement. Containers are
/// opened/closed explicitly; values inside an object must be preceded by
/// [`JsonWriter::key`].
#[derive(Default)]
pub struct JsonWriter {
    out: String,
    /// Stack of "has this container already emitted an element" flags.
    stack: Vec<bool>,
}

impl JsonWriter {
    pub fn new() -> JsonWriter {
        JsonWriter::default()
    }

    /// A writer whose output buffer already holds `bytes` of capacity, for
    /// documents whose size is known roughly beforehand.
    pub fn with_capacity(bytes: usize) -> JsonWriter {
        JsonWriter {
            out: String::with_capacity(bytes),
            stack: Vec::new(),
        }
    }

    fn before_value(&mut self) {
        if let Some(has) = self.stack.last_mut() {
            if *has {
                self.out.push(',');
            }
            *has = true;
        }
    }

    pub fn begin_obj(&mut self) -> &mut Self {
        self.before_value();
        self.out.push('{');
        self.stack.push(false);
        self
    }

    pub fn end_obj(&mut self) -> &mut Self {
        self.stack.pop();
        self.out.push('}');
        self
    }

    pub fn begin_arr(&mut self) -> &mut Self {
        self.before_value();
        self.out.push('[');
        self.stack.push(false);
        self
    }

    pub fn end_arr(&mut self) -> &mut Self {
        self.stack.pop();
        self.out.push(']');
        self
    }

    /// Object key; the next value call supplies its value.
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.before_value();
        push_escaped(&mut self.out, k);
        self.out.push(':');
        // The upcoming value must not emit another comma.
        if let Some(has) = self.stack.last_mut() {
            *has = false;
        }
        self
    }

    pub fn string(&mut self, s: &str) -> &mut Self {
        self.before_value();
        push_escaped(&mut self.out, s);
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.before_value();
        push_u64(&mut self.out, v);
        self
    }

    pub fn i64(&mut self, v: i64) -> &mut Self {
        self.before_value();
        push_i64(&mut self.out, v);
        self
    }

    /// Finite floats print with Rust's shortest round-trip formatting;
    /// NaN/infinity become `null` (JSON has no representation for them).
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.before_value();
        push_f64(&mut self.out, v);
        self
    }

    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.before_value();
        self.out.push_str(if v { "true" } else { "false" });
        self
    }

    pub fn null(&mut self) -> &mut Self {
        self.before_value();
        self.out.push_str("null");
        self
    }

    /// The output buffer, positioned for one element the caller renders
    /// itself (the comma, if one is due, is already written). The caller
    /// must append exactly one complete JSON value.
    pub fn raw(&mut self) -> &mut String {
        self.before_value();
        &mut self.out
    }

    /// Bytes written since the writer was made or last spilled.
    pub fn buffered(&self) -> usize {
        self.out.len()
    }

    /// Hand the buffered bytes to `out` and empty the buffer. The open
    /// containers stay open, so writing carries on in the same document.
    pub fn spill(&mut self, out: &mut dyn io::Write) -> io::Result<()> {
        out.write_all(self.out.as_bytes())?;
        self.out.clear();
        Ok(())
    }

    pub fn finish(self) -> String {
        debug_assert!(self.stack.is_empty(), "unclosed JSON container");
        self.out
    }
}

/// Append `s` as a quoted JSON string. A string with nothing to escape —
/// every key and almost every name the simulator writes — is one scan and
/// one copy.
pub fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    if s.bytes().all(|b| b >= 0x20 && b != b'"' && b != b'\\') {
        out.push_str(s);
    } else {
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
    out.push('"');
}

/// Append `v` in decimal without going through `core::fmt`.
pub fn push_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend(buf[i..].iter().map(|&b| b as char));
}

/// Append `v` in decimal without going through `core::fmt`.
pub fn push_i64(out: &mut String, v: i64) {
    if v < 0 {
        out.push('-');
    }
    push_u64(out, v.unsigned_abs());
}

/// Append `v` as [`JsonWriter::f64`] prints it.
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// A parsed JSON value. Numbers are kept as f64 (sufficient for tick
/// values up to 2^53, far beyond any simulated run).
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<JsonValue>),
    Obj(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Parse a complete JSON document.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let b = text.as_bytes();
        let mut pos = 0;
        let v = parse_value(b, &mut pos)?;
        skip_ws(b, &mut pos);
        if pos != b.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }

    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => Ok(JsonValue::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", JsonValue::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_num(b, pos),
        _ => Err(format!("unexpected input at byte {pos}")),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    if b[*pos] == b'-' {
        *pos += 1;
    }
    while *pos < b.len()
        && (b[*pos].is_ascii_digit() || matches!(b[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(JsonValue::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut s = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(s);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'/') => s.push('/'),
                    Some(b'n') => s.push('\n'),
                    Some(b'r') => s.push('\r'),
                    Some(b't') => s.push('\t'),
                    Some(b'b') => s.push('\u{8}'),
                    Some(b'f') => s.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
                        // Surrogate pairs are not produced by our writer;
                        // map lone surrogates to the replacement char.
                        s.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume the run up to the next quote or escape (both
                // ASCII, so the run ends on a character boundary).
                let run = b[*pos..]
                    .iter()
                    .position(|&c| c == b'"' || c == b'\\')
                    .unwrap_or(b.len() - *pos);
                let run = &b[*pos..*pos + run];
                s.push_str(std::str::from_utf8(run).map_err(|_| "invalid UTF-8")?);
                *pos += run.len();
            }
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect(b, pos, b'[')?;
    let mut v = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(v));
    }
    loop {
        v.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(v));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect(b, pos, b'{')?;
    let mut m = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(m));
    }
    loop {
        skip_ws(b, pos);
        let k = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let v = parse_value(b, pos)?;
        m.insert(k, v);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(m));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_produces_valid_nested_json() {
        let mut w = JsonWriter::new();
        w.begin_obj()
            .key("a")
            .u64(1)
            .key("b")
            .begin_arr()
            .u64(1)
            .string("x\"y")
            .f64(2.5)
            .bool(true)
            .null()
            .end_arr()
            .key("c")
            .begin_obj()
            .key("d")
            .i64(-3)
            .end_obj()
            .end_obj();
        let s = w.finish();
        assert_eq!(s, r#"{"a":1,"b":[1,"x\"y",2.5,true,null],"c":{"d":-3}}"#);
    }

    #[test]
    fn round_trip_through_parser() {
        let mut w = JsonWriter::new();
        w.begin_obj()
            .key("ticks")
            .u64(123456789)
            .key("rate")
            .f64(0.125)
            .key("name")
            .string("lane busy\n")
            .key("list")
            .begin_arr()
            .u64(1)
            .u64(2)
            .end_arr()
            .end_obj();
        let s = w.finish();
        let v = JsonValue::parse(&s).unwrap();
        assert_eq!(v.get("ticks").unwrap().as_u64(), Some(123456789));
        assert_eq!(v.get("rate").unwrap().as_f64(), Some(0.125));
        assert_eq!(v.get("name").unwrap().as_str(), Some("lane busy\n"));
        assert_eq!(v.get("list").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn nonfinite_floats_become_null() {
        let mut w = JsonWriter::new();
        w.begin_arr().f64(f64::NAN).f64(f64::INFINITY).end_arr();
        assert_eq!(w.finish(), "[null,null]");
    }

    #[test]
    fn strings_escape_what_json_requires_and_nothing_else() {
        let mut w = JsonWriter::new();
        w.begin_arr()
            .string("plain::name")
            .string("q\"uote")
            .string("back\\slash")
            .string("line\nfeed\ttab\rreturn")
            .string("bell\u{7}")
            .string("naïve → 図")
            .string("")
            .end_arr();
        assert_eq!(
            w.finish(),
            r#"["plain::name","q\"uote","back\\slash","line\nfeed\ttab\rreturn","bell\u0007","naïve → 図",""]"#
        );
    }

    #[test]
    fn integers_print_as_fmt_prints_them() {
        for v in [0, 1, 9, 10, 99, 100, 12345, u32::MAX as u64, 10u64.pow(19), u64::MAX] {
            let mut s = String::new();
            push_u64(&mut s, v);
            assert_eq!(s, v.to_string());
        }
        for v in [0, 1, -1, 10, -10, i64::MAX, i64::MIN, i64::MIN + 1] {
            let mut s = String::new();
            push_i64(&mut s, v);
            assert_eq!(s, v.to_string());
        }
        let mut w = JsonWriter::new();
        w.begin_arr().u64(u64::MAX).i64(i64::MIN).end_arr();
        assert_eq!(w.finish(), "[18446744073709551615,-9223372036854775808]");
    }

    #[test]
    fn raw_elements_get_their_commas() {
        let mut w = JsonWriter::with_capacity(64);
        w.begin_obj().key("rows").begin_arr();
        w.raw().push_str("{\"a\":1}");
        w.raw().push_str("[2]");
        w.u64(3);
        w.raw().push_str("true");
        w.end_arr().key("n").u64(5).end_obj();
        assert_eq!(w.finish(), r#"{"rows":[{"a":1},[2],3,true],"n":5}"#);
    }

    #[test]
    fn parses_long_strings_between_escapes() {
        let body = "naïve 図 ".repeat(50_000);
        let v = JsonValue::parse(&format!("\"{body}\\n{body}\"")).unwrap();
        assert_eq!(v.as_str(), Some(format!("{body}\n{body}").as_str()));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("{}x").is_err());
        assert!(JsonValue::parse("").is_err());
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = JsonValue::parse(r#""aA\n\t\"""#).unwrap();
        assert_eq!(v.as_str(), Some("aA\n\t\""));
    }
}
