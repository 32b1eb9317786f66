//! The workspace's JSON value: one model, one parser, one renderer.
//!
//! Std-only by policy, so this is the subset the repo itself emits — the
//! metric snapshot ([`crate::MetricsSnapshot::to_json`]) and the bench
//! records under `results/`. Numbers keep their kind (`U64` / `I64` /
//! `F64`); floats are written with Rust's shortest round-trip `{:?}`, so
//! `render` → [`Json::parse`] recovers an equal value bit for bit. The
//! non-finite tokens `NaN` / `inf` / `-inf` are accepted both ways.
//!
//! Input may come from a file: the parser returns [`ParseError`] on anything
//! malformed and refuses nesting deeper than [`MAX_DEPTH`] instead of
//! recursing until the stack runs out.

/// Deepest container nesting [`Json::parse`] accepts — far above anything
/// `to_json` (4) or a bench record (7) emits.
pub const MAX_DEPTH: usize = 64;

/// Columns a container may take and still be rendered on one line.
const LINE_WIDTH: usize = 100;

/// A JSON value. Objects keep their members in insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Obj(Vec<(String, Json)>),
    Arr(Vec<Json>),
    Str(String),
    Bool(bool),
    U64(u64),
    I64(i64),
    F64(f64),
}

/// Build a [`Json::Obj`]. An entry is `"key": value` (through
/// `Json::from`) or `source => [field, ..]`, which adds `source.field` under
/// the key `"field"` for each named field — the key spelled once.
#[macro_export]
macro_rules! json_obj {
    (@acc [$($done:tt)*]) => { $crate::json::Json::Obj(vec![$($done)*]) };
    (@acc [$($done:tt)*] $key:literal : $value:expr $(, $($rest:tt)*)?) => {
        $crate::json_obj!(
            @acc [$($done)* ($key.to_string(), $crate::json::Json::from($value)),] $($($rest)*)?
        )
    };
    (@acc [$($done:tt)*] $source:ident => [$($field:ident),* $(,)?] $(, $($rest:tt)*)?) => {
        $crate::json_obj!(
            @acc [$($done)* $((
                stringify!($field).to_string(),
                $crate::json::Json::from($source.$field.clone()),
            ),)*] $($($rest)*)?
        )
    };
    ($($entries:tt)*) => { $crate::json_obj!(@acc [] $($entries)*) };
}

macro_rules! json_from {
    ($($t:ty => $variant:ident),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::$variant(v.into())
            }
        }
    )*};
}
json_from!(u8 => U64, u32 => U64, u64 => U64, f64 => F64, bool => Bool, &str => Str, String => Str);

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::U64(v as u64)
    }
}

impl Json {
    /// The array `[member(item), ..]` over `items`.
    pub fn arr<T>(items: impl IntoIterator<Item = T>, member: impl FnMut(T) -> Json) -> Json {
        Json::Arr(items.into_iter().map(member).collect())
    }

    pub fn as_obj(&self, what: &str) -> Result<&[(String, Json)], ParseError> {
        match self {
            Json::Obj(o) => Ok(o),
            _ => Err(ParseError::new(&format!("{what}: expected object"))),
        }
    }

    pub fn as_arr(&self, what: &str) -> Result<&[Json], ParseError> {
        match self {
            Json::Arr(a) => Ok(a),
            _ => Err(ParseError::new(&format!("{what}: expected array"))),
        }
    }

    pub fn as_str(&self, what: &str) -> Result<&str, ParseError> {
        match self {
            Json::Str(s) => Ok(s),
            _ => Err(ParseError::new(&format!("{what}: expected string"))),
        }
    }

    pub fn as_u64(&self, what: &str) -> Result<u64, ParseError> {
        match self {
            Json::U64(v) => Ok(*v),
            _ => Err(ParseError::new(&format!(
                "{what}: expected unsigned integer"
            ))),
        }
    }

    pub fn as_f64(&self, what: &str) -> Result<f64, ParseError> {
        match self {
            Json::F64(v) => Ok(*v),
            Json::U64(v) => Ok(*v as f64),
            Json::I64(v) => Ok(*v as f64),
            _ => Err(ParseError::new(&format!("{what}: expected number"))),
        }
    }

    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Result<&Json, ParseError> {
        self.as_obj(key)?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| ParseError::new(&format!("missing key {key}")))
    }

    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(ParseError::new("trailing data after JSON value"));
        }
        Ok(v)
    }

    /// The value on one line, no trailing newline (a `.jsonl` row).
    pub fn render_line(&self) -> String {
        let mut out = String::new();
        self.write_line(&mut out);
        out
    }

    /// The value indented by two spaces per level, newline-terminated. A
    /// container that fits in 100 columns stays on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0, 0);
        out.push('\n');
        out
    }

    fn write_line(&self, out: &mut String) {
        match self {
            Json::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&json_str(key));
                    out.push_str(": ");
                    value.write_line(out);
                }
                out.push('}');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write_line(out);
                }
                out.push(']');
            }
            Json::Str(s) => out.push_str(&json_str(s)),
            Json::Bool(v) => out.push_str(&v.to_string()),
            Json::U64(v) => out.push_str(&v.to_string()),
            Json::I64(v) => out.push_str(&v.to_string()),
            Json::F64(v) => out.push_str(&json_f64(*v)),
        }
    }

    /// `used` is the columns already taken on the current line (indent + key).
    fn write_pretty(&self, out: &mut String, indent: usize, used: usize) {
        let children: Vec<(Option<&str>, &Json)> = match self {
            Json::Obj(members) => members.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
            Json::Arr(items) => items.iter().map(|v| (None, v)).collect(),
            _ => Vec::new(),
        };
        let line = self.render_line();
        if children.is_empty() || used + line.len() <= LINE_WIDTH {
            out.push_str(&line);
            return;
        }
        let (open, close) = if matches!(self, Json::Obj(_)) {
            ('{', '}')
        } else {
            ('[', ']')
        };
        out.push(open);
        for (i, (key, value)) in children.into_iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let line_start = out.len();
            out.push_str(&" ".repeat(indent + 2));
            if let Some(key) = key {
                out.push_str(&json_str(key));
                out.push_str(": ");
            }
            let used = out.len() - line_start;
            value.write_pretty(out, indent + 2, used);
        }
        out.push('\n');
        out.push_str(&" ".repeat(indent));
        out.push(close);
    }
}

/// Render an f64 so that parsing recovers the exact bit pattern (`{:?}` is
/// Rust's shortest round-trip representation).
fn json_f64(v: f64) -> String {
    format!("{v:?}")
}

fn parse_f64(s: &str) -> Option<f64> {
    match s {
        "NaN" => Some(f64::NAN),
        "inf" => Some(f64::INFINITY),
        "-inf" => Some(f64::NEG_INFINITY),
        _ => s.parse().ok(),
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Errors from the JSON parser and the typed accessors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    pub message: String,
}

impl ParseError {
    pub(crate) fn new(message: &str) -> Self {
        ParseError {
            message: message.to_string(),
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), ParseError> {
    skip_ws(b, pos);
    if b.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(ParseError::new(&format!(
            "expected '{}' at byte {}",
            c as char, *pos
        )))
    }
}

/// The members of a container opened at `pos`, up to and including `close`.
fn parse_members<T>(
    b: &[u8],
    pos: &mut usize,
    close: u8,
    mut member: impl FnMut(&[u8], &mut usize) -> Result<T, ParseError>,
) -> Result<Vec<T>, ParseError> {
    *pos += 1;
    let mut members = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&close) {
        *pos += 1;
        return Ok(members);
    }
    loop {
        skip_ws(b, pos);
        members.push(member(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(&c) if c == close => {
                *pos += 1;
                return Ok(members);
            }
            _ => {
                return Err(ParseError::new(&format!(
                    "expected ',' or '{}'",
                    close as char
                )))
            }
        }
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ParseError> {
    skip_ws(b, pos);
    match b.get(*pos) {
        // `depth` containers are open already.
        Some(b'{' | b'[') if depth >= MAX_DEPTH => Err(ParseError::new(&format!(
            "nesting deeper than {MAX_DEPTH} at byte {}",
            *pos
        ))),
        Some(b'{') => Ok(Json::Obj(parse_members(b, pos, b'}', |b, pos| {
            let key = parse_string(b, pos)?;
            expect(b, pos, b':')?;
            Ok((key, parse_value(b, pos, depth + 1)?))
        })?)),
        Some(b'[') => Ok(Json::Arr(parse_members(b, pos, b']', |b, pos| {
            parse_value(b, pos, depth + 1)
        })?)),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(_) => parse_number(b, pos),
        None => Err(ParseError::new("unexpected end of input")),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    if b.get(*pos) != Some(&b'"') {
        return Err(ParseError::new("expected string"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err(ParseError::new("unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| ParseError::new("truncated \\u escape"))?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex)
                                .map_err(|_| ParseError::new("bad \\u escape"))?,
                            16,
                        )
                        .map_err(|_| ParseError::new("bad \\u escape"))?;
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| ParseError::new("bad \\u codepoint"))?,
                        );
                        *pos += 4;
                    }
                    _ => return Err(ParseError::new("bad escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar.
                let rest = std::str::from_utf8(&b[*pos..])
                    .map_err(|_| ParseError::new("invalid utf-8 in string"))?;
                let c = rest.chars().next().expect("non-empty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    let start = *pos;
    for (token, value) in [("true", true), ("false", false)] {
        if b[*pos..].starts_with(token.as_bytes()) {
            *pos += token.len();
            return Ok(Json::Bool(value));
        }
    }
    // Accept the non-finite tokens json_f64 can emit.
    for token in ["NaN", "inf", "-inf"] {
        if b[*pos..].starts_with(token.as_bytes()) {
            *pos += token.len();
            return Ok(Json::F64(parse_f64(token).expect("known token")));
        }
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let s = std::str::from_utf8(&b[start..*pos]).expect("ascii number");
    if s.is_empty() {
        return Err(ParseError::new("expected number"));
    }
    if s.contains(['.', 'e', 'E']) {
        s.parse()
            .map(Json::F64)
            .map_err(|_| ParseError::new("bad float"))
    } else if s.starts_with('-') {
        s.parse()
            .map(Json::I64)
            .map_err(|_| ParseError::new("bad integer"))
    } else {
        s.parse()
            .map(Json::U64)
            .map_err(|_| ParseError::new("bad integer"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        json_obj! {
            "experiment": "sample",
            "gates": json_obj! {"holds": true, "fails": false},
            "numbers": Json::Arr(vec![
                Json::U64(u64::MAX),
                Json::I64(-3),
                Json::F64(0.1 + 0.2),
                Json::F64(1e-300),
                Json::F64(2.0),
            ]),
            "text": "quote\" slash\\ newline\n é",
            "empty": Json::Arr(vec![]),
            "cells": Json::arr(0..12u32, |i| {
                json_obj! {"cell": i, "checksum": "c4da0608aa691ff68b2df56341f3f9c6", "rate": f64::from(i) / 7.0}
            }),
        }
    }

    #[test]
    fn both_renderings_parse_back_to_an_equal_value() {
        let value = sample();
        assert_eq!(Json::parse(&value.render()).expect("pretty"), value);
        assert_eq!(Json::parse(&value.render_line()).expect("line"), value);
        assert!(!value.render_line().contains('\n'));
    }

    #[test]
    fn pretty_breaks_only_what_does_not_fit() {
        let text = sample().render();
        assert!(text.lines().all(|l| l.len() <= LINE_WIDTH + 1), "{text}");
        assert!(
            text.contains("  \"gates\": {\"holds\": true, \"fails\": false},\n"),
            "{text}"
        );
        assert!(text.contains("\n    {\"cell\": 3, "), "{text}");
        assert!(text.ends_with("\n}\n"));
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("not json").is_err());
    }

    /// `Json::parse` is `pub` and reads files: a bracket bomb is a
    /// `ParseError`, not a stack overflow.
    #[test]
    fn parse_bounds_nesting() {
        for open in ["[", "{\"k\": "] {
            let err = Json::parse(&open.repeat(100_000)).unwrap_err();
            assert!(err.to_string().contains("nesting deeper than 64"), "{err}");
        }
        let nested = |levels: usize| format!("{}7{}", "[".repeat(levels), "]".repeat(levels));
        assert!(Json::parse(&nested(64)).is_ok());
        assert!(Json::parse(&nested(65)).is_err());
    }
}
