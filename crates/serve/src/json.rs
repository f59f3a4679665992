//! Minimal JSON: a value tree and a strict parser for request bodies,
//! and a streaming writer for responses.
//!
//! The workspace builds with no registry access, so this is a
//! hand-rolled subset sized for the control plane's needs: the writer
//! emits fields in call order (responses are byte-identical run to
//! run), numbers round-trip through `f64`, and the parser enforces
//! depth and size limits instead of trusting the peer. Responses never
//! build a [`Json`] tree: [`object`] writes a body field by field into
//! one buffer, and [`Json::render`] drives the same [`JsonWriter`], so
//! every number and string has exactly one formatter.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order (preserved by the writer).
    Obj(Vec<(String, Json)>),
}

/// Why a body failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError(pub String);

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON: {}", self.0)
    }
}

/// The deepest nesting [`Json::parse`] accepts: the top-level value is
/// at depth 0, and nothing (an object's keys included) may sit deeper
/// than this.
pub const MAX_DEPTH: usize = 32;

impl Json {
    /// Parses one JSON document; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError(format!("trailing bytes at offset {pos}")));
        }
        Ok(value)
    }

    /// Renders compactly (no whitespace), keys in insertion order.
    pub fn render(&self) -> String {
        let mut out = String::new();
        JsonWriter::new(&mut out).value(self);
        out
    }

    /// Object field lookup (`None` on non-objects too).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a non-negative integer (rejects fractions).
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u32::MAX as f64 => {
                Some(*v as usize)
            }
            _ => None,
        }
    }

    /// The value as a `u64` (rejects fractions and negatives).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= 2f64.powi(53) => Some(*v as u64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Shortest-round-trip float text; integral values render without the
/// fraction (`3`, not `3.0`) for stable, compact counters.
fn write_num(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v.fract() == 0.0 && v.abs() < 2f64.powi(53) {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

fn write_str(out: &mut String, s: &str) {
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

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    if depth > MAX_DEPTH {
        return Err(JsonError("nesting too deep".into()));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(JsonError("unexpected end of input".into())),
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let Json::Str(key) = parse_value(bytes, pos, depth + 1)? else {
                    return Err(JsonError("object key must be a string".into()));
                };
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(JsonError(format!("expected ':' at offset {pos}")));
                }
                *pos += 1;
                let value = parse_value(bytes, pos, depth + 1)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(JsonError(format!("expected ',' or '}}' at offset {pos}"))),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(JsonError(format!("expected ',' or ']' at offset {pos}"))),
                }
            }
        }
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(JsonError(format!("bad literal at offset {pos}")))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| JsonError("non-UTF-8 number".into()))?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| JsonError(format!("bad number {text:?} at offset {start}")))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    *pos += 1; // opening quote
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(JsonError("unterminated string".into())),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| JsonError("truncated \\u escape".into()))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| JsonError("bad \\u escape".into()))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| JsonError("bad \\u escape".into()))?;
                        // Surrogates map to the replacement character;
                        // the control plane never emits them.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(JsonError("bad escape".into())),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x20 => return Err(JsonError("control byte in string".into())),
            Some(_) => {
                // Consume the run of plain bytes up to the next quote,
                // escape or control byte, validating only that run:
                // those delimiters are ASCII, so they never split a
                // scalar, and a string parses in linear time.
                let start = *pos;
                while bytes
                    .get(*pos)
                    .is_some_and(|&b| b != b'"' && b != b'\\' && b >= 0x20)
                {
                    *pos += 1;
                }
                let run = std::str::from_utf8(&bytes[start..*pos])
                    .map_err(|_| JsonError("non-UTF-8 string".into()))?;
                out.push_str(run);
            }
        }
    }
}

/// Writes compact JSON straight into a `String`, placing the commas
/// itself: a response body is written field by field, with no value
/// tree and no `String` per key.
pub struct JsonWriter<'a> {
    out: &'a mut String,
    /// The next key or value follows a sibling, so a comma goes first.
    comma: bool,
}

impl<'a> JsonWriter<'a> {
    /// A writer appending to `out`.
    pub fn new(out: &'a mut String) -> Self {
        JsonWriter { out, comma: false }
    }

    fn sep(&mut self) {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
    }

    /// Starts an object field. Keys are static identifiers, written
    /// as they are; the field's value is the next thing written.
    pub fn key(&mut self, key: &'static str) -> &mut Self {
        debug_assert!(!key.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\'));
        self.sep();
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\":");
        self.comma = false;
        self
    }

    /// A number (`null` when not finite).
    pub fn num(&mut self, v: f64) -> &mut Self {
        self.sep();
        write_num(self.out, v);
        self
    }

    /// An escaped string.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.sep();
        write_str(self.out, s);
        self
    }

    /// `true` / `false`.
    pub fn bool(&mut self, b: bool) -> &mut Self {
        self.sep();
        self.out.push_str(if b { "true" } else { "false" });
        self
    }

    /// Opens an object.
    pub fn open_obj(&mut self) -> &mut Self {
        self.open('{')
    }

    /// Opens an array.
    pub fn open_arr(&mut self) -> &mut Self {
        self.open('[')
    }

    /// Closes the innermost object.
    pub fn close_obj(&mut self) -> &mut Self {
        self.close('}')
    }

    /// Closes the innermost array.
    pub fn close_arr(&mut self) -> &mut Self {
        self.close(']')
    }

    fn open(&mut self, bracket: char) -> &mut Self {
        self.sep();
        self.out.push(bracket);
        self.comma = false;
        self
    }

    fn close(&mut self, bracket: char) -> &mut Self {
        self.out.push(bracket);
        self.comma = true;
        self
    }

    /// A whole value tree; object keys are escaped.
    pub fn value(&mut self, v: &Json) -> &mut Self {
        match v {
            Json::Null => {
                self.sep();
                self.out.push_str("null");
                self
            }
            Json::Bool(b) => self.bool(*b),
            Json::Num(v) => self.num(*v),
            Json::Str(s) => self.str(s),
            Json::Arr(items) => {
                self.open_arr();
                for item in items {
                    self.value(item);
                }
                self.close_arr()
            }
            Json::Obj(pairs) => {
                self.open_obj();
                for (k, v) in pairs {
                    self.str(k);
                    self.out.push(':');
                    self.comma = false;
                    self.value(v);
                }
                self.close_obj()
            }
        }
    }
}

/// One JSON object, the whole body of a response, written by `fields`
/// into a buffer of `capacity` bytes (the only allocation when the
/// estimate holds).
pub fn object(capacity: usize, fields: impl FnOnce(&mut JsonWriter<'_>)) -> String {
    let mut out = String::with_capacity(capacity);
    let mut w = JsonWriter::new(&mut out);
    w.open_obj();
    fields(&mut w);
    w.close_obj();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_nested_document() {
        let text = r#"{"a":[1,2.5,-3],"b":{"c":"x\ny","d":true},"e":null}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.render(), text);
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Json::Bool(true)));
        assert_eq!(
            v.get("a").unwrap(),
            &Json::Arr(vec![Json::Num(1.0), Json::Num(2.5), Json::Num(-3.0)])
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\"}",
            "{\"a\":1,}",
            "tru",
            "1 2",
            "\"\\q\"",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn multibyte_string_at_the_body_cap_round_trips() {
        // A body of exactly `MAX_BODY_BYTES` whose one string is mostly
        // 2-, 3- and 4-byte scalars (ASCII-padded to the cap).
        let cap = crate::http::MAX_BODY_BYTES;
        let frame = r#"{"service":""}"#.len();
        let unit = "é漢🙂";
        let mut s = unit.repeat((cap - frame) / unit.len());
        s.push_str(&"a".repeat(cap - frame - s.len()));
        let text = format!(r#"{{"service":"{s}"}}"#);
        assert_eq!(text.len(), cap);
        let v = Json::parse(&text).unwrap();
        assert_eq!(v.get("service").and_then(Json::as_str), Some(s.as_str()));
        assert_eq!(v.render(), text);
    }

    #[test]
    fn rejects_excessive_nesting() {
        let deep = "[".repeat(64) + &"]".repeat(64);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn integer_accessors_reject_fractions() {
        let v = Json::parse(r#"{"n":3,"f":3.5,"neg":-1}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_usize(), Some(3));
        assert_eq!(v.get("f").unwrap().as_usize(), None);
        assert_eq!(v.get("neg").unwrap().as_u64(), None);
    }

    #[test]
    fn writer_places_commas_and_keeps_call_order() {
        let body = object(0, |w| {
            w.key("z").num(1.0);
            w.key("a").open_arr().str("s").open_obj().close_obj();
            w.num(-0.5).open_arr().close_arr().close_arr();
            w.key("t").bool(true);
        });
        assert_eq!(body, r#"{"z":1,"a":["s",{},-0.5,[]],"t":true}"#);
        assert_eq!(Json::parse(&body).unwrap().render(), body);
    }
}
