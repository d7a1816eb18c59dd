//! The workspace's JSON: one value type, one string escaper, one parser.
//!
//! The workspace deliberately vendors no JSON crate. Every document the
//! crates emit — run reports, trace exports, replay artifacts, experiment
//! summaries — is built from [`Json`] or streamed through [`ObjWriter`],
//! so every string (process labels and provenance included) passes through
//! the same escaper, and [`parse`] reads back anything the writer produced.
//!
//! Numbers are carried two ways: [`Json::Num`] is an exact `u64` (counters,
//! seeds, sequence numbers — `u64::MAX` survives a round trip), and
//! [`Json::Float`] is an `f64` printed as Rust's `Display` prints it, the
//! shortest text that reads back to the same value (`8`, `0.8`,
//! `67.67419`). JSON has no NaN or infinity: a non-finite float is written
//! as `null`.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// An exact unsigned integer.
    Num(u64),
    /// A float; written as `null` when not finite.
    Float(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

/// Serializes compactly (no insignificant whitespace).
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

macro_rules! num_from {
    ($($int:ty),*) => {$(
        impl From<$int> for Json {
            fn from(n: $int) -> Json {
                Json::Num(n as u64)
            }
        }
    )*};
}
num_from!(u64, u32, usize);

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Float(v)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl Json {
    /// An object from `(key, value)` pairs, in the order given.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a float, if it is a number of either kind.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n as f64),
            Json::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Appends the compact serialization to `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Float(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Json::Float(_) => out.push_str("null"),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                let mut obj = ObjWriter::new(out);
                for (k, v) in pairs {
                    obj.value(k, v);
                }
                obj.end();
            }
        }
    }
}

/// Streams one JSON object straight into a string, for exporters that
/// write an object per trace event and cannot afford a tree for each.
/// Opens the brace on creation; [`ObjWriter::end`] closes it.
pub struct ObjWriter<'a> {
    out: &'a mut String,
    first: bool,
}

impl<'a> ObjWriter<'a> {
    /// Starts an object at the end of `out`.
    pub fn new(out: &'a mut String) -> ObjWriter<'a> {
        out.push('{');
        ObjWriter { out, first: true }
    }

    fn key(&mut self, key: &str) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        write_string(self.out, key);
        self.out.push(':');
    }

    /// Writes an unsigned-integer field.
    pub fn num(&mut self, key: &str, n: impl Into<u64>) -> &mut Self {
        self.key(key);
        let _ = write!(self.out, "{}", n.into());
        self
    }

    /// Writes a string field, escaped.
    pub fn str(&mut self, key: &str, s: &str) -> &mut Self {
        self.key(key);
        write_string(self.out, s);
        self
    }

    /// Writes a field holding any value.
    pub fn value(&mut self, key: &str, v: &Json) -> &mut Self {
        self.key(key);
        v.write(self.out);
        self
    }

    /// Starts a nested object under `key`; end it before writing on.
    pub fn obj(&mut self, key: &str) -> ObjWriter<'_> {
        self.key(key);
        ObjWriter::new(self.out)
    }

    /// Closes the object.
    pub fn end(self) {
        self.out.push('}');
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses a complete JSON document (insignificant whitespace allowed).
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == byte {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", byte as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b'0'..=b'9' | b'-') => parse_number(bytes, pos),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        _ => Err(format!("unexpected input at byte {}", *pos)),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

/// `-? digits (. digits)? ([eE] [+-]? digits)?`. An unsigned integer that
/// fits a `u64` stays exact; anything else becomes a float.
fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    let digits = |pos: &mut usize| -> Result<(), String> {
        let from = *pos;
        while *pos < bytes.len() && bytes[*pos].is_ascii_digit() {
            *pos += 1;
        }
        if *pos == from {
            return Err(format!("expected a digit at byte {from}"));
        }
        Ok(())
    };
    let mut exact = true;
    if bytes[*pos] == b'-' {
        exact = false;
        *pos += 1;
    }
    digits(pos)?;
    if bytes.get(*pos) == Some(&b'.') {
        exact = false;
        *pos += 1;
        digits(pos)?;
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        exact = false;
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        digits(pos)?;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("number bytes are ascii");
    if exact {
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Json::Num(n));
        }
    }
    match text.parse::<f64>() {
        Ok(v) if v.is_finite() => Ok(Json::Float(v)),
        _ => Err(format!("bad number at byte {start}")),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        // A run of plain bytes ends at a quote, a backslash or a control
        // byte — all ASCII, so the run is whole UTF-8 sequences of the
        // `&str` this came from.
        let run = *pos;
        while bytes
            .get(*pos)
            .is_some_and(|b| !matches!(b, b'"' | b'\\' | 0x00..=0x1f))
        {
            *pos += 1;
        }
        out.push_str(std::str::from_utf8(&bytes[run..*pos]).expect("cut at ASCII bytes"));
        let Some(&b) = bytes.get(*pos) else {
            return Err("unterminated string".to_string());
        };
        *pos += 1;
        match b {
            b'"' => return Ok(out),
            b'\\' => {
                let Some(&esc) = bytes.get(*pos) else {
                    return Err("unterminated escape".to_string());
                };
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                            .map(|h| std::str::from_utf8(h).expect("hex digits are ascii"))
                            .ok_or("bad \\u escape")?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| "bad \\u escape".to_string())?;
                        *pos += 4;
                        out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                    }
                    _ => return Err(format!("unknown escape at byte {}", *pos - 1)),
                }
            }
            _ => return Err(format!("raw control byte in string at byte {}", *pos - 1)),
        }
    }
}

/// The elements between an opening bracket (at `pos`) and `close`:
/// `item` parses one, commas separate them.
fn parse_seq(
    bytes: &[u8],
    pos: &mut usize,
    close: u8,
    mut item: impl FnMut(&mut usize) -> Result<(), String>,
) -> Result<(), String> {
    *pos += 1;
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&close) {
        *pos += 1;
        return Ok(());
    }
    loop {
        item(pos)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b) if *b == close => {
                *pos += 1;
                return Ok(());
            }
            _ => {
                return Err(format!(
                    "expected ',' or '{}' at byte {}",
                    close as char, *pos
                ))
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let mut items = Vec::new();
    parse_seq(bytes, pos, b']', |pos| {
        items.push(parse_value(bytes, pos)?);
        Ok(())
    })?;
    Ok(Json::Arr(items))
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let mut pairs = Vec::new();
    parse_seq(bytes, pos, b'}', |pos| {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        pairs.push((key, parse_value(bytes, pos)?));
        Ok(())
    })?;
    Ok(Json::Obj(pairs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips() {
        let v = Json::obj([
            ("a", Json::Num(u64::MAX)),
            ("b", Json::from("x\"\\\n\u{1}é")),
            (
                "c",
                Json::Arr(vec![Json::Bool(true), Json::Null, Json::Num(0)]),
            ),
            ("d", Json::Float(-67.67419)),
        ]);
        let text = v.to_string();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("{} x").is_err());
        assert!(parse("[1,]").is_err());
    }

    #[test]
    fn floats_print_as_display_and_non_finite_as_null() {
        let text = |v: f64| Json::from(v).to_string();
        assert_eq!(text(8.0), "8");
        assert_eq!(text(0.8), "0.8");
        assert_eq!(text(67.67419), "67.67419");
        assert_eq!(text(55.162390180878525), "55.162390180878525");
        assert_eq!(text(f64::NAN), "null");
        assert_eq!(text(f64::INFINITY), "null");
        assert_eq!(text(f64::NEG_INFINITY), "null");
        // Display never uses an exponent, so every finite float is JSON.
        assert_eq!(text(1e21), "1000000000000000000000");
        assert_eq!(parse(&text(1e21)).unwrap(), Json::Float(1e21));
        assert_eq!(parse(&text(1e-7)).unwrap().as_f64(), Some(1e-7));
    }

    #[test]
    fn parser_keeps_u64_exact_and_reads_the_float_grammar() {
        assert_eq!(parse("18446744073709551615").unwrap(), Json::Num(u64::MAX));
        assert_eq!(parse("0.8").unwrap(), Json::Float(0.8));
        assert_eq!(parse("-3").unwrap(), Json::Float(-3.0));
        assert_eq!(parse("2.5e-3").unwrap(), Json::Float(0.0025));
        assert_eq!(parse("1E2").unwrap(), Json::Float(100.0));
        // A whole float prints without a fraction and reads back exact.
        assert_eq!(parse("8").unwrap().as_f64(), Some(8.0));
        for bad in ["1.", "-", "-.5", "1e", "1e+", "--1", "1e999", "NaN"] {
            assert!(parse(bad).is_err(), "{bad} must not parse");
        }
    }

    #[test]
    fn strings_escape_controls_and_parser_rejects_raw_ones() {
        let hostile = "a\"b\n\u{1}";
        let text = Json::from(hostile).to_string();
        assert_eq!(text, "\"a\\\"b\\n\\u0001\"");
        assert_eq!(parse(&text).unwrap().as_str(), Some(hostile));
        assert!(parse("\"a\nb\"").is_err());
        assert!(parse("\"\\u+041\"").is_err());
        assert!(parse("\"\\u00e9\\/\"").unwrap() == Json::from("é/"));
        assert!(parse("\"a\u{1}b\"").is_err());
    }

    #[test]
    fn obj_writer_streams_what_the_tree_writes() {
        let mut out = String::new();
        let mut obj = ObjWriter::new(&mut out);
        obj.num("n", 7u64).str("s", "q\"");
        let mut inner = obj.obj("args");
        inner.value("f", &Json::Float(0.5));
        inner.end();
        obj.end();
        let tree = Json::obj([
            ("n", Json::Num(7)),
            ("s", Json::from("q\"")),
            ("args", Json::obj([("f", Json::Float(0.5))])),
        ]);
        assert_eq!(out, tree.to_string());
        assert_eq!(parse(&out).unwrap(), tree);
    }
}
