//! The workspace's one JSON implementation: a minimal value with stable,
//! deterministic serialization and the parser that reads it back. The
//! workspace is offline, so no serde; results files, the JSONL telemetry
//! stream ([`crate::Snapshot::jsonl`]), the flight recorder's dumps and
//! `ort report` only need objects, arrays, strings, numbers, booleans and
//! null. Every one of them is built as a [`Json`] value and printed here.

use std::fmt;
use std::num::IntErrorKind;

/// A JSON value. Object keys keep insertion order (deterministic output).
#[derive(Debug, Clone)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Integer (serialized without a decimal point).
    Int(i64),
    /// Float (serialized via `{:?}`, NaN/±∞ mapped to `null`).
    Num(f64),
    /// String (escaped).
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs.
    #[must_use]
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// An unsigned integer, saturated at `i64::MAX` (the largest value a
    /// [`Json::Int`] holds): the one `u64` conversion, so a saturated
    /// counter or histogram sum stays a large non-negative number that
    /// [`Json::parse`] reads back, never a negative or unparseable one.
    #[must_use]
    pub fn uint(v: u64) -> Json {
        Json::Int(i64::try_from(v).unwrap_or(i64::MAX))
    }

    /// Parses a JSON document — the inverse of [`Json::pretty`] and
    /// [`Json::compact`]. Numbers with a decimal point or exponent become
    /// [`Json::Num`]; bare integers become [`Json::Int`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the byte offset of the first syntax error.
    /// A bare integer outside the `i64` range is an error naming the
    /// number, never a silent rounding to a float.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Looks up a key in an object (`None` for non-objects/missing keys).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The integer value, if this is an [`Json::Int`].
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The numeric value — either variant — as an `f64`.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string value, if this is a [`Json::Str`].
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an [`Json::Arr`].
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes with 2-space indentation.
    #[must_use]
    pub fn pretty(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, 0);
        s.push('\n');
        s
    }

    /// Serializes on one line, no trailing newline — the JSONL form used
    /// by `results/HISTORY.jsonl`.
    #[must_use]
    pub fn compact(&self) -> String {
        let mut s = String::new();
        self.write_compact(&mut s);
        s
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).write(out, 0);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
            scalar => scalar.write(out, 0),
        }
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Num(x) => {
                if x.is_finite() {
                    // {:?} keeps a trailing ".0" on integral floats, which
                    // keeps the field type stable across runs.
                    out.push_str(&format!("{x:?}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\r' => out.push_str("\\r"),
                        '\t' => out.push_str("\\t"),
                        c if (c as u32) < 0x20 => {
                            out.push_str(&format!("\\u{:04x}", c as u32));
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
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
                    out.push('\n');
                    indent(out, depth + 1);
                    item.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
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
                    out.push('\n');
                    indent(out, depth + 1);
                    Json::Str(k.clone()).write(out, depth + 1);
                    out.push_str(": ");
                    v.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Recursive-descent parser over the document bytes.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn eat_keyword(&mut self, word: &str) -> bool {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'n') if self.eat_keyword("null") => Ok(Json::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    pairs.push((key, self.value()?));
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(pairs));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy one UTF-8 scalar (document came from a &str, so
                    // boundaries are valid).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid UTF-8")?;
                    let c = rest.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if is_float {
            return text.parse().map(Json::Num).map_err(|_| format!("bad number at byte {start}"));
        }
        text.parse().map(Json::Int).map_err(|e| match e.kind() {
            IntErrorKind::PosOverflow | IntErrorKind::NegOverflow => {
                format!("integer {text} out of i64 range at byte {start}")
            }
            _ => format!("bad number at byte {start}"),
        })
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write(&mut s, 0);
        f.write_str(&s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_shapes() {
        let v = Json::obj(vec![
            ("name", Json::Str("a \"b\"\n".into())),
            ("n", Json::Int(64)),
            ("stretch", Json::Num(1.5)),
            ("pass", Json::Bool(true)),
            ("none", Json::Null),
            ("xs", Json::Arr(vec![Json::Int(1), Json::Int(2)])),
            ("empty", Json::Arr(vec![])),
        ]);
        let s = v.pretty();
        assert!(s.contains("\"a \\\"b\\\"\\n\""));
        assert!(s.contains("\"stretch\": 1.5"));
        assert!(s.contains("\"empty\": []"));
        assert!(s.ends_with("}\n"));
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn integral_floats_keep_their_point() {
        assert_eq!(Json::Num(2.0).to_string(), "2.0");
    }

    #[test]
    fn parse_round_trips_pretty_output() {
        let v = Json::obj(vec![
            ("name", Json::Str("a \"b\"\n\u{3b2}".into())),
            ("n", Json::Int(-64)),
            ("stretch", Json::Num(1.5)),
            ("pass", Json::Bool(true)),
            ("none", Json::Null),
            ("xs", Json::Arr(vec![Json::Int(1), Json::obj(vec![("y", Json::Num(2.0))])]),),
            ("empty", Json::Arr(vec![])),
        ]);
        let text = v.pretty();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.pretty(), text);
        assert_eq!(back.get("n").and_then(Json::as_i64), Some(-64));
        assert_eq!(back.get("stretch").and_then(Json::as_f64), Some(1.5));
        assert_eq!(back.get("name").and_then(Json::as_str), Some("a \"b\"\n\u{3b2}"));
        assert_eq!(back.get("xs").and_then(Json::as_arr).map(<[Json]>::len), Some(2));
    }

    #[test]
    fn compact_is_one_line_and_parses_back() {
        let v = Json::obj(vec![
            ("file", Json::Str("X.json".into())),
            ("schema", Json::Int(1)),
            ("xs", Json::Arr(vec![Json::Int(1), Json::Bool(false)])),
        ]);
        let line = v.compact();
        assert!(!line.contains('\n'));
        assert_eq!(line, "{\"file\":\"X.json\",\"schema\":1,\"xs\":[1,false]}");
        assert_eq!(Json::parse(&line).unwrap().pretty(), v.pretty());
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1, 2,]").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn parse_reads_single_line_records() {
        let doc = "{\n  \"bench\": \"apsp\",\n  \"results\": [\n    {\"engine\": \"queue_serial\", \"n\": 128, \"ms\": 1.021}\n  ]\n}\n";
        let v = Json::parse(doc).unwrap();
        let first = &v.get("results").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(first.get("engine").and_then(Json::as_str), Some("queue_serial"));
        assert_eq!(first.get("ms").and_then(Json::as_f64), Some(1.021));
    }
}
