//! A small, dependency-free JSON codec — the one parser in the tree.
//!
//! The offline build environment has no serde, so the repo carries its
//! own codec here, in the lowest crate that reads JSON: the attempt
//! trace ([`crate::parse_jsonl`]) and, in `flextm-sweep`, the matrix
//! specs and store entries all flow through it. Two properties matter
//! more than generality:
//!
//! - **Numbers keep their source text.** A [`Json::Num`] stores the
//!   raw token and only converts on access, so serializing a parsed
//!   document reproduces it byte-for-byte, and a 128-bit commit mask
//!   survives where an `f64` would not.
//! - **Objects keep insertion order** (a `Vec` of pairs, not a map),
//!   for the same reason.

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its source text.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; pairs in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The value as a `u64`. Accepts plain decimals and — because the
    /// bench records print seeds that way — `"0x…"` hex *strings*.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            Json::Str(s) => {
                let t = s.trim();
                if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
                    u64::from_str_radix(hex, 16).ok()
                } else {
                    t.parse().ok()
                }
            }
            _ => None,
        }
    }

    /// The value as a `u128` (plain decimals only — the trace's commit
    /// enemy mask is the one field wider than 64 bits).
    pub fn as_u128(&self) -> Option<u128> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as an `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes with the repo's record style: `", "` between items
    /// and `": "` after keys — the same spacing every bench binary
    /// prints, so parse→serialize is the identity on their output.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(raw) => out.push_str(raw),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_escaped(k, out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure, with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document; trailing content is an error.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            at: self.pos,
            msg: msg.to_string(),
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
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
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
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
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
                            let end = self.pos + 4;
                            let hex = self
                                .bytes
                                .get(self.pos..end)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate pairs don't appear in this
                            // repo's records; reject rather than
                            // mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("unsupported \\u escape"))?;
                            out.push(c);
                            self.pos = end;
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Multi-byte UTF-8 passes through unchanged.
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
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
        let raw = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if raw.parse::<f64>().is_err() {
            return Err(self.err(&format!("bad number {raw:?}")));
        }
        Ok(Json::Num(raw.to_string()))
    }
}

/// Convenience constructors for building documents to emit.
impl Json {
    /// An unsigned integer.
    pub fn num_u64(v: u64) -> Json {
        Json::Num(v.to_string())
    }

    /// A string.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_reencodes_bench_style_records_exactly() {
        let line = "{\"bench\": \"sched_16core_hashtable\", \"strict_lockstep\": false, \
                    \"threads\": 16, \"rendezvous_per_op\": 0.8571, \"wall_s\": 0.061, \
                    \"seed\": \"0xF1E7\", \"samples\": [1, 2, 3]}";
        let doc = parse(line).expect("parses");
        assert_eq!(doc.encode(), line);
        assert_eq!(doc.get("threads").and_then(Json::as_u64), Some(16));
        assert_eq!(doc.get("seed").and_then(Json::as_u64), Some(0xF1E7));
        assert_eq!(
            doc.get("rendezvous_per_op").and_then(Json::as_f64),
            Some(0.8571)
        );
        assert_eq!(
            doc.get("strict_lockstep").and_then(Json::as_bool),
            Some(false)
        );
        assert_eq!(
            doc.get("samples").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
    }

    #[test]
    fn number_raw_text_survives() {
        // 2^63 + 1 is not representable in f64; the raw text must
        // survive a round trip anyway.
        let doc = parse("{\"big\": 9223372036854775809}").unwrap();
        assert_eq!(doc.encode(), "{\"big\": 9223372036854775809}");
        assert_eq!(
            doc.get("big").and_then(Json::as_u64),
            Some(9223372036854775809)
        );
    }

    #[test]
    fn escapes_round_trip() {
        let doc = Json::Obj(vec![("k\n\"x\"".to_string(), Json::str("a\\b\tc"))]);
        let text = doc.encode();
        assert_eq!(parse(&text).unwrap(), doc);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "{\"a\": }", "[1, ]", "{\"a\": 1} trailing", "nul"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn nested_structures_parse() {
        let doc = parse("{\"a\": [{\"b\": null}, true, -1.5e3]}").unwrap();
        let arr = doc.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr[0].get("b"), Some(&Json::Null));
        assert_eq!(arr[1].as_bool(), Some(true));
        assert_eq!(arr[2].as_f64(), Some(-1500.0));
    }
}
