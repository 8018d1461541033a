//! A minimal JSON reader/writer.
//!
//! The build environment is fully offline (no serde); the observability
//! layer needs just enough JSON to emit Chrome traces and metrics files and
//! to read back the committed `BENCH_tables.json` baseline for the
//! regression gate. Numbers keep their raw source text so integer cells
//! compare exactly, bit for bit.

use std::collections::BTreeMap;
use std::fmt;

/// The deepest array/object nesting [`Json::parse`] accepts. Every
/// document this project writes nests a few levels; the cap keeps the
/// recursive-descent parser off the end of the stack on hostile input
/// (a cache entry or journal line made of `[` characters).
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw source text (exact for u64 cells).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Keys are sorted (BTreeMap) — key order is not preserved,
    /// which is fine for lookup-style use.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parses `text` into a [`Json`] value.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message with a byte offset on malformed
    /// input, trailing garbage, or nesting deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Member `key` of an object (`None` for other variants or a missing
    /// key).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an exactly-parsed unsigned integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as a float.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(raw) => write!(f, "{raw}"),
            Json::Str(s) => write!(f, "\"{}\"", escape_json(s)),
            Json::Arr(v) => {
                write!(f, "[")?;
                for (i, e) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "]")
            }
            Json::Obj(m) => {
                write!(f, "{{")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "\"{}\":{v}", escape_json(k))?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// A field value [`json_codec!`](crate::json_codec) knows how to write and
/// read back.
pub trait JsonField: Sized {
    /// The value as JSON.
    fn to_json(&self) -> Json;
    /// The value back from JSON (`None` on a type or range mismatch).
    fn from_json(j: &Json) -> Option<Self>;
}

impl JsonField for u64 {
    fn to_json(&self) -> Json {
        Json::Num(self.to_string())
    }
    fn from_json(j: &Json) -> Option<Self> {
        j.as_u64()
    }
}

impl JsonField for u32 {
    fn to_json(&self) -> Json {
        Json::Num(self.to_string())
    }
    fn from_json(j: &Json) -> Option<Self> {
        u32::try_from(j.as_u64()?).ok()
    }
}

impl<T: JsonField + Copy + Default, const N: usize> JsonField for [T; N] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(JsonField::to_json).collect())
    }
    fn from_json(j: &Json) -> Option<Self> {
        let items = j.as_array()?;
        if items.len() != N {
            return None;
        }
        let mut out = [T::default(); N];
        for (slot, v) in out.iter_mut().zip(items) {
            *slot = T::from_json(v)?;
        }
        Some(out)
    }
}

/// Declares a JSON object codec for a plain struct from one list of its
/// fields: `json_codec!(to_fn, from_fn, Type { a, b, c })` defines
/// `fn to_fn(&Type) -> Json` (an object keyed by field name) and
/// `fn from_fn(&Json) -> Option<Type>`. Every field type implements
/// [`JsonField`].
///
/// The writer destructures the struct exhaustively, so adding a field to
/// `Type` is a compile error until the list names it.
#[macro_export]
macro_rules! json_codec {
    ($to:ident, $from:ident, $ty:ident { $($field:ident),* $(,)? }) => {
        fn $to(v: &$ty) -> $crate::Json {
            let $ty { $($field),* } = v;
            let mut o = ::std::collections::BTreeMap::new();
            $(o.insert(
                stringify!($field).to_owned(),
                $crate::json::JsonField::to_json($field),
            );)*
            $crate::Json::Obj(o)
        }

        fn $from(j: &$crate::Json) -> Option<$ty> {
            Some($ty {
                $($field: $crate::json::JsonField::from_json(j.get(stringify!($field))?)?,)*
            })
        }
    };
}

/// Escapes `s` for inclusion inside a JSON string literal.
#[must_use]
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// Parses one array or object, one level deeper.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn number(&mut self) -> Result<Json, String> {
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
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "non-utf8 number".to_string())?;
        raw.parse::<f64>()
            .map_err(|_| format!("bad number `{raw}` at byte {start}"))?;
        Ok(Json::Num(raw.to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
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
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte safe).
                    let c = self
                        .text
                        .get(self.pos..)
                        .and_then(|rest| rest.chars().next())
                        .ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut v = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(v));
        }
        loop {
            self.skip_ws();
            v.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(v));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut m = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(m));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            m.insert(k, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(m));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        let v = Json::parse(r#"{"a": [1, 2.5, -3], "b": "x\"y", "c": null, "d": true}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[0].as_u64(), Some(1));
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[1].as_f64(),
            Some(2.5)
        );
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\"y"));
        assert_eq!(v.get("c"), Some(&Json::Null));
        assert_eq!(v.get("d"), Some(&Json::Bool(true)));
    }

    #[test]
    fn large_u64_cells_roundtrip_exactly() {
        let big = u64::MAX - 7;
        let v = Json::parse(&format!("{{\"cycles\": {big}}}")).unwrap();
        assert_eq!(v.get("cycles").unwrap().as_u64(), Some(big));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn display_roundtrips() {
        let src = r#"{"k":[1,"two",{"n":null}]}"#;
        let v = Json::parse(src).unwrap();
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
    }

    #[derive(Debug, PartialEq)]
    struct Pair {
        hits: u64,
        ppm: u32,
        by_class: [u64; 2],
    }

    json_codec!(
        pair_to_json,
        pair_from_json,
        Pair {
            hits,
            ppm,
            by_class
        }
    );

    #[test]
    fn field_list_codec_round_trips_and_rejects_mismatches() {
        let p = Pair {
            hits: u64::MAX,
            ppm: 7,
            by_class: [1, 2],
        };
        let j = pair_to_json(&p);
        assert_eq!(
            j.to_string(),
            format!("{{\"by_class\":[1,2],\"hits\":{},\"ppm\":7}}", u64::MAX)
        );
        assert_eq!(pair_from_json(&j), Some(p));
        for bad in [
            r#"{"by_class":[1,2],"hits":1}"#,
            r#"{"by_class":[1],"hits":1,"ppm":7}"#,
            r#"{"by_class":[1,2],"hits":1,"ppm":4294967296}"#,
            r#"{"by_class":[1,2],"hits":"1","ppm":7}"#,
        ] {
            assert_eq!(pair_from_json(&Json::parse(bad).unwrap()), None, "{bad}");
        }
    }

    #[test]
    fn escape_handles_controls() {
        assert_eq!(escape_json("a\"b\\c\n\u{1}"), "a\\\"b\\\\c\\n\\u0001");
    }
}
