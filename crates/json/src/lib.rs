//! # briq-json
//!
//! A small, dependency-free JSON library for the BriQ workspace: a
//! [`Value`] model, a hardened parser (depth-capped, panic-free on
//! arbitrary input), a compact/pretty writer, and the [`ToJson`] /
//! [`FromJson`] traits with `macro_rules!` helpers that stand in for
//! derive macros ([`json_struct!`], [`json_unit_enum!`], [`json_enum!`]).
//!
//! The workspace targets fully offline builds; this crate replaces the
//! external `serde`/`serde_json` pair for the formats BriQ actually needs:
//! model persistence, alignment output, the diagnostics JSONL stream of
//! `briq-align`, and the `briq-serve` wire protocol.

use std::fmt;

/// Maximum nesting depth the parser accepts before failing (instead of
/// overflowing the stack on adversarial input like `[[[[…`).
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number (all JSON numbers are f64 here).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as `bool`, if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The value as object entries, if it is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Object member lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// For externally-tagged enums: if the value is a single-entry object
    /// `{variant: payload}`, return the payload.
    pub fn get_variant(&self, variant: &str) -> Option<&Value> {
        match self.as_object() {
            Some([(k, v)]) if k == variant => Some(v),
            _ => None,
        }
    }

    /// Serialize compactly.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        write_value(self, &mut out, None, 0);
        out
    }

    /// Serialize with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        write_value(self, &mut out, Some(2), 0);
        out
    }
}

/// Error produced by parsing or by [`FromJson`] conversions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    msg: String,
}

impl JsonError {
    /// Construct an error with a message.
    pub fn new(msg: impl Into<String>) -> Self {
        JsonError { msg: msg.into() }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Convenient `Result` alias.
pub type Result<T> = std::result::Result<T, JsonError>;

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_value(v: &Value, out: &mut String, indent: Option<usize>, level: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Num(n) => {
            if n.is_finite() {
                // Rust's f64 Display is shortest-round-trip.
                out.push_str(&format!("{n}"));
            } else {
                // JSON has no NaN/Infinity; degrade to null.
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_value(item, out, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push(']');
        }
        Value::Object(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_string(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(val, out, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * level {
            out.push(' ');
        }
    }
}

fn write_string(s: &str, out: &mut String) {
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

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Parse a JSON document into a [`Value`]. Panic-free on arbitrary input;
/// nesting deeper than [`MAX_DEPTH`] is rejected.
pub fn parse(input: &str) -> Result<Value> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(JsonError::new(format!("trailing data at byte {}", p.pos)));
    }
    Ok(v)
}

struct Parser<'a> {
    /// The input, for slicing string runs; `bytes` is the same text.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::new(format!(
                "expected {:?} at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value> {
        if depth > MAX_DEPTH {
            return Err(JsonError::new("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.pos += 1;
                        }
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => {
                            return Err(JsonError::new(format!(
                                "expected ',' or ']' at byte {}",
                                self.pos
                            )))
                        }
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut entries = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let val = self.value(depth + 1)?;
                    entries.push((key, val));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.pos += 1;
                        }
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Object(entries));
                        }
                        _ => {
                            return Err(JsonError::new(format!(
                                "expected ',' or '}}' at byte {}",
                                self.pos
                            )))
                        }
                    }
                }
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(JsonError::new(format!(
                "unexpected byte {:?} at {}",
                c as char, self.pos
            ))),
            None => Err(JsonError::new("unexpected end of input")),
        }
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError::new("invalid number bytes"))?;
        let n: f64 = text
            .parse()
            .map_err(|_| JsonError::new(format!("invalid number {text:?}")))?;
        Ok(Value::Num(n))
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(JsonError::new("unterminated string")),
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
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pair handling.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.eat_keyword("\\u") {
                                    let lo = self.hex4()?;
                                    let combined = 0x10000
                                        + ((cp - 0xD800) << 10)
                                        + (lo.wrapping_sub(0xDC00) & 0x3FF);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.unwrap_or('\u{FFFD}'));
                            continue; // pos already advanced past the escape
                        }
                        _ => return Err(JsonError::new("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or backslash.
                    // Both are ASCII, so the run ends on a char boundary.
                    let rest = &self.bytes[self.pos..];
                    let end = self.pos
                        + rest
                            .iter()
                            .position(|&b| b == b'"' || b == b'\\')
                            .unwrap_or(rest.len());
                    let run = self
                        .text
                        .get(self.pos..end)
                        .ok_or_else(|| JsonError::new("invalid utf-8"))?;
                    out.push_str(run);
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32> {
        let end = self
            .pos
            .checked_add(4)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| JsonError::new("truncated \\u escape"))?;
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| JsonError::new("invalid \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| JsonError::new("invalid \\u escape"))?;
        self.pos = end;
        Ok(cp)
    }
}

// ---------------------------------------------------------------------------
// ToJson / FromJson traits
// ---------------------------------------------------------------------------

/// Serialize a Rust value into a [`Value`].
pub trait ToJson {
    /// Convert to a JSON value.
    fn to_json(&self) -> Value;
}

/// Deserialize a Rust value from a [`Value`].
pub trait FromJson: Sized {
    /// Convert from a JSON value.
    fn from_json(v: &Value) -> Result<Self>;
}

/// Serialize to a compact JSON string.
pub fn to_string<T: ToJson + ?Sized>(t: &T) -> String {
    t.to_json().to_string_compact()
}

/// Serialize to a pretty JSON string.
pub fn to_string_pretty<T: ToJson + ?Sized>(t: &T) -> String {
    t.to_json().to_string_pretty()
}

/// Parse and convert from a JSON string.
pub fn from_str<T: FromJson>(s: &str) -> Result<T> {
    T::from_json(&parse(s)?)
}

/// Look up `key` in object entries and convert; missing keys error.
pub fn field<T: FromJson>(obj: &[(String, Value)], key: &str) -> Result<T> {
    match obj.iter().find(|(k, _)| k == key) {
        Some((_, v)) => T::from_json(v).map_err(|e| JsonError::new(format!("field {key:?}: {e}"))),
        None => Err(JsonError::new(format!("missing field {key:?}"))),
    }
}

impl ToJson for Value {
    fn to_json(&self) -> Value {
        self.clone()
    }
}

impl FromJson for Value {
    fn from_json(v: &Value) -> Result<Self> {
        Ok(v.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Value) -> Result<Self> {
        v.as_bool().ok_or_else(|| JsonError::new("expected bool"))
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Value {
        Value::Num(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Value) -> Result<Self> {
        match v {
            Value::Num(n) => Ok(*n),
            // Non-finite numbers serialize as null.
            Value::Null => Ok(f64::NAN),
            _ => Err(JsonError::new("expected number")),
        }
    }
}

macro_rules! int_json {
    ($($ty:ty),*) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> Value {
                Value::Num(*self as f64)
            }
        }
        impl FromJson for $ty {
            fn from_json(v: &Value) -> Result<Self> {
                let n = v.as_f64().ok_or_else(|| JsonError::new("expected integer"))?;
                if n.fract() != 0.0 || !n.is_finite() {
                    return Err(JsonError::new(format!("expected integer, got {n}")));
                }
                if n < <$ty>::MIN as f64 || n > <$ty>::MAX as f64 {
                    return Err(JsonError::new(format!("integer {n} out of range")));
                }
                Ok(n as $ty)
            }
        }
    )*};
}

int_json!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Value) -> Result<Self> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| JsonError::new("expected string"))
    }
}

impl ToJson for str {
    fn to_json(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Value) -> Result<Self> {
        v.as_array()
            .ok_or_else(|| JsonError::new("expected array"))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        match self {
            Some(t) => t.to_json(),
            None => Value::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Value) -> Result<Self> {
        match v {
            Value::Null => Ok(None),
            other => Ok(Some(T::from_json(other)?)),
        }
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Value {
        Value::Array(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Value) -> Result<Self> {
        match v.as_array() {
            Some([a, b]) => Ok((A::from_json(a)?, B::from_json(b)?)),
            _ => Err(JsonError::new("expected 2-element array")),
        }
    }
}

// ---------------------------------------------------------------------------
// Derive-style macros
// ---------------------------------------------------------------------------

/// Implement [`ToJson`]/[`FromJson`] for a struct with named fields.
///
/// ```
/// struct P { x: f64, y: f64 }
/// briq_json::json_struct!(P { x, y });
/// ```
#[macro_export]
macro_rules! json_struct {
    ($name:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::ToJson for $name {
            fn to_json(&self) -> $crate::Value {
                $crate::Value::Object(vec![
                    $( (stringify!($field).to_string(), $crate::ToJson::to_json(&self.$field)), )+
                ])
            }
        }
        impl $crate::FromJson for $name {
            fn from_json(v: &$crate::Value) -> $crate::Result<Self> {
                let obj = v
                    .as_object()
                    .ok_or_else(|| $crate::JsonError::new(concat!("expected ", stringify!($name), " object")))?;
                Ok($name {
                    $( $field: $crate::field(obj, stringify!($field))?, )+
                })
            }
        }
    };
}

/// Implement [`ToJson`]/[`FromJson`] for a fieldless enum, serialized as
/// the variant name string.
#[macro_export]
macro_rules! json_unit_enum {
    ($name:ident { $($variant:ident),+ $(,)? }) => {
        impl $crate::ToJson for $name {
            fn to_json(&self) -> $crate::Value {
                let s = match self {
                    $( $name::$variant => stringify!($variant), )+
                };
                $crate::Value::Str(s.to_string())
            }
        }
        impl $crate::FromJson for $name {
            fn from_json(v: &$crate::Value) -> $crate::Result<Self> {
                match v.as_str() {
                    $( Some(stringify!($variant)) => Ok($name::$variant), )+
                    _ => Err($crate::JsonError::new(concat!(
                        "unknown ", stringify!($name), " variant"
                    ))),
                }
            }
        }
    };
}

/// Implement [`ToJson`]/[`FromJson`] for an enum whose variants are unit
/// or single-payload tuples, serialized externally tagged
/// (`"Variant"` or `{"Variant": payload}`).
#[macro_export]
macro_rules! json_enum {
    ($name:ident { $($variant:ident $(($ty:ty))?),+ $(,)? }) => {
        impl $crate::ToJson for $name {
            fn to_json(&self) -> $crate::Value {
                $( $crate::json_enum!(@ser self, $name, $variant $(, $ty)?); )+
                unreachable!("non-exhaustive json_enum! for {}", stringify!($name))
            }
        }
        impl $crate::FromJson for $name {
            fn from_json(v: &$crate::Value) -> $crate::Result<Self> {
                $( $crate::json_enum!(@de v, $name, $variant $(, $ty)?); )+
                Err($crate::JsonError::new(concat!(
                    "unknown ", stringify!($name), " variant"
                )))
            }
        }
    };
    (@ser $self:ident, $name:ident, $variant:ident) => {
        if let $name::$variant = $self {
            return $crate::Value::Str(stringify!($variant).to_string());
        }
    };
    (@ser $self:ident, $name:ident, $variant:ident, $ty:ty) => {
        if let $name::$variant(payload) = $self {
            return $crate::Value::Object(vec![(
                stringify!($variant).to_string(),
                $crate::ToJson::to_json(payload),
            )]);
        }
    };
    (@de $v:ident, $name:ident, $variant:ident) => {
        if $v.as_str() == Some(stringify!($variant)) {
            return Ok($name::$variant);
        }
    };
    (@de $v:ident, $name:ident, $variant:ident, $ty:ty) => {
        if let Some(inner) = $v.get_variant(stringify!($variant)) {
            return Ok($name::$variant(<$ty as $crate::FromJson>::from_json(inner)?));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        for src in ["null", "true", "false", "0", "-1.5", "1e3", "\"a b\""] {
            let v = parse(src).unwrap();
            let back = parse(&v.to_string_compact()).unwrap();
            assert_eq!(v, back, "{src}");
        }
    }

    #[test]
    fn roundtrip_structures() {
        let src = r#"{"a": [1, 2, {"b": "x\ny", "c": null}], "d": true}"#;
        let v = parse(src).unwrap();
        assert_eq!(parse(&v.to_string_compact()).unwrap(), v);
        assert_eq!(parse(&v.to_string_pretty()).unwrap(), v);
    }

    #[test]
    fn parse_errors_do_not_panic() {
        for bad in [
            "", "{", "[1,", "{\"a\"}", "tru", "\"", "01x", "{\"a\":}", "[]]", "\u{0}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn deep_nesting_rejected() {
        let deep = "[".repeat(100_000);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(parse(r#""€""#).unwrap(), Value::Str("€".into()));
        assert_eq!(parse(r#""😀""#).unwrap(), Value::Str("😀".into()));
        // lone surrogate → replacement char, not a panic
        assert_eq!(parse(r#""\ud800""#).unwrap(), Value::Str("\u{FFFD}".into()));
    }

    #[test]
    fn strings_mix_runs_escapes_and_multibyte_chars() {
        let src = r#""plain é∞😀\n\"q\" \\ \u00e9x\ud83d\ude00 tail ünï""#;
        let want = "plain é∞😀\n\"q\" \\ éx😀 tail ünï";
        assert_eq!(parse(src).unwrap(), Value::Str(want.into()));
        let v = Value::Str(want.into());
        assert_eq!(parse(&v.to_string_compact()).unwrap(), v);
        assert!(parse("\"ünterminated").is_err());
    }

    #[test]
    fn float_roundtrip_is_exact() {
        for x in [0.1, 1.0 / 3.0, 1e-300, 123456789.123456, f64::MAX] {
            let s = Value::Num(x).to_string_compact();
            let back = parse(&s).unwrap().as_f64().unwrap();
            assert_eq!(back, x, "{s}");
        }
    }

    #[test]
    fn nonfinite_becomes_null() {
        assert_eq!(Value::Num(f64::NAN).to_string_compact(), "null");
        assert_eq!(Value::Num(f64::INFINITY).to_string_compact(), "null");
        assert!(f64::from_json(&Value::Null).unwrap().is_nan());
    }

    #[derive(Debug, PartialEq)]
    struct Pt {
        x: f64,
        y: usize,
        label: String,
        tags: Vec<String>,
        next: Option<f64>,
    }
    json_struct!(Pt {
        x,
        y,
        label,
        tags,
        next
    });

    #[test]
    fn struct_macro_roundtrip() {
        let p = Pt {
            x: 1.5,
            y: 3,
            label: "a\"b".into(),
            tags: vec!["t".into()],
            next: None,
        };
        let s = to_string(&p);
        let back: Pt = from_str(&s).unwrap();
        assert_eq!(back, p);
    }

    #[derive(Debug, PartialEq)]
    enum Color {
        Red,
        Green,
    }
    json_unit_enum!(Color { Red, Green });

    #[derive(Debug, PartialEq)]
    enum Shape {
        Point,
        Circle(f64),
        Label(String),
    }
    json_enum!(Shape { Point, Circle(f64), Label(String) });

    #[test]
    fn enum_macros_roundtrip() {
        for c in [Color::Red, Color::Green] {
            let s = to_string(&c);
            assert_eq!(from_str::<Color>(&s).unwrap(), c);
        }
        for sh in [Shape::Point, Shape::Circle(2.5), Shape::Label("x".into())] {
            let s = to_string(&sh);
            assert_eq!(from_str::<Shape>(&s).unwrap(), sh);
        }
        assert!(from_str::<Color>("\"Blue\"").is_err());
    }

    #[test]
    fn missing_field_reports_name() {
        let err = from_str::<Pt>("{\"x\": 1}").unwrap_err();
        assert!(err.to_string().contains('y'), "{err}");
    }
}
