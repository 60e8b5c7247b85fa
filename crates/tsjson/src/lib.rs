//! JSON for the workspace: a value model, a strict parser, compact and
//! pretty printers, `Serialize`/`Deserialize` traits with derive macros,
//! and a small `json!` literal macro.
//!
//! A dependency-free replacement for the `serde` + `serde_json` subset this
//! repository uses. Encoding conventions match serde's defaults so existing
//! model files keep their shape:
//!
//! - structs -> objects in field order; newtype structs -> the inner value;
//!   tuple structs/tuples -> arrays;
//! - enums externally tagged: unit variants as `"Name"`, data variants as
//!   `{"Name": ...}`;
//! - non-finite floats serialise as `null`, and `null` deserialises into a
//!   float as NaN (round-tripping missing-value sentinels);
//! - floats print with the shortest representation that round-trips (std's
//!   float formatting), integers as integers.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

mod parser;

pub use tsjson_derive::{Deserialize, Serialize};

/// A parse or decode error.
#[derive(Debug, Clone)]
pub struct Error(String);

impl Error {
    pub fn msg(m: impl Into<String>) -> Error {
        Error(m.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// A JSON number: integers keep their integer identity, like serde_json.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    U(u64),
    I(i64),
    F(f64),
}

impl Number {
    pub fn as_f64(&self) -> f64 {
        match *self {
            Number::U(v) => v as f64,
            Number::I(v) => v as f64,
            Number::F(v) => v,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Number::U(v) => Some(v),
            Number::I(v) => u64::try_from(v).ok(),
            Number::F(_) => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Number::U(v) => i64::try_from(v).ok(),
            Number::I(v) => Some(v),
            Number::F(_) => None,
        }
    }
}

/// An object: key/value pairs in insertion order (duplicate keys keep the
/// first occurrence on lookup).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Map {
    entries: Vec<(String, Value)>,
}

impl Map {
    pub fn new() -> Map {
        Map::default()
    }

    pub fn insert(&mut self, key: String, value: Value) {
        self.entries.push((key, value));
    }

    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

/// Any JSON document.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    #[default]
    Null,
    Bool(bool),
    Num(Number),
    Str(String),
    Arr(Vec<Value>),
    Obj(Map),
}

impl Value {
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) => n.as_u64(),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Num(n) => n.as_i64(),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Num(_) => "number",
            Value::Str(_) => "string",
            Value::Arr(_) => "array",
            Value::Obj(_) => "object",
        }
    }
}

static NULL: Value = Value::Null;

impl std::ops::Index<&str> for Value {
    type Output = Value;
    /// Missing keys (or non-objects) index to `Null`, as in serde_json.
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        match self {
            Value::Arr(a) => a.get(i).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        write_compact(self, &mut out);
        f.write_str(&out)
    }
}

// ---------------------------------------------------------------------------
// Printing

/// Appends `s` to `out` as a JSON string literal, quotes included.
pub fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_number(n: &Number, out: &mut String) {
    match *n {
        Number::U(v) => out.push_str(&v.to_string()),
        Number::I(v) => out.push_str(&v.to_string()),
        Number::F(v) if v.is_finite() => {
            // std float Display is shortest-round-trip; keep a trailing
            // ".0" so floats re-parse as floats.
            let s = v.to_string();
            out.push_str(&s);
            if !s.contains(['.', 'e', 'E']) {
                out.push_str(".0");
            }
        }
        Number::F(_) => out.push_str("null"),
    }
}

fn write_compact(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Num(n) => write_number(n, out),
        Value::Str(s) => write_escaped(s, out),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(item, out);
            }
            out.push(']');
        }
        Value::Obj(map) => {
            out.push('{');
            for (i, (k, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(k, out);
                out.push(':');
                write_compact(item, out);
            }
            out.push('}');
        }
    }
}

fn write_pretty(v: &Value, indent: usize, out: &mut String) {
    const STEP: usize = 2;
    match v {
        Value::Arr(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&" ".repeat(indent + STEP));
                write_pretty(item, indent + STEP, out);
            }
            out.push('\n');
            out.push_str(&" ".repeat(indent));
            out.push(']');
        }
        Value::Obj(map) if !map.is_empty() => {
            out.push_str("{\n");
            for (i, (k, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&" ".repeat(indent + STEP));
                write_escaped(k, out);
                out.push_str(": ");
                write_pretty(item, indent + STEP, out);
            }
            out.push('\n');
            out.push_str(&" ".repeat(indent));
            out.push('}');
        }
        other => write_compact(other, out),
    }
}

// ---------------------------------------------------------------------------
// Entry points

/// Serialises to compact JSON. Never actually fails; the `Result` mirrors
/// serde_json's signature at existing call sites.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_compact(&value.to_value(), &mut out);
    Ok(out)
}

/// Serialises to pretty-printed JSON bytes (2-space indent).
pub fn to_vec_pretty<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, Error> {
    let mut out = String::new();
    write_pretty(&value.to_value(), 0, &mut out);
    Ok(out.into_bytes())
}

/// Parses a complete JSON document and decodes it.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    T::from_value(&parser::parse(s)?)
}

/// Parses a UTF-8 JSON document from bytes and decodes it.
pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T, Error> {
    let s = std::str::from_utf8(bytes).map_err(|e| Error::msg(format!("invalid UTF-8: {e}")))?;
    from_str(s)
}

/// Decodes an already-parsed value.
pub fn from_value<T: Deserialize>(v: Value) -> Result<T, Error> {
    T::from_value(&v)
}

// ---------------------------------------------------------------------------
// Traits

/// Conversion into a JSON [`Value`].
pub trait Serialize {
    fn to_value(&self) -> Value;
}

/// Conversion from a JSON [`Value`].
pub trait Deserialize: Sized {
    fn from_value(v: &Value) -> Result<Self, Error>;
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Value, Error> {
        Ok(v.clone())
    }
}

fn expected(what: &str, got: &Value) -> Error {
    Error::msg(format!("expected {what}, got {}", got.kind()))
}

macro_rules! ser_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Num(Number::U(*self as u64))
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<$t, Error> {
                let n = v.as_u64().ok_or_else(|| expected("unsigned integer", v))?;
                <$t>::try_from(n).map_err(|_| Error::msg(format!(
                    "integer {n} out of range for {}", stringify!($t)
                )))
            }
        }
    )*};
}

macro_rules! ser_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let v = *self as i64;
                if v >= 0 {
                    Value::Num(Number::U(v as u64))
                } else {
                    Value::Num(Number::I(v))
                }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<$t, Error> {
                let n = v.as_i64().ok_or_else(|| expected("integer", v))?;
                <$t>::try_from(n).map_err(|_| Error::msg(format!(
                    "integer {n} out of range for {}", stringify!($t)
                )))
            }
        }
    )*};
}

ser_unsigned!(u8, u16, u32, u64, usize);
ser_signed!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Num(Number::F(*self))
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<f64, Error> {
        match v {
            Value::Num(n) => Ok(n.as_f64()),
            // Non-finite floats serialise as null; read them back as NaN.
            Value::Null => Ok(f64::NAN),
            other => Err(expected("number", other)),
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Num(Number::F(*self as f64))
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<f32, Error> {
        f64::from_value(v).map(|f| f as f32)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<bool, Error> {
        v.as_bool().ok_or_else(|| expected("bool", v))
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<String, Error> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| expected("string", v))
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Vec<T>, Error> {
        v.as_array()
            .ok_or_else(|| expected("array", v))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Option<T>, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for Arc<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Arc<T> {
    fn from_value(v: &Value) -> Result<Arc<T>, Error> {
        T::from_value(v).map(Arc::new)
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Box<T>, Error> {
        T::from_value(v).map(Box::new)
    }
}

macro_rules! ser_tuple {
    ($(($($n:tt $t:ident),+)),+ $(,)?) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Arr(vec![$(self.$n.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let items = v.as_array().ok_or_else(|| expected("array (tuple)", v))?;
                let want = [$($n),+].len();
                if items.len() != want {
                    return Err(Error::msg(format!(
                        "expected array of {want}, got {}", items.len()
                    )));
                }
                Ok(($($t::from_value(&items[$n])?,)+))
            }
        }
    )+};
}

ser_tuple!(
    (0 A),
    (0 A, 1 B),
    (0 A, 1 B, 2 C),
    (0 A, 1 B, 2 C, 3 D),
);

impl Serialize for Duration {
    /// serde's `Duration` shape: `{"secs": u64, "nanos": u32}`.
    fn to_value(&self) -> Value {
        let mut m = Map::new();
        m.insert("secs".to_string(), self.as_secs().to_value());
        m.insert("nanos".to_string(), self.subsec_nanos().to_value());
        Value::Obj(m)
    }
}

impl Deserialize for Duration {
    fn from_value(v: &Value) -> Result<Duration, Error> {
        let secs = u64::from_value(&v["secs"])?;
        let nanos = u32::from_value(&v["nanos"])?;
        Ok(Duration::new(secs, nanos))
    }
}

// ---------------------------------------------------------------------------
// Support used by the derive macros (stable names, not for direct use).

#[doc(hidden)]
pub fn field<'v>(v: &'v Value, name: &str, ty: &str) -> Result<&'v Value, Error> {
    match v {
        Value::Obj(m) => Ok(m.get(name).unwrap_or(&NULL)),
        other => Err(Error::msg(format!(
            "expected object for {ty}, got {}",
            other.kind()
        ))),
    }
}

#[doc(hidden)]
pub fn tuple_item<'v>(v: &'v Value, idx: usize, len: usize, ty: &str) -> Result<&'v Value, Error> {
    let items = v
        .as_array()
        .ok_or_else(|| Error::msg(format!("expected array for {ty}, got {}", v.kind())))?;
    if items.len() != len {
        return Err(Error::msg(format!(
            "expected array of {len} for {ty}, got {}",
            items.len()
        )));
    }
    Ok(&items[idx])
}

#[doc(hidden)]
pub fn enum_tag<'v>(v: &'v Value, ty: &str) -> Result<(&'v str, &'v Value), Error> {
    match v {
        // Unit variants are bare strings.
        Value::Str(s) => Ok((s, &NULL)),
        // Data variants are single-key objects: {"Variant": payload}.
        Value::Obj(m) if m.len() == 1 => {
            let (k, payload) = m.iter().next().expect("len checked");
            Ok((k, payload))
        }
        other => Err(Error::msg(format!(
            "expected enum (string or single-key object) for {ty}, got {}",
            other.kind()
        ))),
    }
}

#[doc(hidden)]
pub fn unknown_variant(tag: &str, ty: &str) -> Error {
    Error::msg(format!("unknown variant {tag:?} for {ty}"))
}

/// Builds a [`Value`] from a JSON-shaped literal. Supports the subset the
/// workspace uses: object literals with string keys, array literals, and
/// any `Serialize` expression.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($item:expr),* $(,)? ]) => {
        $crate::Value::Arr(vec![$($crate::Serialize::to_value(&$item)),*])
    };
    ({ $($key:literal : $val:expr),* $(,)? }) => {{
        #[allow(unused_mut)]
        let mut map = $crate::Map::new();
        $(map.insert($key.to_string(), $crate::Serialize::to_value(&$val));)*
        $crate::Value::Obj(map)
    }};
    ($other:expr) => { $crate::Serialize::to_value(&$other) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        let escaped = |s: &str| {
            let mut out = String::new();
            write_escaped(s, &mut out);
            out
        };
        assert_eq!(escaped("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(escaped("\u{1}"), "\"\\u0001\"");
        assert_eq!(escaped("plain"), "\"plain\"");
    }

    #[test]
    fn scalar_roundtrips() {
        for v in ["null", "true", "false", "0", "-17", "3.5", "\"hi\\n\""] {
            let parsed: Value = from_str(v).unwrap();
            let back = to_string(&parsed).unwrap();
            let reparsed: Value = from_str(&back).unwrap();
            assert_eq!(parsed, reparsed, "{v}");
        }
    }

    #[test]
    fn object_preserves_order_and_indexing() {
        let v: Value = from_str(r#"{"b": 1, "a": [2, {"c": "x"}]}"#).unwrap();
        assert_eq!(v["b"].as_u64(), Some(1));
        assert_eq!(v["a"][1]["c"], "x");
        assert!(v["missing"].is_null());
        assert_eq!(to_string(&v).unwrap(), r#"{"b":1,"a":[2,{"c":"x"}]}"#);
    }

    #[test]
    fn floats_roundtrip_shortest() {
        for &f in &[0.1f64, 1.0 / 3.0, 1e-300, 2.5e17, -0.0, 123456.789] {
            let s = to_string(&f).unwrap();
            let back: f64 = from_str(&s).unwrap();
            assert_eq!(back.to_bits(), f.to_bits(), "{f} via {s}");
        }
    }

    #[test]
    fn nan_and_inf_become_null_and_back_to_nan() {
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
        assert_eq!(to_string(&f64::INFINITY).unwrap(), "null");
        let back: f64 = from_str("null").unwrap();
        assert!(back.is_nan());
        let v: Vec<f64> = from_str(&to_string(&vec![1.0, f64::NAN]).unwrap()).unwrap();
        assert_eq!(v[0], 1.0);
        assert!(v[1].is_nan());
    }

    #[test]
    fn option_and_tuple_shapes() {
        assert_eq!(to_string(&Some(3u32)).unwrap(), "3");
        assert_eq!(to_string(&None::<u32>).unwrap(), "null");
        let t: (u32, String) = from_str(r#"[7, "x"]"#).unwrap();
        assert_eq!(t, (7, "x".to_string()));
        assert!(from_str::<(u32, u32)>("[1]").is_err());
    }

    #[test]
    fn duration_uses_serde_shape() {
        let d = Duration::new(3, 250_000_000);
        let s = to_string(&d).unwrap();
        assert_eq!(s, r#"{"secs":3,"nanos":250000000}"#);
        assert_eq!(from_str::<Duration>(&s).unwrap(), d);
    }

    #[test]
    fn json_macro_builds_objects() {
        let v = json!({"kind": "tree", "n": 3u32, "items": [1u8, 2u8]});
        assert_eq!(v["kind"], "tree");
        assert_eq!(v["n"].as_u64(), Some(3));
        assert_eq!(v["items"].as_array().unwrap().len(), 2);
    }

    #[test]
    fn parse_errors_are_errors() {
        assert!(from_str::<Value>("not json").is_err());
        assert!(from_str::<Value>("{\"a\":}").is_err());
        assert!(from_str::<Value>("[1,]").is_err());
        assert!(from_str::<Value>("{} trailing").is_err());
        assert!(from_str::<u32>("-3").is_err());
        assert!(from_str::<u8>("300").is_err());
    }

    #[test]
    fn pretty_printer_is_reparseable() {
        let v: Value = from_str(r#"{"a": [1, 2], "b": {"c": null}}"#).unwrap();
        let pretty = String::from_utf8(to_vec_pretty(&v).unwrap()).unwrap();
        assert!(pretty.contains('\n'));
        assert_eq!(from_str::<Value>(&pretty).unwrap(), v);
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "line\nquote\"slash\\tab\tunicode\u{1F600}control\u{01}";
        let j = to_string(&s.to_string()).unwrap();
        assert_eq!(from_str::<String>(&j).unwrap(), s);
        // \u escapes, including surrogate pairs, parse too.
        assert_eq!(from_str::<String>(r#""é""#).unwrap(), "é");
        assert_eq!(from_str::<String>(r#""😀""#).unwrap(), "\u{1F600}");
    }

    #[test]
    fn big_u64_survives() {
        let n = u64::MAX;
        assert_eq!(from_str::<u64>(&to_string(&n).unwrap()).unwrap(), n);
    }
}
