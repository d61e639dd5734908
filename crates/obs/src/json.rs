//! The workspace's one JSON codec: a value tree with its writer and
//! parser, and [`record!`](crate::record), which declares a document
//! type once and derives its writer and its strict reader.
//!
//! It needs no serialization dependency. [`Value`] is the full JSON tree:
//! string escapes (`\uXXXX` with surrogate pairs), integers exact over the
//! `i64` and `u64` ranges, and a parser whose errors name the path of the
//! value they stop in (`unexpected end of input (at 'fits[0].table')`).
//!
//! # Documents
//!
//! Every document a workspace crate writes and reads back is a `record!`
//! declaration: the struct, and its JSON form with one key per field, in
//! field order. They are the run report
//! ([`RunReport`](crate::report::RunReport), with its
//! [`MetricsReport`](crate::metrics::MetricsReport)), the bench record
//! (`enmc_perf::bench::BenchRecord`), the fuzz reproducer
//! (`enmc_dram::fuzz::Reproducer`), the surrogate coefficient file
//! (`enmc_surrogate::CoeffFile`) and the harness table document
//! (`enmc_bench::report::Reporter`). A field's type picks its JSON form
//! through [`Field`]: `bool`, `u32`/`u64`/`usize` (the whole range), `f64`,
//! `String`, `Vec<T>` (a list), `[T; N]` (a list of exactly `N`),
//! `Vec<(String, T)>` (an object keyed by name), `Option<T>` (the key is
//! left out when `None`), [`Nullable<T>`] (written `null` when `None`) and
//! another record (a nested object).
//!
//! A record's reader rejects, naming the path (`schema`,
//! `deterministic.a`, `fits[0].hidden`, `requests[3].addr`):
//!
//! - a missing, mistyped, duplicated or undeclared key;
//! - a number that is not finite (`1e999`);
//! - an integer outside its field's type (`-1` for a `u64`,
//!   `4294967297` for a `u32`);
//! - whatever the record's own check refuses (a histogram whose bucket
//!   counts do not match its bounds, a coefficient table of the wrong
//!   size).
//!
//! So a document a reader accepts writes back to text that reads back
//! equal. Two writers format their JSON by hand and stay outside the
//! codec: [`export_chrome`](crate::trace::export_chrome) and
//! `enmc_tune::pareto::frontier_json`, whose checked-in fixtures pin
//! layouts (one event per line; pretty-printed) the compact writer lacks.
//!
//! # Example
//!
//! ```
//! use enmc_obs::json::{self, Value};
//!
//! enmc_obs::record! {
//!     /// One request.
//!     Request {
//!         /// Arrival cycle.
//!         at: u64,
//!         /// Byte address.
//!         addr: u64,
//!     }
//! }
//!
//! let text = json::encode(&Request { at: 3, addr: u64::MAX });
//! assert_eq!(text, r#"{"at":3,"addr":18446744073709551615}"#);
//! assert_eq!(json::decode::<Request>(&text).unwrap().addr, u64::MAX);
//! let err = json::decode::<Request>(r#"{"at":-1,"addr":0}"#).unwrap_err();
//! assert_eq!(err, "field 'at' is -1, outside u64");
//! assert_eq!(Value::parse(&text).unwrap().get("at").and_then(Value::as_u64), Some(3));
//! ```

use std::fmt::Display;

/// A JSON value.
///
/// Numbers keep an integer/float distinction so cycle counters survive a
/// round trip exactly; [`Value::as_f64`] widens every kind.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number written without fraction or exponent.
    Int(i64),
    /// An integer above `i64::MAX` that fits a `u64`; the parser makes one
    /// only there, so each integer has one representation.
    UInt(u64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up `key` in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a `u64` (non-negative exact integers only).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(i) => u64::try_from(*i).ok(),
            Value::UInt(u) => Some(*u),
            _ => None,
        }
    }

    /// The value as an `f64` (either numeric variant).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::UInt(u) => Some(*u as f64),
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as object pairs, if it is one.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Serializes the value to compact JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Int(i) => out.push_str(&i.to_string()),
            Value::UInt(u) => out.push_str(&u.to_string()),
            Value::Num(n) => write_f64(out, *n),
            Value::Str(s) => write_escaped(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Value::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses JSON text into a value tree.
    ///
    /// # Errors
    ///
    /// Returns a description with a byte offset on malformed input,
    /// naming the path of the value the fault is in
    /// (`unexpected end of input (at 'fits[0].table[1]')`).
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0, path: Vec::new() };
        p.parse_document().map_err(|e| match p.path.is_empty() {
            true => e,
            false => format!("{e} (at '{}')", p.render_path()),
        })
    }
}

/// Writes `n` as JSON (non-finite values become `null`, the only lossless
/// choice JSON offers).
fn write_f64(out: &mut String, n: f64) {
    if n.is_finite() {
        out.push_str(&n.to_string());
    } else {
        out.push_str("null");
    }
}

/// Appends `s` as a quoted, escaped JSON string.
pub fn write_escaped(out: &mut String, s: &str) {
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

const MAX_DEPTH: usize = 128;

/// One step of the path the parser is in.
enum Step {
    /// An object member: the byte range of its key, quotes excluded.
    Key(std::ops::Range<usize>),
    /// A list element.
    Index(usize),
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Where the value being read sits; errors return without popping, so
    /// on failure it names the value the fault is in.
    path: Vec<Step>,
}

impl<'a> Parser<'a> {
    fn render_path(&self) -> String {
        let mut out = String::new();
        for step in &self.path {
            match step {
                Step::Key(range) => {
                    if !out.is_empty() {
                        out.push('.');
                    }
                    out.push_str(&String::from_utf8_lossy(&self.bytes[range.clone()]));
                }
                Step::Index(i) => out.push_str(&format!("[{i}]")),
            }
        }
        out
    }

    fn parse_document(&mut self) -> Result<Value, String> {
        self.skip_ws();
        let v = self.parse_value(0)?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing characters at byte {}", self.pos));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' => self.pos += 1,
                _ => break,
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
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".to_string());
        }
        self.skip_ws();
        match self.peek() {
            None => Err("unexpected end of input".to_string()),
            Some(b'n') => {
                if self.eat_literal("null") {
                    Ok(Value::Null)
                } else {
                    Err(format!("invalid literal at byte {}", self.pos))
                }
            }
            Some(b't') => {
                if self.eat_literal("true") {
                    Ok(Value::Bool(true))
                } else {
                    Err(format!("invalid literal at byte {}", self.pos))
                }
            }
            Some(b'f') => {
                if self.eat_literal("false") {
                    Ok(Value::Bool(false))
                } else {
                    Err(format!("invalid literal at byte {}", self.pos))
                }
            }
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    self.path.push(Step::Index(items.len()));
                    items.push(self.parse_value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.pos += 1;
                        }
                        Some(b']') => {
                            self.pos += 1;
                            self.path.pop();
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
                    }
                    self.path.pop();
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    let start = self.pos + 1;
                    let key = self.parse_string()?;
                    self.path.push(Step::Key(start..self.pos - 1));
                    self.skip_ws();
                    self.expect(b':')?;
                    let value = self.parse_value(depth + 1)?;
                    pairs.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.pos += 1;
                        }
                        Some(b'}') => {
                            self.pos += 1;
                            self.path.pop();
                            return Ok(Value::Obj(pairs));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
                    }
                    self.path.pop();
                }
            }
            Some(_) => self.parse_number(),
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy the run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                // The input is valid UTF-8 and the run stops at an ASCII
                // boundary byte, so the slice is valid UTF-8 too.
                out.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| "invalid UTF-8 in string".to_string())?,
                );
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.parse_hex4()?;
                            let code = if (0xd800..=0xdbff).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must follow.
                                if !self.eat_literal("\\u") {
                                    return Err(format!(
                                        "lone high surrogate at byte {}",
                                        self.pos
                                    ));
                                }
                                let lo = self.parse_hex4()?;
                                if !(0xdc00..=0xdfff).contains(&lo) {
                                    return Err(format!(
                                        "invalid low surrogate at byte {}",
                                        self.pos
                                    ));
                                }
                                0x10000 + (((hi - 0xd800) << 10) | (lo - 0xdc00))
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| "invalid unicode escape".to_string())?,
                            );
                        }
                        _ => return Err(format!("unknown escape at byte {}", self.pos)),
                    }
                }
                Some(b) if b < 0x20 => {
                    return Err(format!("raw control character at byte {}", self.pos));
                }
                _ => return Err("unterminated string".to_string()),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, String> {
        if self.pos + 4 > self.bytes.len() {
            return Err("truncated \\u escape".to_string());
        }
        let slice = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| "invalid \\u escape".to_string())?;
        let v = u32::from_str_radix(slice, 16).map_err(|_| "invalid \\u escape".to_string())?;
        self.pos += 4;
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' | b'-' | b'+' => self.pos += 1,
                b'.' | b'e' | b'E' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        if self.pos == start {
            return Err(format!("expected a value at byte {start}"));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "invalid number".to_string())?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("invalid number '{text}' at byte {start}"))
    }
}

/// A value a document declares: its JSON form and the strict reader that
/// takes it back. [`record!`](crate::record) implements it for a
/// declared struct; the impls below cover the field types.
pub trait Field: Sized {
    /// The JSON form; `None` leaves the key out (an absent [`Option`]).
    fn to_value(&self) -> Option<Value>;
    /// Reads the value of the key at `path`; `v` is `None` when the key
    /// is absent. Errors name `path` (`fault.ber`, `requests[3].addr`).
    fn from_value(v: Option<&Value>, path: &str) -> Result<Self, String>;
}

/// Writes `doc` as compact JSON.
pub fn encode<T: Field>(doc: &T) -> String {
    doc.to_value().unwrap_or(Value::Null).to_json()
}

/// Parses `text` and reads it as a `T`.
///
/// # Errors
///
/// Returns the parse error, or the first field the reader rejects,
/// named by its path.
pub fn decode<T: Field>(text: &str) -> Result<T, String> {
    T::from_value(Some(&Value::parse(text)?), "")
}

/// The error for the value at `path`: `field '<path>' <what>`.
pub fn field_error(path: &str, what: impl Display) -> String {
    format!("field '{path}' {what}")
}

/// The path of `key` inside the object at `path`.
pub fn key_path(path: &str, key: &str) -> String {
    match path {
        "" => key.to_string(),
        _ => format!("{path}.{key}"),
    }
}

fn present<'v>(v: Option<&'v Value>, path: &str) -> Result<&'v Value, String> {
    v.ok_or_else(|| field_error(path, "is missing"))
}

fn not_a(path: &str, kind: &str) -> String {
    field_error(path, format_args!("is not {kind}"))
}

/// The members of the object at `path`, rejecting a key that appears
/// twice and, when `declared` is given, a key it does not list.
pub fn members<'v>(
    v: Option<&'v Value>,
    path: &str,
    declared: Option<&[&str]>,
) -> Result<&'v [(String, Value)], String> {
    let pairs = present(v, path)?.as_obj().ok_or_else(|| not_a(path, "an object"))?;
    let mut seen = std::collections::BTreeSet::new();
    for (key, _) in pairs {
        if !seen.insert(key.as_str()) {
            return Err(field_error(&key_path(path, key), "is duplicated"));
        }
        if declared.is_some_and(|names| !names.contains(&key.as_str())) {
            return Err(field_error(&key_path(path, key), "is not declared"));
        }
    }
    Ok(pairs)
}

macro_rules! integer {
    ($($ty:ty),*) => {$(
        impl Field for $ty {
            fn to_value(&self) -> Option<Value> {
                let n = *self as u64;
                Some(i64::try_from(n).map_or(Value::UInt(n), Value::Int))
            }
            fn from_value(v: Option<&Value>, path: &str) -> Result<Self, String> {
                let n = match present(v, path)? {
                    Value::Int(i) => i128::from(*i),
                    Value::UInt(u) => i128::from(*u),
                    _ => return Err(not_a(path, "an integer")),
                };
                <$ty>::try_from(n).map_err(|_| {
                    field_error(path, format_args!("is {n}, outside {}", stringify!($ty)))
                })
            }
        }
    )*};
}

integer!(u32, u64, usize);

impl Field for f64 {
    fn to_value(&self) -> Option<Value> {
        Some(Value::Num(*self))
    }
    fn from_value(v: Option<&Value>, path: &str) -> Result<Self, String> {
        match present(v, path)?.as_f64() {
            Some(x) if x.is_finite() => Ok(x),
            Some(_) => Err(not_a(path, "a finite number")),
            None => Err(not_a(path, "a number")),
        }
    }
}

impl Field for bool {
    fn to_value(&self) -> Option<Value> {
        Some(Value::Bool(*self))
    }
    fn from_value(v: Option<&Value>, path: &str) -> Result<Self, String> {
        present(v, path)?.as_bool().ok_or_else(|| not_a(path, "a bool"))
    }
}

impl Field for String {
    fn to_value(&self) -> Option<Value> {
        Some(Value::Str(self.clone()))
    }
    fn from_value(v: Option<&Value>, path: &str) -> Result<Self, String> {
        present(v, path)?.as_str().map(str::to_string).ok_or_else(|| not_a(path, "a string"))
    }
}

impl<T: Field> Field for Vec<T> {
    fn to_value(&self) -> Option<Value> {
        Some(Value::Arr(self.iter().filter_map(Field::to_value).collect()))
    }
    fn from_value(v: Option<&Value>, path: &str) -> Result<Self, String> {
        let items = present(v, path)?.as_arr().ok_or_else(|| not_a(path, "a list"))?;
        let at = |(i, item)| T::from_value(Some(item), &format!("{path}[{i}]"));
        items.iter().enumerate().map(at).collect()
    }
}

impl<T: Field, const N: usize> Field for [T; N] {
    fn to_value(&self) -> Option<Value> {
        Some(Value::Arr(self.iter().filter_map(Field::to_value).collect()))
    }
    fn from_value(v: Option<&Value>, path: &str) -> Result<Self, String> {
        let items: Vec<T> = Field::from_value(v, path)?;
        let len = items.len();
        items
            .try_into()
            .map_err(|_| field_error(path, format_args!("has {len} values, expected {N}")))
    }
}

/// An object keyed by name, in member order.
impl<T: Field> Field for Vec<(String, T)> {
    fn to_value(&self) -> Option<Value> {
        let pair = |(k, v): &(String, T)| Some((k.clone(), v.to_value()?));
        Some(Value::Obj(self.iter().filter_map(pair).collect()))
    }
    fn from_value(v: Option<&Value>, path: &str) -> Result<Self, String> {
        let read =
            |(k, v): &(String, Value)| Ok((k.clone(), T::from_value(Some(v), &key_path(path, k))?));
        members(v, path, None)?.iter().map(read).collect()
    }
}

/// Left out when `None`; `null` is not accepted for it.
impl<T: Field> Field for Option<T> {
    fn to_value(&self) -> Option<Value> {
        self.as_ref().and_then(Field::to_value)
    }
    fn from_value(v: Option<&Value>, path: &str) -> Result<Self, String> {
        v.map(|v| T::from_value(Some(v), path)).transpose()
    }
}

/// An optional value whose key is always written: `null` when `None`,
/// where an [`Option`] field leaves its key out.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Nullable<T>(pub Option<T>);

impl<T: Field> Field for Nullable<T> {
    fn to_value(&self) -> Option<Value> {
        Some(self.0.as_ref().and_then(Field::to_value).unwrap_or(Value::Null))
    }
    fn from_value(v: Option<&Value>, path: &str) -> Result<Self, String> {
        match present(v, path)? {
            Value::Null => Ok(Nullable(None)),
            v => T::from_value(Some(v), path).map(|t| Nullable(Some(t))),
        }
    }
}

/// Declares a document object: the struct, and its [`Field`] impl with
/// one key per field, in field order.
///
/// The reader rejects a missing, mistyped, duplicated or undeclared key.
/// An optional `check PATH` names a `fn(&Self, path: &str) -> Result<(),
/// String>` run on the decoded value, for what the field types cannot
/// say (a length that must match another field's); its errors should
/// name their path with [`key_path`](crate::json::key_path) and
/// [`field_error`](crate::json::field_error). Extra derives go in the
/// outer attributes (`#[derive(Copy, Eq)]`).
#[macro_export]
macro_rules! record {
    (
        $(#[$meta:meta])*
        $name:ident { $($(#[$fmeta:meta])* $field:ident: $ty:ty,)* }
        $(check $check:path)?
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Default, PartialEq)]
        pub struct $name {
            $($(#[$fmeta])* pub $field: $ty,)*
        }

        impl $crate::json::Field for $name {
            fn to_value(&self) -> Option<$crate::json::Value> {
                let mut pairs = Vec::new();
                $(if let Some(v) = $crate::json::Field::to_value(&self.$field) {
                    pairs.push((stringify!($field).to_string(), v));
                })*
                Some($crate::json::Value::Obj(pairs))
            }
            fn from_value(
                v: Option<&$crate::json::Value>,
                path: &str,
            ) -> Result<Self, String> {
                let pairs = $crate::json::members(v, path, Some(&[$(stringify!($field)),*]))?;
                let get = |key: &str| pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v);
                let doc = $name {
                    $($field: $crate::json::Field::from_value(
                        get(stringify!($field)),
                        &$crate::json::key_path(path, stringify!($field)),
                    )?,)*
                };
                $($check(&doc, path)?;)?
                Ok(doc)
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars() {
        for text in ["null", "true", "false", "0", "-17", "3.5"] {
            let v = Value::parse(text).unwrap();
            assert_eq!(v.to_json(), text);
        }
    }

    #[test]
    fn integers_stay_exact() {
        let v = Value::parse("9007199254740993").unwrap();
        assert_eq!(v, Value::Int(9007199254740993));
        assert_eq!(v.to_json(), "9007199254740993");
        // The whole u64 range, then only a float.
        let max = Value::parse("18446744073709551615").unwrap();
        assert_eq!(max, Value::UInt(u64::MAX));
        assert_eq!(max.to_json(), "18446744073709551615");
        assert_eq!(Value::parse("9223372036854775807").unwrap(), Value::Int(i64::MAX));
        assert_eq!(
            Value::parse("18446744073709551616").unwrap(),
            Value::Num(1.8446744073709552e19)
        );
        assert_eq!(encode(&u64::MAX), "18446744073709551615");
    }

    #[test]
    fn parses_nested_structures() {
        let v = Value::parse(r#"{"a":[1,2,{"b":null}],"c":"x"}"#).unwrap();
        assert_eq!(v.get("c").and_then(Value::as_str), Some("x"));
        let arr = v.get("a").and_then(Value::as_arr).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].get("b"), Some(&Value::Null));
    }

    #[test]
    fn escapes_round_trip() {
        let s = "quote \" backslash \\ newline \n tab \t unicode \u{1F600} ctrl \u{0001}";
        let v = Value::Str(s.to_string());
        let back = Value::parse(&v.to_json()).unwrap();
        assert_eq!(back.as_str(), Some(s));
    }

    #[test]
    fn parses_unicode_escapes_and_surrogates() {
        let v = Value::parse(r#""\u0041\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("A\u{1F600}"));
    }

    #[test]
    fn rejects_malformed_input() {
        for text in ["", "{", "[1,", "\"abc", "{\"a\":}", "tru", "1 2", "\"\\u12\""] {
            assert!(Value::parse(text).is_err(), "accepted {text:?}");
        }
    }

    #[test]
    fn errors_name_the_path_of_the_fault() {
        let err = Value::parse(r#"{"a":1,"ns_per_cycle":NaN}"#).unwrap_err();
        assert!(err.contains("(at 'ns_per_cycle')"), "{err}");
        let err = Value::parse(r#"{"fits":[{"table":[[1,"#).unwrap_err();
        assert!(err.contains("(at 'fits[0].table[0][1]')"), "{err}");
        let err = Value::parse(r#"{"a":{"b":2"#).unwrap_err();
        assert!(err.contains("(at 'a.b')"), "{err}");
        assert!(Value::parse("[1,").unwrap_err().contains("(at '[1]')"));
        assert!(!Value::parse("").unwrap_err().contains("(at '"));
        assert!(!Value::parse(r#"{"a":[1],"b":2} x"#).unwrap_err().contains("(at '"));
    }

    crate::record! {
        /// A record using every field kind.
        Sample {
            small: u32,
            big: u64,
            x: f64,
            on: bool,
            tag: Nullable<String>,
            extra: Option<String>,
            pair: [f64; 2],
            named: Vec<(String, f64)>,
        }
    }

    fn sample() -> Sample {
        Sample {
            small: 7,
            big: u64::MAX,
            x: 0.5,
            on: true,
            pair: [1.0, 2.5],
            named: vec![("b".into(), 1.0), ("a".into(), -2.0)],
            ..Sample::default()
        }
    }

    #[test]
    fn readers_reject_and_name_the_path() {
        let good = encode(&sample());
        assert_eq!(decode::<Sample>(&good).unwrap(), sample());
        for (from, to, want) in [
            (r#""small":7"#, r#""small":4294967297"#, "'small' is 4294967297, outside u32"),
            (r#""big":18446744073709551615"#, r#""big":-1"#, "'big' is -1, outside u64"),
            (r#""x":0.5"#, r#""x":1e999"#, "'x' is not a finite number"),
            (r#""x":0.5"#, r#""x":"0.5""#, "'x' is not a number"),
            (r#""x":0.5"#, r#""x":0.5,"x":0.5"#, "'x' is duplicated"),
            (r#""x":0.5"#, r#""y":0.5"#, "'y' is not declared"),
            (r#""on":true,"#, "", "'on' is missing"),
            (r#""on":true"#, r#""on":1"#, "'on' is not a bool"),
            (r#""tag":null,"#, "", "'tag' is missing"),
            (r#""tag":null"#, r#""tag":5"#, "'tag' is not a string"),
            (r#""tag":null"#, r#""tag":null,"extra":null"#, "'extra' is not a string"),
            (r#""pair":[1,2.5]"#, r#""pair":[1]"#, "'pair' has 1 values, expected 2"),
            (r#""a":-2"#, r#""b":-2"#, "'named.b' is duplicated"),
            (r#""a":-2"#, r#""a":null"#, "'named.a' is not a number"),
            (r#""named":{"b":1,"a":-2}"#, r#""named":[1]"#, "'named' is not an object"),
        ] {
            assert!(good.contains(from), "{from} not in {good}");
            let err = decode::<Sample>(&good.replacen(from, to, 1)).unwrap_err();
            assert!(err.contains(want), "{to}: {err}");
        }
        let err = decode::<Sample>(&good[..good.len() / 2]).unwrap_err();
        assert!(err.contains("(at '"), "{err}");
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v = Value::parse(" { \"a\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(v.get("a").and_then(Value::as_arr).map(<[Value]>::len), Some(2));
    }

    #[test]
    fn non_finite_floats_write_null() {
        assert_eq!(Value::Num(f64::NAN).to_json(), "null");
        assert_eq!(Value::Num(f64::INFINITY).to_json(), "null");
    }

    #[test]
    fn object_get_on_non_object_is_none() {
        assert!(Value::Arr(vec![]).get("k").is_none());
    }
}
