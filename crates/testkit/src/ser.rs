//! A small JSON model: value enum, serializer with escaping, and a
//! recursive-descent parser, plus the [`ToJson`]/[`FromJson`] trait
//! pair that replaces derive-based serialization across the workspace.
//!
//! Design points:
//!
//! * Integers and floats are distinct ([`Json::Int`] vs
//!   [`Json::Float`]): a number renders with a decimal point or
//!   exponent iff it is a float, so values round-trip without loss
//!   (`u64`/`i64` ticks and ids never pass through an `f64`).
//! * Non-finite floats are rejected at render time (JSON has no
//!   `NaN`/`Infinity`), and the parser rejects them symmetrically.
//! * Objects preserve insertion order (`Vec` of pairs), so rendering
//!   is deterministic.
//!
//! Enum representation mirrors the externally-tagged convention:
//! a unit variant is `"Name"`, a payload variant is
//! `{"Name": <payload>}` (single payload inline, multiple as an
//! array, named fields as an object).  The [`json_struct!`](crate::json_struct) and
//! [`json_enum!`](crate::json_enum) macros generate these impls for plain structs and
//! enums; types with invariants (normalization, skipped fields) write
//! the impls by hand.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number without fractional part, e.g. `42`.
    Int(i64),
    /// A number with a fractional part or exponent, e.g. `2.5`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (insertion-ordered).
    Obj(Vec<(String, Json)>),
}

/// Errors from rendering, parsing, or decoding.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonError {
    /// Rendering hit a non-finite float.
    NonFiniteFloat,
    /// Parse error with byte offset.
    Parse {
        /// What went wrong.
        message: String,
        /// Byte offset in the input.
        offset: usize,
    },
    /// A decoded value did not have the expected shape.
    Decode(String),
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::NonFiniteFloat => {
                write!(f, "cannot serialize a non-finite float as JSON")
            }
            JsonError::Parse { message, offset } => {
                write!(f, "JSON parse error at byte {offset}: {message}")
            }
            JsonError::Decode(m) => write!(f, "JSON decode error: {m}"),
        }
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Field lookup on an object; errors on non-objects and missing
    /// keys.
    pub fn field(&self, name: &str) -> Result<&Json, JsonError> {
        match self {
            Json::Obj(entries) => entries
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| JsonError::Decode(format!("missing field `{name}`"))),
            other => Err(JsonError::Decode(format!(
                "expected object with field `{name}`, got {}",
                other.kind()
            ))),
        }
    }

    /// The elements of an array; errors on non-arrays.
    pub fn as_arr(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Arr(v) => Ok(v),
            other => Err(JsonError::Decode(format!("expected array, got {}", other.kind()))),
        }
    }

    /// A short name for the value's kind (for error messages).
    pub fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Int(_) => "int",
            Json::Float(_) => "float",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    // -- rendering ---------------------------------------------------------

    /// Renders to compact JSON text.  Errors on non-finite floats.
    pub fn render(&self) -> Result<String, JsonError> {
        let mut out = String::new();
        self.render_into(&mut out)?;
        Ok(out)
    }

    fn render_into(&self, out: &mut String) -> Result<(), JsonError> {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(v) => {
                out.push_str(&v.to_string());
            }
            Json::Float(v) => {
                if !v.is_finite() {
                    return Err(JsonError::NonFiniteFloat);
                }
                // `{:?}` prints the shortest representation that
                // round-trips, always including `.0` for integral
                // floats — exactly the property that keeps Float and
                // Int distinguishable in the text.
                let s = format!("{v:?}");
                out.push_str(&s);
            }
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out)?;
                }
                out.push(']');
            }
            Json::Obj(entries) => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out)?;
                }
                out.push('}');
            }
        }
        Ok(())
    }

    // -- parsing -----------------------------------------------------------

    /// Parses JSON text.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(v)
    }
}

fn render_string(s: &str, out: &mut String) {
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

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError::Parse { message: message.into(), offset: self.pos }
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
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        let v = match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }?;
        self.depth -= 1;
        Ok(v)
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
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(entries));
                }
                _ => return Err(self.err("expected `,` or `}`")),
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
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0C}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code =
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                char::from_u32(hi)
                                    .ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("unescaped control character")),
                Some(_) => {
                    // Consume the run up to the next quote, escape or
                    // control byte in one step.  All three are ASCII and the
                    // input is a `&str`, so the run starts and ends on
                    // character boundaries — and only the run is validated,
                    // never the rest of the document.
                    let start = self.pos;
                    while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(run);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = self
                .peek()
                .and_then(|b| (b as char).to_digit(16))
                .ok_or_else(|| self.err("expected 4 hex digits"))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            return Err(self.err("expected digit"));
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("expected digit after `.`"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("expected digit in exponent"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !is_float {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::Int(v));
            }
            // Integer literal out of i64 range: fall through to float.
        }
        let v: f64 = text.parse().map_err(|_| self.err("invalid number"))?;
        if !v.is_finite() {
            return Err(self.err("number out of range"));
        }
        Ok(Json::Float(v))
    }
}

// ---------------------------------------------------------------------------
// ToJson / FromJson
// ---------------------------------------------------------------------------

/// Conversion into the JSON model.
pub trait ToJson {
    /// The JSON form of `self`.
    fn to_json(&self) -> Json;
}

/// Conversion from the JSON model.
pub trait FromJson: Sized {
    /// Decodes a value, validating shape and invariants.
    fn from_json(j: &Json) -> Result<Self, JsonError>;
}

/// Serializes a value to compact JSON text.
pub fn to_json_string<T: ToJson + ?Sized>(value: &T) -> Result<String, JsonError> {
    value.to_json().render()
}

/// Parses JSON text and decodes it into `T`.
pub fn from_json_str<T: FromJson>(text: &str) -> Result<T, JsonError> {
    T::from_json(&Json::parse(text)?)
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}
impl FromJson for Json {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(j.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}
impl FromJson for bool {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j {
            Json::Bool(b) => Ok(*b),
            other => Err(JsonError::Decode(format!("expected bool, got {}", other.kind()))),
        }
    }
}

macro_rules! impl_json_int {
    ($($t:ty),+) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Int(*self as i64)
            }
        }
        impl FromJson for $t {
            fn from_json(j: &Json) -> Result<Self, JsonError> {
                match j {
                    Json::Int(v) => <$t>::try_from(*v).map_err(|_| {
                        JsonError::Decode(format!(
                            "integer {v} out of range for {}", stringify!($t)
                        ))
                    }),
                    other => Err(JsonError::Decode(format!(
                        "expected integer, got {}", other.kind()
                    ))),
                }
            }
        }
    )+};
}
impl_json_int!(i8, i16, i32, i64, u8, u16, u32, usize);

// `u64` ticks and ids must survive even above i64::MAX; values that
// large render as their decimal digits via a checked cast.
impl ToJson for u64 {
    fn to_json(&self) -> Json {
        match i64::try_from(*self) {
            Ok(v) => Json::Int(v),
            // Out of i64 range: keep the exact digits in a string.
            Err(_) => Json::Str(self.to_string()),
        }
    }
}
impl FromJson for u64 {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j {
            Json::Int(v) => u64::try_from(*v)
                .map_err(|_| JsonError::Decode(format!("integer {v} is negative"))),
            Json::Str(s) => s
                .parse()
                .map_err(|_| JsonError::Decode(format!("bad u64 string `{s}`"))),
            other => Err(JsonError::Decode(format!("expected integer, got {}", other.kind()))),
        }
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }
}
impl FromJson for f64 {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j {
            Json::Float(v) => Ok(*v),
            Json::Int(v) => Ok(*v as f64),
            other => Err(JsonError::Decode(format!("expected number, got {}", other.kind()))),
        }
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}
impl FromJson for String {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j {
            Json::Str(s) => Ok(s.clone()),
            other => Err(JsonError::Decode(format!("expected string, got {}", other.kind()))),
        }
    }
}
impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_owned())
    }
}

impl<T: ToJson> ToJson for Box<T> {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}
impl<T: FromJson> FromJson for Box<T> {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        T::from_json(j).map(Box::new)
    }
}

// A shared value encodes as the value itself: sharing is an in-memory
// property, not part of the persisted form.
impl<T: ToJson> ToJson for std::sync::Arc<T> {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}
impl<T: FromJson> FromJson for std::sync::Arc<T> {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        T::from_json(j).map(std::sync::Arc::new)
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            None => Json::Null,
            Some(v) => v.to_json(),
        }
    }
}
impl<T: FromJson> FromJson for Option<T> {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}
impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        j.as_arr()?.iter().map(T::from_json).collect()
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}
impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j.as_arr()? {
            [a, b] => Ok((A::from_json(a)?, B::from_json(b)?)),
            arr => Err(JsonError::Decode(format!("expected pair, got {} elements", arr.len()))),
        }
    }
}

/// Map keys encodable as JSON object keys.
pub trait JsonKey: Ord + Sized {
    /// The key's string form.
    fn to_key(&self) -> String;
    /// Parses the string form back.
    fn from_key(s: &str) -> Result<Self, JsonError>;
}
impl JsonKey for String {
    fn to_key(&self) -> String {
        self.clone()
    }
    fn from_key(s: &str) -> Result<Self, JsonError> {
        Ok(s.to_owned())
    }
}
impl JsonKey for u64 {
    fn to_key(&self) -> String {
        self.to_string()
    }
    fn from_key(s: &str) -> Result<Self, JsonError> {
        s.parse().map_err(|_| JsonError::Decode(format!("bad numeric key `{s}`")))
    }
}

impl<K: JsonKey, V: ToJson> ToJson for BTreeMap<K, V> {
    fn to_json(&self) -> Json {
        Json::Obj(self.iter().map(|(k, v)| (k.to_key(), v.to_json())).collect())
    }
}
impl<K: JsonKey, V: FromJson> FromJson for BTreeMap<K, V> {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j {
            Json::Obj(entries) => entries
                .iter()
                .map(|(k, v)| Ok((K::from_key(k)?, V::from_json(v)?)))
                .collect(),
            other => Err(JsonError::Decode(format!("expected object, got {}", other.kind()))),
        }
    }
}

// ---------------------------------------------------------------------------
// Derive-replacement macros
// ---------------------------------------------------------------------------

/// Generates [`ToJson`]/[`FromJson`] for a struct with named fields:
/// `json_struct!(Point { x, y });`.  Invoke inside the defining module
/// so private fields are reachable.
#[macro_export]
macro_rules! json_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::ser::ToJson for $ty {
            fn to_json(&self) -> $crate::ser::Json {
                $crate::ser::Json::Obj(vec![
                    $( (stringify!($field).to_owned(),
                        $crate::ser::ToJson::to_json(&self.$field)) ),+
                ])
            }
        }
        impl $crate::ser::FromJson for $ty {
            fn from_json(j: &$crate::ser::Json) -> Result<Self, $crate::ser::JsonError> {
                Ok($ty {
                    $( $field: $crate::ser::FromJson::from_json(
                        j.field(stringify!($field))?)? ),+
                })
            }
        }
    };
}

/// Generates [`ToJson`]/[`FromJson`] for an enum in the
/// externally-tagged representation.  Unit variants are written bare,
/// tuple variants list binder names, struct variants list field names:
///
/// ```ignore
/// json_enum!(Shape {
///     Empty,
///     Circle(radius),
///     Segment(from, to),
///     Rect { w, h },
/// });
/// ```
#[macro_export]
macro_rules! json_enum {
    ($ty:ident { $($variant:ident $(( $($tuple:ident),+ ))? $({ $($field:ident),+ })?),+ $(,)? }) => {
        impl $crate::ser::ToJson for $ty {
            fn to_json(&self) -> $crate::ser::Json {
                match self {
                    $(
                        $ty::$variant $(( $($tuple),+ ))? $({ $($field),+ })? => {
                            $crate::json_enum!(@ser $variant $(( $($tuple),+ ))? $({ $($field),+ })?)
                        }
                    )+
                }
            }
        }
        impl $crate::ser::FromJson for $ty {
            fn from_json(j: &$crate::ser::Json) -> Result<Self, $crate::ser::JsonError> {
                match j {
                    $crate::ser::Json::Str(s) => {
                        $( $crate::json_enum!(@from_str $ty $variant s $(( $($tuple),+ ))? $({ $($field),+ })?); )+
                        Err($crate::ser::JsonError::Decode(format!(
                            "unknown {} variant `{s}`", stringify!($ty)
                        )))
                    }
                    $crate::ser::Json::Obj(entries) if entries.len() == 1 => {
                        let (key, payload) = &entries[0];
                        $( $crate::json_enum!(@from_obj $ty $variant key payload $(( $($tuple),+ ))? $({ $($field),+ })?); )+
                        Err($crate::ser::JsonError::Decode(format!(
                            "unknown {} variant `{key}`", stringify!($ty)
                        )))
                    }
                    other => Err($crate::ser::JsonError::Decode(format!(
                        "expected {} (string or single-key object), got {}",
                        stringify!($ty), other.kind()
                    ))),
                }
            }
        }
    };

    // --- serialization arms ------------------------------------------------
    (@ser $variant:ident) => {
        $crate::ser::Json::Str(stringify!($variant).to_owned())
    };
    (@ser $variant:ident ($single:ident)) => {
        $crate::ser::Json::Obj(vec![(
            stringify!($variant).to_owned(),
            $crate::ser::ToJson::to_json($single),
        )])
    };
    (@ser $variant:ident ($($tuple:ident),+)) => {
        $crate::ser::Json::Obj(vec![(
            stringify!($variant).to_owned(),
            $crate::ser::Json::Arr(vec![
                $( $crate::ser::ToJson::to_json($tuple) ),+
            ]),
        )])
    };
    (@ser $variant:ident { $($field:ident),+ }) => {
        $crate::ser::Json::Obj(vec![(
            stringify!($variant).to_owned(),
            $crate::ser::Json::Obj(vec![
                $( (stringify!($field).to_owned(),
                    $crate::ser::ToJson::to_json($field)) ),+
            ]),
        )])
    };

    // --- string-form decoding (unit variants only) -------------------------
    (@from_str $ty:ident $variant:ident $s:ident) => {
        if $s == stringify!($variant) {
            return Ok($ty::$variant);
        }
    };
    (@from_str $ty:ident $variant:ident $s:ident ($($tuple:ident),+)) => {};
    (@from_str $ty:ident $variant:ident $s:ident { $($field:ident),+ }) => {};

    // --- object-form decoding (payload variants only) ----------------------
    (@from_obj $ty:ident $variant:ident $key:ident $payload:ident) => {};
    (@from_obj $ty:ident $variant:ident $key:ident $payload:ident ($single:ident)) => {
        if $key == stringify!($variant) {
            return Ok($ty::$variant($crate::ser::FromJson::from_json($payload)?));
        }
    };
    (@from_obj $ty:ident $variant:ident $key:ident $payload:ident ($($tuple:ident),+)) => {
        if $key == stringify!($variant) {
            let arr = $payload.as_arr()?;
            let mut it = arr.iter();
            $(
                let $tuple = $crate::ser::FromJson::from_json(it.next().ok_or_else(|| {
                    $crate::ser::JsonError::Decode(format!(
                        "too few elements for {}::{}",
                        stringify!($ty), stringify!($variant)
                    ))
                })?)?;
            )+
            if it.next().is_some() {
                return Err($crate::ser::JsonError::Decode(format!(
                    "too many elements for {}::{}",
                    stringify!($ty), stringify!($variant)
                )));
            }
            return Ok($ty::$variant($($tuple),+));
        }
    };
    (@from_obj $ty:ident $variant:ident $key:ident $payload:ident { $($field:ident),+ }) => {
        if $key == stringify!($variant) {
            return Ok($ty::$variant {
                $( $field: $crate::ser::FromJson::from_json(
                    $payload.field(stringify!($field))?)? ),+
            });
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt(j: &Json) -> Json {
        Json::parse(&j.render().unwrap()).unwrap()
    }

    #[test]
    fn scalars_round_trip() {
        for j in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Int(0),
            Json::Int(-42),
            Json::Int(i64::MAX),
            Json::Int(i64::MIN),
            Json::Float(2.5),
            Json::Float(-0.0),
            Json::Float(1e300),
            Json::Float(0.1),
            Json::Str(String::new()),
            Json::Str("héllo \"world\"\n\t\\ \u{1F600} \u{7}".into()),
        ] {
            assert_eq!(rt(&j), j, "{j:?}");
        }
    }

    #[test]
    fn int_float_distinction_survives() {
        assert_eq!(Json::Int(2).render().unwrap(), "2");
        assert_eq!(Json::Float(2.0).render().unwrap(), "2.0");
        assert_eq!(Json::parse("2").unwrap(), Json::Int(2));
        assert_eq!(Json::parse("2.0").unwrap(), Json::Float(2.0));
        assert_eq!(Json::parse("2e0").unwrap(), Json::Float(2.0));
    }

    #[test]
    fn nested_structures_round_trip() {
        let j = Json::Obj(vec![
            ("a".into(), Json::Arr(vec![Json::Int(1), Json::Null])),
            ("b".into(), Json::Obj(vec![("x".into(), Json::Float(0.5))])),
            ("".into(), Json::Str("empty key".into())),
        ]);
        assert_eq!(rt(&j), j);
    }

    #[test]
    fn non_finite_floats_are_rejected() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::Float(v).render(), Err(JsonError::NonFiniteFloat));
        }
        assert!(Json::parse("1e999").is_err());
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in [
            "", "tru", "[1,", "{\"a\"}", "{a:1}", "\"\\q\"", "01x", "1 2",
            "\"unterminated", "[1],", "{\"a\":}", "-", "\"\\ud800\"",
        ] {
            assert!(Json::parse(bad).is_err(), "`{bad}` should fail");
        }
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(
            Json::parse(r#""\u0041\u00e9\ud83d\ude00""#).unwrap(),
            Json::Str("Aé\u{1F600}".into())
        );
    }

    #[test]
    fn parse_time_is_linear_in_document_size() {
        // ~4 MB of short strings.  Validating the whole rest of the input
        // per character made this (string bytes) x (document bytes): 36 s
        // for a tenth of this document, so about an hour for all of it.
        // One pass takes well under a second even unoptimised.
        let items = 400_000;
        let text = format!("[{}]", vec!["\"car-é7\""; items].join(","));
        assert!(text.len() > 4_000_000);
        let start = std::time::Instant::now();
        let parsed = Json::parse(&text).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(parsed.as_arr().unwrap().len(), items);
        assert_eq!(parsed.as_arr().unwrap()[items - 1], Json::Str("car-é7".into()));
        assert!(elapsed.as_secs() < 10, "parsing 4 MB took {elapsed:?}");
    }

    #[test]
    fn deep_nesting_is_bounded_not_fatal() {
        let deep = "[".repeat(4096) + &"]".repeat(4096);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn derived_struct_and_enum_round_trip() {
        #[derive(Debug, Clone, PartialEq)]
        struct P {
            x: f64,
            label: String,
        }
        json_struct!(P { x, label });

        #[derive(Debug, Clone, PartialEq)]
        enum E {
            Unit,
            One(f64),
            Pair(i64, String),
            Named { a: u64, b: bool },
        }
        json_enum!(E {
            Unit,
            One(v),
            Pair(a, b),
            Named { a, b },
        });

        let p = P { x: -1.5, label: "hi \"there\"".into() };
        let text = to_json_string(&p).unwrap();
        assert_eq!(from_json_str::<P>(&text).unwrap(), p);

        for e in [
            E::Unit,
            E::One(0.25),
            E::Pair(-7, "x".into()),
            E::Named { a: 9, b: true },
        ] {
            let text = to_json_string(&e).unwrap();
            assert_eq!(from_json_str::<E>(&text).unwrap(), e, "{text}");
        }
        assert_eq!(to_json_string(&E::Unit).unwrap(), "\"Unit\"");
        assert_eq!(to_json_string(&E::One(0.5)).unwrap(), "{\"One\":0.5}");
        assert!(from_json_str::<E>("\"Nope\"").is_err());
        assert!(from_json_str::<E>("{\"Pair\":[1]}").is_err());
        assert!(from_json_str::<E>("{\"Pair\":[1,\"a\",2]}").is_err());
    }

    #[test]
    fn u64_beyond_i64_survives() {
        let v = u64::MAX - 3;
        let text = to_json_string(&v).unwrap();
        assert_eq!(from_json_str::<u64>(&text).unwrap(), v);
    }

    #[test]
    fn maps_round_trip() {
        let mut m = BTreeMap::new();
        m.insert(3u64, "three".to_owned());
        m.insert(7, "seven".to_owned());
        let text = to_json_string(&m).unwrap();
        assert_eq!(from_json_str::<BTreeMap<u64, String>>(&text).unwrap(), m);
    }
}
