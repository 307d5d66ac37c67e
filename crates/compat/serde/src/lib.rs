//! Vendored, dependency-free stand-in for the `serde` crate.
//!
//! The build environment for this workspace has no access to crates.io, so
//! the handful of external crates the suite relies on are vendored as small
//! API-compatible subsets under `crates/compat/`. This crate implements the
//! serde surface the workspace actually uses:
//!
//! * the [`Serialize`] trait, whose one method writes compact JSON text
//!   straight into a `String` (instead of serde's visitor architecture);
//! * `#[derive(Serialize)]` via the sibling `serde_derive` proc-macro
//!   crate, honouring `#[serde(transparent)]` and `#[serde(skip)]`.
//!
//! Serialization only: the workspace writes typed values and reads JSON
//! back solely as an untyped [`Value`], so there is no typed reading half.
//! An untyped [`Value`] tree backs `json!`, parsing and pretty-printing;
//! typed values never pass through it on the way to text. The sibling
//! `serde_json` crate re-exports [`Value`]/[`Map`] and wraps the [`json`]
//! text layer in serde_json's function names.

pub mod json;
pub mod value;

pub use value::{Map, Number, Value};

// The derive macro lives in the macro namespace, the trait in the type
// namespace; both can be re-exported under the same name, exactly as the
// real serde does with its `derive` feature.
pub use serde_derive::Serialize;

use std::fmt;

/// A JSON rendering or parsing failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
}

impl Error {
    /// Creates an error carrying `msg`.
    pub fn custom(msg: impl fmt::Display) -> Self {
        Error {
            msg: msg.to_string(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "serde error: {}", self.msg)
    }
}

impl std::error::Error for Error {}

/// A type that can write itself as JSON text.
pub trait Serialize {
    /// Appends `self` to `out` as compact JSON text.
    fn write_json(&self, out: &mut String);

    /// Converts `self` into a [`Value`] by rendering it and parsing the
    /// text back, so a whole float of 1e15 or more reads back as an
    /// integer and a non-finite one as `Null`. For cold paths only: the
    /// figure binaries, `json!` and tests.
    fn to_value(&self) -> Value {
        let mut text = String::new();
        self.write_json(&mut text);
        json::parse(&text).expect("write_json emits valid JSON")
    }
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn write_json(&self, out: &mut String) {
                // Every listed type fits i128, and its magnitude fits u64.
                let n = *self as i128;
                if n < 0 {
                    out.push('-');
                }
                json::write_u64(out, n.unsigned_abs() as u64);
            }
        }
    )*};
}

impl_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Serialize for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Serialize for f64 {
    fn write_json(&self, out: &mut String) {
        json::write_f64(out, *self);
    }
}

impl Serialize for f32 {
    fn write_json(&self, out: &mut String) {
        json::write_f64(out, f64::from(*self));
    }
}

impl Serialize for String {
    fn write_json(&self, out: &mut String) {
        json::write_str(out, self);
    }
}

impl Serialize for str {
    fn write_json(&self, out: &mut String) {
        json::write_str(out, self);
    }
}

impl Serialize for char {
    fn write_json(&self, out: &mut String) {
        json::write_str(out, self.encode_utf8(&mut [0; 4]));
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(x) => x.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl<T: Serialize> Serialize for [T] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write_json(out);
        }
        out.push(']');
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        self.0.write_json(out);
        out.push(',');
        self.1.write_json(out);
        out.push(']');
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        self.0.write_json(out);
        out.push(',');
        self.1.write_json(out);
        out.push(',');
        self.2.write_json(out);
        out.push(']');
    }
}

/// Types usable as JSON object keys (JSON keys are always strings, so
/// integer keys render as their decimal text, exactly as serde_json does).
pub trait MapKey {
    /// Renders the key for the JSON object.
    fn to_key(&self) -> String;
}

impl MapKey for String {
    fn to_key(&self) -> String {
        self.clone()
    }
}

macro_rules! impl_int_key {
    ($($t:ty),*) => {$(
        impl MapKey for $t {
            fn to_key(&self) -> String {
                self.to_string()
            }
        }
    )*};
}

impl_int_key!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<K: MapKey, V: Serialize, S> Serialize for std::collections::HashMap<K, V, S> {
    fn write_json(&self, out: &mut String) {
        // Sort keys so serialization is deterministic despite HashMap's
        // randomized iteration order.
        let mut entries: Vec<(String, &V)> = self.iter().map(|(k, v)| (k.to_key(), v)).collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        out.push('{');
        for (i, (k, v)) in entries.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(out, &k);
            out.push(':');
            v.write_json(out);
        }
        out.push('}');
    }
}

impl Serialize for Value {
    fn write_json(&self, out: &mut String) {
        json::write_value(out, self, None, 0);
    }

    fn to_value(&self) -> Value {
        self.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn primitives_map_onto_the_value_model() {
        assert_eq!(42u64.to_value(), Value::Number(Number::U64(42)));
        assert_eq!((-3i32).to_value(), Value::Number(Number::I64(-3)));
        assert_eq!(true.to_value(), Value::Bool(true));
        assert_eq!("hi".to_value(), Value::String("hi".to_string()));
        assert_eq!(1.5f64.to_value(), Value::Number(Number::F64(1.5)));
    }

    #[test]
    fn containers_map_onto_the_value_model() {
        let nums =
            |ns: &[u64]| Value::Array(ns.iter().map(|&n| Value::Number(Number::U64(n))).collect());
        assert_eq!(vec![1u32, 2, 3].to_value(), nums(&[1, 2, 3]));
        assert_eq!([4u8, 5].to_value(), nums(&[4, 5]));
        assert_eq!(None::<u64>.to_value(), Value::Null);
        assert_eq!(Some(7u64).to_value(), 7u64.to_value());
    }

    #[test]
    fn hash_map_keys_render_sorted_as_text() {
        let m: HashMap<u32, bool> = [(10, true), (2, false), (33, true)].into_iter().collect();
        let Value::Object(obj) = m.to_value() else {
            panic!("maps serialize to objects");
        };
        let keys: Vec<&String> = obj.keys().collect();
        assert_eq!(keys, ["10", "2", "33"]);
        assert_eq!(obj.get("2"), Some(&Value::Bool(false)));
    }
}
