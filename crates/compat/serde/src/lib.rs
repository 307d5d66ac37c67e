//! Vendored, dependency-free stand-in for the `serde` crate.
//!
//! The build environment for this workspace has no access to crates.io, so
//! the handful of external crates the suite relies on are vendored as small
//! API-compatible subsets under `crates/compat/`. This crate implements the
//! serde surface the workspace actually uses:
//!
//! * the [`Serialize`] trait over a concrete JSON-like [`Value`] data
//!   model (instead of serde's visitor architecture);
//! * `#[derive(Serialize)]` via the sibling `serde_derive` proc-macro
//!   crate, honouring `#[serde(transparent)]` and `#[serde(skip)]`.
//!
//! Serialization only: the workspace writes typed values and reads JSON
//! back solely as an untyped [`Value`], so there is no typed reading half.
//! The sibling `serde_json` crate re-exports [`Value`]/[`Map`] and adds
//! text rendering/parsing on top of this data model.

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

/// A type that can render itself into the [`Value`] data model.
pub trait Serialize {
    /// Converts `self` into a [`Value`].
    fn to_value(&self) -> Value;
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                #[allow(unused_comparisons)]
                if *self >= 0 {
                    Value::Number(Number::U64(*self as u64))
                } else {
                    Value::Number(Number::I64(*self as i64))
                }
            }
        }
    )*};
}

impl_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Number(Number::F64(*self))
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Number(Number::F64(f64::from(*self)))
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
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

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_value(&self) -> Value {
        Value::Array(vec![self.0.to_value(), self.1.to_value()])
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn to_value(&self) -> Value {
        Value::Array(vec![
            self.0.to_value(),
            self.1.to_value(),
            self.2.to_value(),
        ])
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
    fn to_value(&self) -> Value {
        // Sort keys so serialization is deterministic despite HashMap's
        // randomized iteration order.
        let mut entries: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| (k.to_key(), v.to_value()))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Object(entries.into_iter().collect())
    }
}

impl Serialize for Value {
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
