//! The JSON-like data model shared by the vendored `serde` and `serde_json`.

use std::fmt;

/// A number: unsigned, signed, or floating-point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// A non-negative integer.
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// A floating-point number.
    F64(f64),
}

impl Number {
    /// This number as an `f64` (lossy for very large integers).
    pub fn as_f64(&self) -> f64 {
        match self {
            Number::U64(n) => *n as f64,
            Number::I64(n) => *n as f64,
            Number::F64(n) => *n,
        }
    }

    /// This number as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Number::U64(n) => Some(*n),
            Number::I64(n) => u64::try_from(*n).ok(),
            Number::F64(_) => None,
        }
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Number::U64(n) => write!(f, "{n}"),
            Number::I64(n) => write!(f, "{n}"),
            Number::F64(n) => crate::json::fmt_f64(f, *n),
        }
    }
}

/// An insertion-ordered string-keyed map, mirroring `serde_json::Map`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Map<K = String, V = Value> {
    entries: Vec<(K, V)>,
}

impl Map<String, Value> {
    /// Creates an empty map.
    pub fn new() -> Self {
        Map {
            entries: Vec::new(),
        }
    }

    /// Inserts `value` under `key`, replacing and returning any prior value.
    pub fn insert(&mut self, key: String, value: Value) -> Option<Value> {
        for (k, v) in &mut self.entries {
            if *k == key {
                return Some(std::mem::replace(v, value));
            }
        }
        self.entries.push((key, value));
        None
    }

    /// The value under `key`, if present.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Iterates keys in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &String> {
        self.entries.iter().map(|(k, _)| k)
    }

    /// Iterates values in insertion order.
    pub fn values(&self) -> impl Iterator<Item = &Value> {
        self.entries.iter().map(|(_, v)| v)
    }
}

impl FromIterator<(String, Value)> for Map<String, Value> {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        let mut m = Map::new();
        for (k, v) in iter {
            m.insert(k, v);
        }
        m
    }
}

impl IntoIterator for Map<String, Value> {
    type Item = (String, Value);
    type IntoIter = std::vec::IntoIter<(String, Value)>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

/// A JSON value.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// `null`.
    #[default]
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Number(Number),
    /// A string.
    String(String),
    /// An ordered list of values.
    Array(Vec<Value>),
    /// A string-keyed object.
    Object(Map<String, Value>),
}

impl Value {
    /// The contained string, if this is a `String`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The contained number as `f64`, if this is a `Number`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// The contained non-negative integer, if this is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// The contained bool, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The contained array, if this is an `Array`.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The contained object, if this is an `Object`.
    pub fn as_object(&self) -> Option<&Map<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Indexes into an object by key, returning `Null` when absent (the
    /// ergonomic `value["key"]` accessor serde_json offers).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|m| m.get(key))
    }
}

impl From<Map<String, Value>> for Value {
    fn from(m: Map<String, Value>) -> Self {
        Value::Object(m)
    }
}

impl From<Vec<Value>> for Value {
    fn from(a: Vec<Value>) -> Self {
        Value::Array(a)
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        const NULL: Value = Value::Null;
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        const NULL: Value = Value::Null;
        match self {
            Value::Array(a) => a.get(i).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_insertion_order_and_replaces() {
        let mut m = Map::new();
        m.insert("b".into(), Value::Bool(true));
        m.insert("a".into(), Value::Null);
        m.insert("b".into(), Value::Bool(false));
        let keys: Vec<&String> = m.keys().collect();
        assert_eq!(keys, ["b", "a"]);
        assert_eq!(m.get("b"), Some(&Value::Bool(false)));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn value_accessors() {
        let mut m = Map::new();
        m.insert("x".into(), Value::Number(Number::U64(7)));
        let v = Value::Object(m);
        assert_eq!(v["x"].as_u64(), Some(7));
        assert_eq!(v["missing"], Value::Null);
        let a = Value::Array(vec![Value::Bool(true)]);
        assert_eq!(a[0].as_bool(), Some(true));
        assert_eq!(a[5], Value::Null);
    }
}
