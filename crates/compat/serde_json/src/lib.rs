//! Vendored, dependency-free stand-in for the `serde_json` crate.
//!
//! Re-exports the [`Value`]/[`Map`]/[`Number`] data model from the sibling
//! vendored `serde` and adds the text layer this workspace uses:
//! [`to_value`], [`to_string`], [`to_string_pretty`], [`from_str`], and the
//! [`json!`] macro (a tt-muncher supporting nested object/array literals
//! and arbitrary expression values, like the real one).

pub use serde::value::{Map, Number, Value};
pub use serde::Error;

use serde::Serialize;

/// Converts any [`Serialize`] type into a [`Value`].
///
/// # Errors
///
/// Never fails in this vendored subset; the `Result` exists for call-site
/// compatibility with the real serde_json.
pub fn to_value<T: Serialize>(value: T) -> Result<Value, Error> {
    Ok(value.to_value())
}

/// Renders `value` as compact JSON text.
///
/// # Errors
///
/// Never fails in this vendored subset.
pub fn to_string<T: Serialize>(value: T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Renders `value` as two-space-indented JSON text.
///
/// # Errors
///
/// Never fails in this vendored subset.
pub fn to_string_pretty<T: Serialize>(value: T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Parses JSON text into a [`Value`].
///
/// JSON is only ever read back untyped; the type parameter exists so
/// upstream-style calls (`from_str::<Value>(..)`, or a `Value` inferred
/// from the binding) compile unchanged.
///
/// # Errors
///
/// Returns [`Error`] on malformed JSON.
pub fn from_str<T: From<Value>>(s: &str) -> Result<T, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::custom("trailing characters after JSON value"));
    }
    Ok(T::from(v))
}

fn write_escaped(out: &mut String, s: &str) {
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

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    let (nl, pad, pad_in) = match indent {
        Some(w) => ("\n", " ".repeat(w * depth), " ".repeat(w * (depth + 1))),
        None => ("", String::new(), String::new()),
    };
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => out.push_str(&n.to_string()),
        Value::String(s) => write_escaped(out, s),
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
                out.push_str(nl);
                out.push_str(&pad_in);
                write_value(out, item, indent, depth + 1);
            }
            out.push_str(nl);
            out.push_str(&pad);
            out.push(']');
        }
        Value::Object(m) => {
            if m.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, item)) in m.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(nl);
                out.push_str(&pad_in);
                write_escaped(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, depth + 1);
            }
            out.push_str(nl);
            out.push_str(&pad);
            out.push('}');
        }
    }
}

/// Minimal recursive-descent JSON parser over the input bytes.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if b.is_ascii_whitespace() {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::custom(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_word(&mut self, word: &str) -> bool {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_word("null") => Ok(Value::Null),
            Some(b't') if self.eat_word("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_word("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::String),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.parse_value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return Err(Error::custom("expected `,` or `]` in array")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut m = Map::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(m));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.eat(b':')?;
                    let val = self.parse_value()?;
                    m.insert(key, val);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Object(m));
                        }
                        _ => return Err(Error::custom("expected `,` or `}` in object")),
                    }
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            _ => Err(Error::custom(format!(
                "unexpected character at byte {}",
                self.pos
            ))),
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(Error::custom("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(s),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(Error::custom("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| Error::custom("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by this
                            // workspace's data; map them to the
                            // replacement character instead of failing.
                            s.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(Error::custom(format!("bad escape `\\{}`", other as char)))
                        }
                    }
                }
                _ => {
                    // Collect the full UTF-8 sequence starting at b.
                    let start = self.pos - 1;
                    let width = utf8_width(b);
                    let end = start + width;
                    let chunk = self
                        .bytes
                        .get(start..end)
                        .and_then(|c| std::str::from_utf8(c).ok())
                        .ok_or_else(|| Error::custom("invalid UTF-8"))?;
                    s.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        let mut is_float = false;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::custom("invalid number"))?;
        if is_float {
            text.parse::<f64>()
                .map(|n| Value::Number(Number::F64(n)))
                .map_err(Error::custom)
        } else if let Ok(n) = text.parse::<u64>() {
            Ok(Value::Number(Number::U64(n)))
        } else {
            text.parse::<i64>()
                .map(|n| Value::Number(Number::I64(n)))
                .map_err(Error::custom)
        }
    }
}

fn utf8_width(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

/// Builds a [`Value`] from a JSON-like literal, accepting nested object
/// and array literals and arbitrary Rust expressions as values.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ({ $($body:tt)* }) => {{
        #[allow(unused_mut)]
        let mut __map = $crate::Map::new();
        $crate::json_object_entries!(__map; $($body)*);
        $crate::Value::Object(__map)
    }};
    ([ $($body:tt)* ]) => {
        $crate::__json_array_from(|__arr| {
            $crate::json_array_elems!(__arr; $($body)*);
        })
    };
    ($other:expr) => {
        match $crate::to_value(&$other) {
            Ok(v) => v,
            Err(_) => $crate::Value::Null,
        }
    };
}

/// Implementation detail of [`json!`]: builds an array value through a
/// filler closure so the element pushes expand against a plain `&mut Vec`.
#[doc(hidden)]
pub fn __json_array_from(fill: impl FnOnce(&mut Vec<Value>)) -> Value {
    let mut arr = Vec::new();
    fill(&mut arr);
    Value::Array(arr)
}

/// Implementation detail of [`json!`]: munches `"key": value` pairs.
#[doc(hidden)]
#[macro_export]
macro_rules! json_object_entries {
    ($map:ident;) => {};
    // Nested object literal value.
    ($map:ident; $key:literal : { $($inner:tt)* } $(, $($rest:tt)*)?) => {
        $map.insert($key.to_string(), $crate::json!({ $($inner)* }));
        $crate::json_object_entries!($map; $($($rest)*)?);
    };
    // Nested array literal value.
    ($map:ident; $key:literal : [ $($inner:tt)* ] $(, $($rest:tt)*)?) => {
        $map.insert($key.to_string(), $crate::json!([ $($inner)* ]));
        $crate::json_object_entries!($map; $($($rest)*)?);
    };
    // Expression value: accumulate tokens until a top-level comma.
    ($map:ident; $key:literal : $($rest:tt)*) => {
        $crate::json_expr_value!($map; $key; (); $($rest)*);
    };
}

/// Implementation detail of [`json!`]: accumulates one expression value.
#[doc(hidden)]
#[macro_export]
macro_rules! json_expr_value {
    ($map:ident; $key:literal; ($($val:tt)+);) => {
        $map.insert($key.to_string(), $crate::json!($($val)+));
    };
    ($map:ident; $key:literal; ($($val:tt)+); , $($rest:tt)*) => {
        $map.insert($key.to_string(), $crate::json!($($val)+));
        $crate::json_object_entries!($map; $($rest)*);
    };
    ($map:ident; $key:literal; ($($val:tt)*); $next:tt $($rest:tt)*) => {
        $crate::json_expr_value!($map; $key; ($($val)* $next); $($rest)*);
    };
}

/// Implementation detail of [`json!`]: munches array elements.
#[doc(hidden)]
#[macro_export]
macro_rules! json_array_elems {
    ($arr:ident;) => {};
    // Nested object literal element.
    ($arr:ident; { $($inner:tt)* } $(, $($rest:tt)*)?) => {
        $arr.push($crate::json!({ $($inner)* }));
        $crate::json_array_elems!($arr; $($($rest)*)?);
    };
    // Nested array literal element.
    ($arr:ident; [ $($inner:tt)* ] $(, $($rest:tt)*)?) => {
        $arr.push($crate::json!([ $($inner)* ]));
        $crate::json_array_elems!($arr; $($($rest)*)?);
    };
    // Expression element: accumulate tokens until a top-level comma.
    ($arr:ident; $($rest:tt)*) => {
        $crate::json_array_expr!($arr; (); $($rest)*);
    };
}

/// Implementation detail of [`json!`]: accumulates one array element.
#[doc(hidden)]
#[macro_export]
macro_rules! json_array_expr {
    ($arr:ident; ($($val:tt)+);) => {
        $arr.push($crate::json!($($val)+));
    };
    ($arr:ident; ($($val:tt)+); , $($rest:tt)*) => {
        $arr.push($crate::json!($($val)+));
        $crate::json_array_elems!($arr; $($rest)*);
    };
    ($arr:ident; ($($val:tt)*); $next:tt $($rest:tt)*) => {
        $crate::json_array_expr!($arr; ($($val)* $next); $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_and_pretty_render() {
        let v = json!({ "a": 1, "b": [true, null], "s": "x\"y" });
        assert_eq!(
            to_string(&v).expect("render"),
            r#"{"a":1,"b":[true,null],"s":"x\"y"}"#
        );
        let pretty = to_string_pretty(&v).expect("render");
        assert!(pretty.contains("  \"a\": 1"));
    }

    #[test]
    fn json_macro_handles_nested_and_expressions() {
        let x = 4u64;
        let v = json!({
            "lit": "s",
            "expr": x * 2,
            "call": format!("n{}", x),
            "nested": { "inner": x },
            "arr": [1, 2],
        });
        assert_eq!(v["expr"].as_u64(), Some(8));
        assert_eq!(v["call"].as_str(), Some("n4"));
        assert_eq!(v["nested"]["inner"].as_u64(), Some(4));
        assert_eq!(v["arr"][1].as_u64(), Some(2));
    }

    #[test]
    fn parse_round_trips() {
        let v = json!({
            "n": -3,
            "f": 1.5,
            "s": "a\nb",
            "deep": { "list": [1, 2, 3], "ok": true },
        });
        let text = to_string_pretty(&v).expect("render");
        let back: Value = from_str(&text).expect("parse");
        assert_eq!(back, v);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(from_str::<Value>("{\"a\": }").is_err());
        assert!(from_str::<Value>("[1, 2").is_err());
        assert!(from_str::<Value>("true false").is_err());
    }
}
