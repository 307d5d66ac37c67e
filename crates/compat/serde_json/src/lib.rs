//! Vendored, dependency-free stand-in for the `serde_json` crate.
//!
//! Re-exports the [`Value`]/[`Map`]/[`Number`] data model from the sibling
//! vendored `serde` and wraps its text layer in the functions this
//! workspace uses: [`to_string`] (which streams through
//! [`Serialize::write_json`]), [`to_string_pretty`], [`to_value`],
//! [`from_str`], and the [`json!`] macro (a tt-muncher supporting nested
//! object/array literals and arbitrary expression values, like the real
//! one).

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
    // Room for a whole event line (a span line is ~170 B), so the hot
    // telemetry path allocates once per line.
    let mut out = String::with_capacity(256);
    value.write_json(&mut out);
    Ok(out)
}

/// Renders `value` as two-space-indented JSON text.
///
/// # Errors
///
/// Never fails in this vendored subset.
pub fn to_string_pretty<T: Serialize>(value: T) -> Result<String, Error> {
    let mut out = String::new();
    serde::json::write_value(&mut out, &value.to_value(), Some(2), 0);
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
    serde::json::parse(s).map(T::from)
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

    #[test]
    fn pretty_render_is_pinned() {
        let v = json!({ "a": 1, "b": [true, null], "e": [], "o": {}, "n": { "x": -2 } });
        assert_eq!(
            to_string_pretty(&v).expect("render"),
            "{\n  \"a\": 1,\n  \"b\": [\n    true,\n    null\n  ],\n  \"e\": [],\n  \"o\": {},\n  \"n\": {\n    \"x\": -2\n  }\n}"
        );
    }

    #[test]
    fn to_value_reads_whole_floats_beyond_64_bits_back_as_floats() {
        assert_eq!(
            to_value(1e20).expect("value"),
            Value::Number(Number::F64(1e20))
        );
        assert_eq!(
            to_value(1e15).expect("value").as_u64(),
            Some(1_000_000_000_000_000)
        );
        assert_eq!(to_value(f64::NAN).expect("value"), Value::Null);
    }
}

/// The exact text each derive shape and primitive writes.
#[cfg(test)]
mod derive_text {
    use super::to_string;
    use serde::Serialize;
    use std::collections::HashMap;

    fn text<T: Serialize>(v: T) -> String {
        to_string(v).expect("render")
    }

    #[derive(Serialize)]
    struct Named {
        a: u32,
        s: String,
    }

    #[derive(Serialize)]
    struct Pair(u8, i64);

    #[derive(Serialize)]
    struct Newtype(u64);

    #[derive(Serialize)]
    struct Unit;

    #[derive(Serialize)]
    #[serde(transparent)]
    struct Transparent {
        inner: u32,
    }

    #[allow(dead_code)] // the skipped fields are never read
    #[derive(Serialize)]
    struct Skips {
        kept: u8,
        #[serde(skip)]
        dropped: u8,
        last: bool,
    }

    #[allow(dead_code)] // the skipped field is never read
    #[derive(Serialize)]
    struct TupleSkip(u8, #[serde(skip)] u8);

    #[derive(Serialize)]
    enum Shape {
        Unit,
        One(u8),
        Tuple(u8, i8),
        Struct { x: u8, y: Option<u8> },
        Empty {},
    }

    #[derive(Serialize)]
    struct Nested {
        some: Option<Vec<Option<u8>>>,
        none: Option<Vec<u8>>,
        empty: Vec<u8>,
        map: HashMap<String, u8>,
        shapes: Vec<Shape>,
    }

    #[test]
    fn structs_render_their_pinned_shapes() {
        let named = Named {
            a: 1,
            s: "x".to_string(),
        };
        assert_eq!(text(&named), r#"{"a":1,"s":"x"}"#);
        assert_eq!(text(Pair(1, -2)), "[1,-2]");
        assert_eq!(text(Newtype(7)), "7");
        assert_eq!(text(Unit), "null");
        assert_eq!(text(Transparent { inner: 5 }), "5");
        let skips = Skips {
            kept: 1,
            dropped: 2,
            last: true,
        };
        assert_eq!(text(skips), r#"{"kept":1,"last":true}"#);
        assert_eq!(text(TupleSkip(3, 4)), "3");
    }

    #[test]
    fn variants_render_externally_tagged() {
        assert_eq!(text(Shape::Unit), r#""Unit""#);
        assert_eq!(text(Shape::One(3)), r#"{"One":3}"#);
        assert_eq!(text(Shape::Tuple(1, -1)), r#"{"Tuple":[1,-1]}"#);
        assert_eq!(
            text(Shape::Struct { x: 4, y: None }),
            r#"{"Struct":{"x":4,"y":null}}"#
        );
        assert_eq!(text(Shape::Empty {}), r#"{"Empty":{}}"#);
    }

    #[test]
    fn containers_nest_and_sort_map_keys() {
        let nested = Nested {
            some: Some(vec![Some(1), None]),
            none: None,
            empty: Vec::new(),
            map: HashMap::new(),
            shapes: vec![Shape::Unit, Shape::One(2)],
        };
        assert_eq!(
            text(&nested),
            r#"{"some":[1,null],"none":null,"empty":[],"map":{},"shapes":["Unit",{"One":2}]}"#
        );
        let by_int: HashMap<u32, bool> = [(10, true), (2, false), (33, true)].into_iter().collect();
        assert_eq!(text(&by_int), r#"{"10":true,"2":false,"33":true}"#);
        let by_name: HashMap<String, u8> = [("b".to_string(), 2), ("a".to_string(), 1)]
            .into_iter()
            .collect();
        assert_eq!(text(&by_name), r#"{"a":1,"b":2}"#);
        assert_eq!(text((1u8, "t", [true])), r#"[1,"t",[true]]"#);
        assert_eq!(text(Box::new(Some(-7i32))), "-7");
    }

    #[test]
    fn integers_and_floats_render_exactly() {
        assert_eq!(text(0u8), "0");
        assert_eq!(text(u64::MAX), "18446744073709551615");
        assert_eq!(text(i64::MIN), "-9223372036854775808");
        assert_eq!(text(0.0f64), "0.0");
        assert_eq!(text(-0.0f64), "-0.0");
        assert_eq!(text(1.5f64), "1.5");
        assert_eq!(text(2.0f32), "2.0");
        assert_eq!(text(1e15f64), "1000000000000000");
        assert_eq!(text(1e-7f64), "0.0000001");
        assert_eq!(text(f64::NAN), "null");
        assert_eq!(text(f64::INFINITY), "null");
        assert_eq!(text(f64::NEG_INFINITY), "null");
        // `Number`'s Display follows the same rule.
        assert_eq!(super::Number::F64(3.0).to_string(), "3.0");
        assert_eq!(super::Number::F64(f64::NAN).to_string(), "null");
    }

    #[test]
    fn strings_escape_quotes_backslashes_and_controls() {
        assert_eq!(
            text("a\"b\\c\nd\re\tf\u{1}g\u{1f}h\u{7f}é"),
            "\"a\\\"b\\\\c\\nd\\re\\tf\\u0001g\\u001fh\u{7f}é\""
        );
        assert_eq!(text('"'), r#""\"""#);
        assert_eq!(text(String::new()), r#""""#);
    }
}
