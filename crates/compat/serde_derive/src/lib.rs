//! `#[derive(Serialize)]` for the vendored serde subset.
//!
//! The real serde_derive pulls in syn + quote, neither of which is
//! available offline, so this crate parses the item token stream by hand.
//! Supported shapes (everything this workspace defines):
//!
//! * structs with named fields, tuple structs, unit structs;
//! * enums whose variants are unit, tuple, or struct-like;
//! * container attribute `#[serde(transparent)]`;
//! * field attribute `#[serde(skip)]`.
//!
//! Generics are intentionally unsupported — the derive panics with a clear
//! message at compile time if it meets a `<` after the type name.
//!
//! The generated `write_json` streams compact JSON text: it pushes the
//! literal pieces (`{"field":`, `,"next":`, `}`) and recurses into each
//! field, building no intermediate tree. Named structs serialize to
//! objects, unit structs to `null`, one-field tuple structs to their inner
//! value, longer tuple structs to arrays, unit variants to their name as a
//! string, and data-carrying variants to externally-tagged one-key
//! objects — matching serde_json's defaults for the same shapes.

// Hand-rolled token walking reads better with explicit matches, and the
// helper signatures mirror what syn/quote would produce.
#![allow(clippy::single_match, clippy::type_complexity)]

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// One parsed field: its accessor (name or index) and serde attributes.
struct Field {
    /// Field name for named fields, decimal index for tuple fields.
    accessor: String,
    skip: bool,
}

/// The field layout of a struct or enum variant.
enum Shape {
    Unit,
    Tuple(Vec<Field>),
    Named(Vec<Field>),
}

/// A parsed container.
struct Item {
    name: String,
    transparent: bool,
    kind: Kind,
}

enum Kind {
    Struct(Shape),
    Enum(Vec<(String, Shape)>),
}

/// Serde attributes found on one attribute target.
#[derive(Default)]
struct SerdeAttrs {
    transparent: bool,
    skip: bool,
}

/// Consumes leading `#[...]` attribute groups, returning any serde
/// attributes found among them.
fn take_attrs(tokens: &[TokenTree], pos: &mut usize) -> SerdeAttrs {
    let mut attrs = SerdeAttrs::default();
    while *pos + 1 < tokens.len() {
        let TokenTree::Punct(p) = &tokens[*pos] else {
            break;
        };
        if p.as_char() != '#' {
            break;
        }
        let TokenTree::Group(g) = &tokens[*pos + 1] else {
            break;
        };
        if g.delimiter() != Delimiter::Bracket {
            break;
        }
        let inner: Vec<TokenTree> = g.stream().into_iter().collect();
        if let [TokenTree::Ident(name), TokenTree::Group(args)] = &inner[..] {
            if name.to_string() == "serde" {
                for t in args.stream() {
                    if let TokenTree::Ident(flag) = t {
                        match flag.to_string().as_str() {
                            "transparent" => attrs.transparent = true,
                            "skip" => attrs.skip = true,
                            other => panic!(
                                "serde_derive (vendored): unsupported \
                                 #[serde({other})] attribute"
                            ),
                        }
                    }
                }
            }
        }
        *pos += 2;
    }
    attrs
}

/// Consumes an optional `pub` / `pub(...)` visibility.
fn skip_visibility(tokens: &[TokenTree], pos: &mut usize) {
    if let Some(TokenTree::Ident(id)) = tokens.get(*pos) {
        if id.to_string() == "pub" {
            *pos += 1;
            if let Some(TokenTree::Group(g)) = tokens.get(*pos) {
                if g.delimiter() == Delimiter::Parenthesis {
                    *pos += 1;
                }
            }
        }
    }
}

/// Skips one type (everything up to a top-level `,`), tracking `<`/`>`
/// nesting so generic arguments don't end the field early.
fn skip_type(tokens: &[TokenTree], pos: &mut usize) {
    let mut angle_depth = 0i32;
    while *pos < tokens.len() {
        match &tokens[*pos] {
            TokenTree::Punct(p) => match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth -= 1,
                ',' if angle_depth == 0 => {
                    *pos += 1; // consume the separator
                    return;
                }
                _ => {}
            },
            _ => {}
        }
        *pos += 1;
    }
}

/// Parses the fields inside a brace group: `attr* vis? name : Type ,`*
fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut pos = 0;
    let mut fields = Vec::new();
    while pos < tokens.len() {
        let attrs = take_attrs(&tokens, &mut pos);
        skip_visibility(&tokens, &mut pos);
        let TokenTree::Ident(name) = &tokens[pos] else {
            panic!("serde_derive (vendored): expected field name");
        };
        pos += 1; // name
        pos += 1; // ':'
        skip_type(&tokens, &mut pos);
        fields.push(Field {
            accessor: name.to_string(),
            skip: attrs.skip,
        });
    }
    fields
}

/// Parses the fields inside a paren group: `attr* vis? Type ,`*
fn parse_tuple_fields(stream: TokenStream) -> Vec<Field> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut pos = 0;
    let mut fields = Vec::new();
    let mut index = 0usize;
    while pos < tokens.len() {
        let attrs = take_attrs(&tokens, &mut pos);
        skip_visibility(&tokens, &mut pos);
        skip_type(&tokens, &mut pos);
        fields.push(Field {
            accessor: index.to_string(),
            skip: attrs.skip,
        });
        index += 1;
    }
    fields
}

/// Parses the variants inside an enum body.
fn parse_variants(stream: TokenStream) -> Vec<(String, Shape)> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut pos = 0;
    let mut variants = Vec::new();
    while pos < tokens.len() {
        let _ = take_attrs(&tokens, &mut pos);
        let TokenTree::Ident(name) = &tokens[pos] else {
            panic!("serde_derive (vendored): expected variant name");
        };
        pos += 1;
        let shape = match tokens.get(pos) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                pos += 1;
                Shape::Named(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                pos += 1;
                Shape::Tuple(parse_tuple_fields(g.stream()))
            }
            _ => Shape::Unit,
        };
        // Consume a trailing comma if present.
        if let Some(TokenTree::Punct(p)) = tokens.get(pos) {
            if p.as_char() == ',' {
                pos += 1;
            }
        }
        variants.push((name.to_string(), shape));
    }
    variants
}

/// Parses the whole derive input item.
fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut pos = 0;
    let attrs = take_attrs(&tokens, &mut pos);
    skip_visibility(&tokens, &mut pos);
    let TokenTree::Ident(kw) = &tokens[pos] else {
        panic!("serde_derive (vendored): expected `struct` or `enum`");
    };
    let kw = kw.to_string();
    pos += 1;
    let TokenTree::Ident(name) = &tokens[pos] else {
        panic!("serde_derive (vendored): expected a type name");
    };
    let name = name.to_string();
    pos += 1;
    if let Some(TokenTree::Punct(p)) = tokens.get(pos) {
        if p.as_char() == '<' {
            panic!(
                "serde_derive (vendored): generic type `{name}` is not \
                 supported; write a manual Serialize impl"
            );
        }
    }
    let kind = match kw.as_str() {
        "struct" => match tokens.get(pos) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Kind::Struct(Shape::Named(parse_named_fields(g.stream())))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Kind::Struct(Shape::Tuple(parse_tuple_fields(g.stream())))
            }
            _ => Kind::Struct(Shape::Unit),
        },
        "enum" => match tokens.get(pos) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Kind::Enum(parse_variants(g.stream()))
            }
            _ => panic!("serde_derive (vendored): malformed enum body"),
        },
        other => panic!("serde_derive (vendored): cannot derive for `{other}`"),
    };
    Item {
        name,
        transparent: attrs.transparent,
        kind,
    }
}

/// One step of a generated `write_json` body: literal JSON text, or a
/// field expression to serialize in place.
enum Piece {
    Lit(String),
    Field(String),
}

/// Appends the pieces that write a `Shape` whose fields are reachable
/// through `access(field_accessor)`, e.g. `self.x` or a bound pattern name.
fn shape_pieces(shape: &Shape, access: &dyn Fn(&str) -> String, pieces: &mut Vec<Piece>) {
    match shape {
        Shape::Unit => pieces.push(Piece::Lit("null".to_string())),
        Shape::Tuple(fields) => {
            let live: Vec<&Field> = fields.iter().filter(|f| !f.skip).collect();
            if let [f] = live[..] {
                pieces.push(Piece::Field(access(&f.accessor)));
                return;
            }
            pieces.push(Piece::Lit("[".to_string()));
            for (i, f) in live.iter().enumerate() {
                if i > 0 {
                    pieces.push(Piece::Lit(",".to_string()));
                }
                pieces.push(Piece::Field(access(&f.accessor)));
            }
            pieces.push(Piece::Lit("]".to_string()));
        }
        Shape::Named(fields) => {
            pieces.push(Piece::Lit("{".to_string()));
            for (i, f) in fields.iter().filter(|f| !f.skip).enumerate() {
                let sep = if i > 0 { "," } else { "" };
                pieces.push(Piece::Lit(format!("{sep}\"{}\":", f.accessor)));
                pieces.push(Piece::Field(access(&f.accessor)));
            }
            pieces.push(Piece::Lit("}".to_string()));
        }
    }
}

/// Statements writing `pieces` to `__out`, with adjacent literals merged
/// into one `push_str`.
fn pieces_to_code(pieces: Vec<Piece>) -> String {
    let mut code = String::new();
    let mut lit = String::new();
    for piece in pieces {
        match piece {
            Piece::Lit(text) => lit.push_str(&text),
            Piece::Field(expr) => {
                if !lit.is_empty() {
                    code.push_str(&format!("__out.push_str({lit:?}); "));
                    lit.clear();
                }
                code.push_str(&format!("::serde::Serialize::write_json(&{expr}, __out); "));
            }
        }
    }
    if !lit.is_empty() {
        code.push_str(&format!("__out.push_str({lit:?}); "));
    }
    code
}

/// Pattern that binds a shape's live fields inside a `match` arm, plus the
/// accessor function for the bound names.
fn variant_pattern(shape: &Shape) -> (String, Box<dyn Fn(&str) -> String>) {
    match shape {
        Shape::Unit => (String::new(), Box::new(|a: &str| a.to_string())),
        Shape::Tuple(fields) => {
            let binds: Vec<String> = fields
                .iter()
                .enumerate()
                .map(|(i, f)| {
                    if f.skip {
                        "_".to_string()
                    } else {
                        format!("__f{i}")
                    }
                })
                .collect();
            (
                format!("({})", binds.join(", ")),
                Box::new(|a: &str| format!("__f{a}")),
            )
        }
        Shape::Named(fields) => {
            let mut binds: Vec<String> = fields
                .iter()
                .filter(|f| !f.skip)
                .map(|f| f.accessor.clone())
                .collect();
            binds.push("..".to_string());
            (
                format!("{{ {} }}", binds.join(", ")),
                Box::new(|a: &str| a.to_string()),
            )
        }
    }
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let name = &item.name;
    let body = match &item.kind {
        // `#[serde(transparent)]` on a named single-field struct
        // serializes as the bare inner value; tuple newtypes already do.
        Kind::Struct(Shape::Named(fields)) if item.transparent => {
            let live: Vec<&Field> = fields.iter().filter(|f| !f.skip).collect();
            match live[..] {
                [f] => pieces_to_code(vec![Piece::Field(format!("self.{}", f.accessor))]),
                _ => panic!(
                    "serde_derive (vendored): transparent needs exactly one \
                     non-skipped field"
                ),
            }
        }
        Kind::Struct(shape) => {
            let mut pieces = Vec::new();
            shape_pieces(shape, &|a: &str| format!("self.{a}"), &mut pieces);
            pieces_to_code(pieces)
        }
        Kind::Enum(variants) => {
            let mut arms = String::new();
            for (vname, shape) in variants {
                let (pat, access) = variant_pattern(shape);
                let mut pieces = Vec::new();
                if let Shape::Unit = shape {
                    pieces.push(Piece::Lit(format!("\"{vname}\"")));
                } else {
                    pieces.push(Piece::Lit(format!("{{\"{vname}\":")));
                    shape_pieces(shape, &*access, &mut pieces);
                    pieces.push(Piece::Lit("}".to_string()));
                }
                arms.push_str(&format!(
                    "{name}::{vname} {pat} => {{ {} }}\n",
                    pieces_to_code(pieces)
                ));
            }
            format!("match self {{ {arms} }}")
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
           fn write_json(&self, __out: &mut ::std::string::String) {{ {body} }}\n\
         }}"
    )
    .parse()
    .expect("serde_derive (vendored): generated Serialize impl parses")
}
