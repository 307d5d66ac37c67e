//! Item-level parser: extracts `fn`/`impl`/`mod`/`use`/type items from the
//! token stream produced by [`crate::lexer`].
//!
//! This is not a full Rust parser — it recognizes item *heads* and brace
//! structure, which is all the lint rules, the module graph, and the
//! approximate call graph need. Items carry their byte spans, containing
//! module path, `#[cfg(test)]` attribution (direct or inherited from an
//! enclosing `mod`/`impl`), doc-comment presence, attributes, and — for
//! functions — the return-type text and body span.

use crate::lexer::{tokenize, Token, TokenKind};

/// What kind of item a parsed declaration is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// A function (free, method, or trait default/required method).
    Fn,
    /// An inline module (`mod m { … }`).
    ModInline,
    /// A file-backed module declaration (`mod m;`).
    ModDecl,
    /// An `impl` block (inherent or trait).
    Impl,
    /// A `use` declaration.
    Use,
    /// `struct`/`union` declaration.
    Struct,
    /// `enum` declaration.
    Enum,
    /// `trait` declaration.
    Trait,
    /// `const` or `static` item.
    Const,
    /// `type` alias.
    TypeAlias,
    /// A `macro_rules!` definition (exempt region for pattern rules).
    MacroRules,
}

/// One parsed item.
#[derive(Debug, Clone)]
pub struct Item {
    /// The item kind.
    pub kind: ItemKind,
    /// Bare name (`run`, `Simulator`, …); for `use`, the full path text.
    pub name: String,
    /// Qualified name: `Type::method` for impl/trait members, otherwise
    /// the bare name.
    pub qual: String,
    /// `::`-joined inline-module path within the file (empty at top level).
    pub module_path: String,
    /// For `impl` blocks, the trait being implemented (`Debug` in
    /// `impl fmt::Debug for X`), if any.
    pub trait_name: Option<String>,
    /// Whether the item is `pub` (any visibility qualifier counts).
    pub vis_pub: bool,
    /// Whether the item is under `#[cfg(test)]`, directly or inherited.
    pub cfg_test: bool,
    /// Whether a doc comment (or `#[doc…]`) immediately precedes it.
    pub has_doc: bool,
    /// Raw text of each attribute on the item (inherited ones excluded).
    pub attrs: Vec<String>,
    /// Whether the item carries `#[must_use]`.
    pub must_use: bool,
    /// For functions: the return-type text after `->` (None for `()`).
    pub ret: Option<String>,
    /// Byte span of the whole item, attributes included.
    pub span: (usize, usize),
    /// Byte span of the `{…}` body contents, braces excluded.
    pub body: Option<(usize, usize)>,
    /// Token-index range of the body contents in [`ParsedFile::tokens`].
    pub body_tokens: Option<(usize, usize)>,
    /// 1-based line of the item head.
    pub line: u32,
}

/// One parsed source file.
#[derive(Debug, Clone)]
pub struct ParsedFile {
    /// The raw source.
    pub src: String,
    /// Its token stream.
    pub tokens: Vec<Token>,
    /// Every item, in source order, flattened across modules/impls.
    pub items: Vec<Item>,
}

impl ParsedFile {
    /// Parses `src`.
    pub fn parse(src: &str) -> ParsedFile {
        let tokens = tokenize(src);
        let mut items = Vec::new();
        let mut p = Parser {
            src,
            tokens: &tokens,
            i: 0,
            out: &mut items,
        };
        p.items(&Ctx::default(), usize::MAX);
        ParsedFile {
            src: src.to_string(),
            tokens,
            items,
        }
    }

    /// File-backed module declarations (`mod m;`), with their test flag.
    pub fn mod_decls(&self) -> impl Iterator<Item = &Item> {
        self.items.iter().filter(|it| it.kind == ItemKind::ModDecl)
    }

    /// Byte ranges every pattern rule exempts: `#[cfg(test)]` items and
    /// `macro_rules!` bodies.
    pub fn exempt_ranges(&self) -> Vec<(usize, usize)> {
        self.items
            .iter()
            .filter(|it| it.cfg_test || it.kind == ItemKind::MacroRules)
            .map(|it| it.span)
            .collect()
    }

    /// Whether byte offset `pos` falls in an exempt range.
    pub fn is_exempt(&self, ranges: &[(usize, usize)], pos: usize) -> bool {
        ranges.iter().any(|&(s, e)| pos >= s && pos < e)
    }

    /// The trimmed source line containing byte offset `pos`.
    pub fn snippet_at(&self, pos: usize) -> String {
        let start = self.src[..pos].rfind('\n').map_or(0, |p| p + 1);
        let end = self.src[pos..]
            .find('\n')
            .map_or(self.src.len(), |p| pos + p);
        self.src[start..end].trim().to_string()
    }
}

/// One declared struct field.
#[derive(Debug, Clone)]
pub struct FieldInfo {
    /// Field name.
    pub name: String,
    /// Declared type, as source text.
    pub ty: String,
}

/// Parses `name: Type,` declarations from a struct body token range
/// (`Item::body_tokens`), skipping docs, attributes and visibility.
pub fn parse_fields(pf: &ParsedFile, from: usize, to: usize) -> Vec<FieldInfo> {
    let src = &pf.src;
    let toks = &pf.tokens;
    let to = to.min(toks.len());
    let mut fields = Vec::new();
    let mut i = from;
    while i < to {
        let t = &toks[i];
        if matches!(t.kind, TokenKind::DocOuter | TokenKind::DocInner) {
            i += 1;
            continue;
        }
        if t.is_punct(src, "#") || t.is_ident(src, "pub") {
            // `#[..]` / `pub(..)`: skip the bracketed group that follows.
            let open = if t.is_punct(src, "#") { "[" } else { "(" };
            i += 1;
            if toks.get(i).is_some_and(|t| t.is_punct(src, open)) {
                let close = if open == "[" { "]" } else { ")" };
                i = closing(src, toks, i, open, close) + 1;
            }
            continue;
        }
        if t.kind == TokenKind::Ident && toks.get(i + 1).is_some_and(|n| n.is_punct(src, ":")) {
            // The type runs to the next comma at bracket depth zero.
            let ty_from = i + 2;
            let mut depth = 0i32;
            let mut j = ty_from;
            while j < to {
                match toks[j].text(src) {
                    "<" | "(" | "[" => depth += 1,
                    "<<" => depth += 2,
                    ">" | ")" | "]" => depth -= 1,
                    "," if depth == 0 => break,
                    _ => {}
                }
                j += 1;
            }
            let ty = if j > ty_from {
                src[toks[ty_from].start..toks[j - 1].end].trim().to_string()
            } else {
                String::new()
            };
            fields.push(FieldInfo {
                name: t.text(src).to_string(),
                ty,
            });
            i = j + 1;
            continue;
        }
        i += 1;
    }
    fields
}

/// Index of the token closing the group opened at `open`.
fn closing(src: &str, toks: &[Token], open: usize, op: &str, cl: &str) -> usize {
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct(src, op) {
            depth += 1;
        } else if t.is_punct(src, cl) {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// Inherited context while descending into `mod`/`impl`/`trait` bodies.
#[derive(Debug, Clone, Default)]
struct Ctx {
    module_path: String,
    self_type: Option<String>,
    cfg_test: bool,
}

struct Parser<'a> {
    src: &'a str,
    tokens: &'a [Token],
    i: usize,
    out: &'a mut Vec<Item>,
}

/// Keywords that can prefix an item head before the defining keyword.
const MODIFIERS: &[&str] = &["unsafe", "async", "extern", "default"];

impl Parser<'_> {
    fn peek(&self, ahead: usize) -> Option<&Token> {
        self.tokens.get(self.i + ahead)
    }

    fn text(&self, t: &Token) -> &str {
        t.text(self.src)
    }

    /// Parses items until token index `stop` (exclusive) or a closing `}`.
    fn items(&mut self, ctx: &Ctx, stop: usize) {
        while self.i < self.tokens.len().min(stop) {
            let before = self.i;
            self.item(ctx, stop);
            if self.i == before {
                self.i += 1; // never wedge on unrecognized input
            }
        }
    }

    /// Attempts to parse one item at the cursor.
    fn item(&mut self, ctx: &Ctx, stop: usize) {
        let start_tok = self.i;
        let mut has_doc = false;
        let mut attrs: Vec<String> = Vec::new();

        // Doc comments and attributes, in any interleaving.
        loop {
            match self.peek(0) {
                Some(t) if matches!(t.kind, TokenKind::DocOuter | TokenKind::DocInner) => {
                    has_doc = true;
                    self.i += 1;
                }
                Some(t) if t.is_punct(self.src, "#") => {
                    let attr_start = self.i;
                    self.i += 1;
                    if self.peek(0).is_some_and(|t| t.is_punct(self.src, "!")) {
                        self.i += 1; // inner attribute `#![…]`
                    }
                    if self.peek(0).is_some_and(|t| t.is_punct(self.src, "[")) {
                        let close = self.matching(self.i, "[", "]");
                        let text = self.span_text(attr_start, close + 1);
                        if text.starts_with("#[doc") {
                            has_doc = true;
                        }
                        attrs.push(text);
                        self.i = close + 1;
                    }
                }
                _ => break,
            }
        }

        // Visibility and modifiers.
        let mut vis_pub = false;
        if self.peek(0).is_some_and(|t| t.is_ident(self.src, "pub")) {
            vis_pub = true;
            self.i += 1;
            if self.peek(0).is_some_and(|t| t.is_punct(self.src, "(")) {
                self.i = self.matching(self.i, "(", ")") + 1; // pub(crate) etc.
            }
        }
        while let Some(t) = self.peek(0) {
            let txt = self.text(t).to_string();
            if MODIFIERS.contains(&txt.as_str()) {
                self.i += 1;
                if txt == "extern" && self.peek(0).is_some_and(|t| t.kind == TokenKind::Str) {
                    self.i += 1; // extern "C"
                }
            } else {
                break;
            }
        }

        let cfg_test = ctx.cfg_test || attrs.iter().any(|a| is_cfg_test(a));
        let must_use = attrs.iter().any(|a| a.starts_with("#[must_use"));
        let Some(kw_tok) = self.peek(0) else { return };
        let line = kw_tok.line;
        let kw = self.text(kw_tok).to_string();

        let common =
            |kind: ItemKind, name: String, qual: String, ret, span, body, body_tokens| Item {
                kind,
                name,
                qual,
                module_path: ctx.module_path.clone(),
                trait_name: None,
                vis_pub,
                cfg_test,
                has_doc,
                attrs: attrs.clone(),
                must_use,
                ret,
                span,
                body,
                body_tokens,
                line,
            };
        let span_from = self.tokens.get(start_tok).map_or(0, |t| t.start);

        match kw.as_str() {
            "fn" => {
                self.i += 1;
                let Some(name) = self.ident_at(0) else { return };
                self.i += 1;
                // Signature: scan to the body `{`, a `;` (trait method), or
                // `where`; capture the return type after `->`.
                let mut ret: Option<String> = None;
                let mut ret_from: Option<usize> = None;
                let mut depth = 0i32;
                while let Some(t) = self.peek(0) {
                    let txt = self.text(t);
                    match txt {
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth -= 1,
                        "->" if depth == 0 => ret_from = Some(self.i + 1),
                        "{" | ";" if depth == 0 => break,
                        "where" if depth == 0 && t.kind == TokenKind::Ident => {
                            if let (Some(from), None) = (ret_from, ret.as_ref()) {
                                ret = Some(self.span_text(from, self.i));
                            }
                        }
                        _ => {}
                    }
                    self.i += 1;
                }
                if let (Some(from), None) = (ret_from, ret.as_ref()) {
                    ret = Some(self.span_text(from, self.i));
                }
                let ret = ret.map(|r| r.trim().to_string()).filter(|r| !r.is_empty());
                let qual = match &ctx.self_type {
                    Some(ty) => format!("{ty}::{name}"),
                    None => name.clone(),
                };
                let (span_end, body, body_tokens) =
                    if self.peek(0).is_some_and(|t| t.is_punct(self.src, "{")) {
                        let open = self.i;
                        let close = self.matching(open, "{", "}");
                        self.i = close + 1;
                        (
                            self.tok_end(close),
                            Some((self.tok_end(open), self.tok_start(close))),
                            Some((open + 1, close)),
                        )
                    } else {
                        self.i += 1; // the `;`
                        (self.tok_end(self.i.saturating_sub(1)), None, None)
                    };
                self.out.push(common(
                    ItemKind::Fn,
                    name,
                    qual,
                    ret,
                    (span_from, span_end),
                    body,
                    body_tokens,
                ));
            }
            "mod" => {
                self.i += 1;
                let Some(name) = self.ident_at(0) else { return };
                self.i += 1;
                if self.peek(0).is_some_and(|t| t.is_punct(self.src, "{")) {
                    let open = self.i;
                    let close = self.matching(open, "{", "}");
                    self.out.push(common(
                        ItemKind::ModInline,
                        name.clone(),
                        name.clone(),
                        None,
                        (span_from, self.tok_end(close)),
                        Some((self.tok_end(open), self.tok_start(close))),
                        Some((open + 1, close)),
                    ));
                    let sub = Ctx {
                        module_path: join_path(&ctx.module_path, &name),
                        self_type: None,
                        cfg_test,
                    };
                    self.i = open + 1;
                    self.items(&sub, close);
                    self.i = close + 1;
                } else {
                    self.i += 1; // the `;`
                    self.out.push(common(
                        ItemKind::ModDecl,
                        name.clone(),
                        name,
                        None,
                        (span_from, self.tok_end(self.i.saturating_sub(1))),
                        None,
                        None,
                    ));
                }
            }
            "impl" => {
                self.i += 1;
                // Skip generics on `impl<…>`.
                if self.peek(0).is_some_and(|t| t.is_punct(self.src, "<")) {
                    self.skip_angles();
                }
                // Collect path segments until `{`; a `for` splits trait
                // from self type.
                let mut before_for: Vec<String> = Vec::new();
                let mut after_for: Vec<String> = Vec::new();
                let mut seen_for = false;
                while let Some(t) = self.peek(0) {
                    if t.is_punct(self.src, "{") {
                        break;
                    }
                    if t.is_ident(self.src, "for") {
                        seen_for = true;
                    } else if t.is_ident(self.src, "where") {
                        // Skip the where clause (runs to the `{`).
                    } else if t.kind == TokenKind::Ident {
                        let txt = self.text(t).to_string();
                        if seen_for {
                            after_for.push(txt);
                        } else {
                            before_for.push(txt);
                        }
                    } else if t.is_punct(self.src, "<") {
                        self.skip_angles();
                        continue;
                    }
                    self.i += 1;
                }
                let self_type = if seen_for { &after_for } else { &before_for };
                let name = self_type.last().cloned().unwrap_or_default();
                let trait_name = seen_for.then(|| before_for.last().cloned()).flatten();
                if !self.peek(0).is_some_and(|t| t.is_punct(self.src, "{")) {
                    return;
                }
                let open = self.i;
                let close = self.matching(open, "{", "}");
                let mut item = common(
                    ItemKind::Impl,
                    name.clone(),
                    name.clone(),
                    None,
                    (span_from, self.tok_end(close)),
                    Some((self.tok_end(open), self.tok_start(close))),
                    Some((open + 1, close)),
                );
                item.trait_name = trait_name;
                self.out.push(item);
                let sub = Ctx {
                    module_path: ctx.module_path.clone(),
                    self_type: Some(name),
                    cfg_test,
                };
                self.i = open + 1;
                self.items(&sub, close);
                self.i = close + 1;
            }
            "trait" => {
                self.i += 1;
                let Some(name) = self.ident_at(0) else { return };
                self.i += 1;
                while let Some(t) = self.peek(0) {
                    if t.is_punct(self.src, "{") {
                        break;
                    }
                    if t.is_punct(self.src, "<") {
                        self.skip_angles();
                    } else {
                        self.i += 1;
                    }
                }
                if !self.peek(0).is_some_and(|t| t.is_punct(self.src, "{")) {
                    return;
                }
                let open = self.i;
                let close = self.matching(open, "{", "}");
                self.out.push(common(
                    ItemKind::Trait,
                    name.clone(),
                    name.clone(),
                    None,
                    (span_from, self.tok_end(close)),
                    Some((self.tok_end(open), self.tok_start(close))),
                    Some((open + 1, close)),
                ));
                let sub = Ctx {
                    module_path: ctx.module_path.clone(),
                    self_type: Some(name),
                    cfg_test,
                };
                self.i = open + 1;
                self.items(&sub, close);
                self.i = close + 1;
            }
            "struct" | "union" | "enum" => {
                let kind = if kw == "enum" {
                    ItemKind::Enum
                } else {
                    ItemKind::Struct
                };
                self.i += 1;
                let Some(name) = self.ident_at(0) else { return };
                self.i += 1;
                // Runs to `;` (unit/tuple struct) or a `{…}` body. The body
                // span is recorded so `parse_fields` can read the field
                // declarations back out of the token stream.
                let mut end = self.i;
                let mut body: Option<(usize, usize)> = None;
                let mut body_tokens: Option<(usize, usize)> = None;
                while let Some(t) = self.peek(0) {
                    if t.is_punct(self.src, "{") {
                        let open = self.i;
                        let close = self.matching(open, "{", "}");
                        self.i = close + 1;
                        end = close;
                        body = Some((self.tok_end(open), self.tok_start(close)));
                        body_tokens = Some((open + 1, close));
                        break;
                    }
                    if t.is_punct(self.src, "(") {
                        self.i = self.matching(self.i, "(", ")") + 1;
                        continue;
                    }
                    if t.is_punct(self.src, ";") {
                        end = self.i;
                        self.i += 1;
                        break;
                    }
                    if t.is_punct(self.src, "<") {
                        self.skip_angles();
                        continue;
                    }
                    self.i += 1;
                    end = self.i;
                }
                self.out.push(common(
                    kind,
                    name.clone(),
                    name,
                    None,
                    (span_from, self.tok_end(end.min(self.tokens.len() - 1))),
                    body,
                    body_tokens,
                ));
            }
            "use" => {
                self.i += 1;
                let from = self.i;
                while let Some(t) = self.peek(0) {
                    if t.is_punct(self.src, ";") {
                        break;
                    }
                    if t.is_punct(self.src, "{") {
                        self.i = self.matching(self.i, "{", "}") + 1;
                        continue;
                    }
                    self.i += 1;
                }
                let path = self.span_text(from, self.i);
                let end = self.tok_end(self.i.min(self.tokens.len().saturating_sub(1)));
                self.i += 1;
                self.out.push(common(
                    ItemKind::Use,
                    path.clone(),
                    path,
                    None,
                    (span_from, end),
                    None,
                    None,
                ));
            }
            "const" | "static" => {
                // `const fn` is a function; re-dispatch.
                if self.peek(1).is_some_and(|t| t.is_ident(self.src, "fn"))
                    || self.peek(1).is_some_and(|t| t.is_ident(self.src, "unsafe"))
                {
                    self.i += 1;
                    self.dispatch_fn_like(ctx, start_tok, has_doc, attrs, vis_pub, cfg_test);
                    return;
                }
                self.i += 1;
                if self.peek(0).is_some_and(|t| t.is_ident(self.src, "mut")) {
                    self.i += 1;
                }
                let Some(name) = self.ident_at(0) else { return };
                self.i += 1;
                self.skip_to_semicolon();
                self.out.push(common(
                    ItemKind::Const,
                    name.clone(),
                    name,
                    None,
                    (span_from, self.tok_end(self.i.saturating_sub(1))),
                    None,
                    None,
                ));
            }
            "type" => {
                self.i += 1;
                let Some(name) = self.ident_at(0) else { return };
                self.i += 1;
                self.skip_to_semicolon();
                self.out.push(common(
                    ItemKind::TypeAlias,
                    name.clone(),
                    name,
                    None,
                    (span_from, self.tok_end(self.i.saturating_sub(1))),
                    None,
                    None,
                ));
            }
            "macro_rules" => {
                self.i += 1; // macro_rules
                if self.peek(0).is_some_and(|t| t.is_punct(self.src, "!")) {
                    self.i += 1;
                }
                let name = self.ident_at(0).unwrap_or_default();
                if !name.is_empty() {
                    self.i += 1;
                }
                let mut end = self.i;
                if self.peek(0).is_some_and(|t| t.is_punct(self.src, "{")) {
                    end = self.matching(self.i, "{", "}");
                    self.i = end + 1;
                }
                self.out.push(common(
                    ItemKind::MacroRules,
                    name.clone(),
                    name,
                    None,
                    (span_from, self.tok_end(end)),
                    None,
                    None,
                ));
            }
            _ => {
                // Not an item head: skip one balanced chunk so we resync at
                // the next `;` or brace sibling (covers stray exprs,
                // `extern crate`, etc.). `stop` bounds the scan.
                while self.i < self.tokens.len().min(stop) {
                    let t = self.tokens[self.i];
                    if t.is_punct(self.src, ";") {
                        self.i += 1;
                        return;
                    }
                    if t.is_punct(self.src, "{") {
                        self.i = self.matching(self.i, "{", "}") + 1;
                        return;
                    }
                    self.i += 1;
                }
            }
        }
    }

    /// Handles `const fn` after the `const` has been consumed.
    fn dispatch_fn_like(
        &mut self,
        ctx: &Ctx,
        _start_tok: usize,
        has_doc: bool,
        attrs: Vec<String>,
        vis_pub: bool,
        cfg_test: bool,
    ) {
        // Reuse the main path by synthesizing the same pre-state: rewind is
        // not possible, so parse the fn head inline via a nested call.
        while let Some(t) = self.peek(0) {
            if t.is_ident(self.src, "fn") {
                break;
            }
            self.i += 1;
        }
        let before = self.out.len();
        let save_ctx = Ctx {
            module_path: ctx.module_path.clone(),
            self_type: ctx.self_type.clone(),
            cfg_test,
        };
        // Delegate by re-entering `item` at the `fn` keyword.
        self.item_at_fn(&save_ctx, has_doc, attrs, vis_pub);
        debug_assert!(self.out.len() >= before);
    }

    /// Parses a `fn` item whose cursor sits exactly at the `fn` keyword.
    fn item_at_fn(&mut self, ctx: &Ctx, has_doc: bool, attrs: Vec<String>, vis_pub: bool) {
        let Some(t) = self.peek(0) else { return };
        if !t.is_ident(self.src, "fn") {
            return;
        }
        let line = t.line;
        let span_from = t.start;
        self.i += 1;
        let Some(name) = self.ident_at(0) else { return };
        self.i += 1;
        let mut ret: Option<String> = None;
        let mut ret_from: Option<usize> = None;
        let mut depth = 0i32;
        while let Some(t) = self.peek(0) {
            let txt = self.text(t);
            match txt {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "->" if depth == 0 => ret_from = Some(self.i + 1),
                "{" | ";" if depth == 0 => break,
                _ => {}
            }
            self.i += 1;
        }
        if let Some(from) = ret_from {
            ret = Some(self.span_text(from, self.i).trim().to_string()).filter(|r| !r.is_empty());
        }
        let qual = match &ctx.self_type {
            Some(ty) => format!("{ty}::{name}"),
            None => name.clone(),
        };
        let (span_end, body, body_tokens) =
            if self.peek(0).is_some_and(|t| t.is_punct(self.src, "{")) {
                let open = self.i;
                let close = self.matching(open, "{", "}");
                self.i = close + 1;
                (
                    self.tok_end(close),
                    Some((self.tok_end(open), self.tok_start(close))),
                    Some((open + 1, close)),
                )
            } else {
                self.i += 1;
                (self.tok_end(self.i.saturating_sub(1)), None, None)
            };
        let must_use = attrs.iter().any(|a| a.starts_with("#[must_use"));
        self.out.push(Item {
            kind: ItemKind::Fn,
            name,
            qual,
            module_path: ctx.module_path.clone(),
            trait_name: None,
            vis_pub,
            cfg_test: ctx.cfg_test,
            has_doc,
            attrs,
            must_use,
            ret,
            span: (span_from, span_end),
            body,
            body_tokens,
            line,
        });
    }

    fn ident_at(&self, ahead: usize) -> Option<String> {
        self.peek(ahead)
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| self.text(t).to_string())
    }

    /// Token index of the closer matching the opener at `open`.
    fn matching(&self, open: usize, op: &str, cl: &str) -> usize {
        let mut depth = 0usize;
        let mut j = open;
        while j < self.tokens.len() {
            let t = &self.tokens[j];
            if t.is_punct(self.src, op) {
                depth += 1;
            } else if t.is_punct(self.src, cl) {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            j += 1;
        }
        self.tokens.len().saturating_sub(1)
    }

    /// Skips a balanced `<…>` group starting at the cursor.
    fn skip_angles(&mut self) {
        let mut depth = 0i32;
        while let Some(t) = self.peek(0) {
            if t.is_punct(self.src, "<") || t.is_punct(self.src, "<<") {
                depth += if self.text(t) == "<<" { 2 } else { 1 };
            } else if t.is_punct(self.src, ">") || t.is_punct(self.src, ">=") {
                depth -= 1;
            }
            self.i += 1;
            if depth <= 0 {
                return;
            }
        }
    }

    fn skip_to_semicolon(&mut self) {
        while let Some(t) = self.peek(0) {
            if t.is_punct(self.src, ";") {
                self.i += 1;
                return;
            }
            if t.is_punct(self.src, "{") {
                self.i = self.matching(self.i, "{", "}") + 1;
                continue;
            }
            self.i += 1;
        }
    }

    /// Source text spanned by tokens `[from, to)`.
    fn span_text(&self, from: usize, to: usize) -> String {
        if from >= self.tokens.len() || from >= to {
            return String::new();
        }
        let a = self.tokens[from].start;
        let b = self.tokens[(to - 1).min(self.tokens.len() - 1)].end;
        self.src[a..b].to_string()
    }

    fn tok_start(&self, idx: usize) -> usize {
        self.tokens.get(idx).map_or(self.src.len(), |t| t.start)
    }

    fn tok_end(&self, idx: usize) -> usize {
        self.tokens.get(idx).map_or(self.src.len(), |t| t.end)
    }
}

fn join_path(base: &str, name: &str) -> String {
    if base.is_empty() {
        name.to_string()
    } else {
        format!("{base}::{name}")
    }
}

/// Whether an attribute gates its item to test builds: `#[cfg(test)]`,
/// `#[cfg(all(test, …))]`, `#[cfg(any(test, …))]`.
fn is_cfg_test(attr: &str) -> bool {
    attr.starts_with("#[cfg")
        && attr
            .split(|c: char| !c.is_alphanumeric() && c != '_')
            .any(|w| w == "test")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> ParsedFile {
        ParsedFile::parse(src)
    }

    fn find<'a>(f: &'a ParsedFile, name: &str) -> &'a Item {
        f.items
            .iter()
            .find(|it| it.name == name)
            .unwrap_or_else(|| panic!("no item `{name}` in {:?}", f.items))
    }

    #[test]
    fn free_fn_with_return_type() {
        let f = parse("pub fn go(x: u8) -> Result<u32, String> { Ok(x as u32) }");
        let it = find(&f, "go");
        assert_eq!(it.kind, ItemKind::Fn);
        assert!(it.vis_pub);
        assert_eq!(it.ret.as_deref(), Some("Result<u32, String>"));
        assert!(it.body.is_some());
    }

    #[test]
    fn impl_methods_get_qualified_names() {
        let f = parse(
            "struct S;\nimpl S {\n  pub fn new() -> S { S }\n  fn helper(&self) {}\n}\n\
             impl std::fmt::Debug for S {\n  fn fmt(&self) {}\n}",
        );
        assert!(f.items.iter().any(|i| i.qual == "S::new" && i.vis_pub));
        assert!(f.items.iter().any(|i| i.qual == "S::helper" && !i.vis_pub));
        let dbg = f
            .items
            .iter()
            .find(|i| i.kind == ItemKind::Impl && i.trait_name.is_some())
            .expect("trait impl");
        assert_eq!(dbg.trait_name.as_deref(), Some("Debug"));
        assert_eq!(dbg.name, "S");
        assert!(f.items.iter().any(|i| i.qual == "S::fmt"));
    }

    #[test]
    fn impl_with_generics() {
        let f = parse("impl<T: Clone> Wrapper<T> {\n  fn get(&self) -> T { todo() }\n}");
        assert!(f.items.iter().any(|i| i.qual == "Wrapper::get"));
    }

    #[test]
    fn mod_decl_vs_inline_mod() {
        let f = parse("pub mod on_disk;\nmod inline_mod {\n  fn inner() {}\n}");
        assert_eq!(find(&f, "on_disk").kind, ItemKind::ModDecl);
        assert_eq!(find(&f, "inline_mod").kind, ItemKind::ModInline);
        assert_eq!(find(&f, "inner").module_path, "inline_mod");
    }

    #[test]
    fn cfg_test_inherits_into_nested_modules_and_impls() {
        let f = parse(
            "#[cfg(test)]\nmod tests {\n  mod deeper {\n    fn leaf() {}\n  }\n  \
             struct T;\n  impl T {\n    fn m(&self) {}\n  }\n}\nfn live() {}",
        );
        assert!(find(&f, "leaf").cfg_test);
        assert!(
            f.items
                .iter()
                .find(|i| i.qual == "T::m")
                .expect("m")
                .cfg_test
        );
        assert!(!find(&f, "live").cfg_test);
    }

    #[test]
    fn cfg_test_on_impl_block_directly() {
        let f = parse("struct S;\n#[cfg(test)]\nimpl S {\n  fn only_in_tests(&self) {}\n}");
        assert!(
            f.items
                .iter()
                .find(|i| i.qual == "S::only_in_tests")
                .expect("method")
                .cfg_test
        );
    }

    #[test]
    fn docs_and_derives_are_attributed() {
        let f = parse(
            "/// Documented.\n#[derive(Debug, Clone)]\npub struct Doc(u8);\n\
             pub struct Bare(u8);",
        );
        let doc = find(&f, "Doc");
        assert!(doc.has_doc);
        assert!(doc.attrs.iter().any(|a| a.contains("derive")));
        let bare = find(&f, "Bare");
        assert!(!bare.has_doc);
        assert!(bare.attrs.is_empty());
    }

    #[test]
    fn const_fn_is_a_fn_and_const_item_is_not() {
        let f = parse("pub const fn pow2(x: u32) -> u64 { 1 << x }\npub const LIMIT: usize = 4;");
        assert_eq!(find(&f, "pow2").kind, ItemKind::Fn);
        assert_eq!(find(&f, "LIMIT").kind, ItemKind::Const);
    }

    #[test]
    fn must_use_and_use_paths() {
        let f = parse("#[must_use]\npub fn important() -> u8 { 1 }\nuse crate::other::Thing;");
        assert!(find(&f, "important").must_use);
        assert!(f
            .items
            .iter()
            .any(|i| i.kind == ItemKind::Use && i.name.contains("crate::other::Thing")));
    }

    #[test]
    fn macro_rules_is_an_exempt_region() {
        let f = parse("macro_rules! chk {\n  ($x:expr) => { $x.unwrap() };\n}\nfn after() {}");
        let mr = find(&f, "chk");
        assert_eq!(mr.kind, ItemKind::MacroRules);
        let ranges = f.exempt_ranges();
        let unwrap_pos = f.src.find("unwrap").expect("present");
        assert!(f.is_exempt(&ranges, unwrap_pos));
        assert!(!find(&f, "after").cfg_test);
    }

    #[test]
    fn trait_methods_are_parsed_with_and_without_bodies() {
        let f = parse(
            "pub trait Manager {\n  fn on_access(&mut self, a: u64) -> Result<(), ()>;\n  \
             fn name(&self) -> &str { \"m\" }\n}",
        );
        let req = f
            .items
            .iter()
            .find(|i| i.qual == "Manager::on_access")
            .expect("req");
        assert!(req.body.is_none());
        assert_eq!(req.ret.as_deref(), Some("Result<(), ()>"));
        let def = f
            .items
            .iter()
            .find(|i| i.qual == "Manager::name")
            .expect("def");
        assert!(def.body.is_some());
    }

    #[test]
    fn struct_bodies_are_recorded_for_field_extraction() {
        let f = parse(
            "pub struct Engine {\n  owners: HashMap<u64, u8>,\n  total: u64,\n}\n\
             pub struct Unit;\npub struct Tuple(u8, u16);",
        );
        let engine = find(&f, "Engine");
        let (from, to) = engine.body.expect("brace-bodied struct has a body span");
        assert!(f.src[from..to].contains("owners"));
        assert!(f.src[from..to].contains("total"));
        assert!(engine.body_tokens.is_some());
        assert!(find(&f, "Unit").body.is_none());
        assert!(find(&f, "Tuple").body.is_none());
    }

    #[test]
    fn field_parsing_handles_attrs_docs_and_generics() {
        let f = parse(
            "pub struct S {\n\
               /// Doc.\n\
               #[serde(skip)]\n\
               pub owners: HashMap<u64, (u8, u8)>,\n\
               pub(crate) lanes: BTreeMap<i64, VecDeque<usize>>,\n\
               plain: u64,\n\
             }\n",
        );
        let (from, to) = find(&f, "S").body_tokens.expect("body");
        let fields = parse_fields(&f, from, to);
        let names: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["owners", "lanes", "plain"]);
        assert_eq!(fields[0].ty, "HashMap<u64, (u8, u8)>");
        assert_eq!(fields[1].ty, "BTreeMap<i64, VecDeque<usize>>");
        assert_eq!(fields[2].ty, "u64");
    }

    #[test]
    fn where_clause_does_not_leak_into_return_type() {
        let f = parse("fn f<T>(x: T) -> Option<T> where T: Clone { Some(x) }");
        assert_eq!(find(&f, "f").ret.as_deref(), Some("Option<T>"));
    }
}
