//! `nondet-iter` / `nondet-float-reduce`: iteration over `HashMap` /
//! `HashSet` state in simulation-visible code.
//!
//! Hash iteration order is unspecified and varies run-to-run (and
//! build-to-build), so any hot-path loop over an unordered collection can
//! leak nondeterminism into simulation results — the exact property the
//! sharded `Simulator::run` of ROADMAP item 1 must exclude. Reductions
//! into floats are the worst case (float addition is not associative), so
//! they get their own rule id. Genuinely order-insensitive sites (pure
//! counting, full-sort-after-collect) are frozen in the baseline with a
//! note, not exempted here.
//!
//! Receivers are resolved within the file: fields of structs declared in
//! it (via the parser's field extraction) whose type mentions
//! `HashMap`/`HashSet`, plus `let` bindings whose statement does.

use std::collections::HashSet;

use crate::lexer::TokenKind;
use crate::lint::Violation;
use crate::parser::{parse_fields, ItemKind, ParsedFile};

/// Methods that iterate their receiver in hash order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
];

/// Reduction adapters that make iteration order observable in a float.
const REDUCERS: &[&str] = &["sum", "product", "fold"];

/// Whether declared type text names an unordered collection: `HashMap`
/// or `HashSet` as a whole identifier (not `BTreeMap`, not `MyHashMap`).
fn unordered_type(ty: &str) -> bool {
    ty.split(|c: char| !c.is_alphanumeric() && c != '_')
        .any(|w| w == "HashMap" || w == "HashSet")
}

/// Runs the rule over one file.
pub fn check(rel: &str, pf: &ParsedFile, out: &mut Vec<Violation>) {
    let exempt = pf.exempt_ranges();
    let src = &pf.src;
    let toks = &pf.tokens;

    // Unordered-typed fields declared in this file.
    let mut unordered_fields: HashSet<String> = HashSet::new();
    for item in &pf.items {
        if item.kind != ItemKind::Struct || item.cfg_test {
            continue;
        }
        let Some((from, to)) = item.body_tokens else {
            continue;
        };
        for f in parse_fields(pf, from, to) {
            if unordered_type(&f.ty) {
                unordered_fields.insert(f.name);
            }
        }
    }

    // Unordered-typed locals: a `let` statement whose tokens (up to the
    // terminating `;` at depth 0) mention HashMap/HashSet.
    let mut unordered_locals: HashSet<String> = HashSet::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is_ident(src, "let") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| t.is_ident(src, "mut")) {
            j += 1;
        }
        let Some(name_tok) = toks.get(j).filter(|t| t.kind == TokenKind::Ident) else {
            i += 1;
            continue;
        };
        let name = name_tok.text(src).to_string();
        let mut depth = 0i32;
        let mut mentions = false;
        let mut k = j + 1;
        while k < toks.len() {
            let t = &toks[k];
            match t.text(src) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                ";" if depth <= 0 => break,
                "HashMap" | "HashSet" if t.kind == TokenKind::Ident => mentions = true,
                _ => {}
            }
            k += 1;
        }
        if mentions {
            unordered_locals.insert(name);
        }
        i = j + 1;
    }

    let is_unordered_receiver = |idx: usize| -> bool {
        // `idx` is the token index of the candidate receiver identifier.
        let t = &toks[idx];
        if t.kind != TokenKind::Ident {
            return false;
        }
        let name = t.text(src);
        if idx > 0 && toks[idx - 1].is_punct(src, ".") {
            // `x.field` — a field access: unordered if the field is one of
            // this file's unordered-typed fields.
            return unordered_fields.contains(name);
        }
        unordered_locals.contains(name) || (name != "self" && unordered_fields.contains(name))
    };

    let mut sites: Vec<(usize, String)> = Vec::new(); // (token index, receiver text)

    // `recv.iter()` / `self.field.keys()` / `map.drain()` …
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokenKind::Ident || pf.is_exempt(&exempt, t.start) {
            continue;
        }
        let text = t.text(src);
        if !ITER_METHODS.contains(&text) {
            continue;
        }
        if !(i >= 2 && toks[i - 1].is_punct(src, ".")) {
            continue;
        }
        if !toks.get(i + 1).is_some_and(|n| n.is_punct(src, "(")) {
            continue;
        }
        if is_unordered_receiver(i - 2) {
            sites.push((i, format!("{}.{text}()", toks[i - 2].text(src))));
        }
    }

    // `for pat in &map` / `for pat in map` / `for pat in &mut map`.
    for i in 0..toks.len() {
        if !toks[i].is_ident(src, "in") || pf.is_exempt(&exempt, toks[i].start) {
            continue;
        }
        // Confirm a `for` opens this clause (scan back a short window).
        let back = i.saturating_sub(12);
        if !(back..i).rev().any(|k| toks[k].is_ident(src, "for")) {
            continue;
        }
        let mut j = i + 1;
        while toks
            .get(j)
            .is_some_and(|t| t.is_punct(src, "&") || t.is_ident(src, "mut"))
        {
            j += 1;
        }
        // Receiver may be `name` or `self . field` (flag only when the
        // collection itself is the loop subject, not an `.iter()` chain —
        // those were caught above).
        let Some(rt) = toks.get(j) else { continue };
        if rt.kind != TokenKind::Ident {
            continue;
        }
        let mut recv_idx = j;
        if rt.is_ident(src, "self")
            && toks.get(j + 1).is_some_and(|t| t.is_punct(src, "."))
            && toks.get(j + 2).is_some_and(|t| t.kind == TokenKind::Ident)
        {
            recv_idx = j + 2;
        }
        // Only a bare receiver (next token opens the loop body or closes
        // the expression) counts; method chains were handled above.
        let after = toks.get(recv_idx + 1);
        if !after.is_some_and(|t| t.is_punct(src, "{")) {
            continue;
        }
        if is_unordered_receiver(recv_idx) {
            sites.push((recv_idx, format!("for … in {}", toks[recv_idx].text(src))));
        }
    }

    sites.sort_by_key(|&(i, _)| i);
    sites.dedup_by_key(|&mut (i, _)| i);

    for (i, what) in sites {
        let t = &toks[i];
        // Float-reduction scan: from the site to the end of the statement
        // (or a short window), look for a reducer plus float evidence.
        let mut reducer = false;
        let mut float = false;
        let mut depth = 0i32;
        for tk in toks.iter().skip(i).take(80) {
            match tk.text(src) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth < 0 {
                        break;
                    }
                }
                ";" if depth <= 0 => break,
                "f32" | "f64" if tk.kind == TokenKind::Ident => float = true,
                txt if tk.kind == TokenKind::Ident && REDUCERS.contains(&txt) => reducer = true,
                _ => {}
            }
            if tk.kind == TokenKind::Number && tk.text(src).contains('.') {
                float = true;
            }
        }
        if reducer && float {
            out.push(super::violation(
                rel,
                pf,
                t.line,
                t.start,
                "nondet-float-reduce",
                format!(
                    "`{what}` feeds a float reduction in hash order; float addition \
                     is not associative, so the result depends on iteration order — \
                     sort the elements (or use a BTreeMap/BTreeSet) first"
                ),
            ));
        } else {
            out.push(super::violation(
                rel,
                pf,
                t.line,
                t.start,
                "nondet-iter",
                format!(
                    "`{what}` iterates a HashMap/HashSet in nondeterministic order on \
                     simulation-visible state; use BTreeMap/BTreeSet or sort before \
                     iterating (order-insensitive uses may be frozen in the baseline \
                     with a note)"
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Violation> {
        let pf = ParsedFile::parse(src);
        let mut v = Vec::new();
        check("f.rs", &pf, &mut v);
        v
    }

    #[test]
    fn flags_field_iteration_through_self() {
        let v = run(
            "struct T { entries: HashMap<u64, u64>, k: usize }\n\
             impl T {\n  fn hot(&self) -> Vec<u64> { self.entries.iter().map(|(&p, _)| p).collect() }\n\
             fn count(&self) -> usize { self.k }\n}\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "nondet-iter");
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn flags_local_map_iteration_and_for_loops() {
        let v = run(
            "fn f() {\n  let mut m = HashMap::new();\n  m.insert(1, 2);\n  \
             for (k, _) in &m { let _ = k; }\n  let tot: u64 = m.values().copied().collect();\n  let _ = tot;\n}\n",
        );
        let rules: Vec<&str> = v.iter().map(|v| v.rule.as_str()).collect();
        assert_eq!(rules, ["nondet-iter", "nondet-iter"], "{v:?}");
    }

    #[test]
    fn float_reduction_is_its_own_rule() {
        let v = run("struct T { w: HashMap<u64, f64> }\n\
             impl T {\n  fn total(&self) -> f64 { self.w.values().sum::<f64>() }\n}\n");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "nondet-float-reduce");
    }

    #[test]
    fn ordered_collections_and_unrelated_receivers_pass() {
        let v = run(
            "struct T { entries: BTreeMap<u64, u64>, names: Vec<String> }\n\
             impl T {\n  fn a(&self) { for n in &self.names { let _ = n; } }\n  \
             fn b(&self) -> usize { self.entries.iter().count() }\n}\n\
             fn c() { let v = vec![1]; let s: u64 = v.iter().sum(); let _ = s; }\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn tests_and_macro_rules_are_exempt() {
        let v = run(
            "#[cfg(test)]\nmod tests {\n  fn t() { let m: HashMap<u8, u8> = HashMap::new(); \
             for x in &m { let _ = x; } }\n}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn contains_and_get_do_not_count_as_iteration() {
        let v = run("struct T { hot: HashSet<u64> }\n\
             impl T {\n  fn f(&self) -> bool { self.hot.contains(&3) }\n}\n");
        assert!(v.is_empty(), "{v:?}");
    }
}
