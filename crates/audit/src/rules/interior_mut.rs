//! `interior-mut`: interior mutability and global state in
//! simulation-visible code.
//!
//! `static mut`, `thread_local!`, and the cell/lock types let state
//! change through shared references — exactly how hidden cross-shard
//! coupling would sneak past the `&mut` split that hands each shard to its
//! worker. Hot-path state must
//! be owned and passed by `&mut`; intentional shared handles (the
//! parallel runner's result collection) are frozen in the baseline with a
//! note. Plain atomics are deliberately not flagged: the progress board
//! is lock-free by design and atomics cannot deadlock a shard.

use crate::lexer::TokenKind;
use crate::lint::Violation;
use crate::parser::ParsedFile;

/// Interior-mutability cells and locks.
const CELL_TYPES: &[&str] = &[
    "RefCell",
    "Cell",
    "UnsafeCell",
    "OnceCell",
    "LazyCell",
    "OnceLock",
    "LazyLock",
    "Mutex",
    "RwLock",
];

/// Runs the rule over one file.
pub fn check(rel: &str, pf: &ParsedFile, out: &mut Vec<Violation>) {
    let mut exempt = pf.exempt_ranges();
    // `use` declarations are imports, not uses: the construction/typing
    // site is what gets flagged (one finding per site, not two).
    exempt.extend(
        pf.items
            .iter()
            .filter(|it| it.kind == crate::parser::ItemKind::Use)
            .map(|it| it.span),
    );
    let src = &pf.src;
    let toks = &pf.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokenKind::Ident || pf.is_exempt(&exempt, t.start) {
            continue;
        }
        let text = t.text(src);
        let found = if text == "static" && toks.get(i + 1).is_some_and(|n| n.is_ident(src, "mut")) {
            Some("`static mut` global state")
        } else if text == "thread_local" && toks.get(i + 1).is_some_and(|n| n.is_punct(src, "!")) {
            Some("`thread_local!` state")
        } else if CELL_TYPES.contains(&text) {
            // Flag type uses, not coincidental identifiers: the next token
            // is `::` (constructor), `<` (type position), or `(`/`{` never
            // follows a bare type name here.
            let next_ok = toks.get(i + 1).is_some_and(|n| {
                n.is_punct(src, "::") || n.is_punct(src, "<") || n.is_punct(src, ">")
            }) || (i > 0 && toks[i - 1].is_punct(src, "<"))
                || (i > 0 && toks[i - 1].is_punct(src, "::"));
            next_ok.then_some("interior mutability")
        } else {
            None
        };
        if let Some(what) = found {
            out.push(super::violation(
                rel,
                pf,
                t.line,
                t.start,
                "interior-mut",
                format!(
                    "{what} (`{text}`) on the hot path hides writes behind a \
                     shared reference and couples shards; own the state and pass \
                     it by `&mut`, or freeze an intentional shared handle in the \
                     baseline with a note"
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
    fn flags_static_mut_thread_local_and_cells() {
        let v = run("static mut COUNTER: u64 = 0;\n\
             thread_local! { static TL: u8 = 0; }\n\
             fn f() { let c = RefCell::new(1u8); let _ = c; }\n\
             struct S { m: Mutex<Vec<u8>> }\n");
        let rules: Vec<usize> = v.iter().map(|v| v.line).collect();
        assert_eq!(rules, [1, 2, 3, 4], "{v:?}");
        assert!(v.iter().all(|v| v.rule == "interior-mut"));
    }

    #[test]
    fn plain_statics_atomics_and_unrelated_idents_pass() {
        let v = run("static LIMIT: u64 = 4;\n\
             fn f(p: &AtomicU64) -> u64 { p.load(Ordering::Relaxed) }\n\
             fn g() { let cell_count = 3; let _ = cell_count; }\n");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn tests_are_exempt() {
        let v = run("#[cfg(test)]\nmod tests {\n  use std::sync::Mutex;\n  \
             fn t() { let _ = Mutex::new(0u8); }\n}\n");
        assert!(v.is_empty(), "{v:?}");
    }
}
