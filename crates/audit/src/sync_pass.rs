//! Concurrency audit: lock-acquisition ordering and atomic-ordering
//! consistency.
//!
//! Two lint rules over the workspace source model, run by
//! `cargo run -p mempod-audit -- lint` through [`check`]:
//!
//! * **`lock-order-cycle`** — a directed graph over named locks: an edge
//!   `A → B` means some function acquires `A` and then (directly, or
//!   through a callee chain) acquires `B`. Any cycle is a potential
//!   AB/BA deadlock. Acquisition sites are `.lock(` calls; the lock's
//!   name is the receiver identifier, so two fields that share a name
//!   are conservatively merged (over-approximation: the pass may report
//!   a cycle that cannot fire, never the reverse).
//! * **`atomic-ordering-mismatch`** — per atomic (again named by the
//!   receiver identifier), the orderings of every `load`/`store`/RMW
//!   site are aggregated. An `Acquire` load whose writers are all
//!   `Relaxed` synchronizes with nothing, and a `Release` store nobody
//!   `Acquire`-loads publishes to nobody; both halves of the broken pair
//!   are flagged. All-`Relaxed` counters (the progress board) are
//!   deliberate and pass untouched.
//!
//! Like the rest of the auditor this is token-level, not type-level:
//! receiver-name identity stands in for object identity. That is exactly
//! the right bias for a deadlock screen (merging distinct locks can only
//! add edges).

use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::callgraph::Model;
use crate::lexer::TokenKind;
use crate::lint::Violation;
use crate::parser::ItemKind;

/// Crates the concurrency rules scan: the migration pipeline plus
/// telemetry (whose sink lock and phase counters the sharded driver uses).
/// The bench/audit tooling is out of scope.
const SCOPE_CRATES: &[&str] = &[
    "mempod-core",
    "mempod-dram",
    "mempod-sim",
    "mempod-tracker",
    "mempod-telemetry",
];

/// Atomic access methods that take an `Ordering` argument.
const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_min",
    "fetch_max",
    "fetch_update",
];

/// One `A → B` acquisition-order edge.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct LockEdge {
    /// Lock held (acquired earlier in the same function).
    pub from: String,
    /// Lock acquired while `from` may still be held.
    pub to: String,
    /// File of the second acquisition (or the call that reaches it).
    pub file: String,
    /// Line of the second acquisition (or the call that reaches it).
    pub line: u32,
}

/// What an atomic access does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AtomicAccess {
    /// `load`.
    Load,
    /// `store`.
    Store,
    /// Read-modify-write (`fetch_*`, `swap`, `compare_exchange*`).
    Rmw,
}

/// One atomic access site with its ordering.
#[derive(Debug, Clone)]
struct AtomicSite {
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Atomic name (receiver identifier).
    pub name: String,
    /// Access kind.
    pub access: AtomicAccess,
    /// Ordering tokens found in the call (two for `compare_exchange`).
    pub orderings: Vec<String>,
}

/// One mismatched acquire/release pairing.
#[derive(Debug, Clone)]
struct AtomicMismatch {
    /// What is inconsistent.
    pub detail: String,
    /// Representative site.
    pub file: String,
    /// Representative line.
    pub line: u32,
}

/// What [`check`] turns into violations.
#[derive(Debug, Default)]
struct SyncReport {
    /// The acquisition-order edges.
    edges: Vec<LockEdge>,
    /// Lock-name cycles (each a list of participating locks).
    cycles: Vec<Vec<String>>,
    /// Acquire/release pairings that synchronize with nothing.
    mismatches: Vec<AtomicMismatch>,
}

/// Is this ordering an acquire (or stronger) for loads?
fn is_acquire(o: &str) -> bool {
    matches!(o, "Acquire" | "AcqRel" | "SeqCst")
}

/// Is this ordering a release (or stronger) for stores/RMWs?
fn is_release(o: &str) -> bool {
    matches!(o, "Release" | "AcqRel" | "SeqCst")
}

/// One event inside a function body, in token order.
#[derive(Debug)]
enum BodyEvent {
    /// Acquisition of the named lock.
    Lock(String, u32),
    /// A call to a workspace function (possible indirect acquisition).
    Call(String, u32),
}

/// Runs the concurrency analysis over the model.
fn analyze_sync(model: &Model) -> SyncReport {
    let mut report = SyncReport::default();
    let mut atomic_sites = Vec::new();

    // Per-function body events, and the set of locks each function
    // acquires directly. Function identity is (file idx, item idx).
    let mut events: HashMap<(usize, usize), Vec<BodyEvent>> = HashMap::new();
    let mut direct: HashMap<(usize, usize), BTreeSet<String>> = HashMap::new();
    let mut by_name: HashMap<String, Vec<(usize, usize)>> = HashMap::new();

    for (fi, file) in model.files.iter().enumerate() {
        if !SCOPE_CRATES.contains(&file.crate_name.as_str()) {
            continue;
        }
        let pf = &file.parsed;
        let exempt = pf.exempt_ranges();
        scan_atomics(&file.rel, pf, &exempt, &mut atomic_sites);

        for (ii, item) in pf.items.iter().enumerate() {
            if item.kind != ItemKind::Fn || item.cfg_test {
                continue;
            }
            by_name.entry(item.name.clone()).or_default().push((fi, ii));
            let Some((from, to)) = item.body_tokens else {
                continue;
            };
            let mut evs = Vec::new();
            let toks = &pf.tokens;
            let src = &pf.src;
            for i in from..to.min(toks.len()) {
                let t = &toks[i];
                if t.kind != TokenKind::Ident {
                    continue;
                }
                let text = t.text(src);
                let after_dot = i > from && toks[i - 1].is_punct(src, ".");
                let called = toks.get(i + 1).is_some_and(|n| n.is_punct(src, "("));
                if !called {
                    continue;
                }
                if after_dot && text == "lock" {
                    if let Some(recv) = receiver_name(pf, i - 1) {
                        direct.entry((fi, ii)).or_default().insert(recv.clone());
                        evs.push(BodyEvent::Lock(recv, t.line));
                    }
                } else if !ATOMIC_METHODS.contains(&text) {
                    evs.push(BodyEvent::Call(text.to_string(), t.line));
                }
            }
            events.insert((fi, ii), evs);
        }
    }

    // Transitive acquired-lock summaries, to a fixpoint: a call edge is
    // any `name(` whose name matches a workspace fn (over-approximate,
    // matching the coverage call graph).
    let mut trans: HashMap<(usize, usize), BTreeSet<String>> = direct.clone();
    loop {
        let mut changed = false;
        for (id, evs) in &events {
            let mut acc: BTreeSet<String> = trans.get(id).cloned().unwrap_or_default();
            for ev in evs {
                if let BodyEvent::Call(name, _) = ev {
                    for callee in by_name.get(name).into_iter().flatten() {
                        if let Some(locks) = trans.get(callee) {
                            acc.extend(locks.iter().cloned());
                        }
                    }
                }
            }
            if trans.get(id) != Some(&acc) {
                trans.insert(*id, acc);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Edges: after acquiring L, any later direct acquisition M (M != L)
    // or call reaching M adds L → M. Guard drops are not tracked, so
    // "later in the body" over-approximates "while held" — safe for a
    // deadlock screen.
    let mut edge_set: BTreeSet<LockEdge> = BTreeSet::new();
    for ((fi, _ii), evs) in &events {
        let file = &model.files[*fi];
        for (i, ev) in evs.iter().enumerate() {
            let BodyEvent::Lock(held, _) = ev else {
                continue;
            };
            for later in &evs[i + 1..] {
                match later {
                    BodyEvent::Lock(next, line) if next != held => {
                        edge_set.insert(LockEdge {
                            from: held.clone(),
                            to: next.clone(),
                            file: file.rel.clone(),
                            line: *line,
                        });
                    }
                    BodyEvent::Call(name, line) => {
                        for callee in by_name.get(name).into_iter().flatten() {
                            for reached in trans.get(callee).into_iter().flatten() {
                                if reached != held {
                                    edge_set.insert(LockEdge {
                                        from: held.clone(),
                                        to: reached.clone(),
                                        file: file.rel.clone(),
                                        line: *line,
                                    });
                                }
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    report.edges = edge_set.into_iter().collect();
    report.cycles = find_cycles(&report.edges);
    report.mismatches = find_mismatches(&atomic_sites);
    report
}

/// The receiver identifier for a method call: the identifier token just
/// before the `.` at token index `dot`.
fn receiver_name(pf: &crate::parser::ParsedFile, dot: usize) -> Option<String> {
    if dot == 0 {
        return None;
    }
    let prev = &pf.tokens[dot - 1];
    // `foo.lock()` and `self.foo.lock()` both name `foo`; a call-chain
    // receiver (`handle().lock()`) has `)` here and stays anonymous.
    (prev.kind == TokenKind::Ident).then(|| prev.text(&pf.src).to_string())
}

/// Scans one file for atomic accesses: `.method(… Ordering::X …)` where
/// `method` is an atomic accessor. Requiring an `Ordering::` token inside
/// the call parentheses is what keeps unrelated `load`/`store` methods
/// out.
fn scan_atomics(
    rel: &str,
    pf: &crate::parser::ParsedFile,
    exempt: &[(usize, usize)],
    out: &mut Vec<AtomicSite>,
) {
    let src = &pf.src;
    let toks = &pf.tokens;
    for i in 1..toks.len() {
        let t = &toks[i];
        if t.kind != TokenKind::Ident || pf.is_exempt(exempt, t.start) {
            continue;
        }
        let method = t.text(src);
        if !ATOMIC_METHODS.contains(&method)
            || !toks[i - 1].is_punct(src, ".")
            || !toks.get(i + 1).is_some_and(|n| n.is_punct(src, "("))
        {
            continue;
        }
        let Some(recv) = receiver_name(pf, i - 1) else {
            continue;
        };
        // Collect `Ordering::X` triples up to the matching `)`.
        let mut depth = 0usize;
        let mut orderings = Vec::new();
        let mut j = i + 1;
        while j < toks.len() {
            let tj = &toks[j];
            if tj.is_punct(src, "(") {
                depth += 1;
            } else if tj.is_punct(src, ")") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if tj.is_ident(src, "Ordering")
                && toks.get(j + 1).is_some_and(|n| n.is_punct(src, "::"))
            {
                if let Some(o) = toks.get(j + 2) {
                    if o.kind == TokenKind::Ident {
                        orderings.push(o.text(src).to_string());
                    }
                }
            }
            j += 1;
        }
        if orderings.is_empty() {
            continue;
        }
        out.push(AtomicSite {
            file: rel.to_string(),
            line: t.line,
            name: recv,
            access: match method {
                "load" => AtomicAccess::Load,
                "store" => AtomicAccess::Store,
                _ => AtomicAccess::Rmw,
            },
            orderings,
        });
    }
}

/// Flags atomics whose acquire/release halves do not pair up.
fn find_mismatches(sites: &[AtomicSite]) -> Vec<AtomicMismatch> {
    let mut by_name: BTreeMap<&str, Vec<&AtomicSite>> = BTreeMap::new();
    for s in sites {
        by_name.entry(&s.name).or_default().push(s);
    }
    let mut out = Vec::new();
    for (name, sites) in by_name {
        let loads: Vec<&&AtomicSite> = sites
            .iter()
            .filter(|s| s.access == AtomicAccess::Load)
            .collect();
        let writes: Vec<&&AtomicSite> = sites
            .iter()
            .filter(|s| s.access != AtomicAccess::Load)
            .collect();
        let any_acquire_load = loads
            .iter()
            .any(|s| s.orderings.iter().any(|o| is_acquire(o)));
        let any_release_write = writes
            .iter()
            .any(|s| s.orderings.iter().any(|o| is_release(o)));
        if any_acquire_load && !writes.is_empty() && !any_release_write {
            let site = loads
                .iter()
                .find(|s| s.orderings.iter().any(|o| is_acquire(o)))
                .expect("an acquire load exists");
            out.push(AtomicMismatch {
                detail: format!(
                    "`{name}` is Acquire-loaded but every write is Relaxed: \
                     the load synchronizes with nothing"
                ),
                file: site.file.clone(),
                line: site.line,
            });
        }
        if any_release_write && !loads.is_empty() && !any_acquire_load {
            let site = writes
                .iter()
                .find(|s| s.orderings.iter().any(|o| is_release(o)))
                .expect("a release write exists");
            out.push(AtomicMismatch {
                detail: format!(
                    "`{name}` is Release-written but every load is Relaxed: \
                     the store publishes to nobody"
                ),
                file: site.file.clone(),
                line: site.line,
            });
        }
    }
    out
}

/// Finds cycles in the lock graph: strongly connected components with
/// more than one node, plus self-loops.
fn find_cycles(edges: &[LockEdge]) -> Vec<Vec<String>> {
    let mut nodes: BTreeSet<&str> = BTreeSet::new();
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in edges {
        nodes.insert(&e.from);
        nodes.insert(&e.to);
        adj.entry(&e.from).or_default().insert(&e.to);
    }
    // Iterative Tarjan SCC.
    #[derive(Default)]
    struct St<'a> {
        index: HashMap<&'a str, usize>,
        low: HashMap<&'a str, usize>,
        on_stack: BTreeSet<&'a str>,
        stack: Vec<&'a str>,
        next: usize,
        sccs: Vec<Vec<String>>,
    }
    let mut st = St::default();
    for &start in &nodes {
        if st.index.contains_key(start) {
            continue;
        }
        // (node, neighbor iterator position)
        let mut call: Vec<(&str, Vec<&str>, usize)> = Vec::new();
        fn neigh<'a>(n: &str, adj: &BTreeMap<&'a str, BTreeSet<&'a str>>) -> Vec<&'a str> {
            adj.get(n)
                .map(|s| s.iter().copied().collect())
                .unwrap_or_default()
        }
        st.index.insert(start, st.next);
        st.low.insert(start, st.next);
        st.next += 1;
        st.stack.push(start);
        st.on_stack.insert(start);
        call.push((start, neigh(start, &adj), 0));
        while let Some((node, ns, pos)) = call.last_mut() {
            if *pos < ns.len() {
                let m = ns[*pos];
                *pos += 1;
                if !st.index.contains_key(m) {
                    st.index.insert(m, st.next);
                    st.low.insert(m, st.next);
                    st.next += 1;
                    st.stack.push(m);
                    st.on_stack.insert(m);
                    call.push((m, neigh(m, &adj), 0));
                } else if st.on_stack.contains(m) {
                    let ml = st.index[m];
                    let e = st.low.get_mut(*node).expect("visited");
                    *e = (*e).min(ml);
                }
            } else {
                let node = *node;
                if st.low[node] == st.index[node] {
                    let mut scc = Vec::new();
                    while let Some(top) = st.stack.pop() {
                        st.on_stack.remove(top);
                        scc.push(top.to_string());
                        if top == node {
                            break;
                        }
                    }
                    let self_loop =
                        scc.len() == 1 && adj.get(node).is_some_and(|s| s.contains(node));
                    if scc.len() > 1 || self_loop {
                        scc.sort();
                        st.sccs.push(scc);
                    }
                }
                call.pop();
                if let Some((parent, _, _)) = call.last() {
                    let nl = st.low[node];
                    let e = st.low.get_mut(*parent).expect("visited");
                    *e = (*e).min(nl);
                }
            }
        }
    }
    st.sccs
}

/// The lint-engine entry point: converts the analysis into violations.
pub fn check(model: &Model, out: &mut Vec<Violation>) {
    let report = analyze_sync(model);
    for cycle in &report.cycles {
        // Anchor the finding at the first edge inside the cycle.
        let edge = report
            .edges
            .iter()
            .find(|e| cycle.contains(&e.from) && cycle.contains(&e.to));
        let (file, line, snippet) = match edge {
            Some(e) => {
                let snippet = model
                    .file_index(&e.file)
                    .map(|fi| {
                        let pf = &model.files[fi].parsed;
                        line_snippet(pf, e.line)
                    })
                    .unwrap_or_default();
                (e.file.clone(), e.line as usize, snippet)
            }
            None => (String::new(), 0, String::new()),
        };
        out.push(Violation {
            file,
            line,
            rule: "lock-order-cycle".to_string(),
            message: format!(
                "locks {{{}}} form an acquisition-order cycle: two threads \
                 taking them in opposite orders can deadlock; impose a single \
                 global order",
                cycle.join(", ")
            ),
            snippet,
            allowed: false,
            baselined: false,
        });
    }
    for m in &report.mismatches {
        let snippet = model
            .file_index(&m.file)
            .map(|fi| line_snippet(&model.files[fi].parsed, m.line))
            .unwrap_or_default();
        out.push(Violation {
            file: m.file.clone(),
            line: m.line as usize,
            rule: "atomic-ordering-mismatch".to_string(),
            message: format!(
                "{}; pair Acquire loads with Release writes (or relax both \
                 ends if no data is published)",
                m.detail
            ),
            snippet,
            allowed: false,
            baselined: false,
        });
    }
}

/// The trimmed source text of 1-based line `line`.
fn line_snippet(pf: &crate::parser::ParsedFile, line: u32) -> String {
    pf.src
        .lines()
        .nth(line.saturating_sub(1) as usize)
        .unwrap_or("")
        .trim()
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// A miniature workspace with the given `mempod-sim` sources.
    fn mini(tag: &str, files: &[(&str, &str)]) -> PathBuf {
        let root =
            std::env::temp_dir().join(format!("mempod-sync-pass-{tag}-{}", std::process::id()));
        if root.exists() {
            std::fs::remove_dir_all(&root).expect("stale fixture removed");
        }
        let write = |rel: &str, content: &str| {
            let p = root.join(rel);
            std::fs::create_dir_all(p.parent().expect("parent")).expect("mkdir");
            std::fs::write(p, content).expect("write");
        };
        write(
            "crates/sim/Cargo.toml",
            "[package]\nname = \"mempod-sim\"\n",
        );
        let mods: String = files
            .iter()
            .map(|(name, _)| format!("pub mod {name};\n"))
            .collect();
        write("crates/sim/src/lib.rs", &mods);
        for (name, src) in files {
            write(&format!("crates/sim/src/{name}.rs"), src);
        }
        root
    }

    fn analyze(tag: &str, files: &[(&str, &str)]) -> SyncReport {
        let root = mini(tag, files);
        let model = Model::build(&root).expect("model");
        let report = analyze_sync(&model);
        std::fs::remove_dir_all(&root).ok();
        report
    }

    /// The rule ids [`check`] emits for the given sources.
    fn checked(tag: &str, files: &[(&str, &str)]) -> Vec<String> {
        let root = mini(tag, files);
        let model = Model::build(&root).expect("model");
        let mut out = Vec::new();
        check(&model, &mut out);
        std::fs::remove_dir_all(&root).ok();
        out.into_iter().map(|v| v.rule).collect()
    }

    #[test]
    fn ab_ba_order_is_a_cycle() {
        let files = [(
            "locks",
            "pub fn f(a: &M, b: &M) { let _x = a.lock(); let _y = b.lock(); }\n\
             pub fn g(a: &M, b: &M) { let _y = b.lock(); let _x = a.lock(); }\n",
        )];
        let report = analyze("abba", &files);
        assert_eq!(report.cycles.len(), 1, "{report:?}");
        assert_eq!(report.cycles[0], vec!["a".to_string(), "b".to_string()]);
        assert_eq!(checked("abba-check", &files), ["lock-order-cycle"]);
    }

    #[test]
    fn consistent_order_is_clean() {
        let files = [(
            "locks",
            "pub fn f(a: &M, b: &M) { let _x = a.lock(); let _y = b.lock(); }\n\
             pub fn g(a: &M, b: &M) { let _x = a.lock(); let _y = b.lock(); }\n",
        )];
        let report = analyze("ordered", &files);
        assert!(report.cycles.is_empty(), "{report:?}");
        assert!(!report.edges.is_empty());
        assert!(report.edges.iter().all(|e| e.from == "a" && e.to == "b"));
        assert!(checked("ordered-check", &files).is_empty());
    }

    #[test]
    fn cycles_are_found_through_callees() {
        let files = [(
            "locks",
            "pub fn helper(b: &M) { let _y = b.lock(); }\n\
             pub fn f(a: &M, b: &M) { let _x = a.lock(); helper(b); }\n\
             pub fn g(a: &M, b: &M) { let _y = b.lock(); let _x = a.lock(); }\n",
        )];
        let report = analyze("transitive", &files);
        assert_eq!(report.cycles.len(), 1, "{report:?}");
        // The indirect a → b edge sits on the `helper(b)` call (line 2).
        assert!(report
            .edges
            .iter()
            .any(|e| e.from == "a" && e.to == "b" && e.line == 2));
        assert_eq!(checked("transitive-check", &files), ["lock-order-cycle"]);
    }

    #[test]
    fn acquire_load_with_relaxed_stores_is_flagged() {
        let report = analyze(
            "mismatch",
            &[(
                "atomics",
                "pub fn f(flag: &A) -> bool { flag.load(Ordering::Acquire) }\n\
                 pub fn g(flag: &A) { flag.store(true, Ordering::Relaxed); }\n",
            )],
        );
        assert_eq!(report.mismatches.len(), 1, "{report:?}");
        assert!(report.mismatches[0]
            .detail
            .contains("synchronizes with nothing"));
    }

    #[test]
    fn paired_and_all_relaxed_atomics_pass() {
        let files = [(
            "atomics",
            "pub fn f(s: &A) -> u8 { s.load(Ordering::Acquire) }\n\
             pub fn g(s: &A) { s.store(1, Ordering::Release); }\n\
             pub fn h(n: &A) -> u64 { n.fetch_add(1, Ordering::Relaxed) }\n\
             pub fn i(n: &A) -> u64 { n.load(Ordering::Relaxed) }\n",
        )];
        let report = analyze("paired", &files);
        assert!(report.mismatches.is_empty(), "{report:?}");
        assert!(checked("paired-check", &files).is_empty());
    }

    #[test]
    fn clean_sources_check_clean() {
        // A single lock order and an Acquire load with no writer at all:
        // nothing to pair, nothing to report.
        let rules = checked(
            "clean",
            &[(
                "locks",
                "pub fn f(a: &M, b: &M) { let _x = a.lock(); let _y = b.lock(); }\n\
                 pub fn g(c: &A) -> bool { c.load(Ordering::Acquire) }\n",
            )],
        );
        assert!(rules.is_empty(), "{rules:?}");
    }
}
