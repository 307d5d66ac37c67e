//! Workspace module graph + approximate call graph, and the coverage sets
//! derived from them.
//!
//! PR 1's lint engine scanned hand-maintained file lists, which rotted the
//! moment the migration pipeline grew (`crates/core/src/migration.rs`,
//! `remap.rs`, and `segment.rs` were all invisible to it). This module
//! *derives* the rule coverage instead:
//!
//! 1. **Module graph** — every workspace crate root (`crates/*/src/lib.rs`)
//!    is parsed and its `mod foo;` declarations resolved to `foo.rs` /
//!    `foo/mod.rs`, recursively, giving the set of library modules per
//!    crate. `crates/compat/*` (vendored shims) is excluded.
//! 2. **Call graph** — every non-test `fn` is a node; an edge is added for
//!    each `name(` / `.name(` token sequence in a body that matches a
//!    workspace `fn` name (name-based, so it overapproximates — exactly
//!    what a coverage derivation wants: no reachable code is missed).
//! 3. **Reachability** — BFS from the simulation entry points:
//!    `Simulator::run`, the public `Runner` functions in
//!    `crates/sim/src/runner.rs`, and the `Channel` enqueue/drain (tick /
//!    schedule) methods.
//!
//! 4. **Phase split** — the same BFS, stopped at the
//!    [`EPOCH_BARRIER_FNS`], gives the per-request *tick* phase
//!    ([`Model::tick_fns`]) that the `unsampled-span` rule polices.
//!
//! The derived hot-path / print / cast file sets are then *computed* as
//! reachable files filtered by crate role, and the `coverage-gap`
//! meta-lint flags any pipeline-crate module that escapes them.

use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::path::{Path, PathBuf};

use crate::parser::{Item, ItemKind, ParsedFile};

/// Crates forming the migration pipeline proper: panic/cast/result rules
/// and the coverage meta-lint apply to their reachable modules.
pub const PIPELINE_CRATES: &[&str] =
    &["mempod-core", "mempod-dram", "mempod-sim", "mempod-tracker"];

/// Crates whose library modules must never print: the pipeline crates plus
/// the telemetry crate itself (diagnostics go through its event stream, so
/// it must not fall back to stdout), covered in full by policy.
pub const PRINT_CRATES: &[&str] = &[
    "mempod-core",
    "mempod-dram",
    "mempod-sim",
    "mempod-tracker",
    "mempod-telemetry",
];

/// Address newtypes from `mempod_types::addr`; a reachable file that
/// mentions one does address arithmetic and joins the lossy-cast set.
pub const ADDR_TYPES: &[&str] = &["Addr", "PageId", "LineId", "FrameId"];

/// The designated conversion/address helper files, exempt from the
/// lossy-cast and unchecked-address-arithmetic rules because they *are*
/// the checked implementations the rules funnel callers toward.
pub const ADDR_HELPER_FILES: &[&str] = &[
    "crates/types/src/convert.rs",
    "crates/types/src/addr.rs",
    "crates/types/src/geometry.rs",
    "crates/dram/src/mapper.rs",
];

/// Functions that run at epoch boundaries, not on the per-request tick
/// path: the manager epoch hooks (`run_epoch` in MemPod, `run_interval`
/// in HMA), the telemetry epoch driver (`observe`/`finalize`/
/// `snapshot_at`) and the merged engine snapshot it consumes
/// (`engine_view`, built only at barriers), the boundary-only reporting
/// hooks, and the sharded engine's batch `barrier` (merging per-shard
/// buffers and emitting execution spans once per window).
pub const EPOCH_BARRIER_FNS: &[&str] = &[
    "run_epoch",
    "run_interval",
    "observe",
    "finalize",
    "snapshot_at",
    "engine_view",
    "audit_invariants",
    "telemetry_counters",
    "barrier",
];

/// One file in the workspace model.
#[derive(Debug)]
pub struct ModelFile {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// Owning crate's package name (e.g. `mempod-core`).
    pub crate_name: String,
    /// The parsed source.
    pub parsed: ParsedFile,
}

/// A function node: (file index, item index) into the model.
pub type FnId = (usize, usize);

/// The workspace source model.
#[derive(Debug)]
pub struct Model {
    /// Every library module of every (non-compat) workspace crate.
    pub files: Vec<ModelFile>,
    /// Function nodes reachable from the simulation entry points.
    pub reachable_fns: HashSet<FnId>,
    /// File indices containing at least one reachable function.
    pub reachable_files: HashSet<usize>,
    /// Names of the root functions the BFS started from (for reporting).
    pub roots: Vec<String>,
}

impl Model {
    /// Builds the model for the workspace at `root`. Returns `Err` only
    /// when the root has no `crates/` directory at all.
    pub fn build(root: &Path) -> Result<Model, String> {
        let crates_dir = root.join("crates");
        if !crates_dir.is_dir() {
            return Err(format!("{}: no crates/ directory", root.display()));
        }
        let mut files: Vec<ModelFile> = Vec::new();

        let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)
            .map_err(|e| format!("reading {}: {e}", crates_dir.display()))?
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.is_dir() && p.file_name().is_some_and(|n| n != "compat"))
            .collect();
        crate_dirs.sort();

        for dir in crate_dirs {
            let Some(crate_name) = package_name(&dir.join("Cargo.toml")) else {
                continue;
            };
            let lib = dir.join("src").join("lib.rs");
            if lib.is_file() {
                load_module_tree(root, &lib, &crate_name, &mut files);
            }
            let main = dir.join("src").join("main.rs");
            if main.is_file() {
                load_module_tree(root, &main, &crate_name, &mut files);
            }
        }

        let mut model = Model {
            files,
            reachable_fns: HashSet::new(),
            reachable_files: HashSet::new(),
            roots: Vec::new(),
        };
        model.compute_reachability();
        Ok(model)
    }

    /// Iterates `(file index, item index, item)` over non-test functions.
    pub fn fns(&self) -> impl Iterator<Item = (usize, usize, &Item)> {
        self.files.iter().enumerate().flat_map(|(fi, f)| {
            f.parsed
                .items
                .iter()
                .enumerate()
                .filter(|(_, it)| it.kind == ItemKind::Fn && !it.cfg_test)
                .map(move |(ii, it)| (fi, ii, it))
        })
    }

    /// Whether a function is one of the simulation entry points.
    fn is_root(&self, file: &ModelFile, item: &Item) -> bool {
        if item.qual == "Simulator::run" {
            return true;
        }
        // Fault-injection entry points: recovery code runs exactly when a
        // fault fires, so everything a public `mempod-faults` function
        // reaches is simulation-visible even though no happy-path root
        // calls it.
        if file.crate_name == "mempod-faults" {
            return item.vis_pub;
        }
        if file.rel.ends_with("crates/sim/src/runner.rs") || file.rel == "crates/sim/src/runner.rs"
        {
            // `run_jobs_core` is the private engine hosting the watchdog
            // monitor thread; root it explicitly so the cancellation path
            // stays covered even if the public wrappers thin out.
            return item.vis_pub || item.name == "run_jobs_core";
        }
        if let Some(ty) = item.qual.strip_suffix(&format!("::{}", item.name)) {
            if ty == "Channel" {
                return matches!(
                    item.name.as_str(),
                    "enqueue"
                        | "enqueue_with_priority"
                        | "drain_until"
                        | "drain_all"
                        | "tick"
                        | "schedule"
                );
            }
        }
        false
    }

    fn compute_reachability(&mut self) {
        let by_name = self.name_index();
        let roots: Vec<FnId> = self
            .fns()
            .filter(|&(fi, _, it)| self.is_root(&self.files[fi], it))
            .map(|(fi, ii, _)| (fi, ii))
            .collect();
        self.roots = roots
            .iter()
            .map(|&(fi, ii)| self.files[fi].parsed.items[ii].qual.clone())
            .collect();
        self.roots.sort();
        self.roots.dedup();

        let reachable = self.reach(&by_name, roots, |_| false);
        self.reachable_files = reachable.iter().map(|&(fi, _)| fi).collect();
        self.reachable_fns = reachable;
    }

    /// Qualified names of the *tick*-phase functions: everything reachable
    /// from the entry points without passing through an epoch barrier
    /// ([`EPOCH_BARRIER_FNS`] or an `EpochDriver` method). Those run per
    /// request; the barriers and their callees run once per window.
    pub fn tick_fns(&self) -> HashSet<String> {
        let is_epoch = |it: &Item| {
            EPOCH_BARRIER_FNS.contains(&it.name.as_str()) || it.qual.starts_with("EpochDriver::")
        };
        let roots: Vec<FnId> = self
            .fns()
            .filter(|&(fi, _, it)| self.is_root(&self.files[fi], it) && !is_epoch(it))
            .map(|(fi, ii, _)| (fi, ii))
            .collect();
        self.reach(&self.name_index(), roots, is_epoch)
            .into_iter()
            .map(|(fi, ii)| self.files[fi].parsed.items[ii].qual.clone())
            .collect()
    }

    /// Name index over all non-test fns (owned names, so a BFS can borrow
    /// `self` for `callees`).
    fn name_index(&self) -> HashMap<String, Vec<FnId>> {
        let mut by_name: HashMap<String, Vec<FnId>> = HashMap::new();
        for (fi, ii, it) in self.fns() {
            by_name.entry(it.name.clone()).or_default().push((fi, ii));
        }
        by_name
    }

    /// BFS over name-resolved call edges from `start`, never entering a
    /// function for which `stop` holds.
    fn reach(
        &self,
        by_name: &HashMap<String, Vec<FnId>>,
        start: Vec<FnId>,
        stop: impl Fn(&Item) -> bool,
    ) -> HashSet<FnId> {
        let mut seen: HashSet<FnId> = HashSet::new();
        let mut queue: VecDeque<FnId> = VecDeque::new();
        for id in start {
            if seen.insert(id) {
                queue.push_back(id);
            }
        }
        while let Some((fi, ii)) = queue.pop_front() {
            for callee in self.callees(fi, ii) {
                for &target in by_name.get(&callee).into_iter().flatten() {
                    if !stop(&self.files[target.0].parsed.items[target.1]) && seen.insert(target) {
                        queue.push_back(target);
                    }
                }
            }
        }
        seen
    }

    /// Callee names referenced in a function body: every `name(` and
    /// `.name(` sequence (macro invocations `name!(…)` excluded).
    fn callees(&self, fi: usize, ii: usize) -> Vec<String> {
        let file = &self.files[fi];
        let item = &file.parsed.items[ii];
        let Some((from, to)) = item.body_tokens else {
            return Vec::new();
        };
        let src = &file.parsed.src;
        let toks = &file.parsed.tokens;
        let mut out = Vec::new();
        for i in from..to.min(toks.len()) {
            let t = &toks[i];
            if t.kind != crate::lexer::TokenKind::Ident {
                continue;
            }
            let Some(next) = toks.get(i + 1) else {
                continue;
            };
            if next.is_punct(src, "(") {
                out.push(t.text(src).to_string());
            }
        }
        out
    }

    /// File index for a workspace-relative path, if modeled.
    pub fn file_index(&self, rel: &str) -> Option<usize> {
        self.files.iter().position(|f| f.rel == rel)
    }
}

/// Reads `name = "…"` out of a `[package]` section (one-pass line scan;
/// the workspace has no TOML parser and needs none for this).
fn package_name(manifest: &Path) -> Option<String> {
    let text = std::fs::read_to_string(manifest).ok()?;
    let mut in_package = false;
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package && line.starts_with("name") {
            return line.split('"').nth(1).map(str::to_string);
        }
    }
    None
}

/// Parses `start_file` and, BFS over its `mod x;` declarations, the whole
/// file-backed module tree beneath it. Test-gated `#[cfg(test)] mod` decls
/// are not followed.
fn load_module_tree(root: &Path, start_file: &Path, crate_name: &str, out: &mut Vec<ModelFile>) {
    let mut queue: VecDeque<PathBuf> = VecDeque::new();
    queue.push_back(start_file.to_path_buf());
    let mut seen: HashSet<PathBuf> = HashSet::new();
    while let Some(path) = queue.pop_front() {
        if !seen.insert(path.clone()) {
            continue;
        }
        let Ok(src) = std::fs::read_to_string(&path) else {
            continue;
        };
        let parsed = ParsedFile::parse(&src);
        let dir = mod_child_dir(&path);
        for decl in parsed.mod_decls() {
            if decl.cfg_test {
                continue;
            }
            let as_file = dir.join(format!("{}.rs", decl.name));
            let as_dir = dir.join(&decl.name).join("mod.rs");
            if as_file.is_file() {
                queue.push_back(as_file);
            } else if as_dir.is_file() {
                queue.push_back(as_dir);
            }
        }
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        out.push(ModelFile {
            rel,
            crate_name: crate_name.to_string(),
            parsed,
        });
    }
    out.sort_by(|a, b| a.rel.cmp(&b.rel));
}

/// Directory in which a file's `mod x;` children live: `src/` for
/// `lib.rs`/`main.rs`/`mod.rs`, else `src/<stem>/`.
fn mod_child_dir(path: &Path) -> PathBuf {
    let parent = path.parent().unwrap_or(Path::new("")).to_path_buf();
    match path.file_name().and_then(|n| n.to_str()) {
        Some("lib.rs") | Some("main.rs") | Some("mod.rs") => parent,
        _ => parent.join(path.file_stem().and_then(|s| s.to_str()).unwrap_or("")),
    }
}

/// The rule coverage derived from the model.
#[derive(Debug, Clone, Default)]
pub struct Coverage {
    /// Files where panicking constructs are banned.
    pub hot: BTreeSet<String>,
    /// Files where ad-hoc printing is banned.
    pub print: BTreeSet<String>,
    /// Files where bare integer `as` casts are banned.
    pub cast: BTreeSet<String>,
    /// Pipeline-crate module files (scope of the semantic rules and the
    /// coverage meta-lint).
    pub pipeline: BTreeSet<String>,
}

/// Derives the hot-path / print / cast coverage sets from reachability.
pub fn derive_coverage(model: &Model) -> Coverage {
    let mut cov = Coverage::default();
    for (fi, file) in model.files.iter().enumerate() {
        let in_pipeline = PIPELINE_CRATES.contains(&file.crate_name.as_str());
        let reachable = model.reachable_files.contains(&fi);
        if in_pipeline {
            cov.pipeline.insert(file.rel.clone());
        }
        if reachable && in_pipeline {
            cov.hot.insert(file.rel.clone());
        }
        if PRINT_CRATES.contains(&file.crate_name.as_str())
            && (reachable || file.crate_name == "mempod-telemetry")
        {
            cov.print.insert(file.rel.clone());
        }
        let helper = ADDR_HELPER_FILES.iter().any(|h| file.rel.ends_with(h));
        if reachable && !helper && (in_pipeline || file.crate_name == "mempod-types") {
            let mentions_addr = file.parsed.tokens.iter().any(|t| {
                t.kind == crate::lexer::TokenKind::Ident
                    && ADDR_TYPES.contains(&t.text(&file.parsed.src))
            });
            if mentions_addr {
                cov.cast.insert(file.rel.clone());
            }
        }
    }
    // The designated address decomposition sites themselves stay under the
    // lossy-cast ban (they must use mempod_types::convert), except
    // convert.rs, which *implements* the checked casts.
    for h in [
        "crates/types/src/addr.rs",
        "crates/types/src/geometry.rs",
        "crates/dram/src/mapper.rs",
    ] {
        if model.file_index(h).is_some() {
            cov.cast.insert(h.to_string());
        }
    }
    cov
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a miniature workspace on disk and returns its root.
    fn mini_workspace(tag: &str) -> PathBuf {
        let root =
            std::env::temp_dir().join(format!("mempod-callgraph-{tag}-{}", std::process::id()));
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
        write(
            "crates/sim/src/lib.rs",
            "pub mod runner;\npub mod simulator;\n",
        );
        write(
            "crates/sim/src/runner.rs",
            "pub fn run_jobs() { step_all(); }\nfn internal() {}\n",
        );
        write(
            "crates/sim/src/simulator.rs",
            "pub struct Simulator;\nimpl Simulator {\n  pub fn run(self) { step_all(); }\n}\n\
             pub fn step_all() { mempod_core::manager::observe(); }\n",
        );
        write(
            "crates/core/Cargo.toml",
            "[package]\nname = \"mempod-core\"\n",
        );
        write(
            "crates/core/src/lib.rs",
            "pub mod manager;\npub mod migration;\npub mod orphan;\n",
        );
        write(
            "crates/core/src/manager.rs",
            "pub fn observe() { crate::migration::plan(); }\n",
        );
        write(
            "crates/core/src/migration.rs",
            "pub struct Addr(pub u64);\npub fn plan() -> u64 { 7 }\n",
        );
        write(
            "crates/core/src/orphan.rs",
            "pub fn never_called() -> u8 { 3 }\n",
        );
        root
    }

    #[test]
    fn module_graph_follows_mod_decls() {
        let root = mini_workspace("modgraph");
        let model = Model::build(&root).expect("model");
        let rels: Vec<&str> = model.files.iter().map(|f| f.rel.as_str()).collect();
        for expect in [
            "crates/sim/src/lib.rs",
            "crates/sim/src/runner.rs",
            "crates/sim/src/simulator.rs",
            "crates/core/src/manager.rs",
            "crates/core/src/migration.rs",
            "crates/core/src/orphan.rs",
        ] {
            assert!(rels.contains(&expect), "{expect} missing from {rels:?}");
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn reachability_spans_crates_and_skips_orphans() {
        let root = mini_workspace("reach");
        let model = Model::build(&root).expect("model");
        let cov = derive_coverage(&model);
        assert!(cov.hot.contains("crates/core/src/migration.rs"), "{cov:?}");
        assert!(cov.hot.contains("crates/core/src/manager.rs"));
        assert!(cov.hot.contains("crates/sim/src/runner.rs"));
        assert!(!cov.hot.contains("crates/core/src/orphan.rs"));
        // migration.rs mentions Addr, so it joins the cast set too.
        assert!(cov.cast.contains("crates/core/src/migration.rs"));
        assert!(!cov.cast.contains("crates/core/src/manager.rs"));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn tick_phase_stops_at_epoch_barriers() {
        let root = mini_workspace("phase");
        let model = Model::build(&root).expect("model");
        let tick = model.tick_fns();
        // `observe` is an epoch barrier: neither it nor `plan`, reached
        // only through it, is tick-phase, though both are reachable.
        for name in ["Simulator::run", "run_jobs", "step_all"] {
            assert!(tick.contains(name), "{name} missing from {tick:?}");
        }
        assert!(!tick.contains("observe"), "{tick:?}");
        assert!(!tick.contains("plan"), "{tick:?}");
        assert!(model.reachable_fns.len() > tick.len());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn roots_include_simulator_run_and_runner_entry_points() {
        let root = mini_workspace("roots");
        let model = Model::build(&root).expect("model");
        assert!(
            model.roots.contains(&"Simulator::run".to_string()),
            "{:?}",
            model.roots
        );
        assert!(model.roots.contains(&"run_jobs".to_string()));
        // Non-pub runner helpers are not roots (but `internal` is still a
        // node; it is simply unreachable).
        assert!(!model.roots.contains(&"internal".to_string()));
        std::fs::remove_dir_all(&root).ok();
    }
}
