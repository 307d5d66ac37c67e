//! The workspace lint engine behind `cargo run -p mempod-audit -- lint`.
//!
//! v2 replaces the hand-maintained file lists of PR 1 with coverage
//! *derived* from the workspace source model: the module graph and
//! approximate call graph in [`crate::callgraph`] compute which files are
//! reachable from the simulation entry points (`Simulator::run`, the
//! public `Runner` functions, the `Channel` enqueue/drain methods), and
//! the rule scopes follow automatically. A new pipeline module is covered
//! the moment it is wired in — or flagged by the `coverage-gap` meta-lint
//! if it isn't.
//!
//! Rule families (each in [`crate::rules`]):
//!
//! * `hot-path-panic` — panicking constructs in derived hot-path files.
//! * `recovery-path-panic` — panicking constructs in recovery code
//!   (rollback/recover/degrade/abort functions, any file; all of
//!   `crates/faults`).
//! * `hot-path-print` — ad-hoc printing in the simulation pipeline.
//! * `lossy-cast` — bare integer `as` casts in address-arithmetic files.
//! * `missing-docs` / `missing-debug` — pub-API coverage in the API crates.
//! * `unit-mismatch` — arithmetic mixing ps/ns/cycle-suffixed values.
//! * `unchecked-addr-arith` — raw address arithmetic outside the helpers.
//! * `ignored-result` — discarded `Result`/`#[must_use]` values.
//! * `nondet-iter` / `nondet-float-reduce` — HashMap/HashSet iteration
//!   (and float reductions over it) on simulation-visible state.
//! * `nondet-clock` — wall-clock reads on the hot path.
//! * `interior-mut` — `static mut`/`thread_local!`/cells/locks that hide
//!   writes behind shared references.
//! * `coverage-gap` — pipeline modules escaping the derived coverage.
//! * `lock-order-cycle` / `atomic-ordering-mismatch` — the concurrency
//!   audit ([`crate::sync_pass`]): acquisition-order cycles and unpaired
//!   acquire/release atomics.
//!
//! Two grandfathering mechanisms with different lifecycles:
//! * [`Allowlist`] (`audit.allowlist.json`) — intentional, permanent
//!   exemptions. Entries that match nothing are themselves an error, so
//!   an exemption cannot outlive its violation.
//! * [`crate::baseline::Baseline`] (`audit.baseline.json`) — frozen debt
//!   for `--deny-new` adoption; stale entries are reported for deletion.

use std::fmt;
use std::path::Path;

use serde_json::{json, Value};

use crate::baseline::Baseline;
use crate::callgraph::{derive_coverage, Coverage, Model, ADDR_HELPER_FILES};
use crate::rules;
use crate::rules::api::API_CRATES;

/// The hot-path files PR 1 hard-coded. Retained (as data, not as rule
/// scope) so the regression suite can assert the derived coverage is a
/// strict superset — the derivation must never silently *lose* a file the
/// old engine covered.
pub const LEGACY_HOT_PATH_FILES: &[&str] = &[
    "crates/dram/src/channel.rs",
    "crates/dram/src/mapper.rs",
    "crates/sim/src/runner.rs",
    "crates/core/src/manager.rs",
    "crates/core/src/mempod.rs",
];

/// The print-ban files PR 1 hard-coded (see [`LEGACY_HOT_PATH_FILES`]).
pub const LEGACY_PRINT_FILES: &[&str] = &[
    "crates/dram/src/channel.rs",
    "crates/dram/src/mapper.rs",
    "crates/dram/src/system.rs",
    "crates/sim/src/runner.rs",
    "crates/sim/src/simulator.rs",
    "crates/core/src/manager.rs",
    "crates/core/src/mempod.rs",
    "crates/core/src/hma.rs",
    "crates/core/src/thm.rs",
    "crates/core/src/cameo.rs",
    "crates/telemetry/src/metrics.rs",
    "crates/telemetry/src/ring.rs",
    "crates/telemetry/src/event.rs",
    "crates/telemetry/src/sink.rs",
    "crates/telemetry/src/lib.rs",
];

/// The cast-ban files PR 1 hard-coded (see [`LEGACY_HOT_PATH_FILES`]).
pub const LEGACY_CAST_FILES: &[&str] = &[
    "crates/types/src/addr.rs",
    "crates/types/src/geometry.rs",
    "crates/dram/src/mapper.rs",
];

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier.
    pub rule: String,
    /// Human-readable explanation.
    pub message: String,
    /// The trimmed source line.
    pub snippet: String,
    /// Whether an allowlist entry grandfathers this finding.
    pub allowed: bool,
    /// Whether a baseline entry grandfathers this finding (`--deny-new`).
    pub baselined: bool,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// One grandfathered finding: matches violations in `file` for `rule`
/// whose source line contains `line_contains` (content-anchored rather
/// than line-number-anchored so unrelated edits don't invalidate it).
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Workspace-relative file the exemption applies to.
    pub file: String,
    /// Rule identifier the exemption applies to.
    pub rule: String,
    /// Substring the offending line must contain.
    pub line_contains: String,
}

impl fmt::Display for AllowEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{{file: {}, rule: {}, line_contains: {:?}}}",
            self.file, self.rule, self.line_contains
        )
    }
}

/// The intentional-exemption allowlist.
#[derive(Debug, Clone, Default)]
pub struct Allowlist {
    entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// Parses the allowlist JSON: an array of
    /// `{"file", "rule", "line_contains"}` objects.
    ///
    /// # Errors
    ///
    /// Returns a message for malformed JSON or missing fields.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v: Value =
            serde_json::from_str(text).map_err(|e| format!("allowlist is not valid JSON: {e}"))?;
        let Some(items) = v.as_array() else {
            return Err("allowlist must be a JSON array".to_string());
        };
        let mut entries = Vec::new();
        for (i, item) in items.iter().enumerate() {
            let field = |k: &str| {
                item[k]
                    .as_str()
                    .map(str::to_string)
                    .ok_or_else(|| format!("allowlist entry {i}: missing string field `{k}`"))
            };
            entries.push(AllowEntry {
                file: field("file")?,
                rule: field("rule")?,
                line_contains: field("line_contains")?,
            });
        }
        Ok(Allowlist { entries })
    }

    /// Whether this allowlist grandfathers the given finding.
    pub fn permits(&self, file: &str, rule: &str, snippet: &str) -> bool {
        self.entries
            .iter()
            .any(|e| e.file == file && e.rule == rule && snippet.contains(&e.line_contains))
    }

    /// Entries that match none of `violations` — grandfathered exemptions
    /// that have outlived their violation and must be deleted.
    pub fn unused<'a>(&'a self, violations: &[Violation]) -> Vec<&'a AllowEntry> {
        self.entries
            .iter()
            .filter(|e| {
                !violations.iter().any(|v| {
                    v.file == e.file && v.rule == e.rule && v.snippet.contains(&e.line_contains)
                })
            })
            .collect()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the allowlist is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Result of one lint run.
#[derive(Debug, Clone)]
pub struct LintReport {
    /// Every finding, including allowlisted/baselined ones.
    pub violations: Vec<Violation>,
    /// Number of files in the workspace model.
    pub files_scanned: usize,
    /// The derived rule coverage.
    pub coverage: Coverage,
    /// The call-graph roots the coverage was derived from.
    pub roots: Vec<String>,
    /// Allowlist entries that matched no finding (an error: exemptions
    /// must not outlive their violations).
    pub stale_allowlist: Vec<String>,
    /// Baseline entries that matched no finding (fixed debt; delete them).
    pub stale_baseline: Vec<String>,
}

impl LintReport {
    /// Findings not covered by the allowlist or baseline.
    pub fn blocking(&self) -> impl Iterator<Item = &Violation> {
        self.violations
            .iter()
            .filter(|v| !v.allowed && !v.baselined)
    }

    /// Whether the tree passes: no blocking findings *and* no stale
    /// allowlist entries.
    pub fn ok(&self) -> bool {
        self.blocking().count() == 0 && self.stale_allowlist.is_empty()
    }

    /// Marks findings present in `baseline` and records its stale entries.
    pub fn apply_baseline(&mut self, baseline: &Baseline) {
        for v in &mut self.violations {
            if !v.allowed && baseline.permits(v) {
                v.baselined = true;
            }
        }
        self.stale_baseline = baseline
            .stale(&self.violations)
            .into_iter()
            .map(|e| format!("{}: [{}] {:?}", e.file, e.rule, e.snippet))
            .collect();
    }

    /// The machine-readable report.
    pub fn to_json(&self) -> Value {
        let violations: Vec<Value> = self
            .violations
            .iter()
            .map(|v| {
                json!({
                    "file": v.file.clone(),
                    "line": v.line,
                    "rule": v.rule.clone(),
                    "message": v.message.clone(),
                    "snippet": v.snippet.clone(),
                    "allowed": v.allowed,
                    "baselined": v.baselined,
                })
            })
            .collect();
        let set = |s: &std::collections::BTreeSet<String>| {
            Value::Array(s.iter().cloned().map(Value::String).collect())
        };
        json!({
            "tool": "mempod-audit",
            "check": "lint",
            "files_scanned": self.files_scanned,
            "blocking": self.blocking().count(),
            "allowlisted": self.violations.iter().filter(|v| v.allowed).count(),
            "baselined": self.violations.iter().filter(|v| v.baselined).count(),
            "ok": self.ok(),
            "roots": self.roots.clone(),
            "coverage": {
                "hot_path": set(&self.coverage.hot),
                "print": set(&self.coverage.print),
                "cast": set(&self.coverage.cast),
                "pipeline": set(&self.coverage.pipeline),
            },
            "stale_allowlist": self.stale_allowlist.clone(),
            "stale_baseline": self.stale_baseline.clone(),
            "violations": Value::Array(violations),
        })
    }
}

/// Runs every rule over the workspace rooted at `root`, with coverage
/// derived from the source model. Baseline handling is separate — see
/// [`LintReport::apply_baseline`].
pub fn run_lint(root: &Path, allowlist: &Allowlist) -> LintReport {
    let model = match Model::build(root) {
        Ok(m) => m,
        Err(e) => {
            // No workspace shape at all: a single finding so the failure
            // is visible in the report rather than silently "clean".
            return LintReport {
                violations: vec![Violation {
                    file: String::new(),
                    line: 0,
                    rule: "model-error".to_string(),
                    message: e,
                    snippet: String::new(),
                    allowed: false,
                    baselined: false,
                }],
                files_scanned: 0,
                coverage: Coverage::default(),
                roots: Vec::new(),
                stale_allowlist: Vec::new(),
                stale_baseline: Vec::new(),
            };
        }
    };
    let coverage = derive_coverage(&model);
    let mut violations = Vec::new();

    for file in &model.files {
        let rel = file.rel.as_str();
        if coverage.hot.contains(rel) {
            rules::panic::check(rel, &file.parsed, &mut violations);
            rules::nondet::check(rel, &file.parsed, &mut violations);
            rules::clock::check(rel, &file.parsed, &mut violations);
            rules::interior_mut::check(rel, &file.parsed, &mut violations);
        }
        // Recovery code is scrutinized everywhere, not just on the derived
        // hot path: a rollback helper in a cold module still runs exactly
        // when a fault has fired.
        let whole_crate = file.crate_name == "mempod-faults";
        rules::recovery::check(rel, &file.parsed, whole_crate, &mut violations);
        if coverage.print.contains(rel) {
            rules::print::check(rel, &file.parsed, &mut violations);
        }
        if coverage.cast.contains(rel) {
            rules::cast::check(rel, &file.parsed, &mut violations);
        }
        if API_CRATES.contains(&file.crate_name.as_str()) {
            rules::api::check(rel, &file.parsed, &mut violations);
        }
        let addr_helper = ADDR_HELPER_FILES.iter().any(|h| rel.ends_with(h));
        if coverage.pipeline.contains(rel) && !addr_helper {
            rules::addr_arith::check(rel, &file.parsed, &mut violations);
        }
        if coverage.pipeline.contains(rel) || file.crate_name == "mempod-types" {
            rules::units::check(rel, &file.parsed, &mut violations);
        }
    }
    rules::ignored_result::check(&model, &coverage, &mut violations);
    rules::coverage::check(&model, &coverage, &mut violations);
    rules::span::check(&model, &mut violations);
    crate::sync_pass::check(&model, &mut violations);

    for v in &mut violations {
        v.allowed = allowlist.permits(&v.file, &v.rule, &v.snippet);
    }
    violations.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    let stale_allowlist = allowlist
        .unused(&violations)
        .into_iter()
        .map(|e| e.to_string())
        .collect();
    LintReport {
        violations,
        files_scanned: model.files.len(),
        coverage,
        roots: model.roots,
        stale_allowlist,
        stale_baseline: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allowlist_grandfathers_by_content() {
        let al = Allowlist::from_json(
            r#"[{"file": "f.rs", "rule": "hot-path-panic",
                 "line_contains": "legacy_unwrap"}]"#,
        )
        .expect("valid allowlist");
        assert!(al.permits(
            "f.rs",
            "hot-path-panic",
            "let x = legacy_unwrap().unwrap();"
        ));
        assert!(!al.permits("f.rs", "hot-path-panic", "other.unwrap()"));
        assert!(!al.permits("g.rs", "hot-path-panic", "legacy_unwrap"));
    }

    #[test]
    fn unused_allowlist_entries_are_detected() {
        let al = Allowlist::from_json(
            r#"[{"file": "f.rs", "rule": "hot-path-panic", "line_contains": "live"},
                {"file": "f.rs", "rule": "hot-path-panic", "line_contains": "dead"}]"#,
        )
        .expect("valid allowlist");
        let violations = vec![Violation {
            file: "f.rs".into(),
            line: 1,
            rule: "hot-path-panic".into(),
            message: "m".into(),
            snippet: "live.unwrap()".into(),
            allowed: true,
            baselined: false,
        }];
        let unused = al.unused(&violations);
        assert_eq!(unused.len(), 1);
        assert_eq!(unused[0].line_contains, "dead");
    }

    #[test]
    fn report_json_names_file_line_rule() {
        let report = LintReport {
            violations: vec![Violation {
                file: "crates/x.rs".into(),
                line: 12,
                rule: "hot-path-panic".into(),
                message: "m".into(),
                snippet: "s".into(),
                allowed: false,
                baselined: false,
            }],
            files_scanned: 1,
            coverage: Coverage::default(),
            roots: vec!["Simulator::run".into()],
            stale_allowlist: Vec::new(),
            stale_baseline: Vec::new(),
        };
        let j = report.to_json();
        assert_eq!(j["ok"].as_bool(), Some(false));
        assert_eq!(j["violations"][0]["file"].as_str(), Some("crates/x.rs"));
        assert_eq!(j["violations"][0]["line"].as_u64(), Some(12));
        assert_eq!(j["violations"][0]["rule"].as_str(), Some("hot-path-panic"));
        assert_eq!(j["roots"][0].as_str(), Some("Simulator::run"));
    }

    #[test]
    fn stale_allowlist_blocks_even_when_violations_pass() {
        let report = LintReport {
            violations: Vec::new(),
            files_scanned: 1,
            coverage: Coverage::default(),
            roots: Vec::new(),
            stale_allowlist: vec!["{file: f.rs, …}".into()],
            stale_baseline: Vec::new(),
        };
        assert!(!report.ok());
        assert_eq!(report.blocking().count(), 0);
    }

    #[test]
    fn baseline_marks_findings_and_reports_stale_entries() {
        let live = Violation {
            file: "f.rs".into(),
            line: 3,
            rule: "lossy-cast".into(),
            message: "m".into(),
            snippet: "x as u32".into(),
            allowed: false,
            baselined: false,
        };
        let baseline = Baseline::from_json(
            r#"{"version": 1, "entries": [
                {"file": "f.rs", "rule": "lossy-cast", "snippet": "x as u32"},
                {"file": "f.rs", "rule": "lossy-cast", "snippet": "fixed as u8"}]}"#,
        )
        .expect("valid baseline");
        let mut report = LintReport {
            violations: vec![live],
            files_scanned: 1,
            coverage: Coverage::default(),
            roots: Vec::new(),
            stale_allowlist: Vec::new(),
            stale_baseline: Vec::new(),
        };
        report.apply_baseline(&baseline);
        assert!(report.ok(), "{report:?}");
        assert!(report.violations[0].baselined);
        assert_eq!(report.stale_baseline.len(), 1);
        assert!(report.stale_baseline[0].contains("fixed as u8"));
    }
}
